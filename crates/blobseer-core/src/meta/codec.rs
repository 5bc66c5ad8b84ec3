//! [`Wire`] impls for the core domain types.
//!
//! These encodings cross *two* boundaries. One is the RPC wire: every
//! tree node a client publishes or fetches, every write intent it has a
//! version assigned for, every ticket, chain and snapshot info it gets
//! back. The other is the durable logs, whose records must decode after a
//! process restart: the record logs of the disk-backed metadata store and
//! the version log (`blobseer_disk`), and the replicated version manager's
//! command log (`blobseer_control`). One encoding for both means a node
//! fetched over the wire and a node replayed from disk are bit-identical.
//! The impls live here, not next to the trait in `blobseer_types::wire`,
//! because Rust's orphan rule puts an impl in the crate that owns the type.
//!
//! Every decode validates its input: positions, block ranges and log
//! entries carry geometry the tree walks rely on. It fails with
//! [`Error::Transport`] ("the bytes are malformed"); a torn or corrupt
//! record can never panic a reader. The disk layer maps decode failures
//! inside a checksummed frame to [`Error::Storage`] — a valid checksum
//! over an undecodable payload means the *writer* was broken, not the
//! medium; so does the control plane for its command log.
//!
//! [`Error::Storage`]: blobseer_types::Error::Storage

use crate::gc::GcReport;
use crate::meta::key::{BlockRange, NodeKey, Pos};
use crate::meta::log::{Border, LogChain, LogEntry, LogSegment, WriteLog};
use crate::meta::node::{BlockDescriptor, NodeRef, TreeNode};
use crate::provider_manager::BlockAllocation;
use crate::version_manager::{SnapshotInfo, WriteIntent, WriteTicket};
use blobseer_types::wire::{Wire, WireReader, WireWriter};
use blobseer_types::{BlobId, BlockId, Error, Result, Version};
use parking_lot::RwLock;
use std::sync::Arc;

/// `start`, `len`; decoding enforces the power-of-two/alignment invariants
/// `Pos::new` only debug-asserts.
impl Wire for Pos {
    fn put(&self, w: &mut WireWriter) {
        (self.start, self.len).put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        let (start, len) = <(u64, u64)>::get(r)?;
        if !len.is_power_of_two() || !start.is_multiple_of(len) {
            return Err(Error::Transport(format!(
                "wire: invalid tree position ({start},{len})"
            )));
        }
        Ok(Pos::new(start, len))
    }
}

impl Wire for NodeKey {
    fn put(&self, w: &mut WireWriter) {
        (self.blob, self.version, self.pos).put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        let (blob, version, pos) = Wire::get(r)?;
        Ok(NodeKey::new(blob, version, pos))
    }
}

/// `start`, `end`; decoding rejects inverted ranges.
impl Wire for BlockRange {
    fn put(&self, w: &mut WireWriter) {
        (self.start, self.end).put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        let (start, end) = <(u64, u64)>::get(r)?;
        if end < start {
            return Err(Error::Transport(format!(
                "wire: inverted block range [{start}, {end})"
            )));
        }
        Ok(BlockRange::new(start, end))
    }
}

impl Wire for NodeRef {
    fn put(&self, w: &mut WireWriter) {
        (self.blob, self.version).put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        let (blob, version) = Wire::get(r)?;
        Ok(NodeRef { blob, version })
    }
}

impl Wire for BlockDescriptor {
    fn put(&self, w: &mut WireWriter) {
        self.block_id.put(w);
        self.providers.put(w);
        self.len.put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        let (block_id, providers, len) = Wire::get(r)?;
        Ok(BlockDescriptor {
            block_id,
            providers,
            len,
        })
    }
}

/// A tag (0 inner, 1 leaf, 2 leaf alias), then the variant's fields.
impl Wire for TreeNode {
    fn put(&self, w: &mut WireWriter) {
        match self {
            TreeNode::Inner { left, right } => {
                w.put_u8(0);
                left.put(w);
                right.put(w);
            }
            TreeNode::Leaf(d) => {
                w.put_u8(1);
                d.put(w);
            }
            TreeNode::LeafAlias(target) => {
                w.put_u8(2);
                target.put(w);
            }
        }
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(match r.get_u8()? {
            0 => TreeNode::Inner {
                left: Wire::get(r)?,
                right: Wire::get(r)?,
            },
            1 => TreeNode::Leaf(Wire::get(r)?),
            2 => TreeNode::LeafAlias(Wire::get(r)?),
            t => return Err(Error::Transport(format!("wire: unknown tree-node tag {t}"))),
        })
    }
}

/// A tag (0 write, 1 append), then the sizes — the one form an intent has
/// on the wire (`assign` requests), in `version.log` and in the
/// `vm-replica-*.log` command logs.
impl Wire for WriteIntent {
    fn put(&self, w: &mut WireWriter) {
        match *self {
            WriteIntent::Write { offset, size } => (0u8, offset, size).put(w),
            WriteIntent::Append { size } => (1u8, size).put(w),
        }
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(match r.get_u8()? {
            0 => WriteIntent::Write {
                offset: r.get_u64()?,
                size: r.get_u64()?,
            },
            1 => WriteIntent::Append { size: r.get_u64()? },
            t => {
                return Err(Error::Transport(format!(
                    "wire: unknown write-intent tag {t}"
                )))
            }
        })
    }
}

/// Decoding validates the tree geometry the walks of `meta::log` rely on:
/// a non-empty block range inside a power-of-two capacity that did not
/// shrink.
impl Wire for LogEntry {
    fn put(&self, w: &mut WireWriter) {
        (self.version, self.blocks).put(w);
        (self.cap_before, self.cap_after, self.size_after).put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        let (version, blocks) = Wire::get(r)?;
        let (cap_before, cap_after, size_after) = Wire::get(r)?;
        let e = LogEntry {
            version,
            blocks,
            cap_before,
            cap_after,
            size_after,
        };
        let grew_from = e.cap_before == 0 || e.cap_before.is_power_of_two();
        if e.blocks.is_empty()
            || !e.cap_after.is_power_of_two()
            || e.blocks.end > e.cap_after
            || !grew_from
            || e.cap_before > e.cap_after
        {
            return Err(Error::Transport(format!(
                "wire: invalid log entry geometry {e:?}"
            )));
        }
        Ok(e)
    }
}

/// Lineage, base, visibility bounds, then the entries as a point-in-time
/// copy. A decoded segment owns a fresh log, indexed like the version
/// manager's; its entries must be dense above the base.
impl Wire for LogSegment {
    fn put(&self, w: &mut WireWriter) {
        self.blob.put(w);
        (self.vec_base, self.lo, self.hi).put(w);
        self.entries.read()[..].put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        let blob = BlobId::get(r)?;
        let (vec_base, lo, hi) = <(Version, Version, Version)>::get(r)?;
        let entries = Vec::<LogEntry>::get(r)?;
        for (k, e) in (0u64..).zip(&entries) {
            // Dense, like the version manager's own log: lookups index by
            // version.
            if Some(e.version.raw()) != vec_base.raw().checked_add(1 + k) {
                return Err(Error::Transport(format!(
                    "wire: log entry {k} after {vec_base} claims {}",
                    e.version
                )));
            }
        }
        let entries: WriteLog = entries.into_iter().collect();
        Ok(LogSegment {
            blob,
            entries: Arc::new(RwLock::new(entries)),
            vec_base,
            lo,
            hi,
        })
    }
}

/// A whole log chain as a point-in-time snapshot of its segments — the
/// answer of the `chain` call, O(history) bytes. Tickets do not carry it
/// ([`WriteTicket`]'s encoding); abort repair, which needs answers no
/// ticket holds, fetches it.
///
/// In-process deployments share the version manager's *live* logs through
/// `Arc`; over the wire the client receives a copy. For the repair of
/// version `v` the copy is sufficient: weaving only consults entries
/// *below* `v`, and those were appended under the per-BLOB mutex before
/// `v` was assigned — they are all present at encode time. A border-only
/// chain has no segments and encodes as an empty chain, which does not
/// decode.
impl Wire for LogChain {
    fn put(&self, w: &mut WireWriter) {
        self.segments().put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        let segments = Vec::<LogSegment>::get(r)?;
        if segments.is_empty() {
            return Err(Error::Transport("wire: empty log chain".into()));
        }
        Ok(LogChain::new(segments))
    }
}

impl Wire for SnapshotInfo {
    fn put(&self, w: &mut WireWriter) {
        (self.version, self.size, self.cap).put(w);
        (self.root_blob, self.revealed).put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        let (version, size, cap) = Wire::get(r)?;
        let (root_blob, revealed) = Wire::get(r)?;
        Ok(SnapshotInfo {
            version,
            size,
            cap,
            root_blob,
            revealed,
        })
    }
}

/// How one border answer of a ticket is encoded: a tag, then for the two
/// node tags how many versions *back* from the ticket's the materializer
/// lies (`>= 1`) — "the latest writer before `v`" is mostly a recent one,
/// so the distance stays a short varint where the version would not.
mod border_tag {
    /// No earlier version materialized the position: a hole.
    pub const HOLE: u8 = 0;
    /// A version of the ticket's own blob; the distance follows.
    pub const OWN: u8 = 1;
    /// A version of an ancestor lineage; its blob id, then the distance.
    pub const ANCESTOR: u8 = 2;
}

/// Written in place of the border-answer count when the encoder's chain
/// could not answer the ticket's own border (a hand-built, inconsistent
/// ticket). Decoding fails on it: a missing answer must never read as a
/// hole.
const BORDER_UNANSWERED: u64 = u64::MAX;

/// Blob, offset, previous size, entry and — in place of the log — the
/// answers to the entry's border ([`LogChain::border`]): per position the
/// tree build of `t.entry` weaves, the latest materializer before
/// `t.version`. Only the answers travel; the decoder re-derives the
/// positions from the entry with the same walk. O(tree depth) bytes
/// whatever the length of the history, and the same bytes from a live
/// chain, a fully transferred one, or the border-only chain of a decoded
/// ticket. A decoded ticket's chain is border-only: it answers the border
/// positions of the ticket's entry, for the ticket's version, and fails
/// with [`Error::Internal`] on anything else.
///
/// The lookups run on the encoding thread — for a hosted version manager
/// a server worker, *outside* the per-BLOB mutex that serialized the
/// assignment. Every entry below `t.version` is already in the log by
/// then; later ones are clamped away.
impl Wire for WriteTicket {
    fn put(&self, w: &mut WireWriter) {
        (self.blob, self.offset, self.prev_size).put(w);
        self.entry.put(w);
        let border = match self.chain.border(&self.entry) {
            Ok(border) if self.version == self.entry.version => border,
            _ => return w.put_u64(BORDER_UNANSWERED),
        };
        w.put_u64(border.answers().len() as u64);
        for (_, answer) in border.answers() {
            match answer {
                None => w.put_u8(border_tag::HOLE),
                Some(m) => {
                    if m.blob == self.blob {
                        w.put_u8(border_tag::OWN);
                    } else {
                        w.put_u8(border_tag::ANCESTOR);
                        m.blob.put(w);
                    }
                    w.put_u64(self.version.raw() - m.version.raw());
                }
            }
        }
    }

    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        let (blob, offset, prev_size) = <(BlobId, u64, u64)>::get(r)?;
        let entry = LogEntry::get(r)?;
        let version = entry.version;
        let n = r.get_u64()?;
        if n == BORDER_UNANSWERED {
            return Err(Error::Transport(
                "wire: the ticket's encoder could not answer its border".into(),
            ));
        }
        // A border has at most a few positions per tree level.
        let mut answers = Vec::with_capacity((n as usize).min(256));
        for _ in 0..n {
            let lineage = match r.get_u8()? {
                border_tag::HOLE => {
                    answers.push(None);
                    continue;
                }
                border_tag::OWN => blob,
                border_tag::ANCESTOR => BlobId::get(r)?,
                t => {
                    return Err(Error::Transport(format!(
                        "wire: unknown border-answer tag {t}"
                    )))
                }
            };
            let back = r.get_u64()?;
            let at = version.raw().checked_sub(back).filter(|_| back > 0);
            let at = at.ok_or_else(|| {
                Error::Transport(format!(
                    "wire: border answer {back} versions before {version}"
                ))
            })?;
            answers.push(Some(NodeRef {
                blob: lineage,
                version: Version::new(at),
            }));
        }
        let border = Border::of(&entry, answers).ok_or_else(|| {
            Error::Transport(format!(
                "wire: {n} border answers do not fit the border of {entry:?}"
            ))
        })?;
        Ok(WriteTicket {
            blob,
            version,
            offset,
            prev_size,
            entry,
            chain: LogChain::from_border(border),
        })
    }
}

impl Wire for BlockAllocation {
    fn put(&self, w: &mut WireWriter) {
        self.block_id.put(w);
        self.providers.put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        let (block_id, providers) = <(BlockId, Vec<usize>)>::get(r)?;
        Ok(BlockAllocation {
            block_id,
            providers,
        })
    }
}

impl Wire for GcReport {
    fn put(&self, w: &mut WireWriter) {
        (self.nodes_deleted, self.blocks_deleted).put(w);
        (self.bytes_freed, self.untracked_releases).put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        let (nodes_deleted, blocks_deleted) = Wire::get(r)?;
        let (bytes_freed, untracked_releases) = Wire::get(r)?;
        Ok(GcReport {
            nodes_deleted,
            blocks_deleted,
            bytes_freed,
            untracked_releases,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_keys_roundtrip() {
        let key = NodeKey::new(BlobId::new(3), Version::new(7), Pos::new(8, 4));
        assert_eq!(NodeKey::from_bytes(&key.to_bytes()).unwrap(), key);
        let keys = vec![
            key,
            NodeKey::new(BlobId::new(u64::MAX), Version::new(1), Pos::new(0, 1)),
        ];
        assert_eq!(Vec::<NodeKey>::from_bytes(&keys.to_bytes()).unwrap(), keys);
        assert_eq!(keys[..].to_bytes(), keys.to_bytes(), "slice encodes as vec");
    }

    #[test]
    fn inverted_block_range_rejected() {
        let got = BlockRange::from_bytes(&(5u64, 2u64).to_bytes());
        assert!(matches!(got, Err(Error::Transport(_))), "{got:?}");
    }
}
