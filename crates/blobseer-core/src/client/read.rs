//! The read path: snapshot resolution, segment-tree descent and block
//! fetches (§III-C), plus the data-location primitive behind Hadoop's
//! affinity scheduling (§IV-C).

use crate::meta::key::BlockRange;
use crate::meta::tree::LocatedBlock;
use crate::ports::{ProtocolOp, ProtocolPhase};
use crate::stats::EngineStats;
use crate::version_manager::SnapshotInfo;
use blobseer_types::{BlobId, BlockId, ByteRange, Error, Result, Version};
use bytes::{Bytes, BytesMut};
use std::sync::Arc;

use super::{BlobClient, BlockLocation};

impl BlobClient {
    /// Reads `size` bytes at `offset` from the given snapshot
    /// (`None` = latest revealed). Fails with [`Error::OutOfBounds`] when
    /// the range exceeds the snapshot and [`Error::VersionNotRevealed`]
    /// when an explicit version is not yet visible (§III-A.5: readers only
    /// access revealed snapshots).
    ///
    /// A range that one stored block covers comes back as a slice of the
    /// block the store answered with, sharing its allocation; any other
    /// range is assembled into one fresh buffer.
    pub fn read(
        &self,
        blob: BlobId,
        version: Option<Version>,
        offset: u64,
        size: u64,
    ) -> Result<Bytes> {
        self.observe(ProtocolOp::Read, ProtocolPhase::Start);
        let info = self.resolve(blob, version)?;
        self.check_bounds(offset, size, info.size)?;
        let bs = self.sys.cfg.block_size;
        let located = self.locate(&info, BlockRange::of_bytes(offset, size, bs))?;
        self.observe(ProtocolOp::Read, ProtocolPhase::Located);
        let fetched = self.fetch(&located)?;
        let (lo, hi) = ((offset % bs) as usize, (offset % bs + size) as usize);
        let out = match &fetched[..] {
            // One stored block covers the whole range: hand back its bytes
            // as they are, no copy.
            [Some(block)] if hi <= block.len() => block.slice(lo..hi),
            _ => assemble(ByteRange::new(offset, size), bs, &located, fetched),
        };
        EngineStats::add(&self.sys.stats.bytes_read, size);
        self.observe(ProtocolOp::Read, ProtocolPhase::Done);
        Ok(out)
    }

    /// Fetch phase, vectored and fanned out, in waves. Wave 0 reads each
    /// block from the replica provider chosen deterministically by block
    /// index (to spread load); each later wave retries the blocks still
    /// missing against their next replica, in descriptor order (the
    /// replication the paper relies on for fault tolerance, §VI-B). Each
    /// wave is one `get_many` per provider, issued concurrently, and every
    /// retry counts in `EngineStats::read_replica_fallbacks`. Holes stay
    /// `None`. Fails with the lowest-index unrecovered block's *last*
    /// replica error once all are exhausted.
    fn fetch(&self, located: &[LocatedBlock]) -> Result<Vec<Option<Bytes>>> {
        // Per block to fetch: its slot, id, the replicas still to try (the
        // next one last) and the last error met.
        let mut todo: Vec<(usize, BlockId, Vec<usize>, Error)> = Vec::new();
        for (i, loc) in located.iter().enumerate() {
            if let Some(desc) = &loc.desc {
                let primary = desc.providers[loc.index as usize % desc.providers.len()] as usize;
                let mut order: Vec<usize> = desc
                    .providers
                    .iter()
                    .rev()
                    .map(|&p| p as usize)
                    .filter(|&p| p != primary)
                    .collect();
                order.push(primary);
                let unfetched = Error::MissingBlock(desc.block_id.raw());
                todo.push((i, desc.block_id, order, unfetched));
            }
        }
        let mut fetched: Vec<Option<Bytes>> = vec![None; located.len()];
        for wave in 0.. {
            let tries: Vec<(usize, usize)> = todo
                .iter_mut()
                .enumerate()
                .filter(|(_, (i, ..))| fetched[*i].is_none())
                .filter_map(|(t, (_, _, order, _))| order.pop().map(|p| (t, p)))
                .collect();
            if tries.is_empty() {
                break;
            }
            if wave > 0 {
                EngineStats::add(&self.sys.stats.read_replica_fallbacks, tries.len() as u64);
            }
            let ids: Vec<BlockId> = tries.iter().map(|&(t, _)| todo[t].1).collect();
            let providers = Arc::clone(&self.sys.providers);
            let results = self.sys.exec.scatter_gather(
                &self.sys.stats,
                &ids,
                tries.iter().map(|&(_, p)| p),
                move |p, batch| providers.get_many(p, batch),
            );
            for (&(t, _), result) in tries.iter().zip(results) {
                match result {
                    Ok(block) => fetched[todo[t].0] = Some(block),
                    Err(e) => todo[t].3 = e,
                }
            }
        }
        // `todo` is in block order, so the surfaced error is the lowest
        // unrecovered index's — deterministic, like the serial path's.
        match todo.into_iter().find(|(i, ..)| fetched[*i].is_none()) {
            Some((.., last_err)) => Err(last_err),
            None => Ok(fetched),
        }
    }

    /// The data-location primitive backing Hadoop's affinity scheduling
    /// (§IV-C). Returns one entry per block overlapping the range, with the
    /// nodes hosting its replicas.
    pub fn locations(
        &self,
        blob: BlobId,
        version: Option<Version>,
        offset: u64,
        size: u64,
    ) -> Result<Vec<BlockLocation>> {
        let info = self.resolve(blob, version)?;
        self.check_bounds(offset, size, info.size)?;
        if size == 0 {
            return Ok(Vec::new());
        }
        let bs = self.sys.cfg.block_size;
        let located = self.locate(&info, BlockRange::of_bytes(offset, size, bs))?;
        let spans = ByteRange::new(offset, size).block_spans(bs);
        Ok(spans
            .zip(located)
            .map(|(span, loc)| BlockLocation {
                range: span.absolute(bs),
                block_index: loc.index,
                nodes: loc
                    .desc
                    .map(|d| {
                        d.providers
                            .iter()
                            .map(|&p| self.sys.providers.node(p as usize))
                            .collect()
                    })
                    .unwrap_or_default(),
            })
            .collect())
    }

    /// Descends the snapshot's tree to the blocks of `query` and checks
    /// each leaf once, here, before any of it is used: a descriptor that
    /// names no provider, or one this deployment does not have, fails the
    /// operation with [`Error::MissingBlock`] — it is never read as a hole.
    fn locate(&self, info: &SnapshotInfo, query: BlockRange) -> Result<Vec<LocatedBlock>> {
        let located = self
            .sys
            .tree()
            .locate(info.root_blob, info.version, info.cap, query)?;
        let n = self.sys.providers.len();
        for desc in located.iter().filter_map(|loc| loc.desc.as_ref()) {
            if desc.providers.is_empty() || desc.providers.iter().any(|&p| p as usize >= n) {
                return Err(Error::MissingBlock(desc.block_id.raw()));
            }
        }
        Ok(located)
    }

    /// Overflow-safe range check: `offset + size` saturates instead of
    /// wrapping, so a huge offset fails with [`Error::OutOfBounds`] rather
    /// than slipping past the guard (release) or panicking (debug).
    fn check_bounds(&self, offset: u64, size: u64, snapshot_size: u64) -> Result<()> {
        match offset.checked_add(size) {
            Some(end) if end <= snapshot_size => Ok(()),
            _ => Err(Error::OutOfBounds {
                requested_end: offset.saturating_add(size),
                snapshot_size,
            }),
        }
    }

    pub(crate) fn resolve(&self, blob: BlobId, version: Option<Version>) -> Result<SnapshotInfo> {
        match version {
            None => {
                let (v, _) = self.sys.vm.latest(blob)?;
                self.sys.vm.snapshot_info(blob, v)
            }
            Some(v) => {
                let info = self.sys.vm.snapshot_info(blob, v)?;
                if !info.revealed {
                    return Err(Error::VersionNotRevealed {
                        blob: blob.raw(),
                        version: v.raw(),
                    });
                }
                Ok(info)
            }
        }
    }
}

/// Copies the fetched blocks' parts of `range` into one buffer, in block
/// order: holes read as zeros, and so does the part of a span past the end
/// of a stored block that is shorter than it.
fn assemble(
    range: ByteRange,
    bs: u64,
    located: &[LocatedBlock],
    fetched: Vec<Option<Bytes>>,
) -> Bytes {
    let mut out = BytesMut::with_capacity(range.size as usize);
    for ((span, loc), block) in range.block_spans(bs).zip(located).zip(fetched) {
        debug_assert_eq!(span.block_index, loc.index);
        match block {
            None => out.resize(out.len() + span.len as usize, 0),
            Some(block) => {
                let lo = span.offset_in_block as usize;
                let hi = (span.offset_in_block + span.len) as usize;
                let avail = block.len();
                if lo < avail {
                    out.extend_from_slice(&block[lo..hi.min(avail)]);
                }
                // Stored tail blocks may be shorter than the span when a
                // later write extended the BLOB past them: zero-fill.
                if hi > avail.max(lo) {
                    out.resize(out.len() + (hi - avail.max(lo)), 0);
                }
            }
        }
    }
    debug_assert_eq!(out.len() as u64, range.size);
    out.freeze()
}

#[cfg(test)]
mod tests {
    use crate::client::{BlobClient, BlobSeer, EnginePorts};
    use crate::meta::key::BlockRange;
    use crate::ports::{ProtocolObserver, ProtocolOp, ProtocolPhase};
    use blobseer_types::{BlobId, BlobSeerConfig, NodeId};
    use bytes::Bytes;
    use parking_lot::Mutex;
    use std::sync::Arc;

    const BS: u64 = 64;

    /// Records the phases of every read.
    #[derive(Default)]
    struct Reads(Mutex<Vec<ProtocolPhase>>);

    impl ProtocolObserver for Reads {
        fn phase(&self, _node: NodeId, op: ProtocolOp, phase: ProtocolPhase) {
            if op == ProtocolOp::Read {
                self.0.lock().push(phase);
            }
        }
    }

    /// Blocks 0 and 1 written whole, block 2 a hole, block 3 a 44-byte
    /// tail: 236 bytes in all.
    struct Fx {
        sys: Arc<BlobSeer>,
        client: BlobClient,
        reads: Arc<Reads>,
        blob: BlobId,
        data: Vec<u8>,
    }

    impl Fx {
        fn new() -> Self {
            let cfg = BlobSeerConfig::small_for_tests().with_block_size(BS);
            let mut ports = EnginePorts::in_memory(&cfg, (0..4).map(NodeId::new).collect(), 7);
            let reads = Arc::new(Reads::default());
            ports.observer = Arc::clone(&reads) as Arc<dyn ProtocolObserver>;
            let sys = BlobSeer::deploy_ports(cfg, ports);
            let client = sys.client(NodeId::new(9));
            let blob = client.create();
            let data: Vec<u8> = (0..236).map(|i| (i % 251) as u8 + 1).collect();
            client.write(blob, 0, &data[..128]).unwrap();
            client.write(blob, 192, &data[192..]).unwrap();
            Self {
                sys,
                client,
                reads,
                blob,
                data,
            }
        }

        /// Reads `[offset, offset + size)` of the latest snapshot, checking
        /// that the read passed through exactly `Start → Located → Done`.
        fn read(&self, offset: u64, size: u64) -> Bytes {
            let got = self.client.read(self.blob, None, offset, size).unwrap();
            let phases = std::mem::take(&mut *self.reads.0.lock());
            let want = [
                ProtocolPhase::Start,
                ProtocolPhase::Located,
                ProtocolPhase::Done,
            ];
            assert_eq!(phases, want, "read of {size} bytes at {offset}");
            assert_eq!(got.len() as u64, size);
            got
        }

        /// Block `index` of the latest snapshot as the provider set hands
        /// it out.
        fn stored(&self, index: u64) -> Bytes {
            let info = self.client.resolve(self.blob, None).unwrap();
            let query = BlockRange::new(index, index + 1);
            let located = self.client.locate(&info, query).unwrap();
            let desc = located[0].desc.as_ref().expect("a stored block");
            let provider = desc.providers[0] as usize;
            let mut got = self.sys.providers().get_many(provider, &[desc.block_id]);
            got.pop().unwrap().unwrap()
        }
    }

    /// True when `part` lies inside `whole`'s bytes: a view, not a copy.
    fn is_view_of(part: &Bytes, whole: &Bytes) -> bool {
        let (at, start) = (part.as_ptr() as usize, whole.as_ptr() as usize);
        at >= start && at + part.len() <= start + whole.len()
    }

    #[test]
    fn a_one_block_read_is_a_view_of_the_stored_block() {
        let fx = Fx::new();
        let whole = fx.read(0, BS);
        assert_eq!(&whole[..], &fx.data[..64]);
        let block0 = fx.stored(0);
        assert_eq!(whole.as_ptr(), block0.as_ptr(), "no copy");
        let inner = fx.read(64 + 10, 30);
        assert_eq!(&inner[..], &fx.data[74..104]);
        let block1 = fx.stored(1);
        assert_eq!(inner.as_ptr(), block1.as_ptr().wrapping_add(10));
        assert!(is_view_of(&inner, &block1));
    }

    #[test]
    fn a_short_last_block_at_the_end_is_spliced() {
        let fx = Fx::new();
        let tail = fx.stored(3);
        assert_eq!(tail.len(), 44, "the tail block is stored short");
        let got = fx.read(192 + 4, 40);
        assert_eq!(&got[..], &fx.data[196..236]);
        assert!(is_view_of(&got, &tail));
    }

    #[test]
    fn a_read_past_a_short_stored_block_zero_fills() {
        let fx = Fx::new();
        fx.client.write(fx.blob, 400, &[7u8; 10]).unwrap();
        let tail = fx.stored(3);
        assert_eq!(tail.len(), 44, "the extending write left block 3 alone");
        let got = fx.read(192, BS);
        assert_eq!(&got[..44], &fx.data[192..]);
        assert!(got[44..].iter().all(|&b| b == 0));
        assert!(!is_view_of(&got, &tail));
    }

    #[test]
    fn holes_and_multi_block_reads_are_assembled() {
        let fx = Fx::new();
        assert!(fx.read(128, BS).iter().all(|&b| b == 0), "a hole");
        assert!(fx.read(130, 20).iter().all(|&b| b == 0), "inside a hole");
        let two = fx.read(60, 10);
        assert_eq!(&two[..], &fx.data[60..70]);
        assert!(!is_view_of(&two, &fx.stored(0)));
        let across = fx.read(100, 136);
        assert_eq!(&across[..28], &fx.data[100..128]);
        assert!(across[28..92].iter().all(|&b| b == 0));
        assert_eq!(&across[92..], &fx.data[192..]);
    }

    #[test]
    fn an_empty_read_passes_every_phase() {
        let fx = Fx::new();
        assert!(fx.read(0, 0).is_empty());
        assert!(fx.read(236, 0).is_empty(), "at the end");
        let empty = fx.client.create();
        assert!(fx.client.read(empty, None, 0, 0).unwrap().is_empty());
        assert_eq!(fx.reads.0.lock().len(), 3, "an empty BLOB too");
    }
}
