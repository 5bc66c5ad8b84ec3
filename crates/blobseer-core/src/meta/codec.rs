//! Binary codecs for the metadata domain types.
//!
//! These encodings cross *two* boundaries: the RPC wire (every tree node
//! a client publishes or fetches and every write intent it has a version
//! assigned for travels in this form, see `blobseer_rpc::wire`) and the
//! durable logs — the record logs of the disk-backed metadata store and
//! the version log (`blobseer_disk`), the replicated version manager's
//! command log (`blobseer_control`) — whose records must decode after a
//! process restart. Keeping one codec for both means a node
//! fetched over the wire and a node replayed from disk are bit-identical,
//! and the round-trip properties proved by the wire tests cover the
//! durable format for free.
//!
//! Every decode validates its input and fails with
//! [`Error::Transport`] ("the bytes are malformed"); a torn or corrupt
//! record can never panic a reader. The disk layer maps decode failures
//! inside a checksummed frame to [`Error::Storage`] — a valid checksum
//! over an undecodable payload means the *writer* was broken, not the
//! medium; so does the control plane for its command log.
//!
//! [`Error::Storage`]: blobseer_types::Error::Storage

use crate::meta::key::{BlockRange, NodeKey, Pos};
use crate::meta::node::{BlockDescriptor, NodeRef, TreeNode};
use crate::version_manager::WriteIntent;
use blobseer_types::wire::{WireReader, WireWriter};
use blobseer_types::{BlobId, BlockId, Error, Result, Version};

/// Encodes a node position.
pub fn put_pos(w: &mut WireWriter, pos: Pos) {
    w.put_u64(pos.start);
    w.put_u64(pos.len);
}

/// Decodes a node position, validating the power-of-two/alignment
/// invariants `Pos::new` only debug-asserts.
pub fn get_pos(r: &mut WireReader<'_>) -> Result<Pos> {
    let start = r.get_u64()?;
    let len = r.get_u64()?;
    if !len.is_power_of_two() || !start.is_multiple_of(len) {
        return Err(Error::Transport(format!(
            "wire: invalid tree position ({start},{len})"
        )));
    }
    Ok(Pos::new(start, len))
}

/// Encodes a DHT node key.
pub fn put_node_key(w: &mut WireWriter, key: &NodeKey) {
    w.put_u64(key.blob.raw());
    w.put_u64(key.version.raw());
    put_pos(w, key.pos);
}

/// Decodes a DHT node key.
pub fn get_node_key(r: &mut WireReader<'_>) -> Result<NodeKey> {
    Ok(NodeKey::new(
        BlobId::new(r.get_u64()?),
        Version::new(r.get_u64()?),
        get_pos(r)?,
    ))
}

/// Encodes a block range.
pub fn put_block_range(w: &mut WireWriter, range: BlockRange) {
    w.put_u64(range.start);
    w.put_u64(range.end);
}

/// Decodes a block range (rejecting inverted ranges).
pub fn get_block_range(r: &mut WireReader<'_>) -> Result<BlockRange> {
    let start = r.get_u64()?;
    let end = r.get_u64()?;
    if end < start {
        return Err(Error::Transport(format!(
            "wire: inverted block range [{start}, {end})"
        )));
    }
    Ok(BlockRange::new(start, end))
}

/// Encodes an optional reference to another version's tree node.
pub fn put_opt_node_ref(w: &mut WireWriter, r: &Option<NodeRef>) {
    match r {
        None => w.put_bool(false),
        Some(nr) => {
            w.put_bool(true);
            w.put_u64(nr.blob.raw());
            w.put_u64(nr.version.raw());
        }
    }
}

/// Decodes an optional node reference.
pub fn get_opt_node_ref(r: &mut WireReader<'_>) -> Result<Option<NodeRef>> {
    if !r.get_bool()? {
        return Ok(None);
    }
    Ok(Some(NodeRef {
        blob: BlobId::new(r.get_u64()?),
        version: Version::new(r.get_u64()?),
    }))
}

/// Encodes a block descriptor.
pub fn put_block_descriptor(w: &mut WireWriter, d: &BlockDescriptor) {
    w.put_u64(d.block_id.raw());
    w.put_u64(d.providers.len() as u64);
    for &p in &d.providers {
        w.put_u32(p);
    }
    w.put_u32(d.len);
}

/// Decodes a block descriptor.
pub fn get_block_descriptor(r: &mut WireReader<'_>) -> Result<BlockDescriptor> {
    let block_id = BlockId::new(r.get_u64()?);
    let n = r.get_u64()? as usize;
    let mut providers = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        providers.push(r.get_u32()?);
    }
    Ok(BlockDescriptor {
        block_id,
        providers,
        len: r.get_u32()?,
    })
}

/// Encodes a metadata tree node.
pub fn put_tree_node(w: &mut WireWriter, node: &TreeNode) {
    match node {
        TreeNode::Inner { left, right } => {
            w.put_u8(0);
            put_opt_node_ref(w, left);
            put_opt_node_ref(w, right);
        }
        TreeNode::Leaf(d) => {
            w.put_u8(1);
            put_block_descriptor(w, d);
        }
        TreeNode::LeafAlias(target) => {
            w.put_u8(2);
            put_opt_node_ref(w, target);
        }
    }
}

/// Decodes a metadata tree node.
pub fn get_tree_node(r: &mut WireReader<'_>) -> Result<TreeNode> {
    Ok(match r.get_u8()? {
        0 => TreeNode::Inner {
            left: get_opt_node_ref(r)?,
            right: get_opt_node_ref(r)?,
        },
        1 => TreeNode::Leaf(get_block_descriptor(r)?),
        2 => TreeNode::LeafAlias(get_opt_node_ref(r)?),
        t => return Err(Error::Transport(format!("wire: unknown tree-node tag {t}"))),
    })
}

/// Encodes a write intent — the one form it has on the wire (`assign`
/// requests), in `version.log` and in the `vm-replica-*.log` command logs.
pub fn put_write_intent(w: &mut WireWriter, intent: WriteIntent) {
    match intent {
        WriteIntent::Write { offset, size } => {
            w.put_u8(0);
            w.put_u64(offset);
            w.put_u64(size);
        }
        WriteIntent::Append { size } => {
            w.put_u8(1);
            w.put_u64(size);
        }
    }
}

/// Decodes a write intent.
pub fn get_write_intent(r: &mut WireReader<'_>) -> Result<WriteIntent> {
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Golden bytes: these are on disk in every `version.log` and
    /// `vm-replica-*.log` written so far, and on the wire between mixed
    /// builds — they may not move.
    #[test]
    fn write_intent_bytes_are_pinned() {
        let cases = [
            (
                WriteIntent::Write {
                    offset: 300,
                    size: 5,
                },
                &[0u8, 0xAC, 0x02, 5][..],
            ),
            (WriteIntent::Append { size: 128 }, &[1, 0x80, 0x01][..]),
        ];
        for (intent, golden) in cases {
            let mut w = WireWriter::new();
            put_write_intent(&mut w, intent);
            assert_eq!(w.as_slice(), golden, "{intent:?}");
            let mut r = WireReader::new(golden);
            assert_eq!(get_write_intent(&mut r).unwrap(), intent);
            r.finish().unwrap();
        }
        let unknown = get_write_intent(&mut WireReader::new(&[2, 0]));
        assert!(matches!(unknown, Err(Error::Transport(_))), "{unknown:?}");
    }

    #[test]
    fn node_keys_roundtrip() {
        let key = NodeKey::new(BlobId::new(3), Version::new(7), Pos::new(8, 4));
        let mut w = WireWriter::new();
        put_node_key(&mut w, &key);
        let mut r = WireReader::new(w.as_slice());
        assert_eq!(get_node_key(&mut r).unwrap(), key);
        r.finish().unwrap();
    }

    #[test]
    fn inverted_block_range_rejected() {
        let mut w = WireWriter::new();
        w.put_u64(5);
        w.put_u64(2);
        let mut r = WireReader::new(w.as_slice());
        assert!(matches!(get_block_range(&mut r), Err(Error::Transport(_))));
    }
}
