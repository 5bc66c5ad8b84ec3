//! Datanodes: the chunk servers of HDFS (§II-B).
//!
//! Chunks are write-once: a writer commits each one whole, `put` refuses a
//! chunk id it already holds, and nothing rewrites or extends a stored
//! chunk — "once written, data cannot be altered" (§II-B).

use blobseer_types::{Error, NodeId, Result};
use bytes::Bytes;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Identifies a chunk cluster-wide (allocated by the namenode).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ChunkId(pub u64);

/// One datanode process.
pub struct DataNode {
    node: NodeId,
    chunks: RwLock<HashMap<ChunkId, Bytes>>,
    bytes_stored: AtomicU64,
}

impl DataNode {
    /// An empty datanode on `node`.
    pub fn new(node: NodeId) -> Self {
        Self {
            node,
            chunks: RwLock::named(HashMap::new(), "hdfs.datanode.chunks"),
            bytes_stored: AtomicU64::new(0),
        }
    }

    /// The hosting cluster node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Stores a committed chunk; a chunk id is stored at most once.
    pub fn put(&self, id: ChunkId, data: Bytes) -> Result<()> {
        let mut chunks = self.chunks.write();
        if chunks.contains_key(&id) {
            return Err(Error::Internal(format!("chunk {id:?} already exists")));
        }
        self.bytes_stored
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        chunks.insert(id, data);
        Ok(())
    }

    /// Reads a whole chunk.
    pub fn get(&self, id: ChunkId) -> Result<Bytes> {
        self.chunks
            .read()
            .get(&id)
            .cloned()
            .ok_or(Error::MissingBlock(id.0))
    }

    /// Deletes a chunk; returns bytes freed.
    pub fn delete(&self, id: ChunkId) -> u64 {
        match self.chunks.write().remove(&id) {
            Some(data) => {
                let n = data.len() as u64;
                self.bytes_stored.fetch_sub(n, Ordering::Relaxed);
                n
            }
            None => 0,
        }
    }

    /// Number of chunks stored.
    pub fn chunk_count(&self) -> usize {
        self.chunks.read().len()
    }

    /// Total payload bytes stored.
    pub fn bytes_stored(&self) -> u64 {
        self.bytes_stored.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let dn = DataNode::new(NodeId::new(1));
        dn.put(ChunkId(1), Bytes::from_static(b"abcdef")).unwrap();
        assert_eq!(&dn.get(ChunkId(1)).unwrap()[..], b"abcdef");
        assert_eq!(dn.bytes_stored(), 6);
        assert_eq!(dn.chunk_count(), 1);
    }

    #[test]
    fn duplicate_put_rejected() {
        let dn = DataNode::new(NodeId::new(1));
        dn.put(ChunkId(1), Bytes::from_static(b"a")).unwrap();
        assert!(dn.put(ChunkId(1), Bytes::from_static(b"b")).is_err());
        assert_eq!(
            &dn.get(ChunkId(1)).unwrap()[..],
            b"a",
            "chunks are write-once"
        );
    }

    #[test]
    fn delete_frees_space() {
        let dn = DataNode::new(NodeId::new(1));
        dn.put(ChunkId(1), Bytes::from(vec![0; 100])).unwrap();
        assert_eq!(dn.delete(ChunkId(1)), 100);
        assert_eq!(dn.delete(ChunkId(1)), 0);
        assert_eq!(dn.bytes_stored(), 0);
        assert!(dn.get(ChunkId(1)).is_err());
    }
}
