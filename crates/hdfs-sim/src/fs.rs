//! The HDFS FileSystem implementation: cluster wiring plus client streams.
//!
//! Client-side buffering mirrors §II-B: "HDFS employs a client side
//! buffering mechanism … It prefetches data on reading. On writing, it
//! postpones committing data after the buffer has reached at least a full
//! chunk size." The buffering is `dfs`'s [`BlockReader`] / [`BlockWriter`]
//! pair, the one BSFS uses too; HDFS supplies the chunk fetch and a sink
//! that allocates, stores and completes chunks under the writer lease.

use crate::datanode::DataNode;
use crate::namenode::{ChunkMeta, HdfsConfig, LeaseId, NameNode};
use blobseer_types::{NodeId, Result};
use bytes::Bytes;
use dfs::api::{DfsInput, DfsOutput, FileStatus, FileSystem, FsBlockLocation};
use dfs::{BlockReader, BlockSink, BlockWriter, DfsPath};
use std::sync::Arc;

/// The cluster-wide HDFS state: one namenode plus the datanodes.
pub struct HdfsCluster {
    namenode: NameNode,
    datanodes: Vec<DataNode>,
}

impl HdfsCluster {
    /// Deploys HDFS with datanodes on nodes `0..n`.
    pub fn new(cfg: HdfsConfig, n_datanodes: usize) -> Arc<Self> {
        Self::new_seeded(cfg, n_datanodes, NameNode::DEFAULT_SEED)
    }

    /// Like [`Self::new`], with the namenode placing the first lease's
    /// chunks from `seed` (see [`NameNode::new_seeded`]).
    pub fn new_seeded(cfg: HdfsConfig, n_datanodes: usize, seed: u64) -> Arc<Self> {
        Arc::new(Self {
            namenode: NameNode::new_seeded(cfg, n_datanodes, seed),
            datanodes: (0..n_datanodes as u64)
                .map(|i| DataNode::new(NodeId::new(i)))
                .collect(),
        })
    }

    /// A FileSystem handle for a client on `node`. When the node hosts a
    /// datanode, writes go local-first (§V-D).
    pub fn mount(self: &Arc<Self>, node: NodeId) -> Hdfs {
        let local_dn = self.datanodes.iter().position(|d| d.node() == node);
        Hdfs {
            cluster: Arc::clone(self),
            node,
            local_dn,
        }
    }

    /// The namenode (for op-count and layout inspection).
    pub fn namenode(&self) -> &NameNode {
        &self.namenode
    }

    /// The datanode at dense index `i`.
    pub fn datanode(&self, i: usize) -> &DataNode {
        &self.datanodes[i]
    }

    /// Chunk counts per datanode (Fig. 3(b) layout vector).
    pub fn layout_vector(&self) -> Vec<u64> {
        self.namenode.layout_vector()
    }

    fn reclaim(&self, chunks: &[ChunkMeta]) {
        for c in chunks {
            for &dn in &c.datanodes {
                self.datanodes[dn].delete(c.id);
            }
        }
    }
}

/// A per-node HDFS handle.
#[derive(Clone)]
pub struct Hdfs {
    cluster: Arc<HdfsCluster>,
    node: NodeId,
    local_dn: Option<usize>,
}

impl Hdfs {
    /// The node this handle is mounted on.
    pub fn node(&self) -> NodeId {
        self.node
    }
}

impl FileSystem for Hdfs {
    fn create(&self, path: &str, overwrite: bool) -> Result<Box<dyn DfsOutput + '_>> {
        let path = DfsPath::parse(path)?;
        let (lease, old_chunks) = self.cluster.namenode.create(&path, overwrite)?;
        self.cluster.reclaim(&old_chunks);
        let sink = ChunkSink {
            cluster: Arc::clone(&self.cluster),
            path,
            lease,
            local_dn: self.local_dn,
        };
        Ok(Box::new(BlockWriter::new(self.block_size() as usize, sink)))
    }

    fn append(&self, path: &str) -> Result<Box<dyn DfsOutput + '_>> {
        DfsPath::parse(path)?;
        // Refused: HDFS 0.20 has no append (§V-F).
        Err(self.cluster.namenode.append())
    }

    fn open(&self, path: &str) -> Result<Box<dyn DfsInput + '_>> {
        let path = DfsPath::parse(path)?;
        let snap = self.cluster.namenode.file_snapshot(&path)?;
        let cluster = Arc::clone(&self.cluster);
        let chunks = snap.chunks;
        // Chunk `i` holds bytes from `i * chunk_size`: only the last one is
        // short. Each is prefetched whole from one of its replicas.
        Ok(Box::new(BlockReader::new(
            snap.len,
            self.block_size(),
            move |i| {
                let meta = &chunks[i as usize];
                let replica = meta.datanodes[i as usize % meta.datanodes.len()];
                cluster.datanodes[replica].get(meta.id)
            },
        )))
    }

    fn exists(&self, path: &str) -> Result<bool> {
        self.cluster.namenode.exists(&DfsPath::parse(path)?)
    }

    fn status(&self, path: &str) -> Result<FileStatus> {
        let path = DfsPath::parse(path)?;
        let (is_dir, len) = self.cluster.namenode.status(&path)?;
        Ok(FileStatus {
            path: path.to_string(),
            is_dir,
            len,
            block_size: self.block_size(),
        })
    }

    fn list(&self, path: &str) -> Result<Vec<FileStatus>> {
        let path = DfsPath::parse(path)?;
        self.cluster
            .namenode
            .list(&path)?
            .into_iter()
            .map(|(child, is_dir, len)| {
                Ok(FileStatus {
                    path: child.to_string(),
                    is_dir,
                    len,
                    block_size: self.block_size(),
                })
            })
            .collect()
    }

    fn mkdirs(&self, path: &str) -> Result<()> {
        self.cluster.namenode.mkdirs(&DfsPath::parse(path)?)
    }

    fn delete(&self, path: &str, recursive: bool) -> Result<()> {
        let chunks = self
            .cluster
            .namenode
            .delete(&DfsPath::parse(path)?, recursive)?;
        self.cluster.reclaim(&chunks);
        Ok(())
    }

    fn rename(&self, src: &str, dst: &str) -> Result<()> {
        self.cluster
            .namenode
            .rename(&DfsPath::parse(src)?, &DfsPath::parse(dst)?)
    }

    fn block_locations(&self, path: &str, offset: u64, len: u64) -> Result<Vec<FsBlockLocation>> {
        let path = DfsPath::parse(path)?;
        let snap = self.cluster.namenode.file_snapshot(&path)?;
        // `len = u64::MAX` is Hadoop's "every block from `offset` on".
        let end = offset.saturating_add(len).min(snap.len);
        let mut out = Vec::new();
        let mut chunk_start = 0u64;
        for c in &snap.chunks {
            let chunk_end = chunk_start + c.len as u64;
            if chunk_start < end && offset < chunk_end {
                out.push(FsBlockLocation {
                    offset: chunk_start,
                    length: c.len as u64,
                    hosts: c
                        .datanodes
                        .iter()
                        .map(|&dn| self.cluster.datanodes[dn].node())
                        .collect(),
                });
            }
            chunk_start = chunk_end;
        }
        Ok(out)
    }

    fn block_size(&self) -> u64 {
        self.cluster.namenode.config().chunk_size
    }

    fn backend_name(&self) -> &'static str {
        "HDFS"
    }
}

/// The HDFS [`BlockSink`] under the file's single-writer lease: each
/// block is a fresh chunk from the namenode, stored on every replica;
/// finishing completes the file and releases the lease.
struct ChunkSink {
    cluster: Arc<HdfsCluster>,
    path: DfsPath,
    lease: LeaseId,
    local_dn: Option<usize>,
}

impl BlockSink for ChunkSink {
    fn commit(&mut self, chunk: Bytes) -> Result<()> {
        let (id, dns) = self.cluster.namenode.add_chunk(
            &self.path,
            self.lease,
            chunk.len() as u32,
            self.local_dn,
        )?;
        // The write pipeline: the client sends once; datanodes forward to
        // the next replica.
        for dn in dns {
            self.cluster.datanodes[dn].put(id, chunk.clone())?;
        }
        Ok(())
    }

    fn finish(&mut self, _dropped: bool) -> Result<()> {
        self.cluster.namenode.complete(&self.path, self.lease)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blobseer_types::Error;
    use dfs::util::{read_fully, write_file};

    fn cluster() -> Arc<HdfsCluster> {
        HdfsCluster::new(HdfsConfig::small_for_tests().with_chunk_size(256), 4)
    }

    #[test]
    fn conformance_suite() {
        let fs = cluster().mount(NodeId::new(100)); // remote client
        dfs::conformance::run_all(&fs);
    }

    #[test]
    fn conformance_suite_colocated_client() {
        let fs = cluster().mount(NodeId::new(0)); // co-located with datanode 0
        dfs::conformance::run_all(&fs);
    }

    #[test]
    fn append_unsupported_on_stock_020() {
        let fs = cluster().mount(NodeId::new(0));
        write_file(&fs, "/f", b"abc").unwrap();
        assert!(matches!(fs.append("/f"), Err(Error::Unsupported(_))));
        assert!(matches!(fs.append("/none"), Err(Error::Unsupported(_))));
        assert_eq!(read_fully(&fs, "/f").unwrap(), b"abc");
    }

    #[test]
    fn colocated_writer_stores_locally() {
        // §V-D: "writing locally whenever a write is initiated on a
        // datanode" — the motivation for the paper deploying HDFS test
        // clients on non-datanodes.
        let cl = cluster();
        let fs = cl.mount(NodeId::new(2));
        write_file(&fs, "/local", &vec![9u8; 1024]).unwrap(); // 4 chunks
        let layout = cl.layout_vector();
        assert_eq!(layout, vec![0, 0, 4, 0], "all chunks on the local datanode");
    }

    #[test]
    fn remote_writer_spreads_chunks() {
        let cl = cluster();
        let fs = cl.mount(NodeId::new(999));
        write_file(&fs, "/remote", &vec![9u8; 4096]).unwrap(); // 16 chunks
        let layout = cl.layout_vector();
        assert_eq!(layout.iter().sum::<u64>(), 16);
        assert!(
            layout.iter().filter(|&&c| c > 0).count() >= 2,
            "remote chunks spread over datanodes: {layout:?}"
        );
    }

    #[test]
    fn single_writer_enforced_at_fs_level() {
        let cl = cluster();
        let fs = cl.mount(NodeId::new(0));
        let out1 = fs.create("/locked", false).unwrap();
        assert!(matches!(
            fs.create("/locked", true),
            Err(Error::LeaseConflict(_))
        ));
        drop(out1); // close releases the lease
        let mut out2 = fs.create("/locked", true).unwrap();
        out2.write(b"x").unwrap();
        out2.close().unwrap();
    }

    #[test]
    fn no_random_writes_after_close() {
        // HDFS files are write-once: there is no API to reopen for
        // overwrite other than create(overwrite=true), which truncates.
        let cl = cluster();
        let fs = cl.mount(NodeId::new(0));
        write_file(&fs, "/once", b"version 1").unwrap();
        write_file(&fs, "/once", b"v2").unwrap();
        assert_eq!(read_fully(&fs, "/once").unwrap(), b"v2");
    }

    #[test]
    fn block_locations_report_chunk_hosts() {
        let cl = cluster();
        let fs = cl.mount(NodeId::new(1));
        write_file(&fs, "/f", &vec![1u8; 600]).unwrap();
        let locs = fs.block_locations("/f", 0, 600).unwrap();
        assert_eq!(locs.len(), 3);
        assert_eq!(locs[0].length, 256);
        assert_eq!(locs[2].length, 88);
        for l in &locs {
            assert_eq!(l.hosts, vec![NodeId::new(1)], "local-first placement");
        }
    }

    #[test]
    fn reclaim_on_delete_and_overwrite() {
        let cl = cluster();
        let fs = cl.mount(NodeId::new(0));
        write_file(&fs, "/f", &vec![1u8; 1024]).unwrap();
        let stored: u64 = (0..4).map(|i| cl.datanode(i).bytes_stored()).sum();
        assert_eq!(stored, 1024);
        write_file(&fs, "/f", &vec![2u8; 256]).unwrap();
        let stored: u64 = (0..4).map(|i| cl.datanode(i).bytes_stored()).sum();
        assert_eq!(stored, 256, "overwrite reclaims old chunks");
        fs.delete("/f", false).unwrap();
        let stored: u64 = (0..4).map(|i| cl.datanode(i).bytes_stored()).sum();
        assert_eq!(stored, 0, "delete reclaims chunks");
    }

    #[test]
    fn namenode_serves_every_metadata_op() {
        // The centralized-bottleneck property: every namespace and layout
        // operation hits the single namenode.
        let cl = cluster();
        let fs = cl.mount(NodeId::new(0));
        let before = cl.namenode().op_count();
        write_file(&fs, "/f", &vec![0u8; 600]).unwrap();
        let after_write = cl.namenode().op_count();
        assert!(
            after_write > before,
            "create/add_chunk/complete all hit the namenode"
        );
        // Reads hit it once (open), then stream from datanodes.
        let mut input = fs.open("/f").unwrap();
        let after_open = cl.namenode().op_count();
        let mut buf = [0u8; 64];
        for _ in 0..8 {
            input.read_exact(&mut buf).unwrap();
        }
        assert_eq!(
            cl.namenode().op_count(),
            after_open,
            "reads bypass the namenode"
        );
    }
}
