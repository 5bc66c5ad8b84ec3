//! BSFS: the BlobSeer File System — `dfs::FileSystem` over `blobseer-core`
//! (§IV, Fig. 2: "the BSFS layer enables Hadoop to use BlobSeer as a
//! storage backend through a file system interface").

use crate::namespace::{NamespaceManager, NsEntry};
use crate::stream::{append_stream, BsfsInput};
use blobseer_core::{BlobClient, BlobSeer};
use blobseer_types::{Error, NodeId, Result, Version};
use dfs::api::{DfsInput, DfsOutput, FileStatus, FileSystem, FsBlockLocation};
use dfs::DfsPath;
use std::sync::Arc;

/// The cluster-wide BSFS state: one BlobSeer deployment plus the
/// centralized namespace manager. Mount per-node handles with
/// [`BsfsCluster::mount`].
pub struct BsfsCluster {
    sys: Arc<BlobSeer>,
    ns: Arc<NamespaceManager>,
}

impl BsfsCluster {
    /// Wraps a BlobSeer deployment with a fresh namespace.
    pub fn new(sys: Arc<BlobSeer>) -> Arc<Self> {
        Arc::new(Self {
            sys,
            ns: Arc::new(NamespaceManager::new()),
        })
    }

    /// A FileSystem handle for a client running on `node` (tasktrackers
    /// mount one each; the node identity feeds locality decisions).
    pub fn mount(self: &Arc<Self>, node: NodeId) -> Bsfs {
        Bsfs {
            cluster: Arc::clone(self),
            client: self.sys.client(node),
        }
    }

    /// The underlying BlobSeer deployment.
    pub fn system(&self) -> &Arc<BlobSeer> {
        &self.sys
    }

    /// The namespace manager (for interaction-count assertions).
    pub fn namespace(&self) -> &NamespaceManager {
        &self.ns
    }
}

/// A per-node BSFS handle implementing the shared FileSystem API.
#[derive(Clone)]
pub struct Bsfs {
    cluster: Arc<BsfsCluster>,
    client: BlobClient,
}

impl Bsfs {
    /// The node this handle is mounted on.
    pub fn node(&self) -> NodeId {
        self.client.node()
    }

    /// Direct access to the BlobSeer client (for version-aware extensions
    /// beyond the Hadoop API, e.g. reading old snapshots of a file).
    pub fn blob_client(&self) -> &BlobClient {
        &self.client
    }

    /// Resolves a file path to its BLOB id.
    pub fn file_blob(&self, path: &str) -> Result<blobseer_types::BlobId> {
        self.cluster.ns.lookup_file(&DfsPath::parse(path)?)
    }

    /// Opens a *pinned past version* of a file — BSFS's versioning
    /// extension (§VI-A); plain Hadoop cannot express this.
    pub fn open_version(&self, path: &str, version: Version) -> Result<Box<dyn DfsInput + '_>> {
        let blob = self.file_blob(path)?;
        let size = self.client.size(blob, version)?;
        Ok(Box::new(BsfsInput::open_version(
            self.client.clone(),
            blob,
            version,
            size,
        )))
    }

    fn status_of(&self, path: &DfsPath, entry: NsEntry) -> Result<FileStatus> {
        let len = match entry {
            NsEntry::Dir => 0,
            NsEntry::File(blob) => self.client.latest(blob)?.1,
        };
        Ok(FileStatus {
            path: path.to_string(),
            is_dir: entry == NsEntry::Dir,
            len,
            block_size: self.block_size(),
        })
    }
}

impl FileSystem for Bsfs {
    fn create(&self, path: &str, overwrite: bool) -> Result<Box<dyn DfsOutput + '_>> {
        let path = DfsPath::parse(path)?;
        let blob = self.client.create();
        let evicted = self
            .cluster
            .ns
            .create_file(&path, blob, overwrite)
            .inspect_err(|_| {
                // A refused path must not strand the fresh BLOB.
                let _ = self.client.delete_blob(blob);
            })?;
        if let Some(old) = evicted {
            // Free the replaced file's storage (all of its versions).
            let _ = self.client.delete_blob(old);
        }
        Ok(Box::new(append_stream(self.client.clone(), blob)))
    }

    fn append(&self, path: &str) -> Result<Box<dyn DfsOutput + '_>> {
        // BSFS supports appends natively (§V-F) — including concurrent
        // appends from many clients to the same file.
        let blob = self.file_blob(path)?;
        Ok(Box::new(append_stream(self.client.clone(), blob)))
    }

    fn open(&self, path: &str) -> Result<Box<dyn DfsInput + '_>> {
        let blob = self.file_blob(path)?;
        Ok(Box::new(BsfsInput::open(self.client.clone(), blob)?))
    }

    fn exists(&self, path: &str) -> Result<bool> {
        Ok(self.cluster.ns.lookup(&DfsPath::parse(path)?).is_some())
    }

    fn status(&self, path: &str) -> Result<FileStatus> {
        let path = DfsPath::parse(path)?;
        let entry = self
            .cluster
            .ns
            .lookup(&path)
            .ok_or_else(|| Error::NotFound(path.to_string()))?;
        self.status_of(&path, entry)
    }

    fn list(&self, path: &str) -> Result<Vec<FileStatus>> {
        let path = DfsPath::parse(path)?;
        self.cluster
            .ns
            .list(&path)?
            .into_iter()
            .map(|(child, entry)| self.status_of(&child, entry))
            .collect()
    }

    fn mkdirs(&self, path: &str) -> Result<()> {
        self.cluster.ns.mkdirs(&DfsPath::parse(path)?)
    }

    fn delete(&self, path: &str, recursive: bool) -> Result<()> {
        let blobs = self.cluster.ns.delete(&DfsPath::parse(path)?, recursive)?;
        for blob in blobs {
            let _ = self.client.delete_blob(blob);
        }
        Ok(())
    }

    fn rename(&self, src: &str, dst: &str) -> Result<()> {
        self.cluster
            .ns
            .rename(&DfsPath::parse(src)?, &DfsPath::parse(dst)?)
    }

    fn block_locations(&self, path: &str, offset: u64, len: u64) -> Result<Vec<FsBlockLocation>> {
        // Mapped directly onto BlobSeer's locality primitive (§IV-C).
        let blob = self.file_blob(path)?;
        let (_, size) = self.client.latest(blob)?;
        // `len = u64::MAX` is Hadoop's "every block from `offset` on".
        let end = offset.saturating_add(len).min(size);
        if offset >= end {
            return Ok(Vec::new());
        }
        Ok(self
            .client
            .locations(blob, None, offset, end - offset)?
            .into_iter()
            .map(|l| FsBlockLocation {
                offset: l.range.offset,
                length: l.range.size,
                hosts: l.nodes,
            })
            .collect())
    }

    fn block_size(&self) -> u64 {
        self.cluster.sys.config().block_size
    }

    fn backend_name(&self) -> &'static str {
        "BSFS"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blobseer_types::BlobSeerConfig;
    use dfs::util::{read_fully, write_file};

    fn cluster() -> Arc<BsfsCluster> {
        let sys = BlobSeer::deploy(BlobSeerConfig::small_for_tests().with_block_size(256), 4);
        BsfsCluster::new(sys)
    }

    #[test]
    fn conformance_suite() {
        let fs = cluster().mount(NodeId::new(0));
        dfs::conformance::run_all(&fs);
    }

    #[test]
    fn append_is_supported() {
        let fs = cluster().mount(NodeId::new(0));
        write_file(&fs, "/f", b"hello ").unwrap();
        let mut out = fs.append("/f").unwrap();
        out.write(b"world").unwrap();
        out.close().unwrap();
        assert_eq!(read_fully(&fs, "/f").unwrap(), b"hello world");
    }

    #[test]
    fn concurrent_appends_from_many_handles() {
        // The Fig. 5 access pattern at file-system level: concurrent
        // appenders to a shared file, all block-aligned.
        let cl = cluster();
        let fs0 = cl.mount(NodeId::new(0));
        write_file(&fs0, "/shared", &[0u8; 256]).unwrap();
        let mut handles = Vec::new();
        for t in 1..=4u8 {
            let fs = cl.mount(NodeId::new(t as u64));
            handles.push(std::thread::spawn(move || {
                let mut out = fs.append("/shared").unwrap();
                out.write(&vec![t; 256]).unwrap();
                out.close().unwrap();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let data = read_fully(&fs0, "/shared").unwrap();
        assert_eq!(data.len(), 5 * 256);
        let mut seen: Vec<u8> = data.chunks(256).map(|c| c[0]).collect();
        for chunk in data.chunks(256) {
            assert!(chunk.iter().all(|&b| b == chunk[0]), "torn append");
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn data_access_bypasses_namespace() {
        // §IV-A: "our implementation … only interacts with [the namespace
        // manager] for operations like file opening and file/directory
        // creation/deletion/renaming".
        let cl = cluster();
        let fs = cl.mount(NodeId::new(0));
        write_file(&fs, "/bigfile", &vec![1u8; 2048]).unwrap();
        let mut input = fs.open("/bigfile").unwrap();
        let ops_before = cl.namespace().op_count();
        let mut buf = [0u8; 64];
        for _ in 0..32 {
            input.read_exact(&mut buf).unwrap();
        }
        assert_eq!(
            cl.namespace().op_count(),
            ops_before,
            "reads must not touch the centralized namespace manager"
        );
    }

    #[test]
    fn block_locations_expose_round_robin_layout() {
        let cl = cluster();
        let fs = cl.mount(NodeId::new(0));
        write_file(&fs, "/f", &vec![1u8; 1024]).unwrap(); // 4 blocks on 4 providers
        let locs = fs.block_locations("/f", 0, 1024).unwrap();
        assert_eq!(locs.len(), 4);
        let hosts: Vec<NodeId> = locs.iter().map(|l| l.hosts[0]).collect();
        let unique: std::collections::HashSet<_> = hosts.iter().collect();
        assert_eq!(unique.len(), 4, "round-robin spreads blocks: {hosts:?}");
        // Clipped query.
        let locs = fs.block_locations("/f", 0, u64::MAX).unwrap();
        assert_eq!(locs.len(), 4);
    }

    #[test]
    fn versioned_open_reads_history() {
        let cl = cluster();
        let fs = cl.mount(NodeId::new(0));
        write_file(&fs, "/v", &[1u8; 256]).unwrap();
        write_file_append(&fs, "/v", &[2u8; 256]);
        // Latest sees both; version 1 sees only the first write.
        assert_eq!(read_fully(&fs, "/v").unwrap().len(), 512);
        let mut old = fs.open_version("/v", Version::new(1)).unwrap();
        assert_eq!(old.len(), 256);
        let mut buf = vec![0u8; 256];
        old.read_exact(&mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 1));
    }

    fn write_file_append(fs: &Bsfs, path: &str, data: &[u8]) {
        let mut out = fs.append(path).unwrap();
        out.write(data).unwrap();
        out.close().unwrap();
    }

    #[test]
    fn delete_frees_blob_storage() {
        let cl = cluster();
        let fs = cl.mount(NodeId::new(0));
        write_file(&fs, "/big", &vec![1u8; 4096]).unwrap();
        let stored_before: u64 = (0..4)
            .map(|i| cl.system().providers().bytes_stored(i))
            .sum();
        assert_eq!(stored_before, 4096);
        fs.delete("/big", false).unwrap();
        let stored_after: u64 = (0..4)
            .map(|i| cl.system().providers().bytes_stored(i))
            .sum();
        assert_eq!(stored_after, 0, "deleting the file frees provider storage");
    }

    #[test]
    fn refused_create_frees_its_fresh_blob() {
        let cl = cluster();
        let fs = cl.mount(NodeId::new(0));
        write_file(&fs, "/f", b"kept").unwrap();
        fs.mkdirs("/dir").unwrap();
        let c = fs.blob_client();
        for (path, overwrite) in [("/f", false), ("/dir", true), ("/f/sub", true)] {
            // Blob ids are sequential: the refused create's is the one
            // between these two.
            let before = c.create();
            assert!(fs.create(path, overwrite).is_err(), "{path}");
            let after = c.create();
            assert_eq!(after.raw(), before.raw() + 2);
            let refused = blobseer_types::BlobId::new(before.raw() + 1);
            assert!(c.latest(refused).is_err(), "{path}: BLOB leaked");
        }
        assert_eq!(read_fully(&fs, "/f").unwrap(), b"kept");
    }

    #[test]
    fn overwrite_create_frees_old_blob() {
        let cl = cluster();
        let fs = cl.mount(NodeId::new(0));
        write_file(&fs, "/f", &vec![1u8; 1024]).unwrap();
        write_file(&fs, "/f", &vec![2u8; 256]).unwrap();
        let stored: u64 = (0..4)
            .map(|i| cl.system().providers().bytes_stored(i))
            .sum();
        assert_eq!(stored, 256, "old file's storage reclaimed on overwrite");
        assert_eq!(read_fully(&fs, "/f").unwrap(), vec![2u8; 256]);
    }
}
