//! The namenode: HDFS's centralized metadata server (§II-B).
//!
//! "A centralized namenode is responsible to maintain both chunk layout and
//! directory structure metadata." Everything the paper contrasts with
//! BlobSeer's decentralization lives here, behind one mutex: the namespace
//! tree (`dfs`'s [`Namespace`], the one BSFS keeps too), the per-file chunk
//! lists, the single-writer leases, and the placement decisions ("writing
//! locally whenever a write is initiated on a datanode", §V-D; random with
//! pipeline-session affinity otherwise, see docs/REPRODUCING.md, Fig. 3(b)).

use crate::datanode::ChunkId;
use blobseer_core::placement::Placer;
use blobseer_types::config::PlacementPolicy;
use blobseer_types::{Error, HdfsConfig, Result};
use dfs::{DfsPath, Inode, Namespace};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// A writer lease token.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LeaseId(u64);

/// One chunk of a file: id, length, replica datanodes (dense indices).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChunkMeta {
    pub id: ChunkId,
    pub len: u32,
    pub datanodes: Vec<usize>,
}

/// Read-side snapshot of a file's layout.
#[derive(Clone, Debug)]
pub struct FileSnapshot {
    pub chunks: Vec<ChunkMeta>,
    pub len: u64,
}

struct LeaseState {
    id: LeaseId,
    placer: Placer,
}

/// What a file carries in the namespace.
struct FileMeta {
    chunks: Vec<ChunkMeta>,
    len: u64,
    lease: Option<LeaseState>,
}

/// True for a file under a writer lease.
fn is_leased(node: Option<&Inode<FileMeta>>) -> bool {
    matches!(node, Some(Inode::File(f)) if f.lease.is_some())
}

struct Inner {
    ns: Namespace<FileMeta>,
    /// Chunks allocated per datanode (the layout vector of Fig. 3(b)).
    loads: Vec<u64>,
}

impl Inner {
    /// Takes the replicas of `chunks` off the layout vector.
    fn release(&mut self, chunks: &[ChunkMeta]) {
        for &dn in chunks.iter().flat_map(|c| &c.datanodes) {
            self.loads[dn] = self.loads[dn].saturating_sub(1);
        }
    }
}

/// The centralized metadata server.
pub struct NameNode {
    cfg: HdfsConfig,
    n_datanodes: usize,
    inner: Mutex<Inner>,
    next_chunk: AtomicU64,
    next_lease: AtomicU64,
    placement_seed: AtomicU64,
    ops: AtomicU64,
}

impl NameNode {
    /// The placement seed of [`Self::new`].
    pub const DEFAULT_SEED: u64 = 0xD1CE;

    /// A namenode managing `n_datanodes` datanodes.
    pub fn new(cfg: HdfsConfig, n_datanodes: usize) -> Self {
        Self::new_seeded(cfg, n_datanodes, Self::DEFAULT_SEED)
    }

    /// Like [`Self::new`], with the first lease placing from `seed` (each
    /// later lease from the next seed up).
    pub fn new_seeded(cfg: HdfsConfig, n_datanodes: usize, seed: u64) -> Self {
        assert!(n_datanodes > 0, "need at least one datanode");
        assert!(
            cfg.replication <= n_datanodes,
            "replication exceeds datanode count"
        );
        let inner = Inner {
            ns: Namespace::new(),
            loads: vec![0; n_datanodes],
        };
        Self {
            cfg,
            n_datanodes,
            inner: Mutex::named(inner, "hdfs.namenode.inner"),
            next_chunk: AtomicU64::new(1),
            next_lease: AtomicU64::new(1),
            placement_seed: AtomicU64::new(seed),
            ops: AtomicU64::new(0),
        }
    }

    /// Configuration (chunk size, replication, placement).
    pub fn config(&self) -> &HdfsConfig {
        &self.cfg
    }

    /// RPCs served — the centralized-bottleneck metric.
    pub fn op_count(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    fn bump(&self) {
        self.ops.fetch_add(1, Ordering::Relaxed);
    }

    /// Chunks allocated per datanode.
    pub fn layout_vector(&self) -> Vec<u64> {
        self.inner.lock().loads.clone()
    }

    // --- namespace ---------------------------------------------------------

    /// Creates a directory chain.
    pub fn mkdirs(&self, path: &DfsPath) -> Result<()> {
        self.bump();
        self.inner.lock().ns.mkdirs(path)
    }

    /// True if the path exists.
    pub fn exists(&self, path: &DfsPath) -> Result<bool> {
        self.bump();
        Ok(self.inner.lock().ns.get(path).is_some())
    }

    /// `(is_dir, len)` of an entry.
    pub fn status(&self, path: &DfsPath) -> Result<(bool, u64)> {
        self.bump();
        match self.inner.lock().ns.get(path) {
            None => Err(Error::NotFound(path.to_string())),
            Some(Inode::Dir(_)) => Ok((true, 0)),
            Some(Inode::File(f)) => Ok((false, f.len)),
        }
    }

    /// Children of a directory as `(path, is_dir, len)`, in name order.
    pub fn list(&self, path: &DfsPath) -> Result<Vec<(DfsPath, bool, u64)>> {
        self.bump();
        let inner = self.inner.lock();
        let children = inner.ns.list(path)?;
        Ok(children
            .into_iter()
            .map(|(child, node)| match node {
                Inode::Dir(_) => (child, true, 0),
                Inode::File(f) => (child, false, f.len),
            })
            .collect())
    }

    /// Deletes a path; returns the chunks to reclaim from datanodes. A file
    /// under a writer lease is refused.
    pub fn delete(&self, path: &DfsPath, recursive: bool) -> Result<Vec<ChunkMeta>> {
        self.bump();
        let mut inner = self.inner.lock();
        if is_leased(inner.ns.get(path)) {
            return Err(Error::LeaseConflict(path.to_string()));
        }
        let files = inner.ns.delete(path, recursive)?;
        let chunks: Vec<ChunkMeta> = files.into_iter().flat_map(|f| f.chunks).collect();
        inner.release(&chunks);
        Ok(chunks)
    }

    /// Renames a file or subtree.
    pub fn rename(&self, src: &DfsPath, dst: &DfsPath) -> Result<()> {
        self.bump();
        self.inner.lock().ns.rename(src, dst)
    }

    // --- write path ----------------------------------------------------------

    fn new_lease(&self) -> LeaseState {
        // Pipeline-session placement state: sticky random for remote
        // clients; purely local-first handled in `add_chunk`.
        let policy = if self.cfg.placement_stickiness == 0 {
            PlacementPolicy::Random
        } else {
            PlacementPolicy::StickyRandom {
                stickiness: self.cfg.placement_stickiness,
            }
        };
        LeaseState {
            id: LeaseId(self.next_lease.fetch_add(1, Ordering::Relaxed)),
            placer: Placer::new(policy, self.placement_seed.fetch_add(1, Ordering::Relaxed)),
        }
    }

    /// Creates a file under a single-writer lease (§II-B: "it allows only
    /// one writer at a time"). Returns the lease and any chunks of an
    /// overwritten file for reclamation.
    pub fn create(&self, path: &DfsPath, overwrite: bool) -> Result<(LeaseId, Vec<ChunkMeta>)> {
        self.bump();
        let mut inner = self.inner.lock();
        if is_leased(inner.ns.get(path)) {
            return Err(Error::LeaseConflict(path.to_string()));
        }
        let fresh = FileMeta {
            chunks: Vec::new(),
            len: 0,
            lease: None,
        };
        let replaced = inner.ns.create(path, fresh, overwrite)?;
        let old_chunks = replaced.map(|old| old.chunks).unwrap_or_default();
        inner.release(&old_chunks);
        // The lease is drawn only once the path is accepted.
        let lease = self.new_lease();
        let lease_id = lease.id;
        inner.ns.file_mut(path)?.lease = Some(lease);
        Ok((lease_id, old_chunks))
    }

    /// Hadoop 0.20 refuses appends (§V-F): every call is answered with
    /// `Unsupported`, and counts as a namenode RPC.
    pub fn append(&self) -> Error {
        self.bump();
        Error::Unsupported("append (HDFS 0.20, §V-F)")
    }

    fn with_leased_file<T>(
        &self,
        path: &DfsPath,
        lease: LeaseId,
        f: impl FnOnce(&mut FileMeta, &mut Vec<u64>) -> T,
    ) -> Result<T> {
        let mut inner = self.inner.lock();
        let Inner { ns, loads } = &mut *inner;
        let meta = ns.file_mut(path)?;
        match &meta.lease {
            Some(l) if l.id == lease => Ok(f(meta, loads)),
            _ => Err(Error::LeaseConflict(format!("{path}: stale lease"))),
        }
    }

    /// Allocates a new chunk: id + replica targets. The first replica is
    /// the client's own datanode when co-located ("writing locally whenever
    /// a write is initiated on a datanode", §V-D), else per the sticky
    /// random session policy.
    pub fn add_chunk(
        &self,
        path: &DfsPath,
        lease: LeaseId,
        len: u32,
        client_datanode: Option<usize>,
    ) -> Result<(ChunkId, Vec<usize>)> {
        self.bump();
        debug_assert!(len as u64 <= self.cfg.chunk_size);
        let id = ChunkId(self.next_chunk.fetch_add(1, Ordering::Relaxed));
        let replication = self.cfg.replication;
        let n = self.n_datanodes;
        self.with_leased_file(path, lease, move |meta, loads| {
            let mut targets = Vec::with_capacity(replication);
            if let Some(local) = client_datanode {
                debug_assert!(local < n);
                targets.push(local);
            }
            let lease_state = meta.lease.as_mut().expect("checked");
            while targets.len() < replication {
                targets.push(lease_state.placer.pick(loads, &targets));
            }
            for &dn in &targets {
                loads[dn] += 1;
            }
            meta.chunks.push(ChunkMeta {
                id,
                len,
                datanodes: targets.clone(),
            });
            meta.len += len as u64;
            (id, targets)
        })
    }

    /// Completes the file: releases the lease; its chunks stay as written.
    pub fn complete(&self, path: &DfsPath, lease: LeaseId) -> Result<()> {
        self.bump();
        self.with_leased_file(path, lease, |meta, _| meta.lease = None)
    }

    /// Read-side layout snapshot.
    pub fn file_snapshot(&self, path: &DfsPath) -> Result<FileSnapshot> {
        self.bump();
        let inner = self.inner.lock();
        let f = inner.ns.file(path)?;
        Ok(FileSnapshot {
            chunks: f.chunks.clone(),
            len: f.len,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> DfsPath {
        DfsPath::parse(s).unwrap()
    }

    fn nn() -> NameNode {
        NameNode::new(HdfsConfig::small_for_tests(), 4)
    }

    #[test]
    fn create_write_complete_lifecycle() {
        let nn = nn();
        let (lease, old) = nn.create(&p("/f"), false).unwrap();
        assert!(old.is_empty());
        let (c1, dns1) = nn.add_chunk(&p("/f"), lease, 4096, None).unwrap();
        let (c2, _) = nn.add_chunk(&p("/f"), lease, 100, None).unwrap();
        assert_ne!(c1, c2);
        assert_eq!(dns1.len(), 1);
        nn.complete(&p("/f"), lease).unwrap();
        let snap = nn.file_snapshot(&p("/f")).unwrap();
        assert_eq!(snap.len, 4196);
        assert_eq!(snap.chunks.len(), 2);
        assert_eq!(nn.status(&p("/f")).unwrap(), (false, 4196));
    }

    #[test]
    fn single_writer_lease_enforced() {
        let nn = nn();
        let (lease, _) = nn.create(&p("/f"), false).unwrap();
        // Second writer (even with overwrite) is locked out while leased.
        assert!(matches!(
            nn.create(&p("/f"), true),
            Err(Error::LeaseConflict(_))
        ));
        // Stale lease is rejected after completion.
        nn.complete(&p("/f"), lease).unwrap();
        assert!(matches!(
            nn.add_chunk(&p("/f"), lease, 1, None),
            Err(Error::LeaseConflict(_))
        ));
    }

    #[test]
    fn append_is_refused_and_counted() {
        let nn = nn();
        let before = nn.op_count();
        assert!(matches!(nn.append(), Error::Unsupported(_)));
        assert_eq!(nn.op_count(), before + 1);
    }

    #[test]
    fn local_first_placement() {
        let nn = NameNode::new(HdfsConfig::small_for_tests().with_replication(2), 4);
        let (lease, _) = nn.create(&p("/f"), false).unwrap();
        for _ in 0..5 {
            let (_, dns) = nn.add_chunk(&p("/f"), lease, 64, Some(2)).unwrap();
            assert_eq!(dns[0], 2, "first replica is the co-located datanode");
            assert_ne!(dns[1], 2, "second replica is remote");
        }
    }

    #[test]
    fn remote_client_spreads_chunks_randomly() {
        let nn = nn();
        let (lease, _) = nn.create(&p("/f"), false).unwrap();
        for _ in 0..64 {
            nn.add_chunk(&p("/f"), lease, 64, None).unwrap();
        }
        let layout = nn.layout_vector();
        assert_eq!(layout.iter().sum::<u64>(), 64);
        assert!(
            layout.iter().filter(|&&l| l > 0).count() >= 2,
            "chunks should hit several datanodes: {layout:?}"
        );
    }

    #[test]
    fn delete_returns_chunks_and_updates_loads() {
        let nn = nn();
        let (lease, _) = nn.create(&p("/d/f"), false).unwrap();
        nn.add_chunk(&p("/d/f"), lease, 64, None).unwrap();
        nn.add_chunk(&p("/d/f"), lease, 64, None).unwrap();
        nn.complete(&p("/d/f"), lease).unwrap();
        assert_eq!(nn.layout_vector().iter().sum::<u64>(), 2);
        let chunks = nn.delete(&p("/d"), true).unwrap();
        assert_eq!(chunks.len(), 2);
        assert_eq!(nn.layout_vector().iter().sum::<u64>(), 0);
        assert!(!nn.exists(&p("/d/f")).unwrap());
    }

    #[test]
    fn delete_of_leased_file_refused() {
        let nn = nn();
        let (_lease, _) = nn.create(&p("/f"), false).unwrap();
        assert!(matches!(
            nn.delete(&p("/f"), false),
            Err(Error::LeaseConflict(_))
        ));
    }

    #[test]
    fn rename_moves_chunk_metadata() {
        let nn = nn();
        let (lease, _) = nn.create(&p("/a/f"), false).unwrap();
        nn.add_chunk(&p("/a/f"), lease, 64, None).unwrap();
        nn.complete(&p("/a/f"), lease).unwrap();
        nn.mkdirs(&p("/b")).unwrap();
        nn.rename(&p("/a"), &p("/b/moved")).unwrap();
        let snap = nn.file_snapshot(&p("/b/moved/f")).unwrap();
        assert_eq!(snap.chunks.len(), 1);
        assert!(!nn.exists(&p("/a")).unwrap());
    }

    #[test]
    fn overwrite_returns_old_chunks() {
        let nn = nn();
        let (lease, _) = nn.create(&p("/f"), false).unwrap();
        nn.add_chunk(&p("/f"), lease, 64, None).unwrap();
        nn.complete(&p("/f"), lease).unwrap();
        let (lease2, old) = nn.create(&p("/f"), true).unwrap();
        assert_eq!(old.len(), 1, "old chunks handed back for reclamation");
        nn.complete(&p("/f"), lease2).unwrap();
        assert_eq!(nn.status(&p("/f")).unwrap().1, 0);
    }
}
