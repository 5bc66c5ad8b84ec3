//! The namenode: HDFS's centralized metadata server (§II-B).
//!
//! "A centralized namenode is responsible to maintain both chunk layout and
//! directory structure metadata." Everything the paper contrasts with
//! BlobSeer's decentralization lives here, behind one mutex: the namespace
//! tree, the per-file chunk lists, the single-writer leases, and the
//! placement decisions ("writing locally whenever a write is initiated on a
//! datanode", §V-D; random with pipeline-session affinity otherwise, see
//! docs/REPRODUCING.md, Fig. 3(b)).

use crate::datanode::ChunkId;
use blobseer_core::placement::Placer;
use blobseer_types::config::PlacementPolicy;
use blobseer_types::{Error, HdfsConfig, Result};
use dfs::DfsPath;
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap};
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

struct FileMeta {
    chunks: Vec<ChunkMeta>,
    len: u64,
    lease: Option<LeaseState>,
}

enum INode {
    Dir(BTreeSet<String>),
    File(Box<FileMeta>),
}

#[derive(Default)]
struct Inner {
    entries: HashMap<DfsPath, INode>,
    /// Chunks allocated per datanode (the layout vector of Fig. 3(b)).
    loads: Vec<u64>,
}

impl Inner {
    fn dir_children(&mut self, path: &DfsPath) -> Option<&mut BTreeSet<String>> {
        match self.entries.get_mut(path) {
            Some(INode::Dir(ch)) => Some(ch),
            _ => None,
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
    /// A namenode managing `n_datanodes` datanodes.
    pub fn new(cfg: HdfsConfig, n_datanodes: usize) -> Self {
        assert!(n_datanodes > 0, "need at least one datanode");
        assert!(
            cfg.replication <= n_datanodes,
            "replication exceeds datanode count"
        );
        let mut inner = Inner::default();
        inner
            .entries
            .insert(DfsPath::root(), INode::Dir(BTreeSet::new()));
        inner.loads = vec![0; n_datanodes];
        Self {
            cfg,
            n_datanodes,
            inner: Mutex::named(inner, "hdfs.namenode.inner"),
            next_chunk: AtomicU64::new(1),
            next_lease: AtomicU64::new(1),
            placement_seed: AtomicU64::new(0xD1CE),
            ops: AtomicU64::new(0),
        }
    }

    /// Configuration (chunk size, replication, append support).
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
        let mut inner = self.inner.lock();
        Self::mkdirs_locked(&mut inner, path)
    }

    fn mkdirs_locked(inner: &mut Inner, path: &DfsPath) -> Result<()> {
        let mut cur = DfsPath::root();
        for comp in path.components() {
            let child = cur.join(comp).expect("validated");
            match inner.entries.get(&child) {
                None => {
                    inner
                        .entries
                        .insert(child.clone(), INode::Dir(BTreeSet::new()));
                    inner
                        .dir_children(&cur)
                        .expect("parent exists")
                        .insert(comp.to_string());
                }
                Some(INode::Dir(_)) => {}
                Some(INode::File(_)) => return Err(Error::NotADirectory(child.to_string())),
            }
            cur = child;
        }
        Ok(())
    }

    /// True if the path exists.
    pub fn exists(&self, path: &DfsPath) -> Result<bool> {
        self.bump();
        Ok(self.inner.lock().entries.contains_key(path))
    }

    /// `(is_dir, len)` of an entry.
    pub fn status(&self, path: &DfsPath) -> Result<(bool, u64)> {
        self.bump();
        let inner = self.inner.lock();
        match inner.entries.get(path) {
            None => Err(Error::NotFound(path.to_string())),
            Some(INode::Dir(_)) => Ok((true, 0)),
            Some(INode::File(ref f)) => Ok((false, f.len)),
        }
    }

    /// Children of a directory as `(name, is_dir, len)`.
    pub fn list(&self, path: &DfsPath) -> Result<Vec<(String, bool, u64)>> {
        self.bump();
        let inner = self.inner.lock();
        let names = match inner.entries.get(path) {
            None => return Err(Error::NotFound(path.to_string())),
            Some(INode::File(_)) => return Err(Error::NotADirectory(path.to_string())),
            Some(INode::Dir(ch)) => ch.clone(),
        };
        names
            .into_iter()
            .map(|name| {
                let child = path.join(&name)?;
                match inner.entries.get(&child) {
                    Some(INode::Dir(_)) => Ok((name, true, 0)),
                    Some(INode::File(ref f)) => Ok((name, false, f.len)),
                    None => Err(Error::Internal(format!("dangling child {child}"))),
                }
            })
            .collect()
    }

    /// Deletes a path; returns the chunks to reclaim from datanodes.
    pub fn delete(&self, path: &DfsPath, recursive: bool) -> Result<Vec<ChunkMeta>> {
        self.bump();
        if path.is_root() {
            return Err(Error::InvalidPath("cannot delete the root".into()));
        }
        let mut inner = self.inner.lock();
        match inner.entries.get(path) {
            None => return Err(Error::NotFound(path.to_string())),
            Some(INode::File(ref f)) => {
                if f.lease.is_some() {
                    return Err(Error::LeaseConflict(path.to_string()));
                }
            }
            Some(INode::Dir(ch)) => {
                if !ch.is_empty() && !recursive {
                    return Err(Error::DirectoryNotEmpty(path.to_string()));
                }
            }
        }
        // Collect the subtree.
        let mut chunks = Vec::new();
        let mut stack = vec![path.clone()];
        let mut doomed = Vec::new();
        while let Some(p) = stack.pop() {
            match inner.entries.get(&p) {
                Some(INode::Dir(ch)) => {
                    for name in ch {
                        stack.push(p.join(name).expect("validated"));
                    }
                }
                Some(INode::File(ref f)) => chunks.extend(f.chunks.iter().cloned()),
                None => {}
            }
            doomed.push(p);
        }
        for p in &doomed {
            inner.entries.remove(p);
        }
        let parent = path.parent().expect("non-root");
        if let Some(ch) = inner.dir_children(&parent) {
            ch.remove(path.name());
        }
        for c in &chunks {
            for &dn in &c.datanodes {
                inner.loads[dn] = inner.loads[dn].saturating_sub(1);
            }
        }
        Ok(chunks)
    }

    /// Renames a file or subtree.
    pub fn rename(&self, src: &DfsPath, dst: &DfsPath) -> Result<()> {
        self.bump();
        if src.is_root() {
            return Err(Error::InvalidPath("cannot rename the root".into()));
        }
        if dst.starts_with(src) {
            return Err(Error::InvalidPath(format!("cannot move {src} into itself")));
        }
        let mut inner = self.inner.lock();
        if !inner.entries.contains_key(src) {
            return Err(Error::NotFound(src.to_string()));
        }
        if inner.entries.contains_key(dst) {
            return Err(Error::AlreadyExists(dst.to_string()));
        }
        let dst_parent = dst
            .parent()
            .ok_or_else(|| Error::AlreadyExists("/".into()))?;
        match inner.entries.get(&dst_parent) {
            Some(INode::Dir(_)) => {}
            Some(INode::File(_)) => return Err(Error::NotADirectory(dst_parent.to_string())),
            None => return Err(Error::NotFound(dst_parent.to_string())),
        }
        // Move the subtree by rewriting keys.
        let to_move: Vec<DfsPath> = inner
            .entries
            .keys()
            .filter(|p| p.starts_with(src))
            .cloned()
            .collect();
        for old in to_move {
            let node = inner.entries.remove(&old).expect("listed");
            let suffix = old.as_str().strip_prefix(src.as_str()).expect("prefix");
            let new = DfsPath::parse(&format!("{}{}", dst.as_str(), suffix)).expect("valid");
            inner.entries.insert(new, node);
        }
        let src_parent = src.parent().expect("non-root");
        if let Some(ch) = inner.dir_children(&src_parent) {
            ch.remove(src.name());
        }
        inner
            .dir_children(&dst_parent)
            .expect("checked dir")
            .insert(dst.name().to_string());
        Ok(())
    }

    // --- write path ----------------------------------------------------------

    fn new_lease(&self, client_datanode: Option<usize>) -> LeaseState {
        // Pipeline-session placement state: sticky random for remote
        // clients; purely local-first handled in `add_chunk`.
        let policy = if self.cfg.placement_stickiness == 0 {
            PlacementPolicy::Random
        } else {
            PlacementPolicy::StickyRandom {
                stickiness: self.cfg.placement_stickiness,
            }
        };
        let _ = client_datanode;
        LeaseState {
            id: LeaseId(self.next_lease.fetch_add(1, Ordering::Relaxed)),
            placer: Placer::new(policy, self.placement_seed.fetch_add(1, Ordering::Relaxed)),
        }
    }

    /// Creates a file under a single-writer lease (§II-B: "it allows only
    /// one writer at a time"). Returns the lease and any chunks of an
    /// overwritten file for reclamation.
    pub fn create(
        &self,
        path: &DfsPath,
        overwrite: bool,
        client_datanode: Option<usize>,
    ) -> Result<(LeaseId, Vec<ChunkMeta>)> {
        self.bump();
        if path.is_root() {
            return Err(Error::AlreadyExists("/".into()));
        }
        let mut inner = self.inner.lock();
        let parent = path.parent().expect("non-root");
        Self::mkdirs_locked(&mut inner, &parent)?;
        let old_chunks = match inner.entries.get(path) {
            Some(INode::Dir(_)) => {
                return Err(Error::AlreadyExists(format!("{path} is a directory")))
            }
            Some(INode::File(ref f)) => {
                if f.lease.is_some() {
                    return Err(Error::LeaseConflict(path.to_string()));
                }
                if !overwrite {
                    return Err(Error::AlreadyExists(path.to_string()));
                }
                let old = f.chunks.clone();
                for c in &old {
                    for &dn in &c.datanodes {
                        inner.loads[dn] = inner.loads[dn].saturating_sub(1);
                    }
                }
                old
            }
            None => Vec::new(),
        };
        let lease = self.new_lease(client_datanode);
        let lease_id = lease.id;
        inner.entries.insert(
            path.clone(),
            INode::File(Box::new(FileMeta {
                chunks: Vec::new(),
                len: 0,
                lease: Some(lease),
            })),
        );
        inner
            .dir_children(&parent)
            .expect("created above")
            .insert(path.name().to_string());
        Ok((lease_id, old_chunks))
    }

    /// Acquires an append lease. Hadoop 0.20 refuses (§V-F); later versions
    /// are modeled by `HdfsConfig::append_supported`.
    pub fn append(
        &self,
        path: &DfsPath,
        client_datanode: Option<usize>,
    ) -> Result<(LeaseId, FileSnapshot)> {
        self.bump();
        if !self.cfg.append_supported {
            return Err(Error::Unsupported("append (HDFS 0.20, §V-F)"));
        }
        let mut inner = self.inner.lock();
        match inner.entries.get_mut(path) {
            None => Err(Error::NotFound(path.to_string())),
            Some(INode::Dir(_)) => Err(Error::NotADirectory(path.to_string())),
            Some(INode::File(f)) => {
                if f.lease.is_some() {
                    return Err(Error::LeaseConflict(path.to_string()));
                }
                let lease = self.new_lease(client_datanode);
                let id = lease.id;
                let snap = FileSnapshot {
                    chunks: f.chunks.clone(),
                    len: f.len,
                };
                f.lease = Some(lease);
                Ok((id, snap))
            }
        }
    }

    fn with_leased_file<T>(
        &self,
        path: &DfsPath,
        lease: LeaseId,
        f: impl FnOnce(&mut FileMeta, &mut Vec<u64>) -> T,
    ) -> Result<T> {
        let mut inner = self.inner.lock();
        let Inner { entries, loads } = &mut *inner;
        match entries.get_mut(path) {
            None => Err(Error::NotFound(path.to_string())),
            Some(INode::Dir(_)) => Err(Error::NotADirectory(path.to_string())),
            Some(INode::File(meta)) => match &meta.lease {
                Some(l) if l.id == lease => Ok(f(meta, loads)),
                _ => Err(Error::LeaseConflict(format!("{path}: stale lease"))),
            },
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

    /// Extends the (unsealed) final chunk of a file under append.
    /// Returns the chunk to extend on the datanodes.
    pub fn extend_last_chunk(
        &self,
        path: &DfsPath,
        lease: LeaseId,
        added: u32,
    ) -> Result<(ChunkId, Vec<usize>)> {
        self.bump();
        self.with_leased_file(path, lease, |meta, _| {
            let last = meta
                .chunks
                .last_mut()
                .ok_or_else(|| Error::Internal("extend on empty file".into()))?;
            last.len += added;
            meta.len += added as u64;
            Ok((last.id, last.datanodes.clone()))
        })?
    }

    /// Completes the file: releases the lease; data becomes immutable.
    /// Returns the chunk list so the caller can seal replicas.
    pub fn complete(&self, path: &DfsPath, lease: LeaseId) -> Result<Vec<ChunkMeta>> {
        self.bump();
        self.with_leased_file(path, lease, |meta, _| {
            meta.lease = None;
            meta.chunks.clone()
        })
    }

    /// Read-side layout snapshot.
    pub fn file_snapshot(&self, path: &DfsPath) -> Result<FileSnapshot> {
        self.bump();
        let inner = self.inner.lock();
        match inner.entries.get(path) {
            None => Err(Error::NotFound(path.to_string())),
            Some(INode::Dir(_)) => Err(Error::NotADirectory(path.to_string())),
            Some(INode::File(ref f)) => Ok(FileSnapshot {
                chunks: f.chunks.clone(),
                len: f.len,
            }),
        }
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
        let (lease, old) = nn.create(&p("/f"), false, None).unwrap();
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
        let (lease, _) = nn.create(&p("/f"), false, None).unwrap();
        // Second writer (even with overwrite) is locked out while leased.
        assert!(matches!(
            nn.create(&p("/f"), true, None),
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
    fn append_gated_by_config() {
        let nn = nn();
        let (lease, _) = nn.create(&p("/f"), false, None).unwrap();
        nn.add_chunk(&p("/f"), lease, 10, None).unwrap();
        nn.complete(&p("/f"), lease).unwrap();
        assert!(matches!(
            nn.append(&p("/f"), None),
            Err(Error::Unsupported(_))
        ));
        let nn2 = NameNode::new(HdfsConfig::small_for_tests().with_append(true), 4);
        let (lease, _) = nn2.create(&p("/f"), false, None).unwrap();
        nn2.add_chunk(&p("/f"), lease, 10, None).unwrap();
        nn2.complete(&p("/f"), lease).unwrap();
        let (lease2, snap) = nn2.append(&p("/f"), None).unwrap();
        assert_eq!(snap.len, 10);
        let (c, _) = nn2.extend_last_chunk(&p("/f"), lease2, 5).unwrap();
        assert_eq!(c, snap.chunks[0].id);
        nn2.complete(&p("/f"), lease2).unwrap();
        assert_eq!(nn2.status(&p("/f")).unwrap().1, 15);
    }

    #[test]
    fn local_first_placement() {
        let nn = NameNode::new(HdfsConfig::small_for_tests().with_replication(2), 4);
        let (lease, _) = nn.create(&p("/f"), false, Some(2)).unwrap();
        for _ in 0..5 {
            let (_, dns) = nn.add_chunk(&p("/f"), lease, 64, Some(2)).unwrap();
            assert_eq!(dns[0], 2, "first replica is the co-located datanode");
            assert_ne!(dns[1], 2, "second replica is remote");
        }
    }

    #[test]
    fn remote_client_spreads_chunks_randomly() {
        let nn = nn();
        let (lease, _) = nn.create(&p("/f"), false, None).unwrap();
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
        let (lease, _) = nn.create(&p("/d/f"), false, None).unwrap();
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
        let (_lease, _) = nn.create(&p("/f"), false, None).unwrap();
        assert!(matches!(
            nn.delete(&p("/f"), false),
            Err(Error::LeaseConflict(_))
        ));
    }

    #[test]
    fn rename_moves_chunk_metadata() {
        let nn = nn();
        let (lease, _) = nn.create(&p("/a/f"), false, None).unwrap();
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
        let (lease, _) = nn.create(&p("/f"), false, None).unwrap();
        nn.add_chunk(&p("/f"), lease, 64, None).unwrap();
        nn.complete(&p("/f"), lease).unwrap();
        let (lease2, old) = nn.create(&p("/f"), true, None).unwrap();
        assert_eq!(old.len(), 1, "old chunks handed back for reclamation");
        nn.complete(&p("/f"), lease2).unwrap();
        assert_eq!(nn.status(&p("/f")).unwrap().1, 0);
    }
}
