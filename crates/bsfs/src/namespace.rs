//! The BSFS namespace manager.
//!
//! "The Hadoop framework expects a classical hierarchical directory
//! structure, whereas BlobSeer provides a flat structure for BLOBs. For
//! this purpose, we had to design and implement a specialized namespace
//! manager, which is responsible for maintaining a file system namespace,
//! and for mapping files to BLOBs. For the sake of simplicity, this entity
//! is centralized." (§IV-A)
//!
//! As in the paper, interaction with this manager is minimized: it is
//! consulted for open/create/delete/rename/list only; all data traffic goes
//! straight to BlobSeer. An operation counter backs tests asserting that
//! reads and writes never touch the namespace.

use blobseer_types::wire::{Wire, WireReader, WireWriter};
use blobseer_types::{BlobId, Error, Result};
use dfs::DfsPath;
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

/// What a path resolves to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NsEntry {
    /// A directory.
    Dir,
    /// A file backed by the given BLOB.
    File(BlobId),
}

/// A kind byte (0 directory, 1 file), then a file's blob id.
impl Wire for NsEntry {
    fn put(&self, w: &mut WireWriter) {
        match self {
            NsEntry::Dir => w.put_u8(0),
            NsEntry::File(blob) => (1u8, *blob).put(w),
        }
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        match r.get_u8()? {
            0 => Ok(NsEntry::Dir),
            1 => Ok(NsEntry::File(BlobId::get(r)?)),
            t => Err(Error::Transport(format!(
                "wire: unknown namespace entry kind {t}"
            ))),
        }
    }
}

#[derive(Default)]
struct Tree {
    /// Every existing path → entry. The root is implicit.
    entries: HashMap<DfsPath, NsEntry>,
    /// Directory children by name (root included under "/").
    children: HashMap<DfsPath, BTreeMap<String, NsEntry>>,
}

impl Tree {
    fn entry(&self, path: &DfsPath) -> Option<NsEntry> {
        if path.is_root() {
            Some(NsEntry::Dir)
        } else {
            self.entries.get(path).copied()
        }
    }

    fn insert(&mut self, path: &DfsPath, entry: NsEntry) {
        debug_assert!(!path.is_root());
        self.entries.insert(path.clone(), entry);
        let parent = path.parent().expect("non-root"); // lint:allow(no-unwrap): callers guard against root paths
        self.children
            .entry(parent)
            .or_default()
            .insert(path.name().to_string(), entry);
    }

    fn remove(&mut self, path: &DfsPath) {
        self.entries.remove(path);
        if let Some(parent) = path.parent() {
            if let Some(ch) = self.children.get_mut(&parent) {
                ch.remove(path.name());
            }
        }
        self.children.remove(path);
    }
}

/// The centralized namespace service.
pub struct NamespaceManager {
    tree: RwLock<Tree>,
    ops: AtomicU64,
}

impl Default for NamespaceManager {
    fn default() -> Self {
        Self {
            tree: RwLock::named(Tree::default(), "bsfs.namespace.tree"),
            ops: AtomicU64::new(0),
        }
    }
}

impl NamespaceManager {
    /// An empty namespace (just the root).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of namespace RPCs served — used to verify that data access
    /// bypasses this centralized entity (§IV-A).
    pub fn op_count(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    fn bump(&self) {
        self.ops.fetch_add(1, Ordering::Relaxed);
    }

    /// Resolves a path.
    pub fn lookup(&self, path: &DfsPath) -> Option<NsEntry> {
        self.bump();
        self.tree.read().entry(path)
    }

    /// Resolves a path that must be a file; returns its BLOB.
    pub fn lookup_file(&self, path: &DfsPath) -> Result<BlobId> {
        match self.lookup(path) {
            Some(NsEntry::File(b)) => Ok(b),
            Some(NsEntry::Dir) => Err(Error::NotADirectory(format!("{path} is a directory"))),
            None => Err(Error::NotFound(path.to_string())),
        }
    }

    /// Creates `path` (and missing ancestors) as directories.
    pub fn mkdirs(&self, path: &DfsPath) -> Result<()> {
        self.bump();
        let mut tree = self.tree.write();
        let mut cur = DfsPath::root();
        for comp in path.components() {
            cur = cur.join(comp).expect("validated components"); // lint:allow(no-unwrap): components come from a parsed DfsPath
            match tree.entry(&cur) {
                None => tree.insert(&cur, NsEntry::Dir),
                Some(NsEntry::Dir) => {}
                Some(NsEntry::File(_)) => {
                    return Err(Error::NotADirectory(cur.to_string()));
                }
            }
        }
        Ok(())
    }

    /// Binds `path` to a fresh file BLOB, creating missing parent
    /// directories (Hadoop's `create` semantics). With `overwrite`, an
    /// existing file is replaced and its old BLOB returned for cleanup.
    pub fn create_file(
        &self,
        path: &DfsPath,
        blob: BlobId,
        overwrite: bool,
    ) -> Result<Option<BlobId>> {
        if path.is_root() {
            return Err(Error::AlreadyExists("/".into()));
        }
        let parent = path.parent().expect("non-root"); // lint:allow(no-unwrap): callers guard against root paths
        self.mkdirs(&parent)?;
        self.bump();
        let mut tree = self.tree.write();
        match tree.entry(path) {
            Some(NsEntry::Dir) => Err(Error::AlreadyExists(format!("{path} is a directory"))),
            Some(NsEntry::File(old)) if overwrite => {
                tree.insert(path, NsEntry::File(blob));
                Ok(Some(old))
            }
            Some(NsEntry::File(_)) => Err(Error::AlreadyExists(path.to_string())),
            None => {
                tree.insert(path, NsEntry::File(blob));
                Ok(None)
            }
        }
    }

    /// Deletes a file or directory. Non-recursive deletion of a non-empty
    /// directory fails. Returns the BLOBs of all removed files for cleanup.
    pub fn delete(&self, path: &DfsPath, recursive: bool) -> Result<Vec<BlobId>> {
        self.bump();
        if path.is_root() {
            return Err(Error::InvalidPath("cannot delete the root".into()));
        }
        let mut tree = self.tree.write();
        match tree.entry(path) {
            None => Err(Error::NotFound(path.to_string())),
            Some(NsEntry::File(b)) => {
                tree.remove(path);
                Ok(vec![b])
            }
            Some(NsEntry::Dir) => {
                let has_children = tree
                    .children
                    .get(path)
                    .map(|c| !c.is_empty())
                    .unwrap_or(false);
                if has_children && !recursive {
                    return Err(Error::DirectoryNotEmpty(path.to_string()));
                }
                let mut blobs = Vec::new();
                let mut stack = vec![path.clone()];
                let mut to_remove = Vec::new();
                while let Some(p) = stack.pop() {
                    if let Some(children) = tree.children.get(&p) {
                        for (name, entry) in children {
                            let child = p.join(name).expect("validated"); // lint:allow(no-unwrap): name comes from an existing child entry
                            match entry {
                                NsEntry::File(b) => {
                                    blobs.push(*b);
                                    to_remove.push(child);
                                }
                                NsEntry::Dir => stack.push(child),
                            }
                        }
                    }
                    to_remove.push(p);
                }
                for p in to_remove {
                    tree.remove(&p);
                }
                Ok(blobs)
            }
        }
    }

    /// Renames a file or directory subtree. The destination must not exist
    /// and its parent must be an existing directory.
    pub fn rename(&self, src: &DfsPath, dst: &DfsPath) -> Result<()> {
        self.bump();
        if src.is_root() {
            return Err(Error::InvalidPath("cannot rename the root".into()));
        }
        if dst.starts_with(src) {
            return Err(Error::InvalidPath(format!(
                "cannot rename {src} into its own subtree {dst}"
            )));
        }
        let mut tree = self.tree.write();
        let src_entry = tree
            .entry(src)
            .ok_or_else(|| Error::NotFound(src.to_string()))?;
        if tree.entry(dst).is_some() {
            return Err(Error::AlreadyExists(dst.to_string()));
        }
        let dst_parent = dst
            .parent()
            .ok_or_else(|| Error::AlreadyExists("/".into()))?;
        match tree.entry(&dst_parent) {
            Some(NsEntry::Dir) => {}
            Some(NsEntry::File(_)) => return Err(Error::NotADirectory(dst_parent.to_string())),
            None => return Err(Error::NotFound(dst_parent.to_string())),
        }
        // Collect the subtree, then re-insert under the new prefix.
        let mut moves: Vec<(DfsPath, DfsPath, NsEntry)> = Vec::new();
        let mut stack = vec![(src.clone(), dst.clone(), src_entry)];
        while let Some((from, to, entry)) = stack.pop() {
            if entry == NsEntry::Dir {
                if let Some(children) = tree.children.get(&from) {
                    for (name, child_entry) in children.clone() {
                        stack.push((
                            from.join(&name).expect("validated"), // lint:allow(no-unwrap): rename iterates validated child names
                            to.join(&name).expect("validated"), // lint:allow(no-unwrap): rename iterates validated child names
                            child_entry,
                        ));
                    }
                }
            }
            moves.push((from, to, entry));
        }
        // Remove deepest-first, insert afterwards.
        for (from, _, _) in &moves {
            tree.remove(from);
        }
        for (_, to, entry) in &moves {
            tree.insert(to, *entry);
        }
        Ok(())
    }

    /// Serializes the whole namespace into a self-contained byte image —
    /// the BSFS analogue of an HDFS `fsimage`. Entries are emitted in
    /// path order, so equal namespaces produce identical images.
    ///
    /// With a disk-backed cluster this is how the (centralized,
    /// deliberately simple — §IV-A) namespace manager survives restart:
    /// store the image in a well-known BLOB, reload it with
    /// [`Self::import_image`] after reboot. Not counted in
    /// [`Self::op_count`]: it is recovery machinery, not a namespace RPC.
    pub fn export_image(&self) -> Vec<u8> {
        let tree = self.tree.read();
        let mut entries: Vec<(String, NsEntry)> = (tree.entries.iter())
            .map(|(path, entry)| (path.to_string(), *entry))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries.to_bytes()
    }

    /// Replaces the namespace contents with a previously exported image.
    /// Fails (leaving the namespace untouched) on an undecodable image.
    pub fn import_image(&self, image: &[u8]) -> Result<()> {
        let mut fresh = Tree::default();
        for (path, entry) in Vec::<(String, NsEntry)>::from_bytes(image)? {
            let path = DfsPath::parse(&path)
                .map_err(|e| Error::InvalidPath(format!("namespace image: {e}")))?;
            fresh.insert(&path, entry);
        }
        *self.tree.write() = fresh;
        Ok(())
    }

    /// Lists a directory's children as `(name, entry)` pairs in name order.
    pub fn list(&self, path: &DfsPath) -> Result<Vec<(String, NsEntry)>> {
        self.bump();
        let tree = self.tree.read();
        match tree.entry(path) {
            None => Err(Error::NotFound(path.to_string())),
            Some(NsEntry::File(_)) => Err(Error::NotADirectory(path.to_string())),
            Some(NsEntry::Dir) => Ok(tree
                .children
                .get(path)
                .map(|c| c.iter().map(|(n, e)| (n.clone(), *e)).collect())
                .unwrap_or_default()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> DfsPath {
        DfsPath::parse(s).unwrap()
    }

    #[test]
    fn mkdirs_and_lookup() {
        let ns = NamespaceManager::new();
        ns.mkdirs(&p("/a/b/c")).unwrap();
        assert_eq!(ns.lookup(&p("/a/b")), Some(NsEntry::Dir));
        assert_eq!(ns.lookup(&p("/a/b/c")), Some(NsEntry::Dir));
        assert_eq!(ns.lookup(&p("/nope")), None);
        assert_eq!(ns.lookup(&DfsPath::root()), Some(NsEntry::Dir));
    }

    #[test]
    fn create_implicit_parents_and_overwrite() {
        let ns = NamespaceManager::new();
        assert_eq!(
            ns.create_file(&p("/x/y/f"), BlobId::new(1), false).unwrap(),
            None
        );
        assert_eq!(ns.lookup_file(&p("/x/y/f")).unwrap(), BlobId::new(1));
        // Replacing returns the evicted blob.
        assert_eq!(
            ns.create_file(&p("/x/y/f"), BlobId::new(2), true).unwrap(),
            Some(BlobId::new(1))
        );
        assert!(matches!(
            ns.create_file(&p("/x/y/f"), BlobId::new(3), false),
            Err(Error::AlreadyExists(_))
        ));
        // Cannot create over a dir.
        assert!(ns.create_file(&p("/x/y"), BlobId::new(4), true).is_err());
    }

    #[test]
    fn delete_files_and_trees() {
        let ns = NamespaceManager::new();
        ns.create_file(&p("/d/f1"), BlobId::new(1), false).unwrap();
        ns.create_file(&p("/d/sub/f2"), BlobId::new(2), false)
            .unwrap();
        assert!(matches!(
            ns.delete(&p("/d"), false),
            Err(Error::DirectoryNotEmpty(_))
        ));
        let mut blobs = ns.delete(&p("/d"), true).unwrap();
        blobs.sort();
        assert_eq!(blobs, vec![BlobId::new(1), BlobId::new(2)]);
        assert_eq!(ns.lookup(&p("/d")), None);
        assert_eq!(ns.lookup(&p("/d/sub/f2")), None);
    }

    #[test]
    fn rename_subtree() {
        let ns = NamespaceManager::new();
        ns.create_file(&p("/src/a/f"), BlobId::new(1), false)
            .unwrap();
        ns.mkdirs(&p("/dst")).unwrap();
        ns.rename(&p("/src"), &p("/dst/moved")).unwrap();
        assert_eq!(ns.lookup(&p("/src")), None);
        assert_eq!(
            ns.lookup_file(&p("/dst/moved/a/f")).unwrap(),
            BlobId::new(1)
        );
    }

    #[test]
    fn rename_guards() {
        let ns = NamespaceManager::new();
        ns.mkdirs(&p("/a/b")).unwrap();
        assert!(matches!(
            ns.rename(&p("/a"), &p("/a/b/inside")),
            Err(Error::InvalidPath(_))
        ));
        assert!(matches!(
            ns.rename(&p("/ghost"), &p("/g2")),
            Err(Error::NotFound(_))
        ));
        ns.create_file(&p("/f1"), BlobId::new(1), false).unwrap();
        ns.create_file(&p("/f2"), BlobId::new(2), false).unwrap();
        assert!(matches!(
            ns.rename(&p("/f1"), &p("/f2")),
            Err(Error::AlreadyExists(_))
        ));
        // Destination parent must exist.
        assert!(matches!(
            ns.rename(&p("/f1"), &p("/missing/f1")),
            Err(Error::NotFound(_))
        ));
    }

    #[test]
    fn list_sorted() {
        let ns = NamespaceManager::new();
        ns.create_file(&p("/dir/b"), BlobId::new(1), false).unwrap();
        ns.create_file(&p("/dir/a"), BlobId::new(2), false).unwrap();
        ns.mkdirs(&p("/dir/z")).unwrap();
        let names: Vec<String> = ns
            .list(&p("/dir"))
            .unwrap()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names, vec!["a", "b", "z"]);
        assert!(ns.list(&p("/dir/a")).is_err());
        assert_eq!(ns.list(&p("/dir/z")).unwrap().len(), 0);
    }

    #[test]
    fn image_roundtrip_restores_the_namespace() {
        let ns = NamespaceManager::new();
        ns.create_file(&p("/data/in/part-0"), BlobId::new(7), false)
            .unwrap();
        ns.create_file(&p("/data/in/part-1"), BlobId::new(8), false)
            .unwrap();
        ns.mkdirs(&p("/empty/dir")).unwrap();
        let image = ns.export_image();

        let restored = NamespaceManager::new();
        restored.import_image(&image).unwrap();
        assert_eq!(
            restored.lookup_file(&p("/data/in/part-1")).unwrap(),
            BlobId::new(8)
        );
        assert_eq!(restored.lookup(&p("/empty/dir")), Some(NsEntry::Dir));
        assert_eq!(restored.list(&p("/data/in")).unwrap().len(), 2);
        // Equal namespaces export identical (sorted) images.
        assert_eq!(restored.export_image(), image);
        // Import replaces, not merges.
        restored
            .import_image(&NamespaceManager::new().export_image())
            .unwrap();
        assert_eq!(restored.lookup(&p("/data")), None);
    }

    #[test]
    fn corrupt_image_is_rejected_and_leaves_namespace_intact() {
        let ns = NamespaceManager::new();
        ns.create_file(&p("/keep"), BlobId::new(1), false).unwrap();
        let mut image = NamespaceManager::new().export_image();
        image.push(0xFF); // trailing garbage
        assert!(ns.import_image(&image).is_err());
        assert!(ns.import_image(&[0x02, 0x01]).is_err()); // truncated
        assert_eq!(ns.lookup_file(&p("/keep")).unwrap(), BlobId::new(1));
    }

    #[test]
    fn op_counter_tracks_interactions() {
        let ns = NamespaceManager::new();
        let before = ns.op_count();
        ns.mkdirs(&p("/a")).unwrap();
        ns.lookup(&p("/a"));
        assert_eq!(ns.op_count() - before, 2);
    }

    #[test]
    fn concurrent_namespace_ops() {
        use std::sync::Arc;
        let ns = Arc::new(NamespaceManager::new());
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let ns = Arc::clone(&ns);
                std::thread::spawn(move || {
                    for i in 0..50u64 {
                        let path = p(&format!("/t{t}/f{i}"));
                        ns.create_file(&path, BlobId::new(t * 1000 + i), false)
                            .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for t in 0..8u64 {
            assert_eq!(ns.list(&p(&format!("/t{t}"))).unwrap().len(), 50);
        }
    }
}
