//! The hierarchical namespace both backends keep.
//!
//! Hadoop "expects a classical hierarchical directory structure" (§IV-A):
//! BSFS's namespace manager and HDFS's namenode both hold one. The path
//! tree lives here once, generic over what a file entry carries (a BLOB id
//! for BSFS, a chunk list and writer lease for HDFS), so the two backends
//! cannot disagree on mkdirs, create, delete, rename or list. It takes no
//! lock: each backend wraps it in its own.

use crate::path::DfsPath;
use blobseer_types::{Error, Result};
use std::collections::{BTreeSet, HashMap};

/// One namespace entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Inode<F> {
    /// A directory and its children's names.
    Dir(BTreeSet<String>),
    /// A file and its backend payload.
    File(F),
}

/// A path tree whose files carry an `F`. The root always exists.
#[derive(Debug)]
pub struct Namespace<F> {
    nodes: HashMap<DfsPath, Inode<F>>,
}

impl<F> Default for Namespace<F> {
    fn default() -> Self {
        Self {
            nodes: HashMap::from([(DfsPath::root(), Inode::Dir(BTreeSet::new()))]),
        }
    }
}

impl<F> Namespace<F> {
    /// An empty namespace (just the root).
    pub fn new() -> Self {
        Self::default()
    }

    /// The entry at `path`.
    pub fn get(&self, path: &DfsPath) -> Option<&Inode<F>> {
        self.nodes.get(path)
    }

    /// The file at `path`; `NotFound` when absent, `NotADirectory` when it
    /// is a directory.
    pub fn file(&self, path: &DfsPath) -> Result<&F> {
        match self.nodes.get(path) {
            Some(Inode::File(f)) => Ok(f),
            Some(Inode::Dir(_)) => Err(Error::NotADirectory(format!("{path} is a directory"))),
            None => Err(Error::NotFound(path.to_string())),
        }
    }

    /// [`Self::file`], mutably.
    pub fn file_mut(&mut self, path: &DfsPath) -> Result<&mut F> {
        match self.nodes.get_mut(path) {
            Some(Inode::File(f)) => Ok(f),
            Some(Inode::Dir(_)) => Err(Error::NotADirectory(format!("{path} is a directory"))),
            None => Err(Error::NotFound(path.to_string())),
        }
    }

    /// Every entry but the root, in no particular order.
    pub fn entries(&self) -> impl Iterator<Item = (&DfsPath, &Inode<F>)> {
        self.nodes.iter().filter(|(path, _)| !path.is_root())
    }

    /// Creates `path` and its missing ancestors as directories.
    pub fn mkdirs(&mut self, path: &DfsPath) -> Result<()> {
        let mut cur = DfsPath::root();
        for name in path.components() {
            let child = cur.join(name)?;
            match self.nodes.get(&child) {
                None => self.insert(&child, Inode::Dir(BTreeSet::new())),
                Some(Inode::Dir(_)) => {}
                Some(Inode::File(_)) => return Err(Error::NotADirectory(child.to_string())),
            }
            cur = child;
        }
        Ok(())
    }

    /// Binds `path` to `file`, creating missing parent directories
    /// (Hadoop's `create`). With `overwrite`, an existing file is replaced
    /// and returned; a directory is never replaced.
    pub fn create(&mut self, path: &DfsPath, file: F, overwrite: bool) -> Result<Option<F>> {
        let Some(parent) = path.parent() else {
            return Err(Error::AlreadyExists("/".into()));
        };
        self.mkdirs(&parent)?;
        match self.nodes.get_mut(path) {
            Some(Inode::Dir(_)) => Err(Error::AlreadyExists(format!("{path} is a directory"))),
            Some(Inode::File(old)) if overwrite => Ok(Some(std::mem::replace(old, file))),
            Some(Inode::File(_)) => Err(Error::AlreadyExists(path.to_string())),
            None => {
                self.insert(path, Inode::File(file));
                Ok(None)
            }
        }
    }

    /// Deletes a file or a directory; a non-empty directory only when
    /// `recursive`. Returns the removed files.
    pub fn delete(&mut self, path: &DfsPath, recursive: bool) -> Result<Vec<F>> {
        if path.is_root() {
            return Err(Error::InvalidPath("cannot delete the root".into()));
        }
        match self.nodes.get(path) {
            None => return Err(Error::NotFound(path.to_string())),
            Some(Inode::Dir(children)) if !children.is_empty() && !recursive => {
                return Err(Error::DirectoryNotEmpty(path.to_string()))
            }
            Some(_) => {}
        }
        let doomed = self.subtree(path)?;
        self.set_named(path, false);
        Ok(doomed
            .iter()
            .filter_map(|p| match self.nodes.remove(p) {
                Some(Inode::File(f)) => Some(f),
                _ => None,
            })
            .collect())
    }

    /// Moves a file or directory subtree. The destination must not exist,
    /// its parent must be a directory, and it must not lie inside `src`.
    pub fn rename(&mut self, src: &DfsPath, dst: &DfsPath) -> Result<()> {
        if src.is_root() {
            return Err(Error::InvalidPath("cannot rename the root".into()));
        }
        if dst.starts_with(src) {
            return Err(Error::InvalidPath(format!(
                "cannot rename {src} into its own subtree {dst}"
            )));
        }
        if !self.nodes.contains_key(src) {
            return Err(Error::NotFound(src.to_string()));
        }
        if self.nodes.contains_key(dst) {
            return Err(Error::AlreadyExists(dst.to_string()));
        }
        // `dst` is not the root: the root always exists.
        let dst_parent = dst.parent().unwrap_or_else(DfsPath::root);
        match self.nodes.get(&dst_parent) {
            Some(Inode::Dir(_)) => {}
            Some(Inode::File(_)) => return Err(Error::NotADirectory(dst_parent.to_string())),
            None => return Err(Error::NotFound(dst_parent.to_string())),
        }
        // Children keep their names: only the keys and the two parent
        // links change.
        let moves = self
            .subtree(src)?
            .into_iter()
            .map(|from| {
                let to = format!("{dst}{}", &from.as_str()[src.as_str().len()..]);
                Ok((DfsPath::parse(&to)?, from))
            })
            .collect::<Result<Vec<_>>>()?;
        self.set_named(src, false);
        for (to, from) in moves {
            if let Some(node) = self.nodes.remove(&from) {
                self.nodes.insert(to, node);
            }
        }
        self.set_named(dst, true);
        Ok(())
    }

    /// A directory's children in name order, with their full paths.
    pub fn list(&self, path: &DfsPath) -> Result<Vec<(DfsPath, &Inode<F>)>> {
        let names = match self.nodes.get(path) {
            None => return Err(Error::NotFound(path.to_string())),
            Some(Inode::File(_)) => return Err(Error::NotADirectory(path.to_string())),
            Some(Inode::Dir(names)) => names,
        };
        names
            .iter()
            .map(|name| {
                let child = path.join(name)?;
                match self.nodes.get(&child) {
                    Some(node) => Ok((child, node)),
                    None => Err(Error::Internal(format!("dangling child {child}"))),
                }
            })
            .collect()
    }

    /// `path` and everything below it, `path` first.
    fn subtree(&self, path: &DfsPath) -> Result<Vec<DfsPath>> {
        let mut out = vec![path.clone()];
        let mut next = 0;
        while let Some(p) = out.get(next) {
            next += 1;
            if let Some(Inode::Dir(names)) = self.nodes.get(p) {
                let children = names.iter().map(|name| p.join(name));
                let children = children.collect::<Result<Vec<_>>>()?;
                out.extend(children);
            }
        }
        Ok(out)
    }

    /// Inserts `node` at `path` and names it in its parent.
    fn insert(&mut self, path: &DfsPath, node: Inode<F>) {
        self.set_named(path, true);
        self.nodes.insert(path.clone(), node);
    }

    /// Adds `path`'s name to its parent directory, or drops it.
    fn set_named(&mut self, path: &DfsPath, named: bool) {
        if let Some(Inode::Dir(names)) = path.parent().and_then(|p| self.nodes.get_mut(&p)) {
            if named {
                names.insert(path.name().to_string());
            } else {
                names.remove(path.name());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> DfsPath {
        DfsPath::parse(s).unwrap()
    }

    fn names(ns: &Namespace<u32>, dir: &str) -> Vec<String> {
        let list = ns.list(&p(dir)).unwrap();
        list.iter()
            .map(|(path, _)| path.name().to_string())
            .collect()
    }

    #[test]
    fn mkdirs_and_get() {
        let mut ns = Namespace::<u32>::new();
        ns.mkdirs(&p("/a/b/c")).unwrap();
        assert!(matches!(ns.get(&p("/a/b")), Some(Inode::Dir(_))));
        assert!(matches!(ns.get(&DfsPath::root()), Some(Inode::Dir(_))));
        assert!(ns.get(&p("/nope")).is_none());
        ns.create(&p("/a/f"), 1, false).unwrap();
        assert!(matches!(
            ns.mkdirs(&p("/a/f/sub")),
            Err(Error::NotADirectory(_))
        ));
    }

    #[test]
    fn create_implicit_parents_and_overwrite() {
        let mut ns = Namespace::new();
        assert_eq!(ns.create(&p("/x/y/f"), 1, false).unwrap(), None);
        assert_eq!(ns.file(&p("/x/y/f")).unwrap(), &1);
        assert_eq!(ns.create(&p("/x/y/f"), 2, true).unwrap(), Some(1));
        assert!(matches!(
            ns.create(&p("/x/y/f"), 3, false),
            Err(Error::AlreadyExists(_))
        ));
        assert!(matches!(
            ns.create(&p("/x/y"), 4, true),
            Err(Error::AlreadyExists(_))
        ));
        assert!(matches!(
            ns.create(&DfsPath::root(), 5, true),
            Err(Error::AlreadyExists(_))
        ));
        assert!(matches!(ns.file(&p("/x")), Err(Error::NotADirectory(_))));
        *ns.file_mut(&p("/x/y/f")).unwrap() = 6;
        assert_eq!(ns.file(&p("/x/y/f")).unwrap(), &6);
    }

    #[test]
    fn delete_files_and_trees() {
        let mut ns = Namespace::new();
        ns.create(&p("/d/f1"), 1, false).unwrap();
        ns.create(&p("/d/sub/f2"), 2, false).unwrap();
        ns.create(&p("/keep"), 3, false).unwrap();
        assert!(matches!(
            ns.delete(&p("/d"), false),
            Err(Error::DirectoryNotEmpty(_))
        ));
        let mut gone = ns.delete(&p("/d"), true).unwrap();
        gone.sort();
        assert_eq!(gone, vec![1, 2]);
        assert!(ns.get(&p("/d/sub/f2")).is_none());
        assert_eq!(names(&ns, "/"), vec!["keep"]);
        assert_eq!(ns.entries().count(), 1);
        assert!(matches!(
            ns.delete(&DfsPath::root(), true),
            Err(Error::InvalidPath(_))
        ));
        assert!(matches!(ns.delete(&p("/d"), true), Err(Error::NotFound(_))));
    }

    #[test]
    fn rename_moves_subtrees() {
        let mut ns = Namespace::new();
        ns.create(&p("/src/a/f"), 1, false).unwrap();
        ns.mkdirs(&p("/dst")).unwrap();
        ns.rename(&p("/src"), &p("/dst/moved")).unwrap();
        assert!(ns.get(&p("/src")).is_none());
        assert_eq!(ns.file(&p("/dst/moved/a/f")).unwrap(), &1);
        assert_eq!(names(&ns, "/"), vec!["dst"]);
        assert_eq!(names(&ns, "/dst"), vec!["moved"]);
        assert_eq!(ns.entries().count(), 4);
    }

    #[test]
    fn rename_guards() {
        let mut ns = Namespace::new();
        ns.mkdirs(&p("/a/b")).unwrap();
        ns.create(&p("/f1"), 1, false).unwrap();
        ns.create(&p("/f2"), 2, false).unwrap();
        let refused = [
            ("/a", "/a/b/inside"),
            ("/", "/x"),
            ("/ghost", "/g2"),
            ("/f1", "/f2"),
            ("/f1", "/"),
            ("/f1", "/missing/f1"),
            ("/f1", "/f2/f1"),
        ];
        for (src, dst) in refused {
            let err = ns.rename(&p(src), &p(dst)).unwrap_err();
            let expected = match (src, dst) {
                ("/a", _) | ("/", _) => matches!(err, Error::InvalidPath(_)),
                ("/ghost", _) | (_, "/missing/f1") => matches!(err, Error::NotFound(_)),
                (_, "/f2/f1") => matches!(err, Error::NotADirectory(_)),
                _ => matches!(err, Error::AlreadyExists(_)),
            };
            assert!(expected, "{src} -> {dst}: {err}");
        }
        assert_eq!(names(&ns, "/"), vec!["a", "f1", "f2"]);
    }

    #[test]
    fn list_sorted_and_typed() {
        let mut ns = Namespace::new();
        ns.create(&p("/dir/b"), 1, false).unwrap();
        ns.create(&p("/dir/a"), 2, false).unwrap();
        ns.mkdirs(&p("/dir/z")).unwrap();
        assert_eq!(names(&ns, "/dir"), vec!["a", "b", "z"]);
        let list = ns.list(&p("/dir")).unwrap();
        assert_eq!(list[0].0, p("/dir/a"));
        assert_eq!(list[0].1, &Inode::File(2));
        assert!(matches!(
            ns.list(&p("/dir/a")),
            Err(Error::NotADirectory(_))
        ));
        assert!(matches!(ns.list(&p("/none")), Err(Error::NotFound(_))));
        assert!(names(&ns, "/dir/z").is_empty());
    }
}
