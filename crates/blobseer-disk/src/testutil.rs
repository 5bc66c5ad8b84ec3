//! Std-only test scaffolding: a unique, self-cleaning temporary
//! directory.
//!
//! The sandboxed build environment has no crates.io, so the usual
//! `tempfile` crate is unavailable; this is the minimal subset the disk
//! tests need. It lives in the library (not `#[cfg(test)]`) so both this
//! crate's unit tests and the workspace-level `tests/` suites can reach
//! it.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic disambiguator for directories created within one process.
static NEXT_TEMP_ID: AtomicU64 = AtomicU64::new(0);

/// A uniquely named directory under the system temp root, removed
/// recursively on drop.
///
/// Uniqueness combines the process id, an in-process counter and the
/// clock, so concurrent test processes and repeated runs never collide:
///
/// ```
/// use blobseer_disk::testutil::TempDir;
/// let tmp = TempDir::new("doc");
/// std::fs::write(tmp.path().join("probe"), b"x").unwrap();
/// assert!(tmp.path().join("probe").exists());
/// ```
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates a fresh directory whose name starts with `label`.
    ///
    /// # Panics
    ///
    /// Panics when the directory cannot be created — in a test helper,
    /// failing loudly beats limping on against a missing directory.
    pub fn new(label: &str) -> Self {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos())
            .unwrap_or(0);
        let path = std::env::temp_dir().join(format!(
            "blobseer-{label}-{}-{}-{nanos}",
            std::process::id(),
            NEXT_TEMP_ID.fetch_add(1, Ordering::Relaxed),
        ));
        std::fs::create_dir_all(&path)
            .unwrap_or_else(|e| panic!("create temp dir {}: {e}", path.display()));
        Self { path }
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        // Best effort: a failed cleanup must not turn a passing test into
        // a panic-while-panicking abort.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directories_are_unique_and_cleaned_up() {
        let a = TempDir::new("uniq");
        let b = TempDir::new("uniq");
        assert_ne!(a.path(), b.path());
        assert!(a.path().is_dir());
        let kept = a.path().to_path_buf();
        std::fs::create_dir_all(kept.join("nested/deeper")).unwrap();
        std::fs::write(kept.join("nested/deeper/file"), b"x").unwrap();
        drop(a);
        assert!(!kept.exists(), "drop removes the tree recursively");
        assert!(b.path().is_dir(), "other dirs untouched");
    }
}
