//! The FileSystem trait and its companion types.
//!
//! This mirrors the subset of `org.apache.hadoop.fs.FileSystem` that the
//! paper's integration implements (§IV): namespace operations, streaming
//! reads/writes, append, and the block-location call that powers affinity
//! scheduling ("Hadoop's file system API exposes a call that allows Hadoop
//! to learn how the requested data is split into blocks, and where those
//! blocks are stored", §IV-C).

use blobseer_types::{NodeId, Result};

/// Metadata of a file or directory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileStatus {
    /// Normalized absolute path.
    pub path: String,
    /// True for directories.
    pub is_dir: bool,
    /// File length in bytes (0 for directories).
    pub len: u64,
    /// Block/chunk size of the file system holding the file.
    pub block_size: u64,
}

/// Where one block of a file lives — the affinity-scheduling primitive.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FsBlockLocation {
    /// Byte offset of the block within the file.
    pub offset: u64,
    /// Length of the block (the final block may be shorter).
    pub length: u64,
    /// Nodes hosting replicas of the block.
    pub hosts: Vec<NodeId>,
}

/// A readable, seekable stream over a file.
///
/// Implementations buffer internally (HDFS "prefetches data on reading",
/// §II-B; BSFS implements "a similar caching mechanism", §IV-B), so callers
/// may issue small reads — Hadoop reads 4 KB at a time — without paying a
/// per-call protocol round trip. Both backends use [`crate::BlockReader`].
pub trait DfsInput: Send {
    /// Reads up to `buf.len()` bytes at the current position; returns the
    /// number of bytes read (0 at end of file).
    fn read(&mut self, buf: &mut [u8]) -> Result<usize>;

    /// Moves the read position.
    fn seek(&mut self, pos: u64) -> Result<()>;

    /// Current read position.
    fn pos(&self) -> u64;

    /// Total file length at open time.
    fn len(&self) -> u64;

    /// True when the file is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads exactly `buf.len()` bytes or fails.
    fn read_exact(&mut self, buf: &mut [u8]) -> Result<()> {
        let mut done = 0;
        while done < buf.len() {
            let n = self.read(&mut buf[done..])?;
            if n == 0 {
                return Err(blobseer_types::Error::OutOfBounds {
                    requested_end: self.pos() + (buf.len() - done) as u64,
                    snapshot_size: self.len(),
                });
            }
            done += n;
        }
        Ok(())
    }
}

impl<T: DfsInput + ?Sized> DfsInput for Box<T> {
    fn read(&mut self, buf: &mut [u8]) -> Result<usize> {
        (**self).read(buf)
    }
    fn seek(&mut self, pos: u64) -> Result<()> {
        (**self).seek(pos)
    }
    fn pos(&self) -> u64 {
        (**self).pos()
    }
    fn len(&self) -> u64 {
        (**self).len()
    }
}

/// A writable stream over a file.
///
/// Implementations buffer writes and flush whole blocks ("it postpones
/// committing data after the buffer has reached at least a full chunk
/// size", §II-B), so the underlying storage only ever sees block-aligned
/// traffic. Data is durable and visible to new readers after [`close`].
/// Both backends use [`crate::BlockWriter`].
///
/// [`close`]: DfsOutput::close
pub trait DfsOutput: Send {
    /// Appends `buf` to the stream.
    fn write(&mut self, buf: &[u8]) -> Result<()>;

    /// Bytes written so far through this stream.
    fn pos(&self) -> u64;

    /// Flushes buffered data and releases the writer lease. Idempotent.
    fn close(&mut self) -> Result<()>;
}

/// The file-system API both backends implement (§IV).
pub trait FileSystem: Send + Sync {
    /// Creates a file and opens it for writing. With `overwrite`, an
    /// existing *file* at the path is replaced; otherwise creation fails.
    fn create(&self, path: &str, overwrite: bool) -> Result<Box<dyn DfsOutput + '_>>;

    /// Opens an existing file for appending. BSFS supports it, concurrent
    /// appenders included; the HDFS baseline models HDFS 0.20 and always
    /// returns `Error::Unsupported` (§V-F: "we could not perform the same
    /// experiment for HDFS, since it does not implement the append
    /// operation").
    fn append(&self, path: &str) -> Result<Box<dyn DfsOutput + '_>>;

    /// Opens a file for reading.
    fn open(&self, path: &str) -> Result<Box<dyn DfsInput + '_>>;

    /// True if the path exists (file or directory).
    fn exists(&self, path: &str) -> Result<bool>;

    /// Status of a file or directory.
    fn status(&self, path: &str) -> Result<FileStatus>;

    /// Statuses of a directory's children (sorted by name).
    fn list(&self, path: &str) -> Result<Vec<FileStatus>>;

    /// Creates a directory and all missing ancestors.
    fn mkdirs(&self, path: &str) -> Result<()>;

    /// Deletes a file, or a directory (recursively when asked).
    fn delete(&self, path: &str, recursive: bool) -> Result<()>;

    /// Renames a file or directory. The destination must not exist.
    fn rename(&self, src: &str, dst: &str) -> Result<()>;

    /// Block locations overlapping `[offset, offset + len)` of a file —
    /// the data-layout exposure of §IV-C.
    fn block_locations(&self, path: &str, offset: u64, len: u64) -> Result<Vec<FsBlockLocation>>;

    /// The block/chunk size of this file system.
    fn block_size(&self) -> u64;

    /// A short backend name for reports ("BSFS" / "HDFS").
    fn backend_name(&self) -> &'static str;
}
