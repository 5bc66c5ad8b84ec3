//! `dfs` — the distributed-file-system layer shared by BSFS and the HDFS
//! baseline.
//!
//! Hadoop accesses its storage "through a clean, specific Java API …
//! \[exposing\] the basic operations of a file system: read, write, append"
//! (§IV). The paper's whole methodology rests on swapping implementations
//! behind that API; this crate is the Rust equivalent. The Map/Reduce
//! engine is written exclusively against [`FileSystem`], so benchmarks and
//! applications run unmodified on either backend — just like Hadoop jobs
//! ran "out-of-the-box" on BSFS (§V-B).
//!
//! What the two backends have in common is written here once:
//!
//! * [`Namespace`] — the hierarchical path tree (§IV-A), generic over what
//!   a file carries; each backend wraps it in its own lock;
//! * [`BlockReader`] and [`BlockWriter`] — the client-side caching streams
//!   (§II-B, §IV-B): whole-block prefetch on read, write-behind until a
//!   block fills; a backend supplies only a block fetch and a
//!   [`BlockSink`];
//! * [`conformance`] — the checks both backends must pass.
#![forbid(unsafe_code)]

pub mod api;
pub mod conformance;
pub mod namespace;
pub mod path;
pub mod stream;
pub mod util;

pub use api::{DfsInput, DfsOutput, FileStatus, FileSystem, FsBlockLocation};
pub use namespace::{Inode, Namespace};
pub use path::DfsPath;
pub use stream::{BlockReader, BlockSink, BlockWriter};
pub use util::{read_fully, write_file, LineReader};
