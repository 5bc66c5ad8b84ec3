//! `bsfs` — the **BlobSeer File System**: the layer that "enables BlobSeer
//! to act as a storage backend file system for Hadoop" (§IV).
//!
//! Three pieces, mirroring §IV-A/B/C of the paper:
//!
//! * [`namespace`] — a centralized namespace manager mapping a hierarchical
//!   directory tree onto flat BLOBs, consulted only for metadata operations
//!   so data traffic fully benefits from BlobSeer's decentralization;
//! * [`stream`] — client-side caching: readers prefetch whole blocks,
//!   writers buffer until a block fills (write-behind), so Hadoop's 4 KB
//!   record accesses never hit the network individually;
//! * [`fs`] — the [`dfs::FileSystem`] implementation tying them together,
//!   including the block-location call that lets the jobtracker place
//!   computation next to data.
//!
//! The path tree and the caching streams are `dfs`'s ([`dfs::Namespace`],
//! [`dfs::BlockReader`], [`dfs::BlockWriter`]), shared with the HDFS
//! baseline so the two cannot drift apart. BSFS supplies what is its own:
//! BLOB ids as file payloads, reads of a pinned snapshot as the block
//! fetch, and BLOB appends with a reveal wait as the block sink.
//!
//! Beyond the Hadoop API, BSFS exposes BlobSeer's extras (§V-F, §VI-A):
//! concurrent appends to one file from many clients, and opening pinned
//! past versions of a file.
//!
//! ```
//! use blobseer_core::BlobSeer;
//! use blobseer_types::{BlobSeerConfig, NodeId};
//! use bsfs::BsfsCluster;
//! use dfs::{FileSystem, util};
//!
//! let system = BlobSeer::deploy(BlobSeerConfig::small_for_tests(), 4);
//! let cluster = BsfsCluster::new(system);
//! let fs = cluster.mount(NodeId::new(0));
//!
//! util::write_file(&fs, "/data/input.txt", b"hello bsfs\n").unwrap();
//! assert_eq!(util::read_fully(&fs, "/data/input.txt").unwrap(), b"hello bsfs\n");
//! assert_eq!(fs.backend_name(), "BSFS");
//! ```
#![forbid(unsafe_code)]

pub mod fs;
pub mod namespace;
pub mod stream;

pub use fs::{Bsfs, BsfsCluster};
pub use namespace::{NamespaceManager, NsEntry};
pub use stream::{append_stream, BsfsInput, BsfsOutput};
