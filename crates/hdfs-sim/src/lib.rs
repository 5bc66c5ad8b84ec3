//! `hdfs-sim` — the HDFS 0.20 baseline the paper compares against (§II-B),
//! behind the same [`dfs::FileSystem`] API as BSFS. It is also the HDFS
//! side of every figure: `experiments` drives this namenode and these
//! datanodes, and keeps only their costs.
//!
//! Faithful to the semantics the paper leans on:
//!
//! * **Centralized metadata**: one [`namenode::NameNode`] holds the
//!   namespace *and* the chunk layout; every metadata operation serializes
//!   through it.
//! * **64 MB chunks** on [`datanode::DataNode`]s; reads and writes stream
//!   directly between clients and datanodes.
//! * **Single writer, immutable data**: one lease per file; "once written,
//!   data cannot be altered, neither by overwriting nor by appending".
//!   This is HDFS 0.20 only: `append` always returns `Unsupported` (§V-F).
//! * **Local-first placement**: a writer co-located with a datanode stores
//!   its chunks locally (§V-D); remote writers get sticky-random placement
//!   — the root of the load imbalance of Fig. 3(b) (docs/REPRODUCING.md).
//!
//! The namespace tree and the client-side buffering streams are `dfs`'s
//! ([`dfs::Namespace`], [`dfs::BlockReader`], [`dfs::BlockWriter`]), the
//! same ones BSFS uses; this crate keeps only what is HDFS's own: leases,
//! chunk lists, placement and load accounting in the namenode, write-once
//! chunk storage in the datanodes.
//!
//! ```
//! use blobseer_types::{HdfsConfig, NodeId};
//! use dfs::{FileSystem, util};
//! use hdfs_sim::HdfsCluster;
//!
//! let cluster = HdfsCluster::new(HdfsConfig::small_for_tests(), 4);
//! let fs = cluster.mount(NodeId::new(0));
//! util::write_file(&fs, "/data/f", b"hdfs bytes").unwrap();
//! assert_eq!(util::read_fully(&fs, "/data/f").unwrap(), b"hdfs bytes");
//! assert!(fs.append("/data/f").is_err(), "no append on 0.20 (§V-F)");
//! ```
#![forbid(unsafe_code)]

pub mod datanode;
pub mod fs;
pub mod namenode;

pub use datanode::{ChunkId, DataNode};
pub use fs::{Hdfs, HdfsCluster};
pub use namenode::{ChunkMeta, FileSnapshot, NameNode};
