//! Shared identifiers, byte ranges, errors and the BlobSeer deployment
//! configuration used across the BlobSeer reproduction workspace.
//!
//! Everything here is intentionally tiny and dependency-free: these types are
//! the vocabulary that the storage engine ([`blobseer-core`]), the file-system
//! layers (`bsfs`, `hdfs-sim`), the Map/Reduce engine and the discrete-event
//! experiment models all speak.
//!
//! [`blobseer-core`]: https://hal.inria.fr/inria-00456801

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod error;
pub mod ids;
pub mod range;
pub mod wire;

pub use config::BlobSeerConfig;
pub use error::{Error, Result};
pub use ids::{BlobId, BlockId, ClientId, NodeId, Version};
pub use range::{BlockSpan, ByteRange};

/// The chunk/block size used throughout the paper's evaluation: 64 MB.
///
/// Both HDFS chunks and BlobSeer blocks are configured to this size in the
/// paper (§III-A.2). Library code never hard-codes it — it always comes from
/// a [`config::BlobSeerConfig`] or `hdfs_sim::HdfsConfig` — but the experiment
/// drivers and examples use this constant to mirror the paper.
pub const PAPER_BLOCK_SIZE: u64 = 64 * 1024 * 1024;
