//! `blobseer-repro` — umbrella crate of the BlobSeer reproduction.
//!
//! Re-exports every workspace crate so the examples in `examples/` and the
//! integration tests in `tests/` can reach the whole stack through one
//! dependency. See docs/ARCHITECTURE.md for the architecture map and
//! docs/REPRODUCING.md for the reproduction methodology.
#![forbid(unsafe_code)]

pub use blobseer_control;
pub use blobseer_core;
pub use blobseer_disk;
pub use blobseer_rpc;
pub use blobseer_types;
pub use bsfs;
pub use dfs;
pub use experiments;
pub use hdfs_sim;
pub use mapreduce;
pub use simnet;
