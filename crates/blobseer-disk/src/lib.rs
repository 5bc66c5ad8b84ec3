//! Durable, log-structured backends for the BlobSeer port traits.
//!
//! The in-memory adapters in `blobseer-core` model the paper's services
//! as they behave *within* one process lifetime; this crate gives the
//! same three ports a disk form so a deployment survives a full stop:
//!
//! * [`volume::DiskProviderSet`] — a [`blobseer_core::ports::BlockStore`]
//!   of needle/volume files: every put appends one framed record, an
//!   in-memory offset index (rebuilt by replay on open) locates blocks
//!   for single positional reads, deletes append tombstones.
//! * [`record_log::DiskMetaStore`] — a [`blobseer_core::ports::MetaStore`]
//!   of per-shard record logs + memtables, persisting tree nodes in the
//!   same encoding they travel the RPC wire in
//!   ([`blobseer_core::meta::codec`]), with the same `hash64 % shards`
//!   placement as the in-memory DHT.
//! * [`version_log::DurableVersionService`] — a
//!   [`blobseer_core::ports::VersionService`] that logs every successful
//!   mutation and rebuilds by deterministic replay, verifying the
//!   replayed ids/versions against what the log recorded.
//!
//! All three stand on one primitive, [`frame::FrameLog`]: length-prefixed,
//! CRC-32-checksummed frames on an append-only file, where opening scans
//! the log and **truncates at the first torn or corrupt frame** — a crash
//! mid-write (the paper's append-only data model makes this the *only*
//! on-disk failure mode short of media corruption) costs at most the
//! unacknowledged tail, never a panic or a garbage read. The
//! crash-consistency suite (`tests/crash_consistency.rs`) proves this by
//! truncating logs at every byte offset of their final frame.
//!
//! Every store exposes an explicit `reopen()` that simulates a process
//! restart in place (drop state, rescan, rebuild), which is what the
//! equivalence and restart suites drive. [`testutil::TempDir`] is the
//! std-only scaffolding those suites share.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod frame;
pub mod record_log;
pub mod testutil;
pub mod version_log;
pub mod volume;

pub use frame::{Frame, FrameLog};
pub use record_log::DiskMetaStore;
pub use version_log::DurableVersionService;
pub use volume::{DiskProviderSet, DiskVolume};
