//! `blobseer-control` — the BlobSeer control plane grown past its single
//! points of failure.
//!
//! The paper's architecture (§II) runs four service roles next to the
//! data providers: the **version manager**, the **provider manager**, the
//! metadata DHT, and the GC tracker. The version manager is the one
//! serialization point of the whole protocol — every append storm
//! funnels through its version-number assignment — and the companion
//! design paper explicitly leaves its fault tolerance open. This crate
//! closes that gap for the reproduction:
//!
//! * [`ReplicatedVersionService`] — the version manager as a leader-based
//!   replica group: N `blobseer_disk::VersionReplica`s (the one persisted
//!   form of the version manager — entry format, replay and result
//!   checks live there), acknowledgement by every live replica under a
//!   majority quorum, a countdown leader lease for reads, deterministic
//!   re-election, and exactly-once retries across leader crashes. A
//!   durable group keeps one replica log per member, and recovery
//!   reconciles divergent logs by the election ordering.
//!
//! The placement and GC halves of the control plane need no replication
//! layer of their own — they are hosted (one shared instance behind
//! `blobseer-rpc` servers) rather than replicated; see
//! `blobseer_core::ports::{PlacementService, GcService}` and the cluster
//! module of `blobseer-rpc`.
//!
//! Lock classes introduced by this crate (all `ctl.*`): `ctl.group` →
//! `ctl.replica` (ranked by replica index, ascending). See
//! `docs/ANALYSIS.md` for the workspace lock-order discipline.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod service;

pub use service::{CrashPoint, ReplicatedVersionService};
