//! `blobseer-core` — a from-scratch Rust implementation of **BlobSeer**, the
//! versioned BLOB management service of Nicolae et al., *"BlobSeer: Bringing
//! High Throughput under Heavy Concurrency to Hadoop Map-Reduce
//! Applications"*, IPDPS 2010.
//!
//! BLOBs are huge, flat, versioned byte sequences accessed at fine grain
//! under heavy concurrency. The design combines four techniques (§III-A):
//!
//! 1. **Data striping** — BLOBs split into fixed-size blocks spread over
//!    data providers, allocated round-robin by the provider manager
//!    ([`provider_manager`], [`block_store`]).
//! 2. **Distributed metadata** — per-version segment trees whose nodes live
//!    in a DHT over metadata providers, with subtree sharing across versions
//!    ([`meta`], [`dht`]).
//! 3. **Versioning** — every write/append produces a new snapshot storing
//!    only the differential patch; all past versions stay readable, can be
//!    branched in O(1) and garbage-collected ([`version_manager`], [`gc`]).
//! 4. **Lock-free, version-based concurrency control** — data and metadata
//!    are never mutated; writers serialize *only* on version-number
//!    assignment; snapshots are revealed in version order, which yields
//!    linearizability ([`version_manager`], [`client`]).
//!
//! # Quick start
//!
//! ```
//! use blobseer_core::BlobSeer;
//! use blobseer_types::{BlobSeerConfig, NodeId};
//!
//! // 8 data providers, 4 KB blocks (tests use small blocks; the paper and
//! // the figure models use 64 MB, Hadoop's chunk size).
//! let system = BlobSeer::deploy(BlobSeerConfig::small_for_tests(), 8);
//! let client = system.client(NodeId::new(0));
//!
//! let blob = client.create();
//! let (offset, v1) = client.append(blob, b"hello ").unwrap();
//! assert_eq!(offset, 0);
//! let (offset, v2) = client.append(blob, b"world").unwrap();
//! assert_eq!(offset, 6);
//!
//! // Every version stays readable:
//! assert_eq!(&client.read(blob, Some(v1), 0, 6).unwrap()[..], b"hello ");
//! assert_eq!(&client.read(blob, Some(v2), 0, 11).unwrap()[..], b"hello world");
//! ```
#![forbid(unsafe_code)]

pub mod block_store;
pub mod cache;
pub mod client;
pub mod dht;
pub mod exec;
pub mod faults;
pub mod gc;
pub mod meta;
pub mod ports;
pub mod provider_manager;
pub mod sharded;
pub mod stats;
pub mod version_manager;

pub use cache::{BlockCache, CachedBlockStore};
pub use client::{BlobClient, BlobSeer, BlockLocation, EnginePorts};
pub use exec::FanoutExecutor;
pub use faults::{FaultPlan, Faults, FaultyBlockStore, FaultyMetaStore, PutFault};
pub use gc::{GcHost, GcReport, GcTracker};
pub use ports::{
    BlockHook, BlockStore, GcService, Hooked, MetaHook, MetaStore, NoopObserver, PlacementService,
    ProtocolObserver, ProtocolOp, ProtocolPhase, VersionService,
};
pub use provider_manager::{BlockAllocation, ProviderManager};
pub use sharded::ShardedMap;
pub use stats::{EngineStats, StatsSnapshot};
pub use version_manager::{SnapshotInfo, VersionManager, WriteIntent, WriteTicket};
