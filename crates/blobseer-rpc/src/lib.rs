//! `blobseer-rpc` — the TCP backend for the BlobSeer service ports.
//!
//! The paper's processes "communicate through remote procedure calls"
//! (§III-B); until this crate, the reproduction ran every service as an
//! in-process struct behind `Arc<dyn …>`. Here the same five port traits
//! — [`blobseer_core::ports::BlockStore`],
//! [`blobseer_core::ports::MetaStore`],
//! [`blobseer_core::ports::VersionService`],
//! [`blobseer_core::ports::PlacementService`],
//! [`blobseer_core::ports::GcService`] — go over real sockets, with
//! zero changes to the client protocol:
//!
//! * [`wire`] — a dependency-free length-prefixed binary codec: LEB128
//!   varint frames carrying a request id (so responses may return out of
//!   order), per-method request tags, and round-trippable encodings
//!   for every type that crosses a port boundary, including all
//!   [`blobseer_types::Error`] variants (service failures arrive at the
//!   remote caller as themselves, not as opaque transport errors);
//! * [`server`] — a TCP server hosting any port adapter behind its own
//!   listener: one thread per connection decodes, dispatches and answers
//!   each request in turn, slow `wait_revealed` calls are offloaded so
//!   they never hold up their connection, and shutdown stays graceful
//!   and deterministic;
//! * [`client`] — multiplexed client adapters implementing the five
//!   traits over a small fixed budget of shared connections (any number
//!   of in-flight requests per connection, correlated by request id; dead
//!   connections redial transparently), pluggable into the unchanged
//!   [`blobseer_core::BlobSeer::deploy_ports`]. Data-path adapters meter
//!   on `port_round_trips`; the placement/GC control-plane adapters
//!   meter on `control_round_trips`, keeping the two budgets separately
//!   observable;
//! * [`cluster`] — [`cluster::LoopbackCluster`], an N-process-shaped
//!   deployment over loopback: one server per data provider plus DHT,
//!   version-manager, placement and GC servers.
//!
//! ```
//! use blobseer_rpc::LoopbackCluster;
//! use blobseer_types::{BlobSeerConfig, NodeId};
//!
//! let cluster = LoopbackCluster::boot(
//!     BlobSeerConfig::small_for_tests().with_block_size(64),
//!     4,
//! ).unwrap();
//! let sys = cluster.deploy().unwrap();
//! let client = sys.client(NodeId::new(100));
//!
//! // The unchanged §III protocol, now running over TCP:
//! let blob = client.create();
//! client.write(blob, 0, b"over the wire").unwrap();
//! assert_eq!(&client.read(blob, None, 0, 13).unwrap()[..], b"over the wire");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod cluster;
pub mod server;
pub mod wire;

pub use client::{
    RpcBlockStore, RpcGcService, RpcMetaStore, RpcPlacementService, RpcVersionService,
};
pub use cluster::LoopbackCluster;
pub use server::{InFlight, RpcServer, RpcService, ServerOptions};
