//! `simnet` — a small, deterministic discrete-event simulator used to model
//! the Grid'5000 testbed of the paper's evaluation (§V-A): nodes with
//! 1 Gbit/s NICs, 0.1 ms latency, and commodity disks.
//!
//! The simulator is split into orthogonal pieces:
//!
//! * [`flow`] — a flow-level network model. Transfers are *flows* that share
//!   NIC capacity max-min fairly; rates are recomputed whenever a flow starts
//!   or finishes (progressive filling). This is the standard way to capture
//!   throughput collapse under contention without packet-level detail.
//! * [`disk`] — a work-conserving FIFO disk per node: submissions complete in
//!   order at a fixed drain rate, which is what makes "two readers hitting
//!   the same datanode" slower — the effect driving Fig. 4 of the paper.
//! * [`server`] — a serialized RPC server (single queue, fixed service time)
//!   used for the centralized entities: HDFS's namenode and BlobSeer's
//!   version manager ("the only step … where concurrent requests are
//!   serialized", §III-A.4).
//! * [`gate`] — the one engine: the simulated clock and its event queue,
//!   driving *real* blocked threads. Synchronous code (the genuine client
//!   protocol, or a cost model's task) runs one thread per simulated task,
//!   interleaved deterministically on the simulated clock, with fixed
//!   wake-ups and flow completions as its events. This is what lets every
//!   figure drive the real `BlobClient` instead of bespoke event-handler
//!   re-implementations.
//!
//! # Example
//!
//! ```
//! use blobseer_types::NodeId;
//! use simnet::{FlowNet, NicSpec, SimDuration, SimGate, SimTask};
//!
//! // Three nodes with 100 B/s NICs. One task sleeps 5 ms, then sends 100
//! // bytes to node 2; the other sends node 2 100 bytes at once. The
//! // shared sink halves both rates while the flows overlap.
//! let gate = SimGate::new(FlowNet::new(3, NicSpec::symmetric(100.0)));
//! let tasks: Vec<SimTask<'_>> = vec![
//!     Box::new(|| {
//!         gate.sleep(SimDuration::from_millis(5));
//!         gate.transfer(NodeId::new(0), NodeId::new(2), 100);
//!     }),
//!     Box::new(|| {
//!         gate.transfer(NodeId::new(1), NodeId::new(2), 100);
//!     }),
//! ];
//! gate.run(tasks);
//! assert_eq!(gate.flow_stats(), (2, 2));
//! // The sink stays busy throughout: 200 bytes at 100 B/s take 2 s.
//! assert!((gate.now().as_secs_f64() - 2.0).abs() < 1e-6);
//! ```
#![forbid(unsafe_code)]

pub mod disk;
pub mod flow;
pub mod gate;
pub mod server;
pub mod time;

pub use disk::Disk;
pub use flow::{FlowId, FlowNet, NicSpec};
pub use gate::{SimGate, SimTask};
pub use server::FifoServer;
pub use time::{SimDuration, SimTime};
