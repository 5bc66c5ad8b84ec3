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
//! * [`server`] — a work-conserving FIFO queue (single server, fixed
//!   service time). It models the centralized entities, HDFS's namenode and
//!   BlobSeer's version manager ("the only step … where concurrent requests
//!   are serialized", §III-A.4), and each node's disk, whose service time
//!   is one block at the drain rate: two readers hitting the same datanode
//!   queue behind each other, the effect driving Fig. 4 of the paper.
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

pub mod flow;
pub mod gate;
pub mod server;
pub mod time;

pub use flow::{FlowId, FlowNet, NicSpec};
pub use gate::{SimGate, SimTask};
pub use server::FifoServer;
pub use time::{SimDuration, SimTime};

/// A node's disk is a [`FifoServer`] whose service time is one block at the
/// drain rate; these tests pin that reading of the queue.
#[cfg(test)]
mod disk {
    use crate::{FifoServer, SimDuration, SimTime};

    fn disk(block_bytes: u64, rate_bps: f64) -> FifoServer {
        FifoServer::new(SimDuration::from_secs_f64(block_bytes as f64 / rate_bps))
    }

    mod tests {
        use super::*;

        #[test]
        fn sequential_jobs_queue() {
            let mut d = disk(100, 100.0);
            let t1 = d.submit(SimTime::ZERO); // 1 s
            assert_eq!(t1.as_secs_f64(), 1.0);
            // Submitted while busy: starts at t1.
            let t2 = d.submit(SimTime::from_nanos(500_000_000));
            assert_eq!(t2.as_secs_f64(), 2.0);
            assert_eq!(d.served(), 2);
        }

        #[test]
        fn idle_disk_starts_immediately() {
            let mut d = disk(50, 100.0);
            d.submit(SimTime::ZERO);
            // Submit after the first job finished: no queueing.
            let t = d.submit(SimTime::from_nanos(3_000_000_000));
            assert_eq!(t.as_secs_f64(), 3.5);
            assert_eq!(d.mean_queue_delay(), SimDuration::ZERO);
        }
    }
}
