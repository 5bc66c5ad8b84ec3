//! Property-based tests of the discrete-event substrate: whatever random
//! flow pattern we throw at the network model, physics must hold.

use blobseer_types::NodeId;
use proptest::prelude::*;
use simnet::{FifoServer, FlowNet, NicSpec, SimDuration, SimGate, SimTask, SimTime};
use std::sync::Mutex;

#[derive(Clone, Debug)]
struct FlowSpec {
    src: u8,
    dst: u8,
    kib: u16,
    start_ms: u16,
}

fn flow_strategy(nodes: u8) -> impl Strategy<Value = FlowSpec> {
    (0..nodes, 0..nodes, 1u16..2048, 0u16..500).prop_map(|(src, dst, kib, start_ms)| FlowSpec {
        src,
        dst,
        kib,
        start_ms,
    })
}

/// Runs each flow as one task on a fresh gate over `nodes` NICs: sleep
/// until its start, then transfer. Returns each flow's completion instant
/// (by spec index) and the instant the run ended.
fn run_flows(nodes: usize, specs: &[FlowSpec]) -> (Vec<SimTime>, SimTime) {
    let gate = SimGate::new(FlowNet::new(nodes, NicSpec::symmetric(CAP)));
    let done = Mutex::new(vec![None; specs.len()]);
    let tasks: Vec<SimTask<'_>> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let (gate, done) = (&gate, &done);
            Box::new(move || {
                gate.sleep(SimDuration::from_millis(s.start_ms as u64));
                let (src, dst) = (NodeId::new(s.src as u64), NodeId::new(s.dst as u64));
                let at = gate.transfer(src, dst, s.kib as u64 * 1024);
                assert!(done.lock().unwrap()[i].replace(at).is_none());
            }) as SimTask<'_>
        })
        .collect();
    gate.run(tasks);
    let done = done.into_inner().unwrap();
    (
        done.into_iter()
            .map(|t| t.expect("every flow completes"))
            .collect(),
        gate.now(),
    )
}

const NODES: u8 = 6;
const CAP: f64 = 1_000_000.0; // 1 MB/s NICs

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every flow completes exactly once, never before its physical lower
    /// bound (its bytes at full NIC speed), and never slower than the
    /// worst case of sharing its NICs with every other flow.
    #[test]
    fn flows_complete_within_physical_bounds(specs in proptest::collection::vec(flow_strategy(NODES), 1..20)) {
        let specs: Vec<FlowSpec> = specs.into_iter().filter(|s| s.src != s.dst).collect();
        prop_assume!(!specs.is_empty());
        let (completions, end) = run_flows(NODES as usize, &specs);
        prop_assert_eq!(completions.len(), specs.len(), "every flow completes once");
        let n = specs.len() as f64;
        for (token, &at) in completions.iter().enumerate() {
            let s = &specs[token];
            let started = s.start_ms as f64 / 1000.0;
            let min_secs = s.kib as f64 * 1024.0 / CAP;
            let dur = at.as_secs_f64() - started;
            prop_assert!(dur + 1e-6 >= min_secs, "flow {} beat light speed: {} < {}", token, dur, min_secs);
            // Worst case: the flow shares both endpoints with all others
            // for its whole life.
            prop_assert!(dur <= min_secs * n + 1.0, "flow {} too slow: {} vs {}", token, dur, min_secs * n);
        }
        // Simulation ends exactly at the last completion.
        let last = completions.iter().copied().max().unwrap();
        prop_assert_eq!(end, last);
    }

    /// Bytes are conserved: driven the way the gate drives it (next
    /// completion, advance there, take the finished flows), the bare
    /// network moves exactly the bytes its flows carried and completes
    /// each flow exactly once.
    #[test]
    fn flows_conserve_bytes(specs in proptest::collection::vec(flow_strategy(NODES), 1..20)) {
        let specs: Vec<FlowSpec> = specs.into_iter().filter(|s| s.src != s.dst).collect();
        prop_assume!(!specs.is_empty());
        let mut net = FlowNet::new(NODES as usize, NicSpec::symmetric(CAP));
        let mut order: Vec<usize> = (0..specs.len()).collect();
        order.sort_by_key(|&i| specs[i].start_ms);
        let mut pending = order.into_iter().peekable();
        let mut seen = std::collections::HashSet::new();
        loop {
            let next_start = pending
                .peek()
                .map(|&i| SimTime::ZERO + SimDuration::from_millis(specs[i].start_ms as u64));
            let next_done = net.next_completion();
            match next_start {
                // Starts win ties, as the gate's fixed wake-ups do.
                Some(t) if next_done.is_none_or(|d| t <= d) => {
                    let i = pending.next().expect("peeked");
                    let (src, dst) = (NodeId::new(specs[i].src as u64), NodeId::new(specs[i].dst as u64));
                    net.start(t, src, dst, specs[i].kib as u64 * 1024, i);
                }
                _ => {
                    let Some(done) = next_done else { break };
                    net.advance(done);
                    for token in net.take_completed() {
                        prop_assert!(seen.insert(token), "duplicate completion {}", token);
                    }
                }
            }
        }
        prop_assert_eq!(seen.len(), specs.len(), "every flow completes once");
        let expected: f64 = specs.iter().map(|s| s.kib as f64 * 1024.0).sum();
        let moved = net.bytes_transferred();
        prop_assert!((moved - expected).abs() < 1.0, "bytes lost: {} vs {}", moved, expected);
    }

    /// The flow model conserves work: aggregate throughput at any recompute
    /// point never exceeds the sum of NIC capacities, so the makespan is
    /// bounded below by total bytes / aggregate capacity.
    #[test]
    fn makespan_respects_aggregate_capacity(specs in proptest::collection::vec(flow_strategy(NODES), 1..24)) {
        let specs: Vec<FlowSpec> = specs.into_iter().filter(|s| s.src != s.dst).map(|mut s| { s.start_ms = 0; s }).collect();
        prop_assume!(!specs.is_empty());
        let end = run_flows(NODES as usize, &specs).1.as_secs_f64();
        let total_bytes: f64 = specs.iter().map(|s| s.kib as f64 * 1024.0).sum();
        // Egress is the binding aggregate limit.
        let min_time = total_bytes / (NODES as f64 * CAP);
        prop_assert!(end + 1e-9 >= min_time);
    }

    /// FIFO servers (the namenode, the version manager, every disk):
    /// completion times are ordered and spaced at least one service time
    /// apart.
    #[test]
    fn fifo_server_discipline(arrivals in proptest::collection::vec(0u32..10_000, 1..64)) {
        let svc = SimDuration::from_micros(500);
        let mut server = FifoServer::new(svc);
        let mut sorted = arrivals.clone();
        sorted.sort_unstable();
        let mut last_done = SimTime::ZERO;
        for &a in &sorted {
            let done = server.submit(SimTime::from_nanos(a as u64 * 1000));
            prop_assert!(done > last_done, "FIFO order violated");
            prop_assert!(done.as_nanos() >= a as u64 * 1000 + svc.as_nanos());
            last_done = done;
        }
        prop_assert_eq!(server.served(), sorted.len() as u64);
    }

    /// Disks (a FIFO server whose service time is one block at the drain
    /// rate): a burst submitted at t = 0 drains back to back, the k-th block
    /// completing at exactly k × service.
    #[test]
    fn disk_work_conservation(block_kib in 1u32..100_000, jobs in 1usize..32) {
        let svc = SimDuration::from_secs_f64(block_kib as f64 * 1024.0 / 1_000_000.0);
        let mut disk = FifoServer::new(svc);
        let ends: Vec<u64> = (0..jobs).map(|_| disk.submit(SimTime::ZERO).as_nanos()).collect();
        let back_to_back: Vec<u64> = (1..=jobs as u64).map(|k| k * svc.as_nanos()).collect();
        prop_assert_eq!(ends, back_to_back);
    }
}

/// Determinism across runs is load-bearing for the figure reproduction:
/// byte-identical completion schedules for identical inputs.
#[test]
fn identical_runs_produce_identical_schedules() {
    let specs: Vec<FlowSpec> = (0..12u16)
        .map(|i| FlowSpec {
            src: (i % 4) as u8,
            dst: 4,
            kib: 97 + i,
            start_ms: i * 7,
        })
        .collect();
    let run = || {
        let (completions, end) = run_flows(5, &specs);
        let at: Vec<u64> = completions.iter().map(|t| t.as_nanos()).collect();
        (at, end.as_nanos())
    };
    assert_eq!(run(), run());
}
