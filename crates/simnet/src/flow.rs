//! Flow-level network model with max-min fair bandwidth sharing.
//!
//! A *flow* is a bulk transfer of `bytes` from one node's egress NIC to
//! another node's ingress NIC. All concurrent flows share NIC capacity
//! max-min fairly, computed by progressive filling: repeatedly find the most
//! contended resource, assign its fair share to every unfrozen flow crossing
//! it, remove them, repeat. This captures the contention effects the paper's
//! evaluation hinges on — e.g. N readers whose blocks landed on the same
//! datanode each get `1/N` of that node's egress (Fig. 4).
//!
//! The model assumes a non-blocking switch fabric between NICs, which matches
//! the single-cluster Grid'5000 deployments of §V-A.
//!
//! Rates are recomputed whenever a flow starts or finishes. The network has
//! no clock of its own: [`crate::gate::SimGate`] drives it, asking for the
//! [`FlowNet::next_completion`], [`FlowNet::advance`]-ing there and
//! collecting the finished flows with [`FlowNet::take_completed`].

use crate::time::{SimDuration, SimTime};
use blobseer_types::NodeId;

/// Identifies a flow within a [`FlowNet`]. Slots are reused after completion.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct FlowId(usize);

/// Per-node NIC capacities in bytes per second.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NicSpec {
    /// Outgoing capacity (bytes/s).
    pub egress_bps: f64,
    /// Incoming capacity (bytes/s).
    pub ingress_bps: f64,
}

impl NicSpec {
    /// A symmetric NIC.
    pub fn symmetric(bps: f64) -> Self {
        assert!(bps > 0.0, "NIC capacity must be positive");
        Self {
            egress_bps: bps,
            ingress_bps: bps,
        }
    }
}

struct FlowState<T> {
    src: usize,
    dst: usize,
    remaining: f64,
    rate: f64,
    token: T,
}

/// The set of active flows plus NIC capacities.
pub struct FlowNet<T> {
    nics: Vec<NicSpec>,
    slots: Vec<Option<FlowState<T>>>,
    free: Vec<usize>,
    active: usize,
    last_advance: SimTime,
    flows_started: u64,
    flows_completed: u64,
    bytes_transferred: f64,
}

/// A flow is considered complete when fewer than this many bytes remain;
/// guards against floating-point residue.
const COMPLETION_EPS: f64 = 1e-3;

impl<T> FlowNet<T> {
    /// A network of `n_nodes` identical NICs. Node `i` is `NodeId(i)`.
    pub fn new(n_nodes: usize, nic: NicSpec) -> Self {
        assert!(n_nodes > 0, "network needs at least one node");
        Self {
            nics: vec![nic; n_nodes],
            slots: Vec::new(),
            free: Vec::new(),
            active: 0,
            last_advance: SimTime::ZERO,
            flows_started: 0,
            flows_completed: 0,
            bytes_transferred: 0.0,
        }
    }

    /// Number of nodes in the network.
    pub fn node_count(&self) -> usize {
        self.nics.len()
    }

    /// Number of currently active flows.
    pub fn active_flows(&self) -> usize {
        self.active
    }

    /// Total flows started / completed since construction.
    pub fn flow_stats(&self) -> (u64, u64) {
        (self.flows_started, self.flows_completed)
    }

    /// Total bytes moved by completed *and* in-progress flows so far.
    pub fn bytes_transferred(&self) -> f64 {
        self.bytes_transferred
    }

    /// Starts a flow of `bytes` from `src` to `dst` at time `now`.
    ///
    /// Zero-byte flows are legal and complete at the current instant.
    ///
    /// # Panics
    /// Panics if either node id is out of range or if `now` precedes the last
    /// state change (causality).
    pub fn start(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        token: T,
    ) -> FlowId {
        let (s, d) = (src.raw() as usize, dst.raw() as usize);
        assert!(s < self.nics.len(), "unknown src node {src}");
        assert!(d < self.nics.len(), "unknown dst node {dst}");
        self.advance(now);
        let state = FlowState {
            src: s,
            dst: d,
            remaining: bytes as f64,
            rate: 0.0,
            token,
        };
        let id = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(state);
                FlowId(slot)
            }
            None => {
                self.slots.push(Some(state));
                FlowId(self.slots.len() - 1)
            }
        };
        self.active += 1;
        self.flows_started += 1;
        self.recompute();
        id
    }

    /// Advances all flows to `now`, decrementing remaining bytes at current
    /// rates. Idempotent for equal `now`.
    pub fn advance(&mut self, now: SimTime) {
        assert!(
            now >= self.last_advance,
            "flow clock went backwards: {now:?} < {:?}",
            self.last_advance
        );
        let dt = (now - self.last_advance).as_secs_f64();
        self.last_advance = now;
        if dt == 0.0 || self.active == 0 {
            return;
        }
        for slot in self.slots.iter_mut().flatten() {
            let moved = (slot.rate * dt).min(slot.remaining);
            slot.remaining -= moved;
            self.bytes_transferred += moved;
        }
    }

    /// Removes and returns the tokens of all flows that have finished
    /// (remaining ≈ 0). Call [`advance`](Self::advance) first.
    pub fn take_completed(&mut self) -> Vec<T> {
        let mut done = Vec::new();
        for (i, slot) in self.slots.iter_mut().enumerate() {
            let finished = slot
                .as_ref()
                .map(|f| f.remaining <= COMPLETION_EPS)
                .unwrap_or(false);
            if finished {
                let f = slot.take().expect("checked above");
                done.push(f.token);
                self.free.push(i);
                self.active -= 1;
                self.flows_completed += 1;
            }
        }
        if !done.is_empty() {
            self.recompute();
        }
        done
    }

    /// The earliest instant at which some active flow completes, given
    /// current rates, or `None` when no flow is active.
    pub fn next_completion(&self) -> Option<SimTime> {
        let mut best: Option<f64> = None;
        for f in self.slots.iter().flatten() {
            if f.remaining <= COMPLETION_EPS {
                return Some(self.last_advance); // already done: complete now
            }
            debug_assert!(f.rate > 0.0, "active flow starved of bandwidth");
            if f.rate <= 0.0 {
                continue;
            }
            let t = f.remaining / f.rate;
            best = Some(match best {
                Some(b) => b.min(t),
                None => t,
            });
        }
        best.map(|secs| self.last_advance + SimDuration::from_secs_f64(secs))
    }

    /// Current rate of a flow in bytes/s (0 if completed/unknown).
    pub fn flow_rate(&self, id: FlowId) -> f64 {
        self.slots
            .get(id.0)
            .and_then(|s| s.as_ref())
            .map(|f| f.rate)
            .unwrap_or(0.0)
    }

    /// Recomputes max-min fair rates for all active flows (progressive
    /// filling).
    ///
    /// Resources: each node's egress and each node's ingress. Every flow
    /// crosses `src.egress` and `dst.ingress`.
    fn recompute(&mut self) {
        if self.active == 0 {
            return;
        }
        let n = self.nics.len();
        // Resource layout: [0, n) egress, [n, 2n) ingress.
        let n_res = 2 * n;
        let mut cap = vec![0.0f64; n_res];
        let mut load = vec![0u32; n_res]; // unfrozen flows per resource
        for (i, nic) in self.nics.iter().enumerate() {
            cap[i] = nic.egress_bps;
            cap[n + i] = nic.ingress_bps;
        }

        let active_ids: Vec<usize> = (0..self.slots.len())
            .filter(|&i| self.slots[i].is_some())
            .collect();
        for &i in &active_ids {
            let f = self.slots[i].as_ref().expect("active");
            load[f.src] += 1;
            load[n + f.dst] += 1;
        }

        let mut frozen = vec![false; self.slots.len()];
        let mut unfrozen_left = active_ids.len();
        while unfrozen_left > 0 {
            // Most contended resource: minimal fair share cap/load.
            let mut best_share = f64::INFINITY;
            let mut best_res = usize::MAX;
            for r in 0..n_res {
                if load[r] > 0 {
                    let share = cap[r] / load[r] as f64;
                    if share < best_share {
                        best_share = share;
                        best_res = r;
                    }
                }
            }
            debug_assert!(best_res != usize::MAX, "flows left but no loaded resource");
            if best_res == usize::MAX {
                break;
            }
            // Freeze every unfrozen flow crossing that resource at the share.
            for &i in &active_ids {
                if frozen[i] {
                    continue;
                }
                let (src, dst) = {
                    let f = self.slots[i].as_ref().expect("active");
                    (f.src, f.dst)
                };
                if src != best_res && n + dst != best_res {
                    continue;
                }
                frozen[i] = true;
                unfrozen_left -= 1;
                let f = self.slots[i].as_mut().expect("active");
                f.rate = best_share;
                // Consume capacity on the flow's other resources.
                for r in [src, n + dst] {
                    load[r] -= 1;
                    if r != best_res {
                        cap[r] = (cap[r] - best_share).max(0.0);
                    }
                }
                // The chosen resource's capacity is fully consumed by its
                // frozen flows; zero what remains to keep shares exact.
                cap[best_res] -= best_share;
            }
            cap[best_res] = cap[best_res].max(0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{SimGate, SimTask};
    use std::sync::Mutex;

    const MB: f64 = 1024.0 * 1024.0;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * b.abs().max(1.0)
    }

    #[test]
    fn single_flow_gets_full_bandwidth() {
        let mut net: FlowNet<u32> = FlowNet::new(2, NicSpec::symmetric(100.0 * MB));
        net.start(
            SimTime::ZERO,
            NodeId::new(0),
            NodeId::new(1),
            (100.0 * MB) as u64,
            7,
        );
        let done = net.next_completion().expect("one active flow");
        assert!(
            close(done.as_secs_f64(), 1.0, 1e-6),
            "100 MB at 100 MB/s ≈ 1 s, got {done}"
        );
    }

    #[test]
    fn two_flows_into_one_sink_halve() {
        // Two sources send to the same destination: its ingress is the
        // bottleneck, each flow gets half.
        let mut net: FlowNet<u32> = FlowNet::new(3, NicSpec::symmetric(100.0 * MB));
        let a = net.start(
            SimTime::ZERO,
            NodeId::new(0),
            NodeId::new(2),
            (50.0 * MB) as u64,
            0,
        );
        let b = net.start(
            SimTime::ZERO,
            NodeId::new(1),
            NodeId::new(2),
            (50.0 * MB) as u64,
            1,
        );
        assert!(close(net.flow_rate(a), 50.0 * MB, 1e-9));
        assert!(close(net.flow_rate(b), 50.0 * MB, 1e-9));
    }

    #[test]
    fn max_min_is_not_proportional() {
        // Node 0 sends to nodes 1 and 2; node 3 also sends to node 2.
        // Bottlenecks: node 0 egress (2 flows), node 2 ingress (2 flows).
        // Max-min: all three flows get 50 — flow 0→1 is capped by node 0's
        // egress even though node 1's ingress is idle.
        let mut net: FlowNet<u32> = FlowNet::new(4, NicSpec::symmetric(100.0));
        let f01 = net.start(SimTime::ZERO, NodeId::new(0), NodeId::new(1), 1000, 0);
        let f02 = net.start(SimTime::ZERO, NodeId::new(0), NodeId::new(2), 1000, 1);
        let f32_ = net.start(SimTime::ZERO, NodeId::new(3), NodeId::new(2), 1000, 2);
        assert!(
            close(net.flow_rate(f01), 50.0, 1e-9),
            "{}",
            net.flow_rate(f01)
        );
        assert!(close(net.flow_rate(f02), 50.0, 1e-9));
        assert!(close(net.flow_rate(f32_), 50.0, 1e-9));
    }

    #[test]
    fn asymmetric_shares_redistribute() {
        // Nodes 1,2 both send to node 0 (cap 100). Node 1 also sends to
        // node 3. Max-min: flows into 0 get 50 each; node 1's second flow
        // picks up node 1's leftover egress: 100-50 = 50.
        let mut net: FlowNet<u32> = FlowNet::new(4, NicSpec::symmetric(100.0));
        let f10 = net.start(SimTime::ZERO, NodeId::new(1), NodeId::new(0), 1000, 0);
        let f20 = net.start(SimTime::ZERO, NodeId::new(2), NodeId::new(0), 1000, 1);
        let f13 = net.start(SimTime::ZERO, NodeId::new(1), NodeId::new(3), 1000, 2);
        assert!(close(net.flow_rate(f10), 50.0, 1e-9));
        assert!(close(net.flow_rate(f20), 50.0, 1e-9));
        assert!(close(net.flow_rate(f13), 50.0, 1e-9));
    }

    #[test]
    fn freed_bandwidth_speeds_up_survivors() {
        let mut net: FlowNet<u32> = FlowNet::new(3, NicSpec::symmetric(100.0));
        // Both flows sink into node 2: 50 each.
        net.start(SimTime::ZERO, NodeId::new(0), NodeId::new(2), 100, 0);
        let b = net.start(SimTime::ZERO, NodeId::new(1), NodeId::new(2), 1000, 1);
        // After 2 s the first flow (100 B at 50 B/s) completes.
        let t1 = net.next_completion().unwrap();
        assert!(close(t1.as_secs_f64(), 2.0, 1e-6));
        net.advance(t1);
        let done = net.take_completed();
        assert_eq!(done, vec![0]);
        // Survivor now gets the full 100 B/s.
        assert!(close(net.flow_rate(b), 100.0, 1e-9));
        // It had 1000-100=900 left; completes 9 s later.
        let t2 = net.next_completion().unwrap();
        assert!(close((t2 - t1).as_secs_f64(), 9.0, 1e-5));
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let mut net: FlowNet<u32> = FlowNet::new(2, NicSpec::symmetric(100.0));
        net.start(SimTime::ZERO, NodeId::new(0), NodeId::new(1), 0, 9);
        assert_eq!(net.next_completion(), Some(SimTime::ZERO));
        net.advance(SimTime::ZERO);
        assert_eq!(net.take_completed(), vec![9]);
    }

    #[test]
    fn slot_reuse_keeps_ids_fresh() {
        let mut net: FlowNet<u32> = FlowNet::new(2, NicSpec::symmetric(100.0));
        let a = net.start(SimTime::ZERO, NodeId::new(0), NodeId::new(1), 100, 0);
        let t = net.next_completion().unwrap();
        net.advance(t);
        assert_eq!(net.take_completed(), vec![0]);
        assert_eq!(net.flow_rate(a), 0.0, "completed flow reports zero rate");
        let b = net.start(t, NodeId::new(0), NodeId::new(1), 100, 1);
        assert_eq!(a, b, "slot is recycled");
        assert!(net.flow_rate(b) > 0.0);
        let (started, completed) = net.flow_stats();
        assert_eq!((started, completed), (2, 1));
    }

    // --- driven by the gate -------------------------------------------------

    fn gate(n_nodes: usize, bps: f64) -> SimGate {
        SimGate::new(FlowNet::new(n_nodes, NicSpec::symmetric(bps)))
    }

    #[test]
    fn pump_dispatches_and_chains() {
        // The gate hands each completion to the task blocked on it, which
        // chains a follow-up transfer from that instant at the full rate.
        let g = gate(2, 100.0);
        let completions = Mutex::new(Vec::new());
        g.run(vec![Box::new(|| {
            for token in [0, 99] {
                let t = g.transfer(NodeId::new(0), NodeId::new(1), 100);
                completions.lock().unwrap().push((token, t.as_secs_f64()));
            }
        })]);
        let completions = completions.into_inner().unwrap();
        assert_eq!(completions.len(), 2);
        assert_eq!(completions[0].0, 0);
        assert_eq!(completions[1].0, 99);
        assert!(close(completions[0].1, 1.0, 1e-6), "{completions:?}");
        assert!(close(completions[1].1, 2.0, 1e-6), "{completions:?}");
        let end = g.now();
        assert!(
            close(end.as_secs_f64(), 2.0, 1e-6),
            "two sequential 1 s transfers: {end}"
        );
        assert_eq!(g.flow_stats(), (2, 2));
    }

    #[test]
    fn concurrent_flows_complete_together_under_sharing() {
        let g = gate(3, 100.0);
        let completions = Mutex::new(Vec::new());
        g.run(vec![
            Box::new(|| {
                let t = g.transfer(NodeId::new(0), NodeId::new(2), 100);
                completions.lock().unwrap().push((1, t));
            }),
            Box::new(|| {
                let t = g.transfer(NodeId::new(1), NodeId::new(2), 100);
                completions.lock().unwrap().push((2, t));
            }),
        ]);
        // Both share the sink's 100 B/s: 200 B total takes 2 s.
        let end = g.now();
        assert!(close(end.as_secs_f64(), 2.0, 1e-6), "{end}");
        assert_eq!(completions.into_inner().unwrap().len(), 2);
    }

    #[test]
    fn determinism_same_seeded_run_twice() {
        let run = || {
            let g = gate(4, 117.5);
            let completions = Mutex::new(Vec::new());
            let tasks: Vec<SimTask<'_>> = (0..3u64)
                .map(|i| {
                    let (g, completions) = (&g, &completions);
                    Box::new(move || {
                        let at = g.transfer(NodeId::new(i), NodeId::new(3), 1000 + 7 * i);
                        completions.lock().unwrap().push((i, at.as_nanos()));
                    }) as SimTask<'_>
                })
                .collect();
            g.run(tasks);
            completions.into_inner().unwrap()
        };
        assert_eq!(run(), run());
    }
}
