//! The traced run's bookkeeping: spans, per-layer aggregates, and the
//! self-time analysis.
//!
//! No product source is instrumented. Spans are recorded at the three
//! boundaries the benchmark can see from outside:
//!
//! * **op** — one root span per timed client operation, opened and closed
//!   by the workload loop ([`OpTimer`]);
//! * **phase** — one child per protocol phase, from the benchmark-owned
//!   [`ProtocolObserver`] the deployment is wired with ([`Trace`]
//!   implements it; the client calls it on its own thread, so the op in
//!   flight is a thread-local);
//! * **port** — one grandchild per port call, from the decorators in
//!   `ports.rs`. Fan-out runs port calls on pool threads, so a call finds
//!   its op through the deployment it was issued on ([`DeployCtx`]): the
//!   load is closed-loop, which leaves at most one write-kind and one
//!   read-kind op in flight per deployment.
//!
//! Spans live in per-thread vectors until the run ends. Exact aggregates
//! (calls, items, bytes, busy time per port; time per phase) are kept
//! beside them for every op, so the per-layer numbers do not depend on how
//! many spans fit under the per-thread cap.

use crate::json::Json;
use blobseer_core::ports::{ProtocolObserver, ProtocolOp, ProtocolPhase};
use blobseer_core::BlobSeer;
use blobseer_types::NodeId;
use parking_lot::Mutex;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Which side of the protocol an op or a port call belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Write,
    Read,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Write => "write",
            Kind::Read => "read",
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Level {
    Op,
    Phase,
    Port,
}

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub op_id: u64,
    pub level: Level,
}

/// The port methods the decorators time, one aggregate slot each.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PortCall {
    BlockPut,
    BlockGet,
    BlockDelete,
    MetaPut,
    MetaGet,
    MetaDelete,
    VmAssign,
    VmCommit,
    /// `latest` and `snapshot_info`: resolving which snapshot to read.
    VmLatest,
    /// `create_blob`, `wait_revealed` and the rest.
    VmOther,
    PlacementAllocate,
    PlacementOther,
    GcInc,
    GcRelease,
}

/// Aggregate slots: one per [`PortCall`] variant.
const PORT_CALL_COUNT: usize = PortCall::GcRelease as usize + 1;

impl PortCall {
    pub fn name(self) -> &'static str {
        match self {
            PortCall::BlockPut => "block.put",
            PortCall::BlockGet => "block.get",
            PortCall::BlockDelete => "block.delete",
            PortCall::MetaPut => "meta.put",
            PortCall::MetaGet => "meta.get",
            PortCall::MetaDelete => "meta.delete",
            PortCall::VmAssign => "vm.assign",
            PortCall::VmCommit => "vm.commit",
            PortCall::VmLatest => "vm.latest",
            PortCall::VmOther => "vm.other",
            PortCall::PlacementAllocate => "placement.allocate",
            PortCall::PlacementOther => "placement.other",
            PortCall::GcInc => "gc.inc_nodes",
            PortCall::GcRelease => "gc.release_roots",
        }
    }

    /// Which op of a deployment a call of this method belongs to.
    fn kind(self) -> Kind {
        match self {
            PortCall::BlockGet | PortCall::MetaGet | PortCall::VmLatest => Kind::Read,
            _ => Kind::Write,
        }
    }
}

/// The op in flight on one deployment, per kind (0 = none). A write-kind
/// call belongs to the write op; a read-kind call to the read op, or to
/// the write op when no read is in flight (`BlobClient::write` resolves
/// the latest snapshot first).
#[derive(Default)]
pub struct DeployCtx {
    write_op: AtomicU64,
    read_op: AtomicU64,
}

impl DeployCtx {
    fn slot(&self, kind: Kind) -> &AtomicU64 {
        match kind {
            Kind::Write => &self.write_op,
            Kind::Read => &self.read_op,
        }
    }

    fn op_for(&self, call: PortCall) -> u64 {
        match call.kind() {
            Kind::Write => self.write_op.load(Ordering::Relaxed),
            Kind::Read => match self.read_op.load(Ordering::Relaxed) {
                0 => self.write_op.load(Ordering::Relaxed),
                op => op,
            },
        }
    }
}

#[derive(Default)]
struct PortStat {
    calls: AtomicU64,
    items: AtomicU64,
    bytes: AtomicU64,
    ns: AtomicU64,
}

#[derive(Clone, Copy, Default, Debug)]
pub struct PortTotals {
    pub calls: u64,
    pub items: u64,
    pub bytes: u64,
    pub ns: u64,
}

/// Phase spans: `(op kind, phase)` → name and aggregate slot.
const PHASE_NAMES: [&str; 6] = [
    "write.data",
    "write.assign",
    "write.publish",
    "write.commit",
    "read.locate",
    "read.fetch",
];

fn phase_slot(op: ProtocolOp, phase: ProtocolPhase) -> Option<usize> {
    match (op, phase) {
        (ProtocolOp::Write | ProtocolOp::Append, ProtocolPhase::DataDone) => Some(0),
        (ProtocolOp::Write | ProtocolOp::Append, ProtocolPhase::VersionAssigned) => Some(1),
        (ProtocolOp::Write | ProtocolOp::Append, ProtocolPhase::MetadataPublished) => Some(2),
        (ProtocolOp::Write | ProtocolOp::Append, ProtocolPhase::Committed) => Some(3),
        (ProtocolOp::Read, ProtocolPhase::Located) => Some(4),
        (ProtocolOp::Read, ProtocolPhase::Done) => Some(5),
        _ => None,
    }
}

/// Spans kept per thread. Beyond it the aggregates still count every op,
/// and the analysis uses only ops recorded in full.
const SPAN_CAP: usize = 1 << 17;

type ThreadBuf = Mutex<Vec<Span>>;

static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's span vector per live trace, by trace id. Each is also
    /// listed in its trace, which drains it when the run ends; the lock is
    /// only ever contended then.
    static BUFS: RefCell<Vec<(u64, Arc<ThreadBuf>)>> = const { RefCell::new(Vec::new()) };
    /// `(op id, start of the phase in progress)` of the op this client
    /// thread has in flight.
    static CURRENT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Deltas of the engine's own counters over the timed ops of one kind.
#[derive(Default)]
struct EngineDeltas {
    ops: AtomicU64,
    round_trips: AtomicU64,
    control_round_trips: AtomicU64,
    fanout_batches: AtomicU64,
}

/// One traced run's shared state. Cheap to consult: the hot path is a
/// handful of relaxed atomics and one uncontended per-thread lock.
pub struct Trace {
    id: u64,
    bufs: Mutex<Vec<Arc<ThreadBuf>>>,
    next_op: AtomicU64,
    /// Lowest op id any thread had to drop a span of.
    full_until: AtomicU64,
    ports: [PortStat; PORT_CALL_COUNT],
    phase_ns: [AtomicU64; PHASE_NAMES.len()],
    protocol_ops: [AtomicU64; 2],
    engine: [EngineDeltas; 2],
    ticket_bytes: AtomicU64,
    ticket_samples: AtomicU64,
}

impl Trace {
    pub fn new() -> Arc<Self> {
        now_ns();
        Arc::new(Self {
            id: NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed),
            bufs: Mutex::new(Vec::new()),
            next_op: AtomicU64::new(1),
            full_until: AtomicU64::new(u64::MAX),
            ports: Default::default(),
            phase_ns: Default::default(),
            protocol_ops: Default::default(),
            engine: Default::default(),
            ticket_bytes: AtomicU64::new(0),
            ticket_samples: AtomicU64::new(0),
        })
    }

    fn record(&self, span: Span) {
        BUFS.with_borrow_mut(|bufs| {
            let at = match bufs.iter().position(|(id, _)| *id == self.id) {
                Some(at) => at,
                None => {
                    // First span of this trace on this thread; forget the
                    // vectors of traces that have ended.
                    bufs.retain(|(_, buf)| Arc::strong_count(buf) > 1);
                    let buf = Arc::new(Mutex::new(Vec::new()));
                    self.bufs.lock().push(Arc::clone(&buf));
                    bufs.push((self.id, buf));
                    bufs.len() - 1
                }
            };
            let mut spans = bufs[at].1.lock();
            if spans.len() < SPAN_CAP {
                spans.push(span);
            } else {
                self.full_until.fetch_min(span.op_id, Ordering::Relaxed);
            }
        });
    }

    /// Times one port call made on a deployment whose context is `ctx`.
    /// `measure` reads `(items, bytes)` off the result. Calls outside any
    /// timed op (set-up, untimed deletes) pass through unrecorded.
    pub fn port_call<R>(
        &self,
        ctx: &DeployCtx,
        call: PortCall,
        f: impl FnOnce() -> R,
        measure: impl FnOnce(&R) -> (u64, u64),
    ) -> R {
        let op_id = ctx.op_for(call);
        if op_id == 0 {
            return f();
        }
        let start_ns = now_ns();
        let result = f();
        let end_ns = now_ns();
        let (items, bytes) = measure(&result);
        let stat = &self.ports[call as usize];
        stat.calls.fetch_add(1, Ordering::Relaxed);
        stat.items.fetch_add(items, Ordering::Relaxed);
        stat.bytes.fetch_add(bytes, Ordering::Relaxed);
        stat.ns.fetch_add(end_ns - start_ns, Ordering::Relaxed);
        self.record(Span {
            name: call.name(),
            start_ns,
            end_ns,
            op_id,
            level: Level::Port,
        });
        result
    }

    /// Whether an assign ticket should be re-encoded for its wire size
    /// (1 in 16: at an 8192-entry history the encode is not free).
    pub fn sample_ticket(&self) -> bool {
        self.ports[PortCall::VmAssign as usize]
            .calls
            .load(Ordering::Relaxed)
            .is_multiple_of(16)
    }

    pub fn add_ticket_bytes(&self, bytes: u64) {
        self.ticket_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.ticket_samples.fetch_add(1, Ordering::Relaxed);
    }

    pub fn port(&self, call: PortCall) -> PortTotals {
        let stat = &self.ports[call as usize];
        PortTotals {
            calls: stat.calls.load(Ordering::Relaxed),
            items: stat.items.load(Ordering::Relaxed),
            bytes: stat.bytes.load(Ordering::Relaxed),
            ns: stat.ns.load(Ordering::Relaxed),
        }
    }

    /// Total time in the named phase, over all timed ops.
    pub fn phase_ns(&self, name: &str) -> u64 {
        PHASE_NAMES
            .iter()
            .position(|n| *n == name)
            .map_or(0, |i| self.phase_ns[i].load(Ordering::Relaxed))
    }

    /// `BlobClient` writes/appends or reads seen inside timed ops (for
    /// BSFS, where one op is a file of many).
    pub fn protocol_ops(&self, kind: Kind) -> u64 {
        self.protocol_ops[kind as usize].load(Ordering::Relaxed)
    }

    pub fn timed_ops(&self, kind: Kind) -> u64 {
        self.engine[kind as usize].ops.load(Ordering::Relaxed)
    }

    pub fn round_trips(&self, kind: Kind) -> u64 {
        self.engine[kind as usize]
            .round_trips
            .load(Ordering::Relaxed)
    }

    pub fn control_round_trips(&self, kind: Kind) -> u64 {
        self.engine[kind as usize]
            .control_round_trips
            .load(Ordering::Relaxed)
    }

    pub fn fanout_batches(&self) -> u64 {
        self.engine
            .iter()
            .map(|e| e.fanout_batches.load(Ordering::Relaxed))
            .sum()
    }

    /// Mean wire size of the sampled assign tickets.
    pub fn mean_ticket_bytes(&self) -> f64 {
        match self.ticket_samples.load(Ordering::Relaxed) {
            0 => 0.0,
            n => self.ticket_bytes.load(Ordering::Relaxed) as f64 / n as f64,
        }
    }

    /// Takes every recorded span out of the per-thread buffers, dropping
    /// the ops that were not recorded in full.
    pub fn drain_spans(&self) -> Vec<Span> {
        let full_until = self.full_until.load(Ordering::Relaxed);
        let mut all = Vec::new();
        for buf in self.bufs.lock().iter() {
            all.append(&mut buf.lock());
        }
        all.retain(|s| s.op_id < full_until);
        all.sort_by_key(|s| (s.op_id, s.level, s.start_ns));
        all
    }
}

impl ProtocolObserver for Trace {
    fn phase(&self, _node: NodeId, op: ProtocolOp, phase: ProtocolPhase) {
        let (op_id, phase_start) = CURRENT.get();
        if op_id == 0 {
            return;
        }
        let now = now_ns();
        if phase == ProtocolPhase::Start {
            let kind = match op {
                ProtocolOp::Read => Kind::Read,
                _ => Kind::Write,
            };
            self.protocol_ops[kind as usize].fetch_add(1, Ordering::Relaxed);
        } else if let Some(slot) = phase_slot(op, phase) {
            self.phase_ns[slot].fetch_add(now - phase_start, Ordering::Relaxed);
            self.record(Span {
                name: PHASE_NAMES[slot],
                start_ns: phase_start,
                end_ns: now,
                op_id,
                level: Level::Phase,
            });
        }
        CURRENT.set((op_id, now));
    }
}

/// Times the ops of one client. Untraced, it is an `Instant` pair; traced,
/// it also opens the root span, points the deployment's port decorators at
/// the op and folds the engine's own counter deltas into the trace.
pub struct OpTimer {
    traced: Option<(Arc<Trace>, Arc<DeployCtx>, Arc<BlobSeer>)>,
}

impl OpTimer {
    pub fn untraced() -> Self {
        Self { traced: None }
    }

    pub fn traced(trace: Arc<Trace>, ctx: Arc<DeployCtx>, sys: Arc<BlobSeer>) -> Self {
        Self {
            traced: Some((trace, ctx, sys)),
        }
    }

    /// Runs one op of `kind`; returns its result and its latency in
    /// nanoseconds. `record: false` (warm-up fills) keeps the op out of
    /// the trace.
    pub fn time<R>(&self, kind: Kind, record: bool, op: impl FnOnce() -> R) -> (R, u64) {
        let Some((trace, ctx, sys)) = self.traced.as_ref().filter(|_| record) else {
            let start_ns = now_ns();
            let result = op();
            return (result, now_ns() - start_ns);
        };
        let op_id = trace.next_op.fetch_add(1, Ordering::Relaxed);
        let before = sys.stats().snapshot();
        ctx.slot(kind).store(op_id, Ordering::Relaxed);
        CURRENT.set((op_id, 0));
        let start_ns = now_ns();
        let result = op();
        let end_ns = now_ns();
        CURRENT.set((0, 0));
        ctx.slot(kind).store(0, Ordering::Relaxed);
        trace.record(Span {
            name: kind.name(),
            start_ns,
            end_ns,
            op_id,
            level: Level::Op,
        });
        let after = sys.stats().snapshot();
        let deltas = &trace.engine[kind as usize];
        deltas.ops.fetch_add(1, Ordering::Relaxed);
        deltas.round_trips.fetch_add(
            after.port_round_trips - before.port_round_trips,
            Ordering::Relaxed,
        );
        deltas.control_round_trips.fetch_add(
            after.control_round_trips - before.control_round_trips,
            Ordering::Relaxed,
        );
        deltas.fanout_batches.fetch_add(
            after.fanout_batches - before.fanout_batches,
            Ordering::Relaxed,
        );
        (result, end_ns - start_ns)
    }
}

/// Where the time of the ops of one kind went, from the spans: a layer's
/// self time is its span minus the union of its children (fan-out calls
/// overlap, so durations are merged, not summed).
#[derive(Default, Debug)]
pub struct Budget {
    pub ops: u64,
    /// Sum of root span durations.
    pub op_ns: u64,
    /// Per phase: client time in it outside any port call.
    pub phase_self_ns: BTreeMap<&'static str, u64>,
    /// Per port method: merged time of its calls.
    pub port_ns: BTreeMap<&'static str, u64>,
    /// Merged time of all port calls.
    pub all_ports_ns: u64,
}

impl Budget {
    /// Op time outside every port call: tree build, payload slicing and
    /// assembly, stream buffering.
    pub fn self_ns(&self) -> u64 {
        self.op_ns.saturating_sub(self.all_ports_ns)
    }

    /// Op time that is neither a phase's own time nor a port call: the
    /// remainder row of the layer table.
    pub fn unaccounted_ns(&self) -> u64 {
        let phases: u64 = self.phase_self_ns.values().sum();
        self.op_ns
            .saturating_sub(phases)
            .saturating_sub(self.all_ports_ns)
    }
}

fn merged_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Budgets per op kind from spans sorted by `(op, level, start)`, as
/// [`Trace::drain_spans`] returns them.
pub fn analyze(spans: &[Span]) -> BTreeMap<&'static str, Budget> {
    let mut budgets: BTreeMap<&'static str, Budget> = BTreeMap::new();
    for op in spans.chunk_by(|a, b| a.op_id == b.op_id) {
        let Some(root) = op.iter().find(|s| s.level == Level::Op) else {
            continue;
        };
        let clip = |s: &Span| (s.start_ns.max(root.start_ns), s.end_ns.min(root.end_ns));
        let ports: Vec<&Span> = op.iter().filter(|s| s.level == Level::Port).collect();
        let budget = budgets.entry(root.name).or_default();
        budget.ops += 1;
        budget.op_ns += root.end_ns - root.start_ns;
        let mut all: Vec<(u64, u64)> = ports.iter().map(|s| clip(s)).collect();
        budget.all_ports_ns += merged_len(&mut all);
        let mut names: Vec<&'static str> = ports.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        for name in names {
            let mut own: Vec<(u64, u64)> = ports
                .iter()
                .filter(|s| s.name == name)
                .map(|s| clip(s))
                .collect();
            *budget.port_ns.entry(name).or_default() += merged_len(&mut own);
        }
        for phase in op.iter().filter(|s| s.level == Level::Phase) {
            let mut inside: Vec<(u64, u64)> = ports
                .iter()
                .filter(|s| s.start_ns >= phase.start_ns && s.start_ns < phase.end_ns)
                .map(|s| (s.start_ns, s.end_ns.min(phase.end_ns)))
                .collect();
            let own = (phase.end_ns - phase.start_ns).saturating_sub(merged_len(&mut inside));
            *budget.phase_self_ns.entry(phase.name).or_default() += own;
        }
    }
    budgets
}

/// The span file: one object per span with `name, start_ns, end_ns,
/// parent, op_id`; `parent` is the index of the enclosing span in this
/// file (the phase a port call started in, else the op's root).
pub fn spans_to_json(workload: &str, spans: &[Span]) -> String {
    let mut out = format!(
        "{{\"workload\": {}, \"spans\": [\n",
        Json::Str(workload.into()).encode()
    );
    let mut base = 0;
    let mut first = true;
    for op in spans.chunk_by(|a, b| a.op_id == b.op_id) {
        let root = op.iter().position(|s| s.level == Level::Op);
        for span in op {
            let parent = match span.level {
                Level::Op => None,
                Level::Phase => root,
                Level::Port => op
                    .iter()
                    .position(|p| {
                        p.level == Level::Phase
                            && span.start_ns >= p.start_ns
                            && span.start_ns < p.end_ns
                    })
                    .or(root),
            };
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"op_id\": {}}}",
                span.name,
                span.start_ns,
                span.end_ns,
                parent.map_or("null".to_string(), |p| (base + p).to_string()),
                span.op_id
            ));
        }
        base += op.len();
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, level: Level, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            op_id: 1,
            level,
        }
    }

    #[test]
    fn overlapping_children_are_merged_not_summed() {
        assert_eq!(merged_len(&mut [(0, 10), (5, 15), (20, 25), (21, 22)]), 20);
        // One 100 ns write: a 60 ns data phase holding two overlapping
        // 30 ns puts (40 ns merged), and a 10 ns commit phase that is one
        // 8 ns port call.
        let spans = [
            span("write", Level::Op, 0, 100),
            span("write.data", Level::Phase, 5, 65),
            span("write.commit", Level::Phase, 80, 90),
            span("block.put", Level::Port, 10, 40),
            span("block.put", Level::Port, 20, 50),
            span("vm.commit", Level::Port, 81, 89),
        ];
        let budgets = analyze(&spans);
        let b = &budgets["write"];
        assert_eq!((b.ops, b.op_ns), (1, 100));
        assert_eq!(b.port_ns["block.put"], 40);
        assert_eq!(b.all_ports_ns, 48);
        assert_eq!(b.phase_self_ns["write.data"], 20);
        assert_eq!(b.phase_self_ns["write.commit"], 2);
        assert_eq!(b.self_ns(), 52);
        assert_eq!(b.unaccounted_ns(), 30);
    }

    #[test]
    fn span_file_links_ports_to_their_phase() {
        let spans = [
            span("read", Level::Op, 0, 50),
            span("read.locate", Level::Phase, 1, 20),
            span("meta.get", Level::Port, 2, 10),
            span("vm.other", Level::Port, 30, 40),
        ];
        let parsed = Json::parse(&spans_to_json("w", &spans)).unwrap();
        let parents: Vec<Option<f64>> = parsed
            .get("spans")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|s| s.get("parent").unwrap().as_f64())
            .collect();
        assert_eq!(parents, vec![None, Some(0.0), Some(1.0), Some(0.0)]);
    }
}
