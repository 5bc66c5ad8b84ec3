//! The multi-client concurrent harness: N simulated clients drive the
//! **real** `BlobClient` protocol inside one simnet world.
//!
//! Every figure reproduction deploys through this module — the
//! single-writer figures (3a/3b) with one client thread, the paper's
//! headline *heavy-concurrency* figures with up to 250: 250 readers of
//! one file (Fig. 4) and 250 appenders to one BLOB (Fig. 5, the workload
//! HDFS cannot run). Under concurrency the serialization point must
//! *emerge* from the protocol: the version manager's FIFO queue bends the
//! Fig. 5 curve because every appender really funnels through
//! `VersionService::assign`, not because a model hand-computes a queueing
//! delay.
//!
//! The harness combines two pieces:
//!
//! * [`simnet::SimGate`] — each simulated client is a real OS thread
//!   running unmodified `client/{write,append,read}.rs` code; the gate
//!   serializes the threads onto the simulated clock and turns blocking
//!   waits (disk, RPC queue, max-min-shared flows) into simulated time.
//! * charging — the [`Charging`] hook on the in-memory block and metadata
//!   stores (through `blobseer_core::ports::Hooked`) and the
//!   [`ConcVersionService`] decorator on the version manager — attributes
//!   every call to the calling client (a thread-local set by
//!   [`ConcurrentDeployment::run_clients`]) so each client pays its own
//!   costs on its own node: block puts/gets become disk + flow time from
//!   *that client's* node, version assignment queues in the shared
//!   central [`FifoServer`], tree puts are issued in parallel from the
//!   client's metadata-phase start (§III-D), tree gets are sequential
//!   descent hops.
//!
//! Costs are charged only while [`ConcurrentDeployment::set_charging`] is
//! on: figure drivers boot their input files for free, then flip charging
//! on and release the measured clients.
//!
//! A [`PhaseRecorder`] rides on the [`blobseer_core::ProtocolObserver`]
//! port and timestamps every protocol phase boundary against the simulated
//! clock — how the drivers report *where* time goes (e.g. the growing
//! version-assignment wait that is Fig. 5's knee) without instrumenting
//! the client.
//!
//! [`HdfsDeployment`] puts `hdfs-sim`'s real namenode and datanodes on the
//! same fabric for every HDFS comparison leg (Figs. 3–6). HDFS has no
//! `BlobClient`, so the legs call the namenode and datanodes themselves
//! from gate tasks, and the deployment charges each call by one of the
//! fabric's HDFS rules (`ConcFabric::central_call`,
//! `ConcFabric::allocate_chunk`, `ConcFabric::write_block`,
//! `ConcFabric::fetch_block`) through the same disks, central queue and
//! streaming rule the BSFS legs pay.

use crate::constants::Constants;
use blobseer_core::block_store::ProviderSet;
use blobseer_core::dht::MetaDht;
use blobseer_core::meta::key::NodeKey;
use blobseer_core::meta::log::LogChain;
use blobseer_core::meta::node::TreeNode;
use blobseer_core::ports::{BlockHook, BlockStore, Hooked, MetaHook, MetaStore, VersionService};
use blobseer_core::provider_manager::ProviderManager;
use blobseer_core::{
    BlobClient, BlobSeer, EnginePorts, EngineStats, ProtocolObserver, ProtocolOp, ProtocolPhase,
    SnapshotInfo, VersionManager, WriteIntent, WriteTicket,
};
use blobseer_types::{BlobId, BlobSeerConfig, BlockId, NodeId, Result, Version};
use bytes::Bytes;
use dfs::DfsPath;
use hdfs_sim::{ChunkMeta, FileSnapshot, HdfsCluster, HdfsConfig};
use parking_lot::Mutex;
use simnet::{FifoServer, FlowNet, NicSpec, SimDuration, SimGate, SimTask, SimTime};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

thread_local! {
    /// The node of the simulated client running on this thread (set by the
    /// harness for the duration of the client's body).
    static CLIENT_NODE: Cell<Option<NodeId>> = const { Cell::new(None) };
    /// Instant the current thread's metadata phase opened (its last
    /// version assignment completed): tree-node puts are charged as issued
    /// in parallel from here (§III-D's parallel metadata phase).
    static META_PHASE_START: Cell<SimTime> = const { Cell::new(SimTime::ZERO) };
    /// Previous phase boundary seen by the [`PhaseRecorder`] on this
    /// thread.
    static LAST_PHASE: Cell<Option<(ProtocolOp, ProtocolPhase, SimTime)>> =
        const { Cell::new(None) };
    /// The top-level operation currently open on this thread, if any. An
    /// unaligned `write` performs nested boundary `read`s whose phase
    /// events must not pollute the recorder's top-level aggregates.
    static OPEN_OP: Cell<Option<ProtocolOp>> = const { Cell::new(None) };
    /// Overlap accumulator of the current data phase: `(anchor, pending)`.
    /// The real deployment fans per-provider batches out over threads; a
    /// SimGate deployment must stay thread-free (`client_io_threads =
    /// Some(1)`, the executor runs inline), so the charging adapters model
    /// the overlap instead: every batch of one phase is charged as issued
    /// from the same `anchor` instant, transfers serialize on the shared
    /// client NIC (they all leave through one card), and the phase costs
    /// `overhead + max(per-batch completions)` — the `pending` watermark —
    /// settled at the next phase boundary, not the per-batch sum.
    static OVERLAP: Cell<Option<(SimTime, SimTime)>> = const { Cell::new(None) };
}

/// The node of the simulated client on the calling thread.
fn client_node() -> NodeId {
    CLIENT_NODE
        .get()
        .expect("charged port call outside a simulated client thread")
}

/// Shared cost-model state of a concurrent deployment: the gate plus the
/// disks and queueing servers every adapter charges into. For an HDFS
/// deployment the disks are the datanodes' and the central queue is the
/// namenode's.
pub struct ConcFabric {
    gate: SimGate,
    c: Constants,
    aux: Mutex<Aux>,
}

struct Aux {
    charging: bool,
    /// Each provider's disk: a FIFO queue serving one block per request.
    write_disks: Vec<FifoServer>,
    read_disks: Vec<FifoServer>,
    /// The version manager's RPC queue — the protocol's serialization
    /// point (§III-A.4) — or HDFS's namenode queue.
    central: FifoServer,
    /// The metadata providers' RPC queues.
    meta: Vec<FifoServer>,
    meta_rr: usize,
}

impl ConcFabric {
    fn new(c: Constants, n_providers: usize, n_nodes: usize) -> Self {
        let nodes = n_nodes.max(n_providers).max(1);
        let disks = |bps: f64| {
            let block = FifoServer::new(SimDuration::from_secs_f64(c.block_bytes as f64 / bps));
            vec![block; n_providers]
        };
        Self {
            gate: SimGate::new(FlowNet::new(nodes, NicSpec::symmetric(c.nic_bps))),
            aux: Mutex::new(Aux {
                charging: false,
                write_disks: disks(c.disk_write_bps),
                read_disks: disks(c.disk_read_bps),
                central: FifoServer::new(c.vm_assign_svc),
                meta: (0..c.meta_shards.max(1))
                    .map(|_| FifoServer::new(c.meta_svc))
                    .collect(),
                meta_rr: 0,
            }),
            c,
        }
    }

    /// The virtual-time gate (for sleeps from figure-driver task bodies).
    pub fn gate(&self) -> &SimGate {
        &self.gate
    }

    /// The shared streaming rule: a disk (already submitted, draining until
    /// `disk_done`) feeds a bulk flow of one block from `src` to `dst`
    /// started now, unless the endpoints are co-located and there is no
    /// network leg. Returns when both finished. Every BSFS and HDFS block
    /// transfer charges through it, so the rule cannot drift between the
    /// system under test and its baseline.
    fn stream_end(&self, src: NodeId, dst: NodeId, disk_done: SimTime) -> SimTime {
        if src == dst {
            disk_done
        } else {
            disk_done.max(self.gate.transfer(src, dst, self.c.block_bytes))
        }
    }

    /// True when the calling port call must be charged: charging is on
    /// *and* the caller is a simulated client thread. Calls from outside
    /// (boot writers, post-run verification reads) stay free — only
    /// simulated clients pay simulated time.
    fn should_charge(&self) -> bool {
        CLIENT_NODE.get().is_some() && self.aux.lock().charging
    }

    /// Opens (or continues) the calling thread's overlapped data phase and
    /// returns its `(anchor, pending)` state. The first batch of a phase
    /// anchors it at the current instant; later batches of the same phase
    /// are charged as issued from that same anchor — the fan-out.
    fn overlap_open(&self) -> (SimTime, SimTime) {
        OVERLAP.get().unwrap_or_else(|| {
            let a = self.gate.now();
            (a, a)
        })
    }

    /// Closes the calling thread's overlapped data phase, if one is open:
    /// sleeps until its `pending` watermark — the latest per-batch
    /// completion. Every non-data charge and every protocol phase boundary
    /// settles first, so the overlap never leaks across phases.
    fn settle_overlap(&self) {
        if let Some((_, pending)) = OVERLAP.take() {
            self.gate.sleep_until(pending);
        }
    }

    /// Data phase of a batch of `n` blocks bound for one provider
    /// (§III-D step 1): client-side cache-flush overhead and *one*
    /// request round trip for the whole *phase* (all batches are issued
    /// from the same anchor by the fan-out executor), then the blocks
    /// stream back-to-back through the shared client NIC, each paying its
    /// own disk, flow and per-block provider service. Disk drain and
    /// service tails of different providers overlap: only the phase-wide
    /// maximum is settled. Co-located clients skip the network. (A phase
    /// of one single-block batch charges exactly what the old per-block
    /// put charged, so single-block figure legs are unchanged.)
    fn charge_block_put(&self, provider: usize, n: usize) {
        if n == 0 {
            return;
        }
        let node = client_node();
        let pnode = NodeId::new(provider as u64);
        let (anchor, mut pending) = self.overlap_open();
        let t0 = anchor + self.c.bsfs_block_overhead + self.c.rtt();
        self.gate.sleep_until(t0); // a no-op once the clock passed it
        for _ in 0..n {
            let disk_done = self.aux.lock().write_disks[provider].submit(self.gate.now());
            pending = pending.max(self.stream_end(node, pnode, disk_done) + self.c.provider_svc);
        }
        OVERLAP.set(Some((anchor, pending)));
    }

    /// A batch of `n` block fetches from one provider (§III-C): the
    /// provider's disk serves queued reads in order while each flow
    /// streams back to the client through its shared NIC; the client-side
    /// read loop overhead tops the phase off via the overlap watermark.
    /// Batches of one fetch phase are charged as issued concurrently (the
    /// fan-out executor), so disks of different providers drain in
    /// parallel and only the latest completion is settled. Co-located
    /// readers skip the network — the locality the grep scheduler
    /// exploits (§IV-C).
    fn charge_block_get(&self, provider: usize, n: usize) {
        let node = client_node();
        let pnode = NodeId::new(provider as u64);
        let (anchor, mut pending) = self.overlap_open();
        for _ in 0..n {
            let disk_done = self.aux.lock().read_disks[provider].submit(self.gate.now());
            pending =
                pending.max(self.stream_end(pnode, node, disk_done) + self.c.bsfs_read_overhead);
        }
        OVERLAP.set(Some((anchor, pending)));
    }

    /// Version assignment: a queued RPC to the version manager — the only
    /// serialized step, and under N concurrent writers the queueing here
    /// is the knee of Fig. 5. Opens the caller's metadata phase.
    fn charge_assign(&self) {
        self.settle_overlap();
        META_PHASE_START.set(self.central_call(self.c.vm_assign_svc));
    }

    /// A read-side version-manager lookup (`latest`): same queue, cheaper
    /// service.
    fn charge_lookup(&self) {
        self.settle_overlap();
        self.central_call(self.c.vm_lookup_svc);
    }

    /// A batch of `n` tree-node puts, all charged as issued at the
    /// caller's metadata-phase start and spread round-robin over the
    /// metadata providers — §III-D's parallel metadata phase. Because
    /// every put of a version is issued from the same instant regardless
    /// of grouping, charging a level-sized batch costs exactly what the
    /// old per-node charging did: the caller ends at the latest
    /// completion.
    fn charge_meta_put(&self, n: usize) {
        self.settle_overlap();
        self.meta_batch(META_PHASE_START.get().max(SimTime::ZERO), n);
    }

    /// A batch of `n` tree-node gets — one level of a root-to-leaf
    /// descent. Hops between levels stay sequential (a child reference is
    /// only known once its parent arrived), but the siblings of one level
    /// are fetched concurrently: one request hop, per-item queued service,
    /// the caller resumes at the latest completion. This is where the
    /// vectored API flattens metadata latency under fan-out.
    fn charge_meta_get(&self, n: usize) {
        self.settle_overlap();
        self.meta_batch(self.gate.now(), n);
    }

    /// `n` tree-node requests issued at `start`, round-robin over the
    /// metadata providers; blocks until the latest response.
    fn meta_batch(&self, start: SimTime, n: usize) {
        let mut latest = start;
        {
            let mut aux = self.aux.lock();
            for _ in 0..n {
                let shard = aux.meta_rr % aux.meta.len();
                aux.meta_rr += 1;
                let done = aux.meta[shard].submit(start + self.c.latency) + self.c.latency;
                latest = latest.max(done);
            }
        }
        self.gate.sleep_until(latest);
    }

    /// Commit notification to the version manager.
    fn charge_commit(&self) {
        self.settle_overlap();
        self.gate.sleep(self.c.rtt());
    }

    // The HDFS rules below charge unconditionally: [`HdfsDeployment`]
    // calls them from the HDFS legs' own gate tasks, around the calls they
    // measure.

    /// One small RPC to the central service: request latency, queued
    /// service of `svc`, response latency; blocks until the response and
    /// returns its instant.
    fn central_call(&self, svc: SimDuration) -> SimTime {
        let at = self.gate.now() + self.c.latency;
        let done = self.aux.lock().central.submit_with(at, svc);
        self.gate.sleep_until(done + self.c.latency)
    }

    /// The namenode's allocation of chunk `k` (0-based) of a file being
    /// written: 0.20's OP_ADD rewrites the file's whole block list into the
    /// synchronously-fsynced edit log, so the service time grows with `k`.
    /// Blocks until the response.
    fn allocate_chunk(&self, k: u64) {
        let c = &self.c;
        let blocklist = SimDuration::from_nanos(c.nn_blocklist_per_chunk.as_nanos() * k);
        self.central_call(c.nn_svc + c.nn_editlog_fsync + blocklist);
    }

    /// Writes one modeled 64 MB block from node `src` to the disk of node
    /// `host` by the streaming rule, then `overhead` tops it off.
    fn write_block(&self, src: NodeId, host: usize, overhead: SimDuration) {
        let disk_done = self.aux.lock().write_disks[host].submit(self.gate.now());
        let end = self.stream_end(src, NodeId::new(host as u64), disk_done);
        self.gate.sleep_until(end + overhead);
    }

    /// Fetches one modeled 64 MB block stored on node `host` to node `me`
    /// by the streaming rule, then `overhead` tops it off.
    fn fetch_block(&self, host: usize, me: NodeId, overhead: SimDuration) {
        let disk_done = self.aux.lock().read_disks[host].submit(self.gate.now());
        let end = self.stream_end(NodeId::new(host as u64), me, disk_done);
        self.gate.sleep_until(end + overhead);
    }
}

/// The charging hook on the in-memory stores: each block put/get is
/// charged as a modeled 64 MB transfer from/to the calling client's node,
/// tree-node puts as the parallel metadata phase, gets as sequential
/// descent hops. The cost model counts `put_many` calls, so the hook keeps
/// the level-by-level `put_levels` and `fanout_shard` 0.
pub struct Charging(Arc<ConcFabric>);

impl BlockHook for Charging {
    fn put_many(
        &self,
        inner: &dyn BlockStore,
        provider: usize,
        items: &[(BlockId, Bytes)],
    ) -> Vec<Result<()>> {
        if self.0.should_charge() {
            self.0.charge_block_put(provider, items.len());
        }
        inner.put_many(provider, items)
    }
    fn get_many(
        &self,
        inner: &dyn BlockStore,
        provider: usize,
        ids: &[BlockId],
    ) -> Vec<Result<Bytes>> {
        if self.0.should_charge() {
            self.0.charge_block_get(provider, ids.len());
        }
        inner.get_many(provider, ids)
    }
}

impl MetaHook for Charging {
    fn put_many(&self, inner: &dyn MetaStore, items: &[(NodeKey, TreeNode)]) -> Vec<Result<()>> {
        if self.0.should_charge() {
            self.0.charge_meta_put(items.len());
        }
        inner.put_many(items)
    }
    fn get_many(&self, inner: &dyn MetaStore, keys: &[NodeKey]) -> Vec<Result<TreeNode>> {
        if self.0.should_charge() {
            self.0.charge_meta_get(keys.len());
        }
        inner.get_many(keys)
    }
}

/// [`VersionService`] adapter: the real version manager, with assignments
/// charged through the central FIFO queue (the serialization point whose
/// contention Fig. 5 measures), lookups through the same queue, and
/// commits as a round-trip.
pub struct ConcVersionService {
    inner: VersionManager,
    fabric: Arc<ConcFabric>,
}

impl VersionService for ConcVersionService {
    fn block_size(&self) -> u64 {
        self.inner.block_size()
    }
    fn create_blob(&self) -> Result<BlobId> {
        Ok(self.inner.create_blob())
    }
    fn branch(&self, parent: BlobId, at: Version) -> Result<BlobId> {
        self.inner.branch(parent, at)
    }
    fn assign(&self, blob: BlobId, intent: WriteIntent) -> Result<WriteTicket> {
        let ticket = self.inner.assign(blob, intent)?;
        if self.fabric.should_charge() {
            self.fabric.charge_assign();
        }
        Ok(ticket)
    }
    fn commit(&self, blob: BlobId, version: Version) -> Result<()> {
        self.inner.commit(blob, version)?;
        if self.fabric.should_charge() {
            self.fabric.charge_commit();
        }
        Ok(())
    }
    fn latest(&self, blob: BlobId) -> Result<(Version, u64)> {
        let r = self.inner.latest(blob)?;
        if self.fabric.should_charge() {
            self.fabric.charge_lookup();
        }
        Ok(r)
    }
    fn snapshot_info(&self, blob: BlobId, version: Version) -> Result<SnapshotInfo> {
        self.inner.snapshot_info(blob, version)
    }
    fn chain(&self, blob: BlobId) -> Result<LogChain> {
        self.inner.chain(blob)
    }
    fn wait_revealed(&self, blob: BlobId, version: Version, timeout: Duration) -> Result<()> {
        self.inner.wait_revealed(blob, version, timeout)
    }
    fn pending_versions(&self, blob: BlobId) -> Result<Vec<Version>> {
        self.inner.pending_versions(blob)
    }
    fn delete_blob(&self, blob: BlobId) -> Result<Vec<NodeKey>> {
        self.inner.delete_blob(blob)
    }
    fn collect_before(&self, blob: BlobId, keep_from: Version) -> Result<Vec<NodeKey>> {
        self.inner.collect_before(blob, keep_from)
    }
}

// --- phase observability -----------------------------------------------------

/// Accumulated simulated time between consecutive protocol phase
/// boundaries, keyed by the phase that *ended* the span.
#[derive(Default)]
pub struct PhaseBreakdown {
    spans: HashMap<(ProtocolOp, ProtocolPhase), (SimDuration, u64)>,
}

impl PhaseBreakdown {
    /// Mean simulated time spent reaching `phase` of `op` from the
    /// preceding boundary (e.g. `(Append, VersionAssigned)` = data-done →
    /// assignment-granted: the version manager's queueing plus service).
    pub fn mean(&self, op: ProtocolOp, phase: ProtocolPhase) -> SimDuration {
        match self.spans.get(&(op, phase)) {
            Some(&(total, n)) if n > 0 => SimDuration::from_nanos(total.as_nanos() / n),
            _ => SimDuration::ZERO,
        }
    }

    /// Number of spans recorded ending at `phase` of `op`.
    pub fn count(&self, op: ProtocolOp, phase: ProtocolPhase) -> u64 {
        self.spans.get(&(op, phase)).map(|&(_, n)| n).unwrap_or(0)
    }
}

/// [`ProtocolObserver`] adapter: timestamps every phase boundary against
/// the simulated clock, per thread, while charging is on.
pub struct PhaseRecorder {
    fabric: Arc<ConcFabric>,
    agg: Mutex<PhaseBreakdown>,
}

impl PhaseRecorder {
    /// A snapshot of the breakdown accumulated so far.
    pub fn breakdown(&self) -> PhaseBreakdown {
        PhaseBreakdown {
            spans: self.agg.lock().spans.clone(),
        }
    }
}

impl ProtocolObserver for PhaseRecorder {
    fn phase(&self, _node: NodeId, op: ProtocolOp, phase: ProtocolPhase) {
        if !self.fabric.should_charge() {
            return;
        }
        // A phase boundary ends any overlapped data phase: the recorded
        // timestamp must include the batches still pending on the overlap
        // watermark (and the next phase must not inherit them).
        self.fabric.settle_overlap();
        // Only the top-level operation on this thread is recorded. The
        // single genuine nesting in the protocol is a write/append's
        // boundary-merge reads (`merge_boundaries` → `self.read`), so a
        // Read starting while a Write/Append is open is nested and
        // ignored wholesale. Any other op change at a Start means the
        // previous op errored out mid-protocol (no terminal phase ever
        // arrived): restart cleanly on the new op. Known limitation: a
        // top-level Read right after an *errored* Write/Append on the
        // same thread is indistinguishable from a nested read and goes
        // unrecorded — an undercount, never wrong data.
        match OPEN_OP.get() {
            Some(open) if op == ProtocolOp::Read && open != ProtocolOp::Read => return,
            Some(open) if open != op && phase != ProtocolPhase::Start => return,
            None if phase != ProtocolPhase::Start => return,
            _ => {}
        }
        let now = self.fabric.gate.now();
        if phase == ProtocolPhase::Start {
            // Opens the span — or restarts it after an errored attempt.
            OPEN_OP.set(Some(op));
            LAST_PHASE.set(Some((op, phase, now)));
            return;
        }
        let prev = LAST_PHASE.replace(Some((op, phase, now)));
        if let Some((prev_op, _, prev_at)) = prev {
            if prev_op == op {
                let mut agg = self.agg.lock();
                let slot = agg.spans.entry((op, phase)).or_default();
                slot.0 += now - prev_at;
                slot.1 += 1;
            }
        }
        let closes = matches!(
            (op, phase),
            (ProtocolOp::Read, ProtocolPhase::Done)
                | (
                    ProtocolOp::Write | ProtocolOp::Append,
                    ProtocolPhase::Committed
                )
        );
        if closes {
            OPEN_OP.set(None);
        }
    }
}

// --- deployment ---------------------------------------------------------------

/// A full concurrent deployment: the real engine wired to the charging
/// adapters, a gate to interleave client threads, and a phase recorder.
pub struct ConcurrentDeployment {
    /// The deployment; obtain clients with `sys.client(..)` (uncharged
    /// boot work) or through [`Self::run_clients`] (charged, simulated).
    pub sys: Arc<BlobSeer>,
    /// The shared cost-model state.
    pub fabric: Arc<ConcFabric>,
    /// Per-phase simulated-time breakdown (populated while charging).
    pub phases: Arc<PhaseRecorder>,
}

/// Deploys the real engine over the concurrent charging adapters.
///
/// * `n_providers` data providers are hosted on nodes `0..n_providers`.
/// * `n_nodes` sizes the simulated network (clients may run on any node
///   below it, including provider nodes — that is what makes co-located
///   reads local).
/// * `real_block_size` is the engine's actual block size; every block is
///   *charged* as the paper's 64 MB regardless, so keep it small.
pub fn deploy(
    c: &Constants,
    n_providers: usize,
    n_nodes: usize,
    real_block_size: u64,
) -> ConcurrentDeployment {
    let fabric = Arc::new(ConcFabric::new(c.clone(), n_providers, n_nodes));
    let phases = Arc::new(PhaseRecorder {
        fabric: Arc::clone(&fabric),
        agg: Mutex::new(PhaseBreakdown::default()),
    });
    let cfg = BlobSeerConfig {
        block_size: real_block_size,
        replication: 1,
        metadata_providers: c.meta_shards.max(1),
        metadata_replication: 1,
        // The unaligned-append slow path and a closing BSFS stream both
        // wait on a *real* condvar for a reveal — but under the gate the
        // committing peer is parked and can never run while this thread
        // holds the turn, so such a wait can only ever time out. Fail fast
        // instead of stalling the whole simulation for the 30 s defaults.
        // (All figure workloads are block-aligned and reveal before close,
        // so neither path is taken.)
        unaligned_append_timeout: Duration::from_millis(50),
        close_reveal_timeout: Duration::from_millis(50),
        // The gate serializes simulated threads; an OS thread pool would
        // run uncharged (its workers never set `CLIENT_NODE`) and deadlock
        // the turn-taking. Inline execution + the charging adapters'
        // overlap watermark model the fan-out instead.
        client_io_threads: Some(1),
        ..BlobSeerConfig::small_for_tests()
    };
    let stats = Arc::new(EngineStats::new());
    let blocks: Arc<dyn BlockStore> =
        Arc::new(ProviderSet::new(n_providers, |i| NodeId::new(i as u64)));
    let dht: Arc<dyn MetaStore> = Arc::new(MetaDht::new(
        cfg.metadata_providers,
        cfg.metadata_replication,
    ));
    let ports = EnginePorts {
        providers: Arc::new(Hooked::new(blocks, Charging(Arc::clone(&fabric)))),
        dht: Arc::new(Hooked::new(dht, Charging(Arc::clone(&fabric)))),
        vm: Arc::new(ConcVersionService {
            inner: VersionManager::new(real_block_size, Arc::clone(&stats)),
            fabric: Arc::clone(&fabric),
        }),
        pm: Arc::new(ProviderManager::new(n_providers)),
        gc: None,
        stats,
        observer: Arc::clone(&phases) as Arc<dyn ProtocolObserver>,
    };
    ConcurrentDeployment {
        sys: BlobSeer::deploy_ports(cfg, ports),
        fabric,
        phases,
    }
}

/// Per-client throughput rates in MB/s from recorded per-client durations
/// of one modeled transfer of `modeled_bytes` each — the paper's
/// measurement rule ("individual throughput is collected and is then
/// averaged", §V-C) in one place for every figure (Fig. 4 averages these
/// rates, Fig. 5 sums them).
///
/// # Panics
/// Panics if any client never recorded a duration (it did not finish).
pub fn client_mbps(modeled_bytes: u64, durations: &[Option<SimDuration>]) -> Vec<f64> {
    let mb = modeled_bytes as f64 / (1024.0 * 1024.0);
    durations
        .iter()
        .map(|d| mb / d.expect("simulated client finished").as_secs_f64())
        .collect()
}

/// One simulated client for [`ConcurrentDeployment::run_clients`]: the
/// node it runs on and its body.
pub type ClientTask<'env> = (NodeId, Box<dyn FnOnce(BlobClient) + Send + 'env>);

impl ConcurrentDeployment {
    /// Turns cost charging on/off. Boot phases (writing the input file a
    /// figure measures reads of) run uncharged; measurements run charged.
    pub fn set_charging(&self, on: bool) {
        self.fabric.aux.lock().charging = on;
    }

    /// Current simulated instant.
    pub fn now(&self) -> SimTime {
        self.fabric.gate.now()
    }

    /// Runs one simulated client per entry, all admitted at the current
    /// simulated instant, interleaved deterministically on the gate. Each
    /// body receives a [`BlobClient`] bound to its node and may use
    /// [`ConcFabric::gate`] for explicit sleeps (compute time, staggers).
    pub fn run_clients<'env>(&'env self, clients: Vec<ClientTask<'env>>) {
        let tasks: Vec<SimTask<'env>> = clients
            .into_iter()
            .map(|(node, body)| {
                let sys = &self.sys;
                Box::new(move || {
                    CLIENT_NODE.set(Some(node));
                    LAST_PHASE.set(None);
                    OPEN_OP.set(None);
                    META_PHASE_START.set(SimTime::ZERO);
                    OVERLAP.set(None);
                    body(sys.client(node));
                    OVERLAP.set(None);
                    CLIENT_NODE.set(None);
                }) as SimTask<'env>
            })
            .collect();
        self.fabric.gate.run(tasks);
    }
}

// --- the HDFS baseline -------------------------------------------------------

/// `hdfs-sim`'s real namenode and datanodes, charged through a
/// [`ConcFabric`]: every HDFS comparison leg. The cluster stores real
/// chunks of a few hundred bytes; the fabric charges each as the paper's
/// 64 MB.
pub struct HdfsDeployment {
    /// The cluster; datanode `i` runs on node `i`.
    pub cluster: Arc<HdfsCluster>,
    /// The shared cost-model state.
    pub fabric: Arc<ConcFabric>,
    /// The first node past the datanodes: where boot writes come from.
    remote: NodeId,
}

/// Deploys `hdfs-sim` with datanodes on nodes `0..n_datanodes` of an
/// `n_nodes`-node fabric, its namenode placing from `seed`.
/// `cfg.chunk_size` is the real chunk size.
pub fn deploy_hdfs(
    c: &Constants,
    cfg: HdfsConfig,
    n_datanodes: usize,
    n_nodes: usize,
    seed: u64,
) -> HdfsDeployment {
    HdfsDeployment {
        cluster: HdfsCluster::new_seeded(cfg, n_datanodes, seed),
        fabric: Arc::new(ConcFabric::new(c.clone(), n_datanodes, n_nodes)),
        remote: NodeId::new(n_datanodes as u64),
    }
}

impl HdfsDeployment {
    /// Writes `data` to `path` through the real client on a node with no
    /// datanode, uncharged (a figure's boot input), and returns the file's
    /// layout as the namenode placed it.
    pub fn boot(&self, path: &str, data: &[u8]) -> FileSnapshot {
        let fs = self.cluster.mount(self.remote);
        dfs::util::write_file(&fs, path, data).expect("boot write");
        self.layout(path)
    }

    /// A writer on node `src` creates `path` and writes `n` chunks to it,
    /// each after `work` of its own (pipeline setup, text generation). Per
    /// chunk, the namenode's `add_chunk` (local-first when `src` hosts a
    /// datanode) is charged as `ConcFabric::allocate_chunk` of the chunks
    /// already in the file, and the target datanode's `put` as
    /// `ConcFabric::write_block` topped off by `overhead`. `create` and
    /// `complete` are uncharged, like BSFS's `create_blob`.
    pub fn write(&self, path: &str, src: NodeId, n: u64, work: SimDuration, overhead: SimDuration) {
        let nn = self.cluster.namenode();
        let path = DfsPath::parse(path).expect("figure paths are absolute");
        let (lease, _) = nn.create(&path, false).expect("one writer per path");
        let local = (src < self.remote).then_some(src.raw() as usize);
        let chunk = Bytes::from(vec![0; nn.config().chunk_size as usize]);
        let len = chunk.len() as u32;
        for k in 0..n {
            self.fabric.gate.sleep(work);
            let (id, dns) = nn.add_chunk(&path, lease, len, local).expect("lease held");
            self.fabric.allocate_chunk(k);
            let dn = self.cluster.datanode(dns[0]);
            dn.put(id, chunk.clone()).expect("fresh chunk id");
            self.fabric.write_block(src, dns[0], overhead);
        }
        nn.complete(&path, lease).expect("lease held");
    }

    /// The namenode's layout of `path`, uncharged.
    fn layout(&self, path: &str) -> FileSnapshot {
        let path = DfsPath::parse(path).expect("figure paths are absolute");
        let nn = self.cluster.namenode();
        nn.file_snapshot(&path).expect("a written file")
    }

    /// The namenode's layout of `path`, charged as one
    /// `ConcFabric::central_call`.
    pub fn snapshot(&self, path: &str) -> FileSnapshot {
        let snap = self.layout(path);
        self.fabric.central_call(self.fabric.c.nn_svc);
        snap
    }

    /// Reads `chunk` from its datanode to node `me`, charged as
    /// `ConcFabric::fetch_block`.
    pub fn fetch(&self, chunk: &ChunkMeta, me: NodeId, overhead: SimDuration) -> Bytes {
        let host = chunk.datanodes[0];
        let data = self.cluster.datanode(host).get(chunk.id);
        self.fabric.fetch_block(host, me, overhead);
        data.expect("a stored chunk")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(n_providers: usize, n_clients: usize, block: u64) -> ConcurrentDeployment {
        deploy(
            &Constants::default(),
            n_providers,
            n_providers.max(n_clients),
            block,
        )
    }

    #[test]
    fn sixteen_concurrent_appenders_get_distinct_consecutive_versions() {
        let dep = small(8, 16, 256);
        let boot = dep.sys.client(NodeId::new(0));
        let blob = boot.create();
        dep.set_charging(true);
        let results = Mutex::new(Vec::new());
        let clients: Vec<ClientTask<'_>> = (0..16u64)
            .map(|i| {
                let results = &results;
                (
                    NodeId::new(i % 8),
                    Box::new(move |cl: BlobClient| {
                        let (offset, version) = cl.append(blob, &[i as u8; 256]).unwrap();
                        results.lock().push((i, offset, version.raw()));
                    }) as Box<dyn FnOnce(BlobClient) + Send>,
                )
            })
            .collect();
        dep.run_clients(clients);
        let mut results = results.into_inner();
        results.sort_by_key(|&(_, _, v)| v);
        // 16 distinct, consecutive versions with offsets matching rank.
        let versions: Vec<u64> = results.iter().map(|&(_, _, v)| v).collect();
        assert_eq!(versions, (1..=16).collect::<Vec<_>>());
        let offsets: Vec<u64> = results.iter().map(|&(_, o, _)| o).collect();
        assert_eq!(offsets, (0..16).map(|k| k * 256).collect::<Vec<_>>());
        // The final BLOB is fully readable, every append exactly once.
        let (v, size) = boot.latest(blob).unwrap();
        assert_eq!((v.raw(), size), (16, 16 * 256));
        let data = boot.read(blob, None, 0, size).unwrap();
        let mut seen = std::collections::HashSet::new();
        for chunk in data.chunks(256) {
            assert!(chunk.iter().all(|&b| b == chunk[0]), "torn append");
            assert!(seen.insert(chunk[0]), "duplicate append");
        }
        assert_eq!(seen.len(), 16);
        // And simulated time passed: at least one serialized VM queue.
        assert!(dep.now() > SimTime::ZERO);
    }

    #[test]
    fn concurrent_readers_see_one_consistent_snapshot() {
        let dep = small(8, 16, 128);
        let boot = dep.sys.client(NodeId::new(0));
        let blob = boot.create();
        for i in 0..16u8 {
            boot.append(blob, &[i; 128]).unwrap();
        }
        dep.set_charging(true);
        let reads = Mutex::new(Vec::new());
        let clients: Vec<ClientTask<'_>> = (0..16u64)
            .map(|i| {
                let reads = &reads;
                (
                    NodeId::new(i % 8),
                    Box::new(move |cl: BlobClient| {
                        // Every reader sees the same revealed snapshot…
                        let (v, size) = cl.latest(blob).unwrap();
                        // …and its chunk holds exactly the booted bytes.
                        let data = cl.read(blob, Some(v), i * 128, 128).unwrap();
                        reads.lock().push((i, v.raw(), size, data[0]));
                    }) as Box<dyn FnOnce(BlobClient) + Send>,
                )
            })
            .collect();
        dep.run_clients(clients);
        let reads = reads.into_inner();
        assert_eq!(reads.len(), 16);
        for &(i, v, size, byte) in &reads {
            assert_eq!(v, 16, "reader {i} sees the latest snapshot");
            assert_eq!(size, 16 * 128);
            assert_eq!(byte as u64, i, "reader {i} got its own chunk");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let dep = small(8, 12, 64);
            let boot = dep.sys.client(NodeId::new(0));
            let blob = boot.create();
            dep.set_charging(true);
            let ends = Mutex::new(Vec::new());
            let clients: Vec<ClientTask<'_>> = (0..12u64)
                .map(|i| {
                    let (ends, fabric) = (&ends, &dep.fabric);
                    (
                        NodeId::new(i % 8),
                        Box::new(move |cl: BlobClient| {
                            cl.append(blob, &[1u8; 64]).unwrap();
                            ends.lock().push((i, fabric.gate().now().as_nanos()));
                        }) as Box<dyn FnOnce(BlobClient) + Send>,
                    )
                })
                .collect();
            dep.run_clients(clients);
            (
                ends.into_inner(),
                dep.now().as_nanos(),
                dep.sys.layout_vector(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn charging_gates_the_cost_model() {
        let dep = small(4, 4, 64);
        let boot = dep.sys.client(NodeId::new(0));
        let blob = boot.create();
        // Uncharged boot: engine state advances, the clock does not.
        for _ in 0..4 {
            boot.append(blob, &[9u8; 64]).unwrap();
        }
        assert_eq!(dep.now(), SimTime::ZERO);
        assert_eq!(dep.sys.providers().total_block_count(), 4);
        // Charged run: one append must cost at least a 64 MB disk write.
        dep.set_charging(true);
        let clients: Vec<ClientTask<'_>> = vec![(
            NodeId::new(1),
            Box::new(move |cl: BlobClient| {
                cl.append(blob, &[7u8; 64]).unwrap();
            }),
        )];
        dep.run_clients(clients);
        let floor = Constants::default().block_bytes as f64 / Constants::default().disk_write_bps;
        assert!(
            dep.now().as_secs_f64() > floor,
            "clock {} must exceed the disk floor {floor:.2}s",
            dep.now()
        );
    }

    #[test]
    fn phase_recorder_ignores_nested_boundary_reads() {
        // An unaligned write performs nested boundary reads through the
        // public read path; the recorder must attribute the whole span to
        // the Write and record no top-level Read.
        let dep = small(4, 1, 64);
        let boot = dep.sys.client(NodeId::new(0));
        let blob = boot.create();
        boot.append(blob, &[1u8; 128]).unwrap();
        dep.set_charging(true);
        let clients: Vec<ClientTask<'_>> = vec![(
            NodeId::new(1),
            Box::new(move |cl: BlobClient| {
                cl.write(blob, 10, &[9u8; 50]).unwrap(); // unaligned
            }),
        )];
        dep.run_clients(clients);
        let b = dep.phases.breakdown();
        assert_eq!(b.count(ProtocolOp::Write, ProtocolPhase::Committed), 1);
        assert_eq!(
            b.count(ProtocolOp::Read, ProtocolPhase::Done),
            0,
            "nested merge reads must not pollute the Read aggregates"
        );
    }

    /// Runs `body` once per task on a fresh two-node fabric and returns
    /// each task's finishing instant in nanoseconds.
    fn baseline_ends(tasks: usize, body: impl Fn(&ConcFabric) + Sync) -> Vec<u64> {
        let w = ConcFabric::new(Constants::default(), 2, 2);
        let ends = Mutex::new(vec![0; tasks]);
        let run: Vec<SimTask<'_>> = (0..tasks)
            .map(|i| {
                let (w, ends, body) = (&w, &ends, &body);
                Box::new(move || {
                    body(w);
                    ends.lock()[i] = w.gate.now().as_nanos();
                }) as SimTask<'_>
            })
            .collect();
        w.gate.run(run);
        ends.into_inner()
    }

    #[test]
    fn baseline_central_call_serializes() {
        // Two callers at the same instant: the second queues behind the
        // first, so it pays one extra service time.
        let lat = Constants::default().latency.as_nanos();
        let ends = baseline_ends(2, |w| {
            w.central_call(SimDuration::from_millis(2));
        });
        assert_eq!(ends[0], lat + 2_000_000 + lat);
        assert_eq!(ends[1], ends[0] + 2_000_000);
    }

    #[test]
    fn baseline_allocation_grows_with_the_block_list() {
        let c = Constants::default();
        let ends = baseline_ends(1, |w| w.allocate_chunk(0));
        let later = baseline_ends(1, |w| w.allocate_chunk(10));
        assert_eq!(
            later[0] - ends[0],
            10 * c.nn_blocklist_per_chunk.as_nanos(),
            "each chunk already in the file adds one block-list entry"
        );
    }

    #[test]
    fn baseline_write_block_streams_only_when_remote() {
        // Co-located: the disk alone. Remote: the disk drains while the
        // flow streams, so the slower of the two sets the pace.
        let c = Constants::default();
        let local = baseline_ends(1, |w| {
            w.write_block(NodeId::new(0), 0, SimDuration::ZERO);
            assert_eq!(w.gate.flow_stats(), (0, 0), "no network leg");
        });
        let remote = baseline_ends(1, |w| {
            w.write_block(NodeId::new(1), 0, SimDuration::ZERO);
            assert_eq!(w.gate.flow_stats(), (1, 1));
        });
        let secs = |bps: f64| c.block_bytes as f64 / bps;
        let disk = local[0] as f64 / 1e9;
        assert!((disk - secs(c.disk_write_bps)).abs() < 1e-6, "{disk}");
        let both = remote[0] as f64 / 1e9;
        let floor = secs(c.disk_write_bps).max(secs(c.nic_bps));
        assert!((both - floor).abs() < 1e-6, "{both} vs {floor}");
    }

    #[test]
    fn hdfs_legs_keep_their_pinned_points() {
        // `f64::to_bits` of one small point per HDFS leg, as the legs
        // produced it when they still placed chunks and composed costs in
        // the figure code: running on hdfs-sim moves no bit.
        use crate::topology::Backend::Hdfs;
        use crate::{fig3a, fig3b, fig4, fig6};
        let c = Constants::default();
        let legs = [
            (
                "3a",
                fig3a::throughput_mbps(&c, Hdfs, 16, 1),
                0x4045_55b5_5ef0_07e2,
            ),
            (
                "3b",
                fig3b::hdfs_unbalance_of(HdfsConfig::default(), 16, 269, 1),
                0x403f_67bb_7ac4_0b2e,
            ),
            (
                "4",
                fig4::avg_client_mbps(&c, Hdfs, 25, 1),
                0x4036_4188_619a_75a3,
            ),
            (
                "6a",
                fig6::rtw_job_secs(&c, Hdfs, 5, 10 * c.block_bytes),
                0x4037_ac2b_1560_1720,
            ),
            (
                "6b",
                fig6::grep_job(&c, Hdfs, 20, 1).secs,
                0x403f_e6b5_0b0f_27bb,
            ),
        ];
        for (fig, got, bits) in legs {
            assert_eq!(got.to_bits(), bits, "fig {fig}: {got}");
        }
    }

    #[test]
    fn phase_recorder_attributes_the_serialized_step() {
        let dep = small(8, 8, 64);
        let boot = dep.sys.client(NodeId::new(0));
        let blob = boot.create();
        dep.set_charging(true);
        let clients: Vec<ClientTask<'_>> = (0..8u64)
            .map(|i| {
                (
                    NodeId::new(i),
                    Box::new(move |cl: BlobClient| {
                        cl.append(blob, &[i as u8; 64]).unwrap();
                    }) as Box<dyn FnOnce(BlobClient) + Send>,
                )
            })
            .collect();
        dep.run_clients(clients);
        let b = dep.phases.breakdown();
        assert_eq!(b.count(ProtocolOp::Append, ProtocolPhase::Committed), 8);
        // 8 simultaneous assign requests: the mean wait must exceed the
        // bare service time — the queueing is real.
        let c = Constants::default();
        let mean_assign = b.mean(ProtocolOp::Append, ProtocolPhase::VersionAssigned);
        assert!(
            mean_assign > c.vm_assign_svc,
            "assignment wait {mean_assign} must show queueing over {:?}",
            c.vm_assign_svc
        );
    }
}
