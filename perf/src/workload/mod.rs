//! The four workloads. Each is a closed loop: a client thread issues its
//! next op only when the previous one has completed.
//!
//! A run is: set up (timed, several times where it is short, the last one
//! kept), a write phase and a read phase that each measure for a share of
//! `--seconds` in [`ROUNDS`] rounds, output checks outside the op timers,
//! tear down. Throughput is verified payload over the wall time of a round
//! — the untimed bookkeeping between ops (stamping, checking, ring
//! deletes) is part of that wall time, as it is for any caller that must
//! bound its storage — and latency is the op alone.

mod append_log;
mod bsfs_mixed;
mod bulk;

use crate::stats::median;
use crate::trace::Trace;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything a smoke run shrinks. Block sizes are not here: they are what
/// the workloads are about.
#[derive(Clone, Debug)]
pub struct Sizes {
    /// Blocks per bulk BLOB (64 KiB each).
    pub bulk_blob_blocks: usize,
    /// Live BLOBs per client in the bulk workloads; also the warm-up fill.
    pub bulk_ring: usize,
    /// Versions the shared append-log BLOB holds before the timed appends.
    pub log_history: u64,
    /// Bytes per BSFS file.
    pub file_bytes: usize,
    /// Closed files kept for the BSFS reader; also the warm-up fill.
    pub file_ring: usize,
    /// Times a short set-up is repeated (the median is reported).
    pub setup_reps: usize,
}

impl Sizes {
    pub fn full() -> Self {
        Self {
            bulk_blob_blocks: 64,
            bulk_ring: 64,
            log_history: 8192,
            file_bytes: 16 << 20,
            file_ring: 8,
            setup_reps: 3,
        }
    }

    /// Tiny sizes for `--smoke` and the tests: every code path, no load.
    pub fn smoke() -> Self {
        Self {
            bulk_blob_blocks: 8,
            bulk_ring: 4,
            log_history: 64,
            file_bytes: 256 << 10,
            file_ring: 3,
            setup_reps: 2,
        }
    }
}

pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: Option<Arc<Trace>>,
    pub sizes: Sizes,
    /// Test hook: corrupt one byte of the first output checked.
    pub corrupt: bool,
}

/// What one client thread did in one round of a phase.
#[derive(Default)]
pub struct ClientPhase {
    pub ops: u64,
    pub failed: u64,
    pub bytes: u64,
    pub lat_ns: Vec<u64>,
    pub end: Option<Instant>,
}

impl ClientPhase {
    /// Counts one successful op of `bytes` payload bytes.
    pub fn ok(&mut self, bytes: u64, ns: u64) {
        self.bytes += bytes;
        self.lat_ns.push(ns);
    }
}

/// One phase over all clients.
#[derive(Default, Debug)]
pub struct Phase {
    pub ops: u64,
    pub failed: u64,
    /// Verified payload bytes of the ops that succeeded.
    pub bytes: u64,
    pub wall_s: f64,
    pub lat_ns: Vec<u64>,
    /// Throughput of each round of a timed phase.
    pub round_mibps: Vec<f64>,
}

/// A timed phase is cut into this many rounds. How fast a round runs
/// depends on how the scheduler happens to interleave ~40 threads on two
/// cores, and one interleaving tends to persist until every thread has
/// gone idle: measured in one piece, a 5 s phase ran 30 % faster or slower
/// from one run to the next. Between rounds the clients stop, so a phase
/// samples many interleavings, and its throughput is the median round.
pub const ROUNDS: usize = 10;

/// Rounds are never shorter than this (smoke runs get fewer rounds).
const MIN_ROUND: Duration = Duration::from_millis(50);

/// Idle time between rounds, for every worker and pool thread to park.
const ROUND_GAP: Duration = Duration::from_millis(5);

impl Phase {
    /// One round: everything the clients did from `start` until the last
    /// of them was done.
    pub fn gather(start: Instant, clients: Vec<ClientPhase>) -> Self {
        let mut phase = Phase::default();
        let mut end = start;
        for c in clients {
            phase.ops += c.ops;
            phase.failed += c.failed;
            phase.bytes += c.bytes;
            phase.lat_ns.extend(c.lat_ns);
            end = end.max(c.end.unwrap_or(start));
        }
        phase.wall_s = (end - start).as_secs_f64();
        phase
    }

    /// How many rounds a phase of `seconds` is cut into.
    pub fn round_count(seconds: f64) -> usize {
        ROUNDS
            .min((seconds / MIN_ROUND.as_secs_f64()) as usize)
            .max(1)
    }

    /// Adds one finished round, then idles for the gap between rounds.
    pub fn push_round(&mut self, one: Phase) {
        self.ops += one.ops;
        self.failed += one.failed;
        self.bytes += one.bytes;
        self.wall_s += one.wall_s;
        self.round_mibps.push(one.mibps_overall());
        self.lat_ns.extend(one.lat_ns);
        std::thread::sleep(ROUND_GAP);
    }

    /// Verified payload MiB over the wall time of the phase (its rounds,
    /// without the gaps between them).
    pub fn mibps_overall(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.bytes as f64 / (1 << 20) as f64 / self.wall_s
        } else {
            0.0
        }
    }

    /// Verified payload MiB per second of wall time: the median round of a
    /// timed phase.
    pub fn mibps(&self) -> f64 {
        if self.round_mibps.len() < 3 {
            return self.mibps_overall();
        }
        median(&self.round_mibps)
    }
}

/// When a client loop stops issuing ops.
#[derive(Clone, Copy)]
pub enum Stop {
    /// After this many ops (warm-up fills).
    After(u64),
    /// At this instant, but not before one op (timed rounds).
    At(Instant),
}

impl Stop {
    pub fn in_seconds(seconds: f64) -> Self {
        Stop::At(Instant::now() + Duration::from_secs_f64(seconds))
    }

    pub fn reached(&self, ops_done: u64) -> bool {
        match *self {
            Stop::After(n) => ops_done >= n,
            Stop::At(deadline) => ops_done > 0 && Instant::now() >= deadline,
        }
    }
}

/// Runs `work` on one thread per client, released together; `stop` is
/// evaluated by each thread as it starts, so a deadline counts from the
/// common start. Wall time runs until the last client is done.
pub fn drive<C: Send>(
    clients: &mut [C],
    stop: impl Fn() -> Stop + Sync,
    work: impl Fn(&mut C, Stop) -> ClientPhase + Sync,
) -> Phase {
    let barrier = std::sync::Barrier::new(clients.len() + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let (barrier, stop, work) = (&barrier, &stop, &work);
                scope.spawn(move || {
                    barrier.wait();
                    let mut done = work(client, stop());
                    done.end = Some(Instant::now());
                    done
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let results = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        Phase::gather(start, results)
    })
}

/// A timed phase of `seconds`: [`drive`] once per round.
pub fn drive_rounds<C: Send>(
    clients: &mut [C],
    seconds: f64,
    work: impl Fn(&mut C, Stop) -> ClientPhase + Sync,
) -> Phase {
    let rounds = Phase::round_count(seconds);
    let mut phase = Phase::default();
    for _ in 0..rounds {
        phase.push_round(drive(
            clients,
            || Stop::in_seconds(seconds / rounds as f64),
            &work,
        ));
    }
    phase
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub write: Phase,
    pub read: Phase,
    /// One entry per set-up repetition.
    pub setup_s: Vec<f64>,
    /// Checks outside the two phases (the post-reopen reads of
    /// `disk_bulk`): attempted and failed.
    pub extra_attempted: u64,
    pub extra_failed: u64,
    /// Per-layer values only the workload can see (cluster gauges, disk
    /// footprint, reopen time), by metric name.
    pub layer: BTreeMap<&'static str, f64>,
    /// Lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn setup_median_s(&self) -> f64 {
        median(&self.setup_s)
    }

    pub fn attempted(&self) -> u64 {
        self.write.ops + self.read.ops + self.extra_attempted
    }

    pub fn failed(&self) -> u64 {
        self.write.failed + self.read.failed + self.extra_failed
    }
}

pub type RunResult = Result<Outcome, String>;

/// Runs the named workload.
pub fn run(name: &str, args: &RunArgs) -> RunResult {
    match name {
        "rpc_bulk" => bulk::run(args, false),
        "disk_bulk" => bulk::run(args, true),
        "rpc_append_log" => append_log::run(args),
        "mem_bsfs_mixed" => bsfs_mixed::run(args),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Runs `setup` `reps` times, timing each; every result but the last is
/// torn down at once.
fn timed_setups<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one repetition ran"), times))
}

/// Cluster- and deployment-level gauges the trace cannot see.
fn gauges<'a>(
    out: &mut Outcome,
    cluster: Option<&blobseer_rpc::LoopbackCluster>,
    clients: impl Iterator<Item = &'a crate::rig::Client>,
) {
    if let Some(cluster) = cluster {
        out.layer
            .insert("rpc.connections", cluster.connections_accepted() as f64);
        out.layer.insert(
            "rpc.inflight_high_watermark",
            cluster.in_flight_high_watermark() as f64,
        );
    }
    let (mut hits, mut misses, mut width) = (0, 0, 0);
    for client in clients {
        let snap = client.sys.stats().snapshot();
        hits += snap.cache_hits;
        misses += snap.cache_misses;
        width = width.max(snap.fanout_max_width);
    }
    out.layer.insert("cache.hits", hits as f64);
    out.layer.insert("cache.misses", misses as f64);
    out.layer.insert("exec.max_width", width as f64);
}
