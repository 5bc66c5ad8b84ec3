//! Fig. 6: Map/Reduce application benchmarks (§V-G).
//!
//! * **Fig. 6(a) — RandomTextWriter**: M mappers (co-deployed with storage
//!   on 50 nodes) each generate `6.4 GB / M` of random text and write it
//!   to their own output file. The **BSFS leg is the real protocol**: each
//!   mapper is a simulated client thread ([`crate::concurrent`]) whose
//!   64 MB cache flushes are genuine `BlobClient::append` calls — provider
//!   allocation, version assignment and segment-tree publish all run live,
//!   with the shared version manager's O(1) work per append emerging from
//!   the code. The **HDFS leg runs `hdfs-sim`'s real namenode and
//!   datanodes** ([`crate::concurrent::HdfsDeployment`]): each mapper's
//!   `add_chunk` lands local-first on its own datanode, and each
//!   allocation pays the 0.20 chunk pipeline and the namenode's
//!   synchronously-fsynced, O(block-list) edit log — which *all mappers
//!   share*.
//! * **Fig. 6(b) — distributed grep**: a shared input file of 6.4→12.8 GB
//!   (100→200 chunks) is scanned by one mapper per chunk on 150
//!   co-deployed nodes. Tasktracker slots are simulated threads sharing
//!   one scheduling loop (at most one new task per tracker per 3-second
//!   heartbeat, data-local tasks preferred — 0.20's greedy scheduler); the
//!   BSFS leg's chunk locations come from the real
//!   `BlobClient::locations` and its chunk reads are real
//!   `BlobClient::read` calls, so locality and fetch costs emerge from the
//!   live layout. The HDFS leg boots the input through `hdfs-sim`'s
//!   client, so its namenode's sticky layout concentrates chunks on hot
//!   datanodes whose disks and NICs become stragglers served remotely;
//!   every map takes a charged `file_snapshot` and fetches its chunk from
//!   the real datanode.
//!
//! Completion time = storage/compute makespan + fixed job overhead (setup
//! and cleanup tasks) + (grep only) the small reduce phase.

use crate::concurrent::{self, ClientTask};
use crate::constants::Constants;
use crate::report::{Figure, Series};
use crate::topology::Backend;
use blobseer_core::BlobClient;
use blobseer_types::NodeId;
use hdfs_sim::HdfsConfig;
use parking_lot::Mutex;
use simnet::{SimDuration, SimGate, SimTask, SimTime};

/// Nodes in the RandomTextWriter deployment (§V-G: 50 machines).
pub const RTW_NODES: usize = 50;
/// Nodes in the grep deployment (§V-G: 150 machines).
pub const GREP_NODES: usize = 150;
/// Map slots per tasktracker (Hadoop default).
const SLOTS: usize = 2;
/// Metadata providers in the RTW deployment (§V-G: 10).
const RTW_META_SHARDS: usize = 10;
/// Real engine bytes behind each modeled 64 MB chunk.
const REAL_CHUNK: u64 = 256;

/// Heartbeat-staggered dispatch offset of mapper `m`.
fn stagger(m: usize, heartbeat: SimDuration) -> SimDuration {
    SimDuration::from_millis((m as u64 * 137) % heartbeat.as_millis())
}

// ---------------------------------------------------------------------------
// Fig. 6(a): RandomTextWriter
// ---------------------------------------------------------------------------

/// Simulates one RandomTextWriter job; returns completion time in seconds.
pub fn rtw_job_secs(c: &Constants, backend: Backend, mappers: usize, total_bytes: u64) -> f64 {
    assert!((1..=RTW_NODES).contains(&mappers));
    let chunks = ((total_bytes / mappers as u64) as f64 / c.block_bytes as f64)
        .round()
        .max(1.0) as usize;
    let gen = SimDuration::from_secs_f64(c.block_bytes as f64 / c.textgen_bps);
    let done: Mutex<Vec<Option<SimTime>>> = Mutex::new(vec![None; mappers]);
    match backend {
        Backend::Bsfs => {
            // §V-G deploys 10 metadata providers for this benchmark.
            let mut cb = c.clone();
            cb.meta_shards = RTW_META_SHARDS;
            let dep = concurrent::deploy(&cb, RTW_NODES, RTW_NODES, REAL_CHUNK);
            dep.set_charging(true);
            let clients: Vec<ClientTask<'_>> = (0..mappers)
                .map(|m| {
                    let (done, fabric) = (&done, &dep.fabric);
                    (
                        NodeId::new(m as u64),
                        Box::new(move |cl: BlobClient| {
                            let gate = fabric.gate();
                            gate.sleep(stagger(m, cb.heartbeat) + cb.task_overhead);
                            let blob = cl.create();
                            let payload = vec![m as u8; REAL_CHUNK as usize];
                            for _ in 0..chunks {
                                // Generate the chunk's text, then flush the
                                // 64 MB write-behind cache: a real append.
                                gate.sleep(gen);
                                cl.append(blob, &payload).unwrap();
                            }
                            done.lock()[m] = Some(gate.now());
                        }) as Box<dyn FnOnce(BlobClient) + Send>,
                    )
                })
                .collect();
            dep.run_clients(clients);
        }
        Backend::Hdfs => {
            let cfg = HdfsConfig::default().with_chunk_size(REAL_CHUNK);
            let dep = concurrent::deploy_hdfs(c, cfg, RTW_NODES, RTW_NODES, 0xF166A);
            let tasks: Vec<SimTask<'_>> = (0..mappers)
                .map(|m| {
                    let (dep, done) = (&dep, &done);
                    Box::new(move || {
                        let gate = dep.fabric.gate();
                        gate.sleep(stagger(m, c.heartbeat) + c.task_overhead);
                        // Local-first placement: the mapper's own
                        // datanode. Each namenode allocation — shared by
                        // every mapper — fsyncs an edit-log record
                        // containing the file's whole block list.
                        let (path, node) = (format!("/rtw/{m}"), NodeId::new(m as u64));
                        let overhead = c.hdfs_chunk_overhead_local;
                        dep.write(&path, node, chunks as u64, gen, overhead);
                        done.lock()[m] = Some(gate.now());
                    }) as SimTask<'_>
                })
                .collect();
            dep.fabric.gate().run(tasks);
        }
    }
    let makespan = done
        .into_inner()
        .iter()
        .map(|d| d.expect("mapper finished"))
        .max()
        .expect("at least one mapper");
    (makespan + c.job_overhead).as_secs_f64()
}

/// Reproduces Fig. 6(a): job completion time vs data generated per mapper
/// (total fixed at 6.4 GB).
pub fn run_rtw(c: &Constants, mapper_counts: &[usize]) -> Figure {
    let total: u64 = 6_871_947_674; // 6.4 GB
    let mut fig = Figure::new(
        "Fig. 6(a)",
        "RandomTextWriter: job completion time, 6.4 GB total output",
        "data per mapper (GB)",
        "job completion time (s)",
    );
    for backend in [Backend::Hdfs, Backend::Bsfs] {
        let mut series = Series::new(backend.label());
        let mut points: Vec<(f64, f64)> = mapper_counts
            .iter()
            .map(|&m| {
                let per_mapper_gb = 6.4 / m as f64;
                (per_mapper_gb, rtw_job_secs(c, backend, m, total))
            })
            .collect();
        points.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
        series.points = points;
        fig.series.push(series);
    }
    fig
}

/// The paper's sweep: 50 mappers (128 MB each) → 1 mapper (6.4 GB).
pub fn rtw_paper_mappers() -> Vec<usize> {
    vec![50, 25, 10, 5, 2, 1]
}

// ---------------------------------------------------------------------------
// Fig. 6(b): distributed grep
// ---------------------------------------------------------------------------

/// Shared job state of one grep run: the task board every tasktracker
/// slot claims from.
struct GrepJob {
    state: Mutex<GrepState>,
}

struct GrepState {
    /// Input-chunk host (storage-node index) per task.
    task_host: Vec<usize>,
    /// Tasks not yet assigned to a tracker.
    pending: Vec<bool>,
    unassigned: usize,
    /// Nominal beat instant of each tracker's last assignment: 0.20 hands
    /// out at most one new task per tracker per heartbeat.
    last_claim: Vec<Option<SimTime>>,
    remaining: usize,
    local_maps: usize,
    maps_done_at: Option<SimTime>,
}

/// Scrambled heartbeat phase of a tracker: real tasktrackers do not beat
/// in node-id order, and ordered phases would let idle trackers steal
/// every local task just before its owner's first heartbeat.
fn grep_phase(tracker: usize, c: &Constants) -> SimDuration {
    SimDuration::from_millis(
        ((tracker as u64 * 7919) % GREP_NODES as u64) * c.heartbeat.as_millis() / GREP_NODES as u64,
    )
}

/// One tasktracker slot: wakes at its tracker's heartbeats, claims at most
/// one pending task per tracker per beat (data-local preferred, greedy —
/// no delay scheduling), runs it via `io`, repeats until no task is left.
fn grep_slot_loop(
    gate: &SimGate,
    c: &Constants,
    job: &GrepJob,
    tracker: usize,
    mut io: impl FnMut(usize),
) {
    let origin = SimTime::ZERO + grep_phase(tracker, c);
    let hb = c.heartbeat;
    let mut next_beat = origin;
    loop {
        gate.sleep_until(next_beat);
        let claimed = {
            let mut st = job.state.lock();
            if st.unassigned == 0 {
                break;
            }
            if st.last_claim[tracker] == Some(next_beat) {
                None // the sibling slot already took this beat's task
            } else {
                let local =
                    (0..st.pending.len()).find(|&t| st.pending[t] && st.task_host[t] == tracker);
                let pick = local.or_else(|| (0..st.pending.len()).find(|&t| st.pending[t]));
                if let Some(task) = pick {
                    st.pending[task] = false;
                    st.unassigned -= 1;
                    st.last_claim[tracker] = Some(next_beat);
                    if local.is_some() {
                        st.local_maps += 1;
                    }
                    Some(task)
                } else {
                    None
                }
            }
        };
        if let Some(task) = claimed {
            // JVM spawn + task init, then the task's open/fetch/scan.
            gate.sleep(c.task_overhead);
            io(task);
            let mut st = job.state.lock();
            st.remaining -= 1;
            if st.remaining == 0 {
                st.maps_done_at = Some(gate.now());
            }
        }
        // Next nominal beat strictly after now.
        let elapsed = (gate.now() - origin).as_nanos();
        let k = elapsed / hb.as_nanos() + 1;
        next_beat = origin + SimDuration::from_nanos(k * hb.as_nanos());
    }
}

impl GrepJob {
    fn new(task_host: Vec<usize>) -> Self {
        let n = task_host.len();
        Self {
            state: Mutex::new(GrepState {
                task_host,
                pending: vec![true; n],
                unassigned: n,
                last_claim: vec![None; GREP_NODES],
                remaining: n,
                local_maps: 0,
                maps_done_at: None,
            }),
        }
    }

    fn outcome(self, c: &Constants, n_chunks: usize) -> GrepOutcome {
        let st = self.state.into_inner();
        let maps_done = st.maps_done_at.expect("all maps finished");
        let total = maps_done + c.reduce_phase + c.job_overhead;
        GrepOutcome {
            secs: total.as_secs_f64(),
            locality: st.local_maps as f64 / n_chunks as f64,
        }
    }
}

/// Outcome of one grep job simulation.
#[derive(Clone, Copy, Debug)]
pub struct GrepOutcome {
    /// Completion time in seconds (maps + reduce + job overhead).
    pub secs: f64,
    /// Fraction of maps that were data-local.
    pub locality: f64,
}

/// Simulates one distributed-grep job over `n_chunks` input chunks.
pub fn grep_job(c: &Constants, backend: Backend, n_chunks: usize, seed: u64) -> GrepOutcome {
    let scan = SimDuration::from_secs_f64(c.block_bytes as f64 / c.grep_scan_bps);
    match backend {
        Backend::Bsfs => {
            let dep = concurrent::deploy(c, GREP_NODES, GREP_NODES, REAL_CHUNK);
            // Boot the shared input file (uncharged); its layout — and
            // therefore task locality — comes from the live engine.
            let boot = dep.sys.client(NodeId::new(0));
            let blob = boot.create();
            let payload = vec![3u8; REAL_CHUNK as usize];
            for _ in 0..n_chunks {
                boot.append(blob, &payload).unwrap();
            }
            let task_host: Vec<usize> = boot
                .locations(blob, None, 0, n_chunks as u64 * REAL_CHUNK)
                .unwrap()
                .iter()
                .map(|l| l.nodes[0].raw() as usize)
                .collect();
            let job = GrepJob::new(task_host);
            dep.set_charging(true);
            let clients: Vec<ClientTask<'_>> = (0..GREP_NODES * SLOTS)
                .map(|slot| {
                    let (tracker, job, fabric) = (slot / SLOTS, &job, &dep.fabric);
                    (
                        NodeId::new(tracker as u64),
                        Box::new(move |cl: BlobClient| {
                            grep_slot_loop(fabric.gate(), c, job, tracker, |task| {
                                // Open + descent + fetch: the real read
                                // path (local when the chunk lives on this
                                // tracker's node), then the regex scan.
                                cl.read(blob, None, task as u64 * REAL_CHUNK, REAL_CHUNK)
                                    .unwrap();
                                fabric.gate().sleep(scan);
                            });
                        }) as Box<dyn FnOnce(BlobClient) + Send>,
                    )
                })
                .collect();
            dep.run_clients(clients);
            job.outcome(c, n_chunks)
        }
        Backend::Hdfs => {
            let cfg = HdfsConfig::default().with_chunk_size(REAL_CHUNK);
            let dep = concurrent::deploy_hdfs(c, cfg, GREP_NODES, GREP_NODES, seed);
            // Input layout: the boot file was written from a non-colocated
            // client (§V-G), so the namenode spreads it sticky-randomly.
            let boot = dep.boot("/grep", &vec![3u8; n_chunks * REAL_CHUNK as usize]);
            let job = GrepJob::new(boot.chunks.iter().map(|ch| ch.datanodes[0]).collect());
            let tasks: Vec<SimTask<'_>> = (0..GREP_NODES * SLOTS)
                .map(|slot| {
                    let (tracker, dep, job) = (slot / SLOTS, &dep, &job);
                    Box::new(move || {
                        grep_slot_loop(dep.fabric.gate(), c, job, tracker, |task| {
                            // Namenode locations query, then the chunk fetch
                            // (remote over the network when the sticky
                            // layout put it elsewhere), then the scan.
                            let chunk = &dep.snapshot("/grep").chunks[task];
                            dep.fetch(chunk, NodeId::new(tracker as u64), SimDuration::ZERO);
                            dep.fabric.gate().sleep(scan);
                        });
                    }) as SimTask<'_>
                })
                .collect();
            dep.fabric.gate().run(tasks);
            job.outcome(c, n_chunks)
        }
    }
}

/// Reproduces Fig. 6(b): grep job completion time vs input size (GB).
pub fn run_grep(c: &Constants, sizes_gb: &[f64]) -> Figure {
    let mut fig = Figure::new(
        "Fig. 6(b)",
        "Distributed grep: job completion time vs input size",
        "total text size to be searched (GB)",
        "job completion time (s)",
    );
    for backend in [Backend::Hdfs, Backend::Bsfs] {
        let mut series = Series::new(backend.label());
        for &gb in sizes_gb {
            let n_chunks =
                ((gb * 1024.0 * 1024.0 * 1024.0) / c.block_bytes as f64).round() as usize;
            let mean = (0..crate::fig3b::REPETITIONS)
                .map(|rep| grep_job(c, backend, n_chunks, 0xF166B + rep).secs)
                .sum::<f64>()
                / crate::fig3b::REPETITIONS as f64;
            series.push(gb, mean);
        }
        fig.series.push(series);
    }
    fig
}

/// The paper's grep x grid: 6.4 → 12.8 GB in 1.6 GB increments.
pub fn grep_paper_sizes() -> Vec<f64> {
    vec![6.4, 8.0, 9.6, 11.2, 12.8]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rtw_bsfs_beats_hdfs_with_growing_gain() {
        let c = Constants::default();
        let total = 6_871_947_674u64;
        let gain = |m: usize| {
            let h = rtw_job_secs(&c, Backend::Hdfs, m, total);
            let b = rtw_job_secs(&c, Backend::Bsfs, m, total);
            (h - b) / h
        };
        let g50 = gain(50);
        let g1 = gain(1);
        // Paper: 7 % at 50 mappers → 11 % at 1 mapper.
        assert!(g50 > 0.02, "BSFS must win at 50 mappers: gain {g50:.3}");
        assert!(g1 > 0.06, "BSFS must win clearly at 1 mapper: gain {g1:.3}");
        assert!(
            g1 > g50,
            "gain grows as mappers decrease: {g50:.3} → {g1:.3}"
        );
    }

    #[test]
    fn rtw_single_mapper_time_in_paper_band() {
        // Paper Fig. 6(a): a single mapper writing 6.4 GB takes ≈ 200–250 s.
        let c = Constants::default();
        let h = rtw_job_secs(&c, Backend::Hdfs, 1, 6_871_947_674);
        let b = rtw_job_secs(&c, Backend::Bsfs, 1, 6_871_947_674);
        assert!((180.0..320.0).contains(&h), "HDFS 1 mapper: {h:.0}s");
        assert!((160.0..300.0).contains(&b), "BSFS 1 mapper: {b:.0}s");
    }

    #[test]
    fn grep_bsfs_wins_and_gap_holds_as_input_grows() {
        let c = Constants::default();
        let g64 = (
            grep_job(&c, Backend::Hdfs, 100, 1).secs,
            grep_job(&c, Backend::Bsfs, 100, 1).secs,
        );
        let g128 = (
            grep_job(&c, Backend::Hdfs, 200, 1).secs,
            grep_job(&c, Backend::Bsfs, 200, 1).secs,
        );
        let gain_64 = (g64.0 - g64.1) / g64.0;
        let gain_128 = (g128.0 - g128.1) / g128.0;
        // Paper: 35 % at 6.4 GB, 38 % at 12.8 GB.
        assert!(gain_64 > 0.15, "gain at 6.4 GB: {gain_64:.2} ({g64:?})");
        assert!(
            gain_128 >= gain_64 - 0.03,
            "gap must not shrink: {gain_64:.2} → {gain_128:.2}"
        );
    }

    #[test]
    fn grep_locality_tracks_placement_quality() {
        let c = Constants::default();
        let b = grep_job(&c, Backend::Bsfs, 150, 2);
        let h = grep_job(&c, Backend::Hdfs, 150, 2);
        assert!(
            b.locality > 0.9,
            "balanced layout → nearly all local: {:.2}",
            b.locality
        );
        assert!(
            h.locality < b.locality,
            "skewed layout loses locality: {:.2}",
            h.locality
        );
    }
}
