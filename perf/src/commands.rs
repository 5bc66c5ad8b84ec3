//! The commands beyond the contract's single run: `all` (every workload,
//! untraced then traced, one results file), `layers` (the layer budget of
//! one `rpc_bulk` write and read), `counts` (exact structural counts, run
//! twice) and `compare` (two results files against the bounds).

use crate::err_str;
use crate::json::Json;
use crate::payload::Stamper;
use crate::ports::ticket_wire_bytes;
use crate::probes;
use crate::report::{self, RunReport, RunSpec};
use crate::rig::{config, mem_client, out_dir, rpc_client, ScratchDir, PROVIDERS};
use crate::spec::{self, Better};
use crate::stats::{median, spread};
use crate::trace::Budget;
use blobseer_core::{BlobClient, BlobSeer, WriteTicket};
use blobseer_rpc::LoopbackCluster;
use blobseer_types::{BlobId, NodeId, Version};
use bsfs::BsfsCluster;
use dfs::FileSystem;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// What identifies the box and the build a results file came from, so
/// numbers from different boxes are never compared by accident.
fn provenance(seed: u64, seconds: f64, runs: usize, smoke: bool) -> Json {
    let commit = git_head().unwrap_or_else(|| "unknown".into());
    let cfg = config(64 << 10);
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("commit", Json::Str(commit)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("runs", Json::Num(runs as f64)),
        ("smoke", Json::Bool(smoke)),
        (
            "config",
            Json::obj([
                ("providers", Json::Num(PROVIDERS as f64)),
                ("clients", Json::Num(crate::rig::CLIENTS as f64)),
                ("replication", Json::Num(cfg.replication as f64)),
                (
                    "metadata_providers",
                    Json::Num(cfg.metadata_providers as f64),
                ),
                ("read_cache_bytes", Json::Num(cfg.read_cache_bytes as f64)),
                ("version_replicas", Json::Num(cfg.version_replicas as f64)),
                (
                    "rpc_client_connections",
                    Json::Num(cfg.rpc_client_connections as f64),
                ),
                (
                    "rpc_server_workers",
                    Json::Num(cfg.rpc_server_workers as f64),
                ),
                ("fsync", Json::Bool(false)),
            ]),
        ),
    ])
}

/// The checked-out commit, read from `.git` without starting a process.
fn git_head() -> Option<String> {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).parent()?.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .ok()
            .map(|s| s.trim().to_string()),
        None => Some(head.to_string()),
    }
}

pub struct AllArgs {
    /// One workload only, or all four.
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub runs: usize,
    pub smoke: bool,
    pub out: Option<String>,
}

/// Every workload untraced (`runs` times, seeds `seed, seed + 1, …`) for
/// the end-to-end metrics, then once traced for the per-layer metrics.
/// Returns whether every op of every run checked out.
pub fn all(args: &AllArgs) -> Result<bool, String> {
    let mut correct = true;
    let mut workloads = Vec::new();
    println!(
        "perf all: {} untraced run(s) + 1 traced run per workload, {} s each, seed {}",
        args.runs, args.seconds, args.seed
    );
    let chosen = |w: &&spec::Workload| args.workload.as_deref().is_none_or(|only| only == w.name);
    for w in spec::WORKLOADS.iter().filter(chosen) {
        let run_spec = |seed, traced| RunSpec {
            workload: w.name.into(),
            seed,
            seconds: args.seconds,
            traced,
            smoke: args.smoke,
            corrupt: false,
        };
        let untraced: Vec<RunReport> = (0..args.runs as u64)
            .map(|i| report::run(&run_spec(args.seed + i, false)))
            .collect::<Result<_, _>>()?;
        let traced = report::run(&run_spec(args.seed, true))?;
        correct &= untraced.iter().chain([&traced]).all(RunReport::correct);

        let mut e2e: Vec<(&str, Vec<f64>)> = spec::END_TO_END
            .iter()
            .map(|m| {
                let values = untraced.iter().filter_map(|r| r.value(m.name)).collect();
                (m.name, values)
            })
            .collect();
        let reopen: Vec<f64> = untraced
            .iter()
            .filter_map(|r| r.outcome.layer.get("disk.reopen_s").copied())
            .collect();
        if !reopen.is_empty() {
            e2e.push(("reopen_s", reopen));
        }
        e2e.push((
            "op_failure_share",
            untraced.iter().map(RunReport::op_failure_share).collect(),
        ));
        let rate = |r: &RunReport| {
            (
                r.value("write_mibps").unwrap_or(0.0),
                r.value("read_mibps").unwrap_or(0.0),
            )
        };
        let base_write = median(&untraced.iter().map(|r| rate(r).0).collect::<Vec<_>>());
        let base_read = median(&untraced.iter().map(|r| rate(r).1).collect::<Vec<_>>());
        let overhead = 1.0 - (rate(&traced).0 / base_write + rate(&traced).1 / base_read) / 2.0;

        println!("\n== {} — {}", w.name, w.why);
        for note in &untraced[0].outcome.notes {
            println!("   {note}");
        }
        println!(
            "   end to end (median of {} run(s); spread = IQR/median):",
            args.runs
        );
        for (name, values) in &e2e {
            let m = spec::metric(name).or_else(|| spec::report_only(name));
            let bound = match m.and_then(|m| m.bound) {
                Some(b) if b > 0.0 => format!("bound {:.0} %", b * 100.0),
                _ => "must stay 0".into(),
            };
            println!(
                "   {:<34} {:>14.4} {:<6} n={} spread {} [{}]",
                name,
                median(values),
                m.map_or("", |m| m.unit),
                values.len(),
                spread(values).map_or("n/a".into(), |s| format!("{:.1} %", s * 100.0)),
                bound
            );
        }
        println!("   per layer (one traced run, seed {}):", args.seed);
        for (name, value) in &traced.per_layer {
            let unit = spec::metric(name).map_or("", |m| m.unit);
            println!("   {name:<38} {value:>16.4} {unit}");
        }
        println!(
            "   {:<38} {:>16.4} ratio (1 - traced/untraced throughput; target < 0.10)",
            "trace.overhead_share", overhead
        );

        let mut per_layer: Vec<(String, Json)> = traced
            .per_layer
            .iter()
            .map(|(k, v)| ((*k).to_string(), Json::Num(*v)))
            .collect();
        per_layer.push(("trace.overhead_share".into(), Json::Num(overhead)));
        workloads.push((
            w.name,
            Json::obj([
                (
                    "end_to_end",
                    Json::obj(e2e.iter().map(|(name, values)| {
                        (
                            *name,
                            Json::Arr(values.iter().map(|v| Json::Num(*v)).collect()),
                        )
                    })),
                ),
                ("per_layer", Json::Obj(per_layer)),
                (
                    "attempted",
                    Json::Num(untraced.iter().map(|r| r.outcome.attempted()).sum::<u64>() as f64),
                ),
                (
                    "failed",
                    Json::Num(untraced.iter().map(|r| r.outcome.failed()).sum::<u64>() as f64),
                ),
            ]),
        ));
    }
    let results = Json::obj([
        (
            "meta",
            provenance(args.seed, args.seconds, args.runs, args.smoke),
        ),
        ("workloads", Json::obj(workloads)),
    ]);
    let path = match &args.out {
        Some(path) => path.into(),
        None => out_dir().join("results.json"),
    };
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(err_str)?;
    }
    std::fs::write(&path, results.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nresults written to {}", path.display());
    println!(
        "op_failure_share is {} across all runs",
        if correct { "0" } else { "NOT 0" }
    );
    Ok(correct)
}

// --- layers ---------------------------------------------------------------

/// Share of an op the table's rows must cover before the budget is
/// trusted.
const COVERAGE_TARGET: f64 = 0.85;

/// The layer budget of one `rpc_bulk` write and one read: phase and port
/// self-times from the trace beside what the isolated probes predict, and
/// the unaccounted remainder as its own row.
pub fn layers(seed: u64, seconds: f64, smoke: bool) -> Result<bool, String> {
    let spec = RunSpec {
        workload: "rpc_bulk".into(),
        seed,
        seconds,
        traced: true,
        smoke,
        corrupt: false,
    };
    let report = report::run(&spec)?;
    let shape = probes::Shape::of("rpc_bulk");
    let batch_mib = (shape.block * shape.batch) as f64 / (1 << 20) as f64;
    let probe = |name: &str| report.probes.get(name).copied().unwrap_or(0.0);
    let rtt_ms = probe("rpc.noop_rtt_us") / 1e3;
    // What the probes say a port call of this shape costs on its own.
    let alone = |port: &str| -> Option<String> {
        let per_batch = |mibps: f64| batch_mib / mibps * 1e3;
        Some(match port {
            "block.put" => format!(
                "{:.3} ms/batch over RPC, {:.3} ms in RAM",
                per_batch(probe("rpc.block.put_many_mibps")),
                per_batch(probe("block.mem.put_many_mibps"))
            ),
            "block.get" => format!(
                "{:.3} ms/batch over RPC, {:.3} ms in RAM",
                per_batch(probe("rpc.block.get_many_mibps")),
                per_batch(probe("block.mem.get_many_mibps"))
            ),
            "vm.assign" | "vm.commit" => format!(
                "{rtt_ms:.3} ms round trip + {:.4} ms assign+commit",
                probe("vm.assign_commit_us.h1") / 1e3
            ),
            "vm.latest" | "placement.allocate" | "gc.inc_nodes" | "meta.put" | "meta.get" => {
                format!("{rtt_ms:.3} ms round trip per call")
            }
            _ => return None,
        })
    };
    let mut covered = true;
    for kind in ["write", "read"] {
        let Some(budget) = report.budgets.get(kind) else {
            return Err(format!("the trace holds no {kind} ops"));
        };
        covered &= print_budget(kind, budget, &alone);
    }
    println!(
        "\ntolerance: phase and port rows must cover at least {:.0} % of the op; \
         the remainder row is what they do not.",
        COVERAGE_TARGET * 100.0
    );
    Ok(covered && report.correct())
}

fn print_budget(kind: &str, b: &Budget, alone: &dyn Fn(&str) -> Option<String>) -> bool {
    let ops = b.ops.max(1) as f64;
    let per_op_ms = |ns: u64| ns as f64 / 1e6 / ops;
    let total = per_op_ms(b.op_ns);
    println!(
        "\nlayer budget: one rpc_bulk {kind} (mean of {} traced ops, {:.3} ms)",
        b.ops, total
    );
    println!("  {:<34} {:>9} {:>7}   alone (probe)", "row", "ms", "share");
    let row = |name: &str, ms: f64, note: Option<String>| {
        println!(
            "  {:<34} {:>9.3} {:>6.1}%   {}",
            name,
            ms,
            ms / total * 100.0,
            note.unwrap_or_default()
        );
    };
    for (phase, ns) in &b.phase_self_ns {
        row(&format!("client {phase} (self)"), per_op_ms(*ns), None);
    }
    for (port, ns) in &b.port_ns {
        row(&format!("port {port}"), per_op_ms(*ns), alone(port));
    }
    let remainder = per_op_ms(b.unaccounted_ns());
    row("unaccounted remainder", remainder, None);
    let coverage = 1.0 - remainder / total;
    println!(
        "  rows cover {:.1} % of the op (target >= {:.0} %)",
        coverage * 100.0,
        COVERAGE_TARGET * 100.0
    );
    coverage >= COVERAGE_TARGET
}

// --- counts ---------------------------------------------------------------

/// Structural cost of one op. Every field repeats exactly with one client
/// and a fixed seed.
#[derive(Clone, Debug, PartialEq, Default)]
struct Counts {
    frames: u64,
    data_round_trips: u64,
    control_round_trips: u64,
    fanout_batches: u64,
    blocks_written: u64,
    meta_nodes_written: u64,
    meta_nodes_read: u64,
    ticket_bytes: u64,
}

/// Runs `op`; what it cost on `sys` (and in frames served by `cluster`),
/// and its result.
fn counted<R>(
    sys: &BlobSeer,
    cluster: Option<&LoopbackCluster>,
    op: impl FnOnce() -> R,
) -> (Counts, R) {
    let served = |c: Option<&LoopbackCluster>| c.map_or(0, LoopbackCluster::frames_served);
    let (before, frames_before) = (sys.stats().snapshot(), served(cluster));
    let result = op();
    let after = sys.stats().snapshot();
    let counts = Counts {
        frames: served(cluster) - frames_before,
        data_round_trips: after.port_round_trips - before.port_round_trips,
        control_round_trips: after.control_round_trips - before.control_round_trips,
        fanout_batches: after.fanout_batches - before.fanout_batches,
        blocks_written: after.blocks_written - before.blocks_written,
        meta_nodes_written: after.meta_nodes_written - before.meta_nodes_written,
        meta_nodes_read: after.meta_nodes_read - before.meta_nodes_read,
        ticket_bytes: 0,
    };
    (counts, result)
}

/// The ticket the version manager handed out for `version`, rebuilt from
/// the BLOB's log chain (one client, so nothing was assigned after it),
/// and its size on the wire.
fn ticket_bytes_of(client: &BlobClient, blob: BlobId, version: Version) -> Result<u64, String> {
    let chain = client
        .system()
        .version_manager()
        .chain(blob)
        .map_err(err_str)?;
    let entry = chain
        .entry(version)
        .ok_or_else(|| format!("no log entry for {version}"))?;
    let prev_size = chain
        .snapshot_geometry(version.prev())
        .map_or(0, |(size, _)| size);
    Ok(ticket_wire_bytes(&WriteTicket {
        blob,
        version,
        offset: prev_size,
        prev_size,
        entry,
        chain,
    }))
}

type CountRows = Vec<(String, Counts)>;

fn count_bulk(rows: &mut CountRows, seed: u64, on_disk: bool) -> Result<(), String> {
    let label = if on_disk { "disk_bulk" } else { "rpc_bulk" };
    let dir = on_disk
        .then(|| ScratchDir::new("counts"))
        .transpose()
        .map_err(err_str)?;
    let mut cfg = config(64 << 10);
    if let Some(dir) = &dir {
        cfg = cfg.with_data_dir(dir.path());
    }
    let cluster = LoopbackCluster::boot(cfg, PROVIDERS).map_err(err_str)?;
    let handle = rpc_client(&cluster, None).map_err(err_str)?;
    let client = handle.sys.client(NodeId::new(100));
    let len = 64 * (64 << 10);
    let stamper = Stamper::new(seed, len);
    let mut buf = stamper.buffer(len);
    stamper.stamp(&mut buf, 64 << 10, 1, 0);

    let (create, blob) = counted(&handle.sys, Some(&cluster), || client.try_create());
    let blob = blob.map_err(err_str)?;
    let (mut write, version) = counted(&handle.sys, Some(&cluster), || client.write(blob, 0, &buf));
    let version = version.map_err(err_str)?;
    let (read, intact) = counted(&handle.sys, Some(&cluster), || {
        client
            .read(blob, None, 0, len as u64)
            .is_ok_and(|got| stamper.check(&got, len, 64 << 10, 1, 0, true))
    });
    if !intact {
        return Err(format!("{label}: read returned wrong bytes"));
    }
    write.ticket_bytes = ticket_bytes_of(&client, blob, version)?;

    // The invariants `tests/rpc_cluster.rs` pins for a 64-block write and
    // read on 4 providers: 14 data frames + 3 control frames, and 13 + 0.
    let expect = |name: &str, c: &Counts, data: u64, control: u64| {
        if (c.data_round_trips, c.control_round_trips) != (data, control)
            || c.frames != data + control
        {
            return Err(format!(
                "{label}.{name}: expected {data} data + {control} control frames, got {c:?}"
            ));
        }
        Ok(())
    };
    expect("write", &write, 14, 3)?;
    expect("read", &read, 13, 0)?;
    rows.push((format!("{label}.create"), create));
    rows.push((format!("{label}.write"), write));
    rows.push((format!("{label}.read"), read));
    drop((client, handle));
    drop(cluster);
    Ok(())
}

fn count_append_log(rows: &mut CountRows, seed: u64, history: u64) -> Result<(), String> {
    const BLOCK: usize = 4 << 10;
    let cluster = LoopbackCluster::boot(config(BLOCK as u64), PROVIDERS).map_err(err_str)?;
    let handle = rpc_client(&cluster, None).map_err(err_str)?;
    let client = handle.sys.client(NodeId::new(100));
    let stamper = Stamper::new(seed, BLOCK);
    let mut buf = stamper.buffer(BLOCK);
    let blob = client.try_create().map_err(err_str)?;
    let mut checkpoints = vec![1, 1024, history];
    checkpoints.dedup();
    for n in 1..=history {
        stamper.stamp(&mut buf, BLOCK, n, 0);
        if !checkpoints.contains(&n) {
            client.append(blob, &buf).map_err(err_str)?;
            continue;
        }
        let (mut append, landed) =
            counted(&handle.sys, Some(&cluster), || client.append(blob, &buf));
        let (offset, version) = landed.map_err(err_str)?;
        append.ticket_bytes = ticket_bytes_of(&client, blob, version)?;
        let (read, intact) = counted(&handle.sys, Some(&cluster), || {
            client
                .read(blob, None, offset, BLOCK as u64)
                .is_ok_and(|got| stamper.check(&got, BLOCK, BLOCK, n, 0, true))
        });
        if !intact {
            return Err(format!("rpc_append_log: block {n} read back wrong"));
        }
        rows.push((format!("rpc_append_log.append.h{n}"), append));
        rows.push((format!("rpc_append_log.read.h{n}"), read));
    }
    drop((client, handle));
    drop(cluster);
    Ok(())
}

fn count_bsfs(rows: &mut CountRows, seed: u64, file_bytes: usize) -> Result<(), String> {
    const RECORD: usize = 4 << 10;
    let handle = mem_client(config(64 << 10), None);
    let cluster = BsfsCluster::new(Arc::clone(&handle.sys));
    let fs = cluster.mount(NodeId::new(0));
    let stamper = Stamper::new(seed, file_bytes);
    let mut buf = stamper.buffer(file_bytes);
    stamper.stamp(&mut buf, RECORD, 1, 0);
    let (write, ok) = counted(&handle.sys, None, || {
        fs.create("/bench/f", false).is_ok_and(|mut out| {
            buf.chunks(RECORD).all(|r| out.write(r).is_ok()) && out.close().is_ok()
        })
    });
    if !ok {
        return Err("mem_bsfs_mixed: file write failed".into());
    }
    let mut got = vec![0u8; file_bytes];
    let (read, ok) = counted(&handle.sys, None, || {
        fs.open("/bench/f")
            .is_ok_and(|mut input| got.chunks_mut(RECORD).all(|r| input.read_exact(r).is_ok()))
    });
    if !ok || !stamper.check(&got, file_bytes, RECORD, 1, 0, true) {
        return Err("mem_bsfs_mixed: file read back wrong".into());
    }
    rows.push(("mem_bsfs_mixed.file_write".into(), write));
    rows.push(("mem_bsfs_mixed.file_read".into(), read));
    Ok(())
}

fn count_everything(seed: u64, smoke: bool) -> Result<CountRows, String> {
    let mut rows = CountRows::new();
    count_bulk(&mut rows, seed, false)?;
    count_bulk(&mut rows, seed, true)?;
    count_append_log(&mut rows, seed, if smoke { 1024 } else { 8192 })?;
    count_bsfs(&mut rows, seed, if smoke { 1 << 20 } else { 16 << 20 })?;
    Ok(rows)
}

/// Exact structural counts per op type, one client, fixed seed, taken
/// twice in this process; any difference between the two passes fails.
pub fn counts(seed: u64, smoke: bool) -> Result<bool, String> {
    let first = count_everything(seed, smoke)?;
    let second = count_everything(seed, smoke)?;
    println!(
        "{:<34} {:>6} {:>5} {:>7} {:>7} {:>7} {:>9} {:>9} {:>12}",
        "op",
        "frames",
        "data",
        "control",
        "fanout",
        "blocks",
        "meta put",
        "meta get",
        "ticket bytes"
    );
    let mut same = true;
    for ((name, a), (_, b)) in first.iter().zip(&second) {
        println!(
            "{:<34} {:>6} {:>5} {:>7} {:>7} {:>7} {:>9} {:>9} {:>12}{}",
            name,
            a.frames,
            a.data_round_trips,
            a.control_round_trips,
            a.fanout_batches,
            a.blocks_written,
            a.meta_nodes_written,
            a.meta_nodes_read,
            a.ticket_bytes,
            if a == b {
                ""
            } else {
                "   <-- differs on the second pass"
            }
        );
        same &= a == b;
    }
    same &= first.len() == second.len();
    let file = out_dir().join("counts.json");
    let as_json = Json::obj(first.iter().map(|(name, c)| {
        (
            name.clone(),
            Json::obj([
                ("frames", Json::Num(c.frames as f64)),
                ("data_round_trips", Json::Num(c.data_round_trips as f64)),
                (
                    "control_round_trips",
                    Json::Num(c.control_round_trips as f64),
                ),
                ("fanout_batches", Json::Num(c.fanout_batches as f64)),
                ("blocks_written", Json::Num(c.blocks_written as f64)),
                ("meta_nodes_written", Json::Num(c.meta_nodes_written as f64)),
                ("meta_nodes_read", Json::Num(c.meta_nodes_read as f64)),
                ("vm.assign.ticket_bytes", Json::Num(c.ticket_bytes as f64)),
            ]),
        )
    }));
    std::fs::create_dir_all(out_dir()).map_err(err_str)?;
    std::fs::write(&file, as_json.pretty()).map_err(err_str)?;
    println!(
        "\nbulk ops match the 14 + 3 / 13 + 0 frame invariants of tests/rpc_cluster.rs; \
         two passes {}; written to {}",
        if same { "agree exactly" } else { "DIFFER" },
        file.display()
    );
    Ok(same)
}

// --- compare --------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved (spread wider than bound)",
        }
    }
}

/// Judges `b` against `a` for one metric. A zero bound means the metric
/// must stay 0.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (Verdict, f64) {
    let (base, new) = (median(a), median(b));
    if bound == 0.0 {
        let verdict = match new.total_cmp(&base) {
            std::cmp::Ordering::Greater => Verdict::Worse,
            std::cmp::Ordering::Less => Verdict::Better,
            std::cmp::Ordering::Equal => Verdict::Within,
        };
        return (verdict, new - base);
    }
    let change = if base == 0.0 {
        0.0
    } else {
        (new - base) / base.abs()
    };
    let worse_by = match better {
        Better::Higher => -change,
        Better::Lower => change,
    };
    let noise = spread(a).unwrap_or(0.0).max(spread(b).unwrap_or(0.0));
    let verdict = if noise > bound {
        // Too noisy for the bound to mean anything — unless the change
        // dwarfs even the noise.
        if worse_by > noise {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    };
    (verdict, worse_by)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Bounds per end-to-end metric from `BENCHMARK.json`, plus the two the
/// contract file cannot carry (`spec::REPORT_ONLY`).
fn bounds(spec_file: &str) -> Result<BTreeMap<String, (Better, f64)>, String> {
    let doc = load(spec_file)?;
    let mut out = BTreeMap::new();
    for m in doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{spec_file}: no end_to_end list"))?
    {
        let field = |key: &str| m.get(key).and_then(Json::as_str);
        let (Some(name), Some(better), Some(bound)) = (
            field("name"),
            field("better"),
            m.get("bound").and_then(Json::as_f64),
        ) else {
            return Err(format!("{spec_file}: malformed end_to_end entry"));
        };
        let better = if better == "higher" {
            Better::Higher
        } else {
            Better::Lower
        };
        out.insert(name.to_string(), (better, bound));
    }
    for m in &spec::REPORT_ONLY {
        out.insert(m.name.into(), (m.better, m.bound.unwrap_or(0.0)));
    }
    Ok(out)
}

/// One row per (workload, metric) of two `perf all` results files, judged
/// by the bounds of `BENCHMARK.json`. Returns whether nothing got worse.
pub fn compare(a_path: &str, b_path: &str, spec_file: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let bounds = bounds(spec_file)?;
    for (label, doc) in [("A", &a), ("B", &b)] {
        let meta = doc.get("meta").map_or("{}".into(), Json::encode);
        println!("{label}: {meta}");
    }
    let nproc = |doc: &Json| {
        doc.get("meta")
            .and_then(|m| m.get("nproc"))
            .and_then(Json::as_f64)
    };
    if nproc(&a) != nproc(&b) {
        println!("warning: A and B ran on boxes with different core counts; do not compare them");
    }
    println!(
        "\n{:<16} {:<18} {:>12} {:>12} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "bound"
    );
    let workloads = |doc: &Json| {
        doc.get("workloads")
            .and_then(Json::as_obj)
            .map(<[_]>::to_vec)
    };
    let (Some(wa), Some(wb)) = (workloads(&a), workloads(&b)) else {
        return Err("results files hold no workloads".into());
    };
    let mut ok = true;
    for (workload, in_a) in &wa {
        let Some((_, in_b)) = wb.iter().find(|(name, _)| name == workload) else {
            println!("{workload:<16} missing from B");
            ok = false;
            continue;
        };
        let values = |doc: &Json, metric: &str| -> Option<Vec<f64>> {
            doc.get("end_to_end")?
                .get(metric)?
                .as_arr()
                .map(|vs| vs.iter().filter_map(Json::as_f64).collect())
        };
        let metrics = in_a.get("end_to_end").and_then(Json::as_obj).unwrap_or(&[]);
        for (metric, _) in metrics {
            let (Some(va), Some(vb)) = (values(in_a, metric), values(in_b, metric)) else {
                println!("{workload:<16} {metric:<18} missing from B");
                ok = false;
                continue;
            };
            let Some(&(better, bound)) = bounds.get(metric) else {
                continue;
            };
            let (verdict, worse_by) = judge(&va, &vb, better, bound);
            ok &= verdict != Verdict::Worse;
            println!(
                "{:<16} {:<18} {:>12.4} {:>12.4} {:>8.1}% {:>6.0}%  {}",
                workload,
                metric,
                median(&va),
                median(&vb),
                worse_by * 100.0,
                bound * 100.0,
                verdict.label()
            );
        }
    }
    println!(
        "\n{}",
        if ok {
            "no (workload, metric) pair is worse than its bound allows"
        } else {
            "at least one (workload, metric) pair is WORSE than its bound allows"
        }
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_direction_bound_and_noise() {
        let steady = |x: f64| vec![x * 0.99, x, x * 1.01, x, x];
        let j = |a: &[f64], b: &[f64], better| judge(a, b, better, 0.1).0;
        assert_eq!(
            j(&steady(100.0), &steady(95.0), Better::Higher),
            Verdict::Within
        );
        assert_eq!(
            j(&steady(100.0), &steady(80.0), Better::Higher),
            Verdict::Worse
        );
        assert_eq!(
            j(&steady(100.0), &steady(120.0), Better::Higher),
            Verdict::Better
        );
        assert_eq!(
            j(&steady(10.0), &steady(12.0), Better::Lower),
            Verdict::Worse
        );
        assert_eq!(
            j(&steady(10.0), &steady(8.0), Better::Lower),
            Verdict::Better
        );
        // Quartiles 30 % apart: a 5 % change cannot be told from noise.
        let noisy = [80.0, 90.0, 100.0, 110.0, 120.0];
        let shifted: Vec<f64> = noisy.iter().map(|v| v * 0.95).collect();
        assert_eq!(j(&noisy, &shifted, Better::Higher), Verdict::Unresolved);
        let halved: Vec<f64> = noisy.iter().map(|v| v * 0.5).collect();
        assert_eq!(j(&noisy, &halved, Better::Higher), Verdict::Worse);
        // A zero bound: the metric must stay 0.
        assert_eq!(judge(&[0.0], &[0.0], Better::Lower, 0.0).0, Verdict::Within);
        assert_eq!(judge(&[0.0], &[0.01], Better::Lower, 0.0).0, Verdict::Worse);
    }
}
