//! One benchmark run from arguments to named metrics: run the workload
//! (traced or not), check it, and turn what was measured into the metric
//! names of `spec.rs`.

use crate::json::Json;
use crate::probes;
use crate::rig::out_dir;
use crate::spec;
use crate::stats::{p50_ms, tail_ms};
use crate::trace::{analyze, spans_to_json, Budget, Kind, PortCall, Trace};
use crate::workload::{self, Outcome, RunArgs, Sizes};
use std::collections::BTreeMap;

pub struct RunSpec {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    pub corrupt: bool,
}

pub struct RunReport {
    pub outcome: Outcome,
    /// The contract's end-to-end metrics, in `spec::END_TO_END` order.
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Every per-layer metric, in `spec::PER_LAYER` order (traced runs).
    pub per_layer: Vec<(&'static str, f64)>,
    /// Where op time went, per op kind (traced runs).
    pub budgets: BTreeMap<&'static str, Budget>,
    pub probes: BTreeMap<&'static str, f64>,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.outcome.failed() == 0 && self.outcome.attempted() > 0
    }

    /// Ops that errored or returned wrong bytes ÷ ops attempted.
    pub fn op_failure_share(&self) -> f64 {
        self.outcome.failed() as f64 / self.outcome.attempted().max(1) as f64
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .chain(self.per_layer.iter())
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// The last line of a contract run.
    pub fn contract_line(&self, traced: bool) -> String {
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let metrics = Json::obj(metrics.iter().map(|(name, value)| {
            let unit = spec::metric(name).map_or("", |m| m.unit);
            (
                *name,
                Json::obj([
                    ("value", Json::Num(*value)),
                    ("unit", Json::Str(unit.into())),
                ]),
            )
        }));
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.outcome.attempted() as f64)),
            ("failed", Json::Num(self.outcome.failed() as f64)),
            ("metrics", metrics),
        ])
        .encode()
    }
}

pub fn run(spec: &RunSpec) -> Result<RunReport, String> {
    let trace = spec.traced.then(Trace::new);
    let args = RunArgs {
        seed: spec.seed,
        seconds: spec.seconds,
        trace: trace.clone(),
        sizes: if spec.smoke {
            Sizes::smoke()
        } else {
            Sizes::full()
        },
        corrupt: spec.corrupt,
    };
    let outcome = workload::run(&spec.workload, &args)?;
    let end_to_end = vec![
        ("write_mibps", outcome.write.mibps()),
        ("read_mibps", outcome.read.mibps()),
        ("write_p50_ms", p50_ms(&outcome.write.lat_ns)),
        ("read_p50_ms", p50_ms(&outcome.read.lat_ns)),
        ("setup_s", outcome.setup_median_s()),
    ];
    let mut report = RunReport {
        outcome,
        end_to_end,
        per_layer: Vec::new(),
        budgets: BTreeMap::new(),
        probes: BTreeMap::new(),
    };
    if let Some(trace) = trace {
        let spans = trace.drain_spans();
        report.budgets = analyze(&spans);
        let dir = out_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let file = dir.join(format!("trace_{}.json", spec.workload));
        std::fs::write(&file, spans_to_json(&spec.workload, &spans))
            .map_err(|e| format!("{}: {e}", file.display()))?;
        report.outcome.notes.push(format!(
            "{} spans written to {}",
            spans.len(),
            file.display()
        ));
        let effort = if spec.smoke {
            probes::Effort::smoke()
        } else {
            probes::Effort::full()
        };
        report.probes = probes::run(probes::Shape::of(&spec.workload), effort, spec.seed)?;
        report.per_layer = per_layer(&spec.workload, &report, &trace, spans.len());
    }
    Ok(report)
}

/// Every per-layer metric by name: aggregates and spans of the traced run,
/// the workload's own gauges, the probes; 0 where the workload bypasses
/// the layer.
fn per_layer(
    workload: &str,
    report: &RunReport,
    trace: &Trace,
    span_count: usize,
) -> Vec<(&'static str, f64)> {
    let writes = trace.timed_ops(Kind::Write).max(1) as f64;
    let reads = trace.timed_ops(Kind::Read).max(1) as f64;
    let ms = |ns: u64, per: f64| ns as f64 / 1e6 / per;
    let port = |call| trace.port(call);
    let budget_self_ms = |kind: &str| {
        report
            .budgets
            .get(kind)
            .map_or(0.0, |b| ms(b.self_ns(), b.ops.max(1) as f64))
    };
    let (op_ns, unaccounted_ns) = report.budgets.values().fold((0, 0), |(op, un), b| {
        (op + b.op_ns, un + b.unaccounted_ns())
    });
    let gc_calls = port(PortCall::GcInc).calls + port(PortCall::GcRelease).calls;
    let gc_ns = port(PortCall::GcInc).ns + port(PortCall::GcRelease).ns;
    let placement_calls =
        port(PortCall::PlacementAllocate).calls + port(PortCall::PlacementOther).calls;
    let latest = port(PortCall::VmLatest);
    let is_bsfs = workload == "mem_bsfs_mixed";

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::from([
        (
            "client.write.data_ms",
            ms(trace.phase_ns("write.data"), writes),
        ),
        (
            "client.write.assign_ms",
            ms(trace.phase_ns("write.assign"), writes),
        ),
        (
            "client.write.publish_ms",
            ms(trace.phase_ns("write.publish"), writes),
        ),
        (
            "client.write.commit_ms",
            ms(trace.phase_ns("write.commit"), writes),
        ),
        ("client.write.self_ms", budget_self_ms("write")),
        ("client.write.p99_ms", tail_ms(&report.outcome.write.lat_ns)),
        (
            "client.write.round_trips",
            trace.round_trips(Kind::Write) as f64 / writes,
        ),
        (
            "client.write.control_round_trips",
            trace.control_round_trips(Kind::Write) as f64 / writes,
        ),
        (
            "client.read.locate_ms",
            ms(trace.phase_ns("read.locate"), reads),
        ),
        (
            "client.read.fetch_ms",
            ms(trace.phase_ns("read.fetch"), reads),
        ),
        ("client.read.self_ms", budget_self_ms("read")),
        ("client.read.p99_ms", tail_ms(&report.outcome.read.lat_ns)),
        (
            "client.read.round_trips",
            trace.round_trips(Kind::Read) as f64 / reads,
        ),
        ("vm.assign.ms", ms(port(PortCall::VmAssign).ns, writes)),
        ("vm.commit.ms", ms(port(PortCall::VmCommit).ns, writes)),
        ("vm.latest.ms", ms(latest.ns, latest.calls.max(1) as f64)),
        ("vm.assign.ticket_bytes", trace.mean_ticket_bytes()),
        (
            "meta.put.calls",
            port(PortCall::MetaPut).calls as f64 / writes,
        ),
        (
            "meta.put.nodes",
            port(PortCall::MetaPut).items as f64 / writes,
        ),
        ("meta.put.ms", ms(port(PortCall::MetaPut).ns, writes)),
        (
            "meta.get.calls",
            port(PortCall::MetaGet).calls as f64 / reads,
        ),
        (
            "meta.get.nodes",
            port(PortCall::MetaGet).items as f64 / reads,
        ),
        ("meta.get.ms", ms(port(PortCall::MetaGet).ns, reads)),
        (
            "block.put.calls",
            port(PortCall::BlockPut).calls as f64 / writes,
        ),
        (
            "block.put.bytes",
            port(PortCall::BlockPut).bytes as f64 / writes,
        ),
        ("block.put.ms", ms(port(PortCall::BlockPut).ns, writes)),
        (
            "block.get.calls",
            port(PortCall::BlockGet).calls as f64 / reads,
        ),
        (
            "block.get.bytes",
            port(PortCall::BlockGet).bytes as f64 / reads,
        ),
        ("block.get.ms", ms(port(PortCall::BlockGet).ns, reads)),
        (
            "placement.allocate.ms",
            ms(port(PortCall::PlacementAllocate).ns, writes),
        ),
        ("placement.calls", placement_calls as f64 / writes),
        ("gc.calls", gc_calls as f64 / writes),
        ("gc.ms", ms(gc_ns, writes)),
        (
            "exec.fanout_batches",
            trace.fanout_batches() as f64 / (writes + reads),
        ),
        (
            "rpc.frames_per_write",
            (trace.round_trips(Kind::Write) + trace.control_round_trips(Kind::Write)) as f64
                / writes,
        ),
        (
            "rpc.frames_per_read",
            (trace.round_trips(Kind::Read) + trace.control_round_trips(Kind::Read)) as f64 / reads,
        ),
        (
            "bsfs.write.flushes_per_file",
            if is_bsfs {
                trace.protocol_ops(Kind::Write) as f64 / writes
            } else {
                0.0
            },
        ),
        (
            "bsfs.read.fetches_per_file",
            if is_bsfs {
                trace.protocol_ops(Kind::Read) as f64 / reads
            } else {
                0.0
            },
        ),
        ("trace.spans", span_count as f64),
        (
            "trace.accounted_share",
            1.0 - unaccounted_ns as f64 / op_ns.max(1) as f64,
        ),
    ]);
    values.extend(report.probes.iter().map(|(k, v)| (*k, *v)));
    values.extend(report.outcome.layer.iter().map(|(k, v)| (*k, *v)));
    spec::PER_LAYER
        .iter()
        .map(|m| (m.name, values.get(m.name).copied().unwrap_or(0.0)))
        .collect()
}

/// `name value unit` lines for people; the contract's JSON line follows.
pub fn print_human(spec: &RunSpec, report: &RunReport) {
    println!(
        "# {} seed={} seconds={} trace={} nproc={}",
        spec.workload,
        spec.seed,
        spec.seconds,
        u8::from(spec.traced),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let o = &report.outcome;
    println!(
        "# write: {} ops in {:.3} s ({:.3} MiB/s overall); read: {} ops in {:.3} s ({:.3} MiB/s overall); set-ups {:?}",
        o.write.ops,
        o.write.wall_s,
        o.write.mibps_overall(),
        o.read.ops,
        o.read.wall_s,
        o.read.mibps_overall(),
        o.setup_s
    );
    for note in &o.notes {
        println!("# {note}");
    }
    let rounds = |rates: &[f64]| {
        let rates: Vec<String> = rates.iter().map(|r| format!("{r:.1}")).collect();
        rates.join(" ")
    };
    println!("# write rounds, MiB/s: {}", rounds(&o.write.round_mibps));
    println!("# read rounds, MiB/s: {}", rounds(&o.read.round_mibps));
    let metrics = if spec.traced {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    for (name, value) in metrics {
        let unit = spec::metric(name).map_or("", |m| m.unit);
        println!("{name:<40} {value:>16.4} {unit}");
    }
    println!(
        "{:<40} {:>16.4} ratio   ({} failed of {} attempted)",
        "op_failure_share",
        report.op_failure_share(),
        o.failed(),
        o.attempted()
    );
}
