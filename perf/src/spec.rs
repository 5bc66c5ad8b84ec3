//! The benchmark's fixed vocabulary: workloads, metric names, units, which
//! direction is better and the regression bounds. `BENCHMARK.json` at the
//! repo root is `perf spec` printed to a file; a unit test keeps the two in
//! step, so a metric cannot be emitted under a name the contract file does
//! not list.

use crate::json::Json;

/// One run measures for this many seconds (write half, read half).
pub const RUN_SECONDS: u64 = 10;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "rpc_bulk",
        why: "4 MiB writes and reads over loopback RPC into RAM stores: codec, framing, mux transport and server queue do the work; version manager, tree and disk do almost none",
    },
    Workload {
        name: "rpc_append_log",
        why: "4 KiB appends and random reads on one shared 8192-version BLOB over RPC: version assignment, log-chain shipping and tree depth decide; payload bytes and disk are bypassed",
    },
    Workload {
        name: "disk_bulk",
        why: "rpc_bulk's exact shape on disk-hosted stores (no fsync): the difference to rpc_bulk is blobseer-disk, and reopen replay and tombstone growth show only here",
    },
    Workload {
        name: "mem_bsfs_mixed",
        why: "one BSFS writer and one reader streaming 16 MiB files in 4 KiB records on a shared in-memory deployment: bsfs and blobseer-core alone, rpc and disk bypassed, writes beside reads",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse;
    /// `None` for per-layer metrics, which are diagnostic.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one.
///
/// ISSUE 11 proposed ±10 % on throughput and latency and +20 % on set-up.
/// The run-to-run spreads measured on the 2-core box this was sized on
/// (perf/README.md, "Steadiness") are 3–12 % on three workloads and
/// 15–20 % on `rpc_append_log`, whose ops are twenty tiny round trips
/// each and follow every drift of the host; a bound must exceed the
/// spread, so every bound is the contract's maximum.
pub const END_TO_END: [Metric; 5] = [
    e2e("write_mibps", "MiB/s", Higher, 0.25),
    e2e("read_mibps", "MiB/s", Higher, 0.25),
    e2e("write_p50_ms", "ms", Lower, 0.25),
    e2e("read_p50_ms", "ms", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
];

/// End to end in ISSUE 11's sense, but outside what `BENCHMARK.json` can
/// hold: its end-to-end metrics must be reported by every workload and
/// never be 0, while `reopen_s` exists on `disk_bulk` only and
/// `op_failure_share` must stay 0. `perf all` reports both beside the five
/// above and `perf compare` judges them; contract runs carry the first as
/// the per-layer `disk.reopen_s` and the second as `failed`/`attempted`.
pub const REPORT_ONLY: [Metric; 2] = [
    e2e("reopen_s", "s", Lower, 0.25),
    e2e("op_failure_share", "ratio", Lower, 0.0),
];

/// One entry per layer counter, timer or isolated probe. Per op unless the
/// README glossary says otherwise; 0 where a workload bypasses the layer.
pub const PER_LAYER: [Metric; 68] = [
    // client protocol (blobseer-core::client), from observer + spans
    layer("client.write.data_ms", "ms", Lower),
    layer("client.write.assign_ms", "ms", Lower),
    layer("client.write.publish_ms", "ms", Lower),
    layer("client.write.commit_ms", "ms", Lower),
    layer("client.write.self_ms", "ms", Lower),
    layer("client.write.p99_ms", "ms", Lower),
    layer("client.write.round_trips", "count", Lower),
    layer("client.write.control_round_trips", "count", Lower),
    layer("client.read.locate_ms", "ms", Lower),
    layer("client.read.fetch_ms", "ms", Lower),
    layer("client.read.self_ms", "ms", Lower),
    layer("client.read.p99_ms", "ms", Lower),
    layer("client.read.round_trips", "count", Lower),
    // version manager
    layer("vm.assign.ms", "ms", Lower),
    layer("vm.commit.ms", "ms", Lower),
    layer("vm.latest.ms", "ms", Lower),
    layer("vm.assign.ticket_bytes", "bytes", Lower),
    layer("vm.assign.ticket_bytes.h1", "bytes", Lower),
    layer("vm.assign.ticket_bytes.h1024", "bytes", Lower),
    layer("vm.assign.ticket_bytes.h8192", "bytes", Lower),
    layer("vm.assign_commit_us.h1", "us", Lower),
    layer("vm.assign_commit_us.h8192", "us", Lower),
    // segment tree + metadata DHT
    layer("meta.put.calls", "count", Lower),
    layer("meta.put.nodes", "count", Lower),
    layer("meta.put.ms", "ms", Lower),
    layer("meta.get.calls", "count", Lower),
    layer("meta.get.nodes", "count", Lower),
    layer("meta.get.ms", "ms", Lower),
    layer("meta.materializer_scan_us.h8192", "us", Lower),
    // block store
    layer("block.put.calls", "count", Lower),
    layer("block.put.bytes", "bytes", Lower),
    layer("block.put.ms", "ms", Lower),
    layer("block.get.calls", "count", Lower),
    layer("block.get.bytes", "bytes", Lower),
    layer("block.get.ms", "ms", Lower),
    layer("block.mem.put_many_mibps", "MiB/s", Higher),
    layer("block.mem.get_many_mibps", "MiB/s", Higher),
    // placement and GC control plane
    layer("placement.allocate.ms", "ms", Lower),
    layer("placement.calls", "count", Lower),
    layer("gc.calls", "count", Lower),
    layer("gc.ms", "ms", Lower),
    // fan-out executor and hot-read cache
    layer("exec.fanout_batches", "count", Lower),
    layer("exec.max_width", "count", Higher),
    layer("cache.hits", "count", Higher),
    layer("cache.misses", "count", Lower),
    // RPC transport and codecs
    layer("rpc.frames_per_write", "count", Lower),
    layer("rpc.frames_per_read", "count", Lower),
    layer("rpc.connections", "count", Lower),
    layer("rpc.inflight_high_watermark", "count", Higher),
    layer("rpc.noop_rtt_us", "us", Lower),
    layer("rpc.block.put_many_mibps", "MiB/s", Higher),
    layer("rpc.block.get_many_mibps", "MiB/s", Higher),
    layer("rpc.frame.write_read_mibps", "MiB/s", Higher),
    layer("types.wire.varint_ns", "ns", Lower),
    // disk backend
    layer("disk.volume.put_many_mibps", "MiB/s", Higher),
    layer("disk.volume.get_many_mibps", "MiB/s", Higher),
    layer("disk.frame.append_mibps", "MiB/s", Higher),
    layer("disk.record_log.put_many_nodes_per_s", "1/s", Higher),
    layer("disk.version_log.assign_commit_us", "us", Lower),
    layer("disk.volume.reopen_mibps", "MiB/s", Higher),
    layer("disk.bytes_on_disk_per_live_byte", "ratio", Lower),
    layer("disk.reopen_s", "s", Lower),
    // replicated control plane
    layer("control.assign_commit_us.r3", "us", Lower),
    // BSFS streams
    layer("bsfs.write.flushes_per_file", "count", Lower),
    layer("bsfs.read.fetches_per_file", "count", Lower),
    layer("bsfs.record_ns", "ns", Lower),
    // the trace itself
    layer("trace.spans", "count", Lower),
    layer("trace.accounted_share", "ratio", Higher),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

pub fn report_only(name: &str) -> Option<&'static Metric> {
    REPORT_ONLY.iter().find(|m| m.name == name)
}

/// The contract's rule for every name: starts with a letter or digit, then
/// letters, digits, `_`, `.` and `-`, at most 64 characters.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The content of `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::Str((*s).into())).collect());
    let metrics = |list: &[Metric]| {
        Json::Arr(
            list.iter()
                .map(|m| {
                    let mut members = vec![
                        ("name", Json::Str(m.name.into())),
                        ("unit", Json::Str(m.unit.into())),
                        ("better", Json::Str(m.better.as_str().into())),
                    ];
                    if let Some(bound) = m.bound {
                        members.push(("bound", Json::Num(bound)));
                    }
                    Json::obj(members)
                })
                .collect(),
        )
    };
    Json::obj([
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "perf/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strs(&["perf"])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj([
                            ("name", Json::Str(w.name.into())),
                            ("why", Json::Str(w.why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("end_to_end", metrics(&END_TO_END)),
        ("per_layer", metrics(&PER_LAYER)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_units_and_whys_fit_the_contract() {
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(valid_name(name), "bad name {name:?}");
            assert!(seen.insert(name), "name {name:?} used twice");
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {:?} on {}",
                m.unit,
                m.name
            );
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn benchmark_json_at_the_repo_root_is_this_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let on_disk = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `cargo run --release -- spec > ../BENCHMARK.json`"
        );
    }
}
