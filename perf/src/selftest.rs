//! Tests that drive whole benchmark runs on smoke sizes: what a run emits
//! is what `BENCHMARK.json` lists, a wrong byte fails the run, and the
//! `--smoke` command passes.

use crate::commands::{self, compare};
use crate::json::Json;
use crate::report::{self, RunReport, RunSpec};
use crate::rig::ScratchDir;
use crate::spec;

fn smoke_run(workload: &str, traced: bool, corrupt: bool) -> RunReport {
    report::run(&RunSpec {
        workload: workload.into(),
        seed: 7,
        seconds: 0.3,
        traced,
        smoke: true,
        corrupt,
    })
    .unwrap_or_else(|e| panic!("{workload}: {e}"))
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

/// `(name, unit)` of every entry of one of BENCHMARK.json's metric lists.
fn listed(doc: &Json, list: &str) -> Vec<(String, String)> {
    doc.get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).expect("field").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_emitted_name_is_valid_and_listed_in_benchmark_json() {
    let doc = benchmark_json();
    for w in &spec::WORKLOADS {
        for (traced, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let report = smoke_run(w.name, traced, false);
            let line = Json::parse(&report.contract_line(traced)).expect("the line is JSON");
            let keys: Vec<&str> = line
                .as_obj()
                .expect("an object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)), "{}", w.name);
            assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
            let emitted: Vec<(String, String)> = line
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics")
                .iter()
                .map(|(name, m)| {
                    assert!(spec::valid_name(name), "bad metric name {name:?}");
                    let value = m.get("value").and_then(Json::as_f64);
                    assert!(
                        value.is_some_and(f64::is_finite),
                        "{}: {name} = {value:?}",
                        w.name
                    );
                    let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                    (name.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(emitted, listed(&doc, list), "{} trace={traced}", w.name);
            if !traced {
                for (name, value) in &report.end_to_end {
                    assert!(*value > 0.0, "{}: {name} must never be 0", w.name);
                }
            }
        }
    }
}

#[test]
fn a_traced_run_accounts_for_its_ops() {
    let report = smoke_run("rpc_bulk", true, false);
    // One create + one 8-block write on 4 providers: 4 data puts, 4 tree
    // levels, assign, commit, latest, create; 3 control frames.
    assert_eq!(report.value("client.write.round_trips"), Some(12.0));
    assert_eq!(report.value("client.write.control_round_trips"), Some(3.0));
    assert_eq!(report.value("block.put.calls"), Some(4.0));
    assert_eq!(report.value("meta.put.nodes"), Some(15.0));
    assert_eq!(report.value("block.get.bytes"), Some(8.0 * 65536.0));
    let accounted = report.value("trace.accounted_share").unwrap();
    assert!(accounted > 0.5 && accounted <= 1.0, "{accounted}");
    for kind in ["write", "read"] {
        let budget = &report.budgets[kind];
        assert!(budget.ops > 0 && budget.all_ports_ns > 0 && budget.self_ns() > 0);
    }
}

#[test]
fn a_corrupted_stamp_fails_the_run() {
    for w in &spec::WORKLOADS {
        let report = smoke_run(w.name, false, true);
        assert!(
            !report.correct(),
            "{}: a flipped byte went unnoticed",
            w.name
        );
        assert_eq!(report.outcome.failed(), 1, "{}", w.name);
        assert!(report.op_failure_share() > 0.0);
        assert!(report
            .contract_line(false)
            .starts_with("{\"correct\":false,"));
    }
}

#[test]
fn the_smoke_command_passes() {
    assert_eq!(crate::smoke(), Ok(true));
}

#[test]
fn counts_repeat_exactly() {
    assert_eq!(commands::counts(3, true), Ok(true));
}

#[test]
fn compare_reads_two_result_files_and_the_bounds() {
    let results = |write: [f64; 3], failures: f64| {
        format!(
            r#"{{"meta": {{"nproc": 2}}, "workloads": {{"rpc_bulk": {{"end_to_end": {{
                "write_mibps": [{}, {}, {}], "op_failure_share": [{failures}]}}}}}}}}"#,
            write[0], write[1], write[2]
        )
    };
    let dir = ScratchDir::new("compare").unwrap();
    let file = |name: &str, text: String| {
        let path = dir.path().join(name);
        std::fs::write(&path, text).unwrap();
        path.display().to_string()
    };
    let base = file("a.json", results([100.0, 101.0, 99.0], 0.0));
    let same = file("b.json", results([98.0, 99.0, 97.0], 0.0));
    let slow = file("c.json", results([60.0, 61.0, 59.0], 0.0));
    let lossy = file("d.json", results([100.0, 101.0, 99.0], 0.001));
    let spec_file = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    assert_eq!(compare(&base, &same, spec_file), Ok(true));
    assert_eq!(compare(&base, &slow, spec_file), Ok(false));
    assert_eq!(compare(&base, &lossy, spec_file), Ok(false));
    assert!(compare(&base, "/nonexistent.json", spec_file).is_err());
}
