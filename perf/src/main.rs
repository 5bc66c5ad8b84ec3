//! `perf` — the repo's benchmark. See `perf/README.md`.
//!
//! ```text
//! perf --workload W --seed N --seconds S --trace 0|1    one contract run
//! perf all [--workload W] [--seed N] [--seconds S] [--runs K] [--out FILE]
//! perf layers [--seed N] [--seconds S]
//! perf counts [--seed N]
//! perf compare A.json B.json [--spec BENCHMARK.json]
//! perf spec                                             prints BENCHMARK.json
//! perf --smoke                                          everything, tiny, < 5 s
//! ```

mod commands;
mod json;
mod payload;
mod ports;
mod probes;
mod report;
mod rig;
#[cfg(test)]
mod selftest;
mod spec;
mod stats;
mod trace;
mod workload;

use report::RunSpec;
use std::process::ExitCode;

/// Any error as the message this program reports it with.
fn err_str(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// `--key value` options and bare flags after the subcommand.
struct Options {
    positional: Vec<String>,
    named: Vec<(String, Option<String>)>,
}

const FLAGS: [&str; 2] = ["--smoke", "--corrupt-stamp"];

impl Options {
    fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut options = Options {
            positional: Vec::new(),
            named: Vec::new(),
        };
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            if FLAGS.contains(&arg.as_str()) {
                options.named.push((arg, None));
            } else if arg.starts_with("--") {
                let value = args.next().ok_or_else(|| format!("{arg} needs a value"))?;
                options.named.push((arg, Some(value)));
            } else {
                options.positional.push(arg);
            }
        }
        Ok(options)
    }

    fn flag(&self, name: &str) -> bool {
        self.named.iter().any(|(k, _)| k == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.named
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("{name}: cannot read {text:?}")),
        }
    }
}

/// One contract run: human-readable lines, then the JSON line.
fn contract_run(options: &Options, workload: &str) -> Result<bool, String> {
    if spec::workload(workload).is_none() {
        let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("unknown workload {workload:?}; one of {known:?}"));
    }
    let smoke = options.flag("--smoke");
    let run = RunSpec {
        workload: workload.into(),
        seed: options.number("--seed", 1)?,
        seconds: options.number(
            "--seconds",
            if smoke { 0.4 } else { spec::RUN_SECONDS as f64 },
        )?,
        traced: options.number::<u8>("--trace", 0)? != 0,
        smoke,
        corrupt: options.flag("--corrupt-stamp"),
    };
    if !(run.seconds > 0.0 && run.seconds <= 60.0) {
        return Err(format!("--seconds {} is outside (0, 60]", run.seconds));
    }
    let report = report::run(&run)?;
    report::print_human(&run, &report);
    println!("{}", report.contract_line(run.traced));
    Ok(report.correct())
}

/// `perf --smoke`: every workload untraced and traced, the counts and the
/// layer table, all on tiny sizes.
fn smoke() -> Result<bool, String> {
    let mut ok = commands::all(&commands::AllArgs {
        workload: None,
        seed: 1,
        seconds: 0.3,
        runs: 1,
        smoke: true,
        out: Some(rig::out_dir().join("smoke.json").display().to_string()),
    })?;
    ok &= commands::layers(1, 0.3, true)?;
    Ok(ok)
}

fn dispatch() -> Result<bool, String> {
    let options = Options::parse(std::env::args().skip(1))?;
    let smoke_flag = options.flag("--smoke");
    match options.positional.first().map(String::as_str) {
        None => match options.value("--workload") {
            Some(workload) => contract_run(&options, workload),
            None if smoke_flag => smoke(),
            None => Err("nothing to do; see perf/README.md".into()),
        },
        Some("all") => commands::all(&commands::AllArgs {
            workload: options.value("--workload").map(String::from),
            seed: options.number("--seed", 1)?,
            seconds: options.number(
                "--seconds",
                if smoke_flag {
                    0.3
                } else {
                    spec::RUN_SECONDS as f64
                },
            )?,
            runs: options.number("--runs", 1)?,
            smoke: smoke_flag,
            out: options.value("--out").map(String::from),
        }),
        Some("layers") => commands::layers(
            options.number("--seed", 1)?,
            options.number("--seconds", if smoke_flag { 0.3 } else { 6.0 })?,
            smoke_flag,
        ),
        Some("counts") => commands::counts(options.number("--seed", 1)?, smoke_flag),
        Some("compare") => match options.positional.as_slice() {
            [_, a, b] => {
                commands::compare(a, b, options.value("--spec").unwrap_or("BENCHMARK.json"))
            }
            _ => Err("usage: perf compare A.json B.json [--spec BENCHMARK.json]".into()),
        },
        Some("spec") => {
            print!("{}", spec::benchmark_json().pretty());
            Ok(true)
        }
        Some(other) => Err(format!("unknown command {other:?}; see perf/README.md")),
    }
}

/// Pins glibc malloc's mmap and trim thresholds.
///
/// Left alone, glibc adapts both to the sizes the process frees. The bulk
/// workloads allocate and free 4 MiB buffers per op, and depending on
/// where the thresholds happen to settle those buffers are either reused
/// from the heap or mapped, faulted in and trimmed away again on every op:
/// the same binary then runs a whole phase at ~850 or at ~600 MiB/s
/// (perf/README.md, "Hazards"). A ruler cannot be bimodal, so the benchmark
/// process fixes the policy — serve them from the heap, never trim — before
/// it starts a thread. The product's allocation pattern is unchanged and
/// still what is measured.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_allocator_thresholds() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` is glibc's documented tuning call; it takes two
    // plain integers, and it runs here before any other thread exists.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, 256 << 20);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_allocator_thresholds() {}

fn main() -> ExitCode {
    pin_allocator_thresholds();
    match dispatch() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perf: FAILED (failed ops, wrong bytes, a count that moved, or a metric worse than its bound)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}
