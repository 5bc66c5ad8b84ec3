//! `experiments` — the figure-scale reproduction of the paper's evaluation
//! (§V) on the discrete-event simulator.
//!
//! Every module regenerates one figure:
//!
//! | Module | Paper figure | Scenario |
//! |---|---|---|
//! | [`fig3a`] | Fig. 3(a) | single writer, 1→16 GB file, 270 machines |
//! | [`fig3b`] | Fig. 3(b) | placement unbalance (Manhattan distance) |
//! | [`fig4`]  | Fig. 4    | 1→250 concurrent readers, shared file |
//! | [`fig5`]  | Fig. 5    | 1→250 concurrent appenders, shared BLOB |
//! | [`fig6`]  | Fig. 6(a)/(b) | RandomTextWriter & distributed grep |
//!
//! Every BSFS curve now runs the **real client protocol** through one
//! harness, [`concurrent`]: the single-writer figures (3a/3b) deploy it
//! with a single client thread, the concurrent-client figures (4, 5, 6)
//! with up to 250 — so the version-manager FIFO, tree-descent hops and
//! disk/flow contention *emerge* from the live code under the §V cost
//! model instead of being hand-computed per figure, and the cost
//! arithmetic cannot drift between figures.
//!
//! Every HDFS comparison leg runs `hdfs-sim`'s real namenode and
//! datanodes ([`concurrent::HdfsDeployment`]): placement, leases, chunk
//! lists and chunk storage are HDFS's own code, and this crate keeps only
//! their costs, charged on the same fabric — gate, disks, streaming rule
//! and central queue — the BSFS legs pay.
//! Fig. 6(b)'s tasktracker slots claim map tasks through `mapreduce`'s
//! one assignment rule, the rule its `JobTracker` runs. Each HDFS point
//! averages 5 seeded runs; the BSFS legs take no seed, so each BSFS point
//! is one run ([`Backend::point`]).
//! Calibrated constants live in [`constants`]; `docs/REPRODUCING.md` maps
//! every figure to its driver, expected band, and real-vs-modeled layers.
#![forbid(unsafe_code)]

pub mod concurrent;
pub mod constants;
pub mod fig3a;
pub mod fig3b;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod report;
pub mod topology;

pub use constants::Constants;

/// One-line report of the process-wide lock contention counters, as
/// surfaced on [`blobseer_core::stats::StatsSnapshot`] — printed by the
/// figure drivers under `--verbose`. The counters come from the
/// instrumented `parking_lot` shim and cover every lock in the process,
/// not just the engine the snapshot was taken from.
pub fn lock_stats_line() -> String {
    let snap = blobseer_core::stats::EngineStats::new().snapshot();
    format!(
        "lock_contended_acquires={} lock_max_wait_ns={}",
        snap.lock_contended_acquires, snap.lock_max_wait_ns
    )
}
pub use report::{Figure, Series};
pub use topology::Backend;
