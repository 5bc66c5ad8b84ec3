//! Regenerates Fig. 5: concurrent appends to a shared file — aggregated
//! throughput for 1→250 clients (§V-F). BSFS only: "we could not perform
//! the same experiment for HDFS, since it does not implement the append
//! operation".
//!
//! Pass `--writes` for the §V-F closing ablation: the same harness running
//! block-aligned `write`s at random offsets next to the append curve —
//! "the same experiment performed with writes instead of appends leads to
//! very similar results".

use experiments::{fig5, Constants};

fn main() {
    let [quick, writes] = bench::flags(["--quick", "--writes"]);
    let c = Constants::default();
    let counts = if quick {
        vec![1, 100, 250]
    } else {
        fig5::paper_counts()
    };
    let fig = if writes {
        fig5::run_writes(&c, &counts)
    } else {
        fig5::run(&c, &counts)
    };
    bench::print_figure(&fig);
}
