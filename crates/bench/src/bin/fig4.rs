//! Regenerates Fig. 4: concurrent readers of a shared file — average
//! per-client throughput for 1→250 clients (§V-E).

use experiments::{fig4, Constants};

fn main() {
    let [quick, verbose] = bench::flags(["--quick", "--verbose"]);
    let c = Constants::default();
    let counts = if quick {
        vec![1, 100, 250]
    } else {
        fig4::paper_counts()
    };
    bench::print_figure(&fig4::run(&c, &counts));
    if verbose {
        println!("--- diagnostics ---");
        println!("{}", experiments::lock_stats_line());
    }
}
