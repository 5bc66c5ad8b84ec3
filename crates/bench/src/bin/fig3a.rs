//! Regenerates Fig. 3(a): single writer, single file — write throughput as
//! the file grows 1→16 GB (§V-D).

use experiments::{fig3a, Constants};

fn main() {
    let [quick] = bench::flags(["--quick"]);
    let c = Constants::default();
    let sizes = if quick {
        vec![1.0, 8.0, 16.0]
    } else {
        fig3a::paper_sizes()
    };
    bench::print_figure(&fig3a::run(&c, &sizes));
}
