//! Regenerates Fig. 3(b): load-balancing quality (Manhattan distance to
//! the ideal layout) as the file grows 1→16 GB (§V-D).

use experiments::{fig3b, Constants};

fn main() {
    let [quick] = bench::flags(["--quick"]);
    let c = Constants::default();
    let sizes = if quick {
        vec![2.0, 8.0, 16.0]
    } else {
        fig3b::paper_sizes()
    };
    bench::print_figure(&fig3b::run(&c, &sizes));
}
