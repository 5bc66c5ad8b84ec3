//! Regenerates Fig. 6(b): distributed grep — job completion time as the
//! input grows 6.4→12.8 GB (§V-G).

use experiments::{fig6, Constants};

fn main() {
    let [quick] = bench::flags(["--quick"]);
    let c = Constants::default();
    let sizes = if quick {
        vec![6.4, 12.8]
    } else {
        fig6::grep_paper_sizes()
    };
    bench::print_figure(&fig6::run_grep(&c, &sizes));
}
