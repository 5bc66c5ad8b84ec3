//! Regenerates Fig. 6(a): RandomTextWriter — job completion time for a
//! fixed 6.4 GB total output as the per-mapper share varies (§V-G).

use experiments::{fig6, Constants};

fn main() {
    let [quick] = bench::flags(["--quick"]);
    let c = Constants::default();
    let mappers = if quick {
        vec![50, 5, 1]
    } else {
        fig6::rtw_paper_mappers()
    };
    bench::print_figure(&fig6::run_rtw(&c, &mappers));
}
