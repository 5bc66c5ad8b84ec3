//! Regenerates every figure of the paper's evaluation section in one run —
//! the data behind docs/REPRODUCING.md. `tests/fixtures/figures.txt` pins
//! its full-grid output byte for byte.

use experiments::{fig3a, fig3b, fig4, fig5, fig6, Constants};

fn main() {
    let [quick] = bench::flags(["--quick"]);
    let c = Constants::default();

    let fig = if quick {
        fig3a::run(&c, &[1.0, 8.0, 16.0])
    } else {
        fig3a::run(&c, &fig3a::paper_sizes())
    };
    bench::print_figure(&fig);

    let fig = if quick {
        fig3b::run(&c, &[2.0, 8.0, 16.0])
    } else {
        fig3b::run(&c, &fig3b::paper_sizes())
    };
    bench::print_figure(&fig);

    let counts = if quick {
        vec![1, 100, 250]
    } else {
        fig4::paper_counts()
    };
    bench::print_figure(&fig4::run(&c, &counts));

    let counts = if quick {
        vec![1, 100, 250]
    } else {
        fig5::paper_counts()
    };
    bench::print_figure(&fig5::run(&c, &counts));

    let mappers = if quick {
        vec![50, 5, 1]
    } else {
        fig6::rtw_paper_mappers()
    };
    bench::print_figure(&fig6::run_rtw(&c, &mappers));

    let sizes = if quick {
        vec![6.4, 12.8]
    } else {
        fig6::grep_paper_sizes()
    };
    bench::print_figure(&fig6::run_grep(&c, &sizes));
}
