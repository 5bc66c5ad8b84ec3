//! The calibration sweeps behind docs/REPRODUCING.md: each varies one
//! calibrated knob and prints the figure point it moves, so the
//! sensitivity of the reproduced curves is itself a recorded artifact.
//!
//! * HDFS placement stickiness → Fig. 3(b)'s HDFS unbalance at 16 GB, on
//!   the `hdfs-sim` namenode the figure plots (65 is the default);
//! * metadata-provider count → Fig. 5's aggregate at 250 appenders (20 is
//!   the default). Flat here, so not §III-A.3's claim shown: appenders
//!   reach the metadata phase one 4 ms assignment apart, and an append's
//!   ~1.4 ms of metadata work ends inside that gap;
//! * version-manager assignment service time → the same point, the knee
//!   of Fig. 5's curve (4 ms is the default).
//!
//! At the defaults each sweep reproduces the pinned figure point
//! (`tests/fixtures/figures.txt`). §V-F's append-vs-write ablation is
//! `fig5 --writes`.

use experiments::{fig3b, fig5, Backend, Constants, Figure, Series};
use hdfs_sim::HdfsConfig;
use simnet::SimDuration;

/// Fig. 5's largest client count.
const APPENDERS: usize = 250;

fn main() {
    let [] = bench::flags([]);
    let c = Constants::default();
    bench::print_figure(&stickiness(&c));
    bench::print_figure(&fig5_sweep(
        "metadata providers",
        "Fig. 5 at 250 appenders vs metadata-provider count (§III-A.3)",
        &[1, 5, 10, 20, 40],
        |shards| Constants {
            meta_shards: shards as usize,
            ..c.clone()
        },
    ));
    bench::print_figure(&fig5_sweep(
        "VM service (ms)",
        "Fig. 5 at 250 appenders vs version-manager assignment service time",
        &[1, 2, 4, 8, 16],
        |ms| Constants {
            vm_assign_svc: SimDuration::from_millis(ms),
            ..c.clone()
        },
    ));
}

/// Fig. 3(b)'s HDFS point at 16 GB against `HdfsConfig::placement_stickiness`.
fn stickiness(c: &Constants) -> Figure {
    let mut fig = Figure::new(
        "Ablation: stickiness",
        "Fig. 3(b) HDFS unbalance at 16 GB vs placement stickiness (§V-D)",
        "stickiness (%)",
        "degree of unbalance (Manhattan)",
    );
    let n_blocks = (16 << 30) / c.block_bytes;
    let datanodes = Backend::Hdfs.microbench_storage_nodes();
    let mut series = Series::new("HDFS");
    for stickiness in [0u8, 20, 40, 55, 65, 80] {
        let cfg = HdfsConfig {
            placement_stickiness: stickiness,
            ..HdfsConfig::default()
        };
        let u = Backend::Hdfs.point(fig3b::SEED, |seed| {
            fig3b::hdfs_unbalance_of(cfg.clone(), n_blocks, datanodes, seed)
        });
        series.push(stickiness as f64, u);
    }
    fig.series.push(series);
    fig
}

/// Fig. 5's aggregate at [`APPENDERS`] appenders, once per knob setting.
fn fig5_sweep(
    x_label: &str,
    title: &str,
    settings: &[u64],
    constants: impl Fn(u64) -> Constants,
) -> Figure {
    let mut fig = Figure::new(
        &format!("Ablation: {x_label}"),
        title,
        x_label,
        "aggregated throughput (MB/s)",
    );
    let mut series = Series::new("BSFS");
    for &x in settings {
        let mbps = fig5::aggregated_mbps(&constants(x), fig5::OpMode::Append, APPENDERS);
        series.push(x as f64, mbps);
    }
    fig.series.push(series);
    fig
}
