//! Fig. 3(b): load-balancing quality of the block placement, measured as
//! the Manhattan distance between the data-layout vector and a perfectly
//! balanced layout (§V-D).
//!
//! Both series come from **real placement code**: each run writes the file
//! block by block from a remote client and measures the resulting layout
//! vector, at the paper's scale: 1→16 GB files striped in 64 MB blocks.
//! The BSFS series appends through `BlobClient::append` on the harness
//! deployment ([`crate::concurrent`], cost charging left off — only the
//! layout matters here), so the layout is the live provider manager's
//! round-robin allocation stream over 247 providers. The HDFS series
//! writes through `hdfs-sim`'s client, so the layout is its namenode's
//! sticky-random session placement over 269 datanodes. Averages 5
//! repetitions like the paper.

use crate::concurrent;
use crate::constants::Constants;
use crate::report::{Figure, Series};
use crate::topology::Backend;
use hdfs_sim::HdfsConfig;

/// Repetitions per point ("these steps are repeated 5 times", §V-C).
pub const REPETITIONS: u64 = 5;

/// Real engine block size behind each modeled 64 MB block: the unbalance
/// metric only depends on the placement stream, so the payloads stay tiny.
const REAL_BLOCK: u64 = 64;

/// The paper's load-balance metric (§V-D): the Manhattan distance between a
/// layout vector and the perfectly balanced layout (every provider stores
/// `total/n` blocks, fractional).
pub fn manhattan_unbalance(layout: &[u64]) -> f64 {
    if layout.is_empty() {
        return 0.0;
    }
    let total: u64 = layout.iter().sum();
    let ideal = total as f64 / layout.len() as f64;
    layout.iter().map(|&c| (c as f64 - ideal).abs()).sum()
}

/// Unbalance of one BSFS run (the provider manager's round-robin stream),
/// measured off the real deployment's layout vector after writing the file
/// through the client.
pub fn unbalance_of(n_blocks: u64, n_providers: usize) -> f64 {
    let dep = concurrent::deploy(&Constants::default(), n_providers, n_providers, REAL_BLOCK);
    let client = dep.sys.client(blobseer_types::NodeId::new(0));
    let blob = client.create();
    let payload = vec![0u8; REAL_BLOCK as usize];
    for _ in 0..n_blocks {
        client.append(blob, &payload).unwrap();
    }
    manhattan_unbalance(&dep.sys.layout_vector())
}

/// Unbalance of one HDFS run under `cfg` (its chunk size aside), measured
/// off the namenode's layout vector after a remote client wrote the file.
pub fn hdfs_unbalance_of(cfg: HdfsConfig, n_blocks: u64, n_datanodes: usize, seed: u64) -> f64 {
    let cfg = cfg.with_chunk_size(REAL_BLOCK);
    let dep = concurrent::deploy_hdfs(&Constants::default(), cfg, n_datanodes, n_datanodes, seed);
    dep.boot("/fig3b", &vec![0u8; (n_blocks * REAL_BLOCK) as usize]);
    manhattan_unbalance(&dep.cluster.layout_vector())
}

/// Mean of `unbalance(seed)` over the standard repetitions.
pub fn mean_unbalance(unbalance: impl Fn(u64) -> f64) -> f64 {
    (0..REPETITIONS)
        .map(|rep| unbalance(0xF163B + rep))
        .sum::<f64>()
        / REPETITIONS as f64
}

/// Reproduces Fig. 3(b): unbalance vs file size (GB).
pub fn run(c: &Constants, sizes_gb: &[f64]) -> Figure {
    let mut fig = Figure::new(
        "Fig. 3(b)",
        "Load-balancing evaluation (single writer)",
        "file size (GB)",
        "degree of unbalance (Manhattan)",
    );
    for backend in [Backend::Hdfs, Backend::Bsfs] {
        let providers = backend.microbench_storage_nodes();
        let mut series = Series::new(backend.label());
        for &gb in sizes_gb {
            let n_blocks = ((gb * 1024.0 * 1024.0 * 1024.0) / c.block_bytes as f64).round() as u64;
            let unbalance = |seed| match backend {
                Backend::Bsfs => unbalance_of(n_blocks, providers),
                Backend::Hdfs => {
                    hdfs_unbalance_of(HdfsConfig::default(), n_blocks, providers, seed)
                }
            };
            series.push(gb, mean_unbalance(unbalance));
        }
        fig.series.push(series);
    }
    fig
}

/// The standard x grid of the figure: 1 → 16 GB.
pub fn paper_sizes() -> Vec<f64> {
    (1..=16).map(|g| g as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hdfs_unbalance_dominates_bsfs_and_grows() {
        // At small sizes both policies sit near the metric's floor (with
        // b ≪ n blocks even a perfect placement has Manhattan distance
        // 2·b·(1−b/n) to the fractional ideal); the curves separate as the
        // file grows — exactly the divergence Fig. 3(b) plots.
        let c = Constants::default();
        let fig = run(&c, &[2.0, 8.0, 16.0]);
        let hdfs = &fig.series[0];
        let bsfs = &fig.series[1];
        assert!(hdfs.y_at(8.0).unwrap() > 1.5 * bsfs.y_at(8.0).unwrap());
        assert!(hdfs.y_at(16.0).unwrap() > 5.0 * bsfs.y_at(16.0).unwrap());
        // HDFS unbalance grows with file size (Fig. 3(b)'s rising curve);
        // BSFS stays near the floor everywhere.
        assert!(hdfs.y_at(16.0).unwrap() > hdfs.y_at(2.0).unwrap() * 2.0);
        let floor = |blocks: f64, n: f64| 2.0 * blocks * (1.0 - blocks / n);
        let b8 = bsfs.y_at(8.0).unwrap();
        assert!(b8 <= floor(128.0, 247.0) + 1e-6, "BSFS at floor: {b8}");
    }

    #[test]
    fn bsfs_round_robin_is_nearly_ideal() {
        // 16 GB = 256 blocks over 247 providers: 9 providers hold 2 blocks,
        // the rest 1 → tiny fractional unbalance only.
        let u = mean_unbalance(|_| unbalance_of(256, 247));
        let ideal = 256.0 / 247.0;
        let expected = 9.0 * (2.0 - ideal) + 238.0 * (ideal - 1.0);
        assert!((u - expected).abs() < 1e-6, "u={u} expected={expected}");
    }

    #[test]
    fn magnitudes_match_the_paper_at_16gb() {
        // Paper: HDFS ≈ 450 (and growing), BSFS ≈ 50 at 16 GB.
        let c = Constants::default();
        let fig = run(&c, &[16.0]);
        let hdfs = fig.series[0].y_at(16.0).unwrap();
        let bsfs = fig.series[1].y_at(16.0).unwrap();
        assert!((300.0..600.0).contains(&hdfs), "HDFS at 16 GB: {hdfs}");
        assert!(bsfs < 60.0, "BSFS at 16 GB: {bsfs}");
    }

    #[test]
    fn unbalance_metric() {
        assert_eq!(manhattan_unbalance(&[]), 0.0);
        assert_eq!(manhattan_unbalance(&[3, 3, 3]), 0.0);
        // [4,2] vs ideal [3,3] → |4-3|+|2-3| = 2.
        assert_eq!(manhattan_unbalance(&[4, 2]), 2.0);
        // Fractional ideal: 3 blocks on 2 nodes → ideal 1.5 each.
        assert_eq!(manhattan_unbalance(&[3, 0]), 3.0);
        assert_eq!(manhattan_unbalance(&[2, 1]), 1.0);
    }

    #[test]
    fn repetitions_are_deterministic() {
        let c = Constants::default();
        let a = run(&c, &[4.0]).series[0].y_at(4.0).unwrap();
        let b = run(&c, &[4.0]).series[0].y_at(4.0).unwrap();
        assert_eq!(a, b);
    }
}
