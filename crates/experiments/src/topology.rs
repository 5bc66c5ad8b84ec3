//! Deployment topologies of the paper's experiments (§V).

/// The microbenchmark deployment (§V-C): 270 machines per cluster.
pub const MICROBENCH_MACHINES: usize = 270;

/// Datanodes available to HDFS in the microbenchmarks: one machine is the
/// namenode, the rest run datanodes.
pub const HDFS_DATANODES: usize = MICROBENCH_MACHINES - 1;

/// Data providers available to BSFS in the microbenchmarks: one version
/// manager, one provider manager, one namespace manager, 20 metadata
/// providers; the rest are data providers (§V-C).
pub const BSFS_PROVIDERS: usize = MICROBENCH_MACHINES - 3 - 20;

/// Seeded runs averaged per HDFS figure point ("these steps are repeated
/// 5 times", §V-C).
pub const REPETITIONS: u64 = 5;

/// Which storage stack a model run exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    Bsfs,
    Hdfs,
}

impl Backend {
    /// Label for report series.
    pub fn label(self) -> &'static str {
        match self {
            Backend::Bsfs => "BSFS",
            Backend::Hdfs => "HDFS",
        }
    }

    /// One figure point: `run(seed)` once for BSFS, whose leg takes no
    /// seed and is deterministic, and the mean over [`REPETITIONS`] seeds
    /// from `base_seed` for HDFS, whose namenode places sticky-randomly.
    pub fn point(self, base_seed: u64, run: impl Fn(u64) -> f64) -> f64 {
        match self {
            Backend::Bsfs => run(base_seed),
            Backend::Hdfs => {
                let seeds = base_seed..base_seed + REPETITIONS;
                seeds.map(run).sum::<f64>() / REPETITIONS as f64
            }
        }
    }

    /// Storage nodes available in the 270-machine microbenchmark setup.
    pub fn microbench_storage_nodes(self) -> usize {
        match self {
            Backend::Bsfs => BSFS_PROVIDERS,
            Backend::Hdfs => HDFS_DATANODES,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_matches_section_v() {
        assert_eq!(MICROBENCH_MACHINES, 270);
        assert_eq!(HDFS_DATANODES, 269);
        assert_eq!(BSFS_PROVIDERS, 247);
        assert_eq!(Backend::Bsfs.microbench_storage_nodes(), 247);
        assert_eq!(Backend::Hdfs.microbench_storage_nodes(), 269);
    }
}
