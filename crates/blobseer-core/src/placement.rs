//! Block placement policies.
//!
//! The provider manager "selects the data providers according to a load
//! balancing strategy that aims at evenly distributing the blocks across
//! data providers" (§III-B); BlobSeer's default allocates "blocks on remote
//! providers in a round-robin fashion" (§V-D). The HDFS baseline and the
//! figure-scale experiment models share this module so the live engine and
//! the simulator cannot drift apart — Fig. 3(b) is generated directly from
//! these policies.

use blobseer_types::config::PlacementPolicy;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Stateful placement engine: one per allocation stream (the provider
/// manager owns one; HDFS write sessions own one each, which is what gives
/// the sticky policy its session affinity).
#[derive(Debug)]
pub struct Placer {
    policy: PlacementPolicy,
    rr_next: usize,
    last: Option<usize>,
    rng: StdRng,
}

impl Placer {
    /// Creates a placer with a deterministic RNG seed (experiments pass
    /// distinct seeds per run; the live engine seeds from entropy).
    pub fn new(policy: PlacementPolicy, seed: u64) -> Self {
        Self {
            policy,
            rr_next: 0,
            last: None,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Picks a provider index in `0..n` for the next block.
    ///
    /// * `exclude` — indices that must not be chosen (already-placed
    ///   replicas of the same block). Must leave at least one candidate.
    pub fn pick(&mut self, n: usize, exclude: &[usize]) -> usize {
        assert!(n > 0, "no providers to place on");
        assert!(exclude.len() < n, "exclusion list leaves no candidate");
        match self.policy {
            PlacementPolicy::RoundRobin => loop {
                let i = self.rr_next % n;
                self.rr_next = (self.rr_next + 1) % n;
                if !exclude.contains(&i) {
                    return i;
                }
            },
            PlacementPolicy::StickyRandom { stickiness } => {
                if let Some(last) = self.last {
                    let stick = self.rng.gen_range(0u8..100) < stickiness;
                    if stick && last < n && !exclude.contains(&last) {
                        self.last = Some(last);
                        return last;
                    }
                }
                let i = self.pick_random(n, exclude);
                self.last = Some(i);
                i
            }
        }
    }

    fn pick_random(&mut self, n: usize, exclude: &[usize]) -> usize {
        loop {
            let i = self.rng.gen_range(0..n);
            if !exclude.contains(&i) {
                return i;
            }
        }
    }

    /// Places one block with `replication` replicas on distinct providers
    /// among `n`.
    pub fn pick_replicas(&mut self, n: usize, replication: usize) -> Vec<usize> {
        assert!(
            replication <= n,
            "replication {replication} exceeds provider count {n}"
        );
        let mut chosen = Vec::with_capacity(replication);
        for _ in 0..replication {
            let i = self.pick(n, &chosen);
            chosen.push(i);
        }
        chosen
    }
}

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

#[cfg(test)]
mod tests {
    use super::*;

    fn place_n(
        policy: PlacementPolicy,
        n_blocks: usize,
        n_providers: usize,
        seed: u64,
    ) -> Vec<u64> {
        let mut placer = Placer::new(policy, seed);
        let mut loads = vec![0u64; n_providers];
        for _ in 0..n_blocks {
            let i = placer.pick(n_providers, &[]);
            loads[i] += 1;
        }
        loads
    }

    #[test]
    fn round_robin_is_perfectly_even() {
        let loads = place_n(PlacementPolicy::RoundRobin, 40, 8, 0);
        assert!(loads.iter().all(|&l| l == 5), "{loads:?}");
        // Uneven totals differ by at most one block.
        let loads = place_n(PlacementPolicy::RoundRobin, 42, 8, 0);
        assert!(loads.iter().all(|&l| l == 5 || l == 6), "{loads:?}");
    }

    #[test]
    fn round_robin_skips_excluded() {
        let mut p = Placer::new(PlacementPolicy::RoundRobin, 0);
        assert_eq!(p.pick(3, &[0]), 1);
        assert_eq!(p.pick(3, &[2]), 0);
    }

    #[test]
    fn sticky_random_is_reproducible_per_seed() {
        let policy = PlacementPolicy::StickyRandom { stickiness: 65 };
        let a = place_n(policy, 100, 10, 42);
        let b = place_n(policy, 100, 10, 42);
        assert_eq!(a, b);
        let c = place_n(policy, 100, 10, 43);
        assert_ne!(a, c, "different seed, different stream (overwhelmingly)");
    }

    #[test]
    fn sticky_random_clusters_more_than_random() {
        // With heavy stickiness, consecutive blocks pile onto few providers;
        // unbalance must exceed stickiness 0 (plain random placement) for
        // the same seed set.
        let mut sticky_unbalance = 0.0;
        let mut random_unbalance = 0.0;
        for seed in 0..20 {
            let s = place_n(
                PlacementPolicy::StickyRandom { stickiness: 80 },
                200,
                50,
                seed,
            );
            let r = place_n(
                PlacementPolicy::StickyRandom { stickiness: 0 },
                200,
                50,
                seed,
            );
            sticky_unbalance += manhattan_unbalance(&s);
            random_unbalance += manhattan_unbalance(&r);
        }
        assert!(
            sticky_unbalance > random_unbalance * 1.2,
            "sticky {sticky_unbalance} should exceed random {random_unbalance}"
        );
    }

    #[test]
    fn replicas_are_distinct() {
        for policy in [
            PlacementPolicy::RoundRobin,
            PlacementPolicy::StickyRandom { stickiness: 90 },
        ] {
            let mut p = Placer::new(policy, 1);
            let reps = p.pick_replicas(5, 3);
            assert_eq!(reps.len(), 3);
            let mut sorted = reps.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "replicas must be distinct: {reps:?}");
        }
    }

    #[test]
    #[should_panic(expected = "replication 4 exceeds provider count 3")]
    fn too_much_replication_panics() {
        let mut p = Placer::new(PlacementPolicy::RoundRobin, 0);
        p.pick_replicas(3, 4);
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
}
