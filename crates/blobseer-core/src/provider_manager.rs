//! The provider manager: "keeps information about the available storage
//! space and schedules the placement of newly generated blocks" (§III-B).
//!
//! It tracks per-provider load and hands out `(BlockId, [provider indices])`
//! allocations, placing blocks "in a round-robin fashion" over the fixed
//! provider set of the deployment (§V-D). Block ids are drawn from a global
//! atomic counter, which makes them unique without coordination — exactly
//! the property the two-phase write protocol needs (data can be written
//! before the version number exists, §III-D).

use blobseer_types::{BlockId, Error, Result};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// A single block allocation: the id to store under and the providers
/// (dense indices into the deployment's `ProviderSet`) that will hold the
/// replicas, primary first.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockAllocation {
    /// Globally unique id for the new block.
    pub block_id: BlockId,
    /// Replica targets (dense provider indices), primary first.
    pub providers: Vec<usize>,
}

/// The provider manager service — the in-memory adapter behind the
/// [`crate::ports::PlacementService`] port (deployments host it behind an
/// RPC server so N client processes share one load-accounting authority).
#[derive(Debug)]
pub struct ProviderManager {
    loads: Mutex<LoadTable>,
    next_block: AtomicU64,
}

/// The load vector and the round-robin cursor, kept under one lock so an
/// allocation reads and advances both in one step.
#[derive(Debug)]
struct LoadTable {
    /// Blocks allocated (not necessarily yet stored) per provider. Its
    /// length is the provider count, fixed at boot.
    blocks: Vec<u64>,
    /// The provider the next replica's round-robin scan starts at.
    cursor: usize,
}

impl LoadTable {
    /// The next provider in round-robin order that is not in `chosen` (the
    /// replicas already placed for the same block). `chosen` must leave at
    /// least one candidate.
    fn pick(&mut self, chosen: &[usize]) -> usize {
        loop {
            let i = self.cursor;
            self.cursor = (i + 1) % self.blocks.len();
            if !chosen.contains(&i) {
                return i;
            }
        }
    }
}

impl ProviderManager {
    /// Creates a manager over `n_providers` providers.
    pub fn new(n_providers: usize) -> Self {
        Self::with_block_base(n_providers, 1)
    }

    /// Like [`Self::new`], but drawing block ids from `first_block` upward.
    ///
    /// Block ids must be unique across every manager whose blocks land on
    /// the same providers. In-process deployments have exactly one manager,
    /// so `new` starting at 1 suffices; an RPC deployment runs one manager
    /// per *client process* against shared remote providers, and gives each
    /// manager a disjoint id range (`blobseer_rpc::LoopbackCluster::deploy`
    /// spaces them 2^40 apart). Colliding ids would make the providers'
    /// immutable-put check reject — or in release builds silently drop —
    /// one client's blocks.
    pub fn with_block_base(n_providers: usize, first_block: u64) -> Self {
        assert!(n_providers > 0, "need at least one data provider");
        assert!(first_block >= 1, "block ids start at 1");
        let loads = LoadTable {
            blocks: vec![0; n_providers],
            cursor: 0,
        };
        Self {
            loads: Mutex::named(loads, "pm.loads"),
            next_block: AtomicU64::new(first_block),
        }
    }

    /// Number of providers under management, fixed at boot.
    pub fn provider_count(&self) -> usize {
        self.loads.lock().blocks.len()
    }

    /// Liveness ping: returns provider `i`'s currently allocated load, or
    /// an error for an unknown index (a dead or never-registered provider
    /// in a real deployment).
    pub fn heartbeat(&self, provider: usize) -> Result<u64> {
        self.loads
            .lock()
            .blocks
            .get(provider)
            .copied()
            .ok_or_else(|| Error::NoProviderAvailable(format!("heartbeat: no provider {provider}")))
    }

    /// Allocates ids and replica targets for `n_blocks` new blocks.
    ///
    /// Fails when the replication level is 0 (a block with no replica
    /// could never be read back) or exceeds the provider count — "no data
    /// provider available" in the paper's terms. A refused call draws no
    /// id and moves no load.
    pub fn allocate(&self, n_blocks: usize, replication: usize) -> Result<Vec<BlockAllocation>> {
        let mut loads = self.loads.lock();
        let n = loads.blocks.len();
        if replication == 0 {
            return Err(Error::NoProviderAvailable(
                "replication 0 stores no replica".into(),
            ));
        }
        if replication > n {
            return Err(Error::NoProviderAvailable(format!(
                "replication {replication} exceeds provider count {n}"
            )));
        }
        let mut out = Vec::with_capacity(n_blocks);
        for _ in 0..n_blocks {
            let mut providers = Vec::with_capacity(replication);
            for _ in 0..replication {
                let p = loads.pick(&providers);
                loads.blocks[p] += 1;
                providers.push(p);
            }
            let block_id = BlockId::new(self.next_block.fetch_add(1, Ordering::Relaxed));
            out.push(BlockAllocation {
                block_id,
                providers,
            });
        }
        Ok(out)
    }

    /// Releases load accounting for collected blocks (one unit per replica).
    pub fn release(&self, provider: usize) {
        let mut loads = self.loads.lock();
        if let Some(l) = loads.blocks.get_mut(provider) {
            *l = l.saturating_sub(1);
        }
    }

    /// Batched [`Self::release`]: one load unit per entry (entries repeat
    /// per replica), under a single lock acquisition. This is the shape the
    /// hosted placement service wants — a GC delete wave releases all of a
    /// wave's replicas in one control frame instead of one per replica.
    pub fn release_many(&self, providers: &[usize]) {
        let mut loads = self.loads.lock();
        for &p in providers {
            if let Some(l) = loads.blocks.get_mut(p) {
                *l = l.saturating_sub(1);
            }
        }
    }

    /// Copy of the current load vector (blocks allocated per provider).
    pub fn load_vector(&self) -> Vec<u64> {
        self.loads.lock().blocks.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blobseer_types::NodeId;

    #[test]
    fn allocations_are_unique_and_balanced() {
        let pm = ProviderManager::new(4);
        let allocs = pm.allocate(8, 1).unwrap();
        assert_eq!(allocs.len(), 8);
        let mut ids: Vec<u64> = allocs.iter().map(|a| a.block_id.raw()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 8, "block ids must be unique");
        assert_eq!(pm.load_vector(), vec![2, 2, 2, 2]);
    }

    #[test]
    fn replication_fans_out() {
        let pm = ProviderManager::new(5);
        let allocs = pm.allocate(1, 3).unwrap();
        assert_eq!(allocs[0].providers.len(), 3);
        let total: u64 = pm.load_vector().iter().sum();
        assert_eq!(total, 3, "each replica counts toward load");
    }

    #[test]
    fn over_replication_is_an_error() {
        let pm = ProviderManager::new(2);
        assert_eq!(
            pm.allocate(1, 3).unwrap_err(),
            Error::NoProviderAvailable("replication 3 exceeds provider count 2".into())
        );
        for replication in [3, 0] {
            let err = pm.allocate(1, replication).unwrap_err();
            assert!(matches!(err, Error::NoProviderAvailable(_)), "{err}");
            assert_eq!(pm.load_vector(), vec![0, 0], "a refusal moves no load");
        }
        // Nor does it draw an id: the first accepted block is still id 1.
        assert_eq!(pm.allocate(1, 1).unwrap()[0].block_id, BlockId::new(1));
    }

    #[test]
    fn release_decrements_load() {
        let pm = ProviderManager::new(2);
        pm.allocate(4, 1).unwrap();
        pm.release(0);
        assert_eq!(pm.load_vector(), vec![1, 2]);
        pm.release(0);
        pm.release(0); // saturates at zero
        assert_eq!(pm.load_vector(), vec![0, 2]);
    }

    #[test]
    fn release_many_decrements_in_one_pass() {
        let pm = ProviderManager::new(3);
        pm.allocate(6, 1).unwrap();
        assert_eq!(pm.load_vector(), vec![2, 2, 2]);
        // Entries repeat per replica; out-of-range indices are ignored.
        pm.release_many(&[0, 0, 1, 7]);
        assert_eq!(pm.load_vector(), vec![0, 1, 2]);
    }

    #[test]
    fn registration_is_refused() {
        use crate::ports::PlacementService;
        let pm = ProviderManager::new(2);
        pm.allocate(1, 1).unwrap();
        let err = PlacementService::register_provider(&pm, NodeId::new(9)).unwrap_err();
        assert!(
            matches!(err, Error::Unsupported(m) if m.contains("fixed at boot")),
            "{err}"
        );
        assert_eq!(pm.provider_count(), 2);
        assert_eq!(pm.load_vector(), vec![1, 0], "a refusal moves no load");
        // Nor does it draw an id or move the cursor.
        let next = BlockAllocation {
            block_id: BlockId::new(2),
            providers: vec![1],
        };
        assert_eq!(pm.allocate(1, 1).unwrap(), vec![next]);
    }

    #[test]
    fn round_robin_is_perfectly_even() {
        let pm = ProviderManager::new(8);
        pm.allocate(40, 1).unwrap();
        assert_eq!(pm.load_vector(), vec![5; 8]);
        // Uneven totals differ by at most one block.
        let pm = ProviderManager::new(8);
        pm.allocate(42, 1).unwrap();
        let loads = pm.load_vector();
        assert!(loads.iter().all(|&l| l == 5 || l == 6), "{loads:?}");
    }

    #[test]
    fn round_robin_skips_excluded() {
        let mut t = LoadTable {
            blocks: vec![0; 3],
            cursor: 0,
        };
        assert_eq!(t.pick(&[0]), 1);
        assert_eq!(t.pick(&[2]), 0);
    }

    #[test]
    fn replicas_are_distinct() {
        let pm = ProviderManager::new(5);
        for a in pm.allocate(4, 3).unwrap() {
            let mut sorted = a.providers.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "replicas must be distinct: {a:?}");
        }
    }

    #[test]
    fn heartbeat_reports_load_or_unknown_provider() {
        let pm = ProviderManager::new(2);
        pm.allocate(2, 1).unwrap();
        assert_eq!(pm.heartbeat(0).unwrap(), 1);
        let err = pm.heartbeat(5).unwrap_err();
        assert!(matches!(err, Error::NoProviderAvailable(_)), "{err}");
    }

    #[test]
    fn concurrent_allocation_stays_unique() {
        use std::collections::HashSet;
        use std::sync::Arc;
        let pm = Arc::new(ProviderManager::new(8));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let pm = Arc::clone(&pm);
                std::thread::spawn(move || {
                    let mut ids = Vec::new();
                    for _ in 0..50 {
                        for a in pm.allocate(2, 1).unwrap() {
                            ids.push(a.block_id.raw());
                        }
                    }
                    ids
                })
            })
            .collect();
        let mut all = HashSet::new();
        for h in handles {
            for id in h.join().unwrap() {
                assert!(all.insert(id), "duplicate block id {id}");
            }
        }
        assert_eq!(all.len(), 8 * 50 * 2);
        let total: u64 = pm.load_vector().iter().sum();
        assert_eq!(total, 800);
    }
}
