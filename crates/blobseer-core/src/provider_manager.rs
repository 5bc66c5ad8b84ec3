//! The provider manager: "keeps information about the available storage
//! space and schedules the placement of newly generated blocks" (§III-B).
//!
//! It tracks per-provider load and hands out `(BlockId, [provider indices])`
//! allocations. Block ids are drawn from a global atomic counter, which
//! makes them unique without coordination — exactly the property the
//! two-phase write protocol needs (data can be written before the version
//! number exists, §III-D).

use crate::placement::Placer;
use blobseer_types::config::PlacementPolicy;
use blobseer_types::{BlockId, Error, NodeId, Result};
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
    placer: Mutex<Placer>,
    /// Blocks allocated (not necessarily yet stored) per provider; the load
    /// signal for placement decisions. Its length is the authoritative
    /// provider count ([`Self::register_provider`] grows it).
    loads: Mutex<Vec<u64>>,
    next_block: AtomicU64,
    /// Nodes hosting dynamically registered providers, parallel to the
    /// tail of `loads` past the initially configured count.
    registered: Mutex<Vec<NodeId>>,
}

impl ProviderManager {
    /// Creates a manager over `n_providers` providers with the given policy.
    pub fn new(n_providers: usize, policy: PlacementPolicy, seed: u64) -> Self {
        Self::with_block_base(n_providers, policy, seed, 1)
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
    pub fn with_block_base(
        n_providers: usize,
        policy: PlacementPolicy,
        seed: u64,
        first_block: u64,
    ) -> Self {
        assert!(n_providers > 0, "need at least one data provider");
        assert!(first_block >= 1, "block ids start at 1");
        Self {
            placer: Mutex::named(Placer::new(policy, seed), "pm.placer"),
            loads: Mutex::named(vec![0; n_providers], "pm.loads"),
            next_block: AtomicU64::new(first_block),
            registered: Mutex::named(Vec::new(), "pm.registered"),
        }
    }

    /// Number of providers under management (initial count plus any
    /// dynamically registered since).
    pub fn provider_count(&self) -> usize {
        self.loads.lock().len()
    }

    /// Registers a new provider hosted on `node`, growing the placement
    /// and load-accounting state; returns the provider's dense index.
    pub fn register_provider(&self, node: NodeId) -> usize {
        // Lock order placer → loads, same as `allocate`, so a concurrent
        // allocation observes either the old or the new provider count
        // consistently in both structures.
        let placer = self.placer.lock();
        let mut loads = self.loads.lock();
        let index = loads.len();
        loads.push(0);
        drop(placer);
        self.registered.lock().push(node);
        index
    }

    /// Nodes of providers added through [`Self::register_provider`], in
    /// registration order.
    pub fn registered_nodes(&self) -> Vec<NodeId> {
        self.registered.lock().clone()
    }

    /// Liveness ping: returns provider `i`'s currently allocated load, or
    /// an error for an unknown index (a dead or never-registered provider
    /// in a real deployment).
    pub fn heartbeat(&self, provider: usize) -> Result<u64> {
        self.loads
            .lock()
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
        let mut placer = self.placer.lock();
        let mut loads = self.loads.lock();
        let n = loads.len();
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
            let providers = placer.pick_replicas(n, replication);
            for &p in &providers {
                loads[p] += 1;
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
        if let Some(l) = loads.get_mut(provider) {
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
            if let Some(l) = loads.get_mut(p) {
                *l = l.saturating_sub(1);
            }
        }
    }

    /// Copy of the current load vector (blocks allocated per provider).
    pub fn load_vector(&self) -> Vec<u64> {
        self.loads.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_unique_and_balanced() {
        let pm = ProviderManager::new(4, PlacementPolicy::RoundRobin, 0);
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
        let pm = ProviderManager::new(5, PlacementPolicy::RoundRobin, 0);
        let allocs = pm.allocate(1, 3).unwrap();
        assert_eq!(allocs[0].providers.len(), 3);
        let total: u64 = pm.load_vector().iter().sum();
        assert_eq!(total, 3, "each replica counts toward load");
    }

    #[test]
    fn over_replication_is_an_error() {
        let pm = ProviderManager::new(2, PlacementPolicy::RoundRobin, 0);
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
        let pm = ProviderManager::new(2, PlacementPolicy::RoundRobin, 0);
        pm.allocate(4, 1).unwrap();
        pm.release(0);
        assert_eq!(pm.load_vector(), vec![1, 2]);
        pm.release(0);
        pm.release(0); // saturates at zero
        assert_eq!(pm.load_vector(), vec![0, 2]);
    }

    #[test]
    fn release_many_decrements_in_one_pass() {
        let pm = ProviderManager::new(3, PlacementPolicy::RoundRobin, 0);
        pm.allocate(6, 1).unwrap();
        assert_eq!(pm.load_vector(), vec![2, 2, 2]);
        // Entries repeat per replica; out-of-range indices are ignored.
        pm.release_many(&[0, 0, 1, 7]);
        assert_eq!(pm.load_vector(), vec![0, 1, 2]);
    }

    #[test]
    fn registration_grows_the_provider_pool() {
        let pm = ProviderManager::new(2, PlacementPolicy::RoundRobin, 0);
        assert_eq!(pm.provider_count(), 2);
        let idx = pm.register_provider(NodeId::new(9));
        assert_eq!(idx, 2);
        assert_eq!(pm.provider_count(), 3);
        assert_eq!(pm.registered_nodes(), vec![NodeId::new(9)]);
        // The new provider participates in placement and load accounting:
        // replication 3 now succeeds and lands one replica on it.
        let allocs = pm.allocate(1, 3).unwrap();
        assert!(allocs[0].providers.contains(&2));
        assert_eq!(pm.load_vector(), vec![1, 1, 1]);
    }

    #[test]
    fn heartbeat_reports_load_or_unknown_provider() {
        let pm = ProviderManager::new(2, PlacementPolicy::RoundRobin, 0);
        pm.allocate(2, 1).unwrap();
        assert_eq!(pm.heartbeat(0).unwrap(), 1);
        let err = pm.heartbeat(5).unwrap_err();
        assert!(matches!(err, Error::NoProviderAvailable(_)), "{err}");
    }

    #[test]
    fn concurrent_allocation_stays_unique() {
        use std::collections::HashSet;
        use std::sync::Arc;
        let pm = Arc::new(ProviderManager::new(8, PlacementPolicy::RoundRobin, 0));
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
