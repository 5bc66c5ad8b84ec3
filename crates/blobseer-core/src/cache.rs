//! Client-side hot-read block cache: [`BlockCache`], a byte-budgeted LRU
//! hook on the [`BlockStore`] port ([`Hooked`]).
//!
//! BlobSeer's concurrency control never mutates data in place: a block id
//! is written once and its bytes are immutable from then on (§III-A.4 —
//! the versioning paper of Nicolae et al. spells this out as the property
//! that makes client caches trivially coherent). A cached copy can
//! therefore never go stale; the only cache policy needed is an eviction
//! policy. That is the "many readers of one hot snapshot" workload of
//! Fig. 4: 250 clients re-fetching the same revealed blocks.
//!
//! The hook intercepts only the vectored puts, gets and deletes of any
//! adapter (`Arc<dyn BlockStore>`), so a deployment opts in —
//! `blobseer_rpc::LoopbackCluster::deploy` wires it over the TCP adapter
//! when [`blobseer_types::BlobSeerConfig::read_cache_bytes`] is non-zero,
//! and the figure reproductions keep it off (the paper's curves are
//! cache-cold). Tree nodes are not cached here: the one adapter that pays
//! a round trip per tree level, `blobseer_rpc::RpcMetaStore`, keeps the
//! inner nodes it has read itself, always on and outside this budget.
//!
//! Transparency contract: a cached deployment is observably equivalent to
//! an uncached one for every `Result`-carrying operation
//! (`tests/ports_equivalence.rs` holds the cached store to it). Entries are
//! keyed `(provider, block id)` — strictly finer than block identity — so
//! per-provider semantics (a replica miss that triggers fetch-fallback,
//! per-provider op accounting) survive the decoration. Hits, misses and
//! evictions are counted on
//! [`EngineStats::cache_hits`]/[`EngineStats::cache_misses`]/
//! [`EngineStats::cache_evictions`].

use crate::ports::{BlockHook, BlockStore, Hooked};
use crate::stats::EngineStats;
use blobseer_types::{BlockId, Result};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A byte-budgeted LRU map. Not a port itself — the engine behind the
/// hook. Entries larger than the whole budget are refused (caching
/// them would evict everything for a single-use payload).
struct Lru<K, V> {
    map: HashMap<K, LruEntry<V>>,
    /// Recency index: tick → key, oldest first. Ticks are unique, so the
    /// first entry is always the least recently used.
    order: BTreeMap<u64, K>,
    tick: u64,
    bytes: u64,
    budget: u64,
}

struct LruEntry<V> {
    value: V,
    size: u64,
    tick: u64,
}

impl<K: Eq + Hash + Clone, V: Clone> Lru<K, V> {
    fn new(budget: u64) -> Self {
        Self {
            map: HashMap::new(),
            order: BTreeMap::new(),
            tick: 0,
            bytes: 0,
            budget,
        }
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Looks a key up and marks it most recently used.
    fn get(&mut self, key: &K) -> Option<V> {
        let tick = self.next_tick();
        let entry = self.map.get_mut(key)?;
        self.order.remove(&entry.tick);
        entry.tick = tick;
        self.order.insert(tick, key.clone());
        Some(entry.value.clone())
    }

    /// Inserts (or refreshes) an entry, evicting least-recently-used
    /// entries until the budget holds. Returns how many entries were
    /// evicted. Values are immutable in this engine, so a re-insert under
    /// an existing key only refreshes recency.
    fn insert(&mut self, key: K, value: V, size: u64) -> u64 {
        if size > self.budget {
            return 0;
        }
        if let Some(old) = self.map.remove(&key) {
            self.order.remove(&old.tick);
            self.bytes -= old.size;
        }
        let tick = self.next_tick();
        self.bytes += size;
        self.order.insert(tick, key.clone());
        self.map.insert(key, LruEntry { value, size, tick });
        let mut evicted = 0;
        while self.bytes > self.budget {
            let (&oldest, _) = self.order.iter().next().expect("bytes>0 implies entries"); // lint:allow(no-unwrap): Lru invariant: bytes>0 implies resident entries
            let victim = self.order.remove(&oldest).expect("key just observed"); // lint:allow(no-unwrap): key returned by the iterator one line up
            let entry = self.map.remove(&victim).expect("order and map in sync"); // lint:allow(no-unwrap): Lru invariant: order and map always agree
            self.bytes -= entry.size;
            evicted += 1;
        }
        evicted
    }

    fn remove(&mut self, key: &K) {
        if let Some(entry) = self.map.remove(key) {
            self.order.remove(&entry.tick);
            self.bytes -= entry.size;
        }
    }
}

/// [`BlockHook`] serving repeated block fetches from a byte-budgeted LRU
/// over [`Bytes`] (zero-copy: a hit hands back a refcount bump of the
/// cached buffer).
pub struct BlockCache {
    lru: Mutex<Lru<(usize, BlockId), Bytes>>,
    stats: Arc<EngineStats>,
}

/// A [`BlockStore`] behind a [`BlockCache`].
pub type CachedBlockStore = Hooked<Arc<dyn BlockStore>, BlockCache>;

impl BlockCache {
    /// A cache of at most `budget_bytes` payload bytes. Hit/miss/eviction
    /// counters land on `stats`.
    pub fn new(budget_bytes: u64, stats: Arc<EngineStats>) -> Self {
        Self {
            lru: Mutex::named(Lru::new(budget_bytes), "cache.blocks.lru"),
            stats,
        }
    }

    fn count(&self, hits: u64, misses: u64, evictions: u64) {
        let add = |c: &std::sync::atomic::AtomicU64, n: u64| {
            if n > 0 {
                c.fetch_add(n, Ordering::Relaxed);
            }
        };
        add(&self.stats.cache_hits, hits);
        add(&self.stats.cache_misses, misses);
        add(&self.stats.cache_evictions, evictions);
    }
}

impl BlockHook for BlockCache {
    /// Write-through, write-allocate: the stored bytes are the bytes a
    /// reader would fetch (blocks are immutable), and a writer's own
    /// blocks are the hottest read candidates right after the commit.
    /// Failed puts cache nothing.
    fn put_many(
        &self,
        inner: &dyn BlockStore,
        provider: usize,
        items: &[(BlockId, Bytes)],
    ) -> Vec<Result<()>> {
        let results = inner.put_many(provider, items);
        let mut evicted = 0;
        {
            let mut lru = self.lru.lock();
            for ((id, data), result) in items.iter().zip(&results) {
                if result.is_ok() {
                    evicted += lru.insert((provider, *id), data.clone(), data.len() as u64);
                }
            }
        }
        self.count(0, 0, evicted);
        results
    }

    /// The vectored read-path hot spot: answered per item from the cache,
    /// with one inner `get_many` covering exactly the misses.
    fn get_many(
        &self,
        inner: &dyn BlockStore,
        provider: usize,
        ids: &[BlockId],
    ) -> Vec<Result<Bytes>> {
        let mut out: Vec<Option<Result<Bytes>>> = vec![None; ids.len()];
        let mut missed: Vec<(usize, BlockId)> = Vec::new();
        {
            let mut lru = self.lru.lock();
            for (slot, &id) in ids.iter().enumerate() {
                match lru.get(&(provider, id)) {
                    Some(hit) => out[slot] = Some(Ok(hit)),
                    None => missed.push((slot, id)),
                }
            }
        }
        let hits = (ids.len() - missed.len()) as u64;
        let misses = missed.len() as u64;
        let mut evicted = 0;
        if !missed.is_empty() {
            let miss_ids: Vec<BlockId> = missed.iter().map(|&(_, id)| id).collect();
            let fetched = inner.get_many(provider, &miss_ids);
            let mut lru = self.lru.lock();
            for (&(slot, id), result) in missed.iter().zip(fetched) {
                if let Ok(data) = &result {
                    evicted += lru.insert((provider, id), data.clone(), data.len() as u64);
                }
                out[slot] = Some(result);
            }
        }
        self.count(hits, misses, evicted);
        out.into_iter()
            .map(|r| r.expect("every slot answered")) // lint:allow(no-unwrap): batched dispatch fills every slot exactly once
            .collect()
    }

    fn delete_many(
        &self,
        inner: &dyn BlockStore,
        provider: usize,
        ids: &[BlockId],
    ) -> Vec<Result<u64>> {
        {
            let mut lru = self.lru.lock();
            for &id in ids {
                lru.remove(&(provider, id));
            }
        }
        inner.delete_many(provider, ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_store::ProviderSet;
    use blobseer_types::NodeId;

    fn payload(n: usize, fill: u8) -> Bytes {
        Bytes::from(vec![fill; n])
    }

    #[test]
    fn lru_evicts_least_recently_used_within_budget() {
        let mut lru: Lru<u64, u64> = Lru::new(30);
        assert_eq!(lru.insert(1, 10, 10), 0);
        assert_eq!(lru.insert(2, 20, 10), 0);
        assert_eq!(lru.insert(3, 30, 10), 0);
        // Touch 1, so 2 is now the coldest.
        assert_eq!(lru.get(&1), Some(10));
        assert_eq!(lru.insert(4, 40, 10), 1, "one eviction to make room");
        assert_eq!(lru.get(&2), None, "the untouched entry was evicted");
        assert_eq!(lru.get(&1), Some(10));
        assert_eq!(lru.get(&3), Some(30));
        assert_eq!(lru.get(&4), Some(40));
    }

    #[test]
    fn lru_refuses_oversized_entries_and_reinserts_refresh() {
        let mut lru: Lru<u64, u64> = Lru::new(10);
        assert_eq!(lru.insert(1, 1, 11), 0, "over budget: not cached");
        assert_eq!(lru.get(&1), None);
        assert_eq!(lru.insert(2, 2, 6), 0);
        // Re-insert of the same key replaces, never double-counts.
        assert_eq!(lru.insert(2, 2, 6), 0);
        assert_eq!(lru.bytes, 6);
    }

    #[test]
    fn cached_blocks_hit_after_miss_and_counters_track() {
        let stats = Arc::new(EngineStats::new());
        let inner = Arc::new(ProviderSet::new(2, |i| NodeId::new(i as u64)));
        let store = CachedBlockStore::new(inner.clone(), BlockCache::new(1 << 20, stats.clone()));
        store.put(0, BlockId::new(1), payload(64, 0xAB)).unwrap();
        // Put is write-allocate: the first read is already a hit.
        assert_eq!(&store.get(0, BlockId::new(1)).unwrap()[..], &[0xAB; 64]);
        let snap = stats.snapshot();
        assert_eq!((snap.cache_hits, snap.cache_misses), (1, 0));
        // An uncached id misses once, then hits.
        inner.put(1, BlockId::new(2), payload(16, 1)).unwrap();
        let ids = [BlockId::new(2), BlockId::new(2)];
        for r in store.get_many(1, &ids) {
            assert_eq!(r.unwrap().len(), 16);
        }
        let snap = stats.snapshot();
        // One batch is resolved against the cache as a unit, so both
        // lookups of the uncached id count as misses …
        assert_eq!((snap.cache_hits, snap.cache_misses), (1, 2));
        // … and the next call hits.
        assert_eq!(store.get(1, BlockId::new(2)).unwrap().len(), 16);
        let snap = stats.snapshot();
        assert_eq!((snap.cache_hits, snap.cache_misses), (2, 2));
    }

    #[test]
    fn cached_block_delete_invalidates() {
        let stats = Arc::new(EngineStats::new());
        let inner = Arc::new(ProviderSet::new(1, |i| NodeId::new(i as u64)));
        let store = CachedBlockStore::new(inner, BlockCache::new(1 << 20, stats.clone()));
        store.put(0, BlockId::new(7), payload(8, 9)).unwrap();
        assert_eq!(store.delete(0, BlockId::new(7)).unwrap(), 8);
        assert!(
            store.get(0, BlockId::new(7)).is_err(),
            "deleted block must not be served from cache"
        );
    }

    #[test]
    fn eviction_counter_moves_under_pressure() {
        let stats = Arc::new(EngineStats::new());
        let inner = Arc::new(ProviderSet::new(1, |i| NodeId::new(i as u64)));
        // Budget of two blocks; storing four evicts two.
        let store = CachedBlockStore::new(inner, BlockCache::new(128, stats.clone()));
        for i in 0..4u64 {
            store.put(0, BlockId::new(i), payload(64, i as u8)).unwrap();
        }
        assert_eq!(stats.snapshot().cache_evictions, 2);
    }
}
