//! Lock-striped concurrent maps for the engine's hot paths.
//!
//! The seed implementation guarded every service map — data blocks, DHT
//! shards, GC refcounts — with one global `RwLock<HashMap>`. Under the
//! paper's headline workload (§V: N concurrent writers hammering the same
//! deployment) every writer serialized on those locks, which is exactly the
//! kind of incidental serialization the protocol works so hard to avoid
//! ("the assignment of versions is the only step … where concurrent
//! requests are serialized", §III-A.4).
//!
//! [`ShardedMap`] stripes one logical map over `N` independently locked
//! shards selected by key hash, so writers touching different keys proceed
//! in parallel. `N = 1` degenerates to the seed's single global lock — the
//! baseline the `store_contention` bench and the ports-equivalence property
//! tests compare against.

use parking_lot::RwLock;
use std::borrow::Cow;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};

/// Default stripe count for the in-memory adapters. Chosen comfortably above
/// the thread counts the tests and benches drive (16) while keeping the
/// per-map footprint trivial.
pub const DEFAULT_SHARDS: usize = 32;

/// A hash map striped over independently locked shards.
///
/// The map exposes whole-shard lock access ([`shard_for`](Self::shard_for))
/// so callers can run compound check-then-act sequences (e.g. the immutable
/// re-put validation) atomically within one shard, plus clone-out
/// convenience accessors for the common single-key operations.
#[derive(Debug)]
pub struct ShardedMap<K, V> {
    shards: Box<[RwLock<HashMap<K, V>>]>,
    hasher: RandomState,
}

impl<K: Hash + Eq, V> ShardedMap<K, V> {
    /// A map striped over `n_shards` locks (1 = one global lock).
    pub fn new(n_shards: usize) -> Self {
        assert!(n_shards > 0, "need at least one shard");
        Self {
            shards: (0..n_shards).map(|_| RwLock::new(HashMap::new())).collect(),
            hasher: RandomState::new(),
        }
    }

    /// [`Self::new`] with a declared place in the lock hierarchy: stripe
    /// `i` becomes rank `i` of the `name` family, so under
    /// `BLOBSEER_LOCK_CHECK=1` any caller nesting stripes must take them
    /// in ascending index order (the batched paths instead take them one
    /// at a time, grouped by [`group_indices_by`]).
    pub fn named(n_shards: usize, name: &'static str) -> Self {
        assert!(n_shards > 0, "need at least one shard");
        Self {
            shards: (0..n_shards)
                .map(|i| RwLock::ranked(HashMap::new(), name, i as u32))
                .collect(),
            hasher: RandomState::new(),
        }
    }

    /// Number of lock stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard holding `key`. Lock it (`read`/`write`) to run a compound
    /// operation atomically with respect to every key in the stripe.
    #[inline]
    pub fn shard_for(&self, key: &K) -> &RwLock<HashMap<K, V>> {
        &self.shards[self.shard_index(key)]
    }

    /// The index of the stripe holding `key` — lets batched callers group
    /// keys so each stripe's lock is taken once per batch instead of once
    /// per key.
    #[inline]
    pub fn shard_index(&self, key: &K) -> usize {
        (self.hasher.hash_one(key) as usize) % self.shards.len()
    }

    /// The stripe at `index` (see [`Self::shard_index`]).
    #[inline]
    pub fn shard_at(&self, index: usize) -> &RwLock<HashMap<K, V>> {
        &self.shards[index]
    }

    /// Clone-out lookup.
    pub fn get_cloned(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.shard_for(key).read().get(key).cloned()
    }

    /// True if the key is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.shard_for(key).read().contains_key(key)
    }

    /// Inserts, returning the previous value if any.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        self.shard_for(&key).write().insert(key, value)
    }

    /// Removes, returning the value if it was present.
    pub fn remove(&self, key: &K) -> Option<V> {
        self.shard_for(key).write().remove(key)
    }

    /// Total entries across all shards. O(shards); each shard is read-locked
    /// in turn, so the count is a consistent-per-shard snapshot, not a
    /// point-in-time snapshot of the whole map.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// True when no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().is_empty())
    }

    /// Drops every entry (used by the shard-crash fault hooks).
    pub fn clear(&self) {
        for s in self.shards.iter() {
            s.write().clear();
        }
    }

    /// Runs `f` over every entry, shard by shard (read-locked per shard).
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        for s in self.shards.iter() {
            for (k, v) in s.read().iter() {
                f(k, v);
            }
        }
    }
}

/// Groups batch item indices by `index_of(key)`, preserving batch order
/// within each group. Returns `(index, item_indices)` groups in
/// first-appearance order — the one grouping step behind every batched
/// operation (stripe locks taken once per batch, providers and DHT shards
/// addressed once per batch).
pub fn group_indices_by<K>(
    keys: impl Iterator<Item = K>,
    mut index_of: impl FnMut(&K) -> usize,
) -> Vec<(usize, Vec<usize>)> {
    let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
    let mut slot_of: HashMap<usize, usize> = HashMap::new();
    for (i, key) in keys.enumerate() {
        let index = index_of(&key);
        let slot = *slot_of.entry(index).or_insert_with(|| {
            groups.push((index, Vec::new()));
            groups.len() - 1
        });
        groups[slot].1.push(i);
    }
    groups
}

/// One scatter-gather, sequentially: splits `items` by their `groups`
/// (one group index per item, in order), makes one `call(group, batch)`
/// per group in first-appearance order, and returns the answers in input
/// order. A batch keeps its items' input order. A single-group batch is
/// the caller's slice itself — nothing is cloned.
///
/// `call` must answer one result per batch item (the vectored ports'
/// contract). The fan-out form is `FanoutExecutor::scatter_gather`.
pub fn scatter_gather<T: Clone, R>(
    items: &[T],
    groups: impl IntoIterator<Item = usize>,
    mut call: impl FnMut(usize, &[T]) -> Vec<R>,
) -> Vec<R> {
    gather(items, groups, |batches| {
        batches
            .into_iter()
            .map(|(group, batch)| call(group, &batch))
            .collect()
    })
}

/// The core both scatter-gather forms share: groups `items`, hands `run`
/// one batch per group (the borrowed slice when there is one group),
/// and re-slots the per-batch answers `run` returns, in batch order, into
/// input order.
pub(crate) fn gather<'a, T: Clone, R>(
    items: &'a [T],
    groups: impl IntoIterator<Item = usize>,
    run: impl FnOnce(Vec<(usize, Cow<'a, [T]>)>) -> Vec<Vec<R>>,
) -> Vec<R> {
    let groups = group_indices_by(groups.into_iter(), |&group| group);
    if let [(group, _)] = groups[..] {
        let answers = run(vec![(group, Cow::Borrowed(items))]);
        return answers.into_iter().next().unwrap_or_default();
    }
    let batches = groups
        .iter()
        .map(|(group, indices)| {
            let batch: Vec<T> = indices.iter().map(|&i| items[i].clone()).collect();
            (*group, Cow::Owned(batch))
        })
        .collect();
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for ((_, indices), answers) in groups.iter().zip(run(batches)) {
        for (&i, answer) in indices.iter().zip(answers) {
            out[i] = Some(answer);
        }
    }
    out.into_iter()
        .map(|slot| slot.expect("every batch answers each of its items")) // lint:allow(no-unwrap): the vectored ports answer one result per item
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn basic_map_semantics() {
        let m: ShardedMap<u64, String> = ShardedMap::new(4);
        assert!(m.is_empty());
        assert_eq!(m.insert(1, "a".into()), None);
        assert_eq!(m.insert(1, "b".into()), Some("a".into()));
        assert_eq!(m.get_cloned(&1), Some("b".into()));
        assert!(m.contains_key(&1));
        assert!(!m.contains_key(&2));
        assert_eq!(m.len(), 1);
        assert_eq!(m.remove(&1), Some("b".into()));
        assert_eq!(m.remove(&1), None);
        assert!(m.is_empty());
    }

    #[test]
    fn single_shard_behaves_identically() {
        let global: ShardedMap<u64, u64> = ShardedMap::new(1);
        let sharded: ShardedMap<u64, u64> = ShardedMap::new(16);
        for k in 0..500u64 {
            global.insert(k, k * 3);
            sharded.insert(k, k * 3);
        }
        for k in 0..600u64 {
            assert_eq!(global.get_cloned(&k), sharded.get_cloned(&k));
        }
        assert_eq!(global.len(), sharded.len());
    }

    #[test]
    fn compound_shard_ops_are_atomic_per_stripe() {
        let m: ShardedMap<u64, u64> = ShardedMap::new(8);
        // Check-then-insert under one shard write lock.
        let mut shard = m.shard_for(&7).write();
        assert!(!shard.contains_key(&7));
        shard.insert(7, 1);
        drop(shard);
        assert_eq!(m.get_cloned(&7), Some(1));
    }

    #[test]
    fn concurrent_writers_land_all_entries() {
        let m: Arc<ShardedMap<u64, u64>> = Arc::new(ShardedMap::new(DEFAULT_SHARDS));
        let threads: Vec<_> = (0..8u64)
            .map(|t| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        m.insert(t * 1000 + i, i);
                        assert_eq!(m.get_cloned(&(t * 1000 + i)), Some(i));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(m.len(), 1600);
        let mut sum = 0u64;
        m.for_each(|_, v| sum += v);
        assert_eq!(sum, 8 * (0..200).sum::<u64>());
    }

    #[test]
    fn clear_empties_every_shard() {
        let m: ShardedMap<u64, u64> = ShardedMap::new(4);
        for k in 0..64 {
            m.insert(k, k);
        }
        m.clear();
        assert!(m.is_empty());
    }

    #[test]
    fn scatter_gather_answers_in_input_order_one_call_per_group() {
        let items: Vec<u64> = (0..7).collect();
        let groups = [1, 0, 1, 2, 0, 1, 2];
        let mut calls = Vec::new();
        let got = scatter_gather(&items, groups, |g, batch| {
            calls.push((g, batch.to_vec()));
            batch.iter().map(|&x| x * 10 + g as u64).collect()
        });
        assert_eq!(got, vec![1, 10, 21, 32, 40, 51, 62]);
        assert_eq!(
            calls,
            vec![(1, vec![0, 2, 5]), (0, vec![1, 4]), (2, vec![3, 6])],
            "groups in first-appearance order, batches in input order"
        );
        let none: Vec<u64> = scatter_gather(&[], [], |_, _: &[u64]| unreachable!());
        assert!(none.is_empty(), "no items, no call");
    }

    #[test]
    fn scatter_gather_passes_a_single_group_the_callers_slice() {
        let items: Vec<u64> = (0..5).collect();
        let got = scatter_gather(&items, [3; 5], |g, batch| {
            assert_eq!(g, 3);
            assert_eq!(batch.as_ptr(), items.as_ptr(), "borrowed, not cloned");
            batch.to_vec()
        });
        assert_eq!(got, items);
    }

    #[test]
    #[should_panic(expected = "need at least one shard")]
    fn zero_shards_rejected() {
        let _: ShardedMap<u64, u64> = ShardedMap::new(0);
    }
}
