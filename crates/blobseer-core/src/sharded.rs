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
//!
//! The module also holds the one grouping step behind every batched call
//! ([`group_indices_by`], `for_each_group`, [`scatter_gather`]): a batch
//! splits by stripe, shard or provider, in first-appearance order. Most
//! batches on the hot paths — a descent level, a one-block fetch — fall in
//! one group, and grouping such a batch allocates nothing: the one group
//! is recognised in a single pass and gets the caller's own slice.

use parking_lot::RwLock;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};

/// Default stripe count for the in-memory adapters. Chosen comfortably above
/// the thread counts the tests drive (16) while keeping the
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
    /// at a time, grouped by `for_each_group`).
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
/// addressed once per batch). A batch meets at most a few dozen stripes,
/// shards or providers, so each key's group is found by a linear scan.
pub fn group_indices_by<K>(
    keys: impl Iterator<Item = K>,
    mut index_of: impl FnMut(&K) -> usize,
) -> Vec<(usize, Vec<usize>)> {
    let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
    for (i, key) in keys.enumerate() {
        let index = index_of(&key);
        match groups.iter_mut().find(|(group, _)| *group == index) {
            Some((_, members)) => members.push(i),
            None => groups.push((index, vec![i])),
        }
    }
    groups
}

/// How one scatter-gather's items split over their groups.
pub(crate) enum Split {
    /// No items: no group, no call.
    Empty,
    /// Every item is in this one group: its batch is the caller's slice.
    One(usize),
    /// Two or more groups, as [`group_indices_by`] returns them.
    Many(Vec<(usize, Vec<usize>)>),
}

impl Split {
    /// Splits a batch by its items' groups (one per item, in order). The
    /// common one-group batch is recognised without allocating.
    pub(crate) fn of(groups: impl IntoIterator<Item = usize>) -> Self {
        let mut groups = groups.into_iter();
        let Some(first) = groups.next() else {
            return Split::Empty;
        };
        for (same, group) in (1..).zip(groups.by_ref()) {
            if group != first {
                let seen = std::iter::repeat_n(first, same).chain([group]);
                return Split::Many(group_indices_by(seen.chain(groups), |&g| g));
            }
        }
        Split::One(first)
    }
}

/// Calls `f(group, item_indices)` once per group of `items` by
/// `index_of`: groups in first-appearance order, each group's indices
/// ascending. The batched store operations take each lock stripe once
/// this way; a batch in one stripe allocates nothing.
pub(crate) fn for_each_group<T>(
    items: &[T],
    index_of: impl FnMut(&T) -> usize,
    mut f: impl FnMut(usize, &mut dyn Iterator<Item = usize>),
) {
    match Split::of(items.iter().map(index_of)) {
        Split::Empty => {}
        Split::One(group) => f(group, &mut (0..items.len())),
        Split::Many(groups) => {
            for (group, indices) in groups {
                f(group, &mut indices.into_iter());
            }
        }
    }
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
    match Split::of(groups) {
        Split::Empty => Vec::new(),
        Split::One(group) => call(group, items),
        Split::Many(groups) => gather(items, &groups, |batches| {
            batches
                .into_iter()
                .map(|(group, batch)| call(group, &batch))
                .collect()
        }),
    }
}

/// The multi-group core both scatter-gather forms share: hands `run` one
/// owned batch per group of `groups` (from [`Split::Many`]), and re-slots
/// the per-batch answers `run` returns, in batch order, into input order.
pub(crate) fn gather<T: Clone, R>(
    items: &[T],
    groups: &[(usize, Vec<usize>)],
    run: impl FnOnce(Vec<(usize, Vec<T>)>) -> Vec<Vec<R>>,
) -> Vec<R> {
    let batches = groups
        .iter()
        .map(|(group, indices)| (*group, indices.iter().map(|&i| items[i].clone()).collect()))
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
    use crate::exec::FanoutExecutor;
    use crate::stats::EngineStats;
    use parking_lot::Mutex;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;
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

    /// First-appearance grouping the obvious way: a `BTreeMap` from group
    /// to its first index and members, sorted by first index.
    fn first_appearance(groups: &[usize]) -> Vec<(usize, Vec<usize>)> {
        let mut by_group: BTreeMap<usize, (usize, Vec<usize>)> = BTreeMap::new();
        for (i, &group) in groups.iter().enumerate() {
            by_group.entry(group).or_insert((i, Vec::new())).1.push(i);
        }
        let mut out: Vec<_> = by_group.into_iter().collect();
        out.sort_by_key(|(_, (first, _))| *first);
        out.into_iter()
            .map(|(group, (_, members))| (group, members))
            .collect()
    }

    #[test]
    fn grouping_matches_a_first_appearance_reference() {
        let mut rng = StdRng::seed_from_u64(0x05EE_D6E0);
        let mut cases: Vec<Vec<usize>> = vec![
            vec![],
            vec![5; 9],
            (0..40).collect(),
            vec![usize::MAX; 3],
            vec![usize::MAX, 0, usize::MAX, 1],
        ];
        for _ in 0..500 {
            let (len, spread) = (rng.gen_range(0usize..64), rng.gen_range(1usize..40));
            let ids = (0..len).map(|_| match rng.gen_range(0u8..8) {
                0 => usize::MAX,
                _ => rng.gen_range(0..spread),
            });
            cases.push(ids.collect());
        }
        let exec = FanoutExecutor::new(1);
        let stats = EngineStats::new();
        for groups in &cases {
            let want = first_appearance(groups);
            assert_eq!(group_indices_by(groups.iter(), |&&g| g), want, "{groups:?}");
            let mut visits = Vec::new();
            for_each_group(
                groups,
                |&g| g,
                |g, indices| visits.push((g, indices.collect())),
            );
            assert_eq!(visits, want, "for_each_group {groups:?}");

            // Both scatter-gathers: one call per group in that order, each
            // batch its items in input order, the caller's own slice when
            // there is one group, and the answers back in input order.
            let items: Arc<Vec<u64>> = Arc::new((0..groups.len() as u64).map(|i| i * 7).collect());
            let want_calls: Vec<(usize, Vec<u64>)> = want
                .iter()
                .map(|(g, members)| (*g, members.iter().map(|&i| items[i]).collect()))
                .collect();
            let want_answers: Vec<(usize, u64)> =
                groups.iter().copied().zip(items.iter().copied()).collect();
            let one_group = want.len() == 1;
            let calls = Arc::new(Mutex::new(Vec::new()));
            let call = {
                let (calls, items) = (Arc::clone(&calls), Arc::clone(&items));
                move |g: usize, batch: &[u64]| {
                    if one_group {
                        assert_eq!(batch.as_ptr(), items.as_ptr(), "borrowed, not cloned");
                    }
                    calls.lock().push((g, batch.to_vec()));
                    batch.iter().map(|&x| (g, x)).collect::<Vec<_>>()
                }
            };
            let got = scatter_gather(&items, groups.iter().copied(), &call);
            assert_eq!(got, want_answers, "scatter_gather {groups:?}");
            assert_eq!(std::mem::take(&mut *calls.lock()), want_calls);
            let fanned = exec.scatter_gather(&stats, &items, groups.iter().copied(), call);
            assert_eq!(fanned, want_answers, "FanoutExecutor {groups:?}");
            assert_eq!(std::mem::take(&mut *calls.lock()), want_calls);
        }
    }

    #[test]
    #[should_panic(expected = "need at least one shard")]
    fn zero_shards_rejected() {
        let _: ShardedMap<u64, u64> = ShardedMap::new(0);
    }
}
