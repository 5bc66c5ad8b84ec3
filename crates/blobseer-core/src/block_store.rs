//! Data providers: the processes that "physically store the blocks generated
//! by appends and writes" (§III-B).
//!
//! A [`DataProvider`] is an in-memory block store. Blocks are immutable once
//! stored — the cornerstone of BlobSeer's concurrency control ("no existing
//! data or metadata is ever modified", §III-A.4) — so the store is a
//! concurrent map from [`BlockId`] to [`Bytes`], lock-striped
//! ([`ShardedMap`]) so concurrent writers hitting the same provider do not
//! serialize on one global lock. [`Bytes`] payloads make reads zero-copy:
//! readers receive a reference-counted view.

use crate::sharded::{for_each_group, ShardedMap, DEFAULT_SHARDS};
use blobseer_types::{BlockId, Error, NodeId, Result};
use bytes::Bytes;
use std::sync::atomic::{AtomicU64, Ordering};

/// One data provider process, bound to a cluster node.
#[derive(Debug)]
pub struct DataProvider {
    node: NodeId,
    blocks: ShardedMap<BlockId, Bytes>,
    bytes_stored: AtomicU64,
    puts: AtomicU64,
    gets: AtomicU64,
}

impl DataProvider {
    /// Creates an empty provider hosted on `node`, striped over the default
    /// shard count.
    pub fn new(node: NodeId) -> Self {
        Self::with_shards(node, DEFAULT_SHARDS)
    }

    /// Creates a provider with an explicit lock-stripe count. `1` reproduces
    /// the seed's single global `RwLock<HashMap>` — the equivalence oracle
    /// of `tests/ports_equivalence.rs` (global ≡ striped).
    pub fn with_shards(node: NodeId, n_shards: usize) -> Self {
        Self {
            node,
            blocks: ShardedMap::named(n_shards, "data_provider.blocks"),
            bytes_stored: AtomicU64::new(0),
            puts: AtomicU64::new(0),
            gets: AtomicU64::new(0),
        }
    }

    /// The cluster node hosting this provider.
    #[inline]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Stores a batch of blocks, taking each lock stripe once per batch.
    /// Blocks are immutable: storing the same id twice with different
    /// content is an engine bug and panics in debug builds; idempotent
    /// re-puts (same content, e.g. a retried replica write) are accepted.
    /// Within a stripe, items land in batch order, so intra-batch re-puts
    /// behave like the sequence of puts they stand for.
    pub fn put_many(&self, items: &[(BlockId, Bytes)]) {
        for_each_group(
            items,
            |(id, _)| self.blocks.shard_index(id),
            |shard, indices| {
                let mut map = self.blocks.shard_at(shard).write();
                for i in indices {
                    let (id, data) = &items[i];
                    match map.get(id) {
                        Some(existing) => {
                            debug_assert_eq!(
                                existing, data,
                                "block {id} rewritten with different content — blocks are immutable"
                            );
                        }
                        None => {
                            self.bytes_stored
                                .fetch_add(data.len() as u64, Ordering::Relaxed);
                            map.insert(*id, data.clone());
                        }
                    }
                }
            },
        );
        self.puts.fetch_add(items.len() as u64, Ordering::Relaxed);
    }

    /// Fetches a batch of blocks, one read-lock acquisition per stripe.
    /// Per-item results in input order.
    pub fn get_many(&self, ids: &[BlockId]) -> Vec<Result<Bytes>> {
        self.gets.fetch_add(ids.len() as u64, Ordering::Relaxed);
        let mut out: Vec<Result<Bytes>> = ids
            .iter()
            .map(|&id| Err(Error::MissingBlock(id.raw())))
            .collect();
        for_each_group(
            ids,
            |id| self.blocks.shard_index(id),
            |shard, indices| {
                let map = self.blocks.shard_at(shard).read();
                for i in indices {
                    if let Some(data) = map.get(&ids[i]) {
                        out[i] = Ok(data.clone());
                    }
                }
            },
        );
        out
    }

    /// Deletes a batch of blocks, one write-lock acquisition per stripe.
    /// Returns the bytes freed per block, in input order (0 if absent).
    pub fn delete_many(&self, ids: &[BlockId]) -> Vec<u64> {
        let mut out = vec![0u64; ids.len()];
        for_each_group(
            ids,
            |id| self.blocks.shard_index(id),
            |shard, indices| {
                let mut map = self.blocks.shard_at(shard).write();
                for i in indices {
                    if let Some(data) = map.remove(&ids[i]) {
                        let n = data.len() as u64;
                        self.bytes_stored.fetch_sub(n, Ordering::Relaxed);
                        out[i] = n;
                    }
                }
            },
        );
        out
    }

    /// True if the provider holds the block.
    pub fn contains(&self, id: BlockId) -> bool {
        self.blocks.contains_key(&id)
    }

    /// Number of blocks currently stored.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Total payload bytes currently stored.
    pub fn bytes_stored(&self) -> u64 {
        self.bytes_stored.load(Ordering::Relaxed)
    }

    /// `(puts, gets)` served since creation.
    pub fn op_counts(&self) -> (u64, u64) {
        (
            self.puts.load(Ordering::Relaxed),
            self.gets.load(Ordering::Relaxed),
        )
    }
}

/// The set of data providers of a deployment, indexed densely.
///
/// Provider `i` lives on the node returned by `provider(i).node()`; the
/// provider manager allocates blocks by index into this set.
#[derive(Debug)]
pub struct ProviderSet {
    providers: Vec<DataProvider>,
}

impl ProviderSet {
    /// Creates `n` providers hosted on nodes produced by `node_of`.
    pub fn new(n: usize, node_of: impl Fn(usize) -> NodeId) -> Self {
        Self::with_shards(n, node_of, DEFAULT_SHARDS)
    }

    /// Creates `n` providers with an explicit per-provider lock-stripe
    /// count (`1` = the seed's global-lock layout).
    pub fn with_shards(n: usize, node_of: impl Fn(usize) -> NodeId, n_shards: usize) -> Self {
        assert!(n > 0, "need at least one data provider");
        Self {
            providers: (0..n)
                .map(|i| DataProvider::with_shards(node_of(i), n_shards))
                .collect(),
        }
    }

    /// Number of providers.
    #[inline]
    pub fn len(&self) -> usize {
        self.providers.len()
    }

    /// Always false: deployments have at least one provider.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The provider at dense index `i`.
    #[inline]
    pub fn get(&self, i: usize) -> &DataProvider {
        &self.providers[i]
    }

    /// Iterates over all providers.
    pub fn iter(&self) -> impl Iterator<Item = &DataProvider> {
        self.providers.iter()
    }

    /// Finds the dense index of the provider hosted on `node`, if any.
    pub fn index_of_node(&self, node: NodeId) -> Option<usize> {
        self.providers.iter().position(|p| p.node() == node)
    }

    /// Per-provider block counts — the "data layout vector" used by the
    /// paper's load-balancing metric (§V-D, Fig. 3(b)).
    pub fn layout_vector(&self) -> Vec<u64> {
        self.providers
            .iter()
            .map(|p| p.block_count() as u64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn provider() -> DataProvider {
        DataProvider::new(NodeId::new(3))
    }

    fn id(raw: u64) -> BlockId {
        BlockId::new(raw)
    }

    #[test]
    fn put_get_roundtrip() {
        let p = provider();
        let data = Bytes::from_static(b"hello blocks");
        p.put_many(&[(id(1), data.clone())]);
        assert_eq!(p.get_many(&[id(1)]), [Ok(data)]);
        assert_eq!(p.block_count(), 1);
        assert_eq!(p.bytes_stored(), 12);
        assert_eq!(p.op_counts(), (1, 1));
    }

    #[test]
    fn missing_block_is_an_error() {
        let p = provider();
        p.put_many(&[(id(8), Bytes::from_static(b"held"))]);
        let got = p.get_many(&[id(9), id(8)]);
        assert_eq!(got[0], Err(Error::MissingBlock(9)));
        assert!(got[1].is_ok(), "a miss fails its own item only");
    }

    #[test]
    fn idempotent_reput_is_accepted() {
        let p = provider();
        let data = Bytes::from_static(b"same");
        p.put_many(&[(id(1), data.clone())]);
        p.put_many(&[(id(1), data.clone()), (id(1), data)]); // replica retries
        assert_eq!(p.block_count(), 1);
        assert_eq!(p.bytes_stored(), 4, "no double counting");
    }

    #[test]
    #[should_panic(expected = "blocks are immutable")]
    #[cfg(debug_assertions)]
    fn rewriting_a_block_panics_in_debug() {
        let p = provider();
        p.put_many(&[(id(1), Bytes::from_static(b"aa"))]);
        p.put_many(&[(id(1), Bytes::from_static(b"bb"))]);
    }

    #[test]
    fn delete_frees_bytes() {
        let p = provider();
        p.put_many(&[(id(1), Bytes::from_static(b"12345"))]);
        assert_eq!(p.delete_many(&[id(1), id(1)]), [5, 0], "re-delete: no-op");
        assert_eq!(p.delete_many(&[id(1)]), [0]);
        assert_eq!(p.block_count(), 0);
        assert_eq!(p.bytes_stored(), 0);
        assert!(!p.contains(id(1)));
    }

    #[test]
    fn provider_set_layout_vector() {
        let set = ProviderSet::new(3, |i| NodeId::new(10 + i as u64));
        let block = |raw, byte: &'static [u8]| (id(raw), Bytes::from_static(byte));
        set.get(0).put_many(&[block(1, b"x"), block(2, b"y")]);
        set.get(2).put_many(&[block(3, b"z")]);
        assert_eq!(set.layout_vector(), vec![2, 0, 1]);
        assert_eq!(set.index_of_node(NodeId::new(12)), Some(2));
        assert_eq!(set.index_of_node(NodeId::new(99)), None);
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn concurrent_puts_and_gets() {
        use std::sync::Arc;
        let p = Arc::new(provider());
        let threads: Vec<_> = (0..8u64)
            .map(|t| {
                let p = Arc::clone(&p);
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        let block = id(t * 1000 + i);
                        p.put_many(&[(block, Bytes::from(vec![t as u8; 16]))]);
                        assert_eq!(p.get_many(&[block])[0].as_ref().unwrap().len(), 16);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(p.block_count(), 800);
        assert_eq!(p.bytes_stored(), 800 * 16);
    }
}
