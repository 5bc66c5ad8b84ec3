//! Observational equivalence across backend families.
//!
//! Three properties, same method — drive different adapter stacks with
//! identical scripts and demand identical observables:
//!
//! 1. **Sharded ≡ global-lock** (PR 2): the lock-striped maps behind
//!    `DataProvider`/`MetaProvider` must be a pure performance change
//!    relative to the seed's single `RwLock<HashMap>` layout.
//! 2. **In-memory ≡ RPC-loopback** (PR 4): a full client deployment
//!    wired over TCP sockets (`blobseer_rpc::LoopbackCluster`) must be
//!    observationally identical to the in-memory one for every op script
//!    — sizes, versions, bytes read, **and error variants**, which must
//!    cross the wire as themselves.
//! 3. **Batched ≡ single-op sequence**: the vectored port methods
//!    (`put_many`/`get_many`/`delete_many`) must answer exactly like the
//!    equivalent sequence of single ops, per item and in input order, on
//!    every adapter family — in-memory sharded, fault-decorated
//!    (including partial batch failures via `FailOnce`), cached, disk and
//!    the RPC loopback adapters (including per-item conflicts inside one
//!    frame). The single ops are the ports' provided one-item helpers, so
//!    every family appears on the *sequential* side of a pairing too: a
//!    batch of one must be as good as any batch.
//!
//! 4. **Cached ≡ uncached** (PR 7): the hot-read block LRU
//!    (`CachedBlockStore`) and the inner-node cache inside `RpcMetaStore`
//!    must be observationally invisible under every script — including
//!    conflicts, deletes and evictions forced by a tiny byte budget.
//!
//! 5. **Disk-backed ≡ in-memory** (this PR): the append-only stores of
//!    `blobseer-disk` must answer every op script exactly like the
//!    in-memory adapters — per-item results, conflicts, byte accounting —
//!    including variants that close and reopen the disk stores mid-script
//!    (a simulated restart must be observationally a no-op).
//!
//! Plus wire-codec round-trip properties: random domain values encode and
//! decode to themselves, and every `Error` variant survives the trip.

use blobseer_core::block_store::{DataProvider, ProviderSet};
use blobseer_core::dht::MetaDht;
use blobseer_core::faults::{FaultPlan, PutFault};
use blobseer_core::meta::key::{NodeKey, Pos};
use blobseer_core::meta::node::{BlockDescriptor, NodeRef, TreeNode};
use blobseer_core::ports::{BlockStore, MetaStore};
use blobseer_core::{BlobSeer, BlockCache, CachedBlockStore, EngineStats, WriteIntent};
use blobseer_disk::testutil::TempDir;
use blobseer_disk::{DiskMetaStore, DiskProviderSet};
use blobseer_rpc::{LoopbackCluster, RpcMetaStore, RpcServer, RpcService};
use blobseer_types::wire::{error_fixture, Wire};
use blobseer_types::{BlobId, BlobSeerConfig, BlockId, Error, NodeId, Version};
use bytes::Bytes;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// One step of a block-store workload. Several logical writers' scripts are
/// interleaved by construction: the generator draws (writer, op) pairs and
/// the keys are namespaced per writer, exactly the access pattern of
/// concurrent clients that never violate block immutability.
#[derive(Clone, Debug)]
enum BlockOp {
    Put { writer: u8, key: u8 },
    Get { writer: u8, key: u8 },
    Delete { writer: u8, key: u8 },
}

fn block_ops() -> impl Strategy<Value = Vec<BlockOp>> {
    let op = prop_oneof![
        (0u8..4, any::<u8>()).prop_map(|(writer, key)| BlockOp::Put { writer, key }),
        (0u8..4, any::<u8>()).prop_map(|(writer, key)| BlockOp::Get { writer, key }),
        (0u8..4, any::<u8>()).prop_map(|(writer, key)| BlockOp::Delete { writer, key }),
    ];
    proptest::collection::vec(op, 1..200)
}

/// Deterministic content per block id, so re-puts are always idempotent.
fn content(writer: u8, key: u8) -> Bytes {
    Bytes::from(vec![writer ^ key; 1 + (key % 7) as usize])
}

fn block_id(writer: u8, key: u8) -> BlockId {
    BlockId::new(1 + writer as u64 * 1000 + key as u64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The sharded data provider behaves exactly like the global-lock one
    /// under interleaved put/get/delete scripts.
    #[test]
    fn sharded_data_provider_matches_global_lock(ops in block_ops()) {
        let global = DataProvider::with_shards(NodeId::new(0), 1);
        let sharded = DataProvider::with_shards(NodeId::new(0), 32);
        for op in &ops {
            match *op {
                BlockOp::Put { writer, key } => {
                    let item = [(block_id(writer, key), content(writer, key))];
                    global.put_many(&item);
                    sharded.put_many(&item);
                }
                BlockOp::Get { writer, key } => {
                    let id = [block_id(writer, key)];
                    prop_assert_eq!(global.get_many(&id), sharded.get_many(&id));
                }
                BlockOp::Delete { writer, key } => {
                    let id = [block_id(writer, key)];
                    prop_assert_eq!(global.delete_many(&id), sharded.delete_many(&id));
                }
            }
            prop_assert_eq!(global.block_count(), sharded.block_count());
            prop_assert_eq!(global.bytes_stored(), sharded.bytes_stored());
        }
        // Full final sweep over the whole key space.
        for writer in 0..4u8 {
            for key in 0..=255u8 {
                let id = block_id(writer, key);
                prop_assert_eq!(global.contains(id), sharded.contains(id));
                prop_assert_eq!(global.get_many(&[id]), sharded.get_many(&[id]));
            }
        }
    }

    /// Same for the metadata DHT, including conflict outcomes.
    #[test]
    fn sharded_meta_dht_matches_global_lock(ops in block_ops()) {
        let global = MetaDht::with_stripes(4, 2, 1);
        let sharded = MetaDht::with_stripes(4, 2, 32);
        let key_of = |writer: u8, key: u8| {
            NodeKey::new(
                BlobId::new(1 + writer as u64),
                Version::new(1 + (key % 13) as u64),
                Pos::new(key as u64, 1),
            )
        };
        let node_of = |writer: u8, key: u8| {
            TreeNode::Leaf(BlockDescriptor {
                block_id: block_id(writer, key),
                providers: vec![writer as u32],
                len: 64,
            })
        };
        for op in &ops {
            match *op {
                BlockOp::Put { writer, key } => {
                    let a = global.put(key_of(writer, key), node_of(writer, key));
                    let b = sharded.put(key_of(writer, key), node_of(writer, key));
                    prop_assert_eq!(a, b);
                }
                BlockOp::Get { writer, key } => {
                    prop_assert_eq!(
                        global.get(&key_of(writer, key)),
                        sharded.get(&key_of(writer, key))
                    );
                }
                BlockOp::Delete { writer, key } => {
                    prop_assert_eq!(
                        global.delete(&key_of(writer, key)),
                        sharded.delete(&key_of(writer, key))
                    );
                }
            }
            prop_assert_eq!(global.node_count(), sharded.node_count());
        }
    }
}

// --- batched ≡ single-op sequence -------------------------------------------

/// One step of a *vectored* workload: each op carries a whole batch, and
/// `FailNext` arms a transient `FailOnce` fault so partial batch failures
/// are exercised (the decorators apply faults per item, so exactly the
/// first item of the next batch is refused).
#[derive(Clone, Debug)]
enum VecOp {
    PutMany { provider: u8, keys: Vec<u8> },
    GetMany { provider: u8, keys: Vec<u8> },
    DeleteMany { provider: u8, keys: Vec<u8> },
    FailNext,
}

fn vec_ops() -> impl Strategy<Value = Vec<VecOp>> {
    fn keys() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(any::<u8>(), 0..24)
    }
    let op = prop_oneof![
        (0u8..2, keys()).prop_map(|(provider, keys)| VecOp::PutMany { provider, keys }),
        (0u8..2, keys()).prop_map(|(provider, keys)| VecOp::GetMany { provider, keys }),
        (0u8..2, keys()).prop_map(|(provider, keys)| VecOp::DeleteMany { provider, keys }),
        (0u8..1).prop_map(|_| VecOp::FailNext),
    ];
    proptest::collection::vec(op, 1..40)
}

/// Replays `script` against two identically built stores — one driven
/// through the vectored methods, one through the equivalent single-op
/// sequences — and demands identical per-item results and state.
fn assert_block_batches_match_singles(
    script: &[VecOp],
    batched: &dyn BlockStore,
    sequential: &dyn BlockStore,
    plans: Option<(&FaultPlan, &FaultPlan)>,
) {
    for op in script {
        match op {
            VecOp::FailNext => {
                if let Some((a, b)) = plans {
                    a.set(PutFault::FailOnce);
                    b.set(PutFault::FailOnce);
                }
            }
            VecOp::PutMany { provider, keys } => {
                let p = *provider as usize;
                let items: Vec<(BlockId, Bytes)> = keys
                    .iter()
                    .map(|&k| (block_id(*provider, k), content(*provider, k)))
                    .collect();
                let a = batched.put_many(p, &items);
                let b: Vec<_> = items
                    .iter()
                    .map(|(id, data)| sequential.put(p, *id, data.clone()))
                    .collect();
                assert_eq!(a, b, "put_many diverged");
            }
            VecOp::GetMany { provider, keys } => {
                let p = *provider as usize;
                let ids: Vec<BlockId> = keys.iter().map(|&k| block_id(*provider, k)).collect();
                let a = batched.get_many(p, &ids);
                let b: Vec<_> = ids.iter().map(|&id| sequential.get(p, id)).collect();
                assert_eq!(a, b, "get_many diverged");
            }
            VecOp::DeleteMany { provider, keys } => {
                let p = *provider as usize;
                let ids: Vec<BlockId> = keys.iter().map(|&k| block_id(*provider, k)).collect();
                let a = batched.delete_many(p, &ids);
                let b: Vec<_> = ids.iter().map(|&id| sequential.delete(p, id)).collect();
                assert_eq!(a, b, "delete_many diverged");
            }
        }
        assert_eq!(batched.total_block_count(), sequential.total_block_count());
        assert_eq!(
            batched.total_bytes_stored(),
            sequential.total_bytes_stored()
        );
        assert_eq!(batched.layout_vector(), sequential.layout_vector());
    }
}

/// A vectored metadata workload: `(kind, items)` steps — kind 0 puts, 1
/// gets, anything else deletes the batch's keys. An item's `bool` salts
/// the node content, so re-putting a key with the other salt is a
/// conflict — on both sides of a comparison, at the same index.
type MetaScript = Vec<(u8, Vec<(u8, bool)>)>;

fn meta_script() -> impl Strategy<Value = MetaScript> {
    proptest::collection::vec(
        (
            0u8..3,
            proptest::collection::vec((any::<u8>(), any::<bool>()), 0..24),
        ),
        1..30,
    )
}

fn meta_key(k: u8) -> NodeKey {
    NodeKey::new(
        BlobId::new(1),
        Version::new(1 + (k % 5) as u64),
        Pos::new(k as u64, 1),
    )
}

/// Even keys hold inner nodes (what `RpcMetaStore` caches), odd keys
/// leaves (what it never does).
fn meta_node(k: u8, salted: bool) -> TreeNode {
    if k.is_multiple_of(2) {
        return TreeNode::Inner {
            left: Some(NodeRef {
                blob: BlobId::new(1),
                version: Version::new(1 + salted as u64),
            }),
            right: None,
        };
    }
    TreeNode::Leaf(BlockDescriptor {
        block_id: BlockId::new(k as u64 * 2 + salted as u64),
        providers: vec![0],
        len: 64,
    })
}

/// [`assert_block_batches_match_singles`] for the metadata port,
/// including per-item `MetadataConflict`s inside one batch (a conflicting
/// re-put of an already-stored key must fail exactly that item).
fn assert_meta_batches_match_singles(
    script: &[(u8, Vec<(u8, bool)>)],
    batched: &dyn MetaStore,
    sequential: &dyn MetaStore,
) {
    for (kind, items) in script {
        let keys: Vec<NodeKey> = items.iter().map(|&(k, _)| meta_key(k)).collect();
        match kind {
            0 => {
                let batch: Vec<(NodeKey, TreeNode)> = items
                    .iter()
                    .map(|&(k, salted)| (meta_key(k), meta_node(k, salted)))
                    .collect();
                let a = batched.put_many(&batch);
                let b: Vec<_> = batch
                    .iter()
                    .map(|(key, node)| sequential.put(*key, node.clone()))
                    .collect();
                assert_eq!(a, b, "meta put_many diverged");
            }
            1 => {
                let a = batched.get_many(&keys);
                let b: Vec<_> = keys.iter().map(|key| sequential.get(key)).collect();
                assert_eq!(a, b, "meta get_many diverged");
            }
            _ => {
                let a = batched.delete_many(&keys);
                let b: Vec<Result<bool, Error>> =
                    keys.iter().map(|key| Ok(sequential.delete(key))).collect();
                assert_eq!(a, b, "meta delete_many diverged");
            }
        }
        assert_eq!(batched.node_count(), sequential.node_count());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Vectored ops on the lock-striped in-memory stores are
    /// observationally identical to the equivalent single-op sequences.
    #[test]
    fn in_memory_batches_equal_single_op_sequence(script in vec_ops()) {
        let batched = ProviderSet::with_shards(2, |i| NodeId::new(i as u64), 32);
        let sequential = ProviderSet::with_shards(2, |i| NodeId::new(i as u64), 32);
        assert_block_batches_match_singles(&script, &batched, &sequential, None);
    }

    /// Same through the fault decorators, including partial batch
    /// failures: `FailOnce` refuses exactly the first item of the next
    /// batch on both sides, and the per-item `Result`s line up.
    #[test]
    fn fault_decorated_batches_equal_single_op_sequence(script in vec_ops()) {
        use blobseer_core::faults::{Faults, FaultyBlockStore};
        let plan_a = FaultPlan::new();
        let plan_b = FaultPlan::new();
        let batched = FaultyBlockStore::new(
            Arc::new(ProviderSet::with_shards(2, |i| NodeId::new(i as u64), 32)),
            Faults::new(Arc::clone(&plan_a)),
        );
        let sequential = FaultyBlockStore::new(
            Arc::new(ProviderSet::with_shards(2, |i| NodeId::new(i as u64), 32)),
            Faults::new(Arc::clone(&plan_b)),
        );
        assert_block_batches_match_singles(&script, &batched, &sequential, Some((&plan_a, &plan_b)));
        prop_assert_eq!(plan_a.counters(), plan_b.counters(), "identical fault traffic");
    }

    /// Vectored metadata ops ≡ single-op sequences on the DHT, including
    /// per-item conflicts inside one batch.
    #[test]
    fn meta_batches_equal_single_op_sequence(script in meta_script()) {
        let batched = MetaDht::with_stripes(4, 1, 32);
        let sequential = MetaDht::with_stripes(4, 1, 32);
        assert_meta_batches_match_singles(&script, &batched, &sequential);
    }

    /// The hot-read LRU decorator over the block store is observationally
    /// invisible: every script answers identically with and without it.
    /// The byte budget is tiny (256 B) so eviction churn happens mid-case;
    /// the only permitted difference is the counters.
    #[test]
    fn cached_block_store_is_observationally_transparent(script in vec_ops()) {
        let stats = Arc::new(EngineStats::new());
        let cached = CachedBlockStore::new(
            Arc::new(ProviderSet::with_shards(2, |i| NodeId::new(i as u64), 32)),
            BlockCache::new(256, Arc::clone(&stats)),
        );
        let bare = ProviderSet::with_shards(2, |i| NodeId::new(i as u64), 32);
        assert_block_batches_match_singles(&script, &cached, &bare, None);
        // And the other way round: the decorator driven one item at a
        // time, through the port's provided helpers.
        let cached = CachedBlockStore::new(
            Arc::new(ProviderSet::with_shards(2, |i| NodeId::new(i as u64), 32)),
            BlockCache::new(256, stats),
        );
        let bare = ProviderSet::with_shards(2, |i| NodeId::new(i as u64), 32);
        assert_block_batches_match_singles(&script, &bare, &cached, None);
    }

    /// Same for the inner-node cache of the RPC metadata adapter, warmed
    /// first — every key stored unsalted and read once through it — so
    /// conflicting re-puts must keep answering the *stored* node, and a
    /// delete followed by a re-put of the other salt must answer the new
    /// one: batched over the warm adapter against singles on a bare DHT
    /// given the same prefix, then the other way round.
    #[test]
    fn warmed_rpc_meta_store_is_observationally_transparent(script in meta_script()) {
        let warm_prefix: Vec<(NodeKey, TreeNode)> =
            (0..=255u8).map(|k| (meta_key(k), meta_node(k, false))).collect();
        let keys: Vec<NodeKey> = warm_prefix.iter().map(|(key, _)| *key).collect();
        let bare = || {
            let dht = MetaDht::with_stripes(4, 1, 32);
            dht.put_many(&warm_prefix);
            dht
        };
        for rpc_batched in [true, false] {
            let server = RpcServer::spawn(RpcService::Meta(Arc::new(bare())), Default::default()).unwrap();
            let stats = Arc::new(EngineStats::new());
            let rpc = RpcMetaStore::connect_with(server.addr(), Arc::clone(&stats), 1).unwrap();
            // Cold, then warm: the 128 inner nodes hit, the leaves miss.
            for _ in 0..2 {
                prop_assert_eq!(rpc.get_many(&keys), bare().get_many(&keys));
            }
            let warm = stats.snapshot();
            prop_assert_eq!((warm.cache_hits, warm.cache_misses), (128, 256 + 128));
            if rpc_batched {
                assert_meta_batches_match_singles(&script, &rpc, &bare());
            } else {
                assert_meta_batches_match_singles(&script, &bare(), &rpc);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The disk-backed provider set answers every vectored op script
    /// exactly like the in-memory store driven by the equivalent single-op
    /// sequence — per-item results, block counts, byte accounting, layout.
    #[test]
    fn disk_blocks_equal_in_memory_single_op_sequence(script in vec_ops()) {
        let tmp = TempDir::new("equiv-disk-blocks");
        let disk = DiskProviderSet::open(tmp.path(), 2, |i| NodeId::new(i as u64)).unwrap();
        let mem = ProviderSet::with_shards(2, |i| NodeId::new(i as u64), 32);
        assert_block_batches_match_singles(&script, &disk, &mem, None);
        // And the disk store driven one item at a time (one frame and one
        // write per op) against the in-memory store driven by batches.
        let tmp = TempDir::new("equiv-disk-blocks-singles");
        let disk = DiskProviderSet::open(tmp.path(), 2, |i| NodeId::new(i as u64)).unwrap();
        let mem = ProviderSet::with_shards(2, |i| NodeId::new(i as u64), 32);
        assert_block_batches_match_singles(&script, &mem, &disk, None);
    }

    /// Same property with a simulated process restart between script
    /// sections: `reopen()` drops the in-memory index and rebuilds it from
    /// the volume files, and the equivalence must not notice.
    #[test]
    fn disk_blocks_stay_equivalent_across_mid_script_reopen(script in vec_ops()) {
        let tmp = TempDir::new("equiv-disk-reopen");
        let disk = DiskProviderSet::open(tmp.path(), 2, |i| NodeId::new(i as u64)).unwrap();
        let mem = ProviderSet::with_shards(2, |i| NodeId::new(i as u64), 32);
        for chunk in script.chunks(4) {
            assert_block_batches_match_singles(chunk, &disk, &mem, None);
            disk.reopen().unwrap();
        }
        // Full sweep over the key space after the final restart.
        for provider in 0..2u8 {
            for key in 0..=255u8 {
                let id = block_id(provider, key);
                prop_assert_eq!(
                    BlockStore::get(&disk, provider as usize, id).ok(),
                    BlockStore::get(&mem, provider as usize, id).ok()
                );
            }
        }
    }

    /// The disk metadata store ≡ the in-memory DHT under vectored scripts
    /// with idempotent and conflicting re-puts, restarting the disk store
    /// periodically mid-script — batches on disk against singles in
    /// memory, then singles on disk against batches in memory.
    /// Single-replica DHT: the disk backend keeps one durable copy per
    /// node, so `replication = 1` is the comparable configuration.
    #[test]
    fn disk_meta_equals_in_memory_across_reopen(script in meta_script()) {
        for disk_is_batched in [true, false] {
            let tmp = TempDir::new("equiv-disk-meta");
            let disk = DiskMetaStore::open(tmp.path(), 4).unwrap();
            let mem = MetaDht::with_stripes(4, 1, 32);
            for chunk in script.chunks(5) {
                if disk_is_batched {
                    assert_meta_batches_match_singles(chunk, &disk, &mem);
                } else {
                    assert_meta_batches_match_singles(chunk, &mem, &disk);
                }
                disk.reopen().unwrap();
            }
            // Placement parity: both sides home every key on the same
            // shard, so a backend swap moves no keys.
            for k in 0..=255u8 {
                let key = meta_key(k);
                prop_assert_eq!(MetaStore::fanout_shard(&disk, &key), mem.shard_of(&key));
            }
        }
    }
}

/// The RPC adapters' vectored frames answer exactly like the in-memory
/// adapters, per item — successes, per-item errors (missing blocks,
/// metadata conflicts inside one batch) and out-of-range providers.
#[test]
fn rpc_batches_equal_in_memory_per_item() {
    let rig = rpc_rig();
    let rpc = rig.over_rpc.providers();
    let mem = rig.in_memory.providers();
    // Ids far above the provider-manager ranges, so raw port traffic never
    // collides with the client-protocol proptest cases sharing the rig.
    let id = |k: u64| BlockId::new(u64::MAX - 1000 + k);
    let items: Vec<(BlockId, Bytes)> = (0..16)
        .map(|k| (id(k), Bytes::from(vec![k as u8; 3 + (k as usize % 5)])))
        .collect();
    assert_eq!(rpc.put_many(1, &items), mem.put_many(1, &items));
    // Mixed present/missing fetch: per-item results line up exactly.
    let probe: Vec<BlockId> = (0..24).map(id).collect();
    assert_eq!(rpc.get_many(1, &probe), mem.get_many(1, &probe));
    // One item at a time — a frame of one per op through the provided
    // helpers — answers what the batch answered, per item.
    let singles: Vec<_> = probe.iter().map(|&id| rpc.get(1, id)).collect();
    assert_eq!(singles, mem.get_many(1, &probe));
    for (k, data) in [(30, &b"single"[..]), (30, b"single"), (31, b"")] {
        let data = Bytes::copy_from_slice(data);
        assert_eq!(rpc.put(2, id(k), data.clone()), mem.put(2, id(k), data));
        assert_eq!(rpc.get(2, id(k)), mem.get(2, id(k)));
    }
    for k in [30, 31, 31, 32] {
        assert_eq!(rpc.delete(2, id(k)), mem.delete(2, id(k)), "block {k}");
    }
    assert!(matches!(rpc.get(99, id(0)), Err(Error::Internal(_))));
    // An out-of-range provider fails every item of the batch on the
    // remote adapter (the in-memory stores treat it as a programmer error
    // and panic, same as their single-op methods always have).
    for a in rpc.get_many(99, &probe) {
        assert!(matches!(a, Err(Error::Internal(_))), "{a:?}");
    }
    // Batched deletes: freed bytes per item, then absent.
    assert_eq!(rpc.delete_many(1, &probe), mem.delete_many(1, &probe));
    assert_eq!(rpc.delete_many(1, &probe), mem.delete_many(1, &probe));

    // Metadata: a batch whose middle item conflicts fails exactly that
    // item on both backends, and the surviving items land.
    let rpc_dht = rig.over_rpc.dht();
    let mem_dht = rig.in_memory.dht();
    let key_of = |k: u64| {
        NodeKey::new(
            BlobId::new(u64::MAX - 50),
            Version::new(1 + k),
            Pos::new(0, 1),
        )
    };
    let leaf = |b: u64| {
        TreeNode::Leaf(BlockDescriptor {
            block_id: BlockId::new(b),
            providers: vec![0],
            len: 8,
        })
    };
    let seed: Vec<(NodeKey, TreeNode)> = (0..4).map(|k| (key_of(k), leaf(k))).collect();
    assert_eq!(rpc_dht.put_many(&seed), mem_dht.put_many(&seed));
    let mixed: Vec<(NodeKey, TreeNode)> = vec![
        (key_of(10), leaf(10)), // fresh: lands
        (key_of(2), leaf(99)),  // conflicting re-put: fails
        (key_of(3), leaf(3)),   // idempotent re-put: lands
    ];
    let a = rpc_dht.put_many(&mixed);
    let b = mem_dht.put_many(&mixed);
    assert_eq!(a, b);
    assert!(a[0].is_ok() && a[2].is_ok());
    assert!(matches!(&a[1], Err(Error::MetadataConflict(_))));
    let keys: Vec<NodeKey> = (0..12).map(key_of).collect();
    assert_eq!(rpc_dht.get_many(&keys), mem_dht.get_many(&keys));
    // The same per item through the one-item helpers: fresh put,
    // conflicting and idempotent re-put, hit, miss, delete, re-delete.
    for (k, b) in [(20, 20), (20, 99), (20, 20)] {
        assert_eq!(
            rpc_dht.put(key_of(k), leaf(b)),
            mem_dht.put(key_of(k), leaf(b))
        );
    }
    for key in [key_of(20), key_of(21)] {
        assert_eq!(rpc_dht.get(&key), mem_dht.get(&key));
        assert_eq!(rpc_dht.delete(&key), mem_dht.delete(&key));
        assert_eq!(rpc_dht.delete(&key), mem_dht.delete(&key));
    }
    assert_eq!(rpc_dht.delete_many(&keys), mem_dht.delete_many(&keys));
}

#[test]
fn conflicting_reputs_fail_identically_on_both_layouts() {
    for stripes in [1usize, 32] {
        let dht = MetaDht::with_stripes(4, 1, stripes);
        let key = NodeKey::new(BlobId::new(1), Version::new(1), Pos::new(0, 1));
        let leaf = |b: u64| {
            TreeNode::Leaf(BlockDescriptor {
                block_id: BlockId::new(b),
                providers: vec![0],
                len: 8,
            })
        };
        dht.put(key, leaf(1)).unwrap();
        let err = dht.put(key, leaf(2)).unwrap_err();
        assert!(
            matches!(err, Error::MetadataConflict(_)),
            "stripes={stripes}: {err}"
        );
        assert_eq!(dht.get(&key).unwrap(), leaf(1), "stripes={stripes}");
    }
}

// --- in-memory ≡ RPC-loopback ----------------------------------------------

const RPC_BLOCK: u64 = 64;

/// One step of a client-protocol script, replayed against both backends.
/// Offsets/lengths are drawn small enough to exercise aligned and
/// unaligned paths, holes, multi-block spans and out-of-bounds probes.
#[derive(Clone, Debug)]
enum ClientOp {
    Append { len: u16 },
    Write { offset: u16, len: u16 },
    Read { offset: u16, len: u16 },
    ReadVersion { version: u8, offset: u16, len: u16 },
    Latest,
    History,
}

fn client_ops() -> impl Strategy<Value = Vec<ClientOp>> {
    // Keep lengths non-zero except via the explicit zero-write probe below:
    // a zero-length read is legal, a zero-length write is WriteAborted.
    let op = prop_oneof![
        (1u16..200).prop_map(|len| ClientOp::Append { len }),
        (0u16..600, 1u16..200).prop_map(|(offset, len)| ClientOp::Write { offset, len }),
        (0u16..800, 0u16..300).prop_map(|(offset, len)| ClientOp::Read { offset, len }),
        (0u8..8, 0u16..400, 0u16..200).prop_map(|(version, offset, len)| ClientOp::ReadVersion {
            version,
            offset,
            len
        }),
        (0u16..1).prop_map(|_| ClientOp::Latest),
        (0u16..1).prop_map(|_| ClientOp::History),
    ];
    proptest::collection::vec(op, 1..25)
}

/// The two deployments under comparison, built once and shared by every
/// proptest case (each case runs on a fresh BLOB). The cluster must stay
/// alive as long as the RPC deployment, so both live in the same cell.
struct RpcRig {
    in_memory: Arc<BlobSeer>,
    over_rpc: Arc<BlobSeer>,
    _cluster: LoopbackCluster,
}

fn rpc_rig() -> &'static RpcRig {
    static RIG: OnceLock<RpcRig> = OnceLock::new();
    RIG.get_or_init(|| {
        let cfg = BlobSeerConfig::small_for_tests()
            .with_block_size(RPC_BLOCK)
            .with_unaligned_append_timeout(std::time::Duration::from_millis(200));
        let cluster = LoopbackCluster::boot(cfg.clone(), 4).unwrap();
        RpcRig {
            in_memory: BlobSeer::deploy(cfg, 4),
            over_rpc: cluster.deploy().unwrap(),
            _cluster: cluster,
        }
    })
}

/// Deterministic payload for op `i` of a case.
fn fill(i: usize, len: u16) -> Vec<u8> {
    vec![(i as u8).wrapping_mul(31).wrapping_add(7); len as usize]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The same op script against the in-memory backend and the TCP
    /// loopback cluster yields identical observables: values on success
    /// and the exact `Error` variant on failure. Both deployments create
    /// blobs from the same id sequence, so even the ids agree.
    #[test]
    fn in_memory_and_rpc_loopback_agree(ops in client_ops()) {
        let rig = rpc_rig();
        let mem = rig.in_memory.client(NodeId::new(0));
        let rpc = rig.over_rpc.client(NodeId::new(0));
        let mem_blob = mem.create();
        let rpc_blob = rpc.create();
        prop_assert_eq!(mem_blob, rpc_blob, "blob id sequences must align");
        for (i, op) in ops.iter().enumerate() {
            match *op {
                ClientOp::Append { len } => {
                    let data = fill(i, len);
                    prop_assert_eq!(
                        mem.append(mem_blob, &data),
                        rpc.append(rpc_blob, &data),
                        "append diverged at step {}", i
                    );
                }
                ClientOp::Write { offset, len } => {
                    let data = fill(i, len);
                    prop_assert_eq!(
                        mem.write(mem_blob, offset as u64, &data),
                        rpc.write(rpc_blob, offset as u64, &data),
                        "write diverged at step {}", i
                    );
                }
                ClientOp::Read { offset, len } => {
                    prop_assert_eq!(
                        mem.read(mem_blob, None, offset as u64, len as u64),
                        rpc.read(rpc_blob, None, offset as u64, len as u64),
                        "read diverged at step {}", i
                    );
                }
                ClientOp::ReadVersion { version, offset, len } => {
                    let v = Some(Version::new(version as u64));
                    prop_assert_eq!(
                        mem.read(mem_blob, v, offset as u64, len as u64),
                        rpc.read(rpc_blob, v, offset as u64, len as u64),
                        "versioned read diverged at step {}", i
                    );
                }
                ClientOp::Latest => {
                    prop_assert_eq!(mem.latest(mem_blob), rpc.latest(rpc_blob));
                }
                ClientOp::History => {
                    prop_assert_eq!(mem.history(mem_blob), rpc.history(rpc_blob));
                }
            }
        }
        // Error probes at the end of every case: the exact variants must
        // cross the wire. (OutOfBounds, NoSuchBlob, NoSuchVersion,
        // WriteAborted, VersionNotRevealed.)
        let (_, size) = mem.latest(mem_blob).unwrap();
        prop_assert_eq!(
            mem.read(mem_blob, None, size, 1),
            rpc.read(rpc_blob, None, size, 1)
        );
        prop_assert_eq!(
            mem.latest(BlobId::new(u64::MAX)),
            rpc.latest(BlobId::new(u64::MAX))
        );
        prop_assert_eq!(
            mem.read(mem_blob, Some(Version::new(10_000)), 0, 1),
            rpc.read(rpc_blob, Some(Version::new(10_000)), 0, 1)
        );
        prop_assert_eq!(
            mem.write(mem_blob, 0, &[]),
            rpc.write(rpc_blob, 0, &[])
        );
        // A block-aligned stuck version: reads of it answer
        // VersionNotRevealed identically on both sides. (Block-aligned so
        // it never sends a later unaligned append into the slow path —
        // there are no later ops on these blobs.)
        let stuck_mem = rig.in_memory.version_manager()
            .assign(mem_blob, WriteIntent::Append { size: RPC_BLOCK }).unwrap();
        let stuck_rpc = rig.over_rpc.version_manager()
            .assign(rpc_blob, WriteIntent::Append { size: RPC_BLOCK }).unwrap();
        prop_assert_eq!(stuck_mem.version, stuck_rpc.version);
        prop_assert_eq!(stuck_mem.offset, stuck_rpc.offset);
        prop_assert_eq!(
            mem.read(mem_blob, Some(stuck_mem.version), 0, 1),
            rpc.read(rpc_blob, Some(stuck_rpc.version), 0, 1)
        );
        prop_assert_eq!(
            rig.in_memory.version_manager().pending_versions(mem_blob).unwrap(),
            rig.over_rpc.version_manager().pending_versions(rpc_blob).unwrap()
        );
        // Repair both so the shared deployments stay healthy for later
        // cases (fresh blobs, but keep the VM free of stuck versions).
        mem.repair_aborted(&stuck_mem).unwrap();
        rpc.repair_aborted(&stuck_rpc).unwrap();
    }

    /// Wire-codec round trips on random domain values: tree nodes, node
    /// keys, log entries, snapshot infos. Encode → decode is the identity.
    #[test]
    fn wire_codec_roundtrips_random_values(
        seeds in proptest::collection::vec((any::<u64>(), any::<u64>(), 0u8..3), 1..40)
    ) {
        for &(a, b, kind) in &seeds {
            // A valid position derived from the seed: power-of-two length,
            // aligned start.
            let len = 1u64 << (a % 20);
            let start = (b % 1000) * len;
            let pos = Pos::new(start, len);
            let key = NodeKey::new(BlobId::new(a), Version::new(b), pos);
            prop_assert_eq!(Wire::from_bytes(&key.to_bytes()), Ok(key));

            let node = match kind {
                0 => TreeNode::Inner {
                    left: (a % 2 == 0).then_some(NodeRef {
                        blob: BlobId::new(a),
                        version: Version::new(b),
                    }),
                    right: (b % 2 == 0).then_some(NodeRef {
                        blob: BlobId::new(b),
                        version: Version::new(a),
                    }),
                },
                1 => TreeNode::Leaf(BlockDescriptor {
                    block_id: BlockId::new(a),
                    providers: vec![(a % 7) as u32, (b % 11) as u32],
                    len: (b % (u32::MAX as u64)) as u32,
                }),
                _ => TreeNode::LeafAlias((a % 3 == 0).then_some(NodeRef {
                    blob: BlobId::new(b),
                    version: Version::new(a),
                })),
            };
            prop_assert_eq!(Wire::from_bytes(&node.to_bytes()), Ok(node));

            let info = blobseer_core::SnapshotInfo {
                version: Version::new(a),
                size: b,
                cap: len,
                root_blob: BlobId::new(b),
                revealed: a % 2 == 0,
            };
            prop_assert_eq!(Wire::from_bytes(&info.to_bytes()), Ok(info));
        }
    }
}

/// Every `Error` variant — the full port failure vocabulary — survives a
/// wire round trip bit-exactly, both bare and through the RPC response
/// envelope. This is the "failures propagate across the wire instead of
/// degrading to transport errors" guarantee, asserted exhaustively.
#[test]
fn every_error_variant_survives_the_wire() {
    for e in error_fixture() {
        assert_eq!(
            Error::from_bytes(&e.to_bytes()),
            Ok(e.clone()),
            "bare codec"
        );

        let body = blobseer_rpc::wire::encode_response(Err(e.clone()));
        assert_eq!(
            blobseer_rpc::wire::decode_response(&body, |_| Ok(())).unwrap_err(),
            e,
            "response envelope"
        );
    }
}

#[test]
fn threaded_workload_converges_to_identical_state() {
    // 8 threads hammer both layouts with the same per-thread scripts
    // (disjoint key spaces, so the interleaving cannot change outcomes);
    // both must converge to the same observable state.
    let run = |shards: usize| {
        let set = Arc::new(ProviderSet::with_shards(
            2,
            |i| NodeId::new(i as u64),
            shards,
        ));
        let threads: Vec<_> = (0..8u64)
            .map(|t| {
                let set = Arc::clone(&set);
                std::thread::spawn(move || {
                    for i in 0..300u64 {
                        let id = BlockId::new(1 + t * 10_000 + i);
                        let data = Bytes::from(vec![(t ^ i) as u8; 8]);
                        let p = (i % 2) as usize;
                        BlockStore::put(&*set, p, id, data).unwrap();
                        assert_eq!(BlockStore::get(&*set, p, id).unwrap().len(), 8);
                        if i % 3 == 0 {
                            let _ = BlockStore::delete(&*set, p, id);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        (
            set.layout_vector(),
            BlockStore::total_bytes_stored(&*set),
            BlockStore::total_block_count(&*set),
        )
    };
    assert_eq!(run(1), run(32));
}

// --- hosted placement/GC ≡ in-memory ----------------------------------------

/// One step of a control-plane-heavy script: ops chosen to exercise the
/// placement allocation stream (writes), subtree sharing (branches) and
/// the GC refcount cascades (collections, deletions) — the traffic that
/// flows through the *hosted* placement and GC services of a
/// `LoopbackCluster` and through the in-memory `ProviderManager`/`GcHost`
/// of a single-process deployment.
#[derive(Clone, Debug)]
enum ControlOp {
    Create,
    Append { blob: u8, len: u16 },
    Write { blob: u8, offset: u16, len: u16 },
    Branch { blob: u8, at: u8 },
    GcBefore { blob: u8, keep_from: u8 },
    DeleteBlob { blob: u8 },
}

fn control_ops() -> impl Strategy<Value = Vec<ControlOp>> {
    let op = prop_oneof![
        (0u8..1).prop_map(|_| ControlOp::Create),
        (any::<u8>(), 1u16..200).prop_map(|(blob, len)| ControlOp::Append { blob, len }),
        (any::<u8>(), 0u16..400, 1u16..200).prop_map(|(blob, offset, len)| ControlOp::Write {
            blob,
            offset,
            len
        }),
        (any::<u8>(), 0u8..6).prop_map(|(blob, at)| ControlOp::Branch { blob, at }),
        (any::<u8>(), 0u8..6).prop_map(|(blob, keep_from)| ControlOp::GcBefore { blob, keep_from }),
        any::<u8>().prop_map(|blob| ControlOp::DeleteBlob { blob }),
    ];
    proptest::collection::vec(op, 1..30)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The hosted control plane is observationally identical to the
    /// in-memory one. Each case boots a fresh cluster (so the global
    /// placement/GC observables start from zero on both sides) and replays
    /// one script against both deployments: every op result — versions,
    /// blob ids, `GcReport`s, error variants — must agree, and afterwards
    /// the *global* control-plane state must too: per-provider load
    /// vectors, provider heartbeats, tracked refcount entries and the
    /// per-provider block layout left behind by the cascades.
    #[test]
    fn hosted_placement_and_gc_match_in_memory(ops in control_ops()) {
        let cfg = BlobSeerConfig::small_for_tests()
            .with_block_size(RPC_BLOCK)
            .with_unaligned_append_timeout(std::time::Duration::from_millis(200));
        let cluster = LoopbackCluster::boot(cfg.clone(), 4).unwrap();
        let hosted = cluster.deploy().unwrap();
        let in_mem = BlobSeer::deploy(cfg, 4);
        let mem = in_mem.client(NodeId::new(0));
        let rpc = hosted.client(NodeId::new(0));

        // Blob id sequences align (same version-manager logic on both
        // sides), so one pool indexes both deployments.
        let mut pool = vec![mem.create()];
        prop_assert_eq!(pool[0], rpc.create());
        for (i, op) in ops.iter().enumerate() {
            let pick = |sel: u8| pool[sel as usize % pool.len()];
            match *op {
                ControlOp::Create => {
                    let (a, b) = (mem.try_create(), rpc.try_create());
                    prop_assert_eq!(&a, &b, "create diverged at step {}", i);
                    if let Ok(blob) = a {
                        pool.push(blob);
                    }
                }
                ControlOp::Append { blob, len } => {
                    let blob = pick(blob);
                    let data = fill(i, len);
                    prop_assert_eq!(
                        mem.append(blob, &data),
                        rpc.append(blob, &data),
                        "append diverged at step {}", i
                    );
                }
                ControlOp::Write { blob, offset, len } => {
                    let blob = pick(blob);
                    let data = fill(i, len);
                    prop_assert_eq!(
                        mem.write(blob, offset as u64, &data),
                        rpc.write(blob, offset as u64, &data),
                        "write diverged at step {}", i
                    );
                }
                ControlOp::Branch { blob, at } => {
                    let blob = pick(blob);
                    let at = Version::new(at as u64);
                    let (a, b) = (mem.branch(blob, at), rpc.branch(blob, at));
                    prop_assert_eq!(&a, &b, "branch diverged at step {}", i);
                    if let Ok(new_blob) = a {
                        pool.push(new_blob);
                    }
                }
                ControlOp::GcBefore { blob, keep_from } => {
                    let blob = pick(blob);
                    let keep = Version::new(keep_from as u64);
                    prop_assert_eq!(
                        mem.gc_before(blob, keep),
                        rpc.gc_before(blob, keep),
                        "collection diverged at step {}", i
                    );
                }
                ControlOp::DeleteBlob { blob } => {
                    let blob = pick(blob);
                    let (a, b) = (mem.delete_blob(blob), rpc.delete_blob(blob));
                    prop_assert_eq!(&a, &b, "delete diverged at step {}", i);
                    if a.is_ok() && pool.len() > 1 {
                        pool.retain(|&x| x != blob);
                    }
                }
            }
        }

        // Global control-plane state: the hosted provider manager's load
        // table and the hosted GC tracker's refcounts converged to exactly
        // the in-memory deployment's.
        let mem_pm = in_mem.provider_manager();
        let rpc_pm = hosted.provider_manager();
        prop_assert_eq!(mem_pm.provider_count(), rpc_pm.provider_count());
        prop_assert_eq!(mem_pm.load_vector(), rpc_pm.load_vector());
        for p in 0..mem_pm.provider_count() {
            prop_assert_eq!(mem_pm.heartbeat(p), rpc_pm.heartbeat(p));
        }
        // Out-of-range probes answer the same error variant over the wire.
        prop_assert_eq!(mem_pm.heartbeat(99), rpc_pm.heartbeat(99));
        prop_assert_eq!(
            in_mem.gc_service().tracked_nodes(),
            hosted.gc_service().tracked_nodes()
        );
        // The storage the cascades left behind matches per provider.
        prop_assert_eq!(
            in_mem.providers().layout_vector(),
            hosted.providers().layout_vector()
        );
        prop_assert_eq!(
            BlockStore::total_bytes_stored(in_mem.providers()),
            BlockStore::total_bytes_stored(hosted.providers())
        );
    }
}
