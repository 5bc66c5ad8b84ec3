//! The multiplexed transport: many in-flight requests per connection, a
//! bounded socket budget, transparent redial after a server restart, and
//! the opt-in hot-read cache tier.
//!
//! The old transport model spent one TCP connection per in-flight request
//! (a parked `wait_revealed` pinned a whole socket). These tests pin down
//! the muxed model's contract instead: 64 concurrent requests — one of
//! them a `wait_revealed` deliberately blocked for 500 ms — all complete
//! through a fixed per-endpoint connection budget, observed from the
//! *server* side via its accept counter.

use blobseer_core::block_store::ProviderSet;
use blobseer_core::meta::key::{NodeKey, Pos};
use blobseer_core::meta::node::{NodeRef, TreeNode};
use blobseer_core::ports::{BlockStore, MetaStore};
use blobseer_core::{EngineStats, WriteIntent};
use blobseer_rpc::{LoopbackCluster, RpcBlockStore, RpcMetaStore, RpcServer, RpcService};
use blobseer_types::{BlobId, BlobSeerConfig, BlockId, Error, NodeId, Version};
use bytes::Bytes;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const BLOCK: u64 = 256;

#[test]
fn pipelined_requests_complete_within_the_connection_budget() {
    let cfg = BlobSeerConfig::small_for_tests().with_block_size(BLOCK);
    let budget = cfg.rpc_client_connections;
    // One data provider: every block request pipelines on that single
    // endpoint's connections.
    let cluster = LoopbackCluster::boot(cfg, 1).unwrap();
    let sys = cluster.deploy().unwrap();
    let c = sys.client(NodeId::new(0));

    let blob = c.create();
    let payload: Vec<u8> = (0..64 * BLOCK).map(|i| i as u8).collect();
    let v1 = c.write(blob, 0, &payload).unwrap();

    // A writer that assigned but never commits: the next committed write
    // cannot reveal, so waiting for it parks server-side for the full
    // timeout (§III-C reveal-in-order).
    sys.version_manager()
        .assign(blob, WriteIntent::Append { size: BLOCK })
        .unwrap();
    let v3 = c.write(blob, 0, &[9u8; BLOCK as usize]).unwrap();

    let wait_done = Arc::new(AtomicBool::new(false));
    let waiter = {
        let sys = Arc::clone(&sys);
        let wait_done = Arc::clone(&wait_done);
        std::thread::spawn(move || {
            let c = sys.client(NodeId::new(1));
            let started = Instant::now();
            let err = c
                .wait_revealed(blob, v3, Duration::from_millis(500))
                .unwrap_err();
            wait_done.store(true, Ordering::SeqCst);
            (err, started.elapsed())
        })
    };
    // Give the wait a head start so it is parked before the readers run.
    std::thread::sleep(Duration::from_millis(50));

    // 64 concurrent readers, each one block plus a version-manager call —
    // so the version service keeps answering on the same connections the
    // parked wait rides.
    let barrier = Arc::new(Barrier::new(64));
    let readers: Vec<_> = (0..64u64)
        .map(|i| {
            let sys = Arc::clone(&sys);
            let barrier = Arc::clone(&barrier);
            let expect = payload[(i * BLOCK) as usize..((i + 1) * BLOCK) as usize].to_vec();
            std::thread::spawn(move || {
                let c = sys.client(NodeId::new(10 + i));
                barrier.wait();
                let data = c.read(blob, Some(v1), i * BLOCK, BLOCK).unwrap();
                assert_eq!(&data[..], &expect[..], "reader {i} got wrong bytes");
                assert_eq!(c.latest(blob).unwrap().0, v1, "v3 must not be revealed");
            })
        })
        .collect();
    for r in readers {
        r.join().unwrap();
    }
    assert!(
        !wait_done.load(Ordering::SeqCst),
        "all 64 readers finished while wait_revealed was still parked"
    );
    let (err, waited) = waiter.join().unwrap();
    assert!(matches!(err, Error::Timeout(_)), "{err}");
    assert!(waited >= Duration::from_millis(450), "parked {waited:?}");

    // The server-side accept counters bound the socket spend: 5 endpoints
    // (block, meta, version, plus the placement and GC control planes),
    // at most `budget` muxed connections each — not one socket per
    // in-flight request.
    let accepted = cluster.connections_accepted();
    assert!(
        accepted <= (5 * budget) as u64,
        "{accepted} sockets accepted for 65 concurrent requests (budget {budget}/endpoint)"
    );
}

/// `put_levels` over the wire: one frame per level, all of them written
/// before the first response is awaited; every level is attempted, results
/// stay per item, and each frame is one metered round trip.
#[test]
fn put_levels_overlaps_one_frame_per_level_with_per_item_results() {
    let cluster =
        LoopbackCluster::boot(BlobSeerConfig::small_for_tests().with_block_size(BLOCK), 1).unwrap();
    let stats = Arc::new(EngineStats::new());
    let dht = RpcMetaStore::connect(cluster.meta_addr(), Arc::clone(&stats)).unwrap();
    let key = |v: u64, start: u64, len: u64| {
        NodeKey::new(BlobId::new(1), Version::new(v), Pos::new(start, len))
    };
    let node = |v: u64| {
        TreeNode::LeafAlias(Some(NodeRef {
            blob: BlobId::new(1),
            version: Version::new(v),
        }))
    };
    // A node already stored with other content makes one item of the
    // middle level a conflict.
    dht.put(key(2, 2, 2), node(9)).unwrap();
    let levels = vec![
        vec![(key(2, 0, 1), node(1)), (key(2, 1, 1), node(1))],
        vec![(key(2, 0, 2), node(1)), (key(2, 2, 2), node(1))],
        vec![(key(2, 0, 4), node(1))],
    ];
    let (frames, trips) = (cluster.frames_served(), stats.snapshot());
    let results = dht.put_levels(&levels);
    let after = stats.snapshot();
    assert_eq!(cluster.frames_served() - frames, 3, "one frame per level");
    assert_eq!(after.port_round_trips - trips.port_round_trips, 3);
    assert_eq!(after.batched_items - trips.batched_items, 5);

    let shape: Vec<usize> = results.iter().map(Vec::len).collect();
    assert_eq!(
        shape,
        [2, 2, 1],
        "every level attempted, one result per item"
    );
    let flat: Vec<&Result<(), Error>> = results.iter().flatten().collect();
    assert!(
        matches!(flat[3], Err(Error::MetadataConflict(_))),
        "{:?}",
        flat[3]
    );
    assert_eq!(flat.iter().filter(|r| r.is_ok()).count(), 4);
    // The level above the conflict landed too: the order protects nothing
    // (a version is revealed only after its whole publish succeeded).
    assert_eq!(dht.get(&key(2, 0, 4)).unwrap(), node(1));
    assert_eq!(
        dht.get(&key(2, 2, 2)).unwrap(),
        node(9),
        "conflict left in place"
    );
}

#[test]
fn idle_dead_connections_redial_after_a_server_restart_on_the_same_port() {
    let provider: Arc<ProviderSet> = Arc::new(ProviderSet::new(1, |_| NodeId::new(7)));
    let mut server =
        RpcServer::spawn_with(RpcService::Block(Arc::clone(&provider) as _), 2, 16).unwrap();
    let addr = server.addr();

    let stats = Arc::new(EngineStats::new());
    let store = RpcBlockStore::connect_with(&[addr], Arc::clone(&stats), 2).unwrap();
    store
        .put(0, BlockId::new(1), Bytes::from_static(b"before restart"))
        .unwrap();
    assert_eq!(
        &store.get(0, BlockId::new(1)).unwrap()[..],
        b"before restart"
    );

    // Restart on the *same* port while the client pool idles. Every muxed
    // connection the client holds dies here.
    server.shutdown();
    drop(server);
    let deadline = Instant::now() + Duration::from_secs(10);
    let _server2 = loop {
        // The old listener's sockets may linger briefly (TIME_WAIT);
        // retry the bind rather than flake.
        match RpcServer::spawn_at(addr, RpcService::Block(Arc::clone(&provider) as _), 2, 16) {
            Ok(s) => break s,
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => panic!("could not rebind {addr}: {e}"),
        }
    };

    // No reconnect ceremony: the next calls transparently redial. Data
    // survives because the restarted server hosts the same provider set.
    assert_eq!(
        &store.get(0, BlockId::new(1)).unwrap()[..],
        b"before restart"
    );
    store
        .put(0, BlockId::new(2), Bytes::from_static(b"after restart"))
        .unwrap();
    assert_eq!(
        &store.get(0, BlockId::new(2)).unwrap()[..],
        b"after restart"
    );
    assert_eq!(store.block_count(0), 2);
    assert_eq!(
        stats.snapshot().rpc_degraded_diagnostics,
        0,
        "healthy calls after the restart must not count as degradations"
    );
}

#[test]
fn diagnostics_against_a_dead_cluster_degrade_loudly_not_silently() {
    let provider: Arc<ProviderSet> = Arc::new(ProviderSet::new(1, |_| NodeId::new(0)));
    let mut server =
        RpcServer::spawn_with(RpcService::Block(Arc::clone(&provider) as _), 2, 16).unwrap();
    let stats = Arc::new(EngineStats::new());
    let store = RpcBlockStore::connect_with(&[server.addr()], Arc::clone(&stats), 1).unwrap();
    assert_eq!(store.block_count(0), 0);
    assert_eq!(stats.snapshot().rpc_degraded_diagnostics, 0);

    server.shutdown();
    drop(server);
    // The port has no error channel for these: they answer their zero
    // defaults, but each degradation is now counted.
    assert!(!store.contains(0, BlockId::new(1)));
    assert_eq!(store.block_count(0), 0);
    assert_eq!(store.bytes_stored(0), 0);
    assert_eq!(store.op_counts(0), (0, 0));
    assert_eq!(
        stats.snapshot().rpc_degraded_diagnostics,
        4,
        "every degraded diagnostic answer must be observable on EngineStats"
    );

    // `MetaStore::delete` answers a `bool`: a delete lost on the wire
    // reads as "nothing deleted", counted like the diagnostics above (the
    // adapter's one single-item override, over its own `delete_many`).
    let dht: Arc<dyn MetaStore> = Arc::new(blobseer_core::dht::MetaDht::new(2, 1));
    let mut server = RpcServer::spawn(RpcService::Meta(Arc::clone(&dht))).unwrap();
    let meta = RpcMetaStore::connect_with(server.addr(), Arc::clone(&stats), 1).unwrap();
    let key = NodeKey::new(BlobId::new(1), Version::new(1), Pos::new(0, 1));
    meta.put(key, TreeNode::LeafAlias(None)).unwrap();
    assert!(meta.delete(&key), "a reachable delete answers for real");
    assert_eq!(stats.snapshot().rpc_degraded_diagnostics, 4);
    server.shutdown();
    drop(server);
    assert!(!meta.delete(&key));
    assert_eq!(stats.snapshot().rpc_degraded_diagnostics, 5);
}

#[test]
fn read_cache_serves_hot_snapshots_and_reports_hits() {
    let cfg = BlobSeerConfig::small_for_tests()
        .with_block_size(BLOCK)
        .with_read_cache_bytes(1 << 20);
    let cluster = LoopbackCluster::boot(cfg, 2).unwrap();
    let sys = cluster.deploy().unwrap();
    let c = sys.client(NodeId::new(0));

    let blob = c.create();
    let payload: Vec<u8> = (0..16 * BLOCK).map(|i| (i / 3) as u8).collect();
    c.write(blob, 0, &payload).unwrap();

    // Write-allocate: the writer's own cache was populated by the puts,
    // so reading back its own blob never re-fetches a block.
    let first = c.read(blob, None, 0, payload.len() as u64).unwrap();
    assert_eq!(&first[..], &payload[..]);
    let writer_snap = sys.stats().snapshot();
    assert!(
        writer_snap.cache_hits > 0,
        "write-allocate must serve the writer's read-back from cache"
    );
    assert_eq!(
        writer_snap.cache_misses, 0,
        "the writer populated every block and tree node it reads back"
    );

    // A second deployment starts cold: its first read pays misses over
    // the wire, the hot re-read is served from its own cache with fewer
    // round trips.
    let sys2 = cluster.deploy().unwrap();
    let c2 = sys2.client(NodeId::new(9));
    let cold = c2.read(blob, None, 0, payload.len() as u64).unwrap();
    assert_eq!(&cold[..], &payload[..]);
    let after_cold = sys2.stats().snapshot();
    assert!(
        after_cold.cache_misses > 0,
        "the cold read populates via misses"
    );

    let warm = c2.read(blob, None, 0, payload.len() as u64).unwrap();
    assert_eq!(&warm[..], &payload[..]);
    let after_warm = sys2.stats().snapshot();
    assert!(
        after_warm.cache_hits > after_cold.cache_hits,
        "the hot re-read must hit the cache"
    );
    assert_eq!(
        after_warm.cache_misses, after_cold.cache_misses,
        "nothing evicted under a 1 MiB budget: the re-read misses nothing"
    );
    let cold_trips = after_cold.port_round_trips;
    let warm_trips = after_warm.port_round_trips - cold_trips;
    assert!(
        warm_trips < cold_trips,
        "cached re-read took {warm_trips} round trips vs {cold_trips} cold"
    );
}

/// A block store that notes where in memory each item it is handed lies.
struct AddressSpy {
    inner: Arc<dyn BlockStore>,
    put_many_items: std::sync::Mutex<Vec<(usize, usize)>>,
}

impl BlockStore for AddressSpy {
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn node(&self, provider: usize) -> NodeId {
        self.inner.node(provider)
    }
    fn index_of_node(&self, node: NodeId) -> Option<usize> {
        self.inner.index_of_node(node)
    }
    fn contains(&self, provider: usize, id: BlockId) -> bool {
        self.inner.contains(provider, id)
    }
    fn put_many(
        &self,
        provider: usize,
        items: &[(BlockId, Bytes)],
    ) -> Vec<blobseer_types::Result<()>> {
        self.put_many_items.lock().unwrap().extend(
            items
                .iter()
                .map(|(_, data)| (data.as_ptr() as usize, data.len())),
        );
        self.inner.put_many(provider, items)
    }
    fn get_many(&self, provider: usize, ids: &[BlockId]) -> Vec<blobseer_types::Result<Bytes>> {
        self.inner.get_many(provider, ids)
    }
    fn delete_many(&self, provider: usize, ids: &[BlockId]) -> Vec<blobseer_types::Result<u64>> {
        self.inner.delete_many(provider, ids)
    }
    fn block_count(&self, provider: usize) -> usize {
        self.inner.block_count(provider)
    }
    fn bytes_stored(&self, provider: usize) -> u64 {
        self.inner.bytes_stored(provider)
    }
    fn op_counts(&self, provider: usize) -> (u64, u64) {
        self.inner.op_counts(provider)
    }
}

#[test]
fn a_put_many_frame_reaches_the_store_as_slices_of_its_own_buffer() {
    // The server hands the store the blocks where the socket read left
    // them. Seen from the store: the items of one frame lie in one
    // allocation, exactly as far apart as the frame's own item headers
    // are wide — copies would lie wherever the allocator put them.
    let spy = Arc::new(AddressSpy {
        inner: Arc::new(ProviderSet::new(1, |_| NodeId::new(0))),
        put_many_items: std::sync::Mutex::new(Vec::new()),
    });
    let server = RpcServer::spawn(RpcService::Block(spy.clone())).unwrap();
    let remote = RpcBlockStore::connect(&[server.addr()], Arc::new(EngineStats::new())).unwrap();
    // Ids and lengths that both encode as two-byte varints.
    let items: Vec<(BlockId, Bytes)> = (0..16u64)
        .map(|k| {
            let block = vec![k as u8; 4096 + k as usize];
            (BlockId::new(1000 + k), Bytes::from(block))
        })
        .collect();
    assert!(remote.put_many(0, &items).iter().all(|r| r.is_ok()));
    let seen = spy.put_many_items.lock().unwrap().clone();
    assert_eq!(seen.len(), items.len(), "one frame, one put_many");
    for (k, pair) in seen.windows(2).enumerate() {
        let (at, len) = pair[0];
        assert_eq!(pair[1].0, at + len + 4, "item {} is not a slice", k + 1);
    }
    for (got, (_, want)) in remote
        .get_many(0, &items.iter().map(|(id, _)| *id).collect::<Vec<_>>())
        .into_iter()
        .zip(&items)
    {
        assert_eq!(&got.unwrap(), want);
    }
}

/// The single-item wire tags are retired, not reassigned: a frame carrying
/// one is answered like a tag the service never had, and the connection
/// it came on keeps serving.
#[test]
fn retired_single_item_tags_answer_unknown_tag_and_the_connection_lives_on() {
    use blobseer_rpc::wire::{decode_response, read_frame, write_frame};
    use blobseer_types::wire::WireWriter;

    let cluster = LoopbackCluster::boot(BlobSeerConfig::small_for_tests(), 1).unwrap();
    // (service, endpoint, its retired PUT/GET/DELETE tags, a surviving tag
    // without arguments and the number it answers first).
    let cases = [
        ("block", cluster.block_addrs()[0], [1u8, 2, 4], 0u8, 1u64), // DESCRIBE: 1 provider
        ("meta", cluster.meta_addr(), [0, 1, 2], 3, 4),              // SHARD_COUNT: 4 shards
    ];
    for (service, addr, retired, live_tag, live_answer) in cases {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        let mut exchange = |req_id: u64, body: &[u8]| {
            write_frame(&mut stream, req_id, body).unwrap();
            let (id, response) = read_frame(&mut stream).unwrap().expect("a response");
            assert_eq!(id, req_id, "{service}: response id");
            response
        };
        for (req_id, tag) in retired.into_iter().enumerate() {
            // The retired request as it was sent: its tag, then arguments.
            let mut request = WireWriter::new();
            request.put_u8(tag);
            request.put_u64(0);
            request.put_u64(7);
            let response = exchange(req_id as u64, request.as_slice());
            let err = decode_response(&response).unwrap_err();
            let expected = format!("unknown {service} method tag {tag}");
            assert!(
                matches!(&err, Error::Transport(why) if why.contains(&expected)),
                "{service} tag {tag}: {err}"
            );
        }
        let response = exchange(99, &[live_tag]);
        let mut payload = decode_response(&response).unwrap();
        assert_eq!(payload.get_u64().unwrap(), live_answer, "{service}");
    }
}

/// A transient refusal in the middle of batched traffic costs exactly one
/// item, on both fault decorators: the plan is consulted per item and
/// reverts as it fires, the refused item never leaves, and the un-faulted
/// rest of its batch lands — as one frame, not one per item.
#[test]
fn fail_once_fails_one_item_and_ships_the_rest_of_its_batch_as_one_frame() {
    use blobseer_core::{FaultPlan, FaultyBlockStore, FaultyMetaStore, PutFault};

    let cluster = LoopbackCluster::boot(BlobSeerConfig::small_for_tests(), 1).unwrap();
    let stats = Arc::new(EngineStats::new());
    let frames = || stats.snapshot().port_round_trips;
    let plan = FaultPlan::new();
    let refused_first = |out: &[Result<(), Error>]| {
        assert!(matches!(out[0], Err(Error::WriteAborted(_))), "{out:?}");
        assert!(out[1..].iter().all(Result::is_ok), "{out:?}");
        assert_eq!(plan.current(), PutFault::None, "reverted as it fired");
    };

    let remote = RpcBlockStore::connect(cluster.block_addrs(), Arc::clone(&stats)).unwrap();
    let blocks = FaultyBlockStore::new(Arc::new(remote), Arc::clone(&plan));
    let items: Vec<(BlockId, Bytes)> = (0..8u64)
        .map(|k| (BlockId::new(500 + k), Bytes::from(vec![k as u8; 16])))
        .collect();
    assert!(blocks.put_many(0, &items[..2]).iter().all(Result::is_ok));
    let before = frames();
    plan.set(PutFault::FailOnce);
    refused_first(&blocks.put_many(0, &items[2..]));
    assert_eq!(frames() - before, 1, "five landed blocks, one frame");
    let ids: Vec<BlockId> = items.iter().map(|(id, _)| *id).collect();
    let held: Vec<bool> = blocks.get_many(0, &ids).iter().map(Result::is_ok).collect();
    assert_eq!(held, [true, true, false, true, true, true, true, true]);

    let remote = RpcMetaStore::connect(cluster.meta_addr(), Arc::clone(&stats)).unwrap();
    let meta = FaultyMetaStore::new(Arc::new(remote), Arc::clone(&plan));
    let nodes: Vec<(NodeKey, TreeNode)> = (0..4u64)
        .map(|v| {
            let key = NodeKey::new(BlobId::new(77), Version::new(v), Pos::new(0, 1));
            (key, TreeNode::LeafAlias(None))
        })
        .collect();
    let before = frames();
    plan.set(PutFault::FailOnce);
    refused_first(&meta.put_many(&nodes));
    assert_eq!(frames() - before, 1, "three landed nodes, one frame");
    let keys: Vec<NodeKey> = nodes.iter().map(|(key, _)| *key).collect();
    let held: Vec<bool> = meta.get_many(&keys).iter().map(Result::is_ok).collect();
    assert_eq!(held, [false, true, true, true]);
    assert_eq!(plan.counters(), (0, 2, 0, 0));
}
