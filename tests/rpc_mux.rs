//! The multiplexed transport: many in-flight requests per connection, a
//! bounded socket budget, transparent redial after a server restart (a
//! read-only call cut off by a closing connection is resent once, and a
//! restart no call saw is noticed before a cached answer), connections
//! served independently of each other and surviving a panicking handler,
//! a pipelined metadata publish, and the two read caches (the metadata
//! adapter's inner-node cache and the version adapter's revealed
//! snapshots).
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
use blobseer_core::ports::{BlockHook, BlockStore, Hooked, MetaHook, MetaStore};
use blobseer_core::{EngineStats, WriteIntent};
use blobseer_rpc::{
    LoopbackCluster, RpcBlockStore, RpcMetaStore, RpcServer, RpcService, ServerOptions,
};
use blobseer_types::{BlobId, BlobSeerConfig, BlockId, Error, NodeId, Version};
use bytes::Bytes;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
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

/// `put_levels` over the wire: one frame per level; every level is
/// attempted, results stay per item, and each frame is one metered round
/// trip. (That the frames are all written before the first response is
/// awaited is the next test's.)
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

/// `put_levels` puts every level's frame on the wire before it awaits the
/// first answer. The peer here reads all of them before it answers any; a
/// client that waited between frames would leave it waiting, so the peer
/// gives up after a timeout and hangs up instead of deadlocking the test.
#[test]
fn put_levels_writes_every_level_before_awaiting_the_first_answer() {
    use blobseer_rpc::wire::{read_frame, write_frame};
    use blobseer_types::wire::{Wire, WireReader};
    const LEVELS: usize = 7;
    const SHARD_COUNT: u8 = 3;
    const PUT_MANY: u8 = 7;

    let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        drop(listener); // a redial is refused, not left unanswered
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = std::io::BufReader::new(stream);
        // The adapter's connect-time probe, answered at once.
        let (id, body) = read_frame(&mut reader).unwrap().unwrap();
        assert_eq!(body, [SHARD_COUNT]);
        write_frame(&mut writer, id, &Ok::<usize, Error>(4).to_bytes()).unwrap();
        // Each level's frame: its id and item count, held unanswered.
        let mut held = Vec::new();
        while held.len() < LEVELS {
            let Ok(Some((id, body))) = read_frame(&mut reader) else {
                return held.len(); // timed out: the client awaits an answer
            };
            assert_eq!(body[0], PUT_MANY);
            held.push((id, u64::get(&mut WireReader::new(&body[1..])).unwrap()));
        }
        for (id, items) in &held {
            let answer: Vec<Result<(), Error>> = (0..*items).map(|_| Ok(())).collect();
            write_frame(&mut writer, *id, &Ok::<_, Error>(answer).to_bytes()).unwrap();
        }
        held.len()
    });

    let meta = RpcMetaStore::connect_with(addr, Arc::new(EngineStats::new()), 1).unwrap();
    let levels: Vec<Vec<(NodeKey, TreeNode)>> = (0..LEVELS as u32)
        .map(|level| {
            let pos = Pos::new(0, 1 << level);
            let key = NodeKey::new(BlobId::new(1), Version::new(1), pos);
            vec![(key, TreeNode::LeafAlias(None))]
        })
        .collect();
    let results = meta.put_levels(&levels);
    let seen = peer.join().unwrap();
    assert_eq!(
        seen, LEVELS,
        "the client awaited an answer after {seen} frames"
    );
    assert!(results.iter().flatten().all(Result::is_ok), "{results:?}");
}

#[test]
fn idle_dead_connections_redial_after_a_server_restart_on_the_same_port() {
    let provider: Arc<ProviderSet> = Arc::new(ProviderSet::new(1, |_| NodeId::new(7)));
    let mut server = RpcServer::spawn(
        RpcService::Block(Arc::clone(&provider) as _),
        ServerOptions::default(),
    )
    .unwrap();
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
        match RpcServer::spawn(
            RpcService::Block(Arc::clone(&provider) as _),
            ServerOptions {
                addr,
                ..ServerOptions::default()
            },
        ) {
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
    let mut server = RpcServer::spawn(
        RpcService::Block(Arc::clone(&provider) as _),
        ServerOptions::default(),
    )
    .unwrap();
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
    let mut server =
        RpcServer::spawn(RpcService::Meta(Arc::clone(&dht)), ServerOptions::default()).unwrap();
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

/// The client's two read caches, inner tree nodes in `RpcMetaStore` and
/// revealed snapshots in `RpcVersionService`, serve a hot re-read; blocks
/// always cross the wire.
#[test]
fn descent_caches_serve_hot_snapshots_and_report_hits() {
    let cfg = BlobSeerConfig::small_for_tests().with_block_size(BLOCK);
    let cluster = LoopbackCluster::boot(cfg, 2).unwrap();
    let sys = cluster.deploy().unwrap();
    let c = sys.client(NodeId::new(0));

    // 16 blocks: a tree of 15 inner nodes over 16 leaves, 5 levels.
    let blob = c.create();
    let payload: Vec<u8> = (0..16 * BLOCK).map(|i| (i / 3) as u8).collect();
    c.write(blob, 0, &payload).unwrap();

    // Tree nodes are read-allocate, so the writer's read-back misses all
    // 31 of them, and it fetches its 16 blocks from the 2 providers.
    let trips = |snap: &blobseer_core::StatsSnapshot| snap.port_round_trips;
    let before = sys.stats().snapshot();
    let first = c.read(blob, None, 0, payload.len() as u64).unwrap();
    assert_eq!(&first[..], &payload[..]);
    let writer = sys.stats().snapshot();
    assert_eq!((writer.cache_hits, writer.cache_misses), (0, 31));
    assert_eq!(trips(&writer) - trips(&before), 2 + 5 + 2);

    // A second deployment starts cold too: every node misses and the
    // read costs its full 2 + 5 levels + 2 providers frames …
    let sys2 = cluster.deploy().unwrap();
    let c2 = sys2.client(NodeId::new(9));
    let start = sys2.stats().snapshot();
    let frames = cluster.frames_served();
    let cold = c2.read(blob, None, 0, payload.len() as u64).unwrap();
    assert_eq!(&cold[..], &payload[..]);
    let after_cold = sys2.stats().snapshot();
    assert_eq!((after_cold.cache_hits, after_cold.cache_misses), (0, 31));
    assert_eq!(trips(&after_cold) - trips(&start), 2 + 5 + 2);
    assert_eq!(cluster.frames_served() - frames, 2 + 5 + 2);

    // … and the hot re-read hits every inner node and the revealed
    // snapshot: only `latest`, the leaf level and the blocks cross the
    // wire.
    let frames = cluster.frames_served();
    let warm = c2.read(blob, None, 0, payload.len() as u64).unwrap();
    assert_eq!(&warm[..], &payload[..]);
    let after_warm = sys2.stats().snapshot();
    assert_eq!(after_warm.cache_hits - after_cold.cache_hits, 15);
    assert_eq!(after_warm.cache_misses - after_cold.cache_misses, 16);
    assert_eq!(trips(&after_warm) - trips(&after_cold), 1 + 1 + 2);
    assert_eq!(cluster.frames_served() - frames, 1 + 1 + 2);
}

/// A metadata server restarted on the same port over a *fresh* RAM store
/// reuses every blob id the old one had. The adapter that cached the old
/// store's inner nodes must drop them when its connections die, and answer
/// what the new store holds: nothing.
#[test]
fn a_meta_server_restarted_over_a_fresh_store_is_not_answered_from_the_old_cache() {
    use blobseer_core::dht::MetaDht;

    let mut server = RpcServer::spawn(
        RpcService::Meta(Arc::new(MetaDht::new(2, 1))),
        ServerOptions::default(),
    )
    .unwrap();
    let addr = server.addr();
    let stats = Arc::new(EngineStats::new());
    let meta = RpcMetaStore::connect_with(addr, Arc::clone(&stats), 2).unwrap();
    let key = |pos: u64| NodeKey::new(BlobId::new(1), Version::new(1), Pos::new(pos, 2));
    let inner = TreeNode::Inner {
        left: Some(NodeRef {
            blob: BlobId::new(1),
            version: Version::new(1),
        }),
        right: None,
    };
    meta.put(key(0), inner.clone()).unwrap();
    assert_eq!(meta.get(&key(0)).unwrap(), inner);
    let frames = server.frames_served();
    assert_eq!(meta.get(&key(0)).unwrap(), inner);
    assert_eq!(server.frames_served(), frames, "the re-read is a cache hit");
    assert_eq!(stats.snapshot().cache_hits, 1);

    server.shutdown();
    drop(server);
    // While it is down a write fails, so this adapter has seen a
    // connection die by the time the server is back.
    assert!(meta.put(key(2), inner.clone()).is_err());
    let deadline = Instant::now() + Duration::from_secs(10);
    let server = loop {
        let fresh = RpcService::Meta(Arc::new(MetaDht::new(2, 1)));
        match RpcServer::spawn(
            fresh,
            ServerOptions {
                addr,
                ..ServerOptions::default()
            },
        ) {
            Ok(s) => break s,
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => panic!("could not rebind {addr}: {e}"),
        }
    };
    let got = meta.get(&key(0));
    assert!(matches!(got, Err(Error::MissingMetadata(_))), "{got:?}");
    assert_eq!(server.frames_served(), 1, "asked the new server");
    // What the new store does hold is read, cached and served as usual.
    meta.put(
        key(0),
        TreeNode::Inner {
            left: None,
            right: None,
        },
    )
    .unwrap();
    for _ in 0..2 {
        assert_eq!(
            meta.get(&key(0)).unwrap(),
            TreeNode::Inner {
                left: None,
                right: None
            }
        );
    }
    assert_eq!(server.frames_served(), 3);
}

/// A metadata hook that runs `on_get` on every `get_many` batch before
/// the store answers the batch.
struct OnGet<F>(F);

/// A fresh two-shard DHT behind an [`OnGet`] hook, hosted by a new server.
fn hooked_meta_server(on_get: impl Fn(&[NodeKey]) + Send + Sync + 'static) -> RpcServer {
    let dht: Arc<dyn MetaStore> = Arc::new(blobseer_core::dht::MetaDht::new(2, 1));
    let store = Hooked::new(dht, OnGet(on_get));
    RpcServer::spawn(RpcService::Meta(Arc::new(store)), ServerOptions::default()).unwrap()
}

impl<F: Fn(&[NodeKey]) + Send + Sync> MetaHook for OnGet<F> {
    fn get_many(&self, inner: &dyn MetaStore, keys: &[NodeKey]) -> Vec<Result<TreeNode, Error>> {
        (self.0)(keys);
        inner.get_many(keys)
    }
}

/// A handler panic is an answer, not a lost thread. Without the unwind
/// guard the first of these panics killed the thread serving the
/// connection: the client waited forever for the reply, and every later
/// request on that connection with it.
#[test]
fn a_panicking_handler_costs_neither_its_thread_nor_its_connection() {
    const PANICS: usize = 4;
    let panics_left = AtomicUsize::new(PANICS);
    let server = hooked_meta_server(move |_| {
        let take = |n: usize| n.checked_sub(1);
        if panics_left
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, take)
            .is_ok()
        {
            panic!("seeded handler panic");
        }
    });
    let meta = RpcMetaStore::connect_with(server.addr(), Arc::new(EngineStats::new()), 1).unwrap();
    // A leaf: never cached, so every get reaches the handler.
    let key = NodeKey::new(BlobId::new(1), Version::new(1), Pos::new(0, 1));
    meta.put(key, TreeNode::LeafAlias(None)).unwrap();
    for _ in 0..PANICS {
        let err = meta.get(&key).unwrap_err();
        assert!(
            matches!(&err, Error::Internal(why) if why.contains("seeded handler panic")),
            "{err}"
        );
    }
    assert_eq!(server.handler_panics(), PANICS as u64);
    // The connection's thread still serves it: no redial was needed.
    for _ in 0..2 * PANICS {
        assert_eq!(meta.get(&key).unwrap(), TreeNode::LeafAlias(None));
    }
    assert_eq!(server.connections_accepted(), 1);
    assert_eq!(server.handler_panics(), PANICS as u64);
}

/// Each connection is served by its own thread: a handler held on
/// connection A does not delay a request on connection B of the same
/// server.
#[test]
fn a_blocked_handler_delays_only_its_own_connection() {
    use std::sync::mpsc::channel;
    let held = NodeKey::new(BlobId::new(1), Version::new(1), Pos::new(0, 1));
    let free = NodeKey::new(BlobId::new(1), Version::new(2), Pos::new(0, 1));
    let (entered_tx, entered) = channel();
    let (release, released) = channel::<()>();
    let released = std::sync::Mutex::new(released);
    let server = hooked_meta_server(move |keys| {
        if keys.contains(&held) {
            entered_tx.send(()).unwrap();
            released.lock().unwrap().recv().unwrap();
        }
    });
    let connect =
        || RpcMetaStore::connect_with(server.addr(), Arc::new(EngineStats::new()), 1).unwrap();
    let (a, b) = (connect(), connect());
    assert_eq!(server.connections_accepted(), 2);
    for key in [held, free] {
        b.put(key, TreeNode::LeafAlias(None)).unwrap();
    }

    std::thread::scope(|s| {
        let blocked = s.spawn(|| a.get(&held));
        entered
            .recv_timeout(Duration::from_secs(10))
            .expect("connection A's request never reached its handler");
        let (done, served) = channel();
        s.spawn(move || done.send(b.get(&free)).unwrap());
        // Released whatever B's outcome, so a failure cannot hang the test.
        let on_b = served.recv_timeout(Duration::from_secs(10));
        release.send(()).unwrap();
        assert_eq!(blocked.join().unwrap().unwrap(), TreeNode::LeafAlias(None));
        let on_b = on_b.expect("connection B waited for connection A's handler");
        assert_eq!(on_b.unwrap(), TreeNode::LeafAlias(None));
    });
}

/// A block hook that notes where in memory each item it is handed lies.
struct AddressSpy {
    put_many_items: std::sync::Mutex<Vec<(usize, usize)>>,
}

impl BlockHook for AddressSpy {
    fn put_many(
        &self,
        inner: &dyn BlockStore,
        provider: usize,
        items: &[(BlockId, Bytes)],
    ) -> Vec<blobseer_types::Result<()>> {
        self.put_many_items.lock().unwrap().extend(
            items
                .iter()
                .map(|(_, data)| (data.as_ptr() as usize, data.len())),
        );
        inner.put_many(provider, items)
    }
}

#[test]
fn a_put_many_frame_reaches_the_store_as_slices_of_its_own_buffer() {
    // The server hands the store the blocks where the socket read left
    // them. Seen from the store: the items of one frame lie in one
    // allocation, exactly as far apart as the frame's own item headers
    // are wide — copies would lie wherever the allocator put them.
    let providers: Arc<dyn BlockStore> = Arc::new(ProviderSet::new(1, |_| NodeId::new(0)));
    let spy = Arc::new(Hooked::new(
        providers,
        AddressSpy {
            put_many_items: std::sync::Mutex::new(Vec::new()),
        },
    ));
    let server =
        RpcServer::spawn(RpcService::Block(spy.clone()), ServerOptions::default()).unwrap();
    let remote = RpcBlockStore::connect(&[server.addr()], Arc::new(EngineStats::new())).unwrap();
    // Ids and lengths that both encode as two-byte varints.
    let items: Vec<(BlockId, Bytes)> = (0..16u64)
        .map(|k| {
            let block = vec![k as u8; 4096 + k as usize];
            (BlockId::new(1000 + k), Bytes::from(block))
        })
        .collect();
    assert!(remote.put_many(0, &items).iter().all(|r| r.is_ok()));
    let seen = spy.hook.put_many_items.lock().unwrap().clone();
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
    use blobseer_rpc::wire::{batch_status, decode_response, read_frame, write_frame};
    use blobseer_types::wire::WireWriter;

    let cluster = LoopbackCluster::boot(BlobSeerConfig::small_for_tests(), 1).unwrap();
    // (service, endpoint, its retired PUT/GET/DELETE tags, a surviving tag
    // without arguments and the number it answers first).
    let cases = [
        ("block", cluster.block_addrs()[0], [1u8, 2, 4], 0u8, 1u8), // DESCRIBE: 1 provider
        ("meta", cluster.meta_addr(), [0, 1, 2], 3, 4),             // SHARD_COUNT: 4 shards
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
            let err = decode_response(&response, |_| Ok(())).unwrap_err();
            let expected = format!("unknown {service} method tag {tag}");
            assert!(
                matches!(&err, Error::Transport(why) if why.contains(&expected)),
                "{service} tag {tag}: {err}"
            );
        }
        let response = exchange(99, &[live_tag]);
        // The envelope's success byte, then the answer's first varint.
        assert_eq!(response[..2], [batch_status::OK, live_answer], "{service}");
    }
}

/// A transient refusal in the middle of batched traffic costs exactly one
/// item, on both fault-hooked stores: the plan is consulted per item and
/// reverts as it fires, the refused item never leaves, and the un-faulted
/// rest of its batch lands — as one frame, not one per item.
#[test]
fn fail_once_fails_one_item_and_ships_the_rest_of_its_batch_as_one_frame() {
    use blobseer_core::{FaultPlan, Faults, FaultyBlockStore, FaultyMetaStore, PutFault};

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
    let blocks = FaultyBlockStore::new(Arc::new(remote), Faults::new(Arc::clone(&plan)));
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
    let meta = FaultyMetaStore::new(Arc::new(remote), Faults::new(Arc::clone(&plan)));
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

/// A one-connection peer speaking the frame format: it answers each
/// request with `answer(tag)` as the whole response body.
fn scripted_peer(answer: fn(u8) -> Vec<u8>) -> std::net::SocketAddr {
    use blobseer_rpc::wire::{read_frame, write_frame};
    let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = std::io::BufReader::new(stream);
        while let Ok(Some((id, body))) = read_frame(&mut reader) {
            if write_frame(&mut writer, id, &answer(body[0])).is_err() {
                return;
            }
        }
    });
    addr
}

/// A response carrying one byte past its answer is a framing bug on the
/// peer, refused by every call alike — the connect-time probes included.
#[test]
fn a_response_with_trailing_bytes_is_a_transport_error() {
    use blobseer_core::ports::{PlacementService, VersionService};
    use blobseer_rpc::{RpcPlacementService, RpcVersionService};
    let stats = || Arc::new(EngineStats::new());
    let transport = |got: Result<u64, Error>| {
        assert!(matches!(got, Err(Error::Transport(_))), "{got:?}");
    };

    // Tag 0 probes (block size 64, 2 providers) answer exactly; every
    // other tag answers `1` and one byte more.
    let exact_probe = |tag| {
        if tag == 0 {
            vec![0, 64]
        } else {
            vec![0, 1, 0xFF]
        }
    };
    let vm = RpcVersionService::connect_with(scripted_peer(exact_probe), stats(), 1).unwrap();
    transport(vm.create_blob().map(BlobId::raw));
    let pm = RpcPlacementService::connect_with(scripted_peer(exact_probe), stats(), 1).unwrap();
    transport(pm.heartbeat(0));

    let long_probe = |_| vec![0, 64, 0xFF];
    let got = RpcVersionService::connect_with(scripted_peer(long_probe), stats(), 1);
    transport(got.map(|vm| vm.block_size()));
}

/// Method tags of the version service the raw-TCP tests below speak.
const BLOCK_SIZE: u8 = 0;
const WAIT_REVEALED: u8 = 8;

/// A peer that closes a connection with a request in flight — the state
/// an idle connection is in when its server closed it just after the
/// client's idle probe found it open. A read-only call (`latest`) cut off
/// so is resent once, on a freshly dialed connection, and answered there; a
/// mutating one (`assign`) fails with its outcome unknown and never
/// reaches the peer again.
#[test]
fn a_read_only_call_cut_off_by_a_closing_peer_is_resent_and_a_mutating_one_is_not() {
    use blobseer_core::ports::VersionService;
    use blobseer_rpc::wire::{read_frame, write_frame};
    use blobseer_rpc::RpcVersionService;
    use blobseer_types::wire::Wire;
    const ASSIGN: u8 = 3;
    const LATEST: u8 = 5;
    let latest = (Version::new(3), 3 * BLOCK);

    let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    // Serves connections one after another, counting the requests of each
    // tag. It answers the connect-time block-size probe and a `latest` it
    // has hung up on once; on anything else it hangs up. A connection on
    // which nothing arrives ends it.
    let peer = std::thread::spawn(move || {
        let mut seen = [0usize; 256];
        for stream in listener.incoming() {
            let stream = stream.unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = std::io::BufReader::new(stream);
            let mut requests = 0;
            while let Ok(Some((id, body))) = read_frame(&mut reader) {
                requests += 1;
                seen[body[0] as usize] += 1;
                let answer = match body[0] {
                    BLOCK_SIZE => Ok::<_, Error>(BLOCK).to_bytes(),
                    LATEST if seen[LATEST as usize] > 1 => Ok::<_, Error>(latest).to_bytes(),
                    _ => break, // closes the connection, the request unanswered
                };
                write_frame(&mut writer, id, &answer).unwrap();
            }
            if requests == 0 {
                return seen;
            }
        }
        unreachable!("incoming() never ends");
    });

    let stats = Arc::new(EngineStats::new());
    let vm = RpcVersionService::connect_with(addr, Arc::clone(&stats), 1).unwrap();
    assert_eq!(vm.latest(BlobId::new(1)), Ok(latest), "resent and answered");
    let got = vm.assign(BlobId::new(1), WriteIntent::Append { size: BLOCK });
    assert!(matches!(got, Err(Error::Transport(_))), "{:?}", got.err());
    // Had the assign been resent, its connection would precede this one.
    drop(std::net::TcpStream::connect(addr).unwrap());
    let seen = peer.join().unwrap();
    assert_eq!(
        (seen[LATEST as usize], seen[ASSIGN as usize]),
        (2, 1),
        "latest sent twice, assign once"
    );
    // The probe, both latests and the assign: a resend is a frame.
    assert_eq!(stats.snapshot().port_round_trips, 4);
}

/// A version-manager server and a raw TCP connection to it, on which the
/// caller writes frames by hand — in whatever segments it likes.
fn raw_version_server() -> (
    Arc<blobseer_core::VersionManager>,
    RpcServer,
    std::net::TcpStream,
) {
    let vm = Arc::new(blobseer_core::VersionManager::new(
        BLOCK,
        Arc::new(EngineStats::new()),
    ));
    let server = RpcServer::spawn(
        RpcService::Version(Arc::clone(&vm) as _),
        ServerOptions::default(),
    )
    .unwrap();
    let stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    (vm, server, stream)
}

/// The bytes of one request frame.
fn request_frame(id: u64, body: &[u8]) -> Vec<u8> {
    let mut wire = Vec::new();
    blobseer_rpc::wire::write_frame(&mut wire, id, body).unwrap();
    wire
}

/// The next response on `reader`: its id and the block size it answers.
fn block_size_answer(reader: &mut impl std::io::Read) -> (u64, u64) {
    use blobseer_types::wire::Wire;
    let (id, body) = blobseer_rpc::wire::read_frame(reader)
        .expect("an answer within the read timeout")
        .expect("an answer, not EOF");
    (
        id,
        blobseer_rpc::wire::decode_response(&body, u64::get).unwrap(),
    )
}

/// The server holds answers only while a whole next request is already in
/// its buffer: behind request A comes half of request B, and A's answer
/// arrives while B is still incomplete — it never waits for the network.
#[test]
fn a_held_answer_never_waits_for_the_rest_of_a_partial_frame() {
    use std::io::Write;
    let (_vm, _server, mut stream) = raw_version_server();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    let a = request_frame(1, &[BLOCK_SIZE]);
    // B carries padding after its tag, so half of it is a real fragment.
    let mut b_body = vec![BLOCK_SIZE];
    b_body.extend_from_slice(&[0; 64]);
    let b = request_frame(2, &b_body);
    let (b_head, b_tail) = b.split_at(b.len() / 2);
    stream.write_all(&[a, b_head.to_vec()].concat()).unwrap();
    assert_eq!(block_size_answer(&mut reader), (1, BLOCK));
    // B, completed now, is answered too (its trailing bytes are an error
    // answer, not a lost connection).
    stream.write_all(b_tail).unwrap();
    let (id, body) = blobseer_rpc::wire::read_frame(&mut reader)
        .unwrap()
        .unwrap();
    assert_eq!(id, 2);
    let got = blobseer_rpc::wire::decode_response(&body, |_| Ok(()));
    assert!(matches!(got, Err(Error::Transport(_))), "{got:?}");
}

/// A pipelined run that reaches the server in one segment is answered
/// whole, every id echoed, in arrival order.
#[test]
fn a_pipelined_run_in_one_segment_is_answered_whole() {
    use std::io::Write;
    let (_vm, server, mut stream) = raw_version_server();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    let ids = 100..164u64;
    let run: Vec<u8> = ids
        .clone()
        .flat_map(|id| request_frame(id, &[BLOCK_SIZE]))
        .collect();
    stream.write_all(&run).unwrap();
    let answers: Vec<(u64, u64)> = ids
        .clone()
        .map(|_| block_size_answer(&mut reader))
        .collect();
    let expect: Vec<(u64, u64)> = ids.map(|id| (id, BLOCK)).collect();
    assert_eq!(answers, expect);
    assert_eq!(server.frames_served(), 64);
}

/// A parked `wait_revealed` holds nothing back: the request written right
/// behind it, in the same segment, is answered first, and the wait is
/// answered the moment its version is revealed.
#[test]
fn a_parked_wait_is_overtaken_by_the_answers_behind_it() {
    use blobseer_types::wire::Wire;
    use std::io::Write;
    let (vm, _server, mut stream) = raw_version_server();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    let blob = vm.create_blob();
    let ticket = vm
        .assign(blob, WriteIntent::Append { size: BLOCK })
        .unwrap();
    let mut wait = vec![WAIT_REVEALED];
    wait.extend_from_slice(&(blob, ticket.version, Duration::from_secs(30)).to_bytes());
    let run = [request_frame(1, &wait), request_frame(2, &[BLOCK_SIZE])].concat();
    stream.write_all(&run).unwrap();
    assert_eq!(block_size_answer(&mut reader), (2, BLOCK), "overtaken");
    vm.commit(blob, ticket.version).unwrap();
    let (id, body) = blobseer_rpc::wire::read_frame(&mut reader)
        .unwrap()
        .unwrap();
    assert_eq!(id, 1);
    blobseer_rpc::wire::decode_response(&body, <()>::get).unwrap();
}

/// A server restarted on `addr` over `service`, once the old listener's
/// port can be bound again.
fn respawn(addr: std::net::SocketAddr, service: impl Fn() -> RpcService) -> RpcServer {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let opts = ServerOptions {
            addr,
            ..ServerOptions::default()
        };
        match RpcServer::spawn(service(), opts) {
            Ok(server) => return server,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(50)),
            Err(e) => panic!("could not rebind {addr}: {e}"),
        }
    }
}

/// A metadata server and a version-manager server restart on their ports
/// over fresh RAM stores while the adapters send nothing, so no call of
/// theirs meets a dead connection. The next fully cached `get_many` and
/// the next `snapshot_info` of a version cached before the restart still
/// ask the new servers: a lookup probes the pool's idle connections and
/// finds them closed. (A pool that heard from its server within the last
/// millisecond skips the probe; the test lets that window pass.)
#[test]
fn a_silent_restart_is_noticed_before_a_cached_answer() {
    use blobseer_core::dht::MetaDht;
    use blobseer_core::ports::VersionService;
    use blobseer_core::VersionManager;
    use blobseer_rpc::RpcVersionService;

    let meta_service = || RpcService::Meta(Arc::new(MetaDht::new(2, 1)));
    let vm_service = || {
        let vm = VersionManager::new(BLOCK, Arc::new(EngineStats::new()));
        RpcService::Version(Arc::new(vm))
    };
    let mut meta_server = RpcServer::spawn(meta_service(), ServerOptions::default()).unwrap();
    let mut vm_server = RpcServer::spawn(vm_service(), ServerOptions::default()).unwrap();
    let stats = Arc::new(EngineStats::new());
    let meta = RpcMetaStore::connect_with(meta_server.addr(), Arc::clone(&stats), 2).unwrap();
    let vm = RpcVersionService::connect_with(vm_server.addr(), Arc::clone(&stats), 2).unwrap();

    let key = NodeKey::new(BlobId::new(1), Version::new(1), Pos::new(0, 2));
    let inner = TreeNode::Inner {
        left: None,
        right: None,
    };
    meta.put(key, inner.clone()).unwrap();
    let blob = vm.create_blob().unwrap();
    let ticket = vm
        .assign(blob, WriteIntent::Append { size: BLOCK })
        .unwrap();
    vm.commit(blob, ticket.version).unwrap();
    for _ in 0..2 {
        assert_eq!(meta.get_many(&[key]), [Ok(inner.clone())]);
        assert!(vm.snapshot_info(blob, ticket.version).unwrap().revealed);
    }
    let frames = (meta_server.frames_served(), vm_server.frames_served());
    assert_eq!(meta.get_many(&[key]), [Ok(inner.clone())]);
    assert!(vm.snapshot_info(blob, ticket.version).unwrap().revealed);
    let cached = (meta_server.frames_served(), vm_server.frames_served());
    assert_eq!(cached, frames, "both answers come from the caches");

    let (meta_addr, vm_addr) = (meta_server.addr(), vm_server.addr());
    meta_server.shutdown();
    vm_server.shutdown();
    drop((meta_server, vm_server));
    let meta_server = respawn(meta_addr, meta_service);
    let vm_server = respawn(vm_addr, vm_service);
    std::thread::sleep(Duration::from_millis(5));

    let got = meta.get_many(&[key]);
    assert!(
        matches!(got[..], [Err(Error::MissingMetadata(_))]),
        "{got:?}"
    );
    assert_eq!(meta_server.frames_served(), 1, "asked the new meta server");
    let got = vm.snapshot_info(blob, ticket.version);
    assert!(
        matches!(got, Err(Error::NoSuchBlob(_) | Error::NoSuchVersion { .. })),
        "{got:?}"
    );
    assert_eq!(
        vm_server.frames_served(),
        1,
        "asked the new version manager"
    );
}

/// The version adapter keeps only revealed snapshots: an assigned but
/// uncommitted version is asked again every time, and once committed the
/// next call fetches it revealed and the one after answers from memory.
/// This adapter's `delete_blob` and `collect_before` drop what they
/// remove, so a read of such a version asks the server and fails.
#[test]
fn the_revealed_info_cache_never_holds_an_unrevealed_or_deleted_version() {
    use blobseer_core::ports::VersionService;
    use blobseer_core::VersionManager;
    use blobseer_rpc::RpcVersionService;

    let vm = VersionManager::new(BLOCK, Arc::new(EngineStats::new()));
    let server =
        RpcServer::spawn(RpcService::Version(Arc::new(vm)), ServerOptions::default()).unwrap();
    let stats = Arc::new(EngineStats::new());
    let vm = RpcVersionService::connect_with(server.addr(), stats, 2).unwrap();
    // The frames one call sends.
    let frames = |call: &dyn Fn()| {
        let before = server.frames_served();
        call();
        server.frames_served() - before
    };
    let append = |blob| {
        let ticket = vm
            .assign(blob, WriteIntent::Append { size: BLOCK })
            .unwrap();
        ticket.version
    };

    let blob = vm.create_blob().unwrap();
    let v1 = append(blob);
    for _ in 0..2 {
        let unrevealed = || assert!(!vm.snapshot_info(blob, v1).unwrap().revealed);
        assert_eq!(
            frames(&unrevealed),
            1,
            "an unrevealed version is asked again"
        );
    }
    vm.commit(blob, v1).unwrap();
    let revealed = || assert!(vm.snapshot_info(blob, v1).unwrap().revealed);
    assert_eq!(frames(&revealed), 1, "the commit is seen on a fresh frame");
    assert_eq!(frames(&revealed), 0, "then answered from memory");

    vm.delete_blob(blob).unwrap();
    let deleted = || {
        let got = vm.snapshot_info(blob, v1);
        assert!(matches!(got, Err(Error::NoSuchBlob(_))), "{got:?}");
    };
    assert_eq!(frames(&deleted), 1, "a deleted BLOB is asked, not cached");

    let blob = vm.create_blob().unwrap();
    let (v1, v2) = (append(blob), append(blob));
    vm.commit(blob, v1).unwrap();
    vm.commit(blob, v2).unwrap();
    let both = || {
        for v in [v1, v2] {
            assert!(vm.snapshot_info(blob, v).unwrap().revealed);
        }
    };
    assert_eq!(frames(&both), 2);
    assert_eq!(frames(&both), 0);
    vm.collect_before(blob, v2).unwrap();
    let collected = || {
        let got = vm.snapshot_info(blob, v1);
        assert!(matches!(got, Err(Error::NoSuchVersion { .. })), "{got:?}");
    };
    assert_eq!(frames(&collected), 1, "a collected version is asked");
    let kept = || assert!(vm.snapshot_info(blob, v2).unwrap().revealed);
    assert_eq!(frames(&kept), 0, "the kept version stays cached");
}
