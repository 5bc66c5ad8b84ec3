//! The distributed deployment: the unchanged client protocol running over
//! real TCP loopback sockets.
//!
//! `blobseer_rpc::LoopbackCluster` boots the paper's process decomposition
//! (§III-B) as separate server thread groups — one listener per data
//! provider, one for the metadata DHT, one for the version manager — and
//! these tests drive the full stack against it: the §III write/append/read
//! protocol, error variants crossing the wire as themselves, concurrent
//! appenders, GC, BSFS and a complete Map-Reduce job.

use blobseer_core::faults::{FaultPlan, Faults, FaultyMetaStore, PutFault};
use blobseer_core::{BlobSeer, EnginePorts, EngineStats, NoopObserver};
use blobseer_rpc::{
    LoopbackCluster, RpcBlockStore, RpcGcService, RpcMetaStore, RpcPlacementService,
    RpcVersionService,
};
use blobseer_types::{BlobSeerConfig, Error, NodeId, Version};
use bsfs::BsfsCluster;
use dfs::api::FileSystem;
use dfs::util::{read_fully, write_file};
use mapreduce::apps::WordCount;
use mapreduce::{JobTracker, TaskTracker, TextGen};
use std::sync::Arc;
use std::time::Duration;

const BLOCK: u64 = 256;

fn cluster_with_block(block_size: u64, n_providers: usize) -> LoopbackCluster {
    LoopbackCluster::boot(
        BlobSeerConfig::small_for_tests()
            .with_block_size(block_size)
            .with_reveal_timeout(Duration::from_millis(200)),
        n_providers,
    )
    .unwrap()
}

/// The client keeps no block cache, so a cluster asked for one refuses
/// to boot rather than run without it.
#[test]
fn a_block_cache_budget_is_refused() {
    let cfg = BlobSeerConfig {
        read_cache_bytes: 1 << 20,
        ..BlobSeerConfig::small_for_tests()
    };
    let err = LoopbackCluster::boot(cfg, 2)
        .err()
        .expect("boot must refuse");
    assert!(matches!(err, Error::Unsupported(_)), "{err}");
}

#[test]
fn full_protocol_roundtrip_over_sockets() {
    let cluster = cluster_with_block(BLOCK, 4);
    // One server process per provider, plus the DHT, the version manager,
    // and the hosted control plane (placement + GC servers).
    assert_eq!(cluster.server_count(), 8);
    let sys = cluster.deploy().unwrap();
    let c = sys.client(NodeId::new(100));

    // Write/read, sub-ranges, holes, unaligned writes.
    let blob = c.create();
    let data: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
    let v1 = c.write(blob, 0, &data).unwrap();
    assert_eq!(v1, Version::new(1));
    assert_eq!(c.latest(blob).unwrap(), (v1, 1000));
    assert_eq!(&c.read(blob, None, 0, 1000).unwrap()[..], &data[..]);
    assert_eq!(&c.read(blob, None, 300, 400).unwrap()[..], &data[300..700]);

    // Appends, including the unaligned slow path (1000 % 256 != 0).
    let (off, v2) = c.append(blob, &[7u8; 100]).unwrap();
    assert_eq!(off, 1000);
    assert_eq!(v2, Version::new(2));
    let tail = c.read(blob, None, 990, 110).unwrap();
    assert_eq!(&tail[..10], &data[990..]);
    assert!(tail[10..].iter().all(|&b| b == 7));

    // Every version stays readable; history works over the wire.
    let h = c.history(blob).unwrap();
    assert_eq!(h.len(), 2);
    assert_eq!(h[0].size, 1000);
    assert_eq!(h[1].size, 1100);

    // Branching shares history across the wire.
    let fork = c.branch(blob, v1).unwrap();
    c.write(fork, 0, &[9u8; 10]).unwrap();
    let f = c.read(fork, None, 0, 1000).unwrap();
    assert!(f[..10].iter().all(|&b| b == 9));
    assert_eq!(&f[10..], &data[10..]);
    assert_eq!(
        c.read(blob, Some(v1), 0, 1000).unwrap(),
        c.read(fork, Some(v1), 0, 1000).unwrap()
    );

    // The data layout is observable through the remote port: round-robin
    // spread the blocks over all four provider processes.
    let layout = sys.providers().layout_vector();
    assert_eq!(layout.len(), 4);
    assert!(
        layout.iter().all(|&n| n > 0),
        "all providers used: {layout:?}"
    );

    // Locations expose the per-provider node identities fetched at
    // connect time.
    let locs = c.locations(blob, Some(v1), 0, 1000).unwrap();
    assert_eq!(locs.len(), 4);
    let hosts: std::collections::HashSet<_> = locs.iter().map(|l| l.nodes[0]).collect();
    assert_eq!(hosts.len(), 4, "one block per provider node");

    // GC cascades over the wire: DHT deletes and block deletes are RPCs.
    // (A fresh, un-branched blob — the fork above holds a GC reference on
    // `blob`'s v1 root, which would correctly pin its subtree.)
    let gc_blob = c.create();
    c.write(gc_blob, 0, &[1u8; 2 * BLOCK as usize]).unwrap();
    c.write(gc_blob, 0, &[2u8; BLOCK as usize]).unwrap();
    let report = c.gc_before(gc_blob, Version::new(2)).unwrap();
    assert!(report.nodes_deleted > 0);
    assert!(report.blocks_deleted > 0);
    assert_eq!(report.untracked_releases, 0);
    assert!(matches!(
        c.read(gc_blob, Some(Version::new(1)), 0, 1),
        Err(Error::NoSuchVersion { .. })
    ));
    let kept = c.read(gc_blob, None, 0, 2 * BLOCK).unwrap();
    assert!(kept[..BLOCK as usize].iter().all(|&b| b == 2));
    assert!(kept[BLOCK as usize..].iter().all(|&b| b == 1));

    // Deleting the fork frees its private storage on the remote providers.
    let blocks_before = sys.providers().total_block_count();
    let report = c.delete_blob(fork).unwrap();
    assert!(report.nodes_deleted > 0);
    assert!(sys.providers().total_block_count() < blocks_before);

    // The server-side version manager really assigned all those versions.
    assert!(cluster.server_stats().snapshot().versions_assigned >= 4);
}

#[test]
fn vectored_ports_cost_frames_proportional_to_levels_not_blocks() {
    // The acceptance scenario of the vectored port API: a 64-block write
    // and a full-blob read over the loopback cluster complete in
    // O(tree levels + providers touched) wire frames — not O(blocks +
    // nodes) — asserted via the deployment's round-trip counters, with
    // results byte-identical to the in-memory backend.
    let cfg = BlobSeerConfig::small_for_tests().with_block_size(64);
    let cluster = LoopbackCluster::boot(cfg.clone(), 4).unwrap();
    let sys = cluster.deploy().unwrap();
    let c = sys.client(NodeId::new(0));
    let blob = c.create();
    let data: Vec<u8> = (0..64 * 64u32).map(|i| (i % 251) as u8).collect(); // 64 blocks

    let served_before = cluster.frames_served();
    let before = sys.stats().snapshot();
    c.write(blob, 0, &data).unwrap();
    let after_write = sys.stats().snapshot();

    // Write = 1 latest + 4 data put_many (one per provider, round-robin
    // touches all 4) + 1 assign + 7 metadata put_many (a cap-64 tree has
    // levels of 64/32/16/8/4/2/1 nodes) + 1 commit = 14 frames. The same
    // write unbatched would pay 64 block puts + 127 node puts alone.
    let write_frames = after_write.port_round_trips - before.port_round_trips;
    assert_eq!(write_frames, 14, "write frames: O(levels + providers)");
    // All 64 blocks and all 127 tree nodes crossed inside those frames.
    assert_eq!(after_write.batched_items - before.batched_items, 64 + 127);
    // The fan-out executor dispatched one concurrent group per phase: the
    // data phase (4 provider batches wide) and one group per tree level
    // (width 1 each — the RPC DHT is a single endpoint, so levels stay
    // one vectored frame and the 14-frame invariant above holds).
    assert_eq!(
        after_write.fanout_batches - before.fanout_batches,
        8,
        "one data-phase fan-out + one per tree level"
    );
    assert_eq!(after_write.fanout_max_width, 4, "width = providers touched");

    let full = c.read(blob, None, 0, data.len() as u64).unwrap();
    assert_eq!(&full[..], &data[..], "byte-identical to what was written");
    let after_read = sys.stats().snapshot();

    // Read = 2 snapshot resolution (latest + snapshot_info) + 7 descent
    // get_many (one per level) + 4 block get_many (one per provider) = 13.
    let read_frames = after_read.port_round_trips - after_write.port_round_trips;
    assert_eq!(read_frames, 13, "read frames: O(levels + providers)");
    assert_eq!(
        after_read.batched_items - after_write.batched_items,
        64 + 127
    );
    // Same shape on the read side: one fetch-phase fan-out (4 provider
    // batches) plus one descent group per level, and no fallback retries.
    assert_eq!(
        after_read.fanout_batches - after_write.fanout_batches,
        8,
        "one fetch-phase fan-out + one per descent level"
    );
    assert_eq!(after_read.read_replica_fallbacks, 0);

    // The control plane is hosted too, but it stays off the data-path
    // counters: a clean write costs exactly three control frames (one
    // placement `allocate`, one batched `inc_nodes` for the published
    // tree, one for the committed root) and a read costs none.
    assert_eq!(
        after_write.control_round_trips - before.control_round_trips,
        3,
        "write control frames: allocate + tree inc_nodes + root inc_nodes"
    );
    assert_eq!(
        after_read.control_round_trips - after_write.control_round_trips,
        0,
        "reads never touch the control plane"
    );

    // The servers saw exactly the frames the client adapters counted —
    // data-path and control-plane together.
    assert_eq!(
        cluster.frames_served() - served_before,
        (after_read.port_round_trips - before.port_round_trips)
            + (after_read.control_round_trips - before.control_round_trips)
    );

    // The cold read left the tree's 63 inner nodes in the metadata
    // adapter and the revealed snapshot in the version adapter: the
    // re-read asks only `latest`, descends through the inner nodes
    // locally and fetches the leaf level in one frame — 1 + 1 + 4 = 6.
    // The descent still visits (and counts) all 127 nodes.
    let again = c.read(blob, None, 0, data.len() as u64).unwrap();
    assert_eq!(again, full);
    let after_reread = sys.stats().snapshot();
    assert_eq!(
        after_reread.port_round_trips - after_read.port_round_trips,
        6
    );
    assert_eq!(
        after_reread.meta_nodes_read - after_read.meta_nodes_read,
        127
    );
    assert_eq!(after_reread.cache_hits - after_read.cache_hits, 63);

    // And the bytes agree with the in-memory backend end to end.
    let mem = BlobSeer::deploy(cfg, 4);
    let mc = mem.client(NodeId::new(0));
    let mem_blob = mc.create();
    mc.write(mem_blob, 0, &data).unwrap();
    assert_eq!(
        mc.read(mem_blob, None, 0, data.len() as u64).unwrap(),
        full,
        "vectored RPC backend is byte-identical to in-memory"
    );
}

/// A 4 KiB-style one-block read at the head of a long append log: cold,
/// the descent pays one frame per tree level (history 1 / 1024 / 8192 →
/// 4 / 14 / 17 frames: latest + snapshot info + levels + block). Warm, the
/// snapshot and the inner nodes it crossed are cached and only `latest`,
/// the leaf level and the block cross the wire: 3 frames at every depth.
/// The cold counts are `perf counts`' `rpc_append_log.read.h*` rows;
/// appends never fill the caches.
#[test]
fn a_warm_descent_costs_three_frames_at_any_history_depth() {
    let cluster = cluster_with_block(64, 4);
    let sys = cluster.deploy().unwrap();
    let c = sys.client(NodeId::new(100));
    let blob = c.create();
    for n in 1..=8192u64 {
        let block = [(n % 251) as u8; 64];
        let (offset, _) = c.append(blob, &block).unwrap();
        let levels = match n {
            1 => 1,
            1024 => 11,
            8192 => 14,
            _ => continue,
        };
        for (pass, frames) in [("cold", 3 + levels), ("warm", 3)] {
            let (served, before) = (cluster.frames_served(), sys.stats().snapshot());
            let got = c.read(blob, None, offset, 64).unwrap();
            let after = sys.stats().snapshot();
            assert_eq!(&got[..], &block[..], "h{n} {pass}");
            assert_eq!(
                cluster.frames_served() - served,
                frames,
                "h{n} {pass}: frames"
            );
            assert_eq!(after.port_round_trips - before.port_round_trips, frames);
            assert_eq!(after.control_round_trips, before.control_round_trips);
            assert_eq!(
                after.meta_nodes_read - before.meta_nodes_read,
                levels,
                "h{n} {pass}: the descent visits every level"
            );
        }
    }
}

#[test]
fn batched_get_defers_instead_of_overshooting_the_frame_cap() {
    // Two blocks whose payloads together exceed the 64 MB batch budget
    // (and would exceed the 80 MB frame cap): the server must answer the
    // batch across two frames via DEFERRED items — budget accounting has
    // to include the payload *about to be encoded*, or the response
    // overshoots by one block and the client rejects the frame.
    let cluster = cluster_with_block(BLOCK, 1);
    let sys = cluster.deploy().unwrap();
    let store = sys.providers();
    let big = 45 * 1024 * 1024;
    let a = bytes::Bytes::from(vec![0xAAu8; big]);
    let b = bytes::Bytes::from(vec![0xBBu8; big]);
    let id = |k: u64| blobseer_types::BlockId::new(k);
    store.put(0, id(1), a.clone()).unwrap();
    store.put(0, id(2), b.clone()).unwrap();
    let before = sys.stats().snapshot().port_round_trips;
    let got = store.get_many(0, &[id(1), id(2)]);
    assert_eq!(got[0].as_ref().unwrap(), &a);
    assert_eq!(got[1].as_ref().unwrap(), &b);
    assert_eq!(
        sys.stats().snapshot().port_round_trips - before,
        2,
        "the second block must arrive in a deferred follow-up frame"
    );
}

#[test]
fn service_errors_cross_the_wire_as_themselves() {
    let cluster = cluster_with_block(BLOCK, 2);
    let sys = cluster.deploy().unwrap();
    let c = sys.client(NodeId::new(0));
    let blob = c.create();
    c.write(blob, 0, &[1u8; 100]).unwrap();

    // Out-of-bounds read: the exact variant with the exact payload.
    assert_eq!(
        c.read(blob, None, 50, 51).unwrap_err(),
        Error::OutOfBounds {
            requested_end: 101,
            snapshot_size: 100
        }
    );
    // Unknown blob.
    assert_eq!(
        c.latest(blobseer_types::BlobId::new(999)).unwrap_err(),
        Error::NoSuchBlob(999)
    );
    // Unknown version.
    assert_eq!(
        c.read(blob, Some(Version::new(9)), 0, 1).unwrap_err(),
        Error::NoSuchVersion {
            blob: blob.raw(),
            version: 9
        }
    );
    // Zero-length writes are rejected by the remote version manager with
    // the same variant the in-memory one raises.
    assert!(matches!(
        sys.version_manager()
            .assign(blob, blobseer_core::WriteIntent::Append { size: 0 }),
        Err(Error::WriteAborted(_))
    ));
    // Replication 0 is refused by the hosted provider manager with the
    // in-memory variant, before any load moves.
    let pm = sys.provider_manager();
    let loads = pm.load_vector().unwrap();
    let err = pm.allocate(1, 0).unwrap_err();
    assert!(matches!(err, Error::NoProviderAvailable(_)), "{err}");
    assert_eq!(pm.load_vector().unwrap(), loads);
    // An assigned-but-uncommitted version is VersionNotRevealed, and the
    // remote wait_revealed surfaces the server-enforced timeout.
    let stuck = sys
        .version_manager()
        .assign(blob, blobseer_core::WriteIntent::Append { size: BLOCK })
        .unwrap();
    assert_eq!(
        c.read(blob, Some(stuck.version), 0, 1).unwrap_err(),
        Error::VersionNotRevealed {
            blob: blob.raw(),
            version: stuck.version.raw()
        }
    );
    let err = c
        .wait_revealed(blob, stuck.version, Duration::from_millis(50))
        .unwrap_err();
    assert!(matches!(err, Error::Timeout(_)), "{err}");
    // Metadata conflicts propagate from the remote DHT.
    let root = sys
        .version_manager()
        .snapshot_info(blob, Version::new(1))
        .unwrap()
        .root_key();
    let forged = blobseer_core::meta::node::TreeNode::LeafAlias(None);
    let err = sys.dht().put(root, forged).unwrap_err();
    assert!(matches!(err, Error::MetadataConflict(_)), "{err}");
    // Missing metadata keys answer with the real variant too.
    let bogus = blobseer_core::meta::key::NodeKey::new(
        blobseer_types::BlobId::new(77),
        Version::new(1),
        blobseer_core::meta::key::Pos::new(0, 1),
    );
    assert!(matches!(
        sys.dht().get(&bogus),
        Err(Error::MissingMetadata(_))
    ));
}

/// A writer whose metadata publish is refused after its version was
/// assigned repairs the version itself — from a *wire* ticket, which
/// carries the border answers only. The alias targets of the repair (the
/// previous writers of the leaves inside the failed range) come from the
/// version manager's `chain` call instead.
/// The provider set is fixed at boot. A registration must be refused
/// rather than grow the placement pool past the block stores: the next
/// write would land on a provider no store serves, and the next deploy
/// would find the placement and block-store counts disagreeing.
#[test]
fn registering_a_provider_is_refused_and_writes_go_on() {
    let payload: Vec<u8> = (0..6 * BLOCK).map(|i| i as u8).collect();
    let register_then_write = |sys: &Arc<BlobSeer>| {
        let registered = sys.provider_manager().register_provider(NodeId::new(9));
        let c = sys.client(NodeId::new(100));
        let blob = c.create();
        c.write(blob, 0, &payload).unwrap();
        let back = c.read(blob, None, 0, payload.len() as u64).unwrap();
        assert_eq!(&back[..], &payload[..]);
        assert!(
            matches!(registered, Err(Error::Unsupported(m)) if m.contains("fixed at boot")),
            "{registered:?}"
        );
    };
    let in_memory = BlobSeer::deploy(BlobSeerConfig::small_for_tests().with_block_size(BLOCK), 2);
    register_then_write(&in_memory);
    assert_eq!(in_memory.layout_vector(), vec![3, 3]);

    let cluster = cluster_with_block(BLOCK, 2);
    register_then_write(&cluster.deploy().unwrap());
    register_then_write(&cluster.deploy().unwrap());
}

#[test]
fn self_repair_from_a_wire_ticket_reveals_the_previous_bytes() {
    let cluster = cluster_with_block(BLOCK, 4);
    let stats = Arc::new(EngineStats::new());
    let plan = FaultPlan::new();
    let dht = Arc::new(RpcMetaStore::connect(cluster.meta_addr(), Arc::clone(&stats)).unwrap());
    let ports = EnginePorts {
        providers: Arc::new(
            RpcBlockStore::connect(cluster.block_addrs(), Arc::clone(&stats)).unwrap(),
        ),
        dht: Arc::new(FaultyMetaStore::new(dht, Faults::new(Arc::clone(&plan)))),
        vm: Arc::new(RpcVersionService::connect(cluster.vm_addr(), Arc::clone(&stats)).unwrap()),
        pm: Arc::new(
            RpcPlacementService::connect(cluster.placement_addr(), Arc::clone(&stats)).unwrap(),
        ),
        gc: Some(Arc::new(
            RpcGcService::connect(cluster.gc_addr(), Arc::clone(&stats)).unwrap(),
        )),
        stats,
        observer: Arc::new(NoopObserver),
    };
    let sys = BlobSeer::deploy_ports(cluster.config().clone(), ports);
    let c = sys.client(NodeId::new(100));
    let blob = c.create();
    let base: Vec<u8> = (0..8 * BLOCK).map(|i| (i % 251) as u8).collect();
    let v1 = c.write(blob, 0, &base).unwrap();

    // v2 overwrites blocks 2..5; the first node its publish puts is
    // refused. The version was assigned, so the writer repairs it.
    plan.set(PutFault::FailOnce);
    let err = c
        .write(blob, 2 * BLOCK, &vec![0xEE; 3 * BLOCK as usize])
        .unwrap_err();
    assert!(matches!(err, Error::WriteAborted(_)), "{err}");
    assert_eq!(plan.counters().1, 1, "exactly the injected refusal");
    let v2 = v1.next();
    assert_eq!(c.latest(blob).unwrap(), (v2, base.len() as u64));
    assert!(sys
        .version_manager()
        .pending_versions(blob)
        .unwrap()
        .is_empty());
    assert_eq!(sys.stats().snapshot().writes_aborted, 1);
    let repaired = c.read(blob, Some(v2), 0, base.len() as u64).unwrap();
    assert_eq!(&repaired[..], &base[..], "v2 must read as v1 did");

    // The history stays weavable: a later write lands on top of the
    // repaired version and everything outside it still reads as v1.
    let v3 = c.write(blob, 3 * BLOCK, &[0x11; BLOCK as usize]).unwrap();
    assert_eq!(v3, v2.next());
    let head = c.read(blob, None, 0, base.len() as u64).unwrap();
    let (lo, hi) = (3 * BLOCK as usize, 4 * BLOCK as usize);
    assert_eq!(&head[..lo], &base[..lo]);
    assert!(head[lo..hi].iter().all(|&b| b == 0x11));
    assert_eq!(&head[hi..], &base[hi..]);
}

#[test]
fn concurrent_appenders_through_shared_sockets() {
    // The Fig. 5 access pattern over TCP: N appender threads, one shared
    // BLOB, every append lands exactly once at a distinct offset. The
    // connection pools grow under the concurrency; the version manager
    // server serializes assignment exactly like the in-process one.
    let cluster = cluster_with_block(64, 4);
    let sys = cluster.deploy().unwrap();
    let c0 = sys.client(NodeId::new(0));
    let blob = c0.create();
    let n_threads = 8u8;
    let per_thread = 16u8;
    let mut handles = Vec::new();
    for t in 0..n_threads {
        let c = sys.client(NodeId::new(t as u64));
        handles.push(std::thread::spawn(move || {
            for i in 0..per_thread {
                c.append(blob, &[t * 16 + i; 64]).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let (v, size) = c0.latest(blob).unwrap();
    assert_eq!(v.raw(), (n_threads as u64) * (per_thread as u64));
    assert_eq!(size, n_threads as u64 * per_thread as u64 * 64);
    let data = c0.read(blob, None, 0, size).unwrap();
    let mut seen = std::collections::HashSet::new();
    for chunk in data.chunks(64) {
        assert!(chunk.iter().all(|&b| b == chunk[0]), "torn append");
        assert!(seen.insert(chunk[0]), "duplicate append content");
    }
    assert_eq!(seen.len(), (n_threads * per_thread) as usize);
}

/// Builds a BSFS-backed Map-Reduce stack over any BlobSeer deployment and
/// runs WordCount, returning the concatenated reducer outputs.
fn run_wordcount(sys: Arc<BlobSeer>, input: &[u8], nodes: usize) -> Vec<u8> {
    let fs_cluster = BsfsCluster::new(sys);
    let jt = JobTracker::new(
        (0..nodes)
            .map(|i| {
                TaskTracker::new(
                    NodeId::new(i as u64),
                    Box::new(fs_cluster.mount(NodeId::new(i as u64))),
                )
            })
            .collect(),
    );
    let fs = fs_cluster.mount(NodeId::new(0));
    write_file(&fs, "/in.txt", input).unwrap();
    jt.run_job(
        &WordCount::job("/in.txt", "/out", 2),
        &WordCount,
        &WordCount,
    )
    .unwrap();
    let mut all = Vec::new();
    for r in 0..2 {
        all.extend(read_fully(&fs, &format!("/out/part-r-{r:05}")).unwrap());
    }
    all
}

#[test]
fn wordcount_over_sockets_is_byte_identical_to_in_memory() {
    // The acceptance scenario: a BSFS-backed Map-Reduce job, end to end
    // over the TCP loopback cluster, producing byte-identical output to
    // the in-memory backend. Same config, same input and the same
    // round-robin placement — so even the placement decisions agree.
    let nodes = 4usize;
    let cfg = BlobSeerConfig::small_for_tests().with_block_size(4096);
    let input = TextGen::new(42).text(4 * 4096);

    let in_memory = run_wordcount(BlobSeer::deploy(cfg.clone(), nodes), &input, nodes);

    let cluster = LoopbackCluster::boot(cfg, nodes).unwrap();
    let over_sockets = run_wordcount(cluster.deploy().unwrap(), &input, nodes);

    assert!(!in_memory.is_empty());
    assert_eq!(
        in_memory, over_sockets,
        "socket-backed wordcount output must be byte-identical"
    );
}

#[test]
fn bsfs_streams_and_namespace_work_over_sockets() {
    let cluster = cluster_with_block(BLOCK, 4);
    let fs_cluster = BsfsCluster::new(cluster.deploy().unwrap());
    let fs = fs_cluster.mount(NodeId::new(0));
    fs.mkdirs("/a/b").unwrap();
    let payload = TextGen::new(7).text(3 * BLOCK as usize + 17);
    write_file(&fs, "/a/b/f", &payload).unwrap();
    fs.rename("/a/b/f", "/a/f").unwrap();
    assert_eq!(read_fully(&fs, "/a/f").unwrap(), payload);
    // Appends through the stream layer (write-behind cache flushing whole
    // blocks over TCP).
    let mut out = fs.append("/a/f").unwrap();
    out.write(b" tail").unwrap();
    out.close().unwrap();
    let all = read_fully(&fs, "/a/f").unwrap();
    assert_eq!(&all[..payload.len()], &payload[..]);
    assert_eq!(&all[payload.len()..], b" tail");
    // Deleting through BSFS reclaims storage on the remote providers.
    fs.delete("/a/f", false).unwrap();
    assert_eq!(fs_cluster.system().providers().total_block_count(), 0);
}

#[test]
fn independent_deployments_share_one_cluster_without_colliding() {
    // Two client "processes" (deployments) against the same cluster. With
    // the provider manager *hosted* (PlacementService behind the placement
    // server), both deployments draw block ids and placement decisions
    // from one shared allocator — so ids are disjoint by construction and
    // load accounting is globally consistent, instead of each process
    // running a private manager that silently double-books provider load
    // (the seam PR 4 documented). Blob ids come from the shared
    // version-manager server, so data written through one deployment is
    // readable through the other.
    let cluster = cluster_with_block(BLOCK, 3);
    let sys_a = cluster.deploy().unwrap();
    let sys_b = cluster.deploy().unwrap();
    let a = sys_a.client(NodeId::new(0));
    let b = sys_b.client(NodeId::new(1));

    let blob_a = a.create();
    let blob_b = b.create();
    assert_ne!(blob_a, blob_b, "shared VM hands out distinct blob ids");
    let pa = TextGen::new(1).text(2 * BLOCK as usize + 5);
    let pb = TextGen::new(2).text(2 * BLOCK as usize + 5);
    a.write(blob_a, 0, &pa).unwrap();
    b.write(blob_b, 0, &pb).unwrap();

    // Each deployment reads its own data back intact...
    assert_eq!(
        &a.read(blob_a, None, 0, pa.len() as u64).unwrap()[..],
        &pa[..]
    );
    assert_eq!(
        &b.read(blob_b, None, 0, pb.len() as u64).unwrap()[..],
        &pb[..]
    );
    // ...and the *other* deployment's data too (cross-process visibility
    // through the shared services).
    assert_eq!(
        &b.read(blob_a, None, 0, pa.len() as u64).unwrap()[..],
        &pa[..]
    );
    assert_eq!(
        &a.read(blob_b, None, 0, pb.len() as u64).unwrap()[..],
        &pb[..]
    );

    // Interleaved appends from both deployments to ONE shared blob: the
    // shared version manager serializes them; nothing is lost or torn.
    let shared = a.create();
    for i in 0..4u8 {
        a.append(shared, &[10 + i; BLOCK as usize]).unwrap();
        b.append(shared, &[20 + i; BLOCK as usize]).unwrap();
    }
    let (v, size) = b.latest(shared).unwrap();
    assert_eq!(v.raw(), 8);
    assert_eq!(size, 8 * BLOCK);
    let data = a.read(shared, None, 0, size).unwrap();
    for chunk in data.chunks(BLOCK as usize) {
        assert!(chunk.iter().all(|&x| x == chunk[0]), "torn append");
    }

    // Shared-global load accounting: both deployments observe the SAME
    // hosted load vector, and it charges every block either process
    // allocated — with private per-process managers each side would see
    // only its own half.
    let load_a = sys_a.provider_manager().load_vector().unwrap();
    let load_b = sys_b.provider_manager().load_vector().unwrap();
    assert_eq!(load_a, load_b, "one hosted allocator, one load vector");
    let live_blocks = sys_a.providers().total_block_count() as u64;
    assert_eq!(
        load_a.iter().sum::<u64>(),
        live_blocks,
        "global accounting covers both deployments' allocations"
    );
    assert_eq!(sys_a.provider_manager().provider_count(), 3);
    assert_eq!(sys_b.provider_manager().provider_count(), 3);
}

#[test]
fn shutdown_surfaces_transport_errors_not_hangs() {
    let mut cluster = cluster_with_block(BLOCK, 2);
    let sys = cluster.deploy().unwrap();
    let c = sys.client(NodeId::new(0));
    let blob = c.create();
    c.write(blob, 0, &[1u8; 64]).unwrap();
    // Graceful shutdown: joins every server thread deterministically even
    // with client connections still open.
    cluster.shutdown();
    // Calls against the dead cluster fail fast with Transport, never a
    // degraded service variant and never a hang.
    let err = c.latest(blob).unwrap_err();
    assert!(matches!(err, Error::Transport(_)), "{err}");
    let err = c.write(blob, 0, &[2u8; 64]).unwrap_err();
    assert!(matches!(err, Error::Transport(_)), "{err}");
}
