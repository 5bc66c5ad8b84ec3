//! Crash-consistency tests: the engine's behavior when puts are dropped,
//! delayed, duplicated or refused by the storage fabric — driven through
//! the fault-injecting port decorators (`blobseer_core::faults`).
//!
//! The paper handles writer failure with "minimal mechanisms" (§VI-B):
//! lost data shows up as missing blocks/metadata on read, never as silent
//! corruption, and the immutable versioned history keeps every *other*
//! snapshot readable. These tests pin that contract down.
//!
//! The second half extends the contract to **process crashes over the
//! disk backend** (`blobseer-disk`): a volume or record log truncated at
//! *every possible byte offset* — the image a kill at that exact write
//! offset leaves behind — must reopen to exactly the prefix of fully
//! committed frames, never a panic, never a garbage read. The version
//! manager's replica log gets the same battery alone and as a 3-replica
//! group, where one replica's cut log must also be reconciled back to the
//! group's full history.

use blobseer_control::ReplicatedVersionService;
use blobseer_core::faults::{FaultPlan, Faults, FaultyBlockStore, FaultyMetaStore, PutFault};
use blobseer_core::meta::key::{NodeKey, Pos};
use blobseer_core::meta::node::{BlockDescriptor, TreeNode};
use blobseer_core::ports::{single, MetaStore, VersionService};
use blobseer_core::{BlobSeer, EnginePorts, WriteIntent};
use blobseer_disk::record_log::shard_path;
use blobseer_disk::testutil::TempDir;
use blobseer_disk::volume::volume_path;
use blobseer_disk::{DiskMetaStore, DiskVolume, DurableVersionService};
use blobseer_types::{BlobId, BlobSeerConfig, BlockId, Error, NodeId, Version};
use bytes::Bytes;
use proptest::prelude::*;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const BLOCK: u64 = 64;

struct Rig {
    sys: Arc<BlobSeer>,
    data_plan: Arc<FaultPlan>,
    meta_plan: Arc<FaultPlan>,
    data_store: Arc<FaultyBlockStore>,
    meta_store: Arc<FaultyMetaStore>,
}

/// A deployment whose block store and metadata store are wrapped in
/// independently scriptable fault decorators.
fn rig() -> Rig {
    let cfg = BlobSeerConfig::small_for_tests().with_block_size(BLOCK);
    let base = EnginePorts::in_memory(&cfg, (0..4).map(NodeId::new).collect(), 0x0BAD_5EED);
    let data_plan = FaultPlan::new();
    let meta_plan = FaultPlan::new();
    let data_store = Arc::new(FaultyBlockStore::new(
        Arc::clone(&base.providers),
        Faults::new(Arc::clone(&data_plan)),
    ));
    let meta_store = Arc::new(FaultyMetaStore::new(
        Arc::clone(&base.dht),
        Faults::new(Arc::clone(&meta_plan)),
    ));
    let ports = EnginePorts {
        providers: Arc::clone(&data_store) as Arc<dyn blobseer_core::BlockStore>,
        dht: Arc::clone(&meta_store) as Arc<dyn blobseer_core::MetaStore>,
        ..base
    };
    Rig {
        sys: BlobSeer::deploy_ports(cfg, ports),
        data_plan,
        meta_plan,
        data_store,
        meta_store,
    }
}

#[test]
fn dropped_data_put_is_detected_on_read_and_healed_by_rewrite() {
    let r = rig();
    let c = r.sys.client(NodeId::new(0));
    let blob = c.create();
    c.write(blob, 0, &[1u8; 64]).unwrap();

    // The fabric silently loses the block after acking the put: the write
    // commits, but reading it surfaces MissingBlock — loss is loud, never
    // silent corruption.
    r.data_plan.set(PutFault::Drop);
    let v2 = c.write(blob, 0, &[2u8; 64]).unwrap();
    assert_eq!(r.data_plan.counters().0, 1, "one put dropped");
    assert!(matches!(
        c.read(blob, Some(v2), 0, 64),
        Err(Error::MissingBlock(_))
    ));
    // History before the loss stays fully readable.
    let v1 = c.read(blob, Some(Version::new(1)), 0, 64).unwrap();
    assert!(v1.iter().all(|&b| b == 1));

    // A healthy rewrite of the range heals the latest view.
    r.data_plan.set(PutFault::None);
    let v3 = c.write(blob, 0, &[3u8; 64]).unwrap();
    let data = c.read(blob, Some(v3), 0, 64).unwrap();
    assert!(data.iter().all(|&b| b == 3));
}

#[test]
fn refused_data_put_aborts_before_version_assignment() {
    let r = rig();
    let c = r.sys.client(NodeId::new(0));
    let blob = c.create();
    c.write(blob, 0, &[1u8; 64]).unwrap();

    // The provider refuses the put: the data phase fails before the client
    // ever reaches the version manager, so the snapshot history is
    // untouched — no pending version, no stall.
    r.data_plan.set(PutFault::Fail);
    let err = c.write(blob, 0, &[9u8; 64]).unwrap_err();
    assert!(matches!(err, Error::WriteAborted(_)), "{err}");
    assert_eq!(c.latest(blob).unwrap().0, Version::new(1));
    assert!(r
        .sys
        .version_manager()
        .pending_versions(blob)
        .unwrap()
        .is_empty());

    // The very next healthy write takes version 2 as if nothing happened.
    r.data_plan.set(PutFault::None);
    assert_eq!(c.write(blob, 0, &[2u8; 64]).unwrap(), Version::new(2));
}

#[test]
fn delayed_metadata_becomes_visible_after_late_arrival() {
    let r = rig();
    let c = r.sys.client(NodeId::new(0));
    let blob = c.create();
    c.write(blob, 0, &[1u8; 128]).unwrap();

    // The DHT buffers the writer's tree nodes (in-flight messages): the
    // version commits but its metadata is unreadable until the messages
    // land.
    r.meta_plan.set(PutFault::Delay);
    let v2 = c.write(blob, 64, &[2u8; 64]).unwrap();
    assert!(r.meta_plan.counters().2 > 0, "tree-node puts were delayed");
    assert!(matches!(
        c.read(blob, Some(v2), 0, 128),
        Err(Error::MissingMetadata(_))
    ));

    // Late arrival: the buffered puts apply cleanly (immutable nodes are
    // order-insensitive) and the snapshot becomes readable.
    r.meta_plan.set(PutFault::None);
    r.meta_store.flush_delayed().unwrap();
    let data = c.read(blob, Some(v2), 0, 128).unwrap();
    assert!(data[..64].iter().all(|&b| b == 1));
    assert!(data[64..].iter().all(|&b| b == 2));
}

#[test]
fn duplicated_puts_are_observationally_invisible() {
    let clean = rig();
    let dup = rig();
    for r in [&clean, &dup] {
        if std::ptr::eq(r, &dup) {
            r.data_plan.set(PutFault::Duplicate);
            r.meta_plan.set(PutFault::Duplicate);
        }
        let c = r.sys.client(NodeId::new(0));
        let blob = c.create();
        c.write(blob, 0, &[1u8; 256]).unwrap();
        c.append(blob, &[2u8; 64]).unwrap();
    }
    // Retried-but-delivered RPCs change nothing observable: same stored
    // bytes (no double counting), same node population, same reads.
    assert!(dup.data_plan.counters().3 > 0, "data puts were duplicated");
    assert!(dup.meta_plan.counters().3 > 0, "meta puts were duplicated");
    assert_eq!(
        clean.sys.providers().total_bytes_stored(),
        dup.sys.providers().total_bytes_stored()
    );
    assert_eq!(
        clean.sys.providers().total_block_count(),
        dup.sys.providers().total_block_count()
    );
    assert_eq!(clean.sys.dht().node_count(), dup.sys.dht().node_count());
    let c = dup.sys.client(NodeId::new(0));
    let data = c
        .read(blobseer_types::BlobId::new(1), None, 0, 320)
        .unwrap();
    assert!(data[..256].iter().all(|&b| b == 1));
    assert!(data[256..].iter().all(|&b| b == 2));
    // Sanity: the decorator really exercised the idempotent re-put path.
    let _ = &dup.data_store;
}

#[test]
fn transient_metadata_refusal_self_repairs_the_pipeline() {
    // The version was already assigned when the metadata phase failed: the
    // writer must repair its own version on the way out, or every later
    // write would commit without ever revealing.
    let r = rig();
    let c = r.sys.client(NodeId::new(0));
    let blob = c.create();
    c.write(blob, 0, &[1u8; 64]).unwrap();

    r.meta_plan.set(PutFault::FailOnce);
    let err = c.write(blob, 0, &[2u8; 64]).unwrap_err();
    assert!(matches!(err, Error::WriteAborted(_)), "{err}");
    assert_eq!(r.meta_plan.counters().1, 1, "exactly one refused put");

    // The failed write's version (v2) was repaired: nothing pending, the
    // repaired snapshot reads as v1's content, and the next write reveals
    // normally as v3.
    assert!(r
        .sys
        .version_manager()
        .pending_versions(blob)
        .unwrap()
        .is_empty());
    assert_eq!(c.latest(blob).unwrap().0, Version::new(2));
    let repaired = c.read(blob, Some(Version::new(2)), 0, 64).unwrap();
    assert!(repaired.iter().all(|&b| b == 1), "repair aliases v1");
    let v3 = c.write(blob, 0, &[3u8; 64]).unwrap();
    assert_eq!(v3, Version::new(3));
    assert_eq!(c.latest(blob).unwrap().0, v3);
}

#[test]
fn conflicting_metadata_reput_is_refused_end_to_end() {
    let r = rig();
    let c = r.sys.client(NodeId::new(0));
    let blob = c.create();
    let v1 = c.write(blob, 0, &[1u8; 64]).unwrap();

    // A byzantine/diverged writer re-puts the committed root with different
    // content: the DHT refuses in every build profile (the seed silently
    // kept the old node in release builds), and readers keep seeing the
    // original.
    let root = r
        .sys
        .version_manager()
        .snapshot_info(blob, v1)
        .unwrap()
        .root_key();
    let forged = TreeNode::Leaf(BlockDescriptor {
        block_id: BlockId::new(0xDEAD),
        providers: vec![0],
        len: 64,
    });
    let err = r.sys.dht().put(root, forged).unwrap_err();
    assert!(matches!(err, Error::MetadataConflict(_)), "{err}");
    let data = c.read(blob, Some(v1), 0, 64).unwrap();
    assert!(data.iter().all(|&b| b == 1));
}

#[test]
fn refused_data_put_releases_allocation_accounting() {
    // Regression: `allocate` charges provider-manager load for every block
    // up front; the seed's data phase leaked the whole allocation set when
    // a put was refused, skewing placement forever. The failed data phase
    // must undo itself — loads back to baseline, no stored orphans.
    let r = rig();
    let c = r.sys.client(NodeId::new(0));
    let blob = c.create();
    c.write(blob, 0, &[1u8; 192]).unwrap(); // 3 blocks, healthy baseline
    let baseline_loads = r.sys.provider_manager().load_vector().unwrap();
    let baseline_blocks = r.sys.providers().total_block_count();

    r.data_plan.set(PutFault::Fail);
    let err = c.write(blob, 0, &[9u8; 256]).unwrap_err();
    assert!(matches!(err, Error::WriteAborted(_)), "{err}");
    assert_eq!(
        r.sys.provider_manager().load_vector().unwrap(),
        baseline_loads,
        "refused data phase must release its allocations"
    );
    assert_eq!(r.sys.providers().total_block_count(), baseline_blocks);

    // Same for a mid-payload refusal: the first put lands, the second is
    // refused, and the landed block is deleted with its load released.
    r.data_plan.set(PutFault::None);
    c.append(blob, &[2u8; 64]).unwrap(); // re-align the tail (192 + 64)
    let baseline_loads = r.sys.provider_manager().load_vector().unwrap();
    let baseline_blocks = r.sys.providers().total_block_count();
    r.data_plan.set(PutFault::FailOnce);
    // First put of this 4-block append fails; nothing may leak.
    let err = c.append(blob, &[9u8; 256]).unwrap_err();
    assert!(matches!(err, Error::WriteAborted(_)), "{err}");
    r.data_plan.set(PutFault::None);
    assert_eq!(
        r.sys.provider_manager().load_vector().unwrap(),
        baseline_loads
    );
    assert_eq!(r.sys.providers().total_block_count(), baseline_blocks);
}

#[test]
fn failed_metadata_publish_releases_orphaned_blocks() {
    // Regression: a write whose data phase stored its blocks but whose
    // metadata publish failed left the blocks (and their load accounting)
    // behind forever — repair republishes *aliases* to the previous
    // version, never these descriptors, so they were pure leaks.
    let r = rig();
    let c = r.sys.client(NodeId::new(0));
    let blob = c.create();
    c.write(blob, 0, &[1u8; 128]).unwrap();
    let baseline_loads = r.sys.provider_manager().load_vector().unwrap();
    let baseline_blocks = r.sys.providers().total_block_count();
    let baseline_bytes = r.sys.providers().total_bytes_stored();

    // Transient refusal: the publish fails, the writer self-repairs (the
    // repair's meta puts succeed), and the stored blocks are released.
    r.meta_plan.set(PutFault::FailOnce);
    let err = c.write(blob, 0, &[2u8; 128]).unwrap_err();
    assert!(matches!(err, Error::WriteAborted(_)), "{err}");
    assert_eq!(c.latest(blob).unwrap().0, Version::new(2), "repaired");
    assert_eq!(
        r.sys.provider_manager().load_vector().unwrap(),
        baseline_loads,
        "orphaned blocks must release their load accounting"
    );
    assert_eq!(r.sys.providers().total_block_count(), baseline_blocks);
    assert_eq!(r.sys.providers().total_bytes_stored(), baseline_bytes);

    // The repaired history still reads as v1's content and stays healthy
    // for later writes.
    let data = c.read(blob, None, 0, 128).unwrap();
    assert!(data.iter().all(|&b| b == 1));
    let v3 = c.write(blob, 0, &[3u8; 64]).unwrap();
    assert_eq!(v3, Version::new(3));

    // Appends leak-check too: same fault, same invariant.
    let baseline_loads = r.sys.provider_manager().load_vector().unwrap();
    let baseline_blocks = r.sys.providers().total_block_count();
    r.meta_plan.set(PutFault::FailOnce);
    let err = c.append(blob, &[4u8; 64]).unwrap_err();
    assert!(matches!(err, Error::WriteAborted(_)), "{err}");
    assert_eq!(
        r.sys.provider_manager().load_vector().unwrap(),
        baseline_loads
    );
    assert_eq!(r.sys.providers().total_block_count(), baseline_blocks);
}

#[test]
fn reveal_timeout_is_configurable_and_repairs() {
    // The unaligned-append patience is the config's reveal timeout (the
    // seed hard-coded 30 s), so a crashed predecessor only stalls an
    // unaligned appender for the configured window before self-repair.
    let cfg = BlobSeerConfig::small_for_tests()
        .with_block_size(BLOCK)
        .with_reveal_timeout(Duration::from_millis(50));
    let sys = BlobSeer::deploy(cfg, 4);
    let c = sys.client(NodeId::new(0));
    let blob = c.create();
    c.append(blob, &[1u8; 10]).unwrap(); // v1: unaligned tail at 10 bytes

    // v2 is assigned and abandoned (crashed writer).
    let _stuck = sys
        .version_manager()
        .assign(blob, WriteIntent::Append { size: 10 })
        .unwrap();

    // v3 is an unaligned append: it must wait for v2's reveal, give up
    // after ~50 ms, repair itself, and surface the timeout.
    let t0 = Instant::now();
    let err = c.append(blob, &[3u8; 10]).unwrap_err();
    let elapsed = t0.elapsed();
    assert!(matches!(err, Error::Timeout(_)), "{err}");
    assert!(
        elapsed < Duration::from_secs(5),
        "configured 50 ms patience must beat the 30 s default: {elapsed:?}"
    );
    // v3 repaired itself: once v2 is also repaired, the pipeline reveals
    // v3 with v1's content preserved.
    c.repair_aborted(&_stuck).unwrap();
    assert_eq!(c.latest(blob).unwrap().0, Version::new(3));
    let data = c.read(blob, None, 0, 10).unwrap();
    assert!(data.iter().all(|&b| b == 1), "prefix preserved by repairs");
}

// ---------------------------------------------------------------------------
// Disk backend: kill-at-any-write-offset recovery (blobseer-disk)
// ---------------------------------------------------------------------------

/// Writes the first `cut` bytes of the file `image` to `dst` — the on-disk
/// image a crash at exactly that write offset would leave behind.
fn crash_image(image: &[u8], dst: &Path, cut: u64) {
    std::fs::write(dst, &image[..cut as usize]).unwrap();
}

/// One step of a disk-store workload. The key space is tiny on purpose so
/// deletes, re-puts and delete-then-re-put interleavings actually happen.
#[derive(Clone, Debug)]
enum DiskOp {
    Put(u8),
    Delete(u8),
}

fn disk_ops() -> impl Strategy<Value = Vec<DiskOp>> {
    let op = prop_oneof![
        (0u8..6).prop_map(DiskOp::Put),
        (0u8..6).prop_map(DiskOp::Delete),
    ];
    proptest::collection::vec(op, 1..12)
}

/// Deterministic per-key content, so re-puts are always idempotent. Keys
/// 0–2 are a few bytes; keys 3–5 are 64–130 bytes, so their frames hold
/// whole 64-byte blocks and the checksum's folding kernel runs on them,
/// at write and at every replay.
fn disk_content(key: u8) -> Vec<u8> {
    let len = match key % 6 {
        k @ 0..=2 => 1 + k as usize,
        k => 64 + (k as usize - 3) * 33,
    };
    vec![key.wrapping_mul(17) ^ 0x5A; len]
}

fn meta_key(v: u8) -> NodeKey {
    NodeKey::new(BlobId::new(1), Version::new(1 + v as u64), Pos::new(0, 1))
}

fn meta_node(v: u8) -> TreeNode {
    TreeNode::Leaf(BlockDescriptor {
        block_id: BlockId::new(100 + v as u64),
        providers: vec![u32::from(v % 3)],
        len: 64,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Kill-at-any-offset, block volume: after an arbitrary op script, a
    /// copy of the volume truncated at **every** byte offset of the file
    /// (which covers every offset of the final frame and of all earlier
    /// frames) reopens to exactly the state after the last fully committed
    /// op — index, contents and byte accounting all agree.
    #[test]
    fn volume_recovers_exact_committed_prefix_at_every_offset(ops in disk_ops()) {
        let tmp = TempDir::new("crash-vol");
        let live = volume_path(tmp.path(), 0);
        let vol = DiskVolume::open(&live, NodeId::new(0)).unwrap();
        let mut state: HashMap<u64, Vec<u8>> = HashMap::new();
        // (file length, committed state) after each op; ops that append
        // nothing (idempotent re-put, absent delete) repeat the pair.
        let mut snapshots = vec![(0u64, state.clone())];
        for op in &ops {
            match *op {
                DiskOp::Put(k) => {
                    single(vol.put_many(&[(BlockId::new(k as u64), Bytes::from(disk_content(k)))]))
                        .unwrap();
                    state.insert(k as u64, disk_content(k));
                }
                DiskOp::Delete(k) => {
                    single(vol.delete_many(&[BlockId::new(k as u64)])).unwrap();
                    state.remove(&(k as u64));
                }
            }
            snapshots.push((std::fs::metadata(&live).unwrap().len(), state.clone()));
        }
        drop(vol);

        let final_len = snapshots.last().unwrap().0;
        let scratch = tmp.path().join("scratch.vol");
        let image = std::fs::read(&live).unwrap();
        for cut in 0..=final_len {
            crash_image(&image, &scratch, cut);
            let recovered = DiskVolume::open(&scratch, NodeId::new(0)).unwrap();
            let expected = &snapshots.iter().rev().find(|(len, _)| *len <= cut).unwrap().1;
            prop_assert_eq!(
                recovered.block_count(),
                expected.len(),
                "cut at byte {cut} of {final_len}"
            );
            let mut expected_bytes = 0u64;
            for (id, content) in expected {
                expected_bytes += content.len() as u64;
                prop_assert_eq!(
                    single(recovered.get_many(&[BlockId::new(*id)])).unwrap().as_ref(),
                    &content[..],
                    "block {id}, cut at byte {cut}"
                );
            }
            prop_assert_eq!(recovered.bytes_stored(), expected_bytes);
        }
    }

    /// Kill-at-any-offset, metadata record log: same property for a
    /// single-shard [`DiskMetaStore`] under put/delete scripts of tree
    /// nodes.
    #[test]
    fn record_log_recovers_exact_committed_prefix_at_every_offset(ops in disk_ops()) {
        let tmp = TempDir::new("crash-meta");
        let store = DiskMetaStore::open(tmp.path(), 1).unwrap();
        let live = shard_path(tmp.path(), 0);
        let mut state: HashMap<u8, TreeNode> = HashMap::new();
        let mut snapshots = vec![(0u64, state.clone())];
        for op in &ops {
            match *op {
                DiskOp::Put(v) => {
                    store.put(meta_key(v), meta_node(v)).unwrap();
                    state.insert(v, meta_node(v));
                }
                DiskOp::Delete(v) => {
                    store.delete(&meta_key(v));
                    state.remove(&v);
                }
            }
            snapshots.push((std::fs::metadata(&live).unwrap().len(), state.clone()));
        }
        drop(store);

        let final_len = snapshots.last().unwrap().0;
        let scratch_dir = TempDir::new("crash-meta-scratch");
        let scratch = shard_path(scratch_dir.path(), 0);
        let image = std::fs::read(&live).unwrap();
        for cut in 0..=final_len {
            crash_image(&image, &scratch, cut);
            let recovered = DiskMetaStore::open(scratch_dir.path(), 1).unwrap();
            let expected = &snapshots.iter().rev().find(|(len, _)| *len <= cut).unwrap().1;
            prop_assert_eq!(
                recovered.node_count(),
                expected.len(),
                "cut at byte {cut} of {final_len}"
            );
            for (v, node) in expected {
                prop_assert_eq!(
                    &recovered.get(&meta_key(*v)).unwrap(),
                    node,
                    "version {v}, cut at byte {cut}"
                );
            }
        }
    }
}

/// A log length and, per blob, the `latest` it recovers to.
type VmSnapshot = (u64, Vec<(BlobId, Option<(Version, u64)>)>);

/// A small deterministic version-manager history touching every op kind;
/// `after_op` sees the blobs created so far after every mutation.
fn version_history(vm: &dyn VersionService, mut after_op: impl FnMut(&[BlobId])) {
    let mut blobs: Vec<BlobId> = Vec::new();
    for round in 0..3u64 {
        let blob = vm.create_blob().unwrap();
        blobs.push(blob);
        after_op(&blobs);
        for _ in 0..=round {
            let t = vm.assign(blob, WriteIntent::Append { size: 64 }).unwrap();
            after_op(&blobs);
            vm.commit(blob, t.version).unwrap();
            after_op(&blobs);
        }
    }
    let fork = vm.branch(blobs[2], Version::new(1)).unwrap();
    blobs.push(fork);
    after_op(&blobs);
    vm.delete_blob(blobs[0]).unwrap();
    after_op(&blobs);
}

/// Kill-at-any-offset, version-manager operation log: a truncated copy
/// replays to the committed prefix's observables (latest version and size
/// per blob), and the blob-id sequence resumes without collisions.
#[test]
fn version_log_recovers_committed_prefix_at_every_offset() {
    let tmp = TempDir::new("crash-vm");
    let live = tmp.path().join("version.log");
    let vm = DurableVersionService::open(&live, 64).unwrap();
    let mut snapshots: Vec<VmSnapshot> = vec![(0, Vec::new())];
    let snap = |vm: &DurableVersionService, blobs: &[BlobId]| {
        (
            std::fs::metadata(&live).unwrap().len(),
            blobs.iter().map(|&b| (b, vm.latest(b).ok())).collect(),
        )
    };
    version_history(&vm, |blobs| snapshots.push(snap(&vm, blobs)));
    drop(vm);

    let final_len = snapshots.last().unwrap().0;
    let scratch = tmp.path().join("scratch.log");
    let image = std::fs::read(&live).unwrap();
    for cut in 0..=final_len {
        crash_image(&image, &scratch, cut);
        let recovered = DurableVersionService::open(&scratch, 64).unwrap();
        let expected = &snapshots
            .iter()
            .rev()
            .find(|(len, _)| *len <= cut)
            .unwrap()
            .1;
        for (blob, latest) in expected {
            assert_eq!(
                recovered.latest(*blob).ok(),
                *latest,
                "blob {blob}, cut at byte {cut} of {final_len}"
            );
        }
        // New ids never collide with ids the committed prefix handed out.
        let next = recovered.create_blob().unwrap();
        assert_eq!(next.raw(), expected.len() as u64 + 1, "cut at byte {cut}");
    }
}

/// Kill-at-any-offset, durable 3-replica version-manager group. The three
/// replica logs are byte-identical, so (a) cutting all three at the same
/// offset — a whole-group crash — recovers the committed prefix, and (b)
/// cutting only replica 0's log anywhere is undone by reconciliation on
/// open: every replica ends with the full history.
#[test]
fn replica_group_recovers_at_every_offset() {
    let tmp = TempDir::new("crash-group");
    let log = |dir: &Path, i: usize| dir.join(format!("vm-replica-{i}.log"));
    let live = tmp.path().join("live");
    let group = ReplicatedVersionService::open(&live, 3, 64).unwrap();
    let mut snapshots: Vec<VmSnapshot> = vec![(0, Vec::new())];
    version_history(&*group, |blobs| {
        snapshots.push((
            std::fs::metadata(log(&live, 0)).unwrap().len(),
            blobs.iter().map(|&b| (b, group.latest(b).ok())).collect(),
        ))
    });
    let entries = group.log_len(0);
    drop(group);

    let images: Vec<Vec<u8>> = (0..3)
        .map(|i| std::fs::read(log(&live, i)).unwrap())
        .collect();
    assert!(images.iter().all(|image| *image == images[0]));
    let final_len = images[0].len() as u64;
    let scratch = tmp.path().join("scratch");
    std::fs::create_dir_all(&scratch).unwrap();

    // (a) The whole group crashes at one offset.
    for cut in 0..=final_len {
        for (i, image) in images.iter().enumerate() {
            crash_image(image, &log(&scratch, i), cut);
        }
        let recovered = ReplicatedVersionService::open(&scratch, 3, 64).unwrap();
        let expected = &snapshots
            .iter()
            .rev()
            .find(|(len, _)| *len <= cut)
            .unwrap()
            .1;
        for (blob, latest) in expected {
            assert_eq!(
                recovered.latest(*blob).ok(),
                *latest,
                "blob {blob}, cut at byte {cut} of {final_len}"
            );
        }
        let next = recovered.create_blob().unwrap();
        assert_eq!(next.raw(), expected.len() as u64 + 1, "cut at byte {cut}");
    }

    // (b) Only replica 0 crashes; its peers hold the full history.
    let full = &snapshots.last().unwrap().1;
    for cut in 0..=final_len {
        for (i, image) in images.iter().enumerate() {
            crash_image(
                image,
                &log(&scratch, i),
                if i == 0 { cut } else { final_len },
            );
        }
        let recovered = ReplicatedVersionService::open(&scratch, 3, 64).unwrap();
        for i in 0..3 {
            assert_eq!(
                recovered.log_len(i),
                entries,
                "replica {i}, cut at byte {cut}"
            );
        }
        assert_eq!(
            std::fs::read(log(&scratch, 0)).unwrap(),
            images[0],
            "replica 0's log rewritten, cut at byte {cut}"
        );
        for (blob, latest) in full {
            assert_eq!(
                recovered.latest(*blob).ok(),
                *latest,
                "blob {blob}, cut at byte {cut}"
            );
        }
    }
}

/// Corruption *inside* the committed prefix is not a torn tail: flipping a
/// payload byte of an early frame drops that frame and everything after it
/// (the log is a history, not a set — later frames may depend on earlier
/// ones), still without a panic or a garbage read.
#[test]
fn mid_log_corruption_truncates_history_from_that_point() {
    let tmp = TempDir::new("crash-corrupt");
    let live = volume_path(tmp.path(), 0);
    let vol = DiskVolume::open(&live, NodeId::new(0)).unwrap();
    for k in 0..8u8 {
        single(vol.put_many(&[(BlockId::new(k as u64), Bytes::from(disk_content(k)))])).unwrap();
    }
    let first_frame_end = {
        // Recompute frame 0's extent: header (8) + payload.
        let after_one = {
            let t = TempDir::new("crash-corrupt-probe");
            let p = volume_path(t.path(), 0);
            let v = DiskVolume::open(&p, NodeId::new(0)).unwrap();
            single(v.put_many(&[(BlockId::new(0), Bytes::from(disk_content(0)))])).unwrap();
            std::fs::metadata(&p).unwrap().len()
        };
        after_one
    };
    drop(vol);

    // Flip one payload byte inside the *second* frame.
    let mut bytes = std::fs::read(&live).unwrap();
    let victim = first_frame_end as usize + 8 + 1;
    bytes[victim] ^= 0xFF;
    std::fs::write(&live, &bytes).unwrap();

    let recovered = DiskVolume::open(&live, NodeId::new(0)).unwrap();
    assert_eq!(recovered.block_count(), 1, "only frame 0 survives");
    assert_eq!(
        single(recovered.get_many(&[BlockId::new(0)]))
            .unwrap()
            .as_ref(),
        &disk_content(0)[..]
    );
    for k in 1..8u64 {
        assert!(matches!(
            single(recovered.get_many(&[BlockId::new(k)])),
            Err(Error::MissingBlock(_))
        ));
    }
    // And the truncated volume accepts fresh writes immediately.
    single(recovered.put_many(&[(BlockId::new(99), Bytes::from_static(b"post-recovery"))]))
        .unwrap();
    assert_eq!(recovered.block_count(), 2);
}
