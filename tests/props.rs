//! Property-based tests: random operation sequences checked against simple
//! reference models.

use blobseer_core::gc::GcTracker;
use blobseer_core::meta::key::{NodeKey, Pos};
use blobseer_core::meta::log::{LogChain, Materializer};
use blobseer_core::meta::node::{BlockDescriptor, TreeNode};
use blobseer_core::meta::tree::TreeStore;
use blobseer_core::ports::{GcService, Hooked, MetaHook, MetaStore};
use blobseer_core::{
    BlobSeer, EngineStats, FanoutExecutor, VersionManager, WriteIntent, WriteTicket,
};
use blobseer_types::wire::Wire;
use blobseer_types::{BlobId, BlobSeerConfig, BlockId, ByteRange, Error, NodeId, Result, Version};
use bsfs::BsfsCluster;
use dfs::api::FileSystem;
use dfs::util::{read_fully, write_file};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

const BLOCK: u64 = 64;

/// A write/append/branch script interpreted both by the live engine and by
/// a plain `Vec<u8>` model; every historical snapshot must match the model
/// state at that point.
#[derive(Clone, Debug)]
enum Op {
    Write { offset: u16, val: u8, len: u8 },
    Append { val: u8, len: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u16..2048, any::<u8>(), 1u8..=255).prop_map(|(offset, val, len)| Op::Write {
            offset,
            val,
            len
        }),
        (any::<u8>(), 1u8..=255).prop_map(|(val, len)| Op::Append { val, len }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every snapshot of a random single-writer history equals the model.
    #[test]
    fn blob_history_matches_vec_model(ops in proptest::collection::vec(op_strategy(), 1..24)) {
        let sys = BlobSeer::deploy(
            BlobSeerConfig::small_for_tests().with_block_size(BLOCK),
            4,
        );
        let client = sys.client(NodeId::new(0));
        let blob = client.create();
        let mut model: Vec<u8> = Vec::new();
        let mut snapshots: Vec<Vec<u8>> = vec![Vec::new()];

        for op in &ops {
            match *op {
                Op::Write { offset, val, len } => {
                    let offset = offset as usize;
                    let data = vec![val; len as usize];
                    client.write(blob, offset as u64, &data).unwrap();
                    if model.len() < offset + data.len() {
                        model.resize(offset + data.len(), 0);
                    }
                    model[offset..offset + data.len()].copy_from_slice(&data);
                }
                Op::Append { val, len } => {
                    let data = vec![val; len as usize];
                    let (off, _) = client.append(blob, &data).unwrap();
                    prop_assert_eq!(off as usize, model.len(), "append offset mismatch");
                    model.extend_from_slice(&data);
                }
            }
            snapshots.push(model.clone());
        }

        // The head matches…
        let (latest, size) = client.latest(blob).unwrap();
        prop_assert_eq!(latest.raw() as usize, ops.len());
        prop_assert_eq!(size as usize, model.len());
        let head = client.read(blob, None, 0, size).unwrap();
        prop_assert_eq!(&head[..], &model[..]);
        // …and every historical snapshot matches its model state.
        for (v, expect) in snapshots.iter().enumerate().skip(1) {
            let v = Version::new(v as u64);
            let sz = client.size(blob, v).unwrap();
            prop_assert_eq!(sz as usize, expect.len(), "size of {}", v);
            let data = client.read(blob, Some(v), 0, sz).unwrap();
            prop_assert_eq!(&data[..], &expect[..], "content of {}", v);
        }
        // Random sub-range reads agree too.
        if !model.is_empty() {
            let mid = model.len() / 2;
            let data = client.read(blob, None, mid as u64, (model.len() - mid) as u64).unwrap();
            prop_assert_eq!(&data[..], &model[mid..]);
        }
    }

    /// Branching at any revealed version yields an independent lineage that
    /// equals the model prefix and diverges cleanly.
    #[test]
    fn branch_isolating_history(
        ops in proptest::collection::vec(op_strategy(), 2..12),
        branch_sel in any::<prop::sample::Index>(),
        fork_val in any::<u8>(),
    ) {
        let sys = BlobSeer::deploy(
            BlobSeerConfig::small_for_tests().with_block_size(BLOCK),
            4,
        );
        let client = sys.client(NodeId::new(0));
        let blob = client.create();
        let mut model: Vec<u8> = Vec::new();
        let mut snapshots: Vec<Vec<u8>> = vec![Vec::new()];
        for op in &ops {
            match *op {
                Op::Write { offset, val, len } => {
                    let offset = offset as usize;
                    let data = vec![val; len as usize];
                    client.write(blob, offset as u64, &data).unwrap();
                    if model.len() < offset + data.len() {
                        model.resize(offset + data.len(), 0);
                    }
                    model[offset..offset + data.len()].copy_from_slice(&data);
                }
                Op::Append { val, len } => {
                    let data = vec![val; len as usize];
                    client.append(blob, &data).unwrap();
                    model.extend_from_slice(&data);
                }
            }
            snapshots.push(model.clone());
        }
        let at = 1 + branch_sel.index(ops.len());
        let fork = client.branch(blob, Version::new(at as u64)).unwrap();
        // Fork head equals the model at the branch point.
        let expect = &snapshots[at];
        let (fv, fsize) = client.latest(fork).unwrap();
        prop_assert_eq!(fv.raw() as usize, at);
        prop_assert_eq!(fsize as usize, expect.len());
        if !expect.is_empty() {
            let data = client.read(fork, None, 0, fsize).unwrap();
            prop_assert_eq!(&data[..], &expect[..]);
        }
        // Writing to the fork does not disturb the parent.
        client.append(fork, &[fork_val; 10]).unwrap();
        let (pv, psize) = client.latest(blob).unwrap();
        prop_assert_eq!(pv.raw() as usize, ops.len());
        prop_assert_eq!(psize as usize, model.len());
    }

    /// GC never affects surviving snapshots: after collecting everything
    /// below the head, the head still equals the model.
    #[test]
    fn gc_preserves_surviving_snapshots(ops in proptest::collection::vec(op_strategy(), 2..16)) {
        let sys = BlobSeer::deploy(
            BlobSeerConfig::small_for_tests().with_block_size(BLOCK),
            4,
        );
        let client = sys.client(NodeId::new(0));
        let blob = client.create();
        let mut model: Vec<u8> = Vec::new();
        for op in &ops {
            match *op {
                Op::Write { offset, val, len } => {
                    let offset = offset as usize;
                    let data = vec![val; len as usize];
                    client.write(blob, offset as u64, &data).unwrap();
                    if model.len() < offset + data.len() {
                        model.resize(offset + data.len(), 0);
                    }
                    model[offset..offset + data.len()].copy_from_slice(&data);
                }
                Op::Append { val, len } => {
                    let data = vec![val; len as usize];
                    client.append(blob, &data).unwrap();
                    model.extend_from_slice(&data);
                }
            }
        }
        let (latest, size) = client.latest(blob).unwrap();
        client.gc_before(blob, latest).unwrap();
        // Old versions gone…
        if latest.raw() > 1 {
            prop_assert!(client.read(blob, Some(Version::new(1)), 0, 1).is_err());
        }
        // …head intact.
        let head = client.read(blob, Some(latest), 0, size).unwrap();
        prop_assert_eq!(&head[..], &model[..]);
    }

    /// The BSFS streaming layer (write-behind + prefetch) round-trips any
    /// byte sequence written in arbitrary-sized chunks.
    #[test]
    fn bsfs_streaming_roundtrip(
        chunks in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..700), 0..12),
        read_chunk in 1usize..600,
    ) {
        let sys = BlobSeer::deploy(
            BlobSeerConfig::small_for_tests().with_block_size(256),
            4,
        );
        let cluster = BsfsCluster::new(sys);
        let fs = cluster.mount(NodeId::new(0));
        let mut out = fs.create("/p", true).unwrap();
        let mut expect = Vec::new();
        for chunk in &chunks {
            out.write(chunk).unwrap();
            expect.extend_from_slice(chunk);
        }
        out.close().unwrap();
        // Chunked reads reproduce the stream.
        let mut input = fs.open("/p").unwrap();
        let mut got = Vec::new();
        let mut buf = vec![0u8; read_chunk];
        loop {
            let n = input.read(&mut buf).unwrap();
            if n == 0 { break; }
            got.extend_from_slice(&buf[..n]);
        }
        prop_assert_eq!(got, expect);
    }

    /// Namespace model check: a random sequence of creates/deletes of
    /// files matches a HashSet model, on both backends.
    #[test]
    fn namespace_matches_set_model(script in proptest::collection::vec((0u8..24, any::<bool>()), 1..40)) {
        let sys = BlobSeer::deploy(BlobSeerConfig::small_for_tests().with_block_size(256), 2);
        let bsfs = BsfsCluster::new(sys);
        let bfs = bsfs.mount(NodeId::new(0));
        let hdfs = hdfs_sim::HdfsCluster::new(
            hdfs_sim::HdfsConfig::small_for_tests().with_chunk_size(256),
            2,
        );
        let hfs = hdfs.mount(NodeId::new(0));
        let mut model = std::collections::HashSet::new();
        for (slot, create) in script {
            let path = format!("/ns/f{slot}");
            if create {
                write_file(&bfs, &path, b"x").unwrap();
                write_file(&hfs, &path, b"x").unwrap();
                model.insert(path);
            } else {
                let expect = model.remove(&path);
                prop_assert_eq!(bfs.delete(&path, false).is_ok(), expect);
                prop_assert_eq!(hfs.delete(&path, false).is_ok(), expect);
            }
        }
        for slot in 0..24u8 {
            let path = format!("/ns/f{slot}");
            let expect = model.contains(&path);
            prop_assert_eq!(bfs.exists(&path).unwrap(), expect);
            prop_assert_eq!(hfs.exists(&path).unwrap(), expect);
            if expect {
                prop_assert_eq!(read_fully(&bfs, &path).unwrap(), b"x".to_vec());
            }
        }
    }

    /// Block-span arithmetic: spans tile the range exactly, in order,
    /// within block bounds.
    #[test]
    fn block_spans_tile_ranges(offset in 0u64..10_000, size in 0u64..10_000, bs in 1u64..512) {
        let range = ByteRange::new(offset, size);
        let spans: Vec<_> = range.block_spans(bs).collect();
        let total: u64 = spans.iter().map(|s| s.len).sum();
        prop_assert_eq!(total, size);
        let mut cursor = offset;
        for s in &spans {
            prop_assert_eq!(s.block_index * bs + s.offset_in_block, cursor);
            prop_assert!(s.offset_in_block + s.len <= bs);
            prop_assert!(s.len >= 1);
            cursor += s.len;
        }
        prop_assert_eq!(cursor, range.end());
    }
}

// --- write-log histories ------------------------------------------------------

/// Block size of the write-log histories: small, so a few hundred bytes
/// span many blocks and tree levels.
const LOG_BLOCK: u64 = 16;

/// One step of a random write-log history over several lineages. `blob`
/// picks among the lineages that exist when the step runs.
#[derive(Clone, Debug)]
enum LogOp {
    /// `len` bytes at `offset`: aligned or not, inside the BLOB or past its
    /// end (a hole, and capacity growth).
    Write {
        blob: prop::sample::Index,
        offset: u16,
        len: u16,
    },
    Append {
        blob: prop::sample::Index,
        len: u16,
    },
    /// A write that fails after its version was assigned and is repaired.
    Abort {
        blob: prop::sample::Index,
        offset: u16,
        len: u16,
    },
    /// Forks the lineage at one of its surviving versions; the parent
    /// keeps taking writes afterwards.
    Branch {
        blob: prop::sample::Index,
        at: prop::sample::Index,
    },
    /// Garbage-collects the lineage's own versions below one of them.
    Collect {
        blob: prop::sample::Index,
        keep: prop::sample::Index,
    },
}

fn log_op_strategy() -> impl Strategy<Value = LogOp> {
    let blob = any::<prop::sample::Index>;
    prop_oneof![
        (blob(), 0u16..1500, 1u16..400).prop_map(|(blob, offset, len)| LogOp::Write {
            blob,
            offset,
            len
        }),
        (blob(), 0u16..100, 1u16..5).prop_map(|(blob, at, len)| LogOp::Write {
            blob,
            offset: at * LOG_BLOCK as u16,
            len: len * LOG_BLOCK as u16,
        }),
        (blob(), 1u16..200).prop_map(|(blob, len)| LogOp::Append { blob, len }),
        (blob(), 0u16..1500, 1u16..200).prop_map(|(blob, offset, len)| LogOp::Abort {
            blob,
            offset,
            len
        }),
        (blob(), blob()).prop_map(|(blob, at)| LogOp::Branch { blob, at }),
        (blob(), blob()).prop_map(|(blob, keep)| LogOp::Collect { blob, keep }),
    ]
}

/// A [`MetaStore`] that only remembers what was put.
#[derive(Default)]
struct Recorder(Mutex<BTreeMap<NodeKey, TreeNode>>);

impl MetaStore for Recorder {
    fn put_many(&self, items: &[(NodeKey, TreeNode)]) -> Vec<Result<()>> {
        let mut nodes = self.0.lock().unwrap();
        nodes.extend(items.iter().cloned());
        items.iter().map(|_| Ok(())).collect()
    }
    fn get_many(&self, keys: &[NodeKey]) -> Vec<Result<TreeNode>> {
        let nodes = self.0.lock().unwrap();
        let missing = |key| Error::MissingMetadata(format!("{key:?}"));
        keys.iter()
            .map(|key| nodes.get(key).cloned().ok_or_else(|| missing(key)))
            .collect()
    }
    fn delete_many(&self, keys: &[NodeKey]) -> Vec<Result<bool>> {
        let mut nodes = self.0.lock().unwrap();
        keys.iter()
            .map(|key| Ok(nodes.remove(key).is_some()))
            .collect()
    }
    fn shard_count(&self) -> usize {
        1
    }
    fn node_count(&self) -> usize {
        self.0.lock().unwrap().len()
    }
    fn shard_stats(&self) -> Vec<(usize, u64, u64)> {
        Vec::new()
    }
    fn crash_shard(&self, _shard: usize) {}
}

/// Where one side of the comparison publishes its trees.
struct Side {
    nodes: Arc<Recorder>,
    dht: Arc<dyn MetaStore>,
    gc: Arc<dyn GcService>,
    stats: EngineStats,
    exec: FanoutExecutor,
}

impl Side {
    fn new() -> Self {
        let nodes = Arc::new(Recorder::default());
        Self {
            dht: Arc::clone(&nodes) as Arc<dyn MetaStore>,
            nodes,
            gc: Arc::new(GcTracker::new()),
            stats: EngineStats::new(),
            exec: FanoutExecutor::new(1),
        }
    }

    fn tree(&self) -> TreeStore<'_> {
        TreeStore {
            dht: &self.dht,
            gc: &self.gc,
            stats: &self.stats,
            exec: &self.exec,
        }
    }
}

/// A ticket as `RpcVersionService::assign` hands it out.
fn over_the_wire(ticket: &WriteTicket) -> WriteTicket {
    WriteTicket::from_bytes(&ticket.to_bytes()).unwrap()
}

/// The linear scan the per-position index replaced, as the oracle: the
/// youngest segment's latest entry below `before` (and within the
/// segment's `hi`) that materializes `pos`.
fn scan_oracle(chain: &LogChain, pos: Pos, before: Version) -> Option<Materializer> {
    chain.segments().iter().find_map(|seg| {
        let entries = seg.entries.read();
        let hit = entries
            .iter()
            .rev()
            .find(|e| e.version < before && e.version <= seg.hi && e.materializes(pos));
        hit.map(|e| Materializer {
            blob: seg.blob,
            version: e.version,
        })
    })
}

/// Every position of a tree of `cap` blocks.
fn positions(cap: u64) -> impl Iterator<Item = Pos> {
    let lens = (0..=cap.trailing_zeros()).map(|level| 1u64 << level);
    lens.flat_map(move |len| (0..cap / len).map(move |i| Pos::new(i * len, len)))
}

/// A lineage of the history and what the script must know to pick valid
/// versions of it.
struct Lineage {
    blob: BlobId,
    /// Own versions are `> base`.
    base: u64,
    collected: u64,
    latest: u64,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Over random histories — aligned and unaligned writes, appends, hole
    /// writes and capacity growth, aborted-then-repaired writes, branches
    /// whose parent keeps writing, collections:
    ///
    /// (a) the indexed `materializer_before` equals the linear-scan oracle
    ///     for every position and every `before`, on every lineage;
    /// (b) for every ticket, the copy that crossed the wire makes
    ///     `publish_write` produce exactly the node keys and contents the
    ///     live chain produces;
    /// (c) that copy's chain, asked about a position outside its border or
    ///     about another `before`, fails with `Error::Internal`.
    #[test]
    fn write_log_index_and_wire_tickets_match_the_live_log(
        ops in proptest::collection::vec(log_op_strategy(), 1..40),
    ) {
        let vm = VersionManager::new(LOG_BLOCK, Arc::new(EngineStats::new()));
        let (live, wire) = (Side::new(), Side::new());
        let mut lineages = vec![Lineage { blob: vm.create_blob(), base: 0, collected: 0, latest: 0 }];
        let mut max_cap = 1;

        for op in &ops {
            let (pick, intent, aborted) = match *op {
                LogOp::Write { blob, offset, len } => (
                    blob,
                    WriteIntent::Write { offset: offset as u64, size: len as u64 },
                    false,
                ),
                LogOp::Append { blob, len } => (blob, WriteIntent::Append { size: len as u64 }, false),
                LogOp::Abort { blob, offset, len } => (
                    blob,
                    WriteIntent::Write { offset: offset as u64, size: len as u64 },
                    true,
                ),
                LogOp::Branch { blob, at } => {
                    let parent = &lineages[blob.index(lineages.len())];
                    let floor = parent.collected.max(parent.base);
                    if parent.latest > floor {
                        let at = floor + 1 + at.index((parent.latest - floor) as usize) as u64;
                        let fork = vm.branch(parent.blob, Version::new(at)).unwrap();
                        lineages.push(Lineage { blob: fork, base: at, collected: 0, latest: at });
                    }
                    continue;
                }
                LogOp::Collect { blob, keep } => {
                    let n = lineages.len();
                    let l = &mut lineages[blob.index(n)];
                    let floor = l.collected.max(l.base);
                    if l.latest > floor + 1 {
                        // Collects own versions in (floor, keep); the latest
                        // revealed one always survives.
                        let keep = floor + 2 + keep.index((l.latest - floor - 1) as usize) as u64;
                        let roots = vm.collect_before(l.blob, Version::new(keep)).unwrap();
                        prop_assert_eq!(roots.len() as u64, keep - 1 - floor);
                        l.collected = keep - 1;
                    }
                    continue;
                }
            };
            let n = lineages.len();
            let l = &mut lineages[pick.index(n)];
            let ticket = vm.assign(l.blob, intent).unwrap();
            l.latest = ticket.version.raw();
            max_cap = max_cap.max(ticket.entry.cap_after);
            let decoded = over_the_wire(&ticket);
            prop_assert_eq!(decoded.entry, ticket.entry);

            // (c) The decoded chain answers its border, and nothing else.
            let border = ticket.chain.border(&ticket.entry).unwrap();
            prop_assert_eq!(&decoded.chain.border(&decoded.entry).unwrap(), &border);
            let root = Pos::root(ticket.entry.cap_after);
            let inside = Pos::new(ticket.entry.blocks.start, 1);
            for pos in [root, inside] {
                let asked = decoded.chain.try_materializer_before(pos, ticket.version);
                prop_assert!(matches!(asked, Err(Error::Internal(_))), "{:?}: {:?}", pos, asked);
            }
            for (pos, answer) in border.answers() {
                let asked = decoded.chain.try_materializer_before(*pos, ticket.version);
                prop_assert_eq!(asked, Ok(*answer));
                for other in [ticket.version.next(), Version::new(ticket.version.raw() - 1)] {
                    let asked = decoded.chain.try_materializer_before(*pos, other);
                    prop_assert!(matches!(asked, Err(Error::Internal(_))), "{:?}: {:?}", pos, asked);
                }
            }

            // (b) Both chains publish the same tree. A repair takes the
            // history from `chain()` on either side.
            if aborted {
                let history = vm.chain(l.blob).unwrap();
                for side in [&live, &wire] {
                    side.tree().publish_repair(l.blob, &ticket.entry, &history).unwrap();
                }
                let refused = wire.tree().publish_repair(l.blob, &decoded.entry, &decoded.chain);
                prop_assert!(matches!(refused, Err(Error::Internal(_))), "{:?}", refused);
            } else {
                let leaves: HashMap<u64, BlockDescriptor> = ticket
                    .entry
                    .blocks
                    .iter()
                    .map(|b| {
                        let desc = BlockDescriptor {
                            block_id: BlockId::new(ticket.version.raw() * 1000 + b),
                            providers: vec![(b % 3) as u32],
                            len: LOG_BLOCK as u32,
                        };
                        (b, desc)
                    })
                    .collect();
                let a = live.tree().publish_write(l.blob, &ticket.entry, &ticket.chain, &leaves);
                let b = wire.tree().publish_write(l.blob, &decoded.entry, &decoded.chain, &leaves);
                prop_assert_eq!(a.unwrap(), b.unwrap());
            }
            prop_assert_eq!(&*live.nodes.0.lock().unwrap(), &*wire.nodes.0.lock().unwrap());
            vm.commit(l.blob, ticket.version).unwrap();
        }

        // (a) Index against oracle: every lineage, every `before`, every
        // position of the largest tree and one level above it.
        for l in &lineages {
            let chain = vm.chain(l.blob).unwrap();
            for before in 1..=l.latest + 2 {
                let before = Version::new(before);
                for pos in positions(2 * max_cap) {
                    prop_assert_eq!(
                        chain.materializer_before(pos, before),
                        scan_oracle(&chain, pos, before),
                        "{:?} before {} on {}", pos, before, l.blob
                    );
                }
            }
        }
    }
}

// --- a warm descent cache never lies ----------------------------------------

/// One step of a random history on a loopback cluster: appends and
/// overwrites (past the end: holes), an aborted-then-repaired write, a
/// branch (written into once), `collect_before` and `delete_blob` of the
/// newest branch.
#[derive(Clone, Debug)]
enum Step {
    Append { val: u8, len: u8 },
    Write { offset: u16, val: u8, len: u8 },
    Abort { offset: u16, len: u8 },
    Branch { at: prop::sample::Index, val: u8 },
    Collect { keep: prop::sample::Index },
    DeleteBranch,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let write = || {
        (0u16..1200, any::<u8>(), 1u8..=200).prop_map(|(offset, val, len)| Step::Write {
            offset,
            val,
            len,
        })
    };
    let branch = || {
        (any::<prop::sample::Index>(), any::<u8>()).prop_map(|(at, val)| Step::Branch { at, val })
    };
    let collect = || any::<prop::sample::Index>().prop_map(|keep| Step::Collect { keep });
    // Overwrites, branches and collections weigh double: a branch point
    // above a collected overwrite is where a warm reader can descend into
    // a tree that is partly gone.
    prop_oneof![
        (any::<u8>(), 1u8..=200).prop_map(|(val, len)| Step::Append { val, len }),
        write(),
        write(),
        (0u16..1200, 1u8..=200).prop_map(|(offset, len)| Step::Abort { offset, len }),
        branch(),
        branch(),
        collect(),
        collect(),
        (0u8..1).prop_map(|_| Step::DeleteBranch),
    ]
}

/// A metadata hook that refuses the root level of the next publish it is
/// armed for, after every level below it landed: the aborted writer leaves
/// inner nodes and leaves behind for its repair to re-put or replace.
struct RefuseRootOnce {
    armed: Arc<std::sync::atomic::AtomicBool>,
}

impl MetaHook for RefuseRootOnce {
    fn put_levels(
        &self,
        inner: &dyn MetaStore,
        levels: &[Vec<(NodeKey, TreeNode)>],
    ) -> Vec<Vec<Result<()>>> {
        let Some((root, below)) = levels.split_last() else {
            return Vec::new();
        };
        if !self.armed.swap(false, std::sync::atomic::Ordering::SeqCst) {
            return inner.put_levels(levels);
        }
        let mut out = inner.put_levels(below);
        out.push(
            root.iter()
                .map(|_| Err(Error::WriteAborted("refused root".into())))
                .collect(),
        );
        out
    }
}

/// A client deployment on `cluster` over the RPC adapters, with the
/// metadata port `dht` builds and, if asked, the block LRU.
fn rpc_deployment(
    cluster: &blobseer_rpc::LoopbackCluster,
    dht: impl FnOnce(Arc<dyn MetaStore>) -> Arc<dyn MetaStore>,
    block_lru: bool,
) -> Arc<BlobSeer> {
    use blobseer_rpc::{
        RpcBlockStore, RpcGcService, RpcMetaStore, RpcPlacementService, RpcVersionService,
    };
    let stats = Arc::new(EngineStats::new());
    let mut providers: Arc<dyn blobseer_core::BlockStore> =
        Arc::new(RpcBlockStore::connect(cluster.block_addrs(), Arc::clone(&stats)).unwrap());
    if block_lru {
        providers = Arc::new(blobseer_core::CachedBlockStore::new(
            providers,
            blobseer_core::BlockCache::new(1 << 20, Arc::clone(&stats)),
        ));
    }
    let meta = RpcMetaStore::connect(cluster.meta_addr(), Arc::clone(&stats)).unwrap();
    let ports = blobseer_core::EnginePorts {
        providers,
        dht: dht(Arc::new(meta)),
        vm: Arc::new(RpcVersionService::connect(cluster.vm_addr(), Arc::clone(&stats)).unwrap()),
        pm: Arc::new(
            RpcPlacementService::connect(cluster.placement_addr(), Arc::clone(&stats)).unwrap(),
        ),
        gc: Some(Arc::new(
            RpcGcService::connect(cluster.gc_addr(), Arc::clone(&stats)).unwrap(),
        )),
        stats,
        observer: Arc::new(blobseer_core::NoopObserver),
    };
    BlobSeer::deploy_ports(cluster.config().clone(), ports)
}

/// What a BLOB of the model holds: every version's bytes (index = version
/// − 1), whether it was deleted, and — for a branch — its branch point.
struct ModelBlob {
    id: BlobId,
    versions: Vec<Vec<u8>>,
    branched_at: Option<u64>,
    deleted: bool,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The descent cache cannot lie. After every step of a random history,
    /// a deployment whose `RpcMetaStore` has read every version after every
    /// earlier step — alone, and with the block LRU — reads every live
    /// version exactly as a fresh, cold deployment does, and as the model
    /// says. A collected
    /// or deleted version may still read (its leaves are fetched, never
    /// cached), but only as the exact bytes it held; otherwise it fails
    /// with `NoSuchVersion`, `NoSuchBlob` or `MissingMetadata`.
    #[test]
    fn a_warm_deployment_reads_like_a_fresh_one(steps in proptest::collection::vec(step_strategy(), 1..20)) {
        let cfg = BlobSeerConfig::small_for_tests().with_block_size(BLOCK);
        let cluster = blobseer_rpc::LoopbackCluster::boot(cfg, 2).unwrap();
        let refuse = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writer_sys = rpc_deployment(&cluster, |inner| {
            Arc::new(Hooked::new(inner, RefuseRootOnce { armed: Arc::clone(&refuse) }))
        }, false);
        let writer = writer_sys.client(NodeId::new(1));
        // Two warm readers: the inner-node cache alone, and with the block
        // LRU in front of the providers too.
        let warm_sys = cluster.deploy().unwrap();
        let warm = warm_sys.client(NodeId::new(2));
        let lru_sys = rpc_deployment(&cluster, |inner| inner, true);
        let warm_lru = lru_sys.client(NodeId::new(3));
        let mut blobs = vec![ModelBlob {
            id: writer.create(),
            versions: Vec::new(),
            branched_at: None,
            deleted: false,
        }];
        // Main's versions up to here are collected.
        let mut collected = 0u64;
        // Live multi-block versions read before, and how often one was
        // read again (each such re-read crosses at least one cached node).
        let (mut seen, mut rereads) = (std::collections::HashSet::new(), 0);

        for step in &steps {
            let main = &mut blobs[0];
            let head = main.versions.last().cloned().unwrap_or_default();
            match step.clone() {
                Step::Append { val, len } => {
                    let data = vec![val; len as usize];
                    let (off, v) = writer.append(main.id, &data).unwrap();
                    prop_assert_eq!(off as usize, head.len());
                    prop_assert_eq!(v.raw() as usize, main.versions.len() + 1);
                    main.versions.push([head, data].concat());
                }
                Step::Write { offset, val, len } => {
                    let data = vec![val; len as usize];
                    writer.write(main.id, offset as u64, &data).unwrap();
                    let mut next = head;
                    let end = offset as usize + data.len();
                    next.resize(next.len().max(end), 0);
                    next[offset as usize..end].copy_from_slice(&data);
                    main.versions.push(next);
                }
                Step::Abort { offset, len } => {
                    refuse.store(true, std::sync::atomic::Ordering::SeqCst);
                    let err = writer.write(main.id, offset as u64, &vec![0xEE; len as usize]);
                    prop_assert!(matches!(err, Err(Error::WriteAborted(_))), "{:?}", err);
                    // Repaired: the previous bytes, zeros where it extended.
                    let mut next = head;
                    next.resize(next.len().max(offset as usize + len as usize), 0);
                    main.versions.push(next);
                }
                Step::Branch { at, val } => {
                    if main.versions.is_empty() {
                        continue;
                    }
                    let live = main.versions.len() as u64 - collected;
                    let at = collected + 1 + at.index(live as usize) as u64;
                    let fork = warm.branch(main.id, Version::new(at)).unwrap();
                    let mut versions = main.versions[..at as usize].to_vec();
                    let base = versions[at as usize - 1].clone();
                    writer.append(fork, &[val; 50]).unwrap();
                    versions.push([base, vec![val; 50]].concat());
                    blobs.push(ModelBlob { id: fork, versions, branched_at: Some(at), deleted: false });
                }
                Step::Collect { keep } => {
                    let latest = main.versions.len() as u64;
                    if latest <= collected + 1 {
                        continue;
                    }
                    let keep = collected + 2 + keep.index((latest - collected - 1) as usize) as u64;
                    warm.gc_before(main.id, Version::new(keep)).unwrap();
                    collected = keep - 1;
                }
                Step::DeleteBranch => {
                    if let Some(fork) = blobs.iter_mut().rev().find(|b| b.branched_at.is_some() && !b.deleted) {
                        warm.delete_blob(fork.id).unwrap();
                        fork.deleted = true;
                    }
                }
            }

            let fresh_sys = cluster.deploy().unwrap();
            let fresh = fresh_sys.client(NodeId::new(4));
            for blob in &blobs {
                for (i, expect) in blob.versions.iter().enumerate() {
                    let v = i as u64 + 1;
                    let live = !blob.deleted
                        && match blob.branched_at {
                            None => v > collected,
                            Some(at) => v >= at || v > collected,
                        };
                    let len = expect.len() as u64;
                    if live && len > BLOCK && !seen.insert((blob.id, v)) {
                        rereads += 1;
                    }
                    for (who, c) in [("warm", &warm), ("warm+lru", &warm_lru), ("fresh", &fresh)] {
                        let got = c.read(blob.id, Some(Version::new(v)), 0, len);
                        let exact = matches!(&got, Ok(bytes) if bytes[..] == expect[..]);
                        let gone = matches!(
                            got,
                            Err(Error::NoSuchVersion { .. } | Error::NoSuchBlob(_) | Error::MissingMetadata(_))
                        );
                        prop_assert!(
                            exact || (!live && gone),
                            "{} read of {} v{} (live: {}) after {:?}: {:?}",
                            who, blob.id, v, live, step, got.map(|b| b.len())
                        );
                    }
                }
            }
        }
        for sys in [&warm_sys, &lru_sys] {
            let hits = sys.stats().snapshot().cache_hits;
            prop_assert!(rereads == 0 || hits > 0, "{} re-reads, no cache hit", rereads);
        }
    }
}

/// The case the property above meets only now and then, pinned: a branch
/// keeps history below its branch point readable until the parent
/// collects it. A warm reader then descends through cached inner nodes of
/// the collected trees and stops at the first leaf GC freed — with the
/// same `MissingMetadata` a cold reader gets one level up, never with a
/// missing block behind a stale leaf, never with other bytes.
#[test]
fn a_descent_through_cached_nodes_of_a_collected_tree_stops_at_its_freed_leaf() {
    let cluster = blobseer_rpc::LoopbackCluster::boot(
        BlobSeerConfig::small_for_tests().with_block_size(BLOCK),
        2,
    )
    .unwrap();
    let writer_sys = cluster.deploy().unwrap();
    let writer = writer_sys.client(NodeId::new(1));
    let warm_sys = cluster.deploy().unwrap();
    let warm = warm_sys.client(NodeId::new(2));
    let blob = writer.create();
    let n = BLOCK as usize;
    writer.write(blob, 0, &vec![1u8; 2 * n]).unwrap();
    writer.write(blob, 0, &vec![2u8; n]).unwrap();
    writer.write(blob, BLOCK, &vec![3u8; n]).unwrap();
    let fork = warm.branch(blob, Version::new(3)).unwrap();
    let read =
        |c: &blobseer_core::BlobClient, v: u64| c.read(fork, Some(Version::new(v)), 0, 2 * BLOCK);
    assert_eq!(read(&warm, 1).unwrap().to_vec(), vec![1u8; 2 * n]);
    assert_eq!(
        read(&warm, 2).unwrap().to_vec(),
        [vec![2u8; n], vec![1u8; n]].concat()
    );

    // v1 and v2 go; the fork pins v3 only.
    warm.gc_before(blob, Version::new(3)).unwrap();
    let fresh_sys = cluster.deploy().unwrap();
    let fresh = fresh_sys.client(NodeId::new(3));
    let hits = warm_sys.stats().snapshot().cache_hits;
    for (v, freed_leaf) in [(1, "v1@(0,1)"), (2, "v1@(1,1)")] {
        let got = read(&warm, v);
        assert!(
            matches!(&got, Err(Error::MissingMetadata(k)) if k.ends_with(freed_leaf)),
            "warm v{v}: {got:?}"
        );
        let root = format!("v{v}@(0,2)");
        let got = read(&fresh, v);
        assert!(
            matches!(&got, Err(Error::MissingMetadata(k)) if k.ends_with(&root)),
            "fresh v{v}: {got:?}"
        );
    }
    assert_eq!(
        warm_sys.stats().snapshot().cache_hits - hits,
        2,
        "both roots were cached"
    );
    let v3 = [vec![2u8; n], vec![3u8; n]].concat();
    assert_eq!(read(&warm, 3).unwrap().to_vec(), v3);
    assert_eq!(read(&fresh, 3).unwrap().to_vec(), v3);
}
