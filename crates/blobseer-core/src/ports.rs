//! Service **port traits**: the seams between the client protocol and the
//! concrete service processes of Fig. 2.
//!
//! The paper's throughput claims rest on its service decomposition — version
//! manager, provider manager, data providers, metadata DHT — and on the
//! client protocol never caring *where* those services run. This module
//! makes that decomposition explicit in the type system: the client
//! ([`crate::client`]) is written against three object-safe traits and a
//! deployment wires in adapters:
//!
//! * [`BlockStore`] — the data providers of a deployment, addressed by dense
//!   provider index (the provider manager allocates by index).
//! * [`MetaStore`] — the metadata DHT storing segment-tree nodes.
//! * [`VersionService`] — the version manager: the serialization point of
//!   the protocol (§III-A.4) plus snapshot/branch/GC bookkeeping.
//!
//! Four adapter families ship in-tree:
//!
//! 1. the **in-memory** structs ([`crate::block_store::ProviderSet`],
//!    [`crate::dht::MetaDht`], [`crate::version_manager::VersionManager`]),
//!    now lock-striped (see [`crate::sharded`]);
//! 2. the **simnet-backed** adapters (`experiments::concurrent`) that charge a
//!    discrete-event cost model per call so the figure drivers exercise the
//!    real client code path;
//! 3. the **fault-injecting** decorators ([`crate::faults`]) that drop,
//!    delay or duplicate puts for crash-consistency tests;
//! 4. the **TCP RPC** adapters (`blobseer-rpc`) that take every trait call
//!    over real sockets to separate server processes — the paper's
//!    "communicate through remote procedure calls" (§III-B) — with every
//!    [`blobseer_types::Error`] variant surviving the wire round-trip.
//!
//! A fourth, *passive* port rides along: [`ProtocolObserver`] receives a
//! callback at every protocol phase boundary (data phase, version
//! assignment, metadata publish, commit; snapshot resolve, tree descent,
//! block fetches). Deployments default to [`NoopObserver`]; the
//! concurrent-client harness (`experiments::concurrent`) installs one that
//! reads the simulated clock at each boundary, which is how the figures
//! report where time goes — e.g. the version-manager queueing that bends
//! Fig. 5 — without the client code knowing it is being simulated.
//!
//! The store traits are **vectored-only**: the protocol has no per-block
//! primitive (§III-D stores a write's blocks and publishes its tree nodes
//! "in parallel", §III-C fetches a level's siblings together), so the
//! *required* methods of [`BlockStore`] and [`MetaStore`] are
//! `put_many`/`get_many`/`delete_many` — one `Result` per item, in input
//! order, batches grouped by data provider for blocks and by tree level
//! for metadata. The protocol's hot paths issue nothing else (the data
//! phase puts one batch per provider, metadata publish pushes one batch
//! per tree level — all levels of a version handed over at once,
//! [`MetaStore::put_levels`], so a remote backend can overlap them — the
//! descent fetches one batch per level, GC releases whole cascade waves),
//! so a remote backend pays O(levels + providers) round trips per
//! operation instead of O(blocks + nodes). `put`/`get`/`delete` are
//! *provided* one-liners over a batch of one ([`single`]): a backend
//! implements each store operation exactly once, in its batch form, and a
//! single-item call reaches the same code (the lock-striped stores take
//! each stripe's lock once per batch; `blobseer-rpc` ships one wire frame
//! per batch, also for a batch of one). The workspace lint's
//! `vectored-only` rule rejects an adapter that defines the single-item
//! form itself.
//!
//! Everything here is object-safe on purpose (`Arc<dyn …>` wiring): later
//! PRs can add RPC-backed or async-bridged adapters without touching any
//! protocol code.

#![warn(missing_docs)]

use crate::gc::GcReport;
use crate::meta::key::NodeKey;
use crate::meta::log::LogChain;
use crate::meta::node::TreeNode;
use crate::provider_manager::BlockAllocation;
use crate::version_manager::{SnapshotInfo, WriteIntent, WriteTicket};
use blobseer_types::{BlobId, BlockId, Error, NodeId, Result, Version};
use bytes::Bytes;
use std::time::Duration;

/// The answer of a one-item batch — what the provided single-item port
/// methods (and the stores' inherent one-item conveniences) reduce their
/// batch call with. A backend that answers a batch of one with any other
/// number of results broke the per-item contract: [`Error::Internal`].
pub fn single<T>(mut results: Vec<Result<T>>) -> Result<T> {
    let n = results.len();
    match results.pop() {
        Some(result) if n == 1 => result,
        _ => Err(Error::Internal(format!(
            "a one-item batch was answered with {n} results"
        ))),
    }
}

/// The data providers of a deployment, addressed by dense provider index
/// `0..len()` — the index space the provider manager allocates in.
///
/// Blocks are immutable once stored; `put` with an id the provider already
/// holds must be idempotent for identical content.
///
/// # Example
///
/// Any adapter is used through `Arc<dyn BlockStore>`; the in-memory
/// [`crate::block_store::ProviderSet`] is the reference implementation:
///
/// ```
/// use blobseer_core::ports::BlockStore;
/// use blobseer_core::block_store::ProviderSet;
/// use blobseer_types::{BlockId, NodeId};
/// use bytes::Bytes;
/// use std::sync::Arc;
///
/// let store: Arc<dyn BlockStore> = Arc::new(ProviderSet::new(4, |i| NodeId::new(i as u64)));
/// store.put(2, BlockId::new(7), Bytes::from_static(b"block")).unwrap();
/// assert_eq!(&store.get(2, BlockId::new(7)).unwrap()[..], b"block");
/// assert_eq!(store.layout_vector(), vec![0, 0, 1, 0]);
/// assert_eq!(store.index_of_node(NodeId::new(2)), Some(2));
/// ```
pub trait BlockStore: Send + Sync {
    /// Number of providers in the deployment.
    fn len(&self) -> usize;

    /// The cluster node hosting provider `i` (locality scheduling, §IV-C).
    fn node(&self, provider: usize) -> NodeId;

    /// Finds the dense index of the provider hosted on `node`, if any.
    fn index_of_node(&self, node: NodeId) -> Option<usize>;

    /// Stores a batch of blocks on provider `i` — the vectored data phase
    /// (§III-D stores a write's blocks "in parallel"; batching lets remote
    /// backends ship one frame per provider instead of one per block).
    ///
    /// Returns one `Result` per item, in input order: a backend (or fault
    /// decorator) may fail a subset while the rest land.
    fn put_many(&self, provider: usize, items: &[(BlockId, Bytes)]) -> Vec<Result<()>>;

    /// Fetches a batch of blocks from provider `i` (zero-copy clones),
    /// with per-item results in input order.
    fn get_many(&self, provider: usize, ids: &[BlockId]) -> Vec<Result<Bytes>>;

    /// Deletes a batch of blocks from provider `i`, returning the bytes
    /// freed per item in input order (0 if absent). A per-item `Err` means
    /// the outcome is *unknown* (e.g. transport loss on a remote backend),
    /// which callers must not conflate with "absent".
    fn delete_many(&self, provider: usize, ids: &[BlockId]) -> Vec<Result<u64>>;

    /// Stores one block on provider `i`: [`Self::put_many`] of one item.
    fn put(&self, provider: usize, id: BlockId, data: Bytes) -> Result<()> {
        single(self.put_many(provider, &[(id, data)]))
    }

    /// Fetches one block from provider `i`: [`Self::get_many`] of one id.
    fn get(&self, provider: usize, id: BlockId) -> Result<Bytes> {
        single(self.get_many(provider, &[id]))
    }

    /// True if provider `i` holds the block.
    fn contains(&self, provider: usize, id: BlockId) -> bool;

    /// Deletes one block from provider `i`: [`Self::delete_many`] of one
    /// id.
    fn delete(&self, provider: usize, id: BlockId) -> Result<u64> {
        single(self.delete_many(provider, &[id]))
    }

    /// Number of blocks currently stored on provider `i`.
    fn block_count(&self, provider: usize) -> usize;

    /// Payload bytes currently stored on provider `i`.
    fn bytes_stored(&self, provider: usize) -> u64;

    /// `(puts, gets)` served by provider `i` since deployment.
    fn op_counts(&self, provider: usize) -> (u64, u64);

    /// True when the adapter exposes no providers. Deployments reject such
    /// adapters up front (`BlobSeer::deploy_ports`).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-provider block counts — the "data layout vector" of Fig. 3(b).
    fn layout_vector(&self) -> Vec<u64> {
        (0..self.len())
            .map(|i| self.block_count(i) as u64)
            .collect()
    }

    /// Total blocks stored across providers.
    fn total_block_count(&self) -> usize {
        (0..self.len()).map(|i| self.block_count(i)).sum()
    }

    /// Total payload bytes stored across providers.
    fn total_bytes_stored(&self) -> u64 {
        (0..self.len()).map(|i| self.bytes_stored(i)).sum()
    }
}

/// The metadata DHT: segment-tree nodes keyed by `(blob, version, pos)`.
///
/// Nodes are immutable; a conflicting re-put must fail with
/// [`blobseer_types::Error::MetadataConflict`] in every build profile.
///
/// # Example
///
/// ```
/// use blobseer_core::ports::MetaStore;
/// use blobseer_core::dht::MetaDht;
/// use blobseer_core::meta::key::{NodeKey, Pos};
/// use blobseer_core::meta::node::{BlockDescriptor, TreeNode};
/// use blobseer_types::{BlobId, BlockId, Version};
/// use std::sync::Arc;
///
/// let dht: Arc<dyn MetaStore> = Arc::new(MetaDht::new(8, 1));
/// let key = NodeKey::new(BlobId::new(1), Version::new(1), Pos::new(0, 1));
/// let leaf = TreeNode::Leaf(BlockDescriptor {
///     block_id: BlockId::new(42),
///     providers: vec![0],
///     len: 64,
/// });
/// dht.put(key, leaf.clone()).unwrap();
/// assert_eq!(dht.get(&key).unwrap(), leaf);
/// // Tree nodes are immutable: re-putting different content must fail.
/// let conflicting = TreeNode::LeafAlias(None);
/// assert!(dht.put(key, conflicting).is_err());
/// ```
pub trait MetaStore: Send + Sync {
    /// Stores a batch of nodes (each on all its replicas) with per-item
    /// results in input order — how a writer publishes a whole tree level
    /// in one call (§III-D publishes a version's nodes in parallel). A
    /// backend may fail a subset (e.g. a per-item
    /// [`blobseer_types::Error::MetadataConflict`]) while the rest land.
    fn put_many(&self, items: &[(NodeKey, TreeNode)]) -> Vec<Result<()>>;

    /// Stores one node: [`Self::put_many`] of one item.
    fn put(&self, key: NodeKey, node: TreeNode) -> Result<()> {
        single(self.put_many(&[(key, node)]))
    }

    /// Fetches one node: [`Self::get_many`] of one key.
    fn get(&self, key: &NodeKey) -> Result<TreeNode> {
        single(self.get_many(std::slice::from_ref(key)))
    }

    /// Deletes one node: [`Self::delete_many`] of one key. True if any
    /// replica existed; an unknown outcome (`Err`) reads as `false`.
    fn delete(&self, key: &NodeKey) -> bool {
        single(self.delete_many(std::slice::from_ref(key))).unwrap_or(false)
    }

    /// Stores the tree levels of one version's publish, given deepest
    /// first, and returns the per-item results of every level it
    /// *attempted*, in order — at least one, possibly fewer than given.
    ///
    /// §III-D publishes a version's metadata in parallel, and nothing a
    /// reader can see depends on the order its nodes land in (the version
    /// is revealed only after all of them did, see `meta::tree`). A remote
    /// backend may therefore overlap the levels' round trips
    /// (`blobseer-rpc` writes every level's frame before it awaits the
    /// first response). The default is the sequential loop: one
    /// [`Self::put_many`] per level, stopping after the first level in
    /// which an item failed — so local backends and decorators (fault
    /// injection, caching, SimGate charging) see exactly the calls a
    /// level-by-level publish makes, and a failed publish leaves the
    /// shallower levels unwritten.
    fn put_levels(&self, levels: &[Vec<(NodeKey, TreeNode)>]) -> Vec<Vec<Result<()>>> {
        let mut attempted = Vec::with_capacity(levels.len());
        for level in levels {
            let results = self.put_many(level);
            let failed = results.iter().any(Result::is_err);
            attempted.push(results);
            if failed {
                break;
            }
        }
        attempted
    }

    /// Fetches a batch of nodes (trying replicas in order) with per-item
    /// results in input order — one call per level of a read's tree
    /// descent (§III-C fetches the sibling nodes of a level concurrently).
    fn get_many(&self, keys: &[NodeKey]) -> Vec<Result<TreeNode>>;

    /// Deletes a batch of nodes from all their replicas; per item,
    /// `Ok(true)` if any replica existed, `Err` when the outcome is
    /// unknown (remote backends, a failed tombstone append).
    fn delete_many(&self, keys: &[NodeKey]) -> Vec<Result<bool>>;

    /// Stable shard index for client-side fan-out grouping: keys mapping
    /// to different indices may be batched and issued *concurrently* by
    /// the fan-out executor. Default: every key maps to group `0`, i.e.
    /// one batch per tree level — correct for single-endpoint backends
    /// (the RPC adapters: one socket pool, one frame per level) and for
    /// decorators that must preserve their inner call structure (the
    /// SimGate charging adapters' cost model counts `put_many` calls).
    /// Only backends whose shards are independently reachable (the
    /// in-memory [`crate::dht::MetaDht`]) override this.
    fn fanout_shard(&self, _key: &NodeKey) -> usize {
        0
    }

    /// Number of metadata providers (DHT buckets).
    fn shard_count(&self) -> usize;

    /// Total nodes stored (replicas counted).
    fn node_count(&self) -> usize;

    /// Per-shard `(nodes, puts, gets)` — the metadata load distribution.
    fn shard_stats(&self) -> Vec<(usize, u64, u64)>;

    /// Drops one shard's contents (fault-tolerance testing hook).
    fn crash_shard(&self, shard: usize);
}

/// The version manager: assigns versions (the protocol's only serialization
/// point, §III-A.4), tracks commit/reveal order, and owns the write logs
/// that snapshot geometry and branching resolve through.
///
/// # Example
///
/// A snapshot becomes visible only after commit; assignment alone leaves it
/// pending:
///
/// ```
/// use blobseer_core::ports::VersionService;
/// use blobseer_core::{EngineStats, VersionManager, WriteIntent};
/// use blobseer_types::Version;
/// use std::sync::Arc;
///
/// let vm: Arc<dyn VersionService> =
///     Arc::new(VersionManager::new(64, Arc::new(EngineStats::new())));
/// let blob = vm.create_blob().unwrap();
/// let ticket = vm.assign(blob, WriteIntent::Append { size: 128 }).unwrap();
/// assert_eq!(ticket.version, Version::new(1));
/// assert_eq!(vm.pending_versions(blob).unwrap(), vec![Version::new(1)]);
/// vm.commit(blob, ticket.version).unwrap();
/// assert_eq!(vm.latest(blob).unwrap(), (Version::new(1), 128));
/// ```
pub trait VersionService: Send + Sync {
    /// The configured block size (bytes).
    fn block_size(&self) -> u64;

    /// Creates a new, empty BLOB. Fails only on service-level trouble
    /// (unreachable version manager, durable log append failure) — there
    /// is no per-blob precondition to violate.
    fn create_blob(&self) -> Result<BlobId>;

    /// Forks `parent` at revealed version `at` (O(1), shares history).
    fn branch(&self, parent: BlobId, at: Version) -> Result<BlobId>;

    /// Assigns the next version for a write/append.
    fn assign(&self, blob: BlobId, intent: WriteIntent) -> Result<WriteTicket>;

    /// Marks `version`'s metadata as written; reveals in version order.
    fn commit(&self, blob: BlobId, version: Version) -> Result<()>;

    /// The latest revealed snapshot: `(version, size)`.
    fn latest(&self, blob: BlobId) -> Result<(Version, u64)>;

    /// Geometry and visibility of one snapshot.
    fn snapshot_info(&self, blob: BlobId, version: Version) -> Result<SnapshotInfo>;

    /// The write-log chain (own log plus ancestry).
    fn chain(&self, blob: BlobId) -> Result<LogChain>;

    /// Blocks until `version` is revealed or `timeout` elapses.
    fn wait_revealed(&self, blob: BlobId, version: Version, timeout: Duration) -> Result<()>;

    /// Versions assigned but not yet revealed (diagnostics).
    fn pending_versions(&self, blob: BlobId) -> Result<Vec<Version>>;

    /// Unregisters a BLOB; returns the root keys of its own revealed
    /// versions for storage release.
    fn delete_blob(&self, blob: BlobId) -> Result<Vec<NodeKey>>;

    /// Marks own versions strictly below `keep_from` as collected; returns
    /// the root keys to release.
    fn collect_before(&self, blob: BlobId, keep_from: Version) -> Result<Vec<NodeKey>>;
}

/// The provider manager as a service port: block placement, load
/// accounting, provider registration and liveness (§III-B: it "keeps
/// information about the available storage space and schedules the
/// placement of newly generated blocks").
///
/// Historically the provider manager was a client-side struct, so two
/// client processes sharing one cluster each ran a private copy and
/// silently double-booked provider load. Behind this port it can be
/// *hosted*: `blobseer-rpc`'s `LoopbackCluster` runs one
/// [`crate::provider_manager::ProviderManager`] behind a placement server
/// and every deployment's allocation stream and release traffic flows
/// through it, so load accounting is globally consistent.
///
/// Remote adapters account their frames on
/// [`crate::stats::EngineStats::control_round_trips`], never on the
/// data-path counters: a clean write costs exactly one `allocate` call
/// regardless of block count.
pub trait PlacementService: Send + Sync {
    /// Number of providers under management. Fixed deployment shape —
    /// remote adapters fetch it once at connect time.
    fn provider_count(&self) -> usize;

    /// Allocates ids and replica targets for `n_blocks` new blocks,
    /// charging one load unit per replica.
    fn allocate(&self, n_blocks: usize, replication: usize) -> Result<Vec<BlockAllocation>>;

    /// Releases load accounting, one unit per entry (an entry per replica
    /// of every released block) — the batched undo of `allocate`, used by
    /// data-phase aborts and GC cascades.
    fn release_many(&self, providers: &[usize]) -> Result<()>;

    /// Copy of the current load vector (blocks allocated per provider).
    fn load_vector(&self) -> Result<Vec<u64>>;

    /// Registers a new provider hosted on `node`; returns its dense index.
    /// Subsequent allocations may target it.
    fn register_provider(&self, node: NodeId) -> Result<usize>;

    /// Liveness ping for provider `i`; returns its current allocated load.
    fn heartbeat(&self, provider: usize) -> Result<u64>;
}

/// The distributed GC service: node refcounts and cascade triggers.
///
/// Subtree sharing means refcounts must be *globally* consistent — a leaf
/// shared by snapshots written through two different client processes has
/// one count, not one per process. Like [`PlacementService`], this port
/// lets the refcount tracker be hosted ([`crate::gc::GcHost`] behind a
/// `blobseer-rpc` server) instead of living per client deployment.
///
/// Remote adapters account frames on `control_round_trips`: a clean write
/// costs exactly two GC calls (one `inc_nodes` batch for the child
/// references of its published tree, one for the committed root — kept
/// separate because abort repair re-registers the *same* root key).
pub trait GcService: Send + Sync {
    /// Adds one reference to each key (child references during publish,
    /// root registration at commit, branch registration). Nodes need not
    /// exist in the DHT yet.
    fn inc_nodes(&self, keys: &[NodeKey]) -> Result<()>;

    /// Releases one reference on each root and cascades deletion of every
    /// node and block that becomes unreachable, returning the merged
    /// report.
    fn release_roots(&self, roots: &[NodeKey]) -> Result<GcReport>;

    /// Current count for one node (0 if never referenced) — diagnostics.
    fn node_count(&self, key: &NodeKey) -> Result<u64>;

    /// Number of tracked (non-zero) entries — diagnostics.
    fn tracked_nodes(&self) -> Result<usize>;
}

/// Which client operation a [`ProtocolObserver`] callback belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProtocolOp {
    /// `BlobClient::write` — write at an explicit offset.
    Write,
    /// `BlobClient::append` — write at the end, offset fixed at assignment.
    Append,
    /// `BlobClient::read` — snapshot resolve, descent, block fetches.
    Read,
}

/// A protocol phase boundary, in the §III-D / §III-C vocabulary.
///
/// Writes and appends pass through `Start → DataDone → VersionAssigned →
/// MetadataPublished → Committed`; reads through `Start → Located → Done`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProtocolPhase {
    /// The operation entered the client.
    Start,
    /// Data phase finished: every block is stored on its providers.
    DataDone,
    /// The version manager assigned the snapshot version (the only
    /// serialized step, §III-A.4).
    VersionAssigned,
    /// All tree nodes of this version are published to the metadata DHT.
    MetadataPublished,
    /// The version manager acknowledged the commit.
    Committed,
    /// Read only: the segment-tree descent located every queried block.
    Located,
    /// Read only: all block fetches finished and the bytes are assembled.
    Done,
}

/// Passive port notified at every protocol phase boundary.
///
/// The client calls this synchronously on its own thread, so an observer
/// can attribute the callback to the calling client (the simulated-time
/// harness keys a thread-local client context off it) and can read
/// whatever clock it trusts. Implementations must be cheap and must not
/// call back into the engine.
pub trait ProtocolObserver: Send + Sync {
    /// `node`'s client crossed `phase` of `op`.
    fn phase(&self, node: NodeId, op: ProtocolOp, phase: ProtocolPhase);
}

/// The default observer: ignores everything.
pub struct NoopObserver;

impl ProtocolObserver for NoopObserver {
    fn phase(&self, _node: NodeId, _op: ProtocolOp, _phase: ProtocolPhase) {}
}

// --- in-memory adapter impls ------------------------------------------------

impl BlockStore for crate::block_store::ProviderSet {
    fn len(&self) -> usize {
        crate::block_store::ProviderSet::len(self)
    }
    fn node(&self, provider: usize) -> NodeId {
        self.get(provider).node()
    }
    fn index_of_node(&self, node: NodeId) -> Option<usize> {
        crate::block_store::ProviderSet::index_of_node(self, node)
    }
    fn contains(&self, provider: usize, id: BlockId) -> bool {
        self.get(provider).contains(id)
    }
    fn put_many(&self, provider: usize, items: &[(BlockId, Bytes)]) -> Vec<Result<()>> {
        self.get(provider).put_many(items);
        items.iter().map(|_| Ok(())).collect()
    }
    fn get_many(&self, provider: usize, ids: &[BlockId]) -> Vec<Result<Bytes>> {
        self.get(provider).get_many(ids)
    }
    fn delete_many(&self, provider: usize, ids: &[BlockId]) -> Vec<Result<u64>> {
        self.get(provider)
            .delete_many(ids)
            .into_iter()
            .map(Ok)
            .collect()
    }
    fn block_count(&self, provider: usize) -> usize {
        self.get(provider).block_count()
    }
    fn bytes_stored(&self, provider: usize) -> u64 {
        self.get(provider).bytes_stored()
    }
    fn op_counts(&self, provider: usize) -> (u64, u64) {
        self.get(provider).op_counts()
    }
    fn layout_vector(&self) -> Vec<u64> {
        crate::block_store::ProviderSet::layout_vector(self)
    }
}

impl MetaStore for crate::dht::MetaDht {
    fn put_many(&self, items: &[(NodeKey, TreeNode)]) -> Vec<Result<()>> {
        crate::dht::MetaDht::put_many(self, items)
    }
    fn get_many(&self, keys: &[NodeKey]) -> Vec<Result<TreeNode>> {
        crate::dht::MetaDht::get_many(self, keys)
    }
    fn delete_many(&self, keys: &[NodeKey]) -> Vec<Result<bool>> {
        crate::dht::MetaDht::delete_many(self, keys)
            .into_iter()
            .map(Ok)
            .collect()
    }
    fn fanout_shard(&self, key: &NodeKey) -> usize {
        // Replicated nodes span several shards; fan-out grouping only
        // needs a *stable* partition, and the home shard is one.
        crate::dht::MetaDht::shard_of(self, key)
    }
    fn shard_count(&self) -> usize {
        crate::dht::MetaDht::shard_count(self)
    }
    fn node_count(&self) -> usize {
        crate::dht::MetaDht::node_count(self)
    }
    fn shard_stats(&self) -> Vec<(usize, u64, u64)> {
        crate::dht::MetaDht::shard_stats(self)
    }
    fn crash_shard(&self, shard: usize) {
        crate::dht::MetaDht::crash_shard(self, shard)
    }
}

impl PlacementService for crate::provider_manager::ProviderManager {
    fn provider_count(&self) -> usize {
        crate::provider_manager::ProviderManager::provider_count(self)
    }
    fn allocate(&self, n_blocks: usize, replication: usize) -> Result<Vec<BlockAllocation>> {
        crate::provider_manager::ProviderManager::allocate(self, n_blocks, replication)
    }
    fn release_many(&self, providers: &[usize]) -> Result<()> {
        crate::provider_manager::ProviderManager::release_many(self, providers);
        Ok(())
    }
    fn load_vector(&self) -> Result<Vec<u64>> {
        Ok(crate::provider_manager::ProviderManager::load_vector(self))
    }
    fn register_provider(&self, node: NodeId) -> Result<usize> {
        Ok(crate::provider_manager::ProviderManager::register_provider(
            self, node,
        ))
    }
    fn heartbeat(&self, provider: usize) -> Result<u64> {
        crate::provider_manager::ProviderManager::heartbeat(self, provider)
    }
}

impl GcService for crate::gc::GcTracker {
    fn inc_nodes(&self, keys: &[NodeKey]) -> Result<()> {
        for &key in keys {
            self.inc_node(key);
        }
        Ok(())
    }
    /// A bare tracker holds refcounts but no storage ports, so it cannot
    /// cascade — deployments wire a [`crate::gc::GcHost`] for that. This
    /// impl exists so refcount-only contexts (tree benches, unit fixtures)
    /// can stand in for the full service.
    fn release_roots(&self, _roots: &[NodeKey]) -> Result<GcReport> {
        Err(Error::Internal(
            "GcTracker has no storage ports to cascade into; deploy a GcHost".into(),
        ))
    }
    fn node_count(&self, key: &NodeKey) -> Result<u64> {
        Ok(crate::gc::GcTracker::node_count(self, key))
    }
    fn tracked_nodes(&self) -> Result<usize> {
        Ok(crate::gc::GcTracker::tracked_nodes(self))
    }
}

impl VersionService for crate::version_manager::VersionManager {
    fn block_size(&self) -> u64 {
        crate::version_manager::VersionManager::block_size(self)
    }
    fn create_blob(&self) -> Result<BlobId> {
        Ok(crate::version_manager::VersionManager::create_blob(self))
    }
    fn branch(&self, parent: BlobId, at: Version) -> Result<BlobId> {
        crate::version_manager::VersionManager::branch(self, parent, at)
    }
    fn assign(&self, blob: BlobId, intent: WriteIntent) -> Result<WriteTicket> {
        crate::version_manager::VersionManager::assign(self, blob, intent)
    }
    fn commit(&self, blob: BlobId, version: Version) -> Result<()> {
        crate::version_manager::VersionManager::commit(self, blob, version)
    }
    fn latest(&self, blob: BlobId) -> Result<(Version, u64)> {
        crate::version_manager::VersionManager::latest(self, blob)
    }
    fn snapshot_info(&self, blob: BlobId, version: Version) -> Result<SnapshotInfo> {
        crate::version_manager::VersionManager::snapshot_info(self, blob, version)
    }
    fn chain(&self, blob: BlobId) -> Result<LogChain> {
        crate::version_manager::VersionManager::chain(self, blob)
    }
    fn wait_revealed(&self, blob: BlobId, version: Version, timeout: Duration) -> Result<()> {
        crate::version_manager::VersionManager::wait_revealed(self, blob, version, timeout)
    }
    fn pending_versions(&self, blob: BlobId) -> Result<Vec<Version>> {
        crate::version_manager::VersionManager::pending_versions(self, blob)
    }
    fn delete_blob(&self, blob: BlobId) -> Result<Vec<NodeKey>> {
        crate::version_manager::VersionManager::delete_blob(self, blob)
    }
    fn collect_before(&self, blob: BlobId, keep_from: Version) -> Result<Vec<NodeKey>> {
        crate::version_manager::VersionManager::collect_before(self, blob, keep_from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_store::ProviderSet;
    use crate::dht::MetaDht;
    use crate::meta::key::Pos;
    use crate::meta::node::BlockDescriptor;
    use crate::stats::EngineStats;
    use crate::version_manager::VersionManager;
    use std::sync::Arc;

    #[test]
    fn traits_are_object_safe_and_delegate() {
        let store: Arc<dyn BlockStore> = Arc::new(ProviderSet::new(2, |i| NodeId::new(i as u64)));
        store
            .put(0, BlockId::new(1), Bytes::from_static(b"abc"))
            .unwrap();
        assert_eq!(store.get(0, BlockId::new(1)).unwrap().len(), 3);
        assert_eq!(store.layout_vector(), vec![1, 0]);
        assert_eq!(store.total_bytes_stored(), 3);
        assert_eq!(store.total_block_count(), 1);
        assert!(!store.is_empty());
        assert_eq!(store.node(1), NodeId::new(1));
        assert_eq!(store.index_of_node(NodeId::new(1)), Some(1));

        let meta: Arc<dyn MetaStore> = Arc::new(MetaDht::new(4, 1));
        let key = NodeKey::new(BlobId::new(1), Version::new(1), Pos::new(0, 1));
        meta.put(
            key,
            TreeNode::Leaf(BlockDescriptor {
                block_id: BlockId::new(9),
                providers: vec![0],
                len: 3,
            }),
        )
        .unwrap();
        assert!(meta.get(&key).is_ok());
        assert_eq!(meta.shard_count(), 4);
        assert_eq!(meta.node_count(), 1);

        let vm: Arc<dyn VersionService> =
            Arc::new(VersionManager::new(64, Arc::new(EngineStats::new())));
        let blob = vm.create_blob().unwrap();
        let t = vm.assign(blob, WriteIntent::Append { size: 64 }).unwrap();
        vm.commit(blob, t.version).unwrap();
        assert_eq!(vm.latest(blob).unwrap(), (Version::new(1), 64));
    }
}
