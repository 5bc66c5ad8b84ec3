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
//! The backends behind them: the **in-memory** structs
//! ([`crate::block_store::ProviderSet`], [`crate::dht::MetaDht`],
//! [`crate::version_manager::VersionManager`], lock-striped, see
//! [`crate::sharded`]); the **disk** stores of `blobseer-disk`; and the
//! **TCP RPC** adapters of `blobseer-rpc`, which take every trait call over
//! real sockets to separate server processes — the paper's "communicate
//! through remote procedure calls" (§III-B) — with every
//! [`blobseer_types::Error`] variant surviving the wire round-trip.
//!
//! A store is decorated through [`Hooked`], the one forwarding impl of
//! each store port: it passes every call to the store it wraps, the I/O
//! through a [`BlockHook`] or [`MetaHook`] that overrides only what it
//! intercepts — fault injection ([`crate::faults`]), the figures'
//! SimGate charging.
//!
//! A passive port rides along: [`ProtocolObserver`] receives a
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
//! Everything here is object-safe on purpose: a deployment wires its
//! ports as `Arc<dyn …>`, and the protocol code never names a backend.

#![warn(missing_docs)]

use crate::gc::GcReport;
use crate::meta::key::NodeKey;
use crate::meta::log::LogChain;
use crate::meta::node::TreeNode;
use crate::provider_manager::BlockAllocation;
use crate::version_manager::{SnapshotInfo, WriteIntent, WriteTicket};
use blobseer_types::{BlobId, BlockId, Error, NodeId, Result, Version};
use bytes::Bytes;
use std::sync::Arc;
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
    /// which an item failed — so local backends and the hooks of fault
    /// injection and SimGate charging ([`MetaHook`]) see exactly the calls a
    /// level-by-level publish makes, and a failed publish leaves the
    /// shallower levels unwritten.
    fn put_levels(&self, levels: &[Vec<(NodeKey, TreeNode)>]) -> Vec<Vec<Result<()>>> {
        level_by_level(levels, |level| self.put_many(level))
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
    /// hooks that must preserve their inner call structure (the SimGate
    /// charging hook's cost model counts `put_many` calls).
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

/// The sequential publish of both `put_levels` defaults: one `put_many`
/// per level, stopping after the first level in which an item failed.
fn level_by_level(
    levels: &[Vec<(NodeKey, TreeNode)>],
    mut put_many: impl FnMut(&[(NodeKey, TreeNode)]) -> Vec<Result<()>>,
) -> Vec<Vec<Result<()>>> {
    let mut attempted = Vec::with_capacity(levels.len());
    for level in levels {
        let results = put_many(level);
        let failed = results.iter().any(Result::is_err);
        attempted.push(results);
        if failed {
            break;
        }
    }
    attempted
}

/// A store with a hook on its I/O: `Hooked<Arc<dyn BlockStore>, H>` is a
/// [`BlockStore`], `Hooked<Arc<dyn MetaStore>, H>` a [`MetaStore`]. Every
/// call is forwarded to the wrapped store, the vectored I/O (and so the
/// single-item calls) through the hook.
pub struct Hooked<P, H> {
    pub(crate) inner: P,
    /// The hook, for the state a caller arms or reads back.
    pub hook: H,
}

impl<P, H> Hooked<P, H> {
    /// Decorates `inner` with `hook`.
    pub fn new(inner: P, hook: H) -> Self {
        Self { inner, hook }
    }
}

/// The I/O hook of a [`Hooked`] block store. Each method is handed the
/// wrapped store and defaults to passing the call on unchanged.
pub trait BlockHook: Send + Sync {
    /// Intercepts [`BlockStore::put_many`].
    fn put_many(
        &self,
        inner: &dyn BlockStore,
        provider: usize,
        items: &[(BlockId, Bytes)],
    ) -> Vec<Result<()>> {
        inner.put_many(provider, items)
    }
    /// Intercepts [`BlockStore::get_many`].
    fn get_many(
        &self,
        inner: &dyn BlockStore,
        provider: usize,
        ids: &[BlockId],
    ) -> Vec<Result<Bytes>> {
        inner.get_many(provider, ids)
    }
    /// Intercepts [`BlockStore::delete_many`].
    fn delete_many(
        &self,
        inner: &dyn BlockStore,
        provider: usize,
        ids: &[BlockId],
    ) -> Vec<Result<u64>> {
        inner.delete_many(provider, ids)
    }
}

/// The I/O hook of a [`Hooked`] metadata store, handed the wrapped store.
/// Calls pass on by default; `put_levels` runs level by level through the
/// hook's `put_many`, and `fanout_shard` is 0 (one batch per tree level).
pub trait MetaHook: Send + Sync {
    /// Intercepts [`MetaStore::put_many`].
    fn put_many(&self, inner: &dyn MetaStore, items: &[(NodeKey, TreeNode)]) -> Vec<Result<()>> {
        inner.put_many(items)
    }
    /// Intercepts [`MetaStore::get_many`].
    fn get_many(&self, inner: &dyn MetaStore, keys: &[NodeKey]) -> Vec<Result<TreeNode>> {
        inner.get_many(keys)
    }
    /// Intercepts [`MetaStore::delete_many`].
    fn delete_many(&self, inner: &dyn MetaStore, keys: &[NodeKey]) -> Vec<Result<bool>> {
        inner.delete_many(keys)
    }
    /// Intercepts [`MetaStore::put_levels`].
    fn put_levels(
        &self,
        inner: &dyn MetaStore,
        levels: &[Vec<(NodeKey, TreeNode)>],
    ) -> Vec<Vec<Result<()>>> {
        level_by_level(levels, |level| self.put_many(inner, level))
    }
    /// Answers [`MetaStore::fanout_shard`].
    fn fanout_shard(&self, _inner: &dyn MetaStore, _key: &NodeKey) -> usize {
        0
    }
}

impl<H: BlockHook> BlockStore for Hooked<Arc<dyn BlockStore>, H> {
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn node(&self, provider: usize) -> NodeId {
        self.inner.node(provider)
    }
    fn index_of_node(&self, node: NodeId) -> Option<usize> {
        self.inner.index_of_node(node)
    }
    fn put_many(&self, provider: usize, items: &[(BlockId, Bytes)]) -> Vec<Result<()>> {
        self.hook.put_many(&*self.inner, provider, items)
    }
    fn get_many(&self, provider: usize, ids: &[BlockId]) -> Vec<Result<Bytes>> {
        self.hook.get_many(&*self.inner, provider, ids)
    }
    fn delete_many(&self, provider: usize, ids: &[BlockId]) -> Vec<Result<u64>> {
        self.hook.delete_many(&*self.inner, provider, ids)
    }
    fn contains(&self, provider: usize, id: BlockId) -> bool {
        self.inner.contains(provider, id)
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
    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
    fn layout_vector(&self) -> Vec<u64> {
        self.inner.layout_vector()
    }
    fn total_block_count(&self) -> usize {
        self.inner.total_block_count()
    }
    fn total_bytes_stored(&self) -> u64 {
        self.inner.total_bytes_stored()
    }
}

impl<H: MetaHook> MetaStore for Hooked<Arc<dyn MetaStore>, H> {
    fn put_many(&self, items: &[(NodeKey, TreeNode)]) -> Vec<Result<()>> {
        self.hook.put_many(&*self.inner, items)
    }
    fn get_many(&self, keys: &[NodeKey]) -> Vec<Result<TreeNode>> {
        self.hook.get_many(&*self.inner, keys)
    }
    fn delete_many(&self, keys: &[NodeKey]) -> Vec<Result<bool>> {
        self.hook.delete_many(&*self.inner, keys)
    }
    fn put_levels(&self, levels: &[Vec<(NodeKey, TreeNode)>]) -> Vec<Vec<Result<()>>> {
        self.hook.put_levels(&*self.inner, levels)
    }
    fn fanout_shard(&self, key: &NodeKey) -> usize {
        self.hook.fanout_shard(&*self.inner, key)
    }
    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }
    fn shard_stats(&self) -> Vec<(usize, u64, u64)> {
        self.inner.shard_stats()
    }
    fn crash_shard(&self, shard: usize) {
        self.inner.crash_shard(shard)
    }
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

    /// Asks to add a provider hosted on `node`. Refused with
    /// [`Error::Unsupported`]: data providers are fixed at
    /// boot, and every block store is sized to that set, so a provider
    /// added later would be placed on but served by no store.
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
    fn register_provider(&self, _node: NodeId) -> Result<usize> {
        Err(Error::Unsupported(
            "register_provider: data providers are fixed at boot",
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
    /// impl exists so refcount-only contexts (unit fixtures)
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
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A store whose every non-I/O method answers its own sentinel.
    #[derive(Default)]
    struct Sentinels {
        crashed: AtomicUsize,
    }

    impl BlockStore for Sentinels {
        fn len(&self) -> usize {
            3
        }
        fn node(&self, provider: usize) -> NodeId {
            NodeId::new(100 + provider as u64)
        }
        fn index_of_node(&self, node: NodeId) -> Option<usize> {
            Some(node.raw() as usize + 7)
        }
        fn put_many(&self, _: usize, _: &[(BlockId, Bytes)]) -> Vec<Result<()>> {
            Vec::new()
        }
        fn get_many(&self, _: usize, _: &[BlockId]) -> Vec<Result<Bytes>> {
            Vec::new()
        }
        fn delete_many(&self, _: usize, _: &[BlockId]) -> Vec<Result<u64>> {
            Vec::new()
        }
        fn contains(&self, provider: usize, id: BlockId) -> bool {
            provider == 2 && id == BlockId::new(5)
        }
        fn block_count(&self, provider: usize) -> usize {
            10 + provider
        }
        fn bytes_stored(&self, provider: usize) -> u64 {
            1000 + provider as u64
        }
        fn op_counts(&self, provider: usize) -> (u64, u64) {
            (20 + provider as u64, 30 + provider as u64)
        }
        fn is_empty(&self) -> bool {
            true
        }
        fn layout_vector(&self) -> Vec<u64> {
            vec![4, 5]
        }
        fn total_block_count(&self) -> usize {
            61
        }
        fn total_bytes_stored(&self) -> u64 {
            62
        }
    }

    impl MetaStore for Sentinels {
        fn put_many(&self, _: &[(NodeKey, TreeNode)]) -> Vec<Result<()>> {
            Vec::new()
        }
        fn get_many(&self, _: &[NodeKey]) -> Vec<Result<TreeNode>> {
            Vec::new()
        }
        fn delete_many(&self, _: &[NodeKey]) -> Vec<Result<bool>> {
            Vec::new()
        }
        fn fanout_shard(&self, _: &NodeKey) -> usize {
            9
        }
        fn shard_count(&self) -> usize {
            71
        }
        fn node_count(&self) -> usize {
            72
        }
        fn shard_stats(&self) -> Vec<(usize, u64, u64)> {
            vec![(73, 74, 75)]
        }
        fn crash_shard(&self, shard: usize) {
            self.crashed.store(shard, Ordering::SeqCst);
        }
    }

    /// A hook that overrides nothing.
    struct PassThrough;
    impl BlockHook for PassThrough {}
    impl MetaHook for PassThrough {}

    fn key(pos: u64) -> NodeKey {
        NodeKey::new(BlobId::new(1), Version::new(1), Pos::new(pos, 1))
    }

    #[test]
    fn hooked_forwards_every_non_io_method() {
        let sentinels = Arc::new(Sentinels::default());
        let blocks = Hooked::new(Arc::clone(&sentinels) as Arc<dyn BlockStore>, PassThrough);
        assert_eq!(blocks.len(), 3);
        assert_eq!(blocks.node(2), NodeId::new(102));
        assert_eq!(blocks.index_of_node(NodeId::new(1)), Some(8));
        assert!(blocks.contains(2, BlockId::new(5)) && !blocks.contains(1, BlockId::new(5)));
        assert_eq!(blocks.block_count(1), 11);
        assert_eq!(blocks.bytes_stored(1), 1001);
        assert_eq!(blocks.op_counts(1), (21, 31));
        assert!(blocks.is_empty());
        assert_eq!(blocks.layout_vector(), vec![4, 5]);
        assert_eq!(blocks.total_block_count(), 61);
        assert_eq!(blocks.total_bytes_stored(), 62);
        let meta = Hooked::new(Arc::clone(&sentinels) as Arc<dyn MetaStore>, PassThrough);
        assert_eq!(meta.shard_count(), 71);
        assert_eq!(meta.node_count(), 72);
        assert_eq!(meta.shard_stats(), vec![(73, 74, 75)]);
        meta.crash_shard(76);
        assert_eq!(sentinels.crashed.load(Ordering::SeqCst), 76);
    }

    /// The default `fanout_shard` is 0, whatever the wrapped store says:
    /// the client sends a hooked store one batch per tree level.
    #[test]
    fn hooked_fanout_shard_defaults_to_zero() {
        let meta = Hooked::new(
            Arc::new(Sentinels::default()) as Arc<dyn MetaStore>,
            PassThrough,
        );
        assert_eq!(meta.inner.fanout_shard(&key(0)), 9);
        assert_eq!(meta.fanout_shard(&key(0)), 0);
    }

    /// Counts its `put_many` calls and refuses every item of the second.
    struct FailSecondLevel(AtomicUsize);

    impl MetaHook for FailSecondLevel {
        fn put_many(
            &self,
            inner: &dyn MetaStore,
            items: &[(NodeKey, TreeNode)],
        ) -> Vec<Result<()>> {
            if self.0.fetch_add(1, Ordering::SeqCst) == 1 {
                return items
                    .iter()
                    .map(|_| Err(Error::Internal("refused".into())))
                    .collect();
            }
            inner.put_many(items)
        }
    }

    /// The default `put_levels` sends each level through the hook's own
    /// `put_many`, deepest first, and stops after the first failing level.
    #[test]
    fn hooked_put_levels_runs_level_by_level_through_the_hook() {
        let hook = FailSecondLevel(AtomicUsize::new(0));
        let meta = Hooked::new(Arc::new(MetaDht::new(4, 1)) as Arc<dyn MetaStore>, hook);
        let level = |pos: &[u64]| {
            pos.iter()
                .map(|&p| (key(p), TreeNode::LeafAlias(None)))
                .collect()
        };
        let attempted = meta.put_levels(&[level(&[0, 1]), level(&[2]), level(&[3])]);
        assert_eq!(meta.hook.0.load(Ordering::SeqCst), 2);
        assert_eq!(
            attempted.len(),
            2,
            "the level after the failed one is not tried"
        );
        assert!(attempted[0].iter().all(Result::is_ok) && attempted[1][0].is_err());
        assert_eq!(meta.node_count(), 2, "only the first level landed");
    }

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
