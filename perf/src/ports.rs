//! Benchmark-owned decorators around each `Arc<dyn Port>`: every call is
//! forwarded unchanged and, inside a timed op, recorded as a span plus
//! call/item/byte/time aggregates ([`Trace::port_call`]). They are wired
//! through `EnginePorts`/`BlobSeer::deploy_ports` — the extension point the
//! engine documents for exactly this — so no product source changes.
//!
//! Every trait method is forwarded explicitly, defaults included: a default
//! that is silently *not* forwarded (`MetaStore::fanout_shard`,
//! `BlockStore::layout_vector`) would change what the engine does, and the
//! traced run must do the same work as the untraced one.

use crate::trace::{DeployCtx, PortCall, Trace};
use blobseer_core::gc::GcReport;
use blobseer_core::meta::key::NodeKey;
use blobseer_core::meta::log::LogChain;
use blobseer_core::meta::node::TreeNode;
use blobseer_core::ports::{BlockStore, GcService, MetaStore, PlacementService, VersionService};
use blobseer_core::provider_manager::BlockAllocation;
use blobseer_core::version_manager::{SnapshotInfo, WriteIntent, WriteTicket};
use blobseer_core::EnginePorts;
use blobseer_types::wire::WireWriter;
use blobseer_types::{BlobId, BlockId, NodeId, Result, Version};
use bytes::Bytes;
use std::sync::Arc;
use std::time::Duration;

/// One port adapter with the trace and the deployment context its calls
/// are attributed through.
pub struct Timed<P: ?Sized> {
    inner: Arc<P>,
    trace: Arc<Trace>,
    ctx: Arc<DeployCtx>,
}

impl<P: ?Sized> Timed<P> {
    fn call<R>(
        &self,
        call: PortCall,
        f: impl FnOnce(&P) -> R,
        measure: impl FnOnce(&R) -> (u64, u64),
    ) -> R {
        self.trace
            .port_call(&self.ctx, call, || f(&self.inner), measure)
    }

    /// A call that carries one item and no payload worth counting.
    fn call1<R>(&self, call: PortCall, f: impl FnOnce(&P) -> R) -> R {
        self.call(call, f, |_| (1, 0))
    }
}

/// Wraps every port of `ports` and installs the trace as the deployment's
/// protocol observer. Returns the context the deployment's [`OpTimer`]
/// announces its ops through.
///
/// `gc: None` (in-memory deployments) stays `None`: `deploy_ports` then
/// builds the deployment-private GC host over the wrapped stores, and its
/// refcount calls — plain map updates in process — count as publish-phase
/// self time instead of `gc.*`.
///
/// [`OpTimer`]: crate::trace::OpTimer
pub fn instrument(ports: EnginePorts, trace: &Arc<Trace>) -> (EnginePorts, Arc<DeployCtx>) {
    let ctx = Arc::new(DeployCtx::default());
    fn wrap<P: ?Sized>(inner: Arc<P>, trace: &Arc<Trace>, ctx: &Arc<DeployCtx>) -> Arc<Timed<P>> {
        Arc::new(Timed {
            inner,
            trace: Arc::clone(trace),
            ctx: Arc::clone(ctx),
        })
    }
    let instrumented = EnginePorts {
        providers: wrap(ports.providers, trace, &ctx),
        dht: wrap(ports.dht, trace, &ctx),
        vm: wrap(ports.vm, trace, &ctx),
        pm: wrap(ports.pm, trace, &ctx),
        gc: ports
            .gc
            .map(|gc| wrap(gc, trace, &ctx) as Arc<dyn GcService>),
        stats: ports.stats,
        observer: Arc::clone(trace) as _,
    };
    (instrumented, ctx)
}

fn ok_bytes(results: &[Result<Bytes>]) -> (u64, u64) {
    let bytes = results
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .map(|b| b.len() as u64)
        .sum();
    (results.len() as u64, bytes)
}

impl BlockStore for Timed<dyn BlockStore> {
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn node(&self, provider: usize) -> NodeId {
        self.inner.node(provider)
    }
    fn index_of_node(&self, node: NodeId) -> Option<usize> {
        self.inner.index_of_node(node)
    }
    fn put(&self, provider: usize, id: BlockId, data: Bytes) -> Result<()> {
        let bytes = data.len() as u64;
        self.call(
            PortCall::BlockPut,
            |p| p.put(provider, id, data),
            |_| (1, bytes),
        )
    }
    fn get(&self, provider: usize, id: BlockId) -> Result<Bytes> {
        self.call(
            PortCall::BlockGet,
            |p| p.get(provider, id),
            |r| (1, r.as_ref().map_or(0, |b| b.len() as u64)),
        )
    }
    fn contains(&self, provider: usize, id: BlockId) -> bool {
        self.inner.contains(provider, id)
    }
    fn delete(&self, provider: usize, id: BlockId) -> Result<u64> {
        self.call1(PortCall::BlockDelete, |p| p.delete(provider, id))
    }
    fn put_many(&self, provider: usize, items: &[(BlockId, Bytes)]) -> Vec<Result<()>> {
        let bytes = items.iter().map(|(_, b)| b.len() as u64).sum();
        self.call(
            PortCall::BlockPut,
            |p| p.put_many(provider, items),
            |_| (items.len() as u64, bytes),
        )
    }
    fn get_many(&self, provider: usize, ids: &[BlockId]) -> Vec<Result<Bytes>> {
        self.call(
            PortCall::BlockGet,
            |p| p.get_many(provider, ids),
            |r| ok_bytes(r),
        )
    }
    fn delete_many(&self, provider: usize, ids: &[BlockId]) -> Vec<Result<u64>> {
        self.call(
            PortCall::BlockDelete,
            |p| p.delete_many(provider, ids),
            |_| (ids.len() as u64, 0),
        )
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

impl MetaStore for Timed<dyn MetaStore> {
    fn put(&self, key: NodeKey, node: TreeNode) -> Result<()> {
        self.call1(PortCall::MetaPut, |p| p.put(key, node))
    }
    fn get(&self, key: &NodeKey) -> Result<TreeNode> {
        self.call1(PortCall::MetaGet, |p| p.get(key))
    }
    fn delete(&self, key: &NodeKey) -> bool {
        self.call1(PortCall::MetaDelete, |p| p.delete(key))
    }
    fn put_many(&self, items: &[(NodeKey, TreeNode)]) -> Vec<Result<()>> {
        self.call(
            PortCall::MetaPut,
            |p| p.put_many(items),
            |_| (items.len() as u64, 0),
        )
    }
    fn get_many(&self, keys: &[NodeKey]) -> Vec<Result<TreeNode>> {
        self.call(
            PortCall::MetaGet,
            |p| p.get_many(keys),
            |_| (keys.len() as u64, 0),
        )
    }
    fn delete_many(&self, keys: &[NodeKey]) -> Vec<Result<bool>> {
        self.call(
            PortCall::MetaDelete,
            |p| p.delete_many(keys),
            |_| (keys.len() as u64, 0),
        )
    }
    fn fanout_shard(&self, key: &NodeKey) -> usize {
        self.inner.fanout_shard(key)
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

/// Wire size of a ticket as `RpcVersionService` would receive it.
pub fn ticket_wire_bytes(ticket: &WriteTicket) -> u64 {
    let mut w = WireWriter::new();
    blobseer_rpc::wire::put_write_ticket(&mut w, ticket);
    w.as_slice().len() as u64
}

impl VersionService for Timed<dyn VersionService> {
    fn block_size(&self) -> u64 {
        self.inner.block_size()
    }
    fn create_blob(&self) -> Result<BlobId> {
        self.call1(PortCall::VmOther, |p| p.create_blob())
    }
    fn branch(&self, parent: BlobId, at: Version) -> Result<BlobId> {
        self.call1(PortCall::VmOther, |p| p.branch(parent, at))
    }
    fn assign(&self, blob: BlobId, intent: WriteIntent) -> Result<WriteTicket> {
        let sample = self.trace.sample_ticket();
        let ticket = self.call1(PortCall::VmAssign, |p| p.assign(blob, intent));
        if let (true, Ok(ticket)) = (sample, &ticket) {
            self.trace.add_ticket_bytes(ticket_wire_bytes(ticket));
        }
        ticket
    }
    fn commit(&self, blob: BlobId, version: Version) -> Result<()> {
        self.call1(PortCall::VmCommit, |p| p.commit(blob, version))
    }
    fn latest(&self, blob: BlobId) -> Result<(Version, u64)> {
        self.call1(PortCall::VmLatest, |p| p.latest(blob))
    }
    fn snapshot_info(&self, blob: BlobId, version: Version) -> Result<SnapshotInfo> {
        self.call1(PortCall::VmLatest, |p| p.snapshot_info(blob, version))
    }
    fn chain(&self, blob: BlobId) -> Result<LogChain> {
        self.call1(PortCall::VmOther, |p| p.chain(blob))
    }
    fn wait_revealed(&self, blob: BlobId, version: Version, timeout: Duration) -> Result<()> {
        self.call1(PortCall::VmOther, |p| {
            p.wait_revealed(blob, version, timeout)
        })
    }
    fn pending_versions(&self, blob: BlobId) -> Result<Vec<Version>> {
        self.inner.pending_versions(blob)
    }
    fn delete_blob(&self, blob: BlobId) -> Result<Vec<NodeKey>> {
        self.call1(PortCall::VmOther, |p| p.delete_blob(blob))
    }
    fn collect_before(&self, blob: BlobId, keep_from: Version) -> Result<Vec<NodeKey>> {
        self.call1(PortCall::VmOther, |p| p.collect_before(blob, keep_from))
    }
}

impl PlacementService for Timed<dyn PlacementService> {
    fn provider_count(&self) -> usize {
        self.inner.provider_count()
    }
    fn allocate(&self, n_blocks: usize, replication: usize) -> Result<Vec<BlockAllocation>> {
        self.call(
            PortCall::PlacementAllocate,
            |p| p.allocate(n_blocks, replication),
            |_| (n_blocks as u64, 0),
        )
    }
    fn release_many(&self, providers: &[usize]) -> Result<()> {
        self.call(
            PortCall::PlacementOther,
            |p| p.release_many(providers),
            |_| (providers.len() as u64, 0),
        )
    }
    fn load_vector(&self) -> Result<Vec<u64>> {
        self.inner.load_vector()
    }
    fn register_provider(&self, node: NodeId) -> Result<usize> {
        self.inner.register_provider(node)
    }
    fn heartbeat(&self, provider: usize) -> Result<u64> {
        self.inner.heartbeat(provider)
    }
}

impl GcService for Timed<dyn GcService> {
    fn inc_nodes(&self, keys: &[NodeKey]) -> Result<()> {
        self.call(
            PortCall::GcInc,
            |p| p.inc_nodes(keys),
            |_| (keys.len() as u64, 0),
        )
    }
    fn release_roots(&self, roots: &[NodeKey]) -> Result<GcReport> {
        self.call(
            PortCall::GcRelease,
            |p| p.release_roots(roots),
            |_| (roots.len() as u64, 0),
        )
    }
    fn node_count(&self, key: &NodeKey) -> Result<u64> {
        self.inner.node_count(key)
    }
    fn tracked_nodes(&self) -> Result<usize> {
        self.inner.tracked_nodes()
    }
}
