//! Version garbage collection (§III-A.1: past versions remain accessible
//! "at least as long as they have not been garbaged for the sake of storage
//! space").
//!
//! Subtree sharing means a tree node may be reachable from many snapshot
//! roots, so nodes are reference-counted:
//!
//! * publishing a tree node increments the refcount of every child it
//!   references (including "predicted" children that do not exist yet —
//!   counts are independent of DHT presence);
//! * committing a version registers one reference on its root;
//! * branching registers one reference on the branch point's root.
//!
//! Collecting a version drops its root reference and cascades: a node whose
//! count reaches zero is deleted from the DHT, its children are released,
//! and a deleted leaf deletes its data block from all replica providers
//! (blocks are owned by exactly one leaf — abort repair shares leaves via
//! aliases, never by duplicating descriptors).

use crate::exec::FanoutExecutor;
use crate::meta::key::NodeKey;
use crate::meta::node::TreeNode;
use crate::ports::{BlockStore, GcService, MetaStore, PlacementService};
use crate::sharded::{ShardedMap, DEFAULT_SHARDS};
use crate::stats::EngineStats;
use blobseer_types::{BlockId, Result};
use std::collections::HashMap;
use std::sync::Arc;

/// Outcome of a collection pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Metadata nodes deleted from the DHT.
    pub nodes_deleted: u64,
    /// Data blocks deleted from providers.
    pub blocks_deleted: u64,
    /// Payload bytes freed (primary copies; replicas add on top).
    pub bytes_freed: u64,
    /// Releases of nodes the tracker never counted a reference for. Each
    /// one is a refcount bug — a double release, or a publish that skipped
    /// its `inc_node` — and the node's subtree leaks (the release stops
    /// there instead of cascading). The seed `debug_assert!`ed here, so
    /// release builds hid these as silent permanent leaks; now they are
    /// counted and surfaced through `EngineStats::gc_untracked_releases`.
    pub untracked_releases: u64,
}

impl GcReport {
    /// Merges another report into this one.
    pub fn merge(&mut self, other: GcReport) {
        self.nodes_deleted += other.nodes_deleted;
        self.blocks_deleted += other.blocks_deleted;
        self.bytes_freed += other.bytes_freed;
        self.untracked_releases += other.untracked_releases;
    }
}

/// Reference counts for tree nodes. The map is the hot companion of the
/// tree store — every publish touches it for each child reference — so it
/// is lock-striped like the data/metadata maps.
#[derive(Debug)]
pub struct GcTracker {
    node_rc: ShardedMap<NodeKey, u64>,
}

impl Default for GcTracker {
    fn default() -> Self {
        Self {
            node_rc: ShardedMap::named(DEFAULT_SHARDS, "gc.node_rc"),
        }
    }
}

impl GcTracker {
    /// Fresh tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one reference to a node (child reference, root registration or
    /// branch registration). The node need not exist in the DHT yet.
    pub fn inc_node(&self, key: NodeKey) {
        *self.node_rc.shard_for(&key).write().entry(key).or_insert(0) += 1;
    }

    /// Current count (0 if never referenced) — for tests and diagnostics.
    pub fn node_count(&self, key: &NodeKey) -> u64 {
        self.node_rc.get_cloned(key).unwrap_or(0)
    }

    /// Number of tracked (non-zero) entries.
    pub fn tracked_nodes(&self) -> usize {
        self.node_rc.len()
    }

    /// Releases one reference on `root` and cascades deletion of every node
    /// and block that becomes unreachable. Works against any backend
    /// through the [`MetaStore`]/[`BlockStore`] ports.
    ///
    /// The cascade is level-synchronous and vectored: refcounts are
    /// decremented locally, then every node freed in one wave is fetched
    /// with a single [`MetaStore::get_many`], deleted with a single
    /// [`MetaStore::delete_many`], and the dead leaves' blocks are deleted
    /// with one [`BlockStore::delete_many`] per provider — issued
    /// concurrently through the deployment's fan-out executor — so
    /// collecting a whole version costs O(tree levels) round trips plus
    /// one *parallel* provider wave per level on a remote backend instead
    /// of O(nodes + blocks).
    pub fn release_root(
        &self,
        root: NodeKey,
        dht: &dyn MetaStore,
        providers: &Arc<dyn BlockStore>,
        pm: &dyn PlacementService,
        stats: &EngineStats,
        exec: &FanoutExecutor,
    ) -> Result<GcReport> {
        let mut report = GcReport::default();
        let mut frontier = vec![root];
        while !frontier.is_empty() {
            // Refcount wave: pure local bookkeeping, no backend calls.
            let mut freed: Vec<NodeKey> = Vec::new();
            for key in std::mem::take(&mut frontier) {
                let mut rc = self.node_rc.shard_for(&key).write();
                match rc.get_mut(&key) {
                    Some(c) if *c > 1 => *c -= 1,
                    Some(_) => {
                        rc.remove(&key);
                        freed.push(key);
                    }
                    None => {
                        // A refcount bug: nothing to release. Count it so
                        // the leak is observable in every build profile
                        // instead of a debug-only assert that release
                        // builds silently no-op'ed.
                        report.untracked_releases += 1;
                        EngineStats::add(&stats.gc_untracked_releases, 1);
                    }
                }
            }
            if freed.is_empty() {
                continue;
            }
            // The freed nodes are unreachable: fetch the wave to discover
            // children, then delete it and release what it referenced. A
            // failed fetch aborts the cascade after this wave (matching
            // the old node-at-a-time fail-fast), without deleting the
            // nodes it could not inspect.
            let mut fetched: Vec<(NodeKey, TreeNode)> = Vec::with_capacity(freed.len());
            let mut first_err = None;
            for (key, result) in freed.iter().zip(dht.get_many(&freed)) {
                match result {
                    Ok(node) => fetched.push((*key, node)),
                    Err(e) => {
                        first_err = Some(e);
                        break;
                    }
                }
            }
            let dead: Vec<NodeKey> = fetched.iter().map(|(k, _)| *k).collect();
            let _ = dht.delete_many(&dead);
            report.nodes_deleted += dead.len() as u64;
            EngineStats::add(&stats.meta_nodes_collected, dead.len() as u64);
            // One entry per replica of every dead leaf's block.
            let mut replicas: Vec<BlockId> = Vec::new();
            let mut targets: Vec<usize> = Vec::new();
            for (key, node) in fetched {
                match node {
                    TreeNode::Inner { left, right } => {
                        if let Some(r) = left {
                            frontier.push(NodeKey::new(r.blob, r.version, key.pos.left()));
                        }
                        if let Some(r) = right {
                            frontier.push(NodeKey::new(r.blob, r.version, key.pos.right()));
                        }
                    }
                    TreeNode::LeafAlias(target) => {
                        if let Some(r) = target {
                            frontier.push(NodeKey::new(r.blob, r.version, key.pos));
                        }
                    }
                    TreeNode::Leaf(desc) => {
                        report.blocks_deleted += 1;
                        EngineStats::add(&stats.blocks_collected, 1);
                        for &p in &desc.providers {
                            replicas.push(desc.block_id);
                            targets.push(p as usize);
                        }
                    }
                }
            }
            // One batched load release per wave — a single control frame
            // against a hosted placement service instead of one frame per
            // replica of every dead block.
            if !targets.is_empty() {
                pm.release_many(&targets)?;
            }
            let providers = Arc::clone(providers);
            let deleted = exec.scatter_gather(stats, &replicas, targets, move |p, ids| {
                providers.delete_many(p, ids)
            });
            // Bytes are counted once per block (primary copies): take the
            // max over replicas, treating an unreachable replica as 0 freed.
            let mut freed_of: HashMap<BlockId, u64> = HashMap::new();
            for (id, result) in replicas.into_iter().zip(deleted) {
                let n = freed_of.entry(id).or_insert(0);
                *n = (*n).max(result.unwrap_or(0));
            }
            report.bytes_freed += freed_of.values().sum::<u64>();
            if let Some(e) = first_err {
                return Err(e);
            }
        }
        Ok(report)
    }
}

/// Server-side host for the [`GcService`] port: a [`GcTracker`] wired to
/// the storage ports its cascades delete through. Deployments that keep
/// everything in one process embed a `GcHost` directly
/// (`client::deploy_ports` builds one when no external GC service is
/// given); an RPC cluster hosts one behind a `blobseer-rpc` server so all
/// client processes share a single, globally consistent refcount table.
pub struct GcHost {
    tracker: GcTracker,
    dht: Arc<dyn MetaStore>,
    providers: Arc<dyn BlockStore>,
    pm: Arc<dyn PlacementService>,
    stats: Arc<EngineStats>,
    exec: Arc<FanoutExecutor>,
}

impl std::fmt::Debug for GcHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GcHost")
            .field("tracker", &self.tracker)
            .finish_non_exhaustive()
    }
}

impl GcHost {
    /// Builds a host over the given storage and placement ports. Cascade
    /// deletions run through `exec`; deletion counters land on `stats`.
    pub fn new(
        dht: Arc<dyn MetaStore>,
        providers: Arc<dyn BlockStore>,
        pm: Arc<dyn PlacementService>,
        stats: Arc<EngineStats>,
        exec: Arc<FanoutExecutor>,
    ) -> Self {
        Self {
            tracker: GcTracker::new(),
            dht,
            providers,
            pm,
            stats,
            exec,
        }
    }
}

impl GcService for GcHost {
    fn inc_nodes(&self, keys: &[NodeKey]) -> Result<()> {
        for &key in keys {
            self.tracker.inc_node(key);
        }
        Ok(())
    }

    fn release_roots(&self, roots: &[NodeKey]) -> Result<GcReport> {
        let mut total = GcReport::default();
        for &root in roots {
            total.merge(self.tracker.release_root(
                root,
                self.dht.as_ref(),
                &self.providers,
                self.pm.as_ref(),
                &self.stats,
                &self.exec,
            )?);
        }
        Ok(total)
    }

    fn node_count(&self, key: &NodeKey) -> Result<u64> {
        Ok(self.tracker.node_count(key))
    }

    fn tracked_nodes(&self) -> Result<usize> {
        Ok(self.tracker.tracked_nodes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_store::ProviderSet;
    use crate::dht::MetaDht;
    use crate::meta::key::Pos;
    use crate::meta::node::{BlockDescriptor, NodeRef};
    use crate::provider_manager::ProviderManager;
    use blobseer_types::{BlobId, BlockId, NodeId, Version};
    use bytes::Bytes;

    struct Fixture {
        dht: MetaDht,
        providers: Arc<ProviderSet>,
        pm: ProviderManager,
        stats: EngineStats,
        gc: GcTracker,
        exec: FanoutExecutor,
    }

    fn fixture() -> Fixture {
        Fixture {
            dht: MetaDht::new(4, 1),
            providers: Arc::new(ProviderSet::new(2, |i| NodeId::new(i as u64))),
            pm: ProviderManager::new(2),
            stats: EngineStats::new(),
            gc: GcTracker::new(),
            exec: FanoutExecutor::new(2),
        }
    }

    impl Fixture {
        fn release(&self, root: NodeKey) -> Result<GcReport> {
            let providers: Arc<dyn BlockStore> = Arc::clone(&self.providers) as _;
            self.gc.release_root(
                root,
                &self.dht,
                &providers,
                &self.pm,
                &self.stats,
                &self.exec,
            )
        }
    }

    fn key(v: u64, start: u64, len: u64) -> NodeKey {
        NodeKey::new(BlobId::new(1), Version::new(v), Pos::new(start, len))
    }

    fn nref(v: u64) -> Option<NodeRef> {
        Some(NodeRef {
            blob: BlobId::new(1),
            version: Version::new(v),
        })
    }

    /// Builds: v1 root(0,2) → leaves (0,1) and (1,1); v2 root(0,2) → new
    /// leaf (0,1) and shares v1's (1,1).
    fn build_two_versions(f: &Fixture) {
        for (v, start, block) in [(1u64, 0u64, 10u64), (1, 1, 11), (2, 0, 12)] {
            let desc = BlockDescriptor {
                block_id: BlockId::new(block),
                providers: vec![0],
                len: 4,
            };
            let data = Bytes::from_static(b"data");
            f.providers.put(0, BlockId::new(block), data).unwrap();
            f.dht.put(key(v, start, 1), TreeNode::Leaf(desc)).unwrap();
        }
        f.dht
            .put(
                key(1, 0, 2),
                TreeNode::Inner {
                    left: nref(1),
                    right: nref(1),
                },
            )
            .unwrap();
        f.gc.inc_node(key(1, 0, 1));
        f.gc.inc_node(key(1, 1, 1));
        f.dht
            .put(
                key(2, 0, 2),
                TreeNode::Inner {
                    left: nref(2),
                    right: nref(1),
                },
            )
            .unwrap();
        f.gc.inc_node(key(2, 0, 1));
        f.gc.inc_node(key(1, 1, 1)); // shared leaf now rc=2
                                     // Root registrations.
        f.gc.inc_node(key(1, 0, 2));
        f.gc.inc_node(key(2, 0, 2));
    }

    #[test]
    fn collecting_old_version_keeps_shared_leaves() {
        let f = fixture();
        build_two_versions(&f);
        let report = f.release(key(1, 0, 2)).unwrap();
        // v1's root and its private leaf (0,1) die; the shared leaf (1,1)
        // survives with rc 1.
        assert_eq!(report.nodes_deleted, 2);
        assert_eq!(report.blocks_deleted, 1);
        assert!(f.dht.get(&key(1, 0, 2)).is_err());
        assert!(f.dht.get(&key(1, 0, 1)).is_err());
        assert!(f.dht.get(&key(1, 1, 1)).is_ok(), "shared leaf must survive");
        assert!(f.providers.get(0).contains(BlockId::new(11)));
        assert!(!f.providers.get(0).contains(BlockId::new(10)));
        // v2 still fully intact.
        assert!(f.dht.get(&key(2, 0, 2)).is_ok());
        assert!(f.dht.get(&key(2, 0, 1)).is_ok());
    }

    #[test]
    fn collecting_both_versions_empties_everything() {
        let f = fixture();
        build_two_versions(&f);
        let mut total = GcReport::default();
        total.merge(f.release(key(1, 0, 2)).unwrap());
        total.merge(f.release(key(2, 0, 2)).unwrap());
        assert_eq!(total.nodes_deleted, 5, "2 roots + 3 leaves");
        assert_eq!(total.blocks_deleted, 3);
        assert_eq!(total.bytes_freed, 12);
        assert_eq!(f.dht.node_count(), 0);
        assert_eq!(f.providers.get(0).block_count(), 0);
        assert_eq!(f.gc.tracked_nodes(), 0);
        assert_eq!(f.stats.snapshot().meta_nodes_collected, 5);
        assert_eq!(f.stats.snapshot().blocks_collected, 3);
    }

    #[test]
    fn untracked_release_is_counted_not_silent() {
        let f = fixture();
        build_two_versions(&f);
        // Releasing a root the tracker never heard of must not panic, must
        // not touch healthy state, and must be visible in the report and
        // the engine counters (the seed's debug_assert no-op'ed in release
        // builds, hiding the refcount bug as a permanent leak).
        let bogus = key(9, 0, 2);
        let report = f.release(bogus).unwrap();
        assert_eq!(report.untracked_releases, 1);
        assert_eq!(report.nodes_deleted, 0);
        assert_eq!(f.stats.snapshot().gc_untracked_releases, 1);
        assert_eq!(f.dht.node_count(), 5, "healthy metadata untouched");
        // A double release of a real root: the first pass frees it, the
        // second is untracked and counted.
        f.release(key(1, 0, 2)).unwrap();
        let report = f.release(key(1, 0, 2)).unwrap();
        assert_eq!(report.untracked_releases, 1);
        assert_eq!(f.stats.snapshot().gc_untracked_releases, 2);
        // Reports merge the new counter too.
        let mut total = GcReport::default();
        total.merge(report);
        assert_eq!(total.untracked_releases, 1);
    }

    #[test]
    fn gc_host_serves_the_port_end_to_end() {
        // The same two-version scenario, but driven exclusively through the
        // GcService port of a GcHost (the shape a hosted deployment uses).
        let dht = Arc::new(MetaDht::new(4, 1));
        let providers = Arc::new(ProviderSet::new(2, |i| NodeId::new(i as u64)));
        let pm = Arc::new(ProviderManager::new(2));
        let stats = Arc::new(EngineStats::new());
        let host = GcHost::new(
            Arc::clone(&dht) as Arc<dyn MetaStore>,
            Arc::clone(&providers) as Arc<dyn BlockStore>,
            Arc::clone(&pm) as Arc<dyn PlacementService>,
            Arc::clone(&stats),
            Arc::new(FanoutExecutor::new(2)),
        );
        let desc = BlockDescriptor {
            block_id: BlockId::new(30),
            providers: vec![0],
            len: 4,
        };
        let data = Bytes::from_static(b"data");
        providers.put(0, BlockId::new(30), data).unwrap();
        dht.put(key(1, 0, 1), TreeNode::Leaf(desc)).unwrap();
        host.inc_nodes(&[key(1, 0, 1)]).unwrap();
        assert_eq!(host.node_count(&key(1, 0, 1)).unwrap(), 1);
        assert_eq!(host.tracked_nodes().unwrap(), 1);
        let report = host.release_roots(&[key(1, 0, 1)]).unwrap();
        assert_eq!(report.nodes_deleted, 1);
        assert_eq!(report.blocks_deleted, 1);
        assert_eq!(report.bytes_freed, 4);
        assert_eq!(host.tracked_nodes().unwrap(), 0);
        assert!(!providers.get(0).contains(BlockId::new(30)));
        assert_eq!(stats.snapshot().blocks_collected, 1);
    }

    #[test]
    fn bare_tracker_refuses_to_cascade() {
        let gc = GcTracker::new();
        let svc: &dyn GcService = &gc;
        svc.inc_nodes(&[key(1, 0, 1), key(1, 1, 1)]).unwrap();
        assert_eq!(svc.node_count(&key(1, 0, 1)).unwrap(), 1);
        let err = svc.release_roots(&[key(1, 0, 1)]).unwrap_err();
        assert!(matches!(err, blobseer_types::Error::Internal(_)), "{err}");
    }

    #[test]
    fn alias_release_cascades_to_target() {
        let f = fixture();
        // Leaf of v1 (rc: alias + root of v1).
        let desc = BlockDescriptor {
            block_id: BlockId::new(20),
            providers: vec![1],
            len: 4,
        };
        let data = Bytes::from_static(b"xyzw");
        f.providers.put(1, BlockId::new(20), data).unwrap();
        f.dht.put(key(1, 0, 1), TreeNode::Leaf(desc)).unwrap();
        f.gc.inc_node(key(1, 0, 1)); // referenced as v1 root below
                                     // v2 repairs with an alias to v1's leaf.
        f.dht
            .put(key(2, 0, 1), TreeNode::LeafAlias(nref(1)))
            .unwrap();
        f.gc.inc_node(key(1, 0, 1)); // alias reference
        f.gc.inc_node(key(2, 0, 1)); // v2 root registration (leaf is root here)

        // Release v2: the alias dies, v1's leaf survives (still v1's root).
        f.release(key(2, 0, 1)).unwrap();
        assert!(f.dht.get(&key(1, 0, 1)).is_ok());
        assert!(f.providers.get(1).contains(BlockId::new(20)));
        // Release v1: everything goes.
        f.release(key(1, 0, 1)).unwrap();
        assert!(f.dht.get(&key(1, 0, 1)).is_err());
        assert!(!f.providers.get(1).contains(BlockId::new(20)));
    }
}
