//! Building and traversing the versioned distributed segment trees.
//!
//! **Publishing** (§III-D): after the data blocks are stored and the version
//! manager assigned a version number, the writer generates the tree nodes
//! that its write materializes (see `meta::log` for the rule) and weaves
//! them with existing metadata: every child outside the written range is a
//! *reference* to the latest lower version materializing that position —
//! computed purely from the write log, so references to still-in-flight
//! concurrent writers work ("the client is able to predict the values
//! corresponding to the metadata that is being written", §III-D). The
//! positions woven are the write's *border* (`meta::log`), and their
//! answers are all the build takes from the ticket's chain.
//!
//! The nodes of one version then go out **in parallel** (§III-D), through
//! [`MetaStore::put_levels`]. No ordering between them protects anything a
//! reader can see: no reader touches version *v*'s nodes before *v* is
//! revealed, reveal follows commit, commit follows the whole publish;
//! later writers weave *keys* of *v* without reading them; child refcounts
//! are taken before the first put; and an abort repair re-puts every
//! position, force-replacing what the aborted attempt left.
//!
//! **Reading** (§III-C): descend from the root of the requested snapshot,
//! following child references across versions, visiting only subtrees that
//! intersect the requested range, and collect leaf block descriptors.

use super::key::{BlockRange, NodeKey, Pos};
use super::log::{Border, LogChain, LogEntry};
use super::node::{BlockDescriptor, NodeRef, TreeNode};
use crate::exec::FanoutExecutor;
use crate::ports::{GcService, MetaStore};
use crate::sharded::group_indices_by;
use crate::stats::EngineStats;
use blobseer_types::{BlobId, Error, Result, Version};
use std::collections::HashMap;
use std::sync::Arc;

/// A located block within a snapshot: its index and the descriptor of the
/// stored block covering it (`None` = never-written hole, reads as zeros).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LocatedBlock {
    /// Block index within the BLOB.
    pub index: u64,
    /// Descriptor, or `None` for a hole.
    pub desc: Option<BlockDescriptor>,
}

/// How to populate the leaves a write materializes.
enum LeafMode<'a> {
    /// Normal write: leaves carry the freshly stored blocks.
    Blocks(&'a HashMap<u64, BlockDescriptor>),
    /// Abort repair: leaves alias the previous version's leaves, restoring
    /// prior content without any data movement.
    Repair,
}

/// Per-publish state threaded through the [`TreeStore::build`] recursion:
/// what is being published, and the per-depth node batches it produces.
struct BuildCx<'a, 'b> {
    blob: BlobId,
    entry: &'a LogEntry,
    /// Where the tree is woven into older versions, and to which.
    border: Border,
    /// The history, consulted directly only for repair's alias targets.
    chain: &'a LogChain,
    mode: &'a LeafMode<'b>,
    levels: Vec<Vec<(NodeKey, TreeNode)>>,
    /// GC child references the build discovers, registered with a single
    /// batched [`GcService::inc_nodes`] call (one control frame against a
    /// hosted refcount service instead of one per reference).
    incs: Vec<NodeKey>,
}

/// Metadata operations bound to one deployment's metadata backend (any
/// [`MetaStore`] adapter), GC service, stats and fan-out executor.
#[derive(Clone, Copy)]
pub struct TreeStore<'a> {
    pub dht: &'a Arc<dyn MetaStore>,
    pub gc: &'a Arc<dyn GcService>,
    pub stats: &'a EngineStats,
    pub exec: &'a FanoutExecutor,
}

impl<'a> TreeStore<'a> {
    /// One level's vectored put, fanned out across the backend's
    /// independently reachable DHT shards ([`MetaStore::fanout_shard`];
    /// single-endpoint backends keep exactly one `put_many` per level).
    /// Results come back in input order.
    fn put_level(&self, level: &[(NodeKey, TreeNode)]) -> Vec<Result<()>> {
        let groups = group_indices_by(level.iter().map(|(key, _)| *key), |key| {
            self.dht.fanout_shard(key)
        });
        self.stats.record_fanout(groups.len());
        if groups.len() <= 1 {
            return self.dht.put_many(level);
        }
        let jobs: Vec<_> = groups
            .iter()
            .map(|(_, indices)| {
                let dht = Arc::clone(self.dht);
                let items: Vec<(NodeKey, TreeNode)> =
                    indices.iter().map(|&i| level[i].clone()).collect();
                move || dht.put_many(&items)
            })
            .collect();
        let mut out: Vec<Option<Result<()>>> = (0..level.len()).map(|_| None).collect();
        for ((_, indices), results) in groups.iter().zip(self.exec.fanout(jobs)) {
            for (&i, result) in indices.iter().zip(results) {
                out[i] = Some(result);
            }
        }
        out.into_iter()
            .map(|slot| slot.expect("every level item grouped exactly once")) // lint:allow(no-unwrap): grouping assigns each item to exactly one slot
            .collect()
    }

    /// One level's vectored fetch, fanned out across DHT shards like
    /// [`Self::put_level`]. Results come back in input order.
    fn get_level(&self, keys: &[NodeKey]) -> Vec<Result<TreeNode>> {
        let groups = group_indices_by(keys.iter().copied(), |key| self.dht.fanout_shard(key));
        self.stats.record_fanout(groups.len());
        if groups.len() <= 1 {
            return self.dht.get_many(keys);
        }
        let jobs: Vec<_> = groups
            .iter()
            .map(|(_, indices)| {
                let dht = Arc::clone(self.dht);
                let subset: Vec<NodeKey> = indices.iter().map(|&i| keys[i]).collect();
                move || dht.get_many(&subset)
            })
            .collect();
        let mut out: Vec<Option<Result<TreeNode>>> = (0..keys.len()).map(|_| None).collect();
        for ((_, indices), results) in groups.iter().zip(self.exec.fanout(jobs)) {
            for (&i, result) in indices.iter().zip(results) {
                out[i] = Some(result);
            }
        }
        out.into_iter()
            .map(|slot| slot.expect("every frontier key grouped exactly once")) // lint:allow(no-unwrap): grouping assigns each key to exactly one slot
            .collect()
    }
    /// Publishes the metadata of a normal write. `leaves` maps each block
    /// index in `entry.blocks` to its descriptor. Returns the new root key.
    ///
    /// Fails when the backend rejects a node put (a conflicting re-put —
    /// [`Error::MetadataConflict`] — or an injected fault); nodes already
    /// published stay in place, exactly like a writer that crashed halfway
    /// through its metadata phase (§VI-B).
    pub fn publish_write(
        &self,
        blob: BlobId,
        entry: &LogEntry,
        chain: &LogChain,
        leaves: &HashMap<u64, BlockDescriptor>,
    ) -> Result<NodeKey> {
        debug_assert!(
            entry.blocks.iter().all(|b| leaves.contains_key(&b)),
            "every written block needs a descriptor"
        );
        self.publish(blob, entry, chain, LeafMode::Blocks(leaves))
    }

    /// Publishes *repair* metadata for an aborted write: the same node
    /// positions a normal write would create, but every leaf aliases the
    /// previous version's content. Readers of this version observe the
    /// previous snapshot's bytes over the aborted range (zeros where the
    /// range extended the BLOB). Returns the new root key.
    ///
    /// The alias targets are leaf positions *inside* the written range,
    /// which no border holds: `chain` must be the BLOB's live (or fully
    /// transferred) history, not the border-only chain of a wire ticket.
    pub fn publish_repair(
        &self,
        blob: BlobId,
        entry: &LogEntry,
        chain: &LogChain,
    ) -> Result<NodeKey> {
        self.publish(blob, entry, chain, LeafMode::Repair)
    }

    fn publish(
        &self,
        blob: BlobId,
        entry: &LogEntry,
        chain: &LogChain,
        mode: LeafMode<'_>,
    ) -> Result<NodeKey> {
        let root = Pos::root(entry.cap_after);
        debug_assert!(
            entry.materializes(root),
            "a write always materializes its root"
        );
        // Build every materialized node locally first — weaving is pure
        // write-log computation (§III-D: "the client is able to predict
        // the values corresponding to the metadata that is being
        // written") — grouped by tree depth.
        let mut cx = BuildCx {
            blob,
            entry,
            border: chain.border(entry)?,
            chain,
            mode: &mode,
            levels: Vec::new(),
            incs: Vec::new(),
        };
        let r = self.build(&mut cx, root, 0)?;
        debug_assert_eq!(
            r,
            Some(NodeRef {
                blob,
                version: entry.version
            })
        );
        // Count every child reference the new tree will hold *before* any
        // node is published: if a node lands in the DHT, its references are
        // already protected from a concurrent collection wave.
        if !cx.incs.is_empty() {
            self.gc.inc_nodes(&cx.incs)?;
        }
        // One vectored put per level, deepest first. Where every level is
        // a single fan-out group the whole run goes to the backend at once
        // (put_levels: a remote backend overlaps the round trips, a local
        // one puts level after level and stops at the first failure);
        // backends with independently reachable shards instead split each
        // level across them concurrently (put_level). A failed item leaves
        // already-published nodes in place (the crashed-writer shape of
        // §VI-B).
        let mut levels = cx.levels;
        levels.reverse();
        let is_repair = matches!(mode, LeafMode::Repair);
        let pipelined = levels.iter().all(|level| self.is_one_group(level));
        let mut rest = &levels[..];
        while let Some(level) = rest.first() {
            let attempted = if pipelined {
                self.dht.put_levels(rest)
            } else {
                vec![self.put_level(level)]
            };
            if attempted.is_empty() || attempted.len() > rest.len() {
                return Err(Error::Internal(format!(
                    "metadata backend answered {} of {} levels",
                    attempted.len(),
                    rest.len()
                )));
            }
            for (level, results) in rest.iter().zip(&attempted) {
                if pipelined {
                    self.stats.record_fanout(1);
                }
                self.settle_level(level, results, is_repair)?;
            }
            rest = &rest[attempted.len()..];
        }
        Ok(NodeKey::new(blob, entry.version, root))
    }

    /// True when `level` needs no fan-out: all its keys map to one group
    /// of the backend ([`MetaStore::fanout_shard`]).
    fn is_one_group(&self, level: &[(NodeKey, TreeNode)]) -> bool {
        let mut shards = level.iter().map(|(key, _)| self.dht.fanout_shard(key));
        shards
            .next()
            .is_none_or(|first| shards.all(|shard| shard == first))
    }

    /// Accounts one level's put results; the first failure fails the
    /// publish.
    fn settle_level(
        &self,
        level: &[(NodeKey, TreeNode)],
        results: &[Result<()>],
        is_repair: bool,
    ) -> Result<()> {
        if results.len() != level.len() {
            return Err(Error::Internal(format!(
                "metadata backend answered {} of {} nodes of a level",
                results.len(),
                level.len()
            )));
        }
        let mut first_err = None;
        let mut conflicts: Vec<usize> = Vec::new();
        for (i, result) in results.iter().enumerate() {
            match result {
                Ok(()) => EngineStats::add(&self.stats.meta_nodes_written, 1),
                Err(Error::MetadataConflict(_)) if is_repair => conflicts.push(i),
                Err(e) if first_err.is_none() => first_err = Some(e.clone()),
                Err(_) => {}
            }
        }
        // A repair owns its version's keys — no other writer ever
        // publishes under this (blob, version). A conflicting node at
        // one of them is a remnant of the aborted attempt (a batched
        // publish fails per item, so sibling nodes of the failed one
        // may have landed): force-replace it with the alias metadata,
        // or a transiently refused put would strand the version
        // forever behind its own half-published tree.
        if !conflicts.is_empty() {
            let keys: Vec<NodeKey> = conflicts.iter().map(|&i| level[i].0).collect();
            let _ = self.dht.delete_many(&keys);
            let retry: Vec<(NodeKey, TreeNode)> =
                conflicts.iter().map(|&i| level[i].clone()).collect();
            for result in self.dht.put_many(&retry) {
                match result {
                    Ok(()) => EngineStats::add(&self.stats.meta_nodes_written, 1),
                    Err(e) if first_err.is_none() => first_err = Some(e),
                    Err(_) => {}
                }
            }
        }
        first_err.map_or(Ok(()), Err)
    }

    /// Recursively materializes `pos` — appending the node to its depth's
    /// batch in `cx.levels` — unless it lies on the write's border, where
    /// it returns the woven reference to the latest earlier materializer.
    fn build(&self, cx: &mut BuildCx<'_, '_>, pos: Pos, depth: usize) -> Result<Option<NodeRef>> {
        if let Some(woven) = cx.border.get(pos) {
            // Weave: reference the latest lower version materializing this
            // position (possibly still being written by a concurrent
            // writer), or a hole.
            return Ok(woven);
        }
        debug_assert!(cx.entry.materializes(pos));
        let key = NodeKey::new(cx.blob, cx.entry.version, pos);
        let node = if pos.is_leaf() {
            match cx.mode {
                LeafMode::Blocks(leaves) => {
                    let desc = leaves
                        .get(&pos.start)
                        .expect("materialized leaf must have a descriptor") // lint:allow(no-unwrap): LeafMode::Blocks materializes a descriptor per leaf
                        .clone();
                    TreeNode::Leaf(desc)
                }
                LeafMode::Repair => {
                    let target = cx.chain.try_materializer_before(pos, cx.entry.version)?;
                    if let Some(t) = target {
                        cx.incs.push(NodeKey::new(t.blob, t.version, pos));
                    }
                    TreeNode::LeafAlias(target)
                }
            }
        } else {
            let left = self.build(cx, pos.left(), depth + 1)?;
            let right = self.build(cx, pos.right(), depth + 1)?;
            if let Some(l) = left {
                cx.incs.push(NodeKey::new(l.blob, l.version, pos.left()));
            }
            if let Some(r) = right {
                cx.incs.push(NodeKey::new(r.blob, r.version, pos.right()));
            }
            TreeNode::Inner { left, right }
        };
        if cx.levels.len() <= depth {
            cx.levels.resize_with(depth + 1, Vec::new);
        }
        cx.levels[depth].push((key, node));
        Ok(Some(NodeRef {
            blob: cx.blob,
            version: cx.entry.version,
        }))
    }

    /// Registers the root of a committed version (one GC reference — one
    /// control frame against a hosted refcount service).
    pub fn register_root(&self, root: NodeKey) -> Result<()> {
        self.gc.inc_nodes(&[root])
    }

    /// Locates the blocks covering `query` in the snapshot rooted at
    /// `(root_blob, version)` with tree capacity `cap` blocks.
    ///
    /// Returns one entry per block in `query`, in increasing index order;
    /// holes yield `desc: None`.
    ///
    /// The descent is level-synchronous: every node of one tree level that
    /// intersects the query is fetched with one [`MetaStore::get_many`]
    /// per reachable DHT shard, issued concurrently through the fan-out
    /// executor — hops between levels stay sequential (a
    /// child reference is only known once its parent arrived, §III-C), but
    /// a remote backend pays one round trip per level instead of one per
    /// node. Alias chains extend the frontier at the same position, so a
    /// chain of `k` aliases adds `k` extra rounds for those entries only.
    pub fn locate(
        &self,
        root_blob: BlobId,
        version: Version,
        cap: u64,
        query: BlockRange,
    ) -> Result<Vec<LocatedBlock>> {
        if query.is_empty() {
            return Ok(Vec::new());
        }
        if cap == 0 {
            return Err(Error::Internal(format!(
                "locate on empty tree for {root_blob} {version}"
            )));
        }
        let mut slots: Vec<Option<LocatedBlock>> = vec![None; query.len() as usize];
        let slot_of = |index: u64| (index - query.start) as usize;
        let mut frontier = vec![NodeKey::new(root_blob, version, Pos::root(cap))];
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for (key, fetched) in frontier.iter().zip(self.get_level(&frontier)) {
                let node = fetched?;
                EngineStats::add(&self.stats.meta_nodes_read, 1);
                match node {
                    TreeNode::Leaf(desc) => {
                        slots[slot_of(key.pos.start)] = Some(LocatedBlock {
                            index: key.pos.start,
                            desc: Some(desc),
                        });
                    }
                    TreeNode::LeafAlias(Some(target)) => {
                        // Follow the alias chain at the same position.
                        next.push(NodeKey::new(target.blob, target.version, key.pos));
                    }
                    TreeNode::LeafAlias(None) => {
                        slots[slot_of(key.pos.start)] = Some(LocatedBlock {
                            index: key.pos.start,
                            desc: None,
                        });
                    }
                    TreeNode::Inner { left, right } => {
                        for (child_pos, child_ref) in
                            [(key.pos.left(), left), (key.pos.right(), right)]
                        {
                            if !child_pos.intersects(&query) {
                                continue;
                            }
                            match child_ref {
                                Some(r) => {
                                    next.push(NodeKey::new(r.blob, r.version, child_pos));
                                }
                                None => {
                                    // A hole subtree: every queried block
                                    // in it is a hole.
                                    let lo = child_pos.start.max(query.start);
                                    let hi = child_pos.end().min(query.end);
                                    for index in lo..hi {
                                        slots[slot_of(index)] =
                                            Some(LocatedBlock { index, desc: None });
                                    }
                                }
                            }
                        }
                    }
                }
            }
            frontier = next;
        }
        let out: Vec<LocatedBlock> = slots
            .into_iter()
            .map(|s| s.expect("descent covered every queried block")) // lint:allow(no-unwrap): descent covers every queried block or errors earlier
            .collect();
        debug_assert_eq!(out.len() as u64, query.len());
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dht::MetaDht;
    use crate::meta::log::{LogSegment, SharedLog, WriteLog};
    use blobseer_types::BlockId;
    use parking_lot::RwLock;
    use std::sync::Arc;

    struct Fx {
        dht: Arc<dyn MetaStore>,
        gc: Arc<dyn GcService>,
        stats: EngineStats,
        exec: FanoutExecutor,
        log: SharedLog,
        blob: BlobId,
    }

    impl Fx {
        fn new() -> Self {
            Self {
                dht: Arc::new(MetaDht::new(4, 1)),
                gc: Arc::new(crate::gc::GcTracker::new()),
                stats: EngineStats::new(),
                exec: FanoutExecutor::new(2),
                log: Arc::new(RwLock::new(WriteLog::new())),
                blob: BlobId::new(1),
            }
        }

        fn store(&self) -> TreeStore<'_> {
            TreeStore {
                dht: &self.dht,
                gc: &self.gc,
                stats: &self.stats,
                exec: &self.exec,
            }
        }

        fn chain(&self) -> LogChain {
            LogChain::new(vec![LogSegment::full(
                self.blob,
                Arc::clone(&self.log),
                Version::ZERO,
                Version::new(u64::MAX),
            )])
        }

        /// Assign-then-publish a write of whole blocks [start, end) with
        /// block ids start*100+v.
        fn write(&self, v: u64, start: u64, end: u64) -> NodeKey {
            let (cap_before, size_before) = {
                let log = self.log.read();
                log.last()
                    .map(|e| (e.cap_after, e.size_after))
                    .unwrap_or((0, 0))
            };
            let size_after = size_before.max(end * 64);
            let entry = LogEntry {
                version: Version::new(v),
                blocks: BlockRange::new(start, end),
                cap_before,
                cap_after: size_after.div_ceil(64).next_power_of_two().max(1),
                size_after,
            };
            self.log.write().push(entry);
            let leaves: HashMap<u64, BlockDescriptor> = (start..end)
                .map(|b| {
                    (
                        b,
                        BlockDescriptor {
                            block_id: BlockId::new(b * 100 + v),
                            providers: vec![(b % 3) as u32],
                            len: 64,
                        },
                    )
                })
                .collect();
            self.store()
                .publish_write(self.blob, &entry, &self.chain(), &leaves)
                .unwrap()
        }

        fn blocks_of(&self, v: u64, cap: u64, q: (u64, u64)) -> Vec<Option<u64>> {
            self.store()
                .locate(self.blob, Version::new(v), cap, BlockRange::new(q.0, q.1))
                .unwrap()
                .into_iter()
                .map(|l| l.desc.map(|d| d.block_id.raw()))
                .collect()
        }
    }

    #[test]
    fn paper_figure_1_sequence() {
        // Fig. 1: append 4 blocks, overwrite the first two, append 1 block.
        let fx = Fx::new();
        fx.write(1, 0, 4);
        fx.write(2, 0, 2);
        fx.write(3, 4, 5);
        // v1 sees its own four blocks.
        assert_eq!(
            fx.blocks_of(1, 4, (0, 4)),
            vec![Some(1), Some(101), Some(201), Some(301)]
        );
        // v2 shares blocks 2–3 with v1, replaces 0–1.
        assert_eq!(
            fx.blocks_of(2, 4, (0, 4)),
            vec![Some(2), Some(102), Some(201), Some(301)]
        );
        // v3 (capacity 8) sees v2's front, v1's middle, its own appended block.
        assert_eq!(
            fx.blocks_of(3, 8, (0, 5)),
            vec![Some(2), Some(102), Some(201), Some(301), Some(403)]
        );
        // Node count check against Fig. 1: v1 creates 4 leaves + 2 inner +
        // root = 7; v2 creates 2 leaves + 1 inner + root = 4; v3 creates
        // 1 leaf + (4,2) + (4,4) + new root = 4. Total 15.
        assert_eq!(fx.stats.snapshot().meta_nodes_written, 15);
    }

    #[test]
    fn old_versions_remain_readable_after_new_writes() {
        let fx = Fx::new();
        fx.write(1, 0, 4);
        fx.write(2, 1, 3);
        for _ in 0..3 {
            // Repeated reads of the old snapshot are stable (immutability).
            assert_eq!(
                fx.blocks_of(1, 4, (0, 4)),
                vec![Some(1), Some(101), Some(201), Some(301)]
            );
        }
        assert_eq!(
            fx.blocks_of(2, 4, (0, 4)),
            vec![Some(1), Some(102), Some(202), Some(301)]
        );
    }

    #[test]
    fn partial_range_queries_visit_only_needed_subtrees() {
        let fx = Fx::new();
        fx.write(1, 0, 8);
        let before = fx.stats.snapshot().meta_nodes_read;
        // Query a single block: the descent reads depth+1 = 4 nodes
        // (root, (0,4), (0,2), leaf).
        assert_eq!(fx.blocks_of(1, 8, (0, 1)), vec![Some(1)]);
        let visited = fx.stats.snapshot().meta_nodes_read - before;
        assert_eq!(visited, 4);
    }

    #[test]
    fn holes_read_as_none() {
        let fx = Fx::new();
        // First write covers blocks [2, 3) only; 0–1 are holes.
        fx.write(1, 2, 3);
        assert_eq!(fx.blocks_of(1, 4, (0, 3)), vec![None, None, Some(201)]);
    }

    #[test]
    fn hole_write_preserves_old_content_through_spine() {
        let fx = Fx::new();
        fx.write(1, 0, 2); // cap 2
        fx.write(2, 6, 8); // jumps past the end, cap 8, holes [2,6)
        assert_eq!(
            fx.blocks_of(2, 8, (0, 8)),
            vec![
                Some(1),
                Some(101),
                None,
                None,
                None,
                None,
                Some(602),
                Some(702)
            ]
        );
    }

    #[test]
    fn weaving_references_in_flight_lower_versions() {
        // Simulate two concurrent writers: v2 (blocks 0–1) and v3 (blocks
        // 2–3) both assigned before either publishes. v3 publishes FIRST,
        // weaving a reference to v2's yet-unwritten subtree; then v2
        // publishes; then reads of v3 see both (the version manager would
        // only reveal v3 after v2 committed).
        let fx = Fx::new();
        fx.write(1, 0, 4);
        // Assign both versions up front (entries enter the log in order).
        let e2 = LogEntry {
            version: Version::new(2),
            blocks: BlockRange::new(0, 2),
            cap_before: 4,
            cap_after: 4,
            size_after: 4 * 64,
        };
        let e3 = LogEntry {
            version: Version::new(3),
            blocks: BlockRange::new(2, 4),
            cap_before: 4,
            cap_after: 4,
            size_after: 4 * 64,
        };
        fx.log.write().push(e2);
        fx.log.write().push(e3);
        let leaves = |v: u64, s: u64, e: u64| -> HashMap<u64, BlockDescriptor> {
            (s..e)
                .map(|b| {
                    (
                        b,
                        BlockDescriptor {
                            block_id: BlockId::new(b * 100 + v),
                            providers: vec![0],
                            len: 64,
                        },
                    )
                })
                .collect()
        };
        // v3 publishes first.
        fx.store()
            .publish_write(fx.blob, &e3, &fx.chain(), &leaves(3, 2, 4))
            .unwrap();
        // Reads of v3's left subtree would dangle here — which is exactly
        // why the version manager delays revealing v3 until v2 commits.
        // Now v2 publishes.
        fx.store()
            .publish_write(fx.blob, &e2, &fx.chain(), &leaves(2, 0, 2))
            .unwrap();
        // v3's snapshot correctly shows v2's blocks on the left.
        assert_eq!(
            fx.blocks_of(3, 4, (0, 4)),
            vec![Some(2), Some(102), Some(203), Some(303)]
        );
        // And v2's snapshot shows v1's blocks on the right.
        assert_eq!(
            fx.blocks_of(2, 4, (0, 4)),
            vec![Some(2), Some(102), Some(201), Some(301)]
        );
    }

    #[test]
    fn repair_publishes_previous_content() {
        let fx = Fx::new();
        fx.write(1, 0, 4);
        // v2 "fails" after version assignment: repair republished v1 content.
        let e2 = LogEntry {
            version: Version::new(2),
            blocks: BlockRange::new(1, 3),
            cap_before: 4,
            cap_after: 4,
            size_after: 4 * 64,
        };
        fx.log.write().push(e2);
        fx.store()
            .publish_repair(fx.blob, &e2, &fx.chain())
            .unwrap();
        // v2 reads exactly like v1.
        assert_eq!(
            fx.blocks_of(2, 4, (0, 4)),
            vec![Some(1), Some(101), Some(201), Some(301)]
        );
        // And a later write on top of v2 still weaves correctly.
        fx.write(3, 0, 1);
        assert_eq!(
            fx.blocks_of(3, 4, (0, 4)),
            vec![Some(3), Some(101), Some(201), Some(301)]
        );
    }

    #[test]
    fn repair_of_range_extension_reads_zero_holes() {
        let fx = Fx::new();
        fx.write(1, 0, 2);
        let e2 = LogEntry {
            version: Version::new(2),
            blocks: BlockRange::new(2, 4),
            cap_before: 2,
            cap_after: 4,
            size_after: 4 * 64,
        };
        fx.log.write().push(e2);
        fx.store()
            .publish_repair(fx.blob, &e2, &fx.chain())
            .unwrap();
        assert_eq!(
            fx.blocks_of(2, 4, (0, 4)),
            vec![Some(1), Some(101), None, None]
        );
    }

    #[test]
    fn a_failed_level_leaves_the_shallower_levels_unwritten_on_local_backends() {
        use crate::faults::{FaultPlan, FaultyMetaStore, PutFault};
        // The provided `put_levels` is the sequential loop: one `put_many`
        // per level, deepest first, stopping after the level an item
        // failed in — what a fault decorator saw before the levels were
        // handed over together.
        let mut fx = Fx::new();
        let plan = FaultPlan::new();
        fx.dht = Arc::new(FaultyMetaStore::new(
            Arc::new(MetaDht::new(1, 1)),
            Arc::clone(&plan),
        ));
        let entry = LogEntry {
            version: Version::new(1),
            blocks: BlockRange::new(0, 4),
            cap_before: 0,
            cap_after: 4,
            size_after: 4 * 64,
        };
        fx.log.write().push(entry);
        let leaves: HashMap<u64, BlockDescriptor> = (0..4)
            .map(|b| {
                let desc = BlockDescriptor {
                    block_id: BlockId::new(b),
                    providers: vec![0],
                    len: 64,
                };
                (b, desc)
            })
            .collect();
        plan.set(PutFault::FailOnce);
        let err = fx
            .store()
            .publish_write(fx.blob, &entry, &fx.chain(), &leaves)
            .unwrap_err();
        assert!(matches!(err, Error::WriteAborted(_)), "{err}");
        assert_eq!(
            fx.dht.node_count(),
            3,
            "the refused leaf's three siblings landed; no inner node, no root"
        );
        assert_eq!(fx.stats.snapshot().meta_nodes_written, 3);
        assert_eq!(fx.stats.snapshot().fanout_batches, 1, "one level attempted");
        // The repair re-puts every position and owns what it finds there.
        fx.store()
            .publish_repair(fx.blob, &entry, &fx.chain())
            .unwrap();
        assert_eq!(fx.dht.node_count(), 7);
        assert_eq!(fx.blocks_of(1, 4, (0, 4)), vec![None; 4]);
    }

    #[test]
    fn gc_refcounts_accumulate_during_publish() {
        let fx = Fx::new();
        let root1 = fx.write(1, 0, 2);
        let _root2 = fx.write(2, 0, 1);
        // v1's right leaf is referenced by v1's root and v2's root.
        let shared = NodeKey::new(fx.blob, Version::new(1), Pos::new(1, 1));
        assert_eq!(fx.gc.node_count(&shared).unwrap(), 2);
        // v1's left leaf only by v1's root.
        let private = NodeKey::new(fx.blob, Version::new(1), Pos::new(0, 1));
        assert_eq!(fx.gc.node_count(&private).unwrap(), 1);
        assert_eq!(
            fx.gc.node_count(&root1).unwrap(),
            0,
            "roots counted at commit, not publish"
        );
    }
}
