//! Fault-injecting decorators over the service ports.
//!
//! The paper leaves writer failure to "minimal mechanisms" (§VI-B); the
//! crash-consistency tests make those mechanisms concrete by wrapping any
//! [`BlockStore`]/[`MetaStore`] adapter in a decorator that misbehaves on
//! command:
//!
//! * **drop** — the put reports success but stores nothing (a write lost in
//!   flight after the ack: the classic silent data loss);
//! * **fail** — the put returns [`Error::WriteAborted`] (provider refused or
//!   unreachable: the client observes the failure immediately);
//! * **delay** — the put is buffered and only applied on
//!   [`FaultyBlockStore::flush_delayed`] (reordering / late arrival; never flushing
//!   models a crash with dirty buffers);
//! * **duplicate** — the put is applied twice (a retried RPC whose first
//!   attempt did land: exercises idempotence).
//!
//! Reads, deletes and statistics always pass through, so tests can inspect
//! the damage with the normal APIs.
//!
//! `put_many` consults the fault plan **per item**, in batch order, so a
//! `FailOnce` plan armed mid-run fails exactly one item and lets the rest
//! land — the partial-failure behavior the vectored API's per-item
//! `Result`s exist for. Runs of un-faulted items reach the inner store as
//! the sub-batches they are, not one put at a time.

use crate::meta::key::NodeKey;
use crate::meta::node::TreeNode;
use crate::ports::{BlockStore, MetaStore};
use blobseer_types::{BlockId, Error, NodeId, Result};
use bytes::Bytes;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

/// What the decorator does with the next puts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PutFault {
    /// Pass through untouched.
    None,
    /// Acknowledge but store nothing.
    Drop,
    /// Return `Error::WriteAborted`.
    Fail,
    /// Return `Error::WriteAborted` for exactly one put, then revert to
    /// pass-through (a transient refusal: the window a writer's
    /// self-repair must survive).
    FailOnce,
    /// Buffer until [`FaultyBlockStore::flush_delayed`].
    Delay,
    /// Apply twice (simulated retry of a delivered request).
    Duplicate,
}

impl PutFault {
    fn from_u8(v: u8) -> Self {
        match v {
            1 => PutFault::Drop,
            2 => PutFault::Fail,
            3 => PutFault::Delay,
            4 => PutFault::Duplicate,
            5 => PutFault::FailOnce,
            _ => PutFault::None,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            PutFault::None => 0,
            PutFault::Drop => 1,
            PutFault::Fail => 2,
            PutFault::Delay => 3,
            PutFault::Duplicate => 4,
            PutFault::FailOnce => 5,
        }
    }
}

/// Shared fault switchboard: tests flip the mode mid-run and inspect the
/// damage counters afterwards. One plan can drive both a block-store and a
/// meta-store decorator.
#[derive(Debug, Default)]
pub struct FaultPlan {
    mode: AtomicU8,
    dropped: AtomicU64,
    failed: AtomicU64,
    delayed: AtomicU64,
    duplicated: AtomicU64,
}

impl FaultPlan {
    /// A plan starting in pass-through mode.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Sets the behavior of subsequent puts.
    pub fn set(&self, fault: PutFault) {
        self.mode.store(fault.as_u8(), Ordering::SeqCst);
    }

    /// The currently active fault.
    pub fn current(&self) -> PutFault {
        PutFault::from_u8(self.mode.load(Ordering::SeqCst))
    }

    /// Runs one `put_many` batch through the plan. Each item meets the
    /// plan's current fault, in order (a `FailOnce` reverts to pass-through
    /// as it fires); maximal runs of un-faulted items go to `pass` — the
    /// inner store's `put_many` — whole. A refused item fails with
    /// `refused(item)` as the reason, a delayed one is handed to `delay`,
    /// a duplicated one is passed twice.
    fn apply<I: Clone>(
        &self,
        items: &[I],
        mut pass: impl FnMut(&[I]) -> Vec<Result<()>>,
        refused: impl Fn(&I) -> String,
        mut delay: impl FnMut(&I),
    ) -> Vec<Result<()>> {
        let mut out = Vec::with_capacity(items.len());
        let mut clean_from = 0;
        for (i, item) in items.iter().enumerate() {
            let fault = self.current();
            let counter = match fault {
                PutFault::None => continue,
                PutFault::Drop => &self.dropped,
                PutFault::Fail => &self.failed,
                PutFault::FailOnce => {
                    self.set(PutFault::None);
                    &self.failed
                }
                PutFault::Delay => &self.delayed,
                PutFault::Duplicate => &self.duplicated,
            };
            counter.fetch_add(1, Ordering::SeqCst);
            if clean_from < i {
                out.extend(pass(&items[clean_from..i]));
            }
            clean_from = i + 1;
            out.push(match fault {
                PutFault::None | PutFault::Drop => Ok(()),
                PutFault::Fail | PutFault::FailOnce => Err(Error::WriteAborted(refused(item))),
                PutFault::Delay => {
                    delay(item);
                    Ok(())
                }
                PutFault::Duplicate => pass(&[item.clone(), item.clone()]).into_iter().collect(),
            });
        }
        if clean_from < items.len() {
            out.extend(pass(&items[clean_from..]));
        }
        out
    }

    /// `(dropped, failed, delayed, duplicated)` puts so far.
    pub fn counters(&self) -> (u64, u64, u64, u64) {
        (
            self.dropped.load(Ordering::SeqCst),
            self.failed.load(Ordering::SeqCst),
            self.delayed.load(Ordering::SeqCst),
            self.duplicated.load(Ordering::SeqCst),
        )
    }
}

/// A [`BlockStore`] decorator applying a [`FaultPlan`] to puts.
pub struct FaultyBlockStore {
    inner: Arc<dyn BlockStore>,
    plan: Arc<FaultPlan>,
    delayed: Mutex<Vec<(usize, BlockId, Bytes)>>,
}

impl FaultyBlockStore {
    /// Wraps `inner`, controlled by `plan`.
    pub fn new(inner: Arc<dyn BlockStore>, plan: Arc<FaultPlan>) -> Self {
        Self {
            inner,
            plan,
            delayed: Mutex::named(Vec::new(), "faults.block.delayed"),
        }
    }

    /// Applies every delayed put (late arrival) in buffered order. If the
    /// inner store rejects one, the flush stops there and the rejected put
    /// plus the un-flushed tail stay buffered for a later retry — an
    /// interrupted flush must not silently discard healthy delayed puts.
    pub fn flush_delayed(&self) -> Result<()> {
        let mut queue = self.delayed.lock();
        while let Some((p, id, data)) = queue.first().cloned() {
            self.inner.put(p, id, data)?;
            queue.remove(0);
        }
        Ok(())
    }
}

impl BlockStore for FaultyBlockStore {
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
        self.plan.apply(
            items,
            |run| self.inner.put_many(provider, run),
            |(id, _)| format!("injected fault: provider {provider} refused block {id}"),
            |(id, data)| self.delayed.lock().push((provider, *id, data.clone())),
        )
    }
    fn get_many(&self, provider: usize, ids: &[BlockId]) -> Vec<Result<Bytes>> {
        self.inner.get_many(provider, ids)
    }
    fn delete_many(&self, provider: usize, ids: &[BlockId]) -> Vec<Result<u64>> {
        self.inner.delete_many(provider, ids)
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
}

/// A [`MetaStore`] decorator applying a [`FaultPlan`] to puts.
pub struct FaultyMetaStore {
    inner: Arc<dyn MetaStore>,
    plan: Arc<FaultPlan>,
    delayed: Mutex<Vec<(NodeKey, TreeNode)>>,
}

impl FaultyMetaStore {
    /// Wraps `inner`, controlled by `plan`.
    pub fn new(inner: Arc<dyn MetaStore>, plan: Arc<FaultPlan>) -> Self {
        Self {
            inner,
            plan,
            delayed: Mutex::named(Vec::new(), "faults.meta.delayed"),
        }
    }

    /// Applies every delayed put (late arrival) in buffered order. Like
    /// [`FaultyBlockStore::flush_delayed`], an inner rejection stops the
    /// flush and keeps the rejected put plus the tail buffered for retry.
    pub fn flush_delayed(&self) -> Result<()> {
        let mut queue = self.delayed.lock();
        while let Some((key, node)) = queue.first().cloned() {
            self.inner.put(key, node)?;
            queue.remove(0);
        }
        Ok(())
    }
}

impl MetaStore for FaultyMetaStore {
    fn put_many(&self, items: &[(NodeKey, TreeNode)]) -> Vec<Result<()>> {
        self.plan.apply(
            items,
            |run| self.inner.put_many(run),
            |(key, _)| format!("injected fault: metadata put refused for {key:?}"),
            |item| self.delayed.lock().push(item.clone()),
        )
    }
    fn get_many(&self, keys: &[NodeKey]) -> Vec<Result<TreeNode>> {
        self.inner.get_many(keys)
    }
    fn delete_many(&self, keys: &[NodeKey]) -> Vec<Result<bool>> {
        self.inner.delete_many(keys)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_store::ProviderSet;

    fn store() -> (FaultyBlockStore, Arc<FaultPlan>) {
        let plan = FaultPlan::new();
        let inner: Arc<dyn BlockStore> = Arc::new(ProviderSet::new(2, |i| NodeId::new(i as u64)));
        (FaultyBlockStore::new(inner, Arc::clone(&plan)), plan)
    }

    #[test]
    fn drop_acks_but_loses_data() {
        let (s, plan) = store();
        plan.set(PutFault::Drop);
        s.put(0, BlockId::new(1), Bytes::from_static(b"x")).unwrap();
        assert!(!s.contains(0, BlockId::new(1)));
        assert_eq!(plan.counters().0, 1);
    }

    #[test]
    fn fail_is_visible_to_the_caller() {
        let (s, plan) = store();
        plan.set(PutFault::Fail);
        let err = s
            .put(0, BlockId::new(1), Bytes::from_static(b"x"))
            .unwrap_err();
        assert!(matches!(err, Error::WriteAborted(_)), "{err}");
        assert_eq!(plan.counters().1, 1);
    }

    #[test]
    fn delay_holds_until_flush() {
        let (s, plan) = store();
        plan.set(PutFault::Delay);
        s.put(1, BlockId::new(2), Bytes::from_static(b"late"))
            .unwrap();
        assert!(!s.contains(1, BlockId::new(2)));
        s.flush_delayed().unwrap();
        assert_eq!(s.get(1, BlockId::new(2)).unwrap(), &b"late"[..]);
    }

    #[test]
    fn duplicate_is_idempotent_on_the_inner_store() {
        let (s, plan) = store();
        plan.set(PutFault::Duplicate);
        s.put(0, BlockId::new(3), Bytes::from_static(b"abcd"))
            .unwrap();
        assert_eq!(s.block_count(0), 1);
        assert_eq!(s.bytes_stored(0), 4, "no double counting");
        assert_eq!(plan.counters().3, 1);
    }
}
