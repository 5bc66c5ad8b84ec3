//! Fault injection on the store ports: [`Faults`], a [`Hooked`] store's hook.
//!
//! The paper leaves writer failure to "minimal mechanisms" (§VI-B); the
//! crash-consistency tests make those mechanisms concrete by decorating
//! any [`BlockStore`]/[`MetaStore`] adapter with a hook that misbehaves on
//! command:
//!
//! * **drop** — the put reports success but stores nothing (a write lost in
//!   flight after the ack: the classic silent data loss);
//! * **fail** — the put returns [`Error::WriteAborted`] (provider refused or
//!   unreachable: the client observes the failure immediately);
//! * **delay** — the put is buffered and only applied on
//!   [`Hooked::flush_delayed`] (reordering / late arrival; never flushing
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
use crate::ports::{BlockHook, BlockStore, Hooked, MetaHook, MetaStore};
use blobseer_types::{BlockId, Error, Result};
use bytes::Bytes;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What the hook does with the next puts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PutFault {
    /// Pass through untouched.
    #[default]
    None,
    /// Acknowledge but store nothing.
    Drop,
    /// Return `Error::WriteAborted`.
    Fail,
    /// Return `Error::WriteAborted` for exactly one put, then revert to
    /// pass-through (a transient refusal: the window a writer's
    /// self-repair must survive).
    FailOnce,
    /// Buffer until [`Hooked::flush_delayed`].
    Delay,
    /// Apply twice (simulated retry of a delivered request).
    Duplicate,
}

/// Shared fault switchboard: tests flip the mode mid-run and inspect the
/// damage counters afterwards. One plan can drive both a block-store and a
/// meta-store hook.
#[derive(Debug, Default)]
pub struct FaultPlan {
    mode: Mutex<PutFault>,
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
        *self.mode.lock() = fault;
    }

    /// The currently active fault.
    pub fn current(&self) -> PutFault {
        *self.mode.lock()
    }

    /// The fault the next put meets. A `FailOnce` reverts under the lock
    /// it is read under, so of puts racing it exactly one fails.
    fn take(&self) -> PutFault {
        let mut mode = self.mode.lock();
        let fault = *mode;
        if fault == PutFault::FailOnce {
            *mode = PutFault::None;
        }
        fault
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
            let fault = self.take();
            let counter = match fault {
                PutFault::None => continue,
                PutFault::Drop => &self.dropped,
                PutFault::Fail | PutFault::FailOnce => &self.failed,
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

/// A put the [`Faults`] hook can hold back: one block on one provider,
/// or one tree node.
pub trait DelayedPut: Clone + Send {
    /// The port the put lands on.
    type Port: ?Sized;
    /// Name of the delayed-put buffer's lock.
    const LOCK: &'static str;
    /// Applies the put to `port`.
    fn land(self, port: &Self::Port) -> Result<()>;
}

impl DelayedPut for (usize, BlockId, Bytes) {
    type Port = dyn BlockStore;
    const LOCK: &'static str = "faults.block.delayed";
    fn land(self, port: &dyn BlockStore) -> Result<()> {
        port.put(self.0, self.1, self.2)
    }
}

impl DelayedPut for (NodeKey, TreeNode) {
    type Port = dyn MetaStore;
    const LOCK: &'static str = "faults.meta.delayed";
    fn land(self, port: &dyn MetaStore) -> Result<()> {
        port.put(self.0, self.1)
    }
}

/// The fault-injecting hook: applies a [`FaultPlan`] to puts and buffers
/// the delayed ones.
pub struct Faults<T> {
    plan: Arc<FaultPlan>,
    delayed: Mutex<Vec<T>>,
}

impl<T: DelayedPut> Faults<T> {
    /// A hook controlled by `plan`.
    pub fn new(plan: Arc<FaultPlan>) -> Self {
        Self {
            plan,
            delayed: Mutex::named(Vec::new(), T::LOCK),
        }
    }
}

/// A [`BlockStore`] applying a [`FaultPlan`] to puts.
pub type FaultyBlockStore = Hooked<Arc<dyn BlockStore>, Faults<(usize, BlockId, Bytes)>>;

/// A [`MetaStore`] applying a [`FaultPlan`] to puts.
pub type FaultyMetaStore = Hooked<Arc<dyn MetaStore>, Faults<(NodeKey, TreeNode)>>;

impl<T: DelayedPut> Hooked<Arc<T::Port>, Faults<T>> {
    /// Applies every delayed put (late arrival) in buffered order. If the
    /// inner store rejects one, the flush stops there and the rejected put
    /// plus the un-flushed tail stay buffered for a later retry — an
    /// interrupted flush must not silently discard healthy delayed puts.
    pub fn flush_delayed(&self) -> Result<()> {
        let mut queue = self.hook.delayed.lock();
        while let Some(put) = queue.first().cloned() {
            put.land(&self.inner)?;
            queue.remove(0);
        }
        Ok(())
    }
}

impl BlockHook for Faults<(usize, BlockId, Bytes)> {
    fn put_many(
        &self,
        inner: &dyn BlockStore,
        provider: usize,
        items: &[(BlockId, Bytes)],
    ) -> Vec<Result<()>> {
        self.plan.apply(
            items,
            |run| inner.put_many(provider, run),
            |(id, _)| format!("injected fault: provider {provider} refused block {id}"),
            |(id, data)| self.delayed.lock().push((provider, *id, data.clone())),
        )
    }
}

impl MetaHook for Faults<(NodeKey, TreeNode)> {
    fn put_many(&self, inner: &dyn MetaStore, items: &[(NodeKey, TreeNode)]) -> Vec<Result<()>> {
        self.plan.apply(
            items,
            |run| inner.put_many(run),
            |(key, _)| format!("injected fault: metadata put refused for {key:?}"),
            |item| self.delayed.lock().push(item.clone()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_store::ProviderSet;

    use blobseer_types::NodeId;

    fn store() -> (FaultyBlockStore, Arc<FaultPlan>) {
        let plan = FaultPlan::new();
        let inner: Arc<dyn BlockStore> = Arc::new(ProviderSet::new(2, |i| NodeId::new(i as u64)));
        (
            FaultyBlockStore::new(inner, Faults::new(Arc::clone(&plan))),
            plan,
        )
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

    /// Of puts racing an armed `FailOnce`, exactly one is refused: the
    /// fault is read and reverted in one step.
    #[test]
    fn fail_once_refuses_exactly_one_of_racing_puts() {
        const THREADS: u64 = 4;
        const ROUNDS: u64 = 2000;
        let (s, plan) = store();
        let turn = std::sync::Barrier::new(THREADS as usize + 1);
        let refused = AtomicU64::new(0);
        let mut per_round = Vec::new();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (s, turn, refused) = (&s, &turn, &refused);
                scope.spawn(move || {
                    for round in 0..ROUNDS {
                        turn.wait();
                        let put = s.put(0, BlockId::new(round * THREADS + t), Bytes::new());
                        refused.fetch_add(put.is_err() as u64, Ordering::SeqCst);
                        turn.wait();
                    }
                });
            }
            for _ in 0..ROUNDS {
                plan.set(PutFault::FailOnce);
                turn.wait();
                turn.wait();
                per_round.push(refused.swap(0, Ordering::SeqCst));
            }
        });
        let wrong = per_round.iter().filter(|&&n| n != 1).count();
        assert_eq!(wrong, 0, "rounds not refusing exactly one put");
    }
}
