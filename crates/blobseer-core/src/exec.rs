//! The client-side fan-out executor behind every multi-provider hot path.
//!
//! The paper's throughput claims (§III-B, figs 3–4) assume a client
//! stripes its blocks across providers **in parallel**: a write to 8
//! providers costs ~1 round trip of latency, not 8. The vectored ports
//! (PR 5) and the multiplexed transport (PR 6) made concurrent in-flight
//! batches cheap at the wire level; [`FanoutExecutor`] is the piece that
//! actually issues them concurrently from the protocol layer.
//!
//! Its one entry point is `FanoutExecutor::scatter_gather`: split a
//! batch by provider or shard, make one vectored call per group, return
//! the answers in input order. Every parallel phase goes through it — the
//! data phase and its undo, the read fetch and its replica-failover waves,
//! the GC cascade's block deletes, and the tree's per-level publish and
//! descent. The stores' sequential form
//! ([`crate::sharded::scatter_gather`]) shares its grouping and
//! re-slotting.
//!
//! Design constraints, in order:
//!
//! * **Degrade to inline at 1 thread.** `client_io_threads = 1` spawns no
//!   worker threads at all and runs every group on the caller, in order —
//!   byte-identical behaviour and identical frame counts to the serial
//!   client. This is also what makes the executor safe under
//!   `simnet::SimGate`, whose cooperative virtual-time scheduling cannot
//!   tolerate ungated OS threads (the charging adapters model the overlap
//!   analytically instead; see `experiments::concurrent`).
//! * **Callers help.** One pool serves every client thread of a
//!   deployment and its in-process GC host. A caller waiting for its
//!   groups runs queued jobs (its own or another caller's) instead of
//!   parking, so its fan-out never stalls behind a pool busy with other
//!   callers' work, and a job that itself fans out cannot deadlock the
//!   pool: every waiter is also a worker.
//! * **Jobs are `'static`.** Each job owns its batch and a shared handle
//!   to the call — no scoped-lifetime tricks, no unsafe.
//!
//! Results come back in input order, so call sites keep their
//! deterministic first-error and accounting semantics regardless of
//! completion order.

use crate::sharded::{gather, Split};
use crate::stats::EngineStats;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A queued unit of work. Each wraps one caller job plus the bookkeeping
/// that stores its result slot and wakes the waiting fan-out caller.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Shared state between the workers and every fan-out caller.
struct Pool {
    /// FIFO of pending jobs. All parking — workers waiting for work and
    /// callers waiting for their group — goes through this one mutex and
    /// [`Self::signal`], which is notified on every push *and* every
    /// group-job completion.
    queue: Mutex<VecDeque<Job>>,
    signal: Condvar,
    stop: AtomicBool,
}

impl Pool {
    /// Blocks until a job is available (running it is the caller's duty)
    /// or the pool is stopped.
    fn next_job(&self) -> Option<Job> {
        let mut q = self.queue.lock();
        loop {
            if self.stop.load(Ordering::Relaxed) {
                return None;
            }
            if let Some(job) = q.pop_front() {
                return Some(job);
            }
            self.signal.wait(&mut q);
        }
    }
}

/// One fan-out call's completion state: a result slot per job plus the
/// count of jobs still outstanding.
struct Group<T> {
    slots: Mutex<Vec<Option<std::thread::Result<T>>>>,
    remaining: AtomicUsize,
}

/// A small shared thread pool issuing per-provider batches concurrently.
///
/// Sized by `BlobSeerConfig::client_io_threads` (default: `min(8,
/// providers)`); see the module docs for the 1-thread inline guarantee.
pub struct FanoutExecutor {
    /// `None` at 1 thread: no pool, no workers, inline execution.
    pool: Option<Arc<Pool>>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for FanoutExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FanoutExecutor")
            .field("threads", &self.threads)
            .finish()
    }
}

impl FanoutExecutor {
    /// An executor with `threads` I/O threads. `1` means *inline*: no
    /// worker threads are spawned and every job runs on the caller.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "need at least one I/O thread");
        if threads == 1 {
            return Self {
                pool: None,
                workers: Vec::new(),
                threads,
            };
        }
        let pool = Arc::new(Pool {
            queue: Mutex::named(VecDeque::new(), "exec.queue"),
            signal: Condvar::named("exec.signal"),
            stop: AtomicBool::new(false),
        });
        let workers = (0..threads)
            .map(|i| {
                let pool = Arc::clone(&pool);
                std::thread::Builder::new()
                    .name(format!("blobseer-io-{i}"))
                    .spawn(move || {
                        while let Some(job) = pool.next_job() {
                            job();
                        }
                    })
                    .expect("spawn fan-out worker") // lint:allow(no-unwrap): thread-spawn failure at pool construction is unrecoverable
            })
            .collect();
        Self {
            pool: Some(pool),
            workers,
            threads,
        }
    }

    /// The configured thread count (1 = inline).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// One scatter-gather, fanned out: splits `items` by their `groups`
    /// (one provider or shard index per item, in order), makes one
    /// `call(group, batch)` per group and returns the answers in input
    /// order. A batch keeps its items' input order; groups are dispatched
    /// in first-appearance order.
    ///
    /// The groups run concurrently across the workers and the caller. A
    /// single group runs inline on the caller's own slice, cloning and
    /// allocating nothing. A call with at least one group records one
    /// fan-out of that width on `stats`. A panicking call is re-raised on
    /// the caller once every group has settled. `call` must answer one
    /// result per batch item (the vectored ports' contract).
    pub(crate) fn scatter_gather<T, R, F>(
        &self,
        stats: &EngineStats,
        items: &[T],
        groups: impl IntoIterator<Item = usize>,
        call: F,
    ) -> Vec<R>
    where
        T: Clone + Send + 'static,
        R: Send + 'static,
        F: Fn(usize, &[T]) -> Vec<R> + Send + Sync + 'static,
    {
        match Split::of(groups) {
            Split::Empty => Vec::new(),
            Split::One(group) => {
                stats.record_fanout(1);
                call(group, items)
            }
            Split::Many(groups) => gather(items, &groups, |batches| {
                stats.record_fanout(batches.len());
                let call = Arc::new(call);
                let jobs: Vec<_> = batches
                    .into_iter()
                    .map(|(group, batch)| {
                        let call = Arc::clone(&call);
                        move || call(group, &batch)
                    })
                    .collect();
                self.fanout(jobs)
            }),
        }
    }

    /// Runs every job, returning their results in submission order.
    ///
    /// With a pool, jobs run concurrently across the workers *and* the
    /// calling thread (which helps drain the queue while it waits). At 1
    /// thread — or for 0/1 jobs — everything runs inline on the caller in
    /// submission order. A panicking job is re-raised on the caller once
    /// the whole group has settled.
    fn fanout<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let n = jobs.len();
        let pool = match &self.pool {
            Some(pool) if n > 1 => pool,
            _ => return jobs.into_iter().map(|job| job()).collect(),
        };
        let group = Arc::new(Group {
            slots: Mutex::named((0..n).map(|_| None).collect(), "exec.group.slots"),
            remaining: AtomicUsize::new(n),
        });
        {
            let mut q = pool.queue.lock();
            for (i, job) in jobs.into_iter().enumerate() {
                q.push_back(group_job(pool, &group, i, job));
            }
            pool.signal.notify_all();
        }
        // Help: run queued jobs (ours or anyone's) until our group is done.
        let mut q = pool.queue.lock();
        while group.remaining.load(Ordering::Acquire) != 0 {
            if let Some(job) = q.pop_front() {
                drop(q);
                job();
                q = pool.queue.lock();
            } else {
                pool.signal.wait(&mut q);
            }
        }
        drop(q);
        collect(&group)
    }
}

/// Wraps a caller job into a queue [`Job`]: run (catching panics), store
/// the result in the group's slot, then wake everyone parked on the pool.
fn group_job<T, F>(pool: &Arc<Pool>, group: &Arc<Group<T>>, index: usize, job: F) -> Job
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let pool = Arc::clone(pool);
    let group = Arc::clone(group);
    Box::new(move || {
        let out = catch_unwind(AssertUnwindSafe(job));
        group.slots.lock()[index] = Some(out);
        group.remaining.fetch_sub(1, Ordering::Release);
        // Taking the queue lock before notifying pairs with waiters that
        // re-check `remaining` under the same lock: no lost wakeups.
        let _q = pool.queue.lock();
        pool.signal.notify_all();
    })
}

/// Drains a settled group into results, re-raising the first panic.
fn collect<T>(group: &Group<T>) -> Vec<T> {
    let mut slots = group.slots.lock();
    slots
        .drain(..)
        // lint:allow(no-unwrap): collect runs only after the group latch settles every slot
        .map(|slot| match slot.expect("group settled with empty slot") {
            Ok(value) => value,
            Err(payload) => resume_unwind(payload),
        })
        .collect()
}

impl Drop for FanoutExecutor {
    fn drop(&mut self) {
        if let Some(pool) = &self.pool {
            pool.stop.store(true, Ordering::Relaxed);
            let _q = pool.queue.lock();
            pool.signal.notify_all();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Barrier;

    #[test]
    fn inline_executor_runs_in_order_without_threads() {
        let exec = FanoutExecutor::new(1);
        assert_eq!(exec.threads(), 1);
        let order = Arc::new(Mutex::new(Vec::new()));
        let jobs: Vec<_> = (0..8u64)
            .map(|i| {
                let order = Arc::clone(&order);
                move || {
                    order.lock().push(i);
                    i * 10
                }
            })
            .collect();
        let results = exec.fanout(jobs);
        assert_eq!(results, (0..8).map(|i| i * 10).collect::<Vec<_>>());
        assert_eq!(*order.lock(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn pooled_fanout_preserves_submission_order_of_results() {
        let exec = FanoutExecutor::new(4);
        for _ in 0..20 {
            let jobs: Vec<_> = (0..16u64).map(|i| move || i * 3).collect();
            let results = exec.fanout(jobs);
            assert_eq!(results, (0..16).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn jobs_genuinely_overlap() {
        // 4 jobs rendezvous on one barrier: only possible if they run
        // concurrently (3 workers + the helping caller).
        let exec = FanoutExecutor::new(4);
        let barrier = Arc::new(Barrier::new(4));
        let jobs: Vec<_> = (0..4)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                move || barrier.wait().is_leader()
            })
            .collect();
        let results = exec.fanout(jobs);
        assert_eq!(results.iter().filter(|&&leader| leader).count(), 1);
    }

    #[test]
    fn nested_fanout_does_not_deadlock() {
        // Every outer job fans out again: with 2 threads this can only
        // complete because waiters help drain the queue.
        let exec = Arc::new(FanoutExecutor::new(2));
        let inner_exec = Arc::clone(&exec);
        let jobs: Vec<_> = (0..4u64)
            .map(|i| {
                let exec = Arc::clone(&inner_exec);
                move || {
                    let inner: Vec<_> = (0..4u64).map(|j| move || i * 100 + j).collect();
                    exec.fanout(inner).into_iter().sum::<u64>()
                }
            })
            .collect();
        let results = Arc::clone(&exec).fanout(jobs);
        let expected: Vec<u64> = (0..4).map(|i| 4 * i * 100 + 6).collect();
        assert_eq!(results, expected);
    }

    /// Items `0..10` over three groups, first seen in the order 2, 0, 1.
    fn grouped_items() -> (Vec<u64>, Vec<usize>) {
        let items: Vec<u64> = (0..10).collect();
        let groups = items.iter().map(|&x| (x as usize + 2) % 3).collect();
        (items, groups)
    }

    #[test]
    fn scatter_gather_answers_in_input_order() {
        for threads in [1, 4] {
            let exec = FanoutExecutor::new(threads);
            let stats = EngineStats::new();
            let (items, groups) = grouped_items();
            let calls = Arc::new(Mutex::new(Vec::new()));
            let log = Arc::clone(&calls);
            let got = exec.scatter_gather(&stats, &items, groups.clone(), move |g, batch| {
                log.lock().push((g, batch.to_vec()));
                batch.iter().map(|&x| (g, x)).collect()
            });
            let want: Vec<(usize, u64)> = groups.into_iter().zip(items).collect();
            assert_eq!(got, want, "{threads} threads");
            let mut calls = calls.lock().clone();
            if threads > 1 {
                calls.sort_by_key(|(g, _)| [2, 0, 1].iter().position(|x| x == g));
            }
            assert_eq!(
                calls,
                vec![
                    (2, vec![0, 3, 6, 9]),
                    (0, vec![1, 4, 7]),
                    (1, vec![2, 5, 8])
                ],
                "one call per group, batches in input order, groups in first-appearance order"
            );
        }
    }

    #[test]
    fn a_single_group_runs_inline_on_the_callers_slice() {
        let exec = FanoutExecutor::new(4);
        let stats = EngineStats::new();
        let items: Vec<u64> = (0..6).collect();
        let at = items.as_ptr() as usize;
        let caller = std::thread::current().id();
        let got = exec.scatter_gather(&stats, &items, [5; 6], move |g, batch| {
            assert_eq!(batch.as_ptr() as usize, at, "borrowed, not cloned");
            assert_eq!(std::thread::current().id(), caller, "no worker involved");
            batch.iter().map(|&x| x + g as u64).collect()
        });
        assert_eq!(got, vec![5, 6, 7, 8, 9, 10]);
    }

    #[test]
    fn each_scatter_gather_with_a_group_records_one_fanout() {
        let exec = FanoutExecutor::new(2);
        let stats = EngineStats::new();
        let echo = |_: usize, batch: &[u64]| batch.to_vec();
        let none: Vec<u64> = exec.scatter_gather(&stats, &[], [], echo);
        assert!(none.is_empty());
        assert_eq!(stats.snapshot().fanout_batches, 0, "no group, no fan-out");
        let (items, groups) = grouped_items();
        assert_eq!(exec.scatter_gather(&stats, &items, groups, echo), items);
        assert_eq!(exec.scatter_gather(&stats, &items, [0; 10], echo), items);
        let snap = stats.snapshot();
        assert_eq!((snap.fanout_batches, snap.fanout_max_width), (2, 3));
    }

    #[test]
    fn a_panicking_group_is_reraised_after_every_group_settles() {
        let exec = FanoutExecutor::new(2);
        let stats = EngineStats::new();
        let (items, groups) = grouped_items();
        let settled = Arc::new(AtomicU64::new(0));
        let s = Arc::clone(&settled);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            exec.scatter_gather(&stats, &items, groups, move |g, batch| {
                if g == 2 {
                    panic!("boom");
                }
                s.fetch_add(1, Ordering::Relaxed);
                batch.to_vec()
            })
        }));
        assert!(caught.is_err());
        assert_eq!(settled.load(Ordering::Relaxed), 2, "the other groups ran");
    }

    #[test]
    fn empty_fanout_is_a_noop() {
        let exec = FanoutExecutor::new(4);
        let results: Vec<u64> = exec.fanout(Vec::<fn() -> u64>::new());
        assert!(results.is_empty());
    }

    #[test]
    fn panicking_job_propagates_after_group_settles() {
        let exec = FanoutExecutor::new(2);
        let survived = Arc::new(AtomicU64::new(0));
        let s = Arc::clone(&survived);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            exec.fanout(vec![
                Box::new(|| -> u64 { panic!("boom") }) as Box<dyn FnOnce() -> u64 + Send>,
                Box::new(move || {
                    s.fetch_add(1, Ordering::Relaxed);
                    1
                }),
            ]);
        }));
        assert!(caught.is_err());
        assert_eq!(survived.load(Ordering::Relaxed), 1, "group fully settled");
        // The pool is still usable afterwards.
        assert_eq!(exec.fanout(vec![|| 5u64]), vec![5]);
    }

    #[test]
    #[should_panic(expected = "need at least one I/O thread")]
    fn zero_threads_rejected() {
        let _ = FanoutExecutor::new(0);
    }
}
