//! Virtual-time coordination for *real threads*: many blocked client tasks
//! on one discrete-event clock.
//!
//! This is simnet's one engine: every figure leg runs on it, from the
//! single writer of Fig. 3 to the 250 clients of Figs. 4–6, and so does
//! every HDFS cost model. Concurrent clients must *interleave* — a flow
//! started by client 3 changes the bandwidth share, and therefore the
//! completion time, of a flow client 7 is blocked on. The classic answer is
//! to rewrite every client as an event-handler state machine, but then the
//! protocol under test is a re-implementation, not the real code.
//!
//! [`SimGate`] takes the other path: each simulated client runs the **real,
//! synchronous code** on its own OS thread, and the gate serializes those
//! threads onto the simulated clock:
//!
//! * At any real instant **at most one simulated thread executes**; all
//!   others are blocked inside the gate. Shared state touched between gate
//!   calls therefore needs no ordering discipline beyond plain locks, and
//!   every run is deterministic.
//! * A thread gives up the CPU by *waiting for simulated time*:
//!   [`SimGate::sleep`]/[`SimGate::sleep_until`] (fixed instants, e.g. a
//!   disk or RPC-queue completion computed up front) or
//!   [`SimGate::transfer`] (a bulk flow in the embedded [`FlowNet`], whose
//!   completion instant *moves* as other threads start and finish flows).
//! * When the last runnable thread blocks, the gate dispatches: it picks
//!   the earliest pending event — fixed wake-ups win ties, then flow
//!   completions, with sequence numbers / token order breaking the rest —
//!   advances the clock and the flow network there, and releases exactly
//!   one thread.
//!
//! Threads are released strictly one at a time, so event handling is
//! sequential even though the *simulated* activity is concurrent. If every
//! thread is blocked and no event is pending, the simulation has deadlocked
//! — a bug in the harness — and the gate panics with a diagnostic rather
//! than hanging the test suite.

use crate::flow::FlowNet;
use crate::time::{SimDuration, SimTime};
use blobseer_types::NodeId;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::sync::Mutex;
use std::thread::{self, Thread};

/// One simulated task for [`SimGate::run`]: a closure executed on its own
/// thread, interleaved with its peers on the simulated clock.
pub type SimTask<'env> = Box<dyn FnOnce() + Send + 'env>;

struct GateState {
    clock: SimTime,
    /// Bulk transfers; the flow token is the waiter sequence number of the
    /// thread blocked on it.
    net: FlowNet<u64>,
    /// Threads currently executing user code (invariant: 0 or 1 once the
    /// run is underway).
    running: usize,
    /// Registered, unfinished simulated threads.
    live: usize,
    /// Fixed-time wake-ups: `(instant, seq)`, earliest first.
    fixed: BinaryHeap<Reverse<(SimTime, u64)>>,
    /// Waiters whose event fired, pending release (released one at a time).
    ready: VecDeque<u64>,
    /// Waiters allowed to resume (consumed by the woken thread).
    released: HashSet<u64>,
    /// Parked OS threads by waiter seq, for targeted wake-ups.
    parked: HashMap<u64, Thread>,
    /// Set when a simulated thread panicked: every other waiter is woken
    /// and panics too, so `run`'s scope can join and propagate.
    poisoned: bool,
    next_seq: u64,
}

/// The virtual-time gate. See the module docs for the execution model.
pub struct SimGate {
    st: Mutex<GateState>,
}

/// Calls [`SimGate::exit`] when dropped — normally at the end of a task,
/// or during unwinding when the task panicked.
struct TurnGuard<'a>(&'a SimGate);

impl Drop for TurnGuard<'_> {
    fn drop(&mut self) {
        self.0.exit();
    }
}

impl SimGate {
    /// A gate over the given flow network (the network's nodes are the
    /// simulated cluster nodes usable with [`SimGate::transfer`]).
    pub fn new(net: FlowNet<u64>) -> Self {
        Self {
            st: Mutex::new(GateState {
                clock: SimTime::ZERO,
                net,
                running: 0,
                live: 0,
                fixed: BinaryHeap::new(),
                ready: VecDeque::new(),
                released: HashSet::new(),
                parked: HashMap::new(),
                poisoned: false,
                next_seq: 0,
            }),
        }
    }

    /// Current simulated time. Stable while the calling simulated thread
    /// runs (nothing else advances the clock until it blocks).
    pub fn now(&self) -> SimTime {
        self.lock().clock
    }

    /// `(started, completed)` flow counters of the embedded network.
    pub fn flow_stats(&self) -> (u64, u64) {
        self.lock().net.flow_stats()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, GateState> {
        self.st
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Runs `tasks` as concurrent simulated threads and returns when all of
    /// them finished. Tasks are admitted at the current simulated instant
    /// in vector order; each runs until it blocks on the gate, which is
    /// when the next admissible thread proceeds.
    ///
    /// Must be called from *outside* any simulated thread (runs nest
    /// sequentially: a second `run` continues on the clock the first left).
    pub fn run<'env>(&self, tasks: Vec<SimTask<'env>>) {
        if tasks.is_empty() {
            return;
        }
        let first_seq;
        {
            let mut st = self.lock();
            assert!(
                st.live == 0 && st.running == 0,
                "SimGate::run while a previous run is still active"
            );
            first_seq = st.next_seq;
            let clock = st.clock;
            for i in 0..tasks.len() {
                let seq = first_seq + i as u64;
                st.fixed.push(Reverse((clock, seq)));
            }
            st.next_seq += tasks.len() as u64;
            st.live = tasks.len();
            // Nothing is running yet: admit the first thread.
            Self::dispatch(&mut st);
        }
        thread::scope(|scope| {
            for (i, task) in tasks.into_iter().enumerate() {
                let seq = first_seq + i as u64;
                scope.spawn(move || {
                    // Hands the turn over even if `task` panics, so the
                    // remaining threads are not left parked forever.
                    let _turn = TurnGuard(self);
                    self.wait_released(seq);
                    task();
                });
            }
        });
    }

    /// Blocks the calling simulated thread until the clock reaches `at`
    /// (clamped to now — waiting for the past is a no-op that still yields
    /// the turn). Returns the clock on resume.
    pub fn sleep_until(&self, at: SimTime) -> SimTime {
        self.block(|st, seq| {
            let at = at.max(st.clock);
            st.fixed.push(Reverse((at, seq)));
        })
    }

    /// Blocks the calling simulated thread for `d` of simulated time.
    pub fn sleep(&self, d: SimDuration) -> SimTime {
        self.block(|st, seq| {
            let at = st.clock + d;
            st.fixed.push(Reverse((at, seq)));
        })
    }

    /// Starts a bulk transfer of `bytes` from `src` to `dst` now and blocks
    /// until it completes under max-min fair sharing with every other
    /// in-flight transfer. Returns the completion instant.
    ///
    /// `src == dst` still models a NIC-loopback flow; callers modelling
    /// node-local I/O should skip the transfer instead.
    pub fn transfer(&self, src: NodeId, dst: NodeId, bytes: u64) -> SimTime {
        self.block(|st, seq| {
            let now = st.clock;
            st.net.start(now, src, dst, bytes, seq);
        })
    }

    /// Registers a wait via `register` (which must park `seq` in the fixed
    /// heap or the flow net), hands the turn over, and blocks until this
    /// waiter is dispatched.
    fn block(&self, register: impl FnOnce(&mut GateState, u64)) -> SimTime {
        let seq;
        {
            let mut st = self.lock();
            seq = st.next_seq;
            st.next_seq += 1;
            register(&mut st, seq);
            st.running -= 1;
            if st.running == 0 {
                let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    Self::dispatch(&mut st)
                }));
                if let Err(payload) = unwound {
                    // Balance the TurnGuard's exit() that runs on unwind:
                    // this thread never re-acquired the turn.
                    st.running += 1;
                    drop(st);
                    std::panic::resume_unwind(payload);
                }
            }
        }
        self.wait_released(seq)
    }

    /// Parks the calling OS thread until waiter `seq` is released; returns
    /// the clock at release.
    ///
    /// # Panics
    /// Panics if a peer simulated thread panicked (the run is poisoned).
    fn wait_released(&self, seq: u64) -> SimTime {
        loop {
            {
                let mut st = self.lock();
                if st.poisoned {
                    // Balance the TurnGuard's exit() that runs on unwind:
                    // this thread never re-acquired the turn.
                    st.running += 1;
                    drop(st);
                    panic!("a peer simulated thread panicked");
                }
                if st.released.remove(&seq) {
                    st.parked.remove(&seq);
                    return st.clock;
                }
                st.parked.insert(seq, thread::current());
            }
            thread::park();
        }
    }

    /// Marks the calling simulated thread finished and hands the turn over.
    /// On a panicking thread, poisons the run and wakes every parked peer
    /// instead, so the scope can join.
    fn exit(&self) {
        let mut st = self.lock();
        st.running -= 1;
        st.live -= 1;
        if thread::panicking() {
            st.poisoned = true;
            for (_, th) in st.parked.drain() {
                th.unpark();
            }
        } else if st.running == 0 {
            Self::dispatch(&mut st);
        }
    }

    /// Advances to the next event and releases exactly one waiter. Called
    /// only when no simulated thread is running.
    fn dispatch(st: &mut GateState) {
        loop {
            if let Some(seq) = st.ready.pop_front() {
                st.running += 1;
                st.released.insert(seq);
                if let Some(th) = st.parked.remove(&seq) {
                    th.unpark();
                }
                return;
            }
            let next_fixed = st.fixed.peek().map(|&Reverse((t, s))| (t, s));
            let next_flow = st.net.next_completion();
            // Fixed wake-ups win ties against flow completions.
            let fixed_next = match (next_fixed, next_flow) {
                (None, None) => {
                    if st.live == 0 {
                        return;
                    }
                    // Defensive: unreachable through the public API (every
                    // blocked thread registered a fixed wake-up or a flow),
                    // but if an internal invariant ever breaks, poison and
                    // wake everyone first so `run`'s scope can join and the
                    // diagnostic propagates instead of hanging or aborting.
                    st.poisoned = true;
                    for (_, th) in st.parked.drain() {
                        th.unpark();
                    }
                    panic!(
                        "simulation deadlock: {} task(s) blocked with no pending event",
                        st.live
                    );
                }
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (Some((tf, _)), Some(tn)) => tf <= tn,
            };
            if fixed_next {
                let (tf, seq) = next_fixed.expect("checked");
                st.fixed.pop();
                st.clock = tf.max(st.clock);
                let clock = st.clock;
                st.net.advance(clock);
                st.ready.push_back(seq);
            } else {
                let tn = next_flow.expect("checked");
                st.clock = tn.max(st.clock);
                let clock = st.clock;
                st.net.advance(clock);
                let mut done = st.net.take_completed();
                // Token order (registration order) for determinism.
                done.sort_unstable();
                st.ready.extend(done);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::NicSpec;
    use std::sync::Mutex as StdMutex;

    fn gate(nodes: usize, bps: f64) -> SimGate {
        SimGate::new(FlowNet::new(nodes, NicSpec::symmetric(bps)))
    }

    #[test]
    fn sleeps_interleave_in_time_order() {
        let g = gate(1, 100.0);
        let log = StdMutex::new(Vec::new());
        g.run(vec![
            Box::new(|| {
                g.sleep(SimDuration::from_millis(20));
                log.lock().unwrap().push(("late", g.now().as_millis()));
            }),
            Box::new(|| {
                g.sleep(SimDuration::from_millis(10));
                log.lock().unwrap().push(("early", g.now().as_millis()));
            }),
        ]);
        assert_eq!(log.into_inner().unwrap(), vec![("early", 10), ("late", 20)]);
        assert_eq!(g.now().as_millis(), 20);
    }

    #[test]
    fn equal_instants_release_in_registration_order() {
        let g = gate(1, 100.0);
        let log = StdMutex::new(Vec::new());
        let tasks: Vec<SimTask<'_>> = (0..5u32)
            .map(|i| {
                let (g, log) = (&g, &log);
                Box::new(move || {
                    g.sleep(SimDuration::from_millis(5));
                    log.lock().unwrap().push(i);
                }) as SimTask<'_>
            })
            .collect();
        g.run(tasks);
        assert_eq!(log.into_inner().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn transfers_share_bandwidth_max_min() {
        // Two 100-byte transfers into the same sink (100 B/s): both finish
        // at t=2 s, not t=1 s — contention observed by synchronous code.
        let g = gate(3, 100.0);
        let done = StdMutex::new(Vec::new());
        g.run(vec![
            Box::new(|| {
                let t = g.transfer(NodeId::new(0), NodeId::new(2), 100);
                done.lock().unwrap().push(t.as_secs_f64());
            }),
            Box::new(|| {
                let t = g.transfer(NodeId::new(1), NodeId::new(2), 100);
                done.lock().unwrap().push(t.as_secs_f64());
            }),
        ]);
        for t in done.into_inner().unwrap() {
            assert!((t - 2.0).abs() < 1e-6, "shared sink: {t}");
        }
        assert_eq!(g.flow_stats(), (2, 2));
    }

    #[test]
    fn late_transfer_slows_the_first_flow_down() {
        // A solo flow at full rate is joined halfway by a second one; the
        // first flow's completion moves out — the dynamic-completion case a
        // fixed wake-up cannot express.
        let g = gate(3, 100.0);
        let first_done = StdMutex::new(0.0f64);
        g.run(vec![
            Box::new(|| {
                let t = g.transfer(NodeId::new(0), NodeId::new(2), 100);
                *first_done.lock().unwrap() = t.as_secs_f64();
            }),
            Box::new(|| {
                g.sleep(SimDuration::from_millis(500));
                g.transfer(NodeId::new(1), NodeId::new(2), 100);
            }),
        ]);
        // 0.5 s at 100 B/s (50 B), then 50 B at 50 B/s = 1 s more.
        let t = first_done.into_inner().unwrap();
        assert!((t - 1.5).abs() < 1e-6, "first flow done at {t}");
    }

    #[test]
    fn sequential_runs_continue_the_clock() {
        let g = gate(1, 100.0);
        g.run(vec![Box::new(|| {
            g.sleep(SimDuration::from_secs(1));
        })]);
        assert_eq!(g.now().as_millis(), 1000);
        g.run(vec![Box::new(|| {
            g.sleep(SimDuration::from_secs(1));
        })]);
        assert_eq!(g.now().as_millis(), 2000);
    }

    #[test]
    fn sleep_until_the_past_is_a_yield() {
        let g = gate(1, 100.0);
        g.run(vec![Box::new(|| {
            g.sleep(SimDuration::from_millis(10));
            let t = g.sleep_until(SimTime::ZERO);
            assert_eq!(t.as_millis(), 10, "clamped to now");
        })]);
    }

    #[test]
    fn a_panicking_task_poisons_instead_of_deadlocking() {
        let g = gate(2, 100.0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            g.run(vec![
                Box::new(|| {
                    g.sleep(SimDuration::from_millis(1));
                    panic!("task bug");
                }),
                Box::new(|| {
                    // Would otherwise park forever waiting for t=10 ms.
                    g.sleep(SimDuration::from_millis(10));
                }),
            ]);
        }));
        assert!(result.is_err(), "the panic must propagate out of run()");
    }

    #[test]
    fn deterministic_under_heavy_interleaving() {
        let run_once = || {
            let g = gate(8, 117.5);
            let log = StdMutex::new(Vec::new());
            let tasks: Vec<SimTask<'_>> = (0..32u64)
                .map(|i| {
                    let (g, log) = (&g, &log);
                    Box::new(move || {
                        g.sleep(SimDuration::from_micros(i * 37 % 113));
                        let t =
                            g.transfer(NodeId::new(i % 8), NodeId::new((i + 3) % 8), 500 + 17 * i);
                        g.sleep(SimDuration::from_micros(i % 5));
                        log.lock()
                            .unwrap()
                            .push((i, t.as_nanos(), g.now().as_nanos()));
                    }) as SimTask<'_>
                })
                .collect();
            g.run(tasks);
            log.into_inner().unwrap()
        };
        assert_eq!(run_once(), run_once());
    }
}
