//! Minimal, API-compatible stand-in for the `parking_lot` crate, backed by
//! `std::sync`. The build environment has no access to a crates.io registry,
//! so the workspace vendors the thin slice of the API it actually uses:
//! [`Mutex`], [`RwLock`] and [`Condvar`] with *non-poisoning* guards
//! (`lock()`/`read()`/`write()` return guards directly, not `Result`s).
//!
//! Poisoning is deliberately swallowed (`unwrap_or_else(PoisonError::into_inner)`)
//! to match parking_lot semantics: a panicking thread does not wedge every
//! other thread, which the fault-tolerance tests rely on.
//!
//! On top of the vanilla API the shim carries two extensions:
//!
//! * **lock-order / deadlock checking** (see [`check`]): locks constructed
//!   with [`Mutex::named`] / [`Mutex::ranked`] (and the `RwLock`
//!   equivalents) declare their place in the repo's lock hierarchy, and
//!   with `BLOBSEER_LOCK_CHECK=1` (or `--cfg lock_check`, or
//!   [`check::force_enable`]) every blocking acquisition is validated
//!   against a global lock-order graph — cycles, re-entrant acquisition
//!   and condvar-waits-while-holding-a-second-lock panic at the
//!   acquisition site instead of deadlocking. Disabled, each hook is a
//!   single relaxed atomic load.
//! * **contention counters** (always on, see [`lock_stats`]): acquisitions
//!   that fail the initial `try_lock` fast path and have to block bump a
//!   process-wide counter and a max-wait-time gauge, surfaced by the
//!   engine's `EngineStats`.
//!
//! This crate is one of the two in the workspace allowed `unsafe` (the
//! other is `shims/crc32fast`, for its CPU-specific checksum kernel); its
//! single exception is `take_guard`, which bridges std's by-value
//! condvar-guard API to parking_lot's `&mut guard` API.

#![deny(unsafe_code)]

pub mod check;

use check::{HoldKind, LockMeta};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::PoisonError;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Contention counters (always on; fed only by the contended slow path).
// ---------------------------------------------------------------------------

static CONTENDED_ACQUIRES: AtomicU64 = AtomicU64::new(0);
static MAX_WAIT_NS: AtomicU64 = AtomicU64::new(0);

/// Process-wide lock-contention counters. Cheap to read; reset never.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockStats {
    /// Acquisitions (mutex lock, rwlock read/write) that found the lock
    /// held and had to block.
    pub contended_acquires: u64,
    /// Longest time any single acquisition spent blocked, in nanoseconds.
    pub max_wait_ns: u64,
}

/// Snapshot of the process-wide [`LockStats`].
pub fn lock_stats() -> LockStats {
    LockStats {
        contended_acquires: CONTENDED_ACQUIRES.load(Ordering::Relaxed),
        max_wait_ns: MAX_WAIT_NS.load(Ordering::Relaxed),
    }
}

/// Runs the blocking acquisition `acquire`, accounting the wait.
fn contended<G>(acquire: impl FnOnce() -> G) -> G {
    let start = Instant::now();
    let guard = acquire();
    let waited = start.elapsed().as_nanos() as u64;
    CONTENDED_ACQUIRES.fetch_add(1, Ordering::Relaxed);
    MAX_WAIT_NS.fetch_max(waited, Ordering::Relaxed);
    guard
}

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

/// A mutual-exclusion primitive with parking_lot's non-poisoning API.
pub struct Mutex<T: ?Sized> {
    meta: LockMeta,
    inner: std::sync::Mutex<T>,
}

/// RAII guard returned by [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized> {
    meta: &'a LockMeta,
    inner: std::sync::MutexGuard<'a, T>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Self {
            meta: LockMeta::unnamed(),
            inner: std::sync::Mutex::new(value),
        }
    }

    /// A mutex with a declared place in the lock hierarchy (rank 0). See
    /// [`check`] for what the name buys under lock checking.
    pub const fn named(value: T, name: &'static str) -> Self {
        Self::ranked(value, name, 0)
    }

    /// A named mutex with an explicit rank: instances sharing a name form
    /// a family that must be acquired in ascending rank order and never
    /// two-at-a-rank (e.g. striped locks ranked by stripe index).
    pub const fn ranked(value: T, name: &'static str, rank: u32) -> Self {
        Self {
            meta: LockMeta::named(name, rank),
            inner: std::sync::Mutex::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        check::before_blocking_acquire(&self.meta, HoldKind::Mutex);
        let inner = match self.inner.try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => {
                contended(|| self.inner.lock().unwrap_or_else(PoisonError::into_inner))
            }
        };
        MutexGuard {
            meta: &self.meta,
            inner,
        }
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let inner = match self.inner.try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => return None,
        };
        check::on_try_acquire(&self.meta, HoldKind::Mutex);
        Some(MutexGuard {
            meta: &self.meta,
            inner,
        })
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Pop the held record; the `inner` field's own drop then releases
        // the lock.
        check::on_release(self.meta);
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

// ---------------------------------------------------------------------------
// RwLock
// ---------------------------------------------------------------------------

/// A reader-writer lock with parking_lot's non-poisoning API.
pub struct RwLock<T: ?Sized> {
    meta: LockMeta,
    inner: std::sync::RwLock<T>,
}

/// RAII guard returned by [`RwLock::read`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    meta: &'a LockMeta,
    inner: std::sync::RwLockReadGuard<'a, T>,
}

/// RAII guard returned by [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    meta: &'a LockMeta,
    inner: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        Self {
            meta: LockMeta::unnamed(),
            inner: std::sync::RwLock::new(value),
        }
    }

    /// A reader-writer lock with a declared place in the lock hierarchy
    /// (rank 0). See [`check`].
    pub const fn named(value: T, name: &'static str) -> Self {
        Self::ranked(value, name, 0)
    }

    /// A named lock with an explicit rank; see [`Mutex::ranked`].
    pub const fn ranked(value: T, name: &'static str, rank: u32) -> Self {
        Self {
            meta: LockMeta::named(name, rank),
            inner: std::sync::RwLock::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        check::before_blocking_acquire(&self.meta, HoldKind::Read);
        let inner = match self.inner.try_read() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => {
                contended(|| self.inner.read().unwrap_or_else(PoisonError::into_inner))
            }
        };
        RwLockReadGuard {
            meta: &self.meta,
            inner,
        }
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        check::before_blocking_acquire(&self.meta, HoldKind::Write);
        let inner = match self.inner.try_write() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => {
                contended(|| self.inner.write().unwrap_or_else(PoisonError::into_inner))
            }
        };
        RwLockWriteGuard {
            meta: &self.meta,
            inner,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        check::on_release(self.meta);
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for RwLockReadGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        check::on_release(self.meta);
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for RwLockWriteGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

// ---------------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------------

/// Result of a timed [`Condvar`] wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    pub fn timed_out(self) -> bool {
        self.0
    }
}

/// A condition variable usable with this module's [`Mutex`].
pub struct Condvar {
    name: Option<&'static str>,
    inner: std::sync::Condvar,
}

impl Condvar {
    pub const fn new() -> Self {
        Self {
            name: None,
            inner: std::sync::Condvar::new(),
        }
    }

    /// A condvar with a name used in lock-check diagnostics.
    pub const fn named(name: &'static str) -> Self {
        Self {
            name: Some(name),
            inner: std::sync::Condvar::new(),
        }
    }

    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    pub fn notify_all(&self) {
        self.inner.notify_all();
    }

    /// Blocks until notified. Mirrors parking_lot's in-place guard API.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let token = check::before_condvar_wait(guard.meta, self.name);
        take_guard(&mut guard.inner, |g| {
            self.inner.wait(g).unwrap_or_else(PoisonError::into_inner)
        });
        check::after_condvar_wait(token);
    }

    /// Blocks until notified or `deadline` passes. A deadline already in
    /// the past reports a timeout immediately, without parking (callers
    /// poll with zero timeouts; parking would cost them a syscall round
    /// per poll).
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        let now = Instant::now();
        if deadline <= now {
            return WaitTimeoutResult(true);
        }
        let timeout = deadline - now;
        let token = check::before_condvar_wait(guard.meta, self.name);
        let mut timed_out = false;
        take_guard(&mut guard.inner, |g| {
            let (g, res) = self
                .inner
                .wait_timeout(g, timeout)
                .unwrap_or_else(PoisonError::into_inner);
            timed_out = res.timed_out();
            g
        });
        check::after_condvar_wait(token);
        WaitTimeoutResult(timed_out)
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Condvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Condvar")
    }
}

/// Runs `f` on the owned guard behind `&mut`, restoring the returned guard.
///
/// std's condvar consumes the guard by value while parking_lot takes
/// `&mut guard`; bridging the two requires a brief move out of the slot.
/// This is one of the workspace's two `unsafe` exceptions (see ANALYSIS.md).
#[allow(unsafe_code)]
fn take_guard<'a, T>(
    slot: &mut std::sync::MutexGuard<'a, T>,
    f: impl FnOnce(std::sync::MutexGuard<'a, T>) -> std::sync::MutexGuard<'a, T>,
) {
    // SAFETY: `slot` is a valid, initialized guard. We move it out, pass it
    // through `f` (which returns a guard for the same mutex), and write the
    // result back before anyone can observe the hole. Should `f` ever
    // unwind, the caller would drop the bitwise-duplicated guard a second
    // time, so the bomb turns that path into an abort instead of UB.
    struct AbortOnUnwind;
    impl Drop for AbortOnUnwind {
        fn drop(&mut self) {
            std::process::abort();
        }
    }
    // lint:allow(no-unsafe): the condvar guard bridge, see SAFETY above
    unsafe {
        let bomb = AbortOnUnwind;
        let owned = std::ptr::read(slot);
        let back = f(owned);
        std::ptr::write(slot, back);
        std::mem::forget(bomb);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn rwlock_many_readers() {
        let l = RwLock::new(5);
        let a = l.read();
        let b = l.read();
        assert_eq!(*a + *b, 10);
    }

    #[test]
    fn condvar_wait_until_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let res = cv.wait_until(&mut g, Instant::now() + Duration::from_millis(10));
        assert!(res.timed_out());
    }

    #[test]
    fn condvar_wait_until_expired_deadline_returns_without_parking() {
        // The satellite fix: a deadline already in the past must not park
        // for a syscall round — and, notably, must not run the
        // wait-while-holding check (pollers with zero timeouts legally
        // hold outer locks; they never actually park).
        check::force_enable();
        let outer = Mutex::named((), "shimtest.expired.outer");
        let m = Mutex::named(false, "shimtest.expired.inner");
        let cv = Condvar::new();
        let _o = outer.lock();
        let mut g = m.lock();
        let res = cv.wait_until(&mut g, Instant::now() - Duration::from_millis(5));
        assert!(res.timed_out());
        let res = cv.wait_until(&mut g, Instant::now());
        assert!(res.timed_out());
    }

    #[test]
    fn condvar_notify_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut done = m.lock();
            while !*done {
                let res = cv.wait_until(&mut done, Instant::now() + Duration::from_secs(5));
                assert!(!res.timed_out());
            }
        });
        std::thread::sleep(Duration::from_millis(20));
        let (m, cv) = &*pair;
        *m.lock() = true;
        cv.notify_all();
        t.join().unwrap();
    }

    #[test]
    fn contended_acquire_is_counted() {
        let m = Arc::new(Mutex::new(0u32));
        let m2 = Arc::clone(&m);
        let g = m.lock();
        let t = std::thread::spawn(move || {
            *m2.lock() += 1; // blocks until the main thread releases
        });
        std::thread::sleep(Duration::from_millis(30));
        drop(g);
        t.join().unwrap();
        let stats = lock_stats();
        assert!(stats.contended_acquires >= 1);
        assert!(stats.max_wait_ns > 0);
    }

    // --- detector tests -------------------------------------------------
    //
    // All detector tests run in one process; `force_enable` is sticky and
    // the lock-order graph is global, so each test uses lock names unique
    // to itself to keep the graph slices independent.

    #[test]
    fn blessed_order_passes() {
        check::force_enable();
        let a = Mutex::named(1, "shimtest.ok.a");
        let b = Mutex::named(2, "shimtest.ok.b");
        for _ in 0..2 {
            let ga = a.lock();
            let gb = b.lock();
            assert_eq!(*ga + *gb, 3);
        }
        assert!(check::graph_edges()
            .contains(&("`shimtest.ok.a`".to_string(), "`shimtest.ok.b`".to_string())));
        assert!(check::registered_locks().contains(&"shimtest.ok.a".to_string()));
    }

    #[test]
    #[should_panic(expected = "lock-order cycle detected")]
    fn inverted_order_panics() {
        check::force_enable();
        let a = Mutex::named(1, "shimtest.inv.a");
        let b = Mutex::named(2, "shimtest.inv.b");
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        let _gb = b.lock();
        let _ga = a.lock(); // reverse order: must panic, not deadlock-later
    }

    #[test]
    #[should_panic(expected = "re-entrant lock acquisition")]
    fn reentrant_mutex_panics() {
        check::force_enable();
        let m = Mutex::named(0, "shimtest.reent.m");
        let _g1 = m.lock();
        let _g2 = m.lock();
    }

    #[test]
    #[should_panic(expected = "re-entrant lock acquisition")]
    fn write_while_read_held_panics() {
        check::force_enable();
        let l = RwLock::named(0, "shimtest.upgrade.l");
        let _r = l.read();
        let _w = l.write();
    }

    #[test]
    fn read_after_read_is_allowed() {
        check::force_enable();
        let l = RwLock::named(5, "shimtest.rr.l");
        let a = l.read();
        let b = l.read();
        assert_eq!(*a + *b, 10);
    }

    #[test]
    #[should_panic(expected = "lock-rank inversion")]
    fn rank_inversion_panics() {
        check::force_enable();
        let hi = RwLock::ranked(0, "shimtest.stripe", 7);
        let lo = RwLock::ranked(0, "shimtest.stripe", 3);
        let _g_hi = hi.write();
        let _g_lo = lo.write(); // descending rank within the family
    }

    #[test]
    #[should_panic(expected = "two locks of class")]
    fn same_rank_twice_panics() {
        check::force_enable();
        let x = Mutex::named(0, "shimtest.samerank");
        let y = Mutex::named(0, "shimtest.samerank");
        let _gx = x.lock();
        let _gy = y.lock();
    }

    #[test]
    #[should_panic(expected = "wait while holding")]
    fn condvar_wait_holding_second_lock_panics() {
        check::force_enable();
        let outer = Mutex::named((), "shimtest.cv.outer");
        let m = Mutex::named(false, "shimtest.cv.inner");
        let cv = Condvar::named("shimtest.cv");
        let _o = outer.lock();
        let mut g = m.lock();
        let _ = cv.wait_until(&mut g, Instant::now() + Duration::from_secs(1));
    }

    #[test]
    fn condvar_wait_drops_held_record_while_parked() {
        // While parked the waited mutex is released, so another thread
        // must be able to acquire it in an order that would otherwise
        // conflict — and after wakeup the record must be back (dropping
        // the guard pops it without underflow).
        check::force_enable();
        let pair = Arc::new((Mutex::named(false, "shimtest.park.m"), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut done = m.lock();
            while !*done {
                cv.wait(&mut done);
            }
        });
        std::thread::sleep(Duration::from_millis(20));
        let (m, cv) = &*pair;
        *m.lock() = true;
        cv.notify_all();
        t.join().unwrap();
    }

    #[test]
    fn try_lock_failure_leaves_no_record() {
        check::force_enable();
        let m = Arc::new(Mutex::named(0, "shimtest.try.m"));
        let other = Mutex::named(0, "shimtest.try.other");
        let g = m.lock();
        let m2 = Arc::clone(&m);
        std::thread::spawn(move || {
            assert!(m2.try_lock().is_none());
            // A failed try_lock must not leave a phantom held record that
            // would order later acquisitions.
            let _o = other.lock();
        })
        .join()
        .unwrap();
        drop(g);
    }
}
