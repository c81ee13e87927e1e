//! Rank-ordered lock wrappers: the workspace's one lock contract, checked
//! at runtime in debug builds.
//!
//! Every lock in the engine is an [`OrderedMutex`] or [`OrderedRwLock`]
//! declared with a [`LockRank`] from [`ranks`], the single source of truth
//! for the lock order (clippy's `disallowed-types`, configured in the root
//! `clippy.toml`, keeps the raw primitives out of every other module). Under
//! `debug_assertions` each thread keeps a stack of the ranks it currently
//! holds, and acquiring a lock whose rank is not strictly greater than every
//! held rank panics *before* blocking — so a potential AB/BA deadlock
//! surfaces as a deterministic panic in any debug test run, even when the
//! interleaving that would actually deadlock never happens. The check runs
//! on every acquisition at any call depth, through closures and trait
//! objects alike. [`blocking`] marks the calls that may block (page I/O,
//! sleeps, waits) and panics if the thread holds the hot tree `state` lock.
//! In release builds the wrappers compile down to the bare `parking_lot`
//! primitives and `blocking` to nothing: no rank field, no thread-local, no
//! check.

#![allow(clippy::disallowed_types, reason = "the ordered wrappers are built on the raw locks")]

use std::ops::{Deref, DerefMut};

/// A position in the global lock order. Lower ranks must be acquired first.
///
/// `name` matches the struct field the lock lives in; panics name it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LockRank {
    pub order: u32,
    pub name: &'static str,
}

/// The workspace's lock order, outermost first, and its only declaration:
/// a thread may acquire a lock only while every lock it holds ranks lower.
/// Flushes, merges, bulk loads and recovery take `flush_lock` or
/// `merge_lock` first, so none of them can start under `state`.
pub mod ranks {
    use super::LockRank;

    /// `LsmTree::flush_lock` — serializes the flush pipeline.
    pub const FLUSH_LOCK: LockRank = LockRank { order: 100, name: "flush_lock" };
    /// `LsmTree::merge_lock` — serializes the merge pipeline.
    pub const MERGE_LOCK: LockRank = LockRank { order: 200, name: "merge_lock" };
    /// `LsmTree::state` — memtables, component list, displaced anti-schemas.
    pub const TREE_STATE: LockRank = LockRank { order: 300, name: "state" };
    /// `TupleCompactor::schema` — the published schema and its dictionary
    /// `Arc`. A flush pass commits into it under `state`, in the section
    /// that installs the pass's component; readers take it under `state`
    /// to capture a decoder.
    pub const COMPACTOR_SCHEMA: LockRank = LockRank { order: 400, name: "schema" };
    /// `Wal::frozen` — the frozen WAL segment buffer.
    pub const WAL_FROZEN: LockRank = LockRank { order: 600, name: "frozen" };
    /// `BufferCache::inner` — cache frames and the LRU clock.
    pub const CACHE_INNER: LockRank = LockRank { order: 700, name: "inner" };
    /// `PageStore::laf` — the lookaside-file page directory.
    pub const PAGE_LAF: LockRank = LockRank { order: 800, name: "laf" };
    /// `Device::fault` — the installed fault-injection plan. Consulted (and
    /// released) immediately before every raw device I/O, so it ranks just
    /// above the file data lock.
    pub const DEVICE_FAULT: LockRank = LockRank { order: 850, name: "fault" };
    /// `FileStore::data` — raw simulated-device file contents.
    pub const FILE_DATA: LockRank = LockRank { order: 900, name: "data" };
}

#[cfg(debug_assertions)]
#[expect(clippy::panic, reason = "the debug-build lock checker fails loudly by design")]
mod held {
    use super::LockRank;
    use std::cell::{Cell, RefCell};

    thread_local! {
        static STACK: RefCell<Vec<(LockRank, u64)>> = const { RefCell::new(Vec::new()) };
        static NEXT_ID: Cell<u64> = const { Cell::new(0) };
    }

    /// Check `rank` against every lock this thread already holds, then push
    /// it. Panics (rather than risking a deadlock) on any violation of the
    /// declared order, including reacquiring a lock of the same rank.
    pub(super) fn acquire(rank: LockRank) -> u64 {
        STACK.with(|s| {
            {
                let stack = s.borrow();
                if let Some((worst, _)) = stack.iter().find(|(h, _)| h.order >= rank.order) {
                    panic!(
                        "lock-order violation: acquiring '{}' (rank {}) while holding '{}' \
                         (rank {}); this thread holds [{}]; the order is declared in \
                         tc_util::sync::ranks",
                        rank.name,
                        rank.order,
                        worst.name,
                        worst.order,
                        stack.iter().map(|(h, _)| h.name).collect::<Vec<_>>().join(" -> "),
                    );
                }
            }
            let id = NEXT_ID.with(|n| {
                let id = n.get();
                n.set(id + 1);
                id
            });
            s.borrow_mut().push((rank, id));
            id
        })
    }

    /// Panic if this thread holds a lock of `rank` while about to block in
    /// `what`.
    pub(super) fn refuse_blocking_under(rank: LockRank, what: &str) {
        STACK.with(|s| {
            if s.borrow().iter().any(|(h, _)| h.order == rank.order) {
                panic!(
                    "blocking call '{what}' while holding '{}' (rank {})",
                    rank.name, rank.order
                );
            }
        });
    }

    /// Guards may be dropped in any order, so release removes by token
    /// rather than popping. `try_with` keeps thread teardown (TLS already
    /// destroyed) from aborting the process.
    pub(super) fn release(id: u64) {
        let _ = STACK.try_with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&(_, held_id)| held_id == id) {
                stack.remove(pos);
            }
        });
    }
}

/// Mark a call that may block the thread: page I/O, a sleep, a wait. In
/// debug builds it panics if the caller holds [`ranks::TREE_STATE`], the
/// lock every reader and writer of a tree takes, which must never be held
/// across such a call. It compiles to nothing in release builds.
#[inline]
pub fn blocking(what: &str) {
    #[cfg(debug_assertions)]
    held::refuse_blocking_under(ranks::TREE_STATE, what);
    #[cfg(not(debug_assertions))]
    let _ = what;
}

#[cfg(debug_assertions)]
struct HeldToken(u64);

#[cfg(debug_assertions)]
impl Drop for HeldToken {
    fn drop(&mut self) {
        held::release(self.0);
    }
}

/// A `parking_lot::Mutex` that asserts the declared lock order in debug
/// builds. See the module docs.
pub struct OrderedMutex<T: ?Sized> {
    #[cfg(debug_assertions)]
    rank: LockRank,
    inner: parking_lot::Mutex<T>,
}

impl<T> OrderedMutex<T> {
    pub fn new(rank: LockRank, value: T) -> Self {
        #[cfg(not(debug_assertions))]
        let _ = rank;
        Self {
            #[cfg(debug_assertions)]
            rank,
            inner: parking_lot::Mutex::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> OrderedMutex<T> {
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        OrderedMutexGuard {
            #[cfg(debug_assertions)]
            _token: HeldToken(held::acquire(self.rank)),
            inner: self.inner.lock(),
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

pub struct OrderedMutexGuard<'a, T: ?Sized> {
    #[cfg(debug_assertions)]
    _token: HeldToken,
    inner: parking_lot::MutexGuard<'a, T>,
}

impl<T: ?Sized> Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A `parking_lot::RwLock` that asserts the declared lock order in debug
/// builds. Both `read()` and `write()` participate: a nested same-rank read
/// is flagged too, because it deadlocks the moment a writer is queued
/// between the two read acquisitions.
pub struct OrderedRwLock<T: ?Sized> {
    #[cfg(debug_assertions)]
    rank: LockRank,
    inner: parking_lot::RwLock<T>,
}

impl<T> OrderedRwLock<T> {
    pub fn new(rank: LockRank, value: T) -> Self {
        #[cfg(not(debug_assertions))]
        let _ = rank;
        Self {
            #[cfg(debug_assertions)]
            rank,
            inner: parking_lot::RwLock::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> OrderedRwLock<T> {
    pub fn read(&self) -> OrderedRwLockReadGuard<'_, T> {
        OrderedRwLockReadGuard {
            #[cfg(debug_assertions)]
            _token: HeldToken(held::acquire(self.rank)),
            inner: self.inner.read(),
        }
    }

    pub fn write(&self) -> OrderedRwLockWriteGuard<'_, T> {
        OrderedRwLockWriteGuard {
            #[cfg(debug_assertions)]
            _token: HeldToken(held::acquire(self.rank)),
            inner: self.inner.write(),
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for OrderedRwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

pub struct OrderedRwLockReadGuard<'a, T: ?Sized> {
    #[cfg(debug_assertions)]
    _token: HeldToken,
    inner: parking_lot::RwLockReadGuard<'a, T>,
}

impl<T: ?Sized> Deref for OrderedRwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

pub struct OrderedRwLockWriteGuard<'a, T: ?Sized> {
    #[cfg(debug_assertions)]
    _token: HeldToken,
    inner: parking_lot::RwLockWriteGuard<'a, T>,
}

impl<T: ?Sized> Deref for OrderedRwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for OrderedRwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Barrier;

    const LO: LockRank = LockRank { order: 10, name: "lo" };
    const HI: LockRank = LockRank { order: 20, name: "hi" };

    #[test]
    fn in_order_nesting_and_reuse() {
        let lo = OrderedMutex::new(LO, 1);
        let hi = OrderedRwLock::new(HI, 2);
        {
            let a = lo.lock();
            let b = hi.read();
            assert_eq!(*a + *b, 3);
            // Out-of-order *release* is fine; only acquisition is ranked.
            drop(a);
            drop(b);
        }
        // The stack drained, so the sequence is repeatable.
        let _a = lo.lock();
        let _b = hi.write();
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "detector compiles out in release")]
    fn out_of_order_acquisition_panics() {
        let lo = OrderedMutex::new(LO, ());
        let hi = OrderedMutex::new(HI, ());
        let _hi_guard = hi.lock();
        let err = catch_unwind(AssertUnwindSafe(|| {
            let _ = lo.lock();
        }))
        .expect_err("acquiring rank 10 under rank 20 must panic in debug");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("lock-order violation"), "unexpected panic: {msg}");
        assert!(msg.contains("'lo'") && msg.contains("'hi'"), "unexpected panic: {msg}");
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "detector compiles out in release")]
    fn nested_same_rank_read_panics() {
        let l = OrderedRwLock::new(HI, ());
        let _outer = l.read();
        let err = catch_unwind(AssertUnwindSafe(|| {
            let _ = l.read();
        }))
        .expect_err("read-under-read of the same rank must panic in debug");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("lock-order violation"), "unexpected panic: {msg}");
    }

    /// A blocking call under the hot tree lock panics; under any other lock,
    /// or once the guard drops, it is legal.
    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "detector compiles out in release")]
    fn blocking_under_tree_state_panics() {
        let state = OrderedRwLock::new(ranks::TREE_STATE, ());
        let cache = OrderedMutex::new(ranks::CACHE_INNER, ());
        let cache_guard = cache.lock();
        blocking("page read");
        drop(cache_guard);
        let guard = state.read();
        let err = catch_unwind(AssertUnwindSafe(|| blocking("page read")))
            .expect_err("blocking under state must panic in debug");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("blocking call 'page read'"), "unexpected panic: {msg}");
        assert!(msg.contains("'state'"), "unexpected panic: {msg}");
        drop(guard);
        blocking("page read");
    }

    /// The classic AB/BA cycle: thread 1 takes lo→hi (legal), thread 2 takes
    /// hi then tries lo. Without the detector this interleaving deadlocks;
    /// with it, thread 2 panics *before* blocking and thread 1 completes.
    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "detector compiles out in release")]
    fn two_thread_cycle_is_detected_not_deadlocked() {
        let lo = OrderedMutex::new(LO, ());
        let hi = OrderedMutex::new(HI, ());
        let both_held = Barrier::new(2);
        std::thread::scope(|s| {
            let t1 = s.spawn(|| {
                let _lo_guard = lo.lock();
                both_held.wait();
                // Blocks until thread 2's hi guard drops after its panic.
                let _hi_guard = hi.lock();
            });
            let t2 = s.spawn(|| {
                let hi_guard = hi.lock();
                both_held.wait();
                // Catch only the offending acquisition, so hi_guard drops
                // normally (no poisoned-lock noise for thread 1).
                let err = catch_unwind(AssertUnwindSafe(|| {
                    let _ = lo.lock();
                }))
                .expect_err("cycle edge must panic");
                drop(hi_guard);
                let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
                assert!(msg.contains("lock-order violation"), "unexpected panic: {msg}");
            });
            t1.join().expect("thread 1 must complete once the cycle is broken");
            t2.join().expect("thread 2 assertions failed");
        });
    }
}
