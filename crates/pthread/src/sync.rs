//! Blocking synchronization primitives: mutexes, condition variables,
//! semaphores, and barriers.
//!
//! These are the "rich Pthreads functionality" the paper emphasizes its
//! scheduler supports (unlike Cilk-style systems restricted to fork/join):
//! a thread that blocks keeps its placeholder in the DF scheduler's ordered
//! queue and resumes at its depth-first position when woken.
//!
//! Handle semantics: each primitive is a cheap clonable handle (like a
//! `pthread_mutex_t*`); clones refer to the same underlying object. Outside
//! a runtime the primitives degrade to plain sequential semantics (locking
//! an unlocked mutex succeeds; blocking would self-deadlock and panics).

use std::cell::{Cell, RefCell, UnsafeCell};
use std::collections::VecDeque;
use std::rc::Rc;

use crate::api::par_ctx;
use crate::runtime::suspend_current;
use crate::thread::{TState, ThreadId, YieldReason};

/// Sentinel owner for lock acquisition outside a runtime.
const NO_THREAD: ThreadId = ThreadId(u32::MAX - 1);

fn current_or_sentinel() -> ThreadId {
    crate::api::current_thread().unwrap_or(NO_THREAD)
}

/// The sync-operation boundary every primitive (rwlock included) crosses
/// on entry: charges the op, then offers the timeslice and the chooser's
/// boundary-yield fault site.
pub(crate) fn charge_sync_op() {
    if let Some(rc) = par_ctx() {
        {
            let mut inner = rc.borrow_mut();
            // Lenient on context: stall-teardown destructors (guard drops,
            // TLS values) release primitives with no current thread.
            let Some((_, p)) = inner.cur else {
                return;
            };
            let c = inner.machine.cost().sync_op;
            inner.machine.sync_op(p, c);
        }
        crate::runtime::maybe_timeslice(&rc);
        // Sync boundaries are where a real SMP's involuntary preemption
        // exposes protocol windows, and where threads hold locks. Same
        // Running-state guard as the timeslice: a thread already on a wait
        // queue must not also be requeued as ready.
        let preempt = {
            let mut inner = rc.borrow_mut();
            let Some((tid, p)) = inner.cur else {
                return;
            };
            inner.threads[tid.index()].state == TState::Running(p) && inner.chooser.boundary_yield()
        };
        if preempt {
            suspend_current(&rc, YieldReason::Yielded);
        }
    }
}

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

struct MutexState {
    /// Per-run trace id, assigned at first engine interaction.
    id: Cell<Option<u32>>,
    owner: Cell<Option<ThreadId>>,
    waiters: RefCell<VecDeque<ThreadId>>,
}

struct MutexInner<T: ?Sized> {
    /// Behind an `Rc` so the timed-wait eviction hook (a `'static` closure
    /// stored on the TCB) can capture the queue without borrowing `T`.
    state: Rc<MutexState>,
    value: UnsafeCell<T>,
}

/// A blocking mutual-exclusion lock protecting a `T`.
///
/// Lock handoff is direct: `unlock` transfers ownership to the first waiter
/// (FIFO), which avoids barging and makes the timing model simple.
pub struct Mutex<T> {
    inner: Rc<MutexInner<T>>,
}

impl<T> Clone for Mutex<T> {
    fn clone(&self) -> Self {
        Mutex {
            inner: self.inner.clone(),
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mutex")
            .field("locked", &self.inner.state.owner.get().is_some())
            .finish()
    }
}

/// RAII guard; unlocks on drop.
pub struct MutexGuard<'a, T> {
    mutex: &'a Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a mutex protecting `value`.
    pub fn new(value: T) -> Self {
        Mutex {
            inner: Rc::new(MutexInner {
                state: Rc::new(MutexState {
                    id: Cell::new(None),
                    owner: Cell::new(None),
                    waiters: RefCell::new(VecDeque::new()),
                }),
                value: UnsafeCell::new(value),
            }),
        }
    }

    /// Acquires the lock, blocking the calling thread if necessary.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        charge_sync_op();
        let me = current_or_sentinel();
        match par_ctx() {
            Some(rc) => {
                // Cancellation point: deliver a latched request before
                // touching the wait queue.
                crate::runtime::deliver_cancel(&rc);
                let must_block = {
                    let st = &self.inner.state;
                    if st.owner.get().is_none() {
                        st.owner.set(Some(me));
                        false
                    } else {
                        let owner = st.owner.get().expect("contended lock with no owner");
                        let mut inner = rc.borrow_mut();
                        let obj = inner.sync_id_for(&st.id);
                        // Publish the live holder and probe the prospective
                        // waits-for edge *before* enqueueing: a closed cycle
                        // (including the recursive self-lock) unwinds as a
                        // structured DeadlockError instead of blocking a
                        // doomed thread. The unwind releases every guard the
                        // thread holds, so its cycle peers can proceed.
                        inner.note_holders(obj, vec![owner]);
                        if let Some(info) = inner.check_for_cycle(me, Some(obj), None) {
                            inner.record_deadlock(&info);
                            if st.waiters.borrow().is_empty() {
                                inner.note_holders(obj, Vec::new());
                            }
                            drop(inner);
                            std::panic::panic_any(crate::DeadlockError { info });
                        }
                        st.waiters.borrow_mut().push_back(me);
                        inner.block_current(crate::trace::BlockReason::Mutex, Some(obj), None);
                        // Cancellation eviction: a cancel_wake withdraws our
                        // queue entry (and retires the sentinel's holders
                        // edge if the queue drained) so no later unlock can
                        // hand the lock to the unwinding waiter.
                        let st2 = self.inner.state.clone();
                        inner.arm_block_evict(Box::new(move |eng, t| {
                            st2.waiters.borrow_mut().retain(|&w| w != t);
                            if st2.waiters.borrow().is_empty() {
                                let obj = eng.sync_id_for(&st2.id);
                                eng.note_holders(obj, Vec::new());
                            }
                        }));
                        true
                    }
                };
                if must_block {
                    suspend_current(&rc, YieldReason::Blocked);
                    // Cancelled while blocked: unwind without the lock.
                    crate::runtime::unwind_if_cancel_woken(&rc);
                    // Direct handoff: the unlocker made us the owner.
                    debug_assert_eq!(self.inner.state.owner.get(), Some(me));
                }
            }
            None => {
                assert!(
                    self.inner.state.owner.get().is_none(),
                    "mutex contended outside a runtime: would deadlock"
                );
                self.inner.state.owner.set(Some(me));
            }
        }
        MutexGuard { mutex: self }
    }

    /// Like [`Mutex::lock`], but gives up after `timeout` of virtual time,
    /// returning [`crate::TimedOut`] instead of a guard.
    ///
    /// Timed waits are exempt from the deadlock sentinel — the deadline
    /// itself guarantees progress — which makes this the building block for
    /// deadlock *recovery* (pair it with [`crate::backoff::Backoff`]).
    pub fn lock_timeout(
        &self,
        timeout: ptdf_smp::VirtTime,
    ) -> Result<MutexGuard<'_, T>, crate::TimedOut> {
        charge_sync_op();
        let me = current_or_sentinel();
        let st = &self.inner.state;
        let Some(rc) = par_ctx() else {
            // Outside a runtime no other thread can release the lock: an
            // uncontended acquire succeeds, a contended one times out
            // immediately (there is no virtual clock to wait on).
            if st.owner.get().is_none() {
                st.owner.set(Some(me));
                return Ok(MutexGuard { mutex: self });
            }
            return Err(crate::TimedOut);
        };
        // Cancellation point: deliver a latched request before touching the
        // wait queue.
        crate::runtime::deliver_cancel(&rc);
        if st.owner.get().is_none() {
            st.owner.set(Some(me));
            return Ok(MutexGuard { mutex: self });
        }
        {
            let mut inner = rc.borrow_mut();
            let obj = inner.sync_id_for(&st.id);
            st.waiters.borrow_mut().push_back(me);
            inner.block_current(crate::trace::BlockReason::Mutex, Some(obj), None);
            // Eager eviction: the moment the deadline fires, withdraw our
            // queue entry (and retire the sentinel's holders edge if the
            // queue drained) so no later unlock can hand the lock to a
            // waiter that already gave up.
            let st2 = self.inner.state.clone();
            inner.arm_timed_wait_evicting(
                timeout,
                Box::new(move |eng, t| {
                    st2.waiters.borrow_mut().retain(|&w| w != t);
                    if st2.waiters.borrow().is_empty() {
                        let obj = eng.sync_id_for(&st2.id);
                        eng.note_holders(obj, Vec::new());
                    }
                }),
            );
        }
        suspend_current(&rc, YieldReason::Blocked);
        // Cancelled while blocked: unwind without the lock.
        crate::runtime::unwind_if_cancel_woken(&rc);
        {
            let mut inner = rc.borrow_mut();
            if inner.consume_timeout() {
                // The eviction hook already withdrew our entry.
                debug_assert!(!st.waiters.borrow().contains(&me));
                if st.waiters.borrow().is_empty() {
                    let obj = inner.sync_id_for(&st.id);
                    inner.note_holders(obj, Vec::new());
                }
                drop(inner);
                // A timed wait's expiry resumption is itself a cancellation
                // point: deliver a request that raced the deadline and lost.
                crate::runtime::deliver_cancel(&rc);
                return Err(crate::TimedOut);
            }
        }
        // Direct handoff: the unlocker made us the owner.
        debug_assert_eq!(st.owner.get(), Some(me));
        Ok(MutexGuard { mutex: self })
    }

    /// Attempts the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        charge_sync_op();
        let st = &self.inner.state;
        if st.owner.get().is_none() {
            st.owner.set(Some(current_or_sentinel()));
            Some(MutexGuard { mutex: self })
        } else {
            None
        }
    }

    /// Whether the mutex is currently held.
    pub fn is_locked(&self) -> bool {
        self.inner.state.owner.get().is_some()
    }

    /// Consumes the mutex, returning the protected value (fails if other
    /// handles still share it).
    pub fn into_inner(self) -> Result<T, Mutex<T>> {
        assert!(!self.is_locked(), "into_inner on a locked mutex");
        match Rc::try_unwrap(self.inner) {
            Ok(inner) => Ok(inner.value.into_inner()),
            Err(inner) => Err(Mutex { inner }),
        }
    }

    fn unlock(&self) {
        charge_sync_op();
        let st = &self.inner.state;
        let nwaiters = st.waiters.borrow().len() as u64;
        let ctx = par_ctx();
        let mut inner = match ctx.as_ref() {
            Some(rc) => rc.try_borrow_mut().ok(),
            None => None,
        };
        // Hand off to the next waiter. Strict grant: keep only
        // entries whose thread is still blocked *on this mutex* — eager
        // eviction already withdrew timed-out waiters, this retain is the
        // second line of defense — and let the schedule oracle pick among
        // them (index 0, FIFO, is the natural choice).
        let next = match inner.as_deref_mut() {
            Some(eng) => {
                let obj = eng.sync_id_for(&st.id);
                st.waiters.borrow_mut().retain(|&w| eng.blocked_on(w, obj));
                let n = st.waiters.borrow().len();
                if n == 0 {
                    None
                } else {
                    let i = eng.grant_pick(obj, n);
                    st.waiters.borrow_mut().remove(i)
                }
            }
            None => st.waiters.borrow_mut().pop_front(),
        };
        match next {
            Some(w) => {
                // Ownership transfers *before* the wake is published, so
                // the resumed waiter can assert the handoff.
                st.owner.set(Some(w));
                if let Some(inner) = inner.as_deref_mut() {
                    if let Some((_, p)) = inner.cur {
                        let obj = inner.sync_id_for(&st.id);
                        inner.note_sync(crate::trace::BlockReason::Mutex, obj, nwaiters, 1);
                        // Sentinel registry: `w` is the holder now; retire
                        // the entry when the queue drained.
                        if st.waiters.borrow().is_empty() {
                            inner.note_holders(obj, Vec::new());
                        } else {
                            inner.note_holders(obj, vec![w]);
                        }
                        // Guarded wake: never wake a thread that is not
                        // blocked, even if a stale entry slipped past the
                        // retain above.
                        if inner.thread_is_blocked(w) {
                            inner.make_ready(w, p);
                        }
                    }
                }
            }
            None => st.owner.set(None),
        }
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the guard witnesses exclusive logical ownership.
        unsafe { &*self.mutex.inner.value.get() }
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as above.
        unsafe { &mut *self.mutex.inner.value.get() }
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        self.mutex.unlock();
    }
}

// ---------------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------------

#[derive(Default)]
struct CvState {
    /// Per-run trace id, assigned at first engine interaction.
    id: Cell<Option<u32>>,
    waiters: RefCell<VecDeque<ThreadId>>,
}

/// A condition variable; pairs with [`Mutex`] as `pthread_cond_t` pairs with
/// `pthread_mutex_t`.
#[derive(Clone, Default)]
pub struct Condvar {
    state: Rc<CvState>,
}

impl Condvar {
    /// New condition variable.
    pub fn new() -> Self {
        Self::default()
    }

    /// Atomically releases `guard` and blocks until notified; re-acquires
    /// the mutex before returning.
    ///
    /// There is no naked-notify window here: the waiter is appended to the
    /// wait list *before* the mutex is released, and the engine runs no
    /// other thread between the two steps (the single preemption hook on
    /// the unlock path, `runtime::maybe_timeslice` — and the chooser's
    /// boundary yield — refuses to yield a thread whose state is already
    /// `Blocked`). A notifier therefore either sees the waiter on the list
    /// or runs strictly before the wait began.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let rc = par_ctx().expect("Condvar::wait requires a runtime");
        // Cancellation point on entry (the unwind drops `guard`, releasing
        // the mutex). A cancel delivered *during* the wait unwinds without
        // re-acquiring the mutex — see the crate::cancel module docs.
        crate::runtime::deliver_cancel(&rc);
        let mutex = guard.mutex;
        let me = crate::api::current_thread().expect("wait outside a thread");
        {
            self.state.waiters.borrow_mut().push_back(me);
            let mut inner = rc.borrow_mut();
            let obj = inner.sync_id_for(&self.state.id);
            inner.block_current(crate::trace::BlockReason::Condvar, Some(obj), None);
            // Cancellation eviction: a cancel_wake withdraws us from the
            // wait list so no later notify is spent on the unwinding
            // waiter.
            let st2 = self.state.clone();
            inner.arm_block_evict(Box::new(move |_eng, t| {
                st2.waiters.borrow_mut().retain(|&w| w != t);
            }));
            // Fault site: occasionally arm a short artificial deadline so
            // this wait returns *spuriously* — POSIX sanctions spurious
            // wakeups, and callers in the canonical `wait_while` idiom must
            // tolerate them. Confined to condvars: every other primitive's
            // resume protocol asserts a real handoff happened. The
            // eviction hook armed above withdraws the timed-out waiter too.
            if let Some(timeout) = inner.chooser.spurious_wake() {
                inner.arm_timed_wait(timeout);
            }
        }
        drop(guard); // releases the mutex (may hand it to a lock waiter)
        suspend_current(&rc, YieldReason::Blocked);
        // Cancelled while waiting: unwind, deliberately without
        // re-acquiring the mutex (the guard was consumed at entry).
        crate::runtime::unwind_if_cancel_woken(&rc);
        {
            let mut inner = rc.borrow_mut();
            if inner.consume_timeout() {
                // Spurious wake: withdraw from the wait list so a later
                // notify is not charged for a wake it never delivered.
                self.state.waiters.borrow_mut().retain(|&w| w != me);
            }
        }
        mutex.lock()
    }

    /// Blocks until `cond(&mut value)` is false, re-checking after every
    /// wakeup (`pthread_cond_wait` in its canonical while-loop idiom).
    pub fn wait_while<'a, T>(
        &self,
        mut guard: MutexGuard<'a, T>,
        mut cond: impl FnMut(&mut T) -> bool,
    ) -> MutexGuard<'a, T> {
        while cond(&mut guard) {
            guard = self.wait(guard);
        }
        guard
    }

    /// Like [`Condvar::wait`], but gives up after `timeout` of virtual
    /// time. The mutex is re-acquired either way; `Err(TimedOut)` tells the
    /// caller the deadline passed without a delivered notify.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: ptdf_smp::VirtTime,
    ) -> (MutexGuard<'a, T>, Result<(), crate::TimedOut>) {
        let rc = par_ctx().expect("Condvar::wait_timeout requires a runtime");
        // Cancellation point on entry; a mid-wait cancel unwinds without
        // re-acquiring the mutex, exactly as in [`Condvar::wait`].
        crate::runtime::deliver_cancel(&rc);
        let mutex = guard.mutex;
        let me = crate::api::current_thread().expect("wait outside a thread");
        {
            self.state.waiters.borrow_mut().push_back(me);
            let mut inner = rc.borrow_mut();
            let obj = inner.sync_id_for(&self.state.id);
            inner.block_current(crate::trace::BlockReason::Condvar, Some(obj), None);
            // Eager eviction: a fired deadline withdraws us from the wait
            // list at once, so no later notify is spent on a waiter that
            // already gave up.
            let st2 = self.state.clone();
            inner.arm_timed_wait_evicting(
                timeout,
                Box::new(move |_eng, t| {
                    st2.waiters.borrow_mut().retain(|&w| w != t);
                }),
            );
        }
        drop(guard);
        suspend_current(&rc, YieldReason::Blocked);
        // Cancelled while waiting: unwind without re-acquiring the mutex.
        crate::runtime::unwind_if_cancel_woken(&rc);
        let timed_out = {
            let mut inner = rc.borrow_mut();
            let timed_out = inner.consume_timeout();
            if timed_out {
                // Withdraw from the wait list so a later notify is not
                // charged for a wake it never delivered.
                self.state.waiters.borrow_mut().retain(|&w| w != me);
            }
            timed_out
        };
        if timed_out {
            // The expiry resumption is itself a cancellation point: a
            // request that raced the deadline and lost delivers here,
            // before the mutex is re-acquired.
            crate::runtime::deliver_cancel(&rc);
        }
        let guard = mutex.lock();
        (guard, if timed_out { Err(crate::TimedOut) } else { Ok(()) })
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        charge_sync_op();
        let nwaiters = self.state.waiters.borrow().len() as u64;
        match par_ctx() {
            Some(rc) => {
                let mut inner = rc.borrow_mut();
                let obj = inner.sync_id_for(&self.state.id);
                // Strict grant: keep only waiters still blocked on this
                // condvar (spurious/timed wakes were evicted eagerly; the
                // retain is the second line of defense) and let the oracle
                // pick the recipient.
                let woken = {
                    let eng = &mut *inner;
                    self.state.waiters.borrow_mut().retain(|&w| eng.blocked_on(w, obj));
                    let n = self.state.waiters.borrow().len();
                    if n == 0 {
                        None
                    } else {
                        let i = eng.grant_pick(obj, n);
                        self.state.waiters.borrow_mut().remove(i)
                    }
                };
                inner.note_sync(
                    crate::trace::BlockReason::Condvar,
                    obj,
                    nwaiters,
                    woken.is_some() as u64,
                );
                if let Some(w) = woken {
                    if let Some((_, p)) = inner.cur {
                        // Guarded wake: never wake a thread that is not
                        // blocked, even if a stale entry slipped past the
                        // retain above.
                        if inner.thread_is_blocked(w) {
                            inner.make_ready(w, p);
                        }
                    }
                }
            }
            None => {
                let woken = self.state.waiters.borrow_mut().pop_front();
                assert!(woken.is_none(), "notify requires a runtime");
            }
        }
    }

    /// Wakes all waiters (delivery order is shuffled under schedule
    /// perturbation — simultaneous wakes have no defined order).
    pub fn notify_all(&self) {
        charge_sync_op();
        let mut woken: Vec<_> = self.state.waiters.borrow_mut().drain(..).collect();
        match par_ctx() {
            Some(rc) => {
                let mut inner = rc.borrow_mut();
                let obj = inner.sync_id_for(&self.state.id);
                // Drop waiters that already woke spuriously (or are now
                // blocked on something else); their wake happened and
                // counting them would overstate delivery.
                let eng = &*inner;
                woken.retain(|&w| eng.blocked_on(w, obj));
                inner.wake_order(obj, &mut woken);
                let n = woken.len() as u64;
                inner.note_sync(crate::trace::BlockReason::Condvar, obj, n, n);
                if let Some((_, p)) = inner.cur {
                    for &w in &woken {
                        inner.make_ready(w, p);
                    }
                }
            }
            None => assert!(woken.is_empty(), "notify requires a runtime"),
        }
    }

    /// Number of threads currently waiting.
    pub fn waiter_count(&self) -> usize {
        self.state.waiters.borrow().len()
    }
}

/// Test-only raw wake (the production paths all wake under the borrow they
/// already hold); kept lenient like the other bookkeeping paths.
#[cfg(test)]
fn wake(t: ThreadId) {
    if let Some(rc) = par_ctx() {
        if let Ok(mut inner) = rc.try_borrow_mut() {
            if let Some((_, p)) = inner.cur {
                inner.make_ready(t, p);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Semaphore
// ---------------------------------------------------------------------------

struct SemState {
    /// Per-run trace id, assigned at first engine interaction.
    id: Cell<Option<u32>>,
    permits: Cell<i64>,
    waiters: RefCell<VecDeque<ThreadId>>,
}

/// A counting semaphore (POSIX `sem_t`), used by the paper's Figure 3
/// two-thread synchronization microbenchmark.
#[derive(Clone)]
pub struct Semaphore {
    state: Rc<SemState>,
}

impl Semaphore {
    /// Creates a semaphore with `permits` initial permits.
    pub fn new(permits: i64) -> Self {
        Semaphore {
            state: Rc::new(SemState {
                id: Cell::new(None),
                permits: Cell::new(permits),
                waiters: RefCell::new(VecDeque::new()),
            }),
        }
    }

    /// P / `sem_wait`: takes a permit, blocking while none are available.
    pub fn acquire(&self) {
        charge_sync_op();
        match par_ctx() {
            Some(rc) => {
                // Cancellation point (`sem_wait` is one in POSIX too).
                crate::runtime::deliver_cancel(&rc);
                let must_block = {
                    if self.state.permits.get() > 0 {
                        self.state.permits.set(self.state.permits.get() - 1);
                        false
                    } else {
                        let me = crate::api::current_thread().expect("acquire outside a thread");
                        self.state.waiters.borrow_mut().push_back(me);
                        let mut inner = rc.borrow_mut();
                        let obj = inner.sync_id_for(&self.state.id);
                        inner.block_current(crate::trace::BlockReason::Semaphore, Some(obj), None);
                        // Cancellation eviction: a cancel_wake withdraws the
                        // entry so no later release spends its permit on the
                        // unwinding waiter.
                        let st2 = self.state.clone();
                        inner.arm_block_evict(Box::new(move |_eng, t| {
                            st2.waiters.borrow_mut().retain(|&w| w != t);
                        }));
                        true
                    }
                };
                if must_block {
                    // Direct handoff: the releaser consumed the permit for us.
                    suspend_current(&rc, YieldReason::Blocked);
                    // Cancelled while blocked: unwind without the permit.
                    crate::runtime::unwind_if_cancel_woken(&rc);
                }
            }
            None => {
                assert!(
                    self.state.permits.get() > 0,
                    "semaphore acquire would deadlock outside a runtime"
                );
                self.state.permits.set(self.state.permits.get() - 1);
            }
        }
    }

    /// Timed P: takes a permit, giving up with [`crate::TimedOut`] if none
    /// arrived within `timeout` of virtual time.
    pub fn acquire_timeout(&self, timeout: ptdf_smp::VirtTime) -> Result<(), crate::TimedOut> {
        charge_sync_op();
        let st = &*self.state;
        let Some(rc) = par_ctx() else {
            // Outside a runtime nobody can release: succeed or time out now.
            if st.permits.get() > 0 {
                st.permits.set(st.permits.get() - 1);
                return Ok(());
            }
            return Err(crate::TimedOut);
        };
        // Cancellation point (`sem_timedwait` is one in POSIX too).
        crate::runtime::deliver_cancel(&rc);
        if st.permits.get() > 0 {
            st.permits.set(st.permits.get() - 1);
            return Ok(());
        }
        let me = crate::api::current_thread().expect("acquire outside a thread");
        {
            st.waiters.borrow_mut().push_back(me);
            let mut inner = rc.borrow_mut();
            let obj = inner.sync_id_for(&st.id);
            inner.block_current(crate::trace::BlockReason::Semaphore, Some(obj), None);
            // Eager eviction: when the deadline fires mid-queue the entry
            // is withdrawn immediately, so a later `release` can never
            // spend its permit on the timed-out slot and strand the next
            // FIFO waiter (the stale-grant bug the explorer flushed out).
            let st2 = self.state.clone();
            inner.arm_timed_wait_evicting(
                timeout,
                Box::new(move |_eng, t| {
                    st2.waiters.borrow_mut().retain(|&w| w != t);
                }),
            );
        }
        suspend_current(&rc, YieldReason::Blocked);
        // Cancelled while blocked: unwind without the permit.
        crate::runtime::unwind_if_cancel_woken(&rc);
        let mut inner = rc.borrow_mut();
        if inner.consume_timeout() {
            // The eviction hook already withdrew our entry.
            debug_assert!(!st.waiters.borrow().contains(&me));
            drop(inner);
            // Expiry resumption is a cancellation point: deliver a request
            // that raced the deadline and lost.
            crate::runtime::deliver_cancel(&rc);
            return Err(crate::TimedOut);
        }
        // Direct handoff: the releaser consumed the permit for us.
        Ok(())
    }

    /// Non-blocking P: takes a permit if one is available.
    pub fn try_acquire(&self) -> bool {
        charge_sync_op();
        if self.state.permits.get() > 0 {
            self.state.permits.set(self.state.permits.get() - 1);
            true
        } else {
            false
        }
    }

    /// V / `sem_post`: returns a permit, waking the longest-blocked waiter
    /// (FIFO) if one may now proceed.
    ///
    /// While the permit count is negative — a "debt" from constructing the
    /// semaphore with a negative initial value — releases pay the debt
    /// down toward zero *before* any waiter is woken. (The previous
    /// behaviour handed the permit to a waiter whenever one was queued,
    /// which let an acquirer through while the semaphore still owed
    /// releases: `new(-2)` acted like `new(0)` the moment a waiter
    /// blocked.)
    pub fn release(&self) {
        charge_sync_op();
        let st = &*self.state;
        if st.permits.get() < 0 {
            st.permits.set(st.permits.get() + 1);
            return;
        }
        let nwaiters = st.waiters.borrow().len() as u64;
        let ctx = par_ctx();
        let mut inner = match ctx.as_ref() {
            Some(rc) => rc.try_borrow_mut().ok(),
            None => None,
        };
        // Strict grant: keep only entries whose thread is still
        // blocked on this semaphore — eager eviction already withdrew
        // timed-out waiters; the retain is the second line of defense —
        // and let the schedule oracle pick the recipient.
        let woken = match inner.as_deref_mut() {
            Some(eng) => {
                let obj = eng.sync_id_for(&st.id);
                st.waiters.borrow_mut().retain(|&w| eng.blocked_on(w, obj));
                let n = st.waiters.borrow().len();
                if n == 0 {
                    None
                } else {
                    let i = eng.grant_pick(obj, n);
                    st.waiters.borrow_mut().remove(i)
                }
            }
            None => st.waiters.borrow_mut().pop_front(),
        };
        match woken {
            Some(w) => {
                // Direct handoff: the permit is consumed on the waiter's
                // behalf (never parked in `permits`, so a concurrent
                // `try_acquire` cannot steal it from under the wake).
                if let Some(inner) = inner.as_deref_mut() {
                    let obj = inner.sync_id_for(&st.id);
                    inner.note_sync(crate::trace::BlockReason::Semaphore, obj, nwaiters, 1);
                    if let Some((_, p)) = inner.cur {
                        // Guarded wake: never wake a thread that is not
                        // blocked, even if a stale entry slipped past the
                        // retain above.
                        if inner.thread_is_blocked(w) {
                            inner.make_ready(w, p);
                        }
                    }
                }
            }
            None => st.permits.set(st.permits.get() + 1),
        }
    }

    /// Current permit count.
    pub fn permits(&self) -> i64 {
        self.state.permits.get()
    }
}

// ---------------------------------------------------------------------------
// Barrier
// ---------------------------------------------------------------------------

struct BarrierState {
    /// Per-run trace id, assigned at first engine interaction.
    id: Cell<Option<u32>>,
    n: usize,
    count: Cell<usize>,
    /// Completed-round counter. Bumped by the leader *before* it wakes
    /// anyone, so back-to-back reuse (a woken thread re-entering `wait`
    /// while earlier waiters are still being delivered) always joins a
    /// fresh round, and a resumed waiter can assert its own round closed.
    generation: Cell<u64>,
    waiters: RefCell<Vec<ThreadId>>,
}

/// A reusable barrier for `n` threads (the coarse-grained SPMD benchmarks
/// synchronize phases with one of these, as in SPLASH-2).
#[derive(Clone)]
pub struct Barrier {
    state: Rc<BarrierState>,
}

impl Barrier {
    /// Creates a barrier for `n` participants.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        Barrier {
            state: Rc::new(BarrierState {
                id: Cell::new(None),
                n,
                count: Cell::new(0),
                generation: Cell::new(0),
                waiters: RefCell::new(Vec::new()),
            }),
        }
    }

    /// Blocks until all `n` participants arrive. Returns `true` on the
    /// leader (last arriver).
    pub fn wait(&self) -> bool {
        charge_sync_op();
        if self.state.n == 1 {
            return true;
        }
        let rc = par_ctx().expect("Barrier::wait with n > 1 requires a runtime");
        let st = &*self.state;
        let arrived = st.count.get() + 1;
        if arrived == st.n {
            // Leader: close this generation before waking anyone, so the
            // barrier is immediately reusable — a woken thread re-entering
            // `wait` starts round g+1 against fully reset state even while
            // round g's wakes are still being delivered.
            st.count.set(0);
            st.generation.set(st.generation.get().wrapping_add(1));
            let mut woken = std::mem::take(&mut *st.waiters.borrow_mut());
            let mut inner = rc.borrow_mut();
            let obj = inner.sync_id_for(&st.id);
            inner.wake_order(obj, &mut woken);
            let n = woken.len() as u64;
            inner.note_sync(crate::trace::BlockReason::Barrier, obj, n, n);
            if let Some((_, p)) = inner.cur {
                for w in woken {
                    inner.make_ready(w, p);
                }
            }
            true
        } else {
            st.count.set(arrived);
            let gen = st.generation.get();
            {
                let me = crate::api::current_thread().expect("barrier outside a thread");
                st.waiters.borrow_mut().push(me);
                let mut inner = rc.borrow_mut();
                let obj = inner.sync_id_for(&st.id);
                inner.block_current(crate::trace::BlockReason::Barrier, Some(obj), None);
            }
            suspend_current(&rc, YieldReason::Blocked);
            // The leader drains the waiter list atomically while bumping
            // the generation, so a resumed waiter must observe its own
            // round closed — a same-generation resume would be a stale
            // wake from a previous round's delivery leaking across reuse.
            assert_ne!(
                st.generation.get(),
                gen,
                "barrier waiter resumed with its own round still open"
            );
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{check_trace, Violation};
    use crate::{run, scope, spawn, Config, SchedKind};

    #[test]
    fn wait_while_loops_until_condition_clears() {
        let (seen, _) = run(Config::new(2, SchedKind::Df), || {
            let q = Mutex::new(0u32);
            let cv = Condvar::new();
            let (q2, cv2) = (q.clone(), cv.clone());
            let producer = spawn(move || {
                for _ in 0..5 {
                    crate::work(10_000);
                    *q2.lock() += 1;
                    cv2.notify_one(); // wakes even when below threshold
                }
            });
            let g = cv.wait_while(q.lock(), |v| *v < 5);
            let seen = *g;
            drop(g);
            producer.join();
            seen
        });
        assert_eq!(seen, 5);
    }

    #[test]
    fn try_acquire_counts_permits() {
        let s = Semaphore::new(2);
        assert!(s.try_acquire());
        assert!(s.try_acquire());
        assert!(!s.try_acquire());
        s.release();
        assert!(s.try_acquire());
    }

    #[test]
    fn mutex_into_inner_roundtrip() {
        let m = Mutex::new(vec![1, 2, 3]);
        let m2 = m.clone();
        // Shared: must fail and give the handle back.
        let m = m.into_inner().unwrap_err();
        drop(m2);
        assert_eq!(m.into_inner().unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn semaphore_negative_permits_require_extra_releases() {
        // Regression: release() used to hand the permit to any queued
        // waiter even while the count was negative, making `new(-2)`
        // behave like `new(0)` — the waiter must only run after the debt
        // is paid *and* one real permit arrives (3 releases for -2).
        let (order, _) = run(Config::new(2, SchedKind::Fifo), || {
            let s = Semaphore::new(-2);
            let log = Mutex::new(Vec::<&'static str>::new());
            let (s2, log2) = (s.clone(), log.clone());
            let h = spawn(move || {
                s2.acquire();
                log2.lock().push("acquired");
            });
            while s.state.waiters.borrow().is_empty() {
                crate::yield_now();
            }
            for _ in 0..3 {
                log.lock().push("release");
                s.release();
            }
            h.join();
            assert_eq!(s.permits(), 0, "handoff consumed the permit directly");
            let v = log.lock().clone();
            v
        });
        assert_eq!(order, ["release", "release", "release", "acquired"]);
    }

    #[test]
    fn semaphore_negative_permits_nonblocking_accounting() {
        let s = Semaphore::new(-1);
        assert!(!s.try_acquire(), "in debt: nothing to take");
        s.release();
        assert_eq!(s.permits(), 0);
        assert!(!s.try_acquire(), "debt paid but no permit yet");
        s.release();
        assert_eq!(s.permits(), 1);
        assert!(s.try_acquire());
        assert!(!s.try_acquire());
    }

    #[test]
    fn semaphore_wakes_waiters_in_fifo_order() {
        // p=1 FIFO makes the blocking order deterministic (spawn order);
        // releases must then admit waiters strictly first-come-first-served.
        let (order, _) = run(Config::new(1, SchedKind::Fifo), || {
            let s = Semaphore::new(0);
            let log = Mutex::new(Vec::new());
            let handles: Vec<_> = (0..3)
                .map(|i| {
                    let (s2, log2) = (s.clone(), log.clone());
                    spawn(move || {
                        s2.acquire();
                        log2.lock().push(i);
                    })
                })
                .collect();
            while s.state.waiters.borrow().len() < 3 {
                crate::yield_now();
            }
            for _ in 0..3 {
                s.release();
            }
            for h in handles {
                h.join();
            }
            let v = log.lock().clone();
            v
        });
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn no_naked_notify_window_under_perturbation() {
        // Satellite audit of Condvar::notify_one vs a racing wait: the
        // waiter enqueues itself *before* releasing the mutex and the
        // engine's yield hooks refuse to preempt a thread that is already
        // Blocked, so no schedule can slip a notify between the predicate
        // check and the block. Fuzz the claim across perturbed schedules
        // and prove every trace causally clean.
        for kind in [SchedKind::Fifo, SchedKind::Ws] {
            for seed in 0..16u64 {
                let cfg = Config::new(4, kind).with_trace().with_perturbation(seed);
                let (_, report) = run(cfg, || {
                    let m = Mutex::new(0u32);
                    let cv = Condvar::new();
                    scope(|s| {
                        for _ in 0..4 {
                            let (m, cv) = (m.clone(), cv.clone());
                            s.spawn(move || {
                                let mut g = m.lock();
                                *g += 1;
                                cv.notify_one(); // often naked: nobody waits yet
                                g = cv.wait_while(g, |v| *v < 4);
                                drop(g);
                                cv.notify_one(); // unblock the next waiter
                            });
                        }
                    });
                    assert_eq!(*m.lock(), 4);
                });
                let check = check_trace(&report.trace.unwrap());
                assert!(
                    check.is_clean(),
                    "{kind:?} seed {seed}: {:?}",
                    check.violations
                );
            }
        }
    }

    #[test]
    fn barrier_immediate_reuse_under_perturbation() {
        // Back-to-back rounds with zero work between them: a woken thread
        // re-enters `wait` while the previous round's wakes are still
        // being delivered (in shuffled order under perturbation). The
        // generation assert inside `wait` catches stale-round wakes; the
        // checker proves block/wake pairing for every round.
        for seed in 0..16u64 {
            let cfg = Config::new(4, SchedKind::Ws)
                .with_trace()
                .with_perturbation(seed);
            let (_, report) = run(cfg, || {
                let b = Barrier::new(4);
                let hits = Mutex::new(vec![0u32; 8]);
                scope(|s| {
                    for _ in 0..4 {
                        let (b, hits) = (b.clone(), hits.clone());
                        s.spawn(move || {
                            for round in 0..8 {
                                b.wait();
                                hits.lock()[round] += 1;
                            }
                        });
                    }
                });
                let v = hits.lock().clone();
                assert_eq!(v, vec![4; 8], "every round must see all 4 threads");
            });
            let check = check_trace(&report.trace.unwrap());
            assert!(check.is_clean(), "seed {seed}: {:?}", check.violations);
        }
    }

    #[test]
    fn checker_catches_a_dropped_notify() {
        // Acceptance: an intentionally lossy condvar — records the Notify
        // a real notify_one would have published, then drops the wake on
        // the floor — must be flagged by the checker. (A rescue wake lets
        // the run terminate; the lie is already in the trace.)
        let (_, report) = run(Config::new(2, SchedKind::Fifo).with_trace(), || {
            let m = Mutex::new(());
            let cv = Condvar::new();
            let (m2, cv2) = (m.clone(), cv.clone());
            let h = spawn(move || {
                let g = m2.lock();
                let _g = cv2.wait(g);
            });
            while cv.waiter_count() == 0 {
                crate::yield_now();
            }
            let w = cv.state.waiters.borrow_mut().pop_front().expect("one waiter");
            {
                let rc = par_ctx().expect("runtime");
                let mut inner = rc.borrow_mut();
                let obj = inner.sync_id_for(&cv.state.id);
                inner.note_sync(crate::trace::BlockReason::Condvar, obj, 1, 0);
            }
            wake(w);
            h.join();
        });
        let check = check_trace(&report.trace.unwrap());
        assert!(
            check
                .violations
                .iter()
                .any(|v| matches!(v, Violation::LostNotify { waiters: 1, .. })),
            "lossy notify must be flagged, got {:?}",
            check.violations
        );
    }

    #[test]
    fn wait_while_under_contention() {
        let (total, _) = run(Config::new(4, SchedKind::Ws), || {
            let slots = Mutex::new(3i32);
            let cv = Condvar::new();
            let done = Mutex::new(0u32);
            scope(|s| {
                for _ in 0..12 {
                    let (slots, cv, done) = (slots.clone(), cv.clone(), done.clone());
                    s.spawn(move || {
                        // Acquire one of 3 slots, work, release.
                        let mut g = cv.wait_while(slots.lock(), |v| *v == 0);
                        *g -= 1;
                        drop(g);
                        crate::work(5_000);
                        *slots.lock() += 1;
                        cv.notify_one();
                        *done.lock() += 1;
                    });
                }
            });
            let v = *done.lock();
            v
        });
        assert_eq!(total, 12);
    }
}
