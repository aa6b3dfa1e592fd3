//! Reader-writer lock (`pthread_rwlock_t`).
//!
//! Writer-preferring: once a writer is queued, new readers block behind it,
//! avoiding writer starvation. Blocking threads keep their DF-queue
//! placeholder like every other blocking primitive.

use std::cell::{Cell, RefCell, UnsafeCell};
use std::collections::VecDeque;
use std::rc::Rc;

use crate::api::par_ctx;
use crate::runtime::suspend_current;
use crate::sync::charge_sync_op;
use crate::thread::{ThreadId, YieldReason};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Waiter {
    Reader(ThreadId),
    Writer(ThreadId),
}

struct RwState {
    /// Per-run trace id, assigned at first engine interaction.
    id: Cell<Option<u32>>,
    /// Active readers (writer active is represented by `writer`).
    readers: Cell<usize>,
    writer: Cell<bool>,
    /// Identity of the active writer / readers, for the deadlock sentinel's
    /// waits-for graph. Best-effort: acquisitions outside a runtime (no
    /// thread id) are counted in `readers`/`writer` but not recorded here.
    writer_id: Cell<Option<ThreadId>>,
    reader_ids: RefCell<Vec<ThreadId>>,
    waiters: RefCell<VecDeque<Waiter>>,
}

impl RwState {
    /// Current holder snapshot: the writer, or the reader set.
    fn holders(&self) -> Vec<ThreadId> {
        if self.writer.get() {
            self.writer_id.get().into_iter().collect()
        } else {
            self.reader_ids.borrow().clone()
        }
    }

    /// The deadlock sentinel's holder entry: the snapshot while waiters are
    /// queued, empty (retired) once the queue drained.
    fn queued_holders(&self) -> Vec<ThreadId> {
        if self.waiters.borrow().is_empty() {
            Vec::new()
        } else {
            self.holders()
        }
    }
}

struct RwInner<T> {
    /// Behind an `Rc` so the timed-wait eviction hook (a `'static` closure
    /// stored on the TCB) can capture the queue without borrowing `T`.
    state: Rc<RwState>,
    value: UnsafeCell<T>,
}

/// Admission pump: wakes whatever the fairness policy admits next — the
/// front writer, or the maximal prefix of readers. A free function over the
/// shared state so both guard drops (which borrow the engine themselves)
/// and the timed-wait eviction hook (which already holds the engine borrow)
/// can run it. With no engine access (`inner` is `None`: outside a runtime,
/// or a teardown-path borrow failure) admission state still advances but
/// wakes and bookkeeping are skipped, like the old lenient `wake_batch`.
fn pump(st: &RwState, mut inner: Option<&mut crate::runtime::Inner>) {
    // Purge entries whose thread is no longer blocked on this lock — a
    // timed-out writer's stale entry at the front must not be admitted (it
    // would install a ghost writer and strand every later acquirer). Eager
    // eviction already withdrew such entries; this retain is the second
    // line of defense.
    if let Some(eng) = inner.as_deref_mut() {
        let obj = eng.sync_id_for(&st.id);
        st.waiters.borrow_mut().retain(|w| {
            let t = match *w {
                Waiter::Reader(t) | Waiter::Writer(t) => t,
            };
            eng.blocked_on(t, obj)
        });
    }
    let nwaiters = st.waiters.borrow().len() as u64;
    enum Admit {
        Writer(ThreadId),
        Readers(Vec<ThreadId>),
        Nobody,
    }
    let admit = {
        let mut waiters = st.waiters.borrow_mut();
        match waiters.front().copied() {
            Some(Waiter::Writer(w)) if st.readers.get() == 0 && !st.writer.get() => {
                waiters.pop_front();
                Admit::Writer(w)
            }
            Some(Waiter::Reader(_)) if !st.writer.get() => {
                let mut woken = Vec::new();
                while let Some(Waiter::Reader(r)) = waiters.front().copied() {
                    waiters.pop_front();
                    woken.push(r);
                }
                Admit::Readers(woken)
            }
            _ => Admit::Nobody,
        }
    };
    match admit {
        Admit::Writer(w) => {
            st.writer.set(true);
            st.writer_id.set(Some(w));
            wake_admitted(st, inner, crate::trace::BlockReason::RwWrite, nwaiters, vec![w]);
        }
        Admit::Readers(batch) => {
            for &r in &batch {
                st.readers.set(st.readers.get() + 1);
                st.reader_ids.borrow_mut().push(r);
            }
            wake_admitted(st, inner, crate::trace::BlockReason::RwRead, nwaiters, batch);
        }
        Admit::Nobody => {
            // Nothing admissible: still refresh (or retire) the sentinel's
            // holder snapshot — an eviction may just have drained the queue.
            if let Some(eng) = inner {
                let obj = eng.sync_id_for(&st.id);
                eng.note_holders(obj, st.queued_holders());
            }
        }
    }
}

/// Wakes an admitted batch (delivery order is a schedule decision point,
/// resolved by the run's chooser) and records the
/// handoff for the happens-before checker and the deadlock sentinel.
fn wake_admitted(
    st: &RwState,
    inner: Option<&mut crate::runtime::Inner>,
    reason: crate::trace::BlockReason,
    nwaiters: u64,
    mut batch: Vec<ThreadId>,
) {
    let Some(eng) = inner else { return };
    let Some((_, p)) = eng.cur else { return };
    let obj = eng.sync_id_for(&st.id);
    eng.wake_order(obj, &mut batch);
    eng.note_sync(reason, obj, nwaiters, batch.len() as u64);
    // Sentinel registry: the admitted batch holds the lock now; retire the
    // entry once the queue drained.
    eng.note_holders(obj, st.queued_holders());
    for w in batch {
        // Guarded wake: never wake a thread that is not blocked, even if a
        // stale entry slipped past the purge above.
        if eng.thread_is_blocked(w) {
            eng.make_ready(w, p);
        }
    }
}

/// A blocking readers-writer lock protecting a `T` (handle semantics, like
/// [`crate::Mutex`]).
pub struct RwLock<T> {
    inner: Rc<RwInner<T>>,
}

impl<T> Clone for RwLock<T> {
    fn clone(&self) -> Self {
        RwLock {
            inner: self.inner.clone(),
        }
    }
}

/// Shared (read) guard.
pub struct ReadGuard<'a, T> {
    lock: &'a RwLock<T>,
}

/// Exclusive (write) guard.
pub struct WriteGuard<'a, T> {
    lock: &'a RwLock<T>,
}

/// The calling thread's id, when inside a runtime thread.
fn me() -> Option<ThreadId> {
    crate::api::current_thread()
}

impl<T> RwLock<T> {
    /// Creates an unlocked lock.
    pub fn new(value: T) -> Self {
        RwLock {
            inner: Rc::new(RwInner {
                state: Rc::new(RwState {
                    id: Cell::new(None),
                    readers: Cell::new(0),
                    writer: Cell::new(false),
                    writer_id: Cell::new(None),
                    reader_ids: RefCell::new(Vec::new()),
                    waiters: RefCell::new(VecDeque::new()),
                }),
                value: UnsafeCell::new(value),
            }),
        }
    }

    /// Acquires shared access; blocks while a writer holds or awaits the
    /// lock (writer preference).
    pub fn read(&self) -> ReadGuard<'_, T> {
        charge_sync_op();
        if let Some(rc) = par_ctx() {
            // Cancellation point: deliver a latched request before taking
            // or queueing for the lock.
            crate::runtime::deliver_cancel(&rc);
        }
        let st = &self.inner.state;
        let writer_queued = st
            .waiters
            .borrow()
            .iter()
            .any(|w| matches!(w, Waiter::Writer(_)));
        if !st.writer.get() && !writer_queued {
            st.readers.set(st.readers.get() + 1);
            if let Some(me) = me() {
                st.reader_ids.borrow_mut().push(me);
            }
            return ReadGuard { lock: self };
        }
        let rc = par_ctx().expect("contended rwlock outside a runtime would deadlock");
        let me = crate::api::current_thread().expect("read outside a thread");
        {
            let mut inner = rc.borrow_mut();
            let obj = inner.sync_id_for(&st.id);
            // Publish the live holders and probe the prospective waits-for
            // edge before enqueueing (see Mutex::lock). The edge points at
            // the *actual* holders, skipping any queued writer: a blocked
            // reader transitively waits on whatever the writer waits on.
            inner.note_holders(obj, st.holders());
            if let Some(info) = inner.check_for_cycle(me, Some(obj), None) {
                inner.record_deadlock(&info);
                if st.waiters.borrow().is_empty() {
                    inner.note_holders(obj, Vec::new());
                }
                drop(inner);
                std::panic::panic_any(crate::DeadlockError { info });
            }
            st.waiters.borrow_mut().push_back(Waiter::Reader(me));
            inner.block_current(crate::trace::BlockReason::RwRead, Some(obj), None);
            // Cancellation eviction: a cancel_wake withdraws the queue
            // entry and re-pumps admission (withdrawing a front reader can
            // admit the writer queued behind it).
            let st2 = self.inner.state.clone();
            inner.arm_block_evict(Box::new(move |eng, t| {
                st2.waiters
                    .borrow_mut()
                    .retain(|w| !matches!(*w, Waiter::Reader(x) if x == t));
                pump(&st2, Some(eng));
            }));
        }
        suspend_current(&rc, YieldReason::Blocked);
        // Cancelled while blocked: unwind without the lock.
        crate::runtime::unwind_if_cancel_woken(&rc);
        // Woken by release(): reader count already incremented on our behalf.
        debug_assert!(st.readers.get() > 0);
        ReadGuard { lock: self }
    }

    /// Acquires exclusive access.
    pub fn write(&self) -> WriteGuard<'_, T> {
        charge_sync_op();
        if let Some(rc) = par_ctx() {
            // Cancellation point: deliver a latched request before taking
            // or queueing for the lock.
            crate::runtime::deliver_cancel(&rc);
        }
        let st = &self.inner.state;
        if !st.writer.get() && st.readers.get() == 0 {
            st.writer.set(true);
            st.writer_id.set(me());
            return WriteGuard { lock: self };
        }
        let rc = par_ctx().expect("contended rwlock outside a runtime would deadlock");
        let me = crate::api::current_thread().expect("write outside a thread");
        {
            let mut inner = rc.borrow_mut();
            let obj = inner.sync_id_for(&st.id);
            inner.note_holders(obj, st.holders());
            if let Some(info) = inner.check_for_cycle(me, Some(obj), None) {
                inner.record_deadlock(&info);
                if st.waiters.borrow().is_empty() {
                    inner.note_holders(obj, Vec::new());
                }
                drop(inner);
                std::panic::panic_any(crate::DeadlockError { info });
            }
            st.waiters.borrow_mut().push_back(Waiter::Writer(me));
            inner.block_current(crate::trace::BlockReason::RwWrite, Some(obj), None);
            // Cancellation eviction: a cancel_wake withdraws the queue
            // entry and re-pumps admission (withdrawing a queued writer
            // re-admits readers held back only by writer preference).
            let st2 = self.inner.state.clone();
            inner.arm_block_evict(Box::new(move |eng, t| {
                st2.waiters
                    .borrow_mut()
                    .retain(|w| !matches!(*w, Waiter::Writer(x) if x == t));
                pump(&st2, Some(eng));
            }));
        }
        suspend_current(&rc, YieldReason::Blocked);
        // Cancelled while blocked: unwind without the lock.
        crate::runtime::unwind_if_cancel_woken(&rc);
        debug_assert!(st.writer.get());
        WriteGuard { lock: self }
    }

    /// Attempts shared access without blocking.
    pub fn try_read(&self) -> Option<ReadGuard<'_, T>> {
        charge_sync_op();
        let st = &self.inner.state;
        if !st.writer.get() && st.waiters.borrow().is_empty() {
            st.readers.set(st.readers.get() + 1);
            if let Some(me) = me() {
                st.reader_ids.borrow_mut().push(me);
            }
            Some(ReadGuard { lock: self })
        } else {
            None
        }
    }

    /// Attempts exclusive access without blocking. Like [`RwLock::try_read`]
    /// it also fails while any waiter is queued: an admitted-but-not-yet-run
    /// waiter owns the next turn, and barging past it would hand two
    /// threads the lock's fairness slot at once.
    pub fn try_write(&self) -> Option<WriteGuard<'_, T>> {
        charge_sync_op();
        let st = &self.inner.state;
        if !st.writer.get() && st.readers.get() == 0 && st.waiters.borrow().is_empty() {
            st.writer.set(true);
            st.writer_id.set(me());
            Some(WriteGuard { lock: self })
        } else {
            None
        }
    }

    /// Wakes whatever the fairness policy admits next: either the front
    /// writer, or the maximal prefix of readers (see [`pump`]).
    fn release_next(&self) {
        let ctx = par_ctx();
        let borrowed = ctx.as_ref().map(|rc| rc.try_borrow_mut());
        match borrowed {
            Some(Ok(mut inner)) => pump(&self.inner.state, Some(&mut inner)),
            _ => pump(&self.inner.state, None),
        }
    }

    /// Refreshes the sentinel's holder entry for this lock: the current
    /// holder snapshot while waiters are queued, retired otherwise. Lenient
    /// on context like [`RwLock::wake_batch`].
    fn publish_holders(&self) {
        if let Some(rc) = par_ctx() {
            if let Ok(mut inner) = rc.try_borrow_mut() {
                let st = &self.inner.state;
                let obj = inner.sync_id_for(&st.id);
                inner.note_holders(obj, st.queued_holders());
            }
        }
    }

    /// Like [`RwLock::write`], but gives up after `timeout` of virtual
    /// time, returning [`crate::TimedOut`] instead of a guard.
    ///
    /// Timed waits are exempt from the deadlock sentinel (the deadline
    /// guarantees progress). When the deadline fires the queue entry is
    /// withdrawn *eagerly*, and withdrawing a queued writer immediately
    /// re-admits any readers that were held back only by writer preference
    /// — the fairness re-ordering window this API originally opened is
    /// pinned by the `rwlock_writer_timeout` litmus program.
    pub fn write_timeout(
        &self,
        timeout: ptdf_smp::VirtTime,
    ) -> Result<WriteGuard<'_, T>, crate::TimedOut> {
        charge_sync_op();
        if let Some(rc) = par_ctx() {
            // Cancellation point on entry.
            crate::runtime::deliver_cancel(&rc);
        }
        let st = &self.inner.state;
        if !st.writer.get() && st.readers.get() == 0 {
            st.writer.set(true);
            st.writer_id.set(me());
            return Ok(WriteGuard { lock: self });
        }
        let Some(rc) = par_ctx() else {
            // Outside a runtime nobody can release: time out immediately.
            return Err(crate::TimedOut);
        };
        let me = crate::api::current_thread().expect("write outside a thread");
        {
            let mut inner = rc.borrow_mut();
            let obj = inner.sync_id_for(&st.id);
            st.waiters.borrow_mut().push_back(Waiter::Writer(me));
            inner.block_current(crate::trace::BlockReason::RwWrite, Some(obj), None);
            let st2 = self.inner.state.clone();
            inner.arm_timed_wait_evicting(
                timeout,
                Box::new(move |eng, t| {
                    st2.waiters
                        .borrow_mut()
                        .retain(|w| !matches!(*w, Waiter::Writer(x) if x == t));
                    pump(&st2, Some(eng));
                }),
            );
        }
        suspend_current(&rc, YieldReason::Blocked);
        // Cancelled while blocked: unwind without the lock.
        crate::runtime::unwind_if_cancel_woken(&rc);
        {
            let mut inner = rc.borrow_mut();
            if inner.consume_timeout() {
                // The eviction hook already withdrew the entry (and pumped
                // admission).
                debug_assert!(!st.waiters.borrow().contains(&Waiter::Writer(me)));
                drop(inner);
                self.publish_holders();
                // The expiry resumption is itself a cancellation point.
                crate::runtime::deliver_cancel(&rc);
                return Err(crate::TimedOut);
            }
        }
        debug_assert!(st.writer.get());
        Ok(WriteGuard { lock: self })
    }

    /// Like [`RwLock::read`], but gives up after `timeout` of virtual time,
    /// returning [`crate::TimedOut`] instead of a guard. Deadlock-sentinel
    /// exempt and eagerly evicted on expiry like [`RwLock::write_timeout`]
    /// (withdrawing a front reader can admit the writer queued behind it).
    pub fn read_timeout(
        &self,
        timeout: ptdf_smp::VirtTime,
    ) -> Result<ReadGuard<'_, T>, crate::TimedOut> {
        charge_sync_op();
        if let Some(rc) = par_ctx() {
            // Cancellation point on entry.
            crate::runtime::deliver_cancel(&rc);
        }
        let st = &self.inner.state;
        let writer_queued = st
            .waiters
            .borrow()
            .iter()
            .any(|w| matches!(w, Waiter::Writer(_)));
        if !st.writer.get() && !writer_queued {
            st.readers.set(st.readers.get() + 1);
            if let Some(me) = me() {
                st.reader_ids.borrow_mut().push(me);
            }
            return Ok(ReadGuard { lock: self });
        }
        let Some(rc) = par_ctx() else {
            return Err(crate::TimedOut);
        };
        let me = crate::api::current_thread().expect("read outside a thread");
        {
            let mut inner = rc.borrow_mut();
            let obj = inner.sync_id_for(&st.id);
            st.waiters.borrow_mut().push_back(Waiter::Reader(me));
            inner.block_current(crate::trace::BlockReason::RwRead, Some(obj), None);
            let st2 = self.inner.state.clone();
            inner.arm_timed_wait_evicting(
                timeout,
                Box::new(move |eng, t| {
                    st2.waiters
                        .borrow_mut()
                        .retain(|w| !matches!(*w, Waiter::Reader(x) if x == t));
                    pump(&st2, Some(eng));
                }),
            );
        }
        suspend_current(&rc, YieldReason::Blocked);
        // Cancelled while blocked: unwind without the lock.
        crate::runtime::unwind_if_cancel_woken(&rc);
        {
            let mut inner = rc.borrow_mut();
            if inner.consume_timeout() {
                // The eviction hook already withdrew the entry (and pumped
                // admission).
                debug_assert!(!st.waiters.borrow().contains(&Waiter::Reader(me)));
                drop(inner);
                self.publish_holders();
                // The expiry resumption is itself a cancellation point.
                crate::runtime::deliver_cancel(&rc);
                return Err(crate::TimedOut);
            }
        }
        debug_assert!(st.readers.get() > 0);
        Ok(ReadGuard { lock: self })
    }
}

impl<T> std::ops::Deref for ReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: shared access is held (readers > 0, no writer).
        unsafe { &*self.lock.inner.value.get() }
    }
}

impl<T> Drop for ReadGuard<'_, T> {
    fn drop(&mut self) {
        charge_sync_op();
        let st = &self.lock.inner.state;
        st.readers.set(st.readers.get() - 1);
        if let Some(me) = me() {
            let mut ids = st.reader_ids.borrow_mut();
            if let Some(i) = ids.iter().position(|&r| r == me) {
                ids.swap_remove(i);
            }
        }
        if st.readers.get() == 0 {
            self.lock.release_next();
        } else if !st.waiters.borrow().is_empty() {
            // Partial release under contention: keep the sentinel's holder
            // snapshot accurate so it never walks a stale reader edge.
            self.lock.publish_holders();
        }
    }
}

impl<T> std::ops::Deref for WriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: exclusive access is held.
        unsafe { &*self.lock.inner.value.get() }
    }
}

impl<T> std::ops::DerefMut for WriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: exclusive access is held.
        unsafe { &mut *self.lock.inner.value.get() }
    }
}

impl<T> Drop for WriteGuard<'_, T> {
    fn drop(&mut self) {
        charge_sync_op();
        self.lock.inner.state.writer.set(false);
        self.lock.inner.state.writer_id.set(None);
        self.lock.release_next();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run, scope, spawn, Config, SchedKind};

    #[test]
    fn uncontended_read_write_outside_runtime() {
        let l = RwLock::new(5);
        {
            let r1 = l.read();
            let r2 = l.read();
            assert_eq!(*r1 + *r2, 10);
        }
        *l.write() += 1;
        assert_eq!(*l.read(), 6);
    }

    #[test]
    fn try_variants() {
        let l = RwLock::new(0);
        let r = l.try_read().unwrap();
        assert!(l.try_write().is_none(), "writer blocked by reader");
        assert!(l.try_read().is_some(), "second reader admitted");
        drop(r);
    }

    #[test]
    fn readers_share_writers_exclude() {
        for kind in [SchedKind::Fifo, SchedKind::Df] {
            let (total, _) = run(Config::new(4, kind), || {
                let l = RwLock::new(0u64);
                scope(|s| {
                    for _ in 0..4 {
                        let l = l.clone();
                        s.spawn(move || {
                            for _ in 0..10 {
                                let mut g = l.write();
                                let v = *g;
                                crate::work(1_000); // hold across work
                                *g = v + 1;
                            }
                        });
                    }
                    for _ in 0..4 {
                        let l = l.clone();
                        s.spawn(move || {
                            for _ in 0..10 {
                                let g = l.read();
                                crate::work(500);
                                std::hint::black_box(*g);
                            }
                        });
                    }
                });
                let v = *l.read();
                v
            });
            assert_eq!(total, 40, "{kind:?}: lost update through RwLock");
        }
    }

    #[test]
    fn try_write_respects_queued_waiters_under_perturbation() {
        // Regression pin for the try_write/try_read asymmetry: try_write
        // used to ignore the wait queue, so it could barge past queued
        // waiters. A perturbed storm mixes blocking writers, try_write
        // opportunists and invariant-checking readers: the two halves of
        // the protected pair must never be observed torn, and the total
        // must equal the number of successful writes.
        for seed in 0..16u64 {
            let cfg = Config::new(4, SchedKind::DfDeques).with_perturbation(seed);
            let ((pair, tries), _) = run(cfg, || {
                let l = RwLock::new([0u64; 2]);
                let tries = crate::Mutex::new(0u64);
                scope(|s| {
                    for _ in 0..4 {
                        let l = l.clone();
                        s.spawn(move || {
                            for _ in 0..8 {
                                let mut g = l.write();
                                g[0] += 1;
                                crate::work(500); // hold across work
                                g[1] += 1;
                            }
                        });
                    }
                    for _ in 0..4 {
                        let (l, tries) = (l.clone(), tries.clone());
                        s.spawn(move || {
                            for _ in 0..8 {
                                if let Some(mut g) = l.try_write() {
                                    assert_eq!(g[0], g[1], "torn write observed");
                                    g[0] += 1;
                                    crate::work(500);
                                    g[1] += 1;
                                    *tries.lock() += 1;
                                }
                                crate::yield_now();
                            }
                        });
                    }
                    for _ in 0..2 {
                        let l = l.clone();
                        s.spawn(move || {
                            for _ in 0..8 {
                                let g = l.read();
                                assert_eq!(g[0], g[1], "reader saw a torn write");
                                crate::work(200);
                            }
                        });
                    }
                });
                let pair = *l.read();
                let t = *tries.lock();
                (pair, t)
            });
            assert_eq!(pair[0], pair[1], "seed {seed}");
            assert_eq!(pair[0], 32 + tries, "seed {seed}: lost updates");
        }
    }

    #[test]
    fn writer_preference_no_starvation() {
        // A stream of readers must not starve a queued writer.
        let (order, _) = run(Config::new(2, SchedKind::Df), || {
            let l = RwLock::new(Vec::<&'static str>::new());
            let l2 = l.clone();
            let g = l.read(); // hold a read lock
            let writer = spawn(move || {
                l2.write().push("writer");
            });
            crate::work(50_000);
            // A late reader arriving while the writer waits must queue
            // behind it (can't test non-blocking here; try_read observes it).
            assert!(l.try_read().is_none(), "writer queued → reader must wait");
            drop(g);
            writer.join();
            let v = l.read().clone();
            v
        });
        assert_eq!(order, vec!["writer"]);
    }
}
