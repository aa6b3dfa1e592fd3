//! The execution engine: drives fibers over the virtual SMP under the
//! selected scheduling policy.
//!
//! The engine is a conservative discrete-event simulation. All fibers run on
//! the single host thread, but each is dispatched on behalf of a *virtual
//! processor* whose clock advances by modelled costs. The engine always
//! dispatches on the processor with the smallest clock, and every scheduler
//! entry carries the virtual time at which it was published, so causality
//! holds: a processor never consumes an event from its own future.

use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::rc::Rc;

use ptdf_fiber::{Coroutine, ForcedUnwind, Stack, StackPool, Step};
use ptdf_smp::{Machine, ProcId, VirtTime};

use crate::config::{Attr, Config, SchedKind, TRACE_ALLOC_THRESHOLD};
use crate::mem::Ledger;
use crate::oracle::{Chooser, DecisionKind};
use crate::report::Report;
use crate::sched::{make_policy, Policy, Pop};
use crate::sentinel::{DeadlockError, DeadlockInfo, RunError, StallInfo, StalledThread};
use crate::thread::{
    Fiber, JoinError, JoinHandle, Kind, Slot, TState, Tcb, ThreadId, Wait, YieldReason,
};
use crate::trace::{BlockReason, EventKind, Trace, TraceMeta};

/// A TLS-destructor hook: called with an exiting thread's id, it drops the
/// thread's slot in one [`crate::TlsKey`]'s map and returns the released
/// byte count (pthread TSD-destructor semantics). Registered lazily, once
/// per key per run; holds only the key's own map, never the runtime.
pub(crate) type TlsCleaner = Box<dyn Fn(ThreadId) -> u64>;

/// An eager timed-wait eviction hook (see [`Tcb::evict`]): called by the
/// engine when the owning thread's deadline fires, with the engine borrow
/// held, to withdraw the thread's entry from its primitive's wait queue
/// and re-admit whoever that unblocks. Must not suspend or re-enter the
/// runtime context.
pub(crate) type EvictFn = Box<dyn FnOnce(&mut Inner, ThreadId)>;

/// Runtime internals; shared between the engine loop and the API functions
/// (via the thread-local [`ActiveCtx`]).
pub(crate) struct Inner {
    pub machine: Machine,
    pub policy: Box<dyn Policy>,
    pub threads: Vec<Tcb>,
    /// Direct-handoff slot per processor: a preempt-on-fork child
    /// (`resume = false`, full dispatch) or a time-sliced fiber
    /// (`resume = true`, cost-free continuation).
    pub handoff: Vec<Option<(ThreadId, bool)>>,
    /// Processors that found the scheduler empty; woken on publish.
    pub parked: Vec<bool>,
    /// Live (non-exited) threads of any kind.
    pub live: usize,
    /// Currently executing (thread, processor); set before each resume.
    pub cur: Option<(ThreadId, ProcId)>,
    pub default_stack: u64,
    /// Flight-recorder trace, when enabled. Every hook below tests this
    /// `Option`'s discriminant and nothing else when tracing is off.
    pub trace: Option<Trace>,
    /// Engine hot path armed ([`Config::hot_path`], on by default):
    /// `work`/`touch` defer charges into the machine's pending transaction
    /// and the engine loop takes the solo-processor fast dispatch path.
    pub hot_path: bool,
    /// Cached timeslice reference: the minimum clock among non-parked
    /// processors *other than* the one running the current fiber (`None`
    /// when there is no other active processor). While one fiber runs a
    /// quantum of `work`/`touch` calls, no other processor's clock or parked
    /// state can change except through [`Inner::unpark`] — the engine loop
    /// and `unpark` are the only writers, so refreshing at those two points
    /// keeps the per-call timeslice check bit-identical to a full scan.
    pub ts_min_other: Option<VirtTime>,
    /// The run's decision source ([`Config::chooser`]): every decision
    /// point and fault site below asks it, once.
    pub chooser: Chooser,
    /// Recycles real (host) fiber stacks across spawns; see
    /// `ptdf_fiber::StackPool`. Completed fibers return their stack here and
    /// the next spawn reuses it, canary re-armed.
    pub stack_pool: StackPool,
    /// Allocation ledger, when armed ([`Config::with_ledger`]).
    pub ledger: Option<Ledger>,
    /// TLS-destructor hooks, one per [`crate::TlsKey`] touched this run.
    pub tls_cleaners: Vec<TlsCleaner>,
    /// This run's identity for lazy TLS-cleaner registration (keys outlive
    /// runs, so each key re-registers once per run).
    pub run_token: u64,
    /// Next per-run sync-object id (assigned lazily at an object's first
    /// engine interaction, so ids are dense and engine-order deterministic).
    next_sync_id: u32,
    /// Waits-for cycles detected so far (delivered via [`Report::deadlocks`]).
    pub deadlocks: Vec<DeadlockInfo>,
    /// Current holders of each *contended* sync object, published by the
    /// primitives at block/handoff time only — the uncontended fast path
    /// never touches this map, keeping sentinel bookkeeping off the hot
    /// path. An entry exists exactly while the object has queued waiters.
    holders: HashMap<u32, Vec<ThreadId>>,
}

/// What kind of execution context the calling code is inside.
pub(crate) enum ActiveCtx {
    /// Inside `Runtime`-driven parallel execution.
    Par(Rc<RefCell<Inner>>),
    /// Inside a `run_serial` baseline execution.
    Serial(Rc<RefCell<crate::serial::SerialCtx>>),
}

thread_local! {
    static ACTIVE: RefCell<Option<ActiveCtx>> = const { RefCell::new(None) };
}

/// Runs `f` with the active context (if any).
pub(crate) fn with_active<R>(f: impl FnOnce(Option<&ActiveCtx>) -> R) -> R {
    ACTIVE.with(|a| f(a.borrow().as_ref()))
}

struct TlsGuard;

impl Drop for TlsGuard {
    fn drop(&mut self) {
        ACTIVE.with(|a| *a.borrow_mut() = None);
    }
}

fn install(ctx: ActiveCtx) -> TlsGuard {
    ACTIVE.with(|a| {
        let mut slot = a.borrow_mut();
        assert!(
            slot.is_none(),
            "ptdf runtime is not reentrant: run()/run_serial() called from \
             inside an active run"
        );
        *slot = Some(ctx);
    });
    TlsGuard
}

pub(crate) fn install_serial(ctx: Rc<RefCell<crate::serial::SerialCtx>>) -> impl Drop {
    install(ActiveCtx::Serial(ctx))
}

impl Inner {
    fn new(config: &Config) -> Self {
        let mut machine =
            Machine::new(config.processors, config.cost.clone(), config.default_stack);
        if config.trace {
            machine.enable_recording(TRACE_ALLOC_THRESHOLD);
        }
        let (perturb_seed, chaos_seed) = config.chooser.seeds();
        if let Some(seed) = perturb_seed {
            machine.enable_perturbation(seed);
        }
        let mut chooser = config.chooser.clone();
        chooser.arm_log(config.trace);
        if let Some(limit) = config.space_bound {
            machine.arm_space_bound(limit);
        }
        if config.host_profile {
            machine.enable_host_profile();
        }
        static RUN_TOKEN: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
        Inner {
            machine,
            policy: make_policy(config),
            threads: Vec::new(),
            handoff: vec![None; config.processors],
            parked: vec![false; config.processors],
            live: 0,
            cur: None,
            default_stack: config.default_stack,
            trace: config.trace.then(|| {
                Trace::new(TraceMeta {
                    scheduler: config.scheduler.name().to_string(),
                    processors: config.processors,
                    default_stack: config.default_stack,
                    quota: matches!(
                        config.scheduler,
                        SchedKind::Df | SchedKind::DfLocal | SchedKind::DfDeques
                    )
                    .then_some(config.quota),
                    perturb_seed,
                    chaos_seed,
                })
            }),
            chooser,
            hot_path: config.hot_path,
            ts_min_other: None,
            stack_pool: StackPool::new(config.stack_pool_cap),
            ledger: config
                .ledger
                .then(|| Ledger::new(config.alloc_fail_rate.map(|r| (config.seed, r)))),
            tls_cleaners: Vec::new(),
            run_token: RUN_TOKEN.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            next_sync_id: 0,
            deadlocks: Vec::new(),
            holders: HashMap::new(),
        }
    }

    /// Opens a host-phase timing window iff the profiler is armed
    /// ([`Config::with_host_profile`]); one `Option` discriminant test and
    /// no clock read when off. The profiler is the machine's — runtime and
    /// machine windows share one nesting-aware accumulator, so a `charge`
    /// window inside a `dispatch` window stays disjoint.
    fn prof_start(&self) -> Option<ptdf_smp::ProfWin> {
        self.machine.prof_open()
    }

    /// Closes a window opened by [`Inner::prof_start`] into one phase of
    /// the profile.
    fn prof_close(
        &mut self,
        win: Option<ptdf_smp::ProfWin>,
        phase: fn(&mut ptdf_smp::HostPhaseStats) -> &mut ptdf_smp::PhaseStat,
    ) {
        self.machine.prof_close(win, phase);
    }

    /// Hands out a host stack for a new fiber, recycling through the pool.
    pub fn acquire_fiber_stack(&mut self) -> Stack {
        let stack = self.stack_pool.acquire(ptdf_fiber::DEFAULT_STACK_SIZE);
        self.sample_pool_cached();
        stack
    }

    /// Returns a completed fiber's host stack to the pool.
    fn recycle_fiber_stack(&mut self, stack: Stack) {
        self.stack_pool.release(stack);
        self.sample_pool_cached();
    }

    /// Samples the pool's cached-byte count into the flight recorder, so the
    /// `host_pool_cached` track shows recycling behaviour over virtual time.
    fn sample_pool_cached(&mut self) {
        if self.trace.is_none() {
            return;
        }
        let at = match self.cur {
            Some((_, p)) => self.machine.clock(p),
            None => self.machine.clock(0),
        };
        let bytes = self.stack_pool.stats().cached_bytes;
        self.trace
            .as_mut()
            .expect("checked")
            .sample_pool_cached(at, bytes);
    }

    fn tcb(&mut self, t: ThreadId) -> &mut Tcb {
        &mut self.threads[t.index()]
    }

    /// Charges one scheduler-queue operation on `p` (global lock for
    /// serialized policies, local cost otherwise).
    pub fn sched_op(&mut self, p: ProcId) {
        if self.policy.global_lock() {
            self.machine.sched_lock(p);
        } else {
            let cs = self.machine.cost().sched_cs;
            self.machine
                .charge(p, ptdf_smp::Bucket::SchedCs, cs);
        }
    }

    /// Wakes one parked processor for an event published at time `at`
    /// (wake-one semantics, like an OS run queue: each published entry wakes
    /// one waiter; waking everyone would model a thundering herd on the
    /// scheduler lock that real schedulers avoid).
    fn unpark(&mut self, at: VirtTime) {
        let victim = (0..self.parked.len())
            .filter(|&q| self.parked[q])
            .min_by_key(|&q| self.machine.clock(q));
        if let Some(q) = victim {
            let q = self.tie_break(q, DecisionKind::UnparkTie, |inner, r| inner.parked[r]);
            self.parked[q] = false;
            self.machine.idle_until(q, at);
            // A processor just became runnable mid-quantum: the cached
            // timeslice reference for the current fiber must see it.
            self.refresh_ts_min_other();
        }
    }

    /// Recomputes [`Inner::ts_min_other`] for the current fiber's processor.
    /// Called at the two points where another processor's clock or parked
    /// state can change: the engine loop (before resuming a fiber) and
    /// [`Inner::unpark`].
    pub(crate) fn refresh_ts_min_other(&mut self) {
        let cur_p = match self.cur {
            Some((_, p)) => p,
            None => {
                self.ts_min_other = None;
                return;
            }
        };
        self.ts_min_other = (0..self.parked.len())
            .filter(|&q| q != cur_p && !self.parked[q])
            .map(|q| self.machine.clock(q))
            .min();
    }

    /// Whether the current fiber's quantum has outrun the rest of the
    /// machine by more than [`TIMESLICE`] — the hot-path equivalent of
    /// [`maybe_timeslice`]'s scan, against the cached reference clock.
    #[inline]
    pub(crate) fn timeslice_due(&self, tid: ThreadId, p: ProcId) -> bool {
        match self.ts_min_other {
            Some(min) => {
                self.machine.clock(p).since(min) > TIMESLICE
                    && self.threads[tid.index()].state == TState::Running(p)
            }
            None => false,
        }
    }

    /// Virtual time to stamp on an object-scoped decision: the deciding
    /// thread's processor clock.
    fn decision_clock(&self) -> VirtTime {
        match self.cur {
            Some((_, p)) => self.machine.clock(p),
            None => self.machine.clock(0),
        }
    }

    /// Resolves a processor tie-break decision point: several processors
    /// tied with `best` at its clock value (and admitted by `eligible`).
    /// Candidates are in ascending index order, so index 0 is `best`, the
    /// natural choice. Single-candidate points return immediately and are
    /// never decisions.
    fn tie_break(
        &mut self,
        best: ProcId,
        kind: DecisionKind,
        eligible: impl Fn(&Inner, ProcId) -> bool,
    ) -> ProcId {
        if matches!(self.chooser, Chooser::Natural) {
            return best;
        }
        let t = self.machine.clock(best);
        let ties: Vec<u32> = (0..self.parked.len())
            .filter(|&q| eligible(self, q) && self.machine.clock(q) == t)
            .map(|q| q as u32)
            .collect();
        if ties.len() <= 1 {
            return best;
        }
        debug_assert_eq!(ties[0] as ProcId, best);
        let i = self.chooser.choose(kind, t, ties.len(), None, &ties);
        ties[i] as ProcId
    }

    /// Resolves the delivery order of a multi-thread wake batch (barrier
    /// release, `notify_all`, rwlock reader admission): a genuine schedule
    /// degree of freedom.
    pub fn wake_order(&mut self, obj: u32, batch: &mut [ThreadId]) {
        if batch.len() <= 1 || matches!(self.chooser, Chooser::Natural) {
            return;
        }
        let at = self.decision_clock();
        self.chooser
            .order(DecisionKind::WakeOrder, Some(obj), batch, |_| at);
    }

    /// Resolves a queue-grant decision point: which of `n ≥ 1` eligible
    /// waiters of sync object `obj` receives the grant. The natural engine
    /// grants FIFO (index 0); a scripted oracle may pick any index. This is
    /// a decision only when `n ≥ 2`.
    pub fn grant_pick(&mut self, obj: u32, n: usize) -> usize {
        if n <= 1 {
            return 0;
        }
        let at = self.decision_clock();
        self.chooser
            .choose(DecisionKind::Grant, at, n, Some(obj), &[])
    }

    /// Allocates a per-run sync-object id (dense, engine-order stable).
    pub fn alloc_sync_id(&mut self) -> u32 {
        let id = self.next_sync_id;
        self.next_sync_id += 1;
        id
    }

    /// Lazily assigns a per-run id to a sync object at its first engine
    /// interaction, memoized in the object's `cell`.
    pub fn sync_id_for(&mut self, cell: &std::cell::Cell<Option<u32>>) -> u32 {
        match cell.get() {
            Some(id) => id,
            None => {
                let id = self.alloc_sync_id();
                cell.set(Some(id));
                id
            }
        }
    }

    /// Records a wake-capable sync operation — notify, post, lock handoff,
    /// barrier completion — with what the primitive observed and claimed
    /// atomically. The happens-before checker ([`crate::check_trace`]) uses
    /// these to catch lost notifies without reconstructing wait-list state
    /// from interleaved per-processor timestamps.
    pub fn note_sync(&mut self, reason: BlockReason, obj: u32, waiters: u64, woken: u64) {
        if self.trace.is_none() {
            return;
        }
        // Lenient on context: stall-teardown destructors release primitives
        // with no current thread; their bookkeeping is best-effort.
        let Some((tid, p)) = self.cur else {
            return;
        };
        let now = self.machine.clock(p);
        let tr = self.trace.as_mut().expect("checked");
        tr.event(
            now,
            p,
            Some(tid.0),
            EventKind::Notify {
                reason,
                obj,
                waiters,
                woken,
            },
        );
    }

    /// Creates a thread record. `enqueue_override` forces queue insertion
    /// (used for the root and for dummies) even under preempt-on-fork.
    /// Returns the new thread id and whether the caller (the forking
    /// parent) must yield so the child is direct-handed to its processor.
    pub fn create_thread(
        &mut self,
        parent: Option<ThreadId>,
        on_proc: ProcId,
        attr: Attr,
        fiber: Option<Fiber>,
        kind: Kind,
    ) -> (ThreadId, bool) {
        let reserved = attr.stack_size.unwrap_or(self.default_stack);
        let committed = self.machine.thread_create(on_proc, reserved);
        let id = ThreadId(self.threads.len() as u32);
        let prio = attr.priority;
        let mut tcb = Tcb::new(kind, attr, reserved);
        tcb.stack_committed = committed;
        tcb.fiber = fiber;
        self.threads.push(tcb);
        self.live += 1;
        // Preempt-on-fork hands the child straight to the parent's
        // processor — but only within the parent's priority level; a child
        // at a different level goes through the queue so that priority
        // semantics hold (paper §2.1: the space-efficient policy operates
        // *within* a priority level).
        let handoff_child = kind == Kind::User
            && self.policy.preempt_on_fork()
            && parent
                .map(|par| self.threads[par.index()].attr.priority == prio)
                .unwrap_or(false);
        let now = self.machine.clock(on_proc);
        if self.trace.is_some() {
            let t0 = self.prof_start();
            let tr = self.trace.as_mut().expect("checked");
            tr.event(
                now,
                on_proc,
                Some(id.0),
                EventKind::Spawn {
                    parent: parent.map(|t| t.0),
                },
            );
            self.prof_close(t0, |hp| &mut hp.trace_alloc);
        }
        self.sched_op(on_proc);
        self.policy
            .on_create(id, parent, prio, !handoff_child, now, on_proc);
        if !handoff_child {
            self.threads[id.index()].state = TState::Ready;
            self.threads[id.index()].ready_since = now;
            self.unpark(now);
        }
        if kind == Kind::Dummy {
            self.machine.count_dummy();
        }
        (id, handoff_child)
    }

    /// Creates the root(s) of a lazy binary tree of `count` dummy threads
    /// at `parent`'s depth-first position: up to two roots are created now,
    /// each expanding (when dispatched) into two more, and so on.
    pub fn create_dummy_tree(&mut self, parent: ThreadId, p: ProcId, count: u64) {
        let left = count / 2;
        let right = count - left;
        for part in [left, right] {
            if part > 0 {
                let (id, _) =
                    self.create_thread(Some(parent), p, Attr::default(), None, Kind::Dummy);
                self.threads[id.index()].dummy_remaining = part;
            }
        }
    }

    /// Marks `t` ready. The publish time is the waking processor's clock or
    /// the thread's own suspension time, whichever is later — a wake must
    /// not resume a thread earlier (in virtual time) than it blocked.
    pub fn make_ready(&mut self, t: ThreadId, p: ProcId) {
        debug_assert!(matches!(
            self.threads[t.index()].state,
            TState::Blocked | TState::Created
        ));
        let mut now = self
            .machine
            .clock(p)
            .max(self.threads[t.index()].blocked_at);
        // Fault site: delayed wake delivery. Still causally sound (never
        // earlier than the suspension).
        now = VirtTime::from_ns(now.as_ns() + self.chooser.wake_delay());
        let (prio, affinity) = {
            let tcb = &self.threads[t.index()];
            (tcb.attr.priority, tcb.last_proc)
        };
        self.threads[t.index()].state = TState::Ready;
        self.threads[t.index()].ready_since = now;
        // The wake supersedes any waits-for edge, armed deadline, or
        // pending eviction hook (the stale heap entry is discarded lazily;
        // `timed_out` is untouched — only a real deadline firing sets it).
        self.threads[t.index()].wait = None;
        self.threads[t.index()].deadline = None;
        self.threads[t.index()].evict = None;
        let waker = self.cur.map(|(w, _)| w.0);
        if self.trace.is_some() {
            let t0 = self.prof_start();
            let tr = self.trace.as_mut().expect("checked");
            tr.event(now, p, Some(t.0), EventKind::Wake { waker });
            self.prof_close(t0, |hp| &mut hp.trace_alloc);
        }
        self.sched_op(p);
        self.policy.on_ready(t, prio, now, p, affinity);
        self.unpark(now);
    }

    /// Registers the current thread as blocked (caller must already have
    /// put it on some wait queue) — to be followed by a `Blocked` suspend.
    /// `target` is the join target when the wait is on a thread's exit;
    /// together with `obj` it forms the thread's waits-for edge.
    pub fn block_current(
        &mut self,
        reason: BlockReason,
        obj: Option<u32>,
        target: Option<ThreadId>,
    ) -> (ThreadId, ProcId) {
        let (tid, p) = self.cur.expect("block outside a thread");
        let now = self.machine.clock(p);
        let t = &mut self.threads[tid.index()];
        t.state = TState::Blocked;
        t.blocked_at = now;
        t.wait = Some(Wait {
            reason,
            obj,
            target,
        });
        if self.trace.is_some() {
            let t0 = self.prof_start();
            let tr = self.trace.as_mut().expect("checked");
            tr.event(now, p, Some(tid.0), EventKind::Block { reason, obj });
            self.prof_close(t0, |hp| &mut hp.trace_alloc);
        }
        self.policy.on_block(tid);
        self.sched_op(p);
        (tid, p)
    }

    /// Arms a timed wait for the current thread: call between
    /// [`Inner::block_current`] and the `Blocked` suspend. Returns the
    /// armed absolute deadline.
    pub fn arm_timed_wait(&mut self, timeout: VirtTime) -> VirtTime {
        let (tid, p) = self.cur.expect("timed wait outside a thread");
        let now = self.machine.clock(p);
        let deadline = VirtTime::from_ns(now.as_ns().saturating_add(timeout.as_ns()));
        self.threads[tid.index()].deadline = Some(deadline);
        self.machine.arm_deadline(p, deadline, u64::from(tid.0));
        deadline
    }

    /// [`Inner::arm_timed_wait`] plus an eager eviction hook: when the
    /// deadline fires, the engine immediately runs `evict` to withdraw the
    /// thread's wait-queue entry (and re-admit whoever that unblocks), so
    /// no later grant can meet a stale entry.
    pub fn arm_timed_wait_evicting(&mut self, timeout: VirtTime, evict: EvictFn) -> VirtTime {
        let deadline = self.arm_timed_wait(timeout);
        self.arm_block_evict(evict);
        deadline
    }

    /// Consumes the current thread's timeout flag: `true` exactly when its
    /// last wake came from the deadline heap rather than the primitive.
    pub fn consume_timeout(&mut self) -> bool {
        match self.cur {
            Some((tid, _)) => std::mem::take(&mut self.threads[tid.index()].timed_out),
            None => false,
        }
    }

    /// Consumes the current thread's cancel-woken flag: `true` exactly when
    /// its last wake was a cancellation delivery ([`Inner::cancel_wake`])
    /// rather than a grant or timeout. The resuming primitive must unwind
    /// with [`Inner::cancel_error_current`] instead of completing its wait.
    pub fn consume_cancel_woken(&mut self) -> bool {
        match self.cur {
            Some((tid, _)) => std::mem::take(&mut self.threads[tid.index()].cancel_woken),
            None => false,
        }
    }

    /// The [`crate::CancelError`] payload for the current thread's unwind.
    pub fn cancel_error_current(&self) -> crate::CancelError {
        let (tid, _) = self.cur.expect("cancel unwind outside a thread");
        crate::CancelError {
            thread: tid,
            by: self.threads[tid.index()].canceled_by.map(ThreadId),
        }
    }

    /// Registers an eviction hook for the current thread's *untimed* block:
    /// the cancel twin of [`Inner::arm_timed_wait_evicting`]. A later
    /// [`Inner::cancel_wake`] runs the hook to withdraw the thread's
    /// wait-queue entry (and re-admit whoever that unblocks), so no grant
    /// can land on the cancelled waiter. A normal wake clears the hook
    /// unrun ([`Inner::make_ready`]).
    pub fn arm_block_evict(&mut self, evict: EvictFn) {
        let (tid, _) = self.cur.expect("block outside a thread");
        self.threads[tid.index()].evict = Some(evict);
    }

    /// Latches a cancellation request on `target` and, when the target is
    /// blocked with cancellation enabled, delivers it (`pthread_cancel`
    /// semantics). Returns `false` when the target has already exited (or
    /// the id is out of bounds), `true` otherwise — including when the
    /// request merely latched because the target is running or has
    /// cancellation disabled.
    ///
    /// Delivery against a *deadline-bounded* blocked wait is a genuine
    /// schedule race (the deadline may fire first in virtual time) and goes
    /// through the [`DecisionKind::CancelDelivery`] decision point: deliver
    /// now, or defer to the wait's own resolution — the resume from a timed
    /// wait is itself a cancellation point, so the deferred branch still
    /// unwinds, just at the timeout. An *unbounded* blocked wait has no
    /// other guaranteed wake, so it always delivers immediately (no
    /// decision recorded, mirroring single-candidate grant points).
    pub fn request_cancel(&mut self, target: ThreadId) -> bool {
        let Some(tcb) = self.threads.get(target.index()) else {
            return false;
        };
        if tcb.state == TState::Exited {
            return false;
        }
        if tcb.cancel_requested || tcb.cancel_woken {
            return true;
        }
        let by = self.cur.map(|(w, _)| w.0);
        {
            let tcb = &mut self.threads[target.index()];
            tcb.cancel_requested = true;
            tcb.canceled_by = by;
        }
        let tcb = &self.threads[target.index()];
        if !tcb.cancel_enabled {
            return true;
        }
        if tcb.state == TState::Blocked {
            // Barrier waits are not cancellation points (POSIX parity):
            // the request stays latched and delivers at the thread's next
            // cancellation point after the barrier releases it.
            let barrier = tcb
                .wait
                .is_some_and(|w| w.reason == BlockReason::Barrier);
            let defer = barrier
                || (tcb.deadline.is_some() && self.choose_cancel_delivery(target));
            if !defer {
                let p = self.cur.map(|(_, p)| p).unwrap_or(0);
                self.cancel_wake(target, p);
            }
        }
        true
    }

    /// Resolves the [`DecisionKind::CancelDelivery`] decision point for a
    /// cancel against `target`'s deadline-bounded wait: `false` = deliver
    /// now (natural), `true` = defer to the wait's own resolution.
    fn choose_cancel_delivery(&mut self, target: ThreadId) -> bool {
        let at = self.decision_clock();
        self.chooser
            .choose(DecisionKind::CancelDelivery, at, 2, Some(target.0), &[])
            == 1
    }

    /// [`Inner::make_ready`]'s cancellation twin: wakes blocked `t` because
    /// a cancellation request was delivered, not because the primitive
    /// handed over. Emits a `Cancel` event instead of a `Wake` (the
    /// checker's third sanctioned wake), sets `cancel_woken` for the
    /// primitive to consume on resume, and disables further cancellation so
    /// the unwind's own sync operations cannot re-deliver. Timestamped at
    /// the canceller's clock (clamped by the block). Runs the waiter's
    /// eviction hook so no later grant meets the dead queue entry — same
    /// discipline as [`Inner::timeout_wake`].
    fn cancel_wake(&mut self, t: ThreadId, p: ProcId) {
        debug_assert_eq!(self.threads[t.index()].state, TState::Blocked);
        let at = self.machine.clock(p);
        let now = at.max(self.threads[t.index()].blocked_at);
        let (prio, affinity, obj, by) = {
            let tcb = &mut self.threads[t.index()];
            tcb.state = TState::Ready;
            tcb.ready_since = now;
            tcb.cancel_woken = true;
            tcb.cancel_requested = false;
            tcb.cancel_enabled = false;
            // Any armed deadline is dead: `deadline_live` discards the
            // leftover heap entry lazily.
            tcb.deadline = None;
            let obj = tcb.wait.and_then(|w| w.obj);
            tcb.wait = None;
            (tcb.attr.priority, tcb.last_proc, obj, tcb.canceled_by)
        };
        if self.trace.is_some() {
            let t0 = self.prof_start();
            let tr = self.trace.as_mut().expect("checked");
            tr.event(now, p, Some(t.0), EventKind::Cancel { obj, by });
            self.prof_close(t0, |hp| &mut hp.trace_alloc);
        }
        self.sched_op(p);
        self.policy.on_ready(t, prio, now, p, affinity);
        self.unpark(now);
        // Eager eviction, exactly as in `timeout_wake`: the hook runs with
        // `cur` pointed at the evictee so the re-admission wakes it
        // publishes are attributed to the cancelled waiter.
        if let Some(evict) = self.threads[t.index()].evict.take() {
            let saved = self.cur;
            self.cur = Some((t, p));
            evict(self, t);
            self.cur = saved;
        }
    }

    /// Whether `t` is currently blocked (false for the out-of-bounds
    /// outside-a-runtime sentinel id). Wake paths use this to skip waiters
    /// that a timeout already woke.
    pub fn thread_is_blocked(&self, t: ThreadId) -> bool {
        self.threads
            .get(t.index())
            .is_some_and(|tcb| tcb.state == TState::Blocked)
    }

    /// Whether `t` is currently blocked *on sync object `obj`* — the strict
    /// form of [`Inner::thread_is_blocked`] grant paths use: a queue entry
    /// whose thread has moved on (timed out, or even blocked on a different
    /// object since) must never receive a grant.
    pub fn blocked_on(&self, t: ThreadId, obj: u32) -> bool {
        self.threads.get(t.index()).is_some_and(|tcb| {
            tcb.state == TState::Blocked && tcb.wait.is_some_and(|w| w.obj == Some(obj))
        })
    }

    /// Publishes the holder set of a contended sync object (or retires the
    /// entry when `holders` is empty). Primitives call this only on their
    /// contended paths, so the map stays off the uncontended hot path.
    pub fn note_holders(&mut self, obj: u32, holders: Vec<ThreadId>) {
        if holders.is_empty() {
            self.holders.remove(&obj);
        } else {
            self.holders.insert(obj, holders);
        }
    }

    /// Walks the waits-for graph from a prospective edge — `me` about to
    /// block on `obj` (follow its published holders) or on thread `target`
    /// (join) — and returns the cycle if one would close. Called *before*
    /// the thread enqueues, so a detected deadlock leaves every queue
    /// untouched and the caller can unwind instead of blocking.
    pub fn check_for_cycle(
        &mut self,
        me: ThreadId,
        obj: Option<u32>,
        target: Option<ThreadId>,
    ) -> Option<DeadlockInfo> {
        fn successors(holders: &HashMap<u32, Vec<ThreadId>>, w: &Wait) -> Vec<ThreadId> {
            if let Some(t) = w.target {
                return vec![t];
            }
            match (w.reason, w.obj) {
                // Only ownership waits have a well-defined "who must act"
                // edge; condvar/semaphore/barrier waits can be satisfied by
                // anyone and get no outgoing edge (no false positives).
                (BlockReason::Mutex | BlockReason::RwRead | BlockReason::RwWrite, Some(o)) => {
                    holders.get(&o).cloned().unwrap_or_default()
                }
                _ => Vec::new(),
            }
        }
        fn walk(
            threads: &[Tcb],
            holders: &HashMap<u32, Vec<ThreadId>>,
            me: ThreadId,
            t: ThreadId,
            path: &mut Vec<(ThreadId, Option<u32>)>,
            seen: &mut std::collections::HashSet<ThreadId>,
        ) -> bool {
            if t == me {
                return true;
            }
            if !seen.insert(t) {
                return false;
            }
            // Out-of-bounds ids (the outside-a-runtime owner sentinel) and
            // runnable threads have no outgoing edge.
            let Some(tcb) = threads.get(t.index()) else {
                return false;
            };
            if tcb.state != TState::Blocked {
                return false;
            }
            // A deadline-bounded wait cannot sustain a deadlock: the engine
            // will wake it at its deadline, breaking any cycle through it.
            if tcb.deadline.is_some() {
                return false;
            }
            // Nor can a waiter with a live cancellation request: delivery
            // will evict and unwind it, breaking the cycle.
            if tcb.cancel_requested && tcb.cancel_enabled {
                return false;
            }
            let Some(w) = tcb.wait else {
                return false;
            };
            path.push((t, w.obj));
            for s in successors(holders, &w) {
                if walk(threads, holders, me, s, path, seen) {
                    return true;
                }
            }
            path.pop();
            false
        }
        let first = successors(
            &self.holders,
            &Wait {
                reason: obj.map_or(BlockReason::Join, |_| BlockReason::Mutex),
                obj,
                target,
            },
        );
        if first.is_empty() {
            return None;
        }
        let mut path = vec![(me, obj)];
        let mut seen = std::collections::HashSet::new();
        for s in first {
            if walk(&self.threads, &self.holders, me, s, &mut path, &mut seen) {
                let at = match self.cur {
                    Some((_, p)) => self.machine.clock(p),
                    None => VirtTime::ZERO,
                };
                return Some(DeadlockInfo {
                    cycle: path.iter().map(|(t, _)| t.0).collect(),
                    objs: path.iter().map(|(_, o)| *o).collect(),
                    at,
                });
            }
        }
        None
    }

    /// Records a detected cycle: appends it to the report list and emits one
    /// `Deadlock` flight-recorder event per member (all sharing the cycle's
    /// index), naming who each member waits for and through which object.
    pub fn record_deadlock(&mut self, info: &DeadlockInfo) {
        let idx = self.deadlocks.len() as u32;
        if let (Some(tr), Some((_, p))) = (self.trace.as_mut(), self.cur) {
            let now = self.machine.clock(p);
            let n = info.cycle.len();
            for i in 0..n {
                let (member, waits_for, obj) =
                    (info.cycle[i], info.cycle[(i + 1) % n], info.objs[i]);
                tr.event(
                    now,
                    p,
                    Some(member),
                    EventKind::Deadlock {
                        cycle: idx,
                        waits_for,
                        obj,
                    },
                );
            }
        }
        self.deadlocks.push(info.clone());
    }

    fn dispatch_prologue(&mut self, tid: ThreadId, p: ProcId) {
        let dispatched_at = self.machine.clock(p);
        self.machine.count_dispatch(p);
        let switch = self.machine.cost().ctx_switch;
        self.machine.thread_op(p, switch);
        let (reserved, committed, has_run, was_ready, ready_since) = {
            let t = self.tcb(tid);
            (
                t.stack_reserved,
                t.stack_committed,
                t.has_run,
                t.state == TState::Ready,
                t.ready_since,
            )
        };
        if !has_run {
            let committed = self.machine.thread_first_run(p, reserved, committed);
            let t = self.tcb(tid);
            t.stack_committed = committed;
            t.has_run = true;
        }
        if let Some(k) = self.policy.quota() {
            self.tcb(tid).quota = k as i64;
        }
        let t = self.tcb(tid);
        t.state = TState::Running(p);
        t.last_proc = Some(p);
        self.cur = Some((tid, p));
        let first_run_at = self.machine.clock(p);
        if let Some(tr) = self.trace.as_mut() {
            tr.note_quantum(tid.0, dispatched_at);
            if was_ready {
                tr.add_ready_wait(tid.0, dispatched_at.since(ready_since));
            }
            if !has_run {
                tr.event(first_run_at, p, Some(tid.0), EventKind::FirstDispatch);
            }
        }
    }

    fn handle_yield(&mut self, tid: ThreadId, p: ProcId, reason: YieldReason) {
        match reason {
            YieldReason::Forked { child } => {
                let now = self.machine.clock(p);
                let prio = self.threads[tid.index()].attr.priority;
                self.threads[tid.index()].state = TState::Ready;
                self.threads[tid.index()].ready_since = now;
                self.sched_op(p);
                self.policy.on_ready(tid, prio, now, p, Some(p));
                self.unpark(now);
                debug_assert!(self.handoff[p].is_none());
                self.handoff[p] = Some((child, false));
            }
            YieldReason::Blocked => {
                debug_assert_eq!(self.threads[tid.index()].state, TState::Blocked);
            }
            YieldReason::Timeslice => {
                // Keep the fiber on this processor; no queue interaction and
                // no cost — the pause exists only to interleave virtually
                // concurrent execution segments.
                debug_assert!(self.handoff[p].is_none());
                self.handoff[p] = Some((tid, true));
            }
            YieldReason::Preempted | YieldReason::Yielded => {
                let now = self.machine.clock(p);
                let prio = self.threads[tid.index()].attr.priority;
                self.threads[tid.index()].state = TState::Ready;
                self.threads[tid.index()].ready_since = now;
                if matches!(reason, YieldReason::Preempted) {
                    if let Some(tr) = self.trace.as_mut() {
                        tr.event(now, p, Some(tid.0), EventKind::Preempt);
                    }
                }
                self.sched_op(p);
                self.policy.on_ready(tid, prio, now, p, Some(p));
                self.unpark(now);
            }
            YieldReason::JoinWake { at } => {
                // Sleep until the joined child's virtual exit: publish the
                // wake at `at` (ahead of this processor's clock) and let the
                // processor take other ready work meanwhile. With nothing
                // else runnable the pop returns `NotYet(at)` and the
                // processor idles to `at` exactly as the old inline wait
                // did.
                let at = at.max(self.machine.clock(p));
                let prio = self.threads[tid.index()].attr.priority;
                self.threads[tid.index()].state = TState::Ready;
                self.threads[tid.index()].ready_since = at;
                self.sched_op(p);
                self.policy.on_ready(tid, prio, at, p, Some(p));
                self.unpark(at);
            }
        }
    }

    fn finish_thread(&mut self, tid: ThreadId, p: ProcId) {
        let (reserved, committed) = {
            let t = self.tcb(tid);
            (t.stack_reserved, t.stack_committed)
        };
        self.machine.thread_exit(p, reserved, committed);
        self.policy.on_exit(tid);
        let exit_time = self.machine.clock(p);
        if let Some(tr) = self.trace.as_mut() {
            tr.note_exit(tid.0, exit_time);
        }
        let joiner = {
            let t = self.tcb(tid);
            t.state = TState::Exited;
            t.exit_time = exit_time;
            t.fiber = None;
            t.yielder = std::ptr::null();
            t.joiner.take()
        };
        // pthread TSD semantics: destroy the exiting thread's specific
        // values now, not at key drop — otherwise every exited thread leaks
        // a map slot per key for the rest of the run. Cleaners hold only
        // their key's own map, so calling them under the engine borrow is
        // fine (TLS value destructors must not call back into the runtime).
        let cleaners = std::mem::take(&mut self.tls_cleaners);
        let tls_freed: u64 = cleaners.iter().map(|clean| clean(tid)).sum();
        self.tls_cleaners = cleaners;
        if tls_freed > 0 {
            if let Some(ledger) = self.ledger.as_mut() {
                ledger.release_tls(tid.0, tls_freed);
            }
        }
        self.live -= 1;
        if let Some(j) = joiner {
            // A `join_timeout` joiner may already have been timeout-woken
            // (Ready, not Blocked); waking it again would double-queue it.
            if self.threads[j.index()].state == TState::Blocked {
                self.make_ready(j, p);
            }
        }
    }

    /// True when `t`'s armed deadline is exactly `at` and it is still
    /// blocked — i.e. the heap entry is live, not a leftover from a wait
    /// that was satisfied normally.
    fn deadline_live(&self, t: ThreadId, at: VirtTime) -> bool {
        let tcb = &self.threads[t.index()];
        tcb.state == TState::Blocked && tcb.deadline == Some(at)
    }

    /// Earliest live deadline armed on `p`, discarding stale heap entries.
    fn next_live_deadline(&mut self, p: ProcId) -> Option<VirtTime> {
        while let Some((at, token)) = self.machine.peek_deadline(p) {
            if self.deadline_live(ThreadId(token as u32), at) {
                return Some(at);
            }
            self.machine.pop_deadline(p);
        }
        None
    }

    /// Earliest live deadline on *any* processor's heap (parked ones
    /// included — their entries fire once the active processors' clocks
    /// pass them).
    fn next_live_deadline_any(&mut self) -> Option<VirtTime> {
        (0..self.parked.len())
            .filter_map(|q| self.next_live_deadline(q))
            .min()
    }

    /// Minimum clock among the non-parked processors *other than* `p` —
    /// the earliest virtual time at which anyone else could still publish
    /// a wake. `None` when `p` is the only active processor (then nobody
    /// can, and `p` may advance freely). Parked processors are excluded
    /// because [`Inner::unpark`] idles them forward to the publication
    /// that revives them: they can never act before an active processor's
    /// present.
    fn causal_horizon(&self, p: ProcId) -> Option<VirtTime> {
        (0..self.parked.len())
            .filter(|&q| q != p && !self.parked[q])
            .map(|q| self.machine.clock(q))
            .min()
    }

    /// The latest virtual time up to which the wake-vs-timeout race is
    /// already decided, seen from `p`: the global minimum clock over the
    /// non-parked processors. Every future wake is timestamped at its
    /// publisher's (monotone) clock, so no wake earlier than this floor
    /// can appear — deadlines at or before it may fire as timeouts.
    fn wake_floor(&self, p: ProcId) -> VirtTime {
        let me = self.machine.clock(p);
        match self.causal_horizon(p) {
            Some(h) => me.min(h),
            None => me,
        }
    }

    /// Fires every live deadline — on any processor's heap — due at or
    /// before `floor` (the caller's [`Inner::wake_floor`]). Firing is
    /// deferred, never early: a deadline beyond the floor stays armed so a
    /// slower processor can still win the race with a virtually-earlier
    /// wake. Returns whether any fired.
    fn fire_due_timeouts(&mut self, floor: VirtTime) -> bool {
        // Gather every live due deadline first: the firing order among
        // simultaneously-due timeouts is itself a scheduling decision
        // point, and an eviction hook run by one firing may satisfy (and
        // thereby cancel) a later gathered one, which the per-entry
        // liveness re-check below discards.
        let mut due: Vec<(ThreadId, ProcId, VirtTime)> = Vec::new();
        for q in 0..self.parked.len() {
            while let Some((at, token)) = self.machine.peek_deadline(q) {
                let t = ThreadId(token as u32);
                if !self.deadline_live(t, at) {
                    self.machine.pop_deadline(q);
                    continue;
                }
                if at > floor {
                    break;
                }
                self.machine.pop_deadline(q);
                due.push((t, q, at));
            }
        }
        self.chooser
            .order(DecisionKind::TimeoutOrder, None, &mut due, |d| d.2);
        let mut fired = false;
        for (t, q, at) in due {
            if !self.deadline_live(t, at) {
                continue; // an earlier firing's eviction already woke it
            }
            self.timeout_wake(t, q, at);
            fired = true;
        }
        fired
    }

    /// [`Inner::make_ready`]'s timeout twin: wakes `t` because its armed
    /// deadline (`at`) fired, not because the primitive handed over. Emits
    /// a `Timeout` event instead of a `Wake`, so the happens-before checker
    /// knows no notify sanctioned this wake, and sets `timed_out` for the
    /// timed API to consume on resume. Timestamped at the deadline itself
    /// (clamped by the block), however late in engine order the firing is.
    fn timeout_wake(&mut self, t: ThreadId, p: ProcId, at: VirtTime) {
        debug_assert_eq!(self.threads[t.index()].state, TState::Blocked);
        let now = at.max(self.threads[t.index()].blocked_at);
        let (prio, affinity, obj) = {
            let tcb = &mut self.threads[t.index()];
            tcb.state = TState::Ready;
            tcb.ready_since = now;
            tcb.timed_out = true;
            tcb.deadline = None;
            let obj = tcb.wait.and_then(|w| w.obj);
            tcb.wait = None;
            (tcb.attr.priority, tcb.last_proc, obj)
        };
        if self.trace.is_some() {
            let t0 = self.prof_start();
            let tr = self.trace.as_mut().expect("checked");
            tr.event(now, p, Some(t.0), EventKind::Timeout { obj });
            self.prof_close(t0, |hp| &mut hp.trace_alloc);
        }
        self.sched_op(p);
        self.policy.on_ready(t, prio, now, p, affinity);
        self.unpark(now);
        // Eager eviction: withdraw the timed-out thread's queue entry (and
        // re-admit whoever that unblocks) before any later grant can see
        // it. Runs after the Timeout event and unpark so re-admission
        // wakes are causally ordered after the timeout itself. The hook
        // runs with `cur` pointed at the evictee: its withdrawal is what
        // re-admits the batch, so the Notify/Wake events it publishes are
        // attributed to it (keeping the checker's wake-sanction rule —
        // every wake needs a notify by its waker — satisfied).
        if let Some(evict) = self.threads[t.index()].evict.take() {
            let saved = self.cur;
            self.cur = Some((t, p));
            evict(self, t);
            self.cur = saved;
        }
    }

    /// Minimum-clock runnable processor, or `None` when all are parked.
    /// Under perturbation, ties at the minimum clock break pseudo-randomly
    /// instead of always toward processor 0 — this is the main source of
    /// genuinely different (but still causally valid) event interleavings.
    fn pick_proc(&mut self) -> Option<ProcId> {
        let best = (0..self.parked.len())
            .filter(|&q| !self.parked[q])
            .min_by_key(|&q| self.machine.clock(q))?;
        Some(self.tie_break(best, DecisionKind::DispatchTie, |inner, r| !inner.parked[r]))
    }

    /// The serial fast path's guard: when *exactly one* processor is
    /// unparked and it holds a direct handoff, takes the handoff and
    /// returns `(processor, thread, ts_resume)`. With a single eligible
    /// processor the min-clock pick is forced and the perturbed tie-break
    /// draws nothing, so skipping the full round changes no behaviour.
    fn solo_handoff(&mut self) -> Option<(ProcId, ThreadId, bool)> {
        let mut unparked = (0..self.parked.len()).filter(|&q| !self.parked[q]);
        let p = unparked.next()?;
        if unparked.next().is_some() {
            return None;
        }
        let (tid, resume) = self.handoff[p].take()?;
        Some((p, tid, resume))
    }

    /// The watchdog's verdict when all processors are idle with live
    /// threads: who is alive, what each waits on, and since when.
    fn stall_info(&self) -> StallInfo {
        let at = (0..self.parked.len())
            .map(|q| self.machine.clock(q))
            .max()
            .unwrap_or(VirtTime::ZERO);
        let threads = self
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.state != TState::Exited)
            .map(|(i, t)| StalledThread {
                thread: i as u32,
                reason: t.wait.map(|w| w.reason),
                obj: t.wait.and_then(|w| w.obj),
                since: t.blocked_at,
            })
            .collect();
        StallInfo {
            at,
            scheduler: self.policy.kind().name().to_string(),
            threads,
        }
    }
}

/// Runs `f` as the root thread of a fresh virtual-SMP runtime and returns
/// its result together with the run's [`Report`].
///
/// This is the reproduction's equivalent of launching a multithreaded
/// Solaris process on the Enterprise 5000: `config` selects the processor
/// count, scheduler, default stack size and cost model.
///
/// # Panics
/// Propagates a panic of the root thread. Panics in spawned threads are
/// delivered at their `join`. Panics with the watchdog's [`RunError`] when
/// the run stalls (all processors idle with live threads) — use
/// [`try_run`] to receive the stall verdict as a value instead.
pub fn run<T: 'static>(config: Config, f: impl FnOnce() -> T + 'static) -> (T, Report) {
    match try_run(config, f) {
        Ok(v) => v,
        Err(e) => panic!("{e}"),
    }
}

/// Like [`run`], but a stalled run — all processors idle while threads are
/// still alive (lost wakeup, partial deadlock, abandoned barrier) — returns
/// the watchdog's [`RunError`] verdict instead of panicking. The verdict
/// names every live thread, what it waits on, and since when; the partial
/// [`Report`] (including any detected waits-for cycles) rides along.
///
/// On a stall the surviving threads are force-unwound: their destructors
/// run (locks release, TLS values drop), but their closure results are
/// discarded.
///
/// # Panics
/// Propagates a panic of the root thread, like [`run`].
pub fn try_run<T: 'static>(
    config: Config,
    f: impl FnOnce() -> T + 'static,
) -> Result<(T, Report), RunError> {
    let inner_rc = Rc::new(RefCell::new(Inner::new(&config)));
    let slot: Slot<T> = Rc::new(RefCell::new(None));
    let guard = install(ActiveCtx::Par(inner_rc.clone()));

    {
        let mut inner = inner_rc.borrow_mut();
        let stack = inner.acquire_fiber_stack();
        let fiber = make_fiber(stack, slot.clone(), f);
        let _ = inner.create_thread(None, 0, Attr::default(), Some(fiber), Kind::Root);
    }

    let stalled = engine_loop(&inner_rc);
    if stalled.is_some() {
        // Tear down the surviving fibers while the runtime context is still
        // installed: each drop force-unwinds its fiber so destructors (lock
        // guards, TLS values) run. The bookkeeping hooks they reach are
        // lenient about `cur == None` and no-op during this sweep. The
        // fibers are collected under one borrow and dropped outside it, so
        // destructor code may re-borrow the runtime.
        let fibers: Vec<Fiber> = {
            let mut inner = inner_rc.borrow_mut();
            inner.cur = None;
            inner
                .threads
                .iter_mut()
                .filter_map(|t| t.fiber.take())
                .collect()
        };
        drop(fibers);
    }
    drop(guard);

    let mut inner = inner_rc.borrow_mut();
    if let Some(payload) = inner.threads[0].panic.take() {
        drop(inner);
        drop(inner_rc);
        resume_unwind(payload);
    }
    let peak = inner.threads.len();
    let steals = inner.policy.steals();
    let mut trace = inner.trace.take();
    if let Some(tr) = trace.as_mut() {
        // Fold the machine-level recording (memory events, exact counter
        // tracks) into the trace before the machine is consumed.
        if let Some(rec) = inner.machine.take_recording() {
            tr.absorb_machine(rec);
        }
        // Attach the schedule decision log (engine order, never sorted).
        // Natural runs attach nothing.
        tr.decisions = inner.chooser.take_decisions();
    }
    let mut stats = {
        let machine = std::mem::replace(
            &mut inner.machine,
            Machine::new(1, config.cost.clone(), config.default_stack),
        );
        machine.finish()
    };
    // Fold the host stack-pool counters into the memory stats. The machine's
    // own accounting (footprint, live bytes) is untouched — pool slabs are
    // host memory, reported in their own fields so virtual footprint numbers
    // stay bit-identical to pre-pool runs.
    let pool = inner.stack_pool.stats();
    stats.mem.host_stack_hits = pool.hits;
    stats.mem.host_stack_misses = pool.misses;
    stats.mem.host_stack_cached_hwm = pool.cached_bytes_hwm;
    // The runtime records its phases (dispatch, sched-pop, trace-alloc)
    // directly into the machine's profiler, so `stats.host_phase` is already
    // complete; stamp it onto the trace so standalone trace tools can
    // report it.
    if stats.host_phase.enabled {
        if let Some(tr) = trace.as_mut() {
            tr.host_phase = Some(stats.host_phase);
        }
    }
    let leaks = inner
        .ledger
        .take()
        .map(|l| l.report(stats.mem.free_underflows));
    let deadlocks = std::mem::take(&mut inner.deadlocks);
    drop(inner);
    let mut report = Report::new(&config, stats, peak, steals, trace, leaks, deadlocks);
    match stalled {
        None => {
            let value = slot
                .borrow_mut()
                .take()
                .expect("root thread completed without a value");
            Ok((value, report))
        }
        Some(stall) => {
            report.stalled = Some(stall.clone());
            Err(RunError {
                stall,
                report: Box::new(report),
            })
        }
    }
}

/// Builds the fiber for a thread body: registers its yielder, runs the body,
/// stores the result, and records panics for delivery at join.
pub(crate) fn make_fiber<T: 'static>(
    stack: Stack,
    slot: Slot<T>,
    f: impl FnOnce() -> T + 'static,
) -> Fiber {
    make_fiber_erased(
        stack,
        Box::new(move || {
            *slot.borrow_mut() = Some(f());
        }),
    )
}

/// Type-erased fiber constructor (used by the lifetime-erasing scope API).
/// Takes an owned host stack (usually from [`Inner::acquire_fiber_stack`]);
/// it is returned to the pool when the fiber completes.
pub(crate) fn make_fiber_erased(stack: Stack, body: Box<dyn FnOnce()>) -> Fiber {
    // With the portable thread backend, each fiber runs on its own OS
    // thread, which starts with an empty thread-local context; capture the
    // engine's context now (on the engine thread) and install it when the
    // fiber first runs. A no-op under the single-thread assembly backend.
    let ctx = with_active(|c| match c {
        Some(ActiveCtx::Par(rc)) => Some(rc.clone()),
        _ => None,
    });
    Coroutine::with_stack(stack, move |yielder, ()| {
        if let Some(rc) = ctx {
            adopt_context(rc);
        }
        register_yielder(yielder);
        let result = catch_unwind(AssertUnwindSafe(body));
        if let Err(payload) = result {
            if payload.is::<ForcedUnwind>() {
                resume_unwind(payload);
            }
            store_panic(payload);
        }
    })
}

/// Installs the runtime context into the calling OS thread's slot if it has
/// none (fiber threads under the portable backend). Serialized by the
/// backend's rendezvous discipline.
fn adopt_context(rc: Rc<RefCell<Inner>>) {
    ACTIVE.with(|a| {
        let mut slot = a.borrow_mut();
        if slot.is_none() {
            *slot = Some(ActiveCtx::Par(rc));
        }
    });
}

fn register_yielder(y: &crate::thread::FiberYielder) {
    with_active(|ctx| {
        let Some(ActiveCtx::Par(rc)) = ctx else {
            panic!("fiber running without an active runtime")
        };
        let mut inner = rc.borrow_mut();
        let (tid, _) = inner.cur.expect("fiber running without cur");
        inner.threads[tid.index()].yielder = y as *const _;
    });
}

fn store_panic(payload: Box<dyn std::any::Any + Send>) {
    with_active(|ctx| {
        if let Some(ActiveCtx::Par(rc)) = ctx {
            let mut inner = rc.borrow_mut();
            let (tid, _) = inner.cur.expect("panic outside a thread");
            inner.threads[tid.index()].panic = Some(payload);
        }
    });
}

/// Suspends the current fiber with `reason`; returns when redispatched.
pub(crate) fn suspend_current(rc: &Rc<RefCell<Inner>>, reason: YieldReason) {
    let yielder = {
        let inner = rc.borrow();
        let (tid, _) = inner.cur.expect("suspend outside a thread");
        inner.threads[tid.index()].yielder
    };
    assert!(!yielder.is_null(), "suspend before yielder registration");
    // SAFETY: the yielder lives on the current fiber's stack for the whole
    // fiber lifetime; we are that fiber.
    let yielder = unsafe { &*yielder };
    yielder.suspend(reason);
}

/// Virtual-time quantum after which a fiber that has run ahead of every
/// other active processor pauses so virtually-concurrent segments
/// interleave (see [`YieldReason::Timeslice`]).
const TIMESLICE: VirtTime = VirtTime::from_us(200);

/// Suspends the current fiber (cost-free) if its processor's clock is more
/// than one [`TIMESLICE`] ahead of every other non-parked processor.
pub(crate) fn maybe_timeslice(rc: &Rc<RefCell<Inner>>) {
    let should = {
        let inner = rc.borrow();
        let Some((tid, p)) = inner.cur else {
            return;
        };
        // Never timeslice a thread that has already registered itself on a
        // wait queue (state Blocked, between `block_current` and its
        // `Blocked` suspend — e.g. the unlock inside `Condvar::wait`): a
        // concurrent wake would queue it while it also sits in the handoff
        // slot, double-dispatching it.
        if inner.threads[tid.index()].state != TState::Running(p) {
            return;
        }
        let my = inner.machine.clock(p);
        (0..inner.parked.len())
            .filter(|&q| q != p && !inner.parked[q])
            .map(|q| inner.machine.clock(q))
            .min()
            .is_some_and(|min| my.since(min) > TIMESLICE)
    };
    if should {
        suspend_current(rc, YieldReason::Timeslice);
    }
}

fn engine_loop(inner_rc: &Rc<RefCell<Inner>>) -> Option<StallInfo> {
    loop {
        let mut inner = inner_rc.borrow_mut();
        if inner.live == 0 {
            return None;
        }
        // Serial fast path (the cycle-box analogue): with the hot path
        // armed, no deadline outstanding, and exactly one runnable
        // processor holding a direct handoff, the full scheduling round is
        // provably a no-op beyond taking the handoff — the min-clock pick
        // has no rivals (so the perturbed tie-break draws nothing), and no
        // timeout can fire with no deadline armed. The guard re-evaluates
        // every iteration, so the engine falls back to the event-heap round
        // the instant a second processor unparks or a deadline is armed.
        if let Some((p, tid, ts_resume)) =
            (inner.hot_path && !inner.machine.has_deadlines())
                .then(|| inner.solo_handoff())
                .flatten()
        {
            run_quantum(inner, inner_rc, p, tid, ts_resume);
            continue;
        }
        let Some(p) = inner.pick_proc() else {
            // All processors parked. A live timed wait still guarantees
            // progress: advance the earliest-deadline processor to its
            // deadline and fire it — with everyone parked no wake can
            // materialize, so the race is decided. With no deadline armed
            // the run is stalled: hand the watchdog's verdict up instead
            // of panicking here.
            let due = (0..inner.parked.len())
                .filter_map(|q| inner.next_live_deadline(q).map(|d| (d, q)))
                .min();
            match due {
                Some((d, q)) => {
                    inner.parked[q] = false;
                    inner.machine.idle_until(q, d);
                    inner.fire_due_timeouts(d);
                    continue;
                }
                None => return Some(inner.stall_info()),
            }
        };
        // Deliver every timed wait whose deadline the whole machine has
        // passed, before this processor picks new work. `p` holds the
        // minimum clock right now, so the floor is its own clock.
        let floor = inner.wake_floor(p);
        inner.fire_due_timeouts(floor);
        let (tid, ts_resume) = if let Some((child, resume)) = inner.handoff[p].take() {
            (child, resume)
        } else {
            inner.sched_op(p);
            let now = inner.machine.clock(p);
            let t0 = inner.prof_start();
            let popped = inner.policy.pop(p, now);
            inner.prof_close(t0, |hp| &mut hp.sched_pop);
            match popped {
                Pop::Got { tid, stolen } => {
                    if stolen {
                        // Migration: pay an extra switch for the cold start.
                        let c = inner.machine.cost().ctx_switch;
                        inner.machine.thread_op(p, c);
                        if inner.trace.is_some() {
                            let at = inner.machine.clock(p);
                            let victim =
                                inner.policy.last_steal_victim().map(|v| v as u32);
                            let tr = inner.trace.as_mut().expect("checked");
                            tr.event(at, p, Some(tid.0), EventKind::Steal { victim });
                        }
                    }
                    if inner.trace.is_some() {
                        let at = inner.machine.clock(p);
                        let ready = inner.policy.ready_len() as u64;
                        let deques = inner.policy.active_deques();
                        let tr = inner.trace.as_mut().expect("checked");
                        tr.sample_ready(at, ready);
                        if let Some(d) = deques {
                            tr.sample_active_deques(at, d as u64);
                        }
                    }
                    (tid, false)
                }
                Pop::NotYet(t) => {
                    // Idle only as far as the nearest *decidable* armed
                    // deadline, so a timed wait fires on schedule even when
                    // the next ready entry lies beyond it. A deadline past
                    // the causal horizon (another processor still trails
                    // it) must not short-stop the idle: that processor may
                    // yet publish the earlier wake, and the post-idle
                    // firing floor defers the timeout either way.
                    let mut until = t;
                    if let Some(d) = inner.next_live_deadline_any() {
                        let decidable =
                            inner.causal_horizon(p).is_none_or(|h| d <= h);
                        if decidable && d < until {
                            until = d;
                        }
                    }
                    inner.machine.idle_until(p, until);
                    let floor = inner.wake_floor(p);
                    inner.fire_due_timeouts(floor);
                    continue;
                }
                Pop::Empty => {
                    // An idle processor is what keeps timed waits honest:
                    // it advances to the earliest armed deadline — but only
                    // as fast as the slowest active processor (the causal
                    // horizon), so a wake published from virtually behind
                    // the deadline still wins the race. At the horizon with
                    // the deadline still ahead, park: either a wake revives
                    // this processor, or everyone ends up parked and the
                    // all-parked arm above fires the deadline.
                    if let Some(d) = inner.next_live_deadline_any() {
                        let now = inner.machine.clock(p);
                        match inner.causal_horizon(p) {
                            None => {
                                inner.machine.idle_until(p, d);
                                inner.fire_due_timeouts(d);
                                continue;
                            }
                            Some(h) if d <= h => {
                                inner.machine.idle_until(p, d);
                                let floor = inner.wake_floor(p);
                                inner.fire_due_timeouts(floor);
                                continue;
                            }
                            Some(h) if h > now => {
                                inner.machine.idle_until(p, h);
                                continue;
                            }
                            Some(_) => {} // at the horizon already: park
                        }
                    }
                    inner.parked[p] = true;
                    continue;
                }
            }
        };
        run_quantum(inner, inner_rc, p, tid, ts_resume);
    }
}

/// Runs one scheduling quantum: dispatch bookkeeping, the fiber resume (or
/// the inline dummy body), yield/completion handling, and span recording.
/// Shared tail of the engine loop's full round and serial fast path.
fn run_quantum(
    mut inner: std::cell::RefMut<'_, Inner>,
    inner_rc: &Rc<RefCell<Inner>>,
    p: ProcId,
    tid: ThreadId,
    ts_resume: bool,
) {
    if ts_resume {
        // Cost-free continuation of a time-sliced fiber.
        inner.cur = Some((tid, p));
    } else {
        let t0 = inner.prof_start();
        inner.dispatch_prologue(tid, p);
        inner.prof_close(t0, |hp| &mut hp.dispatch);
    }
    // The dispatched fiber's timeslice reference clock for this quantum.
    inner.refresh_ts_min_other();
    let span_start = inner.machine.clock(p);
    let span_kind = if ts_resume {
        crate::trace::SpanKind::Resume
    } else if inner.threads[tid.index()].kind == Kind::Dummy {
        crate::trace::SpanKind::Dummy
    } else {
        crate::trace::SpanKind::Run
    };
    if inner.threads[tid.index()].kind == Kind::Dummy {
        // Dummies perform a no-op and exit (paper §4 item 2); their cost
        // is creation + dispatch + exit bookkeeping. A dummy standing
        // for a subtree of the lazy binary tree forks its two children
        // before exiting.
        let remaining = inner.threads[tid.index()].dummy_remaining;
        if remaining > 1 {
            inner.create_dummy_tree(tid, p, remaining - 1);
        }
        inner.machine.compute(p, 100);
        inner.finish_thread(tid, p);
        let end = inner.machine.clock(p);
        if inner.trace.is_some() {
            let t0 = inner.prof_start();
            let tr = inner.trace.as_mut().expect("checked");
            tr.record(p, tid, span_start, end, span_kind);
            inner.prof_close(t0, |hp| &mut hp.trace_alloc);
        }
        return;
    }
    let mut fiber = inner.threads[tid.index()]
        .fiber
        .take()
        .expect("dispatched thread has no fiber");
    drop(inner);
    let step = fiber.resume(());
    let mut inner = inner_rc.borrow_mut();
    match step {
        Step::Yield(reason) => {
            inner.threads[tid.index()].fiber = Some(fiber);
            inner.handle_yield(tid, p, reason);
        }
        Step::Complete(()) => {
            // Recycle the completed fiber's host stack for the next
            // spawn (the portable backend has no real stack to return).
            if let Some(stack) = fiber.into_stack() {
                inner.recycle_fiber_stack(stack);
            }
            inner.finish_thread(tid, p);
        }
    }
    let end = inner.machine.clock(p);
    if inner.trace.is_some() {
        let t0 = inner.prof_start();
        let tr = inner.trace.as_mut().expect("checked");
        tr.record(p, tid, span_start, end, span_kind);
        inner.prof_close(t0, |hp| &mut hp.trace_alloc);
    }
}

/// Implementation of [`fn@crate::cancel`] / [`JoinHandle::cancel`]: resolves
/// the active runtime and latches/delivers the request. Outside a runtime
/// there is nothing to cancel; report `false`.
pub(crate) fn cancel_impl(tid: ThreadId) -> bool {
    with_active(|ctx| match ctx {
        Some(ActiveCtx::Par(rc)) => rc.borrow_mut().request_cancel(tid),
        _ => false,
    })
}

/// Implementation of [`crate::cancel_point`]: an explicit cancellation
/// point on the calling thread. No-op outside the runtime.
pub(crate) fn cancel_point_impl() {
    let rc = with_active(|ctx| match ctx {
        Some(ActiveCtx::Par(rc)) => Some(rc.clone()),
        _ => None,
    });
    if let Some(rc) = rc {
        deliver_cancel(&rc);
    }
}

/// Implementation of [`crate::set_cancel_enabled`]: swaps the current
/// thread's cancel state, returning the previous one. Re-enabling does
/// *not* deliver a latched request by itself — delivery waits for the next
/// cancellation point, per POSIX `pthread_setcancelstate`.
pub(crate) fn set_cancel_enabled_impl(enabled: bool) -> bool {
    with_active(|ctx| match ctx {
        Some(ActiveCtx::Par(rc)) => {
            let mut inner = rc.borrow_mut();
            match inner.cur {
                Some((tid, _)) => {
                    std::mem::replace(&mut inner.threads[tid.index()].cancel_enabled, enabled)
                }
                None => true,
            }
        }
        _ => true,
    })
}

/// Delivers a latched cancellation request on the *current, running*
/// thread, if one is pending and cancellation is enabled: clears the
/// request, disables further cancellation (the unwind's own sync
/// operations must not re-deliver), emits the `Cancel` event (`obj: None`
/// — there is no wait queue to leave), and unwinds with a
/// [`crate::CancelError`]. Every cancellation point calls this on entry;
/// returns normally when nothing is pending.
pub(crate) fn deliver_cancel(rc: &Rc<RefCell<Inner>>) {
    let err = {
        let mut inner = rc.borrow_mut();
        let Some((tid, p)) = inner.cur else {
            return;
        };
        {
            let tcb = &inner.threads[tid.index()];
            if !(tcb.cancel_requested && tcb.cancel_enabled) {
                return;
            }
        }
        let tcb = &mut inner.threads[tid.index()];
        tcb.cancel_requested = false;
        tcb.cancel_enabled = false;
        let by = tcb.canceled_by;
        if inner.trace.is_some() {
            let now = inner.machine.clock(p);
            let t0 = inner.prof_start();
            let tr = inner.trace.as_mut().expect("checked");
            tr.event(now, p, Some(tid.0), EventKind::Cancel { obj: None, by });
            inner.prof_close(t0, |hp| &mut hp.trace_alloc);
        }
        crate::CancelError {
            thread: tid,
            by: by.map(ThreadId),
        }
    };
    resume_unwind(Box::new(err));
}

/// The shared resume-side cancellation check: when the wake that resumed
/// the current thread was a [`Inner::cancel_wake`], unwind with the
/// structured [`crate::CancelError`] instead of completing the wait. The
/// `Cancel` event was already emitted by the wake; this only raises.
pub(crate) fn unwind_if_cancel_woken(rc: &Rc<RefCell<Inner>>) {
    let err = {
        let mut inner = rc.borrow_mut();
        if !inner.consume_cancel_woken() {
            return;
        }
        inner.cancel_error_current()
    };
    resume_unwind(Box::new(err));
}

/// Implementation of [`JoinHandle::join`]: re-raises a child panic in the
/// joiner (pthread `join` semantics on a cancelled/aborted thread); a
/// cancelled child re-raises its structured [`crate::CancelError`].
pub(crate) fn join_impl<T>(h: &JoinHandle<T>) -> T {
    match try_join_impl(h) {
        Ok(v) => v,
        Err(JoinError::Panicked(payload)) => resume_unwind(payload),
        Err(JoinError::Canceled(e)) => resume_unwind(Box::new(e)),
        Err(e @ JoinError::NoValue) => panic!("{e}"),
    }
}

/// Implementation of [`JoinHandle::try_join`]: waits for the child exactly
/// like `join`, but surfaces a child panic (or a missing value) as a
/// [`JoinError`] instead of unwinding the joiner.
pub(crate) fn try_join_impl<T>(h: &JoinHandle<T>) -> Result<T, JoinError> {
    if !h.inline {
        if let Some(payload) = join_wait(h.id) {
            return Err(match payload.downcast::<crate::CancelError>() {
                Ok(e) => JoinError::Canceled(*e),
                Err(p) => JoinError::Panicked(p),
            });
        }
    }
    h.slot.borrow_mut().take().ok_or(JoinError::NoValue)
}

/// Blocks the current thread until `target` exits. Returns the target's
/// panic payload, if it panicked; the caller decides whether to re-raise.
pub(crate) fn join_wait(target: ThreadId) -> Option<Box<dyn std::any::Any + Send>> {
    let rc = with_active(|ctx| match ctx {
        Some(ActiveCtx::Par(rc)) => rc.clone(),
        _ => panic!("join on a runtime thread outside the runtime"),
    });
    // Join is a cancellation point (POSIX): deliver on entry…
    deliver_cancel(&rc);
    loop {
        let mut inner = rc.borrow_mut();
        // Lenient on context: a scope guard unwinding during stall teardown
        // joins children that will never run; report "no value" upstream
        // instead of tearing the process down with a nested panic.
        let (cur, p) = inner.cur?;
        let t = target.index();
        if inner.threads[t].state == TState::Exited {
            // Happens-before: join cannot return before the child's virtual
            // exit, even when the engine (real-time) ran the child first.
            let exit_time = inner.threads[t].exit_time;
            if inner.machine.clock(p) < exit_time {
                // The exit lies in this processor's virtual future. Don't
                // idle the processor across the gap — that would be
                // non-greedy (and breaks Brent's bound when other work is
                // ready). Sleep until the exit becomes visible instead.
                drop(inner);
                suspend_current(&rc, YieldReason::JoinWake { at: exit_time });
                continue;
            }
            let c = inner.machine.cost().join_exited;
            inner.machine.thread_op(p, c);
            if inner.trace.is_some() {
                let at = inner.machine.clock(p);
                let tr = inner.trace.as_mut().expect("checked");
                tr.event(at, p, Some(cur.0), EventKind::Join { target: target.0 });
            }
            let payload = inner.threads[t].panic.take();
            drop(inner);
            return payload;
        }
        assert!(
            inner.threads[t].joiner.is_none(),
            "two threads joining {target}"
        );
        // A join edge can close a waits-for cycle just like a lock edge
        // (t1 joins t2 while t2 blocks on a mutex t1 holds). Check before
        // registering as joiner, and unwind instead of blocking forever.
        if let Some(info) = inner.check_for_cycle(cur, None, Some(target)) {
            inner.record_deadlock(&info);
            drop(inner);
            std::panic::panic_any(DeadlockError { info });
        }
        inner.threads[t].joiner = Some(cur);
        inner.block_current(BlockReason::Join, None, Some(target));
        // …and while blocked: a cancel_wake must withdraw the joiner
        // registration so the target's eventual exit doesn't wake (or
        // assert on) a dead joiner.
        inner.arm_block_evict(Box::new(move |eng, me| {
            if eng.threads[target.index()].joiner == Some(me) {
                eng.threads[target.index()].joiner = None;
            }
        }));
        drop(inner);
        suspend_current(&rc, YieldReason::Blocked);
        unwind_if_cancel_woken(&rc);
    }
}

/// Implementation of [`JoinHandle::join_timeout`]: waits at most `timeout`
/// of virtual time, returning the handle back on expiry.
pub(crate) fn join_timeout_impl<T>(
    h: JoinHandle<T>,
    timeout: VirtTime,
) -> Result<T, JoinHandle<T>> {
    if !h.inline {
        match join_wait_timeout(h.id, timeout) {
            Ok(Some(payload)) => resume_unwind(payload),
            Ok(None) => {}
            Err(crate::TimedOut) => return Err(h),
        }
    }
    match h.slot.borrow_mut().take() {
        Some(v) => Ok(v),
        None => panic!("{}", JoinError::NoValue),
    }
}

/// Timed flavour of [`join_wait`]: `Err(TimedOut)` when `target` has not
/// (virtually) exited within `timeout`; otherwise the target's panic
/// payload, like `join_wait`.
fn join_wait_timeout(
    target: ThreadId,
    timeout: VirtTime,
) -> Result<Option<Box<dyn std::any::Any + Send>>, crate::TimedOut> {
    let rc = with_active(|ctx| match ctx {
        Some(ActiveCtx::Par(rc)) => rc.clone(),
        _ => panic!("join on a runtime thread outside the runtime"),
    });
    // Timed join is a cancellation point too.
    deliver_cancel(&rc);
    let mut deadline: Option<VirtTime> = None;
    loop {
        let mut inner = rc.borrow_mut();
        let Some((cur, p)) = inner.cur else {
            return Ok(None);
        };
        let now = inner.machine.clock(p);
        let deadline =
            *deadline.get_or_insert(VirtTime::from_ns(now.as_ns().saturating_add(timeout.as_ns())));
        let t = target.index();
        if inner.threads[t].state == TState::Exited {
            let exit_time = inner.threads[t].exit_time;
            if exit_time > deadline {
                // The child's virtual exit lies beyond our budget: sleep to
                // the deadline (greedily, like `JoinWake`) and report the
                // timeout at exactly the promised virtual instant.
                drop(inner);
                suspend_current(&rc, YieldReason::JoinWake { at: deadline });
                return Err(crate::TimedOut);
            }
            if now < exit_time {
                drop(inner);
                suspend_current(&rc, YieldReason::JoinWake { at: exit_time });
                continue;
            }
            let c = inner.machine.cost().join_exited;
            inner.machine.thread_op(p, c);
            if inner.trace.is_some() {
                let at = inner.machine.clock(p);
                let tr = inner.trace.as_mut().expect("checked");
                tr.event(at, p, Some(cur.0), EventKind::Join { target: target.0 });
            }
            let payload = inner.threads[t].panic.take();
            drop(inner);
            return Ok(payload);
        }
        assert!(
            inner.threads[t].joiner.is_none(),
            "two threads joining {target}"
        );
        inner.threads[t].joiner = Some(cur);
        inner.block_current(BlockReason::Join, None, Some(target));
        // The eviction hook (shared by the deadline firing and a
        // cancel_wake) withdraws the joiner registration eagerly, so the
        // target's eventual exit never meets a dead joiner.
        inner.arm_timed_wait_evicting(
            VirtTime::from_ns(deadline.as_ns().saturating_sub(now.as_ns())),
            Box::new(move |eng, me| {
                if eng.threads[target.index()].joiner == Some(me) {
                    eng.threads[target.index()].joiner = None;
                }
            }),
        );
        drop(inner);
        suspend_current(&rc, YieldReason::Blocked);
        unwind_if_cancel_woken(&rc);
        let mut inner = rc.borrow_mut();
        if inner.consume_timeout() {
            // The eviction hook already withdrew the joiner registration.
            debug_assert_ne!(inner.threads[t].joiner, Some(cur));
            drop(inner);
            // A timed wait's expiry resumption is itself a cancellation
            // point: deliver a request that raced the deadline and lost.
            deliver_cancel(&rc);
            return Err(crate::TimedOut);
        }
    }
}
