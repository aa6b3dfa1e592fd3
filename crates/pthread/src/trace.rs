//! The flight recorder: execution spans, structured scheduler/memory
//! events, exactly-sampled counter tracks, and per-thread lifecycle
//! metrics, exportable as a Chrome/Perfetto trace.
//!
//! Enable with [`crate::Config::with_trace`]; the trace comes back on the
//! run's [`crate::Report`]. Everything is on the **virtual** timeline:
//!
//! * **Spans** ([`Span`]) — one per scheduling quantum, as before.
//! * **Events** ([`Event`]) — spawn, first dispatch, block/wake (with the
//!   blocking primitive as the reason), join, steal (victim → thief),
//!   dummy-thread insertion, quota preemption, stack reserve/release, and
//!   heap allocs/frees at or above [`crate::TRACE_ALLOC_THRESHOLD`].
//! * **Counter tracks** ([`Counters`]) — committed footprint (the paper's
//!   Figure 9 curve), live threads, ready-queue length, active deque count
//!   (deque policies), and cumulative scheduler-lock wait. The footprint
//!   and live-thread tracks are sampled inside the machine at every change,
//!   so their maxima equal the reported high-water marks **bit-for-bit**.
//! * **Lifecycle** ([`ThreadLifecycle`]) — per thread: spawn → first
//!   dispatch latency, total ready-wait, quantum count, exit time;
//!   aggregated into percentile summaries by [`Trace::lifecycle`].
//!
//! The Chrome export ([`Trace::to_chrome_json`]) writes spans as `"ph":"X"`
//! duration records, events as `"ph":"i"` instants and counters as
//! `"ph":"C"` counter records; exact nanosecond payloads ride along in
//! `args`, which is what makes [`Trace::from_chrome_json`] a lossless
//! round trip (asserted in tests). The `ptdf-trace` CLI consumes this
//! format to summarize, validate, and diff traces.

use crate::json::{intern, obj, Value};
use crate::thread::ThreadId;
use ptdf_smp::{HostPhaseStats, MachineRecording, MemEventKind, PhaseStat, ProcId, VirtTime};
use std::rc::Rc;

/// What a trace span represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum SpanKind {
    /// A thread executing a scheduling quantum.
    Run,
    /// A dummy (allocation-throttle) thread.
    Dummy,
    /// Cost-free continuation of a time-sliced fiber.
    Resume,
}

impl SpanKind {
    fn name(self) -> &'static str {
        match self {
            SpanKind::Run => "run",
            SpanKind::Dummy => "dummy",
            SpanKind::Resume => "resume",
        }
    }

    fn from_name(s: &str) -> Option<SpanKind> {
        Some(match s {
            "run" => SpanKind::Run,
            "dummy" => SpanKind::Dummy,
            "resume" => SpanKind::Resume,
            _ => return None,
        })
    }
}

/// One execution span on a virtual processor.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct Span {
    /// Virtual processor.
    pub proc: ProcId,
    /// Thread id.
    pub thread: u32,
    /// Span start (virtual).
    pub start: VirtTime,
    /// Span end (virtual).
    pub end: VirtTime,
    /// Span kind.
    pub kind: SpanKind,
}

/// Which primitive a thread blocked on (the "reason" of a block event).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
pub enum BlockReason {
    /// `JoinHandle::join` on a still-running thread.
    Join,
    /// [`crate::Mutex`] contention.
    Mutex,
    /// [`crate::Condvar::wait`].
    Condvar,
    /// [`crate::Semaphore::acquire`] with no permit.
    Semaphore,
    /// [`crate::Barrier::wait`] before the last arriver.
    Barrier,
    /// [`crate::RwLock`] read side.
    RwRead,
    /// [`crate::RwLock`] write side.
    RwWrite,
}

impl BlockReason {
    /// Stable reason name (used in the Chrome export and checker reports).
    pub fn name(self) -> &'static str {
        match self {
            BlockReason::Join => "join",
            BlockReason::Mutex => "mutex",
            BlockReason::Condvar => "condvar",
            BlockReason::Semaphore => "semaphore",
            BlockReason::Barrier => "barrier",
            BlockReason::RwRead => "rw-read",
            BlockReason::RwWrite => "rw-write",
        }
    }

    fn from_name(s: &str) -> Option<BlockReason> {
        Some(match s {
            "join" => BlockReason::Join,
            "mutex" => BlockReason::Mutex,
            "condvar" => BlockReason::Condvar,
            "semaphore" => BlockReason::Semaphore,
            "barrier" => BlockReason::Barrier,
            "rw-read" => BlockReason::RwRead,
            "rw-write" => BlockReason::RwWrite,
            _ => return None,
        })
    }
}

/// A structured scheduler or memory event.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub enum EventKind {
    /// A thread was created.
    Spawn {
        /// The forking thread, if any (`None` for the root).
        parent: Option<u32>,
    },
    /// A thread ran for the first time (stack committed, latency endpoint).
    FirstDispatch,
    /// A thread blocked on a primitive.
    Block {
        /// Which primitive.
        reason: BlockReason,
        /// Per-run id of the sync object blocked on (`None` for joins,
        /// which block on a thread, not an object).
        obj: Option<u32>,
    },
    /// A blocked thread was made ready.
    Wake {
        /// Thread that published the wake (`None` only for wakes issued
        /// outside any thread context).
        waker: Option<u32>,
    },
    /// A wake-capable sync operation (notify, post, barrier completion,
    /// lock handoff) executed; records what the primitive observed and
    /// claimed atomically, which is what lets the happens-before checker
    /// ([`crate::check_trace`]) catch lost notifies without reconstructing
    /// wait-list state from interleaved timestamps.
    Notify {
        /// Primitive kind performing the wake.
        reason: BlockReason,
        /// Per-run id of the sync object.
        obj: u32,
        /// Waiters present when the operation ran.
        waiters: u64,
        /// Waiters the operation actually woke.
        woken: u64,
    },
    /// A join completed (the joiner observed the target's exit).
    Join {
        /// The joined (exited) thread.
        target: u32,
    },
    /// A work migration: the event's processor stole the event's thread.
    Steal {
        /// Processor the thread was stolen from, when the policy knows it.
        victim: Option<u32>,
    },
    /// The DF allocation hook inserted dummy throttle threads.
    DummyInsert {
        /// Number of dummies (δ = ⌈bytes/K⌉).
        count: u64,
    },
    /// Memory-quota preemption (DF policies).
    Preempt,
    /// Thread stack reserved (at creation).
    StackReserve {
        /// Reserved bytes.
        bytes: u64,
    },
    /// Thread stack released (at exit).
    StackRelease {
        /// Released bytes.
        bytes: u64,
    },
    /// Heap allocation at or above the configured threshold.
    Alloc {
        /// Allocation size.
        bytes: u64,
    },
    /// Heap free at or above the configured threshold.
    Free {
        /// Freed size.
        bytes: u64,
    },
    /// A free underflowed the live byte count (a double free in the
    /// modelled program); always recorded, regardless of threshold.
    FreeUnderflow {
        /// Bytes by which the free exceeded the live count.
        bytes: u64,
    },
    /// The committed footprint first crossed the armed space bound
    /// ([`crate::Config::with_space_bound`]); recorded once, at the
    /// crossing growth (footprint is monotone, so one event marks the
    /// excursion; `MemStats::bound_violations` counts every growth above).
    BoundViolation {
        /// Footprint after the crossing growth.
        footprint: u64,
        /// The armed bound in bytes.
        bound: u64,
    },
    /// A timed wait expired: the subject thread woke itself at its armed
    /// deadline instead of being woken by a notify. Sanctioned by the
    /// happens-before checker — a timeout wake requires no notifier.
    Timeout {
        /// Sync object the wait was parked on (`None` for `join_timeout`
        /// and artificial chaos deadlines).
        obj: Option<u32>,
    },
    /// The deadlock sentinel detected a waits-for cycle. One event is
    /// recorded per cycle member (the subject thread), all sharing a
    /// per-run `cycle` index; following `waits_for` from any member walks
    /// the whole cycle.
    Deadlock {
        /// Per-run index of the detected cycle (members share it).
        cycle: u32,
        /// The thread this member waits for (the next cycle member).
        waits_for: u32,
        /// Sync object this member waits on (`None` for a join edge).
        obj: Option<u32>,
    },
    /// A cancellation request was delivered to the subject thread. When
    /// the subject was blocked, it has been evicted from its wait queue
    /// and woken to unwind — the checker's third sanctioned wake (with
    /// [`EventKind::Wake`] and [`EventKind::Timeout`]): a cancel wake
    /// requires no notifier. When the subject was running, delivery
    /// happened at a cancellation point it reached itself and `obj` is
    /// `None`.
    Cancel {
        /// Sync object the subject was parked on when cancelled (`None`
        /// for join waits and running-thread delivery).
        obj: Option<u32>,
        /// The requesting thread, when the cancel came from inside the
        /// runtime.
        by: Option<u32>,
    },
}

impl EventKind {
    /// Stable event-kind name (used in the Chrome export and summaries).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Spawn { .. } => "spawn",
            EventKind::FirstDispatch => "first-dispatch",
            EventKind::Block { .. } => "block",
            EventKind::Wake { .. } => "wake",
            EventKind::Notify { .. } => "notify",
            EventKind::Join { .. } => "join",
            EventKind::Steal { .. } => "steal",
            EventKind::DummyInsert { .. } => "dummy-insert",
            EventKind::Preempt => "preempt",
            EventKind::StackReserve { .. } => "stack-reserve",
            EventKind::StackRelease { .. } => "stack-release",
            EventKind::Alloc { .. } => "alloc",
            EventKind::Free { .. } => "free",
            EventKind::FreeUnderflow { .. } => "free-underflow",
            EventKind::BoundViolation { .. } => "bound-violation",
            EventKind::Timeout { .. } => "timeout",
            EventKind::Deadlock { .. } => "deadlock",
            EventKind::Cancel { .. } => "cancel",
        }
    }
}

/// One event on the virtual timeline.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct Event {
    /// Virtual time of the event.
    pub at: VirtTime,
    /// Acting processor.
    pub proc: ProcId,
    /// Subject thread, when known (machine-level memory events have none).
    pub thread: Option<u32>,
    /// What happened.
    pub kind: EventKind,
}

/// Counter tracks: `(virtual time, value)` samples.
///
/// `footprint`, `live_threads` and `sched_lock_wait` are sampled inside the
/// machine at every change (see `ptdf_smp::MachineRecording`), so
/// `max(footprint) == MemStats::footprint_hwm` and `max(live_threads) ==
/// MemStats::live_threads_hwm` exactly. `ready` and `active_deques` are
/// sampled at every dispatch.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize)]
pub struct Counters {
    /// Committed footprint in bytes (the paper's Figure 9 curve).
    pub footprint: Vec<(VirtTime, u64)>,
    /// Live (created, not exited) threads.
    pub live_threads: Vec<(VirtTime, u64)>,
    /// Schedulable entries in the policy's ready set.
    pub ready: Vec<(VirtTime, u64)>,
    /// Live deques (deque policies only; empty for the serialized ones).
    pub active_deques: Vec<(VirtTime, u64)>,
    /// Cumulative scheduler-lock contention wait in nanoseconds.
    pub sched_lock_wait: Vec<(VirtTime, u64)>,
    /// Bytes cached in the host fiber-stack pool, sampled at every
    /// acquire/release (host memory; not part of the virtual footprint).
    pub host_pool_cached: Vec<(VirtTime, u64)>,
}

/// Per-thread lifecycle record.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct ThreadLifecycle {
    /// Thread id.
    pub thread: u32,
    /// Creation time.
    pub spawned: VirtTime,
    /// First dispatch time (`None` if never dispatched).
    pub first_dispatch: Option<VirtTime>,
    /// Total time spent ready-but-not-running.
    pub ready_wait: VirtTime,
    /// Scheduling quanta received (full dispatches, not resumes).
    pub quanta: u64,
    /// Exit time (`None` if still live at trace capture).
    pub exited: Option<VirtTime>,
}

impl ThreadLifecycle {
    fn new(thread: u32, spawned: VirtTime) -> Self {
        ThreadLifecycle {
            thread,
            spawned,
            first_dispatch: None,
            ready_wait: VirtTime::ZERO,
            quanta: 0,
            exited: None,
        }
    }
}

/// Configuration echo carried by a trace so tools can interpret it
/// standalone.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize)]
pub struct TraceMeta {
    /// Scheduler name (`"df"`, `"fifo"`, ...).
    pub scheduler: String,
    /// Virtual processor count.
    pub processors: usize,
    /// Default accounted stack size in bytes.
    pub default_stack: u64,
    /// DF memory quota `K`, for the quota-carrying policies.
    pub quota: Option<u64>,
    /// Schedule-perturbation seed the run used, if any — together with
    /// `scheduler` this is the full replay recipe for the schedule.
    pub perturb_seed: Option<u64>,
    /// Chaos-fault seed ([`crate::Config::with_chaos`]) the run used, if
    /// any; part of the replay recipe when present.
    pub chaos_seed: Option<u64>,
}

/// A recorded flight-recorder trace.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize)]
pub struct Trace {
    /// Run configuration echo.
    pub meta: TraceMeta,
    /// All spans, in engine (real-time) order.
    pub spans: Vec<Span>,
    /// All events, sorted by virtual time (stable) once the run completes.
    pub events: Vec<Event>,
    /// Counter tracks.
    pub counters: Counters,
    /// Per-thread lifecycle records, indexed by thread id.
    pub threads: Vec<ThreadLifecycle>,
    /// Host-side engine phase profile, when the run was profiled
    /// ([`crate::Config::with_host_profile`]); rides along so trace tools
    /// can report it standalone.
    pub host_phase: Option<HostPhaseStats>,
    /// Schedule decision log, in engine order (never sorted): one entry per
    /// resolved scheduling decision point. Attached by oracle-driven runs
    /// ([`crate::Config::with_oracle`]) and by perturbed traced runs;
    /// empty for natural runs, whose schedule has no decisions to record.
    pub decisions: Vec<crate::oracle::Decision>,
}

/// Percentiles and a log₂ histogram over one latency population.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize)]
pub struct LatencyStats {
    /// Sample count.
    pub count: u64,
    /// Median.
    pub p50: VirtTime,
    /// 90th percentile.
    pub p90: VirtTime,
    /// 99th percentile.
    pub p99: VirtTime,
    /// Maximum.
    pub max: VirtTime,
    /// `hist_log2[0]` counts zero-valued samples; `hist_log2[i]` (i ≥ 1)
    /// counts samples in `[2^(i-1), 2^i)` nanoseconds.
    pub hist_log2: Vec<u64>,
}

impl LatencyStats {
    fn from_ns(mut samples: Vec<u64>) -> Self {
        if samples.is_empty() {
            return LatencyStats::default();
        }
        samples.sort_unstable();
        let n = samples.len();
        let pct = |q: f64| {
            let idx = ((n - 1) as f64 * q).round() as usize;
            VirtTime::from_ns(samples[idx])
        };
        let mut hist = Vec::new();
        for &s in &samples {
            let bucket = if s == 0 { 0 } else { 64 - s.leading_zeros() as usize };
            if hist.len() <= bucket {
                hist.resize(bucket + 1, 0);
            }
            hist[bucket] += 1;
        }
        LatencyStats {
            count: n as u64,
            p50: pct(0.50),
            p90: pct(0.90),
            p99: pct(0.99),
            max: VirtTime::from_ns(samples[n - 1]),
            hist_log2: hist,
        }
    }
}

/// Aggregated per-thread lifecycle metrics (see [`Trace::lifecycle`]).
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize)]
pub struct LifecycleSummary {
    /// Threads with a lifecycle record.
    pub threads: u64,
    /// Total scheduling quanta across all threads (== total dispatches).
    pub total_quanta: u64,
    /// Spawn → first-dispatch latency, over dispatched threads.
    pub dispatch_latency: LatencyStats,
    /// Total ready-wait per thread, over all threads.
    pub ready_wait: LatencyStats,
}

/// Recyclable backing storage of a [`Trace`]: the span/event/lifecycle
/// vectors plus generic counter-track buffers (every counter track shares
/// the `(VirtTime, u64)` element type, so a retired machine track can back
/// a runtime-sampled track on the next run).
#[derive(Default)]
struct TraceStorage {
    spans: Vec<Span>,
    events: Vec<Event>,
    threads: Vec<ThreadLifecycle>,
    tracks: Vec<Vec<(VirtTime, u64)>>,
}

/// Upper bound on pooled storages (and on `tracks` per storage). The pool
/// exists to let repeated `with_trace` runs reuse warmed vector capacity
/// instead of re-growing from empty each run; a handful of entries covers
/// that without retaining unbounded memory from one huge trace.
const TRACE_POOL_MAX: usize = 4;

thread_local! {
    /// Per-host-thread trace-storage pool. The engine runs every fiber on
    /// the calling host thread, so the `Trace` built by a run and the next
    /// run's `Trace::new` see the same pool.
    static TRACE_POOL: std::cell::RefCell<Vec<TraceStorage>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Returning storage on `Drop` (rather than at some explicit engine hook)
/// means every retirement path feeds the pool — including a `Report`
/// dropped while a panic unwinds — and parsed or cloned traces contribute
/// their capacity too. `try_with`/`try_borrow_mut` keep the drop infallible
/// during thread teardown.
impl Drop for Trace {
    fn drop(&mut self) {
        let mut storage = TraceStorage {
            spans: std::mem::take(&mut self.spans),
            events: std::mem::take(&mut self.events),
            threads: std::mem::take(&mut self.threads),
            tracks: Vec::new(),
        };
        for track in [
            std::mem::take(&mut self.counters.footprint),
            std::mem::take(&mut self.counters.live_threads),
            std::mem::take(&mut self.counters.ready),
            std::mem::take(&mut self.counters.active_deques),
            std::mem::take(&mut self.counters.sched_lock_wait),
            std::mem::take(&mut self.counters.host_pool_cached),
        ] {
            if track.capacity() > 0 && storage.tracks.len() < TRACE_POOL_MAX {
                storage.tracks.push(track);
            }
        }
        if storage.spans.capacity() == 0
            && storage.events.capacity() == 0
            && storage.threads.capacity() == 0
            && storage.tracks.is_empty()
        {
            return; // nothing worth pooling
        }
        storage.spans.clear();
        storage.events.clear();
        storage.threads.clear();
        for t in &mut storage.tracks {
            t.clear();
        }
        let _ = TRACE_POOL.try_with(|pool| {
            if let Ok(mut pool) = pool.try_borrow_mut() {
                if pool.len() < TRACE_POOL_MAX {
                    pool.push(storage);
                }
            }
        });
    }
}

impl Trace {
    pub(crate) fn new(meta: TraceMeta) -> Self {
        let storage = TRACE_POOL
            .try_with(|pool| pool.try_borrow_mut().ok().and_then(|mut p| p.pop()))
            .ok()
            .flatten()
            .unwrap_or_default();
        let mut trace = Trace::default();
        trace.meta = meta;
        trace.spans = storage.spans;
        trace.events = storage.events;
        trace.threads = storage.threads;
        let mut tracks = storage.tracks;
        // Only the runtime-sampled tracks draw pooled buffers; the machine
        // tracks are installed wholesale by `absorb_machine`.
        for slot in [
            &mut trace.counters.ready,
            &mut trace.counters.active_deques,
            &mut trace.counters.host_pool_cached,
        ] {
            match tracks.pop() {
                Some(t) => *slot = t,
                None => break,
            }
        }
        trace
    }

    /// Pooled storages currently cached on this thread (test hook).
    #[cfg(test)]
    fn pool_len() -> usize {
        TRACE_POOL.with(|p| p.borrow().len())
    }

    pub(crate) fn record(
        &mut self,
        proc: ProcId,
        thread: ThreadId,
        start: VirtTime,
        end: VirtTime,
        kind: SpanKind,
    ) {
        self.spans.push(Span {
            proc,
            thread: thread.0,
            start,
            end,
            kind,
        });
    }

    fn lifecycle_mut(&mut self, thread: u32, spawned_hint: VirtTime) -> &mut ThreadLifecycle {
        let idx = thread as usize;
        while self.threads.len() <= idx {
            let t = self.threads.len() as u32;
            self.threads.push(ThreadLifecycle::new(t, spawned_hint));
        }
        &mut self.threads[idx]
    }

    /// Records an event, maintaining the lifecycle records for the
    /// lifecycle-bearing kinds.
    pub(crate) fn event(&mut self, at: VirtTime, proc: ProcId, thread: Option<u32>, kind: EventKind) {
        if let Some(t) = thread {
            match kind {
                EventKind::Spawn { .. } => {
                    self.lifecycle_mut(t, at).spawned = at;
                }
                EventKind::FirstDispatch => {
                    let lc = self.lifecycle_mut(t, at);
                    if lc.first_dispatch.is_none() {
                        lc.first_dispatch = Some(at);
                    }
                }
                _ => {}
            }
        }
        self.events.push(Event {
            at,
            proc,
            thread,
            kind,
        });
    }

    /// Counts one scheduling quantum for `thread`.
    pub(crate) fn note_quantum(&mut self, thread: u32, at: VirtTime) {
        self.lifecycle_mut(thread, at).quanta += 1;
    }

    /// Accrues ready-but-not-running wait for `thread`.
    pub(crate) fn add_ready_wait(&mut self, thread: u32, wait: VirtTime) {
        self.lifecycle_mut(thread, VirtTime::ZERO).ready_wait += wait;
    }

    /// Marks `thread` exited at `at`.
    pub(crate) fn note_exit(&mut self, thread: u32, at: VirtTime) {
        self.lifecycle_mut(thread, at).exited = Some(at);
    }

    /// Samples the ready-set size (deduplicating unchanged values).
    pub(crate) fn sample_ready(&mut self, at: VirtTime, len: u64) {
        if self.counters.ready.last().map(|&(_, v)| v) != Some(len) {
            self.counters.ready.push((at, len));
        }
    }

    /// Samples the active-deque count (deduplicating unchanged values).
    pub(crate) fn sample_active_deques(&mut self, at: VirtTime, n: u64) {
        if self.counters.active_deques.last().map(|&(_, v)| v) != Some(n) {
            self.counters.active_deques.push((at, n));
        }
    }

    /// Samples the host stack-pool cached bytes (deduplicating unchanged
    /// values).
    pub(crate) fn sample_pool_cached(&mut self, at: VirtTime, bytes: u64) {
        if self.counters.host_pool_cached.last().map(|&(_, v)| v) != Some(bytes) {
            self.counters.host_pool_cached.push((at, bytes));
        }
    }

    /// Merges the machine-level recording (memory events, exactly-sampled
    /// footprint/live-thread/lock-wait tracks) and sorts the merged event
    /// stream by virtual time. Called once at end of run.
    pub(crate) fn absorb_machine(&mut self, rec: MachineRecording) {
        for e in rec.events {
            let kind = match e.kind {
                MemEventKind::Alloc { bytes } => EventKind::Alloc { bytes },
                MemEventKind::Free { bytes } => EventKind::Free { bytes },
                MemEventKind::StackReserve { bytes } => EventKind::StackReserve { bytes },
                MemEventKind::StackRelease { bytes } => EventKind::StackRelease { bytes },
                MemEventKind::FreeUnderflow { bytes } => EventKind::FreeUnderflow { bytes },
                MemEventKind::BoundViolation { footprint, bound } => {
                    EventKind::BoundViolation { footprint, bound }
                }
            };
            self.events.push(Event {
                at: e.at,
                proc: e.proc,
                thread: None,
                kind,
            });
        }
        self.counters.footprint = rec.footprint;
        self.counters.live_threads = rec.live_threads;
        self.counters.sched_lock_wait = rec.sched_lock_wait;
        // Machine samples and runtime events arrive in engine (real-time)
        // order; processors' clocks interleave, so sort everything onto the
        // virtual timeline (stably: ties keep engine order).
        self.counters.footprint.sort_by_key(|&(at, _)| at);
        self.counters.live_threads.sort_by_key(|&(at, _)| at);
        self.counters.sched_lock_wait.sort_by_key(|&(at, _)| at);
        self.counters.ready.sort_by_key(|&(at, _)| at);
        self.counters.active_deques.sort_by_key(|&(at, _)| at);
        self.counters.host_pool_cached.sort_by_key(|&(at, _)| at);
        self.events.sort_by_key(|e| e.at);
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Per-processor busy time implied by the spans.
    pub fn busy_per_proc(&self, processors: usize) -> Vec<VirtTime> {
        let mut busy = vec![VirtTime::ZERO; processors];
        for s in &self.spans {
            if s.proc < processors {
                busy[s.proc] += s.end.since(s.start);
            }
        }
        busy
    }

    /// High-water committed footprint implied by the footprint track
    /// (equals `MemStats::footprint_hwm` exactly; 0 without counters).
    pub fn footprint_hwm(&self) -> u64 {
        self.counters.footprint.iter().map(|&(_, v)| v).max().unwrap_or(0)
    }

    /// Peak live threads implied by the live-thread track (equals
    /// `MemStats::live_threads_hwm` exactly; 0 without counters).
    pub fn max_live_threads(&self) -> u64 {
        self.counters.live_threads.iter().map(|&(_, v)| v).max().unwrap_or(0)
    }

    /// Event counts per kind name, sorted by name.
    pub fn event_kind_counts(&self) -> Vec<(&'static str, u64)> {
        let mut counts: Vec<(&'static str, u64)> = Vec::new();
        for e in &self.events {
            let name = e.kind.name();
            match counts.iter_mut().find(|(n, _)| *n == name) {
                Some((_, c)) => *c += 1,
                None => counts.push((name, 1)),
            }
        }
        counts.sort_by_key(|&(n, _)| n);
        counts
    }

    /// Aggregates the per-thread lifecycle records into percentile
    /// summaries.
    pub fn lifecycle(&self) -> LifecycleSummary {
        let mut latency = Vec::new();
        let mut waits = Vec::new();
        let mut total_quanta = 0;
        for t in &self.threads {
            total_quanta += t.quanta;
            if let Some(fd) = t.first_dispatch {
                latency.push(fd.since(t.spawned).as_ns());
            }
            waits.push(t.ready_wait.as_ns());
        }
        LifecycleSummary {
            threads: self.threads.len() as u64,
            total_quanta,
            dispatch_latency: LatencyStats::from_ns(latency),
            ready_wait: LatencyStats::from_ns(waits),
        }
    }

    /// Sanity check: spans on the same processor must not overlap in
    /// virtual time. Returns the first violating pair (in `(proc, start)`
    /// order), if any. One sort + one linear pass.
    pub fn find_overlap(&self) -> Option<(Span, Span)> {
        let mut sorted = self.spans.clone();
        sorted.sort_by_key(|s| (s.proc, s.start));
        sorted
            .windows(2)
            .find(|w| w[0].proc == w[1].proc && w[1].start < w[0].end)
            .map(|w| (w[0], w[1]))
    }

    /// Structural validation: span sanity and no-overlap, globally sorted
    /// events, monotone counter tracks, and lifecycle ordering
    /// (spawn ≤ first dispatch ≤ exit; dispatched threads have quanta).
    pub fn validate(&self) -> Result<(), String> {
        for s in &self.spans {
            if s.end < s.start {
                return Err(format!("span t{} on proc {} ends before it starts", s.thread, s.proc));
            }
        }
        if let Some((a, b)) = self.find_overlap() {
            return Err(format!(
                "overlap on proc {}: t{} [{}, {}) and t{} [{}, {})",
                a.proc, a.thread, a.start, a.end, b.thread, b.start, b.end
            ));
        }
        if let Some(w) = self.events.windows(2).find(|w| w[1].at < w[0].at) {
            return Err(format!(
                "events out of order: {} at {} after {} at {}",
                w[1].kind.name(),
                w[1].at,
                w[0].kind.name(),
                w[0].at
            ));
        }
        for (name, track) in [
            ("footprint", &self.counters.footprint),
            ("live-threads", &self.counters.live_threads),
            ("ready", &self.counters.ready),
            ("active-deques", &self.counters.active_deques),
            ("sched-lock-wait", &self.counters.sched_lock_wait),
            ("host-pool-cached", &self.counters.host_pool_cached),
        ] {
            if track.windows(2).any(|w| w[1].0 < w[0].0) {
                return Err(format!("counter track {name} has out-of-order samples"));
            }
        }
        for t in &self.threads {
            if let Some(fd) = t.first_dispatch {
                if fd < t.spawned {
                    return Err(format!("t{} dispatched before spawn", t.thread));
                }
                if t.quanta == 0 {
                    return Err(format!("t{} dispatched but has zero quanta", t.thread));
                }
                if let Some(ex) = t.exited {
                    if ex < fd {
                        return Err(format!("t{} exited before first dispatch", t.thread));
                    }
                }
            }
        }
        Ok(())
    }

    /// Serializes to Chrome trace-event JSON (object form), loadable in
    /// `chrome://tracing` and Perfetto: spans as `"ph":"X"` durations,
    /// events as `"ph":"i"` instants, counters as `"ph":"C"` records
    /// (timestamps in microseconds). Exact nanosecond values ride in
    /// `args`, making [`Trace::from_chrome_json`] lossless.
    pub fn to_chrome_json(&self) -> String {
        self.chrome_doc(self.chrome_records()).to_json()
    }

    /// Serializes like [`Trace::to_chrome_json`], additionally rendering an
    /// analyzed critical path ([`crate::critpath::CritPath`]) as a dedicated
    /// Perfetto track: the path's segments become `"ph":"X"` durations on
    /// `pid` 1 (the base trace uses `pid` 0), named by blame bucket, so the
    /// realized critical path reads as one swim-lane above the
    /// per-processor lanes. [`Trace::from_chrome_json`] ignores the extra
    /// track (any record with a nonzero `pid`), so the round trip of the
    /// base trace still holds.
    pub fn to_chrome_json_with_critpath(&self, cp: &crate::critpath::CritPath) -> String {
        let us = |t: VirtTime| Value::Float(t.as_ns() as f64 / 1e3);
        let mut records = self.chrome_records();
        records.push(obj(vec![
            ("name", Value::Str("process_name".into())),
            ("ph", Value::Str("M".into())),
            ("pid", Value::UInt(1)),
            ("args", obj(vec![("name", Value::Str("critical path".into()))])),
        ]));
        records.push(obj(vec![
            ("name", Value::Str("thread_name".into())),
            ("ph", Value::Str("M".into())),
            ("pid", Value::UInt(1)),
            ("tid", Value::UInt(0)),
            ("args", obj(vec![("name", Value::Str("blame".into()))])),
        ]));
        for seg in &cp.segments {
            let name = match seg.bucket {
                crate::critpath::BlameBucket::LockWait { reason, obj } => match obj {
                    Some(o) => format!("lock-wait {}#{o}", reason.name()),
                    None => format!("lock-wait {}", reason.name()),
                },
                other => other.name().to_string(),
            };
            records.push(obj(vec![
                ("name", Value::Str(name.into())),
                ("ph", Value::Str("X".into())),
                ("cat", Value::Str("critpath".into())),
                ("pid", Value::UInt(1)),
                ("tid", Value::UInt(0)),
                ("ts", us(seg.start)),
                ("dur", us(seg.end.since(seg.start))),
                (
                    "args",
                    obj(vec![
                        (
                            "thread",
                            seg.thread.map_or(Value::Null, |t| Value::UInt(t as u64)),
                        ),
                        ("bucket", Value::Str(seg.bucket.name().into())),
                        ("startNs", Value::UInt(seg.start.as_ns())),
                        ("endNs", Value::UInt(seg.end.as_ns())),
                    ]),
                ),
            ]));
        }
        self.chrome_doc(records).to_json()
    }

    /// Builds the per-span/event/counter records shared by both exporters.
    ///
    /// Repeated payloads are interned: object keys and phase codes via
    /// [`crate::json::intern`], and per-thread `"t{}"` span names through a
    /// local cache, so exporting a trace with millions of records performs
    /// `Rc` clones instead of one string allocation per repeated field.
    fn chrome_records(&self) -> Vec<Value> {
        let us = |t: VirtTime| Value::Float(t.as_ns() as f64 / 1e3);
        let ph_x = intern("X");
        let ph_i = intern("i");
        let ph_c = intern("C");
        let scope_t = intern("t");
        // `"t{}"` names repeat once per quantum; share one Rc per thread.
        let mut run_names: Vec<Option<Rc<str>>> = Vec::new();
        let mut records = Vec::new();
        for s in &self.spans {
            let name: Rc<str> = match s.kind {
                SpanKind::Run => {
                    let idx = s.thread as usize;
                    if run_names.len() <= idx {
                        run_names.resize(idx + 1, None);
                    }
                    run_names[idx]
                        .get_or_insert_with(|| format!("t{}", s.thread).into())
                        .clone()
                }
                SpanKind::Dummy => format!("dummy t{}", s.thread).into(),
                SpanKind::Resume => format!("t{} (resume)", s.thread).into(),
            };
            records.push(obj(vec![
                ("name", Value::Str(name)),
                ("ph", Value::Str(ph_x.clone())),
                ("pid", Value::UInt(0)),
                ("tid", Value::UInt(s.proc as u64)),
                ("ts", us(s.start)),
                ("dur", us(s.end.since(s.start))),
                (
                    "args",
                    obj(vec![
                        ("thread", Value::UInt(s.thread as u64)),
                        ("kind", Value::Str(intern(s.kind.name()))),
                        ("startNs", Value::UInt(s.start.as_ns())),
                        ("endNs", Value::UInt(s.end.as_ns())),
                    ]),
                ),
            ]));
        }
        for e in &self.events {
            let mut args = vec![
                ("ns", Value::UInt(e.at.as_ns())),
                (
                    "thread",
                    e.thread.map_or(Value::Null, |t| Value::UInt(t as u64)),
                ),
            ];
            match e.kind {
                EventKind::Spawn { parent } => args.push((
                    "parent",
                    parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                )),
                EventKind::Block { reason, obj } => {
                    args.push(("reason", Value::Str(intern(reason.name()))));
                    args.push(("obj", obj.map_or(Value::Null, |o| Value::UInt(o as u64))));
                }
                EventKind::Wake { waker } => args.push((
                    "waker",
                    waker.map_or(Value::Null, |w| Value::UInt(w as u64)),
                )),
                EventKind::Notify {
                    reason,
                    obj,
                    waiters,
                    woken,
                } => {
                    args.push(("reason", Value::Str(intern(reason.name()))));
                    args.push(("obj", Value::UInt(obj as u64)));
                    args.push(("waiters", Value::UInt(waiters)));
                    args.push(("woken", Value::UInt(woken)));
                }
                EventKind::Join { target } => args.push(("target", Value::UInt(target as u64))),
                EventKind::Steal { victim } => args.push((
                    "victim",
                    victim.map_or(Value::Null, |v| Value::UInt(v as u64)),
                )),
                EventKind::DummyInsert { count } => args.push(("count", Value::UInt(count))),
                EventKind::StackReserve { bytes }
                | EventKind::StackRelease { bytes }
                | EventKind::Alloc { bytes }
                | EventKind::Free { bytes }
                | EventKind::FreeUnderflow { bytes } => {
                    args.push(("bytes", Value::UInt(bytes)));
                }
                EventKind::BoundViolation { footprint, bound } => {
                    args.push(("footprint", Value::UInt(footprint)));
                    args.push(("bound", Value::UInt(bound)));
                }
                EventKind::Timeout { obj } => {
                    args.push(("obj", obj.map_or(Value::Null, |o| Value::UInt(o as u64))));
                }
                EventKind::Cancel { obj, by } => {
                    args.push(("obj", obj.map_or(Value::Null, |o| Value::UInt(o as u64))));
                    args.push(("by", by.map_or(Value::Null, |b| Value::UInt(b as u64))));
                }
                EventKind::Deadlock { cycle, waits_for, obj } => {
                    args.push(("cycle", Value::UInt(cycle as u64)));
                    args.push(("waitsFor", Value::UInt(waits_for as u64)));
                    args.push(("obj", obj.map_or(Value::Null, |o| Value::UInt(o as u64))));
                }
                EventKind::FirstDispatch | EventKind::Preempt => {}
            }
            records.push(obj(vec![
                ("name", Value::Str(intern(e.kind.name()))),
                ("ph", Value::Str(ph_i.clone())),
                ("s", Value::Str(scope_t.clone())),
                ("pid", Value::UInt(0)),
                ("tid", Value::UInt(e.proc as u64)),
                ("ts", us(e.at)),
                ("args", obj(args)),
            ]));
        }
        for (name, unit, track) in [
            ("footprint", "bytes", &self.counters.footprint),
            ("live-threads", "threads", &self.counters.live_threads),
            ("ready", "entries", &self.counters.ready),
            ("active-deques", "deques", &self.counters.active_deques),
            ("sched-lock-wait", "waitNs", &self.counters.sched_lock_wait),
            ("host-pool-cached", "bytes", &self.counters.host_pool_cached),
        ] {
            let name = intern(name);
            for &(at, v) in track {
                records.push(obj(vec![
                    ("name", Value::Str(name.clone())),
                    ("ph", Value::Str(ph_c.clone())),
                    ("pid", Value::UInt(0)),
                    ("ts", us(at)),
                    (
                        "args",
                        obj(vec![(unit, Value::UInt(v)), ("ns", Value::UInt(at.as_ns()))]),
                    ),
                ]));
            }
        }
        records
    }

    /// Wraps the record array into the Chrome trace-event document, carrying
    /// the config echo (and the host-phase profile, when present) in
    /// `otherData`.
    fn chrome_doc(&self, records: Vec<Value>) -> Value {
        let host_phase = match &self.host_phase {
            None => Value::Null,
            Some(hp) => {
                let mut members = vec![("enabled", Value::Bool(hp.enabled))];
                let phase = |p: PhaseStat| {
                    obj(vec![
                        ("count", Value::UInt(p.count)),
                        ("ns", Value::UInt(p.ns)),
                    ])
                };
                for (name, p) in hp.phases() {
                    members.push((name, phase(p)));
                }
                obj(members)
            }
        };
        let threads = self
            .threads
            .iter()
            .map(|t| {
                obj(vec![
                    ("thread", Value::UInt(t.thread as u64)),
                    ("spawnedNs", Value::UInt(t.spawned.as_ns())),
                    (
                        "firstDispatchNs",
                        t.first_dispatch
                            .map_or(Value::Null, |v| Value::UInt(v.as_ns())),
                    ),
                    ("readyWaitNs", Value::UInt(t.ready_wait.as_ns())),
                    ("quanta", Value::UInt(t.quanta)),
                    (
                        "exitedNs",
                        t.exited.map_or(Value::Null, |v| Value::UInt(v.as_ns())),
                    ),
                ])
            })
            .collect();
        let decisions = self
            .decisions
            .iter()
            .map(|d| {
                obj(vec![
                    ("k", Value::Str(d.kind.name().into())),
                    ("ns", Value::UInt(d.at.as_ns())),
                    ("n", Value::UInt(d.n as u64)),
                    ("chosen", Value::UInt(d.chosen as u64)),
                    ("obj", d.obj.map_or(Value::Null, |o| Value::UInt(o as u64))),
                ])
            })
            .collect();
        obj(vec![
            ("traceEvents", Value::Arr(records)),
            (
                "otherData",
                obj(vec![
                    ("scheduler", Value::Str(self.meta.scheduler.as_str().into())),
                    ("processors", Value::UInt(self.meta.processors as u64)),
                    ("defaultStack", Value::UInt(self.meta.default_stack)),
                    (
                        "quota",
                        self.meta.quota.map_or(Value::Null, Value::UInt),
                    ),
                    (
                        "perturbSeed",
                        self.meta.perturb_seed.map_or(Value::Null, Value::UInt),
                    ),
                    (
                        "chaosSeed",
                        self.meta.chaos_seed.map_or(Value::Null, Value::UInt),
                    ),
                    ("hostPhase", host_phase),
                ]),
            ),
            ("ptdfThreads", Value::Arr(threads)),
            ("ptdfDecisions", Value::Arr(decisions)),
        ])
    }

    /// Parses a trace back from [`Trace::to_chrome_json`] output. Exact:
    /// the result compares equal to the original trace.
    pub fn from_chrome_json(text: &str) -> Result<Trace, String> {
        let doc = Value::parse(text)?;
        let mut trace = Trace::default();
        if let Some(meta) = doc.get("otherData") {
            trace.meta = TraceMeta {
                scheduler: meta
                    .get("scheduler")
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string(),
                processors: meta
                    .get("processors")
                    .and_then(Value::as_u64)
                    .unwrap_or(0) as usize,
                default_stack: meta
                    .get("defaultStack")
                    .and_then(Value::as_u64)
                    .unwrap_or(0),
                quota: meta.get("quota").and_then(Value::as_u64),
                perturb_seed: meta.get("perturbSeed").and_then(Value::as_u64),
                chaos_seed: meta.get("chaosSeed").and_then(Value::as_u64),
            };
            if let Some(hp) = meta.get("hostPhase") {
                if hp.get("enabled").is_some() {
                    let mut stats = HostPhaseStats {
                        enabled: hp.get("enabled").and_then(Value::as_bool).unwrap_or(false),
                        ..HostPhaseStats::default()
                    };
                    for (name, slot) in [
                        ("heap_push", &mut stats.heap_push),
                        ("heap_pop", &mut stats.heap_pop),
                        ("charge", &mut stats.charge),
                        ("sched_lock", &mut stats.sched_lock),
                        ("sched_pop", &mut stats.sched_pop),
                        ("dispatch", &mut stats.dispatch),
                        ("trace_alloc", &mut stats.trace_alloc),
                    ] {
                        if let Some(p) = hp.get(name) {
                            slot.count = p.get("count").and_then(Value::as_u64).unwrap_or(0);
                            slot.ns = p.get("ns").and_then(Value::as_u64).unwrap_or(0);
                        }
                    }
                    trace.host_phase = Some(stats);
                }
            }
        }
        let records = doc
            .get("traceEvents")
            .and_then(Value::as_arr)
            .ok_or("missing traceEvents array")?;
        for r in records {
            // Auxiliary tracks (the critical-path lane, metadata records)
            // live on nonzero pids; the recorded trace itself is pid 0.
            if r.get("pid").and_then(Value::as_u64).unwrap_or(0) != 0 {
                continue;
            }
            let ph = r.get("ph").and_then(Value::as_str).ok_or("record without ph")?;
            let name = r.get("name").and_then(Value::as_str).unwrap_or("");
            let args = r.get("args");
            let arg_u64 = |key: &str| args.and_then(|a| a.get(key)).and_then(Value::as_u64);
            let arg_str =
                |key: &str| args.and_then(|a| a.get(key)).and_then(Value::as_str);
            match ph {
                "X" => {
                    let kind = arg_str("kind")
                        .and_then(SpanKind::from_name)
                        .ok_or("span without kind")?;
                    trace.spans.push(Span {
                        proc: r.get("tid").and_then(Value::as_u64).unwrap_or(0) as usize,
                        thread: arg_u64("thread").ok_or("span without thread")? as u32,
                        start: VirtTime::from_ns(arg_u64("startNs").ok_or("span without startNs")?),
                        end: VirtTime::from_ns(arg_u64("endNs").ok_or("span without endNs")?),
                        kind,
                    });
                }
                "i" => {
                    let kind = match name {
                        "spawn" => EventKind::Spawn {
                            parent: arg_u64("parent").map(|v| v as u32),
                        },
                        "first-dispatch" => EventKind::FirstDispatch,
                        "block" => EventKind::Block {
                            reason: arg_str("reason")
                                .and_then(BlockReason::from_name)
                                .ok_or("block without reason")?,
                            obj: arg_u64("obj").map(|v| v as u32),
                        },
                        "wake" => EventKind::Wake {
                            waker: arg_u64("waker").map(|v| v as u32),
                        },
                        "notify" => EventKind::Notify {
                            reason: arg_str("reason")
                                .and_then(BlockReason::from_name)
                                .ok_or("notify without reason")?,
                            obj: arg_u64("obj").ok_or("notify without obj")? as u32,
                            waiters: arg_u64("waiters").ok_or("notify without waiters")?,
                            woken: arg_u64("woken").ok_or("notify without woken")?,
                        },
                        "join" => EventKind::Join {
                            target: arg_u64("target").ok_or("join without target")? as u32,
                        },
                        "steal" => EventKind::Steal {
                            victim: arg_u64("victim").map(|v| v as u32),
                        },
                        "dummy-insert" => EventKind::DummyInsert {
                            count: arg_u64("count").ok_or("dummy-insert without count")?,
                        },
                        "preempt" => EventKind::Preempt,
                        "stack-reserve" => EventKind::StackReserve {
                            bytes: arg_u64("bytes").ok_or("stack-reserve without bytes")?,
                        },
                        "stack-release" => EventKind::StackRelease {
                            bytes: arg_u64("bytes").ok_or("stack-release without bytes")?,
                        },
                        "alloc" => EventKind::Alloc {
                            bytes: arg_u64("bytes").ok_or("alloc without bytes")?,
                        },
                        "free-underflow" => EventKind::FreeUnderflow {
                            bytes: arg_u64("bytes").ok_or("free-underflow without bytes")?,
                        },
                        "bound-violation" => EventKind::BoundViolation {
                            footprint: arg_u64("footprint")
                                .ok_or("bound-violation without footprint")?,
                            bound: arg_u64("bound").ok_or("bound-violation without bound")?,
                        },
                        "free" => EventKind::Free {
                            bytes: arg_u64("bytes").ok_or("free without bytes")?,
                        },
                        "timeout" => EventKind::Timeout {
                            obj: arg_u64("obj").map(|v| v as u32),
                        },
                        "cancel" => EventKind::Cancel {
                            obj: arg_u64("obj").map(|v| v as u32),
                            by: arg_u64("by").map(|v| v as u32),
                        },
                        "deadlock" => EventKind::Deadlock {
                            cycle: arg_u64("cycle").ok_or("deadlock without cycle")? as u32,
                            waits_for: arg_u64("waitsFor").ok_or("deadlock without waitsFor")?
                                as u32,
                            obj: arg_u64("obj").map(|v| v as u32),
                        },
                        other => return Err(format!("unknown instant event {other:?}")),
                    };
                    trace.events.push(Event {
                        at: VirtTime::from_ns(arg_u64("ns").ok_or("event without ns")?),
                        proc: r.get("tid").and_then(Value::as_u64).unwrap_or(0) as usize,
                        thread: arg_u64("thread").map(|v| v as u32),
                        kind,
                    });
                }
                "C" => {
                    let at = VirtTime::from_ns(arg_u64("ns").ok_or("counter without ns")?);
                    let (track, unit) = match name {
                        "footprint" => (&mut trace.counters.footprint, "bytes"),
                        "live-threads" => (&mut trace.counters.live_threads, "threads"),
                        "ready" => (&mut trace.counters.ready, "entries"),
                        "active-deques" => (&mut trace.counters.active_deques, "deques"),
                        "sched-lock-wait" => (&mut trace.counters.sched_lock_wait, "waitNs"),
                        "host-pool-cached" => (&mut trace.counters.host_pool_cached, "bytes"),
                        other => return Err(format!("unknown counter {other:?}")),
                    };
                    track.push((at, arg_u64(unit).ok_or("counter without value")?));
                }
                other => return Err(format!("unknown phase {other:?}")),
            }
        }
        if let Some(threads) = doc.get("ptdfThreads").and_then(Value::as_arr) {
            for t in threads {
                let u = |key: &str| t.get(key).and_then(Value::as_u64);
                trace.threads.push(ThreadLifecycle {
                    thread: u("thread").ok_or("lifecycle without thread")? as u32,
                    spawned: VirtTime::from_ns(u("spawnedNs").ok_or("lifecycle without spawnedNs")?),
                    first_dispatch: u("firstDispatchNs").map(VirtTime::from_ns),
                    ready_wait: VirtTime::from_ns(u("readyWaitNs").unwrap_or(0)),
                    quanta: u("quanta").unwrap_or(0),
                    exited: u("exitedNs").map(VirtTime::from_ns),
                });
            }
        }
        // Absent in documents written before the decision log existed;
        // default-empty keeps old traces loadable.
        if let Some(decisions) = doc.get("ptdfDecisions").and_then(Value::as_arr) {
            for d in decisions {
                let u = |key: &str| d.get(key).and_then(Value::as_u64);
                trace.decisions.push(crate::oracle::Decision {
                    kind: d
                        .get("k")
                        .and_then(Value::as_str)
                        .and_then(crate::oracle::DecisionKind::from_name)
                        .ok_or("decision without kind")?,
                    at: VirtTime::from_ns(u("ns").ok_or("decision without ns")?),
                    n: u("n").ok_or("decision without n")? as u32,
                    chosen: u("chosen").ok_or("decision without chosen")? as u32,
                    obj: u("obj").map(|o| o as u32),
                });
            }
        }
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run, scope, Config, SchedKind};

    #[test]
    fn trace_records_all_dispatches_without_overlap() {
        let cfg = Config::new(4, SchedKind::Df).with_trace();
        let (_, report) = run(cfg, || {
            scope(|s| {
                for i in 0..16 {
                    s.spawn(move || crate::work(1000 * (i + 1)));
                }
            })
        });
        let trace = report.trace.as_ref().expect("trace enabled");
        assert!(!trace.is_empty());
        // Every dispatch produced a span.
        let dispatches: u64 = report.stats.procs.iter().map(|p| p.dispatches).sum();
        assert!(trace.len() as u64 >= dispatches);
        assert!(
            trace.find_overlap().is_none(),
            "spans on one processor must not overlap"
        );
        // Busy time from the trace matches the stats' busy time closely.
        let busy = trace.busy_per_proc(4);
        for (b, p) in busy.iter().zip(&report.stats.procs) {
            let stat_busy = p.breakdown.busy();
            assert!(
                b.as_ns() <= stat_busy.as_ns(),
                "trace busy {} > stats busy {}",
                b,
                stat_busy
            );
        }
        trace.validate().expect("structurally valid trace");
    }

    #[test]
    fn chrome_json_round_trips_exactly() {
        let cfg = Config::new(2, SchedKind::Df).with_trace().with_quota(2048);
        let (_, report) = run(cfg, || {
            let h = crate::spawn(|| {
                crate::rt_alloc(64 * 1024); // forces dummies + preemption
                crate::work(5000);
                crate::rt_free(64 * 1024);
            });
            h.join();
        });
        let trace = report.trace.unwrap();
        let json = trace.to_chrome_json();
        // Well-formed JSON (full parse, not brace counting).
        let doc = Value::parse(&json).expect("well-formed JSON");
        assert!(doc.get("traceEvents").is_some());
        // Lossless round trip.
        let back = Trace::from_chrome_json(&json).expect("parse back");
        assert_eq!(back, trace);
    }

    #[test]
    fn chrome_json_round_trips_host_phase_and_skips_critpath_track() {
        let cfg = Config::new(2, SchedKind::Df).with_trace();
        let (_, report) = run(cfg, || {
            scope(|s| {
                for i in 0..6 {
                    s.spawn(move || crate::work(1000 * (i + 1)));
                }
            })
        });
        let mut trace = report.trace.unwrap();
        let mut hp = HostPhaseStats {
            enabled: true,
            ..HostPhaseStats::default()
        };
        hp.heap_push.count = 3;
        hp.heap_push.ns = 1234;
        hp.dispatch.count = 17;
        hp.dispatch.ns = 98765;
        trace.host_phase = Some(hp);
        let back = Trace::from_chrome_json(&trace.to_chrome_json()).expect("parse back");
        assert_eq!(back, trace, "hostPhase must survive the round trip");
        // The merged critical-path export parses back to the same base
        // trace: the extra pid-1 lane is skipped on import.
        let cp = crate::critpath::analyze(&trace);
        assert!(!cp.segments.is_empty());
        let merged = trace.to_chrome_json_with_critpath(&cp);
        assert!(merged.contains("\"critpath\""));
        let back = Trace::from_chrome_json(&merged).expect("parse merged");
        assert_eq!(back, trace);
    }

    #[test]
    fn chrome_json_round_trips_zero_count_host_phase() {
        // A profiled run that never exercised a phase exports that phase
        // with count 0 / ns 0; the round trip must preserve it instead of
        // dropping the entry or conjuring a different default.
        let mut trace = Trace::default();
        trace.meta.scheduler = "df".to_string();
        trace.host_phase = Some(HostPhaseStats {
            enabled: true,
            ..HostPhaseStats::default()
        });
        let back = Trace::from_chrome_json(&trace.to_chrome_json()).expect("parse back");
        assert_eq!(back, trace, "all-zero host_phase must survive");
        // Same with the profile disabled (enabled=false, all zero).
        trace.host_phase = Some(HostPhaseStats::default());
        let back = Trace::from_chrome_json(&trace.to_chrome_json()).expect("parse back");
        assert_eq!(back, trace, "disabled host_phase must survive");
        // And with a mix of zero and nonzero phases.
        let mut hp = HostPhaseStats {
            enabled: true,
            ..HostPhaseStats::default()
        };
        hp.charge.count = 9;
        hp.charge.ns = 4321;
        trace.host_phase = Some(hp);
        let back = Trace::from_chrome_json(&trace.to_chrome_json()).expect("parse back");
        assert_eq!(back, trace, "mixed zero/nonzero host_phase must survive");
    }

    #[test]
    fn pooled_trace_storage_is_recycled_and_round_trips() {
        let traced_run = || {
            let cfg = Config::new(2, SchedKind::Df).with_trace();
            let (_, report) = run(cfg, || {
                scope(|s| {
                    for i in 0..8 {
                        s.spawn(move || crate::work(1000 * (i + 1)));
                    }
                })
            });
            report.trace.expect("trace enabled")
        };
        let first = traced_run();
        let json_fresh = first.to_chrome_json();
        drop(first); // returns its storage to the thread-local pool
        let pooled = Trace::pool_len();
        assert!(pooled >= 1, "dropping a trace must feed the pool");
        assert!(pooled <= TRACE_POOL_MAX, "pool must stay bounded");
        // The identical deterministic run, now served from recycled
        // storage: bit-identical export, lossless round trip.
        let second = traced_run();
        assert_eq!(
            Trace::pool_len(),
            pooled - 1,
            "the traced run must draw its storage from the pool"
        );
        let json_pooled = second.to_chrome_json();
        assert_eq!(
            json_pooled, json_fresh,
            "pooled storage must not change the export"
        );
        let back = Trace::from_chrome_json(&json_pooled).expect("parse back");
        assert_eq!(back, second);
    }

    #[test]
    fn pool_survives_panic_during_traced_run() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        // Drain whatever earlier code on this thread left behind so the
        // counts below are about *this* test's traces.
        TRACE_POOL.with(|p| p.borrow_mut().clear());
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            let cfg = Config::new(2, SchedKind::Df).with_trace();
            let _ = run(cfg, || {
                scope(|s| {
                    s.spawn(|| crate::work(1000));
                });
                panic!("root thread panic under trace");
            });
        }));
        assert!(panicked.is_err(), "root panic must propagate");
        // The report (and its trace) dropped during unwinding: storage must
        // have been returned, not leaked or left mid-donation.
        assert_eq!(
            Trace::pool_len(),
            1,
            "unwinding must return the trace storage to the pool"
        );
        // A fresh traced run reuses the post-panic pool and still produces
        // a valid, losslessly round-trippable trace.
        let cfg = Config::new(2, SchedKind::Fifo).with_trace();
        let (_, report) = run(cfg, || {
            scope(|s| {
                for i in 0..4 {
                    s.spawn(move || crate::work(500 * (i + 1)));
                }
            })
        });
        let trace = report.trace.expect("trace enabled");
        trace.validate().expect("valid trace from recycled storage");
        let back = Trace::from_chrome_json(&trace.to_chrome_json()).expect("parse back");
        assert_eq!(back, trace);
    }

    #[test]
    fn trace_disabled_by_default() {
        let (_, report) = run(Config::new(1, SchedKind::Df), || ());
        assert!(report.trace.is_none());
    }

    #[test]
    fn overlap_ignores_adjacent_processors() {
        let span = |proc, start, end| Span {
            proc,
            thread: 0,
            start: VirtTime::from_ns(start),
            end: VirtTime::from_ns(end),
            kind: SpanKind::Run,
        };
        // Overlapping intervals on *different* processors: not an overlap.
        let mut t = Trace::default();
        t.spans.push(span(0, 0, 100));
        t.spans.push(span(1, 50, 150));
        assert!(t.find_overlap().is_none(), "adjacent-processor false positive");
        // The same intervals on one processor: caught.
        let mut t = Trace::default();
        t.spans.push(span(2, 0, 100));
        t.spans.push(span(2, 50, 150));
        let (a, b) = t.find_overlap().expect("must catch same-proc overlap");
        assert_eq!((a.start.as_ns(), b.start.as_ns()), (0, 50));
    }

    #[test]
    fn events_cover_the_taxonomy() {
        // Df run: memory-path kinds (dummies, preemption, alloc/free).
        let cfg = Config::new(2, SchedKind::Df).with_trace().with_quota(1024);
        let (_, report) = run(cfg, || {
            let h = crate::spawn(|| crate::work(5000));
            crate::rt_alloc(8 * 1024); // > K -> dummies + preempt
            crate::rt_free(8 * 1024);
            h.join();
        });
        let trace = report.trace.unwrap();
        let counts = trace.event_kind_counts();
        let has = |k: &str| counts.iter().any(|&(n, _)| n == k);
        for kind in [
            "spawn",
            "first-dispatch",
            "join",
            "dummy-insert",
            "preempt",
            "stack-reserve",
            "stack-release",
            "alloc",
            "free",
        ] {
            assert!(has(kind), "missing event kind {kind}: {counts:?}");
        }
        assert!(counts.len() >= 6, "acceptance: >= 6 event kinds in one run");
        // Counter tracks: footprint, live-threads, ready at minimum.
        assert!(!trace.counters.footprint.is_empty());
        assert!(!trace.counters.live_threads.is_empty());
        assert!(!trace.counters.ready.is_empty());
        trace.validate().expect("valid df trace");

        // Fifo run: deterministic block/wake — with a two-party barrier,
        // whichever thread arrives first must block until the other shows.
        let cfg = Config::new(2, SchedKind::Fifo).with_trace();
        let (_, report) = run(cfg, || {
            let b = crate::Barrier::new(2);
            let b2 = b.clone();
            let h = crate::spawn(move || {
                crate::work(5000);
                b2.wait();
            });
            b.wait();
            h.join();
        });
        let trace = report.trace.unwrap();
        let blocks: Vec<_> = trace
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Block { reason, .. } => Some(reason),
                _ => None,
            })
            .collect();
        assert!(
            blocks.contains(&BlockReason::Barrier),
            "first barrier arrival must block: {blocks:?} / {:?}",
            trace.event_kind_counts()
        );
        let wakes = trace
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Wake { .. }))
            .count();
        assert!(wakes >= 1, "barrier completion must produce a wake event");
        trace.validate().expect("valid fifo trace");
    }

    #[test]
    fn steal_events_carry_victims() {
        let cfg = Config::new(4, SchedKind::Ws).with_trace();
        let (_, report) = run(cfg, || {
            scope(|s| {
                for _ in 0..32 {
                    s.spawn(|| crate::work(50_000));
                }
            })
        });
        let trace = report.trace.unwrap();
        let steals: Vec<_> = trace
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Steal { .. }))
            .collect();
        assert_eq!(steals.len() as u64, report.steals, "one event per steal");
        assert!(!steals.is_empty(), "ws at p=4 must steal");
        for e in &steals {
            let EventKind::Steal { victim } = e.kind else {
                unreachable!()
            };
            let v = victim.expect("ws knows its victim") as usize;
            assert_ne!(v, e.proc, "no self-steals");
        }
    }

    #[test]
    fn lifecycle_percentiles_are_consistent() {
        let cfg = Config::new(2, SchedKind::Fifo).with_trace();
        let (_, report) = run(cfg, || {
            scope(|s| {
                for i in 0..24 {
                    s.spawn(move || crate::work(2000 * (i % 5 + 1)));
                }
            })
        });
        let trace = report.trace.as_ref().unwrap();
        let lc = trace.lifecycle();
        assert_eq!(lc.threads, report.total_threads as u64);
        // Every dispatch is a quantum of exactly one thread.
        let dispatches: u64 = report.stats.procs.iter().map(|p| p.dispatches).sum();
        assert_eq!(lc.total_quanta, dispatches);
        assert!(lc.dispatch_latency.count > 0);
        assert!(lc.dispatch_latency.p50 <= lc.dispatch_latency.p90);
        assert!(lc.dispatch_latency.p90 <= lc.dispatch_latency.p99);
        assert!(lc.dispatch_latency.p99 <= lc.dispatch_latency.max);
        let hist_total: u64 = lc.dispatch_latency.hist_log2.iter().sum();
        assert_eq!(hist_total, lc.dispatch_latency.count);
        // FIFO at p=2 queues threads: someone must actually wait.
        assert!(lc.ready_wait.max > VirtTime::ZERO);
    }
}
