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

use crate::json::{push_u64, Reader, Scalar, Writer};
use crate::thread::ThreadId;
use ptdf_smp::{HostPhaseStats, MachineRecording, MemEventKind, PhaseStat, ProcId, VirtTime};
use std::borrow::Cow;

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
        for track in self.counters.tracks_mut().map(std::mem::take) {
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
        self.write_chrome(None)
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
        self.write_chrome(Some(cp))
    }

    /// Streams the Chrome document straight from the trace: spans, events
    /// and counter samples (then the critical-path lane, when given) as
    /// `traceEvents`, the config echo and host-phase profile as
    /// `otherData`, then the lifecycle records and the decision log.
    fn write_chrome(&self, cp: Option<&crate::critpath::CritPath>) -> String {
        let samples: usize = self.counters.tracks().iter().map(|t| t.len()).sum();
        // Records run about 125 bytes; reserving 160 allocates the buffer
        // once, and capacity never written is never paged in.
        let records = self.spans.len() + self.events.len() + samples;
        let mut w = Writer::with_capacity(160 * records + 128 * self.threads.len() + 1024);
        w.begin_object();
        w.key("traceEvents").begin_array();
        let mut name = String::new();
        for s in &self.spans {
            name.clear();
            name.push_str(if s.kind == SpanKind::Dummy { "dummy t" } else { "t" });
            push_u64(&mut name, s.thread as u64);
            if s.kind == SpanKind::Resume {
                name.push_str(" (resume)");
            }
            w.begin_object();
            w.key("name").str(&name);
            w.key("ph").str("X");
            w.key("pid").u64(0);
            w.key("tid").u64(s.proc as u64);
            w.key("ts").thousandths(s.start.as_ns());
            w.key("dur").thousandths(s.end.since(s.start).as_ns());
            w.key("args").begin_object();
            w.key("thread").u64(s.thread as u64);
            w.key("kind").str(s.kind.name());
            w.key("startNs").u64(s.start.as_ns());
            w.key("endNs").u64(s.end.as_ns());
            w.end_object().end_object();
        }
        let id = |v: Option<u32>| v.map(u64::from);
        for e in &self.events {
            w.begin_object();
            w.key("name").str(e.kind.name());
            w.key("ph").str("i");
            w.key("s").str("t");
            w.key("pid").u64(0);
            w.key("tid").u64(e.proc as u64);
            w.key("ts").thousandths(e.at.as_ns());
            w.key("args").begin_object();
            w.key("ns").u64(e.at.as_ns());
            w.key("thread").opt_u64(id(e.thread));
            match e.kind {
                EventKind::Spawn { parent } => {
                    w.key("parent").opt_u64(id(parent));
                }
                EventKind::Block { reason, obj } => {
                    w.key("reason").str(reason.name());
                    w.key("obj").opt_u64(id(obj));
                }
                EventKind::Wake { waker } => {
                    w.key("waker").opt_u64(id(waker));
                }
                EventKind::Notify {
                    reason,
                    obj,
                    waiters,
                    woken,
                } => {
                    w.key("reason").str(reason.name());
                    w.key("obj").u64(obj as u64);
                    w.key("waiters").u64(waiters);
                    w.key("woken").u64(woken);
                }
                EventKind::Join { target } => {
                    w.key("target").u64(target as u64);
                }
                EventKind::Steal { victim } => {
                    w.key("victim").opt_u64(id(victim));
                }
                EventKind::DummyInsert { count } => {
                    w.key("count").u64(count);
                }
                EventKind::StackReserve { bytes }
                | EventKind::StackRelease { bytes }
                | EventKind::Alloc { bytes }
                | EventKind::Free { bytes }
                | EventKind::FreeUnderflow { bytes } => {
                    w.key("bytes").u64(bytes);
                }
                EventKind::BoundViolation { footprint, bound } => {
                    w.key("footprint").u64(footprint);
                    w.key("bound").u64(bound);
                }
                EventKind::Timeout { obj } => {
                    w.key("obj").opt_u64(id(obj));
                }
                EventKind::Cancel { obj, by } => {
                    w.key("obj").opt_u64(id(obj));
                    w.key("by").opt_u64(id(by));
                }
                EventKind::Deadlock {
                    cycle,
                    waits_for,
                    obj,
                } => {
                    w.key("cycle").u64(cycle as u64);
                    w.key("waitsFor").u64(waits_for as u64);
                    w.key("obj").opt_u64(id(obj));
                }
                EventKind::FirstDispatch | EventKind::Preempt => {}
            }
            w.end_object().end_object();
        }
        for ((track_name, unit), track) in COUNTER_TRACKS.into_iter().zip(self.counters.tracks()) {
            for &(at, v) in track {
                w.begin_object();
                w.key("name").str(track_name);
                w.key("ph").str("C");
                w.key("pid").u64(0);
                w.key("ts").thousandths(at.as_ns());
                w.key("args").begin_object();
                w.key(unit).u64(v);
                w.key("ns").u64(at.as_ns());
                w.end_object().end_object();
            }
        }
        if let Some(cp) = cp {
            w.begin_object();
            w.key("name").str("process_name");
            w.key("ph").str("M");
            w.key("pid").u64(1);
            w.key("args")
                .begin_object()
                .key("name")
                .str("critical path");
            w.end_object().end_object();
            w.begin_object();
            w.key("name").str("thread_name");
            w.key("ph").str("M");
            w.key("pid").u64(1);
            w.key("tid").u64(0);
            w.key("args").begin_object().key("name").str("blame");
            w.end_object().end_object();
            for seg in &cp.segments {
                name.clear();
                name.push_str(seg.bucket.name());
                if let crate::critpath::BlameBucket::LockWait { reason, obj } = seg.bucket {
                    name.push(' ');
                    name.push_str(reason.name());
                    if let Some(o) = obj {
                        name.push('#');
                        push_u64(&mut name, o as u64);
                    }
                }
                w.begin_object();
                w.key("name").str(&name);
                w.key("ph").str("X");
                w.key("cat").str("critpath");
                w.key("pid").u64(1);
                w.key("tid").u64(0);
                w.key("ts").thousandths(seg.start.as_ns());
                w.key("dur").thousandths(seg.end.since(seg.start).as_ns());
                w.key("args").begin_object();
                w.key("thread").opt_u64(id(seg.thread));
                w.key("bucket").str(seg.bucket.name());
                w.key("startNs").u64(seg.start.as_ns());
                w.key("endNs").u64(seg.end.as_ns());
                w.end_object().end_object();
            }
        }
        w.end_array();
        w.key("otherData").begin_object();
        w.key("scheduler").str(&self.meta.scheduler);
        w.key("processors").u64(self.meta.processors as u64);
        w.key("defaultStack").u64(self.meta.default_stack);
        w.key("quota").opt_u64(self.meta.quota);
        w.key("perturbSeed").opt_u64(self.meta.perturb_seed);
        w.key("chaosSeed").opt_u64(self.meta.chaos_seed);
        w.key("hostPhase");
        match &self.host_phase {
            None => {
                w.null();
            }
            Some(hp) => {
                w.begin_object();
                w.key("enabled").bool(hp.enabled);
                for (phase, p) in hp.phases() {
                    w.key(phase).begin_object();
                    w.key("count").u64(p.count);
                    w.key("ns").u64(p.ns);
                    w.end_object();
                }
                w.end_object();
            }
        }
        w.end_object();
        w.key("ptdfThreads").begin_array();
        for t in &self.threads {
            w.begin_object();
            w.key("thread").u64(t.thread as u64);
            w.key("spawnedNs").u64(t.spawned.as_ns());
            w.key("firstDispatchNs")
                .opt_u64(t.first_dispatch.map(VirtTime::as_ns));
            w.key("readyWaitNs").u64(t.ready_wait.as_ns());
            w.key("quanta").u64(t.quanta);
            w.key("exitedNs").opt_u64(t.exited.map(VirtTime::as_ns));
            w.end_object();
        }
        w.end_array();
        w.key("ptdfDecisions").begin_array();
        for d in &self.decisions {
            w.begin_object();
            w.key("k").str(d.kind.name());
            w.key("ns").u64(d.at.as_ns());
            w.key("n").u64(d.n as u64);
            w.key("chosen").u64(d.chosen as u64);
            w.key("obj").opt_u64(id(d.obj));
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// Parses a trace back from [`Trace::to_chrome_json`] output. Exact:
    /// the result compares equal to the original trace.
    ///
    /// Records are pulled one at a time straight into the trace; no
    /// document tree is built. Member order does not matter and the first
    /// of duplicate keys wins. Records on a nonzero `pid` (the
    /// critical-path lane, metadata) are skipped, and `ptdfDecisions` may
    /// be absent. Members the trace does not keep are still validated, and
    /// anything but whitespace after the document is an error.
    pub fn from_chrome_json(text: &str) -> Result<Trace, String> {
        let mut r = Reader::new(text);
        let mut trace = Trace::default();
        let mut has_records = false;
        let mut seen = [false; 4];
        let mut args = Args(Vec::new());
        r.object(|r, key| {
            let slot = match &*key {
                "traceEvents" => 0,
                "otherData" => 1,
                "ptdfThreads" => 2,
                "ptdfDecisions" => 3,
                _ => return r.skip(),
            };
            if std::mem::replace(&mut seen[slot], true) {
                return r.skip();
            }
            match slot {
                0 => has_records = r.array(|r| read_record(r, &mut args, &mut trace))?,
                1 => read_other_data(r, &mut trace)?,
                2 => {
                    r.array(|r| {
                        trace.threads.push(read_lifecycle(r)?);
                        Ok(())
                    })?;
                }
                _ => {
                    r.array(|r| {
                        trace.decisions.push(read_decision(r)?);
                        Ok(())
                    })?;
                }
            }
            Ok(())
        })?;
        r.finish()?;
        if !has_records {
            return Err("missing traceEvents array".into());
        }
        Ok(trace)
    }
}

/// Chrome counter-track names and value keys, in [`Counters::tracks`]
/// order.
const COUNTER_TRACKS: [(&str, &str); 6] = [
    ("footprint", "bytes"),
    ("live-threads", "threads"),
    ("ready", "entries"),
    ("active-deques", "deques"),
    ("sched-lock-wait", "waitNs"),
    ("host-pool-cached", "bytes"),
];

impl Counters {
    /// The six tracks, in [`COUNTER_TRACKS`] order.
    fn tracks(&self) -> [&Vec<(VirtTime, u64)>; 6] {
        [
            &self.footprint,
            &self.live_threads,
            &self.ready,
            &self.active_deques,
            &self.sched_lock_wait,
            &self.host_pool_cached,
        ]
    }

    /// The six tracks, mutably, in [`COUNTER_TRACKS`] order.
    fn tracks_mut(&mut self) -> [&mut Vec<(VirtTime, u64)>; 6] {
        [
            &mut self.footprint,
            &mut self.live_threads,
            &mut self.ready,
            &mut self.active_deques,
            &mut self.sched_lock_wait,
            &mut self.host_pool_cached,
        ]
    }
}

/// Reads one value as an object and returns the first value of each of
/// `keys` (`None` when absent); every other member goes to `other`. Any
/// other value reads like an object with no members.
fn fields<'a, const N: usize>(
    r: &mut Reader<'a>,
    keys: [&str; N],
    mut other: impl FnMut(&mut Reader<'a>, Cow<'a, str>) -> Result<(), String>,
) -> Result<[Option<Scalar<'a>>; N], String> {
    let mut found = [const { None }; N];
    r.object(|r, key| match keys.iter().position(|k| *k == key) {
        Some(i) if found[i].is_none() => {
            found[i] = Some(r.scalar()?);
            Ok(())
        }
        Some(_) => r.skip(),
        None => other(r, key),
    })?;
    Ok(found)
}

/// [`fields`] for objects whose members are all unsigned integers.
fn u64_fields<const N: usize>(
    r: &mut Reader<'_>,
    keys: [&str; N],
) -> Result<[Option<u64>; N], String> {
    Ok(fields(r, keys, |r, _| r.skip())?.map(|v| v.as_ref().and_then(Scalar::as_u64)))
}

/// One record's `args` members in document order (a lookup takes the
/// first of duplicate keys). Reused across records.
struct Args<'a>(Vec<(Cow<'a, str>, Scalar<'a>)>);

impl Args<'_> {
    fn get(&self, key: &str) -> Option<&Scalar<'_>> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn u64(&self, key: &str) -> Option<u64> {
        self.get(key).and_then(Scalar::as_u64)
    }

    fn u32(&self, key: &str) -> Option<u32> {
        self.u64(key).map(|v| v as u32)
    }

    fn str(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Scalar::as_str)
    }
}

/// Reads one `traceEvents` record into `trace`.
fn read_record<'a>(
    r: &mut Reader<'a>,
    args: &mut Args<'a>,
    trace: &mut Trace,
) -> Result<(), String> {
    args.0.clear();
    let mut has_args = false;
    let [pid, ph, name, tid] = fields(r, ["pid", "ph", "name", "tid"], |r, key| {
        if key != "args" || std::mem::replace(&mut has_args, true) {
            return r.skip();
        }
        r.object(|r, key| {
            args.0.push((key, r.scalar()?));
            Ok(())
        })
        .map(drop)
    })?;
    // Auxiliary tracks (the critical-path lane, metadata records) live on
    // nonzero pids; the recorded trace itself is pid 0.
    if pid.as_ref().and_then(Scalar::as_u64).unwrap_or(0) != 0 {
        return Ok(());
    }
    let ph = ph
        .as_ref()
        .and_then(Scalar::as_str)
        .ok_or("record without ph")?;
    let name = name.as_ref().and_then(Scalar::as_str).unwrap_or("");
    let proc = tid.as_ref().and_then(Scalar::as_u64).unwrap_or(0) as usize;
    match ph {
        "X" => {
            let kind = args
                .str("kind")
                .and_then(SpanKind::from_name)
                .ok_or("span without kind")?;
            trace.spans.push(Span {
                proc,
                thread: args.u32("thread").ok_or("span without thread")?,
                start: VirtTime::from_ns(args.u64("startNs").ok_or("span without startNs")?),
                end: VirtTime::from_ns(args.u64("endNs").ok_or("span without endNs")?),
                kind,
            });
        }
        "i" => {
            let reason = |what: &'static str| {
                args.str("reason")
                    .and_then(BlockReason::from_name)
                    .ok_or(what)
            };
            let kind = match name {
                "spawn" => EventKind::Spawn {
                    parent: args.u32("parent"),
                },
                "first-dispatch" => EventKind::FirstDispatch,
                "block" => EventKind::Block {
                    reason: reason("block without reason")?,
                    obj: args.u32("obj"),
                },
                "wake" => EventKind::Wake {
                    waker: args.u32("waker"),
                },
                "notify" => EventKind::Notify {
                    reason: reason("notify without reason")?,
                    obj: args.u32("obj").ok_or("notify without obj")?,
                    waiters: args.u64("waiters").ok_or("notify without waiters")?,
                    woken: args.u64("woken").ok_or("notify without woken")?,
                },
                "join" => EventKind::Join {
                    target: args.u32("target").ok_or("join without target")?,
                },
                "steal" => EventKind::Steal {
                    victim: args.u32("victim"),
                },
                "dummy-insert" => EventKind::DummyInsert {
                    count: args.u64("count").ok_or("dummy-insert without count")?,
                },
                "preempt" => EventKind::Preempt,
                "stack-reserve" => EventKind::StackReserve {
                    bytes: args.u64("bytes").ok_or("stack-reserve without bytes")?,
                },
                "stack-release" => EventKind::StackRelease {
                    bytes: args.u64("bytes").ok_or("stack-release without bytes")?,
                },
                "alloc" => EventKind::Alloc {
                    bytes: args.u64("bytes").ok_or("alloc without bytes")?,
                },
                "free-underflow" => EventKind::FreeUnderflow {
                    bytes: args.u64("bytes").ok_or("free-underflow without bytes")?,
                },
                "bound-violation" => EventKind::BoundViolation {
                    footprint: args
                        .u64("footprint")
                        .ok_or("bound-violation without footprint")?,
                    bound: args.u64("bound").ok_or("bound-violation without bound")?,
                },
                "free" => EventKind::Free {
                    bytes: args.u64("bytes").ok_or("free without bytes")?,
                },
                "timeout" => EventKind::Timeout {
                    obj: args.u32("obj"),
                },
                "cancel" => EventKind::Cancel {
                    obj: args.u32("obj"),
                    by: args.u32("by"),
                },
                "deadlock" => EventKind::Deadlock {
                    cycle: args.u32("cycle").ok_or("deadlock without cycle")?,
                    waits_for: args.u32("waitsFor").ok_or("deadlock without waitsFor")?,
                    obj: args.u32("obj"),
                },
                other => return Err(format!("unknown instant event {other:?}")),
            };
            trace.events.push(Event {
                at: VirtTime::from_ns(args.u64("ns").ok_or("event without ns")?),
                proc,
                thread: args.u32("thread"),
                kind,
            });
        }
        "C" => {
            let at = VirtTime::from_ns(args.u64("ns").ok_or("counter without ns")?);
            let i = COUNTER_TRACKS
                .iter()
                .position(|&(track, _)| track == name)
                .ok_or_else(|| format!("unknown counter {name:?}"))?;
            let value = args
                .u64(COUNTER_TRACKS[i].1)
                .ok_or("counter without value")?;
            trace.counters.tracks_mut()[i].push((at, value));
        }
        other => return Err(format!("unknown phase {other:?}")),
    }
    Ok(())
}

/// Reads `otherData`: the config echo and the host-phase profile.
fn read_other_data(r: &mut Reader<'_>, trace: &mut Trace) -> Result<(), String> {
    let mut host_phase = None;
    let mut has_host_phase = false;
    let [scheduler, processors, default_stack, quota, perturb_seed, chaos_seed] = fields(
        r,
        [
            "scheduler",
            "processors",
            "defaultStack",
            "quota",
            "perturbSeed",
            "chaosSeed",
        ],
        |r, key| {
            if key != "hostPhase" || std::mem::replace(&mut has_host_phase, true) {
                return r.skip();
            }
            host_phase = read_host_phase(r)?;
            Ok(())
        },
    )?;
    let u = |v: &Option<Scalar>| v.as_ref().and_then(Scalar::as_u64);
    trace.meta = TraceMeta {
        scheduler: scheduler
            .as_ref()
            .and_then(Scalar::as_str)
            .unwrap_or_default()
            .to_string(),
        processors: u(&processors).unwrap_or(0) as usize,
        default_stack: u(&default_stack).unwrap_or(0),
        quota: u(&quota),
        perturb_seed: u(&perturb_seed),
        chaos_seed: u(&chaos_seed),
    };
    trace.host_phase = host_phase;
    Ok(())
}

/// Reads `otherData.hostPhase`: a profile when it is an object with an
/// `enabled` member, `None` otherwise. Absent phases read as zero.
fn read_host_phase(r: &mut Reader<'_>) -> Result<Option<HostPhaseStats>, String> {
    let names = HostPhaseStats::default().phases().map(|(name, _)| name);
    let mut phases = [None; 7];
    let [enabled] = fields(r, ["enabled"], |r, key| {
        match names.iter().position(|&n| n == key) {
            Some(i) if phases[i].is_none() => {
                let [count, ns] = u64_fields(r, ["count", "ns"])?;
                phases[i] = Some(PhaseStat {
                    count: count.unwrap_or(0),
                    ns: ns.unwrap_or(0),
                });
                Ok(())
            }
            _ => r.skip(),
        }
    })?;
    let Some(enabled) = enabled else {
        return Ok(None);
    };
    let [heap_push, heap_pop, charge, sched_lock, sched_pop, dispatch, trace_alloc] =
        phases.map(Option::unwrap_or_default);
    Ok(Some(HostPhaseStats {
        enabled: enabled.as_bool().unwrap_or(false),
        heap_push,
        heap_pop,
        charge,
        sched_lock,
        sched_pop,
        dispatch,
        trace_alloc,
    }))
}

/// Reads one `ptdfThreads` lifecycle record.
fn read_lifecycle(r: &mut Reader<'_>) -> Result<ThreadLifecycle, String> {
    let [thread, spawned, first_dispatch, ready_wait, quanta, exited] = u64_fields(
        r,
        [
            "thread",
            "spawnedNs",
            "firstDispatchNs",
            "readyWaitNs",
            "quanta",
            "exitedNs",
        ],
    )?;
    Ok(ThreadLifecycle {
        thread: thread.ok_or("lifecycle without thread")? as u32,
        spawned: VirtTime::from_ns(spawned.ok_or("lifecycle without spawnedNs")?),
        first_dispatch: first_dispatch.map(VirtTime::from_ns),
        ready_wait: VirtTime::from_ns(ready_wait.unwrap_or(0)),
        quanta: quanta.unwrap_or(0),
        exited: exited.map(VirtTime::from_ns),
    })
}

/// Reads one `ptdfDecisions` entry.
fn read_decision(r: &mut Reader<'_>) -> Result<crate::oracle::Decision, String> {
    let [k, ns, n, chosen, obj] = fields(r, ["k", "ns", "n", "chosen", "obj"], |r, _| r.skip())?;
    let u = |v: &Option<Scalar>| v.as_ref().and_then(Scalar::as_u64);
    Ok(crate::oracle::Decision {
        kind: k
            .as_ref()
            .and_then(Scalar::as_str)
            .and_then(crate::oracle::DecisionKind::from_name)
            .ok_or("decision without kind")?,
        at: VirtTime::from_ns(u(&ns).ok_or("decision without ns")?),
        n: u(&n).ok_or("decision without n")? as u32,
        chosen: u(&chosen).ok_or("decision without chosen")? as u32,
        obj: u(&obj).map(|o| o as u32),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;
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

    /// A small hand-built trace that touches every record the Chrome export
    /// writes: all span kinds, every event kind (optional fields both set
    /// and unset), all six counter tracks, lifecycle records, a perturbed
    /// decision log and a host-phase profile. Timestamps cover the float
    /// formatting cases: zero, sub-microsecond, integral microseconds, and
    /// values past 15 significant digits. The scheduler name carries every
    /// escape class, so the fixture pins string escaping too.
    fn golden_trace() -> Trace {
        let t = VirtTime::from_ns;
        let ev = |at: u64, proc: usize, thread: Option<u32>, kind: EventKind| Event {
            at: t(at),
            proc,
            thread,
            kind,
        };
        let span = |proc: usize, thread: u32, start: u64, end: u64, kind: SpanKind| Span {
            proc,
            thread,
            start: t(start),
            end: t(end),
            kind,
        };
        let mut hp = HostPhaseStats {
            enabled: true,
            ..HostPhaseStats::default()
        };
        hp.heap_push = PhaseStat { count: 3, ns: 1234 };
        hp.charge = PhaseStat { count: 9, ns: 4321 };
        hp.trace_alloc = PhaseStat {
            count: 1,
            ns: u64::MAX,
        };
        let decision = |kind, at: u64, n, chosen, obj| crate::oracle::Decision {
            kind,
            at: t(at),
            n,
            chosen,
            obj,
        };
        use crate::oracle::DecisionKind as D;
        Trace {
            meta: TraceMeta {
                scheduler: "df \"quoted\" \\ /\n\r\t\u{8}\u{c}\u{1} ✓".to_string(),
                processors: 2,
                default_stack: 8192,
                quota: Some(2048),
                perturb_seed: Some(7),
                chaos_seed: None,
            },
            spans: vec![
                span(0, 0, 0, 1, SpanKind::Run),
                span(1, 1, 999, 1000, SpanKind::Run),
                span(0, 2, 1500, 123_456_789, SpanKind::Dummy),
                span(1, 1, 123_456_789, 1_000_000_000_000_001, SpanKind::Resume),
                span(0, 0, 1_000_000_000_000_001, 1 << 60, SpanKind::Run),
            ],
            events: vec![
                ev(0, 0, Some(0), EventKind::Spawn { parent: None }),
                ev(1, 0, Some(1), EventKind::Spawn { parent: Some(0) }),
                ev(2, 1, Some(1), EventKind::FirstDispatch),
                ev(
                    3,
                    0,
                    Some(0),
                    EventKind::Block {
                        reason: BlockReason::Join,
                        obj: None,
                    },
                ),
                ev(
                    4,
                    0,
                    Some(0),
                    EventKind::Block {
                        reason: BlockReason::Mutex,
                        obj: Some(3),
                    },
                ),
                ev(5, 1, Some(0), EventKind::Wake { waker: Some(1) }),
                ev(6, 1, Some(0), EventKind::Wake { waker: None }),
                ev(
                    7,
                    1,
                    Some(1),
                    EventKind::Notify {
                        reason: BlockReason::Condvar,
                        obj: 4,
                        waiters: 2,
                        woken: 1,
                    },
                ),
                ev(8, 0, Some(0), EventKind::Join { target: 1 }),
                ev(9, 1, Some(2), EventKind::Steal { victim: Some(0) }),
                ev(10, 1, Some(2), EventKind::Steal { victim: None }),
                ev(11, 0, Some(0), EventKind::DummyInsert { count: 4 }),
                ev(12, 0, Some(0), EventKind::Preempt),
                ev(13, 0, Some(2), EventKind::StackReserve { bytes: 8192 }),
                ev(14, 0, Some(2), EventKind::StackRelease { bytes: 8192 }),
                ev(15, 1, None, EventKind::Alloc { bytes: 65_536 }),
                ev(16, 1, None, EventKind::Free { bytes: 65_536 }),
                ev(17, 1, Some(1), EventKind::FreeUnderflow { bytes: u64::MAX }),
                ev(
                    18,
                    0,
                    Some(0),
                    EventKind::BoundViolation {
                        footprint: 90_000,
                        bound: 80_000,
                    },
                ),
                ev(19, 0, Some(0), EventKind::Timeout { obj: Some(5) }),
                ev(20, 0, Some(0), EventKind::Timeout { obj: None }),
                ev(
                    21,
                    1,
                    Some(1),
                    EventKind::Deadlock {
                        cycle: 0,
                        waits_for: 2,
                        obj: Some(6),
                    },
                ),
                ev(
                    22,
                    0,
                    Some(2),
                    EventKind::Deadlock {
                        cycle: 0,
                        waits_for: 1,
                        obj: None,
                    },
                ),
                ev(
                    23,
                    1,
                    Some(2),
                    EventKind::Cancel {
                        obj: Some(7),
                        by: Some(0),
                    },
                ),
                ev(
                    24,
                    1,
                    Some(2),
                    EventKind::Cancel {
                        obj: None,
                        by: None,
                    },
                ),
                ev(
                    1_000_000_000_000_001,
                    0,
                    Some(0),
                    EventKind::Block {
                        reason: BlockReason::RwWrite,
                        obj: Some(8),
                    },
                ),
            ],
            counters: Counters {
                footprint: vec![(t(0), 0), (t(1500), 8192), (t(123_456_789), 90_000)],
                live_threads: vec![(t(0), 1), (t(1), 2)],
                ready: vec![(t(2), 1)],
                active_deques: vec![(t(999), 2)],
                sched_lock_wait: vec![(t(1000), 250)],
                host_pool_cached: vec![(t(14), 8192), (t(1 << 60), u64::MAX)],
            },
            threads: vec![
                ThreadLifecycle {
                    thread: 0,
                    spawned: t(0),
                    first_dispatch: Some(t(0)),
                    ready_wait: t(7),
                    quanta: 3,
                    exited: Some(t(1 << 60)),
                },
                ThreadLifecycle {
                    thread: 1,
                    spawned: t(1),
                    first_dispatch: Some(t(2)),
                    ready_wait: t(0),
                    quanta: 1,
                    exited: None,
                },
                ThreadLifecycle::new(2, t(13)),
            ],
            host_phase: Some(hp),
            decisions: vec![
                decision(D::DispatchTie, 0, 2, 1, None),
                decision(D::UnparkTie, 5, 3, 2, None),
                decision(D::WakeOrder, 7, 2, 1, Some(4)),
                decision(D::Grant, 4, 2, 0, Some(3)),
                decision(D::TimeoutOrder, 19, 2, 1, None),
                decision(D::CancelDelivery, 23, 2, 1, Some(7)),
            ],
        }
    }

    /// A hand-built critical path over [`golden_trace`] naming every blame
    /// bucket, for the export's pid-1 lane.
    fn golden_critpath() -> crate::critpath::CritPath {
        use crate::critpath::{BlameBucket as B, CritPath, Segment};
        let seg = |thread, start, end, bucket| Segment {
            thread,
            start: VirtTime::from_ns(start),
            end: VirtTime::from_ns(end),
            bucket,
        };
        CritPath {
            segments: vec![
                seg(Some(0), 0, 1, B::Compute),
                seg(Some(1), 1, 999, B::ReadyWait),
                seg(
                    Some(0),
                    999,
                    1500,
                    B::LockWait {
                        reason: BlockReason::Mutex,
                        obj: Some(3),
                    },
                ),
                seg(
                    Some(0),
                    1500,
                    2000,
                    B::LockWait {
                        reason: BlockReason::Join,
                        obj: None,
                    },
                ),
                seg(Some(0), 2000, 2500, B::JoinWait),
                seg(Some(2), 2500, 123_456_789, B::Preempt),
                seg(None, 123_456_789, 1 << 60, B::Residual),
            ],
            ..CritPath::default()
        }
    }

    const GOLDEN: &str = include_str!("../fixtures/golden_chrome_trace.json");

    #[test]
    fn export_reproduces_the_golden_fixture_byte_for_byte() {
        let trace = golden_trace();
        let merged = trace.to_chrome_json_with_critpath(&golden_critpath());
        if merged != GOLDEN {
            let at = merged
                .bytes()
                .zip(GOLDEN.bytes())
                .position(|(a, b)| a != b)
                .unwrap_or(merged.len().min(GOLDEN.len()));
            panic!(
                "export differs from the fixture at byte {at}: {:?} vs {:?}",
                &merged[at.saturating_sub(40)..(at + 40).min(merged.len())],
                &GOLDEN[at.saturating_sub(40)..(at + 40).min(GOLDEN.len())]
            );
        }
        // The plain export is the same document without the pid-1 lane.
        let lane = GOLDEN
            .find(",{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1")
            .expect("fixture has a critpath lane");
        let tail = GOLDEN
            .find("],\"otherData\"")
            .expect("fixture has otherData");
        assert_eq!(
            trace.to_chrome_json(),
            format!("{}{}", &GOLDEN[..lane], &GOLDEN[tail..])
        );
        // And both read back to the trace.
        assert_eq!(
            Trace::from_chrome_json(GOLDEN).expect("fixture parses"),
            trace
        );
        assert_eq!(
            Trace::from_chrome_json(&trace.to_chrome_json()).expect("plain export parses"),
            trace
        );
    }

    /// The plain export of a small real run plus a host-phase profile and a
    /// decision: one of each record class.
    fn small_doc() -> (Trace, String) {
        let cfg = Config::new(2, SchedKind::Df)
            .with_trace()
            .with_perturbation(3);
        let (_, report) = run(cfg, || {
            let m = crate::Mutex::new(0u32);
            scope(|s| {
                for _ in 0..2 {
                    let m = m.clone();
                    s.spawn(move || {
                        *m.lock() += 1;
                        crate::work(100);
                    });
                }
            })
        });
        let mut trace = report.trace.expect("trace enabled");
        trace.host_phase = Some(HostPhaseStats::default());
        trace.decisions.push(crate::oracle::Decision {
            kind: crate::oracle::DecisionKind::Grant,
            at: VirtTime::from_ns(100),
            n: 2,
            chosen: 1,
            obj: Some(0),
        });
        let json = trace.to_chrome_json();
        (trace, json)
    }

    #[test]
    fn importer_rejects_every_truncation() {
        let (_, json) = small_doc();
        assert!(Trace::from_chrome_json(&json).is_ok());
        for cut in (0..json.len()).filter(|&i| json.is_char_boundary(i)) {
            assert!(
                Trace::from_chrome_json(&json[..cut]).is_err(),
                "truncation at byte {cut} of {} accepted",
                json.len()
            );
        }
    }

    #[test]
    fn importer_validates_skipped_members() {
        let (trace, json) = small_doc();
        let span_at = json.find("\"ph\":\"X\"").expect("a span record");
        let event_at = json.find("\"ph\":\"i\"").expect("an event record");
        // Replaces the value of the first `key` member after byte `from`.
        let with_value = |from: usize, key: &str, value: &str| {
            let k = from
                + json[from..]
                    .find(&format!("\"{key}\":"))
                    .expect("member present");
            let v = k + key.len() + 3;
            let end = v + json[v..].find([',', '}']).expect("value end");
            format!("{}{value}{}", &json[..v], &json[end..])
        };
        // Well-formed replacements of skipped members are accepted.
        for (from, key, value) in [
            (span_at, "ts", "\"not a number\""),
            (span_at, "dur", "[1,{\"a\":null}]"),
            (event_at, "s", "{\"x\":[true,false]}"),
        ] {
            let doc = with_value(from, key, value);
            assert_eq!(
                Trace::from_chrome_json(&doc).as_ref(),
                Ok(&trace),
                "{key}:{value}"
            );
        }
        // Malformed ones are rejected though the importer ignores them.
        for (from, key, value) in [
            (span_at, "ts", "1.2.3"),
            (span_at, "ts", "tru"),
            (span_at, "dur", "[1,]"),
            (span_at, "dur", "-"),
            (event_at, "ts", "nul"),
            (event_at, "s", "\"\\q\""),
            (event_at, "s", "{\"a\" 1}"),
        ] {
            let doc = with_value(from, key, value);
            assert!(
                Trace::from_chrome_json(&doc).is_err(),
                "{key}:{value} accepted"
            );
        }
        // An unknown member is skipped when well formed, rejected when not.
        let insert = |member: &str| format!("{}{member},{}", &json[..span_at], &json[span_at..]);
        for member in ["\"zz\":{\"a\":[1,2,\"\\u00e9\"]}", "\"cat\":-1.5e3"] {
            assert_eq!(
                Trace::from_chrome_json(&insert(member)).as_ref(),
                Ok(&trace),
                "{member}"
            );
        }
        for member in [
            "\"cat\":\"a\\",
            "\"zz\":[1,}",
            "\"zz\":\"\\x\"",
            "\"zz\":01.e",
            "\"zz\":{\"a\":}",
            "\"zz\":\"unterminated",
        ] {
            assert!(
                Trace::from_chrome_json(&insert(member)).is_err(),
                "{member} accepted"
            );
        }
        // Garbage in a skipped member of a skipped record still counts.
        let aux = |record: &str| {
            let close = json.find("],\"otherData\"").expect("records end");
            format!("{},{record}{}", &json[..close], &json[close..])
        };
        assert_eq!(
            Trace::from_chrome_json(&aux("{\"ph\":\"Q\",\"pid\":1,\"x\":[{}]}")).as_ref(),
            Ok(&trace)
        );
        assert!(Trace::from_chrome_json(&aux("{\"ph\":\"Q\",\"pid\":1,\"x\":[{]}")).is_err());
        // Unknown top-level members too.
        let top = |member: &str| format!("{{{member},{}", &json[1..]);
        assert_eq!(
            Trace::from_chrome_json(&top("\"extra\":[null]")).as_ref(),
            Ok(&trace)
        );
        assert!(Trace::from_chrome_json(&top("\"extra\":[nul]")).is_err());
    }

    #[test]
    fn importer_rejects_bad_documents() {
        let (_, json) = small_doc();
        let rejects = |doc: &str, why: &str| {
            assert!(Trace::from_chrome_json(doc).is_err(), "{why} accepted");
        };
        rejects(&format!("{json} x"), "trailing garbage");
        rejects(&format!("{json}{{}}"), "a second document");
        rejects(
            &json.replacen("\"ph\":\"X\"", "\"ph\":\"Z\"", 1),
            "unknown phase",
        );
        rejects(
            &json.replacen("\"name\":\"spawn\"", "\"name\":\"spawned\"", 1),
            "unknown instant name",
        );
        rejects(
            &json.replacen("\"name\":\"footprint\"", "\"name\":\"heap\"", 1),
            "unknown counter",
        );
        rejects(
            &json.replacen("\"kind\":\"run\"", "\"kind\":\"r\\qn\"", 1),
            "bad escape",
        );
        rejects(
            &json.replacen("\"kind\":\"run\"", "\"kind\":\"\\u12\"", 1),
            "short \\u escape",
        );
        rejects(
            &json.replacen("\"kind\":\"run\"", "\"kind\":\"walk\"", 1),
            "unknown span kind",
        );
        rejects(
            &json.replacen("\"traceEvents\"", "\"traceEvent\"", 1),
            "no traceEvents",
        );
        rejects("[]", "a non-object document");
        rejects("", "an empty document");
        // Missing fields keep their messages.
        let err = |doc: String| Trace::from_chrome_json(&doc).unwrap_err();
        assert_eq!(
            err(json.replacen("\"startNs\"", "\"beginNs\"", 1)),
            "span without startNs"
        );
        assert_eq!(
            err(json.replacen("\"ph\":\"X\",", "", 1)),
            "record without ph"
        );
        assert_eq!(
            err(json.replacen("\"traceEvents\"", "\"traceEvent\"", 1)),
            "missing traceEvents array"
        );
        let decisions_at = json.find("\"ptdfDecisions\"").expect("decisions member");
        let mut no_kind = json.clone();
        no_kind.replace_range(
            decisions_at..,
            &json[decisions_at..].replacen("\"k\":", "\"K\":", 1),
        );
        assert_eq!(err(no_kind), "decision without kind");
    }

    /// Writes `v` with every object's members reversed and generous
    /// whitespace around every token.
    fn reversed_and_spaced(v: &Value, out: &mut String) {
        match v {
            Value::Arr(items) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i > 0 { " ,\n\t" } else { "\t" });
                    reversed_and_spaced(item, out);
                }
                out.push_str("\r\n]");
            }
            Value::Obj(members) => {
                out.push_str("{ ");
                for (i, (k, v)) in members.iter().rev().enumerate() {
                    if i > 0 {
                        out.push_str(" , ");
                    }
                    out.push_str(&Value::Str(k.clone()).to_json());
                    out.push_str(" :\n ");
                    reversed_and_spaced(v, out);
                }
                out.push_str(" }");
            }
            scalar => out.push_str(&scalar.to_json()),
        }
    }

    #[test]
    fn importer_ignores_member_order_and_whitespace() {
        for (trace, json) in [
            small_doc(),
            (golden_trace(), golden_trace().to_chrome_json()),
        ] {
            let mut doc = String::from("\n ");
            reversed_and_spaced(&Value::parse(&json).expect("export parses"), &mut doc);
            doc.push_str(" \n\t");
            assert_ne!(doc, json);
            assert_eq!(Trace::from_chrome_json(&doc).as_ref(), Ok(&trace));
        }
    }

    #[test]
    fn importer_takes_the_first_of_duplicate_keys() {
        let (trace, json) = small_doc();
        let dup = json
            .replacen("\"ph\":\"X\"", "\"ph\":\"X\",\"ph\":\"Z\"", 1)
            .replacen("\"kind\":\"run\"", "\"kind\":\"run\",\"kind\":7", 1)
            .replacen("}},{", "},\"args\":{\"kind\":\"dummy\"}},{", 1)
            .replacen(
                "\"name\":\"spawn\"",
                "\"name\":\"spawn\",\"name\":\"nope\"",
                1,
            );
        assert_eq!(Trace::from_chrome_json(&dup).as_ref(), Ok(&trace));
        // The first occurrence wins even when a later one is the valid one.
        let first_bad = json.replacen("\"ph\":\"X\"", "\"ph\":\"Z\",\"ph\":\"X\"", 1);
        assert!(Trace::from_chrome_json(&first_bad).is_err());
        let tail = json.rfind('}').expect("document end");
        let second = format!("{},\"traceEvents\":[{{\"ph\":\"Z\"}}]}}", &json[..tail]);
        assert_eq!(Trace::from_chrome_json(&second).as_ref(), Ok(&trace));
        // A decision log that is absent entirely is an empty log.
        let no_log = json.replacen("\"ptdfDecisions\"", "\"ptdfDecisionz\"", 1);
        let mut expect = trace.clone();
        expect.decisions.clear();
        assert_eq!(Trace::from_chrome_json(&no_log), Ok(expect));
    }

    #[test]
    fn importer_skips_records_of_other_pids() {
        let (trace, json) = small_doc();
        let close = json.find("],\"otherData\"").expect("records end");
        for record in [
            "{\"pid\":1}",
            "{\"name\":\"x\",\"ph\":\"Q\",\"pid\":1,\"args\":7}",
            "{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"args\":{}}",
            "{\"args\":{\"kind\":\"run\"},\"ph\":\"i\",\"name\":\"??\",\"pid\":2}",
        ] {
            let doc = format!("{},{record}{}", &json[..close], &json[close..]);
            assert_eq!(
                Trace::from_chrome_json(&doc).as_ref(),
                Ok(&trace),
                "{record}"
            );
        }
        // A pid-0 record is read, so the same unknown phase fails there.
        let doc = format!(
            "{},{{\"ph\":\"Q\",\"pid\":0}}{}",
            &json[..close],
            &json[close..]
        );
        assert!(Trace::from_chrome_json(&doc).is_err());
    }
}
