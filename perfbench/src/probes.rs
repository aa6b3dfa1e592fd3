//! Layer probes: short benchmark-written loops over each layer's public
//! functions, run after the timed loop of a traced run. Each probe reports
//! host nanoseconds per operation, the median of [`REPS`] repetitions.
//!
//! Probes also stand in for the layers a workload does not exercise, so
//! every traced run reports every per-layer metric: on `apps` and `server`
//! the trace, JSON, checker, critical-path and explorer metrics come from
//! a small traced fork/join job and one litmus exploration; on `server` and
//! `analysis` the kernel floor comes from the matmul kernel, and on
//! `server` so does the charge-flush count. A probe value measures the
//! probe's job, not the workload's, so it is not comparable across
//! workloads.

use std::rc::Rc;
use std::time::Instant;

use ptdf::{
    Condvar, Config, ExploreOpts, JoinError, Mutex, RwLock, SchedKind, Semaphore, Trace, VirtTime,
};
use ptdf_apps::matmul;
use ptdf_fiber::{Coroutine, StackPool};

use crate::{derive_seed, stats, Harness, Size};

/// Repetitions of each probe.
const REPS: usize = 3;

/// Operations per probe repetition at full size.
const OPS: u64 = 20_000;

fn ops(h: &Harness, full: u64) -> u64 {
    if h.opts.size == Size::Full {
        full
    } else {
        (full / 20).max(10)
    }
}

/// Median over [`REPS`] of `f`, which returns (elapsed ns, operations).
fn per_op(mut f: impl FnMut() -> (u64, u64)) -> f64 {
    let v: Vec<f64> = (0..REPS)
        .map(|_| {
            let (ns, n) = f();
            ns as f64 / n.max(1) as f64
        })
        .collect();
    stats::median(&v)
}

/// Times `body` inside a fresh `ptdf::run` on `procs` processors; the clock
/// starts inside the root thread, so runtime start-up is excluded.
fn in_runtime(procs: usize, n: u64, body: impl FnOnce(u64) + 'static) -> (u64, u64) {
    let (ns, _) = ptdf::run(Config::new(procs, SchedKind::Df), move || {
        let t = Instant::now();
        body(n);
        t.elapsed().as_nanos() as u64
    });
    (ns, n)
}

/// Runs every probe and fills in the metrics the workload left unset.
pub fn run(h: &mut Harness) {
    let n = ops(h, OPS);
    let mut put = |h: &mut Harness, name: &str, v: f64| {
        if h.metrics.get(name).is_none() {
            h.metrics.put(name, v);
        }
    };

    // runtime
    let v = per_op(|| {
        in_runtime(4, n, |n| {
            for _ in 0..n {
                ptdf::spawn(|| ()).join();
            }
        })
    });
    put(h, "runtime.spawn_join_ns", v);
    let v = per_op(|| {
        in_runtime(4, n, |n| {
            // Children carry modelled work, so every join blocks.
            let mut done = 0;
            while done < n {
                let wave = 32.min(n - done);
                let hs: Vec<_> = (0..wave)
                    .map(|_| ptdf::spawn(|| ptdf::work(2_000)))
                    .collect();
                for hd in hs {
                    hd.join();
                }
                done += wave;
            }
        })
    });
    put(h, "runtime.blocking_join_ns", v);
    let v = per_op(|| {
        in_runtime(1, n, |n| {
            let other = ptdf::spawn(move || {
                for _ in 0..n / 2 {
                    ptdf::yield_now();
                }
            });
            for _ in 0..n / 2 {
                ptdf::yield_now();
            }
            other.join();
        })
    });
    put(h, "runtime.yield_ns", v);

    // fiber
    let v = per_op(|| {
        let mut pool = StackPool::new(ptdf_fiber::DEFAULT_POOL_CAP);
        let t = Instant::now();
        for i in 0..n {
            let mut co: Coroutine<u64, (), u64> =
                Coroutine::with_stack(pool.acquire(ptdf_fiber::DEFAULT_STACK_SIZE), |_, x| x + 1);
            let out = co.resume(i);
            assert_eq!(out, ptdf_fiber::Step::Complete(i + 1));
            if let Some(stack) = co.into_stack() {
                pool.release(stack);
            }
        }
        (t.elapsed().as_nanos() as u64, n)
    });
    put(h, "fiber.create_ns", v);
    let v = per_op(|| {
        let mut co: Coroutine<u64, u64, ()> =
            Coroutine::new(ptdf_fiber::DEFAULT_STACK_SIZE, |y, mut x| loop {
                x = y.suspend(x + 1);
            });
        let t = Instant::now();
        let mut acc = 0;
        for _ in 0..n {
            acc = co.resume(acc).unwrap_yield();
        }
        assert_eq!(acc, n);
        // One resume/suspend round trip is two switches.
        (t.elapsed().as_nanos() as u64, 2 * n)
    });
    put(h, "fiber.switch_ns", v);

    // sched: the indexed dispatch hot paths, through the wall-clock
    // harness's storms at 10k live threads.
    for (metric, storm) in [
        ("sched.pop_ns.df", "df_join_storm"),
        ("sched.pop_ns.df-deques", "dfdeques_poll_storm"),
    ] {
        let v: Vec<f64> = (0..REPS)
            .map(|_| {
                ptdf_bench::wallclock::remeasure_indexed(storm, 10_000)
                    .expect("storm exists")
                    .ns_per_dispatch
            })
            .collect();
        put(h, metric, stats::median(&v));
    }

    // smp charge points
    let v = per_op(|| {
        in_runtime(4, 10 * n, |n| {
            for _ in 0..n {
                ptdf::work(10);
            }
        })
    });
    put(h, "smp.work_ns", v);
    let v = per_op(|| {
        in_runtime(4, 10 * n, |n| {
            for i in 0..n {
                ptdf::touch(i % 64, 256);
            }
        })
    });
    put(h, "smp.touch_ns", v);

    // sync handoffs: two threads passing control back and forth, so every
    // operation wakes a blocked waiter.
    put(
        h,
        "sync.mutex_handoff_ns",
        per_op(|| in_runtime(2, n, mutex_handoffs)),
    );
    put(
        h,
        "sync.condvar_handoff_ns",
        per_op(|| in_runtime(2, n, condvar_handoffs)),
    );
    put(
        h,
        "sync.sem_handoff_ns",
        per_op(|| in_runtime(2, n, sem_handoffs)),
    );
    put(
        h,
        "sync.rwlock_handoff_ns",
        per_op(|| in_runtime(2, n, rwlock_handoffs)),
    );
    let v = per_op(|| {
        in_runtime(1, n, |n| {
            let never = Semaphore::new(0);
            for _ in 0..n {
                assert!(never.acquire_timeout(VirtTime::from_us(1)).is_err());
            }
        })
    });
    put(h, "sync.timed_wait_ns", v);

    // cancel: spawn a thread that blocks, cancel it, join the unwound
    // thread. The default panic hook runs on every unwind.
    let m = ops(h, 200);
    let v = per_op(|| {
        in_runtime(2, m, |n| {
            for _ in 0..n {
                let gate = Rc::new(Semaphore::new(0));
                let g = gate.clone();
                let child = ptdf::spawn(move || g.acquire());
                child.cancel();
                assert!(matches!(child.try_join(), Err(JoinError::Canceled(_))));
            }
        })
    });
    put(h, "cancel.unwind_ns", v);

    // mem
    let v = per_op(|| {
        in_runtime(1, 10 * n, |n| {
            for _ in 0..n {
                ptdf::rt_alloc(4096);
                ptdf::rt_free(4096);
            }
        })
    });
    put(h, "mem.alloc_free_ns", v);

    trace_probe(h, &mut put);
    kernel_probe(h, &mut put);
}

fn mutex_handoffs(n: u64) {
    // Both threads hold the lock across a charge point on two processors,
    // so acquisitions contend and the lock passes between them.
    let m = Rc::new(Mutex::new(0u64));
    let m2 = m.clone();
    let other = ptdf::spawn(move || {
        for _ in 0..n / 2 {
            let mut g = m2.lock();
            *g += 1;
            ptdf::work(50);
        }
    });
    for _ in 0..n / 2 {
        let mut g = m.lock();
        *g += 1;
        ptdf::work(50);
    }
    other.join();
    assert_eq!(*m.lock(), n / 2 * 2);
}

fn condvar_handoffs(n: u64) {
    let state = Rc::new((Mutex::new(0u64), Condvar::new()));
    let s2 = state.clone();
    let other = ptdf::spawn(move || {
        let (m, cv) = &*s2;
        let mut g = m.lock();
        while *g < n {
            if *g % 2 == 1 {
                *g += 1;
                cv.notify_one();
            } else {
                g = cv.wait(g);
            }
        }
    });
    {
        let (m, cv) = &*state;
        let mut g = m.lock();
        while *g < n {
            if *g % 2 == 0 {
                *g += 1;
                cv.notify_one();
            } else {
                g = cv.wait(g);
            }
        }
    }
    other.join();
}

fn sem_handoffs(n: u64) {
    let (a, b) = (Rc::new(Semaphore::new(0)), Rc::new(Semaphore::new(0)));
    let (a2, b2) = (a.clone(), b.clone());
    let other = ptdf::spawn(move || {
        for _ in 0..n / 2 {
            b2.acquire();
            a2.release();
        }
    });
    for _ in 0..n / 2 {
        b.release();
        a.acquire();
    }
    other.join();
}

fn rwlock_handoffs(n: u64) {
    let l = Rc::new(RwLock::new(0u64));
    let l2 = l.clone();
    // A reader and a writer, each holding the lock across a charge point.
    let other = ptdf::spawn(move || {
        for _ in 0..n / 2 {
            let g = l2.read();
            std::hint::black_box(*g);
            ptdf::work(50);
        }
    });
    for _ in 0..n / 2 {
        let mut g = l.write();
        *g += 1;
        ptdf::work(50);
    }
    other.join();
}

/// Trace, JSON, checker, critical-path and explorer probes: a traced
/// fork/join job beside its untraced twin, its trace read by every tool,
/// and one litmus program explored under `df`.
fn trace_probe(h: &mut Harness, put: &mut impl FnMut(&mut Harness, &str, f64)) {
    let depth = if h.opts.size == Size::Full { 11 } else { 6 };
    fn tree(d: u32) {
        ptdf::work(500);
        if d > 0 {
            let l = ptdf::spawn(move || tree(d - 1));
            tree(d - 1);
            l.join();
        }
    }
    let job = move |cfg: Config| ptdf::run(cfg, move || tree(depth)).1;
    let mut samples: [Vec<f64>; 5] = Default::default();
    let mut events = 0;
    let mut bytes = 0;
    for _ in 0..REPS {
        let t = Instant::now();
        let report = job(Config::new(4, SchedKind::Df).with_trace());
        let traced = t.elapsed().as_nanos() as f64;
        let t = Instant::now();
        let twin = job(Config::new(4, SchedKind::Df));
        let untraced = t.elapsed().as_nanos() as f64;
        h.ctx
            .checks
            .check(twin.makespan() == report.makespan(), || {
                "trace probe: traced and untraced makespans differ".to_string()
            });
        let trace = report.trace.as_ref().expect("traced run");
        events = trace.events.len();
        let ev = events as f64;
        let t = Instant::now();
        let check = ptdf::check_trace(trace);
        samples[2].push(t.elapsed().as_nanos() as f64 / ev);
        let t = Instant::now();
        let cp = ptdf::analyze_with_makespan(trace, report.makespan());
        samples[3].push(t.elapsed().as_nanos() as f64 / ev);
        let t = Instant::now();
        let json = trace.to_chrome_json();
        samples[0].push(t.elapsed().as_nanos() as f64 / ev);
        let t = Instant::now();
        let back = Trace::from_chrome_json(&json);
        samples[1].push(t.elapsed().as_nanos() as f64 / ev);
        samples[4].push((traced - untraced) / ev);
        bytes = json.len();
        h.ctx.checks.check(
            check.violations.is_empty()
                && cp.blame.sum() == report.makespan()
                && back.as_ref() == Ok(trace),
            || "trace probe: checker, critical path or JSON round trip failed".to_string(),
        );
    }
    put(h, "trace.events", events as f64);
    put(h, "trace.emit_ns_per_event", stats::median(&samples[4]));
    put(h, "json.export_ns_per_event", stats::median(&samples[0]));
    put(h, "json.parse_ns_per_event", stats::median(&samples[1]));
    put(h, "json.bytes_per_event", bytes as f64 / events as f64);
    put(h, "check.ns_per_event", stats::median(&samples[2]));
    put(h, "critpath.ns_per_event", stats::median(&samples[3]));

    let l = ptdf::litmus::find("mutex_increments").expect("litmus program exists");
    let mut rates = Vec::new();
    let mut last = None;
    for _ in 0..REPS {
        let t = Instant::now();
        let r = ptdf::explore(
            Config::new(l.procs, SchedKind::Df),
            ExploreOpts::new(4, 2000),
            l.body,
        );
        rates.push(r.schedules_executed as f64 / t.elapsed().as_secs_f64());
        h.ctx
            .checks
            .check(r.is_clean(), || "explore probe: violation".to_string());
        last = Some(r);
    }
    let r = last.expect("explored");
    put(h, "explore.schedules", r.schedules_executed as f64);
    put(h, "explore.states_pruned", r.states_pruned as f64);
    put(h, "explore.schedules_per_s", stats::median(&rates));
}

/// Kernel probe: the matmul kernel's input generation, standalone floor
/// and `ptdf::run` under `df`, for workloads without app kernels.
fn kernel_probe(h: &mut Harness, put: &mut impl FnMut(&mut Harness, &str, f64)) {
    let mut p = matmul::Params::small();
    if h.opts.size == Size::Reduced {
        p.n = 128;
        p.base = 32;
    }
    p.seed = derive_seed(p.seed, h.opts.seed);
    let mut gen = Vec::new();
    let mut floor = Vec::new();
    let mut overhead = Vec::new();
    let mut counts = None;
    for _ in 0..REPS {
        let t = Instant::now();
        let (a, b) = matmul::gen_input(&p);
        gen.push(t.elapsed().as_secs_f64() * 1e3);
        let (a, b) = (Rc::new(a), Rc::new(b));
        let t = Instant::now();
        let (c, report) = ptdf::run(Config::new(4, SchedKind::Df), {
            let (a, b) = (a.clone(), b.clone());
            move || matmul::multiply(&a, &b, &p)
        });
        let run_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let want = matmul::multiply(&a, &b, &p);
        let floor_ms = t.elapsed().as_secs_f64() * 1e3;
        h.ctx.checks.check(c == want, || {
            "kernel probe: matmul output differs".to_string()
        });
        floor.push(floor_ms);
        overhead.push(run_ms - floor_ms);
        counts = Some(crate::apps::RunCounts::of(&report));
    }
    put(h, "apps.gen_ms", stats::median(&gen));
    put(h, "apps.floor_ms", stats::median(&floor));
    put(h, "runtime.overhead_ms", stats::median(&overhead));
    if h.metrics.get("smp.charge_flushes").is_none() {
        // `serve` owns its runtime `Config`, so the host-phase profiler
        // cannot be armed on the server's own runs: count the flushes of
        // one profiled, untimed run of the probe job instead.
        let (a, b) = matmul::gen_input(&p);
        let (_, report) = ptdf::run(
            Config::new(4, SchedKind::Df).with_host_profile(true),
            move || matmul::multiply(&a, &b, &p),
        );
        put(
            h,
            "smp.charge_flushes",
            report.host_phase().charge.count as f64,
        );
    }
    let c = counts.expect("probed");
    // The counts behind the workload's own overhead figure, or the probe's.
    let (threads, dispatches) = h.attribution.unwrap_or((c.threads, c.dispatches));
    let overhead_ms = h.metrics.get("runtime.overhead_ms").unwrap_or(0.0);
    // Estimate: every thread pays one spawn+join and every other dispatch
    // one yield-sized switch, at the probes' per-operation costs.
    let est_ns = threads as f64 * h.metrics.get("runtime.spawn_join_ns").unwrap_or(0.0)
        + dispatches.saturating_sub(threads) as f64
            * h.metrics.get("runtime.yield_ns").unwrap_or(0.0);
    put(h, "runtime.attributed_share", est_ns / 1e6 / overhead_ms);
}
