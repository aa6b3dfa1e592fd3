//! The `apps` workload: the seven paper applications, fine-grained, on 4
//! virtual processors under `df` and `fifo`. Each `ptdf::run` is followed
//! by the same kernel called standalone (outside any runtime) on the same
//! inputs: the standalone wall is the app's arithmetic floor, and the
//! difference is the runtime's overhead.

use std::rc::Rc;
use std::time::Instant;

use ptdf::{Config, Report, SchedKind};
use ptdf_apps::{barnes_hut, dtree, fft, fmm, matmul, spmv, volren};

use crate::{derive_seed, median_span_ms, stats, Ctx, Harness, Size, PROCS};

/// Policies each app runs under: the paper's space-efficient scheduler and
/// the FIFO baseline whose live-thread explosion stresses the stack pool.
pub const SCHEDS: [SchedKind; 2] = [SchedKind::Df, SchedKind::Fifo];

/// A job's output, flattened to numbers for comparison.
pub type Output = Vec<f64>;

/// One application with inputs already generated.
pub struct App {
    /// Short name.
    pub name: &'static str,
    /// Whether the runtime's output must equal the standalone output bit
    /// for bit (otherwise within [`TOLERANCE`] relative RMS).
    pub exact: bool,
    /// The fine-grained program under `ptdf::run`.
    pub run: Box<dyn Fn(Config) -> (Output, Report)>,
    /// The same kernel called standalone on the same inputs.
    pub standalone: Box<dyn Fn() -> Output>,
}

/// Relative RMS tolerance for apps whose parallel reductions may reorder
/// floating-point sums (the apps' own tests use 1e-13 or tighter).
pub const TOLERANCE: f64 = 1e-12;

/// Generates every app's inputs from `seed` at `size`.
pub fn generate(seed: u64, size: Size) -> Vec<App> {
    let full = size == Size::Full;
    let mut apps = Vec::with_capacity(7);

    let mut mp = matmul::Params::small();
    if !full {
        mp.n = 128;
        mp.base = 32;
    }
    mp.seed = derive_seed(mp.seed, seed);
    let (a, b) = matmul::gen_input(&mp);
    let (a, b) = (Rc::new(a), Rc::new(b));
    apps.push(App {
        name: "matmul",
        exact: true,
        run: Box::new({
            let (a, b) = (a.clone(), b.clone());
            move |cfg| {
                ptdf::run(cfg, {
                    let (a, b) = (a.clone(), b.clone());
                    move || matmul::multiply(&a, &b, &mp)
                })
            }
        }),
        standalone: Box::new(move || matmul::multiply(&a, &b, &mp)),
    });

    let mut bp = barnes_hut::Params::small();
    if !full {
        bp.n_bodies = 500;
        bp.timesteps = 1;
    }
    bp.seed = derive_seed(bp.seed, seed);
    let bodies = Rc::new(barnes_hut::plummer(bp.n_bodies, bp.seed));
    let flatten = |b: &[barnes_hut::Body]| -> Output {
        b.iter()
            .flat_map(|b| b.pos.into_iter().chain(b.vel))
            .collect()
    };
    apps.push(App {
        name: "barnes_hut",
        exact: false,
        run: Box::new({
            let bodies = bodies.clone();
            move |cfg| {
                let mut b = (*bodies).clone();
                let (b, report) = ptdf::run(cfg, move || {
                    barnes_hut::run_fine(&mut b, &bp);
                    b
                });
                (flatten(&b), report)
            }
        }),
        standalone: Box::new(move || {
            let mut b = (*bodies).clone();
            barnes_hut::run_fine(&mut b, &bp);
            flatten(&b)
        }),
    });

    let mut fp = fmm::Params::small();
    if !full {
        fp.n_particles = 600;
        fp.levels = 2;
        fp.terms = 4;
        fp.mpl_chunk = 10;
    }
    fp.seed = derive_seed(fp.seed, seed);
    let particles = Rc::new(fmm::gen_particles(&fp));
    let flatten_fmm = |r: fmm::FieldResult| -> Output {
        let mut v = r.potential;
        v.extend(r.field.into_iter().flatten());
        v
    };
    apps.push(App {
        name: "fmm",
        exact: false,
        run: Box::new({
            let particles = particles.clone();
            move |cfg| {
                let (r, report) = ptdf::run(cfg, {
                    let particles = particles.clone();
                    move || fmm::run_fmm(&particles, &fp)
                });
                (flatten_fmm(r), report)
            }
        }),
        standalone: Box::new(move || flatten_fmm(fmm::run_fmm(&particles, &fp))),
    });

    let (ds, dp) = dtree_input(seed, size);
    let ds = Rc::new(ds);
    apps.push(App {
        name: "dtree",
        exact: true,
        run: Box::new({
            let ds = ds.clone();
            move |cfg| {
                let (t, report) = ptdf::run(cfg, {
                    let ds = ds.clone();
                    move || dtree::build(&ds, &dp)
                });
                (flatten_tree(&t), report)
            }
        }),
        standalone: Box::new(move || flatten_tree(&dtree::build(&ds, &dp))),
    });

    let mut xp = fft::Params::small(256);
    if !full {
        xp.log2n = 14;
        xp.threads = 64;
    }
    xp.seed = derive_seed(xp.seed, seed);
    let x = Rc::new(fft::gen_input(&xp));
    let flatten_fft =
        |y: Vec<fft::Cpx>| -> Output { y.iter().flat_map(|c| [c.re, c.im]).collect() };
    apps.push(App {
        name: "fft",
        exact: true,
        run: Box::new({
            let x = x.clone();
            move |cfg| {
                let (y, report) = ptdf::run(cfg, {
                    let x = x.clone();
                    move || fft::fft(&x, &xp)
                });
                (flatten_fft(y), report)
            }
        }),
        standalone: Box::new(move || flatten_fft(fft::fft(&x, &xp))),
    });

    let mut sp = spmv::Params::small();
    if !full {
        sp.nodes = 2_000;
        sp.width = 40;
        sp.iters = 3;
    }
    sp.seed = derive_seed(sp.seed, seed);
    let (m, v) = (
        Rc::new(spmv::gen_matrix(&sp)),
        Rc::new(spmv::gen_vector(&sp)),
    );
    apps.push(App {
        name: "spmv",
        exact: false,
        run: Box::new({
            let (m, v) = (m.clone(), v.clone());
            move |cfg| {
                ptdf::run(cfg, {
                    let (m, v) = (m.clone(), v.clone());
                    move || spmv::run_fine(&m, &v, &sp)
                })
            }
        }),
        standalone: Box::new(move || spmv::run_fine(&m, &v, &sp)),
    });

    // The volume renderer's phantom has no seed: its input is the same
    // at every seed.
    let mut vp = volren::Params::small();
    if !full {
        vp.size = 32;
        vp.image = 32;
    }
    let vol = Rc::new(volren::gen_volume(vp.size));
    let widen = |img: Vec<f32>| -> Output { img.into_iter().map(f64::from).collect() };
    apps.push(App {
        name: "volren",
        exact: false,
        run: Box::new({
            let vol = vol.clone();
            move |cfg| {
                let (img, report) = ptdf::run(cfg, {
                    let vol = vol.clone();
                    move || volren::render_fine(&vol, &vp)
                });
                (widen(img), report)
            }
        }),
        standalone: Box::new(move || widen(volren::render_fine(&vol, &vp))),
    });

    apps
}

/// The decision tree's input: the default Gaussian-mixture dataset with its
/// rows permuted by `seed` (seed 0 keeps the original order). The mixture
/// itself is not reseeded: a fresh mixture per seed changes the tree's size,
/// and with it the job's virtual makespan, by about 20% between seeds,
/// which would swamp every other effect on the workload's metrics.
pub fn dtree_input(seed: u64, size: Size) -> (dtree::Dataset, dtree::Params) {
    let mut p = dtree::Params::small();
    if size == Size::Reduced {
        p.instances = 4_000;
        p.min_split = 500;
    }
    let mut ds = dtree::gen_dataset(&p);
    if seed != 0 {
        let mut state = derive_seed(p.seed, seed);
        let a = ds.attrs;
        for i in (1..ds.n).rev() {
            let j = (ptdf_apps::util::splitmix64(&mut state) % (i as u64 + 1)) as usize;
            ds.y.swap(i, j);
            for k in 0..a {
                ds.x.swap(i * a + k, j * a + k);
            }
        }
    }
    (ds, p)
}

/// Pre-order flattening of a decision tree (exact comparison).
fn flatten_tree(t: &dtree::Node) -> Output {
    let mut out = Vec::new();
    let mut stack = vec![t];
    while let Some(n) = stack.pop() {
        match n {
            dtree::Node::Leaf { label, count } => {
                out.extend([0.0, f64::from(u8::from(*label)), *count as f64]);
            }
            dtree::Node::Split {
                attr,
                threshold,
                left,
                right,
            } => {
                out.extend([1.0, *attr as f64, f64::from(*threshold)]);
                stack.push(right);
                stack.push(left);
            }
        }
    }
    out
}

/// Relative RMS difference of two outputs (`inf` on a length mismatch).
pub fn rel_rms(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    let (mut num, mut den) = (0.0, 0.0);
    for (x, y) in a.iter().zip(b) {
        num += (x - y) * (x - y);
        den += y * y;
    }
    if den == 0.0 {
        num.sqrt()
    } else {
        (num / den).sqrt()
    }
}

/// Whether a runtime output matches its standalone twin.
pub fn outputs_match(app: &App, got: &[f64], want: &[f64]) -> bool {
    if app.exact {
        got.len() == want.len()
            && got
                .iter()
                .zip(want)
                .all(|(x, y)| x.to_bits() == y.to_bits())
    } else {
        rel_rms(got, want) <= TOLERANCE
    }
}

/// Model outputs and exact counts of one `ptdf::run`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunCounts {
    /// Virtual makespan, ns.
    pub makespan_ns: u64,
    /// Modelled peak footprint, bytes.
    pub footprint: u64,
    /// Threads created.
    pub threads: u64,
    /// Engine dispatches.
    pub dispatches: u64,
    /// Work-migration steals.
    pub steals: u64,
    /// Scheduler-lock acquisitions.
    pub sched_locks: u64,
    /// Modelled mallocs.
    pub allocs: u64,
    /// Host fiber-stack pool hits.
    pub stack_hits: u64,
    /// Host fiber-stack pool misses.
    pub stack_misses: u64,
}

impl RunCounts {
    /// Reads the exact counts of a report.
    pub fn of(r: &Report) -> Self {
        RunCounts {
            makespan_ns: r.makespan().as_ns(),
            footprint: r.footprint(),
            threads: r.stats.mem.threads_created,
            dispatches: r.stats.procs.iter().map(|p| p.dispatches).sum(),
            steals: r.steals,
            sched_locks: r.stats.sched_lock_acquisitions,
            allocs: r.stats.mem.allocs,
            stack_hits: r.stats.mem.host_stack_hits,
            stack_misses: r.stats.mem.host_stack_misses,
        }
    }

    /// Element-wise sum.
    pub fn add(&mut self, o: &RunCounts) {
        self.makespan_ns += o.makespan_ns;
        self.footprint += o.footprint;
        self.threads += o.threads;
        self.dispatches += o.dispatches;
        self.steals += o.steals;
        self.sched_locks += o.sched_locks;
        self.allocs += o.allocs;
        self.stack_hits += o.stack_hits;
        self.stack_misses += o.stack_misses;
    }
}

/// Puts the exact per-layer counts shared by every workload.
pub fn put_counts(h: &mut Harness, c: &RunCounts) {
    let m = &mut h.metrics;
    m.put("runtime.threads_created", c.threads as f64);
    m.put("runtime.dispatches", c.dispatches as f64);
    m.put("sched.steals", c.steals as f64);
    m.put("smp.sched_lock_acquisitions", c.sched_locks as f64);
    m.put("mem.allocs", c.allocs as f64);
    let total = c.stack_hits + c.stack_misses;
    m.put(
        "fiber.stack_hit_rate",
        if total == 0 {
            1.0
        } else {
            c.stack_hits as f64 / total as f64
        },
    );
}

/// Job results of one iteration: per (app, sched) the model counts.
type IterCounts = Vec<RunCounts>;

/// Runs the `apps` workload.
pub fn run(h: &mut Harness) {
    let (seed, size) = (h.opts.seed, h.opts.size);
    let mut gen_ms = 0.0;
    let apps = h.setup(|ctx| {
        let t = Instant::now();
        let apps = generate(seed, size);
        gen_ms = t.elapsed().as_secs_f64() * 1e3;
        // Warm-up: one pass of every kernel standalone, which touches every
        // input once and faults in the allocator's working set.
        for app in &apps {
            let out = (app.standalone)();
            ctx.checks
                .check(!out.is_empty(), || format!("{}: empty output", app.name));
        }
        apps
    });

    let mut first: Option<IterCounts> = None;
    let (mut jobs, mut passed) = (0u64, 0u64);
    h.timed_loop(|ctx| {
        let (counts, ok) = iteration(&apps, ctx);
        jobs += counts.len() as u64;
        passed += ok;
        match &first {
            None => first = Some(counts),
            Some(f) => ctx.checks.check(*f == counts, || {
                "virtual makespans or footprints differ between iterations".to_string()
            }),
        }
    });
    let counts = first.expect("at least one iteration");
    let mut total = RunCounts::default();
    for c in &counts {
        total.add(c);
    }

    if !h.opts.trace {
        let makespans_us: Vec<f64> = counts.iter().map(|c| c.makespan_ns as f64 / 1e3).collect();
        let mut sorted: Vec<u64> = counts.iter().map(|c| c.makespan_ns).collect();
        sorted.sort_unstable();
        let m = &mut h.metrics;
        m.put("virt_makespan_ms", total.makespan_ns as f64 / 1e6);
        m.put("virt_peak_kb", total.footprint as f64 / 1024.0);
        // A closed loop of jobs: each job's latency is its virtual makespan.
        // With 14 jobs the p99 is the slowest job.
        m.put("virt_p50_us", stats::median(&makespans_us));
        m.put(
            "virt_p99_us",
            stats::nearest_rank(&sorted, 0.99).unwrap_or(0) as f64 / 1e3,
        );
        println!("latency samples (jobs): {}", sorted.len());
        // A closed loop has one load, its own pace (100%); its objective
        // is that every job's output matches its standalone kernel.
        m.put("goodput_frac", passed as f64 / jobs as f64);
        m.put("slo_load_pct", if passed == jobs { 100.0 } else { 0.0 });
        return;
    }

    let spans = h.spans().to_vec();
    let run_ms = crate::per_iteration_ms(&spans, "ptdf::run");
    let floor_ms = crate::per_iteration_ms(&spans, "kernel");
    let overhead: Vec<f64> = run_ms.iter().zip(&floor_ms).map(|(r, f)| r - f).collect();
    let m = &mut h.metrics;
    m.put("apps.floor_ms", median_span_ms(&spans, "kernel"));
    m.put("apps.gen_ms", gen_ms);
    m.put("runtime.overhead_ms", stats::median(&overhead));
    put_counts(h, &total);
    h.attribution = Some((total.threads, total.dispatches));
    // Charge flushes are only counted by the host-phase profiler, whose
    // timers would distort the timed runs: count them in one extra,
    // untimed pass.
    let mut flushes = 0u64;
    for app in &apps {
        for sched in SCHEDS {
            let (_, r) = (app.run)(Config::new(PROCS, sched).with_host_profile(true));
            flushes += r.host_phase().charge.count;
        }
    }
    h.metrics.put("smp.charge_flushes", flushes as f64);
    h.metrics.put("cancel.count", 0.0);
    crate::server::put_cell_counters(h, &[]);
}

/// One pass over every (app, policy) job: the runtime run, then the
/// standalone kernel, then the output comparison. Returns the jobs' counts
/// and how many jobs passed their checks.
fn iteration(apps: &[App], ctx: &mut Ctx) -> (IterCounts, u64) {
    let mut counts = Vec::with_capacity(apps.len() * SCHEDS.len());
    let mut passed = 0;
    for app in apps {
        for sched in SCHEDS {
            let job = ctx.job();
            let open = ctx.rec.enter("job", job);
            let (got, report) = ctx
                .rec
                .time("ptdf::run", job, || (app.run)(Config::new(PROCS, sched)));
            let want = ctx.rec.time("kernel", job, || (app.standalone)());
            let matched = outputs_match(app, &got, &want);
            let finished = report.stalled().is_none();
            passed += u64::from(matched && finished);
            ctx.checks.check(matched, || {
                format!(
                    "{} under {}: runtime output differs from standalone (rel rms {:e})",
                    app.name,
                    sched.name(),
                    rel_rms(&got, &want)
                )
            });
            ctx.checks.check(finished, || {
                format!("{} under {} stalled", app.name, sched.name())
            });
            counts.push(RunCounts::of(&report));
            drop(report);
            ctx.rec.exit(open);
        }
    }
    (counts, passed)
}
