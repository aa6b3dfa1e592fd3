//! End-to-end and per-layer benchmark of the ptdf runtime.
//!
//! One process runs one named workload on one host thread, from a seed:
//!
//! * `apps` — the seven paper applications under `df` and `fifo`, each
//!   run followed by the same kernel called standalone on the same inputs;
//! * `server` — the open-system RPC server over an offered-load ladder
//!   (`df`) and every policy at 2× overload;
//! * `analysis` — flight-recorder traces of a dtree run and a server cell,
//!   read back by the checker, the critical-path profiler and the
//!   Chrome-JSON round trip, plus an exhaustive exploration of the litmus
//!   corpus.
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics of
//! [`metrics::END_TO_END`]; a traced run (`--trace 1`) records the
//! benchmark's own spans around each call into a layer and reports the
//! per-layer metrics of [`metrics::per_layer`]. See `README.md` in this
//! directory for the definitions.

pub mod analysis;
pub mod apps;
pub mod metrics;
pub mod probes;
pub mod server;
pub mod spans;
pub mod stats;

use std::time::Instant;

use spans::{Recorder, Span};

/// Input scale. `Reduced` keeps each workload's shape at a fraction of its
/// size, for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's scale.
    Full,
    /// Test scale.
    Reduced,
}

/// Options of one benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Workload seed; every input is derived from it.
    pub seed: u64,
    /// Host seconds the timed loop runs for.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input scale.
    pub size: Size,
}

/// Virtual processors of every runtime run the workloads make.
pub const PROCS: usize = 4;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["apps", "server", "analysis"];

/// Mixes the benchmark seed into an input generator's default seed. Seed
/// 0 leaves the default unchanged, so seed 0 reproduces the inputs the
/// repository's own tests and harnesses use.
pub fn derive_seed(default: u64, seed: u64) -> u64 {
    if seed == 0 {
        return default;
    }
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    default ^ (z ^ (z >> 31))
}

/// Correctness checks: each is one attempted operation, failed if false.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// Descriptions of the first failures.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check; `what` describes it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }
}

/// Named metric values with their units, in report order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Sets `name` (its unit comes from [`metrics::unit_of`]).
    pub fn put(&mut self, name: &str, value: f64) {
        let unit = metrics::unit_of(name).unwrap_or_else(|| panic!("unknown metric {name}"));
        match self.0.iter_mut().find(|(n, _, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value, unit)),
        }
    }

    /// Value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }
}

/// State shared by a workload's iterations: the span recorder and the
/// correctness tally.
pub struct Ctx {
    /// The benchmark's span recorder (off in untraced iterations).
    pub rec: Recorder,
    /// Correctness checks.
    pub checks: Checks,
    next_job: u32,
}

impl Ctx {
    /// A fresh job id (ids are unique within a run; 0 marks iterations).
    pub fn job(&mut self) -> u32 {
        self.next_job += 1;
        self.next_job
    }
}

/// Drives one workload: set-up, the timed loop, and the metrics.
pub struct Harness {
    /// Run options.
    pub opts: Opts,
    /// Recorder and checks.
    pub ctx: Ctx,
    /// Reported metrics.
    pub metrics: Metrics,
    /// Threads created and dispatches behind `runtime.overhead_ms`, when
    /// the workload measured that overhead itself (per iteration).
    pub attribution: Option<(u64, u64)>,
    rss_mb: Option<f64>,
    process_start: Instant,
}

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// `peak_rss_mb` is read when this many timed iterations have run (every
/// full-size run has at least this many). The runtime keeps about 115 bytes
/// per spawned thread across `ptdf::run` calls, so the process's high-water
/// mark keeps growing with every iteration; reading it after a fixed amount
/// of work keeps it from depending on how many iterations fit in the run.
const RSS_ITERS: usize = 3;

impl Harness {
    /// A harness for `opts`; `process_start` is taken first thing in `main`.
    pub fn new(opts: Opts, process_start: Instant) -> Self {
        Harness {
            opts,
            ctx: Ctx {
                rec: Recorder::new(false),
                checks: Checks::default(),
                next_job: 0,
            },
            metrics: Metrics::default(),
            attribution: None,
            rss_mb: None,
            process_start,
        }
    }

    /// Runs the workload's set-up (input generation and warm-up)
    /// [`SETUP_REPS`] times and reports the median as `setup_s`. The first
    /// repetition is timed from process start. Returns the last set-up.
    pub fn setup<T>(&mut self, mut f: impl FnMut(&mut Ctx) -> T) -> T {
        // `setup_s` is only reported by untraced runs.
        let reps = if self.opts.size == Size::Full && !self.opts.trace {
            SETUP_REPS
        } else {
            1
        };
        let mut times = Vec::with_capacity(reps);
        let mut out = None;
        for rep in 0..reps {
            let start = if rep == 0 {
                self.process_start
            } else {
                Instant::now()
            };
            out = Some(f(&mut self.ctx));
            times.push(start.elapsed().as_secs_f64());
        }
        if !self.opts.trace {
            self.metrics.put("setup_s", stats::median(&times));
        }
        out.expect("at least one set-up repetition")
    }

    /// Runs `iter` back to back until `opts.seconds` have passed (and at
    /// least a few times). In a traced run, iterations alternate between
    /// span recording off and on, so the tracing overhead is measured in
    /// the same process. Each iteration is one root span.
    pub fn timed_loop(&mut self, mut iter: impl FnMut(&mut Ctx)) {
        let min_iters = match (self.opts.size, self.opts.trace) {
            (Size::Full, false) => 3,
            (Size::Full, true) => 4,
            (Size::Reduced, false) => 1,
            (Size::Reduced, true) => 2,
        };
        let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
        let start = Instant::now();
        let mut i = 0;
        while i < min_iters || start.elapsed().as_secs_f64() < self.opts.seconds {
            let traced = self.opts.trace && i % 2 == 1;
            self.ctx.rec.set_on(traced);
            let it = self.ctx.rec.enter("iteration", 0);
            let t = Instant::now();
            iter(&mut self.ctx);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            self.ctx.rec.exit(it);
            if traced {
                traced_ms.push(ms);
            } else {
                untraced_ms.push(ms);
            }
            i += 1;
            if i == RSS_ITERS {
                self.rss_mb = peak_rss_mb();
            }
        }
        self.ctx.rec.set_on(false);
        for (label, v) in [("untraced", &untraced_ms), ("traced", &traced_ms)] {
            if !v.is_empty() {
                let (q1, q3) = stats::quartiles(v);
                println!(
                    "iteration wall ({label}): median {:.3} ms, quartiles {q1:.3} / {q3:.3} ms, n = {}",
                    stats::median(v),
                    v.len()
                );
                let all: Vec<String> = v.iter().map(|ms| format!("{ms:.1}")).collect();
                println!("iteration walls ({label}, ms, in order): {}", all.join(" "));
            }
        }
        if self.opts.trace {
            for (root, err) in spans::tile_errors(self.ctx.rec.spans()) {
                self.ctx.checks.check(err == 0, || {
                    format!("span self times of iteration span {root} miss its wall by {err} ns")
                });
            }
            let (traced, untraced) = (stats::median(&traced_ms), stats::median(&untraced_ms));
            self.metrics.put("bench.traced_wall_ms", traced);
            self.metrics
                .put("bench.tracing_overhead_ms", traced - untraced);
        } else {
            self.metrics.put("wall_ms", stats::median(&untraced_ms));
        }
    }

    /// The spans recorded by traced iterations.
    pub fn spans(&self) -> &[Span] {
        self.ctx.rec.spans()
    }
}

/// For each traced iteration, in order, the summed duration of the spans
/// named `name` inside it, in milliseconds.
pub fn per_iteration_ms(spans: &[Span], name: &str) -> Vec<f64> {
    let mut root_of: Vec<usize> = Vec::with_capacity(spans.len());
    let mut sums: Vec<(usize, u64)> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        let root = s.parent.map_or(i, |p| root_of[p]);
        root_of.push(root);
        if s.parent.is_none() {
            sums.push((i, 0));
        }
        if s.name == name {
            if let Some(slot) = sums.iter_mut().rev().find(|(r, _)| *r == root) {
                slot.1 += s.dur_ns();
            }
        }
    }
    sums.iter().map(|&(_, ns)| ns as f64 / 1e6).collect()
}

/// Median over traced iterations of the summed duration of spans named
/// `name`, in milliseconds.
pub fn median_span_ms(spans: &[Span], name: &str) -> f64 {
    stats::median(&per_iteration_ms(spans, name))
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Runs the named workload to completion.
pub fn run_workload(name: &str, opts: Opts, process_start: Instant) -> Result<Harness, String> {
    let mut h = Harness::new(opts, process_start);
    match name {
        "apps" => apps::run(&mut h),
        "server" => server::run(&mut h),
        "analysis" => analysis::run(&mut h),
        other => {
            return Err(format!(
                "unknown workload {other:?} (expected one of {WORKLOADS:?})"
            ))
        }
    }
    if opts.trace {
        probes::run(&mut h);
    } else {
        match h.rss_mb.or_else(peak_rss_mb) {
            Some(mb) => h.metrics.put("peak_rss_mb", mb),
            None => h.ctx.checks.check(false, || "VmHWM unreadable".to_string()),
        }
    }
    let expected: Vec<String> = if opts.trace {
        metrics::per_layer().into_iter().map(|(n, _)| n).collect()
    } else {
        metrics::END_TO_END
            .iter()
            .map(|(n, _)| n.to_string())
            .collect()
    };
    for n in &expected {
        let v = h.metrics.get(n);
        h.ctx.checks.check(v.is_some_and(f64::is_finite), || {
            format!("metric {n} missing or not finite: {v:?}")
        });
    }
    h.metrics.0.retain(|(n, _, _)| expected.contains(n));
    Ok(h)
}

/// The result line: one JSON object with the correctness tally and every
/// metric with its unit.
pub fn result_json(h: &Harness) -> String {
    let c = &h.ctx.checks;
    let metrics: Vec<String> = h
        .metrics
        .0
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        c.failed == 0,
        c.attempted,
        c.failed,
        metrics.join(", ")
    )
}

fn json_num(v: f64) -> String {
    if !v.is_finite() {
        "null".to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}
