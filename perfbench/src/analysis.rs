//! The `analysis` workload: record flight-recorder traces and run the tools
//! that read them. Two traced jobs — dtree under `df` and the `df` server
//! cell at 2× overload — each run beside an untraced twin of the same job;
//! each trace goes through `check_trace`, `critpath::analyze_with_makespan`
//! and a Chrome-JSON export and re-parse. Then the litmus corpus is
//! explored exhaustively under all five policies.

use std::rc::Rc;

use ptdf::{Config, ExploreOpts, Report, SchedKind, Trace};
use ptdf_apps::dtree;
use ptdf_server::{serve, serve_traced, ServerConfig};

use crate::apps::{put_counts, RunCounts};
use crate::metrics::{OVERLOAD, POLICIES};
use crate::server::{check_cell, put_cell_counters, put_service_metrics, Cell};
use crate::{median_span_ms, per_iteration_ms, stats, Ctx, Harness, Size, PROCS};

/// Exploration limits. On the litmus corpus depth 8 and every deeper limit
/// run the same schedules, so depth 16 explores it exhaustively.
pub fn explore_opts(size: Size) -> ExploreOpts {
    match size {
        Size::Full => ExploreOpts::new(16, 2000),
        Size::Reduced => ExploreOpts::new(2, 100),
    }
}

/// Requests offered by the traced server cell (its trace has about 62k
/// events).
pub const SERVER_REQUESTS: usize = 2000;

/// Inputs of the workload.
pub struct Inputs {
    dtree: (Rc<dtree::Dataset>, dtree::Params),
    server: ServerConfig,
    size: Size,
}

/// Generates the inputs from `seed`.
pub fn generate(seed: u64, size: Size) -> Inputs {
    let (ds, dp) = crate::apps::dtree_input(seed, size);
    Inputs {
        dtree: (Rc::new(ds), dp),
        server: crate::server::cell_config(seed, size, OVERLOAD, SERVER_REQUESTS),
        size,
    }
}

fn run_dtree(inp: &Inputs, cfg: Config) -> Report {
    let (ds, dp) = (inp.dtree.0.clone(), inp.dtree.1);
    ptdf::run(cfg, move || {
        dtree::build(&ds, &dp);
    })
    .1
}

/// What one iteration produced (compared across iterations).
#[derive(Debug, Clone, PartialEq)]
struct IterOut {
    events: [u64; 2],
    bytes: [u64; 2],
    jobs: [RunCounts; 2],
    cell: Cell,
    schedules: u64,
    pruned: u64,
}

/// Runs the `analysis` workload.
pub fn run(h: &mut Harness) {
    let (seed, size) = (h.opts.seed, h.opts.size);
    let inp = h.setup(|ctx| {
        let inp = generate(seed, size);
        // Warm-up: the dtree pair through every trace reader (the largest
        // trace: JSON buffers, parse tables, allocator working set).
        dtree_pair(&inp, ctx);
        inp
    });

    let mut first: Option<IterOut> = None;
    h.timed_loop(|ctx| {
        let out = iteration(&inp, ctx);
        match &first {
            None => first = Some(out),
            Some(f) => ctx.checks.check(*f == out, || {
                "traces, model outputs or exploration counts differ between iterations".to_string()
            }),
        }
    });
    let out = first.expect("at least one iteration");

    if !h.opts.trace {
        put_service_metrics(
            h,
            std::slice::from_ref(&out.cell),
            inp.server.deadline.as_ns(),
        );
        // Σ over the two traced jobs (their untraced twins are identical).
        let m = &mut h.metrics;
        m.put(
            "virt_makespan_ms",
            (out.jobs[0].makespan_ns + out.jobs[1].makespan_ns) as f64 / 1e6,
        );
        m.put(
            "virt_peak_kb",
            (out.jobs[0].footprint + out.jobs[1].footprint) as f64 / 1024.0,
        );
        // No load ladder here: the closed loop runs at its own pace (100%)
        // and its objective is that every check passes, so this is the
        // check tally expressed as a metric.
        let ok = h.ctx.checks.failed == 0;
        h.metrics.put("slo_load_pct", if ok { 100.0 } else { 0.0 });
        return;
    }

    let spans = h.spans().to_vec();
    let events = (out.events[0] + out.events[1]) as f64;
    let per_event = |name: &str| median_span_ms(&spans, name) * 1e6 / events;
    let traced = per_iteration_ms(&spans, "ptdf::run+trace");
    let untraced = per_iteration_ms(&spans, "ptdf::run");
    let traced_srv = per_iteration_ms(&spans, "ptdf_server::serve_traced");
    let untraced_srv = per_iteration_ms(&spans, "ptdf_server::serve");
    let emit: Vec<f64> = (0..traced.len())
        .map(|i| (traced[i] + traced_srv[i] - untraced[i] - untraced_srv[i]) * 1e6 / events)
        .collect();
    let explore_s = median_span_ms(&spans, "explore") / 1e3;
    let m = &mut h.metrics;
    m.put("trace.events", events);
    m.put("trace.emit_ns_per_event", stats::median(&emit));
    m.put(
        "json.export_ns_per_event",
        per_event("Trace::to_chrome_json"),
    );
    m.put(
        "json.parse_ns_per_event",
        per_event("Trace::from_chrome_json"),
    );
    m.put(
        "json.bytes_per_event",
        (out.bytes[0] + out.bytes[1]) as f64 / events,
    );
    m.put("check.ns_per_event", per_event("check_trace"));
    m.put("critpath.ns_per_event", per_event("critpath::analyze"));
    m.put("explore.schedules", out.schedules as f64);
    m.put("explore.states_pruned", out.pruned as f64);
    m.put("explore.schedules_per_s", out.schedules as f64 / explore_s);
    let mut total = out.jobs[0];
    total.add(&out.jobs[1]);
    put_counts(h, &total);
    put_cell_counters(h, std::slice::from_ref(&out.cell));
    h.metrics
        .put("cancel.count", out.cell.stats.canceled as f64);
    let profiled = run_dtree(
        &inp,
        Config::new(PROCS, SchedKind::Df).with_host_profile(true),
    );
    h.metrics.put(
        "smp.charge_flushes",
        profiled.host_phase().charge.count as f64,
    );
}

/// Reads one trace with every tool, checking each result. Returns the
/// Chrome-JSON size in bytes.
fn read_trace(ctx: &mut Ctx, job: u32, label: &str, trace: &Trace, report: &Report) -> u64 {
    let check = ctx
        .rec
        .time("check_trace", job, || ptdf::check_trace(trace));
    ctx.checks.check(check.violations.is_empty(), || {
        format!("{label}: checker flagged {:?}", check.violations.first())
    });
    let cp = ctx.rec.time("critpath::analyze", job, || {
        ptdf::analyze_with_makespan(trace, report.makespan())
    });
    ctx.checks.check(
        cp.blame.sum() == report.makespan() && cp.makespan == report.makespan(),
        || {
            format!(
                "{label}: critical-path blame {:?} does not sum to makespan {:?}",
                cp.blame.sum(),
                report.makespan()
            )
        },
    );
    let json = ctx
        .rec
        .time("Trace::to_chrome_json", job, || trace.to_chrome_json());
    let back = ctx.rec.time("Trace::from_chrome_json", job, || {
        Trace::from_chrome_json(&json)
    });
    ctx.checks.check(back.as_ref() == Ok(trace), || {
        format!(
            "{label}: Chrome-JSON round trip changed the trace ({:?})",
            back.as_ref().err()
        )
    });
    json.len() as u64
}

/// Runs one traced job and its untraced twin, checks that tracing left the
/// model unchanged, and reads the trace. Returns the trace's event count,
/// its Chrome-JSON size and the twin's report.
fn traced_pair(
    ctx: &mut Ctx,
    label: &str,
    traced: (&'static str, &mut dyn FnMut() -> Report),
    untraced: (&'static str, &mut dyn FnMut() -> Report),
) -> (u64, u64, Report) {
    let job = ctx.job();
    let open = ctx.rec.enter("job", job);
    let report = ctx.rec.time(traced.0, job, traced.1);
    let twin = ctx.rec.time(untraced.0, job, untraced.1);
    ctx.checks.check(
        report.makespan() == twin.makespan() && report.footprint() == twin.footprint(),
        || {
            format!(
                "{label}: traced run differs from its untraced twin \
                 (makespan {:?} vs {:?}, footprint {} vs {})",
                report.makespan(),
                twin.makespan(),
                report.footprint(),
                twin.footprint()
            )
        },
    );
    let (events, bytes) = match &report.trace {
        Some(trace) => (
            trace.events.len() as u64,
            read_trace(ctx, job, label, trace, &report),
        ),
        None => {
            ctx.checks
                .check(false, || format!("{label}: traced run has no trace"));
            (0, 0)
        }
    };
    drop(report);
    ctx.rec.exit(open);
    (events, bytes, twin)
}

/// The dtree job traced and untraced, its trace read by every tool.
fn dtree_pair(inp: &Inputs, ctx: &mut Ctx) -> (u64, u64, RunCounts) {
    let (events, bytes, twin) = traced_pair(
        ctx,
        "dtree",
        ("ptdf::run+trace", &mut || {
            run_dtree(inp, Config::new(PROCS, SchedKind::Df).with_trace())
        }),
        ("ptdf::run", &mut || {
            run_dtree(inp, Config::new(PROCS, SchedKind::Df))
        }),
    );
    (events, bytes, RunCounts::of(&twin))
}

fn iteration(inp: &Inputs, ctx: &mut Ctx) -> IterOut {
    let dtree = dtree_pair(inp, ctx);

    let cfg = &inp.server;
    let mut stats = None;
    let mut twin_stats = None;
    let (events, bytes, twin) = traced_pair(
        ctx,
        "server",
        ("ptdf_server::serve_traced", &mut || {
            let run = serve_traced(cfg, PROCS, SchedKind::Df);
            stats = Some(run.stats);
            run.report
        }),
        ("ptdf_server::serve", &mut || {
            let run = serve(cfg, PROCS, SchedKind::Df);
            twin_stats = Some(run.stats);
            run.report
        }),
    );
    let stats = stats.expect("traced server cell ran");
    let twin_stats = twin_stats.expect("untraced server cell ran");
    check_cell(ctx, "server", cfg, &twin_stats, &twin);
    ctx.checks.check(stats == twin_stats, || {
        "server: traced cell's counters differ from its untraced twin".to_string()
    });
    let server = (events, bytes, RunCounts::of(&twin));
    drop(twin);

    let (mut schedules, mut pruned) = (0u64, 0u64);
    let opts = explore_opts(inp.size);
    for l in ptdf::litmus() {
        let job = ctx.job();
        let open = ctx.rec.enter("job", job);
        let mut found = false;
        for kind in POLICIES {
            let r = ctx.rec.time("explore", job, || {
                ptdf::explore(Config::new(l.procs, kind), opts, l.body)
            });
            schedules += r.schedules_executed as u64;
            pruned += r.states_pruned;
            if l.buggy {
                found |= !r.violations.is_empty() && r.violations.iter().all(|v| v.replay_verified);
            } else {
                ctx.checks.check(r.is_clean() && !r.budget_exhausted, || {
                    format!(
                        "explore {} under {}: {} violations, budget exhausted {}",
                        l.name,
                        kind.name(),
                        r.violations.len(),
                        r.budget_exhausted
                    )
                });
            }
        }
        if l.buggy {
            ctx.checks.check(found, || {
                format!("explore missed the known-bad fixture {}", l.name)
            });
        }
        ctx.rec.exit(open);
    }

    IterOut {
        events: [dtree.0, server.0],
        bytes: [dtree.1, server.1],
        jobs: [dtree.2, server.2],
        cell: Cell {
            sched: SchedKind::Df,
            load: OVERLOAD,
            stats,
            counts: server.2,
        },
        schedules,
        pruned,
    }
}
