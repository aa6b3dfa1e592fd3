//! The `server` workload: `ptdf_server::serve` over a fixed offered-load
//! ladder under `df`, and under every policy at 2× overload. Arrivals are
//! open loop in virtual time and each request's latency is timed from its
//! scheduled arrival, so the virtual metrics carry queueing delay. The
//! benchmark itself is a closed loop of whole sweeps.

use ptdf::{Report, SchedKind};
use ptdf_server::{serve, ServerConfig, ServerStats};

use crate::apps::{put_counts, RunCounts};
use crate::metrics::{server_cells, server_metric, OVERLOAD, SERVER_FIELDS};
use crate::{derive_seed, stats, Ctx, Harness, Size, PROCS};

/// Requests offered per cell. 2000 would already give the pooled p99 of
/// the 2× cells far more than ten samples beyond it; 4000 halves the
/// seed-to-seed spread of the ladder's SLO crossing (from up to 14% to
/// about 7% over ten seeds), which arrival bursts otherwise dominate.
pub const REQUESTS: usize = 4000;

/// The `slo_load_pct` objective: this share of all offered requests
/// completes within its deadline (shed, cancelled and late ones miss).
pub const SLO_QUANTILE: f64 = 0.95;

/// The seed the repository's server sweep uses; benchmark seed 0 maps to it.
const DEFAULT_SEED: u64 = 42;

/// The server configuration of one cell offering `requests` at full size.
pub fn cell_config(seed: u64, size: Size, load: u64, requests: usize) -> ServerConfig {
    let requests = if size == Size::Full { requests } else { 200 };
    ServerConfig {
        requests,
        ..ServerConfig::quick(derive_seed(DEFAULT_SEED, seed))
    }
    .overload_pct(load)
}

/// Model outputs of one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Policy.
    pub sched: SchedKind,
    /// Offered load, percent of nominal.
    pub load: u64,
    /// Workload counters and in-deadline latencies.
    pub stats: ServerStats,
    /// Engine counts.
    pub counts: RunCounts,
}

/// Checks one cell's protocol invariants: every offered request is
/// accounted for exactly once, nothing stalled, the space bound held.
pub fn check_cell(
    ctx: &mut Ctx,
    label: &str,
    cfg: &ServerConfig,
    s: &ServerStats,
    report: &Report,
) {
    ctx.checks.check(s.offered == cfg.requests as u64, || {
        format!("{label}: offered {} of {}", s.offered, cfg.requests)
    });
    ctx.checks.check(
        s.completed + s.late + s.canceled + s.shed == s.offered && s.admitted + s.shed == s.offered,
        || format!("{label}: requests not conserved: {s:?}"),
    );
    ctx.checks
        .check(s.latencies_ns.len() as u64 == s.completed, || {
            format!(
                "{label}: {} latencies for {} completions",
                s.latencies_ns.len(),
                s.completed
            )
        });
    ctx.checks
        .check(report.stalled().is_none(), || format!("{label}: stalled"));
    ctx.checks.check(report.bound_violations() == 0, || {
        format!(
            "{label}: {} space-bound violations",
            report.bound_violations()
        )
    });
}

/// Share of all offered requests that completed within the deadline
/// (shed, cancelled and late requests, and completions stamped past the
/// deadline, count as misses). The p95 of all offered requests is within
/// the deadline exactly when this share is at least [`SLO_QUANTILE`].
pub fn in_deadline_share(stats: &ServerStats, deadline_ns: u64) -> f64 {
    let ok = stats
        .latencies_ns
        .iter()
        .filter(|&&l| l <= deadline_ns)
        .count();
    ok as f64 / stats.offered.max(1) as f64
}

/// The highest offered load at which the p95 of all offered requests stays
/// within the deadline, over a ladder of `(load, in-deadline share)` rungs
/// in increasing load: the highest rung that meets the objective, moved up
/// by linear interpolation toward the next rung to where the share crosses
/// [`SLO_QUANTILE`]. 0 when even the lowest rung misses.
pub fn slo_load(ladder: &[(u64, f64)]) -> f64 {
    let Some(i) = ladder.iter().rposition(|&(_, s)| s >= SLO_QUANTILE) else {
        return 0.0;
    };
    let (l0, s0) = ladder[i];
    match ladder.get(i + 1) {
        Some(&(l1, s1)) if s0 > s1 => {
            l0 as f64 + (l1 - l0) as f64 * (s0 - SLO_QUANTILE) / (s0 - s1)
        }
        _ => l0 as f64,
    }
}

/// Runs the `server` workload.
pub fn run(h: &mut Harness) {
    let (seed, size) = (h.opts.seed, h.opts.size);
    let cells_cfg: Vec<(SchedKind, u64, ServerConfig)> = h.setup(|ctx| {
        let cfgs: Vec<_> = server_cells()
            .into_iter()
            .map(|(k, l)| (k, l, cell_config(seed, size, l, REQUESTS)))
            .collect();
        // Warm-up: one untimed sweep (fiber stacks, the panic hook's first
        // backtrace, the allocator's working set).
        for (sched, load, cfg) in &cfgs {
            let run = serve(cfg, PROCS, *sched);
            check_cell(
                ctx,
                &format!("warm-up {}@{load}%", sched.name()),
                cfg,
                &run.stats,
                &run.report,
            );
        }
        cfgs
    });

    let mut first: Option<Vec<Cell>> = None;
    h.timed_loop(|ctx| {
        let mut cells = Vec::with_capacity(cells_cfg.len());
        for (sched, load, cfg) in &cells_cfg {
            let job = ctx.job();
            let open = ctx.rec.enter("job", job);
            let run = ctx
                .rec
                .time("ptdf_server::serve", job, || serve(cfg, PROCS, *sched));
            check_cell(
                ctx,
                &format!("{}@{load}%", sched.name()),
                cfg,
                &run.stats,
                &run.report,
            );
            cells.push(Cell {
                sched: *sched,
                load: *load,
                counts: RunCounts::of(&run.report),
                stats: run.stats,
            });
            ctx.rec.exit(open);
        }
        match &first {
            None => first = Some(cells),
            Some(f) => ctx.checks.check(*f == cells, || {
                "server cells differ between iterations".to_string()
            }),
        }
    });
    let cells = first.expect("at least one iteration");
    let deadline_ns = cells_cfg[0].2.deadline.as_ns();

    if !h.opts.trace {
        put_service_metrics(h, &cells, deadline_ns);
        let ladder: Vec<(u64, f64)> = cells
            .iter()
            .filter(|c| c.sched == SchedKind::Df)
            .map(|c| (c.load, in_deadline_share(&c.stats, deadline_ns)))
            .collect();
        let slo = slo_load(&ladder);
        h.metrics.put("slo_load_pct", slo);
        return;
    }

    let mut total = RunCounts::default();
    for c in &cells {
        total.add(&c.counts);
    }
    put_counts(h, &total);
    put_cell_counters(h, &cells);
    let canceled: u64 = cells.iter().map(|c| c.stats.canceled).sum();
    h.metrics.put("cancel.count", canceled as f64);
    let serve_ms = crate::median_span_ms(h.spans(), "ptdf_server::serve");
    // The server does no host arithmetic: its whole wall is runtime.
    h.metrics.put("runtime.overhead_ms", serve_ms);
    h.attribution = Some((total.threads, total.dispatches));
}

/// End-to-end model metrics over `cells`: Σ makespan and Σ peak footprint
/// over every cell; latency percentiles and goodput pooled over the cells
/// at [`OVERLOAD`]. Every latency metric uses the rule of
/// [`in_deadline_share`]: a completion counts only when it is stamped
/// within the deadline. `ptdf_server` stamps a completion when its watcher
/// resumes, which can be after the deadline the handler met; such
/// completions are misses here, as they are in `slo_load_pct`.
pub fn put_service_metrics(h: &mut Harness, cells: &[Cell], deadline_ns: u64) {
    let makespan: u64 = cells.iter().map(|c| c.counts.makespan_ns).sum();
    let peak: u64 = cells.iter().map(|c| c.counts.footprint).sum();
    let over: Vec<&Cell> = cells.iter().filter(|c| c.load == OVERLOAD).collect();
    let completed: usize = over.iter().map(|c| c.stats.latencies_ns.len()).sum();
    let mut lat: Vec<u64> = over
        .iter()
        .flat_map(|c| c.stats.latencies_ns.iter().copied())
        .filter(|&l| l <= deadline_ns)
        .collect();
    lat.sort_unstable();
    let offered: u64 = over.iter().map(|c| c.stats.offered).sum();
    let m = &mut h.metrics;
    m.put("virt_makespan_ms", makespan as f64 / 1e6);
    m.put("virt_peak_kb", peak as f64 / 1024.0);
    m.put(
        "virt_p50_us",
        stats::nearest_rank(&lat, 0.5).unwrap_or(0) as f64 / 1e3,
    );
    m.put(
        "virt_p99_us",
        stats::nearest_rank(&lat, 0.99).unwrap_or(0) as f64 / 1e3,
    );
    m.put("goodput_frac", lat.len() as f64 / offered.max(1) as f64);
    println!(
        "latency samples (in-deadline completions at {OVERLOAD}%): {} of {offered} offered; \
         {} completions stamped past the deadline count as misses",
        lat.len(),
        completed - lat.len()
    );
}

/// Per-cell server counters; cells the workload did not run read 0.
pub fn put_cell_counters(h: &mut Harness, cells: &[Cell]) {
    for (sched, load) in server_cells() {
        let s = cells
            .iter()
            .find(|c| c.sched == sched && c.load == load)
            .map(|c| c.stats.clone())
            .unwrap_or_default();
        let vals = [
            s.offered,
            s.admitted,
            s.completed,
            s.late,
            s.canceled,
            s.shed,
            s.retried_admits,
        ];
        for (field, v) in SERVER_FIELDS.iter().zip(vals) {
            h.metrics.put(&server_metric(sched, load, field), v as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slo_load_interpolates_to_the_crossing() {
        let ladder = [(50, 0.99), (100, 0.96), (125, 0.94), (150, 0.96)];
        // The highest rung that meets 95% is 150, the last one.
        assert_eq!(slo_load(&ladder), 150.0);
        let ladder = [(50, 0.99), (100, 0.96), (125, 0.94), (150, 0.90)];
        assert!((slo_load(&ladder) - 112.5).abs() < 1e-9);
        assert_eq!(slo_load(&[(25, 0.90)]), 0.0);
        assert_eq!(slo_load(&[(25, 0.95), (50, 0.95)]), 50.0);
    }

    #[test]
    fn misses_count_against_the_share() {
        let stats = ServerStats {
            offered: 4,
            completed: 3,
            latencies_ns: vec![10, 20, 900],
            ..Default::default()
        };
        assert_eq!(in_deadline_share(&stats, 800), 0.5);
    }

    #[test]
    fn one_in_deadline_rule_for_every_latency_metric() {
        let stats = ServerStats {
            offered: 4,
            completed: 3,
            latencies_ns: vec![10_000, 20_000, 900_000],
            ..Default::default()
        };
        let cell = Cell {
            sched: SchedKind::Df,
            load: OVERLOAD,
            stats: stats.clone(),
            counts: RunCounts::default(),
        };
        let opts = crate::Opts {
            seed: 0,
            seconds: 0.0,
            trace: false,
            size: Size::Reduced,
        };
        let mut h = Harness::new(opts, std::time::Instant::now());
        put_service_metrics(&mut h, &[cell], 800_000);
        // The completion stamped past the deadline is a miss in goodput and
        // in the percentiles, as it is in the SLO share.
        assert_eq!(h.metrics.get("goodput_frac"), Some(0.5));
        assert_eq!(
            h.metrics.get("goodput_frac"),
            Some(in_deadline_share(&stats, 800_000))
        );
        assert_eq!(h.metrics.get("virt_p50_us"), Some(10.0));
        assert_eq!(h.metrics.get("virt_p99_us"), Some(20.0));
    }
}
