//! The benchmark's metric names and units. `BENCHMARK.json` at the
//! repository root lists the same names; the `metric_names` test keeps the
//! two in step.

use ptdf::SchedKind;

/// End-to-end metrics, reported by an untraced run (`--trace 0`).
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("wall_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("virt_makespan_ms", "ms"),
    ("virt_peak_kb", "KB"),
    ("virt_p50_us", "us"),
    ("virt_p99_us", "us"),
    ("goodput_frac", "frac"),
    ("slo_load_pct", "%"),
];

/// Per-layer metrics other than the per-cell server counters, reported by
/// a traced run (`--trace 1`).
pub const LAYERS: [(&str, &str); 40] = [
    ("apps.floor_ms", "ms"),
    ("apps.gen_ms", "ms"),
    ("runtime.overhead_ms", "ms"),
    ("runtime.attributed_share", "est_frac"),
    ("runtime.spawn_join_ns", "ns"),
    ("runtime.blocking_join_ns", "ns"),
    ("runtime.yield_ns", "ns"),
    ("runtime.threads_created", "count"),
    ("runtime.dispatches", "count"),
    ("fiber.create_ns", "ns"),
    ("fiber.switch_ns", "ns"),
    ("fiber.stack_hit_rate", "frac"),
    ("sched.pop_ns.df", "ns"),
    ("sched.pop_ns.df-deques", "ns"),
    ("sched.steals", "count"),
    ("smp.work_ns", "ns"),
    ("smp.touch_ns", "ns"),
    ("smp.charge_flushes", "count"),
    ("smp.sched_lock_acquisitions", "count"),
    ("sync.mutex_handoff_ns", "ns"),
    ("sync.condvar_handoff_ns", "ns"),
    ("sync.sem_handoff_ns", "ns"),
    ("sync.rwlock_handoff_ns", "ns"),
    ("sync.timed_wait_ns", "ns"),
    ("cancel.unwind_ns", "ns"),
    ("cancel.count", "count"),
    ("mem.alloc_free_ns", "ns"),
    ("mem.allocs", "count"),
    ("trace.events", "count"),
    ("trace.emit_ns_per_event", "ns/event"),
    ("json.export_ns_per_event", "ns/event"),
    ("json.parse_ns_per_event", "ns/event"),
    ("json.bytes_per_event", "B/event"),
    ("check.ns_per_event", "ns/event"),
    ("critpath.ns_per_event", "ns/event"),
    ("explore.schedules", "count"),
    ("explore.states_pruned", "count"),
    ("explore.schedules_per_s", "1/s"),
    ("bench.traced_wall_ms", "ms"),
    ("bench.tracing_overhead_ms", "ms"),
];

/// The five scheduling policies, in the order cells are reported.
pub const POLICIES: [SchedKind; 5] = [
    SchedKind::Fifo,
    SchedKind::Lifo,
    SchedKind::Df,
    SchedKind::DfDeques,
    SchedKind::Ws,
];

/// Offered loads (percent of nominal) of the `df` server ladder.
pub const LADDER: [u64; 7] = [25, 50, 75, 100, 125, 150, 200];

/// The overload at which every policy is compared.
pub const OVERLOAD: u64 = 200;

/// The server cells, in run order: `df` over the ladder, then the other
/// four policies at [`OVERLOAD`].
pub fn server_cells() -> Vec<(SchedKind, u64)> {
    let mut cells: Vec<(SchedKind, u64)> = LADDER.iter().map(|&l| (SchedKind::Df, l)).collect();
    cells.extend(
        POLICIES
            .iter()
            .filter(|&&k| k != SchedKind::Df)
            .map(|&k| (k, OVERLOAD)),
    );
    cells
}

/// Per-cell server counters, by field name.
pub const SERVER_FIELDS: [&str; 7] = [
    "offered",
    "admitted",
    "completed",
    "late",
    "canceled",
    "shed",
    "retried",
];

/// Metric name of one server cell counter.
pub fn server_metric(sched: SchedKind, load: u64, field: &str) -> String {
    format!("server.{}.{load}.{field}", sched.name())
}

/// Every per-layer metric with its unit, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        LAYERS.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for (sched, load) in server_cells() {
        for field in SERVER_FIELDS {
            out.push((server_metric(sched, load, field), "count"));
        }
    }
    out
}

/// Unit of a known metric name.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .chain(per_layer())
        .find(|(n, _)| n == name)
        .map(|(_, u)| u)
}
