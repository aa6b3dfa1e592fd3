//! The benchmark's own tests. Run them in release mode (the full-size
//! pinned-makespan test is slow unoptimized):
//!
//! `cargo test --release --manifest-path perfbench/Cargo.toml`

use std::time::Instant;

use perfbench::{metrics, run_workload, Harness, Opts, Size, WORKLOADS};
use ptdf::json::Value;
use ptdf::{Config, SchedKind};

fn reduced(seed: u64, trace: bool) -> Opts {
    Opts {
        seed,
        seconds: 0.0,
        trace,
        size: Size::Reduced,
    }
}

fn run(workload: &str, opts: Opts) -> Harness {
    run_workload(workload, opts, Instant::now()).expect("known workload")
}

fn assert_passes(workload: &str, h: &Harness) {
    let c = &h.ctx.checks;
    assert!(c.attempted > 0, "{workload}: no checks made");
    assert_eq!(c.failed, 0, "{workload}: {:#?}", c.failures);
}

fn names(h: &Harness) -> Vec<&str> {
    h.metrics.0.iter().map(|(n, _, _)| n.as_str()).collect()
}

#[test]
fn every_workload_passes_its_checks_at_reduced_size() {
    for w in WORKLOADS {
        let h = run(w, reduced(0, false));
        assert_passes(w, &h);
        let want: Vec<&str> = metrics::END_TO_END.iter().map(|(n, _)| *n).collect();
        let mut got = names(&h);
        got.sort_unstable();
        let mut want_sorted = want.clone();
        want_sorted.sort_unstable();
        assert_eq!(got, want_sorted, "{w}: end-to-end metric set");
        for (n, v, _) in &h.metrics.0 {
            assert!(*v > 0.0, "{w}: end-to-end metric {n} is {v}");
        }
    }
}

#[test]
fn traced_runs_report_every_layer_and_tile_their_spans() {
    for w in WORKLOADS {
        let h = run(w, reduced(0, true));
        assert_passes(w, &h);
        let want = metrics::per_layer();
        assert_eq!(names(&h).len(), want.len(), "{w}: per-layer metric count");
        for (n, _) in &want {
            assert!(h.metrics.get(n).is_some(), "{w}: {n} missing");
        }
        // Counted from a probe job where the workload's own runs cannot be
        // profiled (server), never left at 0.
        let flushes = h.metrics.get("smp.charge_flushes").unwrap_or(0.0);
        assert!(flushes > 0.0, "{w}: smp.charge_flushes is {flushes}");
        let roots = perfbench::spans::tile_errors(h.spans());
        assert!(!roots.is_empty(), "{w}: no traced iteration");
        assert!(roots.iter().all(|&(_, e)| e == 0), "{w}: {roots:?}");
        // Every layer call sits under a job, every job under an iteration.
        for s in h.spans() {
            let depth = std::iter::successors(s.parent, |&p| h.spans()[p].parent).count();
            let want = match s.name {
                "iteration" => 0,
                "job" => 1,
                _ => 2,
            };
            assert_eq!(depth, want, "{w}: span {s:?}");
        }
    }
}

#[test]
fn default_seed_reproduces_the_pinned_df_makespans() {
    let apps = perfbench::apps::generate(0, Size::Full);
    for (name, makespan) in [
        ("matmul", 629_068_408u64),
        ("fft", 625_039_260),
        ("dtree", 2_427_176_160),
    ] {
        let app = apps.iter().find(|a| a.name == name).expect("app exists");
        let (_, report) = (app.run)(Config::new(perfbench::PROCS, SchedKind::Df));
        assert_eq!(report.makespan().as_ns(), makespan, "{name}");
    }
}

#[test]
fn two_seeds_give_different_inputs_and_both_pass() {
    let a = perfbench::apps::generate(1, Size::Reduced);
    let b = perfbench::apps::generate(2, Size::Reduced);
    for (x, y) in a.iter().zip(&b) {
        // The volume renderer's phantom is the one input without a seed, and
        // the decision tree's rows are only permuted, which grows the same
        // tree: its input is compared below.
        if x.name != "volren" && x.name != "dtree" {
            assert_ne!((x.standalone)(), (y.standalone)(), "{}", x.name);
        }
    }
    let (d1, d2) = (
        perfbench::apps::dtree_input(1, Size::Reduced).0,
        perfbench::apps::dtree_input(2, Size::Reduced).0,
    );
    assert_ne!(d1.x, d2.x);
    let (s1, s2) = (
        perfbench::server::cell_config(1, Size::Reduced, 100, 200),
        perfbench::server::cell_config(2, Size::Reduced, 100, 200),
    );
    assert_ne!(s1.seed, s2.seed);
    for seed in [1, 2] {
        for w in ["apps", "server"] {
            assert_passes(w, &run(w, reduced(seed, false)));
        }
    }
}

#[test]
fn metric_names_and_units_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let doc = Value::parse(&text).expect("BENCHMARK.json parses");
    let list = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("{key} is a list"))
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(Value::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    };
    let e2e: Vec<(String, String)> = metrics::END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(list("end_to_end"), e2e);
    let layers: Vec<(String, String)> = metrics::per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(list("per_layer"), layers);
    let workloads: Vec<String> = list("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, WORKLOADS);
}
