//! `perfbench --workload <apps|server|analysis> --seed <n> --seconds <s>
//! --trace <0|1> [--spans-out <file>]`
//!
//! Runs one workload and prints its metrics as the last line of standard
//! output (one JSON object). `run.py` next to this package builds it and
//! pins the environment; see `README.md`.

use std::process::ExitCode;
use std::time::Instant;

use perfbench::{result_json, run_workload, Opts, Size};

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (name, opts, spans_out) = match parse(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let h = match run_workload(&name, opts, process_start) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = spans_out {
        if let Err(e) = std::fs::write(&path, perfbench::spans::to_json(h.spans())) {
            eprintln!("perfbench: cannot write spans to {path}: {e}");
            return ExitCode::from(1);
        }
    }
    let traced_iters = h.spans().iter().filter(|s| s.parent.is_none()).count();
    for (name, ns) in perfbench::spans::self_by_name(h.spans()) {
        println!(
            "span self time, mean per traced iteration: {name} {:.3} ms",
            ns as f64 / 1e6 / traced_iters as f64
        );
    }
    for f in &h.ctx.checks.failures {
        println!("check failed: {f}");
    }
    println!("{}", result_json(&h));
    ExitCode::SUCCESS
}

fn parse(args: &[String]) -> Result<(String, Opts, Option<String>), String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: 0,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
    };
    let mut spans_out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--spans-out" => spans_out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, opts, spans_out))
}
