//! The SPROUT benchmark.
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <six_rail_signoff|three_rail_sweep|service_stream|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (or all three) for about `--seconds` of measured
//! time, checks the outputs, and prints one JSON object as the last line
//! of standard output: `{"correct", "attempted", "failed", "metrics"}`.
//! With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` they are the per-layer ones from benchmark-side spans,
//! and the spans are written to `.perfbench/` as JSON lines and as a
//! Chrome trace. Every result, with the machine's facts, is also written
//! there. See `perfbench/README.md`.

mod common;
mod layers;
mod signoff;
mod stats;
mod stream;
mod sweep;
mod trace;

use common::{machine_facts, Outcome, Run};
use sprout_telemetry::json::Obj;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Runs one workload and reports what it measured and checked.
type Workload = fn(&mut Run) -> Outcome;

const WORKLOADS: &[(&str, Workload)] = &[
    ("six_rail_signoff", signoff::run),
    ("three_rail_sweep", sweep::run),
    ("service_stream", stream::run),
];

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.iter().any(|(n, _)| *n == args.workload) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>().join(", ")
        ));
    }
    Ok(args)
}

/// A metric value as JSON: non-finite readings (a latency with failed
/// requests) cannot be encoded and are reported as 1e12.
fn metric_json(value: f64, unit: &str) -> String {
    let mut o = Obj::new();
    o.f64("value", if value.is_finite() { value } else { 1e12 })
        .str("unit", unit);
    o.finish()
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let mut m = Obj::new();
    for (name, value, unit) in metrics {
        m.raw(name, &metric_json(*value, unit));
    }
    let mut o = Obj::new();
    o.bool("correct", correct)
        .u64("attempted", attempted.max(1))
        .u64("failed", failed)
        .raw("metrics", &m.finish());
    o.finish()
}

fn write_artifacts(
    run: &Run,
    name: &str,
    out: &Outcome,
    wall_s: f64,
    line: &str,
) -> std::io::Result<()> {
    let base = format!(
        "{name}-seed{}-trace{}",
        run.seed,
        u8::from(run.tracer.is_on())
    );
    let mut facts = Obj::new();
    for (k, v) in &out.facts {
        facts.raw(k, v);
    }
    let mut o = Obj::new();
    o.str("workload", name)
        .u64("seed", run.seed)
        .f64("seconds", run.seconds)
        .bool("trace", run.tracer.is_on())
        .f64("wall_s", wall_s)
        .raw("machine", &machine_facts())
        .raw("facts", &facts.finish())
        .raw(
            "problems",
            &sprout_telemetry::json::str_array(out.problems.iter().map(String::as_str)),
        )
        .raw("result", line);
    std::fs::write(run.out_dir.join(format!("{base}.json")), o.finish() + "\n")?;
    if run.tracer.is_on() {
        std::fs::write(
            run.out_dir.join(format!("{base}.spans.jsonl")),
            run.tracer.to_jsonl(),
        )?;
        std::fs::write(
            run.out_dir.join(format!("{base}.trace.json")),
            run.tracer.to_chrome(),
        )?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(".perfbench");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    println!("machine {}", machine_facts());

    let selected: Vec<_> = WORKLOADS
        .iter()
        .filter(|(n, _)| args.workload == "all" || *n == args.workload)
        .collect();
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut combined: Vec<(String, f64, &str)> = Vec::new();
    let mut last = String::new();
    for (name, workload) in &selected {
        let mut run = Run {
            seed: args.seed,
            seconds: args.seconds,
            tracer: Tracer::new(args.trace),
            out_dir: out_dir.clone(),
        };
        let t = Instant::now();
        let out = workload(&mut run);
        let wall_s = t.elapsed().as_secs_f64();
        for note in &out.notes {
            println!("{note}");
        }
        println!("{name}: {wall_s:.1} s wall, set-up, measurement and checks included");
        for problem in &out.problems {
            println!("CHECK FAILED {name}: {problem}");
        }
        let ok = out.failed == 0 && out.attempted > 0;
        let metrics: Vec<(String, f64, &str)> = out
            .metrics
            .iter()
            .map(|(n, v, u)| ((*n).to_owned(), *v, *u))
            .collect();
        for (n, v, u) in &metrics {
            println!("{name} {n} = {v} {u}");
        }
        let line = result_line(ok, out.attempted, out.failed, &metrics);
        if let Err(e) = write_artifacts(&run, name, &out, wall_s, &line) {
            eprintln!("perfbench: cannot write artifacts: {e}");
            return ExitCode::FAILURE;
        }
        correct &= ok;
        attempted += out.attempted;
        failed += out.failed;
        combined.extend(
            metrics
                .into_iter()
                .map(|(n, v, u)| (format!("{name}.{n}"), v, u)),
        );
        last = line;
    }
    if selected.len() > 1 {
        last = result_line(correct, attempted, failed, &combined);
    }
    println!("{last}");
    ExitCode::SUCCESS
}
