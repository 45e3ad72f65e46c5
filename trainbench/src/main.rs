//! Closed-loop training benchmark.
//!
//! ```text
//! trainbench --workload <conv-overlap|mlp-dp> --seed <n>
//!            --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload: it builds the seeded inputs, sets the
//! workload up (profile → plan → lower → register → warm up), then runs
//! training steps back to back for `--seconds` (at least 100 steps), each
//! starting when the previous returns, and times the set-up again between
//! steps at even intervals. Afterwards it
//! replays the same batches from the same initial weights through the
//! sequential reference and checks losses, final weights, residency
//! peaks and exchange traffic. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and the metrics — the
//! end-to-end ones with `--trace 0`, the per-layer ones with `--trace 1`.
//! The traced run also writes its spans to `out/` beside this package.
//! Any mismatch makes the run exit with status 1.

mod common;
mod conv;
mod mlp;
mod report;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use report::{result_line, Checker, END_TO_END, PER_LAYER};
use trace::Recorder;

/// What a workload run hands back for reporting.
pub struct Run {
    checker: Checker,
    values: BTreeMap<&'static str, f64>,
    /// Wall time (ms) of each untraced step.
    step_ms: Vec<f64>,
}

/// The benchmark's workloads.
const WORKLOADS: [&str; 2] = ["conv-overlap", "mlp-dp"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range (0, 600]"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Write the recorded spans to `out/spans-<workload>-seed<n>.jsonl` in
/// this package's directory.
pub fn write_spans(rec: &Recorder, workload: &str, seed: u64) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}-seed{seed}.jsonl"));
    if let Err(e) = rec.write_jsonl(&path) {
        eprintln!("could not write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("trainbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Kernel width 1 on every workload: the busy threads are then the
    // compute thread plus one I/O lane, or the two dp workers.
    rayon::set_num_threads(1);
    let run = match args.workload.as_str() {
        "conv-overlap" => conv::run(args.seed, args.seconds, args.trace),
        _ => mlp::run(args.seed, args.seconds, args.trace),
    };
    let v = &run.values;
    // NaN quartiles (too few steps) print as NaN; the result line refuses them.
    let [q1, _, q3] = stats::quartiles(&run.step_ms);
    println!(
        "{} seed {}: {} timed steps ({} attempted, {} failed); step ms q1 {:.3} p50 {:.3} \
         q3 {:.3} p90 {:.3} (highest percentile with 10 samples beyond: p{}); setup {:.3} s; \
         host parallelism {}",
        args.workload,
        args.seed,
        run.step_ms.len(),
        run.checker.attempted(),
        run.checker.failed(),
        q1,
        v["step_ms.p50"],
        q3,
        v["step_ms.p90"],
        stats::tail_percentile(run.step_ms.len()).map_or("-".into(), |p| p.to_string()),
        v["setup_s"],
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    for f in run.checker.failures() {
        eprintln!("mismatch: {f}");
    }
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    match result_line(&run.checker, catalogue, v) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("trainbench: {e}");
            return ExitCode::from(3);
        }
    }
    if run.checker.failed() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload mlp-dp --seed 7 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("mlp-dp", 7, 2.5, true)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload mlp-dp --seed x --seconds 1 --trace 0",
            "--workload mlp-dp --seed 1 --seconds 0 --trace 0",
            "--workload mlp-dp --seed 1 --seconds 1 --trace 2",
            "--workload mlp-dp --seed 1 --seconds 1",
            "--workload mlp-dp --seed 1 --seconds 1 --trace 0 --extra 1",
            "--workload",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }
}
