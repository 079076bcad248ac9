//! `perfbench --workload NAME --seed N --seconds S --trace 0|1
//!  [--bin-dir DIR] [--scale F]`
//!
//! Runs one workload and prints, as the last line of stdout, one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` (end-to-end
//! metrics untraced, per-layer metrics traced). Traced runs also write
//! their spans to `.bench_work/spans/<workload>-seed<N>.jsonl`.
//! Generated inputs live under `.bench_work/` and are removed at exit.
//! Exits non-zero without a result line when the run cannot be made.

use perfbench::report::result_line;
use perfbench::spans::Tracer;
use perfbench::{Ctx, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: PathBuf,
    scale: f64,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        bin_dir: PathBuf::from(".bench_build/release"),
        scale: 1.0,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} needs {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?;
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--bin-dir" => parsed.bin_dir = PathBuf::from(value),
            "--scale" => {
                parsed.scale = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 1.0)
                    .ok_or_else(|| bad("a value in (0, 1]"))?;
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".bench_work");
    let work = root.join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        scale: args.scale,
        repro_bin: args.bin_dir.join("repro"),
        serve_bin: args.bin_dir.join("hpcfail-serve"),
        work: work.clone(),
        tracer: args.trace.then(|| Tracer::new(&args.workload)),
    };
    let outcome = perfbench::run(&ctx);
    let _ = std::fs::remove_dir_all(&work);
    let report = match outcome {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for problem in &report.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    if let Some(t) = ctx.tracer() {
        let path = root
            .join("spans")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = t.write_jsonl(&path) {
            eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", result_line(&report, args.trace));
    ExitCode::SUCCESS
}
