//! repro-full: `repro all` over a full-scale LANL-shaped trace loaded
//! from CSV, the paper reproduction users run. It exercises store CSV
//! ingest, the index and feature builds, the core analyses, the stats
//! GLMs and synth (through the ablation experiment), and no serve code.

use crate::inputs::path_arg;
use crate::inputs::{fleet, trace_csv, verify, TRACE_SEED};
use crate::report::{Report, INDEX_COUNTERS};
use crate::sha256;
use crate::spans::timed;
use crate::stats::{median, percentile, FAILED};
use crate::Ctx;
use hpcfail_bench::{ExperimentOutcome, ReproContext, EXPERIMENTS};
use hpcfail_obs::manifest::RunManifest;
use hpcfail_store::ingest::{load_trace_with, IngestPolicy};
use hpcfail_synth::sim::SimOptions;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// sha256 of `repro all` stdout at scale 0.1, seed 42: the repository's
/// golden.
pub const GOLDEN_SCALE_0_1_SEED_42: &str =
    "82e5108f2a33b25437a2104943ded174de2f6987e3d4b484bf0230793c0ac352";
/// sha256 of `repro all` stdout at scale 1.0, seed 42.
pub const FULL_SCALE_SEED_42: &str =
    "89bcc503a833db13cc21d877caf02b349ab8bbeb38f9f1d664a2632bcdbb990f";
/// Fewest `repro` processes per run.
pub const MIN_REPS: usize = 2;
/// Scale of the fleets the ablation experiment regenerates.
const ABLATION_SCALE: f64 = 0.12;

/// `repro all`'s stdout for the reports of every experiment, in order.
pub fn render_stdout(outcomes: &[ExperimentOutcome]) -> String {
    let mut out = String::new();
    for (e, outcome) in EXPERIMENTS.iter().zip(outcomes) {
        let body = match outcome {
            ExperimentOutcome::Report(text) => text.clone(),
            ExperimentOutcome::Skipped { missing } => format!(
                "SKIPPED: trace lacks required channels: {}",
                missing.join(", ")
            ),
            ExperimentOutcome::Failed { message } => format!("FAILED: {message}"),
        };
        out.push_str(&format!("==== {} ({}) ====\n{body}\n", e.id, e.title));
    }
    out
}

/// The in-process reference: every experiment on `ctx`. Traced runs go
/// one experiment at a time so each `bench.exp.<id>` span is its own.
fn reference_outcomes(ctx: &ReproContext, run: &Ctx) -> Vec<ExperimentOutcome> {
    match run.tracer() {
        Some(t) => EXPERIMENTS
            .iter()
            .map(|e| timed(Some(t), &format!("bench.exp.{}", e.id), || e.execute(ctx)))
            .collect(),
        None => hpcfail_core::parallel::parallel_map(
            EXPERIMENTS,
            hpcfail_core::parallel::default_threads(),
            |e| e.execute(ctx),
        ),
    }
}

/// One timed `repro` process.
struct Rep {
    ok: bool,
    stdout_sha: String,
    setup: Duration,
    run: Duration,
    peak_rss_mb: f64,
    manifest: Option<RunManifest>,
}

fn run_repro(bin: &Path, args: &[String]) -> Result<Rep, String> {
    let start = Instant::now();
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    let pid = child.id();
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let stderr = child.stderr.take().expect("stderr is piped");
    let loaded: Mutex<Option<Instant>> = Mutex::new(None);
    let exited = AtomicBool::new(false);
    let peak = Mutex::new(0.0f64);
    let (status, out) = std::thread::scope(|scope| {
        let out = scope.spawn(move || {
            let mut buf = Vec::new();
            stdout.read_to_end(&mut buf).map(|_| buf)
        });
        scope.spawn(|| {
            // `repro` reports the loaded trace on stderr before it runs
            // any experiment: that line marks the end of set-up.
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if line.starts_with("loaded ") {
                    loaded
                        .lock()
                        .expect("loaded lock")
                        .get_or_insert_with(Instant::now);
                }
            }
        });
        scope.spawn(|| {
            // VmHWM only grows, so the last reading before exit is the
            // peak up to the final poll interval.
            while !exited.load(Ordering::SeqCst) {
                if let Some(mb) = crate::proc::peak_rss_mb(pid) {
                    let mut p = peak.lock().expect("peak lock");
                    *p = p.max(mb);
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        let status = child.wait();
        exited.store(true, Ordering::SeqCst);
        (status, out.join().expect("stdout reader"))
    });
    let end = Instant::now();
    let status = status.map_err(|e| e.to_string())?;
    let out = out.map_err(|e| e.to_string())?;
    let loaded = loaded.into_inner().expect("loaded lock").unwrap_or(end);
    Ok(Rep {
        ok: status.success(),
        stdout_sha: sha256::hex(&out),
        setup: loaded - start,
        run: end - loaded,
        peak_rss_mb: peak.into_inner().expect("peak lock"),
        manifest: None,
    })
}

/// Runs `repro all` at scale 0.1, seed 42 and checks the golden.
fn golden_self_check(bin: &Path) -> Result<bool, String> {
    let args: Vec<String> = ["--quiet", "--scale", "0.1", "--seed", "42", "all"]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
    let rep = run_repro(bin, &args)?;
    Ok(rep.ok && rep.stdout_sha == GOLDEN_SCALE_0_1_SEED_42)
}

/// Runs repro-full.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let tracer = ctx.tracer();
    let scale = ctx.scale;
    let mut report = Report::default();

    // Prepare (untimed): the CSV trace and the stdout digest it must
    // produce, pinned at full scale and computed in-process otherwise.
    // Traced runs also time the in-process load and every experiment.
    let csv = trace_csv(scale)?;
    let pinned = (scale == 1.0).then_some(FULL_SCALE_SEED_42);
    let computed = if tracer.is_some() || pinned.is_none() {
        let loaded = timed(tracer, "store.csv_load", || {
            load_trace_with(&csv.path, IngestPolicy::Strict)
        });
        let (trace, _) = loaded.map_err(|e| format!("cannot load the CSV trace: {e}"))?;
        report.layers.insert(
            "store.resident_bytes".to_owned(),
            trace.resident_bytes() as f64,
        );
        let reference = timed(tracer, "core.engine_new", || {
            ReproContext::from_trace(trace, TRACE_SEED, scale)
        });
        Some(sha256::hex(
            render_stdout(&reference_outcomes(&reference, ctx)).as_bytes(),
        ))
    } else {
        None
    };
    let expected = pinned.map_or_else(|| computed.clone().unwrap_or_default(), str::to_owned);
    if computed.as_ref().is_some_and(|c| *c != expected) {
        report.problem(format!(
            "in-process repro all digest is not the pinned {expected}"
        ));
    }
    if !golden_self_check(&ctx.repro_bin)? {
        report.problem("repro all at scale 0.1, seed 42 does not match the golden".to_owned());
    }
    verify(&csv.path, &csv.digest)?;

    // Measured: fresh `repro` processes until --seconds have passed.
    let manifest = ctx.work.join("manifest.json");
    let args: Vec<String> = vec![
        "--trace".to_owned(),
        path_arg(&csv.path),
        "--seed".to_owned(),
        TRACE_SEED.to_string(),
        "--scale".to_owned(),
        scale.to_string(),
        "--manifest".to_owned(),
        path_arg(&manifest),
        "all".to_owned(),
    ];
    let started = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || started.elapsed().as_secs_f64() < ctx.seconds {
        let _ = std::fs::remove_file(&manifest);
        let t0 = Instant::now();
        let mut rep = run_repro(&ctx.repro_bin, &args)?;
        if let Some(t) = tracer {
            let id = t.record("repro.process", None, t0, Instant::now());
            let loaded = t0 + rep.setup;
            t.record("repro.setup", Some(id), t0, loaded);
            t.record("repro.run", Some(id), loaded, loaded + rep.run);
        }
        rep.manifest = std::fs::read_to_string(&manifest)
            .ok()
            .and_then(|text| RunManifest::from_json_str(&text).ok());
        eprintln!(
            "repro-full: process {}: setup {:.3} s, run {:.3} s, peak {:.0} MiB",
            reps.len() + 1,
            rep.setup.as_secs_f64(),
            rep.run.as_secs_f64(),
            rep.peak_rss_mb
        );
        reps.push(rep);
    }

    let good = |r: &Rep| r.ok && r.stdout_sha == expected && r.manifest.is_some();
    report.attempted = reps.len() as u64;
    report.failed = reps.iter().filter(|r| !good(r)).count() as u64;
    report.correct = report.failed == 0;
    if report.failed > 0 {
        report.problem(format!(
            "{} of {} repro runs failed or printed other output than expected",
            report.failed,
            reps.len()
        ));
    }
    let setups: Vec<f64> = reps.iter().map(|r| r.setup.as_secs_f64()).collect();
    let runs: Vec<f64> = reps.iter().map(|r| r.run.as_secs_f64()).collect();
    // A reproduction's latency: process start to exit; failures count
    // as infinite.
    let latencies: Vec<f64> = reps
        .iter()
        .map(|r| {
            if good(r) {
                (r.setup + r.run).as_secs_f64() * 1e3
            } else {
                FAILED
            }
        })
        .collect();
    let analyses = reps.iter().filter(|r| good(r)).count() * EXPERIMENTS.len();
    let ingest_ms: Vec<f64> = reps
        .iter()
        .filter_map(|r| r.manifest.as_ref()?.snapshot.spans.get("repro.load"))
        .map(|load| load.total_ns as f64 / 1e6)
        .collect();
    let peaks: Vec<f64> = reps.iter().map(|r| r.peak_rss_mb).collect();
    report.e2e.insert("setup_s", median(&setups).unwrap_or(0.0));
    report.e2e.insert("run_s", median(&runs).unwrap_or(0.0));
    report
        .e2e
        .insert("throughput_qps", analyses as f64 / runs.iter().sum::<f64>());
    report
        .e2e
        .insert("p50_ms", median(&latencies).unwrap_or(0.0));
    report
        .e2e
        .insert("p99_ms", percentile(&latencies, 0.99).unwrap_or(0.0));
    report
        .e2e
        .insert("upload_p50_ms", median(&ingest_ms).unwrap_or(0.0));
    report
        .e2e
        .insert("peak_rss_mb", median(&peaks).unwrap_or(0.0));

    if let Some(t) = tracer {
        // Counters the program exports, from the last run's manifest.
        if let Some(m) = reps.last().and_then(|r| r.manifest.as_ref()) {
            for name in INDEX_COUNTERS {
                let value = m.snapshot.counters.get(name).copied().unwrap_or(0);
                report.layers.insert(name.to_owned(), value as f64);
            }
        }
        let ablation = fleet(ABLATION_SCALE);
        timed(Some(t), "synth.generate", || {
            drop(ablation.generate_with(TRACE_SEED, &SimOptions::default()))
        });
    }
    Ok(report)
}
