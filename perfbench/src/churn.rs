//! serve-churn: writes beside reads. One connection keeps re-uploading
//! `.hpcsnap` bytes of smaller fleets under a few trace names; each
//! upload swaps that name's epoch and invalidates its cached results.
//! The other connection queries those names. The server's
//! `--max-resident-bytes` cap holds fewer traces than are registered,
//! so uploads demote traces and queries rehydrate them: the registry's
//! upload, epoch swap, demotion and rehydration paths all run.

use crate::inputs::{fleet, fleet_snapshot, path_arg, verify};
use crate::proc::Server;
use crate::report::Report;
use crate::sequence::{distinct_requests, systems, Rng, Zipf};
use crate::serve::{
    boot, decode_probe, engine_from, post, render, scrape, Counts, Upload, SETUP_BOOTS,
    UPLOAD_SCALE,
};
use crate::spans::{timed, Tracer};
use crate::stats::{block_percentile, median};
use crate::Ctx;
use hpcfail_serve::registry::{TraceRegistry, TraceSource};
use hpcfail_store::snapshot::decode_snapshot;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Trace names the writer cycles through.
pub const NAMES: [&str; 3] = ["churn-a", "churn-b", "churn-c"];
/// Fleets per name; consecutive uploads of a name alternate between
/// them, so every upload changes the data.
pub const VARIANTS: usize = 2;
/// Distinct query keys per name.
pub const KEYS: usize = 24;
/// Uploads per second of `--seconds`.
pub const UPLOADS_PER_SECOND: f64 = 3.0;
/// The reader sends at least this many queries, so p99 has 10 samples
/// beyond it.
pub const MIN_QUERIES: usize = 1000;
/// Consecutive reader queries on one name before it moves to another.
pub const SESSION: usize = 25;
/// Warm residency cap, in traces: fits two of the three names.
const RESIDENT_TRACES: f64 = 2.5;
/// In-process uploads replayed by the traced run.
const REPLAYED_UPLOADS: usize = 6;
/// Seed of the query keys; fleet `i` (name `i / VARIANTS`, variant
/// `i % VARIANTS`) is generated with `FLEET_SEED + 1 + i` (fixed: see
/// `inputs`).
pub const FLEET_SEED: u64 = 100;
const KEY_STREAM: u64 = 4;
const READ_STREAM: u64 = 5;

/// The writer's schedule: upload `i` sends variant `(1 + i / 3) % 2` of
/// name `i % 3` (every name boots or is seeded with variant 0).
pub fn upload_schedule(uploads: usize) -> Vec<(usize, usize)> {
    (0..uploads)
        .map(|i| (i % NAMES.len(), (1 + i / NAMES.len()) % VARIANTS))
        .collect()
}

/// The reader's `(name, key)` plan: sessions of [`SESSION`] Zipf-keyed
/// queries, moving to the next name after each session.
pub fn read_plan(rng: &mut Rng, len: usize) -> Vec<(usize, usize)> {
    let zipf = Zipf::new(KEYS);
    (0..len)
        .map(|i| ((i / SESSION) % NAMES.len(), zipf.sample(rng)))
        .collect()
}

/// Runs serve-churn.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let tracer = ctx.tracer();
    let scale = ctx.scale * UPLOAD_SCALE;
    let spec = fleet(scale);

    // Prepare (untimed): NAMES x VARIANTS fleets, their engines (for
    // the reference bodies), the query keys and the seeded read plan.
    let fleets: Vec<Vec<Upload>> = (0..NAMES.len())
        .map(|n| {
            (0..VARIANTS)
                .map(|v| Upload::load(scale, FLEET_SEED + 1 + (n * VARIANTS + v) as u64))
                .collect()
        })
        .collect::<Result<_, _>>()?;
    let keys = distinct_requests(&systems(&spec), FLEET_SEED, KEY_STREAM, KEYS);
    let key_json: Vec<String> = keys.iter().map(|r| r.canonical()).collect();
    let mut expected: Vec<Vec<Vec<String>>> = Vec::new();
    let mut resident = 0u64;
    for variants in &fleets {
        let mut per_variant = Vec::new();
        for fleet in variants {
            let engine = engine_from(&fleet.bytes, tracer)?;
            resident = resident.max(engine.trace().resident_bytes());
            per_variant.push(keys.iter().map(|r| render(&engine, r, tracer)).collect());
        }
        expected.push(per_variant);
    }
    let cap = (resident as f64 * RESIDENT_TRACES) as u64;
    let boot_snapshot = fleet_snapshot(scale, FLEET_SEED + 1)?;
    let per_server = (UPLOADS_PER_SECOND * ctx.seconds / SETUP_BOOTS as f64).ceil() as usize;
    let uploads = upload_schedule(per_server);
    let mut rng = Rng::new(ctx.seed, READ_STREAM);
    let reads = read_plan(&mut rng, MIN_QUERIES * 8);
    verify(&boot_snapshot.path, &boot_snapshot.digest)?;

    let args = [
        "--snapshot".to_owned(),
        path_arg(&boot_snapshot.path),
        "--name".to_owned(),
        NAMES[0].to_owned(),
        "--max-resident-bytes".to_owned(),
        cap.to_string(),
    ];
    // Each fresh server carries an equal share of the uploads and reads;
    // the run reports the median of their boot times and peaks.
    let mut report = Report::default();
    let (mut setups, mut peaks) = (Vec::new(), Vec::new());
    let (mut upload_ms, mut reads_done) = (Vec::new(), Vec::new());
    let mut wall = Duration::ZERO;
    let mut counts = Counts::default();
    for share in reads.chunks(reads.len() / SETUP_BOOTS).take(SETUP_BOOTS) {
        let (server, setup) = boot(ctx, &args)?;
        setups.push(setup);
        let round = churn_round(
            &server, &fleets, &key_json, &expected, &uploads, share, tracer,
        )?;
        server.shutdown()?;
        report.problems.extend(round.problems);
        peaks.push(round.peak_rss_mb);
        upload_ms.extend(round.upload_ms);
        reads_done.extend(round.reads);
        wall += round.wall;
        counts = counts.plus(round.counts);
    }

    let latencies: Vec<f64> = reads_done.iter().map(|(l, _)| *l).collect();
    report.attempted = (latencies.len() + upload_ms.len()) as u64;
    report.failed = latencies
        .iter()
        .chain(&upload_ms)
        .filter(|l| l.is_infinite())
        .count() as u64;
    let wrong = reads_done.iter().filter(|(_, ok)| !ok).count();
    if wrong > 0 {
        report.problem(format!(
            "{wrong} churn response bodies match no uploaded epoch"
        ));
    }
    if counts.evictions == 0.0 || counts.cold_loads == 0.0 {
        report.problem(format!(
            "registry made {} demotions and {} rehydrations; the workload needs both",
            counts.evictions, counts.cold_loads
        ));
    }
    report.correct = report.failed == 0;

    let ok = latencies.iter().filter(|l| l.is_finite()).count();
    report.e2e.insert("setup_s", median(&setups).unwrap_or(0.0));
    report.e2e.insert("run_s", wall.as_secs_f64());
    report
        .e2e
        .insert("throughput_qps", ok as f64 / wall.as_secs_f64());
    report
        .e2e
        .insert("p50_ms", median(&latencies).unwrap_or(0.0));
    report
        .e2e
        .insert("p99_ms", block_percentile(&latencies, 0.99).unwrap_or(0.0));
    report
        .e2e
        .insert("upload_p50_ms", median(&upload_ms).unwrap_or(0.0));
    report
        .e2e
        .insert("peak_rss_mb", median(&peaks).unwrap_or(0.0));

    if tracer.is_some() {
        counts.record(&mut report.layers);
        report
            .layers
            .insert("store.resident_bytes".to_owned(), resident as f64);
        // The registry path of the first uploads, in-process.
        let registry = TraceRegistry::new(cap);
        for (n, variants) in fleets.iter().enumerate() {
            let trace = decode_snapshot(&variants[0].bytes).map_err(|e| e.to_string())?;
            timed(tracer, "serve.registry.insert", || {
                registry.insert(NAMES[n], trace, TraceSource::Snapshot)
            });
        }
        for &(n, v) in uploads.iter().take(REPLAYED_UPLOADS) {
            let bytes = &fleets[n][v].bytes;
            decode_probe(bytes, tracer);
            let trace = decode_snapshot(bytes).map_err(|e| e.to_string())?;
            timed(tracer, "serve.registry.insert", || {
                registry.insert(NAMES[n], trace, TraceSource::Snapshot)
            });
        }
        report.layers.insert(
            "serve.registry.resident_bytes".to_owned(),
            registry.resident_bytes() as f64,
        );
    }
    Ok(report)
}

/// What one fresh server's share of the churn measured.
struct Round {
    upload_ms: Vec<f64>,
    /// `(latency, body matched an uploaded epoch)` per query.
    reads: Vec<(f64, bool)>,
    wall: Duration,
    counts: Counts,
    peak_rss_mb: f64,
    problems: Vec<String>,
}

/// Seeds the other names, then uploads `uploads` on one connection while
/// the other sends `reads` (cycling) until the uploads are done and
/// its share of [`MIN_QUERIES`] was sent.
fn churn_round(
    server: &Server,
    fleets: &[Vec<Upload>],
    key_json: &[String],
    expected: &[Vec<Vec<String>>],
    uploads: &[(usize, usize)],
    reads: &[(usize, usize)],
    tracer: Option<&Tracer>,
) -> Result<Round, String> {
    let client = server.client();
    let mut problems = Vec::new();
    for (n, name) in NAMES.iter().enumerate().skip(1) {
        if !fleets[n][0].send(&client, name, None).ok() {
            problems.push(format!("seeding upload of {name} failed"));
        }
    }
    let min_reads = MIN_QUERIES.div_ceil(SETUP_BOOTS);
    // Per name: a generation bumped before and after each upload (odd
    // while one is in flight) and the variant installed last.
    let generation: Vec<AtomicU64> = NAMES.iter().map(|_| AtomicU64::new(0)).collect();
    let installed: Vec<AtomicUsize> = NAMES.iter().map(|_| AtomicUsize::new(0)).collect();
    let writer_done = AtomicBool::new(false);
    let before = scrape(&client)?;
    let start = Instant::now();
    let (upload_ms, reads) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let latencies: Vec<f64> = uploads
                .iter()
                .map(|&(n, v)| {
                    generation[n].fetch_add(1, Ordering::SeqCst);
                    let reply = fleets[n][v].send(&client, NAMES[n], tracer);
                    if reply.ok() {
                        installed[n].store(v, Ordering::SeqCst);
                    }
                    generation[n].fetch_add(1, Ordering::SeqCst);
                    reply.latency_ms
                })
                .collect();
            writer_done.store(true, Ordering::SeqCst);
            latencies
        });
        let mut done = Vec::new();
        for &(n, k) in reads.iter().cycle() {
            if writer_done.load(Ordering::SeqCst) && done.len() >= min_reads {
                break;
            }
            let g0 = generation[n].load(Ordering::SeqCst);
            let v0 = installed[n].load(Ordering::SeqCst);
            let path = format!("/v1/traces/{}/query", NAMES[n]);
            let reply = post(
                &client,
                &path,
                key_json[k].as_bytes(),
                tracer,
                "client.query",
            );
            let stable = g0.is_multiple_of(2) && generation[n].load(Ordering::SeqCst) == g0;
            // With no upload of this name overlapping the query, only
            // the installed variant's body is correct; otherwise either.
            let correct = if stable {
                reply.body == expected[n][v0][k]
            } else {
                expected[n].iter().any(|bodies| reply.body == bodies[k])
            };
            done.push((reply.latency_ms, correct || !reply.ok()));
        }
        (writer.join().expect("writer thread"), done)
    });
    let wall = start.elapsed();
    let after = scrape(&client)?;
    Ok(Round {
        upload_ms,
        reads,
        wall,
        counts: Counts::between(&before, &after),
        peak_rss_mb: server.peak_rss_mb().unwrap_or(0.0),
        problems,
    })
}
