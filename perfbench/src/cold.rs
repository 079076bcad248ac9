//! serve-cold: a fresh server on the full-scale snapshot answers one
//! seeded sequence of distinct queries over two closed-loop
//! connections, so every query is a result-cache miss and the engine
//! and store cold paths do the work.

use crate::inputs::{fleet, path_arg, trace_snapshot};
use crate::report::Report;
use crate::sequence::{distinct_requests, systems};
use crate::serve::{
    boot_fresh, closed_loop, decode_probe, engine_from, post, read_verified, render, replay_cache,
    roundtrip_hit_us, scrape, upload_probe, Counts, Upload, CONNECTIONS, UPLOAD_SCALE, UPLOAD_SEED,
};
use crate::stats::{block_percentile, median};
use crate::{sha256, Ctx};

/// Queries per run: p99 then has at least 10 samples beyond it.
pub const COLD_QUERIES: usize = 1000;
/// Sequence stream of the cold queries.
pub const COLD_STREAM: u64 = 1;
const QUERY_PATH: &str = "/v1/traces/default/query";
/// Least share of served cold latency the engine must explain.
const EXPLAINED_MIN_PCT: f64 = 90.0;

/// Runs serve-cold.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let tracer = ctx.tracer();
    let spec = fleet(ctx.scale);

    // Prepare (untimed): the trace snapshot and the seeded queries.
    let snap = trace_snapshot(ctx.scale)?;
    let requests = distinct_requests(&systems(&spec), ctx.seed, COLD_STREAM, COLD_QUERIES);
    let bodies: Vec<String> = requests.iter().map(|r| r.canonical()).collect();
    let upload = Upload::load(ctx.scale * UPLOAD_SCALE, UPLOAD_SEED)?;
    let bytes = read_verified(&snap)?;

    // Set-up: fresh servers, the last one carries the load.
    let (server, setups) = boot_fresh(ctx, &["--snapshot".to_owned(), path_arg(&snap.path)])?;
    let client = server.client();
    let before = scrape(&client)?;
    let (replies, wall) = closed_loop(CONNECTIONS, bodies.len(), |i| {
        post(
            &client,
            QUERY_PATH,
            bodies[i].as_bytes(),
            tracer,
            "client.query",
        )
    });
    let after = scrape(&client)?;
    let peak_rss = server.peak_rss_mb();
    let roundtrip = tracer.and_then(|_| roundtrip_hit_us(&client, QUERY_PATH, &bodies[0]));
    let uploads = upload_probe(&client, &upload, tracer);
    server.shutdown()?;

    // Check: every body against the in-process engine on the same bytes.
    let engine = engine_from(&bytes, tracer)?;
    let (expected, _) = closed_loop(CONNECTIONS, requests.len(), |i| {
        render(&engine, &requests[i], tracer)
    });
    let mut report = Report {
        attempted: (replies.len() + uploads.len()) as u64,
        ..Report::default()
    };
    let latencies: Vec<f64> = replies.iter().map(|(_, r)| r.latency_ms).collect();
    report.failed = latencies
        .iter()
        .chain(&uploads)
        .filter(|l| l.is_infinite())
        .count() as u64;
    let served = digest_of(replies.iter().map(|(_, r)| r.body.as_str()));
    let reference = digest_of(expected.iter().map(|(_, b)| b.as_str()));
    if served != reference {
        let wrong = replies
            .iter()
            .zip(&expected)
            .filter(|((_, r), (_, e))| r.body != *e)
            .count();
        report.problem(format!("{wrong} response bodies differ from Engine::run"));
    }
    let not_miss = replies
        .iter()
        .filter(|(_, r)| r.cache.as_deref() != Some("miss"))
        .count();
    if not_miss > 0 {
        report.problem(format!("{not_miss} cold queries were not x-cache: miss"));
    }
    let counts = Counts::between(&before, &after);
    if counts.hit != 0.0 || counts.miss != requests.len() as f64 {
        report.problem(format!(
            "/v1/metrics moved by {} hits and {} misses over {} distinct queries",
            counts.hit,
            counts.miss,
            requests.len()
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
        .insert("upload_p50_ms", median(&uploads).unwrap_or(0.0));
    report.e2e.insert("peak_rss_mb", peak_rss.unwrap_or(0.0));

    if let Some(t) = tracer {
        decode_probe(&upload.bytes, tracer);
        counts.record(&mut report.layers);
        let resident = engine.trace().resident_bytes() as f64;
        report
            .layers
            .insert("store.resident_bytes".to_owned(), resident);
        crate::registry_probe(&engine, &mut report.layers, t);
        if let Some(rt) = roundtrip {
            report
                .layers
                .insert("serve.roundtrip_hit_us".to_owned(), rt);
        }
        let lookups: Vec<usize> = (0..bodies.len()).collect();
        let served: Vec<String> = expected.into_iter().map(|(_, b)| b).collect();
        replay_cache(
            &mut report,
            t,
            engine.fingerprint(),
            &bodies,
            &served,
            &lookups,
        );
        explain_cold_latency(&mut report, t, &latencies, roundtrip);
    }
    Ok(report)
}

/// The digest over bodies in sequence order.
pub fn digest_of<'a>(bodies: impl Iterator<Item = &'a str>) -> String {
    let mut h = sha256::Sha256::default();
    for b in bodies {
        h.update(&(b.len() as u64).to_le_bytes());
        h.update(b.as_bytes());
    }
    h.hex()
}

/// How much of the served latency the in-process engine time explains:
/// `(sum of core.run and core.render) / (sum of served latency)`. The
/// rest is serve overhead plus contention. The check passes when the
/// engine explains at least [`EXPLAINED_MIN_PCT`] and no more than the
/// served time plus one cached-key round trip per query; its verdict
/// goes to stderr, since it checks the benchmark's attribution rather
/// than the program's output.
fn explain_cold_latency(
    report: &mut Report,
    tracer: &crate::spans::Tracer,
    latencies: &[f64],
    roundtrip_us: Option<f64>,
) {
    let engine_ms: f64 = tracer
        .spans()
        .iter()
        .filter(|s| s.name.starts_with("core.run.") || s.name == "core.render")
        .map(|s| s.duration_ns() as f64 / 1e6)
        .sum();
    let served_ms: f64 = latencies.iter().filter(|l| l.is_finite()).sum();
    if served_ms <= 0.0 {
        return;
    }
    let explained = 100.0 * engine_ms / served_ms;
    report
        .layers
        .insert("check.cold_explained_pct".to_owned(), explained);
    let slack_ms = roundtrip_us.unwrap_or(0.0) / 1e3 * latencies.len() as f64;
    let ok = explained >= EXPLAINED_MIN_PCT && engine_ms <= served_ms + slack_ms;
    eprintln!(
        "serve-cold: engine time {engine_ms:.0} ms explains {explained:.1}% of {served_ms:.0} ms \
         served ({:.0} us/query unexplained; cached round trip {:.0} us): {}",
        (served_ms - engine_ms) * 1e3 / latencies.len().max(1) as f64,
        roundtrip_us.unwrap_or(f64::NAN),
        if ok { "accounted" } else { "NOT accounted" }
    );
}
