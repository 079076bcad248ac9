//! serve-hot: a fresh server on the full-scale snapshot, an untimed
//! warm-up that loads a hot key set into the result cache, then two
//! closed-loop connections sending Zipf-distributed hits, every
//! [`BATCH_EVERY`]-th request a `/batch` of hot keys. The engine does
//! almost nothing; HTTP parsing, routing, admission, cache lookup,
//! body writing and the client's connection handling do the work.

use crate::inputs::{fleet, path_arg, trace_snapshot};
use crate::report::Report;
use crate::sequence::{distinct_requests, systems, Rng, Zipf};
use crate::serve::{
    boot_fresh, closed_loop, decode_probe, engine_from, post, read_verified, render, replay_cache,
    roundtrip_hit_us, scrape, upload_probe, Counts, Upload, CONNECTIONS, UPLOAD_SCALE, UPLOAD_SEED,
};
use crate::stats::{block_percentile, median, percentile};
use crate::Ctx;
use hpcfail_obs::json::Json;

/// Distinct keys in the hot set.
pub const HOT_KEYS: usize = 64;
/// Every `BATCH_EVERY`-th request is a `/batch`.
pub const BATCH_EVERY: usize = 16;
/// Keys per `/batch`.
pub const BATCH_SIZE: usize = 8;
/// Distinct `/batch` bodies (drawn once per run, reused by the plan).
pub const BATCHES: usize = 16;
/// Requests per second of `--seconds` in the plan.
pub const REQUESTS_PER_SECOND: f64 = 12_000.0;
/// Seed of the hot key set and its batches (fixed: see `inputs`).
pub const HOT_SET_SEED: u64 = 42;
const HOT_STREAM: u64 = 2;
const PLAN_STREAM: u64 = 3;
const BATCH_STREAM: u64 = 6;
const QUERY_PATH: &str = "/v1/traces/default/query";
const BATCH_PATH: &str = "/v1/traces/default/batch";

/// One request of the hot plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Item {
    /// `/query` of one hot key.
    Query(usize),
    /// `/batch` number `n` of [`BATCHES`].
    Batch(usize),
}

/// The key lists of the `BATCHES` batches (fixed, like the hot set).
pub fn batches() -> Vec<Vec<usize>> {
    let mut rng = Rng::new(HOT_SET_SEED, BATCH_STREAM);
    let zipf = Zipf::new(HOT_KEYS);
    (0..BATCHES)
        .map(|_| (0..BATCH_SIZE).map(|_| zipf.sample(&mut rng)).collect())
        .collect()
}

/// The hot plan for `seed`: `len` items, Zipf over the `HOT_KEYS` hot
/// keys by rank, every `BATCH_EVERY`-th a uniformly drawn batch.
pub fn plan(seed: u64, len: usize) -> Vec<Item> {
    let mut rng = Rng::new(seed, PLAN_STREAM);
    let zipf = Zipf::new(HOT_KEYS);
    (0..len)
        .map(|i| {
            if i % BATCH_EVERY == BATCH_EVERY - 1 {
                Item::Batch(rng.below(BATCHES))
            } else {
                Item::Query(zipf.sample(&mut rng))
            }
        })
        .collect()
}

/// The `/batch` body for `keys`, from the per-key `/query` bodies.
pub fn batch_body(keys: &[usize], bodies: &[String]) -> String {
    Json::obj([(
        "results",
        Json::Arr(keys.iter().map(|&k| Json::Str(bodies[k].clone())).collect()),
    )])
    .pretty()
}

/// Runs serve-hot.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let tracer = ctx.tracer();
    let spec = fleet(ctx.scale);

    // Prepare (untimed): the trace snapshot, the seeded hot set and plan.
    let snap = trace_snapshot(ctx.scale)?;
    let bytes = read_verified(&snap)?;
    let keys = distinct_requests(&systems(&spec), HOT_SET_SEED, HOT_STREAM, HOT_KEYS);
    let key_json: Vec<String> = keys.iter().map(|r| r.canonical()).collect();
    let engine = engine_from(&bytes, tracer)?;
    let expected: Vec<String> = keys.iter().map(|r| render(&engine, r, tracer)).collect();
    let len = (REQUESTS_PER_SECOND * ctx.seconds).ceil() as usize;
    let items = plan(ctx.seed, len);
    let batches = batches();
    let batch_json: Vec<String> = batches
        .iter()
        .map(|b| Json::Arr(b.iter().map(|&k| keys[k].to_json()).collect()).compact())
        .collect();
    let batch_expected: Vec<String> = batches.iter().map(|b| batch_body(b, &expected)).collect();
    let upload = Upload::load(ctx.scale * UPLOAD_SCALE, UPLOAD_SEED)?;
    drop(bytes);

    let (server, setups) = boot_fresh(ctx, &["--snapshot".to_owned(), path_arg(&snap.path)])?;
    let client = server.client();
    let mut report = Report::default();
    // Warm-up (untimed): each hot key once, each a miss.
    for (k, json) in key_json.iter().enumerate() {
        let r = post(&client, QUERY_PATH, json.as_bytes(), None, "client.warmup");
        if !r.ok() || r.cache.as_deref() != Some("miss") || r.body != expected[k] {
            report.problem(format!(
                "warm-up of hot key {k}: status {} x-cache {:?}",
                r.status, r.cache
            ));
        }
    }
    let before = scrape(&client)?;
    let (outcomes, wall) = closed_loop(CONNECTIONS, items.len(), |i| {
        let (reply, want) = match items[i] {
            Item::Query(k) => (
                post(
                    &client,
                    QUERY_PATH,
                    key_json[k].as_bytes(),
                    tracer,
                    "client.query",
                ),
                &expected[k],
            ),
            Item::Batch(b) => (
                post(
                    &client,
                    BATCH_PATH,
                    batch_json[b].as_bytes(),
                    tracer,
                    "client.batch",
                ),
                &batch_expected[b],
            ),
        };
        let hit = matches!(items[i], Item::Batch(_)) || reply.cache.as_deref() == Some("hit");
        (reply.latency_ms, reply.body == *want, hit)
    });
    let after = scrape(&client)?;
    let peak_rss = server.peak_rss_mb();
    let roundtrip = tracer.and_then(|_| roundtrip_hit_us(&client, QUERY_PATH, &key_json[0]));
    let uploads = upload_probe(&client, &upload, tracer);
    server.shutdown()?;

    let latencies: Vec<f64> = outcomes.iter().map(|(_, (l, _, _))| *l).collect();
    for (label, batch) in [("/query", false), ("/batch", true)] {
        let of_kind: Vec<f64> = outcomes
            .iter()
            .filter(|(i, _)| matches!(items[*i], Item::Batch(_)) == batch)
            .map(|(_, (l, _, _))| *l)
            .collect();
        eprintln!(
            "serve-hot: {label} n={} p50 {:.3} ms p99 {:.3} ms",
            of_kind.len(),
            median(&of_kind).unwrap_or(0.0),
            percentile(&of_kind, 0.99).unwrap_or(0.0)
        );
    }
    report.attempted = (latencies.len() + uploads.len()) as u64;
    report.failed = latencies
        .iter()
        .chain(&uploads)
        .filter(|l| l.is_infinite())
        .count() as u64;
    let wrong = outcomes
        .iter()
        .filter(|(_, (l, same, _))| l.is_finite() && !same)
        .count();
    if wrong > 0 {
        report.problem(format!(
            "{wrong} hot response bodies differ from Engine::run"
        ));
    }
    let not_hit = outcomes.iter().filter(|(_, (_, _, hit))| !hit).count();
    if not_hit > 0 {
        report.problem(format!("{not_hit} hot queries were not x-cache: hit"));
    }
    let counts = Counts::between(&before, &after);
    let lookups: usize = items
        .iter()
        .map(|i| match i {
            Item::Query(_) => 1,
            Item::Batch(_) => BATCH_SIZE,
        })
        .sum();
    if counts.miss != 0.0 || counts.coalesced != 0.0 || counts.hit != lookups as f64 {
        report.problem(format!(
            "after warm-up /v1/metrics moved by {} hits, {} misses, {} coalesced over {lookups} lookups",
            counts.hit, counts.miss, counts.coalesced
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
        if let Some(rt) = roundtrip {
            report
                .layers
                .insert("serve.roundtrip_hit_us".to_owned(), rt);
        }
        let lookups: Vec<usize> = items
            .iter()
            .flat_map(|i| match i {
                Item::Query(k) => vec![*k],
                Item::Batch(b) => batches[*b].clone(),
            })
            .collect();
        replay_cache(
            &mut report,
            t,
            engine.fingerprint(),
            &key_json,
            &expected,
            &lookups,
        );
        crate::registry_probe(&engine, &mut report.layers, t);
    }
    Ok(report)
}
