//! Pieces shared by the three serve workloads: verified inputs, fresh
//! server boots, timed HTTP calls through the repository's client,
//! closed-loop load, `/v1/metrics` scrapes and upload probes.

use crate::inputs::Cached;
use crate::proc::Server;
use crate::report::Report;
use crate::spans::{timed, Tracer};
use crate::stats::FAILED;
use crate::Ctx;
use hpcfail_core::engine::{AnalysisRequest, Engine};
use hpcfail_serve::cache::{CacheKey, ResultCache};
use hpcfail_serve::client::Client;
use hpcfail_serve::promtext::{self, Scrape};
use hpcfail_store::snapshot::decode_snapshot;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Reads a cached input and checks it against its recorded digest.
pub fn read_verified(input: &Cached) -> Result<Vec<u8>, String> {
    let bytes = std::fs::read(&input.path)
        .map_err(|e| format!("cannot read {}: {e}", input.path.display()))?;
    if crate::sha256::hex(&bytes) == input.digest {
        Ok(bytes)
    } else {
        Err(format!(
            "{} does not match its digest",
            input.path.display()
        ))
    }
}

/// Fresh servers booted per run; their median boot time is `setup_s`
/// and the last one carries the measured load.
pub const SETUP_BOOTS: usize = 3;
/// Closed-loop client connections.
pub const CONNECTIONS: usize = 2;
/// `hpcfail-serve --workers`.
pub const WORKERS: usize = 2;
/// Uploads timed by the upload probe of serve-cold and serve-hot.
pub const UPLOAD_PROBES: usize = 9;
/// Scale of uploaded fleets relative to the run's scale (a full-scale
/// snapshot exceeds the server's 64 MiB upload cap).
pub const UPLOAD_SCALE: f64 = 0.25;
/// Generation seed of the fleet the upload probes send.
pub const UPLOAD_SEED: u64 = 43;
/// Sequential requests timed for `serve.roundtrip_hit_us`.
const ROUNDTRIPS: usize = 200;

/// Decodes snapshot bytes and builds the engine the server would.
pub fn engine_from(bytes: &[u8], tracer: Option<&Tracer>) -> Result<Engine, String> {
    let trace = timed(tracer, "store.snapshot_decode", || decode_snapshot(bytes))
        .map_err(|e| format!("generated snapshot does not decode: {e}"))?;
    Ok(timed(tracer, "core.engine_new", || Engine::new(trace)))
}

/// The body the server sends for `request`, computed in-process.
pub fn render(engine: &Engine, request: &AnalysisRequest, tracer: Option<&Tracer>) -> String {
    let result = timed(tracer, &format!("core.run.{}", request.kind()), || {
        engine.run(request)
    });
    timed(tracer, "core.render", || result.to_json().pretty())
}

/// Boots one fresh server with `args` (and `--workers`); returns it and
/// its boot time in seconds.
pub fn boot(ctx: &Ctx, args: &[String]) -> Result<(Server, f64), String> {
    let mut all_args = vec!["--workers".to_owned(), WORKERS.to_string()];
    all_args.extend_from_slice(args);
    let start = Instant::now();
    let (server, took) = Server::boot(&ctx.serve_bin, &all_args)?;
    if let Some(t) = ctx.tracer() {
        t.record("client.boot", None, start, Instant::now());
    }
    Ok((server, took.as_secs_f64()))
}

/// Boots [`SETUP_BOOTS`] fresh servers one after another with `args`;
/// returns the last, still running, and every boot's time in seconds.
pub fn boot_fresh(ctx: &Ctx, args: &[String]) -> Result<(Server, Vec<f64>), String> {
    let mut setups = Vec::with_capacity(SETUP_BOOTS);
    loop {
        let (server, took) = boot(ctx, args)?;
        setups.push(took);
        if setups.len() == SETUP_BOOTS {
            return Ok((server, setups));
        }
        server.shutdown()?;
    }
}

/// One timed HTTP exchange.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Send to full body, in ms; [`FAILED`] unless the status was 200.
    pub latency_ms: f64,
    /// HTTP status; 0 when the exchange failed.
    pub status: u16,
    /// The `x-cache` header.
    pub cache: Option<String>,
    /// The body ("" when the exchange failed).
    pub body: String,
}

impl Reply {
    /// `true` on a 200.
    pub fn ok(&self) -> bool {
        self.status == 200
    }
}

/// POSTs `body` to `path` and times it from send to full body.
pub fn post(
    client: &Client,
    path: &str,
    body: &[u8],
    tracer: Option<&Tracer>,
    span: &str,
) -> Reply {
    let start = Instant::now();
    let result = client.post_bytes(path, body, &[]);
    let end = Instant::now();
    if let Some(t) = tracer {
        t.record(span, None, start, end);
    }
    match result {
        Ok(r) => Reply {
            latency_ms: if r.status == 200 {
                end.duration_since(start).as_secs_f64() * 1e3
            } else {
                FAILED
            },
            status: r.status,
            cache: r.header("x-cache").map(str::to_owned),
            body: r.body,
        },
        Err(_) => Reply {
            latency_ms: FAILED,
            status: 0,
            cache: None,
            body: String::new(),
        },
    }
}

/// Runs `n` operations over `connections` closed-loop threads: each
/// thread takes the next index as soon as its previous operation
/// completed. Returns `(index, result)` pairs in index order and the
/// wall time from the first send to the last completion.
pub fn closed_loop<T: Send>(
    connections: usize,
    n: usize,
    op: impl Fn(usize) -> T + Sync,
) -> (Vec<(usize, T)>, Duration) {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(n));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..connections {
            scope.spawn(|| {
                let mut mine = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    mine.push((i, op(i)));
                }
                done.lock().expect("result list lock").extend(mine);
            });
        }
    });
    let wall = start.elapsed();
    let mut done = done.into_inner().expect("result list lock");
    done.sort_by_key(|(i, _)| *i);
    (done, wall)
}

/// Scrapes `/v1/metrics`.
pub fn scrape(client: &Client) -> Result<Scrape, String> {
    let r = client
        .get("/v1/metrics")
        .map_err(|e| format!("GET /v1/metrics: {e}"))?;
    if r.status != 200 {
        return Err(format!("GET /v1/metrics answered {}", r.status));
    }
    promtext::parse(&r.body)
}

/// Counter movements between two scrapes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Result-cache hits.
    pub hit: f64,
    /// Result-cache misses.
    pub miss: f64,
    /// Coalesced followers.
    pub coalesced: f64,
    /// Shed requests.
    pub shed: f64,
    /// Registry rehydrations of demoted traces.
    pub cold_loads: f64,
    /// Registry demotions to snapshot bytes.
    pub evictions: f64,
}

impl Counts {
    /// The field-wise sum of two movements.
    pub fn plus(self, o: Counts) -> Counts {
        Counts {
            hit: self.hit + o.hit,
            miss: self.miss + o.miss,
            coalesced: self.coalesced + o.coalesced,
            shed: self.shed + o.shed,
            cold_loads: self.cold_loads + o.cold_loads,
            evictions: self.evictions + o.evictions,
        }
    }

    /// `after - before` for every counter.
    pub fn between(before: &Scrape, after: &Scrape) -> Counts {
        let delta = |name: &str, labels: &[(&str, &str)]| {
            after.value(name, labels).unwrap_or(0.0) - before.value(name, labels).unwrap_or(0.0)
        };
        Counts {
            hit: delta("serve_cache_requests_total", &[("result", "hit")]),
            miss: delta("serve_cache_requests_total", &[("result", "miss")]),
            coalesced: delta("serve_cache_requests_total", &[("result", "coalesced")]),
            shed: delta("serve_shed_total_total", &[]),
            cold_loads: delta("serve_registry_cold_loads_total", &[]),
            evictions: delta("serve_registry_evictions_total", &[]),
        }
    }

    /// Records the serve-layer counters as per-layer metrics.
    pub fn record(&self, layers: &mut std::collections::BTreeMap<String, f64>) {
        let lookups = self.hit + self.miss + self.coalesced;
        let rate = if lookups > 0.0 {
            self.hit / lookups
        } else {
            0.0
        };
        layers.insert("serve.hit_rate".to_owned(), rate);
        layers.insert("serve.coalesced".to_owned(), self.coalesced);
        layers.insert("serve.shed".to_owned(), self.shed);
        layers.insert("serve.registry.cold_loads".to_owned(), self.cold_loads);
        layers.insert("serve.registry.evictions".to_owned(), self.evictions);
    }
}

/// Median round trip, in µs, of `ROUNDTRIPS` sequential queries for a
/// key the server has cached.
pub fn roundtrip_hit_us(client: &Client, path: &str, body: &str) -> Option<f64> {
    let samples: Vec<f64> = (0..ROUNDTRIPS)
        .map(|_| {
            let start = Instant::now();
            match client.post(path, body, &[]) {
                Ok(r) if r.status == 200 && r.header("x-cache") == Some("hit") => {
                    start.elapsed().as_secs_f64() * 1e6
                }
                _ => FAILED,
            }
        })
        .collect();
    crate::stats::median(&samples)
}

/// A smaller fleet uploaded under one name, with the fingerprint the
/// server must report for it.
pub struct Upload {
    /// `.hpcsnap` bytes.
    pub bytes: Vec<u8>,
    /// `Engine::fingerprint_hex` of the decoded bytes.
    pub fingerprint: String,
}

impl Upload {
    /// The cached snapshot of the fleet at `scale` generated with `seed`.
    pub fn load(scale: f64, seed: u64) -> Result<Upload, String> {
        let bytes = read_verified(&crate::inputs::fleet_snapshot(scale, seed)?)?;
        let trace = decode_snapshot(&bytes).map_err(|e| format!("upload fleet: {e}"))?;
        let fingerprint = Engine::new(trace).fingerprint_hex();
        Ok(Upload { bytes, fingerprint })
    }

    /// POSTs the bytes to `/v1/traces/{name}`; the reply's latency is
    /// [`FAILED`] unless the server answered 200 with this fleet's
    /// fingerprint.
    pub fn send(&self, client: &Client, name: &str, tracer: Option<&Tracer>) -> Reply {
        let mut reply = post(
            client,
            &format!("/v1/traces/{name}"),
            &self.bytes,
            tracer,
            "client.upload",
        );
        let reported = hpcfail_obs::json::parse(&reply.body).ok().and_then(|j| {
            j.get("trace")?
                .get("fingerprint")?
                .as_str()
                .map(str::to_owned)
        });
        if reply.ok() && reported.as_deref() != Some(self.fingerprint.as_str()) {
            reply.latency_ms = FAILED;
            reply.status = 0;
        }
        reply
    }
}

/// The upload probe of serve-cold and serve-hot: [`UPLOAD_PROBES`]
/// uploads of one smaller fleet under a fresh name. Returns the
/// latencies in ms.
pub fn upload_probe(client: &Client, upload: &Upload, tracer: Option<&Tracer>) -> Vec<f64> {
    (0..UPLOAD_PROBES)
        .map(|_| upload.send(client, "probe", tracer).latency_ms)
        .collect()
}

/// Times decoding `bytes` in-process, for the upload-minus-decode split.
pub fn decode_probe(bytes: &[u8], tracer: Option<&Tracer>) {
    for _ in 0..UPLOAD_PROBES {
        let _ = timed(tracer, "store.snapshot_decode.upload", || {
            std::hint::black_box(decode_snapshot(bytes))
        });
    }
}

/// Replays a workload's result-cache traffic in-process through a
/// [`ResultCache`]: one put per key, then one get per lookup (indices
/// into the keys). Records `serve.cache.put_us` and `serve.cache.get_us`
/// (mean per call) and a span around each loop.
pub fn replay_cache(
    report: &mut Report,
    tracer: &Tracer,
    fingerprint: u64,
    key_json: &[String],
    bodies: &[String],
    lookups: &[usize],
) {
    let cache = ResultCache::new(key_json.len());
    let keys: Vec<CacheKey> = key_json
        .iter()
        .map(|j| ("default".to_owned(), fingerprint, j.clone()))
        .collect();
    let put_start = Instant::now();
    for (key, body) in keys.iter().zip(bodies) {
        cache.put(key.clone(), Arc::new(body.clone()));
    }
    let put_end = Instant::now();
    tracer.record("serve.cache.put", None, put_start, put_end);
    let get_start = Instant::now();
    let missed = lookups
        .iter()
        .filter(|&&k| std::hint::black_box(cache.get(&keys[k])).is_none())
        .count();
    let get_end = Instant::now();
    tracer.record("serve.cache.get", None, get_start, get_end);
    if missed > 0 {
        report.problem(format!("{missed} in-process cache lookups missed"));
    }
    let mean_us = |d: Duration, calls: usize| d.as_secs_f64() * 1e6 / calls.max(1) as f64;
    report.layers.insert(
        "serve.cache.put_us".to_owned(),
        mean_us(put_end - put_start, keys.len()),
    );
    report.layers.insert(
        "serve.cache.get_us".to_owned(),
        mean_us(get_end - get_start, lookups.len()),
    );
}
