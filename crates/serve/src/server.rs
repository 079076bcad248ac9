//! The query server: a fixed pool of worker threads sharing one
//! listener, one trace registry, one result cache and one coalescer.
//!
//! ## Endpoints
//!
//! The full table lives in [`routes`]; the versioned surface is:
//!
//! | method & path | answer |
//! |---|---|
//! | `GET /v1/healthz` | liveness + registry + SLO standings |
//! | `GET /v1/metrics` | Prometheus text exposition of the live registry |
//! | `GET /v1/requests` | the request taxonomy (`REQUEST_KINDS`) |
//! | `GET /v1/traces` | every registered trace's summary row |
//! | `POST /v1/traces/{name}` | upload CSV or `.hpcsnap` into a slot |
//! | `GET /v1/traces/{name}` | one trace's summary |
//! | `DELETE /v1/traces/{name}` | evict a trace |
//! | `POST /v1/traces/{name}/query` | one [`AnalysisRequest`] → its result |
//! | `POST /v1/traces/{name}/batch` | a JSON array of requests → results |
//! | `POST /v1/shutdown` | acknowledges, then stops the server |
//!
//! A query response body is **exactly**
//! `engine.run(&request).to_json().pretty()` — byte-identical to an
//! in-process call against that trace's pinned epoch — with the
//! serving metadata (`x-cache`, `x-degraded`, `x-trace-id`) in headers
//! so it can never perturb the payload. Re-uploading a name mid-query
//! is safe: the query finishes against the epoch it resolved.
//!
//! ## Request-scoped observability
//!
//! Every request runs under a trace (`hpcfail_obs::start_trace`): the
//! trace id is echoed in the `x-trace-id` response header and, when
//! configured, in the JSONL access log. Sending `x-trace: 1` opts the
//! response into a wrapped body `{"result": <exact body as a JSON
//! string>, "trace": <span tree>, "trace_id": ...}` — the original
//! bytes survive verbatim inside the `result` string (the same idiom
//! `/batch` uses). Per request the server also records per-kind
//! lifetime histograms, sliding-window histograms and [`SloTracker`]
//! windows, all of which `GET /metrics` exports.
//!
//! ## Deadlines
//!
//! Clients may send `x-deadline-ms`. A query that coalesces onto
//! another client's identical in-flight query waits at most that long
//! (default [`ServerConfig::default_deadline_ms`]) before answering
//! `504` with a typed, `degraded: true` error body instead of holding
//! a worker hostage.

use crate::accesslog::{AccessEntry, AccessLog, DEFAULT_MAX_BYTES};
use crate::admission::{AdmissionConfig, AdmissionGate, CostClass, ShedReason};
use crate::cache::{CacheKey, ResultCache};
use crate::chaos::{ChaosAction, ChaosConfig, ChaosEngine, ChaosPoint};
use crate::coalesce::{Claim, Coalescer};
use crate::http::{self, Request};
use crate::metrics;
use crate::registry::{
    self, ResolvedTrace, TraceRegistry, TraceSource, TraceSummary, DEFAULT_TRACE,
};
use crate::routes::{self, Endpoint, Routed};
use crate::slo::{SloPolicy, SloTracker};
use hpcfail_core::engine::{AnalysisRequest, Engine, REQUEST_KINDS};
use hpcfail_obs::json::Json;
use hpcfail_obs::TraceRecording;
use hpcfail_store::ingest::IngestPolicy;
use hpcfail_store::lanl::{assemble_trace, read_lanl_failures_with, LanlImportOptions};
use hpcfail_store::snapshot::{decode_snapshot, SNAPSHOT_MAGIC};
use hpcfail_store::trace::Trace;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:0` (0 picks a free port).
    pub addr: String,
    /// Worker threads accepting and answering connections.
    pub workers: usize,
    /// Result-cache capacity in entries; 0 disables caching.
    pub cache_capacity: usize,
    /// Socket read timeout; an idle keep-alive connection is dropped
    /// after this long.
    pub read_timeout: Duration,
    /// Deadline applied when the client sends no `x-deadline-ms`.
    pub default_deadline_ms: u64,
    /// Registry warm-residency budget in bytes; 0 = unlimited. Over
    /// budget, least-recently-queried traces demote to cold snapshots.
    pub max_resident_bytes: u64,
    /// Write a JSONL access log here (size-capped, one `.1` rotation).
    pub access_log: Option<PathBuf>,
    /// Rotation threshold for the access log, bytes.
    pub access_log_max_bytes: u64,
    /// The SLO budgets `/healthz` and `/metrics` evaluate against.
    pub slo: SloPolicy,
    /// The admission gate in front of analysis and upload endpoints
    /// (`/healthz`, `/metrics`, `/requests` and `/shutdown` never pass
    /// through it). The default gate is disabled (`max_inflight: 0`).
    pub admission: AdmissionConfig,
    /// Fault injection: a seeded chaos spec (`--chaos spec.json`)
    /// deciding which arrivals fault at which points.
    pub chaos: Option<ChaosConfig>,
    /// Fault injection: panic in the handler for `/query` requests of
    /// this analysis kind, to exercise the catch-unwind → 500 path (the
    /// engine itself never panics on well-formed requests). The panic
    /// is raised at the end of the leader's engine run, so identical
    /// queries coalesced onto it see the failure hand-off, and then
    /// unwinds through the handler.
    pub inject_panic_kind: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            cache_capacity: 1024,
            read_timeout: Duration::from_secs(30),
            default_deadline_ms: 10_000,
            max_resident_bytes: 0,
            access_log: None,
            access_log_max_bytes: DEFAULT_MAX_BYTES,
            slo: SloPolicy::default(),
            admission: AdmissionConfig::default(),
            chaos: None,
            inject_panic_kind: None,
        }
    }
}

struct Shared {
    registry: Arc<TraceRegistry>,
    cache: ResultCache,
    coalescer: Coalescer,
    shutdown: AtomicBool,
    inflight: AtomicU64,
    default_deadline_ms: u64,
    slo: SloTracker,
    gate: AdmissionGate,
    chaos: Option<ChaosEngine>,
    access_log: Option<AccessLog>,
    inject_panic_kind: Option<String>,
}

/// A running server. Dropping the handle does **not** stop it; call
/// [`ServerHandle::shutdown`].
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the real port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The trace registry the server answers from.
    pub fn registry(&self) -> &Arc<TraceRegistry> {
        &self.shared.registry
    }

    /// The `default` trace's current engine, when one is registered.
    pub fn engine(&self) -> Option<Arc<Engine>> {
        self.shared
            .registry
            .resolve(DEFAULT_TRACE)
            .map(|resolved| resolved.engine)
    }

    /// Requests currently being handled (the live `serve_inflight`
    /// gauge).
    pub fn inflight(&self) -> u64 {
        self.shared.inflight.load(Ordering::SeqCst)
    }

    /// `true` once shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// The admission gate (live occupancy and shed counts).
    pub fn admission(&self) -> &AdmissionGate {
        &self.shared.gate
    }

    /// Stops accepting, unblocks the workers and joins them. Queued
    /// admissions shed with a typed `503 draining`; admitted requests
    /// (in-progress uploads included) finish first.
    pub fn shutdown(mut self) {
        self.shared.gate.begin_drain();
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Each worker blocks in accept(); poke one connection per
        // worker so every accept call returns and observes the flag.
        for _ in 0..self.workers.len() {
            let _ = TcpStream::connect(self.addr);
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Binds `config.addr` and spawns the worker pool with `engine`
/// registered as the `default` trace.
///
/// # Errors
///
/// I/O errors binding the listener or opening the access log.
pub fn spawn(engine: Engine, config: ServerConfig) -> io::Result<ServerHandle> {
    let registry = TraceRegistry::new(config.max_resident_bytes);
    registry.insert_engine(DEFAULT_TRACE, Arc::new(engine), TraceSource::Boot);
    spawn_with_registry(registry, config)
}

/// Binds `config.addr` and spawns the worker pool over an existing
/// registry — empty (`--empty`: every trace arrives by upload) or
/// pre-seeded with any number of named traces.
///
/// # Errors
///
/// I/O errors binding the listener or opening the access log.
pub fn spawn_with_registry(
    registry: TraceRegistry,
    config: ServerConfig,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let access_log = match &config.access_log {
        Some(path) => Some(AccessLog::open(path, config.access_log_max_bytes)?),
        None => None,
    };
    let shared = Arc::new(Shared {
        registry: Arc::new(registry),
        cache: ResultCache::new(config.cache_capacity),
        coalescer: Coalescer::new(),
        shutdown: AtomicBool::new(false),
        inflight: AtomicU64::new(0),
        default_deadline_ms: config.default_deadline_ms,
        slo: SloTracker::new(config.slo),
        gate: AdmissionGate::new(config.admission),
        chaos: config.chaos.clone().map(ChaosEngine::new),
        access_log,
        inject_panic_kind: config.inject_panic_kind.clone(),
    });
    let listener = Arc::new(listener);
    let workers = (0..config.workers.max(1))
        .map(|i| {
            let listener = Arc::clone(&listener);
            let shared = Arc::clone(&shared);
            let read_timeout = config.read_timeout;
            std::thread::Builder::new()
                .name(format!("hpcfail-serve-{i}"))
                .spawn(move || worker_loop(&listener, &shared, read_timeout))
                .expect("spawn worker thread")
        })
        .collect();
    Ok(ServerHandle {
        addr,
        shared,
        workers,
    })
}

fn worker_loop(listener: &TcpListener, shared: &Shared, read_timeout: Duration) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => continue,
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if let Some(chaos) = &shared.chaos {
            match chaos.decide(ChaosPoint::Accept) {
                Some(ChaosAction::Delay(delay)) => std::thread::sleep(delay),
                Some(ChaosAction::Drop) => {
                    drop(stream); // connection dies before any byte is read
                    continue;
                }
                _ => {}
            }
        }
        let _ = stream.set_read_timeout(Some(read_timeout));
        let _ = stream.set_nodelay(true);
        serve_connection(stream, shared);
    }
}

fn serve_connection(stream: TcpStream, shared: &Shared) {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        // Only trace uploads get the enlarged body limit; everything
        // else keeps the original cap with its immediate typed 413.
        let limit = |method: &str, path: &str| match routes::resolve(method, path) {
            Routed::Matched(m) if m.endpoint == Endpoint::TraceUpload => http::MAX_UPLOAD_BODY,
            _ => http::MAX_BODY,
        };
        let request = match http::read_request_with_limit(&mut reader, limit) {
            Ok(Some(request)) => request,
            Ok(None) => return,
            Err(err) => {
                if let Some((status, reason)) = err.status() {
                    // Even unparseable traffic gets a trace id and
                    // exactly one access-log line.
                    let trace_hex = format!("{:016x}", hpcfail_obs::trace::next_trace_id());
                    let body = error_body(status, &err.message(), false);
                    let _ = http::write_response(
                        &mut writer,
                        status,
                        reason,
                        &[("x-trace-id", &trace_hex)],
                        &body,
                        true,
                    );
                    if let Some(log) = &shared.access_log {
                        log.log(&AccessEntry {
                            trace_id: trace_hex,
                            method: "-".to_owned(),
                            path: "-".to_owned(),
                            kind: "http-error".to_owned(),
                            status,
                            latency_us: 0,
                            cache: "-".to_owned(),
                            deadline_ms: shared.default_deadline_ms,
                            bytes_out: body.len() as u64,
                            shed: "-".to_owned(),
                        });
                    }
                }
                return;
            }
        };
        let close = request.wants_close() || shared.shutdown.load(Ordering::SeqCst);
        match respond(&request, shared, &mut writer, close) {
            Ok(true) if !close => continue,
            _ => return,
        }
    }
}

/// Decrements the in-flight count (and gauge) however the handler
/// exits.
struct InflightGuard<'a> {
    shared: &'a Shared,
}

impl<'a> InflightGuard<'a> {
    fn enter(shared: &'a Shared) -> InflightGuard<'a> {
        shared.inflight.fetch_add(1, Ordering::SeqCst);
        hpcfail_obs::gauge("serve.inflight").set(shared.inflight.load(Ordering::SeqCst) as f64);
        InflightGuard { shared }
    }
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.shared.inflight.fetch_sub(1, Ordering::SeqCst);
        hpcfail_obs::gauge("serve.inflight")
            .set(self.shared.inflight.load(Ordering::SeqCst) as f64);
    }
}

/// One routed answer, before the central writer adds tracing headers,
/// telemetry and the optional `x-trace` body wrap.
struct Reply {
    status: u16,
    reason: &'static str,
    /// Endpoint-specific headers (e.g. `x-degraded`, `content-type`).
    headers: Vec<(&'static str, String)>,
    body: String,
    /// The kind label for metrics, SLO windows and the access log.
    kind: String,
    /// Cache outcome, when caching applied.
    cache: Option<&'static str>,
    /// The shed reason label, when admission rejected the request.
    shed: Option<&'static str>,
    /// Close the connection after this reply (shutdown).
    force_close: bool,
}

impl Reply {
    fn ok(body: String, kind: &str) -> Reply {
        Reply {
            status: 200,
            reason: "OK",
            headers: Vec::new(),
            body,
            kind: kind.to_owned(),
            cache: None,
            shed: None,
            force_close: false,
        }
    }

    fn error(
        status: u16,
        reason: &'static str,
        message: &str,
        degraded: bool,
        kind: &str,
    ) -> Reply {
        Reply {
            status,
            reason,
            headers: Vec::new(),
            body: error_body(status, message, degraded),
            kind: kind.to_owned(),
            cache: None,
            shed: None,
            force_close: false,
        }
    }

    /// The typed shed answer: status from the reason, `retry-after`
    /// (whole seconds, at least 1) + `x-retry-after-ms` (exact) +
    /// `x-shed` headers, and the shed label in the access log.
    fn shed(reason: ShedReason, retry_after_ms: u64, kind: &str) -> Reply {
        let (status, phrase) = reason.status();
        let mut reply = Reply::error(status, phrase, reason.message(), false, kind);
        reply.headers.push((
            "retry-after",
            retry_after_ms.div_ceil(1_000).max(1).to_string(),
        ));
        reply
            .headers
            .push(("x-retry-after-ms", retry_after_ms.to_string()));
        reply.headers.push(("x-shed", reason.label().to_owned()));
        reply.shed = Some(reason.label());
        reply
    }
}

/// Handles one parsed request end to end: trace, route (panic-safe),
/// telemetry, response write, access log. Returns `Ok(keep_alive)`.
fn respond(
    request: &Request,
    shared: &Shared,
    writer: &mut impl Write,
    close: bool,
) -> io::Result<bool> {
    let started = Instant::now();
    hpcfail_obs::counter("serve.requests").inc();
    let trace = hpcfail_obs::start_trace("serve.request");
    trace.attr("method", &request.method);
    trace.attr("path", &request.path);
    let trace_hex = trace.trace_id_hex();

    let routed = routes::resolve(&request.method, &request.path);
    let analysis = matches!(&routed, Routed::Matched(m) if m.endpoint.is_analysis());

    let inflight = InflightGuard::enter(shared);
    let reply =
        catch_unwind(AssertUnwindSafe(|| route(request, &routed, shared))).unwrap_or_else(|_| {
            Reply::error(
                500,
                "Internal Server Error",
                "handler panicked; see server logs",
                false,
                "panic",
            )
        });
    drop(inflight);

    trace.attr("kind", &reply.kind);
    trace.attr("status", &reply.status.to_string());
    if let Some(cache) = reply.cache {
        trace.attr("cache", cache);
    }
    let recording = trace.finish();
    let latency_ns = started.elapsed().as_nanos() as u64;
    record_telemetry(shared, &reply.kind, reply.status, latency_ns);

    let Reply {
        status,
        reason,
        headers: reply_headers,
        body: raw_body,
        kind,
        cache,
        shed,
        force_close,
    } = reply;

    // `x-trace: 1` wraps the body with the span tree; the exact
    // original bytes survive as the `result` string. Endpoints that
    // answer non-JSON (only /metrics) are never wrapped.
    let custom_content_type = reply_headers
        .iter()
        .any(|(n, _)| n.eq_ignore_ascii_case("content-type"));
    let traced = !custom_content_type
        && request
            .header("x-trace")
            .is_some_and(|v| v == "1" || v.eq_ignore_ascii_case("true"));
    let body = if traced {
        wrap_traced(raw_body, &trace_hex, recording.as_ref())
    } else {
        raw_body
    };

    let mut headers: Vec<(&str, &str)> = vec![("x-trace-id", &trace_hex)];
    if let Some(cache) = cache {
        headers.push(("x-cache", cache));
    }
    for (name, value) in &reply_headers {
        headers.push((name, value));
    }
    let mut close = close || force_close;

    // The respond chaos point applies only to analysis traffic —
    // injecting into /healthz or /metrics would blind the observer.
    let mut dropped = false;
    if analysis {
        if let Some(chaos) = &shared.chaos {
            match chaos.decide(ChaosPoint::Respond) {
                Some(ChaosAction::Delay(delay)) => std::thread::sleep(delay),
                Some(ChaosAction::Drop) => {
                    // Deliberately untyped: the bytes never go out, but
                    // the request still gets its one access-log line.
                    dropped = true;
                    close = true;
                }
                _ => {}
            }
        }
    }
    let result = if dropped {
        Ok(())
    } else {
        http::write_response(writer, status, reason, &headers, &body, close)
    };

    if let Some(log) = &shared.access_log {
        log.log(&AccessEntry {
            trace_id: trace_hex,
            method: request.method.clone(),
            path: request.path.clone(),
            kind,
            status,
            latency_us: latency_ns / 1_000,
            cache: cache.unwrap_or("-").to_owned(),
            deadline_ms: deadline_ms(request, shared),
            bytes_out: if dropped { 0 } else { body.len() as u64 },
            shed: shed.unwrap_or("-").to_owned(),
        });
    }
    result.map(|()| !close)
}

fn wrap_traced(body: String, trace_hex: &str, recording: Option<&TraceRecording>) -> String {
    let mut fields = vec![
        ("result", Json::Str(body)),
        ("trace_id", Json::Str(trace_hex.to_owned())),
    ];
    if let Some(recording) = recording {
        fields.push(("trace", recording.to_json()));
    }
    Json::obj(fields).pretty()
}

fn record_telemetry(shared: &Shared, kind: &str, status: u16, latency_ns: u64) {
    hpcfail_obs::counter(&format!("serve.status.{status}")).inc();
    hpcfail_obs::counter(&format!("serve.kind.{kind}.requests")).inc();
    hpcfail_obs::histogram(&format!("serve.latency_ns.{kind}")).record(latency_ns);
    hpcfail_obs::window(&format!("serve.window.latency_ns.{kind}")).record(latency_ns);
    shared.slo.record(kind, latency_ns, status >= 500);
}

/// Dispatches one resolved route to its endpoint handler.
fn route(request: &Request, routed: &Routed, shared: &Shared) -> Reply {
    let matched = match routed {
        Routed::Matched(matched) => matched,
        Routed::MethodNotAllowed(allowed) => {
            let mut reply = Reply::error(
                405,
                "Method Not Allowed",
                &format!(
                    "method not allowed for this path (allow: {})",
                    allowed.join(", ")
                ),
                false,
                "other",
            );
            reply.headers.push(("allow", allowed.join(", ")));
            return reply;
        }
        Routed::NotFound => {
            return Reply::error(404, "Not Found", routes::KNOWN_PATHS_HINT, false, "other")
        }
    };
    let trace_name = matched.trace.as_deref().unwrap_or(DEFAULT_TRACE);
    match matched.endpoint {
        Endpoint::Healthz => handle_healthz(shared),
        Endpoint::Metrics => {
            let body = metrics::render(
                &hpcfail_obs::snapshot(),
                &shared.slo.report(),
                shared.inflight.load(Ordering::SeqCst),
            );
            let mut reply = Reply::ok(body, "metrics");
            reply.headers.push((
                "content-type",
                "text/plain; version=0.0.4; charset=utf-8".to_owned(),
            ));
            reply
        }
        Endpoint::Requests => {
            let kinds = REQUEST_KINDS
                .iter()
                .map(|k| Json::Str((*k).to_owned()))
                .collect();
            Reply::ok(
                Json::obj([("kinds", Json::Arr(kinds))]).pretty(),
                "requests",
            )
        }
        Endpoint::Shutdown => {
            shared.gate.begin_drain();
            shared.shutdown.store(true, Ordering::SeqCst);
            let body = Json::obj([("status", Json::Str("shutting down".to_owned()))]).pretty();
            let mut reply = Reply::ok(body, "shutdown");
            reply.force_close = true;
            reply
        }
        Endpoint::Query => handle_query(request, trace_name, shared),
        Endpoint::Batch => handle_batch(request, trace_name, shared),
        Endpoint::TraceList => {
            let rows = shared
                .registry
                .list()
                .iter()
                .map(TraceSummary::to_json)
                .collect();
            let body = Json::obj([
                ("traces", Json::Arr(rows)),
                (
                    "resident_bytes",
                    Json::Num(shared.registry.resident_bytes() as f64),
                ),
                (
                    "max_resident_bytes",
                    Json::Num(shared.registry.max_resident_bytes() as f64),
                ),
            ])
            .pretty();
            Reply::ok(body, "traces")
        }
        Endpoint::TraceUpload => handle_upload(request, trace_name, shared),
        Endpoint::TraceShow => match shared.registry.summary(trace_name) {
            Some(summary) => {
                Reply::ok(Json::obj([("trace", summary.to_json())]).pretty(), "traces")
            }
            None => Reply::error(
                404,
                "Not Found",
                &format!("no trace named {trace_name:?} is registered"),
                false,
                "traces",
            ),
        },
        Endpoint::TraceDelete => match shared.registry.remove(trace_name) {
            Some(summary) => Reply::ok(
                Json::obj([("evicted", summary.to_json())]).pretty(),
                "traces",
            ),
            None => Reply::error(
                404,
                "Not Found",
                &format!("no trace named {trace_name:?} is registered"),
                false,
                "traces",
            ),
        },
    }
}

fn handle_healthz(shared: &Shared) -> Reply {
    let slo = shared.slo.report();
    let mut fields = vec![(
        "status",
        Json::Str(if slo.healthy { "ok" } else { "degraded" }.to_owned()),
    )];
    // The default trace's identity stays at the top level so existing
    // health checks keep working across the registry migration.
    if let Some(default) = shared.registry.summary(DEFAULT_TRACE) {
        fields.push((
            "fingerprint",
            Json::Str(format!("{:016x}", default.fingerprint)),
        ));
        fields.push(("systems", Json::Num(default.systems as f64)));
    }
    fields.push(("traces", Json::Num(shared.registry.len() as f64)));
    fields.push((
        "resident_bytes",
        Json::Num(shared.registry.resident_bytes() as f64),
    ));
    fields.push(("slo", slo.to_json()));
    fields.push(("admission", shared.gate.to_json()));
    Reply::ok(Json::obj(fields).pretty(), "healthz")
}

/// Parses and registers one uploaded trace body. Uploads are admitted
/// as [`CostClass::Expensive`] work *before* the heavy parse: a
/// draining server sheds them with a typed 503 instead of accepting
/// data it will never serve, and an admitted upload holds its permit so
/// shutdown waits for it to land (or cancel) cleanly.
fn handle_upload(request: &Request, name: &str, shared: &Shared) -> Reply {
    if !registry::valid_name(name) {
        return Reply::error(
            400,
            "Bad Request",
            "invalid trace name: want 1-64 ASCII alphanumeric, '_', '-' or '.' characters, \
             not starting with a dot",
            false,
            "upload",
        );
    }
    let deadline = Instant::now() + Duration::from_millis(deadline_ms(request, shared));
    if let Some(reply) = chaos_admission(shared, CostClass::Expensive, "upload") {
        return reply;
    }
    let _permit = match shared.gate.admit(CostClass::Expensive, deadline) {
        Ok(permit) => permit,
        Err(reason) => return Reply::shed(reason, shared.gate.config().retry_after_ms, "upload"),
    };
    if let Some(reply) = chaos_engine_point(shared, "upload") {
        return reply;
    }
    if request.body.is_empty() {
        return Reply::error(
            400,
            "Bad Request",
            "empty upload body (expected LANL-style CSV or a .hpcsnap snapshot)",
            false,
            "upload",
        );
    }
    let (trace, source, ingest) = if request.body.starts_with(SNAPSHOT_MAGIC) {
        match decode_snapshot(&request.body) {
            Ok(trace) => (trace, TraceSource::Snapshot, None),
            Err(err) => {
                return Reply::error(
                    400,
                    "Bad Request",
                    &format!("malformed snapshot: {err}"),
                    false,
                    "upload",
                )
            }
        }
    } else {
        match parse_csv_upload(request, name) {
            Ok((trace, ingest)) => (trace, TraceSource::Csv, Some(ingest)),
            Err(reply) => return *reply,
        }
    };
    let summary = shared.registry.insert(name, trace, source);
    let mut fields = vec![("trace", summary.to_json())];
    if let Some(ingest) = ingest {
        fields.push(("ingest", ingest));
    }
    Reply::ok(Json::obj(fields).pretty(), "upload")
}

/// Runs a CSV upload body through the quarantine/audit ingest
/// machinery under the client's `x-ingest-policy` (default `lenient`).
fn parse_csv_upload(request: &Request, name: &str) -> Result<(Trace, Json), Box<Reply>> {
    let policy = match request.header("x-ingest-policy") {
        Some(raw) => raw.parse::<IngestPolicy>().map_err(|message| {
            Box::new(Reply::error(400, "Bad Request", &message, false, "upload"))
        })?,
        None => IngestPolicy::Lenient,
    };
    let file = format!("upload:{name}");
    let read = read_lanl_failures_with(
        request.body.as_slice(),
        &file,
        LanlImportOptions::default(),
        policy,
    )
    .map_err(|err| {
        Box::new(Reply::error(
            400,
            "Bad Request",
            &format!("CSV rejected: {err}"),
            false,
            "upload",
        ))
    })?;
    if read.records.is_empty() {
        return Err(Box::new(Reply::error(
            400,
            "Bad Request",
            &format!(
                "no usable rows ({} quarantined); nothing to register",
                read.quarantined.len()
            ),
            false,
            "upload",
        )));
    }
    let ingest = Json::obj([
        ("rows_ok", Json::Num(read.records.len() as f64)),
        ("quarantined", Json::Num(read.quarantined.len() as f64)),
        ("defaulted_fields", Json::Num(read.defaulted_fields as f64)),
        ("duplicates", Json::Num(read.duplicates as f64)),
        ("policy", Json::Str(policy_label(policy).to_owned())),
    ]);
    Ok((assemble_trace(read.records, &[]), ingest))
}

fn policy_label(policy: IngestPolicy) -> &'static str {
    match policy {
        IngestPolicy::Strict => "strict",
        IngestPolicy::Lenient => "lenient",
        IngestPolicy::BestEffort => "best-effort",
    }
}

fn handle_query(request: &Request, trace_name: &str, shared: &Shared) -> Reply {
    let text = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => {
            return Reply::error(
                400,
                "Bad Request",
                "request body is not UTF-8",
                false,
                "query",
            )
        }
    };
    let parsed = match AnalysisRequest::parse(text) {
        Ok(parsed) => parsed,
        Err(err) => {
            return Reply::error(400, "Bad Request", &err.to_string(), false, "query");
        }
    };
    let kind = parsed.kind();
    let inject_panic = shared.inject_panic_kind.as_deref() == Some(kind);
    // Resolving pins this request to the name's current epoch: the
    // engine Arc stays alive through the whole answer even if an
    // upload swaps or an eviction demotes the slot mid-flight.
    let Some(resolved) = shared.registry.resolve(trace_name) else {
        return Reply::error(
            404,
            "Not Found",
            &format!("no trace named {trace_name:?} is registered"),
            false,
            kind,
        );
    };
    hpcfail_obs::counter(&format!("serve.trace.{trace_name}.requests")).inc();
    let deadline = Instant::now() + Duration::from_millis(deadline_ms(request, shared));

    // A warm cache entry makes the request cheap: admission peeks at
    // the cache (bumping recency is fine — the hit is about to serve).
    let key: CacheKey = (
        trace_name.to_owned(),
        resolved.fingerprint,
        parsed.canonical(),
    );
    let class = if shared.cache.get(&key).is_some() {
        CostClass::Cheap
    } else {
        CostClass::Expensive
    };
    if let Some(reply) = chaos_admission(shared, class, kind) {
        return reply;
    }
    let _permit = match shared.gate.admit(class, deadline) {
        Ok(permit) => permit,
        Err(reason) => return Reply::shed(reason, shared.gate.config().retry_after_ms, kind),
    };
    if let Some(reply) = chaos_engine_point(shared, kind) {
        return reply;
    }
    match answer(
        &parsed,
        trace_name,
        &resolved,
        shared,
        deadline,
        inject_panic,
    ) {
        Answer::Fresh(body) => {
            hpcfail_obs::counter("serve.cache.miss").inc();
            let mut reply = Reply::ok((*body).clone(), kind);
            reply.cache = Some("miss");
            reply
        }
        Answer::Cached(body) => {
            hpcfail_obs::counter("serve.cache.hit").inc();
            let mut reply = Reply::ok((*body).clone(), kind);
            reply.cache = Some("hit");
            reply
        }
        Answer::Coalesced(body) => {
            hpcfail_obs::counter("serve.coalesced").inc();
            let mut reply = Reply::ok((*body).clone(), kind);
            reply.cache = Some("coalesced");
            reply
        }
        Answer::Degraded => {
            hpcfail_obs::counter("serve.degraded").inc();
            let mut reply = Reply::error(
                504,
                "Gateway Timeout",
                "deadline passed while awaiting an identical in-flight query",
                true,
                kind,
            );
            reply.headers.push(("x-degraded", "true".to_owned()));
            reply
        }
        Answer::Failed(message) => {
            Reply::error(500, "Internal Server Error", &message, false, kind)
        }
    }
}

fn handle_batch(request: &Request, trace_name: &str, shared: &Shared) -> Reply {
    let text = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => {
            return Reply::error(
                400,
                "Bad Request",
                "request body is not UTF-8",
                false,
                "batch",
            )
        }
    };
    let json = match hpcfail_obs::json::parse(text) {
        Ok(json) => json,
        Err(err) => {
            return Reply::error(
                400,
                "Bad Request",
                &format!("malformed JSON: {err}"),
                false,
                "batch",
            );
        }
    };
    let Some(items) = json.as_arr() else {
        return Reply::error(
            400,
            "Bad Request",
            "batch body must be a JSON array of requests",
            false,
            "batch",
        );
    };
    let mut parsed = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        match AnalysisRequest::from_json(item) {
            Ok(request) => parsed.push(request),
            Err(err) => {
                return Reply::error(
                    400,
                    "Bad Request",
                    &format!("batch item {i}: {err}"),
                    false,
                    "batch",
                );
            }
        }
    }
    // One resolution pins the whole batch to one epoch: every element
    // answers against the same snapshot of the data, even if an upload
    // swaps the name between items.
    let Some(resolved) = shared.registry.resolve(trace_name) else {
        return Reply::error(
            404,
            "Not Found",
            &format!("no trace named {trace_name:?} is registered"),
            false,
            "batch",
        );
    };
    hpcfail_obs::counter(&format!("serve.trace.{trace_name}.requests")).inc();
    let deadline = Instant::now() + Duration::from_millis(deadline_ms(request, shared));
    if let Some(reply) = chaos_admission(shared, CostClass::Batch, "batch") {
        return reply;
    }
    // One admission covers the whole batch: it is one unit of work for
    // brownout purposes, whatever its length.
    let _permit = match shared.gate.admit(CostClass::Batch, deadline) {
        Ok(permit) => permit,
        Err(reason) => return Reply::shed(reason, shared.gate.config().retry_after_ms, "batch"),
    };
    if let Some(reply) = chaos_engine_point(shared, "batch") {
        return reply;
    }
    let mut bodies = Vec::with_capacity(parsed.len());
    for item in &parsed {
        match answer(item, trace_name, &resolved, shared, deadline, false) {
            Answer::Fresh(body) => {
                hpcfail_obs::counter("serve.cache.miss").inc();
                bodies.push(Json::Str((*body).clone()));
            }
            Answer::Cached(body) => {
                hpcfail_obs::counter("serve.cache.hit").inc();
                bodies.push(Json::Str((*body).clone()));
            }
            Answer::Coalesced(body) => {
                hpcfail_obs::counter("serve.coalesced").inc();
                bodies.push(Json::Str((*body).clone()));
            }
            Answer::Degraded => {
                hpcfail_obs::counter("serve.degraded").inc();
                let mut reply = Reply::error(
                    504,
                    "Gateway Timeout",
                    "deadline passed while awaiting an identical in-flight query",
                    true,
                    "batch",
                );
                reply.headers.push(("x-degraded", "true".to_owned()));
                return reply;
            }
            Answer::Failed(message) => {
                return Reply::error(500, "Internal Server Error", &message, false, "batch");
            }
        }
    }
    // Each element is the exact /query body for that request, embedded
    // as a JSON string so per-query byte-identity survives batching.
    let body = Json::obj([("results", Json::Arr(bodies))]).pretty();
    Reply::ok(body, "batch")
}

enum Answer {
    /// Computed by this request.
    Fresh(Arc<String>),
    /// Served from the result cache.
    Cached(Arc<String>),
    /// Shared from another client's identical in-flight query.
    Coalesced(Arc<String>),
    /// Deadline expired while waiting on the in-flight leader.
    Degraded,
    /// The query panicked, here or in the leader this request followed;
    /// the message is sanitized.
    Failed(String),
}

/// Answers one analysis from the cache, a fresh leader run, or an
/// identical in-flight leader. With `inject_panic`, a leader panics
/// after its engine run and, once its followers have the failure,
/// re-raises the panic into the handler's own `catch_unwind`.
fn answer(
    request: &AnalysisRequest,
    trace_name: &str,
    resolved: &ResolvedTrace,
    shared: &Shared,
    deadline: Instant,
    inject_panic: bool,
) -> Answer {
    // The key carries the *epoch fingerprint*, not just the name: a
    // re-uploaded trace with different data can never serve a
    // predecessor's cached bytes, while re-uploading identical data
    // keeps the warm entries.
    let key: CacheKey = (
        trace_name.to_owned(),
        resolved.fingerprint,
        request.canonical(),
    );
    if let Some(body) = shared.cache.get(&key) {
        return Answer::Cached(body);
    }
    match shared.coalescer.claim(&key) {
        Claim::Leader(guard) => {
            let span_name = format!("serve.query.{}", request.kind());
            let span = hpcfail_obs::span(&span_name);
            span.attr("kind", request.kind());
            let computed = catch_unwind(AssertUnwindSafe(|| {
                let body = resolved.engine.run(request).to_json().pretty();
                if inject_panic {
                    panic!("injected panic for analysis kind {}", request.kind());
                }
                Arc::new(body)
            }));
            let _ = span;
            match computed {
                Ok(body) => {
                    shared.cache.put(key, Arc::clone(&body));
                    shared.coalescer.complete(guard, Arc::clone(&body));
                    Answer::Fresh(body)
                }
                Err(payload) => {
                    let message = format!("analysis {} panicked; see server logs", request.kind());
                    shared.coalescer.abandon(guard, message.clone());
                    if inject_panic {
                        resume_unwind(payload);
                    }
                    Answer::Failed(message)
                }
            }
        }
        Claim::Follower(flight) => match flight.wait(deadline) {
            Some(Ok(body)) => Answer::Coalesced(body),
            Some(Err(message)) => Answer::Failed(message),
            None => Answer::Degraded,
        },
    }
}

/// The admission chaos point: latency, an injected typed error, or a
/// forced shed — decided before the real gate sees the request.
fn chaos_admission(shared: &Shared, class: CostClass, kind: &str) -> Option<Reply> {
    let chaos = shared.chaos.as_ref()?;
    match chaos.decide(ChaosPoint::Admission)? {
        ChaosAction::Delay(delay) => {
            std::thread::sleep(delay);
            None
        }
        ChaosAction::Fail { status } => Some(Reply::error(
            status,
            reason_phrase(status),
            "chaos-injected error",
            false,
            kind,
        )),
        ChaosAction::Shed => {
            let reason = shared.gate.record_chaos_shed(class);
            Some(Reply::shed(
                reason,
                shared.gate.config().retry_after_ms,
                kind,
            ))
        }
        ChaosAction::Drop => None, // unreachable: parser rejects drop here
    }
}

/// The engine chaos point: latency/stall or an injected typed error,
/// decided after admission (the permit is held through the sleep, so
/// stalls genuinely occupy gate capacity).
fn chaos_engine_point(shared: &Shared, kind: &str) -> Option<Reply> {
    let chaos = shared.chaos.as_ref()?;
    match chaos.decide(ChaosPoint::Engine)? {
        ChaosAction::Delay(delay) => {
            std::thread::sleep(delay);
            None
        }
        ChaosAction::Fail { status } => Some(Reply::error(
            status,
            reason_phrase(status),
            "chaos-injected error",
            false,
            kind,
        )),
        _ => None, // unreachable: parser rejects drop/shed here
    }
}

/// The reason phrase for an injected status code.
fn reason_phrase(status: u16) -> &'static str {
    match status {
        400 => "Bad Request",
        404 => "Not Found",
        408 => "Request Timeout",
        413 => "Content Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Error",
    }
}

fn deadline_ms(request: &Request, shared: &Shared) -> u64 {
    request
        .header("x-deadline-ms")
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(shared.default_deadline_ms)
        .max(1)
}

/// The uniform typed error body.
fn error_body(status: u16, message: &str, degraded: bool) -> String {
    Json::obj([(
        "error",
        Json::obj([
            ("status", Json::Num(f64::from(status))),
            ("message", Json::Str(message.to_owned())),
            ("degraded", Json::Bool(degraded)),
        ]),
    )])
    .pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_bodies_are_typed_json() {
        let body = error_body(400, "nope", false);
        let json = hpcfail_obs::json::parse(&body).expect("valid JSON");
        assert_eq!(
            json.get("error")
                .and_then(|e| e.get("status"))
                .and_then(Json::as_u64),
            Some(400)
        );
        assert_eq!(
            json.get("error")
                .and_then(|e| e.get("message"))
                .and_then(Json::as_str),
            Some("nope")
        );
    }

    #[test]
    fn trace_wrap_preserves_the_exact_body() {
        let body = "{\n  \"answer\": 42\n}".to_owned();
        let wrapped = wrap_traced(body.clone(), "00000000000000ff", None);
        let json = hpcfail_obs::json::parse(&wrapped).expect("valid JSON");
        assert_eq!(
            json.get("result").and_then(Json::as_str),
            Some(body.as_str()),
            "original bytes survive as the result string"
        );
        assert_eq!(
            json.get("trace_id").and_then(Json::as_str),
            Some("00000000000000ff")
        );
    }
}
