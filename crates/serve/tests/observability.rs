//! End-to-end checks of the live-telemetry layer: `/metrics` must be
//! valid Prometheus text whose counts match client-side truth,
//! `x-trace: 1` must return a coherent span tree around the exact
//! result bytes, a panicking handler must answer 500 without leaking
//! the in-flight gauge, the access log must write exactly one
//! well-formed JSONL line per request (malformed traffic included),
//! and `/healthz` must surface SLO standings.
//!
//! The obs registry is process-global and tests in this binary run
//! concurrently, so every counter assertion is a *delta* over a kind
//! that only its own test drives.

#![cfg(not(feature = "no-obs"))]

use hpcfail_core::engine::{AnalysisRequest, Engine};
use hpcfail_obs::json::Json;
use hpcfail_serve::client::Client;
use hpcfail_serve::server::{spawn, ServerConfig};
use hpcfail_serve::slo::SloPolicy;
use hpcfail_serve::{promtext, top};
use std::time::Duration;

/// Query path of the boot trace.
const QUERY: &str = "/v1/traces/default/query";

fn engine() -> Engine {
    Engine::new(hpcfail_synth::FleetSpec::demo().generate(42).into_store())
}

fn scrape(client: &Client) -> promtext::Scrape {
    let response = client.get("/v1/metrics").expect("scrape");
    assert_eq!(response.status, 200);
    assert!(
        response
            .header("content-type")
            .is_some_and(|ct| ct.starts_with("text/plain")),
        "metrics content type: {:?}",
        response.header("content-type")
    );
    promtext::parse(&response.body).expect("scrape is valid Prometheus text")
}

#[test]
fn metrics_scrape_is_valid_and_counts_match_the_client() {
    let handle = spawn(engine(), ServerConfig::default()).expect("bind");
    let client = Client::new(handle.addr().to_string());
    // This kind is driven by this test alone (see module docs).
    let request = AnalysisRequest::EnvBreakdown.canonical();
    let kind = "env-breakdown";

    let before = scrape(&client);
    let kind_before = before
        .value("serve_requests_by_kind_total", &[("kind", kind)])
        .unwrap_or(0.0);
    let hits_before = before
        .value("serve_cache_requests_total", &[("result", "hit")])
        .unwrap_or(0.0);

    const N: usize = 8;
    for _ in 0..N {
        let response = client.post(QUERY, &request, &[]).expect("query");
        assert_eq!(response.status, 200);
        assert!(
            response
                .header("x-trace-id")
                .is_some_and(|id| id.len() == 16),
            "every response echoes a trace id"
        );
    }

    let after = scrape(&client);
    let kind_after = after
        .value("serve_requests_by_kind_total", &[("kind", kind)])
        .expect("per-kind series present");
    assert_eq!(
        (kind_after - kind_before) as u64,
        N as u64,
        "server-side per-kind total equals the client-side count"
    );
    // 1 miss then 7 hits (single client, no concurrency on this kind).
    let hits_after = after
        .value("serve_cache_requests_total", &[("result", "hit")])
        .expect("cache hit series present");
    assert!(
        hits_after - hits_before >= (N - 1) as f64,
        "warm repeats hit the cache: {hits_before} -> {hits_after}"
    );
    // Latency summaries carry the full quantile ladder for the kind.
    for quantile in ["0.5", "0.9", "0.95", "0.99"] {
        assert!(
            after
                .value(
                    "serve_request_latency_ns",
                    &[("kind", kind), ("quantile", quantile)]
                )
                .is_some(),
            "lifetime p{quantile} present"
        );
        assert!(
            after
                .value(
                    "serve_window_latency_ns",
                    &[("kind", kind), ("quantile", quantile)]
                )
                .is_some(),
            "windowed p{quantile} present"
        );
    }
    assert_eq!(after.types["serve_requests_total"], "counter");
    assert_eq!(after.types["serve_window_latency_ns"], "summary");
    assert!(after.value("serve_inflight", &[]).is_some());

    handle.shutdown();
}

fn sum_self_ns(node: &Json) -> f64 {
    let own = node
        .get("self_ns")
        .and_then(Json::as_f64)
        .unwrap_or_default();
    let children = node
        .get("children")
        .and_then(Json::as_arr)
        .map(|c| c.iter().map(sum_self_ns).sum::<f64>())
        .unwrap_or(0.0);
    own + children
}

#[test]
fn x_trace_returns_a_span_tree_around_the_exact_bytes() {
    let engine = engine();
    let request = AnalysisRequest::Availability { system: None };
    let direct = engine.run(&request).to_json().pretty();

    let handle = spawn(engine, ServerConfig::default()).expect("bind");
    let client = Client::new(handle.addr().to_string());
    let response = client
        .post(QUERY, &request.canonical(), &[("x-trace", "1")])
        .expect("traced query");
    assert_eq!(response.status, 200);

    let json = hpcfail_obs::json::parse(&response.body).expect("wrapped body is JSON");
    assert_eq!(
        json.get("result").and_then(Json::as_str),
        Some(direct.as_str()),
        "the exact /query bytes survive inside the wrap"
    );
    let trace_id = json
        .get("trace_id")
        .and_then(Json::as_str)
        .expect("trace id in body");
    assert_eq!(
        response.header("x-trace-id"),
        Some(trace_id),
        "header and body agree on the trace id"
    );

    let trace = json.get("trace").expect("span tree present");
    assert_eq!(trace.get("trace_id").and_then(Json::as_str), Some(trace_id));
    let root = trace.get("root").expect("root span");
    assert_eq!(
        root.get("name").and_then(Json::as_str),
        Some("serve.request")
    );
    assert_eq!(root.get("parent_id").and_then(Json::as_u64), Some(0));
    let root_total = root
        .get("total_ns")
        .and_then(Json::as_f64)
        .expect("root duration");
    let children_self: f64 = root
        .get("children")
        .and_then(Json::as_arr)
        .map(|c| c.iter().map(sum_self_ns).sum())
        .unwrap_or(0.0);
    assert!(
        root_total >= children_self,
        "root duration {root_total} covers the sum of child self times {children_self}"
    );
    // The root span carries the request attributes.
    let attrs = root.get("attrs").expect("root attrs");
    assert_eq!(attrs.get("path").and_then(Json::as_str), Some(QUERY));
    assert_eq!(
        attrs.get("kind").and_then(Json::as_str),
        Some("availability")
    );

    // The engine's own span shows up beneath serve.query.<kind> on a
    // cold query (this kind is driven by this test alone).
    let spans = trace.get("spans").and_then(Json::as_u64).expect("count");
    assert!(spans >= 2, "cold traced query captures nested spans");

    handle.shutdown();
}

#[test]
fn panicking_handler_answers_500_and_releases_the_inflight_gauge() {
    let handle = spawn(
        engine(),
        ServerConfig {
            inject_panic_kind: Some("trace-summary".to_owned()),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let client = Client::new(handle.addr().to_string());

    let response = client
        .post(QUERY, &AnalysisRequest::TraceSummary.canonical(), &[])
        .expect("panicking query still answers");
    assert_eq!(response.status, 500);
    assert!(
        response.body.contains("\"error\""),
        "typed body: {}",
        response.body
    );
    assert!(response.header("x-trace-id").is_some());
    assert_eq!(
        handle.inflight(),
        0,
        "in-flight gauge decremented despite the panic"
    );
    // The worker survived; the server keeps serving.
    let health = client.get("/v1/healthz").expect("alive after panic");
    assert_eq!(health.status, 200);

    handle.shutdown();
}

#[test]
fn access_log_writes_exactly_one_line_per_request() {
    let dir = std::env::temp_dir().join("hpcfail-serve-obs-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("access-{}.jsonl", std::process::id()));
    std::fs::remove_file(&path).ok();

    let handle = spawn(
        engine(),
        ServerConfig {
            access_log: Some(path.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let client = Client::new(handle.addr().to_string());

    let mut expected_lines = 0;
    // A normal query, of a kind no other test here drives (the
    // metrics test counts `env-breakdown` requests by delta).
    let request = AnalysisRequest::NodeFailureCounts {
        system: hpcfail_types::prelude::SystemId::new(2),
    };
    let ok = client
        .post(QUERY, &request.canonical(), &[])
        .expect("query");
    assert_eq!(ok.status, 200);
    expected_lines += 1;
    // A malformed body: parses as HTTP, fails as JSON -> 400, logged.
    let bad = client.post(QUERY, "{nope", &[]).expect("bad body");
    assert_eq!(bad.status, 400);
    expected_lines += 1;
    // Raw protocol garbage: not even HTTP -> one http-error line.
    {
        use std::io::{Read, Write};
        let mut raw = std::net::TcpStream::connect(handle.addr()).expect("connect");
        raw.write_all(b"\x01\x02\x03 garbage\r\n\r\n")
            .expect("write");
        let mut out = String::new();
        let _ = raw.read_to_string(&mut out);
        expected_lines += 1;
    }
    // An oversized body: rejected with 413, logged.
    {
        use std::io::{Read, Write};
        let mut raw = std::net::TcpStream::connect(handle.addr()).expect("connect");
        let head = format!(
            "POST /query HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            hpcfail_serve::http::MAX_BODY + 1
        );
        raw.write_all(head.as_bytes()).expect("write");
        let mut out = String::new();
        let _ = raw.read_to_string(&mut out);
        assert!(out.starts_with("HTTP/1.1 413"), "got: {out}");
        expected_lines += 1;
    }
    handle.shutdown();

    let text = std::fs::read_to_string(&path).expect("access log exists");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(
        lines.len(),
        expected_lines,
        "exactly one line per request:\n{text}"
    );
    let mut kinds = Vec::new();
    let mut statuses = Vec::new();
    for line in &lines {
        let entry = hpcfail_obs::json::parse(line).expect("every line is valid JSON");
        for key in [
            "bytes_out",
            "cache",
            "deadline_ms",
            "kind",
            "latency_us",
            "method",
            "path",
            "shed",
            "status",
            "trace_id",
        ] {
            assert!(entry.get(key).is_some(), "line missing {key}: {line}");
        }
        kinds.push(
            entry
                .get("kind")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_owned(),
        );
        statuses.push(entry.get("status").and_then(Json::as_u64).unwrap_or(0));
    }
    assert!(kinds.contains(&"node-failure-counts".to_owned()));
    assert_eq!(
        kinds.iter().filter(|k| *k == "http-error").count(),
        2,
        "garbage and oversized requests each log one http-error line"
    );
    assert!(
        statuses.contains(&400) && statuses.contains(&413),
        "{statuses:?}"
    );

    std::fs::remove_file(&path).ok();
}

#[test]
fn tight_slo_budget_degrades_healthz() {
    // Inject a panic so the "panic" kind records a 100% error rate,
    // blowing any error budget.
    let handle = spawn(
        engine(),
        ServerConfig {
            inject_panic_kind: Some("equal-rates-test".to_owned()),
            slo: SloPolicy {
                latency_budget_ms: 500,
                max_error_rate: 0.01,
                ..SloPolicy::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let client = Client::new(handle.addr().to_string());

    let health = client.get("/v1/healthz").expect("healthz");
    assert_eq!(health.status, 200);
    let body = hpcfail_obs::json::parse(&health.body).expect("json");
    assert!(body.get("fingerprint").is_some(), "fingerprint kept");
    assert!(body.get("slo").is_some(), "slo standings present");

    let request = AnalysisRequest::EqualRatesTest {
        system: hpcfail_types::prelude::SystemId::new(2),
        class: hpcfail_types::prelude::FailureClass::Any,
        exclude_node0: false,
    };
    let response = client
        .post(QUERY, &request.canonical(), &[])
        .expect("panicking query");
    assert_eq!(response.status, 500);

    let health = client.get("/v1/healthz").expect("healthz after errors");
    let body = hpcfail_obs::json::parse(&health.body).expect("json");
    assert_eq!(
        body.get("status").and_then(Json::as_str),
        Some("degraded"),
        "{}",
        health.body
    );
    let kind = body
        .get("slo")
        .and_then(|s| s.get("kinds"))
        .and_then(|k| k.get("panic"))
        .expect("the failing kind is reported");
    assert_eq!(kind.get("errors_ok").and_then(Json::as_bool), Some(false));

    // /metrics mirrors the standing.
    let scraped = scrape(&client);
    assert_eq!(scraped.value("serve_slo_healthy", &[]), Some(0.0));
    assert_eq!(
        scraped.value("serve_slo_ok", &[("kind", "panic")]),
        Some(0.0)
    );

    handle.shutdown();
}

#[test]
fn top_renders_per_kind_rows_from_a_live_server() {
    let handle = spawn(engine(), ServerConfig::default()).expect("bind");
    let client = Client::new(handle.addr().to_string());
    let request = AnalysisRequest::HeaviestUsers {
        system: hpcfail_types::prelude::SystemId::new(2),
        k: 5,
    }
    .canonical();
    for _ in 0..3 {
        assert_eq!(
            client.post(QUERY, &request, &[]).expect("query").status,
            200
        );
    }

    let mut out = Vec::new();
    top::run(
        &top::TopOptions {
            addr: handle.addr().to_string(),
            interval: Duration::from_millis(50),
            frames: Some(2),
            clear: false,
        },
        &mut out,
    )
    .expect("top runs against the live server");
    let text = String::from_utf8(out).expect("utf-8");
    assert!(text.contains("hpcfail-serve top"), "{text}");
    assert!(
        text.contains("heaviest-users"),
        "per-kind row rendered:\n{text}"
    );
    assert!(text.contains("window p99"), "{text}");

    handle.shutdown();
}
