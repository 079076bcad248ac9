//! The repository benchmark: four workloads over the shipped `repro`
//! and `hpcfail-serve` binaries, checked for correct output, reporting
//! end-to-end metrics untraced and per-layer metrics traced.
//!
//! | workload | what runs |
//! |---|---|
//! | `repro-full` | `repro all` over a full-scale trace loaded from CSV |
//! | `serve-cold` | 1000 distinct queries against a fresh full-scale server |
//! | `serve-hot` | Zipf hits (and `/batch`es) on a warmed hot key set |
//! | `serve-churn` | trace re-uploads beside queries under a residency cap |
//!
//! See `README.md` beside this crate for metric definitions and the
//! per-layer predictions.

pub mod churn;
pub mod cold;
pub mod hot;
pub mod inputs;
pub mod proc;
pub mod report;
pub mod repro_full;
pub mod sequence;
pub mod serve;
pub mod sha256;
pub mod spans;
pub mod stats;

use hpcfail_core::engine::Engine;
use hpcfail_serve::registry::{TraceRegistry, TraceSource};
use report::{Report, LAYERS};
use spans::{timed, Span, Tracer};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Workload names.
pub const WORKLOADS: [&str; 4] = ["repro-full", "serve-cold", "serve-hot", "serve-churn"];

/// Everything a workload run needs.
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Fleet scale (1.0 = full LANL size; smaller only for smoke tests).
    pub scale: f64,
    /// The `repro` binary.
    pub repro_bin: PathBuf,
    /// The `hpcfail-serve` binary.
    pub serve_bin: PathBuf,
    /// Per-run directory for generated inputs (removed at exit).
    pub work: PathBuf,
    /// The span recorder of a traced run.
    pub tracer: Option<Tracer>,
}

impl Ctx {
    /// The span recorder, when tracing.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }
}

/// Runs `ctx.workload`; traced runs also get their per-layer metrics.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = match ctx.workload.as_str() {
        "repro-full" => repro_full::run(ctx)?,
        "serve-cold" => cold::run(ctx)?,
        "serve-hot" => hot::run(ctx)?,
        "serve-churn" => churn::run(ctx)?,
        other => return Err(format!("unknown workload {other:?}; one of {WORKLOADS:?}")),
    };
    if let Some(t) = ctx.tracer() {
        let spans = t.spans();
        layer_metrics(&spans, &mut report.layers);
        for (name, value) in &report.e2e {
            report.layers.insert(format!("trace.e2e.{name}"), *value);
        }
        report
            .layers
            .insert("trace.overhead_pct".to_owned(), overhead_pct(&spans));
    }
    Ok(report)
}

/// Inserts `TraceRegistry::insert` timing and the registry's resident
/// bytes for the engine's trace.
pub fn registry_probe(engine: &Engine, layers: &mut BTreeMap<String, f64>, tracer: &Tracer) {
    let registry = TraceRegistry::new(0);
    let trace = engine.trace().clone();
    timed(Some(tracer), "serve.registry.insert", || {
        registry.insert("default", trace, TraceSource::Snapshot)
    });
    layers.insert(
        "serve.registry.resident_bytes".to_owned(),
        registry.resident_bytes() as f64,
    );
}

fn durations<'a>(spans: &'a [Span], name: &'a str) -> impl Iterator<Item = f64> + 'a {
    spans
        .iter()
        .filter(move |s| s.name == name)
        .map(|s| s.duration_ns() as f64)
}

/// Per-layer metrics computed from the spans.
pub fn layer_metrics(spans: &[Span], layers: &mut BTreeMap<String, f64>) {
    let med = |name: &str| stats::median(&durations(spans, name).collect::<Vec<_>>());
    let mut put = |metric: &str, value: Option<f64>| {
        if let Some(v) = value {
            layers.insert(metric.to_owned(), v);
        }
    };
    put("store.csv_load_s", med("store.csv_load").map(|ns| ns / 1e9));
    put(
        "store.snapshot_decode_s",
        med("store.snapshot_decode").map(|ns| ns / 1e9),
    );
    put(
        "core.engine_new_s",
        med("core.engine_new").map(|ns| ns / 1e9),
    );
    put("core.render_us", med("core.render").map(|ns| ns / 1e3));
    put("synth.generate_s", med("synth.generate").map(|ns| ns / 1e9));
    put(
        "serve.registry.insert_ms",
        med("serve.registry.insert").map(|ns| ns / 1e6),
    );
    let upload = med("client.upload").map(|ns| ns / 1e6);
    put("serve.upload_ms", upload);
    if let (Some(up), Some(decode)) = (upload, med("store.snapshot_decode.upload")) {
        put("serve.upload_overhead_ms", Some(up - decode / 1e6));
    }
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        by_name
            .entry(&s.name)
            .or_default()
            .push(s.duration_ns() as f64);
    }
    for (name, ns) in &by_name {
        if let Some(kind) = name.strip_prefix("core.run.") {
            put(
                &format!("core.run.{kind}.sum_ms"),
                Some(ns.iter().sum::<f64>() / 1e6),
            );
            put(
                &format!("core.run.{kind}.p50_ms"),
                stats::median(ns).map(|v| v / 1e6),
            );
        } else if let Some(id) = name.strip_prefix("bench.exp.") {
            put(
                &format!("bench.exp.{id}_s"),
                Some(ns.iter().sum::<f64>() / 1e9),
            );
        }
    }
    let self_ns = spans::self_time_by_layer(spans);
    for layer in LAYERS {
        put(
            &format!("self.{layer}_ms"),
            Some(self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e6),
        );
    }
    put("trace.spans", Some(spans.len() as f64));
}

/// The share of traced operation time the span recorder itself took:
/// the measured cost of one `Tracer::record` times the number of spans,
/// over the summed duration of the spans.
fn overhead_pct(spans: &[Span]) -> f64 {
    const PROBES: u32 = 20_000;
    let probe = Tracer::new("calibration");
    let start = Instant::now();
    for _ in 0..PROBES {
        let now = Instant::now();
        probe.record("client.probe", None, now, now);
    }
    let per_span_ns = start.elapsed().as_nanos() as f64 / f64::from(PROBES);
    let traced_ns: f64 = spans.iter().map(|s| s.duration_ns() as f64).sum();
    if traced_ns > 0.0 {
        100.0 * per_span_ns * spans.len() as f64 / traced_ns
    } else {
        0.0
    }
}
