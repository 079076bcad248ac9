//! The metric catalogue and the one-line JSON result.

use hpcfail_bench::EXPERIMENTS;
use hpcfail_core::engine::REQUEST_KINDS;
use std::collections::BTreeMap;

/// End-to-end metrics, with units, in the order they are documented.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("throughput_qps", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("upload_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Layer counters read from the `repro` run manifest.
pub const INDEX_COUNTERS: [&str; 7] = [
    "store.index.features.hits",
    "store.index.features.misses",
    "store.index.baseline.hits",
    "store.index.baseline.misses",
    "store.index.days.hits",
    "store.index.days.misses",
    "store.rows_scanned",
];

/// Layers whose self time the traced run reports (`self.<layer>_ms`).
pub const LAYERS: [&str; 7] = [
    "client", "repro", "store", "core", "bench", "synth", "serve",
];

/// Every per-layer metric name, in catalogue order.
pub fn per_layer_names() -> Vec<String> {
    let mut names: Vec<String> = [
        "store.csv_load_s",
        "store.snapshot_decode_s",
        "store.resident_bytes",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    names.extend(INDEX_COUNTERS.iter().map(|s| (*s).to_owned()));
    names.push("core.engine_new_s".to_owned());
    names.push("core.render_us".to_owned());
    for kind in REQUEST_KINDS {
        names.push(format!("core.run.{kind}.sum_ms"));
        names.push(format!("core.run.{kind}.p50_ms"));
    }
    names.extend(EXPERIMENTS.iter().map(|e| format!("bench.exp.{}_s", e.id)));
    names.push("synth.generate_s".to_owned());
    for name in [
        "serve.cache.get_us",
        "serve.cache.put_us",
        "serve.roundtrip_hit_us",
        "serve.hit_rate",
        "serve.coalesced",
        "serve.shed",
        "serve.upload_ms",
        "serve.upload_overhead_ms",
        "serve.registry.insert_ms",
        "serve.registry.cold_loads",
        "serve.registry.evictions",
        "serve.registry.resident_bytes",
        "check.cold_explained_pct",
        "trace.spans",
        "trace.overhead_pct",
    ] {
        names.push(name.to_owned());
    }
    names.extend(LAYERS.iter().map(|l| format!("self.{l}_ms")));
    names.extend(END_TO_END.iter().map(|(n, _)| format!("trace.e2e.{n}")));
    names
}

/// The unit of a per-layer metric, from its name.
pub fn layer_unit(name: &str) -> &'static str {
    if let Some(e2e) = name.strip_prefix("trace.e2e.") {
        return END_TO_END
            .iter()
            .find(|(n, _)| *n == e2e)
            .map_or("count", |(_, u)| *u);
    }
    [
        ("_s", "s"),
        ("_ms", "ms"),
        ("_us", "us"),
        ("_bytes", "bytes"),
        ("_pct", "%"),
        ("_rate", "ratio"),
    ]
    .iter()
    .find(|(suffix, _)| name.ends_with(suffix))
    .map_or("count", |(_, unit)| *unit)
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that failed (transport error, non-200, bad exit).
    pub failed: u64,
    /// End-to-end metrics by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics by name (traced runs only).
    pub layers: BTreeMap<String, f64>,
    /// Failed output checks, for stderr.
    pub problems: Vec<String>,
}

impl Report {
    /// Records a failed output check.
    pub fn problem(&mut self, message: String) {
        self.problems.push(message);
    }
}

fn number(value: f64) -> String {
    // JSON has no infinity: a percentile that landed on a failed
    // operation prints as the largest finite double.
    if value.is_finite() {
        format!("{value}")
    } else {
        format!("{}", f64::MAX)
    }
}

/// The result line: end-to-end metrics untraced, per-layer traced.
pub fn result_line(report: &Report, traced: bool) -> String {
    let metrics: Vec<String> = if traced {
        per_layer_names()
            .iter()
            .map(|name| {
                let value = report.layers.get(name).copied().unwrap_or(0.0);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    number(value),
                    layer_unit(name)
                )
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|(name, unit)| {
                let value = report.e2e.get(name).copied().unwrap_or(f64::NAN);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(value)
                )
            })
            .collect()
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct && report.problems.is_empty(),
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let names = per_layer_names();
        let set: BTreeSet<&String> = names.iter().collect();
        assert_eq!(set.len(), names.len());
        assert!(names.len() <= 128, "{} per-layer metrics", names.len());
        for n in names
            .iter()
            .map(String::as_str)
            .chain(END_TO_END.iter().map(|(n, _)| *n))
        {
            assert!(n.len() <= 64, "{n}");
            assert!(n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
        }
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut report = Report {
            correct: true,
            attempted: 3,
            ..Report::default()
        };
        report.e2e.insert("p99_ms", f64::INFINITY);
        let line = result_line(&report, false);
        let json = hpcfail_obs::json::parse(&line).expect("valid JSON");
        assert_eq!(json.get("correct").and_then(|v| v.as_bool()), Some(true));
        let metrics = json.get("metrics").expect("metrics");
        for (name, unit) in END_TO_END {
            assert_eq!(
                metrics
                    .get(name)
                    .and_then(|m| m.get("unit"))
                    .and_then(|u| u.as_str()),
                Some(unit)
            );
        }
        assert_eq!(
            metrics
                .get("p99_ms")
                .and_then(|m| m.get("value"))
                .and_then(|v| v.as_f64()),
            Some(f64::MAX)
        );
        let traced = hpcfail_obs::json::parse(&result_line(&report, true)).expect("valid JSON");
        assert!(traced
            .get("metrics")
            .and_then(|m| m.get("core.run.availability.p50_ms"))
            .is_some());
    }
}
