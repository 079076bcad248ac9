//! Byte-level pin of the two costliest cold request kinds.
//!
//! The `repro all` golden prints checkpoint results rounded to whole
//! hours and covers only the 50 heaviest users, so a last-bit change in
//! a `CheckpointOutcome` field or a `UserStat` would slip past it. This
//! test renders every `checkpoint-replay` policy of the benchmark grid
//! and `heaviest-users` for k = 1..=200 on every job-log system, exactly
//! as the server serializes them (`Engine::run(..).to_json().pretty()`),
//! and compares the SHA-256 of the bodies (each followed by `\n`, in
//! request order) with the committed digest.
//!
//! Run in release mode for speed: `cargo test --release --test cold_bodies`.

use hpcfail::prelude::*;

// The benchmark's std-only SHA-256 (with its FIPS known-vector test),
// shared rather than copied; the build has no crates.io access.
#[path = "../perfbench/src/sha256.rs"]
mod sha256;

const GOLDEN: &str = include_str!("golden/cold_bodies_scale0.1_seed42.sha256");

/// Uniform checkpoint intervals (hours).
const INTERVALS: [f64; 6] = [1.0, 2.0, 4.0, 8.0, 12.0, 24.0];
/// Adaptive (base, flagged) intervals (hours).
const ADAPTIVE: [(f64, f64); 4] = [(4.0, 0.5), (4.0, 2.0), (12.0, 0.5), (12.0, 2.0)];
/// Largest `k` asked of `heaviest-users`.
const MAX_USERS: usize = 200;

fn requests(engine: &Engine) -> Vec<AnalysisRequest> {
    let mut out = Vec::new();
    for group in SystemGroup::ALL {
        for interval_hours in INTERVALS {
            out.push(AnalysisRequest::CheckpointReplay {
                group,
                policy: CheckpointPolicy::Uniform { interval_hours },
            });
        }
        for window in Window::ALL {
            for (base_hours, flagged_hours) in ADAPTIVE {
                out.push(AnalysisRequest::CheckpointReplay {
                    group,
                    policy: CheckpointPolicy::Adaptive {
                        base_hours,
                        flagged_hours,
                        rule: AlarmRule {
                            trigger: FailureClass::Any,
                            window,
                        },
                    },
                });
            }
        }
    }
    for system in engine.trace().systems() {
        if system.config().has_job_log {
            for k in 1..=MAX_USERS {
                out.push(AnalysisRequest::HeaviestUsers {
                    system: system.id(),
                    k,
                });
            }
        }
    }
    out
}

#[test]
fn cold_bodies_match_golden_digest() {
    let engine = Engine::new(FleetSpec::lanl_scaled(0.1).generate(42).into_store());
    let requests = requests(&engine);
    assert!(
        requests
            .iter()
            .any(|r| matches!(r, AnalysisRequest::HeaviestUsers { .. })),
        "the fleet has at least one job-log system"
    );
    let mut hasher = sha256::Sha256::default();
    for request in &requests {
        hasher.update(engine.run(request).to_json().pretty().as_bytes());
        hasher.update(b"\n");
    }
    assert_eq!(
        hasher.hex(),
        GOLDEN.trim(),
        "cold checkpoint/heaviest-users bodies changed"
    );
}
