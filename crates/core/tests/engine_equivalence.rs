//! Equivalence of the unified [`Engine`] API with direct per-analysis
//! calls: for every request variant, `Engine::run` must produce the
//! same values — and the same JSON bytes — as calling the underlying
//! analysis directly, and repeated (warm) runs must equal the first
//! (cold) one byte-for-byte.

use hpcfail_core::checkpoint::{CheckpointPolicy, CheckpointSimulator};
use hpcfail_core::correlation::Scope;
use hpcfail_core::engine::{
    AnalysisRequest, AnalysisResult, ArrivalSummary, CosmicSummary, Engine, EnvShare, GlmSummary,
    RootShare, UsageSummary, UserSummary, REQUEST_KINDS,
};
use hpcfail_core::power::PowerProblem;
use hpcfail_core::predict::AlarmRule;
use hpcfail_core::regression_study::StudyFamily;
use hpcfail_core::temperature::TempPredictor;
use hpcfail_stats::glm::Family;
use hpcfail_store::trace::Trace;
use hpcfail_types::prelude::*;
use proptest::prelude::*;

fn demo_trace() -> Trace {
    hpcfail_synth::FleetSpec::demo().generate(42).into_store()
}

/// One request per kind, parameterized so proptest can vary the
/// interesting axes.
fn requests(seed: (usize, usize, usize)) -> Vec<AnalysisRequest> {
    requests_for(SystemId::new(2), seed)
}

/// The same per-kind sample aimed at an arbitrary system (scenario
/// packs use ids outside the LANL range).
fn requests_for(system: SystemId, seed: (usize, usize, usize)) -> Vec<AnalysisRequest> {
    let (class_ix, window_ix, scope_ix) = seed;
    let class = [
        FailureClass::Any,
        FailureClass::Root(RootCause::Hardware),
        FailureClass::Root(RootCause::Software),
        FailureClass::Hw(HardwareComponent::MemoryDimm),
    ][class_ix % 4];
    let window = Window::ALL[window_ix % Window::ALL.len()];
    let scope = Scope::ALL[scope_ix % Scope::ALL.len()];
    vec![
        AnalysisRequest::TraceSummary,
        AnalysisRequest::Conditional {
            group: SystemGroup::Group1,
            trigger: class,
            target: FailureClass::Any,
            window,
            scope,
        },
        AnalysisRequest::FleetConditional {
            trigger: class,
            target: FailureClass::Any,
            window,
            scope,
        },
        AnalysisRequest::SameTypeSummaries {
            group: SystemGroup::Group2,
            window,
            scope,
        },
        AnalysisRequest::NodeFailureCounts { system },
        AnalysisRequest::EqualRatesTest {
            system,
            class,
            exclude_node0: scope_ix % 2 == 0,
        },
        AnalysisRequest::NodeVsRest {
            system,
            node: NodeId::new((class_ix % 4) as u32),
            class,
            window,
        },
        AnalysisRequest::RootCauseShares {
            system,
            nodes: vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)],
        },
        AnalysisRequest::UsageCorrelations { system },
        AnalysisRequest::HeaviestUsers {
            system,
            k: 3 + class_ix % 5,
        },
        AnalysisRequest::EnvBreakdown,
        AnalysisRequest::PowerConditional {
            problem: PowerProblem::ALL[class_ix % PowerProblem::ALL.len()],
            target: FailureClass::Any,
            window,
        },
        AnalysisRequest::MaintenanceAfterPower {
            problem: PowerProblem::ALL[window_ix % PowerProblem::ALL.len()],
        },
        AnalysisRequest::TemperatureRegression {
            system,
            predictor: TempPredictor::ALL[class_ix % TempPredictor::ALL.len()],
            target: FailureClass::Any,
            family: StudyFamily::Poisson,
        },
        AnalysisRequest::CosmicCorrelation { system, class },
        AnalysisRequest::RegressionStudy {
            system,
            family: StudyFamily::ALL[class_ix % StudyFamily::ALL.len()],
            exclude_node0: window_ix % 2 == 0,
        },
        AnalysisRequest::ArrivalProfile {
            system,
            class: FailureClass::Any,
        },
        AnalysisRequest::AlarmEvaluation {
            group: SystemGroup::Group1,
            trigger: class,
            window,
        },
        AnalysisRequest::CheckpointReplay {
            group: SystemGroup::Group2,
            policy: if class_ix % 2 == 0 {
                CheckpointPolicy::Uniform {
                    interval_hours: 4.0 + window_ix as f64,
                }
            } else {
                CheckpointPolicy::Adaptive {
                    base_hours: 8.0,
                    flagged_hours: 2.0,
                    rule: AlarmRule {
                        trigger: class,
                        window,
                    },
                }
            },
        },
        AnalysisRequest::Availability {
            system: if class_ix % 2 == 0 {
                None
            } else {
                Some(system)
            },
        },
    ]
}

/// Computes the answer to `request` through the engine's per-analysis
/// views, byte-compatible with `Engine::run`.
fn direct(trace: &Trace, engine: &Engine, request: &AnalysisRequest) -> AnalysisResult {
    match request {
        AnalysisRequest::TraceSummary => {
            AnalysisResult::TraceSummary(hpcfail_core::engine::TraceSummary {
                systems: trace.systems().map(|s| s.config().id.raw()).collect(),
                failures: trace.total_failures() as u64,
                fingerprint: engine.fingerprint_hex(),
            })
        }
        AnalysisRequest::Conditional {
            group,
            trigger,
            target,
            window,
            scope,
        } => AnalysisResult::Conditional(
            engine
                .correlation()
                .group_conditional(*group, *trigger, *target, *window, *scope),
        ),
        AnalysisRequest::FleetConditional {
            trigger,
            target,
            window,
            scope,
        } => AnalysisResult::Conditional(
            engine
                .correlation()
                .fleet_conditional(*trigger, *target, *window, *scope),
        ),
        AnalysisRequest::SameTypeSummaries {
            group,
            window,
            scope,
        } => AnalysisResult::SameType(
            engine
                .pairwise()
                .same_type_summaries(*group, *window, *scope),
        ),
        AnalysisRequest::NodeFailureCounts { system } => {
            AnalysisResult::NodeFailureCounts(engine.nodes().failure_counts(*system))
        }
        AnalysisRequest::EqualRatesTest {
            system,
            class,
            exclude_node0,
        } => {
            let exclude: &[NodeId] = if *exclude_node0 {
                &[NodeId::new(0)]
            } else {
                &[]
            };
            AnalysisResult::Test(engine.nodes().equal_rates_test(*system, *class, exclude))
        }
        AnalysisRequest::NodeVsRest {
            system,
            node,
            class,
            window,
        } => {
            AnalysisResult::NodeVsRest(engine.nodes().node_vs_rest(*system, *node, *class, *window))
        }
        AnalysisRequest::RootCauseShares { system, nodes } => AnalysisResult::RootCauseShares(
            engine
                .nodes()
                .root_cause_shares(*system, nodes)
                .into_iter()
                .map(|(root, share)| RootShare { root, share })
                .collect(),
        ),
        AnalysisRequest::UsageCorrelations { system } => {
            let usage = engine.usage();
            AnalysisResult::Usage(UsageSummary {
                jobs_pearson: usage.jobs_failures_pearson(*system),
                util_pearson: usage.util_failures_pearson(*system),
                jobs_spearman: usage.jobs_failures_spearman(*system),
            })
        }
        AnalysisRequest::HeaviestUsers { system, k } => {
            let users = engine.users();
            let stats = users.heaviest_users(*system, *k);
            let heterogeneity = users.heterogeneity_test(&stats);
            AnalysisResult::Users(UserSummary {
                stats,
                heterogeneity,
            })
        }
        AnalysisRequest::EnvBreakdown => {
            let power = engine.power();
            let shares = power.env_shares();
            AnalysisResult::EnvBreakdown(
                power
                    .env_breakdown()
                    .into_iter()
                    .map(|(cause, count)| EnvShare {
                        cause,
                        count,
                        share: shares.get(&cause).copied().unwrap_or(0.0),
                    })
                    .collect(),
            )
        }
        AnalysisRequest::PowerConditional {
            problem,
            target,
            window,
        } => AnalysisResult::Conditional(
            engine.power().conditional_after(*problem, *target, *window),
        ),
        AnalysisRequest::MaintenanceAfterPower { problem } => {
            AnalysisResult::Conditional(engine.power().maintenance_after(*problem))
        }
        AnalysisRequest::TemperatureRegression {
            system,
            predictor,
            target,
            family,
        } => {
            let family = match family {
                StudyFamily::Poisson => Family::Poisson,
                StudyFamily::NegativeBinomial => Family::NegativeBinomial { theta: 1.0 },
            };
            AnalysisResult::Glm(
                engine
                    .temperature()
                    .regression(*system, *predictor, *target, family)
                    .map(|fit| GlmSummary::from_fit(&fit))
                    .map_err(|e| e.to_string()),
            )
        }
        AnalysisRequest::CosmicCorrelation { system, class } => {
            let cosmic = engine.cosmic();
            AnalysisResult::Cosmic(CosmicSummary {
                months: cosmic.monthly_series(*system, *class).len(),
                pearson: cosmic.flux_correlation(*system, *class),
                spearman: cosmic.flux_rank_correlation(*system, *class),
            })
        }
        AnalysisRequest::RegressionStudy {
            system,
            family,
            exclude_node0,
        } => AnalysisResult::Glm(
            engine
                .regression()
                .fit(*system, *family, *exclude_node0)
                .map(|fit| GlmSummary::from_fit(&fit))
                .map_err(|e| e.to_string()),
        ),
        AnalysisRequest::ArrivalProfile { system, class } => AnalysisResult::Arrival(
            engine
                .arrivals()
                .profile(*system, *class)
                .map(|p| ArrivalSummary::from_profile(&p))
                .map_err(|e| e.to_string()),
        ),
        AnalysisRequest::AlarmEvaluation {
            group,
            trigger,
            window,
        } => AnalysisResult::Alarm(
            AlarmRule {
                trigger: *trigger,
                window: *window,
            }
            .evaluate_group(trace, *group),
        ),
        AnalysisRequest::CheckpointReplay { group, policy } => AnalysisResult::Checkpoint(
            CheckpointSimulator::typical().replay_group(trace, *group, *policy),
        ),
        AnalysisRequest::Availability { system } => {
            let availability = engine.availability();
            AnalysisResult::Availability(match system {
                Some(id) => availability.report(*id).into_iter().collect(),
                None => availability.all_reports(),
            })
        }
    }
}

#[test]
fn engine_matches_direct_calls_for_every_kind() {
    let trace = demo_trace();
    let engine = Engine::new(demo_trace());
    let reqs = requests((0, 0, 0));
    assert_eq!(
        reqs.iter().map(AnalysisRequest::kind).collect::<Vec<_>>(),
        REQUEST_KINDS.to_vec(),
        "the sample covers every request kind exactly once"
    );
    for request in reqs {
        let via_engine = engine.run(&request);
        let via_direct = direct(&trace, &engine, &request);
        assert_eq!(via_engine, via_direct, "values for {}", request.kind());
        assert_eq!(
            via_engine.to_json().pretty(),
            via_direct.to_json().pretty(),
            "bytes for {}",
            request.kind()
        );
    }
}

#[test]
fn warm_runs_equal_cold_runs() {
    let engine = Engine::new(demo_trace());
    for request in requests((1, 1, 1)) {
        let cold = engine.run(&request).to_json().pretty();
        for _ in 0..3 {
            assert_eq!(
                engine.run(&request).to_json().pretty(),
                cold,
                "repeat runs of {}",
                request.kind()
            );
        }
    }
}

/// The engine fingerprint is a function of record content, not of the
/// bytes the trace was loaded from: a trace round-tripped through CSV
/// and one round-tripped through a binary snapshot must share cache
/// keys and answer every request kind with identical bytes.
#[test]
fn csv_and_snapshot_loads_share_fingerprint_and_results() {
    use hpcfail_store::snapshot::{decode_snapshot, snapshot_bytes};

    let trace = demo_trace();
    let dir = std::env::temp_dir().join(format!("hpcfail-eq-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    hpcfail_store::csv::save_trace(&dir, &trace).unwrap();
    let (csv_trace, report) =
        hpcfail_store::ingest::load_trace_with(&dir, hpcfail_store::ingest::IngestPolicy::Strict)
            .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(report.quarantined.is_empty());
    let snap_trace = decode_snapshot(&snapshot_bytes(&trace)).unwrap();

    let direct_engine = Engine::new(trace);
    let csv_engine = Engine::new(csv_trace);
    let snap_engine = Engine::new(snap_trace);
    assert_eq!(direct_engine.fingerprint(), csv_engine.fingerprint());
    assert_eq!(csv_engine.fingerprint(), snap_engine.fingerprint());
    for request in requests((0, 0, 0)) {
        assert_eq!(
            csv_engine.run(&request).to_json().pretty(),
            snap_engine.run(&request).to_json().pretty(),
            "bytes for {}",
            request.kind()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn engine_equivalence_holds_across_parameters(
        class_ix in 0usize..4,
        window_ix in 0usize..3,
        scope_ix in 0usize..3,
    ) {
        let trace = demo_trace();
        let engine = Engine::new(demo_trace());
        for request in requests((class_ix, window_ix, scope_ix)) {
            let via_engine = engine.run(&request);
            let via_direct = direct(&trace, &engine, &request);
            prop_assert_eq!(
                via_engine.to_json().pretty(),
                via_direct.to_json().pretty(),
                "bytes for {}", request.kind()
            );
        }
    }

    #[test]
    fn wire_round_trip_is_lossless(
        class_ix in 0usize..4,
        window_ix in 0usize..3,
        scope_ix in 0usize..3,
    ) {
        for request in requests((class_ix, window_ix, scope_ix)) {
            let wire = request.canonical();
            let back = AnalysisRequest::parse(&wire).expect("parses back");
            prop_assert_eq!(&back, &request);
            prop_assert_eq!(back.canonical(), wire);
        }
    }
}

/// Scenario-pack corpora get the same guarantee as the LANL demo
/// fleet: on a trace generated from a pack, `Engine::run` must equal
/// the direct per-analysis calls byte-for-byte for every request kind,
/// including requests aimed at the pack's own system ids. This is what
/// lets the load harness treat pack traces and synthetic LANL traces
/// interchangeably.
#[test]
fn engine_equivalence_holds_on_scenario_pack_traces() {
    // cascading-power is the richest pack: job log, temperature
    // sensors, and scripted episodes all present.
    let scenario = hpcfail_synth::scenario::load("cascading-power").expect("builtin pack");
    let trace = scenario.generate().into_store();
    let engine = Engine::new(scenario.generate().into_store());
    let pack_system = SystemId::new(scenario.fleet().systems[0].id);
    for seed in [(0, 0, 0), (1, 2, 1)] {
        for request in requests_for(pack_system, seed) {
            let via_engine = engine.run(&request);
            let via_direct = direct(&trace, &engine, &request);
            assert_eq!(via_engine, via_direct, "values for {}", request.kind());
            assert_eq!(
                via_engine.to_json().pretty(),
                via_direct.to_json().pretty(),
                "bytes for {}",
                request.kind()
            );
        }
    }
}
