//! Property-based tests for the trace store: window counting against a
//! brute-force oracle, the columnar query paths against row-struct
//! scans, snapshot round-trips, CSV round-trips over arbitrary records,
//! and usage-union invariants.

use hpcfail_store::csv;
use hpcfail_store::features::compute_usage;
use hpcfail_store::query::{covered_window_starts, BaselineEstimator, NodeEvents};
use hpcfail_store::snapshot::{decode_snapshot, snapshot_bytes};
use hpcfail_store::trace::{SystemTraceBuilder, Trace};
use hpcfail_types::prelude::*;
use proptest::prelude::*;

/// Brute-force oracle for [`covered_window_starts`].
fn brute_force(days: &[i64], total_days: i64, window: i64) -> u64 {
    let mut count = 0;
    for start in 0..=(total_days - window).max(-1) {
        if days.iter().any(|&d| d >= start && d < start + window) {
            count += 1;
        }
    }
    count
}

fn config(nodes: u32, days: i64) -> SystemConfig {
    SystemConfig {
        id: SystemId::new(1),
        name: "prop".into(),
        nodes,
        procs_per_node: 4,
        hardware: HardwareClass::Smp4Way,
        start: Timestamp::EPOCH,
        end: Timestamp::from_seconds(days * 86_400),
        has_layout: false,
        has_job_log: false,
        has_temperature: false,
    }
}

fn root_cause(i: u8) -> RootCause {
    match i % 6 {
        0 => RootCause::Environment,
        1 => RootCause::Hardware,
        2 => RootCause::HumanError,
        3 => RootCause::Network,
        4 => RootCause::Software,
        _ => RootCause::Undetermined,
    }
}

/// A sub-cause consistent with `root`, varied by `pick`, so the
/// columnar class codes see every namespace.
fn sub_cause(root: RootCause, pick: u8) -> SubCause {
    match (root, pick % 3) {
        (RootCause::Hardware, 0) => SubCause::Hardware(HardwareComponent::Cpu),
        (RootCause::Hardware, 1) => SubCause::Hardware(HardwareComponent::MemoryDimm),
        (RootCause::Software, 0) => SubCause::Software(SoftwareCause::Os),
        (RootCause::Software, 1) => SubCause::Software(SoftwareCause::Pfs),
        (RootCause::Environment, 0) => SubCause::Environment(EnvironmentCause::PowerOutage),
        (RootCause::Environment, 1) => SubCause::Environment(EnvironmentCause::Ups),
        _ => SubCause::None,
    }
}

/// The failure classes a query can restrict to, spanning `Any`, root
/// and sub-cause granularity.
const QUERY_CLASSES: &[FailureClass] = &[
    FailureClass::Any,
    FailureClass::Root(RootCause::Hardware),
    FailureClass::Root(RootCause::Software),
    FailureClass::Root(RootCause::Environment),
    FailureClass::Root(RootCause::Undetermined),
    FailureClass::Hw(HardwareComponent::Cpu),
    FailureClass::Hw(HardwareComponent::MemoryDimm),
    FailureClass::Sw(SoftwareCause::Os),
    FailureClass::Env(EnvironmentCause::PowerOutage),
];

fn build_trace(
    failures: &[(u32, i64, u8, u8)],
    maintenance: &[(u32, i64, u8)],
) -> hpcfail_store::trace::SystemTrace {
    let mut b = SystemTraceBuilder::new(config(5, 100));
    for &(node, sec, root, pick) in failures {
        let root = root_cause(root);
        b.push_failure(FailureRecord::new(
            SystemId::new(1),
            NodeId::new(node),
            Timestamp::from_seconds(sec),
            root,
            sub_cause(root, pick),
        ));
    }
    for &(node, sec, flags) in maintenance {
        b.push_maintenance(MaintenanceRecord {
            system: SystemId::new(1),
            node: NodeId::new(node),
            time: Timestamp::from_seconds(sec),
            hardware_related: flags & 2 != 0,
            scheduled: flags & 1 != 0,
        });
    }
    b.build()
}

proptest! {
    #[test]
    fn covered_starts_matches_brute_force(
        mut days in prop::collection::vec(0i64..60, 0..20),
        total in 1i64..70,
        window in 1i64..35,
    ) {
        days.sort_unstable();
        let fast = covered_window_starts(&days, total, window);
        let slow = brute_force(&days, total, window);
        prop_assert_eq!(fast, slow, "days {:?} total {} window {}", days, total, window);
    }

    #[test]
    fn baseline_probability_in_unit_interval(
        failures in prop::collection::vec((0u32..5, 0i64..100 * 86_400, 0u8..6), 0..60),
    ) {
        let mut b = SystemTraceBuilder::new(config(5, 100));
        for &(node, sec, root) in &failures {
            b.push_failure(FailureRecord::new(
                SystemId::new(1),
                NodeId::new(node),
                Timestamp::from_seconds(sec),
                root_cause(root),
                SubCause::None,
            ));
        }
        let t = b.build();
        let est = BaselineEstimator::new(&t);
        for window in Window::ALL {
            let c = est.failure_probability(FailureClass::Any, window);
            prop_assert!(c.hits <= c.total);
            // Longer windows can only raise the per-window hit probability.
        }
        let day = est.failure_probability(FailureClass::Any, Window::Day).probability();
        let month = est.failure_probability(FailureClass::Any, Window::Month).probability();
        prop_assert!(month >= day - 1e-12, "month {month} < day {day}");
    }

    #[test]
    fn window_query_matches_linear_scan(
        failures in prop::collection::vec((0i64..50 * 86_400, 0u8..6), 0..40),
        after in 0i64..50 * 86_400,
        span in 1i64..20 * 86_400,
    ) {
        let mut b = SystemTraceBuilder::new(config(1, 50));
        for &(sec, root) in &failures {
            b.push_failure(FailureRecord::new(
                SystemId::new(1),
                NodeId::new(0),
                Timestamp::from_seconds(sec),
                root_cause(root),
                SubCause::None,
            ));
        }
        let t = b.build();
        let node = NodeId::new(0);
        let t0 = Timestamp::from_seconds(after);
        let t1 = Timestamp::from_seconds(after + span);
        let fast = t.node_has_failure_in(node, FailureClass::Any, t0, t1);
        let slow = failures.iter().any(|&(sec, _)| sec > after && sec <= after + span);
        prop_assert_eq!(fast, slow);
        let fast_count = t.node_failures_in(node, FailureClass::Any, t0, t1);
        let slow_count =
            failures.iter().filter(|&&(sec, _)| sec > after && sec <= after + span).count();
        prop_assert_eq!(fast_count, slow_count);
    }

    #[test]
    fn indexed_paths_match_direct_scan(
        failures in prop::collection::vec((0u32..5, 0i64..100 * 86_400, 0u8..6), 0..60),
        maintenance in prop::collection::vec((0u32..5, 0i64..100 * 86_400, 0u8..2), 0..20),
    ) {
        let mut b = SystemTraceBuilder::new(config(5, 100));
        for &(node, sec, root) in &failures {
            b.push_failure(FailureRecord::new(
                SystemId::new(1),
                NodeId::new(node),
                Timestamp::from_seconds(sec),
                root_cause(root),
                SubCause::None,
            ));
        }
        for &(node, sec, scheduled) in &maintenance {
            b.push_maintenance(MaintenanceRecord {
                system: SystemId::new(1),
                node: NodeId::new(node),
                time: Timestamp::from_seconds(sec),
                hardware_related: true,
                scheduled: scheduled == 1,
            });
        }
        let t = b.build();
        let est = BaselineEstimator::new(&t);
        let events = NodeEvents::new(&t);
        let classes = [
            FailureClass::Any,
            FailureClass::Root(RootCause::Hardware),
            FailureClass::Root(RootCause::Software),
            FailureClass::Root(RootCause::Environment),
        ];
        for class in classes {
            for window in Window::ALL {
                prop_assert_eq!(
                    t.indexed_failure_baseline(class, window),
                    est.failure_probability(class, window),
                    "baseline mismatch for {:?} {:?}", class, window
                );
                for node in t.nodes() {
                    prop_assert_eq!(
                        t.indexed_node_failure_baseline(node, class, window),
                        est.node_failure_probability(node, class, window),
                        "node baseline mismatch for {:?} {:?} {:?}", node, class, window
                    );
                }
            }
            for node in t.nodes() {
                let indexed = t.indexed_failure_days(node, class);
                let direct = events.failure_days(node, class);
                prop_assert_eq!(
                    indexed.as_slice(), direct.as_slice(),
                    "day vector mismatch for {:?} {:?}", node, class
                );
            }
        }
        for window in Window::ALL {
            prop_assert_eq!(
                t.indexed_maintenance_baseline(window),
                est.maintenance_probability(window),
                "maintenance baseline mismatch for {:?}", window
            );
        }
        for node in t.nodes() {
            let indexed = t.indexed_maintenance_days(node);
            let direct = events.unscheduled_hw_maintenance_days(node);
            prop_assert_eq!(
                indexed.as_slice(), direct.as_slice(),
                "maintenance days mismatch for {:?}", node
            );
        }
    }

    /// Differential test of the columnar query paths: every class
    /// granularity (any / root / sub-cause), every node, against plain
    /// scans over the decoded row structs.
    #[test]
    fn columnar_queries_match_row_scans(
        failures in prop::collection::vec(
            (0u32..5, 0i64..100 * 86_400, 0u8..6, 0u8..3), 0..60),
        maintenance in prop::collection::vec(
            (0u32..5, 0i64..100 * 86_400, 0u8..4), 0..20),
        after in 0i64..100 * 86_400,
        span in 1i64..30 * 86_400,
    ) {
        let t = build_trace(&failures, &maintenance);
        let events = NodeEvents::new(&t);
        let rows: Vec<FailureRecord> = t.failures().collect();
        let t0 = Timestamp::from_seconds(after);
        let t1 = Timestamp::from_seconds(after + span);
        for &class in QUERY_CLASSES {
            for node in t.nodes() {
                let mut oracle_days: Vec<i64> = rows
                    .iter()
                    .filter(|r| r.node == node && class.matches(r))
                    .map(|r| r.time.day_index())
                    .collect();
                oracle_days.sort_unstable();
                oracle_days.dedup();
                prop_assert_eq!(
                    events.failure_days(node, class),
                    oracle_days,
                    "day vector mismatch for {:?} {:?}", node, class
                );
                let oracle_count = rows
                    .iter()
                    .filter(|r| {
                        r.node == node && class.matches(r) && r.time > t0 && r.time <= t1
                    })
                    .count();
                prop_assert_eq!(
                    t.node_failures_in(node, class, t0, t1),
                    oracle_count,
                    "window count mismatch for {:?} {:?}", node, class
                );
                prop_assert_eq!(
                    t.node_has_failure_in(node, class, t0, t1),
                    oracle_count > 0,
                    "window presence mismatch for {:?} {:?}", node, class
                );
            }
        }
        for node in t.nodes() {
            let mut oracle_days: Vec<i64> = t
                .maintenance()
                .filter(|m| m.node == node && m.hardware_related && !m.scheduled)
                .map(|m| m.time.day_index())
                .collect();
            oracle_days.sort_unstable();
            oracle_days.dedup();
            prop_assert_eq!(
                events.unscheduled_hw_maintenance_days(node),
                oracle_days,
                "maintenance day mismatch for {:?}", node
            );
        }
    }

    /// A snapshot round trip reproduces the exact row structs and the
    /// same answers to every query granularity.
    #[test]
    fn snapshot_round_trip_is_lossless(
        failures in prop::collection::vec(
            (0u32..5, 0i64..100 * 86_400, 0u8..6, 0u8..3), 0..60),
        maintenance in prop::collection::vec(
            (0u32..5, 0i64..100 * 86_400, 0u8..4), 0..20),
    ) {
        let mut trace = Trace::new();
        trace.insert_system(build_trace(&failures, &maintenance));
        let restored = decode_snapshot(&snapshot_bytes(&trace)).expect("round trip");
        let before = trace.system(SystemId::new(1)).unwrap();
        let system = restored.system(SystemId::new(1)).unwrap();
        prop_assert_eq!(
            before.failures().collect::<Vec<_>>(),
            system.failures().collect::<Vec<_>>()
        );
        prop_assert_eq!(
            before.maintenance().collect::<Vec<_>>(),
            system.maintenance().collect::<Vec<_>>()
        );
        let a = BaselineEstimator::new(before);
        let b = BaselineEstimator::new(system);
        for &class in QUERY_CLASSES {
            for window in Window::ALL {
                prop_assert_eq!(
                    a.failure_probability(class, window),
                    b.failure_probability(class, window),
                    "baseline mismatch for {:?} {:?}", class, window
                );
            }
        }
        for window in Window::ALL {
            prop_assert_eq!(
                a.maintenance_probability(window),
                b.maintenance_probability(window)
            );
        }
    }

    #[test]
    fn failures_roundtrip_csv(
        records in prop::collection::vec(
            (0u32..64, 0i64..10_000_000, 0u8..6, prop::option::of(1i64..100_000)),
            0..40,
        ),
    ) {
        let failures: Vec<FailureRecord> = records
            .iter()
            .map(|&(node, sec, root, downtime)| {
                let mut r = FailureRecord::new(
                    SystemId::new(7),
                    NodeId::new(node),
                    Timestamp::from_seconds(sec),
                    root_cause(root),
                    SubCause::None,
                );
                if let Some(d) = downtime {
                    r = r.with_downtime(Duration::from_seconds(d));
                }
                r
            })
            .collect();
        let mut buf = Vec::new();
        csv::write_failures(&mut buf, &failures).expect("in-memory write");
        let parsed = csv::read_failures(&buf[..]).expect("parse back");
        prop_assert_eq!(parsed, failures);
    }

    #[test]
    fn jobs_roundtrip_csv(
        jobs in prop::collection::vec(
            (0u32..500, 0i64..1_000_000, 1i64..100_000, 1u32..64, prop::collection::vec(0u32..64, 1..5)),
            0..25,
        ),
    ) {
        let records: Vec<JobRecord> = jobs
            .iter()
            .enumerate()
            .map(|(i, (user, submit, run, procs, nodes))| JobRecord {
                system: SystemId::new(8),
                job_id: JobId::new(i as u64),
                user: UserId::new(*user),
                submit: Timestamp::from_seconds(*submit),
                dispatch: Timestamp::from_seconds(*submit + 60),
                end: Timestamp::from_seconds(*submit + 60 + *run),
                procs: *procs,
                nodes: nodes.iter().map(|&n| NodeId::new(n)).collect(),
            })
            .collect();
        let mut buf = Vec::new();
        csv::write_jobs(&mut buf, &records).expect("in-memory write");
        prop_assert_eq!(csv::read_jobs(&buf[..]).expect("parse back"), records);
    }

    #[test]
    fn utilization_bounded_by_one(
        jobs in prop::collection::vec((0u32..4, 0i64..90, 1i64..40), 0..30),
    ) {
        let mut b = SystemTraceBuilder::new(config(4, 100));
        for (i, &(node, start, len)) in jobs.iter().enumerate() {
            b.push_job(JobRecord {
                system: SystemId::new(1),
                job_id: JobId::new(i as u64),
                user: UserId::new(0),
                submit: Timestamp::from_days(start as f64),
                dispatch: Timestamp::from_days(start as f64),
                end: Timestamp::from_days((start + len) as f64),
                procs: 4,
                nodes: vec![NodeId::new(node)],
            });
        }
        let t = b.build();
        for u in compute_usage(&t) {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&u.utilization));
            prop_assert!(u.busy.as_seconds() <= 100 * 86_400);
        }
    }
}
