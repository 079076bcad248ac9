//! Differential tests for the two cold-path kernels, each against the
//! straightforward implementation it replaced:
//!
//! - checkpoint replay against a per-step replay that re-derives the
//!   adaptive flag at every step by scanning all of the node's failures
//!   and re-checking the trigger against the records;
//! - the indexed per-user table against a direct aggregation of the job
//!   log and a backward scan of per-node job intervals per failure row.
//!
//! Outcomes are compared field by field with `f64::to_bits`, so any
//! last-bit difference fails.

use hpcfail_core::checkpoint::{CheckpointOutcome, CheckpointPolicy, CheckpointSimulator};
use hpcfail_core::engine::Engine;
use hpcfail_core::predict::AlarmRule;
use hpcfail_core::users::UserStat;
use hpcfail_store::trace::{SystemTrace, SystemTraceBuilder, Trace};
use hpcfail_types::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeMap;

const NODES: u32 = 3;
const DAYS: f64 = 60.0;
const SPAN_SECS: i64 = 60 * 86_400;
const SYSTEM: u16 = 8;

// ---------------------------------------------------------------------
// Oracles
// ---------------------------------------------------------------------

/// Per-step replay of one system: the adaptive flag is recomputed at
/// every step from every failure of the node.
fn oracle_replay_system(
    sim: &CheckpointSimulator,
    system: &SystemTrace,
    policy: CheckpointPolicy,
) -> CheckpointOutcome {
    let span_hours = system.config().observation_span().as_seconds().max(0) as f64 / 3600.0;
    let mut total = zero();
    for node in system.nodes() {
        let o = oracle_replay_node(sim, system, node, span_hours, policy);
        total = CheckpointOutcome {
            checkpoint_hours: total.checkpoint_hours + o.checkpoint_hours,
            lost_hours: total.lost_hours + o.lost_hours,
            restart_hours: total.restart_hours + o.restart_hours,
            total_hours: total.total_hours + o.total_hours,
            failures: total.failures + o.failures,
        };
    }
    total
}

fn zero() -> CheckpointOutcome {
    CheckpointOutcome {
        checkpoint_hours: 0.0,
        lost_hours: 0.0,
        restart_hours: 0.0,
        total_hours: 0.0,
        failures: 0,
    }
}

fn oracle_replay_node(
    sim: &CheckpointSimulator,
    system: &SystemTrace,
    node: NodeId,
    span_hours: f64,
    policy: CheckpointPolicy,
) -> CheckpointOutcome {
    let start = system.config().start;
    let failure_hours: Vec<f64> = system
        .node_failures(node)
        .map(|f| (f.time - start).as_seconds() as f64 / 3600.0)
        .collect();

    let interval_at = |t: f64| -> f64 {
        match policy {
            CheckpointPolicy::Uniform { interval_hours } => interval_hours,
            CheckpointPolicy::Adaptive {
                base_hours,
                flagged_hours,
                rule,
            } => {
                let window_h = rule.window.duration().as_seconds() as f64 / 3600.0;
                let flagged = failure_hours.iter().any(|&fh| {
                    fh < t
                        && t <= fh + window_h
                        && system.node_failures(node).any(|f| {
                            rule.trigger.matches(&f)
                                && ((f.time - start).as_seconds() as f64 / 3600.0 - fh).abs() < 1e-9
                        })
                });
                if flagged {
                    flagged_hours
                } else {
                    base_hours
                }
            }
        }
    };

    let mut outcome = zero();
    outcome.total_hours = span_hours;
    let mut t = 0.0;
    let mut last_checkpoint = 0.0;
    let mut failure_iter = failure_hours.iter().copied().peekable();
    while t < span_hours {
        let interval = interval_at(t).max(0.01);
        let next_checkpoint = t + interval;
        match failure_iter.peek().copied() {
            Some(fail_at) if fail_at <= next_checkpoint && fail_at < span_hours => {
                failure_iter.next();
                outcome.failures += 1;
                outcome.lost_hours += (fail_at - last_checkpoint).max(0.0);
                outcome.restart_hours += sim.restart_cost_hours;
                t = fail_at + sim.restart_cost_hours;
                last_checkpoint = t;
            }
            _ => {
                if next_checkpoint >= span_hours {
                    break;
                }
                outcome.checkpoint_hours += sim.checkpoint_cost_hours;
                t = next_checkpoint + sim.checkpoint_cost_hours;
                last_checkpoint = t;
            }
        }
    }
    outcome
}

/// Direct per-user aggregation: job totals, then a backward scan of
/// each failed node's job intervals per failure row.
fn oracle_user_stats(system: &SystemTrace) -> Vec<UserStat> {
    if system.jobs().is_empty() {
        return Vec::new();
    }
    let mut stats: BTreeMap<UserId, UserStat> = BTreeMap::new();
    for job in system.jobs() {
        let entry = stats.entry(job.user).or_insert(UserStat {
            user: job.user,
            processor_days: 0.0,
            jobs: 0,
            node_failures: 0,
        });
        entry.processor_days += job.processor_days();
        entry.jobs += 1;
    }
    let nodes = system.config().nodes as usize;
    let mut intervals: Vec<Vec<(i64, i64, UserId)>> = vec![Vec::new(); nodes];
    let mut max_run = vec![0i64; nodes];
    for job in system.jobs() {
        let d = job.dispatch.as_seconds();
        let e = job.end.as_seconds();
        if e <= d {
            continue;
        }
        for &node in &job.nodes {
            if node.index() < nodes {
                intervals[node.index()].push((d, e, job.user));
                max_run[node.index()] = max_run[node.index()].max(e - d);
            }
        }
    }
    for list in &mut intervals {
        list.sort_unstable_by_key(|&(d, _, _)| d);
    }
    for f in system.failures() {
        let ni = f.node.index();
        if ni >= nodes {
            continue;
        }
        let t = f.time.as_seconds();
        let list = &intervals[ni];
        let idx = list.partition_point(|&(d, _, _)| d <= t);
        let earliest = t - max_run[ni];
        for &(d, e, user) in list[..idx].iter().rev() {
            if d < earliest {
                break;
            }
            if e > t {
                if let Some(entry) = stats.get_mut(&user) {
                    entry.node_failures += 1;
                }
            }
        }
    }
    stats.into_values().collect()
}

// ---------------------------------------------------------------------
// Random traces
// ---------------------------------------------------------------------

fn config() -> SystemConfig {
    SystemConfig {
        id: SystemId::new(SYSTEM),
        name: "oracle".into(),
        nodes: NODES,
        procs_per_node: 4,
        hardware: HardwareClass::Smp4Way,
        start: Timestamp::EPOCH,
        end: Timestamp::from_days(DAYS),
        has_layout: false,
        has_job_log: true,
        has_temperature: false,
    }
}

fn class_of(code: u8) -> (RootCause, SubCause) {
    match code % 6 {
        0 => (
            RootCause::Hardware,
            SubCause::Hardware(HardwareComponent::MemoryDimm),
        ),
        1 => (
            RootCause::Hardware,
            SubCause::Hardware(HardwareComponent::Cpu),
        ),
        2 => (RootCause::Software, SubCause::Software(SoftwareCause::Pfs)),
        3 => (RootCause::Network, SubCause::None),
        4 => (RootCause::Environment, SubCause::None),
        _ => (RootCause::Undetermined, SubCause::None),
    }
}

/// One raw failure draw: `(node, seconds, class, mode, jitter)`.
///
/// `mode` shapes the draw relative to the previous failure so that the
/// cases the replay must get right are common rather than rare:
/// 0–1 independent time (occasionally before the observation start),
/// 2 the same node and timestamp with another class, 3 inside the
/// restart window, 4 within a day (overlapping alarm windows).
type RawFailure = (u32, i64, u8, u8, i64);

fn arb_failures() -> impl Strategy<Value = Vec<RawFailure>> {
    prop::collection::vec(
        (
            0u32..NODES,
            -86_400i64..SPAN_SECS + 86_400,
            0u8..6,
            0u8..5,
            0i64..86_400,
        ),
        0..60,
    )
}

fn push_failures(b: &mut SystemTraceBuilder, raw: &[RawFailure]) {
    let mut prev: Option<(u32, i64, u8)> = None;
    for &(node, secs, class, mode, jitter) in raw {
        let (node, secs, class) = match (mode, prev) {
            (2, Some((pn, pt, pc))) => (pn, pt, pc.wrapping_add(1 + class % 5)),
            (3, Some((pn, pt, _))) => (pn, pt + jitter % 1_800, class),
            (4, Some((pn, pt, _))) => (pn, pt + jitter, class),
            _ => (node, secs, class),
        };
        let (root, sub) = class_of(class);
        b.push_failure(FailureRecord::new(
            SystemId::new(SYSTEM),
            NodeId::new(node),
            Timestamp::from_seconds(secs),
            root,
            sub,
        ));
        prev = Some((node, secs, class));
    }
}

fn failure_trace(raw: &[RawFailure]) -> Trace {
    let mut b = SystemTraceBuilder::new(config());
    push_failures(&mut b, raw);
    let mut trace = Trace::new();
    trace.insert_system(b.build());
    trace
}

const TRIGGERS: [FailureClass; 5] = [
    FailureClass::Any,
    FailureClass::Root(RootCause::Hardware),
    FailureClass::Root(RootCause::Network),
    FailureClass::Hw(HardwareComponent::MemoryDimm),
    FailureClass::Sw(SoftwareCause::Pfs),
];

/// `(checkpoint_cost, restart_cost)` pairs, including restarts shorter
/// than a checkpoint write (where replay time can step back).
const COSTS: [(f64, f64); 5] = [(0.1, 0.5), (0.5, 0.5), (1.0, 0.05), (0.0, 0.0), (0.25, 2.0)];

fn policy(kind: u8, base: f64, flagged: f64, trigger: u8, window: u8) -> CheckpointPolicy {
    if kind == 0 {
        CheckpointPolicy::Uniform {
            interval_hours: base,
        }
    } else {
        CheckpointPolicy::Adaptive {
            base_hours: base,
            flagged_hours: flagged,
            rule: AlarmRule {
                trigger: TRIGGERS[trigger as usize % TRIGGERS.len()],
                window: Window::ALL[window as usize % Window::ALL.len()],
            },
        }
    }
}

fn assert_same_outcome(
    new: CheckpointOutcome,
    old: CheckpointOutcome,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        new.checkpoint_hours.to_bits(),
        old.checkpoint_hours.to_bits()
    );
    prop_assert_eq!(new.lost_hours.to_bits(), old.lost_hours.to_bits());
    prop_assert_eq!(new.restart_hours.to_bits(), old.restart_hours.to_bits());
    prop_assert_eq!(new.total_hours.to_bits(), old.total_hours.to_bits());
    prop_assert_eq!(new.failures, old.failures);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn replay_matches_per_step_oracle(
        raw in arb_failures(),
        kind in 0u8..3,
        base in 0.005f64..30.0,
        flagged in 0.005f64..6.0,
        trigger in 0u8..5,
        window in 0u8..3,
        costs in 0usize..5,
    ) {
        let trace = failure_trace(&raw);
        let system = trace.system(SystemId::new(SYSTEM)).expect("system");
        let (checkpoint_cost_hours, restart_cost_hours) = COSTS[costs];
        let sim = CheckpointSimulator { checkpoint_cost_hours, restart_cost_hours };
        let policy = policy(kind, base, flagged, trigger, window);
        assert_same_outcome(
            sim.replay_system(system, policy),
            oracle_replay_system(&sim, system, policy),
        )?;
    }
}

#[test]
fn replay_matches_oracle_on_hand_built_edge_cases() {
    let hour = 3_600;
    // Node 0: a memory failure and a network failure at the same
    // second, a failure inside the restart window, and a burst whose
    // alarm windows overlap. Node 1: a failure before the start.
    let failures = [
        (
            0,
            10 * hour,
            RootCause::Hardware,
            SubCause::Hardware(HardwareComponent::MemoryDimm),
        ),
        (0, 10 * hour, RootCause::Network, SubCause::None),
        (0, 10 * hour + 600, RootCause::Software, SubCause::None),
        (
            0,
            30 * hour,
            RootCause::Hardware,
            SubCause::Hardware(HardwareComponent::Cpu),
        ),
        (0, 40 * hour, RootCause::Network, SubCause::None),
        (
            0,
            41 * hour,
            RootCause::Hardware,
            SubCause::Hardware(HardwareComponent::MemoryDimm),
        ),
        (1, -2 * hour, RootCause::Hardware, SubCause::None),
        (1, 5 * hour, RootCause::Hardware, SubCause::None),
    ];
    let mut b = SystemTraceBuilder::new(config());
    for (node, secs, root, sub) in failures {
        b.push_failure(FailureRecord::new(
            SystemId::new(SYSTEM),
            NodeId::new(node),
            Timestamp::from_seconds(secs),
            root,
            sub,
        ));
    }
    let system = b.build();
    for (checkpoint_cost_hours, restart_cost_hours) in COSTS {
        let sim = CheckpointSimulator {
            checkpoint_cost_hours,
            restart_cost_hours,
        };
        for trigger in TRIGGERS {
            for window in Window::ALL {
                for (base, flagged) in [(12.0, 0.5), (4.0, 2.0), (0.5, 6.0)] {
                    let policy = CheckpointPolicy::Adaptive {
                        base_hours: base,
                        flagged_hours: flagged,
                        rule: AlarmRule { trigger, window },
                    };
                    let new = sim.replay_system(&system, policy);
                    let old = oracle_replay_system(&sim, &system, policy);
                    assert_eq!(
                        (
                            new.checkpoint_hours.to_bits(),
                            new.lost_hours.to_bits(),
                            new.restart_hours.to_bits(),
                            new.failures
                        ),
                        (
                            old.checkpoint_hours.to_bits(),
                            old.lost_hours.to_bits(),
                            old.restart_hours.to_bits(),
                            old.failures
                        ),
                        "{policy:?} with costs ({checkpoint_cost_hours}, {restart_cost_hours})"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Per-user table
// ---------------------------------------------------------------------

/// One raw job draw: `(user, first node, width, dispatch, runtime, procs)`.
type RawJob = (u32, u32, u32, i64, i64, u32);

fn arb_jobs() -> impl Strategy<Value = Vec<RawJob>> {
    prop::collection::vec(
        (
            0u32..8,
            0u32..NODES,
            1u32..NODES + 1,
            -86_400i64..SPAN_SECS,
            -3_600i64..10 * 86_400,
            1u32..64,
        ),
        0..40,
    )
}

fn job_trace(jobs: &[RawJob], failures: &[RawFailure]) -> Trace {
    let mut b = SystemTraceBuilder::new(config());
    for (id, &(user, first, width, dispatch, runtime, procs)) in jobs.iter().enumerate() {
        b.push_job(JobRecord {
            system: SystemId::new(SYSTEM),
            job_id: JobId::new(id as u64),
            user: UserId::new(user),
            submit: Timestamp::from_seconds(dispatch - 60),
            dispatch: Timestamp::from_seconds(dispatch),
            end: Timestamp::from_seconds(dispatch + runtime),
            procs,
            nodes: (0..width)
                .map(|k| NodeId::new((first + k) % NODES))
                .collect(),
        });
    }
    push_failures(&mut b, failures);
    // Failures exactly at a job's dispatch or end second, where the
    // half-open occupancy interval decides attribution.
    for &(_, first, _, dispatch, runtime, procs) in jobs {
        let at = match procs % 3 {
            0 => dispatch,
            1 => dispatch + runtime,
            _ => continue,
        };
        b.push_failure(FailureRecord::new(
            SystemId::new(SYSTEM),
            NodeId::new(first),
            Timestamp::from_seconds(at),
            RootCause::Hardware,
            SubCause::None,
        ));
    }
    let mut trace = Trace::new();
    trace.insert_system(b.build());
    trace
}

fn assert_same_users(new: &[UserStat], old: &[UserStat]) -> Result<(), TestCaseError> {
    prop_assert_eq!(new.len(), old.len());
    for (n, o) in new.iter().zip(old) {
        prop_assert_eq!(n.user, o.user);
        prop_assert_eq!(n.processor_days.to_bits(), o.processor_days.to_bits());
        prop_assert_eq!(n.jobs, o.jobs);
        prop_assert_eq!(n.node_failures, o.node_failures);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn indexed_user_table_matches_direct_aggregation(
        jobs in arb_jobs(),
        failures in arb_failures(),
        k in 0usize..10,
    ) {
        let engine = Engine::new(job_trace(&jobs, &failures));
        let system = engine.trace().system(SystemId::new(SYSTEM)).expect("system");
        let oracle = oracle_user_stats(system);
        let users = engine.users();
        assert_same_users(&users.user_stats(SystemId::new(SYSTEM)), &oracle)?;

        let mut heaviest = oracle;
        heaviest.sort_by(|a, b| b.processor_days.total_cmp(&a.processor_days));
        heaviest.truncate(k);
        assert_same_users(&users.heaviest_users(SystemId::new(SYSTEM), k), &heaviest)?;
        // Served from the cache on the second ask, with the same bytes.
        assert_same_users(&users.heaviest_users(SystemId::new(SYSTEM), k), &heaviest)?;
    }
}
