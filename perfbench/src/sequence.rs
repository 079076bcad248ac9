//! Seeded request sequences for the serve workloads.
//!
//! Every analysis kind has a finite parameter space over the fleet's
//! systems, split into strata (per system, per checkpoint-policy
//! family, ...). A sequence of `n` distinct requests gives each kind an
//! equal quota, except that a kind whose whole space is smaller than
//! its share takes all of it and the remainder is shared out again
//! among the others (water-filling). Quotas depend only on `n` and the
//! fleet, never on the seed, so per-kind counts are fixed for a given
//! length. The seed picks which members of each large space are drawn,
//! round-robin across that kind's strata, and the interleaving of the
//! whole sequence.
//!
//! Job-log kinds address only systems with a job log, temperature kinds
//! only systems with sensors: requests the engine can only answer with
//! an empty result would dilute the cold path the workload measures.

use hpcfail_core::checkpoint::CheckpointPolicy;
use hpcfail_core::correlation::Scope;
use hpcfail_core::engine::AnalysisRequest;
use hpcfail_core::power::PowerProblem;
use hpcfail_core::predict::AlarmRule;
use hpcfail_core::regression_study::StudyFamily;
use hpcfail_core::temperature::TempPredictor;
use hpcfail_synth::spec::FleetSpec;
use hpcfail_types::failure::{FailureClass, RootCause};
use hpcfail_types::ids::{NodeId, SystemId};
use hpcfail_types::system::SystemGroup;
use hpcfail_types::time::Window;

/// What the sequence builder needs to know about one system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemInfo {
    /// System id.
    pub id: SystemId,
    /// Node count.
    pub nodes: u32,
    /// Carries a job log (usage and user analyses).
    pub jobs: bool,
    /// Carries temperature sensors.
    pub temperature: bool,
}

/// The systems of a fleet description (no generation needed).
pub fn systems(fleet: &FleetSpec) -> Vec<SystemInfo> {
    fleet
        .systems
        .iter()
        .map(|s| SystemInfo {
            id: SystemId::new(s.id),
            nodes: s.nodes,
            jobs: s.workload.is_some(),
            temperature: s.temperature.is_some(),
        })
        .collect()
}

/// splitmix64: a small, fixed generator, so sequences never change
/// underneath a recorded seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` on stream `stream` (streams keep the
    /// cold, hot and churn draws independent).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Draws ranks `0..n` with probability proportional to `1 / (rank + 1)`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A Zipf(1) distribution over `n > 0` ranks.
    pub fn new(n: usize) -> Self {
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                total += 1.0 / r as f64;
                total
            })
            .collect();
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// One rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

const CLASSES: [FailureClass; 6] = [
    FailureClass::Any,
    FailureClass::Root(RootCause::Hardware),
    FailureClass::Root(RootCause::Software),
    FailureClass::Root(RootCause::Network),
    FailureClass::Root(RootCause::HumanError),
    FailureClass::Root(RootCause::Environment),
];
const SCOPES: [Scope; 3] = [Scope::SameNode, Scope::SameRack, Scope::SameSystem];
const PROBLEMS: [PowerProblem; 4] = [
    PowerProblem::Outage,
    PowerProblem::Spike,
    PowerProblem::PowerSupply,
    PowerProblem::Ups,
];
const PREDICTORS: [TempPredictor; 3] = [
    TempPredictor::Average,
    TempPredictor::Maximum,
    TempPredictor::Variance,
];
const FAMILIES: [StudyFamily; 2] = [StudyFamily::Poisson, StudyFamily::NegativeBinomial];
/// Checkpoint intervals (hours) of the uniform policy.
const INTERVALS: [f64; 6] = [1.0, 2.0, 4.0, 8.0, 12.0, 24.0];
/// Base and flagged intervals (hours) of the adaptive policy.
const ADAPTIVE: [(f64, f64); 4] = [(4.0, 0.5), (4.0, 2.0), (12.0, 0.5), (12.0, 2.0)];
/// Largest `k` asked of `heaviest-users` (the paper examines 50).
const MAX_USERS: usize = 200;
/// Widest node set asked of `root-cause-shares`.
const MAX_SHARE_WIDTH: u32 = 4;

type Strata = Vec<Vec<AnalysisRequest>>;

fn per_system(systems: &[&SystemInfo], f: impl Fn(&SystemInfo) -> Vec<AnalysisRequest>) -> Strata {
    systems.iter().map(|s| f(s)).collect()
}

/// Every kind's parameter space, in `REQUEST_KINDS` order.
pub fn spaces(systems: &[SystemInfo]) -> Vec<(&'static str, Strata)> {
    use AnalysisRequest as R;
    let all: Vec<&SystemInfo> = systems.iter().collect();
    let jobs: Vec<&SystemInfo> = systems.iter().filter(|s| s.jobs).collect();
    let temps: Vec<&SystemInfo> = systems.iter().filter(|s| s.temperature).collect();
    let both: Vec<&SystemInfo> = systems.iter().filter(|s| s.jobs && s.temperature).collect();
    let mut conditional = Vec::new();
    let mut fleet = Vec::new();
    for trigger in CLASSES {
        for target in CLASSES {
            for window in Window::ALL {
                for scope in SCOPES {
                    for group in SystemGroup::ALL {
                        conditional.push(R::Conditional {
                            group,
                            trigger,
                            target,
                            window,
                            scope,
                        });
                    }
                    fleet.push(R::FleetConditional {
                        trigger,
                        target,
                        window,
                        scope,
                    });
                }
            }
        }
    }
    let mut same_type = Vec::new();
    let mut alarms = Vec::new();
    for group in SystemGroup::ALL {
        for window in Window::ALL {
            for scope in SCOPES {
                same_type.push(R::SameTypeSummaries {
                    group,
                    window,
                    scope,
                });
            }
            for trigger in CLASSES {
                alarms.push(R::AlarmEvaluation {
                    group,
                    trigger,
                    window,
                });
            }
        }
    }
    let mut checkpoint = Vec::new();
    for group in SystemGroup::ALL {
        checkpoint.push(
            INTERVALS
                .iter()
                .map(|&interval_hours| R::CheckpointReplay {
                    group,
                    policy: CheckpointPolicy::Uniform { interval_hours },
                })
                .collect(),
        );
        for window in Window::ALL {
            checkpoint.push(
                ADAPTIVE
                    .iter()
                    .map(|&(base_hours, flagged_hours)| R::CheckpointReplay {
                        group,
                        policy: CheckpointPolicy::Adaptive {
                            base_hours,
                            flagged_hours,
                            rule: AlarmRule {
                                trigger: FailureClass::Any,
                                window,
                            },
                        },
                    })
                    .collect(),
            );
        }
    }
    let mut power = Vec::new();
    for problem in PROBLEMS {
        for target in CLASSES {
            for window in Window::ALL {
                power.push(R::PowerConditional {
                    problem,
                    target,
                    window,
                });
            }
        }
    }
    let mut temperature = Vec::new();
    for s in &temps {
        for predictor in PREDICTORS {
            for target in CLASSES {
                for family in FAMILIES {
                    temperature.push(R::TemperatureRegression {
                        system: s.id,
                        predictor,
                        target,
                        family,
                    });
                }
            }
        }
    }
    let mut regression = Vec::new();
    for s in &both {
        for family in FAMILIES {
            for exclude_node0 in [false, true] {
                regression.push(R::RegressionStudy {
                    system: s.id,
                    family,
                    exclude_node0,
                });
            }
        }
    }
    let mut availability = vec![R::Availability { system: None }];
    availability.extend(all.iter().map(|s| R::Availability { system: Some(s.id) }));

    vec![
        ("trace-summary", vec![vec![R::TraceSummary]]),
        ("conditional", vec![conditional]),
        ("fleet-conditional", vec![fleet]),
        ("same-type-summaries", vec![same_type]),
        (
            "node-failure-counts",
            vec![all
                .iter()
                .map(|s| R::NodeFailureCounts { system: s.id })
                .collect()],
        ),
        (
            "equal-rates-test",
            per_system(&all, |s| {
                let mut v = Vec::new();
                for class in CLASSES {
                    for exclude_node0 in [false, true] {
                        v.push(R::EqualRatesTest {
                            system: s.id,
                            class,
                            exclude_node0,
                        });
                    }
                }
                v
            }),
        ),
        (
            "node-vs-rest",
            per_system(&all, |s| {
                let mut v = Vec::new();
                for node in 0..s.nodes {
                    for class in CLASSES {
                        for window in Window::ALL {
                            v.push(R::NodeVsRest {
                                system: s.id,
                                node: NodeId::new(node),
                                class,
                                window,
                            });
                        }
                    }
                }
                v
            }),
        ),
        (
            "root-cause-shares",
            per_system(&all, |s| {
                let mut v = Vec::new();
                for width in 1..=MAX_SHARE_WIDTH.min(s.nodes) {
                    for start in 0..=s.nodes - width {
                        v.push(R::RootCauseShares {
                            system: s.id,
                            nodes: (start..start + width).map(NodeId::new).collect(),
                        });
                    }
                }
                v
            }),
        ),
        (
            "usage-correlations",
            vec![jobs
                .iter()
                .map(|s| R::UsageCorrelations { system: s.id })
                .collect()],
        ),
        (
            "heaviest-users",
            per_system(&jobs, |s| {
                (1..=MAX_USERS)
                    .map(|k| R::HeaviestUsers { system: s.id, k })
                    .collect()
            }),
        ),
        ("env-breakdown", vec![vec![R::EnvBreakdown]]),
        ("power-conditional", vec![power]),
        (
            "maintenance-after-power",
            vec![PROBLEMS
                .iter()
                .map(|&problem| R::MaintenanceAfterPower { problem })
                .collect()],
        ),
        ("temperature-regression", vec![temperature]),
        (
            "cosmic-correlation",
            per_system(&all, |s| {
                CLASSES
                    .iter()
                    .map(|&class| R::CosmicCorrelation {
                        system: s.id,
                        class,
                    })
                    .collect()
            }),
        ),
        ("regression-study", vec![regression]),
        (
            "arrival-profile",
            per_system(&all, |s| {
                CLASSES
                    .iter()
                    .map(|&class| R::ArrivalProfile {
                        system: s.id,
                        class,
                    })
                    .collect()
            }),
        ),
        ("alarm-evaluation", vec![alarms]),
        ("checkpoint-replay", checkpoint),
        ("availability", vec![availability]),
    ]
}

/// Per-kind quotas for `n` requests over spaces of the given sizes:
/// equal shares, with kinds smaller than their share saturated and the
/// rest re-shared; leftover units go to the earliest open kinds.
pub fn quotas(sizes: &[usize], n: usize) -> Vec<usize> {
    let mut quota = vec![0; sizes.len()];
    let mut open: Vec<usize> = (0..sizes.len()).filter(|&k| sizes[k] > 0).collect();
    let mut remaining = n;
    while !open.is_empty() && remaining > 0 {
        let share = remaining / open.len();
        let saturated: Vec<usize> = open
            .iter()
            .copied()
            .filter(|&k| sizes[k] <= share)
            .collect();
        if saturated.is_empty() {
            let extra = remaining % open.len();
            for (j, &k) in open.iter().enumerate() {
                quota[k] = share + usize::from(j < extra);
            }
            break;
        }
        for &k in &saturated {
            quota[k] = sizes[k];
            remaining -= sizes[k];
        }
        open.retain(|k| !saturated.contains(k));
    }
    quota
}

/// `n` distinct requests over `systems`, drawn and ordered by `seed` on
/// `stream`.
///
/// # Panics
///
/// If the fleet's spaces hold fewer than `n` requests in total.
pub fn distinct_requests(
    systems: &[SystemInfo],
    seed: u64,
    stream: u64,
    n: usize,
) -> Vec<AnalysisRequest> {
    let spaces = spaces(systems);
    let sizes: Vec<usize> = spaces
        .iter()
        .map(|(_, strata)| strata.iter().map(Vec::len).sum())
        .collect();
    assert!(
        sizes.iter().sum::<usize>() >= n,
        "fleet has fewer than {n} distinct requests"
    );
    let quota = quotas(&sizes, n);
    let mut rng = Rng::new(seed, stream);
    let mut out = Vec::with_capacity(n);
    for ((_, mut strata), want) in spaces.into_iter().zip(quota) {
        for stratum in &mut strata {
            rng.shuffle(stratum);
        }
        rng.shuffle(&mut strata);
        let mut cursors = vec![0usize; strata.len()];
        let mut taken = 0;
        while taken < want {
            for (stratum, cursor) in strata.iter().zip(&mut cursors) {
                if taken < want && *cursor < stratum.len() {
                    out.push(stratum[*cursor].clone());
                    *cursor += 1;
                    taken += 1;
                }
            }
        }
    }
    rng.shuffle(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcfail_core::engine::REQUEST_KINDS;

    #[test]
    fn spaces_follow_the_request_kind_order() {
        let names: Vec<&str> = spaces(&systems(&FleetSpec::lanl()))
            .iter()
            .map(|(k, _)| *k)
            .collect();
        assert_eq!(names, REQUEST_KINDS);
        for (kind, strata) in spaces(&systems(&FleetSpec::lanl())) {
            for r in strata.iter().flatten() {
                assert_eq!(r.kind(), kind);
            }
        }
    }

    #[test]
    fn quotas_water_fill() {
        assert_eq!(quotas(&[1, 100, 100], 10), vec![1, 5, 4]);
        assert_eq!(quotas(&[2, 3, 100], 30), vec![2, 3, 25]);
        assert_eq!(quotas(&[5, 5], 20), vec![5, 5]);
        assert_eq!(quotas(&[0, 9], 4), vec![0, 4]);
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(8);
        let mut rng = Rng::new(1, 0);
        let mut counts = [0usize; 8];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[3] && counts[3] > counts[7]);
        assert!(counts.iter().all(|&c| c > 0));
    }
}
