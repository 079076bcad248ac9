//! Availability reporting: MTBF, MTTR and downtime breakdowns.
//!
//! The LANL records carry repair/downtime durations; a reliability
//! toolkit should turn them into the numbers operators actually quote —
//! mean time between failures, mean time to repair, availability, and
//! which root causes cost the most downtime.

use hpcfail_store::columns::NO_DOWNTIME;
use hpcfail_store::trace::Trace;
use hpcfail_types::prelude::*;
use std::collections::BTreeMap;

/// One system's availability summary.
#[derive(Debug, Clone, PartialEq)]
pub struct AvailabilityReport {
    /// The system.
    pub system: SystemId,
    /// Failures with downtime information.
    pub failures_with_downtime: u64,
    /// All failures.
    pub failures: u64,
    /// Mean time between failures per node, in hours
    /// (node-hours of observation / failures).
    pub node_mtbf_hours: f64,
    /// Mean time to repair, in hours (over failures with downtime).
    pub mttr_hours: f64,
    /// Fraction of node-time the system was up:
    /// `1 - total downtime / total node-time`.
    pub availability: f64,
    /// Node-hours of downtime attributed to each root cause.
    pub downtime_by_root: BTreeMap<RootCause, f64>,
}

impl AvailabilityReport {
    /// The root cause with the largest downtime bill.
    pub fn costliest_root_cause(&self) -> Option<RootCause> {
        self.downtime_by_root
            .iter()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(&root, _)| root)
    }

    /// "Nines" of availability, e.g. 2.0 for 99%.
    pub fn nines(&self) -> f64 {
        if self.availability >= 1.0 {
            f64::INFINITY
        } else {
            -(1.0 - self.availability).log10()
        }
    }
}

/// The availability analysis over a trace.
#[derive(Debug, Clone, Copy)]
pub struct AvailabilityAnalysis<'a> {
    trace: &'a Trace,
}

impl<'a> AvailabilityAnalysis<'a> {
    /// Engine-internal constructor: the public entry point is
    /// [`crate::engine::Engine::availability`].
    pub(crate) fn over(trace: &'a Trace) -> Self {
        AvailabilityAnalysis { trace }
    }

    /// The availability report for one system, or `None` for unknown
    /// systems or systems with no observation time.
    pub fn report(&self, system: SystemId) -> Option<AvailabilityReport> {
        let s = self.trace.system(system)?;
        let config = s.config();
        let node_hours =
            config.nodes as f64 * config.observation_span().as_seconds().max(0) as f64 / 3600.0;
        if node_hours <= 0.0 {
            return None;
        }
        let cols = s.failure_columns();
        let failures = cols.len() as u64;
        let mut with_downtime = 0u64;
        let mut downtime_hours = 0.0;
        let mut by_root: BTreeMap<RootCause, f64> = BTreeMap::new();
        for (i, &seconds) in cols.downtimes().iter().enumerate() {
            if seconds != NO_DOWNTIME {
                with_downtime += 1;
                let h = seconds.max(0) as f64 / 3600.0;
                downtime_hours += h;
                *by_root.entry(cols.root(i)).or_insert(0.0) += h;
            }
        }
        Some(AvailabilityReport {
            system,
            failures_with_downtime: with_downtime,
            failures,
            node_mtbf_hours: if failures == 0 {
                f64::INFINITY
            } else {
                node_hours / failures as f64
            },
            mttr_hours: if with_downtime == 0 {
                0.0
            } else {
                downtime_hours / with_downtime as f64
            },
            availability: (1.0 - downtime_hours / node_hours).clamp(0.0, 1.0),
            downtime_by_root: by_root,
        })
    }

    /// Reports for every system, in id order.
    pub fn all_reports(&self) -> Vec<AvailabilityReport> {
        self.trace
            .systems()
            .filter_map(|s| self.report(s.id()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcfail_store::trace::SystemTraceBuilder;

    fn build() -> Trace {
        let config = SystemConfig {
            id: SystemId::new(20),
            name: "t".into(),
            nodes: 10,
            procs_per_node: 4,
            hardware: HardwareClass::Smp4Way,
            start: Timestamp::EPOCH,
            end: Timestamp::from_days(100.0),
            has_layout: false,
            has_job_log: false,
            has_temperature: false,
        };
        let mut b = SystemTraceBuilder::new(config);
        let sys = SystemId::new(20);
        // 4 failures: 2 hardware (2h + 4h down), 1 software (6h),
        // 1 network without downtime info.
        b.push_failure(
            FailureRecord::new(
                sys,
                NodeId::new(0),
                Timestamp::from_days(10.0),
                RootCause::Hardware,
                SubCause::None,
            )
            .with_downtime(Duration::from_hours(2.0)),
        );
        b.push_failure(
            FailureRecord::new(
                sys,
                NodeId::new(1),
                Timestamp::from_days(20.0),
                RootCause::Hardware,
                SubCause::None,
            )
            .with_downtime(Duration::from_hours(4.0)),
        );
        b.push_failure(
            FailureRecord::new(
                sys,
                NodeId::new(2),
                Timestamp::from_days(30.0),
                RootCause::Software,
                SubCause::None,
            )
            .with_downtime(Duration::from_hours(6.0)),
        );
        b.push_failure(FailureRecord::new(
            sys,
            NodeId::new(3),
            Timestamp::from_days(40.0),
            RootCause::Network,
            SubCause::None,
        ));
        let mut trace = Trace::new();
        trace.insert_system(b.build());
        trace
    }

    #[test]
    fn report_by_hand() {
        let trace = build();
        let r = AvailabilityAnalysis::over(&trace)
            .report(SystemId::new(20))
            .unwrap();
        assert_eq!(r.failures, 4);
        assert_eq!(r.failures_with_downtime, 3);
        // 10 nodes * 2400 hours / 4 failures.
        assert!((r.node_mtbf_hours - 6000.0).abs() < 1e-9);
        assert!((r.mttr_hours - 4.0).abs() < 1e-9);
        // 12 hours down of 24,000 node-hours.
        assert!((r.availability - (1.0 - 12.0 / 24_000.0)).abs() < 1e-12);
        assert_eq!(r.costliest_root_cause(), Some(RootCause::Software));
        assert!((r.downtime_by_root[&RootCause::Hardware] - 6.0).abs() < 1e-9);
    }

    #[test]
    fn nines_computation() {
        let trace = build();
        let r = AvailabilityAnalysis::over(&trace)
            .report(SystemId::new(20))
            .unwrap();
        // availability 0.9995 -> ~3.3 nines.
        assert!(r.nines() > 3.0 && r.nines() < 4.0, "nines {}", r.nines());
    }

    #[test]
    fn empty_system_handled() {
        let config = SystemConfig {
            id: SystemId::new(9),
            name: "empty".into(),
            nodes: 4,
            procs_per_node: 4,
            hardware: HardwareClass::Smp4Way,
            start: Timestamp::EPOCH,
            end: Timestamp::from_days(10.0),
            has_layout: false,
            has_job_log: false,
            has_temperature: false,
        };
        let mut trace = Trace::new();
        trace.insert_system(SystemTraceBuilder::new(config).build());
        let r = AvailabilityAnalysis::over(&trace)
            .report(SystemId::new(9))
            .unwrap();
        assert_eq!(r.failures, 0);
        assert!(r.node_mtbf_hours.is_infinite());
        assert_eq!(r.availability, 1.0);
        assert!(r.costliest_root_cause().is_none());
        assert!(r.nines().is_infinite());
    }

    #[test]
    fn unknown_system_none() {
        let trace = build();
        assert!(AvailabilityAnalysis::over(&trace)
            .report(SystemId::new(99))
            .is_none());
        assert_eq!(AvailabilityAnalysis::over(&trace).all_reports().len(), 1);
    }
}
