//! Section IV: do some nodes in a system fail differently from others?
//!
//! Covers Figure 4 (failures per node id + chi-square test of equal
//! rates), Figure 5 (root-cause breakdown of failure-prone nodes vs the
//! rest) and Figure 6 (per-type day/week/month failure probabilities of
//! node 0 vs the rest).

use hpcfail_stats::htest::{chi_square_equal_proportions, TestResult};
use hpcfail_stats::proportion::Proportion;
use hpcfail_store::columns::ClassCode;
use hpcfail_store::trace::{SystemTrace, Trace};
use hpcfail_types::prelude::*;
use std::collections::BTreeMap;

/// Comparison of one node's failure probability against the pooled rest
/// of the system (one pair of bars in Figure 6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeVsRest {
    /// The singled-out node's probability of a class failure in a
    /// random window.
    pub node: Proportion,
    /// The pooled probability over every other node.
    pub rest: Proportion,
}

impl NodeVsRest {
    /// Factor increase of the node over the rest (the "1926x" style
    /// annotations); `None` when the rest never fails.
    pub fn factor(&self) -> Option<f64> {
        self.node.factor_over(self.rest)
    }
}

/// The Section IV node-heterogeneity analysis.
#[derive(Debug, Clone, Copy)]
pub struct NodeAnalysis<'a> {
    trace: &'a Trace,
}

impl<'a> NodeAnalysis<'a> {
    /// Engine-internal constructor: the public entry point is
    /// [`crate::engine::Engine::nodes`].
    pub(crate) fn over(trace: &'a Trace) -> Self {
        NodeAnalysis { trace }
    }

    fn system(&self, id: SystemId) -> Option<&'a SystemTrace> {
        self.trace.system(id)
    }

    /// Figure 4: total failures per node id.
    pub fn failure_counts(&self, system: SystemId) -> Vec<u64> {
        match self.system(system) {
            Some(s) => s.nodes().map(|n| s.node_failure_count(n) as u64).collect(),
            None => Vec::new(),
        }
    }

    /// The node with the most failures.
    pub fn most_failure_prone(&self, system: SystemId) -> Option<NodeId> {
        let s = self.system(system)?;
        s.nodes().max_by_key(|&n| s.node_failure_count(n))
    }

    /// Chi-square test of "all nodes fail at equal rates", optionally
    /// excluding some nodes (the paper repeats the test without
    /// node 0). Counts failures of `class` only.
    ///
    /// Returns `None` when fewer than two nodes remain.
    pub fn equal_rates_test(
        &self,
        system: SystemId,
        class: FailureClass,
        exclude: &[NodeId],
    ) -> Option<TestResult> {
        let s = self.system(system)?;
        let (cols, code) = (s.failure_columns(), ClassCode::new(class));
        let counts: Vec<f64> = s
            .nodes()
            .filter(|n| !exclude.contains(n))
            .map(|n| cols.node_count_matching(n, code) as f64)
            .collect();
        if counts.len() < 2 {
            return None;
        }
        let exposure = vec![1.0; counts.len()];
        Some(chi_square_equal_proportions(&counts, &exposure))
    }

    /// Figure 5: relative root-cause breakdown (shares summing to 1)
    /// over a set of nodes. Pass a single node for the node-0 bar or
    /// all other nodes for the system bar.
    pub fn root_cause_shares(
        &self,
        system: SystemId,
        nodes: &[NodeId],
    ) -> BTreeMap<RootCause, f64> {
        let Some(s) = self.system(system) else {
            return BTreeMap::new();
        };
        let cols = s.failure_columns();
        let mut counts: BTreeMap<RootCause, u64> = BTreeMap::new();
        let mut total = 0u64;
        for &n in nodes {
            for &i in cols.node_postings(n) {
                *counts.entry(cols.root(i as usize)).or_insert(0) += 1;
                total += 1;
            }
        }
        counts
            .into_iter()
            .map(|(root, c)| {
                (
                    root,
                    if total == 0 {
                        0.0
                    } else {
                        c as f64 / total as f64
                    },
                )
            })
            .collect()
    }

    /// Figure 6: probability of a `class` failure in a random window for
    /// `node` versus the pooled rest of the system.
    pub fn node_vs_rest(
        &self,
        system: SystemId,
        node: NodeId,
        class: FailureClass,
        window: Window,
    ) -> NodeVsRest {
        let Some(s) = self.system(system) else {
            return NodeVsRest {
                node: Proportion::EMPTY,
                rest: Proportion::EMPTY,
            };
        };
        let own = s.indexed_node_failure_baseline(node, class, window);
        // Rest-of-system = memoized full baseline minus the node's own
        // counts — an exact integer identity, so no per-node rescan.
        // Guard the out-of-range case: a node outside the system
        // contributes nothing, so "rest" is the full baseline.
        let full = s.indexed_failure_baseline(class, window);
        let rest = if node.raw() < s.config().nodes {
            hpcfail_store::query::WindowCounts {
                hits: full.hits - own.hits,
                total: full.total - own.total,
            }
        } else {
            full
        };
        NodeVsRest {
            node: Proportion::new(own.hits, own.total),
            rest: Proportion::new(rest.hits, rest.total),
        }
    }

    /// All nodes except `node` — the paper's "rest of nodes".
    pub fn rest_of(&self, system: SystemId, node: NodeId) -> Vec<NodeId> {
        match self.system(system) {
            Some(s) => s.nodes().filter(|&n| n != node).collect(),
            None => Vec::new(),
        }
    }

    /// Section IV-C: does a node's *position inside the rack* predict
    /// its failure rate? Chi-square over position groups (1 = bottom),
    /// pooling node failure counts per position. Node 0 is excluded —
    /// its login role would masquerade as a position effect.
    ///
    /// Returns `None` without a layout or with fewer than two occupied
    /// positions. The paper "could not find any clear patterns".
    pub fn position_in_rack_effect(&self, system: SystemId) -> Option<TestResult> {
        self.location_effect(system, |loc| loc.position_in_rack as u32)
    }

    /// Section IV-C: does the rack's *machine-room row* predict failure
    /// rates? Same construction as
    /// [`NodeAnalysis::position_in_rack_effect`].
    pub fn room_row_effect(&self, system: SystemId) -> Option<TestResult> {
        self.location_effect(system, |loc| loc.room_row as u32)
    }

    fn location_effect(
        &self,
        system: SystemId,
        group_of: impl Fn(&hpcfail_types::layout::NodeLocation) -> u32,
    ) -> Option<TestResult> {
        let s = self.system(system)?;
        let layout = s.layout()?;
        let mut counts: std::collections::BTreeMap<u32, (f64, f64)> =
            std::collections::BTreeMap::new();
        for node in s.nodes().filter(|&n| n != NodeId::new(0)) {
            let Some(loc) = layout.location(node) else {
                continue;
            };
            let entry = counts.entry(group_of(&loc)).or_insert((0.0, 0.0));
            entry.0 += s.node_failure_count(node) as f64;
            entry.1 += 1.0;
        }
        if counts.len() < 2 {
            return None;
        }
        let failures: Vec<f64> = counts.values().map(|&(f, _)| f).collect();
        let exposure: Vec<f64> = counts.values().map(|&(_, n)| n).collect();
        if exposure.contains(&0.0) {
            return None;
        }
        Some(chi_square_equal_proportions(&failures, &exposure))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcfail_store::trace::SystemTraceBuilder;

    fn build(failures: &[(u32, f64, RootCause)]) -> Trace {
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
        for &(node, day, root) in failures {
            b.push_failure(FailureRecord::new(
                SystemId::new(20),
                NodeId::new(node),
                Timestamp::from_days(day),
                root,
                SubCause::None,
            ));
        }
        let mut trace = Trace::new();
        trace.insert_system(b.build());
        trace
    }

    fn skewed_trace() -> Trace {
        // Node 0 fails 20 times; the rest once each.
        let mut failures = Vec::new();
        for i in 0..20 {
            failures.push((0u32, 1.0 + i as f64 * 4.0, RootCause::Software));
        }
        for n in 1..10u32 {
            failures.push((n, 5.0 * n as f64, RootCause::Hardware));
        }
        build(&failures)
    }

    #[test]
    fn failure_counts_per_node() {
        let trace = skewed_trace();
        let a = NodeAnalysis::over(&trace);
        let counts = a.failure_counts(SystemId::new(20));
        assert_eq!(counts.len(), 10);
        assert_eq!(counts[0], 20);
        assert!(counts[1..].iter().all(|&c| c == 1));
        assert_eq!(
            a.most_failure_prone(SystemId::new(20)),
            Some(NodeId::new(0))
        );
    }

    #[test]
    fn equal_rates_rejected_then_not() {
        let trace = skewed_trace();
        let a = NodeAnalysis::over(&trace);
        let all = a
            .equal_rates_test(SystemId::new(20), FailureClass::Any, &[])
            .unwrap();
        assert!(all.significant_at(0.01));
        // Without node 0 the rest are uniform.
        let rest = a
            .equal_rates_test(SystemId::new(20), FailureClass::Any, &[NodeId::new(0)])
            .unwrap();
        assert!(!rest.significant_at(0.05));
    }

    #[test]
    fn root_cause_shares_shift() {
        let trace = skewed_trace();
        let a = NodeAnalysis::over(&trace);
        let node0 = a.root_cause_shares(SystemId::new(20), &[NodeId::new(0)]);
        let rest = a.root_cause_shares(
            SystemId::new(20),
            &a.rest_of(SystemId::new(20), NodeId::new(0)),
        );
        // Node 0 is all software; the rest all hardware.
        assert_eq!(node0[&RootCause::Software], 1.0);
        assert_eq!(rest[&RootCause::Hardware], 1.0);
    }

    #[test]
    fn shares_sum_to_one() {
        let trace = skewed_trace();
        let a = NodeAnalysis::over(&trace);
        let all_nodes: Vec<NodeId> = (0..10).map(NodeId::new).collect();
        let shares = a.root_cause_shares(SystemId::new(20), &all_nodes);
        let total: f64 = shares.values().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn node_vs_rest_probabilities() {
        let trace = skewed_trace();
        let a = NodeAnalysis::over(&trace);
        let cmp = a.node_vs_rest(
            SystemId::new(20),
            NodeId::new(0),
            FailureClass::Any,
            Window::Day,
        );
        // Node 0: 20 distinct failure days of 100 windows.
        assert_eq!(cmp.node.successes(), 20);
        assert_eq!(cmp.node.trials(), 100);
        // Rest: 9 failures over 900 windows.
        assert_eq!(cmp.rest.successes(), 9);
        assert_eq!(cmp.rest.trials(), 900);
        assert!((cmp.factor().unwrap() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn per_type_test_only_where_type_skews() {
        let trace = skewed_trace();
        let a = NodeAnalysis::over(&trace);
        let sw = a
            .equal_rates_test(
                SystemId::new(20),
                FailureClass::Root(RootCause::Software),
                &[],
            )
            .unwrap();
        assert!(sw.significant_at(0.01));
        let hw = a
            .equal_rates_test(
                SystemId::new(20),
                FailureClass::Root(RootCause::Hardware),
                &[],
            )
            .unwrap();
        assert!(!hw.significant_at(0.05));
    }

    fn with_layout(per_position_failures: [u32; 5]) -> Trace {
        let config = SystemConfig {
            id: SystemId::new(18),
            name: "t".into(),
            nodes: 50,
            procs_per_node: 4,
            hardware: HardwareClass::Smp4Way,
            start: Timestamp::EPOCH,
            end: Timestamp::from_days(200.0),
            has_layout: true,
            has_job_log: false,
            has_temperature: false,
        };
        let mut b = hpcfail_store::trace::SystemTraceBuilder::new(config);
        let layout: MachineLayout = (0..50u32)
            .map(|n| {
                (
                    NodeId::new(n),
                    NodeLocation {
                        rack: RackId::new((n / 5) as u16),
                        position_in_rack: (n % 5 + 1) as u8,
                        room_row: (n / 25) as u16,
                        room_col: 0,
                    },
                )
            })
            .collect();
        b.layout(layout);
        for n in 1..50u32 {
            let pos = (n % 5) as usize;
            for k in 0..per_position_failures[pos] {
                b.push_failure(FailureRecord::new(
                    SystemId::new(18),
                    NodeId::new(n),
                    Timestamp::from_days(3.0 + k as f64 * 7.0 + n as f64),
                    RootCause::Hardware,
                    SubCause::None,
                ));
            }
        }
        let mut trace = Trace::new();
        trace.insert_system(b.build());
        trace
    }

    #[test]
    fn no_position_effect_when_uniform() {
        let trace = with_layout([2, 2, 2, 2, 2]);
        let a = NodeAnalysis::over(&trace);
        let t = a.position_in_rack_effect(SystemId::new(18)).unwrap();
        assert!(!t.significant_at(0.05), "p = {}", t.p_value);
        let t = a.room_row_effect(SystemId::new(18)).unwrap();
        assert!(!t.significant_at(0.05), "p = {}", t.p_value);
    }

    #[test]
    fn planted_position_effect_detected() {
        // Top slot fails 8x as often.
        let trace = with_layout([1, 1, 1, 1, 8]);
        let a = NodeAnalysis::over(&trace);
        let t = a.position_in_rack_effect(SystemId::new(18)).unwrap();
        assert!(t.significant_at(0.01), "p = {}", t.p_value);
    }

    #[test]
    fn location_effect_needs_layout() {
        let trace = skewed_trace(); // no layout
        let a = NodeAnalysis::over(&trace);
        assert!(a.position_in_rack_effect(SystemId::new(20)).is_none());
    }

    #[test]
    fn unknown_system_is_empty() {
        let trace = skewed_trace();
        let a = NodeAnalysis::over(&trace);
        assert!(a.failure_counts(SystemId::new(99)).is_empty());
        assert!(a.most_failure_prone(SystemId::new(99)).is_none());
        assert!(a
            .equal_rates_test(SystemId::new(99), FailureClass::Any, &[])
            .is_none());
    }
}
