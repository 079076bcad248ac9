//! Section III-A.3 / III-B: does the type of a failure predict the type
//! of a follow-up failure?
//!
//! Computes the full pairwise matrix `p(x, y)` — the probability of a
//! type-Y failure in the window following a type-X failure — plus the
//! Figure 1(b)/2(right) summary comparing, for each type X, the
//! probability of an X failure after a same-type failure, after *any*
//! failure, and in a random window.
//!
//! The full matrix asks for the same per-(target, window) baseline once
//! per trigger type; those queries hit the store's memoized timeline
//! index (`hpcfail_store::index`) rather than rescanning the trace.

use crate::correlation::{CorrelationAnalysis, Scope};
use crate::estimate::ConditionalEstimate;
use hpcfail_types::prelude::*;

/// One row of the Figure 1(b) summary for a failure type X.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SameTypeSummary {
    /// The failure type X.
    pub class: FailureClass,
    /// P(X in window | previous failure of the same type X).
    pub after_same_type: ConditionalEstimate,
    /// P(X in window | previous failure of any type).
    pub after_any: ConditionalEstimate,
}

impl SameTypeSummary {
    /// Factor increase of the same-type conditional over the random
    /// baseline (the "700x" style annotations).
    pub fn same_type_factor(&self) -> Option<f64> {
        self.after_same_type.factor()
    }
}

/// The pairwise type-transition analysis.
#[derive(Debug, Clone, Copy)]
pub struct PairwiseAnalysis<'a> {
    correlation: CorrelationAnalysis<'a>,
}

impl<'a> PairwiseAnalysis<'a> {
    /// Engine-internal constructor: the public entry point is
    /// [`crate::engine::Engine::pairwise`].
    pub(crate) fn over(trace: &'a hpcfail_store::trace::Trace) -> Self {
        PairwiseAnalysis {
            correlation: CorrelationAnalysis::over(trace),
        }
    }

    /// The full matrix of `p(x, y)` estimates over the given classes.
    /// Entry `[i][j]` conditions on `classes[i]` and targets
    /// `classes[j]`.
    pub fn matrix(
        &self,
        group: SystemGroup,
        classes: &[FailureClass],
        window: Window,
        scope: Scope,
    ) -> Vec<Vec<ConditionalEstimate>> {
        classes
            .iter()
            .map(|&x| {
                classes
                    .iter()
                    .map(|&y| {
                        self.correlation
                            .group_conditional(group, x, y, window, scope)
                    })
                    .collect()
            })
            .collect()
    }

    /// The Figure 1(b)/2(right) summary for every class in
    /// [`FailureClass::FIGURE1`].
    pub fn same_type_summaries(
        &self,
        group: SystemGroup,
        window: Window,
        scope: Scope,
    ) -> Vec<SameTypeSummary> {
        FailureClass::FIGURE1
            .iter()
            .map(|&class| SameTypeSummary {
                class,
                after_same_type: self
                    .correlation
                    .group_conditional(group, class, class, window, scope),
                after_any: self.correlation.group_conditional(
                    group,
                    FailureClass::Any,
                    class,
                    window,
                    scope,
                ),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcfail_store::trace::{SystemTraceBuilder, Trace};

    fn trace_with(failures: &[(u32, f64, RootCause)]) -> Trace {
        let config = SystemConfig {
            id: SystemId::new(1),
            name: "t".into(),
            nodes: 4,
            procs_per_node: 4,
            hardware: HardwareClass::Smp4Way,
            start: Timestamp::EPOCH,
            end: Timestamp::from_days(200.0),
            has_layout: false,
            has_job_log: false,
            has_temperature: false,
        };
        let mut b = SystemTraceBuilder::new(config);
        for &(node, day, root) in failures {
            b.push_failure(FailureRecord::new(
                SystemId::new(1),
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

    #[test]
    fn same_type_transition_detected() {
        // Network failures always followed by network failures;
        // hardware failures isolated.
        let trace = trace_with(&[
            (0, 10.0, RootCause::Network),
            (0, 11.0, RootCause::Network),
            (0, 50.0, RootCause::Network),
            (0, 51.0, RootCause::Network),
            (1, 100.0, RootCause::Hardware),
            (2, 140.0, RootCause::Hardware),
        ]);
        let a = PairwiseAnalysis::over(&trace);
        let classes = [
            FailureClass::Root(RootCause::Network),
            FailureClass::Root(RootCause::Hardware),
        ];
        let m = a.matrix(SystemGroup::Group1, &classes, Window::Week, Scope::SameNode);
        // net -> net: triggers 10, 11, 50, 51; hits from 10 and 50.
        assert_eq!(m[0][0].conditional.trials(), 4);
        assert_eq!(m[0][0].conditional.successes(), 2);
        // net -> hw: no hits.
        assert_eq!(m[0][1].conditional.successes(), 0);
        // hw -> hw: isolated, no hits.
        assert_eq!(m[1][1].conditional.successes(), 0);
    }

    #[test]
    fn summaries_cover_figure1_classes() {
        let trace = trace_with(&[
            (0, 10.0, RootCause::Software),
            (0, 12.0, RootCause::Software),
        ]);
        let a = PairwiseAnalysis::over(&trace);
        let rows = a.same_type_summaries(SystemGroup::Group1, Window::Week, Scope::SameNode);
        assert_eq!(rows.len(), 8);
        let sw = rows
            .iter()
            .find(|r| r.class == FailureClass::Root(RootCause::Software))
            .unwrap();
        assert_eq!(sw.after_same_type.conditional.trials(), 2);
        assert_eq!(sw.after_same_type.conditional.successes(), 1);
        // after_any conditions on any failure (also 2 triggers here).
        assert_eq!(sw.after_any.conditional.trials(), 2);
    }

    #[test]
    fn same_type_factor_exceeds_any_factor_when_type_clustered() {
        // Two tight same-type bursts of different types: conditioning on
        // the same type must predict better than conditioning on any.
        let trace = trace_with(&[
            (0, 10.0, RootCause::Network),
            (0, 11.0, RootCause::Network),
            (1, 60.0, RootCause::Software),
            (1, 61.0, RootCause::Software),
            (2, 120.0, RootCause::Hardware),
            (3, 160.0, RootCause::HumanError),
        ]);
        let a = PairwiseAnalysis::over(&trace);
        let rows = a.same_type_summaries(SystemGroup::Group1, Window::Week, Scope::SameNode);
        let net = rows
            .iter()
            .find(|r| r.class == FailureClass::Root(RootCause::Network))
            .unwrap();
        assert!(net.after_same_type.conditional.estimate() > net.after_any.conditional.estimate());
        assert!(net.same_type_factor().unwrap() > 1.0);
    }
}
