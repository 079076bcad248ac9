//! Criterion benches over the analysis hot paths: baseline estimation,
//! conditional window counting at each scope, pairwise summaries, GLM
//! fits, CSV serialization, checkpoint replay and the per-user table.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hpcfail_core::checkpoint::{CheckpointPolicy, CheckpointSimulator};
use hpcfail_core::correlation::Scope;
use hpcfail_core::engine::Engine;
use hpcfail_core::predict::AlarmRule;
use hpcfail_core::regression_study::StudyFamily;
use hpcfail_stats::glm::{fit_negative_binomial, Family, GlmModel};
use hpcfail_store::csv;
use hpcfail_store::query::{covered_window_starts, BaselineEstimator};
use hpcfail_store::trace::Trace;
use hpcfail_synth::spec::FleetSpec;
use hpcfail_types::prelude::*;
use std::cell::RefCell;

fn bench_fleet() -> Trace {
    FleetSpec::lanl_scaled(0.2).generate(42).into_store()
}

fn bench_baseline(c: &mut Criterion) {
    let trace = bench_fleet();
    let system = trace.system(SystemId::new(18)).expect("system 18 exists");
    c.bench_function("baseline_week_probability", |b| {
        b.iter(|| {
            BaselineEstimator::new(system).failure_probability(FailureClass::Any, Window::Week)
        })
    });
    c.bench_function("baseline_month_memory", |b| {
        b.iter(|| {
            BaselineEstimator::new(system).failure_probability(
                FailureClass::Hw(HardwareComponent::MemoryDimm),
                Window::Month,
            )
        })
    });
}

fn bench_conditionals(c: &mut Criterion) {
    let engine = Engine::new(bench_fleet());
    let analysis = engine.correlation();
    c.bench_function("conditional_same_node_week", |b| {
        b.iter(|| {
            analysis.group_conditional(
                SystemGroup::Group1,
                FailureClass::Any,
                FailureClass::Any,
                Window::Week,
                Scope::SameNode,
            )
        })
    });
    c.bench_function("conditional_same_rack_week", |b| {
        b.iter(|| {
            analysis.group_conditional(
                SystemGroup::Group1,
                FailureClass::Root(RootCause::Environment),
                FailureClass::Any,
                Window::Week,
                Scope::SameRack,
            )
        })
    });
    c.bench_function("conditional_same_system_week", |b| {
        b.iter(|| {
            analysis.group_conditional(
                SystemGroup::Group1,
                FailureClass::Root(RootCause::Network),
                FailureClass::Any,
                Window::Week,
                Scope::SameSystem,
            )
        })
    });
    c.bench_function("pairwise_same_type_summaries", |b| {
        let pairwise = engine.pairwise();
        b.iter(|| pairwise.same_type_summaries(SystemGroup::Group1, Window::Week, Scope::SameNode))
    });
    c.bench_function("power_figure10_left", |b| {
        let power = engine.power();
        b.iter(|| power.figure10_left())
    });
    c.bench_function("alarm_rule_week_evaluation", |b| {
        let rule = AlarmRule {
            trigger: FailureClass::Any,
            window: Window::Week,
        };
        b.iter(|| rule.evaluate_group(engine.trace(), SystemGroup::Group1))
    });
}

fn bench_window_kernel(c: &mut Criterion) {
    // The O(#events) interval-union kernel under the baselines.
    let days: Vec<i64> = (0..2000).map(|i| (i * 13) % 3000).collect();
    let mut sorted = days.clone();
    sorted.sort_unstable();
    c.bench_function("covered_window_starts_2000_events", |b| {
        b.iter(|| covered_window_starts(&sorted, 3000, 7))
    });
}

fn bench_glm(c: &mut Criterion) {
    let engine = Engine::new(bench_fleet());
    let study = engine.regression();
    c.bench_function("table2_poisson_fit", |b| {
        b.iter(|| {
            study
                .fit(SystemId::new(20), StudyFamily::Poisson, false)
                .expect("fits")
        })
    });
    c.bench_function("table3_negative_binomial_fit", |b| {
        b.iter(|| {
            study
                .fit(SystemId::new(20), StudyFamily::NegativeBinomial, false)
                .expect("fits")
        })
    });
    // A synthetic medium-size fit independent of the fleet.
    let n = 2000;
    let x: Vec<f64> = (0..n).map(|i| (i as f64 / n as f64) * 2.0 - 1.0).collect();
    let y: Vec<f64> = x.iter().map(|v| (1.0 + v).exp().round()).collect();
    c.bench_function("glm_poisson_2000x1", |b| {
        b.iter_batched(
            || {
                let mut m = GlmModel::new(Family::Poisson);
                m.term("x", &x);
                m
            },
            |m| m.fit(&y).expect("fits"),
            BatchSize::SmallInput,
        )
    });
    c.bench_function("glm_nb_ml_2000x1", |b| {
        b.iter_batched(
            || {
                let mut m = GlmModel::new(Family::Poisson);
                m.term("x", &x);
                m
            },
            |m| fit_negative_binomial(&m, &y).expect("fits"),
            BatchSize::SmallInput,
        )
    });
}

fn bench_csv(c: &mut Criterion) {
    let trace = bench_fleet();
    let system = trace.system(SystemId::new(18)).expect("system 18 exists");
    c.bench_function("csv_write_failures", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(1 << 20);
            csv::write_failures(&mut buf, system.failures()).expect("in-memory write");
            buf
        })
    });
    let mut encoded = Vec::new();
    csv::write_failures(&mut encoded, system.failures()).expect("in-memory write");
    c.bench_function("csv_read_failures", |b| {
        b.iter(|| csv::read_failures(&encoded[..]).expect("parse"))
    });
}

fn bench_checkpoint(c: &mut Criterion) {
    let trace = bench_fleet();
    let sim = CheckpointSimulator::typical();
    c.bench_function("checkpoint_replay_uniform_1h", |b| {
        let policy = CheckpointPolicy::Uniform {
            interval_hours: 1.0,
        };
        b.iter(|| sim.replay_group(&trace, SystemGroup::Group2, policy))
    });
    c.bench_function("checkpoint_replay_adaptive_month", |b| {
        let policy = CheckpointPolicy::Adaptive {
            base_hours: 12.0,
            flagged_hours: 0.5,
            rule: AlarmRule {
                trigger: FailureClass::Any,
                window: Window::Month,
            },
        };
        b.iter(|| sim.replay_group(&trace, SystemGroup::Group2, policy))
    });
}

fn bench_users(c: &mut Criterion) {
    let trace = bench_fleet();
    let system = SystemId::new(8);
    assert!(
        !trace
            .system(system)
            .expect("system 8 exists")
            .jobs()
            .is_empty(),
        "system 8 carries the job log"
    );
    // A trace clone starts with a cold index, so every iteration
    // rebuilds the per-user table. Used engines are parked and dropped
    // by the next setup, outside the timed region.
    let spent = RefCell::new(Vec::new());
    c.bench_function("heaviest_users_cold", |b| {
        b.iter_batched(
            || {
                spent.borrow_mut().clear();
                Engine::new(trace.clone())
            },
            |engine| {
                let top = engine.users().heaviest_users(system, 50);
                spent.borrow_mut().push(engine);
                top
            },
            BatchSize::SmallInput,
        )
    });
    spent.borrow_mut().clear();
    let engine = Engine::new(trace);
    engine.users().heaviest_users(system, 50);
    c.bench_function("heaviest_users_warm", |b| {
        b.iter(|| engine.users().heaviest_users(system, 50))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_baseline, bench_conditionals, bench_window_kernel, bench_glm, bench_csv,
        bench_checkpoint, bench_users
}
criterion_main!(benches);
