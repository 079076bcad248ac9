//! Concurrent first use of the per-user table: every caller gets the
//! same answer and the system's user slot is built exactly once.
//!
//! This binary holds a single test so the process-wide
//! `store.index.features.misses` counter moves only for this slot.

use hpcfail_core::engine::Engine;
use std::sync::Barrier;

const THREADS: usize = 8;

#[test]
fn concurrent_heaviest_users_build_the_table_once() {
    let engine = Engine::new(hpcfail_synth::FleetSpec::demo().generate(42).into_store());
    let system = engine
        .trace()
        .systems()
        .find(|s| !s.jobs().is_empty())
        .map(|s| s.id())
        .expect("the demo fleet has a job log");

    let misses = || hpcfail_obs::counter("store.index.features.misses").get();
    let before = misses();
    let barrier = Barrier::new(THREADS);
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    engine.users().heaviest_users(system, 50)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker"))
            .collect()
    });

    assert!(!results[0].is_empty());
    for r in &results[1..] {
        assert_eq!(r, &results[0]);
    }
    if hpcfail_obs::ENABLED {
        assert_eq!(misses() - before, 1, "one build of the user slot");
    }
}
