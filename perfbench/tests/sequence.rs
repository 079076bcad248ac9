//! Request sequences: seeded, distinct, and balanced across kinds.

use hpcfail_core::engine::REQUEST_KINDS;
use perfbench::churn::{read_plan, upload_schedule, NAMES, SESSION};
use perfbench::cold::{COLD_QUERIES, COLD_STREAM};
use perfbench::hot::{batches, plan, Item, BATCHES, BATCH_EVERY, HOT_KEYS};
use perfbench::inputs::fleet;
use perfbench::sequence::{distinct_requests, systems, Rng};
use std::collections::{BTreeMap, BTreeSet};

fn cold(seed: u64) -> Vec<String> {
    distinct_requests(&systems(&fleet(1.0)), seed, COLD_STREAM, COLD_QUERIES)
        .iter()
        .map(|r| r.canonical())
        .collect()
}

#[test]
fn cold_sequence_is_byte_identical_per_seed_and_differs_across_seeds() {
    let a = cold(7);
    assert_eq!(a, cold(7));
    assert_ne!(a, cold(8));
    assert_eq!(a.len(), COLD_QUERIES);
    let distinct: BTreeSet<&String> = a.iter().collect();
    assert_eq!(
        distinct.len(),
        COLD_QUERIES,
        "every cold query is a distinct cache key"
    );
}

#[test]
fn cold_per_kind_counts_are_pinned() {
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for r in distinct_requests(&systems(&fleet(1.0)), 3, COLD_STREAM, COLD_QUERIES) {
        *counts.entry(r.kind().to_owned()).or_default() += 1;
    }
    // Kinds with spaces smaller than their share take the whole space
    // (trace-summary 1, usage-correlations 2, ...); the rest share the
    // remainder evenly.
    let pinned = [
        ("trace-summary", 1),
        ("conditional", 106),
        ("fleet-conditional", 106),
        ("same-type-summaries", 18),
        ("node-failure-counts", 11),
        ("equal-rates-test", 106),
        ("node-vs-rest", 106),
        ("root-cause-shares", 106),
        ("usage-correlations", 2),
        ("heaviest-users", 105),
        ("env-breakdown", 1),
        ("power-conditional", 72),
        ("maintenance-after-power", 4),
        ("temperature-regression", 36),
        ("cosmic-correlation", 66),
        ("regression-study", 4),
        ("arrival-profile", 66),
        ("alarm-evaluation", 36),
        ("checkpoint-replay", 36),
        ("availability", 12),
    ];
    assert_eq!(pinned.len(), REQUEST_KINDS.len());
    for (kind, want) in pinned {
        assert_eq!(counts.get(kind).copied(), Some(want), "{kind}");
    }
    // Counts depend on the length only, never on the seed.
    for seed in [0, 99] {
        let mut again: BTreeMap<String, usize> = BTreeMap::new();
        for r in distinct_requests(&systems(&fleet(1.0)), seed, COLD_STREAM, COLD_QUERIES) {
            *again.entry(r.kind().to_owned()).or_default() += 1;
        }
        assert_eq!(again, counts);
    }
}

#[test]
fn hot_plan_is_seeded_and_batches_every_kth_request() {
    let items = plan(5, 4096);
    assert_eq!(plan(5, 4096), items);
    assert_ne!(plan(6, 4096), items);
    assert_eq!(batches().len(), BATCHES);
    for (i, item) in items.iter().enumerate() {
        match item {
            Item::Batch(b) => {
                assert_eq!(i % BATCH_EVERY, BATCH_EVERY - 1);
                assert!(*b < BATCHES);
            }
            Item::Query(k) => {
                assert_ne!(i % BATCH_EVERY, BATCH_EVERY - 1);
                assert!(*k < HOT_KEYS);
            }
        }
    }
}

#[test]
fn churn_reader_sessions_switch_names_and_uploads_alternate_variants() {
    let reads = read_plan(&mut Rng::new(1, 5), 10 * SESSION);
    for session in reads.chunks(SESSION) {
        assert!(session.iter().all(|(n, _)| *n == session[0].0));
    }
    for pair in reads.chunks(SESSION).collect::<Vec<_>>().windows(2) {
        assert_ne!(
            pair[0][0].0, pair[1][0].0,
            "consecutive sessions use different names"
        );
    }
    let uploads = upload_schedule(12);
    for (i, &(name, variant)) in uploads.iter().enumerate() {
        assert_eq!(name, i % NAMES.len());
        // Every upload of a name changes its data.
        let previous = if i < NAMES.len() {
            0
        } else {
            uploads[i - NAMES.len()].1
        };
        assert_ne!(variant, previous);
    }
}
