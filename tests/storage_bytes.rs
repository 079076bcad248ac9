//! Byte-level pin of the two storage encoders.
//!
//! Renders the scale-0.1, seed-42 fleet as a `.hpcsnap` snapshot and as
//! the `save_trace` CSV directory, and compares the SHA-256 of every
//! output with the committed digests. The snapshot header carries the
//! trace content fingerprint, so this also pins that hash: cached
//! snapshots written by an earlier build must keep verifying.
//!
//! Run in release mode for speed: `cargo test --release --test storage_bytes`.

use hpcfail::prelude::*;
use hpcfail::store::{csv, snapshot};

// The benchmark's std-only SHA-256, shared rather than copied; the
// build has no crates.io access.
#[path = "../perfbench/src/sha256.rs"]
mod sha256;

const GOLDEN: &str = include_str!("golden/storage_bytes_scale0.1_seed42.sha256");

/// Files `save_trace` writes, in digest order.
const CSV_FILES: [&str; 7] = [
    "systems.csv",
    "failures.csv",
    "jobs.csv",
    "temperatures.csv",
    "maintenance.csv",
    "layout.csv",
    "neutron.csv",
];

fn digest(bytes: &[u8]) -> String {
    let mut hasher = sha256::Sha256::default();
    hasher.update(bytes);
    hasher.hex()
}

#[test]
fn storage_bytes_match_golden_digests() {
    let trace = FleetSpec::lanl_scaled(0.1).generate(42).into_store();
    let mut lines = vec![format!(
        "{}  trace.hpcsnap",
        digest(&snapshot::snapshot_bytes(&trace))
    )];

    let dir = std::env::temp_dir().join(format!("hpcfail-storage-bytes-{}", std::process::id()));
    csv::save_trace(&dir, &trace).expect("saves the CSV directory");
    for name in CSV_FILES {
        let bytes = std::fs::read(dir.join(name)).expect("save_trace wrote the file");
        lines.push(format!("{}  {name}", digest(&bytes)));
    }
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(
        lines.join("\n"),
        GOLDEN.trim_end(),
        "snapshot or CSV bytes changed"
    );
}
