//! Generated inputs and their digests.
//!
//! The full-scale trace every workload reproduces or serves is the
//! LANL-shaped fleet generated with [`TRACE_SEED`], the seed `repro`
//! defaults to and whose `repro all` digest is pinned. The smaller
//! fleets that serve workloads upload, and the serve-hot key set, are
//! fixed too. Workload seeds vary the traffic: which requests are sent
//! and in what order. Run-to-run spread then measures the program, not
//! differences between generated fleets or key sets (those moved
//! throughput and tail latency by far more than the noise). Because
//! these inputs are the same for every run, they are written once per
//! checkout under `.bench_work/cache/` with a recorded digest, and every
//! run re-hashes them before timing.

use crate::sha256::{self, Sha256};
use hpcfail_store::csv::save_trace;
use hpcfail_store::snapshot::snapshot_bytes;
use hpcfail_synth::spec::FleetSpec;
use std::path::{Path, PathBuf};

/// Generation seed of the served and reproduced trace.
pub const TRACE_SEED: u64 = 42;

/// The LANL-shaped fleet at `scale`.
pub fn fleet(scale: f64) -> FleetSpec {
    if scale >= 1.0 {
        FleetSpec::lanl()
    } else {
        FleetSpec::lanl_scaled(scale)
    }
}

/// A path as a command-line argument.
pub fn path_arg(path: &Path) -> String {
    path.to_string_lossy().into_owned()
}

/// Digest of a file, or of every file of a directory by sorted name.
pub fn digest(path: &Path) -> Result<String, String> {
    let read = |p: &Path| std::fs::read(p).map_err(|e| format!("cannot read {}: {e}", p.display()));
    if !path.is_dir() {
        return Ok(sha256::hex(&read(path)?));
    }
    let mut names: Vec<_> = std::fs::read_dir(path)
        .and_then(|d| {
            d.map(|e| e.map(|e| e.file_name()))
                .collect::<Result<_, _>>()
        })
        .map_err(|e| format!("cannot list {}: {e}", path.display()))?;
    names.sort();
    let mut h = Sha256::default();
    for name in names {
        let bytes = read(&path.join(&name))?;
        h.update(name.to_string_lossy().as_bytes());
        h.update(&(bytes.len() as u64).to_le_bytes());
        h.update(&bytes);
    }
    Ok(h.hex())
}

/// Checks `path` still has `expected` as its digest.
pub fn verify(path: &Path, expected: &str) -> Result<(), String> {
    if digest(path)? == expected {
        Ok(())
    } else {
        Err(format!("{} does not match its digest", path.display()))
    }
}

/// Writes `bytes` to `path` and verifies the file; returns its digest.
pub fn write_verified(path: &Path, bytes: &[u8]) -> Result<String, String> {
    let expected = sha256::hex(bytes);
    std::fs::write(path, bytes).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    verify(path, &expected)?;
    Ok(expected)
}

/// A cached input and the digest it was made with.
pub struct Cached {
    /// The file or directory.
    pub path: PathBuf,
    /// Its digest when it was made.
    pub digest: String,
}

/// Returns `.bench_work/cache/<name>`, made by `make` unless a copy
/// whose content still matches its recorded digest exists.
fn cached(name: &str, make: impl FnOnce(&Path) -> Result<(), String>) -> Result<Cached, String> {
    let root = Path::new(".bench_work").join("cache");
    let path = root.join(name);
    let digest_file = root.join(format!("{name}.sha256"));
    if let Ok(recorded) = std::fs::read_to_string(&digest_file) {
        if verify(&path, recorded.trim()).is_ok() {
            return Ok(Cached {
                path,
                digest: recorded.trim().to_owned(),
            });
        }
    }
    let tmp = root.join(format!("{name}.tmp"));
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_file(&tmp);
    let _ = std::fs::remove_dir_all(&path);
    let _ = std::fs::remove_file(&path);
    std::fs::create_dir_all(&root).map_err(|e| format!("cannot create {}: {e}", root.display()))?;
    make(&tmp)?;
    let made = digest(&tmp)?;
    std::fs::rename(&tmp, &path).map_err(|e| format!("cannot move {}: {e}", tmp.display()))?;
    std::fs::write(&digest_file, &made).map_err(|e| format!("cannot record digest: {e}"))?;
    Ok(Cached { path, digest: made })
}

/// The fleet at `scale` generated with `seed`, as a `.hpcsnap` file.
pub fn fleet_snapshot(scale: f64, seed: u64) -> Result<Cached, String> {
    cached(&format!("lanl-{seed}-{scale}.hpcsnap"), |path| {
        let bytes = snapshot_bytes(&fleet(scale).generate(seed).into_store());
        write_verified(path, &bytes).map(drop)
    })
}

/// The trace at `scale` as a `.hpcsnap` file.
pub fn trace_snapshot(scale: f64) -> Result<Cached, String> {
    fleet_snapshot(scale, TRACE_SEED)
}

/// The trace at `scale` as a CSV directory.
pub fn trace_csv(scale: f64) -> Result<Cached, String> {
    cached(&format!("lanl-{TRACE_SEED}-{scale}-csv"), |dir| {
        let trace = fleet(scale).generate(TRACE_SEED).into_store();
        save_trace(dir, &trace).map_err(|e| format!("cannot write the CSV trace: {e}"))
    })
}
