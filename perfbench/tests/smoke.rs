//! Tiny-scale end-to-end smoke of every workload, untraced and traced,
//! through the real binaries, including each workload's output checks.
//! Builds `repro` and `hpcfail-serve` from the repository root first.

use perfbench::report::{per_layer_names, END_TO_END};
use perfbench::WORKLOADS;
use std::path::{Path, PathBuf};
use std::process::Command;

fn shipped_binaries() -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository");
    let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("shipped");
    let status = Command::new(env!("CARGO"))
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "hpcfail-bench",
            "-p",
            "hpcfail-serve",
        ])
        .arg("--target-dir")
        .arg(&target)
        .current_dir(root)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building the shipped binaries failed");
    target.join("release")
}

fn run(bins: &Path, cwd: &Path, workload: &str, trace: &str) -> hpcfail_obs::json::Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .args(["--scale", "0.02", "--bin-dir"])
        .arg(bins)
        .current_dir(cwd)
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} exited {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    hpcfail_obs::json::parse(last).expect("the result line is JSON")
}

#[test]
fn every_workload_passes_its_checks_at_tiny_scale() {
    let bins = shipped_binaries();
    let cwd = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    std::fs::create_dir_all(&cwd).expect("smoke directory");
    for workload in WORKLOADS {
        let result = run(&bins, &cwd, workload, "0");
        assert_eq!(
            result.get("correct").and_then(|v| v.as_bool()),
            Some(true),
            "{workload}"
        );
        assert_eq!(
            result.get("failed").and_then(|v| v.as_u64()),
            Some(0),
            "{workload}"
        );
        assert!(result.get("attempted").and_then(|v| v.as_u64()) >= Some(1));
        let metrics = result.get("metrics").expect("metrics");
        for (name, _) in END_TO_END {
            let value = metrics
                .get(name)
                .and_then(|m| m.get("value"))
                .and_then(|v| v.as_f64());
            assert!(
                value.is_some_and(|v| v > 0.0),
                "{workload} {name} = {value:?}"
            );
        }

        let traced = run(&bins, &cwd, workload, "1");
        assert_eq!(
            traced.get("correct").and_then(|v| v.as_bool()),
            Some(true),
            "{workload}"
        );
        let metrics = traced.get("metrics").expect("metrics");
        for name in per_layer_names() {
            assert!(metrics.get(&name).is_some(), "{workload} lacks {name}");
        }
        let spans = cwd.join(format!(".bench_work/spans/{workload}-seed3.jsonl"));
        assert!(
            std::fs::metadata(&spans).is_ok_and(|m| m.len() > 0),
            "{workload} spans"
        );
    }
    // Generated inputs are cleaned up; only the input cache and the
    // span files stay.
    let left: Vec<String> = std::fs::read_dir(cwd.join(".bench_work"))
        .expect("work directory")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        left.iter().all(|n| n == "cache" || n == "spans"),
        "{left:?}"
    );
}
