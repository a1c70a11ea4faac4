//! Short runs of the benchmark binary: every workload end to end and
//! traced, and a corrupted golden digest failing the run.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use serde::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("golden")
}

/// Runs one workload for one second; returns the exit status and the
/// parsed result line.
fn run(workload: &str, trace: bool, golden: &Path) -> (bool, Value) {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--golden-dir")
        .arg(golden)
        .arg("--out-dir")
        .arg(&out_dir)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().unwrap_or_else(|| {
        panic!(
            "{workload}: no output; stderr:\n{}",
            String::from_utf8_lossy(&output.stderr)
        )
    });
    let result = serde_json::parse_value(last).expect("last line is JSON");
    (output.status.success(), result)
}

fn metric(result: &Value, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("metric {name} missing from {result:?}"))
}

fn smoke(workload: &str) {
    for (trace, spec) in [
        (false, &perfbench::END_TO_END[..]),
        (true, &perfbench::PER_LAYER[..]),
    ] {
        let (ok, result) = run(workload, trace, &golden_dir());
        assert!(ok, "{workload} trace={trace} failed: {result:?}");
        assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
        assert!(result.get("attempted").and_then(Value::as_u64) >= Some(1));
        let metrics = result
            .get("metrics")
            .and_then(Value::as_object)
            .expect("metrics");
        assert_eq!(
            metrics.len(),
            spec.len(),
            "{workload}: every metric, nothing else"
        );
        for (name, unit) in spec {
            let entry = metrics
                .get(name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(entry.get("unit").and_then(Value::as_str), Some(*unit));
        }
        if trace {
            assert!(metric(&result, "soc.cycles") > 0.0);
            assert!(metric(&result, "runtime.run.s") > 0.0);
        } else {
            for (name, _) in spec {
                assert!(metric(&result, name) > 0.0, "{workload}: {name} is 0");
            }
        }
    }
}

#[test]
fn fig7_sim_smoke() {
    smoke("fig7_sim");
}

#[test]
fn grid_setup_smoke() {
    smoke("grid_setup");
}

#[test]
fn fault_campaign_smoke() {
    smoke("fault_campaign");
}

#[test]
fn serve_mix_smoke() {
    smoke("serve_mix");
}

#[test]
fn a_corrupted_golden_digest_fails_the_run() {
    let text = std::fs::read_to_string(golden_dir().join("goldens.json")).expect("goldens");
    let key = "\"grid_setup/fig8\": \"";
    let at = text.find(key).expect("grid_setup/fig8 digest") + key.len();
    let flipped = if &text[at..at + 1] == "0" { "1" } else { "0" };
    let corrupted = format!("{}{flipped}{}", &text[..at], &text[at + 1..]);
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("corrupted-golden");
    std::fs::create_dir_all(&dir).expect("temp dir");
    std::fs::write(dir.join("goldens.json"), corrupted).expect("write corrupted golden");
    let (ok, result) = run("grid_setup", false, &dir);
    assert!(!ok, "a wrong golden must fail the run");
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(false));
    assert!(result.get("failed").and_then(Value::as_u64) > Some(0));
}

#[test]
fn unknown_options_are_refused_before_any_work() {
    let status = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "fig7_sim", "--jobs", "2"])
        .arg("--golden-dir")
        .arg(Path::new(env!("CARGO_TARGET_TMPDIR")).join("no-such-golden-dir"))
        .status()
        .expect("benchmark binary runs");
    assert_eq!(status.code(), Some(2));
}
