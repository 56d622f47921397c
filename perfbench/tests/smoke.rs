//! Smoke runs of every workload at miniature size, and the mutation
//! check of the oracles.
//!
//! ```sh
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```
//!
//! The metric names and units a run must print are read from the
//! repository's `BENCHMARK.json`, so the declared contract and the
//! binary cannot drift apart.

use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["ingest_full", "window_query", "live_append"];

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a JSON list")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry
            .find(&format!("\"{key}\": \""))
            .expect("field present")
            + key.len()
            + 5;
        entry[at..]
            .split('"')
            .next()
            .expect("closing quote")
            .to_owned()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

struct Outcome {
    stdout: String,
    last: String,
}

fn run(workload: &str, trace: &str, extra: &[&str]) -> Outcome {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("smoke-{workload}-{trace}-{}", extra.len()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("test directory");
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", trace, "--size", "tiny"])
        .args(extra)
        .current_dir(&dir)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{workload} exited with {}:\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
    let last = stdout.lines().last().unwrap_or_default().to_owned();
    Outcome { stdout, last }
}

fn counter(line: &str, key: &str) -> u64 {
    let at = line.find(&format!("\"{key}\": ")).expect("counter present") + key.len() + 4;
    line[at..]
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .and_then(|n| n.parse().ok())
        .expect("whole number")
}

fn assert_metrics(workload: &str, section: &str, trace: &str) {
    let outcome = run(workload, trace, &[]);
    let line = &outcome.last;
    assert!(
        line.starts_with("{\"correct\": true"),
        "{workload}: {}",
        outcome.stdout
    );
    assert!(counter(line, "attempted") >= 1);
    assert_eq!(counter(line, "failed"), 0, "{workload}: {}", outcome.stdout);
    let metrics = declared(section);
    assert!(!metrics.is_empty());
    for (name, unit) in metrics {
        let prefix = format!("\"{name}\": {{\"value\": ");
        let at = line
            .find(&prefix)
            .unwrap_or_else(|| panic!("{workload} did not print {name}: {line}"));
        let (value, rest) = line[at + prefix.len()..]
            .split_once(", \"unit\": \"")
            .unwrap_or_else(|| panic!("{workload}: {name} has no unit"));
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("{workload}: {name} = {value:?} is not a number"));
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        assert!(
            rest.starts_with(&format!("{unit}\"}}")),
            "{workload}: {name} should carry unit {unit}: {line}"
        );
    }
}

#[test]
fn every_end_to_end_metric_is_printed_with_its_unit() {
    for workload in WORKLOADS {
        assert_metrics(workload, "end_to_end", "0");
    }
}

#[test]
fn every_per_layer_metric_is_printed_with_its_unit() {
    for workload in WORKLOADS {
        assert_metrics(workload, "per_layer", "1");
    }
}

#[test]
fn a_wrong_answer_raises_the_error_rate() {
    for workload in WORKLOADS {
        let outcome = run(workload, "0", &["--mutate"]);
        let line = &outcome.last;
        assert!(
            line.starts_with("{\"correct\": false"),
            "{workload}: {line}"
        );
        assert!(counter(line, "failed") > 0, "{workload}: {line}");
        let rate = outcome
            .stdout
            .lines()
            .find(|l| l.trim_start().starts_with("error_rate"))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse::<f64>().ok())
            .expect("error_rate line");
        assert!(rate > 0.0, "{workload}: error_rate {rate}");
    }
}
