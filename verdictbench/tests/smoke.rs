//! Runs every workload at its smoke size, untraced and traced, and holds
//! the printed result line to the contract in the repository's
//! `BENCHMARK.json`: every check passes, and the metrics are exactly the
//! listed ones, in order, with their units.

use std::process::Command;

const BENCHMARK_JSON: &str =
    include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));

/// The `"name"` and `"unit"` values of one top-level list in
/// `BENCHMARK.json`, in order. The file is flat enough that a scan for the
/// list's brackets and its quoted fields suffices.
fn listed(key: &str) -> Vec<(String, Option<String>)> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{key}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"));
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find(']').expect("list closes")];
    body.split('{')
        .skip(1)
        .map(|entry| {
            (
                field(entry, "name").expect("entry has a name"),
                field(entry, "unit"),
            )
        })
        .collect()
}

/// The string value of `"key": "..."` in `text`, if present.
fn field(text: &str, key: &str) -> Option<String> {
    let at = text.find(&format!("\"{key}\": \""))? + key.len() + 5;
    Some(text[at..at + text[at..].find('"')?].to_string())
}

/// Metric names and units of a result line, in order.
fn metrics(line: &str) -> Vec<(String, Option<String>)> {
    let body = &line[line.find("\"metrics\": {").expect("metrics object") + 12..];
    body.split("}, ")
        .map(|m| {
            let name = m.trim_start_matches(['{', ' ']);
            let name = &name[1..name[1..].find('"').expect("quoted name") + 1];
            (name.to_string(), field(m, "unit"))
        })
        .collect()
}

fn run(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_verdictbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.2"])
        .args(["--trace", &trace.to_string(), "--smoke"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_workload_passes_its_checks_and_prints_the_listed_metrics() {
    let workloads = listed("workloads");
    assert_eq!(workloads.len(), 4);
    for (workload, _) in &workloads {
        for (trace, list) in [(0, "end_to_end"), (1, "per_layer")] {
            let line = run(workload, trace);
            assert!(
                line.starts_with("{\"correct\": true, "),
                "{workload}: {line}"
            );
            assert!(line.contains("\"failed\": 0, "), "{workload}: {line}");
            assert_eq!(metrics(&line), listed(list), "{workload} --trace {trace}");
        }
    }
}

#[test]
fn bad_arguments_are_refused_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "bmc-deep",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ][..],
        &["--workload", "bmc-deep", "--seed", "1", "--seconds", "1"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_verdictbench"))
            .args(args)
            .output()
            .expect("benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
