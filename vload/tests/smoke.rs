//! Runs the real binary on every workload at `--smoke` scale and holds its
//! output to `BENCHMARK.json`: the file and the binary cannot drift.
//! Smoke numbers mean nothing; only names, counts and exit codes are read.

use std::process::{Command, Output};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

const WORKLOADS: [&str; 5] = [
    "resolve_single",
    "resolve_batch64",
    "open_forward",
    "churn_mixed",
    "sim_lossy_open",
];

fn vload(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vload"))
        .args(args)
        .output()
        .expect("vload runs")
}

/// Names in the `"name"` keys of one array of `BENCHMARK.json`.
fn contract_names(section: &str) -> Vec<String> {
    let key = format!("\"{section}\"");
    let body = &BENCHMARK_JSON[BENCHMARK_JSON.find(&key).expect("section present") + key.len()..];
    body[..body.find(']').expect("array closes")]
        .split("\"name\"")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

/// The metric names of a result line, in order.
fn printed_names(line: &str) -> Vec<String> {
    let metrics = line.split("\"metrics\": {").nth(1).expect("metrics object");
    // Every piece but the last ends in the quoted name of the next metric.
    let mut pieces: Vec<&str> = metrics.split(": {\"value\"").collect();
    pieces.pop();
    pieces
        .into_iter()
        .map(|before| before.rsplit('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn result_line(out: &Output) -> String {
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout.lines().last().expect("a result line").to_string()
}

fn note(out: &Output, key: &str) -> String {
    let stderr = String::from_utf8_lossy(&out.stderr);
    let tag = format!("vload: {key}=");
    stderr
        .lines()
        .find_map(|l| l.strip_prefix(&tag))
        .unwrap_or_else(|| panic!("no {key} note in {stderr}"))
        .to_string()
}

#[test]
fn contract_names_the_five_workloads() {
    assert_eq!(contract_names("workloads"), WORKLOADS);
}

#[test]
fn every_workload_passes_its_own_checks_and_prints_the_contracted_metrics() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let promised = contract_names(section);
        for w in WORKLOADS {
            let out = vload(&["--workload", w, "--smoke", "--seed", "77", "--trace", trace]);
            let line = result_line(&out);
            assert!(out.status.success(), "{w} --trace {trace} failed: {line}");
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            assert!(line.contains("\"failed\": 0, "), "{line}");
            assert_eq!(printed_names(&line), promised, "{w} --trace {trace}");
        }
    }
}

#[test]
fn all_runs_the_five_in_order() {
    let out = vload(&["--all", "--smoke"]);
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout).lines().count(), 5);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let ran: Vec<&str> = stderr
        .lines()
        .filter_map(|l| l.strip_prefix("vload: workload="))
        .filter_map(|l| l.split(' ').next())
        .collect();
    assert_eq!(ran, WORKLOADS);
}

#[test]
fn the_load_is_a_function_of_the_seed() {
    for w in [
        "resolve_single",
        "open_forward",
        "churn_mixed",
        "sim_lossy_open",
    ] {
        let hash = |seed| {
            note(
                &vload(&["--workload", w, "--smoke", "--seed", seed]),
                "load_hash",
            )
        };
        assert_eq!(hash("5"), hash("5"), "{w}");
        assert_ne!(hash("5"), hash("6"), "{w}");
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = vload(&["--workload", "no_such_workload"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
