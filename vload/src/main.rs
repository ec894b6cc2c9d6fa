//! `vload` — the repository's end-to-end benchmark: a pinned, seeded,
//! self-checking, closed-loop load generator.
//!
//! It boots a real world on the thread kernel (or the virtual-time kernel
//! for `sim_lossy_open`), drives it through `vruntime::NameClient` exactly
//! as a user program would, verifies every answer, and prints every metric
//! by name and unit as one JSON object on the last line of its output.
//! `BENCHMARK.json` at the repository root names the command, workloads
//! and metrics; see `README.md` beside this crate for how to read them.

mod drivers;
mod layers;
mod load;
mod pin;
mod run;
mod stats;
mod trace;
mod worlds;

use run::{Outcome, Plan, Workload};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use worlds::Scale;

/// The contract this binary is the instrument of, compiled in so the two
/// cannot drift: a run whose metric names differ from the file's fails.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

const USAGE: &str = "usage: vload (--workload <name> | --all) [--seed <u64>] [--seconds <n>] \
                     [--trace [0|1]] [--smoke]";

/// The seed a run uses when none is given.
const DEFAULT_SEED: u64 = 0x1984;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workloads =
                    vec![Workload::from_name(name).ok_or(format!("unknown workload {name:?}"))?];
            }
            "--all" => args.workloads = Workload::ALL.to_vec(),
            "--seed" => {
                let s = value("a number")?;
                args.seed = parse_u64(s).ok_or(format!("bad seed {s:?}"))?;
            }
            "--seconds" => {
                let s = value("a number")?;
                let secs: f64 = s.parse().map_err(|_| format!("bad seconds {s:?}"))?;
                if !(secs > 0.0 && secs <= 600.0) {
                    return Err(format!("seconds out of range: {s}"));
                }
                args.seconds = Some(secs);
            }
            // `--trace` alone switches tracing on; `--trace 0|1` sets it.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("no workload given".into());
    }
    Ok(args)
}

/// The values of every `"name"` key inside the array `section` of
/// [`BENCHMARK_JSON`]. The file's arrays of flat objects need no more
/// parser than this.
fn contract_names(json: &str, section: &str) -> Vec<String> {
    let key = format!("\"{section}\"");
    let Some(at) = json.find(&key) else {
        return Vec::new();
    };
    let body = &json[at + key.len()..];
    let body = &body[..body.find(']').unwrap_or(body.len())];
    body.split("\"name\"")
        .skip(1)
        .filter_map(|rest| rest.split('"').nth(1))
        .map(String::from)
        .collect()
}

/// `<target dir>/vload/trace-<workload>.json`, next to the build that
/// produced this binary — inside the checkout and ignored by git.
fn trace_path(workload: Workload) -> PathBuf {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("vload")))
        .unwrap_or_else(|| PathBuf::from("target/vload"));
    dir.join(format!("trace-{}.json", workload.name()))
}

/// The contract's result line. Values print with every digit they have.
fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    pin::wrap_or_continue();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vload: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let seconds = args.seconds.unwrap_or(if args.smoke { 0.4 } else { 10.0 });
    let mut exit = ExitCode::SUCCESS;
    for workload in args.workloads {
        let plan = Plan {
            workload,
            seed: args.seed,
            scale: if args.smoke {
                Scale::SMOKE
            } else {
                Scale::FULL
            },
            warmup: Duration::from_secs_f64(seconds / 10.0),
            measure: Duration::from_secs_f64(seconds),
            trace: args.trace,
        };
        let outcome = run::run(&plan, &trace_path(workload));
        eprintln!("vload: workload={} seed={:#x}", workload.name(), args.seed);
        for (k, v) in &outcome.notes {
            eprintln!("vload: {k}={v}");
        }
        let section = if args.trace {
            "per_layer"
        } else {
            "end_to_end"
        };
        let promised = contract_names(BENCHMARK_JSON, section);
        let printed: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
        if promised != printed || outcome.metrics.iter().any(|m| !m.value.is_finite()) {
            eprintln!("vload: metrics printed differ from BENCHMARK.json {section}: {printed:?}");
            exit = ExitCode::from(3);
        }
        if outcome.failed > 0 {
            eprintln!(
                "vload: {} of {} operations failed",
                outcome.failed, outcome.attempted
            );
            exit = ExitCode::from(1);
        }
        println!("{}", result_line(&outcome));
    }
    exit
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_lists_exactly_the_workloads_this_binary_runs() {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(contract_names(BENCHMARK_JSON, "workloads"), names);
        assert!(contract_names(BENCHMARK_JSON, "end_to_end").contains(&"setup_s".to_string()));
        assert!(contract_names(BENCHMARK_JSON, "no_such_section").is_empty());
    }

    #[test]
    fn trace_flag_takes_an_optional_value() {
        let parse = |s: &str| {
            let argv: Vec<String> = s.split_whitespace().map(String::from).collect();
            parse_args(&argv)
        };
        assert!(parse("--workload open_forward --trace").unwrap().trace);
        assert!(
            parse("--workload open_forward --trace 1 --seed 7")
                .unwrap()
                .trace
        );
        let a = parse("--workload open_forward --seed 0x10 --seconds 3 --trace 0").unwrap();
        assert!(!a.trace && a.seed == 16 && a.seconds == Some(3.0));
        assert_eq!(parse("--all --smoke").unwrap().workloads.len(), 5);
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seed 1").is_err());
    }
}
