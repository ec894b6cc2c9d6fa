//! Regenerates the experiments of the index (see DESIGN.md) and prints
//! their paper-vs-measured tables.
//!
//! ```sh
//! cargo run -p vsim -- EXP-4            # one experiment
//! cargo run -p vsim -- all --markdown   # every table of EXPERIMENTS.md
//! ```
//!
//! An unknown or missing id lists the valid ones on stderr and exits 2.

use std::process::ExitCode;
use vsim::{ExpReport, EXPERIMENTS};

fn main() -> ExitCode {
    let mut markdown = false;
    let mut ids = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--markdown" => markdown = true,
            _ => ids.push(arg),
        }
    }
    let runs: Vec<fn() -> ExpReport> = match ids.as_slice() {
        [id] if id == "all" => EXPERIMENTS.iter().map(|&(_, run)| run).collect(),
        [id] => EXPERIMENTS
            .iter()
            .filter(|(known, _)| known == id)
            .map(|&(_, run)| run)
            .collect(),
        _ => Vec::new(),
    };
    if runs.is_empty() {
        let known: Vec<&str> = EXPERIMENTS.iter().map(|&(id, _)| id).collect();
        eprintln!("usage: vsim <EXP-n|all> [--markdown]");
        eprintln!("experiments: {} all", known.join(" "));
        return ExitCode::from(2);
    }
    for run in runs {
        let rep = run();
        if markdown {
            println!("{}", rep.to_markdown());
        } else {
            println!("{rep}");
        }
    }
    ExitCode::SUCCESS
}
