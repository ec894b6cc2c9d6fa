//! The `vcheck` binary: runs all three passes over the workspace and exits
//! nonzero if any violation is found. See the crate docs in `lib.rs`.
//!
//! Flags:
//!
//! * `--json [PATH]` — also emit the machine-readable report (violations,
//!   lint-attribute inventory, allow counts) to `PATH`, or stdout if no
//!   path follows.
//! * `--bless` — regenerate the ratchet baseline (`vcheck.baseline.json`)
//!   from the current allow counts instead of checking against it.

use std::path::PathBuf;
use vcheck::{determinism, dynamics, lints, report, Violation};

fn workspace_root() -> PathBuf {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    root.canonicalize().unwrap_or(root)
}

struct Options {
    json: bool,
    json_path: Option<PathBuf>,
    bless: bool,
}

fn parse_args() -> Options {
    let mut opts = Options {
        json: false,
        json_path: None,
        bless: false,
    };
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => {
                opts.json = true;
                if args.peek().is_some_and(|a| !a.starts_with("--")) {
                    opts.json_path = args.next().map(PathBuf::from);
                }
            }
            "--bless" => opts.bless = true,
            other => {
                eprintln!("vcheck: unknown argument `{other}` (expected --json [PATH], --bless)");
                std::process::exit(2);
            }
        }
    }
    opts
}

fn main() {
    let opts = parse_args();
    let root = workspace_root();
    let mut violations: Vec<Violation> = Vec::new();

    eprintln!("vcheck: pass 1/3 — source lints over crates/*/src");
    let analysis = lints::analyze(&root);
    violations.extend(analysis.violations.iter().cloned());

    if opts.bless {
        match report::bless(&root, &analysis) {
            Ok(()) => eprintln!(
                "vcheck: ratchet baseline rewritten ({})",
                report::BASELINE_FILE
            ),
            Err(e) => {
                eprintln!("vcheck: cannot write {}: {e}", report::BASELINE_FILE);
                std::process::exit(2);
            }
        }
    } else {
        violations.extend(report::ratchet(&root, &analysis));
    }

    eprintln!("vcheck: pass 2/3 — determinism gate (same-seed double runs)");
    violations.extend(determinism::run());

    eprintln!("vcheck: pass 3/3 — dynamic rendezvous invariants (both kernels)");
    violations.extend(dynamics::run());

    if opts.json {
        let text = report::render_json(&violations, &analysis);
        match &opts.json_path {
            Some(path) => {
                if let Err(e) = std::fs::write(path, &text) {
                    eprintln!("vcheck: cannot write {}: {e}", path.display());
                    std::process::exit(2);
                }
                eprintln!("vcheck: JSON report written to {}", path.display());
            }
            None => print!("{text}"),
        }
    }

    if violations.is_empty() {
        eprintln!("vcheck: all passes clean");
        return;
    }
    for v in &violations {
        println!("{v}");
    }
    eprintln!("vcheck: {} violation(s)", violations.len());
    std::process::exit(1);
}
