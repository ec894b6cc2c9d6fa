//! `vcheck`: the protocol-invariant lints clippy cannot express, and a
//! determinism/race gate for the V-System kernels.
//!
//! The structural rules that name types and methods are clippy's: the
//! workspace `clippy.toml` bans `std::time::Instant`/`SystemTime` (time
//! comes from the kernel, `Ipc::now`, so the virtual-time experiments stay
//! deterministic) and `Ipc::{receive, reply, forward}` in the server
//! crates (one server loop, `vservers::common::serve`), and the server and
//! resolution paths deny `unwrap`/`expect`/`panic!` at their crate or
//! module roots. `cargo clippy -- -D warnings` in `scripts/check.sh`
//! enforces them, resolving names by type, so an alias or a `dyn Ipc`
//! receiver cannot slip past. Each exception is an
//! `#[expect(lint, reason = "…")]`, which rustc reports once it goes stale.
//!
//! Three passes, all run by `cargo run -p vcheck` (exits nonzero on any
//! violation):
//!
//! 1. **Source lints** ([`lints`]) over `crates/*/src` — the scope-aware
//!    protocol rules of [`protocol`], and op-code coverage:
//!    * `opcode-coverage` — every op code declared in `vproto::codes`
//!      appears in a wire round-trip test;
//!    * `wire-narrowing` — no silent `as u16`/`as u8` truncation of a
//!      `len()` or into a message word anywhere, nor in vproto encode
//!      paths;
//!    * `wire-symmetry` — every field of a vproto wire record is both
//!      encoded and decoded;
//!    * `guard-across-send` — no lock guard held across blocking IPC in the
//!      server/runtime crates;
//!    * `opcode-dispatch` — every request code is dispatched by a server
//!      and every reply code is constructed by non-test code.
//!
//!    These rules have no escape hatch: a finding is fixed, not excused.
//!    The pass also inventories the lint-level attributes (`#[allow(…)]`,
//!    `#[expect(…)]`) outside test code, and [`report`] ratchets their
//!    count per lint and file against the committed `vcheck.baseline.json`,
//!    so a new exception to a clippy gate fails CI until deliberately
//!    blessed (`vcheck --bless`).
//!
//! 2. **Determinism gate** ([`determinism`]): runs kernel workloads and a
//!    sample of the `vsim` experiments twice and compares hashes of the
//!    event streams; any divergence between same-seed runs fails the gate.
//!
//! 3. **Dynamic invariant checks** ([`dynamics`]): drives both kernels
//!    through rendezvous, forward-chain, multicast, and crash scenarios
//!    under the debug-build [`vkernel::invariants`] ledger, which panics on
//!    any violation of the Send/Reply/Forward state machine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod determinism;
pub mod dynamics;
pub mod lints;
pub mod protocol;
pub mod report;
pub mod scopes;
pub mod source;

use std::fmt;

/// One finding from any pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which pass produced the finding (`"lint"`, `"determinism"`,
    /// `"invariant"`).
    pub pass: &'static str,
    /// Which rule fired (`"wire-narrowing"`, `"ratchet"`, …;
    /// `"determinism"`/`"invariant"` for the dynamic passes).
    pub rule: &'static str,
    /// Offending file, workspace-relative where possible; empty for
    /// findings without a file.
    pub file: String,
    /// 1-based line number; 0 for findings without a line.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

/// One lint-level attribute (`allow` or `expect`, inner or outer) in
/// non-test source: an exception to a lint, counted by the ratchet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintAttr {
    /// The lint the attribute names, e.g. `clippy::expect_used`.
    pub lint: String,
    /// File carrying the attribute, workspace-relative.
    pub file: String,
    /// 1-based line of the attribute's `#`.
    pub line: usize,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = if self.rule.is_empty() || self.rule == self.pass {
            format!("[{}]", self.pass)
        } else {
            format!("[{}/{}]", self.pass, self.rule)
        };
        if self.file.is_empty() {
            write!(f, "{tag} {}", self.message)
        } else if self.line == 0 {
            write!(f, "{tag} {}: {}", self.file, self.message)
        } else {
            write!(f, "{tag} {}:{}: {}", self.file, self.line, self.message)
        }
    }
}
