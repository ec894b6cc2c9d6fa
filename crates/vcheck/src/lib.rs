//! `vcheck`: workspace-wide static analysis, protocol-invariant lints, and
//! a determinism/race gate for the V-System kernels.
//!
//! Three passes, all run by `cargo run -p vcheck` (exits nonzero on any
//! violation):
//!
//! 1. **Source lints** ([`lints`]) over `crates/*/src` — token rules plus
//!    the scope-aware protocol rules of [`protocol`]:
//!    * `wall-clock` — no wall-clock or ambient randomness
//!      (`std::time::Instant`, `SystemTime`, `rand::*`) outside the
//!      allowlisted wall-clock crates — everything else must take time from
//!      the kernel (`Ipc::now`) so the virtual-time experiments stay
//!      deterministic;
//!    * `panic-path` — no `unwrap()`/`expect()`/`panic!()` in the server and
//!      resolution hot paths — a server must answer with a reply code, not
//!      die;
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
//!    Individually justified exceptions carry an inline
//!    `// vcheck: allow(<rule>)` marker. The lint pass audits the markers
//!    themselves: a marker on a line that no longer triggers its rule is a
//!    `stale-allow` violation, and [`report`] ratchets the total allow count
//!    per rule/file against the committed `vcheck.baseline.json` so new
//!    exceptions fail CI until deliberately blessed (`vcheck --bless`).
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
    /// Which rule fired (`"wall-clock"`, `"wire-narrowing"`, …;
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

/// One rule hit from the lint pass, before the allow-marker filter: an
/// `allowed` finding is suppressed as a violation but still counts for the
/// stale-allow audit and the ratchet baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired.
    pub rule: &'static str,
    /// Offending file, workspace-relative.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
    /// `true` if the line carries a matching `vcheck: allow(<rule>)`.
    pub allowed: bool,
}

/// One `vcheck: allow(<rule>)` marker found in non-test source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowMarker {
    /// The rule name inside the marker.
    pub rule: String,
    /// File carrying the marker, workspace-relative.
    pub file: String,
    /// 1-based line number of the marker.
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
