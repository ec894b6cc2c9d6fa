//! End-to-end checks that each vcheck pass, and each clippy gate that
//! replaced a vcheck rule, (a) accepts the real workspace and (b) rejects a
//! deliberately introduced violation.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;
use vcheck::source::FileSource;
use vcheck::{determinism, dynamics, lints, report};
use vkernel::invariants::{InvariantLedger, TxnKind};

fn workspace_root() -> PathBuf {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    root.canonicalize().unwrap_or(root)
}

/// Builds a throwaway synthetic workspace under `target/` and returns its
/// root. Each caller gets its own directory.
fn synthetic_workspace(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = workspace_root()
        .join("target/vcheck-test-scratch")
        .join(name);
    let _ = fs::remove_dir_all(&root);
    for (rel, contents) in files {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().unwrap_or(Path::new("."))).expect("mkdir");
        fs::write(&path, contents).expect("write fixture");
    }
    root
}

// ---- pass 1: source lints ----

#[test]
fn real_workspace_passes_the_lint_pass() {
    let violations = lints::run(&workspace_root());
    assert!(
        violations.is_empty(),
        "lint pass should be clean on the workspace:\n{}",
        violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn lint_pass_rejects_an_untested_op_code() {
    let root = synthetic_workspace(
        "opcode",
        &[
            (
                "crates/vproto/src/codes.rs",
                "pub enum RequestCode {\n    Echo = 0x0001,\n    Vanish = 0x0002,\n}\n",
            ),
            (
                "crates/vproto/tests/wire.rs",
                "// covers Echo only\nfn t() { let _ = Echo; }\n",
            ),
        ],
    );
    let violations = lints::run(&root);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert!(violations[0].message.contains("`Vanish`"));
}

#[test]
fn lint_pass_rejects_a_planted_len_narrowing() {
    // The acceptance case: adding `len() as u16` in a vproto encode path
    // must fail with a file:line diagnostic.
    let root = synthetic_workspace(
        "wire-narrowing",
        &[
            (
                "crates/vproto/src/wire.rs",
                "pub fn encode_str(w: &mut Vec<u8>, b: &[u8]) {\n    \
                     w.extend((b.len() as u16).to_le_bytes());\n\
                 }\n",
            ),
            ("crates/vproto/src/codes.rs", ""),
        ],
    );
    let violations = lints::run(&root);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert_eq!(violations[0].rule, "wire-narrowing");
    assert_eq!(violations[0].file, "crates/vproto/src/wire.rs");
    assert_eq!(violations[0].line, 2);
}

#[test]
fn lint_pass_rejects_a_narrowed_count_outside_vproto() {
    // A count put into a message word with `as u16` wraps where
    // `Message::set_count` saturates — in any crate, not only vproto.
    let root = synthetic_workspace(
        "wire-narrowing-word",
        &[
            (
                "crates/vio/src/client.rs",
                "pub fn f(m: &mut Message, n: usize) {\n    \
                     m.set_word(fields::W_IO_COUNT, n as u16);\n\
                 }\n",
            ),
            ("crates/vproto/src/codes.rs", ""),
        ],
    );
    let violations = lints::run(&root);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert_eq!(violations[0].rule, "wire-narrowing");
    assert_eq!(violations[0].file, "crates/vio/src/client.rs");
    assert_eq!(violations[0].line, 2);
}

#[test]
fn lint_pass_rejects_a_dropped_decode_field() {
    // The other acceptance case: deleting a field's decode line in a wire
    // record must fail, pointing at the field declaration.
    let root = synthetic_workspace(
        "wire-symmetry",
        &[
            (
                "crates/vproto/src/sync.rs",
                "pub struct SyncRec {\n    \
                     pub epoch: u64,\n    \
                     pub horizon: u64,\n\
                 }\n\
                 impl SyncRec {\n    \
                     pub fn encode(&self, w: &mut W) { w.u64(self.epoch); w.u64(self.horizon); }\n    \
                     pub fn decode(r: &mut R) -> SyncRec {\n        \
                         SyncRec { epoch: r.u64(), ..Default::default() }\n    \
                     }\n\
                 }\n",
            ),
            ("crates/vproto/src/codes.rs", ""),
        ],
    );
    let violations = lints::run(&root);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert_eq!(violations[0].rule, "wire-symmetry");
    assert_eq!(violations[0].file, "crates/vproto/src/sync.rs");
    assert_eq!(violations[0].line, 3, "points at the `horizon` declaration");
    assert!(violations[0].message.contains("`horizon`"));
}

#[test]
fn lint_pass_rejects_a_guard_held_across_send() {
    let root = synthetic_workspace(
        "guard-across-send",
        &[
            (
                "crates/vservers/src/prefix.rs",
                "pub fn serve(ctx: &dyn Ipc, table: &Mutex<u8>) {\n    \
                     let t = table.lock();\n    \
                     ctx.send(peer, msg, Bytes::new(), 0);\n\
                 }\n",
            ),
            ("crates/vproto/src/codes.rs", ""),
        ],
    );
    let violations = lints::run(&root);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert_eq!(violations[0].rule, "guard-across-send");
    assert_eq!(violations[0].line, 3);
}

#[test]
fn lint_pass_guards_the_shard_module_rwlock_reads() {
    // The snapshot module lives under the same guard fence as the rest of
    // vservers, and since it names RwLock, `.read()`/`.write()` count as
    // guard acquisitions there: holding the publication slot open across a
    // blocking send must trip the rule with no allow marker.
    let root = synthetic_workspace(
        "guard-across-send-shard",
        &[
            (
                "crates/vservers/src/shard.rs",
                "pub fn publish_and_tell(ctx: &dyn Ipc, slot: &RwLock<u8>) {\n    \
                     let snap = slot.read();\n    \
                     ctx.send(peer, msg, Bytes::new(), 0);\n\
                 }\n",
            ),
            ("crates/vproto/src/codes.rs", ""),
        ],
    );
    let violations = lints::run(&root);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert_eq!(violations[0].rule, "guard-across-send");
    assert_eq!(violations[0].file, "crates/vservers/src/shard.rs");
    assert_eq!(violations[0].line, 3);
    assert!(violations[0].message.contains("`snap`"));
}

#[test]
fn lint_pass_rejects_an_undispatched_request_code() {
    let root = synthetic_workspace(
        "opcode-dispatch",
        &[
            (
                "crates/vproto/src/codes.rs",
                "pub enum RequestCode {\n    Echo = 0x0001,\n    Vanish = 0x0002,\n}\n",
            ),
            (
                "crates/vproto/tests/wire.rs",
                "fn t() { let _ = (Echo, Vanish); }\n",
            ),
            (
                "crates/vservers/src/file.rs",
                "pub fn d(c: RequestCode) {\n    match c {\n        \
                     RequestCode::Echo => {}\n        _ => {}\n    }\n}\n",
            ),
        ],
    );
    let violations = lints::run(&root);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert_eq!(violations[0].rule, "opcode-dispatch");
    assert!(violations[0].message.contains("`Vanish`"));
}

// ---- ratchet ----

#[test]
fn ratchet_requires_a_baseline_then_pins_allow_counts() {
    let root = synthetic_workspace(
        "ratchet",
        &[
            (
                "crates/vservers/src/file.rs",
                "#[expect(clippy::expect_used, reason = \"boot only\")]\n\
                 pub fn f(x: Option<u8>) -> u8 { x.expect(\"set\") }\n",
            ),
            ("crates/vproto/src/codes.rs", ""),
        ],
    );
    let analysis = lints::analyze(&root);

    // No baseline yet: the ratchet itself fails.
    let v = report::ratchet(&root, &analysis);
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, "ratchet");
    assert!(v[0].message.contains("--bless"));

    // Bless, and the same analysis passes.
    report::bless(&root, &analysis).expect("write baseline");
    assert!(report::ratchet(&root, &analysis).is_empty());

    // A second exception slips in: the ratchet catches the rise.
    fs::write(
        root.join("crates/vservers/src/file.rs"),
        "#[expect(clippy::expect_used, reason = \"boot only\")]\n\
         pub fn f(x: Option<u8>) -> u8 { x.expect(\"set\") }\n\
         #[expect(clippy::expect_used, reason = \"me too\")]\n\
         pub fn g(x: Option<u8>) -> u8 { x.expect(\"set\") }\n",
    )
    .expect("grow fixture");
    let grown = lints::analyze(&root);
    assert!(grown.violations.is_empty());
    let v = report::ratchet(&root, &grown);
    assert_eq!(v.len(), 1, "{v:?}");
    assert!(v[0].message.contains("rose 1 -> 2"), "{}", v[0].message);

    // An `allow` counts too: it silences the crate's `deny` and rustc never
    // audits it, so only the ratchet stands between it and the tree.
    fs::write(
        root.join("crates/vservers/src/file.rs"),
        "#[expect(clippy::expect_used, reason = \"boot only\")]\n\
         pub fn f(x: Option<u8>) -> u8 { x.expect(\"set\") }\n\
         #[allow(clippy::unwrap_used)]\n\
         pub fn g(x: Option<u8>) -> u8 { x.unwrap() }\n",
    )
    .expect("plant allow");
    let v = report::ratchet(&root, &lints::analyze(&root));
    assert_eq!(v.len(), 1, "{v:?}");
    assert!(
        v[0].message
            .contains("`clippy::unwrap_used crates/vservers/src/file.rs` rose 0 -> 1"),
        "{}",
        v[0].message
    );
}

#[test]
fn committed_baseline_matches_the_workspace() {
    // The baseline in git must stay in sync with the tree; if this fails,
    // run `cargo run -p vcheck -- --bless` and commit the result.
    let root = workspace_root();
    let analysis = lints::analyze(&root);
    let v = report::ratchet(&root, &analysis);
    assert!(
        v.is_empty(),
        "ratchet baseline out of date:\n{}",
        v.iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

// ---- the clippy gates ----
//
// The wall clock, the panic-free server paths and the one server loop are
// clippy's: `clippy.toml` at the workspace root names the banned types and
// methods, and each crate root denies the lints. One fixture crate, set up
// as a server crate root, plants each violation on a line tagged
// `// clippy: <lint>`; clippy runs once over it under the workspace's
// `clippy.toml`, and each test checks its own lines.

const CLIPPY_FIXTURE: &str = r#"#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::disallowed_methods
)]

use std::time::{Duration as D2, Instant as Clock}; // clippy: clippy::disallowed_types
use vkernel::Ipc as Kern;
use vkernel::{Ipc, Received};

pub fn planted_wall_clock() -> std::time::Duration {
    std::time::Instant::now().elapsed() // clippy: clippy::disallowed_types
}

pub fn aliased_wall_clock() -> D2 {
    Clock::now().elapsed() // clippy: clippy::disallowed_types
}

pub fn hot_path(x: Option<u8>) -> u8 {
    x.unwrap() // clippy: clippy::unwrap_used
}

pub fn receive_through_an_alias(k: &dyn Ipc) -> bool {
    Kern::receive(k).is_ok() // clippy: clippy::disallowed_methods
}

pub fn forward_on_any_binding(k: &dyn Ipc, rx: Received) -> bool {
    let (to, msg) = (rx.from, rx.msg);
    k.forward(rx, to, msg).is_ok() // clippy: clippy::disallowed_methods
}

#[expect(clippy::unwrap_used, reason = "startup only")]
pub fn live_exception(x: Option<u8>) -> u8 {
    x.unwrap()
}

#[expect(clippy::unwrap_used, reason = "no longer unwraps")] // clippy: unfulfilled_lint_expectations
pub fn stale_exception(x: Option<u8>) -> u8 {
    x.unwrap_or(0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap_expect_and_panic() {
        let x = std::hint::black_box(Some(1u8));
        assert_eq!(x.unwrap(), x.expect("set"));
        if x.is_none() {
            panic!("unset");
        }
    }
}
"#;

/// 1-based line of the one fixture line containing `needle`.
fn fixture_line(needle: &str) -> usize {
    let hits: Vec<usize> = CLIPPY_FIXTURE
        .lines()
        .enumerate()
        .filter(|(_, l)| l.contains(needle))
        .map(|(n, _)| n + 1)
        .collect();
    assert_eq!(hits.len(), 1, "`{needle}` must name one fixture line");
    hits[0]
}

/// `(line, lint)` of one cargo `compiler-message` JSON line on the
/// fixture's `src/lib.rs`: the lint is the diagnostic's `code` (its notes
/// carry none), the line the first `-->` of its rendered text (the primary
/// span comes first).
fn diagnostic(json: &str) -> Option<(usize, String)> {
    if !json.contains("\"reason\":\"compiler-message\"") {
        return None;
    }
    let lint = json
        .split("\"code\":{\"code\":\"")
        .nth(1)?
        .split('"')
        .next()?;
    let rendered = json.split("\"rendered\":\"").nth(1)?;
    let line = rendered
        .split("--> src/lib.rs:")
        .nth(1)?
        .split(':')
        .next()?;
    Some((line.parse().ok()?, lint.to_string()))
}

/// Every `(line, lint)` clippy reports on the fixture, all targets, under
/// the workspace's `clippy.toml` and `-D warnings` (as `scripts/check.sh`
/// runs it). Runs clippy once per test binary.
fn clippy_findings() -> &'static BTreeSet<(usize, String)> {
    static FINDINGS: OnceLock<BTreeSet<(usize, String)>> = OnceLock::new();
    FINDINGS.get_or_init(|| {
        let root = workspace_root();
        let manifest = format!(
            "[package]\nname = \"clippy-fixture\"\nversion = \"0.0.0\"\nedition = \"2021\"\n\
             publish = false\n\n[dependencies]\nvkernel = {{ path = \"{}\" }}\n\n[workspace]\n",
            root.join("crates/vkernel").display()
        );
        let dir = synthetic_workspace(
            "clippy-fixture",
            &[("Cargo.toml", &manifest), ("src/lib.rs", CLIPPY_FIXTURE)],
        );
        let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
        let out = Command::new(cargo)
            .args(["clippy", "--offline", "--quiet", "--all-targets"])
            .args(["--message-format=json", "--", "-D", "warnings"])
            .current_dir(&dir)
            .env("CLIPPY_CONF_DIR", &root)
            .env(
                "CARGO_TARGET_DIR",
                root.join("target/vcheck-test-scratch/clippy-target"),
            )
            .output()
            .expect("run cargo clippy");
        let findings: BTreeSet<_> = String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter_map(diagnostic)
            .collect();
        assert!(
            !findings.is_empty(),
            "clippy reported nothing on the fixture:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        findings
    })
}

fn assert_reported(needle: &str, lint: &str) {
    let at = (fixture_line(needle), lint.to_string());
    let found = clippy_findings();
    assert!(found.contains(&at), "{at:?} not in {found:?}");
}

/// Every tagged line — the aliased `Instant`, `Kern::receive(k)` and
/// `k.forward(..)` among them, which text rules missed — reports its lint,
/// and nothing else is reported: not the live `#[expect]`, and not the test
/// module (`clippy.toml` lets tests unwrap, expect and panic).
#[test]
fn clippy_reports_exactly_the_planted_lines() {
    let planted: BTreeSet<(usize, String)> = CLIPPY_FIXTURE
        .lines()
        .enumerate()
        .filter_map(|(n, l)| Some((n + 1, l.split("// clippy: ").nth(1)?.to_string())))
        .collect();
    assert_eq!(clippy_findings(), &planted);
}

#[test]
fn lint_pass_rejects_a_planted_wall_clock_call() {
    assert_reported("std::time::Instant::now()", "clippy::disallowed_types");
}

#[test]
fn lint_pass_rejects_a_planted_hot_path_unwrap() {
    assert_reported("x.unwrap() // clippy", "clippy::unwrap_used");
}

#[test]
fn lint_pass_rejects_a_stale_allow_marker() {
    // An `#[expect]` whose lint no longer fires is itself an error.
    assert_reported(
        "reason = \"no longer unwraps\"",
        "unfulfilled_lint_expectations",
    );
}

#[test]
fn allowed_finding_is_suppressed_but_audited() {
    // A live `#[expect]` silences its line, and the ratchet still counts it.
    let at = fixture_line("reason = \"startup only\"");
    assert!(
        !clippy_findings()
            .iter()
            .any(|(line, _)| (at..=at + 2).contains(line)),
        "{:?}",
        clippy_findings()
    );
    let attrs = lints::lint_attributes(&FileSource::new(
        "crates/vservers/src/lib.rs",
        CLIPPY_FIXTURE,
    ));
    assert!(attrs
        .iter()
        .any(|a| a.line == at && a.lint == "clippy::unwrap_used"));
}

// ---- pass 2: determinism gate ----

#[test]
fn determinism_gate_passes_the_real_workloads() {
    assert!(determinism::run().is_empty());
}

#[test]
fn determinism_gate_rejects_divergent_hashes() {
    let v = determinism::compare("planted divergence", 0xAAAA, 0xBBBB)
        .expect("differing hashes must be flagged");
    assert_eq!(v.pass, "determinism");
    assert!(v.message.contains("planted divergence"));
}

// ---- pass 3: dynamic invariants ----

#[test]
fn invariant_pass_accepts_both_kernels() {
    if cfg!(debug_assertions) {
        assert!(dynamics::run().is_empty());
    } else {
        // A release build must not silently pretend the ledger ran.
        assert!(dynamics::run()[0].message.contains("disarmed"));
    }
}

#[cfg(debug_assertions)]
#[test]
fn invariant_pass_rejects_a_leaked_reply_path() {
    // A Send that is never resolved is exactly the bug class the ledger
    // exists for; the gate must surface it as a violation, not a crash.
    let result = std::panic::catch_unwind(|| {
        let ledger = InvariantLedger::new();
        ledger.on_send_open(7, TxnKind::Single);
        ledger.assert_all_resolved();
    });
    let payload = result.expect_err("leaked reply path must panic");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(msg.contains("never resolved"), "{msg}");
}

#[cfg(debug_assertions)]
#[test]
fn invariant_pass_rejects_a_double_reply() {
    let result = std::panic::catch_unwind(|| {
        let ledger = InvariantLedger::new();
        ledger.on_send_open(9, TxnKind::Single);
        ledger.on_reply(9);
        ledger.on_reply(9);
    });
    assert!(result.is_err(), "double reply on one Send must panic");
}
