//! End-to-end checks that each vcheck pass (a) accepts the real workspace
//! and (b) rejects a deliberately introduced violation.

use std::fs;
use std::path::{Path, PathBuf};
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
fn lint_pass_rejects_a_planted_wall_clock_call() {
    let root = synthetic_workspace(
        "wall-clock",
        &[
            (
                "crates/vnaming/src/lib.rs",
                "pub fn t() -> std::time::Instant { Instant::now() }\n",
            ),
            ("crates/vproto/src/codes.rs", ""),
        ],
    );
    let violations = lints::run(&root);
    assert!(
        violations
            .iter()
            .any(|v| v.file == "crates/vnaming/src/lib.rs" && v.message.contains("Instant::now")),
        "planted Instant::now must be flagged: {violations:?}"
    );
}

#[test]
fn lint_pass_rejects_a_planted_hot_path_unwrap() {
    let root = synthetic_workspace(
        "panic-path",
        &[
            (
                "crates/vservers/src/file.rs",
                "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
            ),
            ("crates/vproto/src/codes.rs", ""),
        ],
    );
    let violations = lints::run(&root);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert_eq!(violations[0].file, "crates/vservers/src/file.rs");
    assert_eq!(violations[0].line, 1);
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

#[test]
fn lint_pass_rejects_a_stale_allow_marker() {
    // A marker on a line that triggers nothing is itself an error.
    let root = synthetic_workspace(
        "stale-allow",
        &[
            (
                "crates/vservers/src/file.rs",
                "pub fn f() -> u8 { 1 } // vcheck: allow(panic-path) obsolete\n",
            ),
            ("crates/vproto/src/codes.rs", ""),
        ],
    );
    let violations = lints::run(&root);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert_eq!(violations[0].rule, "stale-allow");
    assert_eq!(violations[0].file, "crates/vservers/src/file.rs");
    assert_eq!(violations[0].line, 1);
}

#[test]
fn allowed_finding_is_suppressed_but_audited() {
    let root = synthetic_workspace(
        "allow-live",
        &[
            (
                "crates/vservers/src/file.rs",
                "pub fn f(x: Option<u8>) -> u8 { x.unwrap() } // vcheck: allow(panic-path) boot only\n",
            ),
            ("crates/vproto/src/codes.rs", ""),
        ],
    );
    let analysis = lints::analyze(&root);
    assert!(analysis.violations.is_empty(), "{:?}", analysis.violations);
    assert_eq!(analysis.findings.len(), 1);
    assert!(analysis.findings[0].allowed);
    assert_eq!(analysis.markers.len(), 1);
}

// ---- ratchet ----

#[test]
fn ratchet_requires_a_baseline_then_pins_allow_counts() {
    let root = synthetic_workspace(
        "ratchet",
        &[
            (
                "crates/vservers/src/file.rs",
                "pub fn f(x: Option<u8>) -> u8 { x.unwrap() } // vcheck: allow(panic-path) boot only\n",
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

    // A second allow slips in: the ratchet catches the rise.
    fs::write(
        root.join("crates/vservers/src/file.rs"),
        "pub fn f(x: Option<u8>) -> u8 { x.unwrap() } // vcheck: allow(panic-path) boot only\n\
         pub fn g(x: Option<u8>) -> u8 { x.unwrap() } // vcheck: allow(panic-path) me too\n",
    )
    .expect("grow fixture");
    let grown = lints::analyze(&root);
    assert!(grown.violations.is_empty());
    let v = report::ratchet(&root, &grown);
    assert_eq!(v.len(), 1, "{v:?}");
    assert!(v[0].message.contains("rose 1 -> 2"), "{}", v[0].message);
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
