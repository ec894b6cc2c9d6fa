//! Pass 1: protocol-aware source lints over `crates/*/src`.
//!
//! The scope-aware protocol rules live in [`crate::protocol`] and are
//! driven from [`analyze`]; `opcode-coverage` lives here: every
//! request/reply code declared in `crates/vproto/src/codes.rs` must be
//! named in a test under `crates/vproto/tests/`, pinning the wire value of
//! each.
//!
//! The pass also inventories the exceptions to the clippy gates: every lint
//! an `allow(…)` or `expect(…)` attribute names, inner or outer, in
//! non-test source. [`crate::report`] ratchets their count. Both kinds
//! count: rustc reports an `expect` that has gone stale, but an `allow`
//! silences a crate's `deny` and nothing ever audits it.

use crate::source::{strip_comments_and_strings, FileSource};
use crate::{protocol, LintAttr, Violation};
use std::fs;
use std::path::{Path, PathBuf};

fn rel(path: &Path, root: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

fn rust_files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files_under(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Loads every `crates/*/src/**/*.rs` file under `root` as a [`FileSource`].
pub fn collect_files(root: &Path) -> Option<Vec<FileSource>> {
    let crates = fs::read_dir(root.join("crates")).ok()?;
    let mut crate_dirs: Vec<_> = crates.flatten().map(|e| e.path()).collect();
    crate_dirs.sort();
    let mut paths = Vec::new();
    for dir in crate_dirs {
        rust_files_under(&dir.join("src"), &mut paths);
    }
    let mut files = Vec::new();
    for path in paths {
        if let Ok(contents) = fs::read_to_string(&path) {
            files.push(FileSource::new(rel(&path, root), &contents));
        }
    }
    Some(files)
}

/// The offset in `text` of the bracket closing the one opened just before
/// it (`text.len()` if it never closes).
fn closing(text: &str, open: u8, close: u8) -> usize {
    let mut depth = 1usize;
    for (i, b) in text.bytes().enumerate() {
        if b == open {
            depth += 1;
        } else if b == close {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    text.len()
}

/// The lints one attribute body sets to `allow` or `expect`, `cfg_attr`
/// included: each path in an `allow(…)`/`expect(…)` group, whitespace
/// removed, `reason = …` left out.
fn excepted_lints(attr: &str) -> Vec<String> {
    let mut out = Vec::new();
    for level in ["allow", "expect"] {
        for (at, _) in attr.match_indices(level) {
            if attr[..at].ends_with(|c: char| c.is_alphanumeric() || c == '_' || c == ':') {
                continue;
            }
            let Some(args) = attr[at + level.len()..].trim_start().strip_prefix('(') else {
                continue;
            };
            let args = &args[..closing(args, b'(', b')')];
            out.extend(
                args.split(',')
                    .map(|a| a.split_whitespace().collect::<String>())
                    .filter(|a| !a.is_empty() && !a.contains('=')),
            );
        }
    }
    out
}

/// Every lint an `allow`/`expect` attribute (`#[…]` or `#![…]`) names in
/// the non-test regions of `fs`, at the line of the attribute's `#`.
/// Attributes inside comments and strings do not count.
pub fn lint_attributes(fs: &FileSource) -> Vec<LintAttr> {
    let text = fs.stripped.as_str();
    let mut out = Vec::new();
    for (at, _) in text.match_indices('#') {
        let after = &text[at + 1..];
        let Some(attr) = after.strip_prefix('!').unwrap_or(after).strip_prefix('[') else {
            continue;
        };
        let line0 = text[..at].matches('\n').count();
        if fs.in_test_region(line0) {
            continue;
        }
        for lint in excepted_lints(&attr[..closing(attr, b'[', b']')]) {
            out.push(LintAttr {
                lint,
                file: fs.rel.clone(),
                line: line0 + 1,
            });
        }
    }
    out
}

/// Extracts every enum variant declared as `Name = 0x…,` from the stripped
/// text of `codes.rs`.
pub fn declared_codes(codes_source: &str) -> Vec<String> {
    let stripped = strip_comments_and_strings(codes_source);
    let mut out = Vec::new();
    for line in stripped.lines() {
        let t = line.trim();
        if let Some((name, rest)) = t.split_once('=') {
            let name = name.trim();
            let rest = rest.trim();
            if rest.starts_with("0x")
                && rest.ends_with(',')
                && !name.is_empty()
                && name.chars().next().is_some_and(|c| c.is_ascii_uppercase())
                && name.chars().all(|c| c.is_ascii_alphanumeric())
            {
                out.push(name.to_string());
            }
        }
    }
    out
}

/// Checks that every code declared in `crates/vproto/src/codes.rs` is named
/// in at least one test under `crates/vproto/tests/`.
pub fn check_opcode_coverage(root: &Path) -> Vec<Violation> {
    let codes_path = root.join("crates/vproto/src/codes.rs");
    let Ok(codes_src) = fs::read_to_string(&codes_path) else {
        return vec![Violation {
            pass: "lint",
            rule: "opcode-coverage",
            file: "crates/vproto/src/codes.rs".into(),
            line: 0,
            message: "cannot read op-code declarations".into(),
        }];
    };
    let mut tests = String::new();
    let mut test_files = Vec::new();
    rust_files_under(&root.join("crates/vproto/tests"), &mut test_files);
    for f in &test_files {
        if let Ok(s) = fs::read_to_string(f) {
            tests.push_str(&s);
        }
    }
    declared_codes(&codes_src)
        .into_iter()
        .filter(|code| !tests.contains(code.as_str()))
        .map(|code| Violation {
            pass: "lint",
            rule: "opcode-coverage",
            file: "crates/vproto/src/codes.rs".into(),
            line: 0,
            message: format!(
                "op code `{code}` is not exercised by any test in crates/vproto/tests \
                 (add it to the wire round-trip test)"
            ),
        })
        .collect()
}

/// The complete result of the lint pass.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Every lint an `allow`/`expect` attribute names in non-test source.
    pub attributes: Vec<LintAttr>,
    /// The protocol rules' findings and the op-code coverage misses.
    pub violations: Vec<Violation>,
}

/// Runs the whole lint pass (protocol rules, opcode coverage, the
/// lint-attribute inventory) over the workspace rooted at `root`.
pub fn analyze(root: &Path) -> Analysis {
    let Some(files) = collect_files(root) else {
        return Analysis {
            violations: vec![Violation {
                pass: "lint",
                rule: "lint",
                file: String::new(),
                line: 0,
                message: format!("workspace root {} has no crates/ directory", root.display()),
            }],
            ..Analysis::default()
        };
    };

    let mut analysis = Analysis::default();
    for fs in &files {
        analysis.violations.extend(protocol::scan(fs));
        analysis.attributes.extend(lint_attributes(fs));
    }
    analysis
        .violations
        .extend(protocol::dispatch_coverage(&files));
    analysis.violations.extend(check_opcode_coverage(root));
    analysis
}

/// Runs the whole lint pass over the workspace rooted at `root`.
pub fn run(root: &Path) -> Vec<Violation> {
    analyze(root).violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lints_of(src: &str) -> Vec<(String, usize)> {
        lint_attributes(&FileSource::new("crates/vservers/src/file.rs", src))
            .into_iter()
            .map(|a| (a.lint, a.line))
            .collect()
    }

    fn workspace_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    /// Every lint a `#![deny(…)]` names in the stripped text of `rel`.
    fn denied_lints(rel: &str) -> Vec<String> {
        let contents = fs::read_to_string(workspace_root().join(rel)).unwrap_or_default();
        let text = FileSource::new(rel, &contents).stripped;
        let mut out = Vec::new();
        for (at, _) in text.match_indices("#![deny(") {
            let args = &text[at + "#![deny(".len()..];
            out.extend(
                args[..closing(args, b'(', b')')]
                    .split(',')
                    .map(|a| a.split_whitespace().collect::<String>())
                    .filter(|a| !a.is_empty()),
            );
        }
        out
    }

    #[test]
    fn wall_clock_flagged_outside_allowlist() {
        // `clippy.toml` bans the wall clock everywhere; the thread kernel
        // and the bench harness are the only exceptions in the workspace.
        let policy = fs::read_to_string(workspace_root().join("clippy.toml")).unwrap_or_default();
        assert!(policy.contains("path = \"std::time::Instant\""));
        assert!(policy.contains("path = \"std::time::SystemTime\""));
        let exempt: Vec<String> = analyze(&workspace_root())
            .attributes
            .into_iter()
            .filter(|a| a.lint == "clippy::disallowed_types")
            .map(|a| a.file)
            .collect();
        assert_eq!(
            exempt,
            vec!["crates/vbench/src/lib.rs", "crates/vkernel/src/thread.rs"]
        );
    }

    #[test]
    fn panics_flagged_only_in_hot_paths() {
        // The server and client crate roots deny every panicking call;
        // vproto, off the hot path, does not.
        let panics = [
            "clippy::unwrap_used",
            "clippy::expect_used",
            "clippy::panic",
            "clippy::unreachable",
            "clippy::todo",
            "clippy::unimplemented",
        ];
        for root in [
            "crates/vservers/src/lib.rs",
            "crates/vruntime/src/lib.rs",
            "crates/vcentral/src/lib.rs",
        ] {
            let denied = denied_lints(root);
            for lint in panics {
                assert!(denied.iter().any(|d| d == lint), "{root} lacks {lint}");
            }
        }
        let denied = denied_lints("crates/vproto/src/lib.rs");
        assert!(!denied.iter().any(|d| panics.contains(&d.as_str())));
    }

    #[test]
    fn allow_marker_exempts_a_line() {
        // The exemption is an `#[expect]` on the statement it covers: the
        // inventory puts it on that line, and its reason text is no lint.
        let src = "fn f() {\n    let a = Instant::now();\n    \
                   #[expect(clippy::disallowed_types, reason = \"allow(calibration)\")] \
                   let t = Instant::now();\n}\n";
        assert_eq!(lints_of(src), vec![("clippy::disallowed_types".into(), 3)]);
    }

    #[test]
    fn allowed_finding_still_recorded_for_the_audit() {
        // An `expect` that suppresses a live finding is still an exception
        // the ratchet counts, at the line of its `#`.
        let src = "fn f() {\n    #[expect(clippy::unwrap_used, reason = \"boot only\")]\n    \
                   let x = y.unwrap();\n}\n";
        assert_eq!(lints_of(src), vec![("clippy::unwrap_used".into(), 2)]);
    }

    #[test]
    fn every_allow_and_expect_form_counts() {
        let src = "#![allow(dead_code)]\n\
                   #[expect(\n    clippy::panic,\n    clippy::expect_used,\n    \
                   reason = \"startup\"\n)]\nfn f() {}\n\
                   #[cfg_attr(debug_assertions, allow(clippy::unwrap_used))]\nfn g() {}\n";
        assert_eq!(
            lints_of(src),
            vec![
                ("dead_code".into(), 1),
                ("clippy::panic".into(), 2),
                ("clippy::expect_used".into(), 2),
                ("clippy::unwrap_used".into(), 8),
            ]
        );
    }

    #[test]
    fn allow_marker_must_match_rule_exactly() {
        // Keys are exact lint paths; other levels and look-alike attribute
        // names are not exceptions.
        let src = "#[allow( clippy :: unwrap_used_ish )]\n\
                   #![deny(clippy::unwrap_used)]\n\
                   #[should_panic(expected = \"boom\")]\n\
                   #[allow_internal_unstable(x)]\nfn f() {}\n";
        assert_eq!(lints_of(src), vec![("clippy::unwrap_used_ish".into(), 1)]);
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    #[allow(clippy::unwrap_used)]\n    \
                   fn t() {}\n}\n#[allow(dead_code)]\nfn after() {}\n";
        assert_eq!(lints_of(src), vec![("dead_code".into(), 6)]);
    }

    #[test]
    fn comments_and_strings_do_not_trip_lints() {
        let src = "// #[allow(clippy::unwrap_used)]\n/* #[expect(clippy::panic)] */\n\
                   /// #[allow(dead_code)]\nfn f() {}\n";
        assert!(lints_of(src).is_empty());
    }

    #[test]
    fn marker_inventory_ignores_strings_and_test_regions() {
        let src = "const HELP: &str = \"#[allow(clippy::unwrap_used)]\";\n\
                   #[cfg(all(test, debug_assertions))]\n\
                   mod ledger {\n    #![allow(dead_code)]\n}\n";
        assert!(lints_of(src).is_empty());
    }

    #[test]
    fn declared_codes_extracts_variants() {
        let src =
            "pub enum X {\n    Echo = 0x0001,\n    QueryName = 0x8001,\n}\nconst Y: u16 = 3;\n";
        assert_eq!(declared_codes(src), vec!["Echo", "QueryName"]);
    }
}
