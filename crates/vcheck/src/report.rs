//! Machine-readable reporting (`vcheck --json`) and the allow-count
//! ratchet.
//!
//! The ratchet pins the number of lint exceptions — lints named by
//! `#[allow(…)]`/`#[expect(…)]` attributes outside test code — per lint and
//! file in a committed baseline, `vcheck.baseline.json` at the workspace
//! root. Any drift — a new exception, a removed one, a file appearing or
//! disappearing — fails the gate until the baseline is deliberately
//! regenerated with `vcheck --bless`. New violations already fail the gate
//! outright; the ratchet closes the remaining hole, where a change quietly
//! grows the exception list instead.
//!
//! Both the report and the baseline are plain JSON written and parsed here
//! directly (vcheck stays dependency-free). The baseline is a flat object —
//! `"<lint> <file>": count` — one line per entry, sorted, so diffs are
//! reviewable.

use crate::lints::Analysis;
use crate::Violation;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// Baseline file name, relative to the workspace root.
pub const BASELINE_FILE: &str = "vcheck.baseline.json";

/// Escapes `s` for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Lint-exception counts per `"<lint> <file>"` key (the ratchet unit).
/// Lint paths and workspace-relative paths never contain spaces, so the
/// first space splits the key unambiguously.
pub fn allow_counts(analysis: &Analysis) -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    for a in &analysis.attributes {
        *counts.entry(format!("{} {}", a.lint, a.file)).or_insert(0) += 1;
    }
    counts
}

/// Renders the full machine-readable report.
pub fn render_json(violations: &[Violation], analysis: &Analysis) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"version\": 2,\n");
    let _ = writeln!(out, "  \"violation_count\": {},", violations.len());

    out.push_str("  \"violations\": [");
    for (i, v) in violations.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let _ = write!(
            out,
            "{sep}    {{\"pass\": \"{}\", \"rule\": \"{}\", \"file\": \"{}\", \
             \"line\": {}, \"message\": \"{}\"}}",
            json_escape(v.pass),
            json_escape(v.rule),
            json_escape(&v.file),
            v.line,
            json_escape(&v.message)
        );
    }
    out.push_str(if violations.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });

    out.push_str("  \"allows\": [");
    for (i, a) in analysis.attributes.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let _ = write!(
            out,
            "{sep}    {{\"lint\": \"{}\", \"file\": \"{}\", \"line\": {}}}",
            json_escape(&a.lint),
            json_escape(&a.file),
            a.line
        );
    }
    out.push_str(if analysis.attributes.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });

    let counts = allow_counts(analysis);
    out.push_str("  \"allow_counts\": {");
    for (i, (key, n)) in counts.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let _ = write!(out, "{sep}    \"{}\": {}", json_escape(key), n);
    }
    out.push_str(if counts.is_empty() { "}\n" } else { "\n  }\n" });
    out.push_str("}\n");
    out
}

/// Renders the ratchet baseline for the current analysis.
pub fn render_baseline(analysis: &Analysis) -> String {
    let counts = allow_counts(analysis);
    let mut out = String::from("{\n");
    for (i, (key, n)) in counts.iter().enumerate() {
        let sep = if i + 1 == counts.len() { "" } else { "," };
        let _ = writeln!(out, "  \"{}\": {}{}", json_escape(key), n, sep);
    }
    out.push_str("}\n");
    out
}

/// Parses a baseline previously written by [`render_baseline`]: a flat JSON
/// object of integer values, one `"key": n` pair per line. Returns `None`
/// on anything that doesn't look like that shape.
pub fn parse_baseline(text: &str) -> Option<BTreeMap<String, usize>> {
    let body = text.trim();
    let body = body.strip_prefix('{')?.strip_suffix('}')?;
    let mut out = BTreeMap::new();
    for line in body.lines() {
        let line = line.trim().trim_end_matches(',');
        if line.is_empty() {
            continue;
        }
        let rest = line.strip_prefix('"')?;
        let (key, rest) = rest.split_once('"')?;
        let value = rest.trim().strip_prefix(':')?.trim();
        out.insert(key.to_string(), value.parse().ok()?);
    }
    Some(out)
}

fn ratchet_violation(key: &str, message: String) -> Violation {
    let file = key.split_once(' ').map(|(_, f)| f).unwrap_or("");
    Violation {
        pass: "lint",
        rule: "ratchet",
        file: file.to_string(),
        line: 0,
        message,
    }
}

/// Compares the current allow counts against `baseline`. Any drift in
/// either direction is a violation: upward means a new exception slipped
/// in, downward means progress the baseline should pin before it regresses.
pub fn ratchet_against(baseline: &BTreeMap<String, usize>, analysis: &Analysis) -> Vec<Violation> {
    let current = allow_counts(analysis);
    let mut out = Vec::new();
    for (key, n) in &current {
        let base = baseline.get(key).copied().unwrap_or(0);
        if *n > base {
            out.push(ratchet_violation(
                key,
                format!(
                    "allow count for `{key}` rose {base} -> {n}; a new `#[allow]` or \
                     `#[expect]` needs a justification in review — rerun `vcheck --bless` \
                     to accept"
                ),
            ));
        }
    }
    for (key, base) in baseline {
        let n = current.get(key).copied().unwrap_or(0);
        if n < *base {
            out.push(ratchet_violation(
                key,
                format!(
                    "allow count for `{key}` fell {base} -> {n}; rerun `vcheck --bless` \
                     so the baseline pins the improvement"
                ),
            ));
        }
    }
    out
}

/// Loads the committed baseline and ratchets the analysis against it. A
/// missing or unparseable baseline is itself a violation.
pub fn ratchet(root: &Path, analysis: &Analysis) -> Vec<Violation> {
    let path = root.join(BASELINE_FILE);
    let Ok(text) = fs::read_to_string(&path) else {
        return vec![Violation {
            pass: "lint",
            rule: "ratchet",
            file: BASELINE_FILE.to_string(),
            line: 0,
            message: "ratchet baseline missing; run `cargo run -p vcheck -- --bless` and \
                      commit the result"
                .into(),
        }];
    };
    let Some(baseline) = parse_baseline(&text) else {
        return vec![Violation {
            pass: "lint",
            rule: "ratchet",
            file: BASELINE_FILE.to_string(),
            line: 0,
            message: "ratchet baseline is not a flat JSON object of counts; regenerate it \
                      with `cargo run -p vcheck -- --bless`"
                .into(),
        }];
    };
    ratchet_against(&baseline, analysis)
}

/// Rewrites the committed baseline from the current analysis.
pub fn bless(root: &Path, analysis: &Analysis) -> std::io::Result<()> {
    fs::write(root.join(BASELINE_FILE), render_baseline(analysis))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LintAttr;

    fn attr(lint: &str, file: &str) -> LintAttr {
        LintAttr {
            lint: lint.into(),
            file: file.into(),
            line: 1,
        }
    }

    fn analysis(attributes: Vec<LintAttr>) -> Analysis {
        Analysis {
            attributes,
            violations: Vec::new(),
        }
    }

    #[test]
    fn baseline_round_trips() {
        let a = analysis(vec![
            attr("clippy::expect_used", "crates/x/src/lib.rs"),
            attr("clippy::expect_used", "crates/x/src/lib.rs"),
            attr("clippy::disallowed_types", "crates/y/src/lib.rs"),
        ]);
        let text = render_baseline(&a);
        let parsed = parse_baseline(&text).expect("own output must parse");
        assert_eq!(
            parsed.get("clippy::expect_used crates/x/src/lib.rs"),
            Some(&2)
        );
        assert_eq!(
            parsed.get("clippy::disallowed_types crates/y/src/lib.rs"),
            Some(&1)
        );
        assert_eq!(parsed.len(), 2);
    }

    #[test]
    fn empty_baseline_round_trips() {
        let a = analysis(Vec::new());
        assert_eq!(parse_baseline(&render_baseline(&a)), Some(BTreeMap::new()));
    }

    #[test]
    fn ratchet_flags_rise_and_fall() {
        let a = analysis(vec![
            attr("clippy::expect_used", "crates/x/src/lib.rs"),
            attr("clippy::expect_used", "crates/x/src/lib.rs"),
        ]);
        let mut base = BTreeMap::new();
        base.insert("clippy::expect_used crates/x/src/lib.rs".to_string(), 1);
        let v = ratchet_against(&base, &a);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("rose 1 -> 2"));

        base.insert("clippy::expect_used crates/x/src/lib.rs".to_string(), 3);
        let v = ratchet_against(&base, &a);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("fell 3 -> 2"));

        base.insert("clippy::expect_used crates/x/src/lib.rs".to_string(), 2);
        assert!(ratchet_against(&base, &a).is_empty());
    }

    #[test]
    fn ratchet_flags_new_and_vanished_files() {
        let a = analysis(vec![attr("clippy::expect_used", "crates/x/src/lib.rs")]);
        let v = ratchet_against(&BTreeMap::new(), &a);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("rose 0 -> 1"));

        let mut base = BTreeMap::new();
        base.insert("clippy::panic crates/gone/src/lib.rs".to_string(), 2);
        let a = analysis(Vec::new());
        let v = ratchet_against(&base, &a);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("fell 2 -> 0"));
        assert_eq!(v[0].file, "crates/gone/src/lib.rs");
    }

    #[test]
    fn json_report_is_well_formed_enough_to_grep() {
        let v = vec![Violation {
            pass: "lint",
            rule: "wire-narrowing",
            file: "crates/vproto/src/wire.rs".into(),
            line: 62,
            message: "say \"no\" to\ttruncation".into(),
        }];
        let a = analysis(vec![attr("clippy::expect_used", "crates/x/src/lib.rs")]);
        let text = render_json(&v, &a);
        assert!(text.contains("\"violation_count\": 1"));
        assert!(text.contains("\"rule\": \"wire-narrowing\""));
        assert!(text.contains("\\\"no\\\" to\\ttruncation"));
        assert!(text.contains("\"clippy::expect_used crates/x/src/lib.rs\": 1"));
        assert!(text.contains("\"lint\": \"clippy::expect_used\""));
    }
}
