//! Pass 1b: protocol-conformance and concurrency rules, built on the
//! brace/scope-aware layer ([`crate::scopes`]).
//!
//! Four rules, none with an escape hatch — a finding is fixed, not excused:
//!
//! * `wire-narrowing` — in every crate, flag `len()` narrowed through
//!   `as u16`/`as u8`, and any `as u16`/`as u8` cast on a line that puts a
//!   value into a message word (`set_word(`, `set_name_length(`,
//!   `set_name_index(`); inside `crates/vproto/src/`, also *any* such cast
//!   inside an encode-path function (one named `encode*`/`write*`, taking
//!   a `WireWriter`, or living in an `impl` of a `*Writer` type). This is
//!   the PR-5 digest-count truncation class: a length that silently wraps
//!   on the wire. A count goes through `Message::set_count`, which
//!   saturates; a word the server parses by goes through `name_word` or
//!   `try_from`, which refuse.
//! * `wire-symmetry` — for every named-field struct in `crates/vproto/src/`
//!   that has both encode- and decode-shaped functions, every field must be
//!   mentioned by both sides. A field written but never read back (or read
//!   but never written) is add-a-field drift that no round-trip test can
//!   catch until someone remembers to extend the test.
//! * `guard-across-send` — in `crates/vservers/src/` and
//!   `crates/vruntime/src/`, a `let`-bound `Mutex`/`RwLock` guard must not
//!   still be live across a blocking `send`/`send_group`/`receive` call:
//!   blocking IPC under a held lock is the deadlock class behind PR-5's
//!   `send_group` interlock stagger.
//! * `opcode-dispatch` — every `RequestCode` variant declared in
//!   `crates/vproto/src/codes.rs` must be matched somewhere in a server
//!   dispatch (`crates/vservers/src/`, `crates/vcentral/src/`), and every
//!   `ReplyCode` variant must be constructed somewhere in non-test
//!   workspace code — being named only by a wire test means the code is
//!   pinned but dead.

use crate::scopes::{mentions_word, FnSpan, ScopeMap};
use crate::source::FileSource;
use crate::Violation;

/// Workspace-relative prefix of the wire-encoding crate.
const VPROTO_SRC: &str = "crates/vproto/src/";

/// Calls that put a value into a 16-bit message word.
const WORD_SETTERS: &[&str] = &["set_word(", "set_name_length(", "set_name_index("];

/// Paths covered by the `guard-across-send` rule.
const GUARD_PATHS: &[&str] = &["crates/vservers/src/", "crates/vruntime/src/"];

/// Paths that count as "server dispatch" for request-code coverage.
const DISPATCH_PATHS: &[&str] = &["crates/vservers/src/", "crates/vcentral/src/"];

/// Returns `true` if `line` contains `as <ty>` as whole words (a narrowing
/// cast to `ty`), e.g. `x.len() as u16`.
fn has_cast_to(line: &str, ty: &str) -> bool {
    let mut from = 0;
    while let Some(p) = line[from..].find(" as ").map(|p| p + from) {
        let after = &line[p + 4..];
        let rest = after.trim_start();
        if let Some(tail) = rest.strip_prefix(ty) {
            let boundary = tail
                .chars()
                .next()
                .is_none_or(|c| !c.is_ascii_alphanumeric() && c != '_');
            if boundary {
                return true;
            }
        }
        from = p + 4;
    }
    false
}

/// Returns `true` if `fs_line` narrows a `len()` through a cast to `ty`.
fn narrows_len(line: &str, ty: &str) -> bool {
    line.contains("len()") && has_cast_to(line, ty) && {
        // The cast must follow a `len()` on the line — `a.len()` used as an
        // index while something unrelated is cast is not the pattern.
        let len_at = line.find("len()").unwrap_or(0);
        line[len_at..].contains(&format!("as {ty}"))
    }
}

/// Is this fn an encode path: named like an encoder, taking the wire
/// writer, or a method of a `*Writer` type?
fn is_encode_path(f: &FnSpan) -> bool {
    f.name.starts_with("encode")
        || f.name.starts_with("write")
        || f.sig.contains("WireWriter")
        || f.impl_type.as_deref().is_some_and(|t| t.contains("Writer"))
}

fn finding(fs: &FileSource, rule: &'static str, line0: usize, message: String) -> Violation {
    Violation {
        pass: "lint",
        rule,
        file: fs.rel.clone(),
        line: line0 + 1,
        message,
    }
}

/// The line spans of the encode-path fns in `map`.
fn encode_spans(map: &ScopeMap) -> Vec<(usize, usize)> {
    map.fns
        .iter()
        .filter(|f| is_encode_path(f))
        .map(|f| (f.start_line, f.end_line))
        .collect()
}

/// The `wire-narrowing` rule over one source file; `encode_spans` are its
/// encode-path fns (vproto only).
///
/// The rule stays in vcheck because clippy has none this narrow:
/// `clippy::cast_possible_truncation` flags every narrowing cast — 56 sites
/// in 22 non-vendor files on the lib targets (15 in `vservers/src/prefix.rs`,
/// 8 in `vproto/src/sync.rs`, 1 in `vproto/src/pid.rs`, …), bit-field
/// extraction and bounded arithmetic among them — and this rule flags none
/// of those.
fn wire_narrowing(fs: &FileSource, encode_spans: &[(usize, usize)]) -> Vec<Violation> {
    let mut out = Vec::new();
    for (n, line) in fs.stripped.lines().enumerate() {
        if fs.in_test_region(n) {
            continue;
        }
        for ty in ["u16", "u8"] {
            if narrows_len(line, ty) {
                out.push(finding(
                    fs,
                    "wire-narrowing",
                    n,
                    format!(
                        "`len() as {ty}` silently truncates payloads past {ty}::MAX \
                         (the PR-5 digest-count bug class); use `{ty}::try_from` with an \
                         explicit overflow path"
                    ),
                ));
            } else if has_cast_to(line, ty) && WORD_SETTERS.iter().any(|s| line.contains(s)) {
                out.push(finding(
                    fs,
                    "wire-narrowing",
                    n,
                    format!(
                        "narrowing `as {ty}` cast into a message word; a value past \
                         {ty}::MAX wraps to a small one — use `Message::set_count` for a \
                         count, `name_word`/`try_from` with a refusal for a word the server \
                         parses by"
                    ),
                ));
            } else if has_cast_to(line, ty) && encode_spans.iter().any(|&(s, e)| s <= n && n <= e) {
                out.push(finding(
                    fs,
                    "wire-narrowing",
                    n,
                    format!(
                        "narrowing `as {ty}` cast inside a wire encode path; a value that \
                         exceeds {ty}::MAX wraps silently on the wire — use `{ty}::try_from` \
                         or widen the wire field"
                    ),
                ));
            }
        }
    }
    out
}

/// The `wire-symmetry` rule over one vproto source file.
fn wire_symmetry(fs: &FileSource, map: &ScopeMap) -> Vec<Violation> {
    let mut out = Vec::new();
    for st in &map.structs {
        if st.fields.is_empty() || fs.in_test_region(st.line) {
            continue;
        }
        let mut enc = String::new();
        let mut dec = String::new();
        for f in &map.fns {
            let of_impl = f.impl_type.as_deref() == Some(st.name.as_str());
            let free_for = f.impl_type.is_none() && mentions_word(&f.sig, &st.name);
            if f.name.starts_with("encode") && of_impl
                || free_for && (f.name.starts_with("write") || f.name.starts_with("encode"))
            {
                enc.push_str(&f.body);
                enc.push('\n');
            }
            if f.name.starts_with("decode") && of_impl
                || free_for && (f.name.starts_with("read") || f.name.starts_with("decode"))
            {
                dec.push_str(&f.body);
                dec.push('\n');
            }
        }
        if enc.is_empty() || dec.is_empty() {
            continue; // not a wire record (or one-directional by design)
        }
        for field in &st.fields {
            let written = mentions_word(&enc, &field.name);
            let read = mentions_word(&dec, &field.name);
            let msg = match (written, read) {
                (true, false) => format!(
                    "field `{}` of wire record `{}` is written by encode but never read \
                     back by decode — add-a-field drift; the wire formats have already \
                     diverged",
                    field.name, st.name
                ),
                (false, true) => format!(
                    "field `{}` of wire record `{}` is read by decode but never written \
                     by encode — the decoder consumes bytes the encoder never produces",
                    field.name, st.name
                ),
                _ => continue,
            };
            out.push(finding(fs, "wire-symmetry", field.line, msg));
        }
    }
    out
}

/// One live lock guard during the `guard-across-send` scan.
struct Guard {
    name: String,
    line: usize,  // 0-based line of the binding
    depth: usize, // brace depth at the end of the binding line
}

/// Extracts the bound name from a `let` statement slice (the text between
/// `let` and `=`): the last identifier of the pattern, so `mut table`,
/// `Ok(guard)`, and plain `g` all yield the binding.
fn let_binding_name(stmt: &str) -> Option<String> {
    let after_let = &stmt[stmt.find("let")? + 3..];
    let pattern = after_let.split('=').next().unwrap_or("");
    let mut last = None;
    let bytes = pattern.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i].is_ascii_alphabetic() || bytes[i] == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            let word = &pattern[start..i];
            if word != "mut" {
                last = Some(word.to_string());
            }
        } else {
            i += 1;
        }
    }
    last
}

/// The `guard-across-send` rule over one server/runtime source file.
fn guard_across_send(fs: &FileSource, map: &ScopeMap) -> Vec<Violation> {
    let mut out = Vec::new();
    // `.read()`/`.write()` are everyday I/O names; they only count as
    // guard acquisitions in a file that actually names RwLock.
    let rwlock_file = fs.stripped.contains("RwLock");
    let guard_tokens: &[&str] = if rwlock_file {
        &[".lock()", ".read()", ".write()"]
    } else {
        &[".lock()"]
    };
    let lines: Vec<&str> = fs.stripped.lines().collect();

    for f in &map.fns {
        if f.body.is_empty() || fs.in_test_region(f.start_line) {
            continue;
        }
        let mut guards: Vec<Guard> = Vec::new();
        let mut depth = 0usize;
        // Statement text accumulated since the last `;`/`{`/`}` — the
        // back-scan window for multi-line `let g = m\n    .lock();`.
        let mut stmt = String::new();
        for n in f.body_line..=f.end_line {
            let line = lines.get(n).copied().unwrap_or("");
            let mut seg_start = 0usize;
            for (i, b) in line.bytes().enumerate() {
                if b != b'{' && b != b'}' && b != b';' {
                    continue;
                }
                // One statement ends here: everything accumulated since
                // the previous boundary, plus this line's segment.
                let full = format!("{stmt}{}", &line[seg_start..i]);
                if b == b'{' {
                    depth += 1;
                } else if b == b'}' {
                    depth = depth.saturating_sub(1);
                }
                // Only `let`-bound guards outlive their statement. A
                // binding introduced by `if let … {` lives at the depth of
                // the block it opens, so it dies when that block closes.
                if guard_tokens.iter().any(|t| full.contains(t)) && mentions_word(&full, "let") {
                    if let Some(name) = let_binding_name(&full) {
                        guards.push(Guard {
                            name,
                            line: n,
                            depth,
                        });
                    }
                }
                // Guards whose block just closed die.
                guards.retain(|g| depth >= g.depth);
                stmt.clear();
                seg_start = i + 1;
            }
            stmt.push_str(&line[seg_start..]);
            stmt.push(' ');

            // An explicit drop kills a guard early.
            guards.retain(|g| !mentions_word(line, "drop") || !mentions_word(line, &g.name));

            for call in [".send(", ".send_group(", ".receive("] {
                if !line.contains(call) {
                    continue;
                }
                for g in &guards {
                    out.push(finding(
                        fs,
                        "guard-across-send",
                        n,
                        format!(
                            "blocking `{}...)` while lock guard `{}` (bound at line {}) is \
                             still live — blocking IPC under a held lock is the \
                             `send_group` interlock deadlock class; drop the guard (or end \
                             its scope) before sending",
                            call.trim_start_matches('.').trim_end_matches('('),
                            g.name,
                            g.line + 1
                        ),
                    ));
                }
            }
        }
    }
    out
}

/// Scans one file with every path-scoped protocol rule.
pub fn scan(fs: &FileSource) -> Vec<Violation> {
    let mut out = Vec::new();
    if fs.rel.starts_with(VPROTO_SRC) {
        let map = ScopeMap::build_stripped(&fs.stripped);
        out.extend(wire_narrowing(fs, &encode_spans(&map)));
        out.extend(wire_symmetry(fs, &map));
    } else {
        out.extend(wire_narrowing(fs, &[]));
    }
    if GUARD_PATHS.iter().any(|p| fs.rel.starts_with(p)) {
        let map = ScopeMap::build_stripped(&fs.stripped);
        out.extend(guard_across_send(fs, &map));
    }
    out
}

/// Concatenates the non-test stripped lines of `files` whose path starts
/// with one of `prefixes`.
fn corpus(files: &[FileSource], prefixes: &[&str]) -> String {
    let mut text = String::new();
    for fs in files {
        if !prefixes.iter().any(|p| fs.rel.starts_with(p)) {
            continue;
        }
        for (n, line) in fs.stripped.lines().enumerate() {
            if !fs.in_test_region(n) {
                text.push_str(line);
                text.push('\n');
            }
        }
    }
    text
}

/// The `opcode-dispatch` rule: request codes must be dispatched by a
/// server, reply codes must be constructed by non-test code.
pub fn dispatch_coverage(files: &[FileSource]) -> Vec<Violation> {
    let Some(codes) = files.iter().find(|f| f.rel == "crates/vproto/src/codes.rs") else {
        return Vec::new();
    };
    let map = ScopeMap::build_stripped(&codes.stripped);
    let variants_of = |enum_name: &str| -> Vec<(String, usize)> {
        map.enums
            .iter()
            .filter(|e| e.name == enum_name)
            .flat_map(|e| e.variants.iter().cloned())
            .collect()
    };
    let mut out = Vec::new();

    let dispatch = corpus(files, DISPATCH_PATHS);
    if !dispatch.is_empty() {
        for (name, line0) in variants_of("RequestCode") {
            if !dispatch.contains(&format!("RequestCode::{name}")) {
                out.push(finding(
                    codes,
                    "opcode-dispatch",
                    line0,
                    format!(
                        "request code `{name}` has no match arm in any server dispatch \
                         (crates/vservers, crates/vcentral) — a client can send it but \
                         every server will answer UnknownRequest"
                    ),
                ));
            }
        }
    }

    let constructors = corpus(files, &["crates/"]);
    if !constructors.is_empty() {
        for (name, line0) in variants_of("ReplyCode") {
            if !constructors.contains(&format!("ReplyCode::{name}")) {
                out.push(finding(
                    codes,
                    "opcode-dispatch",
                    line0,
                    format!(
                        "reply code `{name}` is never constructed outside tests — a \
                         declared failure reason no server can actually report"
                    ),
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fsrc(rel: &str, contents: &str) -> FileSource {
        FileSource::new(rel, contents)
    }

    // ---- wire-narrowing ----

    #[test]
    fn len_narrowing_flagged_anywhere_in_vproto() {
        let fs = fsrc(
            "crates/vproto/src/wire.rs",
            "fn any(&mut self, b: &[u8]) { self.u16(b.len() as u16); }\n",
        );
        let v = scan(&fs);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "wire-narrowing");
        assert_eq!(v[0].line, 1);
        assert!(v[0].message.contains("len() as u16"));
    }

    #[test]
    fn any_narrowing_cast_flagged_in_encode_paths() {
        let fs = fsrc(
            "crates/vproto/src/sync.rs",
            "impl Rec {\n    pub fn encode(&self) -> Vec<u8> {\n        w.u16(self.count as u16);\n    }\n}\n",
        );
        let v = scan(&fs);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("encode path"));
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn narrowing_outside_encode_paths_and_crate_is_fine() {
        // Same cast in a non-encode fn of vproto: not the rule's business.
        let fs = fsrc(
            "crates/vproto/src/pid.rs",
            "impl Pid {\n    pub fn host(self) -> u16 { (self.0 >> 16) as u16 }\n}\n",
        );
        assert!(scan(&fs).is_empty());
        // And outside vproto, away from message words.
        let fs = fsrc(
            "crates/vservers/src/file.rs",
            "fn f(x: u32) -> u16 { x as u16 }\n",
        );
        assert!(scan(&fs).is_empty());
    }

    #[test]
    fn narrowing_into_a_message_word_flagged_in_every_crate() {
        for line in [
            "fn f(m: &mut Message, n: usize) { m.set_word(fields::W_IO_COUNT, n as u16); }\n",
            "fn f(m: &mut Message, i: usize) { m.set_name_index(i as u16); }\n",
            "fn f(w: &[u8]) -> u16 { w.len() as u16 }\n",
        ] {
            let v = scan(&fsrc("crates/vruntime/src/client.rs", line));
            assert_eq!(v.len(), 1, "{line}: {v:?}");
            assert_eq!(v[0].rule, "wire-narrowing");
        }
        let saturating =
            "fn f(m: &mut Message, n: usize) { m.set_count(fields::W_IO_COUNT, n); }\n";
        assert!(scan(&fsrc("crates/vio/src/client.rs", saturating)).is_empty());
    }

    #[test]
    fn widening_len_cast_is_fine() {
        let fs = fsrc(
            "crates/vproto/src/sync.rs",
            "impl Rec {\n    pub fn encode(&self) { w.u32(self.entries.len() as u32); }\n}\n",
        );
        assert!(scan(&fs).is_empty());
    }

    // ---- wire-symmetry ----

    const SYM_OK: &str = "pub struct Rec {\n    pub a: u64,\n    pub b: u32,\n}\nimpl Rec {\n    pub fn encode(&self) -> Vec<u8> { w.u64(self.a); w.u32(self.b); }\n    pub fn decode(buf: &[u8]) -> Rec { Rec { a: r.u64(), b: r.u32() } }\n}\n";

    #[test]
    fn symmetric_record_is_clean() {
        assert!(scan(&fsrc("crates/vproto/src/sync.rs", SYM_OK)).is_empty());
    }

    #[test]
    fn dropped_decode_line_is_flagged() {
        let src = SYM_OK.replace(", b: r.u32()", "");
        let v = scan(&fsrc("crates/vproto/src/sync.rs", &src));
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "wire-symmetry");
        assert_eq!(v[0].line, 3, "points at the field declaration");
        assert!(v[0].message.contains("never read"));
    }

    #[test]
    fn encode_only_field_via_free_fns_is_flagged() {
        let src = "pub struct Entry {\n    pub prefix: Vec<u8>,\n    pub epoch: u64,\n}\nfn write_entry(w: &mut W, e: &Entry) { w.bytes(&e.prefix); w.u64(e.epoch); }\nfn read_entry(r: &mut R) -> Entry { Entry { prefix: r.bytes() } }\n";
        let v = scan(&fsrc("crates/vproto/src/sync.rs", src));
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("`epoch`"));
    }

    #[test]
    fn structs_without_codecs_are_skipped() {
        let src = "pub struct Plain {\n    pub x: u8,\n}\n";
        assert!(scan(&fsrc("crates/vproto/src/lib.rs", src)).is_empty());
    }

    // ---- guard-across-send ----

    #[test]
    fn guard_live_across_send_is_flagged() {
        let src = "fn serve(ctx: &dyn Ipc, m: &Mutex<u8>) {\n    let guard = m.lock();\n    ctx.send(peer, msg, Bytes::new(), 0);\n}\n";
        let v = scan(&fsrc("crates/vservers/src/prefix.rs", src));
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "guard-across-send");
        assert_eq!(v[0].line, 3);
        assert!(v[0].message.contains("`guard`"));
    }

    #[test]
    fn guard_dropped_before_send_is_fine() {
        let src = "fn serve(ctx: &dyn Ipc, m: &Mutex<u8>) {\n    let guard = m.lock();\n    drop(guard);\n    ctx.send(peer, msg, Bytes::new(), 0);\n}\n";
        assert!(scan(&fsrc("crates/vservers/src/prefix.rs", src)).is_empty());
    }

    #[test]
    fn guard_scope_closed_before_send_is_fine() {
        let src = "fn serve(ctx: &dyn Ipc, m: &Mutex<u8>) {\n    {\n        let guard = m.lock();\n        guard.touch();\n    }\n    ctx.send(peer, msg, Bytes::new(), 0);\n}\n";
        assert!(scan(&fsrc("crates/vservers/src/prefix.rs", src)).is_empty());
    }

    #[test]
    fn temporary_lock_is_not_a_live_guard() {
        let src = "fn serve(ctx: &dyn Ipc, m: &Mutex<u8>) {\n    m.lock().bump();\n    ctx.send(peer, msg, Bytes::new(), 0);\n}\n";
        assert!(scan(&fsrc("crates/vservers/src/prefix.rs", src)).is_empty());
    }

    #[test]
    fn send_group_and_receive_count_too() {
        let src = "fn serve(ctx: &dyn Ipc, m: &Mutex<u8>) {\n    let g = m.lock();\n    ctx.send_group(group, probe, Bytes::new());\n    let rx = ctx.receive();\n}\n";
        let v = scan(&fsrc("crates/vservers/src/prefix.rs", src));
        assert_eq!(v.len(), 2, "{v:?}");
    }

    #[test]
    fn rwlock_read_guard_counts_only_in_rwlock_files() {
        let with_rwlock = "fn f(ctx: &dyn Ipc, m: &RwLock<u8>) {\n    let g = m.read();\n    ctx.send(p, msg, Bytes::new(), 0);\n}\n";
        let v = scan(&fsrc("crates/vservers/src/prefix.rs", with_rwlock));
        assert_eq!(v.len(), 1, "{v:?}");
        // `.read()` in a file with no RwLock is ordinary I/O.
        let io_only = "fn f(ctx: &dyn Ipc, file: &File) {\n    let n = file.read();\n    ctx.send(p, msg, Bytes::new(), 0);\n}\n";
        assert!(scan(&fsrc("crates/vservers/src/prefix.rs", io_only)).is_empty());
    }

    #[test]
    fn multi_line_let_binding_is_tracked() {
        let src = "fn f(ctx: &dyn Ipc, m: &Mutex<u8>) {\n    let table = m\n        .lock();\n    ctx.send(p, msg, Bytes::new(), 0);\n}\n";
        let v = scan(&fsrc("crates/vservers/src/prefix.rs", src));
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("`table`"));
    }

    #[test]
    fn guard_rule_skips_test_regions_and_other_crates() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t(ctx: &dyn Ipc, m: &Mutex<u8>) {\n        let g = m.lock();\n        ctx.send(p, msg, Bytes::new(), 0);\n    }\n}\n";
        assert!(scan(&fsrc("crates/vservers/src/prefix.rs", src)).is_empty());
        let src2 = "fn f(ctx: &dyn Ipc, m: &Mutex<u8>) {\n    let g = m.lock();\n    ctx.send(p, msg, Bytes::new(), 0);\n}\n";
        assert!(scan(&fsrc("crates/vkernel/src/sim.rs", src2)).is_empty());
    }

    // ---- opcode-dispatch ----

    fn codes_fixture() -> FileSource {
        fsrc(
            "crates/vproto/src/codes.rs",
            "pub enum RequestCode {\n    Echo = 0x0001,\n    Vanish = 0x0002,\n}\npub enum ReplyCode {\n    Ok = 0x0000,\n    Ghost = 0x0001,\n}\n",
        )
    }

    #[test]
    fn undispatched_request_and_unconstructed_reply_flagged() {
        let server = fsrc(
            "crates/vservers/src/file.rs",
            "fn d(c: RequestCode) {\n    match c {\n        RequestCode::Echo => reply(ReplyCode::Ok),\n        _ => {}\n    }\n}\n",
        );
        let v = dispatch_coverage(&[codes_fixture(), server]);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v
            .iter()
            .any(|f| f.message.contains("`Vanish`") && f.line == 3));
        assert!(v
            .iter()
            .any(|f| f.message.contains("`Ghost`") && f.line == 7));
    }

    #[test]
    fn dispatch_skipped_without_server_corpus() {
        // Reply codes still checked against the codes file itself, which
        // names no `ReplyCode::` paths — but with no server corpus the
        // request check cannot prove anything and stays silent.
        let v = dispatch_coverage(&[codes_fixture()]);
        assert!(
            v.iter().all(|f| !f.message.contains("request code")),
            "{v:?}"
        );
    }

    #[test]
    fn test_region_mentions_do_not_count() {
        let server = fsrc(
            "crates/vservers/src/file.rs",
            "fn d(c: RequestCode) {\n    match c {\n        RequestCode::Echo => reply(ReplyCode::Ok),\n        RequestCode::Vanish => reply(ReplyCode::Ghost),\n        _ => {}\n    }\n}\n",
        );
        let v = dispatch_coverage(&[codes_fixture(), server]);
        assert!(v.is_empty(), "{v:?}");
        let test_only = fsrc(
            "crates/vservers/src/file.rs",
            "fn d(c: RequestCode) {\n    match c {\n        RequestCode::Echo => reply(ReplyCode::Ok),\n        _ => {}\n    }\n}\n#[cfg(test)]\nmod tests {\n    fn t() { let _ = (RequestCode::Vanish, ReplyCode::Ghost); }\n}\n",
        );
        let v = dispatch_coverage(&[codes_fixture(), test_only]);
        assert_eq!(v.len(), 2, "test-region mentions must not count: {v:?}");
    }
}
