//! Lightweight Rust source preprocessing for the lint pass: comment and
//! string stripping, and `#[cfg(test)]` region detection.
//!
//! This is a line-preserving lexer, not a parser: it understands `//` and
//! nested `/* */` comments, `"…"` strings with escapes, raw strings
//! (`r"…"`, `r#"…"#`), byte/char literals, and lifetimes — enough to scan
//! the remaining program text without being fooled by documentation or
//! test fixtures.

/// Returns `source` with comments and string/char literal *contents*
/// blanked out (replaced by spaces), preserving every line break so line
/// numbers survive.
pub fn strip_comments_and_strings(source: &str) -> String {
    let bytes = source.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;

    // Copies the byte through; newlines always survive blanking too.
    fn blank(b: u8) -> u8 {
        if b == b'\n' {
            b'\n'
        } else {
            b' '
        }
    }

    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    out.push(blank(bytes[i]));
                    i += 1;
                }
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                let mut depth = 1;
                out.extend_from_slice(b"  ");
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
                        depth += 1;
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                        depth -= 1;
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else {
                        out.push(blank(bytes[i]));
                        i += 1;
                    }
                }
            }
            b'r' | b'b'
                if {
                    // Raw strings: r"…", r#"…"#, br"…", etc.
                    let mut j = i + 1;
                    if b == b'b' && j < bytes.len() && bytes[j] == b'r' {
                        j += 1;
                    }
                    let mut hashes = 0;
                    while j < bytes.len() && bytes[j] == b'#' {
                        hashes += 1;
                        j += 1;
                    }
                    (b == b'r' || (b == b'b' && i + 1 < bytes.len() && bytes[i + 1] == b'r'))
                        && j < bytes.len()
                        && bytes[j] == b'"'
                        && (hashes > 0 || j > i + if b == b'b' { 1 } else { 0 })
                } =>
            {
                // Re-scan the prefix to find hash count and the opening quote.
                let start = i;
                let mut j = i + 1;
                if b == b'b' {
                    j += 1; // skip the 'r'
                }
                let mut hashes = 0;
                while bytes[j] == b'#' {
                    hashes += 1;
                    j += 1;
                }
                // Copy the prefix (r, #s, opening quote) verbatim.
                for &pb in &bytes[start..=j] {
                    out.push(pb);
                }
                i = j + 1;
                // Blank until closing quote followed by `hashes` hashes.
                'raw: while i < bytes.len() {
                    if bytes[i] == b'"' {
                        let mut k = 0;
                        while k < hashes && i + 1 + k < bytes.len() && bytes[i + 1 + k] == b'#' {
                            k += 1;
                        }
                        if k == hashes {
                            for &qb in &bytes[i..=i + hashes] {
                                out.push(qb);
                            }
                            i += hashes + 1;
                            break 'raw;
                        }
                    }
                    out.push(blank(bytes[i]));
                    i += 1;
                }
            }
            b'"' => {
                out.push(b'"');
                i += 1;
                while i < bytes.len() {
                    if bytes[i] == b'\\' && i + 1 < bytes.len() {
                        out.push(b' ');
                        out.push(b' ');
                        i += 2;
                    } else if bytes[i] == b'"' {
                        out.push(b'"');
                        i += 1;
                        break;
                    } else {
                        out.push(blank(bytes[i]));
                        i += 1;
                    }
                }
            }
            b'\'' => {
                // Char literal vs lifetime: a literal closes within a few
                // bytes ('x', '\n', '\u{1F600}'); a lifetime never closes.
                let mut j = i + 1;
                if j < bytes.len() && bytes[j] == b'\\' {
                    j += 2;
                    while j < bytes.len() && bytes[j] != b'\'' && bytes[j] != b'\n' {
                        j += 1;
                    }
                    if j < bytes.len() && bytes[j] == b'\'' {
                        out.push(b'\'');
                        out.resize(out.len() + (j - i - 1), b' ');
                        out.push(b'\'');
                        i = j + 1;
                        continue;
                    }
                } else if j + 1 < bytes.len() && bytes[j] != b'\'' && bytes[j + 1] == b'\'' {
                    out.push(b'\'');
                    out.push(b' ');
                    out.push(b'\'');
                    i = j + 2;
                    continue;
                }
                // Lifetime (or stray quote): copy through.
                out.push(b'\'');
                i += 1;
            }
            _ => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).unwrap_or_default()
}

/// One workspace source file, preprocessed once for every pass-1 rule.
#[derive(Debug, Clone)]
pub struct FileSource {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// Comment- and string-stripped text (what rules scan).
    pub stripped: String,
    /// Per-line `#[cfg(test)]`-region mask over the stripped text.
    pub mask: Vec<bool>,
}

impl FileSource {
    /// Preprocesses one file.
    pub fn new(rel: impl Into<String>, contents: &str) -> FileSource {
        let stripped = strip_comments_and_strings(contents);
        let mask = test_region_mask(&stripped);
        FileSource {
            rel: rel.into(),
            stripped,
            mask,
        }
    }

    /// Returns `true` if 0-based `line` lies in a `#[cfg(test)]` region.
    pub fn in_test_region(&self, line: usize) -> bool {
        self.mask.get(line).copied().unwrap_or(false)
    }
}

/// Returns, for each line of `stripped` (0-based), whether it lies inside a
/// `#[cfg(test)]`-gated item (the attribute line itself included).
///
/// Works by brace-matching from the first `{` after each `#[cfg(test)]`
/// attribute; expects comment/string-stripped input so braces are real.
pub fn test_region_mask(stripped: &str) -> Vec<bool> {
    let lines: Vec<&str> = stripped.lines().collect();
    let mut mask = vec![false; lines.len()];
    // Byte offset of each line start, for mapping offsets back to lines.
    let mut line_of_offset = Vec::with_capacity(stripped.len());
    for (n, line) in stripped.lines().enumerate() {
        for _ in 0..=line.len() {
            line_of_offset.push(n);
        }
    }

    let bytes = stripped.as_bytes();
    for pattern in ["#[cfg(test)]", "#[cfg(all(test"] {
        mark_regions(stripped, bytes, &lines, &line_of_offset, &mut mask, pattern);
    }
    mask
}

fn mark_regions(
    stripped: &str,
    bytes: &[u8],
    lines: &[&str],
    line_of_offset: &[usize],
    mask: &mut [bool],
    pattern: &str,
) {
    let mut search_from = 0;
    while let Some(pos) = stripped[search_from..]
        .find(pattern)
        .map(|p| p + search_from)
    {
        // Find the first `{` after the attribute and match it.
        let mut depth = 0usize;
        let mut end = bytes.len();
        let mut started = false;
        for (off, &b) in bytes.iter().enumerate().skip(pos) {
            match b {
                b'{' => {
                    depth += 1;
                    started = true;
                }
                b'}' => {
                    depth = depth.saturating_sub(1);
                    if started && depth == 0 {
                        end = off;
                        break;
                    }
                }
                // An item ending before any brace (e.g. `#[cfg(test)] use …;`)
                b';' if !started => {
                    end = off;
                    break;
                }
                _ => {}
            }
        }
        let first = line_of_offset.get(pos).copied().unwrap_or(0);
        let last = line_of_offset
            .get(end.min(line_of_offset.len().saturating_sub(1)))
            .copied()
            .unwrap_or(lines.len().saturating_sub(1));
        for m in mask.iter_mut().take(last + 1).skip(first) {
            *m = true;
        }
        search_from = pos + pattern.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_line_and_block_comments() {
        let s = strip_comments_and_strings("a // Instant::now()\nb /* SystemTime */ c");
        assert!(!s.contains("Instant"));
        assert!(!s.contains("SystemTime"));
        assert!(s.contains('a') && s.contains('b') && s.contains('c'));
        assert_eq!(s.lines().count(), 2);
    }

    #[test]
    fn strips_string_contents_but_keeps_code() {
        let s = strip_comments_and_strings(r#"let x = "panic!(oops)"; y.unwrap();"#);
        assert!(!s.contains("panic!"));
        assert!(s.contains(".unwrap()"));
    }

    #[test]
    fn raw_strings_and_escapes() {
        let s = strip_comments_and_strings(
            "let x = r#\"Instant::now\"#; let c = '\\n'; let q = \"a\\\"b.unwrap()\";",
        );
        assert!(!s.contains("Instant"));
        assert!(!s.contains("unwrap"));
    }

    #[test]
    fn lifetimes_are_not_chars() {
        let s = strip_comments_and_strings("fn f<'a>(x: &'a str) { x.expect(\"msg\") }");
        assert!(s.contains("<'a>"));
        assert!(s.contains(".expect("));
        assert!(!s.contains("msg"));
    }

    #[test]
    fn nested_block_comments() {
        let s = strip_comments_and_strings("a /* one /* two */ still-comment */ b\nc");
        assert!(!s.contains("two"));
        assert!(!s.contains("still-comment"));
        assert!(s.contains('a') && s.contains('b') && s.contains('c'));
        assert_eq!(s.lines().count(), 2);
    }

    #[test]
    fn raw_strings_with_multiple_hashes() {
        let s = strip_comments_and_strings("let x = r##\"a \"# panic!(b) \"## ; y.unwrap()");
        assert!(!s.contains("panic!"));
        assert!(s.contains(".unwrap()"));
    }

    #[test]
    fn byte_strings_and_byte_literals() {
        let s =
            strip_comments_and_strings("let b = b\"unwrap()\"; let r = br#\"expect(\"#; f(b'x')");
        assert!(!s.contains("unwrap"));
        assert!(!s.contains("expect"));
        // The byte-literal payload is blanked; the call around it survives.
        assert!(s.contains("f(b'"));
        assert!(!s.contains("b'x'"));
    }

    #[test]
    fn char_escapes_do_not_derail_the_lexer() {
        let s = strip_comments_and_strings(
            r"let q = '\''; let n = '\n'; let u = '\u{1F600}'; z.unwrap()",
        );
        assert!(s.contains(".unwrap()"));
    }

    #[test]
    fn lifetimes_in_impls_and_bounds() {
        let s = strip_comments_and_strings(
            "impl<'a, 'b: 'a> Foo<'a> for Bar<'b> where 'b: 'static { fn f(&'a self) {} }",
        );
        // Nothing after a lifetime may be swallowed as a char literal.
        assert!(s.contains("'static"));
        assert!(s.contains("fn f(&'a self)"));
    }

    #[test]
    fn strings_spanning_escaped_quotes() {
        let s = strip_comments_and_strings(r#"let a = "x\"y.unwrap()\"z"; b.expect("")"#);
        assert!(!s.contains("unwrap"));
        assert!(s.contains(".expect("));
    }

    #[test]
    fn test_mask_covers_cfg_test_mod() {
        let src = "fn real() { a.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { b.unwrap(); }\n}\nfn after() {}\n";
        let stripped = strip_comments_and_strings(src);
        let mask = test_region_mask(&stripped);
        assert_eq!(mask, vec![false, true, true, true, true, false]);
    }
}
