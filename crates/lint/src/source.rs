//! Per-file source model: lexed tokens plus the line classifications every
//! rule needs — "is this line test code?" and "is this line inside a
//! `lint:hot-path` region?".
//!
//! Test code is exempt from `float-determinism` (tests read clocks and
//! build HashMaps freely). A line is test code if
//! the file lives under a `tests/`, `benches/`, or `examples/` directory,
//! or if it falls inside the braces of an item annotated `#[cfg(test)]`.
//! The latter is found by token matching (`#` `[` `cfg` `(` `test` `)` `]`)
//! followed by brace-matching the next item body — strings and comments are
//! already out of the token stream, so `{`/`}` inside them cannot skew the
//! depth count.
//!
//! Hot-path regions are delimited by plain marker comments in the source:
//!
//! ```text
//! // lint:hot-path — why this region must stay allocation-free
//! ...kernel code...
//! // lint:hot-path-end
//! ```
//!
//! Markers are only honored inside comment tokens, so a string containing
//! the marker text cannot open a region. An unclosed region extends to EOF
//! (the conservative direction: more code checked, not less).

use crate::lexer::{lex, TokKind, Token};

pub struct SourceFile {
    /// Repo-relative path with `/` separators — the identity used in
    /// findings and baseline entries.
    pub path: String,
    pub text: String,
    /// Full token stream, comments included.
    pub tokens: Vec<Token>,
    /// Byte offset of each line start; `line_starts[0] == 0`.
    line_starts: Vec<usize>,
    /// Indexed by `line - 1`.
    test_lines: Vec<bool>,
    hot_lines: Vec<bool>,
}

impl SourceFile {
    pub fn parse(path: &str, text: String) -> SourceFile {
        let tokens = lex(&text);
        let mut line_starts = vec![0usize];
        for (i, b) in text.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i + 1);
            }
        }
        let n_lines = line_starts.len();

        let mut test_lines = vec![false; n_lines];
        if is_test_path(path) {
            test_lines.iter_mut().for_each(|l| *l = true);
        } else {
            mark_cfg_test_regions(&text, &tokens, &mut test_lines);
        }

        let mut hot_lines = vec![false; n_lines];
        mark_hot_regions(&text, &tokens, &mut hot_lines);

        SourceFile { path: path.to_string(), text, tokens, line_starts, test_lines, hot_lines }
    }

    pub fn is_test_line(&self, line: u32) -> bool {
        self.test_lines.get(line as usize - 1).copied().unwrap_or(false)
    }

    pub fn is_hot_line(&self, line: u32) -> bool {
        self.hot_lines.get(line as usize - 1).copied().unwrap_or(false)
    }

    /// True if any line of the file is inside a hot-path region.
    pub fn has_hot_region(&self) -> bool {
        self.hot_lines.iter().any(|&h| h)
    }

    /// The 1-based line's text, without its newline.
    pub fn line_text(&self, line: u32) -> &str {
        let i = line as usize - 1;
        let start = match self.line_starts.get(i) {
            Some(&s) => s,
            None => return "",
        };
        let end = self.line_starts.get(i + 1).map_or(self.text.len(), |&e| e);
        self.text[start..end].trim_end_matches(['\n', '\r'])
    }

    /// Indices into `tokens` of the non-comment tokens, in order. Rules
    /// that match adjacent-token patterns walk this so an interleaved
    /// comment cannot break up a pattern.
    pub fn code_indices(&self) -> Vec<usize> {
        (0..self.tokens.len())
            .filter(|&i| {
                !matches!(self.tokens[i].kind, TokKind::LineComment | TokKind::BlockComment)
            })
            .collect()
    }

    pub fn tok_text(&self, t: &Token) -> &str {
        t.text(&self.text)
    }
}

fn is_test_path(path: &str) -> bool {
    path.starts_with("tests/")
        || path.starts_with("benches/")
        || path.starts_with("examples/")
        || path.contains("/tests/")
        || path.contains("/benches/")
        || path.contains("/examples/")
}

/// Find every `#[cfg(test)]` attribute and mark the lines of the item body
/// that follows it (from its `{` line through its matching `}` line).
fn mark_cfg_test_regions(src: &str, tokens: &[Token], out: &mut [bool]) {
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| !matches!(tokens[i].kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    let txt = |ci: usize| tokens[code[ci]].text(src);
    let punct = |ci: usize, c: char| tokens[code[ci]].is_punct(src, c);

    let mut ci = 0;
    while ci + 6 < code.len() {
        let is_cfg_test = punct(ci, '#')
            && punct(ci + 1, '[')
            && txt(ci + 2) == "cfg"
            && punct(ci + 3, '(')
            && txt(ci + 4) == "test"
            && punct(ci + 5, ')')
            && punct(ci + 6, ']');
        if !is_cfg_test {
            ci += 1;
            continue;
        }
        // Walk past any further attributes to the item, then to its body.
        let mut j = ci + 7;
        while j < code.len() && punct(j, '#') {
            // Skip the attribute's bracket group.
            let mut k = j + 1;
            let mut depth = 0i32;
            while k < code.len() {
                if punct(k, '[') {
                    depth += 1;
                } else if punct(k, ']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                k += 1;
            }
            j = k + 1;
        }
        // Find the item's opening `{` (or give up at `;` — a braceless item
        // like `#[cfg(test)] use ...;` guards nothing worth marking).
        while j < code.len() && !punct(j, '{') && !punct(j, ';') {
            j += 1;
        }
        if j < code.len() && punct(j, '{') {
            let open = j;
            let mut depth = 0i32;
            while j < code.len() {
                if punct(j, '{') {
                    depth += 1;
                } else if punct(j, '}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            let first = tokens[code[open]].line as usize - 1;
            let last =
                if j < code.len() { tokens[code[j]].line as usize - 1 } else { out.len() - 1 };
            let last = last.min(out.len() - 1);
            for l in out.iter_mut().take(last + 1).skip(first) {
                *l = true;
            }
        }
        ci = j.max(ci + 7);
    }
}

/// `lint:hot-path` / `lint:hot-path-end` marker comments toggle a region. A
/// marker must LEAD the comment (after the `//`/`/*`/doc sigils): prose
/// that merely *mentions* a marker mid-sentence — rule docs, this file — is
/// inert. The end marker is checked first so it is not misread as a start
/// (it contains the start text as a prefix).
fn mark_hot_regions(src: &str, tokens: &[Token], out: &mut [bool]) {
    const START: &str = "lint:hot-path";
    const END: &str = "lint:hot-path-end";
    let mut open_from: Option<usize> = None;
    for t in tokens {
        if !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) {
            continue;
        }
        let text = t
            .text(src)
            .trim_start_matches(|c: char| matches!(c, '/' | '*' | '!') || c.is_whitespace());
        if text.starts_with(END) {
            if let Some(start) = open_from.take() {
                let end = (t.line as usize - 1).min(out.len() - 1);
                for l in out.iter_mut().take(end + 1).skip(start) {
                    *l = true;
                }
            }
        } else if text.starts_with(START) {
            open_from.get_or_insert(t.line as usize - 1);
        }
    }
    if let Some(start) = open_from {
        // Unclosed region: runs to EOF.
        for l in out.iter_mut().skip(start) {
            *l = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_module_lines_are_test_lines() {
        let src = "fn live() { x.unwrap(); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       #[test]\n\
                       fn t() { y.unwrap(); }\n\
                   }\n\
                   fn also_live() {}\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src.to_string());
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(3));
        assert!(f.is_test_line(5));
        assert!(f.is_test_line(6));
        assert!(!f.is_test_line(7));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\nfn live() { x.unwrap(); }\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src.to_string());
        assert!(!f.is_test_line(2));
    }

    #[test]
    fn tests_dir_files_are_entirely_test() {
        let f = SourceFile::parse("crates/x/tests/it.rs", "fn f() {}\n".to_string());
        assert!(f.is_test_line(1));
        let g = SourceFile::parse("tests/e2e.rs", "fn f() {}\n".to_string());
        assert!(g.is_test_line(1));
    }

    #[test]
    fn hot_region_markers_toggle() {
        let src = "fn cold() {}\n\
                   // lint:hot-path — kernel\n\
                   fn hot() {}\n\
                   // lint:hot-path-end\n\
                   fn cold2() {}\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src.to_string());
        assert!(!f.is_hot_line(1));
        assert!(f.is_hot_line(3));
        assert!(!f.is_hot_line(5));
    }

    #[test]
    fn hot_marker_inside_string_is_ignored() {
        let src = "fn f() { let s = \"// lint:hot-path\"; }\nfn g() {}\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src.to_string());
        assert!(!f.is_hot_line(2));
        assert!(!f.has_hot_region());
    }

    #[test]
    fn hot_marker_mentioned_mid_comment_is_inert() {
        let src = "/// Functions inside `lint:hot-path` regions may not allocate.\n\
                   fn documented() {}\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src.to_string());
        assert!(!f.has_hot_region());
    }

    #[test]
    fn unclosed_hot_region_runs_to_eof() {
        let src = "// lint:hot-path\nfn h() {}\nfn i() {}\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src.to_string());
        assert!(f.is_hot_line(3));
    }

    #[test]
    fn braces_in_strings_do_not_skew_test_regions() {
        let src = "#[cfg(test)]\n\
                   mod tests {\n\
                       const S: &str = \"}}}{{{\";\n\
                       fn t() {}\n\
                   }\n\
                   fn live() {}\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src.to_string());
        assert!(f.is_test_line(4));
        assert!(!f.is_test_line(6));
    }
}
