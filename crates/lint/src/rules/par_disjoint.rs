//! **parallel-disjointness** — audits the color-parallel scatter bodies.
//!
//! The threaded element sweep is race-free by *argument*, not by the borrow
//! checker: within one color of the node-disjoint coloring no two elements
//! share a node, so concurrent scatters through the shared `rhs` pointer
//! write disjoint entries. That argument lives in UNSAFE_LEDGER.md and in
//! the SAFETY comments of `crates/solver/src/sweep.rs`; this rule keeps the
//! *code shape* pinned to it. Inside a `// lint:par-sweep` region (the
//! sweep engine and the step kernel's sweep dispatch):
//!
//! - a write whose target is **region-local** (declared by `let`, a `for`
//!   pattern, or a closure parameter inside the region) is fine — that is
//!   the fixed-size batch scratch (`x`, `y`, `acc`);
//! - a write through a **raw-pointer deref** (`*p = / -= ...`) or any write
//!   to a **non-local** base must sit inside an `unsafe` block or `unsafe
//!   fn` body — the ledgered scatter sites — AND the file's
//!   UNSAFE_LEDGER.md section must state the disjointness argument (the
//!   word "disjoint" must appear in its bullets);
//! - `.get_unchecked_mut(` likewise demands the ledgered argument.
//!
//! A safe `rhs[d] = ...` added inside the region — exactly the edit that
//! silently breaks bit-determinism when someone "simplifies" the scatter —
//! is a finding. The static rule's dynamic witness is the
//! `debug_assertions`-gated overlap detector in `SweepSchedule::build`,
//! which verifies each color's scheduled nodes really are disjoint at run
//! time. Known limitation: writes hidden behind safe wrapper methods
//! (`copy_from_slice`) are invisible; test lines are exempt.

use super::{Rule, WorkspaceCtx};
use crate::lexer::TokKind;
use crate::source::SourceFile;
use crate::Finding;

struct Pending {
    file: String,
    line: u32,
    base: String,
    deref: bool,
    in_unsafe: bool,
    snippet: String,
}

#[derive(Default)]
pub struct ParallelDisjointness {
    pending: Vec<Pending>,
    /// Files with at least one ledger-requiring write (deref/unchecked),
    /// checked against UNSAFE_LEDGER.md in `finish`.
    ledger_files: Vec<(String, u32)>,
}

/// Mark the lines covered by `unsafe` blocks, `unsafe fn` bodies, and
/// `unsafe impl` items: from the keyword's line through the matching `}`.
fn unsafe_lines(file: &SourceFile, code: &[usize]) -> Vec<bool> {
    let n_lines = file.tokens.last().map_or(0, |t| t.line as usize) + 1;
    let mut out = vec![false; n_lines + 1];
    let mut k = 0;
    while k < code.len() {
        if file.tok_text(&file.tokens[code[k]]) != "unsafe" {
            k += 1;
            continue;
        }
        let start_line = file.tokens[code[k]].line as usize;
        // Find the block this keyword guards: the next `{` (skipping the
        // signature of an `unsafe fn` / header of an `unsafe impl`), then
        // its matching `}`. A `;` first (unsafe fn *declaration*) ends it.
        let mut j = k + 1;
        while j < code.len()
            && !file.tokens[code[j]].is_punct(&file.text, '{')
            && !file.tokens[code[j]].is_punct(&file.text, ';')
        {
            j += 1;
        }
        if j < code.len() && file.tokens[code[j]].is_punct(&file.text, '{') {
            let mut depth = 0i32;
            while j < code.len() {
                if file.tokens[code[j]].is_punct(&file.text, '{') {
                    depth += 1;
                } else if file.tokens[code[j]].is_punct(&file.text, '}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            let end_line =
                if j < code.len() { file.tokens[code[j]].line as usize } else { n_lines };
            for l in start_line..=end_line.min(n_lines) {
                out[l] = true;
            }
        }
        k = j.max(k + 1);
    }
    out
}

/// Identifiers declared inside the region: `let` patterns (stopping at a
/// `:` type annotation), `for` patterns, closure parameters.
fn region_locals(file: &SourceFile, code: &[usize]) -> Vec<String> {
    let mut locals = Vec::new();
    let is_region = |k: usize| {
        let line = file.tokens[code[k]].line;
        file.is_par_line(line) && !file.is_test_line(line)
    };
    for k in 0..code.len() {
        if !is_region(k) {
            continue;
        }
        let t = &file.tokens[code[k]];
        if t.kind != TokKind::Ident {
            // Closure params: `|` that can start a closure.
            if t.is_punct(&file.text, '|')
                && k > 0
                && (file.tokens[code[k - 1]].is_punct(&file.text, '(')
                    || file.tokens[code[k - 1]].is_punct(&file.text, ',')
                    || file.tokens[code[k - 1]].is_punct(&file.text, '=')
                    || file.tok_text(&file.tokens[code[k - 1]]) == "move")
            {
                let mut j = k + 1;
                while j < code.len() && !file.tokens[code[j]].is_punct(&file.text, '|') {
                    if file.tokens[code[j]].kind == TokKind::Ident {
                        locals.push(file.tok_text(&file.tokens[code[j]]).to_string());
                    }
                    j += 1;
                }
            }
            continue;
        }
        let kw = file.tok_text(t);
        if kw != "let" && kw != "for" {
            continue;
        }
        let stop_ident = if kw == "for" { Some("in") } else { None };
        let mut j = k + 1;
        let mut in_type = false;
        while j < code.len() {
            let tj = &file.tokens[code[j]];
            if tj.is_punct(&file.text, '=') || tj.is_punct(&file.text, ';') {
                break;
            }
            if tj.is_punct(&file.text, ':') {
                in_type = true;
            } else if tj.is_punct(&file.text, ',') {
                in_type = false;
            } else if tj.kind == TokKind::Ident {
                let name = file.tok_text(tj);
                if Some(name) == stop_ident {
                    break;
                }
                if !in_type && name != "mut" && name != "ref" {
                    locals.push(name.to_string());
                }
            }
            j += 1;
        }
    }
    locals
}

impl Rule for ParallelDisjointness {
    fn id(&self) -> &'static str {
        "parallel-disjointness"
    }

    fn description(&self) -> &'static str {
        "writes in lint:par-sweep regions go through ledgered unsafe scatters or region-local buffers"
    }

    fn check(&mut self, file: &SourceFile, _out: &mut Vec<Finding>) {
        if !file.has_par_region() {
            return;
        }
        let code = file.code_indices();
        let unsafe_l = unsafe_lines(file, &code);
        let locals = region_locals(file, &code);
        let punct =
            |k: usize, c: char| k < code.len() && file.tokens[code[k]].is_punct(&file.text, c);

        for k in 0..code.len() {
            let line = file.tokens[code[k]].line;
            if !file.is_par_line(line) || file.is_test_line(line) {
                continue;
            }
            // `.get_unchecked_mut(` — an unchecked write path; the ledger
            // must carry the disjointness argument.
            if file.tok_text(&file.tokens[code[k]]) == "get_unchecked_mut"
                && k > 0
                && punct(k - 1, '.')
                && punct(k + 1, '(')
            {
                self.ledger_files.push((file.path.clone(), line));
                continue;
            }
            if !punct(k, '=') {
                continue;
            }
            // Reject ==, !=, <=, >=, =>, ..= and the first `=` of `==`.
            if punct(k + 1, '=') || punct(k + 1, '>') {
                continue;
            }
            if k > 0
                && (punct(k - 1, '=')
                    || punct(k - 1, '!')
                    || punct(k - 1, '<')
                    || punct(k - 1, '>')
                    || punct(k - 1, '.'))
            {
                continue;
            }
            // Compound assignment: the operator char directly before.
            let compound =
                k > 0 && ['+', '-', '*', '/', '%', '&', '|', '^'].iter().any(|&c| punct(k - 1, c));
            let op_start = if compound { k - 1 } else { k };
            // Walk back to the statement start; the tokens between are the
            // assignment target.
            let mut s = op_start;
            while s > 0 {
                let prev = &file.tokens[code[s - 1]];
                if prev.is_punct(&file.text, ';')
                    || prev.is_punct(&file.text, '{')
                    || prev.is_punct(&file.text, '}')
                {
                    break;
                }
                s -= 1;
            }
            let target: Vec<usize> = (s..op_start).collect();
            if target.is_empty() {
                continue;
            }
            // `let` statements declare, they don't scatter; a `#` means the
            // `=` sits inside an attribute (`#[cfg(feature = "...")]`).
            if target.iter().any(|&ti| {
                file.tok_text(&file.tokens[code[ti]]) == "let"
                    || file.tokens[code[ti]].is_punct(&file.text, '#')
            }) {
                continue;
            }
            let deref = file.tokens[code[target[0]]].is_punct(&file.text, '*');
            let base = target.iter().find_map(|&ti| {
                let t = &file.tokens[code[ti]];
                (t.kind == TokKind::Ident).then(|| file.tok_text(t).to_string())
            });
            let Some(base) = base else { continue };
            // Region-local targets (batch scratch) are the safe, blessed
            // shape — unless written through a deref (pointer provenance is
            // invisible at token level, so derefs always need the ledger).
            if !deref && locals.contains(&base) {
                continue;
            }
            self.pending.push(Pending {
                file: file.path.clone(),
                line,
                base,
                deref,
                in_unsafe: unsafe_l.get(line as usize).copied().unwrap_or(false),
                snippet: file.line_text(line).trim().to_string(),
            });
        }
    }

    fn finish(&mut self, ctx: &WorkspaceCtx<'_>, out: &mut Vec<Finding>) {
        let ledger = ctx.unsafe_ledger.unwrap_or("");
        let section_has_disjoint = |path: &str| {
            let heading = format!("## {path}");
            let Some(start) = ledger.find(&heading) else { return false };
            let body = &ledger[start + heading.len()..];
            let end = body.find("\n## ").unwrap_or(body.len());
            body[..end].to_ascii_lowercase().contains("disjoint")
        };

        for p in &self.pending {
            if !p.in_unsafe {
                out.push(Finding {
                    rule: self.id(),
                    file: p.file.clone(),
                    line: p.line,
                    message: format!(
                        "write to shared `{}` inside a lint:par-sweep region outside any \
                         unsafe scatter site — concurrent color sweeps may only write nodal \
                         state through the ledgered unsafe scatters or region-local buffers: \
                         `{}`",
                        p.base, p.snippet
                    ),
                });
            } else if !section_has_disjoint(&p.file) {
                out.push(Finding {
                    rule: self.id(),
                    file: p.file.clone(),
                    line: p.line,
                    message: format!(
                        "{} write to `{}` in a lint:par-sweep region, but the \
                         UNSAFE_LEDGER.md section for this file does not state the \
                         node-disjointness argument (mention how writes stay disjoint): `{}`",
                        if p.deref { "raw-pointer" } else { "shared" },
                        p.base,
                        p.snippet
                    ),
                });
            }
        }
        for (path, line) in &self.ledger_files {
            if !section_has_disjoint(path) {
                out.push(Finding {
                    rule: self.id(),
                    file: path.clone(),
                    line: *line,
                    message: "`.get_unchecked_mut()` in a lint:par-sweep region, but the \
                              UNSAFE_LEDGER.md section for this file does not state the \
                              node-disjointness argument"
                        .to_string(),
                });
            }
        }
        self.pending.clear();
        self.ledger_files.clear();
    }
}
