//! **alloc-reachability** — PR 1's zero-steady-state-allocation guarantee,
//! machine-checked through calls. Code inside `// lint:hot-path` regions
//! (the elastic step loop, the element kernels, fold/ABC phases, the fem
//! matvecs) may not construct or grow heap storage, and neither may any
//! function transitively reachable from a call on a hot-region line,
//! wherever it lives: at 3000 PEs an allocator call in the element loop is
//! both a throughput cliff and a cross-rank jitter source.
//!
//! Matched forms: `Vec::new`/`with_capacity`/`from` (and the same on `Box`,
//! `String`, `VecDeque`, `HashMap`, `HashSet`, `BTreeMap`), the `.to_vec()`
//! / `.collect()` / `.clone()` / `.to_string()` / `.to_owned()` method
//! calls, and the `format!` / `vec!` macros. `Vec::push` on preallocated
//! scratch is deliberately NOT matched — the workspace pattern is "allocate
//! in `new`, reuse in `step`", and push-into-capacity is how the scratch is
//! reused. Test lines are exempt.
//!
//! Mechanics: depth 0 is the hot lines themselves (`check`). Then every
//! resolved call edge whose call site sits on a hot line seeds a BFS over
//! the workspace call graph, and each reached function's non-hot lines are
//! scanned with the same matcher (`finish`). Those findings carry the
//! witness chain ("via `pass` (elastic.rs:616) -> `helper` (...)") so the
//! reviewer sees the exact path from kernel to allocation.
//!
//! Escape hatch: a call-site line annotated `// lint:reach-ok — reason`
//! cuts traversal there. It exists for dyn-dispatch fan-out (the harness
//! hook loops, whose hot callers install only non-allocating hooks) and for
//! documented one-time warm-up allocations; the annotation must state why.

use super::{Rule, WorkspaceCtx};
use crate::reach::{Origin, Reachability};
use crate::source::SourceFile;
use crate::Finding;

const ALLOC_METHODS: &[&str] = &["to_vec", "collect", "clone", "to_string", "to_owned"];
const ALLOC_TYPES: &[&str] =
    &["Vec", "Box", "String", "VecDeque", "HashMap", "HashSet", "BTreeMap"];
const ALLOC_CTORS: &[&str] = &["new", "with_capacity", "from"];
const ALLOC_MACROS: &[&str] = &["format", "vec"];

/// If the code token at `code[k]` starts an allocating construct, a short
/// description of it (`Vec::new`, `.collect()`, `format!`).
fn alloc_at(file: &SourceFile, code: &[usize], k: usize) -> Option<String> {
    let text = file.tok_text(&file.tokens[code[k]]);
    let next_punct =
        |c: char| code.get(k + 1).is_some_and(|&n| file.tokens[n].is_punct(&file.text, c));
    if ALLOC_METHODS.contains(&text)
        && k > 0
        && file.tokens[code[k - 1]].is_punct(&file.text, '.')
        && (next_punct('(') || next_punct(':'))
    {
        // `.collect::<...>()` lexes `::` as two ':' puncts.
        Some(format!(".{text}()"))
    } else if ALLOC_TYPES.contains(&text)
        && next_punct(':')
        && code.get(k + 3).is_some_and(|&n| ALLOC_CTORS.contains(&file.tok_text(&file.tokens[n])))
    {
        Some(format!("{}::{}", text, file.tok_text(&file.tokens[code[k + 3]])))
    } else if ALLOC_MACROS.contains(&text) && next_punct('!') {
        Some(format!("{text}!"))
    } else {
        None
    }
}

pub struct AllocReachability;

impl Rule for AllocReachability {
    fn id(&self) -> &'static str {
        "alloc-reachability"
    }

    fn description(&self) -> &'static str {
        "lint:hot-path regions and everything reachable from them must be allocation-free"
    }

    /// Depth 0: allocations on the hot lines themselves.
    fn check(&mut self, file: &SourceFile, out: &mut Vec<Finding>) {
        if !file.has_hot_region() {
            return;
        }
        let code = file.code_indices();
        for (k, &i) in code.iter().enumerate() {
            let t = &file.tokens[i];
            if !file.is_hot_line(t.line) || file.is_test_line(t.line) {
                continue;
            }
            if let Some(what) = alloc_at(file, &code, k) {
                out.push(Finding {
                    rule: self.id(),
                    file: file.path.clone(),
                    line: t.line,
                    message: format!(
                        "`{}` in `lint:hot-path` — hot-path regions must stay allocation-free \
                         (preallocate in the workspace/scope, reuse per step): `{}`",
                        what,
                        file.line_text(t.line).trim()
                    ),
                });
            }
        }
    }

    /// Depth >= 1: functions reachable from a call on a hot line.
    fn finish(&mut self, ctx: &WorkspaceCtx<'_>, out: &mut Vec<Finding>) {
        let items = ctx.items;
        let files = ctx.files;
        // Seed: every resolved edge whose call site is on a hot, non-test
        // line. The caller itself need not be hot — only the line matters.
        let mut seeds: Vec<(u32, Origin)> = Vec::new();
        for (ci, f) in items.fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            let file = &files[f.file as usize];
            if !file.has_hot_region() {
                continue;
            }
            for e in &ctx.graph.callees[ci] {
                if file.is_hot_line(e.line) && !file.is_test_line(e.line) {
                    seeds.push((e.callee, Origin::Region { file: f.file, line: e.line }));
                }
            }
        }
        let reach = Reachability::explore(ctx.graph, items.fns.len(), &seeds);

        reach.for_each_reached_token(items, files, |fi, file, code, k| {
            let line = file.tokens[code[k]].line;
            // Hot lines were reported at depth 0.
            if file.is_hot_line(line) {
                return;
            }
            if let Some(what) = alloc_at(file, code, k) {
                out.push(Finding {
                    rule: self.id(),
                    file: file.path.clone(),
                    line,
                    message: format!(
                        "`{}` in `{}` — reachable from a lint:hot-path region via {}; \
                         hot paths must stay allocation-free transitively (preallocate, \
                         or cut the edge with a justified `lint:reach-ok`): `{}`",
                        what,
                        items.fns[fi as usize].name,
                        reach.witness(items, files, fi),
                        file.line_text(line).trim()
                    ),
                });
            }
        });
    }
}
