//! **alloc-reachability** — the interprocedural closure of
//! `no-alloc-in-hot-path`. The token rule catches `Vec::new` *inside* a
//! `lint:hot-path` region; this rule closes the helper-function loophole:
//! every function transitively reachable from a call on a hot-region line
//! must itself be allocation-free, wherever it lives.
//!
//! Mechanics: every resolved call edge whose call site sits on a hot line
//! seeds a BFS over the workspace call graph; each reached function's body
//! is scanned with the same allocation matcher the token rule uses.
//! Findings carry the witness chain ("via `pass` (elastic.rs:616) ->
//! `sweep` (...)") so the reviewer sees the exact path from kernel
//! to allocation. Deduplication against the token rule is by line class:
//! allocation sites on hot lines are the token rule's findings, not ours.
//!
//! Escape hatch: a call-site line annotated `// lint:reach-ok — reason`
//! cuts traversal there. It exists for dyn-dispatch fan-out (the harness
//! hook loops, whose hot callers install only non-allocating hooks) and for
//! documented one-time warm-up allocations; the annotation must state why.

use super::no_alloc::alloc_at;
use super::{Rule, WorkspaceCtx};
use crate::reach::{Origin, Reachability};
use crate::source::SourceFile;
use crate::Finding;

pub struct AllocReachability;

impl Rule for AllocReachability {
    fn id(&self) -> &'static str {
        "alloc-reachability"
    }

    fn description(&self) -> &'static str {
        "functions reachable from lint:hot-path regions must be allocation-free"
    }

    fn check(&mut self, _file: &SourceFile, _out: &mut Vec<Finding>) {}

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

        for (fi, f) in items.fns.iter().enumerate() {
            if f.is_test || !reach.is_reached(fi as u32) {
                continue;
            }
            let Some((blo, bhi)) = f.body else { continue };
            let file = &files[f.file as usize];
            let code = file.code_indices();
            for k in blo..=bhi.min(code.len().saturating_sub(1)) {
                let line = file.tokens[code[k]].line;
                // Hot lines belong to the token rule; test lines are exempt.
                if file.is_test_line(line) || file.is_hot_line(line) {
                    continue;
                }
                if let Some(what) = alloc_at(file, &code, k) {
                    let via = reach.witness(items, files, fi as u32);
                    out.push(Finding {
                        rule: self.id(),
                        file: file.path.clone(),
                        line,
                        message: format!(
                            "`{}` in `{}` — reachable from a lint:hot-path region via {}; \
                             hot paths must stay allocation-free transitively (preallocate, \
                             or cut the edge with a justified `lint:reach-ok`): `{}`",
                            what,
                            f.name,
                            via,
                            file.line_text(line).trim()
                        ),
                    });
                }
            }
        }
    }
}
