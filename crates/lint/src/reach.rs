//! Reachability over the call graph, with witness paths.
//!
//! Both interprocedural rules are "every function transitively reachable
//! from X must not do Y" checks. This module does the BFS once per rule and
//! remembers *how* each function was reached, so a finding three hops from
//! its root can print the exact call chain a reviewer needs:
//!
//! ```text
//! reachable from the lint:hot-path region at crates/serve/src/exec.rs:126
//! via run_with_scratch (crates/solver/src/harness.rs:293) -> drive (...) -> pass (...)
//! ```
//!
//! Edges cut by `lint:reach-ok` annotations never enter the graph
//! ([`crate::callgraph`]), so they are invisible here by construction.

use crate::callgraph::CallGraph;
use crate::items::ItemTree;
use crate::source::SourceFile;

#[derive(Debug, Clone, Copy)]
pub enum Origin {
    /// The fn is itself a rule root (e.g. a `try_*` comm twin).
    Root,
    /// Seeded by a call on a marked-region line of `files[file]`.
    Region { file: u32, line: u32 },
    /// Reached through a call at `line` of `caller`'s file.
    Call { caller: u32, line: u32 },
}

pub struct Reachability {
    /// Per fn index: how it was first reached, `None` if unreached.
    pub origin: Vec<Option<Origin>>,
}

impl Reachability {
    /// BFS from explicitly-seeded fns. Seeds carry their own origin (rule
    /// roots use [`Origin::Root`]; region seeds record the seeding line).
    pub fn explore(graph: &CallGraph, n_fns: usize, seeds: &[(u32, Origin)]) -> Reachability {
        let mut origin: Vec<Option<Origin>> = vec![None; n_fns];
        let mut queue = std::collections::VecDeque::new();
        for &(f, o) in seeds {
            if origin[f as usize].is_none() {
                origin[f as usize] = Some(o);
                queue.push_back(f);
            }
        }
        while let Some(f) = queue.pop_front() {
            for e in &graph.callees[f as usize] {
                if origin[e.callee as usize].is_none() {
                    origin[e.callee as usize] = Some(Origin::Call { caller: f, line: e.line });
                    queue.push_back(e.callee);
                }
            }
        }
        Reachability { origin }
    }

    pub fn is_reached(&self, f: u32) -> bool {
        self.origin[f as usize].is_some()
    }

    /// Visit every non-test code token inside the body of a reached,
    /// non-test fn — `visit(fn index, file, code indices, k)` — exactly once:
    /// a fn nested in another reached fn lies inside both body spans.
    pub fn for_each_reached_token(
        &self,
        items: &ItemTree,
        files: &[SourceFile],
        mut visit: impl FnMut(u32, &SourceFile, &[usize], usize),
    ) {
        let mut code_of: Vec<Option<Vec<usize>>> = files.iter().map(|_| None).collect();
        let mut seen = std::collections::HashSet::new();
        for (fi, f) in items.fns.iter().enumerate() {
            if f.is_test || !self.is_reached(fi as u32) {
                continue;
            }
            let Some((blo, bhi)) = f.body else { continue };
            let file = &files[f.file as usize];
            let code = code_of[f.file as usize].get_or_insert_with(|| file.code_indices());
            for k in blo..=bhi.min(code.len().saturating_sub(1)) {
                if !file.is_test_line(file.tokens[code[k]].line) && seen.insert((f.file, k)) {
                    visit(fi as u32, file, code, k);
                }
            }
        }
    }

    /// Render the call chain that first reached `f`, root to `f`'s caller,
    /// capped at 5 hops (`... ->` beyond). Empty for roots and unreached.
    pub fn witness(&self, items: &ItemTree, files: &[SourceFile], f: u32) -> String {
        let mut hops: Vec<String> = Vec::new();
        let mut cur = f;
        loop {
            match self.origin[cur as usize] {
                Some(Origin::Call { caller, line }) => {
                    let cf = &items.fns[caller as usize];
                    hops.push(format!("`{}` ({}:{})", cf.name, files[cf.file as usize].path, line));
                    cur = caller;
                }
                Some(Origin::Region { file, line }) => {
                    hops.push(format!(
                        "the marked region at {}:{}",
                        files[file as usize].path, line
                    ));
                    break;
                }
                _ => break,
            }
        }
        hops.reverse();
        if hops.len() > 5 {
            let skipped = hops.len() - 5;
            hops.drain(1..1 + skipped);
            hops.insert(1, format!("... {skipped} hop(s) ..."));
        }
        hops.join(" -> ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use crate::source::SourceFile;

    #[test]
    fn bfs_reaches_transitively_and_witnesses_the_chain() {
        let f = SourceFile::parse(
            "crates/x/src/lib.rs",
            "fn a() { b(); }\nfn b() { c(); }\nfn c() {}\nfn island() {}\n".to_string(),
        );
        let files = [f];
        let items = ItemTree::build(&files);
        let g = CallGraph::build(&items);
        let a = items.fns.iter().position(|f| f.name == "a").unwrap() as u32;
        let c = items.fns.iter().position(|f| f.name == "c").unwrap() as u32;
        let island = items.fns.iter().position(|f| f.name == "island").unwrap() as u32;
        let r = Reachability::explore(&g, items.fns.len(), &[(a, Origin::Root)]);
        assert!(r.is_reached(c));
        assert!(!r.is_reached(island));
        let w = r.witness(&items, &files, c);
        assert!(w.contains("`a`") && w.contains("`b`"), "{w}");
        assert!(w.contains("crates/x/src/lib.rs:2"), "{w}");
    }
}
