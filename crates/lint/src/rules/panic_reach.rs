//! **panic-reachability** — the recovery supervisor (PR 3) treats
//! `CommError` as the only legitimate failure signal, and the checkpoint
//! reader must survive arbitrary on-disk corruption. A panic anywhere in
//! those paths turns a recoverable fault into a dead rank, so `unwrap()`,
//! `expect()`, `panic!`, `unreachable!`, `todo!`, and `unimplemented!` are
//! forbidden in every function of the root files and in everything those
//! functions transitively call — a utility three crates away that
//! `unwrap`s kills the rank just as surely as an unwrap in the supervisor.
//!
//! Roots — every non-test function in:
//!
//! - `crates/parcomm/src/**` (the comm fabric itself),
//! - `crates/solver/src/distributed.rs` (the SPMD driver + supervisor),
//! - `crates/ckpt/src/**` (the checkpoint reader path must degrade to
//!   `CkptError`, never abort — the writer lives in the same files),
//! - `crates/inverse/src/checkpoint.rs` (resumable-inversion state I/O),
//! - `crates/serve/src/cache.rs` (the result-cache reader must treat any
//!   on-disk corruption as a miss and recompute, never abort a worker).
//!
//! `assert!`/`debug_assert!` on *caller contracts* (e.g. rank bounds) stay
//! allowed everywhere: they document programmer error, not runtime failure.
//! Test code is exempt. The deliberate fail-stop sites (`Communicator::send`
//! / `recv`, `run_spmd`'s join) are suppressed in `lint-baseline.txt` with
//! the reason inline. `lint:reach-ok` cuts traversal exactly as in
//! `alloc-reachability`.

use super::{Rule, WorkspaceCtx};
use crate::reach::{Origin, Reachability};
use crate::source::SourceFile;
use crate::Finding;

const ROOT_SCOPE: &[&str] = &[
    "crates/parcomm/src/",
    "crates/solver/src/distributed.rs",
    "crates/ckpt/src/",
    "crates/inverse/src/checkpoint.rs",
    "crates/serve/src/cache.rs",
];

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

fn is_root_file(path: &str) -> bool {
    ROOT_SCOPE.iter().any(|p| path == *p || (p.ends_with('/') && path.starts_with(p)))
}

/// If the code token at `code[k]` is a panicking construct, a short
/// description (`.unwrap()`, `panic!`). Method calls only for
/// unwrap/expect (a local named `unwrap` or an `expect` field cannot trip
/// this), macro bangs only for the macros — `assert!` and `debug_assert!`
/// stay allowed (caller contracts, not runtime failures).
fn panic_at(file: &SourceFile, code: &[usize], k: usize) -> Option<String> {
    let text = file.tok_text(&file.tokens[code[k]]);
    let next_punct =
        |c: char| code.get(k + 1).is_some_and(|&n| file.tokens[n].is_punct(&file.text, c));
    match text {
        "unwrap" | "expect"
            if k > 0 && file.tokens[code[k - 1]].is_punct(&file.text, '.') && next_punct('(') =>
        {
            Some(format!(".{text}()"))
        }
        _ if PANIC_MACROS.contains(&text) && next_punct('!') => Some(format!("{text}!")),
        _ => None,
    }
}

pub struct PanicReachability;

impl Rule for PanicReachability {
    fn id(&self) -> &'static str {
        "panic-reachability"
    }

    fn description(&self) -> &'static str {
        "comm/recovery/checkpoint code and everything it calls must be panic-free"
    }

    fn check(&mut self, _file: &SourceFile, _out: &mut Vec<Finding>) {}

    fn finish(&mut self, ctx: &WorkspaceCtx<'_>, out: &mut Vec<Finding>) {
        let items = ctx.items;
        let files = ctx.files;
        let seeds: Vec<(u32, Origin)> = items
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| !f.is_test && is_root_file(&files[f.file as usize].path))
            .map(|(i, _)| (i as u32, Origin::Root))
            .collect();
        let reach = Reachability::explore(ctx.graph, items.fns.len(), &seeds);

        reach.for_each_reached_token(items, files, |fi, file, code, k| {
            let Some(what) = panic_at(file, code, k) else { return };
            let line = file.tokens[code[k]].line;
            let via = reach.witness(items, files, fi);
            let via = if via.is_empty() {
                "a rule root".to_string()
            } else {
                format!("reachable from the roots via {via}")
            };
            out.push(Finding {
                rule: self.id(),
                file: file.path.clone(),
                line,
                message: format!(
                    "`{}` in `{}` ({}) — comm/recovery/checkpoint paths must be \
                     transitively panic-free (propagate CommError, CkptError or \
                     io::Result, restructure around `assert!`, or cut the edge with a \
                     justified `lint:reach-ok`): `{}`",
                    what,
                    items.fns[fi as usize].name,
                    via,
                    file.line_text(line).trim()
                ),
            });
        });
    }
}
