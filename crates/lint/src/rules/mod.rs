//! The invariant rules. Each rule walks one file's token stream at a time
//! (`check`), and may do a workspace-level pass once every file has been
//! seen (`finish` — the reachability rules walk the call graph there).
//!
//! Adding a rule (see DESIGN.md "Static analysis"):
//! 1. add a module here implementing [`Rule`],
//! 2. register it in [`all_rules`],
//! 3. add a positive + negative fixture in `tests/rule_fixtures.rs`,
//! 4. document it in the DESIGN.md rule table.

mod alloc_reach;
mod float_det;
mod harness_allowlist;
mod panic_reach;

pub use alloc_reach::AllocReachability;
pub use float_det::FloatDeterminism;
pub use harness_allowlist::HarnessAllowlist;
pub use panic_reach::PanicReachability;

use crate::callgraph::CallGraph;
use crate::items::ItemTree;
use crate::source::SourceFile;
use crate::Finding;

/// Workspace-level inputs available to `finish`: the interprocedural layer
/// (item tree + call graph) built once per run.
pub struct WorkspaceCtx<'a> {
    /// Every parsed file, indexable by `FnDef::file`.
    pub files: &'a [SourceFile],
    /// The workspace item tree (fn definitions + call sites).
    pub items: &'a ItemTree,
    /// The resolved workspace call graph over `items`.
    pub graph: &'a CallGraph,
}

pub trait Rule {
    fn id(&self) -> &'static str;
    fn description(&self) -> &'static str;
    /// Examine one file, appending findings.
    fn check(&mut self, file: &SourceFile, out: &mut Vec<Finding>);
    /// Called once after every file has been checked.
    fn finish(&mut self, _ctx: &WorkspaceCtx<'_>, _out: &mut Vec<Finding>) {}
}

/// The full rule set, in documentation order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(HarnessAllowlist::default()),
        Box::new(FloatDeterminism),
        Box::new(AllocReachability),
        Box::new(PanicReachability),
    ]
}
