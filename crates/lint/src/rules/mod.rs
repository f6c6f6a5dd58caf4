//! The invariant rules. Each rule walks one file's token stream at a time.
//!
//! Adding a rule (see DESIGN.md "Static analysis"):
//! 1. add a module here implementing [`Rule`],
//! 2. register it in [`all_rules`],
//! 3. add a positive + negative fixture in `tests/rule_fixtures.rs`,
//! 4. document it in the DESIGN.md rule table.

mod float_det;
mod harness_allowlist;

pub use float_det::FloatDeterminism;
pub use harness_allowlist::HarnessAllowlist;

use crate::source::SourceFile;
use crate::Finding;

pub trait Rule {
    fn id(&self) -> &'static str;
    fn description(&self) -> &'static str;
    /// Examine one file, appending findings.
    fn check(&mut self, file: &SourceFile, out: &mut Vec<Finding>);
}

/// The full rule set, in documentation order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![Box::new(HarnessAllowlist::default()), Box::new(FloatDeterminism)]
}
