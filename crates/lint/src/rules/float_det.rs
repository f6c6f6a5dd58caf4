//! **float-determinism** — the harness property tests pin bit-identity
//! (serial vs SPMD ranks, resume vs uninterrupted, 4-rank recovery),
//! and the paper's reproducibility story depends on it. Inside
//! `lint:hot-path` regions (the numerical kernels) this rule bans the
//! constructs that silently break bit-reproducibility:
//!
//! - `HashMap`/`HashSet` (+ `RandomState`): iteration order varies run to
//!   run, so any float reduction over one is nondeterministic. Use `Vec`,
//!   index arrays, or `BTreeMap` at setup time.
//! - `as f64` / `as f32` casts: lossy, and a favorite way for an integer
//!   code path to leak platform-width behavior into the arithmetic. Use
//!   `f64::from` for widening, and keep kernel inputs already-floating.
//! - time (`Instant`, `SystemTime`) and randomness (`random`,
//!   `thread_rng`): wall-clock or seed-dependent values must never feed a
//!   kernel; they belong in telemetry and test drivers outside the region.
//!
//! Test lines are exempt (tests measure time and build HashMaps freely).
//! A line carrying a `lint:wall-clock-ok(reason)` annotation — on the line
//! itself or directly above it — is exempt from the time/randomness check
//! only; this exists for the telemetry flight recorder, whose hot record
//! path legitimately handles `Instant` values that are output-only
//! (timestamps never feed arithmetic that reaches the state).

use super::Rule;
use crate::source::SourceFile;
use crate::Finding;

const ORDER_HAZARDS: &[&str] = &["HashMap", "HashSet", "RandomState"];
const TIME_RANDOM: &[&str] = &["Instant", "SystemTime", "random", "thread_rng"];

pub struct FloatDeterminism;

impl Rule for FloatDeterminism {
    fn id(&self) -> &'static str {
        "float-determinism"
    }

    fn description(&self) -> &'static str {
        "no HashMap/HashSet, as-float casts, or time/random calls inside numerical kernels"
    }

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
            let text = file.tok_text(t);
            let why = if ORDER_HAZARDS.contains(&text) {
                Some(format!("`{text}` has nondeterministic iteration order"))
            } else if TIME_RANDOM.contains(&text) {
                // The annotation may sit on the line itself or — rustfmt
                // moves trailing comments off long signatures — as a pure
                // comment line directly above (a trailing comment above
                // annotates its own line only, not the one below).
                let above = t.line > 1 && {
                    let prev = file.line_text(t.line - 1);
                    prev.trim_start().starts_with("//") && prev.contains("lint:wall-clock-ok")
                };
                let annotated = file.line_text(t.line).contains("lint:wall-clock-ok") || above;
                if annotated {
                    None
                } else {
                    Some(format!("`{text}` injects wall-clock/seed-dependent values"))
                }
            } else if text == "as"
                && code
                    .get(k + 1)
                    .is_some_and(|&n| matches!(file.tok_text(&file.tokens[n]), "f64" | "f32"))
            {
                Some("lossy `as` float cast (use f64::from / keep inputs floating)".to_string())
            } else {
                None
            };
            if let Some(why) = why {
                out.push(Finding {
                    rule: self.id(),
                    file: file.path.clone(),
                    line: t.line,
                    message: format!(
                        "{} — forbidden in a lint:hot-path kernel; bit-reproducibility across \
                         ranks and reruns is a pinned contract: `{}`",
                        why,
                        file.line_text(t.line).trim()
                    ),
                });
            }
        }
    }
}
