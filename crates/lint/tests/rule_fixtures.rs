//! One positive (rule fires on a seeded violation) and one negative (rule
//! stays silent on clean code) fixture per rule. Fixtures are synthetic
//! `SourceFile`s with in-scope paths — no filesystem involved, so each case
//! states exactly the code shape it pins.

use quake_lint::rules::{FloatDeterminism, HarnessAllowlist, Rule};
use quake_lint::{Finding, SourceFile};

fn run_rule(rule: &mut dyn Rule, path: &str, src: &str) -> Vec<Finding> {
    let f = SourceFile::parse(path, src.to_string());
    let mut out = Vec::new();
    rule.check(&f, &mut out);
    out
}

// ---- harness-allowlist -------------------------------------------------

#[test]
fn harness_allowlist_fires_on_new_run_variant() {
    let out = run_rule(
        &mut HarnessAllowlist::default(),
        "crates/solver/src/experiments.rs",
        "pub fn run_my_experiment() {}\n",
    );
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].rule, "harness-allowlist");
    assert!(out[0].message.contains("run_my_experiment"));
}

#[test]
fn harness_allowlist_silent_on_allowed_and_quoted_names() {
    let mut rule = HarnessAllowlist::default();
    // Allowlisted file + name.
    assert!(run_rule(&mut rule, "crates/parcomm/src/lib.rs", "pub fn run_spmd() {}\n").is_empty());
    // The harness module is allowlisted by name, not wholesale: a second
    // loop there is a finding like anywhere else.
    assert!(
        run_rule(&mut rule, "crates/solver/src/harness.rs", "pub fn run_grouped() {}\n").is_empty()
    );
    let second_loop = "pub fn run_grouped_with_scratch() {}\n";
    assert_eq!(run_rule(&mut rule, "crates/solver/src/harness.rs", second_loop).len(), 1);
    // Non-pub helper, doc-comment mention, string mention: all fine.
    let src = "/// like `pub fn run_x` but private\n\
               fn run_helper() {}\n\
               const S: &str = \"pub fn run_fake\";\n";
    assert!(run_rule(&mut rule, "crates/solver/src/lib.rs", src).is_empty());
    assert_eq!(rule.seen, 3, "only real definitions count toward seen");
}

// ---- float-determinism -------------------------------------------------

#[test]
fn float_determinism_fires_on_casts_hash_iteration_and_time() {
    let src = "// lint:hot-path\n\
               fn kernel(n: usize, m: &HashMap<u32, f64>) -> f64 {\n\
                   let x = n as f64;\n\
                   let t = Instant::now();\n\
                   x\n\
               }\n\
               // lint:hot-path-end\n";
    let out = run_rule(&mut FloatDeterminism, "crates/solver/src/kern.rs", src);
    let lines: Vec<u32> = out.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![2, 3, 4]);
    assert!(out.iter().all(|f| f.rule == "float-determinism"));
}

#[test]
fn float_determinism_wall_clock_annotation_exempts_time_only() {
    // `lint:wall-clock-ok(...)` silences the time/randomness check on the
    // annotated line or the line directly below it (rustfmt moves trailing
    // comments above long signatures), but nothing else: casts and hash
    // hazards still fire, and unannotated time lines still fire.
    let src = "// lint:hot-path\n\
               // lint:wall-clock-ok(output-only timestamp)\n\
               fn record(epoch: Instant) -> u64 {\n\
                   let t = Instant::now(); // lint:wall-clock-ok(output-only timestamp)\n\
                   let n = 3usize as f64; // lint:wall-clock-ok(does not cover casts)\n\
                   let bad = Instant::now();\n\
                   n as u64\n\
               }\n\
               // lint:hot-path-end\n";
    let out = run_rule(&mut FloatDeterminism, "crates/telemetry/src/kern.rs", src);
    let lines: Vec<u32> = out.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![5, 6], "cast on 5 and unannotated Instant on 6 still fire");
}

#[test]
fn float_determinism_silent_on_int_casts_and_cold_code() {
    let src = "fn cold(n: usize) -> f64 { n as f64 }\n\
               // lint:hot-path\n\
               fn kernel(ei: u32, xs: &[f64]) -> f64 {\n\
                   let i = ei as usize;\n\
                   let w = f64::from(1u8);\n\
                   xs[i] + w\n\
               }\n\
               // lint:hot-path-end\n";
    assert!(run_rule(&mut FloatDeterminism, "crates/solver/src/kern.rs", src).is_empty());
}
