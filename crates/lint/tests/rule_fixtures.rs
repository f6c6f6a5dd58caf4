//! One positive (rule fires on a seeded violation) and one negative (rule
//! stays silent on clean code) fixture per rule. Fixtures are synthetic
//! `SourceFile`s with in-scope paths — no filesystem involved, so each case
//! states exactly the code shape it pins.

use quake_lint::rules::{
    AllocReachability, FloatDeterminism, HarnessAllowlist, PanicReachability, Rule, WorkspaceCtx,
};
use quake_lint::{CallGraph, Finding, ItemTree, SourceFile};

fn run_rule(rule: &mut dyn Rule, path: &str, src: &str) -> Vec<Finding> {
    let f = SourceFile::parse(path, src.to_string());
    let mut out = Vec::new();
    rule.check(&f, &mut out);
    out
}

fn run_with_finish(rule: &mut dyn Rule, files: &[(&str, &str)]) -> Vec<Finding> {
    let parsed: Vec<SourceFile> =
        files.iter().map(|(path, src)| SourceFile::parse(path, src.to_string())).collect();
    let mut out = Vec::new();
    for f in &parsed {
        rule.check(f, &mut out);
    }
    let items = ItemTree::build(&parsed);
    let graph = CallGraph::build(&items);
    let ctx = WorkspaceCtx { files: &parsed, items: &items, graph: &graph };
    rule.finish(&ctx, &mut out);
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

// ---- panic-reachability, depth 0: the root files themselves -------------

#[test]
fn panic_reachability_fires_on_unwrap_expect_and_macros_in_root_files() {
    let src = "pub fn f(x: Option<u32>) -> u32 {\n\
                   let v = x.unwrap();\n\
                   let w = compute().expect(\"io\");\n\
                   if v == 0 { panic!(\"zero\") }\n\
                   match v { 1 => w, _ => unreachable!() }\n\
               }\n";
    let out = run_with_finish(&mut PanicReachability, &[("crates/parcomm/src/lib.rs", src)]);
    let lines: Vec<u32> = out.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![2, 3, 4, 5]);
    assert!(out.iter().all(|f| f.rule == "panic-reachability"));
}

#[test]
fn panic_reachability_silent_out_of_scope_in_tests_and_in_strings() {
    // Out of scope entirely (and reached from no root).
    assert!(run_with_finish(
        &mut PanicReachability,
        &[("crates/solver/src/elastic.rs", "fn f() { x.unwrap(); }\n")],
    )
    .is_empty());
    // In scope, but test module / string / assert are all fine.
    let src = "pub fn f() { assert!(true, \"contract\"); }\n\
               const HELP: &str = \"do not panic!(...) or x.unwrap() here\";\n\
               #[cfg(test)]\n\
               mod tests {\n\
                   #[test]\n\
                   fn t() { x.unwrap(); panic!(\"fine in tests\"); }\n\
               }\n";
    assert!(
        run_with_finish(&mut PanicReachability, &[("crates/ckpt/src/format.rs", src)]).is_empty()
    );
}

// ---- alloc-reachability, depth 0: the hot lines themselves --------------

#[test]
fn alloc_reachability_fires_inside_hot_region() {
    let src = "// lint:hot-path\n\
               fn kernel(xs: &[f64]) -> Vec<f64> {\n\
                   let a = xs.to_vec();\n\
                   let b: Vec<f64> = xs.iter().copied().collect();\n\
                   let c = Vec::new();\n\
                   let d = format!(\"{}\", xs.len());\n\
                   a\n\
               }\n\
               // lint:hot-path-end\n";
    let out = run_with_finish(&mut AllocReachability, &[("crates/solver/src/kern.rs", src)]);
    let lines: Vec<u32> = out.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![3, 4, 5, 6]);
    assert!(out.iter().all(|f| f.rule == "alloc-reachability"));
}

#[test]
fn alloc_reachability_silent_outside_region_and_for_push_reuse() {
    let src = "fn setup() -> Vec<f64> { vec![0.0; 8] }\n\
               // lint:hot-path\n\
               fn kernel(scratch: &mut Vec<f64>, x: f64) {\n\
                   scratch.push(x);\n\
                   let y = x.max(0.0);\n\
                   scratch[0] = y;\n\
               }\n\
               // lint:hot-path-end\n\
               fn teardown(v: Vec<f64>) -> Vec<f64> { v.clone() }\n";
    assert!(
        run_with_finish(&mut AllocReachability, &[("crates/solver/src/kern.rs", src)]).is_empty()
    );
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

// ---- alloc-reachability ------------------------------------------------

#[test]
fn alloc_reachability_fires_transitively_with_witness_chain() {
    let hot = "// lint:hot-path — fixture kernel\n\
               fn kernel(xs: &mut [f64]) { helper(xs); }\n\
               // lint:hot-path-end\n";
    let helpers = "pub fn helper(xs: &mut [f64]) { deep(xs); }\n\
                   pub fn deep(_xs: &mut [f64]) { let v: Vec<f64> = Vec::new(); drop(v); }\n";
    let out = run_with_finish(
        &mut AllocReachability,
        &[("crates/solver/src/kern.rs", hot), ("crates/util/src/lib.rs", helpers)],
    );
    assert_eq!(out.len(), 1, "{out:?}");
    assert_eq!(out[0].rule, "alloc-reachability");
    assert_eq!(out[0].file, "crates/util/src/lib.rs");
    assert!(out[0].message.contains("Vec::new"));
    assert!(
        out[0].message.contains("`helper`") && out[0].message.contains("kern.rs"),
        "witness chain names the hop and the seeding region: {}",
        out[0].message
    );
}

#[test]
fn alloc_reachability_respects_reach_ok_cut_and_clean_helpers() {
    let hot = "// lint:hot-path — fixture kernel\n\
               fn kernel(xs: &mut [f64]) {\n\
                   // lint:reach-ok — documented one-time warm-up, wraps onto\n\
                   // a second comment line like real justifications do.\n\
                   warmup(xs);\n\
                   clean(xs);\n\
               }\n\
               // lint:hot-path-end\n";
    let helpers = "pub fn warmup(_xs: &mut [f64]) { let v = vec![1.0]; drop(v); }\n\
                   pub fn clean(xs: &mut [f64]) { xs[0] = 1.0; }\n";
    let out = run_with_finish(
        &mut AllocReachability,
        &[("crates/solver/src/kern.rs", hot), ("crates/util/src/lib.rs", helpers)],
    );
    assert!(out.is_empty(), "cut edge + clean helper stay silent: {out:?}");
}

#[test]
fn alloc_reachability_reports_a_hot_line_in_a_reached_fn_once() {
    // `kernel` is both hot and reached (from `outer`'s hot call): its
    // allocation is one depth-0 finding, not a second one with a witness.
    let hot = "// lint:hot-path\n\
               fn outer() { kernel(); }\n\
               fn kernel() { let v: Vec<f64> = Vec::new(); drop(v); }\n\
               // lint:hot-path-end\n";
    let out = run_with_finish(&mut AllocReachability, &[("crates/solver/src/kern.rs", hot)]);
    assert_eq!(out.len(), 1, "{out:?}");
    assert_eq!(out[0].line, 3);
}

// ---- panic-reachability ------------------------------------------------

#[test]
fn panic_reachability_fires_from_ckpt_root_through_helper() {
    let root = "pub fn read_header(b: &[u8]) -> u32 { decode_word(b) }\n";
    let helper = "pub fn decode_word(b: &[u8]) -> u32 {\n\
                      u32::from_le_bytes(b[..4].try_into().unwrap())\n\
                  }\n";
    let out = run_with_finish(
        &mut PanicReachability,
        &[("crates/ckpt/src/format.rs", root), ("crates/util/src/lib.rs", helper)],
    );
    assert_eq!(out.len(), 1, "{out:?}");
    assert_eq!(out[0].rule, "panic-reachability");
    assert_eq!(out[0].file, "crates/util/src/lib.rs");
    assert!(out[0].message.contains(".unwrap()"));
    assert!(out[0].message.contains("`read_header`"), "witness: {}", out[0].message);
}

#[test]
fn panic_reachability_roots_are_every_fn_of_a_root_file() {
    // Every parcomm fn is a root, `try_` or not: a fail-stop wrapper that
    // reaches a panicking helper is a finding (suppress it deliberately in
    // the baseline if the panic is the contract). Asserts stay allowed.
    let comm = "pub fn send(x: u32) { boom(x); }\n\
                pub fn try_send(x: u32) -> Result<(), ()> { quiet(x); Ok(()) }\n";
    let helpers = "pub fn boom(x: u32) { if x == 0 { panic!(\"zero\") } }\n\
                   pub fn quiet(x: u32) { assert!(x < 1_000_000, \"caller contract\"); }\n";
    let out = run_with_finish(
        &mut PanicReachability,
        &[("crates/parcomm/src/lib.rs", comm), ("crates/util/src/lib.rs", helpers)],
    );
    assert_eq!(out.len(), 1, "{out:?}");
    assert!(out[0].message.contains("panic!") && out[0].message.contains("`send`"));
}

#[test]
fn panic_reachability_seeded_violation_behind_try_root() {
    let comm = "pub fn try_send(x: u32) -> Result<(), ()> { boom(x); Ok(()) }\n";
    let helpers = "pub fn boom(x: u32) { if x == 0 { panic!(\"zero\") } }\n";
    let out = run_with_finish(
        &mut PanicReachability,
        &[("crates/parcomm/src/lib.rs", comm), ("crates/util/src/lib.rs", helpers)],
    );
    assert_eq!(out.len(), 1, "{out:?}");
    assert!(out[0].message.contains("panic!"));
}
