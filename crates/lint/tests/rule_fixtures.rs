//! One positive (rule fires on a seeded violation) and one negative (rule
//! stays silent on clean code) fixture per rule, plus the baseline and
//! ledger cross-check behaviors. Fixtures are synthetic `SourceFile`s with
//! in-scope paths — no filesystem involved, so each case states exactly
//! the code shape it pins.

use quake_lint::rules::{
    AllocReachability, FloatDeterminism, HarnessAllowlist, NoAllocInHotPath, NoPanicInComm,
    PanicReachability, ParallelDisjointness, Rule, UnsafeLedger, WorkspaceCtx,
};
use quake_lint::{CallGraph, Finding, ItemTree, SourceFile};

fn run_rule(rule: &mut dyn Rule, path: &str, src: &str) -> Vec<Finding> {
    let f = SourceFile::parse(path, src.to_string());
    let mut out = Vec::new();
    rule.check(&f, &mut out);
    out
}

fn run_with_finish(
    rule: &mut dyn Rule,
    files: &[(&str, &str)],
    ledger: Option<&str>,
) -> Vec<Finding> {
    let parsed: Vec<SourceFile> =
        files.iter().map(|(path, src)| SourceFile::parse(path, src.to_string())).collect();
    let mut out = Vec::new();
    for f in &parsed {
        rule.check(f, &mut out);
    }
    let items = ItemTree::build(&parsed);
    let graph = CallGraph::build(&items);
    let ctx = WorkspaceCtx { unsafe_ledger: ledger, files: &parsed, items: &items, graph: &graph };
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

// ---- no-panic-in-comm --------------------------------------------------

#[test]
fn no_panic_fires_on_unwrap_expect_and_macros_in_scope() {
    let src = "pub fn f(x: Option<u32>) -> u32 {\n\
                   let v = x.unwrap();\n\
                   let w = compute().expect(\"io\");\n\
                   if v == 0 { panic!(\"zero\") }\n\
                   match v { 1 => w, _ => unreachable!() }\n\
               }\n";
    let out = run_rule(&mut NoPanicInComm, "crates/parcomm/src/lib.rs", src);
    let lines: Vec<u32> = out.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![2, 3, 4, 5]);
    assert!(out.iter().all(|f| f.rule == "no-panic-in-comm"));
}

#[test]
fn no_panic_silent_out_of_scope_in_tests_and_in_strings() {
    // Out of scope entirely.
    assert!(run_rule(
        &mut NoPanicInComm,
        "crates/solver/src/elastic.rs",
        "fn f() { x.unwrap(); }\n"
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
    assert!(run_rule(&mut NoPanicInComm, "crates/ckpt/src/format.rs", src).is_empty());
}

// ---- no-alloc-in-hot-path ----------------------------------------------

#[test]
fn no_alloc_fires_inside_hot_region() {
    let src = "// lint:hot-path\n\
               fn kernel(xs: &[f64]) -> Vec<f64> {\n\
                   let a = xs.to_vec();\n\
                   let b: Vec<f64> = xs.iter().copied().collect();\n\
                   let c = Vec::new();\n\
                   let d = format!(\"{}\", xs.len());\n\
                   a\n\
               }\n\
               // lint:hot-path-end\n";
    let out = run_rule(&mut NoAllocInHotPath, "crates/solver/src/kern.rs", src);
    let lines: Vec<u32> = out.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![3, 4, 5, 6]);
    assert!(out.iter().all(|f| f.rule == "no-alloc-in-hot-path"));
}

#[test]
fn no_alloc_silent_outside_region_and_for_push_reuse() {
    let src = "fn setup() -> Vec<f64> { vec![0.0; 8] }\n\
               // lint:hot-path\n\
               fn kernel(scratch: &mut Vec<f64>, x: f64) {\n\
                   scratch.push(x);\n\
                   let y = x.max(0.0);\n\
                   scratch[0] = y;\n\
               }\n\
               // lint:hot-path-end\n\
               fn teardown(v: Vec<f64>) -> Vec<f64> { v.clone() }\n";
    assert!(run_rule(&mut NoAllocInHotPath, "crates/solver/src/kern.rs", src).is_empty());
}

// ---- unsafe-ledger -----------------------------------------------------

const UNSAFE_SRC_NO_SAFETY: &str = "pub fn f(p: *mut f64) {\n\
                                        unsafe { *p = 1.0 };\n\
                                    }\n";

const UNSAFE_SRC_WITH_SAFETY: &str = "pub fn f(p: *mut f64) {\n\
                                          // SAFETY: p is the only live pointer (caller contract).\n\
                                          unsafe { *p = 1.0 };\n\
                                      }\n";

#[test]
fn unsafe_ledger_fires_on_missing_safety_comment_and_missing_entry() {
    let out = run_with_finish(
        &mut UnsafeLedger::default(),
        &[("crates/x/src/lib.rs", UNSAFE_SRC_NO_SAFETY)],
        None,
    );
    assert_eq!(out.len(), 2, "{out:?}");
    assert!(out[0].message.contains("SAFETY"));
    assert!(out[1].message.contains("UNSAFE_LEDGER.md"));
}

#[test]
fn unsafe_ledger_silent_when_comment_and_ledger_agree() {
    let ledger = "# Unsafe ledger\n\n## crates/x/src/lib.rs\n\n- raw store in f: caller contract\n";
    let out = run_with_finish(
        &mut UnsafeLedger::default(),
        &[("crates/x/src/lib.rs", UNSAFE_SRC_WITH_SAFETY)],
        Some(ledger),
    );
    assert!(out.is_empty(), "{out:?}");
}

#[test]
fn unsafe_ledger_flags_stale_section_and_count_mismatch() {
    let ledger = "## crates/x/src/lib.rs\n- one\n- two (stale: only one site)\n\
                  ## crates/gone/src/lib.rs\n- whole section stale\n";
    let out = run_with_finish(
        &mut UnsafeLedger::default(),
        &[("crates/x/src/lib.rs", UNSAFE_SRC_WITH_SAFETY)],
        Some(ledger),
    );
    assert_eq!(out.len(), 2, "{out:?}");
    assert!(out.iter().any(|f| f.message.contains("lists 2 site(s)")));
    assert!(out.iter().any(|f| f.message.contains("stale ledger section")));
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

// ---- unsafe-ledger: forbid(unsafe_code) cross-check --------------------

#[test]
fn unsafe_ledger_requires_forbid_in_zero_unsafe_crates() {
    let out = run_with_finish(
        &mut UnsafeLedger::default(),
        &[("crates/x/src/lib.rs", "pub fn f() {}\n")],
        None,
    );
    assert_eq!(out.len(), 1, "{out:?}");
    assert!(out[0].message.contains("forbid(unsafe_code)"));
    assert_eq!(out[0].file, "crates/x/src/lib.rs");
}

#[test]
fn unsafe_ledger_forbid_conflicts_with_leftover_ledger_section() {
    let ledger = "## crates/x/src/helpers.rs\n- old raw-pointer site\n";
    let out = run_with_finish(
        &mut UnsafeLedger::default(),
        &[
            ("crates/x/src/lib.rs", "#![forbid(unsafe_code)]\npub fn f() {}\n"),
            ("crates/x/src/helpers.rs", "pub fn g() {}\n"),
        ],
        Some(ledger),
    );
    assert!(
        out.iter().any(|f| f.message.contains("stale by construction")),
        "forbidding crate with a ledger section must fire: {out:?}"
    );
}

#[test]
fn unsafe_ledger_silent_with_forbid_and_clean_crate() {
    // A doc-comment mention of the attribute does not count; the real
    // token-level attribute does.
    let src = "//! To opt out, remove `#![forbid(unsafe_code)]` below.\n\
               #![forbid(unsafe_code)]\n\
               pub fn f() {}\n";
    let out = run_with_finish(&mut UnsafeLedger::default(), &[("crates/x/src/lib.rs", src)], None);
    assert!(out.is_empty(), "{out:?}");
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
        None,
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
        None,
    );
    assert!(out.is_empty(), "cut edge + clean helper stay silent: {out:?}");
}

#[test]
fn alloc_reachability_leaves_hot_line_findings_to_the_token_rule() {
    // An allocation ON a hot line is no-alloc-in-hot-path's finding; the
    // reachability rule must not double-report it.
    let hot = "// lint:hot-path\n\
               fn kernel() { let v: Vec<f64> = Vec::new(); drop(v); }\n\
               // lint:hot-path-end\n";
    let out = run_with_finish(&mut AllocReachability, &[("crates/solver/src/kern.rs", hot)], None);
    assert!(out.is_empty(), "{out:?}");
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
        None,
    );
    assert_eq!(out.len(), 1, "{out:?}");
    assert_eq!(out[0].rule, "panic-reachability");
    assert_eq!(out[0].file, "crates/util/src/lib.rs");
    assert!(out[0].message.contains(".unwrap()"));
    assert!(out[0].message.contains("`read_header`"), "witness: {}", out[0].message);
}

#[test]
fn panic_reachability_roots_are_try_twins_not_fail_stop_wrappers() {
    // In parcomm only the `try_*` twins are roots: the fail-stop `send`
    // reaching a panicking helper is the documented pre-recovery contract.
    let comm = "pub fn send(x: u32) { boom(x); }\n\
                pub fn try_send(x: u32) -> Result<(), ()> { quiet(x); Ok(()) }\n";
    let helpers = "pub fn boom(x: u32) { if x == 0 { panic!(\"zero\") } }\n\
                   pub fn quiet(x: u32) { assert!(x < 1_000_000, \"caller contract\"); }\n";
    let out = run_with_finish(
        &mut PanicReachability,
        &[("crates/parcomm/src/lib.rs", comm), ("crates/util/src/lib.rs", helpers)],
        None,
    );
    assert!(out.is_empty(), "only try_* roots traverse, asserts stay allowed: {out:?}");
}

#[test]
fn panic_reachability_seeded_violation_behind_try_root() {
    let comm = "pub fn try_send(x: u32) -> Result<(), ()> { boom(x); Ok(()) }\n";
    let helpers = "pub fn boom(x: u32) { if x == 0 { panic!(\"zero\") } }\n";
    let out = run_with_finish(
        &mut PanicReachability,
        &[("crates/parcomm/src/lib.rs", comm), ("crates/util/src/lib.rs", helpers)],
        None,
    );
    assert_eq!(out.len(), 1, "{out:?}");
    assert!(out[0].message.contains("panic!"));
}

// ---- parallel-disjointness ---------------------------------------------

const DISJOINT_LEDGER: &str = "# ledger\n\n## crates/solver/src/sweep.rs\n\n\
    - scatter through raw pointer; node-disjoint coloring keeps concurrent\n\
      writes on distinct entries.\n";

#[test]
fn par_disjointness_fires_on_safe_shared_write() {
    let src = "// lint:par-sweep — fixture scatter body\n\
               fn scatter(rhs: &mut [f64], d: usize, v: f64) {\n\
                   rhs[d] += v;\n\
               }\n\
               // lint:par-sweep-end\n";
    let out = run_with_finish(
        &mut ParallelDisjointness::default(),
        &[("crates/solver/src/sweep.rs", src)],
        Some(DISJOINT_LEDGER),
    );
    assert_eq!(out.len(), 1, "{out:?}");
    assert_eq!(out[0].rule, "parallel-disjointness");
    assert!(out[0].message.contains("outside any unsafe scatter site"));
    assert!(out[0].message.contains("`rhs`"));
}

#[test]
fn par_disjointness_requires_the_ledger_to_argue_disjointness() {
    // Same unsafe scatter, two ledgers: one states the disjointness
    // argument, one does not.
    let src = "// lint:par-sweep — fixture scatter body\n\
               fn scatter(p: *mut f64, d: usize, v: f64) {\n\
                   // SAFETY: callers pass node-disjoint indices per color.\n\
                   unsafe { *p.add(d) += v };\n\
               }\n\
               // lint:par-sweep-end\n";
    let vague = "## crates/solver/src/sweep.rs\n- trust me, it is fine\n";
    let out = run_with_finish(
        &mut ParallelDisjointness::default(),
        &[("crates/solver/src/sweep.rs", src)],
        Some(vague),
    );
    assert_eq!(out.len(), 1, "{out:?}");
    assert!(out[0].message.contains("node-disjointness argument"), "{}", out[0].message);

    let out = run_with_finish(
        &mut ParallelDisjointness::default(),
        &[("crates/solver/src/sweep.rs", src)],
        Some(DISJOINT_LEDGER),
    );
    assert!(out.is_empty(), "ledgered raw-pointer scatter is the blessed shape: {out:?}");
}

#[test]
fn par_disjointness_get_unchecked_mut_needs_the_ledger() {
    let src = "// lint:par-sweep — fixture scatter body\n\
               fn scatter(rhs: &mut [f64], d: usize, v: f64) {\n\
                   // SAFETY: d is in bounds and node-disjoint per color.\n\
                   unsafe { *rhs.get_unchecked_mut(d) += v };\n\
               }\n\
               // lint:par-sweep-end\n";
    let out = run_with_finish(
        &mut ParallelDisjointness::default(),
        &[("crates/solver/src/sweep.rs", src)],
        None,
    );
    assert!(
        out.iter().any(|f| f.message.contains("get_unchecked_mut")),
        "unchecked write without ledger must fire: {out:?}"
    );
}

#[test]
fn par_disjointness_region_locals_and_attributes_are_fine() {
    let src = "// lint:par-sweep — fixture scatter body\n\
               #[cfg(feature = \"parallel\")]\n\
               fn scatter(rhs: &mut [f64], idx: &[usize]) {\n\
                   let mut acc = [0.0f64; 8];\n\
                   for k in 0..8 {\n\
                       acc[k] = 1.0;\n\
                   }\n\
                   let consumed = idx.iter().map(|&i| i + 1).sum::<usize>();\n\
                   // SAFETY: idx entries are node-disjoint within a color.\n\
                   unsafe { *rhs.as_mut_ptr().add(consumed) = acc[0] };\n\
               }\n\
               // lint:par-sweep-end\n";
    let out = run_with_finish(
        &mut ParallelDisjointness::default(),
        &[("crates/solver/src/sweep.rs", src)],
        Some(DISJOINT_LEDGER),
    );
    assert!(out.is_empty(), "locals, attributes, ledgered deref all clean: {out:?}");
}
