//! Holds `BENCHMARK.json`, `src/metrics.rs` and what the binary prints
//! together: runs every workload at `--quick` size in both passes and checks
//! the result lines against the declaration. `cargo test --release` keeps it
//! to seconds; a debug build runs the same checks, slower.

use quake_benchmark::json::{self, Value};
use quake_benchmark::metrics;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

fn declaration_file() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn names(list: &Value) -> Vec<String> {
    list.as_arr()
        .iter()
        .map(|m| m.get("name").and_then(Value::as_str).expect("every entry has a name").to_string())
        .collect()
}

#[test]
fn committed_declaration_is_what_the_tables_declare() {
    let file = declaration_file();
    assert_eq!(file, metrics::declaration(), "regenerate with `quake-benchmark declaration`");

    let keys: Vec<&str> = file.as_obj().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);
    let workloads = names(file.get("workloads").unwrap());
    let end_to_end = names(file.get("end_to_end").unwrap());
    let per_layer = names(file.get("per_layer").unwrap());
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));
    let all: Vec<&String> = workloads.iter().chain(&end_to_end).chain(&per_layer).collect();
    assert!(all.iter().all(|n| valid_name(n)), "names are [A-Za-z0-9_.-]+");
    assert_eq!(all.iter().collect::<BTreeSet<_>>().len(), all.len(), "every name is used once");

    for w in file.get("workloads").unwrap().as_arr() {
        let why = w.get("why").and_then(Value::as_str).unwrap();
        assert!(why.len() <= 200 && !why.contains('\n'));
    }
    for m in file.get("end_to_end").unwrap().as_arr() {
        let bound = m.get("bound").and_then(Value::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25);
    }
    let setup = &file.get("end_to_end").unwrap().as_arr()[0];
    assert_eq!(setup.get("name").and_then(Value::as_str), Some("setup_s"));
    assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Value::as_str), Some("lower"));
    let run_seconds = file.get("run_seconds").and_then(Value::as_f64).unwrap();
    assert!(run_seconds.fract() == 0.0 && (1.0..=60.0).contains(&run_seconds));
}

/// One quick pass of one workload; returns the parsed last stdout line.
fn quick_pass(workload: &str, trace: bool) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_quake-benchmark"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0", "--quick"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    json::parse(stdout.lines().last().expect("a result line")).expect("result line parses")
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics() {
    let file = declaration_file();
    for workload in names(file.get("workloads").unwrap()) {
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let result = quick_pass(&workload, trace);
            let keys: Vec<&str> = result.as_obj().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"], "{workload}");
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{workload} {list}");
            assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0), "{workload}");
            assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);

            let declared = file.get(list).unwrap().as_arr();
            let emitted = result.get("metrics").unwrap().as_obj();
            let declared_names: Vec<&str> =
                declared.iter().map(|m| m.get("name").and_then(Value::as_str).unwrap()).collect();
            let emitted_names: Vec<&str> = emitted.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(emitted_names, declared_names, "{workload} {list}");
            for (m, (name, got)) in declared.iter().zip(emitted) {
                assert_eq!(got.get("unit"), m.get("unit"), "{workload} {name}");
                let value = got.get("value").and_then(Value::as_f64);
                assert!(value.is_some_and(f64::is_finite), "{workload} {name}: {value:?}");
                if !trace {
                    assert!(
                        value != Some(0.0),
                        "{workload} {name}: end-to-end metrics are never 0"
                    );
                }
            }
        }
    }
}

#[test]
fn a_bad_workload_name_is_an_error_without_a_result_line() {
    let out = Command::new(env!("CARGO_BIN_EXE_quake-benchmark"))
        .args(["--workload", "no_such_workload", "--seed", "1", "--seconds", "0", "--trace", "0"])
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
