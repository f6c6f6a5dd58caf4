//! The whole suite in one command: every workload in a child process of its
//! own (so `peak_rss_mb` is the workload's, and a crash is that workload's
//! failure, not an aborted run), first untraced for the end-to-end metrics,
//! then traced for the per-layer ledger. Writes `benchmark/out/result.json`
//! with a manifest describing the host and the inputs beside the numbers.

use crate::json::{self, Value};
use crate::metrics::{END_TO_END, WORKLOADS};
use crate::stats::median;
use std::path::Path;
use std::process::Command;

/// Seconds one pass measures; `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: f64 = 8.0;

pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    /// Untraced passes per workload (the traced pass always runs once).
    pub runs: usize,
}

/// The two JSON lines a child prints last: `detail {...}` and the contract
/// object. `None` if the child crashed or printed neither.
fn run_child(workload: &str, args: &SuiteArgs, trace: bool) -> Option<Value> {
    let exe = std::env::current_exe().ok()?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()]).args([
        "--seconds",
        &args.seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    if args.quick {
        cmd.arg("--quick");
    }
    // stderr is inherited: failed checks and panics show up as they happen.
    let out = cmd.output().ok()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    for line in stdout.lines().filter(|l| !l.starts_with("detail ") && !l.starts_with('{')) {
        println!("    {line}");
    }
    if !out.status.success() {
        eprintln!("workload {workload} (trace {}) exited with {}", trace as u8, out.status);
        return None;
    }
    let detail = stdout.lines().rev().find_map(|l| l.strip_prefix("detail "))?;
    json::parse(detail).ok()
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok().map(|s| s.trim().to_string())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The declarative description of the run: host, toolchain, inputs.
fn manifest(args: &SuiteArgs) -> Vec<(String, Value)> {
    let unknown = || "unknown".to_string();
    let cpu_model = read_trimmed("/proc/cpuinfo")
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(unknown);
    let cache = |index: u32| {
        read_trimmed(&format!("/sys/devices/system/cpu/cpu0/cache/index{index}/size"))
            .unwrap_or_else(unknown)
    };
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let git_rev = command_line("git", &["-C", &repo.to_string_lossy(), "rev-parse", "HEAD"])
        .unwrap_or_else(unknown);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("git_rev".into(), json::text(&git_rev)),
        ("nproc".into(), json::num(nproc as f64)),
        ("cpu_model".into(), json::text(&cpu_model)),
        ("cache_l2".into(), json::text(&cache(2))),
        ("cache_l3".into(), json::text(&cache(3))),
        (
            "rustc".into(),
            json::text(&command_line("rustc", &["--version"]).unwrap_or_else(unknown)),
        ),
        ("cargo_profile".into(), json::text("release")),
        ("cargo_features".into(), json::text("default (no `parallel`: the plain serial sweep)")),
        ("seed".into(), json::num(args.seed as f64)),
        ("run_seconds".into(), json::num(args.seconds)),
        ("untraced_runs".into(), json::num(args.runs as f64)),
        ("quick".into(), Value::Bool(args.quick)),
    ]
}

pub fn run(args: &SuiteArgs) -> u8 {
    let mut results: Vec<(String, Value)> = Vec::new();
    let mut inputs: Vec<(String, Value)> = Vec::new();
    let mut any_failed = false;
    for (workload, why) in WORKLOADS {
        println!("== {workload}: {why}");
        let mut attempted = 0.0;
        let mut failed = 0.0;
        let mut crashed = false;
        let mut tally = |pass: &Option<Value>| match pass {
            Some(v) => {
                attempted += v.get("attempted").and_then(Value::as_f64).unwrap_or(0.0);
                failed += v.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
            }
            None => crashed = true,
        };

        // End-to-end metrics: `runs` untraced passes, every value kept.
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        let mut fingerprint = Value::Null;
        let mut samples = Value::Null;
        for _ in 0..args.runs {
            let pass = run_child(workload, args, false);
            tally(&pass);
            let Some(pass) = pass else { continue };
            for (m, vals) in END_TO_END.iter().zip(&mut values) {
                let v =
                    pass.get("metrics").and_then(|x| x.get(m.name)).and_then(|x| x.get("value"));
                vals.extend(v.and_then(Value::as_f64));
            }
            fingerprint = pass.get("fingerprint").cloned().unwrap_or(Value::Null);
            samples = pass.get("samples").cloned().unwrap_or(Value::Null);
        }
        let end_to_end = json::obj(END_TO_END.iter().zip(&values).map(|(m, vals)| {
            let fields = [
                ("unit", json::text(m.unit)),
                ("median", json::num(median(vals))),
                ("values", Value::Arr(vals.iter().copied().map(json::num).collect())),
            ];
            (m.name, json::obj(fields))
        }));

        // Per-layer ledger: one traced pass.
        let traced = run_child(workload, args, true);
        tally(&traced);
        let per_layer =
            traced.as_ref().and_then(|t| t.get("metrics")).cloned().unwrap_or(Value::Null);

        // A crashed child counts as everything failed.
        let failed_share = if crashed { 1.0 } else { failed / attempted.max(1.0) };
        any_failed |= failed_share > 0.0;
        println!("   failed_share = {failed_share} ({failed} of {attempted} operations)\n");
        results.push((
            workload.to_string(),
            json::obj([
                ("end_to_end", end_to_end),
                ("per_layer", per_layer),
                ("attempted", json::num(attempted)),
                ("failed", json::num(failed)),
                ("failed_share", json::num(failed_share)),
            ]),
        ));
        inputs.push((
            workload.to_string(),
            json::obj([
                ("why", json::text(why)),
                ("fingerprint", fingerprint),
                ("samples", samples),
            ]),
        ));
    }

    let mut manifest = manifest(args);
    manifest.push(("workloads".into(), Value::Obj(inputs)));
    let manifest = Value::Obj(manifest);
    println!("manifest {}", manifest.render());
    // This benchmark defines the baseline; it claims no gain.
    let doc = json::obj([
        ("manifest", manifest),
        ("claim", Value::Null),
        ("results", Value::Obj(results)),
    ]);
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join("result.json");
    match std::fs::create_dir_all(path.parent().unwrap_or(Path::new(".")))
        .and_then(|()| std::fs::write(&path, doc.render_pretty(4)))
    {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("could not write {}: {e}", path.display());
            return 1;
        }
    }
    u8::from(any_failed)
}
