//! The per-run driver every workload is written against.
//!
//! A workload is a plain function `fn(&mut Driver)` that (1) builds its
//! inputs through [`Driver::setup`] stages, (2) hands its timed repetition
//! to [`Driver::measure`], (3) verifies outputs with [`Driver::check`] and
//! (4) in a traced run fills the per-layer ledger with [`Driver::time`] and
//! [`Driver::set`]. The driver owns the clock policy: set-up stages run
//! several times and report their median; the timed repetition runs until
//! `--seconds` are used up and reports its median; a traced run alternates
//! plain and traced repetitions so the tracing overhead comes from one
//! process.

use crate::json::{self, Value};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::median;
use quake::telemetry::json::chrome_trace;
use quake::telemetry::{Registry, TraceBuffer};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Telemetry rank of the benchmark's own span track (library ranks are
/// 0..n, serve workers 1..n; this keeps the benchmark's track apart).
const BENCH_TRACK: usize = 64;
const TRACE_EVENTS: usize = 1 << 16;
/// Builds of each set-up stage per run (the median counts): at least
/// `SETUP_REPS`, and a stage that takes milliseconds is built again until
/// `SETUP_MIN_SECS` are spent on it, up to `SETUP_MAX_REPS` times.
const SETUP_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 400;
const SETUP_MIN_SECS: f64 = 0.5;

#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Shrunk sizes (every workload well under a second), same code paths.
    pub quick: bool,
}

pub struct Driver {
    args: RunArgs,
    /// The benchmark's own registry: enabled with a flight recorder in a
    /// traced run, disabled otherwise (spans then cost one branch).
    reg: Registry,
    off: Registry,
    work_dir: PathBuf,
    out_dir: PathBuf,
    setup_stages: Vec<(String, f64)>,
    plain_s: Vec<f64>,
    traced_s: Vec<f64>,
    work_units: f64,
    attempted: u64,
    failed: u64,
    ledger: BTreeMap<&'static str, f64>,
    fingerprint: Vec<(String, Value)>,
    extra_traces: Vec<TraceBuffer>,
}

impl Driver {
    pub fn new(args: RunArgs) -> Driver {
        let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let work_dir =
            out_dir.join("work").join(format!("{}-{}", args.workload, std::process::id()));
        let _ = std::fs::remove_dir_all(&work_dir);
        std::fs::create_dir_all(&work_dir).expect("benchmark/out/work is writable");
        let reg = if args.trace {
            let r = Registry::new(BENCH_TRACK);
            r.enable_trace(TRACE_EVENTS);
            r
        } else {
            Registry::disabled()
        };
        Driver {
            args,
            reg,
            off: Registry::disabled(),
            work_dir,
            out_dir,
            setup_stages: Vec::new(),
            plain_s: Vec::new(),
            traced_s: Vec::new(),
            work_units: 0.0,
            attempted: 0,
            failed: 0,
            ledger: BTreeMap::new(),
            fingerprint: Vec::new(),
            extra_traces: Vec::new(),
        }
    }

    pub fn seed(&self) -> u64 {
        self.args.seed
    }

    pub fn tracing(&self) -> bool {
        self.args.trace
    }

    /// The benchmark's registry (disabled unless tracing).
    pub fn reg(&self) -> &Registry {
        &self.reg
    }

    /// Scratch directory of this run, inside the checkout; removed at the end.
    pub fn work_dir(&self) -> &Path {
        &self.work_dir
    }

    /// `full` normally, `quick` under `--quick`.
    pub fn size<T>(&self, full: T, quick: T) -> T {
        if self.args.quick {
            quick
        } else {
            full
        }
    }

    /// One set-up stage: everything before the timed region goes through
    /// here. The stage is built several times (results dropped in between,
    /// the last one kept) and its median time is what counts, so `setup_s`
    /// — the sum over stages — does not hang on one cold first build.
    pub fn setup<T>(&mut self, stage: &str, mut build: impl FnMut() -> T) -> T {
        let (min_reps, max_reps) = self.size((SETUP_REPS, SETUP_MAX_REPS), (1, 1));
        let mut times = Vec::with_capacity(max_reps);
        let mut last = None;
        while times.len() < min_reps
            || (times.len() < max_reps && times.iter().sum::<f64>() < SETUP_MIN_SECS)
        {
            drop(last.take());
            let (v, secs) = self.time(&format!("setup/{stage}"), &mut build);
            times.push(secs);
            last = Some(v);
        }
        self.setup_stages.push((stage.to_string(), median(&times)));
        last.expect("at least one set-up repetition")
    }

    /// The timed region. `prepare` runs before every repetition, untimed
    /// (e.g. emptying a checkpoint directory); `solve` is one repetition and
    /// receives the registry to record into — disabled for plain
    /// repetitions, the benchmark's own for traced ones. Repeats until
    /// `--seconds` are spent (at least three plain repetitions; in a traced
    /// run at least two of each kind, alternating).
    pub fn measure<T>(
        &mut self,
        mut prepare: impl FnMut(),
        mut solve: impl FnMut(&Registry) -> T,
    ) -> T {
        let min_reps = match (self.args.quick, self.args.trace) {
            (true, false) => 1,
            (true, true) => 2,
            (false, false) => 3,
            (false, true) => 4,
        };
        let t_start = Instant::now();
        let mut last = None;
        let mut rep = 0;
        // A traced run ends on a traced repetition, so the output handed
        // back carries whatever the library's traced variant returns.
        while rep < min_reps
            || t_start.elapsed().as_secs_f64() < self.args.seconds
            || (self.args.trace && rep % 2 == 1)
        {
            drop(last.take());
            prepare();
            let traced = self.args.trace && rep % 2 == 1;
            let reg = if traced { &self.reg } else { &self.off };
            let span = reg.span("solve");
            let t0 = Instant::now();
            let out = solve(reg);
            let secs = t0.elapsed().as_secs_f64();
            drop(span);
            if traced { &mut self.traced_s } else { &mut self.plain_s }.push(secs);
            last = Some(out);
            rep += 1;
            self.attempted += 1;
        }
        last.expect("at least one repetition")
    }

    /// The work one repetition does, in element updates (or the workload's
    /// equivalent; see README): the numerator of `element_updates_per_s`.
    pub fn work_per_rep(&mut self, units: f64) {
        self.work_units = units;
    }

    /// Median build time of a set-up stage that already ran.
    pub fn stage_s(&self, stage: &str) -> f64 {
        self.setup_stages.iter().find(|(name, _)| name == stage).map_or(0.0, |(_, secs)| *secs)
    }

    /// Median time of one plain repetition.
    pub fn wall_s(&self) -> f64 {
        median(&self.plain_s)
    }

    /// An output check. Counts as one attempted operation.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED [{}]: {what}", self.args.workload);
        }
    }

    /// Count operations (e.g. served requests) and how many of them failed.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Time `f` under a span of the benchmark's registry; returns the
    /// result and the elapsed seconds.
    pub fn time<T>(&self, span: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let _s = self.reg.span(span);
        let t0 = Instant::now();
        let v = f();
        (v, t0.elapsed().as_secs_f64())
    }

    /// Median seconds of `f` over `reps` calls, under one span.
    pub fn time_median(&self, span: &str, reps: usize, mut f: impl FnMut()) -> f64 {
        let _s = self.reg.span(span);
        let times: Vec<f64> = (0..reps)
            .map(|_| {
                let t0 = Instant::now();
                f();
                t0.elapsed().as_secs_f64()
            })
            .collect();
        median(&times)
    }

    /// Record a per-layer metric. Only declared names are accepted.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "per-layer metric {name} is not declared in metrics.rs"
        );
        self.ledger.insert(name, value);
    }

    /// Total seconds the benchmark registry saw under `span`, per traced
    /// repetition (0 if the span never ran).
    pub fn span_secs_per_traced_rep(&self, span: &str) -> f64 {
        let n = self.traced_s.len().max(1) as f64;
        self.reg.span_stats(span).map_or(0.0, |s| s.total_secs() / n)
    }

    /// One field of the run's input fingerprint (mesh sizes, dt, steps).
    pub fn describe(&mut self, key: &str, value: f64) {
        self.fingerprint.push((key.to_string(), json::num(value)));
    }

    /// Per-rank flight-recorder buffers a library call returned, merged
    /// into this run's trace file.
    pub fn add_traces(&mut self, traces: Vec<TraceBuffer>) {
        self.extra_traces.extend(traces);
    }

    /// Print every metric by name with its unit, write the trace file of a
    /// traced run, clean the scratch directory, and print the two result
    /// lines: `detail {...}` for the suite (adds the input fingerprint and
    /// sample counts) and, last, the object with exactly the four keys the
    /// driver parses.
    pub fn finish(mut self) {
        let wall = self.wall_s();
        let setup_s: f64 = self.setup_stages.iter().map(|(_, s)| s).sum();
        let mut metrics: Vec<(String, Value)> = Vec::new();
        let mut push = |name: &str, value: f64, unit: &str| {
            println!("{name:<40} {value:>16.6} {unit}");
            metrics.push((
                name.to_string(),
                json::obj([("value", json::num(value)), ("unit", json::text(unit))]),
            ));
        };
        if self.args.trace {
            let overhead = (median(&self.traced_s) / wall - 1.0) * 100.0;
            self.ledger.insert("telemetry.traced_overhead_pct", overhead);
            self.ledger.insert("bench.reps", self.plain_s.len() as f64);
            for m in PER_LAYER {
                push(m.name, self.ledger.get(m.name).copied().unwrap_or(0.0), m.unit);
            }
        } else {
            for m in END_TO_END {
                let value = match m.name {
                    "setup_s" => setup_s,
                    "wall_s" => wall,
                    "element_updates_per_s" => self.work_units / wall,
                    "peak_rss_mb" => peak_rss_mb(),
                    other => unreachable!("end-to-end metric {other} has no source"),
                };
                push(m.name, value, m.unit);
            }
        }
        for (stage, secs) in &self.setup_stages {
            println!("  setup stage {stage:<27} {secs:>16.6} s");
        }
        println!(
            "  repetitions: plain {:.3?} s, traced {:.3?} s; attempted {}, failed {}",
            self.plain_s, self.traced_s, self.attempted, self.failed
        );

        if self.args.trace {
            let mut buffers = vec![self.reg.trace_buffer()];
            buffers.append(&mut self.extra_traces);
            let path = self.out_dir.join(format!("trace_{}.json", self.args.workload));
            match std::fs::write(&path, chrome_trace(&buffers)) {
                Ok(()) => println!("  trace: {}", path.display()),
                Err(e) => eprintln!("could not write {}: {e}", path.display()),
            }
        }
        let _ = std::fs::remove_dir_all(&self.work_dir);

        let all_finite = metrics
            .iter()
            .all(|(_, m)| m.get("value").and_then(Value::as_f64).is_some_and(f64::is_finite));
        let mut result = vec![
            ("correct".to_string(), Value::Bool(self.failed == 0 && all_finite)),
            ("attempted".to_string(), json::num(self.attempted as f64)),
            ("failed".to_string(), json::num(self.failed as f64)),
            ("metrics".to_string(), Value::Obj(metrics)),
        ];
        let strict = Value::Obj(result.clone()).render();
        result.push(("fingerprint".to_string(), Value::Obj(self.fingerprint)));
        result.push((
            "samples".to_string(),
            json::obj([
                ("plain_reps", json::num(self.plain_s.len() as f64)),
                ("traced_reps", json::num(self.traced_s.len() as f64)),
            ]),
        ));
        println!("detail {}", Value::Obj(result).render());
        println!("{strict}");
    }
}

/// `VmHWM` of this process in MB (0 where /proc is unavailable).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
