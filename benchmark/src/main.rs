//! Command line of the benchmark.
//!
//! ```text
//! quake-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//!     one workload, one pass; the last stdout line is the result object
//!     (`correct`, `attempted`, `failed`, `metrics`) the driver parses
//! quake-benchmark [--seed <n>] [--seconds <s>] [--runs <k>] [--quick]
//!     the whole suite: every workload in a child process, untraced (k
//!     times, default 1) then traced; writes benchmark/out/result.json
//! quake-benchmark compare <a.json> <b.json>
//!     per (metric, workload): medians, delta, bound, ok/regressed/unresolved
//! quake-benchmark declaration
//!     BENCHMARK.json as src/metrics.rs declares it
//! ```

use quake_benchmark::driver::{Driver, RunArgs};
use quake_benchmark::{compare, metrics, suite, workloads};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    eprintln!(
        "usage: quake-benchmark [--workload <name> --trace <0|1>] [--seed <n>] [--seconds <s>] \
         [--runs <k>] [--quick]\n       quake-benchmark compare <a.json> <b.json>\nworkloads: {}",
        metrics::workload_names().collect::<Vec<_>>().join(", ")
    );
    ExitCode::from(2)
}

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    runs: usize,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli =
        Cli { workload: None, seed: 1, seconds: None, trace: false, quick: false, runs: 1 };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} takes a value"));
        let bad = |v: &str, e: &dyn std::fmt::Display| format!("{flag} {v}: {e}");
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => cli.seed = value().and_then(|v| v.parse().map_err(|e| bad(v, &e)))?,
            "--runs" => cli.runs = value().and_then(|v| v.parse().map_err(|e| bad(v, &e)))?,
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|e| bad(v, &e))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad(v, &"expected a non-negative number"));
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v, &"expected 0 or 1")),
                }
            }
            "--quick" => cli.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match &args[1..] {
            [a, b] => ExitCode::from(compare::run(a, b)),
            _ => usage("compare takes two result files"),
        };
    }

    if args.first().map(String::as_str) == Some("declaration") {
        print!("{}", metrics::declaration().render_pretty(2));
        return ExitCode::SUCCESS;
    }

    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(msg) => return usage(&msg),
    };
    // --quick alone means "as fast as the code paths allow".
    let seconds = cli.seconds.unwrap_or(if cli.quick { 0.0 } else { suite::RUN_SECONDS });
    let (seed, quick) = (cli.seed, cli.quick);

    let Some(workload) = cli.workload else {
        let runs = cli.runs.max(1);
        return ExitCode::from(suite::run(&suite::SuiteArgs { seed, seconds, quick, runs }));
    };
    let Some(run) = workloads::by_name(&workload) else {
        return usage(&format!("unknown workload {workload}"));
    };
    let mut driver = Driver::new(RunArgs { workload, seed, seconds, trace: cli.trace, quick });
    run(&mut driver);
    driver.finish();
    ExitCode::SUCCESS
}
