//! Serving-throughput benchmark: the `quake-serve` engine under a
//! closed-loop ensemble workload.
//!
//! Builds one engine (shared mesh, prebuilt per-worker solvers, a fresh
//! result cache) and drives the same N-member scenario ensemble through it
//! twice:
//!
//! - **cold**: every request misses the cache and is computed by a worker
//!   on its preallocated scratch,
//! - **warm**: the identical ensemble is resubmitted; every request must
//!   replay from the content-addressed store (`cache_hit_ratio == 1.0`).
//!
//! Reported per pass: requests/sec, p50/p99 ticket latency (submit to
//! reply), cache-hit ratio, and the cold pass's measured element-update
//! throughput (the admission knob's calibration number). The cold/warm
//! requests/sec ratio is the cache speedup.
//!
//! Gates (CI runs `--smoke --check`):
//! - both passes completed every request (none lost, none rejected),
//! - `requests_per_sec > 0` in both passes,
//! - warm `cache_hit_ratio == 1.0` and cold `== 0.0`,
//! - warm/cold speedup ≥ 5x (the cache must beat recomputation soundly),
//! - a warm trace bit-matches its cold counterpart (replay integrity).
//!
//! Outputs: the full run writes `BENCH_serve.json` at the repo root;
//! `--smoke` prints the JSON to stdout instead. Both modes dump the merged
//! engine registry (engine spans + all worker counters/histograms) as
//! NDJSON to `target/BENCH_serve_trace.ndjson`.

use quake_bench::Args;
use quake_mesh::MeshingParams;
use quake_model::{ExtendedFault, LaBasinModel};
use quake_serve::{EngineConfig, ScenarioRequest, ServeEngine, Ticket};
use quake_solver::ElasticConfig;
use std::time::Instant;

struct PassStats {
    secs: f64,
    served: usize,
    hits: u64,
    misses: u64,
    p50_ms: f64,
    p99_ms: f64,
}

impl PassStats {
    fn rps(&self) -> f64 {
        self.served as f64 / self.secs
    }

    fn hit_ratio(&self) -> f64 {
        let n = self.hits + self.misses;
        if n == 0 {
            0.0
        } else {
            self.hits as f64 / n as f64
        }
    }
}

/// Submit the whole ensemble, wait for every ticket, measure per-request
/// latency client-side (submit -> reply).
fn run_pass(
    engine: &ServeEngine,
    requests: &[ScenarioRequest],
    hits_before: (u64, u64),
) -> (PassStats, Vec<quake_serve::CachedResult>) {
    let t0 = Instant::now();
    let submitted: Vec<(Ticket, Instant)> = requests
        .iter()
        .map(|r| {
            (engine.submit(r.clone()).expect("bench queue sized for the ensemble"), Instant::now())
        })
        .collect();
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(submitted.len());
    let mut results = Vec::with_capacity(submitted.len());
    for (t, at) in submitted {
        let resp = t.wait().expect("no worker may die mid-bench");
        latencies_ms.push(at.elapsed().as_secs_f64() * 1e3);
        results.push(resp.result);
    }
    let secs = t0.elapsed().as_secs_f64();
    latencies_ms.sort_by(|a, b| a.total_cmp(b));
    let q = |p: f64| latencies_ms[((latencies_ms.len() - 1) as f64 * p).round() as usize];
    let stats = engine.stats();
    (
        PassStats {
            secs,
            served: results.len(),
            hits: stats.cache_hits - hits_before.0,
            misses: stats.cache_misses - hits_before.1,
            p50_ms: q(0.50),
            p99_ms: q(0.99),
        },
        results,
    )
}

fn main() {
    let args = Args::parse(&["--smoke", "--check"], &[]);
    let (smoke, check) = (args.flag("--smoke"), args.flag("--check"));

    // Smoke: a coarse 8 km basin, short runs — seconds total. Full: finer
    // mesh and full-duration members for a steady-state-like workload.
    let extent = 8_000.0;
    let (max_level, duration, n_members, n_steps, workers) =
        if smoke { (4, 1.0, 8, Some(12), 2) } else { (5, 4.0, 24, None, 4) };
    let model = LaBasinModel::scaled(400.0, extent);
    let mut meshing = MeshingParams::new(extent, 0.4);
    meshing.min_level = 2;
    meshing.max_level = max_level;

    let cache_dir = std::env::temp_dir()
        .join("quake-serve-bench")
        .join(format!("cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let mut cfg =
        EngineConfig::new(meshing, ElasticConfig::new(duration)).with_cache(cache_dir.clone(), 0);
    cfg.workers = workers;
    cfg.queue_capacity = 4 * n_members;

    let t_build = Instant::now();
    let engine = ServeEngine::start(&model, cfg).expect("cache dir is writable");
    let build_secs = t_build.elapsed().as_secs_f64();
    let (n_elements, dt, full_steps) = {
        let v = &engine.variants()[0];
        (v.n_elements, v.dt, v.n_steps)
    };
    let member_steps = n_steps.map_or(full_steps, |b: u64| b.min(full_steps));
    println!(
        "engine: {n_elements} elements / {workers} workers, dt = {dt:.4}, \
         {member_steps} steps/member, built in {build_secs:.2}s"
    );

    // The ensemble: one extended fault, members varying rupture timing —
    // the hazard-sweep shape (distinct content keys, one shared layout).
    let receivers: Vec<[f64; 3]> = (0..6)
        .map(|i| {
            let t = (i as f64 + 0.5) / 6.0;
            [extent * t, extent * (0.25 + 0.5 * t), 0.0]
        })
        .collect();
    let requests: Vec<ScenarioRequest> = (0..n_members)
        .map(|i| {
            let mut s = ExtendedFault::northridge_like(extent).discretize(3, 2);
            for src in &mut s {
                src.slip.delay += i as f64 * 0.02;
            }
            let r = ScenarioRequest::new(s, receivers.clone());
            match n_steps {
                Some(b) => r.with_steps(b),
                None => r,
            }
        })
        .collect();

    let (cold, cold_results) = run_pass(&engine, &requests, (0, 0));
    println!(
        "cold : {:>7.2} req/s  p50 {:>8.2} ms  p99 {:>8.2} ms  hit ratio {:.2}",
        cold.rps(),
        cold.p50_ms,
        cold.p99_ms,
        cold.hit_ratio()
    );
    let (warm, warm_results) = run_pass(&engine, &requests, (cold.hits, cold.misses));
    println!(
        "warm : {:>7.2} req/s  p50 {:>8.2} ms  p99 {:>8.2} ms  hit ratio {:.2}",
        warm.rps(),
        warm.p50_ms,
        warm.p99_ms,
        warm.hit_ratio()
    );
    let speedup = warm.rps() / cold.rps();
    println!("cache speedup: {speedup:.1}x requests/s (warm vs cold)");

    // Replay integrity: the warm pass served the same bits the cold pass
    // computed.
    let mut replay_identical = true;
    'outer: for (a, b) in warm_results.iter().zip(&cold_results) {
        for (ta, tb) in a.traces.iter().zip(&b.traces) {
            if ta.data.len() != tb.data.len()
                || ta.data.iter().zip(&tb.data).any(|(x, y)| x.to_bits() != y.to_bits())
            {
                replay_identical = false;
                break 'outer;
            }
        }
    }

    let reg = engine.shutdown();
    let update_rate = ServeEngine::measured_update_rate(&reg).unwrap_or(0.0);
    println!("measured element-update rate (median worker): {update_rate:.3e} updates/s");

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"mesh_elements\": {n_elements},\n"));
    json.push_str(&format!("  \"workers\": {workers},\n"));
    json.push_str(&format!("  \"ensemble_members\": {n_members},\n"));
    json.push_str(&format!("  \"steps_per_member\": {member_steps},\n"));
    json.push_str(&format!("  \"engine_build_secs\": {build_secs:.3},\n"));
    json.push_str(&format!(
        "  \"cold\": {{ \"requests_per_sec\": {:.3}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \
         \"cache_hit_ratio\": {:.4} }},\n",
        cold.rps(),
        cold.p50_ms,
        cold.p99_ms,
        cold.hit_ratio()
    ));
    json.push_str(&format!(
        "  \"warm\": {{ \"requests_per_sec\": {:.3}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \
         \"cache_hit_ratio\": {:.4} }},\n",
        warm.rps(),
        warm.p50_ms,
        warm.p99_ms,
        warm.hit_ratio()
    ));
    json.push_str(&format!("  \"cache_speedup\": {speedup:.3},\n"));
    json.push_str(&format!("  \"replay_bit_identical\": {replay_identical},\n"));
    json.push_str(&format!("  \"element_updates_per_sec\": {update_rate:.1}\n"));
    json.push_str("}\n");

    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let trace_path = format!("{root}/target/BENCH_serve_trace.ndjson");
    let _ = std::fs::create_dir_all(format!("{root}/target"));
    std::fs::write(&trace_path, reg.ndjson()).expect("write NDJSON trace");
    println!("\nwrote {trace_path}");
    if smoke {
        println!("\n{json}");
        println!("smoke mode: committed JSON not written");
    } else {
        let p = format!("{root}/BENCH_serve.json");
        std::fs::write(&p, &json).expect("write BENCH_serve.json");
        println!("wrote {p}");
    }
    let _ = std::fs::remove_dir_all(&cache_dir);

    if check {
        assert_eq!(cold.served, n_members, "cold pass lost requests");
        assert_eq!(warm.served, n_members, "warm pass lost requests");
        assert!(cold.rps() > 0.0 && warm.rps() > 0.0, "degenerate requests/sec");
        assert_eq!(cold.hit_ratio(), 0.0, "cold pass must start from an empty cache");
        assert_eq!(
            warm.hit_ratio(),
            1.0,
            "warm pass must be pure cache replay (hit ratio {})",
            warm.hit_ratio()
        );
        assert!(replay_identical, "cached replay diverged from the computed results");
        assert!(speedup >= 5.0, "cache speedup {speedup:.1}x is below the 5x acceptance bar");
        println!("check: all serving gates passed");
    }
}
