//! Engine semantics under load: admission control and the drain/shutdown
//! exactly-once guarantee.

use quake_mesh::MeshingParams;
use quake_model::{ExtendedFault, LaBasinModel, PointSource};
use quake_serve::{EngineConfig, ScenarioRequest, ServeEngine, ServeError};
use quake_solver::ElasticConfig;
use std::path::PathBuf;

const EXTENT: f64 = 8_000.0;

fn small_config() -> EngineConfig {
    let mut meshing = MeshingParams::new(EXTENT, 0.4);
    meshing.min_level = 2;
    meshing.max_level = 4;
    EngineConfig::new(meshing, ElasticConfig::new(1.0))
}

fn model() -> LaBasinModel {
    LaBasinModel::scaled(400.0, EXTENT)
}

fn sources(n_strike: usize) -> Vec<PointSource> {
    ExtendedFault::northridge_like(EXTENT).discretize(n_strike, 2)
}

fn receivers() -> Vec<[f64; 3]> {
    vec![[2_000.0, 3_000.0, 0.0], [4_000.0, 4_500.0, 0.0], [6_000.0, 6_000.0, 0.0]]
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("quake-serve-tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn drain_completes_every_accepted_request_exactly_once() {
    // Kill-during-serve: flood the queue, immediately drain, and require
    // every ticket to resolve exactly once with a well-formed result.
    let mut cfg = small_config();
    cfg.workers = 3;
    let engine = ServeEngine::start(&model(), cfg).unwrap();
    let n = 12;
    let tickets: Vec<_> = (0..n)
        .map(|i| {
            // Distinct scenarios (shifted slip delay) so nothing coalesces.
            let mut s = sources(2);
            for src in &mut s {
                src.slip.delay += i as f64 * 1e-3;
            }
            engine
                .submit(ScenarioRequest::new(s, receivers()).with_steps(4))
                .expect("capacity is ample")
        })
        .collect();

    // Drain races the workers mid-serve.
    engine.drain();
    let stats = engine.stats();
    assert_eq!(stats.queued, 0, "drain left requests queued");
    assert_eq!(stats.in_flight, 0, "drain left requests in flight");
    assert_eq!(stats.served, n as u64, "accepted != served: lost or duplicated work");
    assert_eq!(stats.outstanding_cost, 0, "cost ledger did not return to zero");

    // Post-drain submits are refused, not dropped.
    assert!(matches!(
        engine.submit(ScenarioRequest::new(sources(2), receivers())),
        Err(ServeError::Stopped)
    ));

    // Every ticket resolves with a real result (channels enforce at most
    // one reply; served == n enforces at least one execution each).
    for t in tickets {
        let resp = t.wait().expect("accepted request lost during drain");
        assert_eq!(resp.result.executed_steps, 4);
        assert_eq!(resp.result.traces.len(), 3);
        assert!(resp.result.traces.iter().all(|tr| tr.n_samples() == 4));
    }

    let reg = engine.shutdown();
    assert_eq!(reg.counter("serve/cache_miss"), Some(n as u64));
}

#[test]
fn admission_rejects_on_queue_and_cost_limits() {
    let mut cfg = small_config();
    cfg.workers = 1;
    cfg.queue_capacity = 2;
    let engine = ServeEngine::start(&model(), cfg).unwrap();
    let v_elems = engine.variants()[0].n_elements;

    // Fill: one in flight + two queued, then the queue cap bites.
    let mut held = Vec::new();
    let mut rejected_queue = false;
    for i in 0..8 {
        let mut s = sources(2);
        for src in &mut s {
            src.slip.delay += i as f64 * 1e-3;
        }
        match engine.submit(ScenarioRequest::new(s, receivers()).with_steps(40)) {
            Ok(t) => held.push(t),
            Err(ServeError::QueueFull) => {
                rejected_queue = true;
                break;
            }
            Err(e) => panic!("unexpected rejection: {e}"),
        }
    }
    assert!(rejected_queue, "queue capacity 2 never produced QueueFull");
    for t in held {
        t.wait().unwrap();
    }
    engine.shutdown();

    // Cost budget: admit one 10-step run, refuse the second while the
    // first is outstanding.
    let mut cfg = small_config();
    cfg.workers = 1;
    cfg.cost_budget = v_elems * 15;
    let engine = ServeEngine::start(&model(), cfg).unwrap();
    let first = engine.submit(ScenarioRequest::new(sources(2), receivers()).with_steps(10));
    let t = match first {
        Ok(t) => t,
        Err(e) => panic!("first request should fit the budget: {e}"),
    };
    assert_eq!(t.cost(), v_elems * 10);
    let second = engine.submit(ScenarioRequest::new(sources(3), receivers()).with_steps(10));
    assert!(
        matches!(second, Err(ServeError::Overloaded { .. })),
        "second request should exceed the cost budget while the first is outstanding"
    );
    t.wait().unwrap();
    // After the backlog clears, admission reopens.
    engine.drain();
    let reg = engine.shutdown();
    assert!(reg.counter("serve/rejected_overloaded").unwrap() >= 1);
}

#[test]
fn a_cache_that_cannot_read_or_write_degrades_to_recomputes() {
    // The cache directory is replaced by a regular file after start, so
    // every entry read and every write fails (ENOTDIR). Each request must
    // still be answered from a fresh solve, bit-identical to an uncached
    // engine's, and counted as a miss.
    let dir = tmpdir("failing-cache");
    let engine = ServeEngine::start(&model(), small_config().with_cache(dir.clone(), 0)).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::write(&dir, b"not a directory").unwrap();

    let request = ScenarioRequest::new(sources(2), receivers()).with_steps(12);
    let uncached = ServeEngine::start(&model(), small_config()).unwrap();
    let reference = uncached.submit(request.clone()).unwrap().wait().unwrap();
    uncached.shutdown();

    let bits = |r: &quake_serve::ScenarioResponse| -> Vec<Vec<u64>> {
        r.result.traces.iter().map(|t| t.data.iter().map(|v| v.to_bits()).collect()).collect()
    };
    for round in 1..=2u64 {
        let resp = engine.submit(request.clone()).unwrap().wait().unwrap();
        assert!(!resp.cache_hit, "round {round}: a failing cache served a hit");
        assert_eq!(resp.key, reference.key);
        assert_eq!(bits(&resp), bits(&reference), "round {round}: traces differ");
        let stats = engine.stats();
        assert_eq!((stats.cache_misses, stats.cache_hits), (round, 0));
    }
    let reg = engine.shutdown();
    assert_eq!(reg.counter("serve/cache_miss"), Some(2));
    assert_eq!(reg.counter("serve_cache/bytes_written"), None);
    std::fs::remove_file(&dir).unwrap();
}
