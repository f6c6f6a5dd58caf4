//! The serving engine's correctness anchor: a served scenario is
//! **bit-identical** to a direct `quake_core::ForwardRun` of the same
//! scenario — uncached (computed by a worker on reused scratch) and cached
//! (replayed from the content-addressed store) alike.

use quake_core::forward::{northridge_scenario, ForwardRun};
use quake_serve::{EngineConfig, ScenarioRequest, ServeEngine};
use std::path::PathBuf;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("quake-serve-tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn served_traces_match_forward_run_bit_for_bit_cold_and_cached() {
    // The direct pipeline, exactly as quake-core drives it.
    let (model, mut scenario) = northridge_scenario(8_000.0, 0.4, 400.0, 2.5, 3);
    scenario.meshing.min_level = 2;
    scenario.meshing.max_level = 4;
    let direct = ForwardRun::new(&model, &scenario).execute().unwrap();

    // The same scenario through the engine.
    let dir = tmpdir("equiv");
    let cfg = EngineConfig::new(scenario.meshing, scenario.solve).with_cache(dir.clone(), 0);
    let engine = ServeEngine::start(&model, cfg).unwrap();

    // Sanity: the engine's variant meshed the same domain.
    let v = &engine.variants()[0];
    assert_eq!(v.mesh.n_nodes(), direct.mesh.n_nodes());
    assert_eq!(v.n_steps, direct.result.n_steps as u64);
    assert_eq!(v.dt.to_bits(), direct.result.dt.to_bits());

    let sources = scenario.fault.discretize(scenario.n_subfaults.0, scenario.n_subfaults.1);
    let request = ScenarioRequest::new(sources, scenario.receivers.clone());

    // Cold: computed by a worker on reused scratch.
    let cold = engine.submit(request.clone()).unwrap().wait().unwrap();
    assert!(!cold.cache_hit);
    assert_eq!(cold.result.executed_steps, direct.result.n_steps as u64);
    assert_eq!(cold.result.traces.len(), direct.result.seismograms.len());
    for (a, b) in cold.result.traces.iter().zip(&direct.result.seismograms) {
        assert_eq!(a.dt.to_bits(), b.dt.to_bits());
        assert_eq!(a.data.len(), b.data.len());
        for (x, y) in a.data.iter().zip(&b.data) {
            assert_eq!(x.to_bits(), y.to_bits(), "served trace diverged from ForwardRun");
        }
    }

    // Warm: replayed from the content-addressed store, still bit-identical.
    let warm = engine.submit(request).unwrap().wait().unwrap();
    assert!(warm.cache_hit, "second submit of the identical request must hit the cache");
    assert_eq!(warm.key, cold.key);
    for (a, b) in warm.result.traces.iter().zip(&direct.result.seismograms) {
        assert_eq!(a.data.len(), b.data.len());
        for (x, y) in a.data.iter().zip(&b.data) {
            assert_eq!(x.to_bits(), y.to_bits(), "cached replay diverged from ForwardRun");
        }
    }

    // A permuted-source resubmission shares the cache entry (canonical
    // addressing) without having been executed in permuted order.
    let sources2 = {
        let mut s = scenario.fault.discretize(scenario.n_subfaults.0, scenario.n_subfaults.1);
        s.reverse();
        s
    };
    let permuted = engine
        .submit(ScenarioRequest::new(sources2, scenario.receivers.clone()))
        .unwrap()
        .wait()
        .unwrap();
    assert!(permuted.cache_hit, "permuted-equal request must share the cache entry");
    assert_eq!(permuted.key, cold.key);

    let reg = engine.shutdown();
    assert_eq!(reg.counter("serve/cache_miss"), Some(1));
    assert_eq!(reg.counter("serve/cache_hit"), Some(2));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn uncached_engine_recomputes_and_still_matches() {
    let (model, mut scenario) = northridge_scenario(8_000.0, 0.4, 400.0, 1.5, 2);
    scenario.meshing.min_level = 2;
    scenario.meshing.max_level = 4;
    let direct = ForwardRun::new(&model, &scenario).execute().unwrap();

    // No cache directory: every submit recomputes on worker scratch.
    let engine =
        ServeEngine::start(&model, EngineConfig::new(scenario.meshing, scenario.solve)).unwrap();
    let sources = scenario.fault.discretize(scenario.n_subfaults.0, scenario.n_subfaults.1);
    for round in 0..2 {
        let resp = engine
            .submit(ScenarioRequest::new(sources.clone(), scenario.receivers.clone()))
            .unwrap()
            .wait()
            .unwrap();
        assert!(!resp.cache_hit, "round {round}: no cache configured");
        for (a, b) in resp.result.traces.iter().zip(&direct.result.seismograms) {
            for (x, y) in a.data.iter().zip(&b.data) {
                assert_eq!(x.to_bits(), y.to_bits(), "round {round} diverged");
            }
        }
    }
}
