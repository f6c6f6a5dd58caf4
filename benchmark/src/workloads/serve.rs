//! `serve_mixed`: a closed-loop request stream through `quake::serve` — the
//! queue, the worker pool, per-request source assembly and the result cache
//! with writes beside reads. The forward workloads bypass all of it.
//!
//! Closed loop, two clients, one outstanding request each (hazard sweeps
//! wait for replies). `ServeEngine` is not `Sync`, so one generator thread
//! submits for both clients; each client's ticket is waited on by its own
//! thread, which stamps the reply the moment it arrives. It builds no
//! queue, so queueing claims need a later open-loop workload.

use super::{
    bits_equal, epicentral_ring, gaussian_pulse, kernel_rate, probe_model, MeshFacts, Rng,
};
use crate::driver::Driver;
use crate::stats::{median, percentile};
use quake::mesh::MeshingParams;
use quake::model::{ExtendedFault, LaBasinModel};
use quake::serve::{
    run_scenario, CachedResult, EngineConfig, RequestKey, ResultCache, ScenarioRequest,
    ScenarioResponse, ServeEngine, ServeScratch, Ticket,
};
use quake::solver::{ElasticConfig, ElasticSolver};
use quake::telemetry::Registry;
use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::sync::mpsc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;

struct Sample {
    client: usize,
    /// Position in the client's stream.
    pos: usize,
    submitted: Instant,
    submit: Duration,
    /// `None`: refused at submit or lost by its worker.
    reply: Option<(Duration, ScenarioResponse)>,
}

/// One client's stream for one block: `n` distinct scenarios interleaved
/// with `n` repeats. A repeat names a scenario the same client already got
/// a reply for, so it is a guaranteed cache hit. `Some(j)` = repeat of the
/// request at position `j`.
struct Stream {
    requests: Vec<ScenarioRequest>,
    repeats: Vec<Option<usize>>,
}

/// A new member of the ensemble: the rupture delayed by a seeded amount of
/// microseconds. The delay grows strictly with the serial number, so every
/// member of the run is distinct and a "cold" request can never hit an
/// entry an earlier block wrote; it stays far below the run's duration.
fn member(rng: &mut Rng, plan: &Plan<'_>) -> ScenarioRequest {
    let id = plan.serial.get();
    plan.serial.set(id + 1);
    let delay = 1e-6 * (id as f64 + 0.5 * rng.unit());
    let mut sources = ExtendedFault::northridge_like(plan.extent).discretize(3, 2);
    for src in &mut sources {
        src.slip.delay += delay;
    }
    ScenarioRequest::new(sources, plan.receivers.to_vec()).with_steps(plan.steps)
}

/// What every request of the run shares.
struct Plan<'a> {
    extent: f64,
    steps: u64,
    receivers: &'a [[f64; 3]],
    serial: Cell<u64>,
}

fn stream(rng: &mut Rng, n: usize, plan: &Plan<'_>) -> Stream {
    let mut s = Stream { requests: Vec::new(), repeats: Vec::new() };
    let mut cold_positions: Vec<usize> = Vec::new();
    for k in 0..n {
        cold_positions.push(s.requests.len());
        s.requests.push(member(rng, plan));
        s.repeats.push(None);
        // From the second scenario on, each new one is followed by a repeat
        // of an earlier one (two after the last, so the counts are equal).
        let n_repeats = match k {
            0 if n == 1 => 1,
            0 => 0,
            _ if k + 1 == n => 2,
            _ => 1,
        };
        for _ in 0..n_repeats {
            let earlier = cold_positions[(rng.next_u64() % k.max(1) as u64) as usize];
            s.requests.push(s.requests[earlier].clone());
            s.repeats.push(Some(earlier));
        }
    }
    s
}

/// Drive one block through the engine; returns the samples and the makespan.
fn run_block(engine: &ServeEngine, streams: &[Stream]) -> (Vec<Sample>, Duration) {
    std::thread::scope(|scope| {
        let (done_tx, done_rx) = mpsc::channel::<Sample>();
        let mut to_waiter = Vec::new();
        for _ in streams {
            let (tx, rx) = mpsc::channel::<(Ticket, Sample)>();
            to_waiter.push(tx);
            let done_tx = done_tx.clone();
            scope.spawn(move || {
                for (ticket, mut sample) in rx {
                    let reply = ticket.wait().ok();
                    sample.reply = reply.map(|r| (sample.submitted.elapsed(), r));
                    if done_tx.send(sample).is_err() {
                        break;
                    }
                }
            });
        }
        let t0 = Instant::now();
        let mut samples = Vec::new();
        // Send the client's next request, from `pos` on: a refused one is
        // recorded as a failure and the client moves on. Returns how many
        // requests this put in flight (1, or 0 at the end of the stream).
        let advance = |client: usize, pos: usize, samples: &mut Vec<Sample>| -> usize {
            for pos in pos..streams[client].requests.len() {
                let submitted = Instant::now();
                let ticket = engine.submit(streams[client].requests[pos].clone());
                let sample =
                    Sample { client, pos, submitted, submit: submitted.elapsed(), reply: None };
                match ticket {
                    Ok(t) => {
                        to_waiter[client]
                            .send((t, sample))
                            .expect("waiter thread lives until its channel is dropped");
                        return 1;
                    }
                    Err(_) => samples.push(sample),
                }
            }
            0
        };
        let mut in_flight = 0;
        for client in 0..streams.len() {
            in_flight += advance(client, 0, &mut samples);
        }
        while in_flight > 0 {
            let done = done_rx.recv().expect("waiter threads outlive the block");
            in_flight -= 1;
            let (client, pos) = (done.client, done.pos);
            samples.push(done);
            in_flight += advance(client, pos + 1, &mut samples);
        }
        let makespan = t0.elapsed();
        drop(to_waiter);
        (samples, makespan)
    })
}

fn traces_equal(a: &CachedResult, b: &CachedResult) -> bool {
    a.traces.len() == b.traces.len()
        && a.traces.iter().zip(&b.traces).all(|(x, y)| bits_equal(&x.data, &y.data))
}

pub fn serve_mixed(d: &mut Driver) {
    let extent = 8_000.0;
    let steps: u64 = d.size(24, 6);
    let per_client: usize = d.size(20, 2);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get()).min(2);

    // ---- set-up: model -> engine (mesh + workers) -> one warm-up request,
    // so every worker has built its solver before the clock starts ----
    let model = d.setup("model", || LaBasinModel::scaled(400.0, extent));
    let mut meshing = MeshingParams::new(extent, 0.4);
    meshing.min_level = 2;
    meshing.max_level = d.size(5, 3);
    let receivers = epicentral_ring(&ExtendedFault::northridge_like(extent), extent);
    let plan = Plan { extent, steps, receivers: &receivers, serial: Cell::new(0) };
    let mut rng = Rng::new(d.seed(), 5);
    let cache_root = d.work_dir().join("cache");
    let engines_built = Cell::new(0);
    let config = |cache: std::path::PathBuf| {
        let mut cfg = EngineConfig::new(meshing, ElasticConfig::new(4.0)).with_cache(cache, 0);
        cfg.workers = workers;
        cfg
    };
    let engine = d.setup("engine", || {
        engines_built.set(engines_built.get() + 1);
        let dir = cache_root.join(format!("engine-{}", engines_built.get()));
        let engine = ServeEngine::start(&model, config(dir)).expect("cache directory is writable");
        // Workers build their solvers as they start; a reply proves it done.
        let tickets: Vec<Ticket> =
            (0..workers).filter_map(|_| engine.submit(member(&mut rng, &plan)).ok()).collect();
        for t in tickets {
            let _ = t.wait();
        }
        engine
    });
    let variant = &engine.variants()[0];
    let facts = MeshFacts::of(&variant.mesh);
    facts.describe(d, variant.dt, steps as usize);
    d.describe("workers", workers as f64);
    d.describe("clients", CLIENTS as f64);
    d.describe("requests_per_block", (2 * per_client * CLIENTS) as f64);

    // ---- timed: one block = every client's stream, start to last reply ----
    let stats_before = engine.stats();
    let mut all: Vec<Sample> = Vec::new();
    let mut busy = Duration::ZERO;
    let mut makespans = Duration::ZERO;
    // The streams of the block being served (and, afterwards, of the last).
    let block: RefCell<Vec<Stream>> = RefCell::new(Vec::new());
    let cold_updates = (variant.n_elements * steps) as f64 * (per_client * CLIENTS) as f64;
    d.work_per_rep(cold_updates);
    d.measure(
        || {
            *block.borrow_mut() =
                (0..CLIENTS).map(|_| stream(&mut rng, per_client, &plan)).collect();
        },
        |reg: &Registry| {
            let (samples, makespan) = run_block(&engine, &block.borrow());
            makespans += makespan;
            let (cold_id, hit_id) = (reg.span_id("request/cold"), reg.span_id("request/hit"));
            for s in &samples {
                if let Some((latency, resp)) = &s.reply {
                    busy += Duration::from_secs_f64(resp.exec_secs);
                    let id = if resp.cache_hit { hit_id } else { cold_id };
                    reg.record_span(id, reg.since_epoch_ns(s.submitted), latency.as_nanos() as u64);
                }
            }
            all.extend(samples);
        },
    );

    // ---- output checks ----
    let last_block = block.into_inner();
    let stats = engine.stats();
    let requests = all.len() as u64;
    let unanswered = all.iter().filter(|s| s.reply.is_none()).count() as u64;
    d.count(requests, unanswered);
    d.check(
        "every request answered exactly once",
        stats.served - stats_before.served == requests - unanswered,
    );
    let kind_ok = |s: &Sample, block: &[Stream]| {
        s.reply
            .as_ref()
            .is_some_and(|(_, r)| r.cache_hit == block[s.client].repeats[s.pos].is_some())
    };
    // Hit/miss flags of every block's replies were produced against that
    // block's streams; only the last block's streams are still around, so
    // the flag check covers all blocks through the engine's own counters.
    d.check(
        "repeats hit, new scenarios miss",
        stats.cache_hits - stats_before.cache_hits == requests / 2
            && stats.cache_misses - stats_before.cache_misses == requests / 2,
    );
    let block_len: usize = last_block.iter().map(|s| s.requests.len()).sum();
    let last = &all[all.len() - block_len..];
    let reply_of = |client: usize, pos: usize| {
        last.iter()
            .find(|s| s.client == client && s.pos == pos)
            .and_then(|s| s.reply.as_ref())
            .map(|(_, r)| &r.result)
    };
    d.check("last block: flags match the stream", last.iter().all(|s| kind_ok(s, &last_block)));
    d.check(
        "last block: every hit is bit-identical to its cold reply",
        last.iter().all(|s| match last_block[s.client].repeats[s.pos] {
            None => true,
            Some(earlier) => match (reply_of(s.client, s.pos), reply_of(s.client, earlier)) {
                (Some(hit), Some(cold)) => traces_equal(hit, cold),
                _ => false,
            },
        }),
    );
    // One sampled cold reply against the solver called directly.
    let solver = ElasticSolver::new(&variant.mesh, &ElasticConfig::new(4.0));
    let mut scratch = ServeScratch::for_solver(&solver, receivers.len());
    let sampled = &last_block[0].requests[0];
    let direct = |scratch: &mut ServeScratch| {
        run_scenario(
            &solver,
            &variant.tree,
            &sampled.sources,
            &sampled.receivers,
            sampled.n_steps,
            scratch,
        )
    };
    let direct_result = direct(&mut scratch);
    d.check(
        "sampled cold reply bit-identical to direct run_scenario",
        reply_of(0, 0).is_some_and(|served| {
            traces_equal(served, &direct_result)
                && served.traces.iter().all(|t| t.data.iter().all(|v| v.is_finite()))
                && served.traces.iter().any(|t| t.data.iter().any(|v| *v != 0.0))
        }),
    );

    if !d.tracing() {
        return;
    }

    // ---- per-layer ledger ----
    facts.record(d);
    let ms = |x: &Duration| x.as_secs_f64() * 1e3;
    let replies = || all.iter().filter_map(|s| s.reply.as_ref());
    let cold: Vec<f64> = replies().filter(|(_, r)| !r.cache_hit).map(|(l, _)| ms(l)).collect();
    let hit: Vec<f64> = replies().filter(|(_, r)| r.cache_hit).map(|(l, _)| ms(l)).collect();
    let service: Vec<f64> =
        replies().filter(|(_, r)| !r.cache_hit).map(|(_, r)| r.exec_secs * 1e3).collect();
    let queue_wait: Vec<f64> =
        replies().filter(|(_, r)| !r.cache_hit).map(|(l, r)| ms(l) - r.exec_secs * 1e3).collect();
    let rates: Vec<f64> = replies()
        .filter(|(_, r)| !r.cache_hit)
        .map(|(_, r)| r.result.element_updates as f64 / r.exec_secs)
        .collect();
    let submits: Vec<f64> = all.iter().map(|s| s.submit.as_secs_f64() * 1e6).collect();
    d.set("serve.latency_samples", cold.len().min(hit.len()) as f64);
    d.set("serve.latency_cold_p50_ms", median(&cold));
    d.set("serve.latency_cold_p90_ms", percentile(&cold, 0.9));
    d.set("serve.latency_hit_p50_ms", median(&hit));
    d.set("serve.latency_hit_p90_ms", percentile(&hit, 0.9));
    d.set("serve.service_ms_p50", median(&service));
    d.set("serve.queue_wait_ms_p50", median(&queue_wait));
    d.set("serve.cold_updates_per_s", median(&rates));
    d.set("serve.submit_us", median(&submits));
    d.set("serve.requests_per_s", block_len as f64 / d.wall_s());
    d.set(
        "serve.worker_busy_share",
        busy.as_secs_f64() / (workers as f64 * makespans.as_secs_f64()),
    );
    let (hits, misses) = (
        stats.cache_hits - stats_before.cache_hits,
        stats.cache_misses - stats_before.cache_misses,
    );
    d.set("serve.cache_hit_ratio", hits as f64 / (hits + misses).max(1) as f64);
    d.set("serve.rejected", (stats.rejected - stats_before.rejected) as f64);

    // serve: the pieces, called directly.
    let run_scenario_s = d.time_median("serve/run_scenario", 3, || {
        black_box(direct(&mut scratch));
    });
    d.set("serve.run_scenario_ms", run_scenario_s * 1e3);
    d.set(
        "serve.engine_overhead_pct",
        (median(&cold) - run_scenario_s * 1e3) / (run_scenario_s * 1e3) * 100.0,
    );
    let key_s = d.time_median("serve/request.key", 1000, || {
        black_box(sampled.key(variant.fingerprint, steps));
    });
    d.set("serve.request_key_us", key_s * 1e6);
    {
        // The result cache on its own, on the checkout's filesystem (its
        // medium decides these two numbers).
        let off = Registry::disabled();
        let cache =
            ResultCache::open(&cache_root.join("direct"), 0).expect("cache directory is writable");
        let keys: Vec<RequestKey> = (0..32u64).map(|i| RequestKey::of(&i.to_le_bytes())).collect();
        let mut k = keys.iter();
        let put_s = d.time_median("serve/cache.put", keys.len(), || {
            if let Some(key) = k.next() {
                cache.put(key, &direct_result, &off).expect("cache entry written");
            }
        });
        let mut k = keys.iter();
        let get_s = d.time_median("serve/cache.get", keys.len(), || {
            black_box(k.next().and_then(|key| cache.get(key, &off)));
        });
        d.set("serve.cache_put_ms", put_s * 1e3);
        d.set("serve.cache_get_ms", get_s * 1e3);
        d.set("serve.cache_entry_bytes", cache.total_bytes() as f64 / cache.len().max(1) as f64);
    }
    let (started, start_s) = d.time("serve/ServeEngine.start", || {
        ServeEngine::start(&model, config(cache_root.join("start-only")))
    });
    drop(started);
    d.set("serve.engine_start_s", start_s);

    // model + solver: the same probes as the forward workloads, on this
    // engine's mesh, so kernel vs serve rates compare on one mesh.
    probe_model(d, &model, extent);
    let (u0, _) = gaussian_pulse(&variant.mesh, [0.5 * extent; 3], 0.1 * extent);
    kernel_rate(d, &solver, &u0, d.size(100, 6));
}
