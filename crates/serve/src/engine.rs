//! The scenario-serving engine: a fixed worker pool over prebuilt
//! mesh/solver variants, with priority lanes, content-addressed caching,
//! and cost-based admission control.
//!
//! Lifecycle:
//!
//! ```text
//! start:   model -> (per registered model_scale) mesh + solver data
//!          (built once, shared by every worker) + fingerprint
//! submit:  validate -> content key -> admission (queue + cost budget)
//!          -> enqueue (Interactive lane ahead of Batch) -> Ticket
//! worker:  pop under one lock (exactly once) -> cache get
//!          -> miss: run_scenario on worker-owned ServeScratch -> cache put
//!          -> reply on the ticket channel (exactly once)
//! drain:   stop accepting; wait queues empty and in_flight == 0
//! shutdown: drain + join workers + absorb their telemetry registries
//! ```
//!
//! Exactly-once by construction: a job is popped under the queue mutex by
//! one worker, and workers only exit when the engine stopped accepting
//! *and* both lanes are empty — a drain can never strand a queued request,
//! and no request is ever visible to two workers.
//!
//! Admission control is cost-based: every request carries a projected cost
//! in *element updates* (`n_elements x effective steps` — the same analytic
//! currency `quake-machine` prices), and a submit is rejected with
//! [`ServeError::Overloaded`] when the outstanding total would exceed the
//! budget. The budget is **self-calibrating** when
//! [`EngineConfig::target_backlog_secs`] is set: every uncached solve feeds
//! its measured element-update throughput into a running estimate (an EWMA
//! of `serve/updates_per_sec`, the same signal
//! [`ServeEngine::measured_update_rate`] reads post-shutdown), and the
//! effective budget is `target_backlog_secs x estimated updates/sec` — a
//! wall-clock bound on the backlog that tightens automatically when the
//! machine slows down. The static [`EngineConfig::cost_budget`] serves
//! until the first measurement lands (and is the whole policy when no
//! backlog target is set). Projected cost is an upper bound — a cache hit
//! releases its reservation in microseconds.

use crate::cache::{CachedResult, ResultCache};
use crate::exec::{run_scenario, ServeScratch};
use crate::products::{pgv_of, HazardMap};
use crate::request::{Lane, RequestKey, ScenarioRequest};
use quake_ckpt::{CkptError, Encoder};
use quake_mesh::{mesh_from_model, HexMesh, MeshingParams};
use quake_model::{Material, MaterialModel};
use quake_octree::LinearOctree;
use quake_solver::{ElasticConfig, ElasticSolver, SolverData};
use quake_telemetry::Registry;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// A material model with vp/vs uniformly scaled — the engine's registered
/// perturbation family. Scaling both velocities by one factor preserves the
/// vp/vs ratio (and so Poisson's ratio), keeping every sample physical.
pub struct ScaledModel<'a, M: MaterialModel> {
    inner: &'a M,
    scale: f64,
}

impl<'a, M: MaterialModel> ScaledModel<'a, M> {
    pub fn new(inner: &'a M, scale: f64) -> ScaledModel<'a, M> {
        assert!(scale > 0.0 && scale.is_finite(), "model scale must be positive");
        ScaledModel { inner, scale }
    }
}

impl<M: MaterialModel> MaterialModel for ScaledModel<'_, M> {
    fn sample(&self, x: f64, y: f64, z: f64) -> Material {
        let m = self.inner.sample(x, y, z);
        Material { vp: m.vp * self.scale, vs: m.vs * self.scale, rho: m.rho }
    }

    fn min_vs_in_box(&self, lo: [f64; 3], hi: [f64; 3]) -> f64 {
        // Delegate to the inner model's (possibly specialized) probe; the
        // uniform scale commutes with the min.
        self.inner.min_vs_in_box(lo, hi) * self.scale
    }
}

/// One prebuilt serving context: the meshed domain for one registered
/// model scale, its solver data (templates, sweep schedule, diagonals —
/// built once, every worker's solver attaches to this copy), plus the facts
/// submit-side admission and keying need.
pub struct Variant {
    pub scale: f64,
    pub tree: LinearOctree,
    pub mesh: HexMesh,
    solver: Arc<SolverData>,
    /// Content-address context: hashes the scale, dt, step count, and mesh
    /// shape, so keys from different variants (or regenerated meshes) can
    /// share one cache directory without colliding by construction.
    pub fingerprint: u64,
    pub dt: f64,
    pub n_steps: u64,
    pub n_elements: u64,
}

fn variant_fingerprint(scale: f64, dt: f64, n_steps: u64, mesh: &HexMesh) -> u64 {
    let mut enc = Encoder::new();
    enc.put_str("quake.serve.variant.v1");
    enc.put_u64(scale.to_bits());
    enc.put_u64(dt.to_bits());
    enc.put_u64(n_steps);
    enc.put_u64(mesh.n_nodes() as u64);
    enc.put_u64(mesh.n_elements() as u64);
    let k = RequestKey::of(&enc.into_bytes());
    u64::from_le_bytes([k.0[0], k.0[1], k.0[2], k.0[3], k.0[4], k.0[5], k.0[6], k.0[7]])
}

/// Engine construction parameters.
pub struct EngineConfig {
    pub meshing: MeshingParams,
    pub solve: ElasticConfig,
    /// Registered material perturbations (vp/vs scale factors). A request's
    /// `model_scale` must bit-match one of these. Always include `1.0` for
    /// the baseline unless the engine intentionally serves only perturbed
    /// models.
    pub model_scales: Vec<f64>,
    /// Worker threads (each owns one `ServeScratch` per variant; the
    /// variant's solver data is shared).
    pub workers: usize,
    /// Maximum queued (not yet started) requests across both lanes.
    pub queue_capacity: usize,
    /// Admission budget on outstanding projected cost in element updates
    /// (queued + in-flight); 0 = unlimited. When `target_backlog_secs` is
    /// set this is only the pre-calibration fallback.
    pub cost_budget: u64,
    /// Wall-clock backlog target in seconds; > 0 switches admission to the
    /// calibrated budget `target_backlog_secs x measured element
    /// updates/sec` as soon as the first uncached solve has been measured
    /// (0 = keep the static `cost_budget` policy).
    pub target_backlog_secs: f64,
    /// Receiver count the per-worker scratch buffers are pre-warmed for.
    pub max_receivers: usize,
    /// Result cache directory; `None` disables caching.
    pub cache_dir: Option<PathBuf>,
    /// Cache retention budget in bytes (0 = unlimited); see
    /// [`ResultCache`].
    pub cache_byte_budget: u64,
}

impl EngineConfig {
    pub fn new(meshing: MeshingParams, solve: ElasticConfig) -> EngineConfig {
        EngineConfig {
            meshing,
            solve,
            model_scales: vec![1.0],
            workers: 2,
            queue_capacity: 1024,
            cost_budget: 0,
            target_backlog_secs: 0.0,
            max_receivers: 16,
            cache_dir: None,
            cache_byte_budget: 0,
        }
    }

    pub fn with_cache(mut self, dir: PathBuf, byte_budget: u64) -> EngineConfig {
        self.cache_dir = Some(dir);
        self.cache_byte_budget = byte_budget;
        self
    }

    /// Bound the admitted backlog to `secs` of measured serving throughput
    /// (see [`EngineConfig::target_backlog_secs`]).
    pub fn with_backlog_target(mut self, secs: f64) -> EngineConfig {
        assert!(secs > 0.0 && secs.is_finite(), "backlog target must be positive seconds");
        self.target_backlog_secs = secs;
        self
    }
}

/// Why a submit was refused. Rejections are synchronous and cheap — no
/// worker time is spent on a refused request.
#[derive(Debug)]
pub enum ServeError {
    /// The request's `model_scale` bit-matches no registered variant.
    UnknownModelScale(f64),
    /// Both lanes together already hold `queue_capacity` waiting requests.
    QueueFull,
    /// Admission control: the projected cost would push the outstanding
    /// total past the budget.
    Overloaded { projected: u64, outstanding: u64, budget: u64 },
    /// The engine is draining or shut down.
    Stopped,
    /// The serving worker disappeared before replying (engine torn down
    /// while the ticket was still held).
    WorkerLost,
    /// `hazard_map` requires every ensemble member to share one receiver
    /// layout.
    MismatchedEnsemble,
    /// The request cannot be served: a non-finite receiver coordinate, a
    /// non-finite moment or slip field, or a source outside the domain.
    InvalidRequest(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownModelScale(s) => write!(f, "unregistered model scale {s}"),
            ServeError::QueueFull => write!(f, "request queue is full"),
            ServeError::Overloaded { projected, outstanding, budget } => write!(
                f,
                "admission refused: projected cost {projected} + outstanding {outstanding} \
                 exceeds budget {budget} element updates"
            ),
            ServeError::Stopped => write!(f, "engine is not accepting requests"),
            ServeError::WorkerLost => write!(f, "serving worker lost before replying"),
            ServeError::MismatchedEnsemble => {
                write!(f, "ensemble members must share one receiver layout")
            }
            ServeError::InvalidRequest(why) => write!(f, "invalid request: {why}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A served scenario: the (possibly cached) result plus serving metadata.
#[derive(Debug)]
pub struct ScenarioResponse {
    pub key: RequestKey,
    pub cache_hit: bool,
    /// Projected cost this request was admitted under (element updates).
    pub cost: u64,
    /// Worker-side service time (cache lookup + solve + cache write).
    pub exec_secs: f64,
    pub result: CachedResult,
}

/// A claim on one submitted request; [`Ticket::wait`] blocks until a worker
/// replies. Each ticket resolves exactly once.
pub struct Ticket {
    key: RequestKey,
    cost: u64,
    rx: mpsc::Receiver<ScenarioResponse>,
}

impl Ticket {
    pub fn key(&self) -> RequestKey {
        self.key
    }

    /// The projected element-update cost the request was admitted under.
    pub fn cost(&self) -> u64 {
        self.cost
    }

    pub fn wait(self) -> Result<ScenarioResponse, ServeError> {
        self.rx.recv().map_err(|_| ServeError::WorkerLost)
    }
}

struct Job {
    request: ScenarioRequest,
    variant: usize,
    key: RequestKey,
    cost: u64,
    tx: mpsc::Sender<ScenarioResponse>,
}

struct QueueState {
    interactive: VecDeque<Job>,
    batch: VecDeque<Job>,
    accepting: bool,
    in_flight: usize,
    outstanding_cost: u64,
}

impl QueueState {
    fn queued(&self) -> usize {
        self.interactive.len() + self.batch.len()
    }

    fn pop(&mut self) -> Option<Job> {
        self.interactive.pop_front().or_else(|| self.batch.pop_front())
    }

    fn idle(&self) -> bool {
        self.queued() == 0 && self.in_flight == 0
    }
}

struct Shared {
    variants: Vec<Variant>,
    cache: Option<ResultCache>,
    max_receivers: usize,
    queue_capacity: usize,
    cost_budget: u64,
    target_backlog_secs: f64,
    /// EWMA of measured element updates/sec as `f64` bits (0 bits = no
    /// uncached solve measured yet), fed by workers after every solve.
    measured_rate_bits: AtomicU64,
    q: Mutex<QueueState>,
    work_cv: Condvar,
    idle_cv: Condvar,
    served: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    rejected: AtomicU64,
}

impl Shared {
    /// Fold one measured updates/sec sample into the admission estimate
    /// (EWMA, alpha 0.25; the first sample seeds the estimate directly).
    fn note_update_rate(&self, rate: f64) {
        if !(rate > 0.0 && rate.is_finite()) {
            return;
        }
        let mut cur = self.measured_rate_bits.load(Ordering::Relaxed);
        loop {
            let prev = f64::from_bits(cur);
            let next = if prev > 0.0 { 0.75 * prev + 0.25 * rate } else { rate };
            match self.measured_rate_bits.compare_exchange_weak(
                cur,
                next.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Measured element updates/sec the admission budget is calibrated
    /// against (0.0 until the first uncached solve lands).
    fn measured_rate(&self) -> f64 {
        f64::from_bits(self.measured_rate_bits.load(Ordering::Relaxed))
    }

    /// The admission budget in force right now: `target_backlog_secs x
    /// measured rate` once calibrated, else the static `cost_budget`
    /// (0 = unlimited either way).
    fn effective_cost_budget(&self) -> u64 {
        let rate = self.measured_rate();
        if self.target_backlog_secs > 0.0 && rate > 0.0 {
            (self.target_backlog_secs * rate).max(1.0) as u64
        } else {
            self.cost_budget
        }
    }
}

/// A point-in-time view of the engine's counters.
#[derive(Clone, Copy, Debug)]
pub struct EngineStats {
    pub served: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub rejected: u64,
    pub queued: usize,
    pub in_flight: usize,
    pub outstanding_cost: u64,
    /// EWMA of measured element updates/sec (0.0 = not yet calibrated).
    pub measured_update_rate: f64,
    /// Admission budget in force right now (calibrated once a rate is
    /// measured and a backlog target is set, else the static cap).
    pub effective_cost_budget: u64,
}

/// The scenario-ensemble serving engine. See the module docs for the
/// lifecycle and the exactly-once argument.
pub struct ServeEngine {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<Registry>>,
    /// Engine-side registry; worker registries are absorbed into it at
    /// shutdown.
    reg: Registry,
}

impl ServeEngine {
    /// Mesh every registered model scale, build each variant's solver data
    /// once (it also fixes the variant's dt/step count), and start the
    /// worker pool.
    pub fn start(model: &impl MaterialModel, cfg: EngineConfig) -> Result<ServeEngine, CkptError> {
        assert!(cfg.workers >= 1, "an engine needs at least one worker");
        assert!(!cfg.model_scales.is_empty(), "register at least one model scale");
        let reg = Registry::new(0);
        let mut variants = Vec::with_capacity(cfg.model_scales.len());
        for &scale in &cfg.model_scales {
            let _s = reg.span("serve/build_variant");
            let scaled = ScaledModel::new(model, scale);
            let (tree, mesh) = mesh_from_model(&cfg.meshing, &scaled);
            let solver = Arc::new(SolverData::build(&mesh, &cfg.solve));
            let (dt, n_steps) = (solver.dt, solver.n_steps as u64);
            let fingerprint = variant_fingerprint(scale, dt, n_steps, &mesh);
            let n_elements = mesh.n_elements() as u64;
            variants.push(Variant {
                scale,
                tree,
                mesh,
                solver,
                fingerprint,
                dt,
                n_steps,
                n_elements,
            });
        }
        let cache = match &cfg.cache_dir {
            Some(dir) => Some(ResultCache::open(dir, cfg.cache_byte_budget)?),
            None => None,
        };
        let shared = Arc::new(Shared {
            variants,
            cache,
            max_receivers: cfg.max_receivers,
            queue_capacity: cfg.queue_capacity,
            cost_budget: cfg.cost_budget,
            target_backlog_secs: cfg.target_backlog_secs,
            measured_rate_bits: AtomicU64::new(0),
            q: Mutex::new(QueueState {
                interactive: VecDeque::new(),
                batch: VecDeque::new(),
                accepting: true,
                in_flight: 0,
                outstanding_cost: 0,
            }),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            served: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        });
        let workers = (0..cfg.workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{w}"))
                    .spawn(move || worker_loop(&shared, w + 1))
                    .expect("spawn serve worker")
            })
            .collect();
        let engine = ServeEngine { shared, workers, reg };
        engine.reg.set("serve/queue_capacity", engine.shared.queue_capacity as u64);
        engine.reg.set("serve/cost_budget", engine.shared.cost_budget);
        if engine.shared.target_backlog_secs > 0.0 {
            engine
                .reg
                .set("serve/target_backlog_ms", (engine.shared.target_backlog_secs * 1e3) as u64);
        }
        Ok(engine)
    }

    /// Registered variants, index-aligned with request routing.
    pub fn variants(&self) -> &[Variant] {
        &self.shared.variants
    }

    /// The variant a request with `model_scale` would route to.
    pub fn variant_for(&self, model_scale: f64) -> Option<&Variant> {
        self.shared.variants.iter().find(|v| v.scale.to_bits() == model_scale.to_bits())
    }

    /// Submit one scenario. Validation, content addressing, and admission
    /// happen synchronously on the caller's thread; on acceptance the
    /// request is queued on its lane and a [`Ticket`] is returned.
    pub fn submit(&self, request: ScenarioRequest) -> Result<Ticket, ServeError> {
        let queue_capacity = self.shared.queue_capacity;
        let cost_budget = self.shared.effective_cost_budget();
        let variant = self
            .shared
            .variants
            .iter()
            .position(|v| v.scale.to_bits() == request.model_scale.to_bits())
            .ok_or(ServeError::UnknownModelScale(request.model_scale))?;
        let v = &self.shared.variants[variant];
        validate(&request, v)?;
        let until = request.n_steps.map_or(v.n_steps, |b| b.min(v.n_steps));
        let key = request.key(v.fingerprint, until);
        let cost = v.n_elements * until;
        let (tx, rx) = mpsc::channel();
        {
            let mut q = lock(&self.shared.q);
            if !q.accepting {
                return Err(ServeError::Stopped);
            }
            if q.queued() >= queue_capacity {
                self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                self.reg.add("serve/rejected_queue_full", 1);
                return Err(ServeError::QueueFull);
            }
            if cost_budget > 0 && q.outstanding_cost.saturating_add(cost) > cost_budget {
                self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                self.reg.add("serve/rejected_overloaded", 1);
                return Err(ServeError::Overloaded {
                    projected: cost,
                    outstanding: q.outstanding_cost,
                    budget: cost_budget,
                });
            }
            q.outstanding_cost += cost;
            let lane = request.lane;
            let job = Job { request, variant, key, cost, tx };
            match lane {
                Lane::Interactive => q.interactive.push_back(job),
                Lane::Batch => q.batch.push_back(job),
            }
        }
        self.shared.work_cv.notify_one();
        Ok(Ticket { key, cost, rx })
    }

    /// Submit a whole ensemble; fails fast on the first rejected member
    /// (already-accepted members still execute — their tickets are
    /// returned in the error-free prefix).
    pub fn submit_ensemble(
        &self,
        requests: Vec<ScenarioRequest>,
    ) -> Result<Vec<Ticket>, (Vec<Ticket>, ServeError)> {
        let mut tickets = Vec::with_capacity(requests.len());
        for r in requests {
            match self.submit(r) {
                Ok(t) => tickets.push(t),
                Err(e) => return Err((tickets, e)),
            }
        }
        Ok(tickets)
    }

    /// Run an N-member ensemble and reduce it to a PGV hazard map. Every
    /// member must share one receiver layout (that layout becomes the
    /// map's station set).
    pub fn hazard_map(
        &self,
        requests: Vec<ScenarioRequest>,
    ) -> Result<(HazardMap, Vec<ScenarioResponse>), ServeError> {
        let Some(first) = requests.first() else {
            return Err(ServeError::MismatchedEnsemble);
        };
        let layout = first.receivers.clone();
        if requests.iter().any(|r| r.receivers != layout) {
            return Err(ServeError::MismatchedEnsemble);
        }
        let tickets = self.submit_ensemble(requests).map_err(|(_, e)| e)?;
        let mut map = HazardMap::new(layout);
        let mut responses = Vec::with_capacity(tickets.len());
        for t in tickets {
            let resp = t.wait()?;
            map.absorb(&pgv_of(&resp.result.traces));
            responses.push(resp);
        }
        Ok((map, responses))
    }

    /// Stop accepting and block until both lanes are empty and no request
    /// is in flight. Every accepted request completes; every ticket
    /// resolves.
    pub fn drain(&self) {
        let mut q = lock(&self.shared.q);
        q.accepting = false;
        self.shared.work_cv.notify_all();
        while !q.idle() {
            q = wait(&self.shared.idle_cv, q);
        }
    }

    /// Counters right now.
    pub fn stats(&self) -> EngineStats {
        let q = lock(&self.shared.q);
        EngineStats {
            served: self.shared.served.load(Ordering::Relaxed),
            cache_hits: self.shared.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.shared.cache_misses.load(Ordering::Relaxed),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
            queued: q.queued(),
            in_flight: q.in_flight,
            outstanding_cost: q.outstanding_cost,
            measured_update_rate: self.shared.measured_rate(),
            effective_cost_budget: self.shared.effective_cost_budget(),
        }
    }

    /// Observed serving throughput in element updates per second from an
    /// absorbed registry (i.e. after [`ServeEngine::shutdown`]) — the
    /// offline view of the same signal the live admission budget
    /// calibrates against when [`EngineConfig::target_backlog_secs`] is
    /// set; use it to pick a static `cost_budget` for engines that don't
    /// autoscale. `None` until at least one uncached request was served.
    pub fn measured_update_rate(reg: &Registry) -> Option<f64> {
        reg.histogram("serve/updates_per_sec").map(|h| h.quantile(0.5))
    }

    /// Drain, join the workers, and return the merged telemetry registry
    /// (engine spans + every worker's counters/histograms).
    pub fn shutdown(mut self) -> Registry {
        self.drain();
        for h in self.workers.drain(..) {
            if let Ok(worker_reg) = h.join() {
                self.reg.absorb(&worker_reg);
            }
        }
        std::mem::replace(&mut self.reg, Registry::disabled())
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        // A dropped engine still drains: accepted requests complete and
        // workers exit cleanly (shutdown() already emptied `workers`).
        if !self.workers.is_empty() {
            self.drain();
            for h in self.workers.drain(..) {
                let _ = h.join();
            }
        }
    }
}

/// Refuse a request `variant` cannot serve. Checked at submit so that no bad
/// input reaches a worker: a non-finite receiver would snap to an arbitrary
/// node, a non-finite moment or slip field would fill the wavefield with
/// NaN, and a source `locate` cannot place would panic the worker that
/// assembles it.
fn validate(request: &ScenarioRequest, variant: &Variant) -> Result<(), ServeError> {
    let invalid = |why: String| Err(ServeError::InvalidRequest(why));
    if let Some(i) = request.receivers.iter().position(|p| p.iter().any(|c| !c.is_finite())) {
        return invalid(format!("receiver {i} has a non-finite coordinate"));
    }
    for (i, s) in request.sources.iter().enumerate() {
        let slip = [s.slip.delay, s.slip.rise, s.slip.amplitude];
        if s.moment.iter().flatten().chain(&slip).any(|x| !x.is_finite()) {
            return invalid(format!("source {i} has a non-finite moment or slip field"));
        }
        if variant.mesh.locate(&variant.tree, s.position).is_none() {
            return invalid(format!("source {i} at {:?} lies outside the domain", s.position));
        }
    }
    Ok(())
}

fn worker_loop(shared: &Arc<Shared>, telemetry_rank: usize) -> Registry {
    let reg = Registry::new(telemetry_rank);
    // Each worker owns one scratch per variant, reused for every request it
    // ever serves; its solvers only attach to the variants' shared mesh and
    // solver data.
    let solvers: Vec<ElasticSolver<'_>> = shared
        .variants
        .iter()
        .map(|v| ElasticSolver::attach(&v.mesh, Arc::clone(&v.solver)))
        .collect();
    let mut scratches: Vec<ServeScratch> =
        solvers.iter().map(|s| ServeScratch::for_solver(s, shared.max_receivers)).collect();
    loop {
        let job = {
            let mut q = lock(&shared.q);
            loop {
                if let Some(j) = q.pop() {
                    q.in_flight += 1;
                    break Some(j);
                }
                if !q.accepting {
                    break None;
                }
                q = wait(&shared.work_cv, q);
            }
        };
        let Some(job) = job else { break };
        let cost = job.cost;
        serve_one(shared, &solvers, &mut scratches, job, &reg);
        let mut q = lock(&shared.q);
        q.in_flight -= 1;
        q.outstanding_cost = q.outstanding_cost.saturating_sub(cost);
        if q.idle() {
            shared.idle_cv.notify_all();
        }
    }
    reg
}

fn serve_one(
    shared: &Shared,
    solvers: &[ElasticSolver<'_>],
    scratches: &mut [ServeScratch],
    job: Job,
    reg: &Registry,
) {
    let _s = reg.span("serve/request");
    let t0 = Instant::now();
    let cached = shared.cache.as_ref().and_then(|c| c.get(&job.key, reg));
    let (cache_hit, result) = match cached {
        Some(r) => {
            shared.cache_hits.fetch_add(1, Ordering::Relaxed);
            reg.add("serve/cache_hit", 1);
            (true, r)
        }
        None => {
            let v = &shared.variants[job.variant];
            let exec0 = Instant::now();
            let r = run_scenario(
                &solvers[job.variant],
                &v.tree,
                &job.request.sources,
                &job.request.receivers,
                job.request.n_steps,
                &mut scratches[job.variant],
            );
            let exec_secs = exec0.elapsed().as_secs_f64();
            if let Some(c) = &shared.cache {
                // A failed write costs a future recompute, never the reply.
                let _ = c.put(&job.key, &r, reg);
            }
            shared.cache_misses.fetch_add(1, Ordering::Relaxed);
            reg.add("serve/cache_miss", 1);
            reg.add("serve/element_updates_done", r.element_updates);
            if exec_secs > 0.0 {
                let rate = r.element_updates as f64 / exec_secs;
                reg.observe("serve/updates_per_sec", rate);
                // Feed the live admission estimate: the effective budget
                // tracks (and tightens with) what this machine delivers.
                shared.note_update_rate(rate);
            }
            (false, r)
        }
    };
    shared.served.fetch_add(1, Ordering::Relaxed);
    reg.observe("serve/service_secs", t0.elapsed().as_secs_f64());
    // The caller may have dropped its ticket; that only discards the reply.
    let _ = job.tx.send(ScenarioResponse {
        key: job.key,
        cache_hit,
        cost: job.cost,
        exec_secs: t0.elapsed().as_secs_f64(),
        result,
    });
}

fn lock<'a>(m: &'a Mutex<QueueState>) -> std::sync::MutexGuard<'a, QueueState> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn wait<'a>(
    cv: &Condvar,
    g: std::sync::MutexGuard<'a, QueueState>,
) -> std::sync::MutexGuard<'a, QueueState> {
    cv.wait(g).unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_model_preserves_physicality_and_scales_min_vs() {
        let inner = quake_model::LaBasinModel::scaled(400.0, 8_000.0);
        let scaled = ScaledModel::new(&inner, 1.07);
        let a = inner.sample(1_000.0, 2_000.0, 500.0);
        let b = scaled.sample(1_000.0, 2_000.0, 500.0);
        assert!((b.vp - a.vp * 1.07).abs() < 1e-9);
        assert!((b.vs - a.vs * 1.07).abs() < 1e-9);
        assert_eq!(b.rho, a.rho);
        b.validate();
        let lo = [0.0, 0.0, 0.0];
        let hi = [8_000.0, 8_000.0, 8_000.0];
        assert!((scaled.min_vs_in_box(lo, hi) - inner.min_vs_in_box(lo, hi) * 1.07).abs() < 1e-9);
    }

    #[test]
    fn admission_budget_tightens_when_the_measured_rate_drops() {
        use crate::request::ScenarioRequest;

        let inner = quake_model::LaBasinModel::scaled(400.0, 8_000.0);
        let mut meshing = MeshingParams::new(8_000.0, 0.4);
        meshing.min_level = 2;
        meshing.max_level = 4;
        let mut cfg = EngineConfig::new(meshing, ElasticConfig::new(1.0));
        cfg.workers = 1;
        cfg.cost_budget = 0; // static policy: unlimited
        cfg.target_backlog_secs = 1.0;
        let engine = ServeEngine::start(&inner, cfg).unwrap();
        let v = &engine.variants()[0];
        let steps = 10u64.min(v.n_steps);
        let cost = v.n_elements * steps;
        let probe =
            || ScenarioRequest::new(Vec::new(), vec![[2_000.0, 3_000.0, 0.0]]).with_steps(steps);

        // Uncalibrated: the static (unlimited) cap is in force.
        assert_eq!(engine.stats().effective_cost_budget, 0);

        // Calibrate to a healthy rate: budget = 1s x rate covers the probe.
        let high = (cost * 4) as f64;
        engine.shared.note_update_rate(high);
        let budget_high = engine.stats().effective_cost_budget;
        assert_eq!(budget_high, cost * 4);
        let t = engine.submit(probe()).expect("budget covers the probe");
        t.wait().unwrap();

        // The machine "slows down": repeated low observations pull the EWMA
        // (and with it the budget) down until the same probe is refused.
        let low = (cost / 10).max(1) as f64;
        for _ in 0..64 {
            engine.shared.note_update_rate(low);
        }
        let stats = engine.stats();
        assert!(stats.measured_update_rate > 0.0);
        assert!(
            stats.effective_cost_budget < budget_high,
            "budget did not tighten: {} vs {}",
            stats.effective_cost_budget,
            budget_high
        );
        assert!(stats.effective_cost_budget < cost, "probe should now exceed the budget");
        match engine.submit(probe()) {
            Err(ServeError::Overloaded { projected, budget, .. }) => {
                assert_eq!(projected, cost);
                assert!(budget < cost);
            }
            other => panic!("expected Overloaded, got {:?}", other.map(|t| t.key())),
        }
        drop(engine);
    }

    #[test]
    fn invalid_requests_are_refused_at_submit_and_workers_survive() {
        use crate::request::ScenarioRequest;
        use quake_model::{PointSource, SlipFunction};

        let extent = 8_000.0;
        let inner = quake_model::LaBasinModel::scaled(400.0, extent);
        let mut meshing = MeshingParams::new(extent, 0.4);
        meshing.min_level = 2;
        meshing.max_level = 4;
        let mut cfg = EngineConfig::new(meshing, ElasticConfig::new(1.0));
        cfg.workers = 2;
        let engine = ServeEngine::start(&inner, cfg).unwrap();
        let good = PointSource {
            position: [4_000.0, 4_000.0, 2_000.0],
            moment: [[0.0, 1e15, 0.0], [1e15, 0.0, 0.0], [0.0, 0.0, 0.0]],
            slip: SlipFunction::new(0.0, 0.2, 1.0),
        };
        let station = [2_000.0, 3_000.0, 0.0];
        let with = |edit: &dyn Fn(&mut PointSource)| {
            let mut s = good;
            edit(&mut s);
            ScenarioRequest::new(vec![good, s], vec![station]).with_steps(4)
        };
        let bad = [
            ScenarioRequest::new(vec![good], vec![station, [f64::NAN, 0.0, 0.0]]),
            ScenarioRequest::new(vec![good], vec![[0.0, f64::INFINITY, 0.0]]),
            with(&|s| s.position = [extent + 1.0, 4_000.0, 2_000.0]),
            with(&|s| s.position = [4_000.0, -1.0, 2_000.0]),
            with(&|s| s.position[2] = f64::NAN),
            with(&|s| s.moment[1][2] = f64::NAN),
            with(&|s| s.moment[0][0] = f64::NEG_INFINITY),
            with(&|s| s.slip.delay = f64::NAN),
            with(&|s| s.slip.rise = f64::INFINITY),
            with(&|s| s.slip.amplitude = f64::NAN),
        ];
        for request in bad {
            match engine.submit(request) {
                Err(ServeError::InvalidRequest(why)) => assert!(!why.is_empty()),
                other => panic!("expected InvalidRequest, got {:?}", other.map(|t| t.key())),
            }
        }
        assert_eq!(engine.stats().queued, 0);

        let resp = engine.submit(with(&|_| ())).unwrap().wait().unwrap();
        assert_eq!(resp.result.executed_steps, 4);
        assert!(resp.result.traces[0].data.iter().all(|v| v.is_finite()));
        assert!(engine.workers.iter().all(|h| !h.is_finished()), "a worker died");
        assert_eq!(engine.stats().served, 1);
    }

    #[test]
    fn fingerprints_separate_variants() {
        let inner = quake_model::LaBasinModel::scaled(400.0, 8_000.0);
        let mut p = MeshingParams::new(8_000.0, 0.4);
        p.min_level = 2;
        p.max_level = 4;
        let (_, mesh) = mesh_from_model(&p, &inner);
        let f1 = variant_fingerprint(1.0, 0.05, 100, &mesh);
        assert_ne!(f1, variant_fingerprint(1.1, 0.05, 100, &mesh));
        assert_ne!(f1, variant_fingerprint(1.0, 0.051, 100, &mesh));
        assert_ne!(f1, variant_fingerprint(1.0, 0.05, 101, &mesh));
        assert_eq!(f1, variant_fingerprint(1.0, 0.05, 100, &mesh));
    }
}
