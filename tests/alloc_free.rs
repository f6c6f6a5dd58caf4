//! The invariants the paper's steady-state explicit loop rests on, measured
//! instead of argued. This binary holds the workspace's only counting
//! `#[global_allocator]`.
//!
//! - **The step loop allocates nothing.** A probe hook placed last in the
//!   hook list reads the allocation count after every sync step of
//!   `SolverHarness::run` (one group) and `run_grouped` (three rate groups),
//!   on a mesh with hanging nodes, absorbing faces and Rayleigh damping,
//!   stepping with a traced registry and receiver, checkpoint and telemetry
//!   hooks. A warmed `run_scenario` and a 2-rank `run_distributed` are
//!   counted per call, the etree B-tree per lookup, and a scalar adjoint
//!   solve into a reused history buffer per solve.
//! - **Decoders reject damaged bytes.** The `quake-ckpt` frame,
//!   `SolverState` and `ResultCache::get` get every
//!   truncation, every header bit flip, 256 payload bit flips, and every
//!   length or count field rewritten with the CRC re-signed. Each case must
//!   be an `Err` or a miss: never a panic, and never an allocation larger
//!   than the input could hold.
//!
//! The 2-rank count is process-wide, so every test takes one lock.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use quake::antiplane::{ShConfig, ShSolver};
use quake::ckpt::{
    crc32, decode_file, encode_file, CheckpointPolicy, CheckpointReader, CheckpointWriter,
    Checkpointable, Decoder, PeriodicSink,
};
use quake::etree::{DiskStore, MaterialRec, OctantStore};
use quake::mesh::hexmesh::ElemMaterial;
use quake::mesh::HexMesh;
use quake::model::{DoubleCouple, PointSource, SlipFunction};
use quake::octree::{BalanceMode, LinearOctree, Octant, MAX_LEVEL};
use quake::serve::{
    run_scenario, CachedResult, RequestKey, ResultCache, ServeScratch, RESULT_KIND,
};
use quake::solver::elastic::RayleighBand;
use quake::solver::wave::{adjoint, ScalarWaveEq};
use quake::solver::{
    run_distributed, CheckpointHook, DistConfig, ElasticConfig, ElasticSolver, HookCtx, NoExchange,
    RateGroupPlan, ReceiverHook, RunConfig, RunOutcome, Seismogram, SolverHarness, SolverState,
    StepHook, StopReason, TelemetryHook,
};
use quake::telemetry::Registry;

/// Allocations by every thread: the 2-rank run steps on threads of its own.
static PROCESS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Per thread, so the test harness's other threads are not counted.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    // The largest single request on this thread since the last reset.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn count_one(size: usize) {
    PROCESS.fetch_add(1, Ordering::Relaxed);
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = LARGEST.try_with(|m| m.set(m.get().max(size)));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; the only additions are
// an atomic counter and thread-local counters that never allocate
// (const-initialised `Cell`s).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: the caller's guarantees for `alloc` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: the caller's guarantees for `alloc_zeroed` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        // SAFETY: the caller's guarantees for `realloc` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's guarantees for `dealloc` pass through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations made on this thread so far.
fn thread_allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Heap allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// One lock for the whole binary: the 2-rank count sees every thread. It
/// guards no data, so a test that failed while holding it leaves nothing to
/// repair.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("quake-alloc-free-tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Deterministic LCG (Knuth's MMIX constants) behind every input here.
fn lcg(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
    *state >> 33
}

fn mat(o: &Octant) -> MaterialRec {
    MaterialRec { vp: 2000.0 + o.x as f64, vs: 1000.0 + o.level as f64, rho: 2200.0 }
}

/// The B-tree searches and edits its pages where they lie in the pager
/// cache, so once the cache holds the whole tree, lookups and inserts that
/// do not split make no heap allocation at all.
#[test]
fn lookups_and_non_splitting_inserts_allocate_nothing() {
    let _serial = serial();
    let dir = std::env::temp_dir().join("quake-etree-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("alloc-free-{}.btree", std::process::id()));

    // 4 096 octants take ~70 pages; a 256-page cache holds all of them.
    let tree = LinearOctree::build(|o| o.level < 4);
    let mut store = DiskStore::create(&path, 256).unwrap();
    for o in tree.leaves() {
        store.insert(*o, mat(o)).unwrap();
    }
    let mut seen = 0;
    store.scan_all(&mut |_, _| seen += 1).unwrap();
    assert_eq!(seen, tree.len());
    assert_eq!(store.io_stats().evictions, 0, "the cache must hold the whole tree");

    let probes: Vec<Octant> = tree.leaves().iter().step_by(37).copied().collect();
    let points: Vec<(u32, u32, u32)> =
        probes.iter().map(|o| (o.x + o.size() / 3, o.y + 1, o.z + o.size() - 1)).collect();
    let fine_key = |p: (u32, u32, u32)| Octant::new(p.0, p.1, p.2, MAX_LEVEL).key();

    let (n, found) =
        allocations(|| probes.iter().filter(|o| store.get(o).unwrap() == Some(mat(o))).count());
    assert_eq!((n, found), (0, probes.len()), "get");

    let (n, found) = allocations(|| {
        points.iter().filter(|&&p| store.floor(fine_key(p)).unwrap().is_some()).count()
    });
    assert_eq!((n, found), (0, points.len()), "floor");

    let (n, found) = allocations(|| {
        let mut hits = 0;
        for (&p, o) in points.iter().zip(&probes) {
            hits += (store.find_containing(p).unwrap() == Some((*o, mat(o)))) as usize;
        }
        hits
    });
    assert_eq!((n, found), (0, probes.len()), "find_containing");

    // An insert into a leaf with room (one entry was just removed from it),
    // and an insert that replaces a value in place: no split, no page
    // allocated.
    for o in &probes {
        assert!(store.remove(o).unwrap());
        let (n, ()) = allocations(|| store.insert(*o, mat(o)).unwrap());
        assert_eq!(n, 0, "insert into a leaf with room");
        let replaced = MaterialRec { rho: 1.0, ..mat(o) };
        let (n, ()) = allocations(|| store.insert(*o, replaced).unwrap());
        assert_eq!(n, 0, "insert that replaces");
    }

    // The counter does see the B-tree allocate: a split takes a fresh page.
    let before = store.io_stats();
    let (n, ()) = allocations(|| {
        for o in tree.leaves()[..200].iter().flat_map(|o| o.children()) {
            store.insert(o, mat(&o)).unwrap();
        }
    });
    assert!(n > 0, "splitting inserts allocate their new pages");
    assert_eq!(store.io_stats().evictions, before.evictions);
    std::fs::remove_file(path).unwrap();
}

// ---- the step loop ------------------------------------------------------

/// The production step shape, small: three octree levels (hanging nodes,
/// three rate groups), absorbing faces on five sides, Rayleigh damping.
fn fixture() -> (LinearOctree, HexMesh, ElasticConfig) {
    let half = 1u32 << (MAX_LEVEL - 1);
    let quarter = 1u32 << (MAX_LEVEL - 2);
    let mut tree = LinearOctree::build(|o| {
        o.level < 2
            || (o.level < 3 && o.x < half && o.y < half)
            || (o.level < 4 && o.x < quarter && o.y < quarter && o.z < quarter)
    });
    tree.balance(BalanceMode::Full);
    let mesh = HexMesh::from_octree(&tree, 8.0, |_, _, _, _| ElemMaterial {
        lambda: 2.0,
        mu: 1.0,
        rho: 1.0,
    });
    let mut cfg = ElasticConfig::new(1.0);
    cfg.dt = Some(0.02);
    cfg.rayleigh = Some(RayleighBand { f_lo: 0.05, f_hi: 0.5 });
    (tree, mesh, cfg)
}

/// A smooth displacement bump in the middle of the domain, at rest.
fn pulse(mesh: &HexMesh) -> (Vec<f64>, Vec<f64>) {
    let mut u = vec![0.0; 3 * mesh.n_nodes()];
    for (i, c) in mesh.coords.iter().enumerate() {
        let r2 = (c[0] - 4.0).powi(2) + (c[1] - 4.0).powi(2) + (c[2] - 4.0).powi(2);
        u[3 * i + 1] = (-r2 / 2.0).exp();
    }
    mesh.interpolate_hanging(&mut u, 3);
    (u, vec![0.0; 3 * mesh.n_nodes()])
}

/// Reads this thread's allocation count after every sync step. Placed last
/// in the hook list, each reading covers one whole macro cycle: the step
/// kernel and every other hook.
struct Probe {
    last: u64,
    /// `(sync step, allocations)`, capacity reserved before the run.
    steps: Vec<(u64, u64)>,
}

impl StepHook for Probe {
    fn on_run_start(&mut self, _ctx: &mut HookCtx<'_>) -> Result<(), StopReason> {
        self.last = thread_allocations();
        Ok(())
    }

    fn after_step(&mut self, ctx: &mut HookCtx<'_>) -> Result<(), StopReason> {
        let now = thread_allocations();
        self.steps.push((ctx.state.step, now - self.last));
        self.last = now;
        Ok(())
    }
}

/// `(sync step, allocations)` of one run to `until` under `plan` (`None`:
/// the one-group plan), checkpointing every `ckpt_every` steps. Seismogram
/// buffers get their capacity before the run, as `ServeScratch` keeps them
/// warm, so trace growth is reserved away rather than tolerated.
fn per_step_allocations(
    solver: &ElasticSolver<'_>,
    plan: Option<&RateGroupPlan>,
    until: u64,
    ckpt_every: u64,
) -> Vec<(u64, u64)> {
    let dir = tmpdir(&format!("steps-{}", plan.map_or(1, |p| p.n_groups())));
    let writer = CheckpointWriter::new(&dir, "state").unwrap();
    let mut sink = PeriodicSink::new(&writer, &CheckpointPolicy::every_steps(ckpt_every));
    let reg = Registry::new(0);
    reg.enable_trace(4096);
    let mut ws = solver.workspace_with(reg);
    let (u0, v0) = pulse(solver.mesh);
    let nodes = [0, solver.mesh.n_nodes() as u32 / 2];
    let initial = Some((&u0[..], &v0[..]));
    let mut state = match plan {
        None => solver.initial_state(nodes.len(), initial),
        Some(plan) => plan.initial_state(solver, nodes.len(), initial),
    };
    for tr in &mut state.seismograms {
        tr.data.reserve(3 * (until as usize + 1));
    }
    let mut receivers = ReceiverHook::new(&nodes);
    let mut ckpt = CheckpointHook::new(&mut sink);
    let mut telemetry = TelemetryHook::new(solver);
    let mut probe = Probe { last: 0, steps: Vec::with_capacity(until as usize) };
    let mut hooks: [&mut dyn StepHook; 4] = [&mut receivers, &mut ckpt, &mut telemetry, &mut probe];
    let cfg = RunConfig::to_step(until);
    let harness = SolverHarness::new(solver);
    let outcome = match plan {
        None => harness.run(&cfg, &mut state, &mut ws, &mut NoExchange, &mut hooks),
        Some(plan) => {
            harness.run_grouped(plan, &cfg, &mut state, &mut ws, &mut NoExchange, &mut hooks)
        }
    };
    assert!(matches!(outcome, RunOutcome::Finished { executed } if executed == until));
    std::fs::remove_dir_all(&dir).unwrap();
    probe.steps
}

/// From the second sync step on, a step allocates nothing unless the
/// checkpoint sink writes a file on it — and then the counter must see it.
fn assert_steady_state_allocates_nothing(steps: &[(u64, u64)], ckpt_every: u64) {
    for &(step, n) in &steps[1..] {
        if step % ckpt_every == 0 {
            assert!(n > 0, "sync step {step} wrote a checkpoint unseen: {steps:?}");
        } else {
            assert_eq!(n, 0, "sync step {step} made {n} allocations: {steps:?}");
        }
    }
}

#[test]
fn one_group_steps_allocate_nothing() {
    let _serial = serial();
    let (_, mesh, cfg) = fixture();
    let solver = ElasticSolver::new(&mesh, &cfg);
    let scope = solver.full_scope();
    assert!(mesh.n_hanging() > 0 && !scope.faces.is_empty() && scope.schedule.n_damped() > 0);
    let steps = per_step_allocations(&solver, None, 12, 3);
    assert_eq!(steps.len(), 12);
    assert_steady_state_allocates_nothing(&steps, 3);
}

#[test]
fn rate_group_steps_allocate_nothing() {
    let _serial = serial();
    let (_, mesh, cfg) = fixture();
    let solver = ElasticSolver::new(&mesh, &cfg);
    let plan = RateGroupPlan::build(&solver, 3);
    assert_eq!(plan.n_groups(), 3);
    let cycle = plan.cycle();
    let steps = per_step_allocations(&solver, Some(&plan), 12 * cycle, 3 * cycle);
    assert_eq!(steps.len(), 12);
    assert_steady_state_allocates_nothing(&steps, 3 * cycle);
}

/// The workspace owns the run's buffers, so a second run on a warm one
/// allocates no mesh-sized vector: `run` allocates nothing, a 3-group
/// `run_grouped` only its list of passes.
#[test]
fn warm_second_run_allocates_no_mesh_sized_buffer() {
    let _serial = serial();
    let (_, mesh, cfg) = fixture();
    let solver = ElasticSolver::new(&mesh, &cfg);
    let grouped = RateGroupPlan::build(&solver, 3);
    assert_eq!(grouped.n_groups(), 3);
    let harness = SolverHarness::new(&solver);
    let (u0, v0) = pulse(&mesh);
    let initial = Some((&u0[..], &v0[..]));
    let nodes = [0, mesh.n_nodes() as u32 / 2];
    for (plan, expected) in [(None, 0), (Some(&grouped), 1)] {
        let m = plan.map_or(1, RateGroupPlan::cycle);
        let mut ws = solver.workspace();
        let mut state = match plan {
            None => solver.initial_state(nodes.len(), initial),
            Some(plan) => plan.initial_state(&solver, nodes.len(), initial),
        };
        for tr in &mut state.seismograms {
            tr.data.reserve(3 * 8 * m as usize);
        }
        let mut run = |until| {
            let cfg = RunConfig::to_step(until);
            let mut hooks: [&mut dyn StepHook; 1] = [&mut ReceiverHook::new(&nodes)];
            match plan {
                None => harness.run(&cfg, &mut state, &mut ws, &mut NoExchange, &mut hooks),
                Some(plan) => harness.run_grouped(
                    plan,
                    &cfg,
                    &mut state,
                    &mut ws,
                    &mut NoExchange,
                    &mut hooks,
                ),
            }
        };
        run(4 * m);
        let (n, outcome) = allocations(|| run(8 * m));
        assert!(matches!(outcome, RunOutcome::Finished { executed } if executed == 4 * m));
        assert_eq!(n, expected, "warm second run of plan {:?}", plan.map(|p| p.n_groups()));
    }
}

/// A warmed serve worker allocates per request, never per step: the same
/// count for a budget of N steps and of 2N.
#[test]
fn warm_run_scenario_allocations_do_not_grow_with_steps() {
    let _serial = serial();
    let (tree, mesh, cfg) = fixture();
    let solver = ElasticSolver::new(&mesh, &cfg);
    let sources = [PointSource {
        position: [4.0, 4.0, 4.0],
        moment: DoubleCouple::moment_tensor(0.4, 0.9, 0.2, 1.0),
        slip: SlipFunction::new(0.0, 0.2, 1.0),
    }];
    let receivers = [[1.0, 1.0, 0.0], [6.0, 5.0, 0.0]];
    let mut scratch = ServeScratch::for_solver(&solver, receivers.len());
    let mut serve =
        |steps| run_scenario(&solver, &tree, &sources, &receivers, Some(steps), &mut scratch);
    let n = 8;
    serve(2 * n);
    let (short, a) = allocations(|| serve(n));
    let (long, b) = allocations(|| serve(2 * n));
    assert_eq!((a.executed_steps, b.executed_steps), (n, 2 * n));
    assert_eq!(short, long, "a warm run_scenario allocates per step");
}

/// An adjoint solve into a history buffer kept from an earlier solve
/// allocates a fixed number of nodal vectors, never one per step: the same
/// count for N steps and for 2N.
#[test]
fn warm_adjoint_allocations_do_not_grow_with_steps() {
    let _serial = serial();
    let warm_adjoint = |n_steps: usize| {
        let eq = ShSolver::new(&ShConfig {
            nx: 12,
            nz: 8,
            h: 500.0,
            rho: 2200.0,
            dt: 0.05,
            n_steps,
            receivers: vec![],
            mu_background: 2200.0 * 2000.0 * 2000.0,
            absorbing: [true; 3],
        })
        .with_surface_receivers(4);
        let mu = vec![2200.0 * 2000.0 * 2000.0; eq.n_elements()];
        let residuals: Vec<Vec<f64>> =
            (0..eq.receivers().len()).map(|r| values(n_steps, r as u64)).collect();
        let mut history = Vec::new();
        adjoint(&eq, &mu, &residuals, &mut history);
        let (count, ()) = allocations(|| adjoint(&eq, &mu, &residuals, &mut history));
        assert_eq!(history.len(), n_steps + 1);
        count
    };
    let n = 16;
    let (short, long) = (warm_adjoint(n), warm_adjoint(2 * n));
    assert_eq!(short, long, "a warm adjoint allocates per step");
}

/// Ranks allocate only the documented exchange payload: one `Vec` per
/// neighbor message, plus the channel's amortised block.
#[test]
fn two_rank_steps_allocate_only_exchange_payloads() {
    let _serial = serial();
    let (_, mesh, cfg) = fixture();
    let solver = ElasticSolver::new(&mesh, &cfg);
    let (u0, v0) = pulse(&mesh);
    let counted = |steps| {
        let before = PROCESS.load(Ordering::Relaxed);
        let run = run_distributed(&solver, &DistConfig::new(2, steps).with_initial(&u0, &v0));
        (PROCESS.load(Ordering::Relaxed) - before, run)
    };
    let n = 8;
    counted(n); // first use of threads and channels
    let (short, run) = counted(n);
    let (long, _) = counted(2 * n);
    // Two ranks, one neighbor each: two messages per step.
    let messages_per_step = run.volumes.iter().filter(|&&v| v > 0).count() as u64;
    assert_eq!(messages_per_step, 2);
    let extra = long - short;
    assert!(
        extra <= 2 * messages_per_step * n as u64,
        "{n} more steps made {extra} more allocations ({messages_per_step} messages per step)"
    );
}

// ---- decoders -----------------------------------------------------------

/// A damaged copy of a file image and what was done to it.
struct Damaged {
    what: String,
    bytes: Vec<u8>,
}

/// Bytes of the frame header in front of the payload: magic, version, kind
/// length and kind, step, payload length.
fn header_len(kind: &str) -> usize {
    4 + 4 + 4 + kind.len() + 8 + 8
}

/// Every damaged image of the framed `img`: truncation at every byte, every
/// bit flip in the header, 256 LCG-chosen bit flips in the payload, and the
/// frame's two lengths plus each count field of the payload — `(payload
/// offset, width)` — rewritten to 0, len ± 1 and the maximum, with the CRC
/// re-signed so that the decoder behind the frame sees the lie.
fn damaged(img: &[u8], kind: &str, fields: &[(usize, usize)]) -> Vec<Damaged> {
    let header = header_len(kind);
    let mut out: Vec<Damaged> = (0..img.len())
        .map(|n| Damaged { what: format!("truncated to {n} bytes"), bytes: img[..n].to_vec() })
        .collect();
    let flip = |bit: usize| {
        let mut bytes = img.to_vec();
        bytes[bit / 8] ^= 1 << (bit % 8);
        Damaged { what: format!("bit {bit} flipped"), bytes }
    };
    out.extend((0..8 * header).map(flip));
    let payload_bits = 8 * (img.len() - header - 4);
    let mut seed = 0x5EED;
    out.extend((0..256).map(|_| flip(8 * header + lcg(&mut seed) as usize % payload_bits)));
    let frame = [(8, 4), (header - 8, 8)];
    let payload = fields.iter().map(|&(off, width)| (header + off, width));
    for (off, width) in frame.into_iter().chain(payload) {
        let mut word = [0u8; 8];
        word[..width].copy_from_slice(&img[off..off + width]);
        let len = u64::from_le_bytes(word);
        let max = if width == 4 { u64::from(u32::MAX) } else { u64::MAX };
        for lie in [0, len.wrapping_sub(1), len + 1, max] {
            let mut bytes = img.to_vec();
            bytes[off..off + width].copy_from_slice(&lie.to_le_bytes()[..width]);
            let n = bytes.len();
            let crc = crc32(&bytes[..n - 4]);
            bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
            out.push(Damaged { what: format!("length {len} at byte {off} set to {lie}"), bytes });
        }
    }
    out
}

/// Feeds every case to `accepts`, which must say no to each — without a
/// panic, and without one allocation above four bytes per input byte (a
/// decoded element never costs more than 3× its smallest encoding: a
/// `(Vec, Vec)` secant pair is 48 B for ≥ 16 B), plus 256 bytes for paths
/// and error text.
fn assert_rejected(cases: &[Damaged], mut accepts: impl FnMut(&[u8]) -> bool) {
    for case in cases {
        LARGEST.with(|m| m.set(0));
        let accepted = catch_unwind(AssertUnwindSafe(|| accepts(&case.bytes)))
            .unwrap_or_else(|_| panic!("{}: the decoder panicked", case.what));
        let largest = LARGEST.with(Cell::get);
        assert!(!accepted, "{}: accepted", case.what);
        let bound = 4 * case.bytes.len() + 256;
        assert!(largest <= bound, "{}: one allocation of {largest} bytes", case.what);
    }
}

/// The payload offset and width of the count `d` reads next.
fn at(payload: &[u8], d: &Decoder<'_>) -> (usize, usize) {
    (payload.len() - d.remaining(), 8)
}

/// The trace count and each trace's component count and sample count, for
/// the seismogram list `d` reads next (`SolverState` and `CachedResult`
/// encode it alike).
fn trace_fields(payload: &[u8], d: &mut Decoder<'_>, fields: &mut Vec<(usize, usize)>) {
    fields.push(at(payload, d));
    for _ in 0..d.take_u64().unwrap() {
        d.take_f64().unwrap();
        fields.push(at(payload, d));
        d.take_u64().unwrap();
        fields.push(at(payload, d));
        d.take_f64_vec().unwrap();
    }
}

fn values(n: usize, seed: u64) -> Vec<f64> {
    let mut s = seed;
    (0..n).map(|_| 0.5 + lcg(&mut s) as f64 * 1e-3).collect()
}

/// Five 3-component samples: 15 values, which a component count of 2 or 4
/// does not divide, so an off-by-one count cannot decode.
fn trace(seed: u64) -> Seismogram {
    Seismogram { dt: 0.01, ncomp: 3, data: values(15, seed) }
}

#[test]
fn ckpt_frame_rejects_every_damaged_image() {
    let _serial = serial();
    const KIND: &str = "quake.test.frame.v1";
    let mut seed = 3;
    let payload: Vec<u8> = (0..64).map(|_| lcg(&mut seed) as u8).collect();
    let img = encode_file(KIND, 42, &payload);
    assert_eq!(decode_file(KIND, &img).unwrap(), (42, &payload[..]));
    assert_rejected(&damaged(&img, KIND, &[]), |bytes| decode_file(KIND, bytes).is_ok());
}

#[test]
fn solver_state_checkpoints_reject_every_damaged_image() {
    let _serial = serial();
    let state = SolverState {
        step: 9,
        u_prev: values(12, 1),
        u_now: values(12, 2),
        seismograms: vec![trace(3), trace(4)],
    };
    let dir = tmpdir("solver-state");
    let writer = CheckpointWriter::new(&dir, "state").unwrap();
    let path = writer.write(state.step, &state, &Registry::disabled()).unwrap();
    let reader = CheckpointReader::new(&dir, "state");
    assert_eq!(reader.load::<SolverState>(state.step).unwrap().1, state);

    let img = std::fs::read(&path).unwrap();
    let payload = &img[header_len(SolverState::KIND)..img.len() - 4];
    let mut d = Decoder::new(payload);
    let mut fields = Vec::new();
    d.take_u64().unwrap();
    for _ in 0..2 {
        fields.push(at(payload, &d));
        d.take_f64_vec().unwrap();
    }
    trace_fields(payload, &mut d, &mut fields);
    assert_rejected(&damaged(&img, SolverState::KIND, &fields), |bytes| {
        std::fs::write(&path, bytes).unwrap();
        reader.load::<SolverState>(state.step).is_ok()
    });
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn result_cache_misses_and_drops_every_damaged_entry() {
    let _serial = serial();
    let dir = tmpdir("cache");
    let cache = ResultCache::open(&dir, 0).unwrap();
    let reg = Registry::disabled();
    let key = RequestKey::of(b"corruption");
    let result =
        CachedResult { executed_steps: 5, element_updates: 250, traces: vec![trace(1), trace(2)] };
    cache.put(&key, &result, &reg).unwrap();
    let path = dir.join(format!("{}.{}", key.hex(), quake::serve::cache::EXTENSION));
    let img = std::fs::read(&path).unwrap();
    assert_eq!(cache.get(&key, &reg), Some(result));

    let payload = &img[header_len(RESULT_KIND)..img.len() - 4];
    let mut d = Decoder::new(payload);
    let mut fields = Vec::new();
    d.take_u64().unwrap();
    trace_fields(payload, &mut d, &mut fields);
    let mut kept = 0;
    assert_rejected(&damaged(&img, RESULT_KIND, &fields), |bytes| {
        std::fs::write(&path, bytes).unwrap();
        let hit = cache.get(&key, &reg).is_some();
        kept += path.exists() as usize;
        hit
    });
    assert_eq!(kept, 0, "damaged entries left in the cache");
    std::fs::remove_dir_all(&dir).unwrap();
}
