//! The seven workloads. Each is a `fn(&mut Driver)`; see `driver.rs` for
//! the protocol and `README.md` for why each exists.

use crate::driver::Driver;
use quake::mesh::HexMesh;
use quake::model::{ExtendedFault, MaterialModel};
use quake::solver::layout::to_planar3;
use quake::solver::{ElasticSolver, SolverState};
use std::hint::black_box;

mod etree;
mod forward;
mod inverse;
mod lts;
mod ranks;
mod serve;

/// Look a workload up by its declared name.
pub fn by_name(name: &str) -> Option<fn(&mut Driver)> {
    Some(match name {
        "basin_forward" => forward::basin_forward,
        "layered_forward" => forward::layered_forward,
        "fault_zone_lts" => lts::fault_zone_lts,
        "basin_ranks2" => ranks::basin_ranks2,
        "serve_mixed" => serve::serve_mixed,
        "inverse_material" => inverse::inverse_material,
        "etree_mesh" => etree::etree_mesh,
        _ => return None,
    })
}

/// SplitMix64: the benchmark's only randomness, so the same `--seed` gives
/// the same inputs. Seeds change input *values* (rupture timing, pulse
/// position, data noise), never the amount of work, so runs on different
/// seeds stay comparable.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in [-1, 1).
    pub fn signed(&mut self) -> f64 {
        2.0 * self.unit() - 1.0
    }
}

/// Mesh facts shared by every elastic workload: the input fingerprint of
/// the manifest and the `mesh.*` count metrics of the ledger.
pub struct MeshFacts {
    pub elements: usize,
    pub nodes: usize,
    pub hanging: usize,
    pub levels: usize,
    /// Distinct bit-exact `(h, lambda, mu)` triples = stiffness templates.
    pub classes: usize,
}

impl MeshFacts {
    pub fn of(mesh: &HexMesh) -> MeshFacts {
        let mut levels: Vec<u8> = mesh.elements.iter().map(|e| e.level).collect();
        levels.sort_unstable();
        levels.dedup();
        let mut classes: Vec<(u64, u64, u64)> = mesh.elements.iter().map(class_key).collect();
        classes.sort_unstable();
        classes.dedup();
        MeshFacts {
            elements: mesh.n_elements(),
            nodes: mesh.n_nodes(),
            hanging: mesh.n_hanging(),
            levels: levels.len(),
            classes: classes.len(),
        }
    }

    /// `(fingerprint key, ledger metric, value)` of every fact.
    fn fields(&self) -> [(&'static str, &'static str, usize); 5] {
        [
            ("elements", "mesh.elements", self.elements),
            ("nodes", "mesh.nodes", self.nodes),
            ("hanging_nodes", "mesh.hanging_nodes", self.hanging),
            ("levels", "mesh.levels", self.levels),
            ("material_classes", "mesh.material_classes", self.classes),
        ]
    }

    pub fn describe(&self, d: &mut Driver, dt: f64, steps: usize) {
        for (key, _, value) in self.fields() {
            d.describe(key, value as f64);
        }
        d.describe("dt", dt);
        d.describe("steps", steps as f64);
    }

    pub fn record(&self, d: &mut Driver) {
        for (_, metric, value) in self.fields() {
            d.set(metric, value as f64);
        }
    }
}

pub fn class_key(e: &quake::mesh::hexmesh::Element) -> (u64, u64, u64) {
    (e.h.to_bits(), e.material.lambda.to_bits(), e.material.mu.to_bits())
}

/// Interleaved Gaussian displacement pulse (y component) centred at `c`
/// with width `sigma`, hanging nodes interpolated; zero initial velocity.
pub fn gaussian_pulse(mesh: &HexMesh, c: [f64; 3], sigma: f64) -> (Vec<f64>, Vec<f64>) {
    let mut u = vec![0.0; 3 * mesh.n_nodes()];
    for (i, p) in mesh.coords.iter().enumerate() {
        let r2 = (p[0] - c[0]).powi(2) + (p[1] - c[1]).powi(2) + (p[2] - c[2]).powi(2);
        u[3 * i + 1] = (-r2 / (2.0 * sigma * sigma)).exp();
    }
    mesh.interpolate_hanging(&mut u, 3);
    let v = vec![0.0; u.len()];
    (u, v)
}

/// Largest |a - b| over largest |b| (0 when both are all-zero).
pub fn rel_max_diff(a: &[f64], b: &[f64]) -> f64 {
    let scale = b.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let diff = a.iter().zip(b).fold(0.0f64, |m, (x, y)| m.max((x - y).abs()));
    if scale == 0.0 {
        diff
    } else {
        diff / scale
    }
}

pub fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Six stations on the free surface in a ring around the epicentre, close
/// enough for the first arrivals to land inside a short benchmark run.
pub fn epicentral_ring(f: &ExtendedFault, extent: f64) -> Vec<[f64; 3]> {
    (0..6)
        .map(|i| {
            let a = std::f64::consts::TAU * i as f64 / 6.0;
            let r = 0.04 * extent;
            [f.center[0] + r * a.cos(), f.center[1] + r * a.sin(), 0.0]
        })
        .collect()
}

/// `model.*`: median batch of seeded point and box probes.
pub fn probe_model(d: &mut Driver, model: &impl MaterialModel, extent: f64) {
    let mut rng = Rng::new(d.seed(), 2);
    let probes: Vec<[f64; 3]> = (0..1000)
        .map(|_| [rng.unit() * extent, rng.unit() * extent, rng.unit() * extent])
        .collect();
    let sample_s = d.time_median("model/sample", 100, || {
        for p in &probes {
            black_box(model.sample(p[0], p[1], p[2]));
        }
    });
    d.set("model.sample_ns", sample_s * 1e9 / probes.len() as f64);
    let box_s = d.time_median("model/min_vs_in_box", 100, || {
        for p in &probes {
            let hi = [p[0] + 300.0, p[1] + 300.0, p[2] + 300.0];
            black_box(model.min_vs_in_box(*p, hi));
        }
    });
    d.set("model.min_vs_box_ns", box_s * 1e9 / probes.len() as f64);
}

/// `solver.kernel_updates_per_s`: the bare `step_with` loop from an
/// interleaved initial displacement — no sources, hooks or harness. Returns
/// the final state.
pub fn kernel_rate(
    d: &mut Driver,
    solver: &ElasticSolver<'_>,
    u0: &[f64],
    steps: usize,
) -> SolverState {
    let u0p = to_planar3(u0);
    let (mut up, mut un) = (u0p.clone(), u0p);
    let mut next = vec![0.0; up.len()];
    let f = vec![0.0; up.len()];
    let mut ws = solver.workspace();
    let (_, secs) = d.time("solver/step_with x N", || {
        for _ in 0..steps {
            solver.step_with(&up, &un, &f, &mut next, &mut ws);
            std::mem::swap(&mut up, &mut un);
            std::mem::swap(&mut un, &mut next);
        }
    });
    d.set("solver.kernel_updates_per_s", (solver.mesh.n_elements() * steps) as f64 / secs);
    SolverState { step: steps as u64, u_prev: up, u_now: un, seismograms: Vec::new() }
}

/// `solver.phase_*_s`: the step phases the traced repetitions' instrumented
/// workspaces recorded, per repetition.
pub fn record_step_phases(d: &mut Driver) {
    for (metric, span) in [
        ("solver.phase_fill_s", "step/fill"),
        ("solver.phase_elements_s", "step/elements"),
        ("solver.phase_abc_s", "step/abc"),
        ("solver.phase_fold_s", "step/fold"),
        ("solver.phase_exchange_s", "step/exchange"),
        ("solver.phase_tail_s", "step/tail"),
        ("solver.phase_interp_s", "step/interp"),
        ("solver.phase_source_s", "source"),
    ] {
        let secs = d.span_secs_per_traced_rep(span);
        d.set(metric, secs);
    }
}
