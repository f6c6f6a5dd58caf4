//! The blocked element sweep: per-class stiffness templates applied to
//! cache-sized batches of elements, one class run after another.
//!
//! Octree meshes have very few *distinct* elements: all elements of one
//! refinement level share the side `h`, so elements agreeing on `(h, lambda,
//! mu)` share the exact combined stiffness `T = h (lambda K_L + mu K_M)`
//! (`quake_fem::hex8::combined_hex_stiffness`). A [`SweepSchedule`]
//! precomputes one 24x24 template per distinct class and orders the scope's
//! elements class-major: every element of a class in one run, ascending id
//! (Morton) order inside it. The kernel then processes a class run in tiles
//! of up to [`BATCH`] elements:
//!
//! ```text
//! gather   X[24 x B]  <- dt^2 u + (dt beta_e/2) w   (planar SoA reads)
//! matvec   Y[24 x B]  =  T[24 x 24] X[24 x B]       (one L1-resident template)
//! scatter  rhs       -=  Y                          (planar SoA writes)
//! ```
//!
//! versus the fused per-element kernel this replaces, the template matvec
//! does half the flops (one 24x24 matrix instead of two canonical ones) and
//! streams no matrix data at all in the steady state (the active template
//! stays in L1 across its whole run).
//!
//! The matvec is the whole cost of the sweep, so what matters is how many of
//! the lanes it computes hold a real element. A tile of `nb` elements is
//! computed as `ceil(nb / LG)` *lane groups* of `LG` elements each — fixed
//! width, so the inner loops vectorize without a reduction dependency, but
//! narrow, so a class run wastes at most `LG - 1` lanes instead of
//! `BATCH - 1`. With one run per class that is at most `LG - 1` padded
//! lanes per class: on the LA-basin benchmark mesh (670 classes)
//! [`SweepSchedule::lane_fill`] reads ~0.96.
//!
//! The sweep is serial within a rank (parallelism lives in ranks and serve
//! workers — see DESIGN.md "Why the sweep is serial within a rank"), so its
//! element order is the summation order at every node: a schedule built
//! from the same element set always sums in the same order. Each element's
//! own accumulation runs in fixed ascending-column order, independent of
//! its batch position, so the sweep is bit-deterministic.

use quake_fem::hex8::combined_hex_stiffness;
use quake_mesh::HexMesh;

/// Gather/scatter tile: elements staged per kernel invocation. 32 elements
/// keep the X/Y scratch (2 x 24 x 32 doubles = 12 KiB) plus one template
/// (4.5 KiB) L1-resident.
pub const BATCH: usize = 32;

/// Lane-group width of the template matvec: a tile is computed in groups of
/// `LG` elements, so a class run of length `L` costs `ceil(L / LG) * LG`
/// lanes. Chosen by measurement from {2, 4, 8} on the default (SSE2) build —
/// see EXPERIMENTS.md "Lane-packed element sweep".
const LG: usize = 4;

/// Template rows one matvec block accumulates together: each loaded `X`
/// group column feeds `ROWS` independent accumulator sets (measured with
/// `LG`; 4 beat 1, 2, 6 and 8).
const ROWS: usize = 4;
const _: () = assert!(BATCH.is_multiple_of(LG) && 24usize.is_multiple_of(ROWS));

/// The elements of one class, half-open over schedule positions.
#[derive(Clone, Copy, Debug)]
struct Run {
    begin: u32,
    end: u32,
}

/// The precomputed element schedule of one [`StepScope`](crate::elastic::StepScope):
/// per-class stiffness templates, the class-major (class, id)-sorted element
/// order, and the per-element gather data (corner nodes, damping scale).
/// Built once per scope, reused every step.
pub struct SweepSchedule {
    n_nodes: usize,
    /// `dt^2`, folded into the gather so the matvec needs no post-scale.
    dt2: f64,
    /// One combined stiffness per class, row-major 24x24.
    templates: Vec<[f64; 576]>,
    /// Corner nodes of scheduled element `j` (all `< n_nodes`).
    nodes: Vec<[u32; 8]>,
    /// Damping gather coefficient `dt beta_e / 2` of scheduled element `j`.
    bscale: Vec<f64>,
    /// Scheduled elements with a nonzero Rayleigh `beta` (the cost model's
    /// damped/undamped split).
    n_damped: usize,
    /// Matvec lanes one sweep computes: every run rounded up to whole lane
    /// groups.
    n_lanes: usize,
    /// `runs[c]` holds the elements of class `c` (template `templates[c]`).
    runs: Vec<Run>,
}

/// Matvec lanes a class run of `len` elements costs.
fn lanes_of(len: usize) -> usize {
    len.div_ceil(LG) * LG
}

impl SweepSchedule {
    /// Build the schedule for an element subset: group its distinct
    /// `(h, lambda, mu)` classes (exact bit equality), precompute one
    /// combined template per class, and sort the elements by (class, id)
    /// so each class is one run in Morton order.
    pub fn build(mesh: &HexMesh, elems: &[u32], beta: &[f64], dt: f64) -> SweepSchedule {
        let n = mesh.n_nodes();
        let class_key = |ei: u32| {
            let e = &mesh.elements[ei as usize];
            (e.h.to_bits(), e.material.lambda.to_bits(), e.material.mu.to_bits())
        };
        let mut order = elems.to_vec();
        order.sort_unstable_by_key(|&ei| (class_key(ei), ei));
        let classes: Vec<&[u32]> = order.chunk_by(|&a, &b| class_key(a) == class_key(b)).collect();
        let templates = classes
            .iter()
            .map(|class| {
                let (h, l, m) = class_key(class[0]);
                combined_hex_stiffness(f64::from_bits(l), f64::from_bits(m), f64::from_bits(h))
            })
            .collect();

        let mut nodes = Vec::with_capacity(order.len());
        let mut bscale = Vec::with_capacity(order.len());
        let mut runs = Vec::with_capacity(classes.len());
        let mut n_damped = 0;
        for class in classes {
            let begin = nodes.len() as u32;
            for &ei in class {
                let e = &mesh.elements[ei as usize];
                assert!(e.nodes.iter().all(|&nd| (nd as usize) < n), "element node out of range");
                nodes.push(e.nodes);
                bscale.push(0.5 * dt * beta[ei as usize]);
                n_damped += usize::from(beta[ei as usize] != 0.0);
            }
            runs.push(Run { begin, end: nodes.len() as u32 });
        }
        let n_lanes = runs.iter().map(|r| lanes_of((r.end - r.begin) as usize)).sum();
        SweepSchedule {
            n_nodes: n,
            dt2: dt * dt,
            templates,
            nodes,
            bscale,
            n_damped,
            n_lanes,
            runs,
        }
    }

    /// Number of scheduled elements.
    pub fn n_elements(&self) -> usize {
        self.bscale.len()
    }

    /// Number of scheduled elements with a nonzero Rayleigh `beta`.
    pub fn n_damped(&self) -> usize {
        self.n_damped
    }

    /// Matvec lanes one sweep of the schedule computes: each class run of
    /// length `L` costs `ceil(L / LG) * LG`.
    pub fn n_lanes(&self) -> usize {
        self.n_lanes
    }

    /// Share of the computed matvec lanes that hold a scheduled element
    /// (1.0 for an empty schedule): the useful fraction of the flops the
    /// sweep executes.
    pub fn lane_fill(&self) -> f64 {
        if self.n_lanes == 0 {
            return 1.0;
        }
        self.n_elements() as f64 / self.n_lanes as f64
    }

    /// Number of distinct stiffness classes (levels x materials).
    pub fn n_classes(&self) -> usize {
        self.templates.len()
    }

    // The blocked element kernel runs once per element per step on
    // fixed-size stack scratch (the root `alloc_free` tests count it).
    /// Process every scheduled element, class by class. `u_now`/`w`/`rhs`
    /// are planar (`dof = comp * n_nodes + node`).
    pub fn sweep(&self, u_now: &[f64], w: &[f64], rhs: &mut [f64]) {
        let n = self.n_nodes;
        assert_eq!(u_now.len(), 3 * n);
        assert_eq!(w.len(), 3 * n);
        assert_eq!(rhs.len(), 3 * n);
        let dt2 = self.dt2;
        // Tile scratch, lane-group major: X holds the combined gather, Y the
        // template matvec; element `b` of a tile is lane `b % LG` of group
        // `b / LG`. Stale lanes of a tile's last group are finite garbage
        // whose Y columns are computed but never scattered.
        let mut x = [[[0.0f64; LG]; 24]; BATCH / LG];
        let mut y = [[[0.0f64; LG]; 24]; BATCH / LG];
        for (r, t) in self.runs.iter().zip(&self.templates) {
            let mut j = r.begin as usize;
            let end = r.end as usize;
            while j < end {
                let nb = (end - j).min(BATCH);
                let tile_nodes = &self.nodes[j..j + nb];
                for (b, (nds, &bs)) in tile_nodes.iter().zip(&self.bscale[j..j + nb]).enumerate() {
                    let xg = &mut x[b / LG];
                    for (c8, &nd) in nds.iter().enumerate() {
                        for comp in 0..3 {
                            let dof = comp * n + nd as usize;
                            xg[3 * c8 + comp][b % LG] = dt2 * u_now[dof] + bs * w[dof];
                        }
                    }
                }
                // Y[r][:] = sum_c T[r][c] X[c][:] over the tile's occupied
                // lane groups only, fixed ascending-c order: each lane's sum
                // is independent of batch composition and nb, so
                // per-element results are bit-stable.
                let groups = nb.div_ceil(LG);
                for (xg, yg) in x[..groups].iter().zip(&mut y[..groups]) {
                    for row in (0..24).step_by(ROWS) {
                        let mut acc = [[0.0f64; LG]; ROWS];
                        for c in 0..24 {
                            for (k, a) in acc.iter_mut().enumerate() {
                                let trc = t[24 * (row + k) + c];
                                for b in 0..LG {
                                    a[b] += trc * xg[c][b];
                                }
                            }
                        }
                        yg[row..row + ROWS].copy_from_slice(&acc);
                    }
                }
                for (b, nds) in tile_nodes.iter().enumerate() {
                    let yg = &y[b / LG];
                    for (c8, &nd) in nds.iter().enumerate() {
                        for comp in 0..3 {
                            rhs[comp * n + nd as usize] -= yg[3 * c8 + comp][b % LG];
                        }
                    }
                }
                j += nb;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quake_fem::hex8::{elastic_hex_matrices, elastic_matvec};
    use quake_mesh::hexmesh::ElemMaterial;
    use quake_mesh::{mesh_from_model, MeshingParams};
    use quake_model::LaBasinModel;
    use quake_octree::{BalanceMode, LinearOctree, MAX_LEVEL};
    use std::collections::{BTreeMap, HashMap};

    fn hanging_mesh() -> HexMesh {
        let half = 1u32 << (MAX_LEVEL - 1);
        let mut tree = LinearOctree::build(|o| o.level < 3 || (o.level < 4 && o.x < half));
        tree.balance(BalanceMode::Full);
        HexMesh::from_octree(&tree, 8.0, |x, _, _, _| ElemMaterial {
            lambda: if x < 4.0 { 2.0 } else { 3.5 },
            mu: if x < 4.0 { 1.0 } else { 0.8 },
            rho: 1.0,
        })
    }

    fn rnd_vec(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect()
    }

    fn class_key(mesh: &HexMesh, ei: u32) -> (u64, u64, u64) {
        let e = &mesh.elements[ei as usize];
        (e.h.to_bits(), e.material.lambda.to_bits(), e.material.mu.to_bits())
    }

    /// The blocked template sweep against a plain per-element loop using the
    /// canonical two-matrix matvec: <= 1e-13 relative on every dof, across
    /// levels (two octree levels in the mesh) and heterogeneous materials.
    #[test]
    fn blocked_sweep_matches_per_element_matvec() {
        let mesh = hanging_mesh();
        let n = mesh.n_nodes();
        let elems: Vec<u32> = (0..mesh.n_elements() as u32).collect();
        let beta: Vec<f64> = (0..mesh.n_elements()).map(|i| 0.01 * (i % 3) as f64).collect();
        let dt = 0.05;
        let sched = SweepSchedule::build(&mesh, &elems, &beta, dt);
        assert!(sched.n_classes() >= 2, "expected multiple (h, material) classes");
        assert_eq!(sched.n_elements(), mesh.n_elements());

        let u = rnd_vec(3 * n, 0xA5A5);
        let w = rnd_vec(3 * n, 0x5A5A);
        let mut rhs = vec![0.0; 3 * n];
        sched.sweep(&u, &w, &mut rhs);

        // Reference: interleaved gather + canonical matvec, any order.
        let mats = elastic_hex_matrices();
        let dt2 = dt * dt;
        let mut rhs_ref = vec![0.0; 3 * n];
        for (i, e) in mesh.elements.iter().enumerate() {
            let bs = 0.5 * dt * beta[i];
            let mut xc = [0.0; 24];
            for (c, &nd) in e.nodes.iter().enumerate() {
                for comp in 0..3 {
                    let dof = comp * n + nd as usize;
                    xc[3 * c + comp] = dt2 * u[dof] + bs * w[dof];
                }
            }
            let mut y = [0.0; 24];
            elastic_matvec(mats, e.material.lambda, e.material.mu, e.h, &xc, &mut y);
            for (c, &nd) in e.nodes.iter().enumerate() {
                for comp in 0..3 {
                    rhs_ref[comp * n + nd as usize] -= y[3 * c + comp];
                }
            }
        }
        let scale = rhs_ref.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(scale > 0.0);
        for d in 0..3 * n {
            assert!(
                (rhs[d] - rhs_ref[d]).abs() <= 1e-13 * scale,
                "dof {d}: {} vs {}",
                rhs[d],
                rhs_ref[d]
            );
        }
    }

    /// A three-level mesh with hanging nodes whose materials are assigned so
    /// the schedule's class runs take every length `1..=2 * BATCH + LG`:
    /// all remainders mod `LG` and mod `BATCH`, with zero, one and two full
    /// tiles in front. Each level's elements are cut into consecutive
    /// classes of the wanted lengths, largest first.
    fn every_run_length_mesh() -> HexMesh {
        let half = 1u32 << (MAX_LEVEL - 1);
        let quarter = half / 2;
        let mut tree = LinearOctree::build(|o| {
            o.level < 3
                || (o.level < 4 && o.x < half)
                || (o.level < 5 && o.x < quarter && o.y < quarter && o.z < quarter)
        });
        tree.balance(BalanceMode::Full);
        let mut mesh = HexMesh::from_octree(&tree, 8.0, |_, _, _, _| ElemMaterial {
            lambda: 2.0,
            mu: 1.0,
            rho: 1.0,
        });
        assert!(mesh.n_hanging() > 0);
        let mut by_h = BTreeMap::<u64, Vec<u32>>::new();
        for (ei, e) in mesh.elements.iter().enumerate() {
            by_h.entry(e.h.to_bits()).or_default().push(ei as u32);
        }
        let mut wanted: Vec<usize> = (1..=2 * BATCH + LG).collect();
        let mut class = 0;
        for ids in by_h.values() {
            let mut rest = &ids[..];
            while !rest.is_empty() {
                let len = match wanted.iter().rposition(|&l| l <= rest.len()) {
                    Some(i) => wanted.remove(i),
                    None => rest.len(),
                };
                class += 1;
                for &ei in &rest[..len] {
                    mesh.elements[ei as usize].material.lambda = 2.0 + 1e-3 * class as f64;
                }
                rest = &rest[len..];
            }
        }
        assert!(wanted.is_empty(), "mesh too small for run lengths {wanted:?}");
        mesh
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every run length, lane-group remainder and tile remainder: one
    /// whole-schedule sweep is bit-equal to a scalar per-element matvec,
    /// accumulating in the same ascending-column order, applied to the
    /// elements in (class, id) order.
    #[test]
    fn every_run_length_is_bit_equal_to_the_scalar_matvec() {
        let mesh = every_run_length_mesh();
        let n = mesh.n_nodes();
        let elems: Vec<u32> = (0..mesh.n_elements() as u32).collect();
        let beta: Vec<f64> = (0..mesh.n_elements()).map(|i| 0.01 * (i % 3) as f64).collect();
        let dt = 0.05;
        let sched = SweepSchedule::build(&mesh, &elems, &beta, dt);
        let mut lens: Vec<usize> = sched.runs.iter().map(|r| (r.end - r.begin) as usize).collect();
        assert_eq!(sched.n_lanes(), lens.iter().map(|&l| lanes_of(l)).sum::<usize>());
        lens.sort_unstable();
        lens.dedup();
        for want in 1..=2 * BATCH + LG {
            assert!(lens.binary_search(&want).is_ok(), "no class run of length {want}");
        }

        let u = rnd_vec(3 * n, 0xA5A5);
        let w = rnd_vec(3 * n, 0x5A5A);
        let dt2 = dt * dt;
        let mut got = vec![0.0; 3 * n];
        sched.sweep(&u, &w, &mut got);
        let mut order = elems.clone();
        order.sort_unstable_by_key(|&ei| (class_key(&mesh, ei), ei));
        let mut want = vec![0.0; 3 * n];
        for &ei in &order {
            let e = &mesh.elements[ei as usize];
            let t = combined_hex_stiffness(e.material.lambda, e.material.mu, e.h);
            let bs = 0.5 * dt * beta[ei as usize];
            let mut x = [0.0; 24];
            for (c, &nd) in e.nodes.iter().enumerate() {
                for comp in 0..3 {
                    let dof = comp * n + nd as usize;
                    x[3 * c + comp] = dt2 * u[dof] + bs * w[dof];
                }
            }
            for (c, &nd) in e.nodes.iter().enumerate() {
                for comp in 0..3 {
                    let row = 3 * c + comp;
                    let mut acc = 0.0;
                    for col in 0..24 {
                        acc += t[24 * row + col] * x[col];
                    }
                    want[comp * n + nd as usize] -= acc;
                }
            }
        }
        assert_eq!(bits(&got), bits(&want));
    }

    /// The schedule is class-major: one run per class, ascending element
    /// ids inside each run, every scope element exactly once, and lanes
    /// `sum_c ceil(n_c / LG) * LG` over the class sizes `n_c`.
    fn assert_class_major(mesh: &HexMesh, elems: &[u32]) -> SweepSchedule {
        let sched = SweepSchedule::build(mesh, elems, &vec![0.0; mesh.n_elements()], 0.05);
        let mut sizes = BTreeMap::<(u64, u64, u64), usize>::new();
        for &ei in elems {
            *sizes.entry(class_key(mesh, ei)).or_default() += 1;
        }
        assert_eq!(sched.runs.len(), sched.n_classes());
        assert_eq!(sched.n_classes(), sizes.len());
        assert_eq!(sched.n_lanes(), sizes.values().map(|&c| c.div_ceil(4) * 4).sum::<usize>());

        // Corner-node sets identify elements.
        let id_of: HashMap<[u32; 8], u32> =
            elems.iter().map(|&ei| (mesh.elements[ei as usize].nodes, ei)).collect();
        let mut seen = Vec::with_capacity(elems.len());
        for r in &sched.runs {
            let ids: Vec<u32> =
                sched.nodes[r.begin as usize..r.end as usize].iter().map(|nd| id_of[nd]).collect();
            assert!(ids.windows(2).all(|p| p[0] < p[1]), "run ids not ascending");
            assert!(ids.iter().all(|&ei| class_key(mesh, ei) == class_key(mesh, ids[0])));
            assert_eq!(ids.len(), sizes[&class_key(mesh, ids[0])]);
            seen.extend(ids);
        }
        seen.sort_unstable();
        let mut scope = elems.to_vec();
        scope.sort_unstable();
        assert_eq!(seen, scope);
        sched
    }

    #[test]
    fn schedule_is_one_ascending_run_per_class() {
        let mesh = crate::rategroup::tests::three_level_mesh();
        let all: Vec<u32> = (0..mesh.n_elements() as u32).collect();
        assert_eq!(assert_class_major(&mesh, &all).n_classes(), 3);
        // A scope handed over in descending order schedules the same way.
        let odd: Vec<u32> = all.iter().rev().copied().filter(|e| e % 2 == 1).collect();
        assert_class_major(&mesh, &odd);

        // The LA-basin mesh of the benchmark's `basin_forward` workload.
        let extent = 20_000.0;
        let mut meshing = MeshingParams::new(extent, 0.3);
        meshing.max_level = 6;
        let basin = mesh_from_model(&meshing, &LaBasinModel::scaled(400.0, extent)).1;
        let all: Vec<u32> = (0..basin.n_elements() as u32).collect();
        assert_eq!(assert_class_major(&basin, &all).n_classes(), 670);
    }

    /// Lane fill of a single class run of length `L` is exactly
    /// `L / (ceil(L / LG) * LG)`: at most `LG - 1` lanes are wasted however
    /// short the run, where computing whole tiles wasted up to `BATCH - 1`.
    #[test]
    fn lane_fill_of_a_run_is_its_length_over_its_lane_groups() {
        let mesh = HexMesh::from_octree(&LinearOctree::uniform(4), 8.0, |_, _, _, _| {
            ElemMaterial { lambda: 2.0, mu: 1.0, rho: 1.0 }
        });
        let elems: Vec<u32> = (0..mesh.n_elements() as u32).collect();
        let beta = vec![0.0; mesh.n_elements()];
        for len in 1..=2 * BATCH + LG {
            // One level and one material make any subset one run.
            let sched = SweepSchedule::build(&mesh, &elems[..len], &beta, 0.05);
            assert_eq!((sched.runs.len(), sched.n_elements()), (1, len));
            let groups = len.div_ceil(LG);
            assert_eq!(sched.n_lanes(), groups * LG);
            assert_eq!(sched.lane_fill(), len as f64 / (groups * LG) as f64);
        }
    }
}
