//! The blocked element sweep: per-class stiffness templates applied to
//! cache-sized batches of elements, color by color.
//!
//! Octree meshes have very few *distinct* elements: all elements of one
//! refinement level share the side `h`, so elements agreeing on `(h, lambda,
//! mu)` share the exact combined stiffness `T = h (lambda K_L + mu K_M)`
//! (`quake_fem::hex8::combined_hex_stiffness`). A [`SweepSchedule`]
//! precomputes one 24x24 template per distinct class and reorders each color
//! of the node-disjoint coloring so same-class elements are contiguous; the
//! kernel then processes a class run in tiles of up to [`BATCH`] elements:
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
//! narrow, so a short class run wastes at most `LG - 1` lanes instead of
//! `BATCH - 1`. On a wavelength-adapted mesh the runs are short (the LA-basin
//! benchmark mesh has 670 classes and a mean run of 13.6 elements): computing
//! all `BATCH` lanes of every tile made at most 42% of the executed flops
//! useful there, and that — not memory traffic — was the whole gap to the
//! 2-class layered mesh. [`SweepSchedule::lane_fill`] reports the ratio.
//!
//! The sweep is serial within a rank; the coloring it walks is a
//! deterministic element *order*, not a race guard (parallelism lives in
//! ranks and serve workers — see DESIGN.md "Why the sweep is serial
//! within a rank"). Reordering elements within a color is bit-safe: the
//! coloring is node-disjoint, so within one color every rhs entry is written
//! by at most one element — the scatter order cannot change any
//! floating-point sum. Each element's own accumulation runs in fixed
//! ascending-column order, independent of its batch position, so the sweep
//! is bit-deterministic.

use quake_fem::hex8::combined_hex_stiffness;
use quake_mesh::coloring::ElementColoring;
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

/// A maximal run of same-class elements inside one color, half-open over
/// schedule positions.
#[derive(Clone, Copy, Debug)]
struct Run {
    class: u32,
    begin: u32,
    end: u32,
}

/// The precomputed element schedule of one [`StepScope`](crate::elastic::StepScope):
/// per-class stiffness templates, the color-major (class, id)-sorted element
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
    /// Class-homogeneous runs in schedule order.
    runs: Vec<Run>,
    /// Color `ci` owns `runs[color_runs[ci]..color_runs[ci+1]]`.
    color_runs: Vec<usize>,
}

/// Matvec lanes a class run of `len` elements costs.
fn lanes_of(len: usize) -> usize {
    len.div_ceil(LG) * LG
}

impl SweepSchedule {
    /// Build the schedule for a colored element subset: group the mesh's
    /// distinct `(h, lambda, mu)` classes (exact bit equality), precompute
    /// one combined template per class, and sort each color's elements by
    /// (class, id) so the kernel sees maximal same-template runs.
    pub fn build(
        mesh: &HexMesh,
        coloring: &ElementColoring,
        beta: &[f64],
        dt: f64,
    ) -> SweepSchedule {
        let n = mesh.n_nodes();
        let class_key = |ei: u32| {
            let e = &mesh.elements[ei as usize];
            (e.h.to_bits(), e.material.lambda.to_bits(), e.material.mu.to_bits())
        };
        let mut keys: Vec<(u64, u64, u64)> = coloring.order.iter().map(|&e| class_key(e)).collect();
        keys.sort_unstable();
        keys.dedup();
        let templates = keys
            .iter()
            .map(|&(h, l, m)| {
                combined_hex_stiffness(f64::from_bits(l), f64::from_bits(m), f64::from_bits(h))
            })
            .collect();

        let n_sched = coloring.order.len();
        let mut nodes = Vec::with_capacity(n_sched);
        let mut bscale = Vec::with_capacity(n_sched);
        let mut runs: Vec<Run> = Vec::new();
        let mut color_runs = Vec::with_capacity(coloring.n_colors() + 1);
        color_runs.push(0);
        let mut pos = 0u32;
        let mut n_damped = 0;
        let mut sorted: Vec<(u32, u32)> = Vec::new();
        for color in coloring.colors() {
            sorted.clear();
            for &ei in color {
                // Every scheduled element's class key was collected above.
                let found = keys.binary_search(&class_key(ei));
                assert!(found.is_ok(), "class registered for every scheduled element");
                sorted.push((found.unwrap_or_default() as u32, ei));
            }
            // Within a color the node sets are pairwise disjoint, so any
            // element order gives bit-identical scatters; (class, id) order
            // maximizes template reuse while keeping Morton order per class.
            sorted.sort_unstable();
            for &(class, ei) in &*sorted {
                let e = &mesh.elements[ei as usize];
                assert!(e.nodes.iter().all(|&nd| (nd as usize) < n), "element node out of range");
                nodes.push(e.nodes);
                bscale.push(0.5 * dt * beta[ei as usize]);
                n_damped += usize::from(beta[ei as usize] != 0.0);
                // Extend the current run only within this color (a run that
                // ended exactly at the previous color boundary must not leak
                // across it).
                let at_boundary = color_runs.last() == Some(&runs.len());
                match runs.last_mut() {
                    Some(r) if r.class == class && r.end == pos && !at_boundary => {
                        r.end = pos + 1;
                    }
                    _ => runs.push(Run { class, begin: pos, end: pos + 1 }),
                }
                pos += 1;
            }
            color_runs.push(runs.len());
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
            color_runs,
        }
    }

    pub fn n_colors(&self) -> usize {
        self.color_runs.len() - 1
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

    // lint:hot-path — the blocked element kernel: per-class template
    // batches, fixed-size stack scratch only. Runs once per element per
    // step.
    /// Process every element of color `ci`. `u_now`/`w`/`rhs` are planar
    /// (`dof = comp * n_nodes + node`).
    pub fn sweep_color(&self, ci: usize, u_now: &[f64], w: &[f64], rhs: &mut [f64]) {
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
        for r in &self.runs[self.color_runs[ci]..self.color_runs[ci + 1]] {
            let t = &self.templates[r.class as usize];
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
    // lint:hot-path-end
}

#[cfg(test)]
mod tests {
    use super::*;
    use quake_fem::hex8::{elastic_hex_matrices, elastic_matvec};
    use quake_mesh::coloring::color_elements;
    use quake_mesh::hexmesh::ElemMaterial;
    use quake_octree::{BalanceMode, LinearOctree, MAX_LEVEL};

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

    /// The blocked template sweep against a plain per-element loop using the
    /// canonical two-matrix matvec: <= 1e-13 relative on every dof, across
    /// levels (two octree levels in the mesh) and heterogeneous materials.
    #[test]
    fn blocked_sweep_matches_per_element_matvec() {
        let mesh = hanging_mesh();
        let n = mesh.n_nodes();
        let elems: Vec<u32> = (0..mesh.n_elements() as u32).collect();
        let coloring = color_elements(&mesh, &elems);
        let beta: Vec<f64> = (0..mesh.n_elements()).map(|i| 0.01 * (i % 3) as f64).collect();
        let dt = 0.05;
        let sched = SweepSchedule::build(&mesh, &coloring, &beta, dt);
        assert!(sched.n_classes() >= 2, "expected multiple (h, material) classes");
        assert_eq!(sched.n_elements(), mesh.n_elements());

        let u = rnd_vec(3 * n, 0xA5A5);
        let w = rnd_vec(3 * n, 0x5A5A);
        let mut rhs = vec![0.0; 3 * n];
        for ci in 0..sched.n_colors() {
            sched.sweep_color(ci, &u, &w, &mut rhs);
        }

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
    /// tiles in front. Each (color, h) group's elements get one material per
    /// run, packing the wanted lengths largest first.
    fn every_run_length_mesh() -> (HexMesh, ElementColoring) {
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
        let elems: Vec<u32> = (0..mesh.n_elements() as u32).collect();
        let coloring = color_elements(&mesh, &elems);
        let mut wanted: Vec<usize> = (1..=2 * BATCH + LG).collect();
        let mut class = 0;
        for color in coloring.colors() {
            let mut by_h = std::collections::BTreeMap::<u64, Vec<u32>>::new();
            for &ei in color {
                by_h.entry(mesh.elements[ei as usize].h.to_bits()).or_default().push(ei);
            }
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
        }
        assert!(wanted.is_empty(), "mesh too small for run lengths {wanted:?}");
        (mesh, coloring)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every run length, lane-group remainder and tile remainder: the lane
    /// packed sweep of each color is bit-equal to a scalar per-element
    /// matvec accumulating in the same ascending-column order.
    #[test]
    fn every_run_length_is_bit_equal_to_the_scalar_matvec() {
        let (mesh, coloring) = every_run_length_mesh();
        let n = mesh.n_nodes();
        let beta: Vec<f64> = (0..mesh.n_elements()).map(|i| 0.01 * (i % 3) as f64).collect();
        let dt = 0.05;
        let sched = SweepSchedule::build(&mesh, &coloring, &beta, dt);
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
        for ci in 0..sched.n_colors() {
            let mut got = vec![0.0; 3 * n];
            sched.sweep_color(ci, &u, &w, &mut got);
            let mut want = vec![0.0; 3 * n];
            for &ei in coloring.color(ci) {
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
            assert_eq!(bits(&got), bits(&want), "color {ci}");
        }
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
        let first_color = color_elements(&mesh, &elems).color(0).to_vec();
        let beta = vec![0.0; mesh.n_elements()];
        for len in 1..=2 * BATCH + LG {
            // Elements of one color are node-disjoint, so they stay one
            // color, and one material makes them one run.
            let coloring = color_elements(&mesh, &first_color[..len]);
            let sched = SweepSchedule::build(&mesh, &coloring, &beta, 0.05);
            assert_eq!((sched.n_colors(), sched.runs.len(), sched.n_elements()), (1, 1, len));
            let groups = len.div_ceil(LG);
            assert_eq!(sched.n_lanes(), groups * LG);
            assert_eq!(sched.lane_fill(), len as f64 / (groups * LG) as f64);
        }
    }
}
