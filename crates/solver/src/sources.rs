//! Seismic source injection: moment-tensor point sources as equivalent
//! nodal forces.
//!
//! A moment tensor `M` at point `xs` is the equivalent body force
//! `b = -div(M delta(x - xs))`; its weak form gives the nodal forces
//! `f_{a,i} = sum_j M_ij dphi_a/dx_j (xs)` on the nodes of the containing
//! element (and, through the hanging-node projection, their masters). The
//! time dependence is the normalized dislocation ramp `g(t; T, t0)` of the
//! slip function.

use quake_fem::shape::hex8_dn;
use quake_mesh::HexMesh;
use quake_model::{PointSource, SlipFunction};
use quake_octree::LinearOctree;

/// A point source assembled onto its containing element's nodes.
#[derive(Clone, Debug)]
pub struct AssembledSource {
    /// (dof index, weight): `f[dof] += weight * g(t)`.
    pub weights: Vec<(u32, f64)>,
    pub slip: SlipFunction,
}

impl AssembledSource {
    /// Accumulate this source's force at time `t` into an *interleaved*
    /// (`dof = 3 * node + comp`) force vector — the layout the weights are
    /// stored in.
    pub fn add_force(&self, t: f64, f: &mut [f64]) {
        // `moment` was folded into the weights; `g` carries the normalized
        // ramp (amplitude folded in too, so use the normalized value).
        let g = self.slip.dg_d_amplitude(t);
        if g == 0.0 {
            return;
        }
        for &(dof, w) in &self.weights {
            f[dof as usize] += w * g;
        }
    }

    /// [`AssembledSource::add_force`] into a *planar* force vector
    /// (`dof = comp * n + node`, `n = f.len() / 3` — the elastic solver's
    /// internal layout, see `quake_solver::layout`). Same weights, same
    /// per-dof accumulation order, so the injected values are identical.
    pub fn add_force_planar(&self, t: f64, f: &mut [f64]) {
        let g = self.slip.dg_d_amplitude(t);
        if g == 0.0 {
            return;
        }
        let n = f.len() / 3;
        for &(dof, w) in &self.weights {
            let (nd, comp) = (dof as usize / 3, dof as usize % 3);
            f[comp * n + nd] += w * g;
        }
    }
}

/// Assemble point moment sources onto the mesh.
///
/// Panics if a source lies outside the domain, or if its moment or slip
/// fails [`PointSource::check`] (the message names the field).
pub fn assemble_point_sources(
    mesh: &HexMesh,
    tree: &LinearOctree,
    sources: &[PointSource],
) -> Vec<AssembledSource> {
    sources
        .iter()
        .enumerate()
        .map(|(i, s)| {
            if let Err(why) = s.check() {
                panic!("source {i}: {why}");
            }
            let (ei, xi) = mesh
                .locate(tree, s.position)
                .unwrap_or_else(|| panic!("source at {:?} outside the domain", s.position));
            let e = &mesh.elements[ei as usize];
            let dn = hex8_dn(xi);
            let mut weights = Vec::with_capacity(24);
            for (a, &nd) in e.nodes.iter().enumerate() {
                for i in 0..3 {
                    let mut w = 0.0;
                    for j in 0..3 {
                        // Physical gradient = reference gradient / h.
                        w += s.moment[i][j] * dn[a][j] / e.h;
                    }
                    if w != 0.0 {
                        weights.push((nd * 3 + i as u32, w));
                    }
                }
            }
            AssembledSource { weights, slip: s.slip }
        })
        .collect()
}

/// Nodal force version (point force at the nearest node), for tests and
/// simple excitations.
pub fn point_force(
    mesh: &HexMesh,
    position: [f64; 3],
    direction: [f64; 3],
    slip: SlipFunction,
) -> AssembledSource {
    let nd = mesh.nearest_node(position);
    let weights = (0..3)
        .filter(|&i| direction[i] != 0.0)
        .map(|i| (nd * 3 + i as u32, direction[i]))
        .collect();
    AssembledSource { weights, slip }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quake_mesh::hexmesh::ElemMaterial;
    use quake_model::DoubleCouple;
    use quake_octree::LinearOctree;

    fn setup() -> (LinearOctree, HexMesh) {
        let t = LinearOctree::uniform(2);
        let m = HexMesh::from_octree(&t, 8.0, |_, _, _, _| ElemMaterial {
            lambda: 2.0,
            mu: 1.0,
            rho: 1.0,
        });
        (t, m)
    }

    /// Source inputs that would make the force non-finite, or its ramp a
    /// step or constant in time, panic and name the field.
    #[test]
    fn non_finite_source_inputs_panic_and_name_the_field() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let (t, m) = setup();
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        let slip = |d, r, a| {
            Box::new(move || {
                let _ = SlipFunction::new(d, r, a);
            }) as Box<dyn Fn()>
        };
        let good = PointSource {
            position: [4.3, 3.9, 4.1],
            moment: DoubleCouple::moment_tensor(0.5, 0.9, 0.3, 2.0),
            slip: SlipFunction::new(0.0, 1.0, 1.0),
        };
        let assemble = |edit: fn(&mut PointSource)| {
            let mut s = good;
            edit(&mut s);
            let (t, m) = (&t, &m);
            Box::new(move || drop(assemble_point_sources(m, t, &[good, s]))) as Box<dyn Fn()>
        };
        let cases: Vec<(&str, Box<dyn Fn()>)> = vec![
            ("SlipFunction::delay", slip(nan, 0.8, 1.0)),
            ("SlipFunction::delay", slip(inf, 0.8, 1.0)),
            ("SlipFunction::delay", slip(-inf, 0.8, 1.0)),
            ("SlipFunction::rise", slip(0.0, inf, 1.0)),
            ("SlipFunction::rise", slip(0.0, nan, 1.0)),
            ("SlipFunction::rise", slip(0.0, 0.0, 1.0)),
            ("SlipFunction::rise", slip(0.0, -1.0, 1.0)),
            ("SlipFunction::amplitude", slip(0.0, 0.8, nan)),
            ("SlipFunction::amplitude", slip(0.0, 0.8, -inf)),
            ("source 1: PointSource::moment[1][2]", assemble(|s| s.moment[1][2] = f64::NAN)),
            ("source 1: PointSource::moment[0][0]", assemble(|s| s.moment[0][0] = f64::INFINITY)),
            ("source 1: SlipFunction::rise", assemble(|s| s.slip.rise = 0.0)),
            ("source 1: SlipFunction::delay", assemble(|s| s.slip.delay = f64::NAN)),
        ];
        for (field, case) in cases {
            let err = catch_unwind(AssertUnwindSafe(case)).expect_err(field);
            let msg = err.downcast_ref::<String>().map_or("", |s| s.as_str());
            assert!(msg.starts_with(field), "expected a panic naming {field}, got {msg:?}");
        }
        // A negative delay only shifts the origin time.
        slip(-1.0, 0.8, 1.0)();
        assemble(|_| ())();
    }

    #[test]
    fn moment_source_forces_are_self_equilibrated() {
        let (t, m) = setup();
        let src = PointSource {
            position: [4.3, 3.9, 4.1],
            moment: DoubleCouple::moment_tensor(0.5, 0.9, 0.3, 2.0),
            slip: SlipFunction::new(0.0, 1.0, 1.0),
        };
        let asm = assemble_point_sources(&m, &t, &[src]);
        assert_eq!(asm.len(), 1);
        // Net force must vanish (a moment source carries no net thrust):
        // sum_a dphi_a/dx_j = 0 at any interior point.
        let mut f = vec![0.0; 3 * m.n_nodes()];
        asm[0].add_force(10.0, &mut f); // fully ramped
        let mut net = [0.0; 3];
        for (nd, c) in f.chunks(3).enumerate() {
            let _ = nd;
            for i in 0..3 {
                net[i] += c[i];
            }
        }
        for v in net {
            assert!(v.abs() < 1e-9, "net thrust {net:?}");
        }
        // But the force field itself is nonzero.
        assert!(f.iter().any(|&v| v.abs() > 1e-6));
    }

    #[test]
    fn force_ramps_with_slip_function() {
        let (t, m) = setup();
        let src = PointSource {
            position: [4.0, 4.0, 4.0],
            moment: DoubleCouple::moment_tensor(0.0, 1.0, 0.0, 1.0),
            slip: SlipFunction::new(1.0, 2.0, 1.0),
        };
        let asm = &assemble_point_sources(&m, &t, &[src])[0];
        let mut f0 = vec![0.0; 3 * m.n_nodes()];
        asm.add_force(0.5, &mut f0);
        assert!(f0.iter().all(|&v| v == 0.0), "no force before the delay");
        let mut fh = vec![0.0; 3 * m.n_nodes()];
        asm.add_force(2.0, &mut fh); // mid-rise: ramp = 1/2
        let mut ff = vec![0.0; 3 * m.n_nodes()];
        asm.add_force(100.0, &mut ff);
        for (a, b) in fh.iter().zip(&ff) {
            assert!((2.0 * a - b).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "outside the domain")]
    fn source_outside_domain_panics() {
        let (t, m) = setup();
        let src = PointSource {
            position: [100.0, 0.0, 0.0],
            moment: [[0.0; 3]; 3],
            slip: SlipFunction::new(0.0, 1.0, 1.0),
        };
        let _ = assemble_point_sources(&m, &t, &[src]);
    }

    #[test]
    fn point_force_targets_one_node() {
        let (_, m) = setup();
        let s = point_force(&m, [4.0, 4.0, 0.0], [0.0, 0.0, 1.5], SlipFunction::new(0.0, 1.0, 1.0));
        assert_eq!(s.weights.len(), 1);
        let (dof, w) = s.weights[0];
        assert_eq!(dof % 3, 2);
        assert_eq!(w, 1.5);
    }
}
