//! Model-driven wavelength-adaptive meshing.
//!
//! This is the front door used by the solvers and benchmarks: give it a
//! material model plus `(fmax, points-per-wavelength)` and it returns the
//! balanced octree and the finite-element mesh, with element materials
//! sampled at element centers.

use crate::hexmesh::{ElemMaterial, HexMesh};
use quake_model::MaterialModel;
use quake_octree::adapt::{build_wavelength_adaptive, AdaptParams};
use quake_octree::LinearOctree;

/// Meshing parameters (paper defaults: 10 points per wavelength).
#[derive(Clone, Copy, Debug)]
pub struct MeshingParams {
    /// Physical edge of the cubic domain (m).
    pub domain_size: f64,
    /// Highest resolved frequency (Hz).
    pub fmax: f64,
    /// Grid points per shortest wavelength.
    pub points_per_wavelength: f64,
    /// Octree depth bounds.
    pub min_level: u8,
    pub max_level: u8,
}

impl MeshingParams {
    pub fn new(domain_size: f64, fmax: f64) -> MeshingParams {
        MeshingParams {
            domain_size,
            fmax,
            points_per_wavelength: 10.0,
            min_level: 2,
            max_level: 10,
        }
    }
}

/// Build the wavelength-adaptive octree and mesh for a material model.
///
/// Panics, naming the field, unless the lengths and frequency in `params`
/// are finite and positive and `min_level <= max_level`.
pub fn mesh_from_model(
    params: &MeshingParams,
    model: &impl MaterialModel,
) -> (LinearOctree, HexMesh) {
    for (field, v) in [
        ("domain_size", params.domain_size),
        ("fmax", params.fmax),
        ("points_per_wavelength", params.points_per_wavelength),
    ] {
        assert!(
            v.is_finite() && v > 0.0,
            "MeshingParams::{field} must be finite and positive: {v}"
        );
    }
    assert!(
        params.min_level <= params.max_level,
        "MeshingParams::min_level {} exceeds max_level {}",
        params.min_level,
        params.max_level
    );
    let adapt = AdaptParams {
        domain_size: params.domain_size,
        fmax: params.fmax,
        points_per_wavelength: params.points_per_wavelength,
        max_level: params.max_level,
        min_level: params.min_level,
    };
    let tree = build_wavelength_adaptive(&adapt, |o, l| {
        let c = o.corner_unit();
        let s = o.size_unit();
        let lo = [c[0] * l, c[1] * l, c[2] * l];
        let hi = [(c[0] + s) * l, (c[1] + s) * l, (c[2] + s) * l];
        model.min_vs_in_box(lo, hi)
    });
    let mesh = HexMesh::from_octree(&tree, params.domain_size, |x, y, z, _h| {
        let m = model.sample(x, y, z);
        ElemMaterial { lambda: m.lambda(), mu: m.mu(), rho: m.rho }
    });
    (tree, mesh)
}

#[cfg(test)]
mod tests {
    use super::*;
    use quake_model::{layer_over_halfspace, HomogeneousModel, Material};

    #[test]
    fn homogeneous_model_meshes_uniformly() {
        let model = HomogeneousModel(Material::new(4000.0, 2000.0, 2500.0));
        let p = MeshingParams {
            domain_size: 5_000.0,
            fmax: 0.5,
            points_per_wavelength: 10.0,
            min_level: 1,
            max_level: 6,
        };
        // target h = 2000 / 5 = 400 m -> level 4 (h = 312.5).
        let (tree, mesh) = mesh_from_model(&p, &model);
        assert!(tree.leaves().iter().all(|o| o.level == 4));
        assert_eq!(mesh.n_elements(), 4_096);
        assert_eq!(mesh.n_hanging(), 0);
        let e = &mesh.elements[0];
        assert!((e.material.vs() - 2000.0).abs() < 1e-9);
        assert!((e.material.vp() - 4000.0).abs() < 1e-9);
    }

    /// Every non-finite, zero, negative or inverted input panics, and the
    /// message names the field.
    #[test]
    fn unphysical_model_and_meshing_inputs_panic_and_name_the_field() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        let material = |vp, vs, rho| {
            Box::new(move || {
                let _ = Material::new(vp, vs, rho);
            }) as Box<dyn Fn()>
        };
        let ok = MeshingParams {
            domain_size: 5_000.0,
            fmax: 0.5,
            points_per_wavelength: 10.0,
            min_level: 1,
            max_level: 3,
        };
        let mesh = |edit: fn(&mut MeshingParams)| {
            let mut p = ok;
            edit(&mut p);
            let model = HomogeneousModel(Material::new(4000.0, 2000.0, 2500.0));
            Box::new(move || drop(mesh_from_model(&p, &model))) as Box<dyn Fn()>
        };
        let cases: Vec<(&str, Box<dyn Fn()>)> = vec![
            ("Material::vp", material(inf, 600.0, 1900.0)),
            ("Material::vp", material(-inf, 600.0, 1900.0)),
            ("Material::vp", material(nan, 600.0, 1900.0)),
            ("Material::vs", material(1500.0, nan, 1900.0)),
            ("Material::vs", material(1500.0, inf, 1900.0)),
            ("Material::vs", material(1500.0, 0.0, 1900.0)),
            ("Material::rho", material(1500.0, 600.0, inf)),
            ("Material::rho", material(1500.0, 600.0, nan)),
            ("Material::rho", material(1500.0, 600.0, 0.0)),
            ("Material::rho", material(1500.0, 600.0, -1900.0)),
            ("MeshingParams::domain_size", mesh(|p| p.domain_size = f64::NAN)),
            ("MeshingParams::domain_size", mesh(|p| p.domain_size = -2000.0)),
            ("MeshingParams::domain_size", mesh(|p| p.domain_size = 0.0)),
            ("MeshingParams::domain_size", mesh(|p| p.domain_size = f64::INFINITY)),
            ("MeshingParams::fmax", mesh(|p| p.fmax = f64::NAN)),
            ("MeshingParams::fmax", mesh(|p| p.fmax = 0.0)),
            ("MeshingParams::fmax", mesh(|p| p.fmax = -1.0)),
            ("MeshingParams::fmax", mesh(|p| p.fmax = f64::INFINITY)),
            ("MeshingParams::points_per_wavelength", mesh(|p| p.points_per_wavelength = f64::NAN)),
            ("MeshingParams::points_per_wavelength", mesh(|p| p.points_per_wavelength = 0.0)),
            ("MeshingParams::points_per_wavelength", mesh(|p| p.points_per_wavelength = -10.0)),
            ("MeshingParams::min_level", mesh(|p| (p.min_level, p.max_level) = (4, 2))),
        ];
        for (field, case) in cases {
            let err = catch_unwind(AssertUnwindSafe(case)).expect_err(field);
            let msg = err.downcast_ref::<String>().map_or("", |s| s.as_str());
            assert!(msg.starts_with(field), "expected a panic naming {field}, got {msg:?}");
        }
        // The valid parameters mesh.
        mesh(|_| ())();
    }

    #[test]
    fn layered_model_refines_the_soft_layer() {
        let soft = Material::new(1500.0, 600.0, 1900.0);
        let stiff = Material::new(5000.0, 2800.0, 2600.0);
        let model = layer_over_halfspace(1_000.0, soft, stiff);
        let p = MeshingParams {
            domain_size: 5_000.0,
            fmax: 0.3,
            points_per_wavelength: 10.0,
            min_level: 1,
            max_level: 7,
        };
        let (tree, mesh) = mesh_from_model(&p, &model);
        // Soft layer wants h <= 200 -> level 5 (156 m); halfspace h <= 933
        // -> level 3 (625 m).
        assert_eq!(tree.max_level(), 5);
        assert!(mesh.n_hanging() > 0, "layer transition must create hanging nodes");
        // Shallow elements are soft, deep elements stiff.
        for e in &mesh.elements {
            let z_top = mesh.coords[e.nodes[0] as usize][2];
            if z_top + e.h < 1_000.0 {
                assert!((e.material.vs() - 600.0).abs() < 1e-9);
                assert_eq!(e.level, 5);
            }
            if z_top > 1_700.0 {
                assert!((e.material.vs() - 2800.0).abs() < 1e-9);
            }
        }
    }
}
