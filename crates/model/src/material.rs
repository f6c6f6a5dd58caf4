//! Material models: pointwise elastic properties of the ground.

/// Isotropic elastic material at a point. SI units.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Material {
    /// P-wave velocity (m/s).
    pub vp: f64,
    /// S-wave velocity (m/s).
    pub vs: f64,
    /// Density (kg/m^3).
    pub rho: f64,
}

impl Material {
    pub fn new(vp: f64, vs: f64, rho: f64) -> Material {
        let m = Material { vp, vs, rho };
        m.validate();
        m
    }

    /// Panics, naming the field, if the material is unphysical.
    pub fn validate(&self) {
        for (field, v) in [("vp", self.vp), ("vs", self.vs), ("rho", self.rho)] {
            assert!(
                v.is_finite() && v > 0.0,
                "Material::{field} must be finite and positive: {self:?}"
            );
        }
        assert!(
            self.vp > self.vs * (4.0f64 / 3.0).sqrt(),
            "Material::vp must exceed sqrt(4/3) vs (positive bulk modulus): {self:?}"
        );
    }

    /// Shear modulus `mu = rho vs^2` (Pa).
    pub fn mu(&self) -> f64 {
        self.rho * self.vs * self.vs
    }

    /// First Lame modulus `lambda = rho (vp^2 - 2 vs^2)` (Pa).
    pub fn lambda(&self) -> f64 {
        self.rho * (self.vp * self.vp - 2.0 * self.vs * self.vs)
    }

    /// Poisson's ratio.
    pub fn poisson(&self) -> f64 {
        let r = (self.vp / self.vs).powi(2);
        (r - 2.0) / (2.0 * (r - 1.0))
    }
}

/// A pointwise material model over the (cubic) computational domain.
///
/// Positions are in meters: `x` north, `y` east, `z` depth (down positive).
pub trait MaterialModel: Sync {
    fn sample(&self, x: f64, y: f64, z: f64) -> Material;

    /// Minimum shear velocity inside an axis-aligned box — used by the
    /// wavelength-adaptive mesher. The default probes the center, the 8
    /// corners and the 6 face centers; models with sharper structure should
    /// override.
    fn min_vs_in_box(&self, lo: [f64; 3], hi: [f64; 3]) -> f64 {
        let mid = [(lo[0] + hi[0]) / 2.0, (lo[1] + hi[1]) / 2.0, (lo[2] + hi[2]) / 2.0];
        let mut min = f64::INFINITY;
        let mut probe = |x: f64, y: f64, z: f64| {
            let m = self.sample(x, y, z);
            if m.vs < min {
                min = m.vs;
            }
        };
        probe(mid[0], mid[1], mid[2]);
        for cx in [lo[0], hi[0]] {
            for cy in [lo[1], hi[1]] {
                for cz in [lo[2], hi[2]] {
                    probe(cx, cy, cz);
                }
            }
        }
        probe(mid[0], mid[1], lo[2]);
        probe(mid[0], mid[1], hi[2]);
        probe(mid[0], lo[1], mid[2]);
        probe(mid[0], hi[1], mid[2]);
        probe(lo[0], mid[1], mid[2]);
        probe(hi[0], mid[1], mid[2]);
        min
    }
}

/// Uniform material everywhere.
#[derive(Clone, Copy, Debug)]
pub struct HomogeneousModel(pub Material);

impl MaterialModel for HomogeneousModel {
    fn sample(&self, _x: f64, _y: f64, _z: f64) -> Material {
        self.0
    }
}

/// Horizontally layered halfspace: layers ordered by increasing depth; the
/// last layer extends to infinity.
#[derive(Clone, Debug)]
pub struct LayeredModel {
    /// `(top_depth_m, material)`, sorted by `top_depth_m`, first at 0.
    layers: Vec<(f64, Material)>,
}

impl LayeredModel {
    pub fn new(layers: Vec<(f64, Material)>) -> LayeredModel {
        assert!(!layers.is_empty(), "need at least one layer");
        assert_eq!(layers[0].0, 0.0, "first layer must start at the free surface");
        for w in layers.windows(2) {
            assert!(w[0].0 < w[1].0, "layer tops must be strictly increasing");
        }
        for (_, m) in &layers {
            m.validate();
        }
        LayeredModel { layers }
    }

    pub fn layer_at(&self, z: f64) -> &Material {
        let i = self.layers.partition_point(|(top, _)| *top <= z);
        &self.layers[i.saturating_sub(1)].1
    }

    pub fn layers(&self) -> &[(f64, Material)] {
        &self.layers
    }
}

impl MaterialModel for LayeredModel {
    fn sample(&self, _x: f64, _y: f64, z: f64) -> Material {
        *self.layer_at(z)
    }

    fn min_vs_in_box(&self, lo: [f64; 3], hi: [f64; 3]) -> f64 {
        // vs is piecewise constant in depth; the minimum over the box is the
        // minimum over layers intersecting [lo.z, hi.z].
        let mut min = self.layer_at(lo[2]).vs;
        for (top, m) in &self.layers {
            if *top >= lo[2] && *top <= hi[2] && m.vs < min {
                min = m.vs;
            }
        }
        min
    }
}

/// The classic verification setup: a soft layer over a stiff halfspace
/// (Fig 2.2's geometry).
pub fn layer_over_halfspace(layer_depth: f64, soft: Material, stiff: Material) -> LayeredModel {
    LayeredModel::new(vec![(0.0, soft), (layer_depth, stiff)])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn soft() -> Material {
        Material::new(1000.0, 400.0, 1800.0)
    }

    fn stiff() -> Material {
        Material::new(5000.0, 2800.0, 2600.0)
    }

    #[test]
    fn moduli_roundtrip() {
        let m = Material::new(2000.0, 1000.0, 2200.0);
        assert!((m.mu() - 2200.0 * 1.0e6).abs() < 1e-3);
        assert!((m.lambda() - 2200.0 * (4.0e6 - 2.0e6)).abs() < 1e-3);
        // vp = sqrt((lambda + 2 mu) / rho) must recover vp.
        let vp = ((m.lambda() + 2.0 * m.mu()) / m.rho).sqrt();
        assert!((vp - m.vp).abs() < 1e-9);
        // Poisson for vp/vs = 2 is 1/3.
        assert!((m.poisson() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "vp must exceed")]
    fn unphysical_vp_vs_ratio_rejected() {
        Material::new(1000.0, 999.0, 2000.0);
    }

    #[test]
    fn layered_lookup() {
        let m = layer_over_halfspace(500.0, soft(), stiff());
        assert_eq!(m.sample(0.0, 0.0, 0.0).vs, 400.0);
        assert_eq!(m.sample(0.0, 0.0, 499.9).vs, 400.0);
        assert_eq!(m.sample(0.0, 0.0, 500.0).vs, 2800.0);
        assert_eq!(m.sample(1e5, -1e5, 1e4).vs, 2800.0);
    }

    #[test]
    fn layered_min_vs_sees_buried_soft_layer() {
        // Stiff crust over a soft low-velocity zone: a box spanning the
        // interface must report the soft vs even though its corners are stiff.
        let m = LayeredModel::new(vec![(0.0, stiff()), (1000.0, soft()), (1200.0, stiff())]);
        let min = m.min_vs_in_box([0.0, 0.0, 900.0], [100.0, 100.0, 1300.0]);
        assert_eq!(min, 400.0);
        // A box entirely above stays stiff.
        let min = m.min_vs_in_box([0.0, 0.0, 0.0], [100.0, 100.0, 800.0]);
        assert_eq!(min, 2800.0);
    }

    #[test]
    fn homogeneous_min_vs() {
        let h = HomogeneousModel(soft());
        assert_eq!(h.min_vs_in_box([0.0; 3], [1.0; 3]), 400.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_layers_rejected() {
        LayeredModel::new(vec![(0.0, soft()), (100.0, stiff()), (50.0, soft())]);
    }
}
