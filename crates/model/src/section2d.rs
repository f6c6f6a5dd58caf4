//! The 2-D basin cross-section of Section 3 — the material-inversion target.
//!
//! Fig 3.2 inverts for the shear-wave velocity in a 35 km x 20 km vertical
//! section through the LA basin, with values between ~1000 and ~3500 m/s, a
//! soft basin lens near the surface and layered bedrock below (sharp
//! interfaces — the reason for total-variation regularization). Density is
//! assumed known and constant, the material is lossless, and motion is
//! antiplane (SH), so the only unknown field is `mu(x, z) = rho vs^2`.

/// The synthetic cross-section target model.
#[derive(Clone, Debug)]
pub struct Section2d {
    /// Horizontal extent (m). Paper: 35 km.
    pub width: f64,
    /// Depth extent (m). Paper: 20 km.
    pub depth: f64,
    /// Constant (known) density, kg/m^3.
    pub rho: f64,
}

impl Default for Section2d {
    fn default() -> Self {
        Section2d { width: 35_000.0, depth: 20_000.0, rho: 2200.0 }
    }
}

impl Section2d {
    /// Target shear velocity (m/s) at `(x, z)`; `z` down, surface at 0.
    ///
    /// Three sharp, dipping bedrock layers (1800 / 2600 / 3500 m/s) with a
    /// soft Gaussian basin lens (down to ~1000 m/s) carved into the top.
    pub fn vs(&self, x: f64, z: f64) -> f64 {
        // Dipping layer interfaces.
        let dip = 0.06; // 6% grade across the section
        let i1 = 3_000.0 + dip * x;
        let i2 = 9_000.0 + 0.5 * dip * x;
        let background = if z < i1 {
            1800.0
        } else if z < i2 {
            2600.0
        } else {
            3500.0
        };
        // Basin lens centered at x = 14 km.
        let r2 = ((x - 14_000.0) / 7_000.0).powi(2) + (z / 2_500.0).powi(2);
        let lens = (-r2).exp();
        let vs = background - 900.0 * lens * if z < i1 { 1.0 } else { 0.0 };
        vs.max(900.0)
    }

    /// Target shear modulus `mu = rho vs^2` (Pa).
    pub fn mu(&self, x: f64, z: f64) -> f64 {
        let v = self.vs(x, z);
        self.rho * v * v
    }

    /// A homogeneous initial guess (the multiscale inversion starts from the
    /// 1x1 grid, i.e. one constant): paper Fig 3.2, first frame.
    pub fn homogeneous_guess_vs(&self) -> f64 {
        2200.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn velocity_range_matches_paper_colorbar() {
        let s = Section2d::default();
        // The target on a 65 x 65 vertex grid, as the inversion grids sample it.
        let g: Vec<f64> = (0..=64)
            .flat_map(|k| (0..=64).map(move |i| (i, k)))
            .map(|(i, k)| s.vs(s.width * i as f64 / 64.0, s.depth * k as f64 / 64.0))
            .collect();
        let min = g.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = g.iter().cloned().fold(0.0, f64::max);
        assert!((900.0..1300.0).contains(&min), "min {min}");
        assert!(max > 3400.0 && max <= 3600.0, "max {max}");
    }

    #[test]
    fn layers_have_sharp_interfaces() {
        let s = Section2d::default();
        // Cross the deep interface away from the lens.
        let x = 30_000.0;
        let i2 = 9_000.0 + 0.03 * x;
        let above = s.vs(x, i2 - 10.0);
        let below = s.vs(x, i2 + 10.0);
        assert!(below - above > 800.0, "{above} -> {below}");
    }

    #[test]
    fn basin_lens_is_soft_and_shallow() {
        let s = Section2d::default();
        assert!(s.vs(14_000.0, 0.0) < 1100.0);
        assert!(s.vs(14_000.0, 15_000.0) > 3000.0);
    }

    #[test]
    fn mu_roundtrip() {
        let s = Section2d::default();
        let v = s.vs(10_000.0, 5_000.0);
        assert!(((s.mu(10_000.0, 5_000.0) / s.rho).sqrt() - v).abs() < 1e-9);
    }
}
