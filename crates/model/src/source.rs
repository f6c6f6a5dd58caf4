//! Earthquake source models.
//!
//! The paper represents rupture as a displacement dislocation on a fault
//! plane, applied to the FEM system as equivalent body forces. Every point of
//! the fault carries a dislocation history `u0 * g(t; T, t0)` where `g` ramps
//! from 0 to 1 with a *triangular* slip-rate of duration `t0` starting at the
//! delay time `T` (Fig 3.1). The source inversion needs `dg/dT` and
//! `dg/dt0`, which are provided analytically.

/// Normalized dislocation history with delay `T`, rise time `t0` and
/// amplitude `u0` (total slip).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SlipFunction {
    /// Delay time T (s): rupture arrival at this fault point.
    pub delay: f64,
    /// Rise time t0 (s): duration of the triangular slip-rate pulse.
    pub rise: f64,
    /// Dislocation amplitude u0 (m): total slip.
    pub amplitude: f64,
}

impl SlipFunction {
    /// Panics, naming the field, unless `delay` and `amplitude` are finite
    /// and `rise` is finite and positive.
    pub fn new(delay: f64, rise: f64, amplitude: f64) -> SlipFunction {
        let s = SlipFunction { delay, rise, amplitude };
        if let Err(why) = s.check() {
            panic!("{why}");
        }
        s
    }

    /// A zero or negative rise time turns the ramp into a step, and a
    /// non-finite delay makes `g` constant in time. Negative delays are
    /// allowed: they just shift the origin time (the source inversion must
    /// be free to move arrivals both ways).
    fn check(&self) -> Result<(), String> {
        if !self.delay.is_finite() {
            return Err(format!("SlipFunction::delay must be finite: {}", self.delay));
        }
        if !(self.rise.is_finite() && self.rise > 0.0) {
            return Err(format!("SlipFunction::rise must be finite and positive: {}", self.rise));
        }
        if !self.amplitude.is_finite() {
            return Err(format!("SlipFunction::amplitude must be finite: {}", self.amplitude));
        }
        Ok(())
    }

    /// Normalized ramp r(tau) in [0,1] (integral of the unit triangle).
    fn ramp(&self, tau: f64) -> f64 {
        let t0 = self.rise;
        if tau <= 0.0 {
            0.0
        } else if tau < 0.5 * t0 {
            2.0 * tau * tau / (t0 * t0)
        } else if tau < t0 {
            1.0 - 2.0 * (t0 - tau) * (t0 - tau) / (t0 * t0)
        } else {
            1.0
        }
    }

    /// Slip `u0 * g(t)`.
    pub fn g(&self, t: f64) -> f64 {
        self.amplitude * self.ramp(t - self.delay)
    }

    /// Slip rate (the triangle of Fig 3.1), peak `2 u0 / t0`.
    pub fn g_dot(&self, t: f64) -> f64 {
        let tau = t - self.delay;
        let t0 = self.rise;
        let r = if tau <= 0.0 || tau >= t0 {
            0.0
        } else if tau < 0.5 * t0 {
            4.0 * tau / (t0 * t0)
        } else {
            4.0 * (t0 - tau) / (t0 * t0)
        };
        self.amplitude * r
    }

    /// `d g / d T` (analytic; equals `-g_dot`).
    pub fn dg_d_delay(&self, t: f64) -> f64 {
        -self.g_dot(t)
    }

    /// `d g / d t0` (analytic).
    pub fn dg_d_rise(&self, t: f64) -> f64 {
        let tau = t - self.delay;
        let t0 = self.rise;
        let d = if tau <= 0.0 || tau >= t0 {
            0.0
        } else if tau < 0.5 * t0 {
            -4.0 * tau * tau / (t0 * t0 * t0)
        } else {
            -4.0 * (t0 - tau) * tau / (t0 * t0 * t0)
        };
        self.amplitude * d
    }

    /// `d g / d u0` (the normalized ramp itself).
    pub fn dg_d_amplitude(&self, t: f64) -> f64 {
        self.ramp(t - self.delay)
    }
}

/// Double-couple moment tensors (Aki & Richards convention:
/// x north, y east, z down; angles in radians).
pub struct DoubleCouple;

impl DoubleCouple {
    /// Moment tensor of a shear dislocation with the given strike, dip, rake
    /// and scalar moment `m0` (N m). Symmetric, trace-free, with eigenvalues
    /// `(m0, 0, -m0)`.
    pub fn moment_tensor(strike: f64, dip: f64, rake: f64, m0: f64) -> [[f64; 3]; 3] {
        let (sf, cf) = strike.sin_cos();
        let (sd, cd) = dip.sin_cos();
        let (sl, cl) = rake.sin_cos();
        let s2f = 2.0 * sf * cf;
        let c2f = cf * cf - sf * sf;
        let s2d = 2.0 * sd * cd;
        let c2d = cd * cd - sd * sd;
        let mxx = -m0 * (sd * cl * s2f + s2d * sl * sf * sf);
        let mxy = m0 * (sd * cl * c2f + 0.5 * s2d * sl * s2f);
        let mxz = -m0 * (cd * cl * cf + c2d * sl * sf);
        let myy = m0 * (sd * cl * s2f - s2d * sl * cf * cf);
        let myz = -m0 * (cd * cl * sf - c2d * sl * cf);
        let mzz = m0 * s2d * sl;
        [[mxx, mxy, mxz], [mxy, myy, myz], [mxz, myz, mzz]]
    }
}

/// A point moment-tensor source.
#[derive(Clone, Copy, Debug)]
pub struct PointSource {
    /// Location (m): x north, y east, z down.
    pub position: [f64; 3],
    /// Moment tensor (N m); the time dependence is `moment * slip.g(t) /
    /// slip.amplitude` — i.e. `slip` carries the history, `moment` the
    /// final tensor.
    pub moment: [[f64; 3]; 3],
    pub slip: SlipFunction,
}

impl PointSource {
    /// `Err` names the first moment entry or slip field that would make the
    /// injected force non-finite or its ramp a step.
    pub fn check(&self) -> Result<(), String> {
        for (i, row) in self.moment.iter().enumerate() {
            if let Some(j) = row.iter().position(|m| !m.is_finite()) {
                return Err(format!("PointSource::moment[{i}][{j}] must be finite: {}", row[j]));
            }
        }
        self.slip.check()
    }
}

/// An extended fault: a rectangular rupture discretized into point sources
/// with a radially propagating rupture front (a Haskell-type model; the
/// paper's Northridge runs used the same idealization class).
#[derive(Clone, Debug)]
pub struct ExtendedFault {
    /// Geometric center of the rupture rectangle (m, x N / y E / z down).
    pub center: [f64; 3],
    /// Strike, dip, rake (radians).
    pub strike: f64,
    pub dip: f64,
    pub rake: f64,
    /// Along-strike length and down-dip width (m).
    pub length: f64,
    pub width: f64,
    /// Hypocenter position on the plane in fractional coordinates
    /// (`0..1` along strike, `0..1` down dip).
    pub hypocenter_frac: [f64; 2],
    /// Rupture-front speed (m/s).
    pub rupture_velocity: f64,
    /// Rise time of each subfault (s).
    pub rise_time: f64,
    /// Total seismic moment (N m).
    pub total_moment: f64,
}

impl ExtendedFault {
    /// Unit vector along strike.
    pub fn strike_dir(&self) -> [f64; 3] {
        [self.strike.cos(), self.strike.sin(), 0.0]
    }

    /// Unit vector down dip.
    pub fn dip_dir(&self) -> [f64; 3] {
        [-self.strike.sin() * self.dip.cos(), self.strike.cos() * self.dip.cos(), self.dip.sin()]
    }

    fn point_on_plane(&self, u: f64, v: f64) -> [f64; 3] {
        // u, v in [0,1] along strike / down dip.
        let s = self.strike_dir();
        let d = self.dip_dir();
        let a = (u - 0.5) * self.length;
        let b = (v - 0.5) * self.width;
        [
            self.center[0] + a * s[0] + b * d[0],
            self.center[1] + a * s[1] + b * d[1],
            self.center[2] + a * s[2] + b * d[2],
        ]
    }

    /// Hypocenter in physical coordinates.
    pub fn hypocenter(&self) -> [f64; 3] {
        self.point_on_plane(self.hypocenter_frac[0], self.hypocenter_frac[1])
    }

    /// Discretize into `n_along x n_down` point sources with radial rupture
    /// delays and equal moment release.
    pub fn discretize(&self, n_along: usize, n_down: usize) -> Vec<PointSource> {
        assert!(n_along > 0 && n_down > 0);
        assert!(self.rupture_velocity > 0.0);
        let hypo = self.hypocenter();
        let m0_sub = self.total_moment / (n_along * n_down) as f64;
        let tensor = DoubleCouple::moment_tensor(self.strike, self.dip, self.rake, m0_sub);
        let mut out = Vec::with_capacity(n_along * n_down);
        for j in 0..n_down {
            let v = (j as f64 + 0.5) / n_down as f64;
            for i in 0..n_along {
                let u = (i as f64 + 0.5) / n_along as f64;
                let p = self.point_on_plane(u, v);
                let dist = ((p[0] - hypo[0]).powi(2)
                    + (p[1] - hypo[1]).powi(2)
                    + (p[2] - hypo[2]).powi(2))
                .sqrt();
                out.push(PointSource {
                    position: p,
                    moment: tensor,
                    slip: SlipFunction::new(dist / self.rupture_velocity, self.rise_time, 1.0),
                });
            }
        }
        out
    }

    /// A Northridge-like blind-thrust rupture scaled into a domain of edge
    /// `extent` meters (strike 122 deg, dip 40 deg, rake 101 deg, Mw ~ 6.7).
    pub fn northridge_like(extent: f64) -> ExtendedFault {
        let s = extent / 80_000.0;
        ExtendedFault {
            center: [30_000.0 * s, 28_000.0 * s, 13_000.0 * s],
            strike: 122f64.to_radians(),
            dip: 40f64.to_radians(),
            rake: 101f64.to_radians(),
            length: 18_000.0 * s,
            width: 14_000.0 * s,
            hypocenter_frac: [0.4, 0.85], // deep nucleation, up-dip rupture
            rupture_velocity: 2800.0,
            rise_time: 0.8,
            // Mw 6.7 -> M0 ~ 1.3e19 N m, scaled with rupture area.
            total_moment: 1.3e19 * s * s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slip_ramps_zero_to_amplitude() {
        let s = SlipFunction::new(2.0, 1.5, 0.8);
        assert_eq!(s.g(0.0), 0.0);
        assert_eq!(s.g(2.0), 0.0);
        assert!((s.g(2.75) - 0.4).abs() < 1e-12, "half slip at mid-rise");
        assert!((s.g(3.5) - 0.8).abs() < 1e-12);
        assert!((s.g(100.0) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn slip_rate_is_triangle_integrating_to_amplitude() {
        let s = SlipFunction::new(1.0, 2.0, 1.3);
        // Peak 2 u0 / t0 at mid-rise.
        assert!((s.g_dot(2.0) - 2.0 * 1.3 / 2.0).abs() < 1e-12);
        // Trapezoid integration of g_dot ~ amplitude.
        let dt = 1e-4;
        let mut acc = 0.0;
        let mut t = 0.0;
        while t < 4.0 {
            acc += 0.5 * (s.g_dot(t) + s.g_dot(t + dt)) * dt;
            t += dt;
        }
        assert!((acc - 1.3).abs() < 1e-6, "integral {acc}");
    }

    #[test]
    fn analytic_parameter_derivatives_match_finite_differences() {
        let s = SlipFunction::new(1.0, 2.0, 0.9);
        let eps = 1e-6;
        for &t in &[0.5, 1.2, 1.9, 2.4, 2.9, 3.5] {
            let fd_delay = (SlipFunction::new(1.0 + eps, 2.0, 0.9).g(t)
                - SlipFunction::new(1.0 - eps, 2.0, 0.9).g(t))
                / (2.0 * eps);
            assert!((s.dg_d_delay(t) - fd_delay).abs() < 1e-5, "dT at t={t}");
            let fd_rise = (SlipFunction::new(1.0, 2.0 + eps, 0.9).g(t)
                - SlipFunction::new(1.0, 2.0 - eps, 0.9).g(t))
                / (2.0 * eps);
            assert!((s.dg_d_rise(t) - fd_rise).abs() < 1e-5, "dt0 at t={t}");
            let fd_amp = (SlipFunction::new(1.0, 2.0, 0.9 + eps).g(t)
                - SlipFunction::new(1.0, 2.0, 0.9 - eps).g(t))
                / (2.0 * eps);
            assert!((s.dg_d_amplitude(t) - fd_amp).abs() < 1e-6, "du0 at t={t}");
        }
    }

    #[test]
    fn moment_tensor_is_symmetric_trace_free_double_couple() {
        for (strike, dip, rake) in
            [(0.0, 90.0, 0.0), (122.0, 40.0, 101.0), (45.0, 60.0, -90.0), (200.0, 30.0, 170.0)]
        {
            let m0 = 2.5e18;
            let m = DoubleCouple::moment_tensor(
                f64::to_radians(strike),
                f64::to_radians(dip),
                f64::to_radians(rake),
                m0,
            );
            let trace = m[0][0] + m[1][1] + m[2][2];
            assert!(trace.abs() < 1e-3 * m0, "trace {trace}");
            for i in 0..3 {
                for j in 0..3 {
                    assert_eq!(m[i][j], m[j][i]);
                }
            }
            // A double couple has Frobenius norm sqrt(2) m0 and zero det.
            let frob: f64 = m.iter().flatten().map(|v| v * v).sum();
            assert!((frob - 2.0 * m0 * m0).abs() < 1e-6 * m0 * m0, "frob {frob}");
            let det = m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]);
            assert!(det.abs() < 1e-6 * m0 * m0 * m0, "det {det}");
        }
    }

    #[test]
    fn vertical_strike_slip_has_expected_entries() {
        // strike 0, dip 90, rake 0: Mxy = M0, everything else ~ 0.
        let m = DoubleCouple::moment_tensor(0.0, std::f64::consts::FRAC_PI_2, 0.0, 1.0);
        assert!((m[0][1] - 1.0).abs() < 1e-12);
        assert!(m[0][0].abs() < 1e-12 && m[1][1].abs() < 1e-12 && m[2][2].abs() < 1e-12);
        assert!(m[0][2].abs() < 1e-12 && m[1][2].abs() < 1e-12);
    }

    #[test]
    fn extended_fault_geometry_and_delays() {
        let f = ExtendedFault::northridge_like(80_000.0);
        // Fault-plane normal: strike x dip.
        let (s, d) = (f.strike_dir(), f.dip_dir());
        let n = [s[1] * d[2] - s[2] * d[1], s[2] * d[0] - s[0] * d[2], s[0] * d[1] - s[1] * d[0]];
        let srcs = f.discretize(6, 4);
        assert_eq!(srcs.len(), 24);
        let hypo = f.hypocenter();
        for s in &srcs {
            // Subfaults lie on the plane through the center.
            let d = [
                s.position[0] - f.center[0],
                s.position[1] - f.center[1],
                s.position[2] - f.center[2],
            ];
            let off = d[0] * n[0] + d[1] * n[1] + d[2] * n[2];
            assert!(off.abs() < 1e-6, "subfault off plane by {off}");
            // Delay equals distance from the hypocenter over vr.
            let dist = ((s.position[0] - hypo[0]).powi(2)
                + (s.position[1] - hypo[1]).powi(2)
                + (s.position[2] - hypo[2]).powi(2))
            .sqrt();
            assert!((s.slip.delay - dist / f.rupture_velocity).abs() < 1e-9);
        }
        // Moment is conserved: sum of subfault Frobenius norms = total.
        let frob_sub: f64 =
            srcs.iter().map(|s| s.moment.iter().flatten().map(|v| v * v).sum::<f64>().sqrt()).sum();
        assert!((frob_sub - 2.0f64.sqrt() * f.total_moment).abs() < 1e-3 * f.total_moment);
    }

    #[test]
    fn point_source_moment_ramps() {
        let ps = PointSource {
            position: [0.0; 3],
            moment: DoubleCouple::moment_tensor(0.0, 1.0, 0.5, 1e18),
            slip: SlipFunction::new(1.0, 2.0, 1.0),
        };
        // The moment tensor at time t is `moment` times the normalized ramp.
        let moment_at = |t: f64| ps.moment.map(|row| row.map(|v| v * ps.slip.dg_d_amplitude(t)));
        let zero = moment_at(0.5);
        assert!(zero.iter().flatten().all(|&v| v == 0.0));
        let full = moment_at(10.0);
        assert_eq!(full, ps.moment);
    }
}
