//! Non-finite or out-of-range Gauss-Newton settings are refused before any
//! iteration runs, with a panic naming the field. A NaN weight, Armijo
//! constant or tolerance would otherwise stop the inversion at its first
//! iterate, or run every iteration, without an error.

use quake_antiplane::{FaultSource, ShConfig, ShSolver};
use quake_inverse::{
    invert_material, invert_source, GnConfig, MaterialMap, SourceInversionConfig, TvReg,
};
use quake_solver::wave::{forward, ScalarWaveEq};
use std::panic::{catch_unwind, AssertUnwindSafe};

const NAN: f64 = f64::NAN;
const INF: f64 = f64::INFINITY;

fn solver(nx: usize, nz: usize, n_steps: usize) -> ShSolver {
    ShSolver::new(&ShConfig {
        nx,
        nz,
        h: 500.0,
        rho: 2200.0,
        dt: 0.05,
        n_steps,
        receivers: vec![],
        mu_background: 2200.0 * 2000.0 * 2000.0,
        absorbing: [true; 3],
    })
    .with_surface_receivers(4)
}

/// Runs `f` and returns its panic message (`None` if it returned).
fn panic_message(f: impl FnOnce()) -> Option<String> {
    let err = catch_unwind(AssertUnwindSafe(f)).err()?;
    let msg = err.downcast_ref::<String>().cloned();
    Some(msg.or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string())).unwrap_or_default())
}

fn assert_refused(case: &str, field: &str, msg: Option<String>) {
    let msg = msg.unwrap_or_else(|| panic!("{case}: accepted"));
    assert!(msg.contains(field), "{case}: panic message {msg:?} does not name {field}");
}

#[test]
fn invalid_settings_panic_naming_the_field() {
    std::panic::set_hook(Box::new(|_| {}));
    let s = solver(8, 6, 20);
    let centers: Vec<[f64; 3]> = (0..s.n_elements())
        .map(|e| {
            let c = s.elem_center(e);
            [c[0], c[1], 0.0]
        })
        .collect();
    let dims = [3, 2, 1];
    let map = MaterialMap::new(&centers, [4000.0, 3000.0, 1.0], dims);
    let base = 2200.0 * 2000.0f64.powi(2);
    let forcing = |k: usize, f: &mut [f64]| {
        if k < 4 {
            f[20] += 1e8;
        }
    };
    let data =
        forward(&s, &vec![base * 1.1; s.n_elements()], &mut |k, f| forcing(k, f), false).traces;
    let m0 = vec![base; map.n_param()];
    let tv = TvReg { dims, spacing: [2000.0, 3000.0, 1.0], eps: 1.0, beta: 1e-26 };
    let gn = GnConfig { max_gn_iters: 1, barrier: Some((0.1 * base, 1e-6)), ..GnConfig::default() };

    type GnCase = (&'static str, fn(&mut GnConfig));
    let gn_cases: [GnCase; 18] = [
        ("cg_tol", |c| c.cg_tol = NAN),
        ("cg_tol", |c| c.cg_tol = INF),
        ("cg_tol", |c| c.cg_tol = -0.1),
        ("grad_tol", |c| c.grad_tol = NAN),
        ("grad_tol", |c| c.grad_tol = INF),
        ("grad_tol", |c| c.grad_tol = -1e-3),
        ("misfit_tol", |c| c.misfit_tol = NAN),
        ("misfit_tol", |c| c.misfit_tol = -INF),
        ("armijo_c1", |c| c.armijo_c1 = NAN),
        ("armijo_c1", |c| c.armijo_c1 = 0.0),
        ("armijo_c1", |c| c.armijo_c1 = 1.0),
        ("armijo_c1", |c| c.armijo_c1 = -INF),
        ("max_linesearch", |c| c.max_linesearch = 0),
        ("barrier", |c| c.barrier = Some((NAN, 1e-6))),
        ("barrier", |c| c.barrier = Some((-INF, 1e-6))),
        ("barrier", |c| c.barrier = Some((1.0, NAN))),
        ("barrier", |c| c.barrier = Some((1.0, INF))),
        ("barrier", |c| c.barrier = Some((1.0, -1e-6))),
    ];
    for (i, (field, set)) in gn_cases.iter().enumerate() {
        let mut cfg = gn.clone();
        set(&mut cfg);
        let msg = panic_message(|| {
            invert_material(&s, &forcing, &data, &map, &tv, &m0, &cfg);
        });
        assert_refused(&format!("material case {i}"), field, msg);
    }
    type TvCase = (&'static str, fn(&mut TvReg));
    let tv_cases: [TvCase; 8] = [
        ("TvReg::beta", |t| t.beta = NAN),
        ("TvReg::beta", |t| t.beta = INF),
        ("TvReg::beta", |t| t.beta = -1e-26),
        ("TvReg::eps", |t| t.eps = NAN),
        ("TvReg::eps", |t| t.eps = INF),
        ("TvReg::eps", |t| t.eps = 0.0),
        ("TvReg::eps", |t| t.eps = -1.0),
        ("TvReg::eps", |t| t.eps = -INF),
    ];
    for (i, (field, set)) in tv_cases.iter().enumerate() {
        let mut tv = tv.clone();
        set(&mut tv);
        let msg = panic_message(|| {
            invert_material(&s, &forcing, &data, &map, &tv, &m0, &gn);
        });
        assert_refused(&format!("TV case {i}"), field, msg);
    }

    let ss = solver(12, 8, 40);
    let mu = vec![2200.0 * 2000.0 * 2000.0; ss.n_elements()];
    let template = FaultSource::from_hypocenter(&ss, &mu, 6, 2, 6, 3, 2800.0, 1.5, 1.0);
    let src_data =
        forward(&ss, &mu, &mut |k, f| template.add_force(k as f64 * ss.dt(), f), false).traces;
    let ns = template.n_segments();
    let (d0, r0, a0) = (vec![0.5; ns], vec![2.5; ns], vec![0.7; ns]);
    let src = SourceInversionConfig {
        gn: GnConfig { max_gn_iters: 1, ..GnConfig::default() },
        ..SourceInversionConfig::default()
    };
    type SrcCase = (&'static str, fn(&mut SourceInversionConfig));
    let src_cases: [SrcCase; 15] = [
        ("beta_delay", |c| c.beta_delay = NAN),
        ("beta_delay", |c| c.beta_delay = INF),
        ("beta_delay", |c| c.beta_delay = -1e-3),
        ("beta_rise", |c| c.beta_rise = NAN),
        ("beta_rise", |c| c.beta_rise = -INF),
        ("beta_amplitude", |c| c.beta_amplitude = INF),
        ("beta_amplitude", |c| c.beta_amplitude = -1e-3),
        ("min_rise", |c| c.min_rise = NAN),
        ("min_rise", |c| c.min_rise = -INF),
        ("min_amplitude", |c| c.min_amplitude = NAN),
        ("min_amplitude", |c| c.min_amplitude = INF),
        ("grad_tol", |c| c.gn.grad_tol = NAN),
        ("cg_tol", |c| c.gn.cg_tol = -INF),
        ("armijo_c1", |c| c.gn.armijo_c1 = 2.0),
        ("max_linesearch", |c| c.gn.max_linesearch = 0),
    ];
    for (i, (field, set)) in src_cases.iter().enumerate() {
        let mut cfg = src.clone();
        set(&mut cfg);
        let msg = panic_message(|| {
            invert_source(&ss, &template, &mu, &src_data, (&d0, &r0, &a0), &cfg);
        });
        assert_refused(&format!("source case {i}"), field, msg);
    }

    // The same problems with their valid settings run.
    let _ = std::panic::take_hook();
    invert_source(&ss, &template, &mu, &src_data, (&d0, &r0, &a0), &src);
    invert_material(&s, &forcing, &data, &map, &tv, &m0, &gn);
}
