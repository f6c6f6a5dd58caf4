//! Shared reporting helpers for the experiment binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md's experiment index); EXPERIMENTS.md records the outputs
//! against the published values.

#![forbid(unsafe_code)]

use std::time::Instant;

use quake_mesh::hexmesh::{ElemMaterial, HexMesh};
use quake_octree::{BalanceMode, LinearOctree, Octant, MAX_LEVEL};
use quake_telemetry::json::Json;

/// The repository root, where the committed `BENCH_*.json` files live.
pub const REPO_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// The command line of an experiment binary: boolean switches and valued
/// flags (`--name value`). An unknown flag, a valued flag without its value
/// or a value that does not parse ends the process with status 2 and a
/// message naming the flag, so a misspelled CI gate cannot turn itself off.
pub struct Args(Vec<(String, Option<String>)>);

impl Args {
    /// Parse `std::env::args()` against the binary's accepted `switches`
    /// and `valued` flags; exits on any error.
    pub fn parse(switches: &[&str], valued: &[&str]) -> Args {
        let argv = std::env::args().skip(1).collect();
        Args::try_parse(argv, switches, valued).unwrap_or_else(|e| exit_usage(&e))
    }

    fn try_parse(argv: Vec<String>, switches: &[&str], valued: &[&str]) -> Result<Args, String> {
        let (mut it, mut given) = (argv.into_iter(), Vec::new());
        while let Some(arg) = it.next() {
            let value = if valued.contains(&arg.as_str()) {
                Some(it.next().ok_or_else(|| format!("{arg} takes a value"))?)
            } else if switches.contains(&arg.as_str()) {
                None
            } else {
                let known = [switches, valued].concat().join(" ");
                return Err(format!("unknown flag {arg} (accepted: {known})"));
            };
            given.push((arg, value));
        }
        Ok(Args(given))
    }

    /// Was switch `name` given?
    pub fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|(n, _)| n == name)
    }

    /// The value of flag `name` (the last one if repeated); exits if it does
    /// not parse as a `T`.
    pub fn value<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.try_value(name).unwrap_or_else(|e| exit_usage(&e))
    }

    fn try_value<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        let Some((_, Some(raw))) = self.0.iter().rev().find(|(n, _)| n == name) else {
            return Ok(None);
        };
        raw.parse().map(Some).map_err(|_| format!("{name}: cannot parse {raw:?}"))
    }
}

fn exit_usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// Wall seconds of each of `variants` in each of `rounds` rounds. Every
/// round runs every variant once, round `r` starting at variant `r % n` and
/// wrapping, so over any multiple of `n` rounds each variant runs at each
/// position equally often: host drift between rounds and the cost of
/// following another variant land on all of them alike. Compare variants
/// by a statistic of the per-round ratios ([`Spread::of`]), never by
/// totals taken seconds apart.
pub fn time_rounds(rounds: usize, variants: &mut [&mut dyn FnMut()]) -> Vec<Vec<f64>> {
    let n = variants.len();
    let mut times = vec![vec![0.0; n]; rounds];
    for (r, secs) in times.iter_mut().enumerate() {
        for k in 0..n {
            let v = (r + k) % n;
            let t = Instant::now();
            variants[v]();
            secs[v] = t.elapsed().as_secs_f64();
        }
    }
    times
}

/// Median and quartiles of a sample (linear interpolation between order
/// statistics).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Spread {
    /// The spread of `values`; panics if there are none or one is NaN.
    pub fn of(values: impl IntoIterator<Item = f64>) -> Spread {
        let mut v: Vec<f64> = values.into_iter().collect();
        assert!(!v.is_empty() && v.iter().all(|x| !x.is_nan()), "spread of an empty or NaN sample");
        v.sort_by(f64::total_cmp);
        let at = |q: f64| {
            let x = q * (v.len() - 1) as f64;
            let (i, frac) = (x.floor() as usize, x.fract());
            v[i] + frac * (v[(i + 1).min(v.len() - 1)] - v[i])
        };
        Spread { q1: at(0.25), median: at(0.5), q3: at(0.75) }
    }

    /// `[q1, q3]`, the quartiles a report writes beside the median.
    pub fn quartiles(&self) -> Json {
        Json::arr([self.q1, self.q3])
    }
}

/// A bench mesh on an 8-unit cube of one unit material: the leaves of the
/// octree `refine` builds, 2:1 balanced.
pub fn octree_mesh(refine: impl Fn(&Octant) -> bool) -> HexMesh {
    let mut tree = LinearOctree::build(refine);
    tree.balance(BalanceMode::Full);
    HexMesh::from_octree(&tree, 8.0, |_, _, _, _| ElemMaterial { lambda: 2.0, mu: 1.0, rho: 1.0 })
}

/// Multiresolution bench mesh: uniform `coarse` level with the x < 1/2 half
/// refined one level deeper, so hanging nodes cross the interface.
pub fn half_refined_mesh(coarse: u8) -> HexMesh {
    let half = 1u32 << (MAX_LEVEL - 1);
    octree_mesh(|o| o.level < coarse || (o.level <= coarse && o.x < half))
}

/// Interleaved initial displacement: a Gaussian shear (y) pulse at the
/// centre of a cubic domain of side `extent`, one eighth of it wide, with
/// hanging nodes interpolated.
pub fn shear_pulse(mesh: &HexMesh, extent: f64) -> Vec<f64> {
    let (mid, width) = (extent / 2.0, extent / 8.0);
    let mut u = vec![0.0; 3 * mesh.n_nodes()];
    for (i, c) in mesh.coords.iter().enumerate() {
        let r2 = (c[0] - mid).powi(2) + (c[1] - mid).powi(2) + (c[2] - mid).powi(2);
        u[3 * i + 1] = (-r2 / (2.0 * width * width)).exp();
    }
    mesh.interpolate_hanging(&mut u, 3);
    u
}

/// Where a report ran: the CPU model and core count of the host and the
/// checkout's `git describe --always --dirty` ("unknown" where either
/// cannot be read).
pub fn provenance() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rev = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .current_dir(REPO_ROOT)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    Json::obj([("cpu", cpu.into()), ("cores", cores.into()), ("git_rev", rev.into())])
}

/// Write `doc` to `REPO_ROOT/name`, or with `smoke` print it instead: a
/// smoke run's numbers are not the committed evidence.
pub fn write_report(name: &str, doc: &Json, smoke: bool) {
    let text = doc.render();
    if smoke {
        println!("\n{text}smoke mode: {name} not written");
    } else {
        let path = format!("{REPO_ROOT}/{name}");
        std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
    }
}

/// Render a fixed-width table: header row + data rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line: String = header.iter().zip(&widths).map(|(h, w)| format!("{h:>w$}  ")).collect();
    println!("{line}");
    println!("{}", "-".repeat(line.len()));
    for row in rows {
        let line: String = row.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}  ")).collect();
        println!("{line}");
    }
}

/// ASCII heatmap of a row-major field (`nx` fastest), normalized to its own
/// min/max — enough to see the basin shapes of Fig 3.2 in a terminal.
pub fn ascii_heatmap(title: &str, field: &[f64], nx: usize, max_cols: usize) {
    let ny = field.len() / nx;
    println!("\n-- {title} ({nx} x {ny}) --");
    let lo = field.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = field.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let ramp: &[u8] = b" .:-=+*#%@";
    let step = nx.div_ceil(max_cols).max(1);
    for j in (0..ny).step_by(step) {
        let mut line = String::new();
        for i in (0..nx).step_by(step) {
            let v = field[i + nx * j];
            let t = if hi > lo { (v - lo) / (hi - lo) } else { 0.5 };
            let c = ramp[((t * (ramp.len() - 1) as f64).round() as usize).min(ramp.len() - 1)];
            line.push(c as char);
        }
        println!("  {line}");
    }
    println!("  [{lo:.3e} .. {hi:.3e}]");
}

/// Relative L2 error between two fields.
pub fn rel_l2(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let mut num = 0.0;
    let mut den = 0.0;
    for (x, y) in a.iter().zip(b) {
        num += (x - y) * (x - y);
        den += y * y;
    }
    (num / den.max(1e-300)).sqrt()
}

/// `QUAKE_SCALE=full` runs paper-sized (hours); default is `small`
/// (minutes, same shapes).
pub fn full_scale() -> bool {
    std::env::var("QUAKE_SCALE").map(|v| v == "full").unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str], switches: &[&str], valued: &[&str]) -> Result<Args, String> {
        Args::try_parse(args.iter().map(|a| a.to_string()).collect(), switches, valued)
    }

    #[test]
    fn args_parse_switches_and_values() {
        let argv = ["--smoke", "--check-overhead", "3", "--trace-out", "t.json"];
        let args =
            parse(&argv, &["--smoke", "--lts"], &["--check-overhead", "--trace-out"]).unwrap();
        assert!(args.flag("--smoke") && !args.flag("--lts"));
        assert_eq!(args.try_value::<f64>("--check-overhead"), Ok(Some(3.0)));
        assert_eq!(args.try_value::<String>("--trace-out"), Ok(Some("t.json".into())));
        assert_eq!(args.try_value::<f64>("--check-mesh-ms"), Ok(None));
    }

    #[test]
    fn args_refuse_what_they_do_not_know_naming_the_flag() {
        let (switches, valued) = (&["--smoke"][..], &["--check-overhead"][..]);
        let err = |a: &[&str]| parse(a, switches, valued).err().unwrap();
        assert!(err(&["--check-overhed", "3"]).contains("unknown flag --check-overhed"));
        assert!(err(&["--smoke", "--check-overhead"]).contains("--check-overhead takes a value"));
        assert!(err(&["3"]).contains("unknown flag 3"));
        let args = parse(&["--check-overhead", "3%"], switches, valued).unwrap();
        let bad = args.try_value::<f64>("--check-overhead").unwrap_err();
        assert!(bad.contains("--check-overhead") && bad.contains("3%"), "{bad}");
    }

    #[test]
    fn rounds_put_every_variant_at_every_position_equally_often() {
        for n in 1..=5 {
            let log = std::cell::RefCell::new(Vec::new());
            let mut fns: Vec<_> = (0..n)
                .map(|v| {
                    let log = &log;
                    move || log.borrow_mut().push(v)
                })
                .collect();
            let mut variants: Vec<&mut dyn FnMut()> =
                fns.iter_mut().map(|f| f as &mut dyn FnMut()).collect();
            let times = time_rounds(3 * n, &mut variants);
            assert_eq!(times.len(), 3 * n);
            assert!(times.iter().all(|t| t.len() == n));
            let log = log.take();
            assert_eq!(log.len(), 3 * n * n);
            let mut seen = vec![vec![0; n]; n];
            for round in log.chunks(n) {
                let mut once = round.to_vec();
                once.sort_unstable();
                assert_eq!(once, (0..n).collect::<Vec<_>>(), "each variant once per round");
                for (pos, &v) in round.iter().enumerate() {
                    seen[v][pos] += 1;
                }
            }
            assert!(seen.iter().flatten().all(|&c| c == 3), "n = {n}: {seen:?}");
        }
    }

    #[test]
    fn spread_interpolates_the_quartiles() {
        assert_eq!(Spread::of([4.0, 1.0, 3.0, 2.0]), Spread { q1: 1.75, median: 2.5, q3: 3.25 });
        assert_eq!(Spread::of([5.0, 1.0, 2.0, 4.0, 3.0]), Spread { q1: 2.0, median: 3.0, q3: 4.0 });
        assert_eq!(Spread::of([7.0]), Spread { q1: 7.0, median: 7.0, q3: 7.0 });
    }

    #[test]
    fn a_variant_that_sleeps_longer_reads_slower_in_the_median() {
        let work = || std::hint::black_box((0..2000u64).sum::<u64>());
        let mut plain = || {
            work();
        };
        let mut slow = || {
            work();
            std::thread::sleep(std::time::Duration::from_millis(2));
        };
        let times = time_rounds(8, &mut [&mut plain, &mut slow]);
        let ratio = Spread::of(times.iter().map(|t| t[1] / t[0]));
        assert!(ratio.median > 1.0, "{ratio:?}");
        assert!(times.iter().all(|t| t[1] >= 0.002), "every slow run slept");
    }

    #[test]
    fn rel_l2_basic() {
        assert_eq!(rel_l2(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        let e = rel_l2(&[2.0, 0.0], &[1.0, 0.0]);
        assert!((e - 1.0).abs() < 1e-12);
    }
}
