//! Shared reporting helpers for the experiment binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md's experiment index); EXPERIMENTS.md records the outputs
//! against the published values.

#![forbid(unsafe_code)]

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
    fn rel_l2_basic() {
        assert_eq!(rel_l2(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        let e = rel_l2(&[2.0, 0.0], &[1.0, 0.0]);
        assert!((e - 1.0).abs() < 1e-12);
    }
}
