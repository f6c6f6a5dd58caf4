//! `compare <a.json> <b.json>`: the tool the A/A acceptance check and every
//! later performance change use. One row per (end-to-end metric, workload):
//! both medians, the relative change, the bound, and a verdict —
//! `regressed` when `b` is worse than `a` by more than the bound,
//! `unresolved` when either side's own run-to-run spread (interquartile
//! distance over median) is wider than the bound, `ok` otherwise. Per-layer
//! metrics follow without a verdict (they have no bound); counts that differ
//! are flagged, since counts must repeat exactly.

use crate::json::{self, Value};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{median, spread};

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn values(doc: &Value, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("results")
        .and_then(|r| r.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|e| e.get(metric))
        .and_then(|m| m.get("values"))
        .map(|v| v.as_arr().iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

fn layer_value(doc: &Value, workload: &str, metric: &str) -> Option<f64> {
    doc.get("results")?.get(workload)?.get("per_layer")?.get(metric)?.get("value")?.as_f64()
}

/// Exit status: 0 = no regression, 1 = at least one `regressed` row (or a
/// failed operation on the `b` side), 2 = unreadable input.
pub fn run(path_a: &str, path_b: &str) -> u8 {
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("{e}");
            }
            return 2;
        }
    };
    let workloads: Vec<&str> = a
        .get("results")
        .map(|r| r.as_obj().iter().map(|(k, _)| k.as_str()).collect())
        .unwrap_or_default();
    let mut regressed = 0;

    println!(
        "{:<18} {:<24} {:>14} {:>14} {:>8} {:>6} {:>8}  verdict",
        "workload", "metric", "median a", "median b", "change", "bound", "spread"
    );
    for w in &workloads {
        for m in END_TO_END {
            let (va, vb) = (values(&a, w, m.name), values(&b, w, m.name));
            if va.is_empty() || vb.is_empty() {
                println!("{w:<18} {:<24} missing on one side", m.name);
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let change = (mb - ma) / ma;
            let worse = if m.lower_is_better { change } else { -change };
            let noise = spread(&va).max(spread(&vb));
            let verdict = if noise > m.bound {
                "unresolved"
            } else if worse > m.bound {
                regressed += 1;
                "regressed"
            } else {
                "ok"
            };
            println!(
                "{w:<18} {:<24} {ma:>14.6} {mb:>14.6} {:>+7.2}% {:>5.0}% {:>7.2}%  {verdict}",
                m.name,
                change * 100.0,
                m.bound * 100.0,
                noise * 100.0
            );
        }
        let failed = |doc: &Value| {
            doc.get("results")
                .and_then(|r| r.get(w))
                .and_then(|x| x.get("failed_share"))
                .and_then(Value::as_f64)
                .unwrap_or(1.0)
        };
        let (fa, fb) = (failed(&a), failed(&b));
        // More failed operations than before is a regression at any size.
        let verdict = if fb > fa { "regressed" } else { "ok" };
        regressed += usize::from(fb > fa);
        println!(
            "{w:<18} {:<24} {fa:>14.6} {fb:>14.6} {:>8} {:>5.0}% {:>8}  {verdict}",
            "failed_share", "", 0.0, ""
        );
    }

    println!("\nper-layer ledger (no bounds; `!` marks a count that changed)");
    for w in &workloads {
        for m in PER_LAYER {
            let (Some(va), Some(vb)) = (layer_value(&a, w, m.name), layer_value(&b, w, m.name))
            else {
                continue;
            };
            if va == 0.0 && vb == 0.0 {
                continue;
            }
            let change = if va == 0.0 { f64::INFINITY } else { (vb - va) / va * 100.0 };
            let flag = if m.unit == "count" && va != vb { "!" } else { "" };
            println!("{w:<18} {:<34} {va:>16.6} {vb:>16.6} {change:>+8.2}% {flag}", m.name);
        }
    }
    println!("\n{regressed} regressed");
    u8::from(regressed > 0)
}
