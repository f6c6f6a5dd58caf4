//! Fig 2.1 — the etree mesh-generation pipeline (construct / balance /
//! transform), run out-of-core on disk, then the balance's one ripple loop
//! on a `MemStore` against the same loop over an in-core map.
//!
//! Pass `--check-pipeline-us <us>` to fail the run if construct + balance +
//! transform need more than that many microseconds per element — the CI
//! gate on the whole etree mesher, so a regression in any stage trips it.
//! The run also fails if the two ripples differ in leaves or probes.

use quake_bench::{full_scale, print_table, Args};
use quake_etree::{DiskStore, EtreePipeline, MaterialRec, MemStore, OctantStore, PipelineStats};
use quake_model::{LaBasinModel, MaterialModel};
use quake_octree::{ripple, BalanceMode, Octant};
use std::collections::BTreeMap;
use std::time::Instant;

fn main() {
    let check_pipeline_us: Option<f64> =
        Args::parse(&[], &["--check-pipeline-us"]).value("--check-pipeline-us");
    let extent = 40_000.0;
    let model = LaBasinModel::scaled(200.0, extent);
    let fmax = if full_scale() { 0.3 } else { 0.2 };
    let max_level = if full_scale() { 8 } else { 7 };
    let ppw = 10.0;

    let refine = |o: &Octant| -> bool {
        if o.level < 3 {
            return true;
        }
        if o.level >= max_level {
            return false;
        }
        let c = o.center_unit();
        let s = o.size_unit();
        let lo = [(c[0] - s / 2.0) * extent, (c[1] - s / 2.0) * extent, (c[2] - s / 2.0) * extent];
        let hi = [(c[0] + s / 2.0) * extent, (c[1] + s / 2.0) * extent, (c[2] + s / 2.0) * extent];
        let vs = model.min_vs_in_box(lo, hi);
        o.size_unit() * extent > vs / (ppw * fmax)
    };
    let material = |o: &Octant| -> MaterialRec {
        let c = o.center_unit();
        let m = model.sample(c[0] * extent, c[1] * extent, c[2] * extent);
        MaterialRec { vp: m.vp, vs: m.vs, rho: m.rho }
    };

    let dir = std::env::temp_dir().join(format!("quake-fig2_1-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // --- Out-of-core pipeline on the disk B-tree. ---
    let pipeline = EtreePipeline;
    let mut stats = PipelineStats::default();
    let mut store = DiskStore::create(&dir.join("octants.btree"), 1024).unwrap();
    pipeline.construct(&mut store, refine, material, &mut stats).unwrap();
    pipeline.balance(&mut store, material, &mut stats).unwrap();
    let db = pipeline.transform(&mut store, &dir, &mut stats).unwrap();
    store.flush().unwrap();
    let io = store.io_stats();

    print_table(
        "Fig 2.1: etree pipeline (out-of-core, disk B-tree)",
        &["stage", "octants/records", "seconds"],
        &[
            vec![
                "construct".into(),
                format!("{}", stats.constructed_octants),
                format!("{:.2}", stats.construct_secs),
            ],
            vec![
                "balance".into(),
                format!("{}", stats.after_balance_octants),
                format!("{:.2}", stats.balance_secs),
            ],
            vec![
                "transform".into(),
                format!("{} elem / {} nodes ({} hanging)", db.n_elements, db.n_nodes, db.n_hanging),
                format!("{:.2}", stats.transform_secs),
            ],
        ],
    );
    println!(
        "pager: {} reads, {} writes, {} hits, {} misses, {} evictions",
        io.disk_reads, io.disk_writes, io.cache_hits, io.cache_misses, io.evictions
    );
    let per_us = |secs: f64, n: u64| secs * 1e6 / n as f64;
    println!(
        "construct: {:.2} us per octant",
        per_us(stats.construct_secs, stats.constructed_octants)
    );
    println!(
        "balance: {:.2} us per octant, {:.2} probes per octant",
        per_us(stats.balance_secs, stats.after_balance_octants),
        stats.balance_probes as f64 / stats.after_balance_octants as f64
    );
    println!("transform: {:.2} us per element", per_us(stats.transform_secs, db.n_elements));
    let pipeline_secs = stats.construct_secs + stats.balance_secs + stats.transform_secs;
    let pipeline_us = per_us(pipeline_secs, db.n_elements);
    println!("pipeline: {pipeline_us:.2} us per element");
    if let Some(limit) = check_pipeline_us {
        assert!(
            pipeline_us <= limit,
            "the etree pipeline took {pipeline_us:.2} us per element, over the {limit} us budget"
        );
    }

    // --- The balance's ripple on a MemStore against the same loop in core. ---
    let mut mem = MemStore::new();
    let mut s2 = PipelineStats::default();
    pipeline.construct(&mut mem, refine, material, &mut s2).unwrap();
    let mut leaves = Vec::new();
    mem.scan_all(&mut |o, _| leaves.push(o)).unwrap();
    let floor = leaves.iter().map(|o| o.level).min().unwrap_or(0);

    let t0 = Instant::now();
    let mut in_core: BTreeMap<u64, Octant> = leaves.iter().map(|o| (o.key(), *o)).collect();
    let Ok(in_core_probes) = ripple(&mut in_core, leaves, floor, BalanceMode::Full);
    let in_core_secs = t0.elapsed().as_secs_f64();

    pipeline.balance(&mut mem, material, &mut s2).unwrap();
    let mut on_store = Vec::new();
    mem.scan_all(&mut |o, _| on_store.push(o)).unwrap();
    assert!(in_core.values().eq(&on_store), "the store ripple must balance to the in-core leaves");
    assert_eq!(s2.balance_probes, in_core_probes, "the store ripple must probe as the in-core one");
    print_table(
        "store ripple vs in-core ripple (identical leaves and probes)",
        &["leaf set", "seconds", "probes"],
        &[
            vec![
                "in-core BTreeMap".into(),
                format!("{in_core_secs:.3}"),
                in_core_probes.to_string(),
            ],
            vec![
                "pipeline on a MemStore".into(),
                format!("{:.3}", s2.balance_secs),
                s2.balance_probes.to_string(),
            ],
        ],
    );
    println!(
        "(one loop, two leaf sets: the store row adds the seeding scan and the\n\
         store's lookups; the paper's 8-28x local-balancing speedup came from\n\
         balancing blocks in memory, which this pipeline does not do: DESIGN.md)"
    );
    std::fs::remove_dir_all(dir).ok();
}
