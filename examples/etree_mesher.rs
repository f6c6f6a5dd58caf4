//! Generate a wavelength-adaptive LA-basin mesh *out of core*: the octree
//! lives in a disk B-tree, so mesh size is limited by disk, not RAM — the
//! paper generated 1.2-billion-element meshes this way on a desktop.
//!
//! ```bash
//! cargo run --release --example etree_mesher
//! ```

use quake::etree::{DiskStore, EtreePipeline, MaterialRec, PipelineStats};
use quake::model::{LaBasinModel, MaterialModel};
use quake::octree::Octant;

fn main() {
    let extent = 40_000.0;
    let model = LaBasinModel::scaled(250.0, extent);
    let (fmax, ppw, max_level) = (0.15, 10.0, 7);

    let dir = std::env::temp_dir().join(format!("quake-etree-example-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut store = DiskStore::create(&dir.join("octants.btree"), 512).unwrap();

    let refine = |o: &Octant| {
        if o.level < 3 {
            return true;
        }
        if o.level >= max_level {
            return false;
        }
        let c = o.corner_unit();
        let s = o.size_unit();
        let lo = [c[0] * extent, c[1] * extent, c[2] * extent];
        let hi = [(c[0] + s) * extent, (c[1] + s) * extent, (c[2] + s) * extent];
        s * extent > model.min_vs_in_box(lo, hi) / (ppw * fmax)
    };
    let material = |o: &Octant| {
        let c = o.center_unit();
        let m = model.sample(c[0] * extent, c[1] * extent, c[2] * extent);
        MaterialRec { vp: m.vp, vs: m.vs, rho: m.rho }
    };

    let pipeline = EtreePipeline;
    let mut stats = PipelineStats::default();
    pipeline.construct(&mut store, refine, material, &mut stats).unwrap();
    println!("construct: {} octants in {:.2} s", stats.constructed_octants, stats.construct_secs);
    pipeline.balance(&mut store, material, &mut stats).unwrap();
    println!(
        "balance:   {} octants in {:.2} s ({} probes)",
        stats.after_balance_octants, stats.balance_secs, stats.balance_probes
    );
    let db = pipeline.transform(&mut store, &dir, &mut stats).unwrap();
    println!(
        "transform: {} elements, {} nodes ({} hanging) in {:.2} s",
        db.n_elements, db.n_nodes, db.n_hanging, stats.transform_secs
    );
    store.flush().unwrap();
    let io = store.io_stats();
    println!(
        "pager: {} disk reads / {} writes, cache hit rate {:.1}%",
        io.disk_reads,
        io.disk_writes,
        100.0 * io.cache_hits as f64 / (io.cache_hits + io.cache_misses).max(1) as f64
    );

    // Stream the first few element records back from the database.
    println!("\nfirst elements of the on-disk element DB:");
    for rec in db.read_elements().unwrap().take(5) {
        let e = rec.unwrap();
        println!(
            "  level {:2}, h = {:6.0} m, vs = {:4.0} m/s, nodes {:?}",
            e.octant.level,
            e.octant.size_unit() * extent,
            e.material.vs,
            &e.nodes[..4]
        );
    }
    std::fs::remove_dir_all(dir).ok();
}
