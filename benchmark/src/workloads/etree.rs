//! `etree_mesh`: the out-of-core mesher of the paper's section 2 —
//! `EtreePipeline::{construct, balance, transform}` over a `DiskStore`. It
//! exercises the `etree` B-tree and pager and nothing else; every other
//! workload meshes in core with `mesh_from_model` instead.

use super::{probe_model, Rng};
use crate::driver::Driver;
use quake::etree::{DiskStore, EtreePipeline, MaterialRec, PipelineStats};
use quake::model::{LaBasinModel, MaterialModel};
use quake::octree::adapt::{build_wavelength_adaptive, AdaptParams};
use quake::octree::Octant;
use std::cell::RefCell;

const CACHE_PAGES: usize = 64;

pub fn etree_mesh(d: &mut Driver) {
    let extent = 40_000.0;
    let params = AdaptParams {
        domain_size: extent,
        fmax: 0.06,
        points_per_wavelength: 10.0,
        max_level: d.size(6, 4),
        min_level: 3,
    };
    let box_of = |o: &Octant| {
        let (c, s) = (o.corner_unit(), o.size_unit() * extent);
        let lo = [c[0] * extent, c[1] * extent, c[2] * extent];
        (lo, [lo[0] + s, lo[1] + s, lo[2] + s])
    };

    // ---- set-up: the model, and the same refinement rule meshed in core,
    // whose leaf count the out-of-core result must reproduce ----
    let model = d.setup("model", || LaBasinModel::scaled(250.0, extent));
    let in_core = d.setup("in-core reference", || {
        build_wavelength_adaptive(&params, |o, _| {
            let (lo, hi) = box_of(o);
            model.min_vs_in_box(lo, hi)
        })
    });
    let refine = |o: &Octant| {
        if o.level < params.min_level {
            return true;
        }
        if o.level >= params.max_level {
            return false;
        }
        let (lo, hi) = box_of(o);
        o.size_unit() * extent > params.target_h(model.min_vs_in_box(lo, hi))
    };
    // The seed perturbs the stored densities (payload bytes), not the
    // refinement rule, so every seed builds the same octree.
    let jitter = 0.02 * Rng::new(d.seed(), 6).signed();
    let material = |o: &Octant| {
        let c = o.center_unit();
        let m = model.sample(c[0] * extent, c[1] * extent, c[2] * extent);
        MaterialRec { vp: m.vp, vs: m.vs, rho: m.rho * (1.0 + jitter) }
    };
    d.describe("in_core_leaves", in_core.len() as f64);
    d.describe("max_level", params.max_level as f64);
    d.describe("cache_pages", CACHE_PAGES as f64);

    // ---- timed: construct + balance + transform + flush on a fresh store ----
    let dir = d.work_dir().join("etree");
    let store: RefCell<Option<DiskStore>> = RefCell::new(None);
    d.work_per_rep(in_core.len() as f64);
    let (stats, db, io, db_bytes) = d.measure(
        || {
            drop(store.borrow_mut().take());
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("scratch directory is writable");
            *store.borrow_mut() = Some(
                DiskStore::create(&dir.join("octants.btree"), CACHE_PAGES)
                    .expect("scratch directory is writable"),
            );
        },
        |reg| {
            let mut guard = store.borrow_mut();
            let store = guard.as_mut().expect("prepared before every repetition");
            let pipeline = EtreePipeline::default();
            let mut stats = PipelineStats::default();
            {
                let _s = reg.span("etree/construct");
                pipeline.construct(store, refine, material, &mut stats).expect("construct");
            }
            {
                let _s = reg.span("etree/balance");
                pipeline.balance(store, material, &mut stats).expect("balance");
            }
            let db = {
                let _s = reg.span("etree/transform");
                pipeline.transform(store, &dir, &mut stats).expect("transform")
            };
            store.flush().expect("flush");
            let bytes: u64 = std::fs::read_dir(&dir)
                .map(|rd| rd.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
                .unwrap_or(0);
            (stats, db, store.io_stats(), bytes)
        },
    );

    // ---- output checks ----
    let records = db.read_elements().map(|it| it.filter(Result::is_ok).count() as u64);
    d.check(
        "element DB holds one readable record per balanced octant",
        records.is_ok_and(|n| n == db.n_elements) && db.n_elements == stats.after_balance_octants,
    );
    d.check(
        "out-of-core mesh has the in-core leaf count for the same rule",
        db.n_elements == in_core.len() as u64,
    );
    d.check("nodes and hanging nodes counted", db.n_nodes > db.n_elements && db.n_hanging > 0);

    if !d.tracing() {
        return;
    }

    // ---- per-layer ledger ----
    d.set("etree.construct_s", stats.construct_secs);
    d.set("etree.balance_s", stats.balance_secs);
    d.set("etree.transform_s", stats.transform_secs);
    d.set("etree.octants", stats.after_balance_octants as f64);
    d.set("etree.elements_per_s", db.n_elements as f64 / stats.transform_secs);
    d.set("etree.pager_disk_reads", io.disk_reads as f64);
    d.set("etree.pager_disk_writes", io.disk_writes as f64);
    d.set("etree.pager_hit_ratio", io.hit_rate());
    d.set("etree.db_bytes", db_bytes as f64);
    let in_core_build_s = d.stage_s("in-core reference");
    d.set("octree.build_s", in_core_build_s);
    d.set("octree.leaves", in_core.len() as f64);
    probe_model(d, &model, extent);
}
