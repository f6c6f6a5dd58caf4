//! The transform's output pinned byte for byte: FNV-1a of `elements.db` and
//! `nodes.db`, computed at commit 3614c3a (the transform that registered
//! nodes in a scratch B-tree and probed the store per node), for the
//! `etree_mesh` benchmark mesh and the pipeline's unit-test meshes, on the
//! in-memory store and on a disk store whose 64-page cache is smaller than
//! the tree. The disk store's own file, `octants.btree` after `flush`, is
//! pinned the same way, computed at commit 64ad428 (the B-tree that decoded
//! every page into owned nodes and re-encoded it on every edit).

use quake_etree::{DiskStore, EtreePipeline, MaterialRec, MemStore, OctantStore, PipelineStats};
use quake_model::{LaBasinModel, MaterialModel};
use quake_octree::adapt::AdaptParams;
use quake_octree::{Octant, MAX_LEVEL};
use std::path::Path;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// construct → balance → transform; returns (elements, FNV-1a of the
/// element DB, FNV-1a of the node DB).
fn mesh_hashes(
    store: &mut impl OctantStore,
    dir: &Path,
    refine: impl FnMut(&Octant) -> bool,
    material: impl Fn(&Octant) -> MaterialRec,
) -> (u64, u64, u64) {
    let p = EtreePipeline;
    let mut stats = PipelineStats::default();
    p.construct(store, refine, &material, &mut stats).unwrap();
    p.balance(store, &material, &mut stats).unwrap();
    let db = p.transform(store, dir, &mut stats).unwrap();
    let hash = |path: &Path| fnv1a(&std::fs::read(path).unwrap());
    (db.n_elements, hash(&db.element_db), hash(&db.node_db))
}

/// Meshes one rule on both stores and compares with `want` =
/// (elements, element-DB hash, node-DB hash), and the disk store's flushed
/// `octants.btree` with `want_store` (its FNV-1a).
fn check(
    name: &str,
    refine: impl Fn(&Octant) -> bool,
    material: impl Fn(&Octant) -> MaterialRec,
    want: (u64, u64, u64),
    want_store: u64,
) {
    let dir = std::env::temp_dir()
        .join("quake-etree-tests")
        .join(format!("identity-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mem = mesh_hashes(&mut MemStore::new(), &dir.join("mem"), &refine, &material);
    let mut disk_store = DiskStore::create(&dir.join("octants.btree"), 64).unwrap();
    let disk = mesh_hashes(&mut disk_store, &dir.join("disk"), &refine, &material);
    disk_store.flush().unwrap();
    let store = fnv1a(&std::fs::read(dir.join("octants.btree")).unwrap());
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(mem, want, "{name} on MemStore: {:#018x} {:#018x}", mem.1, mem.2);
    assert_eq!(disk, want, "{name} on DiskStore: {:#018x} {:#018x}", disk.1, disk.2);
    assert_eq!(store, want_store, "{name}: octants.btree {store:#018x}");
}

fn level_material(o: &Octant) -> MaterialRec {
    MaterialRec { vp: 2000.0, vs: 1000.0 + o.level as f64, rho: 2200.0 }
}

#[test]
fn unit_test_meshes_are_the_parents_bytes() {
    let half = 1u32 << (MAX_LEVEL - 1);
    check(
        "one-refined",
        |o| o.level == 0 || (o.level == 1 && o.x == 0 && o.y == 0 && o.z == 0),
        level_material,
        (15, 0x6d30_eb6f_9ccf_32f0, 0x5abc_4978_1dc3_f5b2),
        0x4bbb_a1f6_ce65_9ce5,
    );
    check(
        "uniform",
        |o| o.level < 2,
        level_material,
        (64, 0xcc53_959e_48fa_03a1, 0x8e39_8814_458a_1c5b),
        0x59bd_3e11_8eb7_218d,
    );
    check(
        "centre",
        |o| o.level < 4 && o.contains_point(half, half, half),
        level_material,
        (127, 0x91a7_58c9_d7ef_4796, 0xb929_7c28_3e20_933d),
        0x08ba_f789_363a_f95f,
    );
    check(
        "surface",
        |o| o.level < 3 || (o.level < 5 && o.contains_point(half, half, 0)),
        level_material,
        (547, 0x6c62_d4db_ad99_2f39, 0xb331_0648_c441_ddc4),
        0x3453_c0df_a4b4_9ae7,
    );
}

/// The `etree_mesh` benchmark workload's mesh (its per-seed density jitter
/// left out).
#[test]
fn etree_mesh_benchmark_mesh_is_the_parents_bytes() {
    let extent = 40_000.0;
    let model = LaBasinModel::scaled(250.0, extent);
    let params = AdaptParams {
        domain_size: extent,
        fmax: 0.06,
        points_per_wavelength: 10.0,
        max_level: 6,
        min_level: 3,
    };
    let refine = |o: &Octant| {
        if o.level < params.min_level {
            return true;
        }
        if o.level >= params.max_level {
            return false;
        }
        let (c, s) = (o.corner_unit(), o.size_unit() * extent);
        let lo = c.map(|v| v * extent);
        s > params.target_h(model.min_vs_in_box(lo, lo.map(|v| v + s)))
    };
    let material = |o: &Octant| {
        let c = o.center_unit();
        let m = model.sample(c[0] * extent, c[1] * extent, c[2] * extent);
        MaterialRec { vp: m.vp, vs: m.vs, rho: m.rho }
    };
    check(
        "etree_mesh",
        refine,
        material,
        (6_707, 0x803b_b682_80e2_9d3b, 0xac99_b836_0407_d538),
        0xc733_be88_97a3_1e67,
    );
}
