//! The mesher against things outside itself: identity pins computed at the
//! commit before point location was keyed (f463f2e) and before balance
//! probed per sibling family (fb0bc7f), and the brute-force definition of a
//! hanging node.

use quake_etree::{DiskStore, EtreePipeline, MaterialRec, OctantStore, PipelineStats};
use quake_mesh::{mesh_from_model, ElemMaterial, HexMesh, MeshingParams};
use quake_model::{layer_over_halfspace, LaBasinModel, Material, MaterialModel};
use quake_octree::adapt::AdaptParams;
use quake_octree::{ripple, BalanceMode, LinearOctree, Octant, MAX_LEVEL};
use std::collections::BTreeMap;

fn unit_material(_x: f64, _y: f64, _z: f64, _h: f64) -> ElemMaterial {
    ElemMaterial { lambda: 1.0, mu: 1.0, rho: 1.0 }
}

/// FNV-1a over everything the solver reads from the mesh topology:
/// connectivity and levels, the hanging flags, the resolved constraints
/// (node, masters, weight bits) and the boundary faces, each in stored order.
fn fingerprint(m: &HexMesh) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for e in &m.elements {
        e.nodes.iter().for_each(|&n| eat(n as u64));
        eat(e.level as u64);
    }
    m.hanging.iter().for_each(|&b| eat(b as u64));
    for c in &m.constraints {
        eat(c.node as u64);
        for &(n, w) in &c.masters {
            eat(n as u64);
            eat(w.to_bits());
        }
    }
    for f in &m.boundary_faces {
        eat(f.element as u64);
        eat(f.face as u64);
    }
    h
}

/// The benchmark's `basin_forward` / `layered_forward` meshing call.
fn adaptive(model: &impl MaterialModel, max_level: u8) -> HexMesh {
    let mut p = MeshingParams::new(20_000.0, 0.3);
    p.min_level = 2;
    p.max_level = max_level;
    mesh_from_model(&p, model).1
}

fn layered() -> impl MaterialModel {
    layer_over_halfspace(
        2_500.0,
        Material::new(1800.0, 700.0, 2000.0),
        Material::new(5500.0, 3200.0, 2700.0),
    )
}

/// The benchmark's `fault_zone_lts` tree: two nested refinement boxes.
fn fault_zone(coarse: u8) -> LinearOctree {
    let touches = |o: &Octant, lo: [f64; 3], hi: [f64; 3]| {
        let (c, s) = (o.corner_unit(), o.size_unit());
        (0..3).all(|a| c[a] < hi[a] && c[a] + s > lo[a])
    };
    let mut tree = LinearOctree::build(|o| {
        o.level < coarse
            || (o.level < coarse + 1 && touches(o, [0.375, 0.375, 0.0], [0.625, 0.625, 0.25]))
            || (o.level < coarse + 2 && touches(o, [0.4375, 0.4375, 0.0], [0.5625, 0.5625, 0.125]))
    });
    tree.balance(BalanceMode::Full);
    tree
}

/// Constants printed by this file's `fingerprint` at commit f463f2e, the
/// parent of the change that keyed point location. The `--quick` basin and
/// layered meshes come out uniform (level 4 caps both), so the benchmark's
/// full sizes are pinned beside them: those have ~3 100 hanging nodes each.
#[test]
fn meshes_are_the_parents_meshes() {
    let basin = LaBasinModel::scaled(400.0, 20_000.0);
    for (name, mesh, elements, hanging, want) in [
        ("basin quick", adaptive(&basin, 4), 4_096, 0, 0xc52d_c7ec_6b78_20db_u64),
        ("layered quick", adaptive(&layered(), 4), 4_096, 0, 0xc52d_c7ec_6b78_20db),
        ("basin", adaptive(&basin, 6), 25_012, 3_140, 0xada4_6af0_dd90_ad64),
        ("layered", adaptive(&layered(), 6), 61_440, 3_136, 0xf85e_f271_a201_5c9f),
        (
            "fault zone quick",
            HexMesh::from_octree(&fault_zone(3), 20_000.0, unit_material),
            624,
            128,
            0x829c_1579_5842_89a5,
        ),
        (
            "fault zone",
            HexMesh::from_octree(&fault_zone(5), 20_000.0, unit_material),
            39_936,
            1_952,
            0x4c94_8960_73dd_4219,
        ),
    ] {
        assert_eq!((mesh.n_elements(), mesh.n_hanging()), (elements, hanging), "{name}");
        assert_eq!(fingerprint(&mesh), want, "{name}: {:#018x}", fingerprint(&mesh));
    }
}

/// The `etree_mesh` benchmark workload's refinement rule: the LA basin
/// scaled to 250 m/s over 40 km, fmax 0.06 Hz, levels 3 to 6.
fn etree_mesh_rule() -> impl Fn(&Octant) -> bool {
    let extent = 40_000.0;
    let model = LaBasinModel::scaled(250.0, extent);
    let params = AdaptParams {
        domain_size: extent,
        fmax: 0.06,
        points_per_wavelength: 10.0,
        max_level: 6,
        min_level: 3,
    };
    move |o: &Octant| {
        if o.level < params.min_level {
            return true;
        }
        if o.level >= params.max_level {
            return false;
        }
        let (c, s) = (o.corner_unit(), o.size_unit() * extent);
        let lo = c.map(|v| v * extent);
        s > params.target_h(model.min_vs_in_box(lo, lo.map(|v| v + s)))
    }
}

/// The `fig2_1_etree` tree at its default scale: the LA basin scaled to
/// 200 m/s over 40 km, fmax 0.2 Hz, levels 3 to 7, boxes taken about the
/// octant centre as that binary takes them.
fn fig2_1_rule() -> impl Fn(&Octant) -> bool {
    let extent = 40_000.0;
    let model = LaBasinModel::scaled(200.0, extent);
    move |o: &Octant| {
        if o.level < 3 {
            return true;
        }
        if o.level >= 7 {
            return false;
        }
        let (c, s) = (o.center_unit(), o.size_unit());
        let lo = c.map(|v| (v - s / 2.0) * extent);
        let hi = c.map(|v| (v + s / 2.0) * extent);
        s * extent > model.min_vs_in_box(lo, hi) / (10.0 * 0.2)
    }
}

/// FNV-1a over the leaf keys, in order.
fn leaf_fingerprint(leaves: &[Octant]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for o in leaves {
        for b in o.key().to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Constants printed by `leaf_fingerprint` at commit fb0bc7f, the parent of
/// the change that made balance probe once per sibling family: the balanced
/// trees the `etree_mesh` benchmark (its in-core reference) and Fig 2.1
/// mesh.
#[test]
fn balanced_trees_are_the_parents_trees() {
    let balanced = |rule: &dyn Fn(&Octant) -> bool| {
        let mut tree = LinearOctree::build(rule);
        tree.balance(BalanceMode::Full);
        tree
    };
    let (etree_mesh, fig2_1) = (balanced(&etree_mesh_rule()), balanced(&fig2_1_rule()));
    for (name, tree, leaves, want) in [
        ("etree_mesh", &etree_mesh, 6_707, 0x9c85_9cb3_da24_f08c_u64),
        ("fig2_1", &fig2_1, 56_603, 0xf147_9fab_ffe1_4bdb),
    ] {
        let got = leaf_fingerprint(tree.leaves());
        assert_eq!(tree.len(), leaves, "{name}");
        assert_eq!(got, want, "{name}: {got:#018x}");
    }
}

/// The out-of-core pipeline balances the `etree_mesh` tree, whose
/// refinement follows the basin rather than a centre point, to the in-core
/// balance, on a disk store whose 64-page cache is smaller than the tree.
#[test]
fn disk_pipeline_balances_the_etree_mesh_tree_as_in_core() {
    let rule = etree_mesh_rule();
    let mut reference = LinearOctree::build(&rule);
    reference.balance(BalanceMode::Full);

    let dir = std::env::temp_dir()
        .join("quake-mesh-tests")
        .join(format!("etree-balance-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut store = DiskStore::create(&dir.join("octants.btree"), 64).unwrap();
    let material = |_: &Octant| MaterialRec { vp: 2000.0, vs: 1000.0, rho: 2200.0 };
    let (p, mut stats) = (EtreePipeline, PipelineStats::default());
    p.construct(&mut store, &rule, material, &mut stats).unwrap();
    p.balance(&mut store, material, &mut stats).unwrap();
    let mut got = Vec::new();
    store.scan_all(&mut |o, _| got.push(o)).unwrap();
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(stats.after_balance_octants > stats.constructed_octants, "balance must split");
    assert_eq!(got, reference.leaves());
}

/// One balance loop, two leaf sets: the pipeline's balance runs the in-core
/// `ripple` against its store, so on a 64-page `DiskStore` it probes exactly
/// the sample points the in-core ripple probes on the same tree.
#[test]
fn disk_pipeline_probes_as_the_in_core_ripple() {
    let rule = etree_mesh_rule();
    let tree = LinearOctree::build(&rule);
    let mut map: BTreeMap<u64, Octant> = tree.leaves().iter().map(|o| (o.key(), *o)).collect();
    let Ok(in_core) =
        ripple(&mut map, tree.leaves().iter().copied(), tree.min_level(), BalanceMode::Full);

    let dir = std::env::temp_dir()
        .join("quake-mesh-tests")
        .join(format!("etree-probes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut store = DiskStore::create(&dir.join("octants.btree"), 64).unwrap();
    let material = |_: &Octant| MaterialRec { vp: 2000.0, vs: 1000.0, rho: 2200.0 };
    let (p, mut stats) = (EtreePipeline, PipelineStats::default());
    p.construct(&mut store, &rule, material, &mut stats).unwrap();
    p.balance(&mut store, material, &mut stats).unwrap();
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(in_core, 13_651);
    assert_eq!(stats.balance_probes, in_core);
}

/// LCG-seeded adaptive trees: refinement to a random depth around one to
/// three random points, balanced. The last tree (refined into a domain
/// corner) keeps level-1 leaves beside level-3 ones, the edge of the rule
/// that leaves within one level of the coarsest cannot violate 2-to-1.
fn random_balanced_trees() -> Vec<LinearOctree> {
    let mut state = 0xE001u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 11
    };
    let cell = 1u32 << (MAX_LEVEL - 3);
    let mut trees: Vec<LinearOctree> = (0..16)
        .map(|_| {
            let r = next();
            let depth = (3 + (r >> 8) % 3) as u8;
            let seeds: Vec<(u32, u32, u32)> = (0..1 + r % 3)
                .map(|_| {
                    let q = next() as u32;
                    ((q % 8) * cell, ((q >> 8) % 8) * cell, ((q >> 16) % 8) * cell)
                })
                .collect();
            LinearOctree::build(|o| {
                o.level < depth && seeds.iter().any(|&(x, y, z)| o.contains_point(x, y, z))
            })
        })
        .collect();
    trees.push(LinearOctree::build(|o| o.level < 3 && o.x == 0 && o.y == 0 && o.z == 0));
    trees.iter_mut().for_each(|t| t.balance(BalanceMode::Full));
    trees
}

#[test]
fn hanging_nodes_match_the_brute_force_definition() {
    for (case, tree) in random_balanced_trees().iter().enumerate() {
        let mesh = HexMesh::from_octree(tree, 1.0, unit_material);
        // A node hangs iff some leaf's closed cube contains it without
        // having it as a corner.
        for (id, p) in mesh.grid_coords.iter().enumerate() {
            let hangs = tree.leaves().iter().any(|o| {
                let (lo, s) = ([o.x, o.y, o.z], o.size());
                (0..3).all(|a| lo[a] <= p[a] && p[a] <= lo[a] + s)
                    && !(0..3).all(|a| p[a] == lo[a] || p[a] == lo[a] + s)
            });
            assert_eq!(mesh.hanging[id], hangs, "tree {case}, node {id} at {p:?}");
        }
        assert_eq!(mesh.n_hanging(), mesh.hanging.iter().filter(|&&h| h).count());
        for c in &mesh.constraints {
            assert!(mesh.hanging[c.node as usize], "tree {case}: constraint on a regular node");
            assert!(c.masters.iter().all(|&(m, _)| !mesh.hanging[m as usize]));
            let sum: f64 = c.masters.iter().map(|&(_, w)| w).sum();
            assert!(
                (sum - 1.0).abs() < 1e-12,
                "tree {case}, node {}: weights sum to {sum}",
                c.node
            );
        }
    }
}
