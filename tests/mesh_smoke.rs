//! Tier-1 smoke for the meshing path: the in-core mesher and the etree
//! pipeline build the same mesh from one refinement rule — the same node
//! coordinates, hanging flags, connectivity and levels — and point location
//! finds every element.

use quake::etree::{ElementRec, EtreePipeline, MaterialRec, MemStore, NodeRec, PipelineStats};
use quake::mesh::{mesh_from_model, MeshingParams};
use quake::model::{LaBasinModel, MaterialModel};
use quake::octree::adapt::AdaptParams;
use quake::octree::Octant;

#[test]
fn in_core_mesher_and_etree_pipeline_agree_and_every_element_is_locatable() {
    let extent = 20_000.0;
    let model = LaBasinModel::scaled(400.0, extent);
    let mut params = MeshingParams::new(extent, 0.08);
    params.min_level = 2;
    params.max_level = 5;
    let (tree, mesh) = mesh_from_model(&params, &model);
    assert!(mesh.n_hanging() > 0, "the smoke mesh must be adaptive");

    // `mesh_from_model`'s wavelength rule, spelled out for the etree's
    // auto-navigation.
    let adapt = AdaptParams {
        domain_size: extent,
        fmax: params.fmax,
        points_per_wavelength: params.points_per_wavelength,
        max_level: params.max_level,
        min_level: params.min_level,
    };
    let refine = |o: &Octant| {
        let (c, s) = (o.corner_unit(), o.size_unit());
        let lo = c.map(|v| v * extent);
        let hi = c.map(|v| (v + s) * extent);
        o.level < adapt.min_level
            || (o.level < adapt.max_level
                && s * extent > adapt.target_h(model.min_vs_in_box(lo, hi)))
    };
    let dir = std::env::temp_dir().join(format!("quake-mesh-smoke-{}", std::process::id()));
    let mut store = MemStore::new();
    let pipeline = EtreePipeline;
    let mut stats = PipelineStats::default();
    pipeline.construct(&mut store, refine, |_| MaterialRec::default(), &mut stats).unwrap();
    pipeline.balance(&mut store, |_| MaterialRec::default(), &mut stats).unwrap();
    let db = pipeline.transform(&mut store, &dir, &mut stats).unwrap();
    assert_eq!(
        (db.n_elements as usize, db.n_nodes as usize, db.n_hanging as usize),
        (mesh.n_elements(), mesh.n_nodes(), mesh.n_hanging())
    );
    // Not only the counts: both meshers number the same nodes the same way.
    let nodes: Vec<NodeRec> = db.read_nodes().unwrap().map(Result::unwrap).collect();
    let coords: Vec<[u32; 3]> = nodes.iter().map(|n| n.coords).collect();
    assert_eq!(coords, mesh.grid_coords);
    let hanging: Vec<bool> = nodes.iter().map(|n| n.hanging).collect();
    assert_eq!(hanging, mesh.hanging);
    let elements: Vec<ElementRec> = db.read_elements().unwrap().map(Result::unwrap).collect();
    std::fs::remove_dir_all(&dir).unwrap();
    let connectivity: Vec<[u64; 8]> = elements.iter().map(|e| e.nodes).collect();
    let in_core: Vec<[u64; 8]> = mesh.elements.iter().map(|e| e.nodes.map(u64::from)).collect();
    assert_eq!(connectivity, in_core);
    let levels: Vec<u8> = elements.iter().map(|e| e.octant.level).collect();
    assert_eq!(levels, mesh.elements.iter().map(|e| e.level).collect::<Vec<u8>>());

    for (ei, e) in mesh.elements.iter().enumerate() {
        let lo = mesh.coords[e.nodes[0] as usize];
        let centre = lo.map(|v| v + 0.5 * e.h);
        let (found, xi) = mesh.locate(&tree, centre).expect("element centre is in the domain");
        assert_eq!(found as usize, ei);
        assert!(xi.iter().all(|&v| (v - 0.5).abs() < 1e-9), "element {ei}: xi = {xi:?}");
    }
}
