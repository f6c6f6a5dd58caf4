//! The etree mesh-generation pipeline: construct -> balance -> transform.
//!
//! Mirrors Fig 2.1 of the paper. All three stages run against an
//! [`OctantStore`], so the same code drives the in-memory backend and the
//! out-of-core disk backend; with the disk backend the largest mesh is
//! limited by disk space, not RAM (the paper generated a 1.2-billion-element
//! LA Basin mesh this way).
//!
//! - **construct**: auto-navigation — the traversal logic lives here, the
//!   application only supplies "should this octant subdivide?" plus the
//!   material sampler.
//! - **balance**: 2-to-1 by the one ripple loop of `quake-octree`
//!   ([`ripple`]), running against the store: one scan seeds it with every
//!   leaf's sibling family, which it probes in Morton order. The paper's
//!   *local balancing* (blocks balanced in memory, then their boundaries)
//!   is not reproduced: on the page-cache sizes used here the block copies
//!   cost more than they save (DESIGN.md).
//! - **transform**: two streaming scans of the store around one sort of all
//!   leaves' corner keys. The runs of equal keys give the node ids (rank
//!   among the distinct keys) and the hanging flags (corner multiplicity,
//!   [`node_runs`] — the rules the in-core `HexMesh::from_octree` uses too)
//!   and become the node database; the second scan writes the element
//!   database, resolving corner ids by binary search.

use crate::store::{MaterialRec, OctantStore};
use quake_octree::{node_runs, ripple, BalanceMode, LeafSet, Octant, MAX_LEVEL};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Stage statistics of a pipeline run (Fig 2.1 / the etree table).
#[derive(Clone, Copy, Debug, Default)]
pub struct PipelineStats {
    pub constructed_octants: u64,
    pub after_balance_octants: u64,
    /// Sample points probed by the balance's ripple.
    pub balance_probes: u64,
    pub elements: u64,
    pub nodes: u64,
    pub hanging_nodes: u64,
    pub construct_secs: f64,
    pub balance_secs: f64,
    pub transform_secs: f64,
}

/// One element record of the element database.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ElementRec {
    pub octant: Octant,
    pub nodes: [u64; 8],
    pub material: MaterialRec,
}

/// One node record of the node database.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeRec {
    /// Grid coordinates (0..=GRID on each axis).
    pub coords: [u32; 3],
    pub id: u64,
    pub hanging: bool,
}

/// Paths and counts of the transform output.
#[derive(Clone, Debug)]
pub struct MeshDatabases {
    pub element_db: PathBuf,
    pub node_db: PathBuf,
    pub n_elements: u64,
    pub n_nodes: u64,
    pub n_hanging: u64,
}

const ELEM_REC_SIZE: usize = 8 + 64 + MaterialRec::ENCODED_SIZE;
const NODE_REC_SIZE: usize = 8 + 8 + 8; // morton, id, flags(+pad)

impl MeshDatabases {
    /// Stream the element database in Morton order.
    pub fn read_elements(&self) -> io::Result<impl Iterator<Item = io::Result<ElementRec>>> {
        let mut r = BufReader::new(std::fs::File::open(&self.element_db)?);
        let n = self.n_elements;
        let mut i = 0u64;
        Ok(std::iter::from_fn(move || {
            if i >= n {
                return None;
            }
            i += 1;
            let mut buf = [0u8; ELEM_REC_SIZE];
            Some(r.read_exact(&mut buf).map(|()| {
                let key = u64::from_le_bytes(buf[..8].try_into().unwrap());
                let mut nodes = [0u64; 8];
                for (j, n) in nodes.iter_mut().enumerate() {
                    *n = u64::from_le_bytes(buf[8 + 8 * j..16 + 8 * j].try_into().unwrap());
                }
                let material = MaterialRec::decode(&buf[72..72 + MaterialRec::ENCODED_SIZE]);
                ElementRec { octant: Octant::from_key(key), nodes, material }
            }))
        }))
    }

    /// Stream the node database in Morton order.
    pub fn read_nodes(&self) -> io::Result<impl Iterator<Item = io::Result<NodeRec>>> {
        let mut r = BufReader::new(std::fs::File::open(&self.node_db)?);
        let n = self.n_nodes;
        let mut i = 0u64;
        Ok(std::iter::from_fn(move || {
            if i >= n {
                return None;
            }
            i += 1;
            let mut buf = [0u8; NODE_REC_SIZE];
            Some(r.read_exact(&mut buf).map(|()| {
                let m = u64::from_le_bytes(buf[..8].try_into().unwrap());
                let id = u64::from_le_bytes(buf[8..16].try_into().unwrap());
                let hanging = buf[16] != 0;
                let (x, y, z) = quake_octree::morton_decode(m);
                NodeRec { coords: [x, y, z], id, hanging }
            }))
        }))
    }
}

/// The etree pipeline's three stages. It balances to the full 2-to-1
/// constraint (faces, edges and corners), the only one
/// `HexMesh::from_octree` accepts.
#[derive(Clone, Copy, Debug, Default)]
pub struct EtreePipeline;

impl EtreePipeline {
    /// Construct step: auto-navigation refinement, leaves written to `store`.
    pub fn construct<S: OctantStore>(
        &self,
        store: &mut S,
        mut refine: impl FnMut(&Octant) -> bool,
        mut material: impl FnMut(&Octant) -> MaterialRec,
        stats: &mut PipelineStats,
    ) -> io::Result<()> {
        let t0 = Instant::now();
        let mut stack = vec![Octant::ROOT];
        while let Some(o) = stack.pop() {
            if o.level < MAX_LEVEL && refine(&o) {
                stack.extend(o.children());
            } else {
                store.insert(o, material(&o))?;
                stats.constructed_octants += 1;
            }
        }
        stats.construct_secs = t0.elapsed().as_secs_f64();
        Ok(())
    }

    /// Balance step: one scan of the store seeds [`ripple`] with every
    /// leaf and the coarsest level, then the ripple runs against the store
    /// in Morton order of the sibling families. New octants created by
    /// splitting get their material from `material`.
    pub fn balance<S: OctantStore>(
        &self,
        store: &mut S,
        material: impl FnMut(&Octant) -> MaterialRec,
        stats: &mut PipelineStats,
    ) -> io::Result<()> {
        let t0 = Instant::now();
        let mut leaves: Vec<Octant> = Vec::with_capacity(store.len() as usize);
        let mut floor = MAX_LEVEL;
        store.scan_all(&mut |o, _| {
            floor = floor.min(o.level);
            leaves.push(o);
        })?;
        let mut set = StoreLeaves { store: &mut *store, material };
        stats.balance_probes = ripple(&mut set, leaves, floor, BalanceMode::Full)?;
        stats.after_balance_octants = store.len();
        stats.balance_secs = t0.elapsed().as_secs_f64();
        Ok(())
    }

    /// Transform step: derive the element and node databases.
    ///
    /// `scratch_dir` receives two files, `elements.db` and `nodes.db`. The
    /// store is scanned twice around one in-memory sort of every leaf's
    /// corner keys (8 bytes per corner, then 8 per node); no index is built
    /// and the store is never probed.
    pub fn transform<S: OctantStore>(
        &self,
        store: &mut S,
        scratch_dir: &Path,
        stats: &mut PipelineStats,
    ) -> io::Result<MeshDatabases> {
        let t0 = Instant::now();
        std::fs::create_dir_all(scratch_dir)?;
        let element_db = scratch_dir.join("elements.db");
        let node_db = scratch_dir.join("nodes.db");

        // Pass 1: every leaf's corner keys, sorted.
        let mut keys: Vec<u64> = Vec::with_capacity(store.len() as usize * 8);
        store.scan_all(&mut |o, _| keys.extend(o.corner_keys()))?;
        keys.sort_unstable();
        let n_elements = keys.len() as u64 / 8;

        // Pass 2: one node record per run of equal keys — id = rank of the
        // run, hanging by corner multiplicity.
        let mut node_file = BufWriter::new(std::fs::File::create(&node_db)?);
        let mut n_hanging = 0u64;
        for (id, (k, hanging)) in node_runs(&keys).enumerate() {
            n_hanging += hanging as u64;
            let mut rec = [0u8; NODE_REC_SIZE];
            rec[..8].copy_from_slice(&k.to_le_bytes());
            rec[8..16].copy_from_slice(&(id as u64).to_le_bytes());
            rec[16] = hanging as u8;
            node_file.write_all(&rec)?;
        }
        node_file.flush()?;
        keys.dedup();
        keys.shrink_to_fit();
        let n_nodes = keys.len() as u64;

        // Pass 3: element records, corner ids found by binary search.
        let mut elem_file = BufWriter::new(std::fs::File::create(&element_db)?);
        let mut written = Ok(());
        store.scan_all(&mut |o, m| {
            if written.is_ok() {
                written = write_element(&mut elem_file, &keys, o, m);
            }
        })?;
        written?;
        elem_file.flush()?;

        stats.elements = n_elements;
        stats.nodes = n_nodes;
        stats.hanging_nodes = n_hanging;
        stats.transform_secs = t0.elapsed().as_secs_f64();
        Ok(MeshDatabases { element_db, node_db, n_elements, n_nodes, n_hanging })
    }
}

/// One element record: locational key, the node ids of its corners (their
/// ranks in the sorted distinct `node_keys`) and its material.
fn write_element(
    w: &mut impl Write,
    node_keys: &[u64],
    o: Octant,
    m: MaterialRec,
) -> io::Result<()> {
    let mut rec = [0u8; ELEM_REC_SIZE];
    rec[..8].copy_from_slice(&o.key().to_le_bytes());
    for (c, k) in o.corner_keys().iter().enumerate() {
        let id = node_keys.binary_search(k).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidData, "octant store changed during transform")
        })?;
        rec[8 + 8 * c..16 + 8 * c].copy_from_slice(&(id as u64).to_le_bytes());
    }
    rec[72..].copy_from_slice(&m.encode());
    w.write_all(&rec)
}

/// The store as the leaf set [`ripple`] refines: the children of a split
/// leaf get their material from `material`.
struct StoreLeaves<'a, S, M> {
    store: &'a mut S,
    material: M,
}

impl<S: OctantStore, M: FnMut(&Octant) -> MaterialRec> LeafSet for StoreLeaves<'_, S, M> {
    type Error = io::Error;

    fn leaf_at(&mut self, p: (u32, u32, u32)) -> io::Result<Octant> {
        let (n, _) = self
            .store
            .find_containing(p)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "octant store has a hole"))?;
        Ok(n)
    }

    fn split(&mut self, n: Octant) -> io::Result<()> {
        self.store.remove(&n)?;
        for c in n.children() {
            self.store.insert(c, (self.material)(&c))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{DiskStore, MemStore};
    use quake_octree::balance::violation_count;
    use quake_octree::morton::GRID;
    use quake_octree::LinearOctree;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("quake-etree-tests").join(format!(
            "pipe-{}-{}",
            name,
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn mat(o: &Octant) -> MaterialRec {
        MaterialRec { vp: 2000.0, vs: 1000.0 + o.level as f64, rho: 2200.0 }
    }

    /// The definition of a hanging node, asked of the store: some leaf
    /// incident to the node does not have it as one of its corners (the node
    /// sits on that leaf's edge or face interior).
    fn is_hanging<S: OctantStore>(store: &mut S, p: [u32; 3]) -> io::Result<bool> {
        for dz in 0..2u32 {
            for dy in 0..2u32 {
                for dx in 0..2u32 {
                    // Probe the cell whose far corner (in this octant
                    // direction) is p: its interior-adjacent grid point is
                    // p - (dx,dy,dz).
                    if (dx > p[0]) || (dy > p[1]) || (dz > p[2]) {
                        continue;
                    }
                    let q = (p[0] - dx, p[1] - dy, p[2] - dz);
                    if q.0 >= GRID || q.1 >= GRID || q.2 >= GRID {
                        continue;
                    }
                    let Some((leaf, _)) = store.find_containing(q)? else { continue };
                    let s = leaf.size();
                    let is_corner = (p[0] == leaf.x || p[0] == leaf.x + s)
                        && (p[1] == leaf.y || p[1] == leaf.y + s)
                        && (p[2] == leaf.z || p[2] == leaf.z + s);
                    if !is_corner {
                        return Ok(true);
                    }
                }
            }
        }
        Ok(false)
    }

    /// One refined child of the root: 15 elements, 46 nodes, 12 hanging.
    fn one_refined<S: OctantStore>(store: &mut S) -> PipelineStats {
        let p = EtreePipeline;
        let mut stats = PipelineStats::default();
        p.construct(
            store,
            |o| o.level == 0 || (o.level == 1 && o.x == 0 && o.y == 0 && o.z == 0),
            mat,
            &mut stats,
        )
        .unwrap();
        stats
    }

    #[test]
    fn transform_counts_on_known_two_level_mesh() {
        let dir = tmpdir("known");
        let mut store = MemStore::new();
        let mut stats = one_refined(&mut store);
        assert_eq!(stats.constructed_octants, 15);
        let p = EtreePipeline;
        let db = p.transform(&mut store, &dir, &mut stats).unwrap();
        assert_eq!(db.n_elements, 15);
        assert_eq!(db.n_nodes, 46);
        assert_eq!(db.n_hanging, 12);
        // Element records resolve to valid, distinct corner node ids.
        let mut elem_count = 0;
        for e in db.read_elements().unwrap() {
            let e = e.unwrap();
            let mut ids = e.nodes.to_vec();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), 8, "element has duplicate corner nodes");
            assert!(ids.iter().all(|&i| i < db.n_nodes));
            elem_count += 1;
        }
        assert_eq!(elem_count, 15);
        // Node ids are sequential in Morton order.
        let nodes: Vec<NodeRec> = db.read_nodes().unwrap().map(|n| n.unwrap()).collect();
        for (i, n) in nodes.iter().enumerate() {
            assert_eq!(n.id, i as u64);
        }
        assert_eq!(nodes.iter().filter(|n| n.hanging).count(), 12);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn uniform_mesh_has_no_hanging_nodes() {
        let dir = tmpdir("uniform");
        let mut store = MemStore::new();
        let p = EtreePipeline;
        let mut stats = PipelineStats::default();
        p.construct(&mut store, |o| o.level < 2, mat, &mut stats).unwrap();
        p.balance(&mut store, mat, &mut stats).unwrap();
        let db = p.transform(&mut store, &dir, &mut stats).unwrap();
        assert_eq!(db.n_elements, 64);
        assert_eq!(db.n_nodes, 125);
        assert_eq!(db.n_hanging, 0);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn balance_on_store_matches_in_core_balance() {
        // Center-refined tree (genuinely unbalanced, crossing all blocks).
        let half = 1u32 << (MAX_LEVEL - 1);
        let refine = |o: &Octant| o.level < 5 && o.contains_point(half, half, half);

        let mut store = MemStore::new();
        let p = EtreePipeline;
        let mut stats = PipelineStats::default();
        p.construct(&mut store, refine, mat, &mut stats).unwrap();
        p.balance(&mut store, mat, &mut stats).unwrap();
        let mut got: Vec<Octant> = Vec::new();
        store.scan_all(&mut |o, _| got.push(o)).unwrap();

        let mut reference = LinearOctree::build(refine);
        reference.balance(BalanceMode::Full);
        assert_eq!(got, reference.leaves());
        assert_eq!(stats.after_balance_octants, reference.len() as u64);
    }

    #[test]
    fn disk_pipeline_matches_memory_pipeline() {
        let dir = tmpdir("diskmem");
        let half = 1u32 << (MAX_LEVEL - 1);
        let refine = |o: &Octant| o.level < 4 && o.contains_point(half, half, half);
        let p = EtreePipeline;

        let mut mem = MemStore::new();
        let mut s1 = PipelineStats::default();
        p.construct(&mut mem, refine, mat, &mut s1).unwrap();
        p.balance(&mut mem, mat, &mut s1).unwrap();
        let db_mem = p.transform(&mut mem, &dir.join("mem"), &mut s1).unwrap();

        let mut disk = DiskStore::create(&dir.join("octants.btree"), 64).unwrap();
        let mut s2 = PipelineStats::default();
        p.construct(&mut disk, refine, mat, &mut s2).unwrap();
        p.balance(&mut disk, mat, &mut s2).unwrap();
        let db_disk = p.transform(&mut disk, &dir.join("disk"), &mut s2).unwrap();

        assert_eq!(db_mem.n_elements, db_disk.n_elements);
        assert_eq!(db_mem.n_nodes, db_disk.n_nodes);
        assert_eq!(db_mem.n_hanging, db_disk.n_hanging);
        let em: Vec<ElementRec> = db_mem.read_elements().unwrap().map(|e| e.unwrap()).collect();
        let ed: Vec<ElementRec> = db_disk.read_elements().unwrap().map(|e| e.unwrap()).collect();
        assert_eq!(em, ed);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn hanging_ratio_is_sizeable_on_adaptive_mesh() {
        // The paper's LA mesh had ~15% hanging nodes; check we see the same
        // order of magnitude on a small adaptive tree.
        let dir = tmpdir("ratio");
        let mut store = MemStore::new();
        let p = EtreePipeline;
        let mut stats = PipelineStats::default();
        let half = 1u32 << (MAX_LEVEL - 1);
        p.construct(
            &mut store,
            |o| o.level < 3 || (o.level < 5 && o.contains_point(half, half, 0)),
            mat,
            &mut stats,
        )
        .unwrap();
        p.balance(&mut store, mat, &mut stats).unwrap();
        let db = p.transform(&mut store, &dir, &mut stats).unwrap();
        let ratio = db.n_hanging as f64 / db.n_nodes as f64;
        assert!(ratio > 0.01 && ratio < 0.5, "hanging ratio {ratio}");
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// LCG-seeded adaptive trees, as construct rules: refinement to a random
    /// depth around one to three random points.
    fn random_rules() -> Vec<impl Fn(&Octant) -> bool> {
        let mut state = 0xE7EEu64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 11
        };
        let cell = 1u32 << (MAX_LEVEL - 3);
        (0..10)
            .map(|_| {
                let r = next();
                let depth = (3 + (r >> 8) % 3) as u8;
                let seeds: Vec<(u32, u32, u32)> = (0..1 + r % 3)
                    .map(|_| {
                        let q = next() as u32;
                        ((q % 8) * cell, ((q >> 8) % 8) * cell, ((q >> 16) % 8) * cell)
                    })
                    .collect();
                move |o: &Octant| {
                    o.level < 1
                        || (o.level < depth
                            && seeds.iter().any(|&(x, y, z)| o.contains_point(x, y, z)))
                }
            })
            .collect()
    }

    #[test]
    fn balance_on_store_matches_in_core_balance_on_random_trees() {
        // The LCG trees, one that keeps level-1 leaves beside level-3 ones
        // across the centre planes (the edge of the level-floor rule), and a
        // centre refinement to level 6 whose violations cross all 8 blocks.
        let below_centre = (1u32 << (MAX_LEVEL - 1)) - 1;
        let half = below_centre + 1;
        let floor_edge = move |o: &Octant| {
            o.level < 3 && o.contains_point(below_centre, below_centre, below_centre)
        };
        let centre = move |o: &Octant| o.level < 6 && o.contains_point(half, half, half);
        let rules = random_rules();
        let extra: [&dyn Fn(&Octant) -> bool; 2] = [&floor_edge, &centre];
        let mut unbalanced = 0;
        for (case, refine) in
            rules.iter().map(|r| r as &dyn Fn(&Octant) -> bool).chain(extra).enumerate()
        {
            let p = EtreePipeline;
            let mut store = MemStore::new();
            let mut stats = PipelineStats::default();
            p.construct(&mut store, refine, mat, &mut stats).unwrap();
            p.balance(&mut store, mat, &mut stats).unwrap();
            let mut got: Vec<Octant> = Vec::new();
            store.scan_all(&mut |o, _| got.push(o)).unwrap();

            let mut reference = LinearOctree::build(refine);
            unbalanced += (violation_count(&reference, BalanceMode::Full) > 0) as usize;
            reference.balance(BalanceMode::Full);
            assert_eq!(got, reference.leaves(), "tree {case}");
            let got = LinearOctree::from_leaves(got);
            assert_eq!(violation_count(&got, BalanceMode::Full), 0, "tree {case}");
        }
        assert!(unbalanced >= 10, "the trees must violate 2-to-1 before balance, got {unbalanced}");
    }

    #[test]
    fn hanging_flags_match_the_store_probing_definition() {
        let dir = tmpdir("oracle");
        let p = EtreePipeline;
        let mut hanging_seen = 0;
        for (case, refine) in random_rules().iter().enumerate() {
            let mut store = MemStore::new();
            let mut stats = PipelineStats::default();
            p.construct(&mut store, refine, mat, &mut stats).unwrap();
            p.balance(&mut store, mat, &mut stats).unwrap();
            let db = p.transform(&mut store, &dir, &mut stats).unwrap();
            for n in db.read_nodes().unwrap() {
                let n = n.unwrap();
                let want = is_hanging(&mut store, n.coords).unwrap();
                assert_eq!(n.hanging, want, "tree {case}, node {} at {:?}", n.id, n.coords);
                hanging_seen += want as usize;
            }
        }
        assert!(hanging_seen > 0, "the random trees must be adaptive");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn balance_reports_a_store_with_a_hole_instead_of_panicking() {
        // Level 2 everywhere, refined to level 4 at the centre of the domain
        // on the +x side; the leaf across x = half holds the sample point of
        // the level-4 leaf's -x direction.
        let half = 1u32 << (MAX_LEVEL - 1);
        let mut store = MemStore::new();
        let p = EtreePipeline;
        let mut stats = PipelineStats::default();
        p.construct(
            &mut store,
            |o| o.level < 2 || (o.level < 4 && o.contains_point(half, half, half)),
            mat,
            &mut stats,
        )
        .unwrap();
        let (hole, _) = store.find_containing((half - 1, half, half)).unwrap().unwrap();
        assert!(store.remove(&hole).unwrap());
        let err = p.balance(&mut store, mat, &mut stats).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// A [`MemStore`] that returns an I/O error from its `fail_at + 1`-th
    /// fallible call onward, counting every call it is asked.
    struct FailingStore {
        inner: MemStore,
        calls: u64,
        fail_at: u64,
    }

    impl FailingStore {
        fn new(fail_at: u64) -> FailingStore {
            FailingStore { inner: MemStore::new(), calls: 0, fail_at }
        }

        fn call(&mut self) -> io::Result<()> {
            self.calls += 1;
            if self.calls > self.fail_at {
                return Err(io::Error::other("injected store failure"));
            }
            Ok(())
        }
    }

    impl OctantStore for FailingStore {
        fn insert(&mut self, oct: Octant, mat: MaterialRec) -> io::Result<()> {
            self.call()?;
            self.inner.insert(oct, mat)
        }

        fn remove(&mut self, oct: &Octant) -> io::Result<bool> {
            self.call()?;
            self.inner.remove(oct)
        }

        fn get(&mut self, oct: &Octant) -> io::Result<Option<MaterialRec>> {
            self.call()?;
            self.inner.get(oct)
        }

        fn floor(&mut self, key: u64) -> io::Result<Option<(Octant, MaterialRec)>> {
            self.call()?;
            self.inner.floor(key)
        }

        fn scan_range(
            &mut self,
            lo: u64,
            hi: u64,
            f: &mut dyn FnMut(Octant, MaterialRec),
        ) -> io::Result<()> {
            self.call()?;
            self.inner.scan_range(lo, hi, f)
        }

        fn len(&self) -> u64 {
            self.inner.len()
        }
    }

    #[test]
    fn a_failing_store_makes_the_pipeline_return_err_at_every_call() {
        // Centre refinement to level 4: balance splits, so every stage
        // calls the store, reads and writes both.
        let half = 1u32 << (MAX_LEVEL - 1);
        let dir = tmpdir("failing");
        let run = |store: &mut FailingStore| {
            let p = EtreePipeline;
            let mut stats = PipelineStats::default();
            p.construct(
                store,
                |o| o.level < 4 && o.contains_point(half, half, half),
                mat,
                &mut stats,
            )?;
            p.balance(store, mat, &mut stats)?;
            assert!(stats.after_balance_octants > stats.constructed_octants);
            p.transform(store, &dir, &mut stats)
        };
        let mut clean = FailingStore::new(u64::MAX);
        run(&mut clean).unwrap();
        assert!(clean.calls > 100, "only {} store calls", clean.calls);
        for fail_at in 0..clean.calls {
            let mut store = FailingStore::new(fail_at);
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&mut store))) {
                Ok(Err(e)) => assert_eq!(e.to_string(), "injected store failure", "call {fail_at}"),
                Ok(Ok(_)) => {
                    panic!("store call {} failed, yet the pipeline succeeded", fail_at + 1)
                }
                Err(_) => panic!("store call {} failed and the pipeline panicked", fail_at + 1),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
