//! Octant stores: the abstraction the etree pipeline runs against.
//!
//! [`DiskStore`] is the real thing (octants + material records in the disk
//! B-tree); [`MemStore`] is an in-memory model used for tests, differential
//! testing of the disk engine, and for callers that know their tree fits in
//! RAM.

use crate::btree::BTree;
use quake_octree::{Octant, MAX_LEVEL};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// Material properties attached to each octant (what the paper's mesher
/// queries from the velocity model database).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MaterialRec {
    /// P-wave velocity (m/s).
    pub vp: f64,
    /// S-wave velocity (m/s).
    pub vs: f64,
    /// Density (kg/m^3).
    pub rho: f64,
}

impl MaterialRec {
    pub const ENCODED_SIZE: usize = 24;

    pub fn encode(&self) -> [u8; Self::ENCODED_SIZE] {
        let mut b = [0u8; Self::ENCODED_SIZE];
        b[..8].copy_from_slice(&self.vp.to_le_bytes());
        b[8..16].copy_from_slice(&self.vs.to_le_bytes());
        b[16..].copy_from_slice(&self.rho.to_le_bytes());
        b
    }

    pub fn decode(b: &[u8]) -> MaterialRec {
        assert_eq!(b.len(), Self::ENCODED_SIZE);
        MaterialRec {
            vp: f64::from_le_bytes(b[..8].try_into().unwrap()),
            vs: f64::from_le_bytes(b[8..16].try_into().unwrap()),
            rho: f64::from_le_bytes(b[16..24].try_into().unwrap()),
        }
    }
}

/// Keyed storage of octree leaves with material payloads.
pub trait OctantStore {
    fn insert(&mut self, oct: Octant, mat: MaterialRec) -> io::Result<()>;
    fn remove(&mut self, oct: &Octant) -> io::Result<bool>;
    fn get(&mut self, oct: &Octant) -> io::Result<Option<MaterialRec>>;
    /// Greatest entry with key `<= key`.
    fn floor(&mut self, key: u64) -> io::Result<Option<(Octant, MaterialRec)>>;
    /// In-order visit of entries with key in `[lo, hi]`.
    fn scan_range(
        &mut self,
        lo: u64,
        hi: u64,
        f: &mut dyn FnMut(Octant, MaterialRec),
    ) -> io::Result<()>;
    fn len(&self) -> u64;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The leaf containing a grid point (the tree must be a complete cover).
    fn find_containing(&mut self, p: (u32, u32, u32)) -> io::Result<Option<(Octant, MaterialRec)>> {
        // The containing leaf is the floor of the finest key at this point
        // (see quake-octree): any key between them would be a descendant of
        // the containing leaf, contradicting leaf disjointness.
        if p.0 >= quake_octree::morton::GRID
            || p.1 >= quake_octree::morton::GRID
            || p.2 >= quake_octree::morton::GRID
        {
            return Ok(None);
        }
        let key = Octant::new(p.0, p.1, p.2, MAX_LEVEL).key();
        match self.floor(key)? {
            Some((o, m)) if o.contains_point(p.0, p.1, p.2) => Ok(Some((o, m))),
            _ => Ok(None),
        }
    }

    /// Visit everything in key (Morton preorder) order.
    fn scan_all(&mut self, f: &mut dyn FnMut(Octant, MaterialRec)) -> io::Result<()> {
        self.scan_range(0, u64::MAX, f)
    }
}

/// In-memory store backed by a `BTreeMap`.
#[derive(Default)]
pub struct MemStore {
    map: BTreeMap<u64, MaterialRec>,
}

impl MemStore {
    pub fn new() -> MemStore {
        MemStore::default()
    }
}

impl OctantStore for MemStore {
    fn insert(&mut self, oct: Octant, mat: MaterialRec) -> io::Result<()> {
        self.map.insert(oct.key(), mat);
        Ok(())
    }

    fn remove(&mut self, oct: &Octant) -> io::Result<bool> {
        Ok(self.map.remove(&oct.key()).is_some())
    }

    fn get(&mut self, oct: &Octant) -> io::Result<Option<MaterialRec>> {
        Ok(self.map.get(&oct.key()).copied())
    }

    fn floor(&mut self, key: u64) -> io::Result<Option<(Octant, MaterialRec)>> {
        Ok(self.map.range(..=key).next_back().map(|(&k, &m)| (Octant::from_key(k), m)))
    }

    fn scan_range(
        &mut self,
        lo: u64,
        hi: u64,
        f: &mut dyn FnMut(Octant, MaterialRec),
    ) -> io::Result<()> {
        for (&k, &m) in self.map.range(lo..=hi) {
            f(Octant::from_key(k), m);
        }
        Ok(())
    }

    fn len(&self) -> u64 {
        self.map.len() as u64
    }
}

/// Disk-backed store: a [`BTree`] of material records keyed by locational
/// code.
pub struct DiskStore {
    tree: BTree,
}

impl DiskStore {
    pub fn create(path: &Path, cache_pages: usize) -> io::Result<DiskStore> {
        Ok(DiskStore { tree: BTree::create(path, MaterialRec::ENCODED_SIZE, cache_pages)? })
    }

    pub fn open(path: &Path, cache_pages: usize) -> io::Result<DiskStore> {
        let tree = BTree::open(path, cache_pages)?;
        if tree.value_size() != MaterialRec::ENCODED_SIZE {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "not an octant store"));
        }
        Ok(DiskStore { tree })
    }

    pub fn flush(&mut self) -> io::Result<()> {
        self.tree.flush()
    }

    pub fn io_stats(&self) -> crate::pager::PagerStats {
        self.tree.io_stats()
    }
}

impl OctantStore for DiskStore {
    fn insert(&mut self, oct: Octant, mat: MaterialRec) -> io::Result<()> {
        self.tree.insert(oct.key(), &mat.encode())?;
        Ok(())
    }

    fn remove(&mut self, oct: &Octant) -> io::Result<bool> {
        self.tree.remove(oct.key())
    }

    fn get(&mut self, oct: &Octant) -> io::Result<Option<MaterialRec>> {
        Ok(self.tree.get(oct.key())?.map(MaterialRec::decode))
    }

    fn floor(&mut self, key: u64) -> io::Result<Option<(Octant, MaterialRec)>> {
        Ok(self.tree.floor(key)?.map(|(k, v)| (Octant::from_key(k), MaterialRec::decode(v))))
    }

    fn scan_range(
        &mut self,
        lo: u64,
        hi: u64,
        f: &mut dyn FnMut(Octant, MaterialRec),
    ) -> io::Result<()> {
        self.tree.range_scan(lo, hi, |k, v| f(Octant::from_key(k), MaterialRec::decode(v)))
    }

    fn len(&self) -> u64 {
        self.tree.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quake_octree::LinearOctree;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("quake-etree-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("store-{}-{}", name, std::process::id()))
    }

    fn mat(i: u64) -> MaterialRec {
        MaterialRec { vp: 1000.0 + i as f64, vs: 500.0 + i as f64, rho: 2000.0 }
    }

    #[test]
    fn material_rec_roundtrip() {
        let m = MaterialRec { vp: 5500.0, vs: 3200.5, rho: 2700.25 };
        assert_eq!(MaterialRec::decode(&m.encode()), m);
    }

    #[test]
    fn mem_and_disk_agree_on_octree_workload() {
        let path = tmp("diff");
        let mut mem = MemStore::new();
        let mut disk = DiskStore::create(&path, 32).unwrap();
        let tree = LinearOctree::build(|o| o.level < 3);
        for (i, o) in tree.leaves().iter().enumerate() {
            mem.insert(*o, mat(i as u64)).unwrap();
            disk.insert(*o, mat(i as u64)).unwrap();
        }
        assert_eq!(mem.len(), disk.len());
        // Point location agrees everywhere on a sample of points.
        for p in [(0u32, 0u32, 0u32), (123_456, 7, 99_999), (1 << 18, 1 << 17, 3)] {
            let a = mem.find_containing(p).unwrap().unwrap();
            let b = disk.find_containing(p).unwrap().unwrap();
            assert_eq!(a, b);
        }
        // Remove + rescan agree.
        let victim = tree.leaves()[100];
        assert!(mem.remove(&victim).unwrap());
        assert!(disk.remove(&victim).unwrap());
        let mut a = Vec::new();
        let mut b = Vec::new();
        mem.scan_all(&mut |o, m| a.push((o, m))).unwrap();
        disk.scan_all(&mut |o, m| b.push((o, m))).unwrap();
        assert_eq!(a, b);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn find_containing_identifies_leaf() {
        let mut mem = MemStore::new();
        let tree = LinearOctree::build(|o| {
            o.level < 2 || (o.level < 4 && o.x == 0 && o.y == 0 && o.z == 0)
        });
        for o in tree.leaves() {
            mem.insert(*o, MaterialRec::default()).unwrap();
        }
        for o in tree.leaves() {
            let c = (o.x + o.size() / 2, o.y + o.size() / 2, o.z + o.size() / 2);
            let (found, _) = mem.find_containing(c).unwrap().unwrap();
            assert_eq!(&found, o);
        }
    }
}
