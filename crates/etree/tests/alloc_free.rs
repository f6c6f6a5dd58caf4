//! The B-tree searches and edits its pages where they lie in the pager
//! cache, so once the cache holds the whole tree, lookups and inserts that
//! do not split make no heap allocation at all. Counted here with a counting
//! global allocator rather than argued by a lint.

use quake_etree::{DiskStore, MaterialRec, OctantStore};
use quake_octree::{LinearOctree, Octant, MAX_LEVEL};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Per thread, so the test harness's other threads are not counted.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; the only addition is
// a thread-local counter that never allocates (const-initialised `Cell`).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's guarantees for `alloc` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's guarantees for `alloc_zeroed` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller's guarantees for `realloc` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's guarantees for `dealloc` pass through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

fn mat(o: &Octant) -> MaterialRec {
    MaterialRec { vp: 2000.0 + o.x as f64, vs: 1000.0 + o.level as f64, rho: 2200.0 }
}

#[test]
fn lookups_and_non_splitting_inserts_allocate_nothing() {
    let dir = std::env::temp_dir().join("quake-etree-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("alloc-free-{}.btree", std::process::id()));

    // 4 096 octants take ~70 pages; a 256-page cache holds all of them.
    let tree = LinearOctree::build(|o| o.level < 4);
    let mut store = DiskStore::create(&path, 256).unwrap();
    for o in tree.leaves() {
        store.insert(*o, mat(o)).unwrap();
    }
    let mut seen = 0;
    store.scan_all(&mut |_, _| seen += 1).unwrap();
    assert_eq!(seen, tree.len());
    assert_eq!(store.io_stats().evictions, 0, "the cache must hold the whole tree");

    let probes: Vec<Octant> = tree.leaves().iter().step_by(37).copied().collect();
    let points: Vec<(u32, u32, u32)> =
        probes.iter().map(|o| (o.x + o.size() / 3, o.y + 1, o.z + o.size() - 1)).collect();
    let fine_key = |p: (u32, u32, u32)| Octant::new(p.0, p.1, p.2, MAX_LEVEL).key();

    let (n, found) =
        allocations(|| probes.iter().filter(|o| store.get(o).unwrap() == Some(mat(o))).count());
    assert_eq!((n, found), (0, probes.len()), "get");

    let (n, found) = allocations(|| {
        points.iter().filter(|&&p| store.floor(fine_key(p)).unwrap().is_some()).count()
    });
    assert_eq!((n, found), (0, points.len()), "floor");

    let (n, found) = allocations(|| {
        let mut hits = 0;
        for (&p, o) in points.iter().zip(&probes) {
            hits += (store.find_containing(p).unwrap() == Some((*o, mat(o)))) as usize;
        }
        hits
    });
    assert_eq!((n, found), (0, probes.len()), "find_containing");

    // An insert into a leaf with room (one entry was just removed from it),
    // and an insert that replaces a value in place: no split, no page
    // allocated.
    for o in &probes {
        assert!(store.remove(o).unwrap());
        let (n, ()) = allocations(|| store.insert(*o, mat(o)).unwrap());
        assert_eq!(n, 0, "insert into a leaf with room");
        let replaced = MaterialRec { rho: 1.0, ..mat(o) };
        let (n, ()) = allocations(|| store.insert(*o, replaced).unwrap());
        assert_eq!(n, 0, "insert that replaces");
    }

    // The counter does see the B-tree allocate: a split takes a fresh page.
    let before = store.io_stats();
    let (n, ()) = allocations(|| {
        for o in tree.leaves()[..200].iter().flat_map(|o| o.children()) {
            store.insert(o, mat(&o)).unwrap();
        }
    });
    assert!(n > 0, "splitting inserts allocate their new pages");
    assert_eq!(store.io_stats().evictions, before.evictions);
    std::fs::remove_file(path).unwrap();
}
