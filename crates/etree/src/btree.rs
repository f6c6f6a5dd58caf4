//! A disk B-tree with `u64` keys and fixed-size values.
//!
//! This is the primary-key index of the etree method: octants keyed by their
//! locational code. The tree is order-preserving (so Morton-ordered octant
//! scans are sequential leaf walks), supports `floor` queries (point location
//! = "greatest octant key <= key of the query point") and chained-leaf range
//! scans. Deletion is lazy (no page merging): the balance step deletes a
//! coarse octant and immediately inserts its eight children into the same key
//! neighborhood, so pages stay well filled in practice.
//!
//! Nodes are never decoded: searches run over the keys in the cached page,
//! edits shift its slots in place, and `get`/`floor` hand out slices of it.
//! Page contents come from a file, so a count, tag or page id that no valid
//! tree holds is `InvalidData`, never a panic.

use crate::pager::{Pager, PagerStats, PAGE_SIZE};
use std::io;
use std::path::Path;

const MAGIC: &[u8; 8] = b"QETREE01";
const NIL: u32 = u32::MAX;
const TAG_INTERNAL: u8 = 0;
const TAG_LEAF: u8 = 1;
const HDR_ENTRIES_OFF: usize = 16;

// Node page layout: tag (1 byte), pad, key count (u16) at 2; a leaf keeps
// its chain links at 4 (prev) and 8 (next). Slots start at 16: a leaf's are
// (key, value) pairs, an internal node's keys are followed by its children.
const NKEYS_OFF: usize = 2;
const PREV_OFF: usize = 4;
const NEXT_OFF: usize = 8;
const SLOTS_OFF: usize = 16;

/// Max keys in an internal node: layout is 16-byte header, keys, children.
const INTERNAL_MAX: usize = (PAGE_SIZE - 16 - 4) / 12;
const CHILDREN_OFF: usize = SLOTS_OFF + INTERNAL_MAX * 8;

/// Internal levels a tree can have. Every internal node but the root holds
/// at least `INTERNAL_MAX / 2` keys (nodes split, never merge), so a tree of
/// `2^32` pages is far shallower; a deeper path in a file is a cycle.
const MAX_HEIGHT: usize = 16;

fn leaf_max(value_size: usize) -> usize {
    (PAGE_SIZE - 16) / (8 + value_size)
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn get_u32(b: &[u8], off: usize) -> u32 {
    let mut w = [0u8; 4];
    w.copy_from_slice(&b[off..off + 4]);
    u32::from_le_bytes(w)
}

fn get_u64(b: &[u8], off: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&b[off..off + 8]);
    u64::from_le_bytes(w)
}

fn put_u32(b: &mut [u8], off: usize, v: u32) {
    b[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

fn put_u64(b: &mut [u8], off: usize, v: u64) {
    b[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

/// Key count of a node page, checked against its tag and capacity: both
/// come from the file, and a wrong one must not index past the page.
fn node_len(page: &[u8; PAGE_SIZE], tag: u8, max: usize) -> io::Result<usize> {
    let n = u16::from_le_bytes([page[NKEYS_OFF], page[NKEYS_OFF + 1]]) as usize;
    if page[0] != tag {
        return Err(invalid(format!("page has tag {}, expected {tag}", page[0])));
    }
    if n > max {
        return Err(invalid(format!("node holds {n} keys, capacity {max}")));
    }
    Ok(n)
}

fn set_len(page: &mut [u8; PAGE_SIZE], n: usize) {
    page[NKEYS_OFF..NKEYS_OFF + 2].copy_from_slice(&(n as u16).to_le_bytes());
}

/// A leaf's entry count, and the slot of `key` in it: `Ok` where it is,
/// `Err` where it would go (as `binary_search` reports it).
fn leaf_search(
    page: &[u8; PAGE_SIZE],
    stride: usize,
    key: u64,
) -> io::Result<(usize, Result<usize, usize>)> {
    let n = node_len(page, TAG_LEAF, leaf_max(stride - 8))?;
    let i = partition(n, |i| get_u64(page, SLOTS_OFF + stride * i) < key);
    let found = i < n && get_u64(page, SLOTS_OFF + stride * i) == key;
    Ok((n, if found { Ok(i) } else { Err(i) }))
}

/// First index in `0..n` at which `below` turns false (`below` is monotone).
fn partition(n: usize, below: impl Fn(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (0, n);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if below(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Child index for `key` in an internal node of `n` keys: first key > `key`.
fn child_index(page: &[u8; PAGE_SIZE], n: usize, key: u64) -> usize {
    partition(n, |i| get_u64(page, SLOTS_OFF + 8 * i) <= key)
}

/// Rewrite `page` as an internal node, zeroing every unused byte.
fn write_internal(page: &mut [u8; PAGE_SIZE], keys: &[u64], children: &[u32]) {
    debug_assert!(keys.len() <= INTERNAL_MAX && children.len() == keys.len() + 1);
    page.fill(0);
    page[0] = TAG_INTERNAL;
    set_len(page, keys.len());
    for (i, &k) in keys.iter().enumerate() {
        put_u64(page, SLOTS_OFF + 8 * i, k);
    }
    for (i, &c) in children.iter().enumerate() {
        put_u32(page, CHILDREN_OFF + 4 * i, c);
    }
}

/// Rewrite `page` as a leaf holding the `n` packed entries `slots`.
fn write_leaf(page: &mut [u8; PAGE_SIZE], prev: u32, next: u32, n: usize, slots: &[u8]) {
    page.fill(0);
    page[0] = TAG_LEAF;
    set_len(page, n);
    put_u32(page, PREV_OFF, prev);
    put_u32(page, NEXT_OFF, next);
    page[SLOTS_OFF..SLOTS_OFF + slots.len()].copy_from_slice(slots);
}

/// Disk B-tree. See module docs. Every operation reads and edits the node
/// pages in place in the pager's cache.
pub struct BTree {
    pager: Pager,
    value_size: usize,
    root: u32,
    first_leaf: u32,
    count: u64,
    /// Internal levels above the leaves (not stored: derived on open).
    height: usize,
}

impl BTree {
    /// Create a new tree at `path` with values of exactly `value_size` bytes.
    pub fn create(path: &Path, value_size: usize, cache_pages: usize) -> io::Result<BTree> {
        assert!(value_size > 0 && leaf_max(value_size) >= 4, "value_size {value_size} too large");
        let mut pager = Pager::create(path, cache_pages)?;
        let hdr = pager.allocate()?;
        debug_assert_eq!(hdr, 0);
        let root = pager.allocate()?;
        write_leaf(pager.page_mut(root)?, NIL, NIL, 0, &[]);
        let mut t = BTree { pager, value_size, root, first_leaf: root, count: 0, height: 0 };
        t.write_header()?;
        Ok(t)
    }

    /// Open an existing tree.
    pub fn open(path: &Path, cache_pages: usize) -> io::Result<BTree> {
        let mut pager = Pager::open(path, cache_pages)?;
        let hdr = pager.page(0)?;
        if &hdr[..8] != MAGIC {
            return Err(invalid("bad etree magic"));
        }
        let value_size = get_u32(hdr, 8) as usize;
        let root = get_u32(hdr, 12);
        let count = get_u64(hdr, HDR_ENTRIES_OFF);
        let first_leaf = get_u32(hdr, 24);
        if value_size == 0 || leaf_max(value_size) < 4 {
            return Err(invalid(format!("bad etree value size {value_size}")));
        }
        let mut t = BTree { pager, value_size, root, first_leaf, count, height: 0 };
        // The height: internal levels down the leftmost path (a root past
        // the end, or at the header, fails here).
        let mut id = root;
        loop {
            let page = t.pager.page(id)?;
            if page[0] == TAG_LEAF {
                break;
            }
            node_len(page, TAG_INTERNAL, INTERNAL_MAX)?;
            id = get_u32(page, CHILDREN_OFF);
            t.height += 1;
            if t.height > MAX_HEIGHT {
                return Err(invalid("etree deeper than any valid tree"));
            }
        }
        Ok(t)
    }

    pub fn len(&self) -> u64 {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn value_size(&self) -> usize {
        self.value_size
    }

    pub fn io_stats(&self) -> PagerStats {
        self.pager.stats()
    }

    fn write_header(&mut self) -> io::Result<()> {
        let page = self.pager.page_mut(0)?;
        page.fill(0);
        page[..8].copy_from_slice(MAGIC);
        put_u32(page, 8, self.value_size as u32);
        put_u32(page, 12, self.root);
        put_u64(page, HDR_ENTRIES_OFF, self.count);
        put_u32(page, 24, self.first_leaf);
        Ok(())
    }

    /// Flush header and all dirty pages.
    pub fn flush(&mut self) -> io::Result<()> {
        self.write_header()?;
        self.pager.flush()
    }

    fn stride(&self) -> usize {
        8 + self.value_size
    }

    /// Root-to-leaf descent for `key`: the leaf's page id, and the internal
    /// pages passed with the child index taken in each, root first.
    fn descend(&mut self, key: u64) -> io::Result<(u32, [(u32, usize); MAX_HEIGHT])> {
        let mut path = [(NIL, 0); MAX_HEIGHT];
        let mut id = self.root;
        for step in path.iter_mut().take(self.height) {
            let page = self.pager.page(id)?;
            let n = node_len(page, TAG_INTERNAL, INTERNAL_MAX)?;
            let ci = child_index(page, n, key);
            *step = (id, ci);
            id = get_u32(page, CHILDREN_OFF + 4 * ci);
        }
        Ok((id, path))
    }

    /// Insert (or replace). Returns `true` if the key was already present.
    pub fn insert(&mut self, key: u64, value: &[u8]) -> io::Result<bool> {
        assert_eq!(value.len(), self.value_size);
        let (leaf, path) = self.descend(key)?;
        let stride = self.stride();
        let page = self.pager.page_mut(leaf)?;
        let (n, i) = match leaf_search(page, stride, key)? {
            (_, Ok(i)) => {
                let at = SLOTS_OFF + stride * i;
                page[at + 8..at + stride].copy_from_slice(value);
                return Ok(true);
            }
            (n, Err(i)) => (n, i),
        };
        if n < leaf_max(self.value_size) {
            let at = SLOTS_OFF + stride * i;
            page.copy_within(at..SLOTS_OFF + stride * n, at + stride);
            put_u64(page, at, key);
            page[at + 8..at + stride].copy_from_slice(value);
            set_len(page, n + 1);
            self.count = self.count.saturating_add(1);
            return Ok(false);
        }
        let mut split = self.split_leaf(leaf, n, i, key, value)?;
        self.count = self.count.saturating_add(1);
        for &(id, ci) in path[..self.height].iter().rev() {
            match self.insert_internal(id, ci, split)? {
                Some(up) => split = up,
                None => return Ok(false),
            }
        }
        // The root split: a new root above the two halves. (`MAX_HEIGHT`
        // levels need far more than the 2^32 pages a pager can allocate.)
        let new_root = self.pager.allocate()?;
        write_internal(self.pager.page_mut(new_root)?, &[split.0], &[self.root, split.1]);
        self.root = new_root;
        self.height += 1;
        Ok(false)
    }

    /// Split the full leaf `id` of `n` entries while inserting `(key,
    /// value)` at index `i`: the upper half of the `n + 1` entries moves to
    /// a fresh page linked after it. Returns (separator, new page).
    fn split_leaf(
        &mut self,
        id: u32,
        n: usize,
        i: usize,
        key: u64,
        value: &[u8],
    ) -> io::Result<(u64, u32)> {
        let (stride, total) = (self.stride(), n + 1);
        // The n + 1 entries in order, through one stack buffer: n entries
        // fill at most a page, and one entry is at most a quarter page.
        let mut buf = [0u8; 2 * PAGE_SIZE];
        let page = self.pager.page(id)?;
        let (prev, next) = (get_u32(page, PREV_OFF), get_u32(page, NEXT_OFF));
        let at = stride * i;
        buf[..at].copy_from_slice(&page[SLOTS_OFF..SLOTS_OFF + at]);
        put_u64(&mut buf, at, key);
        buf[at + 8..at + stride].copy_from_slice(value);
        buf[at + stride..stride * total]
            .copy_from_slice(&page[SLOTS_OFF + at..SLOTS_OFF + stride * n]);
        let mid = total / 2;
        let sep = get_u64(&buf, stride * mid);
        if next != NIL {
            node_len(self.pager.page(next)?, TAG_LEAF, leaf_max(self.value_size))?;
        }
        let right = self.pager.allocate()?;
        if next != NIL {
            put_u32(self.pager.page_mut(next)?, PREV_OFF, right);
        }
        let (lower, upper) = buf[..stride * total].split_at(stride * mid);
        write_leaf(self.pager.page_mut(right)?, id, next, total - mid, upper);
        write_leaf(self.pager.page_mut(id)?, prev, right, mid, lower);
        Ok((sep, right))
    }

    /// Insert a child split's (separator, right page) into internal node
    /// `id` after child `ci`; returns this node's own split if it overflows.
    fn insert_internal(
        &mut self,
        id: u32,
        ci: usize,
        (sep, right): (u64, u32),
    ) -> io::Result<Option<(u64, u32)>> {
        let page = self.pager.page_mut(id)?;
        let n = node_len(page, TAG_INTERNAL, INTERNAL_MAX)?;
        if n < INTERNAL_MAX {
            let (k, c) = (SLOTS_OFF + 8 * ci, CHILDREN_OFF + 4 * (ci + 1));
            page.copy_within(k..SLOTS_OFF + 8 * n, k + 8);
            put_u64(page, k, sep);
            page.copy_within(c..CHILDREN_OFF + 4 * (n + 1), c + 4);
            put_u32(page, c, right);
            set_len(page, n + 1);
            return Ok(None);
        }
        // Split: the middle of the n + 1 keys is promoted (not kept).
        let mut keys = [0u64; INTERNAL_MAX + 1];
        let mut children = [0u32; INTERNAL_MAX + 2];
        for j in 0..=n {
            let src = j - (j > ci) as usize;
            keys[j] = if j == ci { sep } else { get_u64(page, SLOTS_OFF + 8 * src) };
        }
        for j in 0..=n + 1 {
            let src = j - (j > ci + 1) as usize;
            children[j] = if j == ci + 1 { right } else { get_u32(page, CHILDREN_OFF + 4 * src) };
        }
        let mid = keys.len() / 2;
        write_internal(page, &keys[..mid], &children[..=mid]);
        let new_id = self.pager.allocate()?;
        write_internal(self.pager.page_mut(new_id)?, &keys[mid + 1..], &children[mid + 1..]);
        Ok(Some((keys[mid], new_id)))
    }

    /// Point lookup: the value, borrowed from the cached page.
    pub fn get(&mut self, key: u64) -> io::Result<Option<&[u8]>> {
        let (leaf, _) = self.descend(key)?;
        let stride = self.stride();
        let page = self.pager.page(leaf)?;
        let (_, found) = leaf_search(page, stride, key)?;
        Ok(found.ok().map(|i| &page[SLOTS_OFF + stride * i + 8..SLOTS_OFF + stride * (i + 1)]))
    }

    /// Remove a key. Returns `true` if it was present. Lazy: pages are never
    /// merged, which suits the etree balance workload (delete parent, insert
    /// eight children in the same neighborhood).
    pub fn remove(&mut self, key: u64) -> io::Result<bool> {
        let (leaf, _) = self.descend(key)?;
        let stride = self.stride();
        let (n, Ok(i)) = leaf_search(self.pager.page(leaf)?, stride, key)? else {
            return Ok(false);
        };
        let page = self.pager.page_mut(leaf)?;
        let end = SLOTS_OFF + stride * n;
        page.copy_within(SLOTS_OFF + stride * (i + 1)..end, SLOTS_OFF + stride * i);
        page[end - stride..end].fill(0);
        set_len(page, n - 1);
        self.count = self.count.saturating_sub(1);
        Ok(true)
    }

    /// Greatest entry with key `<= key` (point location for linear octrees),
    /// its value borrowed from the cached page.
    pub fn floor(&mut self, key: u64) -> io::Result<Option<(u64, &[u8])>> {
        let (mut leaf, _) = self.descend(key)?;
        let (stride, max) = (self.stride(), leaf_max(self.value_size));
        let mut bound = key;
        // Walk left through the chain past leaves holding no key <= bound
        // (emptied or trimmed by removals); a longer walk than the file has
        // pages is a cycle.
        for _ in 0..=self.pager.page_count() {
            let page = self.pager.page(leaf)?;
            let n = node_len(page, TAG_LEAF, max)?;
            let i = partition(n, |i| get_u64(page, SLOTS_OFF + stride * i) <= bound);
            if i > 0 {
                let at = SLOTS_OFF + stride * (i - 1);
                let page = self.pager.page(leaf)?;
                return Ok(Some((get_u64(page, at), &page[at + 8..at + stride])));
            }
            leaf = get_u32(page, PREV_OFF);
            if leaf == NIL {
                return Ok(None);
            }
            bound = u64::MAX;
        }
        Err(invalid("etree leaf chain has a cycle"))
    }

    /// In-order scan of all entries with `lo <= key <= hi`, via leaf chaining.
    pub fn range_scan(
        &mut self,
        lo: u64,
        hi: u64,
        mut f: impl FnMut(u64, &[u8]),
    ) -> io::Result<()> {
        let (mut leaf, _) = self.descend(lo)?;
        let (stride, max) = (self.stride(), leaf_max(self.value_size));
        for _ in 0..=self.pager.page_count() {
            let page = self.pager.page(leaf)?;
            let n = node_len(page, TAG_LEAF, max)?;
            for slot in page[SLOTS_OFF..SLOTS_OFF + stride * n].chunks_exact(stride) {
                let k = get_u64(slot, 0);
                if k > hi {
                    return Ok(());
                }
                if k >= lo {
                    f(k, &slot[8..]);
                }
            }
            leaf = get_u32(page, NEXT_OFF);
            if leaf == NIL {
                return Ok(());
            }
        }
        Err(invalid("etree leaf chain has a cycle"))
    }

    /// Scan everything in key order.
    pub fn scan_all(&mut self, f: impl FnMut(u64, &[u8])) -> io::Result<()> {
        self.range_scan(0, u64::MAX, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("quake-etree-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("bt-{}-{}-{}", name, std::process::id(), rand_suffix()))
    }

    fn rand_suffix() -> u64 {
        use std::time::{SystemTime, UNIX_EPOCH};
        SystemTime::now().duration_since(UNIX_EPOCH).unwrap().subsec_nanos() as u64
    }

    fn val(k: u64) -> Vec<u8> {
        let mut v = vec![0u8; 16];
        v[..8].copy_from_slice(&k.to_le_bytes());
        v[8..].copy_from_slice(&(!k).to_le_bytes());
        v
    }

    #[test]
    fn insert_get_thousands_with_splits() {
        let path = tmp("bulk");
        let mut t = BTree::create(&path, 16, 16).unwrap();
        // Shuffled insertion order to force non-append splits.
        let n = 20_000u64;
        let mut keys: Vec<u64> = (0..n).map(|i| i.wrapping_mul(0x9E3779B97F4A7C15)).collect();
        keys.sort_unstable();
        keys.dedup();
        for i in 0..keys.len() {
            // Insert in a scrambled order.
            let k = keys[(i * 7919) % keys.len()];
            t.insert(k, &val(k)).unwrap();
        }
        assert_eq!(t.len(), keys.len() as u64);
        for &k in keys.iter().step_by(97) {
            assert_eq!(t.get(k).unwrap(), Some(&val(k)[..]));
        }
        assert_eq!(t.get(keys[0].wrapping_add(1)).unwrap(), None);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn scan_is_sorted_and_complete() {
        let path = tmp("scan");
        let mut t = BTree::create(&path, 16, 16).unwrap();
        let keys: Vec<u64> = (0..5000u64).map(|i| i * 3 + 1).rev().collect();
        for &k in &keys {
            t.insert(k, &val(k)).unwrap();
        }
        let mut seen = Vec::new();
        t.scan_all(|k, v| {
            assert_eq!(v, &val(k)[..]);
            seen.push(k);
        })
        .unwrap();
        let mut expect = keys.clone();
        expect.sort_unstable();
        assert_eq!(seen, expect);
        // Bounded range.
        let mut part = Vec::new();
        t.range_scan(100, 200, |k, _| part.push(k)).unwrap();
        assert_eq!(part, (100..=200).filter(|k| k % 3 == 1).collect::<Vec<_>>());
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn floor_semantics() {
        let path = tmp("floor");
        let mut t = BTree::create(&path, 16, 16).unwrap();
        for k in [10u64, 20, 30, 4000, 50_000] {
            t.insert(k, &val(k)).unwrap();
        }
        assert_eq!(t.floor(9).unwrap(), None);
        assert_eq!(t.floor(10).unwrap().unwrap().0, 10);
        assert_eq!(t.floor(29).unwrap().unwrap().0, 20);
        assert_eq!(t.floor(u64::MAX).unwrap().unwrap().0, 50_000);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn remove_then_reinsert() {
        let path = tmp("remove");
        let mut t = BTree::create(&path, 16, 16).unwrap();
        for k in 0..1000u64 {
            t.insert(k, &val(k)).unwrap();
        }
        for k in (0..1000u64).step_by(2) {
            assert!(t.remove(k).unwrap());
        }
        assert!(!t.remove(0).unwrap());
        assert_eq!(t.len(), 500);
        assert_eq!(t.get(2).unwrap(), None);
        assert_eq!(t.get(3).unwrap(), Some(&val(3)[..]));
        // floor skips over emptied regions.
        assert_eq!(t.floor(2).unwrap().unwrap().0, 1);
        t.insert(2, &val(2)).unwrap();
        assert_eq!(t.get(2).unwrap(), Some(&val(2)[..]));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn persistence_across_reopen() {
        let path = tmp("persist");
        {
            let mut t = BTree::create(&path, 16, 16).unwrap();
            for k in 0..3000u64 {
                t.insert(k * 11, &val(k * 11)).unwrap();
            }
            t.flush().unwrap();
        }
        let mut t = BTree::open(&path, 16).unwrap();
        assert_eq!(t.len(), 3000);
        assert_eq!(t.value_size(), 16);
        assert_eq!(t.get(11 * 1234).unwrap(), Some(&val(11 * 1234)[..]));
        assert_eq!(t.floor(10).unwrap().unwrap().0, 0);
        std::fs::remove_file(path).unwrap();
    }

    /// A `size`-byte value for key `k` at version `v` (a re-insert of the
    /// same key stores different bytes).
    fn versioned(k: u64, v: u64, size: usize) -> Vec<u8> {
        let word = (k ^ v.rotate_left(32)).to_le_bytes();
        (0..size).map(|i| word[i % 8] ^ (i / 8) as u8).collect()
    }

    /// The file format: every byte of a node page past its live slots is
    /// zero, as if the page had been written fresh.
    fn assert_unused_bytes_zero(t: &mut BTree) {
        let stride = t.stride();
        for id in 1..t.pager.page_count() {
            let page = t.pager.page(id).unwrap();
            let n = u16::from_le_bytes([page[NKEYS_OFF], page[NKEYS_OFF + 1]]) as usize;
            let unused: Vec<std::ops::Range<usize>> = match page[0] {
                TAG_LEAF => vec![1..2, 12..16, SLOTS_OFF + stride * n..PAGE_SIZE],
                _ => vec![
                    1..2,
                    4..16,
                    SLOTS_OFF + 8 * n..CHILDREN_OFF,
                    CHILDREN_OFF + 4 * (n + 1)..PAGE_SIZE,
                ],
            };
            for r in unused {
                assert!(page[r.clone()].iter().all(|&b| b == 0), "page {id} bytes {r:?}");
            }
        }
    }

    /// LCG-driven op sequences against a `BTreeMap` model, comparing returned
    /// values of `get`, `floor` and `range_scan` (randomized differential
    /// test without an external crate — the build is offline). Returns the
    /// greatest tree height reached.
    fn differential(seed: u64, cases: usize, value_size: usize, ops: u64, keys: u64) -> usize {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 11
        };
        let mut height = 0;
        for case in 0..cases {
            let path = tmp(&format!("prop{seed:x}-{case}"));
            let mut t = BTree::create(&path, value_size, 8).unwrap();
            let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
            let n_ops = 1 + next() % ops;
            for version in 0..n_ops {
                let r = next();
                let k = (r >> 8) % keys;
                match r % 6 {
                    0 | 1 => {
                        let v = versioned(k, version, value_size);
                        let replaced = t.insert(k, &v).unwrap();
                        assert_eq!(replaced, model.insert(k, v).is_some());
                    }
                    2 | 3 => assert_eq!(t.remove(k).unwrap(), model.remove(&k).is_some()),
                    4 => {
                        assert_eq!(t.get(k).unwrap(), model.get(&k).map(|v| &v[..]));
                        let want = model.range(..=k).next_back().map(|(&fk, v)| (fk, &v[..]));
                        assert_eq!(t.floor(k).unwrap(), want);
                    }
                    _ => {
                        let hi = k + (r >> 40) % 64;
                        let mut got = Vec::new();
                        t.range_scan(k, hi, |fk, v| got.push((fk, v.to_vec()))).unwrap();
                        let want: Vec<(u64, Vec<u8>)> =
                            model.range(k..=hi).map(|(&fk, v)| (fk, v.clone())).collect();
                        assert_eq!(got, want);
                    }
                }
                assert_eq!(t.len(), model.len() as u64);
            }
            let mut scanned = Vec::new();
            t.scan_all(|k, v| scanned.push((k, v.to_vec()))).unwrap();
            let expect: Vec<(u64, Vec<u8>)> = model.into_iter().collect();
            assert_eq!(scanned, expect);
            assert_unused_bytes_zero(&mut t);
            height = height.max(t.height);
            std::fs::remove_file(path).unwrap();
        }
        height
    }

    #[test]
    fn prop_differential_against_btreemap() {
        differential(0xE001, 12, 16, 399, 500);
    }

    #[test]
    fn prop_differential_with_internal_splits_and_eviction() {
        // 1012-byte values leave 4 entries per leaf, so a few thousand keys
        // need more leaves than one internal node holds: internal nodes
        // split, on an 8-page cache that evicts mid-operation.
        assert_eq!(leaf_max(1012), 4);
        let height = differential(0x5EED, 2, 1012, 12_000, 6_000);
        assert!(height >= 2, "internal nodes never split (height {height})");
    }

    /// Opens the damaged copy at `path` and drives `get`, `floor`,
    /// `scan_all` and `insert`: each must return `InvalidData` or the
    /// model's answer, and never panic.
    fn drive_damaged(path: &Path, model: &BTreeMap<u64, Vec<u8>>, case: &str) {
        let check = |r: io::Result<bool>| match r {
            Ok(correct) => assert!(correct, "{case}: wrong answer"),
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{case}: {e}"),
        };
        let mut t = match BTree::open(path, 8) {
            Ok(t) => t,
            Err(e) => return check(Err(e)),
        };
        let probes = [0u64, 1, 299, 2_000, 2_999, 4_500, u64::MAX];
        for &k in &probes {
            check(t.get(k).map(|got| got == model.get(&k).map(|v| &v[..])));
            let want = model.range(..=k).next_back().map(|(&fk, v)| (fk, &v[..]));
            check(t.floor(k).map(|got| got == want));
        }
        let mut scanned = Vec::new();
        let scan = t.scan_all(|k, v| scanned.push((k, v.to_vec())));
        let want: Vec<(u64, Vec<u8>)> = model.iter().map(|(&k, v)| (k, v.clone())).collect();
        check(scan.map(|()| scanned == want));
        for &k in &probes {
            check(t.insert(k, &versioned(k, 1, 1012)).map(|had| had == model.contains_key(&k)));
        }
    }

    #[test]
    fn corrupt_pages_are_errors_not_panics() {
        let path = tmp("corrupt");
        let mut model = BTreeMap::new();
        let (root, internal, leaf, pages) = {
            let mut t = BTree::create(&path, 1012, 8).unwrap();
            for k in (0..4_500u64).step_by(3) {
                t.insert(k, &versioned(k, 0, 1012)).unwrap();
                model.insert(k, versioned(k, 0, 1012));
            }
            t.flush().unwrap();
            assert_eq!(t.height, 2, "the test needs a non-root internal node");
            let (leaf, path) = t.descend(2_000).unwrap();
            (t.root, path[1].0, leaf, t.pager.page_count())
        };
        let pristine = std::fs::read(&path).unwrap();
        let damaged = tmp("corrupt-copy");
        let page_at = |id: u32, off: usize| id as usize * PAGE_SIZE + off;
        let mut cases: Vec<(&str, usize, Vec<u8>)> = vec![
            ("header magic bit", page_at(0, 3), vec![b'T' ^ 0x10]),
            ("header value size", page_at(0, 8), 0u32.to_le_bytes().to_vec()),
            ("header value size bit", page_at(0, 10), vec![0x40]),
            ("header root past the end", page_at(0, 12), (pages + 3).to_le_bytes().to_vec()),
            ("header root at NIL", page_at(0, 12), NIL.to_le_bytes().to_vec()),
            ("header entry count lies", page_at(0, HDR_ENTRIES_OFF), vec![0xff; 8]),
        ];
        for (name, id) in [("root", root), ("internal", internal)] {
            let child = |i: usize| page_at(id, CHILDREN_OFF + 4 * i);
            cases.extend([
                (name, page_at(id, 0), vec![TAG_INTERNAL ^ 0x08]),
                (name, page_at(id, NKEYS_OFF), (INTERNAL_MAX as u16 + 1).to_le_bytes().to_vec()),
                (name, page_at(id, NKEYS_OFF + 1), vec![0x80]),
                (name, child(0), NIL.to_le_bytes().to_vec()),
                (name, child(1), (pages + 1).to_le_bytes().to_vec()),
                (name, child(2), vec![0, 0, 0, 0x40]),
            ]);
        }
        cases.extend([
            ("leaf tag", page_at(leaf, 0), vec![TAG_LEAF ^ 0x01]),
            ("leaf tag bit", page_at(leaf, 0), vec![TAG_LEAF ^ 0x20]),
            ("leaf length", page_at(leaf, NKEYS_OFF), 5u16.to_le_bytes().to_vec()),
            ("leaf length bit", page_at(leaf, NKEYS_OFF + 1), vec![0x10]),
            ("leaf next past the end", page_at(leaf, NEXT_OFF), (pages + 9).to_le_bytes().to_vec()),
            ("leaf prev past the end", page_at(leaf, PREV_OFF), vec![0, 0, 0, 0x7f]),
        ]);
        for (case, at, bytes) in &cases {
            let mut file = pristine.clone();
            file[*at..*at + bytes.len()].copy_from_slice(bytes);
            std::fs::write(&damaged, &file).unwrap();
            drive_damaged(&damaged, &model, case);
        }
        std::fs::write(&damaged, &pristine[..pristine.len() - 100]).unwrap();
        drive_damaged(&damaged, &model, "file length");
        std::fs::remove_file(damaged).unwrap();
        std::fs::remove_file(path).unwrap();
    }
}
