//! A paged file with an LRU write-back cache.
//!
//! All disk structures in this crate (the B-tree, the element/node databases)
//! sit on top of this pager. Pages are 4 KiB; the cache holds a configurable
//! number of pages and tracks hit/miss/read/write statistics so the etree
//! benchmarks can report the I/O saved by locality (the whole point of
//! Morton-ordered keys, and of a balance that probes in Morton order).
//! Callers borrow pages where they lie in the cache ([`Pager::page`],
//! [`Pager::page_mut`]); nothing is copied out or swapped in.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::Path;

/// Page size in bytes.
pub const PAGE_SIZE: usize = 4096;

/// I/O statistics of a pager.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PagerStats {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub disk_reads: u64,
    pub disk_writes: u64,
    pub evictions: u64,
    /// Bytes transferred from disk (always `disk_reads * PAGE_SIZE` for this
    /// whole-page pager, but kept explicit so reports never hardcode the
    /// page size).
    pub bytes_read: u64,
    /// Bytes transferred to disk.
    pub bytes_written: u64,
}

impl PagerStats {
    /// Cache hit rate in [0, 1] (1.0 for an untouched pager).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            1.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Export the statistics into a telemetry registry as absolute counters
    /// `<prefix>/cache_hits`, `<prefix>/bytes_read`, ... plus the
    /// `<prefix>/hit_rate` gauge. Repeated calls overwrite (the stats are
    /// cumulative already).
    pub fn record(&self, reg: &quake_telemetry::Registry, prefix: &str) {
        if !reg.is_enabled() {
            return;
        }
        for (k, v) in [
            ("cache_hits", self.cache_hits),
            ("cache_misses", self.cache_misses),
            ("disk_reads", self.disk_reads),
            ("disk_writes", self.disk_writes),
            ("evictions", self.evictions),
            ("bytes_read", self.bytes_read),
            ("bytes_written", self.bytes_written),
        ] {
            reg.set(&format!("{prefix}/{k}"), v);
        }
        reg.gauge(&format!("{prefix}/hit_rate"), self.hit_rate());
    }
}

struct CachedPage {
    data: Box<[u8; PAGE_SIZE]>,
    dirty: bool,
    last_used: u64,
}

/// Paged file with LRU write-back caching.
pub struct Pager {
    file: File,
    cache: HashMap<u32, CachedPage>,
    capacity: usize,
    clock: u64,
    page_count: u32,
    stats: PagerStats,
}

impl Pager {
    /// Create (truncating) a pager at `path` with a cache of `cache_pages`.
    pub fn create(path: &Path, cache_pages: usize) -> io::Result<Pager> {
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(path)?;
        Ok(Pager {
            file,
            cache: HashMap::new(),
            capacity: cache_pages.max(8),
            clock: 0,
            page_count: 0,
            stats: PagerStats::default(),
        })
    }

    /// Open an existing pager file.
    pub fn open(path: &Path, cache_pages: usize) -> io::Result<Pager> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        if len % PAGE_SIZE as u64 != 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("file length {len} is not a multiple of the page size"),
            ));
        }
        Ok(Pager {
            file,
            cache: HashMap::new(),
            capacity: cache_pages.max(8),
            clock: 0,
            page_count: (len / PAGE_SIZE as u64) as u32,
            stats: PagerStats::default(),
        })
    }

    /// Number of pages in the file (including cached, not-yet-flushed ones).
    pub fn page_count(&self) -> u32 {
        self.page_count
    }

    pub fn stats(&self) -> PagerStats {
        self.stats
    }

    /// Allocate a fresh zeroed page, returning its id.
    pub fn allocate(&mut self) -> io::Result<u32> {
        let id = self.page_count;
        self.page_count += 1;
        self.install(id, Box::new([0u8; PAGE_SIZE]), true)?;
        Ok(id)
    }

    /// Borrow a page through the cache. An id past the end of the file is
    /// `InvalidData`: ids come from page contents, which may be corrupt.
    pub fn page(&mut self, id: u32) -> io::Result<&[u8; PAGE_SIZE]> {
        Ok(&self.cached(id)?.data)
    }

    /// Borrow a page for writing: it is marked dirty and written back on
    /// eviction or [`Pager::flush`].
    pub fn page_mut(&mut self, id: u32) -> io::Result<&mut [u8; PAGE_SIZE]> {
        let p = self.cached(id)?;
        p.dirty = true;
        Ok(&mut p.data)
    }

    fn cached(&mut self, id: u32) -> io::Result<&mut CachedPage> {
        if id >= self.page_count {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("page {id} out of range ({})", self.page_count),
            ));
        }
        if self.cache.contains_key(&id) {
            self.stats.cache_hits += 1;
        } else {
            self.stats.cache_misses += 1;
            self.stats.disk_reads += 1;
            self.stats.bytes_read += PAGE_SIZE as u64;
            let mut buf = Box::new([0u8; PAGE_SIZE]);
            self.file.read_exact_at(&mut buf[..], id as u64 * PAGE_SIZE as u64)?;
            self.install(id, buf, false)?;
        }
        self.clock += 1;
        let p = self.cache.get_mut(&id).expect("page is cached above");
        p.last_used = self.clock;
        Ok(p)
    }

    /// Put a page that is not cached into the cache, evicting the least
    /// recently used page if it is full.
    fn install(&mut self, id: u32, data: Box<[u8; PAGE_SIZE]>, dirty: bool) -> io::Result<()> {
        self.clock += 1;
        if self.cache.len() >= self.capacity {
            self.evict_one()?;
        }
        self.cache.insert(id, CachedPage { data, dirty, last_used: self.clock });
        Ok(())
    }

    fn evict_one(&mut self) -> io::Result<()> {
        let victim = self
            .cache
            .iter()
            .min_by_key(|(_, p)| p.last_used)
            .map(|(&id, _)| id)
            .expect("evict_one called on empty cache");
        let page = self.cache.remove(&victim).unwrap();
        self.stats.evictions += 1;
        if page.dirty {
            self.stats.disk_writes += 1;
            self.stats.bytes_written += PAGE_SIZE as u64;
            self.file.write_all_at(&page.data[..], victim as u64 * PAGE_SIZE as u64)?;
        }
        Ok(())
    }

    /// Number of dirty (cached, not yet written back) pages.
    pub fn dirty_pages(&self) -> usize {
        self.cache.values().filter(|p| p.dirty).count()
    }

    /// Write all dirty pages to disk (cache contents are kept).
    pub fn flush(&mut self) -> io::Result<()> {
        // Ensure the file is long enough even if tail pages are clean zeros.
        self.file.set_len(self.page_count as u64 * PAGE_SIZE as u64)?;
        let mut dirty: Vec<u32> =
            self.cache.iter().filter(|(_, p)| p.dirty).map(|(&id, _)| id).collect();
        dirty.sort_unstable();
        for id in dirty {
            let p = self.cache.get_mut(&id).unwrap();
            self.stats.disk_writes += 1;
            self.stats.bytes_written += PAGE_SIZE as u64;
            self.file.write_all_at(&p.data[..], id as u64 * PAGE_SIZE as u64)?;
            p.dirty = false;
        }
        self.file.sync_data()?;
        Ok(())
    }
}

/// Dropping a pager flushes every dirty page, so a database closed by simply
/// going out of scope is complete on disk — the property the checkpoint
/// subsystem's kill-and-restart tests rely on when they reopen an etree
/// between runs. The one caveat of the RAII form: `drop` cannot report I/O
/// errors, so code that must *know* the data is durable (rather than merely
/// request it) calls [`Pager::flush`] explicitly first and checks the result;
/// after a successful flush the drop is a no-op write-wise.
impl Drop for Pager {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("quake-etree-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{}-{}", name, std::process::id()))
    }

    #[test]
    fn pages_roundtrip_through_cache_and_disk() {
        let path = tmp("roundtrip");
        let mut pager = Pager::create(&path, 8).unwrap();
        let mut ids = Vec::new();
        for i in 0..32u32 {
            let id = pager.allocate().unwrap();
            let page = pager.page_mut(id).unwrap();
            page[0] = i as u8;
            page[PAGE_SIZE - 1] = (i * 3) as u8;
            ids.push(id);
        }
        // With capacity 8, most pages were evicted to disk; read them back.
        for (i, &id) in ids.iter().enumerate() {
            let page = pager.page(id).unwrap();
            assert_eq!(page[0], i as u8);
            assert_eq!(page[PAGE_SIZE - 1], (i * 3) as u8);
        }
        assert!(pager.stats().evictions > 0);
        assert!(pager.stats().disk_reads > 0);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn flush_then_reopen_preserves_data() {
        let path = tmp("reopen");
        {
            let mut pager = Pager::create(&path, 8).unwrap();
            for i in 0..10u32 {
                let id = pager.allocate().unwrap();
                pager.page_mut(id).unwrap()[7] = 100 + i as u8;
            }
            pager.flush().unwrap();
        }
        let mut pager = Pager::open(&path, 8).unwrap();
        assert_eq!(pager.page_count(), 10);
        for i in 0..10u32 {
            assert_eq!(pager.page(i).unwrap()[7], 100 + i as u8);
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn drop_without_explicit_flush_persists_dirty_pages() {
        let path = tmp("drop-flush");
        {
            let mut pager = Pager::create(&path, 8).unwrap();
            for i in 0..6u32 {
                let id = pager.allocate().unwrap();
                pager.page_mut(id).unwrap()[11] = 50 + i as u8;
            }
            assert!(pager.dirty_pages() > 0);
            // No flush() — the Drop impl must write the dirty pages back.
        }
        let mut pager = Pager::open(&path, 8).unwrap();
        assert_eq!(pager.page_count(), 6);
        assert_eq!(pager.dirty_pages(), 0);
        for i in 0..6u32 {
            assert_eq!(pager.page(i).unwrap()[11], 50 + i as u8);
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn byte_counters_track_page_traffic_and_export_to_telemetry() {
        let path = tmp("bytes");
        let mut pager = Pager::create(&path, 8).unwrap();
        for i in 0..24u32 {
            let id = pager.allocate().unwrap();
            pager.page_mut(id).unwrap()[0] = i as u8;
        }
        for id in 0..24u32 {
            pager.page(id).unwrap();
        }
        pager.page(23).unwrap(); // still cached: guarantees >= 1 hit
        pager.flush().unwrap();
        let s = pager.stats();
        // Whole-page transfers: the byte counters are exact multiples.
        assert_eq!(s.bytes_read, s.disk_reads * PAGE_SIZE as u64);
        assert_eq!(s.bytes_written, s.disk_writes * PAGE_SIZE as u64);
        assert!(s.bytes_read > 0 && s.bytes_written > 0);
        assert!(s.hit_rate() > 0.0 && s.hit_rate() < 1.0);

        let reg = quake_telemetry::Registry::new(0);
        s.record(&reg, "etree/pager");
        assert_eq!(reg.counter("etree/pager/bytes_read"), Some(s.bytes_read));
        assert_eq!(reg.counter("etree/pager/cache_hits"), Some(s.cache_hits));
        let hr = reg.gauge_value("etree/pager/hit_rate").unwrap();
        assert!((hr - s.hit_rate()).abs() < 1e-15);

        // A disabled registry records nothing.
        let off = quake_telemetry::Registry::disabled();
        s.record(&off, "etree/pager");
        assert!(off.counter("etree/pager/bytes_read").is_none());
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn hot_page_stays_cached() {
        let path = tmp("hot");
        let mut pager = Pager::create(&path, 8).unwrap();
        let hot = pager.allocate().unwrap();
        for _ in 0..40 {
            let id = pager.allocate().unwrap();
            pager.page_mut(id).unwrap().fill(1);
            pager.page(hot).unwrap(); // keep it recently used
        }
        let before = pager.stats().disk_reads;
        pager.page(hot).unwrap();
        assert_eq!(pager.stats().disk_reads, before, "hot page should not hit disk");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn page_past_the_end_is_invalid_data() {
        let path = tmp("past-end");
        let mut pager = Pager::create(&path, 8).unwrap();
        pager.allocate().unwrap();
        for id in [1, 7, u32::MAX] {
            assert_eq!(pager.page(id).unwrap_err().kind(), io::ErrorKind::InvalidData);
            assert_eq!(pager.page_mut(id).unwrap_err().kind(), io::ErrorKind::InvalidData);
        }
        std::fs::remove_file(path).unwrap();
    }
}
