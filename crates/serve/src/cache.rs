//! The content-addressed result store: `RequestKey -> seismogram set`.
//!
//! One file per key under the cache directory:
//!
//! ```text
//! <dir>/<key-hex32>.qres
//! ```
//!
//! Entries reuse the `quake-ckpt` frame verbatim — magic, version, kind
//! tag, CRC-32 trailer (`quake_ckpt::format::{encode_file, decode_file}`)
//! — with kind [`RESULT_KIND`] and the executed step count in the frame's
//! step field. Writes are atomic (write `<name>.tmp`, fsync, rename), so a
//! reader racing a writer sees either no entry or a complete one, never a
//! partial file. Reads verify the CRC and full decode; **any** failure —
//! truncation, bit rot, a foreign kind, a stale encoding version — makes
//! [`ResultCache::get`] return `None`, and the engine recomputes and
//! rewrites the entry. A corrupt cache can cost time, never correctness.
//!
//! Eviction honors a byte budget: after each write, entries are dropped
//! oldest-first (modification time, then the parsed content key as the
//! deterministic tie-break — filesystems with coarse mtimes routinely
//! stamp a whole burst of writes identically, and the victim set must not
//! depend on directory enumeration order) until the directory total is
//! within budget. The entry just
//! written is exempt from its own eviction pass, so a single oversized
//! result still serves its first consumer.
//!
//! Like the checkpoint reader, every path here must degrade to
//! `None`/`Err` on arbitrary on-disk bytes — a poisoned cache must not
//! abort a serving worker. The corruption tests in the root
//! `tests/alloc_free.rs` feed `get` truncated, bit-flipped and
//! length-lying entries.

use crate::request::RequestKey;
use quake_ckpt::format::{decode_file, encode_file};
use quake_ckpt::{CkptError, Decoder, Encoder};
use quake_solver::Seismogram;
use quake_telemetry::Registry;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Frame kind tag of cache entries; bump the version suffix when the
/// payload layout changes (old entries then miss instead of mis-decoding).
pub const RESULT_KIND: &str = "quake.serve.result.v1";

/// File extension of finalized cache entries.
pub const EXTENSION: &str = "qres";

/// A materialized scenario result, as stored in (and served from) the
/// cache. `f64` samples are raw bit patterns on disk, so a cache hit is
/// **bit-identical** to the run that populated the entry.
#[derive(Clone, Debug, PartialEq)]
pub struct CachedResult {
    /// Steps the producing run executed.
    pub executed_steps: u64,
    /// Analytic cost of the producing run (element updates = elements x
    /// steps) — the admission-control currency, persisted so a cache hit
    /// can report the cost it *avoided*.
    pub element_updates: u64,
    /// One trace per receiver, in request order.
    pub traces: Vec<Seismogram>,
}

impl CachedResult {
    fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_u64(self.element_updates);
        enc.put_u64(self.traces.len() as u64);
        for tr in &self.traces {
            enc.put_f64(tr.dt);
            enc.put_u64(tr.ncomp as u64);
            enc.put_f64_slice(&tr.data);
        }
        enc.into_bytes()
    }

    fn decode(executed_steps: u64, payload: &[u8]) -> Result<CachedResult, CkptError> {
        let mut dec = Decoder::new(payload);
        let element_updates = dec.take_u64()?;
        // Every trace encodes at least its dt, ncomp and sample count.
        let n_traces = dec.take_len(24)?;
        let mut traces = Vec::with_capacity(n_traces);
        for _ in 0..n_traces {
            let dt = dec.take_f64()?;
            let ncomp = dec.take_u64()? as usize;
            if ncomp == 0 || ncomp > 16 {
                return Err(CkptError::Malformed("implausible component count"));
            }
            let data = dec.take_f64_vec()?;
            if !data.len().is_multiple_of(ncomp) {
                return Err(CkptError::Malformed("trace length not a multiple of ncomp"));
            }
            traces.push(Seismogram { dt, ncomp, data });
        }
        dec.finish()?;
        Ok(CachedResult { executed_steps, element_updates, traces })
    }
}

/// The on-disk content-addressed store.
pub struct ResultCache {
    dir: PathBuf,
    /// Byte budget for the directory total (0 = unlimited).
    byte_budget: u64,
}

impl ResultCache {
    /// Open (creating if missing) a cache under `dir` with `byte_budget`
    /// bytes of retention (0 = keep everything).
    pub fn open(dir: &Path, byte_budget: u64) -> Result<ResultCache, CkptError> {
        fs::create_dir_all(dir)?;
        Ok(ResultCache { dir: dir.to_path_buf(), byte_budget })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_of(&self, key: &RequestKey) -> PathBuf {
        self.dir.join(format!("{}.{EXTENSION}", key.hex()))
    }

    /// Look up a key. Returns `None` on absence *or* on any decode/CRC
    /// failure — a damaged entry reads as a miss and will be recomputed.
    /// Records `serve_cache/bytes_read` and one `serve_cache/invalid_entry`
    /// per rejected file on `reg`.
    pub fn get(&self, key: &RequestKey, reg: &Registry) -> Option<CachedResult> {
        let path = self.path_of(key);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(_) => return None,
        };
        match decode_file(RESULT_KIND, &bytes)
            .and_then(|(steps, payload)| CachedResult::decode(steps, payload))
        {
            Ok(res) => {
                reg.add("serve_cache/bytes_read", bytes.len() as u64);
                Some(res)
            }
            Err(_) => {
                // Damaged entry: count it, drop it so the rewrite is clean,
                // and report a miss.
                reg.add("serve_cache/invalid_entry", 1);
                let _ = fs::remove_file(&path);
                None
            }
        }
    }

    /// Insert (or overwrite) an entry atomically, then evict oldest-first
    /// down to the byte budget. Records `serve_cache/bytes_written` and
    /// `serve_cache/evictions` on `reg`.
    pub fn put(
        &self,
        key: &RequestKey,
        result: &CachedResult,
        reg: &Registry,
    ) -> Result<(), CkptError> {
        let img = encode_file(RESULT_KIND, result.executed_steps, &result.encode());
        let final_path = self.path_of(key);
        let tmp_path = self.dir.join(format!("{}.{EXTENSION}.tmp", key.hex()));
        {
            let mut f = fs::File::create(&tmp_path)?;
            f.write_all(&img)?;
            f.sync_all()?;
        }
        fs::rename(&tmp_path, &final_path)?;
        reg.add("serve_cache/bytes_written", img.len() as u64);
        if self.byte_budget > 0 {
            self.evict_to_budget(&final_path, reg);
        }
        Ok(())
    }

    /// Drop entries oldest-first until the directory total fits the budget.
    /// `just_written` survives its own pass (a single oversized entry must
    /// still serve its first consumer).
    fn evict_to_budget(&self, just_written: &Path, reg: &Registry) {
        let mut entries = self.entries();
        let mut total: u64 = entries.iter().map(|e| e.bytes).sum();
        // Oldest first; the content key ties the order deterministically
        // when a fast filesystem gives several entries the same mtime.
        entries.sort_by_key(|a| (a.mtime, a.key));
        for e in &entries {
            if total <= self.byte_budget {
                break;
            }
            if e.path == just_written {
                continue;
            }
            if fs::remove_file(&e.path).is_ok() {
                total -= e.bytes;
                reg.add("serve_cache/evictions", 1);
            }
        }
    }

    /// Finalized entries currently on disk (tmp leftovers and foreign files
    /// are ignored).
    fn entries(&self) -> Vec<EntryMeta> {
        let mut out = Vec::new();
        let Ok(rd) = fs::read_dir(&self.dir) else { return out };
        for entry in rd.flatten() {
            let path = entry.path();
            let Some(key) = path
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(|n| n.strip_suffix(&format!(".{EXTENSION}")))
                .and_then(RequestKey::from_hex)
            else {
                continue;
            };
            let Ok(meta) = entry.metadata() else { continue };
            let Ok(mtime) = meta.modified() else { continue };
            out.push(EntryMeta { path, key, bytes: meta.len(), mtime });
        }
        out
    }

    /// Number of finalized entries.
    pub fn len(&self) -> usize {
        self.entries().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes of finalized entries.
    pub fn total_bytes(&self) -> u64 {
        self.entries().iter().map(|e| e.bytes).sum()
    }
}

struct EntryMeta {
    path: PathBuf,
    key: RequestKey,
    bytes: u64,
    mtime: std::time::SystemTime,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("quake-serve-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn demo_result(seed: u64, samples: usize) -> CachedResult {
        let mut traces = Vec::new();
        for t in 0..2 {
            let mut tr = Seismogram::new(0.01, 3);
            for k in 0..samples {
                let v = (seed as f64) * 0.1 + t as f64 + k as f64 * 1e-3;
                tr.push(&[v, -v, v * 0.5]);
            }
            traces.push(tr);
        }
        CachedResult { executed_steps: samples as u64, element_updates: 1000 * seed, traces }
    }

    fn key_of(seed: u64) -> RequestKey {
        RequestKey::of(&seed.to_le_bytes())
    }

    #[test]
    fn put_get_roundtrips_bit_exact() {
        let dir = tmpdir("roundtrip");
        let cache = ResultCache::open(&dir, 0).unwrap();
        let reg = Registry::new(0);
        let res = demo_result(3, 40);
        cache.put(&key_of(3), &res, &reg).unwrap();
        let got = cache.get(&key_of(3), &reg).unwrap();
        assert_eq!(got.executed_steps, res.executed_steps);
        assert_eq!(got.element_updates, res.element_updates);
        for (a, b) in got.traces.iter().zip(&res.traces) {
            assert_eq!(a.dt.to_bits(), b.dt.to_bits());
            assert_eq!(a.ncomp, b.ncomp);
            for (x, y) in a.data.iter().zip(&b.data) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        assert!(cache.get(&key_of(4), &reg).is_none());
        assert!(reg.counter("serve_cache/bytes_read").unwrap() > 0);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn corrupt_or_truncated_entry_reads_as_miss_and_is_recomputable() {
        // Mirrors the CheckpointReader corruption test: a damaged entry is
        // skipped (served as a miss), then recomputed and served again.
        let dir = tmpdir("corrupt");
        let cache = ResultCache::open(&dir, 0).unwrap();
        let reg = Registry::new(0);
        let key = key_of(9);
        let res = demo_result(9, 25);
        cache.put(&key, &res, &reg).unwrap();

        // Bit-flip the payload.
        let path = dir.join(format!("{}.{EXTENSION}", key.hex()));
        let mut bytes = fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n / 2] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert!(cache.get(&key, &reg).is_none(), "bit rot must read as a miss");
        assert_eq!(reg.counter("serve_cache/invalid_entry"), Some(1));

        // "Recompute": rewrite the entry; it serves again.
        cache.put(&key, &res, &reg).unwrap();
        assert_eq!(cache.get(&key, &reg).unwrap(), res);

        // Truncation reads as a miss too.
        let good = fs::read(&path).unwrap();
        fs::write(&path, &good[..good.len() / 3]).unwrap();
        assert!(cache.get(&key, &reg).is_none());
        // A wrong-kind file under the right name is refused by the frame.
        let foreign = encode_file("quake.other.kind.v1", 0, b"zzz");
        fs::write(&path, foreign).unwrap();
        assert!(cache.get(&key, &reg).is_none());
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn eviction_honors_the_byte_budget_oldest_first() {
        let dir = tmpdir("evict");
        // Budget sized so roughly two demo entries fit.
        let probe = encode_file(RESULT_KIND, 0, &demo_result(0, 30).encode()).len() as u64;
        let cache = ResultCache::open(&dir, probe * 2 + probe / 2).unwrap();
        let reg = Registry::new(0);
        for seed in 1..=4u64 {
            cache.put(&key_of(seed), &demo_result(seed, 30), &reg).unwrap();
            // Distinct mtimes so "oldest" is well defined on coarse clocks.
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        assert!(cache.total_bytes() <= probe * 2 + probe / 2, "budget exceeded");
        assert!(cache.len() >= 2, "over-evicted: {} entries left", cache.len());
        // The newest entries survive; the oldest were dropped.
        assert!(cache.get(&key_of(4), &reg).is_some());
        assert!(cache.get(&key_of(3), &reg).is_some());
        assert!(cache.get(&key_of(1), &reg).is_none());
        assert!(reg.counter("serve_cache/evictions").unwrap() >= 2);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn eviction_is_deterministic_under_equal_mtimes() {
        // A coarse-clock filesystem can stamp a burst of writes with one
        // mtime; the victim must then be chosen by content key, not by
        // directory enumeration order.
        let dir = tmpdir("evict-ties");
        let probe = encode_file(RESULT_KIND, 0, &demo_result(0, 30).encode()).len() as u64;
        let cache = ResultCache::open(&dir, probe * 3 + probe / 2).unwrap();
        let reg = Registry::disabled();
        let seeds = [1u64, 2, 3];
        for &seed in &seeds {
            cache.put(&key_of(seed), &demo_result(seed, 30), &reg).unwrap();
        }
        // Force an exact tie on all three entries.
        let stamp = std::time::SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1_000_000);
        for &seed in &seeds {
            let path = dir.join(format!("{}.{EXTENSION}", key_of(seed).hex()));
            let f = fs::File::options().write(true).open(&path).unwrap();
            f.set_times(fs::FileTimes::new().set_modified(stamp)).unwrap();
        }
        // The fourth put overflows the budget by exactly one entry; the
        // victim must be the smallest key among the tied (oldest) three.
        cache.put(&key_of(4), &demo_result(4, 30), &reg).unwrap();
        let victim = *seeds.iter().min_by_key(|&&s| key_of(s)).unwrap();
        assert_eq!(cache.len(), 3);
        assert!(cache.get(&key_of(victim), &reg).is_none(), "victim {victim} survived");
        for &seed in seeds.iter().filter(|&&s| s != victim) {
            assert!(cache.get(&key_of(seed), &reg).is_some(), "non-victim {seed} evicted");
        }
        assert!(cache.get(&key_of(4), &reg).is_some(), "just-written entry evicted");
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn concurrent_reads_never_see_a_partial_entry() {
        // A reader hammering get() while a writer rewrites the same key
        // must only ever observe a miss or a complete, valid result —
        // the atomic tmp+rename protocol's whole point.
        let dir = tmpdir("race");
        let cache = Arc::new(ResultCache::open(&dir, 0).unwrap());
        let key = key_of(77);
        let stop = Arc::new(AtomicBool::new(false));
        // Seed the entry so the reader races rewrites, not writer startup.
        cache.put(&key, &demo_result(1, 4000), &Registry::disabled()).unwrap();

        let w_cache = Arc::clone(&cache);
        let w_stop = Arc::clone(&stop);
        let writer = std::thread::spawn(move || {
            let reg = Registry::disabled();
            // Alternate two sizable payloads so a torn read would be torn
            // between genuinely different byte lengths.
            let a = demo_result(1, 4000);
            let b = demo_result(2, 2000);
            let mut n = 0u64;
            while !w_stop.load(Ordering::Relaxed) {
                let r = if n.is_multiple_of(2) { &a } else { &b };
                w_cache.put(&key, r, &reg).unwrap();
                n += 1;
            }
            n
        });

        let reg = Registry::new(0);
        let mut hits = 0u64;
        for _ in 0..2000 {
            if let Some(got) = cache.get(&key, &reg) {
                hits += 1;
                // A complete entry: internally consistent lengths and one
                // of the two written element_update stamps.
                assert!(got.element_updates == 1000 || got.element_updates == 2000);
                let expect = if got.element_updates == 1000 { 4000 } else { 2000 };
                for tr in &got.traces {
                    assert_eq!(tr.n_samples(), expect);
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
        let writes = writer.join().unwrap();
        assert!(writes > 0);
        assert!(hits > 0, "reader never saw a single entry — race test is vacuous");
        assert_eq!(
            reg.counter("serve_cache/invalid_entry"),
            None,
            "reader observed a partial/corrupt entry during concurrent writes"
        );
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn tmp_leftovers_and_foreign_files_are_not_entries() {
        let dir = tmpdir("foreign");
        let cache = ResultCache::open(&dir, 0).unwrap();
        let reg = Registry::disabled();
        cache.put(&key_of(1), &demo_result(1, 5), &reg).unwrap();
        fs::write(dir.join("deadbeef.qres.tmp"), b"half").unwrap();
        fs::write(dir.join("notes.txt"), b"hi").unwrap();
        fs::write(dir.join("short.qres"), b"not a key").unwrap();
        assert_eq!(cache.len(), 1);
        fs::remove_dir_all(dir).unwrap();
    }
}
