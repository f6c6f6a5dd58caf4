//! Scenario requests and their canonical content address.
//!
//! A [`ScenarioRequest`] names everything that determines a forward run's
//! output given an engine variant (mesh + material + dt): the point
//! sources, the receiver layout, and the step budget. Its cache key is the
//! hash of a **canonical byte encoding**:
//!
//! - every `f64` enters as its raw little-endian bit pattern (the same
//!   convention as `quake-ckpt` snapshots), so `-0.0` vs `+0.0` or a
//!   one-ulp perturbation are *different* requests — the cache never
//!   rounds,
//! - the source list is sorted by its encoded bytes before hashing, so two
//!   structurally-equal requests that enumerate the same sources in a
//!   different order share one cache entry (summation order is a property
//!   of the *submission*, not of the scenario identity; see DESIGN.md),
//! - the receiver list is hashed **in order** — receivers are output
//!   channels, and a permuted layout is a genuinely different product,
//! - the engine's variant fingerprint (mesh, dt, step count) prefixes
//!   everything, so two engines over different basins can share one cache
//!   directory.
//!
//! The key is 128 bits of FNV-1a (two independently seeded 64-bit streams
//! over the same bytes). That is a content *address* for honest inputs,
//! not a cryptographic commitment — the store re-verifies every entry's
//! CRC on read, so a collision or corruption degrades to a recompute,
//! never a wrong answer served silently.

use quake_ckpt::Encoder;
use quake_model::PointSource;

/// Version tag mixed into every canonical encoding; bump when the encoding
/// changes so stale cache entries miss instead of decoding wrongly.
pub const REQUEST_ENCODING: &str = "quake.serve.request.v2";

/// One scenario to simulate against an engine's shared mesh.
#[derive(Clone, Debug)]
pub struct ScenarioRequest {
    /// Point moment-tensor sources (e.g. an `ExtendedFault::discretize`
    /// output). Executed in the submitted order; hashed in canonical order.
    pub sources: Vec<PointSource>,
    /// Receiver positions (m), snapped to the nearest mesh node. Order
    /// defines the output trace order and is part of the identity.
    pub receivers: Vec<[f64; 3]>,
    /// Step budget: run `min(n_steps, solver.n_steps)` steps;
    /// `None` = the variant's full configured duration.
    pub n_steps: Option<u64>,
}

impl ScenarioRequest {
    /// A request for `sources`/`receivers` over the variant's full
    /// duration.
    pub fn new(sources: Vec<PointSource>, receivers: Vec<[f64; 3]>) -> ScenarioRequest {
        ScenarioRequest { sources, receivers, n_steps: None }
    }

    pub fn with_steps(mut self, n_steps: u64) -> ScenarioRequest {
        self.n_steps = Some(n_steps);
        self
    }

    /// The canonical byte encoding hashed into the content address.
    /// `variant_fingerprint` pins the mesh/dt context; `until_step`
    /// is the *effective* step count (budget clamped to the variant).
    pub fn canonical_bytes(&self, variant_fingerprint: u64, until_step: u64) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_str(REQUEST_ENCODING);
        enc.put_u64(variant_fingerprint);
        enc.put_u64(until_step);
        enc.put_u64(self.receivers.len() as u64);
        for r in &self.receivers {
            for &c in r {
                enc.put_f64(c);
            }
        }
        // Canonical source order: sort the fixed-width per-source blobs
        // lexicographically. Each blob is 15 f64 bit patterns, so the sort
        // is total and deterministic (bit patterns, not float compares —
        // NaN payloads and -0.0 order stably too).
        let mut blobs: Vec<[u8; 120]> = self.sources.iter().map(source_blob).collect();
        blobs.sort_unstable();
        enc.put_u64(blobs.len() as u64);
        for b in &blobs {
            enc.put_bytes(&b[..]);
        }
        enc.into_bytes()
    }

    /// The 128-bit content address of this request under a variant.
    pub fn key(&self, variant_fingerprint: u64, until_step: u64) -> RequestKey {
        RequestKey::of(&self.canonical_bytes(variant_fingerprint, until_step))
    }
}

/// Fixed-width canonical encoding of one point source: position (3),
/// moment tensor (9), slip delay/rise/amplitude (3) — 15 f64 bit patterns.
fn source_blob(s: &PointSource) -> [u8; 120] {
    let mut out = [0u8; 120];
    let mut k = 0;
    let mut put = |v: f64| {
        out[k..k + 8].copy_from_slice(&v.to_bits().to_le_bytes());
        k += 8;
    };
    for &c in &s.position {
        put(c);
    }
    for row in &s.moment {
        for &m in row {
            put(m);
        }
    }
    put(s.slip.delay);
    put(s.slip.rise);
    put(s.slip.amplitude);
    out
}

/// 64-bit FNV-1a with a caller-chosen offset basis (seed).
fn fnv1a64(bytes: &[u8], seed: u64) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A 128-bit content address (two independently seeded FNV-1a streams).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestKey(pub [u8; 16]);

impl RequestKey {
    /// The standard FNV-1a offset basis, and a second basis derived from it
    /// (bit-rotated) for the independent stream.
    const SEED_A: u64 = 0xCBF2_9CE4_8422_2325;
    const SEED_B: u64 = RequestKey::SEED_A.rotate_left(31) ^ 0x9E37_79B9_7F4A_7C15;

    pub fn of(bytes: &[u8]) -> RequestKey {
        let a = fnv1a64(bytes, RequestKey::SEED_A);
        let b = fnv1a64(bytes, RequestKey::SEED_B);
        let mut k = [0u8; 16];
        k[..8].copy_from_slice(&a.to_le_bytes());
        k[8..].copy_from_slice(&b.to_le_bytes());
        RequestKey(k)
    }

    /// Lower-case hex, the cache file stem.
    pub fn hex(&self) -> String {
        let mut s = String::with_capacity(32);
        for b in self.0 {
            s.push(char::from_digit((b >> 4) as u32, 16).unwrap_or('0'));
            s.push(char::from_digit((b & 0xF) as u32, 16).unwrap_or('0'));
        }
        s
    }

    /// Parse the hex form back into a key (the cache's stem → key map);
    /// `None` unless `s` is exactly 32 hex digits.
    pub fn from_hex(s: &str) -> Option<RequestKey> {
        let b = s.as_bytes();
        if b.len() != 32 {
            return None;
        }
        let mut k = [0u8; 16];
        for (i, byte) in k.iter_mut().enumerate() {
            let hi = (b[2 * i] as char).to_digit(16)?;
            let lo = (b[2 * i + 1] as char).to_digit(16)?;
            *byte = ((hi << 4) | lo) as u8;
        }
        Some(RequestKey(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quake_model::{ExtendedFault, SlipFunction};

    fn demo_sources() -> Vec<PointSource> {
        ExtendedFault::northridge_like(8_000.0).discretize(3, 2)
    }

    fn demo_request() -> ScenarioRequest {
        ScenarioRequest::new(demo_sources(), vec![[1000.0, 2000.0, 0.0], [3000.0, 1500.0, 0.0]])
    }

    #[test]
    fn permuted_sources_hash_identically() {
        // The cache-determinism hazard: structurally-equal requests must
        // share one entry regardless of enumeration order.
        let a = demo_request();
        let mut b = a.clone();
        b.sources.reverse();
        assert_ne!(
            source_blob(&a.sources[0]),
            source_blob(&b.sources[0]),
            "permutation was a no-op — test is vacuous"
        );
        assert_eq!(a.key(42, 100), b.key(42, 100));
        // A genuine rotation, not just reversal.
        let mut c = a.clone();
        c.sources.rotate_left(1);
        assert_eq!(a.key(42, 100), c.key(42, 100));
    }

    #[test]
    fn every_f64_field_change_changes_the_hash() {
        let base = demo_request();
        let k0 = base.key(42, 100);

        // Perturb each kind of f64 field by one ulp; the key must move.
        let mut r = base.clone();
        r.sources[0].position[1] = ulp_up(r.sources[0].position[1]);
        assert_ne!(r.key(42, 100), k0, "source position ignored by the hash");

        let mut r = base.clone();
        r.sources[1].moment[0][2] = ulp_up(r.sources[1].moment[0][2]);
        assert_ne!(r.key(42, 100), k0, "moment tensor ignored by the hash");

        let mut r = base.clone();
        r.sources[0].slip.rise = ulp_up(r.sources[0].slip.rise);
        assert_ne!(r.key(42, 100), k0, "slip function ignored by the hash");

        let mut r = base.clone();
        r.receivers[1][0] = ulp_up(r.receivers[1][0]);
        assert_ne!(r.key(42, 100), k0, "receiver position ignored by the hash");

        // Context changes relocate the key too.
        assert_ne!(base.key(43, 100), k0, "variant fingerprint ignored");
        assert_ne!(base.key(42, 101), k0, "step budget ignored");
        // Receiver order is identity: a permuted layout is a new product.
        let mut r = base.clone();
        r.receivers.reverse();
        assert_ne!(r.key(42, 100), k0, "receiver order must be part of the key");
    }

    /// One ulp away from zero (sign-aware: for negative values,
    /// `to_bits() + 1` would move *toward* zero's neighbor below).
    fn ulp_up(v: f64) -> f64 {
        if v.is_sign_negative() {
            f64::from_bits(v.to_bits() - 1)
        } else {
            f64::from_bits(v.to_bits() + 1)
        }
    }

    #[test]
    fn sign_of_zero_and_nan_payloads_are_distinct_identities() {
        let mut a = demo_request();
        a.receivers[0][2] = 0.0;
        let mut b = a.clone();
        b.receivers[0][2] = -0.0;
        assert_ne!(a.key(1, 1), b.key(1, 1), "the encoding must be bitwise, not value-wise");
    }

    #[test]
    fn key_hex_roundtrips_width() {
        let k = demo_request().key(7, 9);
        let h = k.hex();
        assert_eq!(h.len(), 32);
        assert!(h.bytes().all(|b| b.is_ascii_hexdigit()));
        // Sanity: differently-seeded halves disagree (the two streams are
        // actually independent).
        assert_ne!(k.0[..8], k.0[8..]);
    }

    #[test]
    fn slip_function_timing_feeds_the_blob() {
        let mut s = demo_sources();
        let blob0 = source_blob(&s[0]);
        s[0].slip = SlipFunction::new(s[0].slip.delay + 0.25, s[0].slip.rise, s[0].slip.amplitude);
        assert_ne!(source_blob(&s[0]), blob0);
    }
}
