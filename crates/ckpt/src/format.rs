//! The on-disk snapshot format: little-endian, length-prefixed, CRC-checked.
//!
//! A checkpoint file is one framed payload:
//!
//! ```text
//! magic    "QCKP"                      4 bytes
//! version  u32 LE                      format revision (FORMAT_VERSION)
//! kind     u32 LE length + utf-8       Checkpointable::KIND, guards against
//!                                      restoring the wrong state type
//! step     u64 LE                      sequence number of the snapshot
//! len      u64 LE                      payload length in bytes
//! payload  len bytes                   Encoder output
//! crc      u32 LE                      CRC-32 (IEEE) of all preceding bytes
//! ```
//!
//! Every multi-byte integer and float is little-endian; `f64` slices are
//! stored as raw bit patterns (`to_bits`), so a restored state is
//! **bit-identical** to the saved one — the property the resume-equivalence
//! tests assert. The trailing CRC covers header *and* payload: a truncated
//! or bit-flipped file fails [`decode_file`] with [`CkptError::BadChecksum`]
//! (or [`CkptError::Truncated`]) and checkpoint discovery skips it.

use crate::CkptError;

/// Format revision written into every file. Bump on layout changes; readers
/// reject other revisions rather than guessing.
pub const FORMAT_VERSION: u32 = 1;

/// File magic.
pub const MAGIC: [u8; 4] = *b"QCKP";

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) over `data`.
/// Table-driven, computed once lazily — std-only, no external crates.
pub fn crc32(data: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, e) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *e = c;
        }
        t
    });
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Append-only binary encoder for checkpoint payloads.
#[derive(Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    pub fn new() -> Encoder {
        Encoder::default()
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed utf-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Length-prefixed `f64` slice, raw LE bit patterns (bit-exact).
    pub fn put_f64_slice(&mut self, v: &[f64]) {
        self.put_u64(v.len() as u64);
        self.buf.reserve(v.len() * 8);
        for &x in v {
            self.buf.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }
}

/// Infallible fixed-width copy for slices whose length the caller has
/// already established (via `take(4)` or `chunks_exact(4)`) — reader paths
/// must stay panic-free on arbitrary on-disk bytes, so no
/// `try_into().unwrap()` (the corruption tests in the root
/// `tests/alloc_free.rs` feed every decoder truncated, bit-flipped and
/// length-lying bytes).
/// Public so other length-prefixed stores (the `quake-serve` result cache)
/// share the one panic-free idiom instead of copying it.
pub fn arr4(b: &[u8]) -> [u8; 4] {
    [b[0], b[1], b[2], b[3]]
}

/// [`arr4`] for 8-byte fields (`u64`/`f64` little-endian payloads).
pub fn arr8(b: &[u8]) -> [u8; 8] {
    [b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]
}

/// Cursor-based decoder mirroring [`Encoder`]. Every take checks bounds and
/// returns [`CkptError::Truncated`] past the end — a short payload is a
/// decode error, never a panic.
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    pub fn new(buf: &'a [u8]) -> Decoder<'a> {
        Decoder { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        if self.remaining() < n {
            return Err(CkptError::Truncated { needed: n, available: self.remaining() });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn take_u8(&mut self) -> Result<u8, CkptError> {
        Ok(self.take(1)?[0])
    }

    pub fn take_u32(&mut self) -> Result<u32, CkptError> {
        Ok(u32::from_le_bytes(arr4(self.take(4)?)))
    }

    pub fn take_u64(&mut self) -> Result<u64, CkptError> {
        Ok(u64::from_le_bytes(arr8(self.take(8)?)))
    }

    pub fn take_f64(&mut self) -> Result<f64, CkptError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// A count of items of at least `elem_size` encoded bytes each, which
    /// must fit in the remaining buffer. Every decoded count goes through
    /// here, so a corrupt (huge) count is an error before anything is
    /// reserved for it.
    pub fn take_len(&mut self, elem_size: usize) -> Result<usize, CkptError> {
        let n = self.take_u64()? as usize;
        if n.checked_mul(elem_size).is_none_or(|bytes| bytes > self.remaining()) {
            return Err(CkptError::Truncated {
                needed: n.saturating_mul(elem_size),
                available: self.remaining(),
            });
        }
        Ok(n)
    }

    pub fn take_bytes(&mut self) -> Result<&'a [u8], CkptError> {
        let n = self.take_len(1)?;
        self.take(n)
    }

    pub fn take_str(&mut self) -> Result<&'a str, CkptError> {
        std::str::from_utf8(self.take_bytes()?).map_err(|_| CkptError::Malformed("bad utf-8"))
    }

    pub fn take_f64_vec(&mut self) -> Result<Vec<f64>, CkptError> {
        let n = self.take_len(8)?;
        let raw = self.take(8 * n)?;
        Ok(raw.chunks_exact(8).map(|c| f64::from_bits(u64::from_le_bytes(arr8(c)))).collect())
    }

    /// Assert the payload was fully consumed (catches encode/decode drift).
    pub fn finish(self) -> Result<(), CkptError> {
        if self.remaining() != 0 {
            return Err(CkptError::Malformed("trailing bytes after payload"));
        }
        Ok(())
    }
}

/// Frame a payload into a complete checkpoint file image.
pub fn encode_file(kind: &str, step: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 4 + 8 + kind.len() + 8 + 8 + payload.len() + 4);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(kind.len() as u32).to_le_bytes());
    out.extend_from_slice(kind.as_bytes());
    out.extend_from_slice(&step.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Verify a file image's framing and checksum; return `(step, payload)`.
pub fn decode_file<'a>(kind: &str, bytes: &'a [u8]) -> Result<(u64, &'a [u8]), CkptError> {
    // The CRC trailer is checked first: any truncation or corruption —
    // including of the header fields decoded below — surfaces as a checksum
    // mismatch rather than a confusing secondary error.
    if bytes.len() < 4 + 4 + 4 + 8 + 8 + 4 {
        return Err(CkptError::Truncated { needed: 32, available: bytes.len() });
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes(arr4(trailer));
    let actual = crc32(body);
    if stored != actual {
        return Err(CkptError::BadChecksum { stored, actual });
    }
    let mut d = Decoder::new(body);
    let magic = d.take(4)?;
    if magic != MAGIC {
        return Err(CkptError::Malformed("bad magic"));
    }
    let version = d.take_u32()?;
    if version != FORMAT_VERSION {
        return Err(CkptError::BadVersion { found: version, expected: FORMAT_VERSION });
    }
    let klen = d.take_u32()? as usize;
    let file_kind =
        std::str::from_utf8(d.take(klen)?).map_err(|_| CkptError::Malformed("bad kind utf-8"))?;
    if file_kind != kind {
        return Err(CkptError::KindMismatch {
            found: file_kind.to_string(),
            expected: kind.to_string(),
        });
    }
    let step = d.take_u64()?;
    let plen = d.take_u64()? as usize;
    if plen != d.remaining() {
        return Err(CkptError::Malformed("payload length disagrees with file size"));
    }
    Ok((step, d.take(plen)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn scalar_and_slice_roundtrip_is_bit_exact() {
        let mut e = Encoder::new();
        e.put_u8(7);
        e.put_u32(0xDEAD_BEEF);
        e.put_u64(u64::MAX - 1);
        e.put_f64(-0.0);
        e.put_f64(f64::from_bits(0x7FF0_0000_0000_0001)); // a signaling NaN pattern
        e.put_str("état");
        let xs = vec![1.0, -2.5e-308, f64::INFINITY, 1.25e9];
        e.put_f64_slice(&xs);
        let bytes = e.into_bytes();

        let mut d = Decoder::new(&bytes);
        assert_eq!(d.take_u8().unwrap(), 7);
        assert_eq!(d.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.take_u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.take_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(d.take_f64().unwrap().to_bits(), 0x7FF0_0000_0000_0001);
        assert_eq!(d.take_str().unwrap(), "état");
        let got = d.take_f64_vec().unwrap();
        assert_eq!(
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        d.finish().unwrap();
    }

    #[test]
    fn short_reads_error_instead_of_panicking() {
        let mut d = Decoder::new(&[1, 2, 3]);
        assert!(matches!(d.take_u64(), Err(CkptError::Truncated { .. })));
        // A huge length prefix must not trigger a huge allocation.
        let mut e = Encoder::new();
        e.put_u64(u64::MAX / 2);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert!(matches!(d.take_f64_vec(), Err(CkptError::Truncated { .. })));
    }

    #[test]
    fn file_frame_roundtrips_and_detects_damage() {
        let payload = b"some state".to_vec();
        let img = encode_file("test.kind", 42, &payload);
        let (step, body) = decode_file("test.kind", &img).unwrap();
        assert_eq!(step, 42);
        assert_eq!(body, &payload[..]);

        // Any single bit flip fails the checksum.
        for pos in [0usize, 5, img.len() / 2, img.len() - 5] {
            let mut bad = img.clone();
            bad[pos] ^= 0x10;
            assert!(decode_file("test.kind", &bad).is_err(), "flip at {pos} went undetected");
        }
        // Truncation fails too.
        assert!(decode_file("test.kind", &img[..img.len() - 1]).is_err());
        assert!(decode_file("test.kind", &img[..10]).is_err());
        // Wrong kind is refused even with a valid checksum.
        assert!(matches!(decode_file("other.kind", &img), Err(CkptError::KindMismatch { .. })));
    }

    #[test]
    fn version_mismatch_is_reported() {
        let mut img = encode_file("k", 1, b"p");
        // Patch the version field (offset 4) and re-sign the file.
        img[4..8].copy_from_slice(&99u32.to_le_bytes());
        let n = img.len();
        let crc = crc32(&img[..n - 4]);
        img[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(decode_file("k", &img), Err(CkptError::BadVersion { found: 99, .. })));
    }
}
