//! Hand-rolled wire primitives: little-endian fields, length-prefixed
//! blobs, zero-page run-length coding, and the FNV-1a checksum.
//!
//! The format is written and parsed by this crate alone — no serde, no
//! derive magic — because the determinism contract demands byte-for-byte
//! reproducible output and the security posture demands that every read
//! be bounds-checked. [`Reader`] never allocates more than the input can
//! justify: length prefixes are validated against the bytes actually
//! remaining before any buffer is sized from them.

use crate::error::SnapshotError;

/// Bytes per page: the unit of the run-length coding, of machine memory
/// and of a virtual-disk sector.
pub const PAGE: usize = 512;

/// The page every zero-run test compares against.
static ZERO_PAGE: [u8; PAGE] = [0; PAGE];

/// 64-bit FNV-1a over `bytes` — small, dependency-free, and stable
/// across platforms, which is all a corruption check needs (this is an
/// integrity checksum, not an authenticity MAC).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Append-only little-endian field writer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Raw bytes, no length prefix.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Little-endian u16.
    pub fn u16(&mut self, v: u16) {
        self.bytes(&v.to_le_bytes());
    }

    /// Little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Little-endian i64 (two's complement).
    pub fn i64(&mut self, v: i64) {
        self.bytes(&v.to_le_bytes());
    }

    /// A u32 length prefix followed by the bytes.
    pub fn blob(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.bytes(b);
    }

    /// A string as a blob of UTF-8.
    pub fn str(&mut self, s: &str) {
        self.blob(s.as_bytes());
    }

    /// An optional u32 (presence byte + value).
    pub fn opt_u32(&mut self, v: Option<u32>) {
        match v {
            Some(x) => {
                self.bool(true);
                self.u32(x);
            }
            None => self.bool(false),
        }
    }

    /// Reserves a little-endian u32 to be filled in by
    /// [`Writer::patch_u32`] once its value is known; returns its offset.
    pub fn u32_placeholder(&mut self) -> usize {
        let at = self.buf.len();
        self.u32(0);
        at
    }

    /// Overwrites the u32 reserved at `at`.
    pub fn patch_u32(&mut self, at: usize, v: u32) {
        self.buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Page-granular zero-run-length coding of `pages`, each [`PAGE`]
    /// bytes: a page count, then alternating runs of
    /// `(tag, page_count[, literal bytes])` where tag 0 is an all-zero
    /// run and tag 1 carries the pages verbatim. Pages are taken one at a
    /// time and each is compared with the zero page once, so nothing is
    /// staged; a run's page count is patched in when the run ends. Guest
    /// images are mostly zero pages, so this is the entire compression
    /// story.
    pub fn rle_pages<'p>(&mut self, pages: impl IntoIterator<Item = &'p [u8]>) {
        let total_at = self.u32_placeholder();
        let mut total = 0u32;
        // The open run: its tag, the offset of its page count, its length.
        let mut run: Option<(bool, usize, u32)> = None;
        for page in pages {
            debug_assert_eq!(page.len(), PAGE);
            let zero = page == ZERO_PAGE;
            match &mut run {
                Some((tag, _, n)) if *tag == zero => *n += 1,
                _ => {
                    if let Some((_, at, n)) = run {
                        self.patch_u32(at, n);
                    }
                    self.bool(!zero);
                    run = Some((zero, self.u32_placeholder(), 1));
                }
            }
            if !zero {
                self.bytes(page);
            }
            total += 1;
        }
        if let Some((_, at, n)) = run {
            self.patch_u32(at, n);
        }
        self.patch_u32(total_at, total);
    }
}

/// Bounds-checked little-endian field reader over an untrusted image.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over the whole of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Takes `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// A strict bool: only 0 and 1 are valid encodings.
    pub fn bool(&mut self, what: &'static str) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::BadDiscriminant { what }),
        }
    }

    /// Little-endian u16.
    pub fn u16(&mut self) -> Result<u16, SnapshotError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Little-endian u32.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Little-endian u64.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Little-endian i64.
    pub fn i64(&mut self) -> Result<i64, SnapshotError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(i64::from_le_bytes(a))
    }

    /// A length-prefixed blob. The prefix is validated against the bytes
    /// remaining before any allocation, so a hostile length cannot force
    /// an over-size buffer.
    pub fn blob(&mut self) -> Result<&'a [u8], SnapshotError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// A blob with a caller-imposed length cap (names, diagnostics).
    pub fn blob_capped(
        &mut self,
        cap: usize,
        what: &'static str,
    ) -> Result<&'a [u8], SnapshotError> {
        let b = self.blob()?;
        if b.len() > cap {
            return Err(SnapshotError::Invalid { what });
        }
        Ok(b)
    }

    /// A capped UTF-8 string.
    pub fn str_capped(&mut self, cap: usize, what: &'static str) -> Result<&'a str, SnapshotError> {
        let b = self.blob_capped(cap, what)?;
        core::str::from_utf8(b).map_err(|_| SnapshotError::Invalid { what })
    }

    /// An optional u32.
    pub fn opt_u32(&mut self, what: &'static str) -> Result<Option<u32>, SnapshotError> {
        Ok(if self.bool(what)? {
            Some(self.u32()?)
        } else {
            None
        })
    }

    /// Decodes a [`Writer::rle_pages`] stream into `dst`, whose length
    /// the stream's page count must match exactly.
    pub fn rle_pages(
        &mut self,
        dst: &mut [u8],
        zeroed: bool,
        what: &'static str,
    ) -> Result<(), SnapshotError> {
        if self.u32()? as usize != dst.len() / PAGE {
            return Err(SnapshotError::Invalid { what });
        }
        self.rle_body(dst, zeroed, what)
    }

    /// The run-coded body of an RLE stream whose page count the caller
    /// has already read, validated and sized `dst` by (a memory extent's
    /// count comes from the stream and is checked against the memory
    /// first). Runs are checked against what is left of `dst` before
    /// any byte is written. `zeroed` says `dst` is already all zero, so
    /// zero runs need no writes — a fresh memory then stays untouched,
    /// and unfaulted, outside its literal pages.
    pub fn rle_body(
        &mut self,
        dst: &mut [u8],
        zeroed: bool,
        what: &'static str,
    ) -> Result<(), SnapshotError> {
        let total = dst.len() / PAGE;
        let mut p = 0usize;
        while p < total {
            let literal = match self.u8()? {
                0 => false,
                1 => true,
                _ => return Err(SnapshotError::BadDiscriminant { what }),
            };
            let run = self.u32()? as usize;
            if run == 0 || run > total - p {
                return Err(SnapshotError::Invalid { what });
            }
            let out = &mut dst[p * PAGE..(p + run) * PAGE];
            if literal {
                out.copy_from_slice(self.take(run * PAGE)?);
            } else if !zeroed {
                out.fill(0);
            }
            p += run;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip() {
        let mut w = Writer::new();
        w.u8(0xab);
        w.u16(0x1234);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 7);
        w.i64(-42);
        w.bool(true);
        w.opt_u32(Some(9));
        w.opt_u32(None);
        w.str("héllo");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 0xab);
        assert_eq!(r.u16().unwrap(), 0x1234);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 7);
        assert_eq!(r.i64().unwrap(), -42);
        assert!(r.bool("b").unwrap());
        assert_eq!(r.opt_u32("o").unwrap(), Some(9));
        assert_eq!(r.opt_u32("o").unwrap(), None);
        assert_eq!(r.str_capped(16, "s").unwrap(), "héllo");
        assert!(r.is_empty());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = Writer::new();
        w.u64(7);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert_eq!(r.u64(), Err(SnapshotError::Truncated), "cut at {cut}");
        }
    }

    #[test]
    fn hostile_blob_length_cannot_force_allocation() {
        let mut w = Writer::new();
        w.u32(u32::MAX); // promises 4 GiB that are not there
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.blob(), Err(SnapshotError::Truncated));
    }

    /// Writes `data` (a whole number of pages) through the page writer.
    fn rle(data: &[u8]) -> Writer {
        let mut w = Writer::new();
        w.rle_pages(data.chunks_exact(PAGE));
        w
    }

    #[test]
    fn rle_round_trips_sparse_and_dense_data() {
        const LEN: usize = 8 * PAGE;
        for data in [
            vec![0u8; LEN],
            {
                let mut d = vec![0u8; LEN];
                d[17] = 3;
                d[5 * PAGE..6 * PAGE].fill(0xff);
                d
            },
            (0..LEN).map(|i| i as u8).collect::<Vec<u8>>(),
        ] {
            let bytes = rle(&data).into_bytes();
            let mut r = Reader::new(&bytes);
            let mut out = vec![0u8; LEN];
            r.rle_pages(&mut out, true, "m").unwrap();
            assert_eq!(out, data);
            assert!(r.is_empty());
            // Over stale contents, zero runs are written too.
            let mut r = Reader::new(&bytes);
            let mut out = vec![0x77u8; LEN];
            r.rle_pages(&mut out, false, "m").unwrap();
            assert_eq!(out, data);
        }
    }

    #[test]
    fn rle_zero_dominant_image_is_small() {
        let mut data = vec![0u8; 512 * 1024];
        data[0] = 1;
        let w = rle(&data);
        assert!(
            w.len() < 600,
            "1 literal page + run headers, got {}",
            w.len()
        );
    }

    #[test]
    fn rle_rejects_run_overflow_and_wrong_total() {
        let mut w = Writer::new();
        w.u32(4); // 4 pages
        w.u8(0);
        w.u32(9); // zero run longer than the image
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            r.rle_pages(&mut [0u8; 4 * PAGE], true, "m"),
            Err(SnapshotError::Invalid { .. })
        ));
        let bytes = rle(&[0u8; 4 * PAGE]).into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            r.rle_pages(&mut [0u8; 5 * PAGE], true, "m"),
            Err(SnapshotError::Invalid { .. })
        ));
    }

    #[test]
    fn fnv_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
