//! Simulated physical memory, with copy-on-write forking.

use crate::fault::MemFault;
use std::sync::Arc;
use vax_arch::va::{PAGE_BYTES, PAGE_SHIFT};

/// Bytes per page, as a slice length.
const PAGE: usize = PAGE_BYTES as usize;
/// Byte offset within a page.
const PAGE_MASK: usize = PAGE - 1;
/// Per-page word: the page backs decoded-instruction-cache entries.
const CODE_PAGE: u32 = 1 << 31;
/// Per-page word: written since the delta chain last drained its view
/// ([`PhysMemory::take_dirty_pages`]).
const DIRTY: u32 = 1 << 30;
/// Per-page word: written since pre-copy migration last drained its
/// view ([`PhysMemory::take_migrate_pages`]).
const MIGRATE: u32 = 1 << 29;
/// Per-page word: written since the profiler last reset its view
/// ([`PhysMemory::clear_touched_pages`]).
const TOUCHED: u32 = 1 << 28;
/// Every consumer's view bit. A write to a page whose word has all of
/// them set and no code mark needs no bookkeeping.
const VIEWS: u32 = DIRTY | MIGRATE | TOUCHED;
/// Per-page word: 1-based slot of a forked memory's private copy of the
/// page in its overlay, or 0 while the page is still shared with the
/// base.
const SLOT_MASK: u32 = TOUCHED - 1;
// A slot must be able to name every page of a 4 GiB memory.
const _: () = assert!(SLOT_MASK >= 1 << (32 - PAGE_SHIFT));

/// A bank of simulated physical memory.
///
/// Addresses are 32-bit physical byte addresses starting at 0. References
/// beyond the configured size fail with [`MemFault::NonExistent`], which the
/// CPU surfaces as a machine check — on the paper's virtual VAX, touching
/// nonexistent memory is grounds for halting the VM (§5, "Hardware
/// errors").
///
/// # Copy-on-write forking
///
/// [`PhysMemory::fork`] freezes the current contents into an [`Arc`]'d
/// *base* shared between the parent and every child, and turns each of
/// them into a sparse overlay: reads of an untouched page come straight
/// from the shared base, and the first write to a page copies that one
/// page into the overlay. A fork writes one word per page — `O(pages)`
/// with a small constant, no copy and no zero-fill of the contents —
/// and a child then costs 512 bytes per page it writes. An unforked
/// memory pays no overlay cost beyond one well-predicted branch per
/// access.
///
/// # Example
///
/// ```
/// use vax_mem::PhysMemory;
///
/// let mut mem = PhysMemory::new(4096);
/// mem.write_u32(0x10, 0xdead_beef)?;
/// assert_eq!(mem.read_u32(0x10)?, 0xdead_beef);
/// assert_eq!(mem.read_u16(0x10)?, 0xbeef); // little-endian
/// # Ok::<(), vax_mem::MemFault>(())
/// ```
#[derive(Debug, Clone)]
pub struct PhysMemory {
    /// Unforked: every byte, flat. Forked: only the private pages, one
    /// 512-byte slot per page in first-write order.
    bytes: Vec<u8>,
    /// Total size in bytes, a whole number of pages.
    size: u32,
    /// The frozen copy-on-write base shared with fork relatives, if any.
    /// Always `size` bytes long.
    base: Option<Arc<Vec<u8>>>,
    /// One word per page, everything the memory knows about the page
    /// besides its contents:
    /// - [`CODE_PAGE`] when the page backs decoded-instruction-cache
    ///   entries. A write to it is recorded in `dirty_code` so the CPU
    ///   can invalidate the stale entries before its next decode
    ///   (self-modifying code, DMA, VMM pokes: anything that mutates
    ///   physical memory funnels through the write methods below).
    /// - One view bit per consumer of dirty-page telemetry ([`DIRTY`],
    ///   [`MIGRATE`], [`TOUCHED`]): set by every write, cleared only by
    ///   that consumer, so none can empty another's view.
    /// - When forked, the page's overlay slot ([`SLOT_MASK`]).
    page_words: Vec<u32>,
    /// Marked pages written since the last [`PhysMemory::take_dirty_code_pages`].
    dirty_code: Vec<u32>,
    /// Pages with [`DIRTY`] set.
    dirty_count: u32,
    /// Pages with [`MIGRATE`] set.
    migrate_count: u32,
    /// Pages with [`TOUCHED`] set.
    touched_count: u32,
    /// [`TOUCHED`] transitions since the memory was created, never reset.
    touched_events: u64,
}

/// Equality is over *effective* memory contents; the decode-cache
/// bookkeeping and the copy-on-write representation are transparent (a
/// freshly forked child equals its parent).
impl PartialEq for PhysMemory {
    fn eq(&self, other: &PhysMemory) -> bool {
        if self.size != other.size {
            return false;
        }
        if self.base.is_none() && other.base.is_none() {
            return self.bytes == other.bytes;
        }
        (0..self.page_words.len()).all(|p| self.page_slice(p) == other.page_slice(p))
    }
}

impl Eq for PhysMemory {}

impl PhysMemory {
    /// Allocates `size` bytes of zeroed memory, rounded up to a whole page.
    pub fn new(size: u32) -> PhysMemory {
        let rounded = size.div_ceil(PAGE_BYTES) * PAGE_BYTES;
        PhysMemory::flat(vec![0; rounded as usize])
    }

    /// Adopts `bytes` as the contents of an unforked memory without
    /// copying them (snapshot restore hands over its decoded image this
    /// way). `None` unless `bytes` is a whole number of pages and at
    /// most 4 GiB.
    pub fn from_vec(bytes: Vec<u8>) -> Option<PhysMemory> {
        if !bytes.len().is_multiple_of(PAGE) || u32::try_from(bytes.len()).is_err() {
            return None;
        }
        Some(PhysMemory::flat(bytes))
    }

    /// An unforked memory over `bytes` (a whole number of pages).
    fn flat(bytes: Vec<u8>) -> PhysMemory {
        PhysMemory {
            size: bytes.len() as u32,
            page_words: vec![0; bytes.len() / PAGE],
            bytes,
            base: None,
            dirty_code: Vec::new(),
            dirty_count: 0,
            migrate_count: 0,
            touched_count: 0,
            touched_events: 0,
        }
    }

    /// Total size in bytes.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Total size in pages.
    pub fn pages(&self) -> u32 {
        self.size / PAGE_BYTES
    }

    /// True if the `len`-byte range starting at `pa` is backed by memory.
    pub fn contains(&self, pa: u32, len: u32) -> bool {
        (pa as u64) + (len as u64) <= self.size as u64
    }

    fn check(&self, pa: u32, len: u32) -> Result<usize, MemFault> {
        if self.contains(pa, len) {
            Ok(pa as usize)
        } else {
            Err(MemFault::NonExistent { pa })
        }
    }

    /// Records a write over `[pa, pa+len)` against the code-page marks
    /// and the consumers' views: one load and one compare per page while
    /// the page is unmarked and in every view, the common case.
    #[inline]
    fn note_write(&mut self, pa: u32, len: u32) {
        let first = pa >> PAGE_SHIFT;
        let last = (pa + len - 1) >> PAGE_SHIFT;
        for pfn in first..=last {
            let w = self.page_words[pfn as usize];
            if w & (CODE_PAGE | VIEWS) != VIEWS {
                if w & CODE_PAGE != 0 {
                    self.dirty_code.push(pfn);
                }
                if w & VIEWS != VIEWS {
                    self.enter_views(pfn as usize);
                }
            }
        }
    }

    /// A page's first write since some consumer last cleared its view:
    /// set the missing view bits and count them.
    #[cold]
    #[inline(never)]
    fn enter_views(&mut self, p: usize) {
        let w = self.page_words[p];
        if w & DIRTY == 0 {
            self.dirty_count += 1;
        }
        if w & MIGRATE == 0 {
            self.migrate_count += 1;
        }
        if w & TOUCHED == 0 {
            self.touched_count += 1;
            self.touched_events += 1;
        }
        self.page_words[p] = w | VIEWS;
    }

    // ---- copy-on-write fork ----

    /// The effective contents of page `p` (overlay slot if the page is
    /// private, base otherwise).
    #[inline]
    fn page_slice(&self, p: usize) -> &[u8] {
        let start = p << PAGE_SHIFT;
        match &self.base {
            None => &self.bytes[start..start + PAGE],
            Some(base) => match self.page_words[p] & SLOT_MASK {
                0 => &base[start..start + PAGE],
                slot => {
                    let at = ((slot - 1) as usize) << PAGE_SHIFT;
                    &self.bytes[at..at + PAGE]
                }
            },
        }
    }

    /// One byte of effective contents.
    #[inline]
    fn byte_at(&self, i: usize) -> u8 {
        match &self.base {
            None => self.bytes[i],
            Some(_) => self.page_slice(i >> PAGE_SHIFT)[i & PAGE_MASK],
        }
    }

    /// `N` bytes of a forked memory's effective contents from `i`.
    #[inline]
    fn read_forked<const N: usize>(&self, i: usize) -> [u8; N] {
        let mut out = [0; N];
        let off = i & PAGE_MASK;
        if off + N <= PAGE {
            out.copy_from_slice(&self.page_slice(i >> PAGE_SHIFT)[off..off + N]);
        } else {
            for (k, b) in out.iter_mut().enumerate() {
                *b = self.byte_at(i + k);
            }
        }
        out
    }

    /// Byte offset in the overlay of page `p`'s private copy, copying
    /// the page up from the base on its first write.
    #[inline]
    fn private_page(&mut self, p: usize) -> usize {
        match self.page_words[p] & SLOT_MASK {
            0 => self.copy_up(p),
            slot => ((slot - 1) as usize) << PAGE_SHIFT,
        }
    }

    /// A page's first write since the fork: append a copy of its base
    /// contents to the overlay and record the slot.
    #[cold]
    #[inline(never)]
    fn copy_up(&mut self, p: usize) -> usize {
        let at = self.bytes.len();
        if let Some(base) = &self.base {
            let start = p << PAGE_SHIFT;
            self.bytes.extend_from_slice(&base[start..start + PAGE]);
        }
        self.page_words[p] |= (at >> PAGE_SHIFT) as u32 + 1;
        at
    }

    /// Stores into a forked memory over `[i, i+len)`, page by page: `put`
    /// fills each private-page chunk, given the chunk's offset into the
    /// range.
    fn store_forked(&mut self, i: usize, len: usize, mut put: impl FnMut(&mut [u8], usize)) {
        let mut done = 0;
        while done < len {
            let at = i + done;
            let off = at & PAGE_MASK;
            let n = (len - done).min(PAGE - off);
            let slot = self.private_page(at >> PAGE_SHIFT) + off;
            put(&mut self.bytes[slot..slot + n], done);
            done += n;
        }
    }

    /// Freezes the current effective contents into a shareable base and
    /// turns `self` into an overlay over it with no private pages. Code
    /// marks and view bits survive: the contents are unchanged, and
    /// forking must not empty any consumer's view.
    ///
    /// Cheap when unforked (the flat store becomes the base, no copy) or
    /// already frozen with nothing written since (an `Arc` clone);
    /// otherwise merges the overlay into a fresh base, `O(size)`.
    fn freeze(&mut self) -> Arc<Vec<u8>> {
        if let Some(base) = &self.base {
            if self.bytes.is_empty() {
                return Arc::clone(base);
            }
        }
        let merged = match self.base.take() {
            None => std::mem::take(&mut self.bytes),
            Some(base) => {
                let mut merged = Arc::unwrap_or_clone(base);
                for (p, w) in self.page_words.iter().enumerate() {
                    let slot = w & SLOT_MASK;
                    if slot != 0 {
                        let at = ((slot - 1) as usize) << PAGE_SHIFT;
                        merged[p << PAGE_SHIFT..(p + 1) << PAGE_SHIFT]
                            .copy_from_slice(&self.bytes[at..at + PAGE]);
                    }
                }
                self.bytes = Vec::new();
                merged
            }
        };
        for w in &mut self.page_words {
            *w &= !SLOT_MASK;
        }
        let frozen = Arc::new(merged);
        self.base = Some(Arc::clone(&frozen));
        frozen
    }

    /// Forks a copy-on-write child sharing every page with `self`.
    ///
    /// Both sides become overlays over a common frozen base: the child
    /// starts with zero private pages, and each side pays one page copy on
    /// its first write to any page. The child starts with no code marks
    /// (its CPU must start with a cold decode cache) and every view
    /// empty; the parent keeps its views.
    pub fn fork(&mut self) -> PhysMemory {
        let base = self.freeze();
        PhysMemory {
            bytes: Vec::new(),
            size: self.size,
            base: Some(base),
            page_words: vec![0; self.page_words.len()],
            dirty_code: Vec::new(),
            dirty_count: 0,
            migrate_count: 0,
            touched_count: 0,
            touched_events: 0,
        }
    }

    /// True if this memory shares a copy-on-write base with fork
    /// relatives.
    pub fn is_cow(&self) -> bool {
        self.base.is_some()
    }

    /// Number of `PhysMemory` values (this one included) holding a
    /// reference to the shared copy-on-write base, or `None` when
    /// unforked. A fork-per-request server leaks a child exactly when
    /// this fails to return to its post-freeze baseline after the
    /// request is reaped — the seam the `vaxd` hygiene tests assert on.
    pub fn base_ref_count(&self) -> Option<usize> {
        self.base.as_ref().map(Arc::strong_count)
    }

    /// Number of pages privately materialized since the last fork
    /// (0 when unforked).
    pub fn resident_pages(&self) -> u32 {
        if self.base.is_some() {
            (self.bytes.len() / PAGE) as u32
        } else {
            0
        }
    }

    /// The page numbers privately materialized since the last fork, in
    /// ascending order (empty when unforked). Because materialization
    /// happens on — and only on — the write paths, this is an exact,
    /// independently-derived record of the pages written since the fork;
    /// the working-set oracle tests compare it against
    /// [`PhysMemory::dirty_pages`].
    pub fn resident_page_numbers(&self) -> Vec<u32> {
        self.page_words
            .iter()
            .enumerate()
            .filter(|(_, w)| **w & SLOT_MASK != 0)
            .map(|(p, _)| p as u32)
            .collect()
    }

    /// Fraction of pages still shared with the copy-on-write base, in
    /// `[0, 1]` (1.0 right after a fork, 0.0 when unforked or fully
    /// diverged).
    pub fn shared_fraction(&self) -> f64 {
        if self.base.is_none() || self.pages() == 0 {
            return 0.0;
        }
        1.0 - self.resident_pages() as f64 / self.pages() as f64
    }

    /// The effective contents of page `pfn`, or `None` past the end.
    pub fn page(&self, pfn: u32) -> Option<&[u8]> {
        if pfn >= self.pages() {
            return None;
        }
        Some(self.page_slice(pfn as usize))
    }

    // ---- decode-cache write tracking ----

    /// Marks a page as backing decoded-instruction-cache entries; later
    /// writes to it are reported by [`PhysMemory::take_dirty_code_pages`].
    pub fn note_code_page(&mut self, pfn: u32) {
        self.page_words[pfn as usize] |= CODE_PAGE;
    }

    /// Clears a page's code mark (after its cache entries are dropped).
    pub fn clear_code_page(&mut self, pfn: u32) {
        self.page_words[pfn as usize] &= !CODE_PAGE;
    }

    /// Clears every code mark and pending dirty notice.
    pub fn clear_all_code_pages(&mut self) {
        for w in &mut self.page_words {
            *w &= !CODE_PAGE;
        }
        self.dirty_code.clear();
    }

    /// True if any marked code page has been written since the last drain.
    #[inline]
    pub fn has_dirty_code(&self) -> bool {
        !self.dirty_code.is_empty()
    }

    /// Drains the set of marked pages written since the last call (may
    /// contain duplicates; empty drains allocate nothing).
    pub fn take_dirty_code_pages(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.dirty_code)
    }

    // ---- dirty-page views ----
    //
    // Every write enters its pages into three views, one per consumer,
    // each cleared only by its owner: the delta chain (`DIRTY`), pre-copy
    // migration (`MIGRATE`) and the profiler (`TOUCHED`). Tracking is
    // observational — contents, faults and simulated time are the same
    // whoever reads or clears a view — and a fresh, forked or restored
    // memory starts with every view empty.

    /// Distinct pages written since the delta chain's last drain
    /// ([`PhysMemory::take_dirty_pages`]) or since the memory was
    /// created, forked or restored.
    pub fn dirty_page_count(&self) -> u32 {
        self.dirty_count
    }

    /// The delta chain's view in ascending order, without draining.
    pub fn dirty_pages(&self) -> Vec<u32> {
        self.view(DIRTY, self.dirty_count)
    }

    /// Drains the delta chain's view, in ascending order: pages written
    /// after this call land in the next drain. The seam
    /// `snapshot_chain_base` and `snapshot_delta` consume; no other
    /// consumer's view changes.
    pub fn take_dirty_pages(&mut self) -> Vec<u32> {
        let n = std::mem::take(&mut self.dirty_count);
        self.drain_view(DIRTY, n)
    }

    /// Drains pre-copy migration's view, in ascending order: its
    /// baseline clear and each round's re-ship set. No other consumer's
    /// view changes.
    pub fn take_migrate_pages(&mut self) -> Vec<u32> {
        let n = std::mem::take(&mut self.migrate_count);
        self.drain_view(MIGRATE, n)
    }

    /// Distinct pages written since the profiler's view was last reset
    /// ([`PhysMemory::clear_touched_pages`]) or since the memory was
    /// created, forked or restored.
    pub fn touched_page_count(&self) -> u32 {
        self.touched_count
    }

    /// The profiler's view in ascending order.
    pub fn touched_pages(&self) -> Vec<u32> {
        self.view(TOUCHED, self.touched_count)
    }

    /// Empties the profiler's view; `enable_profiling` calls this so its
    /// working set starts from the moment profiling does.
    pub fn clear_touched_pages(&mut self) {
        let n = std::mem::take(&mut self.touched_count);
        self.drain_view(TOUCHED, n);
    }

    /// Monotonic count of pages entering the profiler's view — never
    /// reset, unlike [`PhysMemory::touched_page_count`] — so a sampler
    /// can difference it into per-interval rates.
    pub fn dirty_page_events(&self) -> u64 {
        self.touched_events
    }

    /// The `n` pages whose words carry `bit`, in ascending order; the
    /// scan stops at the `n`th.
    fn view(&self, bit: u32, n: u32) -> Vec<u32> {
        (0..)
            .zip(&self.page_words)
            .filter(|(_, w)| **w & bit != 0)
            .map(|(p, _)| p)
            .take(n as usize)
            .collect()
    }

    /// Clears `bit` from the `n` pages that carry it, returning them in
    /// ascending order.
    fn drain_view(&mut self, bit: u32, n: u32) -> Vec<u32> {
        let pages = self.view(bit, n);
        for &p in &pages {
            self.page_words[p as usize] &= !bit;
        }
        pages
    }

    /// The bytes from `pa` through the end of its physical page — the
    /// borrow-friendly handle the CPU's I-stream fast path parses
    /// instruction bytes from after translating the fetch page once.
    pub fn page_tail(&self, pa: u32) -> Option<&[u8]> {
        if !self.contains(pa, 1) {
            return None;
        }
        if self.base.is_some() {
            let page = self.page_slice((pa >> PAGE_SHIFT) as usize);
            return Some(&page[pa as usize & PAGE_MASK..]);
        }
        let end = (((pa >> PAGE_SHIFT) + 1) << PAGE_SHIFT).min(self.size());
        Some(&self.bytes[pa as usize..end as usize])
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`MemFault::NonExistent`] if `pa` is beyond physical memory.
    pub fn read_u8(&self, pa: u32) -> Result<u8, MemFault> {
        let i = self.check(pa, 1)?;
        Ok(self.byte_at(i))
    }

    /// Reads a little-endian 16-bit word.
    ///
    /// # Errors
    ///
    /// [`MemFault::NonExistent`] if the range extends beyond memory.
    pub fn read_u16(&self, pa: u32) -> Result<u16, MemFault> {
        let i = self.check(pa, 2)?;
        if self.base.is_none() {
            return Ok(u16::from_le_bytes([self.bytes[i], self.bytes[i + 1]]));
        }
        Ok(u16::from_le_bytes(self.read_forked(i)))
    }

    /// Reads a little-endian 32-bit longword.
    ///
    /// # Errors
    ///
    /// [`MemFault::NonExistent`] if the range extends beyond memory.
    pub fn read_u32(&self, pa: u32) -> Result<u32, MemFault> {
        let i = self.check(pa, 4)?;
        if self.base.is_none() {
            return Ok(u32::from_le_bytes([
                self.bytes[i],
                self.bytes[i + 1],
                self.bytes[i + 2],
                self.bytes[i + 3],
            ]));
        }
        Ok(u32::from_le_bytes(self.read_forked(i)))
    }

    /// Writes one byte.
    ///
    /// # Errors
    ///
    /// [`MemFault::NonExistent`] if `pa` is beyond physical memory.
    pub fn write_u8(&mut self, pa: u32, v: u8) -> Result<(), MemFault> {
        let i = self.check(pa, 1)?;
        self.note_write(pa, 1);
        if self.base.is_some() {
            self.store_forked(i, 1, |dst, _| dst[0] = v);
        } else {
            self.bytes[i] = v;
        }
        Ok(())
    }

    /// Writes a little-endian 16-bit word.
    ///
    /// # Errors
    ///
    /// [`MemFault::NonExistent`] if the range extends beyond memory.
    pub fn write_u16(&mut self, pa: u32, v: u16) -> Result<(), MemFault> {
        let i = self.check(pa, 2)?;
        self.note_write(pa, 2);
        let v = v.to_le_bytes();
        if self.base.is_some() {
            self.store_forked(i, 2, |dst, at| dst.copy_from_slice(&v[at..at + dst.len()]));
        } else {
            self.bytes[i..i + 2].copy_from_slice(&v);
        }
        Ok(())
    }

    /// Writes a little-endian 32-bit longword.
    ///
    /// # Errors
    ///
    /// [`MemFault::NonExistent`] if the range extends beyond memory.
    pub fn write_u32(&mut self, pa: u32, v: u32) -> Result<(), MemFault> {
        let i = self.check(pa, 4)?;
        self.note_write(pa, 4);
        let v = v.to_le_bytes();
        if self.base.is_some() {
            self.store_forked(i, 4, |dst, at| dst.copy_from_slice(&v[at..at + dst.len()]));
        } else {
            self.bytes[i..i + 4].copy_from_slice(&v);
        }
        Ok(())
    }

    /// Copies a slice into memory at `pa`.
    ///
    /// # Errors
    ///
    /// [`MemFault::NonExistent`] if the range extends beyond memory.
    pub fn write_slice(&mut self, pa: u32, data: &[u8]) -> Result<(), MemFault> {
        let i = self.check(pa, data.len() as u32)?;
        if data.is_empty() {
            return Ok(());
        }
        self.note_write(pa, data.len() as u32);
        if self.base.is_some() {
            self.store_forked(i, data.len(), |dst, at| {
                dst.copy_from_slice(&data[at..at + dst.len()]);
            });
        } else {
            self.bytes[i..i + data.len()].copy_from_slice(data);
        }
        Ok(())
    }

    /// Reads `len` bytes starting at `pa`, borrowing when the range lies
    /// in one backing store — all of it unforked, all of it still shared
    /// with the base, or within one private page — and copying otherwise.
    ///
    /// # Errors
    ///
    /// [`MemFault::NonExistent`] if the range extends beyond memory.
    pub fn read_slice(&self, pa: u32, len: u32) -> Result<std::borrow::Cow<'_, [u8]>, MemFault> {
        use std::borrow::Cow;
        let i = self.check(pa, len)?;
        let end = i + len as usize;
        let Some(base) = &self.base else {
            return Ok(Cow::Borrowed(&self.bytes[i..end]));
        };
        if len == 0 {
            return Ok(Cow::Borrowed(&[]));
        }
        let first = i >> PAGE_SHIFT;
        let last = (end - 1) >> PAGE_SHIFT;
        if self.page_words[first..=last]
            .iter()
            .all(|w| w & SLOT_MASK == 0)
        {
            return Ok(Cow::Borrowed(&base[i..end]));
        }
        if first == last {
            let off = i & PAGE_MASK;
            return Ok(Cow::Borrowed(
                &self.page_slice(first)[off..off + len as usize],
            ));
        }
        let mut out = Vec::with_capacity(len as usize);
        for p in first..=last {
            let page = self.page_slice(p);
            let lo = i.max(p << PAGE_SHIFT) - (p << PAGE_SHIFT);
            let hi = end.min((p + 1) << PAGE_SHIFT) - (p << PAGE_SHIFT);
            out.extend_from_slice(&page[lo..hi]);
        }
        Ok(Cow::Owned(out))
    }

    /// Copies `len` bytes from `src` to `dst` with the semantics of a
    /// forward byte-at-a-time loop — `dst[k] = src[k]` for `k = 0, 1, …`
    /// — which is what a string move does: a destination overlapping the
    /// source from above re-reads bytes already written and so
    /// replicates the leading `dst - src` bytes. Dirties the destination
    /// pages exactly as `len` one-byte writes would (one dirty-code
    /// notice per marked page rather than per byte).
    ///
    /// # Errors
    ///
    /// [`MemFault::NonExistent`] if either range extends beyond memory;
    /// nothing is written then.
    pub fn copy_forward(&mut self, src: u32, dst: u32, len: u32) -> Result<(), MemFault> {
        let s = self.check(src, len)?;
        let d = self.check(dst, len)?;
        if len == 0 {
            return Ok(());
        }
        self.note_write(dst, len);
        if self.base.is_none() {
            forward_copy(&mut self.bytes, s, d, len as usize);
            return Ok(());
        }
        // Forked: page by page, split at both ranges' page boundaries.
        // Pieces on distinct physical pages cannot overlap, and one on a
        // single page lives in one private slot, so a forward copy per
        // piece, in order, is the byte loop.
        let mut done = 0;
        while done < len as usize {
            let (s, d) = (s + done, d + done);
            let n = (len as usize - done)
                .min(PAGE - (s & PAGE_MASK))
                .min(PAGE - (d & PAGE_MASK));
            // Copy the destination page up first, so a source on the
            // same page reads the private copy.
            let to = self.private_page(d >> PAGE_SHIFT) + (d & PAGE_MASK);
            match self.page_words[s >> PAGE_SHIFT] & SLOT_MASK {
                0 => {
                    if let Some(base) = &self.base {
                        self.bytes[to..to + n].copy_from_slice(&base[s..s + n]);
                    }
                }
                slot => {
                    let from = (((slot - 1) as usize) << PAGE_SHIFT) + (s & PAGE_MASK);
                    forward_copy(&mut self.bytes, from, to, n);
                }
            }
            done += n;
        }
        Ok(())
    }

    /// Zero-fills the `len`-byte range at `pa`.
    ///
    /// # Errors
    ///
    /// [`MemFault::NonExistent`] if the range extends beyond memory.
    pub fn zero_range(&mut self, pa: u32, len: u32) -> Result<(), MemFault> {
        let i = self.check(pa, len)?;
        if len == 0 {
            return Ok(());
        }
        self.note_write(pa, len);
        if self.base.is_some() {
            self.store_forked(i, len as usize, |dst, _| dst.fill(0));
        } else {
            self.bytes[i..i + len as usize].fill(0);
        }
        Ok(())
    }
}

/// `buf[dst..dst+n] = buf[src..src+n]` as a forward byte loop: a plain
/// `memmove` unless the destination starts inside the source, where the
/// loop's re-reading of fresh bytes is the defined result.
fn forward_copy(buf: &mut [u8], src: usize, dst: usize, n: usize) {
    if dst <= src || dst >= src + n {
        buf.copy_within(src..src + n, dst);
    } else {
        for k in 0..n {
            buf[dst + k] = buf[src + k];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_rounds_to_pages() {
        assert_eq!(PhysMemory::new(1).size(), PAGE_BYTES);
        assert_eq!(PhysMemory::new(PAGE_BYTES + 1).pages(), 2);
        assert_eq!(PhysMemory::new(0).size(), 0);
    }

    #[test]
    fn little_endian_round_trip() {
        let mut m = PhysMemory::new(4096);
        m.write_u32(100, 0x0403_0201).unwrap();
        assert_eq!(m.read_u8(100).unwrap(), 0x01);
        assert_eq!(m.read_u8(103).unwrap(), 0x04);
        assert_eq!(m.read_u16(101).unwrap(), 0x0302);
        assert_eq!(m.read_u32(100).unwrap(), 0x0403_0201);
    }

    #[test]
    fn nonexistent_reference_faults() {
        let mut m = PhysMemory::new(512);
        assert!(matches!(
            m.read_u8(512),
            Err(MemFault::NonExistent { pa: 512 })
        ));
        assert!(m.read_u32(510).is_err()); // straddles the end
        assert!(m.write_u32(510, 0).is_err());
        assert!(m.read_u32(508).is_ok());
        // Wrap-around must not panic or succeed.
        assert!(m.read_u32(u32::MAX - 1).is_err());
    }

    #[test]
    fn code_page_write_tracking() {
        let mut m = PhysMemory::new(4 * PAGE_BYTES);
        m.note_code_page(1);
        // Writes to unmarked pages are not reported.
        m.write_u32(0, 7).unwrap();
        assert!(!m.has_dirty_code());
        // Any write flavor touching a marked page is.
        m.write_u8(PAGE_BYTES, 1).unwrap();
        assert!(m.has_dirty_code());
        assert_eq!(m.take_dirty_code_pages(), vec![1]);
        assert!(!m.has_dirty_code());
        // A straddling write reports both touched pages.
        m.note_code_page(2);
        m.write_u32(2 * PAGE_BYTES - 2, 0xffff_ffff).unwrap();
        assert_eq!(m.take_dirty_code_pages(), vec![1, 2]);
        // Clearing the mark stops reporting.
        m.clear_code_page(1);
        m.write_u16(PAGE_BYTES + 8, 3).unwrap();
        assert!(!m.has_dirty_code());
        m.write_slice(2 * PAGE_BYTES, &[1, 2, 3]).unwrap();
        m.zero_range(2 * PAGE_BYTES, 4).unwrap();
        assert_eq!(m.take_dirty_code_pages(), vec![2, 2]);
        m.clear_all_code_pages();
        m.write_u8(2 * PAGE_BYTES, 9).unwrap();
        assert!(!m.has_dirty_code());
    }

    #[test]
    fn equality_ignores_tracking_state() {
        let mut a = PhysMemory::new(PAGE_BYTES);
        let b = PhysMemory::new(PAGE_BYTES);
        a.note_code_page(0);
        a.write_u8(0, 0).unwrap(); // dirty notice, same contents
        assert_eq!(a, b);
        a.write_u8(0, 1).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn page_tail_spans_to_page_end() {
        let m = PhysMemory::new(2 * PAGE_BYTES);
        assert_eq!(m.page_tail(0).unwrap().len(), PAGE_BYTES as usize);
        assert_eq!(m.page_tail(10).unwrap().len(), (PAGE_BYTES - 10) as usize);
        assert_eq!(m.page_tail(2 * PAGE_BYTES - 1).unwrap().len(), 1);
        assert!(m.page_tail(2 * PAGE_BYTES).is_none());
    }

    #[test]
    fn slices() {
        let mut m = PhysMemory::new(512);
        m.write_slice(8, &[1, 2, 3, 4]).unwrap();
        assert_eq!(&*m.read_slice(8, 4).unwrap(), &[1, 2, 3, 4]);
        m.zero_range(8, 2).unwrap();
        assert_eq!(&*m.read_slice(8, 4).unwrap(), &[0, 0, 3, 4]);
        assert!(m.write_slice(510, &[0; 4]).is_err());
    }

    #[test]
    fn fork_shares_until_written() {
        let mut parent = PhysMemory::new(8 * PAGE_BYTES);
        parent.write_u32(0x10, 0xaaaa_bbbb).unwrap();
        parent.write_u32(3 * PAGE_BYTES, 0x1234_5678).unwrap();
        let mut child = parent.fork();
        assert!(parent.is_cow() && child.is_cow());
        assert_eq!(parent.resident_pages(), 0);
        assert_eq!(child.resident_pages(), 0);
        assert_eq!(child, parent);
        assert_eq!(child.read_u32(0x10).unwrap(), 0xaaaa_bbbb);
        assert_eq!(child.read_u32(3 * PAGE_BYTES).unwrap(), 0x1234_5678);

        // Child write diverges one page; parent view unchanged.
        child.write_u32(0x10, 0xdead_beef).unwrap();
        assert_eq!(child.resident_pages(), 1);
        assert_eq!(child.read_u32(0x10).unwrap(), 0xdead_beef);
        assert_eq!(child.read_u32(0x14).unwrap(), 0, "rest of page copied");
        assert_eq!(parent.read_u32(0x10).unwrap(), 0xaaaa_bbbb);
        assert_eq!(parent.resident_pages(), 0);

        // Parent write after fork does not leak into the child.
        parent.write_u32(3 * PAGE_BYTES, 7).unwrap();
        assert_eq!(child.read_u32(3 * PAGE_BYTES).unwrap(), 0x1234_5678);
        assert!(child.shared_fraction() > 0.8);
    }

    #[test]
    fn base_ref_count_tracks_fork_lifecycle() {
        let mut parent = PhysMemory::new(2 * PAGE_BYTES);
        assert_eq!(parent.base_ref_count(), None, "unforked has no base");
        let a = parent.fork();
        assert_eq!(parent.base_ref_count(), Some(2));
        assert_eq!(a.base_ref_count(), Some(2));
        let b = parent.fork();
        assert_eq!(parent.base_ref_count(), Some(3));
        drop(a);
        drop(b);
        assert_eq!(
            parent.base_ref_count(),
            Some(1),
            "reaped children release the base"
        );
    }

    #[test]
    fn fork_twice_reuses_frozen_base() {
        let mut parent = PhysMemory::new(4 * PAGE_BYTES);
        parent.write_u8(0, 42).unwrap();
        let a = parent.fork();
        let b = parent.fork();
        assert_eq!(a.read_u8(0).unwrap(), 42);
        assert_eq!(b.read_u8(0).unwrap(), 42);
        // Forking a diverged overlay re-freezes the merged contents.
        parent.write_u8(PAGE_BYTES, 9).unwrap();
        let c = parent.fork();
        assert_eq!(c.read_u8(0).unwrap(), 42);
        assert_eq!(c.read_u8(PAGE_BYTES).unwrap(), 9);
        assert_eq!(a.read_u8(PAGE_BYTES).unwrap(), 0, "older fork unaffected");
    }

    #[test]
    fn forked_reads_cross_residency_boundaries() {
        let mut parent = PhysMemory::new(4 * PAGE_BYTES);
        parent
            .write_slice(PAGE_BYTES - 2, &[0x11, 0x22, 0x33, 0x44])
            .unwrap();
        let mut child = parent.fork();
        // Make page 1 resident in the child, leave page 0 shared.
        child.write_u8(PAGE_BYTES + 100, 1).unwrap();
        // A straddling read mixes base (page 0) and overlay (page 1).
        assert_eq!(child.read_u32(PAGE_BYTES - 2).unwrap(), 0x4433_2211);
        assert_eq!(child.read_u16(PAGE_BYTES - 1).unwrap(), 0x3322);
        let cow = child.read_slice(PAGE_BYTES - 2, 4).unwrap();
        assert_eq!(&*cow, &[0x11, 0x22, 0x33, 0x44]);
        assert!(
            matches!(cow, std::borrow::Cow::Owned(_)),
            "mixed range copies"
        );
        // A straddling write materializes both pages atomically.
        child.write_u32(2 * PAGE_BYTES - 2, 0xffff_ffff).unwrap();
        assert_eq!(child.read_u32(2 * PAGE_BYTES - 2).unwrap(), 0xffff_ffff);
        assert_eq!(parent.read_u32(2 * PAGE_BYTES - 2).unwrap(), 0);
    }

    #[test]
    fn page_view_matches_effective_contents() {
        let mut parent = PhysMemory::new(2 * PAGE_BYTES);
        parent.write_u8(5, 7).unwrap();
        let mut child = parent.fork();
        assert_eq!(child.page(0).unwrap()[5], 7, "shared page via base");
        child.write_u8(5, 8).unwrap();
        assert_eq!(child.page(0).unwrap()[5], 8, "resident page via overlay");
        assert_eq!(parent.page(0).unwrap()[5], 7);
        assert!(child.page(2).is_none());
        // page_tail picks the right source per page.
        assert_eq!(child.page_tail(5).unwrap()[0], 8);
        assert_eq!(parent.page_tail(5).unwrap()[0], 7);
    }

    #[test]
    fn views_count_distinct_pages_and_drain() {
        let mut m = PhysMemory::new(4 * PAGE_BYTES);
        m.write_u8(0, 1).unwrap(); // page 0
        m.write_u8(4, 2).unwrap(); // page 0 again — still one page
        m.write_u16(PAGE_BYTES - 1, 0xabcd).unwrap(); // straddles pages 0-1
        m.write_u32(3 * PAGE_BYTES, 9).unwrap(); // page 3
        assert_eq!(m.dirty_pages(), vec![0, 1, 3]);
        assert_eq!(m.dirty_page_count(), 3);
        assert_eq!(m.touched_page_count(), 3);
        assert_eq!(m.dirty_page_events(), 3);
        // The chain's drain empties its view only.
        assert_eq!(m.take_dirty_pages(), vec![0, 1, 3]);
        assert_eq!(m.dirty_page_count(), 0);
        assert_eq!(m.touched_pages(), vec![0, 1, 3]);
        assert_eq!(m.dirty_page_events(), 3);
        // Re-writing a page re-enters the drained view; the others
        // already hold it.
        m.write_u8(0, 3).unwrap();
        assert_eq!(m.dirty_pages(), vec![0]);
        assert_eq!(m.dirty_page_events(), 3);
        // Migration's view still holds everything written so far.
        assert_eq!(m.take_migrate_pages(), vec![0, 1, 3]);
        assert!(m.take_migrate_pages().is_empty());
        assert_eq!(m.dirty_pages(), vec![0]);
        // The profiler's reset: its view empties, its event count does
        // not, and the next first write counts again.
        m.clear_touched_pages();
        assert_eq!(m.touched_page_count(), 0);
        m.write_u8(PAGE_BYTES, 1).unwrap();
        assert_eq!(m.touched_pages(), vec![1]);
        assert_eq!(m.dirty_page_events(), 4);
        assert_eq!(m.dirty_pages(), vec![0, 1]);
        assert_eq!(m.take_migrate_pages(), vec![1]);
    }

    #[test]
    fn views_cover_slice_and_zero_paths() {
        let mut m = PhysMemory::new(4 * PAGE_BYTES);
        m.write_slice(PAGE_BYTES - 4, &[1; 8]).unwrap(); // pages 0-1
        m.zero_range(2 * PAGE_BYTES, PAGE_BYTES).unwrap(); // page 2
        m.write_slice(0, &[]).unwrap(); // empty: no pages
        m.zero_range(0, 0).unwrap();
        assert_eq!(m.dirty_pages(), vec![0, 1, 2]);
        m.copy_forward(0, 3 * PAGE_BYTES, 4).unwrap(); // page 3
        assert_eq!(m.take_dirty_pages(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn views_match_fork_residency_oracle() {
        // The CoW overlay materializes a page on — and only on — its
        // first write, independently of the views: the two mechanisms
        // must name exactly the same pages.
        let mut m = PhysMemory::new(8 * PAGE_BYTES);
        let _child = m.fork();
        m.write_u8(PAGE_BYTES, 1).unwrap();
        m.write_u32(5 * PAGE_BYTES + 12, 0).unwrap(); // same-value write counts
        m.write_slice(7 * PAGE_BYTES - 2, &[1, 2, 3]).unwrap();
        assert_eq!(m.dirty_pages(), m.resident_page_numbers());
        assert_eq!(m.dirty_pages(), vec![1, 5, 6, 7]);
    }

    #[test]
    fn fork_keeps_the_parents_views_and_starts_the_childs_empty() {
        let mut m = PhysMemory::new(2 * PAGE_BYTES);
        m.write_u8(0, 1).unwrap();
        let mut child = m.fork();
        assert_eq!(child.dirty_page_count(), 0);
        assert_eq!(child.touched_page_count(), 0);
        child.write_u8(PAGE_BYTES, 1).unwrap();
        assert_eq!(child.dirty_pages(), vec![1]);
        // The parent's views survive the freeze.
        assert_eq!(m.dirty_pages(), vec![0]);
        assert_eq!(m.touched_pages(), vec![0]);
        assert_eq!(m.take_migrate_pages(), vec![0]);
    }
}
