//! The physical-address-indexed slot table behind the decode cache and
//! the translation cache.
//!
//! Both caches are direct-mapped on the low bits of a physical address:
//! the entry keyed by `pa` lives in slot `pa & (SLOTS - 1)` and evicts
//! whatever held it. The table keeps its slots in segments of
//! [`SEG_SLOTS`] consecutive slots and allocates a segment on the first
//! insert into it. A fresh machine — every fork, restore and new monitor
//! — therefore writes only a table of empty segment pointers, and a
//! machine holds storage only for the slots its code maps to. Lookups
//! never allocate: a lookup in an unallocated segment is a miss.
//!
//! An entry dies when a store changes its page's bytes
//! ([`SlotTable::invalidate_page`]) or when an event changes what every
//! entry means ([`SlotTable::invalidate_all`], which drops the storage).
//! Mapping events never reach the table: it is keyed by physical
//! address.

use vax_arch::{PAGE_BYTES, PAGE_SHIFT};

/// Slots per lazily allocated segment. At 64, a decode-cache segment is
/// ~14 KiB, so a child that runs a few dozen instructions allocates and
/// writes a few segments. A page of slots per segment (512) makes the
/// first miss write ~112 KiB of decode entries and measured slower than
/// allocating the whole cache up front.
pub(crate) const SEG_SLOTS: usize = 64;

/// One occupied slot: the entry's key and the cache's payload.
struct Slot<T> {
    pa: u32,
    val: T,
}

type Segment<T> = [Option<Slot<T>>; SEG_SLOTS];

/// A direct-mapped table of `SEGS * SEG_SLOTS` slots keyed by physical
/// address, allocated a segment at a time.
pub(crate) struct SlotTable<T, const SEGS: usize> {
    /// Fixed-size boxed array: the power-of-two mask in [`Self::index`]
    /// proves every segment index in bounds, so lookups compile without
    /// bounds checks.
    segs: Box<[Option<Box<Segment<T>>>; SEGS]>,
    /// Segments allocated.
    allocated: usize,
}

impl<T, const SEGS: usize> SlotTable<T, SEGS> {
    /// Slot count: a power of two and at least one page of slots, so a
    /// page's entries occupy whole, consecutive segments.
    const SLOTS: usize = SEGS * SEG_SLOTS;

    pub fn new() -> Self {
        const {
            assert!(SEGS.is_power_of_two() && SEGS * SEG_SLOTS >= PAGE_BYTES as usize);
        }
        SlotTable {
            segs: empty(),
            allocated: 0,
        }
    }

    /// The segment and the slot within it that `pa` maps to.
    #[inline]
    fn index(pa: u32) -> (usize, usize) {
        let slot = pa as usize & (Self::SLOTS - 1);
        (slot / SEG_SLOTS, slot % SEG_SLOTS)
    }

    /// The entry keyed by `pa`.
    #[inline]
    pub fn get(&self, pa: u32) -> Option<&T> {
        let (s, i) = Self::index(pa);
        match self.segs[s].as_deref()?[i] {
            Some(ref e) if e.pa == pa => Some(&e.val),
            _ => None,
        }
    }

    /// The entry keyed by `pa`, mutably.
    #[inline]
    pub fn get_mut(&mut self, pa: u32) -> Option<&mut T> {
        let (s, i) = Self::index(pa);
        match self.segs[s].as_deref_mut()?[i] {
            Some(ref mut e) if e.pa == pa => Some(&mut e.val),
            _ => None,
        }
    }

    /// Stores `val` under `pa`, evicting whatever held its slot.
    /// Allocates the slot's segment on first use.
    pub fn insert(&mut self, pa: u32, val: T) {
        let (s, i) = Self::index(pa);
        let seg = self.segs[s].get_or_insert_with(|| {
            self.allocated += 1;
            empty()
        });
        seg[i] = Some(Slot { pa, val });
    }

    /// Drops every entry and the storage that held it.
    pub fn invalidate_all(&mut self) {
        self.segs.fill_with(|| None);
        self.allocated = 0;
    }

    /// Drops every entry keyed by a PA in physical page `pfn`. Those
    /// entries can only sit in the `PAGE_BYTES` consecutive slots the
    /// page maps to, so only the allocated segments among them are
    /// scanned.
    pub fn invalidate_page(&mut self, pfn: u32) {
        let (first, _) = Self::index(pfn << PAGE_SHIFT);
        let page_segs = PAGE_BYTES as usize / SEG_SLOTS;
        for seg in self.segs[first..first + page_segs].iter_mut().flatten() {
            for slot in seg.iter_mut() {
                if slot.as_ref().is_some_and(|e| e.pa >> PAGE_SHIFT == pfn) {
                    *slot = None;
                }
            }
        }
    }

    /// Bytes of slot storage allocated: the segments, not the fixed
    /// table of segment pointers.
    pub fn resident_bytes(&self) -> usize {
        self.allocated * std::mem::size_of::<Segment<T>>()
    }
}

/// A boxed array of `N` empty slots, written in place on the heap:
/// `Box::new` of an array literal builds it on the stack and copies it.
fn empty<S, const N: usize>() -> Box<[Option<S>; N]> {
    (0..N)
        .map(|_| None)
        .collect::<Box<[_]>>()
        .try_into()
        .unwrap_or_else(|_| unreachable!())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 8192 slots: sixteen pages, the decode cache's geometry.
    type Table = SlotTable<u32, 128>;

    const PAGE: u32 = PAGE_BYTES;

    #[test]
    fn lookups_on_an_empty_table_allocate_nothing() {
        let mut t = Table::new();
        for pa in [0, 0x1000, 0x7fff_fffc, u32::MAX] {
            assert!(t.get(pa).is_none());
            assert!(t.get_mut(pa).is_none());
        }
        t.invalidate_page(8);
        t.invalidate_all();
        assert_eq!(t.resident_bytes(), 0);
        t.insert(0x1000, 7);
        assert_eq!(t.get(0x1000), Some(&7));
        assert_eq!(t.resident_bytes(), std::mem::size_of::<Segment<u32>>());
    }

    #[test]
    fn page_invalidation_clears_only_that_page() {
        let mut t = Table::new();
        let p = 8;
        let in_page = p * PAGE + 0x10;
        let next_page = (p + 1) * PAGE + 0x10;
        // Sixteen pages on, a PA maps to the same slots as page `p`.
        let aliasing = (p + 16) * PAGE + 0x20;
        assert_eq!(Table::index(aliasing), Table::index(p * PAGE + 0x20));
        t.insert(in_page, 1);
        t.insert(next_page, 2);
        t.insert(aliasing, 3);
        t.invalidate_page(p);
        assert!(t.get(in_page).is_none());
        assert_eq!(t.get(next_page), Some(&2));
        assert_eq!(t.get(aliasing), Some(&3));
        // Invalidating the aliasing page itself does clear it.
        t.invalidate_page(p + 16);
        assert!(t.get(aliasing).is_none());
        assert_eq!(t.get(next_page), Some(&2));
    }

    #[test]
    fn slot_aliasing_evicts_and_misses() {
        let mut t = Table::new();
        t.insert(0x1000, 1);
        assert!(t.get(0x1000 + Table::SLOTS as u32).is_none());
        t.insert(0x1000 + Table::SLOTS as u32, 2);
        assert!(t.get(0x1000).is_none());
        assert_eq!(t.get(0x1000 + Table::SLOTS as u32), Some(&2));
    }

    #[test]
    fn invalidate_all_drops_every_entry_and_segment() {
        let mut t = Table::new();
        let pas = [0x1000, 0x3000, 0x1000 + PAGE * 16 + 4, 0x7fff_fffc];
        for (v, &pa) in pas.iter().enumerate() {
            t.insert(pa, v as u32);
        }
        assert!(t.resident_bytes() > 0);
        t.invalidate_all();
        for pa in pas {
            assert!(t.get(pa).is_none());
            assert!(t.get_mut(pa).is_none());
        }
        assert_eq!(t.resident_bytes(), 0);
        // The table refills from empty.
        t.insert(0x1000, 9);
        assert_eq!(t.get(0x1000), Some(&9));
        assert_eq!(t.resident_bytes(), std::mem::size_of::<Segment<u32>>());
    }
}
