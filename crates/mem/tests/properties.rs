//! Property-based tests on the memory subsystem.

use proptest::prelude::*;
use std::collections::BTreeSet;
use vax_arch::{AccessMode, CostModel, Protection, Pte, VirtAddr};
use vax_mem::{MemFault, Mmu, PhysMemory};

const SPT_PA: u32 = 0x1000;

/// Builds a machine-less MMU over `n` identity-mapped S pages with the
/// given protections.
fn setup(prots: &[(Protection, bool, bool)]) -> (PhysMemory, Mmu) {
    let mut mem = PhysMemory::new(512 * 1024);
    let mut mmu = Mmu::new();
    for (i, (p, v, m)) in prots.iter().enumerate() {
        // Map S page i to PFN 64+i so data never collides with the SPT.
        let pte = Pte::build(64 + i as u32, *p, *v, *m);
        mem.write_u32(SPT_PA + 4 * i as u32, pte.raw()).unwrap();
    }
    mmu.set_sbr(SPT_PA);
    mmu.set_slr(prots.len() as u32);
    mmu.set_mapen(true);
    (mem, mmu)
}

fn arb_mode() -> impl Strategy<Value = AccessMode> {
    (0u32..4).prop_map(AccessMode::from_bits)
}

fn arb_prot() -> impl Strategy<Value = Protection> {
    (0usize..Protection::ALL.len()).prop_map(|i| Protection::ALL[i])
}

proptest! {
    /// The walker's outcome agrees with the protection table exactly:
    /// AV iff protection denies, TNV iff protection allows but invalid.
    #[test]
    fn translate_agrees_with_protection_table(
        p in arb_prot(),
        valid in any::<bool>(),
        mode in arb_mode(),
        write in any::<bool>(),
        offset in 0u32..512,
    ) {
        let (mut mem, mut mmu) = setup(&[(p, valid, true)]);
        let costs = CostModel::default();
        let va = VirtAddr::new(0x8000_0000 + offset);
        let r = mmu.translate(&mut mem, va, mode, write, &costs);
        let allowed = p.allows(mode, write);
        match (allowed, valid) {
            (false, _) => prop_assert!(
                matches!(r, Err(MemFault::AccessViolation { length: false, .. })),
                "{p} {mode} w={write}: {r:?}"
            ),
            (true, false) => prop_assert!(
                matches!(r, Err(MemFault::TranslationNotValid { .. })),
                "{p} {mode}: {r:?}"
            ),
            (true, true) => {
                let t = r.unwrap();
                prop_assert_eq!(t.pa, (64 << 9) + offset);
            }
        }
    }

    /// A TLB hit returns the same translation as a cold walk.
    #[test]
    fn tlb_is_transparent(
        pages in proptest::collection::vec((arb_prot(), any::<bool>()), 1..16),
        accesses in proptest::collection::vec((0usize..16, 0u32..512, any::<bool>()), 1..40),
        mode in arb_mode(),
    ) {
        let prots: Vec<(Protection, bool, bool)> =
            pages.iter().map(|(p, v)| (*p, *v, true)).collect();
        let (mut mem, mut mmu) = setup(&prots);
        let (mut mem2, mut mmu2) = setup(&prots);
        let costs = CostModel::default();
        for (page, off, write) in accesses {
            let page = page % prots.len();
            let va = VirtAddr::new(0x8000_0000 + (page as u32) * 512 + off);
            let warm = mmu.translate(&mut mem, va, mode, write, &costs);
            // The cold MMU flushes before every access.
            mmu2.tlb_mut().invalidate_all();
            let cold = mmu2.translate(&mut mem2, va, mode, write, &costs);
            match (warm, cold) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a.pa, b.pa),
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (a, b) => prop_assert!(false, "warm {a:?} vs cold {b:?}"),
            }
        }
    }

    /// Virtual read-back: what you write is what you read, including
    /// page-crossing unaligned accesses.
    #[test]
    fn virt_write_read_round_trip(
        offset in 0u32..1020,
        value in any::<u32>(),
        len in prop_oneof![Just(1u32), Just(2), Just(4)],
    ) {
        let (mut mem, mut mmu) = setup(&[
            (Protection::Uw, true, true),
            (Protection::Uw, true, true),
        ]);
        let costs = CostModel::default();
        let va = VirtAddr::new(0x8000_0000 + offset);
        mmu.write_virt(&mut mem, va, value, len, AccessMode::User, &costs)
            .unwrap();
        let (got, _) = mmu
            .read_virt(&mut mem, va, len, AccessMode::User, &costs)
            .unwrap();
        let mask = match len {
            1 => 0xff,
            2 => 0xffff,
            _ => u32::MAX,
        };
        prop_assert_eq!(got, value & mask);
    }

    /// PROBE never mutates state: no modify bits set, and a following
    /// translate behaves as if the probe never happened.
    #[test]
    fn probe_is_pure(
        p in arb_prot(),
        valid in any::<bool>(),
        mode in arb_mode(),
        write in any::<bool>(),
    ) {
        let (mem_orig, _) = setup(&[(p, valid, false)]);
        let (mem, mut mmu) = setup(&[(p, valid, false)]);
        let costs = CostModel::default();
        let va = VirtAddr::new(0x8000_0000);
        let _ = mmu.probe(&mem, va, mode, write, &costs);
        prop_assert_eq!(
            mem.read_u32(SPT_PA).unwrap(),
            mem_orig.read_u32(SPT_PA).unwrap(),
            "probe must not touch the PTE"
        );
    }

    /// Physical memory round trip with mixed widths.
    #[test]
    fn phys_round_trip(pa in 0u32..4000, v in any::<u32>()) {
        let mut mem = PhysMemory::new(8192);
        mem.write_u32(pa, v).unwrap();
        prop_assert_eq!(mem.read_u32(pa).unwrap(), v);
        prop_assert_eq!(mem.read_u16(pa).unwrap(), v as u16);
        prop_assert_eq!(mem.read_u8(pa).unwrap(), v as u8);
    }
}

// ---- model-based test of copy-on-write `PhysMemory` ----

/// Pages in the memory under test: small, so random addresses collide,
/// straddle page boundaries and run off the end often.
const MODEL_PAGES: u32 = 6;
const MODEL_BYTES: u32 = MODEL_PAGES * 512;
/// Most fork relatives alive at once.
const MAX_RELATIVES: usize = 5;

/// One step against a relative. `who` picks a live relative modulo
/// their number at the time the step runs.
#[derive(Debug, Clone)]
enum MemOp {
    Read {
        who: usize,
        width: u32,
        pa: u32,
    },
    Write {
        who: usize,
        width: u32,
        pa: u32,
        value: u32,
    },
    WriteSlice {
        who: usize,
        pa: u32,
        data: Vec<u8>,
    },
    ZeroRange {
        who: usize,
        pa: u32,
        len: u32,
    },
    ReadSlice {
        who: usize,
        pa: u32,
        len: u32,
    },
    CopyForward {
        who: usize,
        src: u32,
        dst: u32,
        len: u32,
    },
    PageTail {
        who: usize,
        pa: u32,
    },
    Fork {
        who: usize,
    },
    Drop {
        who: usize,
    },
    MarkCode {
        who: usize,
        pfn: u32,
    },
    ClearCode {
        who: usize,
        pfn: u32,
    },
}

/// Addresses biased towards page ends and the end of memory, with a
/// few far out of range.
fn arb_pa() -> impl Strategy<Value = u32> {
    prop_oneof![
        3 => 0u32..MODEL_BYTES + 8,
        3 => (0u32..MODEL_PAGES + 1, 505u32..512).prop_map(|(p, o)| p * 512 + o),
        1 => (0u32..MODEL_PAGES + 1).prop_map(|p| p * 512),
        1 => prop_oneof![Just(u32::MAX), Just(u32::MAX - 2), Just(MODEL_BYTES + 4096)],
    ]
}

fn arb_width() -> impl Strategy<Value = u32> {
    prop_oneof![Just(1u32), Just(2), Just(4)]
}

fn arb_mem_op() -> impl Strategy<Value = MemOp> {
    let who = 0usize..8;
    prop_oneof![
        4 => (who.clone(), arb_width(), arb_pa())
            .prop_map(|(who, width, pa)| MemOp::Read { who, width, pa }),
        6 => (who.clone(), arb_width(), arb_pa(), any::<u32>())
            .prop_map(|(who, width, pa, value)| MemOp::Write { who, width, pa, value }),
        2 => (who.clone(), arb_pa(), proptest::collection::vec(any::<u8>(), 0..1100))
            .prop_map(|(who, pa, data)| MemOp::WriteSlice { who, pa, data }),
        1 => (who.clone(), arb_pa(), 0u32..1100)
            .prop_map(|(who, pa, len)| MemOp::ZeroRange { who, pa, len }),
        2 => (who.clone(), arb_pa(), 0u32..1100)
            .prop_map(|(who, pa, len)| MemOp::ReadSlice { who, pa, len }),
        // Destinations anywhere, or overlapping the source from above
        // or below.
        2 => (who.clone(), arb_pa(), arb_pa(), 0u32..1100, 0u8..3, 1u32..600)
            .prop_map(|(who, src, pa, len, shape, d)| {
                let dst = match shape {
                    0 => pa,
                    1 => src.wrapping_add(d),
                    _ => src.wrapping_sub(d),
                };
                MemOp::CopyForward { who, src, dst, len }
            }),
        1 => (who.clone(), arb_pa()).prop_map(|(who, pa)| MemOp::PageTail { who, pa }),
        2 => who.clone().prop_map(|who| MemOp::Fork { who }),
        1 => who.clone().prop_map(|who| MemOp::Drop { who }),
        1 => (who.clone(), 0u32..MODEL_PAGES).prop_map(|(who, pfn)| MemOp::MarkCode { who, pfn }),
        1 => (who, 0u32..MODEL_PAGES).prop_map(|(who, pfn)| MemOp::ClearCode { who, pfn }),
    ]
}

/// A fork relative and its flat model.
struct Relative {
    mem: PhysMemory,
    /// Effective contents.
    model: Vec<u8>,
    /// Pages written since this relative's last fork; `None` while it
    /// has never been forked (an unforked memory has no private pages).
    written: Option<BTreeSet<u32>>,
    /// Pages carrying a code mark.
    code: BTreeSet<u32>,
}

impl Relative {
    /// `[pa, pa+len)` if it lies inside memory.
    fn range(pa: u32, len: u32) -> Option<std::ops::Range<usize>> {
        let end = u64::from(pa) + u64::from(len);
        (end <= u64::from(MODEL_BYTES)).then(|| pa as usize..end as usize)
    }

    /// Applies a write of `data` at `pa` to the model; returns the
    /// dirty-code notices the memory must report for it.
    fn model_write(&mut self, pa: u32, data: &[u8]) -> Vec<u32> {
        let start = pa as usize;
        self.model[start..start + data.len()].copy_from_slice(data);
        if data.is_empty() {
            return Vec::new();
        }
        let pages = pa >> 9..=(pa + data.len() as u32 - 1) >> 9;
        if let Some(w) = &mut self.written {
            w.extend(pages.clone());
        }
        pages.filter(|p| self.code.contains(p)).collect()
    }

    fn check(&self) {
        for p in 0..MODEL_PAGES {
            let at = p as usize * 512;
            assert_eq!(
                self.mem.page(p).expect("in range"),
                &self.model[at..at + 512],
                "page {p}"
            );
        }
        let written: Vec<u32> = self.written.iter().flatten().copied().collect();
        assert_eq!(self.mem.resident_page_numbers(), written);
        assert_eq!(self.mem.resident_pages() as usize, written.len());
        assert_eq!(self.mem.is_cow(), self.written.is_some());
    }
}

fn le_bytes(value: u32, width: u32) -> Vec<u8> {
    value.to_le_bytes()[..width as usize].to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Random operation sequences over a family of fork relatives
    /// agree with one flat `Vec<u8>` model per relative: contents, every
    /// read flavour, faults, private-page sets, equality, and
    /// dirty-code notices.
    #[test]
    fn cow_memory_matches_flat_models(ops in proptest::collection::vec(arb_mem_op(), 1..150)) {
        let mut rels = vec![Relative {
            mem: PhysMemory::new(MODEL_BYTES),
            model: vec![0; MODEL_BYTES as usize],
            written: None,
            code: BTreeSet::new(),
        }];
        for op in ops {
            let n = rels.len();
            match op {
                MemOp::Read { who, width, pa } => {
                    let r = &rels[who % n];
                    let got = match width {
                        1 => r.mem.read_u8(pa).map(u32::from),
                        2 => r.mem.read_u16(pa).map(u32::from),
                        _ => r.mem.read_u32(pa),
                    };
                    match Relative::range(pa, width) {
                        Some(range) => {
                            let mut want = [0u8; 4];
                            want[..width as usize].copy_from_slice(&r.model[range]);
                            prop_assert_eq!(got, Ok(u32::from_le_bytes(want)));
                        }
                        None => prop_assert_eq!(got, Err(MemFault::NonExistent { pa })),
                    }
                }
                MemOp::Write { who, width, pa, value } => {
                    let r = &mut rels[who % n];
                    let got = match width {
                        1 => r.mem.write_u8(pa, value as u8),
                        2 => r.mem.write_u16(pa, value as u16),
                        _ => r.mem.write_u32(pa, value),
                    };
                    let notices = match Relative::range(pa, width) {
                        Some(_) => {
                            prop_assert_eq!(got, Ok(()));
                            r.model_write(pa, &le_bytes(value, width))
                        }
                        None => {
                            prop_assert_eq!(got, Err(MemFault::NonExistent { pa }));
                            Vec::new()
                        }
                    };
                    prop_assert_eq!(r.mem.take_dirty_code_pages(), notices);
                }
                MemOp::WriteSlice { who, pa, data } => {
                    let r = &mut rels[who % n];
                    let got = r.mem.write_slice(pa, &data);
                    let notices = match Relative::range(pa, data.len() as u32) {
                        Some(_) => {
                            prop_assert_eq!(got, Ok(()));
                            r.model_write(pa, &data)
                        }
                        None => {
                            prop_assert_eq!(got, Err(MemFault::NonExistent { pa }));
                            Vec::new()
                        }
                    };
                    prop_assert_eq!(r.mem.take_dirty_code_pages(), notices);
                }
                MemOp::ZeroRange { who, pa, len } => {
                    let r = &mut rels[who % n];
                    let got = r.mem.zero_range(pa, len);
                    let notices = match Relative::range(pa, len) {
                        Some(_) => {
                            prop_assert_eq!(got, Ok(()));
                            r.model_write(pa, &vec![0; len as usize])
                        }
                        None => {
                            prop_assert_eq!(got, Err(MemFault::NonExistent { pa }));
                            Vec::new()
                        }
                    };
                    prop_assert_eq!(r.mem.take_dirty_code_pages(), notices);
                }
                MemOp::ReadSlice { who, pa, len } => {
                    let r = &rels[who % n];
                    let got = r.mem.read_slice(pa, len).map(|c| c.into_owned());
                    match Relative::range(pa, len) {
                        Some(range) => prop_assert_eq!(got, Ok(r.model[range].to_vec())),
                        None => prop_assert_eq!(got, Err(MemFault::NonExistent { pa })),
                    }
                }
                MemOp::CopyForward { who, src, dst, len } => {
                    let r = &mut rels[who % n];
                    let got = r.mem.copy_forward(src, dst, len);
                    let notices = match (Relative::range(src, len), Relative::range(dst, len)) {
                        (Some(from), Some(_)) => {
                            prop_assert_eq!(got, Ok(()));
                            // The byte loop: later bytes may re-read
                            // earlier ones when dst overlaps src from
                            // above.
                            let mut moved = r.model.clone();
                            for (k, i) in from.enumerate() {
                                moved[dst as usize + k] = moved[i];
                            }
                            let data = moved[dst as usize..(dst + len) as usize].to_vec();
                            r.model_write(dst, &data)
                        }
                        (None, _) => {
                            prop_assert_eq!(got, Err(MemFault::NonExistent { pa: src }));
                            Vec::new()
                        }
                        (_, None) => {
                            prop_assert_eq!(got, Err(MemFault::NonExistent { pa: dst }));
                            Vec::new()
                        }
                    };
                    prop_assert_eq!(r.mem.take_dirty_code_pages(), notices);
                }
                MemOp::PageTail { who, pa } => {
                    let r = &rels[who % n];
                    let want = (pa < MODEL_BYTES).then(|| {
                        let end = ((pa >> 9) + 1) as usize * 512;
                        &r.model[pa as usize..end]
                    });
                    prop_assert_eq!(r.mem.page_tail(pa), want);
                }
                MemOp::Fork { who } => {
                    if n < MAX_RELATIVES {
                        let parent = &mut rels[who % n];
                        let mem = parent.mem.fork();
                        parent.written = Some(BTreeSet::new());
                        let child = Relative {
                            mem,
                            model: parent.model.clone(),
                            written: Some(BTreeSet::new()),
                            code: BTreeSet::new(),
                        };
                        rels.push(child);
                    }
                }
                MemOp::Drop { who } => {
                    if n > 1 {
                        rels.remove(who % n);
                    }
                }
                MemOp::MarkCode { who, pfn } => {
                    let r = &mut rels[who % n];
                    r.mem.note_code_page(pfn);
                    r.code.insert(pfn);
                }
                MemOp::ClearCode { who, pfn } => {
                    let r = &mut rels[who % n];
                    r.mem.clear_code_page(pfn);
                    r.code.remove(&pfn);
                }
            }
            for r in &rels {
                r.check();
            }
            for a in &rels {
                for b in &rels {
                    prop_assert_eq!(a.mem == b.mem, a.model == b.model);
                }
            }
        }
    }
}
