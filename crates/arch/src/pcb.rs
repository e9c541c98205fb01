//! The process control block (PCB): the hardware context LDPCTX loads
//! and SVPCTX stores, a longword each at fixed offsets from `PCBB`.

/// A process's hardware context in PCB order: KSP, ESP, SSP, USP at
/// 0–12, R0–R13 at 16–68, PC at 72, PSL at 76, then P0BR, P0LR, P1BR
/// and P1LR at 80–92.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Pcb {
    /// The stack pointers, indexed by [`AccessMode`](crate::AccessMode).
    pub sp: [u32; 4],
    /// R0–R13.
    pub regs: [u32; 14],
    /// The PC the REI completing LDPCTX returns to.
    pub pc: u32,
    /// The PSL that REI loads.
    pub psl: u32,
    /// P0 page-table base.
    pub p0br: u32,
    /// P0 length.
    pub p0lr: u32,
    /// P1 page-table base.
    pub p1br: u32,
    /// P1 length.
    pub p1lr: u32,
}

impl Pcb {
    /// Bytes a PCB occupies.
    pub const BYTES: u32 = 96;

    /// Reads a PCB with `read(offset)`, in address order; the first
    /// error `read` returns stops it and is returned.
    pub fn load<E>(mut read: impl FnMut(u32) -> Result<u32, E>) -> Result<Pcb, E> {
        let mut w = [0u32; 24];
        for (off, v) in (0..Self::BYTES).step_by(4).zip(&mut w) {
            *v = read(off)?;
        }
        let [k, e, s, u, regs @ .., pc, psl, p0br, p0lr, p1br, p1lr] = w;
        let sp = [k, e, s, u];
        Ok(Pcb {
            sp,
            regs,
            pc,
            psl,
            p0br,
            p0lr,
            p1br,
            p1lr,
        })
    }

    /// Writes what SVPCTX saves with `write(offset, value)`: the PC and
    /// PSL it pops, then the stack pointers and R0–R13 (the mapping
    /// registers are only loaded); the first error `write` returns stops
    /// it and is returned.
    pub fn save<E>(&self, mut write: impl FnMut(u32, u32) -> Result<(), E>) -> Result<(), E> {
        write(72, self.pc)?;
        write(76, self.psl)?;
        for (off, v) in (0..).step_by(4).zip(self.sp.iter().chain(&self.regs)) {
            write(off, *v)?;
        }
        Ok(())
    }

    /// The whole PCB as it lies in memory, as a loader places it.
    pub fn to_bytes(&self) -> [u8; Self::BYTES as usize] {
        let tail = [
            self.pc, self.psl, self.p0br, self.p0lr, self.p1br, self.p1lr,
        ];
        let words = self.sp.iter().chain(&self.regs).chain(&tail);
        let mut bytes = [0u8; Self::BYTES as usize];
        for (chunk, v) in bytes.chunks_exact_mut(4).zip(words) {
            chunk.copy_from_slice(&v.to_le_bytes());
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AccessMode;

    fn numbered() -> Pcb {
        let mut pcb = Pcb::default();
        let mut n = 0;
        let mut next = || {
            n += 1;
            n
        };
        pcb.sp = [next(), next(), next(), next()];
        for r in &mut pcb.regs {
            *r = next();
        }
        pcb.pc = next();
        pcb.psl = next();
        pcb.p0br = next();
        pcb.p0lr = next();
        pcb.p1br = next();
        pcb.p1lr = next();
        pcb
    }

    #[test]
    fn offsets_follow_the_architected_layout() {
        let pcb = numbered();
        let bytes = pcb.to_bytes();
        let at = |off: usize| u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
        assert_eq!(at(0), pcb.sp[AccessMode::Kernel as usize]);
        assert_eq!(at(12), pcb.sp[AccessMode::User as usize]);
        assert_eq!(at(16), pcb.regs[0]);
        assert_eq!(at(68), pcb.regs[13]);
        assert_eq!(at(72), pcb.pc);
        assert_eq!(at(76), pcb.psl);
        assert_eq!(at(80), pcb.p0br);
        assert_eq!(at(92), pcb.p1lr);
        // Word n (1-based) at offset 4(n-1).
        for (i, chunk) in bytes.chunks_exact(4).enumerate() {
            assert_eq!(u32::from_le_bytes(chunk.try_into().unwrap()), i as u32 + 1);
        }
    }

    #[test]
    fn load_reads_in_address_order_and_stops_at_the_first_failure() {
        let mut seen = Vec::new();
        let r = Pcb::load(|off| {
            seen.push(off);
            if off == 20 {
                Err(off)
            } else {
                Ok(off)
            }
        });
        assert_eq!(r, Err(20));
        assert_eq!(seen, [0, 4, 8, 12, 16, 20]);
    }

    #[test]
    fn save_writes_pc_and_psl_first_and_not_the_mapping_registers() {
        let pcb = numbered();
        let mut mem = [0u32; 24];
        let mut order = Vec::new();
        pcb.save(|off, v| {
            order.push(off);
            mem[off as usize / 4] = v;
            Ok::<(), ()>(())
        })
        .unwrap();
        assert_eq!(&order[..3], &[72, 76, 0]);
        assert_eq!(order.len(), 20);
        let mut expect = pcb;
        (expect.p0br, expect.p0lr, expect.p1br, expect.p1lr) = (0, 0, 0, 0);
        assert_eq!(
            Pcb::load(|off| Ok::<_, ()>(mem[off as usize / 4])),
            Ok(expect)
        );
    }
}
