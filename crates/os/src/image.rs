//! Builds a bootable guest image: kernel, user program, SCB, page
//! tables, and PCBs — everything a real boot loader would place in
//! memory before starting the processor.

use crate::kernel::{kernel_source, Flavor, OsConfig};
use crate::layout::{self as l, kvar};
use crate::workload::user_source;
use std::collections::HashMap;
use vax_arch::{Pcb, Protection, Psl, Pte, ScbVector};

/// A bootable guest image: `(guest physical address, bytes)` segments
/// plus the entry point.
#[derive(Debug, Clone)]
pub struct GuestImage {
    /// Load segments.
    pub segments: Vec<(u32, Vec<u8>)>,
    /// Boot entry (guest-physical, MAPEN off).
    pub entry: u32,
    /// Guest memory pages the image requires.
    pub mem_pages: u32,
    /// Kernel symbol table (S virtual addresses).
    pub symbols: HashMap<String, u32>,
    /// The configuration the image was built from.
    pub config: OsConfig,
}

/// Errors building an image.
#[derive(Debug)]
pub enum BuildError {
    /// The kernel or user program failed to assemble.
    Asm(vax_asm::AsmError),
    /// Configuration out of the layout's range.
    Config(String),
}

impl From<vax_asm::AsmError> for BuildError {
    fn from(e: vax_asm::AsmError) -> BuildError {
        BuildError::Asm(e)
    }
}

impl core::fmt::Display for BuildError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BuildError::Asm(e) => write!(f, "assembly failed: {e}"),
            BuildError::Config(m) => write!(f, "bad configuration: {m}"),
        }
    }
}

impl std::error::Error for BuildError {}

fn le(v: u32) -> [u8; 4] {
    v.to_le_bytes()
}

/// Builds a bootable image for the configuration.
///
/// # Errors
///
/// [`BuildError`] if the configuration exceeds the layout or the
/// generated assembly fails to assemble (a bug).
pub fn build_image(config: &OsConfig) -> Result<GuestImage, BuildError> {
    if config.nproc == 0 || config.nproc > l::MAX_PROCS {
        return Err(BuildError::Config(format!(
            "nproc {} not in 1..={}",
            config.nproc,
            l::MAX_PROCS
        )));
    }
    let kernel_base = 0x8000_0000 + l::KERNEL_GPA;
    let (kernel, symbols) =
        vax_asm::assemble_text_with_symbols(&kernel_source(config), kernel_base)?;
    if kernel.bytes.len() > 0x4000 {
        return Err(BuildError::Config("kernel too large".into()));
    }
    let (user, _) =
        vax_asm::assemble_text_with_symbols(&user_source(config.flavor), l::USER_CODE_VA)?;
    if user.bytes.len() > 16 * 512 {
        return Err(BuildError::Config("user program too large".into()));
    }

    let mut segments: Vec<(u32, Vec<u8>)> = Vec::new();

    // ---- SCB ----
    let kill = symbols["kill"];
    let mut scb = vec![0u8; 0x140];
    let mut set = |off: u32, addr: u32| {
        scb[off as usize..off as usize + 4].copy_from_slice(&le(addr));
    };
    for off in (0..0x140).step_by(4) {
        set(off as u32, kill);
    }
    set(
        ScbVector::TranslationNotValid.offset(),
        symbols["pagefault"],
    );
    set(ScbVector::ModifyFault.offset(), symbols["modifyfault"]);
    set(ScbVector::Chmk.offset(), symbols["syscall"]);
    set(ScbVector::IntervalTimer.offset(), symbols["timer"]);
    set(ScbVector::Device0.offset(), symbols["dismiss"]);
    set(ScbVector::Device1.offset(), symbols["dismiss"]);
    if config.flavor == Flavor::MiniVms {
        set(ScbVector::Chme.offset(), symbols["exec_svc"]);
        set(ScbVector::Chms.offset(), symbols["super_svc"]);
    }
    segments.push((l::SCB_GPA, scb));

    // ---- guest system page table (identity, region-appropriate
    //      protection) ----
    let mem_pages = l::required_pages(config.nproc);
    let kernel_code_first = l::KERNEL_GPA >> 9;
    let kernel_code_last = (l::KERNEL_GPA + 0x4000) >> 9;
    let mut spt = Vec::with_capacity((l::GUEST_SLR * 4) as usize);
    for vpn in 0..l::GUEST_SLR {
        let pte = if vpn < mem_pages {
            let prot = if (kernel_code_first..kernel_code_last).contains(&vpn) {
                // Kernel code pages host the CHME/CHMS services too:
                // outer modes must be able to fetch them.
                Protection::Srkw
            } else if (l::KSTACKS_BASE >> 9..l::USER_CODE_GPA >> 9).contains(&vpn) && vpn % 2 == 1 {
                // The second page of each per-process stack block holds
                // the executive and supervisor stacks.
                Protection::Sw
            } else {
                Protection::Kw
            };
            Pte::build(vpn, prot, true, true)
        } else if vpn == l::REAL_IO_SVPN {
            Pte::build(vax_cpu::IO_BASE_PA >> 9, Protection::Kw, true, true)
        } else if vpn == l::VM_IO_SVPN {
            Pte::build(0x000F_0000, Protection::Kw, true, true)
        } else {
            Pte::build(0, Protection::Na, false, false)
        };
        spt.extend_from_slice(&le(pte.raw()));
    }
    segments.push((l::SPT_GPA, spt));

    // ---- boot P0 identity table (kernel region, used during MAPEN) ----
    let mut bp0 = Vec::with_capacity(64 * 4);
    for vpn in 0..64 {
        bp0.extend_from_slice(&le(Pte::build(vpn, Protection::Kw, true, true).raw()));
    }
    segments.push((l::BOOT_P0T_GPA, bp0));

    // ---- kernel variables ----
    let mut kdata = vec![0u8; 0x200];
    kdata[kvar::NPROC as usize..kvar::NPROC as usize + 4].copy_from_slice(&le(config.nproc));
    kdata[kvar::QUANT as usize..kvar::QUANT as usize + 4]
        .copy_from_slice(&le(config.quantum_ticks));
    if config.force_mmio {
        kdata[kvar::FORCE_MMIO as usize..kvar::FORCE_MMIO as usize + 4].copy_from_slice(&le(1));
    }
    segments.push((l::KDATA_GPA, kdata));

    // ---- code ----
    segments.push((l::KERNEL_GPA, kernel.bytes.clone()));
    segments.push((l::USER_CODE_GPA, user.bytes.clone()));

    // ---- per-process PCBs and P0 page tables ----
    let user_code_pages = (user.bytes.len() as u32).div_ceil(512);
    let mut user_psl = Psl::new();
    user_psl.set_cur_mode(vax_arch::AccessMode::User);
    user_psl.set_prv_mode(vax_arch::AccessMode::User);
    for proc in 0..config.nproc {
        let mut pcb = Pcb {
            // Mode stacks are S-space addresses: they must survive
            // P0-table switches.
            sp: [
                0x8000_0000 + l::kstack_top(proc),
                0x8000_0000 + l::estack_top(proc),
                0x8000_0000 + l::sstack_top(proc),
                l::USER_SP,
            ],
            pc: l::USER_CODE_VA,
            psl: user_psl.raw(),
            p0br: 0x8000_0000 + l::p0t_gpa(proc),
            p0lr: l::USER_P0LR,
            p1lr: 1 << 21, // P1 is empty
            ..Pcb::default()
        };
        pcb.regs[6] = config.iterations;
        pcb.regs[10] = config.workload.id(proc);
        // The segment covers the process's whole 128-byte PCB slot.
        let mut slot = vec![0u8; 128];
        slot[..Pcb::BYTES as usize].copy_from_slice(&pcb.to_bytes());
        segments.push((l::pcb_gpa(proc), slot));

        let data_first_gpfn = l::user_data_gpa(proc) >> 9;
        let mut p0t = Vec::with_capacity(128 * 4);
        for vpn in 0..128u32 {
            let pte = if vpn < user_code_pages {
                Pte::build((l::USER_CODE_GPA >> 9) + vpn, Protection::Ur, true, true)
            } else if (16..32).contains(&vpn) {
                // Boot-valid data pages, modify bit clear: writes take
                // modify faults (bare modified VAX) or are tracked by the
                // VMM (inside a VM).
                Pte::build(data_first_gpfn + vpn - 16, Protection::Uw, true, false)
            } else if (32..47).contains(&vpn) {
                // Demand-validated pages: the guest kernel's TNV handler
                // sets PTE<V> on first touch.
                Pte::build(data_first_gpfn + vpn - 16, Protection::Uw, false, false)
            } else if vpn == 47 {
                // User stack page.
                Pte::build(data_first_gpfn + 31, Protection::Uw, true, true)
            } else {
                Pte::build(0, Protection::Na, false, false)
            };
            p0t.extend_from_slice(&le(pte.raw()));
        }
        segments.push((l::p0t_gpa(proc), p0t));
    }

    Ok(GuestImage {
        segments,
        entry: l::KERNEL_GPA,
        mem_pages,
        symbols,
        config: config.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Workload;

    #[test]
    fn image_builds_with_defaults() {
        let img = build_image(&OsConfig::default()).unwrap();
        assert_eq!(img.entry, l::KERNEL_GPA);
        assert!(img.mem_pages > 0x12000 / 512);
        assert!(img.symbols.contains_key("syscall"));
        // Segments must not overlap.
        let mut ranges: Vec<(u32, u32)> = img
            .segments
            .iter()
            .map(|(gpa, b)| (*gpa, *gpa + b.len() as u32))
            .collect();
        ranges.sort();
        for w in ranges.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlap: {:x?}", w);
        }
    }

    #[test]
    fn nproc_out_of_range_rejected() {
        let cfg = OsConfig {
            nproc: 0,
            ..OsConfig::default()
        };
        assert!(build_image(&cfg).is_err());
        let cfg = OsConfig {
            nproc: 17,
            ..OsConfig::default()
        };
        assert!(build_image(&cfg).is_err());
    }

    #[test]
    fn all_workloads_build() {
        for w in [
            Workload::Compute,
            Workload::Editing,
            Workload::Transaction,
            Workload::Syscall,
            Workload::IplHeavy,
            Workload::Touch,
            Workload::Probe,
            Workload::Mixed,
        ] {
            let cfg = OsConfig {
                workload: w,
                ..OsConfig::default()
            };
            build_image(&cfg).unwrap();
        }
    }
}
