//! The Processor Status Longword (PSL) and the `VMPSL` register.
//!
//! The PSL packs the condition codes, trap enables, the interrupt priority
//! level, and the current/previous access modes. The paper adds one bit,
//! `PSL<VM>`, set when the processor is executing a virtual machine, and a
//! new register `VMPSL` holding the parts of the VM's PSL that differ from
//! the real machine's PSL (the current and previous mode fields).

use crate::mode::AccessMode;

/// The VAX Processor Status Longword.
///
/// Bit layout (subset used by this simulator, matching the real machine):
///
/// | Bits  | Field   | Meaning                              |
/// |-------|---------|--------------------------------------|
/// | 0     | C       | carry condition code                 |
/// | 1     | V       | overflow condition code              |
/// | 2     | Z       | zero condition code                  |
/// | 3     | N       | negative condition code              |
/// | 4     | T       | trace trap enable                    |
/// | 5     | IV      | integer overflow trap enable         |
/// | 6     | FU      | floating underflow enable            |
/// | 7     | DV      | decimal overflow enable              |
/// | 16–20 | IPL     | interrupt priority level             |
/// | 22–23 | PRV_MOD | previous access mode                 |
/// | 24–25 | CUR_MOD | current access mode                  |
/// | 26    | IS      | executing on the interrupt stack     |
/// | 29    | VM      | **paper extension**: in VM mode      |
/// | 30    | TP      | trace pending                        |
/// | 31    | CM      | PDP-11 compatibility mode (unused)   |
///
/// `PSL<VM>` occupies bit 29, which must be zero on a standard VAX; the
/// paper specifies that software never observes it set (`MOVPSL` and
/// exception PSL pushes mask it).
///
/// # Example
///
/// ```
/// use vax_arch::{AccessMode, Psl};
///
/// let mut psl = Psl::new();
/// psl.set_cur_mode(AccessMode::User);
/// psl.set_prv_mode(AccessMode::Supervisor);
/// assert_eq!(psl.cur_mode(), AccessMode::User);
/// assert_eq!(psl.prv_mode(), AccessMode::Supervisor);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Psl(u32);

impl Psl {
    /// Carry condition code.
    pub const C: u32 = 1 << 0;
    /// Overflow condition code.
    pub const V: u32 = 1 << 1;
    /// Zero condition code.
    pub const Z: u32 = 1 << 2;
    /// Negative condition code.
    pub const N: u32 = 1 << 3;
    /// Trace enable.
    pub const T: u32 = 1 << 4;
    /// Integer overflow enable.
    pub const IV: u32 = 1 << 5;
    /// Interrupt-stack flag.
    pub const IS: u32 = 1 << 26;
    /// First-part-done flag.
    pub const FPD: u32 = 1 << 27;
    /// VM-mode bit (paper extension; bit 29 is MBZ on a standard VAX).
    pub const VM: u32 = 1 << 29;
    /// Trace-pending flag.
    pub const TP: u32 = 1 << 30;
    /// Compatibility-mode flag.
    pub const CM: u32 = 1 << 31;

    const IPL_SHIFT: u32 = 16;
    const IPL_MASK: u32 = 0x1f << Self::IPL_SHIFT;
    const PRV_SHIFT: u32 = 22;
    const PRV_MASK: u32 = 0b11 << Self::PRV_SHIFT;
    const CUR_SHIFT: u32 = 24;
    const CUR_MASK: u32 = 0b11 << Self::CUR_SHIFT;

    /// Mask of the mode fields emulated by `VMPSL` in VM mode.
    pub const MODE_FIELDS: u32 = Self::PRV_MASK | Self::CUR_MASK;

    /// Bits that must be zero in any PSL image REI is asked to load.
    /// (Bits 8–15, 21, 28, and the VM bit; IS/CM handling is simplified.)
    pub const MBZ: u32 = 0x0000_ff00 | (1 << 21) | (1 << 28) | Self::VM;

    /// A cleared PSL: kernel mode, IPL 0, no flags. This is *not* the
    /// hardware power-up PSL (which sets IPL 31); use
    /// [`Psl::power_up`] for that.
    pub fn new() -> Psl {
        Psl(0)
    }

    /// The PSL at processor power-up: kernel mode, interrupt stack, IPL 31.
    pub fn power_up() -> Psl {
        let mut p = Psl(Psl::IS);
        p.set_ipl(31);
        p
    }

    /// Constructs a PSL from a raw longword without validation.
    pub fn from_raw(raw: u32) -> Psl {
        Psl(raw)
    }

    /// The raw longword value.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// The raw value with `PSL<VM>` masked off, as any software read
    /// (MOVPSL, exception push) must present it.
    #[inline]
    pub fn raw_visible(self) -> u32 {
        self.0 & !Self::VM
    }

    /// Current access mode (`PSL<CUR_MOD>`).
    #[inline]
    pub fn cur_mode(self) -> AccessMode {
        AccessMode::from_bits(self.0 >> Self::CUR_SHIFT)
    }

    /// Sets the current access mode.
    #[inline]
    pub fn set_cur_mode(&mut self, mode: AccessMode) {
        self.0 = (self.0 & !Self::CUR_MASK) | (mode.bits() << Self::CUR_SHIFT);
    }

    /// Previous access mode (`PSL<PRV_MOD>`).
    #[inline]
    pub fn prv_mode(self) -> AccessMode {
        AccessMode::from_bits(self.0 >> Self::PRV_SHIFT)
    }

    /// Sets the previous access mode.
    #[inline]
    pub fn set_prv_mode(&mut self, mode: AccessMode) {
        self.0 = (self.0 & !Self::PRV_MASK) | (mode.bits() << Self::PRV_SHIFT);
    }

    /// Interrupt priority level, 0–31.
    #[inline]
    pub fn ipl(self) -> u8 {
        ((self.0 & Self::IPL_MASK) >> Self::IPL_SHIFT) as u8
    }

    /// Sets the interrupt priority level.
    ///
    /// # Panics
    ///
    /// Panics if `ipl > 31`.
    #[inline]
    pub fn set_ipl(&mut self, ipl: u8) {
        assert!(ipl <= 31, "IPL out of range: {ipl}");
        self.0 = (self.0 & !Self::IPL_MASK) | ((ipl as u32) << Self::IPL_SHIFT);
    }

    /// True if the given flag bit(s) are all set.
    #[inline]
    pub fn flag(self, mask: u32) -> bool {
        self.0 & mask == mask
    }

    /// Sets or clears the given flag bit(s).
    #[inline]
    pub fn set_flag(&mut self, mask: u32, value: bool) {
        if value {
            self.0 |= mask;
        } else {
            self.0 &= !mask;
        }
    }

    /// True if the processor is executing a virtual machine (`PSL<VM>`).
    #[inline]
    pub fn vm(self) -> bool {
        self.flag(Self::VM)
    }

    /// Sets or clears `PSL<VM>`.
    ///
    /// In the paper's design only the VMM's dispatch path sets this bit and
    /// only exception/interrupt microcode clears it.
    #[inline]
    pub fn set_vm(&mut self, value: bool) {
        self.set_flag(Self::VM, value);
    }

    /// Sets the N, Z, V, C condition codes from explicit booleans.
    #[inline]
    pub fn set_nzvc(&mut self, n: bool, z: bool, v: bool, c: bool) {
        self.set_flag(Self::N, n);
        self.set_flag(Self::Z, z);
        self.set_flag(Self::V, v);
        self.set_flag(Self::C, c);
    }

    /// Sets N and Z from a signed 32-bit result, clearing V; C unchanged.
    #[inline]
    pub fn set_nz_from(&mut self, value: u32) {
        self.set_flag(Self::N, (value as i32) < 0);
        self.set_flag(Self::Z, value == 0);
        self.set_flag(Self::V, false);
    }

    /// REI's checks on the PSL image it pops, made from mode `cur`, on
    /// the interrupt stack or not. REI takes a reserved-operand fault
    /// unless all hold: no MBZ bit is set; the image's mode is no more
    /// privileged than `cur`; its previous mode is no more privileged
    /// than its mode; its IPL is 0 outside kernel mode; it names the
    /// interrupt stack only when REI runs on it, and then only in
    /// kernel mode. (The VAX SRM also rejects an interrupt-stack image
    /// at IPL 0 and an IPL above the current one; this model does not.)
    pub fn rei_image_valid(self, cur: AccessMode, on_is: bool) -> bool {
        let mode = self.cur_mode();
        let to_is = self.flag(Self::IS);
        self.0 & Self::MBZ == 0
            && !mode.is_more_privileged_than(cur)
            && !self.prv_mode().is_more_privileged_than(mode)
            && (self.ipl() == 0 || mode == AccessMode::Kernel)
            && (!to_is || on_is)
            && (!to_is || mode == AccessMode::Kernel)
    }

    /// The SISR bits REI sets for this image: the AST-delivery software
    /// interrupt (level 2) when the image's mode is no more privileged
    /// than `astlvl` (0–3), none otherwise.
    pub fn rei_ast_request(self, astlvl: u32) -> u16 {
        if self.cur_mode().bits() >= astlvl && astlvl <= 3 {
            1 << 2
        } else {
            0
        }
    }
}

impl core::fmt::Display for Psl {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "PSL[cur={} prv={} ipl={}{}{}{}{}{}{}]",
            self.cur_mode(),
            self.prv_mode(),
            self.ipl(),
            if self.vm() { " VM" } else { "" },
            if self.flag(Self::IS) { " IS" } else { "" },
            if self.flag(Self::N) { " N" } else { "" },
            if self.flag(Self::Z) { " Z" } else { "" },
            if self.flag(Self::V) { " V" } else { "" },
            if self.flag(Self::C) { " C" } else { "" },
        )
    }
}

/// The `VMPSL` register: the parts of a VM's PSL that differ from the real
/// machine's PSL while the VM runs.
///
/// Per the paper (§4.2) only the current-mode and previous-mode fields need
/// emulation; condition codes, trap enables, etc. remain in the real PSL,
/// where ordinary instructions expect them. `MOVPSL` in VM mode merges the
/// two (see [`VmPsl::merge_into`]).
///
/// # Example
///
/// ```
/// use vax_arch::{AccessMode, Psl, VmPsl};
///
/// let mut real = Psl::new();
/// real.set_cur_mode(AccessMode::Executive); // compressed real mode
/// real.set_vm(true);
///
/// let vmpsl = VmPsl::new(AccessMode::Kernel, AccessMode::User);
/// let guest_view = vmpsl.merge_into(real);
/// assert_eq!(guest_view.cur_mode(), AccessMode::Kernel); // VM sees kernel
/// assert!(!guest_view.vm()); // PSL<VM> is never visible
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct VmPsl {
    cur: AccessMode,
    prv: AccessMode,
    ipl: u8,
}

impl VmPsl {
    /// Creates a `VMPSL` with the given VM current and previous modes and
    /// a virtual IPL of 0.
    pub fn new(cur: AccessMode, prv: AccessMode) -> VmPsl {
        VmPsl { cur, prv, ipl: 0 }
    }

    /// Returns a copy with the VM's interrupt priority level replaced.
    ///
    /// The real PSL's IPL stays at 0 while a VM runs (so real interrupts
    /// always preempt); the VM's own IPL is privileged state the VMM
    /// maintains, and keeping it in `VMPSL` lets the `MOVPSL` microcode
    /// merge return it (paper §7.3 discusses the cost of emulating
    /// MTPR-to-IPL against this register).
    pub fn with_ipl(mut self, ipl: u8) -> VmPsl {
        assert!(ipl <= 31, "IPL out of range: {ipl}");
        self.ipl = ipl;
        self
    }

    /// The VM's interrupt priority level.
    pub fn ipl(self) -> u8 {
        self.ipl
    }

    /// Sets the VM's interrupt priority level.
    ///
    /// # Panics
    ///
    /// Panics if `ipl > 31`.
    pub fn set_ipl(&mut self, ipl: u8) {
        assert!(ipl <= 31, "IPL out of range: {ipl}");
        self.ipl = ipl;
    }

    /// The VM's current access mode.
    pub fn cur_mode(self) -> AccessMode {
        self.cur
    }

    /// The VM's previous access mode.
    pub fn prv_mode(self) -> AccessMode {
        self.prv
    }

    /// Sets the VM's current access mode.
    pub fn set_cur_mode(&mut self, mode: AccessMode) {
        self.cur = mode;
    }

    /// Sets the VM's previous access mode.
    pub fn set_prv_mode(&mut self, mode: AccessMode) {
        self.prv = mode;
    }

    /// Produces the VM-visible PSL: the real PSL's non-mode fields merged
    /// with `VMPSL`'s mode fields, with `PSL<VM>` masked.
    ///
    /// This is exactly the microcode `MOVPSL` merge from paper §4.2.1 and
    /// the PSL image supplied with a VM-emulation trap.
    pub fn merge_into(self, real: Psl) -> Psl {
        let mut merged = Psl::from_raw(real.raw_visible() & !Psl::MODE_FIELDS);
        merged.set_cur_mode(self.cur);
        merged.set_prv_mode(self.prv);
        merged.set_ipl(self.ipl);
        merged
    }
}

impl core::fmt::Display for VmPsl {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "VMPSL[cur={} prv={} ipl={}]",
            self.cur, self.prv, self.ipl
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(cur: AccessMode, prv: AccessMode, ipl: u8, is: bool) -> Psl {
        let mut psl = Psl::new();
        psl.set_cur_mode(cur);
        psl.set_prv_mode(prv);
        psl.set_ipl(ipl);
        psl.set_flag(Psl::IS, is);
        psl
    }

    #[test]
    fn rei_image_checks() {
        use AccessMode::*;
        let ok = |img: Psl, cur, on_is| img.rei_image_valid(cur, on_is);
        assert!(ok(image(User, User, 0, false), Kernel, true));
        assert!(ok(image(Kernel, Kernel, 31, true), Kernel, true));
        assert!(!ok(Psl::from_raw(1 << 8), Kernel, false), "MBZ bit");
        assert!(!ok(Psl::from_raw(Psl::VM), Kernel, false), "PSL<VM> is MBZ");
        assert!(
            !ok(image(Kernel, Kernel, 0, false), User, false),
            "privilege"
        );
        assert!(
            !ok(image(User, Kernel, 0, false), Kernel, false),
            "prv above cur"
        );
        assert!(
            !ok(image(User, User, 1, false), Kernel, false),
            "IPL outside kernel"
        );
        assert!(
            !ok(image(Kernel, Kernel, 1, true), Kernel, false),
            "IS from off IS"
        );
        assert!(
            !ok(image(User, User, 0, true), Kernel, true),
            "IS outside kernel"
        );
    }

    #[test]
    fn rei_ast_request_by_astlvl() {
        use AccessMode::*;
        let user = image(User, User, 0, false);
        assert_eq!(user.rei_ast_request(3), 1 << 2);
        assert_eq!(user.rei_ast_request(4), 0, "ASTLVL 4: no AST pending");
        let supervisor = image(Supervisor, Supervisor, 0, false);
        assert_eq!(supervisor.rei_ast_request(2), 1 << 2);
        assert_eq!(image(Executive, Executive, 0, false).rei_ast_request(2), 0);
    }

    #[test]
    fn mode_fields_round_trip() {
        let mut psl = Psl::new();
        for cur in AccessMode::ALL {
            for prv in AccessMode::ALL {
                psl.set_cur_mode(cur);
                psl.set_prv_mode(prv);
                assert_eq!(psl.cur_mode(), cur);
                assert_eq!(psl.prv_mode(), prv);
            }
        }
    }

    #[test]
    fn ipl_round_trip() {
        let mut psl = Psl::new();
        for ipl in 0..=31u8 {
            psl.set_ipl(ipl);
            assert_eq!(psl.ipl(), ipl);
        }
    }

    #[test]
    #[should_panic(expected = "IPL out of range")]
    fn ipl_rejects_out_of_range() {
        Psl::new().set_ipl(32);
    }

    #[test]
    fn vm_bit_is_invisible() {
        let mut psl = Psl::new();
        psl.set_vm(true);
        assert!(psl.vm());
        assert_eq!(psl.raw_visible() & Psl::VM, 0);
    }

    #[test]
    fn power_up_state() {
        let psl = Psl::power_up();
        assert_eq!(psl.cur_mode(), AccessMode::Kernel);
        assert_eq!(psl.ipl(), 31);
        assert!(psl.flag(Psl::IS));
    }

    #[test]
    fn condition_codes() {
        let mut psl = Psl::new();
        psl.set_nzvc(true, false, true, false);
        assert!(psl.flag(Psl::N));
        assert!(!psl.flag(Psl::Z));
        assert!(psl.flag(Psl::V));
        assert!(!psl.flag(Psl::C));

        psl.set_nz_from(0);
        assert!(psl.flag(Psl::Z));
        assert!(!psl.flag(Psl::N));
        psl.set_nz_from(0x8000_0000);
        assert!(psl.flag(Psl::N));
        assert!(!psl.flag(Psl::Z));
    }

    #[test]
    fn vmpsl_merge_preserves_real_flags_and_hides_vm_bit() {
        let mut real = Psl::new();
        real.set_cur_mode(AccessMode::Executive);
        real.set_prv_mode(AccessMode::Executive);
        real.set_ipl(5);
        real.set_nzvc(true, true, false, true);
        real.set_vm(true);

        let vmpsl = VmPsl::new(AccessMode::Kernel, AccessMode::Executive).with_ipl(8);
        let merged = vmpsl.merge_into(real);
        assert_eq!(merged.cur_mode(), AccessMode::Kernel);
        assert_eq!(merged.prv_mode(), AccessMode::Executive);
        assert_eq!(merged.ipl(), 8, "VM's IPL, not the real machine's");
        assert!(merged.flag(Psl::N) && merged.flag(Psl::Z) && merged.flag(Psl::C));
        assert!(!merged.vm());
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!Psl::power_up().to_string().is_empty());
        assert!(!VmPsl::default().to_string().is_empty());
    }
}
