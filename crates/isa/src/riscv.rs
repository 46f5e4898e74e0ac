//! A RISC-V host for the composite-ISA idea (the paper's Section II
//! discussion, implemented as an extension).
//!
//! The paper argues the technique is not x86-specific: "The RISC-V ISA
//! allows enough flexibility to carve out similar axes of customization
//! ... and thus would also be a reasonable host ISA", retaining the
//! register-depth/width/predication/addressing benefits while changing
//! the code-density story (fixed-length encodings, optional compressed
//! extension).
//!
//! This module models that alternative host: the same
//! [`FeatureSet`] lattice carried by a fixed-length
//! 4-byte encoding (with an RVC-style 2-byte compressed subset), and the
//! decode-side consequences — no instruction-length decoder, one-step
//! decoding, but wider code for the same instruction count.

use crate::feature_set::{FeatureSet, Predication, RegisterDepth};
use crate::inst::{MachineInst, MacroOpcode, MemRole};

/// Encoding parameters of a RISC-V-style host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RiscvHost {
    /// Whether the compressed (RVC-style) 2-byte subset is available.
    pub compressed: bool,
}

impl RiscvHost {
    /// The RV64GC-like host: compressed extension on.
    pub fn with_compression() -> Self {
        RiscvHost { compressed: true }
    }

    /// The plain fixed-4-byte host.
    pub fn fixed_only() -> Self {
        RiscvHost { compressed: false }
    }

    /// Whether an instruction qualifies for a 2-byte compressed
    /// encoding: register-to-register ALU or short loads/stores using
    /// the 8 most popular registers, unpredicated, not wide-immediate.
    pub(crate) fn compressible(&self, inst: &MachineInst) -> bool {
        if !self.compressed || inst.predicate.is_some() {
            return false;
        }
        let low_regs = inst.registers().all(|r| r.index() < 8);
        match inst.opcode {
            MacroOpcode::IntAlu | MacroOpcode::Mov => {
                low_regs
                    && inst.src1.imm_bytes() <= 1
                    && inst.src2.imm_bytes() <= 1
                    && inst.mem.is_none()
            }
            MacroOpcode::Load | MacroOpcode::Store => {
                low_regs
                    && inst
                        .mem
                        .is_some_and(|m| m.disp_bytes <= 1 && m.index.is_none())
            }
            MacroOpcode::Jump | MacroOpcode::Ret => true,
            _ => false,
        }
    }

    /// Number of 4-byte base instructions an x86-hosted macro-op
    /// re-hosts into. Memory-operand compute forms split into
    /// load-compute(-store); everything else is one instruction.
    /// Full predication and registers beyond 31 each cost one extra
    /// prefix parcel (the host's analogue of REXBC / the predicate
    /// prefix).
    pub(crate) fn parcels(&self, inst: &MachineInst, fs: &FeatureSet) -> u32 {
        let base = match (inst.mem.is_some(), inst.opcode) {
            (true, MacroOpcode::Load | MacroOpcode::Store) => 1,
            (true, _) => match inst.mem_role {
                MemRole::Dst => 3,
                _ => 2,
            },
            (false, _) => 1,
        };
        let mut extra = 0;
        if inst.predicate.is_some() && fs.predication() == Predication::Full {
            extra += 1;
        }
        if fs.depth() == RegisterDepth::D64 && inst.registers().any(|r| r.index() >= 32) {
            extra += 1;
        }
        base + extra
    }

    /// Encoded length in bytes of one re-hosted macro-op.
    pub(crate) fn encoded_len(&self, inst: &MachineInst, fs: &FeatureSet) -> u32 {
        let parcels = self.parcels(inst, fs);
        if parcels == 1 && self.compressible(inst) {
            2
        } else {
            parcels * 4
        }
    }

    /// Code-size ratio of this host vs. the x86 host for a compiled
    /// block: `(riscv_bytes, x86_bytes)`.
    pub(crate) fn code_size_vs_x86(&self, insts: &[MachineInst], fs: &FeatureSet) -> (u64, u64) {
        let encoder = crate::Encoder::new(*fs);
        let mut rv = 0u64;
        let mut x86 = 0u64;
        for inst in insts {
            rv += self.encoded_len(inst, fs) as u64;
            x86 += encoder.encode(inst).map(|e| e.len() as u64).unwrap_or(4);
        }
        (rv, x86)
    }

    /// Decode-side savings vs. the x86 host: fixed-length parcels need
    /// no instruction-length decoder at all (the paper's Alpha/Thumb
    /// observation), so the entire ILD area/power disappears. Returns
    /// the fraction of the x86 host's ILD cost retained (0.0, or a
    /// small aligner cost when compression mixes 2- and 4-byte forms).
    pub fn ild_cost_fraction(&self) -> f64 {
        if self.compressed {
            0.18 // a 2/4-byte aligner is far simpler than the x86 ILD
        } else {
            0.0
        }
    }
}

/// Summary of re-hosting one compiled code blob onto a RISC-V host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RehostReport {
    /// Static code bytes on the RISC-V host.
    pub riscv_bytes: u64,
    /// Static code bytes on the x86 host.
    pub x86_bytes: u64,
    /// Instructions after load-store splitting.
    pub riscv_insts: u64,
    /// Macro-ops on the x86 host.
    pub x86_insts: u64,
    /// Fraction of RISC-V instructions that compressed to 2 bytes.
    pub compressed_fraction: f64,
}

impl RehostReport {
    /// Code-density ratio (RISC-V bytes per x86 byte).
    pub fn density_ratio(&self) -> f64 {
        self.riscv_bytes as f64 / self.x86_bytes.max(1) as f64
    }
}

/// Re-hosts a set of machine instructions and reports the density and
/// instruction-count consequences.
pub fn rehost(host: &RiscvHost, insts: &[MachineInst], fs: &FeatureSet) -> RehostReport {
    let (riscv_bytes, x86_bytes) = host.code_size_vs_x86(insts, fs);
    let mut riscv_insts = 0u64;
    let mut compressed = 0u64;
    for inst in insts {
        let p = host.parcels(inst, fs) as u64;
        riscv_insts += p;
        if p == 1 && host.compressible(inst) {
            compressed += 1;
        }
    }
    RehostReport {
        riscv_bytes,
        x86_bytes,
        riscv_insts,
        x86_insts: insts.len() as u64,
        compressed_fraction: compressed as f64 / riscv_insts.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{MemLocality, MemOperand, Operand};
    use crate::ArchReg;

    fn r(i: u8) -> ArchReg {
        ArchReg::gpr(i)
    }

    #[test]
    fn plain_alu_is_one_parcel() {
        let host = RiscvHost::fixed_only();
        let fs = FeatureSet::x86_64();
        let i = MachineInst::compute(
            MacroOpcode::IntAlu,
            r(1),
            Operand::Reg(r(2)),
            Operand::Reg(r(3)),
        );
        assert_eq!(host.parcels(&i, &fs), 1);
        assert_eq!(host.encoded_len(&i, &fs), 4);
    }

    #[test]
    fn memory_operand_forms_split() {
        let host = RiscvHost::fixed_only();
        let fs = FeatureSet::x86_64();
        let src =
            MachineInst::compute(MacroOpcode::IntAlu, r(1), Operand::Reg(r(1)), Operand::None)
                .with_mem(
                    MemOperand::base_disp(r(2), 1, MemLocality::Stream),
                    MemRole::Src,
                );
        assert_eq!(host.parcels(&src, &fs), 2, "load + compute");
        let dst =
            MachineInst::compute(MacroOpcode::IntAlu, r(1), Operand::Reg(r(3)), Operand::None)
                .with_mem(
                    MemOperand::base_only(r(2), MemLocality::Stream),
                    MemRole::Dst,
                );
        assert_eq!(host.parcels(&dst, &fs), 3, "load + compute + store");
    }

    #[test]
    fn compression_needs_low_registers() {
        let host = RiscvHost::with_compression();
        let fs = FeatureSet::x86_64();
        let lo = MachineInst::compute(
            MacroOpcode::IntAlu,
            r(1),
            Operand::Reg(r(2)),
            Operand::Reg(r(3)),
        );
        let hi = MachineInst::compute(
            MacroOpcode::IntAlu,
            r(9),
            Operand::Reg(r(2)),
            Operand::Reg(r(3)),
        );
        assert!(host.compressible(&lo));
        assert!(!host.compressible(&hi));
        assert_eq!(host.encoded_len(&lo, &fs), 2);
        assert_eq!(host.encoded_len(&hi, &fs), 4);
        assert!(!RiscvHost::fixed_only().compressible(&lo));
    }

    #[test]
    fn deep_registers_cost_a_prefix_parcel() {
        let host = RiscvHost::fixed_only();
        let fs = FeatureSet::superset();
        let deep = MachineInst::compute(
            MacroOpcode::IntAlu,
            r(40),
            Operand::Reg(r(2)),
            Operand::None,
        );
        assert_eq!(host.parcels(&deep, &fs), 2);
        let shallow = MachineInst::compute(
            MacroOpcode::IntAlu,
            r(20),
            Operand::Reg(r(2)),
            Operand::None,
        );
        assert_eq!(
            host.parcels(&shallow, &fs),
            1,
            "depth 32 fits 5-bit+1 fields"
        );
    }

    #[test]
    fn predication_costs_a_prefix_parcel() {
        let host = RiscvHost::fixed_only();
        let fs = FeatureSet::superset();
        let p = MachineInst::compute(MacroOpcode::IntAlu, r(1), Operand::Reg(r(2)), Operand::None)
            .predicated_on(r(5), false);
        assert_eq!(host.parcels(&p, &fs), 2);
    }

    #[test]
    fn fixed_length_hosts_drop_the_ild() {
        assert_eq!(RiscvHost::fixed_only().ild_cost_fraction(), 0.0);
        assert!(RiscvHost::with_compression().ild_cost_fraction() < 0.25);
    }

    #[test]
    fn rehost_reports_density() {
        let fs = FeatureSet::x86_64();
        let insts = vec![
            MachineInst::compute(
                MacroOpcode::IntAlu,
                r(1),
                Operand::Reg(r(2)),
                Operand::Reg(r(3)),
            ),
            MachineInst::load(r(1), MemOperand::base_disp(r(2), 1, MemLocality::Stream)),
            MachineInst::compute(MacroOpcode::IntAlu, r(1), Operand::Reg(r(1)), Operand::None)
                .with_mem(
                    MemOperand::base_disp(r(2), 1, MemLocality::Stream),
                    MemRole::Src,
                ),
        ];
        let rep = rehost(&RiscvHost::with_compression(), &insts, &fs);
        assert_eq!(rep.x86_insts, 3);
        assert_eq!(rep.riscv_insts, 4, "one folded form splits");
        assert!(rep.riscv_bytes > 0 && rep.x86_bytes > 0);
        assert!(rep.compressed_fraction > 0.0);
        assert!(rep.density_ratio() > 0.3);
    }
}
