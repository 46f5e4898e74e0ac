//! Per-instruction facts recovered from encoded bytes.
//!
//! The analyzer never sees compiler IR — only the byte-level
//! [`Disassembled`] view. That view is *lossy* in two ways the fact
//! extraction must stay sound against:
//!
//! - **Two-address hiding**: a compute's ModRM `reg` field carries the
//!   destination; the first source is only encoded when it doubles as
//!   the destination or the rm operand. A dropped source register is
//!   invisible except through *prefix presence* (its tier forces
//!   REX/REXBC). Facts therefore come in two flavours: `lo` is a lower
//!   bound built from visible operands only (safe for "the code needs
//!   at least this" claims), `hi` additionally charges the prefix tier
//!   (safe for "the code needs at most this" claims that feed
//!   migration-freeness proofs).
//! - **Direction hiding**: a `Mov` with a memory operand does not
//!   encode whether memory is source or destination, and a mem-form
//!   compute may write its register operand or not. Such defs are
//!   *weak*: they never kill liveness and never clear wide state.
use cisa_isa::{
    AddressingMode, Complexity, Disassembled, FeatureSet, MacroOpcode, Predication, RegisterDepth,
    RegisterWidth, SpannedInst,
};

/// A joinable summary of the composite-ISA features a piece of code
/// exercises. The bottom element ([`FeatureNeeds::default`]) claims
/// nothing: 8 registers, narrow, unpredicated, scalar, no memory
/// operands on computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureNeeds {
    /// Deepest register file addressed.
    pub depth: RegisterDepth,
    /// Any 64-bit (REX.W) operation.
    pub wide: bool,
    /// Any predicate prefix.
    pub pred: bool,
    /// Any packed vector op.
    pub vec: bool,
    /// Any memory operand the downgrade machinery would have to expand.
    pub memop: bool,
}

impl Default for FeatureNeeds {
    fn default() -> Self {
        FeatureNeeds {
            depth: RegisterDepth::D8,
            wide: false,
            pred: false,
            vec: false,
            memop: false,
        }
    }
}

impl FeatureNeeds {
    /// Least upper bound: the needs of code containing both operands.
    pub fn join(&mut self, other: &FeatureNeeds) {
        self.depth = self.depth.max(other.depth);
        self.wide |= other.wide;
        self.pred |= other.pred;
        self.vec |= other.vec;
        self.memop |= other.memop;
    }

    /// The smallest *viable* feature set satisfying these needs.
    ///
    /// Viability can force a depth bump: there is no 8-deep feature set
    /// with 64-bit registers or full predication, so those needs imply
    /// at least 16 registers. The result still satisfies
    /// `compiled.covers(minimal)` for any feature set the code was
    /// legally encoded under, because the encoder enforced the same
    /// constraints per instruction.
    pub fn minimal_feature_set(&self) -> FeatureSet {
        let complexity = if self.memop || self.vec {
            Complexity::X86
        } else {
            Complexity::MicroX86
        };
        let width = if self.wide {
            RegisterWidth::W64
        } else {
            RegisterWidth::W32
        };
        let predication = if self.pred {
            Predication::Full
        } else {
            Predication::Partial
        };
        let mut depth = self.depth;
        if (width == RegisterWidth::W64 || predication == Predication::Full)
            && depth == RegisterDepth::D8
        {
            depth = RegisterDepth::D16;
        }
        FeatureSet::new(complexity, width, depth, predication)
            .expect("needs map onto a viable feature set by construction")
    }
}

/// Smallest register depth that can address register `index`.
pub fn depth_for_reg(index: u8) -> RegisterDepth {
    match index {
        0..=7 => RegisterDepth::D8,
        8..=15 => RegisterDepth::D16,
        16..=31 => RegisterDepth::D32,
        _ => RegisterDepth::D64,
    }
}

/// A set of architectural register indices (0..64) as a bitmask.
pub type RegSet = u64;

fn bit(r: u8) -> RegSet {
    1u64 << (r & 0x3F)
}

/// Dataflow-relevant facts of one decoded instruction.
#[derive(Debug, Clone)]
pub struct InstFacts {
    /// Byte offset in the stream.
    pub offset: usize,
    /// Encoded length in bytes.
    pub len: usize,
    /// Opcode group.
    pub opcode: MacroOpcode,
    /// Registers the instruction may read.
    pub uses: RegSet,
    /// Register the instruction may write, if any.
    pub def: Option<u8>,
    /// The def unconditionally overwrites its register without reading
    /// it first — the only defs allowed to kill liveness or clear wide
    /// state.
    pub strong_def: bool,
    /// The def may deposit a 64-bit value (REX.W set).
    pub wide_def: bool,
    /// The instruction may write memory (excludes it from dead-def
    /// reporting).
    pub mem_write: bool,
    /// Lower-bound feature needs (visible operands only).
    pub lo: FeatureNeeds,
    /// Upper-bound feature needs (prefix tiers charged, emulation-shaped
    /// memory-operand accounting).
    pub hi: FeatureNeeds,
}

impl InstFacts {
    /// Extracts facts from one decoded instruction.
    pub fn from_spanned(s: &SpannedInst) -> InstFacts {
        let d = &s.inst;
        let mut uses: RegSet = 0;
        let mut def = None;
        let mut strong_def = false;
        let mut mem_write = false;
        let has_mem = d.mode.is_some();

        match d.opcode {
            MacroOpcode::Mov => {
                if !has_mem && d.imm_bytes > 0 {
                    // B0+rb / B8+rd register mov-immediate.
                    def = d.reg;
                    strong_def = true;
                } else if !has_mem {
                    // Register-to-register move: reg := rm.
                    def = d.reg;
                    strong_def = true;
                    if let Some(m) = d.rm {
                        uses |= bit(m);
                    }
                } else if d.imm_bytes > 0 {
                    // 0xC6/0xC7 immediate-to-memory store; the reg field
                    // carries no operand.
                    mem_write = true;
                } else {
                    // Mem-form move: the encoding hides the direction, so
                    // the reg operand is both a possible (weak) def and a
                    // possible use, and memory may be written.
                    def = d.reg;
                    if let Some(r) = d.reg {
                        uses |= bit(r);
                    }
                    mem_write = true;
                }
            }
            MacroOpcode::IntAlu
            | MacroOpcode::IntMul
            | MacroOpcode::FpAlu
            | MacroOpcode::FpMul
            | MacroOpcode::VecAlu => {
                // Two-address compute: reg is destination and implicit
                // source. A mem-form compute may instead target memory
                // (`add [mem], reg`), making the def weak.
                def = d.reg;
                if let Some(r) = d.reg {
                    uses |= bit(r);
                }
                if !has_mem {
                    if let Some(m) = d.rm {
                        uses |= bit(m);
                    }
                } else {
                    mem_write = true;
                }
            }
            MacroOpcode::Cmov => {
                // Conditional move: writes reg only when the condition
                // holds, so the old value flows through — weak def.
                def = d.reg;
                if let Some(r) = d.reg {
                    uses |= bit(r);
                }
                if !has_mem {
                    if let Some(m) = d.rm {
                        uses |= bit(m);
                    }
                }
            }
            MacroOpcode::Lea => {
                def = d.reg;
                strong_def = true;
            }
            MacroOpcode::Load => {
                def = d.reg;
                strong_def = true;
                mem_write = false;
            }
            MacroOpcode::Store => {
                if let Some(r) = d.reg {
                    uses |= bit(r);
                }
                mem_write = true;
            }
            MacroOpcode::Branch
            | MacroOpcode::Jump
            | MacroOpcode::Call
            | MacroOpcode::Ret
            | MacroOpcode::Nop => {}
        }

        // Memory address registers are always uses.
        if has_mem {
            if d.mode != Some(AddressingMode::Absolute) {
                if let Some(base) = d.rm {
                    uses |= bit(base);
                }
            }
            if let Some(i) = d.index {
                uses |= bit(i);
            }
        }

        // The predicate register is a use, and a guarded def cannot
        // kill: the instruction may be skipped at runtime.
        if let Some((p, _)) = d.predicate {
            uses |= bit(p);
            strong_def = false;
        }

        let (lo, hi) = feature_needs(d, uses, def);
        InstFacts {
            offset: s.offset,
            len: d.len as usize,
            opcode: d.opcode,
            uses,
            def,
            strong_def,
            wide_def: d.rex_w && def.is_some(),
            mem_write,
            lo,
            hi,
        }
    }
}

fn feature_needs(d: &Disassembled, uses: RegSet, def: Option<u8>) -> (FeatureNeeds, FeatureNeeds) {
    let mut lo = FeatureNeeds {
        wide: d.rex_w,
        pred: d.predicate.is_some(),
        vec: d.opcode == MacroOpcode::VecAlu,
        memop: d.mode.is_some()
            && !matches!(
                d.opcode,
                MacroOpcode::Load | MacroOpcode::Store | MacroOpcode::Lea
            ),
        ..FeatureNeeds::default()
    };
    let mut regs = uses;
    if let Some(r) = def {
        regs |= bit(r);
    }
    while regs != 0 {
        let r = regs.trailing_zeros() as u8;
        regs &= regs - 1;
        lo.depth = lo.depth.max(depth_for_reg(r));
    }
    let mut hi = lo;
    // The downgrade machinery expands *every* mem-operand instruction
    // except explicit loads/stores — `Lea` and mem-form `Mov` included —
    // so the upper bound must match that accounting exactly.
    hi.memop = d.mode.is_some() && !matches!(d.opcode, MacroOpcode::Load | MacroOpcode::Store);
    // A dropped two-address source register is invisible, but its
    // encoding tier forces a prefix: no prefix bounds every register
    // (hidden ones included) below 8, REX below 16, REXBC below 64.
    hi.depth = if d.has_rexbc {
        RegisterDepth::D64
    } else if d.has_rex {
        hi.depth.max(RegisterDepth::D16)
    } else {
        hi.depth
    };
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cisa_isa::disassemble_stream_with_offsets;
    use cisa_isa::inst::{MemOperand, MemRole};
    use cisa_isa::{ArchReg, Encoder, MachineInst, MemLocality, Operand};

    fn facts_of(insts: &[MachineInst]) -> Vec<InstFacts> {
        let enc = Encoder::new(FeatureSet::superset());
        let bytes = enc.encode_stream(insts).expect("legal stream");
        disassemble_stream_with_offsets(&bytes)
            .expect("roundtrip")
            .iter()
            .map(InstFacts::from_spanned)
            .collect()
    }

    #[test]
    fn mov_imm_is_a_strong_def() {
        let f = facts_of(&[MachineInst::compute(
            MacroOpcode::Mov,
            ArchReg::gpr(5),
            Operand::Imm(4),
            Operand::None,
        )]);
        assert_eq!(f[0].def, Some(5));
        assert!(f[0].strong_def);
        assert_eq!(f[0].uses, 0);
    }

    #[test]
    fn two_address_compute_uses_its_destination() {
        let f = facts_of(&[MachineInst::compute(
            MacroOpcode::IntAlu,
            ArchReg::gpr(1),
            Operand::Reg(ArchReg::gpr(1)),
            Operand::Reg(ArchReg::gpr(2)),
        )]);
        assert_eq!(f[0].def, Some(1));
        assert!(!f[0].strong_def);
        assert_eq!(f[0].uses, 0b110);
    }

    #[test]
    fn lea_is_exempt_from_lo_memop_but_not_hi() {
        let inst = MachineInst::compute(
            MacroOpcode::Lea,
            ArchReg::gpr(3),
            Operand::None,
            Operand::None,
        )
        .with_mem(
            MemOperand::base_disp(ArchReg::gpr(4), 1, MemLocality::WorkingSet),
            MemRole::Src,
        );
        let f = facts_of(&[inst]);
        assert!(!f[0].lo.memop, "Lea is legal under microx86");
        assert!(f[0].hi.memop, "but the downgrade machinery expands it");
    }

    #[test]
    fn prefix_tier_raises_hi_depth_only() {
        let f = facts_of(&[MachineInst::compute(
            MacroOpcode::IntAlu,
            ArchReg::gpr(2),
            Operand::Reg(ArchReg::gpr(2)),
            Operand::Reg(ArchReg::gpr(1)),
        )
        .wide()]);
        assert_eq!(f[0].lo.depth, RegisterDepth::D8);
        // REX present (for W), so a hidden 8..16 register can't be
        // ruled out.
        assert_eq!(f[0].hi.depth, RegisterDepth::D16);
        assert!(f[0].lo.wide && f[0].hi.wide);
    }

    #[test]
    fn minimal_feature_set_bumps_depth_for_viability() {
        let needs = FeatureNeeds {
            wide: true,
            ..FeatureNeeds::default()
        };
        let fs = needs.minimal_feature_set();
        assert_eq!(fs.width(), RegisterWidth::W64);
        assert_eq!(fs.depth(), RegisterDepth::D16);
    }

    #[test]
    fn predicated_def_is_weak_and_reads_its_guard() {
        let f = facts_of(&[MachineInst::compute(
            MacroOpcode::Mov,
            ArchReg::gpr(2),
            Operand::Reg(ArchReg::gpr(3)),
            Operand::None,
        )
        .predicated_on(ArchReg::gpr(9), false)]);
        assert!(!f[0].strong_def);
        assert_ne!(f[0].uses & bit(9), 0, "guard register is a use");
        assert!(f[0].lo.pred);
    }
}
