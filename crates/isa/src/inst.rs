//! Machine instructions (macro-ops) of the superset ISA.
//!
//! [`MachineInst`] is the common currency between the compiler back end
//! (which emits them), the encoder (which turns them into variable-length
//! bytes), the decode engine (which expands them into micro-ops) and the
//! pipeline models. The macro-op to micro-op expansion rules here are the
//! heart of the microx86-vs-x86 complexity axis: under
//! [`Complexity::MicroX86`](crate::Complexity) every legal
//! instruction expands to exactly one micro-op.

use std::fmt;

use crate::feature_set::{Complexity, FeatureSet, Predication, SimdSupport};
use crate::regs::ArchReg;
use crate::uop::{MicroOp, MicroOpKind};

/// Macro-op opcode groups of the superset ISA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MacroOpcode {
    /// Register/immediate move.
    Mov,
    /// Integer ALU operation (add/sub/logic/shift/compare).
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Address computation without a memory access (x86 `lea`).
    Lea,
    /// Explicit load (the only mem-read form legal under microx86).
    Load,
    /// Explicit store (the only mem-write form legal under microx86).
    Store,
    /// Scalar floating-point ALU op.
    FpAlu,
    /// Scalar floating-point multiply.
    FpMul,
    /// Packed SSE2 vector op.
    VecAlu,
    /// Conditional branch.
    Branch,
    /// Unconditional jump.
    Jump,
    /// Call (pushes a return address: 2 micro-ops under x86).
    Call,
    /// Return (pops a return address: 2 micro-ops under x86).
    Ret,
    /// Conditional move — x86's partial predication.
    Cmov,
    /// No-op.
    Nop,
}

/// Memory addressing modes of the superset ISA, in increasing
/// complexity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AddressingMode {
    /// `[base]`
    BaseOnly,
    /// `[base + disp8/32]`
    BaseDisp,
    /// `[base + index*scale + disp]` — requires a SIB byte.
    BaseIndexScaleDisp,
    /// `[disp32]` absolute.
    Absolute,
}

/// Locality class of a static memory access; drives the address streams
/// the workload model generates for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemLocality {
    /// Stack frame: spills, refills, saved registers — extremely hot.
    Stack,
    /// Sequential streaming over a large array.
    Stream,
    /// Working-set accesses with a benchmark-specific reuse distance.
    WorkingSet,
    /// Pointer chasing with poor locality (mcf-like).
    PointerChase,
}

/// The memory operand of a [`MachineInst`], if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemOperand {
    /// Addressing mode.
    pub mode: AddressingMode,
    /// Base register (ignored for `Absolute`).
    pub base: ArchReg,
    /// Index register, for `BaseIndexScaleDisp`.
    pub index: Option<ArchReg>,
    /// Displacement size in bytes (0, 1 or 4).
    pub disp_bytes: u8,
    /// Locality class for trace generation.
    pub locality: MemLocality,
}

impl MemOperand {
    /// Simple `[base]` operand.
    pub fn base_only(base: ArchReg, locality: MemLocality) -> Self {
        MemOperand {
            mode: AddressingMode::BaseOnly,
            base,
            index: None,
            disp_bytes: 0,
            locality,
        }
    }

    /// `[base + disp]` operand with the given displacement width.
    pub fn base_disp(base: ArchReg, disp_bytes: u8, locality: MemLocality) -> Self {
        debug_assert!(matches!(disp_bytes, 1 | 4));
        MemOperand {
            mode: AddressingMode::BaseDisp,
            base,
            index: None,
            disp_bytes,
            locality,
        }
    }

    /// Full `[base + index*scale + disp]` operand.
    pub fn base_index(
        base: ArchReg,
        index: ArchReg,
        disp_bytes: u8,
        locality: MemLocality,
    ) -> Self {
        MemOperand {
            mode: AddressingMode::BaseIndexScaleDisp,
            base,
            index: Some(index),
            disp_bytes,
            locality,
        }
    }
}

/// Role of the memory operand in a compute instruction (x86 complexity
/// only — microx86 permits memory operands only on `Load`/`Store`, plus
/// `Lea`, which computes an address without accessing memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MemRole {
    /// No memory operand.
    #[default]
    None,
    /// Memory operand is a source (`add reg, [mem]`): load + compute.
    Src,
    /// Memory operand is the destination (`add [mem], reg`):
    /// load + compute + store.
    Dst,
}

/// A register or immediate source operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Architectural register.
    Reg(ArchReg),
    /// Immediate of the given byte width (1, 2 or 4).
    Imm(u8),
    /// Absent.
    None,
}

impl Operand {
    /// The register, if this operand is one.
    pub fn reg(self) -> Option<ArchReg> {
        match self {
            Operand::Reg(r) => Some(r),
            _ => None,
        }
    }

    /// Immediate byte width, or 0.
    pub(crate) fn imm_bytes(self) -> u8 {
        match self {
            Operand::Imm(b) => b,
            _ => 0,
        }
    }
}

/// Predicate annotation on a fully predicated instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PredicateAnnotation {
    /// The general-purpose register holding the predicate.
    pub reg: ArchReg,
    /// Whether the instruction executes when the predicate is *false*.
    pub negated: bool,
}

/// A macro-op of the superset ISA.
///
/// # Example
///
/// ```
/// use cisa_isa::inst::*;
/// use cisa_isa::{ArchReg, FeatureSet, Complexity};
///
/// // add r1, [r2 + 16]  — one macro-op, two micro-ops under x86.
/// let inst = MachineInst::compute(MacroOpcode::IntAlu, ArchReg::gpr(1), Operand::Reg(ArchReg::gpr(1)), Operand::None)
///     .with_mem(MemOperand::base_disp(ArchReg::gpr(2), 1, MemLocality::WorkingSet), MemRole::Src);
/// assert_eq!(inst.micro_ops().len(), 2);
/// assert!(!inst.legal_under(&FeatureSet::minimal())); // microx86 forbids mem-operand ALU
/// assert!(inst.legal_under(&FeatureSet::x86_64()));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MachineInst {
    /// Opcode group.
    pub opcode: MacroOpcode,
    /// Destination register, if any.
    pub dst: Option<ArchReg>,
    /// First source operand.
    pub src1: Operand,
    /// Second source operand.
    pub src2: Operand,
    /// Memory operand, if any.
    pub mem: Option<MemOperand>,
    /// Role of the memory operand.
    pub mem_role: MemRole,
    /// Whether the operation is 64-bit (needs REX.W).
    pub wide: bool,
    /// Full-predication annotation, if predicated.
    pub predicate: Option<PredicateAnnotation>,
}

impl MachineInst {
    /// A compute instruction (`dst = op(src1, src2)`), no memory operand.
    pub fn compute(opcode: MacroOpcode, dst: ArchReg, src1: Operand, src2: Operand) -> Self {
        MachineInst {
            opcode,
            dst: Some(dst),
            src1,
            src2,
            mem: None,
            mem_role: MemRole::None,
            wide: false,
            predicate: None,
        }
    }

    /// An explicit load `dst = [mem]`.
    pub fn load(dst: ArchReg, mem: MemOperand) -> Self {
        MachineInst {
            opcode: MacroOpcode::Load,
            dst: Some(dst),
            src1: Operand::None,
            src2: Operand::None,
            mem: Some(mem),
            mem_role: MemRole::Src,
            wide: false,
            predicate: None,
        }
    }

    /// An explicit store `[mem] = src`.
    pub fn store(src: ArchReg, mem: MemOperand) -> Self {
        MachineInst {
            opcode: MacroOpcode::Store,
            dst: None,
            src1: Operand::Reg(src),
            src2: Operand::None,
            mem: Some(mem),
            mem_role: MemRole::Dst,
            wide: false,
            predicate: None,
        }
    }

    /// A conditional branch (condition codes implied by a preceding
    /// compare).
    pub fn branch() -> Self {
        MachineInst {
            opcode: MacroOpcode::Branch,
            dst: None,
            src1: Operand::None,
            src2: Operand::None,
            mem: None,
            mem_role: MemRole::None,
            wide: false,
            predicate: None,
        }
    }

    /// An unconditional jump.
    pub fn jump() -> Self {
        MachineInst {
            opcode: MacroOpcode::Jump,
            ..MachineInst::branch()
        }
    }

    /// Attaches a memory operand with the given role (builder style).
    #[must_use]
    pub fn with_mem(mut self, mem: MemOperand, role: MemRole) -> Self {
        self.mem = Some(mem);
        self.mem_role = role;
        self
    }

    /// Marks the instruction as 64-bit (builder style).
    #[must_use]
    pub fn wide(mut self) -> Self {
        self.wide = true;
        self
    }

    /// Predicates the instruction on `reg` (builder style).
    #[must_use]
    pub fn predicated_on(mut self, reg: ArchReg, negated: bool) -> Self {
        self.predicate = Some(PredicateAnnotation { reg, negated });
        self
    }

    /// Whether this macro-op is legal under a feature set.
    ///
    /// microx86 forbids memory operands on compute instructions and all
    /// vector ops; full predication requires `Predication::Full`; every
    /// referenced register must be available at the feature set's depth.
    pub fn legal_under(&self, fs: &FeatureSet) -> bool {
        if fs.complexity() == Complexity::MicroX86 {
            // Lea only computes an address, so its memory operand is
            // legal everywhere; real accesses must be Load/Store.
            let mem_on_compute = self.mem.is_some()
                && !matches!(
                    self.opcode,
                    MacroOpcode::Load | MacroOpcode::Store | MacroOpcode::Lea
                );
            if mem_on_compute {
                return false;
            }
        }
        if self.opcode == MacroOpcode::VecAlu && fs.simd() != SimdSupport::Sse {
            return false;
        }
        if self.predicate.is_some() && fs.predication() != Predication::Full {
            return false;
        }
        if self.wide && fs.width() == crate::feature_set::RegisterWidth::W32 {
            return false;
        }
        self.registers().all(|r| r.available_in(fs))
    }

    /// Iterator over every architectural register the instruction
    /// references (dst, sources, base, index, predicate).
    pub fn registers(&self) -> impl Iterator<Item = ArchReg> + '_ {
        self.dst
            .into_iter()
            .chain(self.src1.reg())
            .chain(self.src2.reg())
            .chain(
                self.mem.map(|m| m.base).filter(|_| {
                    !matches!(self.mem.map(|m| m.mode), Some(AddressingMode::Absolute))
                }),
            )
            .chain(self.mem.and_then(|m| m.index))
            .chain(self.predicate.map(|p| p.reg))
    }

    /// Expands the macro-op into its micro-ops (the 1:n decode of full
    /// x86). Register slots in the produced [`MicroOp`]s use
    /// architectural GPR indices; memory micro-ops keep the macro-op's
    /// locality for trace generation.
    ///
    /// Expansion counts: plain ops 1; mem-src compute 2; mem-dst compute
    /// 3; call/ret 2; everything legal under microx86 exactly 1.
    pub fn micro_ops(&self) -> Vec<MicroOp> {
        let reg = |o: Operand| o.reg().map_or(MicroOp::NO_REG, |r| r.index());
        let dst = self.dst.map_or(MicroOp::NO_REG, |r| r.index());
        let pred = self.predicate.map(|p| p.reg.index());
        let apply_pred = |mut op: MicroOp| {
            if let Some(p) = pred {
                op = op.predicated(p);
            }
            op
        };
        let base_kind = match self.opcode {
            MacroOpcode::Mov | MacroOpcode::IntAlu | MacroOpcode::Lea | MacroOpcode::Cmov => {
                MicroOpKind::IntAlu
            }
            MacroOpcode::IntMul => MicroOpKind::IntMul,
            MacroOpcode::Load => MicroOpKind::Load,
            MacroOpcode::Store => MicroOpKind::Store,
            MacroOpcode::FpAlu => MicroOpKind::FpAlu,
            MacroOpcode::FpMul => MicroOpKind::FpMul,
            MacroOpcode::VecAlu => MicroOpKind::VecAlu,
            MacroOpcode::Branch => MicroOpKind::Branch,
            MacroOpcode::Jump => MicroOpKind::Jump,
            MacroOpcode::Call | MacroOpcode::Ret => MicroOpKind::Jump,
            MacroOpcode::Nop => MicroOpKind::Nop,
        };

        let mut uops = Vec::with_capacity(3);
        match self.opcode {
            MacroOpcode::Load => {
                uops.push(apply_pred(MicroOp::new(
                    MicroOpKind::Load,
                    dst,
                    self.mem.map_or(MicroOp::NO_REG, |m| m.base.index()),
                    self.mem
                        .and_then(|m| m.index)
                        .map_or(MicroOp::NO_REG, |r| r.index()),
                )));
            }
            MacroOpcode::Store => {
                uops.push(apply_pred(MicroOp::new(
                    MicroOpKind::Store,
                    MicroOp::NO_REG,
                    reg(self.src1),
                    self.mem.map_or(MicroOp::NO_REG, |m| m.base.index()),
                )));
            }
            MacroOpcode::Call => {
                // Push return address, then transfer.
                uops.push(MicroOp::new(
                    MicroOpKind::Store,
                    MicroOp::NO_REG,
                    MicroOp::NO_REG,
                    MicroOp::NO_REG,
                ));
                uops.push(MicroOp::bare(MicroOpKind::Jump));
            }
            MacroOpcode::Ret => {
                uops.push(MicroOp::new(
                    MicroOpKind::Load,
                    MicroOp::NO_REG,
                    MicroOp::NO_REG,
                    MicroOp::NO_REG,
                ));
                uops.push(MicroOp::bare(MicroOpKind::Jump));
            }
            MacroOpcode::Lea => {
                // Pure address arithmetic: one ALU uop over the address
                // registers, no memory micro-op.
                uops.push(apply_pred(MicroOp::new(
                    MicroOpKind::IntAlu,
                    dst,
                    self.mem.map_or(reg(self.src1), |m| m.base.index()),
                    self.mem
                        .and_then(|m| m.index)
                        .map_or(MicroOp::NO_REG, |r| r.index()),
                )));
            }
            _ => match (self.mem, self.mem_role) {
                (Some(m), MemRole::Src) => {
                    // load tmp <- [mem]; op dst <- dst_src, tmp
                    uops.push(apply_pred(MicroOp::new(
                        MicroOpKind::Load,
                        dst,
                        m.base.index(),
                        m.index.map_or(MicroOp::NO_REG, |r| r.index()),
                    )));
                    uops.push(apply_pred(MicroOp::new(
                        base_kind,
                        dst,
                        reg(self.src1),
                        dst,
                    )));
                }
                (Some(m), MemRole::Dst) => {
                    uops.push(apply_pred(MicroOp::new(
                        MicroOpKind::Load,
                        dst,
                        m.base.index(),
                        m.index.map_or(MicroOp::NO_REG, |r| r.index()),
                    )));
                    uops.push(apply_pred(MicroOp::new(
                        base_kind,
                        dst,
                        reg(self.src1),
                        dst,
                    )));
                    uops.push(apply_pred(MicroOp::new(
                        MicroOpKind::Store,
                        MicroOp::NO_REG,
                        dst,
                        m.base.index(),
                    )));
                }
                _ => {
                    uops.push(apply_pred(MicroOp::new(
                        base_kind,
                        dst,
                        reg(self.src1),
                        reg(self.src2),
                    )));
                }
            },
        }
        uops
    }

    /// Number of micro-ops this macro-op decodes into.
    pub fn uop_count(&self) -> usize {
        match self.opcode {
            MacroOpcode::Call | MacroOpcode::Ret => 2,
            MacroOpcode::Load | MacroOpcode::Store | MacroOpcode::Lea => 1,
            _ => match self.mem_role {
                MemRole::None => 1,
                MemRole::Src => 2,
                MemRole::Dst => 3,
            },
        }
    }
}

impl fmt::Display for MachineInst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(p) = self.predicate {
            write!(f, "({}{}) ", if p.negated { "!" } else { "" }, p.reg)?;
        }
        write!(f, "{:?}", self.opcode)?;
        if let Some(d) = self.dst {
            write!(f, " {d}")?;
        }
        if let Operand::Reg(r) = self.src1 {
            write!(f, ", {r}")?;
        }
        if let Operand::Reg(r) = self.src2 {
            write!(f, ", {r}")?;
        }
        if let Some(m) = self.mem {
            write!(f, ", [{}{:?}]", m.base, m.mode)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature_set::{RegisterDepth, RegisterWidth};

    fn r(i: u8) -> ArchReg {
        ArchReg::gpr(i)
    }

    #[test]
    fn plain_alu_is_one_uop() {
        let i = MachineInst::compute(
            MacroOpcode::IntAlu,
            r(1),
            Operand::Reg(r(2)),
            Operand::Reg(r(3)),
        );
        assert_eq!(i.micro_ops().len(), 1);
        assert_eq!(i.uop_count(), 1);
        assert!(i.legal_under(&FeatureSet::minimal()));
    }

    #[test]
    fn mem_src_alu_is_two_uops() {
        let i = MachineInst::compute(MacroOpcode::IntAlu, r(1), Operand::Reg(r(1)), Operand::None)
            .with_mem(
                MemOperand::base_disp(r(2), 1, MemLocality::WorkingSet),
                MemRole::Src,
            );
        let uops = i.micro_ops();
        assert_eq!(uops.len(), 2);
        assert_eq!(uops[0].kind, MicroOpKind::Load);
        assert_eq!(uops[1].kind, MicroOpKind::IntAlu);
        assert_eq!(i.uop_count(), 2);
    }

    #[test]
    fn mem_dst_alu_is_three_uops() {
        let i = MachineInst::compute(MacroOpcode::IntAlu, r(1), Operand::Reg(r(3)), Operand::None)
            .with_mem(
                MemOperand::base_only(r(2), MemLocality::WorkingSet),
                MemRole::Dst,
            );
        let kinds: Vec<_> = i.micro_ops().iter().map(|u| u.kind).collect();
        assert_eq!(
            kinds,
            vec![MicroOpKind::Load, MicroOpKind::IntAlu, MicroOpKind::Store]
        );
    }

    #[test]
    fn call_ret_expand_to_two() {
        let call = MachineInst {
            opcode: MacroOpcode::Call,
            ..MachineInst::jump()
        };
        assert_eq!(call.micro_ops().len(), 2);
        let ret = MachineInst {
            opcode: MacroOpcode::Ret,
            ..MachineInst::jump()
        };
        assert_eq!(ret.micro_ops().len(), 2);
    }

    #[test]
    fn microx86_legality() {
        let minimal = FeatureSet::minimal();
        let load = MachineInst::load(r(1), MemOperand::base_only(r(2), MemLocality::Stack));
        assert!(load.legal_under(&minimal));
        let mem_alu =
            MachineInst::compute(MacroOpcode::IntAlu, r(1), Operand::Reg(r(1)), Operand::None)
                .with_mem(
                    MemOperand::base_only(r(2), MemLocality::Stack),
                    MemRole::Src,
                );
        assert!(!mem_alu.legal_under(&minimal));
        assert!(mem_alu.legal_under(&FeatureSet::x86_64()));
    }

    #[test]
    fn vector_needs_sse() {
        let v = MachineInst::compute(MacroOpcode::VecAlu, r(1), Operand::Reg(r(2)), Operand::None);
        assert!(!v.legal_under(&FeatureSet::minimal()));
        assert!(v.legal_under(&FeatureSet::x86_64()));
    }

    #[test]
    fn predication_needs_full_support() {
        let p = MachineInst::compute(MacroOpcode::IntAlu, r(1), Operand::Reg(r(2)), Operand::None)
            .predicated_on(r(5), false);
        assert!(
            !p.legal_under(&FeatureSet::x86_64()),
            "x86-64 is partial-pred"
        );
        assert!(p.legal_under(&FeatureSet::superset()));
        // The predicate register flows into every micro-op.
        assert!(p.micro_ops().iter().all(|u| u.pred == 5));
    }

    #[test]
    fn deep_registers_need_depth() {
        let fs16 = FeatureSet::x86_64(); // depth 16
        let i = MachineInst::compute(
            MacroOpcode::IntAlu,
            r(40),
            Operand::Reg(r(2)),
            Operand::None,
        );
        assert!(!i.legal_under(&fs16));
        assert!(i.legal_under(&FeatureSet::superset()));
    }

    #[test]
    fn wide_ops_need_64bit() {
        let w32 = FeatureSet::new(
            Complexity::X86,
            RegisterWidth::W32,
            RegisterDepth::D16,
            Predication::Partial,
        )
        .unwrap();
        let i = MachineInst::compute(MacroOpcode::IntAlu, r(1), Operand::Reg(r(2)), Operand::None)
            .wide();
        assert!(!i.legal_under(&w32));
        assert!(i.legal_under(&FeatureSet::x86_64()));
    }

    #[test]
    fn uop_count_matches_expansion() {
        let insts = [
            MachineInst::compute(MacroOpcode::FpAlu, r(1), Operand::Reg(r(2)), Operand::None),
            MachineInst::load(r(1), MemOperand::base_only(r(2), MemLocality::Stream)),
            MachineInst::store(r(1), MemOperand::base_disp(r(2), 4, MemLocality::Stack)),
            MachineInst::branch(),
            MachineInst::compute(MacroOpcode::IntAlu, r(1), Operand::Reg(r(1)), Operand::None)
                .with_mem(
                    MemOperand::base_index(r(2), r(3), 4, MemLocality::Stream),
                    MemRole::Src,
                ),
        ];
        for i in insts {
            assert_eq!(i.uop_count(), i.micro_ops().len(), "{i}");
        }
    }

    #[test]
    fn lea_is_pure_address_arithmetic() {
        // Regression: Lea is documented as "address computation without a
        // memory access", but its metadata used to treat the address
        // operand as a real access (illegal under microx86, Load uop).
        // Both views must agree it is a single ALU op that never touches
        // memory.
        let lea = MachineInst {
            opcode: MacroOpcode::Lea,
            dst: Some(r(1)),
            src1: Operand::None,
            src2: Operand::None,
            mem: Some(MemOperand::base_index(r(2), r(3), 1, MemLocality::Stream)),
            mem_role: MemRole::Src,
            wide: false,
            predicate: None,
        };
        assert!(lea.legal_under(&FeatureSet::minimal()), "legal on microx86");
        let uops = lea.micro_ops();
        assert_eq!(uops.len(), 1);
        assert_eq!(uops[0].kind, MicroOpKind::IntAlu);
        assert_eq!(lea.uop_count(), uops.len());
        // The address registers are still architectural inputs.
        let regs: Vec<_> = lea.registers().map(|x| x.index()).collect();
        assert_eq!(regs, vec![1, 2, 3]);
    }

    #[test]
    fn registers_iterates_all_references() {
        let i = MachineInst::compute(MacroOpcode::IntAlu, r(1), Operand::Reg(r(2)), Operand::None)
            .with_mem(
                MemOperand::base_index(r(3), r(4), 0, MemLocality::Stream),
                MemRole::Src,
            )
            .predicated_on(r(5), true);
        let regs: Vec<_> = i.registers().map(|x| x.index()).collect();
        assert_eq!(regs, vec![1, 2, 3, 4, 5]);
    }
}
