//! The micro-op ISA: what macro-ops decode into and what the execution
//! engines actually schedule.

use std::fmt;

/// The kind of a single micro-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MicroOpKind {
    /// Memory read.
    Load,
    /// Memory write.
    Store,
    /// Single-cycle integer ALU operation (add, logic, shift, compare,
    /// conditional move).
    IntAlu,
    /// Multi-cycle integer multiply/divide.
    IntMul,
    /// Floating-point ALU operation.
    FpAlu,
    /// Multi-cycle floating-point multiply/divide.
    FpMul,
    /// Packed SIMD operation (SSE2-class, up to 128-bit).
    VecAlu,
    /// Conditional branch.
    Branch,
    /// Unconditional jump / call / return transfer.
    Jump,
    /// No-op (also used for fences and padding in tests).
    Nop,
}

impl MicroOpKind {
    /// Every micro-op kind, in a stable order.
    pub const ALL: [MicroOpKind; 10] = [
        MicroOpKind::Load,
        MicroOpKind::Store,
        MicroOpKind::IntAlu,
        MicroOpKind::IntMul,
        MicroOpKind::FpAlu,
        MicroOpKind::FpMul,
        MicroOpKind::VecAlu,
        MicroOpKind::Branch,
        MicroOpKind::Jump,
        MicroOpKind::Nop,
    ];

    /// The functional-unit class that executes this micro-op.
    pub fn class(self) -> UopClass {
        match self {
            MicroOpKind::Load | MicroOpKind::Store => UopClass::Mem,
            MicroOpKind::IntAlu | MicroOpKind::Branch | MicroOpKind::Jump | MicroOpKind::Nop => {
                UopClass::Int
            }
            MicroOpKind::IntMul => UopClass::IntMul,
            MicroOpKind::FpAlu | MicroOpKind::FpMul => UopClass::Fp,
            MicroOpKind::VecAlu => UopClass::Vec,
        }
    }

    /// Nominal execution latency in cycles (cache hits for memory ops;
    /// misses are modelled by the memory hierarchy).
    pub fn latency(self) -> u32 {
        match self {
            MicroOpKind::Load => 3,
            MicroOpKind::Store => 1,
            MicroOpKind::IntAlu | MicroOpKind::Nop => 1,
            MicroOpKind::IntMul => 4,
            MicroOpKind::FpAlu => 3,
            MicroOpKind::FpMul => 5,
            MicroOpKind::VecAlu => 3,
            MicroOpKind::Branch | MicroOpKind::Jump => 1,
        }
    }

    /// Whether this micro-op reads or writes memory.
    pub fn is_mem(self) -> bool {
        matches!(self, MicroOpKind::Load | MicroOpKind::Store)
    }

    /// Whether this micro-op redirects control flow.
    pub fn is_control(self) -> bool {
        matches!(self, MicroOpKind::Branch | MicroOpKind::Jump)
    }
}

impl fmt::Display for MicroOpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MicroOpKind::Load => "load",
            MicroOpKind::Store => "store",
            MicroOpKind::IntAlu => "int",
            MicroOpKind::IntMul => "imul",
            MicroOpKind::FpAlu => "fp",
            MicroOpKind::FpMul => "fpmul",
            MicroOpKind::VecAlu => "vec",
            MicroOpKind::Branch => "branch",
            MicroOpKind::Jump => "jump",
            MicroOpKind::Nop => "nop",
        };
        f.write_str(s)
    }
}

/// Functional-unit classes used for issue-port binding and for the
/// instruction-mix statistics of Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum UopClass {
    /// Load/store pipeline (LSQ + AGU).
    Mem,
    /// Simple integer ALU (also executes branch resolution).
    Int,
    /// Integer multiplier.
    IntMul,
    /// Scalar floating-point unit.
    Fp,
    /// Packed SIMD unit.
    Vec,
}

/// A decoded micro-op as it flows through the pipeline models.
///
/// Register identifiers are small dense indices assigned by the code
/// generator (architectural register numbers); `NO_REG` marks an unused
/// slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicroOp {
    /// Kind of operation.
    pub kind: MicroOpKind,
    /// Destination architectural register, or [`MicroOp::NO_REG`].
    pub dst: u8,
    /// First source register, or [`MicroOp::NO_REG`].
    pub src1: u8,
    /// Second source register, or [`MicroOp::NO_REG`].
    pub src2: u8,
    /// For predicated micro-ops: the predicate register (also a source).
    pub pred: u8,
}

impl MicroOp {
    /// Sentinel meaning "no register in this slot".
    pub const NO_REG: u8 = u8::MAX;

    /// A micro-op with no register operands.
    pub(crate) fn bare(kind: MicroOpKind) -> Self {
        MicroOp {
            kind,
            dst: Self::NO_REG,
            src1: Self::NO_REG,
            src2: Self::NO_REG,
            pred: Self::NO_REG,
        }
    }

    /// A micro-op with the given destination and sources.
    pub(crate) fn new(kind: MicroOpKind, dst: u8, src1: u8, src2: u8) -> Self {
        MicroOp {
            kind,
            dst,
            src1,
            src2,
            pred: Self::NO_REG,
        }
    }

    /// Returns this micro-op with a predicate register attached.
    pub(crate) fn predicated(mut self, pred: u8) -> Self {
        self.pred = pred;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_partition_kinds() {
        for kind in MicroOpKind::ALL {
            // Every kind maps to exactly one class, and latencies are
            // nonzero.
            let _ = kind.class();
            assert!(kind.latency() >= 1);
        }
        assert_eq!(MicroOpKind::Load.class(), UopClass::Mem);
        assert_eq!(MicroOpKind::Branch.class(), UopClass::Int);
        assert_eq!(MicroOpKind::VecAlu.class(), UopClass::Vec);
        assert_eq!(MicroOpKind::IntMul.class(), UopClass::IntMul);
    }

    #[test]
    fn mem_and_control_predicates() {
        assert!(MicroOpKind::Load.is_mem());
        assert!(MicroOpKind::Store.is_mem());
        assert!(!MicroOpKind::IntAlu.is_mem());
        assert!(MicroOpKind::Branch.is_control());
        assert!(MicroOpKind::Jump.is_control());
        assert!(!MicroOpKind::Store.is_control());
    }
}
