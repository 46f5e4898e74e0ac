//! Final compiled code and its statistics.
//!
//! [`CompiledCode`] is what the rest of the system consumes: encoded
//! machine code per block, profile weights, branch behaviour for the
//! predictor models, and the [`CodeStats`] that reproduce the paper's
//! Section III code-generation numbers (Figure 2).

use std::collections::HashMap;

use cisa_isa::inst::MachineInst;
use cisa_isa::uop::MicroOpKind;
use cisa_isa::{Encoder, FeatureSet, MacroOpcode};

use crate::ifconvert::IfConvertStats;
use crate::ir::Terminator;
use crate::regalloc::RegAllocStats;

/// A compiled basic block.
#[derive(Debug, Clone)]
pub struct CompiledBlock {
    /// Machine instructions (architectural registers, spill code
    /// included). The terminator is *not* in this list.
    pub insts: Vec<MachineInst>,
    /// Terminator, still carrying the branch behaviour annotation.
    pub term: Terminator,
    /// Dynamic weight (executions per phase unit; vectorized blocks are
    /// pre-scaled).
    pub weight: f64,
    /// Whether the block compiled to packed SIMD.
    pub vectorized: bool,
    /// Static encoded size of the block in bytes (terminator included).
    pub code_bytes: usize,
}

/// Dynamic (profile-weighted) and static statistics of compiled code.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CodeStats {
    /// Dynamic micro-op counts by kind.
    pub uops: HashMap<MicroOpKind, f64>,
    /// Dynamic macro-op count (terminators included).
    pub macro_ops: f64,
    /// Static code size in bytes.
    pub code_bytes: usize,
    /// Dynamic average macro-op encoded length in bytes.
    pub avg_inst_bytes: f64,
    /// Dynamic count of fully predicated instructions.
    pub predicated: f64,
    /// Register-allocation outcome.
    pub regalloc: RegAllocStats,
    /// If-conversion outcome.
    pub ifconvert: IfConvertStats,
}

impl CodeStats {
    /// Total dynamic micro-ops. Summed in a fixed kind order so the
    /// result is bit-deterministic (HashMap iteration order is not).
    pub fn total_uops(&self) -> f64 {
        cisa_isa::uop::MicroOpKind::ALL
            .iter()
            .map(|k| self.uop(*k))
            .sum()
    }

    /// Dynamic count for one micro-op kind.
    pub(crate) fn uop(&self, kind: MicroOpKind) -> f64 {
        self.uops.get(&kind).copied().unwrap_or(0.0)
    }

    /// Dynamic loads.
    pub fn loads(&self) -> f64 {
        self.uop(MicroOpKind::Load)
    }

    /// Dynamic stores.
    pub fn stores(&self) -> f64 {
        self.uop(MicroOpKind::Store)
    }

    /// Dynamic memory references (loads + stores).
    pub fn mem_refs(&self) -> f64 {
        self.loads() + self.stores()
    }

    /// Dynamic integer ALU ops (the paper's "integer instructions").
    pub fn int_ops(&self) -> f64 {
        self.uop(MicroOpKind::IntAlu) + self.uop(MicroOpKind::IntMul)
    }

    /// Dynamic conditional branches.
    pub fn branches(&self) -> f64 {
        self.uop(MicroOpKind::Branch)
    }

    /// Dynamic FP + SIMD ops.
    pub fn fp_vec_ops(&self) -> f64 {
        self.uop(MicroOpKind::FpAlu) + self.uop(MicroOpKind::FpMul) + self.uop(MicroOpKind::VecAlu)
    }
}

/// Compiled code for one (phase, feature set) pair.
#[derive(Debug, Clone)]
pub struct CompiledCode {
    /// Source function name.
    pub name: String,
    /// Target feature set.
    pub fs: FeatureSet,
    /// Blocks (ids match the source IR).
    pub blocks: Vec<CompiledBlock>,
    /// Statistics.
    pub stats: CodeStats,
}

/// The machine instruction a terminator encodes as.
pub fn terminator_inst(term: &Terminator) -> Option<MachineInst> {
    match term {
        Terminator::Branch { .. } => Some(MachineInst::branch()),
        Terminator::Jump(_) => Some(MachineInst::jump()),
        Terminator::Ret => Some(MachineInst {
            opcode: MacroOpcode::Ret,
            ..MachineInst::jump()
        }),
    }
}

/// Computes [`CodeStats`] and per-block byte sizes for allocated blocks;
/// used by the compile driver.
pub(crate) fn finalize(
    name: String,
    fs: FeatureSet,
    blocks: Vec<(Vec<MachineInst>, Terminator, f64, bool)>,
    regalloc: RegAllocStats,
    ifconvert: IfConvertStats,
) -> CompiledCode {
    let encoder = Encoder::new(fs);
    let mut stats = CodeStats {
        regalloc,
        ifconvert,
        ..Default::default()
    };
    let mut weighted_bytes = 0.0f64;
    let mut out_blocks = Vec::with_capacity(blocks.len());

    for (insts, term, weight, vectorized) in blocks {
        let mut block_bytes = 0usize;
        for inst in &insts {
            let enc_len = encoder
                .encode(inst)
                .map(|e| e.len())
                .unwrap_or_else(|_| fallback_len(inst));
            block_bytes += enc_len;
            weighted_bytes += weight * enc_len as f64;
            stats.macro_ops += weight;
            if inst.predicate.is_some() {
                stats.predicated += weight;
            }
            for uop in inst.micro_ops() {
                *stats.uops.entry(uop.kind).or_default() += weight;
            }
        }
        if let Some(tinst) = terminator_inst(&term) {
            let enc_len = encoder
                .encode(&tinst)
                .map(|e| e.len())
                .unwrap_or_else(|_| fallback_len(&tinst));
            block_bytes += enc_len;
            weighted_bytes += weight * enc_len as f64;
            stats.macro_ops += weight;
            for uop in tinst.micro_ops() {
                *stats.uops.entry(uop.kind).or_default() += weight;
            }
        }
        stats.code_bytes += block_bytes;
        out_blocks.push(CompiledBlock {
            insts,
            term,
            weight,
            vectorized,
            code_bytes: block_bytes,
        });
    }
    stats.avg_inst_bytes = if stats.macro_ops > 0.0 {
        weighted_bytes / stats.macro_ops
    } else {
        0.0
    };
    CompiledCode {
        name,
        fs,
        blocks: out_blocks,
        stats,
    }
}

/// Conservative length estimate for the rare instruction the encoder
/// rejects (should not happen for driver-produced code; kept total
/// rather than panicking inside large sweeps).
fn fallback_len(inst: &MachineInst) -> usize {
    4 + inst.mem.map_or(0, |m| 1 + m.disp_bytes as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cisa_isa::inst::{MemLocality, MemOperand, Operand};
    use cisa_isa::ArchReg;

    #[test]
    fn stats_accumulate_weighted_uops() {
        let fs = FeatureSet::x86_64();
        let insts = vec![
            MachineInst::load(
                ArchReg::gpr(1),
                MemOperand::base_only(ArchReg::gpr(2), MemLocality::Stream),
            ),
            MachineInst::compute(
                MacroOpcode::IntAlu,
                ArchReg::gpr(1),
                Operand::Reg(ArchReg::gpr(1)),
                Operand::None,
            ),
        ];
        let code = finalize(
            "t".into(),
            fs,
            vec![(insts, Terminator::Ret, 10.0, false)],
            RegAllocStats::default(),
            IfConvertStats::default(),
        );
        assert!(
            (code.stats.loads() - 20.0).abs() < 1e-9,
            "load + ret's pop, both x10"
        );
        assert!((code.stats.uop(MicroOpKind::IntAlu) - 10.0).abs() < 1e-9);
        // macro: load + alu + ret = 3, x10.
        assert!((code.stats.macro_ops - 30.0).abs() < 1e-9);
        assert!(code.stats.code_bytes > 0);
        assert!(code.stats.avg_inst_bytes > 1.0);
    }

    #[test]
    fn mem_refs_sums_loads_and_stores() {
        let mut s = CodeStats::default();
        s.uops.insert(MicroOpKind::Load, 3.0);
        s.uops.insert(MicroOpKind::Store, 2.0);
        assert_eq!(s.mem_refs(), 5.0);
        assert_eq!(s.total_uops(), 5.0);
    }

    #[test]
    fn terminator_insts() {
        assert!(terminator_inst(&Terminator::Ret).is_some());
        assert!(matches!(
            terminator_inst(&Terminator::Jump(crate::ir::BlockId(0)))
                .unwrap()
                .opcode,
            MacroOpcode::Jump
        ));
    }
}
