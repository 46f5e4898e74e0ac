//! Feature-downgrade emulation (Section IV-B, Section VII-D).
//!
//! When a process migrates to a core implementing only a *subset* of
//! the features its code uses, the runtime performs minimal binary
//! translation. Because the feature sets overlap (same opcodes, same
//! encodings), this is a small set of local code transformations, not
//! cross-ISA translation:
//!
//! - **complexity downgrade** (x86 -> microx86): memory-operand compute
//!   instructions are expanded to load-compute-store sequences through
//!   a translator scratch register;
//! - **register-depth downgrade**: architectural registers beyond the
//!   core's depth live in a *register context block* in memory — every
//!   use loads from it, every def stores back;
//! - **width downgrade** (64-bit -> 32-bit): 64-bit data operations are
//!   double-pumped, with fat pointers kept in xmm registers
//!   (long-mode emulation);
//! - **predication downgrade**: predicated instruction runs are
//!   reverse-if-converted back to explicit branches;
//! - **SIMD downgrade**: vector ALU ops are rewritten 1:1 to scalar FP
//!   ops (the trace model restores the per-lane iteration count once
//!   the block loses its `vectorized` flag).
//!
//! [`emulate`] applies the transformations; [`downgrade_cost`] measures
//! the resulting slowdown with the cycle simulator.

use cisa_compiler::{compile, CompileOptions, CompiledBlock, CompiledCode};
use cisa_isa::inst::{MachineInst, MacroOpcode, MemLocality, MemOperand, MemRole, Operand};
use cisa_isa::{ArchReg, FeatureSet, SimdSupport};
use cisa_sim::{simulate, CoreConfig};
use cisa_workloads::{generate, PhaseSpec, TraceArena, TraceParams};

use crate::error::MigrateError;

/// Statistics of one emulation transform.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EmulationStats {
    /// Memory-operand instructions expanded (complexity gap).
    pub expanded_mem_ops: u64,
    /// Register accesses redirected to the register context block.
    pub rcb_accesses: u64,
    /// Instructions double-pumped for the width gap.
    pub double_pumped: u64,
    /// Predicated runs converted back to branches.
    pub reverse_if_conversions: u64,
    /// Vector ALU ops rewritten to scalar FP ops (SIMD gap).
    pub scalarized_vec_ops: u64,
}

/// The register context block lives at a fixed hot stack-adjacent
/// address; accesses are `Stack`-class (hot in L1).
fn rcb_mem() -> MemOperand {
    MemOperand::base_disp(ArchReg::gpr(4), 1, MemLocality::Stack)
}

/// Translator scratch registers (always within every depth: r0-r2).
fn scratch(i: usize) -> ArchReg {
    ArchReg::gpr([0u8, 1, 2][i % 3])
}

/// Remaps a register to a scratch if it exceeds the target depth,
/// emitting RCB refills/spills.
fn remap_reg(
    r: ArchReg,
    depth: u32,
    out: &mut Vec<MachineInst>,
    is_def: bool,
    stats: &mut EmulationStats,
    scratch_idx: &mut usize,
) -> ArchReg {
    if (r.index() as u32) < depth {
        return r;
    }
    stats.rcb_accesses += 1;
    let s = scratch(*scratch_idx);
    *scratch_idx += 1;
    if !is_def {
        out.push(MachineInst::load(s, rcb_mem()));
    }
    s
}

/// # Example
///
/// ```
/// use cisa_compiler::{compile, CompileOptions};
/// use cisa_isa::FeatureSet;
/// use cisa_migrate::emulate;
/// use cisa_workloads::{all_phases, generate};
///
/// let code = compile(&generate(&all_phases()[0]), &FeatureSet::superset(),
///                    &CompileOptions::default()).map_err(Box::new)?;
/// // Downgrade to plain x86-64: deep registers move to the register
/// // context block, predicated runs become branches again.
/// let (emulated, stats) = emulate(&code, &FeatureSet::x86_64()).map_err(Box::new)?;
/// assert!(stats.rcb_accesses > 0 || stats.reverse_if_conversions > 0);
/// assert_eq!(emulated.fs, FeatureSet::x86_64());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// Applies downgrade emulation so `code` (compiled for its own feature
/// set) can run on a core implementing only `target`. Returns the
/// transformed code and the transform statistics.
///
/// If `target` covers the code's feature set the code is returned
/// unchanged (the zero-cost *upgrade* path). The only failure mode is
/// corrupted input code — a memory-operand instruction whose operand
/// or destination vanishes mid-transform — reported as
/// [`MigrateError::Emulation`] naming the block and instruction.
pub fn emulate(
    code: &CompiledCode,
    target: &FeatureSet,
) -> Result<(CompiledCode, EmulationStats), MigrateError> {
    let mut stats = EmulationStats::default();
    if target.covers(&code.fs) {
        return Ok((code.clone(), stats));
    }
    let depth = target.depth().count();
    let narrow = target.width() < code.fs.width();
    let micro = target.complexity() < code.fs.complexity();
    let strip_pred = target.predication() < code.fs.predication();
    let scalarize = code.fs.simd() == SimdSupport::Sse && target.simd() != SimdSupport::Sse;

    let mut blocks = Vec::with_capacity(code.blocks.len());
    for (bi, b) in code.blocks.iter().enumerate() {
        let mut insts: Vec<MachineInst> = Vec::with_capacity(b.insts.len() * 2);
        let mut prev_pred: Option<(u8, bool)> = None;
        for (ii, inst) in b.insts.iter().enumerate() {
            let mut inst = *inst;

            // Reverse if-conversion: a new predicated run costs one
            // reconstructed branch; the instructions themselves lose
            // their predicate prefix.
            if strip_pred {
                if let Some(p) = inst.predicate {
                    let key = (p.reg.index(), p.negated);
                    if prev_pred != Some(key) {
                        insts.push(MachineInst::branch());
                        stats.reverse_if_conversions += 1;
                    }
                    prev_pred = Some(key);
                    inst.predicate = None;
                } else {
                    prev_pred = None;
                }
            }

            // SIMD downgrade: rewrite vector ALU ops to scalar FP ops
            // 1:1. The trace generator already re-scales iteration
            // counts when a block loses its `vectorized` flag (each
            // iteration covers one lane instead of four), so one scalar
            // op per vector op keeps the dynamic work model consistent.
            if scalarize && inst.opcode == MacroOpcode::VecAlu {
                inst.opcode = MacroOpcode::FpAlu;
                stats.scalarized_vec_ops += 1;
            }

            // Register-depth downgrade through the RCB.
            let mut scratch_idx = 0usize;
            let mut dst_remapped = false;
            if let Some(r) = inst.dst {
                if (r.index() as u32) >= depth {
                    dst_remapped = true;
                }
                inst.dst = Some(remap_reg(
                    r,
                    depth,
                    &mut insts,
                    true,
                    &mut stats,
                    &mut scratch_idx,
                ));
            }
            if let Operand::Reg(r) = inst.src1 {
                inst.src1 = Operand::Reg(remap_reg(
                    r,
                    depth,
                    &mut insts,
                    false,
                    &mut stats,
                    &mut scratch_idx,
                ));
            }
            if let Operand::Reg(r) = inst.src2 {
                inst.src2 = Operand::Reg(remap_reg(
                    r,
                    depth,
                    &mut insts,
                    false,
                    &mut stats,
                    &mut scratch_idx,
                ));
            }
            // A surviving predicate guard (target keeps full
            // predication, only the depth shrank) is a register use
            // like any other and must fit the target depth.
            if let Some(p) = &mut inst.predicate {
                p.reg = remap_reg(
                    p.reg,
                    depth,
                    &mut insts,
                    false,
                    &mut stats,
                    &mut scratch_idx,
                );
            }
            let mut mem = inst.mem;
            if let Some(m) = &mut mem {
                m.base = remap_reg(
                    m.base,
                    depth,
                    &mut insts,
                    false,
                    &mut stats,
                    &mut scratch_idx,
                );
                if let Some(ix) = m.index {
                    m.index = Some(remap_reg(
                        ix,
                        depth,
                        &mut insts,
                        false,
                        &mut stats,
                        &mut scratch_idx,
                    ));
                }
            }
            inst.mem = mem;

            // Width double-pumping (64-bit data on a 32-bit core): the
            // instruction and its expansion products are each emitted
            // twice (lo/hi halves, fat-pointer halves in xmm modelled
            // as a second op on the low file).
            let pump = narrow && inst.wide;
            if pump {
                stats.double_pumped += 1;
                inst.wide = false;
            }
            let copies = if pump { 2 } else { 1 };

            // Complexity downgrade first: expand memory-operand compute
            // forms to load-compute(-store), then double-pump the
            // expanded sequence so the result is microx86-legal even
            // for wide memory-operand instructions.
            if micro
                && inst.mem.is_some()
                && !matches!(inst.opcode, MacroOpcode::Load | MacroOpcode::Store)
            {
                stats.expanded_mem_ops += 1;
                let m = inst.mem.take().ok_or(MigrateError::Emulation {
                    block: bi,
                    index: ii,
                    reason: "memory operand vanished during expansion",
                })?;
                let role = std::mem::replace(&mut inst.mem_role, MemRole::None);
                let s = scratch(2);
                for _ in 0..copies {
                    match role {
                        MemRole::Src => {
                            insts.push(MachineInst::load(s, m));
                            inst.src2 = Operand::Reg(s);
                            insts.push(inst);
                        }
                        MemRole::Dst | MemRole::None => {
                            insts.push(MachineInst::load(s, m));
                            inst.src2 = Operand::Reg(s);
                            inst.dst = Some(s);
                            insts.push(inst);
                            insts.push(MachineInst::store(s, m));
                        }
                    }
                }
                if dst_remapped {
                    insts.push(MachineInst::store(s, rcb_mem()));
                }
                continue;
            }

            for _ in 0..copies {
                insts.push(inst);
            }
            if dst_remapped {
                let dst = inst.dst.ok_or(MigrateError::Emulation {
                    block: bi,
                    index: ii,
                    reason: "remapped destination register vanished",
                })?;
                insts.push(MachineInst::store(dst, rcb_mem()));
            }
        }
        blocks.push(CompiledBlock {
            insts,
            term: b.term,
            weight: b.weight,
            vectorized: b.vectorized && target.simd() == code.fs.simd(),
            code_bytes: b.code_bytes,
        });
    }

    let mut out = code.clone();
    out.blocks = blocks;
    out.fs = *target;
    Ok((out, stats))
}

/// Measures the slowdown of running `spec`'s code compiled for
/// `compiled_for` on a core implementing only `target`, relative to the
/// same code on an unconstrained core of the same microarchitecture.
///
/// Returns `emulated_time / native_time` (1.0 = free; >1 = overhead;
/// <1 = the downgrade helped, as the paper observes for some 64->32-bit
/// cases). A phase that fails to compile for `compiled_for` — possible
/// only under fault injection — surfaces as [`MigrateError::Compile`]
/// naming the phase and feature set.
pub fn downgrade_cost(
    spec: &PhaseSpec,
    compiled_for: FeatureSet,
    target: FeatureSet,
) -> Result<f64, MigrateError> {
    let code =
        compile(&generate(spec), &compiled_for, &CompileOptions::default()).map_err(|source| {
            MigrateError::Compile {
                benchmark: spec.benchmark.to_string(),
                phase: spec.index as usize,
                fs: compiled_for,
                source,
            }
        })?;
    let (emulated, _) = emulate(&code, &target)?;

    let params = TraceParams {
        max_uops: 24_000,
        seed: 0xD04,
    };
    let native_cfg = CoreConfig::reference(compiled_for);
    let native = simulate(&native_cfg, &TraceArena::build(&code, spec, params));
    let constrained_cfg = CoreConfig::reference(target);
    let emul = simulate(
        &constrained_cfg,
        &TraceArena::build(&emulated, spec, params),
    );

    // Normalize by work: both traces are uop-capped, so compare
    // cycles-per-unit using each code's dynamic uops per unit.
    let native_cpu = native.cycles as f64 / code.stats.total_uops();
    let emul_cpu = emul.cycles as f64 / emulated.stats.total_uops();
    // The emulated code's *stats* were not recomputed by `emulate`
    // (weights unchanged); scale by the uop expansion observed in the
    // traces instead.
    let expansion = emulated
        .blocks
        .iter()
        .map(|b| b.weight * b.insts.len() as f64)
        .sum::<f64>()
        / code
            .blocks
            .iter()
            .map(|b| b.weight * b.insts.len() as f64)
            .sum::<f64>()
            .max(1e-9);
    Ok((emul_cpu * expansion) / native_cpu)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cisa_workloads::all_phases;

    fn spec(bench: &str) -> PhaseSpec {
        all_phases()
            .into_iter()
            .find(|p| p.benchmark == bench)
            .unwrap()
    }

    fn superset_code(bench: &str) -> CompiledCode {
        compile(
            &generate(&spec(bench)),
            &FeatureSet::superset(),
            &CompileOptions::default(),
        )
        .unwrap()
    }

    #[test]
    fn upgrade_is_identity() {
        let code = compile(
            &generate(&spec("bzip2")),
            &FeatureSet::minimal(),
            &CompileOptions::default(),
        )
        .unwrap();
        let (out, stats) = emulate(&code, &FeatureSet::superset()).unwrap();
        assert_eq!(stats, EmulationStats::default());
        assert_eq!(out.blocks.len(), code.blocks.len());
    }

    #[test]
    fn depth_downgrade_adds_rcb_traffic() {
        let code = superset_code("hmmer");
        let target: FeatureSet = "x86-16D-64W-P".parse().unwrap();
        let (out, stats) = emulate(&code, &target).unwrap();
        assert!(stats.rcb_accesses > 0, "hmmer uses deep registers");
        let orig: usize = code.blocks.iter().map(|b| b.insts.len()).sum();
        let emul: usize = out.blocks.iter().map(|b| b.insts.len()).sum();
        assert!(emul > orig, "RCB refills must add instructions");
    }

    #[test]
    fn complexity_downgrade_expands_mem_ops() {
        let code = compile(
            &generate(&spec("mcf")),
            &"x86-32D-32W".parse().unwrap(),
            &CompileOptions::default(),
        )
        .unwrap();
        let target: FeatureSet = "microx86-32D-32W".parse().unwrap();
        let (out, stats) = emulate(&code, &target).unwrap();
        assert!(stats.expanded_mem_ops > 0, "mcf folds memory operands");
        for b in &out.blocks {
            for i in &b.insts {
                assert!(
                    i.uop_count() == 1 || matches!(i.opcode, MacroOpcode::Call | MacroOpcode::Ret),
                    "emulated code must be microx86-legal: {i}"
                );
            }
        }
    }

    #[test]
    fn predication_downgrade_restores_branches() {
        let code = superset_code("sjeng");
        let target: FeatureSet = "x86-64D-64W".parse().unwrap();
        let (out, stats) = emulate(&code, &target).unwrap();
        assert!(stats.reverse_if_conversions > 0, "sjeng is predicated");
        for b in &out.blocks {
            for i in &b.insts {
                assert!(i.predicate.is_none(), "no predicates may survive");
            }
        }
    }

    #[test]
    fn wide_mem_operand_forms_expand_and_pump() {
        // Regression: a wide x86 memory-operand compute downgraded to a
        // 32-bit microx86 core must be both expanded (microx86
        // legality) and double-pumped (width emulation).
        let code = compile(
            &generate(&spec("mcf")),
            &"x86-32D-64W".parse().unwrap(),
            &CompileOptions::default(),
        )
        .unwrap();
        let target: FeatureSet = "microx86-32D-32W".parse().unwrap();
        let (out, stats) = emulate(&code, &target).unwrap();
        assert!(stats.expanded_mem_ops > 0);
        for b in &out.blocks {
            for i in &b.insts {
                assert!(
                    i.uop_count() == 1 || matches!(i.opcode, MacroOpcode::Call | MacroOpcode::Ret),
                    "wide folded forms must expand: {i}"
                );
                assert!(!i.wide, "no 64-bit ops may survive a width downgrade: {i}");
            }
        }
    }

    #[test]
    fn width_downgrade_double_pumps() {
        let code = compile(
            &generate(&spec("mcf")),
            &"microx86-32D-64W".parse().unwrap(),
            &CompileOptions::default(),
        )
        .unwrap();
        let target: FeatureSet = "microx86-32D-32W".parse().unwrap();
        let (_, stats) = emulate(&code, &target).unwrap();
        assert!(stats.double_pumped > 0, "mcf has wide data");
    }

    #[test]
    fn simd_downgrade_scalarizes_vector_ops() {
        let code = compile(
            &generate(&spec("lbm")),
            &"x86-32D-32W".parse().unwrap(),
            &CompileOptions::default(),
        )
        .unwrap();
        let has_vec = code
            .blocks
            .iter()
            .any(|b| b.insts.iter().any(|i| i.opcode == MacroOpcode::VecAlu));
        assert!(has_vec, "lbm vectorizes under SSE");
        let target: FeatureSet = "microx86-32D-32W".parse().unwrap();
        let (out, stats) = emulate(&code, &target).unwrap();
        assert!(stats.scalarized_vec_ops > 0, "vector ops must be rewritten");
        for b in &out.blocks {
            assert!(!b.vectorized, "no block may stay vectorized");
            for i in &b.insts {
                assert!(
                    i.legal_under(&target),
                    "illegal instruction after SIMD downgrade: {i}"
                );
            }
        }
    }

    #[test]
    fn depth_downgrade_remaps_predicate_guards() {
        // A depth downgrade that keeps full predication must remap
        // guard registers beyond the target depth like any other use.
        let mut code = superset_code("sjeng");
        let planted = MachineInst::compute(
            MacroOpcode::IntAlu,
            ArchReg::gpr(5),
            Operand::Reg(ArchReg::gpr(6)),
            Operand::None,
        )
        .predicated_on(ArchReg::gpr(40), false);
        code.blocks[0].insts.push(planted);
        let target: FeatureSet = "x86-16D-64W-P".parse().unwrap();
        let (out, stats) = emulate(&code, &target).unwrap();
        assert!(stats.rcb_accesses > 0);
        for b in &out.blocks {
            for i in &b.insts {
                for r in i.registers() {
                    assert!(
                        (r.index() as u32) < 16,
                        "register {r} beyond target depth survives in {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn deep_register_downgrade_costs_more_than_shallow() {
        // Paper: 64->32 registers nearly free, 64->16 ~2.7%, 64->8
        // ~33.5%.
        let s = spec("hmmer");
        let from: FeatureSet = "microx86-64D-32W".parse().unwrap();
        let to32: FeatureSet = "microx86-32D-32W".parse().unwrap();
        let to8: FeatureSet = "microx86-8D-32W".parse().unwrap();
        let c32 = downgrade_cost(&s, from, to32).unwrap();
        let c8 = downgrade_cost(&s, from, to8).unwrap();
        assert!(
            c8 > c32,
            "downgrading to 8 regs ({c8}) must cost more than to 32 ({c32})"
        );
        assert!(c8 > 1.05, "hmmer at depth 8 must pay: {c8}");
    }

    #[test]
    fn x86_to_microx86_cost_is_modest() {
        // Paper: 4.2% on average.
        let s = spec("bzip2");
        let from: FeatureSet = "x86-32D-32W".parse().unwrap();
        let to: FeatureSet = "microx86-32D-32W".parse().unwrap();
        let c = downgrade_cost(&s, from, to).unwrap();
        assert!((0.95..1.35).contains(&c), "complexity downgrade cost {c}");
    }
}
