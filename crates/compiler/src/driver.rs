//! The compile driver: runs the full pass pipeline for one function and
//! one target feature set.
//!
//! Pipeline (Section IV-A):
//!
//! 1. validate the IR,
//! 2. **if-conversion** when the target supports full predication (as a
//!    pre-scheduling pass, mirroring the paper's placement),
//! 3. **instruction selection** (complexity folding, SIMD vs scalarized,
//!    wide-data double-pumping),
//! 4. **register allocation** at the target's register depth (spills,
//!    refills, rematerialization),
//! 5. encoding and statistics.
//!
//! When [`CompileOptions::verify`] is enabled (the default in debug
//! builds and tests), the staged verifier from [`crate::verify`] runs
//! after every phase and the compile fails with
//! [`CompileError::Verify`] on any violation.

use cisa_isa::{FeatureSet, Predication};
use std::fmt;

use crate::code::{finalize, CompiledCode};
use crate::ifconvert::{if_convert, IfConvertConfig, IfConvertStats};
use crate::ir::IrFunction;
use crate::isel::select;
use crate::regalloc::allocate;
use crate::verify::{self, VerifyError, VerifyLevel};

/// Options controlling a compilation.
#[derive(Debug, Clone, Default)]
pub struct CompileOptions {
    /// Staged verification after each pipeline phase. Defaults to
    /// `Full` in debug builds and tests, `Off` in release.
    pub verify: VerifyLevel,
}

/// Errors from compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The input IR failed validation.
    InvalidIr(String),
    /// The staged verifier found violations after some phase.
    Verify(Vec<VerifyError>),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::InvalidIr(msg) => write!(f, "invalid IR: {msg}"),
            CompileError::Verify(violations) => {
                write!(f, "verification failed: {} violation(s)", violations.len())?;
                if let Some(first) = violations.first() {
                    write!(f, "; first: {first}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// Compiles one function for one feature set.
///
/// # Errors
///
/// Returns [`CompileError::InvalidIr`] if the function fails
/// [`IrFunction::validate`].
///
/// # Example
///
/// ```
/// use cisa_compiler::ir::*;
/// use cisa_compiler::compile;
/// use cisa_isa::FeatureSet;
///
/// let mut f = IrFunction::new("demo");
/// let v = f.new_vreg();
/// let mut b = IrBlock::new(Terminator::Ret, 1.0);
/// b.insts.push(IrInst::constant(v, 4));
/// f.add_block(b);
///
/// let code = compile(&f, &FeatureSet::x86_64(), &Default::default())?;
/// assert!(code.stats.total_uops() > 0.0);
/// # Ok::<(), cisa_compiler::CompileError>(())
/// ```
pub fn compile(
    func: &IrFunction,
    fs: &FeatureSet,
    options: &CompileOptions,
) -> Result<CompiledCode, CompileError> {
    let _compile = cisa_obs::span("compile");
    cisa_obs::counter("compile/functions", 1);
    {
        let _s = cisa_obs::span("validate");
        func.validate().map_err(CompileError::InvalidIr)?;
    }

    let checked = options.verify.enabled();
    let mut violations = Vec::new();
    if checked {
        let _s = cisa_obs::span("verify");
        violations.extend(verify::verify_ir(func));
    }

    let mut ir = func.clone();
    let ifc_stats = if fs.predication() == Predication::Full {
        let stats = {
            let _s = cisa_obs::span("ifconvert");
            if_convert(&mut ir, &IfConvertConfig::default())
        };
        if checked {
            let _s = cisa_obs::span("verify");
            violations.extend(verify::verify_ir(&ir));
            violations.extend(verify::verify_predication(&ir, fs));
        }
        stats
    } else {
        IfConvertStats::default()
    };
    cisa_obs::counter("compile/ifconverted_diamonds", u64::from(ifc_stats.total()));

    let vfunc = {
        let _s = cisa_obs::span("isel");
        select(&ir, fs)
    };
    if checked {
        let _s = cisa_obs::span("verify");
        violations.extend(verify::verify_isel(&vfunc, fs));
    }
    let alloc = {
        let _s = cisa_obs::span("regalloc");
        allocate(&vfunc, fs)
    };
    if checked {
        let _s = cisa_obs::span("verify");
        violations.extend(verify::verify_regalloc(&alloc, fs));
    }
    let regalloc_stats = alloc.stats;

    let blocks = alloc
        .blocks
        .into_iter()
        .map(|b| (b.insts, b.term, b.weight, b.vectorized))
        .collect();

    let code = {
        let _s = cisa_obs::span("emit");
        finalize(func.name.clone(), *fs, blocks, regalloc_stats, ifc_stats)
    };
    cisa_obs::counter(
        "compile/vectorized_blocks",
        code.blocks.iter().filter(|b| b.vectorized).count() as u64,
    );
    if checked {
        let _s = cisa_obs::span("verify");
        violations.extend(verify::verify_encoding(&code));
    }
    if !violations.is_empty() {
        return Err(CompileError::Verify(violations));
    }
    Ok(code)
}

/// Compiles one function for every one of the 26 feature sets, returning
/// the results in [`FeatureSet::all`] order.
#[cfg(test)]
pub(crate) fn compile_all_feature_sets(
    func: &IrFunction,
    options: &CompileOptions,
) -> Result<Vec<CompiledCode>, CompileError> {
    FeatureSet::all()
        .iter()
        .map(|fs| compile(func, fs, options))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{AddrExpr, BlockId, BranchBehavior, IrBlock, IrInst, IrOp, Terminator};
    use cisa_isa::inst::MemLocality;
    use cisa_isa::uop::MicroOpKind;

    /// A function with a hot loop containing an unpredictable diamond.
    fn branchy() -> IrFunction {
        let mut f = IrFunction::new("branchy");
        let ptr = f.new_vreg();
        let i = f.new_vreg();
        let c = f.new_vreg();
        let x = f.new_vreg();
        let c2 = f.new_vreg();

        // bb0: loop body, diamond head.
        let mut head = IrBlock::new(
            Terminator::Branch {
                cond: c,
                taken: BlockId(1),
                not_taken: BlockId(2),
                behavior: BranchBehavior::random(0.5),
            },
            100.0,
        );
        head.insts.push(IrInst::load(
            x,
            AddrExpr::base(ptr),
            MemLocality::WorkingSet,
        ));
        head.insts.push(IrInst::compute(IrOp::Cmp, c, x, i));
        f.add_block(head);
        // bb1 / bb2: small arms.
        let mut t = IrBlock::new(Terminator::Jump(BlockId(3)), 50.0);
        t.insts.push(IrInst::compute(IrOp::IntAlu, x, x, i));
        f.add_block(t);
        let mut e = IrBlock::new(Terminator::Jump(BlockId(3)), 50.0);
        e.insts.push(IrInst::compute(IrOp::IntAlu, x, i, i));
        f.add_block(e);
        // bb3: loop latch.
        let mut latch = IrBlock::new(
            Terminator::Branch {
                cond: c2,
                taken: BlockId(0),
                not_taken: BlockId(4),
                behavior: BranchBehavior::loop_back(100),
            },
            100.0,
        );
        latch.insts.push(IrInst::compute(IrOp::IntAlu, i, i, x));
        latch.insts.push(IrInst::compute(IrOp::Cmp, c2, i, x));
        f.add_block(latch);
        f.add_block(IrBlock::new(Terminator::Ret, 1.0));
        f.validate().unwrap();
        f
    }

    #[test]
    fn full_predication_removes_branches_and_adds_uops() {
        let f = branchy();
        let opts = CompileOptions::default();
        let partial = compile(&f, &FeatureSet::x86_64(), &opts).unwrap();
        let full = compile(&f, &FeatureSet::superset(), &opts).unwrap();
        assert!(full.stats.ifconvert.total() > 0, "diamond must convert");
        assert!(
            full.stats.branches() < partial.stats.branches(),
            "predication removes dynamic branches: {} vs {}",
            full.stats.branches(),
            partial.stats.branches()
        );
        assert!(full.stats.predicated > 0.0);
        assert!(
            full.stats.total_uops() >= partial.stats.total_uops() * 0.99,
            "if-conversion does not shrink uops"
        );
    }

    #[test]
    fn microx86_has_more_macro_ops_than_x86() {
        let f = branchy();
        let opts = CompileOptions::default();
        let micro = compile(&f, &"microx86-16D-32W".parse().unwrap(), &opts).unwrap();
        let x86 = compile(&f, &"x86-16D-32W".parse().unwrap(), &opts).unwrap();
        assert!(
            micro.stats.macro_ops >= x86.stats.macro_ops,
            "x86 folding reduces macro-ops"
        );
        // microx86 legality: every inst is single-uop.
        for b in &micro.blocks {
            for i in &b.insts {
                assert_eq!(i.uop_count(), 1);
            }
        }
    }

    #[test]
    fn all_26_feature_sets_compile() {
        let f = branchy();
        let all = compile_all_feature_sets(&f, &CompileOptions::default()).unwrap();
        assert_eq!(all.len(), 26);
        for code in &all {
            assert!(
                code.stats.total_uops() > 0.0,
                "{} produced no code",
                code.fs
            );
            assert!(code.stats.code_bytes > 0);
            // Every instruction must be legal under its own target.
            for b in &code.blocks {
                for inst in &b.insts {
                    assert!(
                        inst.legal_under(&code.fs),
                        "{inst} illegal under {}",
                        code.fs
                    );
                }
            }
        }
    }

    #[test]
    fn invalid_ir_is_rejected() {
        let f = IrFunction::new("empty");
        assert!(matches!(
            compile(&f, &FeatureSet::x86_64(), &CompileOptions::default()),
            Err(CompileError::InvalidIr(_))
        ));
    }

    #[test]
    fn loads_shrink_with_register_depth() {
        // High-pressure function: deeper register files must reduce
        // dynamic loads (spill refills).
        let mut f = IrFunction::new("hot");
        let base = f.new_vreg();
        let mut b = IrBlock::new(Terminator::Ret, 100.0);
        let mut vals = Vec::new();
        for k in 0..24 {
            let v = f.new_vreg();
            b.insts.push(IrInst::load(
                v,
                AddrExpr::base_disp(base, k * 8),
                MemLocality::WorkingSet,
            ));
            vals.push(v);
        }
        let mut acc = f.new_vreg();
        b.insts.push(IrInst::constant(acc, 1));
        for &v in &vals {
            let nv = f.new_vreg();
            b.insts.push(IrInst::compute(IrOp::IntAlu, nv, acc, v));
            acc = nv;
        }
        f.add_block(b);

        let opts = CompileOptions::default();
        let d8 = compile(&f, &"microx86-8D-32W".parse().unwrap(), &opts).unwrap();
        let d64 = compile(&f, &"microx86-64D-32W".parse().unwrap(), &opts).unwrap();
        assert!(
            d8.stats.loads() > d64.stats.loads(),
            "shallow depth refills more: {} vs {}",
            d8.stats.loads(),
            d64.stats.loads()
        );
        assert!(d8.stats.uop(MicroOpKind::Store) >= d64.stats.uop(MicroOpKind::Store));
    }
}
