//! The full staged verification suite.
//!
//! The compiler-side passes (IR/CFG well-formedness, predication
//! legality, post-isel operand shape, post-regalloc register discipline,
//! encoding round-trip) live in [`cisa_compiler::verify`] so the driver
//! can run them after every phase. This module adds the one pass that
//! needs the downgrade machinery — **migration safety** — and the
//! compile that runs the other five:
//!
//! - [`compile_verified`] compiles one workload phase with
//!   [`VerifyLevel::Full`], recovering the precise IR diagnostics when
//!   the compile is refused.
//! - [`check_emulation`] checks one downgrade: every feature gap
//!   [`FeatureSet::downgrade_gaps`] claims emulable really is, so after
//!   [`emulate`](crate::emulate) no instruction still exercises the downgraded
//!   dimension (rules in [`MIGRATION_RULES`]).
//!
//! `cisa_analyze::check_cell` runs both for one (phase, feature set)
//! cell, next to the static analyzer's cross-checks on the same
//! emulation outcomes; cisa-bench's `verify_all` binary sweeps it over
//! all 49 workload phases × 26 feature sets and exits nonzero on any
//! diagnostic (the CI `verify` job).
//!
//! Every rule here and in [`cisa_compiler::verify::RULES`] has a
//! dedicated firing test in `tests/mutation_rules.rs`.

pub use cisa_compiler::verify::{VerifyError, VerifyLevel, VerifyPass};

use cisa_compiler::{compile, CompileError, CompileOptions, CompiledCode};
use cisa_isa::inst::MacroOpcode;
use cisa_isa::{Complexity, FeatureSet, Predication, RegisterWidth, SimdSupport};
use cisa_workloads::{generate, PhaseSpec};

use crate::{EmulationStats, MigrateError};

/// Rules of the migration-safety pass. Together with the five
/// per-dimension survival rules, [`check_emulation`] covers exactly the
/// dimensions of [`cisa_isa::MachineInst::legal_under`].
pub const MIGRATION_RULES: &[&str] = &[
    "predicate-survived-downgrade",
    "vector-op-survived-downgrade",
    "wide-op-survived-downgrade",
    "mem-op-survived-downgrade",
    "deep-register-survived-downgrade",
    "emulation-failed",
];

fn merr(
    function: &str,
    block: Option<usize>,
    inst_index: Option<usize>,
    rule: &'static str,
    detail: String,
) -> VerifyError {
    VerifyError {
        pass: VerifyPass::Migration,
        function: function.to_string(),
        block,
        inst_index,
        rule,
        detail,
    }
}

/// Checks one emulation outcome against the target feature set.
///
/// The emulated code must be runnable on a core implementing only
/// `target`: no surviving predicate prefixes, vector ops, wide ops,
/// memory operands on compute instructions, or registers beyond the
/// target depth. Checks are legality-only — emulation keeps the
/// original block byte sizes as an approximation, so encoding-level
/// checks do not apply here.
///
/// Takes the [`emulate`](crate::emulate) `Result` rather than calling it, so corrupted
/// outcomes can be verified directly.
pub fn check_emulation(
    result: Result<(CompiledCode, EmulationStats), MigrateError>,
    target: &FeatureSet,
    function: &str,
) -> Vec<VerifyError> {
    let mut errors = Vec::new();
    let (code, _stats) = match result {
        Ok(r) => r,
        Err(e) => {
            errors.push(merr(
                function,
                None,
                None,
                "emulation-failed",
                format!("downgrade to {target} failed: {e}"),
            ));
            return errors;
        }
    };
    let depth = target.depth().count();
    for (bi, b) in code.blocks.iter().enumerate() {
        if b.vectorized && target.simd() != SimdSupport::Sse {
            errors.push(merr(
                function,
                Some(bi),
                None,
                "vector-op-survived-downgrade",
                format!("block still marked vectorized after downgrade to {target}"),
            ));
        }
        for (ii, inst) in b.insts.iter().enumerate() {
            if inst.predicate.is_some() && target.predication() != Predication::Full {
                errors.push(merr(
                    function,
                    Some(bi),
                    Some(ii),
                    "predicate-survived-downgrade",
                    format!("{inst} keeps a predicate prefix on {target}"),
                ));
            }
            if inst.opcode == MacroOpcode::VecAlu && target.simd() != SimdSupport::Sse {
                errors.push(merr(
                    function,
                    Some(bi),
                    Some(ii),
                    "vector-op-survived-downgrade",
                    format!("{inst} is a vector op but {target} has no SIMD"),
                ));
            }
            if inst.wide && target.width() == RegisterWidth::W32 {
                errors.push(merr(
                    function,
                    Some(bi),
                    Some(ii),
                    "wide-op-survived-downgrade",
                    format!("{inst} is still 64-bit wide on 32-bit {target}"),
                ));
            }
            let mem_on_compute = inst.mem.is_some()
                && !matches!(
                    inst.opcode,
                    MacroOpcode::Load | MacroOpcode::Store | MacroOpcode::Lea
                );
            if mem_on_compute && target.complexity() == Complexity::MicroX86 {
                errors.push(merr(
                    function,
                    Some(bi),
                    Some(ii),
                    "mem-op-survived-downgrade",
                    format!("{inst} keeps a memory operand on microx86 {target}"),
                ));
            }
            for r in inst.registers() {
                if r.index() as u32 >= depth {
                    errors.push(merr(
                        function,
                        Some(bi),
                        Some(ii),
                        "deep-register-survived-downgrade",
                        format!("{inst} references {r} beyond {target}'s depth {depth}"),
                    ));
                }
            }
        }
    }
    errors
}

/// Compiles one workload phase for `fs` at [`VerifyLevel::Full`], so
/// passes 1–5 run after each pipeline phase. Returns the code, or every
/// diagnostic that stopped the compile. Pass 6, migration safety, is
/// [`check_emulation`] on each [`emulate`](crate::emulate) outcome of the returned code.
pub fn compile_verified(
    spec: &PhaseSpec,
    fs: &FeatureSet,
) -> Result<CompiledCode, Vec<VerifyError>> {
    let func = generate(spec);
    let options = CompileOptions {
        verify: VerifyLevel::Full,
    };
    compile(&func, fs, &options).map_err(|e| match e {
        CompileError::Verify(violations) => violations,
        CompileError::InvalidIr(msg) => {
            // validate() checks a subset of verify_ir's structural
            // rules, so the precise diagnostics are recoverable.
            let mut v = cisa_compiler::verify::verify_ir(&func);
            if v.is_empty() {
                v.push(VerifyError {
                    pass: VerifyPass::Ir,
                    function: func.name.clone(),
                    block: None,
                    inst_index: None,
                    rule: "empty-function",
                    detail: msg,
                });
            }
            v
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emulate;
    use cisa_workloads::all_phases;

    #[test]
    fn upgrade_targets_verify_trivially() {
        let spec = &all_phases()[0];
        let func = generate(spec);
        let code = compile(&func, &FeatureSet::minimal(), &CompileOptions::default())
            .expect("minimal compile");
        // Every set covers code compiled for the minimal one... except
        // along dimensions the partial order leaves incomparable; all
        // must still verify.
        for t in &FeatureSet::all() {
            assert_eq!(check_emulation(emulate(&code, t), t, &code.name), vec![]);
        }
    }

    #[test]
    fn migration_rules_are_unique_and_disjoint_from_compiler_rules() {
        let mut seen = std::collections::HashSet::new();
        for r in MIGRATION_RULES {
            assert!(seen.insert(r), "duplicate migration rule {r}");
            assert!(
                !cisa_compiler::verify::RULES.contains(r),
                "{r} collides with a compiler rule"
            );
        }
    }
}
