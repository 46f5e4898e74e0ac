//! The full staged verification suite.
//!
//! The compiler-side passes (IR/CFG well-formedness, predication
//! legality, post-isel operand shape, post-regalloc register discipline,
//! encoding round-trip) live in [`cisa_compiler::verify`] so the driver
//! can run them after every phase. This module adds the one pass that
//! needs the downgrade machinery — **migration safety** — and composes
//! all six into a workload-suite pre-flight:
//!
//! - [`verify_migration`] checks that every feature gap
//!   [`FeatureSet::downgrade_gaps`] claims emulable really is: after
//!   [`emulate`], no instruction still exercises the downgraded
//!   dimension (rules in [`MIGRATION_RULES`]).
//! - [`verify_phase`] compiles one workload phase for one feature set
//!   with [`VerifyLevel::Full`] and then checks emulation against every
//!   migration target.
//! - [`verify_suite`] sweeps phases × feature sets and aggregates a
//!   [`VerifyReport`]; the `verify_all` binary runs it over all 49
//!   workload phases × 26 feature sets and exits nonzero on any
//!   diagnostic (the CI `verify` job).
//!
//! Every rule here and in [`cisa_compiler::verify::RULES`] has a
//! dedicated firing test in `tests/mutation_rules.rs`.

pub use cisa_compiler::verify::{VerifyError, VerifyLevel, VerifyPass};

use cisa_compiler::{compile, CompileError, CompileOptions, CompiledCode};
use cisa_isa::inst::MacroOpcode;
use cisa_isa::{Complexity, FeatureSet, Predication, RegisterWidth, SimdSupport};
use cisa_workloads::{generate, PhaseSpec};

use crate::{emulate, EmulationStats, MigrateError};

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
/// Takes the [`emulate`] `Result` rather than calling it, so corrupted
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

/// Migration-safety pass: emulates `code` down to every `target` and
/// checks each outcome with [`check_emulation`]. Targets that cover the
/// code's feature set exercise the zero-transform upgrade path and must
/// verify trivially.
pub fn verify_migration(code: &CompiledCode, targets: &[FeatureSet]) -> Vec<VerifyError> {
    targets
        .iter()
        .flat_map(|t| check_emulation(emulate(code, t), t, &code.name))
        .collect()
}

/// Runs the full six-pass suite for one workload phase and one feature
/// set: a [`VerifyLevel::Full`] compile (passes 1–5 after each pipeline
/// phase) followed by migration safety against `targets`.
pub fn verify_phase(spec: &PhaseSpec, fs: &FeatureSet, targets: &[FeatureSet]) -> Vec<VerifyError> {
    let func = generate(spec);
    let options = CompileOptions {
        verify: VerifyLevel::Full,
        ..Default::default()
    };
    match compile(&func, fs, &options) {
        Ok(code) => verify_migration(&code, targets),
        Err(CompileError::Verify(violations)) => violations,
        Err(CompileError::InvalidIr(msg)) => {
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
    }
}

/// The aggregate outcome of a suite pre-flight.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Workload phases checked.
    pub phases: usize,
    /// Feature sets each phase was compiled for.
    pub feature_sets: usize,
    /// (compiled-for, migration-target) pairs emulated and checked.
    pub migration_pairs: usize,
    /// Every diagnostic found, in phase × feature-set order.
    pub errors: Vec<VerifyError>,
}

impl VerifyReport {
    /// Whether the whole suite verified clean.
    pub fn ok(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Verifies every phase × feature-set combination, using the same
/// feature sets as migration targets. The `verify_all` binary (and the
/// CI `verify` job) runs this over all phases and all 26 feature sets.
pub fn verify_suite(phases: &[PhaseSpec], feature_sets: &[FeatureSet]) -> VerifyReport {
    let mut report = VerifyReport {
        phases: phases.len(),
        feature_sets: feature_sets.len(),
        ..Default::default()
    };
    for spec in phases {
        for fs in feature_sets {
            report.migration_pairs += feature_sets.len();
            report.errors.extend(verify_phase(spec, fs, feature_sets));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use cisa_workloads::all_phases;

    #[test]
    fn one_phase_verifies_clean_across_all_feature_sets() {
        let phases = all_phases();
        let all = FeatureSet::all();
        let report = verify_suite(&phases[..1], &all);
        assert_eq!(report.phases, 1);
        assert_eq!(report.feature_sets, 26);
        assert_eq!(report.migration_pairs, 26 * 26);
        assert!(report.ok(), "diagnostics: {:#?}", report.errors);
    }

    #[test]
    fn upgrade_targets_verify_trivially() {
        let spec = &all_phases()[0];
        let func = generate(spec);
        let code = compile(&func, &FeatureSet::minimal(), &CompileOptions::default())
            .expect("minimal compile");
        // Every set covers code compiled for the minimal one... except
        // along dimensions the partial order leaves incomparable; all
        // must still verify.
        assert_eq!(verify_migration(&code, &FeatureSet::all()), vec![]);
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
