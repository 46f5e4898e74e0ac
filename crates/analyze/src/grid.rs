//! One cell of the whole-grid check.
//!
//! A cell is one workload phase compiled for one feature set. Checking
//! it runs the staged verifier and the static analyzer over the same
//! artifacts: one [`VerifyLevel::Full`](cisa_migrate::verify::VerifyLevel)
//! compile, one layout and analysis of its bytes, and one [`emulate`]
//! call per migration target. Each emulation outcome feeds the
//! migration-safety pass ([`check_emulation`]), the analyzer's claims
//! ([`check_against_emulation`]) and the refined-vs-conservative class
//! comparison. cisa-bench's `verify_all` binary sweeps every cell of
//! the 49 × 26 grid.

use cisa_isa::FeatureSet;
use cisa_migrate::verify::{check_emulation, compile_verified};
use cisa_migrate::{classify_migration, classify_migration_with, emulate, MigrationClass};
use cisa_workloads::PhaseSpec;

use crate::{analyze, check_against_compile, check_against_emulation, lay_out};

/// What checking one (phase, compiled-for) cell found.
#[derive(Debug, Clone, Default)]
pub struct CellCheck {
    /// The `Full`-verified compile succeeded.
    pub compiled: bool,
    /// (compiled-for, target) pairs emulated and checked.
    pub pairs: usize,
    /// Migration points the analyzer proved.
    pub migration_points: usize,
    /// Advisory findings (unreachable blocks, dead defs).
    pub advisories: usize,
    /// Pairs the migration-point map priced below the conservative
    /// class.
    pub refined: usize,
    /// Refined pairs that became [`MigrationClass::Native`].
    pub refined_to_native: usize,
    /// Refined pairs whose conservative class was
    /// [`MigrationClass::StateTransforming`] (off the width cliff).
    pub refined_off_width_cliff: usize,
    /// Every verifier diagnostic, analyzer error finding and pessimistic
    /// refinement, each prefixed with `phase/fs` or `phase/fs->target`,
    /// in target order.
    pub violations: Vec<String>,
}

/// Checks one cell: `spec` compiled for `fs`, migrated to every one of
/// `targets`.
pub fn check_cell(spec: &PhaseSpec, fs: &FeatureSet, targets: &[FeatureSet]) -> CellCheck {
    let mut cell = CellCheck::default();
    let at = format!("{}/{fs}", spec.name());
    let code = match compile_verified(spec, fs) {
        Ok(code) => code,
        Err(diagnostics) => {
            cell.violations
                .extend(diagnostics.iter().map(|e| format!("{at}: {e}")));
            return cell;
        }
    };
    cell.compiled = true;
    let image = match lay_out(&code) {
        Ok(image) => image,
        Err(e) => {
            cell.violations.push(format!("{at}: layout failed: {e}"));
            return cell;
        }
    };
    let analysis = analyze(&image.bytes);
    cell.migration_points = analysis.points.points.len();
    cell.advisories = analysis.findings.len() - analysis.errors().count();
    cell.violations.extend(
        analysis
            .errors()
            .cloned()
            .chain(check_against_compile(&analysis, fs))
            .map(|f| format!("{at}: {f}")),
    );

    for target in targets {
        cell.pairs += 1;
        let emulated = emulate(&code, target);
        let claims = check_against_emulation(&analysis, &code, target, &emulated);
        let safety = check_emulation(emulated, target, &code.name);
        cell.violations.extend(
            claims
                .iter()
                .map(|f| format!("{at}->{target}: {f}"))
                .chain(safety.iter().map(|e| format!("{at}->{target}: {e}"))),
        );

        let base = classify_migration(*fs, *target).class;
        let refined = classify_migration_with(*fs, *target, Some(&analysis.points)).class;
        if refined > base {
            cell.violations.push(format!(
                "{at}->{target}: refinement went pessimistic ({refined} > {base})"
            ));
        }
        if refined < base {
            cell.refined += 1;
            cell.refined_to_native += usize::from(refined == MigrationClass::Native);
            cell.refined_off_width_cliff += usize::from(base == MigrationClass::StateTransforming);
        }
    }
    cell
}

#[cfg(test)]
mod tests {
    use super::*;
    use cisa_workloads::all_phases;

    #[test]
    fn one_phase_checks_clean_across_all_feature_sets() {
        let spec = &all_phases()[0];
        let all = FeatureSet::all();
        let cells: Vec<CellCheck> = all.iter().map(|fs| check_cell(spec, fs, &all)).collect();
        assert_eq!(cells.iter().filter(|c| c.compiled).count(), 26);
        assert_eq!(cells.iter().map(|c| c.pairs).sum::<usize>(), 26 * 26);
        let violations: Vec<&String> = cells.iter().flat_map(|c| &c.violations).collect();
        assert!(violations.is_empty(), "violations: {violations:#?}");
        assert!(cells.iter().any(|c| c.refined > 0), "no pair refined");
    }
}
