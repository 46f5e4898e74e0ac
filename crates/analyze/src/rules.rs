//! The locked analysis-rule registry and the cross-checks that fire
//! its rules.
//!
//! Every diagnostic the analyzer can produce carries a stable rule name
//! from [`ANALYZE_RULES`]. The `tests/mutation_rules.rs` suite proves
//! each rule fires on a crafted violation and that the registry and the
//! suite cover each other exactly, PR-4 style: no rule can be added
//! without a firing test, and no test can claim a rule that does not
//! exist.

use std::fmt;

use cisa_compiler::CompiledCode;
use cisa_isa::FeatureSet;
use cisa_migrate::{EmulationStats, MigrateError, MigrationClass};

use crate::Analysis;

/// Every rule the static analyzer can fire.
///
/// The first five are *structural* (facts about one stream in
/// isolation); the last seven are *cross-checks* against the compiler's
/// feature selection and the dynamic downgrade machinery. Structural
/// advisories ([`Severity::Advisory`]) report optimization
/// opportunities; everything else is an error the `verify_all` gate
/// refuses.
pub const ANALYZE_RULES: &[&str] = &[
    // CFG recovery
    "stream-undecodable",
    "branch-target-out-of-range",
    "branch-target-misaligned",
    "unreachable-block",
    // dataflow
    "dead-def",
    // cross-check vs. the compile-time feature selection
    "static-features-exceed-compiled",
    // cross-checks vs. the dynamic downgrade machinery
    "native-claim-contradicts-emulation",
    "depth-claim-contradicts-emulation",
    "width-claim-contradicts-emulation",
    "complexity-claim-contradicts-emulation",
    "predication-claim-contradicts-emulation",
    "simd-claim-contradicts-emulation",
];

/// Whether a finding blocks the `verify_all` gate or merely reports
/// an optimization fact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Soundness violation or malformed input: gate failure.
    Error,
    /// Structural fact (unreachable code, dead def): useful, not fatal.
    Advisory,
}

/// Severity of a rule. Unreachable blocks and dead defs are legitimate
/// outcomes of compilation (and exactly the facts that let the
/// migration-point map *tighten* downgrade pricing), so they are
/// advisory; everything else is an error.
pub fn severity_of(rule: &str) -> Severity {
    match rule {
        "unreachable-block" | "dead-def" => Severity::Advisory,
        _ => Severity::Error,
    }
}

/// One structured analysis diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule name (one of [`ANALYZE_RULES`]).
    pub rule: &'static str,
    /// Gate severity.
    pub severity: Severity,
    /// Byte offset the finding anchors to, when local.
    pub offset: Option<usize>,
    /// Human-readable specifics.
    pub detail: String,
}

impl Finding {
    /// Builds a finding, deriving the severity from the rule name.
    pub(crate) fn new(rule: &'static str, offset: Option<usize>, detail: String) -> Finding {
        Finding {
            rule,
            severity: severity_of(rule),
            offset,
            detail,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.offset {
            Some(o) => write!(f, "{} @+{o:#x}: {}", self.rule, self.detail),
            None => write!(f, "{}: {}", self.rule, self.detail),
        }
    }
}

/// Cross-checks an analysis against the feature set the code was
/// actually compiled for: the statically-recovered minimal feature set
/// must be covered by the compiled one (the encoder enforced exactly
/// those constraints instruction by instruction, so anything else means
/// the analyzer over-claims or the stream is not what was compiled).
pub fn check_against_compile(analysis: &Analysis, compiled_fs: &FeatureSet) -> Vec<Finding> {
    let mut findings = Vec::new();
    if let Some(min) = analysis.minimal_fs {
        if !compiled_fs.covers(&min) {
            findings.push(Finding::new(
                "static-features-exceed-compiled",
                None,
                format!(
                    "static minimal feature set {min} is not covered by compiled {compiled_fs}"
                ),
            ));
        }
    }
    findings
}

/// Cross-checks the analysis's whole-stream claims against the dynamic
/// downgrade machinery for one migration target: every feature
/// dimension the analyzer claims *absent* must produce zero
/// transformation activity in `emulated`, the outcome of
/// [`cisa_migrate::emulate`] on `code` for `target`.
///
/// The whole-stream `hi` facts cover unreachable blocks too — by
/// design, since emulation statistics are computed over the entire
/// compiled body. The entry-point `Native` claim is additionally
/// checked when every block is reachable (with unreachable blocks the
/// map intentionally claims *less* work than whole-body emulation
/// performs, which is the refinement, not a bug).
pub fn check_against_emulation(
    analysis: &Analysis,
    code: &CompiledCode,
    target: &FeatureSet,
    emulated: &Result<(CompiledCode, EmulationStats), MigrateError>,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    // A failed emulation is the migration-safety pass's
    // `emulation-failed` diagnostic and leaves no statistics for the
    // static claims to contradict. An upgrade transforms nothing, so
    // its all-zero statistics contradict nothing either.
    let Ok((_, stats)) = emulated else {
        return findings;
    };
    let hi = &analysis.hi;
    if !hi.wide && stats.double_pumped > 0 {
        findings.push(Finding::new(
            "width-claim-contradicts-emulation",
            None,
            format!(
                "claimed no wide code, emulation to {target} double-pumped {} ops",
                stats.double_pumped
            ),
        ));
    }
    if !hi.pred && stats.reverse_if_conversions > 0 {
        findings.push(Finding::new(
            "predication-claim-contradicts-emulation",
            None,
            format!(
                "claimed no predication, emulation to {target} reverse-if-converted {} runs",
                stats.reverse_if_conversions
            ),
        ));
    }
    if !hi.vec && stats.scalarized_vec_ops > 0 {
        findings.push(Finding::new(
            "simd-claim-contradicts-emulation",
            None,
            format!(
                "claimed no vector ops, emulation to {target} scalarized {} ops",
                stats.scalarized_vec_ops
            ),
        ));
    }
    if !hi.memop && stats.expanded_mem_ops > 0 {
        findings.push(Finding::new(
            "complexity-claim-contradicts-emulation",
            None,
            format!(
                "claimed no expandable memory operands, emulation to {target} expanded {} ops",
                stats.expanded_mem_ops
            ),
        ));
    }
    if hi.depth <= target.depth() && stats.rcb_accesses > 0 {
        findings.push(Finding::new(
            "depth-claim-contradicts-emulation",
            None,
            format!(
                "claimed depth {} fits target {target}, emulation made {} RCB accesses",
                hi.depth.count(),
                stats.rcb_accesses
            ),
        ));
    }
    if analysis.all_reachable() {
        if let Some(entry_class) = analysis.entry_class(code.fs, *target) {
            if entry_class == MigrationClass::Native && *stats != EmulationStats::default() {
                findings.push(Finding::new(
                    "native-claim-contradicts-emulation",
                    Some(0),
                    format!(
                        "entry point claims native migration to {target} but emulation transformed code: {stats:?}"
                    ),
                ));
            }
        }
    }
    findings
}
