//! # cisa-analyze: static analysis over superset machine code
//!
//! Bytes in, facts out: no compiler IR crosses this boundary. The
//! pipeline recovers a CFG from a raw instruction stream
//! (`cfg::recover_cfg`), runs iterative dataflow over it
//! ([`dataflow`]: backward feature-liveness, forward wide-state,
//! liveness and reaching definitions), and derives three products:
//!
//! - the **minimal feature set** the code statically requires
//!   ([`Analysis::minimal_fs`]), checked against the compile-time
//!   selection by [`check_against_compile`];
//! - a **migration-point map** ([`cisa_migrate::MigrationPointMap`])
//!   of program points whose *residual* feature needs make a
//!   downgrade statically state-transformation-free, feeding the fast
//!   path in [`cisa_migrate::classify_migration_with`];
//! - **dead/unreachable-code facts** that tighten downgrade pricing
//!   (unreachable vector code no longer forces emulation) and surface
//!   as advisory [`Finding`]s.
//!
//! Every claim is bounded from two sides. `lo` facts are built from
//! visible operands only and under-approximate (safe for "needs at
//! least" claims like the minimal feature set); `hi` facts charge
//! encoding-prefix tiers and use the downgrade machinery's own
//! memory-operand accounting, so they over-approximate (safe for
//! "needs at most" claims like migration freeness). [`check_cell`]
//! cross-checks both directions against the dynamic downgrade machinery
//! ([`check_against_emulation`]), next to the staged verifier on the
//! same emulation outcomes; cisa-bench's `verify_all` binary runs it
//! over all 1,274 compiles and 33,124 migration pairs with zero
//! tolerated unsafe disagreements.
//!
//! # Example
//!
//! ```
//! use cisa_analyze::{analyze, lay_out};
//! use cisa_compiler::{compile, CompileOptions};
//! use cisa_isa::FeatureSet;
//! use cisa_workloads::{all_phases, generate};
//!
//! let spec = &all_phases()[0];
//! let fs = FeatureSet::x86_64();
//! let code = compile(&generate(spec), &fs, &CompileOptions::default()).expect("compiles");
//! let image = lay_out(&code).expect("lays out");
//! let analysis = analyze(&image.bytes);
//! let min = analysis.minimal_fs.expect("compiled code decodes");
//! assert!(fs.covers(&min));
//! ```

#![warn(missing_docs)]

pub mod cfg;
pub mod dataflow;
pub mod facts;
pub mod grid;
pub mod layout;
pub mod rules;

pub use cfg::{BasicBlock, Cfg};
pub use dataflow::Dataflow;
pub use facts::{FeatureNeeds, InstFacts};
pub use grid::{check_cell, CellCheck};
pub use layout::{lay_out, FunctionImage};
pub use rules::{
    check_against_compile, check_against_emulation, severity_of, Finding, Severity, ANALYZE_RULES,
};

use cisa_isa::{disassemble_stream_with_offsets, FeatureSet};
use cisa_migrate::{MigrationClass, MigrationPoint, MigrationPointMap};

/// Everything the static pipeline proves about one byte stream.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The stream decoded end to end (false means only the
    /// `stream-undecodable` finding is meaningful).
    pub decoded: bool,
    /// Decoded instruction count.
    pub inst_count: usize,
    /// Recovered control-flow graph.
    pub cfg: Cfg,
    /// Dataflow fixpoint results.
    pub dataflow: Dataflow,
    /// Whole-stream lower-bound feature needs (visible operands only).
    pub lo: FeatureNeeds,
    /// Whole-stream upper-bound feature needs (prefix tiers charged).
    pub hi: FeatureNeeds,
    /// Minimal viable feature set the code statically requires
    /// (`None` when the stream does not decode).
    pub minimal_fs: Option<FeatureSet>,
    /// Statically-proven migration points (empty when the CFG escapes
    /// or the stream does not decode: callers fall back to the
    /// conservative migration class).
    pub points: MigrationPointMap,
    /// Structural findings, advisory and error.
    pub findings: Vec<Finding>,
}

impl Analysis {
    fn undecodable(findings: Vec<Finding>) -> Analysis {
        Analysis {
            decoded: false,
            inst_count: 0,
            cfg: Cfg::default(),
            dataflow: Dataflow::default(),
            lo: FeatureNeeds::default(),
            hi: FeatureNeeds::default(),
            minimal_fs: None,
            points: MigrationPointMap::default(),
            findings,
        }
    }

    /// Findings with [`Severity::Error`].
    pub fn errors(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
    }

    /// Every recovered block is reachable from the entry.
    pub fn all_reachable(&self) -> bool {
        self.cfg.blocks.iter().all(|b| b.reachable)
    }

    /// The migration class the *entry* point (offset 0) proves for a
    /// *(compiled-for, target)* pair — the point whose residual covers
    /// all reachable code, and therefore the only per-point claim
    /// comparable against whole-body emulation statistics.
    pub fn entry_class(
        &self,
        compiled_for: FeatureSet,
        target: FeatureSet,
    ) -> Option<MigrationClass> {
        let entry = self.points.points.first().filter(|p| p.offset == 0)?;
        Some(entry.class_for(&target.downgrade_gaps(&compiled_for)))
    }
}

/// Analyzes one machine-code byte stream. Total: never panics and
/// never fails — malformed input degrades to findings plus maximally
/// conservative facts (no minimal-feature-set claim, no migration
/// points).
pub fn analyze(bytes: &[u8]) -> Analysis {
    let _span = cisa_obs::span("analyze");
    let spanned = {
        let _cfg_span = cisa_obs::span("analyze/cfg");
        match disassemble_stream_with_offsets(bytes) {
            Ok(s) => s,
            Err(e) => {
                return Analysis::undecodable(vec![Finding::new(
                    "stream-undecodable",
                    Some(e.offset),
                    format!("instruction #{} does not decode: {}", e.index, e.source),
                )]);
            }
        }
    };
    let insts: Vec<InstFacts> = spanned.iter().map(InstFacts::from_spanned).collect();

    let mut findings = Vec::new();
    let cfg = {
        let _cfg_span = cisa_obs::span("analyze/cfg");
        cfg::recover_cfg(&spanned, &insts, bytes.len(), &mut findings)
    };

    let df = {
        let _df_span = cisa_obs::span("analyze/dataflow");
        dataflow::run(&insts, &cfg)
    };
    cisa_obs::counter("analyze/dataflow/iters", df.iters);
    for &i in &df.dead_defs {
        findings.push(Finding::new(
            "dead-def",
            Some(insts[i].offset),
            format!(
                "{:?} def of r{} is overwritten before any use",
                insts[i].opcode,
                insts[i].def.unwrap_or(0)
            ),
        ));
    }

    let mut lo = FeatureNeeds::default();
    let mut hi = FeatureNeeds::default();
    for f in &insts {
        lo.join(&f.lo);
        hi.join(&f.hi);
    }

    // Migration points: one per reachable block entry, carrying the
    // block's residual needs and entry wide-state. Escaping CFGs make
    // no per-point claims at all.
    let mut points = MigrationPointMap::default();
    if !cfg.escaping {
        for (b, blk) in cfg.blocks.iter().enumerate() {
            if !blk.reachable {
                continue;
            }
            let residual = &df.residual[b];
            points.points.push(MigrationPoint {
                offset: blk.start,
                needs_depth: residual.depth,
                wide_code: residual.wide,
                wide_state: df.wide_in[b] != 0,
                needs_pred: residual.pred,
                needs_vec: residual.vec,
                needs_memop: residual.memop,
            });
        }
    }
    cisa_obs::counter("analyze/migration_points", points.points.len() as u64);

    Analysis {
        decoded: true,
        inst_count: insts.len(),
        cfg,
        dataflow: df,
        lo,
        hi,
        minimal_fs: Some(lo.minimal_feature_set()),
        points,
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cisa_compiler::{compile, CompileOptions};
    use cisa_isa::FeatureSet;
    use cisa_workloads::{all_phases, generate};

    #[test]
    fn analyze_recovers_compiled_phase() {
        let spec = &all_phases()[0];
        let fs = FeatureSet::superset();
        let code =
            compile(&generate(spec), &fs, &CompileOptions::default()).expect("phase compiles");
        let image = lay_out(&code).expect("layout");
        let a = analyze(&image.bytes);
        assert!(a.decoded);
        assert!(a.errors().next().is_none(), "{:?}", a.errors().next());
        assert!(a.cfg.blocks.len() >= code.blocks.len());
        let min = a.minimal_fs.expect("decodes");
        assert!(fs.covers(&min), "minimal {min} not within {fs}");
        assert!(!a.points.points.is_empty());
        assert_eq!(a.points.points[0].offset, 0);
    }

    #[test]
    fn empty_stream_is_total() {
        let a = analyze(&[]);
        assert!(a.decoded);
        assert_eq!(a.inst_count, 0);
        assert!(a.points.points.is_empty());
    }
}
