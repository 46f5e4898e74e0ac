//! Compiler-side feature selection (Section IV-A).
//!
//! "For each code region ... the compiler must now make a global (or
//! regional) decision about which features to use and which to skip ...
//! with some knowledge of the features of the cores for the processor
//! on which it will run."
//!
//! [`select_feature_set`] implements that heuristic: compile the region
//! for every candidate feature set actually implemented by the target
//! multicore, and score the results by a static cost model —
//! profile-weighted micro-ops, with spill/refill traffic and encoding
//! bloat penalized — choosing the cheapest. [`FeatureChoice`] records
//! both the winner and the reasoning, which the Section IV experiment
//! binary prints per benchmark region (hmmer pinning depth 64, lbm
//! settling for 16, milc predicating some regions and not others).

use cisa_isa::FeatureSet;

use crate::driver::{compile, CompileOptions};
use crate::ir::IrFunction;
use crate::CodeStats;

/// The outcome of feature selection for one region.
#[derive(Debug, Clone)]
pub struct FeatureChoice {
    /// The chosen feature set.
    pub chosen: FeatureSet,
    /// Static cost of the chosen compilation.
    pub cost: f64,
    /// All candidates with their costs, sorted best-first.
    pub ranking: Vec<(FeatureSet, f64)>,
}

impl FeatureChoice {
    /// Whether the region ended up using full predication.
    pub fn uses_full_predication(&self) -> bool {
        self.chosen.predication() == cisa_isa::Predication::Full
    }

    /// The chosen register depth.
    pub fn depth(&self) -> u32 {
        self.chosen.depth().count()
    }
}

/// Static cost of one compilation: the compiler's stand-in for runtime.
///
/// Profile-weighted micro-ops dominate; spill traffic is charged extra
/// (those loads hit the stack but still occupy pipeline slots and
/// energy), and encoded size is weighted lightly (fetch pressure).
pub(crate) fn static_cost(stats: &CodeStats) -> f64 {
    let uops = stats.total_uops();
    let spill_traffic = stats.regalloc.dyn_spill_stores + stats.regalloc.dyn_refill_loads;
    let remat = stats.regalloc.dyn_remat_ops;
    uops + 1.5 * spill_traffic + 0.5 * remat + 0.002 * stats.code_bytes as f64 * (uops / 1e4)
}

/// Chooses the best feature set for a region from the sets implemented
/// by the target multicore.
///
/// # Panics
///
/// Panics if `available` is empty.
pub fn select_feature_set(
    func: &IrFunction,
    available: &[FeatureSet],
    options: &CompileOptions,
) -> FeatureChoice {
    assert!(
        !available.is_empty(),
        "a multicore implements at least one feature set"
    );
    let mut ranking: Vec<(FeatureSet, f64)> = available
        .iter()
        .filter_map(|fs| {
            compile(func, fs, options)
                .ok()
                .map(|code| (*fs, static_cost(&code.stats)))
        })
        .collect();
    ranking.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite costs"));
    let (chosen, cost) = ranking[0];
    FeatureChoice {
        chosen,
        cost,
        ranking,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cisa_isa::Predication;

    fn choose(bench_fn: &IrFunction, names: &[&str]) -> FeatureChoice {
        let sets: Vec<FeatureSet> = names.iter().map(|n| n.parse().expect("valid")).collect();
        select_feature_set(bench_fn, &sets, &CompileOptions::default())
    }

    /// A region with `n` simultaneously live values.
    fn pressure_region(n: u32) -> IrFunction {
        use crate::ir::*;
        use cisa_isa::inst::MemLocality;
        let mut f = IrFunction::new(format!("region{n}"));
        let base = f.new_vreg();
        let mut b = IrBlock::new(Terminator::Ret, 100.0);
        b.insts.push(IrInst::constant(base, 4));
        let mut live = Vec::new();
        for k in 0..n {
            let v = f.new_vreg();
            b.insts.push(IrInst::load(
                v,
                AddrExpr::base_disp(base, k as i32 * 8),
                MemLocality::WorkingSet,
            ));
            live.push(v);
        }
        let mut acc = f.new_vreg();
        b.insts.push(IrInst::constant(acc, 1));
        for &v in &live {
            let nv = f.new_vreg();
            b.insts.push(IrInst::compute(IrOp::IntAlu, nv, acc, v));
            acc = nv;
        }
        f.add_block(b);
        f.validate().unwrap();
        f
    }

    #[test]
    fn high_pressure_regions_pick_deep_registers() {
        let f = pressure_region(40);
        let c = choose(
            &f,
            &["microx86-16D-32W", "microx86-32D-32W", "microx86-64D-32W"],
        );
        assert_eq!(c.depth(), 64, "40 live values want depth 64");
    }

    #[test]
    fn low_pressure_regions_avoid_prefix_costs() {
        let f = pressure_region(4);
        let c = choose(&f, &["microx86-16D-32W", "microx86-64D-32W"]);
        assert_eq!(c.depth(), 16, "4 live values don't pay for REXBC encodings");
    }

    #[test]
    fn ranking_is_exhaustive_and_sorted() {
        let f = pressure_region(20);
        let c = choose(
            &f,
            &["microx86-8D-32W", "microx86-16D-32W", "microx86-32D-32W"],
        );
        assert_eq!(c.ranking.len(), 3);
        assert!(c.ranking.windows(2).all(|w| w[0].1 <= w[1].1));
        assert_eq!(c.ranking[0].0, c.chosen);
        assert_eq!(c.ranking[0].1, c.cost);
    }

    #[test]
    fn branchy_regions_take_predication_when_offered() {
        use crate::ir::*;
        // An unpredictable diamond in a hot loop.
        let mut f = IrFunction::new("branchy");
        let c = f.new_vreg();
        let x = f.new_vreg();
        let mut entry = IrBlock::new(
            Terminator::Branch {
                cond: c,
                taken: BlockId(1),
                not_taken: BlockId(2),
                behavior: BranchBehavior::random(0.5),
            },
            200.0,
        );
        // x must be initialized before the arms conditionally redefine
        // it — the staged verifier rejects uses no definition reaches.
        entry.insts.push(IrInst::constant(x, 7));
        entry.insts.push(IrInst::compute(IrOp::Cmp, c, x, x));
        f.add_block(entry);
        let mut t = IrBlock::new(Terminator::Jump(BlockId(3)), 100.0);
        t.insts.push(IrInst::compute(IrOp::IntAlu, x, x, c));
        f.add_block(t);
        let mut e = IrBlock::new(Terminator::Jump(BlockId(3)), 100.0);
        e.insts.push(IrInst::compute(IrOp::IntAlu, x, c, c));
        f.add_block(e);
        f.add_block(IrBlock::new(Terminator::Ret, 200.0));
        f.validate().unwrap();

        let choice = choose(&f, &["x86-32D-64W", "x86-32D-64W-P"]);
        // The static cost model alone cannot see mispredictions, so the
        // converted code must at least not lose badly; the ranking keeps
        // both candidates visible for schedulers that can.
        assert_eq!(choice.ranking.len(), 2);
        let full = choice
            .ranking
            .iter()
            .find(|(fs, _)| fs.predication() == Predication::Full)
            .expect("full-pred candidate ranked");
        let partial = choice
            .ranking
            .iter()
            .find(|(fs, _)| fs.predication() == Predication::Partial)
            .expect("partial candidate ranked");
        assert!(
            full.1 <= partial.1 * 1.2,
            "predicated code stays competitive"
        );
    }

    #[test]
    #[should_panic(expected = "at least one feature set")]
    fn empty_candidate_set_panics() {
        let f = pressure_region(4);
        select_feature_set(&f, &[], &CompileOptions::default());
    }
}
