//! Machine-independent if-conversion (Section IV-A).
//!
//! Re-purposes LLVM's three if-conversion shapes:
//!
//! - **diamond** — a true block and a false block split from an entry
//!   block and rejoin at a tail,
//! - **triangle** — the true block falls through into the false
//!   successor,
//! - **simple** — the blocks split but do not rejoin (an early `Ret`
//!   inside a conditional).
//!
//! For every matching pattern the pass predicates the hoisted
//! instructions on the branch condition and removes the branch when
//! profitable. Profitability follows the paper: branch probability,
//! approximate instruction latency along each path, and the configured
//! pipeline depth (misprediction penalty).

use crate::ir::{BranchPattern, IrBlock, IrFunction, Terminator};

/// Profitability knobs for if-conversion. Compiles always use the
/// default; the fields vary only in this module's tests.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IfConvertConfig {
    /// Pipeline depth: the cycles lost to a branch misprediction.
    mispredict_penalty: f64,
    /// Approximate sustained IPC of the target; converts extra
    /// instructions into cycles.
    ipc_hint: f64,
    /// Maximum hoistable block size (instructions).
    max_block_size: usize,
}

impl Default for IfConvertConfig {
    fn default() -> Self {
        IfConvertConfig {
            mispredict_penalty: 7.0,
            ipc_hint: 1.6,
            max_block_size: 12,
        }
    }
}

/// Outcome statistics of an if-conversion run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IfConvertStats {
    /// Diamonds converted.
    pub diamonds: u32,
    /// Triangles converted.
    pub triangles: u32,
    /// Simple patterns converted.
    pub simples: u32,
    /// Profile-weighted branches eliminated.
    pub dyn_branches_removed: f64,
    /// Profile-weighted extra instructions now executed.
    pub dyn_insts_added: f64,
}

impl IfConvertStats {
    /// Total patterns converted.
    pub fn total(&self) -> u32 {
        self.diamonds + self.triangles + self.simples
    }
}

/// Estimated misprediction rate of a branch from its behaviour
/// annotation, as the compiler's profitability analysis would see it.
fn estimated_mispredict_rate(behavior: &crate::ir::BranchBehavior) -> f64 {
    let base = behavior.taken_prob.min(1.0 - behavior.taken_prob);
    match behavior.pattern {
        BranchPattern::LoopBack { trip } => (1.0 / trip.max(1) as f64).min(base + 0.01),
        BranchPattern::Biased => base * 0.8,
        BranchPattern::Periodic { .. } => base * 0.25,
        BranchPattern::Random => base * 1.4, // two-sided confusion
    }
}

/// Runs if-conversion over a function in place, returning statistics.
///
/// Only call for targets with full predication support; the caller (the
/// compile driver) guards on the feature set.
pub(crate) fn if_convert(func: &mut IrFunction, config: &IfConvertConfig) -> IfConvertStats {
    let mut stats = IfConvertStats::default();
    let preds = func.predecessors();

    // Iterate entry candidates; convert at most one pattern per entry
    // block per pass (conversions can cascade, one pass is enough for
    // the shapes our generator emits).
    for e in 0..func.blocks.len() {
        let Terminator::Branch {
            cond,
            taken,
            not_taken,
            behavior,
        } = func.blocks[e].term
        else {
            continue;
        };
        if taken == not_taken || taken.idx() == e || not_taken.idx() == e {
            continue;
        }
        let t = taken.idx();
        let f = not_taken.idx();
        let single_pred = |b: usize| preds[b].len() == 1 && preds[b][0].idx() == e;
        let hoistable = |b: &IrBlock, cfg: &IfConvertConfig| {
            // An arm that redefines the guard register would corrupt the
            // predicate for every instruction hoisted after it.
            b.insts.len() <= cfg.max_block_size
                && b.insts
                    .iter()
                    .all(|i| i.pred.is_none() && i.def() != Some(cond))
        };

        let p_taken = behavior.taken_prob;
        let mispredict = estimated_mispredict_rate(&behavior);
        let weight = func.blocks[e].weight;
        let branch_cost = mispredict * config.mispredict_penalty;

        // Diamond: taken and not-taken both jump to a common join.
        let t_term = func.blocks[t].term;
        let f_term = func.blocks[f].term;
        if let (Terminator::Jump(tj), Terminator::Jump(fj)) = (t_term, f_term) {
            if tj == fj
                && single_pred(t)
                && single_pred(f)
                && hoistable(&func.blocks[t], config)
                && hoistable(&func.blocks[f], config)
            {
                let t_len = func.blocks[t].insts.len() as f64;
                let f_len = func.blocks[f].insts.len() as f64;
                // Extra instructions executed per entry execution.
                let extra = (1.0 - p_taken) * t_len + p_taken * f_len;
                if branch_cost > extra / config.ipc_hint {
                    let t_insts = std::mem::take(&mut func.blocks[t].insts);
                    let f_insts = std::mem::take(&mut func.blocks[f].insts);
                    let entry = &mut func.blocks[e];
                    for mut i in t_insts {
                        i.pred = Some((cond, false));
                        entry.insts.push(i);
                    }
                    for mut i in f_insts {
                        i.pred = Some((cond, true));
                        entry.insts.push(i);
                    }
                    entry.term = Terminator::Jump(tj);
                    func.blocks[t].weight = 0.0;
                    func.blocks[f].weight = 0.0;
                    stats.diamonds += 1;
                    stats.dyn_branches_removed += weight;
                    stats.dyn_insts_added += weight * extra;
                    continue;
                }
            }
        }

        // Triangle: the taken block falls through into the not-taken
        // successor.
        if let Terminator::Jump(tj) = t_term {
            if tj == not_taken && single_pred(t) && hoistable(&func.blocks[t], config) {
                let t_len = func.blocks[t].insts.len() as f64;
                let extra = (1.0 - p_taken) * t_len;
                if branch_cost > extra / config.ipc_hint {
                    let t_insts = std::mem::take(&mut func.blocks[t].insts);
                    let entry = &mut func.blocks[e];
                    for mut i in t_insts {
                        i.pred = Some((cond, false));
                        entry.insts.push(i);
                    }
                    entry.term = Terminator::Jump(not_taken);
                    func.blocks[t].weight = 0.0;
                    stats.triangles += 1;
                    stats.dyn_branches_removed += weight;
                    stats.dyn_insts_added += weight * extra;
                    continue;
                }
            }
        }

        // Simple: the taken block splits off and does not rejoin (its
        // terminator is a Ret or a jump elsewhere). Predicating its body
        // is only legal when the side exit is rare enough that we treat
        // the residual control transfer as a highly biased branch; we
        // require a Ret terminator and hoist the body, keeping the
        // (now cheaper, body-less) conditional exit.
        if matches!(t_term, Terminator::Ret)
            && single_pred(t)
            && hoistable(&func.blocks[t], config)
            && p_taken < 0.05
        {
            let t_len = func.blocks[t].insts.len() as f64;
            let extra = t_len; // body now always executes
            if branch_cost > extra / config.ipc_hint {
                let t_insts = std::mem::take(&mut func.blocks[t].insts);
                let entry = &mut func.blocks[e];
                for mut i in t_insts {
                    i.pred = Some((cond, false));
                    entry.insts.push(i);
                }
                // The conditional exit remains (still a branch) but its
                // body is hoisted; weight bookkeeping only.
                func.blocks[t].weight = weight * p_taken;
                stats.simples += 1;
                stats.dyn_insts_added += weight * extra;
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{AddrExpr, BlockId, BranchBehavior, IrInst, IrOp};
    use cisa_isa::inst::MemLocality;

    /// entry(b0) -> t(b1)/f(b2) -> join(b3)
    fn diamond(taken_prob: f64, pattern_random: bool, body_len: usize) -> IrFunction {
        let mut func = IrFunction::new("diamond");
        let cond = func.new_vreg();
        let x = func.new_vreg();
        let behavior = if pattern_random {
            BranchBehavior::random(taken_prob)
        } else {
            BranchBehavior::loop_back(1000)
        };
        let mut entry = IrBlock::new(
            Terminator::Branch {
                cond,
                taken: BlockId(1),
                not_taken: BlockId(2),
                behavior,
            },
            100.0,
        );
        entry.insts.push(IrInst::compute(IrOp::Cmp, cond, x, x));
        func.add_block(entry);
        let mut t = IrBlock::new(Terminator::Jump(BlockId(3)), 100.0 * taken_prob);
        let mut f = IrBlock::new(Terminator::Jump(BlockId(3)), 100.0 * (1.0 - taken_prob));
        for _ in 0..body_len {
            t.insts.push(IrInst::compute(IrOp::IntAlu, x, x, cond));
            f.insts.push(IrInst::compute(IrOp::IntAlu, x, x, cond));
        }
        func.add_block(t);
        func.add_block(f);
        func.add_block(IrBlock::new(Terminator::Ret, 100.0));
        func.validate().unwrap();
        func
    }

    #[test]
    fn converts_unpredictable_diamond() {
        let mut f = diamond(0.5, true, 3);
        let stats = if_convert(&mut f, &IfConvertConfig::default());
        assert_eq!(stats.diamonds, 1);
        assert!(stats.dyn_branches_removed > 0.0);
        // Entry now holds cmp + both predicated bodies and jumps to join.
        assert_eq!(f.blocks[0].insts.len(), 1 + 6);
        assert!(matches!(f.blocks[0].term, Terminator::Jump(BlockId(3))));
        // Hoisted instructions carry complementary predicates.
        let preds: Vec<_> = f.blocks[0].insts[1..]
            .iter()
            .map(|i| i.pred.unwrap().1)
            .collect();
        assert_eq!(preds, vec![false, false, false, true, true, true]);
        f.validate().unwrap();
    }

    #[test]
    fn skips_predictable_branch() {
        // Loop back-edge: ~0.1% mispredict — never profitable.
        let mut f = diamond(0.5, false, 3);
        let stats = if_convert(&mut f, &IfConvertConfig::default());
        assert_eq!(stats.total(), 0);
        assert!(matches!(f.blocks[0].term, Terminator::Branch { .. }));
    }

    #[test]
    fn skips_oversized_bodies() {
        let mut f = diamond(0.5, true, 40);
        let stats = if_convert(&mut f, &IfConvertConfig::default());
        assert_eq!(stats.total(), 0);
    }

    #[test]
    fn converts_triangle() {
        let mut func = IrFunction::new("triangle");
        let cond = func.new_vreg();
        let x = func.new_vreg();
        let mut entry = IrBlock::new(
            Terminator::Branch {
                cond,
                taken: BlockId(1),
                not_taken: BlockId(2),
                behavior: BranchBehavior::random(0.5),
            },
            50.0,
        );
        entry.insts.push(IrInst::compute(IrOp::Cmp, cond, x, x));
        func.add_block(entry);
        let mut t = IrBlock::new(Terminator::Jump(BlockId(2)), 25.0);
        t.insts.push(IrInst::store(
            x,
            AddrExpr::base(cond),
            MemLocality::WorkingSet,
        ));
        func.add_block(t);
        func.add_block(IrBlock::new(Terminator::Ret, 50.0));
        func.validate().unwrap();

        let stats = if_convert(&mut func, &IfConvertConfig::default());
        assert_eq!(stats.triangles, 1);
        assert!(matches!(func.blocks[0].term, Terminator::Jump(BlockId(2))));
        assert_eq!(
            func.blocks[0].insts.last().unwrap().pred,
            Some((cond, false))
        );
        func.validate().unwrap();
    }

    #[test]
    fn simple_pattern_hoists_rare_exit_body() {
        let mut func = IrFunction::new("simple");
        let cond = func.new_vreg();
        let x = func.new_vreg();
        let mut entry = IrBlock::new(
            Terminator::Branch {
                cond,
                taken: BlockId(1),
                not_taken: BlockId(2),
                behavior: BranchBehavior::random(0.01),
            },
            100.0,
        );
        entry.insts.push(IrInst::compute(IrOp::Cmp, cond, x, x));
        func.add_block(entry);
        let mut t = IrBlock::new(Terminator::Ret, 1.0);
        t.insts.push(IrInst::compute(IrOp::IntAlu, x, x, x));
        func.add_block(t);
        func.add_block(IrBlock::new(Terminator::Ret, 99.0));
        func.validate().unwrap();

        // Low taken_prob gives ~1.4% estimated mispredict; the 1-inst
        // body costs ~0.6 cycles, so defaults don't convert. Crank the
        // penalty to force profitability.
        let cfg = IfConvertConfig {
            mispredict_penalty: 60.0,
            ..Default::default()
        };
        let stats = if_convert(&mut func, &cfg);
        assert_eq!(stats.simples, 1);
        // The conditional exit itself remains a branch.
        assert!(matches!(func.blocks[0].term, Terminator::Branch { .. }));
        assert!(func.blocks[0].insts.iter().any(|i| i.pred.is_some()));
    }

    #[test]
    fn never_converts_arms_that_redefine_the_guard() {
        // If an arm writes the condition register, hoisting it would
        // change the predicate seen by every later hoisted instruction.
        let mut func = diamond(0.5, true, 2);
        let cond = match func.blocks[0].term {
            Terminator::Branch { cond, .. } => cond,
            _ => unreachable!(),
        };
        let x = func.blocks[1].insts[0].dst;
        func.blocks[1]
            .insts
            .push(IrInst::compute(IrOp::Cmp, cond, x, x));
        func.validate().unwrap();
        let stats = if_convert(&mut func, &IfConvertConfig::default());
        assert_eq!(stats.total(), 0, "guard-clobbering arm must not convert");
    }

    #[test]
    fn never_converts_blocks_with_extra_predecessors() {
        let mut func = diamond(0.5, true, 2);
        // Add a second predecessor to the taken block.
        let t_id = BlockId(1);
        func.add_block(IrBlock::new(Terminator::Jump(t_id), 1.0));
        // Note: bb4 is unreachable from entry but still contributes a
        // predecessor edge, which must veto hoisting of bb1.
        let stats = if_convert(&mut func, &IfConvertConfig::default());
        assert_eq!(stats.diamonds, 0);
    }
}
