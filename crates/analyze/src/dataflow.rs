//! Iterative dataflow fixpoints over the recovered CFG.
//!
//! Three analyses run to fixpoint with simple worklists:
//!
//! - **Residual feature needs** (backward, may): for each block, the
//!   join of the `hi` feature needs of every instruction reachable from
//!   its entry. This is what a migration *at* that block entry still
//!   has to care about — code before the point has already executed on
//!   the source core.
//! - **Wide state** (forward, may): the set of registers that may hold
//!   a live 64-bit value at each block entry. A REX.W def inserts its
//!   register; only a *strong* narrow def removes one. The entry block
//!   starts empty — analyzed images are whole functions and the
//!   compiler's regions carry no wide values across function
//!   boundaries (a region-level calling-convention assumption, stated
//!   here once and relied on by the width refinement).
//! - **Liveness + reaching definitions** (backward/forward, per
//!   register and per def site): feed the dead-def advisory and the
//!   `max_reaching_defs` density fact. Everything is treated as live
//!   at function exit, so a def is only reported dead when it is
//!   provably re-defined before any use on every path — byte-level
//!   two-address hiding makes anything stronger a heuristic.

use crate::cfg::Cfg;
use crate::facts::{FeatureNeeds, InstFacts, RegSet};

/// Results of all dataflow fixpoints.
#[derive(Debug, Clone, Default)]
pub struct Dataflow {
    /// Total block transfer-function evaluations across all fixpoints
    /// (the `analyze/dataflow/iters` counter).
    pub iters: u64,
    /// Per-block residual feature needs (join over everything reachable
    /// from the block entry), indexed like `cfg.blocks`.
    pub residual: Vec<FeatureNeeds>,
    /// Per-block entry wide-state: registers that may carry a live
    /// 64-bit value into the block.
    pub wide_in: Vec<RegSet>,
    /// Per-block live-in register sets.
    pub live_in: Vec<RegSet>,
    /// Instruction indices whose defs are provably overwritten before
    /// any use (dead-def advisory candidates).
    pub dead_defs: Vec<usize>,
    /// Maximum number of definitions reaching any block entry.
    pub max_reaching_defs: usize,
}

fn bit(r: u8) -> RegSet {
    1u64 << (r & 0x3F)
}

/// Runs every fixpoint. `insts` and `cfg` come from the same stream.
pub(crate) fn run(insts: &[InstFacts], cfg: &Cfg) -> Dataflow {
    let n = cfg.blocks.len();
    let mut df = Dataflow {
        residual: vec![FeatureNeeds::default(); n],
        wide_in: vec![0; n],
        live_in: vec![0; n],
        ..Dataflow::default()
    };
    if n == 0 {
        return df;
    }

    let block_insts = |b: usize| -> &[InstFacts] {
        &insts[cfg.blocks[b].first..cfg.blocks[b].first + cfg.blocks[b].count]
    };

    // Per-block summaries for the feature-needs join.
    let own: Vec<FeatureNeeds> = (0..n)
        .map(|b| {
            let mut needs = FeatureNeeds::default();
            for f in block_insts(b) {
                needs.join(&f.hi);
            }
            needs
        })
        .collect();

    // Backward residual needs: residual[b] = own[b] ⊔ ⨆ residual[succ].
    let mut residual = own.clone();
    let mut changed = true;
    while changed {
        changed = false;
        for b in (0..n).rev() {
            df.iters += 1;
            let mut next = own[b];
            for &s in &cfg.blocks[b].succs {
                next.join(&residual[s]);
            }
            if next != residual[b] {
                residual[b] = next;
                changed = true;
            }
        }
    }
    df.residual = residual;

    // Forward wide-state (may): W' = (W ∖ strong-narrow-defs) ∪ wide-defs,
    // applied instruction by instruction.
    let wide_transfer = |b: usize, mut w: RegSet| -> RegSet {
        for f in block_insts(b) {
            if let Some(d) = f.def {
                if f.wide_def {
                    w |= bit(d);
                } else if f.strong_def {
                    w &= !bit(d);
                }
            }
        }
        w
    };
    let mut wide_in: Vec<RegSet> = vec![0; n];
    let mut wide_out: Vec<RegSet> = vec![0; n];
    changed = true;
    while changed {
        changed = false;
        for b in 0..n {
            df.iters += 1;
            // Entry block joins no predecessors: W = ∅ at function entry.
            let mut w_in = 0;
            for (p, pb) in cfg.blocks.iter().enumerate() {
                if pb.succs.contains(&b) {
                    w_in |= wide_out[p];
                }
            }
            let w_out = wide_transfer(b, w_in);
            if w_in != wide_in[b] || w_out != wide_out[b] {
                wide_in[b] = w_in;
                wide_out[b] = w_out;
                changed = true;
            }
        }
    }
    df.wide_in = wide_in;

    // Backward liveness. Exit blocks (and blocks that fall off the
    // stream) treat every register as live: the region's outputs are
    // unknown at the byte level.
    let live_transfer = |b: usize, mut live: RegSet| -> RegSet {
        for f in block_insts(b).iter().rev() {
            if let Some(d) = f.def {
                if f.strong_def {
                    live &= !bit(d);
                }
            }
            live |= f.uses;
        }
        live
    };
    let mut live_in: Vec<RegSet> = vec![0; n];
    let mut live_out: Vec<RegSet> = vec![0; n];
    changed = true;
    while changed {
        changed = false;
        for b in (0..n).rev() {
            df.iters += 1;
            let exit = cfg.blocks[b].succs.is_empty();
            let mut out: RegSet = if exit { !0 } else { 0 };
            for &s in &cfg.blocks[b].succs {
                out |= live_in[s];
            }
            let inn = live_transfer(b, out);
            if inn != live_in[b] || out != live_out[b] {
                live_in[b] = inn;
                live_out[b] = out;
                changed = true;
            }
        }
    }
    df.live_in = live_in.clone();

    // Dead defs: walk each reachable block backward with the exact
    // live set; a side-effect-free strong def of a dead register is a
    // dead instruction. Weak defs and memory writers never qualify.
    for (b, blk) in cfg.blocks.iter().enumerate() {
        if !blk.reachable {
            continue;
        }
        let mut live = live_out[b];
        let first = blk.first;
        for (i, f) in block_insts(b).iter().enumerate().rev() {
            if let Some(d) = f.def {
                if f.strong_def && !f.mem_write && live & bit(d) == 0 {
                    df.dead_defs.push(first + i);
                }
                if f.strong_def {
                    live &= !bit(d);
                }
            }
            live |= f.uses;
        }
    }
    df.dead_defs.sort_unstable();

    // Reaching definitions over def sites (one bit per defining
    // instruction), forward union fixpoint. Kill sets are per-register:
    // a strong def of r kills every other def of r.
    let def_sites: Vec<usize> = (0..insts.len())
        .filter(|&i| insts[i].def.is_some())
        .collect();
    let site_index = |i: usize| -> Option<usize> { def_sites.binary_search(&i).ok() };
    let words = def_sites.len().div_ceil(64).max(1);
    let mut defs_of_reg: Vec<Vec<usize>> = vec![Vec::new(); 64];
    for (s, &i) in def_sites.iter().enumerate() {
        if let Some(d) = insts[i].def {
            defs_of_reg[(d & 0x3F) as usize].push(s);
        }
    }
    let reach_transfer = |b: usize, set: &mut Vec<u64>| {
        let first = cfg.blocks[b].first;
        for (i, f) in block_insts(b).iter().enumerate() {
            if let Some(d) = f.def {
                if f.strong_def {
                    for &s in &defs_of_reg[(d & 0x3F) as usize] {
                        set[s / 64] &= !(1u64 << (s % 64));
                    }
                }
                if let Some(s) = site_index(first + i) {
                    set[s / 64] |= 1u64 << (s % 64);
                }
            }
        }
    };
    let mut reach_in: Vec<Vec<u64>> = vec![vec![0u64; words]; n];
    let mut reach_out: Vec<Vec<u64>> = vec![vec![0u64; words]; n];
    changed = true;
    while changed {
        changed = false;
        for b in 0..n {
            df.iters += 1;
            let mut inn = vec![0u64; words];
            for (p, pb) in cfg.blocks.iter().enumerate() {
                if pb.succs.contains(&b) {
                    for (w, v) in inn.iter_mut().enumerate() {
                        *v |= reach_out[p][w];
                    }
                }
            }
            let mut out = inn.clone();
            reach_transfer(b, &mut out);
            if inn != reach_in[b] || out != reach_out[b] {
                reach_in[b] = inn;
                reach_out[b] = out;
                changed = true;
            }
        }
    }
    df.max_reaching_defs = reach_in
        .iter()
        .map(|set| set.iter().map(|w| w.count_ones() as usize).sum())
        .max()
        .unwrap_or(0);

    df
}
