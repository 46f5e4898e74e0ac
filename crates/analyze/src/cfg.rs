//! Control-flow-graph recovery from a decoded instruction stream.
//!
//! Classic leader detection: the stream start, every branch/jump
//! target, and every instruction following a control transfer starts a
//! basic block. Branch displacements are relative to the end of the
//! branch, as encoded. Calls are *not* block terminators here — their
//! targets live outside the analyzed image (the layout step leaves call
//! displacements unpatched), so they are counted and otherwise treated
//! as straight-line instructions.
//!
//! Unresolvable control flow is handled conservatively: a branch whose
//! target falls outside the stream or lands between instruction
//! boundaries marks the whole CFG *escaping*. An escaping CFG keeps
//! every block reachable and downstream consumers fall back to
//! whole-stream facts (no migration-point refinement), so a bad target
//! can weaken conclusions but never unsound them.

use std::collections::BTreeSet;

use cisa_isa::{MacroOpcode, SpannedInst};

use crate::facts::InstFacts;
use crate::rules::Finding;

/// One recovered basic block.
#[derive(Debug, Clone)]
pub struct BasicBlock {
    /// Byte offset of the block's first instruction.
    pub start: usize,
    /// Index of the first instruction in the stream.
    pub first: usize,
    /// Number of instructions in the block.
    pub count: usize,
    /// Successor block indices.
    pub succs: Vec<usize>,
    /// Reachable from the entry block (always true when the CFG is
    /// escaping).
    pub reachable: bool,
}

/// The recovered control-flow graph.
#[derive(Debug, Clone, Default)]
pub struct Cfg {
    /// Basic blocks in ascending start-offset order; block 0 is the
    /// entry.
    pub blocks: Vec<BasicBlock>,
    /// Some control flow could not be resolved (bad target): all
    /// reachability and residual claims degrade to whole-stream
    /// conservatism.
    pub escaping: bool,
    /// Calls to targets outside the image.
    pub external_calls: usize,
}

impl Cfg {
    /// Number of reachable blocks.
    pub fn reachable_blocks(&self) -> usize {
        self.blocks.iter().filter(|b| b.reachable).count()
    }
}

/// Recovers the CFG of a decoded stream. `spanned` supplies the raw
/// immediates for branch targets; `insts` the per-instruction facts
/// (parallel arrays). Structural findings (bad targets, unreachable
/// blocks) are appended to `findings`.
pub(crate) fn recover_cfg(
    spanned: &[SpannedInst],
    insts: &[InstFacts],
    stream_len: usize,
    findings: &mut Vec<Finding>,
) -> Cfg {
    if insts.is_empty() {
        return Cfg::default();
    }

    // Instruction boundary -> index map.
    let boundary = |off: i64| -> Option<usize> {
        if off < 0 {
            return None;
        }
        insts
            .binary_search_by_key(&(off as usize), |f| f.offset)
            .ok()
    };

    let mut escaping = false;
    let mut leaders: BTreeSet<usize> = BTreeSet::new();
    leaders.insert(0);
    let mut external_calls = 0usize;
    for (i, f) in insts.iter().enumerate() {
        match f.opcode {
            MacroOpcode::Branch | MacroOpcode::Jump => {
                let target = f.offset as i64 + f.len as i64 + spanned[i].inst.imm as i64;
                if target < 0 || target as usize >= stream_len {
                    findings.push(Finding::new(
                        "branch-target-out-of-range",
                        Some(f.offset),
                        format!("target {target:+#x} outside stream of {stream_len} bytes"),
                    ));
                    escaping = true;
                } else {
                    match boundary(target) {
                        Some(idx) => {
                            leaders.insert(idx);
                        }
                        None => {
                            findings.push(Finding::new(
                                "branch-target-misaligned",
                                Some(f.offset),
                                format!("target {target:#x} is not an instruction boundary"),
                            ));
                            escaping = true;
                        }
                    }
                }
                if i + 1 < insts.len() {
                    leaders.insert(i + 1);
                }
            }
            MacroOpcode::Ret if i + 1 < insts.len() => {
                leaders.insert(i + 1);
            }
            MacroOpcode::Call => {
                external_calls += 1;
            }
            _ => {}
        }
    }

    let starts: Vec<usize> = leaders.into_iter().collect();
    let block_of_inst = |idx: usize| -> usize {
        match starts.binary_search(&idx) {
            Ok(b) => b,
            Err(b) => b - 1,
        }
    };

    let mut blocks: Vec<BasicBlock> = Vec::with_capacity(starts.len());
    for (b, &first) in starts.iter().enumerate() {
        let end = starts.get(b + 1).copied().unwrap_or(insts.len());
        let last = end - 1;
        let mut succs = Vec::new();
        match insts[last].opcode {
            MacroOpcode::Branch => {
                let target = insts[last].offset as i64
                    + insts[last].len as i64
                    + spanned[last].inst.imm as i64;
                if let Some(idx) = boundary(target) {
                    succs.push(block_of_inst(idx));
                }
                if b + 1 < starts.len() {
                    succs.push(b + 1);
                }
            }
            MacroOpcode::Jump => {
                let target = insts[last].offset as i64
                    + insts[last].len as i64
                    + spanned[last].inst.imm as i64;
                if let Some(idx) = boundary(target) {
                    succs.push(block_of_inst(idx));
                }
            }
            MacroOpcode::Ret => {}
            // Block ends because the next instruction is a leader.
            _ => {
                if b + 1 < starts.len() {
                    succs.push(b + 1);
                }
            }
        }
        succs.dedup();
        blocks.push(BasicBlock {
            start: insts[first].offset,
            first,
            count: end - first,
            succs,
            reachable: false,
        });
    }

    // Reachability from the entry block; escaping CFGs keep everything
    // reachable (conservative: unknown control flow could go anywhere).
    if escaping {
        for b in &mut blocks {
            b.reachable = true;
        }
    } else {
        let mut work = vec![0usize];
        while let Some(b) = work.pop() {
            if blocks[b].reachable {
                continue;
            }
            blocks[b].reachable = true;
            work.extend(blocks[b].succs.iter().copied());
        }
        for (bi, b) in blocks.iter().enumerate() {
            if !b.reachable {
                findings.push(Finding::new(
                    "unreachable-block",
                    Some(b.start),
                    format!("block {bi} ({} insts) is unreachable from entry", b.count),
                ));
            }
        }
    }

    Cfg {
        blocks,
        escaping,
        external_calls,
    }
}
