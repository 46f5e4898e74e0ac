//! Control-flow-graph analyses: dominator tree and natural-loop
//! detection.
//!
//! The if-conversion pass and the workload generator both reason about
//! loop structure; these analyses make the structure explicit and are
//! used to validate generated functions (every back edge must target a
//! block that dominates its source — i.e., the CFG is reducible).
//! The dominator construction is the Cooper-Harvey-Kennedy iterative
//! algorithm over a reverse-postorder traversal.

use crate::ir::{BlockId, IrFunction};

/// Dominator tree of an [`IrFunction`]'s CFG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dominators {
    /// Immediate dominator per block (`idom[entry] == entry`);
    /// unreachable blocks map to `None`.
    idom: Vec<Option<BlockId>>,
    /// Reverse postorder of the reachable blocks.
    rpo: Vec<BlockId>,
}

impl Dominators {
    /// Computes dominators for a function.
    pub fn compute(func: &IrFunction) -> Self {
        let n = func.blocks.len();
        // Reverse postorder via iterative DFS.
        let mut visited = vec![false; n];
        let mut postorder: Vec<BlockId> = Vec::with_capacity(n);
        let mut stack: Vec<(BlockId, usize)> = vec![(BlockId(0), 0)];
        visited[0] = true;
        while let Some(&mut (b, ref mut next)) = stack.last_mut() {
            let succs = func.blocks[b.idx()].term.successors();
            if *next < succs.len() {
                let s = succs[*next];
                *next += 1;
                if !visited[s.idx()] {
                    visited[s.idx()] = true;
                    stack.push((s, 0));
                }
            } else {
                postorder.push(b);
                stack.pop();
            }
        }
        let rpo: Vec<BlockId> = postorder.iter().rev().copied().collect();
        let mut rpo_index = vec![usize::MAX; n];
        for (i, b) in rpo.iter().enumerate() {
            rpo_index[b.idx()] = i;
        }

        let preds = func.predecessors();
        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        idom[0] = Some(BlockId(0));

        let intersect =
            |idom: &[Option<BlockId>], rpo_index: &[usize], mut a: BlockId, mut b: BlockId| {
                while a != b {
                    while rpo_index[a.idx()] > rpo_index[b.idx()] {
                        a = idom[a.idx()].expect("processed");
                    }
                    while rpo_index[b.idx()] > rpo_index[a.idx()] {
                        b = idom[b.idx()].expect("processed");
                    }
                }
                a
            };

        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in &preds[b.idx()] {
                    if idom[p.idx()].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, &rpo_index, cur, p),
                    });
                }
                if new_idom.is_some() && idom[b.idx()] != new_idom {
                    idom[b.idx()] = new_idom;
                    changed = true;
                }
            }
        }
        Dominators { idom, rpo }
    }

    /// The immediate dominator of `b` (entry's idom is itself);
    /// `None` for unreachable blocks.
    pub(crate) fn idom(&self, b: BlockId) -> Option<BlockId> {
        self.idom.get(b.idx()).copied().flatten()
    }

    /// Whether `a` dominates `b` (reflexive).
    pub(crate) fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom(cur) {
                Some(d) if d != cur => cur = d,
                _ => return false,
            }
        }
    }

    /// Reverse postorder of the reachable blocks.
    pub(crate) fn reverse_postorder(&self) -> &[BlockId] {
        &self.rpo
    }

    /// Whether `b` is reachable from the entry.
    pub(crate) fn reachable(&self, b: BlockId) -> bool {
        self.idom(b).is_some()
    }
}

/// A natural loop: a back edge `latch -> header` where the header
/// dominates the latch, plus every block that can reach the latch
/// without passing through the header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NaturalLoop {
    /// The loop header.
    pub header: BlockId,
    /// The latch (source of the back edge).
    pub latch: BlockId,
    /// All member blocks (header included), sorted by id.
    pub body: Vec<BlockId>,
}

impl NaturalLoop {
    /// Number of blocks in the loop.
    pub fn len(&self) -> usize {
        self.body.len()
    }

    /// Whether the loop body is empty (never: it contains the header).
    pub fn is_empty(&self) -> bool {
        self.body.is_empty()
    }
}

/// Finds all natural loops; returns them sorted by header id.
///
/// Back edges whose target does *not* dominate their source (irreducible
/// control flow) are skipped.
pub fn natural_loops(func: &IrFunction, dom: &Dominators) -> Vec<NaturalLoop> {
    let mut loops = Vec::new();
    for (i, b) in func.blocks.iter().enumerate() {
        let latch = BlockId(i as u32);
        if !dom.reachable(latch) {
            continue;
        }
        for header in b.term.successors() {
            if !dom.dominates(header, latch) {
                continue;
            }
            // Collect the body: backwards from the latch to the header.
            let preds = func.predecessors();
            let mut body = vec![header];
            let mut stack = vec![latch];
            while let Some(x) = stack.pop() {
                if body.contains(&x) {
                    continue;
                }
                body.push(x);
                for &p in &preds[x.idx()] {
                    if dom.reachable(p) {
                        stack.push(p);
                    }
                }
            }
            body.sort();
            loops.push(NaturalLoop {
                header,
                latch,
                body,
            });
        }
    }
    loops.sort_by_key(|l| (l.header, l.latch));
    loops
}

/// Validates that every back edge in the function is a natural-loop
/// back edge (the CFG is reducible) — true by construction for the
/// workload generator's output.
pub fn is_reducible(func: &IrFunction) -> bool {
    let dom = Dominators::compute(func);
    for (i, b) in func.blocks.iter().enumerate() {
        let src = BlockId(i as u32);
        if !dom.reachable(src) {
            continue;
        }
        for s in b.term.successors() {
            // A retreating edge in RPO must be a dominator back edge.
            let rpo = dom.reverse_postorder();
            let pos = |x: BlockId| rpo.iter().position(|&y| y == x);
            if let (Some(ps), Some(pt)) = (pos(src), pos(s)) {
                if pt <= ps && !dom.dominates(s, src) {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
impl NaturalLoop {
    /// Whether a block belongs to this loop.
    pub(crate) fn contains(&self, b: BlockId) -> bool {
        self.body.binary_search(&b).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{BranchBehavior, IrBlock, Terminator};

    /// entry(0) -> loop head(1) -> body(2) -> latch(3) -> head | exit(4)
    fn loopy() -> IrFunction {
        let mut f = IrFunction::new("loopy");
        let c = f.new_vreg();
        f.add_block(IrBlock::new(Terminator::Jump(BlockId(1)), 1.0)); // 0
        f.add_block(IrBlock::new(Terminator::Jump(BlockId(2)), 10.0)); // 1
        f.add_block(IrBlock::new(Terminator::Jump(BlockId(3)), 10.0)); // 2
        f.add_block(IrBlock::new(
            Terminator::Branch {
                cond: c,
                taken: BlockId(1),
                not_taken: BlockId(4),
                behavior: BranchBehavior::loop_back(10),
            },
            10.0,
        )); // 3
        f.add_block(IrBlock::new(Terminator::Ret, 1.0)); // 4
        f.validate().unwrap();
        f
    }

    #[test]
    fn dominators_of_a_simple_loop() {
        let f = loopy();
        let dom = Dominators::compute(&f);
        assert_eq!(dom.idom(BlockId(0)), Some(BlockId(0)));
        assert_eq!(dom.idom(BlockId(1)), Some(BlockId(0)));
        assert_eq!(dom.idom(BlockId(2)), Some(BlockId(1)));
        assert_eq!(dom.idom(BlockId(3)), Some(BlockId(2)));
        assert_eq!(dom.idom(BlockId(4)), Some(BlockId(3)));
        assert!(dom.dominates(BlockId(1), BlockId(3)));
        assert!(!dom.dominates(BlockId(2), BlockId(1)));
        assert!(dom.dominates(BlockId(0), BlockId(4)));
    }

    #[test]
    fn natural_loop_detection() {
        let f = loopy();
        let dom = Dominators::compute(&f);
        let loops = natural_loops(&f, &dom);
        assert_eq!(loops.len(), 1);
        let l = &loops[0];
        assert_eq!(l.header, BlockId(1));
        assert_eq!(l.latch, BlockId(3));
        assert_eq!(l.body, vec![BlockId(1), BlockId(2), BlockId(3)]);
        assert!(l.contains(BlockId(2)));
        assert!(!l.contains(BlockId(4)));
        assert_eq!(l.len(), 3);
    }

    #[test]
    fn diamond_has_no_loops() {
        let mut f = IrFunction::new("diamond");
        let c = f.new_vreg();
        f.add_block(IrBlock::new(
            Terminator::Branch {
                cond: c,
                taken: BlockId(1),
                not_taken: BlockId(2),
                behavior: BranchBehavior::biased(0.5),
            },
            1.0,
        ));
        f.add_block(IrBlock::new(Terminator::Jump(BlockId(3)), 0.5));
        f.add_block(IrBlock::new(Terminator::Jump(BlockId(3)), 0.5));
        f.add_block(IrBlock::new(Terminator::Ret, 1.0));
        let dom = Dominators::compute(&f);
        assert!(natural_loops(&f, &dom).is_empty());
        // Join dominated by entry only.
        assert_eq!(dom.idom(BlockId(3)), Some(BlockId(0)));
        assert!(is_reducible(&f));
    }

    #[test]
    fn unreachable_blocks_have_no_idom() {
        let mut f = IrFunction::new("unreachable");
        f.add_block(IrBlock::new(Terminator::Ret, 1.0));
        f.add_block(IrBlock::new(Terminator::Ret, 0.0)); // unreachable
        let dom = Dominators::compute(&f);
        assert!(dom.reachable(BlockId(0)));
        assert!(!dom.reachable(BlockId(1)));
        assert_eq!(dom.idom(BlockId(1)), None);
    }

    #[test]
    fn every_generated_phase_is_reducible() {
        for spec in cisa_workloads_stub::all_phase_like() {
            assert!(is_reducible(&spec), "generated CFGs must be reducible");
        }
    }

    /// The workloads crate depends on this one, so tests here build a
    /// few generator-shaped functions locally instead.
    mod cisa_workloads_stub {
        use super::super::*;
        use crate::ir::{BranchBehavior, IrBlock, Terminator};

        pub(crate) fn all_phase_like() -> Vec<IrFunction> {
            // Nested loop with an inner diamond, mirroring the
            // generator's shape.
            let mut f = IrFunction::new("shape");
            let c = f.new_vreg();
            f.add_block(IrBlock::new(Terminator::Jump(BlockId(1)), 1.0)); // pre
            f.add_block(IrBlock::new(
                Terminator::Branch {
                    cond: c,
                    taken: BlockId(2),
                    not_taken: BlockId(3),
                    behavior: BranchBehavior::random(0.5),
                },
                100.0,
            )); // header + diamond entry
            f.add_block(IrBlock::new(Terminator::Jump(BlockId(4)), 50.0)); // t
            f.add_block(IrBlock::new(Terminator::Jump(BlockId(4)), 50.0)); // f
            f.add_block(IrBlock::new(
                Terminator::Branch {
                    cond: c,
                    taken: BlockId(1),
                    not_taken: BlockId(5),
                    behavior: BranchBehavior::loop_back(100),
                },
                100.0,
            )); // latch
            f.add_block(IrBlock::new(Terminator::Ret, 1.0));
            f.validate().unwrap();
            vec![f]
        }
    }
}
