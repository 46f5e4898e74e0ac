//! The compiler's intermediate representation.
//!
//! A deliberately small, LLVM-MachineIR-flavoured IR: functions of basic
//! blocks over an unbounded pool of virtual registers, with explicit
//! loads/stores, profile weights on blocks, and behavioural annotations
//! on branches (needed downstream by the branch-predictor models).
//!
//! The workload generator builds these; every compiler pass consumes and
//! produces them until instruction selection lowers to machine
//! instructions.

use std::fmt;

use cisa_isa::inst::MemLocality;

/// A virtual register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VReg(pub u32);

impl fmt::Display for VReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A basic-block identifier (index into [`IrFunction::blocks`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

impl BlockId {
    /// Index form.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// Address expression of a memory access: `[base + index + disp]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AddrExpr {
    /// Base virtual register.
    pub base: VReg,
    /// Optional index register.
    pub index: Option<VReg>,
    /// Displacement in bytes (encodes as disp8 if it fits).
    pub disp: i32,
}

impl AddrExpr {
    /// `[base]`
    pub fn base(base: VReg) -> Self {
        AddrExpr {
            base,
            index: None,
            disp: 0,
        }
    }

    /// `[base + disp]`
    pub fn base_disp(base: VReg, disp: i32) -> Self {
        AddrExpr {
            base,
            index: None,
            disp,
        }
    }

    /// `[base + index + disp]`
    pub fn base_index(base: VReg, index: VReg, disp: i32) -> Self {
        AddrExpr {
            base,
            index: Some(index),
            disp,
        }
    }

    /// Displacement size in bytes when encoded (0, 1, or 4).
    pub(crate) fn disp_bytes(&self) -> u8 {
        if self.disp == 0 {
            0
        } else if (-128..=127).contains(&self.disp) {
            1
        } else {
            4
        }
    }
}

/// IR operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IrOp {
    /// Materialize a constant of the given immediate width into `dst`.
    /// Cheap to rematerialize instead of spilling.
    Const {
        /// Immediate width in bytes (1 or 4).
        imm_bytes: u8,
    },
    /// `dst = src1 <alu> src2` — single-cycle integer op.
    IntAlu,
    /// `dst = src1 * src2` — multi-cycle integer op.
    IntMul,
    /// Scalar FP add-class op.
    FpAlu,
    /// Scalar FP multiply-class op.
    FpMul,
    /// `dst = [addr]`.
    Load {
        /// Locality class for the memory model.
        loc: MemLocality,
    },
    /// `[addr] = src1`.
    Store {
        /// Locality class for the memory model.
        loc: MemLocality,
    },
    /// Compare `src1`, `src2`, setting the block's condition.
    Cmp,
    /// `dst = cond ? src1 : src2` — lowers to CMOV under partial
    /// predication.
    Select,
}

/// One IR instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IrInst {
    /// Operation.
    pub op: IrOp,
    /// Destination register ([`IrInst::NONE`] when absent).
    pub dst: VReg,
    /// First source ([`IrInst::NONE`] when absent).
    pub src1: VReg,
    /// Second source ([`IrInst::NONE`] when absent).
    pub src2: VReg,
    /// Address expression for `Load`/`Store`.
    pub addr: Option<AddrExpr>,
    /// Whether the op manipulates 64-bit data (pays double-pumped
    /// emulation on 32-bit cores).
    pub wide: bool,
    /// Full-predication guard: `(condition, negated)`. Set by the
    /// if-conversion pass; only legal when the target supports full
    /// predication.
    pub pred: Option<(VReg, bool)>,
}

impl IrInst {
    /// Sentinel register meaning "no register in this slot".
    pub const NONE: VReg = VReg(u32::MAX);

    /// Builds a register-to-register compute op.
    pub fn compute(op: IrOp, dst: VReg, src1: VReg, src2: VReg) -> Self {
        IrInst {
            op,
            dst,
            src1,
            src2,
            addr: None,
            wide: false,
            pred: None,
        }
    }

    /// Builds a constant materialization.
    pub fn constant(dst: VReg, imm_bytes: u8) -> Self {
        IrInst {
            op: IrOp::Const { imm_bytes },
            dst,
            src1: Self::NONE,
            src2: Self::NONE,
            addr: None,
            wide: false,
            pred: None,
        }
    }

    /// Builds a load.
    pub fn load(dst: VReg, addr: AddrExpr, loc: MemLocality) -> Self {
        IrInst {
            op: IrOp::Load { loc },
            dst,
            src1: Self::NONE,
            src2: Self::NONE,
            addr: Some(addr),
            wide: false,
            pred: None,
        }
    }

    /// Builds a store.
    pub fn store(src: VReg, addr: AddrExpr, loc: MemLocality) -> Self {
        IrInst {
            op: IrOp::Store { loc },
            dst: Self::NONE,
            src1: src,
            src2: Self::NONE,
            addr: Some(addr),
            wide: false,
            pred: None,
        }
    }

    /// Marks the instruction as 64-bit data (builder style).
    #[must_use]
    pub fn wide(mut self) -> Self {
        self.wide = true;
        self
    }

    /// Iterator over source virtual registers (including address
    /// components).
    pub(crate) fn uses(&self) -> impl Iterator<Item = VReg> + '_ {
        [
            self.src1,
            self.src2,
            self.addr.map_or(Self::NONE, |a| a.base),
            self.addr.and_then(|a| a.index).unwrap_or(Self::NONE),
            self.pred.map_or(Self::NONE, |(p, _)| p),
        ]
        .into_iter()
        .filter(|&v| v != Self::NONE)
    }

    /// The defined register, if any.
    pub(crate) fn def(&self) -> Option<VReg> {
        (self.dst != Self::NONE).then_some(self.dst)
    }

    /// Whether this is a memory access.
    pub(crate) fn is_mem(&self) -> bool {
        matches!(self.op, IrOp::Load { .. } | IrOp::Store { .. })
    }
}

/// Behavioural class of a conditional branch; drives the predictor
/// models downstream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BranchPattern {
    /// Loop back-edge taken `trip-1` times then not taken; almost
    /// perfectly predictable.
    LoopBack {
        /// Mean trip count of the loop.
        trip: u32,
    },
    /// Heavily biased data-dependent branch.
    Biased,
    /// Short repeating pattern, predictable with local history.
    Periodic {
        /// Period length in branch executions.
        period: u8,
    },
    /// Data-dependent with little structure (sjeng/gobmk-like).
    Random,
}

/// Branch behaviour annotation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BranchBehavior {
    /// Long-run probability the branch is taken.
    pub taken_prob: f64,
    /// Temporal structure.
    pub pattern: BranchPattern,
}

impl BranchBehavior {
    /// A loop back-edge with the given trip count.
    pub fn loop_back(trip: u32) -> Self {
        BranchBehavior {
            taken_prob: 1.0 - 1.0 / trip.max(1) as f64,
            pattern: BranchPattern::LoopBack { trip },
        }
    }

    /// A biased branch taken with probability `p`.
    pub fn biased(p: f64) -> Self {
        BranchBehavior {
            taken_prob: p,
            pattern: BranchPattern::Biased,
        }
    }

    /// An unstructured data-dependent branch taken with probability `p`.
    pub fn random(p: f64) -> Self {
        BranchBehavior {
            taken_prob: p,
            pattern: BranchPattern::Random,
        }
    }
}

/// Block terminator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Terminator {
    /// Conditional branch on the block's condition (set by a `Cmp`).
    Branch {
        /// Condition register (source of the controlling `Cmp`).
        cond: VReg,
        /// Target when taken.
        taken: BlockId,
        /// Fall-through when not taken.
        not_taken: BlockId,
        /// Behaviour annotation.
        behavior: BranchBehavior,
    },
    /// Unconditional jump.
    Jump(BlockId),
    /// Function return.
    Ret,
}

impl Terminator {
    /// Successor block ids.
    pub(crate) fn successors(&self) -> Vec<BlockId> {
        match *self {
            Terminator::Branch {
                taken, not_taken, ..
            } => vec![taken, not_taken],
            Terminator::Jump(t) => vec![t],
            Terminator::Ret => vec![],
        }
    }
}

/// SIMD-candidate annotation on a block: the generator marks loop bodies
/// whose operations vectorize at the given lane count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VectorizableHint {
    /// Lane count (4 for SSE2 over f32/i32).
    pub lanes: u8,
}

/// A basic block.
#[derive(Debug, Clone, PartialEq)]
pub struct IrBlock {
    /// Instructions in order.
    pub insts: Vec<IrInst>,
    /// Terminator.
    pub term: Terminator,
    /// Profile weight: expected executions per invocation of the
    /// enclosing phase unit.
    pub weight: f64,
    /// Loop nesting depth (0 = not in a loop).
    pub loop_depth: u32,
    /// SIMD candidate hint.
    pub vectorizable: Option<VectorizableHint>,
}

impl IrBlock {
    /// An empty block with the given terminator and weight.
    pub fn new(term: Terminator, weight: f64) -> Self {
        IrBlock {
            insts: Vec::new(),
            term,
            weight,
            loop_depth: 0,
            vectorizable: None,
        }
    }
}

/// A function: the unit of compilation. One phase of one benchmark
/// compiles to one function.
#[derive(Debug, Clone, PartialEq)]
pub struct IrFunction {
    /// Human-readable name (`benchmark.phaseN`).
    pub name: String,
    /// Basic blocks; entry is block 0.
    pub blocks: Vec<IrBlock>,
    /// Number of virtual registers in use (ids are `0..vreg_count`).
    pub vreg_count: u32,
}

impl IrFunction {
    /// Creates an empty function.
    pub fn new(name: impl Into<String>) -> Self {
        IrFunction {
            name: name.into(),
            blocks: Vec::new(),
            vreg_count: 0,
        }
    }

    /// Allocates a fresh virtual register.
    pub fn new_vreg(&mut self) -> VReg {
        let v = VReg(self.vreg_count);
        self.vreg_count += 1;
        v
    }

    /// Appends a block, returning its id.
    pub fn add_block(&mut self, block: IrBlock) -> BlockId {
        self.blocks.push(block);
        BlockId(self.blocks.len() as u32 - 1)
    }

    /// Predecessor map (by block index).
    pub(crate) fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for (i, b) in self.blocks.iter().enumerate() {
            for s in b.term.successors() {
                preds[s.idx()].push(BlockId(i as u32));
            }
        }
        preds
    }

    /// Validates structural invariants: successor ids in range, every
    /// use of a vreg within `vreg_count`, weights nonnegative, at least
    /// one `Ret`-terminated block reachable.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.blocks.is_empty() {
            return Err("function has no blocks".into());
        }
        let n = self.blocks.len() as u32;
        for (i, b) in self.blocks.iter().enumerate() {
            for s in b.term.successors() {
                if s.0 >= n {
                    return Err(format!("bb{i} branches to out-of-range {s}"));
                }
            }
            if b.weight < 0.0 {
                return Err(format!("bb{i} has negative weight"));
            }
            for inst in &b.insts {
                for u in inst.uses() {
                    if u.0 >= self.vreg_count {
                        return Err(format!("bb{i} uses out-of-range {u}"));
                    }
                }
                if let Some(d) = inst.def() {
                    if d.0 >= self.vreg_count {
                        return Err(format!("bb{i} defines out-of-range {d}"));
                    }
                }
                if inst.is_mem() && inst.addr.is_none() {
                    return Err(format!("bb{i} has a memory op without an address"));
                }
            }
            if let Terminator::Branch { cond, .. } = b.term {
                if cond.0 >= self.vreg_count {
                    return Err(format!("bb{i} branch condition out of range"));
                }
            }
        }
        // Reachability of a Ret.
        let mut seen = vec![false; self.blocks.len()];
        let mut stack = vec![BlockId(0)];
        let mut found_ret = false;
        while let Some(b) = stack.pop() {
            if std::mem::replace(&mut seen[b.idx()], true) {
                continue;
            }
            let blk = &self.blocks[b.idx()];
            if matches!(blk.term, Terminator::Ret) {
                found_ret = true;
            }
            stack.extend(blk.term.successors());
        }
        if !found_ret {
            return Err("no reachable Ret".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-block function: entry loops on itself then returns.
    fn tiny() -> IrFunction {
        let mut f = IrFunction::new("tiny");
        let a = f.new_vreg();
        let b = f.new_vreg();
        let c = f.new_vreg();
        let mut body = IrBlock::new(
            Terminator::Branch {
                cond: c,
                taken: BlockId(0),
                not_taken: BlockId(1),
                behavior: BranchBehavior::loop_back(100),
            },
            100.0,
        );
        body.insts.push(IrInst::constant(a, 4));
        body.insts.push(IrInst::load(
            b,
            AddrExpr::base_disp(a, 8),
            MemLocality::Stream,
        ));
        body.insts.push(IrInst::compute(IrOp::IntAlu, c, a, b));
        body.loop_depth = 1;
        f.add_block(body);
        f.add_block(IrBlock::new(Terminator::Ret, 1.0));
        f
    }

    #[test]
    fn tiny_function_validates() {
        assert_eq!(tiny().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_bad_successor() {
        let mut f = tiny();
        f.blocks[1].term = Terminator::Jump(BlockId(9));
        assert!(f.validate().is_err());
    }

    #[test]
    fn validate_rejects_out_of_range_vreg() {
        let mut f = tiny();
        f.blocks[0]
            .insts
            .push(IrInst::compute(IrOp::IntAlu, VReg(99), VReg(0), VReg(1)));
        assert!(f.validate().is_err());
    }

    #[test]
    fn validate_requires_reachable_ret() {
        let mut f = IrFunction::new("spin");
        f.add_block(IrBlock::new(Terminator::Jump(BlockId(0)), 1.0));
        assert!(f.validate().is_err());
    }

    #[test]
    fn uses_and_defs() {
        let i = IrInst::load(
            VReg(3),
            AddrExpr::base_index(VReg(1), VReg(2), 4),
            MemLocality::Stack,
        );
        assert_eq!(i.uses().collect::<Vec<_>>(), vec![VReg(1), VReg(2)]);
        assert_eq!(i.def(), Some(VReg(3)));
        let s = IrInst::store(VReg(4), AddrExpr::base(VReg(5)), MemLocality::Stack);
        assert_eq!(s.uses().collect::<Vec<_>>(), vec![VReg(4), VReg(5)]);
        assert_eq!(s.def(), None);
    }

    #[test]
    fn loop_back_behavior_probability() {
        let b = BranchBehavior::loop_back(100);
        assert!((b.taken_prob - 0.99).abs() < 1e-12);
        let one = BranchBehavior::loop_back(1);
        assert_eq!(one.taken_prob, 0.0);
    }

    #[test]
    fn addr_disp_bytes() {
        assert_eq!(AddrExpr::base(VReg(0)).disp_bytes(), 0);
        assert_eq!(AddrExpr::base_disp(VReg(0), 8).disp_bytes(), 1);
        assert_eq!(AddrExpr::base_disp(VReg(0), -100).disp_bytes(), 1);
        assert_eq!(AddrExpr::base_disp(VReg(0), 4096).disp_bytes(), 4);
    }

    #[test]
    fn predecessors_follow_edges() {
        let f = tiny();
        let preds = f.predecessors();
        assert_eq!(preds[0], vec![BlockId(0)]); // self loop
        assert_eq!(preds[1], vec![BlockId(0)]);
    }
}
