//! Instruction selection: lowers IR to machine instructions over virtual
//! registers, specializing for the target feature set.
//!
//! Three of the five feature axes act here:
//!
//! - **Complexity** — under full x86, single-use loads fold into
//!   memory-source ALU forms and single-use ALU results fold into
//!   memory-destination forms (fewer macro-ops, shorter live ranges);
//!   under microx86 every memory access stays an explicit load/store so
//!   each macro-op decodes 1:1.
//! - **SIMD** — blocks the generator marks vectorizable compile to
//!   SSE2 packed ops when the target has SSE (iterating `1/lanes` as
//!   often); otherwise the scalarized form is emitted, as the paper's
//!   precompiled scalar fallback.
//! - **Register width** — 64-bit data operations are double-pumped on
//!   32-bit targets (lo/hi halves in paired virtual registers, doubling
//!   their register pressure), matching the paper's long-mode emulation
//!   observation that wide types on narrow ISAs cost both instructions
//!   and registers.

use cisa_isa::inst::{MacroOpcode, MemLocality, MemRole};
use cisa_isa::{Complexity, FeatureSet, RegisterWidth, SimdSupport};
use std::collections::HashMap;

use crate::ir::{AddrExpr, IrFunction, IrInst, IrOp, Terminator, VReg};

/// An operand of a [`VInst`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VOp {
    /// Virtual register.
    Reg(VReg),
    /// Immediate of the given byte width.
    Imm(u8),
    /// Absent.
    None,
}

impl VOp {
    /// The register, if any.
    pub(crate) fn reg(self) -> Option<VReg> {
        match self {
            VOp::Reg(r) => Some(r),
            _ => None,
        }
    }
}

/// Memory operand over virtual registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VMem {
    /// Base register (`None` only for spill slots, which use the frame
    /// base assigned at register allocation).
    pub base: Option<VReg>,
    /// Index register.
    pub index: Option<VReg>,
    /// Displacement width in bytes (0, 1, 4).
    pub disp_bytes: u8,
    /// Locality class.
    pub locality: MemLocality,
}

impl VMem {
    fn from_addr(addr: &AddrExpr, locality: MemLocality) -> Self {
        VMem {
            base: Some(addr.base),
            index: addr.index,
            disp_bytes: addr.disp_bytes(),
            locality,
        }
    }
}

/// A machine instruction over virtual registers (pre register
/// allocation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VInst {
    /// Macro opcode.
    pub opcode: MacroOpcode,
    /// Destination.
    pub dst: Option<VReg>,
    /// First source.
    pub src1: VOp,
    /// Second source.
    pub src2: VOp,
    /// Memory operand.
    pub mem: Option<VMem>,
    /// Memory role.
    pub mem_role: MemRole,
    /// 64-bit operation (REX.W).
    pub wide: bool,
    /// Full-predication guard.
    pub pred: Option<(VReg, bool)>,
    /// If the destination is a rematerializable constant, the immediate
    /// width to re-emit instead of spilling.
    pub remat_imm: Option<u8>,
}

impl VInst {
    fn new(opcode: MacroOpcode, dst: Option<VReg>, src1: VOp, src2: VOp) -> Self {
        VInst {
            opcode,
            dst,
            src1,
            src2,
            mem: None,
            mem_role: MemRole::None,
            wide: false,
            pred: None,
            remat_imm: None,
        }
    }

    /// Source registers (including address components and predicate).
    pub(crate) fn uses(&self) -> impl Iterator<Item = VReg> + '_ {
        self.src1
            .reg()
            .into_iter()
            .chain(self.src2.reg())
            .chain(self.mem.and_then(|m| m.base))
            .chain(self.mem.and_then(|m| m.index))
            .chain(self.pred.map(|(p, _)| p))
    }

    /// The defined register, if any.
    pub(crate) fn def(&self) -> Option<VReg> {
        self.dst
    }

    /// Number of micro-ops this instruction decodes into.
    pub(crate) fn uop_count(&self) -> usize {
        match self.opcode {
            MacroOpcode::Call | MacroOpcode::Ret => 2,
            MacroOpcode::Load | MacroOpcode::Store | MacroOpcode::Lea => 1,
            _ => match self.mem_role {
                MemRole::None => 1,
                MemRole::Src => 2,
                MemRole::Dst => 3,
            },
        }
    }
}

/// A lowered block.
#[derive(Debug, Clone, PartialEq)]
pub struct VBlock {
    /// Machine instructions over virtual registers.
    pub insts: Vec<VInst>,
    /// Terminator (unchanged from IR).
    pub term: Terminator,
    /// Dynamic weight — scaled down by the vector lane count when the
    /// block was vectorized.
    pub weight: f64,
    /// Whether this block was compiled to packed SIMD.
    pub vectorized: bool,
}

/// A lowered function.
#[derive(Debug, Clone, PartialEq)]
pub struct VFunction {
    /// Source name.
    pub name: String,
    /// Blocks, same ids as the IR.
    pub blocks: Vec<VBlock>,
    /// Virtual register count (isel may allocate fresh registers).
    pub vreg_count: u32,
}

/// Lowers an IR function for the given feature set.
pub fn select(func: &IrFunction, fs: &FeatureSet) -> VFunction {
    let mut vreg_count = func.vreg_count;
    let mut new_vreg = || {
        let v = VReg(vreg_count);
        vreg_count += 1;
        v
    };
    // hi-half registers for double-pumped 64-bit data on 32-bit targets.
    let narrow = fs.width() == RegisterWidth::W32;
    let mut hi_regs: HashMap<VReg, VReg> = HashMap::new();

    let mut blocks = Vec::with_capacity(func.blocks.len());
    for b in &func.blocks {
        let vectorize = b.vectorizable.filter(|_| fs.simd() == SimdSupport::Sse);
        let mut insts = Vec::with_capacity(b.insts.len() + 4);
        for i in &b.insts {
            lower_inst(
                i,
                vectorize.is_some(),
                narrow,
                &mut hi_regs,
                &mut new_vreg,
                &mut insts,
            );
        }
        let weight = match vectorize {
            Some(hint) => b.weight / hint.lanes.max(1) as f64,
            None => b.weight,
        };
        blocks.push(VBlock {
            insts,
            term: b.term,
            weight,
            vectorized: vectorize.is_some(),
        });
    }

    let mut out = VFunction {
        name: func.name.clone(),
        blocks,
        vreg_count,
    };
    if fs.complexity() == Complexity::X86 {
        fold_memory_operands(&mut out);
    }
    out
}

fn lower_inst(
    i: &IrInst,
    vectorized: bool,
    narrow: bool,
    hi_regs: &mut HashMap<VReg, VReg>,
    new_vreg: &mut impl FnMut() -> VReg,
    out: &mut Vec<VInst>,
) {
    let dst = i.def();
    let s1 = if i.src1 == IrInst::NONE {
        VOp::None
    } else {
        VOp::Reg(i.src1)
    };
    let s2 = if i.src2 == IrInst::NONE {
        VOp::None
    } else {
        VOp::Reg(i.src2)
    };
    let pred = i.pred;
    let push = |out: &mut Vec<VInst>, mut v: VInst| {
        v.pred = pred;
        out.push(v);
    };
    let mut hi =
        |r: VReg, new_vreg: &mut dyn FnMut() -> VReg| *hi_regs.entry(r).or_insert_with(new_vreg);
    // Double-pump 64-bit *integer* data on 32-bit targets.
    let double_pump = narrow && i.wide && !matches!(i.op, IrOp::FpAlu | IrOp::FpMul);
    // Mark REX.W on 64-bit targets.
    let wide_flag = i.wide && !narrow;

    match i.op {
        IrOp::Const { imm_bytes } => {
            let mut v = VInst::new(MacroOpcode::Mov, dst, VOp::Imm(imm_bytes), VOp::None);
            v.remat_imm = Some(imm_bytes);
            v.wide = wide_flag;
            push(out, v);
            if double_pump {
                let d = dst.expect("const defines");
                let mut v2 = VInst::new(
                    MacroOpcode::Mov,
                    Some(hi(d, new_vreg)),
                    VOp::Imm(imm_bytes),
                    VOp::None,
                );
                v2.remat_imm = Some(imm_bytes);
                push(out, v2);
            }
        }
        IrOp::IntAlu | IrOp::Cmp => {
            let opcode = if vectorized && i.op == IrOp::IntAlu && !i.wide {
                MacroOpcode::VecAlu
            } else {
                MacroOpcode::IntAlu
            };
            let mut v = VInst::new(opcode, dst, s1, s2);
            v.wide = wide_flag;
            push(out, v);
            if double_pump {
                let d = dst.expect("alu defines");
                let h1 = i.src1 != IrInst::NONE;
                let h2 = i.src2 != IrInst::NONE;
                let hs1 = if h1 {
                    VOp::Reg(hi(i.src1, new_vreg))
                } else {
                    VOp::None
                };
                let hs2 = if h2 {
                    VOp::Reg(hi(i.src2, new_vreg))
                } else {
                    VOp::None
                };
                push(
                    out,
                    VInst::new(MacroOpcode::IntAlu, Some(hi(d, new_vreg)), hs1, hs2),
                );
            }
        }
        IrOp::IntMul => {
            let mut v = VInst::new(MacroOpcode::IntMul, dst, s1, s2);
            v.wide = wide_flag;
            push(out, v);
            if double_pump {
                let d = dst.expect("mul defines");
                let dh = hi(d, new_vreg);
                // Cross product + accumulate.
                push(out, VInst::new(MacroOpcode::IntMul, Some(dh), s1, s2));
                push(
                    out,
                    VInst::new(MacroOpcode::IntAlu, Some(dh), VOp::Reg(dh), s1),
                );
            }
        }
        IrOp::FpAlu => {
            let opcode = if vectorized {
                MacroOpcode::VecAlu
            } else {
                MacroOpcode::FpAlu
            };
            push(out, VInst::new(opcode, dst, s1, s2));
        }
        IrOp::FpMul => {
            let opcode = if vectorized {
                MacroOpcode::VecAlu
            } else {
                MacroOpcode::FpMul
            };
            push(out, VInst::new(opcode, dst, s1, s2));
        }
        IrOp::Load { loc } => {
            let addr = i.addr.expect("load has address");
            let mut v = VInst::new(MacroOpcode::Load, dst, VOp::None, VOp::None);
            v.mem = Some(VMem::from_addr(&addr, loc));
            v.mem_role = MemRole::Src;
            v.wide = wide_flag;
            push(out, v);
            if double_pump {
                let d = dst.expect("load defines");
                let mut v2 = VInst::new(
                    MacroOpcode::Load,
                    Some(hi(d, new_vreg)),
                    VOp::None,
                    VOp::None,
                );
                let mut m = VMem::from_addr(&addr, loc);
                m.disp_bytes = m.disp_bytes.max(1); // +4 offset for the hi half
                v2.mem = Some(m);
                v2.mem_role = MemRole::Src;
                push(out, v2);
            }
        }
        IrOp::Store { loc } => {
            let addr = i.addr.expect("store has address");
            let mut v = VInst::new(MacroOpcode::Store, None, s1, VOp::None);
            v.mem = Some(VMem::from_addr(&addr, loc));
            v.mem_role = MemRole::Dst;
            v.wide = wide_flag;
            push(out, v);
            if double_pump {
                let mut v2 = VInst::new(
                    MacroOpcode::Store,
                    None,
                    VOp::Reg(hi(i.src1, new_vreg)),
                    VOp::None,
                );
                let mut m = VMem::from_addr(&addr, loc);
                m.disp_bytes = m.disp_bytes.max(1);
                v2.mem = Some(m);
                v2.mem_role = MemRole::Dst;
                push(out, v2);
            }
        }
        IrOp::Select => {
            // mov dst, b ; cmov dst, a (flags from the preceding cmp,
            // dependence carried via the condition register source).
            let cond = i.pred.map(|(c, _)| c).unwrap_or(i.src2);
            let mut mv = VInst::new(MacroOpcode::Mov, dst, s2, VOp::None);
            mv.wide = wide_flag;
            mv.pred = None;
            out.push(mv);
            let mut cm = VInst::new(MacroOpcode::Cmov, dst, s1, VOp::Reg(cond));
            cm.wide = wide_flag;
            cm.pred = None; // cmov *is* partial predication, legal everywhere
            out.push(cm);
        }
    }
}

/// Folds single-use loads into memory-source ALU operands and single-use
/// ALU results into memory-destination forms (x86 complexity only).
fn fold_memory_operands(func: &mut VFunction) {
    // Global def/use counts.
    let mut defs: HashMap<VReg, u32> = HashMap::new();
    let mut uses: HashMap<VReg, u32> = HashMap::new();
    for b in &func.blocks {
        for v in &b.insts {
            if let Some(d) = v.def() {
                *defs.entry(d).or_default() += 1;
            }
            for u in v.uses() {
                *uses.entry(u).or_default() += 1;
            }
        }
        if let Terminator::Branch { cond, .. } = b.term {
            *uses.entry(cond).or_default() += 1;
        }
    }

    for b in &mut func.blocks {
        // Load folding: Load v <- [m]; ...; Alu d <- x, v  =>
        // Alu d <- x, [m]   (v single-def single-use, same block,
        // matching predicates).
        let mut i = 0;
        while i < b.insts.len() {
            let inst = b.insts[i];
            if inst.opcode == MacroOpcode::Load && !inst.wide {
                if let Some(v) = inst.def() {
                    if defs.get(&v) == Some(&1) && uses.get(&v) == Some(&1) {
                        // Find the unique consumer within the next few
                        // instructions of this block.
                        let window = (i + 1)..b.insts.len().min(i + 9);
                        if let Some(j) = window.clone().find(|&j| {
                            let c = &b.insts[j];
                            matches!(
                                c.opcode,
                                MacroOpcode::IntAlu
                                    | MacroOpcode::IntMul
                                    | MacroOpcode::FpAlu
                                    | MacroOpcode::FpMul
                                    | MacroOpcode::VecAlu
                            ) && c.mem.is_none()
                                && c.pred == inst.pred
                                && (c.src1 == VOp::Reg(v) || c.src2 == VOp::Reg(v))
                        }) {
                            let mem = inst.mem;
                            let c = &mut b.insts[j];
                            // Keep the remaining register source in src1.
                            if c.src1 == VOp::Reg(v) {
                                c.src1 = c.src2;
                            }
                            c.src2 = VOp::None;
                            c.mem = mem;
                            c.mem_role = MemRole::Src;
                            b.insts.remove(i);
                            continue; // re-examine index i
                        }
                    }
                }
            }
            i += 1;
        }

        // Store folding: Alu v <- x, y; Store [m] <- v  =>
        // Alu [m] <- x, y  (v single-def single-use, adjacent-ish).
        let mut i = 0;
        while i + 1 < b.insts.len() {
            let inst = b.insts[i];
            let foldable_op =
                matches!(inst.opcode, MacroOpcode::IntAlu) && inst.mem.is_none() && !inst.wide;
            if foldable_op {
                if let Some(v) = inst.def() {
                    if defs.get(&v) == Some(&1) && uses.get(&v) == Some(&1) {
                        let window = (i + 1)..b.insts.len().min(i + 5);
                        if let Some(j) = window.clone().find(|&j| {
                            let s = &b.insts[j];
                            s.opcode == MacroOpcode::Store
                                && s.pred == inst.pred
                                && s.src1 == VOp::Reg(v)
                                && !s.wide
                        }) {
                            let mem = b.insts[j].mem;
                            b.insts.remove(j);
                            let c = &mut b.insts[i];
                            c.mem = mem;
                            c.mem_role = MemRole::Dst;
                            c.dst = None;
                        }
                    }
                }
            }
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{BlockId, BranchBehavior, IrBlock, VectorizableHint};
    use cisa_isa::feature_set::{Predication, RegisterDepth};

    fn fs(c: Complexity, w: RegisterWidth) -> FeatureSet {
        FeatureSet::new(c, w, RegisterDepth::D16, Predication::Partial).unwrap()
    }

    /// load t <- [p]; add s <- s, t; store [q] <- s2; ret
    fn mem_chain() -> IrFunction {
        let mut f = IrFunction::new("chain");
        let p = f.new_vreg();
        let q = f.new_vreg();
        let s = f.new_vreg();
        let t = f.new_vreg();
        let u = f.new_vreg();
        let mut b = IrBlock::new(Terminator::Ret, 10.0);
        b.insts.push(IrInst::load(
            t,
            AddrExpr::base_disp(p, 8),
            MemLocality::Stream,
        ));
        b.insts.push(IrInst::compute(IrOp::IntAlu, s, s, t));
        b.insts.push(IrInst::compute(IrOp::IntAlu, u, s, p));
        b.insts
            .push(IrInst::store(u, AddrExpr::base(q), MemLocality::Stream));
        f.add_block(b);
        f.validate().unwrap();
        f
    }

    #[test]
    fn microx86_keeps_explicit_loads() {
        let v = select(&mem_chain(), &fs(Complexity::MicroX86, RegisterWidth::W32));
        let ops: Vec<_> = v.blocks[0].insts.iter().map(|i| i.opcode).collect();
        assert_eq!(
            ops,
            vec![
                MacroOpcode::Load,
                MacroOpcode::IntAlu,
                MacroOpcode::IntAlu,
                MacroOpcode::Store
            ]
        );
        assert!(
            v.blocks[0].insts.iter().all(|i| i.uop_count() == 1),
            "microx86 is 1:1"
        );
    }

    #[test]
    fn x86_folds_loads_and_stores() {
        let v = select(&mem_chain(), &FeatureSet::x86_64());
        let b = &v.blocks[0];
        // Load folded into the first ALU; store folded into the second.
        assert_eq!(b.insts.len(), 2);
        assert_eq!(b.insts[0].mem_role, MemRole::Src);
        assert_eq!(b.insts[0].uop_count(), 2);
        assert_eq!(b.insts[1].mem_role, MemRole::Dst);
        assert_eq!(b.insts[1].uop_count(), 3);
        // Same micro-op totals, fewer macro-ops.
        let micro_uops: usize = select(&mem_chain(), &fs(Complexity::MicroX86, RegisterWidth::W32))
            .blocks[0]
            .insts
            .iter()
            .map(|i| i.uop_count())
            .sum();
        let x86_uops: usize = b.insts.iter().map(|i| i.uop_count()).sum();
        assert!(x86_uops >= micro_uops, "folding never reduces uops");
        assert_eq!(x86_uops, 5);
    }

    #[test]
    fn multiply_used_load_not_folded() {
        let mut f = IrFunction::new("multi");
        let p = f.new_vreg();
        let t = f.new_vreg();
        let a = f.new_vreg();
        let b2 = f.new_vreg();
        let mut b = IrBlock::new(Terminator::Ret, 1.0);
        b.insts
            .push(IrInst::load(t, AddrExpr::base(p), MemLocality::Stream));
        b.insts.push(IrInst::compute(IrOp::IntAlu, a, t, t));
        b.insts.push(IrInst::compute(IrOp::IntAlu, b2, t, a));
        f.add_block(b);
        let v = select(&f, &FeatureSet::x86_64());
        assert_eq!(v.blocks[0].insts.len(), 3, "two uses: load must stay");
    }

    #[test]
    fn vectorizable_block_compiles_to_simd_under_sse() {
        let mut f = IrFunction::new("vec");
        let p = f.new_vreg();
        let x = f.new_vreg();
        let y = f.new_vreg();
        let mut b = IrBlock::new(
            Terminator::Branch {
                cond: x,
                taken: BlockId(0),
                not_taken: BlockId(1),
                behavior: BranchBehavior::loop_back(64),
            },
            64.0,
        );
        b.vectorizable = Some(VectorizableHint { lanes: 4 });
        b.insts
            .push(IrInst::load(x, AddrExpr::base(p), MemLocality::Stream));
        b.insts.push(IrInst::compute(IrOp::FpAlu, y, x, x));
        b.insts
            .push(IrInst::store(y, AddrExpr::base(p), MemLocality::Stream));
        f.add_block(b);
        f.add_block(IrBlock::new(Terminator::Ret, 1.0));
        f.validate().unwrap();

        let sse = select(&f, &FeatureSet::x86_64());
        assert!(sse.blocks[0].vectorized);
        assert!(
            (sse.blocks[0].weight - 16.0).abs() < 1e-9,
            "64 iters / 4 lanes"
        );
        assert!(sse.blocks[0]
            .insts
            .iter()
            .any(|i| i.opcode == MacroOpcode::VecAlu));

        let scalar = select(&f, &fs(Complexity::MicroX86, RegisterWidth::W32));
        assert!(!scalar.blocks[0].vectorized);
        assert_eq!(scalar.blocks[0].weight, 64.0);
        assert!(scalar.blocks[0]
            .insts
            .iter()
            .all(|i| i.opcode != MacroOpcode::VecAlu));
    }

    #[test]
    fn wide_ops_double_pump_on_32bit() {
        let mut f = IrFunction::new("wide");
        let a = f.new_vreg();
        let b2 = f.new_vreg();
        let c = f.new_vreg();
        let mut b = IrBlock::new(Terminator::Ret, 1.0);
        b.insts.push(IrInst::compute(IrOp::IntAlu, c, a, b2).wide());
        f.add_block(b);

        let narrow = select(&f, &fs(Complexity::MicroX86, RegisterWidth::W32));
        assert_eq!(narrow.blocks[0].insts.len(), 2, "lo + hi halves");
        assert!(
            narrow.vreg_count > f.vreg_count,
            "hi-half registers allocated"
        );

        let wide = select(&f, &FeatureSet::x86_64());
        assert_eq!(wide.blocks[0].insts.len(), 1);
        assert!(wide.blocks[0].insts[0].wide, "REX.W set on 64-bit targets");
    }

    #[test]
    fn wide_loads_double_on_32bit() {
        let mut f = IrFunction::new("wload");
        let p = f.new_vreg();
        let d = f.new_vreg();
        let mut b = IrBlock::new(Terminator::Ret, 1.0);
        b.insts
            .push(IrInst::load(d, AddrExpr::base(p), MemLocality::WorkingSet).wide());
        b.insts
            .push(IrInst::store(d, AddrExpr::base(p), MemLocality::WorkingSet).wide());
        f.add_block(b);
        let narrow = select(&f, &fs(Complexity::X86, RegisterWidth::W32));
        let loads = narrow.blocks[0]
            .insts
            .iter()
            .filter(|i| i.opcode == MacroOpcode::Load)
            .count();
        let stores = narrow.blocks[0]
            .insts
            .iter()
            .filter(|i| i.opcode == MacroOpcode::Store)
            .count();
        assert_eq!((loads, stores), (2, 2));
    }

    #[test]
    fn select_lowers_to_mov_plus_cmov() {
        let mut f = IrFunction::new("sel");
        let c = f.new_vreg();
        let a = f.new_vreg();
        let b2 = f.new_vreg();
        let d = f.new_vreg();
        let mut b = IrBlock::new(Terminator::Ret, 1.0);
        let mut sel = IrInst::compute(IrOp::Select, d, a, b2);
        sel.pred = Some((c, false));
        b.insts.push(sel);
        f.add_block(b);
        let v = select(&f, &FeatureSet::x86_64());
        let ops: Vec<_> = v.blocks[0].insts.iter().map(|i| i.opcode).collect();
        assert_eq!(ops, vec![MacroOpcode::Mov, MacroOpcode::Cmov]);
        // cmov's predication is implicit: no full-predication guard.
        assert!(v.blocks[0].insts.iter().all(|i| i.pred.is_none()));
    }

    #[test]
    fn predicated_insts_survive_lowering() {
        let mut f = IrFunction::new("pred");
        let c = f.new_vreg();
        let x = f.new_vreg();
        let mut b = IrBlock::new(Terminator::Ret, 1.0);
        let mut i = IrInst::compute(IrOp::IntAlu, x, x, c);
        i.pred = Some((c, true));
        b.insts.push(i);
        f.add_block(b);
        let v = select(&f, &FeatureSet::superset());
        assert_eq!(v.blocks[0].insts[0].pred, Some((c, true)));
    }

    #[test]
    fn remat_marks_constants() {
        let mut f = IrFunction::new("const");
        let k = f.new_vreg();
        let mut b = IrBlock::new(Terminator::Ret, 1.0);
        b.insts.push(IrInst::constant(k, 4));
        f.add_block(b);
        let v = select(&f, &FeatureSet::x86_64());
        assert_eq!(v.blocks[0].insts[0].remat_imm, Some(4));
    }
}
