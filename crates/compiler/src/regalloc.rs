//! Linear-scan register allocation, sensitive to the target's register
//! depth (Section III, "Register Depth").
//!
//! The allocator:
//!
//! - computes live intervals from a proper backward liveness dataflow,
//! - allocates registers in prefix-cost priority order (registers that
//!   need no REX/REXBC prefix first, exactly as the paper's modified
//!   LLVM backend prioritizes cheap encodings),
//! - spills the furthest-ending interval under pressure, inserting
//!   stack stores after defs and loads before uses,
//! - **rematerializes** constants instead of spilling them (re-emitting
//!   the materialization before each use — the paper's explanation for
//!   increased integer/branch counts at shallow register depths).
//!
//! The stack pointer is `r4` (as in x86); spill code addresses
//! `[r4 + disp8]` with `Stack` locality, which downstream cache models
//! treat as extremely hot.

use std::collections::HashMap;

use cisa_isa::inst::{
    MachineInst, MacroOpcode, MemLocality, MemOperand, MemRole, Operand, PredicateAnnotation,
};
use cisa_isa::{ArchReg, FeatureSet};

use crate::ir::{Terminator, VReg};
use crate::isel::{VBlock, VFunction, VInst, VOp};

/// The stack-pointer register (x86's `rsp` is register 4).
pub(crate) fn stack_pointer() -> ArchReg {
    ArchReg::gpr(4)
}

/// Statistics from one allocation run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RegAllocStats {
    /// Virtual registers assigned to architectural registers.
    pub allocated: u32,
    /// Intervals spilled to stack slots.
    pub spilled: u32,
    /// Intervals rematerialized instead of spilled.
    pub rematerialized: u32,
    /// Profile-weighted spill stores inserted.
    pub dyn_spill_stores: f64,
    /// Profile-weighted refill loads inserted.
    pub dyn_refill_loads: f64,
    /// Profile-weighted rematerialization ops inserted.
    pub dyn_remat_ops: f64,
    /// Instructions whose spilled operands exceeded the scratch pool
    /// (modelled with scratch reuse; counted for diagnostics).
    pub scratch_overflows: u32,
}

/// An allocated block: final machine instructions plus dynamic weight.
#[derive(Debug, Clone)]
pub struct AllocBlock {
    /// Final machine instructions.
    pub insts: Vec<MachineInst>,
    /// Terminator (over block ids; the condition register is fully
    /// consumed by the compare that precedes the terminator).
    pub term: Terminator,
    /// Dynamic weight.
    pub weight: f64,
    /// Whether the block was vectorized.
    pub vectorized: bool,
}

/// Result of register allocation.
#[derive(Debug, Clone)]
pub struct AllocFunction {
    /// Source name.
    pub name: String,
    /// Allocated blocks.
    pub blocks: Vec<AllocBlock>,
    /// Statistics.
    pub stats: RegAllocStats,
    /// Every live interval and where it ended up, over the linearized
    /// instruction numbering — the post-regalloc verifier checks that
    /// no two overlapping intervals share a register.
    pub intervals: Vec<PlacedInterval>,
}

/// One live interval's placement: an architectural register, or `None`
/// when the interval was spilled (or rematerialized).
#[derive(Debug, Clone, Copy)]
pub struct PlacedInterval {
    /// The virtual register.
    pub vreg: VReg,
    /// Assigned architectural register, `None` if spilled.
    pub reg: Option<ArchReg>,
    /// First linearized instruction index covered.
    pub start: u32,
    /// Last linearized instruction index covered (inclusive).
    pub end: u32,
}

#[derive(Debug, Clone, Copy)]
struct Interval {
    vreg: VReg,
    start: u32,
    end: u32,
    weight: f64,
    remat_imm: Option<u8>,
}

/// How a spilled value is restored at uses.
#[derive(Debug, Clone, Copy)]
enum SpillKind {
    Stack,
    Remat(u8),
}

/// Allocates registers for a lowered function under the feature set's
/// register depth.
pub fn allocate(func: &VFunction, fs: &FeatureSet) -> AllocFunction {
    let depth = fs.depth().count() as u8;
    // Allocatable pool: all GPRs at this depth except the stack pointer,
    // cheapest encodings first (the natural index order already is).
    let pool: Vec<ArchReg> = (0..depth)
        .filter(|&i| i != stack_pointer().index())
        .map(ArchReg::gpr)
        .collect();

    // First attempt with the full pool; if spills occur we must reserve
    // scratch registers and retry.
    let intervals = build_intervals(func);
    let (assignment, spills) = scan(&intervals, pool.len());
    let reserve = if depth <= 8 { 2 } else { 3 };
    let scratch_count = if spills.is_empty() {
        0
    } else {
        reserve.min(pool.len().saturating_sub(1))
    };
    let (assignment, spills) = if scratch_count == 0 {
        (assignment, spills)
    } else {
        scan(&intervals, pool.len() - scratch_count)
    };

    // Scratch registers: the most expensive end of the pool.
    let scratch: Vec<ArchReg> = pool[pool.len() - scratch_count..].to_vec();
    let reg_of: HashMap<VReg, ArchReg> = assignment
        .iter()
        .map(|&(v, slot)| (v, pool[slot]))
        .collect();
    let spill_kind: HashMap<VReg, SpillKind> = spills
        .iter()
        .map(|&(v, remat)| {
            (
                v,
                match remat {
                    Some(w) => SpillKind::Remat(w),
                    None => SpillKind::Stack,
                },
            )
        })
        .collect();

    let mut stats = RegAllocStats {
        allocated: assignment.len() as u32,
        spilled: spills.iter().filter(|(_, r)| r.is_none()).count() as u32,
        rematerialized: spills.iter().filter(|(_, r)| r.is_some()).count() as u32,
        ..Default::default()
    };

    let mut blocks = Vec::with_capacity(func.blocks.len());
    for b in &func.blocks {
        blocks.push(rewrite_block(b, &reg_of, &spill_kind, &scratch, &mut stats));
    }

    let placed = intervals
        .iter()
        .map(|iv| PlacedInterval {
            vreg: iv.vreg,
            reg: reg_of.get(&iv.vreg).copied(),
            start: iv.start,
            end: iv.end,
        })
        .collect();

    AllocFunction {
        name: func.name.clone(),
        blocks,
        stats,
        intervals: placed,
    }
}

/// Builds live intervals over a linearized instruction numbering.
fn build_intervals(func: &VFunction) -> Vec<Interval> {
    let nblocks = func.blocks.len();
    // use/def per block.
    let mut gen: Vec<Vec<VReg>> = vec![Vec::new(); nblocks];
    let mut kill: Vec<Vec<VReg>> = vec![Vec::new(); nblocks];
    for (bi, b) in func.blocks.iter().enumerate() {
        let mut defined: Vec<VReg> = Vec::new();
        for inst in &b.insts {
            for u in inst.uses() {
                if !defined.contains(&u) && !gen[bi].contains(&u) {
                    gen[bi].push(u);
                }
            }
            if let Some(d) = inst.def() {
                if !defined.contains(&d) {
                    defined.push(d);
                }
            }
        }
        if let Terminator::Branch { cond, .. } = b.term {
            if !defined.contains(&cond) && !gen[bi].contains(&cond) {
                gen[bi].push(cond);
            }
        }
        kill[bi] = defined;
    }

    // Backward dataflow to a fixed point.
    let mut live_in: Vec<Vec<VReg>> = vec![Vec::new(); nblocks];
    let mut live_out: Vec<Vec<VReg>> = vec![Vec::new(); nblocks];
    let mut changed = true;
    while changed {
        changed = false;
        for bi in (0..nblocks).rev() {
            let mut out: Vec<VReg> = Vec::new();
            for s in func.blocks[bi].term.successors() {
                for &v in &live_in[s.idx()] {
                    if !out.contains(&v) {
                        out.push(v);
                    }
                }
            }
            let mut inn = gen[bi].clone();
            for &v in &out {
                if !kill[bi].contains(&v) && !inn.contains(&v) {
                    inn.push(v);
                }
            }
            if out != live_out[bi] || inn != live_in[bi] {
                live_out[bi] = out;
                live_in[bi] = inn;
                changed = true;
            }
        }
    }

    // Linear positions: block-major instruction numbering.
    let mut pos = 0u32;
    let mut ivs: HashMap<VReg, Interval> = HashMap::new();
    let touch = |v: VReg, p: u32, w: f64, remat: Option<u8>, ivs: &mut HashMap<VReg, Interval>| {
        let e = ivs.entry(v).or_insert(Interval {
            vreg: v,
            start: p,
            end: p,
            weight: 0.0,
            remat_imm: remat,
        });
        e.start = e.start.min(p);
        e.end = e.end.max(p);
        e.weight += w;
        if remat.is_none() && e.remat_imm.is_some() && ivs.get(&v).is_some() {
            // multiple defs: not rematerializable — handled below.
        }
    };
    // Track remat candidacy: single def that is a constant.
    let mut def_count: HashMap<VReg, u32> = HashMap::new();
    let mut remat_of: HashMap<VReg, u8> = HashMap::new();
    for b in &func.blocks {
        for inst in &b.insts {
            if let Some(d) = inst.def() {
                *def_count.entry(d).or_default() += 1;
                if let Some(w) = inst.remat_imm {
                    remat_of.insert(d, w);
                }
            }
        }
    }

    for (bi, b) in func.blocks.iter().enumerate() {
        let block_start = pos;
        for &v in &live_in[bi] {
            touch(v, block_start, 0.0, None, &mut ivs);
        }
        for inst in &b.insts {
            for u in inst.uses() {
                touch(u, pos, b.weight, None, &mut ivs);
            }
            if let Some(d) = inst.def() {
                touch(d, pos, b.weight, None, &mut ivs);
            }
            pos += 1;
        }
        if let Terminator::Branch { cond, .. } = b.term {
            touch(cond, pos, b.weight, None, &mut ivs);
        }
        pos += 1; // terminator slot
        let block_end = pos - 1;
        for &v in &live_out[bi] {
            touch(v, block_end, 0.0, None, &mut ivs);
        }
    }

    let mut out: Vec<Interval> = ivs
        .into_values()
        .map(|mut iv| {
            iv.remat_imm = match def_count.get(&iv.vreg) {
                Some(1) => remat_of.get(&iv.vreg).copied(),
                _ => None,
            };
            iv
        })
        .collect();
    out.sort_by_key(|iv| (iv.start, iv.end, iv.vreg.0));
    out
}

/// Vreg-to-pool-slot assignments.
type Assignments = Vec<(VReg, usize)>;
/// Spilled vregs with an optional rematerialization width.
type Spills = Vec<(VReg, Option<u8>)>;

/// Linear scan proper: returns `(assignments, spills)` where assignments
/// map vregs to pool slots and spills carry an optional remat width.
fn scan(intervals: &[Interval], k: usize) -> (Assignments, Spills) {
    let mut active: Vec<(u32, usize, VReg)> = Vec::new(); // (end, slot, vreg)
    let mut free: Vec<usize> = (0..k).rev().collect(); // pop() yields slot 0 first
    let mut assigned: Vec<(VReg, usize)> = Vec::new();
    let mut spilled: Vec<(VReg, Option<u8>)> = Vec::new();
    let mut slot_of: HashMap<VReg, usize> = HashMap::new();

    for iv in intervals {
        // Expire.
        active.retain(|&(end, slot, _)| {
            if end < iv.start {
                free.push(slot);
                false
            } else {
                true
            }
        });
        free.sort_unstable_by(|a, b| b.cmp(a)); // keep cheapest on top

        if let Some(slot) = free.pop() {
            active.push((iv.end, slot, iv.vreg));
            slot_of.insert(iv.vreg, slot);
            assigned.push((iv.vreg, slot));
        } else if k == 0 {
            spilled.push((iv.vreg, iv.remat_imm));
        } else {
            // Choose a victim among {active ∪ iv}: prefer to keep
            // heavily used (hot) intervals in registers, spilling the
            // coldest long-lived one — the effect a real allocator's
            // live-range splitting achieves.
            let weight_of = |v: VReg| -> f64 {
                intervals
                    .iter()
                    .find(|i| i.vreg == v)
                    .map(|i| i.weight)
                    .unwrap_or(0.0)
            };
            let (victim_idx, &(vend, vslot, vv)) = active
                .iter()
                .enumerate()
                .max_by(|(_, &(ea, _, va)), (_, &(eb, _, vb))| {
                    let sa = ea as f64 / (1.0 + weight_of(va));
                    let sb = eb as f64 / (1.0 + weight_of(vb));
                    sa.partial_cmp(&sb).expect("finite spill score")
                })
                .expect("active nonempty when k > 0");
            let victim_score = vend as f64 / (1.0 + weight_of(vv));
            let incoming_score = iv.end as f64 / (1.0 + iv.weight);
            if victim_score > incoming_score {
                // Evict the active interval; current takes its slot.
                active.remove(victim_idx);
                assigned.retain(|&(v, _)| v != vv);
                let remat = intervals
                    .iter()
                    .find(|i| i.vreg == vv)
                    .and_then(|i| i.remat_imm);
                spilled.push((vv, remat));
                active.push((iv.end, vslot, iv.vreg));
                slot_of.insert(iv.vreg, vslot);
                assigned.push((iv.vreg, vslot));
            } else {
                spilled.push((iv.vreg, iv.remat_imm));
            }
        }
    }
    (assigned, spilled)
}

/// Rewrites one block: maps virtual to architectural registers and
/// inserts spill/refill/remat code.
fn rewrite_block(
    b: &VBlock,
    reg_of: &HashMap<VReg, ArchReg>,
    spill_kind: &HashMap<VReg, SpillKind>,
    scratch: &[ArchReg],
    stats: &mut RegAllocStats,
) -> AllocBlock {
    let mut insts: Vec<MachineInst> = Vec::with_capacity(b.insts.len() * 2);
    // Block-local scratch residency: a spilled value refilled into a
    // scratch register stays usable until that scratch is recycled
    // (models the short live-range splits a real allocator creates,
    // instead of reloading on every single use).
    let mut resident: Vec<Option<VReg>> = vec![None; scratch.len()];
    let mut clock = 0usize;
    for vinst in &b.insts {
        let mut scratch_map: HashMap<VReg, ArchReg> = HashMap::new();
        // Slots already holding this instruction's operands are pinned.
        let spilled_uses: Vec<VReg> = vinst
            .uses()
            .filter(|v| spill_kind.contains_key(v))
            .collect();
        let mut pinned: Vec<usize> = Vec::new();
        for v in &spilled_uses {
            if let Some(slot) = resident.iter().position(|r| *r == Some(*v)) {
                scratch_map.insert(*v, scratch[slot]);
                pinned.push(slot);
            }
        }
        for v in spilled_uses {
            if scratch_map.contains_key(&v) {
                continue;
            }
            if scratch.is_empty() {
                stats.scratch_overflows += 1;
                continue;
            }
            // Round-robin over unpinned slots.
            let mut slot = clock % scratch.len();
            let mut guard = 0;
            while pinned.contains(&slot) && guard < scratch.len() {
                slot = (slot + 1) % scratch.len();
                guard += 1;
            }
            if pinned.len() >= scratch.len() {
                stats.scratch_overflows += 1;
            }
            clock = slot + 1;
            pinned.push(slot);
            resident[slot] = Some(v);
            let s = scratch[slot];
            scratch_map.insert(v, s);
            match spill_kind[&v] {
                SpillKind::Stack => {
                    insts.push(MachineInst::load(s, spill_mem()));
                    stats.dyn_refill_loads += b.weight;
                }
                SpillKind::Remat(w) => {
                    insts.push(MachineInst::compute(
                        MacroOpcode::Mov,
                        s,
                        Operand::Imm(w),
                        Operand::None,
                    ));
                    stats.dyn_remat_ops += b.weight;
                }
            }
        }
        // Destination spilled: compute into a scratch, store after.
        let dst_spill = vinst.dst.filter(|d| spill_kind.contains_key(d));
        let dst_scratch = dst_spill.map(|d| {
            if let Some(&s) = scratch_map.get(&d) {
                s
            } else if scratch.is_empty() {
                stats.scratch_overflows += 1;
                ArchReg::gpr(0)
            } else {
                let mut slot = clock % scratch.len();
                let mut guard = 0;
                while pinned.contains(&slot) && guard < scratch.len() {
                    slot = (slot + 1) % scratch.len();
                    guard += 1;
                }
                clock = slot + 1;
                resident[slot] = Some(d);
                let s = scratch[slot];
                scratch_map.insert(d, s);
                s
            }
        });

        let map = |v: VReg| -> ArchReg {
            scratch_map
                .get(&v)
                .or_else(|| reg_of.get(&v))
                .copied()
                .unwrap_or_else(|| scratch.first().copied().unwrap_or(ArchReg::gpr(0)))
        };

        let minst = lower_vinst(vinst, &map, dst_scratch);
        insts.push(minst);

        if let Some(d) = dst_spill {
            if matches!(spill_kind[&d], SpillKind::Stack) {
                insts.push(MachineInst::store(scratch_map[&d], spill_mem()));
                stats.dyn_spill_stores += b.weight;
            }
        }
    }
    AllocBlock {
        insts,
        term: b.term,
        weight: b.weight,
        vectorized: b.vectorized,
    }
}

fn spill_mem() -> MemOperand {
    MemOperand::base_disp(stack_pointer(), 1, MemLocality::Stack)
}

fn lower_vinst(
    v: &VInst,
    map: &impl Fn(VReg) -> ArchReg,
    dst_override: Option<ArchReg>,
) -> MachineInst {
    let conv = |o: VOp| -> Operand {
        match o {
            VOp::Reg(r) => Operand::Reg(map(r)),
            VOp::Imm(w) => Operand::Imm(w),
            VOp::None => Operand::None,
        }
    };
    let mem = v.mem.map(|m| MemOperand {
        mode: match (m.base, m.index) {
            (_, Some(_)) => cisa_isa::AddressingMode::BaseIndexScaleDisp,
            (_, None) if m.disp_bytes > 0 => cisa_isa::AddressingMode::BaseDisp,
            _ => cisa_isa::AddressingMode::BaseOnly,
        },
        base: m.base.map(map).unwrap_or_else(stack_pointer),
        index: m.index.map(map),
        disp_bytes: m.disp_bytes,
        locality: m.locality,
    });
    MachineInst {
        opcode: v.opcode,
        dst: dst_override.or(v.dst.map(map)),
        src1: conv(v.src1),
        src2: conv(v.src2),
        mem,
        mem_role: if mem.is_some() {
            v.mem_role
        } else {
            MemRole::None
        },
        wide: v.wide,
        predicate: v.pred.map(|(p, negated)| PredicateAnnotation {
            reg: map(p),
            negated,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{AddrExpr, BlockId, BranchBehavior, IrBlock, IrFunction, IrInst, IrOp};
    use crate::isel::select;
    use cisa_isa::feature_set::{Complexity, Predication, RegisterDepth, RegisterWidth};

    fn fs_depth(d: RegisterDepth) -> FeatureSet {
        FeatureSet::new(
            Complexity::MicroX86,
            RegisterWidth::W32,
            d,
            Predication::Partial,
        )
        .unwrap()
    }

    /// A straight-line block with `n` simultaneously live values.
    fn pressure(n: u32) -> IrFunction {
        let mut f = IrFunction::new(format!("pressure{n}"));
        let base = f.new_vreg();
        let mut live = Vec::new();
        let mut b = IrBlock::new(Terminator::Ret, 100.0);
        for k in 0..n {
            let v = f.new_vreg();
            b.insts.push(IrInst::load(
                v,
                AddrExpr::base_disp(base, k as i32 * 8),
                cisa_isa::inst::MemLocality::WorkingSet,
            ));
            live.push(v);
        }
        // Consume all values at the end so they are simultaneously live.
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
    fn no_spills_under_low_pressure() {
        let func = pressure(4);
        let v = select(&func, &fs_depth(RegisterDepth::D32));
        let a = allocate(&v, &fs_depth(RegisterDepth::D32));
        assert_eq!(a.stats.spilled, 0);
        assert_eq!(a.stats.dyn_spill_stores, 0.0);
    }

    #[test]
    fn shallow_depth_forces_spills() {
        let func = pressure(20);
        let v = select(&func, &fs_depth(RegisterDepth::D8));
        let a8 = allocate(&v, &fs_depth(RegisterDepth::D8));
        let a32 = allocate(
            &select(&func, &fs_depth(RegisterDepth::D32)),
            &fs_depth(RegisterDepth::D32),
        );
        assert!(a8.stats.spilled > 0, "depth 8 must spill 20 live values");
        assert!(a8.stats.dyn_refill_loads > a32.stats.dyn_refill_loads);
        assert_eq!(a32.stats.spilled, 0, "depth 32 holds 20 values");
    }

    #[test]
    fn spill_code_grows_monotonically_as_depth_shrinks() {
        let func = pressure(40);
        let mut prev = f64::INFINITY;
        for d in [
            RegisterDepth::D8,
            RegisterDepth::D16,
            RegisterDepth::D32,
            RegisterDepth::D64,
        ] {
            let fs = fs_depth(d);
            let a = allocate(&select(&func, &fs), &fs);
            let spill_traffic = a.stats.dyn_spill_stores + a.stats.dyn_refill_loads;
            assert!(
                spill_traffic <= prev + 1e-9,
                "depth {} should not spill more than shallower depths",
                d.count()
            );
            prev = spill_traffic;
        }
    }

    #[test]
    fn constants_rematerialize_not_spill() {
        // Many long-lived constants + pressure: allocator should remat.
        let mut f = IrFunction::new("consts");
        let mut b = IrBlock::new(Terminator::Ret, 10.0);
        let mut vals = Vec::new();
        for _ in 0..12 {
            let v = f.new_vreg();
            b.insts.push(IrInst::constant(v, 4));
            vals.push(v);
        }
        let mut acc = f.new_vreg();
        b.insts.push(IrInst::constant(acc, 1));
        for &v in &vals {
            let nv = f.new_vreg();
            b.insts.push(IrInst::compute(IrOp::IntAlu, nv, acc, v));
            acc = nv;
        }
        f.add_block(b);
        let fs = fs_depth(RegisterDepth::D8);
        let a = allocate(&select(&f, &fs), &fs);
        assert!(a.stats.rematerialized > 0, "constants should rematerialize");
        assert!(a.stats.dyn_remat_ops > 0.0);
    }

    #[test]
    fn spill_code_uses_stack_locality() {
        let func = pressure(30);
        let fs = fs_depth(RegisterDepth::D8);
        let a = allocate(&select(&func, &fs), &fs);
        let spill_ops: Vec<&MachineInst> = a.blocks[0]
            .insts
            .iter()
            .filter(|i| i.mem.is_some_and(|m| m.base == stack_pointer()))
            .collect();
        assert!(!spill_ops.is_empty());
        assert!(spill_ops
            .iter()
            .all(|i| i.mem.unwrap().locality == MemLocality::Stack));
    }

    #[test]
    fn all_registers_respect_depth() {
        for d in [
            RegisterDepth::D8,
            RegisterDepth::D16,
            RegisterDepth::D32,
            RegisterDepth::D64,
        ] {
            let fs = fs_depth(d);
            let func = pressure(24);
            let a = allocate(&select(&func, &fs), &fs);
            for blk in &a.blocks {
                for inst in &blk.insts {
                    for r in inst.registers() {
                        assert!(
                            r.available_in(&fs),
                            "register {r} out of depth {} range",
                            d.count()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn loop_carried_values_stay_live_across_back_edges() {
        // v defined before the loop and used inside it must keep its
        // register through the whole loop body.
        let mut f = IrFunction::new("loop");
        let v = f.new_vreg();
        let c = f.new_vreg();
        let mut pre = IrBlock::new(Terminator::Jump(BlockId(1)), 1.0);
        pre.insts.push(IrInst::constant(v, 4));
        f.add_block(pre);
        let mut body = IrBlock::new(
            Terminator::Branch {
                cond: c,
                taken: BlockId(1),
                not_taken: BlockId(2),
                behavior: BranchBehavior::loop_back(50),
            },
            50.0,
        );
        body.insts.push(IrInst::compute(IrOp::IntAlu, c, v, v));
        f.add_block(body);
        f.add_block(IrBlock::new(Terminator::Ret, 1.0));
        f.validate().unwrap();

        let fs = fs_depth(RegisterDepth::D16);
        let a = allocate(&select(&f, &fs), &fs);
        assert_eq!(a.stats.spilled, 0);
        // v's register in the loop body must match its def register.
        let def_reg = a.blocks[0].insts[0].dst.unwrap();
        let use_reg = a.blocks[1].insts[0].src1.reg().unwrap();
        assert_eq!(def_reg, use_reg);
    }

    #[test]
    fn overlapping_intervals_never_share_a_register() {
        // The fundamental allocator invariant, checked white-box on the
        // scan output: any two vregs assigned the same pool slot must
        // have disjoint live intervals.
        for n in [6u32, 14, 28, 40] {
            let func = pressure(n);
            for d in [RegisterDepth::D8, RegisterDepth::D16, RegisterDepth::D32] {
                let fs = fs_depth(d);
                let v = select(&func, &fs);
                let intervals = build_intervals(&v);
                let k = (d.count() as usize).saturating_sub(4); // sp + scratch
                let (assigned, _) = scan(&intervals, k.max(1));
                let iv_of = |vr: VReg| intervals.iter().find(|i| i.vreg == vr).unwrap();
                for (i, &(va, slot_a)) in assigned.iter().enumerate() {
                    for &(vb, slot_b) in assigned.iter().skip(i + 1) {
                        if slot_a != slot_b {
                            continue;
                        }
                        let (a, b) = (iv_of(va), iv_of(vb));
                        let overlap = a.start <= b.end && b.start <= a.end;
                        assert!(
                            !overlap,
                            "depth {}: {va:?} [{}..{}] and {vb:?} [{}..{}] share slot {slot_a}",
                            d.count(),
                            a.start,
                            a.end,
                            b.start,
                            b.end
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn spilled_plus_assigned_covers_every_interval() {
        let func = pressure(30);
        let fs = fs_depth(RegisterDepth::D8);
        let v = select(&func, &fs);
        let intervals = build_intervals(&v);
        let (assigned, spilled) = scan(&intervals, 4);
        let mut seen: Vec<VReg> = assigned.iter().map(|&(v, _)| v).collect();
        seen.extend(spilled.iter().map(|&(v, _)| v));
        seen.sort();
        seen.dedup();
        assert_eq!(
            seen.len(),
            intervals.len(),
            "every interval is placed exactly once"
        );
    }

    #[test]
    fn predicates_are_mapped_to_architectural_registers() {
        let mut f = IrFunction::new("pred");
        let c = f.new_vreg();
        let x = f.new_vreg();
        let mut b = IrBlock::new(Terminator::Ret, 1.0);
        b.insts.push(IrInst::compute(IrOp::Cmp, c, x, x));
        let mut i = IrInst::compute(IrOp::IntAlu, x, x, x);
        i.pred = Some((c, true));
        b.insts.push(i);
        f.add_block(b);
        let fs = FeatureSet::superset();
        let a = allocate(&select(&f, &fs), &fs);
        let pinst = a.blocks[0]
            .insts
            .iter()
            .find(|i| i.predicate.is_some())
            .unwrap();
        let p = pinst.predicate.unwrap();
        assert!(p.negated);
        assert!(p.reg.available_in(&fs));
    }
}
