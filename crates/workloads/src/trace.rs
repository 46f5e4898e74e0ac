//! Dynamic micro-op trace generation.
//!
//! [`TraceGenerator`] walks compiled code the way an execution would:
//! block by block, sampling each conditional branch's outcome from its
//! behaviour annotation (loop counters for back-edges, fixed repeating
//! patterns for periodic branches, seeded Bernoulli draws for
//! biased/random ones) and synthesizing memory addresses from the
//! phase's locality profile (stack slots for spill code, advancing
//! streams, uniform draws over the working set, pointer-chase regions).
//!
//! The produced [`DynUop`] stream is private to this crate: every
//! consumer reads it through a [`crate::TraceArena`], which transposes
//! it into packed columns once. PCs are real byte addresses from the
//! encoder layout, so instruction-cache and micro-op-cache models see
//! true code footprints (Thumb-like density effects included).

use cisa_compiler::ir::{BranchPattern, Terminator};
use cisa_compiler::CompiledCode;
use cisa_isa::inst::{MachineInst, MemLocality};
use cisa_isa::uop::{MicroOp, MicroOpKind};
use cisa_isa::{Encoder, RegisterWidth};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::benchmarks::PhaseSpec;

/// Region base addresses (disjoint by construction).
const STACK_BASE: u64 = 0x7FFF_0000;
const STREAM_BASE: u64 = 0x4000_0000;
const WS_BASE: u64 = 0x1000_0000;
const CHASE_BASE: u64 = 0x2000_0000;

/// Parameters of a trace expansion.
#[derive(Debug, Clone, Copy)]
pub struct TraceParams {
    /// Maximum micro-ops to emit.
    pub max_uops: usize,
    /// Seed for branch/address sampling (distinct from the phase's
    /// generation seed so multiple trace samples are possible).
    pub seed: u64,
}

impl Default for TraceParams {
    fn default() -> Self {
        TraceParams {
            max_uops: 40_000,
            seed: 0x7A11,
        }
    }
}

/// One dynamic micro-op: exactly the fields [`crate::TraceArena`]
/// keeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct DynUop {
    /// Operation kind.
    pub kind: MicroOpKind,
    /// Destination architectural register or [`MicroOp::NO_REG`].
    pub dst: u8,
    /// Source 1.
    pub src1: u8,
    /// Source 2.
    pub src2: u8,
    /// Predicate register (a source) or [`MicroOp::NO_REG`].
    pub pred: u8,
    /// Byte PC of the owning macro-op.
    pub pc: u64,
    /// Encoded macro-op length (bytes).
    pub len: u8,
    /// Whether this is the first micro-op of its macro-op.
    pub first: bool,
    /// Micro-ops in the owning macro-op.
    pub macro_uops: u8,
    /// Memory address (valid when `kind.is_mem()`).
    pub mem_addr: u64,
    /// For control micro-ops: was the branch taken?
    pub taken: bool,
}

/// Per-terminator branch-outcome state.
#[derive(Debug, Clone)]
enum BranchState {
    Loop { trip: u32, count: u32 },
    Pattern { bits: Vec<bool>, pos: usize },
    Bernoulli { p: f64 },
}

/// Static layout of one instruction.
#[derive(Debug, Clone)]
struct StaticInst {
    inst: MachineInst,
    pc: u64,
    len: u8,
    /// Pre-expanded micro-ops.
    uops: Vec<MicroOp>,
}

#[derive(Debug, Clone)]
struct StaticBlock {
    insts: Vec<StaticInst>,
    term: Terminator,
    term_pc: u64,
    term_len: u8,
    vectorized: bool,
    /// Index of this block's first instruction in the generator's
    /// `stream_cursors`.
    cursor_base: usize,
}

/// Walks compiled code, yielding dynamic micro-ops.
#[derive(Debug)]
pub(crate) struct TraceGenerator {
    blocks: Vec<StaticBlock>,
    branch_states: Vec<Option<BranchState>>,
    /// Stream cursor per static instruction, block by block (a block's
    /// instructions start at its `cursor_base`).
    stream_cursors: Vec<u64>,
    rng: SmallRng,
    ws_bytes: u64,
    stream_bytes: u64,
    chase_bytes: u64,
    cur_block: usize,
    cur_inst: usize,
    cur_uop: usize,
    emitted: usize,
    max_uops: usize,
}

impl TraceGenerator {
    /// Builds a trace generator for compiled code plus its phase's
    /// locality profile.
    pub(crate) fn new(code: &CompiledCode, spec: &PhaseSpec, params: TraceParams) -> Self {
        let encoder = Encoder::new(code.fs);
        // 64-bit pointers expand the data working set (Section III,
        // "wide pointers potentially expand the cache working set").
        let footprint_scale = match code.fs.width() {
            RegisterWidth::W64 => 1.25,
            RegisterWidth::W32 => 1.0,
        };
        let mut pc = 0x0040_0000u64; // text base
        let mut blocks = Vec::with_capacity(code.blocks.len());
        let mut branch_states = Vec::with_capacity(code.blocks.len());
        let mut n_insts = 0;
        for b in &code.blocks {
            let mut insts = Vec::with_capacity(b.insts.len());
            for inst in &b.insts {
                let len = encoder.encode(inst).map(|e| e.len()).unwrap_or(4) as u8;
                insts.push(StaticInst {
                    inst: *inst,
                    pc,
                    len,
                    uops: inst.micro_ops(),
                });
                pc += len as u64;
            }
            let (term_len, state) = match &b.term {
                Terminator::Branch { behavior, .. } => {
                    let lanes_scale = if b.vectorized { 4 } else { 1 };
                    let state = match behavior.pattern {
                        BranchPattern::LoopBack { trip } => {
                            // Back-edge of a vectorized loop iterates
                            // 1/lanes as often.
                            let t = (trip / lanes_scale).max(1);
                            BranchState::Loop { trip: t, count: 0 }
                        }
                        BranchPattern::Periodic { period } => {
                            let period = period.max(2) as usize;
                            let takens = (behavior.taken_prob * period as f64).round() as usize;
                            let mut bits = vec![false; period];
                            for slot in bits.iter_mut().take(takens) {
                                *slot = true;
                            }
                            // Deterministic interleave.
                            bits.rotate_right(period / 3);
                            BranchState::Pattern { bits, pos: 0 }
                        }
                        BranchPattern::Biased | BranchPattern::Random => BranchState::Bernoulli {
                            p: behavior.taken_prob,
                        },
                    };
                    (6u8, Some(state))
                }
                Terminator::Jump(_) => (5u8, None),
                Terminator::Ret => (1u8, None),
            };
            let term_pc = pc;
            pc += term_len as u64;
            branch_states.push(state);
            blocks.push(StaticBlock {
                insts,
                term: b.term,
                term_pc,
                term_len,
                vectorized: b.vectorized,
                cursor_base: n_insts,
            });
            n_insts += b.insts.len();
        }

        TraceGenerator {
            blocks,
            branch_states,
            stream_cursors: vec![0; n_insts],
            rng: SmallRng::seed_from_u64(params.seed ^ spec.seed),
            ws_bytes: ((spec.locality.working_set_bytes as f64) * footprint_scale) as u64,
            stream_bytes: spec.locality.stream_bytes.max(4096),
            chase_bytes: ((spec.locality.working_set_bytes as f64) * footprint_scale) as u64,
            cur_block: 0,
            cur_inst: 0,
            cur_uop: 0,
            emitted: 0,
            max_uops: params.max_uops,
        }
    }

    fn mem_addr(&mut self, loc: MemLocality, bid: u32, iid: u32, wide_vec: bool) -> u64 {
        match loc {
            MemLocality::Stack => {
                // Hot spill slots: tiny region, direct-mapped by static id.
                STACK_BASE + ((bid as u64 * 131 + iid as u64 * 17) % 64) * 8
            }
            MemLocality::Stream => {
                let stride = if wide_vec { 16 } else { 8 };
                let c =
                    &mut self.stream_cursors[self.blocks[bid as usize].cursor_base + iid as usize];
                let addr = STREAM_BASE + (*c % self.stream_bytes);
                *c += stride;
                addr
            }
            MemLocality::WorkingSet => {
                // Real working sets have zipf-like reuse; model it as a
                // three-level mixture: a very hot L1-sized subset, a
                // warm L2-sized subset, and a cold sweep over the full
                // footprint.
                let span = self.ws_bytes.max(64);
                let hot = (16 * 1024).min(span);
                let warm = (span / 8).clamp(32 * 1024, 64 * 1024).min(span);
                let roll = self.rng.gen::<f64>();
                let r = if roll < 0.62 {
                    self.rng.gen_range(0..hot)
                } else if roll < 0.97 {
                    self.rng.gen_range(0..warm)
                } else {
                    self.rng.gen_range(0..span)
                };
                WS_BASE + r / 8 * 8
            }
            MemLocality::PointerChase => {
                // Pointer chasing reuses list heads/roots but spends
                // most of its time in the cold heap (mcf-like).
                let span = self.chase_bytes.max(64);
                let hot = (span / 8).clamp(8192, 256 * 1024).min(span);
                let r = if self.rng.gen::<f64>() < 0.5 {
                    self.rng.gen_range(0..hot)
                } else {
                    self.rng.gen_range(0..span)
                };
                CHASE_BASE + r / 8 * 8
            }
        }
    }

    fn sample_branch(&mut self, bid: usize) -> bool {
        match self.branch_states[bid].as_mut().expect("branch state") {
            BranchState::Loop { trip, count } => {
                *count += 1;
                if *count >= *trip {
                    *count = 0;
                    false
                } else {
                    true
                }
            }
            BranchState::Pattern { bits, pos } => {
                let t = bits[*pos];
                *pos = (*pos + 1) % bits.len();
                t
            }
            BranchState::Bernoulli { p } => {
                let p = *p;
                self.rng.gen::<f64>() < p
            }
        }
    }
}

impl Iterator for TraceGenerator {
    type Item = DynUop;

    fn next(&mut self) -> Option<DynUop> {
        if self.emitted >= self.max_uops {
            return None;
        }
        let block = &self.blocks[self.cur_block];
        if self.cur_inst < block.insts.len() {
            let sinst = &block.insts[self.cur_inst];
            let uop = sinst.uops[self.cur_uop];
            let first = self.cur_uop == 0;
            let macro_uops = sinst.uops.len() as u8;
            let pc = sinst.pc;
            let len = sinst.len;
            // Memory micro-ops of an instruction without a memory
            // operand address the stack.
            let locality = sinst.inst.mem.map_or(MemLocality::Stack, |m| m.locality);
            let (bid, iid) = (self.cur_block as u32, self.cur_inst as u32);
            let is_wide_vec = block.vectorized || sinst.inst.wide;

            self.cur_uop += 1;
            if self.cur_uop >= sinst.uops.len() {
                self.cur_uop = 0;
                self.cur_inst += 1;
            }
            let mem_addr = if uop.kind.is_mem() {
                self.mem_addr(locality, bid, iid, is_wide_vec)
            } else {
                0
            };
            self.emitted += 1;
            return Some(DynUop {
                kind: uop.kind,
                dst: uop.dst,
                src1: uop.src1,
                src2: uop.src2,
                pred: uop.pred,
                pc,
                len,
                first,
                macro_uops,
                mem_addr,
                taken: false,
            });
        }

        // Terminator.
        let term = block.term;
        let term_pc = block.term_pc;
        let term_len = block.term_len;
        let bid = self.cur_block;
        match term {
            Terminator::Branch {
                taken, not_taken, ..
            } => {
                let t = self.sample_branch(bid);
                self.cur_block = if t { taken.idx() } else { not_taken.idx() };
                self.cur_inst = 0;
                self.cur_uop = 0;
                self.emitted += 1;
                Some(DynUop {
                    kind: MicroOpKind::Branch,
                    dst: MicroOp::NO_REG,
                    src1: MicroOp::NO_REG,
                    src2: MicroOp::NO_REG,
                    pred: MicroOp::NO_REG,
                    pc: term_pc,
                    len: term_len,
                    first: true,
                    macro_uops: 1,
                    mem_addr: 0,
                    taken: t,
                })
            }
            Terminator::Jump(t) => {
                self.cur_block = t.idx();
                self.cur_inst = 0;
                self.cur_uop = 0;
                self.emitted += 1;
                Some(DynUop {
                    kind: MicroOpKind::Jump,
                    dst: MicroOp::NO_REG,
                    src1: MicroOp::NO_REG,
                    src2: MicroOp::NO_REG,
                    pred: MicroOp::NO_REG,
                    pc: term_pc,
                    len: term_len,
                    first: true,
                    macro_uops: 1,
                    mem_addr: 0,
                    taken: true,
                })
            }
            Terminator::Ret => {
                // Phase repeats: restart at the entry block.
                self.cur_block = 0;
                self.cur_inst = 0;
                self.cur_uop = 0;
                self.emitted += 1;
                Some(DynUop {
                    kind: MicroOpKind::Jump,
                    dst: MicroOp::NO_REG,
                    src1: MicroOp::NO_REG,
                    src2: MicroOp::NO_REG,
                    pred: MicroOp::NO_REG,
                    pc: term_pc,
                    len: term_len,
                    first: true,
                    macro_uops: 1,
                    mem_addr: 0,
                    taken: true,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::all_phases;
    use crate::generator::generate;
    use cisa_compiler::{compile, CompileOptions};
    use cisa_isa::FeatureSet;

    fn trace_for(bench: &str, fs: FeatureSet, n: usize) -> (Vec<DynUop>, PhaseSpec) {
        let spec = all_phases()
            .into_iter()
            .find(|p| p.benchmark == bench)
            .unwrap();
        let code = compile(&generate(&spec), &fs, &CompileOptions::default()).unwrap();
        let tg = TraceGenerator::new(
            &code,
            &spec,
            TraceParams {
                max_uops: n,
                seed: 1,
            },
        );
        (tg.collect(), spec)
    }

    #[test]
    fn trace_respects_max_uops() {
        let (t, _) = trace_for("bzip2", FeatureSet::x86_64(), 5000);
        assert_eq!(t.len(), 5000);
    }

    #[test]
    fn traces_are_deterministic() {
        let (a, _) = trace_for("mcf", FeatureSet::x86_64(), 2000);
        let (b, _) = trace_for("mcf", FeatureSet::x86_64(), 2000);
        assert_eq!(a, b);
    }

    #[test]
    fn memory_uops_have_addresses_in_their_regions() {
        let spec = all_phases()
            .into_iter()
            .find(|p| p.benchmark == "mcf")
            .unwrap();
        let code = compile(
            &generate(&spec),
            &FeatureSet::x86_64(),
            &CompileOptions::default(),
        )
        .unwrap();
        let mut tg = TraceGenerator::new(&code, &spec, TraceParams::default());
        let bid = tg.blocks.iter().position(|b| !b.insts.is_empty()).unwrap() as u32;
        for (loc, region) in [
            (MemLocality::Stack, STACK_BASE..STACK_BASE + 64 * 8),
            (MemLocality::Stream, STREAM_BASE..STACK_BASE),
            (MemLocality::WorkingSet, WS_BASE..CHASE_BASE),
            (MemLocality::PointerChase, CHASE_BASE..STREAM_BASE),
        ] {
            let addr = tg.mem_addr(loc, bid, 0, false);
            assert!(region.contains(&addr), "{loc:?} at {addr:#x}");
        }
        let seen_mem = tg.filter(|u| u.kind.is_mem()).count();
        assert!(seen_mem > 1000, "mcf must be memory heavy");
    }

    #[test]
    fn branch_outcome_rates_match_annotations() {
        let (t, _) = trace_for("sjeng", FeatureSet::x86_64(), 50_000);
        let branches: Vec<_> = t.iter().filter(|u| u.kind == MicroOpKind::Branch).collect();
        assert!(!branches.is_empty());
        let taken_rate = branches.iter().filter(|u| u.taken).count() as f64 / branches.len() as f64;
        // sjeng's branches are random around 0.35..0.65 plus loop
        // back-edges (mostly taken): overall rate must be sane.
        assert!((0.2..0.95).contains(&taken_rate), "taken rate {taken_rate}");
    }

    #[test]
    fn loop_back_edges_follow_trip_counts() {
        // lbm phase 0: hot loop trip 1000; back edge taken 999/1000. A
        // taken back edge is a taken branch followed by a lower PC.
        let (t, _) = trace_for("lbm", FeatureSet::x86_64(), 60_000);
        let back_edges = t
            .windows(2)
            .filter(|w| w[0].kind == MicroOpKind::Branch && w[0].taken && w[1].pc < w[0].pc)
            .count();
        assert!(back_edges > 0, "must see taken back-edges");
    }

    #[test]
    fn pcs_are_consistent_with_lengths() {
        let (t, _) = trace_for("bzip2", FeatureSet::x86_64(), 10_000);
        for w in t.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            if !a.kind.is_control() && b.first && !a.first {
                // Next macro-op starts exactly after the previous one
                // when we are inside straight-line code.
                if b.pc > a.pc && b.pc - a.pc < 32 {
                    assert_eq!(b.pc, a.pc + a.len as u64, "layout gap");
                }
            }
        }
    }

    #[test]
    fn stream_addresses_advance() {
        let (t, _) = trace_for("libquantum", FeatureSet::x86_64(), 20_000);
        // Group stream accesses by their static instruction (PC): each
        // cursor advances by its stride until it wraps.
        let mut by_pc: std::collections::HashMap<u64, Vec<u64>> = std::collections::HashMap::new();
        for u in t
            .iter()
            .filter(|u| u.kind.is_mem() && (STREAM_BASE..STACK_BASE).contains(&u.mem_addr))
        {
            by_pc.entry(u.pc).or_default().push(u.mem_addr);
        }
        assert!(!by_pc.is_empty(), "libquantum must stream");
        let mut checked = 0;
        for addrs in by_pc.values().filter(|a| a.len() > 10) {
            let advancing = addrs
                .windows(2)
                .filter(|w| w[1] > w[0] && w[1] - w[0] <= 64)
                .count();
            assert!(
                advancing as f64 / addrs.len() as f64 > 0.8,
                "per-instruction stream cursors must advance monotonically"
            );
            checked += 1;
        }
        assert!(checked > 0, "at least one hot stream instruction");
    }

    #[test]
    fn wider_isa_increases_working_set() {
        let spec = all_phases()
            .into_iter()
            .find(|p| p.benchmark == "mcf")
            .unwrap();
        let ir = generate(&spec);
        let opts = CompileOptions::default();
        let c32 = compile(&ir, &"x86-16D-32W".parse().unwrap(), &opts).unwrap();
        let c64 = compile(&ir, &"x86-16D-64W".parse().unwrap(), &opts).unwrap();
        let t32 = TraceGenerator::new(&c32, &spec, TraceParams::default());
        let t64 = TraceGenerator::new(&c64, &spec, TraceParams::default());
        assert!(
            t64.ws_bytes > t32.ws_bytes,
            "fat pointers expand the working set"
        );
    }

    #[test]
    fn only_sse_cores_see_packed_ops() {
        let (t, _) = trace_for("lbm", FeatureSet::x86_64(), 40_000);
        assert!(
            t.iter().any(|u| u.kind == MicroOpKind::VecAlu),
            "lbm's vectorized loops must emit packed ops on x86"
        );
        let (ts, _) = trace_for("lbm", "microx86-16D-32W".parse().unwrap(), 40_000);
        assert!(
            ts.iter().all(|u| u.kind != MicroOpKind::VecAlu),
            "scalar cores never see packed ops"
        );
    }
}
