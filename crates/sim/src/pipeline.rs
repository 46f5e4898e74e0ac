//! Trace-driven cycle-accounting pipeline models (in-order and
//! out-of-order), standing in for gem5.
//!
//! The model is a dataflow timing simulation: every micro-op gets a
//! frontend-entry cycle (fetch/decode bandwidth, micro-op cache,
//! I-cache bubbles, post-misprediction redirect stalls), an issue cycle
//! (operand readiness through a register-ready table — implicit
//! renaming — plus functional-unit and LSQ availability and, for
//! in-order cores, program-order issue), and a completion cycle (ALU
//! latency, cache hierarchy latency, store-to-load forwarding). ROB and
//! IQ capacities throttle dispatch; commit retires in order at the core
//! width. Branch direction comes from a real predictor; mispredictions
//! stall fetch until the branch resolves plus a frontend refill.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

use cisa_decode::{DecodeFrontend, DecodeStats, DecoderConfig, MacroRecord, SupplySource};
use cisa_isa::uop::{MicroOp, MicroOpKind, UopClass};
use cisa_workloads::TraceArena;

use crate::cache::Hierarchy;
use crate::config::{CoreConfig, ExecSemantics};

/// Multiplicative hasher for the store-forwarding map. Keys are cache
/// line addresses produced by the trace generator, so SipHash's
/// flooding resistance buys nothing here; hashing dominates the map's
/// per-memory-op cost in the simulate hot loop. The hash function does
/// not affect any observable `HashMap` behavior (insert/get/len/clear
/// are value-exact regardless of hasher), so results are unchanged.
#[derive(Default)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        // Fibonacci multiply: spreads line-address patterns across all
        // bits with a single instruction.
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type LineMap = HashMap<u64, u64, BuildHasherDefault<LineHasher>>;

/// Activity counters consumed by the power model.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Activity {
    /// Micro-ops committed.
    pub uops: u64,
    /// Macro-ops fetched.
    pub macro_ops: u64,
    /// Micro-op cache hits / misses (macro-op granularity).
    pub uopc_hits: u64,
    /// Micro-op cache misses.
    pub uopc_misses: u64,
    /// Bytes through the instruction-length decoder.
    pub ild_bytes: u64,
    /// Simple/complex/MSROM decode events.
    pub decodes: u64,
    /// Branch-predictor lookups.
    pub bp_lookups: u64,
    /// Mispredictions.
    pub bp_mispredicts: u64,
    /// Integer ALU operations executed.
    pub int_ops: u64,
    /// Integer multiplies.
    pub mul_ops: u64,
    /// Scalar FP operations.
    pub fp_ops: u64,
    /// Packed SIMD operations.
    pub vec_ops: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Loads satisfied by store-to-load forwarding.
    pub forwards: u64,
    /// L1D accesses / misses.
    pub l1d_accesses: u64,
    /// L1D misses.
    pub l1d_misses: u64,
    /// L2 accesses / misses.
    pub l2_accesses: u64,
    /// L2 misses (memory accesses).
    pub l2_misses: u64,
    /// L1I misses.
    pub l1i_misses: u64,
    /// Register-file reads.
    pub regfile_reads: u64,
    /// Register-file writes.
    pub regfile_writes: u64,
    /// Macro-fused pairs.
    pub fused_pairs: u64,
}

/// Per-component stall-cycle attribution for one simulated run.
///
/// This is the **canonical** stall accounting: each stalled cycle is
/// attributed to exactly one component at the point where the pipeline
/// model applies the stall, so the components never overlap and any
/// aggregate is a plain sum of them rather than a separately
/// maintained field — there is no second copy to drift out of sync.
/// The accounting is purely observational: it reads the same quantities
/// the timing model already computes and never feeds back into cycle
/// counts, so `cycles` (and every cached probe result) is bit-identical
/// with or without it.
///
/// A frontend gap raised by both an I-cache bubble and a branch
/// redirect is attributed wholly to whichever cause set the final
/// (largest) stall target, matching how the model applies a single
/// merged stall.
///
/// Units: the frontend components count **fetch-cursor cycles** (each
/// applied gap advances the fetch cycle by that amount, so their sum is
/// bounded by the run length); the dispatch components count **per-uop
/// wait cycles** (each uop's own delay waiting for a ROB/IQ/LSQ slot —
/// waits overlap across in-flight uops, so their sum can exceed the
/// elapsed cycle count on a badly backpressured core).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// Fetch cycles lost to instruction-cache fill bubbles.
    pub frontend_icache: u64,
    /// Fetch cycles lost to post-misprediction redirect refill.
    pub frontend_redirect: u64,
    /// Per-uop wait cycles for a ROB entry at dispatch.
    pub dispatch_rob: u64,
    /// Per-uop wait cycles for an issue-queue entry at dispatch.
    pub dispatch_iq: u64,
    /// Per-uop wait cycles for a load/store-queue entry at dispatch.
    pub dispatch_lsq: u64,
}

/// Result of simulating one trace on one core.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Total cycles.
    pub cycles: u64,
    /// Activity counters.
    pub activity: Activity,
    /// Per-component stall attribution (observational; see
    /// [`StallBreakdown`]).
    pub stalls: StallBreakdown,
}

impl SimResult {
    /// Committed micro-ops per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.activity.uops as f64 / self.cycles as f64
        }
    }
}

/// Frontend refill penalty after a redirect (decode pipeline depth).
///
/// Public so the interval model in `cisa-explore` can derive its
/// redirect stall constant from the simulator's charge instead of
/// duplicating the value by comment.
pub const REDIRECT_REFILL: u64 = 14;
/// Extra refill when the redirect target misses the micro-op cache.
///
/// Public for the same single-sourcing reason as [`REDIRECT_REFILL`];
/// the analytic model charges half of it (average over uop-cache
/// hit/miss redirect targets).
pub const REDIRECT_DECODE_EXTRA: u64 = 4;

struct FuPool {
    free: Vec<u64>,
}

impl FuPool {
    fn new(n: u32) -> Self {
        FuPool {
            free: vec![0; n.max(1) as usize],
        }
    }

    /// Earliest cycle a unit is free at or after `t`; books the unit.
    fn acquire(&mut self, t: u64, busy: u64) -> u64 {
        let (idx, &earliest) = self
            .free
            .iter()
            .enumerate()
            .min_by_key(|(_, &f)| f)
            .expect("pool non-empty");
        let start = t.max(earliest);
        self.free[idx] = start + busy;
        start
    }
}

/// The issue and load/store queues' occupancy: the issue (IQ) or
/// completion (LSQ) cycle of every queued micro-op, of which dispatch
/// only ever asks for the earliest.
///
/// A power-of-two ring kept in ascending order: the minimum is the
/// head, and a push walks in from the tail past the larger keys. That
/// is the same multiset a min-heap holds, asked the same question, so
/// the answers are identical. It is cheaper because keys arrive almost
/// sorted. Once a queue has filled, every micro-op that enters it pops
/// first, and the key it pushes exceeds the one it popped: its issue
/// cycle is at least `entry + 1`, past the minimum dispatch waited
/// for, and a completion follows its issue. On the probe's calibration
/// cores a push moves under one queued key on average.
struct MinRing {
    keys: Vec<u64>,
    head: usize,
    len: usize,
}

impl MinRing {
    /// A queue for at most `cap` keys.
    fn with_capacity(cap: usize) -> Self {
        MinRing {
            keys: vec![0; cap.next_power_of_two()],
            head: 0,
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn push(&mut self, key: u64) {
        let mask = self.keys.len() - 1;
        assert!(self.len <= mask, "queue over capacity");
        let mut at = self.len;
        while at > 0 {
            let prev = self.keys[(self.head + at - 1) & mask];
            if prev <= key {
                break;
            }
            self.keys[(self.head + at) & mask] = prev;
            at -= 1;
        }
        self.keys[(self.head + at) & mask] = key;
        self.len += 1;
    }

    /// Removes and returns the smallest key, if any.
    #[inline]
    fn pop_min(&mut self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let key = self.keys[self.head];
        self.head = (self.head + 1) & (self.keys.len() - 1);
        self.len -= 1;
        Some(key)
    }
}

/// # Example
///
/// ```
/// use cisa_compiler::{compile, CompileOptions};
/// use cisa_isa::FeatureSet;
/// use cisa_sim::{simulate, CoreConfig};
/// use cisa_workloads::{all_phases, generate, TraceArena, TraceParams};
///
/// let spec = &all_phases()[0];
/// let fs = FeatureSet::x86_64();
/// let code = compile(&generate(spec), &fs, &CompileOptions::default())?;
/// let trace = TraceArena::build(&code, spec, TraceParams { max_uops: 2000, seed: 1 });
/// let result = simulate(&CoreConfig::reference(fs), &trace);
/// assert!(result.ipc() > 0.0);
/// # Ok::<(), cisa_compiler::CompileError>(())
/// ```
/// Simulates a core over a micro-op trace.
pub fn simulate(cfg: &CoreConfig, trace: &TraceArena) -> SimResult {
    simulate_with_prefetcher(cfg, trace, false)
}

/// A decode-supply stream captured once and replayed into one or more
/// simulations.
///
/// The decode frontend is a *functional* state machine: which supply
/// path serves each macro-op depends only on the macro-op sequence,
/// never on pipeline timing. A simulation can therefore walk the
/// frontend over the whole trace first and replay its decisions, and
/// cores that share a decoder configuration see the identical
/// supply-source stream for the same trace: simulating several such
/// cores (the probe's calibration trio in `cisa-explore`) pays the
/// micro-op cache walk once instead of once per core.
#[derive(Debug, Clone)]
pub struct SupplyTrace {
    decoder: DecoderConfig,
    sources: Vec<SupplySource>,
    stats: DecodeStats,
}

impl SupplyTrace {
    /// Runs a live [`DecodeFrontend`] over the arena's macro-op stream
    /// and records the supply source of every macro-op plus the final
    /// activity counters.
    pub fn capture(decoder: DecoderConfig, arena: &TraceArena) -> Self {
        let mut fe = DecodeFrontend::new(decoder);
        let (kinds, dsts, pcs) = (arena.kinds(), arena.dsts(), arena.pcs());
        let (lens, macro_uops) = (arena.lens(), arena.macro_uop_counts());
        let mut sources = Vec::new();
        for i in (0..arena.len()).filter(|&i| arena.is_first(i)) {
            let rec = MacroRecord {
                pc: pcs[i],
                len: lens[i],
                uops: macro_uops[i],
                fusible_cmp: kinds[i] == MicroOpKind::IntAlu && dsts[i] != MicroOp::NO_REG,
                is_branch: kinds[i] == MicroOpKind::Branch,
            };
            sources.push(fe.supply(&rec).0);
        }
        SupplyTrace {
            decoder,
            sources,
            stats: *fe.stats(),
        }
    }

    /// Supply source per macro-op, in fetch order.
    pub fn sources(&self) -> &[SupplySource] {
        &self.sources
    }

    /// Frontend activity counters for the whole stream.
    pub fn stats(&self) -> &DecodeStats {
        &self.stats
    }
}

/// Simulates each core over the same arena, sharing one captured
/// decode-supply stream across all of them. Every config must use the
/// decoder configuration the trace was captured with (asserted);
/// results are bit-identical to independent [`simulate`] calls, minus
/// the redundant frontend work.
pub fn simulate_shared_frontend(
    cfgs: &[CoreConfig],
    arena: &TraceArena,
    supply: &SupplyTrace,
) -> Vec<SimResult> {
    cfgs.iter()
        .map(|cfg| run_pipeline(cfg, arena, supply, false))
        .collect()
}

/// [`simulate`] with an optional L1D stream prefetcher (the prefetcher
/// ablation; Table I has no prefetcher dimension, so the default
/// simulations leave it off).
pub fn simulate_with_prefetcher(cfg: &CoreConfig, trace: &TraceArena, prefetch: bool) -> SimResult {
    let decoder = DecoderConfig::for_complexity(cfg.fs.complexity());
    run_pipeline(cfg, trace, &SupplyTrace::capture(decoder, trace), prefetch)
}

/// The pipeline timing loop over the arena's columns, replaying the
/// captured decode-supply decision of every macro-op.
fn run_pipeline(
    cfg: &CoreConfig,
    trace: &TraceArena,
    supply: &SupplyTrace,
    prefetch: bool,
) -> SimResult {
    let decoder = DecoderConfig::for_complexity(cfg.fs.complexity());
    assert_eq!(
        decoder, supply.decoder,
        "supply trace was captured under a different decoder configuration"
    );
    let l2_ways = if cfg.l2_kb >= 2048 { 8 } else { 4 };
    let mut hier = Hierarchy::new(
        cfg.l1_kb as u64 * 1024,
        cfg.l1_kb as u64 * 1024,
        4,
        cfg.l2_kb as u64 * 1024,
        l2_ways,
    );
    if prefetch {
        hier = hier.with_prefetcher(4);
    }
    let mut bp = cfg.predictor.build();

    let ooo = cfg.sem == ExecSemantics::OutOfOrder;
    let width = cfg.width as u64;
    let decode_width = decoder.decode_width() as u64;
    let rob_cap = if ooo {
        cfg.window.rob as usize
    } else {
        cfg.width as usize * 2
    };
    let iq_cap = if ooo {
        cfg.window.iq as usize
    } else {
        cfg.width as usize * 2
    };
    let lsq_cap = cfg.lsq as usize;

    let mut int_pool = FuPool::new(cfg.int_alu);
    let mut mul_pool = FuPool::new((cfg.int_alu / 3).max(1));
    let mut fp_pool = FuPool::new(cfg.fp_alu);
    let mut mem_pool = FuPool::new(2);

    let mut reg_ready = [0u64; 256];
    let mut rob: VecDeque<u64> = VecDeque::with_capacity(rob_cap); // commit times
    let mut iq = MinRing::with_capacity(iq_cap); // issue times
    let mut lsq = MinRing::with_capacity(lsq_cap); // completion times

    // Pre-size past the 4096-entry clear threshold below so the map
    // never rehash-grows mid-simulation.
    let mut store_fwd = LineMap::with_capacity_and_hasher(8192, Default::default());

    // Frontend cursor.
    let mut fetch_cycle = 0u64;
    let mut fetch_uops_this_cycle = 0u64;
    let mut fetch_stall_until = 0u64;
    let mut cur_macro_capacity = width;

    // In-order issue cursor.
    let mut last_issue_cycle = 0u64;
    let mut issued_this_cycle = 0u64;

    // Commit cursor.
    let mut commit_cycle = 0u64;
    let mut committed_this_cycle = 0u64;

    let mut act = Activity::default();
    let mut stalls = StallBreakdown::default();
    // Cause of the current `fetch_stall_until` target: true when the
    // largest pending stall came from a branch redirect, false when it
    // came from an I-cache bubble.
    let mut stall_is_redirect = false;
    let mut last_completion = 0u64;

    // Every column re-sliced to the trace length, so the indexed reads
    // below need no bounds checks.
    let n = trace.len();
    let kinds = &trace.kinds()[..n];
    let (dsts, src1s) = (&trace.dsts()[..n], &trace.src1s()[..n]);
    let (src2s, preds) = (&trace.src2s()[..n], &trace.preds()[..n]);
    let (pcs, mem_addrs) = (&trace.pcs()[..n], &trace.mem_addrs()[..n]);
    let mut sources = supply.sources.iter();

    for i in 0..n {
        let kind = kinds[i];
        let pc = pcs[i];
        // ---------------- frontend ----------------
        if trace.is_first(i) {
            act.macro_ops += 1;
            match sources.next().expect("one supply source per macro-op") {
                SupplySource::UopCache => {
                    cur_macro_capacity = width;
                }
                _ => {
                    act.decodes += 1;
                    cur_macro_capacity = width.min(decode_width);
                    // Instruction bytes must come from the I-cache.
                    let bubble = hier.inst_access(pc) as u64;
                    if bubble > 0 && fetch_cycle + bubble > fetch_stall_until {
                        fetch_stall_until = fetch_cycle + bubble;
                        stall_is_redirect = false;
                    }
                }
            }
        }

        if fetch_cycle < fetch_stall_until {
            let gap = fetch_stall_until - fetch_cycle;
            if stall_is_redirect {
                stalls.frontend_redirect += gap;
            } else {
                stalls.frontend_icache += gap;
            }
            fetch_cycle = fetch_stall_until;
            fetch_uops_this_cycle = 0;
        }
        if fetch_uops_this_cycle >= width.min(cur_macro_capacity.max(1)) {
            fetch_cycle += 1;
            fetch_uops_this_cycle = 0;
        }
        fetch_uops_this_cycle += 1;
        let mut entry = fetch_cycle;

        // ---------------- dispatch throttles ----------------
        // Each throttle charges only the *incremental* delay past the
        // previous one, so the three components sum exactly to the
        // total dispatch delay (entry - fetch_cycle).
        if rob.len() >= rob_cap {
            let head = rob.pop_front().expect("rob non-empty");
            stalls.dispatch_rob += head.saturating_sub(entry);
            entry = entry.max(head);
        }
        if iq.len() >= iq_cap {
            let earliest_issue = iq.pop_min().expect("iq non-empty");
            stalls.dispatch_iq += earliest_issue.saturating_sub(entry);
            entry = entry.max(earliest_issue);
        }
        let is_mem = kind.is_mem();
        if is_mem && lsq.len() >= lsq_cap {
            let earliest_done = lsq.pop_min().expect("lsq non-empty");
            stalls.dispatch_lsq += earliest_done.saturating_sub(entry);
            entry = entry.max(earliest_done);
        }

        // ---------------- issue ----------------
        let mut ready = entry + 1;
        for src in [src1s[i], src2s[i], preds[i]] {
            if src != MicroOp::NO_REG {
                ready = ready.max(reg_ready[src as usize]);
                act.regfile_reads += 1;
            }
        }
        if !ooo {
            // Program-order issue with width slots per cycle.
            if ready > last_issue_cycle {
                issued_this_cycle = 0;
            } else {
                ready = last_issue_cycle;
                if issued_this_cycle >= width {
                    ready += 1;
                    issued_this_cycle = 0;
                }
            }
        }

        let issue = match kind.class() {
            UopClass::Int => int_pool.acquire(ready, 1),
            UopClass::IntMul => mul_pool.acquire(ready, 2),
            UopClass::Fp | UopClass::Vec => {
                fp_pool.acquire(ready, if kind == MicroOpKind::FpMul { 2 } else { 1 })
            }
            UopClass::Mem => mem_pool.acquire(ready, 1),
        };
        if !ooo {
            if issue > last_issue_cycle {
                last_issue_cycle = issue;
                issued_this_cycle = 1;
            } else {
                issued_this_cycle += 1;
            }
        }

        // ---------------- execute / complete ----------------
        let completion = match kind {
            MicroOpKind::Load => {
                act.loads += 1;
                let addr = mem_addrs[i];
                let line = addr & !7;
                if let Some(&st_done) = store_fwd.get(&line) {
                    if st_done + 32 > issue {
                        act.forwards += 1;
                        issue.max(st_done) + 1
                    } else {
                        issue + 3 + hier.data_access(addr) as u64
                    }
                } else {
                    issue + 3 + hier.data_access(addr) as u64
                }
            }
            MicroOpKind::Store => {
                act.stores += 1;
                let addr = mem_addrs[i];
                store_fwd.insert(addr & !7, issue + 1);
                if store_fwd.len() > 4096 {
                    store_fwd.clear(); // bound the forwarding window
                }
                hier.data_access(addr);
                issue + 1
            }
            MicroOpKind::Branch => {
                act.bp_lookups += 1;
                let taken = trace.is_taken(i);
                let predicted = bp.predict(pc);
                bp.update(pc, taken);
                let done = issue + 1;
                if predicted != taken {
                    act.bp_mispredicts += 1;
                    let until = done + REDIRECT_REFILL + REDIRECT_DECODE_EXTRA / 2;
                    if until > fetch_stall_until {
                        fetch_stall_until = until;
                        stall_is_redirect = true;
                    }
                }
                done
            }
            MicroOpKind::Jump => issue + 1,
            MicroOpKind::IntMul => {
                act.mul_ops += 1;
                issue + kind.latency() as u64
            }
            MicroOpKind::FpAlu | MicroOpKind::FpMul => {
                act.fp_ops += 1;
                issue + kind.latency() as u64
            }
            MicroOpKind::VecAlu => {
                act.vec_ops += 1;
                issue + kind.latency() as u64
            }
            _ => {
                act.int_ops += 1;
                issue + 1
            }
        };
        if matches!(kind, MicroOpKind::Branch | MicroOpKind::Jump) {
            act.int_ops += 1; // resolved on an integer port
        }

        let dst = dsts[i];
        if dst != MicroOp::NO_REG {
            reg_ready[dst as usize] = completion;
            act.regfile_writes += 1;
        }
        act.uops += 1;
        last_completion = last_completion.max(completion);

        // ---------------- commit ----------------
        let commit_ready = completion.max(commit_cycle);
        if commit_ready > commit_cycle {
            commit_cycle = commit_ready;
            committed_this_cycle = 1;
        } else {
            committed_this_cycle += 1;
            if committed_this_cycle > width {
                commit_cycle += 1;
                committed_this_cycle = 1;
            }
        }
        rob.push_back(commit_cycle);
        debug_assert!(
            rob.len() <= rob_cap,
            "dispatch capped the ROB before the push"
        );
        iq.push(issue);
        if is_mem {
            lsq.push(completion);
        }
    }

    // Fold decode/cache stats into the activity record.
    let d = supply.stats;
    act.uopc_hits = d.uop_cache_hits;
    act.uopc_misses = d.uop_cache_misses;
    act.ild_bytes = d.ild_bytes;
    act.fused_pairs = d.fused_pairs;
    act.l1d_accesses = hier.l1d.accesses;
    act.l1d_misses = hier.l1d.misses;
    act.l2_accesses = hier.l2.accesses;
    act.l2_misses = hier.l2.misses;
    act.l1i_misses = hier.l1i.misses;

    let cycles = commit_cycle.max(last_completion).max(1);
    cisa_obs::counter("sim/runs", 1);
    cisa_obs::counter("sim/cycles", cycles);
    cisa_obs::counter("sim/uops", act.uops);
    cisa_obs::counter("sim/stall/frontend_icache", stalls.frontend_icache);
    cisa_obs::counter("sim/stall/frontend_redirect", stalls.frontend_redirect);
    cisa_obs::counter("sim/stall/dispatch_rob", stalls.dispatch_rob);
    cisa_obs::counter("sim/stall/dispatch_iq", stalls.dispatch_iq);
    cisa_obs::counter("sim/stall/dispatch_lsq", stalls.dispatch_lsq);

    SimResult {
        cycles,
        activity: act,
        stalls,
    }
}

#[cfg(test)]
impl StallBreakdown {
    /// Frontend stall cycles (I-cache + redirect).
    pub(crate) fn frontend_total(&self) -> u64 {
        self.frontend_icache + self.frontend_redirect
    }

    /// Dispatch (backpressure) stall cycles (ROB + IQ + LSQ).
    pub(crate) fn dispatch_total(&self) -> u64 {
        self.dispatch_rob + self.dispatch_iq + self.dispatch_lsq
    }

    /// All attributed stall cycles.
    pub(crate) fn total(&self) -> u64 {
        self.frontend_total() + self.dispatch_total()
    }
}

#[cfg(test)]
impl SimResult {
    /// Mispredictions per kilo-uop.
    pub(crate) fn mpku(&self) -> f64 {
        if self.activity.uops == 0 {
            0.0
        } else {
            1000.0 * self.activity.bp_mispredicts as f64 / self.activity.uops as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cisa_compiler::{compile, CompileOptions};
    use cisa_isa::FeatureSet;
    use cisa_workloads::{all_phases, generate, PhaseSpec, TraceParams};

    fn phase(bench: &str) -> PhaseSpec {
        all_phases()
            .into_iter()
            .find(|p| p.benchmark == bench)
            .unwrap()
    }

    fn run(bench: &str, cfg: &CoreConfig, n: usize) -> SimResult {
        let spec = phase(bench);
        let code = compile(&generate(&spec), &cfg.fs, &CompileOptions::default()).unwrap();
        let trace = TraceArena::build(
            &code,
            &spec,
            TraceParams {
                max_uops: n,
                seed: 7,
            },
        );
        simulate(cfg, &trace)
    }

    #[test]
    fn shared_frontend_is_bit_identical_to_independent_sims() {
        for (bench, fs) in [
            ("mcf", FeatureSet::x86_64()),
            ("hmmer", "microx86-16D-32W".parse::<FeatureSet>().unwrap()),
        ] {
            let spec = phase(bench);
            let code = compile(&generate(&spec), &fs, &CompileOptions::default()).unwrap();
            let params = TraceParams {
                max_uops: 20_000,
                seed: 0xBEEF,
            };
            let arena = TraceArena::build(&code, &spec, params);
            // Three configs sharing a decoder but differing in
            // semantics, width, and window — the calibration shape.
            let base = CoreConfig::reference(fs);
            let cfgs = [
                base,
                CoreConfig { width: 4, ..base },
                CoreConfig {
                    sem: ExecSemantics::InOrder,
                    ..base
                },
            ];
            let supply =
                SupplyTrace::capture(DecoderConfig::for_complexity(fs.complexity()), &arena);
            let shared = simulate_shared_frontend(&cfgs, &arena, &supply);
            for (cfg, shared) in cfgs.iter().zip(&shared) {
                let independent = simulate(cfg, &arena);
                assert_eq!(*shared, independent, "{bench} {:?}", cfg.sem);
            }
        }
    }

    #[test]
    fn min_ring_pops_what_a_min_heap_pops() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for cap in [1usize, 3, 8, 40, 97] {
            let mut ring = MinRing::with_capacity(cap);
            let mut heap = BinaryHeap::new();
            let mut popped = 0;
            for _ in 0..50_000 {
                let r = next();
                // Few distinct keys, so equal keys are common.
                if ring.len() < cap && r % 3 != 0 {
                    let key = (r >> 8) % 64;
                    ring.push(key);
                    heap.push(Reverse(key));
                } else {
                    assert_eq!(ring.pop_min(), heap.pop().map(|Reverse(k)| k), "cap {cap}");
                    popped += 1;
                }
                assert_eq!(ring.len(), heap.len());
            }
            assert!(popped > 1000, "cap {cap}: {popped} pops");
        }
    }

    #[test]
    fn ipc_is_within_physical_bounds() {
        for bench in ["bzip2", "mcf", "lbm", "sjeng"] {
            let cfg = CoreConfig::reference(FeatureSet::x86_64());
            let r = run(bench, &cfg, 30_000);
            let ipc = r.ipc();
            assert!(
                ipc > 0.05 && ipc <= cfg.width as f64 + 1e-9,
                "{bench}: ipc {ipc}"
            );
        }
    }

    #[test]
    fn big_core_beats_little_core() {
        for bench in ["bzip2", "hmmer", "lbm"] {
            let big = run(bench, &CoreConfig::big(FeatureSet::x86_64()), 30_000);
            let little = run(bench, &CoreConfig::little(FeatureSet::x86_64()), 30_000);
            assert!(
                big.ipc() > little.ipc() * 1.15,
                "{bench}: big {} vs little {}",
                big.ipc(),
                little.ipc()
            );
        }
    }

    #[test]
    fn ooo_beats_inorder_at_same_width() {
        let mut io = CoreConfig::reference(FeatureSet::x86_64());
        io.sem = ExecSemantics::InOrder;
        let ooo = CoreConfig::reference(FeatureSet::x86_64());
        for bench in ["mcf", "bzip2"] {
            let a = run(bench, &ooo, 30_000);
            let b = run(bench, &io, 30_000);
            assert!(
                a.ipc() > b.ipc(),
                "{bench}: ooo {} vs inorder {}",
                a.ipc(),
                b.ipc()
            );
        }
    }

    #[test]
    fn mcf_is_memory_bound() {
        let cfg = CoreConfig::reference(FeatureSet::x86_64());
        let mcf = run("mcf", &cfg, 30_000);
        let bzip = run("bzip2", &cfg, 30_000);
        assert!(
            mcf.ipc() < bzip.ipc(),
            "mcf {} vs bzip2 {}",
            mcf.ipc(),
            bzip.ipc()
        );
        assert!(
            mcf.activity.l2_misses > bzip.activity.l2_misses,
            "mcf must miss L2 more"
        );
    }

    #[test]
    fn branchy_code_mispredicts_more() {
        let cfg = CoreConfig::reference(FeatureSet::x86_64());
        let sjeng = run("sjeng", &cfg, 30_000);
        let lbm = run("lbm", &cfg, 30_000);
        assert!(
            sjeng.mpku() > lbm.mpku() * 2.0,
            "sjeng {} vs lbm {}",
            sjeng.mpku(),
            lbm.mpku()
        );
    }

    #[test]
    fn bigger_l1_helps_memory_bound_code() {
        let mut small = CoreConfig::reference(FeatureSet::x86_64());
        small.l1_kb = 32;
        let mut big = small;
        big.l1_kb = 64;
        let a = run("bzip2", &small, 40_000);
        let b = run("bzip2", &big, 40_000);
        assert!(
            b.activity.l1d_misses <= a.activity.l1d_misses,
            "bigger L1 cannot miss more"
        );
    }

    #[test]
    fn spill_heavy_code_forwards_stores() {
        // hmmer at depth 8 spills: refills should hit the forwarding
        // path often.
        let cfg = CoreConfig::reference("x86-16D-64W".parse().unwrap());
        let spec = phase("hmmer");
        let code = compile(
            &generate(&spec),
            &"microx86-8D-32W".parse().unwrap(),
            &CompileOptions::default(),
        )
        .unwrap();
        let trace = TraceArena::build(&code, &spec, TraceParams::default());
        let mut c2 = cfg;
        c2.fs = "microx86-8D-32W".parse().unwrap();
        let r = simulate(&c2, &trace);
        assert!(r.activity.forwards > 0, "spill refills should forward");
    }

    #[test]
    fn deterministic_simulation() {
        let cfg = CoreConfig::reference(FeatureSet::x86_64());
        let a = run("milc", &cfg, 10_000);
        let b = run("milc", &cfg, 10_000);
        assert_eq!(a, b);
    }

    #[test]
    fn total_stall_cycles_are_conserved() {
        // The aggregate views are derived sums of the per-component
        // fields (one canonical accounting), every component shows up
        // where the microarchitecture says it must.
        let little = run("mcf", &CoreConfig::little(FeatureSet::x86_64()), 30_000);
        let s = little.stalls;
        assert_eq!(s.frontend_total(), s.frontend_icache + s.frontend_redirect);
        assert_eq!(
            s.dispatch_total(),
            s.dispatch_rob + s.dispatch_iq + s.dispatch_lsq
        );
        assert_eq!(s.total(), s.frontend_total() + s.dispatch_total());
        assert!(
            s.frontend_redirect > 0,
            "mcf mispredicts must cost redirect stalls: {s:?}"
        );
        assert!(
            s.dispatch_total() > 0,
            "a little core must see backpressure on mcf: {s:?}"
        );
        assert!(
            s.frontend_total() <= little.cycles,
            "frontend gaps advance the fetch cursor, so their sum is \
             bounded by the run length: {s:?} vs {} cycles",
            little.cycles
        );
    }

    #[test]
    fn uop_cache_hits_dominate_hot_loops() {
        let cfg = CoreConfig::reference(FeatureSet::x86_64());
        let r = run("libquantum", &cfg, 30_000);
        let hit_rate = r.activity.uopc_hits as f64
            / (r.activity.uopc_hits + r.activity.uopc_misses).max(1) as f64;
        assert!(hit_rate > 0.7, "hot-loop uop cache hit rate {hit_rate}");
    }
}
