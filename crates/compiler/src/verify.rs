//! Staged static verification of the compile pipeline — the repo's
//! analogue of LLVM's MachineVerifier.
//!
//! The paper's argument rests on one invariant: code compiled for a
//! composite feature set contains only instructions that feature set can
//! execute. Nothing in the pipeline is trusted to uphold that on its
//! own; instead a rule-based checker runs after each phase:
//!
//! 1. [`verify_ir`] — IR/CFG well-formedness (operands in range,
//!    terminator discipline, def-before-use over a forward may-reach
//!    dataflow, double defs, unreachable blocks carrying weight),
//! 2. [`verify_predication`] — post-if-conversion predication legality
//!    (guards never clobbered or self-defined inside a predicated run),
//! 3. [`verify_isel`] — post-selection operand shape per opcode, the
//!    microx86 load-compute-store split, SIMD/width legality,
//! 4. [`verify_regalloc`] — no two overlapping live intervals share a
//!    register, spill-slot shape and store/refill pairing, register
//!    depth, spill statistics consistency,
//! 5. [`verify_encoding`] — every emitted instruction legal under the
//!    target feature set and the encoded stream decoding back
//!    bit-identically.
//!
//! Violations are collected as structured [`VerifyError`] diagnostics,
//! never panics. The driver runs the whole ladder behind a
//! [`VerifyLevel`] knob: `Full` by default in debug builds and tests,
//! `Off` in release so the sweep hot path pays nothing. Every rule name
//! in [`RULES`] has a dedicated firing test in `cisa-migrate`'s
//! mutation suite.

use std::collections::HashMap;
use std::fmt;

use cisa_isa::inst::{MacroOpcode, MemRole};
use cisa_isa::{
    AddressingMode, Complexity, Encoder, FeatureSet, InstLengthDecoder, MachineInst, MemLocality,
    Predication, RegisterWidth, SimdSupport,
};

use crate::code::{terminator_inst, CompiledCode};
use crate::ir::{IrFunction, Terminator, VReg};
use crate::isel::{VFunction, VOp};
use crate::regalloc::{stack_pointer, AllocFunction};

/// Which pipeline stage a diagnostic belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VerifyPass {
    /// IR/CFG well-formedness (input IR and post-if-conversion IR).
    Ir,
    /// Predication legality after if-conversion.
    IfConvert,
    /// Operand legality after instruction selection.
    Isel,
    /// Post-register-allocation checks.
    RegAlloc,
    /// Feature-set legality + encode/decode round-trip of final code.
    Encoding,
    /// Migration safety (downgrade emulation), checked in
    /// `cisa_migrate::verify`.
    Migration,
}

impl fmt::Display for VerifyPass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            VerifyPass::Ir => "ir",
            VerifyPass::IfConvert => "ifconvert",
            VerifyPass::Isel => "isel",
            VerifyPass::RegAlloc => "regalloc",
            VerifyPass::Encoding => "encoding",
            VerifyPass::Migration => "migration",
        })
    }
}

/// One structured verification diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Stage that found the violation.
    pub pass: VerifyPass,
    /// Function under verification.
    pub function: String,
    /// Block index, when the violation is block-local.
    pub block: Option<usize>,
    /// Instruction index within the block, when instruction-local.
    pub inst_index: Option<usize>,
    /// Stable rule name (one of [`RULES`], or a migration rule).
    pub rule: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.pass, self.function)?;
        if let Some(b) = self.block {
            write!(f, " bb{b}")?;
        }
        if let Some(i) = self.inst_index {
            write!(f, " #{i}")?;
        }
        write!(f, ": {} — {}", self.rule, self.detail)
    }
}

/// How much verification the driver runs per compile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyLevel {
    /// No verification (the release sweep hot path).
    Off,
    /// Every pass after every stage.
    Full,
}

impl Default for VerifyLevel {
    /// `Full` in debug builds and tests, `Off` in release.
    fn default() -> Self {
        if cfg!(debug_assertions) {
            VerifyLevel::Full
        } else {
            VerifyLevel::Off
        }
    }
}

impl VerifyLevel {
    /// Whether any verification runs.
    pub fn enabled(self) -> bool {
        self == VerifyLevel::Full
    }
}

/// Every rule the compiler-side passes can fire. The `cisa-migrate`
/// mutation suite asserts each one fires on a crafted violation.
pub const RULES: &[&str] = &[
    // verify_ir
    "empty-function",
    "terminator-target-out-of-range",
    "operand-out-of-range",
    "negative-block-weight",
    "mem-op-missing-addr",
    "no-reachable-ret",
    "use-before-def",
    "double-def",
    "unreachable-weighted-block",
    // verify_predication
    "predicated-op-under-partial-predication",
    "predicated-def-of-own-guard",
    "predicate-guard-redefined-in-run",
    // verify_isel
    "vreg-out-of-range",
    "control-opcode-in-block",
    "load-store-shape",
    "mem-role-inconsistent",
    "unsplit-mem-op-under-microx86",
    "vector-op-without-simd",
    "vector-op-outside-vectorized-block",
    "wide-op-on-32bit-target",
    "predicate-under-partial-predication",
    // verify_regalloc
    "register-beyond-depth",
    "overlapping-intervals-share-register",
    "spill-slot-shape",
    "spill-store-unpaired",
    "refill-load-unused",
    "regalloc-stats-mismatch",
    // verify_encoding
    "illegal-instruction-for-feature-set",
    "encode-failed",
    "stream-decode-error",
    "stream-roundtrip-mismatch",
    "block-bytes-mismatch",
    "stats-code-bytes-mismatch",
];

fn err(
    pass: VerifyPass,
    function: &str,
    block: Option<usize>,
    inst_index: Option<usize>,
    rule: &'static str,
    detail: String,
) -> VerifyError {
    VerifyError {
        pass,
        function: function.to_string(),
        block,
        inst_index,
        rule,
        detail,
    }
}

/// Pass 1: IR/CFG well-formedness.
///
/// Structural rules run first and short-circuit the dataflow rules, so a
/// function with out-of-range operands never indexes out of bounds here.
/// The IR is not SSA: virtual registers with no definition anywhere are
/// implicit parameters (exempt from def-before-use), and a use is
/// accepted if a definition MAY reach it along some path — including
/// loop back edges, which carry latch definitions to the loop header.
pub fn verify_ir(func: &IrFunction) -> Vec<VerifyError> {
    let p = VerifyPass::Ir;
    let name = func.name.as_str();
    let mut errors = Vec::new();
    if func.blocks.is_empty() {
        errors.push(err(
            p,
            name,
            None,
            None,
            "empty-function",
            "function has no blocks".into(),
        ));
        return errors;
    }
    let nblocks = func.blocks.len();
    let nvregs = func.vreg_count;

    // Structural checks.
    for (bi, b) in func.blocks.iter().enumerate() {
        if !b.weight.is_finite() || b.weight < 0.0 {
            errors.push(err(
                p,
                name,
                Some(bi),
                None,
                "negative-block-weight",
                format!(
                    "block weight {} is not a finite nonnegative value",
                    b.weight
                ),
            ));
        }
        for s in b.term.successors() {
            if s.idx() >= nblocks {
                errors.push(err(
                    p,
                    name,
                    Some(bi),
                    None,
                    "terminator-target-out-of-range",
                    format!("terminator targets {s} but the function has {nblocks} blocks"),
                ));
            }
        }
        if let Terminator::Branch { cond, .. } = b.term {
            if cond.0 >= nvregs {
                errors.push(err(
                    p,
                    name,
                    Some(bi),
                    None,
                    "operand-out-of-range",
                    format!("branch condition {cond} outside vreg_count {nvregs}"),
                ));
            }
        }
        for (ii, inst) in b.insts.iter().enumerate() {
            for v in inst.uses().chain(inst.def()) {
                if v.0 >= nvregs {
                    errors.push(err(
                        p,
                        name,
                        Some(bi),
                        Some(ii),
                        "operand-out-of-range",
                        format!("operand {v} outside vreg_count {nvregs}"),
                    ));
                }
            }
            if inst.is_mem() && inst.addr.is_none() {
                errors.push(err(
                    p,
                    name,
                    Some(bi),
                    Some(ii),
                    "mem-op-missing-addr",
                    format!("{:?} has no address expression", inst.op),
                ));
            }
        }
    }
    if !errors.is_empty() {
        return errors;
    }

    // Reachability from the entry block.
    let mut reachable = vec![false; nblocks];
    let mut stack = vec![0usize];
    reachable[0] = true;
    while let Some(b) = stack.pop() {
        for s in func.blocks[b].term.successors() {
            if !reachable[s.idx()] {
                reachable[s.idx()] = true;
                stack.push(s.idx());
            }
        }
    }
    if !func
        .blocks
        .iter()
        .enumerate()
        .any(|(bi, b)| reachable[bi] && matches!(b.term, Terminator::Ret))
    {
        errors.push(err(
            p,
            name,
            None,
            None,
            "no-reachable-ret",
            "no return is reachable from the entry block".into(),
        ));
    }
    for (bi, b) in func.blocks.iter().enumerate() {
        if !reachable[bi] && b.weight > 0.0 {
            errors.push(err(
                p,
                name,
                Some(bi),
                None,
                "unreachable-weighted-block",
                format!("unreachable block carries weight {}", b.weight),
            ));
        }
    }

    // Forward may-reach definition dataflow. Virtual registers that are
    // never defined are implicit parameters and exempt.
    let mut def_count = vec![0u32; nvregs as usize];
    let mut defs: Vec<Vec<bool>> = vec![vec![false; nvregs as usize]; nblocks];
    for (bi, b) in func.blocks.iter().enumerate() {
        for inst in &b.insts {
            if let Some(d) = inst.def() {
                def_count[d.0 as usize] += 1;
                defs[bi][d.0 as usize] = true;
            }
        }
    }
    let preds = func.predecessors();
    let mut out: Vec<Vec<bool>> = defs.clone();
    let mut changed = true;
    while changed {
        changed = false;
        for bi in 0..nblocks {
            for pi in &preds[bi] {
                let pred_row = out[pi.idx()].clone();
                for (dst, src) in out[bi].iter_mut().zip(pred_row) {
                    if src && !*dst {
                        *dst = true;
                        changed = true;
                    }
                }
            }
        }
    }

    for (bi, b) in func.blocks.iter().enumerate() {
        if !reachable[bi] {
            continue;
        }
        // Definitions reaching the block entry.
        let mut live = vec![false; nvregs as usize];
        for pi in &preds[bi] {
            for v in 0..nvregs as usize {
                live[v] |= out[pi.idx()][v];
            }
        }
        // Unconsumed unpredicated definitions, for the double-def rule.
        let mut pending: HashMap<VReg, usize> = HashMap::new();
        for (ii, inst) in b.insts.iter().enumerate() {
            for u in inst.uses() {
                pending.remove(&u);
                if def_count[u.0 as usize] > 0 && !live[u.0 as usize] {
                    errors.push(err(
                        p,
                        name,
                        Some(bi),
                        Some(ii),
                        "use-before-def",
                        format!("{u} is used before any definition can reach"),
                    ));
                    live[u.0 as usize] = true; // report once
                }
            }
            if let Some(d) = inst.def() {
                if inst.pred.is_none() {
                    if let Some(prev) = pending.insert(d, ii) {
                        errors.push(err(
                            p,
                            name,
                            Some(bi),
                            Some(ii),
                            "double-def",
                            format!("{d} already defined at #{prev} with no intervening use"),
                        ));
                    }
                } else {
                    // A predicated def only conditionally overwrites;
                    // complementary-arm defs of one value are legal.
                    pending.remove(&d);
                }
                live[d.0 as usize] = true;
            }
        }
        if let Terminator::Branch { cond, .. } = b.term {
            if def_count[cond.0 as usize] > 0 && !live[cond.0 as usize] {
                errors.push(err(
                    p,
                    name,
                    Some(bi),
                    None,
                    "use-before-def",
                    format!("branch condition {cond} is used before any definition can reach"),
                ));
            }
        }
    }
    errors
}

/// Pass 4 (runs on post-if-conversion IR): predication legality.
///
/// Predicated operations are only legal under full predication; inside a
/// block, a predicated instruction must not define its own guard, and
/// its guard's most recent in-block definition must itself be
/// unpredicated (side-effect safety of hoisted diamond/triangle arms).
pub fn verify_predication(func: &IrFunction, fs: &FeatureSet) -> Vec<VerifyError> {
    let p = VerifyPass::IfConvert;
    let name = func.name.as_str();
    let mut errors = Vec::new();
    for (bi, b) in func.blocks.iter().enumerate() {
        // Was the most recent in-block def of a vreg predicated?
        let mut last_def_predicated: HashMap<VReg, bool> = HashMap::new();
        for (ii, inst) in b.insts.iter().enumerate() {
            if let Some((guard, _)) = inst.pred {
                if fs.predication() != Predication::Full {
                    errors.push(err(
                        p,
                        name,
                        Some(bi),
                        Some(ii),
                        "predicated-op-under-partial-predication",
                        format!(
                            "{:?} is predicated but {fs} has partial predication",
                            inst.op
                        ),
                    ));
                }
                if inst.def() == Some(guard) {
                    errors.push(err(
                        p,
                        name,
                        Some(bi),
                        Some(ii),
                        "predicated-def-of-own-guard",
                        format!("instruction guarded by {guard} also defines it"),
                    ));
                }
                if last_def_predicated.get(&guard) == Some(&true) {
                    errors.push(err(
                        p,
                        name,
                        Some(bi),
                        Some(ii),
                        "predicate-guard-redefined-in-run",
                        format!("guard {guard} was last defined by a predicated instruction"),
                    ));
                }
            }
            if let Some(d) = inst.def() {
                last_def_predicated.insert(d, inst.pred.is_some());
            }
        }
    }
    errors
}

/// Pass 2: post-instruction-selection operand legality.
///
/// Checks operand shape per opcode (loads define, stores don't, memory
/// operands and roles agree), that the microx86 load-compute-store split
/// actually happened when folding is disabled, and that SIMD, width and
/// predication selections respect the target feature set.
pub fn verify_isel(func: &VFunction, fs: &FeatureSet) -> Vec<VerifyError> {
    let p = VerifyPass::Isel;
    let name = func.name.as_str();
    let mut errors = Vec::new();
    for (bi, b) in func.blocks.iter().enumerate() {
        for (ii, inst) in b.insts.iter().enumerate() {
            for v in inst.uses().chain(inst.def()) {
                if v.0 >= func.vreg_count {
                    errors.push(err(
                        p,
                        name,
                        Some(bi),
                        Some(ii),
                        "vreg-out-of-range",
                        format!("{v} outside vreg_count {}", func.vreg_count),
                    ));
                }
            }
            if matches!(
                inst.opcode,
                MacroOpcode::Branch
                    | MacroOpcode::Jump
                    | MacroOpcode::Call
                    | MacroOpcode::Ret
                    | MacroOpcode::Nop
            ) {
                errors.push(err(
                    p,
                    name,
                    Some(bi),
                    Some(ii),
                    "control-opcode-in-block",
                    format!("{:?} may only appear as a terminator", inst.opcode),
                ));
                continue;
            }
            match inst.opcode {
                MacroOpcode::Load => {
                    let ok = inst.dst.is_some()
                        && inst.mem.is_some()
                        && inst.mem_role == MemRole::Src
                        && inst.src1 == VOp::None
                        && inst.src2 == VOp::None;
                    if !ok {
                        errors.push(err(
                            p,
                            name,
                            Some(bi),
                            Some(ii),
                            "load-store-shape",
                            "load must be `dst = [mem]` with role Src and no sources".into(),
                        ));
                    }
                }
                MacroOpcode::Store => {
                    let ok = inst.dst.is_none()
                        && inst.mem.is_some()
                        && inst.mem_role == MemRole::Dst
                        && matches!(inst.src1, VOp::Reg(_))
                        && inst.src2 == VOp::None;
                    if !ok {
                        errors.push(err(
                            p,
                            name,
                            Some(bi),
                            Some(ii),
                            "load-store-shape",
                            "store must be `[mem] = src1` with role Dst and no destination".into(),
                        ));
                    }
                }
                _ => {}
            }
            if inst.mem.is_some() != (inst.mem_role != MemRole::None) {
                errors.push(err(
                    p,
                    name,
                    Some(bi),
                    Some(ii),
                    "mem-role-inconsistent",
                    format!(
                        "memory operand present: {}, role: {:?}",
                        inst.mem.is_some(),
                        inst.mem_role
                    ),
                ));
            }
            if fs.complexity() == Complexity::MicroX86 && inst.uop_count() > 1 {
                errors.push(err(
                    p,
                    name,
                    Some(bi),
                    Some(ii),
                    "unsplit-mem-op-under-microx86",
                    format!(
                        "{:?} decodes to {} uops; microx86 requires the \
                         load-compute-store split at selection time",
                        inst.opcode,
                        inst.uop_count()
                    ),
                ));
            }
            if inst.opcode == MacroOpcode::VecAlu {
                if fs.simd() != SimdSupport::Sse {
                    errors.push(err(
                        p,
                        name,
                        Some(bi),
                        Some(ii),
                        "vector-op-without-simd",
                        format!("vector op selected but {fs} has no SIMD"),
                    ));
                }
                if !b.vectorized {
                    errors.push(err(
                        p,
                        name,
                        Some(bi),
                        Some(ii),
                        "vector-op-outside-vectorized-block",
                        "vector op in a block not marked vectorized".into(),
                    ));
                }
            }
            if inst.wide && fs.width() == RegisterWidth::W32 {
                errors.push(err(
                    p,
                    name,
                    Some(bi),
                    Some(ii),
                    "wide-op-on-32bit-target",
                    "64-bit op must be double-pumped on a 32-bit target".into(),
                ));
            }
            if inst.pred.is_some() && fs.predication() != Predication::Full {
                errors.push(err(
                    p,
                    name,
                    Some(bi),
                    Some(ii),
                    "predicate-under-partial-predication",
                    format!("predicated instruction selected for {fs}"),
                ));
            }
        }
    }
    errors
}

/// Whether a memory operand addresses the spill area (stack-pointer
/// based — the allocator never hands `r4` to program values).
fn is_spill_mem(inst: &MachineInst) -> bool {
    inst.mem
        .is_some_and(|m| m.base == stack_pointer() && !matches!(m.mode, AddressingMode::Absolute))
}

/// Pass 3: post-register-allocation checks.
///
/// No two overlapping live intervals may share a physical register
/// (checked against the placement side table the allocator records);
/// every register must fit the feature set's depth; spill-slot accesses
/// must have the canonical `[sp + disp8]` stack shape, spill stores must
/// immediately follow the def they save, refill loads must be consumed;
/// the dynamic spill statistics must match the emitted spill code.
pub fn verify_regalloc(func: &AllocFunction, fs: &FeatureSet) -> Vec<VerifyError> {
    let p = VerifyPass::RegAlloc;
    let name = func.name.as_str();
    let mut errors = Vec::new();
    let depth = fs.depth().count();

    // Overlapping live ranges must not share a register.
    for (i, a) in func.intervals.iter().enumerate() {
        let Some(ra) = a.reg else { continue };
        for b in &func.intervals[i + 1..] {
            if b.reg == Some(ra) && a.start <= b.end && b.start <= a.end {
                errors.push(err(
                    p,
                    name,
                    None,
                    None,
                    "overlapping-intervals-share-register",
                    format!(
                        "{} [{}, {}] and {} [{}, {}] both live in {ra}",
                        a.vreg, a.start, a.end, b.vreg, b.start, b.end
                    ),
                ));
            }
        }
    }

    let mut spill_stores = 0.0f64;
    let mut refill_loads = 0.0f64;
    for (bi, b) in func.blocks.iter().enumerate() {
        for (ii, inst) in b.insts.iter().enumerate() {
            for r in inst.registers() {
                if r.index() as u32 >= depth {
                    errors.push(err(
                        p,
                        name,
                        Some(bi),
                        Some(ii),
                        "register-beyond-depth",
                        format!("{r} exceeds {fs}'s register depth {depth}"),
                    ));
                }
            }
            if !is_spill_mem(inst) {
                continue;
            }
            let shape_ok = matches!(inst.opcode, MacroOpcode::Load | MacroOpcode::Store)
                && inst.mem.is_some_and(|m| {
                    m.mode == AddressingMode::BaseDisp
                        && m.disp_bytes == 1
                        && m.locality == MemLocality::Stack
                });
            if !shape_ok {
                errors.push(err(
                    p,
                    name,
                    Some(bi),
                    Some(ii),
                    "spill-slot-shape",
                    format!(
                        "stack-pointer-based access must be a `[sp + disp8]` load/store: {inst}"
                    ),
                ));
                continue;
            }
            match inst.opcode {
                MacroOpcode::Store => {
                    spill_stores += b.weight;
                    // A spill store saves the value computed by the
                    // immediately preceding instruction.
                    let paired = ii > 0 && b.insts[ii - 1].dst == inst.src1.reg();
                    if !paired {
                        errors.push(err(
                            p,
                            name,
                            Some(bi),
                            Some(ii),
                            "spill-store-unpaired",
                            format!(
                                "spill store of {:?} does not follow its defining instruction",
                                inst.src1.reg()
                            ),
                        ));
                    }
                }
                MacroOpcode::Load => {
                    refill_loads += b.weight;
                    let Some(s) = inst.dst else { continue };
                    // The refilled scratch must be read before it is
                    // clobbered. A clobber by another refill load is
                    // scratch-pool recycling under overflow (counted in
                    // `scratch_overflows`), not a verification error.
                    let mut used = false;
                    let mut clobbered_by = None;
                    for later in &b.insts[ii + 1..] {
                        let reads = later
                            .src1
                            .reg()
                            .into_iter()
                            .chain(later.src2.reg())
                            .chain(later.mem.map(|m| m.base).filter(|_| {
                                !matches!(later.mem.map(|m| m.mode), Some(AddressingMode::Absolute))
                            }))
                            .chain(later.mem.and_then(|m| m.index))
                            .chain(later.predicate.map(|pr| pr.reg));
                        if reads.into_iter().any(|r| r == s) {
                            used = true;
                            break;
                        }
                        if later.dst == Some(s) {
                            if !(later.opcode == MacroOpcode::Load && is_spill_mem(later)) {
                                clobbered_by = Some(*later);
                            }
                            break;
                        }
                    }
                    if !used {
                        errors.push(err(
                            p,
                            name,
                            Some(bi),
                            Some(ii),
                            "refill-load-unused",
                            match clobbered_by {
                                Some(c) => {
                                    format!("refill into {s} clobbered by `{c}` before any use")
                                }
                                None => format!("refill into {s} is never read"),
                            },
                        ));
                    }
                }
                _ => unreachable!("shape check restricts to load/store"),
            }
        }
    }

    let close = |a: f64, b: f64| (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0);
    if !close(spill_stores, func.stats.dyn_spill_stores)
        || !close(refill_loads, func.stats.dyn_refill_loads)
    {
        errors.push(err(
            p,
            name,
            None,
            None,
            "regalloc-stats-mismatch",
            format!(
                "recounted spill stores {spill_stores} / refill loads {refill_loads}, \
                 stats claim {} / {}",
                func.stats.dyn_spill_stores, func.stats.dyn_refill_loads
            ),
        ));
    }
    errors
}

/// Checks that `bytes` is exactly the encoding of `insts` under `fs`:
/// the stream decodes without error into one length record per
/// instruction, and each record's length and prefix flags match a fresh
/// encode of that instruction. Exposed separately so corrupted byte
/// streams can be verified directly.
pub fn verify_stream_roundtrip(
    fs: &FeatureSet,
    insts: &[MachineInst],
    bytes: &[u8],
    function: &str,
    block: Option<usize>,
) -> Vec<VerifyError> {
    let p = VerifyPass::Encoding;
    let mut errors = Vec::new();
    let encoder = Encoder::new(*fs);
    let decoded = match InstLengthDecoder::new().decode_stream(bytes) {
        Ok(d) => d,
        Err(e) => {
            errors.push(err(
                p,
                function,
                block,
                None,
                "stream-decode-error",
                format!("emitted stream does not decode: {e}"),
            ));
            return errors;
        }
    };
    if decoded.len() != insts.len() {
        errors.push(err(
            p,
            function,
            block,
            None,
            "stream-roundtrip-mismatch",
            format!(
                "stream decodes to {} instructions, {} were encoded",
                decoded.len(),
                insts.len()
            ),
        ));
        return errors;
    }
    for (ii, (inst, d)) in insts.iter().zip(&decoded).enumerate() {
        let enc = match encoder.encode(inst) {
            Ok(e) => e,
            Err(e) => {
                errors.push(err(
                    p,
                    function,
                    block,
                    Some(ii),
                    "encode-failed",
                    format!("{inst}: {e}"),
                ));
                continue;
            }
        };
        if d.len != enc.bytes.len()
            || d.has_rexbc != enc.has_rexbc
            || d.has_predicate != enc.has_predicate
            || d.has_rex != enc.has_rex
            || d.legacy_prefixes != enc.legacy_prefixes
        {
            errors.push(err(
                p,
                function,
                block,
                Some(ii),
                "stream-roundtrip-mismatch",
                format!(
                    "decoded (len {}, rexbc {}, pred {}, rex {}) != encoded \
                     (len {}, rexbc {}, pred {}, rex {}) for {inst}",
                    d.len,
                    d.has_rexbc,
                    d.has_predicate,
                    d.has_rex,
                    enc.bytes.len(),
                    enc.has_rexbc,
                    enc.has_predicate,
                    enc.has_rex
                ),
            ));
        }
    }
    errors
}

/// Pass 5: feature-set legality and encode/decode round-trip of the
/// final machine code (terminators included), plus consistency of the
/// recorded per-block and total byte sizes.
pub fn verify_encoding(code: &CompiledCode) -> Vec<VerifyError> {
    let p = VerifyPass::Encoding;
    let name = code.name.as_str();
    let mut errors = Vec::new();
    let encoder = Encoder::new(code.fs);

    for (bi, b) in code.blocks.iter().enumerate() {
        let mut full: Vec<MachineInst> = b.insts.clone();
        if let Some(t) = terminator_inst(&b.term) {
            full.push(t);
        }
        let mut all_legal = true;
        for (ii, inst) in full.iter().enumerate() {
            if !inst.legal_under(&code.fs) {
                all_legal = false;
                errors.push(err(
                    p,
                    name,
                    Some(bi),
                    Some(ii),
                    "illegal-instruction-for-feature-set",
                    format!("{inst} requires features outside {}", code.fs),
                ));
            }
        }
        if !all_legal {
            continue;
        }
        match encoder.encode_stream(&full) {
            Err(e) => errors.push(err(
                p,
                name,
                Some(bi),
                None,
                "encode-failed",
                format!("block does not encode: {e}"),
            )),
            Ok(bytes) => {
                errors.extend(verify_stream_roundtrip(
                    &code.fs,
                    &full,
                    &bytes,
                    name,
                    Some(bi),
                ));
                if bytes.len() != b.code_bytes {
                    errors.push(err(
                        p,
                        name,
                        Some(bi),
                        None,
                        "block-bytes-mismatch",
                        format!(
                            "block encodes to {} bytes but records code_bytes {}",
                            bytes.len(),
                            b.code_bytes
                        ),
                    ));
                }
            }
        }
    }

    let recorded: usize = code.blocks.iter().map(|b| b.code_bytes).sum();
    if recorded != code.stats.code_bytes {
        errors.push(err(
            p,
            name,
            None,
            None,
            "stats-code-bytes-mismatch",
            format!(
                "blocks record {recorded} total bytes, stats claim {}",
                code.stats.code_bytes
            ),
        ));
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{compile_all_feature_sets, CompileOptions};
    use crate::ir::{AddrExpr, BlockId, BranchBehavior, IrBlock, IrInst, IrOp};
    use crate::isel::select;
    use crate::regalloc::allocate;

    /// A loop with an unpredictable diamond, loop-carried values and an
    /// implicit parameter — the shapes the generator emits.
    fn looped() -> IrFunction {
        let mut f = IrFunction::new("looped");
        let ptr = f.new_vreg(); // implicit param: never defined
        let i = f.new_vreg(); // defined only in the latch (back edge)
        let c = f.new_vreg();
        let x = f.new_vreg();
        let c2 = f.new_vreg();
        let mut head = IrBlock::new(
            Terminator::Branch {
                cond: c,
                taken: BlockId(1),
                not_taken: BlockId(2),
                behavior: BranchBehavior::random(0.5),
            },
            100.0,
        );
        head.insts.push(IrInst::load(
            x,
            AddrExpr::base(ptr),
            cisa_isa::inst::MemLocality::WorkingSet,
        ));
        head.insts.push(IrInst::compute(IrOp::Cmp, c, x, i));
        f.add_block(head);
        let mut t = IrBlock::new(Terminator::Jump(BlockId(3)), 50.0);
        t.insts.push(IrInst::compute(IrOp::IntAlu, x, x, i));
        f.add_block(t);
        let mut e = IrBlock::new(Terminator::Jump(BlockId(3)), 50.0);
        e.insts.push(IrInst::compute(IrOp::IntAlu, x, i, i));
        f.add_block(e);
        let mut latch = IrBlock::new(
            Terminator::Branch {
                cond: c2,
                taken: BlockId(0),
                not_taken: BlockId(4),
                behavior: BranchBehavior::loop_back(100),
            },
            100.0,
        );
        latch.insts.push(IrInst::compute(IrOp::IntAlu, i, i, x));
        latch.insts.push(IrInst::compute(IrOp::Cmp, c2, i, x));
        f.add_block(latch);
        f.add_block(IrBlock::new(Terminator::Ret, 1.0));
        f
    }

    #[test]
    fn clean_ir_verifies() {
        assert_eq!(verify_ir(&looped()), vec![]);
    }

    #[test]
    fn default_level_tracks_build_profile() {
        let expect = if cfg!(debug_assertions) {
            VerifyLevel::Full
        } else {
            VerifyLevel::Off
        };
        assert_eq!(VerifyLevel::default(), expect);
        assert!(!VerifyLevel::Off.enabled());
        assert!(VerifyLevel::Full.enabled());
    }

    #[test]
    fn every_stage_is_clean_for_all_feature_sets() {
        let f = looped();
        for fs in FeatureSet::all() {
            let mut ir = f.clone();
            if fs.predication() == Predication::Full {
                crate::ifconvert::if_convert(&mut ir, &Default::default());
                assert_eq!(verify_ir(&ir), vec![], "{fs}");
                assert_eq!(verify_predication(&ir, &fs), vec![], "{fs}");
            }
            let vfunc = select(&ir, &fs);
            assert_eq!(verify_isel(&vfunc, &fs), vec![], "{fs}");
            let alloc = allocate(&vfunc, &fs);
            assert_eq!(verify_regalloc(&alloc, &fs), vec![], "{fs}");
        }
        for code in compile_all_feature_sets(&f, &CompileOptions::default()).unwrap() {
            assert_eq!(verify_encoding(&code), vec![], "{}", code.fs);
        }
    }

    #[test]
    fn rules_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for r in RULES {
            assert!(seen.insert(r), "duplicate rule name {r}");
        }
    }

    #[test]
    fn error_display_names_the_site() {
        let e = err(
            VerifyPass::RegAlloc,
            "f",
            Some(3),
            Some(7),
            "register-beyond-depth",
            "r40 exceeds depth 16".into(),
        );
        let s = e.to_string();
        assert!(s.contains("[regalloc]"), "{s}");
        assert!(s.contains("bb3"), "{s}");
        assert!(s.contains("#7"), "{s}");
        assert!(s.contains("register-beyond-depth"), "{s}");
    }
}
