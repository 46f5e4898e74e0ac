//! Per-(phase, feature-set) workload probing.
//!
//! The full sweep is 49 phases x 4,680 design points = 229,320
//! evaluations — the paper burned 49,733 XSEDE core-hours on it. On one
//! laptop core we use the two-fidelity scheme documented in DESIGN.md:
//! for every (phase, feature set) pair a **probe** runs the real
//! machinery once — compile, expand a trace, measure branch
//! mispredictability under all three predictors, measure cache miss
//! rates under all four L1/L2 geometries, measure micro-op cache and
//! store-forwarding behaviour, and run the cycle simulator on two
//! reference cores to calibrate the phase's dataflow parallelism — and
//! the interval model in [`crate::interval`] extrapolates across the
//! 180 microarchitectures from those measurements.

use cisa_compiler::{compile, CompileOptions, CompiledCode};
use cisa_decode::{DecodeFrontend, DecoderConfig, MacroRecord, SupplySource};
use cisa_isa::encoding::Encoder;
use cisa_isa::uop::MicroOpKind;
use cisa_isa::FeatureSet;
use cisa_sim::{
    simulate, simulate_shared_frontend, Cache, CoreConfig, ExecSemantics, PredictorKind,
    SupplyTrace, WindowConfig,
};
use cisa_workloads::{generate, PhaseSpec, TraceArena, TraceParams};

/// Trace length used by probes (micro-ops).
pub const PROBE_UOPS: usize = 48_000;

/// The fixed trace seed probes use (part of the probe cache key).
pub const PROBE_SEED: u64 = 0xBEEF;

/// Microarchitecture-independent characteristics of one (phase, feature
/// set) pair, plus the two calibration fits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseProfile {
    /// Dynamic micro-ops per unit of phase work.
    pub uops_per_unit: f64,
    /// Macro-ops per micro-op (1.0 for microx86).
    pub macro_per_uop: f64,
    /// Mean encoded macro-op length (bytes).
    pub avg_macro_len: f64,
    /// Static code footprint (bytes).
    pub code_bytes: f64,
    /// Micro-op mix fractions (sum to ~1).
    pub mix: [f64; 8],
    /// Mispredictions per micro-op, per predictor (L, G, T order).
    pub mispredict_per_uop: [f64; 3],
    /// L1D misses per micro-op by L1 size index (32KB, 64KB).
    pub l1d_miss_per_uop: [f64; 2],
    /// L2 misses per micro-op by [L1 idx][L2 idx (1MB, 2MB)].
    pub l2_miss_per_uop: [[f64; 2]; 2],
    /// L1I misses per micro-op by L1 size index.
    pub l1i_miss_per_uop: [f64; 2],
    /// Micro-op cache hit rate (macro-op granularity).
    pub uopc_hit_rate: f64,
    /// Store-forwarded loads per micro-op.
    pub fwd_per_uop: f64,
    /// Fitted dataflow parallelism at the reference window.
    pub ilp: f64,
    /// Fitted memory-level-parallelism overlap coefficient.
    pub mem_overlap: f64,
    /// Fitted in-order stall exposure scale.
    pub io_stall_scale: f64,
    /// Measured cycles-per-uop on the reference OoO core (validation).
    pub ref_ooo_cpu: f64,
    /// Measured cycles-per-uop on the large-window reference OoO core.
    pub ref_ooo_large_cpu: f64,
    /// Measured cycles-per-uop on the reference in-order core.
    pub ref_io_cpu: f64,
}

impl PhaseProfile {
    /// Number of `f64` values in the fixed serialization layout.
    pub const N_VALUES: usize = 31;

    /// Flattens the profile into its fixed value layout (the on-disk
    /// format used by [`crate::cache::ProfileCache`] and the perf
    /// table). Order is the struct's declaration order, arrays
    /// row-major.
    pub fn to_values(&self) -> [f64; Self::N_VALUES] {
        let mut v = [0.0; Self::N_VALUES];
        let mut i = 0;
        let mut push = |x: f64| {
            v[i] = x;
            i += 1;
        };
        push(self.uops_per_unit);
        push(self.macro_per_uop);
        push(self.avg_macro_len);
        push(self.code_bytes);
        self.mix.iter().for_each(|&x| push(x));
        self.mispredict_per_uop.iter().for_each(|&x| push(x));
        self.l1d_miss_per_uop.iter().for_each(|&x| push(x));
        self.l2_miss_per_uop.iter().flatten().for_each(|&x| push(x));
        self.l1i_miss_per_uop.iter().for_each(|&x| push(x));
        push(self.uopc_hit_rate);
        push(self.fwd_per_uop);
        push(self.ilp);
        push(self.mem_overlap);
        push(self.io_stall_scale);
        push(self.ref_ooo_cpu);
        push(self.ref_ooo_large_cpu);
        push(self.ref_io_cpu);
        debug_assert_eq!(i, Self::N_VALUES);
        v
    }

    /// Inverse of [`PhaseProfile::to_values`].
    pub fn from_values(v: &[f64; Self::N_VALUES]) -> Self {
        let mut i = 0;
        let mut pop = || {
            let x = v[i];
            i += 1;
            x
        };
        let uops_per_unit = pop();
        let macro_per_uop = pop();
        let avg_macro_len = pop();
        let code_bytes = pop();
        let mut mix = [0.0; 8];
        mix.iter_mut().for_each(|x| *x = pop());
        let mut mispredict_per_uop = [0.0; 3];
        mispredict_per_uop.iter_mut().for_each(|x| *x = pop());
        let mut l1d_miss_per_uop = [0.0; 2];
        l1d_miss_per_uop.iter_mut().for_each(|x| *x = pop());
        let mut l2_miss_per_uop = [[0.0; 2]; 2];
        l2_miss_per_uop
            .iter_mut()
            .flatten()
            .for_each(|x| *x = pop());
        let mut l1i_miss_per_uop = [0.0; 2];
        l1i_miss_per_uop.iter_mut().for_each(|x| *x = pop());
        PhaseProfile {
            uops_per_unit,
            macro_per_uop,
            avg_macro_len,
            code_bytes,
            mix,
            mispredict_per_uop,
            l1d_miss_per_uop,
            l2_miss_per_uop,
            l1i_miss_per_uop,
            uopc_hit_rate: pop(),
            fwd_per_uop: pop(),
            ilp: pop(),
            mem_overlap: pop(),
            io_stall_scale: pop(),
            ref_ooo_cpu: pop(),
            ref_ooo_large_cpu: pop(),
            ref_io_cpu: pop(),
        }
    }
}

/// Count of real probes executed by this process (cache hits do not
/// count). Tests use this to assert that a warm cache re-runs nothing.
static PROBES_RUN: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Number of full probes (compile + trace + calibrate) this process has
/// executed so far. Monotonically increasing; cache hits leave it
/// unchanged.
pub fn probes_run() -> u64 {
    PROBES_RUN.load(std::sync::atomic::Ordering::Relaxed)
}

/// Index of a micro-op class in [`PhaseProfile::mix`].
pub(crate) fn mix_idx(kind: MicroOpKind) -> usize {
    match kind {
        MicroOpKind::Load => 0,
        MicroOpKind::Store => 1,
        MicroOpKind::IntAlu | MicroOpKind::Nop => 2,
        MicroOpKind::IntMul => 3,
        MicroOpKind::FpAlu | MicroOpKind::FpMul => 4,
        MicroOpKind::VecAlu => 5,
        MicroOpKind::Branch => 6,
        MicroOpKind::Jump => 7,
    }
}

/// Index of a predictor in [`PhaseProfile::mispredict_per_uop`].
pub(crate) fn pred_idx(kind: PredictorKind) -> usize {
    match kind {
        PredictorKind::TwoLevelLocal => 0,
        PredictorKind::Gshare => 1,
        PredictorKind::Tournament => 2,
    }
}

/// The reference out-of-order core used for calibration.
pub(crate) fn reference_ooo(fs: FeatureSet) -> CoreConfig {
    CoreConfig {
        fs,
        sem: ExecSemantics::OutOfOrder,
        width: 2,
        predictor: PredictorKind::Tournament,
        int_alu: 3,
        fp_alu: 1,
        lsq: 16,
        l1_kb: 32,
        l2_kb: 1024,
        window: WindowConfig::small(),
    }
}

/// The large-window reference out-of-order core used for calibration.
pub(crate) fn reference_ooo_large(fs: FeatureSet) -> CoreConfig {
    CoreConfig {
        window: WindowConfig::large(),
        ..reference_ooo(fs)
    }
}

/// The reference in-order core used for calibration.
pub(crate) fn reference_io(fs: FeatureSet) -> CoreConfig {
    CoreConfig {
        fs,
        sem: ExecSemantics::InOrder,
        width: 2,
        predictor: PredictorKind::Tournament,
        int_alu: 3,
        fp_alu: 1,
        lsq: 16,
        l1_kb: 32,
        l2_kb: 1024,
        window: WindowConfig::in_order(),
    }
}

/// Number of store slots the forwarding table retains. Equals the
/// forwarding window in micro-ops, which is what makes the bounded
/// table exact (see [`StoreForwardTable`]).
const FWD_WINDOW: usize = 64;

/// Bounded store-index table for the store-to-load forwarding
/// measurement.
///
/// The original pass kept a `HashMap<u64, usize>` from 8-byte line
/// address to the index of the last store that wrote it — growing
/// without bound over the trace (every distinct line stays resident
/// forever). A load only forwards when that store is within the last
/// `FWD_WINDOW` micro-ops, and the window bounds how much history
/// can matter: this table keeps just the `FWD_WINDOW` most recent
/// stores, direct-mapped on store *sequence number*, and scans
/// newest-to-oldest for the line.
///
/// The replacement is exactly equivalent to the unbounded map, not an
/// approximation. If the most recent store to a line has been
/// displaced, at least `FWD_WINDOW` later stores exist, each at a
/// distinct micro-op index strictly between that store's index `j` and
/// the querying load's index `i`, so `i - j > FWD_WINDOW` and the
/// window check `i - j < FWD_WINDOW` would have rejected the forward
/// anyway. Conversely, a store passing the window check has fewer than
/// `FWD_WINDOW` micro-ops (hence fewer than `FWD_WINDOW` stores)
/// after it and is still resident, and the newest-to-oldest scan
/// returns the most recent store to the line — the map's last-writer
/// entry.
#[derive(Debug, Clone)]
pub struct StoreForwardTable {
    /// `(line address, uop index)` of recent stores, direct-mapped on
    /// store sequence number.
    slots: [(u64, usize); FWD_WINDOW],
    /// Stores recorded so far.
    stores: usize,
}

impl Default for StoreForwardTable {
    fn default() -> Self {
        Self::new()
    }
}

impl StoreForwardTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        StoreForwardTable {
            slots: [(0, 0); FWD_WINDOW],
            stores: 0,
        }
    }

    /// Records a store to `line` at micro-op index `i`.
    #[inline]
    pub fn record_store(&mut self, line: u64, i: usize) {
        self.slots[self.stores % FWD_WINDOW] = (line, i);
        self.stores += 1;
    }

    /// Micro-op index of the most recent resident store to `line`.
    #[inline]
    pub(crate) fn last_store(&self, line: u64) -> Option<usize> {
        let depth = self.stores.min(FWD_WINDOW);
        for k in 1..=depth {
            let (l, idx) = self.slots[(self.stores - k) % FWD_WINDOW];
            if l == line {
                return Some(idx);
            }
        }
        None
    }

    /// Whether a load of `line` at micro-op index `i` would forward
    /// from a recent store.
    #[inline]
    pub fn forwards(&self, line: u64, i: usize) -> bool {
        matches!(self.last_store(line), Some(j) if i - j < FWD_WINDOW)
    }
}

/// Stable 64-bit fingerprint of everything a probe observes from
/// compiled code.
///
/// Two (phase, feature set) pairs with the same [`PhaseSpec`] and
/// equal fingerprints produce bit-identical [`PhaseProfile`]s: the
/// probe is a pure function of the compiled blocks (instructions,
/// terminators, weights, vectorization, encoded bytes), the code
/// statistics it copies into the profile, and the only two feature-set
/// dimensions the measurement pipeline reads directly — complexity
/// (decoder configuration, reference-core frontends) and register
/// width (trace footprint scaling). Feature sets differing only in
/// dimensions the generated code happens not to exercise (deeper
/// register files with no spills to reclaim, predication on a phase
/// with no convertible branches) therefore collapse to one
/// fingerprint, and [`crate::runner::SweepRunner`] reuses the measured
/// profile instead of re-probing.
pub fn codegen_fingerprint(code: &CompiledCode) -> u64 {
    use std::fmt::Write as _;
    let enc = Encoder::new(code.fs);
    let mut s = String::new();
    let _ = write!(
        s,
        "cx={:?} w={:?} uops={:#x} len={:#x} bytes={}",
        code.fs.complexity(),
        code.fs.width(),
        code.stats.total_uops().to_bits(),
        code.stats.avg_inst_bytes.to_bits(),
        code.stats.code_bytes,
    );
    for b in &code.blocks {
        let _ = write!(
            s,
            "|blk w={:#x} v={} cb={} t={:?};",
            b.weight.to_bits(),
            b.vectorized,
            b.code_bytes,
            b.term,
        );
        for inst in &b.insts {
            let _ = write!(s, "{inst:?};");
        }
        match enc.encode_stream(&b.insts) {
            Ok(bytes) => {
                s.push('#');
                for byte in bytes {
                    let _ = write!(s, "{byte:02x}");
                }
            }
            Err(e) => {
                let _ = write!(s, "#enc-err:{e}");
            }
        }
    }
    crate::cache::fnv1a(s.as_bytes())
}

/// # Example
///
/// ```no_run
/// use cisa_explore::probe;
/// use cisa_isa::FeatureSet;
/// use cisa_workloads::all_phases;
///
/// let profile = probe(&all_phases()[0], FeatureSet::x86_64());
/// assert!(profile.uops_per_unit > 0.0);
/// assert!(profile.uopc_hit_rate <= 1.0);
/// ```
/// (Marked `no_run`: a full probe expands a 48k-uop trace and runs
/// three calibration simulations — too slow for `cargo test --doc`.
/// The same assertions run as the `doctest_assertions_hold` unit
/// test.)
///
/// Probes one (phase, feature set) pair.
pub fn probe(spec: &PhaseSpec, fs: FeatureSet) -> PhaseProfile {
    let code = compile(&generate(spec), &fs, &CompileOptions::default())
        .expect("generated phases always compile");
    probe_compiled(spec, &code)
}

/// Probe from already-compiled code (used when the caller also needs
/// the code).
///
/// This is the fused single-pass implementation: the trace is
/// materialized once into a [`TraceArena`] and every measurement
/// structure — micro-op mix, all three branch predictors, all four
/// L1D/L2 cache geometries, the decode frontend with both L1I sizes,
/// and the store-forward table — updates per micro-op in one streaming
/// sweep over the arena columns. The three calibration simulations
/// then read the same arena and share one decode-supply capture.
/// Results are bit-identical to the multi-pass
/// [`probe_compiled_reference`], which is kept as the executable
/// specification and asserted equal in tests.
pub fn probe_compiled(spec: &PhaseSpec, code: &CompiledCode) -> PhaseProfile {
    let _probe = cisa_obs::span("probe");
    cisa_obs::counter("probe/run", 1);
    PROBES_RUN.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let fs = code.fs;
    let params = TraceParams {
        max_uops: PROBE_UOPS,
        seed: PROBE_SEED,
    };
    let arena = {
        let _s = cisa_obs::span("arena");
        TraceArena::build(code, spec, params)
    };
    cisa_obs::hist("probe/trace_uops", arena.len() as u64);
    let n = arena.len().max(1) as f64;
    let _measure = cisa_obs::span("measure");

    let mut mix_counts = [0u64; 8];
    let mut predictors = PredictorKind::ALL.map(|k| (pred_idx(k), k.build()));
    let mut branch_misses = [0u64; 3];
    let mut l1d = [Cache::new(32 * 1024, 4), Cache::new(64 * 1024, 4)];
    let mut l2 = [
        [Cache::new(1024 * 1024, 4), Cache::new(2048 * 1024, 8)],
        [Cache::new(1024 * 1024, 4), Cache::new(2048 * 1024, 8)],
    ];
    let mut l2_misses = [[0u64; 2]; 2];
    let mut l1i = [Cache::new(32 * 1024, 4), Cache::new(64 * 1024, 4)];
    let mut macros = 0u64;
    let mut fwd_table = StoreForwardTable::new();
    let mut fwd = 0u64;

    // One decode-frontend walk serves the whole probe: the supply
    // stream gates the L1I measurement below, provides the micro-op
    // cache hit rate, and is replayed into all three calibration
    // simulations (the frontend is functional, so every consumer sees
    // identical decisions; see `cisa_sim::SupplyTrace`).
    let supply = SupplyTrace::capture(DecoderConfig::for_complexity(fs.complexity()), &arena);
    let sources = supply.sources();
    let mut next_macro = 0usize;

    let kinds = arena.kinds();
    let pcs = arena.pcs();
    let addrs = arena.mem_addrs();

    for i in 0..arena.len() {
        let kind = kinds[i];
        mix_counts[mix_idx(kind)] += 1;

        if kind == MicroOpKind::Branch {
            let pc = pcs[i];
            let taken = arena.is_taken(i);
            for (slot, p) in predictors.iter_mut() {
                if p.predict(pc) != taken {
                    branch_misses[*slot] += 1;
                }
                p.update(pc, taken);
            }
        }

        if kind.is_mem() {
            let addr = addrs[i];
            for (g, l1) in l1d.iter_mut().enumerate() {
                if !l1.access(addr) {
                    if !l2[g][0].access(addr) {
                        l2_misses[g][0] += 1;
                    }
                    if !l2[g][1].access(addr) {
                        l2_misses[g][1] += 1;
                    }
                }
            }
            let line = addr & !7;
            if kind == MicroOpKind::Store {
                fwd_table.record_store(line, i);
            } else if fwd_table.forwards(line, i) {
                fwd += 1;
            }
        }

        if arena.is_first(i) {
            macros += 1;
            let src = sources[next_macro];
            next_macro += 1;
            if src != SupplySource::UopCache {
                for c in &mut l1i {
                    c.access(pcs[i]);
                }
            }
        }
    }

    let mut mix = [0.0f64; 8];
    for (m, &c) in mix.iter_mut().zip(&mix_counts) {
        *m = c as f64 / n;
    }
    let mut mispredict_per_uop = [0.0f64; 3];
    for (m, &c) in mispredict_per_uop.iter_mut().zip(&branch_misses) {
        *m = c as f64 / n;
    }
    let l1d_miss_per_uop = [l1d[0].misses as f64 / n, l1d[1].misses as f64 / n];
    let mut l2_miss_per_uop = [[0.0f64; 2]; 2];
    for g in 0..2 {
        for s in 0..2 {
            l2_miss_per_uop[g][s] = l2_misses[g][s] as f64 / n;
        }
    }
    let uopc_hit_rate = supply.stats().uop_cache_hit_rate();
    let l1i_miss_per_uop = [l1i[0].misses as f64 / n, l1i[1].misses as f64 / n];

    // The measurement caches (about 0.8 MB of tags) are dead from
    // here. Free them before the calibration cores allocate theirs, so
    // the two sets are never live at once.
    drop((l1d, l2, l1i));
    drop(_measure);
    // Calibration simulations read the arena and share the captured
    // decode-supply stream instead of re-walking the micro-op cache per
    // core.
    let sims = {
        let _s = cisa_obs::span("calibrate");
        simulate_shared_frontend(
            &[reference_ooo(fs), reference_ooo_large(fs), reference_io(fs)],
            &arena,
            &supply,
        )
    };
    let ref_ooo_cpu = sims[0].cycles as f64 / n;
    let ref_ooo_large_cpu = sims[1].cycles as f64 / n;
    let ref_io_cpu = sims[2].cycles as f64 / n;

    let mut profile = PhaseProfile {
        uops_per_unit: code.stats.total_uops(),
        macro_per_uop: macros as f64 / n,
        avg_macro_len: code.stats.avg_inst_bytes,
        code_bytes: code.stats.code_bytes as f64,
        mix,
        mispredict_per_uop,
        l1d_miss_per_uop,
        l2_miss_per_uop,
        l1i_miss_per_uop,
        uopc_hit_rate,
        fwd_per_uop: fwd as f64 / n,
        ilp: 2.0,            // fitted below
        mem_overlap: 1.0,    // fitted below
        io_stall_scale: 1.0, // fitted below
        ref_ooo_cpu,
        ref_ooo_large_cpu,
        ref_io_cpu,
    };
    {
        let _s = cisa_obs::span("fit");
        crate::interval::fit(&mut profile);
    }
    profile
}

/// The original multi-pass probe, kept as the executable specification
/// for [`probe_compiled`]: it walks the trace arena once per
/// measurement (mix, three predictor passes, two cache-geometry passes,
/// the frontend pass, the store-forwarding pass with the historical
/// unbounded `HashMap`) and runs each calibration simulation with its
/// own decode-supply capture. Tests assert the fused implementation is
/// bit-identical.
pub fn probe_compiled_reference(spec: &PhaseSpec, code: &CompiledCode) -> PhaseProfile {
    PROBES_RUN.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let fs = code.fs;
    let params = TraceParams {
        max_uops: PROBE_UOPS,
        seed: PROBE_SEED,
    };
    let arena = TraceArena::build(code, spec, params);
    let (kinds, pcs, addrs) = (arena.kinds(), arena.pcs(), arena.mem_addrs());
    let n = arena.len().max(1) as f64;

    // Micro-op mix.
    let mut mix = [0.0f64; 8];
    for &kind in kinds {
        mix[mix_idx(kind)] += 1.0;
    }
    for m in &mut mix {
        *m /= n;
    }

    // Branch predictability under all three predictors.
    let mut mispredict_per_uop = [0.0f64; 3];
    for kind in PredictorKind::ALL {
        let mut p = kind.build();
        let mut misses = 0u64;
        for i in (0..arena.len()).filter(|&i| kinds[i] == MicroOpKind::Branch) {
            let taken = arena.is_taken(i);
            if p.predict(pcs[i]) != taken {
                misses += 1;
            }
            p.update(pcs[i], taken);
        }
        mispredict_per_uop[pred_idx(kind)] = misses as f64 / n;
    }

    // Data-cache behaviour under the four geometries.
    let mut l1d_miss_per_uop = [0.0f64; 2];
    let mut l2_miss_per_uop = [[0.0f64; 2]; 2];
    for (i, l1_kb) in [32u64, 64].iter().enumerate() {
        let mut l1 = Cache::new(l1_kb * 1024, 4);
        let mut l2a = Cache::new(1024 * 1024, 4);
        let mut l2b = Cache::new(2048 * 1024, 8);
        for addr in (0..arena.len())
            .filter(|&i| kinds[i].is_mem())
            .map(|i| addrs[i])
        {
            if !l1.access(addr) {
                if !l2a.access(addr) {
                    l2_miss_per_uop[i][0] += 1.0;
                }
                if !l2b.access(addr) {
                    l2_miss_per_uop[i][1] += 1.0;
                }
            }
        }
        l1d_miss_per_uop[i] = l1.misses as f64 / n;
        l2_miss_per_uop[i][0] /= n;
        l2_miss_per_uop[i][1] /= n;
    }

    // Instruction-side behaviour: micro-op cache + L1I per size. The
    // L1I caches are charged only for macro-ops that engaged the decode
    // pipeline.
    let mut fe = DecodeFrontend::new(DecoderConfig::for_complexity(fs.complexity()));
    let mut l1i = [Cache::new(32 * 1024, 4), Cache::new(64 * 1024, 4)];
    let mut macros = 0u64;
    for i in (0..arena.len()).filter(|&i| arena.is_first(i)) {
        macros += 1;
        let (src, _) = fe.supply(&MacroRecord {
            pc: pcs[i],
            len: arena.lens()[i],
            uops: arena.macro_uop_counts()[i],
            fusible_cmp: false,
            is_branch: kinds[i] == MicroOpKind::Branch,
        });
        if src != SupplySource::UopCache {
            for c in &mut l1i {
                c.access(pcs[i]);
            }
        }
    }
    let uopc_hit_rate = fe.stats().uop_cache_hit_rate();
    let l1i_miss_per_uop = [l1i[0].misses as f64 / n, l1i[1].misses as f64 / n];

    // Store-to-load forwarding frequency (8-byte granularity, recent
    // window).
    let mut last_store: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    let mut fwd = 0u64;
    for (i, (&kind, &addr)) in kinds.iter().zip(addrs).enumerate() {
        match kind {
            MicroOpKind::Store => {
                last_store.insert(addr & !7, i);
            }
            MicroOpKind::Load => {
                if let Some(&j) = last_store.get(&(addr & !7)) {
                    if i - j < 64 {
                        fwd += 1;
                    }
                }
            }
            _ => {}
        }
    }

    // Reference cycle simulations for calibration, each with its own
    // decode frontend.
    let ooo_res = simulate(&reference_ooo(fs), &arena);
    let ooo_large_res = simulate(&reference_ooo_large(fs), &arena);
    let io_res = simulate(&reference_io(fs), &arena);
    let ref_ooo_cpu = ooo_res.cycles as f64 / n;
    let ref_ooo_large_cpu = ooo_large_res.cycles as f64 / n;
    let ref_io_cpu = io_res.cycles as f64 / n;

    let mut profile = PhaseProfile {
        uops_per_unit: code.stats.total_uops(),
        macro_per_uop: macros as f64 / n,
        avg_macro_len: code.stats.avg_inst_bytes,
        code_bytes: code.stats.code_bytes as f64,
        mix,
        mispredict_per_uop,
        l1d_miss_per_uop,
        l2_miss_per_uop,
        l1i_miss_per_uop,
        uopc_hit_rate,
        fwd_per_uop: fwd as f64 / n,
        ilp: 2.0,            // fitted below
        mem_overlap: 1.0,    // fitted below
        io_stall_scale: 1.0, // fitted below
        ref_ooo_cpu,
        ref_ooo_large_cpu,
        ref_io_cpu,
    };
    crate::interval::fit(&mut profile);
    profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use cisa_workloads::all_phases;

    fn spec(bench: &str) -> PhaseSpec {
        all_phases()
            .into_iter()
            .find(|p| p.benchmark == bench)
            .unwrap()
    }

    #[test]
    fn probe_measures_sane_rates() {
        let p = probe(&spec("bzip2"), FeatureSet::x86_64());
        let mix_sum: f64 = p.mix.iter().sum();
        assert!((mix_sum - 1.0).abs() < 1e-9);
        assert!(p.uops_per_unit > 0.0);
        assert!(
            p.ref_ooo_cpu > 0.3 && p.ref_ooo_cpu < 40.0,
            "cpu {}",
            p.ref_ooo_cpu
        );
        assert!(
            p.ref_io_cpu >= p.ref_ooo_cpu * 0.9,
            "in-order can't be much faster"
        );
        assert!((0.0..=1.0).contains(&p.uopc_hit_rate));
    }

    #[test]
    fn bigger_caches_never_miss_more() {
        for bench in ["mcf", "bzip2", "lbm"] {
            let p = probe(&spec(bench), FeatureSet::x86_64());
            assert!(p.l1d_miss_per_uop[1] <= p.l1d_miss_per_uop[0] + 1e-9);
            for i in 0..2 {
                assert!(p.l2_miss_per_uop[i][1] <= p.l2_miss_per_uop[i][0] + 1e-9);
            }
        }
    }

    #[test]
    fn irregular_branches_mispredict_more_than_regular() {
        let sjeng = probe(&spec("sjeng"), FeatureSet::x86_64());
        let lbm = probe(&spec("lbm"), FeatureSet::x86_64());
        for k in 0..3 {
            assert!(
                sjeng.mispredict_per_uop[k] > lbm.mispredict_per_uop[k],
                "predictor {k}"
            );
        }
    }

    #[test]
    fn full_predication_reduces_branch_mix() {
        let s = spec("sjeng");
        let partial = probe(&s, "x86-16D-64W".parse().unwrap());
        let full = probe(&s, "x86-16D-64W-P".parse().unwrap());
        assert!(
            full.mix[6] < partial.mix[6],
            "branch fraction {} vs {}",
            full.mix[6],
            partial.mix[6]
        );
    }

    #[test]
    fn mcf_misses_everywhere() {
        let p = probe(&spec("mcf"), FeatureSet::x86_64());
        assert!(p.l2_miss_per_uop[0][0] > 0.001, "mcf must reach memory");
    }

    #[test]
    fn probes_are_deterministic() {
        let s = spec("milc");
        assert_eq!(
            probe(&s, FeatureSet::x86_64()),
            probe(&s, FeatureSet::x86_64())
        );
    }

    /// The assertions from the (`no_run`) doctest on [`probe`].
    #[test]
    fn doctest_assertions_hold() {
        let profile = probe(&all_phases()[0], FeatureSet::x86_64());
        assert!(profile.uops_per_unit > 0.0);
        assert!(profile.uopc_hit_rate <= 1.0);
    }

    #[test]
    fn forward_table_matches_unbounded_map_on_adversarial_stream() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x5707_F07D);
        // Alternating stores/loads over few lines (dense reuse) plus a
        // long unique-line tail (eviction pressure), so both the
        // window-hit and displaced-store paths are exercised.
        let mut map: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        let mut table = StoreForwardTable::new();
        let mut map_fwd = 0u64;
        let mut table_fwd = 0u64;
        for i in 0..200_000usize {
            let line = if rng.gen_bool(0.7) {
                (rng.gen_range(0u64..40)) * 8
            } else {
                (rng.gen_range(0u64..100_000)) * 8
            };
            if rng.gen_bool(0.5) {
                map.insert(line, i);
                table.record_store(line, i);
            } else {
                if matches!(map.get(&line), Some(&j) if i - j < 64) {
                    map_fwd += 1;
                }
                if table.forwards(line, i) {
                    table_fwd += 1;
                }
            }
        }
        assert!(map_fwd > 0, "stream must exercise forwarding");
        assert_eq!(table_fwd, map_fwd);
    }
}
