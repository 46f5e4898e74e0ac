//! Packed structure-of-arrays trace storage.
//!
//! [`TraceArena`] materializes one (phase, feature set) trace from the
//! crate's private trace generator exactly once into packed per-field
//! columns, so every consumer streams over dense, contiguous memory:
//!
//! - the fused probe in `cisa-explore` reads only the columns it needs
//!   (kind, pc, mem_addr, flags, len, macro_uops) in one cache-friendly
//!   sweep, and the multi-pass reference probe re-reads the same
//!   columns once per measurement;
//! - the cycle simulator in `cisa-sim` reads the columns directly, so
//!   its calibration runs pay neither trace generation nor a per-core
//!   rebuild of micro-op records.
//!
//! The arena is the only trace form outside this crate. Entry `i` of
//! every column equals the matching field of the generator's `i`-th
//! micro-op, and the generator emits exactly the fields the arena
//! keeps.

use cisa_compiler::CompiledCode;
use cisa_isa::uop::MicroOpKind;

use crate::benchmarks::PhaseSpec;
use crate::trace::{DynUop, TraceGenerator, TraceParams};

/// Flag bit: first micro-op of its macro-op.
const FLAG_FIRST: u8 = 1 << 0;
/// Flag bit: control micro-op was taken.
const FLAG_TAKEN: u8 = 1 << 1;

/// One dynamic micro-op trace in structure-of-arrays layout.
///
/// Columns are index-aligned: entry `i` of every column describes the
/// trace's `i`-th micro-op.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceArena {
    kind: Vec<MicroOpKind>,
    dst: Vec<u8>,
    src1: Vec<u8>,
    src2: Vec<u8>,
    pred: Vec<u8>,
    pc: Vec<u64>,
    len: Vec<u8>,
    flags: Vec<u8>,
    macro_uops: Vec<u8>,
    mem_addr: Vec<u64>,
}

impl TraceArena {
    /// Expands one (phase, feature set) trace into arena columns. This
    /// is the only trace generation a probe pays; every measurement and
    /// simulation pass afterwards streams from the arena.
    ///
    /// The generator fills one reusable chunk of micro-ops at a time,
    /// and each chunk is swept once per column while it is still
    /// cache-resident, so each per-column inner loop compiles to a
    /// tight single-field copy and no whole-trace copy of the micro-op
    /// records is ever held.
    pub fn build(code: &CompiledCode, spec: &PhaseSpec, params: TraceParams) -> Self {
        // The generator emits exactly `max_uops` micro-ops, so every
        // column is allocated once at its final size. Peak memory
        // follows glibc's heap layout, not just live bytes: a collected
        // whole-trace copy left a hole whose size set a single-worker
        // probe sweep's peak RSS (8.4 MB with 40-byte records, 10.1 MB
        // with 32-byte ones); the 128 KB chunk leaves none.
        let n = params.max_uops;
        let mut arena = TraceArena {
            kind: Vec::with_capacity(n),
            dst: Vec::with_capacity(n),
            src1: Vec::with_capacity(n),
            src2: Vec::with_capacity(n),
            pred: Vec::with_capacity(n),
            pc: Vec::with_capacity(n),
            len: Vec::with_capacity(n),
            flags: Vec::with_capacity(n),
            macro_uops: Vec::with_capacity(n),
            mem_addr: Vec::with_capacity(n),
        };
        let mut uops = TraceGenerator::new(code, spec, params);
        // 4,096 uops x 32 bytes (128 KB) stays within L2 while all ten
        // column sweeps revisit the chunk.
        const CHUNK: usize = 4096;
        let mut chunk: Vec<DynUop> = Vec::with_capacity(CHUNK);
        loop {
            chunk.clear();
            chunk.extend(uops.by_ref().take(CHUNK));
            if chunk.is_empty() {
                break;
            }
            arena.kind.extend(chunk.iter().map(|u| u.kind));
            arena.dst.extend(chunk.iter().map(|u| u.dst));
            arena.src1.extend(chunk.iter().map(|u| u.src1));
            arena.src2.extend(chunk.iter().map(|u| u.src2));
            arena.pred.extend(chunk.iter().map(|u| u.pred));
            arena.pc.extend(chunk.iter().map(|u| u.pc));
            arena.len.extend(chunk.iter().map(|u| u.len));
            arena.flags.extend(
                chunk
                    .iter()
                    .map(|u| ((u.first as u8) * FLAG_FIRST) | ((u.taken as u8) * FLAG_TAKEN)),
            );
            arena.macro_uops.extend(chunk.iter().map(|u| u.macro_uops));
            arena.mem_addr.extend(chunk.iter().map(|u| u.mem_addr));
        }
        arena
    }

    /// Number of micro-ops in the arena.
    pub fn len(&self) -> usize {
        self.kind.len()
    }

    /// True when the arena holds no micro-ops.
    pub fn is_empty(&self) -> bool {
        self.kind.is_empty()
    }

    /// Micro-op kind column.
    #[inline]
    pub fn kinds(&self) -> &[MicroOpKind] {
        &self.kind
    }

    /// Destination-register column ([`cisa_isa::uop::MicroOp::NO_REG`]
    /// when none).
    #[inline]
    pub fn dsts(&self) -> &[u8] {
        &self.dst
    }

    /// First source-register column.
    #[inline]
    pub fn src1s(&self) -> &[u8] {
        &self.src1
    }

    /// Second source-register column.
    #[inline]
    pub fn src2s(&self) -> &[u8] {
        &self.src2
    }

    /// Predicate-register column (a source).
    #[inline]
    pub fn preds(&self) -> &[u8] {
        &self.pred
    }

    /// Byte-PC column (owning macro-op's PC).
    #[inline]
    pub fn pcs(&self) -> &[u64] {
        &self.pc
    }

    /// Memory-address column (valid where the kind is a memory op).
    #[inline]
    pub fn mem_addrs(&self) -> &[u64] {
        &self.mem_addr
    }

    /// Encoded macro-op length column (bytes).
    #[inline]
    pub fn lens(&self) -> &[u8] {
        &self.len
    }

    /// Micro-ops-per-macro-op column.
    #[inline]
    pub fn macro_uop_counts(&self) -> &[u8] {
        &self.macro_uops
    }

    /// Whether micro-op `i` is the first of its macro-op.
    #[inline]
    pub fn is_first(&self, i: usize) -> bool {
        self.flags[i] & FLAG_FIRST != 0
    }

    /// Whether control micro-op `i` was taken.
    #[inline]
    pub fn is_taken(&self, i: usize) -> bool {
        self.flags[i] & FLAG_TAKEN != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::all_phases;
    use crate::generator::generate;
    use cisa_compiler::{compile, CompileOptions};
    use cisa_isa::FeatureSet;

    /// The only generator-to-arena check: every probe and simulation
    /// reads the arena, so this carries their trace fidelity. Inputs are
    /// the probe's own trace parameters (48,000 micro-ops, seed
    /// `0xBEEF`) on the first phase of every benchmark, for a full-x86
    /// and a microx86 feature set.
    #[test]
    fn arena_reconstructs_the_generator_stream_exactly() {
        let microx86: FeatureSet = "microx86-16D-32W".parse().unwrap();
        let firsts: Vec<PhaseSpec> = all_phases().into_iter().filter(|p| p.index == 0).collect();
        assert_eq!(firsts.len(), 8);
        for (spec, fs) in firsts
            .iter()
            .flat_map(|spec| [(spec, FeatureSet::x86_64()), (spec, microx86)])
        {
            let code = compile(&generate(spec), &fs, &CompileOptions::default()).unwrap();
            let case = format!("{} on {fs}", spec.name());
            let params = TraceParams {
                max_uops: 48_000,
                seed: 0xBEEF,
            };
            let direct: Vec<DynUop> = TraceGenerator::new(&code, spec, params).collect();
            let arena = TraceArena::build(&code, spec, params);
            assert_eq!(arena.len(), direct.len(), "{case}");
            for (i, u) in direct.iter().enumerate() {
                let columns = (
                    arena.kinds()[i],
                    arena.dsts()[i],
                    arena.src1s()[i],
                    arena.src2s()[i],
                    arena.preds()[i],
                    arena.pcs()[i],
                    arena.lens()[i],
                    arena.is_first(i),
                    arena.macro_uop_counts()[i],
                    arena.mem_addrs()[i],
                    arena.is_taken(i),
                );
                let fields = (
                    u.kind,
                    u.dst,
                    u.src1,
                    u.src2,
                    u.pred,
                    u.pc,
                    u.len,
                    u.first,
                    u.macro_uops,
                    u.mem_addr,
                    u.taken,
                );
                assert_eq!(columns, fields, "{case} uop {i}");
            }
        }
    }
}
