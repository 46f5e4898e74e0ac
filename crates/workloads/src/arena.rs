//! Packed structure-of-arrays trace storage.
//!
//! [`TraceArena`] materializes one (phase, feature set) trace from a
//! [`TraceGenerator`] exactly once into packed per-field columns, so
//! every consumer streams over dense, contiguous memory:
//!
//! - the fused probe in `cisa-explore` reads only the columns it needs
//!   (kind, pc, mem_addr, flags, len, macro_uops) in one cache-friendly
//!   sweep;
//! - the cycle simulator in `cisa-sim` reads the columns directly, so
//!   its calibration runs pay neither trace generation nor a per-core
//!   rebuild of [`DynUop`] values.
//!
//! Entry `i` of every column equals the matching field of the
//! generator's `i`-th [`DynUop`]. The arena keeps only the fields some
//! consumer reads: the memory-locality class, branch target and
//! vector flag stay in the generator's output.

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
    /// The trace is collected once and then transposed in chunks:
    /// every chunk of micro-ops is swept once per column while it is
    /// still cache-resident, so the source `Vec<DynUop>` streams
    /// through the cache hierarchy a single time instead of once per
    /// column, and each per-column inner loop still compiles to a
    /// tight single-field copy.
    pub fn build(code: &CompiledCode, spec: &PhaseSpec, params: TraceParams) -> Self {
        // The generator emits exactly `max_uops` micro-ops. The columns
        // are allocated before the transient trace copy because the
        // heap layout is measurable: allocated after it, they raised a
        // single-worker probe sweep's peak RSS from 8.4 to 10.5 MB
        // under glibc's allocator.
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
        let uops: Vec<DynUop> = TraceGenerator::new(code, spec, params).collect();
        // ~4k uops x ~40 bytes stays within L2 while all ten column
        // sweeps revisit the chunk.
        for chunk in uops.chunks(4096) {
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

    fn compiled(bench: &str, fs: FeatureSet) -> (CompiledCode, PhaseSpec) {
        let spec = all_phases()
            .into_iter()
            .find(|p| p.benchmark == bench)
            .unwrap();
        let code = compile(&generate(&spec), &fs, &CompileOptions::default()).unwrap();
        (code, spec)
    }

    #[test]
    fn arena_reconstructs_the_generator_stream_exactly() {
        for (bench, fs) in [
            ("mcf", FeatureSet::x86_64()),
            ("lbm", FeatureSet::x86_64()),
            ("sjeng", "microx86-16D-32W".parse().unwrap()),
        ] {
            let (code, spec) = compiled(bench, fs);
            let params = TraceParams {
                max_uops: 20_000,
                seed: 0xBEEF,
            };
            let direct: Vec<DynUop> = TraceGenerator::new(&code, &spec, params).collect();
            let arena = TraceArena::build(&code, &spec, params);
            assert_eq!(arena.len(), direct.len(), "{bench}");
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
                assert_eq!(columns, fields, "{bench} uop {i}");
            }
        }
    }
}
