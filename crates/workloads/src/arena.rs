//! Packed structure-of-arrays trace storage.
//!
//! A probe used to walk the same [`TraceGenerator`] output many times —
//! once per measurement pass — and then *regenerate* the trace from
//! scratch for every reference cycle simulation. [`TraceArena`]
//! materializes one (phase, feature set) trace exactly once into packed
//! per-field columns, so every consumer streams over dense, contiguous
//! memory:
//!
//! - the fused probe in `cisa-explore` reads only the columns it needs
//!   (kind, pc, mem_addr, flags, len, macro_uops) in one cache-friendly
//!   sweep;
//! - the cycle simulators replay the identical micro-op sequence from
//!   [`TraceArena::uops`] without paying trace generation again.
//!
//! The arena is lossless: [`TraceArena::uops`] reconstructs each
//! [`DynUop`] bit-for-bit as the generator produced it, so arena-fed
//! consumers are guaranteed to observe the exact stream a fresh
//! [`TraceGenerator`] with the same parameters would emit.

use cisa_compiler::CompiledCode;
use cisa_isa::inst::MemLocality;
use cisa_isa::uop::MicroOpKind;

use crate::benchmarks::PhaseSpec;
use crate::trace::{DynUop, TraceGenerator, TraceParams};

/// Flag bit: first micro-op of its macro-op.
const FLAG_FIRST: u8 = 1 << 0;
/// Flag bit: control micro-op was taken.
const FLAG_TAKEN: u8 = 1 << 1;
/// Flag bit: micro-op came from a vectorized block.
const FLAG_VECTOR: u8 = 1 << 2;

/// Encodes an optional memory locality as one byte (0 = none).
fn locality_to_u8(loc: Option<MemLocality>) -> u8 {
    match loc {
        None => 0,
        Some(MemLocality::Stack) => 1,
        Some(MemLocality::Stream) => 2,
        Some(MemLocality::WorkingSet) => 3,
        Some(MemLocality::PointerChase) => 4,
    }
}

/// Inverse of [`locality_to_u8`].
fn locality_from_u8(b: u8) -> Option<MemLocality> {
    match b {
        1 => Some(MemLocality::Stack),
        2 => Some(MemLocality::Stream),
        3 => Some(MemLocality::WorkingSet),
        4 => Some(MemLocality::PointerChase),
        _ => None,
    }
}

/// One dynamic micro-op trace in structure-of-arrays layout.
///
/// Columns are index-aligned: entry `i` of every column describes the
/// trace's `i`-th micro-op. Hot measurement loops read the narrow
/// columns directly; [`TraceArena::uops`] rebuilds full [`DynUop`]
/// values for consumers that want the original AoS view (the cycle
/// simulators).
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
    mem_locality: Vec<u8>,
    target: Vec<u64>,
    /// Completed walks of the function (phase repetitions) during
    /// expansion; mirrors [`TraceGenerator::iterations`].
    pub iterations: u64,
    /// Static code bytes of the generating layout (I-cache footprint).
    pub code_bytes: u64,
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
        let mut gen = TraceGenerator::new(code, spec, params);
        let code_bytes = gen.code_bytes();
        let uops: Vec<DynUop> = (&mut gen).collect();
        let n = uops.len();
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
            mem_locality: Vec::with_capacity(n),
            target: Vec::with_capacity(n),
            iterations: gen.iterations,
            code_bytes,
        };
        // ~4k uops x ~80 bytes stays within L2 while all twelve column
        // sweeps revisit the chunk.
        for chunk in uops.chunks(4096) {
            arena.kind.extend(chunk.iter().map(|u| u.kind));
            arena.dst.extend(chunk.iter().map(|u| u.dst));
            arena.src1.extend(chunk.iter().map(|u| u.src1));
            arena.src2.extend(chunk.iter().map(|u| u.src2));
            arena.pred.extend(chunk.iter().map(|u| u.pred));
            arena.pc.extend(chunk.iter().map(|u| u.pc));
            arena.len.extend(chunk.iter().map(|u| u.len));
            arena.flags.extend(chunk.iter().map(|u| {
                ((u.first as u8) * FLAG_FIRST)
                    | ((u.taken as u8) * FLAG_TAKEN)
                    | ((u.vector as u8) * FLAG_VECTOR)
            }));
            arena.macro_uops.extend(chunk.iter().map(|u| u.macro_uops));
            arena.mem_addr.extend(chunk.iter().map(|u| u.mem_addr));
            arena
                .mem_locality
                .extend(chunk.iter().map(|u| locality_to_u8(u.mem_locality)));
            arena.target.extend(chunk.iter().map(|u| u.target));
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

    /// Streams the trace as [`DynUop`]s (the AoS view the simulators
    /// consume), identical to a fresh generator run. The columns are
    /// zipped rather than indexed so replay pays no per-field bounds
    /// checks — this iterator feeds the three calibration simulations
    /// of every probe.
    pub fn uops(&self) -> impl Iterator<Item = DynUop> + '_ {
        #[allow(clippy::type_complexity)]
        let zipped = self
            .kind
            .iter()
            .zip(&self.dst)
            .zip(&self.src1)
            .zip(&self.src2)
            .zip(&self.pred)
            .zip(&self.pc)
            .zip(&self.len)
            .zip(&self.flags)
            .zip(&self.macro_uops)
            .zip(&self.mem_addr)
            .zip(&self.mem_locality)
            .zip(&self.target);
        zipped.map(
            |(
                (
                    (
                        (
                            (((((((&kind, &dst), &src1), &src2), &pred), &pc), &len), &flags),
                            &macro_uops,
                        ),
                        &mem_addr,
                    ),
                    &mem_locality,
                ),
                &target,
            )| DynUop {
                kind,
                dst,
                src1,
                src2,
                pred,
                pc,
                len,
                first: flags & FLAG_FIRST != 0,
                macro_uops,
                mem_addr,
                mem_locality: locality_from_u8(mem_locality),
                taken: flags & FLAG_TAKEN != 0,
                target,
                vector: flags & FLAG_VECTOR != 0,
            },
        )
    }

    /// Micro-op kind column.
    #[inline]
    pub fn kinds(&self) -> &[MicroOpKind] {
        &self.kind
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
impl TraceArena {
    /// Reconstructs micro-op `i` exactly as the generator emitted it.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> DynUop {
        let flags = self.flags[i];
        DynUop {
            kind: self.kind[i],
            dst: self.dst[i],
            src1: self.src1[i],
            src2: self.src2[i],
            pred: self.pred[i],
            pc: self.pc[i],
            len: self.len[i],
            first: flags & FLAG_FIRST != 0,
            macro_uops: self.macro_uops[i],
            mem_addr: self.mem_addr[i],
            mem_locality: locality_from_u8(self.mem_locality[i]),
            taken: flags & FLAG_TAKEN != 0,
            target: self.target[i],
            vector: flags & FLAG_VECTOR != 0,
        }
    }

    /// Encoded macro-op length column (bytes).
    #[inline]
    pub(crate) fn lens(&self) -> &[u8] {
        &self.len
    }

    /// Micro-ops-per-macro-op column.
    #[inline]
    pub(crate) fn macro_uop_counts(&self) -> &[u8] {
        &self.macro_uops
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
                assert_eq!(arena.get(i), *u, "{bench} uop {i}");
            }
            let replayed: Vec<DynUop> = arena.uops().collect();
            assert_eq!(replayed, direct, "{bench} iterator view");
        }
    }

    #[test]
    fn arena_records_iterations_and_code_bytes() {
        let (code, spec) = compiled("bzip2", FeatureSet::x86_64());
        let params = TraceParams {
            max_uops: 30_000,
            seed: 0xBEEF,
        };
        let mut gen = TraceGenerator::new(&code, &spec, params);
        let bytes = gen.code_bytes();
        let n = (&mut gen).count();
        let arena = TraceArena::build(&code, &spec, params);
        assert_eq!(arena.len(), n);
        assert_eq!(arena.iterations, gen.iterations);
        assert_eq!(arena.code_bytes, bytes);
        assert!(arena.iterations > 0, "30k uops must cover >1 phase walk");
    }

    #[test]
    fn columns_are_index_aligned() {
        let (code, spec) = compiled("milc", FeatureSet::x86_64());
        let arena = TraceArena::build(&code, &spec, TraceParams::default());
        assert!(!arena.is_empty());
        for i in 0..arena.len() {
            let u = arena.get(i);
            assert_eq!(u.kind, arena.kinds()[i]);
            assert_eq!(u.pc, arena.pcs()[i]);
            assert_eq!(u.mem_addr, arena.mem_addrs()[i]);
            assert_eq!(u.len, arena.lens()[i]);
            assert_eq!(u.macro_uops, arena.macro_uop_counts()[i]);
            assert_eq!(u.first, arena.is_first(i));
            assert_eq!(u.taken, arena.is_taken(i));
        }
    }

    #[test]
    fn locality_byte_roundtrips() {
        let all = [
            None,
            Some(MemLocality::Stack),
            Some(MemLocality::Stream),
            Some(MemLocality::WorkingSet),
            Some(MemLocality::PointerChase),
        ];
        for loc in all {
            assert_eq!(locality_from_u8(locality_to_u8(loc)), loc);
        }
    }
}
