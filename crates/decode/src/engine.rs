//! Functional decode-engine model: micro-op cache, decode slots, fusion.
//!
//! The micro-op cache is both a performance and a power optimization:
//! on a hit, decoded (possibly fused) micro-ops stream directly from the
//! cache and the whole decode pipeline stays off until a miss (Section
//! V-B). The cycle simulator calls [`DecodeFrontend::supply`] once per
//! fetched macro-op; the returned [`SupplySource`] tells it which
//! pipeline path (and energy event) the macro-op took, and how many
//! decode slots it consumed.

use cisa_isa::Complexity;

use crate::lru::LruSets;

/// Static description of one fetched macro-op, as the frontend sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MacroRecord {
    /// Byte PC.
    pub pc: u64,
    /// Encoded length in bytes.
    pub len: u8,
    /// Micro-ops this macro-op decodes into.
    pub uops: u8,
    /// Whether this op can macro-fuse with a following branch
    /// (compare-class integer op).
    pub fusible_cmp: bool,
    /// Whether this is a conditional branch (fuses with a preceding
    /// compare).
    pub is_branch: bool,
}

/// Decoder-cluster configuration (Table I's "Decoder Configurations" and
/// "Micro-op Optimizations" rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecoderConfig {
    /// Number of simple 1:1 decoders.
    pub simple_decoders: u8,
    /// Number of complex 1:4 decoders (0 for microx86 cores, which
    /// replace it with one more simple decoder).
    pub complex_decoders: u8,
    /// Microsequencing ROM for >4-uop instructions.
    pub has_msrom: bool,
    /// Micro-op cache size in 32-byte windows (0 disables it).
    pub uop_cache_windows: u32,
    /// Micro-op cache associativity.
    pub uop_cache_ways: u32,
    /// Macro-op (cmp+branch) fusion.
    pub fusion: bool,
}

impl DecoderConfig {
    /// The decoder configuration the paper pairs with each complexity:
    /// x86 cores keep 3 simple + 1 complex + MSROM; microx86 cores
    /// replace the complex decoder with a fourth simple one and forgo
    /// the MSROM. Micro-op fusion is disabled for microx86 (each
    /// instruction decomposes into one micro-op and the fusion unit does
    /// not combine micro-ops from different macro-ops).
    pub fn for_complexity(c: Complexity) -> Self {
        match c {
            Complexity::X86 => DecoderConfig {
                simple_decoders: 3,
                complex_decoders: 1,
                has_msrom: true,
                uop_cache_windows: 256,
                uop_cache_ways: 8,
                fusion: true,
            },
            Complexity::MicroX86 => DecoderConfig {
                simple_decoders: 4,
                complex_decoders: 0,
                has_msrom: false,
                uop_cache_windows: 256,
                uop_cache_ways: 8,
                fusion: false,
            },
        }
    }

    /// Macro-ops decodable per cycle.
    pub fn decode_width(&self) -> u32 {
        (self.simple_decoders + self.complex_decoders) as u32
    }
}

/// Where a macro-op's micro-ops came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SupplySource {
    /// Streamed from the micro-op cache; decode pipeline off.
    UopCache,
    /// Decoded by a simple 1:1 decoder.
    SimpleDecoder,
    /// Decoded by the complex 1:4 decoder.
    ComplexDecoder,
    /// Sequenced from the MSROM (stalls the decoders).
    Msrom,
}

/// Activity counters for the power model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeStats {
    /// Macro-ops supplied from the micro-op cache.
    pub uop_cache_hits: u64,
    /// Macro-ops that missed the micro-op cache and paid full decode.
    pub uop_cache_misses: u64,
    /// Simple-decoder uses.
    pub simple_decodes: u64,
    /// Complex-decoder uses.
    pub complex_decodes: u64,
    /// MSROM sequences.
    pub msrom_sequences: u64,
    /// Bytes run through the instruction-length decoder.
    pub ild_bytes: u64,
    /// Macro-fused cmp+branch pairs.
    pub fused_pairs: u64,
}

impl DecodeStats {
    /// Micro-op cache hit rate.
    pub fn uop_cache_hit_rate(&self) -> f64 {
        let total = self.uop_cache_hits + self.uop_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.uop_cache_hits as f64 / total as f64
        }
    }
}

/// The window granularity of the micro-op cache (bytes of x86 code per
/// cache line, as in Solomon et al.'s micro-operation cache).
const WINDOW_BYTES: u64 = 32;

/// Set-associative micro-op cache over PC windows with LRU replacement.
#[derive(Debug, Clone)]
struct UopCache(LruSets);

impl UopCache {
    fn new(windows: u32, ways: u32) -> Option<Self> {
        if windows == 0 {
            return None;
        }
        let ways = ways.max(1) as usize;
        let n_sets = (windows as usize / ways).max(1);
        Some(UopCache(LruSets::new(n_sets, ways)))
    }

    /// Looks up the window containing `pc`; fills on miss. Returns hit.
    fn access(&mut self, pc: u64) -> bool {
        let window = pc / WINDOW_BYTES;
        let set = (window as usize) % self.0.sets();
        self.0.access(set, window)
    }
}

/// The decode frontend: supplies micro-ops for fetched macro-ops and
/// tracks activity.
#[derive(Debug, Clone)]
pub struct DecodeFrontend {
    config: DecoderConfig,
    uop_cache: Option<UopCache>,
    stats: DecodeStats,
    /// Was the previous supplied macro-op a fusible compare (same
    /// window)?
    prev_fusible: bool,
}

impl DecodeFrontend {
    /// Creates a frontend with the given configuration.
    pub fn new(config: DecoderConfig) -> Self {
        DecodeFrontend {
            uop_cache: UopCache::new(config.uop_cache_windows, config.uop_cache_ways),
            config,
            stats: DecodeStats::default(),
            prev_fusible: false,
        }
    }

    /// Accumulated activity counters.
    pub fn stats(&self) -> &DecodeStats {
        &self.stats
    }

    /// Supplies one macro-op, returning its source path and the number
    /// of micro-op queue slots it occupies (after fusion).
    pub fn supply(&mut self, rec: &MacroRecord) -> (SupplySource, u8) {
        // Fusion: a branch immediately after a fusible compare shares
        // its micro-op slot.
        let fused = self.config.fusion && rec.is_branch && self.prev_fusible;
        if fused {
            self.stats.fused_pairs += 1;
        }
        self.prev_fusible = rec.fusible_cmp;

        let hit = self
            .uop_cache
            .as_mut()
            .map(|c| c.access(rec.pc))
            .unwrap_or(false);
        let slots = if fused { 0 } else { rec.uops.max(1) };
        if hit {
            self.stats.uop_cache_hits += 1;
            return (SupplySource::UopCache, slots);
        }
        self.stats.uop_cache_misses += 1;
        self.stats.ild_bytes += rec.len as u64;

        let source = if rec.uops <= 1 {
            self.stats.simple_decodes += 1;
            SupplySource::SimpleDecoder
        } else if rec.uops <= 4 && self.config.complex_decoders > 0 {
            self.stats.complex_decodes += 1;
            SupplySource::ComplexDecoder
        } else if self.config.has_msrom {
            self.stats.msrom_sequences += 1;
            SupplySource::Msrom
        } else {
            // microx86 hardware never sees multi-uop macro-ops; treat
            // defensively as serialized simple decodes.
            self.stats.simple_decodes += rec.uops as u64;
            SupplySource::SimpleDecoder
        };
        (source, slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(pc: u64, uops: u8) -> MacroRecord {
        MacroRecord {
            pc,
            len: 4,
            uops,
            fusible_cmp: false,
            is_branch: false,
        }
    }

    #[test]
    fn hot_loop_hits_uop_cache() {
        let mut fe = DecodeFrontend::new(DecoderConfig::for_complexity(Complexity::X86));
        // A tiny loop of 4 macro-ops, iterated.
        for _ in 0..100 {
            for i in 0..4 {
                fe.supply(&rec(0x1000 + i * 4, 1));
            }
        }
        assert!(fe.stats().uop_cache_hit_rate() > 0.95, "hot loop must hit");
    }

    #[test]
    fn huge_footprint_misses_uop_cache() {
        let mut fe = DecodeFrontend::new(DecoderConfig::for_complexity(Complexity::X86));
        // Footprint far beyond 256 windows * 32B = 8KB, one macro-op
        // per 32-byte window so there is no intra-window reuse.
        for i in 0..20_000u64 {
            fe.supply(&rec(i * 32 % (1 << 20), 1));
        }
        assert!(fe.stats().uop_cache_hit_rate() < 0.05);
    }

    #[test]
    fn complex_ops_use_complex_decoder_then_msrom() {
        let mut fe = DecodeFrontend::new(DecoderConfig::for_complexity(Complexity::X86));
        let (s1, n1) = fe.supply(&rec(0, 3));
        assert_eq!(s1, SupplySource::ComplexDecoder);
        assert_eq!(n1, 3);
        let (s2, _) = fe.supply(&rec(64, 6));
        assert_eq!(s2, SupplySource::Msrom);
        let (s3, _) = fe.supply(&rec(128, 1));
        assert_eq!(s3, SupplySource::SimpleDecoder);
    }

    #[test]
    fn microx86_has_no_complex_path() {
        let cfg = DecoderConfig::for_complexity(Complexity::MicroX86);
        assert_eq!(cfg.complex_decoders, 0);
        assert!(!cfg.has_msrom);
        assert_eq!(cfg.decode_width(), 4);
        let mut fe = DecodeFrontend::new(cfg);
        let (s, _) = fe.supply(&rec(0, 1));
        assert_eq!(s, SupplySource::SimpleDecoder);
    }

    #[test]
    fn fusion_elides_branch_slots() {
        let mut fe = DecodeFrontend::new(DecoderConfig::for_complexity(Complexity::X86));
        let cmp = MacroRecord {
            pc: 0,
            len: 3,
            uops: 1,
            fusible_cmp: true,
            is_branch: false,
        };
        let br = MacroRecord {
            pc: 3,
            len: 6,
            uops: 1,
            fusible_cmp: false,
            is_branch: true,
        };
        let (_, n_cmp) = fe.supply(&cmp);
        let (_, n_br) = fe.supply(&br);
        assert_eq!(n_cmp, 1);
        assert_eq!(n_br, 0, "fused branch takes no extra slot");
        assert_eq!(fe.stats().fused_pairs, 1);

        // microx86 never fuses.
        let mut fe2 = DecodeFrontend::new(DecoderConfig::for_complexity(Complexity::MicroX86));
        fe2.supply(&cmp);
        let (_, n2) = fe2.supply(&br);
        assert_eq!(n2, 1);
        assert_eq!(fe2.stats().fused_pairs, 0);
    }

    #[test]
    fn uop_cache_hits_skip_the_ild() {
        let mut fe = DecodeFrontend::new(DecoderConfig::for_complexity(Complexity::X86));
        fe.supply(&rec(0, 1));
        let bytes_after_miss = fe.stats().ild_bytes;
        fe.supply(&rec(0, 1)); // same window: hit
        assert_eq!(
            fe.stats().ild_bytes,
            bytes_after_miss,
            "hits bypass the ILD"
        );
    }

    #[test]
    fn zero_window_cache_disables() {
        let cfg = DecoderConfig {
            uop_cache_windows: 0,
            ..DecoderConfig::for_complexity(Complexity::X86)
        };
        let mut fe = DecodeFrontend::new(cfg);
        for _ in 0..10 {
            let (s, _) = fe.supply(&rec(0, 1));
            assert_eq!(
                s,
                SupplySource::SimpleDecoder,
                "no uop cache, always decode"
            );
        }
        assert_eq!(fe.stats().uop_cache_hits, 0);
    }
}
