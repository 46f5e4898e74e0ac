//! Set-associative caches and the three-level hierarchy of Table I
//! (private L1 I/D, shared banked L2, main memory).

use cisa_decode::LruSets;

/// One set-associative cache with LRU replacement, over the flat
/// recency-ordered tag array [`LruSets`] (exactly the stamp-LRU; see
/// its module doc).
#[derive(Debug, Clone)]
pub struct Cache {
    lru: LruSets,
    line_bytes: u64,
    set_shift: u32,
    set_mask: u64,
    /// Accesses and misses.
    pub accesses: u64,
    /// Misses.
    pub misses: u64,
}

impl Cache {
    /// Builds a cache of `size_bytes` with the given associativity and
    /// 64-byte lines.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (fewer than one set).
    pub fn new(size_bytes: u64, ways: u32) -> Self {
        let line_bytes = 64u64;
        let n_sets = (size_bytes / line_bytes / ways as u64).max(1);
        assert!(n_sets.is_power_of_two(), "set count must be a power of two");
        Cache {
            lru: LruSets::new(n_sets as usize, ways as usize),
            line_bytes,
            set_shift: line_bytes.trailing_zeros(),
            set_mask: n_sets - 1,
            accesses: 0,
            misses: 0,
        }
    }

    /// Accesses `addr`; returns `true` on hit. Misses fill the line.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        let line = addr >> self.set_shift;
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.set_mask.count_ones();
        let hit = self.lru.access(set, tag);
        self.misses += u64::from(!hit);
        hit
    }

    /// Line size in bytes.
    pub(crate) fn line_bytes(&self) -> u64 {
        self.line_bytes
    }
}

/// A simple stream prefetcher: detects two consecutive-line misses
/// within a 4KB page and prefetches the next lines into the cache it
/// guards. gem5's configurations routinely include one; ours is **off
/// by default** so the calibrated baselines stay put, and enabled for
/// the prefetcher ablation.
#[derive(Debug, Clone, Default)]
pub struct StreamPrefetcher {
    /// Last miss line per tracked page (small direct-mapped table).
    table: Vec<(u64, u64)>, // (page, last_line)
    /// Lines prefetched ahead on a detected stream.
    degree: u64,
    /// Issued prefetches.
    pub issued: u64,
}

impl StreamPrefetcher {
    /// Creates a prefetcher with the given look-ahead degree.
    pub(crate) fn new(degree: u64) -> Self {
        StreamPrefetcher {
            table: vec![(u64::MAX, 0); 64],
            degree: degree.max(1),
            issued: 0,
        }
    }

    /// Observes a miss line; returns the lines to prefetch (empty when
    /// no stream is detected).
    pub(crate) fn observe_miss(&mut self, line: u64) -> Vec<u64> {
        let page = line >> 6; // 64 lines = 4KB pages
        let slot = (page as usize) % self.table.len();
        let (p, last) = self.table[slot];
        self.table[slot] = (page, line);
        if p == page && line == last + 1 {
            self.issued += self.degree;
            (1..=self.degree).map(|k| line + k).collect()
        } else {
            Vec::new()
        }
    }
}

/// Latencies of the hierarchy (load-to-use, cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemLatency {
    /// L1 hit (already folded into the load micro-op latency).
    pub l1: u32,
    /// L2 hit.
    pub l2: u32,
    /// Main memory.
    pub mem: u32,
}

impl MemLatency {
    /// The calibrated hierarchy latencies every simulation uses.
    ///
    /// Exported as a `const` so the interval model in `cisa-explore`
    /// can derive its stall-term constants from the *same* values the
    /// cycle simulator charges — agreement is by construction, and a
    /// pinning test on the explore side turns any deliberate change
    /// here into a visible model-side decision.
    pub const DEFAULT: MemLatency = MemLatency {
        l1: 3,
        l2: 14,
        mem: 140,
    };
}

impl Default for MemLatency {
    fn default() -> Self {
        Self::DEFAULT
    }
}

/// A private-L1 / shared-L2 hierarchy for one core (the L2 slice is the
/// core's share of the 4-banked shared cache).
#[derive(Debug, Clone)]
pub struct Hierarchy {
    /// Instruction L1.
    pub l1i: Cache,
    /// Data L1.
    pub l1d: Cache,
    /// Shared L2 slice.
    pub l2: Cache,
    /// Latency profile.
    pub latency: MemLatency,
    /// Optional L1D stream prefetcher (off by default).
    pub prefetcher: Option<StreamPrefetcher>,
}

impl Hierarchy {
    /// Builds a hierarchy from sizes in bytes.
    pub(crate) fn new(
        l1i_bytes: u64,
        l1d_bytes: u64,
        l1_ways: u32,
        l2_bytes: u64,
        l2_ways: u32,
    ) -> Self {
        Hierarchy {
            l1i: Cache::new(l1i_bytes, l1_ways),
            l1d: Cache::new(l1d_bytes, l1_ways),
            l2: Cache::new(l2_bytes, l2_ways),
            latency: MemLatency::default(),
            prefetcher: None,
        }
    }

    /// Enables the L1D stream prefetcher (builder style).
    #[must_use]
    pub(crate) fn with_prefetcher(mut self, degree: u64) -> Self {
        self.prefetcher = Some(StreamPrefetcher::new(degree));
        self
    }

    /// Data access: returns the extra latency beyond the L1-hit load
    /// latency (0 on L1 hit).
    pub(crate) fn data_access(&mut self, addr: u64) -> u32 {
        if self.l1d.access(addr) {
            return 0;
        }
        // Train the prefetcher on the miss and install its predictions.
        if let Some(pf) = &mut self.prefetcher {
            let line = addr / self.l1d.line_bytes();
            for next in pf.observe_miss(line) {
                let a = next * 64;
                self.l1d.access(a);
                self.l2.access(a);
            }
        }
        if self.l2.access(addr) {
            self.latency.l2
        } else {
            self.latency.mem
        }
    }

    /// Instruction fetch: returns the bubble cycles (0 on L1I hit).
    pub(crate) fn inst_access(&mut self, addr: u64) -> u32 {
        if self.l1i.access(addr) {
            0
        } else if self.l2.access(addr) {
            self.latency.l2
        } else {
            self.latency.mem
        }
    }
}

#[cfg(test)]
impl Cache {
    /// Miss rate so far.
    pub(crate) fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_working_set_hits() {
        let mut c = Cache::new(32 * 1024, 4);
        for _ in 0..100 {
            for a in (0..16 * 1024u64).step_by(64) {
                c.access(a);
            }
        }
        assert!(
            c.miss_rate() <= 0.011,
            "16KB set in 32KB cache: {}",
            c.miss_rate()
        );
    }

    #[test]
    fn oversized_working_set_thrashes() {
        let mut c = Cache::new(32 * 1024, 4);
        for _ in 0..10 {
            for a in (0..256 * 1024u64).step_by(64) {
                c.access(a);
            }
        }
        assert!(
            c.miss_rate() > 0.9,
            "LRU sweep must thrash: {}",
            c.miss_rate()
        );
    }

    #[test]
    fn lru_keeps_hot_lines() {
        let mut c = Cache::new(4096, 4); // 16 sets
                                         // One hot line, many cold conflicting lines in the same set.
        let hot = 0u64;
        for i in 0..1000u64 {
            c.access(hot);
            c.access(64 * 16 * (i % 3 + 1)); // same set as hot
        }
        // Hot line is re-touched every other access: it must stay.
        let before = c.misses;
        c.access(hot);
        assert_eq!(c.misses, before, "hot line evicted despite LRU");
    }

    #[test]
    fn hierarchy_latencies_stack() {
        let mut h = Hierarchy::new(32 * 1024, 32 * 1024, 4, 1024 * 1024, 4);
        let a = 0x1000_0000;
        let first = h.data_access(a);
        assert_eq!(first, h.latency.mem, "cold access goes to memory");
        let second = h.data_access(a);
        assert_eq!(second, 0, "now L1 resident");
        // A conflicting sweep evicts L1 but not L2.
        for x in (0..64 * 1024u64).step_by(64) {
            h.data_access(0x2000_0000 + x);
        }
        let third = h.data_access(a);
        assert_eq!(third, h.latency.l2, "L1 victim, L2 hit");
    }

    #[test]
    fn geometry_is_power_of_two() {
        let c = Cache::new(64 * 1024, 4);
        assert_eq!(c.line_bytes(), 64);
        assert_eq!(c.lru.sets(), 256);
    }

    /// The stamp-LRU the flat [`LruSets`] replaced, kept as the
    /// reference model: `sets[set][way] = (tag, stamp)`, the
    /// stamp-minimum way evicted.
    struct StampLru {
        sets: Vec<Vec<(u64, u64)>>,
        ways: usize,
        stamp: u64,
    }

    impl StampLru {
        fn new(sets: usize, ways: usize) -> Self {
            StampLru {
                sets: vec![Vec::new(); sets],
                ways,
                stamp: 0,
            }
        }

        fn access(&mut self, set: usize, tag: u64) -> bool {
            self.stamp += 1;
            let stamp = self.stamp;
            let set = &mut self.sets[set];
            if let Some(e) = set.iter_mut().find(|e| e.0 == tag) {
                e.1 = stamp;
                return true;
            }
            if set.len() < self.ways {
                set.push((tag, stamp));
            } else {
                *set.iter_mut().min_by_key(|e| e.1).expect("set non-empty") = (tag, stamp);
            }
            false
        }
    }

    /// A seeded address stream over `sets` sets of 64-byte lines that
    /// mixes a few hot lines, more lines per set than ways (conflicts)
    /// and cold lines spread over 64 MB.
    fn mixed_stream(sets: u64, ways: u64, n: usize) -> Vec<u64> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        (0..n)
            .map(|_| {
                let r = next();
                match r % 4 {
                    0 => (r >> 8) % 8 * 64,
                    1 => ((r >> 8) % (3 * ways)) * sets * 64 + (r >> 32) % 4 * 64,
                    2 => 0x100_0000 + (r >> 8) % (2 * sets * ways) * 64,
                    _ => (r >> 8) % (64 << 20),
                }
            })
            .collect()
    }

    #[test]
    fn flat_lru_matches_stamp_lru_on_every_geometry() {
        for (kb, ways) in [(32u64, 4u32), (64, 4), (1024, 4), (2048, 8)] {
            let mut flat = Cache::new(kb * 1024, ways);
            let sets = flat.lru.sets();
            let mut stamp = StampLru::new(sets, ways as usize);
            for (i, addr) in mixed_stream(sets as u64, ways as u64, 200_000)
                .into_iter()
                .enumerate()
            {
                let line = addr >> 6;
                let reference =
                    stamp.access(line as usize & (sets - 1), line >> sets.trailing_zeros());
                assert_eq!(flat.access(addr), reference, "{kb}K/{ways} access {i}");
            }
            assert!(
                flat.misses > 0 && flat.misses < flat.accesses,
                "{kb}K/{ways}"
            );
        }
    }

    #[test]
    fn flat_lru_matches_stamp_lru_in_the_uop_cache() {
        use cisa_decode::{DecodeFrontend, DecoderConfig, MacroRecord, SupplySource};
        use cisa_isa::Complexity;
        for c in [Complexity::X86, Complexity::MicroX86] {
            let cfg = DecoderConfig::for_complexity(c);
            let ways = cfg.uop_cache_ways as usize;
            let sets = cfg.uop_cache_windows as usize / ways;
            let mut fe = DecodeFrontend::new(cfg);
            let mut stamp = StampLru::new(sets, ways);
            let mut hits = 0;
            // 64-byte strides over `sets` sets are 32-byte windows over
            // twice as many; halve the set count to keep the conflicts.
            for (i, pc) in mixed_stream(sets as u64 / 2, ways as u64, 100_000)
                .into_iter()
                .enumerate()
            {
                let window = pc / 32;
                let reference = stamp.access(window as usize % sets, window);
                let rec = MacroRecord {
                    pc,
                    len: 4,
                    uops: 1,
                    fusible_cmp: false,
                    is_branch: false,
                };
                let hit = fe.supply(&rec).0 == SupplySource::UopCache;
                assert_eq!(hit, reference, "{c:?} access {i}");
                hits += u64::from(hit);
            }
            assert!(hits > 0 && hits < 100_000, "{c:?}: {hits} hits");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_panic() {
        let _ = Cache::new(48 * 1024, 4);
    }

    #[test]
    fn prefetcher_detects_streams() {
        let mut pf = StreamPrefetcher::new(2);
        assert!(pf.observe_miss(100).is_empty(), "first miss trains only");
        assert_eq!(pf.observe_miss(101), vec![102, 103], "stream detected");
        assert!(pf.observe_miss(500).is_empty(), "new page retrains");
        assert_eq!(pf.issued, 2);
    }

    #[test]
    fn prefetcher_cuts_streaming_misses() {
        let run = |prefetch: bool| {
            let mut h = Hierarchy::new(32 * 1024, 32 * 1024, 4, 1024 * 1024, 4);
            if prefetch {
                h = h.with_prefetcher(4);
            }
            let mut stalls = 0u64;
            for a in (0..512 * 1024u64).step_by(8) {
                stalls += h.data_access(0x4000_0000 + a) as u64;
            }
            stalls
        };
        let without = run(false);
        let with = run(true);
        assert!(
            with < without / 2,
            "stream prefetching must cut stall cycles: {with} vs {without}"
        );
    }
}
