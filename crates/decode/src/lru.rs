//! The set-associative tag array with exact LRU replacement that the
//! micro-op cache here and the cycle simulator's caches (`cisa-sim`)
//! share.
//!
//! All tags live in one flat `sets × ways` array. Each set's slice is
//! kept in recency order, most recently used first, and a per-set fill
//! count marks how many of its ways are valid. A hit rotates the tag to
//! the front; a miss shifts the set down by one, dropping the tail when
//! the set is full, and installs the tag at the front.
//!
//! This is exactly the classic stamp-LRU (a global access counter
//! stamped into each touched way, the stamp-minimum way evicted): the
//! stamps of a set's valid ways are unique, so ordering the ways by
//! stamp is a total order, and the stamp-minimum victim is always the
//! tail of the recency order kept here. Hit/miss sequences are
//! therefore identical access for access (`cisa-sim`'s tests check it
//! against the stamp model on every geometry the workspace builds).

/// A flat LRU tag array: `sets` sets of `ways` ways each.
#[derive(Debug, Clone)]
pub struct LruSets {
    /// `tags[set * ways..][..fill[set]]`, most recently used first.
    tags: Vec<u64>,
    /// Valid ways per set (at most `ways`).
    fill: Vec<u8>,
    ways: usize,
}

impl LruSets {
    /// An empty array of `sets` sets with `ways` ways each.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is 0 or above 255.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!((1..=255).contains(&ways), "associativity must be 1..=255");
        LruSets {
            tags: vec![0; sets * ways],
            fill: vec![0; sets],
            ways,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.fill.len()
    }

    /// Looks `tag` up in `set` and makes it the most recently used way;
    /// returns `true` on hit. A miss installs `tag`, evicting the least
    /// recently used way when the set is full.
    #[inline]
    pub fn access(&mut self, set: usize, tag: u64) -> bool {
        let ways = self.ways;
        let row = &mut self.tags[set * ways..(set + 1) * ways];
        let fill = &mut self.fill[set];
        let valid = *fill as usize;
        let (hit, shifted) = match row[..valid].iter().position(|&t| t == tag) {
            Some(i) => (true, i),
            None if valid < ways => {
                *fill += 1;
                (false, valid)
            }
            None => (false, ways - 1),
        };
        for w in (1..=shifted).rev() {
            row[w] = row[w - 1];
        }
        row[0] = tag;
        hit
    }
}
