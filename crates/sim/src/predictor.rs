//! Branch predictors: 2-level local, gshare, and tournament (Table I's
//! three options), implemented with real history and counter tables so
//! predictability differences between loop back-edges, periodic
//! patterns, and irregular data-dependent branches emerge from the
//! structures themselves.

/// A direction predictor.
pub trait BranchPredictor {
    /// Predicts whether the branch at `pc` is taken.
    fn predict(&mut self, pc: u64) -> bool;
    /// Trains with the resolved outcome.
    fn update(&mut self, pc: u64, taken: bool);
}

/// The predictor choice of a core configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredictorKind {
    /// 2-level local-history predictor.
    TwoLevelLocal,
    /// Global-history gshare.
    Gshare,
    /// Alpha-21264-style tournament of the two.
    Tournament,
}

impl PredictorKind {
    /// All predictor options (Table I order).
    pub const ALL: [PredictorKind; 3] = [
        PredictorKind::TwoLevelLocal,
        PredictorKind::Gshare,
        PredictorKind::Tournament,
    ];

    /// Table I display letter (L / G / T).
    pub(crate) fn letter(self) -> char {
        match self {
            PredictorKind::TwoLevelLocal => 'L',
            PredictorKind::Gshare => 'G',
            PredictorKind::Tournament => 'T',
        }
    }

    /// Instantiates the predictor.
    pub fn build(self) -> Box<dyn BranchPredictor + Send> {
        match self {
            PredictorKind::TwoLevelLocal => Box::new(TwoLevelLocal::new()),
            PredictorKind::Gshare => Box::new(Gshare::new()),
            PredictorKind::Tournament => Box::new(Tournament::new()),
        }
    }
}

#[inline]
fn counter_update(c: &mut u8, taken: bool) {
    if taken {
        *c = (*c + 1).min(3);
    } else {
        *c = c.saturating_sub(1);
    }
}

#[inline]
fn counter_taken(c: u8) -> bool {
    c >= 2
}

/// 2-level local predictor: per-branch history indexes a pattern table.
#[derive(Debug, Clone)]
pub struct TwoLevelLocal {
    histories: Vec<u16>,
    patterns: Vec<u8>,
}

const LOCAL_ENTRIES: usize = 1024;
const LOCAL_HISTORY_BITS: u32 = 10;

impl TwoLevelLocal {
    /// Creates the predictor with cleared tables.
    pub(crate) fn new() -> Self {
        TwoLevelLocal {
            histories: vec![0; LOCAL_ENTRIES],
            patterns: vec![1; 1 << LOCAL_HISTORY_BITS],
        }
    }

    fn slot(&self, pc: u64) -> usize {
        (pc >> 2) as usize % LOCAL_ENTRIES
    }
}

impl Default for TwoLevelLocal {
    fn default() -> Self {
        Self::new()
    }
}

impl BranchPredictor for TwoLevelLocal {
    fn predict(&mut self, pc: u64) -> bool {
        let h = self.histories[self.slot(pc)] as usize;
        counter_taken(self.patterns[h])
    }

    fn update(&mut self, pc: u64, taken: bool) {
        let s = self.slot(pc);
        let h = self.histories[s] as usize;
        counter_update(&mut self.patterns[h], taken);
        self.histories[s] =
            ((self.histories[s] << 1) | taken as u16) & ((1 << LOCAL_HISTORY_BITS) - 1);
    }
}

/// gshare: global history XOR pc indexes one counter table.
#[derive(Debug, Clone)]
pub struct Gshare {
    ghr: u64,
    counters: Vec<u8>,
}

const GSHARE_BITS: u32 = 12;

impl Gshare {
    /// Creates the predictor with cleared tables.
    pub(crate) fn new() -> Self {
        Gshare {
            ghr: 0,
            counters: vec![1; 1 << GSHARE_BITS],
        }
    }

    fn index(&self, pc: u64) -> usize {
        (((pc >> 2) ^ self.ghr) as usize) & ((1 << GSHARE_BITS) - 1)
    }
}

impl Default for Gshare {
    fn default() -> Self {
        Self::new()
    }
}

impl BranchPredictor for Gshare {
    fn predict(&mut self, pc: u64) -> bool {
        counter_taken(self.counters[self.index(pc)])
    }

    fn update(&mut self, pc: u64, taken: bool) {
        let i = self.index(pc);
        counter_update(&mut self.counters[i], taken);
        self.ghr = ((self.ghr << 1) | taken as u64) & ((1 << GSHARE_BITS) - 1);
    }
}

/// Tournament: a chooser selects between the local and global
/// components per branch.
#[derive(Debug, Clone)]
pub struct Tournament {
    local: TwoLevelLocal,
    global: Gshare,
    chooser: Vec<u8>,
}

impl Tournament {
    /// Creates the predictor with cleared tables.
    pub(crate) fn new() -> Self {
        Tournament {
            local: TwoLevelLocal::new(),
            global: Gshare::new(),
            chooser: vec![2; 4096],
        }
    }

    fn choose_slot(&self, pc: u64) -> usize {
        (pc >> 2) as usize % self.chooser.len()
    }
}

impl Default for Tournament {
    fn default() -> Self {
        Self::new()
    }
}

impl BranchPredictor for Tournament {
    fn predict(&mut self, pc: u64) -> bool {
        let use_global = counter_taken(self.chooser[self.choose_slot(pc)]);
        if use_global {
            self.global.predict(pc)
        } else {
            self.local.predict(pc)
        }
    }

    fn update(&mut self, pc: u64, taken: bool) {
        let lp = self.local.predict(pc);
        let gp = self.global.predict(pc);
        let s = self.choose_slot(pc);
        if lp != gp {
            counter_update(&mut self.chooser[s], gp == taken);
        }
        self.local.update(pc, taken);
        self.global.update(pc, taken);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn accuracy(p: &mut dyn BranchPredictor, seq: &[(u64, bool)]) -> f64 {
        let mut correct = 0;
        for &(pc, taken) in seq {
            if p.predict(pc) == taken {
                correct += 1;
            }
            p.update(pc, taken);
        }
        correct as f64 / seq.len() as f64
    }

    fn loop_sequence(trip: usize, n: usize) -> Vec<(u64, bool)> {
        let mut s = Vec::new();
        for _ in 0..n {
            for i in 0..trip {
                s.push((0x400100, i != trip - 1));
            }
        }
        s
    }

    #[test]
    fn all_predict_loops_well() {
        for kind in PredictorKind::ALL {
            let mut p = kind.build();
            let acc = accuracy(p.as_mut(), &loop_sequence(50, 200));
            assert!(acc > 0.93, "{kind:?} loop accuracy {acc}");
        }
    }

    #[test]
    fn local_learns_short_periodic_patterns() {
        // Period-4 pattern: T T N T repeated.
        let pat = [true, true, false, true];
        let seq: Vec<(u64, bool)> = (0..4000).map(|i| (0x400200, pat[i % 4])).collect();
        let mut p = TwoLevelLocal::new();
        let acc = accuracy(&mut p, &seq);
        assert!(acc > 0.95, "local periodic accuracy {acc}");
    }

    #[test]
    fn random_branches_defeat_everyone() {
        let mut rng = SmallRng::seed_from_u64(3);
        let seq: Vec<(u64, bool)> = (0..20_000).map(|_| (0x400300, rng.gen::<bool>())).collect();
        for kind in PredictorKind::ALL {
            let mut p = kind.build();
            let acc = accuracy(p.as_mut(), &seq);
            assert!((0.4..0.6).contains(&acc), "{kind:?} random accuracy {acc}");
        }
    }

    #[test]
    fn gshare_learns_global_correlation() {
        // Branch B's outcome equals branch A's previous outcome:
        // global history captures it, local history (on B alone, an
        // alternating pattern at half rate) also can — so instead
        // check gshare beats a coin flip substantially.
        let mut rng = SmallRng::seed_from_u64(9);
        let mut seq = Vec::new();
        let mut last_a = false;
        for _ in 0..10_000 {
            let a = rng.gen::<bool>();
            seq.push((0x400400, a));
            seq.push((0x400500, last_a));
            last_a = a;
        }
        let mut g = Gshare::new();
        let acc = accuracy(&mut g, &seq);
        assert!(acc > 0.70, "gshare correlated accuracy {acc}");
    }

    #[test]
    fn tournament_tracks_the_better_component() {
        // Mixture: one strongly periodic branch plus one correlated
        // pair; the tournament should be at least as good as the worse
        // component on the blend.
        let pat = [true, false, true, true, false];
        let mut rng = SmallRng::seed_from_u64(11);
        let mut seq = Vec::new();
        let mut last = false;
        for i in 0..8000 {
            seq.push((0x400600, pat[i % 5]));
            let a = rng.gen::<bool>();
            seq.push((0x400700, a));
            seq.push((0x400800, last));
            last = a;
        }
        let mut t = Tournament::new();
        let mut l = TwoLevelLocal::new();
        let mut g = Gshare::new();
        let at = accuracy(&mut t, &seq);
        let al = accuracy(&mut l, &seq.clone());
        let ag = accuracy(&mut g, &seq.clone());
        assert!(
            at + 0.02 >= al.min(ag),
            "tournament {at} vs local {al} / gshare {ag}"
        );
        assert!(at > 0.6);
    }

    #[test]
    fn predictor_letters() {
        assert_eq!(PredictorKind::TwoLevelLocal.letter(), 'L');
        assert_eq!(PredictorKind::Gshare.letter(), 'G');
        assert_eq!(PredictorKind::Tournament.letter(), 'T');
    }
}
