//! Multicore design search: objectives, budgets, schedulers, and the
//! multi-seed local search (the paper's own results are local optima of
//! a 102.5-trillion-point space, and so are ours).
//!
//! [`search`] is what every budget sweep calls: Figures 5-6 (throughput
//! and EDP under power/area budgets), Figures 7-8 (single-thread),
//! Figure 9 (feature-constrained searches) and Tables III-IV (the
//! winning compositions) are all its output under different
//! [`Objective`]/[`Budget`] pairs. The search itself is parallel —
//! identical-core and small pools are scanned exhaustively, large pools
//! run multi-start iterated local search over [`par_map`] — and returns
//! the same result at any thread count.

use cisa_isa::VendorIsa;
use cisa_workloads::all_benchmarks;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::interval::PhasePerf;
use crate::profile::reference_ooo;
use crate::runner::{par_map, threads};
use crate::space::{DesignId, DesignSpace};
use crate::table::PerfTable;

/// One core slot of a multicore: a composite design point or a
/// vendor-ISA core (for the heterogeneous-ISA baseline).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CoreChoice {
    /// A composite-ISA design point.
    Composite(DesignId),
    /// A vendor-ISA core: `(vendor, microarch index)`.
    Vendor(VendorIsa, u16),
}

impl CoreChoice {
    /// Short description for tables.
    pub fn describe(&self, space: &DesignSpace) -> String {
        match self {
            CoreChoice::Composite(id) => space.config(*id).describe(),
            CoreChoice::Vendor(v, ua) => {
                format!(
                    "{v} {}",
                    space.microarchs[*ua as usize]
                        .with_fs(v.x86ized())
                        .describe()
                )
            }
        }
    }
}

/// Budget constraint on a 4-core multicore.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Peak-power budget in W. For multiprogrammed objectives all four
    /// cores are on (sum constraint); for single-thread objectives only
    /// one core is powered at a time (max constraint — the dynamic
    /// multicore topology of the paper).
    PeakPower(f64),
    /// Area budget in mm^2 over the four cores (the shared L2 is
    /// budgeted separately at chip level, as with the power budgets).
    Area(f64),
    /// Unlimited.
    Unlimited,
}

/// Search objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Multiprogrammed throughput (higher is better).
    Throughput,
    /// Multiprogrammed energy-delay product (scored as improvement over
    /// the reference, higher is better).
    Edp,
    /// Single-thread performance via migration across the four cores.
    SingleThread,
    /// Single-thread EDP.
    SingleEdp,
}

impl Objective {
    /// Whether only one core is active at a time (dynamic multicore
    /// topology).
    pub fn single_thread(self) -> bool {
        matches!(self, Objective::SingleThread | Objective::SingleEdp)
    }
}

/// Evaluation machinery shared by all searches.
pub struct Evaluator<'a> {
    /// The design space.
    pub space: &'a DesignSpace,
    /// The evaluated table.
    pub table: &'a PerfTable,
    /// Phase indices per benchmark.
    pub bench_phases: Vec<Vec<usize>>,
    /// Benchmark index (in `all_benchmarks` order) of each
    /// `bench_phases` entry.
    pub bench_ids: Vec<u8>,
    /// Reference core time per phase (for normalization).
    pub ref_time: Vec<f64>,
    /// Reference core energy per phase.
    pub ref_energy: Vec<f64>,
    /// 4-benchmark combinations evaluated per objective call.
    pub combos: Vec<[u8; 4]>,
    /// Steps per combination.
    pub steps: usize,
}

impl<'a> Evaluator<'a> {
    /// Builds an evaluator with `n_combos` sampled 4-benchmark mixes.
    pub fn new(space: &'a DesignSpace, table: &'a PerfTable, n_combos: usize) -> Self {
        // Group the table's phase rows by benchmark (the table records
        // which benchmark each row belongs to, so truncated tables work
        // too).
        let n_benchmarks = all_benchmarks().len();
        let mut grouped: Vec<Vec<usize>> = vec![Vec::new(); n_benchmarks];
        for (pi, &b) in table.phase_benchmarks.iter().enumerate() {
            grouped[b as usize].push(pi);
        }
        let mut bench_phases = Vec::new();
        let mut bench_ids = Vec::new();
        for (b, phases) in grouped.into_iter().enumerate() {
            if !phases.is_empty() {
                bench_phases.push(phases);
                bench_ids.push(b as u8);
            }
        }

        // Reference design: the calibration OoO core on x86-64.
        let ref_id = reference_design(space);
        let mut ref_time = Vec::with_capacity(table.n_phases);
        let mut ref_energy = Vec::with_capacity(table.n_phases);
        for p in 0..table.n_phases {
            let perf = table.get(p, ref_id);
            ref_time.push(perf.cycles_per_unit);
            ref_energy.push(perf.energy_per_unit);
        }

        // All C(n,4) benchmark combinations, deterministically sampled
        // down to n_combos.
        let nb = bench_phases.len();
        let mut combos = Vec::new();
        for a in 0..nb {
            for b in a..nb {
                for c in b..nb {
                    for d in c..nb {
                        if nb >= 4 && (a == b || b == c || c == d) {
                            continue;
                        }
                        combos.push([a as u8, b as u8, c as u8, d as u8]);
                    }
                }
            }
        }
        if combos.is_empty() {
            combos.push([0, 0, 0, 0]);
        }
        let mut rng = SmallRng::seed_from_u64(0x5EED);
        while combos.len() > n_combos.max(1) {
            let i = rng.gen_range(0..combos.len());
            combos.swap_remove(i);
        }
        combos.sort();

        Evaluator {
            space,
            table,
            bench_phases,
            bench_ids,
            ref_time,
            ref_energy,
            combos,
            steps: 4,
        }
    }

    /// Performance/energy of a core on a phase.
    #[inline]
    pub fn perf(&self, phase: usize, core: &CoreChoice) -> PhasePerf {
        match core {
            CoreChoice::Composite(id) => self.table.get(phase, *id),
            CoreChoice::Vendor(v, ua) => self.table.vendor(phase, *v, *ua as usize),
        }
    }

    /// `(area_mm2, peak_power_w)` of a core (vendor cores are budgeted
    /// as their x86-ized equivalents).
    pub fn budget(&self, core: &CoreChoice) -> (f64, f64) {
        match core {
            CoreChoice::Composite(id) => self.space.budget(*id),
            CoreChoice::Vendor(v, ua) => {
                let fs_idx = self
                    .space
                    .feature_sets
                    .iter()
                    .position(|f| *f == v.x86ized())
                    .expect("x86-ized set exists") as u16;
                self.space.budget(DesignId {
                    fs: fs_idx,
                    ua: *ua,
                })
            }
        }
    }

    /// Whether a 4-core chip fits a budget under an objective.
    pub fn feasible(&self, cores: &[CoreChoice; 4], budget: Budget, objective: Objective) -> bool {
        match budget {
            Budget::Unlimited => true,
            Budget::PeakPower(w) => {
                let powers = cores.map(|c| self.budget(&c).1);
                if objective.single_thread() {
                    powers.iter().copied().fold(0.0f64, f64::max) <= w
                } else {
                    powers.iter().sum::<f64>() <= w
                }
            }
            Budget::Area(a) => {
                let total: f64 = cores.iter().map(|c| self.budget(c).0).sum();
                total <= a
            }
        }
    }

    /// Scores a multicore under an objective; higher is better.
    pub fn score(&self, cores: &[CoreChoice; 4], objective: Objective) -> f64 {
        match objective {
            Objective::Throughput => self.throughput(cores),
            Objective::Edp => self.multi_edp_gain(cores),
            Objective::SingleThread => self.single_thread_speedup(cores),
            Objective::SingleEdp => self.single_edp_gain(cores),
        }
    }

    /// Mean normalized multiprogrammed throughput over the workload
    /// mixes, with an optimal thread-to-core assignment per step.
    pub fn throughput(&self, cores: &[CoreChoice; 4]) -> f64 {
        let mut total = 0.0;
        let mut count = 0usize;
        for combo in &self.combos {
            for step in 0..self.steps {
                let phases = combo.map(|b| {
                    let ps = &self.bench_phases[b as usize];
                    ps[step % ps.len()]
                });
                // speed_norm[thread][core]
                let mut s = [[0.0f64; 4]; 4];
                for (t, &p) in phases.iter().enumerate() {
                    for (c, core) in cores.iter().enumerate() {
                        s[t][c] = self.ref_time[p] / self.perf(p, core).cycles_per_unit;
                    }
                }
                total += best_assignment_sum(&s) / 4.0;
                count += 1;
            }
        }
        total / count as f64
    }

    /// Multiprogrammed EDP improvement over the reference homogeneous
    /// chip (higher is better).
    pub fn multi_edp_gain(&self, cores: &[CoreChoice; 4]) -> f64 {
        let ref_id = reference_design(self.space);
        let ref_cores = [CoreChoice::Composite(ref_id); 4];
        let ours = self.multi_edp_raw(cores);
        let base = self.multi_edp_raw(&ref_cores);
        base / ours
    }

    /// Raw multiprogrammed EDP (energy x time, arbitrary units).
    pub fn multi_edp_raw(&self, cores: &[CoreChoice; 4]) -> f64 {
        let mut total_edp = 0.0;
        for combo in &self.combos {
            let mut energy = 0.0;
            let mut time = 0.0;
            for step in 0..self.steps {
                let phases = combo.map(|b| {
                    let ps = &self.bench_phases[b as usize];
                    ps[step % ps.len()]
                });
                // Evaluate all 24 assignments, pick the one minimizing
                // the step's energy x time.
                let mut best = f64::INFINITY;
                let mut best_et = (0.0, 0.0);
                permute4(|perm| {
                    let mut step_time = 0.0f64;
                    let mut step_energy = 0.0f64;
                    for (t, &p) in phases.iter().enumerate() {
                        let perf = self.perf(p, &cores[perm[t]]);
                        step_time = step_time.max(perf.cycles_per_unit);
                        step_energy += perf.energy_per_unit;
                    }
                    // Idle energy of early-finishing cores.
                    for (t, &p) in phases.iter().enumerate() {
                        let perf = self.perf(p, &cores[perm[t]]);
                        let idle_cycles = step_time - perf.cycles_per_unit;
                        let (_, peak) = self.budget(&cores[perm[t]]);
                        step_energy += 0.3 * peak * idle_cycles / cisa_power::CLOCK_HZ;
                    }
                    let cost = step_energy * step_time;
                    if cost < best {
                        best = cost;
                        best_et = (step_energy, step_time);
                    }
                });
                energy += best_et.0;
                time += best_et.1;
            }
            total_edp += energy * time;
        }
        total_edp / self.combos.len() as f64
    }

    /// Cycles charged when a single thread migrates between two cores
    /// at a phase boundary. Composite-ISA cores share one encoding, so
    /// migration is a register-state move plus cache warmup; disjoint
    /// vendor ISAs pay binary translation and full state transformation
    /// (the paper's Figure 8 observation that Thumb <-> x86-64 moves are
    /// non-trivial).
    pub fn migration_cycles(&self, from: &CoreChoice, to: &CoreChoice) -> f64 {
        if from == to {
            return 0.0;
        }
        match (from, to) {
            (CoreChoice::Vendor(a, _), CoreChoice::Vendor(b, _)) if a != b => 3_000_000.0,
            _ => 30_000.0,
        }
    }

    /// Mean single-thread speedup (migrating to the best core per
    /// phase) over the reference core, with migration costs charged at
    /// every phase boundary where the best core changes. Each phase
    /// amortizes its migration over `SINGLE_THREAD_UNITS` units of work
    /// (SimPoint intervals are long).
    pub fn single_thread_speedup(&self, cores: &[CoreChoice; 4]) -> f64 {
        const SINGLE_THREAD_UNITS: f64 = 50.0;
        let mut total = 0.0;
        for phases in &self.bench_phases {
            let mut t_ref = 0.0;
            let mut t_best = 0.0;
            let mut prev: Option<&CoreChoice> = None;
            for &p in phases {
                t_ref += self.ref_time[p] * SINGLE_THREAD_UNITS;
                let best = cores
                    .iter()
                    .min_by(|a, b| {
                        self.perf(p, a)
                            .cycles_per_unit
                            .partial_cmp(&self.perf(p, b).cycles_per_unit)
                            .expect("finite")
                    })
                    .expect("four cores");
                t_best += self.perf(p, best).cycles_per_unit * SINGLE_THREAD_UNITS;
                if let Some(prev) = prev {
                    t_best += self.migration_cycles(prev, best);
                }
                prev = Some(best);
            }
            total += t_ref / t_best;
        }
        total / self.bench_phases.len() as f64
    }

    /// Single-thread EDP improvement over the reference core.
    pub fn single_edp_gain(&self, cores: &[CoreChoice; 4]) -> f64 {
        let mut total = 0.0;
        for phases in &self.bench_phases {
            let mut e_ref = 0.0;
            let mut t_ref = 0.0;
            let mut e = 0.0;
            let mut t = 0.0;
            for &p in phases {
                e_ref += self.ref_energy[p];
                t_ref += self.ref_time[p];
                // Choose the core minimizing this phase's energy-time
                // product (the greedy EDP schedule).
                let best = cores
                    .iter()
                    .map(|c| self.perf(p, c))
                    .min_by(|a, b| {
                        (a.energy_per_unit * a.cycles_per_unit)
                            .partial_cmp(&(b.energy_per_unit * b.cycles_per_unit))
                            .expect("finite")
                    })
                    .expect("four cores");
                e += best.energy_per_unit;
                t += best.cycles_per_unit;
            }
            total += (e_ref * t_ref) / (e * t);
        }
        total / self.bench_phases.len() as f64
    }
}

/// The fixed reference design: the calibration OoO core with the plain
/// x86-64 feature set.
pub fn reference_design(space: &DesignSpace) -> DesignId {
    let fs = space
        .feature_sets
        .iter()
        .position(|f| *f == cisa_isa::FeatureSet::x86_64())
        .expect("x86-64 in space") as u16;
    let ref_cfg = reference_ooo(cisa_isa::FeatureSet::x86_64());
    let ua = space
        .microarchs
        .iter()
        .position(|u| {
            u.sem == ref_cfg.sem
                && u.width == ref_cfg.width
                && u.predictor == ref_cfg.predictor
                && u.int_alu == ref_cfg.int_alu
                && u.fp_alu == ref_cfg.fp_alu
                && u.l1_kb == ref_cfg.l1_kb
                && u.l2_kb == ref_cfg.l2_kb
                && u.window.rob == ref_cfg.window.rob
        })
        .expect("reference microarch in space") as u16;
    DesignId { fs, ua }
}

/// Calls `f` with every permutation of `[0,1,2,3]` (the 4x4
/// thread-to-core assignment space).
pub fn permute4(mut f: impl FnMut(&[usize; 4])) {
    const PERMS: [[usize; 4]; 24] = [
        [0, 1, 2, 3],
        [0, 1, 3, 2],
        [0, 2, 1, 3],
        [0, 2, 3, 1],
        [0, 3, 1, 2],
        [0, 3, 2, 1],
        [1, 0, 2, 3],
        [1, 0, 3, 2],
        [1, 2, 0, 3],
        [1, 2, 3, 0],
        [1, 3, 0, 2],
        [1, 3, 2, 0],
        [2, 0, 1, 3],
        [2, 0, 3, 1],
        [2, 1, 0, 3],
        [2, 1, 3, 0],
        [2, 3, 0, 1],
        [2, 3, 1, 0],
        [3, 0, 1, 2],
        [3, 0, 2, 1],
        [3, 1, 0, 2],
        [3, 1, 2, 0],
        [3, 2, 0, 1],
        [3, 2, 1, 0],
    ];
    for p in &PERMS {
        f(p);
    }
}

/// Best-assignment total of a 4x4 score matrix (maximization).
fn best_assignment_sum(s: &[[f64; 4]; 4]) -> f64 {
    let mut best = f64::NEG_INFINITY;
    permute4(|perm| {
        let sum = (0..4).map(|t| s[t][perm[t]]).sum::<f64>();
        if sum > best {
            best = sum;
        }
    });
    best
}

/// Search configuration.
#[derive(Debug, Clone, Copy)]
pub struct SearchConfig {
    /// Random restarts in addition to the greedy seed.
    pub restarts: u32,
    /// Hill-climbing pass cap.
    pub max_passes: u32,
    /// Candidate pool cap after proxy ranking.
    pub pool_cap: usize,
    /// Force all four cores identical (the homogeneous baseline).
    pub identical: bool,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            restarts: 2,
            max_passes: 12,
            pool_cap: 140,
            identical: false,
        }
    }
}

/// Result of a multicore search.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// The chosen cores.
    pub cores: [CoreChoice; 4],
    /// Objective score (higher is better).
    pub score: f64,
}

/// Searches for the best 4-core multicore from `candidates` under a
/// budget and objective. Greedy construction plus multi-seed local
/// search (slot-wise replacement until a fixed point).
pub fn search(
    eval: &Evaluator<'_>,
    candidates: &[CoreChoice],
    objective: Objective,
    budget: Budget,
    config: &SearchConfig,
) -> Option<SearchResult> {
    search_with_seeds(eval, candidates, objective, budget, config, &[])
}

/// [`search`] with additional warm-start chips (used by the
/// composite-ISA search to start from the best designs of its subset
/// organizations, guaranteeing it never falls below them).
pub fn search_with_seeds(
    eval: &Evaluator<'_>,
    candidates: &[CoreChoice],
    objective: Objective,
    budget: Budget,
    config: &SearchConfig,
    warm_starts: &[[CoreChoice; 4]],
) -> Option<SearchResult> {
    let _search = cisa_obs::span("search");
    cisa_obs::counter("search/runs", 1);
    // Individually infeasible candidates can never appear: a core must
    // leave room for three of the cheapest cores.
    let min_power = candidates
        .iter()
        .map(|c| eval.budget(c).1)
        .fold(f64::INFINITY, f64::min);
    let min_area = candidates
        .iter()
        .map(|c| eval.budget(c).0)
        .fold(f64::INFINITY, f64::min);
    let feasible_one = |c: &CoreChoice| -> bool {
        match budget {
            Budget::Unlimited => true,
            Budget::PeakPower(w) => {
                if objective.single_thread() {
                    eval.budget(c).1 <= w
                } else {
                    eval.budget(c).1 + 3.0 * min_power <= w
                }
            }
            Budget::Area(a) => eval.budget(c).0 + 3.0 * min_area <= a,
        }
    };
    let mut pool: Vec<CoreChoice> = candidates.iter().copied().filter(feasible_one).collect();
    if pool.is_empty() {
        return None;
    }

    // Proxy-rank the pool: mean normalized speed and energy efficiency
    // across phases, relative to cost.
    let proxy = |c: &CoreChoice| -> f64 {
        let mut speed = 0.0;
        let mut eff = 0.0;
        for p in 0..eval.table.n_phases {
            let perf = eval.perf(p, c);
            speed += eval.ref_time[p] / perf.cycles_per_unit;
            eff += eval.ref_energy[p] / perf.energy_per_unit;
        }
        match objective {
            Objective::Throughput | Objective::SingleThread => speed,
            Objective::Edp | Objective::SingleEdp => speed * eff,
        }
    };
    pool.sort_by(|a, b| proxy(b).partial_cmp(&proxy(a)).expect("finite proxy"));
    // Keep the head of the ranking plus per-phase specialists and the
    // best design of every feature set (so a big candidate pool cannot
    // crowd out the designs a smaller system organization would find).
    let mut kept: Vec<CoreChoice> = pool.iter().take(config.pool_cap).copied().collect();
    {
        let mut seen_fs: Vec<(cisa_isa::FeatureSet, u32)> = Vec::new();
        for c in &pool {
            let fs = match c {
                CoreChoice::Composite(id) => eval.space.feature_sets[id.fs as usize],
                CoreChoice::Vendor(v, _) => v.x86ized(),
            };
            let count = seen_fs.iter_mut().find(|(f, _)| *f == fs);
            match count {
                Some((_, n)) if *n >= 4 => continue,
                Some((_, n)) => *n += 1,
                None => seen_fs.push((fs, 1)),
            }
            if !kept.contains(c) {
                kept.push(*c);
            }
        }
    }
    for p in 0..eval.table.n_phases {
        if let Some(best) = pool.iter().min_by(|a, b| {
            eval.perf(p, a)
                .cycles_per_unit
                .partial_cmp(&eval.perf(p, b).cycles_per_unit)
                .expect("finite")
        }) {
            if !kept.contains(best) {
                kept.push(*best);
            }
        }
    }
    // Always keep the cheapest cores so tight budgets have feasible
    // seeds (and EDP searches can trade down).
    let mut by_power: Vec<CoreChoice> = pool.clone();
    by_power.sort_by(|a, b| {
        eval.budget(a)
            .1
            .partial_cmp(&eval.budget(b).1)
            .expect("finite power")
    });
    let mut by_area: Vec<CoreChoice> = pool.clone();
    by_area.sort_by(|a, b| {
        eval.budget(a)
            .0
            .partial_cmp(&eval.budget(b).0)
            .expect("finite area")
    });
    for c in by_power.iter().take(24).chain(by_area.iter().take(24)) {
        if !kept.contains(c) {
            kept.push(*c);
        }
    }
    let pool = kept;

    let score_of = |cores: &[CoreChoice; 4]| -> f64 {
        if !eval.feasible(cores, budget, objective) {
            return f64::NEG_INFINITY;
        }
        eval.score(cores, objective)
    };

    // Identical mode is exact by construction: one pass over the pool
    // scores every homogeneous chip.
    if config.identical {
        cisa_obs::counter("search/exhaustive_chips", pool.len() as u64);
        let mut best: Option<SearchResult> = None;
        for c in &pool {
            let chip = [*c; 4];
            let s = score_of(&chip);
            if s.is_finite() && best.as_ref().is_none_or(|b| s > b.score) {
                best = Some(SearchResult {
                    cores: chip,
                    score: s,
                });
            }
        }
        return best;
    }

    // Small pools: exhaustive multiset enumeration, parallel over the
    // first slot. This is the true optimum (the pruning above keeps the
    // whole candidate set when it is this small), so local-search
    // quality is not a concern here.
    let n = pool.len();
    if n * (n + 1) * (n + 2) * (n + 3) / 24 <= 20_000 {
        cisa_obs::counter(
            "search/exhaustive_chips",
            (n * (n + 1) * (n + 2) * (n + 3) / 24) as u64,
        );
        let firsts: Vec<usize> = (0..n).collect();
        let per_first = par_map(&firsts, threads(), |&a| {
            let mut local: Option<SearchResult> = None;
            for b in a..n {
                for c in b..n {
                    for d in c..n {
                        let chip = [pool[a], pool[b], pool[c], pool[d]];
                        let s = score_of(&chip);
                        if s.is_finite() && local.as_ref().is_none_or(|l| s > l.score) {
                            local = Some(SearchResult {
                                cores: chip,
                                score: s,
                            });
                        }
                    }
                }
            }
            local
        });
        // Order-preserving reduction: strictly-greater wins, so ties go
        // to the earliest enumeration index at any thread count.
        let mut best: Option<SearchResult> = None;
        for r in per_first.into_iter().flatten() {
            if best.as_ref().is_none_or(|b| r.score > b.score) {
                best = Some(r);
            }
        }
        for w in warm_starts {
            let s = score_of(w);
            if s.is_finite() && best.as_ref().is_none_or(|b| s > b.score) {
                best = Some(SearchResult {
                    cores: *w,
                    score: s,
                });
            }
        }
        return best;
    }

    // Large pools: parallel multi-start iterated local search. Every
    // start is deterministic (random starts derive a private RNG from
    // their start index), and the reduction prefers the earliest start
    // on ties, so the result is identical at any thread count.
    let cheapest = *pool
        .iter()
        .min_by(|a, b| {
            eval.budget(a)
                .1
                .partial_cmp(&eval.budget(b).1)
                .expect("finite")
        })
        .expect("pool non-empty");
    // Best homogeneous-feasible chip: makes the search at least as good
    // as the best homogeneous design of any feature set.
    let best_hom = pool
        .iter()
        .map(|c| ([*c; 4], score_of(&[*c; 4])))
        .filter(|(_, s)| s.is_finite())
        .max_by(|(_, a), (_, b)| a.partial_cmp(b).expect("finite"))
        .map(|(chip, _)| chip);

    /// How one multi-start attempt begins.
    enum Start {
        /// Four copies of the cheapest core (greedy upgrades follow).
        Cheapest,
        /// The best homogeneous chip.
        BestHom,
        /// A random chip from a private seeded RNG.
        Random(u64),
        /// A caller-provided warm-start chip.
        Warm(usize),
    }
    let mut starts: Vec<Start> = vec![Start::Cheapest, Start::BestHom];
    for r in 0..config.restarts {
        starts.push(Start::Random(r as u64));
    }
    for w in 0..warm_starts.len() {
        starts.push(Start::Warm(w));
    }

    let climb = |cores: &mut [CoreChoice; 4], cur: &mut f64| {
        for _ in 0..config.max_passes {
            cisa_obs::counter("search/climb_passes", 1);
            let mut improved = false;
            for slot in 0..4 {
                let mut best_slot = cores[slot];
                let mut best_score = *cur;
                for cand in &pool {
                    let mut trial = *cores;
                    trial[slot] = *cand;
                    let s = score_of(&trial);
                    if s > best_score {
                        best_score = s;
                        best_slot = *cand;
                    }
                }
                if best_score > *cur {
                    cores[slot] = best_slot;
                    *cur = best_score;
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }
    };

    /// Perturbation rounds per start (escapes single-slot local optima;
    /// each round re-climbs from a 2-slot random kick).
    const ILS_KICKS: usize = 6;

    cisa_obs::counter("search/starts", starts.len() as u64);
    let results = par_map(&starts, threads(), |start| {
        let (mut cores, mut rng) = match start {
            Start::Cheapest => ([cheapest; 4], SmallRng::seed_from_u64(0xD5E)),
            Start::BestHom => (
                best_hom.unwrap_or([cheapest; 4]),
                SmallRng::seed_from_u64(0xD5E ^ 1),
            ),
            Start::Random(r) => {
                let mut rng = SmallRng::seed_from_u64(0xD5E ^ (r + 2).wrapping_mul(0x9E37_79B9));
                let mut c = [cheapest; 4];
                for slot in &mut c {
                    *slot = pool[rng.gen_range(0..pool.len())];
                }
                if !eval.feasible(&c, budget, objective) {
                    c = [cheapest; 4];
                }
                (c, rng)
            }
            Start::Warm(w) => (
                warm_starts[*w],
                SmallRng::seed_from_u64(0xD5E ^ (*w as u64 + 100).wrapping_mul(0x9E37_79B9)),
            ),
        };
        if !eval.feasible(&cores, budget, objective) {
            return None;
        }
        let mut cur = score_of(&cores);
        climb(&mut cores, &mut cur);
        // Iterated local search: kick two slots, re-climb, keep wins.
        for _ in 0..ILS_KICKS {
            let mut trial = cores;
            trial[rng.gen_range(0..4usize)] = pool[rng.gen_range(0..pool.len())];
            trial[rng.gen_range(0..4usize)] = pool[rng.gen_range(0..pool.len())];
            if !eval.feasible(&trial, budget, objective) {
                continue;
            }
            cisa_obs::counter("search/kicks", 1);
            let mut trial_score = score_of(&trial);
            climb(&mut trial, &mut trial_score);
            if trial_score > cur {
                cores = trial;
                cur = trial_score;
            }
        }
        cur.is_finite()
            .then_some(SearchResult { cores, score: cur })
    });

    let mut best: Option<SearchResult> = None;
    for r in results.into_iter().flatten() {
        if best.as_ref().is_none_or(|b| r.score > b.score) {
            best = Some(r);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::SweepRunner;
    use crate::table::PerfTable;
    use cisa_workloads::all_phases;
    use std::sync::OnceLock;

    /// A shared small table over 4 phases (one per benchmark class).
    fn fixtures() -> &'static (DesignSpace, PerfTable) {
        static CELL: OnceLock<(DesignSpace, PerfTable)> = OnceLock::new();
        CELL.get_or_init(|| {
            let space = DesignSpace::new();
            let phases: Vec<_> = all_phases().into_iter().filter(|p| p.index == 0).collect();
            let (table, _) = PerfTable::build(&space, &phases, &SweepRunner::default());
            (space, table)
        })
    }

    fn composite_candidates(space: &DesignSpace) -> Vec<CoreChoice> {
        space.ids().map(CoreChoice::Composite).collect()
    }

    #[test]
    fn search_respects_power_budget() {
        let (space, table) = fixtures();
        let eval = Evaluator::new(space, table, 8);
        let cands = composite_candidates(space);
        let cfg = SearchConfig {
            pool_cap: 60,
            restarts: 1,
            ..Default::default()
        };
        let r = search(
            &eval,
            &cands,
            Objective::Throughput,
            Budget::PeakPower(40.0),
            &cfg,
        )
        .expect("feasible");
        let total: f64 = r.cores.iter().map(|c| eval.budget(c).1).sum();
        assert!(total <= 40.0, "power {total} over budget");
        assert!(r.score > 0.0);
    }

    #[test]
    fn bigger_budget_never_scores_worse() {
        let (space, table) = fixtures();
        let eval = Evaluator::new(space, table, 8);
        let cands = composite_candidates(space);
        let cfg = SearchConfig {
            pool_cap: 60,
            restarts: 1,
            ..Default::default()
        };
        let tight = search(
            &eval,
            &cands,
            Objective::Throughput,
            Budget::PeakPower(20.0),
            &cfg,
        )
        .expect("feasible")
        .score;
        let loose = search(
            &eval,
            &cands,
            Objective::Throughput,
            Budget::PeakPower(60.0),
            &cfg,
        )
        .expect("feasible")
        .score;
        assert!(
            loose >= tight * 0.999,
            "more budget can't hurt: {tight} -> {loose}"
        );
    }

    #[test]
    fn composite_beats_single_isa_heterogeneous() {
        // The paper's headline: feature diversity adds performance over
        // hardware heterogeneity alone, under a tight budget.
        let (space, table) = fixtures();
        let eval = Evaluator::new(space, table, 8);
        let all = composite_candidates(space);
        let x86_idx = space
            .feature_sets
            .iter()
            .position(|f| *f == cisa_isa::FeatureSet::x86_64())
            .unwrap() as u16;
        let single_isa: Vec<CoreChoice> = space
            .ids()
            .filter(|id| id.fs == x86_idx)
            .map(CoreChoice::Composite)
            .collect();
        let cfg = SearchConfig {
            pool_cap: 80,
            ..Default::default()
        };
        let budget = Budget::PeakPower(20.0);
        let composite = search(&eval, &all, Objective::Throughput, budget, &cfg)
            .expect("feasible")
            .score;
        let single = search(&eval, &single_isa, Objective::Throughput, budget, &cfg)
            .expect("feasible")
            .score;
        assert!(
            composite >= single,
            "composite {composite} must match/beat single-ISA {single}"
        );
    }

    #[test]
    fn identical_mode_builds_homogeneous_chips() {
        let (space, table) = fixtures();
        let eval = Evaluator::new(space, table, 6);
        let x86_idx = space
            .feature_sets
            .iter()
            .position(|f| *f == cisa_isa::FeatureSet::x86_64())
            .unwrap() as u16;
        let cands: Vec<CoreChoice> = space
            .ids()
            .filter(|id| id.fs == x86_idx)
            .map(CoreChoice::Composite)
            .collect();
        let cfg = SearchConfig {
            identical: true,
            pool_cap: 50,
            ..Default::default()
        };
        let r = search(
            &eval,
            &cands,
            Objective::Throughput,
            Budget::PeakPower(40.0),
            &cfg,
        )
        .expect("feasible");
        assert!(
            r.cores.iter().all(|c| *c == r.cores[0]),
            "must be homogeneous"
        );
    }

    #[test]
    fn single_thread_budget_is_per_core() {
        let (space, table) = fixtures();
        let eval = Evaluator::new(space, table, 6);
        let cands = composite_candidates(space);
        let cfg = SearchConfig {
            pool_cap: 60,
            ..Default::default()
        };
        // 10W: no single core may exceed it, but four such cores are
        // allowed (only one is on at a time).
        let r = search(
            &eval,
            &cands,
            Objective::SingleThread,
            Budget::PeakPower(10.0),
            &cfg,
        )
        .expect("feasible");
        for c in &r.cores {
            assert!(eval.budget(c).1 <= 10.0);
        }
    }

    #[test]
    fn edp_objective_prefers_efficient_chips() {
        let (space, table) = fixtures();
        let eval = Evaluator::new(space, table, 6);
        let cands = composite_candidates(space);
        let cfg = SearchConfig {
            pool_cap: 60,
            ..Default::default()
        };
        let r = search(&eval, &cands, Objective::Edp, Budget::Area(80.0), &cfg).expect("feasible");
        assert!(r.score > 0.6, "EDP gain {}", r.score);
    }

    #[test]
    fn infeasible_budget_returns_none() {
        let (space, table) = fixtures();
        let eval = Evaluator::new(space, table, 4);
        let cands = composite_candidates(space);
        let r = search(
            &eval,
            &cands,
            Objective::Throughput,
            Budget::PeakPower(1.0),
            &SearchConfig::default(),
        );
        assert!(r.is_none(), "1W cannot fit any core");
    }

    #[test]
    fn assignment_finds_the_best_permutation() {
        let mut s = [[0.0f64; 4]; 4];
        for (t, row) in s.iter_mut().enumerate() {
            row[(t + 1) % 4] = 1.0; // best assignment is the cycle
        }
        assert!((best_assignment_sum(&s) - 4.0).abs() < 1e-12);
    }
}

#[cfg(test)]
mod debug_tests {
    use super::*;
    use crate::runner::SweepRunner;
    use crate::table::PerfTable;
    use cisa_workloads::all_phases;

    #[test]
    fn debug_search_none() {
        let space = DesignSpace::new();
        let phases: Vec<_> = all_phases().into_iter().filter(|p| p.index == 0).collect();
        let (table, _) = PerfTable::build(&space, &phases, &SweepRunner::default());
        let eval = Evaluator::new(&space, &table, 8);
        let cands: Vec<CoreChoice> = space.ids().map(CoreChoice::Composite).collect();
        let min_power = cands
            .iter()
            .map(|c| eval.budget(c).1)
            .fold(f64::INFINITY, f64::min);
        println!("min core power: {min_power}");
        let pool: Vec<_> = cands
            .iter()
            .filter(|c| eval.budget(c).1 + 3.0 * min_power <= 40.0)
            .collect();
        println!("pool size at 40W: {}", pool.len());
        let cheapest = cands
            .iter()
            .min_by(|a, b| eval.budget(a).1.partial_cmp(&eval.budget(b).1).unwrap())
            .unwrap();
        let cores = [*cheapest; 4];
        println!(
            "cheapest x4 feasible: {}",
            eval.feasible(&cores, Budget::PeakPower(40.0), Objective::Throughput)
        );
        println!("score: {}", eval.score(&cores, Objective::Throughput));
        println!(
            "n_phases {} bench_phases {:?}",
            table.n_phases,
            eval.bench_phases.len()
        );
        println!("combos: {:?}", eval.combos);
    }
}

#[cfg(test)]
mod oracle_tests {
    use super::*;
    use crate::runner::SweepRunner;
    use crate::table::PerfTable;
    use cisa_workloads::all_phases;

    /// Brute-force oracle: on a small candidate pool the local search
    /// must find the true optimum (all multisets of 4 enumerated).
    #[test]
    fn local_search_matches_brute_force_on_small_pools() {
        let space = DesignSpace::new();
        let phases: Vec<_> = all_phases()
            .into_iter()
            .filter(|p| p.index == 0)
            .take(4)
            .collect();
        let (table, _) = PerfTable::build(&space, &phases, &SweepRunner::default());
        let eval = Evaluator::new(&space, &table, 4);

        // A deliberately small, diverse pool: every 400th design point.
        let pool: Vec<CoreChoice> = space
            .ids()
            .step_by(401)
            .map(CoreChoice::Composite)
            .collect();
        assert!(
            pool.len() >= 8 && pool.len() <= 16,
            "pool size {}",
            pool.len()
        );

        let budget = Budget::PeakPower(40.0);
        let objective = Objective::Throughput;

        // Brute force over all multisets of 4.
        let mut best = f64::NEG_INFINITY;
        let n = pool.len();
        for a in 0..n {
            for b in a..n {
                for c in b..n {
                    for d in c..n {
                        let chip = [pool[a], pool[b], pool[c], pool[d]];
                        if eval.feasible(&chip, budget, objective) {
                            best = best.max(eval.score(&chip, objective));
                        }
                    }
                }
            }
        }
        assert!(best.is_finite(), "some chip must fit 40W");

        let found = search(&eval, &pool, objective, budget, &SearchConfig::default())
            .expect("feasible")
            .score;
        assert!(
            found >= best * 0.999,
            "local search {found} must match the brute-force optimum {best}"
        );
    }

    #[test]
    fn vendor_migration_is_costlier_than_composite() {
        let space = DesignSpace::new();
        let phases: Vec<_> = all_phases()
            .into_iter()
            .filter(|p| p.index == 0)
            .take(2)
            .collect();
        let (table, _) = PerfTable::build(&space, &phases, &SweepRunner::default());
        let eval = Evaluator::new(&space, &table, 2);
        let a = CoreChoice::Vendor(cisa_isa::VendorIsa::Thumb, 0);
        let b = CoreChoice::Vendor(cisa_isa::VendorIsa::X86_64, 0);
        let c = CoreChoice::Composite(reference_design(&space));
        assert!(eval.migration_cycles(&a, &b) > eval.migration_cycles(&c, &a) * 10.0);
        assert_eq!(eval.migration_cycles(&c, &c), 0.0);
        assert_eq!(
            eval.migration_cycles(&a, &a),
            0.0,
            "same core, no migration"
        );
    }
}
