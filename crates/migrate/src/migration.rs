//! Migration-cost replay for multiprogrammed schedules (Section VII-D,
//! Figure 15).
//!
//! Threads contend for the cores of their preference, so on every phase
//! change the scheduler may reshuffle the thread-to-core assignment.
//! Each move charges a fixed migration cost (context + cache warmup),
//! and when a thread lands on a core that does not cover its binary's
//! compiled feature set, the next interval pays the measured downgrade
//! emulation cost. Composite-ISA migrations are cheap because upgrades
//! are free and downgrades are local transformations; the multi-vendor
//! baseline pays full cross-ISA binary translation instead.

use std::collections::HashMap;

use cisa_explore::multicore::{permute4, CoreChoice, Evaluator};
use cisa_isa::feature_set::DowngradeGap;
use cisa_isa::FeatureSet;
use cisa_workloads::all_benchmarks;
#[cfg(test)]
use cisa_workloads::all_phases;

use crate::downgrade::downgrade_cost;
use crate::error::MigrateError;

/// Knobs of the migration replay.
#[derive(Debug, Clone, Copy)]
pub struct MigrationConfig {
    /// Cycles charged per migration within the composite-ISA chip
    /// (register state move + cold caches).
    pub migration_cycles: f64,
    /// Scheduling steps replayed per workload mix.
    pub steps: usize,
    /// Units of phase work per scheduling interval. SimPoint intervals
    /// are long (hundreds of millions of instructions), so migration
    /// costs amortize over many units of work.
    pub units_per_step: f64,
}

impl Default for MigrationConfig {
    fn default() -> Self {
        MigrationConfig {
            migration_cycles: 30_000.0,
            steps: 12,
            units_per_step: 50.0,
        }
    }
}

/// Outcome of a migration replay.
#[derive(Debug, Clone, Default)]
pub struct MigrationReport {
    /// Total migrations across the replay.
    pub migrations: u64,
    /// Migrations that required a feature downgrade, by gap kind.
    pub downgrades: HashMap<&'static str, u64>,
    /// Mean normalized throughput with migration costs ignored.
    pub throughput_free: f64,
    /// Mean normalized throughput with migration + downgrade costs.
    pub throughput_with_costs: f64,
}

impl MigrationReport {
    /// Fractional throughput degradation due to migration costs.
    pub fn degradation(&self) -> f64 {
        if self.throughput_free <= 0.0 {
            0.0
        } else {
            1.0 - self.throughput_with_costs / self.throughput_free
        }
    }

    /// Total downgrade events.
    pub fn total_downgrades(&self) -> u64 {
        self.downgrades.values().sum()
    }
}

fn gap_label(gap: &DowngradeGap) -> &'static str {
    match gap {
        DowngradeGap::RegisterDepth { to, .. } => match to.count() {
            8 => "register depth -> 8",
            16 => "register depth -> 16",
            _ => "register depth -> 32",
        },
        DowngradeGap::RegisterWidth => "64-bit -> 32-bit",
        DowngradeGap::Complexity => "x86 -> microx86",
        DowngradeGap::Predication => "full -> partial predication",
        DowngradeGap::Simd => "vector -> scalar",
    }
}

/// The migration replay engine.
pub struct MigrationSim<'a> {
    eval: &'a Evaluator<'a>,
    config: MigrationConfig,
    /// Cache of measured downgrade costs per (benchmark, from, to).
    cost_cache: HashMap<(usize, FeatureSet, FeatureSet), f64>,
}

impl<'a> MigrationSim<'a> {
    /// Creates a replay over the evaluator's workload mixes.
    pub fn new(eval: &'a Evaluator<'a>, config: MigrationConfig) -> Self {
        MigrationSim {
            eval,
            config,
            cost_cache: HashMap::new(),
        }
    }

    /// The feature set of a core slot.
    fn core_fs(&self, core: &CoreChoice) -> FeatureSet {
        match core {
            CoreChoice::Composite(id) => self.eval.space.feature_sets[id.fs as usize],
            CoreChoice::Vendor(v, _) => v.x86ized(),
        }
    }

    /// The binary's compiled feature set for one benchmark: the most
    /// common per-phase preference on this multicore (the paper
    /// compiles one binary with the most common feature selection).
    pub fn binary_feature_set(&self, bench: usize, cores: &[CoreChoice; 4]) -> FeatureSet {
        let mut votes: HashMap<FeatureSet, u32> = HashMap::new();
        for &p in &self.eval.bench_phases[bench] {
            let best = cores
                .iter()
                .min_by(|a, b| {
                    self.eval
                        .perf(p, a)
                        .cycles_per_unit
                        .partial_cmp(&self.eval.perf(p, b).cycles_per_unit)
                        .expect("finite")
                })
                .expect("four cores");
            *votes.entry(self.core_fs(best)).or_default() += 1;
        }
        // Deterministic tie-break: highest vote count, then the
        // feature-set ordering.
        votes
            .into_iter()
            .max_by_key(|&(fs, n)| (n, fs))
            .map(|(fs, _)| fs)
            .unwrap_or_else(FeatureSet::x86_64)
    }

    fn downgrade_factor(
        &mut self,
        bench: usize,
        from: FeatureSet,
        to: FeatureSet,
    ) -> Result<f64, MigrateError> {
        if to.covers(&from) {
            return Ok(1.0);
        }
        let key = (bench, from, to);
        if let Some(&c) = self.cost_cache.get(&key) {
            return Ok(c);
        }
        // Measure on the benchmark's first phase.
        let bench_id = self.eval.bench_ids[bench] as usize;
        let spec = all_benchmarks()
            .into_iter()
            .nth(bench_id)
            .expect("benchmark exists")
            .phases
            .remove(0);
        let c = downgrade_cost(&spec, from, to)?.max(0.8);
        self.cost_cache.insert(key, c);
        Ok(c)
    }

    /// Replays all workload mixes on a multicore, charging migration and
    /// downgrade costs.
    ///
    /// Fails only if a downgrade-cost measurement fails (a phase that
    /// does not compile — seen only under fault injection); the error
    /// names the phase and feature set.
    pub fn replay(&mut self, cores: &[CoreChoice; 4]) -> Result<MigrationReport, MigrateError> {
        let mut report = MigrationReport::default();
        let combos = self.eval.combos.clone();
        let steps = self.config.steps;
        let binary_fs: Vec<FeatureSet> = (0..self.eval.bench_phases.len())
            .map(|b| self.binary_feature_set(b, cores))
            .collect();

        let mut free_total = 0.0;
        let mut cost_total = 0.0;
        let mut count = 0usize;
        for combo in &combos {
            let mut prev_assign: Option<[usize; 4]> = None;
            for step in 0..steps {
                let phases = combo.map(|b| {
                    let ps = &self.eval.bench_phases[b as usize];
                    ps[step % ps.len()]
                });
                // Best assignment by speed (as the scheduler would).
                let mut best_sum = f64::NEG_INFINITY;
                let mut best_perm = [0usize, 1, 2, 3];
                permute4(|perm| {
                    let sum: f64 = phases
                        .iter()
                        .enumerate()
                        .map(|(t, &p)| {
                            self.eval.ref_time[p]
                                / self.eval.perf(p, &cores[perm[t]]).cycles_per_unit
                        })
                        .sum();
                    if sum > best_sum {
                        best_sum = sum;
                        best_perm = *perm;
                    }
                });

                for (t, &p) in phases.iter().enumerate() {
                    let core = &cores[best_perm[t]];
                    let perf = self.eval.perf(p, core);
                    let free_speed = self.eval.ref_time[p] / perf.cycles_per_unit;
                    free_total += free_speed;

                    let units = self.config.units_per_step;
                    let mut time = perf.cycles_per_unit * units;
                    let moved = prev_assign.is_some_and(|pa| pa[t] != best_perm[t]);
                    if moved {
                        report.migrations += 1;
                        time += self.config.migration_cycles;
                        let bfs = binary_fs[combo[t] as usize];
                        let cfs = self.core_fs(core);
                        if !cfs.covers(&bfs) {
                            for gap in cfs.downgrade_gaps(&bfs) {
                                *report.downgrades.entry(gap_label(&gap)).or_default() += 1;
                            }
                            time *= self.downgrade_factor(combo[t] as usize, bfs, cfs)?;
                        }
                    }
                    cost_total += self.eval.ref_time[p] * units / time;
                    count += 1;
                }
                prev_assign = Some(best_perm);
            }
        }
        report.throughput_free = free_total / count as f64;
        report.throughput_with_costs = cost_total / count as f64;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cisa_explore::multicore::{search, Budget, Objective, SearchConfig};
    use cisa_explore::{DesignSpace, PerfTable, SweepRunner};
    use std::sync::OnceLock;

    fn fixtures() -> &'static (DesignSpace, PerfTable) {
        static CELL: OnceLock<(DesignSpace, PerfTable)> = OnceLock::new();
        CELL.get_or_init(|| {
            let space = DesignSpace::new();
            let phases: Vec<_> = all_phases().into_iter().filter(|p| p.index < 2).collect();
            let (table, _) = PerfTable::build(&space, &phases, &SweepRunner::default());
            (space, table)
        })
    }

    #[test]
    fn migration_degradation_is_small_for_composite() {
        let (space, table) = fixtures();
        let eval = Evaluator::new(space, table, 8);
        let cands: Vec<CoreChoice> = space.ids().map(CoreChoice::Composite).collect();
        let cfg = SearchConfig {
            pool_cap: 70,
            restarts: 1,
            ..Default::default()
        };
        let best = search(
            &eval,
            &cands,
            Objective::Throughput,
            Budget::Area(64.0),
            &cfg,
        )
        .expect("feasible");
        let mut sim = MigrationSim::new(&eval, MigrationConfig::default());
        let report = sim.replay(&best.cores).expect("fault-free replay");
        assert!(report.migrations > 0, "threads must migrate");
        let deg = report.degradation();
        assert!(
            (0.0..0.08).contains(&deg),
            "composite migration degradation should be small: {deg}"
        );
    }

    #[test]
    fn binary_feature_set_is_a_real_set() {
        let (space, table) = fixtures();
        let eval = Evaluator::new(space, table, 4);
        let ref_id = cisa_explore::reference_design(space);
        let cores = [CoreChoice::Composite(ref_id); 4];
        let sim = MigrationSim::new(&eval, MigrationConfig::default());
        let fs = sim.binary_feature_set(0, &cores);
        assert!(FeatureSet::all().contains(&fs));
    }

    #[test]
    fn homogeneous_chip_never_downgrades() {
        let (space, table) = fixtures();
        let eval = Evaluator::new(space, table, 6);
        let ref_id = cisa_explore::reference_design(space);
        let cores = [CoreChoice::Composite(ref_id); 4];
        let mut sim = MigrationSim::new(&eval, MigrationConfig::default());
        let report = sim.replay(&cores).expect("fault-free replay");
        assert_eq!(
            report.total_downgrades(),
            0,
            "identical cores cover everything"
        );
    }
}
