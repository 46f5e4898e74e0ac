//! `fleet-sim`: the datacenter scheduler at a reduced, explicitly
//! configured scale.
//!
//! Set-up builds the full 49-phase table from code (single-worker cold
//! probe sweep plus the batched fill), searches the chip roster
//! ([`FleetSpec::from_search`]) and prices migrations
//! ([`MigrationMatrix::analyzed`]). One op is one [`simulate_shard`]
//! call for one (policy, shard) pair; one work unit is one simulated
//! thread-lifetime. Ops run in rounds of the three policies on one
//! shard, so every policy's share of the ops is fixed; shards are
//! visited in seeded order and every pass over them draws a fresh
//! seeded arrival stream.

use std::time::Instant;

use cisa_explore::{DesignSpace, SweepRunner};
use cisa_fleet::{
    simulate_shard, AffinityGreedy, FleetConfig, FleetSpec, MigrationAware, MigrationMatrix,
    SchedulerPolicy, ShardStats, StaticRandom,
};
use cisa_isa::FeatureSet;
use cisa_workloads::{all_phases, PhaseSpec};

use crate::{
    build_table, obs_mean_s, obs_self_s, paired, record_obs_layers, record_table_layers,
    repeat_setup, time_ms, Op, Rng, Run, RunCtx, SETUP_SPAN,
};

/// Peak-power budgets (W) the chip roster is searched under.
const CHIP_BUDGETS_W: [f64; 3] = [20.0, 30.0, 40.0];

/// Policy rounds per requested second, sized from measured shard times
/// (about 140 ms static-random plus 14-17 ms for each affinity policy).
/// Runs cover whole passes over the shards, so every run simulates
/// every shard equally often.
const ROUNDS_PER_SECOND: f64 = 6.0;

/// The policies, in round order, with their metric names.
const POLICIES: [(&dyn SchedulerPolicy, &str); 3] = [
    (&StaticRandom, "static_random"),
    (&AffinityGreedy, "affinity_greedy"),
    (&MigrationAware, "migration_aware"),
];

/// How much work one run does. Every fleet setting is spelled out
/// here rather than taken from `FleetConfig::default()`.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Corpus phases in the table (the full corpus has 49).
    pub phases: usize,
    /// Chips in the fleet.
    pub chips: usize,
    /// Thread-lifetimes per pass over all shards.
    pub lifetimes: u64,
    /// Shards per pass.
    pub shards: usize,
    /// Policy rounds (one shard under each policy) in the timed phase.
    pub rounds: usize,
    /// Set-ups per run; set-up time is their median.
    pub setups: usize,
}

impl Scale {
    /// The scale for a run of about `seconds` seconds.
    pub fn for_seconds(seconds: u64) -> Self {
        let shards = 64;
        let passes = (ROUNDS_PER_SECOND * seconds as f64 / shards as f64).ceil() as usize;
        Scale {
            phases: all_phases().len(),
            chips: 1024,
            lifetimes: 300_000,
            shards,
            rounds: shards * passes,
            setups: 3,
        }
    }

    /// The fleet configuration of pass `pass` of a run seeded `seed`.
    pub fn config(&self, seed: u64, pass: u64) -> FleetConfig {
        FleetConfig {
            seed: Rng::new(seed, pass).next_u64(),
            n_threads: self.lifetimes,
            n_shards: self.shards,
            utilization: 0.55,
            mix_fraction: 0.3,
            max_segments: 4,
            work_min: 60.0,
            work_max: 600.0,
            dispatch_window: 8,
        }
    }

    /// Lifetimes shard `shard` serves per pass.
    pub fn shard_lifetimes(&self, shard: usize) -> u64 {
        let n = self.shards as u64;
        self.lifetimes / n + u64::from((shard as u64) < self.lifetimes % n)
    }
}

/// Per policy: every arrival completed, the shard served exactly its
/// share of lifetimes, and no chip exceeded its power cap.
pub fn shard_ok(s: &ShardStats, expected_lifetimes: u64) -> bool {
    s.arrivals == expected_lifetimes
        && s.completed == s.arrivals
        && s.max_cap_utilization.is_finite()
        && s.max_cap_utilization <= 1.0
}

/// Builds the fleet: table, roster search and migration matrix.
fn setup(scale: &Scale) -> (FleetSpec, MigrationMatrix) {
    let space = DesignSpace::new();
    let phases: Vec<PhaseSpec> = all_phases().into_iter().take(scale.phases).collect();
    let runner = SweepRunner::new(1);
    let table = build_table(&space, &phases, &runner);
    let spec = {
        let _search = cisa_obs::span("explore.multicore.search");
        FleetSpec::from_search(&table, &space, &CHIP_BUDGETS_W, scale.chips)
    };
    let _matrix = cisa_obs::span("fleet.migration.matrix");
    let mm = MigrationMatrix::analyzed(&phases, &FeatureSet::all(), &runner);
    (spec, mm)
}

/// Per-policy sums over the traced ops.
#[derive(Default, Clone, Copy)]
struct PolicySums {
    ops: u64,
    seconds: f64,
    migrations: u64,
    cap_blocked: u64,
    completed: u64,
}

/// Runs the workload at `scale`.
pub fn run(ctx: &RunCtx, scale: &Scale) -> Run {
    let ((spec, mm), setups_s) = repeat_setup(ctx, scale.setups, || setup(scale));
    let n_shards = scale.shards;
    let n_passes = scale.rounds.div_ceil(n_shards);
    let passes: Vec<(FleetConfig, Vec<usize>)> = (0..n_passes as u64)
        .map(|p| {
            let order = Rng::new(ctx.seed, 1 << 32 | p).permutation(n_shards);
            (scale.config(ctx.seed, p), order)
        })
        .collect();

    let mut ops = Vec::with_capacity(scale.rounds * POLICIES.len());
    let mut sums = [PolicySums::default(); 3];
    let mut lifetimes = 0u64;
    let mut overhead = (0.0, 0.0);
    let timed = Instant::now();
    for r in 0..scale.rounds {
        let (cfg, order) = &passes[r / n_shards];
        let shard = order[r % n_shards];
        for (pi, &(policy, _)) in POLICIES.iter().enumerate() {
            let i = ops.len();
            let sim = |_traced: bool| {
                time_ms(|| simulate_shard(&spec, &mm, policy, cfg, shard, n_shards))
            };
            let (mut stats, ms) = if ctx.traced() {
                paired(i, &mut overhead, sim)
            } else {
                sim(false)
            };
            if ctx.corrupt_op == Some(i) {
                stats.completed -= 1;
            }
            let ok = shard_ok(&stats, scale.shard_lifetimes(shard));
            lifetimes += stats.arrivals;
            let s = &mut sums[pi];
            s.ops += 1;
            s.seconds += ms / 1e3;
            s.migrations += stats.migrations.iter().sum::<u64>();
            s.cap_blocked += stats.cap_blocked;
            s.completed += stats.completed;
            ops.push(Op { ms, ok });
        }
    }
    let timed_s = timed.elapsed().as_secs_f64();

    let mut run = Run {
        setups_s,
        ops,
        work_units: lifetimes as f64,
        timed_s,
        ..Run::default()
    };
    let cfg = &passes[0].0;
    run.notes.push(format!(
        "fleet-sim: {} chips, {} lifetimes x {} shards per pass, utilization {}, window {}, \
         {} rounds of {} policies, 1 worker",
        scale.chips,
        scale.lifetimes,
        n_shards,
        cfg.utilization,
        cfg.dispatch_window,
        scale.rounds,
        POLICIES.len()
    ));
    if ctx.traced() {
        let snap = cisa_obs::snapshot();
        let l = &mut run.layers;
        record_obs_layers(l);
        record_table_layers(l, &snap);
        l.set(
            "explore.multicore.search_s",
            obs_mean_s(&snap, "explore.multicore.search"),
        );
        l.set(
            "fleet.migration.matrix_s",
            obs_mean_s(&snap, "fleet.migration.matrix"),
        );
        for ((_, name), s) in POLICIES.iter().zip(&sums) {
            // Seconds per full pass over every shard.
            let per_pass = s.seconds / s.ops.max(1) as f64 * n_shards as f64;
            l.set(&format!("fleet.sim.{name}_s"), per_pass);
            l.set(&format!("fleet.migrations.{name}"), s.migrations as f64);
            l.set(&format!("fleet.cap_blocked.{name}"), s.cap_blocked as f64);
            let per = s.cap_blocked as f64 / s.completed.max(1) as f64;
            l.set(&format!("fleet.cap_blocked_per_completion.{name}"), per);
        }
        l.set("bench.setup_self_s", obs_self_s(&snap, SETUP_SPAN));
        l.set("bench.trace_overhead_frac", overhead.0 / overhead.1 - 1.0);
    }
    run
}
