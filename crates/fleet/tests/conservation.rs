//! Seeded conservation properties of the fleet engine.
//!
//! Two invariants hold for every policy, seed, and load level:
//!
//! - **Thread-cycle conservation** — work is neither created nor lost
//!   by migrations: every completed thread executed exactly its
//!   demanded work, and the service cycles scheduled at dispatch
//!   equal the busy cycles accumulated on cores.
//! - **Power-cap safety** — chip power changes only at event
//!   timestamps, and the recorded per-chip maximum (exact integer
//!   milliwatt accounting) never exceeds the cap.

use std::sync::OnceLock;

use cisa_explore::{DesignId, DesignSpace, PerfTable, SweepRunner};
use cisa_fleet::{
    simulate_shard, AffinityGreedy, FleetConfig, FleetSpec, MigrationAware, MigrationMatrix,
    SchedulerPolicy, StaticRandom,
};
use cisa_isa::FeatureSet;
use cisa_workloads::all_phases;

fn fixtures() -> &'static (FleetSpec, MigrationMatrix) {
    static CELL: OnceLock<(FleetSpec, MigrationMatrix)> = OnceLock::new();
    CELL.get_or_init(|| {
        let space = DesignSpace::new();
        let phases: Vec<_> = all_phases().into_iter().filter(|p| p.index == 0).collect();
        let (table, _) = PerfTable::build(&space, &phases, &SweepRunner::default());
        let chip = |ids: [DesignId; 4], label: &str| {
            let sum: f64 = ids.iter().map(|id| space.budget(*id).1).sum();
            (ids, 0.75 * sum, label.to_string())
        };
        let designs = vec![
            chip(
                [
                    DesignId { fs: 1, ua: 20 },
                    DesignId { fs: 7, ua: 90 },
                    DesignId { fs: 14, ua: 150 },
                    DesignId { fs: 24, ua: 175 },
                ],
                "hetero",
            ),
            chip(
                [
                    DesignId { fs: 9, ua: 60 },
                    DesignId { fs: 9, ua: 60 },
                    DesignId { fs: 9, ua: 60 },
                    DesignId { fs: 9, ua: 60 },
                ],
                "homo",
            ),
        ];
        let spec = FleetSpec::from_chips(&table, &space, &designs, 12);
        let mm = MigrationMatrix::conservative(table.n_phases, &FeatureSet::all());
        (spec, mm)
    })
}

fn rel_eq(a: f64, b: f64, tol: f64, what: &str) {
    let denom = a.abs().max(b.abs()).max(1e-12);
    assert!(
        ((a - b) / denom).abs() < tol,
        "{what}: {a} vs {b} differ beyond {tol}"
    );
}

#[test]
fn cycles_conserved_and_caps_respected_across_policies_and_seeds() {
    let (spec, mm) = fixtures();
    let policies: [&dyn SchedulerPolicy; 3] = [&StaticRandom, &AffinityGreedy, &MigrationAware];
    for seed in [1u64, 0xBEEF, 0x5EED_CAFE] {
        for policy in policies {
            let cfg = FleetConfig {
                seed,
                n_threads: 1_500,
                n_shards: 4,
                ..Default::default()
            };
            let n_shards = cfg.effective_shards(spec);
            let mut expected_total = 0u64;
            for shard in 0..n_shards {
                let s = simulate_shard(spec, mm, policy, &cfg, shard, n_shards);
                // Open system drains: every arrival completes.
                assert_eq!(
                    s.arrivals,
                    s.completed,
                    "drain ({seed:#x}, {})",
                    policy.name()
                );
                expected_total += s.arrivals;
                // Work conservation across migrations: executed work
                // equals demanded work of completed threads (sums
                // accumulate in different event orders, hence the
                // tolerance; the values per thread are identical).
                rel_eq(s.work_executed, s.work_demanded, 1e-9, "work conservation");
                // Cycle conservation: cycles scheduled at dispatch
                // equal cycles accumulated on cores.
                rel_eq(
                    s.service_scheduled,
                    s.busy_cycles,
                    1e-9,
                    "cycle conservation",
                );
                // Power-cap safety at every event timestamp (power is
                // piecewise-constant between events; the engine
                // records the max at each change, in exact integer
                // milliwatts).
                assert!(
                    s.max_cap_utilization <= 1.0,
                    "chip over cap: {} ({seed:#x}, {})",
                    s.max_cap_utilization,
                    policy.name()
                );
                assert!(s.max_cap_utilization > 0.0, "fleet did some work");
                // Slowdowns are normalized against the unloaded best
                // core, so none can be below 1.
                for &sl in &s.slowdowns {
                    assert!(sl >= 1.0 - 1e-9, "slowdown {sl} below ideal");
                }
                assert_eq!(s.slowdowns.len() as u64, s.completed);
                assert!(s.makespan > 0.0);
            }
            assert_eq!(expected_total, cfg.n_threads, "all threads served");
        }
    }
}

#[test]
fn static_random_never_migrates_but_dynamic_policies_do() {
    let (spec, mm) = fixtures();
    let cfg = FleetConfig {
        n_threads: 2_000,
        n_shards: 2,
        ..Default::default()
    };
    let n_shards = cfg.effective_shards(spec);
    let mut static_migs = 0u64;
    let mut aware_migs = 0u64;
    for shard in 0..n_shards {
        let s = simulate_shard(spec, mm, &StaticRandom, &cfg, shard, n_shards);
        static_migs += s.migrations.iter().sum::<u64>();
        let a = simulate_shard(spec, mm, &MigrationAware, &cfg, shard, n_shards);
        aware_migs += a.migrations.iter().sum::<u64>();
    }
    assert_eq!(static_migs, 0);
    assert!(aware_migs > 0);
}

#[test]
fn tighter_caps_mean_more_blocking_not_violations() {
    let (spec, mm) = fixtures();
    // Rebuild the same fleet with a much tighter cap: the engine must
    // respond by blocking placements, never by exceeding the cap.
    let space = DesignSpace::new();
    let phases: Vec<_> = all_phases().into_iter().filter(|p| p.index == 0).collect();
    let (table, _) = PerfTable::build(&space, &phases, &SweepRunner::default());
    let base = &spec.chip_designs[0];
    let ids = [
        spec.core_designs[base.cores[0] as usize].id,
        spec.core_designs[base.cores[1] as usize].id,
        spec.core_designs[base.cores[2] as usize].id,
        spec.core_designs[base.cores[3] as usize].id,
    ];
    let max_peak = ids
        .iter()
        .map(|id| space.budget(*id).1)
        .fold(0.0f64, f64::max);
    let tight = FleetSpec::from_chips(
        &table,
        &space,
        &[(ids, max_peak * 1.05, "tight".to_string())],
        8,
    );
    let cfg = FleetConfig {
        n_threads: 1_000,
        n_shards: 2,
        ..Default::default()
    };
    let n_shards = cfg.effective_shards(&tight);
    for shard in 0..n_shards {
        let s = simulate_shard(&tight, mm, &AffinityGreedy, &cfg, shard, n_shards);
        assert!(s.max_cap_utilization <= 1.0, "tight cap violated");
        assert!(s.cap_blocked > 0, "a near-single-core cap must block");
        assert_eq!(s.arrivals, s.completed, "still drains");
    }
}
