//! Fleet-scale migration scheduler benchmark: thousands of
//! composite-ISA chips serving over a million thread-lifetimes under
//! three scheduling policies.
//!
//! The fleet's chip designs come from the multicore search
//! (throughput- and EDP-tuned chips at three peak-power budgets);
//! migration pricing comes from the statically-refined
//! `MigrationMatrix` (every (phase, feature-set) pair compiled and
//! analyzed). Each policy serves the identical seeded arrival stream,
//! so the per-policy metrics are directly comparable — and the whole
//! run is bit-identical at any `CISA_THREADS`.
//!
//! Emits `BENCH_fleet.json` and gates on the headline claims
//! ([`cisa_bench::ledger::FLEET`]): the migration-aware policy must
//! beat the static-random baseline on both fleet EDP and p99 slowdown
//! (hard floors), and with `--check <baseline.json>` each gain must
//! retain at least half the committed baseline's (the repository's
//! standard retention pattern, robust to runner speed since the gains
//! are dimensionless). Under `--check` every count in the record — the
//! configuration, matrix classes, completions, migrations,
//! `cap_blocked` and the work counters — must also equal the
//! baseline's exactly, except the header's `threads`.
//!
//! Usage: `fleet_bench [--chips N] [--threads N] [--seed N]
//! [--shards N] [--out <path>] [--check <baseline.json>]`

use std::time::Instant;

use cisa_bench::ledger::{Record, FLEET};
use cisa_bench::Harness;
use cisa_fleet::{
    run_policies, AffinityGreedy, FleetConfig, FleetSpec, MigrationAware, MigrationMatrix,
    SchedulerPolicy, StaticRandom,
};
use cisa_isa::FeatureSet;
use cisa_workloads::all_phases;

/// Peak-power budgets (W) the chip designs are searched under.
const CHIP_BUDGETS_W: [f64; 3] = [20.0, 30.0, 40.0];

fn main() {
    let args = FLEET.args(&["--chips", "--threads", "--seed", "--shards"]);
    let defaults = FleetConfig::default();
    let n_chips: usize = args.get("--chips", 1024);
    let cfg = FleetConfig {
        n_threads: args.get("--threads", 1_200_000),
        seed: args.get("--seed", defaults.seed),
        n_shards: args.get("--shards", defaults.n_shards),
        ..defaults
    };

    let h = Harness::load();
    println!(
        "fleet: {n_chips} chips, {} thread-lifetimes, {} shards, seed {:#x}, {} workers",
        cfg.n_threads,
        cfg.n_shards,
        cfg.seed,
        h.runner.threads()
    );

    let t = Instant::now();
    let spec = FleetSpec::from_search(&h.table, &h.space, &CHIP_BUDGETS_W, n_chips);
    let search_s = t.elapsed().as_secs_f64();
    println!(
        "chip designs: {} ({} distinct core designs) in {search_s:.1}s",
        spec.chip_designs.len(),
        spec.core_designs.len()
    );
    for c in &spec.chip_designs {
        println!("  {} cap {:.1}W", c.label, c.cap_w);
    }

    let t = Instant::now();
    let phases = all_phases();
    let mm = MigrationMatrix::analyzed(&phases, &FeatureSet::all(), &h.runner);
    let matrix_s = t.elapsed().as_secs_f64();
    let classes = mm.class_counts();
    println!(
        "migration matrix: {} phases x {} fs pairs in {matrix_s:.1}s \
         (native {} / transforming {} / state-transforming {})",
        mm.n_phases(),
        mm.n_fs(),
        classes[0],
        classes[1],
        classes[2]
    );

    let policies: [&dyn SchedulerPolicy; 3] = [&StaticRandom, &AffinityGreedy, &MigrationAware];
    let t = Instant::now();
    let report = run_policies(&spec, &mm, &policies, &cfg, &h.runner);
    let sim_s = t.elapsed().as_secs_f64();
    for p in &report.policies {
        println!(
            "{:<16} edp {:.3e}  p50 {:.2}x  p99 {:.2}x  thpt {:.3e} u/s  \
             migs {} (n {} / t {} / st {})  cap-blocked {}",
            p.policy,
            p.edp,
            p.p50_slowdown,
            p.p99_slowdown,
            p.throughput_units_per_s,
            p.migrations_total,
            p.migrations[0],
            p.migrations[1],
            p.migrations[2],
            p.cap_blocked
        );
        println!(
            "{:<16} work: {} dispatch iterations, {} candidates priced, {} policy calls",
            "", p.dispatch_iterations, p.candidates_priced, p.policy_calls
        );
    }
    println!(
        "simulated {} thread-lifetimes x {} policies in {sim_s:.1}s",
        cfg.n_threads,
        report.policies.len()
    );

    let mut record = Record::new();
    for (key, value) in report.fields() {
        record.push(key, value.into());
    }
    record
        .num("search_s", search_s)
        .num("matrix_s", matrix_s)
        .num("sim_s", sim_s);
    FLEET.finish(&args, &record);
}
