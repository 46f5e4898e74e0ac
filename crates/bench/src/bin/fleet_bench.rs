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
//! Emits `BENCH_fleet.json` and gates on the headline claims: the
//! migration-aware policy must beat the static-random baseline on
//! both fleet EDP and p99 slowdown (hard floors), and with `--check
//! <baseline.json>` each gain must retain at least half the committed
//! baseline's (the repository's standard retention pattern, robust to
//! runner speed since the gains are dimensionless).
//!
//! Usage: `fleet_bench [--chips N] [--threads N] [--seed N]
//! [--shards N] [--out <path>] [--check <baseline.json>]`

use std::path::PathBuf;
use std::time::Instant;

use cisa_bench::{baseline_number, results_dir, Harness};
use cisa_fleet::{
    run_policies, AffinityGreedy, FleetConfig, FleetSpec, MigrationAware, MigrationMatrix,
    SchedulerPolicy, StaticRandom,
};
use cisa_isa::FeatureSet;
use cisa_workloads::all_phases;

/// Fraction of the baseline's gains the measured gains must retain.
const GATE_RETENTION: f64 = 0.5;
/// Peak-power budgets (W) the chip designs are searched under.
const CHIP_BUDGETS_W: [f64; 3] = [20.0, 30.0, 40.0];

fn main() {
    let mut n_chips: usize = 1024;
    let mut cfg = FleetConfig {
        n_threads: 1_200_000,
        ..Default::default()
    };
    let mut out_path = results_dir().join("BENCH_fleet.json");
    let mut baseline: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |what: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{what} needs a value"))
        };
        match a.as_str() {
            "--chips" => n_chips = val("--chips").parse().expect("--chips: integer"),
            "--threads" => cfg.n_threads = val("--threads").parse().expect("--threads: integer"),
            "--seed" => cfg.seed = val("--seed").parse().expect("--seed: integer"),
            "--shards" => cfg.n_shards = val("--shards").parse().expect("--shards: integer"),
            "--out" => out_path = PathBuf::from(val("--out")),
            "--check" => baseline = Some(PathBuf::from(val("--check"))),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

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
    }
    println!(
        "simulated {} thread-lifetimes x {} policies in {sim_s:.1}s",
        cfg.n_threads,
        report.policies.len()
    );

    let stat = report.policy("static-random").expect("baseline ran");
    let aware = report.policy("migration-aware").expect("aware ran");
    let edp_gain = stat.edp / aware.edp;
    let p99_gain = stat.p99_slowdown / aware.p99_slowdown;

    // Splice the timing fields into the deterministic report JSON.
    let mut json = report.to_json();
    json.truncate(json.rfind('}').expect("json object"));
    while json.ends_with('\n') {
        json.pop();
    }
    json.push_str(&format!(
        ",\n  \"search_s\": {search_s:.4},\n  \"matrix_s\": {matrix_s:.4},\n  \"sim_s\": {sim_s:.4}\n}}\n"
    ));

    if let Some(dir) = out_path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(&out_path, &json).expect("write BENCH_fleet.json");
    println!("wrote {}", out_path.display());

    // Hard floors: the migration-aware policy must beat the baseline.
    let mut edp_floor = 1.0f64;
    let mut p99_floor = 1.0f64;
    if let Some(path) = baseline {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read baseline {}: {e}", path.display()));
        let base_edp = baseline_number(&text, "migration_aware_edp_gain")
            .unwrap_or_else(|| panic!("no migration_aware_edp_gain in {}", path.display()));
        let base_p99 =
            baseline_number(&text, "migration_aware_p99_slowdown_gain").unwrap_or_else(|| {
                panic!("no migration_aware_p99_slowdown_gain in {}", path.display())
            });
        edp_floor = edp_floor.max(base_edp * GATE_RETENTION);
        p99_floor = p99_floor.max(base_p99 * GATE_RETENTION);
        println!(
            "gate: edp gain {edp_gain:.3}x vs baseline {base_edp:.3}x, \
             p99 gain {p99_gain:.3}x vs baseline {base_p99:.3}x"
        );
    } else {
        println!("gate: edp gain {edp_gain:.3}x, p99 gain {p99_gain:.3}x");
    }
    let mut failed = false;
    if edp_gain < edp_floor {
        eprintln!("FAIL: migration-aware EDP gain {edp_gain:.3}x below floor {edp_floor:.3}x");
        failed = true;
    }
    if p99_gain < p99_floor {
        eprintln!("FAIL: migration-aware p99 gain {p99_gain:.3}x below floor {p99_floor:.3}x");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("gate: ok (floors edp {edp_floor:.3}x, p99 {p99_floor:.3}x)");
}
