//! Warm table-fill benchmark: batched block evaluation vs the retained
//! scalar reference, over the full 49-phase x 26-feature-set x
//! 180-microarch grid (229,320 composite + 26,460 vendor entries).
//!
//! The probe grid is swept once (cold, through the runner's dedup) and
//! then both fill implementations run from the same cached profiles —
//! pure model evaluation, no probing or I/O — several times each,
//! taking the minimum wall time. The run asserts the two tables are
//! entry-for-entry bit-identical before reporting, so the speedup can
//! never come from computing something different.
//!
//! Emits `BENCH_table.json` with the cold sweep time, both warm fill
//! times, and the speedup. With `--check <baseline.json>` it also
//! gates: the run fails (exit 1) if the measured speedup falls below
//! the hard 2x floor from the ISSUE acceptance criteria, or regresses
//! more than 50% below the committed baseline's speedup (the
//! BENCH_probe retention pattern). Ratio gates hold on runners of any
//! speed.
//!
//! Usage: `bench_table [--out <path>] [--check <baseline.json>]`

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use cisa_bench::{baseline_number, results_dir};
use cisa_explore::{threads, DesignSpace, PerfTable, SweepRunner};
use cisa_isa::VendorIsa;
use cisa_workloads::all_phases;

/// Fraction of the baseline speedup the measured speedup must retain.
const GATE_RETENTION: f64 = 0.5;
/// Absolute floor from the acceptance criteria: the batched fill must
/// stay at least this much faster than the scalar reference.
const SPEEDUP_FLOOR: f64 = 2.0;
/// Timed repetitions per implementation (minimum is reported).
const ITERS: usize = 3;

fn main() {
    let mut out_path = results_dir().join("BENCH_table.json");
    let mut baseline: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = PathBuf::from(args.next().expect("--out needs a path")),
            "--check" => baseline = Some(PathBuf::from(args.next().expect("--check needs a path"))),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    let phases = all_phases();
    let space = DesignSpace::new();
    let n_fs = space.feature_sets.len();
    let n_ua = space.microarchs.len();
    let n_threads = threads();
    println!(
        "table fill: {} phases x {n_fs} feature sets x {n_ua} designs, {n_threads} threads (fills are serial)",
        phases.len(),
    );

    // Cold probe sweep, once; both fills then run warm from this grid.
    let runner = SweepRunner::new(n_threads);
    let t = Instant::now();
    let grid = runner.profile_grid(&phases, &space.feature_sets);
    let cold_sweep_s = t.elapsed().as_secs_f64();
    println!(
        "cold probe sweep: {cold_sweep_s:.2}s ({} dedup hits)",
        runner.dedup_hits()
    );

    let time_min = |f: &dyn Fn() -> PerfTable| -> (PerfTable, f64) {
        let mut best = f64::INFINITY;
        let mut table = None;
        for _ in 0..ITERS {
            let t = Instant::now();
            let built = f();
            best = best.min(t.elapsed().as_secs_f64());
            table = Some(built);
        }
        (table.expect("at least one iteration"), best)
    };

    let (scalar_table, scalar_fill_s) =
        time_min(&|| PerfTable::from_profile_grid_reference(&space, &phases, &grid));
    println!("scalar fill: {scalar_fill_s:.3}s (min of {ITERS})");

    let (block_table, block_fill_s) =
        time_min(&|| PerfTable::from_profile_grid(&space, &phases, &grid));
    println!("block fill:  {block_fill_s:.3}s (min of {ITERS})");

    // The optimization contract: same bits, less time.
    let mut checked = 0u64;
    for pi in 0..phases.len() {
        for id in space.ids() {
            let a = block_table.get(pi, id);
            let b = scalar_table.get(pi, id);
            assert_eq!(
                (a.cycles_per_unit.to_bits(), a.energy_per_unit.to_bits()),
                (b.cycles_per_unit.to_bits(), b.energy_per_unit.to_bits()),
                "block fill diverged from scalar at phase {pi} {id:?}"
            );
            checked += 1;
        }
        for v in VendorIsa::ALL {
            for ua in 0..n_ua {
                let a = block_table.vendor(pi, v, ua);
                let b = scalar_table.vendor(pi, v, ua);
                assert_eq!(
                    (a.cycles_per_unit.to_bits(), a.energy_per_unit.to_bits()),
                    (b.cycles_per_unit.to_bits(), b.energy_per_unit.to_bits()),
                    "vendor row diverged at phase {pi} {v:?} ua {ua}"
                );
                checked += 1;
            }
        }
    }
    println!("bit-identity: {checked} entries verified");

    let speedup = scalar_fill_s / block_fill_s.max(1e-9);
    let end_to_end_s = cold_sweep_s + block_fill_s;
    println!("speedup: {speedup:.2}x (cold sweep + block fill: {end_to_end_s:.2}s)");

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": 1,");
    let _ = writeln!(json, "  \"threads\": {n_threads},");
    let _ = writeln!(json, "  \"phases\": {},", phases.len());
    let _ = writeln!(json, "  \"feature_sets\": {n_fs},");
    let _ = writeln!(json, "  \"designs\": {},", n_fs * n_ua);
    let _ = writeln!(json, "  \"entries_checked\": {checked},");
    let _ = writeln!(json, "  \"cold_sweep_s\": {cold_sweep_s:.4},");
    let _ = writeln!(json, "  \"scalar_fill_s\": {scalar_fill_s:.4},");
    let _ = writeln!(json, "  \"block_fill_s\": {block_fill_s:.4},");
    let _ = writeln!(json, "  \"speedup\": {speedup:.4},");
    let _ = writeln!(json, "  \"end_to_end_s\": {end_to_end_s:.4}");
    let _ = writeln!(json, "}}");

    if let Some(dir) = out_path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(&out_path, &json).expect("write BENCH_table.json");
    println!("wrote {}", out_path.display());

    let mut floor = SPEEDUP_FLOOR;
    if let Some(path) = baseline {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read baseline {}: {e}", path.display()));
        let base_speedup = baseline_number(&text, "speedup")
            .unwrap_or_else(|| panic!("no \"speedup\" field in {}", path.display()));
        floor = floor.max(base_speedup * GATE_RETENTION);
        println!("gate: measured {speedup:.2}x vs baseline {base_speedup:.2}x (floor {floor:.2}x)");
    } else {
        println!("gate: measured {speedup:.2}x (floor {floor:.2}x)");
    }
    if speedup < floor {
        eprintln!(
            "FAIL: warm table-fill speedup below the gate \
             ({speedup:.2}x < {floor:.2}x)"
        );
        std::process::exit(1);
    }
    println!("gate: ok");
}
