//! Cold-sweep benchmark: the full 49-phase x 26-feature-set probe
//! sweep through the runner's codegen dedup, then one warm table fill
//! (229,320 composite + 26,460 vendor entries) from the swept grid.
//!
//! Emits `BENCH_probe.json` with per-phase cold probe wall times, the
//! sweep and fill wall times, and the work they did: probes run, dedup
//! hits, calibration simulations (`sim/runs`, `sim/uops`,
//! `sim/cycles`) and design points filled (`table/evals`). The
//! `sim/*` and `table/*` counts are `cisa-obs` counter deltas around
//! the sweep and the fill alone. With `--check <baseline.json>` it
//! gates ([`cisa_bench::ledger::PROBE`]): every count must equal the
//! committed baseline's, since the work is a pure function of the
//! workload suite at any `CISA_THREADS`. Wall times are recorded, not
//! gated; what the probes and the fill compute is pinned bit-for-bit
//! by the `probe_fused` suite's grid and table digests.
//!
//! Usage: `bench_probe [--out <path>] [--check <baseline.json>]`

use std::time::Instant;

use cisa_bench::ledger::{Record, Value, PROBE};
use cisa_explore::{probes_run, threads, DesignSpace, PerfTable, SweepRunner};
use cisa_isa::FeatureSet;
use cisa_workloads::all_phases;

fn main() {
    let args = PROBE.args(&[]);
    // The gated sim/table counts are read from the obs registry.
    cisa_obs::set_enabled(true);
    let phases = all_phases();
    let space = DesignSpace::new();
    let fs = &space.feature_sets;
    let n_threads = threads();
    println!(
        "probe timing: {} phases x {} feature sets, {} threads",
        phases.len(),
        fs.len(),
        n_threads
    );

    // Per-phase cold wall time of one fused probe (x86_64), serial so
    // the numbers are per-probe, not per-scheduler-slot.
    let x86 = FeatureSet::x86_64();
    let per_phase: Vec<(String, f64)> = phases
        .iter()
        .map(|spec| {
            let t = Instant::now();
            let p = cisa_explore::probe(spec, x86);
            std::hint::black_box(p);
            (spec.name(), t.elapsed().as_secs_f64() * 1e3)
        })
        .collect();

    // Cold sweep, fused probe + codegen dedup through the runner.
    let runner = SweepRunner::new(n_threads);
    let (start, probes_before) = (cisa_obs::snapshot(), probes_run());
    let t = Instant::now();
    let grid = runner.profile_grid(&phases, fs);
    let sweep_s = t.elapsed().as_secs_f64();
    let (swept, probes) = (cisa_obs::snapshot(), probes_run() - probes_before);
    let dedup_hits = runner.dedup_hits();
    println!("fused sweep: {sweep_s:.2}s ({probes} probes, {dedup_hits} dedup hits)");

    // Warm fill from the swept grid: model evaluation only.
    let t = Instant::now();
    let table = PerfTable::from_profile_grid(&space, &phases, &grid);
    let fill_s = t.elapsed().as_secs_f64();
    std::hint::black_box(table);
    let filled = cisa_obs::snapshot();
    println!("table fill: {:.1} ms", fill_s * 1e3);

    let mut record = Record::new();
    record
        .int("phases", phases.len() as u64)
        .int("feature_sets", fs.len() as u64)
        .num("fused_sweep_s", sweep_s)
        .num("fill_s", fill_s)
        .int("probes_run", probes)
        .int("dedup_hits", dedup_hits);
    for (from, to, name) in [
        (&start, &swept, "sim/runs"),
        (&start, &swept, "sim/uops"),
        (&start, &swept, "sim/cycles"),
        (&swept, &filled, "table/evals"),
    ] {
        record.int(name, to.counter(name) - from.counter(name));
    }
    record.push("per_phase_cold_ms", Value::Map(per_phase));
    PROBE.finish(&args, &record);
}
