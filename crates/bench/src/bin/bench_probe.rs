//! Probe timing benchmark: fused single-pass probe vs the multi-pass
//! reference, over the full cold 49-phase x 26-feature-set sweep.
//!
//! Emits `BENCH_probe.json` with per-phase cold probe wall times, the
//! sweep totals for both implementations, the measured speedup, and
//! the dedup hit count. With `--check <baseline.json>` it also gates
//! ([`cisa_bench::ledger::PROBE`]): the run fails (exit 1) if the
//! measured fused-vs-reference speedup regresses more than 25% below
//! the committed baseline's speedup. The gate compares *ratios*, not
//! absolute wall times, so it is stable across machines of different
//! speeds.
//!
//! Usage: `bench_probe [--out <path>] [--check <baseline.json>]`

use std::time::Instant;

use cisa_bench::ledger::{Record, Value, PROBE};
use cisa_explore::{par_map, probes_run, threads, DesignSpace, SweepRunner};
use cisa_isa::FeatureSet;
use cisa_workloads::{all_phases, PhaseSpec};

fn main() {
    let args = PROBE.args(&[]);
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

    // Cold sweep, multi-pass reference implementation.
    let pairs: Vec<(PhaseSpec, FeatureSet)> = phases
        .iter()
        .flat_map(|p| fs.iter().map(move |f| (p.clone(), *f)))
        .collect();
    let t = Instant::now();
    let reference = par_map(&pairs, n_threads, |(spec, f)| {
        cisa_explore::probe_reference(spec, *f)
    });
    let reference_s = t.elapsed().as_secs_f64();
    println!("reference sweep: {reference_s:.2}s");

    // Cold sweep, fused probe + codegen dedup through the runner.
    let runner = SweepRunner::new(n_threads);
    let probes_before = probes_run();
    let t = Instant::now();
    let fused = runner.profile_grid(&phases, fs);
    let fused_s = t.elapsed().as_secs_f64();
    let fused_probes = probes_run() - probes_before;
    let dedup_hits = runner.dedup_hits();
    println!("fused sweep: {fused_s:.2}s ({fused_probes} probes, {dedup_hits} dedup hits)");

    // The optimization contract: same bits, less time.
    for (i, (r, f)) in reference.iter().zip(&fused).enumerate() {
        assert_eq!(
            r.to_values().map(f64::to_bits),
            f.to_values().map(f64::to_bits),
            "fused sweep diverged from reference at pair {i}"
        );
    }

    let speedup = reference_s / fused_s.max(1e-9);
    println!("speedup: {speedup:.2}x");

    let mut record = Record::new();
    record
        .int("phases", phases.len() as u64)
        .int("feature_sets", fs.len() as u64)
        .num("reference_sweep_s", reference_s)
        .num("fused_sweep_s", fused_s)
        .num("speedup", speedup)
        .int("probes_run", fused_probes)
        .int("dedup_hits", dedup_hits)
        .push("per_phase_cold_ms", Value::Map(per_phase));
    PROBE.finish(&args, &record);
}
