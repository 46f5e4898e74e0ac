//! Probe timing benchmark: fused single-pass probe vs the multi-pass
//! reference, over the full cold 49-phase x 26-feature-set sweep.
//!
//! Emits `BENCH_probe.json` with per-phase cold probe wall times, the
//! sweep totals for both implementations, the measured speedup, and
//! the dedup hit count. With `--check <baseline.json>` it also gates:
//! the run fails (exit 1) if the measured fused-vs-reference speedup
//! regresses more than 25% below the committed baseline's speedup.
//! The gate compares *ratios*, not absolute wall times, so it is
//! stable across machines of different speeds.
//!
//! Usage: `bench_probe [--out <path>] [--check <baseline.json>]`

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use cisa_bench::{baseline_number, results_dir};
use cisa_explore::{par_map, probes_run, threads, DesignSpace, SweepRunner};
use cisa_isa::FeatureSet;
use cisa_workloads::{all_phases, PhaseSpec};

/// Fraction of the baseline speedup the measured speedup must retain.
const GATE_RETENTION: f64 = 0.75;

fn main() {
    let mut out_path = results_dir().join("BENCH_probe.json");
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

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": 1,");
    let _ = writeln!(json, "  \"threads\": {n_threads},");
    let _ = writeln!(json, "  \"phases\": {},", phases.len());
    let _ = writeln!(json, "  \"feature_sets\": {},", fs.len());
    let _ = writeln!(json, "  \"reference_sweep_s\": {reference_s:.4},");
    let _ = writeln!(json, "  \"fused_sweep_s\": {fused_s:.4},");
    let _ = writeln!(json, "  \"speedup\": {speedup:.4},");
    let _ = writeln!(json, "  \"probes_run\": {fused_probes},");
    let _ = writeln!(json, "  \"dedup_hits\": {dedup_hits},");
    let _ = writeln!(json, "  \"per_phase_cold_ms\": {{");
    for (i, (name, ms)) in per_phase.iter().enumerate() {
        let comma = if i + 1 < per_phase.len() { "," } else { "" };
        let _ = writeln!(json, "    \"{name}\": {ms:.3}{comma}");
    }
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");

    if let Some(dir) = out_path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(&out_path, &json).expect("write BENCH_probe.json");
    println!("wrote {}", out_path.display());

    if let Some(path) = baseline {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read baseline {}: {e}", path.display()));
        let base_speedup = baseline_number(&text, "speedup")
            .unwrap_or_else(|| panic!("no \"speedup\" field in {}", path.display()));
        let floor = base_speedup * GATE_RETENTION;
        println!("gate: measured {speedup:.2}x vs baseline {base_speedup:.2}x (floor {floor:.2}x)");
        if speedup < floor {
            eprintln!(
                "FAIL: cold probe speedup regressed >25% vs committed baseline \
                 ({speedup:.2}x < {floor:.2}x)"
            );
            std::process::exit(1);
        }
        println!("gate: ok");
    }
}
