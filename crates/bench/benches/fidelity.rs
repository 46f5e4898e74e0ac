//! Two-fidelity ablation bench: the interval model vs the cycle
//! simulator — timing, plus a rank-correlation check printed once.

use cisa_bench::timing::bench;
use cisa_compiler::{compile, CompileOptions};
use cisa_explore::{all_microarchs, evaluate, probe};
use cisa_isa::FeatureSet;
use cisa_sim::simulate;
use cisa_workloads::{all_phases, generate, TraceArena, TraceParams};

fn spearman(a: &[f64], b: &[f64]) -> f64 {
    fn ranks(x: &[f64]) -> Vec<f64> {
        let mut idx: Vec<usize> = (0..x.len()).collect();
        idx.sort_by(|&i, &j| x[i].partial_cmp(&x[j]).unwrap());
        let mut r = vec![0.0; x.len()];
        for (rank, &i) in idx.iter().enumerate() {
            r[i] = rank as f64;
        }
        r
    }
    let (ra, rb) = (ranks(a), ranks(b));
    let n = a.len() as f64;
    let d2: f64 = ra.iter().zip(&rb).map(|(x, y)| (x - y) * (x - y)).sum();
    1.0 - 6.0 * d2 / (n * (n * n - 1.0))
}

fn main() {
    let spec = all_phases()
        .into_iter()
        .find(|p| p.benchmark == "sjeng")
        .unwrap();
    let fs = FeatureSet::x86_64();
    let code = compile(&generate(&spec), &fs, &CompileOptions::default()).unwrap();
    let prof = probe(&spec, fs);
    // Sampled microarchs for the rank-correlation check.
    let uas: Vec<_> = all_microarchs().into_iter().step_by(11).collect();
    let trace = TraceArena::build(
        &code,
        &spec,
        TraceParams {
            max_uops: 12_000,
            seed: 4,
        },
    );
    let mut analytic = Vec::new();
    let mut cycle = Vec::new();
    for ua in &uas {
        let cfg = ua.with_fs(fs);
        analytic.push(evaluate(&prof, ua, &cfg).cycles_per_unit);
        cycle.push(simulate(&cfg, &trace).cycles as f64);
    }
    let rho = spearman(&analytic, &cycle);
    println!(
        "\n[fidelity] Spearman rank correlation (interval vs cycle, {} designs): {rho:.3}",
        uas.len()
    );
    assert!(
        rho > 0.7,
        "interval model must rank designs like the cycle simulator"
    );

    let ua = uas[0];
    let cfg = ua.with_fs(fs);
    bench("fidelity/interval_eval", || {
        std::hint::black_box(evaluate(&prof, &ua, &cfg));
    });
    bench("fidelity/cycle_sim_12k", || {
        std::hint::black_box(simulate(&cfg, &trace));
    });
}
