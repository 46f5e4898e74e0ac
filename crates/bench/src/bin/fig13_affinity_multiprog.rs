//! Figure 13: execution-time breakdown by feature set on the best
//! composite-ISA design optimized for multiprogrammed throughput at
//! 48mm^2 (threads contend, so second-choice cores get used too).

use cisa_bench::Harness;
use cisa_explore::multicore::{search, Budget, CoreChoice, Evaluator, Objective};
use cisa_explore::{candidates, SystemKind};
use std::collections::HashMap;

fn main() {
    let h = Harness::load();
    let eval = h.evaluator();
    let cfg = h.search_config();
    let all = candidates(&h.space, SystemKind::CompositeFull);
    let r = search(&eval, &all, Objective::Throughput, Budget::Area(48.0), &cfg)
        .expect("feasible at 48mm2");
    println!("Figure 13: best multiprogrammed composite design at 48mm2:");
    for c in &r.cores {
        println!("  {}", c.describe(&h.space));
    }

    // Replay the scheduled mixes and attribute execution time.
    let mut time_by: Vec<HashMap<String, f64>> = vec![HashMap::new(); eval.bench_phases.len()];
    for &combo in &eval.combos {
        for step in 0..Evaluator::STEPS {
            let phases = eval.mix_phases(combo, step);
            // Same assignment the throughput objective uses.
            let (best_perm, _) = eval.assign(phases, &r.cores);
            for (t, &p) in phases.iter().enumerate() {
                let core = &r.cores[best_perm[t]];
                let fs = match core {
                    CoreChoice::Composite(id) => h.space.feature_sets[id.fs as usize].to_string(),
                    CoreChoice::Vendor(v, _) => v.to_string(),
                };
                *time_by[combo[t] as usize].entry(fs).or_default() +=
                    eval.perf(p, core).cycles_per_unit;
            }
        }
    }
    println!("\nexecution-time share per feature set under contention:");
    for (b, shares) in time_by.iter().enumerate() {
        let bench = cisa_workloads::all_benchmarks()[eval.bench_ids[b] as usize].name;
        let total: f64 = shares.values().sum();
        if total == 0.0 {
            continue;
        }
        let mut v: Vec<(String, f64)> = shares
            .iter()
            .map(|(fs, t)| (fs.clone(), 100.0 * t / total))
            .collect();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        let s: Vec<String> = v.iter().map(|(fs, pc)| format!("{fs} {pc:.0}%")).collect();
        println!("  {:<12} {}", bench, s.join(", "));
    }
    println!("\npaper: under contention applications execute on all feature sets at some point");
}
