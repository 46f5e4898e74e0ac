//! Figure 13: execution-time breakdown by feature set on the best
//! composite-ISA design optimized for multiprogrammed throughput at
//! 48mm^2 (threads contend, so second-choice cores get used too).

use cisa_bench::{feature_label, print_time_shares, Harness};
use cisa_explore::multicore::{search, Budget, Evaluator, Objective};
use cisa_explore::{candidates, SystemKind};
use std::collections::BTreeMap;

fn main() {
    let h = Harness::load();
    let eval = h.evaluator();
    let all = candidates(&h.space, SystemKind::CompositeFull);
    let r =
        search(&eval, &all, Objective::Throughput, Budget::Area(48.0)).expect("feasible at 48mm2");
    println!("Figure 13: best multiprogrammed composite design at 48mm2:");
    for c in &r.cores {
        println!("  {}", c.describe(&h.space));
    }

    // Replay the scheduled mixes and attribute execution time.
    let mut time_by: Vec<BTreeMap<String, f64>> = vec![BTreeMap::new(); eval.bench_phases.len()];
    for &combo in &eval.combos {
        for step in 0..Evaluator::STEPS {
            let phases = eval.mix_phases(combo, step);
            // Same assignment the throughput objective uses.
            let (best_perm, _) = eval.assign(phases, &r.cores);
            for (t, &p) in phases.iter().enumerate() {
                let core = &r.cores[best_perm[t]];
                *time_by[combo[t] as usize]
                    .entry(feature_label(core, &h.space))
                    .or_default() += eval.perf(p, core).cycles_per_unit;
            }
        }
    }
    println!("\nexecution-time share per feature set under contention:");
    print_time_shares(&eval, &time_by);
    println!("\npaper: under contention applications execute on all feature sets at some point");
}
