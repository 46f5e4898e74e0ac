//! Figure 12: execution-time breakdown by feature set on the best
//! composite-ISA design optimized for single-thread performance at 10W.

use cisa_bench::{feature_label, print_time_shares, Harness};
use cisa_explore::multicore::{search, Budget, Objective};
use cisa_explore::{candidates, SystemKind};
use std::collections::BTreeMap;

fn main() {
    let h = Harness::load();
    let eval = h.evaluator();
    let all = candidates(&h.space, SystemKind::CompositeFull);
    let r = search(
        &eval,
        &all,
        Objective::SingleThread,
        Budget::PeakPower(10.0),
    )
    .expect("feasible at 10W");
    println!("Figure 12: best single-thread composite design at 10W:");
    for c in &r.cores {
        println!("  {}", c.describe(&h.space));
    }
    println!("\nexecution-time share per feature set (each benchmark migrates freely):");
    let time_by: Vec<BTreeMap<String, f64>> = eval
        .bench_phases
        .iter()
        .map(|phases| {
            let mut times = BTreeMap::new();
            for &p in phases {
                let best = eval.fastest(p, &r.cores);
                *times.entry(feature_label(best, &h.space)).or_default() +=
                    eval.perf(p, best).cycles_per_unit;
            }
            times
        })
        .collect();
    print_time_shares(&eval, &time_by);
    println!("\npaper: every superset feature appears in some core; hmmer pins depth-64; sjeng/gobmk prefer full predication");
}
