//! Ablation of the multiprogrammed scheduler: the optimal 4x4
//! thread-to-core assignment against a random-assignment bound on the
//! best composite chip at 40W.

use cisa_bench::Harness;
use cisa_explore::multicore::{search, Budget, Objective};
use cisa_explore::{candidates, SystemKind};

fn main() {
    let h = Harness::load();
    let eval = h.evaluator();
    let all = candidates(&h.space, SystemKind::CompositeFull);
    let budget = Budget::PeakPower(40.0);

    println!("Ablation: scheduler (optimal 4x4 assignment is built into the objective;");
    println!("  a random assignment bound is the mean over cores instead of the best):");
    if let Some(r) = search(&eval, &all, Objective::Throughput, budget) {
        let optimal = eval.throughput(&r.cores);
        // Naive bound: average speed over cores rather than best
        // assignment.
        let mut naive = 0.0;
        let mut n = 0;
        for phases in eval.bench_phases.iter() {
            for &p in phases {
                let mean: f64 = r
                    .cores
                    .iter()
                    .map(|c| eval.ref_time[p] / eval.perf(p, c).cycles_per_unit)
                    .sum::<f64>()
                    / 4.0;
                naive += mean;
                n += 1;
            }
        }
        naive /= n as f64;
        println!(
            "  optimal assignment {optimal:.4} vs random-assignment bound {naive:.4} (+{:.1}%)",
            (optimal / naive - 1.0) * 100.0
        );
    }
}
