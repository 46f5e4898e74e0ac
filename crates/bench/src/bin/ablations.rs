//! Ablation studies for the design choices DESIGN.md calls out:
//! scheduler quality, search strategy, and the micro-op cache.

use cisa_bench::Harness;
use cisa_explore::multicore::{search, Budget, Objective, SearchConfig};
use cisa_explore::{candidates, par_map, SystemKind};

fn main() {
    let h = Harness::load();
    let eval = h.evaluator();
    let all = candidates(&h.space, SystemKind::CompositeFull);
    let budget = Budget::PeakPower(40.0);

    println!("Ablation: search strategy (multiprogrammed throughput, 40W)");
    let variants = [
        (
            "greedy only (no restarts)",
            SearchConfig {
                restarts: 0,
                max_passes: 1,
                pool_cap: 120,
                identical: false,
            },
        ),
        (
            "local search, 1 pass",
            SearchConfig {
                restarts: 0,
                max_passes: 12,
                pool_cap: 120,
                identical: false,
            },
        ),
        (
            "multi-seed local search",
            SearchConfig {
                restarts: 2,
                max_passes: 12,
                pool_cap: 120,
                identical: false,
            },
        ),
        (
            "wider pool",
            SearchConfig {
                restarts: 2,
                max_passes: 12,
                pool_cap: 240,
                identical: false,
            },
        ),
    ];
    let scores = par_map(&variants, h.runner.threads(), |(_, cfg)| {
        search(&eval, &all, Objective::Throughput, budget, cfg)
            .map(|r| r.score)
            .unwrap_or(f64::NAN)
    });
    for ((name, _), score) in variants.iter().zip(scores) {
        println!("  {name:<28} score {score:.4}");
    }

    println!("\nAblation: scheduler (optimal 4x4 assignment is built into the objective;");
    println!("  a random assignment bound is the mean over cores instead of the best):");
    if let Some(r) = search(
        &eval,
        &all,
        Objective::Throughput,
        budget,
        &SearchConfig::default(),
    ) {
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
