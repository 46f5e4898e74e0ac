//! Figure 15: multiprogrammed throughput *including* migration and
//! downgrade costs, on the best composite design per power budget.

use cisa_bench::migration::MigrationSim;
use cisa_bench::{Harness, POWER_BUDGETS};
use cisa_explore::multicore::Objective;
use cisa_explore::{par_map, SystemKind};

fn main() {
    let h = Harness::load();
    let eval = h.evaluator();
    println!("Figure 15: throughput with migration + downgrade costs (composite-ISA)");
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "budget", "free", "with costs", "degradation", "migrations", "downgrades"
    );
    let results = h.search_grid(
        &eval,
        &[SystemKind::CompositeFull],
        Objective::Throughput,
        &POWER_BUDGETS,
    );
    let reports = par_map(&results, h.runner.threads(), |result| {
        result
            .as_ref()
            .map(|r| MigrationSim::new(&eval).replay(&r.cores))
    });
    for ((name, _), rep) in POWER_BUDGETS.iter().zip(reports) {
        match rep {
            Some(Ok(rep)) => {
                println!(
                    "{:<12} {:>12.3} {:>12.3} {:>11.2}% {:>12} {:>12}",
                    name,
                    rep.throughput_free,
                    rep.throughput_with_costs,
                    rep.degradation() * 100.0,
                    rep.migrations,
                    rep.total_downgrades()
                );
                if rep.total_downgrades() > 0 {
                    let mut kinds: Vec<_> = rep.downgrades.iter().collect();
                    kinds.sort();
                    for (k, n) in kinds {
                        println!("  {k}: {n}");
                    }
                }
            }
            Some(Err(e)) => println!("{name:<12} replay failed: {e}"),
            None => println!("{name:<12} infeasible"),
        }
    }
    println!("\npaper: 0.42% average degradation (max 0.75%); 1,863 migrations, only 8 x86->microx86 downgrades");
}
