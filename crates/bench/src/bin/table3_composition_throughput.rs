//! Table III: composite-ISA multicore compositions optimized for
//! multiprogrammed throughput under each peak-power budget.

use cisa_bench::{Harness, POWER_BUDGETS};
use cisa_explore::multicore::Objective;
use cisa_explore::{par_map, search_system, SystemKind};

fn main() {
    let h = Harness::load();
    let eval = h.evaluator();
    let cfg = h.search_config();
    println!("Table III: composite-ISA compositions (multiprogrammed throughput objective)");
    let results = par_map(&POWER_BUDGETS, h.runner.threads(), |&(_, budget)| {
        search_system(
            &eval,
            SystemKind::CompositeFull,
            Objective::Throughput,
            budget,
            &cfg,
        )
    });
    for ((name, _), result) in POWER_BUDGETS.iter().zip(results) {
        println!("\nPeak Power Budget: {name}");
        match result {
            Some(r) => {
                for (i, c) in r.cores.iter().enumerate() {
                    let (area, power) = eval.budget(c);
                    println!(
                        "  core {i}: {:<55} {power:>5.1} W {area:>5.1} mm2",
                        c.describe(&h.space)
                    );
                }
                let total: f64 = r.cores.iter().map(|c| eval.budget(c).1).sum();
                println!(
                    "  total peak power: {total:.1} W   throughput score: {:.3}",
                    r.score
                );
            }
            None => println!("  infeasible"),
        }
    }
}
