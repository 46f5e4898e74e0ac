//! Table IV: composite-ISA multicore compositions optimized for
//! multiprogrammed EDP under each peak-power budget.

use cisa_bench::{Harness, POWER_BUDGETS};
use cisa_explore::multicore::Objective;
use cisa_explore::{par_map, search_system, SystemKind};

fn main() {
    let h = Harness::load();
    let eval = h.evaluator();
    let cfg = h.search_config();
    println!("Table IV: composite-ISA compositions (multiprogrammed efficiency objective)");
    let results = par_map(&POWER_BUDGETS, h.runner.threads(), |&(_, budget)| {
        search_system(
            &eval,
            SystemKind::CompositeFull,
            Objective::Edp,
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
                println!("  EDP gain over reference chip: {:.2}x", r.score);
            }
            None => println!("  infeasible"),
        }
    }
}
