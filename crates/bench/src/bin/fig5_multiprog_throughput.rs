//! Figure 5: multiprogrammed workload throughput of the five system
//! organizations under peak-power and area budgets (higher is better,
//! normalized to the homogeneous x86-64 design at each budget).

use cisa_bench::{print_grid, Harness, AREA_BUDGETS, POWER_BUDGETS};
use cisa_explore::multicore::{Objective, SearchResult};
use cisa_explore::SystemKind;

fn score(r: &Option<SearchResult>) -> f64 {
    r.as_ref().map_or(f64::NAN, |r| r.score)
}

fn main() {
    let h = Harness::load();
    let eval = h.evaluator();
    for (axis_name, budgets) in [
        ("Peak Power Budget", &POWER_BUDGETS),
        ("Area Budget", &AREA_BUDGETS),
    ] {
        let grid = h.search_grid(&eval, &SystemKind::ALL, Objective::Throughput, budgets);
        println!("\nFigure 5 ({axis_name}): multiprogrammed throughput, normalized to homogeneous");
        print_grid(budgets, &grid, |r, homogeneous| {
            Some(score(r) / score(homogeneous))
        });
    }
    println!("\npaper: composite-ISA outperforms single-ISA heterogeneous by ~17.6% on average, ~30% at 20W");
}
