//! Figure 8: single-thread performance and EDP under area budgets.

use cisa_bench::{print_grid, Harness, AREA_BUDGETS};
use cisa_explore::multicore::Objective;
use cisa_explore::SystemKind;

fn main() {
    let h = Harness::load();
    let eval = h.evaluator();
    for (metric, objective) in [
        (
            "performance (speedup, higher better)",
            Objective::SingleThread,
        ),
        ("EDP gain (higher better)", Objective::SingleEdp),
    ] {
        let grid = h.search_grid(&eval, &SystemKind::ALL, objective, &AREA_BUDGETS);
        println!("\nFigure 8: single-thread {metric} under area budgets");
        print_grid(&AREA_BUDGETS, &grid, |r, _| r.as_ref().map(|r| r.score));
    }
    println!("\npaper: composite-ISA averages +20% speedup, -21% EDP vs single-ISA hetero under area budgets");
}
