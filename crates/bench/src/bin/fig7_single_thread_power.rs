//! Figure 7: single-thread performance and EDP under tight peak-power
//! budgets (dynamic multicore topology: one core on at a time,
//! migration across the four cores).

use cisa_bench::{print_grid, Harness, SINGLE_THREAD_POWER_BUDGETS};
use cisa_explore::multicore::Objective;
use cisa_explore::SystemKind;

fn main() {
    let h = Harness::load();
    let eval = h.evaluator();
    for (metric, objective, note) in [
        (
            "performance (speedup, higher better)",
            Objective::SingleThread,
            "paper: +19.5% vs single-ISA hetero",
        ),
        (
            "EDP gain (higher better)",
            Objective::SingleEdp,
            "paper: -27.8% EDP vs single-ISA hetero",
        ),
    ] {
        let budgets = &SINGLE_THREAD_POWER_BUDGETS;
        let grid = h.search_grid(&eval, &SystemKind::ALL, objective, budgets);
        println!("\nFigure 7: single-thread {metric} under peak power budgets");
        print_grid(budgets, &grid, |r, _| r.as_ref().map(|r| r.score));
        println!("  {note}");
    }
}
