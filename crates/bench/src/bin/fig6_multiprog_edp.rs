//! Figure 6: multiprogrammed EDP of the five organizations under
//! peak-power and area budgets (lower is better; printed normalized to
//! homogeneous, so values < 1 are EDP reductions).

use cisa_bench::{print_grid, Harness, AREA_BUDGETS, POWER_BUDGETS};
use cisa_explore::multicore::{Objective, SearchResult};
use cisa_explore::SystemKind;

/// The score is the EDP *gain* over the reference chip; the figure
/// plots the EDP itself.
fn edp(r: &Option<SearchResult>) -> f64 {
    r.as_ref().map_or(f64::NAN, |r| 1.0 / r.score)
}

fn main() {
    let h = Harness::load();
    let eval = h.evaluator();
    for (axis_name, budgets) in [
        ("Peak Power Budget", &POWER_BUDGETS),
        ("Area Budget", &AREA_BUDGETS),
    ] {
        let grid = h.search_grid(&eval, &SystemKind::ALL, Objective::Edp, budgets);
        println!("\nFigure 6 ({axis_name}): multiprogrammed EDP, normalized to homogeneous (lower is better)");
        print_grid(budgets, &grid, |r, homogeneous| {
            Some(edp(r) / edp(homogeneous))
        });
    }
    println!("\npaper: composite-ISA reduces EDP by ~34.6% vs single-ISA heterogeneous");
}
