//! Table IV: composite-ISA multicore compositions optimized for
//! multiprogrammed EDP under each peak-power budget.

use cisa_bench::{print_compositions, Harness, POWER_BUDGETS};
use cisa_explore::multicore::Objective;
use cisa_explore::SystemKind;

fn main() {
    let h = Harness::load();
    let eval = h.evaluator();
    println!("Table IV: composite-ISA compositions (multiprogrammed efficiency objective)");
    let results = h.search_grid(
        &eval,
        &[SystemKind::CompositeFull],
        Objective::Edp,
        &POWER_BUDGETS,
    );
    print_compositions(&eval, &results, |r| {
        format!("EDP gain over reference chip: {:.2}x", r.score)
    });
}
