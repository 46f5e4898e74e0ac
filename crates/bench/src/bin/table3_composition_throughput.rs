//! Table III: composite-ISA multicore compositions optimized for
//! multiprogrammed throughput under each peak-power budget.

use cisa_bench::{print_compositions, Harness, POWER_BUDGETS};
use cisa_explore::multicore::Objective;
use cisa_explore::SystemKind;

fn main() {
    let h = Harness::load();
    let eval = h.evaluator();
    println!("Table III: composite-ISA compositions (multiprogrammed throughput objective)");
    let results = h.search_grid(
        &eval,
        &[SystemKind::CompositeFull],
        Objective::Throughput,
        &POWER_BUDGETS,
    );
    print_compositions(&eval, &results, |r| {
        let total: f64 = r.cores.iter().map(|c| eval.budget(c).1).sum();
        format!(
            "total peak power: {total:.1} W   throughput score: {:.3}",
            r.score
        )
    });
}
