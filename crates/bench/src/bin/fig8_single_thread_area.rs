//! Figure 8: single-thread performance and EDP under area budgets.

use cisa_bench::{Harness, AREA_BUDGETS};
use cisa_explore::multicore::Objective;
use cisa_explore::{par_map, search_system, SystemKind};

fn main() {
    let h = Harness::load();
    let eval = h.evaluator();
    let cfg = h.search_config();
    for (metric, objective) in [
        (
            "performance (speedup, higher better)",
            Objective::SingleThread,
        ),
        ("EDP gain (higher better)", Objective::SingleEdp),
    ] {
        let grid: Vec<(SystemKind, usize)> = SystemKind::ALL
            .iter()
            .flat_map(|&kind| (0..AREA_BUDGETS.len()).map(move |bi| (kind, bi)))
            .collect();
        let cells = par_map(&grid, h.runner.threads(), |&(kind, bi)| {
            search_system(&eval, kind, objective, AREA_BUDGETS[bi].1, &cfg)
                .map(|r| format!("{:>10.3}", r.score))
                .unwrap_or_else(|| format!("{:>10}", "-"))
        });

        println!("\nFigure 8: single-thread {metric} under area budgets");
        println!(
            "{:<50} {}",
            "design",
            AREA_BUDGETS.map(|(n, _)| format!("{n:>10}")).join(" ")
        );
        for (row, kind) in SystemKind::ALL.iter().enumerate() {
            let n = AREA_BUDGETS.len();
            println!(
                "{:<50} {}",
                kind.label(),
                cells[row * n..(row + 1) * n].join(" ")
            );
        }
    }
    println!("\npaper: composite-ISA averages +20% speedup, -21% EDP vs single-ISA hetero under area budgets");
}
