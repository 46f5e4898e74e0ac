//! Figure 7: single-thread performance and EDP under tight peak-power
//! budgets (dynamic multicore topology: one core on at a time,
//! migration across the four cores).

use cisa_bench::{Harness, SINGLE_THREAD_POWER_BUDGETS};
use cisa_explore::multicore::Objective;
use cisa_explore::{par_map, search_system, SystemKind};

fn main() {
    let h = Harness::load();
    let eval = h.evaluator();
    let cfg = h.search_config();
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
        let grid: Vec<(SystemKind, usize)> = SystemKind::ALL
            .iter()
            .flat_map(|&kind| (0..SINGLE_THREAD_POWER_BUDGETS.len()).map(move |bi| (kind, bi)))
            .collect();
        let cells = par_map(&grid, h.runner.threads(), |&(kind, bi)| {
            search_system(
                &eval,
                kind,
                objective,
                SINGLE_THREAD_POWER_BUDGETS[bi].1,
                &cfg,
            )
            .map(|r| format!("{:>10.3}", r.score))
            .unwrap_or_else(|| format!("{:>10}", "-"))
        });

        println!("\nFigure 7: single-thread {metric} under peak power budgets");
        println!(
            "{:<50} {}",
            "design",
            SINGLE_THREAD_POWER_BUDGETS
                .map(|(n, _)| format!("{n:>10}"))
                .join(" ")
        );
        for (row, kind) in SystemKind::ALL.iter().enumerate() {
            let n = SINGLE_THREAD_POWER_BUDGETS.len();
            println!(
                "{:<50} {}",
                kind.label(),
                cells[row * n..(row + 1) * n].join(" ")
            );
        }
        println!("  {note}");
    }
}
