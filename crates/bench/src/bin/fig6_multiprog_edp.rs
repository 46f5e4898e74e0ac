//! Figure 6: multiprogrammed EDP of the five organizations under
//! peak-power and area budgets (lower is better; printed normalized to
//! homogeneous, so values < 1 are EDP reductions).

use cisa_bench::{Harness, AREA_BUDGETS, POWER_BUDGETS};
use cisa_explore::multicore::Objective;
use cisa_explore::{par_map, search_system, SystemKind};

fn main() {
    let h = Harness::load();
    let eval = h.evaluator();
    let cfg = h.search_config();

    for (axis_name, budgets) in [
        ("Peak Power Budget", &POWER_BUDGETS),
        ("Area Budget", &AREA_BUDGETS),
    ] {
        let grid: Vec<(SystemKind, usize)> = SystemKind::ALL
            .iter()
            .flat_map(|&kind| (0..budgets.len()).map(move |bi| (kind, bi)))
            .collect();
        // score is EDP *gain* vs the reference chip; invert to an EDP
        // value for the figure.
        let edps = par_map(&grid, h.runner.threads(), |&(kind, bi)| {
            search_system(&eval, kind, Objective::Edp, budgets[bi].1, &cfg)
                .map(|r| 1.0 / r.score)
                .unwrap_or(f64::NAN)
        });
        let edp_at = |kind: SystemKind, bi: usize| {
            edps[grid
                .iter()
                .position(|&(k, b)| k == kind && b == bi)
                .expect("grid covers all")]
        };

        println!("\nFigure 6 ({axis_name}): multiprogrammed EDP, normalized to homogeneous (lower is better)");
        println!(
            "{:<50} {}",
            "design",
            budgets.map(|(n, _)| format!("{n:>10}")).join(" ")
        );
        for kind in SystemKind::ALL {
            let cells: Vec<String> = (0..budgets.len())
                .map(|bi| {
                    let norm = edp_at(kind, bi) / edp_at(SystemKind::Homogeneous, bi);
                    format!("{norm:>10.3}")
                })
                .collect();
            println!("{:<50} {}", kind.label(), cells.join(" "));
        }
    }
    println!("\npaper: composite-ISA reduces EDP by ~34.6% vs single-ISA heterogeneous");
}
