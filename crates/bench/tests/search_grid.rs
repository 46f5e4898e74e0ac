//! The shared search grid is a row-major sweep of `search_system`:
//! every cell carries the cores and score bits of a direct call.

use cisa_bench::Harness;
use cisa_explore::multicore::{Budget, Objective};
use cisa_explore::{search_system, DesignSpace, PerfTable, SweepRunner, SystemKind};
use cisa_workloads::all_phases;

#[test]
fn grid_cells_equal_direct_searches() {
    let space = DesignSpace::new();
    let phases: Vec<_> = all_phases().into_iter().filter(|p| p.index == 0).collect();
    let runner = SweepRunner::new(2);
    let (table, _) = PerfTable::build(&space, &phases, &runner);
    let h = Harness {
        space,
        table,
        runner,
    };
    let eval = h.evaluator();
    let budgets = [
        ("20W", Budget::PeakPower(20.0)),
        ("48mm2", Budget::Area(48.0)),
    ];
    let grid = h.search_grid(&eval, &SystemKind::ALL, Objective::Throughput, &budgets);
    assert_eq!(grid.len(), SystemKind::ALL.len() * budgets.len());
    for (k, &kind) in SystemKind::ALL.iter().enumerate() {
        for (b, &(name, budget)) in budgets.iter().enumerate() {
            let cell = grid[k * budgets.len() + b].as_ref();
            let direct = search_system(&eval, kind, Objective::Throughput, budget);
            let (cell, direct) = (
                cell.unwrap_or_else(|| panic!("{kind:?} at {name} infeasible")),
                direct.expect("direct search feasible"),
            );
            assert_eq!(cell.cores, direct.cores, "{kind:?} at {name}");
            assert_eq!(
                cell.score.to_bits(),
                direct.score.to_bits(),
                "{kind:?} at {name}"
            );
        }
    }
}
