//! Design exploration in miniature: search for the best composite-ISA
//! 4-core multicore under a 40W budget over a reduced phase set, and
//! compare against the single-ISA heterogeneous baseline.
//!
//! ```sh
//! cargo run --release --example design_explorer
//! ```

use composite_isa::explore::multicore::{Budget, Evaluator, Objective, SearchConfig};
use composite_isa::explore::{search_system, DesignSpace, PerfTable, SweepRunner, SystemKind};
use composite_isa::workloads::all_phases;

fn main() {
    let space = DesignSpace::new();
    println!(
        "design space: {} feature sets x {} microarchitectures = {} points",
        space.feature_sets.len(),
        space.microarchs.len(),
        space.len()
    );

    // One phase per benchmark keeps this example under a minute.
    let phases: Vec<_> = all_phases().into_iter().filter(|p| p.index == 0).collect();
    println!("probing {} phases...", phases.len());
    let (table, _) = PerfTable::build(&space, &phases, &SweepRunner::default());
    let eval = Evaluator::new(&space, &table, 12);
    let cfg = SearchConfig::default();

    for kind in [SystemKind::SingleIsaHetero, SystemKind::CompositeFull] {
        let r = search_system(
            &eval,
            kind,
            Objective::Throughput,
            Budget::PeakPower(40.0),
            &cfg,
        )
        .expect("40W is feasible");
        println!("\n{} (score {:.3}):", kind.label(), r.score);
        for c in &r.cores {
            println!("  {}", c.describe(&space));
        }
    }
}
