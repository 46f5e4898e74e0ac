//! Figure 9: performance degradation of feature-constrained
//! composite-ISA designs at a 48mm^2 budget (multiprogrammed
//! throughput), relative to the unconstrained search.

use cisa_bench::Harness;
use cisa_explore::multicore::{search, Budget, Objective};
use cisa_explore::{
    candidates, constrained_candidates, par_map, sensitivity_constraints, SystemKind,
};

fn main() {
    let h = Harness::load();
    let eval = h.evaluator();
    let cfg = h.search_config();
    let budget = Budget::Area(48.0);
    let all = candidates(&h.space, SystemKind::CompositeFull);
    let free = search(&eval, &all, Objective::Throughput, budget, &cfg)
        .expect("unconstrained search feasible")
        .score;
    let constraints = sensitivity_constraints();
    let scores = par_map(&constraints, h.runner.threads(), |(_, constraint)| {
        let cands = constrained_candidates(&h.space, constraint);
        search(&eval, &cands, Objective::Throughput, budget, &cfg).map(|r| r.score)
    });
    println!("Figure 9: performance degradation under feature constraints (48mm2, throughput)");
    println!("{:<22} {:>12} {:>14}", "constraint", "score", "degradation");
    println!("{:<22} {:>12.3} {:>14}", "unconstrained", free, "0.0%");
    for ((name, _), score) in constraints.iter().zip(&scores) {
        let line = match score {
            Some(s) => format!(
                "{:<22} {:>12.3} {:>13.1}%",
                name,
                s,
                (1.0 - s / free) * 100.0
            ),
            None => format!("{:<22} {:>12} {:>14}", name, "-", "infeasible"),
        };
        println!("{line}");
    }
    println!("\npaper: constraining depth below 32 hurts most; excluding x86 hurts more than excluding microx86");
}
