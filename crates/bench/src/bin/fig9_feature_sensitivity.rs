//! Figure 9: performance degradation of feature-constrained
//! composite-ISA designs at a 48mm^2 budget (multiprogrammed
//! throughput), relative to the unconstrained search.

use cisa_bench::Harness;

fn main() {
    let h = Harness::load();
    let eval = h.evaluator();
    let rows = h.sensitivity_sweep(&eval);
    let free = rows[0]
        .1
        .as_ref()
        .expect("unconstrained search feasible")
        .score;
    println!("Figure 9: performance degradation under feature constraints (48mm2, throughput)");
    println!("{:<22} {:>12} {:>14}", "constraint", "score", "degradation");
    println!("{:<22} {:>12.3} {:>14}", "unconstrained", free, "0.0%");
    for (name, result) in &rows[1..] {
        let line = match result {
            Some(r) => format!(
                "{:<22} {:>12.3} {:>13.1}%",
                name,
                r.score,
                (1.0 - r.score / free) * 100.0
            ),
            None => format!("{:<22} {:>12} {:>14}", name, "-", "infeasible"),
        };
        println!("{line}");
    }
    println!("\npaper: constraining depth below 32 hurts most; excluding x86 hurts more than excluding microx86");
}
