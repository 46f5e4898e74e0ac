//! Figure 10: processor-area (no caches) transistor investment of each
//! constrained-optimal design from the Figure 9 study.

use cisa_bench::Harness;
use cisa_explore::multicore::CoreChoice;
use cisa_power::core_budget;

fn breakdown(h: &Harness, cores: &[CoreChoice; 4]) -> [f64; 7] {
    // fetch, decode, bpred, scheduler, regfile, fu, total
    let mut out = [0.0f64; 7];
    for c in cores {
        let b = core_budget(&c.config(&h.space)).breakdown;
        for (i, s) in [b.fetch, b.decode, b.bpred, b.scheduler, b.regfile, b.fu]
            .iter()
            .enumerate()
        {
            out[i] += s.area;
            out[6] += s.area;
        }
    }
    out
}

fn main() {
    let h = Harness::load();
    let eval = h.evaluator();
    println!("Figure 10: combined core-area breakdown (mm2, no caches) of constrained-optimal designs at 48mm2");
    println!(
        "{:<22} {:>7} {:>7} {:>7} {:>7} {:>8} {:>7} {:>8}",
        "constraint", "fetch", "decode", "bpred", "sched", "regfile", "fu", "total"
    );
    for (name, result) in h.sensitivity_sweep(&eval) {
        let Some(r) = result else { continue };
        let b = breakdown(&h, &r.cores);
        println!(
            "{:<22} {:>7.2} {:>7.2} {:>7.2} {:>7.2} {:>8.2} {:>7.2} {:>8.2}",
            name, b[0], b[1], b[2], b[3], b[4], b[5], b[6]
        );
    }
    println!("\npaper: the all-microx86 design takes the least combined core area; excluding microx86 takes the most");
}
