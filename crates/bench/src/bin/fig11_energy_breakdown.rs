//! Figure 11: processor energy breakdown by stage for the
//! constrained-optimal designs of the Figure 9 study, on the
//! multiprogrammed workload.
//!
//! The paper's key observation: although the decoder takes more *area*
//! than the fetch unit, the *fetch* unit expends more run-time energy
//! because the decode pipeline only fires on a micro-op cache miss.

use cisa_bench::Harness;
use cisa_explore::multicore::CoreChoice;
use cisa_explore::unit_energy;
use cisa_workloads::all_phases;

fn energy_breakdown(h: &Harness, cores: &[CoreChoice; 4]) -> [f64; 8] {
    // fetch, decode, bpred, scheduler, regfile, fu, mem, static
    let mut out = [0.0f64; 8];
    let phases = all_phases();
    for c in cores {
        let (ua, cfg) = (c.microarch(&h.space), c.config(&h.space));
        // A representative slice: one phase per benchmark.
        for spec in phases.iter().filter(|p| p.index == 0) {
            let e = unit_energy(&h.runner.probe(spec, cfg.fs), ua, &cfg);
            for (i, j) in [
                e.fetch_j,
                e.decode_j,
                e.bpred_j,
                e.scheduler_j,
                e.regfile_j,
                e.fu_j,
                e.mem_j,
                e.static_j,
            ]
            .iter()
            .enumerate()
            {
                out[i] += j;
            }
        }
    }
    out
}

fn main() {
    let h = Harness::load();
    let eval = h.evaluator();
    println!("Figure 11: processor energy breakdown (J per workload slice) at 48mm2");
    println!(
        "{:<22} {:>9} {:>9} {:>8} {:>9} {:>9} {:>8} {:>9} {:>9}",
        "constraint", "fetch", "decode", "bpred", "sched", "regfile", "fu", "mem", "static"
    );
    for (name, result) in h.sensitivity_sweep(&eval) {
        let Some(r) = result else { continue };
        let b = energy_breakdown(&h, &r.cores);
        let f = |x: f64| format!("{:.2e}", x);
        println!(
            "{:<22} {:>9} {:>9} {:>8} {:>9} {:>9} {:>8} {:>9} {:>9}",
            name,
            f(b[0]),
            f(b[1]),
            f(b[2]),
            f(b[3]),
            f(b[4]),
            f(b[5]),
            f(b[6]),
            f(b[7])
        );
        if b[0] <= b[1] {
            println!("  note: decode outspent fetch here (paper expects fetch > decode)");
        }
    }
    println!(
        "\npaper: fetch expends more energy than decode (decode fires only on uop-cache misses)"
    );
}
