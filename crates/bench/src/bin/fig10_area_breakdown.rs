//! Figure 10: processor-area (no caches) transistor investment of each
//! constrained-optimal design from the Figure 9 study.

use cisa_bench::Harness;
use cisa_explore::multicore::{search, Budget, CoreChoice, Objective};
use cisa_explore::{
    candidates, constrained_candidates, par_map, sensitivity_constraints, SystemKind,
};
use cisa_power::core_budget;

fn breakdown(h: &Harness, cores: &[CoreChoice; 4]) -> [f64; 7] {
    // fetch, decode, bpred, scheduler, regfile, fu, total
    let mut out = [0.0f64; 7];
    for c in cores {
        let cfg = match c {
            CoreChoice::Composite(id) => h.space.config(*id),
            CoreChoice::Vendor(v, ua) => h.space.microarchs[*ua as usize].with_fs(v.x86ized()),
        };
        let b = core_budget(&cfg).breakdown;
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
    let cfg = h.search_config();
    let budget = Budget::Area(48.0);
    println!("Figure 10: combined core-area breakdown (mm2, no caches) of constrained-optimal designs at 48mm2");
    println!(
        "{:<22} {:>7} {:>7} {:>7} {:>7} {:>8} {:>7} {:>8}",
        "constraint", "fetch", "decode", "bpred", "sched", "regfile", "fu", "total"
    );
    let mut rows: Vec<(String, Vec<CoreChoice>)> = Vec::new();
    let all = candidates(&h.space, SystemKind::CompositeFull);
    if let Some(r) = search(&eval, &all, Objective::Throughput, budget, &cfg) {
        rows.push(("unconstrained".into(), r.cores.to_vec()));
    }
    let constraints = sensitivity_constraints();
    let found = par_map(&constraints, h.runner.threads(), |(name, constraint)| {
        let cands = constrained_candidates(&h.space, constraint);
        search(&eval, &cands, Objective::Throughput, budget, &cfg)
            .map(|r| (name.clone(), r.cores.to_vec()))
    });
    rows.extend(found.into_iter().flatten());
    for (name, cores) in rows {
        let cores: [CoreChoice; 4] = [cores[0], cores[1], cores[2], cores[3]];
        let b = breakdown(&h, &cores);
        println!(
            "{:<22} {:>7.2} {:>7.2} {:>7.2} {:>7.2} {:>8.2} {:>7.2} {:>8.2}",
            name, b[0], b[1], b[2], b[3], b[4], b[5], b[6]
        );
    }
    println!("\npaper: the all-microx86 design takes the least combined core area; excluding microx86 takes the most");
}
