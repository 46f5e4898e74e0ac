//! Figure 11: processor energy breakdown by stage for the
//! constrained-optimal designs of the Figure 9 study, on the
//! multiprogrammed workload.
//!
//! The paper's key observation: although the decoder takes more *area*
//! than the fetch unit, the *fetch* unit expends more run-time energy
//! because the decode pipeline only fires on a micro-op cache miss.

use cisa_bench::Harness;
use cisa_explore::interval::evaluate;
use cisa_explore::multicore::{search, Budget, CoreChoice, Objective};
use cisa_explore::profile::probe;
use cisa_explore::{
    candidates, constrained_candidates, par_map, sensitivity_constraints, SystemKind,
};
use cisa_power::energy;
use cisa_sim::{Activity, SimResult};
use cisa_workloads::all_phases;

fn energy_breakdown(h: &Harness, cores: &[CoreChoice; 4]) -> [f64; 8] {
    // fetch, decode, bpred, scheduler, regfile, fu, mem, static
    let mut out = [0.0f64; 8];
    let phases = all_phases();
    for c in cores {
        let (cfg, ua) = match c {
            CoreChoice::Composite(id) => (h.space.config(*id), h.space.microarchs[id.ua as usize]),
            CoreChoice::Vendor(v, ua) => (
                h.space.microarchs[*ua as usize].with_fs(v.x86ized()),
                h.space.microarchs[*ua as usize],
            ),
        };
        // A representative slice: one phase per benchmark.
        for spec in phases.iter().filter(|p| p.index == 0) {
            let prof = probe(spec, cfg.fs);
            let perf = evaluate(&prof, &ua, &cfg);
            // Rebuild the per-unit activity for a full report.
            let scale = 1000.0 * prof.uops_per_unit;
            let n = |x: f64| (x * scale).round().max(0.0) as u64;
            let act = Activity {
                uops: n(1.0),
                macro_ops: n(prof.macro_per_uop),
                uopc_hits: n(prof.macro_per_uop * prof.uopc_hit_rate),
                uopc_misses: n(prof.macro_per_uop * (1.0 - prof.uopc_hit_rate)),
                ild_bytes: n(prof.macro_per_uop * (1.0 - prof.uopc_hit_rate) * prof.avg_macro_len),
                decodes: n(prof.macro_per_uop * (1.0 - prof.uopc_hit_rate)),
                bp_lookups: n(prof.mix[6]),
                bp_mispredicts: 0,
                int_ops: n(prof.mix[2] + prof.mix[6] + prof.mix[7]),
                mul_ops: n(prof.mix[3]),
                fp_ops: n(prof.mix[4]),
                vec_ops: n(prof.mix[5]),
                loads: n(prof.mix[0]),
                stores: n(prof.mix[1]),
                forwards: 0,
                l1d_accesses: n(prof.mix[0] + prof.mix[1]),
                l1d_misses: n(prof.l1d_miss_per_uop[0]),
                l2_accesses: n(prof.l1d_miss_per_uop[0]),
                l2_misses: n(prof.l2_miss_per_uop[0][0]),
                l1i_misses: n(prof.l1i_miss_per_uop[0]),
                regfile_reads: n(1.6),
                regfile_writes: n(0.7),
                fused_pairs: 0,
            };
            let res = SimResult {
                cycles: (perf.cycles_per_unit * 1000.0) as u64,
                activity: act,
                stalls: Default::default(),
            };
            let e = energy(&cfg, &res);
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
    let cfg = h.search_config();
    let budget = Budget::Area(48.0);
    println!("Figure 11: processor energy breakdown (J per workload slice) at 48mm2");
    println!(
        "{:<22} {:>9} {:>9} {:>8} {:>9} {:>9} {:>8} {:>9} {:>9}",
        "constraint", "fetch", "decode", "bpred", "sched", "regfile", "fu", "mem", "static"
    );
    let mut rows: Vec<(String, [CoreChoice; 4])> = Vec::new();
    let all = candidates(&h.space, SystemKind::CompositeFull);
    if let Some(r) = search(&eval, &all, Objective::Throughput, budget, &cfg) {
        rows.push(("unconstrained".into(), r.cores));
    }
    let constraints = sensitivity_constraints();
    let found = par_map(&constraints, h.runner.threads(), |(name, constraint)| {
        let cands = constrained_candidates(&h.space, constraint);
        search(&eval, &cands, Objective::Throughput, budget, &cfg).map(|r| (name.clone(), r.cores))
    });
    rows.extend(found.into_iter().flatten());
    for (name, cores) in rows {
        let b = energy_breakdown(&h, &cores);
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
