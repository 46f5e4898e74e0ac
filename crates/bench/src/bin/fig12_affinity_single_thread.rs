//! Figure 12: execution-time breakdown by feature set on the best
//! composite-ISA design optimized for single-thread performance at 10W.

use cisa_bench::Harness;
use cisa_explore::multicore::{search, Budget, CoreChoice, Objective};
use cisa_explore::{candidates, SystemKind};
use std::collections::HashMap;

fn main() {
    let h = Harness::load();
    let eval = h.evaluator();
    let cfg = h.search_config();
    let all = candidates(&h.space, SystemKind::CompositeFull);
    let r = search(
        &eval,
        &all,
        Objective::SingleThread,
        Budget::PeakPower(10.0),
        &cfg,
    )
    .expect("feasible at 10W");
    println!("Figure 12: best single-thread composite design at 10W:");
    for c in &r.cores {
        println!("  {}", c.describe(&h.space));
    }
    println!("\nexecution-time share per feature set (each benchmark migrates freely):");
    for (b, phases) in eval.bench_phases.iter().enumerate() {
        let bench = cisa_workloads::all_benchmarks()[eval.bench_ids[b] as usize].name;
        let mut time_by_fs: HashMap<String, f64> = HashMap::new();
        let mut total = 0.0;
        for &p in phases {
            let best = eval.fastest(p, &r.cores);
            let t = eval.perf(p, best).cycles_per_unit;
            let fs = match best {
                CoreChoice::Composite(id) => h.space.feature_sets[id.fs as usize].to_string(),
                CoreChoice::Vendor(v, _) => v.to_string(),
            };
            *time_by_fs.entry(fs).or_default() += t;
            total += t;
        }
        let mut shares: Vec<(String, f64)> = time_by_fs
            .into_iter()
            .map(|(fs, t)| (fs, 100.0 * t / total))
            .collect();
        shares.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        let s: Vec<String> = shares
            .iter()
            .map(|(fs, pc)| format!("{fs} {pc:.0}%"))
            .collect();
        println!("  {:<12} {}", bench, s.join(", "));
    }
    println!("\npaper: every superset feature appears in some core; hmmer pins depth-64; sjeng/gobmk prefer full predication");
}
