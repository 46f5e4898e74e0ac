//! Quickstart: compile one benchmark phase for two composite feature
//! sets, run both on the cycle simulator, and compare.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use composite_isa::compiler::{compile, CompileOptions};
use composite_isa::isa::FeatureSet;
use composite_isa::power::{core_budget, energy};
use composite_isa::sim::{simulate, CoreConfig};
use composite_isa::workloads::{all_phases, generate, TraceArena, TraceParams};

fn main() {
    // Pick the register-pressure-heavy hmmer benchmark.
    let spec = all_phases()
        .into_iter()
        .find(|p| p.benchmark == "hmmer")
        .expect("hmmer exists");
    let ir = generate(&spec);
    println!("workload: {} ({} IR blocks)", spec.name(), ir.blocks.len());

    for fs_name in ["x86-16D-64W", "x86-64D-64W"] {
        let fs: FeatureSet = fs_name.parse().expect("valid name");
        let code = compile(&ir, &fs, &CompileOptions::default()).expect("compiles");
        let cfg = CoreConfig::reference(fs);
        let params = TraceParams::default();
        let trace = TraceArena::build(&code, &spec, params);
        let result = simulate(&cfg, &trace);
        let e = energy(&cfg, &result);
        let b = core_budget(&cfg);
        // Both runs execute the same number of micro-ops, but spill
        // code inflates the micro-ops needed per unit of real work —
        // compare cycles and energy *per work unit*, not per uop.
        let units = params.max_uops as f64 / code.stats.total_uops();
        println!("\n{fs_name} on {}:", cfg.describe());
        println!(
            "  spill refills/unit: {:.0}",
            code.stats.regalloc.dyn_refill_loads
        );
        println!(
            "  IPC {:.3}  cycles/work-unit {:.0}  energy/work-unit {:.2e} J",
            result.ipc(),
            result.cycles as f64 / units,
            e.total_j / units
        );
        println!(
            "  core budget: {:.1} W peak, {:.1} mm2",
            b.peak_power_w, b.area_mm2
        );
    }
    println!("\nhmmer wants 64 registers: the depth-64 run eliminates the spill refills.");
}
