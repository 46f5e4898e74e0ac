//! Randomized integration tests over the workload-to-simulation
//! pipeline, driven by a seeded [`SmallRng`] for deterministic case
//! selection.

use composite_isa::compiler::{compile, CompileOptions};
use composite_isa::isa::FeatureSet;
use composite_isa::sim::{simulate, CoreConfig};
use composite_isa::workloads::{all_phases, generate, TraceArena, TraceParams};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Any phase compiled to any feature set produces code whose every
/// instruction is legal under that feature set, and the trace it
/// expands to simulates without panicking on any reference core.
#[test]
fn compile_trace_simulate_is_total() {
    let mut rng = SmallRng::seed_from_u64(0x3072_0001);
    let phases = all_phases();
    let fss = FeatureSet::all();
    for _ in 0..16 {
        let spec = &phases[rng.gen_range(0..phases.len())];
        let fs = fss[rng.gen_range(0..fss.len())];
        let code = compile(&generate(spec), &fs, &CompileOptions::default()).unwrap();
        for b in &code.blocks {
            for inst in &b.insts {
                assert!(inst.legal_under(&fs), "{inst} illegal under {fs}");
            }
        }
        let trace = TraceArena::build(
            &code,
            spec,
            TraceParams {
                max_uops: 1500,
                seed: 9,
            },
        );
        let r = simulate(&CoreConfig::reference(fs), &trace);
        assert!(r.cycles >= 1500 / 4, "IPC cannot exceed pipeline width");
        assert_eq!(r.activity.uops, 1500);
    }
}

/// Trace generation with different seeds preserves the static code
/// layout (same PCs) while varying dynamic outcomes.
#[test]
fn trace_seeds_vary_outcomes_not_layout() {
    let mut rng = SmallRng::seed_from_u64(0x3072_0002);
    let spec = &all_phases()[5];
    let fs = FeatureSet::x86_64();
    let code = compile(&generate(spec), &fs, &CompileOptions::default()).unwrap();
    for _ in 0..16 {
        let seed_a = rng.gen_range(0..100u64);
        let seed_b = rng.gen_range(100..200u64);
        let trace = |seed| {
            TraceArena::build(
                &code,
                spec,
                TraceParams {
                    max_uops: 600,
                    seed,
                },
            )
        };
        let (ta, tb) = (trace(seed_a), trace(seed_b));
        // First macro-op is deterministic.
        assert_eq!(ta.pcs()[0], tb.pcs()[0]);
        // PC sets intersect heavily (same static code).
        let pcs_a: std::collections::HashSet<u64> = ta.pcs().iter().copied().collect();
        let pcs_b: std::collections::HashSet<u64> = tb.pcs().iter().copied().collect();
        let shared = pcs_a.intersection(&pcs_b).count();
        assert!(
            shared * 2 >= pcs_a.len().min(pcs_b.len()),
            "layouts must match"
        );
    }
}

/// The feature-set coverage lattice is sound end-to-end: code for a
/// covered set always runs unmodified under the covering set's
/// legality rules. Exhaustive over all 26 x 26 pairs; code is compiled
/// once per covered set.
#[test]
fn coverage_lattice_is_sound() {
    let all = FeatureSet::all();
    let spec = &all_phases()[0];
    for &fb in &all {
        let code = compile(&generate(spec), &fb, &CompileOptions::default()).unwrap();
        for &fa in &all {
            if !fa.covers(&fb) {
                continue;
            }
            for blk in &code.blocks {
                for inst in &blk.insts {
                    assert!(inst.legal_under(&fa), "{fa} covers {fb} but rejects {inst}");
                }
            }
        }
    }
}
