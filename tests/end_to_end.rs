//! Cross-crate integration tests: the full pipeline from benchmark
//! generation through compilation, trace expansion, cycle simulation,
//! and energy accounting.

use composite_isa::compiler::{compile, CompileOptions};
use composite_isa::explore::cache::fnv1a;
use composite_isa::isa::{Complexity, FeatureSet};
use composite_isa::power::energy;
use composite_isa::sim::{simulate, CoreConfig};
use composite_isa::workloads::{all_phases, generate, TraceArena, TraceParams};

fn run(bench: &str, fs: FeatureSet, cfg: &CoreConfig, uops: usize) -> (f64, f64) {
    let spec = all_phases()
        .into_iter()
        .find(|p| p.benchmark == bench)
        .unwrap();
    let code = compile(&generate(&spec), &fs, &CompileOptions::default()).unwrap();
    let trace = TraceArena::build(
        &code,
        &spec,
        TraceParams {
            max_uops: uops,
            seed: 1,
        },
    );
    let result = simulate(cfg, &trace);
    let e = energy(cfg, &result);
    // Work-normalized: cycles per unit of phase work.
    let units = uops as f64 / code.stats.total_uops();
    (result.cycles as f64 / units, e.total_j / units)
}

#[test]
fn full_pipeline_runs_for_every_feature_set() {
    let spec = all_phases()
        .into_iter()
        .find(|p| p.benchmark == "milc")
        .unwrap();
    let ir = generate(&spec);
    for fs in FeatureSet::all() {
        let code =
            compile(&ir, &fs, &CompileOptions::default()).unwrap_or_else(|e| panic!("{fs}: {e}"));
        let trace = TraceArena::build(
            &code,
            &spec,
            TraceParams {
                max_uops: 4000,
                seed: 2,
            },
        );
        let cfg = CoreConfig::reference(fs);
        let r = simulate(&cfg, &trace);
        assert!(r.cycles > 0 && r.activity.uops == 4000, "{fs}");
        let e = energy(&cfg, &r);
        assert!(e.total_j > 0.0 && e.total_j.is_finite(), "{fs}");
    }
}

#[test]
fn isa_affinity_hmmer_wants_deep_registers() {
    // hmmer is the paper's canonical register-pressure benchmark: depth
    // 64 must beat depth 16 end-to-end (compiled code + cycle sim).
    let d16: FeatureSet = "x86-16D-64W".parse().unwrap();
    let d64: FeatureSet = "x86-64D-64W".parse().unwrap();
    let (t16, _) = run("hmmer", d16, &CoreConfig::reference(d16), 24_000);
    let (t64, _) = run("hmmer", d64, &CoreConfig::reference(d64), 24_000);
    assert!(
        t64 < t16 * 0.95,
        "hmmer at depth 64 ({t64:.0}) must beat depth 16 ({t16:.0})"
    );
}

#[test]
fn isa_affinity_lbm_wants_sse() {
    let sse = FeatureSet::x86_64();
    let scalar: FeatureSet = "microx86-16D-64W".parse().unwrap();
    let (t_sse, _) = run("lbm", sse, &CoreConfig::reference(sse), 24_000);
    let (t_scalar, _) = run("lbm", scalar, &CoreConfig::reference(scalar), 24_000);
    assert!(
        t_sse < t_scalar,
        "lbm with SSE ({t_sse:.0}) must beat scalarized ({t_scalar:.0})"
    );
}

#[test]
fn little_cores_save_energy_big_cores_save_time() {
    let fs = FeatureSet::x86_64();
    let (t_big, e_big) = run("bzip2", fs, &CoreConfig::big(fs), 24_000);
    let (t_little, e_little) = run("bzip2", fs, &CoreConfig::little(fs), 24_000);
    assert!(t_big < t_little, "big core must be faster");
    assert!(e_little < e_big, "little core must use less energy");
}

#[test]
fn microx86_is_single_uop_end_to_end() {
    let spec = all_phases()
        .into_iter()
        .find(|p| p.benchmark == "gobmk")
        .unwrap();
    for fs in FeatureSet::all()
        .into_iter()
        .filter(|f| f.complexity() == Complexity::MicroX86)
    {
        let code = compile(&generate(&spec), &fs, &CompileOptions::default()).unwrap();
        for b in &code.blocks {
            for inst in &b.insts {
                assert!(
                    inst.uop_count() == 1,
                    "{fs}: microx86 instruction decodes into {} uops: {inst}",
                    inst.uop_count()
                );
            }
        }
    }
}

#[test]
fn code_density_shrinks_with_fewer_prefixes() {
    // Deep register files cost REXBC prefixes: depth-64 code must be
    // larger than the same phase at depth 16.
    let spec = all_phases()
        .into_iter()
        .find(|p| p.benchmark == "hmmer")
        .unwrap();
    let ir = generate(&spec);
    let opts = CompileOptions::default();
    let c16 = compile(&ir, &"microx86-16D-32W".parse().unwrap(), &opts).unwrap();
    let c64 = compile(&ir, &"microx86-64D-32W".parse().unwrap(), &opts).unwrap();
    assert!(
        c64.stats.avg_inst_bytes > c16.stats.avg_inst_bytes,
        "REXBC prefixes lengthen encodings: {} vs {}",
        c64.stats.avg_inst_bytes,
        c16.stats.avg_inst_bytes
    );
}

/// Digest of [`simulator_outputs_match_pinned_digest`], taken when each
/// simulation drove a live decode frontend micro-op by micro-op instead
/// of replaying a captured supply stream.
const SIM_DIGEST: u64 = 0xadfd_9c70_22ee_9829;

/// Pins the cycle simulator's every output bit: the first phase of each
/// benchmark on a full-x86 and a microx86 feature set, through the
/// reference out-of-order core, the little in-order core and the
/// reference core with the L1D stream prefetcher on.
#[test]
fn simulator_outputs_match_pinned_digest() {
    use composite_isa::sim::simulate_with_prefetcher;
    let mut text = String::new();
    let mut seen = Vec::new();
    for spec in all_phases() {
        if seen.contains(&spec.benchmark) {
            continue;
        }
        seen.push(spec.benchmark);
        for fs in [
            FeatureSet::x86_64(),
            "microx86-16D-32W".parse::<FeatureSet>().unwrap(),
        ] {
            let code = compile(&generate(&spec), &fs, &CompileOptions::default()).unwrap();
            let params = TraceParams {
                max_uops: 30_000,
                seed: 0xD16E,
            };
            let trace = TraceArena::build(&code, &spec, params);
            let reference = CoreConfig::reference(fs);
            for r in [
                simulate(&reference, &trace),
                simulate(&CoreConfig::little(fs), &trace),
                simulate_with_prefetcher(&reference, &trace, true),
            ] {
                // `Debug` prints every field of the result, its activity
                // counters and its stall breakdown.
                text += &format!("{r:?}\n");
            }
        }
    }
    assert_eq!(seen.len(), 8, "one phase per benchmark");
    let digest = fnv1a(text.as_bytes());
    assert_eq!(digest, SIM_DIGEST, "simulator digest moved: {digest:#018x}");
}
