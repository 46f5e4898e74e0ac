//! Micro-benchmarks for the hot components: the encoder and length
//! decoder, branch predictors, the cycle simulator, the compiler
//! pipeline, and the interval model. Uses the in-tree timing harness
//! (`cisa_bench::timing`) so the workspace builds offline.

use cisa_bench::timing::bench;
use cisa_compiler::{compile, CompileOptions};
use cisa_explore::{evaluate, probe};
use cisa_isa::inst::{MacroOpcode, Operand};
use cisa_isa::{ArchReg, Encoder, FeatureSet, InstLengthDecoder, MachineInst};
use cisa_sim::{simulate, CoreConfig, PredictorKind};
use cisa_workloads::{all_phases, generate, TraceArena, TraceParams};

fn bench_encoder() {
    let enc = Encoder::new(FeatureSet::superset());
    let insts: Vec<MachineInst> = (0..64u8)
        .map(|i| {
            MachineInst::compute(
                MacroOpcode::IntAlu,
                ArchReg::gpr(i % 64),
                Operand::Reg(ArchReg::gpr((i * 7) % 64)),
                Operand::None,
            )
        })
        .collect();
    bench("encoder/encode_64_insts", || {
        for i in &insts {
            std::hint::black_box(enc.encode(i).unwrap());
        }
    });
    let stream: Vec<u8> = insts
        .iter()
        .flat_map(|i| enc.encode(i).unwrap().bytes)
        .collect();
    let ild = InstLengthDecoder::new();
    bench("encoder/ild_decode_stream", || {
        std::hint::black_box(ild.decode_stream(&stream).unwrap());
    });
}

fn bench_predictors() {
    let outcomes: Vec<(u64, bool)> = (0..4096u64)
        .map(|i| (0x400000 + i % 37 * 8, i % 3 != 0))
        .collect();
    for kind in PredictorKind::ALL {
        let mut p = kind.build();
        bench(&format!("predictors/{kind:?}"), || {
            let mut correct = 0u32;
            for &(pc, taken) in &outcomes {
                if p.predict(pc) == taken {
                    correct += 1;
                }
                p.update(pc, taken);
            }
            std::hint::black_box(correct);
        });
    }
}

fn bench_compile() {
    let spec = all_phases()
        .into_iter()
        .find(|p| p.benchmark == "bzip2")
        .unwrap();
    let ir = generate(&spec);
    bench("compiler/compile_x86_64", || {
        std::hint::black_box(
            compile(&ir, &FeatureSet::x86_64(), &CompileOptions::default()).unwrap(),
        );
    });
    bench("compiler/compile_superset", || {
        std::hint::black_box(
            compile(&ir, &FeatureSet::superset(), &CompileOptions::default()).unwrap(),
        );
    });
}

fn bench_simulator() {
    let spec = all_phases()
        .into_iter()
        .find(|p| p.benchmark == "bzip2")
        .unwrap();
    let fs = FeatureSet::x86_64();
    let code = compile(&generate(&spec), &fs, &CompileOptions::default()).unwrap();
    let trace = TraceArena::build(
        &code,
        &spec,
        TraceParams {
            max_uops: 20_000,
            seed: 3,
        },
    );
    bench("simulator/ooo_20k_uops", || {
        std::hint::black_box(simulate(&CoreConfig::reference(fs), &trace));
    });
    bench("simulator/inorder_20k_uops", || {
        std::hint::black_box(simulate(&CoreConfig::little(fs), &trace));
    });
}

fn bench_interval_model() {
    let spec = all_phases()
        .into_iter()
        .find(|p| p.benchmark == "bzip2")
        .unwrap();
    let fs = FeatureSet::x86_64();
    let prof = probe(&spec, fs);
    let uas = cisa_explore::all_microarchs();
    bench("interval/evaluate_180_microarchs", || {
        for ua in &uas {
            std::hint::black_box(evaluate(&prof, ua, &ua.with_fs(fs)));
        }
    });
}

fn main() {
    bench_encoder();
    bench_predictors();
    bench_compile();
    bench_simulator();
    bench_interval_model();
}
