//! Ablation: the micro-op cache. The paper's energy story (fetch
//! outspends decode) depends on it; turning it off forces every
//! macro-op through the ILD and decoders.

use cisa_compiler::{compile, CompileOptions};
use cisa_decode::DecoderConfig;
use cisa_isa::{Complexity, FeatureSet};
use cisa_sim::SupplyTrace;
use cisa_workloads::{all_phases, generate, TraceArena, TraceParams};

fn main() {
    println!("Ablation: micro-op cache on/off (decode activity per 20k uops)");
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>14}",
        "benchmark", "uopc hits", "decodes", "ild bytes", "uopc hitrate"
    );
    for spec in all_phases().iter().filter(|p| p.index == 0) {
        let code = compile(
            &generate(spec),
            &FeatureSet::x86_64(),
            &CompileOptions::default(),
        )
        .unwrap();
        let trace = TraceArena::build(
            &code,
            spec,
            TraceParams {
                max_uops: 20_000,
                seed: 5,
            },
        );
        for (label, windows) in [("on", 256u32), ("off", 0)] {
            let decoder = DecoderConfig {
                uop_cache_windows: windows,
                ..DecoderConfig::for_complexity(Complexity::X86)
            };
            let supply = SupplyTrace::capture(decoder, &trace);
            let s = supply.stats();
            println!(
                "{:<12} {:>12} {:>12} {:>12} {:>13.1}%  (uop cache {label})",
                spec.benchmark,
                s.uop_cache_hits,
                s.simple_decodes + s.complex_decodes + s.msrom_sequences,
                s.ild_bytes,
                s.uop_cache_hit_rate() * 100.0
            );
        }
    }
}
