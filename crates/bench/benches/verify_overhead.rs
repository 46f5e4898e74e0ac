//! Verifier overhead guard.
//!
//! Measures the compile pipeline with staged verification Off (the
//! release sweep path), Full (the debug/test path), and at the build
//! default — then asserts two things:
//!
//! 1. `VerifyLevel::default()` really is `Off` under release opts, so
//!    no sweep binary can silently start paying for verification;
//! 2. the default-options compile path stays within noise of the
//!    explicit `Off` path (the knob itself must cost nothing).
//!
//! The absolute sweep-throughput gate against the committed
//! BENCH_probe.json baseline lives in `bench_probe --check` (the CI
//! perf-smoke job); this bench reports the Full/Off ratio so the cost
//! of debug verification stays a known, printed number.

use std::time::Duration;

use cisa_bench::timing::bench_config;
use cisa_compiler::{compile, CompileOptions, VerifyLevel};
use cisa_isa::FeatureSet;
use cisa_workloads::{all_phases, generate};

fn main() {
    assert!(
        !VerifyLevel::default().enabled(),
        "benches build in release: the default verify level must be Off"
    );

    let phases = all_phases();
    let funcs: Vec<_> = phases.iter().take(6).map(generate).collect();
    let feature_sets: Vec<FeatureSet> = vec![
        FeatureSet::superset(),
        FeatureSet::x86_64(),
        "microx86-8D-32W".parse().expect("valid feature set"),
    ];

    let run = |label: &str, options: &CompileOptions| {
        bench_config(label, Duration::from_millis(150), 8, &mut || {
            for f in &funcs {
                for fs in &feature_sets {
                    std::hint::black_box(compile(f, fs, options).expect("clean compile"));
                }
            }
        })
    };

    let off = run(
        "verify/compile_off",
        &CompileOptions {
            verify: VerifyLevel::Off,
        },
    );
    let default = run("verify/compile_default", &CompileOptions::default());
    let full = run(
        "verify/compile_full",
        &CompileOptions {
            verify: VerifyLevel::Full,
        },
    );

    println!(
        "verify overhead: full/off = {:.2}x, default/off = {:.3}x",
        full.median / off.median,
        default.median / off.median
    );
    let ratio = default.median / off.median;
    assert!(
        ratio < 1.25,
        "default-options compile must match VerifyLevel::Off within noise, got {ratio:.3}x"
    );
}
