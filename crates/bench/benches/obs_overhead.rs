//! Observability overhead guard.
//!
//! Measures the probe path — the workspace's hot loop, fully
//! instrumented with spans, counters, and histograms — with the obs
//! layer enabled and disabled, and asserts the enabled/disabled ratio
//! stays within noise. The design target is <=3% (ISSUE 5); the gate
//! asserts a looser 1.10x so scheduler noise on shared CI runners
//! cannot flake the build, while the measured number is printed for the
//! log.
//!
//! Measurement is *paired*: each round times the enabled and disabled
//! configurations back-to-back and the reported ratio is the median of
//! the per-round ratios. Machine-wide drift (thermal throttling, noisy
//! neighbours) moves both halves of a pair together and cancels out of
//! the ratio, which an unpaired A-then-B comparison cannot do.

use std::time::Instant;

use cisa_explore::probe;
use cisa_isa::FeatureSet;
use cisa_workloads::all_phases;

const ROUNDS: usize = 9;

fn main() {
    let phases = all_phases();
    let feature_sets: Vec<FeatureSet> = vec![
        FeatureSet::superset(),
        FeatureSet::x86_64(),
        "microx86-8D-32W".parse().expect("valid feature set"),
    ];
    let specs: Vec<_> = phases.iter().take(3).collect();

    let workload = || {
        for spec in &specs {
            for fs in &feature_sets {
                std::hint::black_box(probe(spec, *fs));
            }
        }
    };
    let timed = |on: bool| {
        cisa_obs::set_enabled(on);
        let t = Instant::now();
        workload();
        t.elapsed().as_secs_f64()
    };

    cisa_obs::set_enabled(true);

    // Warm-up: caches, branch predictors, lazy statics.
    workload();

    let mut ratios = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        // Alternate which configuration goes first so a fixed
        // within-pair ordering cannot bias the ratio either way.
        let (on, off) = if round % 2 == 0 {
            let on = timed(true);
            (on, timed(false))
        } else {
            let off = timed(false);
            (timed(true), off)
        };
        println!(
            "obs/round{round:<2} enabled {:.1} ms  disabled {:.1} ms  ratio {:.3}x",
            on * 1e3,
            off * 1e3,
            on / off
        );
        ratios.push(on / off);
    }
    cisa_obs::set_enabled(true);

    ratios.sort_by(f64::total_cmp);
    let ratio = ratios[ROUNDS / 2];
    println!("obs overhead: enabled/disabled median = {ratio:.3}x (target <= 1.03)");
    assert!(
        ratio < 1.10,
        "observability layer must stay within noise of the disabled path, got {ratio:.3}x"
    );
}
