//! The interval model's pinned stall constants, and a seeded property
//! test of `evaluate` on random profiles over the whole design space.
//! The bits of every table entry the model fills are pinned by
//! `probe_fused.rs`'s table digest.

use cisa_explore::interval::{LAT_L2, LAT_MEM, REDIRECT};
use cisa_explore::{evaluate, DesignSpace, PhasePerf};
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// Satellite 1: the model's stall constants are *derived from* the
/// simulator's exports, and their concrete values are pinned so a
/// deliberate change on either side fails here and forces a re-fit
/// decision rather than silent drift.
#[test]
fn stall_constants_single_sourced() {
    let lat = cisa_sim::MemLatency::default();
    assert_eq!(LAT_L2, lat.l2 as f64, "LAT_L2 must track the simulator");
    assert_eq!(LAT_MEM, lat.mem as f64, "LAT_MEM must track the simulator");
    assert_eq!(
        REDIRECT,
        (cisa_sim::REDIRECT_REFILL + cisa_sim::REDIRECT_DECODE_EXTRA / 2) as f64,
        "REDIRECT must track the simulator's refill charge"
    );
    assert_eq!(LAT_L2, 14.0);
    assert_eq!(LAT_MEM, 140.0);
    assert_eq!(REDIRECT, 16.0);
}

/// Builds a random but physically plausible profile: rates in their
/// realistic ranges, and the cache-miss columns monotone in capacity
/// (bigger L1/L2 never misses more) as real probes guarantee.
fn random_profile(rng: &mut SmallRng) -> cisa_explore::PhaseProfile {
    let mut mix = [0.0f64; 8];
    let mut total = 0.0;
    for m in &mut mix {
        *m = rng.gen_range(0.01f64..1.0);
        total += *m;
    }
    for m in &mut mix {
        *m /= total;
    }
    let l1d0 = rng.gen_range(0.0f64..0.08);
    let l1d1 = l1d0 * rng.gen_range(0.3f64..1.0);
    let l2_00 = l1d0 * rng.gen_range(0.0f64..1.0);
    let l2_01 = l2_00 * rng.gen_range(0.3f64..1.0);
    let l2_10 = l1d1.min(l2_00) * rng.gen_range(0.3f64..1.0);
    let l2_11 = l2_10.min(l2_01) * rng.gen_range(0.3f64..1.0);
    let l1i0 = rng.gen_range(0.0f64..0.02);
    let m0 = rng.gen_range(0.0f64..0.02);
    let m1 = m0 * rng.gen_range(0.5f64..1.0);
    let m2 = m1 * rng.gen_range(0.5f64..1.0);
    cisa_explore::PhaseProfile {
        uops_per_unit: rng.gen_range(0.5f64..50.0),
        macro_per_uop: rng.gen_range(0.3f64..1.0),
        avg_macro_len: rng.gen_range(1.0f64..8.0),
        code_bytes: rng.gen_range(1e3f64..1e6),
        mix,
        mispredict_per_uop: [m0, m1, m2],
        l1d_miss_per_uop: [l1d0, l1d1],
        l2_miss_per_uop: [[l2_00, l2_01], [l2_10, l2_11]],
        l1i_miss_per_uop: [l1i0, l1i0 * rng.gen_range(0.3f64..1.0)],
        uopc_hit_rate: rng.gen_range(0.0f64..1.0),
        fwd_per_uop: rng.gen_range(0.0f64..0.2),
        ilp: rng.gen_range(0.2f64..8.0),
        mem_overlap: rng.gen_range(0.0f64..1.3),
        io_stall_scale: rng.gen_range(0.05f64..3.0),
        ref_ooo_cpu: rng.gen_range(0.3f64..5.0),
        ref_ooo_large_cpu: rng.gen_range(0.3f64..5.0),
        ref_io_cpu: rng.gen_range(0.5f64..8.0),
    }
}

/// Seeded property test: on randomized profiles the model produces no
/// NaN/inf/zero outputs on any of the 180 microarchitectures, and
/// keeps the capacity-monotonicity trends that `interval_properties.rs`
/// pins on real probes.
#[test]
fn randomized_profiles_nan_free_and_monotone() {
    let space = DesignSpace::new();
    let mut rng = SmallRng::seed_from_u64(0xC15A_B10C);
    let n_profiles = if cfg!(debug_assertions) { 16 } else { 64 };
    for trial in 0..n_profiles {
        let p = random_profile(&mut rng);
        let fi = rng.gen_range(0usize..space.feature_sets.len());
        let fs = space.feature_sets[fi];
        let out: Vec<PhasePerf> = space
            .microarchs
            .iter()
            .map(|ua| evaluate(&p, ua, &ua.with_fs(fs)))
            .collect();
        for (i, perf) in out.iter().enumerate() {
            assert!(
                perf.cycles_per_unit.is_finite() && perf.cycles_per_unit > 0.0,
                "trial {trial} ua {i}: bad cycles {}",
                perf.cycles_per_unit
            );
            assert!(
                perf.energy_per_unit.is_finite() && perf.energy_per_unit > 0.0,
                "trial {trial} ua {i}: bad energy {}",
                perf.energy_per_unit
            );
        }
        // Monotone trends: growing L1 or L2 never slows a design (miss
        // columns are monotone by construction).
        for (i, ua) in space.microarchs.iter().enumerate() {
            if ua.l1_kb == 32 {
                let j = space
                    .microarchs
                    .iter()
                    .position(|u| {
                        u.l1_kb == 64
                            && u.l2_kb == ua.l2_kb
                            && u.width == ua.width
                            && u.sem == ua.sem
                            && u.predictor == ua.predictor
                            && u.int_alu == ua.int_alu
                            && u.fp_alu == ua.fp_alu
                            && u.window == ua.window
                    })
                    .expect("L1 sibling exists");
                assert!(
                    out[j].cycles_per_unit <= out[i].cycles_per_unit * 1.001,
                    "trial {trial}: bigger L1 slowed ua {i} -> {j}"
                );
            }
            if ua.l2_kb == 1024 {
                let j = space
                    .microarchs
                    .iter()
                    .position(|u| {
                        u.l2_kb == 2048
                            && u.l1_kb == ua.l1_kb
                            && u.width == ua.width
                            && u.sem == ua.sem
                            && u.predictor == ua.predictor
                            && u.int_alu == ua.int_alu
                            && u.fp_alu == ua.fp_alu
                            && u.window == ua.window
                    })
                    .expect("L2 sibling exists");
                assert!(
                    out[j].cycles_per_unit <= out[i].cycles_per_unit * 1.001,
                    "trial {trial}: bigger L2 slowed ua {i} -> {j}"
                );
            }
        }
    }
}
