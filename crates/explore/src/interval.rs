//! The interval (analytic) performance/energy model.
//!
//! Given a [`PhaseProfile`] (microarchitecture-independent measurements
//! plus two single-point calibrations) and a microarchitecture, predicts
//! cycles-per-micro-op as the maximum of the frontend supply limit, the
//! functional-unit throughput limit and the dataflow (window-scaled ILP)
//! limit, plus miss-event stall terms (branch mispredictions at the
//! measured per-predictor rate, cache misses at the measured per-
//! geometry rates, overlapped by the out-of-order window). This is the
//! standard interval-analysis decomposition (Eyerman et al.) fitted at
//! one reference point per semantics.
//!
//! Every figure downstream of the performance table (Figures 5-13, 15,
//! Tables III-IV) rests on this model; the `fidelity` bench in
//! `crates/bench` checks its rank correlation against the cycle
//! simulator.

use cisa_power::{energy, EnergyReport};
use cisa_sim::{
    Activity, CoreConfig, ExecSemantics, MemLatency, SimResult, REDIRECT_DECODE_EXTRA,
    REDIRECT_REFILL,
};

use crate::profile::{pred_idx, PhaseProfile};
use crate::space::MicroArch;

/// L2-hit latency charged per L1D miss that hits in L2, derived from
/// the simulator's [`MemLatency::DEFAULT`] so model and simulator
/// cannot drift (pinned by the `stall_constants_single_sourced` test).
pub const LAT_L2: f64 = MemLatency::DEFAULT.l2 as f64;
/// Main-memory latency charged per L2 miss; same single source as
/// [`LAT_L2`].
pub const LAT_MEM: f64 = MemLatency::DEFAULT.mem as f64;
/// Base redirect penalty (frontend refill): the simulator's decode
/// refill depth plus half its uop-cache-miss decode extra (the model
/// averages over redirect targets that hit and miss the uop cache).
pub const REDIRECT: f64 = (REDIRECT_REFILL + REDIRECT_DECODE_EXTRA / 2) as f64;

/// Performance + energy of one (phase, design) pair, work-normalized.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhasePerf {
    /// Cycles per unit of phase work.
    pub cycles_per_unit: f64,
    /// Energy (J) per unit of phase work.
    pub energy_per_unit: f64,
}

use crate::space::l1_geo_idx as l1_idx;
use crate::space::l2_geo_idx as l2_idx;

/// The three throughput limits plus stalls, in cycles per micro-op.
fn cycles_per_uop(p: &PhaseProfile, ua: &MicroArch) -> f64 {
    let width = ua.width as f64;

    // Frontend supply: micro-op cache hits stream at full width; misses
    // are limited by the decoders (which handle macro-ops — CISC
    // macro-ops carry more micro-ops per decode slot).
    // 3 simple + 1 complex decoders, or 4 simple ones under microx86 —
    // four macro-ops per cycle either way.
    let decode_width = 4.0;
    let uops_per_macro = 1.0 / p.macro_per_uop.max(1e-6);
    let decode_supply = decode_width * uops_per_macro;
    let supply = p.uopc_hit_rate * width + (1.0 - p.uopc_hit_rate) * width.min(decode_supply);
    let cpu_front = 1.0 / supply.max(0.1);

    // Functional-unit limits.
    let mul_units = (ua.int_alu / 3).max(1) as f64;
    let cpu_fu = [
        (p.mix[0] + p.mix[1]) / 2.0,                          // 2 mem ports
        (p.mix[2] + p.mix[6] + p.mix[7]) / ua.int_alu as f64, // int + branch
        p.mix[3] * 2.0 / mul_units,                           // mul (2-cycle occupancy)
        (p.mix[4] + p.mix[5]) / ua.fp_alu as f64,             // fp + vec
    ]
    .into_iter()
    .fold(0.0f64, f64::max);

    // Dataflow limit, scaled by window size for OoO.
    let (cpu_ilp, dispatch) = match ua.sem {
        ExecSemantics::OutOfOrder => {
            let window_scale = (ua.window.rob as f64 / 64.0).powf(0.12);
            let ilp_eff = (p.ilp * window_scale).max(0.2);
            (1.0 / ilp_eff, 1.0 / width)
        }
        ExecSemantics::InOrder => (0.0, 1.0 / width),
    };

    let base = cpu_front.max(cpu_fu).max(cpu_ilp).max(dispatch);

    // Miss-event stalls.
    let mispredict = p.mispredict_per_uop[pred_idx(ua.predictor)];
    let depth_penalty = match ua.sem {
        ExecSemantics::OutOfOrder => REDIRECT + ua.window.rob as f64 / 24.0,
        ExecSemantics::InOrder => REDIRECT,
    };
    let branch_stall = mispredict * depth_penalty;

    let i1 = l1_idx(ua.l1_kb);
    let i2 = l2_idx(ua.l2_kb);
    let l1d_miss = p.l1d_miss_per_uop[i1];
    let l2_miss = p.l2_miss_per_uop[i1][i2];
    let l2_hit = (l1d_miss - l2_miss).max(0.0);
    let mem_raw = l2_hit * LAT_L2 + l2_miss * LAT_MEM;
    let inst_stall = p.l1i_miss_per_uop[i1] * LAT_L2 * 0.6;

    match ua.sem {
        ExecSemantics::OutOfOrder => {
            // Larger windows overlap more independent misses; the
            // per-phase coefficient is fitted from the small- and
            // large-window reference simulations.
            let overlap = (p.mem_overlap / (1.0 + ua.window.rob as f64 / 600.0)).clamp(0.0, 1.0);
            base + branch_stall + mem_raw * overlap + inst_stall
        }
        ExecSemantics::InOrder => {
            base + p.io_stall_scale * (branch_stall + mem_raw * 0.85 + inst_stall)
        }
    }
}

/// Fits the per-phase calibration parameters (`ilp`, `mem_overlap`,
/// `io_stall_scale`) so the model reproduces the three reference cycle
/// simulations.
pub(crate) fn fit(p: &mut PhaseProfile) {
    let ref_ooo = MicroArch {
        sem: ExecSemantics::OutOfOrder,
        width: 2,
        predictor: cisa_sim::PredictorKind::Tournament,
        int_alu: 3,
        fp_alu: 1,
        lsq: 16,
        l1_kb: 32,
        l2_kb: 1024,
        window: cisa_sim::WindowConfig::small(),
    };
    let ref_ooo_large = MicroArch {
        window: cisa_sim::WindowConfig::large(),
        ..ref_ooo
    };
    let ref_io = MicroArch {
        sem: ExecSemantics::InOrder,
        window: cisa_sim::WindowConfig::in_order(),
        ..ref_ooo
    };

    // Alternate monotone bisections: ilp against the small-window
    // measurement, mem_overlap against the large-window measurement.
    p.mem_overlap = 0.8;
    for _ in 0..8 {
        let (mut lo, mut hi) = (0.2f64, 8.0f64);
        for _ in 0..30 {
            p.ilp = 0.5 * (lo + hi);
            if cycles_per_uop(p, &ref_ooo) > p.ref_ooo_cpu {
                lo = p.ilp; // model too slow: raise ILP
            } else {
                hi = p.ilp;
            }
        }
        p.ilp = 0.5 * (lo + hi);

        let (mut lo, mut hi) = (0.0f64, 1.3f64);
        for _ in 0..30 {
            p.mem_overlap = 0.5 * (lo + hi);
            if cycles_per_uop(p, &ref_ooo_large) > p.ref_ooo_large_cpu {
                hi = p.mem_overlap; // model too slow: overlap more
            } else {
                lo = p.mem_overlap;
            }
        }
        p.mem_overlap = 0.5 * (lo + hi);
    }

    let (mut lo, mut hi) = (0.05f64, 3.0f64);
    for _ in 0..40 {
        p.io_stall_scale = 0.5 * (lo + hi);
        if cycles_per_uop(p, &ref_io) > p.ref_io_cpu {
            hi = p.io_stall_scale;
        } else {
            lo = p.io_stall_scale;
        }
    }
    p.io_stall_scale = 0.5 * (lo + hi);
}

/// # Example
///
/// ```
/// use cisa_explore::{evaluate, probe, all_microarchs};
/// use cisa_isa::FeatureSet;
/// use cisa_workloads::all_phases;
///
/// let fs = FeatureSet::x86_64();
/// let profile = probe(&all_phases()[0], fs);
/// let ua = all_microarchs()[0];
/// let perf = evaluate(&profile, &ua, &ua.with_fs(fs));
/// assert!(perf.cycles_per_unit > 0.0 && perf.energy_per_unit > 0.0);
/// ```
/// Evaluates one (phase, design) pair: cycles and energy per unit of
/// phase work.
pub fn evaluate(p: &PhaseProfile, ua: &MicroArch, cfg: &CoreConfig) -> PhasePerf {
    let cycles_per_unit = cycles_per_uop(p, ua) * p.uops_per_unit;
    PhasePerf {
        cycles_per_unit,
        energy_per_unit: kilo_unit_energy(p, ua, cfg, cycles_per_unit).total_j / 1000.0,
    }
}

/// The per-stage energy of one kilo-unit of phase work on one design:
/// the report whose `total_j / 1000` is [`evaluate`]'s
/// `energy_per_unit` (Figure 11's breakdown).
pub fn unit_energy(p: &PhaseProfile, ua: &MicroArch, cfg: &CoreConfig) -> EnergyReport {
    kilo_unit_energy(p, ua, cfg, cycles_per_uop(p, ua) * p.uops_per_unit)
}

/// Synthesizes the activity counters of one kilo-unit of work from the
/// profile and the design's caches and predictor, and prices them on
/// the single energy path in cisa-power.
fn kilo_unit_energy(
    p: &PhaseProfile,
    ua: &MicroArch,
    cfg: &CoreConfig,
    cycles_per_unit: f64,
) -> EnergyReport {
    let scale = 1000.0 * p.uops_per_unit;
    let i1 = l1_idx(ua.l1_kb);
    let i2 = l2_idx(ua.l2_kb);
    let n = |x: f64| (x * scale).round().max(0.0) as u64;
    let l1d_accesses = p.mix[0] + p.mix[1];
    let l1d_misses = p.l1d_miss_per_uop[i1];
    let l2_misses = p.l2_miss_per_uop[i1][i2];
    let macro_ops = p.macro_per_uop;
    let activity = Activity {
        uops: n(1.0),
        macro_ops: n(macro_ops),
        uopc_hits: n(macro_ops * p.uopc_hit_rate),
        uopc_misses: n(macro_ops * (1.0 - p.uopc_hit_rate)),
        ild_bytes: n(macro_ops * (1.0 - p.uopc_hit_rate) * p.avg_macro_len),
        decodes: n(macro_ops * (1.0 - p.uopc_hit_rate)),
        bp_lookups: n(p.mix[6]),
        bp_mispredicts: n(p.mispredict_per_uop[pred_idx(ua.predictor)]),
        int_ops: n(p.mix[2] + p.mix[6] + p.mix[7]),
        mul_ops: n(p.mix[3]),
        fp_ops: n(p.mix[4]),
        vec_ops: n(p.mix[5]),
        loads: n(p.mix[0]),
        stores: n(p.mix[1]),
        forwards: n(p.fwd_per_uop),
        l1d_accesses: n(l1d_accesses),
        l1d_misses: n(l1d_misses),
        l2_accesses: n(l1d_misses),
        l2_misses: n(l2_misses),
        l1i_misses: n(p.l1i_miss_per_uop[i1]),
        regfile_reads: n(1.6),
        regfile_writes: n(0.7),
        fused_pairs: 0,
    };
    let result = SimResult {
        cycles: (cycles_per_unit * 1000.0).round().max(1.0) as u64,
        activity,
        stalls: Default::default(),
    };
    energy(cfg, &result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::probe;
    use crate::space::all_microarchs;
    use cisa_isa::FeatureSet;
    use cisa_workloads::all_phases;

    fn spec(bench: &str) -> cisa_workloads::PhaseSpec {
        all_phases()
            .into_iter()
            .find(|p| p.benchmark == bench)
            .unwrap()
    }

    #[test]
    fn fit_reproduces_the_reference_points() {
        let p = probe(&spec("bzip2"), FeatureSet::x86_64());
        let ref_ooo = crate::profile::reference_ooo(FeatureSet::x86_64());
        let ua = all_microarchs()
            .into_iter()
            .find(|u| {
                u.sem == ExecSemantics::OutOfOrder
                    && u.width == 2
                    && u.int_alu == 3
                    && u.fp_alu == 1
                    && u.l1_kb == 32
                    && u.l2_kb == 1024
                    && u.window.rob == 64
                    && u.predictor == cisa_sim::PredictorKind::Tournament
            })
            .unwrap();
        let perf = evaluate(&p, &ua, &ref_ooo);
        let predicted_cpu = perf.cycles_per_unit / p.uops_per_unit;
        let err = (predicted_cpu - p.ref_ooo_cpu).abs() / p.ref_ooo_cpu;
        assert!(
            err < 0.15,
            "calibration error {err} (pred {predicted_cpu} vs {})",
            p.ref_ooo_cpu
        );
    }

    #[test]
    fn model_trends_are_monotone() {
        let p = probe(&spec("mcf"), FeatureSet::x86_64());
        let cfgs = all_microarchs();
        let base = cfgs
            .iter()
            .find(|u| {
                u.sem == ExecSemantics::OutOfOrder
                    && u.width == 2
                    && u.fp_alu == 1
                    && u.l1_kb == 32
                    && u.l2_kb == 1024
                    && u.window.rob == 64
            })
            .unwrap();
        let bigger_l2 = MicroArch {
            l2_kb: 2048,
            ..*base
        };
        let cfg = crate::profile::reference_ooo(FeatureSet::x86_64());
        let t0 = evaluate(&p, base, &cfg).cycles_per_unit;
        let t1 = evaluate(&p, &bigger_l2, &cfg).cycles_per_unit;
        assert!(t1 <= t0, "bigger L2 cannot slow mcf: {t1} vs {t0}");

        let big_window = MicroArch {
            window: cisa_sim::WindowConfig::large(),
            ..*base
        };
        let t2 = evaluate(&p, &big_window, &cfg).cycles_per_unit;
        assert!(t2 <= t0 * 1.02, "bigger window cannot slow mcf much");
    }

    #[test]
    fn energy_scales_with_cheap_cores() {
        let p = probe(&spec("bzip2"), FeatureSet::minimal());
        let cfgs = all_microarchs();
        let little = cfgs
            .iter()
            .find(|u| u.sem == ExecSemantics::InOrder && u.width == 1)
            .unwrap();
        let big = cfgs
            .iter()
            .find(|u| u.sem == ExecSemantics::OutOfOrder && u.width == 4 && u.window.rob == 128)
            .unwrap();
        let e_little = evaluate(&p, little, &little.with_fs(FeatureSet::minimal())).energy_per_unit;
        let e_big = evaluate(&p, big, &big.with_fs(FeatureSet::minimal())).energy_per_unit;
        assert!(e_little < e_big, "little {e_little} vs big {e_big}");
    }

    #[test]
    fn unit_energy_is_the_models_energy() {
        let p = probe(&spec("mcf"), FeatureSet::x86_64());
        for fs in [FeatureSet::x86_64(), FeatureSet::minimal()] {
            for ua in all_microarchs() {
                let cfg = ua.with_fs(fs);
                let report = unit_energy(&p, &ua, &cfg);
                assert_eq!(
                    (report.total_j / 1000.0).to_bits(),
                    evaluate(&p, &ua, &cfg).energy_per_unit.to_bits(),
                    "{}",
                    cfg.describe()
                );
            }
        }
    }
}
