//! Energy accounting from activity counters, and EDP.
//!
//! Dynamic energy is the activity-weighted sum of per-event energies
//! (event costs grow with the size of the structure they touch);
//! leakage/clock energy accrues with cycles in proportion to the core's
//! peak power. The decode-path energy story follows the paper: the
//! decode pipeline is only triggered on a micro-op cache miss, so fetch
//! expends more run-time energy than decode even though decode takes
//! more area (Section VII-B, Figure 11 discussion).

use cisa_sim::{Activity, CoreConfig, SimResult};

use crate::model::{core_budget, CoreBudget};

/// Clock frequency assumed for time/EDP conversions.
pub const CLOCK_HZ: f64 = 3.0e9;

/// Idle (leakage + clock-tree) power as a fraction of peak: the static
/// energy of every priced phase, the multicore evaluator's charge for
/// cores that finish early, and the fleet's idle-core draw.
pub const IDLE_POWER_FRACTION: f64 = 0.3;

/// Per-event dynamic energies in nanojoules (baseline structure sizes;
/// scaled by the actual structure's size).
mod ev {
    pub const UOPC_HIT: f64 = 0.020;
    pub const DECODE: f64 = 0.085;
    pub const ILD_BYTE: f64 = 0.006;
    pub const BP_LOOKUP: f64 = 0.011;
    pub const INT_OP: f64 = 0.032;
    pub const MUL_OP: f64 = 0.080;
    pub const FP_OP: f64 = 0.110;
    pub const VEC_OP: f64 = 0.300;
    pub const LSQ_OP: f64 = 0.025;
    pub const L1_ACCESS: f64 = 0.060;
    pub const L2_ACCESS: f64 = 0.350;
    pub const MEM_ACCESS: f64 = 4.500;
    pub const RF_READ: f64 = 0.009;
    pub const RF_WRITE: f64 = 0.012;
    pub const SCHED_OP: f64 = 0.018;
}

/// Energy report for one simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyReport {
    /// Total energy in joules.
    pub total_j: f64,
    /// Dynamic fetch energy (uop cache + ILD + L1I).
    pub fetch_j: f64,
    /// Dynamic decode energy.
    pub decode_j: f64,
    /// Branch predictor energy.
    pub bpred_j: f64,
    /// Scheduler (rename/IQ/ROB/LSQ) energy.
    pub scheduler_j: f64,
    /// Register-file energy.
    pub regfile_j: f64,
    /// Functional-unit energy.
    pub fu_j: f64,
    /// Cache + memory energy.
    pub mem_j: f64,
    /// Leakage/clock energy.
    pub static_j: f64,
    /// Execution time in seconds.
    pub seconds: f64,
}

/// Computes the energy of one simulated execution on one core.
pub fn energy(cfg: &CoreConfig, result: &SimResult) -> EnergyReport {
    let budget: CoreBudget = core_budget(cfg);
    let a: &Activity = &result.activity;
    let nj = 1e-9;

    // Structure-size scale factors relative to the reference core.
    let rf_scale = (cfg.window.prf_int + cfg.window.prf_fp) as f64 / 160.0;
    let sched_scale = (cfg.window.iq + cfg.window.rob) as f64 / 96.0;
    let l1_scale = (cfg.l1_kb as f64 / 32.0).sqrt();
    let l2_scale = (cfg.l2_kb as f64 / 1024.0).sqrt();
    let width_scale = cfg.fs.width().bits() as f64 / 64.0;

    let fetch_j = (a.uopc_hits as f64 * ev::UOPC_HIT
        + a.ild_bytes as f64 * ev::ILD_BYTE
        + a.macro_ops as f64 * 0.012
        + a.l1i_misses as f64 * ev::L2_ACCESS * l2_scale)
        * nj;
    let decode_j = (a.decodes as f64 * ev::DECODE) * nj;
    let bpred_j = (a.bp_lookups as f64 * ev::BP_LOOKUP) * nj;
    let scheduler_j = (a.uops as f64 * ev::SCHED_OP * sched_scale
        + (a.loads + a.stores) as f64 * ev::LSQ_OP)
        * nj;
    let regfile_j = (a.regfile_reads as f64 * ev::RF_READ * rf_scale * width_scale
        + a.regfile_writes as f64 * ev::RF_WRITE * rf_scale * width_scale)
        * nj;
    let fu_j = (a.int_ops as f64 * ev::INT_OP * width_scale
        + a.mul_ops as f64 * ev::MUL_OP * width_scale
        + a.fp_ops as f64 * ev::FP_OP
        + a.vec_ops as f64 * ev::VEC_OP)
        * nj;
    let mem_j = ((a.l1d_accesses as f64) * ev::L1_ACCESS * l1_scale
        + a.l2_accesses as f64 * ev::L2_ACCESS * l2_scale
        + a.l2_misses as f64 * ev::MEM_ACCESS)
        * nj;

    let seconds = result.cycles as f64 / CLOCK_HZ;
    let static_j = budget.peak_power_w * IDLE_POWER_FRACTION * seconds;

    let total_j = fetch_j + decode_j + bpred_j + scheduler_j + regfile_j + fu_j + mem_j + static_j;
    EnergyReport {
        total_j,
        fetch_j,
        decode_j,
        bpred_j,
        scheduler_j,
        regfile_j,
        fu_j,
        mem_j,
        static_j,
        seconds,
    }
}

#[cfg(test)]
impl EnergyReport {
    /// Named dynamic components (Figure 11 categories).
    pub(crate) fn named(&self) -> [(&'static str, f64); 7] {
        [
            ("fetch", self.fetch_j),
            ("decode", self.decode_j),
            ("bpred", self.bpred_j),
            ("scheduler", self.scheduler_j),
            ("regfile", self.regfile_j),
            ("fu", self.fu_j),
            ("mem", self.mem_j),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cisa_compiler::{compile, CompileOptions};
    use cisa_isa::FeatureSet;
    use cisa_sim::simulate;
    use cisa_workloads::{all_phases, generate, TraceArena, TraceParams};

    fn run(bench: &str, cfg: &CoreConfig) -> (SimResult, EnergyReport) {
        let spec = all_phases()
            .into_iter()
            .find(|p| p.benchmark == bench)
            .unwrap();
        let code = compile(&generate(&spec), &cfg.fs, &CompileOptions::default()).unwrap();
        let trace = TraceArena::build(
            &code,
            &spec,
            TraceParams {
                max_uops: 20_000,
                seed: 3,
            },
        );
        let r = simulate(cfg, &trace);
        let e = energy(cfg, &r);
        (r, e)
    }

    #[test]
    fn energy_is_positive_and_bounded() {
        let cfg = CoreConfig::reference(FeatureSet::x86_64());
        let (r, e) = run("bzip2", &cfg);
        assert!(e.total_j > 0.0);
        // Average power must be below peak.
        let avg_w = e.total_j / e.seconds;
        let budget = core_budget(&cfg);
        assert!(
            avg_w < budget.peak_power_w * 1.2,
            "avg {avg_w} W vs peak {} W",
            budget.peak_power_w
        );
        assert!(r.cycles > 0);
    }

    #[test]
    fn fetch_energy_exceeds_decode_energy() {
        // The paper's Figure 11 observation: the decode pipeline only
        // fires on uop-cache misses, so fetch outspends decode at run
        // time.
        let cfg = CoreConfig::reference(FeatureSet::x86_64());
        for bench in ["bzip2", "libquantum", "sjeng"] {
            let (_, e) = run(bench, &cfg);
            assert!(
                e.fetch_j > e.decode_j,
                "{bench}: fetch {} vs decode {}",
                e.fetch_j,
                e.decode_j
            );
        }
    }

    #[test]
    fn little_core_uses_less_energy() {
        let (_, big) = run("bzip2", &CoreConfig::big(FeatureSet::x86_64()));
        let (_, little) = run("bzip2", &CoreConfig::little(FeatureSet::x86_64()));
        assert!(
            little.total_j < big.total_j,
            "little {} vs big {}",
            little.total_j,
            big.total_j
        );
    }

    #[test]
    fn memory_bound_code_spends_in_the_memory_system() {
        let cfg = CoreConfig::reference(FeatureSet::x86_64());
        let (_, mcf) = run("mcf", &cfg);
        let (_, bzip) = run("bzip2", &cfg);
        let mcf_mem_share = mcf.mem_j / mcf.total_j;
        let bzip_mem_share = bzip.mem_j / bzip.total_j;
        assert!(
            mcf_mem_share > bzip_mem_share,
            "mcf {mcf_mem_share} vs bzip2 {bzip_mem_share}"
        );
    }

    #[test]
    fn component_sum_matches_total() {
        let cfg = CoreConfig::reference(FeatureSet::x86_64());
        let (_, e) = run("milc", &cfg);
        let named_sum: f64 = e.named().iter().map(|(_, j)| j).sum();
        assert!((named_sum + e.static_j - e.total_j).abs() < 1e-12);
    }
}
