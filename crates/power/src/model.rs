//! McPAT-style per-structure area and peak-power estimation.
//!
//! Every core structure the paper's breakdowns report (Figures 10, 11)
//! is a named component: fetch engine (with the micro-op cache and
//! ILD), decoder cluster, branch predictor, scheduler (rename + IQ +
//! ROB + LSQ), register files, functional units, and the private L1
//! caches. The shared L2 is budgeted at chip level, not per core (it is
//! shared among the four cores).
//!
//! The constants are calibrated so the 4,680-point design space spans
//! the paper's envelope: per-core peak power 4.8W-23.4W and area
//! 9.4mm^2-28.6mm^2, and so the paper's feature-cost observations hold:
//! dropping SSE2 saves ~7.4% peak power and ~17.3% core area; doubling
//! register width costs up to ~6.4% processor power; the decoder deltas
//! come from `cisa-decode`'s structural RTL model.

use cisa_decode::rtl;
use cisa_isa::{FeatureSet, RegisterWidth, SimdSupport};
use cisa_sim::{CoreConfig, ExecSemantics, PredictorKind};

/// Area (mm^2) and peak power (W) of one structure.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StructureCost {
    /// Area in mm^2.
    pub area: f64,
    /// Peak power in W.
    pub power: f64,
}

impl StructureCost {
    fn new(area: f64, power: f64) -> Self {
        StructureCost { area, power }
    }
}

impl std::ops::Add for StructureCost {
    type Output = StructureCost;
    fn add(self, o: StructureCost) -> StructureCost {
        StructureCost {
            area: self.area + o.area,
            power: self.power + o.power,
        }
    }
}

/// Per-structure breakdown of a core (the categories of Figures 10/11).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CoreBreakdown {
    /// Fetch engine: fetch buffers, micro-op cache, ILD.
    pub fetch: StructureCost,
    /// Decoder cluster.
    pub decode: StructureCost,
    /// Branch predictor.
    pub bpred: StructureCost,
    /// Scheduler: rename, IQ, ROB, LSQ.
    pub scheduler: StructureCost,
    /// Integer + FP/SIMD register files.
    pub regfile: StructureCost,
    /// Functional units.
    pub fu: StructureCost,
    /// Private L1 instruction + data caches.
    pub l1: StructureCost,
    /// Fixed core overhead: latches, TLBs, clocking, interconnect stop.
    pub overhead: StructureCost,
}

impl CoreBreakdown {
    /// Total of all structures.
    pub fn total(&self) -> StructureCost {
        self.fetch
            + self.decode
            + self.bpred
            + self.scheduler
            + self.regfile
            + self.fu
            + self.l1
            + self.overhead
    }

    /// Named iterator for report printing.
    pub fn named(&self) -> [(&'static str, StructureCost); 8] {
        [
            ("fetch", self.fetch),
            ("decode", self.decode),
            ("bpred", self.bpred),
            ("scheduler", self.scheduler),
            ("regfile", self.regfile),
            ("fu", self.fu),
            ("l1", self.l1),
            ("overhead", self.overhead),
        ]
    }
}

/// Full budget of a core design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreBudget {
    /// Total core area (mm^2), excluding the shared L2.
    pub area_mm2: f64,
    /// Total core peak power (W), excluding the shared L2.
    pub peak_power_w: f64,
    /// Structure breakdown.
    pub breakdown: CoreBreakdown,
}

// ---- calibration constants (mm^2, W) ----
const SCALE_AREA: f64 = 1.35;
const SCALE_POWER: f64 = 1.485;
const OVERHEAD_AREA_IO: f64 = 3.60;
const OVERHEAD_AREA_OOO: f64 = 5.1;
const OVERHEAD_POWER_IO: f64 = 0.60;
const OVERHEAD_POWER_OOO: f64 = 3.70;

/// Shared L2 cost at chip level.
pub fn l2_cost(total_l2_kb: u32, _ways: u32) -> StructureCost {
    let mb = total_l2_kb as f64 / 1024.0;
    StructureCost::new(2.6 * mb, 0.55 * mb)
}

/// # Example
///
/// ```
/// use cisa_power::core_budget;
/// use cisa_sim::CoreConfig;
/// use cisa_isa::FeatureSet;
///
/// let big = core_budget(&CoreConfig::big(FeatureSet::x86_64()));
/// let little = core_budget(&CoreConfig::little(FeatureSet::minimal()));
/// assert!(big.peak_power_w > little.peak_power_w);
/// assert!(big.area_mm2 > little.area_mm2);
/// ```
/// Budget for one core design point.
pub fn core_budget(cfg: &CoreConfig) -> CoreBudget {
    let fs = &cfg.fs;
    let ooo = cfg.sem == ExecSemantics::OutOfOrder;
    let w = cfg.width as f64;
    let width_bits = fs.width().bits() as f64;
    let wide64 = fs.width() == RegisterWidth::W64;
    let sse = fs.simd() == SimdSupport::Sse;

    // Fetch: buffers scale with width; micro-op cache fixed; the ILD
    // relative cost comes from the structural RTL model.
    let ild_rel = rtl::ild(fs).area / rtl::ild(&FeatureSet::x86_64()).area;
    let ild_rel_p = rtl::ild(fs).peak_power / rtl::ild(&FeatureSet::x86_64()).peak_power;
    let fetch = StructureCost::new(
        (0.22 + 0.10 * w) + 0.30 + 0.22 * ild_rel,
        (0.08 + 0.08 * w) + 0.15 + 0.16 * ild_rel_p,
    );

    // Decode: the decoder-block RTL relatives applied to the baseline
    // decode budget, scaled weakly with width (more parallel lanes).
    let dec = rtl::decoder_block(fs);
    let base = rtl::decoder_block(&FeatureSet::x86_64());
    let decode = StructureCost::new(
        0.55 * (dec.area / base.area) * (0.7 + 0.15 * w),
        0.38 * (dec.peak_power / base.peak_power) * (0.7 + 0.15 * w),
    );

    // Branch predictor.
    let bpred = match cfg.predictor {
        PredictorKind::TwoLevelLocal => StructureCost::new(0.16, 0.12),
        PredictorKind::Gshare => StructureCost::new(0.12, 0.10),
        PredictorKind::Tournament => StructureCost::new(0.30, 0.22),
    };

    // Scheduler: IQ + ROB + rename (OoO), LSQ always.
    let scheduler = if ooo {
        StructureCost::new(
            0.010 * cfg.window.iq as f64
                + 0.006 * cfg.window.rob as f64
                + 0.013 * cfg.lsq as f64
                + 0.22 * w,
            0.016 * cfg.window.iq as f64
                + 0.009 * cfg.window.rob as f64
                + 0.020 * cfg.lsq as f64
                + 0.44 * w,
        )
    } else {
        StructureCost::new(
            0.05 + 0.013 * cfg.lsq as f64 + 0.08 * w,
            0.045 + 0.010 * cfg.lsq as f64 + 0.10 * w,
        )
    };

    // Register files. The physical file scales partially with ISA
    // register depth even with renaming; in-order files are the
    // architectural state itself. FP/SIMD file is 128-bit wide with
    // SSE, 64-bit scalar otherwise.
    let depth = fs.depth().count() as f64;
    let int_entries = if ooo {
        cfg.window.prf_int as f64 + 0.5 * depth
    } else {
        depth + 8.0
    };
    let fp_entries = if ooo { cfg.window.prf_fp as f64 } else { 24.0 };
    let fp_bits = if sse { 128.0 } else { 64.0 };
    let regfile = StructureCost::new(
        int_entries * width_bits * 0.000045 + fp_entries * fp_bits * 0.000050,
        int_entries * width_bits * 0.000070 + fp_entries * fp_bits * 0.000045,
    );

    // Functional units. 64-bit datapaths cost more; SSE replaces the
    // scalar FP units with 128-bit packed units (the 17.3%/7.4% SSE
    // savings of Section III live here plus in the FP regfile).
    let alu_w = if wide64 { 1.20 } else { 1.0 };
    let alu_wp = if wide64 { 1.15 } else { 1.0 };
    let mul_units = (cfg.int_alu / 3).max(1) as f64;
    let n_fp = cfg.fp_alu as f64;
    // The first packed unit carries the full 128-bit datapath, shuffle
    // network and control; additional lanes share them.
    let (fp_area, fp_power) = if sse {
        (2.45 + (n_fp - 1.0) * 1.30, 0.62 + (n_fp - 1.0) * 0.45)
    } else {
        (0.50 * n_fp, 0.26 * n_fp)
    };
    let fu = StructureCost::new(
        cfg.int_alu as f64 * 0.20 * alu_w + mul_units * 0.28 * alu_w + fp_area,
        cfg.int_alu as f64 * 0.16 * alu_wp + mul_units * 0.20 * alu_wp + fp_power,
    );

    // Private L1s (I + D, same size).
    let l1 = StructureCost::new(
        2.0 * cfg.l1_kb as f64 * 0.017,
        2.0 * cfg.l1_kb as f64 * 0.0055,
    );

    let overhead = if ooo {
        StructureCost::new(OVERHEAD_AREA_OOO, OVERHEAD_POWER_OOO)
    } else {
        StructureCost::new(OVERHEAD_AREA_IO, OVERHEAD_POWER_IO)
    };

    let calibrate = |c: StructureCost| StructureCost {
        area: c.area * SCALE_AREA,
        power: c.power * SCALE_POWER,
    };
    let breakdown = CoreBreakdown {
        fetch: calibrate(fetch),
        decode: calibrate(decode),
        bpred: calibrate(bpred),
        scheduler: calibrate(scheduler),
        regfile: calibrate(regfile),
        fu: calibrate(fu),
        l1: calibrate(l1),
        overhead,
    };
    let total = breakdown.total();
    CoreBudget {
        area_mm2: total.area,
        peak_power_w: total.power,
        breakdown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cisa_isa::FeatureSet;
    use cisa_sim::WindowConfig;

    fn smallest() -> CoreConfig {
        CoreConfig {
            fs: FeatureSet::minimal(),
            sem: ExecSemantics::InOrder,
            width: 1,
            predictor: PredictorKind::Gshare,
            int_alu: 1,
            fp_alu: 1,
            lsq: 16,
            l1_kb: 32,
            l2_kb: 1024,
            window: WindowConfig::in_order(),
        }
    }

    fn largest() -> CoreConfig {
        CoreConfig {
            fs: FeatureSet::superset(),
            sem: ExecSemantics::OutOfOrder,
            width: 4,
            predictor: PredictorKind::Tournament,
            int_alu: 6,
            fp_alu: 4,
            lsq: 32,
            l1_kb: 64,
            l2_kb: 2048,
            window: WindowConfig::large(),
        }
    }

    #[test]
    fn envelope_matches_paper() {
        // Paper: per-core peak power 4.8W-23.4W, area 9.4-28.6 mm^2.
        let lo = core_budget(&smallest());
        let hi = core_budget(&largest());
        assert!(
            (lo.peak_power_w - 4.8).abs() < 0.9,
            "smallest power {}",
            lo.peak_power_w
        );
        assert!(
            (lo.area_mm2 - 9.4).abs() < 1.0,
            "smallest area {}",
            lo.area_mm2
        );
        assert!(
            (hi.peak_power_w - 23.4).abs() < 2.0,
            "largest power {}",
            hi.peak_power_w
        );
        assert!(
            (hi.area_mm2 - 28.6).abs() < 2.5,
            "largest area {}",
            hi.area_mm2
        );
    }

    #[test]
    fn sse_exclusion_savings_match_section_3() {
        // Compare a reference x86 core against the same microarch with
        // SSE dropped (microx86 at the same depth/width/predication).
        let with_sse = CoreConfig::reference("x86-32D-64W".parse().unwrap());
        let mut no_sse = with_sse;
        no_sse.fs = "microx86-32D-64W".parse().unwrap();
        let a = core_budget(&with_sse);
        let b = core_budget(&no_sse);
        let area_saving = 1.0 - b.area_mm2 / a.area_mm2;
        let power_saving = 1.0 - b.peak_power_w / a.peak_power_w;
        assert!(
            (area_saving * 100.0 - 17.3).abs() < 3.0,
            "SSE area saving {}%",
            area_saving * 100.0
        );
        assert!(
            (power_saving * 100.0 - 7.4).abs() < 2.0,
            "SSE power saving {}%",
            power_saving * 100.0
        );
    }

    #[test]
    fn width_doubling_costs_up_to_6_percent_power() {
        let mut worst: f64 = 0.0;
        for depth in ["16D", "32D", "64D"] {
            let narrow: FeatureSet = format!("x86-{depth}-32W").parse().unwrap();
            let wide: FeatureSet = format!("x86-{depth}-64W").parse().unwrap();
            let a = core_budget(&CoreConfig::reference(narrow));
            let b = core_budget(&CoreConfig::reference(wide));
            worst = worst.max(b.peak_power_w / a.peak_power_w - 1.0);
        }
        assert!(
            (worst * 100.0) > 2.0 && (worst * 100.0) < 8.5,
            "width power impact {}% (paper: up to 6.4%)",
            worst * 100.0
        );
    }

    #[test]
    fn deeper_registers_cost_area_and_power() {
        let d8 = core_budget(&CoreConfig::little("microx86-8D-32W".parse().unwrap()));
        let d64 = core_budget(&CoreConfig::little("microx86-64D-32W".parse().unwrap()));
        assert!(d64.area_mm2 > d8.area_mm2);
        assert!(d64.peak_power_w > d8.peak_power_w);
    }

    #[test]
    fn ooo_costs_more_than_inorder() {
        let fs = FeatureSet::x86_64();
        let mut io = CoreConfig::reference(fs);
        io.sem = ExecSemantics::InOrder;
        io.window = WindowConfig::in_order();
        let ooo = CoreConfig::reference(fs);
        assert!(core_budget(&ooo).area_mm2 > core_budget(&io).area_mm2);
        assert!(core_budget(&ooo).peak_power_w > core_budget(&io).peak_power_w);
    }

    #[test]
    fn breakdown_sums_to_totals() {
        let b = core_budget(&largest());
        let t = b.breakdown.total();
        assert!((t.area - b.area_mm2).abs() < 1e-9);
        assert!((t.power - b.peak_power_w).abs() < 1e-9);
        let named_sum: f64 = b.breakdown.named().iter().map(|(_, c)| c.area).sum();
        assert!((named_sum - b.area_mm2).abs() < 1e-9);
    }

    #[test]
    fn l2_scales_with_size() {
        let small = l2_cost(4096, 4);
        let big = l2_cost(8192, 8);
        assert!((big.area / small.area - 2.0).abs() < 0.01);
        assert!(big.power > small.power);
    }
}

/// Chip-level budget: four cores plus the shared banked L2.
///
/// # Example
///
/// ```
/// use cisa_power::{chip_budget, ChipBudget};
/// use cisa_sim::CoreConfig;
/// use cisa_isa::FeatureSet;
///
/// let core = CoreConfig::reference(FeatureSet::x86_64());
/// let chip: ChipBudget = chip_budget(&[core, core, core, core]);
/// assert!(chip.total_area_mm2 > 4.0 * chip.cores[0].area_mm2);
/// assert_eq!(chip.shared_l2_kb, 4 * core.l2_kb);
/// ```
#[derive(Debug, Clone)]
pub struct ChipBudget {
    /// Per-core budgets.
    pub cores: Vec<CoreBudget>,
    /// Total shared L2 capacity (sum of the per-core slices), in KB.
    pub shared_l2_kb: u32,
    /// Shared-L2 cost.
    pub l2: StructureCost,
    /// Total chip area (cores + shared L2), mm^2.
    pub total_area_mm2: f64,
    /// Total chip peak power (cores + shared L2), W.
    pub total_peak_power_w: f64,
    /// Sum of core peak powers only (the paper's power-budget metric;
    /// the shared L2 is budgeted separately).
    pub cores_peak_power_w: f64,
    /// Sum of core areas only (the paper's area-budget metric).
    pub cores_area_mm2: f64,
}

/// Budgets a whole 4-core chip.
pub fn chip_budget(cores: &[cisa_sim::CoreConfig]) -> ChipBudget {
    let budgets: Vec<CoreBudget> = cores.iter().map(core_budget).collect();
    let shared_l2_kb: u32 = cores.iter().map(|c| c.l2_kb).sum();
    let l2 = l2_cost(shared_l2_kb, 4);
    let cores_area_mm2: f64 = budgets.iter().map(|b| b.area_mm2).sum();
    let cores_peak_power_w: f64 = budgets.iter().map(|b| b.peak_power_w).sum();
    ChipBudget {
        total_area_mm2: cores_area_mm2 + l2.area,
        total_peak_power_w: cores_peak_power_w + l2.power,
        cores_area_mm2,
        cores_peak_power_w,
        shared_l2_kb,
        l2,
        cores: budgets,
    }
}

#[cfg(test)]
mod chip_tests {
    use super::*;
    use cisa_isa::FeatureSet;
    use cisa_sim::CoreConfig;

    #[test]
    fn chip_budget_sums_components() {
        let fs = FeatureSet::x86_64();
        let cores = [
            CoreConfig::little(fs),
            CoreConfig::little(fs),
            CoreConfig::reference(fs),
            CoreConfig::big(fs),
        ];
        let chip = chip_budget(&cores);
        assert_eq!(chip.cores.len(), 4);
        let sum: f64 = chip.cores.iter().map(|b| b.area_mm2).sum();
        assert!((chip.cores_area_mm2 - sum).abs() < 1e-9);
        assert!(
            chip.total_area_mm2 > chip.cores_area_mm2,
            "shared L2 adds area"
        );
        assert!(chip.total_peak_power_w > chip.cores_peak_power_w);
        // little(1MB) x2 + reference(1MB) + big(2MB) slices.
        assert_eq!(chip.shared_l2_kb, 1024 * 3 + 2048);
    }

    #[test]
    fn heterogeneous_chips_cost_less_than_four_big_cores() {
        let fs = FeatureSet::x86_64();
        let hetero = chip_budget(&[
            CoreConfig::big(fs),
            CoreConfig::little(fs),
            CoreConfig::little(fs),
            CoreConfig::little(fs),
        ]);
        let all_big = chip_budget(&[CoreConfig::big(fs); 4]);
        assert!(hetero.total_peak_power_w < all_big.total_peak_power_w);
        assert!(hetero.total_area_mm2 < all_big.total_area_mm2);
    }
}
