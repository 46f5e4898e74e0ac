//! The design space: exactly 180 microarchitectures x 26 feature sets =
//! 4,680 single-core design points (Table I after pruning).
//!
//! Pruning/tying rules (documented in DESIGN.md):
//!
//! - Width and execution resources are tied — a 4-issue core with a
//!   single ALU is pruned (the paper prunes the same way):
//!   `(width, INT ALU, FP/SIMD ALU, LSQ)` comes from five viable
//!   bundles.
//! - The branch predictor is free: local / gshare / tournament.
//! - L1 (I and D sized together) is 32KB/4w or 64KB/4w; the shared-L2
//!   per-core slice is 1MB/4w or 2MB/8w.
//! - Out-of-order cores choose a small or large window class
//!   (IQ/ROB/PRF move together); in-order cores have no window choice.
//!
//! In-order: 5 x 3 x 2 x 2 = 60; out-of-order: x2 window classes = 120;
//! total **180**.

use cisa_isa::FeatureSet;
use cisa_sim::{CoreConfig, ExecSemantics, PredictorKind, WindowConfig};

/// The five `(width, int_alu, fp_alu, lsq)` execution bundles.
pub const EXEC_BUNDLES: [(u32, u32, u32, u32); 5] = [
    (1, 1, 1, 16),
    (2, 3, 1, 16),
    (2, 3, 2, 16),
    (4, 6, 2, 32),
    (4, 6, 4, 32),
];

/// L1 size options in KB.
pub const L1_OPTIONS: [u32; 2] = [32, 64];
/// L2 per-core slice options in KB.
pub const L2_OPTIONS: [u32; 2] = [1024, 2048];

/// A microarchitecture: everything in [`CoreConfig`] except the feature
/// set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MicroArch {
    /// Execution semantics.
    pub sem: ExecSemantics,
    /// Fetch/issue width.
    pub width: u32,
    /// Branch predictor.
    pub predictor: PredictorKind,
    /// Integer ALUs.
    pub int_alu: u32,
    /// FP/SIMD ALUs.
    pub fp_alu: u32,
    /// LSQ entries.
    pub lsq: u32,
    /// L1 size (KB).
    pub l1_kb: u32,
    /// L2 slice (KB).
    pub l2_kb: u32,
    /// Window class.
    pub window: WindowConfig,
}

impl MicroArch {
    /// Combines with a feature set into a full core design point.
    pub fn with_fs(&self, fs: FeatureSet) -> CoreConfig {
        CoreConfig {
            fs,
            sem: self.sem,
            width: self.width,
            predictor: self.predictor,
            int_alu: self.int_alu,
            fp_alu: self.fp_alu,
            lsq: self.lsq,
            l1_kb: self.l1_kb,
            l2_kb: self.l2_kb,
            window: self.window,
        }
    }
}

/// Enumerates the 180 microarchitectures in a stable order.
pub fn all_microarchs() -> Vec<MicroArch> {
    let mut out = Vec::with_capacity(180);
    for sem in [ExecSemantics::InOrder, ExecSemantics::OutOfOrder] {
        let windows: &[WindowConfig] = match sem {
            ExecSemantics::InOrder => &[WindowConfig {
                iq: 32,
                rob: 64,
                prf_int: 64,
                prf_fp: 16,
            }],
            ExecSemantics::OutOfOrder => &[
                WindowConfig {
                    iq: 32,
                    rob: 64,
                    prf_int: 96,
                    prf_fp: 64,
                },
                WindowConfig {
                    iq: 64,
                    rob: 128,
                    prf_int: 192,
                    prf_fp: 160,
                },
            ],
        };
        for &window in windows {
            for (width, int_alu, fp_alu, lsq) in EXEC_BUNDLES {
                for predictor in PredictorKind::ALL {
                    for l1_kb in L1_OPTIONS {
                        for l2_kb in L2_OPTIONS {
                            out.push(MicroArch {
                                sem,
                                width,
                                predictor,
                                int_alu,
                                fp_alu,
                                lsq,
                                l1_kb,
                                l2_kb,
                                window,
                            });
                        }
                    }
                }
            }
        }
    }
    out
}

/// Index of an L1 size into the per-geometry profile columns
/// (`0` = 32KB, `1` = 64KB; see [`L1_OPTIONS`]).
pub(crate) fn l1_geo_idx(l1_kb: u32) -> usize {
    usize::from(l1_kb >= 64)
}

/// Index of an L2 slice size into the per-geometry profile columns
/// (`0` = 1MB, `1` = 2MB; see [`L2_OPTIONS`]).
pub(crate) fn l2_geo_idx(l2_kb: u32) -> usize {
    usize::from(l2_kb >= 2048)
}

/// A design-point identifier: indexes into the 26x180 cross product.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DesignId {
    /// Index into [`FeatureSet::all`].
    pub fs: u16,
    /// Index into [`all_microarchs`].
    pub ua: u16,
}

impl DesignId {
    /// Flat index in `0..4680`.
    pub fn flat(&self, n_ua: usize) -> usize {
        self.fs as usize * n_ua + self.ua as usize
    }
}

/// The full design space: feature sets, microarchitectures, and budgets.
#[derive(Debug, Clone)]
pub struct DesignSpace {
    /// The 26 feature sets.
    pub feature_sets: Vec<FeatureSet>,
    /// The 180 microarchitectures.
    pub microarchs: Vec<MicroArch>,
    /// Per-design-point core budgets (area mm^2, peak power W), indexed
    /// by [`DesignId::flat`].
    pub budgets: Vec<(f64, f64)>,
}

impl DesignSpace {
    /// Builds the space and precomputes all 4,680 budgets.
    pub fn new() -> Self {
        let feature_sets = FeatureSet::all();
        let microarchs = all_microarchs();
        let mut budgets = Vec::with_capacity(feature_sets.len() * microarchs.len());
        for fs in &feature_sets {
            for ua in &microarchs {
                let b = cisa_power::core_budget(&ua.with_fs(*fs));
                budgets.push((b.area_mm2, b.peak_power_w));
            }
        }
        DesignSpace {
            feature_sets,
            microarchs,
            budgets,
        }
    }

    /// Number of design points.
    pub fn len(&self) -> usize {
        self.feature_sets.len() * self.microarchs.len()
    }

    /// Whether the space is empty (never).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The core configuration of a design point.
    pub fn config(&self, id: DesignId) -> CoreConfig {
        self.microarchs[id.ua as usize].with_fs(self.feature_sets[id.fs as usize])
    }

    /// `(area_mm2, peak_power_w)` of a design point.
    pub fn budget(&self, id: DesignId) -> (f64, f64) {
        self.budgets[id.flat(self.microarchs.len())]
    }

    /// Iterator over every design id.
    pub fn ids(&self) -> impl Iterator<Item = DesignId> + '_ {
        let n_ua = self.microarchs.len() as u16;
        let n_fs = self.feature_sets.len() as u16;
        (0..n_fs).flat_map(move |fs| (0..n_ua).map(move |ua| DesignId { fs, ua }))
    }
}

impl Default for DesignSpace {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_180_microarchs() {
        assert_eq!(
            all_microarchs().len(),
            180,
            "the paper's 180 configurations"
        );
    }

    #[test]
    fn exactly_4680_design_points() {
        let space = DesignSpace::new();
        assert_eq!(space.len(), 4680, "the paper's 4,680 design points");
        assert_eq!(space.ids().count(), 4680);
    }

    #[test]
    fn budget_envelope_matches_paper() {
        // Paper: 4.8W..23.4W peak power, 9.4..28.6 mm^2 area.
        let space = DesignSpace::new();
        let min_p = space
            .budgets
            .iter()
            .map(|b| b.1)
            .fold(f64::INFINITY, f64::min);
        let max_p = space.budgets.iter().map(|b| b.1).fold(0.0f64, f64::max);
        let min_a = space
            .budgets
            .iter()
            .map(|b| b.0)
            .fold(f64::INFINITY, f64::min);
        let max_a = space.budgets.iter().map(|b| b.0).fold(0.0f64, f64::max);
        assert!((min_p - 4.8).abs() < 0.9, "min power {min_p}");
        assert!((max_p - 23.4).abs() < 2.2, "max power {max_p}");
        assert!((min_a - 9.4).abs() < 1.2, "min area {min_a}");
        assert!((max_a - 28.6).abs() < 2.6, "max area {max_a}");
    }

    #[test]
    fn in_order_cores_have_one_window_class() {
        let io: Vec<_> = all_microarchs()
            .into_iter()
            .filter(|m| m.sem == ExecSemantics::InOrder)
            .collect();
        assert_eq!(io.len(), 60);
        assert!(io
            .iter()
            .all(|m| m.window.rob == 64 && m.window.prf_int == 64));
    }

    #[test]
    fn wide_cores_have_wide_backends() {
        for m in all_microarchs() {
            if m.width == 4 {
                assert!(m.int_alu >= 6 && m.lsq >= 32, "4-wide needs resources");
            }
            if m.width == 1 {
                assert_eq!(m.int_alu, 1, "1-wide keeps a single ALU");
            }
        }
    }

    #[test]
    fn design_id_roundtrip() {
        let space = DesignSpace::new();
        let id = DesignId { fs: 3, ua: 17 };
        let cfg = space.config(id);
        assert_eq!(cfg.fs, space.feature_sets[3]);
        assert_eq!(cfg.width, space.microarchs[17].width);
        assert_eq!(id.flat(180), 3 * 180 + 17);
    }
}
