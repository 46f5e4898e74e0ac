//! The fleet's hardware: core designs, chip designs, and the fleet
//! roster.
//!
//! A fleet is built from a handful of *chip designs* — 4-core
//! composite-ISA chips found by [`cisa_explore::multicore::search`]
//! under explicit peak-power budgets — replicated across thousands of
//! sockets. Each distinct core design appearing anywhere in the fleet
//! is extracted **once** into a [`CoreDesign`] carrying its full
//! per-phase cycles/energy column ([`PerfTable::design_column`]), so
//! the event loop scores placements with two array reads per
//! candidate instead of table lookups.
//!
//! Chips run under a per-chip power cap that is *below* the sum of
//! their cores' peak powers (a TDP, as on real parts): the scheduler
//! may only start a thread on a core when the chip's active peak power
//! plus the candidate core's stays under the cap.

use cisa_explore::multicore::{search, Budget, CoreChoice, Evaluator, Objective};
use cisa_explore::{DesignId, DesignSpace, PerfTable, PhasePerf};

use crate::workload::Workload;

/// One distinct core design used somewhere in the fleet.
#[derive(Debug, Clone)]
pub struct CoreDesign {
    /// The design point in the 26x180 space.
    pub id: DesignId,
    /// Peak power (W) — the chip-cap accounting unit.
    pub peak_w: f64,
    /// Full per-phase performance column: `perf[p]` is the table entry
    /// for corpus phase row `p` on this design.
    pub perf: Vec<PhasePerf>,
}

impl CoreDesign {
    /// Cycles per unit of work for a (possibly blended) workload.
    #[inline]
    pub(crate) fn cpu(&self, w: &Workload) -> f64 {
        w.blend(
            self.perf[w.p1 as usize].cycles_per_unit,
            self.perf[w.p2 as usize].cycles_per_unit,
        )
    }

    /// Energy (J) per unit of work for a (possibly blended) workload.
    #[inline]
    pub(crate) fn epu(&self, w: &Workload) -> f64 {
        w.blend(
            self.perf[w.p1 as usize].energy_per_unit,
            self.perf[w.p2 as usize].energy_per_unit,
        )
    }
}

/// One 4-core chip design: core-design indices plus the runtime power
/// cap.
#[derive(Debug, Clone)]
pub struct ChipDesign {
    /// Short label for reports (e.g. `tp-20w`).
    pub label: String,
    /// Indices into [`FleetSpec::core_designs`], one per core slot.
    pub cores: [u16; 4],
    /// Runtime power cap (W): the sum of simultaneously active cores'
    /// peak powers must stay at or under this.
    pub cap_w: f64,
}

/// The fleet roster: distinct core designs, chip designs, and the
/// per-socket chip-design assignment.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Distinct core designs (deduplicated across chip designs).
    pub core_designs: Vec<CoreDesign>,
    /// Distinct chip designs.
    pub chip_designs: Vec<ChipDesign>,
    /// Chip-design index of each physical chip in the fleet.
    pub chips: Vec<u16>,
    /// Corpus phase-row count of the perf columns.
    pub n_phases: usize,
}

/// Fraction of the search's power budget granted as the runtime chip
/// cap. Real parts set TDP below the sum of per-core peaks — not every
/// core can run flat-out simultaneously — so the fleet cap is
/// deliberately tighter than the budget the chips were designed under,
/// which is what makes power-aware placement a real constraint.
pub const TDP_FACTOR: f64 = 0.85;

impl FleetSpec {
    /// Builds a roster from explicit 4-core chips: `(cores, cap_w,
    /// label)` per chip design, replicated round-robin over `n_chips`
    /// sockets. Duplicate core design points are extracted once.
    pub fn from_chips(
        table: &PerfTable,
        space: &DesignSpace,
        designs: &[([DesignId; 4], f64, String)],
        n_chips: usize,
    ) -> FleetSpec {
        assert!(!designs.is_empty(), "fleet needs at least one chip design");
        let mut core_designs: Vec<CoreDesign> = Vec::new();
        let mut chip_designs = Vec::with_capacity(designs.len());
        for (ids, cap_w, label) in designs {
            let mut cores = [0u16; 4];
            for (slot, id) in ids.iter().enumerate() {
                let at = core_designs.iter().position(|c| c.id == *id);
                let at = match at {
                    Some(i) => i,
                    None => {
                        core_designs.push(CoreDesign {
                            id: *id,
                            peak_w: space.budget(*id).1,
                            perf: table.design_column(*id),
                        });
                        core_designs.len() - 1
                    }
                };
                cores[slot] = at as u16;
            }
            chip_designs.push(ChipDesign {
                label: label.clone(),
                cores,
                cap_w: *cap_w,
            });
        }
        let n_designs = chip_designs.len();
        let chips = (0..n_chips).map(|i| (i % n_designs) as u16).collect();
        FleetSpec {
            core_designs,
            chip_designs,
            chips,
            n_phases: table.n_phases,
        }
    }

    /// Builds a roster by running the multicore search once per
    /// `(budget, objective)` pair — throughput-tuned and EDP-tuned
    /// chips at every requested peak-power budget — and replicating
    /// the winners round-robin over `n_chips` sockets. Runtime caps
    /// are [`TDP_FACTOR`] of each search budget. Budgets no chip can
    /// satisfy are skipped.
    ///
    /// # Panics
    ///
    /// Panics if no budget admits any feasible chip.
    pub fn from_search(
        table: &PerfTable,
        space: &DesignSpace,
        budgets_w: &[f64],
        n_chips: usize,
    ) -> FleetSpec {
        let eval = Evaluator::new(space, table, 8);
        let candidates: Vec<CoreChoice> = space.ids().map(CoreChoice::Composite).collect();
        let mut designs = Vec::new();
        for &w in budgets_w {
            for (objective, tag) in [(Objective::Throughput, "tp"), (Objective::Edp, "edp")] {
                let Some(r) = search(&eval, &candidates, objective, Budget::PeakPower(w)) else {
                    continue;
                };
                let mut ids = [DesignId { fs: 0, ua: 0 }; 4];
                for (slot, c) in r.cores.iter().enumerate() {
                    match c {
                        CoreChoice::Composite(id) => ids[slot] = *id,
                        CoreChoice::Vendor(..) => {
                            unreachable!("composite-only candidate pool")
                        }
                    }
                }
                designs.push((ids, w * TDP_FACTOR, format!("{tag}-{w:.0}w")));
            }
        }
        assert!(
            !designs.is_empty(),
            "no feasible chip at any requested budget"
        );
        Self::from_chips(table, space, &designs, n_chips)
    }

    /// Number of physical chips in the fleet.
    pub(crate) fn n_chips(&self) -> usize {
        self.chips.len()
    }

    /// The best (lowest) cycles-per-unit any fleet core design
    /// achieves for a workload — the unloaded-fleet ideal service
    /// rate that per-thread slowdowns are normalized against.
    pub(crate) fn best_cpu(&self, w: &Workload) -> f64 {
        self.core_designs
            .iter()
            .map(|c| c.cpu(w))
            .fold(f64::INFINITY, f64::min)
    }

    /// Mean cycles-per-unit of one core design over the pure corpus
    /// phases (load-calibration proxy).
    pub(crate) fn mean_cpu(&self, design: u16) -> f64 {
        let perf = &self.core_designs[design as usize].perf;
        perf.iter().map(|p| p.cycles_per_unit).sum::<f64>() / perf.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tdp_factor_is_a_real_constraint() {
        // A cap derived from any positive budget must sit strictly
        // between half the budget and the budget itself.
        let budget = 20.0;
        let cap = budget * TDP_FACTOR;
        assert!(cap < budget && cap > 0.5 * budget);
    }
}
