//! The (phase x design point) performance/energy table.
//!
//! Building the table runs one probe per (phase, feature set) — 49 x 26
//! = 1,274 probes, each involving real compilation, trace expansion,
//! predictor/cache measurement and three calibration simulations — then
//! fills the 229,320 (phase, design) entries with the interval model.
//! Vendor-ISA entries (Thumb, Alpha, x86-64) are derived from their
//! x86-ized equivalents' probes with the behavioural adjustments of
//! Table II (Thumb's code compression and missing FP, Alpha's extra FP
//! registers and fixed-length decode).
//!
//! A table is never stored: it is a pure function of its probes, so a
//! warm rebuild is the probe-cache reads plus the interval-model fill
//! (tens of milliseconds), and an edit to the interval or power model,
//! [`vendor_adjust`] or the phase specs takes effect on the next build.
//!
//! The table is the substrate of every system-level experiment:
//! Figures 5-13 and 15 and Tables III-IV all read their
//! (phase, design) performance numbers from here. Builds run on a
//! [`SweepRunner`], so they parallelize across `CISA_THREADS` workers
//! and reuse probes from the on-disk [`crate::cache::ProfileCache`].

use cisa_isa::VendorIsa;
use cisa_workloads::PhaseSpec;

use crate::interval::{evaluate, PhasePerf};
use crate::profile::PhaseProfile;
use crate::runner::{par_map_isolated, SweepReport, SweepRunner};
use crate::space::{DesignId, DesignSpace};

/// One (phase, feature-set) cell of the fill: 180 composite entries
/// plus the derived vendor-ISA row when the cell's feature set is a
/// vendor ISA's x86-ized equivalent.
struct Cell {
    perfs: Vec<PhasePerf>,
    vendor: Option<(usize, Vec<PhasePerf>)>,
}

/// Fills one cell: one [`evaluate`] call per design point for the
/// composite entries, and one more per design point for the
/// vendor-adjusted profile when the cell's feature set is a vendor
/// ISA's x86-ized equivalent.
fn evaluate_cell(space: &DesignSpace, fi: usize, prof: &PhaseProfile) -> Cell {
    let _span = cisa_obs::span("table/fill");
    let fs = space.feature_sets[fi];
    let row = |p: &PhaseProfile| -> Vec<PhasePerf> {
        cisa_obs::counter("table/evals", space.microarchs.len() as u64);
        space
            .microarchs
            .iter()
            .map(|ua| evaluate(p, ua, &ua.with_fs(fs)))
            .collect()
    };
    let vendor = VendorIsa::ALL
        .iter()
        .enumerate()
        .find(|(_, v)| v.x86ized() == fs)
        .map(|(vi, v)| (vi, row(&vendor_adjust(prof, *v))));
    Cell {
        perfs: row(prof),
        vendor,
    }
}

/// The evaluated design-space table.
#[derive(Debug, Clone)]
pub struct PerfTable {
    /// Number of microarchitectures (180).
    pub n_ua: usize,
    /// Number of feature sets (26).
    pub n_fs: usize,
    /// Number of phases (49).
    pub n_phases: usize,
    /// Benchmark index (in `all_benchmarks` order) of each phase row.
    pub phase_benchmarks: Vec<u8>,
    /// Composite entries: `[phase][fs][ua]`.
    entries: Vec<PhasePerf>,
    /// Vendor entries: `[phase][vendor][ua]` (Thumb, Alpha, x86-64).
    vendor_entries: Vec<PhasePerf>,
}

impl PerfTable {
    /// Builds the table for `phases` on `runner`, returning the sweep's
    /// fault report alongside. Cold, this probes every (phase, feature
    /// set) pair; a runner with a probe cache serves a warm rebuild
    /// from disk without probing.
    ///
    /// Each (phase, feature set) cell — one probe, 180 interval-model
    /// evaluations, plus any derived vendor-ISA row — is an independent
    /// task; the runner sweeps the grid in parallel and the merged
    /// result is identical at any thread count.
    ///
    /// Every cell runs panic-isolated with the runner's retry budget,
    /// so a poisoned cell — an injected fault or a genuine crash —
    /// degrades to a recorded [`crate::runner::ItemError`] instead of
    /// killing the build. The failed cells' entries stay at
    /// [`PhasePerf::default`] (zeros, detectable by
    /// [`PhasePerf::cycles_per_unit`]` == 0.0`); every surviving cell is
    /// **bit-identical** to a fault-free build. On the fault-free path
    /// the report is clean.
    pub fn build(
        space: &DesignSpace,
        phases: &[PhaseSpec],
        runner: &SweepRunner,
    ) -> (Self, SweepReport) {
        let n_fs = space.feature_sets.len();
        // One task per (phase, feature set) cell, row-major so the
        // merged output lands in table order. Vendor ISAs are derived
        // from their x86-ized probes inside the cell fill.
        let pairs: Vec<(usize, usize)> = (0..phases.len())
            .flat_map(|pi| (0..n_fs).map(move |fi| (pi, fi)))
            .collect();
        let (cells, report) = par_map_isolated(
            &pairs,
            runner.threads(),
            SweepRunner::DEFAULT_MAX_ATTEMPTS,
            |&(pi, fi), index, attempt| {
                let prof =
                    runner.probe_checked(&phases[pi], space.feature_sets[fi], index, attempt)?;
                Ok(evaluate_cell(space, fi, &prof))
            },
        );
        (Self::from_cells(space, phases, cells), report)
    }

    /// Builds the table from an already-probed profile grid — row-major
    /// `[phase][fs]`, as [`SweepRunner::profile_grid`] returns. This is
    /// the pure model-evaluation half of a build (no probing, no I/O):
    /// `bench_probe` times it warm, and the online-refinement tier of
    /// `cisa-serve` fills one-phase tables with it.
    ///
    /// # Panics
    ///
    /// Panics if `grid.len() != phases.len() * space.feature_sets.len()`.
    pub fn from_profile_grid(
        space: &DesignSpace,
        phases: &[PhaseSpec],
        grid: &[PhaseProfile],
    ) -> Self {
        let n_fs = space.feature_sets.len();
        assert_eq!(
            grid.len(),
            phases.len() * n_fs,
            "profile grid shape mismatch"
        );
        let cells = grid
            .iter()
            .enumerate()
            .map(|(i, prof)| Some(evaluate_cell(space, i % n_fs, prof)));
        Self::from_cells(space, phases, cells)
    }

    /// Assembles a table from its row-major `[phase][fs]` cells,
    /// scattering each into the composite and vendor entry arrays. A
    /// `None` cell (failed in a reported build) leaves its entries at
    /// the zero default.
    fn from_cells(
        space: &DesignSpace,
        phases: &[PhaseSpec],
        cells: impl IntoIterator<Item = Option<Cell>>,
    ) -> Self {
        let n_ua = space.microarchs.len();
        let n_fs = space.feature_sets.len();
        let n_phases = phases.len();
        let bench_names: Vec<&str> = cisa_workloads::all_benchmarks()
            .iter()
            .map(|b| b.name)
            .collect();
        let phase_benchmarks: Vec<u8> = phases
            .iter()
            .map(|p| {
                bench_names
                    .iter()
                    .position(|n| *n == p.benchmark)
                    .expect("known benchmark") as u8
            })
            .collect();
        let mut entries = vec![PhasePerf::default(); n_phases * n_fs * n_ua];
        let mut vendor_entries = vec![PhasePerf::default(); n_phases * 3 * n_ua];
        for (i, cell) in cells.into_iter().enumerate() {
            let Some(cell) = cell else {
                continue;
            };
            let pi = i / n_fs;
            entries[i * n_ua..(i + 1) * n_ua].copy_from_slice(&cell.perfs);
            if let Some((vi, vperfs)) = &cell.vendor {
                vendor_entries[(pi * 3 + vi) * n_ua..(pi * 3 + vi + 1) * n_ua]
                    .copy_from_slice(vperfs);
            }
        }
        PerfTable {
            n_ua,
            n_fs,
            n_phases,
            phase_benchmarks,
            entries,
            vendor_entries,
        }
    }

    /// Looks up a composite design point for a phase.
    #[inline]
    pub fn get(&self, phase: usize, id: DesignId) -> PhasePerf {
        self.entries[(phase * self.n_fs + id.fs as usize) * self.n_ua + id.ua as usize]
    }

    /// The full per-phase column of one composite design point:
    /// `out[p] == self.get(p, id)` for every phase row. Fleet-scale
    /// consumers (the `cisa-fleet` scheduler) extract one contiguous
    /// column per distinct core design instead of calling
    /// [`PerfTable::get`] in their event loops.
    pub fn design_column(&self, id: DesignId) -> Vec<PhasePerf> {
        (0..self.n_phases).map(|p| self.get(p, id)).collect()
    }

    /// Looks up a vendor-ISA design point for a phase.
    #[inline]
    pub fn vendor(&self, phase: usize, vendor: VendorIsa, ua: usize) -> PhasePerf {
        let vi = VendorIsa::ALL
            .iter()
            .position(|v| *v == vendor)
            .expect("known vendor");
        self.vendor_entries[(phase * 3 + vi) * self.n_ua + ua]
    }
}

/// Applies the behavioural deltas of a vendor ISA to its x86-ized
/// equivalent's profile (Table II).
pub fn vendor_adjust(base: &PhaseProfile, vendor: VendorIsa) -> PhaseProfile {
    let mut p = *base;
    match vendor {
        VendorIsa::X86_64 => {}
        VendorIsa::Thumb => {
            // No FP/SIMD hardware: floating-point work is
            // software-emulated in integer code (~5 integer ops per FP
            // op), which also serializes dependency chains.
            let f_emu = p.mix[4] + p.mix[5];
            let expand = 1.0 + 7.0 * f_emu;
            p.uops_per_unit *= expand;
            let mut mix = p.mix;
            mix[2] += 8.0 * f_emu;
            mix[4] = 0.0;
            mix[5] = 0.0;
            let total: f64 = mix.iter().sum();
            for m in &mut mix {
                *m /= total;
            }
            p.mix = mix;
            // Branch rates dilute by the full expansion; memory rates
            // only by its square root — softfloat sequences add loads
            // and stores of their own (packing/unpacking temporaries),
            // so memory stalls per unit of work grow.
            let mem_dilute = expand.sqrt();
            for m in &mut p.mispredict_per_uop {
                *m /= expand;
            }
            for m in &mut p.l1d_miss_per_uop {
                *m /= mem_dilute;
            }
            for row in &mut p.l2_miss_per_uop {
                for m in row {
                    *m /= mem_dilute;
                }
            }
            p.ilp *= 0.72;
            // Code compression: ~0.70x bytes, better instruction-side
            // locality; one-step decode keeps the frontend full.
            p.avg_macro_len *= 0.70;
            p.code_bytes *= 0.70;
            for m in &mut p.l1i_miss_per_uop {
                *m *= 0.6 / expand;
            }
            p.uopc_hit_rate = (p.uopc_hit_rate * 1.05).min(1.0);
        }
        VendorIsa::Alpha => {
            // Fixed 4-byte instructions: slightly larger code, one-step
            // decode; 32 FP registers relieve FP register pressure.
            p.avg_macro_len = 4.0;
            p.code_bytes *= 1.10;
            for m in &mut p.l1i_miss_per_uop {
                *m *= 1.08;
            }
            if p.mix[4] + p.mix[5] > 0.1 {
                p.uops_per_unit *= 0.97;
            }
        }
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::DesignSpace;
    use cisa_isa::Complexity;
    use cisa_workloads::all_phases;

    fn small_table() -> (DesignSpace, PerfTable, Vec<PhaseSpec>) {
        let space = DesignSpace::new();
        // Two phases only: keep the test fast.
        let phases: Vec<PhaseSpec> = all_phases()
            .into_iter()
            .filter(|p| (p.benchmark == "lbm" || p.benchmark == "sjeng") && p.index == 0)
            .collect();
        let (table, _) = PerfTable::build(&space, &phases, &SweepRunner::default());
        (space, table, phases)
    }

    #[test]
    fn every_entry_is_populated() {
        let (space, table, phases) = small_table();
        for pi in 0..phases.len() {
            for id in space.ids() {
                let perf = table.get(pi, id);
                assert!(
                    perf.cycles_per_unit > 0.0 && perf.energy_per_unit > 0.0,
                    "empty entry at phase {pi} design {id:?}"
                );
            }
        }
    }

    #[test]
    fn sjeng_prefers_full_predication_somewhere() {
        // On the same microarch, sjeng (irregular branches) should run
        // at least as fast on a fully predicated feature set as on the
        // partial-predication variant of the same shape.
        let (space, table, phases) = small_table();
        let sjeng_pi = phases.iter().position(|p| p.benchmark == "sjeng").unwrap();
        let fs_partial = space
            .feature_sets
            .iter()
            .position(|f| f.to_string() == "x86-32D-64W")
            .unwrap() as u16;
        let fs_full = space
            .feature_sets
            .iter()
            .position(|f| f.to_string() == "x86-32D-64W-P")
            .unwrap() as u16;
        let better_count = (0..space.microarchs.len() as u16)
            .filter(|&ua| {
                table
                    .get(sjeng_pi, DesignId { fs: fs_full, ua })
                    .cycles_per_unit
                    < table
                        .get(sjeng_pi, DesignId { fs: fs_partial, ua })
                        .cycles_per_unit
            })
            .count();
        assert!(
            better_count > 60,
            "full predication should often help sjeng ({better_count}/180)"
        );
        // And the best core choice for sjeng must not lose by adopting
        // full predication (the paper's affinity observation).
        let best = |fs: u16| {
            (0..space.microarchs.len() as u16)
                .map(|ua| table.get(sjeng_pi, DesignId { fs, ua }).cycles_per_unit)
                .fold(f64::INFINITY, f64::min)
        };
        assert!(
            best(fs_full) <= best(fs_partial) * 1.02,
            "best full-pred design must be competitive: {} vs {}",
            best(fs_full),
            best(fs_partial)
        );
    }

    #[test]
    fn thumb_is_bad_at_fp() {
        let (space, table, phases) = small_table();
        let lbm_pi = phases.iter().position(|p| p.benchmark == "lbm").unwrap();
        let thumbized = space
            .feature_sets
            .iter()
            .position(|f| *f == VendorIsa::Thumb.x86ized())
            .unwrap() as u16;
        // Compare vendor Thumb vs its x86-ized equivalent on a mid
        // microarch: the x86-ized version has FP hardware (Table II
        // "exclusive features: FP support") and must win big on lbm.
        let ua = 30usize;
        let vendor_perf = table.vendor(lbm_pi, VendorIsa::Thumb, ua);
        let x86ized_perf = table.get(
            lbm_pi,
            DesignId {
                fs: thumbized,
                ua: ua as u16,
            },
        );
        assert!(
            vendor_perf.cycles_per_unit > x86ized_perf.cycles_per_unit * 1.4,
            "thumb {} vs x86-ized {}",
            vendor_perf.cycles_per_unit,
            x86ized_perf.cycles_per_unit
        );
    }

    #[test]
    fn microx86_feature_sets_have_cheaper_cores_not_zero_entries() {
        let (space, table, _) = small_table();
        let micro_fs = space
            .feature_sets
            .iter()
            .position(|f| f.complexity() == Complexity::MicroX86)
            .unwrap() as u16;
        let perf = table.get(
            0,
            DesignId {
                fs: micro_fs,
                ua: 0,
            },
        );
        assert!(perf.cycles_per_unit.is_finite());
    }
}
