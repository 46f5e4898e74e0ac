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
//! Tables can be cached to disk in a simple versioned binary format so
//! the experiment harness pays the build cost once.
//!
//! The table is the substrate of every system-level experiment:
//! Figures 5-13 and 15 and Tables III-IV all read their
//! (phase, design) performance numbers from here. Builds run on a
//! [`SweepRunner`], so they parallelize across `CISA_THREADS` workers
//! and reuse probes from the on-disk [`crate::cache::ProfileCache`].

use std::io::{Read, Write};
use std::path::Path;

use cisa_isa::VendorIsa;
use cisa_workloads::{all_phases, PhaseSpec};

use crate::interval::{evaluate, evaluate_block, PhasePerf};
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

/// Fills one cell with the batched block evaluator: one
/// [`evaluate_block`] sweep over the design-point-major SoA for the
/// composite entries, and one more for the vendor-adjusted profile
/// when applicable (the vendor row shares the cell's feature set, so
/// the same peak-power column applies).
fn evaluate_cell(space: &DesignSpace, fi: usize, prof: &PhaseProfile) -> Cell {
    let fs = space.feature_sets[fi];
    let n_ua = space.microarchs.len();
    let peaks = space.peaks(fi);
    let mut perfs = vec![PhasePerf::default(); n_ua];
    evaluate_block(prof, fs, &space.soa, peaks, &mut perfs);
    let vendor = VendorIsa::ALL
        .iter()
        .enumerate()
        .find(|(_, v)| v.x86ized() == fs)
        .map(|(vi, v)| {
            let vprof = vendor_adjust(prof, *v);
            let mut vperfs = vec![PhasePerf::default(); n_ua];
            evaluate_block(&vprof, fs, &space.soa, peaks, &mut vperfs);
            (vi, vperfs)
        });
    Cell { perfs, vendor }
}

/// Scalar-oracle twin of [`evaluate_cell`]: one [`evaluate`] call per
/// design point, exactly as table builds ran before the batched path
/// existed. Retained as the executable bit-identity reference for the
/// `interval_block` suite and the `bench_table` speedup baseline.
fn evaluate_cell_reference(space: &DesignSpace, fi: usize, prof: &PhaseProfile) -> Cell {
    let fs = space.feature_sets[fi];
    let perfs: Vec<PhasePerf> = space
        .microarchs
        .iter()
        .map(|ua| evaluate(prof, ua, &ua.with_fs(fs)))
        .collect();
    let vendor = VendorIsa::ALL
        .iter()
        .enumerate()
        .find(|(_, v)| v.x86ized() == fs)
        .map(|(vi, v)| {
            let vprof = vendor_adjust(prof, *v);
            let vperfs = space
                .microarchs
                .iter()
                .map(|ua| evaluate(&vprof, ua, &ua.with_fs(fs)))
                .collect();
            (vi, vperfs)
        });
    Cell { perfs, vendor }
}

/// Magic+version header for the on-disk format.
const MAGIC: u64 = 0xC15A_7AB1_0000_0005;

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
    /// Builds the table for `phases` on `runner` (expensive: probes
    /// every (phase, feature set) pair; cache with [`PerfTable::save`]
    /// or use [`PerfTable::load_or_build`]), returning the sweep's
    /// fault report alongside.
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
            runner.retries(),
            |&(pi, fi), index, attempt| {
                let prof =
                    runner.probe_checked(&phases[pi], space.feature_sets[fi], index, attempt)?;
                Ok(evaluate_cell(space, fi, &prof))
            },
        );
        (Self::from_cells(space, phases, cells), report)
    }

    /// Builds the table from an already-probed profile grid — row-major
    /// `[phase][fs]`, as [`SweepRunner::profile_grid`] returns — with
    /// the batched block evaluator. This is the pure model-evaluation
    /// half of a build (no probing, no I/O): `bench_table` times it
    /// warm, and the `interval_block` suite compares it entry-for-entry
    /// against [`PerfTable::from_profile_grid_reference`].
    ///
    /// # Panics
    ///
    /// Panics if `grid.len() != phases.len() * space.feature_sets.len()`.
    pub fn from_profile_grid(
        space: &DesignSpace,
        phases: &[PhaseSpec],
        grid: &[PhaseProfile],
    ) -> Self {
        Self::from_grid_impl(space, phases, grid, evaluate_cell)
    }

    /// Scalar-oracle twin of [`PerfTable::from_profile_grid`]: fills
    /// every entry with one [`evaluate`] call per design point. Kept as
    /// the executable bit-identity reference and the `bench_table`
    /// speedup baseline.
    ///
    /// # Panics
    ///
    /// Panics if `grid.len() != phases.len() * space.feature_sets.len()`.
    pub fn from_profile_grid_reference(
        space: &DesignSpace,
        phases: &[PhaseSpec],
        grid: &[PhaseProfile],
    ) -> Self {
        Self::from_grid_impl(space, phases, grid, evaluate_cell_reference)
    }

    fn from_grid_impl(
        space: &DesignSpace,
        phases: &[PhaseSpec],
        grid: &[PhaseProfile],
        fill: fn(&DesignSpace, usize, &PhaseProfile) -> Cell,
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
            .map(|(i, prof)| Some(fill(space, i % n_fs, prof)));
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

    /// Saves to the versioned binary format.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        let w64 = |x: u64, f: &mut dyn Write| f.write_all(&x.to_le_bytes());
        w64(MAGIC, &mut f)?;
        w64(self.n_ua as u64, &mut f)?;
        w64(self.n_fs as u64, &mut f)?;
        w64(self.n_phases as u64, &mut f)?;
        f.write_all(&self.phase_benchmarks)?;
        for e in self.entries.iter().chain(&self.vendor_entries) {
            f.write_all(&e.cycles_per_unit.to_le_bytes())?;
            f.write_all(&e.energy_per_unit.to_le_bytes())?;
        }
        Ok(())
    }

    /// Loads from disk; `None` on a missing file or format mismatch.
    pub fn load(path: &Path) -> Option<Self> {
        let mut f = std::io::BufReader::new(std::fs::File::open(path).ok()?);
        let r64 = |f: &mut dyn Read| -> Option<u64> {
            let mut b = [0u8; 8];
            f.read_exact(&mut b).ok()?;
            Some(u64::from_le_bytes(b))
        };
        if r64(&mut f)? != MAGIC {
            return None;
        }
        let n_ua = r64(&mut f)? as usize;
        let n_fs = r64(&mut f)? as usize;
        let n_phases = r64(&mut f)? as usize;
        let mut phase_benchmarks = vec![0u8; n_phases];
        f.read_exact(&mut phase_benchmarks).ok()?;
        let n_main = n_phases * n_fs * n_ua;
        let n_vendor = n_phases * 3 * n_ua;
        let read_perf = |f: &mut dyn Read| -> Option<PhasePerf> {
            let mut b = [0u8; 16];
            f.read_exact(&mut b).ok()?;
            Some(PhasePerf {
                cycles_per_unit: f64::from_le_bytes(b[..8].try_into().ok()?),
                energy_per_unit: f64::from_le_bytes(b[8..].try_into().ok()?),
            })
        };
        let mut entries = Vec::with_capacity(n_main);
        for _ in 0..n_main {
            entries.push(read_perf(&mut f)?);
        }
        let mut vendor_entries = Vec::with_capacity(n_vendor);
        for _ in 0..n_vendor {
            vendor_entries.push(read_perf(&mut f)?);
        }
        Some(PerfTable {
            n_ua,
            n_fs,
            n_phases,
            phase_benchmarks,
            entries,
            vendor_entries,
        })
    }

    /// Loads the full all-phase table from `path` if present and
    /// matching `space`; otherwise builds it on `runner` (probing
    /// through the runner's cache and thread pool) and saves it. This
    /// is the entry point the experiment harness uses.
    ///
    /// The report is `None` when the table came from disk and
    /// `Some(report)` when it was built. A table with failed cells is
    /// **not** persisted — a later run rebuilds rather than serving
    /// zeros from disk forever.
    pub fn load_or_build(
        space: &DesignSpace,
        path: &Path,
        runner: &SweepRunner,
    ) -> (Self, Option<SweepReport>) {
        if let Some(t) = Self::load(path) {
            if t.n_ua == space.microarchs.len()
                && t.n_fs == space.feature_sets.len()
                && t.n_phases == all_phases().len()
            {
                return (t, None);
            }
        }
        let (t, report) = Self::build(space, &all_phases(), runner);
        if report.failed.is_empty() {
            if let Some(dir) = path.parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            let _ = t.save(path);
        }
        (t, Some(report))
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
    fn table_roundtrips_through_disk() {
        let (_, table, _) = small_table();
        let dir = std::env::temp_dir().join("cisa_table_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.bin");
        table.save(&path).unwrap();
        let loaded = PerfTable::load(&path).unwrap();
        assert_eq!(loaded.n_ua, table.n_ua);
        let id = DesignId { fs: 5, ua: 60 };
        assert_eq!(loaded.get(0, id), table.get(0, id));
        assert_eq!(
            loaded.vendor(1, VendorIsa::Thumb, 3),
            table.vendor(1, VendorIsa::Thumb, 3)
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_rejects_garbage() {
        let dir = std::env::temp_dir().join("cisa_table_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.bin");
        std::fs::write(&path, b"not a table").unwrap();
        assert!(PerfTable::load(&path).is_none());
        assert!(PerfTable::load(&dir.join("missing.bin")).is_none());
        std::fs::remove_file(&path).unwrap();
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
