//! # cisa-bench: the experiment harness
//!
//! One binary per table and figure of the paper's evaluation section
//! (see DESIGN.md's experiment index), all sharing a cached
//! (phase x design-point) performance table so the expensive probing
//! pass runs once.
//!
//! Run any experiment with `cargo run --release -p cisa-bench --bin
//! <experiment>`; the first run builds `results/perf_table.bin`.

use std::path::PathBuf;

use cisa_explore::multicore::{Budget, Evaluator, SearchConfig};
use cisa_explore::{DesignSpace, PerfTable, SweepRunner};

/// Where cached sweep results and experiment outputs live.
pub fn results_dir() -> PathBuf {
    let mut p = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    // crates/bench -> workspace root
    p.pop();
    p.pop();
    p.join("results")
}

/// The experiment harness: design space + shared sweep runner + cached
/// performance table.
pub struct Harness {
    /// The 26 x 180 design space.
    pub space: DesignSpace,
    /// The evaluated table over all 49 phases.
    pub table: PerfTable,
    /// The shared sweep executor: `CISA_THREADS` workers and the
    /// cross-binary probe cache in `results/cache/`.
    pub runner: SweepRunner,
}

impl Harness {
    /// Loads the cached table or builds it (expensive on first run;
    /// parallel across `CISA_THREADS` workers, incremental through the
    /// probe cache in `results/cache/`).
    pub fn load() -> Self {
        let space = DesignSpace::new();
        let runner = SweepRunner::from_env(results_dir().join("cache"));
        let path = results_dir().join("perf_table.bin");
        let started = std::time::Instant::now();
        let existed = path.exists();
        let (table, report) = PerfTable::load_or_build(&space, &path, &runner);
        if !existed {
            let (hits, misses, _) = runner.cache().map_or((0, 0, 0), |c| c.stats());
            eprintln!(
                "[harness] built perf table ({} phases x {} designs) in {:.1}s \
                 on {} threads ({} cached probes, {} fresh) -> {}",
                table.n_phases,
                space.len(),
                started.elapsed().as_secs_f64(),
                runner.threads(),
                hits,
                misses,
                path.display()
            );
        }
        if let Some(report) = report.filter(|r| !r.is_clean()) {
            eprintln!("[harness] table build faults: {}", report.summary());
            for e in &report.failed {
                eprintln!("[harness]   failed {e}");
            }
        }
        Harness {
            space,
            table,
            runner,
        }
    }

    /// An evaluator over the full workload-mix set.
    pub fn evaluator(&self) -> Evaluator<'_> {
        Evaluator::new(&self.space, &self.table, 24)
    }

    /// The standard search configuration used by every experiment.
    pub fn search_config(&self) -> SearchConfig {
        SearchConfig {
            restarts: 2,
            max_passes: 12,
            pool_cap: 120,
            identical: false,
        }
    }
}

/// The paper's peak-power budget axis (Figures 5-6), in watts.
pub const POWER_BUDGETS: [(&str, Budget); 4] = [
    ("20W", Budget::PeakPower(20.0)),
    ("40W", Budget::PeakPower(40.0)),
    ("60W", Budget::PeakPower(60.0)),
    ("Unlimited", Budget::Unlimited),
];

/// The paper's area budget axis (Figures 5-6, 8), in mm^2.
pub const AREA_BUDGETS: [(&str, Budget); 4] = [
    ("48mm2", Budget::Area(48.0)),
    ("64mm2", Budget::Area(64.0)),
    ("80mm2", Budget::Area(80.0)),
    ("Unlimited", Budget::Unlimited),
];

/// The single-thread peak-power axis (Figure 7): one core on at a time.
pub const SINGLE_THREAD_POWER_BUDGETS: [(&str, Budget); 4] = [
    ("5W", Budget::PeakPower(5.0)),
    ("10W", Budget::PeakPower(10.0)),
    ("15W", Budget::PeakPower(15.0)),
    ("Unlimited", Budget::Unlimited),
];

pub mod obs_report;
pub mod timing;

/// Prints a markdown-ish table row.
pub fn row(cells: &[String]) -> String {
    cells.join(" | ")
}

/// The number under top-level `key` of a committed `BENCH_*.json`
/// baseline, as the `--check` gates of `bench_probe`, `bench_table`
/// and `fleet_bench` read it. `None` if the text is not JSON or the
/// member is absent or not a number.
pub fn baseline_number(json: &str, key: &str) -> Option<f64> {
    cisa_serve::json::parse(json).ok()?.get(key)?.as_f64()
}

/// Formats a ratio as a percentage delta.
pub fn pct(x: f64) -> String {
    format!("{:+.1}%", (x - 1.0) * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_is_workspace_relative() {
        let d = results_dir();
        assert!(d.ends_with("results"));
    }

    #[test]
    fn budget_axes_match_paper() {
        assert_eq!(POWER_BUDGETS.len(), 4);
        assert_eq!(AREA_BUDGETS.len(), 4);
        assert!(matches!(SINGLE_THREAD_POWER_BUDGETS[0].1, Budget::PeakPower(p) if p == 5.0));
    }

    /// Every key a `--check` gate reads parses to a finite number in
    /// its committed baseline.
    #[test]
    fn committed_baselines_carry_every_gated_key() {
        let gated: [(&str, &[&str]); 3] = [
            ("BENCH_probe.json", &["speedup"]),
            ("BENCH_table.json", &["speedup"]),
            (
                "BENCH_fleet.json",
                &[
                    "migration_aware_edp_gain",
                    "migration_aware_p99_slowdown_gain",
                ],
            ),
        ];
        let root = results_dir()
            .parent()
            .expect("workspace root")
            .to_path_buf();
        for (file, keys) in gated {
            let text = std::fs::read_to_string(root.join(file)).expect(file);
            for key in keys {
                let v = baseline_number(&text, key);
                assert!(v.is_some_and(f64::is_finite), "{file}: {key} = {v:?}");
            }
        }
        assert_eq!(baseline_number("{\"a\": 1}", "b"), None);
        assert_eq!(baseline_number("not json", "a"), None);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(1.176), "+17.6%");
        assert_eq!(pct(0.9), "-10.0%");
    }
}
