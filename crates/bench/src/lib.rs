//! # cisa-bench: the experiment harness
//!
//! One binary per table and figure of the paper's evaluation section
//! (see DESIGN.md's experiment index), all building the
//! (phase x design-point) performance table through one shared probe
//! cache so the expensive probing pass runs once. The searches and
//! printers the binaries share live here once: the (organization x
//! budget) grid, the Figure 9-11 sensitivity sweep, and the table
//! printers.
//!
//! Run any experiment with `cargo run --release -p cisa-bench --bin
//! <experiment>`; the first run fills the probe cache in
//! `results/cache/`.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::path::PathBuf;

use cisa_explore::multicore::{search, Budget, CoreChoice, Evaluator, Objective, SearchResult};
use cisa_explore::{
    candidates, constrained_candidates, par_map, probes_run, search_system,
    sensitivity_constraints, DesignSpace, PerfTable, SweepRunner, SystemKind,
};
use cisa_workloads::{all_benchmarks, all_phases};

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

/// The experiment harness: design space + shared sweep runner +
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
    /// Builds the table over all phases (parallel across
    /// `CISA_THREADS` workers, through the probe cache in
    /// `results/cache/`: expensive on the first run, a fast rebuild
    /// from cached probes on every later one).
    pub fn load() -> Self {
        let space = DesignSpace::new();
        let cache_dir = results_dir().join("cache");
        let runner = SweepRunner::from_env(&cache_dir);
        let started = std::time::Instant::now();
        let probes_before = probes_run();
        let (table, report) = PerfTable::build(&space, &all_phases(), &runner);
        let (hits, misses, _) = runner.cache().map_or((0, 0, 0), |c| c.stats());
        if misses > 0 {
            // A cache miss is either probed or served by codegen dedup.
            eprintln!(
                "[harness] built perf table ({} phases x {} designs) in {:.1}s \
                 on {} threads ({hits} cached, {} probed, {} dedup hits) -> {}",
                table.n_phases,
                space.len(),
                started.elapsed().as_secs_f64(),
                runner.threads(),
                probes_run() - probes_before,
                runner.dedup_hits(),
                cache_dir.display()
            );
        }
        if !report.is_clean() {
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

    /// The (organization x budget) search grid of Figures 5-8, Tables
    /// III-IV and Figure 15: one [`search_system`] per cell, swept on
    /// the shared runner. Cells are row-major: `(kinds[k], budgets[b])`
    /// is at `k * budgets.len() + b`; `None` marks an infeasible cell.
    pub fn search_grid(
        &self,
        eval: &Evaluator<'_>,
        kinds: &[SystemKind],
        objective: Objective,
        budgets: &[(&str, Budget)],
    ) -> Vec<Option<SearchResult>> {
        let grid: Vec<(SystemKind, Budget)> = kinds
            .iter()
            .flat_map(|&kind| budgets.iter().map(move |&(_, budget)| (kind, budget)))
            .collect();
        par_map(&grid, self.runner.threads(), |&(kind, budget)| {
            search_system(eval, kind, objective, budget)
        })
    }

    /// The sensitivity study of Figures 9-11: multiprogrammed
    /// throughput at 48mm2, first over every composite design
    /// (`"unconstrained"`), then under each of the ten
    /// [`sensitivity_constraints`]. `None` marks an infeasible row.
    pub fn sensitivity_sweep(&self, eval: &Evaluator<'_>) -> Vec<(String, Option<SearchResult>)> {
        let mut rows = vec![(
            "unconstrained".to_string(),
            candidates(&self.space, SystemKind::CompositeFull),
        )];
        rows.extend(
            sensitivity_constraints()
                .into_iter()
                .map(|(name, c)| (name, constrained_candidates(&self.space, &c))),
        );
        let results = par_map(&rows, self.runner.threads(), |(_, cands)| {
            search(eval, cands, Objective::Throughput, Budget::Area(48.0))
        });
        rows.into_iter()
            .map(|(name, _)| name)
            .zip(results)
            .collect()
    }
}

/// Prints a labelled (organization x budget) table of a
/// [`Harness::search_grid`] over [`SystemKind::ALL`]: a header of budget
/// names, then one row per organization. `cell(result, homogeneous)`
/// gives a cell's value from its search result and the homogeneous
/// result at the same budget; `None` prints as `-`.
pub fn print_grid(
    budgets: &[(&str, Budget)],
    grid: &[Option<SearchResult>],
    cell: impl Fn(&Option<SearchResult>, &Option<SearchResult>) -> Option<f64>,
) {
    let header: Vec<String> = budgets.iter().map(|(n, _)| format!("{n:>10}")).collect();
    println!("{:<50} {}", "design", header.join(" "));
    let homogeneous = &grid[..budgets.len()];
    for (kind, row) in SystemKind::ALL.iter().zip(grid.chunks(budgets.len())) {
        let cells: Vec<String> = row
            .iter()
            .zip(homogeneous)
            .map(|(r, h)| match cell(r, h) {
                Some(v) => format!("{v:>10.3}"),
                None => format!("{:>10}", "-"),
            })
            .collect();
        println!("{:<50} {}", kind.label(), cells.join(" "));
    }
}

/// Prints the composite compositions of Tables III-IV, one block per
/// [`POWER_BUDGETS`] entry: each core with its peak power and area,
/// then the line `closing` renders for the chip.
pub fn print_compositions(
    eval: &Evaluator<'_>,
    results: &[Option<SearchResult>],
    closing: impl Fn(&SearchResult) -> String,
) {
    for ((name, _), result) in POWER_BUDGETS.iter().zip(results) {
        println!("\nPeak Power Budget: {name}");
        match result {
            Some(r) => {
                for (i, c) in r.cores.iter().enumerate() {
                    let (area, power) = eval.budget(c);
                    println!(
                        "  core {i}: {:<55} {power:>5.1} W {area:>5.1} mm2",
                        c.describe(eval.space)
                    );
                }
                println!("  {}", closing(r));
            }
            None => println!("  infeasible"),
        }
    }
}

/// The label Figures 12-13 attribute a core's time to: its feature
/// set, or its vendor's name for a vendor-ISA core.
pub fn feature_label(core: &CoreChoice, space: &DesignSpace) -> String {
    match core {
        CoreChoice::Vendor(v, _) => v.to_string(),
        CoreChoice::Composite(_) => core.config(space).fs.to_string(),
    }
}

/// Prints each benchmark's execution-time share per label (Figures
/// 12-13), largest first. `time_by[b]` holds the cycles benchmark `b`
/// (an index into `eval.bench_phases`) spent under each label;
/// benchmarks that never ran are skipped.
pub fn print_time_shares(eval: &Evaluator<'_>, time_by: &[BTreeMap<String, f64>]) {
    let benchmarks = all_benchmarks();
    for (b, times) in time_by.iter().enumerate() {
        let total: f64 = times.values().sum();
        if total == 0.0 {
            continue;
        }
        let mut shares: Vec<(&String, f64)> =
            times.iter().map(|(l, t)| (l, 100.0 * t / total)).collect();
        shares.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite share"));
        let s: Vec<String> = shares
            .iter()
            .map(|(l, pc)| format!("{l} {pc:.0}%"))
            .collect();
        let bench = benchmarks[eval.bench_ids[b] as usize].name;
        println!("  {:<12} {}", bench, s.join(", "));
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

pub mod ledger;
pub mod migration;
pub mod obs_report;
pub mod timing;

/// Sends one HTTP/1.1 request over a keep-alive `stream` and reads
/// its `Content-Length`-framed response (one request in flight);
/// returns the status code. Panics if the peer closes mid-response or
/// the head is malformed: the bench clients talk only to an in-process
/// server.
pub fn request(stream: &mut (impl Read + Write), method: &str, target: &str, body: &str) -> u16 {
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body.as_bytes()).expect("write body");
    let mut data = Vec::with_capacity(4096);
    let mut chunk = [0u8; 8192];
    let mut fill = |data: &mut Vec<u8>| {
        let n = stream.read(&mut chunk).expect("read response");
        assert!(n > 0, "server closed mid-response");
        data.extend_from_slice(&chunk[..n]);
    };
    let head_end = loop {
        fill(&mut data);
        if let Some(pos) = data.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
    };
    let head = std::str::from_utf8(&data[..head_end]).expect("UTF-8 head");
    let status = head.split(' ').nth(1).and_then(|s| s.parse().ok());
    let content_length: Option<usize> = head.lines().find_map(|l| {
        let l = l.to_ascii_lowercase();
        l.strip_prefix("content-length:")?.trim().parse().ok()
    });
    while data.len() < head_end + content_length.expect("content-length") {
        fill(&mut data);
    }
    status.expect("status line")
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
}
