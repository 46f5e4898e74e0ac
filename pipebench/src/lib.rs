//! End-to-end and per-layer benchmark of the composite-ISA pipeline.
//!
//! Three workloads, each driven from one process through the
//! workspace crates' public entry points:
//!
//! * [`probe_sweep`] — cold design-space probing (`compiler`,
//!   `explore::{profile,runner,table}`, `sim` calibration);
//! * [`fleet_sim`] — the datacenter scheduler (`fleet::sim` event loop,
//!   with `explore::multicore` search and `analyze` in set-up);
//! * [`serve_mix`] — the affinity service under a read/refine mix
//!   (`serve`, `explore::{store,profile}`).
//!
//! An untraced run ([`Mode::Untraced`]) switches the program's own
//! `cisa-obs` recording off and reports the end-to-end metrics. A
//! traced run ([`Mode::Traced`]) turns recording on, opens `cisa-obs`
//! spans around the calls into each layer from this crate and reports
//! the per-layer metrics, including what tracing itself costs. See the
//! package README for the metric catalogue.

pub mod fleet_sim;
pub mod probe_sweep;
pub mod serve_mix;

use std::collections::BTreeMap;
use std::time::Instant;

use cisa_explore::{DesignId, DesignSpace, PerfTable, SweepRunner};
use cisa_workloads::PhaseSpec;

/// Whether a run reports end-to-end metrics (program tracing off) or
/// per-layer metrics (tracing on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// End-to-end run: `cisa-obs` recording disabled, no benchmark spans.
    Untraced,
    /// Per-layer run: `cisa-obs` recording and benchmark spans enabled.
    Traced,
}

/// Everything one workload run needs besides its scale.
#[derive(Debug, Clone, Copy)]
pub struct RunCtx {
    /// Workload seed: the same seed generates the same inputs.
    pub seed: u64,
    /// Untraced or traced.
    pub mode: Mode,
    /// Process start, the origin of the first set-up's time.
    pub started: Instant,
    /// Deliberately corrupt the output of this op before its check
    /// (benchmark self-test only).
    pub corrupt_op: Option<usize>,
}

impl RunCtx {
    /// A context for `seed` in `mode`, timed from now.
    pub fn new(seed: u64, mode: Mode) -> Self {
        RunCtx {
            seed,
            mode,
            started: Instant::now(),
            corrupt_op: None,
        }
    }

    /// Whether this run is traced.
    pub fn traced(&self) -> bool {
        self.mode == Mode::Traced
    }
}

/// One timed operation: its host latency and whether it passed its
/// correctness check.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Host latency in milliseconds.
    pub ms: f64,
    /// Whether the op's output passed its check.
    pub ok: bool,
}

/// What a workload run measured, before it is reduced to metrics.
#[derive(Debug, Default)]
pub struct Run {
    /// Host seconds of each set-up; the first counts from process start.
    pub setups_s: Vec<f64>,
    /// Every attempted op, in schedule order.
    pub ops: Vec<Op>,
    /// Work units completed over the timed phase.
    pub work_units: f64,
    /// Host seconds of the timed phase.
    pub timed_s: f64,
    /// Per-layer metrics (traced runs only).
    pub layers: Layers,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Run {
    /// Ops that failed their check.
    pub fn failed(&self) -> u64 {
        self.ops.iter().filter(|o| !o.ok).count() as u64
    }
}

/// Per-layer metrics by name; their units are in [`PER_LAYER`].
#[derive(Debug, Default, Clone)]
pub struct Layers(pub BTreeMap<String, f64>);

impl Layers {
    /// Records `name = value`.
    pub fn set(&mut self, name: &str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not in PER_LAYER"
        );
        self.0.insert(name.to_string(), value);
    }
}

/// Every per-layer metric the benchmark reports, with its unit. A
/// traced run prints all of them; a layer the workload does not
/// exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("compiler.compile_ms", "ms"),
    ("explore.profile.arena_ms", "ms"),
    ("explore.profile.measure_ms", "ms"),
    ("explore.profile.calibrate_ms", "ms"),
    ("explore.profile.fit_ms", "ms"),
    ("explore.runner.probes_run", "count"),
    ("explore.runner.dedup_hits", "count"),
    ("explore.runner.dedup_ratio", "ratio"),
    ("explore.table.build_s", "s"),
    ("explore.table.fill_ms", "ms"),
    ("explore.multicore.search_s", "s"),
    ("fleet.migration.matrix_s", "s"),
    ("fleet.sim.static_random_s", "s"),
    ("fleet.sim.affinity_greedy_s", "s"),
    ("fleet.sim.migration_aware_s", "s"),
    ("fleet.migrations.static_random", "count"),
    ("fleet.migrations.affinity_greedy", "count"),
    ("fleet.migrations.migration_aware", "count"),
    ("fleet.cap_blocked.static_random", "count"),
    ("fleet.cap_blocked.affinity_greedy", "count"),
    ("fleet.cap_blocked.migration_aware", "count"),
    ("fleet.cap_blocked_per_completion.static_random", "ratio"),
    ("fleet.cap_blocked_per_completion.affinity_greedy", "ratio"),
    ("fleet.cap_blocked_per_completion.migration_aware", "ratio"),
    ("serve.table_p50_ms", "ms"),
    ("serve.cached_p50_ms", "ms"),
    ("serve.designs_p50_ms", "ms"),
    ("serve.read_tail_ms", "ms"),
    ("serve.refined_p50_ms", "ms"),
    ("serve.refine_ms", "ms"),
    ("explore.store.mem_hits", "count"),
    ("explore.store.misses", "count"),
    ("explore.store.hit_ratio", "ratio"),
    ("bench.setup_self_s", "s"),
    ("bench.trace_overhead_frac", "ratio"),
];

/// Every end-to-end metric, with its unit, in report order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
];

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Median of `v` (mean of the two middle values for even lengths).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The highest percentile of a sample with at least [`TAIL_BEYOND`]
/// samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at that percentile.
    pub value: f64,
    /// The percentile (0..100) its rank corresponds to.
    pub percentile: f64,
    /// Sample count it was taken from.
    pub n: usize,
}

/// The `(TAIL_BEYOND + 1)`-th largest of `v`, or `None` when `v` has
/// too few samples for that to lie at or above the median.
pub fn tail(v: &[f64]) -> Option<Tail> {
    let n = v.len();
    if n < 2 * TAIL_BEYOND + 1 {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = n - 1 - TAIL_BEYOND;
    Some(Tail {
        value: s[rank],
        percentile: 100.0 * rank as f64 / (n - 1) as f64,
        n,
    })
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// SplitMix64: the benchmark's only random source, so one seed fixes
/// every generated input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated from other streams by `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// Reads the program's own `cisa-obs` span totals for every path whose
/// trailing segments equal `suffix` (spans nest under whatever root the
/// caller ran in, e.g. `sweep/item/probe/arena`): total milliseconds
/// and closed-span count.
pub fn obs_span(snap: &cisa_obs::Snapshot, suffix: &str) -> (f64, u64) {
    snap.spans()
        .filter(|(path, _)| *path == suffix || path.ends_with(&format!("/{suffix}")))
        .fold((0.0, 0), |(ms, n), (_, s)| {
            (ms + s.total_ns as f64 / 1e6, n + s.count)
        })
}

/// Mean seconds per closed span over every path ending in `suffix`
/// (0 if none closed).
pub fn obs_mean_s(snap: &cisa_obs::Snapshot, suffix: &str) -> f64 {
    let (ms, n) = obs_span(snap, suffix);
    if n == 0 {
        0.0
    } else {
        ms / 1e3 / n as f64
    }
}

/// Mean self seconds per closed span at `path`: its total minus the
/// totals of the spans opened directly inside it (0 if none closed).
pub fn obs_self_s(snap: &cisa_obs::Snapshot, path: &str) -> f64 {
    let (mut total_ns, mut children_ns, mut count) = (0u64, 0u64, 0u64);
    for (p, s) in snap.spans() {
        if p == path {
            total_ns += s.total_ns;
            count += s.count;
        } else if p
            .strip_prefix(path)
            .and_then(|rest| rest.strip_prefix('/'))
            .is_some_and(|child| !child.contains('/'))
        {
            children_ns += s.total_ns;
        }
    }
    if count == 0 {
        0.0
    } else {
        total_ns.saturating_sub(children_ns) as f64 / 1e9 / count as f64
    }
}

/// Records the program-side layer spans shared by every workload that
/// compiles and probes.
pub fn record_obs_layers(layers: &mut Layers) {
    let snap = cisa_obs::snapshot();
    layers.set("compiler.compile_ms", obs_span(&snap, "compile").0);
    for stage in ["arena", "measure", "calibrate", "fit"] {
        let v = obs_span(&snap, &format!("probe/{stage}")).0;
        layers.set(&format!("explore.profile.{stage}_ms"), v);
    }
}

/// Every entry of table row `phase` has finite cycles and energy
/// greater than zero.
pub fn table_row_ok(table: &PerfTable, phase: usize) -> bool {
    (0..table.n_fs).all(|fs| {
        (0..table.n_ua).all(|ua| {
            let e = table.get(
                phase,
                DesignId {
                    fs: fs as u16,
                    ua: ua as u16,
                },
            );
            e.cycles_per_unit.is_finite()
                && e.cycles_per_unit > 0.0
                && e.energy_per_unit.is_finite()
                && e.energy_per_unit > 0.0
        })
    })
}

/// Builds a table over `phases` from code, as the set-up of a workload
/// that serves from one: a cold probe sweep on `runner`, then the
/// batched fill. Panics if an entry is not finite and positive.
pub fn build_table(space: &DesignSpace, phases: &[PhaseSpec], runner: &SweepRunner) -> PerfTable {
    let table = {
        let _build = cisa_obs::span("explore.table.build");
        let grid = runner.profile_grid(phases, &space.feature_sets);
        let _fill = cisa_obs::span("explore.table.fill");
        PerfTable::from_profile_grid(space, phases, &grid)
    };
    for pi in 0..table.n_phases {
        assert!(
            table_row_ok(&table, pi),
            "table row {pi} is not finite and positive"
        );
    }
    table
}

/// Records the spans of [`build_table`], per recorded set-up.
pub fn record_table_layers(layers: &mut Layers, snap: &cisa_obs::Snapshot) {
    let build_s = obs_mean_s(snap, "explore.table.build");
    layers.set("explore.table.build_s", build_s);
    let fill_ms = obs_mean_s(snap, "explore.table.fill") * 1e3;
    layers.set("explore.table.fill_ms", fill_ms);
}

/// Times one closure on the host, in milliseconds.
pub fn time_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64() * 1e3)
}

/// Span path of every set-up; [`obs_self_s`] on it gives the set-up
/// time outside the named stages.
pub const SETUP_SPAN: &str = "bench.setup";

/// Runs `setup` `n` times and keeps the last result; the first set-up's
/// time counts from process start. Each earlier result is dropped
/// before the next set-up's clock starts. A traced run records the
/// last set-up, whose state the timed phase uses, inside a
/// [`SETUP_SPAN`] span.
pub fn repeat_setup<S>(ctx: &RunCtx, n: usize, mut setup: impl FnMut() -> S) -> (S, Vec<f64>) {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for i in 0..n {
        let is_last = i + 1 == n;
        if ctx.traced() && is_last {
            cisa_obs::reset();
        }
        cisa_obs::set_enabled(ctx.traced() && is_last);
        drop(last.take());
        let t = if i == 0 { ctx.started } else { Instant::now() };
        let s = {
            let _setup = cisa_obs::span(SETUP_SPAN);
            setup()
        };
        times.push(t.elapsed().as_secs_f64());
        last = Some(s);
    }
    cisa_obs::set_enabled(false);
    (last.expect("at least one set-up"), times)
}

/// Traced runs execute each op twice, untraced and traced, alternating
/// which goes first; returns the traced result and adds both
/// latencies to the overhead sums.
pub fn paired<R>(
    i: usize,
    overhead: &mut (f64, f64),
    mut op: impl FnMut(bool) -> (R, f64),
) -> (R, f64) {
    let run = |op: &mut dyn FnMut(bool) -> (R, f64), traced: bool| {
        cisa_obs::set_enabled(traced);
        let r = op(traced);
        cisa_obs::set_enabled(false);
        r
    };
    let (traced, untraced_ms) = if i.is_multiple_of(2) {
        let (_, u) = run(&mut op, false);
        (run(&mut op, true), u)
    } else {
        let t = run(&mut op, true);
        let (_, u) = run(&mut op, false);
        (t, u)
    };
    overhead.0 += traced.1;
    overhead.1 += untraced_ms;
    traced
}

/// The result object and the human-readable lines before it.
pub struct Report {
    /// Lines printed before the result.
    pub lines: Vec<String>,
    /// The one-line JSON result.
    pub json: String,
}

/// Reduces a run to its metrics. Untraced runs report [`END_TO_END`],
/// traced runs [`PER_LAYER`].
pub fn report(workload: &str, mode: Mode, run: &Run) -> Report {
    let attempted = run.ops.len() as u64;
    let failed = run.failed();
    let lat: Vec<f64> = run.ops.iter().map(|o| o.ms).collect();
    let p50 = median(&lat);
    let tail = tail(&lat);
    let error_rate = if attempted == 0 {
        1.0
    } else {
        failed as f64 / attempted as f64
    };
    let mut lines = run.notes.clone();
    let (lo, hi) = run
        .setups_s
        .iter()
        .fold((f64::INFINITY, 0.0f64), |(lo, hi), &s| {
            (lo.min(s), hi.max(s))
        });
    lines.push(format!(
        "{workload}: {} set-ups, median {:.3} ms, min {:.3} ms, max {:.3} ms",
        run.setups_s.len(),
        median(&run.setups_s) * 1e3,
        lo * 1e3,
        hi * 1e3
    ));
    lines.push(format!(
        "{workload}: {attempted} ops, {failed} failed (error_rate {error_rate}), timed phase {:.3} s",
        run.timed_s
    ));
    if let Some(t) = tail {
        lines.push(format!(
            "{workload}: latency p50 {p50:.4} ms, tail p{:.2} {:.4} ms over {} samples ({} beyond)",
            t.percentile, t.value, t.n, TAIL_BEYOND
        ));
    } else {
        lines.push(format!(
            "{workload}: {attempted} ops are too few for a tail with {TAIL_BEYOND} samples beyond"
        ));
    }
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    match mode {
        Mode::Untraced => {
            let values = [
                median(&run.setups_s),
                p50,
                tail.map_or(f64::NAN, |t| t.value),
                run.work_units / run.timed_s,
                peak_rss_mb(),
                1.0 - error_rate,
            ];
            for (&(name, unit), v) in END_TO_END.iter().zip(values) {
                metrics.push((name.to_string(), v, unit));
            }
        }
        Mode::Traced => {
            for &(name, unit) in PER_LAYER {
                let v = run.layers.0.get(name).copied().unwrap_or(0.0);
                metrics.push((name.to_string(), v, unit));
            }
        }
    }
    for (name, v, unit) in &metrics {
        lines.push(format!("  {name} = {v} {unit}"));
    }
    let correct = failed == 0 && attempted > 0 && metrics.iter().all(|(_, v, _)| v.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*v)
            )
        })
        .collect();
    let json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Report { lines, json }
}

/// A finite number in full precision, or `null`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}
