//! `probe-sweep`: cold design-space probing.
//!
//! One op is one phase's row of all 26 feature sets, probed through a
//! fresh, cacheless, single-worker [`SweepRunner::profile_grid`]; one
//! work unit is one (phase, feature set) pair. Ops walk seeded
//! permutations of the corpus, one pass after another, and every pass
//! perturbs each phase's generation seed afresh, so no op repeats
//! another's input. After the timed ops the first pass's rows fill a
//! [`PerfTable`] once, and the table is checked.
//!
//! Set-up generates the inputs and probes one warm-up row, so the
//! process's first probe (lazy initialisation, cold instruction cache)
//! is set-up cost, not an op. The warm-up is also what keeps set-up
//! time steady: the inputs alone take about 0.1 ms, and at that size
//! the measurement falls into one of two modes fixed per process.

use std::time::Instant;

use cisa_explore::{probes_run, DesignSpace, PerfTable, PhaseProfile, SweepRunner};
use cisa_workloads::{all_phases, PhaseSpec};

use crate::{
    obs_self_s, paired, record_obs_layers, repeat_setup, table_row_ok, time_ms, Op, Rng, Run,
    RunCtx, SETUP_SPAN,
};

/// Rows probed per requested second, sized from measured single-core
/// row times (about 160 ms each). Runs probe whole passes over the
/// corpus, so every run's ops cover every phase equally often.
const ROWS_PER_SECOND: f64 = 6.0;

/// How much work one run does.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Corpus phases per pass (the full corpus has 49).
    pub phases: usize,
    /// Rows probed in the timed phase (whole passes over the corpus).
    pub rows: usize,
    /// Set-ups per run; set-up time is their median.
    pub setups: usize,
}

impl Scale {
    /// The scale for a run of about `seconds` seconds.
    pub fn for_seconds(seconds: u64) -> Self {
        let phases = all_phases().len();
        Scale {
            phases,
            rows: phases * (ROWS_PER_SECOND * seconds as f64 / phases as f64).ceil() as usize,
            setups: 9,
        }
    }
}

/// The inputs of one run: the design space and, per pass, the
/// seed-perturbed corpus and the order its rows are probed in.
struct Inputs {
    space: DesignSpace,
    passes: Vec<(Vec<PhaseSpec>, Vec<usize>)>,
}

/// Generates the inputs and probes the warm-up row: the first corpus
/// phase, unperturbed, so every run's set-up does the same work.
fn setup(seed: u64, scale: &Scale) -> Inputs {
    let inputs = make_inputs(seed, scale);
    let warm = &all_phases()[..1];
    let row = SweepRunner::new(1).profile_grid(warm, &inputs.space.feature_sets);
    assert!(row_ok(&row), "warm-up row is not finite");
    inputs
}

fn make_inputs(seed: u64, scale: &Scale) -> Inputs {
    let base: Vec<PhaseSpec> = all_phases().into_iter().take(scale.phases).collect();
    let n_passes = scale.rows.div_ceil(scale.phases);
    let passes = (0..n_passes)
        .map(|pass| {
            let mut rng = Rng::new(seed, pass as u64);
            let corpus = base
                .iter()
                .map(|p| PhaseSpec {
                    seed: p.seed ^ rng.next_u64(),
                    ..p.clone()
                })
                .collect();
            (corpus, rng.permutation(scale.phases))
        })
        .collect();
    Inputs {
        space: DesignSpace::new(),
        passes,
    }
}

/// Every profile value is finite.
pub fn row_ok(row: &[PhaseProfile]) -> bool {
    row.iter()
        .all(|p| p.to_values().iter().all(|v| v.is_finite()))
}

/// Runs the workload at `scale`.
pub fn run(ctx: &RunCtx, scale: &Scale) -> Run {
    let (inputs, setups_s) = repeat_setup(ctx, scale.setups, || setup(ctx.seed, scale));
    let setup_self_s = obs_self_s(&cisa_obs::snapshot(), SETUP_SPAN);
    let fs = &inputs.space.feature_sets;
    let n = scale.phases;

    let mut ops = Vec::with_capacity(scale.rows);
    let mut first_pass = vec![Vec::new(); n];
    let mut first_pass_op = vec![0usize; n];
    let (mut probes, mut dedup_hits) = (0u64, 0u64);
    let mut overhead = (0.0, 0.0);
    let mut first_pass_ms = 0.0;
    // The program's span totals cover the traced ops, not the warm-up.
    cisa_obs::reset();
    let timed = Instant::now();
    for i in 0..scale.rows {
        let (corpus, order) = &inputs.passes[i / n];
        let pi = order[i % n];
        let spec = std::slice::from_ref(&corpus[pi]);
        let probe_row = |_traced: bool| {
            let before = probes_run();
            let runner = SweepRunner::new(1);
            let (row, ms) = time_ms(|| runner.profile_grid(spec, fs));
            ((row, probes_run() - before, runner.dedup_hits()), ms)
        };
        let ((mut row, row_probes, row_hits), ms) = if ctx.traced() {
            paired(i, &mut overhead, probe_row)
        } else {
            probe_row(false)
        };
        if ctx.corrupt_op == Some(i) {
            row[0] = PhaseProfile::from_values(&[f64::NAN; PhaseProfile::N_VALUES]);
        }
        probes += row_probes;
        dedup_hits += row_hits;
        let ok = row_ok(&row);
        if i < n {
            first_pass[pi] = row;
            first_pass_op[pi] = i;
            first_pass_ms += ms;
        }
        ops.push(Op { ms, ok });
    }
    let timed_s = timed.elapsed().as_secs_f64();

    // The table is filled once, after the timed phase, from the first
    // pass (every corpus phase, in corpus order).
    let grid: Vec<PhaseProfile> = first_pass.into_iter().flatten().collect();
    cisa_obs::set_enabled(ctx.traced());
    let (table, fill_ms) =
        time_ms(|| PerfTable::from_profile_grid(&inputs.space, &inputs.passes[0].0, &grid));
    cisa_obs::set_enabled(false);
    for (pi, &op) in first_pass_op.iter().enumerate() {
        if !table_row_ok(&table, pi) {
            ops[op].ok = false;
        }
    }

    let pairs = (scale.rows * fs.len()) as f64;
    let mut run = Run {
        setups_s,
        ops,
        work_units: pairs,
        timed_s,
        ..Run::default()
    };
    run.notes.push(format!(
        "probe-sweep: {} rows x {} feature sets over {} corpus phases, 1 sweep worker, \
         {probes} probes, {dedup_hits} dedup hits",
        scale.rows,
        fs.len(),
        n
    ));
    if ctx.traced() {
        let l = &mut run.layers;
        record_obs_layers(l);
        l.set("explore.runner.probes_run", probes as f64);
        l.set("explore.runner.dedup_hits", dedup_hits as f64);
        l.set("explore.runner.dedup_ratio", dedup_hits as f64 / pairs);
        l.set("explore.table.build_s", (first_pass_ms + fill_ms) / 1e3);
        l.set("explore.table.fill_ms", fill_ms);
        l.set("bench.setup_self_s", setup_self_s);
        l.set("bench.trace_overhead_frac", overhead.0 / overhead.1 - 1.0);
    }
    run
}
