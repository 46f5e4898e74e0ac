//! Acceptance tests for the observability layer's determinism contract:
//! the deterministic snapshot form must be byte-identical regardless of
//! worker count, and fault injection must move the fault counters by
//! exactly the amounts the plan predicts.

use cisa_explore::{DesignSpace, FaultPlan, PerfTable, SweepRunner};
use cisa_workloads::all_phases;
use std::sync::Mutex;

/// The obs registry is process-global, so tests that reset and snapshot
/// it must not interleave.
static OBS_GATE: Mutex<()> = Mutex::new(());

/// Resets the registry, builds the table for the first two phases on
/// `threads` workers (no on-disk cache, so every run does identical
/// work), and returns the deterministic snapshot.
fn snapshot_for_threads(threads: usize) -> cisa_obs::Snapshot {
    let phases: Vec<_> = all_phases().into_iter().take(2).collect();
    let space = DesignSpace::new();
    cisa_obs::reset();
    let runner = SweepRunner::new(threads);
    let (_, report) = PerfTable::build(&space, &phases, &runner);
    assert!(report.is_clean(), "{}", report.summary());
    cisa_obs::snapshot()
}

#[test]
fn metric_snapshots_are_byte_identical_across_thread_counts() {
    let _guard = OBS_GATE.lock().unwrap();
    let serial = snapshot_for_threads(1);
    let parallel = snapshot_for_threads(8);

    // The deterministic form (`to_json(false)`) drops wall-clock span
    // timings and keeps everything that must not depend on scheduling:
    // counters, span counts, histogram buckets.
    assert_eq!(
        serial.to_json(false),
        parallel.to_json(false),
        "metrics must be bit-identical at CISA_THREADS=1 vs 8"
    );
    assert_eq!(serial.to_jsonl(false), parallel.to_jsonl(false));

    // Sanity: the snapshot actually captured the sweep (this guards
    // against a trivially-equal pair of empty snapshots, e.g. if the
    // layer were accidentally disabled under test).
    let phases: Vec<_> = all_phases().into_iter().take(2).collect();
    let n_items = (phases.len() * DesignSpace::new().feature_sets.len()) as u64;
    assert_eq!(serial.counter("sweep/items"), n_items);
    assert_eq!(serial.span_count("sweep/item"), n_items);
    assert_eq!(serial.counter("compile/functions"), n_items);
    assert!(
        serial.counter("sim/runs") > 0,
        "probes must reach the simulator"
    );
    assert_eq!(serial.hist_total("sweep/attempts"), n_items);
    // Codegen dedup: probes run once per unique compiled stream, the
    // rest are dedup hits; together they cover every item.
    assert_eq!(
        serial.span_count("sweep/item/probe") + serial.counter("probe/dedup_hit"),
        n_items
    );
}

#[test]
fn fault_injection_moves_counters_by_exactly_the_planned_amounts() {
    let _guard = OBS_GATE.lock().unwrap();
    let phases: Vec<_> = all_phases().into_iter().take(2).collect();
    let space = DesignSpace::new();
    let n_items = phases.len() * space.feature_sets.len();

    // The corruption decision is per-index and content-independent, so
    // the expected fault set can be derived from the plan itself
    // (mirrors runner_cache.rs's exact-accounting test).
    let plan = FaultPlan::new(0xFA_0715).with_stream_corruption(0.05);
    let corrupted: Vec<usize> = (0..n_items)
        .filter(|&i| plan.corrupt_stream(i, &mut vec![0xA5u8; 16]).is_some())
        .collect();
    assert!(!corrupted.is_empty(), "seed must corrupt at least one item");
    let panics: Vec<usize> = (0..n_items)
        .filter(|i| !corrupted.contains(i))
        .take(2)
        .collect();

    cisa_obs::reset();
    let runner = SweepRunner::new(2).with_faults(plan.with_forced_panics(&panics));
    let (_, report) = PerfTable::build(&space, &phases, &runner);
    let snap = cisa_obs::snapshot();

    // Stream corruption is persistent (keyed on the item index), so a
    // corrupted item trips the stream check once per attempt until the
    // retry budget is exhausted. Forced panics are transient (attempt 0
    // only): one panic each, then the retry succeeds.
    let attempts = u64::from(runner.retries());
    assert_eq!(
        snap.counter("fault/stream"),
        corrupted.len() as u64 * attempts,
        "stream faults fire once per attempt on each corrupted item"
    );
    assert_eq!(snap.counter("fault/panic"), panics.len() as u64);
    assert_eq!(
        snap.counter("sweep/retried"),
        (corrupted.len() + panics.len()) as u64
    );
    assert_eq!(snap.counter("sweep/failed"), corrupted.len() as u64);
    assert_eq!(snap.counter("sweep/items"), n_items as u64);
    // Fault kinds this plan does not arm must stay untouched.
    assert_eq!(snap.counter("fault/record_poison"), 0);
    assert_eq!(snap.counter("fault/cache_torn"), 0);
    // The report agrees with the counters.
    assert_eq!(report.retried as u64, snap.counter("sweep/retried"));
    assert_eq!(report.failed.len() as u64, snap.counter("sweep/failed"));
}
