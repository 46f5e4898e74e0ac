//! Acceptance tests for the sweep engine: parallel execution must be
//! bit-identical to serial execution, and a warm cache must eliminate
//! probing entirely.

use cisa_explore::profile::probes_run;
use cisa_explore::{
    DesignId, DesignSpace, FaultPlan, PerfTable, PhasePerf, ProfileCache, SweepRunner,
};
use cisa_isa::VendorIsa;
use cisa_workloads::all_phases;
use std::path::PathBuf;
use std::sync::Mutex;

/// The global probe counter is process-wide; tests that measure deltas
/// must not run concurrently with other probing tests.
static PROBE_COUNTER: Mutex<()> = Mutex::new(());

/// A unique scratch directory per test (no timestamps: pid + name).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cisa-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bits(profiles: &[cisa_explore::profile::PhaseProfile]) -> Vec<u64> {
    profiles
        .iter()
        .flat_map(|p| p.to_values().map(f64::to_bits))
        .collect()
}

/// Asserts two tables are bit-identical: same shape and phase rows, and
/// every composite and vendor entry equal by `to_bits()`.
fn assert_same_table(a: &PerfTable, b: &PerfTable, what: &str) {
    assert_eq!(
        (a.n_ua, a.n_fs, a.n_phases),
        (b.n_ua, b.n_fs, b.n_phases),
        "{what}: shape"
    );
    assert_eq!(a.phase_benchmarks, b.phase_benchmarks, "{what}: phase rows");
    let bits = |p: PhasePerf| (p.cycles_per_unit.to_bits(), p.energy_per_unit.to_bits());
    for pi in 0..a.n_phases {
        for fs in 0..a.n_fs as u16 {
            for ua in 0..a.n_ua as u16 {
                let id = DesignId { fs, ua };
                assert_eq!(
                    bits(a.get(pi, id)),
                    bits(b.get(pi, id)),
                    "{what}: {pi} {id:?}"
                );
            }
        }
        for v in VendorIsa::ALL {
            for ua in 0..a.n_ua {
                let (x, y) = (a.vendor(pi, v, ua), b.vendor(pi, v, ua));
                assert_eq!(bits(x), bits(y), "{what}: {pi} {v:?} ua {ua}");
            }
        }
    }
}

#[test]
fn parallel_probe_sweep_is_bit_identical_to_serial() {
    let _guard = PROBE_COUNTER.lock().unwrap();
    let phases: Vec<_> = all_phases().into_iter().take(3).collect();
    let space = DesignSpace::new();
    let fs: Vec<_> = space.feature_sets.iter().copied().take(5).collect();

    let serial = SweepRunner::new(1).profile_grid(&phases, &fs);
    for t in [2, 4, 7] {
        let parallel = SweepRunner::new(t).profile_grid(&phases, &fs);
        assert_eq!(
            bits(&serial),
            bits(&parallel),
            "profile grid must be bit-identical at {t} threads"
        );
    }
}

#[test]
fn parallel_table_build_is_bit_identical_to_serial() {
    let _guard = PROBE_COUNTER.lock().unwrap();
    let phases: Vec<_> = all_phases().into_iter().take(2).collect();
    let space = DesignSpace::new();
    let (serial, _) = PerfTable::build(&space, &phases, &SweepRunner::new(1));
    let (parallel, _) = PerfTable::build(&space, &phases, &SweepRunner::new(4));
    assert_same_table(&serial, &parallel, "4 threads vs 1");
}

#[test]
fn warm_cache_rerun_does_zero_probes() {
    let _guard = PROBE_COUNTER.lock().unwrap();
    let dir = scratch("warm-cache");
    let phases: Vec<_> = all_phases().into_iter().take(2).collect();
    let space = DesignSpace::new();
    let fs: Vec<_> = space.feature_sets.iter().copied().take(4).collect();

    // Codegen dedup means a cold run probes once per unique (phase,
    // compiled-code fingerprint), not once per (phase, feature set)
    // pair — feature sets that compile a phase to identical code share
    // one probe.
    let unique_codegens: std::collections::HashSet<(String, u64)> = phases
        .iter()
        .flat_map(|p| {
            fs.iter().map(|f| {
                let code = cisa_compiler::compile(
                    &cisa_workloads::generate(p),
                    f,
                    &cisa_compiler::CompileOptions::default(),
                )
                .unwrap();
                (p.fingerprint(), cisa_explore::codegen_fingerprint(&code))
            })
        })
        .collect();

    let cold_runner = SweepRunner::new(2).with_cache(ProfileCache::new(&dir));
    let before = probes_run();
    let cold = cold_runner.profile_grid(&phases, &fs);
    let cold_probes = probes_run() - before;
    assert_eq!(
        cold_probes,
        unique_codegens.len() as u64,
        "cold run must probe every unique (phase, codegen) once"
    );
    assert_eq!(
        cold_runner.dedup_hits(),
        (phases.len() * fs.len()) as u64 - cold_probes,
        "every deduped pair must be answered from the dedup map"
    );

    // A fresh runner over the same cache directory: every pair must be
    // served from disk without running a single probe.
    let warm_runner = SweepRunner::new(2).with_cache(ProfileCache::new(&dir));
    let before = probes_run();
    let warm = warm_runner.profile_grid(&phases, &fs);
    let warm_probes = probes_run() - before;
    assert_eq!(
        warm_probes, 0,
        "warm run must be served entirely from cache"
    );
    assert_eq!(
        bits(&cold),
        bits(&warm),
        "cached profiles must be bit-identical to freshly probed ones"
    );
    let (hits, misses, _) = warm_runner.cache().unwrap().stats();
    assert_eq!((hits, misses), ((phases.len() * fs.len()) as u64, 0));

    let _ = std::fs::remove_dir_all(&dir);
}

/// A fault plan with 5% stream corruption, 5% record poisoning and two
/// forced worker panics. The table build must complete, report exactly
/// the corrupted and poisoned items, absorb the transient panics
/// through retry, and keep every surviving row bit-identical to a
/// fault-free build. The faulted runner writes through a probe cache,
/// and a clean runner over the same directory must then build a clean
/// table bit-identical to the fault-free one: a faulted sweep cannot
/// poison the cache every later build reads.
#[test]
fn faulted_table_build_degrades_gracefully_and_reports_exactly() {
    let _guard = PROBE_COUNTER.lock().unwrap();
    let dir = scratch("faulted-build");
    let phases: Vec<_> = all_phases().into_iter().take(2).collect();
    let space = DesignSpace::new();
    let n_fs = space.feature_sets.len();
    let n_items = phases.len() * n_fs;

    let (base, base_report) = PerfTable::build(&space, &phases, &SweepRunner::new(2));
    assert!(base_report.is_clean(), "{}", base_report.summary());
    assert_eq!(base_report.attempted, n_items);

    // The corruption and poison decisions are per-index and
    // content-independent, so the expected faulted set can be derived
    // from the plan itself.
    let plan = FaultPlan::new(0xFA_0715)
        .with_stream_corruption(0.05)
        .with_record_poison(0.05);
    let corrupted: Vec<usize> = (0..n_items)
        .filter(|&i| plan.corrupt_stream(i, &mut vec![0xA5u8; 16]).is_some())
        .collect();
    assert!(
        !corrupted.is_empty() && corrupted.len() <= n_items / 4,
        "seed must corrupt some but not most items: {corrupted:?}"
    );
    // Poison is checked after the probe, so only items whose stream
    // survived reach it; the seed must poison at least one of those.
    let poisoned: Vec<usize> = (0..n_items)
        .filter(|&i| plan.poison_record(i, &mut [0.0; 4]).is_some())
        .collect();
    assert!(
        poisoned.iter().any(|i| !corrupted.contains(i)),
        "seed must poison an item the stream check passes: {poisoned:?}"
    );
    // Both faults persist across retries: the failed set is their union.
    let failed: Vec<usize> = (0..n_items)
        .filter(|i| corrupted.contains(i) || poisoned.contains(i))
        .collect();
    // Force panics on two items no persistent fault touches, so the
    // fault kinds exercise disjoint recovery paths.
    let panics: Vec<usize> = (0..n_items)
        .filter(|i| !failed.contains(i))
        .take(2)
        .collect();
    let runner = SweepRunner::new(2)
        .with_cache(ProfileCache::new(&dir))
        .with_faults(plan.with_forced_panics(&panics));
    let (faulted, report) = PerfTable::build(&space, &phases, &runner);

    // Exact accounting: corrupted and poisoned items fail after
    // exhausting retries, panicked items retry once and succeed.
    assert_eq!(report.attempted, n_items);
    assert_eq!(report.failed_indices(), failed);
    assert_eq!(report.retried, failed.len() + panics.len());
    for e in &report.failed {
        assert_eq!(e.attempts, SweepRunner::DEFAULT_MAX_ATTEMPTS, "{e}");
        assert!(e.message.contains("injected fault"), "{e}");
    }

    // Surviving rows bit-identical; failed cells stay at the zero
    // default, detectable by cycles_per_unit == 0.
    for pi in 0..phases.len() {
        for fi in 0..n_fs {
            let failed = failed.contains(&(pi * n_fs + fi));
            for ua in 0..space.microarchs.len() as u16 {
                let id = DesignId { fs: fi as u16, ua };
                let (f, b) = (faulted.get(pi, id), base.get(pi, id));
                if failed {
                    assert_eq!(f.cycles_per_unit, 0.0, "failed cell must stay zeroed");
                    assert_eq!(f.energy_per_unit, 0.0, "failed cell must stay zeroed");
                } else {
                    assert_eq!(f.cycles_per_unit.to_bits(), b.cycles_per_unit.to_bits());
                    assert_eq!(f.energy_per_unit.to_bits(), b.energy_per_unit.to_bits());
                }
            }
        }
    }

    let clean_runner = SweepRunner::new(2).with_cache(ProfileCache::new(&dir));
    let (rebuilt, report) = PerfTable::build(&space, &phases, &clean_runner);
    assert!(report.is_clean(), "{}", report.summary());
    assert_same_table(&rebuilt, &base, "clean rebuild over the faulted cache");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Torn cache writes: a runner that tears every entry it stores still
/// builds a clean table (the tear lands after the probe), and a clean
/// runner over the same directory reads every torn entry as a miss,
/// re-probes it, and produces a table bit-identical to a cacheless
/// build.
#[test]
fn torn_cache_entries_are_reprobed_byte_identically() {
    let _guard = PROBE_COUNTER.lock().unwrap();
    let phases: Vec<_> = all_phases().into_iter().take(1).collect();
    let space = DesignSpace::new();
    let n_items = (phases.len() * space.feature_sets.len()) as u64;
    let dir = scratch("torn-cache");
    let (base, _) = PerfTable::build(&space, &phases, &SweepRunner::new(2));

    let tearing = SweepRunner::new(2)
        .with_cache(ProfileCache::new(&dir))
        .with_faults(FaultPlan::new(0x7EA2).with_cache_tearing(1.0));
    let before = probes_run();
    let (cold, report) = PerfTable::build(&space, &phases, &tearing);
    let cold_probes = probes_run() - before;
    assert!(report.is_clean(), "{}", report.summary());
    assert_eq!(tearing.cache().unwrap().stats(), (0, n_items, n_items));

    let warm_runner = SweepRunner::new(2).with_cache(ProfileCache::new(&dir));
    let before = probes_run();
    let (warm, report) = PerfTable::build(&space, &phases, &warm_runner);
    assert!(report.is_clean(), "{}", report.summary());
    assert_eq!(
        warm_runner.cache().unwrap().stats(),
        (0, n_items, n_items),
        "every torn entry must read as a miss and be re-stored"
    );
    assert_eq!(
        probes_run() - before,
        cold_probes,
        "every torn entry must be re-probed"
    );

    assert_same_table(&cold, &base, "cold");
    assert_same_table(&warm, &base, "warm");
    let _ = std::fs::remove_dir_all(&dir);
}

/// An armed-but-inert fault plan (no rates, no panic items) must leave
/// the build bit-identical to a runner with no plan at all — the
/// fault machinery costs nothing on the fault-free path.
#[test]
fn inert_fault_plan_build_is_byte_identical() {
    let _guard = PROBE_COUNTER.lock().unwrap();
    let phases: Vec<_> = all_phases().into_iter().take(1).collect();
    let space = DesignSpace::new();
    let (plain, _) = PerfTable::build(&space, &phases, &SweepRunner::new(2));
    let armed_runner = SweepRunner::new(2).with_faults(FaultPlan::new(7));
    let (armed, report) = PerfTable::build(&space, &phases, &armed_runner);
    assert!(report.is_clean(), "{}", report.summary());
    assert_eq!(report.retried, 0);
    assert_same_table(&armed, &plain, "inert fault plan");
}
