//! Acceptance tests for the sweep engine: parallel execution must be
//! bit-identical to serial execution, and a warm cache must eliminate
//! probing entirely.

use cisa_explore::profile::probes_run;
use cisa_explore::{DesignId, DesignSpace, FaultPlan, PerfTable, ProfileCache, SweepRunner};
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
    assert_eq!(serial.n_phases, parallel.n_phases);

    // Compare through the on-disk format: byte-identical tables.
    let dir = scratch("table-determinism");
    std::fs::create_dir_all(&dir).unwrap();
    serial.save(&dir.join("serial.bin")).unwrap();
    parallel.save(&dir.join("parallel.bin")).unwrap();
    let a = std::fs::read(dir.join("serial.bin")).unwrap();
    let b = std::fs::read(dir.join("parallel.bin")).unwrap();
    assert_eq!(a, b, "table bytes must not depend on thread count");
    let _ = std::fs::remove_dir_all(&dir);
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
/// fault-free build.
#[test]
fn faulted_table_build_degrades_gracefully_and_reports_exactly() {
    let _guard = PROBE_COUNTER.lock().unwrap();
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
    let runner = SweepRunner::new(2).with_faults(plan.with_forced_panics(&panics));
    let (faulted, report) = PerfTable::build(&space, &phases, &runner);

    // Exact accounting: corrupted and poisoned items fail after
    // exhausting retries, panicked items retry once and succeed.
    assert_eq!(report.attempted, n_items);
    assert_eq!(report.failed_indices(), failed);
    assert_eq!(report.retried, failed.len() + panics.len());
    for e in &report.failed {
        assert_eq!(e.attempts, runner.retries(), "{e}");
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
}

/// Torn cache writes: a runner that tears every entry it stores still
/// builds a clean table (the tear lands after the probe), and a clean
/// runner over the same directory reads every torn entry as a miss,
/// re-probes it, and produces a table byte-identical to a cacheless
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

    std::fs::create_dir_all(&dir).unwrap();
    for (name, table) in [("base", &base), ("cold", &cold), ("warm", &warm)] {
        table.save(&dir.join(format!("{name}.bin"))).unwrap();
    }
    let base_bytes = std::fs::read(dir.join("base.bin")).unwrap();
    for name in ["cold", "warm"] {
        let bytes = std::fs::read(dir.join(format!("{name}.bin"))).unwrap();
        assert_eq!(bytes, base_bytes, "{name} table must match the base");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An armed-but-inert fault plan (no rates, no panic items) must leave
/// the build byte-identical to a runner with no plan at all — the
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

    let dir = scratch("inert-plan-identity");
    std::fs::create_dir_all(&dir).unwrap();
    plain.save(&dir.join("plain.bin")).unwrap();
    armed.save(&dir.join("armed.bin")).unwrap();
    let a = std::fs::read(dir.join("plain.bin")).unwrap();
    let b = std::fs::read(dir.join("armed.bin")).unwrap();
    assert_eq!(a, b, "inert fault plan must not perturb table bytes");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A table with failed cells is never persisted: `load_or_build` on a
/// faulted runner reports the failures and leaves `path` absent; a
/// clean runner then builds and writes the table, and a third call is
/// served from disk without probing. The space is narrowed to one
/// feature set so the all-phase build stays cheap.
#[test]
fn load_or_build_never_persists_a_faulted_table() {
    let _guard = PROBE_COUNTER.lock().unwrap();
    let mut space = DesignSpace::new();
    let n_ua = space.microarchs.len();
    space.feature_sets.truncate(1);
    space.budgets.truncate(n_ua);
    space.peak_w.truncate(n_ua);
    let dir = scratch("load-or-build-faults");
    let path = dir.join("perf_table.bin");

    let plan = FaultPlan::new(0x15A_F422).with_stream_corruption(0.1);
    let faulted_runner = SweepRunner::new(2).with_faults(plan);
    let (_, report) = PerfTable::load_or_build(&space, &path, &faulted_runner);
    let report = report.expect("a cold call builds");
    assert!(!report.failed.is_empty(), "{}", report.summary());
    assert!(!path.exists(), "a faulted table must not be written");

    let (built, report) = PerfTable::load_or_build(&space, &path, &SweepRunner::new(2));
    let report = report.expect("nothing on disk yet, so the call builds");
    assert!(report.is_clean(), "{}", report.summary());
    assert!(path.exists(), "a clean table is written");

    let before = probes_run();
    let (loaded, report) = PerfTable::load_or_build(&space, &path, &SweepRunner::new(2));
    assert!(report.is_none(), "the third call loads from disk");
    assert_eq!(probes_run(), before, "loading must not probe");
    for pi in 0..built.n_phases {
        for ua in 0..n_ua as u16 {
            let id = DesignId { fs: 0, ua };
            let (l, b) = (loaded.get(pi, id), built.get(pi, id));
            assert_eq!(l.cycles_per_unit.to_bits(), b.cycles_per_unit.to_bits());
            assert_eq!(l.energy_per_unit.to_bits(), b.energy_per_unit.to_bits());
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
