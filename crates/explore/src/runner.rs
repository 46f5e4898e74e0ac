//! Shared sweep execution: thread-pool sizing, deterministic parallel
//! map, panic isolation, and cached probing.
//!
//! Every (phase, feature set) probe and every interval-model evaluation
//! is independent — the sweep is embarrassingly parallel, exactly the
//! shape the paper exploited across XSEDE nodes. This module gives the
//! whole workspace one way to run such sweeps:
//!
//! - [`threads`] — worker count, overridable with the `CISA_THREADS`
//!   environment variable (`CISA_THREADS=1` forces serial execution);
//! - [`par_map`] — a scoped-thread parallel map whose output order (and
//!   therefore every downstream result) is **identical at any thread
//!   count**;
//! - [`par_map_isolated`] — the fault-hardened variant: each item runs
//!   under `catch_unwind` with bounded retry, so a poisoned item
//!   degrades to a recorded [`ItemError`] in a [`SweepReport`] instead
//!   of killing the sweep;
//! - [`SweepRunner`] — the object the experiment binaries in
//!   `crates/bench` share: it owns the thread budget, an optional
//!   [`ProfileCache`], a [`ProbeDedup`], and an optional
//!   [`crate::faults::FaultPlan`] for robustness testing;
//! - [`ProbeDedup`] — the codegen-fingerprint probe dedup, shared by
//!   the runner and by the affinity service's online refinement.
//!
//! The build dependency budget is zero: parallelism is `std::thread`
//! scoped threads with an atomic work queue, not an external pool.

use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use cisa_compiler::{compile, CompileOptions, CompiledCode};
use cisa_isa::encoding::InstLengthDecoder;
use cisa_isa::inst::MachineInst;
use cisa_isa::{Encoder, FeatureSet};
use cisa_workloads::{generate, PhaseSpec};

use crate::cache::{fnv1a, ProfileCache};
use crate::faults::FaultPlan;
use crate::profile::{codegen_fingerprint, probe_compiled, PhaseProfile};

thread_local! {
    /// Set inside `par_map` workers so nested sweeps degrade to serial
    /// instead of oversubscribing (threads^2 explosion).
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The worker count sweeps use: the `CISA_THREADS` environment variable
/// if set to a positive integer, otherwise the machine's available
/// parallelism. Always at least 1.
pub fn threads() -> usize {
    if let Ok(v) = std::env::var("CISA_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Why one sweep item ultimately failed, after all retry attempts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemError {
    /// Index of the failing item in the sweep's input slice.
    pub index: usize,
    /// Attempts made (1 = failed first try with no retry budget left).
    pub attempts: u32,
    /// The failure: a structured error's display form, or the panic
    /// payload for isolated panics.
    pub message: String,
}

impl fmt::Display for ItemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "item {} ({} attempt{}): {}",
            self.index,
            self.attempts,
            if self.attempts == 1 { "" } else { "s" },
            self.message
        )
    }
}

/// Per-sweep fault accounting: what ran, what needed retries, what
/// ultimately failed. On the fault-free path this is all zeros and the
/// sweep output is bit-identical to the unhardened map.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepReport {
    /// Items the sweep attempted (= input length).
    pub attempted: usize,
    /// Items that needed more than one attempt (transient faults).
    pub retried: usize,
    /// Items that failed every attempt, in input order.
    pub failed: Vec<ItemError>,
}

impl SweepReport {
    /// True when nothing was retried and nothing failed.
    pub fn is_clean(&self) -> bool {
        self.retried == 0 && self.failed.is_empty()
    }

    /// Input indices of the items that failed, in order.
    pub fn failed_indices(&self) -> Vec<usize> {
        self.failed.iter().map(|e| e.index).collect()
    }

    /// One-line summary for progress/error displays.
    pub fn summary(&self) -> String {
        format!(
            "attempted {}, retried {}, failed {}",
            self.attempted,
            self.retried,
            self.failed.len()
        )
    }
}

/// Renders a panic payload for an [`ItemError`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// One finished sweep item: input index, attempts used, outcome.
type ItemOutcome<U> = (usize, u32, Result<U, String>);

/// Runs one item to completion: catch panics, retry up to
/// `max_attempts`, report the attempt count actually used.
fn run_item<T, U, F>(f: &F, item: &T, index: usize, max_attempts: u32) -> (u32, Result<U, String>)
where
    F: Fn(&T, usize, u32) -> Result<U, String> + Sync,
{
    let mut attempt = 0u32;
    loop {
        // Root span: the item records under `sweep/item` whether it runs
        // inline on the caller's thread (serial path) or on a worker, so
        // span paths — and snapshot call counts — are identical at any
        // `CISA_THREADS`. Unwinding drops the guard, keeping the stack
        // consistent across caught panics.
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let _item = cisa_obs::root_span("sweep/item");
            f(item, index, attempt)
        }));
        let err = match caught {
            Ok(Ok(v)) => return (attempt + 1, Ok(v)),
            Ok(Err(msg)) => msg,
            Err(payload) => format!("worker panic: {}", panic_message(payload)),
        };
        attempt += 1;
        if attempt >= max_attempts {
            return (attempt, Err(err));
        }
    }
}

/// Panic-isolated, retrying parallel map with deterministic output
/// order.
///
/// Each item is evaluated under `catch_unwind`; a panicking or
/// `Err`-returning item is retried (the closure sees the attempt
/// number, so fault plans can reseed per attempt) up to `max_attempts`
/// total tries. Items that fail every attempt yield `None` in the
/// output and an [`ItemError`] in the report; surviving items are
/// **bit-identical** to what a fault-free [`par_map`] would produce,
/// at any thread count.
pub fn par_map_isolated<T, U, F>(
    items: &[T],
    n_threads: usize,
    max_attempts: u32,
    f: F,
) -> (Vec<Option<U>>, SweepReport)
where
    T: Sync,
    U: Send,
    F: Fn(&T, usize, u32) -> Result<U, String> + Sync,
{
    let n = items.len();
    let max_attempts = max_attempts.max(1);
    let workers = n_threads.min(n).max(1);

    let mut results: Vec<ItemOutcome<U>> = if workers == 1 || n <= 1 || IN_WORKER.with(|w| w.get())
    {
        items
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let (attempts, r) = run_item(&f, t, i, max_attempts);
                (i, attempts, r)
            })
            .collect()
    } else {
        let next = AtomicUsize::new(0);
        let mut parts: Vec<Vec<ItemOutcome<U>>> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        IN_WORKER.with(|w| w.set(true));
                        let mut out = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            let (attempts, r) = run_item(&f, &items[i], i, max_attempts);
                            out.push((i, attempts, r));
                        }
                        IN_WORKER.with(|w| w.set(false));
                        out
                    })
                })
                .collect();
            for h in handles {
                // Workers only ever run `run_item`, which catches
                // item panics; a join failure here would mean the
                // harness itself is broken.
                parts.push(h.join().expect("isolated worker cannot panic"));
            }
        });
        parts.into_iter().flatten().collect()
    };

    // Deterministic merge: results keyed by input index.
    results.sort_by_key(|(i, _, _)| *i);
    debug_assert_eq!(results.len(), n);

    let mut report = SweepReport {
        attempted: n,
        ..SweepReport::default()
    };
    cisa_obs::counter("sweep/items", n as u64);
    let mut out = Vec::with_capacity(n);
    for (index, attempts, r) in results {
        cisa_obs::hist("sweep/attempts", u64::from(attempts));
        if attempts > 1 {
            report.retried += 1;
            cisa_obs::counter("sweep/retried", 1);
        }
        match r {
            Ok(v) => out.push(Some(v)),
            Err(message) => {
                cisa_obs::counter("sweep/failed", 1);
                report.failed.push(ItemError {
                    index,
                    attempts,
                    message,
                });
                out.push(None);
            }
        }
    }
    (out, report)
}

/// Parallel map with deterministic output order: `out[i] == f(&items[i])`
/// exactly as a serial loop would produce, regardless of worker count
/// or scheduling. Work is distributed by an atomic index queue, so
/// irregular task costs balance automatically.
///
/// Falls back to a plain serial loop when `n_threads <= 1`, when the
/// input is tiny, or when called from inside another `par_map` worker
/// (nested sweeps must not multiply the thread count).
///
/// Built on [`par_map_isolated`], so a panicking item no longer tears
/// down the thread scope mid-sweep: every other item completes first,
/// then the first failure is re-raised to preserve this function's
/// panic-propagating contract. Callers that want failures as values
/// should use [`par_map_isolated`] directly.
pub fn par_map<T, U, F>(items: &[T], n_threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let (out, report) = par_map_isolated(items, n_threads, 1, |t, _, _| Ok(f(t)));
    if let Some(e) = report.failed.first() {
        panic!("sweep worker must not panic: {e}");
    }
    out.into_iter().flatten().collect()
}

/// In-process codegen-fingerprint probe dedup.
///
/// The probe is a pure function of the phase spec and the compiled code
/// (see [`codegen_fingerprint`]), so when two feature sets compile a
/// phase to byte-identical code the second request reuses the measured
/// [`PhaseProfile`] — bit-identical to what an independent probe would
/// return — and counts a `probe/dedup_hit` instead of advancing
/// [`crate::probes_run`]. Every [`SweepRunner`] owns one for its
/// lifetime; the affinity service's online refinement makes one per
/// refined spec.
///
/// Entries are keyed by (phase fingerprint, codegen fingerprint). Each
/// cell is filled by exactly one probe; concurrent requests for the
/// same key block on the same `OnceLock`, so the probe count stays
/// deterministic at any thread count.
#[derive(Debug, Default)]
pub struct ProbeDedup {
    cells: Mutex<HashMap<u64, Arc<OnceLock<PhaseProfile>>>>,
    /// Probes answered from an already-measured fingerprint.
    hits: AtomicU64,
}

impl ProbeDedup {
    /// The profile of `code`, a compilation of `spec`: measured by
    /// [`probe_compiled`] the first time its codegen fingerprint is
    /// seen, reused (a `probe/dedup_hit`) every time after.
    pub fn probe(&self, spec: &PhaseSpec, code: &CompiledCode) -> PhaseProfile {
        let key =
            fnv1a(format!("{}|{:#x}", spec.fingerprint(), codegen_fingerprint(code)).as_bytes());
        let cell = {
            let mut map = self.cells.lock().expect("dedup map poisoned");
            Arc::clone(map.entry(key).or_default())
        };
        // Exactly one caller per key runs the probe; a panicking probe
        // (fault injection) leaves the cell empty for the retry.
        let mut ran = false;
        let p = *cell.get_or_init(|| {
            ran = true;
            probe_compiled(spec, code)
        });
        if !ran {
            self.hits.fetch_add(1, Ordering::Relaxed);
            cisa_obs::counter("probe/dedup_hit", 1);
        }
        p
    }
}

/// The shared sweep executor: thread budget + optional probe cache +
/// optional fault plan.
///
/// Experiment binaries get one from [`SweepRunner::from_env`] (threads
/// from `CISA_THREADS`, cache under the given results directory) and
/// pass it to [`crate::table::PerfTable::load_or_build`]; sweeps of
/// their own call [`par_map`] (or [`par_map_isolated`]) with
/// [`SweepRunner::threads`] (and [`SweepRunner::retries`]). Robustness
/// tests attach a
/// [`FaultPlan`] with [`SweepRunner::with_faults`]; without one, the
/// fault-checking paths collapse to the plain ones and results are
/// bit-identical to an unhardened runner.
#[derive(Debug)]
pub struct SweepRunner {
    n_threads: usize,
    cache: Option<ProfileCache>,
    faults: Option<FaultPlan>,
    dedup: ProbeDedup,
}

impl SweepRunner {
    /// The retry budget of every runner: one retry, enough to absorb
    /// any transient fault without masking persistent ones for long.
    pub const DEFAULT_MAX_ATTEMPTS: u32 = 2;

    /// A runner with an explicit thread count and no cache.
    pub fn new(n_threads: usize) -> Self {
        SweepRunner {
            n_threads: n_threads.max(1),
            cache: None,
            faults: None,
            dedup: ProbeDedup::default(),
        }
    }

    /// The standard experiment runner: thread count from `CISA_THREADS`
    /// (default: all cores) and a probe cache in `cache_dir`.
    pub fn from_env(cache_dir: impl Into<PathBuf>) -> Self {
        SweepRunner::new(threads()).with_cache(ProfileCache::new(cache_dir))
    }

    /// Attaches a probe cache.
    pub fn with_cache(mut self, cache: ProfileCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attaches a fault-injection plan (robustness testing only).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The worker count this runner uses.
    pub fn threads(&self) -> usize {
        self.n_threads
    }

    /// The attached cache, if any.
    pub fn cache(&self) -> Option<&ProfileCache> {
        self.cache.as_ref()
    }

    /// The per-item attempt budget of reported sweeps
    /// ([`DEFAULT_MAX_ATTEMPTS`](Self::DEFAULT_MAX_ATTEMPTS)).
    pub fn retries(&self) -> u32 {
        Self::DEFAULT_MAX_ATTEMPTS
    }

    /// Probes answered from the in-process dedup map instead of a full
    /// probe (two feature sets compiled a phase to identical code).
    pub fn dedup_hits(&self) -> u64 {
        self.dedup.hits.load(Ordering::Relaxed)
    }

    /// Probes one (phase, feature set) pair through the cache: load on
    /// hit, otherwise compile, probe through the runner's
    /// [`ProbeDedup`], and store. The on-disk cache stays keyed per
    /// (phase, feature set), so warm runs never need the compile step
    /// at all.
    pub fn probe(&self, spec: &PhaseSpec, fs: FeatureSet) -> PhaseProfile {
        if let Some(cache) = &self.cache {
            if let Some(p) = cache.load(spec, fs) {
                return p;
            }
        }
        let code = compile(&generate(spec), &fs, &CompileOptions::default())
            .expect("generated phases always compile");
        let p = self.dedup.probe(spec, &code);
        if let Some(cache) = &self.cache {
            cache.store(spec, fs, &p);
        }
        p
    }

    /// Fault-aware probe for reported sweeps: identical to
    /// [`SweepRunner::probe`] when no plan is attached; with one, the
    /// item's encoded stream, cache entry, profile record, and worker
    /// may each be faulted according to the plan, surfacing as an
    /// `Err` (persistent faults) or an isolated panic the caller's
    /// retry absorbs (transient faults).
    pub(crate) fn probe_checked(
        &self,
        spec: &PhaseSpec,
        fs: FeatureSet,
        index: usize,
        attempt: u32,
    ) -> Result<PhaseProfile, String> {
        let Some(plan) = self.faults.clone() else {
            return Ok(self.probe(spec, fs));
        };
        if plan.should_panic(index, attempt) {
            cisa_obs::counter("fault/panic", 1);
            panic!(
                "injected fault: worker panic (item {index}, attempt {attempt}, seed {:#x})",
                plan.seed()
            );
        }
        self.check_stream(&plan, spec, fs, index)?;
        let profile = self.probe(spec, fs);
        if let Some(cache) = &self.cache {
            if let Some(keep) = plan.tear_cache_entry(index, ProfileCache::ENTRY_BYTES) {
                cisa_obs::counter("fault/cache_torn", 1);
                cache.tear_entry(spec, fs, keep);
            }
        }
        let mut values = profile.to_values();
        if let Some(fault) = plan.poison_record(index, &mut values) {
            cisa_obs::counter("fault/record_poison", 1);
            return Err(format!(
                "injected fault: {fault} in profile record for {} on {fs}",
                spec.name()
            ));
        }
        Ok(profile)
    }

    /// Round-trips the phase's compiled instructions through the
    /// superset encoding under the plan's stream faults. A corrupted
    /// stream fails the item, carrying the decoder's structured
    /// diagnostic (instruction index, byte offset) when the corruption
    /// was detected.
    fn check_stream(
        &self,
        plan: &FaultPlan,
        spec: &PhaseSpec,
        fs: FeatureSet,
        index: usize,
    ) -> Result<(), String> {
        if !plan.streams_enabled() {
            return Ok(());
        }
        let code = compile(&generate(spec), &fs, &CompileOptions::default())
            .map_err(|e| format!("compiling {} for {fs}: {e}", spec.name()))?;
        let insts: Vec<MachineInst> = code
            .blocks
            .iter()
            .flat_map(|b| b.insts.iter().copied())
            .collect();
        let mut stream = Encoder::new(fs)
            .encode_stream(&insts)
            .map_err(|e| format!("encoding {} for {fs}: {e}", spec.name()))?;
        let Some(fault) = plan.corrupt_stream(index, &mut stream) else {
            return Ok(());
        };
        cisa_obs::counter("fault/stream", 1);
        let outcome = match InstLengthDecoder::new().decode_stream(&stream) {
            Err(e) => format!("decoder reported: {e}"),
            // A flipped immediate bit can decode structurally clean;
            // the stream still differs from the true code, so the item
            // is faulted either way.
            Ok(_) => "corruption not structurally detectable".to_string(),
        };
        Err(format!(
            "injected fault: {fault} in encoded stream for {} on {fs}; {outcome}",
            spec.name()
        ))
    }

    /// Probes the full `phases` x `feature_sets` grid in parallel.
    /// Output is row-major (`grid[p * feature_sets.len() + f]`) and
    /// identical at any thread count.
    pub fn profile_grid(
        &self,
        phases: &[PhaseSpec],
        feature_sets: &[FeatureSet],
    ) -> Vec<PhaseProfile> {
        let pairs: Vec<(usize, usize)> = (0..phases.len())
            .flat_map(|p| (0..feature_sets.len()).map(move |f| (p, f)))
            .collect();
        par_map(&pairs, self.n_threads, |&(p, f)| {
            self.probe(&phases[p], feature_sets[f])
        })
    }
}

impl Default for SweepRunner {
    /// A cacheless runner on the `CISA_THREADS`/all-cores budget.
    fn default() -> Self {
        SweepRunner::new(threads())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..997).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for t in [1, 2, 3, 8] {
            assert_eq!(par_map(&items, t, |x| x * x + 1), serial, "{t} threads");
        }
    }

    #[test]
    fn par_map_handles_degenerate_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert_eq!(par_map(&empty, 4, |x| x + 1), Vec::<u32>::new());
        assert_eq!(par_map(&[7u32], 4, |x| x + 1), vec![8]);
    }

    #[test]
    fn nested_par_map_stays_correct() {
        let outer: Vec<u32> = (0..8).collect();
        let got = par_map(&outer, 4, |&o| {
            let inner: Vec<u32> = (0..16).collect();
            par_map(&inner, 4, |&i| o * 100 + i).iter().sum::<u32>()
        });
        let want: Vec<u32> = outer
            .iter()
            .map(|&o| (0..16).map(|i| o * 100 + i).sum::<u32>())
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn runner_threads_are_positive() {
        assert!(SweepRunner::default().threads() >= 1);
        assert_eq!(SweepRunner::new(0).threads(), 1);
        assert!(threads() >= 1);
    }

    #[test]
    fn isolated_map_is_bit_identical_on_the_clean_path() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for t in [1, 2, 5] {
            let (out, report) = par_map_isolated(&items, t, 3, |x, _, _| Ok(x * 3 + 1));
            assert!(report.is_clean(), "{t} threads: {report:?}");
            assert_eq!(report.attempted, items.len());
            let got: Vec<u64> = out.into_iter().flatten().collect();
            assert_eq!(got, serial, "{t} threads");
        }
    }

    #[test]
    fn isolated_map_records_persistent_failures() {
        let items: Vec<u32> = (0..20).collect();
        let (out, report) = par_map_isolated(&items, 4, 2, |&x, _, _| {
            if x % 7 == 3 {
                Err(format!("item {x} is cursed"))
            } else {
                Ok(x * 2)
            }
        });
        assert_eq!(report.failed_indices(), vec![3, 10, 17]);
        for e in &report.failed {
            assert_eq!(e.attempts, 2, "persistent failures exhaust the budget");
            assert!(e.message.contains("cursed"));
        }
        for (i, o) in out.iter().enumerate() {
            if [3, 10, 17].contains(&i) {
                assert!(o.is_none());
            } else {
                assert_eq!(*o, Some(i as u32 * 2));
            }
        }
    }

    #[test]
    fn isolated_map_catches_panics_and_retries_transients() {
        let items: Vec<u32> = (0..12).collect();
        let (out, report) = par_map_isolated(&items, 3, 2, |&x, _, attempt| {
            if x == 5 && attempt == 0 {
                panic!("transient glitch on item {x}");
            }
            Ok(x + 100)
        });
        assert!(report.failed.is_empty(), "{report:?}");
        assert_eq!(report.retried, 1);
        let got: Vec<u32> = out.into_iter().flatten().collect();
        let want: Vec<u32> = items.iter().map(|x| x + 100).collect();
        assert_eq!(got, want, "retried item must match the clean result");
    }

    #[test]
    fn isolated_map_reports_permanent_panics() {
        let items: Vec<u32> = (0..6).collect();
        let (out, report) = par_map_isolated(&items, 2, 2, |&x, _, _| -> Result<u32, String> {
            if x == 2 {
                panic!("hard fault");
            }
            Ok(x)
        });
        assert_eq!(report.failed_indices(), vec![2]);
        assert!(report.failed[0].message.contains("hard fault"));
        assert!(out[2].is_none());
        assert_eq!(out.iter().flatten().count(), 5);
    }

    #[test]
    #[should_panic(expected = "sweep worker must not panic")]
    fn plain_par_map_still_propagates_panics() {
        let items: Vec<u32> = (0..8).collect();
        let _ = par_map(&items, 2, |&x| {
            if x == 4 {
                panic!("boom");
            }
            x
        });
    }
}
