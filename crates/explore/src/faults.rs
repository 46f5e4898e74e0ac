//! Deterministic fault injection for the exploration pipeline.
//!
//! Robustness claims are only testable if failures can be *produced on
//! demand and replayed exactly*. A [`FaultPlan`] is a pure function
//! from `(seed, domain, item index, attempt)` to fault decisions, so
//! any failing sweep can be reproduced from its seed alone — no fault
//! log shipping, no race on which worker saw the fault first.
//!
//! Five fault domains cover the pipeline's trust boundaries:
//!
//! - **streams** — bit-flips and truncations in encoded instruction
//!   bytes, exercising the decoder's structured-error path
//!   ([`cisa_isa::StreamError`]);
//! - **cache** — torn (truncated) [`crate::ProfileCache`] entries,
//!   exercising the read-validate-delete path;
//! - **records** — poisoned (non-finite) profile values standing in
//!   for corrupt trace records, exercising result validation;
//! - **panics** — forced worker panics, exercising the sweep runner's
//!   `catch_unwind` isolation and retry;
//! - **serve** — faults at the service boundary: slow-loris client
//!   pacing, torn/partial socket writes, injected store I/O errors,
//!   and forced panics of HTTP worker threads (exercising the
//!   watchdog respawn path in `cisa-serve`).
//!
//! Stream and record faults are keyed by item index only, so they
//! *persist* across retries (a corrupt input stays corrupt — the item
//! must be reported failed). Forced panics fire on attempt 0 only, so
//! they are *transient* — a retry succeeds and the item's result is
//! bit-identical to a fault-free run. Serve-domain decisions are keyed
//! by request/operation sequence number, so a chaos run against a live
//! server replays exactly from the seed and the scenario script.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The independent decision streams of a plan. Each domain derives its
/// own RNG so enabling one fault kind never perturbs another's
/// decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDomain {
    /// Encoded instruction streams.
    Stream,
    /// On-disk profile-cache entries.
    Cache,
    /// Trace/profile records.
    Record,
    /// Worker panics.
    Panic,
    /// The service boundary: client wire behavior, store I/O, HTTP
    /// worker panics.
    Serve,
}

impl FaultDomain {
    fn tag(self) -> u64 {
        match self {
            FaultDomain::Stream => 0x5745_4A4D_0000_0001,
            FaultDomain::Cache => 0x5745_4A4D_0000_0002,
            FaultDomain::Record => 0x5745_4A4D_0000_0003,
            FaultDomain::Panic => 0x5745_4A4D_0000_0004,
            FaultDomain::Serve => 0x5745_4A4D_0000_0005,
        }
    }
}

/// Sub-streams of the [`FaultDomain::Serve`] decision space. Each kind
/// derives its own RNG stream, so (for example) enabling store I/O
/// errors never perturbs the slow-loris pacing a seed produces.
#[derive(Debug, Clone, Copy)]
enum ServeKind {
    StoreIo = 1,
    Loris = 2,
    WireCut = 3,
}

/// One fault a plan actually applied, with enough detail to assert on
/// in tests and to print in sweep reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// One bit of an encoded stream was flipped.
    BitFlip {
        /// Byte offset of the flipped bit.
        offset: usize,
        /// Bit position within the byte (0..8).
        bit: u8,
    },
    /// An encoded stream or cache entry was cut short.
    Truncation {
        /// Length before the fault.
        original_len: usize,
        /// Length after the fault (< original).
        new_len: usize,
    },
    /// A profile/trace value was replaced with a non-finite poison.
    PoisonedValue {
        /// Index of the poisoned slot.
        slot: usize,
    },
    /// The worker processing this item was forced to panic.
    WorkerPanic,
}

impl std::fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InjectedFault::BitFlip { offset, bit } => {
                write!(f, "bit-flip at byte {offset}, bit {bit}")
            }
            InjectedFault::Truncation {
                original_len,
                new_len,
            } => write!(f, "truncation {original_len} -> {new_len} bytes"),
            InjectedFault::PoisonedValue { slot } => write!(f, "poisoned value in slot {slot}"),
            InjectedFault::WorkerPanic => write!(f, "forced worker panic"),
        }
    }
}

/// SplitMix64 finalizer: decorrelates the per-decision seeds derived
/// from (plan seed, domain, index, attempt).
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A replayable fault-injection plan: every decision is a pure
/// function of the seed, so two plans with equal configuration inject
/// byte-identical faults.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    stream_corruption_rate: f64,
    record_poison_rate: f64,
    cache_tear_rate: f64,
    panic_items: Vec<usize>,
    store_io_error_rate: f64,
    serve_panic_requests: Vec<u64>,
}

impl FaultPlan {
    /// A plan with the given seed and no faults enabled.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            stream_corruption_rate: 0.0,
            record_poison_rate: 0.0,
            cache_tear_rate: 0.0,
            panic_items: Vec::new(),
            store_io_error_rate: 0.0,
            serve_panic_requests: Vec::new(),
        }
    }

    /// The plan's replay seed.
    pub(crate) fn seed(&self) -> u64 {
        self.seed
    }

    /// Corrupts each item's encoded stream with this probability
    /// (bit-flip or truncation, chosen per item). Persistent across
    /// retries.
    pub fn with_stream_corruption(mut self, rate: f64) -> Self {
        self.stream_corruption_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Poisons each item's profile record with this probability
    /// (one value becomes NaN). Persistent across retries.
    pub fn with_record_poison(mut self, rate: f64) -> Self {
        self.record_poison_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Tears (truncates on disk) each item's freshly stored cache
    /// entry with this probability.
    pub fn with_cache_tearing(mut self, rate: f64) -> Self {
        self.cache_tear_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Forces the worker processing each listed item index to panic on
    /// its *first* attempt. Transient: retries run clean, so with
    /// retry enabled the item's final result matches a fault-free run.
    pub fn with_forced_panics(mut self, items: &[usize]) -> Self {
        self.panic_items = items.to_vec();
        self
    }

    /// True if stream corruption is enabled (callers skip the
    /// encode/decode round-trip entirely otherwise).
    pub(crate) fn streams_enabled(&self) -> bool {
        self.stream_corruption_rate > 0.0
    }

    /// Fails each disk operation of the serving profile store with
    /// this probability (reads degrade to misses, writes are dropped —
    /// exactly how a real I/O error is absorbed).
    pub fn with_store_io_errors(mut self, rate: f64) -> Self {
        self.store_io_error_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Forces the HTTP worker handling each listed request sequence
    /// number to panic, exercising the serving watchdog's respawn
    /// path. Unlike sweep panics there is no retry tier: the
    /// connection dies and the *next* request must be served by a
    /// respawned worker.
    pub fn with_serve_panics(mut self, requests: &[u64]) -> Self {
        self.serve_panic_requests = requests.to_vec();
        self
    }

    /// The decision RNG for one (domain, item, attempt) triple.
    fn rng(&self, domain: FaultDomain, index: usize, attempt: u32) -> SmallRng {
        let z = mix(self.seed ^ domain.tag())
            ^ mix(index as u64 ^ 0xA5A5_A5A5_0000_0000)
            ^ mix(attempt as u64 ^ 0x0F0F_F0F0_0000_0000);
        SmallRng::seed_from_u64(z)
    }

    /// Should the worker processing item `index` panic on `attempt`?
    pub(crate) fn should_panic(&self, index: usize, attempt: u32) -> bool {
        attempt == 0 && self.panic_items.contains(&index)
    }

    /// Maybe corrupts an encoded stream in place (attempt-independent,
    /// so the corruption survives retries). Returns the fault applied,
    /// if any.
    pub fn corrupt_stream(&self, index: usize, bytes: &mut Vec<u8>) -> Option<InjectedFault> {
        if bytes.is_empty() || self.stream_corruption_rate == 0.0 {
            return None;
        }
        let mut rng = self.rng(FaultDomain::Stream, index, 0);
        if !rng.gen_bool(self.stream_corruption_rate) {
            return None;
        }
        if rng.gen_bool(0.5) {
            let offset = rng.gen_range(0..bytes.len());
            let bit = rng.gen_range(0..8u8);
            bytes[offset] ^= 1 << bit;
            Some(InjectedFault::BitFlip { offset, bit })
        } else {
            let original_len = bytes.len();
            let new_len = rng.gen_range(0..original_len);
            bytes.truncate(new_len);
            Some(InjectedFault::Truncation {
                original_len,
                new_len,
            })
        }
    }

    /// Maybe poisons one slot of a record's values with NaN
    /// (attempt-independent). Returns the fault applied, if any.
    pub fn poison_record(&self, index: usize, values: &mut [f64]) -> Option<InjectedFault> {
        if values.is_empty() || self.record_poison_rate == 0.0 {
            return None;
        }
        let mut rng = self.rng(FaultDomain::Record, index, 0);
        if !rng.gen_bool(self.record_poison_rate) {
            return None;
        }
        let slot = rng.gen_range(0..values.len());
        values[slot] = f64::NAN;
        Some(InjectedFault::PoisonedValue { slot })
    }

    /// Decides whether (and where) to tear a just-written cache entry
    /// of `len` bytes. Returns the byte count to keep, if tearing.
    pub(crate) fn tear_cache_entry(&self, index: usize, len: usize) -> Option<usize> {
        if len == 0 || self.cache_tear_rate == 0.0 {
            return None;
        }
        let mut rng = self.rng(FaultDomain::Cache, index, 0);
        if !rng.gen_bool(self.cache_tear_rate) {
            return None;
        }
        Some(rng.gen_range(0..len))
    }

    /// The decision RNG for one serve-domain (kind, sequence) pair.
    fn serve_rng(&self, kind: ServeKind, index: usize) -> SmallRng {
        self.rng(FaultDomain::Serve, index, kind as u32)
    }

    /// Should disk operation `op_index` of the serving profile store
    /// fail with an injected I/O error?
    pub(crate) fn store_io_fails(&self, op_index: usize) -> bool {
        if self.store_io_error_rate == 0.0 {
            return false;
        }
        self.serve_rng(ServeKind::StoreIo, op_index)
            .gen_bool(self.store_io_error_rate)
    }

    /// Should the HTTP worker handling request `seq` panic?
    pub fn should_panic_request(&self, seq: u64) -> bool {
        self.serve_panic_requests.contains(&seq)
    }

    /// Deterministic slow-loris pacing for connection `index`:
    /// `(bytes_per_write, pause_ms_between_writes)`. Chaos clients
    /// trickle request bytes at this pace to exercise the server's
    /// total-read budget.
    pub fn slow_loris_params(&self, index: usize) -> (usize, u64) {
        let mut rng = self.serve_rng(ServeKind::Loris, index);
        (rng.gen_range(1..=3), rng.gen_range(5..=25))
    }

    /// Deterministic cut point for a torn/partial socket write of a
    /// `len`-byte request: the client sends only this many bytes
    /// before abandoning the connection. Always strictly less than
    /// `len` (and at least 1 when possible), so the request on the
    /// wire is genuinely incomplete.
    pub fn wire_cut(&self, index: usize, len: usize) -> usize {
        if len <= 1 {
            return 0;
        }
        self.serve_rng(ServeKind::WireCut, index).gen_range(1..len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_replay_exactly_from_the_seed() {
        let a = FaultPlan::new(42).with_stream_corruption(0.5);
        let b = FaultPlan::new(42).with_stream_corruption(0.5);
        for i in 0..200 {
            let mut xa = vec![0xAAu8; 64];
            let mut xb = vec![0xAAu8; 64];
            assert_eq!(a.corrupt_stream(i, &mut xa), b.corrupt_stream(i, &mut xb));
            assert_eq!(xa, xb, "item {i} must corrupt identically");
        }
    }

    #[test]
    fn different_seeds_give_different_plans() {
        let a = FaultPlan::new(1).with_stream_corruption(0.5);
        let b = FaultPlan::new(2).with_stream_corruption(0.5);
        let same = (0..200).all(|i| {
            let mut xa = vec![0x55u8; 32];
            let mut xb = vec![0x55u8; 32];
            a.corrupt_stream(i, &mut xa);
            b.corrupt_stream(i, &mut xb);
            xa == xb
        });
        assert!(!same, "independent seeds must diverge somewhere");
    }

    #[test]
    fn corruption_rate_is_roughly_honoured() {
        let plan = FaultPlan::new(7).with_stream_corruption(0.05);
        let n = 10_000;
        let hit = (0..n)
            .filter(|&i| {
                let mut b = vec![0u8; 16];
                plan.corrupt_stream(i, &mut b).is_some()
            })
            .count();
        let rate = hit as f64 / n as f64;
        assert!((0.03..0.07).contains(&rate), "observed rate {rate}");
    }

    #[test]
    fn stream_faults_persist_across_attempts_panics_do_not() {
        let plan = FaultPlan::new(9)
            .with_stream_corruption(1.0)
            .with_forced_panics(&[3, 5]);
        let mut first = vec![0xC3u8; 24];
        let mut again = vec![0xC3u8; 24];
        let fa = plan.corrupt_stream(11, &mut first);
        let fb = plan.corrupt_stream(11, &mut again);
        assert_eq!(fa, fb, "stream corruption must not depend on attempt");
        assert!(fa.is_some());

        assert!(plan.should_panic(3, 0));
        assert!(!plan.should_panic(3, 1), "panics are transient");
        assert!(!plan.should_panic(4, 0), "only listed items panic");
    }

    #[test]
    fn empty_plan_is_inert() {
        let plan = FaultPlan::new(0xDEAD);
        let mut bytes = vec![1u8, 2, 3, 4];
        assert_eq!(plan.corrupt_stream(0, &mut bytes), None);
        assert_eq!(bytes, vec![1, 2, 3, 4]);
        let mut vals = [1.0f64; 4];
        assert_eq!(plan.poison_record(0, &mut vals), None);
        assert!(vals.iter().all(|v| v.is_finite()));
        assert_eq!(plan.tear_cache_entry(0, 256), None);
        assert!(!plan.should_panic(0, 0));
        assert!(!plan.store_io_fails(0));
        assert!(!plan.should_panic_request(0));
    }

    #[test]
    fn serve_domain_decisions_replay_and_stay_in_range() {
        let a = FaultPlan::new(77).with_store_io_errors(0.5);
        let b = FaultPlan::new(77).with_store_io_errors(0.5);
        for i in 0..500 {
            assert_eq!(a.store_io_fails(i), b.store_io_fails(i), "op {i}");
            assert_eq!(a.slow_loris_params(i), b.slow_loris_params(i));
            assert_eq!(a.wire_cut(i, 300), b.wire_cut(i, 300));
            let (chunk, pause) = a.slow_loris_params(i);
            assert!((1..=3).contains(&chunk));
            assert!((5..=25).contains(&pause));
            let cut = a.wire_cut(i, 300);
            assert!((1..300).contains(&cut));
        }
        assert_eq!(a.wire_cut(0, 0), 0, "degenerate wire length");
        assert_eq!(a.wire_cut(0, 1), 0, "nothing to cut in one byte");
        let hits = (0..1000).filter(|&i| a.store_io_fails(i)).count();
        assert!((300..700).contains(&hits), "rate honoured: {hits}");
    }

    #[test]
    fn serve_panics_fire_only_on_listed_requests() {
        let plan = FaultPlan::new(5).with_serve_panics(&[2, 9]);
        assert!(plan.should_panic_request(2));
        assert!(plan.should_panic_request(9));
        assert!(!plan.should_panic_request(3));
    }

    #[test]
    fn serve_kind_streams_are_decorrelated() {
        // Enabling one serve fault kind must not change another kind's
        // decisions (each kind derives its own RNG stream).
        let bare = FaultPlan::new(123);
        let with_io = FaultPlan::new(123).with_store_io_errors(1.0);
        for i in 0..100 {
            assert_eq!(bare.slow_loris_params(i), with_io.slow_loris_params(i));
            assert_eq!(bare.wire_cut(i, 64), with_io.wire_cut(i, 64));
        }
    }

    #[test]
    fn poison_makes_a_value_non_finite() {
        let plan = FaultPlan::new(21).with_record_poison(1.0);
        let mut vals = [1.0f64; 8];
        let f = plan.poison_record(0, &mut vals).expect("rate 1.0");
        match f {
            InjectedFault::PoisonedValue { slot } => assert!(vals[slot].is_nan()),
            other => panic!("unexpected fault {other:?}"),
        }
    }

    #[test]
    fn tear_keeps_fewer_bytes_than_written() {
        let plan = FaultPlan::new(33).with_cache_tearing(1.0);
        for i in 0..50 {
            let keep = plan.tear_cache_entry(i, 256).expect("rate 1.0");
            assert!(keep < 256);
        }
    }
}
