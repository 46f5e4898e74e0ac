//! The open-system arrival stream: seeded thread-lifetimes with
//! phase-profile fingerprints.
//!
//! The fleet is an *open* system — threads arrive from outside at a
//! seeded exponential rate, run to completion, and leave — rather than
//! the closed 4-thread steps of the multicore evaluator. Each
//! thread-lifetime carries a [`Workload`]: either one of the corpus'
//! 49 phase fingerprints, or a synthetic blend of two corpus phases
//! (datacenter threads rarely match a SimPoint region exactly), plus a
//! run of work segments. Segment boundaries are the scheduler's
//! migration opportunities — the analogue of the paper's SimPoint
//! phase boundaries at fleet scale.
//!
//! Everything is derived from `SmallRng` streams seeded per shard, so
//! the arrival process is a pure function of `(seed, shard)` and the
//! simulation stays bit-identical at any worker count.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The phase-profile fingerprint of one thread: a corpus phase, or a
/// synthetic blend of two corpus phases.
///
/// A blend models a thread whose behaviour sits between two measured
/// SimPoint regions: its cycles/energy per unit of work are the
/// `alpha`-weighted average of the component phases' table entries, so
/// a blended workload never leaves the convex hull of measured
/// behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Primary corpus phase row.
    pub p1: u16,
    /// Secondary corpus phase row (`== p1` for a pure workload).
    pub p2: u16,
    /// Weight of `p1` in `0.0..=1.0` (`1.0` for a pure workload).
    pub alpha: f64,
}

impl Workload {
    /// A pure corpus-phase workload.
    pub(crate) fn pure(phase: u16) -> Self {
        Workload {
            p1: phase,
            p2: phase,
            alpha: 1.0,
        }
    }

    /// Whether this is a pure corpus phase (no synthetic blending).
    pub(crate) fn is_pure(&self) -> bool {
        self.p1 == self.p2 || self.alpha >= 1.0
    }

    /// `alpha`-weighted blend of a per-phase quantity.
    #[inline]
    pub(crate) fn blend(&self, v1: f64, v2: f64) -> f64 {
        self.alpha * v1 + (1.0 - self.alpha) * v2
    }
}

/// One thread-lifetime: arrival instant, fingerprint, and its run of
/// work segments (units of table work per segment).
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadSpec {
    /// Fleet-unique thread id (dense within a shard).
    pub id: u64,
    /// Arrival time in fleet cycles.
    pub arrival_cycles: f64,
    /// Phase-profile fingerprint.
    pub workload: Workload,
    /// Work units per segment; the thread completes when every segment
    /// has executed. Segment boundaries are migration opportunities.
    pub segments: Vec<f64>,
}

/// Parameters of the arrival process (shared by every shard).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalParams {
    /// Base RNG seed; each shard derives a private stream from it.
    pub seed: u64,
    /// Corpus phase-row count to sample fingerprints from.
    pub n_phases: u16,
    /// Fraction of threads carrying a synthetic two-phase blend.
    pub mix_fraction: f64,
    /// Segments per thread are uniform in `1..=max_segments`.
    pub max_segments: u32,
    /// Minimum per-segment work (units); log-uniform up to `work_max`.
    pub work_min: f64,
    /// Maximum per-segment work (units).
    pub work_max: f64,
}

impl ArrivalParams {
    /// Mean segments per thread under the uniform segment-count draw.
    pub(crate) fn mean_segments(&self) -> f64 {
        (1.0 + self.max_segments as f64) / 2.0
    }

    /// Mean work per segment under the log-uniform draw.
    pub(crate) fn mean_segment_work(&self) -> f64 {
        if self.work_max <= self.work_min {
            return self.work_min;
        }
        (self.work_max - self.work_min) / (self.work_max / self.work_min).ln()
    }

    /// Mean work per thread-lifetime.
    pub(crate) fn mean_thread_work(&self) -> f64 {
        self.mean_segments() * self.mean_segment_work()
    }
}

/// A shard-private lazy stream of [`ThreadSpec`]s: `count` arrivals
/// with exponential interarrival times at `rate` threads per cycle.
///
/// The stream is an iterator so a shard never materializes its million
/// thread-specs up front; each spec is drawn on demand from the
/// shard's private RNG.
#[derive(Debug)]
pub struct ArrivalStream {
    params: ArrivalParams,
    rng: SmallRng,
    next_time: f64,
    rate: f64,
    next_id: u64,
    id_stride: u64,
    remaining: u64,
}

impl ArrivalStream {
    /// A shard's arrival stream: `count` threads at `rate` threads per
    /// cycle. Thread ids start at `first_id` and advance by
    /// `id_stride`, so round-robin shard ownership yields globally
    /// unique ids. The RNG stream is private to `(params.seed, shard)`.
    pub(crate) fn new(
        params: ArrivalParams,
        shard: u64,
        first_id: u64,
        id_stride: u64,
        count: u64,
        rate: f64,
    ) -> Self {
        let seed = params
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(shard.wrapping_mul(0xA076_1D64_78BD_642F) ^ 0x000F_1EE7);
        ArrivalStream {
            params,
            rng: SmallRng::seed_from_u64(seed),
            next_time: 0.0,
            rate,
            next_id: first_id,
            id_stride: id_stride.max(1),
            remaining: count,
        }
    }

    /// Draws an exponential interarrival gap in cycles.
    fn gap(&mut self) -> f64 {
        let u: f64 = self.rng.gen_range(0.0..1.0);
        // -ln(1-u)/rate; u < 1 so the argument is positive.
        -(1.0 - u).ln() / self.rate
    }

    /// Samples a fingerprint: pure corpus phase or two-phase blend.
    fn sample_workload(&mut self) -> Workload {
        let n = self.params.n_phases;
        let mix: f64 = self.rng.gen_range(0.0..1.0);
        let p1 = self.rng.gen_range(0..n);
        if mix < self.params.mix_fraction && n > 1 {
            let mut p2 = self.rng.gen_range(0..n - 1);
            if p2 >= p1 {
                p2 += 1;
            }
            let alpha = self.rng.gen_range(0.15..0.85);
            Workload { p1, p2, alpha }
        } else {
            Workload::pure(p1)
        }
    }

    /// Draws one log-uniform segment work amount.
    fn sample_work(&mut self) -> f64 {
        let lo = self.params.work_min.max(1e-9);
        let hi = self.params.work_max.max(lo);
        if hi <= lo {
            return lo;
        }
        let u: f64 = self.rng.gen_range(0.0..1.0);
        (lo.ln() + u * (hi.ln() - lo.ln())).exp()
    }
}

impl Iterator for ArrivalStream {
    type Item = ThreadSpec;

    fn next(&mut self) -> Option<ThreadSpec> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.next_time += self.gap();
        let workload = self.sample_workload();
        let n_segs = self.rng.gen_range(1..=self.params.max_segments.max(1));
        let segments = (0..n_segs).map(|_| self.sample_work()).collect();
        let spec = ThreadSpec {
            id: self.next_id,
            arrival_cycles: self.next_time,
            workload,
            segments,
        };
        self.next_id = self.next_id.wrapping_add(self.id_stride);
        Some(spec)
    }
}

#[cfg(test)]
impl ThreadSpec {
    /// Total demanded work units over all segments.
    pub(crate) fn total_work(&self) -> f64 {
        self.segments.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ArrivalParams {
        ArrivalParams {
            seed: 7,
            n_phases: 49,
            mix_fraction: 0.3,
            max_segments: 4,
            work_min: 50.0,
            work_max: 500.0,
        }
    }

    #[test]
    fn stream_is_deterministic_per_shard() {
        let a: Vec<_> = ArrivalStream::new(params(), 3, 3, 8, 100, 1e-4).collect();
        let b: Vec<_> = ArrivalStream::new(params(), 3, 3, 8, 100, 1e-4).collect();
        assert_eq!(a, b);
        let c: Vec<_> = ArrivalStream::new(params(), 4, 4, 8, 100, 1e-4).collect();
        assert_ne!(a, c, "different shards draw different streams");
    }

    #[test]
    fn arrivals_are_monotone_and_bounded() {
        let mut last = 0.0;
        for t in ArrivalStream::new(params(), 0, 0, 1, 500, 1e-4) {
            assert!(t.arrival_cycles > last);
            last = t.arrival_cycles;
            assert!(!t.segments.is_empty() && t.segments.len() <= 4);
            for &w in &t.segments {
                assert!((50.0..=500.0).contains(&w));
            }
            assert!(t.workload.alpha > 0.0 && t.workload.alpha <= 1.0);
            assert!(t.workload.p1 < 49 && t.workload.p2 < 49);
        }
    }

    #[test]
    fn mix_fraction_is_roughly_honored() {
        let mixed = ArrivalStream::new(params(), 1, 1, 8, 2000, 1e-4)
            .filter(|t| !t.workload.is_pure())
            .count();
        let frac = mixed as f64 / 2000.0;
        assert!((0.2..0.4).contains(&frac), "mixed fraction {frac}");
    }

    #[test]
    fn mean_work_matches_log_uniform_formula() {
        let p = params();
        let n = 20_000;
        let total: f64 = ArrivalStream::new(p, 2, 2, 8, n, 1e-4)
            .map(|t| t.total_work())
            .sum();
        let mean = total / n as f64;
        let expect = p.mean_thread_work();
        assert!(
            (mean - expect).abs() / expect < 0.05,
            "mean {mean} vs {expect}"
        );
    }
}
