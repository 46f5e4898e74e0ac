//! A tiny self-contained timing harness for the `benches/` targets.
//!
//! The workspace builds fully offline, so the benches use this instead
//! of an external benchmarking crate: warm up, run a fixed number of
//! timed samples, and report min / median / mean wall-clock per
//! iteration. The numbers are coarse compared to a statistical harness
//! but stable enough to spot order-of-magnitude regressions, which is
//! all the component benches are for.

use std::time::{Duration, Instant};

/// One benchmark's measured distribution, in seconds per iteration.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Fastest observed sample.
    pub min: f64,
    /// Median sample.
    pub median: f64,
    /// Mean over all samples.
    pub mean: f64,
    /// Iterations executed per sample.
    pub iters: u64,
}

/// Times `f`, printing a one-line report labelled `name`. Returns the
/// measured distribution so callers can assert on it if they want.
pub fn bench<F: FnMut()>(name: &str, mut f: F) -> Sample {
    bench_config(name, Duration::from_millis(300), 12, &mut f)
}

/// [`bench()`] with explicit target sample duration and sample count.
pub fn bench_config<F: FnMut()>(name: &str, target: Duration, samples: usize, f: &mut F) -> Sample {
    // Warm-up + calibration: find an iteration count that fills the
    // target duration.
    let mut iters = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        let took = t.elapsed();
        if took >= target / 2 || iters >= 1 << 20 {
            let scale = target.as_secs_f64() / took.as_secs_f64().max(1e-9);
            iters = ((iters as f64 * scale).ceil() as u64).clamp(1, 1 << 20);
            break;
        }
        iters *= 4;
    }
    let mut per_iter: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    per_iter.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let s = Sample {
        min: per_iter[0],
        median: per_iter[per_iter.len() / 2],
        mean: per_iter.iter().sum::<f64>() / per_iter.len() as f64,
        iters,
    };
    println!(
        "{name:<40} min {:>10}  median {:>10}  mean {:>10}  ({} iters/sample)",
        fmt_secs(s.min),
        fmt_secs(s.median),
        fmt_secs(s.mean),
        s.iters
    );
    s
}

/// Formats a duration in seconds with an adaptive unit.
pub(crate) fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.3} us", s * 1e6)
    } else {
        format!("{:.1} ns", s * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_positive_times() {
        let s = bench_config("noop", Duration::from_millis(5), 3, &mut || {
            std::hint::black_box(1 + 1);
        });
        assert!(s.min > 0.0 && s.min <= s.median && s.median <= s.mean * 3.0);
        assert!(s.iters >= 1);
    }

    #[test]
    fn fmt_secs_picks_units() {
        assert!(fmt_secs(2.5).ends_with(" s"));
        assert!(fmt_secs(2.5e-3).ends_with(" ms"));
        assert!(fmt_secs(2.5e-6).ends_with(" us"));
        assert!(fmt_secs(2.5e-9).ends_with(" ns"));
    }
}
