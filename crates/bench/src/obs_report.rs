//! Renders a [`cisa_obs::Snapshot`] as the human-readable per-stage
//! breakdown the `sweep_report` binary prints.
//!
//! The renderer is pure (snapshot in, string out) so its formatting is
//! unit-testable without running a sweep.

use cisa_obs::{Snapshot, HIST_BUCKETS};

use crate::timing::fmt_secs;

/// Renders the full report: span breakdown, counters, histograms.
///
/// `wall_s` is the caller-measured wall-clock of the reported run; span
/// times are shown as a percentage of it. (Per-worker span time can
/// legitimately sum past 100% of wall-clock on a multi-threaded sweep —
/// that is parallelism, not double counting.)
pub fn render(snap: &Snapshot, wall_s: f64) -> String {
    if snap.is_empty() {
        return "no metrics captured (observability is disabled: CISA_OBS=0)\n".to_string();
    }
    let mut out = String::new();

    if snap.spans().next().is_some() {
        out.push_str("== stage breakdown (spans) ==\n");
        out.push_str(&format!(
            "{:<32} {:>9} {:>12} {:>12} {:>8}\n",
            "span", "count", "total", "mean", "% wall"
        ));
        for (path, stat) in snap.spans() {
            let total_s = stat.total_ns as f64 / 1e9;
            let mean_s = total_s / stat.count.max(1) as f64;
            let pct = if wall_s > 0.0 {
                100.0 * total_s / wall_s
            } else {
                0.0
            };
            out.push_str(&format!(
                "{:<32} {:>9} {:>12} {:>12} {:>7.1}%\n",
                path,
                stat.count,
                fmt_secs(total_s),
                fmt_secs(mean_s),
                pct
            ));
        }
    }

    if snap.counters().next().is_some() {
        out.push_str("\n== counters ==\n");
        for (name, value) in snap.counters() {
            out.push_str(&format!("{name:<40} {value:>12}\n"));
        }
    }

    if snap.hists().next().is_some() {
        out.push_str("\n== histograms (log2 buckets) ==\n");
        for (name, buckets) in snap.hists() {
            let total: u64 = buckets.iter().sum();
            out.push_str(&format!("{name:<40} n={total}  {}\n", hist_line(buckets)));
        }
    }
    out
}

/// One-line bucket rendering: `[lo,hi): count` for each nonzero bucket.
fn hist_line(buckets: &[u64; HIST_BUCKETS]) -> String {
    let mut parts = Vec::new();
    for (i, &c) in buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let range = if i == 0 {
            "0".to_string()
        } else if i == 1 {
            "1".to_string()
        } else {
            format!("[2^{},2^{})", i - 1, i)
        };
        parts.push(format!("{range}: {c}"));
    }
    parts.join("  ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cisa_obs::Registry;

    #[test]
    fn empty_snapshot_renders_disabled_note() {
        let r = Registry::new();
        let text = render(&r.snapshot(), 1.0);
        assert!(text.contains("disabled"));
    }

    #[test]
    fn report_contains_all_sections_and_values() {
        // An isolated registry keeps this test independent of the
        // process-global one other tests may be writing to.
        let r = Registry::new();
        r.add_counter("cache/hit", 1249);
        r.add_counter("probe/run", 575);
        r.add_hist("sweep/attempts", 1);
        r.add_span("sweep/item", 2_000_000_000);
        r.add_span("sweep/item/probe", 1_500_000_000);
        let text = render(&r.snapshot(), 4.0);
        assert!(text.contains("== stage breakdown (spans) =="));
        assert!(text.contains("== counters =="));
        assert!(text.contains("== histograms (log2 buckets) =="));
        assert!(text.contains("cache/hit"));
        assert!(text.contains("1249"));
        assert!(text.contains("sweep/item/probe"));
        // 2.0s of span time over 4.0s wall = 50%.
        assert!(text.contains("50.0%"), "{text}");
    }

    #[test]
    fn hist_line_labels_buckets() {
        let mut buckets = [0u64; HIST_BUCKETS];
        buckets[0] = 2; // zeros
        buckets[1] = 3; // exactly one
        buckets[5] = 7; // [16,32)
        let line = hist_line(&buckets);
        assert_eq!(line, "0: 2  1: 3  [2^4,2^5): 7");
    }
}
