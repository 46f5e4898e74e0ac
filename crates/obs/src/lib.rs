//! Zero-dependency observability for the Composite-ISA workspace.
//!
//! This crate provides the three primitives every other crate reports
//! through:
//!
//! * **Spans** — hierarchical wall-clock timers ([`span`] / [`root_span`]).
//!   Each thread keeps its own stack of open span names; closing a span
//!   records one `(call count, total ns)` pair under the `/`-joined path
//!   of the stack at open time (e.g. `compile/isel`). Call counts are
//!   deterministic; the nanosecond totals are wall-clock and therefore
//!   excluded from the deterministic snapshot form.
//! * **Counters** — named monotonically increasing `u64`s ([`counter`]).
//!   Counter increments are commutative, so aggregate values are
//!   bit-identical regardless of `CISA_THREADS` or scheduling order.
//! * **Histograms** — fixed-bucket log2 histograms ([`hist`]): value `v`
//!   lands in bucket `⌊log2 v⌋ + 1` (bucket 0 holds `v == 0`), 65 buckets
//!   total. Like counters, bucket increments commute.
//!
//! All state lives in one process-global [`Registry`]; [`snapshot`]
//! captures it and [`Snapshot::to_json`] / [`Snapshot::to_jsonl`] render
//! it with sorted keys and no timestamps, so two runs that do the same
//! work produce byte-identical output (pass `timings = false` to also
//! drop the wall-clock nanosecond fields).
//!
//! # Switching it off
//!
//! * **Runtime**: set `CISA_OBS=0` (or `false` / `off`) in the
//!   environment, or call [`set_enabled`]`(false)`. Disabled calls cost
//!   one relaxed atomic load.
//! * **Compile time**: enable the `noop` cargo feature — every
//!   recording function becomes an empty inlineable stub and the layer
//!   vanishes from the binary. The `obs_overhead` bench in `cisa-bench`
//!   pins both costs.
//!
//! The full name catalogue — every span, counter, and histogram emitted
//! by the workspace, with units and cardinality — lives in the
//! repository-level `METRICS.md`.
#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Number of log2 histogram buckets: bucket 0 for zero, buckets
/// `1..=64` for `⌊log2 v⌋ + 1`.
pub const HIST_BUCKETS: usize = 65;

/// Per-path span aggregate: how many times the span closed and the
/// total wall-clock nanoseconds spent inside it (self + children).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of times a span with this path was closed.
    pub count: u64,
    /// Total wall-clock nanoseconds across all closings. Wall-clock,
    /// hence nondeterministic; excluded from the deterministic
    /// snapshot form.
    pub total_ns: u64,
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, [u64; HIST_BUCKETS]>,
    spans: BTreeMap<String, SpanStat>,
}

/// The process-global metric store.
///
/// All recording free functions ([`counter`], [`hist`], [`span`],
/// [`root_span`]) write into the single global `Registry`; use
/// [`snapshot`] to read it and [`reset`] to clear it between runs.
/// The type is public so tests can hold their own isolated instance.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the named counter in this registry.
    pub fn add_counter(&self, name: &str, delta: u64) {
        let mut g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        *g.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Records one observation of `value` into the named log2 histogram
    /// in this registry.
    pub fn add_hist(&self, name: &str, value: u64) {
        let mut g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let buckets = g.hists.entry(name.to_string()).or_insert([0; HIST_BUCKETS]);
        buckets[bucket_of(value)] += 1;
    }

    /// Records one closed span under `path` with `ns` elapsed
    /// nanoseconds in this registry.
    pub fn add_span(&self, path: &str, ns: u64) {
        let mut g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let s = g.spans.entry(path.to_string()).or_default();
        s.count += 1;
        s.total_ns += ns;
    }

    /// Captures the current contents as an immutable [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        Snapshot {
            counters: g.counters.clone(),
            hists: g.hists.clone(),
            spans: g.spans.clone(),
        }
    }

    /// Clears every counter, histogram, and span aggregate.
    pub fn reset(&self) {
        let mut g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        *g = Inner::default();
    }
}

/// Maps a value to its log2 bucket index: 0 for 0, else `⌊log2 v⌋ + 1`.
fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

fn global() -> &'static Registry {
    static REG: OnceLock<Registry> = OnceLock::new();
    REG.get_or_init(Registry::new)
}

static ENABLED_OVERRIDE: AtomicBool = AtomicBool::new(false);
static ENABLED: AtomicBool = AtomicBool::new(true);

fn env_enabled() -> bool {
    static FROM_ENV: OnceLock<bool> = OnceLock::new();
    *FROM_ENV.get_or_init(|| match std::env::var("CISA_OBS") {
        Ok(v) => {
            let v = v.trim().to_ascii_lowercase();
            !(v == "0" || v == "false" || v == "off")
        }
        Err(_) => true,
    })
}

/// Returns whether recording is currently active.
///
/// `false` when built with the `noop` feature, when `CISA_OBS=0` is in
/// the environment, or after [`set_enabled`]`(false)`.
#[inline]
pub fn enabled() -> bool {
    if cfg!(feature = "noop") {
        return false;
    }
    if ENABLED_OVERRIDE.load(Ordering::Relaxed) {
        ENABLED.load(Ordering::Relaxed)
    } else {
        env_enabled()
    }
}

/// Overrides the `CISA_OBS` environment knob at runtime.
///
/// Has no effect under the `noop` feature (the layer is compiled out).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
    ENABLED_OVERRIDE.store(true, Ordering::Relaxed);
}

/// Adds `delta` to the named counter in the global registry.
///
/// Counter names are `/`-separated lowercase paths (`cache/hit`); the
/// catalogue lives in `METRICS.md`.
#[inline]
pub fn counter(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    global().add_counter(name, delta);
}

/// Records one observation of `value` into the named log2 histogram.
#[inline]
pub fn hist(name: &str, value: u64) {
    if !enabled() {
        return;
    }
    global().add_hist(name, value);
}

thread_local! {
    static STACK: std::cell::RefCell<Vec<String>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// RAII guard for an open span; records on drop.
///
/// Obtained from [`span`] or [`root_span`]. Dropping it pops the span
/// off the calling thread's span stack and adds the elapsed wall-clock
/// time to the aggregate for the stack's `/`-joined path.
#[must_use = "a span records when dropped; binding it to `_` drops it immediately"]
pub struct Span(Option<SpanInner>);

struct SpanInner {
    start: Instant,
    path: String,
    /// For root spans: the caller's stack, restored on drop.
    saved: Option<Vec<String>>,
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.0.take() else { return };
        let ns = inner.start.elapsed().as_nanos() as u64;
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            s.pop();
            if let Some(saved) = inner.saved {
                *s = saved;
            }
        });
        global().add_span(&inner.path, ns);
    }
}

/// Opens a span nested under the calling thread's currently open spans.
///
/// The recorded path is the `/`-joined stack, e.g. a `span("isel")`
/// under an open `span("compile")` records as `compile/isel`.
#[inline]
pub fn span(name: &str) -> Span {
    if !enabled() {
        return Span(None);
    }
    let path = STACK.with(|s| {
        let mut s = s.borrow_mut();
        s.push(name.to_string());
        s.join("/")
    });
    Span(Some(SpanInner {
        start: Instant::now(),
        path,
        saved: None,
    }))
}

/// Opens a span that ignores the calling thread's current span stack.
///
/// The span records under `name` alone and its children nest under
/// `name/...`, regardless of what was open on this thread. Used for
/// per-item work that may run either inline on the caller's thread
/// (serial path) or on a fresh worker thread (parallel path), so the
/// recorded paths — and therefore snapshot call counts — are identical
/// across `CISA_THREADS` settings. The caller's stack is restored when
/// the span closes.
#[inline]
pub fn root_span(name: &str) -> Span {
    if !enabled() {
        return Span(None);
    }
    let saved = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let saved = std::mem::take(&mut *s);
        s.push(name.to_string());
        saved
    });
    Span(Some(SpanInner {
        start: Instant::now(),
        path: name.to_string(),
        saved: Some(saved),
    }))
}

/// Captures the global registry as an immutable [`Snapshot`].
pub fn snapshot() -> Snapshot {
    global().snapshot()
}

/// Clears the global registry. Open spans on other threads still record
/// when they close; callers coordinating a measurement should reset at
/// a quiescent point (the sweep runner does this between table builds).
pub fn reset() {
    global().reset();
}

/// An immutable capture of the registry: counters, histograms, and span
/// aggregates, all keyed by name in sorted (`BTreeMap`) order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, [u64; HIST_BUCKETS]>,
    spans: BTreeMap<String, SpanStat>,
}

impl Snapshot {
    /// Value of the named counter, or 0 if it never fired.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Iterates `(name, value)` over all counters in sorted order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Number of times the named span closed, or 0.
    pub fn span_count(&self, path: &str) -> u64 {
        self.spans.get(path).map(|s| s.count).unwrap_or(0)
    }

    /// Iterates `(path, stat)` over all span aggregates in sorted order.
    pub fn spans(&self) -> impl Iterator<Item = (&str, SpanStat)> {
        self.spans.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Total observation count in the named histogram.
    pub fn hist_total(&self, name: &str) -> u64 {
        self.hists.get(name).map(|b| b.iter().sum()).unwrap_or(0)
    }

    /// The named histogram's bucket array, if it has any observations.
    pub fn hist_buckets(&self, name: &str) -> Option<&[u64; HIST_BUCKETS]> {
        self.hists.get(name)
    }

    /// Iterates `(name, buckets)` over all histograms in sorted order.
    pub fn hists(&self) -> impl Iterator<Item = (&str, &[u64; HIST_BUCKETS])> {
        self.hists.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.hists.is_empty() && self.spans.is_empty()
    }

    /// Renders the snapshot as one deterministic JSON object:
    /// `{"counters":{...},"histograms":{...},"spans":{...}}` with keys
    /// in sorted order and no timestamps. With `timings = false` the
    /// span objects carry only `"count"` (the fully deterministic
    /// form); with `timings = true` they also carry wall-clock `"ns"`.
    pub fn to_json(&self, timings: bool) -> String {
        let mut out = String::new();
        out.push_str("{\"counters\":{");
        push_joined(&mut out, self.counters.iter(), |out, (k, v)| {
            push_json_key(out, k);
            out.push_str(&v.to_string());
        });
        out.push_str("},\"histograms\":{");
        push_joined(&mut out, self.hists.iter(), |out, (k, buckets)| {
            push_json_key(out, k);
            push_hist_value(out, buckets);
        });
        out.push_str("},\"spans\":{");
        push_joined(&mut out, self.spans.iter(), |out, (k, s)| {
            push_json_key(out, k);
            out.push_str("{\"count\":");
            out.push_str(&s.count.to_string());
            if timings {
                out.push_str(",\"ns\":");
                out.push_str(&s.total_ns.to_string());
            }
            out.push('}');
        });
        out.push_str("}}");
        out
    }

    /// Renders the snapshot as JSONL: one self-describing record per
    /// line (`{"kind":"counter","name":...,"value":...}`), counters
    /// first, then histograms, then spans, each group in sorted key
    /// order. Same `timings` contract as [`Snapshot::to_json`].
    pub fn to_jsonl(&self, timings: bool) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            out.push_str("{\"kind\":\"counter\",\"name\":");
            push_json_string(&mut out, k);
            out.push_str(",\"value\":");
            out.push_str(&v.to_string());
            out.push_str("}\n");
        }
        for (k, buckets) in &self.hists {
            out.push_str("{\"kind\":\"hist\",\"name\":");
            push_json_string(&mut out, k);
            out.push_str(",\"buckets\":");
            push_hist_value(&mut out, buckets);
            out.push_str("}\n");
        }
        for (k, s) in &self.spans {
            out.push_str("{\"kind\":\"span\",\"name\":");
            push_json_string(&mut out, k);
            out.push_str(",\"count\":");
            out.push_str(&s.count.to_string());
            if timings {
                out.push_str(",\"ns\":");
                out.push_str(&s.total_ns.to_string());
            }
            out.push_str("}\n");
        }
        out
    }
}

fn push_joined<I, T>(out: &mut String, items: I, mut f: impl FnMut(&mut String, T))
where
    I: Iterator<Item = T>,
{
    let mut first = true;
    for item in items {
        if !first {
            out.push(',');
        }
        first = false;
        f(out, item);
    }
}

/// Renders nonzero buckets as a sorted array of `[bucket, count]`
/// pairs, e.g. `[[3,2],[7,1]]`.
fn push_hist_value(out: &mut String, buckets: &[u64; HIST_BUCKETS]) {
    out.push('[');
    push_joined(
        out,
        buckets.iter().enumerate().filter(|(_, c)| **c > 0),
        |out, (i, c)| {
            out.push('[');
            out.push_str(&i.to_string());
            out.push(',');
            out.push_str(&c.to_string());
            out.push(']');
        },
    );
    out.push(']');
}

fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_json_key(out: &mut String, k: &str) {
    push_json_string(out, k);
    out.push(':');
}

#[cfg(test)]
mod tests {
    use super::*;

    // The recording free functions share the process-global registry,
    // so tests that use them serialize on this lock and reset() first.
    static GLOBAL_GATE: Mutex<()> = Mutex::new(());

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn registry_counters_and_hists() {
        let r = Registry::new();
        r.add_counter("a/b", 2);
        r.add_counter("a/b", 3);
        r.add_hist("h", 0);
        r.add_hist("h", 5);
        let s = r.snapshot();
        assert_eq!(s.counter("a/b"), 5);
        assert_eq!(s.counter("missing"), 0);
        assert_eq!(s.hist_total("h"), 2);
        let b = s.hist_buckets("h").unwrap();
        assert_eq!(b[0], 1);
        assert_eq!(b[bucket_of(5)], 1);
    }

    #[test]
    fn span_paths_nest_and_root_resets() {
        let _g = GLOBAL_GATE.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_enabled(true);
        {
            let _outer = span("outer");
            {
                let _inner = span("inner");
            }
            {
                let _item = root_span("item");
                let _child = span("child");
            }
            // Root span restored the stack: this nests under outer.
            let _after = span("after");
        }
        let s = snapshot();
        assert_eq!(s.span_count("outer"), 1);
        assert_eq!(s.span_count("outer/inner"), 1);
        assert_eq!(s.span_count("item"), 1);
        assert_eq!(s.span_count("item/child"), 1);
        assert_eq!(s.span_count("outer/after"), 1);
        reset();
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = GLOBAL_GATE.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_enabled(false);
        counter("c", 1);
        hist("h", 1);
        {
            let _s = span("s");
        }
        let snap = snapshot();
        set_enabled(true);
        assert!(snap.is_empty());
        reset();
    }

    #[test]
    fn json_is_sorted_and_deterministic() {
        let r = Registry::new();
        r.add_counter("z/last", 1);
        r.add_counter("a/first", 2);
        r.add_hist("mid", 9);
        r.add_span("s/p", 10);
        r.add_span("s/p", 32);
        let s = r.snapshot();
        let j = s.to_json(false);
        assert_eq!(
            j,
            "{\"counters\":{\"a/first\":2,\"z/last\":1},\
             \"histograms\":{\"mid\":[[4,1]]},\
             \"spans\":{\"s/p\":{\"count\":2}}}"
        );
        // Timed form carries ns; untimed form must not mention ns.
        let timed = s.to_json(true);
        assert!(timed.contains("\"ns\":42"));
        assert!(!j.contains("\"ns\""));
        // Snapshot of equal content renders identically.
        assert_eq!(j, r.snapshot().to_json(false));
    }

    #[test]
    fn jsonl_lines_parse_shape() {
        let r = Registry::new();
        r.add_counter("c", 7);
        r.add_span("s", 5);
        let out = r.snapshot().to_jsonl(false);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"kind\":\"counter\",\"name\":\"c\",\"value\":7}"
        );
        assert_eq!(lines[1], "{\"kind\":\"span\",\"name\":\"s\",\"count\":1}");
    }

    #[test]
    fn json_escapes_strings() {
        let mut out = String::new();
        push_json_string(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn counters_commute_across_threads() {
        let r = std::sync::Arc::new(Registry::new());
        std::thread::scope(|sc| {
            for t in 0..8u64 {
                let r = r.clone();
                sc.spawn(move || {
                    for i in 0..100 {
                        r.add_counter("sum", t + i);
                    }
                });
            }
        });
        let expect: u64 = (0..8u64)
            .map(|t| (0..100).map(|i| t + i).sum::<u64>())
            .sum();
        assert_eq!(r.snapshot().counter("sum"), expect);
    }
}
