//! Self-tests of the benchmark at tiny scale: every metric is printed
//! with its unit and matches `BENCHMARK.json`, the tail is taken at or
//! above the median and reports its sample count, a failed check
//! raises the error rate, and exact counts repeat across runs.
//!
//! Run with `cargo test --release --offline`.

use std::sync::Mutex;

use cisa_serve::json::{self, Json};
use pipebench::{
    fleet_sim, median, probe_sweep, report, serve_mix, tail, Mode, Run, RunCtx, END_TO_END,
    PER_LAYER, TAIL_BEYOND,
};

/// Runs share the process-wide `cisa-obs` registry, so tests run one
/// at a time.
static SERIAL: Mutex<()> = Mutex::new(());

const WORKLOADS: [&str; 3] = ["probe-sweep", "fleet-sim", "serve-mix"];

fn run(workload: &str, seed: u64, mode: Mode, corrupt_op: Option<usize>) -> Run {
    let ctx = RunCtx {
        corrupt_op,
        ..RunCtx::new(seed, mode)
    };
    match workload {
        "probe-sweep" => probe_sweep::run(
            &ctx,
            &probe_sweep::Scale {
                phases: 2,
                rows: 22,
                setups: 2,
            },
        ),
        "fleet-sim" => fleet_sim::run(
            &ctx,
            &fleet_sim::Scale {
                phases: 4,
                chips: 16,
                lifetimes: 2_000,
                shards: 4,
                rounds: 8,
                setups: 1,
            },
        ),
        "serve-mix" => serve_mix::run(
            &ctx,
            &serve_mix::Scale {
                phases: 2,
                warm_specs: 1,
                refines: 2,
                reads_per_step: 15,
                setups: 1,
            },
        ),
        other => panic!("unknown workload {other}"),
    }
}

/// The printed result: the JSON object on the last line, and the
/// readable lines before it.
fn printed(workload: &str, mode: Mode, run: &Run) -> (Json, Vec<String>) {
    let r = report(workload, mode, run);
    (json::parse(&r.json).expect("result is JSON"), r.lines)
}

fn metric(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

fn names_and_units(list: &Json) -> Vec<(String, String)> {
    list.as_arr()
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn metric_catalogue_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let bench = json::parse(&text).expect("BENCHMARK.json is JSON");
    assert_eq!(
        names_and_units(bench.get("end_to_end").expect("end_to_end")),
        owned(END_TO_END)
    );
    assert_eq!(
        names_and_units(bench.get("per_layer").expect("per_layer")),
        owned(PER_LAYER)
    );
    let workloads: Vec<&str> = bench
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for workload in WORKLOADS {
        for (mode, catalogue) in [(Mode::Untraced, END_TO_END), (Mode::Traced, PER_LAYER)] {
            let r = run(workload, 7, mode, None);
            let (result, lines) = printed(workload, mode, &r);
            assert_eq!(
                result.get("failed").and_then(Json::as_f64),
                Some(0.0),
                "{workload}"
            );
            assert!(
                matches!(result.get("correct"), Some(Json::Bool(true))),
                "{workload}"
            );
            let metrics = result
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics");
            assert_eq!(metrics.len(), catalogue.len(), "{workload} {mode:?}");
            for &(name, unit) in catalogue {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload}: {name} missing"));
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(unit),
                    "{workload}: {name}"
                );
                assert!(m
                    .get("value")
                    .and_then(Json::as_f64)
                    .is_some_and(f64::is_finite));
                assert!(
                    lines
                        .iter()
                        .any(|l| l.trim().starts_with(&format!("{name} = ")) && l.ends_with(unit)),
                    "{workload}: {name} not printed with its unit"
                );
            }
            if mode == Mode::Untraced {
                assert_eq!(metric(&result, "success_rate"), 1.0, "{workload}");
                assert!(
                    metric(&result, "latency_tail_ms") >= metric(&result, "latency_p50_ms"),
                    "{workload}: tail below p50"
                );
                let n = r.ops.len();
                assert!(
                    lines
                        .iter()
                        .any(|l| l.contains(&format!("over {n} samples ({TAIL_BEYOND} beyond)"))),
                    "{workload}: tail sample count not printed"
                );
            }
        }
    }
}

#[test]
fn tail_is_at_or_above_the_median_with_ten_samples_beyond() {
    let mut rng = pipebench::Rng::new(3, 0);
    for n in [1, 10, 20, 21, 22, 50, 98, 1_000] {
        let v: Vec<f64> = (0..n).map(|_| (rng.next_u64() % 1_000) as f64).collect();
        let Some(t) = tail(&v) else {
            assert!(n < 2 * TAIL_BEYOND + 1, "no tail for {n} samples");
            continue;
        };
        assert_eq!(t.n, n);
        assert!(t.value >= median(&v), "tail below median at n = {n}");
        assert!(v.iter().filter(|&&x| x > t.value).count() <= TAIL_BEYOND);
        assert!(v.iter().filter(|&&x| x >= t.value).count() > TAIL_BEYOND);
        assert!((0.0..=100.0).contains(&t.percentile));
    }
}

#[test]
fn a_failed_check_raises_the_error_rate() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for workload in WORKLOADS {
        let r = run(workload, 7, Mode::Untraced, Some(1));
        assert_eq!(
            r.failed(),
            1,
            "{workload}: the corrupted op must fail its check"
        );
        let (result, lines) = printed(workload, Mode::Untraced, &r);
        assert!(
            matches!(result.get("correct"), Some(Json::Bool(false))),
            "{workload}"
        );
        assert_eq!(
            result.get("failed").and_then(Json::as_f64),
            Some(1.0),
            "{workload}"
        );
        assert!(metric(&result, "success_rate") < 1.0, "{workload}");
        let rate = 1.0 / r.ops.len() as f64;
        assert!(
            lines
                .iter()
                .any(|l| l.contains(&format!("(error_rate {rate})"))),
            "{workload}: error_rate not raised"
        );
    }
}

#[test]
fn exact_counts_repeat_across_runs() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let exact: Vec<&str> = PER_LAYER
        .iter()
        .filter(|(name, unit)| {
            *unit == "count" || name.ends_with("_ratio") || name.contains("per_completion")
        })
        .map(|(name, _)| *name)
        .collect();
    for workload in WORKLOADS {
        let (a, b) = (
            run(workload, 11, Mode::Traced, None),
            run(workload, 11, Mode::Traced, None),
        );
        for name in &exact {
            let (va, vb) = (a.layers.0.get(*name), b.layers.0.get(*name));
            assert_eq!(
                va.map(|v| v.to_bits()),
                vb.map(|v| v.to_bits()),
                "{workload}: {name} differs between runs"
            );
        }
        // The readable lines carry the op counts and, for serve-mix,
        // the answers by source.
        assert_eq!(a.notes, b.notes, "{workload}: counts differ between runs");
        assert_eq!(a.ops.len(), b.ops.len());
    }
}
