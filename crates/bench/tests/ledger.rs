//! The bench ledger's contract: argument handling, a BENCH file that
//! parses back to the exact bits written, the gate policy, and the
//! committed baselines carrying every gated key.

use std::path::PathBuf;

use cisa_bench::ledger::{
    baseline_number, Args, Bench, Record, Value, ALL, FLEET, PROBE, SERVE, TABLE,
};
use cisa_bench::results_dir;

fn args(bench: &Bench, extra: &[&str], argv: &[&str]) -> Result<Args, String> {
    Args::parse(bench, extra, argv.iter().map(|s| s.to_string()))
}

#[test]
fn args_default_out_and_hand_back_extra_flags() {
    let a = args(&FLEET, &["--chips"], &[]).expect("empty argv");
    assert_eq!(a.out, results_dir().join("BENCH_fleet.json"));
    assert_eq!(a.check, None);
    assert_eq!(a.get("--chips", 1024usize), 1024);

    let argv = ["--chips", "8", "--check", "b.json", "--out", "x/y.json"];
    let a = args(&FLEET, &["--chips"], &argv).expect("known flags");
    assert_eq!(a.get("--chips", 1024usize), 8);
    assert_eq!(a.check, Some(PathBuf::from("b.json")));
    assert_eq!(a.out, PathBuf::from("x/y.json"));

    assert!(args(&PROBE, &[], &["--chips", "8"]).is_err(), "unknown");
    assert!(args(&PROBE, &[], &["--out"]).is_err(), "missing value");
}

#[test]
fn rendered_record_round_trips_bit_identically() {
    let reals = [
        0.1 + 0.2,
        std::f64::consts::PI,
        1.0 / 3.0,
        8.206202e2,
        2.148883e-5,
        1e-300,
        123456789.0,
    ];
    let counts = [0u64, 255_780, 75_651_079, 1 << 53];
    let mut r = Record::new();
    for (i, x) in reals.iter().enumerate() {
        r.num(format!("r{i}"), *x);
    }
    for (i, n) in counts.iter().enumerate() {
        r.int(format!("c{i}"), *n);
    }
    let nested: Vec<(String, f64)> = (0..reals.len())
        .map(|i| (format!("p.{i}"), reals[i] * 7.0))
        .collect();
    r.push("nested", Value::Map(nested.clone()));
    let text = r.render();

    assert!(text.starts_with("{\n  \"schema\": 1,\n  \"threads\": "));
    for (i, x) in reals.iter().enumerate() {
        let back = baseline_number(&text, &format!("r{i}")).expect("real");
        assert_eq!(back.to_bits(), x.to_bits(), "r{i}");
    }
    for (i, n) in counts.iter().enumerate() {
        assert_eq!(baseline_number(&text, &format!("c{i}")), Some(*n as f64));
        assert!(text.contains(&format!("\"c{i}\": {n},")), "integer form");
    }
    let json = cisa_serve::json::parse(&text).expect("valid JSON");
    for (k, x) in &nested {
        let back = json.get("nested").and_then(|m| m.get(k)?.as_f64());
        assert_eq!(back.map(f64::to_bits), Some(x.to_bits()), "{k}");
    }
    // One top-level key per line: header + 7 reals + 4 counts + map.
    let top = text.lines().filter(|l| l.starts_with("  \"")).count();
    assert_eq!(top, 14);
}

fn record_with(key: &str, x: f64) -> Record {
    let mut r = Record::new();
    r.num(key, x);
    r
}

#[test]
fn hard_floor_fails_without_check() {
    let v = TABLE.check(&record_with("speedup", 1.5), None);
    let v = v.expect("gated");
    assert_eq!((v.len(), v[0].floor, v[0].passed()), (1, 2.0, false));
    let v = TABLE.check(&record_with("speedup", 2.5), None);
    assert!(v.expect("gated")[0].passed());
}

#[test]
fn retention_applies_only_with_check() {
    let r = record_with("speedup", 3.0);
    assert!(PROBE.check(&r, None).expect("gated")[0].passed());
    let v = PROBE.check(&r, Some("{\"speedup\": 5.0}")).expect("gated");
    assert_eq!((v[0].baseline, v[0].floor), (Some(5.0), 3.75));
    assert!(!v[0].passed());
    // The hard floor still wins over a small baseline.
    let v = TABLE.check(&r, Some("{\"speedup\": 1.0}")).expect("gated");
    assert_eq!((v[0].floor, v[0].passed()), (2.0, true));
}

#[test]
fn missing_gated_key_is_an_error_not_a_pass() {
    let r = record_with("speedup", 9.0);
    assert!(PROBE.check(&r, Some("{\"fused_sweep_s\": 1.0}")).is_err());
    assert!(PROBE.check(&r, Some("not json")).is_err());
    assert!(PROBE.check(&Record::new(), None).is_err());
    let nan = record_with("speedup", f64::NAN);
    assert!(!PROBE.check(&nan, None).expect("gated")[0].passed());
}

/// A record with the header, one count and one real.
fn counted(migrations: u64) -> Record {
    let mut r = Record::new();
    r.int("migrations", migrations).num("sim_s", 7.8);
    r
}

#[test]
fn exact_counts_pass_only_on_equal_counts() {
    let baseline = "{\"schema\": 1, \"threads\": 64, \"migrations\": 111774, \"sim_s\": 3.1}";
    // Equal counts pass; the header's worker count and reals are exempt.
    let checks = FLEET.check_counts(&counted(111_774), Some(baseline));
    let keys: Vec<&str> = checks.iter().map(|c| c.key.as_str()).collect();
    assert_eq!(keys, ["schema", "migrations"]);
    assert!(checks.iter().all(|c| c.passed()), "{checks:?}");

    // One count off fails, whichever way it moved.
    for n in [111_773, 111_775] {
        let checks = FLEET.check_counts(&counted(n), Some(baseline));
        let failed: Vec<&str> = checks
            .iter()
            .filter(|c| !c.passed())
            .map(|c| c.key.as_str())
            .collect();
        assert_eq!(failed, ["migrations"], "{n}");
    }

    // A count the baseline lacks, or an unreadable baseline, never passes.
    let checks = FLEET.check_counts(&counted(111_774), Some("{\"schema\": 1}"));
    assert!(!checks.iter().all(|c| c.passed()));
    let checks = FLEET.check_counts(&counted(111_774), Some("not json"));
    assert!(checks.iter().all(|c| !c.passed()));

    // Only under `--check`, and only for a bench that opts in.
    assert!(FLEET.check_counts(&counted(1), None).is_empty());
    for bench in [PROBE, TABLE, SERVE] {
        assert!(!bench.exact_counts, "{}", bench.file);
        assert!(bench.check_counts(&counted(1), Some(baseline)).is_empty());
    }
}

/// Every key a gate reads parses to a finite number in its committed
/// baseline, driven by the same gate constants the binaries run.
#[test]
fn committed_baselines_carry_every_gated_key() {
    let root = results_dir()
        .parent()
        .expect("workspace root")
        .to_path_buf();
    for bench in ALL {
        let text = std::fs::read_to_string(root.join(bench.file)).expect(bench.file);
        for gate in bench.gates {
            let v = baseline_number(&text, gate.key);
            assert!(
                v.is_some_and(f64::is_finite),
                "{}: {} = {v:?}",
                bench.file,
                gate.key
            );
        }
    }
    assert_eq!(baseline_number("{\"a\": 1}", "b"), None);
    assert_eq!(baseline_number("not json", "a"), None);
}
