//! The bench ledger: the one place that knows the `BENCH_*.json` file
//! format and the `--check` gate policy.
//!
//! A gated bench binary takes its [`Args`] from its [`Bench`] constant,
//! fills a [`Record`], and hands it to [`Bench::finish`]. Every BENCH
//! file starts with the same header (`schema`, `threads`), then the
//! binary's entries in order, one top-level key per line, with numbers
//! in `cisa_serve::json::JsonWriter`'s shortest-round-trip form: a value
//! read back with [`baseline_number`] has exactly the measured bits.
//! A gate passes when the measured value reaches
//! `max(hard_floor, baseline × retention)`; the baseline term applies
//! only under `--check <baseline.json>`. A bench whose counts are
//! deterministic also opts into [`Bench::exact_counts`]: under
//! `--check`, every count in the record except the header's `threads`
//! must equal the baseline's, so a change in work done is a declared
//! baseline change, never noise.

use std::path::PathBuf;
use std::str::FromStr;

use cisa_serve::json::JsonWriter;

use crate::results_dir;

/// Version of the shared BENCH file layout.
const SCHEMA: u64 = 1;

/// One retention gate on a top-level record entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gate {
    /// The gated entry; the same key is read from the baseline.
    pub key: &'static str,
    /// Fraction of the baseline value the measured value must retain
    /// (applies only with `--check`).
    pub retention: f64,
    /// Absolute floor that applies with or without `--check`.
    pub hard_floor: f64,
}

const fn gate(key: &'static str, retention: f64, hard_floor: f64) -> Gate {
    Gate {
        key,
        retention,
        hard_floor,
    }
}

/// A gated bench: the file it writes and the gates it must pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bench {
    /// File name under `results/` (and of the committed baseline).
    pub file: &'static str,
    /// Gates applied after the record is written.
    pub gates: &'static [Gate],
    /// Whether `--check` also requires every count (an
    /// [`Value::Int`] entry) except the header's `threads` to equal the
    /// baseline's. Only for benches whose counts are a pure function of
    /// their inputs, run in CI with the inputs the baseline was taken
    /// with.
    pub exact_counts: bool,
}

/// Cold probe sweep: the fused-vs-reference speedup keeps 75% of the
/// baseline's.
pub const PROBE: Bench = Bench {
    file: "BENCH_probe.json",
    gates: &[gate("speedup", 0.75, 0.0)],
    exact_counts: false,
};

/// Warm table fill: the block-vs-scalar speedup stays at least 2x and
/// keeps half of the baseline's.
pub const TABLE: Bench = Bench {
    file: "BENCH_table.json",
    gates: &[gate("speedup", 0.5, 2.0)],
    exact_counts: false,
};

/// Fleet simulation: migration-aware beats static-random on EDP and
/// p99 slowdown, keeping half of each baseline gain; under `--check`
/// every work and outcome count matches the baseline exactly (the run
/// is bit-identical at any `CISA_THREADS`).
pub const FLEET: Bench = Bench {
    file: "BENCH_fleet.json",
    gates: &[
        gate("migration_aware_edp_gain", 0.5, 1.0),
        gate("migration_aware_p99_slowdown_gain", 0.5, 1.0),
    ],
    exact_counts: true,
};

/// Affinity service load: warm throughput stays at least 1000 req/s
/// and keeps half of the baseline's.
pub const SERVE: Bench = Bench {
    file: "BENCH_serve.json",
    gates: &[gate("throughput_rps", 0.5, 1000.0)],
    exact_counts: false,
};

/// Every gated bench.
pub const ALL: [Bench; 4] = [PROBE, TABLE, FLEET, SERVE];

/// The number under top-level `key` of a BENCH JSON text. `None` if the
/// text is not JSON or the member is absent or not a number.
pub fn baseline_number(json: &str, key: &str) -> Option<f64> {
    cisa_serve::json::parse(json).ok()?.get(key)?.as_f64()
}

/// Parsed command line of a gated bench.
#[derive(Debug)]
pub struct Args {
    /// Where the record is written (`--out`, default `results/<file>`).
    pub out: PathBuf,
    /// Baseline to gate against (`--check`).
    pub check: Option<PathBuf>,
    extra: Vec<(String, String)>,
}

impl Args {
    /// Parses `argv` (program name excluded): `--out`, `--check`, and
    /// the binary's own `extra_flags`, each followed by one value.
    pub fn parse(
        bench: &Bench,
        extra_flags: &[&str],
        argv: impl IntoIterator<Item = String>,
    ) -> Result<Args, String> {
        let mut args = Args {
            out: results_dir().join(bench.file),
            check: None,
            extra: Vec::new(),
        };
        let mut it = argv.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--out" => args.out = PathBuf::from(value),
                "--check" => args.check = Some(PathBuf::from(value)),
                f if extra_flags.contains(&f) => args.extra.push((flag, value)),
                _ => return Err(format!("unknown argument: {flag}")),
            }
        }
        Ok(args)
    }

    /// The last value given for `flag`, parsed, or `default` if absent.
    /// An unparsable value is a usage error (exit 2).
    pub fn get<T: FromStr>(&self, flag: &str, default: T) -> T {
        match self.extra.iter().rev().find(|(f, _)| f == flag) {
            None => default,
            Some((_, v)) => v
                .parse()
                .unwrap_or_else(|_| exit(2, &format!("{flag}: bad value {v}"))),
        }
    }
}

/// One record entry's value.
#[derive(Debug)]
pub enum Value {
    /// An exact count.
    Int(u64),
    /// A measured or derived real.
    Num(f64),
    /// A nested name → number map, in insertion order.
    Map(Vec<(String, f64)>),
}

impl From<cisa_fleet::report::Field> for Value {
    fn from(f: cisa_fleet::report::Field) -> Value {
        match f {
            cisa_fleet::report::Field::Count(n) => Value::Int(n),
            cisa_fleet::report::Field::Real(x) => Value::Num(x),
        }
    }
}

/// The ordered entries of one BENCH file, header included.
#[derive(Debug)]
pub struct Record {
    entries: Vec<(String, Value)>,
}

impl Default for Record {
    fn default() -> Self {
        Record::new()
    }
}

impl Record {
    /// A record holding the shared header: `schema` and the
    /// `CISA_THREADS` worker count.
    pub fn new() -> Record {
        let mut r = Record {
            entries: Vec::new(),
        };
        r.int("schema", SCHEMA)
            .int("threads", cisa_explore::threads() as u64);
        r
    }

    /// Appends entry `key`. Keys are unique within a record.
    pub fn push(&mut self, key: impl Into<String>, value: Value) -> &mut Self {
        let key = key.into();
        assert!(self.get(&key).is_none(), "duplicate BENCH key {key:?}");
        self.entries.push((key, value));
        self
    }

    /// Appends a count.
    pub fn int(&mut self, key: impl Into<String>, n: u64) -> &mut Self {
        self.push(key, Value::Int(n))
    }

    /// Appends a real.
    pub fn num(&mut self, key: impl Into<String>, x: f64) -> &mut Self {
        self.push(key, Value::Num(x))
    }

    /// The value of entry `key`.
    fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Renders the record as the BENCH file text: one top-level key per
    /// line, nested maps one member per line.
    pub fn render(&self) -> String {
        let items = self.entries.iter().map(|(k, v)| {
            let value = match v {
                Value::Int(n) => scalar(|w| w.uint(*n)),
                Value::Num(x) => scalar(|w| w.num(*x)),
                Value::Map(m) => object(m.iter().map(|(k, x)| (k, scalar(|w| w.num(*x)))), "  "),
            };
            (k, value)
        });
        object(items, "") + "\n"
    }
}

/// `{`, then one `"key": value` member per line indented two spaces
/// past `indent`, then `}`.
fn object<'a>(items: impl Iterator<Item = (&'a String, String)>, indent: &str) -> String {
    let members: Vec<String> = items
        .map(|(k, v)| format!("{indent}  {}: {v}", scalar(|w| w.str_val(k))))
        .collect();
    format!("{{\n{}\n{indent}}}", members.join(",\n"))
}

/// One JSON scalar in the shared writer's form.
fn scalar(f: impl FnOnce(&mut JsonWriter) -> &mut JsonWriter) -> String {
    let mut w = JsonWriter::new();
    f(&mut w);
    w.finish()
}

/// The outcome of one gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// The gate applied.
    pub gate: Gate,
    /// The value this run measured.
    pub measured: f64,
    /// The baseline's value, under `--check`.
    pub baseline: Option<f64>,
    /// `max(hard_floor, baseline × retention)`.
    pub floor: f64,
}

impl Verdict {
    /// Whether the measured value reaches the floor (a non-finite
    /// measurement never does).
    pub fn passed(&self) -> bool {
        self.measured >= self.floor
    }
}

/// One exact-count comparison of [`Bench::exact_counts`].
#[derive(Debug, Clone, PartialEq)]
pub struct CountCheck {
    /// The record entry compared.
    pub key: String,
    /// The count this run recorded.
    pub measured: u64,
    /// The baseline's number under the same key, if it has one.
    pub baseline: Option<f64>,
}

impl CountCheck {
    /// Whether the baseline holds exactly the measured count (a key the
    /// baseline lacks never passes).
    pub fn passed(&self) -> bool {
        self.baseline == Some(self.measured as f64)
    }
}

impl Bench {
    /// Parses the process arguments; a usage error exits 2.
    pub fn args(&self, extra_flags: &[&str]) -> Args {
        Args::parse(self, extra_flags, std::env::args().skip(1)).unwrap_or_else(|e| exit(2, &e))
    }

    /// Applies every gate to `record`, against the `baseline` text when
    /// one is given. A gated key missing from the record or the
    /// baseline (or not a number there) is an error, never a pass.
    pub fn check(&self, record: &Record, baseline: Option<&str>) -> Result<Vec<Verdict>, String> {
        let missing = |whose: &str, key: &str| format!("{whose} has no number {key:?}");
        let verdict = |gate: Gate| {
            let measured = match record.get(gate.key) {
                Some(Value::Num(x)) => *x,
                Some(Value::Int(n)) => *n as f64,
                _ => return Err(missing("record", gate.key)),
            };
            let baseline = match baseline {
                None => None,
                Some(text) => Some(
                    baseline_number(text, gate.key).ok_or_else(|| missing("baseline", gate.key))?,
                ),
            };
            let floor =
                baseline.map_or(gate.hard_floor, |b| gate.hard_floor.max(b * gate.retention));
            Ok(Verdict {
                gate,
                measured,
                baseline,
                floor,
            })
        };
        self.gates.iter().map(|&g| verdict(g)).collect()
    }

    /// Compares every count in `record` except the header's `threads`
    /// with the `baseline` text, in record order. Empty unless this
    /// bench opts into [`Bench::exact_counts`] and a baseline is given.
    pub fn check_counts(&self, record: &Record, baseline: Option<&str>) -> Vec<CountCheck> {
        let Some(text) = baseline.filter(|_| self.exact_counts) else {
            return Vec::new();
        };
        let json = cisa_serve::json::parse(text).ok();
        record
            .entries
            .iter()
            .filter_map(|(key, value)| match value {
                Value::Int(n) if key != "threads" => Some(CountCheck {
                    key: key.clone(),
                    measured: *n,
                    baseline: json.as_ref().and_then(|j| j.get(key)?.as_f64()),
                }),
                _ => None,
            })
            .collect()
    }

    /// Writes `record` to `args.out` (creating its directory), then
    /// applies the gates, printing one line per gate. Exits 1 on a
    /// missed gate or an unusable baseline.
    pub fn finish(&self, args: &Args, record: &Record) {
        if let Some(dir) = args.out.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
        std::fs::write(&args.out, record.render()).expect("write BENCH file");
        println!("wrote {}", args.out.display());

        let baseline = args.check.as_ref().map(|path| {
            std::fs::read_to_string(path)
                .unwrap_or_else(|e| exit(1, &format!("read baseline {}: {e}", path.display())))
        });
        let verdicts = self.check(record, baseline.as_deref());
        let verdicts = verdicts.unwrap_or_else(|e| exit(1, &e));
        for v in &verdicts {
            let (key, hard) = (v.gate.key, v.gate.hard_floor);
            let base = v.baseline.map_or(String::new(), |b| {
                format!(", baseline {b:.4} x {}", v.gate.retention)
            });
            let status = if v.passed() { "ok" } else { "FAIL" };
            println!(
                "gate {key}: measured {:.4} vs floor {:.4} (hard floor {hard}{base}) {status}",
                v.measured, v.floor
            );
        }
        let counts = self.check_counts(record, baseline.as_deref());
        for c in counts.iter().filter(|c| !c.passed()) {
            let base = c.baseline.map_or("none".to_string(), |b| b.to_string());
            println!(
                "count {}: measured {} vs baseline {base} FAIL",
                c.key, c.measured
            );
        }
        if !counts.is_empty() {
            let matched = counts.iter().filter(|c| c.passed()).count();
            println!("counts: {matched} of {} equal the baseline", counts.len());
        }
        if !verdicts.iter().all(Verdict::passed) {
            exit(1, &format!("{} gate missed", self.file));
        }
        if !counts.iter().all(CountCheck::passed) {
            exit(1, &format!("{} counts differ from the baseline", self.file));
        }
        println!("gates: ok");
    }
}

fn exit(code: i32, msg: &str) -> ! {
    eprintln!("FAIL: {msg}");
    std::process::exit(code);
}
