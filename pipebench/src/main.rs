//! Runs one benchmark workload and prints its metrics.
//!
//! Usage: `pipebench --workload <probe-sweep|fleet-sim|serve-mix>
//! --seed <n> --seconds <n> --trace <0|1>`
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! are a human-readable account of the same run.

use std::process::ExitCode;

use pipebench::{fleet_sim, probe_sweep, report, serve_mix, Mode, RunCtx};

const USAGE: &str = "usage: pipebench --workload <probe-sweep|fleet-sim|serve-mix> \
                     --seed <n> --seconds <1..=600> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    mode: Mode,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut mode) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed: unsigned integer")?),
            "--seconds" => match value.parse() {
                Ok(s @ 1..=600) => seconds = Some(s),
                _ => return Err("--seconds: integer in 1..=600".to_string()),
            },
            "--trace" => match value.as_str() {
                "0" => mode = Some(Mode::Untraced),
                "1" => mode = Some(Mode::Traced),
                _ => return Err("--trace: 0 or 1".to_string()),
            },
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        mode: mode.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ctx = RunCtx::new(args.seed, args.mode);
    // End-to-end numbers are measured with the program's own recording
    // off; traced runs switch it on around the work they attribute.
    cisa_obs::set_enabled(false);
    let run = match args.workload.as_str() {
        "probe-sweep" => probe_sweep::run(&ctx, &probe_sweep::Scale::for_seconds(args.seconds)),
        "fleet-sim" => fleet_sim::run(&ctx, &fleet_sim::Scale::for_seconds(args.seconds)),
        "serve-mix" => serve_mix::run(&ctx, &serve_mix::Scale::for_seconds(args.seconds)),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let r = report(&args.workload, args.mode, &run);
    for line in &r.lines {
        println!("{line}");
    }
    println!("{}", r.json);
    ExitCode::SUCCESS
}
