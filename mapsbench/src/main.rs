//! Benchmark command:
//!
//! ```sh
//! cargo run --release --manifest-path mapsbench/Cargo.toml -- \
//!     --workload rush_hour --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. A failed correctness
//! gate still prints it (with `"correct": false`) and exits with code 1.

use maps_simulator::alloc::TrackingAllocator;
use mapsbench::{run, Options, Report, Scale, Workload};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator::new();

const USAGE: &str = "usage: mapsbench --workload <rush_hour|fine_grid|churn_durable> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        scale: Scale::Full,
        work_dir: std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("{}", std::process::id())),
    })
}

fn json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report = run(&opts);
    if report.metrics.iter().any(|m| !m.value.is_finite()) {
        report.correct = false;
        report.mismatches.push("a metric is not finite".into());
        for m in &mut report.metrics {
            if !m.value.is_finite() {
                m.value = 0.0;
            }
        }
    }
    for why in &report.mismatches {
        eprintln!("mapsbench: {why}");
    }
    println!("{}", json(&report));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
