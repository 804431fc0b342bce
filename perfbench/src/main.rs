//! End-to-end and per-layer benchmark of the acep streaming runtime.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <stocks_drift|skew_flip|iot_fleet> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--policy static` measures the untraced run under `PolicyKind::Static`
//! instead of the adaptive policy.
//!
//! With `--trace 0` the run checks the program's outputs and prints the
//! end-to-end metrics; with `--trace 1` it prints the per-layer metrics
//! of a traced run. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`; a readable table
//! goes to standard error. See `perfbench/README.md`.

mod e2e;
mod latency;
mod query;
mod trace;
mod workload;

use std::process::ExitCode;

/// Metrics in the order they were added, each with its unit.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    pub fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }
}

pub struct Outcome {
    pub ledger: e2e::Ledger,
    pub report: Report,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: acep-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--policy adaptive|static]",
        workload::NAMES.join("|")
    );
    ExitCode::from(2)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = std::collections::HashMap::new();
    for pair in args.chunks(2) {
        match pair {
            [flag, value] if flag.starts_with("--") => {
                opts.insert(flag.trim_start_matches("--").to_string(), value.clone());
            }
            _ => return usage(),
        }
    }
    let get = |k: &str| opts.get(k).map(String::as_str);
    let (Some(name), Some(seed), Some(seconds), Some(trace)) = (
        get("workload"),
        get("seed").and_then(|s| s.parse::<u64>().ok()),
        get("seconds").and_then(|s| s.parse::<f64>().ok()),
        get("trace"),
    ) else {
        return usage();
    };
    let Some(w) = workload::build(name, seed) else {
        return usage();
    };
    eprintln!(
        "{}: seed {seed}, {} events, {} queries, disorder bound {} ms, W=1, {} CPUs available",
        w.name,
        w.events(),
        w.queries.len(),
        w.bound,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let outcome = match (trace, get("policy").unwrap_or("adaptive")) {
        ("0", "adaptive") => e2e::run(&w, seconds, false),
        ("0", "static") => e2e::run(&w, seconds, true),
        ("1", "adaptive") => trace::run(&w, seconds),
        _ => return usage(),
    };
    let correct = outcome.ledger.errors.is_empty();
    for (name, value, unit) in &outcome.report.metrics {
        eprintln!("  {name:<28} {value:>16.6} {unit}");
    }
    let metrics: Vec<String> = outcome
        .report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.ledger.attempted.max(1),
        outcome.ledger.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
