//! End-to-end and per-layer benchmark of the omfl workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload pd-open-64k --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The process exits 1
//! when any correctness check fails and 2 on bad arguments. README.md
//! documents the workloads and metrics.

mod bench;
mod stats;
mod trace;

#[cfg(test)]
mod selftest;

use bench::{Config, Outcome, Scale, Workload};
use std::path::Path;

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        bench::WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Config {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if !args.len().is_multiple_of(2) {
        usage();
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let v = pair[1].as_str();
        match pair[0].as_str() {
            "--workload" => workload = Workload::from_name(v),
            "--seed" => seed = v.parse::<u64>().ok(),
            "--seconds" => seconds = v.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(v, "0" | "1").then_some(v == "1"),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    Config {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::Full,
        fault: None,
        trace_dir: Some(Path::new(env!("CARGO_MANIFEST_DIR")).join("out")),
    }
}

/// The result line: every value printed in full (shortest round-trip form).
pub fn result_json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn info_json(out: &Outcome) -> String {
    let fields: Vec<String> = out
        .info
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{v}\""))
        .collect();
    format!("{{\"info\": {{{}}}}}", fields.join(", "))
}

fn main() {
    // Thread counts follow the machine, not the caller's environment: the
    // engine's scan pool reads this variable.
    std::env::remove_var("OMFL_THREADS");
    let cfg = parse_args();
    let out = match bench::run(&cfg) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for p in &out.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    println!("{}", info_json(&out));
    println!("{}", result_json(&out));
    if !out.correct() {
        std::process::exit(1);
    }
}
