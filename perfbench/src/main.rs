//! End-to-end and per-layer benchmark of the percentage-query service.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_sql --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each run is one workload in a fresh process: generate the tables from
//! the seed, check every query shape's answer against a naive evaluation,
//! then run a closed loop of one client for `--seconds` (rounded up to whole
//! passes over the shapes). `--trace 0` reports the end-to-end metrics,
//! `--trace 1` the per-layer ones from spans the benchmark records around
//! its calls into each crate, and writes the spans to `perfbench/out/`.
//! The last line of standard output is the result as JSON; the process
//! exits non-zero when any answer was wrong or any operation failed.
//! `--describe` prints the record of workloads and metrics kept in
//! `perfbench/workloads.json`.

mod metrics;
mod oracle;
mod run;
mod spans;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use workloads::Workload;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        if flag == "--describe" {
            return Ok(None);
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds {seconds}: must be positive"));
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    }))
}

/// Cores, CPU model, compiler and thread setting of this host.
fn host_json() -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let threads = std::env::var("PA_THREADS").unwrap_or_else(|_| "unset".to_string());
    format!(
        "{{\"cores\": {cores}, \"cpu\": \"{cpu}\", \"rustc\": \"{}\", \"PA_THREADS\": \"{threads}\"}}",
        env!("PERFBENCH_RUSTC")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", metrics::describe());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = Workload::named(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {}; choose one of {:?}",
            args.workload,
            workloads::NAMES
        );
        return ExitCode::from(2);
    };
    let outcome = match run::run(&w, args.seed, 1.0, args.seconds, args.trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", w.name);
            return ExitCode::FAILURE;
        }
    };
    let host = host_json();
    let mut info = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"host\": {host}",
        w.name, args.seed, args.trace as u8
    );
    for (k, v) in &outcome.info {
        write!(info, ", \"{k}\": {}", metrics::json_str(v)).expect("write to String");
    }
    info.push('}');
    if let Some(spans) = &outcome.spans {
        let dir = std::path::Path::new("perfbench/out");
        let path = dir.join(format!("trace-{}-seed{}.json", w.name, args.seed));
        let mut dump = info.clone();
        dump.pop();
        writeln!(
            dump,
            ", \"metrics\": {}, \"spans\": {spans}}}",
            metrics_json(&outcome)
        )
        .expect("write to String");
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, dump)) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{info}");
    let correct = outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        metrics_json(&outcome)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn metrics_json(o: &run::Outcome) -> String {
    let table = if o.spans.is_some() {
        &metrics::PER_LAYER[..]
    } else {
        &metrics::END_TO_END[..]
    };
    let items: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, value)| {
            let unit = table
                .iter()
                .find(|m| m.name == *name)
                .expect("every reported metric is defined in metrics.rs")
                .unit;
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}
