//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload from this process and prints, as the last line of
//! standard output, `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The line before it holds the run's provenance and sample
//! details. Exit status 2 on bad arguments, 1 when the workload could not
//! be set up or no repetition completed.

use overset_perfbench::run::{end_to_end, json_str, traced, Args, Outcome};
use overset_perfbench::workload::Workload;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <airfoil-6|store-dynlb-18|delta-7> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// Where the traced run writes its spans: under the Cargo target
/// directory, which the repository ignores.
fn spans_path(a: &Args) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "perfbench/target".into());
    PathBuf::from(target).join("perfbench").join(format!(
        "{}-seed{}.trace.json",
        a.workload.name(),
        a.seed
    ))
}

fn print(o: &Outcome) {
    for f in &o.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    for m in &o.metrics {
        eprintln!("{:>30} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let details: Vec<String> =
        o.details.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
    println!("{{{}}}", details.join(", "));
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            // Every metric is a finite number by construction; a non-finite
            // one would make the line invalid JSON, so it is a bug.
            assert!(m.value.is_finite(), "metric {} is {}", m.name, m.value);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    overset_perfbench::sys::use_one_malloc_arena();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace { traced(&args, &spans_path(&args)) } else { end_to_end(&args) };
    match outcome {
        Ok(o) => {
            print(&o);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}
