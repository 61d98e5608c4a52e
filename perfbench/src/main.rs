//! `perfbench` — end-to-end and per-layer benchmark of p²-mdie.
//!
//! ```sh
//! perfbench --workload carcino-learn --seed 1 --seconds 35 --trace 0
//! ```
//!
//! `--trace 0` runs the workload untraced for about `--seconds` and reports
//! the end-to-end metrics; `--trace 1` makes one fixed traced pass with the
//! flight recorder and the prover hot counters on and reports the
//! per-layer metrics, writing the layer table and the metric snapshots
//! under `perfbench/out/`. Human
//! readable lines go first; the last line of standard output is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`.
//!
//! `perfbench/run.py` builds this binary and the `p2mdie-worker` binary
//! it spawns, then runs it with the same arguments.

mod layers;
mod stats;
mod workload;

use std::fmt::Write as _;
use workload::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value}"))),
                )
            }
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed must be an integer")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds must be a positive number")),
        trace: trace.unwrap_or_else(|| usage("--trace must be 0 or 1")),
    }
}

/// A JSON number: finite values with all their digits; an infinite value
/// (a failed operation in a latency tail) as the largest double; NaN as
/// null.
fn json_number(v: f64) -> String {
    if v.is_nan() {
        "null".to_owned()
    } else if v.is_infinite() {
        format!("{:e}", f64::MAX.copysign(v))
    } else {
        format!("{v:?}")
    }
}

fn main() {
    let args = parse_args();
    let name = args.workload.name();
    let result = if args.trace {
        layers::run(args.workload, args.seed)
    } else {
        workload::run(args.workload, args.seed, args.seconds)
    };
    let tally = &result.tally;
    let expected = if args.trace {
        &layers::PER_LAYER[..]
    } else {
        &workload::END_TO_END[..]
    };
    assert!(
        result
            .metrics
            .iter()
            .map(|(n, _, u)| (n.as_str(), *u))
            .eq(expected.iter().copied()),
        "reported metrics do not match the declared list"
    );

    println!(
        "perfbench {name} seed {} ({} mode, p = {}, {} cores available)",
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        workload::WORKERS,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    for note in &result.notes {
        println!("  {note}");
    }
    for (metric, value, unit) in &result.metrics {
        let mut line = format!("  {metric:<40} {value:>14.6} {unit}");
        if metric.starts_with("vspeedup") {
            let verdict = if *value < 1.0 {
                "BELOW sequential (1.0)"
            } else {
                "at or above sequential (1.0)"
            };
            let _ = write!(line, "   {verdict}");
        }
        println!("{line}");
    }
    println!(
        "  {:<40} {:>14.6} fraction ({} of {} operations failed)",
        "failed_frac",
        tally.failed_frac(),
        tally.failed,
        tally.attempted
    );
    for reason in &tally.reasons {
        println!("  failure: {reason}");
    }

    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed
    );
    for (i, (metric, value, unit)) in result.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{metric}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    json.push_str("}}");
    println!("{json}");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root declares exactly the
    /// workloads and metrics this binary reports, with the same units.
    #[test]
    fn benchmark_json_matches_the_declared_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let compact: String = text.split_whitespace().collect();
        for w in Workload::ALL {
            assert!(
                compact.contains(&format!("\"name\":\"{}\",\"why\"", w.name())),
                "workload {} missing",
                w.name()
            );
        }
        let declared = workload::END_TO_END.iter().chain(layers::PER_LAYER.iter());
        for (name, unit) in declared.clone() {
            assert!(
                compact.contains(&format!("\"name\":\"{name}\",\"unit\":\"{unit}\"")),
                "metric {name} ({unit}) missing"
            );
        }
        let names = compact.matches("\"name\":").count();
        assert_eq!(names, Workload::ALL.len() + declared.count());
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_number(0.1234567890123), "0.1234567890123");
        assert_eq!(json_number(2.0), "2.0");
        assert_eq!(json_number(f64::INFINITY), "1.7976931348623157e308");
        assert_eq!(json_number(f64::NAN), "null");
    }
}
