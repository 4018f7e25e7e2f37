//! The steadiness command: runs one workload k times (one process per run,
//! a new seed each time) and prints, per end-to-end metric, the median,
//! the quartiles and the spread against the bound in `BENCHMARK.json`.
//! With `--sets 2` it runs two such sets and also prints how far the
//! second median moved from the first, in the metric's worse direction.

use crate::stats::{median, quartiles};
use crate::Args;
use std::collections::BTreeMap;
use std::process::Command;

/// One end-to-end metric's entry in `BENCHMARK.json`.
struct Bound {
    lower_is_better: bool,
    bound: f64,
}

/// Reads the `end_to_end` entries of `BENCHMARK.json` in the working
/// directory (the checkout root). A small scan, not a JSON parser: it
/// relies on each entry being one `{...}` object with string and number
/// values.
fn bounds() -> BTreeMap<String, Bound> {
    let text = std::fs::read_to_string("BENCHMARK.json").unwrap_or_default();
    let section = text
        .split_once("\"end_to_end\"")
        .and_then(|(_, rest)| rest.split_once(']'))
        .map_or("", |(body, _)| body);
    section
        .split('{')
        .skip(1)
        .filter_map(|entry| {
            let entry = entry.split('}').next()?;
            let name = field(entry, "name")?.trim_matches('"').to_string();
            let better = field(entry, "better")?.trim_matches('"') == "lower";
            let bound = field(entry, "bound")?.parse().ok()?;
            Some((
                name,
                Bound {
                    lower_is_better: better,
                    bound,
                },
            ))
        })
        .collect()
}

fn field<'a>(entry: &'a str, key: &str) -> Option<&'a str> {
    let (_, rest) = entry.split_once(&format!("\"{key}\""))?;
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// The `"name":{"value":v,...}` pairs and the counts of a result line.
struct RunResult {
    attempted: u64,
    failed: u64,
    causes: String,
    metrics: BTreeMap<String, f64>,
}

fn parse_result(stdout: &str) -> Option<RunResult> {
    let mut lines = stdout.lines().rev();
    let last = lines.next()?;
    let causes = lines
        .next()
        .and_then(|l| l.strip_prefix("failures: "))
        .unwrap_or("")
        .to_string();
    let number = |key: &str| -> Option<u64> {
        let (_, rest) = last.split_once(&format!("\"{key}\":"))?;
        rest.split([',', '}']).next()?.parse().ok()
    };
    let mut metrics = BTreeMap::new();
    for piece in last
        .split("\":{\"value\":")
        .skip(1)
        .zip(last.split("\":{\"value\":"))
    {
        let (after, before) = piece;
        let name = before.rsplit('"').next()?.to_string();
        let value = after.split(',').next()?.parse().ok()?;
        metrics.insert(name, value);
    }
    Some(RunResult {
        attempted: number("attempted")?,
        failed: number("failed")?,
        causes,
        metrics,
    })
}

fn run_set(args: &Args, first_seed: u64) -> Result<Vec<RunResult>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut results = Vec::new();
    for r in 0..args.runs as u64 {
        let seed = first_seed + r;
        let output = Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", "0"])
            .output()
            .map_err(|e| e.to_string())?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let result = parse_result(&stdout)
            .filter(|_| output.status.success())
            .ok_or_else(|| format!("run with seed {seed} gave no result ({})", output.status))?;
        println!(
            "seed {seed}: attempted {} failed {} ({})",
            result.attempted, result.failed, result.causes
        );
        results.push(result);
    }
    Ok(results)
}

pub fn run(args: &Args) -> Result<(), String> {
    let bounds = bounds();
    let mut medians: Vec<BTreeMap<String, f64>> = Vec::new();
    for set in 0..args.sets.max(1) {
        println!("set {set} of workload {}:", args.workload);
        let results = run_set(args, args.seed + (set * args.runs) as u64)?;
        let shares: Vec<f64> = results
            .iter()
            .map(|r| r.failed as f64 / r.attempted as f64)
            .collect();
        println!("failed share per run: {shares:?}");
        let mut set_medians = BTreeMap::new();
        for name in results[0].metrics.keys() {
            let values: Vec<f64> = results
                .iter()
                .filter_map(|r| r.metrics.get(name).copied())
                .collect();
            let (q1, q2, q3) = quartiles(&values);
            let spread = (q3 - q1) / q2;
            let (bound, verdict) = match bounds.get(name) {
                Some(b) if spread <= b.bound / 3.0 => (b.bound, "steady"),
                Some(b) if spread <= b.bound => (b.bound, "within bound"),
                Some(b) => (b.bound, "TOO WIDE"),
                None => (f64::NAN, "no bound"),
            };
            println!(
                "  {name:<20} median {:>12.4} q1 {:>12.4} q3 {:>12.4} spread {:>7.4} bound {bound:.2} {verdict}",
                median(&values),
                q1,
                q3,
                spread
            );
            set_medians.insert(name.clone(), q2);
        }
        medians.push(set_medians);
    }
    if let [first, second, ..] = medians.as_slice() {
        println!("second set against the first:");
        for (name, a) in first {
            let Some(b) = second.get(name) else { continue };
            let Some(bound) = bounds.get(name) else {
                continue;
            };
            let worse = if bound.lower_is_better {
                b / a - 1.0
            } else {
                1.0 - b / a
            };
            let verdict = if worse <= bound.bound {
                "ok"
            } else {
                "WORSE THAN BOUND"
            };
            println!(
                "  {name:<20} {a:>12.4} -> {b:>12.4} worse by {worse:>7.4} (bound {:.2}) {verdict}",
                bound.bound
            );
        }
    }
    Ok(())
}
