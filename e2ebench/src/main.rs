//! End-to-end benchmark of the mrrfid solver and scheduling service.
//!
//! ```text
//! e2ebench --workload <solve-lib|edit-stream> \
//!          --seed <n> --seconds <s> --trace <0|1>
//! e2ebench steady --workload <w> [--runs 10] [--sets 1] [--seed 1] [--seconds 10]
//! ```
//!
//! A run prints, as its last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The line before it
//! splits the failures by cause. See README.md for what each metric means.

mod inputs;
mod stats;
mod steady;
mod trace;
mod verify;
mod workloads;

use stats::{median, peak_rss_mb, percentile};
use std::time::Instant;
use trace::Metric;
use workloads::{Causes, Kind, Phase, TAIL_PERCENTILE};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub runs: usize,
    pub sets: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        runs: 10,
        sets: 1,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => parsed.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => parsed.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            "--runs" => parsed.runs = value.parse().map_err(|_| bad())?,
            "--sets" => parsed.sets = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if parsed.seconds.is_nan() || parsed.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(parsed)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("steady") => parse_args(&args[1..]).and_then(|a| steady::run(&a)),
        _ => parse_args(&args).and_then(|a| run(&a)),
    };
    if let Err(e) = result {
        eprintln!("e2ebench: {e}");
        std::process::exit(2);
    }
}

fn run(args: &Args) -> Result<(), String> {
    verify::self_test()?;
    let kind = Kind::parse(&args.workload)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    let mut setups = Vec::new();
    let mut bench = None;
    for _ in 0..SETUPS {
        drop(bench.take());
        let t = Instant::now();
        bench = Some(workloads::setup(kind, args.seed));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("at least one set-up");
    let (attempted, causes, correct, metrics) = if args.trace {
        // Untraced then traced halves, so the difference is the overhead.
        let half = (args.seconds / 2.0).max(1.0);
        let plain = bench.run(half, false);
        let mut traced = bench.run(half, true);
        // Each edit must miss; other ratios mean the workload left its
        // mechanism.
        eprintln!(
            "cache over the traced phase: {} hits, {} misses, {} requests",
            traced.cache.0, traced.cache.1, traced.attempted
        );
        let mut metrics = bench.replay(&traced);
        bench.check(&mut traced);
        let p50 = median(&traced.latencies_ms);
        let blocking = trace::find(&metrics, "trace.blocking_sum_ms");
        metrics.push(Metric::new("trace.latency_p50_ms", p50, "ms"));
        metrics.push(Metric::new("trace.remainder_ms", p50 - blocking, "ms"));
        metrics.push(Metric::new(
            "trace.overhead_ms",
            p50 - median(&plain.latencies_ms),
            "ms",
        ));
        let mut causes = plain.causes;
        causes.add(traced.causes);
        (
            plain.attempted + traced.attempted,
            causes,
            plain.correct && traced.correct,
            metrics,
        )
    } else {
        let mut phase = bench.run(args.seconds, false);
        bench.check(&mut phase);
        let at = |p: f64| percentile(&phase.latencies_ms, p);
        for w in &phase.windows {
            eprintln!(
                "window: {} ops, p50 {:.3} ms, p{} {:.3} ms, {:.1}/s, cpu {:.3} ms/op",
                w.latencies_ms.len(),
                median(&w.latencies_ms),
                TAIL_PERCENTILE,
                percentile(&w.latencies_ms, TAIL_PERCENTILE),
                w.completed as f64 / w.seconds,
                w.cpu_s * 1e3 / w.completed as f64
            );
        }
        let sizes: Vec<usize> = phase.windows.iter().map(|w| w.latencies_ms.len()).collect();
        eprintln!(
            "window sizes {sizes:?}; whole-run latency ms: p50 {:.3} p90 {:.3} p95 {:.3} p99 {:.3} p99.9 {:.3} max {:.3}",
            at(50.0),
            at(90.0),
            at(95.0),
            at(99.0),
            at(99.9),
            at(100.0)
        );
        let metrics = end_to_end(&phase, median(&setups));
        (phase.attempted, phase.causes, phase.correct, metrics)
    };
    drop(bench);
    print_report(kind, attempted, causes, correct, &metrics);
    Ok(())
}

fn end_to_end(phase: &Phase, setup_s: f64) -> Vec<Metric> {
    // Each other timing metric is the median of its per-window values.
    let per_window = |f: &dyn Fn(&workloads::Window) -> f64| -> f64 {
        median(&phase.windows.iter().map(f).collect::<Vec<_>>())
    };
    vec![
        Metric::new(
            "latency_p50_ms",
            per_window(&|w| median(&w.latencies_ms)),
            "ms",
        ),
        // The tail over the whole phase: a window holds too few samples
        // beyond p90 for a steady per-window tail.
        Metric::new(
            "latency_tail_ms",
            percentile(&phase.latencies_ms, TAIL_PERCENTILE),
            "ms",
        ),
        Metric::new(
            "throughput_per_s",
            per_window(&|w| w.completed as f64 / w.seconds),
            "1/s",
        ),
        Metric::count("slots_per_schedule", workloads::mean_slots(phase)),
        Metric::new(
            "cpu_ms_per_op",
            per_window(&|w| w.cpu_s * 1e3 / w.completed as f64),
            "ms",
        ),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
        Metric::new("setup_s", setup_s, "s"),
    ]
}

fn print_report(kind: Kind, attempted: u64, causes: Causes, correct: bool, metrics: &[Metric]) {
    let mut correct = correct;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            if !m.value.is_finite() {
                eprintln!("metric {} is not a number", m.name);
                correct = false;
            }
            let value = if m.value.is_finite() { m.value } else { -1.0 };
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    eprintln!(
        "{:?}: {attempted} operations, tail percentile p{}",
        kind, TAIL_PERCENTILE
    );
    println!(
        "failures: transport={} remote={} verifier={} zero_yield={}",
        causes.transport, causes.remote, causes.verifier, causes.zero_yield
    );
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        correct,
        attempted,
        causes.total(),
        body.join(",")
    );
}
