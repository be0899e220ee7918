//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one named workload in this process on inputs generated from
//! `--seed`, checks the program's outputs, and prints, as its last line,
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end set ([`E2E`]), measured with
//! the program's tracing off; with `--trace 1` they are the per-layer set
//! ([`PER_LAYER`]) from a separate traced pass, which also prints a layer
//! table. A layer a workload does not exercise reports 0.
//!
//! Workloads (the reason for each is in `BENCHMARK.json`):
//!
//! * `batch-link` — two ScaleGen linkage tasks, MinHash blocking →
//!   compare → `TransEr::fit_predict` (random forest).
//! * `transfer-vectors` — `TransEr::fit_predict` on precomputed feature
//!   vectors: SEL's k-NN dominates, no blocking or compare.
//! * `serve-read` — a warm `MatchService` loaded from persisted artefacts
//!   under an open-loop Poisson ladder, then a closed-loop pass.
//! * `serve-churn` — `serve-read` plus one insert and one remove per eight
//!   queries.
//!
//! Every workload reports every end-to-end metric: `items_per_s` is
//! records per second of block → label on `batch-link`, target rows per
//! second of `fit_predict` on `transfer-vectors`, and closed-loop queries
//! per second with full batches on the serve workloads; `latency_p50_ms`
//! is one block → label run, one `fit_predict`, or one query at the lowest
//! offered rate timed from its scheduled arrival. Figures that only some
//! workloads have (p99s, the SLO rate, pair completeness) are printed
//! above the result line and measured per layer in the traced run.
//!
//! Inputs are generated before any timing starts; the program only ever
//! receives the generated inputs. `perfbench/run.py` builds this binary
//! and runs it with every `TRANSER_*` variable cleared except the worker
//! count.

mod batch;
mod loadgen;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// The seed whose outputs the workloads pin with committed hashes.
pub const DEFAULT_SEED: u64 = 42;

/// Below this F1 the output is wrong, not slow: every workload is built so
/// that transfer works on every seed (measured 0.86–0.96).
pub const MIN_F1: f64 = 0.8;

/// The end-to-end metrics every workload reports with `--trace 0`.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("f1", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every workload reports with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("blocking.tokenize_s", "s"),
    ("blocking.tokens", "count"),
    ("blocking.sign_s", "s"),
    ("blocking.sign_ns_per_record", "ns"),
    ("blocking.bucket_s", "s"),
    ("blocking.candidates", "count"),
    ("blocking.true_pair_frac", "ratio"),
    ("blocking.pair_completeness", "ratio"),
    ("compare.busy_s", "s"),
    ("compare.ns_per_pair", "ns"),
    ("compare.prepared_per_pair", "ratio"),
    ("core.sel_s", "s"),
    ("core.sel_selected_frac", "ratio"),
    ("knn.unique_rows_frac", "ratio"),
    ("core.gen_s", "s"),
    ("core.tcl_s", "s"),
    ("core.tcl_kept_frac", "ratio"),
    ("core.fallbacks", "count"),
    ("serve.block_ms_per_batch", "ms"),
    ("serve.candidates_per_query", "ratio"),
    ("serve.compare_ms_per_batch", "ms"),
    ("serve.prepared_per_pair", "ratio"),
    ("serve.predict_ms_per_batch", "ms"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.batch_size_mean", "count"),
    ("serve.query_p99_ms", "ms"),
    ("serve.max_qps_slo", "1/s"),
    ("serve.update_p95_ms", "ms"),
    ("serve.insert_us_p50", "us"),
    ("serve.remove_us_p50", "us"),
    ("serve.tombstones_end", "count"),
    ("serve.compactions", "count"),
    ("serve.record_slots_end", "count"),
    ("datagen_s", "s"),
    ("error_rate", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.layer_coverage_frac", "ratio"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// Scratch directory for persisted artefacts.
    pub work_dir: String,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (runs, queries, writes).
    pub attempted: u64,
    /// Operations that failed or were never served.
    pub failed: u64,
    /// Failed correctness checks, one line each.
    pub problems: Vec<String>,
    /// Metric values by name (the end-to-end or per-layer set).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Further figures printed for people, not part of the result object.
    pub info: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// Record a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Record a figure for the human-readable lines.
    pub fn info(&mut self, name: &str, value: f64, unit: &'static str) {
        self.info.push((name.to_string(), value, unit));
    }

    /// Record a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

fn usage() -> String {
    "usage: perfbench --workload <batch-link|transfer-vectors|serve-read|serve-churn> \
     --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]"
        .to_string()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_dir = "perfbench-work".to_string();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--work-dir" => work_dir = value.clone(),
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(usage)?,
        seed: seed.ok_or_else(usage)?,
        seconds: seconds.ok_or_else(usage)?,
        trace: trace.ok_or_else(usage)?,
        work_dir,
    })
}

/// Print the traced layers with their share of the traced wall time.
pub fn print_layer_table(layers: &[(&str, f64)], wall: f64) {
    println!("layer table (traced wall {wall:.3} s)");
    println!("  {:<24} {:>10} {:>7}", "layer", "seconds", "share");
    for &(name, secs) in layers {
        println!("  {name:<24} {secs:>10.4} {:>6.1}%", 100.0 * secs / wall);
    }
}

/// Peak resident set size of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    transer_trace::ledger::peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / (1024.0 * 1024.0))
}

fn result_line(out: &Outcome, correct: bool, set: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = set
        .iter()
        .map(|&(name, unit)| {
            let value = out.metrics.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { format!("{value:?}") } else { "null".to_string() };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Environment hygiene: only the worker count may reach the program, so
    // an ambient fault plan, trace flag or engine override cannot change
    // what is measured.
    let ambient: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("TRANSER_") && k != "TRANSER_THREADS")
        .collect();
    if !ambient.is_empty() {
        eprintln!("perfbench: clear {} first (perfbench/run.py does)", ambient.join(", "));
        return ExitCode::from(2);
    }
    let workers = transer_parallel::Pool::global().workers();
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "provenance: workload={} seed={} seconds={} trace={} workers={workers} \
         available_parallelism={available} nproc={} git_rev={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::env::var("PERFBENCH_NPROC").unwrap_or_else(|_| "unknown".to_string()),
        transer_trace::ledger::git_rev().unwrap_or_else(|| "unknown".to_string()),
    );

    let run = match args.workload.as_str() {
        "batch-link" => batch::batch_link(&args),
        "transfer-vectors" => batch::transfer_vectors(&args),
        "serve-read" => serve::serve(&args, false),
        "serve-churn" => serve::serve(&args, true),
        other => Err(format!("unknown workload {other:?}\n{}", usage())),
    };
    let mut out = match run {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    if args.trace {
        out.set("error_rate", error_rate);
    } else {
        out.info("error_rate", error_rate, "ratio");
    }
    let set = if args.trace { PER_LAYER } else { E2E };
    for (name, value, unit) in &out.info {
        println!("  {name:<32} {value:>14.4} {unit}");
    }
    for &(name, unit) in set {
        let value = out.metrics.get(name).copied().unwrap_or(0.0);
        println!("{name:<34} {value:>14.4} {unit}");
    }
    for p in &out.problems {
        println!("CHECK FAILED: {p}");
    }
    let correct = out.problems.is_empty() && out.failed == 0;
    println!("{}", result_line(&out, correct, set));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
