//! End-to-end and per-layer benchmark of MESA's `explain`.
//!
//! ```text
//! cargo run --release --manifest-path mesabench/Cargo.toml -- \
//!     --workload cold14 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Builds the workload's inputs from `--seed`, serves its requests in a
//! closed loop with one client for `--seconds`, checks every response
//! against a rebuild of the pipeline from the layers' public functions,
//! and prints as its last line one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. `--trace 0` reports the end-to-end metrics,
//! `--trace 1` the per-layer metrics of a separate traced run, whose spans
//! are written under `.bench_out/`. The line before it stamps the run with
//! its host and run metadata. `BENCHMARK.json` at the repository root lists
//! the workloads and metrics and says why each was chosen.

#![forbid(unsafe_code)]

mod host;
mod layers;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use workloads::{run_measured, run_traced, setup, Oracle, RunResult, Workload};

/// Set-ups per run at least; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Seconds a run spends on set-ups at least, so that a cheap set-up is
/// repeated often enough for its median to hold still.
const SETUP_SECONDS: f64 = 2.0;

/// Units of every metric, as `BENCHMARK.json` declares them.
fn unit(metric: &str) -> &'static str {
    match metric {
        "setup_s" => "s",
        "throughput_qps" => "1/s",
        "peak_rss_mb" | "session.resident_mb" => "MiB",
        "explained_fraction.mean" | "kg.linked_frac" => "fraction",
        "session.hit_us" => "us",
        "storage.sealed_bytes" | "storage.dense_bytes" => "bytes/query",
        "parallel.threads" => "count",
        "parallel.cpu_util" => "cpu_s/s",
        "trace.overhead_pct" => "%",
        m if m.starts_with("latency_ms") || m.ends_with("_ms") => "ms",
        _ => "count/query",
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut named: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .filter(|k| ["workload", "seed", "seconds", "trace"].contains(k))
            .ok_or_else(|| format!("unknown argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        named.insert(key.to_string(), value);
    }
    let get = |k: &str| named.get(k).ok_or_else(|| format!("missing --{k}"));
    let name = get("workload")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload `{name}` (known: {})", known.join(", "))
    })?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds: seconds as f64,
        trace,
    })
}

/// `value` as a JSON number, or `null` when it is not finite.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn result_line(correct: bool, result: &RunResult) -> String {
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_number(*value),
                json_string(unit(name))
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.attempted,
        result.failed,
        metrics.join(", ")
    )
}

fn meta_line(args: &Args, setup_times: &[f64], result: &RunResult) -> String {
    let meta = host::RunMeta::collect();
    let mut fields = vec![
        ("workload".to_string(), json_string(args.workload.name())),
        ("seed".to_string(), args.seed.to_string()),
        ("seconds".to_string(), json_number(args.seconds)),
        ("trace".to_string(), u8::from(args.trace).to_string()),
        ("scale".to_string(), json_string("quick")),
        ("nproc".to_string(), meta.nproc.to_string()),
        (
            "effective_threads".to_string(),
            meta.effective_threads.to_string(),
        ),
        (
            "mesa_threads".to_string(),
            meta.mesa_threads
                .as_deref()
                .map_or("null".to_string(), json_string),
        ),
        ("git_revision".to_string(), json_string(&meta.git_revision)),
        (
            "setup_s_each".to_string(),
            format!(
                "[{}]",
                setup_times
                    .iter()
                    .map(|t| json_number(*t))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
    ];
    for (k, v) in &result.notes {
        fields.push((k.clone(), json_string(v)));
    }
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_string(k)))
        .collect();
    format!("{{\"meta\": {{{}}}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mesabench: {e}");
            eprintln!("usage: mesabench --workload <name> --seed <n> --seconds <n> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let (inputs, setup_times) = setup(args.workload, args.seed, SETUP_REPS, SETUP_SECONDS);
    let oracle = Oracle::build(&inputs);
    let name = args.workload.name();
    let out_dir = PathBuf::from(".bench_out");
    let mut result = if args.trace {
        let trace_file = out_dir.join(format!("trace-{name}-seed{}.jsonl", args.seed));
        run_traced(&inputs, &oracle, args.seconds, &trace_file)
    } else {
        let mut r = run_measured(&inputs, &oracle, args.seconds);
        let setup_s = stats::median(&setup_times).expect("at least one set-up");
        r.metrics.insert("setup_s".into(), setup_s);
        r
    };
    let non_finite: Vec<String> = result
        .metrics
        .iter()
        .filter(|(_, v)| !v.is_finite())
        .map(|(k, _)| k.clone())
        .collect();
    if !non_finite.is_empty() {
        result
            .notes
            .insert("non_finite_metrics".into(), non_finite.join(","));
    }
    let correct = result.failed == 0 && non_finite.is_empty();
    let meta = meta_line(&args, &setup_times, &result);
    let line = result_line(correct, &result);
    let record = out_dir.join(format!(
        "result-{name}-seed{}-trace{}.json",
        args.seed,
        u8::from(args.trace)
    ));
    let _ = std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(record, format!("{meta}\n{line}\n")));
    println!("{meta}");
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "mesabench: {} of {} explains failed the correctness gate",
            result.failed, result.attempted
        );
        ExitCode::FAILURE
    }
}
