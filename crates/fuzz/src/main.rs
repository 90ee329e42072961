//! The `fuzz` runner: generates adversarial scenarios, checks every oracle
//! family, minimizes any failure, and records throughput to
//! `BENCH_fuzz.json`.
//!
//! ```text
//! cargo run --release -p fuzz -- --seed 0xMESA --scenarios 200
//! cargo run --release -p fuzz -- --seed <failing> --scenarios 1   # replay
//! cargo run --release -p fuzz -- --sabotage sealed --scenarios 5  # self-test
//! cargo run --release -p fuzz -- --sabotage prune --scenarios 5   # self-test
//! ```
//!
//! `--seed` accepts a decimal integer, a `0x…` hex integer, or — for
//! anything else (including the canonical `0xMESA`, which is not valid
//! hex) — an arbitrary string hashed with FNV-1a. Scenario 0 of a run uses
//! the master seed itself, so a printed per-scenario seed replays directly
//! with `--scenarios 1`.

use std::process::ExitCode;
use std::time::Instant;

use fuzz::{check, minimize, scenario_seed, HandCase, Sabotage, Scenario};

struct Args {
    seed_raw: String,
    seed: u64,
    scenarios: usize,
    budget_ms: u64,
    sabotage: Sabotage,
}

/// FNV-1a over the raw string, the same construction the vendored proptest
/// uses for per-test seeds.
fn hash_seed(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn parse_seed(s: &str) -> u64 {
    if let Ok(v) = s.parse::<u64>() {
        return v;
    }
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        if let Ok(v) = u64::from_str_radix(hex, 16) {
            return v;
        }
    }
    hash_seed(s)
}

fn usage() -> ! {
    eprintln!(
        "usage: fuzz [--seed S] [--scenarios N] [--budget-ms M] [--sabotage none|sealed|fingerprint|prune]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        seed_raw: "0xMESA".to_string(),
        seed: 0,
        scenarios: 100,
        budget_ms: 0,
        sabotage: Sabotage::None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--seed" => args.seed_raw = value(),
            "--scenarios" => {
                args.scenarios = value().parse().unwrap_or_else(|_| usage());
            }
            "--budget-ms" => {
                args.budget_ms = value().parse().unwrap_or_else(|_| usage());
            }
            "--sabotage" => {
                args.sabotage = match value().as_str() {
                    "none" => Sabotage::None,
                    "sealed" => Sabotage::Sealed,
                    "fingerprint" => Sabotage::Fingerprint,
                    "prune" => Sabotage::Prune,
                    _ => usage(),
                }
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    args.seed = parse_seed(&args.seed_raw);
    args
}

/// Prints a failure, minimizes it, and prints the reduced scenario plus the
/// replay command line. Returns the minimized column count.
fn report_failure(scenario: &Scenario, failure: &fuzz::OracleFailure, sabotage: Sabotage) -> usize {
    println!("\nFAIL {failure}");
    println!("--- failing scenario ---\n{}", scenario.describe());
    match minimize(scenario, sabotage) {
        Some(outcome) => {
            println!(
                "--- minimized ({} oracle evals) ---\n{}",
                outcome.evals,
                outcome.scenario.describe()
            );
            println!("minimized failure: {}", outcome.failure);
            println!(
                "replay: cargo run --release -p fuzz -- --seed {:#x} --scenarios 1",
                scenario.seed
            );
            outcome.scenario.df.n_cols()
        }
        None => {
            println!("(failure did not reproduce during minimization — flaky oracle?)");
            scenario.df.n_cols()
        }
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    let pool = parallel::set_threads(4);
    let fault_family = cfg!(feature = "fault-injection");
    println!(
        "fuzz: seed {} -> {:#x}, {} scenarios, pool={pool}, fault-recovery {}",
        args.seed_raw,
        args.seed,
        args.scenarios,
        if fault_family {
            "on"
        } else {
            "off (build with --features fault-injection)"
        },
    );

    let started = Instant::now();
    let budget_exceeded = |started: &Instant| {
        args.budget_ms > 0 && started.elapsed().as_millis() as u64 >= args.budget_ms
    };

    let mut report = bench::BenchReport::new("fuzz");
    let mut samples_ms: Vec<f64> = Vec::new();
    let mut families_seen: Vec<&'static str> = Vec::new();
    let mut ran = 0usize;

    // The three committed hand cases always run first — they are the fixed
    // smoke floor under every seed.
    let hand_cases = [
        HandCase::AllNullColumn,
        HandCase::CardinalityOneKey,
        HandCase::FiveHopChain,
    ];
    let generated = (0..args.scenarios).map(|i| scenario_seed(args.seed, i));
    let scenarios = hand_cases
        .iter()
        .map(|&c| Scenario::hand(c))
        .chain(generated.map(Scenario::from_seed));

    for scenario in scenarios {
        if budget_exceeded(&started) {
            println!(
                "budget of {} ms exhausted after {ran} scenarios",
                args.budget_ms
            );
            break;
        }
        let t0 = Instant::now();
        let result = check(&scenario, args.sabotage);
        samples_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        ran += 1;
        match result {
            Ok(families) => {
                for f in families {
                    if !families_seen.contains(&f) {
                        families_seen.push(f);
                    }
                }
                if ran.is_multiple_of(25) {
                    println!(
                        "  {ran} scenarios ok ({:.1}s elapsed)",
                        started.elapsed().as_secs_f64()
                    );
                }
            }
            Err(failure) => {
                let cols = report_failure(&scenario, &failure, args.sabotage);
                report.record("fuzz/scenarios", ran, &samples_ms);
                report.write_or_warn();
                return if args.sabotage == Sabotage::None {
                    ExitCode::FAILURE
                } else if cols <= 5 {
                    println!("\nsabotage caught and shrunk to {cols} columns — minimizer OK");
                    ExitCode::SUCCESS
                } else {
                    println!("\nsabotage caught but only shrunk to {cols} columns (> 5)");
                    ExitCode::FAILURE
                };
            }
        }
    }

    if args.sabotage != Sabotage::None {
        println!("sabotage escaped every oracle over {ran} scenarios");
        return ExitCode::FAILURE;
    }

    let median = report.record("fuzz/scenarios", ran, &samples_ms);
    report.write_or_warn();
    let per_sec = if median > 0.0 {
        1000.0 / median
    } else {
        f64::INFINITY
    };
    println!(
        "ok: {ran} scenarios, families exercised: {families_seen:?}, median {median:.1} ms/scenario ({per_sec:.1}/s), total {:.1}s",
        started.elapsed().as_secs_f64()
    );
    ExitCode::SUCCESS
}
