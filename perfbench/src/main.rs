//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! A closed loop with one caller: each `Scenario` call starts after the
//! previous one returned. `--trace 0` reports the end-to-end metrics,
//! `--trace 1` the per-layer metrics of the traced run. The last line of
//! standard output is the JSON result.
//!
//! `perfbench --record <name> --seeds <a>..<b>` prints the reference lines
//! of every layout of seeds `a..b` for `references.txt`.

use std::process::ExitCode;

use hycap_perfbench::reference::{self, Checker, REFERENCES};
use hycap_perfbench::trace;
use hycap_perfbench::workload::{self, layout_seed, run_op, Workload, DEFAULT_SEED, LAYOUTS};
use hycap_perfbench::{end_to_end, pool_threads, result_json};
use hycap_sim::WorkerPool;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::workload(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn record(argv: &[String]) -> Result<(), String> {
    let [_, name, flag, range] = argv else {
        return Err("usage: --record <workload> --seeds <a>..<b>".into());
    };
    let wl = workload::workload(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let (a, b) = range
        .split_once("..")
        .filter(|_| flag == "--seeds")
        .ok_or("--seeds takes <a>..<b>")?;
    let (a, b): (u64, u64) = (
        a.parse().map_err(|e| format!("{e}"))?,
        b.parse().map_err(|e| format!("{e}"))?,
    );
    let pool = WorkerPool::new(pool_threads());
    for seed in a..b {
        for i in 0..LAYOUTS {
            let sc_seed = layout_seed(seed, i);
            let op = run_op(&wl, sc_seed, &pool).map_err(|e| e.to_string())?;
            println!("{}", reference::line(wl.name, sc_seed, &op.outcome));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--record") {
        return match record(&argv) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let wl = &args.workload;
    let pool = WorkerPool::new(pool_threads());
    let mut checker = Checker::new(REFERENCES, wl.name);
    eprintln!(
        "{}: seed {} ({}), {} pool worker(s), trace {}",
        wl.name,
        args.seed,
        if checker.is_recorded(layout_seed(args.seed, 0)) {
            "recorded references"
        } else {
            "held-out seed: each layout's first result is its reference"
        },
        pool.threads(),
        u8::from(args.trace),
    );
    let (metrics, attempted, failed, consistent) = if args.trace {
        let (metrics, tally) = trace::run(wl, args.seed, &pool, &mut checker);
        if tally.inconsistencies > 0 {
            eprintln!("{} trace cross-check(s) failed", tally.inconsistencies);
        }
        (
            metrics,
            tally.attempted,
            tally.failed,
            tally.inconsistencies == 0,
        )
    } else {
        let run = end_to_end(wl, args.seed, args.seconds, &pool, &mut checker);
        (run.metrics, run.attempted, run.failed, true)
    };
    for m in &metrics {
        println!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let correct =
        consistent && failed == 0 && attempted > 0 && metrics.iter().all(|m| m.value.is_finite());
    println!("{}", result_json(correct, attempted, failed, &metrics));
    ExitCode::SUCCESS
}
