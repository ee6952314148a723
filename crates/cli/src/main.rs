//! `hycap` — command-line front end for the capacity-scaling toolkit.
//!
//! ```text
//! hycap classify --alpha A --m M --r R --k K --phi P [--static]
//! hycap theory   --alpha A --m M --r R --k K --phi P [--static] [--no-bs]
//! hycap measure  --alpha A --m M --r R --k K --phi P --n N
//!                [--slots S] [--seed X] [--threads T] [--static] [--no-bs]
//!                [--metrics PATH] [--cache DIR]
//! hycap sweep    --alpha A --m M --r R --k K --phi P
//!                [--ns 200,400,800] [--slots S] [--seed X] [--threads T]
//!                [--static] [--no-bs] [--metrics PATH] [--deadline SECS]
//!                [--cache DIR]
//! hycap cache    stats|gc|clear --cache DIR
//! hycap surface  --phi P [--res 11]
//! hycap degrade  --alpha A --m M --r R --k K --phi P --n N
//!                [--fail-frac F] [--outage-p P] [--slots S] [--seed X] [--occupy]
//!                [--static] [--no-bs] [--metrics PATH]
//! hycap flows    --alpha A --m M --r R --k K --phi P --n N
//!                [--rate R | --interval I] [--size P] [--window W]
//!                [--horizon H] [--loads ... | --min-load L --max-load L
//!                 --load-count C] [--delta D] [--ct C] [--seed X]
//!                [--static] [--no-bs] [--metrics PATH]
//! hycap table1 | fig1 | fig2 | fig3 | lemmas | ablations | degradation | scale
//! ```
//!
//! The paper subcommands regenerate the paper's results: `table1` (Table
//! I, `--cache DIR` like `sweep`), `fig1`–`fig3` (Figures 1–3), `lemmas`
//! (Monte-Carlo lemma checks, exit 1 on a FAIL verdict), `ablations`,
//! `degradation` (capacity against the BS-failure fraction) and `scale`
//! (the streamed ladder, writing `BENCH_PR8.json`). Each takes `--seed X`
//! except `scale`; `table1`, `fig3` and `scale` take `--full` for the
//! EXPERIMENTS.md ladders. Their CSV and JSON artifacts land in
//! `target/reports/`.
//!
//! `--metrics PATH` records deterministic metrics and invariant-probe
//! results during the run and writes a `hycap-metrics/1` JSON snapshot
//! (flat CSV when PATH ends in `.csv`) without perturbing the measured
//! numbers.
//!
//! `measure` and `sweep` accept `--cache DIR`: a content-addressed on-disk
//! result cache keyed by every bit-relevant parameter plus the engine
//! version. Warm runs serve cached results byte-identically (hit/miss
//! counts go to stderr), and the `cache` subcommand inspects (`stats`),
//! prunes (`gc`) or wipes (`clear`) a cache directory.
//!
//! `sweep` additionally accepts `--deadline SECS` (stop at the next point
//! boundary, exit 4). With `--cache DIR` each finished point is committed
//! before the next one starts, so rerunning a killed or cut sweep with the
//! same `--cache DIR` resumes it: finished points are served, and stdout
//! is byte-identical to an uninterrupted run.
//!
//! Every subcommand rejects options it does not take (exit 2, naming the
//! option).
//!
//! Exit codes: 0 success; 1 unexpected failure (including I/O); 2 invalid
//! input (bad or unknown arguments, bad parameters); 3 missing/exhausted
//! infrastructure; 4 run interrupted by a deadline or budget — partial
//! results written.

mod args;
mod checks;
mod commands;
mod experiments;
mod paper;
mod report;
mod scale;

use args::Args;

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv.first().is_some_and(|a| a == "help" || a == "--help") {
        print!("{}", commands::USAGE);
        return;
    }
    // `cache` carries its action as a nested subcommand (`hycap cache
    // stats --cache DIR`), which the flat parser would reject as a stray
    // positional token — strip the outer command and parse the rest, so
    // the action lands in the nested command slot.
    let is_cache = argv.first().is_some_and(|a| a == "cache");
    if is_cache {
        argv.remove(0);
    }
    let name = if is_cache { "cache" } else { argv[0].as_str() };
    let Some(cmd) = commands::subcommand(name) else {
        eprintln!("error: unknown subcommand '{name}'");
        eprint!("{}", commands::USAGE);
        std::process::exit(2);
    };
    let parsed = match Args::parse(argv, cmd.options) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprint!("{}", commands::USAGE);
            std::process::exit(2);
        }
    };
    if parsed.flag("help") {
        print!("{}", commands::USAGE);
        return;
    }
    match (cmd.run)(&parsed) {
        Ok(output) => {
            print!("{}", output.text);
            if output.code != 0 {
                std::process::exit(output.code);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(exit_code_for(e.as_ref()));
        }
    }
}

/// Maps an error to the documented exit codes: typed [`hycap_errors::HycapError`]s carry
/// their own code (2 invalid input, 3 missing infrastructure, 4
/// interrupted with partial results), argument errors are invalid input
/// (2), anything else is an unexpected failure (1).
fn exit_code_for(e: &(dyn std::error::Error + 'static)) -> i32 {
    if let Some(he) = e.downcast_ref::<hycap_errors::HycapError>() {
        he.exit_code()
    } else if e.downcast_ref::<args::ArgError>().is_some() {
        2
    } else {
        1
    }
}
