//! Crash-safety conformance for the `hycap` binary: a sweep killed with
//! SIGKILL mid-run resumes from its result cache to a report that is
//! byte-identical to an uninterrupted run, expired deadlines exit 4 with
//! partial results, and bad `--metrics` paths and unknown options exit 2
//! before any work.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_hycap");

/// A fresh cache directory under `target/test-resume/`, so CI can upload
/// the caches as an artifact when a conformance run fails.
fn resume_dir(name: &str) -> PathBuf {
    let target = Path::new(BIN)
        .ancestors()
        .nth(2)
        .expect("bin lives under target/<profile>/");
    let dir = target.join("test-resume").join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create resume cache dir");
    dir
}
// A ladder heavy enough (hundreds of ms even on one core) that the kill
// below lands while later points are still being computed.
const SWEEP_ARGS: &[&str] = &[
    "sweep",
    "--alpha",
    "0.25",
    "--m",
    "1.0",
    "--k",
    "0.5",
    "--ns",
    "100,140,200,280,400,560,800",
    "--slots",
    "120",
    "--seed",
    "7",
    "--threads",
    "2",
];

fn run(args: &[&str]) -> std::process::Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("spawn hycap binary")
}

/// Committed cache entries in `dir`. An `.entry` file only appears by
/// atomic rename once the point is durable.
fn committed_entries(dir: &Path) -> usize {
    std::fs::read_dir(dir).map_or(0, |it| {
        it.filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|x| x == "entry"))
            .count()
    })
}

/// The hit count of the `cache: N hit(s), ...` status line on stderr.
fn cache_hits(stderr: &[u8]) -> u64 {
    let text = String::from_utf8_lossy(stderr);
    let line = text
        .lines()
        .find_map(|l| l.strip_prefix("cache: "))
        .unwrap_or_else(|| panic!("cache status line missing on stderr: {text}"));
    line.split(' ').next().unwrap().parse().expect("hit count")
}

/// `SWEEP_ARGS` with the seed replaced and `--cache dir` appended.
fn cached_sweep(seed: &str, dir: &Path) -> Vec<String> {
    let mut args: Vec<String> = SWEEP_ARGS.iter().map(|s| s.to_string()).collect();
    let at = args.iter().position(|a| a == "--seed").unwrap() + 1;
    args[at] = seed.to_string();
    args.extend(["--cache".to_string(), dir.to_str().unwrap().to_string()]);
    args
}

#[test]
fn sigkill_mid_sweep_then_rerun_is_byte_identical() {
    let dir = resume_dir("kill-rerun");
    // The reference: one uninterrupted run without a cache.
    let reference = run(SWEEP_ARGS);
    assert!(reference.status.success(), "reference sweep failed");

    // Start the same sweep with a cache and kill it (SIGKILL — no cleanup
    // handler runs) as soon as at least one point is committed.
    let args = cached_sweep("7", &dir);
    let mut child = Command::new(BIN)
        .args(&args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn cached sweep");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if committed_entries(&dir) >= 1 {
            child.kill().ok(); // SIGKILL on unix
            break;
        }
        if child.try_wait().expect("poll child").is_some() {
            // The run outpaced the poll and finished; the rerun still must
            // reproduce the reference (from a complete cache).
            break;
        }
        assert!(Instant::now() < deadline, "no cache entry within 120s");
        std::thread::sleep(Duration::from_millis(5));
    }
    child.wait().expect("reap child");
    assert!(committed_entries(&dir) >= 1, "kill left no durable entry");

    // Rerun the same command: finished points are served, the rest are
    // computed, and stdout is byte-identical.
    let rerun = Command::new(BIN)
        .args(&args)
        .output()
        .expect("spawn hycap binary");
    assert!(
        rerun.status.success(),
        "rerun failed: {}",
        String::from_utf8_lossy(&rerun.stderr)
    );
    assert_eq!(
        reference.stdout, rerun.stdout,
        "resumed report differs from the uninterrupted run"
    );
    assert!(cache_hits(&rerun.stderr) >= 1, "rerun served no point");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rerun_with_another_seed_serves_nothing() {
    let dir = resume_dir("seed-mismatch");
    let first = Command::new(BIN)
        .args(cached_sweep("7", &dir))
        .output()
        .expect("spawn hycap binary");
    assert!(first.status.success());
    // Same directory, different seed: every key differs, nothing mixes in.
    let other = Command::new(BIN)
        .args(cached_sweep("8", &dir))
        .output()
        .expect("spawn hycap binary");
    assert!(other.status.success());
    assert_eq!(cache_hits(&other.stderr), 0, "another seed must not hit");
    let mut uncached: Vec<&str> = SWEEP_ARGS.to_vec();
    let at = uncached.iter().position(|a| *a == "--seed").unwrap() + 1;
    uncached[at] = "8";
    assert_eq!(other.stdout, run(&uncached).stdout);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_options_exit_2_naming_the_option() {
    for (extra, name) in [
        (&["--sedd", "3"][..], "--sedd"),
        (&["--checkpoint", "x"][..], "--checkpoint"),
        (&["--resume"][..], "--resume"),
        (&["--no-cache"][..], "--no-cache"),
    ] {
        let mut args: Vec<&str> = SWEEP_ARGS.to_vec();
        args.extend_from_slice(extra);
        let out = run(&args);
        assert_eq!(out.status.code(), Some(2), "{extra:?} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown option {name}")),
            "stderr should name {name}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "no work may start: {extra:?}");
    }
    // A misspelled option fails instead of running the defaults, and a
    // ladder cap below every point fails before the first one runs.
    for (args, named) in [
        (
            &[
                "measure", "--alpha", "0.25", "--n", "150", "--slot", "40", "--seed", "3",
            ][..],
            "unknown option --slot",
        ),
        (&["table1", "--seeed", "5"][..], "unknown option --seeed"),
        (&["scale", "--ladder-max", "0"][..], "`ladder-max`"),
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(named),
            "stderr should name {named}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "no work may start: {args:?}");
        assert!(
            !stderr.contains("scale: n ="),
            "no ladder point may run: {stderr}"
        );
    }
}

#[test]
fn expired_deadline_exits_4_with_partial_results() {
    let mut args: Vec<&str> = SWEEP_ARGS.to_vec();
    args.extend_from_slice(&["--deadline", "0.000001"]);
    let out = run(&args);
    assert_eq!(out.status.code(), Some(4), "partial run must exit 4");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("interrupted by wall deadline"),
        "partial table must say why it stopped: {stdout}"
    );
    assert!(stdout.contains("partial results written"), "{stdout}");
}

#[test]
fn metrics_under_nonexistent_directory_exits_2() {
    let missing = resume_dir("metrics").join("no-such-subdir/snap.json");
    let missing_str = missing.to_str().unwrap().to_string();
    let out = run(&[
        "measure",
        "--alpha",
        "0.25",
        "--m",
        "1.0",
        "--k",
        "0.5",
        "--n",
        "100",
        "--slots",
        "40",
        "--metrics",
        &missing_str,
    ]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "missing metrics directory must exit 2 before the run starts"
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("does not exist"),
        "stderr should explain the bad path"
    );
}
