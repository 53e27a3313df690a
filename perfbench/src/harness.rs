//! Command line, environment hygiene, provenance and the timed loop
//! shared by every workload.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["cold-grid", "budget-sweep", "warm-service"];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement window.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// Parses `--workload W --seed N --seconds S --trace 0|1`.
///
/// # Errors
///
/// A usage message naming the bad or missing flag.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} wants a whole number, got '{value}'"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => {
                return Err(format!(
                    "unknown workload '{value}' (one of {})",
                    WORKLOADS.join(", ")
                ))
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => match number()? {
                0 => return Err("--seconds must be at least 1".into()),
                n => seconds = Some(n),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace wants 0 or 1, got '{value}'")),
            },
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// Environment variables that change results, tiers or worker counts.
const FORBIDDEN_VARS: [&str; 6] = [
    "SCHEMATIC_TRACE",
    "SCHEMATIC_SHADOW_WAR",
    "SCHEMATIC_JOBS",
    "SCHEMATIC_CACHE",
    "SCHEMATIC_TRACES",
    "SCHEMATIC_TELEMETRY",
];

/// The forbidden variables among `names`.
pub fn forbidden_vars<'a>(names: impl IntoIterator<Item = &'a str>) -> Vec<String> {
    names
        .into_iter()
        .filter(|n| FORBIDDEN_VARS.contains(n) || n.starts_with("SCHEMATIC_DEBUG"))
        .map(String::from)
        .collect()
}

/// Refuses to run while a forbidden variable is set.
///
/// # Errors
///
/// The names of the variables that are set.
pub fn check_environment() -> Result<(), String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .collect();
    let bad = forbidden_vars(names.iter().map(String::as_str));
    if bad.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run: {} change results or execution tiers; unset them",
            bad.join(", ")
        ))
    }
}

/// Fails unless every in-program observability channel is off: timed
/// operations must measure the engine that ships.
///
/// # Errors
///
/// Which channel is on.
pub fn assert_untraced() -> Result<(), String> {
    if schematic_obs::enabled() {
        return Err("schematic_obs collection is enabled during a timed operation".into());
    }
    if schematic_emu::trace::forced() {
        return Err("emulator lifecycle tracing is forced on during a timed operation".into());
    }
    Ok(())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stdin(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    (out.status.success() && !text.trim().is_empty()).then(|| text.trim().to_string())
}

/// The provenance header: revision, toolchain, cores, workload, seed.
pub fn provenance(args: &Args) -> String {
    // `--git-dir` keeps git from searching the parent directories.
    let rev = command_line(
        "git",
        &["--git-dir=.git", "rev-parse", "--short=12", "HEAD"],
    )
    .unwrap_or_else(|| "unknown (not a git checkout)".into());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    format!(
        "perfbench: workload={} seed={} seconds={} trace={} | rev {rev} | {rustc} | nproc={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        schematic_bench::parallel::jobs()
    )
}

/// Peak resident set size (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A private scratch directory inside the working directory, removed
/// on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `.bench_work/<tag>-<pid>`.
    ///
    /// # Errors
    ///
    /// The filesystem error.
    pub fn new(tag: &str) -> std::io::Result<WorkDir> {
        let dir = PathBuf::from(".bench_work").join(format!("{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    /// A path inside the directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Runs `f` `times` times, returning the last result and each run's
/// wall time in seconds.
pub fn repeat_setup<T>(times: usize, mut f: impl FnMut() -> T) -> (T, Vec<f64>) {
    assert!(times >= 1);
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        let t0 = Instant::now();
        last = Some(std::hint::black_box(f()));
        secs.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("ran at least once"), secs)
}

/// What the timed loop saw.
#[derive(Debug, Default)]
pub struct OpLog {
    /// Latency of every operation that returned, milliseconds.
    pub lat_ms: Vec<f64>,
    /// Operations started.
    pub attempted: u64,
    /// Operations that failed a check or panicked.
    pub failed: u64,
    /// Wall time of the whole loop, seconds.
    pub wall_s: f64,
    /// The first few failure reasons.
    pub errors: Vec<String>,
}

impl OpLog {
    /// Correct operations per second of loop wall time.
    pub fn ops_per_s(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.wall_s
    }

    /// Failed ÷ attempted.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(reason);
        }
    }
}

/// One operation's result: its latency in milliseconds (measured by
/// the operation around the call it times, so its checks stay out of
/// the latency) and whether its outputs were correct.
pub type OpResult = (f64, Result<(), String>);

/// Closed loop with one client: runs `op(0)`, `op(1)`, … until
/// `seconds` have passed, stopping only at a multiple of `batch`
/// operations so every pass over the inputs is complete. A panic
/// counts as a failed operation.
pub fn run_ops(seconds: u64, batch: usize, mut op: impl FnMut(usize) -> OpResult) -> OpLog {
    let mut log = OpLog::default();
    let deadline = Duration::from_secs(seconds);
    let t0 = Instant::now();
    let mut i = 0;
    while i % batch != 0 || i == 0 || t0.elapsed() < deadline {
        log.attempted += 1;
        if let Err(reason) = assert_untraced() {
            log.fail(reason);
            break;
        }
        match catch_unwind(AssertUnwindSafe(|| op(i))) {
            Ok((ms, Ok(()))) => log.lat_ms.push(ms),
            Ok((ms, Err(reason))) => {
                log.lat_ms.push(ms);
                log.fail(format!("op {i}: {reason}"));
            }
            Err(_) => log.fail(format!("op {i}: panicked")),
        }
        i += 1;
    }
    log.wall_s = t0.elapsed().as_secs_f64();
    log
}

/// Times `f` in milliseconds.
pub fn time_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = std::hint::black_box(f());
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_full_command_line() {
        let a = parse_args(&strings(&[
            "--workload",
            "budget-sweep",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "budget-sweep".into(),
                seed: 7,
                seconds: 10,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            &["--workload", "nope", "--seed", "1", "--seconds", "1"][..],
            &["--workload", "cold-grid", "--seconds", "1"],
            &["--workload", "cold-grid", "--seed", "x", "--seconds", "1"],
            &["--workload", "cold-grid", "--seed", "1", "--seconds", "0"],
            &[
                "--workload",
                "cold-grid",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "2",
            ],
            &["--workload"],
            &["--bogus", "1"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn flags_every_result_changing_variable() {
        let bad = forbidden_vars([
            "PATH",
            "SCHEMATIC_JOBS",
            "SCHEMATIC_DEBUG_GAIN",
            "SCHEMATIC_PROGRESS",
            "SCHEMATIC_TRACE",
        ]);
        assert_eq!(
            bad,
            ["SCHEMATIC_JOBS", "SCHEMATIC_DEBUG_GAIN", "SCHEMATIC_TRACE"]
        );
    }

    #[test]
    fn loop_completes_whole_batches_and_counts_failures() {
        let log = run_ops(1, 4, |i| {
            if i == 1 {
                panic!("boom");
            }
            let ok = if i == 2 { Err("wrong".into()) } else { Ok(()) };
            std::thread::sleep(Duration::from_millis(60));
            (60.0, ok)
        });
        assert_eq!(log.attempted % 4, 0);
        assert_eq!(log.failed, 2);
        assert_eq!(log.lat_ms.len() as u64, log.attempted - 1);
        assert!(log.wall_s >= 1.0);
        assert!(log.error_rate() > 0.0);
    }
}
