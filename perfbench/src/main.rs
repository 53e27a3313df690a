//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold-grid|budget-sweep|warm-service --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. With `--trace 0` it prints every
//! end-to-end metric, measured with all in-program tracing off; with
//! `--trace 1` it prints every per-layer metric from spans the
//! benchmark records around calls into each layer. The last line of
//! standard output is one JSON object with the outcome and the
//! metrics. The exit code is 0 only when every operation's outputs
//! were correct. See `README.md` beside this file.

mod cold;
mod harness;
mod ledger;
mod metrics;
mod stats;
mod sweep;
mod traced;
mod warm;

use harness::OpLog;
use ledger::Ledger;
use std::process::ExitCode;

/// What one workload run produced.
pub struct Outcome {
    log: OpLog,
    metrics: Vec<(String, &'static str, f64)>,
    lines: Vec<String>,
}

impl Outcome {
    /// The end-to-end metrics of an untraced run.
    pub fn end_to_end(
        setup_s: &[f64],
        log: OpLog,
        sim_energy_uj: f64,
        mut lines: Vec<String>,
    ) -> Outcome {
        let setup = stats::summarize(setup_s);
        lines.push(format!("setup: {}", setup.line("s")));
        let (op_p50, op_tail) = if log.lat_ms.is_empty() {
            (0.0, 0.0)
        } else {
            let op = stats::summarize(&log.lat_ms);
            lines.push(format!("operation latency: {}", op.line("ms")));
            (op.p50, op.tail.value)
        };
        lines.push(format!(
            "throughput: {:.3} correct ops/s over {:.3} s; error_rate {} ({} failed / {} attempted)",
            log.ops_per_s(),
            log.wall_s,
            log.error_rate(),
            log.failed,
            log.attempted
        ));
        let values = [
            setup.p50,
            op_p50,
            op_tail,
            log.ops_per_s(),
            harness::peak_rss_mb(),
            sim_energy_uj,
        ];
        let metrics = metrics::END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name.to_string(), unit, v))
            .collect();
        Outcome {
            log,
            metrics,
            lines,
        }
    }
}

/// Every per-layer metric: the set-up's totals plus the mean over the
/// `ops` traced operations; `overhead_pct` is the traced median over
/// the untraced median, minus one, in percent.
pub fn layer_metrics(
    setup: &Ledger,
    ops: &Ledger,
    n_ops: usize,
    overhead_pct: f64,
) -> Vec<(String, &'static str, f64)> {
    let n = n_ops.max(1) as f64;
    let per = |f: &dyn Fn(&Ledger) -> f64| f(setup) + f(ops) / n;
    let busy_ms = |l: &Ledger, layer: &str| {
        (l.stat(layer).busy_ns as f64 + l.count(&format!("{layer}.busy_ns"))) / 1e6
    };
    let cells = (!ops.cell_ms.is_empty()).then(|| stats::summarize(&ops.cell_ms));
    metrics::per_layer()
        .into_iter()
        .map(|(name, unit)| {
            let value = if let Some(layer) = name.strip_suffix(".calls") {
                per(&|l| l.stat(layer).calls as f64)
            } else if let Some(layer) = name.strip_suffix(".busy_ms") {
                per(&|l| busy_ms(l, layer))
            } else if let Some(tier) = name
                .strip_prefix("emu.run.")
                .and_then(|r| r.strip_suffix(".minsts_per_s"))
            {
                let layer = format!("emu.run.{tier}");
                let insts =
                    setup.count(&format!("{layer}.insts")) + ops.count(&format!("{layer}.insts"));
                let secs = (setup.stat(&layer).busy_ns + ops.stat(&layer).busy_ns) as f64 / 1e9;
                if secs > 0.0 {
                    insts / secs / 1e6
                } else {
                    0.0
                }
            } else {
                match name.as_str() {
                    "bench.grid.cell_p50_ms" => cells.as_ref().map_or(0.0, |c| c.p50),
                    "bench.grid.cell_tail_ms" => cells.as_ref().map_or(0.0, |c| c.tail.value),
                    "bench.cache.hit_ratio" => {
                        let gets = per(&|l| l.count("bench.cache.gets"));
                        if gets > 0.0 {
                            per(&|l| l.count("bench.cache.hits")) / gets
                        } else {
                            0.0
                        }
                    }
                    "trace.unattributed_pct" => ledger::unattributed_pct(&[setup, ops]),
                    "trace.overhead_pct" => overhead_pct,
                    other => match other.strip_suffix("_ms") {
                        // `<layer>_ms` is the busy time of span `<layer>`
                        // (or a time the workload counted under the name).
                        Some(layer)
                            if ops.layers.contains_key(layer)
                                || setup.layers.contains_key(layer) =>
                        {
                            per(&|l| busy_ms(l, layer))
                        }
                        _ => per(&|l| l.count(other)),
                    },
                }
            };
            (name, unit, value)
        })
        .collect()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match harness::parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload {} --seed N --seconds S [--trace 0|1]",
                harness::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = harness::check_environment() {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    println!("{}", harness::provenance(&args));
    let outcome = match args.workload.as_str() {
        "cold-grid" => cold::run(&args),
        "budget-sweep" => sweep::run(&args),
        "warm-service" => warm::run(&args),
        other => Err(format!("unknown workload '{other}'")),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    for line in &outcome.lines {
        println!("{line}");
    }
    for e in &outcome.log.errors {
        eprintln!("perfbench: FAILED {e}");
    }
    let correct = outcome.log.failed == 0;
    let width = outcome
        .metrics
        .iter()
        .map(|(n, _, _)| n.len())
        .max()
        .unwrap_or(0);
    for (name, unit, value) in &outcome.metrics {
        println!("  {name:width$}  {value:>14.4} {unit}");
    }
    println!(
        "{}",
        metrics::result_line(
            correct,
            outcome.log.attempted,
            outcome.log.failed,
            &outcome.metrics
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
