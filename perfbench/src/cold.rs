//! `cold-grid`: regenerate every report from scratch.
//!
//! One operation is one `compute_cached` call over a fresh cache file,
//! covering the full paper grid plus the robust grid (stochastic seeds
//! drawn from the workload seed, plus every recorded trace), followed
//! by `render_all` and `render_robust`.

use crate::harness::{self, time_ms, Args, WorkDir};
use crate::ledger::{self, count, span, timed};
use crate::stats::{geomean, median};
use crate::{layer_metrics, Outcome};
use schematic_bench::cache::{self, CellCache, SourceDigests};
use schematic_bench::experiments::{render_all, render_robust, ROBUST_JITTER};
use schematic_bench::grid::{CellStore, CellValue, GridMode, GridSpec, Job, JobKind};
use schematic_bench::parallel::{jobs as par_jobs, par_map};
use schematic_bench::scenario::{available_traces, load_trace};
use schematic_bench::{technique_names, Scenario, ENERGY_TBPF, TBPFS};
use schematic_benchsuite::inputs::SplitMix64;
use schematic_emu::{Metrics, RunStatus};
use schematic_energy::CostTable;
use schematic_ir::hash::StableHasher;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Stochastic supply seeds on the robust axis.
pub const ROBUST_SEEDS: usize = 8;

/// The jobs of one regeneration.
#[derive(Debug, Clone)]
pub struct JobSet {
    /// Paper grid plus robust grid, sorted and deduplicated.
    pub jobs: Vec<Job>,
    /// The drawn stochastic seeds, in draw order.
    pub seeds: Vec<u64>,
    /// Each robust scenario with the label `render_robust` reads it
    /// under: it renders stochastic seeds `1..=n` only, so the i-th
    /// drawn seed is shown as seed `i + 1`; traces keep their names.
    robust: Vec<(Scenario, Scenario)>,
}

fn stochastic(seed: u64) -> Scenario {
    Scenario::Stochastic {
        mean_tbpf: ENERGY_TBPF,
        jitter: ROBUST_JITTER,
        seed,
    }
}

/// [`ROBUST_SEEDS`] distinct supply seeds drawn from `seed`.
pub fn robust_seeds(seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed ^ 0x5eed_c01d_6e1d);
    let mut seeds: Vec<u64> = Vec::with_capacity(ROBUST_SEEDS);
    while seeds.len() < ROBUST_SEEDS {
        let s = rng.next_u64() >> 16;
        if !seeds.contains(&s) {
            seeds.push(s);
        }
    }
    seeds
}

/// Builds the job set for `seed`, interning every recorded trace.
///
/// # Errors
///
/// A trace that fails to load.
pub fn job_set(seed: u64) -> Result<JobSet, String> {
    let traces = available_traces();
    if traces.is_empty() {
        return Err("no recorded traces found".into());
    }
    for id in &traces {
        load_trace(id)?;
    }
    let seeds = robust_seeds(seed);
    let labelled = seeds
        .iter()
        .enumerate()
        .map(|(i, &s)| (stochastic(s), stochastic(i as u64 + 1)));
    let traces = traces.into_iter().map(|id| {
        let t = Scenario::Trace { id };
        (t.clone(), t)
    });
    let robust: Vec<(Scenario, Scenario)> = labelled.chain(traces).collect();
    let mut jobs = GridSpec::full_grid(GridMode::Full).jobs().to_vec();
    for tech in technique_names() {
        for b in schematic_benchsuite::all() {
            for (drawn, _) in &robust {
                jobs.push(Job::run_scenario(tech, b.name, drawn.clone()));
            }
        }
    }
    jobs.sort();
    jobs.dedup();
    Ok(JobSet {
        jobs,
        seeds,
        robust,
    })
}

/// Renders the paper's reports and the robust report.
pub fn render(store: &CellStore, set: &JobSet) -> String {
    let mut labelled = CellStore::new();
    for tech in technique_names() {
        for b in schematic_benchsuite::all() {
            for (drawn, label) in &set.robust {
                let value = store.value(&Job::run_scenario(tech, b.name, drawn.clone()));
                labelled
                    .insert(
                        Job::run_scenario(tech, b.name, label.clone()),
                        value.clone(),
                    )
                    .expect("labels are distinct");
            }
        }
    }
    let mut text = render_all(store, GridMode::Full);
    text.push_str(&render_robust(&labelled, set.seeds.len() as u64));
    text
}

/// One regeneration over a fresh cache file at `path`.
///
/// # Errors
///
/// The grid layer's error.
pub fn regenerate(set: &JobSet, path: &Path) -> Result<(CellStore, String), String> {
    let mut cache = CellCache::open(path);
    let (store, stats) = cache::compute_cached(&set.jobs, Some(&mut cache), false, &|_, _| {})
        .map_err(|e| e.to_string())?;
    if stats.hits != 0 || stats.computed != set.jobs.len() {
        return Err(format!(
            "fresh cache answered {} of {} jobs",
            stats.hits,
            set.jobs.len()
        ));
    }
    let text = render(&store, set);
    Ok((store, text))
}

/// Exact counts of one regenerated store.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Instructions retired over every measured run.
    pub insts: u64,
    /// Power failures over every measured run.
    pub power_failures: u64,
    /// Checkpoints committed over every measured run.
    pub checkpoints: u64,
    /// Cells whose placement was rejected.
    pub rejected: u64,
    /// Baseline `run` cells that are not ✓ (expected).
    pub baseline_not_ok: u64,
    /// Robust SCHEMATIC cells that did not complete (expected).
    pub robust_incomplete: u64,
}

fn add_metrics(t: &mut Tally, m: &Metrics) {
    t.insts += m.insts_retired;
    t.power_failures += m.power_failures;
    t.checkpoints += m.checkpoints_committed;
}

/// Checks a regenerated store and counts its work.
///
/// # Errors
///
/// Every wrong output: a completed run that disagrees with its native
/// oracle, a SCHEMATIC Table III cell that is not ✓, an unsound
/// SCHEMATIC placement, or a shadow cell with unpredicted WARs.
pub fn check_store(store: &CellStore, set: &JobSet) -> Result<Tally, String> {
    let mut t = Tally::default();
    let mut wrong = Vec::new();
    for job in &set.jobs {
        let schematic = job.technique == "Schematic";
        match store.value(job) {
            CellValue::Run { outcome, reason } => {
                if let Some(o) = outcome {
                    add_metrics(&mut t, &o.metrics);
                    if o.status == RunStatus::Completed && !o.correct {
                        wrong.push(format!("{job}: completed run disagrees with its oracle"));
                    }
                }
                let reason = reason.as_deref().unwrap_or("");
                if reason.starts_with("no sound placement") {
                    t.rejected += 1;
                }
                if schematic && reason.starts_with("anomaly") {
                    wrong.push(format!("{job}: unsound SCHEMATIC placement: {reason}"));
                }
                let ok = store
                    .run_cell_scenario(&job.technique, &job.benchmark, job.scenario.clone())
                    .ok();
                match (schematic, job.scenario.as_periodic()) {
                    (true, Some(_)) if !ok => {
                        wrong.push(format!("{job}: SCHEMATIC Table III cell is not ok"))
                    }
                    (false, Some(_)) if !ok => t.baseline_not_ok += 1,
                    (true, None) if !ok => t.robust_incomplete += 1,
                    _ => {}
                }
            }
            CellValue::Measured { metrics, note } => match metrics {
                Some(m) => add_metrics(&mut t, m),
                None if note.as_deref().is_some_and(|n| n.starts_with("error")) => t.rejected += 1,
                None => {}
            },
            CellValue::Sound { counts, note } => {
                if let Some(c) = counts {
                    if schematic && (!c.placement_sound || c.hazardous > 0) {
                        wrong.push(format!(
                            "{job}: SCHEMATIC placement unsound under check_all"
                        ));
                    }
                } else if note.as_deref().is_some_and(|n| n.starts_with("error")) {
                    t.rejected += 1;
                }
            }
            CellValue::Shadow { unpredicted, .. } if *unpredicted > 0 => {
                wrong.push(format!("{job}: {unpredicted} unpredicted WAR(s)"))
            }
            _ => {}
        }
    }
    // Table III: every SCHEMATIC cell at every TBPF must be ✓.
    for tbpf in TBPFS {
        for b in schematic_benchsuite::all() {
            if !store.run_cell("Schematic", b.name, tbpf).ok() {
                wrong.push(format!(
                    "Table III: Schematic {} @ {tbpf} is not ok",
                    b.name
                ));
            }
        }
    }
    wrong.dedup();
    if wrong.is_empty() {
        Ok(t)
    } else {
        Err(wrong.join("; "))
    }
}

/// A digest of every simulated statistic in `store`.
pub fn store_digest(store: &CellStore) -> String {
    let mut h = StableHasher::new();
    h.write_str(&store.to_jsonl());
    h.finish().to_hex()
}

/// Geometric mean over the benchmarks of SCHEMATIC's total simulated
/// energy at periodic TBPF [`ENERGY_TBPF`], in µJ (the Fig. 6 basis).
pub fn sim_energy_uj(store: &CellStore) -> Result<f64, String> {
    let mut energies = Vec::new();
    for b in schematic_benchsuite::all() {
        let cell = store.run_cell("Schematic", b.name, ENERGY_TBPF);
        let outcome = cell
            .outcome
            .ok_or_else(|| format!("Schematic {} @ {ENERGY_TBPF} did not run", b.name))?;
        energies.push(outcome.metrics.total_energy().as_uj());
    }
    Ok(geomean(&energies))
}

/// The traced counterpart of [`regenerate`]: the same calls, with
/// `compute_cached` opened up into its cache lookups, the parallel
/// map over the traced grid kernels, and the cache writes.
fn regenerate_traced(set: &JobSet, path: &Path) -> Result<(CellStore, String), String> {
    let table = CostTable::msp430fr5969();
    let mut cache = span("bench.cache.open", || CellCache::open(path));
    let mut sources = SourceDigests::new();
    let (hits, misses) = span("bench.cache.resolve", || {
        cache::resolve(&set.jobs, &cache, &table, &mut sources)
    });
    count("bench.cache.gets", set.jobs.len() as f64);
    count("bench.cache.hits", hits.len() as f64);
    if !hits.is_empty() {
        return Err(format!("fresh cache answered {} jobs", hits.len()));
    }
    let last_end: Mutex<HashMap<std::thread::ThreadId, Instant>> = Mutex::new(HashMap::new());
    let cells_ns = AtomicU64::new(0);
    let start = Instant::now();
    let computed = span("bench.parallel", || {
        par_map(&misses, |job| {
            let kind = job.kind.name();
            let (out, ns) = timed(&format!("bench.grid.{kind}"), || {
                crate::traced::evaluate(job, &table)
            });
            cells_ns.fetch_add(ns, Ordering::Relaxed);
            last_end
                .lock()
                .expect("no panic while held")
                .insert(std::thread::current().id(), Instant::now());
            out
        })
    });
    let wall = start.elapsed().as_secs_f64();
    let ends = last_end.into_inner().expect("no panic while held");
    let workers = par_jobs().min(misses.len()).max(1);
    let first_idle = ends
        .values()
        .map(|t| t.duration_since(start).as_secs_f64())
        .fold(f64::INFINITY, f64::min);
    // A worker that never ran a cell idled the whole pass.
    let first_idle = if ends.len() < workers {
        0.0
    } else {
        first_idle
    };
    count("bench.parallel.tail_idle_ms", (wall - first_idle) * 1e3);
    let cells_s = cells_ns.into_inner() as f64 / 1e9;
    count(
        "bench.parallel.utilization",
        cells_s / (workers as f64 * wall),
    );
    span("bench.cache.put", || {
        for (job, (value, ims)) in misses.iter().zip(&computed) {
            let source = sources.digest(&job.benchmark);
            let ck = cache::cell_key(job, &table, ims);
            cache.memo_put(cache::memo_key(job, &table, source), ims.clone());
            cache.cell_put(ck, job, value.clone());
        }
    });
    count("bench.cache.puts", misses.len() as f64);
    let mut store = CellStore::new();
    for (job, (value, _)) in misses.iter().zip(computed) {
        store
            .insert(job.clone(), value)
            .map_err(|e| e.to_string())?;
    }
    let text = span("bench.experiments.render", || render(&store, set));
    let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
    count("bench.cache.bytes", bytes as f64);
    Ok((store, text))
}

/// Cell kinds in `set`, for the input-size line.
fn kind_counts(set: &JobSet) -> String {
    let mut counts: BTreeMap<JobKind, usize> = BTreeMap::new();
    for job in &set.jobs {
        *counts.entry(job.kind).or_default() += 1;
    }
    counts
        .iter()
        .map(|(k, n)| format!("{}={n}", k.name()))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let work = WorkDir::new("cold-grid").map_err(|e| format!("work dir: {e}"))?;
    let path = work.file("cells.jsonl");
    let (set, setup_s) = harness::repeat_setup(21, || job_set(args.seed));
    let set = set?;
    let mut lines = vec![format!(
        "input: {} jobs per operation ({}); robust seeds {:?}; workers {}",
        set.jobs.len(),
        kind_counts(&set),
        set.seeds,
        par_jobs()
    )];
    let mut first: Option<(String, Tally)> = None;
    let mut check = |store: &CellStore| -> Result<(), String> {
        let tally = check_store(store, &set)?;
        let digest = store_digest(store);
        match &first {
            None => first = Some((digest, tally)),
            Some((d, t)) if *d == digest && *t == tally => {}
            Some(_) => return Err("store differs from the first operation's".into()),
        }
        Ok(())
    };
    if !args.trace {
        let mut last_store = None;
        let log = harness::run_ops(args.seconds, 1, |_| {
            let _ = std::fs::remove_file(&path);
            let (out, ms) = time_ms(|| regenerate(&set, &path));
            let result = out.and_then(|(store, _)| {
                let r = check(&store);
                last_store = Some(store);
                r
            });
            (ms, result)
        });
        // With no correct operation there is no store to read; the
        // result line still goes out, marked incorrect.
        let energy = match &last_store {
            Some(store) => sim_energy_uj(store)?,
            None => 0.0,
        };
        let cache_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
        if let Some((digest, t)) = &first {
            lines.push(format!(
                "counts per operation: emulated insts {} | power failures {} | checkpoints committed {} | rejected compiles {} | baseline cells not ok {} (expected) | robust Schematic non-completions {} (expected) | cache bytes {cache_bytes}",
                t.insts, t.power_failures, t.checkpoints, t.rejected, t.baseline_not_ok, t.robust_incomplete
            ));
            lines.push(format!("store digest: {digest}"));
        }
        return Ok(Outcome::end_to_end(&setup_s, log, energy, lines));
    }
    // Traced run: alternate untraced and traced operations; the
    // traced store must equal the untraced one cell by cell.
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut last_store: Option<(CellStore, String)> = None;
    ledger::take();
    let log = harness::run_ops(args.seconds, 2, |i| {
        let _ = std::fs::remove_file(&path);
        if i % 2 == 0 {
            let (out, ms) = time_ms(|| regenerate(&set, &path));
            untraced_ms.push(ms);
            let result = out.and_then(|(store, text)| {
                let r = check(&store);
                last_store = Some((store, text));
                r
            });
            return (ms, result);
        }
        let (out, ms) = time_ms(|| span(ledger::FRAME, || regenerate_traced(&set, &path)));
        traced_ms.push(ms);
        let result = out.and_then(|(store, text)| {
            let (reference, reference_text) = last_store.as_ref().ok_or("no untraced store")?;
            for job in &set.jobs {
                if store.get(job) != reference.get(job) {
                    return Err(format!("traced cell {job} differs from grid::evaluate"));
                }
            }
            if text != *reference_text {
                return Err("traced render differs".into());
            }
            check(&store)
        });
        (ms, result)
    });
    let overhead = 100.0 * (median(&traced_ms) / median(&untraced_ms) - 1.0);
    let ops = ledger::take();
    lines.push(format!(
        "traced: {} untraced / {} traced operations; every traced cell equals grid::evaluate",
        untraced_ms.len(),
        traced_ms.len()
    ));
    Ok(Outcome {
        log,
        metrics: layer_metrics(&ledger::Ledger::default(), &ops, traced_ms.len(), overhead),
        lines,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use schematic_bench::grid::evaluate;

    #[test]
    fn robust_seeds_are_distinct_and_reproducible() {
        let a = robust_seeds(7);
        assert_eq!(a.len(), ROBUST_SEEDS);
        assert_eq!(a, robust_seeds(7));
        assert_ne!(a, robust_seeds(8));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ROBUST_SEEDS);
    }

    #[test]
    fn traced_kernels_equal_grid_evaluate_on_every_kind() {
        let table = CostTable::msp430fr5969();
        let set = job_set(3).expect("recorded traces load");
        for kind in crate::metrics::JOB_KINDS {
            let job = set
                .jobs
                .iter()
                .find(|j| j.kind.name() == kind && j.benchmark == "crc")
                .unwrap_or_else(|| panic!("no crc job of kind {kind}"));
            let (traced, _) = crate::traced::evaluate(job, &table);
            assert_eq!(traced, evaluate(job, &table), "{job}");
        }
        let robust = set
            .jobs
            .iter()
            .find(|j| j.benchmark == "crc" && j.scenario.as_periodic().is_none())
            .expect("a robust crc job");
        assert_eq!(
            crate::traced::evaluate(robust, &table).0,
            evaluate(robust, &table)
        );
    }
}
