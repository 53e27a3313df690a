//! `budget-sweep`: compile one (benchmark, technique, budget) point
//! and check it — the capacitor-sizing workflow (paper Fig. 8).
//!
//! Set-up builds every benchmark from the workload seed and collects
//! its SCHEMATIC profile. An operation compiles one point (SCHEMATIC
//! through `compile_with_profile` with that profile, the baselines
//! through `compile_technique`) and runs `check_all` on the placement.
//! Nothing is emulated while timing.

use crate::harness::{self, time_ms, Args};
use crate::ledger::{self, span, span_if};
use crate::stats::{geomean, median};
use crate::{layer_metrics, traced, Outcome};
use schematic_bench::grid::{evaluate, CellValue, Job};
use schematic_bench::{
    compile_technique, eb_for_tbpf, technique_names, technique_supports, ENERGY_TBPF,
};
use schematic_benchsuite::inputs::SplitMix64;
use schematic_core::{check_all, compile_with_profile, PlacementError, Profile, SoundnessReport};
use schematic_emu::InstrumentedModule;
use schematic_energy::{CostTable, Energy};
use schematic_ir::hash::Digest;
use schematic_ir::Module;

/// Budgets per (benchmark, technique): one per stratum of the
/// log-spaced range.
pub const STRATA: u32 = 32;

/// The budget range, in cycles of the cheapest instruction.
pub const MIN_CYCLES: f64 = 1_000.0;
/// See [`MIN_CYCLES`].
pub const MAX_CYCLES: f64 = 128_000.0;

/// One budget per stratum of `[MIN_CYCLES, MAX_CYCLES)` on a log
/// scale, so every seed covers the whole range evenly.
pub fn budgets(rng: &mut SplitMix64) -> Vec<u64> {
    let span = (MAX_CYCLES / MIN_CYCLES).ln();
    (0..STRATA)
        .map(|k| {
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            let x = (f64::from(k) + u) / f64::from(STRATA);
            (MIN_CYCLES * (span * x).exp()) as u64
        })
        .collect()
}

/// One point of the sweep.
#[derive(Debug, Clone)]
pub struct Point {
    bench: usize,
    technique: &'static str,
    cycles: u64,
    eb: Energy,
}

/// A benchmark module built from the workload seed, with its profile.
struct Prepared {
    name: &'static str,
    module: Module,
    profile: Profile,
}

fn prepare(seed: u64, table: &CostTable, traced_setup: bool) -> (Vec<Prepared>, Vec<Point>) {
    let mut rng = SplitMix64::new(seed ^ 0x00b0_d6e7);
    let config = traced::schematic_config(eb_for_tbpf(table, ENERGY_TBPF));
    let mut prepared = Vec::new();
    let mut points = Vec::new();
    for (i, b) in schematic_benchsuite::all().into_iter().enumerate() {
        let (module, profile) = if traced_setup {
            let module = traced::build(&b, seed);
            let profile = traced::profile(&module, table, &config);
            (module, profile)
        } else {
            let module = (b.build)(seed);
            let profile = Profile::collect(&module, table, config.profile_runs);
            (module, profile)
        };
        for technique in technique_names() {
            if !technique_supports(technique, &module) {
                continue;
            }
            for cycles in budgets(&mut rng) {
                points.push(Point {
                    bench: i,
                    technique,
                    cycles,
                    eb: eb_for_tbpf(table, cycles),
                });
            }
        }
        prepared.push(Prepared {
            name: b.name,
            module,
            profile,
        });
    }
    (prepared, points)
}

type Placed = Result<(InstrumentedModule, Result<SoundnessReport, PlacementError>), PlacementError>;

/// Compiles and checks one point.
fn compile_point(p: &Point, prep: &Prepared, table: &CostTable, trace: bool) -> Placed {
    let im = match (p.technique, trace) {
        ("Schematic", false) => compile_with_profile(
            &prep.module,
            table,
            &traced::schematic_config(p.eb),
            Some(&prep.profile),
        )
        .map(|c| c.instrumented),
        ("Schematic", true) => traced::compile_schematic(
            &prep.module,
            table,
            &traced::schematic_config(p.eb),
            &prep.profile,
        ),
        (technique, false) => compile_technique(technique, &prep.module, table, p.eb),
        (technique, true) => traced::compile_baseline(technique, &prep.module, table, p.eb),
    }?;
    let report = if trace {
        traced::check(&im, table, p.eb)
    } else {
        check_all(&im, table, p.eb)
    };
    Ok((im, report))
}

/// What a point produced, reduced to comparable values.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PointSummary {
    /// `None` when the placement was rejected.
    digest: Option<Digest>,
    checkpoints: usize,
    /// `None` when the check itself failed.
    sound: Option<bool>,
}

/// Summarizes a point's result.
///
/// # Errors
///
/// A SCHEMATIC placement that compiled but is unsound under
/// `check_all`.
fn summarize(p: &Point, prep: &Prepared, placed: &Placed) -> Result<PointSummary, String> {
    let Ok((im, report)) = placed else {
        return Ok(PointSummary {
            digest: None,
            checkpoints: 0,
            sound: None,
        });
    };
    let sound = report.as_ref().ok().map(SoundnessReport::is_sound);
    if p.technique == "Schematic" && sound != Some(true) {
        return Err(format!(
            "SCHEMATIC placement of {} at {} cycles is unsound: {}",
            prep.name,
            p.cycles,
            match report {
                Ok(r) => r.verdict_named(&prep.module),
                Err(e) => e.to_string(),
            }
        ));
    }
    Ok(PointSummary {
        digest: Some(im.stable_digest()),
        checkpoints: im.checkpoints.len(),
        sound,
    })
}

/// SCHEMATIC's simulated energy at the Fig. 6 basis, from the grid's
/// own `run` cells.
fn sim_energy_uj(table: &CostTable) -> Result<f64, String> {
    let mut energies = Vec::new();
    for b in schematic_benchsuite::all() {
        match evaluate(&Job::run("Schematic", b.name, ENERGY_TBPF), table) {
            CellValue::Run {
                outcome: Some(o), ..
            } => energies.push(o.metrics.total_energy().as_uj()),
            other => return Err(format!("Schematic {} did not run: {other:?}", b.name)),
        }
    }
    Ok(geomean(&energies))
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let table = CostTable::msp430fr5969();
    let (prepared, points, setup_s, setup_ledger) = if args.trace {
        ledger::take();
        let (p, pts) = span(ledger::FRAME, || prepare(args.seed, &table, true));
        (p, pts, Vec::new(), ledger::take())
    } else {
        let ((p, pts), secs) = harness::repeat_setup(5, || prepare(args.seed, &table, false));
        (p, pts, secs, ledger::Ledger::default())
    };
    let n = points.len();
    let mut lines = vec![format!(
        "input: {n} points per pass ({} benchmarks x supported techniques x {STRATA} budgets in {MIN_CYCLES}..{MAX_CYCLES} cycles), one thread",
        prepared.len()
    )];
    let mut first_pass: Vec<Option<PointSummary>> = vec![None; n];
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let batch = if args.trace { 2 * n } else { n };
    let log = harness::run_ops(args.seconds, batch, |i| {
        let p = &points[i % n];
        let prep = &prepared[p.bench];
        let trace = args.trace && (i / n) % 2 == 1;
        let (placed, ms) = time_ms(|| {
            span_if(trace, ledger::FRAME, || {
                compile_point(p, prep, &table, trace)
            })
        });
        if trace {
            traced_ms.push(ms);
        } else {
            untraced_ms.push(ms);
        }
        let result = summarize(p, prep, &placed).and_then(|s| match &first_pass[i % n] {
            None => {
                first_pass[i % n] = Some(s);
                Ok(())
            }
            Some(f) if *f == s => Ok(()),
            Some(_) => Err(format!(
                "{} {} at {} cycles differs from its first compile",
                prep.name, p.technique, p.cycles
            )),
        });
        (ms, result)
    });
    let summaries: Vec<&PointSummary> = first_pass.iter().flatten().collect();
    let placed = summaries.iter().filter(|s| s.digest.is_some()).count();
    let checkpoints: usize = summaries.iter().map(|s| s.checkpoints).sum();
    let baseline_unsound = summaries.iter().filter(|s| s.sound == Some(false)).count();
    let mut h = schematic_ir::hash::StableHasher::new();
    for s in &summaries {
        h.write_u64(s.digest.map_or(0, |d| d.hi ^ d.lo));
        h.write_usize(s.checkpoints);
        h.write_u64(s.sound.map_or(2, u64::from));
    }
    lines.push(format!(
        "counts per pass: placements {placed} | rejected compiles {} (expected at small budgets) | checkpoints placed {checkpoints} | unsound baseline placements {baseline_unsound} (expected)",
        summaries.len() - placed
    ));
    lines.push(format!("placement digest: {}", h.finish().to_hex()));
    if !args.trace {
        let energy = sim_energy_uj(&table)?;
        return Ok(Outcome::end_to_end(&setup_s, log, energy, lines));
    }
    let ops = ledger::take();
    let overhead = 100.0 * (median(&traced_ms) / median(&untraced_ms) - 1.0);
    lines.push(format!(
        "traced: {} untraced / {} traced operations; traced placements equal untraced ones",
        untraced_ms.len(),
        traced_ms.len()
    ));
    Ok(Outcome {
        log,
        metrics: layer_metrics(&setup_ledger, &ops, traced_ms.len(), overhead),
        lines,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_cover_every_stratum_once() {
        for seed in [1u64, 2, 99] {
            let b = budgets(&mut SplitMix64::new(seed));
            assert_eq!(b.len(), STRATA as usize);
            for (k, &c) in b.iter().enumerate() {
                let x = (c as f64 / MIN_CYCLES).ln() / (MAX_CYCLES / MIN_CYCLES).ln();
                let stratum = (x * f64::from(STRATA)).floor() as usize;
                assert!(
                    stratum == k || stratum + 1 == k,
                    "{c} in stratum {stratum}, want {k}"
                );
                assert!((MIN_CYCLES as u64..MAX_CYCLES as u64).contains(&c));
            }
        }
        assert_eq!(
            budgets(&mut SplitMix64::new(5)),
            budgets(&mut SplitMix64::new(5))
        );
    }
}
