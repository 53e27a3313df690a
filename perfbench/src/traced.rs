//! The grid kernels again, step by step, with a ledger span around
//! every call into a layer.
//!
//! Each function here performs the calls of its counterpart in
//! `schematic_bench::grid` (and `schematic_bench::run_cell_scenario_traced`)
//! in the same order: build → profile → compile → check → decode →
//! run. The traced run asserts that every cell equals what the
//! untraced program computed, so this breakdown cannot drift from the
//! program unnoticed.

use crate::ledger::{count, span, timed};
use schematic_bench::grid::{CellValue, Job, JobKind, SoundCounts};
use schematic_bench::{
    eb_for_tbpf, intermittent_run_config, intermittent_run_config_model, technique_supports, Cell,
    CellOutcome, Scenario, ENERGY_TBPF, SEED, SVM_BYTES, TBPFS,
};
use schematic_benchsuite::Benchmark;
use schematic_core::{check_all, compile_with_profile, PlacementError, Profile, SchematicConfig};
use schematic_emu::{
    DecodedModule, EmuError, ExecTier, InstrumentedModule, Machine, PowerModel, RunConfig,
    RunOutcome,
};
use schematic_energy::{CostTable, Energy};
use schematic_ir::hash::Digest;
use schematic_ir::Module;

/// Builds `b`'s module for `seed`.
pub fn build(b: &Benchmark, seed: u64) -> Module {
    span("benchsuite.build", || (b.build)(seed))
}

fn oracle(b: &Benchmark) -> i32 {
    span("benchsuite.oracle", || (b.oracle)(SEED))
}

fn eb(table: &CostTable, cycles: u64) -> Energy {
    span("energy", || eb_for_tbpf(table, cycles))
}

fn digest(im: &InstrumentedModule) -> Digest {
    span("ir.hash", || im.stable_digest())
}

fn supports(technique: &str, module: &Module) -> bool {
    span("baselines.supports", || {
        technique_supports(technique, module)
    })
}

/// Collects the SCHEMATIC execution profile of `module`.
pub fn profile(module: &Module, table: &CostTable, config: &SchematicConfig) -> Profile {
    span("core.profile", || {
        Profile::collect(module, table, config.profile_runs)
    })
}

/// SCHEMATIC placement with an already collected profile.
pub fn compile_schematic(
    module: &Module,
    table: &CostTable,
    config: &SchematicConfig,
    profile: &Profile,
) -> Result<InstrumentedModule, PlacementError> {
    let out = span("core.compile", || {
        compile_with_profile(module, table, config, Some(profile))
    });
    match &out {
        Ok(c) => {
            count(
                "core.compile.checkpoints",
                c.instrumented.checkpoints.len() as f64,
            );
            count("core.compile.repairs", c.repairs as f64);
        }
        Err(_) => count("core.compile.rejected", 1.0),
    }
    out.map(|c| c.instrumented)
}

/// A baseline technique's placement.
pub fn compile_baseline(
    technique: &str,
    module: &Module,
    table: &CostTable,
    eb: Energy,
) -> Result<InstrumentedModule, PlacementError> {
    let out = span("baselines.compile", || {
        schematic_bench::compile_technique(technique, module, table, eb)
    });
    if out.is_err() {
        count("baselines.compile.rejected", 1.0);
    }
    out
}

/// `schematic_bench::compile_technique`, split into its layers.
fn compile_technique(
    technique: &str,
    module: &Module,
    table: &CostTable,
    eb: Energy,
) -> Result<InstrumentedModule, PlacementError> {
    if technique == "Schematic" {
        let config = schematic_config(eb);
        let p = profile(module, table, &config);
        compile_schematic(module, table, &config, &p)
    } else {
        compile_baseline(technique, module, table, eb)
    }
}

/// The configuration `compile_technique` uses for SCHEMATIC.
pub fn schematic_config(eb: Energy) -> SchematicConfig {
    let mut config = SchematicConfig::new(eb);
    config.svm_bytes = SVM_BYTES;
    config
}

/// The soundness check of a placement.
pub fn check(
    im: &InstrumentedModule,
    table: &CostTable,
    eb: Energy,
) -> Result<schematic_core::SoundnessReport, PlacementError> {
    let out = span("core.check", || check_all(im, table, eb));
    if let Ok(report) = &out {
        count("core.check.regions", report.anomalies.regions.len() as f64);
        if !report.is_sound() {
            count("core.check.unsound", 1.0);
        }
    }
    out
}

/// Which supply a run's time is booked under.
fn supply(power: &PowerModel) -> &'static str {
    match power {
        PowerModel::Continuous => "continuous",
        PowerModel::Periodic { .. } => "periodic",
        PowerModel::Stochastic { .. } => "stochastic",
        PowerModel::Trace { .. } => "trace",
    }
}

/// Decodes and runs `im`, booking the run under its effective tier
/// and its supply.
fn emulate(
    im: &InstrumentedModule,
    table: &CostTable,
    config: RunConfig,
) -> Result<RunOutcome, EmuError> {
    let decoded = span("emu.decode", || DecodedModule::new(im, table));
    let supply = supply(&config.power);
    let shadow = config.shadow_war;
    let machine = Machine::with_decoded(&decoded, config);
    let tier = match machine.effective_tier() {
        ExecTier::Aot => "aot",
        ExecTier::Interp if shadow => "shadow",
        other => panic!("unexpected effective tier {other:?}"),
    };
    let (out, ns) = timed(&format!("emu.run.{tier}"), || machine.run());
    count(&format!("emu.run.{supply}.busy_ns"), ns as f64);
    if let Ok(run) = &out {
        count(
            &format!("emu.run.{tier}.insts"),
            run.metrics.insts_retired as f64,
        );
        count(
            &format!("emu.run.{tier}.power_failures"),
            run.metrics.power_failures as f64,
        );
    }
    out
}

fn bench(name: &str) -> Benchmark {
    schematic_benchsuite::by_name(name).unwrap_or_else(|| panic!("unknown benchmark '{name}'"))
}

fn bare_run_config() -> RunConfig {
    RunConfig {
        svm_bytes: usize::MAX / 2,
        ..RunConfig::default()
    }
}

fn periodic_run_config(tbpf: u64) -> RunConfig {
    RunConfig {
        power: PowerModel::Periodic { tbpf },
        ..RunConfig::default()
    }
}

fn retentive_run_config(retentive: bool) -> RunConfig {
    RunConfig {
        retentive_sleep: retentive,
        ..periodic_run_config(ENERGY_TBPF)
    }
}

fn shadow_run_config(tbpf: u64) -> RunConfig {
    RunConfig {
        shadow_war: true,
        ..intermittent_run_config(tbpf)
    }
}

/// The SCHEMATIC configuration of the fig7, ablation and retentive
/// kinds.
fn explicit_config(job: &Job, table: &CostTable) -> SchematicConfig {
    let mut config = schematic_config(eb(table, ENERGY_TBPF));
    match job.kind {
        JobKind::Fig7 if job.technique == "All-NVM" => config.svm_bytes = 0,
        JobKind::Ablation => {
            let (liveness, ratio) = match job.technique.as_str() {
                "full" => (true, true),
                "no-liveness" => (false, true),
                "no-ratio" => (true, false),
                other => panic!("unknown ablation variant '{other}'"),
            };
            config.liveness_opt = liveness;
            config.ratio_ordering = ratio;
        }
        _ => {}
    }
    config
}

/// `schematic_bench::grid::evaluate_traced`, one layer call at a time.
pub fn evaluate(job: &Job, table: &CostTable) -> (CellValue, Vec<Digest>) {
    match job.kind {
        JobKind::Support => {
            let b = bench(&job.benchmark);
            let module = build(&b, SEED);
            (
                CellValue::Support(supports(&job.technique, &module)),
                vec![],
            )
        }
        JobKind::Bare => {
            let b = bench(&job.benchmark);
            let module = build(&b, SEED);
            let data_bytes = module.data_bytes() as u64;
            let im = InstrumentedModule::bare_all_vm(module);
            let d = digest(&im);
            let run = emulate(&im, table, bare_run_config()).expect("no traps");
            assert!(run.completed());
            assert_eq!(run.result, Some(oracle(&b)), "{}", b.name);
            let value = CellValue::Bare {
                cycles: run.metrics.active_cycles,
                data_bytes,
            };
            (value, vec![d])
        }
        JobKind::Run => {
            let b = bench(&job.benchmark);
            let (cell, d) = run_cell(&job.technique, &b, table, &job.scenario);
            let value = CellValue::Run {
                outcome: cell.outcome,
                reason: cell.reason,
            };
            (value, d.into_iter().collect())
        }
        JobKind::Fig7 | JobKind::Ablation => measured(job, table),
        JobKind::Retentive => retentive(job, table),
        JobKind::Sound => sound(job, table),
        JobKind::Shadow => shadow(job, table),
    }
}

/// `schematic_bench::run_cell_scenario_traced`, one layer call at a
/// time.
fn run_cell(
    technique: &str,
    b: &Benchmark,
    table: &CostTable,
    scenario: &Scenario,
) -> (Cell, Option<Digest>) {
    let fail = |reason: String| Cell {
        technique: technique.into(),
        benchmark: b.name.into(),
        outcome: None,
        reason: Some(reason),
    };
    let power = match scenario.power_model() {
        Ok(p) => p,
        Err(e) => return (fail(format!("bad scenario: {e}")), None),
    };
    let module = build(b, SEED);
    if !supports(technique, &module) {
        return (fail(format!("needs more than {SVM_BYTES} B of VM")), None);
    }
    let budget = eb(table, power.min_window_cycles());
    let im = match compile_technique(technique, &module, table, budget) {
        Ok(im) => im,
        Err(e) => return (fail(format!("no sound placement: {e}")), None),
    };
    let d = Some(digest(&im));
    match check(&im, table, budget) {
        Ok(report) if !report.anomalies.is_sound() => {
            return (
                fail(format!("anomaly: {}", report.verdict_named(&module))),
                d,
            )
        }
        Ok(_) => {}
        Err(e) => return (fail(format!("anomaly: {e}")), d),
    }
    let out = match emulate(&im, table, intermittent_run_config_model(power)) {
        Ok(out) => out,
        Err(e) => return (fail(format!("trapped: {e:?}")), d),
    };
    let correct = out.result == Some(oracle(b));
    let cell = Cell {
        technique: technique.into(),
        benchmark: b.name.into(),
        outcome: Some(CellOutcome {
            status: out.status,
            correct,
            metrics: out.metrics,
        }),
        reason: None,
    };
    (cell, d)
}

/// The fig7 and ablation kernels.
fn measured(job: &Job, table: &CostTable) -> (CellValue, Vec<Digest>) {
    let b = bench(&job.benchmark);
    let budget = eb(table, ENERGY_TBPF);
    let m = build(&b, SEED);
    let config = explicit_config(job, table);
    let p = profile(&m, table, &config);
    let note = |note: String| CellValue::Measured {
        metrics: None,
        note: Some(note),
    };
    let im = match compile_schematic(&m, table, &config, &p) {
        Ok(im) => im,
        Err(e) => return (note(format!("error: {e}")), vec![]),
    };
    let digests = vec![digest(&im)];
    // Only fig7 footnotes anomalous placements; ablations run them.
    if job.kind == JobKind::Fig7 {
        match check(&im, table, budget) {
            Ok(report) if !report.anomalies.is_sound() => {
                return (
                    note(format!("anomaly: {}", report.verdict_named(&m))),
                    digests,
                )
            }
            _ => {}
        }
    }
    let run = emulate(&im, table, periodic_run_config(ENERGY_TBPF)).expect("no traps");
    assert!(run.completed(), "{} {}", b.name, job.technique);
    assert_eq!(run.result, Some(oracle(&b)), "{} {}", b.name, job.technique);
    let value = CellValue::Measured {
        metrics: Some(run.metrics),
        note: None,
    };
    (value, digests)
}

fn retentive(job: &Job, table: &CostTable) -> (CellValue, Vec<Digest>) {
    let b = bench(&job.benchmark);
    let m = build(&b, SEED);
    let config = explicit_config(job, table);
    let p = profile(&m, table, &config);
    let im = compile_schematic(&m, table, &config, &p).expect("compiles");
    let digests = vec![digest(&im)];
    let mut total = [0u64; 2];
    for (i, retentive) in [false, true].into_iter().enumerate() {
        let run = emulate(&im, table, retentive_run_config(retentive)).expect("no traps");
        assert!(run.completed());
        assert_eq!(run.result, Some(oracle(&b)));
        total[i] = run.metrics.total_energy().as_pj();
    }
    let value = CellValue::Retentive {
        deep_pj: total[0],
        retentive_pj: total[1],
    };
    (value, digests)
}

fn sound(job: &Job, table: &CostTable) -> (CellValue, Vec<Digest>) {
    let b = bench(&job.benchmark);
    let budget = eb(table, ENERGY_TBPF);
    let module = build(&b, SEED);
    let skip = |note: String| CellValue::Sound {
        counts: None,
        note: Some(note),
    };
    if !supports(&job.technique, &module) {
        return (skip("unsupported".into()), vec![]);
    }
    let im = match compile_technique(&job.technique, &module, table, budget) {
        Ok(im) => im,
        Err(e) => return (skip(format!("error: {e}")), vec![]),
    };
    let digests = vec![digest(&im)];
    let report = match check(&im, table, budget) {
        Ok(r) => r,
        Err(e) => return (skip(format!("error: {e}")), digests),
    };
    let [idem, free, shielded, hazardous] = report.anomalies.class_counts();
    let value = CellValue::Sound {
        counts: Some(SoundCounts {
            regions: report.anomalies.regions.len() as u64,
            idempotent: idem as u64,
            war_free: free as u64,
            shielded: shielded as u64,
            hazardous: hazardous as u64,
            placement_sound: report.placement.is_sound(),
        }),
        note: None,
    };
    (value, digests)
}

fn shadow(job: &Job, table: &CostTable) -> (CellValue, Vec<Digest>) {
    let b = bench(&job.benchmark);
    let budget = eb(table, ENERGY_TBPF);
    let module = build(&b, SEED);
    let skipped = CellValue::Shadow {
        observed: None,
        unpredicted: 0,
    };
    if !supports(&job.technique, &module) {
        return (skipped, vec![]);
    }
    let Ok(im) = compile_technique(&job.technique, &module, table, budget) else {
        return (skipped, vec![]);
    };
    let digests = vec![digest(&im)];
    let Ok(report) = check(&im, table, budget) else {
        return (skipped, digests);
    };
    let mut observed: Vec<(schematic_ir::VarId, u32)> = Vec::new();
    for tbpf in TBPFS {
        if let Ok(run) = emulate(&im, table, shadow_run_config(tbpf)) {
            observed.extend(run.shadow.expect("shadow requested").war_elems());
        }
    }
    observed.sort_unstable();
    observed.dedup();
    let unpredicted = observed
        .iter()
        .filter(|&&(v, e)| !report.anomalies.predicts_element(v, e))
        .count();
    let mut observed_vars: Vec<schematic_ir::VarId> = observed.iter().map(|&(v, _)| v).collect();
    observed_vars.dedup();
    let value = CellValue::Shadow {
        observed: Some(observed_vars.len() as u64),
        unpredicted: unpredicted as u64,
    };
    (value, digests)
}
