//! Differential fuzz of the emulator's dispatch paths.
//!
//! [`ExecTier`] has two engines, the per-instruction reference and the
//! fused `Aot` engine, and the fused engine has three dispatch paths:
//! single blocks through the lean block path (path-recording runs),
//! resident trace superblocks, and AOT micro-op tapes. Each is *only* a
//! faster encoding of per-instruction stepping: every run must produce
//! bit-identical [`Metrics`], the same result, and the same trap, no
//! matter the path. This sweep generates random looping modules
//! (seeded [`SplitMix64`], deterministic), instruments them with random
//! checkpoints and VM placements under both failure policies, runs each
//! case down every path (see [`PATHS`]) and asserts the outcomes are
//! indistinguishable.
//!
//! A golden companion test pins the tier-forcing contract: the shadow
//! recorder and the phase tracer observe individual accesses/steps, so
//! enabling either must force the per-instruction tier regardless of
//! the configured one.

use schematic_benchsuite::inputs::SplitMix64;
use schematic_emu::{
    AllocationPlan, CheckpointKind, CheckpointSpec, ExecTier, FailurePolicy, InstrumentedModule,
    Machine, PowerModel, RunConfig,
};
use schematic_energy::CostTable;
use schematic_ir::{
    BinOp, BlockId, CheckpointId, CmpOp, FunctionBuilder, Inst, Module, ModuleBuilder, VarId,
    VarSet, Variable,
};

const CASES: u64 = 256;
const SEED: u64 = 0x7143_B17E;

/// One dispatch path, as the [`RunConfig`] fields that select it.
#[derive(Debug, Clone, Copy)]
struct Path {
    tier: ExecTier,
    record_trace: bool,
    aot_threshold: u32,
}

/// The per-instruction reference every other path must match.
const INTERP: Path = Path {
    tier: ExecTier::Interp,
    record_trace: false,
    aot_threshold: 1,
};

/// Every dispatch path: the reference; the lean single-block path
/// (path recording keeps `Aot` runs non-resident); resident traces
/// with a threshold no run reaches, so no tape is ever built; and
/// tapes built on a trace's first dispatch.
const PATHS: [Path; 4] = [
    INTERP,
    Path {
        tier: ExecTier::Aot,
        record_trace: true,
        aot_threshold: 1,
    },
    Path {
        tier: ExecTier::Aot,
        record_trace: false,
        aot_threshold: u32::MAX,
    },
    Path {
        tier: ExecTier::Aot,
        record_trace: false,
        aot_threshold: 1,
    },
];

/// One random module: a bounded counting loop whose body is 2–4 blocks
/// of random loads, stores and arithmetic over 2–4 scalars and 1–2
/// small arrays. The loop's unconditional interior edges give the
/// decoder real trace superblocks, and its conditional back edge
/// exercises the superloop's mid-trace re-entry.
fn random_module(rng: &mut SplitMix64) -> (Module, Vec<(VarId, usize)>) {
    let mut mb = ModuleBuilder::new("fuzz");
    let mut vars: Vec<(VarId, usize)> = Vec::new();
    for i in 0..2 + rng.below(3) {
        vars.push((mb.var(Variable::scalar(format!("s{i}"))), 1));
    }
    for i in 0..1 + rng.below(2) {
        let words = 2 + rng.below(6) as usize;
        vars.push((mb.var(Variable::array(format!("a{i}"), words)), words));
    }
    let mut f = FunctionBuilder::new("main", 0);
    let head = f.new_block("head");
    let n_body = 2 + rng.below(3) as usize;
    let body: Vec<BlockId> = (0..n_body).map(|i| f.new_block(format!("b{i}"))).collect();
    let exit = f.new_block("exit");
    let iters = 3 + rng.below(30);
    let i = f.copy(0);
    f.br(head);
    f.switch_to(head);
    f.set_max_iters(head, u64::from(iters) + 1);
    let fin = f.cmp(CmpOp::UGe, i, iters as i32);
    f.cond_br(fin, exit, body[0]);
    for (bi, &b) in body.iter().enumerate() {
        f.switch_to(b);
        let mut last = i;
        for _ in 0..1 + rng.below(7) {
            let (var, words) = vars[rng.below(vars.len() as u32) as usize];
            match (words, rng.below(4)) {
                (1, 0) => last = f.load_scalar(var),
                (1, 1) => f.store_scalar(var, last),
                (w, 0) => last = f.load_idx(var, rng.below(w as u32) as i32),
                (w, 1) => {
                    // Register-indexed access: the AOT tape's inline
                    // bounds-checked path. `i < iters <= 33`, so wrap
                    // it into range with a masked immediate index when
                    // the array is smaller.
                    let idx = if u64::from(iters) <= w as u64 {
                        last = f.copy(i);
                        last
                    } else {
                        f.copy(rng.below(w as u32) as i32)
                    };
                    last = f.load_idx(var, idx);
                }
                (w, 2) => {
                    let idx = rng.below(w as u32) as i32;
                    f.store_idx(var, idx, last);
                }
                _ => {
                    let op = match rng.below(6) {
                        0 => BinOp::Add,
                        1 => BinOp::Sub,
                        2 => BinOp::Mul,
                        3 => BinOp::Xor,
                        4 => BinOp::And,
                        _ => BinOp::Shl,
                    };
                    last = if rng.below(2) == 0 {
                        f.bin(op, last, rng.next_i32() & 0xFF)
                    } else {
                        f.bin(op, last, i)
                    };
                }
            }
        }
        if bi + 1 < n_body {
            f.br(body[bi + 1]);
        } else {
            let i2 = f.bin(BinOp::Add, i, 1);
            f.copy_to(i, i2);
            f.br(head);
        }
    }
    f.switch_to(exit);
    f.ret(None);
    let main = mb.func(f.finish());
    (mb.finish(main), vars)
}

/// Random instrumentation: plain checkpoints in ~a third of the blocks
/// and a random per-block VM set (the blocks without a checkpoint stay
/// fusable, so traces still form around the instrumented ones).
fn instrument(
    rng: &mut SplitMix64,
    m: Module,
    vars: &[(VarId, usize)],
    policy: FailurePolicy,
) -> InstrumentedModule {
    let mut im = InstrumentedModule {
        technique: "fuzz".into(),
        plan: AllocationPlan::all_nvm(&m),
        module: m,
        checkpoints: vec![],
        policy,
        boot_restore: vec![],
    };
    let fid = schematic_ir::FuncId(0);
    let n_blocks = im.module.func(fid).blocks.len();
    for bi in 0..n_blocks {
        let b = BlockId::from_usize(bi);
        if rng.below(3) == 0 {
            let pos = rng.below(im.module.func(fid).block(b).insts.len() as u32 + 1) as usize;
            let id = CheckpointId::from_usize(im.checkpoints.len());
            let set: Vec<VarId> = im.plan.get(fid, b).iter().collect();
            im.checkpoints.push(CheckpointSpec {
                save_vars: set.clone(),
                restore_vars: set,
                kind: CheckpointKind::Plain,
            });
            im.module
                .func_mut(fid)
                .block_mut(b)
                .insts
                .insert(pos, Inst::Checkpoint { id });
        }
        let mut set = VarSet::new(vars.len());
        for &(v, _) in vars {
            if rng.below(4) == 0 {
                set.insert(v);
            }
        }
        im.plan.set(fid, b, set);
    }
    im
}

/// Runs `im` down `path` and returns a comparable digest of everything
/// observable: the formatted outcome (result + status + metrics, or
/// the error).
///
/// One field is deliberately excluded: `peak_vm_bytes`. The fused
/// paths establish a block's VM residency up front (the prep pass),
/// so a copy another block left resident can still be counted toward
/// the high-water mark when the per-instruction order would have
/// dropped it (an NVM write earlier in the body) before the next
/// fault-in. The transient peak gauge is interleaving-sensitive by
/// nature; every energy, count and cycle total must still match
/// bit-for-bit.
fn digest(im: &InstrumentedModule, tbpf: u64, path: Path) -> String {
    digest_model(im, PowerModel::Periodic { tbpf }, path)
}

fn digest_model(im: &InstrumentedModule, power: PowerModel, path: Path) -> String {
    let cfg = RunConfig {
        power,
        svm_bytes: usize::MAX / 2,
        max_active_cycles: 1_000_000,
        tier: path.tier,
        record_trace: path.record_trace,
        aot_threshold: path.aot_threshold,
        ..RunConfig::default()
    };
    match schematic_emu::run(im, cfg) {
        Ok(out) => {
            let mut m = out.metrics;
            m.peak_vm_bytes = 0;
            format!(
                "result={:?} status={:?} metrics={:?}",
                out.result, out.status, m
            )
        }
        Err(e) => format!("error={e:?}"),
    }
}

#[test]
fn all_tiers_are_bit_identical() {
    let mut rng = SplitMix64::new(SEED);
    let mut completed = 0u64;
    for case in 0..CASES {
        let (m, vars) = random_module(&mut rng);
        let policy = if rng.below(2) == 0 {
            FailurePolicy::WaitRecharge
        } else {
            FailurePolicy::Rollback
        };
        let im = instrument(&mut rng, m, &vars, policy);
        let tbpf = 200 + u64::from(rng.below(2000));
        let reference = digest(&im, tbpf, INTERP);
        if !reference.starts_with("error=") {
            completed += 1;
        }
        for path in PATHS {
            let got = digest(&im, tbpf, path);
            assert_eq!(
                got, reference,
                "case {case} (seed {SEED:#x}, policy {policy:?}, tbpf {tbpf}): \
                 {path:?} diverged from the per-instruction tier"
            );
        }
    }
    // The sweep must be non-vacuous: most cases complete (a trapped
    // case still checks that every path traps identically).
    assert!(completed >= 200, "only {completed}/{CASES} cases completed");
}

/// The stochastic supply draws each window length from its seeded
/// SplitMix64 stream by *window index*, not by execution order — so the
/// fused paths, which retire whole blocks or superblocks between
/// power-failure checks, must still see the exact same window sequence
/// as the per-instruction tier. This sweep pins that: random modules
/// under random `mean ± jitter` supplies are bit-identical down all
/// four paths.
#[test]
fn stochastic_runs_are_bit_identical_across_tiers() {
    let mut rng = SplitMix64::new(SEED ^ 0x570C_4A57);
    let mut completed = 0u64;
    for case in 0..CASES {
        let (m, vars) = random_module(&mut rng);
        let policy = if rng.below(2) == 0 {
            FailurePolicy::WaitRecharge
        } else {
            FailurePolicy::Rollback
        };
        let im = instrument(&mut rng, m, &vars, policy);
        let mean_tbpf = 200 + u64::from(rng.below(2000));
        let power = PowerModel::Stochastic {
            mean_tbpf,
            jitter: u64::from(rng.below(mean_tbpf as u32 / 2)),
            seed: rng.next_u64(),
        };
        let reference = digest_model(&im, power, INTERP);
        if !reference.starts_with("error=") {
            completed += 1;
        }
        for path in PATHS {
            let got = digest_model(&im, power, path);
            assert_eq!(
                got, reference,
                "case {case} (policy {policy:?}, power {power:?}): \
                 {path:?} diverged from the per-instruction tier"
            );
        }
    }
    assert!(completed >= 200, "only {completed}/{CASES} cases completed");
}

/// Same contract for a recorded trace: windows come from the interned
/// table (cycled by window index), so every path replays the identical
/// sequence.
#[test]
fn trace_supply_runs_are_bit_identical_across_tiers() {
    let id = schematic_emu::intern_trace(
        "tier-parity-fixture",
        vec![900, 350, 2100, 280, 1500, 410, 777],
    );
    let mut rng = SplitMix64::new(SEED ^ 0x007E_ACE5);
    for case in 0..16 {
        let (m, vars) = random_module(&mut rng);
        let im = instrument(&mut rng, m, &vars, FailurePolicy::WaitRecharge);
        let reference = digest_model(&im, PowerModel::Trace { id }, INTERP);
        for path in PATHS {
            assert_eq!(
                digest_model(&im, PowerModel::Trace { id }, path),
                reference,
                "case {case}: {path:?} diverged under the recorded trace"
            );
        }
    }
}

#[test]
fn shadow_and_trace_modes_force_the_per_instruction_tier() {
    let mut rng = SplitMix64::new(SEED);
    let (m, vars) = random_module(&mut rng);
    let im = instrument(&mut rng, m, &vars, FailurePolicy::WaitRecharge);
    let table = CostTable::msp430fr5969();
    let base = RunConfig {
        tier: ExecTier::Aot,
        ..RunConfig::default()
    };
    // Default: the configured tier sticks.
    assert_eq!(
        Machine::new(&im, &table, base.clone()).effective_tier(),
        ExecTier::Aot
    );
    // Shadow WAR recording observes individual accesses: forced down.
    let shadow = RunConfig {
        shadow_war: true,
        ..base.clone()
    };
    assert_eq!(
        Machine::new(&im, &table, shadow).effective_tier(),
        ExecTier::Interp
    );
    // Phase tracing observes individual steps: forced down.
    let trace = RunConfig {
        trace: true,
        ..base
    };
    assert_eq!(
        Machine::new(&im, &table, trace).effective_tier(),
        ExecTier::Interp
    );
}
