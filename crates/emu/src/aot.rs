//! Ahead-of-time trace lowering: the tape path of the fused
//! [`ExecTier::Aot`](crate::ExecTier) engine.
//!
//! A hot fusable trace is lowered *once* — after its head block has been
//! dispatched [`RunConfig::aot_threshold`](crate::RunConfig) times — into
//! a dense micro-op tape, one [`AotSeg`] per member block. Each micro-op
//! bakes in everything the instruction needed to look up or branch on at
//! run time under the interpreted tiers:
//!
//! - pure register instructions are specialized per operand shape
//!   ([`MicroOp`]): register indices and immediates are extracted at
//!   lowering time, so executing one is a single dense-enum dispatch
//!   with no nested `Operand` matching and no 32-byte `DInst` loads;
//! - memory accesses are specialized per (class × index shape): a
//!   scalar access carries its flat arena word address outright, an
//!   immediate-indexed access resolves its bounds check at lowering
//!   time, and only register-indexed accesses keep a run-time check.
//!
//! Accesses that provably cannot trap (constant-address loads and
//! register-sourced constant-address stores) join the micro-op tape
//! directly, so a typical block body is a handful of flat [`MicroOp`]
//! runs interrupted only by trapping register-indexed accesses — the
//! tape entries stay 12 bytes and the hot loop is a single dense match.
//!
//! Lowering is purely a *faster encoding* of `run_body`'s semantics: the
//! trace's prep pass has already established VM residency for every
//! variable the body touches, the enclosing guard proved the power
//! window absorbs the whole trace, and all Exec accounting is committed
//! from the decode-time [`FusedCosts`](crate::decoded::FusedCosts)
//! bundle — so an AOT run and a per-instruction run are bit-identical,
//! which `tests/tier_parity.rs` asserts over randomized modules.
//!
//! The lowering lives in a `OnceLock` on the head's
//! [`DecodedBlock`](crate::decoded::DecodedBlock), so it is shared by
//! every machine running the same decoded program.

use crate::decoded::{DInst, DecodedModule, TraceInfo};
use crate::error::TrapKind;
use crate::machine::exec_pure;
use crate::memory::Memory;
use schematic_energy::MemClass;
use schematic_ir::{BinOp, CmpOp, Operand, UnOp, VarId};

/// A pre-resolved value source: register index or immediate.
#[derive(Debug, Clone, Copy)]
enum Src {
    /// Read register `.0`.
    R(u16),
    /// The immediate value `.0`.
    I(i32),
}

impl Src {
    #[inline(always)]
    fn get(self, regs: &[i32]) -> i32 {
        match self {
            Src::R(r) => regs[r as usize],
            Src::I(v) => v,
        }
    }

    fn of(op: Operand) -> Src {
        match op {
            Operand::Reg(r) => Src::R(u16::try_from(r.index()).expect("register index fits u16")),
            Operand::Imm(v) => Src::I(v),
        }
    }
}

/// One specialized tape entry (operand shapes baked in at lowering
/// time): a pure register micro-op, a constant-address memory access,
/// or a bounds-checked indexed access. Deliberately ≤16 bytes: rarer
/// shapes fall back to [`AotOp`] variants rather than inflating every
/// tape entry — the tape's cache density is most of its win over
/// re-interpreting.
#[derive(Debug, Clone, Copy)]
enum MicroOp {
    /// `regs[d] = regs[a] op regs[b]`
    BinRR { op: BinOp, d: u16, a: u16, b: u16 },
    /// `regs[d] = regs[a] op imm`
    BinRI { op: BinOp, d: u16, a: u16, imm: i32 },
    /// `regs[d] = regs[a] pred regs[b]`
    CmpRR { op: CmpOp, d: u16, a: u16, b: u16 },
    /// `regs[d] = regs[a] pred imm`
    CmpRI { op: CmpOp, d: u16, a: u16, imm: i32 },
    /// `regs[d] = op regs[a]`
    UnR { op: UnOp, d: u16, a: u16 },
    /// `regs[d] = regs[a]`
    CopyR { d: u16, a: u16 },
    /// `regs[d] = imm`
    CopyI { d: u16, imm: i32 },
    /// `regs[d] = vm[at]` — scalar or in-bounds immediate index.
    LoadVmAt { d: u16, at: u32 },
    /// `regs[d] = nvm[at]`
    LoadNvmAt { d: u16, at: u32 },
    /// `vm[at] = regs[s]` (marks `var` dirty).
    StoreVmAtR { var: VarId, at: u32, s: u16 },
    /// `nvm[at] = regs[s]` (clobber check + VM-copy drop).
    StoreNvmAtR { var: VarId, at: u32, s: u16 },
    /// `regs[d] = vm[base + regs[i]]` with an inline bounds check
    /// (`words` fits u16, or the access lowers to [`AotOp::LoadVmIdx`]).
    /// A failed check reports the trap cold from the baked-in fields.
    LoadVmIdxC {
        var: VarId,
        d: u16,
        i: u16,
        words: u16,
        base: u32,
    },
    /// NVM variant of [`MicroOp::LoadVmIdxC`].
    LoadNvmIdxC {
        var: VarId,
        d: u16,
        i: u16,
        words: u16,
        base: u32,
    },
    /// `vm[base + regs[i]] = regs[s]` with an inline bounds check
    /// (marks `var` dirty).
    StoreVmIdxC {
        var: VarId,
        s: u16,
        i: u16,
        words: u16,
        base: u32,
    },
    /// NVM variant of [`MicroOp::StoreVmIdxC`].
    StoreNvmIdxC {
        var: VarId,
        s: u16,
        i: u16,
        words: u16,
        base: u32,
    },
}

/// Executes one tape entry. Returns `false` only when an inline
/// bounds check fails — the caller rebuilds the trap report cold.
#[inline(always)]
#[must_use]
fn exec_micro(m: &MicroOp, regs: &mut [i32], mem: &mut Memory, clobbers: &mut u64) -> bool {
    match *m {
        MicroOp::BinRR { op, d, a, b } => {
            let v = eval_bin_nt(op, regs[a as usize], regs[b as usize]);
            regs[d as usize] = v;
        }
        MicroOp::BinRI { op, d, a, imm } => {
            let v = eval_bin_nt(op, regs[a as usize], imm);
            regs[d as usize] = v;
        }
        MicroOp::CmpRR { op, d, a, b } => {
            regs[d as usize] = i32::from(op.eval(regs[a as usize], regs[b as usize]));
        }
        MicroOp::CmpRI { op, d, a, imm } => {
            regs[d as usize] = i32::from(op.eval(regs[a as usize], imm));
        }
        MicroOp::UnR { op, d, a } => {
            let s = regs[a as usize];
            regs[d as usize] = match op {
                UnOp::Neg => s.wrapping_neg(),
                UnOp::Not => !s,
            };
        }
        MicroOp::CopyR { d, a } => regs[d as usize] = regs[a as usize],
        MicroOp::CopyI { d, imm } => regs[d as usize] = imm,
        MicroOp::LoadVmAt { d, at } => regs[d as usize] = mem.vm_read_at(at as usize),
        MicroOp::LoadNvmAt { d, at } => regs[d as usize] = mem.nvm_read_at(at as usize),
        MicroOp::StoreVmAtR { var, at, s } => {
            mem.vm_write_at(var, at as usize, regs[s as usize]);
        }
        MicroOp::StoreNvmAtR { var, at, s } => {
            if mem.nvm_write_would_clobber(var) {
                *clobbers += 1;
            }
            mem.nvm_write_at(var, at as usize, regs[s as usize]);
        }
        MicroOp::LoadVmIdxC {
            d, i, words, base, ..
        } => {
            let ix = regs[i as usize];
            if (ix as u32) >= u32::from(words) {
                return false;
            }
            regs[d as usize] = mem.vm_read_at(base as usize + ix as usize);
        }
        MicroOp::LoadNvmIdxC {
            d, i, words, base, ..
        } => {
            let ix = regs[i as usize];
            if (ix as u32) >= u32::from(words) {
                return false;
            }
            regs[d as usize] = mem.nvm_read_at(base as usize + ix as usize);
        }
        MicroOp::StoreVmIdxC {
            var,
            s,
            i,
            words,
            base,
        } => {
            let ix = regs[i as usize];
            if (ix as u32) >= u32::from(words) {
                return false;
            }
            mem.vm_write_at(var, base as usize + ix as usize, regs[s as usize]);
        }
        MicroOp::StoreNvmIdxC {
            var,
            s,
            i,
            words,
            base,
        } => {
            let ix = regs[i as usize];
            if (ix as u32) >= u32::from(words) {
                return false;
            }
            if mem.nvm_write_would_clobber(var) {
                *clobbers += 1;
            }
            mem.nvm_write_at(var, base as usize + ix as usize, regs[s as usize]);
        }
    }
    true
}

/// [`eval_bin`](crate::machine) for operands that provably cannot trap
/// (superblock-fusable instructions only; see `DInst::is_fusable`).
#[inline(always)]
fn eval_bin_nt(op: BinOp, lhs: i32, rhs: i32) -> i32 {
    match op {
        BinOp::Add => lhs.wrapping_add(rhs),
        BinOp::Sub => lhs.wrapping_sub(rhs),
        BinOp::Mul => lhs.wrapping_mul(rhs),
        BinOp::DivS => lhs / rhs,
        BinOp::DivU => ((lhs as u32) / (rhs as u32)) as i32,
        BinOp::RemS => lhs % rhs,
        BinOp::RemU => ((lhs as u32) % (rhs as u32)) as i32,
        BinOp::And => lhs & rhs,
        BinOp::Or => lhs | rhs,
        BinOp::Xor => lhs ^ rhs,
        BinOp::Shl => lhs.wrapping_shl(rhs as u32),
        BinOp::LShr => ((lhs as u32).wrapping_shr(rhs as u32)) as i32,
        BinOp::AShr => lhs.wrapping_shr(rhs as u32),
    }
}

/// One lowered operation of a block body: a flat run of tape entries,
/// or an access the tape can't carry (trapping register-indexed
/// accesses, rare shapes).
#[derive(Debug, Clone)]
enum AotOp {
    /// A maximal run of non-trapping tape entries.
    Run(Box<[MicroOp]>),
    /// A pure instruction whose operand shape has no specialized
    /// micro-op (immediate-first binops, `Select`): replayed through
    /// the interpreter's [`exec_pure`].
    Generic(DInst),
    /// Register-indexed VM load: run-time bounds check.
    LoadVmIdx {
        dst: u16,
        idx: u16,
        base: u32,
        words: u32,
        var: VarId,
    },
    /// Register-indexed NVM load.
    LoadNvmIdx {
        dst: u16,
        idx: u16,
        base: u32,
        words: u32,
        var: VarId,
    },
    /// `vm[at] = imm` (immediate-source constant-address store; the
    /// register-source form rides the tape).
    StoreVmAtI { var: VarId, at: u32, imm: i32 },
    /// `nvm[at] = imm`
    StoreNvmAtI { var: VarId, at: u32, imm: i32 },
    /// Register-indexed VM store.
    StoreVmIdx {
        var: VarId,
        idx: u16,
        base: u32,
        words: u32,
        src: Src,
    },
    /// Register-indexed NVM store.
    StoreNvmIdx {
        var: VarId,
        idx: u16,
        base: u32,
        words: u32,
        src: Src,
    },
    /// An access whose immediate index is out of bounds at lowering
    /// time: always traps, at the same program position it would under
    /// interpretation.
    Trap {
        var: VarId,
        index: i64,
        words: usize,
    },
}

/// The lowering of one member block of a trace.
pub(crate) struct AotSeg {
    ops: Box<[AotOp]>,
}

impl AotSeg {
    /// Runs the block body — same observable effects as
    /// `machine::run_body` on the source block.
    #[inline]
    pub(crate) fn run(
        &self,
        regs: &mut [i32],
        mem: &mut Memory,
        clobbers: &mut u64,
    ) -> Result<(), TrapKind> {
        for op in &self.ops {
            match *op {
                AotOp::Run(ref tape) => {
                    for m in tape {
                        if !exec_micro(m, regs, mem, clobbers) {
                            return Err(idx_trap(m, regs));
                        }
                    }
                }
                AotOp::Generic(ref di) => exec_pure(di, regs),
                AotOp::LoadVmIdx {
                    dst,
                    idx,
                    base,
                    words,
                    var,
                } => {
                    let at = dyn_at(regs, idx, base, words, var)?;
                    regs[dst as usize] = mem.vm_read_at(at);
                }
                AotOp::LoadNvmIdx {
                    dst,
                    idx,
                    base,
                    words,
                    var,
                } => {
                    let at = dyn_at(regs, idx, base, words, var)?;
                    regs[dst as usize] = mem.nvm_read_at(at);
                }
                AotOp::StoreVmAtI { var, at, imm } => {
                    mem.vm_write_at(var, at as usize, imm);
                }
                AotOp::StoreNvmAtI { var, at, imm } => {
                    if mem.nvm_write_would_clobber(var) {
                        *clobbers += 1;
                    }
                    mem.nvm_write_at(var, at as usize, imm);
                }
                AotOp::StoreVmIdx {
                    var,
                    idx,
                    base,
                    words,
                    src,
                } => {
                    let at = dyn_at(regs, idx, base, words, var)?;
                    mem.vm_write_at(var, at, src.get(regs));
                }
                AotOp::StoreNvmIdx {
                    var,
                    idx,
                    base,
                    words,
                    src,
                } => {
                    let at = dyn_at(regs, idx, base, words, var)?;
                    if mem.nvm_write_would_clobber(var) {
                        *clobbers += 1;
                    }
                    mem.nvm_write_at(var, at, src.get(regs));
                }
                AotOp::Trap { var, index, words } => {
                    return Err(TrapKind::IndexOutOfBounds { var, index, words });
                }
            }
        }
        Ok(())
    }
}

/// Rebuilds the trap report for a failed inline bounds check from the
/// fields baked into the faulting tape entry.
#[cold]
fn idx_trap(m: &MicroOp, regs: &[i32]) -> TrapKind {
    let (MicroOp::LoadVmIdxC { var, i, words, .. }
    | MicroOp::LoadNvmIdxC { var, i, words, .. }
    | MicroOp::StoreVmIdxC { var, i, words, .. }
    | MicroOp::StoreNvmIdxC { var, i, words, .. }) = *m
    else {
        unreachable!("inline bounds check only fails on an indexed access");
    };
    TrapKind::IndexOutOfBounds {
        var,
        index: i64::from(regs[i as usize]),
        words: words as usize,
    }
}

/// Bounds-checks a register-indexed access (the dynamic remainder of
/// [`resolve_at`](crate::machine) after lowering). A single unsigned
/// compare covers both the negative and the too-large case (`words`
/// never exceeds `i32::MAX` words of arena); the cold arm recomputes
/// the signed index for the trap report.
#[inline(always)]
fn dyn_at(regs: &[i32], idx: u16, base: u32, words: u32, var: VarId) -> Result<usize, TrapKind> {
    let i = regs[idx as usize];
    if (i as u32) < words {
        Ok(base as usize + i as usize)
    } else {
        Err(TrapKind::IndexOutOfBounds {
            var,
            index: i64::from(i),
            words: words as usize,
        })
    }
}

/// The AOT lowering of a whole trace: one [`AotSeg`] per member block,
/// in trace order.
pub(crate) struct AotTrace {
    pub(crate) segs: Box<[AotSeg]>,
}

/// Lowers every member block of `ti` (a trace of `d`) to micro-op
/// tapes.
pub(crate) fn lower_trace(d: &DecodedModule<'_>, ti: &TraceInfo) -> AotTrace {
    let segs = ti
        .blocks
        .iter()
        .map(|&flat| lower_block(&d.blocks[flat as usize]))
        .collect();
    AotTrace { segs }
}

fn lower_block(db: &crate::decoded::DecodedBlock<'_>) -> AotSeg {
    let insts = &db.insts;
    let n = insts.len();
    let mut ops: Vec<AotOp> = Vec::new();
    // Non-trapping entries accumulate here and flush as one flat run
    // whenever an op the tape can't carry interrupts them.
    let mut tape: Vec<MicroOp> = Vec::new();
    let mut ip = 0usize;
    while ip < n {
        let run = db.fuse_len[ip] as usize;
        if run > 0 {
            for di in &insts[ip..ip + run] {
                match lower_pure(di) {
                    Some(m) => tape.push(m),
                    None => {
                        flush(&mut ops, &mut tape);
                        ops.push(AotOp::Generic(*di));
                    }
                }
            }
            ip += run;
            continue;
        }
        match insts[ip] {
            DInst::Load {
                dst,
                var,
                idx,
                class,
                base,
                words,
            } => {
                let d = u16::try_from(dst.index()).expect("register index fits u16");
                match (class, resolve_addr(idx, base, words)) {
                    (MemClass::Vm, Addr::Const(at)) => tape.push(MicroOp::LoadVmAt { d, at }),
                    (MemClass::Nvm, Addr::Const(at)) => tape.push(MicroOp::LoadNvmAt { d, at }),
                    (MemClass::Vm, Addr::Dyn(idx)) => match u16::try_from(words) {
                        Ok(w) => tape.push(MicroOp::LoadVmIdxC {
                            var,
                            d,
                            i: idx,
                            words: w,
                            base,
                        }),
                        Err(_) => {
                            flush(&mut ops, &mut tape);
                            ops.push(AotOp::LoadVmIdx {
                                dst: d,
                                idx,
                                base,
                                words,
                                var,
                            });
                        }
                    },
                    (MemClass::Nvm, Addr::Dyn(idx)) => match u16::try_from(words) {
                        Ok(w) => tape.push(MicroOp::LoadNvmIdxC {
                            var,
                            d,
                            i: idx,
                            words: w,
                            base,
                        }),
                        Err(_) => {
                            flush(&mut ops, &mut tape);
                            ops.push(AotOp::LoadNvmIdx {
                                dst: d,
                                idx,
                                base,
                                words,
                                var,
                            });
                        }
                    },
                    (_, Addr::Oob { index, words }) => {
                        flush(&mut ops, &mut tape);
                        ops.push(AotOp::Trap { var, index, words });
                    }
                }
            }
            DInst::Store {
                var,
                idx,
                src,
                class,
                base,
                words,
            } => match (class, resolve_addr(idx, base, words), Src::of(src)) {
                (MemClass::Vm, Addr::Const(at), Src::R(s)) => {
                    tape.push(MicroOp::StoreVmAtR { var, at, s });
                }
                (MemClass::Nvm, Addr::Const(at), Src::R(s)) => {
                    tape.push(MicroOp::StoreNvmAtR { var, at, s });
                }
                (MemClass::Vm, Addr::Const(at), Src::I(imm)) => {
                    flush(&mut ops, &mut tape);
                    ops.push(AotOp::StoreVmAtI { var, at, imm });
                }
                (MemClass::Nvm, Addr::Const(at), Src::I(imm)) => {
                    flush(&mut ops, &mut tape);
                    ops.push(AotOp::StoreNvmAtI { var, at, imm });
                }
                (MemClass::Vm, Addr::Dyn(idx), Src::R(s)) if words <= u32::from(u16::MAX) => {
                    tape.push(MicroOp::StoreVmIdxC {
                        var,
                        s,
                        i: idx,
                        words: words as u16,
                        base,
                    });
                }
                (MemClass::Nvm, Addr::Dyn(idx), Src::R(s)) if words <= u32::from(u16::MAX) => {
                    tape.push(MicroOp::StoreNvmIdxC {
                        var,
                        s,
                        i: idx,
                        words: words as u16,
                        base,
                    });
                }
                (MemClass::Vm, Addr::Dyn(idx), src) => {
                    flush(&mut ops, &mut tape);
                    ops.push(AotOp::StoreVmIdx {
                        var,
                        idx,
                        base,
                        words,
                        src,
                    });
                }
                (MemClass::Nvm, Addr::Dyn(idx), src) => {
                    flush(&mut ops, &mut tape);
                    ops.push(AotOp::StoreNvmIdx {
                        var,
                        idx,
                        base,
                        words,
                        src,
                    });
                }
                (_, Addr::Oob { index, words }, _) => {
                    flush(&mut ops, &mut tape);
                    ops.push(AotOp::Trap { var, index, words });
                }
            },
            _ => unreachable!("non-fusable instruction in a fusable block"),
        }
        ip += 1;
    }
    flush(&mut ops, &mut tape);
    AotSeg {
        ops: ops.into_boxed_slice(),
    }
}

/// Flushes the pending tape run into the op list.
fn flush(ops: &mut Vec<AotOp>, tape: &mut Vec<MicroOp>) {
    if !tape.is_empty() {
        ops.push(AotOp::Run(std::mem::take(tape).into()));
    }
}

/// Specializes one pure instruction by its operand shapes; `None` when
/// no compact shape fits (the caller emits [`AotOp::Generic`]).
fn lower_pure(di: &DInst) -> Option<MicroOp> {
    let r16 = |r: schematic_ir::Reg| u16::try_from(r.index()).expect("register index fits u16");
    Some(match *di {
        DInst::Bin { dst, op, lhs, rhs } => match (lhs, rhs) {
            (Operand::Reg(a), Operand::Reg(b)) => MicroOp::BinRR {
                op,
                d: r16(dst),
                a: r16(a),
                b: r16(b),
            },
            (Operand::Reg(a), Operand::Imm(imm)) => MicroOp::BinRI {
                op,
                d: r16(dst),
                a: r16(a),
                imm,
            },
            _ => return None,
        },
        DInst::Cmp { dst, op, lhs, rhs } => match (lhs, rhs) {
            (Operand::Reg(a), Operand::Reg(b)) => MicroOp::CmpRR {
                op,
                d: r16(dst),
                a: r16(a),
                b: r16(b),
            },
            (Operand::Reg(a), Operand::Imm(imm)) => MicroOp::CmpRI {
                op,
                d: r16(dst),
                a: r16(a),
                imm,
            },
            _ => return None,
        },
        DInst::Un {
            dst,
            op,
            src: Operand::Reg(a),
        } => MicroOp::UnR {
            op,
            d: r16(dst),
            a: r16(a),
        },
        DInst::Copy {
            dst,
            src: Operand::Reg(a),
        } => MicroOp::CopyR {
            d: r16(dst),
            a: r16(a),
        },
        DInst::Copy {
            dst,
            src: Operand::Imm(imm),
        } => MicroOp::CopyI { d: r16(dst), imm },
        _ => return None,
    })
}

/// How an access's arena address resolves at lowering time.
enum Addr {
    /// Scalar or in-bounds immediate index: the flat word address is a
    /// constant.
    Const(u32),
    /// Register index (`.0` is the register): bounds-checked at run
    /// time.
    Dyn(u16),
    /// Immediate index already known to be out of bounds.
    Oob { index: i64, words: usize },
}

/// Resolves as much of the address computation as the index shape
/// allows.
fn resolve_addr(idx: Option<Operand>, base: u32, words: u32) -> Addr {
    match idx {
        None => {
            if words > 0 {
                Addr::Const(base)
            } else {
                Addr::Oob { index: 0, words: 0 }
            }
        }
        Some(Operand::Imm(v)) => {
            let i = i64::from(v);
            if i >= 0 && (i as u64) < u64::from(words) {
                Addr::Const(base + v as u32)
            } else {
                Addr::Oob {
                    index: i,
                    words: words as usize,
                }
            }
        }
        Some(Operand::Reg(r)) => Addr::Dyn(u16::try_from(r.index()).expect("register fits u16")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_addr_folds_in_bounds_immediates() {
        assert!(matches!(
            resolve_addr(Some(Operand::Imm(3)), 100, 8),
            Addr::Const(103)
        ));
        assert!(matches!(resolve_addr(None, 7, 1), Addr::Const(7)));
        assert!(matches!(
            resolve_addr(Some(Operand::Imm(8)), 100, 8),
            Addr::Oob { index: 8, words: 8 }
        ));
        assert!(matches!(
            resolve_addr(Some(Operand::Imm(-1)), 100, 8),
            Addr::Oob { index: -1, .. }
        ));
        assert!(matches!(resolve_addr(None, 0, 0), Addr::Oob { .. }));
    }

    #[test]
    fn micro_lowering_specializes_shapes() {
        use schematic_ir::Reg;
        let di = DInst::Bin {
            dst: Reg(0),
            op: BinOp::Add,
            lhs: Operand::Reg(Reg(1)),
            rhs: Operand::Imm(5),
        };
        assert!(matches!(
            lower_pure(&di),
            Some(MicroOp::BinRI {
                op: BinOp::Add,
                d: 0,
                a: 1,
                imm: 5
            })
        ));
        let mut regs = [0, 37];
        let mut mb = schematic_ir::ModuleBuilder::new("m");
        let mut f = schematic_ir::FunctionBuilder::new("main", 0);
        f.ret(None);
        let main = mb.func(f.finish());
        let mut mem = Memory::new(&mb.finish(main), 64);
        let mut clobbers = 0u64;
        assert!(exec_micro(
            &lower_pure(&di).expect("specializes"),
            &mut regs,
            &mut mem,
            &mut clobbers,
        ));
        assert_eq!(regs[0], 42);
        assert_eq!(clobbers, 0);
    }

    #[test]
    fn micro_op_stays_compact() {
        // The tape's cache density is the point: rare shapes must fall
        // back to `AotOp` variants instead of growing every entry.
        assert!(std::mem::size_of::<MicroOp>() <= 16);
    }

    #[test]
    fn dyn_at_single_compare_covers_both_oob_sides() {
        let regs = [3, -1, 8];
        let var = VarId(0);
        assert_eq!(dyn_at(&regs, 0, 100, 8, var).expect("in bounds"), 103);
        assert!(matches!(
            dyn_at(&regs, 1, 100, 8, var),
            Err(TrapKind::IndexOutOfBounds {
                index: -1,
                words: 8,
                ..
            })
        ));
        assert!(matches!(
            dyn_at(&regs, 2, 100, 8, var),
            Err(TrapKind::IndexOutOfBounds {
                index: 8,
                words: 8,
                ..
            })
        ));
    }
}
