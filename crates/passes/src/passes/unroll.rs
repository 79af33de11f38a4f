//! Full loop unrolling for canonical counted loops with constant bounds.
//!
//! The recognized shape is exactly what [`irnuma_ir::FunctionBuilder::counted_loop`]
//! emits (and what `simplifycfg` reduces richer loops to):
//!
//! ```text
//! preheader: ... br header
//! header:    iv = phi [lo, preheader], [next, body]
//!            c  = icmp slt iv, hi
//!            condbr c, body, exit
//! body:      ... next = add iv, step ... br header
//! ```
//!
//! With `lo`, `hi`, `step` constant, `0 < trip ≤ max_trip`, and
//! `trip × body_size ≤ max_growth`, the loop is replaced by `trip`
//! straight-line copies of the body with `iv` substituted by its constant
//! value per iteration. Uses of `iv`/`next` after the loop are replaced by
//! their final values.

use crate::pass::Pass;
use crate::passes::util::{for_each_function, rename_phi_pred};
use irnuma_ir::analysis::{natural_loops, predecessors};
use irnuma_ir::{BlockId, Function, Instr, InstrId, Module, Opcode, Operand, Ty};
use std::collections::HashMap;

pub struct LoopUnroll {
    /// Maximum trip count to fully unroll.
    pub max_trip: u64,
    /// Maximum `trip × body instructions` growth budget.
    pub max_growth: u64,
}

impl LoopUnroll {
    /// The budgets the flag `loop-unroll` runs with.
    pub const DEFAULT: LoopUnroll = LoopUnroll { max_trip: 16, max_growth: 256 };
}

impl Default for LoopUnroll {
    fn default() -> Self {
        LoopUnroll::DEFAULT
    }
}

impl Pass for LoopUnroll {
    fn name(&self) -> &'static str {
        "loop-unroll"
    }

    fn run(&self, m: &mut Module) -> bool {
        for_each_function(m, |f| run_function(f, self.max_trip, self.max_growth))
    }
}

struct Candidate {
    header: BlockId,
    body: BlockId,
    exit: BlockId,
    preheader: BlockId,
    iv: InstrId,
    cmp: InstrId,
    next: InstrId,
    lo: i64,
    hi: i64,
    step: i64,
}

fn recognize(f: &Function, l: &irnuma_ir::analysis::NaturalLoop) -> Option<Candidate> {
    if l.blocks.len() != 2 || l.latches.len() != 1 {
        return None;
    }
    let header = l.header;
    let body = l.latches[0];
    if body == header {
        return None;
    }
    // Header: phi, icmp slt, condbr(body, exit).
    let h = &f.blocks[header.index()].instrs;
    if h.len() != 3 {
        return None;
    }
    let (iv, cmp, term) = (h[0], h[1], h[2]);
    if !matches!(f.instr(iv).op, Opcode::Phi) {
        return None;
    }
    let Opcode::Icmp(irnuma_ir::IntPred::Slt) = f.instr(cmp).op else { return None };
    if f.instr(cmp).operands[0] != Operand::Instr(iv) {
        return None;
    }
    let hi = f.instr(cmp).operands[1].as_int()?;
    if !matches!(f.instr(term).op, Opcode::CondBr) {
        return None;
    }
    if f.instr(term).operands[0] != Operand::Instr(cmp) {
        return None;
    }
    let then_b = f.instr(term).operands[1].as_block()?;
    let exit = f.instr(term).operands[2].as_block()?;
    if then_b != body || l.contains(exit) {
        return None;
    }
    // Body: ends with br header, contains no phis and no inner branches.
    let bt = f.terminator(body)?;
    if f.instr(bt).op != Opcode::Br || f.instr(bt).operands[0] != Operand::Block(header) {
        return None;
    }
    if f.blocks[body.index()].instrs.iter().any(|&i| matches!(f.instr(i).op, Opcode::Phi)) {
        return None;
    }
    // Phi incomings: (preheader, lo const), (body, next).
    let mut lo = None;
    let mut next = None;
    let mut preheader = None;
    for (pb, v) in f.instr(iv).phi_incomings() {
        if pb == body {
            next = v.as_instr();
        } else {
            preheader = Some(pb);
            lo = v.as_int();
        }
    }
    let (lo, next, preheader) = (lo?, next?, preheader?);
    // preheader must end in unconditional br (the only outside edge).
    let preds = predecessors(f);
    let outside: Vec<_> = preds[header.index()].iter().filter(|p| !l.contains(**p)).collect();
    if outside.len() != 1 || *outside[0] != preheader {
        return None;
    }
    let pt = f.terminator(preheader)?;
    if !matches!(f.instr(pt).op, Opcode::Br) {
        return None;
    }
    // next = add iv, const step, defined in body.
    let ni = f.instr(next);
    if ni.op != Opcode::Add || ni.operands[0] != Operand::Instr(iv) {
        return None;
    }
    let step = ni.operands[1].as_int()?;
    if step <= 0 {
        return None;
    }
    Some(Candidate { header, body, exit, preheader, iv, cmp, next, lo, hi, step })
}

fn run_function(f: &mut Function, max_trip: u64, max_growth: u64) -> bool {
    let mut changed = false;
    loop {
        let loops = natural_loops(f);
        let mut done = false;
        for l in &loops {
            let Some(c) = recognize(f, l) else { continue };
            if c.hi <= c.lo {
                continue; // zero-trip loops: leave to constprop/simplifycfg
            }
            let trip = ((c.hi - c.lo) as u64).div_ceil(c.step as u64);
            let body_size = f.blocks[c.body.index()].instrs.len() as u64;
            if trip == 0 || trip > max_trip || trip * body_size > max_growth {
                continue;
            }
            unroll(f, &c, trip);
            done = true;
            changed = true;
            break;
        }
        if !done {
            return changed;
        }
    }
}

fn unroll(f: &mut Function, c: &Candidate, trip: u64) {
    // Body instructions to clone (excluding the terminator).
    let body_ids: Vec<InstrId> = {
        let v = &f.blocks[c.body.index()].instrs;
        v[..v.len() - 1].to_vec()
    };

    // Build the straight-line copies in fresh blocks chained together.
    let mut copy_blocks = Vec::with_capacity(trip as usize);
    for _ in 0..trip {
        copy_blocks.push(f.add_block());
    }

    for (k, &nb) in copy_blocks.iter().enumerate() {
        let iv_val = Operand::ConstInt(c.lo + k as i64 * c.step);
        let mut map: HashMap<InstrId, InstrId> = HashMap::new();
        for &old in &body_ids {
            let mut instr = f.instr(old).clone();
            for op in &mut instr.operands {
                match *op {
                    Operand::Instr(d) if d == c.iv => *op = iv_val,
                    Operand::Instr(d) => {
                        if let Some(&nd) = map.get(&d) {
                            *op = Operand::Instr(nd);
                        }
                        // otherwise: defined outside the body (dominating) — keep
                    }
                    _ => {}
                }
            }
            let nid = f.push_instr(nb, instr);
            map.insert(old, nid);
        }
        let succ = if k + 1 < trip as usize { copy_blocks[k + 1] } else { c.exit };
        f.push_instr(nb, Instr::new(Opcode::Br, Ty::Void, vec![Operand::Block(succ)]));
    }

    // Final values of iv and next after the loop.
    let final_iv = c.lo + (trip as i64 - 1) * c.step + c.step; // == value when cmp fails
                                                               // (uses of `next` outside the body see the same final value)
    f.replace_all_uses(c.iv, Operand::ConstInt(final_iv));
    f.replace_all_uses(c.next, Operand::ConstInt(final_iv));
    let _ = c.cmp; // becomes dead once header is rewritten

    // Rewrite the preheader to branch to the first copy.
    let pt = f.terminator(c.preheader).expect("preheader has terminator");
    f.instr_mut(pt).operands = vec![Operand::Block(copy_blocks[0])];

    // Exit phis: the incoming edge is now from the last copy, not the header.
    rename_phi_pred(f, c.exit, c.header, *copy_blocks.last().expect("trip > 0"));

    // Clear the old header and body (now unreachable).
    f.blocks[c.header.index()].instrs.clear();
    f.blocks[c.body.index()].instrs.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use irnuma_ir::analysis::natural_loops;
    use irnuma_ir::builder::{iconst, FunctionBuilder};
    use irnuma_ir::{verify_function, FunctionKind};

    fn small_loop(n: i64) -> Function {
        let mut b = FunctionBuilder::new("f", vec![Ty::Ptr], Ty::Void, FunctionKind::Normal);
        b.counted_loop(iconst(0), iconst(n), iconst(1), |b, i| {
            let p = b.gep(Ty::F64, b.arg(0), i);
            let v = b.load(Ty::F64, p);
            let w = b.fmul(Ty::F64, v, irnuma_ir::builder::fconst(2.0));
            b.store(w, p);
        });
        b.ret(None);
        b.finish()
    }

    #[test]
    fn small_constant_loop_fully_unrolls() {
        let mut f = small_loop(4);
        assert_eq!(natural_loops(&f).len(), 1);
        assert!(run_function(&mut f, 16, 256));
        verify_function(&f).unwrap();
        assert!(natural_loops(&f).is_empty(), "loop is gone");
        // 4 copies × 4 body instrs (gep/load/fmul/store + add clone) exist.
        let stores =
            f.iter_attached().filter(|&(_, _, id)| matches!(f.instr(id).op, Opcode::Store)).count();
        assert_eq!(stores, 4);
        // Each copy indexes a distinct constant 0..4.
        let geps: Vec<i64> = f
            .iter_attached()
            .filter(|&(_, _, id)| matches!(f.instr(id).op, Opcode::Gep { .. }))
            .map(|(_, _, id)| f.instr(id).operands[1].as_int().expect("const index"))
            .collect();
        assert_eq!(geps, vec![0, 1, 2, 3]);
    }

    #[test]
    fn large_loops_are_left_alone() {
        let mut f = small_loop(1000);
        assert!(!run_function(&mut f, 16, 256));
        assert_eq!(natural_loops(&f).len(), 1);
    }

    #[test]
    fn dynamic_bound_is_not_unrolled() {
        let mut b = FunctionBuilder::new("f", vec![Ty::I64], Ty::Void, FunctionKind::Normal);
        b.counted_loop(iconst(0), b.arg(0), iconst(1), |_, _| {});
        b.ret(None);
        let mut f = b.finish();
        assert!(!run_function(&mut f, 16, 256));
    }

    #[test]
    fn non_unit_step_trip_count() {
        let mut b = FunctionBuilder::new("f", vec![Ty::Ptr], Ty::Void, FunctionKind::Normal);
        b.counted_loop(iconst(0), iconst(10), iconst(4), |b, i| {
            let p = b.gep(Ty::F64, b.arg(0), i);
            b.store(irnuma_ir::builder::fconst(0.0), p);
        });
        b.ret(None);
        let mut f = b.finish();
        assert!(run_function(&mut f, 16, 256));
        verify_function(&f).unwrap();
        // ceil(10/4) = 3 iterations: i = 0, 4, 8.
        let geps: Vec<i64> = f
            .iter_attached()
            .filter(|&(_, _, id)| matches!(f.instr(id).op, Opcode::Gep { .. }))
            .map(|(_, _, id)| f.instr(id).operands[1].as_int().unwrap())
            .collect();
        assert_eq!(geps, vec![0, 4, 8]);
    }

    #[test]
    fn nested_inner_loop_unrolls_outer_stays() {
        let mut b =
            FunctionBuilder::new("f", vec![Ty::Ptr, Ty::I64], Ty::Void, FunctionKind::Normal);
        b.counted_loop(iconst(0), b.arg(1), iconst(1), |b, i| {
            b.counted_loop(iconst(0), iconst(3), iconst(1), |b, j| {
                let idx = b.add(Ty::I64, i, j);
                let p = b.gep(Ty::F64, b.arg(0), idx);
                b.store(irnuma_ir::builder::fconst(1.0), p);
            });
        });
        b.ret(None);
        let mut f = b.finish();
        assert!(run_function(&mut f, 16, 256));
        verify_function(&f).unwrap();
        assert_eq!(natural_loops(&f).len(), 1, "outer dynamic loop remains");
        let stores =
            f.iter_attached().filter(|&(_, _, id)| matches!(f.instr(id).op, Opcode::Store)).count();
        assert_eq!(stores, 3);
    }
}
