//! Function inlining: replaces a call to a small, defined, non-recursive
//! function with a clone of its body. The call block is split at the call
//! site; cloned returns branch to the continuation, and a phi merges return
//! values when the callee has several `ret`s.

use crate::pass::Pass;
use irnuma_ir::{BlockId, Function, FunctionKind, Instr, InstrId, Module, Opcode, Operand, Ty};
use std::collections::HashMap;

pub struct Inline {
    /// Callees with more attached instructions than this are not inlined.
    pub max_callee_instrs: usize,
}

impl Inline {
    /// The budget the flag `inline` runs with.
    pub const DEFAULT: Inline = Inline { max_callee_instrs: 48 };
}

impl Default for Inline {
    fn default() -> Self {
        Inline::DEFAULT
    }
}

impl Pass for Inline {
    fn name(&self) -> &'static str {
        "inline"
    }

    fn run(&self, m: &mut Module) -> bool {
        let mut changed = false;
        // Snapshot callee bodies up front: we clone *from the snapshot* so
        // that inlining into A does not change what gets inlined into B.
        let snapshot: HashMap<String, Function> = m
            .functions
            .iter()
            .filter(|f| !f.is_declaration())
            .map(|f| (f.name.clone(), f.clone()))
            .collect();

        for f in &mut m.functions {
            if f.is_declaration() {
                continue;
            }
            while let Some((bid, pos, call_id, callee_name)) =
                find_site(f, &snapshot, self.max_callee_instrs)
            {
                let callee = &snapshot[&callee_name];
                inline_site(f, bid, pos, call_id, callee);
                changed = true;
            }
        }
        changed
    }
}

/// Find the first eligible call site in `f`.
fn find_site(
    f: &Function,
    snapshot: &HashMap<String, Function>,
    max_instrs: usize,
) -> Option<(BlockId, usize, InstrId, String)> {
    for (bid, pos, id) in f.iter_attached() {
        let Opcode::Call { callee } = &f.instr(id).op else { continue };
        if callee == &f.name {
            continue; // direct recursion
        }
        let Some(target) = snapshot.get(callee) else { continue };
        if target.kind != FunctionKind::Normal {
            continue; // only plain helpers; outlined regions stay intact
        }
        if target.num_attached() > max_instrs {
            continue;
        }
        // Callee must be leaf-ish: no calls to module-defined functions
        // (prevents unbounded mutual-recursion growth; runtime intrinsics ok).
        let has_defined_calls = target.iter_attached().any(|(_, _, i)| {
            matches!(&target.instr(i).op, Opcode::Call { callee: c } if snapshot.contains_key(c))
        });
        if has_defined_calls {
            continue;
        }
        return Some((bid, pos, id, callee.clone()));
    }
    None
}

fn inline_site(f: &mut Function, bid: BlockId, pos: usize, call_id: InstrId, callee: &Function) {
    let call_args = f.instr(call_id).operands.clone();

    // 1. Split: move everything after the call into a fresh continuation block.
    let cont = f.add_block();
    let tail: Vec<InstrId> = f.blocks[bid.index()].instrs.split_off(pos + 1);
    f.blocks[cont.index()].instrs = tail;
    // The call itself is detached (it will be replaced by the inlined body).
    f.blocks[bid.index()].instrs.pop();

    // Phis in the old successors referenced `bid` as predecessor; the
    // terminator now lives in `cont`.
    for succ in f.successors(cont) {
        crate::passes::util::rename_phi_pred(f, succ, bid, cont);
    }

    // 2. Clone callee blocks.
    let mut bmap: HashMap<BlockId, BlockId> = HashMap::new();
    for (cb, _) in callee.iter_blocks() {
        bmap.insert(cb, f.add_block());
    }
    let mut imap: HashMap<InstrId, InstrId> = HashMap::new();
    let mut rets: Vec<(BlockId, Option<Operand>)> = Vec::new();

    // First pass: clone instructions (operand instr-refs fixed in 2nd pass,
    // since phis may reference forward).
    for (cb, cblk) in callee.iter_blocks() {
        let nb = bmap[&cb];
        for &cid in &cblk.instrs {
            let ci = callee.instr(cid);
            if matches!(ci.op, Opcode::Ret) {
                let val = ci.operands.first().copied();
                rets.push((nb, val));
                // Placeholder branch to cont; value fixed below.
                f.push_instr(nb, Instr::new(Opcode::Br, Ty::Void, vec![Operand::Block(cont)]));
                continue;
            }
            let nid = f.push_instr(nb, ci.clone());
            imap.insert(cid, nid);
        }
    }
    // Second pass: remap operands of all cloned instructions.
    for (&cid, &nid) in &imap {
        let mut instr = callee.instr(cid).clone();
        for op in &mut instr.operands {
            *op = match *op {
                Operand::Instr(d) => {
                    Operand::Instr(*imap.get(&d).expect("callee operand defined in callee"))
                }
                Operand::Arg(a) => call_args[a as usize],
                Operand::Block(b) => Operand::Block(bmap[&b]),
                other => other,
            };
        }
        let slot = f.instr_mut(nid);
        slot.operands = instr.operands;
    }
    // Remap the stashed return values.
    let remap_ret = |v: Operand| -> Operand {
        match v {
            Operand::Instr(d) => Operand::Instr(imap[&d]),
            Operand::Arg(a) => call_args[a as usize],
            other => other,
        }
    };
    let rets: Vec<(BlockId, Option<Operand>)> =
        rets.into_iter().map(|(b, v)| (b, v.map(remap_ret))).collect();

    // 3. Branch from the call block into the cloned entry.
    let entry_clone = bmap[&callee.entry()];
    f.push_instr(bid, Instr::new(Opcode::Br, Ty::Void, vec![Operand::Block(entry_clone)]));

    // 4. Wire the return value into users of the call.
    if callee.ret.is_first_class() {
        let val = match rets.len() {
            0 => None,
            1 => rets[0].1,
            _ => {
                // Build a phi at the head of cont merging all return values.
                let mut ops = Vec::with_capacity(rets.len() * 2);
                for (rb, rv) in &rets {
                    ops.push(Operand::Block(*rb));
                    ops.push(rv.expect("non-void callee returns a value"));
                }
                let phi = f.alloc_instr(Instr::new(Opcode::Phi, callee.ret, ops));
                f.blocks[cont.index()].instrs.insert(0, phi);
                Some(Operand::Instr(phi))
            }
        };
        if let Some(v) = val {
            f.replace_all_uses(call_id, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irnuma_ir::builder::{iconst, FunctionBuilder};
    use irnuma_ir::{verify_module, IntPred};

    fn module_with_helper(multi_ret: bool) -> Module {
        let mut m = Module::new("m");
        let mut h = FunctionBuilder::new(
            "square_plus",
            vec![Ty::I64, Ty::I64],
            Ty::I64,
            FunctionKind::Normal,
        );
        if multi_ret {
            let neg = h.new_block();
            let nonneg = h.new_block();
            let c = h.icmp(IntPred::Slt, h.arg(0), iconst(0));
            h.cond_br(c, neg, nonneg);
            h.switch_to(neg);
            h.ret(Some(iconst(0)));
            h.switch_to(nonneg);
            let sq = h.mul(Ty::I64, h.arg(0), h.arg(0));
            let r = h.add(Ty::I64, sq, h.arg(1));
            h.ret(Some(r));
        } else {
            let sq = h.mul(Ty::I64, h.arg(0), h.arg(0));
            let r = h.add(Ty::I64, sq, h.arg(1));
            h.ret(Some(r));
        }
        m.add_function(h.finish());

        let mut c = FunctionBuilder::new("caller", vec![Ty::I64], Ty::I64, FunctionKind::Normal);
        let v = c.call("square_plus", Ty::I64, vec![c.arg(0), iconst(10)]);
        let w = c.add(Ty::I64, v, iconst(1));
        c.ret(Some(w));
        m.add_function(c.finish());
        m
    }

    #[test]
    fn single_return_callee_inlines() {
        let mut m = module_with_helper(false);
        assert!(Inline::default().run(&mut m));
        verify_module(&m).expect("inlined module verifies");
        let caller = m.function("caller").unwrap();
        let has_call = caller
            .iter_attached()
            .any(|(_, _, id)| matches!(caller.instr(id).op, Opcode::Call { .. }));
        assert!(!has_call, "call replaced by body");
        // The argument was substituted: a mul of arg0 by arg0 exists now.
        let has_sq = caller.iter_attached().any(|(_, _, id)| {
            let i = caller.instr(id);
            i.op == Opcode::Mul && i.operands == vec![Operand::Arg(0), Operand::Arg(0)]
        });
        assert!(has_sq);
    }

    #[test]
    fn multi_return_callee_gets_merge_phi() {
        let mut m = module_with_helper(true);
        assert!(Inline::default().run(&mut m));
        verify_module(&m).expect("inlined module verifies");
        let caller = m.function("caller").unwrap();
        let phis = caller
            .iter_attached()
            .filter(|&(_, _, id)| matches!(caller.instr(id).op, Opcode::Phi))
            .count();
        assert_eq!(phis, 1, "two returns merge through one phi");
    }

    #[test]
    fn oversized_callee_is_skipped() {
        let mut m = module_with_helper(false);
        assert!(!Inline { max_callee_instrs: 1 }.run(&mut m));
    }

    #[test]
    fn recursion_is_never_inlined() {
        let mut m = Module::new("m");
        let mut r = FunctionBuilder::new("rec", vec![Ty::I64], Ty::I64, FunctionKind::Normal);
        let v = r.call("rec", Ty::I64, vec![r.arg(0)]);
        r.ret(Some(v));
        m.add_function(r.finish());
        assert!(!Inline::default().run(&mut m));
        verify_module(&m).unwrap();
    }

    #[test]
    fn outlined_regions_are_not_inlined_into_callers() {
        let mut m = Module::new("m");
        let mut region =
            FunctionBuilder::new(".omp_outlined.k", vec![], Ty::Void, FunctionKind::OmpOutlined);
        region.ret(None);
        m.add_function(region.finish());
        let mut main = FunctionBuilder::new("main", vec![], Ty::Void, FunctionKind::Normal);
        main.call_void(".omp_outlined.k", vec![]);
        main.ret(None);
        m.add_function(main.finish());
        assert!(!Inline::default().run(&mut m), "parallel regions must stay outlined");
    }

    #[test]
    fn inline_inside_loop_body_preserves_cfg() {
        let mut m = Module::new("m");
        let mut h = FunctionBuilder::new("twice", vec![Ty::I64], Ty::I64, FunctionKind::Normal);
        let d = h.mul(Ty::I64, h.arg(0), iconst(2));
        h.ret(Some(d));
        m.add_function(h.finish());
        let mut c = FunctionBuilder::new("caller", vec![Ty::I64], Ty::Void, FunctionKind::Normal);
        c.counted_loop(iconst(0), c.arg(0), iconst(1), |c, i| {
            let _ = c.call("twice", Ty::I64, vec![i]);
        });
        c.ret(None);
        m.add_function(c.finish());
        assert!(Inline::default().run(&mut m));
        verify_module(&m).expect("loop with inlined call verifies");
        let caller = m.function("caller").unwrap();
        assert_eq!(irnuma_ir::analysis::natural_loops(caller).len(), 1);
    }
}
