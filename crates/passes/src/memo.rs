//! Memoized pass pipelines: many flag sequences over one base module, each
//! pass run once per distinct (module state, pass) pair.
//!
//! Down-sampled `-O3` sequences (dataset step A) drive a module through few
//! distinct states: most passes find nothing to do, and many orders meet in
//! the same IR. [`PassMemo`] interns every module state it reaches by exact
//! [`Module`] equality — the derived `Eq`, which is bit-exact because float
//! immediates are stored as IEEE bits — and numbers states in first-seen
//! order. A transition table maps `(state, pass)` to the state that pass
//! produces, so a sequence whose steps were all seen before runs no pass.
//! A pass that reports no change maps a state to itself without hashing it.
//! Every pass is a deterministic function of the module it is given, so the
//! state a sequence ends in equals what [`crate::PassManager::run`] (without
//! per-pass verification) leaves on a fresh clone, before compaction;
//! [`PassMemo::compacted`] applies that last step.

use crate::pass::{compact_module, registry, run_pass, PassError, ResolvedSequence};
use irnuma_ir::Module;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::rc::Rc;

/// A module state's number within one [`PassMemo`]; the base module is 0.
pub type StateId = u32;

/// The memo for one base module. States live as long as the memo: drop it
/// with the module it was built for.
pub struct PassMemo {
    /// State `i`'s module. Shared with `ids`, so each state is stored once.
    states: Vec<Rc<Module>>,
    ids: HashMap<Rc<Module>, StateId>,
    /// `(state, registry index)` → the state that pass leaves.
    next: HashMap<(StateId, usize), StateId>,
    pass_runs: usize,
    hits: usize,
}

impl PassMemo {
    /// A memo whose state 0 is `base`.
    pub fn new(base: Module) -> PassMemo {
        let mut memo = PassMemo {
            states: Vec::new(),
            ids: HashMap::new(),
            next: HashMap::new(),
            pass_runs: 0,
            hits: 0,
        };
        memo.intern(base);
        memo
    }

    /// Run `seq` from the base state and return the state it ends in
    /// (uncompacted). Steps already taken from the same state are looked
    /// up, not run. An unknown pass name fails after the passes before it,
    /// as in [`crate::PassManager::run`].
    pub fn run(&mut self, seq: &ResolvedSequence) -> Result<StateId, PassError> {
        let mut span = irnuma_obs::span!("passes.run", passes = seq.len());
        let runs_before = self.pass_runs;
        let mut state: StateId = 0;
        for &p in seq.passes() {
            state = match self.next.get(&(state, p)) {
                Some(&to) => {
                    self.hits += 1;
                    to
                }
                None => {
                    let mut m = Module::clone(&self.states[state as usize]);
                    self.pass_runs += 1;
                    // A pass that reports no change leaves its input as it
                    // was (`tests/pass_contracts.rs`), so only a changed
                    // module is hashed and compared.
                    let to = if run_pass(registry()[p], &mut m) { self.intern(m) } else { state };
                    self.next.insert((state, p), to);
                    to
                }
            };
        }
        seq.unknown()?;
        span.field("runs", self.pass_runs - runs_before);
        Ok(state)
    }

    /// Number `m`, reusing the id of an equal state seen before.
    fn intern(&mut self, m: Module) -> StateId {
        match self.ids.entry(Rc::new(m)) {
            Entry::Occupied(seen) => *seen.get(),
            Entry::Vacant(new) => {
                let id = StateId::try_from(self.states.len()).expect("under 2^32 module states");
                self.states.push(Rc::clone(new.key()));
                *new.insert(id)
            }
        }
    }

    /// A copy of state `id` compacted as [`crate::PassManager::run`] leaves
    /// a module at the end of a sequence.
    pub fn compacted(&self, id: StateId) -> Module {
        let mut m = Module::clone(&self.states[id as usize]);
        compact_module(&mut m);
        m
    }

    /// Distinct module states reached, the base included.
    pub fn states(&self) -> usize {
        self.states.len()
    }

    /// Passes actually run: one per distinct `(state, pass)` step.
    pub fn pass_runs(&self) -> usize {
        self.pass_runs
    }

    /// Steps answered from the transition table instead of a pass run.
    pub fn hits(&self) -> usize {
        self.hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PassManager;
    use irnuma_ir::builder::{iconst, FunctionBuilder};
    use irnuma_ir::{FunctionKind, Ty};

    fn demo() -> Module {
        let mut m = Module::new("demo");
        let mut b = FunctionBuilder::new("f", vec![], Ty::I64, FunctionKind::Normal);
        let x = b.add(Ty::I64, iconst(2), iconst(3));
        let _dead = b.mul(Ty::I64, x, iconst(100));
        b.ret(Some(x));
        m.add_function(b.finish());
        m
    }

    fn seq(names: &[&str]) -> ResolvedSequence {
        ResolvedSequence::new(&names.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn repeated_steps_are_looked_up_not_run() {
        let mut memo = PassMemo::new(demo());
        let a = memo.run(&seq(&["constprop", "dce"])).unwrap();
        assert_eq!((memo.pass_runs(), memo.hits()), (2, 0));
        assert_eq!(memo.run(&seq(&["constprop", "dce"])).unwrap(), a);
        assert_eq!((memo.pass_runs(), memo.hits()), (2, 2));
        let b = memo.run(&seq(&["constprop", "dce", "dce"])).unwrap();
        assert_eq!(a, b, "a second dce leaves the same state");
        assert_eq!(memo.pass_runs() + memo.hits(), 7, "every step is a run or a hit");
        let mut fresh = demo();
        PassManager::new(true).run(&mut fresh, &["constprop".into(), "dce".into()]).unwrap();
        assert_eq!(memo.compacted(a), fresh);
        assert_eq!(memo.run(&seq(&[])).unwrap(), 0, "the empty sequence is the base");
    }

    #[test]
    fn unknown_pass_fails_after_the_known_prefix() {
        let mut memo = PassMemo::new(demo());
        let err = memo.run(&seq(&["dce", "bogus", "gvn"])).unwrap_err();
        assert!(matches!(err, PassError::UnknownPass(ref n) if n == "bogus"), "{err}");
        assert_eq!(memo.pass_runs(), 1, "dce ran, gvn did not");
    }
}
