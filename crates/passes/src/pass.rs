//! The pass framework: a [`Pass`] trait, a name → pass registry, and a
//! [`PassManager`] that runs sequences with optional post-pass verification.

use irnuma_ir::{verify_module, Module, VerifyError};
use std::fmt;

/// A module-level transformation.
pub trait Pass: Sync + Send {
    /// Stable flag name (what appears in a flag sequence).
    fn name(&self) -> &'static str;

    /// Run over the module; return whether anything changed. `false`
    /// promises the module equals its input: [`crate::PassMemo`] reuses
    /// the input's state without comparing.
    fn run(&self, m: &mut Module) -> bool;
}

/// Error raised when a sequence names an unknown pass or a pass breaks the
/// verifier.
#[derive(Debug)]
pub enum PassError {
    UnknownPass(String),
    Broken { pass: &'static str, err: VerifyError },
}

impl fmt::Display for PassError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PassError::UnknownPass(n) => write!(f, "unknown pass `{n}`"),
            PassError::Broken { pass, err } => write!(f, "pass `{pass}` broke the module: {err}"),
        }
    }
}

impl std::error::Error for PassError {}

/// Every registered pass, in the order of the default pipeline catalogue:
/// one static table of stateless, shareable objects.
static REGISTRY: [&dyn Pass; 14] = {
    use crate::passes::*;
    [
        &SimplifyCfg,
        &Dce,
        &ConstProp,
        &InstCombine,
        &Reassociate,
        &Gvn,
        &StoreForward,
        &Dse,
        &PhiSimplify,
        &Mem2Reg,
        &Licm,
        &LoopUnroll::DEFAULT,
        &Inline::DEFAULT,
        &Sink,
    ]
};

/// All registered passes, in the order they appear in the default pipeline
/// catalogue.
pub fn registry() -> &'static [&'static dyn Pass] {
    &REGISTRY
}

/// Look up a pass by flag name.
pub fn find_pass(name: &str) -> Option<&'static dyn Pass> {
    REGISTRY.iter().copied().find(|p| p.name() == name)
}

/// A flag sequence with its names looked up in the registry once, so it can
/// run any number of times without lookups. Lookup stops at the first
/// unknown name; running the sequence runs the passes before it, then
/// reports it — the order a name-by-name walk would.
pub struct ResolvedSequence {
    /// Registry indices of the passes before the first unknown name.
    passes: Vec<usize>,
    unknown: Option<String>,
}

impl ResolvedSequence {
    pub fn new(names: &[String]) -> ResolvedSequence {
        let mut passes = Vec::with_capacity(names.len());
        for name in names {
            match REGISTRY.iter().position(|p| p.name() == name) {
                Some(i) => passes.push(i),
                None => return ResolvedSequence { passes, unknown: Some(name.clone()) },
            }
        }
        ResolvedSequence { passes, unknown: None }
    }

    /// Registry indices of the runnable prefix (`registry()[i]`).
    pub(crate) fn passes(&self) -> &[usize] {
        &self.passes
    }

    /// The unknown-name error running this sequence ends with, if any.
    pub(crate) fn unknown(&self) -> Result<(), PassError> {
        match &self.unknown {
            Some(name) => Err(PassError::UnknownPass(name.clone())),
            None => Ok(()),
        }
    }

    /// Names in the sequence, counting an unknown one.
    pub fn len(&self) -> usize {
        self.passes.len() + usize::from(self.unknown.is_some())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Run one pass, timing it under `pass.<name>_ns` when telemetry is on.
pub(crate) fn run_pass(pass: &dyn Pass, m: &mut Module) -> bool {
    if !irnuma_obs::telemetry_enabled() {
        return pass.run(m);
    }
    let t0 = std::time::Instant::now();
    let changed = pass.run(m);
    // Dynamic names go through the registry, not the macro cache.
    irnuma_obs::registry()
        .histogram(&format!("pass.{}_ns", pass.name()))
        .record_duration(t0.elapsed());
    changed
}

/// Compact arenas and drop empty blocks, so downstream consumers (printer,
/// graphs) see tight ids. [`PassManager::run`] ends every sequence with it.
pub fn compact_module(m: &mut Module) {
    for f in &mut m.functions {
        if !f.is_declaration() {
            // Drop detached instructions first: they may still hold stale
            // block references that compact_blocks would trip on.
            f.compact();
            f.compact_blocks();
        }
    }
}

/// Runs pass sequences over modules.
pub struct PassManager {
    /// Verify the module after every pass (used by all tests; cheap enough
    /// to leave on for dataset generation too).
    pub verify_each: bool,
}

impl Default for PassManager {
    fn default() -> Self {
        PassManager::new(cfg!(debug_assertions))
    }
}

impl PassManager {
    pub fn new(verify_each: bool) -> Self {
        PassManager { verify_each }
    }

    /// Run the named sequence over `m`. Returns the number of passes that
    /// reported a change.
    pub fn run(&self, m: &mut Module, sequence: &[String]) -> Result<usize, PassError> {
        let mut span = irnuma_obs::span!("passes.run", passes = sequence.len());
        let seq = ResolvedSequence::new(sequence);
        let mut changed = 0;
        for &i in seq.passes() {
            let pass = REGISTRY[i];
            if run_pass(pass, m) {
                changed += 1;
            }
            if self.verify_each {
                verify_module(m).map_err(|err| PassError::Broken { pass: pass.name(), err })?;
            }
        }
        seq.unknown()?;
        span.field("changed", changed);
        compact_module(m);
        if self.verify_each {
            verify_module(m).map_err(|err| PassError::Broken { pass: "compact", err })?;
        }
        Ok(changed)
    }
}

/// Convenience: run a sequence of `&str` names with default settings.
///
/// ```
/// use irnuma_ir::builder::{iconst, FunctionBuilder};
/// use irnuma_ir::{FunctionKind, Module, Ty};
///
/// let mut m = Module::new("demo");
/// let mut b = FunctionBuilder::new("f", vec![], Ty::I64, FunctionKind::Normal);
/// let x = b.add(Ty::I64, iconst(2), iconst(3));
/// let dead = b.mul(Ty::I64, x, iconst(100));
/// let _ = dead;
/// b.ret(Some(x));
/// m.add_function(b.finish());
///
/// irnuma_passes::run_sequence(&mut m, &["constprop", "dce"]).unwrap();
/// // 2 + 3 folded, the unused multiply removed: only `ret 5` remains.
/// assert_eq!(m.num_instrs(), 1);
/// ```
pub fn run_sequence(m: &mut Module, names: &[&str]) -> Result<usize, PassError> {
    let seq: Vec<String> = names.iter().map(|s| s.to_string()).collect();
    PassManager::default().run(m, &seq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_nonempty() {
        let names: Vec<_> = registry().iter().map(|p| p.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate pass names");
        assert!(names.len() >= 14, "expected at least 14 passes, got {}", names.len());
    }

    #[test]
    fn unknown_pass_is_reported() {
        let mut m = Module::new("m");
        let err = PassManager::new(true).run(&mut m, &["does-not-exist".to_string()]).unwrap_err();
        assert!(matches!(err, PassError::UnknownPass(_)));
    }

    #[test]
    fn every_o3_flag_resolves() {
        for name in crate::flags::o3_sequence() {
            assert!(find_pass(name).is_some(), "O3 references unknown pass {name}");
        }
    }
}
