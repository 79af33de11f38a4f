//! The two contracts `PassMemo` relies on, checked for every registered
//! pass on every benchmark region, from module states reached by random
//! prefixes of sampled flag sequences (uncompacted, as the memo holds them):
//!
//! - a pass is a function of its input: equal modules in, equal modules out
//!   (so one run per distinct (state, pass) pair stands for all of them);
//! - a pass whose `Pass::run` returns `false` left the module equal to its
//!   input (so the memo reuses the input's state without hashing it).

use irnuma_passes::pass::find_pass;
use irnuma_passes::{registry, sample_sequences, SampleParams};
use irnuma_workloads::all_regions;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn passes_are_deterministic_and_report_every_change(
        seed in 0u64..100_000,
        cut in 0usize..24,
    ) {
        let seq = sample_sequences(1, seed, SampleParams::default()).remove(0);
        let prefix = &seq.passes[..cut.min(seq.passes.len())];
        for spec in all_regions() {
            let mut state = spec.module();
            for name in prefix {
                find_pass(name).expect("sampled passes are registered").run(&mut state);
            }
            for pass in registry() {
                let (mut once, mut again) = (state.clone(), state.clone());
                let changed = pass.run(&mut once);
                pass.run(&mut again);
                prop_assert!(
                    once == again,
                    "{} after {prefix:?} on {} gave two different modules",
                    pass.name(),
                    spec.name
                );
                prop_assert!(
                    changed || once == state,
                    "{} after {prefix:?} on {} returned false but changed the module",
                    pass.name(),
                    spec.name
                );
            }
        }
    }
}
