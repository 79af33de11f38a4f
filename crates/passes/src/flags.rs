//! Flag sequences and the paper's down-sampling augmentation (step A).
//!
//! The paper: *"To create middle-end flag sequences, we followed the
//! methodology described in [Popov et al.] where random compilation
//! sequences are generated by down-sampling the -O3 sequence. Each pass is
//! removed with a 0.8 probability and the process was repeated four times."*
//!
//! We implement exactly that: the base sequence is the `-O3` pipeline
//! repeated `rounds` (4) times, and each pass *instance* is independently
//! removed with probability `removal_prob` (0.8). The surviving ~20% of
//! instances form one flag sequence. Sampling is seeded and deterministic.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// The default `-O3`-like pipeline. Order mirrors LLVM's classic phasing:
/// cleanup → scalar optimizations → loop optimizations → inlining → cleanup.
pub fn o3_sequence() -> Vec<&'static str> {
    vec![
        "simplifycfg",
        "dce",
        "constprop",
        "instcombine",
        "reassociate",
        "gvn",
        "store-forward",
        "dse",
        "phi-simplify",
        "mem2reg",
        "licm",
        "loop-unroll",
        "inline",
        "instcombine",
        "gvn",
        "sink",
        "simplifycfg",
        "dce",
    ]
}

/// A named, ordered list of pass flags.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FlagSequence {
    /// Index of the sequence within its sampled pool (stable identifier used
    /// as a model label by the flag-prediction model).
    pub id: u32,
    pub passes: Vec<String>,
}

impl FlagSequence {
    /// The sequence used when compiling "with default flags" (paper step C):
    /// the full -O3 pipeline, id reserved as `u32::MAX`.
    pub fn default_o3() -> FlagSequence {
        FlagSequence { id: u32::MAX, passes: o3_sequence().iter().map(|s| s.to_string()).collect() }
    }

    pub fn as_names(&self) -> Vec<&str> {
        self.passes.iter().map(String::as_str).collect()
    }
}

/// Parameters of the down-sampling procedure.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SampleParams {
    /// Probability that each pass instance is *removed* (paper: 0.8).
    pub removal_prob: f64,
    /// How many times the -O3 sequence is concatenated before sampling
    /// (paper: 4).
    pub rounds: usize,
}

impl Default for SampleParams {
    fn default() -> Self {
        SampleParams { removal_prob: 0.8, rounds: 4 }
    }
}

/// Generate `n` distinct flag sequences by down-sampling. Deterministic in
/// `seed`. Duplicate draws are retried (bounded), so the returned sequences
/// are unique; empty draws are discarded the same way.
pub fn sample_sequences(n: usize, seed: u64, params: SampleParams) -> Vec<FlagSequence> {
    let base: Vec<&'static str> = (0..params.rounds).flat_map(|_| o3_sequence()).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::with_capacity(n);
    let mut attempts = 0usize;
    let max_attempts = n * 64 + 1024;
    while out.len() < n && attempts < max_attempts {
        attempts += 1;
        let passes: Vec<String> = base
            .iter()
            .filter(|_| !rng.gen_bool(params.removal_prob))
            .map(|s| s.to_string())
            .collect();
        if passes.is_empty() {
            continue;
        }
        if seen.insert(passes.clone()) {
            out.push(FlagSequence { id: out.len() as u32, passes });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic() {
        let a = sample_sequences(32, 7, SampleParams::default());
        let b = sample_sequences(32, 7, SampleParams::default());
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = sample_sequences(32, 7, SampleParams::default());
        let b = sample_sequences(32, 8, SampleParams::default());
        assert_ne!(a, b);
    }

    #[test]
    fn sequences_are_unique_and_nonempty() {
        let seqs = sample_sequences(128, 3, SampleParams::default());
        assert_eq!(seqs.len(), 128);
        let mut set = std::collections::HashSet::new();
        for s in &seqs {
            assert!(!s.passes.is_empty());
            assert!(set.insert(&s.passes), "duplicate sequence");
        }
    }

    #[test]
    fn removal_rate_is_respected_on_average() {
        let seqs = sample_sequences(200, 11, SampleParams::default());
        let base_len = (o3_sequence().len() * 4) as f64;
        let mean_len: f64 =
            seqs.iter().map(|s| s.passes.len() as f64).sum::<f64>() / seqs.len() as f64;
        // Expected survivors: 20% of 68 ≈ 13.6; allow generous tolerance.
        assert!((mean_len - base_len * 0.2).abs() < base_len * 0.05, "mean length {mean_len}");
    }

    #[test]
    fn ids_are_sequential() {
        let seqs = sample_sequences(10, 1, SampleParams::default());
        for (i, s) in seqs.iter().enumerate() {
            assert_eq!(s.id, i as u32);
        }
    }

    #[test]
    fn sampled_flags_are_all_registered() {
        for s in sample_sequences(64, 5, SampleParams::default()) {
            for p in &s.passes {
                assert!(crate::pass::find_pass(p).is_some(), "unknown sampled pass {p}");
            }
        }
    }
}
