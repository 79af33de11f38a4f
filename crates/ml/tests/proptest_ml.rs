//! Property tests for the classical-ML substrate.

use irnuma_ml::{
    accuracy, coverage, kfold, mean_speedup, reduce_labels, relative_difference, DecisionTree,
    LooCart, TreeParams,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn relative_difference_is_symmetric_bounded(a in -1e6f64..1e6, b in -1e6f64..1e6) {
        let d1 = relative_difference(a, b);
        let d2 = relative_difference(b, a);
        prop_assert!((d1 - d2).abs() < 1e-12);
        prop_assert!(d1 >= 0.0);
        if a.signum() == b.signum() || a == 0.0 || b == 0.0 {
            prop_assert!(d1 <= 1.0 + 1e-12, "same-sign relative diff ≤ 1: {d1}");
        }
    }

    #[test]
    fn kfold_always_partitions(n in 4usize..200, k in 2usize..10, seed in 0u64..50) {
        prop_assume!(n >= k);
        let folds = kfold(n, k, seed).unwrap();
        let mut seen = vec![false; n];
        for f in &folds {
            for &i in f {
                prop_assert!(!seen[i], "duplicate {i}");
                seen[i] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
        let min = folds.iter().map(Vec::len).min().unwrap();
        let max = folds.iter().map(Vec::len).max().unwrap();
        prop_assert!(max - min <= 1, "balanced folds: {min}..{max}");
    }

    #[test]
    fn tree_training_accuracy_is_perfect_on_separable_data(
        rows in prop::collection::vec((0.0f32..1.0, 0.0f32..1.0), 8..60),
        thresh in 0.2f32..0.8,
    ) {
        // Labels derived from a single threshold on feature 0: CART with
        // unlimited depth must fit it exactly (no duplicate-x conflicts
        // because the label is a function of x).
        let x: Vec<Vec<f32>> = rows.iter().map(|&(a, b)| vec![a, b]).collect();
        let y: Vec<usize> = rows.iter().map(|&(a, _)| usize::from(a > thresh)).collect();
        let t = DecisionTree::fit(&x, &y, TreeParams::default());
        for (xi, &yi) in x.iter().zip(&y) {
            prop_assert_eq!(t.predict(xi), yi);
        }
    }

    #[test]
    fn reduced_label_sets_are_valid_and_monotone(
        times in prop::collection::vec(prop::collection::vec(0.1f64..10.0, 6), 4..12),
    ) {
        let baseline: Vec<f64> = times.iter().map(|r| r[0]).collect();
        let mut prev_cov = 0.0;
        for k in 1..=6 {
            let chosen = reduce_labels(&times, &baseline, k);
            prop_assert_eq!(chosen.len(), k);
            let mut dedup = chosen.clone();
            dedup.sort_unstable();
            dedup.dedup();
            prop_assert_eq!(dedup.len(), k, "distinct configs");
            let cov = coverage(&times, &baseline, &chosen);
            prop_assert!(cov >= prev_cov - 1e-9, "monotone coverage");
            prop_assert!(cov <= 1.0 + 1e-9);
            prev_cov = cov;
        }
        prop_assert!((prev_cov - 1.0).abs() < 1e-9, "full k reaches full coverage");
    }

    #[test]
    fn mean_speedup_of_identity_is_one(base in prop::collection::vec(0.1f64..100.0, 1..20)) {
        let s = mean_speedup(&base, &base);
        prop_assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn accuracy_bounds(truth in prop::collection::vec(0usize..5, 1..40), seed in 0u64..20) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let pred: Vec<usize> = truth.iter().map(|_| rng.gen_range(0..5)).collect();
        let a = accuracy(&truth, &pred);
        prop_assert!((0.0..=1.0).contains(&a));
        prop_assert!((accuracy(&truth, &truth) - 1.0).abs() < 1e-12);
    }
}

/// `n` rows × `dims` columns, each column quantized to 1, 2, 3, 7 or 1000
/// levels (1 level = a constant column), so tied values and duplicate rows
/// are common; labels uniform over `classes`; and a column subset in random
/// order.
fn tied_case(
    n: usize,
    dims: usize,
    classes: usize,
    seed: u64,
) -> (Vec<Vec<f32>>, Vec<usize>, Vec<usize>) {
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let levels: Vec<u32> =
        (0..dims).map(|_| [1u32, 2, 3, 7, 1000][rng.gen_range(0..5usize)]).collect();
    let x = (0..n)
        .map(|_| levels.iter().map(|&l| rng.gen_range(0..l) as f32 * 0.37 - 1.5).collect())
        .collect();
    let y = (0..n).map(|_| rng.gen_range(0..classes)).collect();
    let mut sel: Vec<usize> = (0..dims).filter(|_| rng.gen_bool(0.6)).collect();
    sel.shuffle(&mut rng);
    (x, y, sel)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn loo_cart_matches_refitting_without_each_row(
        (n, dims, classes, seed) in (3usize..61, 1usize..8, 2usize..6, 0u64..1_000_000),
        max_depth in prop::sample::select(vec![None, Some(1), Some(2), Some(3)]),
        min_samples_leaf in 1usize..4,
    ) {
        let (x, y, sel) = tied_case(n, dims, classes, seed);
        let params = TreeParams { max_depth, min_samples_leaf, ..Default::default() };
        let held_out = LooCart::new(&x, &y, params).predict_held_out(&sel);
        let project = |row: &Vec<f32>| -> Vec<f32> { sel.iter().map(|&d| row[d]).collect() };
        for h in 0..n {
            let tx: Vec<Vec<f32>> =
                x.iter().enumerate().filter(|&(i, _)| i != h).map(|(_, r)| project(r)).collect();
            let ty: Vec<usize> =
                y.iter().enumerate().filter(|&(i, _)| i != h).map(|(_, &c)| c).collect();
            let oracle = DecisionTree::fit(&tx, &ty, params).predict(&project(&x[h]));
            prop_assert_eq!(held_out[h], oracle, "row {}", h);
        }
    }
}
