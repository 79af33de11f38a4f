//! The hybrid model (paper §III-D.2): a decision tree over a GA-selected
//! subset of the static embedding that predicts whether the static model's
//! error exceeds the 20% threshold; if so, the region is profiled and the
//! dynamic model decides.

use crate::dataset::Dataset;
use crate::models::static_gnn::StaticModel;
use irnuma_ml::{relative_difference, DecisionTree, Ga, GaParams, TreeParams};
use serde::{Deserialize, Serialize};

/// Hybrid-model hyper-parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct HybridParams {
    /// Error threshold above which a region "needs profiling" (paper: 20%).
    pub error_threshold: f64,
    /// Embedding dimensions kept by the GA (paper: 10 of 256).
    pub feature_subset: usize,
    /// Inner-CV folds used to produce honest routing labels.
    pub inner_folds: usize,
    pub ga: GaParams,
}

impl Default for HybridParams {
    fn default() -> Self {
        HybridParams {
            error_threshold: 0.20,
            feature_subset: 10,
            inner_folds: 5,
            ga: GaParams { population: 100, generations: 20, ..Default::default() },
        }
    }
}

/// The router: static-is-enough vs needs-profiling.
pub struct HybridModel {
    tree: DecisionTree,
    scale: FeatureScale,
    pub selected_dims: Vec<usize>,
    pub params: HybridParams,
}

/// Whether the static model's prediction for `region` misses the full
/// exploration by more than `threshold` (the routing ground truth).
pub fn static_needs_profiling(
    ds: &Dataset,
    sm: &StaticModel,
    region: usize,
    threshold: f64,
) -> bool {
    let pred = sm.predict(ds, region);
    let t_pred = ds.label_time(region, pred);
    let t_full = ds.regions[region].full_best_time();
    relative_difference(t_full, t_pred) > threshold
}

/// Honest routing training data: inner cross-validation over the training
/// regions. Each held-out region is scored *and featurized* by a static
/// model that has not seen it — the same condition the deployed router
/// faces on a validation region. Training-set errors would underestimate
/// failures and teach the router to never profile; final-model features
/// with sub-model labels would be misaligned.
pub fn inner_cv_needs_labels(
    ds: &Dataset,
    train_idx: &[usize],
    threshold: f64,
    inner_folds: usize,
    static_params: crate::models::static_gnn::StaticParams,
) -> (Vec<Vec<f32>>, Vec<usize>) {
    let inner_folds = inner_folds.clamp(2, train_idx.len());
    let mut needs = vec![0usize; train_idx.len()];
    let mut feats: Vec<Vec<f32>> = vec![Vec::new(); train_idx.len()];
    for f in 0..inner_folds {
        let holdout: Vec<usize> = (f..train_idx.len()).step_by(inner_folds).collect();
        let sub_train: Vec<usize> = train_idx
            .iter()
            .enumerate()
            .filter(|(i, _)| !holdout.contains(i))
            .map(|(_, &r)| r)
            .collect();
        let sub_model = StaticModel::train(ds, &sub_train, static_params);
        let scale = FeatureScale::fit(ds, &sub_model, &sub_train);
        for &i in &holdout {
            let r = train_idx[i];
            needs[i] = static_needs_profiling(ds, &sub_model, r, threshold) as usize;
            feats[i] = scale.apply(sub_model.router_features(ds, r));
        }
    }
    (feats, needs)
}

impl HybridModel {
    /// Train the router on the training regions' embeddings and honest
    /// (inner-CV) static-error labels.
    pub fn train(
        ds: &Dataset,
        sm: &StaticModel,
        train_idx: &[usize],
        p: HybridParams,
        static_params: crate::models::static_gnn::StaticParams,
    ) -> HybridModel {
        let _span = irnuma_obs::span!(
            "model.hybrid.train",
            regions = train_idx.len(),
            inner_folds = p.inner_folds
        );
        // Inner sub-models use two-thirds of the epochs: enough fidelity for
        // honest labels at 40% less cost.
        let inner = crate::models::static_gnn::StaticParams {
            epochs: (static_params.epochs * 2 / 3).max(3),
            ..static_params
        };
        let (embeddings, y) =
            inner_cv_needs_labels(ds, train_idx, p.error_threshold, p.inner_folds, inner);
        let dim = embeddings[0].len();
        let k = p.feature_subset.min(dim);

        // The router tree is depth-limited: the training set is ~50 regions
        // and the full-depth CART memorizes it without transferring.
        let tree_params = TreeParams { max_depth: Some(2), ..Default::default() };

        // GA fitness: leave-one-out *balanced* accuracy of the tree on the
        // selected dims (the paper optimizes the same objective with
        // pyeasyga; balancing matters because "needs profiling" is the
        // minority class).
        let fitness = |sel: &[usize]| -> f64 {
            let xs: Vec<Vec<f32>> =
                embeddings.iter().map(|e| sel.iter().map(|&d| e[d]).collect()).collect();
            let mut hit = [0usize; 2];
            let mut tot = [0usize; 2];
            for hold in 0..xs.len() {
                let tx: Vec<Vec<f32>> = xs
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != hold)
                    .map(|(_, v)| v.clone())
                    .collect();
                let ty: Vec<usize> =
                    y.iter().enumerate().filter(|&(i, _)| i != hold).map(|(_, &v)| v).collect();
                let t = DecisionTree::fit(&tx, &ty, tree_params);
                tot[y[hold]] += 1;
                if t.predict(&xs[hold]) == y[hold] {
                    hit[y[hold]] += 1;
                }
            }
            let recall = |c: usize| {
                if tot[c] == 0 {
                    1.0
                } else {
                    hit[c] as f64 / tot[c] as f64
                }
            };
            0.5 * (recall(0) + recall(1))
        };
        let (selected_dims, _) = Ga::new(p.ga).select_features(dim, k, fitness);

        let xs: Vec<Vec<f32>> =
            embeddings.iter().map(|e| selected_dims.iter().map(|&d| e[d]).collect()).collect();
        let tree = DecisionTree::fit(&xs, &y, tree_params);
        let scale = FeatureScale::fit(ds, sm, train_idx);
        HybridModel { tree, scale, selected_dims, params: p }
    }

    /// Should this region be profiled (routed to the dynamic model)?
    pub fn route_to_dynamic(&self, ds: &Dataset, sm: &StaticModel, region: usize) -> bool {
        let e = self.scale.apply(sm.router_features(ds, region));
        let x: Vec<f32> = self.selected_dims.iter().map(|&d| e[d]).collect();
        self.tree.predict(&x) == 1
    }
}

/// Per-model standardization of router features. Every static model (each
/// inner-CV sub-model, and the fold's final model the router is deployed
/// on) has its own embedding scale — the final model trains longer on more
/// regions — so raw thresholds learned on sub-model features do not
/// transfer. Each feature is z-scored against the model's own training
/// regions before the router sees it.
struct FeatureScale {
    mean: Vec<f32>,
    inv_std: Vec<f32>,
}

impl FeatureScale {
    fn fit(ds: &Dataset, sm: &StaticModel, regions: &[usize]) -> FeatureScale {
        let feats: Vec<Vec<f32>> = regions.iter().map(|&r| sm.router_features(ds, r)).collect();
        let n = feats.len().max(1) as f64;
        let dim = feats.first().map_or(0, Vec::len);
        let mut mean = vec![0.0f32; dim];
        let mut inv_std = vec![0.0f32; dim];
        for d in 0..dim {
            let m = feats.iter().map(|f| f[d] as f64).sum::<f64>() / n;
            let var = feats.iter().map(|f| (f[d] as f64 - m).powi(2)).sum::<f64>() / n;
            mean[d] = m as f32;
            inv_std[d] = if var > 1e-12 { (1.0 / var.sqrt()) as f32 } else { 0.0 };
        }
        FeatureScale { mean, inv_std }
    }

    fn apply(&self, mut x: Vec<f32>) -> Vec<f32> {
        for ((v, m), s) in x.iter_mut().zip(&self.mean).zip(&self.inv_std) {
            *v = (*v - m) * s;
        }
        x
    }
}
