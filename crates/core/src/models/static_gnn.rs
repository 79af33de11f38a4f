//! The static prediction model (paper §III-D.1) and the explored-flag-seq
//! selection (§III-E, first method).

use crate::dataset::Dataset;
use irnuma_graph::Vocab;
use irnuma_nn::{GnnClassifier, GnnConfig, GraphData, MemorySource, TrainParams};
use serde::{Deserialize, Serialize};

/// Static-model hyper-parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct StaticParams {
    /// GNN hidden width (the paper uses 256; the default favors runtime).
    pub hidden: usize,
    pub epochs: usize,
    pub lr: f32,
    pub batch: usize,
    /// How many of the dataset's flag sequences are used as training
    /// augmentation (evenly subsampled).
    pub train_sequences: usize,
    pub seed: u64,
}

impl Default for StaticParams {
    fn default() -> Self {
        StaticParams { hidden: 32, epochs: 14, lr: 4e-3, batch: 24, train_sequences: 8, seed: 71 }
    }
}

/// A trained static model for one fold.
pub struct StaticModel {
    pub clf: GnnClassifier,
    /// The deployment flag sequence chosen by exploration over the training
    /// regions (index into `Dataset::sequences`).
    pub explored_seq: usize,
    pub params: StaticParams,
}

/// Indices of the augmentation subsample.
pub fn training_sequence_ids(total: usize, wanted: usize) -> Vec<usize> {
    let k = wanted.clamp(1, total);
    (0..k).map(|i| i * total / k).collect()
}

impl StaticModel {
    /// Train on the given region indices (step D), then run the explored
    /// flag-sequence selection (step E) over the same training regions.
    pub fn train(ds: &Dataset, train_idx: &[usize], p: StaticParams) -> StaticModel {
        let _span = irnuma_obs::span!(
            "model.static.train",
            regions = train_idx.len(),
            epochs = p.epochs,
            hidden = p.hidden
        );
        let vocab = Vocab::full();
        let classes = ds.chosen_configs.len();
        let seq_ids = training_sequence_ids(ds.sequences.len(), p.train_sequences);

        let mut graphs = Vec::with_capacity(train_idx.len() * seq_ids.len());
        let mut labels = Vec::with_capacity(graphs.capacity());
        for &r in train_idx {
            for &s in &seq_ids {
                graphs.push(ds.regions[r].graphs[s].clone());
                labels.push(ds.labels[r]);
            }
        }

        let cfg = GnnConfig {
            vocab_size: vocab.len(),
            hidden: p.hidden,
            classes,
            layers: 2,
            layer_norm: true,
            seed: p.seed,
        };
        let mut clf = GnnClassifier::new(cfg);
        clf.fit_streaming(
            &mut MemorySource::from_shards(vec![(graphs, labels)]),
            TrainParams { epochs: p.epochs, batch_size: p.batch, lr: p.lr, seed: p.seed ^ 0x9e37 },
            None,
        )
        .expect("labels index the dataset's chosen configs and the training set is non-empty");

        // Step E (explored): the sequence with the best average predicted
        // speedup across the training regions. One batched inference pass
        // covers every (sequence × training region) graph.
        let graph_refs: Vec<&GraphData> = (0..ds.sequences.len())
            .flat_map(|s| train_idx.iter().map(move |&r| &ds.regions[r].graphs[s]))
            .collect();
        let outputs = clf.model.infer_batch(&graph_refs);
        let explored_seq = (0..ds.sequences.len())
            .map(|s| {
                let base = s * train_idx.len();
                let mean: f64 = train_idx
                    .iter()
                    .enumerate()
                    .map(|(i, &r)| {
                        let label = outputs[base + i].label();
                        ds.regions[r].default_time / ds.label_time(r, label)
                    })
                    .sum::<f64>()
                    / train_idx.len().max(1) as f64;
                (s, mean)
            })
            .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)))
            .map(|(s, _)| s)
            .expect("non-empty sequence pool");

        StaticModel { clf, explored_seq, params: p }
    }

    /// Predict the label class of a region using flag sequence `seq`.
    pub fn predict_with_seq(&self, ds: &Dataset, region: usize, seq: usize) -> usize {
        self.clf.predict(&ds.regions[region].graphs[seq])
    }

    /// Predict with the explored deployment sequence.
    pub fn predict(&self, ds: &Dataset, region: usize) -> usize {
        self.predict_with_seq(ds, region, self.explored_seq)
    }

    /// The pooled embedding of a region under the explored sequence — the
    /// feature vector of the flag model.
    pub fn embedding(&self, ds: &Dataset, region: usize) -> Vec<f32> {
        self.clf.embedding(&ds.regions[region].graphs[self.explored_seq])
    }

    /// Embedding augmented with the classifier's softmax distribution and
    /// top-1 margin — the hybrid router's features. The paper routes on the
    /// normalization-layer vector alone; adding the model's own confidence
    /// is a documented extension (DESIGN.md) that recovers the router
    /// accuracy real benchmark diversity gives the original.
    pub fn router_features(&self, ds: &Dataset, region: usize) -> Vec<f32> {
        self.clf.embedding_with_confidence(&ds.regions[region].graphs[self.explored_seq])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subsample_is_even_and_in_range() {
        assert_eq!(training_sequence_ids(10, 5), vec![0, 2, 4, 6, 8]);
        assert_eq!(training_sequence_ids(3, 8), vec![0, 1, 2]);
        assert_eq!(training_sequence_ids(100, 1), vec![0]);
    }
}
