//! `train`: `GnnClassifier::fit_streaming` at hidden 64 over a wide pack
//! (200 flag sequences) built in set-up, training on 10 sequences per
//! region. The loader decodes and checksums every record of every shard
//! and keeps only the training subset; the fused backprop kernels do most
//! of the work.

use crate::trace;
use crate::util::{cpu_seconds, secs, sub_seed};
use crate::Report;
use irnuma_core::dataset::{BuildOptions, DatasetParams};
use irnuma_core::dataset_pack::{build_packed_dataset, open_stream, read_meta};
use irnuma_core::models::static_gnn::training_sequence_ids;
use irnuma_graph::Vocab;
use irnuma_nn::{
    GnnClassifier, GnnConfig, MemorySource, ShardBatch, ShardSource, ShardStream, TrainParams,
};
use irnuma_sim::MicroArch;
use irnuma_store::shard::ShardManifest;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::io;
use std::path::Path;
use std::time::Instant;

const PACK_DIR: &str = "train-pack";
const STREAM_MODEL: &str = "model-stream.json";
const HIDDEN: usize = 64;
const EPOCHS: usize = 4;
const BATCH: usize = 16;
const TRAIN_SEQUENCES: usize = 10;

pub fn setup(seed: u64, work: &Path) -> Result<(), String> {
    let dir = work.join(PACK_DIR);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let p = DatasetParams {
        num_sequences: 200,
        calls: 3,
        seed: sub_seed(seed, 1),
        ..Default::default()
    };
    let built = build_packed_dataset(MicroArch::Skylake, &p, &BuildOptions::default(), &dir, 8)
        .map_err(|e| e.to_string())?;
    if !built.skips.is_empty() {
        return Err(format!("{} regions skipped while building the pack", built.skips.len()));
    }
    Ok(())
}

fn classifier(seed: u64, classes: usize) -> GnnClassifier {
    GnnClassifier::new(GnnConfig {
        vocab_size: Vocab::full().len(),
        hidden: HIDDEN,
        classes,
        layers: 2,
        layer_norm: true,
        seed: sub_seed(seed, 3),
    })
}

fn train_params(seed: u64) -> TrainParams {
    TrainParams { epochs: EPOCHS, batch_size: BATCH, lr: 3e-3, seed: sub_seed(seed, 4) }
}

/// Open the pack's training stream: returns the stream, the class count and
/// the number of training graphs it yields per epoch.
fn open(dir: &Path) -> Result<(ShardStream, usize, usize), String> {
    let meta = read_meta(dir).map_err(|e| e.to_string())?;
    let seq_ids = training_sequence_ids(meta.sequences.len(), TRAIN_SEQUENCES);
    let per_epoch = meta.regions.len() * seq_ids.len();
    let stream = open_stream(dir, &meta, &seq_ids).map_err(|e| e.to_string())?;
    Ok((stream, meta.chosen_configs.len(), per_epoch))
}

fn model_fingerprint(clf: &GnnClassifier) -> Result<String, String> {
    let json = serde_json::to_string(clf).map_err(|e| format!("{e:?}"))?;
    let mut h = DefaultHasher::new();
    json.hash(&mut h);
    Ok(format!("{:016x}", h.finish()))
}

/// One timed streamed fit (opening the stream included). The first rep
/// keeps its model for the in-memory comparison.
pub fn rep(seed: u64, work: &Path, first: bool) -> Result<Report, String> {
    let dir = work.join(PACK_DIR);
    let mut r = Report::default();
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let (mut stream, classes, per_epoch) = open(&dir)?;
    let mut clf = classifier(seed, classes);
    let history =
        clf.fit_streaming(&mut stream, train_params(seed), None).map_err(|e| e.to_string())?;
    drop(stream);
    r.metric("wall_s", secs(t0), "s");
    r.metric("cpu_s", cpu_seconds() - cpu0, "s");
    r.work(1, u64::from(!history.iter().all(|l| l.is_finite())));
    r.fingerprint = Some(model_fingerprint(&clf)?);
    if first {
        clf.save_json(&work.join(STREAM_MODEL)).map_err(|e| e.to_string())?;
    }
    r.note(format!(
        "train: {per_epoch} training graphs x {EPOCHS} epochs at hidden {HIDDEN}, final loss {:?}",
        history.last()
    ));
    Ok(r)
}

/// Output check, in its own process: an in-memory (`MemorySource`) fit of
/// the same pack and seed must give the streamed model's bytes.
pub fn check(seed: u64, work: &Path) -> Result<Report, String> {
    let dir = work.join(PACK_DIR);
    let mut r = Report::default();
    let (mut stream, classes, _) = open(&dir)?;
    let mut mem = MemorySource::from_source(&mut stream).map_err(|e| e.to_string())?;
    drop(stream);
    let mut clf = classifier(seed, classes);
    clf.fit_streaming(&mut mem, train_params(seed), None).map_err(|e| e.to_string())?;
    let mem_path = work.join("model-memory.json");
    clf.save_json(&mem_path).map_err(|e| e.to_string())?;
    let same = matches!(
        (std::fs::read(&mem_path), std::fs::read(work.join(STREAM_MODEL))),
        (Ok(a), Ok(b)) if a == b
    );
    r.check("train.streamed_model_equals_in_memory_fit", same, "");
    Ok(r)
}

/// A `ShardSource` wrapper that spans every call into the loader (the
/// time the training loop waits on it) and counts what it reads: file
/// bytes and records of each delivered shard (from the manifest) and the
/// graphs kept.
struct TracedSource {
    inner: ShardStream,
    entries: Vec<(u64, usize)>,
    bytes: u64,
    decoded: usize,
    kept: usize,
}

impl TracedSource {
    fn new(inner: ShardStream, manifest: &ShardManifest) -> TracedSource {
        let entries = manifest.entries.iter().map(|e| (e.bytes, e.records)).collect();
        TracedSource { inner, entries, bytes: 0, decoded: 0, kept: 0 }
    }
}

impl ShardSource for TracedSource {
    fn num_shards(&self) -> usize {
        self.inner.num_shards()
    }

    fn begin_epoch(&mut self, order: &[usize]) {
        let _s = trace::span("loader.wait");
        self.inner.begin_epoch(order)
    }

    fn next_shard(&mut self) -> io::Result<ShardBatch> {
        let batch = {
            let _s = trace::span("loader.wait");
            self.inner.next_shard()?
        };
        if let Some(&(bytes, records)) = self.entries.get(batch.shard) {
            self.bytes += bytes;
            self.decoded += records;
        }
        self.kept += batch.len();
        Ok(batch)
    }

    fn recycle(&mut self, batch: ShardBatch) {
        let _s = trace::span("loader.wait");
        self.inner.recycle(batch)
    }
}

/// The traced run: the same streamed fit, through the spanned source, with
/// the program's spans captured (its model must equal the timed reps').
pub fn traced(seed: u64, work: &Path, wall_s: f64) -> Result<Report, String> {
    let dir = &work.join(PACK_DIR);
    let mut r = Report::default();
    let manifest = ShardManifest::load(dir).map_err(|e| e.to_string())?;
    let capture = trace::start();
    let (stream, classes, _) = open(dir)?;
    let mut src = TracedSource::new(stream, &manifest);
    let mut clf = classifier(seed, classes);
    let history =
        clf.fit_streaming(&mut src, train_params(seed), None).map_err(|e| e.to_string())?;
    let (bytes, decoded, kept) = (src.bytes, src.decoded, src.kept);
    drop(src);
    let t = capture.finish()?;

    r.fingerprint = Some(model_fingerprint(&clf)?);
    r.work(1, u64::from(!history.iter().all(|l| l.is_finite())));
    t.report(&mut r);
    r.metric("trace_overhead", t.wall_s() / wall_s, "ratio");
    // Decoding runs on the loader's prefetch thread, off the training
    // thread's critical path: its total busy time.
    r.metric("loader.decode_s", t.inclusive_s("loader.decode", None), "s");
    r.metric("loader.bytes_read", bytes as f64, "bytes");
    r.metric("loader.useful_frac", kept as f64 / decoded.max(1) as f64, "ratio");
    Ok(r)
}
