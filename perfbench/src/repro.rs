//! `repro`: the paper's cross-validated pipeline
//! (`irnuma_core::evaluation::evaluate_on`) on Skylake at the smoke scale
//! of `irnuma_bench::smoke_config` (6 flag sequences, 4 folds, hidden 16,
//! default hybrid and flag GAs). The dataset is built in set-up.

use crate::trace;
use crate::util::{cpu_seconds, secs, sub_seed};
use crate::Report;
use irnuma_core::dataset::{build_dataset_report, BuildOptions, Dataset, DatasetParams};
use irnuma_core::evaluation::{evaluate_on, PipelineConfig, RegionOutcome};
use irnuma_core::models::hybrid::inner_cv_needs_labels;
use irnuma_core::models::static_gnn::StaticParams;
use irnuma_ml::{DecisionTree, TreeParams};
use irnuma_sim::MicroArch;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::time::Instant;

const DATASET_FILE: &str = "repro-dataset.json";

/// The smoke-scale pipeline, pinned here (same values as
/// `irnuma_bench::smoke_config`) so the workload cannot drift with the
/// presets; the seed drives flag sampling, the fold split and training.
fn config(seed: u64) -> PipelineConfig {
    PipelineConfig {
        arch: MicroArch::Skylake,
        dataset: DatasetParams {
            num_sequences: 6,
            calls: 3,
            seed: sub_seed(seed, 1),
            ..Default::default()
        },
        folds: 4,
        static_params: StaticParams {
            hidden: 16,
            epochs: 6,
            train_sequences: 3,
            seed: sub_seed(seed, 3),
            ..Default::default()
        },
        seed: sub_seed(seed, 2),
        ..Default::default()
    }
}

pub fn setup(seed: u64, work: &Path) -> Result<(), String> {
    let cfg = config(seed);
    let build = build_dataset_report(cfg.arch, &cfg.dataset, &BuildOptions::default())
        .map_err(|e| e.to_string())?;
    if !build.skips.is_empty() {
        return Err(format!("{} regions skipped while building the dataset", build.skips.len()));
    }
    build.dataset.save_json(&work.join(DATASET_FILE)).map_err(|e| e.to_string())
}

/// Hash of everything an evaluation decided, bit for bit.
fn fingerprint(outcomes: &[RegionOutcome]) -> String {
    let mut h = DefaultHasher::new();
    for o in outcomes {
        (o.region, o.fold, o.static_label, o.dynamic_label, o.hybrid_used_dynamic).hash(&mut h);
        (o.needs_profiling, o.predicted_seq).hash(&mut h);
        for t in [o.static_time, o.dynamic_time, o.hybrid_time, o.predicted_seq_time] {
            t.to_bits().hash(&mut h);
        }
    }
    format!("{:016x}", h.finish())
}

/// One timed `evaluate_on` and its output checks.
pub fn rep(seed: u64, work: &Path) -> Result<Report, String> {
    let cfg = config(seed);
    let ds = Dataset::load_json(&work.join(DATASET_FILE)).map_err(|e| e.to_string())?;
    let mut r = Report::default();
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let ev = evaluate_on(&cfg, ds).map_err(|e| format!("evaluate_on: {e:?}"))?;
    r.metric("wall_s", secs(t0), "s");
    r.metric("cpu_s", cpu_seconds() - cpu0, "s");
    r.fingerprint = Some(fingerprint(&ev.outcomes));

    let n = ev.dataset.regions.len();
    let mut seen = vec![0usize; n];
    for f in &ev.folds {
        for &v in &f.validation {
            seen[v] += 1;
        }
    }
    let once =
        seen.iter().all(|&c| c == 1) && ev.outcomes.iter().enumerate().all(|(i, o)| o.region == i);
    r.check("repro.each_region_validated_once", once, format!("{n} regions"));
    let coverage = ev.dataset.label_coverage();
    r.check("repro.label_coverage", coverage >= 0.99, format!("{coverage}"));
    let hybrid_ok = ev.outcomes.iter().all(|o| {
        o.hybrid_time.to_bits() == o.static_time.to_bits()
            || o.hybrid_time.to_bits() == o.dynamic_time.to_bits()
    });
    r.check("repro.hybrid_time_is_static_or_dynamic", hybrid_ok, "");
    // Every region of the catalog should survive set-up and be validated.
    let total = irnuma_workloads::all_regions().len() as u64;
    r.work(total, total - n as u64);

    let (s, d) = (ev.static_speedup(), ev.dynamic_speedup());
    r.metric("static_speedup", s, "x");
    r.metric("hybrid_speedup", ev.hybrid_speedup(), "x");
    r.metric("dynamic_speedup", d, "x");
    r.metric("static_gain_ratio", (s - 1.0) / (d - 1.0), "ratio");
    r.metric("profiled_fraction", ev.profiled_fraction(), "ratio");
    r.metric("router_accuracy", ev.route_accuracy(), "ratio");
    Ok(r)
}

/// The traced run: the same `evaluate_on` call with the program's spans
/// captured (its fingerprint must equal the timed reps'), then one probe
/// the program has no span for: a router-shaped `DecisionTree::fit`.
pub fn traced(seed: u64, work: &Path, wall_s: f64) -> Result<Report, String> {
    let cfg = config(seed);
    let ds = Dataset::load_json(&work.join(DATASET_FILE)).map_err(|e| e.to_string())?;
    let mut r = Report::default();
    let capture = trace::start();
    let ev = evaluate_on(&cfg, ds).map_err(|e| format!("evaluate_on: {e:?}"))?;
    let t = capture.finish()?;
    r.fingerprint = Some(fingerprint(&ev.outcomes));
    t.report(&mut r);
    r.metric("trace_overhead", t.wall_s() / wall_s, "ratio");
    // The inner cross-validation that labels the router's training set
    // runs as the static models trained inside `HybridModel::train`.
    let inner_cv = t.inclusive_s("model.static.train", Some("model.hybrid.train"));
    let hybrid = t.inclusive_s("model.hybrid.train", None);
    r.metric("models.inner_cv_s", inner_cv, "s");
    r.metric("models.inner_cv_share", inner_cv / hybrid.max(1e-12), "ratio");

    // Probe: one router-shaped tree fit (training regions x the GA's
    // feature subset, depth 2) on the first fold's inner-CV features,
    // repeated for a stable per-fit time.
    let ds = &ev.dataset;
    let train = irnuma_ml::cv::train_indices(
        &irnuma_ml::kfold(ds.regions.len(), cfg.folds, cfg.seed).map_err(|e| format!("{e:?}"))?,
        0,
    );
    let inner =
        StaticParams { epochs: (cfg.static_params.epochs * 2 / 3).max(3), ..cfg.static_params };
    let (feats, y) = inner_cv_needs_labels(
        ds,
        &train,
        cfg.hybrid.error_threshold,
        cfg.hybrid.inner_folds,
        inner,
    );
    let k = cfg.hybrid.feature_subset.min(feats[0].len());
    let xs: Vec<Vec<f32>> = feats.iter().map(|e| e[..k].to_vec()).collect();
    let tree_params = TreeParams { max_depth: Some(2), ..Default::default() };
    let reps = 200;
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(DecisionTree::fit(&xs, &y, tree_params));
    }
    r.metric("ml.tree_fit_us", secs(t0) * 1e6 / reps as f64, "us");
    Ok(r)
}
