//! Dataset construction: steps A (flag augmentation), B (region graphs) and
//! C (configuration sweep + label reduction) of the paper's workflow.
//!
//! Construction is fault-isolated: a failing (region, sequence) pair or a
//! panicking sweep no longer aborts the whole build. Failures are retried
//! once (transient I/O), then recorded as [`SkipRecord`]s — surfaced via the
//! `dataset.skipped`/`dataset.retried` counters and the returned
//! [`DatasetBuild`] — while every other region survives. `--strict`
//! ([`BuildOptions::strict`]) restores fail-fast behavior.

use irnuma_graph::{build_module_graph, Vocab};
use irnuma_ir::extract::extract_region;
use irnuma_nn::GraphData;
use irnuma_passes::{sample_sequences, FlagSequence, PassMemo, ResolvedSequence, SampleParams};
use irnuma_sim::{config_space, default_config, simulate, Config, Machine, MicroArch};
use irnuma_workloads::{all_regions, InputSize, RegionSpec};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Dataset-construction knobs.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DatasetParams {
    /// Flag sequences sampled for augmentation (the paper uses 1000).
    pub num_sequences: usize,
    /// Sampled calls per configuration during the sweep (paper: 10).
    pub calls: u32,
    /// Label-set size (13 by default, as in the paper; 6 and 2 in Fig. 6).
    pub num_labels: usize,
    pub size: InputSize,
    pub seed: u64,
}

impl Default for DatasetParams {
    fn default() -> Self {
        DatasetParams {
            num_sequences: 48,
            calls: 6,
            num_labels: 13,
            size: InputSize::Size1,
            seed: 42,
        }
    }
}

/// Everything known about one region after steps A–C.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegionData {
    pub spec: RegionSpec,
    /// One graph per flag sequence (aligned with [`Dataset::sequences`]).
    pub graphs: Vec<GraphData>,
    /// Mean execution time per configuration, in [`Dataset::configs`] order.
    pub sweep: Vec<f64>,
    /// Time under the machine default (the speedup baseline).
    pub default_time: f64,
    /// Dynamic features at the default configuration: the counter vector
    /// the dynamic baseline trains on (package power, L3 miss ratio).
    pub dynamic_features: Vec<f32>,
}

impl RegionData {
    /// Best time over the full space (the "full exploration" bar).
    pub fn full_best_time(&self) -> f64 {
        self.sweep.iter().cloned().fold(f64::INFINITY, f64::min)
    }
}

/// The complete experiment dataset for one machine.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dataset {
    pub machine: Machine,
    pub size: InputSize,
    pub sequences: Vec<FlagSequence>,
    pub configs: Vec<Config>,
    pub regions: Vec<RegionData>,
    /// Indices (into `configs`) of the reduced label set, selection order.
    pub chosen_configs: Vec<usize>,
    /// Per-region class label: index into `chosen_configs`.
    pub labels: Vec<usize>,
}

impl Dataset {
    /// Export the resident dataset as one JSON document (atomic, versioned,
    /// checksummed). The on-disk dataset format is the pack
    /// ([`crate::dataset_pack`]); this is the library-level export.
    pub fn save_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        irnuma_store::save_json(path, "dataset", self)
    }

    /// Load a dataset exported with [`Dataset::save_json`]. A truncated or
    /// corrupt file fails with [`std::io::ErrorKind::InvalidData`] instead
    /// of parsing into a garbage dataset.
    pub fn load_json(path: &std::path::Path) -> std::io::Result<Dataset> {
        irnuma_store::load_json(path, "dataset")
    }

    /// Time of `region` under label class `label`.
    pub fn label_time(&self, region: usize, label: usize) -> f64 {
        self.regions[region].sweep[self.chosen_configs[label]]
    }

    /// Best achievable time restricted to the label set (the "oracle" the
    /// classifiers are scored against).
    pub fn oracle_time(&self, region: usize) -> f64 {
        self.label_time(region, self.labels[region])
    }

    /// Fraction of full-space gains the label set retains (paper: ≥99% for
    /// the 13-label set).
    pub fn label_coverage(&self) -> f64 {
        let times: Vec<Vec<f64>> = self.regions.iter().map(|r| r.sweep.clone()).collect();
        let base: Vec<f64> = self.regions.iter().map(|r| r.default_time).collect();
        irnuma_ml::coverage(&times, &base, &self.chosen_configs)
    }
}

/// One recorded per-region failure from a tolerant dataset build.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SkipRecord {
    pub region: String,
    /// Flag-sequence id at the point of failure (pass/extract stages).
    pub sequence: Option<u32>,
    /// Pipeline stage that failed: `passes`, `extract`, `sweep`, `panic`,
    /// or `injected` (the `--fault` test hook).
    pub stage: String,
    pub error: String,
    /// Attempts made before giving up (2 = failed, retried once, failed).
    pub attempts: u32,
}

impl fmt::Display for SkipRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}", self.region, self.stage)?;
        if let Some(s) = self.sequence {
            write!(f, " × seq{s}")?;
        }
        write!(f, ", {} attempts]: {}", self.attempts, self.error)
    }
}

/// A tolerant build's result: the surviving dataset plus what was skipped.
#[derive(Debug, Clone)]
pub struct DatasetBuild {
    pub dataset: Dataset,
    /// One record per dropped region (empty on a fully clean build).
    pub skips: Vec<SkipRecord>,
}

/// Why a dataset build produced no dataset.
#[derive(Debug, Clone)]
pub enum DatasetError {
    /// Strict mode: the first region failure, reported fail-fast.
    RegionFailed(SkipRecord),
    /// Tolerant mode, but nothing survived to train on.
    NoRegionsSurvived { total: usize, skips: Vec<SkipRecord> },
    /// A packed build could not write its shards/manifest.
    Io(String),
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::RegionFailed(s) => write!(f, "region failed (strict mode): {s}"),
            DatasetError::NoRegionsSurvived { total, skips } => {
                write!(f, "all {total} regions failed; first: ")?;
                match skips.first() {
                    Some(s) => write!(f, "{s}"),
                    None => write!(f, "<none recorded>"),
                }
            }
            DatasetError::Io(e) => write!(f, "dataset pack I/O failed: {e}"),
        }
    }
}

impl std::error::Error for DatasetError {}

impl From<std::io::Error> for DatasetError {
    fn from(e: std::io::Error) -> DatasetError {
        DatasetError::Io(e.to_string())
    }
}

/// Build behavior orthogonal to the (persisted, `Copy`) [`DatasetParams`].
#[derive(Debug, Clone, Default)]
pub struct BuildOptions {
    /// Fail fast on the first region error instead of recording a skip.
    pub strict: bool,
    /// Fault-injection test hook: `"<region>"` makes that region fail every
    /// attempt (a persistent fault); `"<region>:once"` fails only the first
    /// attempt (a transient fault, recovered by the retry).
    pub fault: Option<String>,
}

/// A per-region build failure (internal; becomes a [`SkipRecord`]).
struct RegionError {
    stage: &'static str,
    sequence: Option<u32>,
    error: String,
}

/// Build the dataset for a machine (steps A–C). Deterministic in
/// `params.seed`. Parallelized over regions.
///
/// Convenience wrapper over [`build_dataset_report`]: tolerant of per-region
/// failures (skips are logged and counted, the dataset is built from the
/// survivors) and panics only if *no* region survives.
pub fn build_dataset(arch: MicroArch, params: &DatasetParams) -> Dataset {
    match build_dataset_report(arch, params, &BuildOptions::default()) {
        Ok(build) => {
            for s in &build.skips {
                irnuma_obs::warn!("dataset build skipped {s}");
            }
            build.dataset
        }
        Err(e) => panic!("dataset build produced nothing usable: {e}"),
    }
}

/// Build the dataset with explicit failure handling: per-region errors
/// (pass pipeline, region extraction, sweep panics) are caught, retried
/// once, and — still failing — recorded as [`SkipRecord`]s while the other
/// regions proceed. With [`BuildOptions::strict`] the first failure aborts
/// the build instead.
pub fn build_dataset_report(
    arch: MicroArch,
    params: &DatasetParams,
    opts: &BuildOptions,
) -> Result<DatasetBuild, DatasetError> {
    // All regions are one parallel group, held resident.
    let mut regions = Vec::new();
    let run = build_regions(
        arch,
        params,
        opts,
        usize::MAX,
        |_, g| g.expand(),
        |group| {
            regions.extend(group.into_iter().map(|(r, graphs)| RegionData { graphs, ..r }));
            Ok(())
        },
    )?;
    Ok(DatasetBuild { dataset: Dataset { regions, ..run.dataset }, skips: run.skips })
}

/// What [`build_regions`] knows once every region has built.
pub(crate) struct RegionRun {
    /// The dataset minus its regions (those went to the sink).
    pub dataset: Dataset,
    pub skips: Vec<SkipRecord>,
    /// The `dataset.build` span, open until the caller drops the run, so
    /// whatever it writes afterwards counts as part of the build.
    pub _span: irnuma_obs::SpanGuard,
}

/// One region's steps A and B: each distinct graph once, and which one every
/// flag sequence produced.
pub(crate) struct RegionGraphs {
    /// Distinct graphs, in the order sequences first produced them.
    pub distinct: Vec<GraphData>,
    /// Index into `distinct` per flag sequence, in sequence order.
    pub of_seq: Vec<u32>,
    /// Module states the pass memo reached, and passes it ran.
    states: usize,
    pass_runs: usize,
}

impl RegionGraphs {
    /// One graph per sequence, as [`RegionData::graphs`] holds them.
    fn expand(self) -> Vec<GraphData> {
        self.of_seq.iter().map(|&i| self.distinct[i as usize].clone()).collect()
    }
}

/// Steps A–C over every region, `group` regions at a time. Regions within a
/// group build in parallel, each fault-isolated ([`build_region_tolerant`]);
/// each survivor's graphs go through `emit` on its worker, given the
/// region's index in the dataset assuming no earlier region of its group is
/// skipped. A group's survivors then go to `sink` in region order, as
/// `(region without graphs, emitted graphs)`, while the next group builds,
/// so the caller decides how much stays resident (about two groups).
/// Failures become [`SkipRecord`]s counted under `dataset.skipped`, or —
/// strict — abort the build. Step C then reduces the survivors' sweeps to
/// the label set.
pub(crate) fn build_regions<T: Send>(
    arch: MicroArch,
    params: &DatasetParams,
    opts: &BuildOptions,
    group: usize,
    emit: impl Fn(u32, RegionGraphs) -> T + Sync,
    mut sink: impl FnMut(Vec<(RegionData, T)>) -> Result<(), DatasetError>,
) -> Result<RegionRun, DatasetError> {
    let machine = Machine::new(arch);
    let configs = config_space(&machine);
    let sequences = sample_sequences(params.num_sequences, params.seed, SampleParams::default());
    let resolved: Vec<ResolvedSequence> =
        sequences.iter().map(|s| ResolvedSequence::new(&s.passes)).collect();
    let vocab = Vocab::full();
    let specs = all_regions();
    let total = specs.len();

    let span = irnuma_obs::span!(
        "dataset.build",
        regions = total,
        sequences = sequences.len(),
        configs = configs.len()
    );
    let ctx = span.ctx();
    let mut times: Vec<Vec<f64>> = Vec::with_capacity(total);
    let mut base: Vec<f64> = Vec::with_capacity(total);
    let mut skips = Vec::new();
    let steps = Steps {
        machine: &machine,
        configs: &configs,
        sequences: &sequences,
        resolved: &resolved,
        vocab: &vocab,
        params,
    };
    // Survivors of the last group built, not yet handed to `sink`.
    let mut pending = None;
    for chunk in specs.chunks(group.max(1)) {
        let first = times.len();
        let build = || {
            chunk
                .par_iter()
                .enumerate()
                .map(|(i, spec)| {
                    let (r, graphs) = build_region_tolerant(spec, &steps, opts, ctx)?;
                    Ok((r, emit((first + i) as u32, graphs)))
                })
                .collect::<Vec<Result<(RegionData, T), SkipRecord>>>()
        };
        // The previous group's sink (a pack's shard checksum and write) runs
        // while this group builds.
        let (results, sunk) = std::thread::scope(|s| {
            let built = s.spawn(build);
            let sunk = pending.take().map_or(Ok(()), &mut sink);
            (built.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)), sunk)
        });
        sunk?;
        let mut survivors = Vec::with_capacity(results.len());
        for res in results {
            match res {
                Ok(r) => {
                    times.push(r.0.sweep.clone());
                    base.push(r.0.default_time);
                    survivors.push(r);
                }
                Err(skip) => {
                    if opts.strict {
                        return Err(DatasetError::RegionFailed(skip));
                    }
                    irnuma_obs::counter!("dataset.skipped").inc(1);
                    skips.push(skip);
                }
            }
        }
        pending = Some(survivors);
    }
    if let Some(last) = pending {
        sink(last)?;
    }
    if times.is_empty() {
        return Err(DatasetError::NoRegionsSurvived { total, skips });
    }

    // Step C: reduce the space to `num_labels` representative configs.
    let chosen_configs = irnuma_ml::reduce_labels(&times, &base, params.num_labels);
    let labels = irnuma_ml::labels::label_per_region(&times, &chosen_configs);
    let dataset = Dataset {
        machine,
        size: params.size,
        sequences,
        configs,
        regions: Vec::new(),
        chosen_configs,
        labels,
    };
    Ok(RegionRun { dataset, skips, _span: span })
}

/// What every region's build shares: the machine, its configuration space,
/// the flag sequences (also resolved against the pass registry once) and
/// the graph vocabulary.
struct Steps<'a> {
    machine: &'a Machine,
    configs: &'a [Config],
    sequences: &'a [FlagSequence],
    resolved: &'a [ResolvedSequence],
    vocab: &'a Vocab,
    params: &'a DatasetParams,
}

/// Fault-isolated build of one region: a span under `ctx`, a
/// [`catch_unwind`] around every stage, and one retry before the failure is
/// condensed into a [`SkipRecord`].
fn build_region_tolerant(
    spec: &RegionSpec,
    steps: &Steps,
    opts: &BuildOptions,
    ctx: irnuma_obs::TraceContext,
) -> Result<(RegionData, RegionGraphs), SkipRecord> {
    let mut region_span =
        irnuma_obs::span_under!(ctx, "dataset.region", region = spec.name.as_str());
    let run = |attempt: u32| {
        catch_unwind(AssertUnwindSafe(|| {
            build_region(spec, steps, {
                opts.fault.as_deref().filter(|f| fault_hits(f, &spec.name, attempt))
            })
        }))
        .unwrap_or_else(|payload| {
            Err(RegionError { stage: "panic", sequence: None, error: panic_msg(&payload) })
        })
    };
    let (region, graphs) = run(0).or_else(|first| {
        // One retry covers transient failures (I/O hiccups, the `:once`
        // injected fault); a deterministic error repeats.
        irnuma_obs::counter!("dataset.retried").inc(1);
        irnuma_obs::warn!(
            "{}: attempt 1 failed at {} ({}); retrying once",
            spec.name,
            first.stage,
            first.error
        );
        run(1).map_err(|e| SkipRecord {
            region: spec.name.clone(),
            sequence: e.sequence,
            stage: e.stage.to_string(),
            error: e.error,
            attempts: 2,
        })
    })?;
    region_span.field("states", graphs.states);
    region_span.field("pass_runs", graphs.pass_runs);
    region_span.field("distinct_graphs", graphs.distinct.len());
    Ok((region, graphs))
}

/// Does the `--fault` spec hit `region` on this attempt?
fn fault_hits(spec: &str, region: &str, attempt: u32) -> bool {
    match spec.strip_suffix(":once") {
        Some(name) => name == region && attempt == 0,
        None => spec == region,
    }
}

fn panic_msg(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "region build panicked".to_string())
}

fn build_region(
    spec: &RegionSpec,
    steps: &Steps,
    injected_fault: Option<&str>,
) -> Result<(RegionData, RegionGraphs), RegionError> {
    if injected_fault.is_some() {
        return Err(RegionError {
            stage: "injected",
            sequence: None,
            error: "injected fault (--fault test hook)".to_string(),
        });
    }
    let (machine, configs, params) = (steps.machine, steps.configs, steps.params);
    let graphs = region_graphs(spec, steps.sequences, steps.resolved, steps.vocab)?;

    // Step C (per-region part): the sweep with default compile flags. A
    // panicking configuration fails just this region, not the whole build.
    let sweep_span = irnuma_obs::span!("dataset.sweep", configs = configs.len());
    let sweep: Vec<f64> = configs
        .iter()
        .map(|c| {
            irnuma_sim::try_mean_time(spec, machine, c, params.size, params.calls)
                .map_err(|e| RegionError { stage: "sweep", sequence: None, error: e })
        })
        .collect::<Result<_, _>>()?;
    drop(sweep_span);

    let def = default_config(machine);
    let def_idx = configs.iter().position(|c| *c == def).ok_or_else(|| RegionError {
        stage: "sweep",
        sequence: None,
        error: "default configuration missing from the space".to_string(),
    })?;
    let default_time = sweep[def_idx];
    let meas = simulate(&spec.name, &spec.profile, machine, &def, params.size, 0);
    let dynamic_features =
        vec![meas.counters.package_power_w as f32, meas.counters.l3_miss_ratio as f32];

    let region = RegionData {
        spec: spec.clone(),
        graphs: Vec::new(),
        sweep,
        default_time,
        dynamic_features,
    };
    Ok((region, graphs))
}

/// Steps A+B for one region: every flag sequence through a [`PassMemo`],
/// so each distinct (module state, pass) pair runs once, then region
/// extraction and the graph once per distinct final state. Sequences are
/// walked in order, so the first failing sequence is the one reported, as
/// running each sequence on its own clone would.
fn region_graphs(
    spec: &RegionSpec,
    sequences: &[FlagSequence],
    resolved: &[ResolvedSequence],
    vocab: &Vocab,
) -> Result<RegionGraphs, RegionError> {
    let mut memo = PassMemo::new(spec.module());
    let region_fn = spec.region_fn();
    let mut graph_of_state = HashMap::new();
    let mut distinct = Vec::new();
    let mut of_seq = Vec::with_capacity(sequences.len());
    for (seq, resolved) in sequences.iter().zip(resolved) {
        let fail = |stage, error: String| RegionError { stage, sequence: Some(seq.id), error };
        let state = memo.run(resolved).map_err(|e| fail("passes", e.to_string()))?;
        let graph = match graph_of_state.get(&state) {
            Some(&g) => g,
            None => {
                let extracted = extract_region(&memo.compacted(state), &region_fn)
                    .map_err(|e| fail("extract", e.to_string()))?;
                distinct.push(GraphData::from_graph(&build_module_graph(&extracted, vocab)));
                let g = (distinct.len() - 1) as u32;
                graph_of_state.insert(state, g);
                g
            }
        };
        of_seq.push(graph);
    }
    irnuma_obs::counter!("passes.memo_hits").inc(memo.hits() as u64);
    Ok(RegionGraphs { distinct, of_seq, states: memo.states(), pass_runs: memo.pass_runs() })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> DatasetParams {
        DatasetParams { num_sequences: 3, calls: 2, num_labels: 5, ..Default::default() }
    }

    #[test]
    fn dataset_has_all_regions_and_shapes() {
        let ds = build_dataset(MicroArch::Skylake, &tiny());
        assert_eq!(ds.regions.len(), 56);
        assert_eq!(ds.configs.len(), 288);
        assert_eq!(ds.sequences.len(), 3);
        assert_eq!(ds.chosen_configs.len(), 5);
        assert_eq!(ds.labels.len(), 56);
        for r in &ds.regions {
            assert_eq!(r.graphs.len(), 3);
            assert_eq!(r.sweep.len(), 288);
            assert!(r.default_time > 0.0);
            assert_eq!(r.dynamic_features.len(), 2);
        }
    }

    #[test]
    fn labels_index_into_chosen_set_and_oracle_beats_default_mostly() {
        let ds = build_dataset(MicroArch::Skylake, &tiny());
        let mut wins = 0;
        for (i, &l) in ds.labels.iter().enumerate() {
            assert!(l < ds.chosen_configs.len());
            if ds.oracle_time(i) <= ds.regions[i].default_time {
                wins += 1;
            }
        }
        assert!(wins >= 50, "label-set oracle beats default on most regions: {wins}/56");
    }

    #[test]
    fn thirteen_labels_cover_99_percent_of_gains() {
        // The paper's property (§II-C): 13 configurations retain ~99% of
        // the gains of the full space.
        let params =
            DatasetParams { num_sequences: 2, calls: 3, num_labels: 13, ..Default::default() };
        for arch in [MicroArch::Skylake, MicroArch::SandyBridge] {
            let ds = build_dataset(arch, &params);
            let cov = ds.label_coverage();
            assert!(cov > 0.97, "{arch:?}: 13-label coverage {cov}");
        }
    }

    #[test]
    fn dataset_caches_to_json_and_back() {
        let ds = build_dataset(MicroArch::Skylake, &tiny());
        let dir = std::env::temp_dir().join("irnuma-test-cache");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ds.json");
        ds.save_json(&path).unwrap();
        let loaded = Dataset::load_json(&path).unwrap();
        assert_eq!(loaded.labels, ds.labels);
        assert_eq!(loaded.chosen_configs, ds.chosen_configs);
        assert_eq!(loaded.regions.len(), 56);
        assert_eq!(loaded.regions[3].sweep, ds.regions[3].sweep);
        assert_eq!(loaded.regions[3].graphs[0].node_text, ds.regions[3].graphs[0].node_text);

        // A truncated cache (torn write, partial download) must fail with
        // InvalidData — never parse into a garbage dataset.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 100]).unwrap();
        let err = Dataset::load_json(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    fn tinier() -> DatasetParams {
        DatasetParams { num_sequences: 2, calls: 2, num_labels: 3, ..Default::default() }
    }

    #[test]
    fn poisoned_region_is_skipped_and_the_rest_survive() {
        let opts = BuildOptions { fault: Some("cg.spmv".into()), ..Default::default() };
        let b = build_dataset_report(MicroArch::Skylake, &tinier(), &opts).unwrap();
        assert_eq!(b.dataset.regions.len(), 55, "exactly the poisoned region is gone");
        assert!(b.dataset.regions.iter().all(|r| r.spec.name != "cg.spmv"));
        assert_eq!(b.skips.len(), 1, "exactly one skip recorded");
        let s = &b.skips[0];
        assert_eq!((s.region.as_str(), s.stage.as_str(), s.attempts), ("cg.spmv", "injected", 2));
        assert_eq!(b.dataset.labels.len(), 55);
        assert!(b.skips[0].to_string().contains("cg.spmv"));
    }

    #[test]
    fn transient_fault_recovers_on_the_retry() {
        let opts = BuildOptions { fault: Some("cg.spmv:once".into()), ..Default::default() };
        let b = build_dataset_report(MicroArch::Skylake, &tinier(), &opts).unwrap();
        assert_eq!(b.dataset.regions.len(), 56, "transient failure retried, nothing lost");
        assert!(b.skips.is_empty());
    }

    #[test]
    fn strict_mode_fails_fast_on_a_poisoned_region() {
        let opts = BuildOptions { strict: true, fault: Some("cg.spmv".into()) };
        let err = build_dataset_report(MicroArch::Skylake, &tinier(), &opts).unwrap_err();
        assert!(err.to_string().contains("strict"), "{err}");
        match err {
            DatasetError::RegionFailed(s) => assert_eq!(s.region, "cg.spmv"),
            other => panic!("expected RegionFailed, got: {other}"),
        }
    }

    #[test]
    fn fault_spec_matching() {
        assert!(fault_hits("cg.spmv", "cg.spmv", 0));
        assert!(fault_hits("cg.spmv", "cg.spmv", 1));
        assert!(!fault_hits("cg.spmv", "cg.axpy", 0));
        assert!(fault_hits("cg.spmv:once", "cg.spmv", 0));
        assert!(!fault_hits("cg.spmv:once", "cg.spmv", 1));
    }

    /// The loop the memoized build replaced, kept as its oracle: every
    /// sequence on its own clone of the module through the whole pass list,
    /// then compaction, extraction and the graph.
    fn per_sequence_graphs(
        spec: &RegionSpec,
        sequences: &[FlagSequence],
        vocab: &Vocab,
    ) -> Result<Vec<GraphData>, RegionError> {
        let pm = irnuma_passes::PassManager::new(false);
        let base = spec.module();
        let mut graphs = Vec::with_capacity(sequences.len());
        for seq in sequences {
            let fail = |stage, error: String| RegionError { stage, sequence: Some(seq.id), error };
            let mut m = base.clone();
            pm.run(&mut m, &seq.passes).map_err(|e| fail("passes", e.to_string()))?;
            let extracted = extract_region(&m, &spec.region_fn())
                .map_err(|e| fail("extract", e.to_string()))?;
            graphs.push(GraphData::from_graph(&build_module_graph(&extracted, vocab)));
        }
        Ok(graphs)
    }

    fn assert_bitwise_equal(a: &GraphData, b: &GraphData, what: &str) {
        assert_eq!(a.node_text, b.node_text, "{what}: node_text");
        assert_eq!(a.edges, b.edges, "{what}: edges");
        let bits = |g: &GraphData| -> Vec<Vec<u32>> {
            g.norm.iter().map(|n| n.iter().map(|v| v.to_bits()).collect()).collect()
        };
        assert_eq!(bits(a), bits(b), "{what}: norm bits");
    }

    #[test]
    fn memoized_build_matches_the_per_sequence_oracle_bitwise() {
        let params =
            DatasetParams { num_sequences: 32, calls: 1, num_labels: 3, ..Default::default() };
        let vocab = Vocab::full();
        let builds: Vec<Dataset> = [MicroArch::Skylake, MicroArch::SandyBridge]
            .into_iter()
            .map(|arch| build_dataset_report(arch, &params, &BuildOptions::default()).unwrap())
            .map(|b| b.dataset)
            .collect();
        for (i, spec) in all_regions().iter().enumerate() {
            let oracle =
                per_sequence_graphs(spec, &builds[0].sequences, &vocab).unwrap_or_else(|e| {
                    panic!("{}: oracle failed at {}: {}", spec.name, e.stage, e.error)
                });
            for ds in &builds {
                let region = &ds.regions[i];
                assert_eq!(region.spec.name, spec.name);
                assert_eq!(region.graphs.len(), oracle.len());
                for (s, (g, o)) in region.graphs.iter().zip(&oracle).enumerate() {
                    let what = format!("{:?} {} seq {s}", ds.machine.arch, spec.name);
                    assert_bitwise_equal(g, o, &what);
                }
            }
        }
    }

    #[test]
    fn unknown_pass_fails_at_the_first_bad_sequence_like_the_oracle() {
        let mut sequences = sample_sequences(8, 3, SampleParams::default());
        sequences[6].passes.push("no-such-pass".into());
        sequences[5].passes.insert(1, "no-such-pass".into());
        let resolved: Vec<ResolvedSequence> =
            sequences.iter().map(|s| ResolvedSequence::new(&s.passes)).collect();
        let vocab = Vocab::full();
        let spec = &all_regions()[4];
        let err = region_graphs(spec, &sequences, &resolved, &vocab).err().unwrap();
        let want = per_sequence_graphs(spec, &sequences, &vocab).err().unwrap();
        assert_eq!((err.stage, err.sequence), ("passes", Some(5)));
        assert_eq!((err.stage, err.sequence, &err.error), (want.stage, want.sequence, &want.error));
        assert!(err.error.contains("no-such-pass"), "{}", err.error);
    }

    #[test]
    fn dataset_is_deterministic() {
        let a = build_dataset(MicroArch::Skylake, &tiny());
        let b = build_dataset(MicroArch::Skylake, &tiny());
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.chosen_configs, b.chosen_configs);
        assert_eq!(a.regions[7].sweep, b.regions[7].sweep);
        assert_eq!(a.regions[7].graphs[0].node_text, b.regions[7].graphs[0].node_text);
    }
}
