//! `corpus`: build a packed dataset with
//! `irnuma_core::dataset_pack::build_packed_dataset` (steps A–C plus shard
//! writes) at a wide flag-sequence count. The only workload where passes,
//! region extraction, graph build, the simulator sweep and shard writes do
//! most of the work.

use crate::trace;
use crate::util::{cpu_seconds, secs, sub_seed};
use crate::Report;
use irnuma_core::dataset::{BuildOptions, DatasetParams};
use irnuma_core::dataset_pack::{build_packed_dataset, read_meta};
use irnuma_nn::decode_graph;
use irnuma_nn::stream::{GRAPH_SHARD_KIND, RECORD_PREFIX};
use irnuma_sim::{default_config, sweep_region, Config, Machine, MicroArch};
use irnuma_store::shard::{parse_shard, ShardManifest};
use irnuma_workloads::all_regions;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::time::Instant;

const ARCH: MicroArch = MicroArch::Skylake;
/// Regions per shard, as `irnuma dataset --pack` defaults.
const SHARD_REGIONS: usize = 8;
const PACK_DIR: &str = "corpus-pack";
const TRACED_DIR: &str = "corpus-pack-traced";

fn params(seed: u64) -> DatasetParams {
    DatasetParams { num_sequences: 400, calls: 10, seed: sub_seed(seed, 1), ..Default::default() }
}

/// Set-up: a small warm-up pack (same code path, 8 sequences) so the
/// measured process starts from a warm page cache and a checked build.
pub fn setup(seed: u64, work: &Path) -> Result<(), String> {
    let dir = work.join("corpus-warmup");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let p = DatasetParams { num_sequences: 8, calls: 2, ..params(seed) };
    build_packed_dataset(ARCH, &p, &BuildOptions::default(), &dir, SHARD_REGIONS)
        .map(|_| ())
        .map_err(|e| e.to_string())
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())
}

/// One timed `build_packed_dataset` into an empty directory.
pub fn rep(seed: u64, work: &Path) -> Result<Report, String> {
    let p = params(seed);
    let dir = work.join(PACK_DIR);
    fresh_dir(&dir)?;
    let mut r = Report::default();
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let built = build_packed_dataset(ARCH, &p, &BuildOptions::default(), &dir, SHARD_REGIONS)
        .map_err(|e| e.to_string())?;
    r.metric("wall_s", secs(t0), "s");
    r.metric("cpu_s", cpu_seconds() - cpu0, "s");
    r.work(all_regions().len() as u64, built.skips.len() as u64);
    r.fingerprint = Some(dir_fingerprint(&dir)?);
    r.note(format!(
        "corpus: {} regions, {} graphs, {} shards, label coverage {}",
        built.regions, built.graphs, built.shards, built.label_coverage
    ));
    Ok(r)
}

/// Hash of every file (name and bytes) in a pack directory.
fn dir_fingerprint(dir: &Path) -> Result<String, String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map_err(|e| e.to_string())?
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    let mut h = DefaultHasher::new();
    for name in names {
        name.hash(&mut h);
        std::fs::read(dir.join(&name)).map_err(|e| e.to_string())?.hash(&mut h);
    }
    Ok(format!("{:016x}", h.finish()))
}

/// Visit every record of a pack's graph shards as `(region, sequence,
/// encoded graph)`.
fn for_each_record(
    dir: &Path,
    manifest: &ShardManifest,
    mut f: impl FnMut(u32, u32, &[u8]),
) -> Result<(), String> {
    for e in &manifest.entries {
        let bytes = std::fs::read(dir.join(&e.file)).map_err(|e| e.to_string())?;
        for range in parse_shard(GRAPH_SHARD_KIND, &bytes).map_err(|e| e.to_string())? {
            let rec = &bytes[range];
            let region = u32::from_le_bytes(rec[0..4].try_into().unwrap());
            let seq = u32::from_le_bytes(rec[4..8].try_into().unwrap());
            f(region, seq, &rec[RECORD_PREFIX..]);
        }
    }
    Ok(())
}

/// Output checks, in their own process: the manifest verifies, and the
/// shards decode to exactly one record per (surviving region, sequence).
pub fn check(work: &Path) -> Result<Report, String> {
    let dir = work.join(PACK_DIR);
    let mut r = Report::default();
    let manifest = ShardManifest::load(&dir).map_err(|e| e.to_string())?;
    let verified = manifest.verify(&dir);
    r.check("corpus.manifest_verifies", verified.is_ok(), format!("{:?}", verified.err()));
    let meta = read_meta(&dir).map_err(|e| e.to_string())?;
    let (regions, seqs) = (meta.regions.len(), meta.sequences.len());
    let mut seen: HashSet<(u32, u32)> = HashSet::new();
    let mut decoded = 0usize;
    let mut bad = 0usize;
    for_each_record(&dir, &manifest, |region, seq, graph| {
        let ok = decode_graph(graph).is_ok()
            && (region as usize) < regions
            && (seq as usize) < seqs
            && seen.insert((region, seq));
        decoded += 1;
        bad += usize::from(!ok);
    })?;
    r.check(
        "corpus.records_equal_regions_x_sequences",
        decoded == regions * seqs && bad == 0,
        format!("{decoded} records decoded, {regions} regions x {seqs} sequences, {bad} bad"),
    );
    Ok(r)
}

/// The traced run: the same `build_packed_dataset` call with the program's
/// spans captured, writing a second pack whose fingerprint must equal the
/// timed reps'. Counts come from the spans and the pack; the layers the
/// build calls without a span of their own (module construction, the
/// simulator sweep, label reduction) are timed by probes afterwards.
pub fn traced(seed: u64, work: &Path, wall_s: f64) -> Result<Report, String> {
    let p = &params(seed);
    let dir = &work.join(TRACED_DIR);
    let mut r = Report::default();
    fresh_dir(dir)?;
    let capture = trace::start();
    let built = build_packed_dataset(ARCH, p, &BuildOptions::default(), dir, SHARD_REGIONS)
        .map_err(|e| e.to_string())?;
    let t = capture.finish()?;
    r.fingerprint = Some(dir_fingerprint(dir)?);
    t.report(&mut r);
    r.metric("trace_overhead", t.wall_s() / wall_s, "ratio");
    r.metric("passes.calls", t.named("passes.run").count() as f64, "count");

    // What the build wrote: bytes, graph sizes and how many of a region's
    // graphs are distinct.
    let mut written = 0u64;
    for entry in std::fs::read_dir(dir).map_err(|e| e.to_string())?.flatten() {
        written += entry.metadata().map(|m| m.len()).unwrap_or(0);
    }
    r.metric("store.bytes_written", written as f64, "bytes");
    let manifest = ShardManifest::load(dir).map_err(|e| e.to_string())?;
    let mut nodes = 0u64;
    let mut distinct: Vec<HashSet<u64>> = vec![HashSet::new(); built.regions];
    for_each_record(dir, &manifest, |region, _, graph| {
        nodes += decode_graph(graph).map_or(0, |g| g.node_text.len() as u64);
        let mut h = DefaultHasher::new();
        graph.hash(&mut h);
        if let Some(set) = distinct.get_mut(region as usize) {
            set.insert(h.finish());
        }
    })?;
    let per_region = p.num_sequences.max(1) as f64;
    let unique = distinct.iter().map(|d| d.len() as f64 / per_region).sum::<f64>()
        / built.regions.max(1) as f64;
    r.metric("graph.nodes", nodes as f64, "count");
    r.metric("graph.unique_frac", unique, "ratio");
    let _ = std::fs::remove_dir_all(dir);

    // Probes, on the same regions and parameters as the build.
    let specs = all_regions();
    let t0 = Instant::now();
    for spec in &specs {
        std::hint::black_box(spec.module());
    }
    r.metric("workloads.module_s", secs(t0), "s");
    let machine = Machine::new(ARCH);
    let def = default_config(&machine);
    let t0 = Instant::now();
    let sweeps: Vec<Vec<(Config, f64)>> =
        specs.iter().map(|spec| sweep_region(spec, &machine, p.size, p.calls)).collect();
    r.metric("sim.sweep_s", secs(t0), "s");
    r.metric("sim.calls", sweeps.iter().map(Vec::len).sum::<usize>() as f64, "count");
    let times: Vec<Vec<f64>> = sweeps.iter().map(|s| s.iter().map(|(_, t)| *t).collect()).collect();
    let base: Vec<f64> = sweeps
        .iter()
        .map(|s| s.iter().find(|(c, _)| *c == def).map_or(f64::NAN, |(_, t)| *t))
        .collect();
    let t0 = Instant::now();
    let chosen = irnuma_ml::reduce_labels(&times, &base, p.num_labels);
    std::hint::black_box(irnuma_ml::labels::label_per_region(&times, &chosen));
    r.metric("ml.reduce_labels_s", secs(t0), "s");
    Ok(r)
}
