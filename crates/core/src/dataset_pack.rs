//! Packed (out-of-core) dataset storage: binary graph shards + JSON meta.
//!
//! A pack directory holds three kinds of files:
//!
//! - `shard-NNNN.bin` — `irnuma_store::shard` files of kind `graph-shard`;
//!   each record is `[u32 region][u32 sequence]` followed by one
//!   `irnuma_nn::binfmt` graph (CSR/CSC adjacency embedded, so streamed
//!   training never rebuilds it).
//! - `regions.bin` — one checksummed record per region with its float
//!   tables (config sweep, dynamic features, default time). These dominate
//!   the non-graph bytes of a dataset, so they live in the same binary
//!   record format as the graphs instead of bloating the JSON meta.
//! - `meta.json` — everything about the dataset *except* the graphs and
//!   the per-region float tables ([`PackedMeta`]): machine, sequences,
//!   configs, label set. Small, human-inspectable, store-framed.
//! - `manifest.json` — the shard list with whole-file checksums
//!   ([`irnuma_store::shard::ShardManifest`]). Written **last**, after every
//!   shard and the meta: an interrupted pack has no manifest and is simply
//!   not a pack, so the atomicity of the whole directory reduces to the
//!   atomicity of one `irnuma_store` write.
//!
//! [`build_packed_dataset`] runs the same region loop as the in-memory
//! build (per-region fault isolation, skips, label reduction) one group of
//! regions at a time: each region's worker encodes its distinct graphs once
//! and frames its records, and a group's shard is written while the next
//! group builds, so peak memory is bounded by the group size, not the
//! corpus. [`pack_dataset`] writes an already-resident [`Dataset`] through
//! the same pack writer.

use crate::dataset::{
    build_regions, BuildOptions, Dataset, DatasetError, DatasetParams, RegionData, RegionGraphs,
    SkipRecord,
};
use irnuma_nn::stream::{RecordMap, ShardStream, GRAPH_SHARD_KIND, RECORD_PREFIX};
use irnuma_nn::{decode_graph, encode_graph, GraphData};
use irnuma_passes::FlagSequence;
use irnuma_sim::{Config, Machine, MicroArch};
use irnuma_store::shard::{
    parse_shard, FramedRecords, ShardEntry, ShardManifest, ShardWriter, MANIFEST_FILE,
};
use irnuma_store::{corruption, invalid};
use irnuma_workloads::InputSize;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;

/// File name of the dataset meta inside a pack directory.
pub const META_FILE: &str = "meta.json";

/// File name of the per-region float tables inside a pack directory.
pub const REGIONS_FILE: &str = "regions.bin";

const META_KIND: &str = "dataset-meta";
const REGION_TABLE_KIND: &str = "region-tables";

/// One region's identity in the meta; its float tables (sweep, dynamic
/// features, default time) live as the matching record of `regions.bin`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PackedRegion {
    pub spec: irnuma_workloads::RegionSpec,
    /// Graphs this region contributed (one per flag sequence).
    pub graph_count: usize,
}

/// The pack's dataset-level state: a [`Dataset`] with graphs externalized
/// to the binary shards and the per-region float tables to `regions.bin`
/// (whose [`ShardEntry`] is carried here so loads can verify it).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PackedMeta {
    pub machine: Machine,
    pub size: InputSize,
    pub sequences: Vec<FlagSequence>,
    pub configs: Vec<Config>,
    pub regions: Vec<PackedRegion>,
    pub region_tables: ShardEntry,
    pub chosen_configs: Vec<usize>,
    pub labels: Vec<usize>,
}

impl PackedMeta {
    pub fn save(&self, dir: &Path) -> io::Result<()> {
        irnuma_store::save_json(&dir.join(META_FILE), META_KIND, self)
    }

    pub fn total_graphs(&self) -> usize {
        self.regions.iter().map(|r| r.graph_count).sum()
    }
}

/// Load a pack directory's meta (no graphs touched). A path without a
/// manifest — missing, a plain file, an empty or half-written directory —
/// is not a pack ([`io::ErrorKind::NotFound`], naming the path); a meta
/// listing no flag sequences has nothing to train on
/// ([`io::ErrorKind::InvalidData`]).
pub fn read_meta(dir: &Path) -> io::Result<PackedMeta> {
    if !ShardManifest::exists(dir) {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("`{}` is not a dataset pack (no {MANIFEST_FILE})", dir.display()),
        ));
    }
    let meta: PackedMeta = irnuma_store::load_json(&dir.join(META_FILE), META_KIND)?;
    if meta.sequences.is_empty() {
        return Err(invalid(format!("pack `{}` lists no flag sequences", dir.display())));
    }
    Ok(meta)
}

/// What [`pack_dataset`] wrote.
#[derive(Debug, Clone, Copy)]
pub struct PackSummary {
    pub shards: usize,
    pub graphs: usize,
    pub bytes: u64,
}

/// Encode one region's float tables as a `regions.bin` record:
/// `[u32 sweep_len][f64 sweep…][u32 dyn_len][f32 dyn…][f64 default_time]`,
/// all little-endian.
fn encode_region_tables(sweep: &[f64], dynamic: &[f32], default_time: f64, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&(sweep.len() as u32).to_le_bytes());
    for v in sweep {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.extend_from_slice(&(dynamic.len() as u32).to_le_bytes());
    for v in dynamic {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.extend_from_slice(&default_time.to_le_bytes());
}

/// One region's decoded float tables: `(sweep, dynamic_features,
/// default_time)`.
type RegionTables = (Vec<f64>, Vec<f32>, f64);

fn decode_region_tables(rec: &[u8]) -> io::Result<RegionTables> {
    fn take<'a>(rec: &'a [u8], at: &mut usize, n: usize) -> io::Result<&'a [u8]> {
        let end = at
            .checked_add(n)
            .filter(|&e| e <= rec.len())
            .ok_or_else(|| corruption("regions.bin record truncated".to_string()))?;
        let s = &rec[*at..end];
        *at = end;
        Ok(s)
    }
    let overflow = || corruption("regions.bin record length overflow".to_string());
    let mut at = 0usize;
    let sweep_len = u32::from_le_bytes(take(rec, &mut at, 4)?.try_into().unwrap()) as usize;
    let sweep = take(rec, &mut at, sweep_len.checked_mul(8).ok_or_else(overflow)?)?
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    let dyn_len = u32::from_le_bytes(take(rec, &mut at, 4)?.try_into().unwrap()) as usize;
    let dynamic = take(rec, &mut at, dyn_len.checked_mul(4).ok_or_else(overflow)?)?
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
        .collect();
    let default_time = f64::from_le_bytes(take(rec, &mut at, 8)?.try_into().unwrap());
    if at != rec.len() {
        return Err(invalid(format!("regions.bin record has {} trailing bytes", rec.len() - at)));
    }
    Ok((sweep, dynamic, default_time))
}

/// Read and verify `regions.bin` against its meta entry: structural length
/// gate, per-record checksums via [`parse_shard`], and an exact region
/// count match.
fn read_region_tables(
    dir: &Path,
    entry: &ShardEntry,
    expected: usize,
) -> io::Result<Vec<RegionTables>> {
    let bytes = std::fs::read(dir.join(&entry.file))
        .map_err(|e| io::Error::new(e.kind(), format!("reading `{}`: {e}", entry.file)))?;
    if bytes.len() as u64 != entry.bytes {
        return Err(corruption(format!(
            "`{}` is {} bytes, meta says {}",
            entry.file,
            bytes.len(),
            entry.bytes
        )));
    }
    entry.checksum()?; // reject malformed meta checksums up front
    let ranges = parse_shard(REGION_TABLE_KIND, &bytes)?;
    if ranges.len() != expected {
        return Err(invalid(format!(
            "`{}` holds {} region records, meta lists {expected} regions",
            entry.file,
            ranges.len()
        )));
    }
    ranges.into_iter().map(|r| decode_region_tables(&bytes[r])).collect()
}

/// One region's graph records, framed on the worker that built the region.
struct RegionRecords {
    /// The region index the records' prefixes carry.
    region: u32,
    records: FramedRecords,
}

impl RegionRecords {
    /// Frame one record per sequence — `[u32 region][u32 sequence]` then
    /// the graph — encoding each distinct graph once.
    fn frame(region: u32, graphs: RegionGraphs) -> RegionRecords {
        let encoded: Vec<Vec<u8>> = graphs
            .distinct
            .iter()
            .map(|g| {
                let mut bytes = Vec::new();
                encode_graph(g, &mut bytes);
                bytes
            })
            .collect();
        drop(graphs.distinct);
        let payload_bytes =
            graphs.of_seq.iter().map(|&g| RECORD_PREFIX + encoded[g as usize].len()).sum();
        let mut records = FramedRecords::with_capacity(graphs.of_seq.len(), payload_bytes);
        for (seq, &g) in graphs.of_seq.iter().enumerate() {
            records.push_with(|out| {
                out.extend_from_slice(&region.to_le_bytes());
                out.extend_from_slice(&(seq as u32).to_le_bytes());
                out.extend_from_slice(&encoded[g as usize]);
            });
        }
        RegionRecords { region, records }
    }
}

/// Writes one pack directory: each region's graph records
/// (`[u32 region][u32 sequence]` followed by [`encode_graph`]) into
/// `shard-NNNN.bin` files, then `regions.bin`, the meta and — last, the
/// commit point — the manifest.
struct PackWriter<'a> {
    dir: &'a Path,
    /// Records per graph shard before it is closed.
    shard_graphs: usize,
    manifest: ShardManifest,
    shard: ShardWriter,
    rec: Vec<u8>,
    /// Graphs pushed per region, in region order.
    graph_counts: Vec<usize>,
}

impl<'a> PackWriter<'a> {
    fn new(dir: &'a Path, shard_graphs: usize) -> PackWriter<'a> {
        PackWriter {
            dir,
            shard_graphs: shard_graphs.max(1),
            manifest: ShardManifest::default(),
            shard: ShardWriter::new(GRAPH_SHARD_KIND),
            rec: Vec::new(),
            graph_counts: Vec::new(),
        }
    }

    /// Append the next region's graphs, one record per sequence.
    fn push_region(&mut self, graphs: &[GraphData]) -> io::Result<()> {
        let region = self.graph_counts.len() as u32;
        for (seq, g) in graphs.iter().enumerate() {
            self.rec.clear();
            self.rec.extend_from_slice(&region.to_le_bytes());
            self.rec.extend_from_slice(&(seq as u32).to_le_bytes());
            encode_graph(g, &mut self.rec);
            self.shard.push(&self.rec);
            if self.shard.records() >= self.shard_graphs {
                self.end_shard()?;
            }
        }
        self.graph_counts.push(graphs.len());
        Ok(())
    }

    /// Append the next region's records, framed apart from the writer;
    /// their region prefix is corrected first if it is not this region's
    /// index (an earlier region of their group was skipped).
    fn push_framed(&mut self, mut region: RegionRecords) -> io::Result<()> {
        let index = self.graph_counts.len() as u32;
        if region.region != index {
            region.records.rewrite(|rec| rec[..4].copy_from_slice(&index.to_le_bytes()));
        }
        self.graph_counts.push(region.records.records());
        self.shard.append(region.records);
        if self.shard.records() >= self.shard_graphs {
            self.end_shard()?;
        }
        Ok(())
    }

    /// Close the open shard as the next `shard-NNNN.bin` (nothing if empty).
    fn end_shard(&mut self) -> io::Result<()> {
        if self.shard.is_empty() {
            return Ok(());
        }
        let full = std::mem::replace(&mut self.shard, ShardWriter::new(GRAPH_SHARD_KIND));
        let file = format!("shard-{:04}.bin", self.manifest.entries.len());
        self.manifest.entries.push(full.finish(self.dir, &file)?);
        Ok(())
    }

    /// Close the last shard, write `regions.bin` and the meta from `ds`
    /// (whose regions are the ones pushed, in order; their graphs are not
    /// read), then the manifest.
    fn commit(mut self, ds: &Dataset) -> io::Result<PackSummary> {
        assert_eq!(ds.regions.len(), self.graph_counts.len(), "one pushed region per region");
        self.end_shard()?;
        let mut tables = ShardWriter::new(REGION_TABLE_KIND);
        for r in &ds.regions {
            encode_region_tables(&r.sweep, &r.dynamic_features, r.default_time, &mut self.rec);
            tables.push(&self.rec);
        }
        let regions = ds.regions.iter().zip(&self.graph_counts);
        let meta = PackedMeta {
            machine: ds.machine.clone(),
            size: ds.size,
            sequences: ds.sequences.clone(),
            configs: ds.configs.clone(),
            regions: regions
                .map(|(r, &graph_count)| PackedRegion { spec: r.spec.clone(), graph_count })
                .collect(),
            region_tables: tables.finish(self.dir, REGIONS_FILE)?,
            chosen_configs: ds.chosen_configs.clone(),
            labels: ds.labels.clone(),
        };
        meta.save(self.dir)?;
        let bytes = self.manifest.total_bytes();
        self.manifest.save(self.dir)?; // the commit point: no manifest, no pack
        let graphs = self.graph_counts.iter().sum();
        Ok(PackSummary { shards: self.manifest.entries.len(), graphs, bytes })
    }
}

/// Pack an in-memory [`Dataset`] into `dir`: binary graph shards of
/// `shard_graphs` records each, the meta, and — last — the manifest.
pub fn pack_dataset(ds: &Dataset, dir: &Path, shard_graphs: usize) -> io::Result<PackSummary> {
    let _span = irnuma_obs::span!("dataset.pack", regions = ds.regions.len());
    let mut pack = PackWriter::new(dir, shard_graphs);
    for r in &ds.regions {
        pack.push_region(&r.graphs)?;
    }
    pack.commit(ds)
}

/// Load a whole pack back into an in-memory [`Dataset`] (what `predict`
/// and evaluation take). Every shard is checksum-verified; a record for an
/// unknown `(region, sequence)`, a duplicate, or a missing graph is
/// [`io::ErrorKind::InvalidData`].
pub fn load_packed(dir: &Path) -> io::Result<Dataset> {
    let meta = read_meta(dir)?;
    let manifest = ShardManifest::load(dir)?;
    let tables = read_region_tables(dir, &meta.region_tables, meta.regions.len())?;
    let mut regions: Vec<RegionData> = meta
        .regions
        .iter()
        .zip(tables)
        .map(|(p, (sweep, dynamic_features, default_time))| RegionData {
            spec: p.spec.clone(),
            graphs: (0..p.graph_count)
                .map(|_| GraphData::from_parts(Vec::new(), Default::default(), Default::default()))
                .collect(),
            sweep,
            default_time,
            dynamic_features,
        })
        .collect();
    let mut filled: Vec<Vec<bool>> =
        meta.regions.iter().map(|p| vec![false; p.graph_count]).collect();

    for entry in &manifest.entries {
        let bytes = std::fs::read(dir.join(&entry.file)).map_err(|e| {
            io::Error::new(e.kind(), format!("reading shard `{}`: {e}", entry.file))
        })?;
        // Cheap structural gate against the manifest; byte integrity is
        // covered by the per-record checksums `parse_shard` verifies, so
        // the payload is hashed exactly once on this hot path. The
        // whole-file checksum is re-derivable via [`ShardManifest::verify`]
        // (`irnuma dataset info --verify`).
        if bytes.len() as u64 != entry.bytes {
            return Err(corruption(format!(
                "shard `{}` is {} bytes, manifest says {}",
                entry.file,
                bytes.len(),
                entry.bytes
            )));
        }
        entry.checksum()?; // reject malformed manifest checksums up front
        for range in parse_shard(GRAPH_SHARD_KIND, &bytes)? {
            let rec = &bytes[range];
            if rec.len() < RECORD_PREFIX {
                return Err(corruption(format!(
                    "shard `{}`: record too short for its (region, sequence) prefix",
                    entry.file
                )));
            }
            let r = u32::from_le_bytes(rec[..4].try_into().unwrap()) as usize;
            let s = u32::from_le_bytes(rec[4..8].try_into().unwrap()) as usize;
            let slot = filled.get_mut(r).and_then(|f| f.get_mut(s)).ok_or_else(|| {
                invalid(format!(
                    "shard `{}`: record for unknown (region {r}, sequence {s})",
                    entry.file
                ))
            })?;
            if *slot {
                return Err(invalid(format!(
                    "shard `{}`: duplicate record for (region {r}, sequence {s})",
                    entry.file
                )));
            }
            regions[r].graphs[s] = decode_graph(&rec[RECORD_PREFIX..])?;
            *slot = true;
        }
    }
    for (r, region_filled) in filled.iter().enumerate() {
        if let Some(s) = region_filled.iter().position(|&f| !f) {
            return Err(invalid(format!(
                "pack is missing the graph for (region {r}, sequence {s})"
            )));
        }
    }

    Ok(Dataset {
        machine: meta.machine,
        size: meta.size,
        sequences: meta.sequences,
        configs: meta.configs,
        regions,
        chosen_configs: meta.chosen_configs,
        labels: meta.labels,
    })
}

/// Open a streaming source over a pack: records of sequences in
/// `train_seqs` (indices into `meta.sequences`) are labeled with their
/// region's class; everything else is filtered out at decode time.
pub fn open_stream(dir: &Path, meta: &PackedMeta, train_seqs: &[usize]) -> io::Result<ShardStream> {
    let mut allow = vec![false; meta.sequences.len()];
    for &s in train_seqs {
        if let Some(a) = allow.get_mut(s) {
            *a = true;
        }
    }
    let labels = meta.labels.clone();
    let map: RecordMap = Box::new(move |region, seq| {
        if !allow.get(seq as usize).copied().unwrap_or(false) {
            return None;
        }
        labels.get(region as usize).copied()
    });
    ShardStream::open(dir, map)
}

/// A sharded build's outcome summary.
#[derive(Debug, Clone)]
pub struct PackedBuild {
    pub regions: usize,
    pub graphs: usize,
    pub shards: usize,
    pub label_coverage: f64,
    pub skips: Vec<SkipRecord>,
}

/// Build the dataset straight into a pack directory, one shard per group
/// of `shard_regions` regions. Groups build in sequence; regions within a
/// group build in parallel with the fault isolation of
/// [`crate::dataset::build_dataset_report`] (catch_unwind, one retry,
/// [`SkipRecord`]s, `dataset.skipped`/`dataset.retried` counters). Each
/// region's worker encodes its distinct graphs once, frames its records and
/// drops the graphs; a group's shard is written while the next group
/// builds, so peak memory is about two groups' records, not the corpus.
/// The manifest is written last — a crashed build leaves no loadable pack.
pub fn build_packed_dataset(
    arch: MicroArch,
    params: &DatasetParams,
    opts: &BuildOptions,
    dir: &Path,
    shard_regions: usize,
) -> Result<PackedBuild, DatasetError> {
    let mut pack = PackWriter::new(dir, usize::MAX);
    let mut regions = Vec::new();
    let run = build_regions(arch, params, opts, shard_regions, RegionRecords::frame, |group| {
        for (r, records) in group {
            pack.push_framed(records)?;
            regions.push(r);
        }
        Ok(pack.end_shard()?)
    })?;
    let dataset = Dataset { regions, ..run.dataset };
    let summary = pack.commit(&dataset)?;
    Ok(PackedBuild {
        regions: dataset.regions.len(),
        graphs: summary.graphs,
        shards: summary.shards,
        label_coverage: dataset.label_coverage(),
        skips: run.skips,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{build_dataset_report, BuildOptions};
    use std::fs;
    use std::path::PathBuf;

    fn tdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join("irnuma-pack-test").join(name);
        fs::remove_dir_all(&d).ok();
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn tiny() -> DatasetParams {
        DatasetParams { num_sequences: 2, calls: 2, num_labels: 3, ..Default::default() }
    }

    fn assert_datasets_identical(a: &Dataset, b: &Dataset) {
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.chosen_configs, b.chosen_configs);
        assert_eq!(a.sequences.len(), b.sequences.len());
        assert_eq!(a.configs.len(), b.configs.len());
        assert_eq!(a.regions.len(), b.regions.len());
        for (x, y) in a.regions.iter().zip(&b.regions) {
            assert_eq!(x.spec.name, y.spec.name);
            assert_eq!(x.sweep, y.sweep);
            assert_eq!(x.default_time, y.default_time);
            assert_eq!(x.dynamic_features, y.dynamic_features);
            assert_eq!(x.graphs.len(), y.graphs.len());
            for (g, h) in x.graphs.iter().zip(&y.graphs) {
                assert_eq!(g.node_text, h.node_text);
                assert_eq!(g.edges, h.edges);
                assert_eq!(g.norm, h.norm);
            }
        }
    }

    #[test]
    fn pack_then_load_round_trips_bit_identically() {
        let ds = crate::dataset::build_dataset(MicroArch::Skylake, &tiny());
        let d = tdir("roundtrip");
        let summary = pack_dataset(&ds, &d, 16).unwrap();
        assert_eq!(summary.graphs, 56 * 2);
        assert_eq!(summary.shards, summary.graphs.div_ceil(16));
        ShardManifest::load(&d).unwrap().verify(&d).unwrap();

        let back = load_packed(&d).unwrap();
        assert_datasets_identical(&ds, &back);
    }

    #[test]
    fn sharded_build_matches_the_in_memory_build() {
        let d = tdir("build");
        let opts = BuildOptions::default();
        let built = build_packed_dataset(MicroArch::Skylake, &tiny(), &opts, &d, 10).unwrap();
        assert_eq!(built.regions, 56);
        assert_eq!(built.graphs, 56 * 2);
        assert_eq!(built.shards, 56usize.div_ceil(10));
        assert!(built.skips.is_empty());
        assert!(built.label_coverage > 0.9, "coverage {}", built.label_coverage);

        let from_pack = load_packed(&d).unwrap();
        let in_memory = build_dataset_report(MicroArch::Skylake, &tiny(), &opts).unwrap().dataset;
        assert_datasets_identical(&in_memory, &from_pack);
    }

    #[test]
    fn poisoned_region_is_skipped_in_a_sharded_build() {
        let d = tdir("poisoned");
        let opts = BuildOptions { fault: Some("cg.spmv".into()), ..Default::default() };
        let built = build_packed_dataset(MicroArch::Skylake, &tiny(), &opts, &d, 10).unwrap();
        assert_eq!(built.regions, 55);
        assert_eq!(built.skips.len(), 1);
        assert_eq!(built.skips[0].region, "cg.spmv");
        let back = load_packed(&d).unwrap();
        assert_eq!(back.regions.len(), 55);
        assert!(back.regions.iter().all(|r| r.spec.name != "cg.spmv"));
        assert_eq!(back.labels.len(), 55);
        // The regions after cg.spmv in its group were framed under the
        // index they would have had without the skip, then re-prefixed.
        let in_memory = build_dataset_report(MicroArch::Skylake, &tiny(), &opts).unwrap().dataset;
        assert_datasets_identical(&in_memory, &back);
    }

    #[test]
    fn strict_sharded_build_fails_fast_and_leaves_no_manifest() {
        let d = tdir("strict");
        let opts = BuildOptions { strict: true, fault: Some("cg.spmv".into()) };
        let err = build_packed_dataset(MicroArch::Skylake, &tiny(), &opts, &d, 10).unwrap_err();
        assert!(matches!(err, DatasetError::RegionFailed(_)), "{err}");
        assert!(!ShardManifest::exists(&d), "aborted build must not look like a pack");
    }

    #[test]
    fn corrupt_or_missing_shards_fail_load_with_typed_errors() {
        let ds = crate::dataset::build_dataset(MicroArch::Skylake, &tiny());
        let d = tdir("corrupt");
        pack_dataset(&ds, &d, 16).unwrap();

        // Truncated shard.
        let shard = d.join("shard-0000.bin");
        let bytes = fs::read(&shard).unwrap();
        fs::write(&shard, &bytes[..bytes.len() / 2]).unwrap();
        let err = load_packed(&d).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Bit-flipped record.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 9;
        flipped[last] ^= 0x08;
        fs::write(&shard, &flipped).unwrap();
        let err = load_packed(&d).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "{err}");

        // Missing shard still listed in the manifest.
        fs::remove_file(&shard).unwrap();
        let err = load_packed(&d).unwrap_err();
        assert!(err.to_string().contains("shard-0000.bin"), "{err}");
        // The streaming opener rejects it up front too.
        let meta = read_meta(&d).unwrap();
        let err = open_stream(&d, &meta, &[0, 1]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Damaged region-tables sidecar: truncation trips the length gate,
        // a bit flip trips the per-record checksum.
        let d2 = tdir("corrupt-tables");
        pack_dataset(&ds, &d2, 16).unwrap();
        let tables = d2.join(REGIONS_FILE);
        let tbytes = fs::read(&tables).unwrap();
        fs::write(&tables, &tbytes[..tbytes.len() - 3]).unwrap();
        let err = load_packed(&d2).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("regions.bin"), "{err}");
        let mut tflipped = tbytes.clone();
        let mid = tflipped.len() / 2;
        tflipped[mid] ^= 0x01;
        fs::write(&tables, &tflipped).unwrap();
        let err = load_packed(&d2).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn stream_labels_come_from_the_region_label_table() {
        let ds = crate::dataset::build_dataset(MicroArch::Skylake, &tiny());
        let d = tdir("stream-labels");
        pack_dataset(&ds, &d, 32).unwrap();
        let meta = read_meta(&d).unwrap();
        let mut stream = open_stream(&d, &meta, &[0]).unwrap(); // sequence 0 only
        let n = irnuma_nn::stream::ShardSource::num_shards(&stream);
        let order: Vec<usize> = (0..n).collect();
        irnuma_nn::stream::ShardSource::begin_epoch(&mut stream, &order);
        let mut labels_seen = Vec::new();
        for _ in 0..n {
            let b = irnuma_nn::stream::ShardSource::next_shard(&mut stream).unwrap();
            labels_seen.extend_from_slice(&b.labels);
            irnuma_nn::stream::ShardSource::recycle(&mut stream, b);
        }
        // One record per region survives the sequence filter, in region
        // order (records were packed region-major).
        assert_eq!(labels_seen, meta.labels);
    }

    #[test]
    fn streamed_and_resident_training_give_bitwise_equal_params() {
        use irnuma_nn::stream::ShardSource;
        use irnuma_nn::{GnnClassifier, GnnConfig, MemorySource, TrainParams};
        let ds = crate::dataset::build_dataset(MicroArch::Skylake, &tiny());
        let d = tdir("stream-vs-resident");
        let summary = pack_dataset(&ds, &d, 24).unwrap();
        assert!(summary.shards >= 3, "{} shards", summary.shards);
        let meta = read_meta(&d).unwrap();

        let fit = |source: &mut dyn ShardSource| {
            let mut clf = GnnClassifier::new(GnnConfig {
                vocab_size: irnuma_graph::Vocab::full().len(),
                hidden: 8,
                classes: meta.chosen_configs.len(),
                layers: 2,
                layer_norm: true,
                seed: 5,
            });
            let p = TrainParams { epochs: 2, batch_size: 16, lr: 3e-3, seed: 5 };
            clf.fit_streaming(source, p, None).unwrap();
            let params = clf.model.params.iter().flat_map(|t| t.data.iter());
            params.map(|v| v.to_bits()).collect::<Vec<u32>>()
        };
        let streamed = fit(&mut open_stream(&d, &meta, &[0, 1]).unwrap());
        let mut resident =
            MemorySource::from_source(&mut open_stream(&d, &meta, &[0, 1]).unwrap()).unwrap();
        assert_eq!(resident.num_shards(), summary.shards);
        assert_eq!(streamed, fit(&mut resident), "streamed and resident params differ");
    }

    #[test]
    fn opening_a_non_pack_or_a_sequence_less_pack_is_a_typed_error() {
        let d = tdir("not-a-pack");
        fs::write(d.join("ds.json"), "{}").unwrap();
        for path in [d.clone(), d.join("ds.json"), d.join("missing")] {
            assert_eq!(read_meta(&path).unwrap_err().kind(), io::ErrorKind::NotFound);
        }

        let mut ds = crate::dataset::build_dataset(MicroArch::Skylake, &tiny());
        ds.sequences.clear();
        ds.regions.iter_mut().for_each(|r| r.graphs.clear());
        pack_dataset(&ds, &d, 16).unwrap();
        assert_eq!(read_meta(&d).unwrap_err().kind(), io::ErrorKind::InvalidData);
        assert_eq!(load_packed(&d).unwrap_err().kind(), io::ErrorKind::InvalidData);
    }
}
