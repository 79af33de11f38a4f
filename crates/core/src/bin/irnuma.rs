//! `irnuma` — the command-line front door.
//!
//! ```text
//! irnuma list-regions                         # the 56-region suite
//! irnuma show-ir cg.spmv [--o3]               # print a region's IR
//! irnuma graph cg.spmv [--dot out.dot]        # ProGraML graph stats / DOT
//! irnuma sweep cg.spmv --arch skylake         # top/bottom configurations
//! irnuma interp cg.spmv --n 64                # run under the interpreter
//! irnuma dataset --arch skylake --seqs 12 --out ds.json
//! irnuma predict cg.spmv --arch skylake [--dataset ds.json]
//! ```

use irnuma_core::dataset::{
    build_dataset, build_dataset_report, BuildOptions, Dataset, DatasetParams,
};
use irnuma_core::models::static_gnn::{training_sequence_ids, StaticModel, StaticParams};
use irnuma_core::{bench_check, dataset_pack, top as top_view, trace_report, trace_tree};
use irnuma_graph::{build_module_graph, to_dot, Vocab};
use irnuma_ir::extract::extract_region;
use irnuma_ir::{print_module, Interp, InterpConfig, Value};
use irnuma_nn::{CheckpointConfig, GnnClassifier, GnnConfig, MemorySource, TrainParams};
use irnuma_passes::{o3_sequence, run_sequence};
use irnuma_sim::{default_config, sweep_region, Machine, MicroArch};
use irnuma_workloads::{all_regions, InputSize, RegionSpec};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

// With `--features alloc-track`, every allocation the binary makes is
// counted: mem.* gauges in snapshots, alloc_bytes deltas on spans,
// bytes-per-stage in `irnuma report`.
#[cfg(feature = "alloc-track")]
#[global_allocator]
static ALLOC: irnuma_obs::alloc::CountingAlloc = irnuma_obs::alloc::CountingAlloc::new();

fn main() -> ExitCode {
    // IRNUMA_LOG overrides the info default; IRNUMA_TRACE=<file> installs
    // the JSONL sink. The guard flushes metrics + trace on exit.
    let _obs = irnuma_obs::init(irnuma_obs::Level::Info);
    // `--no-dispatch` (any position) forces the generic fallback kernels —
    // the escape hatch mirroring IRNUMA_NO_DISPATCH, kept live by CI.
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--no-dispatch") {
        args.retain(|a| a != "--no-dispatch");
        irnuma_nn::set_dispatch(false);
    }
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "list-regions" => list_regions(),
        "show-ir" => show_ir(rest),
        "show-source" => show_source(rest),
        "graph" => graph(rest),
        "sweep" => sweep(rest),
        "interp" => interp(rest),
        "dataset" => dataset(rest),
        "train" => train(rest),
        "predict" => predict(rest),
        "report" => report(rest),
        "trace" => trace(rest),
        "top" => top(rest),
        "serve" => serve(rest),
        "serve-bench" => serve_bench(rest),
        "bench-check" => run_bench_check(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "irnuma — static NUMA/prefetcher tuning from IR graphs

USAGE:
  irnuma list-regions
  irnuma show-ir <region> [--o3]
  irnuma show-source <region>
  irnuma graph <region> [--dot <file>]
  irnuma sweep <region> [--arch skylake|sandybridge|xeongold]
  irnuma interp <region> [--n <elements>]
  irnuma dataset [--arch <a>] [--seqs <n>] [--calls <n>] --out <file|dir>
                 [--strict] [--fault <region>[:once]] [--json]
                 [--pack [--shard-regions <n>]]
  irnuma dataset pack --in <dataset.json> --out <dir> [--shard-graphs <n>]
  irnuma dataset info <dir> [--verify]
  irnuma train   [--arch <a>] [--dataset <file.json|pack-dir>] [--seqs <n>]
                 [--epochs <n>] [--hidden <n>] [--seed <n>]
                 [--ckpt-dir <dir>] [--every <n>] [--resume]
                 [--in-memory] [--out <model.json>]
  irnuma predict <region> [--arch <a>] [--dataset <file.json|pack-dir>]
                 [--seqs <n>] [--epochs <n>]
  irnuma report <trace.jsonl> [--require stage1,stage2,...] [--json]
                 [--sort total|p99|count]
  irnuma trace analyze <trace.jsonl> [--roots name1,name2,...]
                 [--require-roots name1,name2,...]
  irnuma trace export <trace.jsonl> --perfetto <out.json>
  irnuma top     [--once | --watch <secs>] [--connect <addr>]
                 [--listen <addr>]
  irnuma serve   --model <model.json> [--addr <host:port>]
                 [--max-batch <n>] [--batch-window-us <n>]
                 [--queue-cap <n>] [--reload-poll-ms <n>]
                 [--max-requests <n>]
  irnuma serve-bench [--model <model.json> | --connect <addr>]
                 [--requests <n>] [--clients <n>] [--out-json]
  irnuma bench-check [--quick] [--baselines <file.json>] [--root <dir>]

Any command also accepts --no-dispatch: run the generic GNN kernels
instead of the shape-specialized dispatch layer (same bits, no
specialization — a fallback/debugging escape hatch).

`report` is the flat per-stage profile; `trace analyze` rebuilds the
causal span forest and reports each root span's critical path,
parallelism efficiency, and queue-vs-compute split. `trace export
--perfetto` writes a Chrome trace-event file loadable in
ui.perfetto.dev, with per-thread tracks and fan-out flow arrows.
`top` renders live telemetry: point --connect at any irnuma process
started with IRNUMA_METRICS=<addr> (default: this process's own
registry; --listen additionally serves it for scrapers).
`bench-check` gates BENCH_*.json medians against the committed
baselines in results/bench_baselines.json.
`serve` runs the online prediction daemon: JSONL over TCP, one JSON
request per line in, one prediction (or typed error) per line out,
micro-batched through the planned inference engine, with atomic model
hot-reload (--reload-poll-ms or on demand). `serve-bench` load-tests
a daemon (in-process by default) and with --out-json writes
BENCH_serving.json for the bench-check gate.

ENVIRONMENT:
  IRNUMA_TRACE=<file>      write a JSONL trace of every command
  IRNUMA_LOG=<level>       error|warn|info|debug (default info)
  IRNUMA_METRICS=<addr>    serve live metrics (/json, /metrics) on <addr>
  IRNUMA_PROFILE=<file>    sampling profiler; folded stacks on exit
  IRNUMA_PROFILE_HZ=<n>    profiler sample rate (default 997)
  IRNUMA_NO_DISPATCH=1     same effect as --no-dispatch";

fn find_region(name: &str) -> Result<RegionSpec, String> {
    all_regions()
        .into_iter()
        .find(|r| r.name == name)
        .ok_or_else(|| format!("unknown region `{name}` (try `irnuma list-regions`)"))
}

fn opt_value<'a>(rest: &'a [String], flag: &str) -> Option<&'a str> {
    rest.iter().position(|a| a == flag).and_then(|i| rest.get(i + 1)).map(String::as_str)
}

fn parse_arch(rest: &[String]) -> Result<MicroArch, String> {
    match opt_value(rest, "--arch").unwrap_or("skylake") {
        "skylake" => Ok(MicroArch::Skylake),
        "sandybridge" => Ok(MicroArch::SandyBridge),
        "xeongold" => Ok(MicroArch::XeonGold),
        other => Err(format!("unknown arch `{other}`")),
    }
}

fn list_regions() -> Result<(), String> {
    println!("{:<28} {:<10} {:>8} {:>6}  shape", "region", "suite", "ws", "calls");
    for r in all_regions() {
        println!(
            "{:<28} {:<10} {:>6}MB {:>6}  {:?}",
            r.name,
            format!("{:?}", r.suite),
            r.profile.working_set_bytes >> 20,
            r.profile.calls_per_run,
            r.shape
        );
    }
    Ok(())
}

fn show_ir(rest: &[String]) -> Result<(), String> {
    let r = find_region(rest.first().ok_or("missing region name")?)?;
    let mut m = r.module();
    if rest.iter().any(|a| a == "--o3") {
        run_sequence(&mut m, &o3_sequence()).map_err(|e| e.to_string())?;
    }
    print!("{}", print_module(&m));
    Ok(())
}

fn show_source(rest: &[String]) -> Result<(), String> {
    let r = find_region(rest.first().ok_or("missing region name")?)?;
    println!("// {} ({:?}, ws {} MiB)", r.name, r.suite, r.profile.working_set_bytes >> 20);
    println!("{}", irnuma_workloads::pseudo_source(&r.shape));
    Ok(())
}

fn graph(rest: &[String]) -> Result<(), String> {
    let r = find_region(rest.first().ok_or("missing region name")?)?;
    let vocab = Vocab::full();
    let m = r.module();
    let e = extract_region(&m, &r.region_fn()).map_err(|e| e.to_string())?;
    let g = build_module_graph(&e, &vocab);
    if let Some(path) = opt_value(rest, "--dot") {
        irnuma_store::atomic_write(Path::new(path), to_dot(&g, &vocab).as_bytes())
            .map_err(|e| e.to_string())?;
        println!("wrote {path}");
    } else {
        use irnuma_graph::{EdgeKind, NodeKind};
        println!("region {}: {} nodes, {} edges", r.name, g.num_nodes(), g.num_edges());
        println!(
            "  nodes: {} instruction / {} variable / {} constant",
            g.count_nodes(NodeKind::Instruction),
            g.count_nodes(NodeKind::Variable),
            g.count_nodes(NodeKind::Constant)
        );
        println!(
            "  edges: {} control / {} data / {} call",
            g.count_edges(EdgeKind::Control),
            g.count_edges(EdgeKind::Data),
            g.count_edges(EdgeKind::Call)
        );
    }
    Ok(())
}

fn sweep(rest: &[String]) -> Result<(), String> {
    let r = find_region(rest.first().ok_or("missing region name")?)?;
    let m = Machine::new(parse_arch(rest)?);
    let results = sweep_region(&r, &m, InputSize::Size1, 6);
    let def = default_config(&m);
    let t_def = results.iter().find(|(c, _)| *c == def).unwrap().1;
    let mut ranked: Vec<_> = results.iter().collect();
    ranked.sort_by(|a, b| a.1.total_cmp(&b.1));
    println!(
        "{} on {:?}: default {} = {:.3}ms over {} configurations",
        r.name,
        m.arch,
        def.label(),
        t_def * 1e3,
        results.len()
    );
    println!("top 5:");
    for (c, t) in ranked.iter().take(5) {
        println!("  {:<28} {:>9.3}ms  x{:.2}", c.label(), t * 1e3, t_def / t);
    }
    println!("bottom 3:");
    for (c, t) in ranked.iter().rev().take(3) {
        println!("  {:<28} {:>9.3}ms  x{:.2}", c.label(), t * 1e3, t_def / t);
    }
    Ok(())
}

fn interp(rest: &[String]) -> Result<(), String> {
    let r = find_region(rest.first().ok_or("missing region name")?)?;
    let n: i64 = opt_value(rest, "--n").unwrap_or("64").parse().map_err(|_| "bad --n")?;
    // Execute a small-footprint build of the region so this stays instant.
    let m = r.shape.gen_ir(&r.name, r.variant, 1 << 18);
    let mut it = Interp::new(&m, InterpConfig::default());
    it.seed_globals(1);
    let out = it.call(&r.region_fn(), &[Value::I(n)]).map_err(|e| e.to_string())?;
    println!(
        "@{}(n={n}) executed {} interpreter steps; memory digest {:016x}",
        r.region_fn(),
        out.steps,
        it.memory_digest()
    );
    Ok(())
}

/// The `--json` build summary. `dataset.skipped`/`dataset.retried` mirror
/// the telemetry counters of the same names, read back from the registry so
/// the JSON output asserts the counters were actually recorded. Built as a
/// [`serde_json::Value`] by hand because the counter keys carry dots.
fn dataset_build_summary(
    out: &str,
    regions: usize,
    graphs: usize,
    configs: usize,
    label_coverage: f64,
    skips: &[String],
) -> serde_json::Value {
    use serde_json::Value;
    let registry = irnuma_obs::registry();
    Value::Object(vec![
        ("out".into(), Value::Str(out.to_string())),
        ("regions".into(), Value::UInt(regions as u64)),
        ("graphs".into(), Value::UInt(graphs as u64)),
        ("configs".into(), Value::UInt(configs as u64)),
        ("label_coverage".into(), Value::Float(label_coverage)),
        ("dataset.skipped".into(), Value::UInt(registry.counter("dataset.skipped").get())),
        ("dataset.retried".into(), Value::UInt(registry.counter("dataset.retried").get())),
        ("skips".into(), Value::Array(skips.iter().map(|s| Value::Str(s.clone())).collect())),
    ])
}

fn dataset(rest: &[String]) -> Result<(), String> {
    match rest.first().map(String::as_str) {
        Some("pack") => return dataset_pack_cmd(&rest[1..]),
        Some("info") => return dataset_info(&rest[1..]),
        _ => {}
    }
    let arch = parse_arch(rest)?;
    let seqs: usize =
        opt_value(rest, "--seqs").unwrap_or("12").parse().map_err(|_| "bad --seqs")?;
    let calls: u32 =
        opt_value(rest, "--calls").unwrap_or("6").parse().map_err(|_| "bad --calls")?;
    let out = opt_value(rest, "--out").ok_or("missing --out <file.json|dir>")?;
    let pack = rest.iter().any(|a| a == "--pack");
    let json = rest.iter().any(|a| a == "--json");
    let opts = BuildOptions {
        strict: rest.iter().any(|a| a == "--strict"),
        fault: opt_value(rest, "--fault").map(String::from),
    };
    let params = DatasetParams { num_sequences: seqs, calls, ..Default::default() };
    irnuma_obs::info!("building dataset for {arch:?} ({seqs} sequences)…");

    let (regions, graphs, configs, coverage, skips) = if pack {
        let shard_regions: usize = opt_value(rest, "--shard-regions")
            .unwrap_or("8")
            .parse()
            .map_err(|_| "bad --shard-regions")?;
        let built =
            dataset_pack::build_packed_dataset(arch, &params, &opts, Path::new(out), shard_regions)
                .map_err(|e| e.to_string())?;
        let configs =
            dataset_pack::read_meta(Path::new(out)).map_err(|e| e.to_string())?.configs.len();
        if !json {
            println!(
                "packed {out}: {} regions, {} graphs in {} shards",
                built.regions, built.graphs, built.shards
            );
        }
        (built.regions, built.graphs, configs, built.label_coverage, built.skips)
    } else {
        let build = build_dataset_report(arch, &params, &opts).map_err(|e| e.to_string())?;
        let ds = &build.dataset;
        ds.save_json(Path::new(out)).map_err(|e| e.to_string())?;
        let graphs = ds.regions.iter().map(|r| r.graphs.len()).sum();
        (ds.regions.len(), graphs, ds.configs.len(), ds.label_coverage(), build.skips)
    };

    if json {
        let skip_lines: Vec<String> = skips.iter().map(|s| s.to_string()).collect();
        let summary = dataset_build_summary(out, regions, graphs, configs, coverage, &skip_lines);
        println!("{}", serde_json::value_to_string(&summary));
        return Ok(());
    }
    if !pack {
        println!(
            "wrote {out}: {regions} regions × {} graphs, {configs} configs, \
             label coverage {coverage:.3}",
            graphs / regions.max(1),
        );
    }
    if skips.is_empty() {
        println!("skipped 0 regions");
    } else {
        println!("skipped {} regions:", skips.len());
        for s in &skips {
            println!("  {s}");
        }
    }
    Ok(())
}

/// `irnuma dataset pack`: re-encode an existing JSON dataset as a pack
/// directory (binary shards + meta + manifest).
fn dataset_pack_cmd(rest: &[String]) -> Result<(), String> {
    let input = opt_value(rest, "--in").ok_or("missing --in <dataset.json>")?;
    let out = opt_value(rest, "--out").ok_or("missing --out <dir>")?;
    let shard_graphs: usize = opt_value(rest, "--shard-graphs")
        .unwrap_or("64")
        .parse()
        .map_err(|_| "bad --shard-graphs")?;
    let ds = Dataset::load_json(Path::new(input)).map_err(|e| e.to_string())?;
    let summary =
        dataset_pack::pack_dataset(&ds, Path::new(out), shard_graphs).map_err(|e| e.to_string())?;
    println!(
        "packed {out}: {} graphs in {} shards ({} KiB)",
        summary.graphs,
        summary.shards,
        summary.bytes >> 10
    );
    Ok(())
}

/// `irnuma dataset info`: describe a pack directory; `--verify` reads every
/// shard back, checking manifest checksums and decoding every record.
fn dataset_info(rest: &[String]) -> Result<(), String> {
    let dir = Path::new(rest.first().ok_or("missing pack directory")?.as_str());
    let meta = dataset_pack::read_meta(dir).map_err(|e| e.to_string())?;
    let manifest = irnuma_store::shard::ShardManifest::load(dir).map_err(|e| e.to_string())?;
    println!(
        "pack {}: {} regions, {} sequences, {} configs ({} labels)",
        dir.display(),
        meta.regions.len(),
        meta.sequences.len(),
        meta.configs.len(),
        meta.chosen_configs.len()
    );
    println!(
        "{} shards, {} records, {} KiB",
        manifest.entries.len(),
        manifest.total_records(),
        manifest.total_bytes() >> 10
    );
    if rest.iter().any(|a| a == "--verify") {
        manifest.verify(dir).map_err(|e| e.to_string())?;
        let ds = dataset_pack::load_packed(dir).map_err(|e| e.to_string())?;
        let graphs: usize = ds.regions.iter().map(|r| r.graphs.len()).sum();
        println!("verify ok: {graphs} graphs decoded, all checksums match");
    }
    Ok(())
}

fn train(rest: &[String]) -> Result<(), String> {
    let arch = parse_arch(rest)?;
    let seqs: usize = opt_value(rest, "--seqs").unwrap_or("4").parse().map_err(|_| "bad --seqs")?;
    let epochs: usize =
        opt_value(rest, "--epochs").unwrap_or("10").parse().map_err(|_| "bad --epochs")?;
    let hidden: usize =
        opt_value(rest, "--hidden").unwrap_or("16").parse().map_err(|_| "bad --hidden")?;
    let seed: u64 = opt_value(rest, "--seed").unwrap_or("71").parse().map_err(|_| "bad --seed")?;
    let every: usize =
        opt_value(rest, "--every").unwrap_or("1").parse().map_err(|_| "bad --every")?;
    let resume = rest.iter().any(|a| a == "--resume");
    let ckpt = opt_value(rest, "--ckpt-dir").map(|d| CheckpointConfig {
        dir: PathBuf::from(d),
        every,
        resume,
    });
    let ds: Dataset = match opt_value(rest, "--dataset") {
        Some(path) if Path::new(path).is_dir() => {
            // A pack directory: stream shards through the prefetch loader
            // instead of materializing the corpus.
            return train_streaming(rest, Path::new(path), epochs, hidden, seed, ckpt);
        }
        Some(path) => Dataset::load_auto(Path::new(path)).map_err(|e| e.to_string())?,
        None => {
            irnuma_obs::info!("building dataset (pass --dataset file.json to reuse one)…");
            build_dataset(arch, &DatasetParams { num_sequences: seqs, ..Default::default() })
        }
    };
    // Flatten every region's training-sequence graphs into one labelled set,
    // exactly as `StaticModel::train` does over a fold.
    let seq_ids = training_sequence_ids(ds.sequences.len(), 4.min(ds.sequences.len()));
    let mut refs = Vec::new();
    let mut labels = Vec::new();
    for (r, reg) in ds.regions.iter().enumerate() {
        for &s in &seq_ids {
            refs.push(&reg.graphs[s]);
            labels.push(ds.labels[r]);
        }
    }
    let graphs = refs.iter().map(|&g| g.clone()).collect();
    let mut source = MemorySource::from_shards(vec![(graphs, labels.clone())]);
    let mut clf = GnnClassifier::new(GnnConfig {
        vocab_size: Vocab::full().len(),
        hidden,
        classes: ds.chosen_configs.len(),
        layers: 2,
        layer_norm: true,
        seed,
    });
    let p = TrainParams { epochs, batch_size: 16, lr: 3e-3, seed };
    let t0 = std::time::Instant::now();
    let history = clf.fit_streaming(&mut source, p, ckpt.as_ref()).map_err(|e| e.to_string())?;
    let elapsed = t0.elapsed().as_secs_f64();
    let acc = clf.accuracy(&refs, &labels);
    println!(
        "trained {} epochs on {} graphs: loss {:.4} → {:.4}, train accuracy {} \
         ({:.2} epochs/sec, fused engine)",
        history.len(),
        refs.len(),
        history.first().copied().unwrap_or(f64::NAN),
        history.last().copied().unwrap_or(f64::NAN),
        acc.map_or_else(|| "n/a".to_string(), |a| format!("{a:.3}")),
        history.len() as f64 / elapsed.max(1e-9),
    );
    if let Some(out) = opt_value(rest, "--out") {
        clf.save_json(Path::new(out)).map_err(|e| e.to_string())?;
        println!("wrote {out}");
    }
    Ok(())
}

/// `irnuma train --dataset <pack-dir>`: the out-of-core epoch loop over a
/// pack directory. `--in-memory` decodes the pack once and trains resident
/// — same seeded trajectory, so both modes produce bit-identical models
/// (CI compares them byte for byte).
fn train_streaming(
    rest: &[String],
    dir: &Path,
    epochs: usize,
    hidden: usize,
    seed: u64,
    ckpt: Option<CheckpointConfig>,
) -> Result<(), String> {
    let meta = dataset_pack::read_meta(dir).map_err(|e| e.to_string())?;
    let seq_ids = training_sequence_ids(meta.sequences.len(), 4.min(meta.sequences.len()));
    let mut stream = dataset_pack::open_stream(dir, &meta, &seq_ids).map_err(|e| e.to_string())?;
    let mut clf = GnnClassifier::new(GnnConfig {
        vocab_size: Vocab::full().len(),
        hidden,
        classes: meta.chosen_configs.len(),
        layers: 2,
        layer_norm: true,
        seed,
    });
    let p = TrainParams { epochs, batch_size: 16, lr: 3e-3, seed };
    let in_memory = rest.iter().any(|a| a == "--in-memory");
    let stall0 = irnuma_obs::registry().counter("loader.prefetch_stall_ns").get();
    let t0 = std::time::Instant::now();
    let history = if in_memory {
        let mut mem = MemorySource::from_source(&mut stream).map_err(|e| e.to_string())?;
        drop(stream);
        clf.fit_streaming(&mut mem, p, ckpt.as_ref())
    } else {
        clf.fit_streaming(&mut stream, p, ckpt.as_ref())
    }
    .map_err(|e| e.to_string())?;
    let elapsed = t0.elapsed().as_secs_f64();
    let stall_ms =
        (irnuma_obs::registry().counter("loader.prefetch_stall_ns").get() - stall0) as f64 / 1e6;
    println!(
        "trained {} epochs streaming from {} ({} regions, {} shards, {} mode): \
         loss {:.4} → {:.4} ({:.2} epochs/sec, prefetch stall {stall_ms:.1}ms)",
        history.len(),
        dir.display(),
        meta.regions.len(),
        irnuma_store::shard::ShardManifest::load(dir).map_err(|e| e.to_string())?.entries.len(),
        if in_memory { "in-memory" } else { "streaming" },
        history.first().copied().unwrap_or(f64::NAN),
        history.last().copied().unwrap_or(f64::NAN),
        history.len() as f64 / elapsed.max(1e-9),
    );
    if let Some(out) = opt_value(rest, "--out") {
        clf.save_json(Path::new(out)).map_err(|e| e.to_string())?;
        println!("wrote {out}");
    }
    Ok(())
}

fn predict(rest: &[String]) -> Result<(), String> {
    let target = rest.first().ok_or("missing region name")?.clone();
    let arch = parse_arch(rest)?;
    let seqs: usize = opt_value(rest, "--seqs").unwrap_or("8").parse().map_err(|_| "bad --seqs")?;
    let epochs: usize =
        opt_value(rest, "--epochs").unwrap_or("10").parse().map_err(|_| "bad --epochs")?;
    let ds: Dataset = match opt_value(rest, "--dataset") {
        Some(path) => Dataset::load_auto(std::path::Path::new(path)).map_err(|e| e.to_string())?,
        None => {
            irnuma_obs::info!("building dataset (pass --dataset file.json to reuse one)…");
            build_dataset(arch, &DatasetParams { num_sequences: seqs, ..Default::default() })
        }
    };
    let ti = ds
        .regions
        .iter()
        .position(|r| r.spec.name == target)
        .ok_or_else(|| format!("region `{target}` not in dataset"))?;
    let train: Vec<usize> = (0..ds.regions.len()).filter(|&i| i != ti).collect();
    irnuma_obs::info!("training the static model on the other {} regions…", train.len());
    let sm = StaticModel::train(
        &ds,
        &train,
        StaticParams { epochs, train_sequences: 4.min(seqs), ..Default::default() },
    );
    let label = sm.predict(&ds, ti);
    let cfg = ds.configs[ds.chosen_configs[label]];
    let t = ds.label_time(ti, label);
    let reg = &ds.regions[ti];
    println!("region:        {target}");
    println!("prediction:    {}", cfg.label());
    println!("default time:  {:.3}ms", reg.default_time * 1e3);
    println!("predicted:     {:.3}ms  (x{:.2})", t * 1e3, reg.default_time / t);
    println!(
        "best possible: {:.3}ms  (x{:.2}, full exploration)",
        reg.full_best_time() * 1e3,
        reg.default_time / reg.full_best_time()
    );
    Ok(())
}

fn report(rest: &[String]) -> Result<(), String> {
    let path = rest.first().ok_or("missing trace file (irnuma report <trace.jsonl>)")?;
    let mut r = trace_report::load(std::path::Path::new(path))?;
    if let Some(key) = opt_value(rest, "--sort") {
        let key = trace_report::SortKey::parse(key)
            .ok_or_else(|| format!("bad --sort `{key}` (total|p99|count)"))?;
        r.sort_spans(key);
    }
    if r.malformed_lines > 0 {
        eprintln!("report.malformed_lines: {} (skipped)", r.malformed_lines);
    }
    if rest.iter().any(|a| a == "--json") {
        println!("{}", r.to_json());
    } else {
        print!("{}", r.render());
    }
    if let Some(required) = opt_value(rest, "--require") {
        let stages: Vec<&str> =
            required.split(',').map(str::trim).filter(|s| !s.is_empty()).collect();
        r.require(&stages)?;
        if !rest.iter().any(|a| a == "--json") {
            println!("\nall required stages present: {}", stages.join(", "));
        }
    }
    Ok(())
}

fn trace(rest: &[String]) -> Result<(), String> {
    let sub = rest.first().map(String::as_str);
    let args = rest.get(1..).unwrap_or(&[]);
    let split_names = |v: &str| -> Vec<String> {
        v.split(',').map(str::trim).filter(|s| !s.is_empty()).map(String::from).collect()
    };
    match sub {
        Some("analyze") => {
            let path = args.first().ok_or("missing trace file (irnuma trace analyze <f>)")?;
            let spans = trace_tree::load_spans(Path::new(path))?;
            let opts = trace_tree::AnalyzeOptions {
                roots: opt_value(args, "--roots").map(split_names),
                require_roots: opt_value(args, "--require-roots")
                    .map(split_names)
                    .unwrap_or_default(),
            };
            print!("{}", trace_tree::analyze(spans, &opts)?);
            Ok(())
        }
        Some("export") => {
            let path = args.first().ok_or("missing trace file (irnuma trace export <f>)")?;
            let out = opt_value(args, "--perfetto").ok_or("missing --perfetto <out.json>")?;
            let spans = trace_tree::load_spans(Path::new(path))?;
            trace_tree::export_perfetto(&spans, Path::new(out))?;
            println!(
                "wrote {out}: {} spans ({} skipped lines) — load in ui.perfetto.dev",
                spans.records.len(),
                spans.skipped_lines
            );
            Ok(())
        }
        _ => Err("usage: irnuma trace analyze|export <trace.jsonl> …".to_string()),
    }
}

fn top(rest: &[String]) -> Result<(), String> {
    let watch: Option<f64> = match opt_value(rest, "--watch") {
        Some(v) => Some(v.parse().map_err(|_| "bad --watch (seconds)")?),
        None => None,
    };
    let connect = opt_value(rest, "--connect").map(String::from);
    // `--listen` serves this process's own registry — useful for probing
    // the export endpoint end to end without a second process.
    let server = match opt_value(rest, "--listen") {
        Some(addr) => {
            let s = irnuma_obs::export::serve(addr)
                .map_err(|e| format!("cannot listen on {addr}: {e}"))?;
            println!("serving telemetry on {}", s.addr());
            Some(s)
        }
        None => None,
    };
    // One snapshot per tick: from the remote endpoint when --connect is
    // given, through our own HTTP endpoint when --listen is (so the probe
    // exercises the real wire path), from the registry otherwise.
    let grab = || -> Result<top_view::Snapshot, String> {
        let body = match (&connect, &server) {
            (Some(addr), _) => irnuma_obs::export::fetch(addr, "/json")
                .map_err(|e| format!("cannot fetch {addr}/json: {e}"))?,
            (None, Some(s)) => irnuma_obs::export::fetch(&s.addr().to_string(), "/json")
                .map_err(|e| format!("cannot self-fetch: {e}"))?,
            (None, None) => irnuma_obs::TelemetrySnapshot::capture().to_json(),
        };
        top_view::parse_snapshot(&body)
    };
    match watch {
        None => print!("{}", top_view::render(&grab()?, None)),
        Some(secs) => {
            let interval = std::time::Duration::from_secs_f64(secs.clamp(0.1, 3600.0));
            let mut prev: Option<top_view::Snapshot> = None;
            loop {
                let snap = grab()?;
                // Clear the screen, home the cursor, render one frame.
                print!("\x1b[2J\x1b[Hirnuma top — every {secs}s (ctrl-c to quit)\n\n");
                print!("{}", top_view::render(&snap, prev.as_ref()));
                prev = Some(snap);
                std::thread::sleep(interval);
            }
        }
    }
    if let Some(s) = server {
        s.stop();
    }
    Ok(())
}

fn serve(rest: &[String]) -> Result<(), String> {
    let model = opt_value(rest, "--model").ok_or("missing --model <model.json>")?;
    let mut cfg = irnuma_serve::ServeConfig::new(model);
    if let Some(addr) = opt_value(rest, "--addr") {
        cfg.addr = addr.to_string();
    }
    if let Some(v) = opt_value(rest, "--max-batch") {
        cfg.max_batch = v.parse().map_err(|_| "bad --max-batch")?;
    }
    if let Some(v) = opt_value(rest, "--batch-window-us") {
        cfg.batch_window_us = v.parse().map_err(|_| "bad --batch-window-us")?;
    }
    if let Some(v) = opt_value(rest, "--queue-cap") {
        cfg.queue_cap = v.parse().map_err(|_| "bad --queue-cap")?;
    }
    if let Some(v) = opt_value(rest, "--reload-poll-ms") {
        cfg.reload_poll_ms = v.parse().map_err(|_| "bad --reload-poll-ms")?;
    }
    // `--max-requests` exits cleanly (flushing traces/metrics) after N
    // responses — how CI smoke-tests the daemon without signals.
    let max_requests: u64 = match opt_value(rest, "--max-requests") {
        Some(v) => v.parse().map_err(|_| "bad --max-requests")?,
        None => 0,
    };
    let server = irnuma_serve::Server::start(cfg).map_err(|e| format!("serve: {e}"))?;
    println!("serving on {} (model {model})", server.addr());
    if max_requests == 0 {
        server.wait();
        return Ok(());
    }
    let responses = irnuma_obs::registry().counter("serve.responses");
    let errors = irnuma_obs::registry().counter("serve.bad_requests");
    let rejected = irnuma_obs::registry().counter("serve.rejected");
    while responses.get() + errors.get() + rejected.get() < max_requests {
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    server.shutdown();
    println!(
        "served {} responses ({} bad requests, {} rejected); exiting after --max-requests {}",
        responses.get(),
        errors.get(),
        rejected.get(),
        max_requests
    );
    Ok(())
}

fn serve_bench(rest: &[String]) -> Result<(), String> {
    let params = irnuma_core::serve_bench::ServeBenchParams {
        model: opt_value(rest, "--model").map(PathBuf::from),
        connect: opt_value(rest, "--connect").map(String::from),
        requests: opt_value(rest, "--requests")
            .unwrap_or("2000")
            .parse()
            .map_err(|_| "bad --requests")?,
        clients: opt_value(rest, "--clients")
            .unwrap_or("4")
            .parse()
            .map_err(|_| "bad --clients")?,
    };
    let report = irnuma_core::serve_bench::run(&params)?;
    println!(
        "serve-bench: {} served / {} rejected over {} clients\n\
         latency p50 {:.1}us  p99 {:.1}us  mean {:.1}us\n\
         throughput {:.0} req/s",
        report.served,
        report.rejected,
        report.clients,
        report.p50_us,
        report.p99_us,
        report.mean_us,
        report.throughput_rps
    );
    if rest.iter().any(|a| a == "--out-json") {
        let path = irnuma_core::serve_bench::write_report(&report).map_err(|e| e.to_string())?;
        println!("wrote {}", path.display());
    }
    Ok(())
}

fn run_bench_check(rest: &[String]) -> Result<(), String> {
    let quick = rest.iter().any(|a| a == "--quick");
    let baselines_path = opt_value(rest, "--baselines").unwrap_or("results/bench_baselines.json");
    let root = opt_value(rest, "--root").unwrap_or(".");
    let baselines = bench_check::load_baselines(Path::new(baselines_path))?;
    let (results, ok) = bench_check::check(&baselines, Path::new(root), quick);
    print!("{}", bench_check::render(&results, ok));
    if ok {
        Ok(())
    } else {
        Err("benchmark regression detected".to_string())
    }
}
