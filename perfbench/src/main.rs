//! `perfbench` — end-to-end and per-layer benchmark of the irnuma pipeline.
//!
//! `perfbench run --workload <repro|corpus|train|serve> --seed <n>
//! --seconds <s> --trace <0|1>` is the entry point (`run.py` builds this
//! binary and calls it). The run is split over child processes of this same
//! binary so that each number has a clean owner:
//!
//! * `setup` builds the workload's inputs (dataset, pack, model) into the
//!   run's work directory, several times over; `setup_s` is the median;
//! * `rep` does one timed call on those inputs in a fresh process; reps
//!   repeat until `--seconds` is spent, `wall_s` and `cpu_s` are the
//!   medians of their timed calls' wall and CPU time, and `peak_rss_mb` the
//!   median of their peak RSS (from `wait4`). For `serve`, `cpu_s` and
//!   `peak_rss_mb` are the daemon's;
//! * `check` re-derives what the outputs must equal (corpus, train) in a
//!   separate process, so checks never inflate a measured peak RSS;
//! * `trace` (with `--trace 1`) is the traced run: the same call with the
//!   program's spans captured in memory and attributed over the traced
//!   wall, plus probes of layers the program has no span for;
//! * `daemon` is the serving daemon (`irnuma_serve::Server`) in its own
//!   process for the `serve` workload.
//!
//! The last stdout line is the JSON result; the lines before it list every
//! metric, check and sample count by name.

mod corpus;
mod repro;
mod serve;
mod trace;
mod train;
mod util;

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use util::Metrics;

/// End-to-end metrics: printed on every workload by the untraced run.
const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics of the traced run besides the span attribution
/// (`trace::attributed_metrics`, all in seconds), with units. Every
/// workload reports every one; a layer that a workload does not call
/// reads 0.
const PER_LAYER: [(&str, &str); 24] = [
    ("traced_wall_s", "s"),
    ("unattributed_frac", "ratio"),
    ("trace_overhead", "ratio"),
    ("models.inner_cv_s", "s"),
    ("models.inner_cv_share", "ratio"),
    ("ml.tree_fit_us", "us"),
    ("passes.calls", "count"),
    ("graph.nodes", "count"),
    ("graph.unique_frac", "ratio"),
    ("store.bytes_written", "bytes"),
    ("workloads.module_s", "s"),
    ("sim.sweep_s", "s"),
    ("sim.calls", "count"),
    ("ml.reduce_labels_s", "s"),
    ("loader.decode_s", "s"),
    ("loader.bytes_read", "bytes"),
    ("loader.useful_frac", "ratio"),
    ("nn.infer_us.b1", "us"),
    ("nn.infer_us.b32", "us"),
    ("client.codec_us", "us"),
    ("serve.overhead_us.low", "us"),
    ("serve.overhead_us.high", "us"),
    ("serve.rejected", "count"),
    ("gen.lag_ms", "ms"),
];

/// How many times a run repeats its set-up (at least, and at most for cheap
/// set-ups); `setup_s` is the median.
const SETUP_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 25;

#[derive(Debug, Clone, Copy)]
pub enum Workload {
    Repro,
    Corpus,
    Train,
    Serve,
}

impl Workload {
    fn parse(s: &str) -> Result<Workload, String> {
        match s {
            "repro" => Ok(Workload::Repro),
            "corpus" => Ok(Workload::Corpus),
            "train" => Ok(Workload::Train),
            "serve" => Ok(Workload::Serve),
            _ => Err(format!("unknown workload `{s}` (repro|corpus|train|serve)")),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Repro => "repro",
            Workload::Corpus => "corpus",
            Workload::Train => "train",
            Workload::Serve => "serve",
        }
    }
}

/// What a child process reports: metrics, output checks, work counts and
/// an output fingerprint. Serialized as tagged stdout lines (`M`, `K`,
/// `W`, `I`, `F`).
#[derive(Default, Debug)]
pub struct Report {
    pub metrics: Metrics,
    pub checks: Vec<(String, bool, String)>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    /// Hash of the run's outputs; reps and the traced run must agree.
    pub fingerprint: Option<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.put(name, value, unit);
    }

    /// Record an output check; a failed check counts as one failed item.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        self.checks.push((name.to_string(), ok, detail.into()));
    }

    pub fn work(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    fn emit(&self) {
        for (n, v, u) in &self.metrics.0 {
            println!("M {n} {v:?} {u}");
        }
        for (n, ok, d) in &self.checks {
            println!("K {n} {} {d}", u8::from(*ok));
        }
        for s in &self.notes {
            println!("I {s}");
        }
        if let Some(f) = &self.fingerprint {
            println!("F {f}");
        }
        println!("W {} {}", self.attempted, self.failed);
    }

    fn parse(out: &str) -> Result<Report, String> {
        let mut r = Report::default();
        for line in out.lines() {
            let (tag, rest) = line.split_at(line.len().min(2));
            let f: Vec<&str> = rest.splitn(3, ' ').collect();
            match tag {
                "M " if f.len() == 3 => {
                    let v: f64 = f[1].parse().map_err(|_| format!("bad metric line `{line}`"))?;
                    let unit = UNITS.iter().find(|u| **u == f[2]).copied().unwrap_or("");
                    r.metric(f[0], v, unit);
                }
                "K " if f.len() >= 2 => {
                    let detail = f.get(2).unwrap_or(&"").to_string();
                    r.checks.push((f[0].to_string(), f[1] == "1", detail));
                }
                "W " if f.len() == 2 => {
                    r.attempted += f[0].parse::<u64>().map_err(|_| "bad W line")?;
                    r.failed += f[1].parse::<u64>().map_err(|_| "bad W line")?;
                }
                "I " => r.notes.push(rest.to_string()),
                "F " => r.fingerprint = Some(rest.to_string()),
                _ => {}
            }
        }
        Ok(r)
    }

    /// Fold another report's checks, work counts and notes into this one;
    /// its metrics fill only names this report does not have yet.
    fn merge(&mut self, other: Report) {
        self.checks.extend(other.checks);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for note in other.notes {
            if !self.notes.contains(&note) {
                self.notes.push(note);
            }
        }
        for (n, v, u) in other.metrics.0 {
            if self.metrics.get(&n).is_none() {
                self.metric(&n, v, u);
            }
        }
    }
}

const UNITS: [&str; 9] = ["s", "ms", "us", "MB", "ratio", "count", "bytes", "x", "req/s"];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: PathBuf,
    /// `trace`: the untraced median wall, for `trace_overhead`.
    wall: f64,
    /// `rep`: index of the repetition (rep 0 keeps its outputs for checks).
    rep: usize,
}

fn parse_args(rest: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Option<&str> {
        rest.iter().position(|a| a == flag).and_then(|i| rest.get(i + 1)).map(|s| s.as_str())
    };
    let workload = Workload::parse(get("--workload").ok_or("missing --workload")?)?;
    let seed = get("--seed").unwrap_or("1").parse().map_err(|_| "bad --seed")?;
    let seconds: f64 = get("--seconds").unwrap_or("10").parse().map_err(|_| "bad --seconds")?;
    let trace = match get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    let work = match get("--work") {
        Some(w) => PathBuf::from(w),
        None => PathBuf::from(".bench_work").join(format!(
            "{}-{seed}-{}",
            workload.name(),
            std::process::id()
        )),
    };
    let wall = get("--wall").unwrap_or("0").parse().map_err(|_| "bad --wall")?;
    let rep = get("--rep").unwrap_or("0").parse().map_err(|_| "bad --rep")?;
    Ok(Args { workload, seed, seconds: seconds.max(1.0), trace, work, wall, rep })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!(
            "usage: perfbench run --workload <repro|corpus|train|serve> --seed <n> \
             --seconds <s> --trace <0|1>"
        );
        return ExitCode::from(2);
    };
    let result = match cmd.as_str() {
        "daemon" => serve::daemon(rest),
        _ => parse_args(rest).and_then(|a| match cmd.as_str() {
            "run" => coordinate(&a),
            "setup" => setup(&a),
            "rep" => rep(&a).map(|r| r.emit()),
            "check" => check(&a).map(|r| r.emit()),
            "trace" => traced(&a).map(|r| r.emit()),
            other => Err(format!("unknown command `{other}`")),
        }),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Set the workload up repeatedly in this process, printing each duration
/// (`S <seconds>`): at least SETUP_REPS times, and for cheap set-ups until
/// a second is spent (at most SETUP_MAX_REPS), so the median is steady.
fn setup(a: &Args) -> Result<(), String> {
    std::fs::create_dir_all(&a.work).map_err(|e| e.to_string())?;
    let started = Instant::now();
    let mut reps = 0;
    while reps < SETUP_REPS || (util::secs(started) < 1.0 && reps < SETUP_MAX_REPS) {
        let t0 = Instant::now();
        match a.workload {
            Workload::Repro => repro::setup(a.seed, &a.work),
            Workload::Corpus => corpus::setup(a.seed, &a.work),
            Workload::Train => train::setup(a.seed, &a.work),
            Workload::Serve => serve::setup(a.seed, &a.work),
        }?;
        println!("S {:?}", util::secs(t0));
        reps += 1;
    }
    Ok(())
}

/// One timed repetition of the workload's call, in a fresh process.
fn rep(a: &Args) -> Result<Report, String> {
    let first = a.rep == 0;
    match a.workload {
        Workload::Repro => repro::rep(a.seed, &a.work),
        Workload::Corpus => corpus::rep(a.seed, &a.work),
        Workload::Train => train::rep(a.seed, &a.work, first),
        Workload::Serve => serve::rep(a.seed, a.seconds, &a.work, false),
    }
}

fn check(a: &Args) -> Result<Report, String> {
    match a.workload {
        Workload::Corpus => corpus::check(&a.work),
        Workload::Train => train::check(a.seed, &a.work),
        Workload::Repro | Workload::Serve => Ok(Report::default()),
    }
}

/// The traced run: per-layer spans and attribution.
fn traced(a: &Args) -> Result<Report, String> {
    match a.workload {
        Workload::Repro => repro::traced(a.seed, &a.work, a.wall),
        Workload::Corpus => corpus::traced(a.seed, &a.work, a.wall),
        Workload::Train => train::traced(a.seed, &a.work, a.wall),
        Workload::Serve => serve::rep(a.seed, a.seconds, &a.work, true),
    }
}

/// Run one child step of this binary; returns its stdout, wall seconds and
/// peak RSS. A failing child fails the run (no result is printed).
fn run_child(step: &str, a: &Args, extra: &[String]) -> Result<(String, f64, u64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let mut child = Command::new(exe)
        .arg(step)
        .args(["--workload", a.workload.name()])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .arg("--work")
        .arg(&a.work)
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn {step}: {e}"))?;
    let mut out = String::new();
    if let Some(stdout) = child.stdout.take() {
        for line in BufReader::new(stdout).lines() {
            out.push_str(&line.map_err(|e| e.to_string())?);
            out.push('\n');
        }
    }
    let (ok, rss) = util::wait_with_peak_rss(child).map_err(|e| format!("wait {step}: {e}"))?;
    let wall = util::secs(t0);
    if !ok {
        return Err(format!("`{step}` step failed"));
    }
    Ok((out, wall, rss))
}

fn coordinate(a: &Args) -> Result<(), String> {
    let result = coordinate_in(a);
    let _ = std::fs::remove_dir_all(&a.work);
    if let Some(parent) = a.work.parent() {
        let _ = std::fs::remove_dir(parent); // only if empty
    }
    result
}

fn coordinate_in(a: &Args) -> Result<(), String> {
    if a.work.exists() {
        std::fs::remove_dir_all(&a.work).map_err(|e| e.to_string())?;
    }
    std::fs::create_dir_all(&a.work).map_err(|e| e.to_string())?;

    let (out, _, _) = run_child("setup", a, &[])?;
    let setup_times: Vec<f64> =
        out.lines().filter_map(|l| l.strip_prefix("S ")).filter_map(|v| v.parse().ok()).collect();

    // Timed repetitions, each in a fresh process, until the time budget is
    // spent (at least the workload's minimum).
    let min_reps = match a.workload {
        Workload::Repro => 2,
        Workload::Corpus | Workload::Train => 3,
        Workload::Serve => 1,
    };
    let started = Instant::now();
    let mut reps: Vec<Report> = Vec::new();
    let (mut walls, mut cpus, mut rsss, mut child_walls) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    while reps.len() < min_reps || util::secs(started) + util::median(&child_walls) <= a.seconds {
        let (out, child_wall, rss) =
            run_child("rep", a, &["--rep".to_string(), reps.len().to_string()])?;
        let r = Report::parse(&out)?;
        walls.push(r.metrics.get("wall_s").ok_or("rep did not report wall_s")?);
        cpus.push(r.metrics.get("cpu_s").ok_or("rep did not report cpu_s")?);
        rsss.push(r.metrics.get("peak_rss_mb").unwrap_or(rss as f64 / (1024.0 * 1024.0)));
        child_walls.push(child_wall);
        reps.push(r);
    }
    let fingerprint = reps[0].fingerprint.clone();
    let mut report = Report::default();
    let wall_s = util::median(&walls);
    report.metric("wall_s", wall_s, "s");
    report.metric("cpu_s", util::median(&cpus), "s");
    report.metric("peak_rss_mb", util::median(&rsss), "MB");
    report.metric("setup_s", util::median(&setup_times), "s");
    if fingerprint.is_some() && reps.len() > 1 {
        let same = reps.iter().all(|r| r.fingerprint == fingerprint);
        report.check(
            &format!("{}.reps_identical", a.workload.name()),
            same,
            format!("{} reps", reps.len()),
        );
    }
    for r in reps {
        report.merge(r);
    }
    report.note(format!("wall_s per rep {walls:?}"));
    report.note(format!("cpu_s per rep {cpus:?}"));
    report.note(format!("peak_rss_mb per rep {rsss:?}"));
    report.note(format!("setup_s per rep {setup_times:?}"));
    if matches!(a.workload, Workload::Corpus | Workload::Train) {
        let (out, _, _) = run_child("check", a, &[])?;
        report.merge(Report::parse(&out)?);
    }
    if a.trace {
        let (out, _, _) = run_child("trace", a, &["--wall".to_string(), format!("{wall_s:?}")])?;
        let t = Report::parse(&out)?;
        if let (Some(f), Some(want)) = (&t.fingerprint, &fingerprint) {
            report.check(
                &format!("{}.traced_run_matches_untraced", a.workload.name()),
                f == want,
                "",
            );
        }
        report.merge(t);
    }

    // A failed work item (a skipped region, an error reply) makes the run
    // incorrect as much as a failed output check does.
    let correct = report.checks.iter().all(|(_, ok, _)| *ok) && report.failed == 0;
    let attempted = report.attempted.max(1);
    let error_rate = report.failed as f64 / attempted as f64;

    println!("workload {} seed {} trace {}", a.workload.name(), a.seed, u8::from(a.trace));
    for (n, v, u) in &report.metrics.0 {
        println!("metric {n} = {v} {u}");
    }
    println!("metric error_rate = {error_rate} ratio ({} failed of {attempted})", report.failed);
    for (n, ok, d) in &report.checks {
        println!("check {n}: {} {d}", if *ok { "ok" } else { "FAILED" });
    }
    for s in &report.notes {
        println!("note {s}");
    }

    let mut out = Metrics::default();
    if a.trace {
        for name in trace::attributed_metrics() {
            out.put(name, report.metrics.get(name).unwrap_or(0.0), "s");
        }
        for (name, unit) in PER_LAYER {
            out.put(name, report.metrics.get(name).unwrap_or(0.0), unit);
        }
    } else {
        for (name, unit) in END_TO_END {
            out.put(name, report.metrics.get(name).unwrap_or(0.0), unit);
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {}}}",
        report.failed,
        out.to_json()
    );
    Ok(())
}
