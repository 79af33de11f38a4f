//! `serve`: open-loop, seeded Poisson arrivals to the prediction daemon
//! (`irnuma_serve::Server`, the engine behind `irnuma serve`) running in
//! its own process. The model is trained in set-up at hidden 64; requests
//! are real region graphs of a set-up dataset, in seeded order.
//!
//! Generator: this process, one TCP connection, one sender thread (the
//! caller) and one receiver thread. Each request is timed from the moment
//! it was due, so a stalled sender shows up as latency, and the sender's
//! own lateness is reported separately (`gen.lag_ms`).

use crate::trace;
use crate::util::{cpu_seconds, median, quantile, sub_seed};
use crate::Report;
use irnuma_core::dataset::{build_dataset_report, BuildOptions, Dataset, DatasetParams};
use irnuma_core::models::static_gnn::training_sequence_ids;
use irnuma_graph::Vocab;
use irnuma_nn::{GnnClassifier, GnnConfig, GraphData, TrainParams};
use irnuma_serve::{response_matches, Reply, Request, Response, ServeConfig, Server};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const DATASET_FILE: &str = "serve-dataset.json";
const MODEL_FILE: &str = "serve-model.json";
const LOW_RPS: f64 = 200.0;
const HIGH_RPS: f64 = 1500.0;
/// Rungs above `high` for `max_rps`; `low` and `high` are the first two.
const LADDER_RPS: [f64; 7] = [2000.0, 3000.0, 4000.0, 6000.0, 8000.0, 12000.0, 16000.0];
/// Latency limit on p99 for a ladder rung to pass.
const P99_LIMIT_MS: f64 = 5.0;
/// p99 needs at least 10 samples beyond it.
const MIN_REQUESTS: usize = 1000;
/// Replies compared bit for bit against offline inference.
const SAMPLE: usize = 64;
/// Windows a fixed-rate load is split into. The daemon's CPU time is read
/// between windows, while the connection is idle, and `cpu_s` takes the
/// median window's CPU per request: a burst of host noise moves one
/// window, not the figure.
const WINDOWS: usize = 5;

pub fn setup(seed: u64, work: &Path) -> Result<(), String> {
    let p = DatasetParams {
        num_sequences: 12,
        calls: 3,
        seed: sub_seed(seed, 1),
        ..Default::default()
    };
    let build = build_dataset_report(irnuma_sim::MicroArch::Skylake, &p, &BuildOptions::default())
        .map_err(|e| e.to_string())?;
    if !build.skips.is_empty() {
        return Err(format!("{} regions skipped while building the dataset", build.skips.len()));
    }
    let ds = build.dataset;
    let seq_ids = training_sequence_ids(ds.sequences.len(), 4);
    let mut graphs = Vec::new();
    let mut labels = Vec::new();
    for (r, reg) in ds.regions.iter().enumerate() {
        for &s in &seq_ids {
            graphs.push(reg.graphs[s].clone());
            labels.push(ds.labels[r]);
        }
    }
    let mut clf = GnnClassifier::new(GnnConfig {
        vocab_size: Vocab::full().len(),
        hidden: 64,
        classes: ds.chosen_configs.len(),
        layers: 2,
        layer_norm: true,
        seed: sub_seed(seed, 3),
    });
    clf.fit(
        &graphs,
        &labels,
        TrainParams { epochs: 3, batch_size: 16, lr: 3e-3, seed: sub_seed(seed, 4) },
    );
    clf.save_json(&work.join(MODEL_FILE)).map_err(|e| e.to_string())?;
    ds.save_json(&work.join(DATASET_FILE)).map_err(|e| e.to_string())
}

/// `perfbench daemon --model <path>`: serve until stdin says `quit` or
/// closes. A `cpu` line on stdin is answered on stdout with the CPU
/// seconds (user + system) the daemon has used so far.
pub fn daemon(rest: &[String]) -> Result<(), String> {
    let model = rest
        .iter()
        .position(|a| a == "--model")
        .and_then(|i| rest.get(i + 1))
        .ok_or("daemon: missing --model")?;
    let server = Server::start(ServeConfig::new(model)).map_err(|e| format!("serve: {e}"))?;
    let mut out = std::io::stdout();
    writeln!(out, "addr {}", server.addr()).and_then(|_| out.flush()).map_err(|e| e.to_string())?;
    for line in std::io::stdin().lock().lines() {
        match line.as_deref().map(str::trim) {
            Ok("cpu") => writeln!(out, "cpu {:?}", cpu_seconds())
                .and_then(|_| out.flush())
                .map_err(|e| e.to_string())?,
            _ => break,
        }
    }
    server.shutdown();
    Ok(())
}

/// The benchmark's handle on the daemon process: its control pipe.
struct DaemonControl {
    stdin: std::process::ChildStdin,
    stdout: BufReader<std::process::ChildStdout>,
}

impl DaemonControl {
    /// CPU seconds the daemon has used so far.
    fn cpu_seconds(&mut self) -> Result<f64, String> {
        self.stdin
            .write_all(b"cpu\n")
            .and_then(|_| self.stdin.flush())
            .map_err(|e| e.to_string())?;
        let mut line = String::new();
        self.stdout.read_line(&mut line).map_err(|e| e.to_string())?;
        line.trim()
            .strip_prefix("cpu ")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("daemon: bad cpu reply `{}`", line.trim()))
    }
}

/// One open-loop session's outcome.
#[derive(Default)]
struct Session {
    rate: f64,
    n: usize,
    /// Due-to-reply latency per request (ms); `inf` for failed or missing.
    lat_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    errors: usize,
    rejected: usize,
    missing: usize,
    duplicate: usize,
    growing_backlog: bool,
    wall_s: f64,
    /// Sampled replies kept for the offline comparison: (pool index of the
    /// request's graph, raw reply line, parsed reply).
    kept: Vec<(usize, String, Response)>,
}

impl Session {
    fn p(&self, q: f64) -> f64 {
        quantile(&self.lat_ms, q)
    }

    fn failed(&self) -> usize {
        self.errors + self.missing + self.duplicate
    }

    fn passes(&self) -> bool {
        self.failed() == 0 && !self.growing_backlog && self.p(0.99) <= P99_LIMIT_MS
    }

    /// Append a later session at the same rate.
    fn absorb(&mut self, s: Session) {
        self.n += s.n;
        self.lat_ms.extend(s.lat_ms);
        self.lag_ms.extend(s.lag_ms);
        self.errors += s.errors;
        self.rejected += s.rejected;
        self.missing += s.missing;
        self.duplicate += s.duplicate;
        self.growing_backlog |= s.growing_backlog;
        self.wall_s += s.wall_s;
        self.kept.extend(s.kept);
    }
}

struct Generator<'a> {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    rng: ChaCha8Rng,
    pool: &'a [&'a GraphData],
    next_id: u64,
    /// Content hashes of every graph sent so far (for the repeat share).
    seen: HashSet<u64>,
    sent: usize,
    repeats: usize,
}

fn graph_hash(g: &GraphData) -> u64 {
    let mut h = DefaultHasher::new();
    g.node_text.hash(&mut h);
    g.edges.hash(&mut h);
    h.finish()
}

impl Generator<'_> {
    /// `n` requests at `rate` as WINDOWS back-to-back sessions. Returns the
    /// merged session and the daemon's CPU seconds for the `n` requests at
    /// the median window's CPU per request.
    fn fixed_rate(
        &mut self,
        daemon: &mut DaemonControl,
        rate: f64,
        n: usize,
        keep: usize,
    ) -> Result<(Session, f64), String> {
        let mut all = Session { rate, ..Default::default() };
        let mut cpu_per_request = Vec::with_capacity(WINDOWS);
        for w in 0..WINDOWS {
            let m = n / WINDOWS + usize::from(w < n % WINDOWS);
            let cpu0 = daemon.cpu_seconds()?;
            let s = self.session(rate, m, keep / WINDOWS)?;
            cpu_per_request.push((daemon.cpu_seconds()? - cpu0) / m as f64);
            all.absorb(s);
        }
        Ok((all, median(&cpu_per_request) * n as f64))
    }

    /// Run `n` requests at `rate` (Poisson arrivals) and collect replies,
    /// keeping about `keep` sampled replies.
    fn session(&mut self, rate: f64, n: usize, keep: usize) -> Result<Session, String> {
        // Inputs first, so the timed loop only sleeps and writes.
        let mut due = Vec::with_capacity(n);
        let mut graph_of = Vec::with_capacity(n);
        let mut lines = Vec::with_capacity(n);
        let mut t = 0.0f64;
        let base = self.next_id;
        for i in 0..n {
            let u: f64 = self.rng.gen_range(0.0..1.0);
            t += -(1.0 - u).ln() / rate;
            due.push((t * 1e9) as u64);
            let gi = self.rng.gen_range(0..self.pool.len());
            let g = self.pool[gi];
            graph_of.push(gi);
            self.sent += 1;
            self.repeats += usize::from(!self.seen.insert(graph_hash(g)));
            let id = base + i as u64;
            let req = Request { id, node_text: g.node_text.clone(), edges: g.edges.to_vec() };
            let mut line = serde_json::to_string(&req).map_err(|e| format!("{e:?}"))?;
            line.push('\n');
            lines.push(line);
        }
        self.next_id += n as u64;
        let keep_idx: HashSet<usize> = (0..keep).map(|_| self.rng.gen_range(0..n)).collect();

        let received = AtomicUsize::new(0);
        let (reader, writer) = (&mut self.reader, &mut self.writer);
        let t0 = Instant::now();
        let mut lag_ms = Vec::with_capacity(n);
        let mut inflight = Vec::with_capacity(n);
        let mut s = std::thread::scope(|scope| -> Result<Session, String> {
            let rx = scope.spawn(|| {
                let mut out = Session { n, lat_ms: vec![f64::INFINITY; n], ..Default::default() };
                let mut answered = vec![false; n];
                let mut line = String::new();
                let mut last = 0u64;
                while received.load(Ordering::Relaxed) < n {
                    line.clear();
                    match reader.read_line(&mut line) {
                        Ok(0) | Err(_) => break,
                        Ok(_) => {}
                    }
                    let now = t0.elapsed().as_nanos() as u64;
                    last = now;
                    received.fetch_add(1, Ordering::Relaxed);
                    let reply = Reply::parse(line.trim_end());
                    let idx =
                        reply.as_ref().map(|r| r.id().wrapping_sub(base) as usize).unwrap_or(n);
                    if idx >= n {
                        out.errors += 1;
                        continue;
                    }
                    if std::mem::replace(&mut answered[idx], true) {
                        out.duplicate += 1;
                        continue;
                    }
                    match reply {
                        Ok(Reply::Ok(resp)) => {
                            out.lat_ms[idx] = now.saturating_sub(due[idx]) as f64 / 1e6;
                            if keep_idx.contains(&idx) {
                                out.kept.push((graph_of[idx], line.trim_end().to_string(), resp));
                            }
                        }
                        Ok(Reply::Err(e)) => {
                            out.errors += 1;
                            out.rejected += usize::from(e.code == irnuma_serve::CODE_OVERLOADED);
                        }
                        Err(_) => out.errors += 1,
                    }
                }
                out.missing = answered.iter().filter(|a| !**a).count();
                out.wall_s = last as f64 / 1e9;
                out
            });
            for (i, line) in lines.iter().enumerate() {
                let due_at = Duration::from_nanos(due[i]);
                let now = t0.elapsed();
                if now < due_at {
                    std::thread::sleep(due_at - now);
                }
                lag_ms.push(t0.elapsed().saturating_sub(due_at).as_nanos() as f64 / 1e6);
                writer.write_all(line.as_bytes()).map_err(|e| format!("send: {e}"))?;
                inflight.push((i + 1).saturating_sub(received.load(Ordering::Relaxed)) as f64);
            }
            rx.join().map_err(|_| "receiver panicked".to_string())
        })?;
        s.rate = rate;
        s.lag_ms = lag_ms;
        s.growing_backlog = growing(&inflight);
        Ok(s)
    }
}

/// A backlog grows when the in-flight count rises quarter over quarter and
/// ends well above where it started.
fn growing(inflight: &[f64]) -> bool {
    let q = inflight.len() / 4;
    if q == 0 {
        return false;
    }
    let m: Vec<f64> =
        (0..4).map(|k| inflight[k * q..(k + 1) * q].iter().sum::<f64>() / q as f64).collect();
    m.windows(2).all(|w| w[1] >= w[0]) && m[3] > 2.0 * m[0] + 4.0
}

/// One serving run: the daemon in its own process, the two fixed-rate
/// open-loop sessions and the `max_rps` ladder. With `traced`, the ladder
/// gives way to the traced run.
pub fn rep(seed: u64, seconds: f64, work: &Path, traced: bool) -> Result<Report, String> {
    let ds = Dataset::load_json(&work.join(DATASET_FILE)).map_err(|e| e.to_string())?;
    let model_path = work.join(MODEL_FILE);
    let clf = GnnClassifier::load_json(&model_path).map_err(|e| e.to_string())?;
    let pool: Vec<&GraphData> = ds.regions.iter().flat_map(|r| r.graphs.iter()).collect();

    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut daemon = Command::new(exe)
        .arg("daemon")
        .arg("--model")
        .arg(&model_path)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn daemon: {e}"))?;
    let (stdin, stdout) = (daemon.stdin.take(), daemon.stdout.take());
    let result = match (stdin, stdout) {
        (Some(stdin), Some(stdout)) => {
            let mut control = DaemonControl { stdin, stdout: BufReader::new(stdout) };
            let mut first = String::new();
            let r = control
                .stdout
                .read_line(&mut first)
                .map_err(|e| e.to_string())
                .and_then(|_| {
                    first
                        .trim()
                        .strip_prefix("addr ")
                        .ok_or_else(|| format!("daemon did not report its address: `{first}`"))
                        .map(str::to_string)
                })
                .and_then(|addr| {
                    run_sessions(seed, seconds, traced, &addr, &pool, &clf, &mut control)
                });
            // Stop the daemon whatever happened.
            let _ = control.stdin.write_all(b"quit\n");
            r
        }
        _ => Err("daemon pipes".to_string()),
    };
    let (ok, rss) = crate::util::wait_with_peak_rss(daemon).map_err(|e| e.to_string())?;
    let mut r = result?;
    if !ok {
        return Err("daemon exited with an error".into());
    }
    r.metric("peak_rss_mb", rss as f64 / (1024.0 * 1024.0), "MB");
    Ok(r)
}

fn run_sessions(
    seed: u64,
    seconds: f64,
    traced: bool,
    addr: &str,
    pool: &[&GraphData],
    clf: &GnnClassifier,
    daemon: &mut DaemonControl,
) -> Result<Report, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream.set_read_timeout(Some(Duration::from_secs(10))).map_err(|e| e.to_string())?;
    let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut gen = Generator {
        writer: stream,
        reader,
        rng: ChaCha8Rng::seed_from_u64(sub_seed(seed, 5)),
        pool,
        next_id: 1,
        seen: HashSet::new(),
        sent: 0,
        repeats: 0,
    };
    // Size the two fixed-rate sessions to the time budget: `low` gets half
    // of it, `high` a sixth; each keeps at least MIN_REQUESTS.
    let n_low = MIN_REQUESTS.max((seconds * 0.5 * LOW_RPS) as usize);
    let n_high = MIN_REQUESTS.max((seconds / 6.0 * HIGH_RPS) as usize);
    let (low, low_cpu) = gen.fixed_rate(daemon, LOW_RPS, n_low, SAMPLE)?;
    let (high, high_cpu) = gen.fixed_rate(daemon, HIGH_RPS, n_high, 0)?;
    let (sent, repeats) = (gen.sent, gen.repeats);

    let mut r = Report::default();
    if traced {
        traced_run(&mut gen, daemon, clf, &low, &high, n_low, n_high, &mut r)?;
        return Ok(r);
    }
    let fixed = [&low, &high];
    r.work(fixed.iter().map(|s| s.n as u64).sum(), fixed.iter().map(|s| s.failed() as u64).sum());
    // `wall_s`: serving the fixed open-loop schedule, from the first due
    // time to the last reply of each window. The seeded schedule fixes
    // nearly all of it, so it moves only when the daemon falls behind (a
    // backlog); `cpu_s` is the figure the daemon's per-request cost moves.
    r.metric("wall_s", low.wall_s + high.wall_s, "s");
    // `cpu_s`: the daemon's CPU time for serving the two fixed-rate loads.
    r.metric("cpu_s", low_cpu + high_cpu, "s");
    for (s, tag) in [(&low, "low"), (&high, "high")] {
        r.metric(&format!("p50_ms.{tag}"), s.p(0.5), "ms");
        r.metric(&format!("p99_ms.{tag}"), s.p(0.99), "ms");
        r.note(format!(
            "serve.{tag}: {} req/s, {} requests (p99 has {} samples beyond it), {} errors ({} rejected), {} missing, backlog growing: {}",
            s.rate,
            s.n,
            s.n - (0.99 * s.n as f64).ceil() as usize,
            s.errors,
            s.rejected,
            s.missing,
            s.growing_backlog
        ));
    }
    r.check(
        "serve.every_id_answered_once",
        fixed.iter().all(|s| s.missing == 0 && s.duplicate == 0),
        format!("{} requests", fixed.iter().map(|s| s.n).sum::<usize>()),
    );
    // A seeded sample of `low` replies against offline inference.
    let graphs: Vec<GraphData> = low.kept.iter().map(|(gi, _, _)| pool[*gi].clone()).collect();
    let offline = clf.model.infer_batch(&graphs);
    let matched =
        low.kept.iter().zip(&offline).filter(|((_, _, resp), o)| response_matches(resp, o)).count();
    r.check(
        "serve.sample_equals_offline_infer_batch",
        !low.kept.is_empty() && matched == low.kept.len(),
        format!("{matched}/{} sampled replies", low.kept.len()),
    );
    r.metric("requests.repeat_frac", repeats as f64 / sent.max(1) as f64, "ratio");

    // The ladder: max_rps is the highest rate, climbing from `low`, whose
    // p99 stays within the limit with no errors and no growing backlog.
    let mut max_rps = 0.0;
    let mut rejected = low.rejected + high.rejected;
    for s in [&low, &high] {
        if !s.passes() {
            break;
        }
        max_rps = s.rate;
    }
    if max_rps == HIGH_RPS {
        for rate in LADDER_RPS {
            let s = gen.session(rate, MIN_REQUESTS, 0)?;
            rejected += s.rejected;
            r.note(format!(
                "serve.ladder: {rate} req/s p50 {:.3} ms p99 {:.3} ms errors {} backlog growing {}",
                s.p(0.5),
                s.p(0.99),
                s.failed(),
                s.growing_backlog
            ));
            if !s.passes() {
                break;
            }
            max_rps = rate;
        }
    }
    r.metric("max_rps", max_rps, "req/s");
    r.metric("serve.rejected", rejected as f64, "count");
    let lags: Vec<f64> = low.lag_ms.iter().chain(&high.lag_ms).copied().collect();
    r.metric("gen.lag_ms", quantile(&lags, 0.99), "ms");
    Ok(r)
}

/// The traced run: the two fixed-rate sessions again under session spans,
/// then the per-graph inference cost at batch 1 and 32 and the client
/// codec cost, measured in this process on the same model and graphs.
#[allow(clippy::too_many_arguments)]
fn traced_run(
    gen: &mut Generator,
    daemon: &mut DaemonControl,
    clf: &GnnClassifier,
    low: &Session,
    high: &Session,
    n_low: usize,
    n_high: usize,
    r: &mut Report,
) -> Result<(), String> {
    let capture = trace::start();
    let (traced_low, _) = {
        let _s = trace::span("serve.session");
        gen.fixed_rate(daemon, LOW_RPS, n_low, 0)?
    };
    let (traced_high, _) = {
        let _s = trace::span("serve.session");
        gen.fixed_rate(daemon, HIGH_RPS, n_high, 0)?
    };

    let graphs: Vec<&GraphData> = (0..256).map(|i| gen.pool[i * 7919 % gen.pool.len()]).collect();
    let plan = clf.model.plan();
    let per_graph_us = |batch: usize| -> f64 {
        let reps = 8;
        let _s = trace::span("nn.infer");
        let t0 = Instant::now();
        for _ in 0..reps {
            for chunk in graphs.chunks(batch) {
                std::hint::black_box(clf.model.infer_batch_planned(&plan, chunk));
            }
        }
        t0.elapsed().as_secs_f64() * 1e6 / (reps * graphs.len()) as f64
    };
    let b1 = per_graph_us(1);
    let b32 = per_graph_us(32);

    let replies: Vec<&str> = low.kept.iter().map(|(_, line, _)| line.as_str()).collect();
    let codec_reps = 4;
    let codec = trace::span("client.codec");
    let t0 = Instant::now();
    for _ in 0..codec_reps {
        for (i, g) in graphs.iter().enumerate() {
            let req =
                Request { id: i as u64, node_text: g.node_text.clone(), edges: g.edges.to_vec() };
            std::hint::black_box(serde_json::to_string(&req).ok());
            if !replies.is_empty() {
                std::hint::black_box(Reply::parse(replies[i % replies.len()]).ok());
            }
        }
    }
    let codec_us = t0.elapsed().as_secs_f64() * 1e6 / (codec_reps * graphs.len()) as f64;
    drop(codec);
    let t = capture.finish()?;

    t.report(r);
    r.metric("nn.infer_us.b1", b1, "us");
    r.metric("nn.infer_us.b32", b32, "us");
    r.metric("client.codec_us", codec_us, "us");
    r.metric("serve.overhead_us.low", low.p(0.5) * 1e3 - b1, "us");
    r.metric("serve.overhead_us.high", high.p(0.5) * 1e3 - b32, "us");
    r.metric(
        "trace_overhead",
        (traced_low.wall_s + traced_high.wall_s) / (low.wall_s + high.wall_s),
        "ratio",
    );
    r.note(format!(
        "serve traced sessions: p50 {:.3}/{:.3} ms, p99 {:.3}/{:.3} ms (low/high)",
        traced_low.p(0.5),
        traced_high.p(0.5),
        traced_low.p(0.99),
        traced_high.p(0.99)
    ));
    Ok(())
}
