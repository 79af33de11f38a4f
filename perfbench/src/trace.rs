//! The traced run's span capture and wall-clock attribution, built on
//! `irnuma_obs`.
//!
//! A traced run installs an in-memory sink (`irnuma_obs::MemorySink`), opens
//! one benchmark root span and calls the layers' public functions. The
//! program's own spans (`eval.fold`, `passes.run`, `train.batch_grads`, ...)
//! and the few the benchmark adds around probes nest under that root; they
//! stay in memory until the run ends. Attribution walks the root's critical
//! path (`SpanForest::critical_path`): every nanosecond of the root's wall
//! goes to exactly one span on it, so the per-metric times below add up to
//! the traced wall exactly.

use irnuma_obs::{MemorySink, SpanForest, SpanGuard, SpanRecord};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Span name → per-layer metric that its critical-path time counts
/// towards. A span name listed nowhere counts as the benchmark's own time
/// (`bench.self_s`) and is named in a note.
const SPAN_METRICS: [(&str, &str); 26] = [
    ("eval.run", "eval.self_s"),
    ("eval.fold", "eval.self_s"),
    ("model.static.train", "models.static_train_s"),
    ("model.dynamic.train", "models.dynamic_train_s"),
    ("model.hybrid.train", "models.hybrid_train_s"),
    ("model.flags.train", "models.flags_train_s"),
    ("ml.ga", "ml.ga_s"),
    ("ml.ga_eval", "ml.ga_s"),
    ("train.fit", "nn.fit_self_s"),
    ("train.epoch", "nn.fit_self_s"),
    ("train.batch_grads", "nn.batch_grads_s"),
    ("train.graph_grads", "nn.batch_grads_s"),
    ("train.tape_grads", "nn.batch_grads_s"),
    ("infer.batch", "nn.infer_s"),
    ("infer.graph", "nn.infer_s"),
    ("nn.infer", "nn.infer_s"),
    ("dataset.build", "dataset.build_self_s"),
    ("dataset.region", "dataset.region_self_s"),
    ("passes.run", "passes.run_s"),
    ("ir.extract", "ir.extract_s"),
    ("graph.build", "graph.build_s"),
    ("store.write", "store.write_s"),
    ("loader.wait", "loader.wait_s"),
    ("serve.session", "serve.session_s"),
    ("client.codec", "client.codec_s"),
    ("bench.self", "bench.self_s"),
];

/// Every metric the attribution can produce, in report order.
pub fn attributed_metrics() -> Vec<&'static str> {
    let mut out: Vec<&'static str> = Vec::new();
    for (_, m) in SPAN_METRICS {
        if !out.contains(&m) {
            out.push(m);
        }
    }
    out
}

/// A traced window: the sink is installed and the root span open until
/// [`Capture::finish`].
pub struct Capture {
    sink: Arc<MemorySink>,
    root: SpanGuard,
}

/// Start recording and open the root span.
pub fn start() -> Capture {
    let sink = MemorySink::new();
    irnuma_obs::set_sink(sink.clone());
    Capture { sink, root: irnuma_obs::span!("bench.self") }
}

/// Open a benchmark span under the thread's innermost open span (inert
/// while no capture is running).
pub fn span(name: &'static str) -> SpanGuard {
    irnuma_obs::span!(name)
}

/// The recorded spans of one traced window.
pub struct Trace {
    forest: SpanForest,
    root: usize,
}

impl Capture {
    /// Close the root, stop recording and rebuild the span forest.
    pub fn finish(self) -> Result<Trace, String> {
        let root_id = self.root.ctx().span_id;
        drop(self.root);
        irnuma_obs::clear_sink();
        let spans: Vec<SpanRecord> =
            self.sink.events().iter().filter_map(SpanRecord::from_event).collect();
        let forest = SpanForest::build(spans);
        let root = forest
            .spans
            .iter()
            .position(|s| s.span_id == root_id)
            .ok_or("traced run: root span was not recorded")?;
        Ok(Trace { forest, root })
    }
}

impl Trace {
    /// Wall of the traced window, in seconds.
    pub fn wall_s(&self) -> f64 {
        self.forest.spans[self.root].dur_ns as f64 / 1e9
    }

    /// Spans named `name` (anywhere in the capture).
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRecord> + 'a {
        self.forest.spans.iter().filter(move |s| s.name == name)
    }

    /// Summed durations of the spans named `name`, in seconds; with
    /// `parent`, only those whose parent span has that name.
    pub fn inclusive_s(&self, name: &str, parent: Option<&str>) -> f64 {
        let span_by_id = |id: u64| self.forest.spans.iter().find(|s| s.span_id == id);
        self.named(name)
            .filter(|s| parent.is_none_or(|p| span_by_id(s.parent_id).is_some_and(|x| x.name == p)))
            .map(|s| s.dur_ns)
            .sum::<u64>() as f64
            / 1e9
    }

    /// Per-metric critical-path time of the root, plus the attribution
    /// summary. Every metric of [`attributed_metrics`] is reported (0 when
    /// the workload never reaches that span).
    pub fn report(&self, r: &mut crate::Report) {
        let mut by_metric: Vec<(&'static str, u64)> =
            attributed_metrics().into_iter().map(|m| (m, 0)).collect();
        let mut unmapped = BTreeSet::new();
        for seg in self.forest.critical_path(self.root) {
            let name = self.forest.spans[seg.index].name.as_str();
            let metric = match SPAN_METRICS.iter().find(|(n, _)| *n == name) {
                Some(&(_, m)) => m,
                None => {
                    unmapped.insert(name.to_string());
                    "bench.self_s"
                }
            };
            by_metric.iter_mut().find(|(m, _)| *m == metric).expect("listed metric").1 +=
                seg.self_ns;
        }
        let wall = self.wall_s();
        let mut layers = 0.0;
        let mut bench_self = 0.0;
        for (m, ns) in by_metric {
            let s = ns as f64 / 1e9;
            r.metric(m, s, "s");
            if m == "bench.self_s" {
                bench_self = s;
            } else {
                layers += s;
            }
        }
        r.metric("traced_wall_s", wall, "s");
        r.metric("unattributed_frac", bench_self / wall.max(1e-12), "ratio");
        r.note(format!(
            "attribution: traced wall {wall:.6} s = layers {layers:.6} s + benchmark self {bench_self:.6} s (critical path of the root span)"
        ));
        if !unmapped.is_empty() {
            r.note(format!("spans counted as benchmark self: {unmapped:?}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn attribution_sums_to_the_traced_wall() {
        let capture = start();
        {
            let _fit = span("train.fit");
            std::thread::sleep(Duration::from_millis(5));
            let _grads = span("train.batch_grads");
            std::thread::sleep(Duration::from_millis(10));
        }
        {
            let _other = span("not.a.layer");
            std::thread::sleep(Duration::from_millis(5));
        }
        let t = capture.finish().unwrap();
        let mut r = crate::Report::default();
        t.report(&mut r);
        let layers: f64 = attributed_metrics().iter().filter_map(|m| r.metrics.get(m)).sum();
        assert!((layers - t.wall_s()).abs() < 1e-6, "{layers} vs {}", t.wall_s());
        assert!(r.metrics.get("nn.batch_grads_s").unwrap() >= 0.010);
        assert!(r.metrics.get("nn.fit_self_s").unwrap() >= 0.005);
        // An unlisted span counts as the benchmark's own time.
        assert!(r.metrics.get("bench.self_s").unwrap() >= 0.005);
        assert!(r.notes.iter().any(|n| n.contains("not.a.layer")));
    }
}
