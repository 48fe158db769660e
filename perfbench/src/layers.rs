//! Per-layer metrics of a traced run, read from outside the program: the
//! benchmark's own timings around public calls, the program's existing
//! `delrec_obs` span profile, and its always-on counters.
//!
//! A layer a workload does not exercise reads 0 (no retrieval scan on
//! `score_open`, no LM on `catalog_scan`). A percentile of a layer that *is*
//! exercised but too thinly to report is an error, never a silent 0.

use crate::stats::percentile;
use delrec_obs::{MetricValue, ProfileReport, SpanStats};
use std::collections::{BTreeMap, HashMap};

/// Every per-layer metric with its unit, in report order.
pub const METRICS: &[(&str, &str)] = &[
    ("serve.submit_us.p50", "us"),
    ("serve.submit_us.p99", "us"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.p99", "ms"),
    ("serve.service_ms.p50", "ms"),
    ("serve.service_ms.p99", "ms"),
    ("serve.batch_size.mean", "req"),
    ("serve.rejected", "count"),
    ("serve.shed", "count"),
    ("serve.timed_out", "count"),
    ("serve.publish_us", "us"),
    ("serve.post_publish_ms.p99", "ms"),
    ("serve.wal.appends_per_req", "count"),
    ("serve.wal.bytes_per_req", "bytes"),
    ("serve.wal.snapshots", "count"),
    ("serve.wal.recover_ms", "ms"),
    ("serve.wal.records_recovered", "count"),
    ("failed_frac", "ratio"),
    ("p99_ms", "ms"),
    ("core.score_batch_ms.p50", "ms"),
    ("core.score_batch_ms.p99", "ms"),
    ("core.score_batch_rows.mean", "req"),
    ("core.prompts.self_us_per_req", "us"),
    ("core.prefix_cache.hit_ratio", "ratio"),
    ("retrieval.scan.self_us_per_query", "us"),
    ("retrieval.topk.self_us_per_query", "us"),
    ("retrieval.scan.gbps", "GB/s"),
    ("retrieval.export_ms", "ms"),
    ("retrieval.index.hit_ratio", "ratio"),
    ("lm.embed.self_us_per_req", "us"),
    ("lm.qkv.self_us_per_req", "us"),
    ("lm.attn_scores.self_us_per_req", "us"),
    ("lm.attn_mix.self_us_per_req", "us"),
    ("lm.wo.self_us_per_req", "us"),
    ("lm.ffn.self_us_per_req", "us"),
    ("lm.head.self_us_per_req", "us"),
    ("lm.verbalize.self_us_per_req", "us"),
    ("lm.title_cache.hit_ratio", "ratio"),
    ("lm.title_cache.misses", "count"),
    ("lm.weight_pack.hit_ratio", "ratio"),
    ("tensor.gelu.self_us_per_req", "us"),
    ("tensor.pool.hit_ratio", "ratio"),
    ("par.pool.tasks_per_req", "count"),
    ("par.task.self_us_per_req", "us"),
    ("eval.order_sensitivity", "ratio"),
    ("bench.gen_lag_p99_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.span_coverage_pct", "%"),
];

/// LM phase spans reported as self time per request.
const LM_PHASES: &[&str] = &[
    "embed",
    "qkv",
    "attn_scores",
    "attn_mix",
    "wo",
    "ffn",
    "head",
    "verbalize",
];

/// Counter and gauge values of the global registry.
pub fn registry() -> HashMap<String, f64> {
    delrec_obs::global()
        .snapshot()
        .into_iter()
        .filter_map(|(name, v)| match v {
            MetricValue::Counter(c) => Some((name, c as f64)),
            MetricValue::Gauge(g) => Some((name, g)),
            _ => None,
        })
        .collect()
}

/// `num / den`, or 0 when the denominator is 0 (the layer did not run).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Percentile of a layer's samples: 0 when the layer did not run, an error
/// when it ran too few times to report.
pub fn layer_percentile(name: &str, samples: &[f64], q: f64) -> Result<f64, String> {
    if samples.is_empty() {
        return Ok(0.0);
    }
    percentile(samples, q).map_err(|e| format!("{name}: {e}"))
}

/// The traced window's registry deltas and span profile.
pub struct Trace {
    before: HashMap<String, f64>,
    after: HashMap<String, f64>,
    /// Merged span profile of the traced window.
    pub profile: ProfileReport,
}

impl Trace {
    /// Start tracing: snapshot the registry, clear and enable the profiler.
    pub fn begin() -> HashMap<String, f64> {
        let before = registry();
        delrec_obs::reset();
        delrec_obs::set_enabled(true);
        before
    }

    /// Stop tracing and collect the window.
    pub fn end(before: HashMap<String, f64>) -> Trace {
        delrec_obs::set_enabled(false);
        Trace {
            before,
            after: registry(),
            profile: delrec_obs::profile(),
        }
    }

    /// Increase of counter `name` over the window.
    pub fn delta(&self, name: &str) -> f64 {
        self.after.get(name).copied().unwrap_or(0.0) - self.before.get(name).copied().unwrap_or(0.0)
    }

    /// Value of counter or gauge `name` at the end of the window.
    pub fn at_end(&self, name: &str) -> f64 {
        self.after.get(name).copied().unwrap_or(0.0)
    }

    fn flat(&self, name: &str) -> (f64, f64) {
        self.profile
            .flat()
            .iter()
            .find(|f| f.name == name)
            .map_or((0.0, 0.0), |f| (f.self_ns as f64, f.total_ns as f64))
    }

    /// Self time of span `name` in microseconds per `per` units of work.
    pub fn self_us_per(&self, name: &str, per: f64) -> f64 {
        ratio(self.flat(name).0 / 1e3, per)
    }

    /// Total time of span `name` in nanoseconds.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.flat(name).1
    }

    /// Share of the time inside spans named `outer` that their child spans
    /// account for, in percent (None when no such span ran).
    pub fn coverage_pct(&self, outer: &[&str]) -> Option<f64> {
        fn walk(s: &SpanStats, outer: &[&str], acc: &mut (u64, u64)) {
            if outer.contains(&s.name) {
                acc.0 += s.total_ns;
                acc.1 += s.children.iter().map(|c| c.total_ns).sum::<u64>();
            } else {
                s.children.iter().for_each(|c| walk(c, outer, acc));
            }
        }
        let mut acc = (0, 0);
        self.profile
            .roots()
            .iter()
            .for_each(|r| walk(r, outer, &mut acc));
        (acc.0 > 0).then(|| 100.0 * acc.1 as f64 / acc.0 as f64)
    }

    /// The layer metrics every workload reads from the profile and the
    /// counters alone, normalized by `requests` units of work.
    pub fn common(&self, requests: f64, index_bytes: f64) -> BTreeMap<String, f64> {
        let mut m = BTreeMap::new();
        for phase in LM_PHASES {
            let span = format!("lm.{phase}");
            m.insert(
                format!("{span}.self_us_per_req"),
                self.self_us_per(&span, requests),
            );
        }
        let pair = |hit: &str, miss: &str| {
            let (h, x) = (self.delta(hit), self.delta(miss));
            ratio(h, h + x)
        };
        m.insert(
            "core.prompts.self_us_per_req".into(),
            self.self_us_per("core.prompts", requests),
        );
        m.insert(
            "core.prefix_cache.hit_ratio".into(),
            pair("core.prefix_cache.hit", "core.prefix_cache.rebuild"),
        );
        let rows = self.delta("retrieval.scan.rows");
        m.insert(
            "retrieval.scan.self_us_per_query".into(),
            self.self_us_per("retrieval.scan", rows),
        );
        m.insert(
            "retrieval.topk.self_us_per_query".into(),
            self.self_us_per("retrieval.topk", rows),
        );
        // Computed from sizes: the bytes a scan of every row would stream if
        // each query read the whole index, over the time inside scan spans.
        m.insert(
            "retrieval.scan.gbps".into(),
            ratio(index_bytes * rows, self.total_ns("retrieval.scan")),
        );
        m.insert(
            "retrieval.index.hit_ratio".into(),
            pair("retrieval.index.hit", "retrieval.index.build"),
        );
        m.insert(
            "lm.title_cache.hit_ratio".into(),
            pair("lm.title_cache.hit", "lm.title_cache.miss"),
        );
        m.insert(
            "lm.title_cache.misses".into(),
            self.delta("lm.title_cache.miss"),
        );
        m.insert(
            "lm.weight_pack.hit_ratio".into(),
            pair("lm.weight_pack.hit", "lm.weight_pack.build"),
        );
        m.insert(
            "tensor.gelu.self_us_per_req".into(),
            self.self_us_per("tensor.gelu", requests),
        );
        let takes = self.delta("tensor.pool.take");
        m.insert(
            "tensor.pool.hit_ratio".into(),
            if takes == 0.0 {
                0.0
            } else {
                1.0 - self.delta("tensor.pool.miss") / takes
            },
        );
        m.insert(
            "par.pool.tasks_per_req".into(),
            ratio(self.delta("par.pool.tasks"), requests),
        );
        m.insert(
            "par.task.self_us_per_req".into(),
            self.self_us_per("par.task", requests),
        );
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_listed_in_the_benchmark_record() {
        let record =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in METRICS {
            assert!(seen.insert(*name), "{name} listed twice");
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\":");
            assert!(
                record.contains(&entry),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
    }

    #[test]
    fn thin_layers_are_refused_and_idle_layers_read_zero() {
        assert_eq!(layer_percentile("x", &[], 0.99).unwrap(), 0.0);
        assert!(layer_percentile("x", &[1.0; 50], 0.99).is_err());
        assert_eq!(layer_percentile("x", &[2.0; 1000], 0.99).unwrap(), 2.0);
    }
}
