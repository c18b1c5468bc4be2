//! Run outcome, the per-layer aggregation of a traced run, and the result
//! line printed last on standard output.

use crate::stats::median;
use crate::trace::{Attribution, Span};
use std::collections::BTreeMap;

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// No output failed a check.
    pub correct: bool,
    /// Operations attempted (jobs, canaries, requests).
    pub attempted: u64,
    /// Operations that failed: panicked, refused, or wrong output.
    pub failed: u64,
    /// The metrics of this run (end-to-end untraced, per-layer traced).
    pub metrics: Vec<Metric>,
    /// Every failing operation by name, with the reason.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Records one failed operation; `wrong_output` also clears `correct`.
    pub fn fail(&mut self, label: &str, reason: &str, wrong_output: bool) {
        self.failed += 1;
        if wrong_output {
            self.correct = false;
        }
        self.failures.push(format!("{label}: {reason}"));
    }

    /// Appends a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // JSON has no NaN or infinity; a metric that is not finite
                // is a benchmark bug, reported as a failed run.
                let value = if m.value.is_finite() { m.value } else { -1.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct && self.metrics.iter().all(|m| m.value.is_finite()),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Layer figures that do not come from spans.
#[derive(Debug, Default, Clone)]
pub struct LayerCounts {
    /// Ops emitted by `route_cached` over the replayed jobs.
    pub routed_ops: u64,
    /// Exact oracle rows materialized.
    pub oracle_rows: u64,
    /// Landmark rows held.
    pub landmark_rows: u64,
    /// Approximate oracle bytes.
    pub oracle_bytes: u64,
    /// Result-cache hits and misses during EC jobs.
    pub ec_hits: u64,
    /// See `ec_hits`.
    pub ec_misses: u64,
    /// Memory-tier hits of the measured session.
    pub mem_hits: u64,
    /// Result-cache misses of the measured session.
    pub misses: u64,
    /// Pair-search time (ms): compile span minus replayed pipeline, over
    /// RB, AWE and PP jobs.
    pub search_ms: f64,
    /// Traced minus untraced end-to-end time, as % of untraced.
    pub overhead_pct: f64,
}

/// Per-name span durations (ns) of one traced pass.
fn durations_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        out.entry(s.name).or_default().push(s.duration() as f64);
    }
    out
}

/// The per-layer metrics of a traced run, in `BENCHMARK.json` order.
pub fn layer_metrics(
    spans: &[Span],
    attribution: &Attribution,
    counts: &LayerCounts,
) -> Vec<Metric> {
    let by_name = durations_by_name(spans);
    let sum_ms = |name: &str| {
        by_name
            .get(name)
            .map_or(0.0, |v| v.iter().sum::<f64>() / 1e6)
    };
    let med = |name: &str, scale: f64| by_name.get(name).map_or(0.0, |v| median(v) / scale);
    let lookups = counts.mem_hits + counts.misses;
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("circuit.dag_ms", sum_ms("circuit.dag"), "ms"),
        m(
            "mapping.map_ms",
            sum_ms("mapping.map") - sum_ms("arch.center"),
            "ms",
        ),
        m("arch.center_ms", med("arch.center", 1e6), "ms"),
        m("strategies.search_ms", counts.search_ms, "ms"),
        m("routing.route_ms", sum_ms("routing.route"), "ms"),
        m("routing.ops", counts.routed_ops as f64, "count"),
        m("scheduling.merge_ms", sum_ms("scheduling.merge"), "ms"),
        m(
            "scheduling.schedule_ms",
            sum_ms("scheduling.schedule"),
            "ms",
        ),
        m("scheduling.trace_ms", sum_ms("scheduling.trace"), "ms"),
        m("metrics.compute_ms", sum_ms("metrics.compute"), "ms"),
        m("cost.rows_materialized", counts.oracle_rows as f64, "count"),
        m("cost.landmark_rows", counts.landmark_rows as f64, "count"),
        m("cost.oracle_bytes", counts.oracle_bytes as f64, "bytes"),
        m("result_cache.ec_hits", counts.ec_hits as f64, "count"),
        m("result_cache.ec_misses", counts.ec_misses as f64, "count"),
        m("qasm.parse_us", med("qasm.parse", 1e3), "us"),
        m(
            "service.request_parse_us",
            med("service.request_parse", 1e3),
            "us",
        ),
        m(
            "service.event_encode_us",
            med("service.event_encode", 1e3),
            "us",
        ),
        m("service.submit_rtt_ms", med("service.submit", 1e6), "ms"),
        m("jobs.handoff_us", med("jobs.handoff", 1e3), "us"),
        m("result_cache.mem_hits", counts.mem_hits as f64, "count"),
        m("result_cache.misses", counts.misses as f64, "count"),
        m(
            "result_cache.hit_ratio",
            if lookups == 0 {
                0.0
            } else {
                counts.mem_hits as f64 / lookups as f64
            },
            "ratio",
        ),
        m(
            "result_cache.mem_hit_us",
            med("result_cache.mem_hit", 1e3),
            "us",
        ),
        m("persist.encode_us", med("persist.encode", 1e3), "us"),
        m("persist.decode_us", med("persist.decode", 1e3), "us"),
        m("store.store_us", med("store.store", 1e3), "us"),
        m("store.load_us", med("store.load", 1e3), "us"),
        m(
            "parametric.skeleton_ms",
            med("parametric.skeleton", 1e6),
            "ms",
        ),
        m("parametric.stamp_us", med("parametric.stamp", 1e3), "us"),
        m("trace.overhead_pct", counts.overhead_pct, "%"),
        m(
            "trace.unattributed_pct",
            100.0 * attribution.unattributed_ns as f64 / attribution.job_ns.max(1) as f64,
            "%",
        ),
    ]
}

/// Prints the per-stage attribution table of the job spans.
pub fn print_attribution(workload: &str, a: &Attribution) {
    let total = a.job_ns.max(1) as f64;
    println!(
        "per-layer self time, {workload} (share of job spans, {} ms):",
        a.job_ns / 1_000_000
    );
    let mut rows: Vec<(&str, u64)> = a.stage_self_ns.iter().map(|(k, v)| (*k, *v)).collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1));
    for (name, ns) in rows {
        println!(
            "  {name:<24} {:>12.3} ms {:>7.2}%",
            ns as f64 / 1e6,
            100.0 * ns as f64 / total
        );
    }
    println!(
        "  {:<24} {:>12.3} ms {:>7.2}%",
        "(unattributed)",
        a.unattributed_ns as f64 / 1e6,
        100.0 * a.unattributed_ns as f64 / total
    );
}
