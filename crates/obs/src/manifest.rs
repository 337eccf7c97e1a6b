//! The structured run manifest: everything a benchmark run needs to be
//! comparable later, serialized to a stable, dependency-free JSON schema.
//!
//! Schema `yac-perf-report/3` (consumed by CI's `bench-smoke` gate and by
//! humans diffing `BENCH_*.json` files):
//!
//! ```json
//! {
//!   "schema": "yac-perf-report/3",
//!   "name": "perf_report",
//!   "run": { "seed": 2006, "chips": 200, "threads": 8,
//!            "quarantined": 0, "peak_rss_bytes": 123456 },
//!   "metrics": [ { "name": "total_wall_time", "value": 1.25, "unit": "s" },
//!                { "name": "chips_per_sec", "value": 160.1, "unit": "chips/s" } ],
//!   "phases":  [ { "name": "sample", "wall_time_s": 0.21, "span_time_s": 0.5,
//!                  "calls": 200, "mean_us": 2500.0, "p99_us": 4096.0,
//!                  "buckets": [[2097152, 180], [4194304, 20]] } ],
//!   "counters": [ { "name": "dies_sampled", "value": 200 } ]
//! }
//! ```
//!
//! Version 2 fixes v1's dishonest phase units: v1's single
//! `wall_time_s` / `phase_<x>_time` summed concurrent guard lifetimes
//! across threads, so a parallel phase could "take" 10.9 s inside a
//! 0.70 s run. v2 labelled that summed figure `cpu_time_s` /
//! `phase_<x>_cpu_time` and added a true wall-clock union
//! (`wall_time_s` / `phase_<x>_wall_time`: time during which ≥ 1 guard
//! of the phase was open, never more than elapsed real time). Version 3
//! renames the summed figure to what it is, `span_time_s` /
//! `phase_<x>_span_time`: guard lifetimes include time a thread spends
//! blocked or descheduled, so they are not CPU time. Each
//! phase also carries its raw log₂ `buckets` as `[le_ns, count]` pairs
//! so downstream tools can compute real quantiles instead of trusting
//! the factor-of-two `p99_us`.
//!
//! `metrics[].name` values never change meaning, and only a schema bump
//! renames one, so a gate reading `chips_per_sec` keeps working across
//! versions.

use crate::json::json_string;
use crate::registry::{Metric, Phase, Registry};
use std::fmt::Write as _;

/// One scalar measurement in the manifest's `metrics` array.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestMetric {
    /// Stable snake_case name (`total_wall_time`, `chips_per_sec`, ...).
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit string (`s`, `chips/s`, `uops/s`, ...).
    pub unit: String,
}

/// Per-phase timing block of the manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseReport {
    /// Phase name (see [`Phase::name`]).
    pub name: &'static str,
    /// Wall-clock seconds during which ≥ 1 guard of the phase was open
    /// (the union of guard intervals — bounded by elapsed real time).
    pub wall_time_s: f64,
    /// Accumulated guard time, seconds, summed over all guards — a
    /// phase whose guards run on parallel workers can exceed wall-clock
    /// time, and a guard counts while its thread is blocked, so this is
    /// summed span lifetime, not CPU time.
    pub span_time_s: f64,
    /// Completed guard count.
    pub calls: u64,
    /// Mean guard duration, microseconds.
    pub mean_us: f64,
    /// Factor-of-two p99 guard duration, microseconds.
    pub p99_us: f64,
    /// Non-empty log₂ latency buckets as `(le_ns, count)` pairs (see
    /// [`crate::Histogram::nonzero_buckets`]) — the raw data behind
    /// `p99_us`, for tools that want better quantiles.
    pub buckets: Vec<(u64, u64)>,
}

/// The structured description of one benchmark/study run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Run label (e.g. `perf_report`).
    pub name: String,
    /// Monte Carlo seed the run used.
    pub seed: u64,
    /// Chips simulated.
    pub chips: usize,
    /// Worker threads available to the run.
    pub threads: usize,
    /// Chips quarantined across the run.
    pub quarantined: u64,
    /// Peak resident set size, when the platform exposes it.
    pub peak_rss_bytes: Option<u64>,
    /// Headline scalar measurements.
    pub metrics: Vec<ManifestMetric>,
    /// Per-phase breakdown.
    pub phases: Vec<PhaseReport>,
    /// Raw counter values.
    pub counters: Vec<(&'static str, u64)>,
}

impl RunManifest {
    /// Builds a manifest from the registry's current state plus run
    /// metadata. `total_wall_s` is the caller's end-to-end wall time;
    /// `chips_per_sec` is derived from it.
    #[must_use]
    pub fn capture(
        name: &str,
        registry: &Registry,
        seed: u64,
        chips: usize,
        total_wall_s: f64,
    ) -> Self {
        let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let chips_per_sec = if total_wall_s > 0.0 {
            chips as f64 / total_wall_s
        } else {
            0.0
        };
        let uops = registry.counter(Metric::UopsCommitted);
        let uops_per_sec = if total_wall_s > 0.0 {
            uops as f64 / total_wall_s
        } else {
            0.0
        };
        let mut metrics = vec![
            ManifestMetric {
                name: "total_wall_time".into(),
                value: total_wall_s,
                unit: "s".into(),
            },
            ManifestMetric {
                name: "chips_per_sec".into(),
                value: chips_per_sec,
                unit: "chips/s".into(),
            },
            ManifestMetric {
                name: "uops_per_sec".into(),
                value: uops_per_sec,
                unit: "uops/s".into(),
            },
        ];
        for phase in Phase::ALL {
            metrics.push(ManifestMetric {
                name: format!("phase_{}_span_time", phase.name()),
                value: registry.phase_nanos(phase) as f64 / 1e9,
                unit: "s".into(),
            });
            metrics.push(ManifestMetric {
                name: format!("phase_{}_wall_time", phase.name()),
                value: registry.phase_wall_nanos(phase) as f64 / 1e9,
                unit: "s".into(),
            });
        }
        RunManifest {
            name: name.to_owned(),
            seed,
            chips,
            threads,
            quarantined: registry.counter(Metric::ChipsQuarantined),
            peak_rss_bytes: peak_rss_bytes(),
            metrics,
            phases: Phase::ALL
                .iter()
                .map(|&p| {
                    let hist = registry.phase_histogram(p);
                    PhaseReport {
                        name: p.name(),
                        wall_time_s: registry.phase_wall_nanos(p) as f64 / 1e9,
                        span_time_s: registry.phase_nanos(p) as f64 / 1e9,
                        calls: registry.phase_calls(p),
                        mean_us: hist.mean_nanos() / 1e3,
                        p99_us: hist.quantile_nanos(0.99) as f64 / 1e3,
                        buckets: hist.nonzero_buckets(),
                    }
                })
                .collect(),
            counters: Metric::ALL
                .iter()
                .map(|&m| (m.name(), registry.counter(m)))
                .collect(),
        }
    }

    /// The value of a named metric, if present.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Serializes the manifest to schema `yac-perf-report/3` JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("{\n  \"schema\": \"yac-perf-report/3\",\n");
        let _ = writeln!(out, "  \"name\": {},", json_string(&self.name));
        let _ = write!(
            out,
            "  \"run\": {{ \"seed\": {}, \"chips\": {}, \"threads\": {}, \"quarantined\": {}, \"peak_rss_bytes\": ",
            self.seed, self.chips, self.threads, self.quarantined
        );
        match self.peak_rss_bytes {
            Some(b) => {
                let _ = write!(out, "{b}");
            }
            None => out.push_str("null"),
        }
        out.push_str(" },\n  \"metrics\": [\n");
        for (i, m) in self.metrics.iter().enumerate() {
            let _ = write!(
                out,
                "    {{ \"name\": {}, \"value\": {}, \"unit\": {} }}",
                json_string(&m.name),
                json_f64(m.value),
                json_string(&m.unit)
            );
            out.push_str(if i + 1 < self.metrics.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n  \"phases\": [\n");
        for (i, p) in self.phases.iter().enumerate() {
            let _ = write!(
                out,
                "    {{ \"name\": {}, \"wall_time_s\": {}, \"span_time_s\": {}, \"calls\": {}, \"mean_us\": {}, \"p99_us\": {}, \"buckets\": [",
                json_string(p.name),
                json_f64(p.wall_time_s),
                json_f64(p.span_time_s),
                p.calls,
                json_f64(p.mean_us),
                json_f64(p.p99_us)
            );
            for (j, (le_ns, count)) in p.buckets.iter().enumerate() {
                let _ = write!(out, "[{le_ns}, {count}]");
                if j + 1 < p.buckets.len() {
                    out.push_str(", ");
                }
            }
            out.push_str("] }");
            out.push_str(if i + 1 < self.phases.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n  \"counters\": [\n");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            let _ = write!(
                out,
                "    {{ \"name\": {}, \"value\": {} }}",
                json_string(name),
                value
            );
            out.push_str(if i + 1 < self.counters.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Formats an `f64` as a JSON number (finite guaranteed by callers;
/// non-finite values degrade to `0` rather than emitting invalid JSON).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "0".to_owned()
    }
}

/// Extracts `metrics[].value` for a named metric from schema
/// `yac-perf-report/3` JSON text (v1 and v2 work too — the `metrics`
/// shape is unchanged).
///
/// This is a deliberately narrow reader for our own stable serializer —
/// it searches for the `"name": "<name>"` / `"value": <number>` pair the
/// schema guarantees — not a general JSON parser (the container carries
/// no JSON dependency).
///
/// # Examples
///
/// ```
/// let json = r#"{ "metrics": [ { "name": "chips_per_sec", "value": 42.5, "unit": "chips/s" } ] }"#;
/// assert_eq!(yac_obs::extract_metric(json, "chips_per_sec"), Some(42.5));
/// assert_eq!(yac_obs::extract_metric(json, "missing"), None);
/// ```
#[must_use]
pub fn extract_metric(json: &str, name: &str) -> Option<f64> {
    let needle = format!("\"name\": {}", json_string(name));
    let at = json.find(&needle)?;
    let rest = &json[at + needle.len()..];
    let vstart = rest.find("\"value\":")? + "\"value\":".len();
    let tail = rest[vstart..].trim_start();
    let end = tail
        .find(|c: char| {
            !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e' || c == 'E')
        })
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

/// Peak resident set size of this process in bytes (Linux `VmHWM`),
/// `None` where `/proc` is unavailable.
#[must_use]
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_manifest() -> RunManifest {
        let reg = Registry::new();
        reg.enable();
        reg.add(Metric::DiesSampled, 200);
        reg.add(Metric::UopsCommitted, 1_000_000);
        reg.record_phase_nanos(Phase::Sample, 500_000_000);
        RunManifest::capture("unit_test", &reg, 2006, 200, 1.25)
    }

    #[test]
    fn capture_derives_throughput() {
        let m = sample_manifest();
        assert_eq!(m.metric("total_wall_time"), Some(1.25));
        assert_eq!(m.metric("chips_per_sec"), Some(160.0));
        assert_eq!(m.metric("uops_per_sec"), Some(800_000.0));
        assert_eq!(m.metric("phase_sample_span_time"), Some(0.5));
        // `record_phase_nanos` feeds externally-measured durations: span
        // time only, no wall interval.
        assert_eq!(m.metric("phase_sample_wall_time"), Some(0.0));
        assert_eq!(m.quarantined, 0);
        assert!(m.threads >= 1);
    }

    #[test]
    fn json_round_trips_through_extract_metric() {
        let m = sample_manifest();
        let json = m.to_json();
        assert!(json.contains("\"schema\": \"yac-perf-report/3\""));
        for metric in &m.metrics {
            let parsed = extract_metric(&json, &metric.name)
                .unwrap_or_else(|| panic!("metric {} missing from JSON", metric.name));
            assert!(
                (parsed - metric.value).abs() <= 1e-6 * metric.value.abs().max(1.0),
                "{}: {parsed} vs {}",
                metric.name,
                metric.value
            );
        }
        // Counters appear too.
        assert!(json.contains("\"dies_sampled\""));
    }

    #[test]
    fn phases_carry_wall_cpu_and_raw_buckets() {
        let m = sample_manifest();
        let sample = m.phases.iter().find(|p| p.name == "sample").unwrap();
        assert_eq!(sample.span_time_s, 0.5);
        assert_eq!(sample.wall_time_s, 0.0);
        // One 0.5 s call lands in the (2^28, 2^29] ns bucket.
        assert_eq!(sample.buckets, vec![(1u64 << 29, 1)]);
        let json = m.to_json();
        assert!(json.contains("\"span_time_s\": 0.500000"));
        assert!(json.contains(&format!("\"buckets\": [[{}, 1]]", 1u64 << 29)));
        // Phases with no samples serialize an empty bucket list.
        assert!(json.contains("\"buckets\": [] }"));
    }

    #[test]
    fn extract_metric_rejects_garbage() {
        assert_eq!(extract_metric("", "x"), None);
        assert_eq!(extract_metric("{\"name\": \"x\"}", "x"), None);
    }

    #[test]
    fn peak_rss_is_plausible_on_linux() {
        if let Some(rss) = peak_rss_bytes() {
            // A running test process surely uses between 64 KiB and 1 TiB.
            assert!(rss > 64 * 1024 && rss < (1 << 40), "rss {rss}");
        }
    }
}
