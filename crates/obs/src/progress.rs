//! Live progress reporting: a sampler thread that diffs [`Registry`]
//! snapshots and prints periodic one-line status updates to stderr.
//!
//! The reporter is **observation only** — it never touches simulation
//! state, only reads the same atomics the metrics hooks write — so
//! enabling it cannot change a study's results. Each tick it reports
//! chips done/total, recent throughput, an ETA, per-worker utilization
//! (ShardExec busy time over `workers × interval`), and the timeout /
//! degraded counts that tell an operator whether a long run is healthy
//! or quietly losing shards.
//!
//! # Examples
//!
//! ```
//! use yac_obs::progress::{ProgressConfig, ProgressReporter};
//!
//! yac_obs::enable();
//! let reporter = ProgressReporter::start(
//!     yac_obs::global(),
//!     ProgressConfig { total_chips: 200, workers: 4, ..ProgressConfig::default() },
//! );
//! // ... run the study ...
//! reporter.stop(); // prints a final line and joins the sampler thread
//! ```

use crate::registry::{Metric, Phase, Registry, Snapshot};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What the reporter reports against.
#[derive(Debug, Clone)]
pub struct ProgressConfig {
    /// Total chips the run will sample (denominator for % and ETA).
    pub total_chips: u64,
    /// Total studies a sweep will run; 0 hides the studies segment.
    pub total_studies: u64,
    /// Worker-thread count (denominator for utilization).
    pub workers: usize,
    /// Time between progress lines.
    pub interval: Duration,
    /// Line prefix (defaults to `yac`).
    pub label: String,
}

impl Default for ProgressConfig {
    fn default() -> Self {
        ProgressConfig {
            total_chips: 0,
            total_studies: 0,
            workers: 1,
            interval: Duration::from_secs(2),
            label: "yac".to_owned(),
        }
    }
}

/// Renders one progress line from two registry snapshots taken
/// `interval` apart, `elapsed` into the run. Pure — this is what the
/// sampler thread prints and what the unit tests exercise.
///
/// Chips done is read as completed `Phase::Sample` guards (every sampled
/// chip passes through exactly one), clamped to the configured total.
#[must_use]
pub fn render_progress(
    prev: &Snapshot,
    cur: &Snapshot,
    elapsed: Duration,
    interval: Duration,
    config: &ProgressConfig,
) -> String {
    let sample = Phase::Sample as usize;
    let done = if config.total_chips > 0 {
        cur.phase_calls[sample].min(config.total_chips)
    } else {
        cur.phase_calls[sample]
    };
    let tick_s = interval.as_secs_f64().max(1e-9);
    let recent_rate =
        cur.phase_calls[sample].saturating_sub(prev.phase_calls[sample]) as f64 / tick_s;
    let overall_rate = done as f64 / elapsed.as_secs_f64().max(1e-9);

    let mut line = String::with_capacity(128);
    let _ = write!(line, "[{}] ", config.label);
    if config.total_studies > 0 {
        let studies_done = cur.counter(Metric::StudiesCompleted)
            + cur.counter(Metric::StudiesDegraded)
            + cur.counter(Metric::StudiesFailed);
        let _ = write!(
            line,
            "study {}/{} | ",
            studies_done.min(config.total_studies),
            config.total_studies
        );
    }
    if config.total_chips > 0 {
        let pct = 100.0 * done as f64 / config.total_chips as f64;
        let _ = write!(line, "{done}/{} chips ({pct:.1}%)", config.total_chips);
    } else {
        let _ = write!(line, "{done} chips");
    }
    let _ = write!(line, " | {recent_rate:.1} chips/s");
    if config.total_chips > 0 {
        let remaining = config.total_chips - done;
        // Prefer the recent rate; fall back to the whole-run average when
        // the last tick was idle (e.g. the run is in a non-sampling phase).
        let rate = if recent_rate > 0.0 {
            recent_rate
        } else {
            overall_rate
        };
        if remaining == 0 {
            line.push_str(" | ETA 0s");
        } else if rate > 0.0 {
            let _ = write!(line, " | ETA {}", human_duration(remaining as f64 / rate));
        } else {
            line.push_str(" | ETA --");
        }
    }
    let exec = Phase::ShardExec as usize;
    let busy_ns = cur.phase_nanos[exec].saturating_sub(prev.phase_nanos[exec]) as f64;
    let util = 100.0 * busy_ns / (config.workers.max(1) as f64 * tick_s * 1e9);
    let _ = write!(line, " | util {:.0}%", util.min(100.0));
    let delta = |m: Metric| cur.counter(m);
    let (timeouts, degraded) = (delta(Metric::ShardTimeouts), delta(Metric::DegradedShards));
    if timeouts > 0 || degraded > 0 {
        let _ = write!(line, " | timeouts {timeouts} | degraded {degraded}");
    }
    line
}

/// `734.2s` → `12m14s`-style compaction for ETA display.
fn human_duration(seconds: f64) -> String {
    if !seconds.is_finite() {
        return "--".to_owned();
    }
    let s = seconds.round() as u64;
    if s < 120 {
        format!("{s}s")
    } else if s < 7200 {
        format!("{}m{:02}s", s / 60, s % 60)
    } else {
        format!("{}h{:02}m", s / 3600, (s % 3600) / 60)
    }
}

/// The running reporter: owns the sampler thread, prints a final line
/// and joins it on [`ProgressReporter::stop`] (or on drop).
#[derive(Debug)]
pub struct ProgressReporter {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ProgressReporter {
    /// Spawns the sampler thread against `registry`. The thread wakes
    /// every `config.interval`, diffs snapshots and prints one line to
    /// stderr.
    ///
    /// If the OS refuses to spawn the sampler thread the reporter is
    /// returned inert (a warning is printed; the run itself proceeds
    /// unreported rather than aborting).
    #[must_use]
    pub fn start(registry: &'static Registry, config: ProgressConfig) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let spawned = std::thread::Builder::new()
            .name("yac-progress".into())
            .spawn(move || {
                let t0 = Instant::now();
                let mut prev = registry.snapshot();
                let mut last_tick = t0;
                while !stop_flag.load(Ordering::Relaxed) {
                    // Sleep in short slices so stop() returns promptly.
                    std::thread::sleep(Duration::from_millis(25));
                    if last_tick.elapsed() < config.interval {
                        continue;
                    }
                    let interval = last_tick.elapsed();
                    last_tick = Instant::now();
                    let cur = registry.snapshot();
                    eprintln!(
                        "{}",
                        render_progress(&prev, &cur, t0.elapsed(), interval, &config)
                    );
                    prev = cur;
                }
                // Final line so short runs still report once.
                let cur = registry.snapshot();
                let interval = last_tick.elapsed().max(Duration::from_millis(1));
                eprintln!(
                    "{}",
                    render_progress(&prev, &cur, t0.elapsed(), interval, &config)
                );
            });
        let handle = match spawned {
            Ok(handle) => Some(handle),
            Err(e) => {
                eprintln!("[yac] progress reporting disabled: {e}");
                None
            }
        };
        ProgressReporter { stop, handle }
    }

    /// Stops the sampler, printing one final progress line.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ProgressReporter {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn config(total: u64, workers: usize) -> ProgressConfig {
        ProgressConfig {
            total_chips: total,
            total_studies: 0,
            workers,
            interval: Duration::from_secs(1),
            label: "test".into(),
        }
    }

    fn snapshots(done_prev: u64, done_cur: u64, exec_ns: u64) -> (Snapshot, Snapshot) {
        let reg = Registry::new();
        reg.enable();
        for _ in 0..done_prev {
            reg.record_phase_nanos(Phase::Sample, 100);
        }
        let prev = reg.snapshot();
        for _ in done_prev..done_cur {
            reg.record_phase_nanos(Phase::Sample, 100);
        }
        if exec_ns > 0 {
            reg.record_phase_nanos(Phase::ShardExec, exec_ns);
        }
        (prev, reg.snapshot())
    }

    #[test]
    fn renders_counts_rate_eta_and_utilization() {
        let (prev, cur) = snapshots(100, 150, 2_000_000_000);
        let line = render_progress(
            &prev,
            &cur,
            Duration::from_secs(3),
            Duration::from_secs(1),
            &config(200, 4),
        );
        assert!(line.contains("150/200 chips (75.0%)"), "{line}");
        assert!(line.contains("50.0 chips/s"), "{line}");
        assert!(line.contains("ETA 1s"), "{line}");
        // 2 s of exec time over 4 workers × 1 s = 50%.
        assert!(line.contains("util 50%"), "{line}");
        // No timeout or degrade → the health segment is omitted.
        assert!(!line.contains("degraded"), "{line}");
    }

    #[test]
    fn idle_tick_falls_back_to_overall_rate_for_eta() {
        let (prev, cur) = snapshots(100, 100, 0);
        let line = render_progress(
            &prev,
            &cur,
            Duration::from_secs(10),
            Duration::from_secs(1),
            &config(200, 4),
        );
        assert!(line.contains("0.0 chips/s"), "{line}");
        // Overall rate 10 chips/s → 100 remaining → 10 s.
        assert!(line.contains("ETA 10s"), "{line}");
    }

    #[test]
    fn zero_progress_shows_unknown_eta_and_no_rate_blowup() {
        let (prev, cur) = snapshots(0, 0, 0);
        let line = render_progress(
            &prev,
            &cur,
            Duration::from_secs(1),
            Duration::from_secs(1),
            &config(200, 4),
        );
        assert!(line.contains("0/200 chips (0.0%)"), "{line}");
        assert!(line.contains("ETA --"), "{line}");
    }

    #[test]
    fn shard_health_counters_surface_when_nonzero() {
        let reg = Registry::new();
        reg.enable();
        let prev = reg.snapshot();
        reg.add(Metric::ShardTimeouts, 1);
        reg.add(Metric::DegradedShards, 2);
        let line = render_progress(
            &prev,
            &reg.snapshot(),
            Duration::from_secs(1),
            Duration::from_secs(1),
            &config(0, 2),
        );
        assert!(line.contains("timeouts 1 | degraded 2"), "{line}");
    }

    #[test]
    fn done_runs_report_eta_zero_and_clamp_to_total() {
        let (prev, cur) = snapshots(190, 250, 0);
        let line = render_progress(
            &prev,
            &cur,
            Duration::from_secs(5),
            Duration::from_secs(1),
            &config(200, 4),
        );
        // The chip proxy can overshoot the total: it clamps.
        assert!(line.contains("200/200 chips (100.0%)"), "{line}");
        assert!(line.contains("ETA 0s"), "{line}");
    }

    #[test]
    fn sweep_runs_lead_with_a_studies_segment() {
        let reg = Registry::new();
        reg.enable();
        let prev = reg.snapshot();
        reg.add(Metric::StudiesCompleted, 2);
        reg.add(Metric::StudiesDegraded, 1);
        let line = render_progress(
            &prev,
            &reg.snapshot(),
            Duration::from_secs(1),
            Duration::from_secs(1),
            &ProgressConfig {
                total_studies: 6,
                ..config(0, 2)
            },
        );
        assert!(line.contains("study 3/6"), "{line}");
        // Non-sweep configs never show the segment.
        let plain = render_progress(
            &prev,
            &reg.snapshot(),
            Duration::from_secs(1),
            Duration::from_secs(1),
            &config(0, 2),
        );
        assert!(!plain.contains("study"), "{plain}");
    }

    #[test]
    fn human_durations_compact() {
        assert_eq!(human_duration(3.4), "3s");
        assert_eq!(human_duration(119.0), "119s");
        assert_eq!(human_duration(734.0), "12m14s");
        assert_eq!(human_duration(7300.0), "2h01m");
        assert_eq!(human_duration(f64::INFINITY), "--");
    }

    #[test]
    fn reporter_thread_starts_and_stops_cleanly() {
        let reporter = ProgressReporter::start(
            crate::global(),
            ProgressConfig {
                interval: Duration::from_secs(60),
                ..config(10, 1)
            },
        );
        std::thread::sleep(Duration::from_millis(50));
        reporter.stop();
    }
}
