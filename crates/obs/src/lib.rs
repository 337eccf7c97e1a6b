//! Observability for the yield-study pipeline: a lock-free metrics
//! registry (counters, phase timers, latency histograms), a structured
//! event journal with Perfetto/NDJSON exporters, a live progress
//! reporter, and a machine-readable run manifest.
//!
//! The whole layer is **zero-cost when disabled**: every hook is guarded
//! by one relaxed atomic load, takes no lock and performs no allocation,
//! and enabling it never changes any simulation result — metrics and
//! traces are strictly observational. The hot paths of every other crate
//! (`yac_variation` sampling, `yac_circuit` evaluation, `yac_core`
//! classification, scheme rescue and the supervised shard executor, the
//! `yac_pipeline` simulator) call
//! the free functions in this crate against the process-global
//! [`Registry`] and [`trace::Journal`]; a study driver that wants
//! numbers calls [`enable`], runs, and snapshots a [`RunManifest`]; one
//! that wants a timeline calls [`trace_enable`] and exports the journal
//! with [`perfetto`] or [`ndjson`].
//!
//! # Examples
//!
//! ```
//! use yac_obs::{Metric, Phase, Registry};
//!
//! let reg = Registry::new();
//! reg.enable();
//! {
//!     let _sample = reg.phase(Phase::Sample);
//!     reg.add(Metric::DiesSampled, 100);
//! }
//! assert_eq!(reg.counter(Metric::DiesSampled), 100);
//! assert_eq!(reg.phase_calls(Phase::Sample), 1);
//! assert!(reg.phase_nanos(Phase::Sample) > 0);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod json;
pub mod manifest;
pub mod ndjson;
pub mod perfetto;
pub mod progress;
pub mod registry;
pub mod trace;

pub use manifest::{extract_metric, peak_rss_bytes, ManifestMetric, PhaseReport, RunManifest};
pub use registry::{Histogram, Metric, Phase, PhaseGuard, Registry, Snapshot};
pub use trace::{Journal, TraceCtx, TraceEvent, TraceEventKind, TraceSnapshot};

use std::sync::OnceLock;

/// The process-global registry every instrumented crate reports into.
#[must_use]
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Turns global metrics collection on.
pub fn enable() {
    global().enable();
}

/// Turns global metrics collection off (hooks return immediately again).
pub fn disable() {
    global().disable();
}

/// Whether the global registry is currently collecting.
#[must_use]
pub fn enabled() -> bool {
    global().is_enabled()
}

/// Increments a global counter by one. No-op while disabled.
#[inline]
pub fn inc(metric: Metric) {
    global().inc(metric);
}

/// Adds `n` to a global counter. No-op while disabled.
#[inline]
pub fn add(metric: Metric, n: u64) {
    global().add(metric, n);
}

/// The process-global event journal every instrumented crate traces
/// into. Disabled (and costing one atomic load per hook) until
/// [`trace_enable`].
#[must_use]
pub fn journal() -> &'static Journal {
    static GLOBAL: OnceLock<Journal> = OnceLock::new();
    GLOBAL.get_or_init(Journal::new)
}

/// Turns global event tracing on.
pub fn trace_enable() {
    journal().enable();
}

/// Turns global event tracing off (recorded events are kept).
pub fn trace_disable() {
    journal().disable();
}

/// Whether the global journal is currently recording.
#[must_use]
pub fn trace_enabled() -> bool {
    journal().is_enabled()
}

/// Records an instant event in the global journal. No-op while tracing
/// is disabled.
#[inline]
pub fn trace_instant(kind: TraceEventKind, ctx: TraceCtx) {
    journal().record_instant(kind, ctx);
}

/// Nanoseconds since the global journal's epoch — pair with
/// [`trace_span_at`] to record a span measured across scopes.
#[must_use]
pub fn trace_now_ns() -> u64 {
    journal().now_ns()
}

/// Records a span that started at `start_ns` (from [`trace_now_ns`])
/// and ends now. No-op while tracing is disabled.
#[inline]
pub fn trace_span_at(kind: TraceEventKind, ctx: TraceCtx, start_ns: u64) {
    journal().record_span(kind, ctx, start_ns);
}

/// Names the calling thread's track in trace exports (first call wins).
pub fn trace_label_thread(label: &str) {
    journal().label_thread(label);
}

/// Scoped timer returned by [`phase`] / [`phase_ctx`]: attributes its
/// lifetime to `phase` in the global registry and — when tracing is on —
/// records a matching `PhaseSpan` event (with `ctx`) in the global
/// journal. Inert (no clock read) while both layers are disabled.
#[derive(Debug)]
#[must_use = "a span records time when dropped; binding it to _ drops it immediately"]
pub struct Span {
    phase: Phase,
    ctx: TraceCtx,
    /// `Some(start)` iff tracing was enabled when the span opened.
    trace_start: Option<u64>,
    /// Dropped after the trace event is recorded (field order).
    _guard: PhaseGuard<'static>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.trace_start {
            journal().record_span(TraceEventKind::PhaseSpan(self.phase), self.ctx, start);
        }
    }
}

/// Starts a scoped timer attributing its lifetime to `phase` in the
/// global registry (and the global journal, when tracing is on).
#[inline]
pub fn phase(phase: Phase) -> Span {
    phase_ctx(phase, TraceCtx::default())
}

/// [`phase`] with structured context (chip index, shard id, ...)
/// attached to the traced span.
#[inline]
pub fn phase_ctx(phase: Phase, ctx: TraceCtx) -> Span {
    let trace_start = trace_enabled().then(|| journal().now_ns());
    Span {
        phase,
        ctx,
        trace_start,
        _guard: global().phase(phase),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_is_disabled_by_default_and_hooks_are_noops() {
        // Other tests in this binary may enable the global registry; this
        // one only asserts the no-op contract of a disabled registry via a
        // private instance.
        let reg = Registry::new();
        assert!(!reg.is_enabled());
        reg.inc(Metric::DiesSampled);
        {
            let _g = reg.phase(Phase::Sample);
        }
        assert_eq!(reg.counter(Metric::DiesSampled), 0);
        assert_eq!(reg.phase_calls(Phase::Sample), 0);
        assert_eq!(reg.phase_nanos(Phase::Sample), 0);
    }

    #[test]
    fn global_registry_and_journal_are_singletons() {
        assert!(std::ptr::eq(global(), global()));
        assert!(std::ptr::eq(journal(), journal()));
    }

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Registry>();
        assert_send_sync::<Snapshot>();
        assert_send_sync::<RunManifest>();
        assert_send_sync::<Journal>();
        assert_send_sync::<TraceSnapshot>();
        assert_send_sync::<progress::ProgressReporter>();
    }

    #[test]
    fn span_records_into_registry_without_tracing() {
        // The global journal stays untouched here (other tests in this
        // binary may own it); a disabled journal means the span carries
        // no trace_start and only the registry side records.
        let span = phase_ctx(Phase::Report, TraceCtx::chip(1));
        assert!(span.trace_start.is_none() || trace_enabled());
        drop(span);
    }
}
