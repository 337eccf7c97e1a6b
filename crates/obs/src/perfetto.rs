//! Chrome trace-event JSON exporter for [`crate::trace`] snapshots —
//! loadable directly in [Perfetto](https://ui.perfetto.dev) or
//! `chrome://tracing`, dependency-free like the manifest writer.
//!
//! The export uses the trace-event JSON-array format: one `"X"`
//! (complete) event per span, one `"i"` (instant) event per instant, and
//! `"M"` (metadata) events naming the process and one track per recorded
//! thread (`tid` = the thread's journal slot, so worker tracks line up
//! run to run). Context fields land in each event's `args`, so clicking
//! a shard span in Perfetto shows its shard id, attempt generation and
//! worker index.
//!
//! # Examples
//!
//! ```
//! use yac_obs::trace::{Journal, TraceCtx, TraceEventKind};
//!
//! let journal = Journal::new();
//! journal.enable();
//! journal.record_instant(TraceEventKind::ShardCompleted, TraceCtx::shard(0, 3, 1));
//! let json = yac_obs::perfetto::to_chrome_json(&journal.snapshot());
//! assert!(json.contains("\"ShardCompleted\""));
//! ```

use crate::json::json_string;
use crate::trace::{TraceEvent, TraceEventKind, TraceSnapshot};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Renders a snapshot as Chrome trace-event JSON (`traceEvents` array
/// plus a `displayTimeUnit` hint). Timestamps are microseconds since the
/// journal epoch, as the format requires.
#[must_use]
pub fn to_chrome_json(snapshot: &TraceSnapshot) -> String {
    let mut out = String::with_capacity(256 + snapshot.total_events() * 128);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"yac\"}}",
    );
    for thread in &snapshot.threads {
        let _ = write!(
            out,
            ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
             \"args\":{{\"name\":{}}}}}",
            thread.slot,
            json_string(&thread.label)
        );
    }
    for thread in &snapshot.threads {
        for event in &thread.events {
            out.push_str(",\n");
            write_event(&mut out, thread.slot, event);
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Writes [`to_chrome_json`] output to `path`.
///
/// # Errors
///
/// Propagates the underlying file-system error.
pub fn write_chrome_json(path: &Path, snapshot: &TraceSnapshot) -> io::Result<()> {
    std::fs::write(path, to_chrome_json(snapshot))
}

fn write_event(out: &mut String, tid: usize, event: &TraceEvent) {
    let name = match event.kind {
        TraceEventKind::PhaseSpan(phase) => phase.name(),
        kind => kind.name(),
    };
    let cat = match event.kind {
        TraceEventKind::PhaseSpan(_) => "phase",
        TraceEventKind::RescueAttempt => "rescue",
        TraceEventKind::CheckpointWritten => "checkpoint",
        TraceEventKind::StudyStarted
        | TraceEventKind::StudyCompleted
        | TraceEventKind::StudyDegraded
        | TraceEventKind::SweepResumed => "sweep",
        TraceEventKind::ConnRejected
        | TraceEventKind::SlowClientEvicted
        | TraceEventKind::RetryAttempted
        | TraceEventKind::BreakerOpened
        | TraceEventKind::BreakerHalfOpen => "net",
        _ => "shard",
    };
    // ts/dur are float microseconds; nanosecond precision survives.
    let ts = event.t_ns as f64 / 1e3;
    let _ = write!(
        out,
        "{{\"name\":{},\"cat\":\"{cat}\",\"pid\":1,\"tid\":{tid},\"ts\":{ts:.3}",
        json_string(name)
    );
    if event.dur_ns > 0 {
        let _ = write!(
            out,
            ",\"ph\":\"X\",\"dur\":{:.3}",
            event.dur_ns as f64 / 1e3
        );
    } else {
        // Thread-scoped instant: renders as a marker on this track.
        out.push_str(",\"ph\":\"i\",\"s\":\"t\"");
    }
    out.push_str(",\"args\":{");
    let mut first = true;
    let mut arg = |key: &str, value: u64| {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\"{key}\":{value}");
    };
    if let Some(w) = event.ctx.worker {
        arg("worker", u64::from(w));
    }
    if let Some(s) = event.ctx.shard {
        arg("shard", u64::from(s));
    }
    if let Some(a) = event.ctx.attempt {
        arg("attempt", u64::from(a));
    }
    if let Some(c) = event.ctx.chip {
        arg("chip", c);
    }
    if let Some(s) = event.ctx.scheme {
        arg("scheme", u64::from(s));
    }
    if let Some(s) = event.ctx.study {
        arg("study", u64::from(s));
    }
    out.push_str("}}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Phase;
    use crate::trace::{Journal, TraceCtx};

    #[test]
    fn export_contains_track_metadata_and_both_event_shapes() {
        let j = Journal::new();
        j.enable();
        j.label_thread("worker-0");
        j.record_at(
            TraceEventKind::PhaseSpan(Phase::ShardExec),
            TraceCtx::shard(0, 2, 1),
            1_000,
            5_000,
        );
        j.record_at(
            TraceEventKind::ShardDegraded,
            TraceCtx::shard(0, 2, 1),
            9_000,
            0,
        );
        let json = to_chrome_json(&j.snapshot());
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"worker-0\""));
        // The span: complete event with duration, phase name as the label.
        assert!(json.contains("\"name\":\"shard_exec\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":5.000"));
        // The instant.
        assert!(json.contains("\"name\":\"ShardDegraded\""));
        assert!(json.contains("\"ph\":\"i\""));
        // Context fields surface as args.
        assert!(json.contains("\"shard\":2"));
        assert!(json.contains("\"attempt\":1"));
    }

    #[test]
    fn empty_snapshot_is_still_valid_trace_json() {
        let json = to_chrome_json(&Journal::new().snapshot());
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
    }
}
