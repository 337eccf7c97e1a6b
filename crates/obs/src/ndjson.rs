//! Append-only NDJSON event log for [`crate::trace`] snapshots, schema
//! **`yac-trace/1`** — one JSON object per line, greppable and
//! stream-parseable without loading the whole trace.
//!
//! Line 1 is a header object; every following line is one event:
//!
//! ```json
//! {"schema":"yac-trace/1","dropped_events":0,"threads":2}
//! {"slot":3,"thread":"worker-0","t_ns":1000,"dur_ns":5000,"kind":"PhaseSpan","phase":"shard_exec","worker":0,"shard":2,"attempt":1}
//! {"slot":3,"thread":"worker-0","t_ns":9000,"dur_ns":0,"kind":"ShardRetried","worker":0,"shard":2,"attempt":1}
//! ```
//!
//! Field names are append-only: `schema`, `slot`, `thread`, `t_ns`,
//! `dur_ns` and `kind` are always present; `phase` appears on
//! `PhaseSpan` lines; `worker`/`shard`/`attempt`/`chip`/`scheme`/`study`
//! appear when the event carried that context. [`parse_ndjson`] reads the
//! format back, one [`FlatObject`] per line, which is also what the CI
//! trace-validation step and the round-trip tests use.

use crate::json::{json_string, FlatObject};
use crate::registry::Phase;
use crate::trace::{TraceCtx, TraceEvent, TraceEventKind, TraceSnapshot};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// The NDJSON schema identifier written in the header line.
pub const NDJSON_SCHEMA: &str = "yac-trace/1";

/// Renders a snapshot as `yac-trace/1` NDJSON (header line + one line
/// per event, in slot order then recording order).
#[must_use]
pub fn to_ndjson(snapshot: &TraceSnapshot) -> String {
    let mut out = String::with_capacity(128 + snapshot.total_events() * 128);
    let _ = writeln!(
        out,
        "{{\"schema\":\"{NDJSON_SCHEMA}\",\"dropped_events\":{},\"threads\":{}}}",
        snapshot.dropped_events,
        snapshot.threads.len()
    );
    for thread in &snapshot.threads {
        for event in &thread.events {
            write_line(&mut out, thread.slot, &thread.label, event);
        }
    }
    out
}

/// Writes [`to_ndjson`] output to `path`.
///
/// # Errors
///
/// Propagates the underlying file-system error.
pub fn write_ndjson(path: &Path, snapshot: &TraceSnapshot) -> io::Result<()> {
    std::fs::write(path, to_ndjson(snapshot))
}

fn write_line(out: &mut String, slot: usize, label: &str, event: &TraceEvent) {
    let _ = write!(
        out,
        "{{\"slot\":{slot},\"thread\":{},\"t_ns\":{},\"dur_ns\":{},\"kind\":\"{}\"",
        json_string(label),
        event.t_ns,
        event.dur_ns,
        event.kind.name()
    );
    if let TraceEventKind::PhaseSpan(phase) = event.kind {
        let _ = write!(out, ",\"phase\":\"{}\"", phase.name());
    }
    if let Some(w) = event.ctx.worker {
        let _ = write!(out, ",\"worker\":{w}");
    }
    if let Some(s) = event.ctx.shard {
        let _ = write!(out, ",\"shard\":{s}");
    }
    if let Some(a) = event.ctx.attempt {
        let _ = write!(out, ",\"attempt\":{a}");
    }
    if let Some(c) = event.ctx.chip {
        let _ = write!(out, ",\"chip\":{c}");
    }
    if let Some(s) = event.ctx.scheme {
        let _ = write!(out, ",\"scheme\":{s}");
    }
    if let Some(s) = event.ctx.study {
        let _ = write!(out, ",\"study\":{s}");
    }
    out.push_str("}\n");
}

/// One parsed event line: the journal slot, thread label and the event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NdjsonEvent {
    /// Journal slot the event was recorded on.
    pub slot: usize,
    /// The recording thread's display label.
    pub thread: String,
    /// The decoded event.
    pub event: TraceEvent,
}

/// A fully parsed `yac-trace/1` document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedTrace {
    /// Events dropped by the journal (from the header line).
    pub dropped_events: u64,
    /// Thread count declared in the header line.
    pub threads: usize,
    /// Every event line, in file order.
    pub events: Vec<NdjsonEvent>,
}

impl ParsedTrace {
    /// Number of events whose kind matches `kind`.
    #[must_use]
    pub fn count_kind(&self, kind: TraceEventKind) -> usize {
        self.events.iter().filter(|e| e.event.kind == kind).count()
    }
}

/// Parses `yac-trace/1` NDJSON text back into events.
///
/// # Errors
///
/// Returns a message naming the first malformed line: missing/foreign
/// schema header, an unknown `kind`, a `PhaseSpan` without a valid
/// `phase`, or an unparsable required field.
pub fn parse_ndjson(text: &str) -> Result<ParsedTrace, String> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let (_, header) = lines.next().ok_or("empty trace: missing header line")?;
    let in_header = |e: String| format!("header line: {e}");
    let header = FlatObject::parse(header).map_err(in_header)?;
    let schema = header.str("schema").map_err(in_header)?;
    if schema != NDJSON_SCHEMA {
        return Err(format!(
            "unsupported schema {schema:?} (want {NDJSON_SCHEMA:?})"
        ));
    }
    let dropped_events = header.u64("dropped_events").map_err(in_header)?;
    let threads = header.usize("threads").map_err(in_header)?;
    let mut events = Vec::new();
    for (idx, line) in lines {
        let bad = |what: &str| format!("line {}: {what}: {line}", idx + 1);
        let field = |e: String| bad(&e);
        let obj = FlatObject::parse(line).map_err(field)?;
        let phase = match obj.opt_str("phase").map_err(field)? {
            Some(name) => Some(
                Phase::ALL
                    .into_iter()
                    .find(|p| p.name() == name)
                    .ok_or_else(|| bad("unknown phase"))?,
            ),
            None => None,
        };
        let kind_name = obj.str("kind").map_err(field)?;
        let kind =
            TraceEventKind::from_name(kind_name, phase).ok_or_else(|| bad("unknown kind"))?;
        let ctx_field = |key: &str| obj.opt_u64(key).map_err(field);
        let narrow32 = |v: u64| u32::try_from(v).map_err(|_| bad("context field exceeds u32"));
        let narrow16 = |v: u64| u16::try_from(v).map_err(|_| bad("scheme field exceeds u16"));
        events.push(NdjsonEvent {
            slot: obj.usize("slot").map_err(field)?,
            thread: obj.str("thread").map_err(field)?.to_owned(),
            event: TraceEvent {
                t_ns: obj.u64("t_ns").map_err(field)?,
                dur_ns: obj.u64("dur_ns").map_err(field)?,
                kind,
                ctx: TraceCtx {
                    worker: ctx_field("worker")?.map(narrow32).transpose()?,
                    shard: ctx_field("shard")?.map(narrow32).transpose()?,
                    attempt: ctx_field("attempt")?.map(narrow32).transpose()?,
                    chip: ctx_field("chip")?,
                    scheme: ctx_field("scheme")?.map(narrow16).transpose()?,
                    study: ctx_field("study")?.map(narrow32).transpose()?,
                },
            },
        });
    }
    Ok(ParsedTrace {
        dropped_events,
        threads,
        events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Journal;

    #[test]
    fn round_trips_every_event_kind() {
        let j = Journal::new();
        j.enable();
        j.label_thread("kinds");
        let ctx = TraceCtx {
            worker: Some(1),
            shard: Some(9),
            attempt: Some(2),
            chip: Some(4242),
            scheme: Some(3),
            study: Some(7),
        };
        for (i, kind) in TraceEventKind::ALL.into_iter().enumerate() {
            j.record_at(kind, ctx, i as u64 * 10, i as u64);
        }
        let snap = j.snapshot();
        let parsed = parse_ndjson(&to_ndjson(&snap)).expect("round trip parses");
        assert_eq!(parsed.threads, 1);
        assert_eq!(parsed.dropped_events, 0);
        assert_eq!(parsed.events.len(), TraceEventKind::ALL.len());
        for (parsed, (i, kind)) in parsed
            .events
            .iter()
            .zip(TraceEventKind::ALL.into_iter().enumerate())
        {
            assert_eq!(parsed.thread, "kinds");
            assert_eq!(parsed.event.kind, kind, "kind {}", kind.name());
            assert_eq!(parsed.event.t_ns, i as u64 * 10);
            assert_eq!(parsed.event.dur_ns, i as u64);
            assert_eq!(parsed.event.ctx, ctx);
        }
        assert_eq!(parsed.count_kind(TraceEventKind::ShardDegraded), 1);
    }

    #[test]
    fn absent_ctx_fields_are_omitted_and_parse_back_as_none() {
        let j = Journal::new();
        j.enable();
        j.record_at(TraceEventKind::CheckpointWritten, TraceCtx::default(), 5, 0);
        let text = to_ndjson(&j.snapshot());
        let event_line = text.lines().nth(1).unwrap();
        for absent in ["worker", "shard", "attempt", "chip", "scheme", "study"] {
            assert!(!event_line.contains(absent), "{absent} in {event_line}");
        }
        let parsed = parse_ndjson(&text).unwrap();
        assert_eq!(parsed.events[0].event.ctx, TraceCtx::default());
    }

    #[test]
    fn rejects_foreign_schema_and_malformed_lines() {
        assert!(parse_ndjson("").is_err());
        assert!(
            parse_ndjson("{\"schema\":\"yac-trace/999\",\"dropped_events\":0,\"threads\":0}")
                .unwrap_err()
                .contains("unsupported schema")
        );
        let bad_kind = "{\"schema\":\"yac-trace/1\",\"dropped_events\":0,\"threads\":1}\n\
                        {\"slot\":0,\"thread\":\"t\",\"t_ns\":1,\"dur_ns\":0,\"kind\":\"Mystery\"}\n";
        assert!(parse_ndjson(bad_kind).unwrap_err().contains("unknown kind"));
        let no_phase = "{\"schema\":\"yac-trace/1\",\"dropped_events\":0,\"threads\":1}\n\
                        {\"slot\":0,\"thread\":\"t\",\"t_ns\":1,\"dur_ns\":0,\"kind\":\"PhaseSpan\"}\n";
        assert!(parse_ndjson(no_phase).is_err(), "PhaseSpan needs a phase");
    }

    #[test]
    fn thread_labels_with_escapes_round_trip() {
        let j = Journal::new();
        j.enable();
        j.label_thread("bench \"gcc\"\t#1");
        j.record_at(TraceEventKind::ShardCompleted, TraceCtx::default(), 1, 0);
        let parsed = parse_ndjson(&to_ndjson(&j.snapshot())).unwrap();
        assert_eq!(parsed.events[0].thread, "bench \"gcc\"\t#1");
    }
}
