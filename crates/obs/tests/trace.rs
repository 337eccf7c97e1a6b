//! Integration tests for the trace journal and its exporters: ring
//! overwrite semantics under concurrent writers, the zero-cost-disabled
//! contract through the free-function API, and Perfetto export validity
//! checked by actually parsing the JSON (with a small local parser —
//! the container carries no JSON dependency).

use std::sync::atomic::{AtomicBool, Ordering};
use yac_obs::trace::{Journal, TraceCtx, TraceEventKind};
use yac_obs::{ndjson, perfetto, Phase};

// ---------------------------------------------------------------------
// A minimal JSON validity parser: accepts exactly RFC 8259 structure
// (objects, arrays, strings, numbers, true/false/null), returns the
// remaining input on success. Enough to prove the exporter emits JSON a
// real tool will load.

fn skip_ws(s: &str) -> &str {
    s.trim_start_matches([' ', '\t', '\n', '\r'])
}

fn parse_value(s: &str) -> Result<&str, String> {
    let s = skip_ws(s);
    match s.chars().next() {
        Some('{') => parse_object(s),
        Some('[') => parse_array(s),
        Some('"') => parse_string(s),
        Some('t') => s.strip_prefix("true").ok_or("bad literal".into()),
        Some('f') => s.strip_prefix("false").ok_or("bad literal".into()),
        Some('n') => s.strip_prefix("null").ok_or("bad literal".into()),
        Some(c) if c == '-' || c.is_ascii_digit() => parse_number(s),
        other => Err(format!("unexpected {other:?}")),
    }
}

fn parse_object(s: &str) -> Result<&str, String> {
    let mut s = skip_ws(s.strip_prefix('{').ok_or("expected {")?);
    if let Some(rest) = s.strip_prefix('}') {
        return Ok(rest);
    }
    loop {
        s = parse_string(skip_ws(s))?;
        s = skip_ws(s).strip_prefix(':').ok_or("expected :")?;
        s = parse_value(s)?;
        s = skip_ws(s);
        if let Some(rest) = s.strip_prefix(',') {
            s = rest;
        } else {
            return s.strip_prefix('}').ok_or_else(|| "expected }".into());
        }
    }
}

fn parse_array(s: &str) -> Result<&str, String> {
    let mut s = skip_ws(s.strip_prefix('[').ok_or("expected [")?);
    if let Some(rest) = s.strip_prefix(']') {
        return Ok(rest);
    }
    loop {
        s = parse_value(s)?;
        s = skip_ws(s);
        if let Some(rest) = s.strip_prefix(',') {
            s = rest;
        } else {
            return s.strip_prefix(']').ok_or_else(|| "expected ]".into());
        }
    }
}

fn parse_string(s: &str) -> Result<&str, String> {
    let mut chars = s.strip_prefix('"').ok_or("expected \"")?.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok(&s[i + 2..]),
            '\\' => {
                let (_, esc) = chars.next().ok_or("dangling escape")?;
                if esc == 'u' {
                    for _ in 0..4 {
                        let (_, h) = chars.next().ok_or("short \\u escape")?;
                        if !h.is_ascii_hexdigit() {
                            return Err("bad \\u escape".into());
                        }
                    }
                } else if !matches!(esc, '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') {
                    return Err(format!("bad escape \\{esc}"));
                }
            }
            c if (c as u32) < 0x20 => return Err("raw control char in string".into()),
            _ => {}
        }
    }
    Err("unterminated string".into())
}

fn parse_number(s: &str) -> Result<&str, String> {
    let end = s
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')))
        .unwrap_or(s.len());
    s[..end]
        .parse::<f64>()
        .map_err(|e| format!("bad number {:?}: {e}", &s[..end]))?;
    Ok(&s[end..])
}

fn assert_valid_json(text: &str) {
    let rest = parse_value(text).unwrap_or_else(|e| panic!("invalid JSON: {e}\n{text}"));
    assert!(skip_ws(rest).is_empty(), "trailing garbage: {rest:?}");
}

// ---------------------------------------------------------------------

#[test]
fn perfetto_export_is_parseable_json_with_expected_structure() {
    let j = Journal::new();
    j.enable();
    std::thread::scope(|s| {
        for w in 0..3u32 {
            let j = &j;
            s.spawn(move || {
                j.label_thread(&format!("worker-{w}"));
                for shard in 0..4 {
                    let ctx = TraceCtx::shard(w, shard, 0);
                    let start = j.now_ns();
                    j.record_instant(TraceEventKind::ShardDispatched, ctx);
                    j.record_span(TraceEventKind::PhaseSpan(Phase::ShardExec), ctx, start);
                    j.record_instant(TraceEventKind::ShardCompleted, ctx);
                }
            });
        }
    });
    let snap = j.snapshot();
    let json = perfetto::to_chrome_json(&snap);
    assert_valid_json(&json);
    // One thread_name metadata record per recorded thread.
    assert_eq!(json.matches("\"thread_name\"").count(), 3);
    for w in 0..3 {
        assert!(json.contains(&format!("\"worker-{w}\"")));
    }
    // Spans render as complete events, instants as thread-scoped marks.
    assert_eq!(json.matches("\"ph\":\"X\"").count(), 12);
    assert_eq!(json.matches("\"ph\":\"i\"").count(), 24);
    // NDJSON sees the same event set.
    let parsed = ndjson::parse_ndjson(&ndjson::to_ndjson(&snap)).expect("ndjson parses");
    assert_eq!(parsed.events.len(), 36);
    assert_eq!(parsed.count_kind(TraceEventKind::ShardCompleted), 12);
}

#[test]
fn ring_overwrite_under_concurrent_writers_keeps_only_recent_events() {
    let j = Journal::new();
    j.set_capacity(64);
    j.enable();
    const WRITERS: u64 = 4;
    const PER_WRITER: u64 = 1_000;
    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let j = &j;
            s.spawn(move || {
                for i in 0..PER_WRITER {
                    // Payload is self-checking: t_ns mirrors chip.
                    j.record_at(
                        TraceEventKind::RescueAttempt,
                        TraceCtx::chip(w << 32 | i),
                        w << 32 | i,
                        0,
                    );
                }
            });
        }
    });
    let snap = j.snapshot();
    assert_eq!(snap.threads.len(), WRITERS as usize);
    assert_eq!(snap.dropped_events, 0);
    for t in &snap.threads {
        assert_eq!(t.events.len(), 64, "ring holds exactly its capacity");
        assert_eq!(t.lost, PER_WRITER - 64, "older events were overwritten");
        // Survivors are the *most recent* 64, in order, untorn.
        let indices: Vec<u64> = t
            .events
            .iter()
            .map(|e| {
                assert_eq!(Some(e.t_ns), e.ctx.chip, "torn event");
                e.ctx.chip.unwrap() & 0xFFFF_FFFF
            })
            .collect();
        let expect: Vec<u64> = (PER_WRITER - 64..PER_WRITER).collect();
        assert_eq!(indices, expect);
    }
}

#[test]
fn snapshot_while_writers_race_is_safe_and_untorn() {
    let j = Journal::new();
    j.set_capacity(16);
    j.enable();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for w in 0..3u64 {
            let (j, stop) = (&j, &stop);
            s.spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    j.record_at(
                        TraceEventKind::ShardTimedOut,
                        TraceCtx::chip(w << 40 | i),
                        w << 40 | i,
                        0,
                    );
                    i += 1;
                }
            });
        }
        for _ in 0..200 {
            for t in j.snapshot().threads {
                for e in t.events {
                    assert_eq!(Some(e.t_ns), e.ctx.chip, "torn event surfaced");
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
}

#[test]
fn disabled_journal_is_inert_through_the_free_function_api() {
    // This test owns the process-global journal for this test binary
    // (no other test here touches it).
    assert!(!yac_obs::trace_enabled());
    yac_obs::trace_instant(TraceEventKind::ShardCompleted, TraceCtx::default());
    let start = yac_obs::trace_now_ns();
    yac_obs::trace_span_at(
        TraceEventKind::PhaseSpan(Phase::Sample),
        TraceCtx::default(),
        start,
    );
    assert!(yac_obs::journal().snapshot().is_empty());
    assert_eq!(yac_obs::journal().dropped_events(), 0);

    // The phase() span wrapper records registry time regardless, trace
    // events only when tracing is on.
    yac_obs::enable();
    let calls_before = yac_obs::global().phase_calls(Phase::Report);
    drop(yac_obs::phase(Phase::Report));
    assert_eq!(
        yac_obs::global().phase_calls(Phase::Report),
        calls_before + 1
    );
    assert!(yac_obs::journal().snapshot().is_empty());
    yac_obs::disable();
}
