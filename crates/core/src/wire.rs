//! The sweep service's wire protocol: the frame format, the
//! request/reply JSON codec, and the one request exchange every client
//! runs. This is the only module that knows the frame layout; the
//! server ([`crate::service`]) and the resilient client
//! ([`crate::client`]) both go through it.
//!
//! Length-prefixed, CRC-checked JSON over TCP: each frame is a
//! big-endian `u32` byte length, a big-endian `u32` CRC-32 of the
//! payload, then the payload — a flat JSON object (no nesting, scalars
//! only). The CRC turns wire corruption (including the chaos layer's
//! injected bit flips) into a typed `InvalidData` error instead of a
//! silently wrong record. Requests carry an `"op"` key (`query`,
//! `stats`, `health`, `drain`, `shutdown`); replies a `"status"` key
//! (`ok`, `busy`, `draining`, `deadline`, `cancelled`, `error`,
//! `stats`, `health`, `bye`). Study records travel as the
//! canonical [`crate::sweep::render_result`] token text inside the
//! `"record"` string, so the bytes a client receives are exactly the
//! bytes the cache holds.

use crate::chaos::{ChaosStream, NetSite};
use crate::crc_log::crc32;
use crate::schemes::PowerDownKind;
use crate::service::{constraint_by_name, StudyQuery};
use crate::sweep::CpiOptions;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::ops::ControlFlow;
use std::time::{Duration, Instant};
use yac_obs::json::{json_string, FlatObject};

/// Largest frame either side of the wire protocol will accept.
pub const MAX_FRAME: usize = 16 << 20;

/// The `retry_after_ms` a client assumes when a `busy` reply omits the
/// field (a pre-hint server); also the default hint servers send.
pub const DEFAULT_RETRY_AFTER_MS: u64 = 200;

/// The text every frame-CRC failure carries. The server echoes a
/// failed request frame back in a [`ServiceReply::Error`], and the
/// resilient client recognises that reply by this text and retries it
/// as a transport fault.
pub(crate) const CRC_FAILURE: &str = "frame payload fails its CRC";

/// A point-in-time snapshot of service counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// Queries received (any outcome).
    pub queries: u64,
    /// Queries answered with a result (cached or computed).
    pub served: u64,
    /// Queries refused with [`ServiceReply::Busy`].
    pub busy: u64,
    /// Result-cache hits.
    pub cache_hits: u64,
    /// Result-cache misses.
    pub cache_misses: u64,
    /// Result-cache evictions.
    pub cache_evictions: u64,
    /// Entries currently cached.
    pub cache_entries: usize,
    /// Bytes currently charged against the cache budget.
    pub cache_bytes: usize,
    /// Queries computing right now.
    pub inflight: usize,
    /// The admission limit.
    pub limit: usize,
    /// Slow clients evicted for stalling mid-frame.
    pub evicted: u64,
    /// Connections refused at the connection cap.
    pub rejected: u64,
    /// Whether the service is draining (refusing new queries).
    pub draining: bool,
    /// Completed cache scrub passes.
    pub scrub_passes: u64,
    /// Cache entries quarantined after failing their CRC.
    pub quarantined: u64,
    /// Quarantined entries repaired by a fresh insert.
    pub repaired: u64,
}

/// A point-in-time liveness report, answering [`ServiceRequest::Health`].
///
/// Where [`ServiceStats`] counts *traffic*, this reports *self-healing*:
/// lane liveness, the escalation ladder's counters, scrub activity and
/// degraded results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthReport {
    /// Milliseconds since the service was built.
    pub uptime_ms: u64,
    /// Queries computing right now.
    pub inflight: usize,
    /// Heartbeat lanes (one per pool worker).
    pub lanes: usize,
    /// Lanes currently holding a shard lease.
    pub lanes_busy: usize,
    /// Lanes past a missed heartbeat without recovering (cancelled or
    /// truly wedged), as of the sentinel's last poll.
    pub lanes_stalled: u64,
    /// Lease cancels issued for missed heartbeats; each cancelled shard
    /// degrades.
    pub heartbeats_missed: u64,
    /// Completed cache scrub passes.
    pub scrub_passes: u64,
    /// Cache entries quarantined after failing their CRC.
    pub quarantined: u64,
    /// Quarantined entries repaired by a fresh insert.
    pub repaired: u64,
    /// Queries answered with a degraded (shards-missing) result.
    pub degraded: u64,
}

/// A request a client can put on the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceRequest {
    /// Compute (or fetch from cache) one study.
    Query {
        /// The study to compute or fetch.
        query: StudyQuery,
        /// Give up after this many milliseconds: the server arms a
        /// watchdog that raises the query's cancel flag and answers
        /// [`ServiceReply::Deadline`]. Deliberately *not* part of
        /// [`StudyQuery`] — it shapes scheduling, not the result, so it
        /// must not move the cache key.
        deadline_ms: Option<u64>,
    },
    /// Report service counters.
    Stats,
    /// Report liveness: uptime, lane health, scrub and self-healing
    /// counters.
    Health,
    /// Finish in-flight queries, refuse new ones, then exit the serve
    /// loop.
    Drain,
    /// Shut the service down cleanly.
    Shutdown,
}

/// What the service answers.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceReply {
    /// The study's canonical record text.
    Result {
        /// Canonical [`crate::sweep::render_result`] text — exactly the cached bytes.
        record: String,
        /// The query's fingerprint (the cache key).
        key: u64,
        /// Whether the record came from the cache.
        cached: bool,
    },
    /// The service is saturated; retry later. Backpressure is typed,
    /// never an unbounded queue.
    Busy {
        /// Queries computing when the refusal was made.
        inflight: usize,
        /// The admission limit.
        limit: usize,
        /// How long the server suggests waiting before retrying. Absent
        /// on the wire from older servers; clients assume
        /// [`DEFAULT_RETRY_AFTER_MS`].
        retry_after_ms: u64,
    },
    /// The service is draining: in-flight queries finish, new ones are
    /// refused, and the serve loop exits once the last completes.
    Draining {
        /// Queries still computing when the refusal was made.
        inflight: usize,
    },
    /// The query's `deadline_ms` expired before it finished; its shards
    /// were cancelled cooperatively.
    Deadline {
        /// Milliseconds the query ran before the deadline fired.
        elapsed_ms: u64,
    },
    /// The query's client disconnected mid-computation.
    Cancelled,
    /// The query could not be answered.
    Error {
        /// One-line diagnostic.
        message: String,
    },
    /// Service counters, answering [`ServiceRequest::Stats`].
    Stats(ServiceStats),
    /// Liveness report, answering [`ServiceRequest::Health`].
    Health(HealthReport),
    /// Acknowledges [`ServiceRequest::Shutdown`].
    Bye,
}

// ---------------------------------------------------------------------
// JSON codec: flat objects of scalars, written and read with
// `yac_obs::json`.
// ---------------------------------------------------------------------

impl ServiceRequest {
    /// Renders the request as its wire JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        match self {
            ServiceRequest::Query {
                query: q,
                deadline_ms,
            } => {
                let kind = match q.kind {
                    PowerDownKind::Vertical => "vertical",
                    PowerDownKind::Horizontal => "horizontal",
                };
                let mut out = format!(
                    "{{\"op\":\"query\",\"chips\":{},\"seed\":{},\"constraint\":\"{}\",\"kind\":\"{kind}\"",
                    q.chips, q.seed, q.constraint.name
                );
                if let Some(cpi) = &q.cpi {
                    let _ = std::fmt::Write::write_fmt(
                        &mut out,
                        format_args!(
                            ",\"warmup\":{},\"measure\":{}",
                            cpi.warmup_uops, cpi.measure_uops
                        ),
                    );
                }
                if let Some(ms) = deadline_ms {
                    let _ =
                        std::fmt::Write::write_fmt(&mut out, format_args!(",\"deadline_ms\":{ms}"));
                }
                out.push('}');
                out
            }
            ServiceRequest::Stats => "{\"op\":\"stats\"}".to_owned(),
            ServiceRequest::Health => "{\"op\":\"health\"}".to_owned(),
            ServiceRequest::Drain => "{\"op\":\"drain\"}".to_owned(),
            ServiceRequest::Shutdown => "{\"op\":\"shutdown\"}".to_owned(),
        }
    }

    /// Parses a wire request.
    ///
    /// # Errors
    ///
    /// Returns a one-line diagnostic naming the malformed field; the
    /// server sends it back as [`ServiceReply::Error`].
    pub fn parse(text: &str) -> Result<ServiceRequest, String> {
        let obj = FlatObject::parse(text)?;
        match obj.str("op")? {
            "stats" => Ok(ServiceRequest::Stats),
            "health" => Ok(ServiceRequest::Health),
            "drain" => Ok(ServiceRequest::Drain),
            "shutdown" => Ok(ServiceRequest::Shutdown),
            "query" => {
                let name = obj.str("constraint")?;
                let constraint = constraint_by_name(name)
                    .ok_or_else(|| format!("unknown constraint {name:?}"))?;
                let kind = match obj.str("kind")? {
                    "vertical" => PowerDownKind::Vertical,
                    "horizontal" => PowerDownKind::Horizontal,
                    other => return Err(format!("unknown kind {other:?}")),
                };
                let cpi = match (obj.opt_u64("warmup")?, obj.opt_u64("measure")?) {
                    (Some(warmup_uops), Some(measure_uops)) => Some(CpiOptions {
                        warmup_uops,
                        measure_uops,
                    }),
                    (None, None) => None,
                    _ => return Err("warmup and measure must be given together".into()),
                };
                Ok(ServiceRequest::Query {
                    query: StudyQuery {
                        chips: obj.usize("chips")?,
                        seed: obj.u64("seed")?,
                        constraint,
                        kind,
                        cpi,
                    },
                    deadline_ms: obj.opt_u64("deadline_ms")?,
                })
            }
            other => Err(format!("unknown op {other:?}")),
        }
    }
}

impl ServiceReply {
    /// Renders the reply as its wire JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        match self {
            ServiceReply::Result {
                record,
                key,
                cached,
            } => format!(
                "{{\"status\":\"ok\",\"cached\":{cached},\"key\":\"{key:016x}\",\"record\":{}}}",
                json_string(record)
            ),
            ServiceReply::Busy {
                inflight,
                limit,
                retry_after_ms,
            } => format!(
                "{{\"status\":\"busy\",\"inflight\":{inflight},\"limit\":{limit},\
                 \"retry_after_ms\":{retry_after_ms}}}"
            ),
            ServiceReply::Draining { inflight } => {
                format!("{{\"status\":\"draining\",\"inflight\":{inflight}}}")
            }
            ServiceReply::Deadline { elapsed_ms } => {
                format!("{{\"status\":\"deadline\",\"elapsed_ms\":{elapsed_ms}}}")
            }
            ServiceReply::Cancelled => "{\"status\":\"cancelled\"}".to_owned(),
            ServiceReply::Error { message } => {
                format!(
                    "{{\"status\":\"error\",\"message\":{}}}",
                    json_string(message)
                )
            }
            ServiceReply::Stats(s) => format!(
                "{{\"status\":\"stats\",\"queries\":{},\"served\":{},\"busy\":{},\
                 \"cache_hits\":{},\"cache_misses\":{},\"cache_evictions\":{},\
                 \"cache_entries\":{},\"cache_bytes\":{},\
                 \"inflight\":{},\"limit\":{},\"evicted\":{},\"rejected\":{},\
                 \"draining\":{},\"scrub_passes\":{},\"quarantined\":{},\
                 \"repaired\":{}}}",
                s.queries,
                s.served,
                s.busy,
                s.cache_hits,
                s.cache_misses,
                s.cache_evictions,
                s.cache_entries,
                s.cache_bytes,
                s.inflight,
                s.limit,
                s.evicted,
                s.rejected,
                s.draining,
                s.scrub_passes,
                s.quarantined,
                s.repaired
            ),
            ServiceReply::Health(h) => format!(
                "{{\"status\":\"health\",\"uptime_ms\":{},\"inflight\":{},\
                 \"lanes\":{},\"lanes_busy\":{},\"lanes_stalled\":{},\
                 \"heartbeats_missed\":{},\
                 \"scrub_passes\":{},\"quarantined\":{},\"repaired\":{},\
                 \"degraded\":{}}}",
                h.uptime_ms,
                h.inflight,
                h.lanes,
                h.lanes_busy,
                h.lanes_stalled,
                h.heartbeats_missed,
                h.scrub_passes,
                h.quarantined,
                h.repaired,
                h.degraded
            ),
            ServiceReply::Bye => "{\"status\":\"bye\"}".to_owned(),
        }
    }

    /// Parses a wire reply.
    ///
    /// # Errors
    ///
    /// Returns a one-line diagnostic naming the malformed field.
    pub fn parse(text: &str) -> Result<ServiceReply, String> {
        let obj = FlatObject::parse(text)?;
        match obj.str("status")? {
            "ok" => {
                let key_hex = obj.str("key")?;
                let key =
                    u64::from_str_radix(key_hex, 16).map_err(|_| format!("bad key {key_hex:?}"))?;
                Ok(ServiceReply::Result {
                    record: obj.str("record")?.to_owned(),
                    key,
                    cached: obj.bool("cached")?,
                })
            }
            "busy" => Ok(ServiceReply::Busy {
                inflight: obj.usize("inflight")?,
                limit: obj.usize("limit")?,
                // Absent from pre-hint servers: assume the default.
                retry_after_ms: obj
                    .opt_u64("retry_after_ms")?
                    .unwrap_or(DEFAULT_RETRY_AFTER_MS),
            }),
            "draining" => Ok(ServiceReply::Draining {
                inflight: obj.usize("inflight")?,
            }),
            "deadline" => Ok(ServiceReply::Deadline {
                elapsed_ms: obj.u64("elapsed_ms")?,
            }),
            "cancelled" => Ok(ServiceReply::Cancelled),
            "error" => Ok(ServiceReply::Error {
                message: obj.str("message")?.to_owned(),
            }),
            "stats" => Ok(ServiceReply::Stats(ServiceStats {
                queries: obj.u64("queries")?,
                served: obj.u64("served")?,
                busy: obj.u64("busy")?,
                cache_hits: obj.u64("cache_hits")?,
                cache_misses: obj.u64("cache_misses")?,
                cache_evictions: obj.u64("cache_evictions")?,
                cache_entries: obj.usize("cache_entries")?,
                cache_bytes: obj.usize("cache_bytes")?,
                inflight: obj.usize("inflight")?,
                limit: obj.usize("limit")?,
                // Hardening-era fields; absent from older servers.
                evicted: obj.opt_u64("evicted")?.unwrap_or(0),
                rejected: obj.opt_u64("rejected")?.unwrap_or(0),
                draining: obj.opt_bool("draining")?.unwrap_or(false),
                // Self-healing-era fields; absent from older servers.
                scrub_passes: obj.opt_u64("scrub_passes")?.unwrap_or(0),
                quarantined: obj.opt_u64("quarantined")?.unwrap_or(0),
                repaired: obj.opt_u64("repaired")?.unwrap_or(0),
            })),
            "health" => Ok(ServiceReply::Health(HealthReport {
                uptime_ms: obj.u64("uptime_ms")?,
                inflight: obj.usize("inflight")?,
                lanes: obj.usize("lanes")?,
                lanes_busy: obj.usize("lanes_busy")?,
                lanes_stalled: obj.u64("lanes_stalled")?,
                heartbeats_missed: obj.u64("heartbeats_missed")?,
                scrub_passes: obj.u64("scrub_passes")?,
                quarantined: obj.u64("quarantined")?,
                repaired: obj.u64("repaired")?,
                degraded: obj.u64("degraded")?,
            })),
            "bye" => Ok(ServiceReply::Bye),
            other => Err(format!("unknown status {other:?}")),
        }
    }
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Renders the wire image of one frame: big-endian `u32` length,
/// big-endian `u32` CRC-32 of the payload, then the payload.
pub(crate) fn frame_bytes(payload: &[u8]) -> io::Result<Vec<u8>> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {} bytes exceeds MAX_FRAME", payload.len()),
        ));
    }
    let mut frame = Vec::with_capacity(payload.len() + 8);
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(&crc32(payload).to_be_bytes());
    frame.extend_from_slice(payload);
    Ok(frame)
}

/// Writes one CRC-checked, length-prefixed frame (big-endian `u32`
/// length, big-endian `u32` payload CRC-32, then the payload) and
/// flushes.
///
/// # Errors
///
/// Propagates the underlying write error; refuses payloads over
/// [`MAX_FRAME`] as [`io::ErrorKind::InvalidData`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&frame_bytes(payload)?)?;
    w.flush()
}

/// Whether an error is the "no data within the socket timeout" signal.
/// `set_read_timeout` surfaces as either kind depending on platform.
pub(crate) fn is_would_block(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// How a frame read ended without an error.
pub(crate) enum FrameIn {
    /// A whole frame arrived.
    Frame(Vec<u8>),
    /// Clean EOF before a frame, or the idle hook closed the read.
    Closed,
    /// The idle hook gave up on a peer that stalled mid-frame.
    Evicted,
}

/// Reads one CRC-checked, length-prefixed frame. A read that times out
/// (`WouldBlock`/`TimedOut`) goes to `idle` with the instant the
/// frame's first byte arrived (`None` while no byte has): it either
/// reads on or ends the read. Every caller differs only in that hook.
///
/// The payload buffer grows as bytes actually arrive (in steps of at
/// most 4 KiB, from at most 64 KiB reserved), so a hostile header
/// claiming [`MAX_FRAME`] bytes on a connection that then stalls or
/// closes never costs a 16 MiB allocation up front; a claim over
/// [`MAX_FRAME`] is refused once the length field is in.
pub(crate) fn read_frame_with(
    r: &mut impl Read,
    mut idle: impl FnMut(io::Error, Option<Instant>) -> ControlFlow<io::Result<FrameIn>>,
) -> io::Result<FrameIn> {
    let mut header = [0u8; 8];
    let mut filled = 0;
    let mut len = 0;
    let mut payload = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut started = None;
    while filled < header.len() || payload.len() < len {
        let step = (len - payload.len()).min(chunk.len());
        let buf = if filled < header.len() {
            &mut header[filled..]
        } else {
            &mut chunk[..step]
        };
        match r.read(buf) {
            Ok(0) if filled == 0 => return Ok(FrameIn::Closed),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed mid-frame",
                ))
            }
            Ok(n) if filled < header.len() => {
                started.get_or_insert_with(Instant::now);
                filled += n;
                if filled >= 4 {
                    len = u32::from_be_bytes([header[0], header[1], header[2], header[3]]) as usize;
                    if len > MAX_FRAME {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("frame of {len} bytes exceeds MAX_FRAME"),
                        ));
                    }
                    payload.reserve(len.min(64 << 10));
                }
            }
            Ok(n) => payload.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_would_block(&e) => {
                if let ControlFlow::Break(end) = idle(e, started) {
                    return end;
                }
            }
            Err(e) => return Err(e),
        }
    }
    let want = u32::from_be_bytes([header[4], header[5], header[6], header[7]]);
    let got = crc32(&payload);
    if got != want {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{CRC_FAILURE} (header {want:08x}, payload {got:08x})"),
        ));
    }
    Ok(FrameIn::Frame(payload))
}

/// Reads one CRC-checked, length-prefixed frame from a *blocking*
/// reader. `Ok(None)` means the peer closed the connection cleanly
/// before a frame started; a read timeout is returned as the error it
/// is.
///
/// # Errors
///
/// [`io::ErrorKind::UnexpectedEof`] when the peer closes mid-frame;
/// [`io::ErrorKind::InvalidData`] for frames over [`MAX_FRAME`] or
/// payloads failing their CRC.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    match read_frame_with(r, |e, _| ControlFlow::Break(Err(e)))? {
        FrameIn::Frame(payload) => Ok(Some(payload)),
        FrameIn::Closed | FrameIn::Evicted => Ok(None),
    }
}

/// One request/reply exchange: a fresh connection to `addr` (with
/// `timeout` on both directions, when given), the request frame, the
/// reply frame, decoded. Returns the typed reply plus the raw reply
/// JSON. Both directions go through the chaos layer, so a torture run
/// exercises the client side of the wire too.
pub(crate) fn exchange(
    addr: &str,
    request: &ServiceRequest,
    timeout: Option<Duration>,
) -> io::Result<(ServiceReply, String)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    if timeout.is_some() {
        stream.set_read_timeout(timeout)?;
        stream.set_write_timeout(timeout)?;
    }
    let mut stream = ChaosStream::new(stream, NetSite::Client);
    write_frame(&mut stream, request.to_json().as_bytes())?;
    let payload = read_frame(&mut stream)?.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed without replying",
        )
    })?;
    let invalid = |e: String| io::Error::new(io::ErrorKind::InvalidData, e);
    let text = String::from_utf8(payload).map_err(|e| invalid(e.to_string()))?;
    let reply = ServiceReply::parse(&text).map_err(invalid)?;
    Ok((reply, text))
}

/// Sends one request over a fresh blocking connection and returns the
/// typed reply plus the raw reply JSON (callers print or persist the
/// raw text so nothing is re-rendered on the client side).
///
/// # Errors
///
/// Propagates connect/read/write failures; a malformed reply surfaces
/// as [`io::ErrorKind::InvalidData`].
pub fn client_request(addr: &str, request: &ServiceRequest) -> io::Result<(ServiceReply, String)> {
    exchange(addr, request, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::ConstraintSpec;

    fn query() -> StudyQuery {
        StudyQuery {
            chips: 32,
            seed: 11,
            constraint: ConstraintSpec::STRICT,
            kind: PowerDownKind::Horizontal,
            cpi: Some(CpiOptions {
                warmup_uops: 100,
                measure_uops: 400,
            }),
        }
    }
    #[test]
    fn requests_round_trip_through_wire_json() {
        for request in [
            ServiceRequest::Query {
                query: query(),
                deadline_ms: None,
            },
            ServiceRequest::Query {
                query: StudyQuery {
                    cpi: None,
                    ..query()
                },
                deadline_ms: Some(1500),
            },
            ServiceRequest::Stats,
            ServiceRequest::Health,
            ServiceRequest::Drain,
            ServiceRequest::Shutdown,
        ] {
            let json = request.to_json();
            assert_eq!(ServiceRequest::parse(&json).unwrap(), request, "{json}");
        }
    }

    #[test]
    fn replies_round_trip_through_wire_json() {
        for reply in [
            ServiceReply::Result {
                record: "total 4 quarantined 0 \"quoted\\path\"\n".into(),
                key: 0xdead_beef_0bad_cafe,
                cached: true,
            },
            ServiceReply::Busy {
                inflight: 2,
                limit: 2,
                retry_after_ms: 350,
            },
            ServiceReply::Draining { inflight: 1 },
            ServiceReply::Deadline { elapsed_ms: 420 },
            ServiceReply::Cancelled,
            ServiceReply::Error {
                message: "shard 3 panicked: \"boom\"".into(),
            },
            ServiceReply::Stats(ServiceStats {
                queries: 9,
                served: 7,
                busy: 1,
                cache_hits: 4,
                cache_misses: 3,
                cache_evictions: 2,
                cache_entries: 1,
                cache_bytes: 812,
                inflight: 1,
                limit: 2,
                evicted: 3,
                rejected: 6,
                draining: true,
                scrub_passes: 11,
                quarantined: 2,
                repaired: 1,
            }),
            ServiceReply::Health(HealthReport {
                uptime_ms: 120_500,
                inflight: 1,
                lanes: 4,
                lanes_busy: 2,
                lanes_stalled: 1,
                heartbeats_missed: 3,
                scrub_passes: 9,
                quarantined: 1,
                repaired: 1,
                degraded: 0,
            }),
            ServiceReply::Bye,
        ] {
            let json = reply.to_json();
            assert_eq!(ServiceReply::parse(&json).unwrap(), reply, "{json}");
        }
    }

    #[test]
    fn string_carrying_replies_keep_their_wire_bytes() {
        let ok = ServiceReply::Result {
            record: "total 8 \"q\"\n".into(),
            key: 0xab,
            cached: true,
        };
        assert_eq!(
            ok.to_json(),
            "{\"status\":\"ok\",\"cached\":true,\"key\":\"00000000000000ab\",\
             \"record\":\"total 8 \\\"q\\\"\\n\"}"
        );
        let err = ServiceReply::Error {
            message: "bad\tfield".into(),
        };
        assert_eq!(
            err.to_json(),
            "{\"status\":\"error\",\"message\":\"bad\\tfield\"}"
        );
    }

    #[test]
    fn busy_without_a_hint_assumes_the_default() {
        let reply =
            ServiceReply::parse("{\"status\":\"busy\",\"inflight\":2,\"limit\":2}").unwrap();
        assert_eq!(
            reply,
            ServiceReply::Busy {
                inflight: 2,
                limit: 2,
                retry_after_ms: DEFAULT_RETRY_AFTER_MS,
            }
        );
    }

    #[test]
    fn older_servers_stats_and_health_replies_still_decode() {
        // Older servers also sent `stolen`, `pool_restarts`, `reassigned`
        // and `shards_reassigned`; unknown keys are ignored, so their
        // replies decode unchanged. Each decoded reply also round-trips
        // through today's encoding, which carries none of those keys.
        let stats = "{\"status\":\"stats\",\"queries\":3,\"served\":2,\"busy\":1,\
            \"cache_hits\":1,\"cache_misses\":1,\"cache_evictions\":0,\
            \"cache_entries\":1,\"cache_bytes\":90,\"stolen\":4,\
            \"inflight\":0,\"limit\":2,\"pool_restarts\":1,\"reassigned\":4}";
        let reply = ServiceReply::parse(stats).unwrap();
        match &reply {
            ServiceReply::Stats(s) => assert_eq!((s.queries, s.cache_bytes, s.limit), (3, 90, 2)),
            other => panic!("{other:?}"),
        }
        assert_eq!(ServiceReply::parse(&reply.to_json()).unwrap(), reply);
        let health = "{\"status\":\"health\",\"uptime_ms\":5,\"inflight\":0,\
            \"lanes\":2,\"lanes_busy\":0,\"lanes_stalled\":0,\
            \"heartbeats_missed\":1,\"shards_reassigned\":1,\
            \"scrub_passes\":4,\"quarantined\":1,\"repaired\":1,\
            \"degraded\":0,\"pool_restarts\":0}";
        let reply = ServiceReply::parse(health).unwrap();
        match &reply {
            ServiceReply::Health(h) => assert_eq!((h.lanes, h.scrub_passes), (2, 4)),
            other => panic!("{other:?}"),
        }
        assert_eq!(ServiceReply::parse(&reply.to_json()).unwrap(), reply);
        // `retryable` is no longer a reply status.
        assert!(ServiceReply::parse("{\"status\":\"retryable\",\"retry_after_ms\":75}").is_err());
    }

    #[test]
    fn malformed_requests_are_diagnosed_not_panicked() {
        for bad in [
            "",
            "{",
            "not json",
            "{\"op\":\"query\"}",
            "{\"op\":\"mystery\"}",
            "{\"op\":\"query\",\"chips\":8,\"seed\":1,\"constraint\":\"bogus\",\"kind\":\"vertical\"}",
            "{\"op\":\"query\",\"chips\":8,\"seed\":1,\"constraint\":\"nominal\",\"kind\":\"diagonal\"}",
            "{\"op\":\"query\",\"chips\":8,\"seed\":1,\"constraint\":\"nominal\",\"kind\":\"vertical\",\"warmup\":5}",
            "{\"op\":\"query\",\"chips\":-3,\"seed\":1,\"constraint\":\"nominal\",\"kind\":\"vertical\"}",
            "{\"op\":\"query\",\"chips\":{},\"seed\":1,\"constraint\":\"nominal\",\"kind\":\"vertical\"}",
            "{\"op\":\"stats\"} trailing",
        ] {
            assert!(ServiceRequest::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn frames_round_trip_and_enforce_the_cap() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut r = io::Cursor::new(wire);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");

        // A frame length over the cap is refused before allocation.
        let mut huge = io::Cursor::new(((MAX_FRAME + 1) as u32).to_be_bytes().to_vec());
        assert_eq!(
            read_frame(&mut huge).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        // A torn frame is an UnexpectedEof, not a silent truncation.
        let mut torn = Vec::new();
        write_frame(&mut torn, b"full payload").unwrap();
        torn.truncate(torn.len() - 3);
        let mut r = io::Cursor::new(torn);
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn corrupted_frames_fail_their_crc() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"precious payload").unwrap();
        // Flip one payload bit: CRC-32 detects every single-bit error.
        for bit in 0..8 {
            let mut rotted = wire.clone();
            let last = rotted.len() - 1;
            rotted[last] ^= 1 << bit;
            let mut r = io::Cursor::new(rotted);
            let err = read_frame(&mut r).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "bit {bit}");
            assert!(err.to_string().contains("CRC"), "bit {bit}: {err}");
        }
        // A header CRC flip is caught too.
        let mut rotted = wire.clone();
        rotted[5] ^= 0x10;
        let mut r = io::Cursor::new(rotted);
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }
}
