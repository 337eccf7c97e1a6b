//! The resilient service client: retries with jittered exponential
//! backoff, an overall deadline, and a circuit breaker.
//!
//! [`crate::wire::client_request`] is one shot: any transport hiccup
//! — a chaos-injected disconnect, a corrupt frame, a `Busy` refusal —
//! surfaces directly to the caller. This module wraps it in the
//! standard resilience trio so a client under wire chaos still ends
//! every request in a bit-identical result or a *typed* error:
//!
//! * **Retry with jittered exponential backoff.** Transport errors
//!   (connect/read/write failures, CRC-corrupt frames, mid-frame
//!   disconnects) and [`ServiceReply::Busy`] refusals are retried up to
//!   [`ClientConfig::max_attempts`] times. The backoff doubles per
//!   attempt from [`ClientConfig::base_backoff`], capped at
//!   [`ClientConfig::max_backoff`], with deterministic SplitMix64
//!   "equal jitter" (half fixed, half drawn) so synchronized clients
//!   de-correlate without a global randomness source. A `Busy` reply's
//!   `retry_after_ms` hint is honoured first: the client sleeps at
//!   least the hint, using its own jittered schedule only when that is
//!   longer.
//! * **An overall deadline.** [`ClientConfig::deadline`] bounds the
//!   whole call — connect, all attempts, all backoff sleeps. The
//!   remaining budget is pushed down into each socket's read/write
//!   timeouts, so a mid-request stall cannot overshoot it by more than
//!   one timeout granule.
//! * **A circuit breaker.** [`ClientConfig::breaker_threshold`]
//!   consecutive transport failures open the breaker; while open, calls
//!   fail fast as [`ClientError::BreakerOpen`] without touching the
//!   wire. After [`ClientConfig::breaker_cooldown`] the breaker goes
//!   half-open and admits one probe; success closes it, failure
//!   re-opens it for another cooldown. `Busy` refusals do *not* count —
//!   a saturated server is alive, and hammering the breaker shut on
//!   backpressure would turn a traffic spike into an outage.
//!
//! Every decision is observable: retries count `retry_attempts` and
//! trace `RetryAttempted`; breaker transitions count `breaker_opens` /
//! `breaker_half_opens` and trace `BreakerOpened` / `BreakerHalfOpen`.
//!
//! # Examples
//!
//! ```no_run
//! use yac_core::client::{ClientConfig, ResilientClient};
//! use yac_core::wire::ServiceRequest;
//!
//! let mut client = ResilientClient::new("127.0.0.1:7070", ClientConfig::default());
//! match client.request(&ServiceRequest::Stats) {
//!     Ok((reply, _raw)) => println!("{reply:?}"),
//!     Err(e) => eprintln!("stats failed: {e}"),
//! }
//! ```

use crate::wire::{exchange, ServiceReply, ServiceRequest, CRC_FAILURE};
use std::fmt;
use std::io;
use std::time::{Duration, Instant};
use yac_obs::{Metric, TraceCtx, TraceEventKind};
use yac_variation::montecarlo::mix_seed;

/// Tuning for a [`ResilientClient`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Attempts per request (first try included). Clamped to at
    /// least 1.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Overall budget for one [`ResilientClient::request`] call —
    /// connect, every attempt and every backoff sleep. `None` means
    /// unbounded.
    pub deadline: Option<Duration>,
    /// Consecutive transport failures that open the breaker. Clamped to
    /// at least 1.
    pub breaker_threshold: u32,
    /// How long an open breaker fails fast before admitting a
    /// half-open probe.
    pub breaker_cooldown: Duration,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
}

impl Default for ClientConfig {
    /// Four attempts, 50 ms–2 s backoff, a 30 s deadline, a breaker
    /// that opens after 5 straight transport failures for 1 s.
    fn default() -> Self {
        ClientConfig {
            max_attempts: 4,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            deadline: Some(Duration::from_secs(30)),
            breaker_threshold: 5,
            breaker_cooldown: Duration::from_secs(1),
            seed: 0,
        }
    }
}

/// Why a [`ResilientClient::request`] gave up. Every variant is a
/// terminal, typed outcome — the client never hangs and never returns a
/// silently wrong payload.
#[derive(Debug)]
pub enum ClientError {
    /// The breaker is open: recent attempts all failed at the transport
    /// layer, and the cooldown has not elapsed. No wire traffic was
    /// attempted.
    BreakerOpen {
        /// How long until the breaker admits a half-open probe.
        remaining: Duration,
    },
    /// The overall deadline expired before any attempt succeeded.
    DeadlineExceeded {
        /// Time spent before giving up.
        elapsed: Duration,
        /// Attempts made (including the one in flight, if any).
        attempts: u32,
        /// The last transport error or refusal, if any attempt ran.
        last: Option<String>,
    },
    /// Every attempt failed or was refused.
    Exhausted {
        /// Attempts made.
        attempts: u32,
        /// The last transport error or refusal.
        last: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::BreakerOpen { remaining } => write!(
                f,
                "circuit breaker is open ({} ms until half-open probe)",
                remaining.as_millis()
            ),
            ClientError::DeadlineExceeded {
                elapsed,
                attempts,
                last,
            } => {
                write!(
                    f,
                    "deadline exceeded after {} ms and {attempts} attempt(s)",
                    elapsed.as_millis()
                )?;
                if let Some(last) = last {
                    write!(f, " (last: {last})")?;
                }
                Ok(())
            }
            ClientError::Exhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempt(s) (last: {last})")
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// Breaker state. `Open` and `HalfOpen` carry when the breaker opened,
/// so cooldown math needs no extra field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    /// Requests flow; consecutive transport failures are counted.
    Closed,
    /// Requests fail fast until the cooldown elapses.
    Open,
    /// One probe is in flight; its outcome decides open vs closed.
    HalfOpen,
}

/// A closed/open/half-open circuit breaker over consecutive transport
/// failures. Time is supplied by the caller ([`Instant`] values), which
/// keeps the state machine deterministic under test.
#[derive(Debug)]
pub struct CircuitBreaker {
    threshold: u32,
    cooldown: Duration,
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: Option<Instant>,
}

impl CircuitBreaker {
    /// A closed breaker that opens after `threshold` consecutive
    /// failures (clamped to at least 1) and cools down for `cooldown`.
    #[must_use]
    pub fn new(threshold: u32, cooldown: Duration) -> Self {
        CircuitBreaker {
            threshold: threshold.max(1),
            cooldown,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at: None,
        }
    }

    /// Whether a request may proceed at `now`. An open breaker whose
    /// cooldown has elapsed transitions to half-open (traced and
    /// counted) and admits the caller as the probe; an open breaker
    /// inside the cooldown refuses with the remaining wait.
    ///
    /// # Errors
    ///
    /// [`ClientError::BreakerOpen`] with the time until the next probe.
    pub fn admit(&mut self, now: Instant) -> Result<(), ClientError> {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => Ok(()),
            BreakerState::Open => {
                let since = self
                    .opened_at
                    .map_or(Duration::ZERO, |at| now.saturating_duration_since(at));
                if since >= self.cooldown {
                    self.state = BreakerState::HalfOpen;
                    yac_obs::inc(Metric::BreakerHalfOpens);
                    yac_obs::trace_instant(TraceEventKind::BreakerHalfOpen, TraceCtx::default());
                    Ok(())
                } else {
                    Err(ClientError::BreakerOpen {
                        remaining: self.cooldown - since,
                    })
                }
            }
        }
    }

    /// Records a successful attempt: closes the breaker and clears the
    /// failure streak.
    pub fn on_success(&mut self) {
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
        self.opened_at = None;
    }

    /// Records a transport failure at `now`. A half-open probe failure
    /// re-opens immediately; in the closed state the streak is counted
    /// and the breaker opens at the threshold (traced and counted).
    pub fn on_failure(&mut self, now: Instant) {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        let should_open =
            self.state == BreakerState::HalfOpen || self.consecutive_failures >= self.threshold;
        if should_open && self.state != BreakerState::Open {
            self.state = BreakerState::Open;
            self.opened_at = Some(now);
            yac_obs::inc(Metric::BreakerOpens);
            yac_obs::trace_instant(TraceEventKind::BreakerOpened, TraceCtx::default());
        } else if should_open {
            self.opened_at = Some(now);
        }
    }

    /// Whether the breaker is currently refusing requests (ignoring
    /// cooldown expiry).
    #[must_use]
    pub fn is_open(&self) -> bool {
        self.state == BreakerState::Open
    }
}

/// The jittered exponential backoff before retry number `attempt`
/// (0-based): `base << attempt` capped at `max`, then "equal jitter" —
/// half the delay fixed, half scaled by a deterministic SplitMix64 draw
/// — so the result lies in `[delay/2, delay)`.
#[must_use]
pub fn backoff_delay(
    base: Duration,
    max: Duration,
    attempt: u32,
    seed: u64,
    draw_index: u64,
) -> Duration {
    let exp = base
        .checked_mul(1u32 << attempt.min(16))
        .unwrap_or(max)
        .min(max);
    let half = exp / 2;
    // Top 53 bits of the draw as a fraction in [0, 1).
    let unit = (mix_seed(seed, draw_index) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    half + Duration::from_secs_f64(half.as_secs_f64() * unit)
}

/// A service client with retry, deadline and breaker discipline. Owns
/// the breaker state, so reuse one client per server address.
#[derive(Debug)]
pub struct ResilientClient {
    addr: String,
    config: ClientConfig,
    breaker: CircuitBreaker,
    /// Monotone jitter-draw index, so back-to-back requests never reuse
    /// a sleep.
    draws: u64,
}

/// Why one attempt did not produce a terminal reply.
enum AttemptFailure {
    /// Connect/read/write/decode failed: counts against the breaker.
    Transport(io::Error),
    /// The server refused with `Busy`: backpressure, not breakage.
    Busy { retry_after: Duration },
}

impl AttemptFailure {
    fn describe(&self) -> String {
        match self {
            AttemptFailure::Transport(e) => e.to_string(),
            AttemptFailure::Busy { retry_after } => {
                format!("server busy (retry after {} ms)", retry_after.as_millis())
            }
        }
    }
}

impl ResilientClient {
    /// A client for `addr` with a fresh (closed) breaker.
    #[must_use]
    pub fn new(addr: impl Into<String>, config: ClientConfig) -> Self {
        let breaker = CircuitBreaker::new(config.breaker_threshold, config.breaker_cooldown);
        ResilientClient {
            addr: addr.into(),
            config,
            breaker,
            draws: 0,
        }
    }

    /// The breaker, for inspection.
    #[must_use]
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// Sends `request` until a terminal reply, the attempt budget, the
    /// deadline or the breaker stops it. Terminal replies — results,
    /// stats, errors, `draining`, `deadline`, `cancelled`, `bye` — are
    /// returned as `Ok` with the raw reply text; only transport
    /// failures and `Busy` refusals are retried.
    ///
    /// # Errors
    ///
    /// [`ClientError`] — see its variants; every failure mode is typed.
    pub fn request(
        &mut self,
        request: &ServiceRequest,
    ) -> Result<(ServiceReply, String), ClientError> {
        let started = Instant::now();
        let max_attempts = self.config.max_attempts.max(1);
        let mut last: Option<AttemptFailure> = None;
        for attempt in 0..max_attempts {
            self.breaker.admit(Instant::now())?;
            if attempt > 0 {
                yac_obs::inc(Metric::RetryAttempts);
                yac_obs::trace_instant(TraceEventKind::RetryAttempted, TraceCtx::default());
            }
            match self.attempt(request, started) {
                Ok(terminal) => {
                    self.breaker.on_success();
                    return Ok(terminal);
                }
                Err(failure) => {
                    if let AttemptFailure::Transport(_) = &failure {
                        self.breaker.on_failure(Instant::now());
                    }
                    let sleep = self.next_backoff(&failure, attempt);
                    last = Some(failure);
                    // Don't start a sleep (or another attempt) the
                    // deadline cannot cover.
                    if let Some(deadline) = self.config.deadline {
                        if started.elapsed() + sleep >= deadline {
                            return Err(ClientError::DeadlineExceeded {
                                elapsed: started.elapsed(),
                                attempts: attempt + 1,
                                last: last.as_ref().map(AttemptFailure::describe),
                            });
                        }
                    }
                    if attempt + 1 < max_attempts {
                        std::thread::sleep(sleep);
                    }
                }
            }
        }
        Err(ClientError::Exhausted {
            attempts: max_attempts,
            last: last.map_or_else(|| "no attempt ran".into(), |f| f.describe()),
        })
    }

    /// The sleep before the next attempt: the jittered exponential
    /// schedule, raised to the server's `retry_after_ms` hint when the
    /// refusal carried a longer one.
    fn next_backoff(&mut self, failure: &AttemptFailure, attempt: u32) -> Duration {
        let draw = self.draws;
        self.draws += 1;
        let own = backoff_delay(
            self.config.base_backoff,
            self.config.max_backoff,
            attempt,
            self.config.seed,
            draw,
        );
        match failure {
            AttemptFailure::Busy { retry_after } => own.max(*retry_after),
            AttemptFailure::Transport(_) => own,
        }
    }

    /// One wire attempt: the shared exchange under the remaining overall
    /// budget as its socket timeouts, so a stalled server cannot hang the
    /// call past its deadline. Only terminal replies are returned.
    fn attempt(
        &self,
        request: &ServiceRequest,
        started: Instant,
    ) -> Result<(ServiceReply, String), AttemptFailure> {
        let timeout = self.config.deadline.map(|deadline| {
            deadline
                .saturating_sub(started.elapsed())
                .max(Duration::from_millis(1))
        });
        let (reply, text) =
            exchange(&self.addr, request, timeout).map_err(AttemptFailure::Transport)?;
        match reply {
            ServiceReply::Busy { retry_after_ms, .. } => Err(AttemptFailure::Busy {
                retry_after: Duration::from_millis(retry_after_ms),
            }),
            // A server-side CRC failure means the wire corrupted our
            // request in flight — transient, so retry it like any other
            // transport fault rather than surfacing it as terminal.
            ServiceReply::Error { message } if message.contains(CRC_FAILURE) => Err(
                AttemptFailure::Transport(io::Error::new(io::ErrorKind::InvalidData, message)),
            ),
            reply => Ok((reply, text)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    #[test]
    fn breaker_walks_closed_open_half_open_closed() {
        let t0 = Instant::now();
        let mut b = CircuitBreaker::new(2, Duration::from_millis(250));
        assert!(b.admit(t0).is_ok());
        b.on_failure(t0);
        assert!(!b.is_open(), "one failure is below the threshold");
        b.on_failure(t0);
        assert!(b.is_open(), "threshold reached");

        // Inside the cooldown: fail fast with the remaining wait.
        match b.admit(t0 + Duration::from_millis(100)) {
            Err(ClientError::BreakerOpen { remaining }) => {
                assert_eq!(remaining, Duration::from_millis(150));
            }
            other => panic!("expected BreakerOpen, got {other:?}"),
        }

        // Past the cooldown: one half-open probe is admitted.
        assert!(b.admit(t0 + Duration::from_millis(300)).is_ok());
        assert!(!b.is_open());

        // Probe success closes it and clears the streak.
        b.on_success();
        b.on_failure(t0);
        assert!(!b.is_open(), "streak was reset by the success");
    }

    #[test]
    fn half_open_probe_failure_reopens_immediately() {
        let t0 = Instant::now();
        let mut b = CircuitBreaker::new(3, Duration::from_millis(100));
        for _ in 0..3 {
            b.on_failure(t0);
        }
        assert!(b.is_open());
        assert!(b.admit(t0 + Duration::from_millis(150)).is_ok());
        // The probe fails: straight back to open, new cooldown epoch.
        b.on_failure(t0 + Duration::from_millis(150));
        assert!(b.is_open());
        assert!(b.admit(t0 + Duration::from_millis(200)).is_err());
        assert!(b.admit(t0 + Duration::from_millis(260)).is_ok());
    }

    #[test]
    fn backoff_doubles_caps_and_jitters_within_bounds() {
        let base = Duration::from_millis(100);
        let max = Duration::from_secs(1);
        for attempt in 0..6 {
            let exp = base.checked_mul(1 << attempt).unwrap().min(max);
            for draw in 0..8 {
                let d = backoff_delay(base, max, attempt, 42, draw);
                assert!(d >= exp / 2, "attempt {attempt} draw {draw}: {d:?}");
                assert!(d < exp, "attempt {attempt} draw {draw}: {d:?}");
            }
        }
        // Deterministic: same seed and draw index, same delay.
        assert_eq!(
            backoff_delay(base, max, 3, 7, 11),
            backoff_delay(base, max, 3, 7, 11)
        );
        // Huge attempt numbers saturate at the cap instead of
        // overflowing.
        let d = backoff_delay(base, max, 60, 7, 0);
        assert!(d >= max / 2 && d < max);
    }

    /// A minimal server that answers each fresh connection from a
    /// script of canned replies (`None` = slam the connection shut).
    fn scripted_server(
        replies: Vec<Option<ServiceReply>>,
    ) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            for reply in replies {
                let (mut stream, _) = listener.accept().unwrap();
                // Consume the request frame so the client's write wins.
                let _ = crate::wire::read_frame(&mut stream);
                match reply {
                    Some(reply) => {
                        let _ = crate::wire::write_frame(&mut stream, reply.to_json().as_bytes());
                    }
                    None => drop(stream), // mid-exchange disconnect
                }
            }
        });
        (addr, handle)
    }

    fn quick_config() -> ClientConfig {
        ClientConfig {
            max_attempts: 4,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
            deadline: Some(Duration::from_secs(10)),
            breaker_threshold: 10,
            breaker_cooldown: Duration::from_millis(50),
            seed: 1,
        }
    }

    #[test]
    fn busy_refusals_are_retried_without_breaker_penalty() {
        let busy = ServiceReply::Busy {
            inflight: 2,
            limit: 2,
            retry_after_ms: 1,
        };
        let (addr, server) = scripted_server(vec![
            Some(busy.clone()),
            Some(busy),
            Some(ServiceReply::Bye),
        ]);
        let mut config = quick_config();
        // A breaker that opens on the first failure: if Busy hit the
        // breaker, the second attempt would be refused outright.
        config.breaker_threshold = 1;
        let mut client = ResilientClient::new(addr, config);
        let (reply, _) = client.request(&ServiceRequest::Shutdown).unwrap();
        assert_eq!(reply, ServiceReply::Bye);
        assert!(!client.breaker().is_open());
        server.join().unwrap();
    }

    #[test]
    fn a_server_side_crc_failure_is_retried_once() {
        // The exact text a server sends back for a request frame that
        // failed its CRC in flight.
        let mut wire = Vec::new();
        crate::wire::write_frame(&mut wire, b"{\"op\":\"stats\"}").unwrap();
        let last = wire.len() - 1;
        wire[last] ^= 1;
        let message = crate::wire::read_frame(&mut io::Cursor::new(wire))
            .unwrap_err()
            .to_string();
        let result = ServiceReply::Result {
            record: "R 1 2 3".into(),
            key: 0xfeed,
            cached: true,
        };
        let (addr, server) = scripted_server(vec![
            Some(ServiceReply::Error { message }),
            Some(result.clone()),
        ]);
        let mut config = quick_config();
        config.max_attempts = 2;
        let mut client = ResilientClient::new(addr, config);
        let (reply, _) = client.request(&ServiceRequest::Stats).unwrap();
        assert_eq!(reply, result);
        server.join().unwrap();
    }

    #[test]
    fn disconnects_are_retried_and_counted() {
        yac_obs::global().enable();
        let before = yac_obs::global().counter(Metric::RetryAttempts);
        let (addr, server) = scripted_server(vec![None, None, Some(ServiceReply::Bye)]);
        let mut client = ResilientClient::new(addr, quick_config());
        let (reply, _) = client.request(&ServiceRequest::Stats).unwrap();
        assert_eq!(reply, ServiceReply::Bye);
        let after = yac_obs::global().counter(Metric::RetryAttempts);
        assert!(after >= before + 2, "two retries were counted");
        server.join().unwrap();
    }

    #[test]
    fn exhaustion_is_a_typed_error_naming_the_last_failure() {
        let (addr, server) = scripted_server(vec![None, None, None, None]);
        let mut config = quick_config();
        config.max_attempts = 4;
        let mut client = ResilientClient::new(addr, config);
        match client.request(&ServiceRequest::Stats) {
            Err(ClientError::Exhausted { attempts: 4, last }) => {
                assert!(!last.is_empty());
            }
            other => panic!("expected Exhausted, got {other:?}"),
        }
        server.join().unwrap();
    }

    #[test]
    fn breaker_opens_after_consecutive_transport_failures_and_fails_fast() {
        // Nothing listens on this address: every connect fails.
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let mut config = quick_config();
        config.max_attempts = 3;
        config.breaker_threshold = 3;
        config.breaker_cooldown = Duration::from_secs(60);
        let mut client = ResilientClient::new(dead, config);
        match client.request(&ServiceRequest::Stats) {
            Err(ClientError::Exhausted { .. }) => {}
            other => panic!("expected Exhausted, got {other:?}"),
        }
        assert!(client.breaker().is_open());
        // The next call never touches the wire.
        match client.request(&ServiceRequest::Stats) {
            Err(ClientError::BreakerOpen { .. }) => {}
            other => panic!("expected BreakerOpen, got {other:?}"),
        }
    }

    #[test]
    fn deadline_bounds_the_whole_call() {
        // A server that accepts and then never replies.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let served = Arc::new(AtomicU32::new(0));
        let served_clone = Arc::clone(&served);
        let server = std::thread::spawn(move || {
            let mut held = Vec::new();
            // Hold sockets open without replying until the test ends.
            while served_clone.load(Ordering::Relaxed) == 0 {
                listener.set_nonblocking(true).unwrap();
                if let Ok((stream, _)) = listener.accept() {
                    held.push(stream);
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        let mut config = quick_config();
        config.deadline = Some(Duration::from_millis(200));
        let mut client = ResilientClient::new(addr, config);
        let started = Instant::now();
        match client.request(&ServiceRequest::Stats) {
            Err(ClientError::DeadlineExceeded { .. }) | Err(ClientError::Exhausted { .. }) => {}
            other => panic!("expected a deadline/exhaustion error, got {other:?}"),
        }
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "the call returned promptly, not hung"
        );
        served.store(1, Ordering::Relaxed);
        server.join().unwrap();
    }
}
