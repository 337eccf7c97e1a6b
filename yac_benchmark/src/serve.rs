//! The serving workload (`serve_mixed`): an in-process `SweepService`
//! behind `serve()` on a loopback listener, driven by closed-loop clients
//! through `client_request` — and the traced replay of the service and
//! wire layers.

use crate::gauge::{Stopwatch, Timing};
use crate::spans::Recorder;
use crate::stats::{derive_seed, digest, percentile, sorted};
use crate::{end_to_end, fail, golden_check, print_percentile, run_rounds, Outcome, WORKERS};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use yac_core::{
    client_request, read_frame, run_supervised, serve, write_frame, ConstraintSpec,
    PopulationConfig, PowerDownKind, ResultCache, ServiceConfig, ServiceReply, ServiceRequest,
    StudyQuery, SweepService,
};

/// Queries warmed into the cache before the timed phase.
pub const HOT_SET: usize = 256;
/// Chips per served study.
const CHIPS: usize = 256;
/// One request of every block of this many is a never-seen query (25 %).
const MISS_BLOCK: u64 = 4;
/// Misses recomputed on a fresh service after the run.
const RECOMPUTED_MISSES: usize = 8;

const RECIPES: [ConstraintSpec; 3] = [
    ConstraintSpec::NOMINAL,
    ConstraintSpec::RELAXED,
    ConstraintSpec::STRICT,
];
const KINDS: [PowerDownKind; 2] = [PowerDownKind::Vertical, PowerDownKind::Horizontal];

// Index ranges of `derive_seed` inputs. Query seeds: the hot set uses
// 0..HOT_SET, client c's k-th miss (c + 1) << 32 | k, the traced probes
// the two ranges below. Distinct indices give distinct seeds, so a
// never-seen query can never be in the hot set or another client's
// stream. Stream randomness uses (STREAM_RANGE + c) << 32 | j.
const WIRE_PROBE_RANGE: u64 = 8;
const SERVICE_PROBE_RANGE: u64 = 9;
const STREAM_RANGE: u64 = 16;

/// The study query at seed index `index`: 256 chips, no CPI, cycling
/// through the three constraint recipes and the two organisations.
fn query(seed: u64, index: u64) -> StudyQuery {
    StudyQuery {
        chips: CHIPS,
        seed: derive_seed(seed, index),
        constraint: RECIPES[(index % 3) as usize],
        kind: KINDS[((index / 3) % 2) as usize],
        cpi: None,
    }
}

fn miss_query(seed: u64, client: usize, k: u64) -> StudyQuery {
    query(seed, ((client as u64 + 1) << 32) | k)
}

/// One request of a client's stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pick {
    /// The hot-set query at this index.
    Hot(usize),
    /// The client's k-th never-seen query.
    Miss(u64),
}

/// Client `client`'s endless request stream: one never-seen query at a
/// seeded position in every block of `MISS_BLOCK` requests, the rest
/// uniform picks from a hot set of `hot` queries.
pub fn client_stream(seed: u64, client: usize, hot: usize) -> impl Iterator<Item = Pick> {
    let base = (STREAM_RANGE + client as u64) << 32;
    let mut misses = 0;
    (0u64..).map(move |j| {
        let slot = derive_seed(seed, base | (1 << 31) | (j / MISS_BLOCK)) % MISS_BLOCK;
        if j % MISS_BLOCK == slot {
            misses += 1;
            Pick::Miss(misses - 1)
        } else {
            Pick::Hot((derive_seed(seed, base | j) % hot as u64) as usize)
        }
    })
}

fn service_config() -> ServiceConfig {
    let mut config = ServiceConfig::default();
    config.exec.workers = WORKERS;
    config
}

fn no_cancel() -> Arc<AtomicBool> {
    Arc::new(AtomicBool::new(false))
}

/// A live service: `serve()` on its own thread, plus the warmed hot set
/// with each query's set-up record.
pub struct Server {
    service: Arc<SweepService>,
    addr: String,
    thread: Option<JoinHandle<io::Result<()>>>,
    hot: Vec<(StudyQuery, String)>,
}

impl Server {
    /// Builds the service, starts serving on 127.0.0.1, and warms `hot`
    /// queries in-process.
    fn start(seed: u64, hot: usize) -> Result<Server, String> {
        let service = Arc::new(SweepService::new(service_config()));
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| e.to_string())?
            .to_string();
        let served = Arc::clone(&service);
        let thread = std::thread::Builder::new()
            .name("bench-serve".into())
            .spawn(move || serve(&listener, &served))
            .map_err(|e| e.to_string())?;
        let mut server = Server {
            service,
            addr,
            thread: Some(thread),
            hot: Vec::with_capacity(hot),
        };
        let cancel = no_cancel();
        for i in 0..hot {
            let q = query(seed, i as u64);
            match server.service.query(&q, &cancel) {
                ServiceReply::Result {
                    record,
                    cached: false,
                    ..
                } => server.hot.push((q, record)),
                other => return Err(format!("warming hot query {i}: {other:?}")),
            }
        }
        Ok(server)
    }

    /// Shuts the serve loop down and reports how it ended.
    fn stop(mut self) -> Result<(), String> {
        self.service.request_shutdown();
        let thread = self.thread.take().expect("a server is stopped once");
        match thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("serve loop: {e}")),
            Err(_) => Err("serve loop panicked".into()),
        }
    }
}

impl Drop for Server {
    /// Stops a server an early return left running; dropping the last
    /// `Arc` then joins the pool, sentinel and scrubber.
    fn drop(&mut self) {
        self.service.request_shutdown();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

#[derive(Debug, Default)]
struct ClientLog {
    hit_ms: Vec<f64>,
    miss_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    misses: Vec<(StudyQuery, String)>,
}

/// One closed-loop client: sends the next requests of its stream over
/// fresh connections, one request at a time, until `deadline`.
fn client_loop(
    server: &Server,
    seed: u64,
    client: usize,
    stream: &mut impl Iterator<Item = Pick>,
    deadline: Instant,
) -> ClientLog {
    let mut log = ClientLog::default();
    while Instant::now() < deadline {
        let pick = stream.next().expect("streams are endless");
        let (query, hot) = match pick {
            Pick::Hot(i) => (server.hot[i].0, Some(i)),
            Pick::Miss(k) => (miss_query(seed, client, k), None),
        };
        log.attempted += 1;
        let t = Instant::now();
        let reply = client_request(
            &server.addr,
            &ServiceRequest::Query {
                query,
                deadline_ms: None,
            },
        );
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let problem = match (reply, hot) {
            (Ok((ServiceReply::Result { record, cached, .. }, _)), Some(i)) => {
                if !cached {
                    Some("hot-set query answered cached:false".to_owned())
                } else if record != server.hot[i].1 {
                    Some(format!(
                        "hit on hot query {i} differs from its set-up record"
                    ))
                } else {
                    log.hit_ms.push(ms);
                    None
                }
            }
            (Ok((ServiceReply::Result { record, cached, .. }, _)), None) => {
                if cached {
                    Some("never-seen query answered cached:true".to_owned())
                } else {
                    log.miss_ms.push(ms);
                    log.misses.push((query, record));
                    None
                }
            }
            (Ok((other, _)), _) => Some(format!("reply {other:?}")),
            (Err(e), _) => Some(format!("transport: {e}")),
        };
        if let Some(problem) = problem {
            log.failed += 1;
            if log.errors.len() < 5 {
                log.errors.push(format!("client {client}: {problem}"));
            }
        }
    }
    log
}

/// Answers `query` in-process and checks the reply is a result with the
/// given `cached` flag and exactly the bytes `record`.
fn expect_result(
    service: &SweepService,
    query: &StudyQuery,
    cached: bool,
    record: &str,
) -> Result<(), String> {
    match service.query(query, &no_cancel()) {
        ServiceReply::Result {
            record: got,
            cached: c,
            ..
        } if c == cached && got == record => Ok(()),
        other => Err(format!(
            "expected a cached:{cached} result with the recorded bytes, got {other:?}"
        )),
    }
}

/// `serve_mixed`: each round's set-up builds a service and warms the hot
/// set; for the round's timed phase two closed-loop clients send the next
/// requests of their seeded streams; afterwards every miss of the round
/// is re-served as a byte-identical hit and the server is stopped. After
/// the last round a sample of the misses is recomputed on a fresh
/// service.
pub fn run(seed: u64, seconds: Duration) -> Outcome {
    let mut out = Outcome::default();
    let mut streams: Vec<_> = (0..WORKERS)
        .map(|c| client_stream(seed, c, HOT_SET))
        .collect();
    let mut hits = Vec::new();
    let mut misses_ms = Vec::new();
    let mut misses = Vec::new();
    let mut hot_records = None;
    let rounds = run_rounds(
        seconds,
        || Server::start(seed, HOT_SET),
        |server, deadline, _| {
            let server = match server {
                Ok(server) => server,
                Err(e) => {
                    fail(&mut out, e);
                    return Timing::default();
                }
            };
            let watch = Stopwatch::start();
            let logs: Vec<ClientLog> = std::thread::scope(|scope| {
                let clients: Vec<_> = streams
                    .iter_mut()
                    .enumerate()
                    .map(|(c, stream)| {
                        let server = &server;
                        scope.spawn(move || client_loop(server, seed, c, stream, deadline))
                    })
                    .collect();
                clients
                    .into_iter()
                    .map(|h| h.join().expect("client thread panicked"))
                    .collect()
            });
            let timed = watch.stop();
            for log in logs {
                out.attempted += log.attempted;
                out.failed += log.failed;
                for e in log.errors {
                    out.error(e);
                }
                hits.extend(log.hit_ms);
                misses_ms.extend(log.miss_ms);
                for (q, record) in &log.misses {
                    if let Err(e) = expect_result(&server.service, q, true, record) {
                        out.error(format!("re-serving a miss: {e}"));
                    }
                }
                misses.extend(log.misses);
            }
            check_round_end(&mut out, server, &mut hot_records);
            timed
        },
    );
    let all: Vec<f64> = hits.iter().chain(&misses_ms).copied().collect();
    end_to_end(&mut out, &rounds, &all, all.len());
    for (name, samples, p) in [
        ("hit_p50_ms", &hits, 50.0),
        ("hit_p99_ms", &hits, 99.0),
        ("miss_p50_ms", &misses_ms, 50.0),
        ("miss_p90_ms", &misses_ms, 90.0),
    ] {
        print_percentile(name, "ms", samples, p, 1.0);
    }

    let fresh = SweepService::new(service_config());
    let step = (misses.len() / RECOMPUTED_MISSES).max(1);
    for (q, record) in misses.iter().step_by(step).take(RECOMPUTED_MISSES) {
        if let Err(e) = expect_result(&fresh, q, false, record) {
            out.error(format!("recomputing a miss on a fresh service: {e}"));
        }
    }
    fresh.shutdown();
    if let Some(hot_records) = hot_records {
        golden_check(
            &mut out,
            seed,
            "hot_set.txt",
            include_str!("../golden/hot_set.txt"),
            &format!("{:016x}", digest(hot_records.as_bytes())),
        );
    }
    out
}

/// Ends a round: checks the cache evicted nothing and the hot set equals
/// the first round's byte for byte, then stops the server.
fn check_round_end(out: &mut Outcome, server: Server, first_hot: &mut Option<String>) {
    let stats = server.service.stats();
    println!(
        "service: hits {} misses {} evictions {} busy {}",
        stats.cache_hits, stats.cache_misses, stats.cache_evictions, stats.busy
    );
    out.check(stats.cache_evictions == 0, || {
        format!(
            "{} cache evictions: the hot set no longer fits",
            stats.cache_evictions
        )
    });
    let hot: String = server.hot.iter().map(|(_, r)| format!("{r}\n")).collect();
    match first_hot {
        None => *first_hot = Some(hot),
        Some(first) => out.check(*first == hot, || {
            "a round's hot-set records differ from the first round's".into()
        }),
    }
    if let Err(e) = server.stop() {
        out.error(e);
    }
}

/// Sizes of the traced service replay.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    hot: usize,
    replay: usize,
    probes: usize,
}

/// The serving workload's own replay.
pub const FULL: Scale = Scale {
    hot: HOT_SET,
    replay: 2000,
    probes: 200,
};

/// The replay on the batch workloads, which do not serve.
pub const PRESENCE: Scale = Scale {
    hot: 32,
    replay: 200,
    probes: 20,
};

/// What the traced service replay did.
#[derive(Debug)]
pub struct ServiceReplay {
    /// Wall time of the in-process part (probes excluded).
    pub wall: Duration,
    /// Requests and probes issued.
    pub ops: u64,
    hits: u64,
    misses: u64,
}

fn frame_roundtrip(text: &str) -> Result<String, String> {
    let mut wire = Vec::new();
    write_frame(&mut wire, text.as_bytes()).map_err(|e| e.to_string())?;
    let payload = read_frame(&mut wire.as_slice())
        .map_err(|e| e.to_string())?
        .ok_or("empty frame")?;
    String::from_utf8(payload).map_err(|e| e.to_string())
}

fn hit_or_miss(reply: &ServiceReply) -> &'static str {
    if matches!(reply, ServiceReply::Result { cached: true, .. }) {
        "service.query_hit"
    } else {
        "service.query_miss"
    }
}

/// Replays, against a fresh server with a hot set of `scale.hot`:
/// the first `scale.replay` requests of `serve_mixed`'s stream in-process
/// (encode → frame → parse → `query` → encode → frame → parse, one
/// request id each); `scale.probes` never-seen queries beside
/// `run_supervised` on the same cell; inserts and lookups on a
/// standalone `ResultCache`; and, when recording, `scale.probes` wire
/// probes of each kind against the live server.
///
/// # Errors
///
/// Describes the first failed call or wrong reply.
pub fn replay_service(rec: &Recorder, seed: u64, scale: Scale) -> Result<ServiceReplay, String> {
    let server = Server::start(seed, scale.hot)?;
    let cancel = no_cancel();
    let start = Instant::now();
    let mut streams: Vec<_> = (0..WORKERS)
        .map(|c| client_stream(seed, c, scale.hot))
        .collect();
    for r in 0..scale.replay {
        let client = r % WORKERS;
        let pick = streams[client].next().expect("streams are endless");
        let (query, hot) = match pick {
            Pick::Hot(i) => (server.hot[i].0, Some(i)),
            Pick::Miss(k) => (miss_query(seed, client, k), None),
        };
        let req = r as u64 + 1;
        rec.span("request", req, || -> Result<(), String> {
            let request = ServiceRequest::Query {
                query,
                deadline_ms: None,
            };
            let text = rec.span("wire.request_encode", req, || request.to_json());
            let text = rec.span("wire.frame", req, || frame_roundtrip(&text))?;
            let parsed = rec.span("wire.request_parse", req, || ServiceRequest::parse(&text))?;
            if parsed != request {
                return Err(format!("request {r} did not survive the codec"));
            }
            let reply =
                rec.span_labelled(req, || server.service.query(&query, &cancel), hit_or_miss);
            let text = rec.span("wire.reply_encode", req, || reply.to_json());
            let text = rec.span("wire.frame", req, || frame_roundtrip(&text))?;
            let back = rec.span("wire.reply_parse", req, || ServiceReply::parse(&text))?;
            match (&back, hot) {
                (
                    ServiceReply::Result {
                        record,
                        cached: true,
                        ..
                    },
                    Some(i),
                ) if *record == server.hot[i].1 => {}
                (ServiceReply::Result { cached: false, .. }, None) => {}
                _ => return Err(format!("request {r} ({pick:?}) answered {back:?}")),
            }
            if back != reply {
                return Err(format!("reply {r} did not survive the codec"));
            }
            Ok(())
        })?;
    }
    for k in 0..scale.probes as u64 {
        let q = query(seed, (SERVICE_PROBE_RANGE << 32) | k);
        let req = (SERVICE_PROBE_RANGE << 32) | k;
        let reply = rec.span_labelled(req, || server.service.query(&q, &cancel), hit_or_miss);
        if !matches!(reply, ServiceReply::Result { cached: false, .. }) {
            return Err(format!("never-seen probe {k} answered {reply:?}"));
        }
        let mut population = PopulationConfig::paper(q.seed);
        population.chips = q.chips;
        rec.span("service.miss_population", req, || {
            run_supervised(&population, &server.service.config().exec)
        })
        .map_err(|e| e.to_string())?;
    }
    let mut cache = ResultCache::new(server.service.config().cache_bytes);
    for (q, record) in &server.hot {
        let key = rec.span("service.fingerprint", 0, || q.fingerprint());
        let record = record.clone();
        rec.span("service.cache_insert", 0, || cache.insert(key, record));
    }
    for (q, record) in &server.hot {
        let key = q.fingerprint();
        if rec.span("service.cache_get", 0, || cache.get(key)).as_ref() != Some(record) {
            return Err("standalone cache lost a hot record".into());
        }
    }
    let wall = start.elapsed();
    let mut ops = (scale.replay + scale.probes + 2 * scale.hot) as u64;
    if rec.is_on() {
        ops += wire_probes(rec, &server, seed, scale.probes)?;
    }
    let stats = server.service.stats();
    server.stop()?;
    Ok(ServiceReplay {
        wall,
        ops,
        hits: stats.cache_hits,
        misses: stats.cache_misses,
    })
}

/// One request/reply exchange on an open connection.
fn exchange(stream: &mut TcpStream, request: &str) -> Result<ServiceReply, String> {
    write_frame(stream, request.as_bytes()).map_err(|e| e.to_string())?;
    let payload = read_frame(stream)
        .map_err(|e| e.to_string())?
        .ok_or("server closed the connection")?;
    let text = String::from_utf8(payload).map_err(|e| e.to_string())?;
    ServiceReply::parse(&text)
}

/// `n` probes of each kind against the live server: `stats` on a fresh
/// connection each (`client_request`), then on one open connection
/// `stats`, hot-set hits and never-seen misses.
fn wire_probes(rec: &Recorder, server: &Server, seed: u64, n: usize) -> Result<u64, String> {
    for _ in 0..n {
        let reply = rec
            .span("wire.fresh_stats", 0, || {
                client_request(&server.addr, &ServiceRequest::Stats)
            })
            .map_err(|e| format!("fresh-connection stats: {e}"))?;
        if !matches!(reply.0, ServiceReply::Stats(_)) {
            return Err(format!("stats answered {:?}", reply.0));
        }
    }
    let mut stream = TcpStream::connect(&server.addr).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let stats = ServiceRequest::Stats.to_json();
    for _ in 0..n {
        let reply = rec.span("wire.persistent_stats", 0, || exchange(&mut stream, &stats))?;
        if !matches!(reply, ServiceReply::Stats(_)) {
            return Err(format!("stats answered {reply:?}"));
        }
    }
    for k in 0..n {
        let (q, record) = &server.hot[k % server.hot.len()];
        let request = ServiceRequest::Query {
            query: *q,
            deadline_ms: None,
        }
        .to_json();
        match rec.span("wire.persistent_hit", 0, || exchange(&mut stream, &request))? {
            ServiceReply::Result {
                record: got,
                cached: true,
                ..
            } if got == *record => {}
            other => return Err(format!("hit probe {k} answered {other:?}")),
        }
    }
    for k in 0..n as u64 {
        let request = ServiceRequest::Query {
            query: query(seed, (WIRE_PROBE_RANGE << 32) | k),
            deadline_ms: None,
        }
        .to_json();
        match rec.span("wire.persistent_miss", 0, || {
            exchange(&mut stream, &request)
        })? {
            ServiceReply::Result { cached: false, .. } => {}
            other => return Err(format!("miss probe {k} answered {other:?}")),
        }
    }
    Ok(4 * n as u64)
}

/// Per-layer metrics of a recorded service replay.
pub fn service_metrics(rec: &Recorder, s: &ServiceReplay, out: &mut Outcome) {
    const US: f64 = 1e-3;
    const MS: f64 = 1e-6;
    for (metric, span, scale) in [
        ("service.query_hit_us", "service.query_hit", US),
        ("service.query_miss_ms", "service.query_miss", MS),
        ("service.miss_population_ms", "service.miss_population", MS),
        ("service.cache_get_us", "service.cache_get", US),
        ("service.cache_insert_us", "service.cache_insert", US),
        ("service.fingerprint_us", "service.fingerprint", US),
        ("wire.frame_roundtrip_us", "wire.frame", US),
        ("wire.fresh_conn_rtt_ms", "wire.fresh_stats", MS),
        ("wire.persistent_rtt_us", "wire.persistent_stats", US),
        ("wire.persistent_hit_us", "wire.persistent_hit", US),
        ("wire.persistent_miss_ms", "wire.persistent_miss", MS),
    ] {
        out.percentile(metric, &rec.self_ns(span), 50.0, scale);
    }
    out.metric("service.hits", s.hits as f64);
    out.metric("service.misses", s.misses as f64);
    out.percentile(
        "wire.request_codec_us",
        &rec.per_request_ns(&["wire.request_encode", "wire.request_parse"]),
        50.0,
        US,
    );
    out.percentile(
        "wire.reply_codec_us",
        &rec.per_request_ns(&["wire.reply_encode", "wire.reply_parse"]),
        50.0,
        US,
    );
    let fresh = rec.self_ns("wire.fresh_stats");
    let open = rec.self_ns("wire.persistent_stats");
    if !fresh.is_empty() && !open.is_empty() {
        out.metric(
            "wire.accept_wait_ms",
            (percentile(&sorted(&fresh), 50.0) - percentile(&sorted(&open), 50.0)) * MS,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_streams_are_deterministic() {
        let a: Vec<Pick> = client_stream(2006, 0, HOT_SET).take(500).collect();
        let b: Vec<Pick> = client_stream(2006, 0, HOT_SET).take(500).collect();
        assert_eq!(a, b);
        let other: Vec<Pick> = client_stream(2007, 0, HOT_SET).take(500).collect();
        assert_ne!(a, other);
        let client1: Vec<Pick> = client_stream(2006, 1, HOT_SET).take(500).collect();
        assert_ne!(a, client1);
    }

    #[test]
    fn miss_fraction_is_exactly_one_in_four() {
        for seed in [1, 2006, u64::MAX] {
            let picks: Vec<Pick> = client_stream(seed, 1, HOT_SET).take(4000).collect();
            for (k, block) in picks.chunks(4).enumerate() {
                let misses: Vec<_> = block
                    .iter()
                    .filter(|p| matches!(p, Pick::Miss(_)))
                    .collect();
                assert_eq!(misses, [&Pick::Miss(k as u64)]);
            }
            assert!(picks
                .iter()
                .all(|p| matches!(p, Pick::Miss(_) | Pick::Hot(0..HOT_SET))));
        }
    }

    #[test]
    fn never_seen_queries_are_disjoint() {
        let seed = 2006;
        let mut keys = std::collections::HashSet::new();
        for i in 0..HOT_SET as u64 {
            assert!(keys.insert(query(seed, i).fingerprint()));
        }
        for client in 0..WORKERS {
            for k in 0..1000 {
                assert!(keys.insert(miss_query(seed, client, k).fingerprint()));
            }
        }
        // The hot set covers every recipe × organisation pair.
        let pairs: std::collections::HashSet<_> = (0..6)
            .map(|i| {
                let q = query(seed, i);
                (q.constraint.name, format!("{:?}", q.kind))
            })
            .collect();
        assert_eq!(pairs.len(), 6);
    }
}
