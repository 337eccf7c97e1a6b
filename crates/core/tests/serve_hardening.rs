//! Overload-hardening tests for the TCP serve loop: slowloris eviction,
//! the connection cap, graceful drain, client-supplied query deadlines,
//! and the wakes that unblock a loop waiting in `accept`. Most
//! timing-sensitive checks use generous bounds — the point is "bounded
//! and typed" — except the two latency tests, whose bounds sit far
//! between a loop that reacts at once and one that waits out a tick.
//!
//! Assertions read per-service stats, never the process-global metric
//! registry — other tests in this binary share that registry.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{self, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};
use yac_core::{
    client_request, read_frame, serve, write_frame, ConstraintSpec, ExecutorConfig, PowerDownKind,
    ServiceConfig, ServiceReply, ServiceRequest, StudyQuery, SweepService,
};

fn small_query(seed: u64) -> StudyQuery {
    StudyQuery {
        chips: 16,
        seed,
        constraint: ConstraintSpec::NOMINAL,
        kind: PowerDownKind::Vertical,
        cpi: None,
    }
}

fn fast_exec() -> ExecutorConfig {
    let mut exec = ExecutorConfig::with_workers(2);
    exec.shard_chips = 8;
    exec
}

/// Chips in a [`slow_query`]. Sized on a 2-vCPU host under the test
/// profile (`opt-level = 2`, debug assertions on), where a query
/// computes about 50,000 chips/s on [`fast_exec`]'s two workers, so
/// this one takes about 600 ms: more than three times the longest bound
/// a test below measures it against, the 150 ms in which a hung-up
/// client must free its slot.
const SLOW_CHIPS: usize = 30_000;

/// A query made slow by its work alone: [`SLOW_CHIPS`] chips in
/// [`fast_exec`]'s 8-chip shards, so a cancel still lands between chips
/// within microseconds.
fn slow_query(seed: u64) -> StudyQuery {
    StudyQuery {
        chips: SLOW_CHIPS,
        ..small_query(seed)
    }
}

struct Harness {
    addr: String,
    service: Arc<SweepService>,
    server: std::thread::JoinHandle<std::io::Result<()>>,
}

fn start(config: ServiceConfig) -> Harness {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let service = Arc::new(SweepService::new(config));
    let server = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || serve(&listener, &service))
    };
    Harness {
        addr,
        service,
        server,
    }
}

impl Harness {
    /// Shuts the server down over the wire and joins it.
    fn finish(self) {
        let (bye, _) = client_request(&self.addr, &ServiceRequest::Shutdown).unwrap();
        assert_eq!(bye, ServiceReply::Bye);
        self.server.join().unwrap().unwrap();
    }
}

/// A client that sends half a frame header and stalls is evicted within
/// the read deadline (plus slack), not serviced and not hung on — the
/// slowloris defence.
#[test]
fn slow_clients_are_evicted_within_the_read_deadline() {
    let harness = start(ServiceConfig {
        exec: fast_exec(),
        max_inflight: 1,
        cache_bytes: 1 << 20,
        read_deadline: Duration::from_millis(100),
        ..ServiceConfig::default()
    });

    let mut stream = TcpStream::connect(&harness.addr).unwrap();
    stream.write_all(&[0, 0, 0, 9]).unwrap(); // half a header, then silence
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let started = Instant::now();
    let mut byte = [0u8; 1];
    let evicted = matches!(stream.read(&mut byte), Ok(0) | Err(_));
    assert!(evicted, "the stalled connection was serviced, not dropped");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "eviction took {:?} — the read deadline did not fire",
        started.elapsed()
    );
    let deadline = Instant::now() + Duration::from_secs(5);
    while harness.service.stats().evicted == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(harness.service.stats().evicted, 1, "eviction not counted");

    // An idle-but-polite client (connected, no bytes at all) is NOT
    // evicted: the deadline arms at the first byte of a frame.
    let idle = TcpStream::connect(&harness.addr).unwrap();
    std::thread::sleep(Duration::from_millis(250));
    let (reply, _) = client_request(&harness.addr, &ServiceRequest::Stats).unwrap();
    match reply {
        ServiceReply::Stats(stats) => assert_eq!(stats.evicted, 1, "idle client was evicted"),
        other => panic!("expected stats, got {other:?}"),
    }
    drop(idle);

    // A peer that stalls in the payload instead: a whole header claiming
    // 64 bytes, 10 of them, then silence. The deadline still fires.
    let mut stream = TcpStream::connect(&harness.addr).unwrap();
    let mut partial = 64u32.to_be_bytes().to_vec();
    partial.extend_from_slice(&[0u8; 4 + 10]);
    stream.write_all(&partial).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let started = Instant::now();
    let evicted = matches!(stream.read(&mut byte), Ok(0) | Err(_));
    assert!(evicted, "the payload-stalled connection was serviced");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "payload eviction took {:?}",
        started.elapsed()
    );
    let deadline = Instant::now() + Duration::from_secs(5);
    while harness.service.stats().evicted < 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(harness.service.stats().evicted, 2, "eviction not counted");
    harness.finish();
}

/// Connections beyond `max_conns` receive a typed `Busy` refusal and a
/// close — accept never stalls and handlers never pile up unbounded.
#[test]
fn connections_beyond_the_cap_are_refused_with_busy() {
    let harness = start(ServiceConfig {
        exec: fast_exec(),
        max_inflight: 1,
        cache_bytes: 1 << 20,
        max_conns: 1,
        ..ServiceConfig::default()
    });

    // Occupy the only slot with an open, idle connection.
    let held = TcpStream::connect(&harness.addr).unwrap();
    // The serve loop learns about the held connection asynchronously;
    // poll until the next connection is refused.
    let deadline = Instant::now() + Duration::from_secs(10);
    let refusal = loop {
        assert!(Instant::now() < deadline, "no refusal before the deadline");
        match client_request(&harness.addr, &ServiceRequest::Stats) {
            Ok((ServiceReply::Busy { .. }, _)) => break harness.service.stats(),
            Ok(_) => std::thread::sleep(Duration::from_millis(10)),
            // The refusal path may also close before the reply lands.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    };
    assert!(refusal.rejected >= 1, "refusals must be counted");

    // Releasing the held connection frees the slot.
    drop(held);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        assert!(Instant::now() < deadline, "slot never freed after close");
        if let Ok((ServiceReply::Stats(_), _)) =
            client_request(&harness.addr, &ServiceRequest::Stats)
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    harness.finish();
}

/// Drain: the `drain` op is acknowledged, later queries are refused
/// with `Draining`, and the serve loop exits on its own once in-flight
/// work completes — no shutdown op needed, no slot leaked.
#[test]
fn drain_refuses_new_queries_and_exits_once_idle() {
    let harness = start(ServiceConfig {
        exec: fast_exec(),
        max_inflight: 2,
        cache_bytes: 1 << 20,
        ..ServiceConfig::default()
    });

    // Prove the service works, then drain it.
    let request = ServiceRequest::Query {
        query: small_query(41),
        deadline_ms: None,
    };
    let (reply, _) = client_request(&harness.addr, &request).unwrap();
    assert!(matches!(reply, ServiceReply::Result { .. }));

    let (reply, _) = client_request(&harness.addr, &ServiceRequest::Drain).unwrap();
    match reply {
        ServiceReply::Draining { inflight } => assert_eq!(inflight, 0),
        other => panic!("expected a draining ack, got {other:?}"),
    }

    // A query racing the drain is refused with the typed status (the
    // serve loop may already be gone, which is equally acceptable).
    if let Ok((reply, _)) = client_request(&harness.addr, &request) {
        assert!(
            matches!(reply, ServiceReply::Draining { .. }),
            "expected a draining refusal, got {reply:?}"
        );
    }

    // The loop exits without a shutdown op.
    harness.server.join().unwrap().unwrap();
    assert_eq!(harness.service.inflight(), 0, "drain leaked a slot");
    let stats = harness.service.stats();
    assert!(stats.draining, "stats must report the draining state");
}

/// A client-supplied `deadline_ms` cancels a slow query cooperatively:
/// the reply is the typed `Deadline` status carrying the elapsed time,
/// and the service stays healthy for the next query.
#[test]
fn query_deadlines_cancel_cooperatively_with_a_typed_reply() {
    let harness = start(ServiceConfig {
        exec: fast_exec(),
        max_inflight: 1,
        cache_bytes: 1 << 20,
        ..ServiceConfig::default()
    });

    let request = ServiceRequest::Query {
        query: slow_query(51),
        deadline_ms: Some(30),
    };
    let started = Instant::now();
    let (reply, _) = client_request(&harness.addr, &request).unwrap();
    match reply {
        ServiceReply::Deadline { elapsed_ms } => {
            assert!(elapsed_ms >= 25, "deadline fired early: {elapsed_ms} ms");
        }
        other => panic!("expected a deadline reply, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "deadline reply took {:?}",
        started.elapsed()
    );
    assert_eq!(harness.service.inflight(), 0, "deadline leaked a slot");

    // The same query without a deadline completes normally.
    let request = ServiceRequest::Query {
        query: slow_query(51),
        deadline_ms: None,
    };
    let (reply, _) = client_request(&harness.addr, &request).unwrap();
    assert!(
        matches!(reply, ServiceReply::Result { cached: false, .. }),
        "service unhealthy after a deadline cancel: {reply:?}"
    );
    harness.finish();
}

/// A client that hangs up while its query computes cancels the query:
/// the connection thread's peek sees the close, the shards stop, and the
/// admission slot frees long before the query could have finished.
/// The cancelled query cached nothing, so asking again computes afresh;
/// a deadline past the clock's range is no deadline.
#[test]
fn a_client_that_hangs_up_cancels_its_query() {
    let harness = start(ServiceConfig {
        exec: fast_exec(),
        max_inflight: 1,
        cache_bytes: 1 << 20,
        ..ServiceConfig::default()
    });
    let request = |deadline_ms| ServiceRequest::Query {
        query: slow_query(61),
        deadline_ms,
    };

    let mut conn = TcpStream::connect(&harness.addr).unwrap();
    write_frame(&mut conn, request(None).to_json().as_bytes()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while harness.service.inflight() == 0 {
        assert!(Instant::now() < deadline, "the query never started");
        std::thread::sleep(Duration::from_millis(1));
    }
    drop(conn);
    let closed = Instant::now();
    while harness.service.inflight() > 0 {
        assert!(
            closed.elapsed() < Duration::from_millis(150),
            "the slot was still held {:?} after the client hung up",
            closed.elapsed()
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    let (reply, _) = client_request(&harness.addr, &request(Some(u64::MAX))).unwrap();
    assert!(
        matches!(reply, ServiceReply::Result { cached: false, .. }),
        "the re-query was not computed afresh: {reply:?}"
    );
    harness.finish();
}

/// Runs `serve()` on its own thread and reports its result through a
/// channel, so a lost wake fails the test (see [`serve_exits`]) instead
/// of hanging it the way a plain `join` would.
fn serve_watched(
    listener: TcpListener,
    config: ServiceConfig,
) -> (Arc<SweepService>, mpsc::Receiver<io::Result<()>>) {
    let service = Arc::new(SweepService::new(config));
    let (tx, rx) = mpsc::channel();
    let served = Arc::clone(&service);
    std::thread::spawn(move || {
        let _ = tx.send(serve(&listener, &served));
    });
    (service, rx)
}

fn serve_exits(exited: &mpsc::Receiver<io::Result<()>>) {
    exited
        .recv_timeout(Duration::from_secs(10))
        .expect("serve() did not return within 10 s: a wake was lost")
        .expect("serve() failed");
}

fn quick_config() -> ServiceConfig {
    ServiceConfig {
        exec: fast_exec(),
        max_inflight: 1,
        cache_bytes: 1 << 20,
        ..ServiceConfig::default()
    }
}

/// `request_shutdown` unblocks a loop that is waiting in `accept` and
/// has never seen a client; the wake connection is not a rejection.
#[test]
fn shutdown_wakes_a_loop_no_client_ever_reached() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let (service, exited) = serve_watched(listener, quick_config());
    std::thread::sleep(Duration::from_millis(50)); // let it block in accept
    service.request_shutdown();
    serve_exits(&exited);
    assert_eq!(service.stats().rejected, 0, "the wake was counted");
}

/// A drain with nothing in flight ends the loop at once, turning into
/// a shutdown so idle handlers wind down too.
#[test]
fn drain_with_nothing_in_flight_wakes_the_loop() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let (service, exited) = serve_watched(listener, quick_config());
    std::thread::sleep(Duration::from_millis(50));
    service.request_drain();
    serve_exits(&exited);
    assert!(
        service.shutdown_requested(),
        "a finished drain must shut down"
    );
}

/// A drain requested while a miss computes keeps the loop alive until
/// that query's slot frees, and the freed slot is what wakes it.
#[test]
fn drain_during_a_miss_exits_once_the_slot_frees() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let (service, exited) = serve_watched(
        listener,
        ServiceConfig {
            exec: fast_exec(),
            ..quick_config()
        },
    );
    let client = std::thread::spawn(move || {
        let request = ServiceRequest::Query {
            query: slow_query(61),
            deadline_ms: None,
        };
        client_request(&addr, &request)
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.inflight() == 0 {
        assert!(Instant::now() < deadline, "the miss never started");
        std::thread::sleep(Duration::from_millis(1));
    }
    service.request_drain();
    assert!(
        matches!(exited.try_recv(), Err(TryRecvError::Empty)),
        "serve() exited with a query in flight"
    );
    let (reply, _) = client.join().unwrap().unwrap();
    assert!(
        matches!(reply, ServiceReply::Result { cached: false, .. }),
        "the in-flight miss must finish: {reply:?}"
    );
    serve_exits(&exited);
    assert_eq!(service.inflight(), 0, "drain leaked a slot");
}

/// A listener bound to the unspecified address is woken through
/// loopback. With the only handler slot taken, a wake that reached the
/// connection cap would be refused and counted; it must be neither.
#[test]
fn a_wildcard_listener_is_woken_through_loopback() {
    let listener = TcpListener::bind("0.0.0.0:0").unwrap();
    let addr = format!("127.0.0.1:{}", listener.local_addr().unwrap().port());
    let (service, exited) = serve_watched(
        listener,
        ServiceConfig {
            max_conns: 1,
            ..quick_config()
        },
    );
    let held = TcpStream::connect(&addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.stats().rejected == 0 {
        assert!(Instant::now() < deadline, "no refusal before the deadline");
        let _ = client_request(&addr, &ServiceRequest::Stats);
    }
    let rejected = service.stats().rejected;
    service.request_shutdown();
    serve_exits(&exited);
    assert_eq!(service.stats().rejected, rejected, "the wake was refused");
    drop(held);
}

/// Fresh connections are served as they arrive, not on the next poll
/// tick: an accept loop that waited out a 25 ms tick per connection
/// would need about a second for these 40 one-shot round trips.
#[test]
fn fresh_connections_do_not_wait_out_a_tick() {
    let harness = start(quick_config());
    client_request(&harness.addr, &ServiceRequest::Stats).unwrap();
    let started = Instant::now();
    for _ in 0..40 {
        let (reply, _) = client_request(&harness.addr, &ServiceRequest::Stats).unwrap();
        assert!(matches!(reply, ServiceReply::Stats(_)), "{reply:?}");
    }
    let took = started.elapsed();
    assert!(
        took < Duration::from_millis(500),
        "40 round trips took {took:?}"
    );
    harness.finish();
}

/// 100 cache hits on one open connection finish in under 500 ms: the
/// connection thread answers each frame as it arrives, so a hit never
/// sits out the 20 ms poll tick, which would cost these hits two
/// seconds.
#[test]
fn a_hundred_hits_on_one_connection_finish_in_half_a_second() {
    let harness = start(quick_config());
    let request = ServiceRequest::Query {
        query: small_query(71),
        deadline_ms: None,
    };
    let (reply, _) = client_request(&harness.addr, &request).unwrap();
    assert!(matches!(reply, ServiceReply::Result { .. }), "{reply:?}");
    let mut conn = TcpStream::connect(&harness.addr).unwrap();
    conn.set_nodelay(true).unwrap();
    let frame = request.to_json();
    let started = Instant::now();
    for _ in 0..100 {
        write_frame(&mut conn, frame.as_bytes()).unwrap();
        let text = String::from_utf8(read_frame(&mut conn).unwrap().unwrap()).unwrap();
        let reply = ServiceReply::parse(&text).unwrap();
        assert!(
            matches!(reply, ServiceReply::Result { cached: true, .. }),
            "{reply:?}"
        );
    }
    let took = started.elapsed();
    assert!(took < Duration::from_millis(500), "100 hits took {took:?}");
    drop(conn);
    harness.finish();
}

/// The connection sockets' poll tick: a connection served late by a
/// whole tick was queued behind another handler.
const IO_TICK: Duration = Duration::from_millis(20);

/// Sends one request on an open connection and waits (bounded) for its
/// reply, returning it with the round-trip time.
fn round_trip(conn: &mut TcpStream, request: &ServiceRequest) -> (ServiceReply, Duration) {
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let started = Instant::now();
    write_frame(conn, request.to_json().as_bytes()).unwrap();
    let payload = read_frame(conn)
        .expect("no reply: the connection was starved")
        .expect("the server closed the connection");
    let took = started.elapsed();
    let reply = ServiceReply::parse(&String::from_utf8(payload).unwrap()).unwrap();
    (reply, took)
}

/// Reused handlers never starve a connection: with every handler
/// holding an open connection each one is still served, the next
/// connection is refused, and once those close their handlers serve
/// fresh connections at once.
#[test]
fn reused_handlers_never_starve_a_connection() {
    let harness = start(ServiceConfig {
        max_conns: 3,
        ..quick_config()
    });
    let request = ServiceRequest::Query {
        query: small_query(81),
        deadline_ms: None,
    };
    let connect = || {
        let conn = TcpStream::connect(&harness.addr).unwrap();
        conn.set_nodelay(true).unwrap();
        conn
    };

    // Three persistent connections, each queried while all stay open.
    let mut held: Vec<TcpStream> = (0..3).map(|_| connect()).collect();
    for (i, conn) in held.iter_mut().enumerate() {
        let (reply, _) = round_trip(conn, &request);
        assert!(
            matches!(reply, ServiceReply::Result { .. }),
            "connection {i}: {reply:?}"
        );
    }

    // A fourth is over the cap: refused with Busy before any request.
    let mut fourth = connect();
    fourth
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let refusal = read_frame(&mut fourth).unwrap().expect("no refusal frame");
    let refusal = ServiceReply::parse(&String::from_utf8(refusal).unwrap()).unwrap();
    assert!(
        matches!(refusal, ServiceReply::Busy { limit: 3, .. }),
        "{refusal:?}"
    );
    drop(fourth);

    // Closed connections return their handlers; fresh ones reuse them.
    drop(held);
    std::thread::sleep(Duration::from_millis(100));
    let mut fresh: Vec<TcpStream> = (0..3).map(|_| connect()).collect();
    for (i, conn) in fresh.iter_mut().enumerate() {
        let (reply, took) = round_trip(conn, &request);
        assert!(
            matches!(reply, ServiceReply::Result { cached: true, .. }),
            "fresh connection {i}: {reply:?}"
        );
        assert!(took < IO_TICK, "fresh connection {i} answered in {took:?}");
    }
    drop(fresh);
    harness.finish();
}
