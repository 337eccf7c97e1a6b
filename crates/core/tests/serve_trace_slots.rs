//! A traced server keeps recording however many connections it serves.
//!
//! The trace journal gives each thread that records a slot for the life
//! of the process and has [`MAX_TRACE_THREADS`] of them, so a server
//! that spent a thread per connection or per query would fill the table
//! and then drop every later event. This test has a binary of its own so
//! the process-global journal starts empty.

use std::net::TcpListener;
use std::sync::Arc;
use yac_core::{
    client_request, serve, ConstraintSpec, ExecutorConfig, PowerDownKind, ServiceConfig,
    ServiceReply, ServiceRequest, StudyQuery, SweepService,
};
use yac_obs::trace::MAX_TRACE_THREADS;
use yac_obs::TraceEventKind;

/// Fresh connections served — well past the slot table's size.
const CONNECTIONS: usize = 300;

#[test]
fn fresh_connection_hits_neither_drop_events_nor_exhaust_trace_slots() {
    yac_obs::trace_enable();
    let mut exec = ExecutorConfig::with_workers(2);
    exec.shard_chips = 8;
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let service = Arc::new(SweepService::new(ServiceConfig {
        exec,
        cache_bytes: 1 << 20,
        ..ServiceConfig::default()
    }));
    let server = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || serve(&listener, &service))
    };

    let request = ServiceRequest::Query {
        query: StudyQuery {
            chips: 16,
            seed: 2006,
            constraint: ConstraintSpec::NOMINAL,
            kind: PowerDownKind::Vertical,
            cpi: None,
        },
        deadline_ms: None,
    };
    let (first, _) = client_request(&addr, &request).unwrap();
    assert!(
        matches!(first, ServiceReply::Result { cached: false, .. }),
        "{first:?}"
    );
    for i in 0..CONNECTIONS {
        let (reply, _) = client_request(&addr, &request).unwrap();
        assert!(
            matches!(reply, ServiceReply::Result { cached: true, .. }),
            "hit {i}: {reply:?}"
        );
    }
    let (bye, _) = client_request(&addr, &ServiceRequest::Shutdown).unwrap();
    assert_eq!(bye, ServiceReply::Bye);
    server.join().unwrap().unwrap();

    let snap = yac_obs::journal().snapshot();
    assert_eq!(snap.dropped_events, 0, "the journal dropped events");
    assert!(
        snap.threads.len() < MAX_TRACE_THREADS / 4,
        "{} of {MAX_TRACE_THREADS} trace slots used",
        snap.threads.len()
    );
    let received = snap
        .threads
        .iter()
        .flat_map(|t| &t.events)
        .filter(|e| e.kind == TraceEventKind::QueryReceived)
        .count();
    assert_eq!(received, CONNECTIONS + 1, "every query is in the trace");
    let Ok(service) = Arc::try_unwrap(service) else {
        panic!("the server kept a service handle");
    };
    service.shutdown();
}
