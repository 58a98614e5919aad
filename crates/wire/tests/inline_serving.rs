//! Requests served on the connection's reader thread: a reader that finds
//! a pipeline idle runs the pipeline's own round and writes the reply
//! itself. These tests cover the fallback while another reader holds the
//! pipeline, reply routing under pipelined multi-connection traffic, the
//! server's drain with inline traffic in flight, and the blocking acceptor's
//! shutdown.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use psnap_core::CasPartialSnapshot;
use psnap_json::Json;
use psnap_serve::testing::GatedSnapshot;
use psnap_serve::{Executor, Freshness, ServiceConfig, ServiceStats, SnapshotService};
use psnap_shard::{MvShardedSnapshot, ShardConfig};
use psnap_wire::{RemoteClientHandle, WireError, WireServer, WireServerConfig};

const M: usize = 64;

fn wait_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let end = Instant::now() + deadline;
    while Instant::now() < end {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    cond()
}

fn assert_partitions(stats: &ServiceStats) {
    assert_eq!(stats.submits_ok, stats.submits_resolved, "{stats:?}");
    assert_eq!(
        stats.writes_submitted,
        stats.writes_applied + stats.writes_coalesced_away,
        "{stats:?}"
    );
    assert_eq!(
        stats.scans_ok,
        stats.scans_served_backing
            + stats.scans_served_cache
            + stats.scans_served_mv
            + stats.scans_served_empty,
        "{stats:?}"
    );
}

fn mv_service(executor: &Executor) -> Arc<SnapshotService<u64, MvShardedSnapshot<u64>>> {
    Arc::new(SnapshotService::start(
        MvShardedSnapshot::new(M, 2, 0u64, ShardConfig::multiversioned(4)),
        ServiceConfig::default(),
        executor,
    ))
}

/// A value that names the component it was written to, so a reply routed
/// to the wrong request shows up as a foreign component.
fn stamp(component: usize, round: u64) -> u64 {
    ((component as u64) << 32) | round
}

#[test]
fn a_parked_inline_holder_sends_other_connections_to_the_pipelines() {
    // One executor worker: if a pipeline task ever blocked on a lease, the
    // probe task below could not run.
    let executor = Executor::new(1);
    let backing = Arc::new(GatedSnapshot::new(CasPartialSnapshot::new(M, 2, 0u64)));
    backing.set_wait_free(true);
    let service = Arc::new(SnapshotService::start(
        Arc::clone(&backing),
        ServiceConfig::default(),
        &executor,
    ));
    let server = WireServer::serve_tcp(
        Arc::clone(&service),
        "127.0.0.1:0",
        WireServerConfig::default(),
        &executor,
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let (a, b, c) = (
        RemoteClientHandle::connect_tcp(addr).unwrap(),
        RemoteClientHandle::connect_tcp(addr).unwrap(),
        RemoteClientHandle::connect_tcp(addr).unwrap(),
    );
    for client in [&a, &b, &c] {
        client.stats().unwrap();
    }
    let before = service.stats();

    // A's reader serves its submit inline and parks on the update gate,
    // holding the ingestion lease; C's reader does the same with a scan on
    // the scan gate, holding the scan lease.
    backing.update_gate.close();
    backing.scan_gate.close();
    let a_submit = a.submit(1, 11).unwrap();
    let c_scan = c.scan(vec![2], Freshness::Fresh).unwrap();
    assert!(
        wait_until(Duration::from_secs(30), || {
            let s = service.stats();
            s.submits_ok == before.submits_ok + 1
                && s.scans_ok == before.scans_ok + 1
                && service.ingest_depth() == 0
                && service.scan_depth() == 0
        }),
        "the inline holders never took their requests"
    );

    // B finds both leases held: its requests are accepted and queued for
    // the pipelines, and its reader stays free to answer.
    let b_submit = b.submit(3, 33).unwrap();
    let b_scan = b.scan(vec![3, 4], Freshness::Fresh).unwrap();
    assert!(
        b.stats().is_ok(),
        "B's reader is stuck behind the parked holders"
    );
    assert_eq!(service.ingest_depth(), 1);
    assert_eq!(service.scan_depth(), 1);
    let (tx, rx) = std::sync::mpsc::channel();
    executor.spawn(async move {
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(10))
        .expect("the executor worker is blocked while inline holders are parked");
    assert_eq!(service.stats().submits_resolved, before.submits_resolved);

    // Opening the gates lets the holders finish; their releases see B's
    // marks and hand B's requests to the pipeline tasks.
    backing.update_gate.open();
    backing.scan_gate.open();
    assert!(
        wait_until(Duration::from_secs(30), || {
            let s = service.stats();
            s.submits_resolved == before.submits_resolved + 2
                && s.scan_latency.count == before.scan_latency.count + 2
        }),
        "B's requests were stranded after the holders released"
    );
    a_submit.wait().unwrap();
    assert_eq!(c_scan.wait().unwrap(), vec![0]);
    b_submit.wait().unwrap();
    let b_values = b_scan.wait().unwrap();
    assert!(b_values[0] == 0 || b_values[0] == 33, "{b_values:?}");
    assert_eq!(b_values[1], 0);

    let stats = service.stats();
    assert_eq!(stats.submits_inline, before.submits_inline + 1, "{stats:?}");
    assert_eq!(stats.scans_inline, before.scans_inline + 1, "{stats:?}");
    // An operator sees the same counts in the wire `stats` reply.
    let wire_stats = a.stats().unwrap();
    for (key, count) in [
        ("submits_inline", stats.submits_inline),
        ("scans_inline", stats.scans_inline),
    ] {
        assert_eq!(
            wire_stats.get(key).and_then(Json::as_u64),
            Some(count),
            "{key}"
        );
    }
    for client in [a, b, c] {
        assert_eq!(client.unknown_replies(), 0);
        client.close();
    }
    server.shutdown(Duration::from_secs(5));
    service.shutdown();
    assert_partitions(&service.stats());
}

#[test]
fn pipelined_corked_connections_get_their_own_replies() {
    const CONNS: usize = 4;
    const OWN: usize = M / CONNS;
    const ROUNDS: u64 = 40;
    let executor = Executor::new(2);
    let service = mv_service(&executor);
    let server = WireServer::serve_tcp(
        Arc::clone(&service),
        "127.0.0.1:0",
        WireServerConfig::default(),
        &executor,
    )
    .unwrap();
    let addr = server.local_addr().unwrap();

    std::thread::scope(|scope| {
        for conn in 0..CONNS {
            scope.spawn(move || {
                let client = RemoteClientHandle::connect_tcp(addr).unwrap();
                let own: Vec<usize> = (conn * OWN..(conn + 1) * OWN).collect();
                // The last round whose write to each own component resolved.
                let mut applied = [0u64; OWN];
                for round in 1..=ROUNDS {
                    client.set_corked(true).unwrap();
                    let slot = |k: u64| ((round * 7 + k * 5) as usize) % OWN;
                    let single = client.submit(own[slot(0)], stamp(own[slot(0)], round));
                    let batch = client.submit_batch(
                        [1, 2, 3]
                            .map(|k| (own[slot(k)], stamp(own[slot(k)], round)))
                            .to_vec(),
                    );
                    let scans: Vec<_> = (0..4u64)
                        .map(|k| {
                            let requested: Vec<usize> =
                                (0..3).map(|i| own[slot(k * 3 + i)]).collect();
                            let freshness = if k % 2 == 0 {
                                Freshness::Fresh
                            } else {
                                Freshness::AtMostStale(Duration::from_millis(1))
                            };
                            let ticket = client.scan(requested.clone(), freshness).unwrap();
                            (requested, freshness, ticket)
                        })
                        .collect();
                    client.set_corked(false).unwrap();
                    for (requested, freshness, ticket) in scans {
                        let values = ticket.wait().unwrap();
                        assert_eq!(values.len(), requested.len());
                        for (&component, &value) in requested.iter().zip(&values) {
                            let written = applied[component - conn * OWN];
                            if value == 0 {
                                assert!(
                                    written == 0 || freshness != Freshness::Fresh,
                                    "fresh scan of {component} lost round {written}"
                                );
                                continue;
                            }
                            assert_eq!(value >> 32, component as u64, "misrouted reply");
                            let seen = value & 0xffff_ffff;
                            assert!(seen <= round, "value from the future: {seen}");
                            if freshness == Freshness::Fresh {
                                assert!(seen >= written, "fresh scan went back to {seen}");
                            }
                        }
                    }
                    single.unwrap().wait().unwrap();
                    batch.unwrap().wait().unwrap();
                    for k in 0..4 {
                        applied[slot(k)] = round;
                    }
                }
                assert_eq!(client.unknown_replies(), 0);
                client.close();
            });
        }
    });

    server.shutdown(Duration::from_secs(5));
    service.shutdown();
    let stats = service.stats();
    assert_partitions(&stats);
    assert!(stats.submits_inline > 0, "no submit was served inline");
    assert!(stats.scans_inline > 0, "no scan was served inline");
}

#[test]
fn shutdown_during_inline_traffic_answers_every_accepted_request() {
    let executor = Executor::new(2);
    let service = mv_service(&executor);
    let server = WireServer::serve_tcp(
        Arc::clone(&service),
        "127.0.0.1:0",
        WireServerConfig::default(),
        &executor,
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let answered_ok = AtomicU64::new(0);

    // Connected before the traffic starts, so the shutdown below never
    // races a handshake.
    let clients: Vec<_> = (0..4)
        .map(|_| RemoteClientHandle::connect_tcp(addr).unwrap())
        .collect();
    std::thread::scope(|scope| {
        for (conn, client) in clients.into_iter().enumerate() {
            let answered_ok = &answered_ok;
            scope.spawn(move || {
                let mut round = 0u64;
                'traffic: loop {
                    round += 1;
                    let component = (conn * 16 + round as usize) % M;
                    client.set_corked(true).unwrap();
                    let submits = [
                        client.submit(component, round),
                        client.submit_batch(vec![(component, round), ((component + 1) % M, round)]),
                    ];
                    let scans = [
                        client.scan(vec![component], Freshness::Fresh),
                        client.scan(
                            vec![component, (component + 7) % M],
                            Freshness::AtMostStale(Duration::from_millis(1)),
                        ),
                    ];
                    if client.set_corked(false).is_err() {
                        break;
                    }
                    let mut stop = false;
                    let outcomes = submits.into_iter().map(|t| t.and_then(|t| t.wait())).chain(
                        scans
                            .into_iter()
                            .map(|t| t.and_then(|t| t.wait()).map(|_| ())),
                    );
                    for outcome in outcomes {
                        match outcome {
                            Ok(()) => {
                                answered_ok.fetch_add(1, Ordering::Relaxed);
                            }
                            // Refused at intake (closed) or sent after the
                            // drain severed the connection: never accepted.
                            Err(WireError::Closed) | Err(WireError::ConnectionLost(_)) => {
                                stop = true
                            }
                            Err(WireError::Busy) => {}
                            Err(other) => panic!("unexpected error: {other:?}"),
                        }
                    }
                    if stop {
                        break 'traffic;
                    }
                }
            });
        }
        assert!(
            wait_until(Duration::from_secs(30), || {
                let stats = service.stats();
                stats.submits_inline > 0 && stats.scans_inline > 0
            }),
            "no request was served inline before the shutdown"
        );
        server.shutdown(Duration::from_secs(10));
    });

    // Every request the service accepted came back to its client as a
    // success: none was lost to the drain's severing.
    let stats = service.stats();
    assert_eq!(
        answered_ok.load(Ordering::Relaxed),
        stats.submits_ok + stats.scans_ok,
        "an accepted request was not answered: {stats:?}"
    );
    service.shutdown();
    assert_partitions(&service.stats());
}

#[test]
fn shutdown_wakes_the_blocking_acceptor() {
    let executor = Executor::new(1);
    let service = mv_service(&executor);
    let server = WireServer::serve_tcp(
        Arc::clone(&service),
        "127.0.0.1:0",
        WireServerConfig::default(),
        &executor,
    )
    .unwrap();
    let client = RemoteClientHandle::connect_tcp(server.local_addr().unwrap()).unwrap();
    client.submit_blocking(0, 1).unwrap();
    client.close();
    let start = Instant::now();
    server.shutdown(Duration::from_secs(60));
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "shutdown waited out its timeout instead of waking the acceptor"
    );
    service.shutdown();
}

#[test]
fn shutdown_returns_within_its_timeout_when_the_wake_up_connect_fails() {
    let executor = Executor::new(1);
    let service = mv_service(&executor);
    let path = std::env::temp_dir().join(format!(
        "psnap-wire-{}-acceptor-wake.sock",
        std::process::id()
    ));
    let server = WireServer::serve_unix(
        Arc::clone(&service),
        &path,
        WireServerConfig::default(),
        &executor,
    )
    .unwrap();
    // With the socket file gone, the wake-up connect cannot reach the
    // acceptor, which stays blocked in `accept`.
    std::fs::remove_file(&path).unwrap();
    let start = Instant::now();
    server.shutdown(Duration::from_millis(200));
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "shutdown hung on an acceptor it could not wake ({:?})",
        start.elapsed()
    );
    service.shutdown();
}
