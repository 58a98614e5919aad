//! Inline serving: `submit_batch_inline` / `scan_inline` run the pipeline's
//! own round on the calling thread when the backing object is wait-free,
//! the pipeline is idle and (for scans) the coalescing policy never waits;
//! in every other case the request takes the pipeline as before.

use std::sync::Arc;
use std::time::Duration;

use psnap_core::CasPartialSnapshot;
use psnap_obs::Registry;
use psnap_serve::testing::GatedSnapshot;
use psnap_serve::{Coalescing, Executor, Freshness, ServiceConfig, SnapshotService};

const M: usize = 16;

/// Takes `ticket`'s value if the call served it inline; otherwise waits it
/// out and returns `None`. A call can lose the race for an idle pipeline to
/// the pipeline task's own round (the drainer runs one at start-up, for
/// instance), so the tests retry a few times before calling it a failure.
fn inline_value<V>(mut ticket: psnap_serve::Ticket<V>) -> Option<V> {
    let value = ticket.try_take();
    if value.is_none() {
        ticket.wait();
        std::thread::sleep(Duration::from_millis(1));
    }
    value
}

#[test]
fn idle_pipelines_serve_inline_requests_before_returning() {
    let executor = Executor::new(2);
    let service = SnapshotService::start(
        CasPartialSnapshot::new(M, 2, 0u64),
        ServiceConfig::default(),
        &executor,
    );
    let registry = Registry::new();
    service.register_obs(&registry, "svc");
    let client = service.client();

    let served = (0..100).any(|_| {
        inline_value(client.submit_batch_inline(vec![(3, 30), (4, 40)]).unwrap()).is_some()
    });
    assert!(served, "an idle ingestion pipeline never served inline");
    let fresh = (0..100)
        .find_map(|_| inline_value(client.scan_inline(vec![4, 3, 9], Freshness::Fresh).unwrap()));
    assert_eq!(fresh, Some(vec![40, 30, 0]));
    let stale = (0..100).find_map(|_| {
        let bound = Freshness::AtMostStale(Duration::from_secs(60));
        inline_value(client.scan_inline(vec![3], bound).unwrap())
    });
    assert_eq!(stale, Some(vec![30]));

    let stats = service.stats();
    assert!(stats.submits_inline >= 1, "{stats:?}");
    assert!(stats.scans_inline >= 2, "{stats:?}");
    assert_eq!(
        registry.counter("svc.ingest.inline").get(),
        stats.submits_inline
    );
    assert_eq!(
        registry.counter("svc.scan.inline").get(),
        stats.scans_inline
    );
    service.shutdown();
    assert!(registry.check_invariants().is_empty());
}

#[test]
fn blocking_stores_and_waiting_policies_keep_the_pipeline_path() {
    // A store that does not report wait-freedom: nothing runs inline.
    let executor = Executor::new(2);
    let gated = Arc::new(GatedSnapshot::new(CasPartialSnapshot::new(M, 2, 0u64)));
    let service = SnapshotService::start(Arc::clone(&gated), ServiceConfig::default(), &executor);
    let client = service.client();
    client.submit_batch_inline(vec![(1, 1)]).unwrap().wait();
    assert_eq!(
        client
            .scan_inline(vec![1], Freshness::Fresh)
            .unwrap()
            .wait(),
        vec![1]
    );
    let stats = service.stats();
    assert_eq!(
        (stats.submits_inline, stats.scans_inline),
        (0, 0),
        "{stats:?}"
    );
    service.shutdown();

    // A windowed policy waits for partners, so its scans stay on the scan
    // server.
    let service = SnapshotService::start(
        CasPartialSnapshot::new(M, 2, 0u64),
        ServiceConfig {
            coalescing: Coalescing::Window(Duration::from_millis(1)),
            ..ServiceConfig::default()
        },
        &executor,
    );
    let client = service.client();
    client.submit_batch_inline(vec![(2, 2)]).unwrap().wait();
    assert_eq!(
        client
            .scan_inline(vec![2], Freshness::Fresh)
            .unwrap()
            .wait(),
        vec![2]
    );
    let stats = service.stats();
    assert_eq!(stats.scans_inline, 0, "{stats:?}");
    service.shutdown();
}
