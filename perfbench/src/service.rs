//! The two service workloads: `wire_mixed` (remote clients over loopback
//! TCP) and `serve_ingest` (in-process clients). Both are closed loops over
//! a `SnapshotService` on a 2-worker executor, backed by the multiversioned
//! sharded store behind the [`Traced`] wrapper.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use psnap_core::PartialSnapshot;
use psnap_serve::{
    ClientHandle, Executor, Freshness, ServiceConfig, ServiceStats, SnapshotService, SubmitError,
};
use psnap_shard::{MvShardedSnapshot, ShardConfig};
use psnap_wire::{
    RemoteClientHandle, Reply, ReplyBody, Request, RequestBody, WireError, WireServer,
    WireServerConfig,
};

use crate::check::{self, OwnWrites};
use crate::gen::{encode, Mix, Op, OpStream, Zipf};
use crate::report::Values;
use crate::stats::{ratio, Sliced};
use crate::store::{Call, CallStats, SpanBuf, SpanLog, SpanRec, Traced};
use crate::{Plan, RunOutcome, Settings};

/// The freshness bound of `AtMostStale` scans.
pub const STALE_BOUND: Duration = Duration::from_millis(1);

/// Ops of the traced window whose wire encoding is timed afterwards.
const CODEC_SAMPLE: usize = 4000;
/// Passes over the codec sample; the fastest pass is reported.
const CODEC_PASSES: usize = 5;

/// The shape of a service workload.
#[derive(Clone, Copy, Debug)]
pub struct ServiceSpec {
    pub m: usize,
    pub shards: usize,
    pub callers: usize,
    pub mix: Mix,
    /// Remote clients over loopback TCP instead of in-process handles.
    pub wire: bool,
}

/// The store a service workload runs on: a partial snapshot object plus
/// the shard-layer counters the traced run reads.
pub trait Backend: PartialSnapshot<u64> + 'static {
    /// Cross-shard scans and generation retries so far.
    fn shard_counters(&self) -> (u64, u64);
}

impl Backend for MvShardedSnapshot<u64> {
    fn shard_counters(&self) -> (u64, u64) {
        (self.cross_shard_scans(), self.scan_generation_retries())
    }
}

/// The store of both service workloads.
pub fn mv_store(spec: &ServiceSpec) -> MvShardedSnapshot<u64> {
    // Process 0 drains ingestion, process 1 serves scans.
    MvShardedSnapshot::new(spec.m, 2, 0, ShardConfig::multiversioned(spec.shards))
}

type Store<B> = Arc<Traced<B>>;

/// Why an op did not complete.
enum Failure {
    /// Refused (`Busy`) or lost on the wire: counted in `failed`.
    Refused,
    /// A wrong answer, or the service closing under a live caller: the run
    /// fails.
    Fatal(String),
}

enum Client<B: Backend> {
    Local(ClientHandle<u64, Store<B>>),
    Remote(RemoteClientHandle),
}

impl<B: Backend> Client<B> {
    fn update(&self, writes: Vec<(usize, u64)>) -> Result<(), Failure> {
        match self {
            Client::Local(c) => match c.submit_batch(writes) {
                Ok(ticket) => {
                    ticket.wait();
                    Ok(())
                }
                Err(e) => Err(local_failure(e)),
            },
            Client::Remote(c) => c
                .submit_batch(writes)
                .and_then(|ticket| ticket.wait())
                .map_err(remote_failure),
        }
    }

    fn scan(&self, components: Vec<usize>, freshness: Freshness) -> Result<Vec<u64>, Failure> {
        match self {
            Client::Local(c) => match c.scan(components, freshness) {
                Ok(ticket) => Ok(ticket.wait()),
                Err(e) => Err(local_failure(e)),
            },
            Client::Remote(c) => c
                .scan(components, freshness)
                .and_then(|ticket| ticket.wait())
                .map_err(remote_failure),
        }
    }
}

fn local_failure(e: SubmitError) -> Failure {
    match e {
        SubmitError::Busy => Failure::Refused,
        SubmitError::Closed => Failure::Fatal("service closed under a live caller".into()),
    }
}

fn remote_failure(e: WireError) -> Failure {
    match e {
        WireError::Closed => Failure::Fatal("service closed under a live caller".into()),
        WireError::Protocol(why) => Failure::Fatal(format!("wire protocol error: {why}")),
        _ => Failure::Refused,
    }
}

/// Everything one set-up builds, torn down in dependency order.
struct Rig<B: Backend> {
    clients: Vec<Client<B>>,
    server: Option<WireServer<Store<B>>>,
    service: Arc<SnapshotService<u64, Store<B>>>,
    store: Store<B>,
    executor: Executor,
}

impl<B: Backend> Rig<B> {
    /// Builds the stack and waits for a first reply on every caller;
    /// returns it with the time that took.
    fn build(
        spec: &ServiceSpec,
        make_store: &dyn Fn() -> B,
        spans: &Arc<SpanLog>,
    ) -> Result<(Rig<B>, Duration), String> {
        let start = Instant::now();
        let store = Arc::new(Traced::new(make_store(), Arc::clone(spans)));
        let executor = Executor::new(2);
        let service = Arc::new(SnapshotService::start(
            Arc::clone(&store),
            ServiceConfig::default(),
            &executor,
        ));
        let mut server = None;
        let mut clients = Vec::with_capacity(spec.callers);
        if spec.wire {
            let s = WireServer::serve_tcp(
                Arc::clone(&service),
                "127.0.0.1:0",
                WireServerConfig::default(),
                &executor,
            )
            .map_err(|e| format!("wire server failed to bind: {e}"))?;
            let addr = s.local_addr().expect("a tcp server has an address");
            server = Some(s);
            for _ in 0..spec.callers {
                let client = RemoteClientHandle::connect_tcp(addr)
                    .map_err(|e| format!("connect failed: {e}"))?;
                clients.push(Client::Remote(client));
            }
        } else {
            for _ in 0..spec.callers {
                clients.push(Client::Local(service.client()));
            }
        }
        for client in &clients {
            client
                .scan(vec![0], Freshness::Fresh)
                .map_err(|_| "the first scan of set-up failed".to_string())?;
        }
        let took = start.elapsed();
        let rig = Rig {
            clients,
            server,
            service,
            store,
            executor,
        };
        Ok((rig, took))
    }

    /// Drains and stops everything; returns the service's final counters.
    fn teardown(mut self) -> ServiceStats {
        for client in self.clients.drain(..) {
            if let Client::Remote(c) = client {
                c.close();
            }
        }
        if let Some(server) = self.server.take() {
            server.shutdown(Duration::from_secs(10));
        }
        self.service.shutdown();
        let stats = self.service.stats();
        drop(self.service);
        drop(self.executor);
        stats
    }
}

/// Counters read at a window boundary.
#[derive(Clone, Copy, Debug)]
struct Snap {
    stats: ServiceStats,
    shmem: crate::ShmemSnap,
    cross: u64,
    regen: u64,
}

impl Snap {
    fn take<B: Backend>(rig: &Rig<B>) -> Snap {
        let (cross, regen) = rig.store.inner().shard_counters();
        Snap {
            stats: rig.service.stats(),
            shmem: crate::ShmemSnap::take(),
            cross,
            regen,
        }
    }
}

/// The op types a caller issues, in the order of [`Window::latency`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Update,
    Scan,
    StaleScan,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Update => "update",
            Kind::Scan => "scan",
            Kind::StaleScan => "stale_scan",
        }
    }
}

/// One caller's completed ops in one measured window.
struct Window {
    /// Latencies per [`Kind`].
    latency: [Sliced; 3],
    attempted: u64,
    failed: u64,
}

impl Window {
    fn new(plan: &Plan, phase: usize) -> Window {
        Window {
            latency: [(); 3].map(|()| plan.sliced(phase)),
            attempted: 0,
            failed: 0,
        }
    }

    fn merge(&mut self, other: Window) {
        for (mine, theirs) in self.latency.iter_mut().zip(other.latency) {
            mine.merge(theirs);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    fn completed(&self) -> usize {
        self.latency.iter().map(Sliced::len).sum()
    }
}

/// A request and its reply, kept for timing the wire codec.
type CodecSample = (RequestBody, ReplyBody);

struct CallerOut {
    windows: [Window; 2],
    spans: SpanBuf,
    codec: Vec<CodecSample>,
    violation: Option<String>,
}

/// Issues one scan and checks its answer; with `sample`, keeps the request
/// and reply for codec timing.
fn checked_scan<B: Backend>(
    client: &Client<B>,
    own: &OwnWrites,
    components: Vec<usize>,
    freshness: Freshness,
    sample: Option<&mut Option<CodecSample>>,
) -> Result<(), Failure> {
    let values = client.scan(components.clone(), freshness)?;
    let mut checked = check::components_match(&components, &values);
    if freshness == Freshness::Fresh {
        checked = checked.and_then(|()| own.check_fresh(&components, &values));
    }
    checked.map_err(Failure::Fatal)?;
    if let Some(sample) = sample {
        *sample = Some((
            RequestBody::Scan {
                components,
                freshness,
            },
            ReplyBody::Values(values),
        ));
    }
    Ok(())
}

fn caller_loop<B: Backend>(
    client: &Client<B>,
    caller: usize,
    mut ops: OpStream,
    plan: Plan,
    spans: &SpanLog,
    keep_codec: bool,
) -> CallerOut {
    let mut out = CallerOut {
        windows: [Window::new(&plan, 0), Window::new(&plan, 1)],
        spans: SpanBuf::default(),
        codec: Vec::new(),
        violation: None,
    };
    let mut own = OwnWrites::new(caller);
    let mut seq = 0u64;
    let mut index = 0u64;
    loop {
        let op = ops.next_op();
        let start = Instant::now();
        if start >= plan.end {
            return out;
        }
        index += 1;
        let phase = plan.phase(start);
        let traced = plan.traced && matches!(phase, Some((1, _)));
        let mut sample = None;
        let keep = (keep_codec && traced && out.codec.len() < CODEC_SAMPLE).then_some(&mut sample);
        let (kind, result) = match op {
            Op::Update(components) => {
                seq += 1;
                let writes: Vec<(usize, u64)> = components
                    .iter()
                    .map(|&c| (c, encode(c, caller, seq)))
                    .collect();
                if let Some(keep) = keep {
                    *keep = Some((
                        RequestBody::Submit {
                            writes: writes.clone(),
                        },
                        ReplyBody::Submitted,
                    ));
                }
                let result = client.update(writes);
                if result.is_ok() {
                    own.acked(&components, seq);
                }
                (Kind::Update, result)
            }
            Op::Scan(components) => (
                Kind::Scan,
                checked_scan(client, &own, components, Freshness::Fresh, keep),
            ),
            Op::StaleScan(components) => (
                Kind::StaleScan,
                checked_scan(
                    client,
                    &own,
                    components,
                    Freshness::AtMostStale(STALE_BOUND),
                    keep,
                ),
            ),
        };
        let end = Instant::now();
        if let Err(Failure::Fatal(why)) = result {
            out.violation = Some(format!("caller {caller}: {why}"));
            return out;
        }
        let Some((phase, slice)) = phase else {
            continue;
        };
        let window = &mut out.windows[phase];
        window.attempted += 1;
        if result.is_err() {
            window.failed += 1;
            continue;
        }
        window.latency[kind as usize].push(slice, end.duration_since(start).as_nanos() as u64);
        if traced {
            out.spans.push(SpanRec {
                id: (caller as u64) << 40 | index,
                layer: "client",
                name: kind.name(),
                start_ns: spans.ns_since_epoch(start),
                end_ns: spans.ns_since_epoch(end),
            });
            out.codec.extend(sample);
        }
    }
}

/// Runs one service workload: `settings.setups` timed set-ups (all but the
/// last torn down again), then the closed loop over the last one.
pub fn run<B: Backend>(
    spec: &ServiceSpec,
    make_store: &dyn Fn() -> B,
    settings: &Settings,
) -> RunOutcome {
    let spans = Arc::new(SpanLog::new(Instant::now()));
    let zipf = Arc::new(Zipf::new(spec.m, 0.99, settings.seed));
    let mut setup_s = Vec::new();
    let mut kept = None;
    for i in 0..settings.setups {
        let (rig, took) = match Rig::build(spec, make_store, &spans) {
            Ok(built) => built,
            Err(why) => return RunOutcome::failed(settings, why),
        };
        setup_s.push(took.as_secs_f64());
        if i + 1 < settings.setups {
            if let Err(why) = check::service_partitions(&rig.teardown()) {
                return RunOutcome::failed(settings, why);
            }
        } else {
            kept = Some(rig);
        }
    }
    let rig = kept.expect("at least one set-up");
    let plan = Plan::new(settings);
    let keep_codec = spec.wire && settings.trace;
    let (outs, (mid, last), calls) = thread::scope(|scope| {
        let handles: Vec<_> = rig
            .clients
            .iter()
            .enumerate()
            .map(|(caller, client)| {
                let ops = OpStream::new(settings.seed, caller as u64, Arc::clone(&zipf), spec.mix);
                let spans = &spans;
                scope.spawn(move || caller_loop(client, caller, ops, plan, spans, keep_codec))
            })
            .collect();
        // Tracing covers `mid..end`, which is empty in an untraced run.
        crate::sleep_until(plan.mid);
        let mid = Snap::take(&rig);
        rig.store.set_tracing(plan.traced);
        crate::sleep_until(plan.end);
        rig.store.set_tracing(false);
        let last = Snap::take(&rig);
        let calls = Call::ALL.map(|call| rig.store.take(call));
        spans.append(rig.store.take_spans());
        let outs: Vec<CallerOut> = handles
            .into_iter()
            .map(|h| h.join().expect("a caller thread panicked"))
            .collect();
        (outs, (mid, last), calls)
    });
    // Read before the samples are pooled, which allocates.
    let peak_rss_mb = crate::report::peak_rss_mb();
    let final_stats = rig.teardown();

    let mut windows = [Window::new(&plan, 0), Window::new(&plan, 1)];
    let mut codec_sample = Vec::new();
    let mut violation = None;
    for out in outs {
        for (mine, theirs) in windows.iter_mut().zip(out.windows) {
            mine.merge(theirs);
        }
        spans.append(out.spans);
        codec_sample.extend(out.codec);
        violation = violation.or(out.violation);
    }
    let violation = violation.or_else(|| check::service_partitions(&final_stats).err());

    let [mut w0, w1] = windows;
    let mut outcome = RunOutcome::new(settings, &setup_s);
    outcome.violation = violation;
    if !plan.traced {
        let [update, scan, stale] = &mut w0.latency;
        outcome.record_window(&plan, update, scan, stale, peak_rss_mb);
        outcome.attempted = w0.attempted;
        outcome.failed = w0.failed;
        return outcome;
    }
    outcome.attempted = w0.attempted + w1.attempted;
    outcome.failed = w0.failed + w1.failed;
    let codec = match time_codec(&codec_sample) {
        Ok(codec) => codec,
        Err(why) => {
            outcome.violation = outcome.violation.or(Some(why));
            Codec::default()
        }
    };
    let tp0 = w0.completed() as f64 / plan.window_secs(0);
    let tp1 = w1.completed() as f64 / plan.window_secs(1);
    let v = &mut outcome.layer;
    layer_values(v, spec, &w1, &mid, &last, calls, &codec);
    crate::zero_core(v);
    v.set("trace.overhead_frac", 1.0 - ratio(tp1, tp0));
    outcome.finish_trace(&spans, tp0, tp1);
    outcome
}

/// Per-op-type wire codec costs, measured on the run's own ops.
#[derive(Clone, Copy, Debug, Default)]
struct Codec {
    /// Request plus reply encode, per op (ns).
    encode_ns: f64,
    /// Request plus reply decode, per op (ns).
    decode_ns: f64,
    request_bytes: f64,
    reply_bytes: f64,
    /// Encode plus decode of both directions, per update (µs).
    update_us: f64,
    /// The same per scan (µs).
    scan_us: f64,
}

/// Times `to_wire_string` and `parse_wire` on each sampled request and
/// reply, keeping the fastest of several passes, and checks every frame
/// decodes back to what was encoded.
fn time_codec(sample: &[(RequestBody, ReplyBody)]) -> Result<Codec, String> {
    if sample.is_empty() {
        return Ok(Codec::default());
    }
    let messages: Vec<(Request, Reply)> = sample
        .iter()
        .enumerate()
        .map(|(i, (request, reply))| {
            (
                Request {
                    id: i as u64,
                    body: request.clone(),
                },
                Reply {
                    id: i as u64,
                    result: Ok(reply.clone()),
                },
            )
        })
        .collect();
    let n = messages.len() as f64;
    let mut best: Option<[f64; 4]> = None;
    let (mut request_bytes, mut reply_bytes) = (0usize, 0usize);
    for _ in 0..CODEC_PASSES {
        // [encode, decode, update round trip, scan round trip], in ns.
        let mut pass = [0.0f64; 4];
        request_bytes = 0;
        reply_bytes = 0;
        for (request, reply) in &messages {
            let t0 = Instant::now();
            let request_text = std::hint::black_box(request.to_wire_string());
            let reply_text = std::hint::black_box(reply.to_wire_string());
            let t1 = Instant::now();
            let request_back = std::hint::black_box(Request::parse_wire(&request_text));
            let reply_back = std::hint::black_box(Reply::parse_wire(&reply_text));
            let t2 = Instant::now();
            if request_back.as_ref() != Some(request) || reply_back.as_ref() != Some(reply) {
                return Err(format!(
                    "wire codec did not round-trip request {request:?} / reply {reply:?}"
                ));
            }
            let encode = t1.duration_since(t0).as_nanos() as f64;
            let decode = t2.duration_since(t1).as_nanos() as f64;
            pass[0] += encode;
            pass[1] += decode;
            let slot = if matches!(request.body, RequestBody::Submit { .. }) {
                2
            } else {
                3
            };
            pass[slot] += encode + decode;
            // Each frame carries a 4-byte length prefix.
            request_bytes += request_text.len() + 4;
            reply_bytes += reply_text.len() + 4;
        }
        if best.is_none_or(|b| pass[0] + pass[1] < b[0] + b[1]) {
            best = Some(pass);
        }
    }
    let best = best.expect("at least one pass");
    let updates = sample
        .iter()
        .filter(|(r, _)| matches!(r, RequestBody::Submit { .. }))
        .count() as f64;
    Ok(Codec {
        encode_ns: best[0] / n,
        decode_ns: best[1] / n,
        request_bytes: request_bytes as f64 / n,
        reply_bytes: reply_bytes as f64 / n,
        update_us: ratio(best[2], updates) / 1e3,
        scan_us: ratio(best[3], n - updates) / 1e3,
    })
}

/// Mean of a histogram's samples recorded between two reads, in µs.
fn delta_mean_us(a: &psnap_obs::HistogramSnapshot, b: &psnap_obs::HistogramSnapshot) -> f64 {
    ratio(
        b.sum.saturating_sub(a.sum) as f64,
        b.count.saturating_sub(a.count) as f64,
    ) / 1e3
}

/// The wire, serve, shard and shmem metrics and the latency breakdown of
/// the traced window, which runs from snapshot `at` to snapshot `to`.
fn layer_values(
    v: &mut Values,
    spec: &ServiceSpec,
    w: &Window,
    at: &Snap,
    to: &Snap,
    mut calls: [CallStats; 3],
    codec: &Codec,
) {
    let (a, b) = (&at.stats, &to.stats);
    let d = |f: fn(&ServiceStats) -> u64| f(b).saturating_sub(f(a)) as f64;
    let service_submit_us = delta_mean_us(&a.submit_latency, &b.submit_latency);
    let service_scan_us = delta_mean_us(&a.scan_latency, &b.scan_latency);
    let [update, scans, stale_scans] = &w.latency;
    let client_update_us = update.mean_us();
    // The service's scan latency covers fresh and stale scans alike, so the
    // client side is taken over both too.
    let client_scan_us = ratio(
        scans.mean_us() * scans.len() as f64 + stale_scans.mean_us() * stale_scans.len() as f64,
        (scans.len() + stale_scans.len()) as f64,
    );

    let [update_many, scan, scan_stale] = &mut calls;
    let store_update_us = update_many.latency.mean_us();
    let scans_ok = d(|s| s.scans_ok);
    let tier_backing = ratio(d(|s| s.scans_served_backing), scans_ok);
    let tier_mv = ratio(d(|s| s.scans_served_mv), scans_ok);
    // A scan request waits for the one store call that answers it: a
    // backing scan, a version-chain read, or none for a cache hit.
    let store_scan_us =
        tier_backing * scan.latency.mean_us() + tier_mv * scan_stale.latency.mean_us();

    let wire = |x: f64| if spec.wire { x } else { 0.0 };
    v.set(
        "wire.submit_self_us",
        wire(client_update_us - service_submit_us),
    );
    v.set("wire.scan_self_us", wire(client_scan_us - service_scan_us));
    v.set("wire.encode_ns", codec.encode_ns);
    v.set("wire.decode_ns", codec.decode_ns);
    v.set("wire.request_bytes", codec.request_bytes);
    v.set("wire.reply_bytes", codec.reply_bytes);

    let serve_submit_self = service_submit_us - store_update_us;
    let serve_scan_self = service_scan_us - store_scan_us;
    v.set("serve.submit_self_us", serve_submit_self);
    v.set("serve.scan_self_us", serve_scan_self);
    v.set(
        "serve.writes_per_call",
        ratio(d(|s| s.writes_applied), d(|s| s.batches_applied)),
    );
    v.set(
        "serve.coalesced_away_frac",
        ratio(d(|s| s.writes_coalesced_away), d(|s| s.writes_submitted)),
    );
    v.set(
        "serve.scans_per_backing_scan",
        ratio(d(|s| s.scans_served_backing), d(|s| s.backing_scans)),
    );
    v.set(
        "serve.dedup_ratio",
        ratio(d(|s| s.requested_components), d(|s| s.backing_components)),
    );
    v.set(
        "serve.window_us_mean",
        delta_mean_us(&a.window_ns, &b.window_ns),
    );
    v.set("serve.tier_mv_frac", tier_mv);
    v.set(
        "serve.tier_cache_frac",
        ratio(d(|s| s.scans_served_cache), scans_ok),
    );
    v.set("serve.tier_backing_frac", tier_backing);
    let busy = d(|s| s.submits_busy) + d(|s| s.scans_busy);
    v.set(
        "serve.busy_frac",
        ratio(busy, busy + d(|s| s.submits_ok) + scans_ok),
    );

    for (call, stats) in
        Call::ALL
            .into_iter()
            .zip([&mut *update_many, &mut *scan, &mut *scan_stale])
    {
        let name = call.name();
        v.set(format!("shard.{name}_us_mean"), stats.latency.mean_us());
        v.set(
            format!("shard.{name}_us_p99"),
            stats.latency.percentile_us(0.99),
        );
        v.set(format!("shard.{name}_calls"), stats.calls() as f64);
    }
    let backing_calls = (scan.calls() + scan_stale.calls()) as f64;
    v.set(
        "shard.cross_shard_frac",
        ratio(to.cross.saturating_sub(at.cross) as f64, backing_calls),
    );
    v.set(
        "shard.generation_retries",
        to.regen.saturating_sub(at.regen) as f64,
    );
    crate::ShmemSnap::put(v, &at.shmem, &to.shmem);
    v.set("shmem.steps_per_update_many", update_many.steps_per_call());
    v.set("shmem.steps_per_scan", scan.steps_per_call());

    v.set("breakdown.update_client_us", client_update_us);
    v.set("breakdown.update_codec_us", codec.update_us);
    v.set("breakdown.update_store_us", store_update_us);
    v.set(
        "breakdown.update_residual_us",
        client_update_us - codec.update_us - serve_submit_self - store_update_us,
    );
    v.set("breakdown.scan_client_us", client_scan_us);
    v.set("breakdown.scan_codec_us", codec.scan_us);
    v.set("breakdown.scan_store_us", store_scan_us);
    v.set(
        "breakdown.scan_residual_us",
        client_scan_us - codec.scan_us - serve_scan_self - store_scan_us,
    );
}
