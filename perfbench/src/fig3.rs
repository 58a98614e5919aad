//! `core_fig3`: the paper's Figure 3 object called directly, one thread
//! updating single components and one scanning `r` of them.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use psnap_core::{CasPartialSnapshot, PartialSnapshot, ProcessId};
use psnap_shmem::{OpKind, StepReport, StepScope};

use crate::check::{self, Monotone};
use crate::gen::{encode, Mix, Op, OpStream, Zipf};
use crate::report::Values;
use crate::stats::{ratio, Sliced};
use crate::store::{SpanBuf, SpanLog, SpanRec};
use crate::{Plan, RunOutcome, Settings, ShmemSnap};

/// Ops of each kind in the one-thread exact-count pass.
pub const QUIET_OPS: u64 = 20_000;

const UPDATER: ProcessId = ProcessId(0);
const SCANNER: ProcessId = ProcessId(1);
const UPDATER_STREAM: u64 = 0;
const SCANNER_STREAM: u64 = 1;

#[derive(Clone, Copy, Debug)]
pub struct Fig3Spec {
    pub m: usize,
    pub r: usize,
}

impl Fig3Spec {
    fn update_mix(&self) -> Mix {
        Mix {
            batch: 1,
            r: 0,
            update_pct: 100,
            scan_pct: 0,
        }
    }

    fn scan_mix(&self) -> Mix {
        Mix {
            batch: 0,
            r: self.r,
            update_pct: 0,
            scan_pct: 100,
        }
    }
}

fn components_of(op: Op) -> Vec<usize> {
    match op {
        Op::Update(c) | Op::Scan(c) | Op::StaleScan(c) => c,
    }
}

/// Builds the object and waits for a first reply on both threads.
fn setup(spec: &Fig3Spec) -> (CasPartialSnapshot<u64>, Duration) {
    let start = Instant::now();
    let store = CasPartialSnapshot::new(spec.m, 2, 0u64);
    thread::scope(|scope| {
        let store = &store;
        scope.spawn(move || store.update(UPDATER, 0, encode(0, 0, 0)));
        scope.spawn(move || store.scan(SCANNER, &[0]));
    });
    let took = start.elapsed();
    (store, took)
}

/// One thread's completed ops in each window, and what tracing saw.
struct ThreadOut {
    latency: [Sliced; 2],
    /// Steps of traced-window ops, summed, and the per-op maxima.
    steps: StepReport,
    max_steps: u64,
    max_reads: u64,
    spans: SpanBuf,
    violation: Option<String>,
}

impl ThreadOut {
    fn new(plan: &Plan) -> ThreadOut {
        ThreadOut {
            latency: [plan.sliced(0), plan.sliced(1)],
            steps: StepReport::default(),
            max_steps: 0,
            max_reads: 0,
            spans: SpanBuf::default(),
            violation: None,
        }
    }
}

fn updater(
    store: &CasPartialSnapshot<u64>,
    mut ops: OpStream,
    plan: Plan,
    spans: &SpanLog,
) -> ThreadOut {
    let mut out = ThreadOut::new(&plan);
    let mut seq = 0;
    let mut index = 0u64;
    loop {
        let c = components_of(ops.next_op())[0];
        seq += 1;
        let value = encode(c, 0, seq);
        let start = Instant::now();
        if start >= plan.end {
            return out;
        }
        let phase = plan.phase(start);
        let traced = matches!(phase, Some((1, _))) && plan.traced;
        let scope = traced.then(StepScope::start);
        store.update(UPDATER, c, value);
        let end = Instant::now();
        let Some((phase, slice)) = phase else {
            continue;
        };
        out.latency[phase].push(slice, end.duration_since(start).as_nanos() as u64);
        if let Some(scope) = scope {
            let steps = scope.finish();
            out.steps += steps;
            out.max_steps = out.max_steps.max(steps.total());
            index += 1;
            out.spans.push(SpanRec {
                id: index,
                layer: "core",
                name: "update",
                start_ns: spans.ns_since_epoch(start),
                end_ns: spans.ns_since_epoch(end),
            });
        }
    }
}

fn scanner(
    store: &CasPartialSnapshot<u64>,
    m: usize,
    mut ops: OpStream,
    plan: Plan,
    spans: &SpanLog,
) -> ThreadOut {
    let mut out = ThreadOut::new(&plan);
    let mut monotone = Monotone::new(m);
    let mut index = 0u64;
    loop {
        let components = components_of(ops.next_op());
        // The read budget is checked on every scan, traced or not.
        let scope = StepScope::start();
        let start = Instant::now();
        if start >= plan.end {
            return out;
        }
        let values = store.scan(SCANNER, &components);
        let end = Instant::now();
        let steps = scope.finish();
        let checked = check::components_match(&components, &values)
            .and_then(|()| monotone.check(&components, &values))
            .and_then(|()| check::scan_reads_within_bound(components.len(), steps.reads));
        if let Err(why) = checked {
            out.violation = Some(why);
            return out;
        }
        let Some((phase, slice)) = plan.phase(start) else {
            continue;
        };
        out.latency[phase].push(slice, end.duration_since(start).as_nanos() as u64);
        if phase == 1 && plan.traced {
            out.steps += steps;
            out.max_steps = out.max_steps.max(steps.total());
            out.max_reads = out.max_reads.max(steps.reads);
            index += 1;
            out.spans.push(SpanRec {
                id: 1 << 40 | index,
                layer: "core",
                name: "scan",
                start_ns: spans.ns_since_epoch(start),
                end_ns: spans.ns_since_epoch(end),
            });
        }
    }
}

/// Mean steps per scan and per update of a one-thread pass over the first
/// [`QUIET_OPS`] ops of both streams, alternating update and scan. With no
/// concurrency the counts repeat exactly for a seed.
pub fn quiet_pass(spec: &Fig3Spec, seed: u64, zipf: &Arc<Zipf>) -> (f64, f64) {
    let store = CasPartialSnapshot::new(spec.m, 2, 0u64);
    let mut updates = OpStream::new(seed, UPDATER_STREAM, Arc::clone(zipf), spec.update_mix());
    let mut scans = OpStream::new(seed, SCANNER_STREAM, Arc::clone(zipf), spec.scan_mix());
    let (mut update_steps, mut scan_steps) = (0u64, 0u64);
    for seq in 1..=QUIET_OPS {
        let c = components_of(updates.next_op())[0];
        let scope = StepScope::start();
        store.update(UPDATER, c, encode(c, 0, seq));
        update_steps += scope.finish().total();
        let components = components_of(scans.next_op());
        let scope = StepScope::start();
        std::hint::black_box(store.scan(SCANNER, &components));
        scan_steps += scope.finish().total();
    }
    (
        scan_steps as f64 / QUIET_OPS as f64,
        update_steps as f64 / QUIET_OPS as f64,
    )
}

/// Mean steps of each kind per `op` over `ops` calls.
fn per_kind(v: &mut Values, op: &str, steps: StepReport, ops: usize) {
    for kind in OpKind::ALL {
        let kind_name = match kind {
            OpKind::Read => "reads",
            OpKind::Write => "writes",
            OpKind::Cas => "cas",
            OpKind::FetchInc => "fetch_inc",
        };
        v.set(
            format!("core.{op}_{kind_name}_mean"),
            ratio(steps.of(kind) as f64, ops as f64),
        );
    }
}

pub fn run(spec: &Fig3Spec, settings: &Settings) -> RunOutcome {
    let zipf = Arc::new(Zipf::new(spec.m, 0.99, settings.seed));
    let spans = SpanLog::new(Instant::now());
    let mut setup_s = Vec::new();
    let mut store = None;
    for _ in 0..settings.setups {
        // Drop the previous object first so only one is ever resident.
        drop(store.take());
        let (built, took) = setup(spec);
        setup_s.push(took.as_secs_f64());
        store = Some(built);
    }
    let store = store.expect("at least one set-up");
    let plan = Plan::new(settings);
    let (mut up, mut sc, at_mid) = thread::scope(|scope| {
        let (store, spans) = (&store, &spans);
        let ops = OpStream::new(
            settings.seed,
            UPDATER_STREAM,
            Arc::clone(&zipf),
            spec.update_mix(),
        );
        let up = scope.spawn(move || updater(store, ops, plan, spans));
        let ops = OpStream::new(
            settings.seed,
            SCANNER_STREAM,
            Arc::clone(&zipf),
            spec.scan_mix(),
        );
        let sc = scope.spawn(move || scanner(store, spec.m, ops, plan, spans));
        let at_mid = plan.traced.then(|| {
            crate::sleep_until(plan.mid);
            ShmemSnap::take()
        });
        (
            up.join().expect("the updater thread panicked"),
            sc.join().expect("the scanner thread panicked"),
            at_mid,
        )
    });
    let peak_rss_mb = crate::report::peak_rss_mb();
    let mut outcome = RunOutcome::new(settings, &setup_s);
    outcome.violation = sc.violation.take().or(up.violation.take());
    let [mut up0, up1] = up.latency;
    let [mut sc0, sc1] = sc.latency;
    let mut none = plan.sliced(0);
    if !plan.traced {
        outcome.attempted = (up0.len() + sc0.len()) as u64;
        outcome.record_window(&plan, &mut up0, &mut sc0, &mut none, peak_rss_mb);
        return outcome;
    }
    let at_mid = at_mid.expect("taken in traced runs");
    let at_end = ShmemSnap::take();
    outcome.attempted = (up0.len() + up1.len() + sc0.len() + sc1.len()) as u64;
    let tp0 = (up0.len() + sc0.len()) as f64 / plan.window_secs(0);
    let tp1 = (up1.len() + sc1.len()) as f64 / plan.window_secs(1);
    let (quiet_scan, quiet_update) = quiet_pass(spec, settings.seed, &zipf);

    let v = &mut outcome.layer;
    crate::zero_service_layers(v);
    ShmemSnap::put(v, &at_mid, &at_end);
    v.set(
        "core.scan_steps_mean",
        ratio(sc.steps.total() as f64, sc1.len() as f64),
    );
    v.set("core.scan_steps_max", sc.max_steps as f64);
    v.set("core.scan_reads_max", sc.max_reads as f64);
    v.set(
        "core.update_steps_mean",
        ratio(up.steps.total() as f64, up1.len() as f64),
    );
    per_kind(v, "scan", sc.steps, sc1.len());
    per_kind(v, "update", up.steps, up1.len());
    v.set("core.scan_steps_quiet", quiet_scan);
    v.set("core.update_steps_quiet", quiet_update);
    // The caller calls the object directly: its whole latency is the store
    // call, with no codec, service or hand-off in between.
    for (op, samples) in [("update", &up1), ("scan", &sc1)] {
        let client = samples.mean_us();
        v.set(format!("breakdown.{op}_client_us"), client);
        v.set(format!("breakdown.{op}_codec_us"), 0.0);
        v.set(format!("breakdown.{op}_store_us"), client);
        v.set(format!("breakdown.{op}_residual_us"), 0.0);
    }
    v.set("trace.overhead_frac", 1.0 - ratio(tp1, tp0));
    spans.append(up.spans);
    spans.append(sc.spans);
    outcome.finish_trace(&spans, tp0, tp1);
    outcome
}
