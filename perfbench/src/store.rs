//! The store wrapper the traced run times the shard layer with, and the
//! in-memory span log.
//!
//! [`Traced`] forwards every [`PartialSnapshot`] method to the store it
//! wraps, so the service takes exactly the paths it takes on the bare store
//! (`scan_stale` for the mv tier, `shard_of` and `generation` for its
//! parallel-union grouping). While tracing is on it also times each
//! `update_many`, `scan` and `scan_stale` call and counts its base-object
//! steps with a `StepScope` on the calling (executor) thread.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use psnap_core::{PartialSnapshot, ProcessId, ReshardOp};
use psnap_json::Json;
use psnap_shmem::{StepReport, StepScope};

use crate::stats::Samples;

/// Spans kept per recording thread (and by the store wrapper); later ones
/// are counted as dropped.
pub const MAX_SPANS: usize = 100_000;

/// One timed call into a layer.
#[derive(Clone, Copy, Debug)]
pub struct SpanRec {
    /// Request id for client spans (`caller << 40 | op index`); a fresh id
    /// for store calls, which serve several requests at once.
    pub id: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn to_json(self) -> Json {
        Json::obj([
            ("id", Json::u64(self.id)),
            ("layer", Json::Str(self.layer.into())),
            ("name", Json::Str(self.name.into())),
            ("start_ns", Json::u64(self.start_ns)),
            ("end_ns", Json::u64(self.end_ns)),
        ])
    }
}

/// A bounded span buffer owned by one recorder.
#[derive(Debug, Default)]
pub struct SpanBuf {
    spans: Vec<SpanRec>,
    dropped: u64,
}

impl SpanBuf {
    pub fn push(&mut self, span: SpanRec) {
        if self.spans.len() < MAX_SPANS {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }
}

/// Every span of a run, kept in memory and written out when it ends.
pub struct SpanLog {
    epoch: Instant,
    spans: Mutex<SpanBuf>,
    next_id: AtomicU64,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            spans: Mutex::new(SpanBuf::default()),
            next_id: AtomicU64::new(1 << 62),
        }
    }

    pub fn ns_since_epoch(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// An id for a span that belongs to no single request.
    pub fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Adds a recorder's buffer (already bounded) to the log.
    pub fn append(&self, buf: SpanBuf) {
        let mut all = self.spans.lock().expect("span log poisoned");
        all.spans.extend(buf.spans);
        all.dropped += buf.dropped;
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span log poisoned").spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn dropped(&self) -> u64 {
        self.spans.lock().expect("span log poisoned").dropped
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let all = self.spans.lock().expect("span log poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &all.spans {
            writeln!(out, "{}", span.to_json().to_string_compact())?;
        }
        out.flush()
    }
}

/// The store calls the wrapper distinguishes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    /// `update_many`, and `update` as a batch of one.
    UpdateMany,
    Scan,
    ScanStale,
}

impl Call {
    pub const ALL: [Call; 3] = [Call::UpdateMany, Call::Scan, Call::ScanStale];

    pub fn name(self) -> &'static str {
        match self {
            Call::UpdateMany => "update_many",
            Call::Scan => "scan",
            Call::ScanStale => "scan_stale",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// What the wrapper recorded for one kind of call.
#[derive(Clone, Debug, Default)]
pub struct CallStats {
    pub latency: Samples,
    pub steps: StepReport,
}

impl CallStats {
    pub fn calls(&self) -> usize {
        self.latency.len()
    }

    pub fn steps_per_call(&self) -> f64 {
        crate::stats::ratio(self.steps.total() as f64, self.calls() as f64)
    }
}

/// What the wrapper recorded, under one lock.
#[derive(Default)]
struct Recorded {
    calls: [CallStats; 3],
    spans: SpanBuf,
}

/// The timing wrapper (see the module docs).
pub struct Traced<S> {
    inner: S,
    on: AtomicBool,
    recorded: Mutex<Recorded>,
    /// Only for its clock epoch and span ids.
    spans: Arc<SpanLog>,
}

impl<S> Traced<S> {
    pub fn new(inner: S, spans: Arc<SpanLog>) -> Traced<S> {
        Traced {
            inner,
            on: AtomicBool::new(false),
            recorded: Mutex::new(Recorded::default()),
            spans,
        }
    }

    pub fn set_tracing(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Takes what was recorded for `call` so far.
    pub fn take(&self, call: Call) -> CallStats {
        std::mem::take(&mut self.recorded.lock().expect("call log poisoned").calls[call.index()])
    }

    /// Takes the store-call spans recorded so far.
    pub fn take_spans(&self) -> SpanBuf {
        std::mem::take(&mut self.recorded.lock().expect("call log poisoned").spans)
    }

    fn timed<R>(&self, call: Call, f: impl FnOnce() -> R) -> R {
        if !self.on.load(Ordering::Relaxed) {
            return f();
        }
        let scope = StepScope::start();
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let steps = scope.finish();
        let span = SpanRec {
            id: self.spans.fresh_id(),
            layer: "shard",
            name: call.name(),
            start_ns: self.spans.ns_since_epoch(start),
            end_ns: self.spans.ns_since_epoch(end),
        };
        let mut recorded = self.recorded.lock().expect("call log poisoned");
        let entry = &mut recorded.calls[call.index()];
        entry
            .latency
            .push(end.duration_since(start).as_nanos() as u64);
        entry.steps += steps;
        recorded.spans.push(span);
        drop(recorded);
        out
    }
}

impl<T, S> PartialSnapshot<T> for Traced<S>
where
    T: Clone + Send + Sync + 'static,
    S: PartialSnapshot<T>,
{
    fn components(&self) -> usize {
        self.inner.components()
    }
    fn max_processes(&self) -> usize {
        self.inner.max_processes()
    }
    fn update(&self, pid: ProcessId, component: usize, value: T) {
        self.timed(Call::UpdateMany, || {
            self.inner.update(pid, component, value)
        })
    }
    fn update_many(&self, pid: ProcessId, writes: &[(usize, T)]) {
        self.timed(Call::UpdateMany, || self.inner.update_many(pid, writes))
    }
    fn scan(&self, pid: ProcessId, components: &[usize]) -> Vec<T> {
        self.timed(Call::Scan, || self.inner.scan(pid, components))
    }
    fn scan_all(&self, pid: ProcessId) -> Vec<T> {
        self.timed(Call::Scan, || self.inner.scan_all(pid))
    }
    fn is_wait_free(&self) -> bool {
        self.inner.is_wait_free()
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn shard_heat(&self) -> Vec<u64> {
        self.inner.shard_heat()
    }
    fn shard_sizes(&self) -> Vec<usize> {
        self.inner.shard_sizes()
    }
    fn scan_stale(&self, pid: ProcessId, components: &[usize]) -> Option<(u64, Vec<T>)> {
        self.timed(Call::ScanStale, || self.inner.scan_stale(pid, components))
    }
    fn shard_of(&self, component: usize) -> usize {
        self.inner.shard_of(component)
    }
    fn generation(&self) -> u64 {
        self.inner.generation()
    }
    fn reshard(&self, op: ReshardOp) -> bool {
        self.inner.reshard(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psnap_shard::{MvShardedSnapshot, ShardConfig};

    #[test]
    fn wrapper_forwards_every_path_and_times_only_when_on() {
        let store = MvShardedSnapshot::new(64, 2, 0u64, ShardConfig::multiversioned(4));
        let traced = Traced::new(store, Arc::new(SpanLog::new(Instant::now())));
        let pid = ProcessId(0);
        traced.update_many(pid, &[(1, 10), (40, 11)]);
        assert_eq!(traced.take(Call::UpdateMany).calls(), 0);
        traced.set_tracing(true);
        traced.update(pid, 2, 12);
        assert_eq!(traced.scan(pid, &[1, 2, 40]), vec![10, 12, 11]);
        let (_, stale) = traced
            .scan_stale(pid, &[40])
            .expect("mv store answers stale scans");
        assert_eq!(stale, vec![11]);
        assert_eq!(traced.shard_of(40), traced.inner().shard_of(40));
        assert_eq!(traced.generation(), traced.inner().generation());
        assert_eq!(traced.name(), traced.inner().name());
        for call in Call::ALL {
            let stats = traced.take(call);
            assert_eq!(stats.calls(), 1, "{call:?}");
            assert!(stats.steps.total() > 0, "{call:?}");
        }
        traced.spans.append(traced.take_spans());
        assert_eq!(traced.spans.len(), 3);
    }
}
