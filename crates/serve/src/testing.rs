//! Deterministic test instrumentation for the service pipelines.
//!
//! [`GatedSnapshot`] wraps any [`PartialSnapshot`] with two closable gates —
//! one at the entry of every write operation, one at the entry of every scan
//! — and a log of every write actually applied. Closing the update gate and
//! submitting through the service parks the **drainer mid-coalesce**
//! deterministically (it has already collected the submissions and is now
//! blocked applying them), which is exactly the seam the chaos tests need to
//! hold open while clients keep submitting; the write log then proves no
//! accepted write was dropped or applied twice.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use psnap_core::{PartialSnapshot, ProcessId};

/// A reusable open/closed gate; threads entering while closed block until
/// reopened.
pub struct Gate {
    closed: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    /// An open gate.
    pub fn new() -> Arc<Gate> {
        Arc::new(Gate {
            closed: Mutex::new(false),
            cv: Condvar::new(),
        })
    }

    /// Closes the gate: subsequent [`pass`](Gate::pass) calls block.
    pub fn close(&self) {
        *self.closed.lock().unwrap_or_else(|e| e.into_inner()) = true;
    }

    /// Opens the gate, releasing every blocked thread.
    pub fn open(&self) {
        *self.closed.lock().unwrap_or_else(|e| e.into_inner()) = false;
        self.cv.notify_all();
    }

    /// Blocks while the gate is closed.
    pub fn pass(&self) {
        let mut closed = self.closed.lock().unwrap_or_else(|e| e.into_inner());
        while *closed {
            closed = self.cv.wait(closed).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// A [`PartialSnapshot`] decorator with gates and a write log (see the
/// module docs).
pub struct GatedSnapshot<T, S> {
    inner: S,
    /// Gate at the entry of `update` / `update_many`.
    pub update_gate: Arc<Gate>,
    /// Gate at the entry of `scan`.
    pub scan_gate: Arc<Gate>,
    /// Every write applied, in application order: `(component, value)`. For
    /// `update_many`, the batch's writes are logged contiguously.
    applied: Mutex<Vec<(usize, T)>>,
    /// Number of `scan` calls that reached the inner object.
    scans: Mutex<u64>,
    /// Extra latency injected into every `scan` after the gate, in
    /// nanoseconds. Lets tests shape the backing-scan cost the adaptive
    /// coalescing controller observes.
    scan_delay_ns: AtomicU64,
    /// What [`PartialSnapshot::is_wait_free`] reports (see
    /// [`set_wait_free`](GatedSnapshot::set_wait_free)).
    wait_free: AtomicBool,
}

impl<T, S> GatedSnapshot<T, S>
where
    T: Clone + Send + Sync + 'static,
    S: PartialSnapshot<T>,
{
    /// Wraps `inner` with open gates and an empty log.
    pub fn new(inner: S) -> GatedSnapshot<T, S> {
        GatedSnapshot {
            inner,
            update_gate: Gate::new(),
            scan_gate: Gate::new(),
            applied: Mutex::new(Vec::new()),
            scans: Mutex::new(0),
            scan_delay_ns: AtomicU64::new(0),
            wait_free: AtomicBool::new(false),
        }
    }

    /// Makes the object report itself wait-free (it is not: a closed gate
    /// blocks). Lets a test park a caller that serves requests inline — a
    /// path the service takes only on wait-free objects — on a gate.
    pub fn set_wait_free(&self, wait_free: bool) {
        self.wait_free.store(wait_free, Ordering::Relaxed);
    }

    /// Sets the artificial latency every subsequent inner scan pays.
    pub fn set_scan_delay(&self, delay: Duration) {
        self.scan_delay_ns
            .store(delay.as_nanos() as u64, Ordering::Relaxed);
    }

    /// The writes applied so far, in application order.
    pub fn applied_writes(&self) -> Vec<(usize, T)> {
        self.applied
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Number of scans that reached the inner object.
    pub fn inner_scans(&self) -> u64 {
        *self.scans.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T, S> PartialSnapshot<T> for GatedSnapshot<T, S>
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
        self.update_gate.pass();
        self.inner.update(pid, component, value.clone());
        self.applied
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((component, value));
    }
    fn update_many(&self, pid: ProcessId, writes: &[(usize, T)]) {
        self.update_gate.pass();
        self.inner.update_many(pid, writes);
        self.applied
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .extend(writes.iter().cloned());
    }
    fn scan(&self, pid: ProcessId, components: &[usize]) -> Vec<T> {
        self.scan_gate.pass();
        *self.scans.lock().unwrap_or_else(|e| e.into_inner()) += 1;
        let delay = self.scan_delay_ns.load(Ordering::Relaxed);
        if delay > 0 {
            std::thread::sleep(Duration::from_nanos(delay));
        }
        self.inner.scan(pid, components)
    }
    fn is_wait_free(&self) -> bool {
        // Gates block by design; only a test's explicit request says otherwise.
        self.wait_free.load(Ordering::Relaxed)
    }
    fn name(&self) -> &'static str {
        "gated-test-snapshot"
    }
    fn shard_heat(&self) -> Vec<u64> {
        self.inner.shard_heat()
    }
    fn scan_stale(&self, pid: ProcessId, components: &[usize]) -> Option<(u64, Vec<T>)> {
        // Counts toward `inner_scans` only if the inner object actually
        // answers; the gate still applies so chaos tests can park mv-tier
        // readers too.
        self.scan_gate.pass();
        let result = self.inner.scan_stale(pid, components)?;
        *self.scans.lock().unwrap_or_else(|e| e.into_inner()) += 1;
        Some(result)
    }
    fn shard_of(&self, component: usize) -> usize {
        self.inner.shard_of(component)
    }
}
