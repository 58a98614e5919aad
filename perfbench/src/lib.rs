//! End-to-end and per-layer benchmark of the partial snapshot stack.
//!
//! Three seeded closed-loop workloads, each stressing different layers:
//!
//! * `wire_mixed` — remote clients over loopback TCP into the service, on
//!   the multiversioned sharded store (wire → serve → shard → core → shmem);
//! * `serve_ingest` — in-process clients, batched writes under fresh scans
//!   (serve → shard → core → shmem);
//! * `core_fig3` — the paper's Figure 3 object called directly (core and
//!   shmem only).
//!
//! An untraced run reports the end-to-end metrics; a traced run splits its
//! window into an untraced and a traced half and reports the per-layer
//! metrics from the traced half. See `README.md` for every metric and what
//! it should move.

pub mod check;
pub mod fig3;
pub mod gen;
pub mod report;
pub mod service;
pub mod stats;
pub mod store;

use std::time::{Duration, Instant};

use psnap_json::Json;

use crate::gen::Mix;
use crate::report::{Values, PER_LAYER};
use crate::service::ServiceSpec;
use crate::stats::{median, ratio, Sliced, SLICES};
use crate::store::SpanLog;

/// The benchmark's workloads, in the order `all` runs them.
pub const WORKLOADS: [&str; 3] = ["wire_mixed", "serve_ingest", "core_fig3"];

/// Timed set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 11;

/// What one run does.
#[derive(Clone, Debug)]
pub struct Settings {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    pub trace: bool,
    pub setups: usize,
}

impl Settings {
    /// Untimed load before the window, so caches fill and lazy set-up ends.
    fn warmup(&self) -> Duration {
        Duration::from_secs_f64((self.seconds / 10.0).min(2.0))
    }
}

pub const WIRE_MIXED: ServiceSpec = ServiceSpec {
    m: 4096,
    shards: 4,
    callers: 2,
    mix: Mix {
        batch: 1,
        r: 8,
        update_pct: 50,
        scan_pct: 25,
    },
    wire: true,
};

pub const SERVE_INGEST: ServiceSpec = ServiceSpec {
    m: 65536,
    shards: 4,
    callers: 2,
    mix: Mix {
        batch: 16,
        r: 32,
        update_pct: 80,
        scan_pct: 20,
    },
    wire: false,
};

pub const CORE_FIG3: fig3::Fig3Spec = fig3::Fig3Spec { m: 65536, r: 16 };

/// Runs one workload.
pub fn run(settings: &Settings) -> Result<RunOutcome, String> {
    report::reset_peak_rss();
    let outcome = match settings.workload.as_str() {
        "wire_mixed" => service::run(&WIRE_MIXED, &|| service::mv_store(&WIRE_MIXED), settings),
        "serve_ingest" => service::run(
            &SERVE_INGEST,
            &|| service::mv_store(&SERVE_INGEST),
            settings,
        ),
        "core_fig3" => fig3::run(&CORE_FIG3, settings),
        other => {
            return Err(format!(
                "unknown workload {other:?}; expected one of {}",
                WORKLOADS.join(", ")
            ))
        }
    };
    Ok(outcome)
}

/// The window boundaries of a run: warm-up until `start`, then the
/// untraced window until `mid`, then (traced runs only) the traced window
/// until `end`.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub start: Instant,
    pub mid: Instant,
    pub end: Instant,
    pub traced: bool,
    /// Slices of the first window: [`SLICES`] in an untraced run; the two
    /// halves of a traced run are one slice each.
    pub slices: usize,
}

impl Plan {
    pub fn new(settings: &Settings) -> Plan {
        let start = Instant::now() + settings.warmup();
        let window = Duration::from_secs_f64(settings.seconds);
        let end = start + window;
        let mid = if settings.trace {
            start + window / 2
        } else {
            end
        };
        Plan {
            start,
            mid,
            end,
            traced: settings.trace,
            slices: if settings.trace { 1 } else { SLICES },
        }
    }

    /// The window and slice an op started at `t` belongs to; `None` during
    /// warm-up.
    pub fn phase(&self, t: Instant) -> Option<(usize, usize)> {
        if t < self.start {
            None
        } else if t < self.mid {
            let into = t.duration_since(self.start).as_secs_f64();
            let slice = (into / self.window_secs(0) * self.slices as f64) as usize;
            Some((0, slice.min(self.slices - 1)))
        } else {
            Some((1, 0))
        }
    }

    /// A fresh per-slice latency log for window `phase`.
    pub fn sliced(&self, phase: usize) -> Sliced {
        Sliced::new(if phase == 0 { self.slices } else { 1 })
    }

    pub fn window_secs(&self, phase: usize) -> f64 {
        match phase {
            0 => self.mid.duration_since(self.start).as_secs_f64(),
            _ => self.end.duration_since(self.mid).as_secs_f64(),
        }
    }
}

pub fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// The process-wide shmem counters, read at a window boundary.
#[derive(Clone, Copy, Debug)]
pub struct ShmemSnap {
    installed: u64,
    unlinked: u64,
    live_versions: i64,
    help_finalized: u64,
    retired: u64,
    freed: u64,
    bag_items: i64,
    deferrals: u64,
}

impl ShmemSnap {
    pub fn take() -> ShmemSnap {
        use psnap_shmem::metrics as m;
        ShmemSnap {
            installed: m::mv_installed().get(),
            unlinked: m::mv_unlinked().get(),
            live_versions: m::mv_live_versions().get(),
            help_finalized: m::mv_help_finalized().get(),
            retired: m::epoch_retired().get(),
            freed: m::epoch_freed().get(),
            bag_items: m::epoch_bag_items().get(),
            deferrals: m::epoch_deferrals().get(),
        }
    }

    /// Counters as deltas from `a` to `b`, gauges as read at `b`.
    pub fn put(v: &mut Values, a: &ShmemSnap, b: &ShmemSnap) {
        let d = |x: u64, y: u64| y.saturating_sub(x) as f64;
        v.set("shmem.mv.live_versions", b.live_versions as f64);
        v.set(
            "shmem.mv.unlinked_frac",
            ratio(d(a.unlinked, b.unlinked), d(a.installed, b.installed)),
        );
        v.set(
            "shmem.mv.help_finalized",
            d(a.help_finalized, b.help_finalized),
        );
        v.set(
            "shmem.epoch.freed_frac",
            ratio(d(a.freed, b.freed), d(a.retired, b.retired)),
        );
        v.set("shmem.epoch.bag_items", b.bag_items as f64);
        v.set("shmem.epoch.deferrals", d(a.deferrals, b.deferrals));
    }
}

fn zero_matching(v: &mut Values, prefixes: &[&str]) {
    for &(name, _) in PER_LAYER {
        if prefixes.iter().any(|p| name.starts_with(p)) {
            v.set(name, 0.0);
        }
    }
}

/// The core step metrics are taken where the Figure 3 object is called
/// directly; the service workloads report 0 for them.
pub fn zero_core(v: &mut Values) {
    zero_matching(v, &["core."]);
}

/// `core_fig3` runs no wire, serve or shard layer: their metrics read 0.
pub fn zero_service_layers(v: &mut Values) {
    zero_matching(v, &["wire.", "serve.", "shard.", "shmem.steps_per_"]);
}

/// What a run measured and whether its outputs were correct.
#[derive(Debug)]
pub struct RunOutcome {
    pub settings: Settings,
    /// The first correctness check that failed, if any.
    pub violation: Option<String>,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Values,
    /// End-to-end figures reported without a bound (see
    /// [`report::UNBOUNDED`]); `failed_frac` comes from the counts.
    pub unbounded: Values,
    pub layer: Values,
    /// Everything else the report carries: sample counts, set-up samples,
    /// slice throughputs, trace file.
    pub details: Vec<(&'static str, Json)>,
}

impl RunOutcome {
    pub fn new(settings: &Settings, setup_s: &[f64]) -> RunOutcome {
        let mut outcome = RunOutcome {
            settings: settings.clone(),
            violation: None,
            attempted: 0,
            failed: 0,
            end_to_end: Values::default(),
            unbounded: Values::default(),
            layer: Values::default(),
            details: Vec::new(),
        };
        if !setup_s.is_empty() {
            outcome.end_to_end.set("setup_s", median(setup_s));
        }
        outcome.details.push((
            "setup_s_samples",
            Json::arr(setup_s.iter().map(|&s| Json::Num(s))),
        ));
        outcome
    }

    /// A run that could not get as far as measuring.
    pub fn failed(settings: &Settings, why: String) -> RunOutcome {
        let mut outcome = RunOutcome::new(settings, &[]);
        outcome.violation = Some(why);
        outcome
    }

    /// Fills the end-to-end metrics from the untraced window: each is the
    /// median over the window's slices.
    pub fn record_window(
        &mut self,
        plan: &Plan,
        update: &mut Sliced,
        scan: &mut Sliced,
        stale: &mut Sliced,
        peak_rss_mb: f64,
    ) {
        let slice_secs = plan.window_secs(0) / plan.slices as f64;
        let rates: Vec<f64> = (0..plan.slices)
            .map(|i| {
                (update.counts()[i] + scan.counts()[i] + stale.counts()[i]) as f64 / slice_secs
            })
            .collect();
        self.details.push((
            "slice_throughput_ops_s",
            Json::arr(rates.iter().map(|&r| Json::Num(r))),
        ));
        let e = &mut self.end_to_end;
        e.set("throughput_ops_s", median(&rates));
        e.set("update_mean_us", update.median_mean_us());
        e.set("update_p90_us", update.median_percentile_us(0.9));
        e.set("scan_mean_us", scan.median_mean_us());
        e.set("scan_p90_us", scan.median_percentile_us(0.9));
        e.set("peak_rss_mb", peak_rss_mb);
        let u = &mut self.unbounded;
        u.set("update_p50_us", update.median_percentile_us(0.5));
        u.set("update_p99_us", update.median_percentile_us(0.99));
        u.set("scan_p50_us", scan.median_percentile_us(0.5));
        u.set("scan_p99_us", scan.median_percentile_us(0.99));
        if !stale.is_empty() {
            u.set("stale_scan_mean_us", stale.median_mean_us());
            u.set("stale_scan_p50_us", stale.median_percentile_us(0.5));
            u.set("stale_scan_p90_us", stale.median_percentile_us(0.9));
            u.set("stale_scan_p99_us", stale.median_percentile_us(0.99));
        }
        self.details.push((
            "samples",
            Json::obj([
                ("slices", Json::u64(plan.slices as u64)),
                ("update", samples_json(update)),
                ("scan", samples_json(scan)),
                ("stale_scan", samples_json(stale)),
            ]),
        ));
    }

    /// Writes the traced window's spans out and notes the tracing overhead.
    pub fn finish_trace(&mut self, spans: &SpanLog, untraced_ops_s: f64, traced_ops_s: f64) {
        let path = std::path::Path::new(OUT_DIR).join(format!(
            "spans-{}-seed{}.jsonl",
            self.settings.workload, self.settings.seed
        ));
        let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| spans.write_jsonl(&path));
        self.details.push((
            "spans",
            Json::obj([
                ("kept", Json::u64(spans.len() as u64)),
                ("dropped", Json::u64(spans.dropped())),
                (
                    "file",
                    match written {
                        Ok(()) => Json::Str(path.display().to_string()),
                        Err(e) => Json::Str(format!("not written: {e}")),
                    },
                ),
            ]),
        ));
        self.details.push((
            "tracing_overhead",
            Json::obj([
                ("untraced_throughput_ops_s", Json::Num(untraced_ops_s)),
                ("traced_throughput_ops_s", Json::Num(traced_ops_s)),
            ]),
        ));
    }

    /// The unbounded end-to-end figures, with `failed_frac` added.
    pub fn unbounded_with_failures(&self) -> Values {
        let mut values = self.unbounded.clone();
        values.set(
            "failed_frac",
            ratio(self.failed as f64, self.attempted as f64),
        );
        values
    }

    pub fn correct(&self) -> bool {
        self.violation.is_none()
    }

    /// The full report: provenance, every metric, the details.
    pub fn report_json(&self) -> Json {
        let s = &self.settings;
        let mut fields = vec![
            ("workload", Json::Str(s.workload.clone())),
            ("provenance", report::provenance(s.seed, s.seconds, s.trace)),
            ("correct", Json::Bool(self.correct())),
            (
                "violation",
                self.violation.clone().map_or(Json::Null, Json::Str),
            ),
            ("attempted", Json::u64(self.attempted)),
            ("failed", Json::u64(self.failed)),
            ("end_to_end", self.end_to_end.to_json()),
            (
                "end_to_end_unbounded",
                self.unbounded_with_failures().to_json(),
            ),
            ("per_layer", self.layer.to_json()),
        ];
        fields.extend(self.details.iter().cloned());
        Json::obj(fields)
    }

    /// The last line of the run's output.
    pub fn result_json(&self) -> Json {
        let metrics = if self.correct() {
            if self.settings.trace {
                self.layer.to_metrics_json(PER_LAYER)
            } else {
                self.end_to_end.to_metrics_json(report::END_TO_END)
            }
        } else {
            Json::obj(Vec::<(&str, Json)>::new())
        };
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::u64(self.attempted.max(1))),
            ("failed", Json::u64(self.failed)),
            ("metrics", metrics),
        ])
    }
}

/// How many ops a latency summary covers, and how many of them its
/// per-slice percentiles were taken over in all.
fn samples_json(samples: &Sliced) -> Json {
    Json::obj([
        ("ops", Json::u64(samples.len() as u64)),
        ("percentile_samples", Json::u64(samples.kept() as u64)),
    ])
}

/// Where reports and span files go: the benchmark's own `out` directory.
pub const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
