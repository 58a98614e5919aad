//! The metric catalogue, the result line, and provenance.
//!
//! The names and units here are the ones `BENCHMARK.json` lists; the
//! crate's tests hold the two in step.

use std::collections::BTreeMap;

use psnap_json::Json;

/// Bounded end-to-end metrics, printed by every untraced run:
/// `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("update_mean_us", "us"),
    ("update_p90_us", "us"),
    ("scan_mean_us", "us"),
    ("scan_p90_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// End-to-end figures an untraced run reports without a bound. On a shared
/// host the p50s (bimodal on `core_fig3`, where an update either helps an
/// announced scan or not) and p99s moved between runs of the same code by
/// about as much as the largest allowed bound; stale scans exist on
/// `wire_mixed` only; `failed_frac` is 0 on a healthy run. The ones a
/// workload has are printed and in the report.
pub const UNBOUNDED: &[(&str, &str)] = &[
    ("update_p50_us", "us"),
    ("update_p99_us", "us"),
    ("scan_p50_us", "us"),
    ("scan_p99_us", "us"),
    ("stale_scan_mean_us", "us"),
    ("stale_scan_p50_us", "us"),
    ("stale_scan_p90_us", "us"),
    ("stale_scan_p99_us", "us"),
    ("failed_frac", "fraction"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A layer
/// a workload does not run reports 0 (see the README's table).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wire.submit_self_us", "us"),
    ("wire.scan_self_us", "us"),
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("wire.request_bytes", "B"),
    ("wire.reply_bytes", "B"),
    ("serve.submit_self_us", "us"),
    ("serve.scan_self_us", "us"),
    ("serve.writes_per_call", "count"),
    ("serve.coalesced_away_frac", "fraction"),
    ("serve.scans_per_backing_scan", "count"),
    ("serve.dedup_ratio", "ratio"),
    ("serve.window_us_mean", "us"),
    ("serve.tier_mv_frac", "fraction"),
    ("serve.tier_cache_frac", "fraction"),
    ("serve.tier_backing_frac", "fraction"),
    ("serve.busy_frac", "fraction"),
    ("shard.update_many_us_mean", "us"),
    ("shard.update_many_us_p99", "us"),
    ("shard.update_many_calls", "count"),
    ("shard.scan_us_mean", "us"),
    ("shard.scan_us_p99", "us"),
    ("shard.scan_calls", "count"),
    ("shard.scan_stale_us_mean", "us"),
    ("shard.scan_stale_us_p99", "us"),
    ("shard.scan_stale_calls", "count"),
    ("shard.cross_shard_frac", "fraction"),
    ("shard.generation_retries", "count"),
    ("shmem.steps_per_update_many", "steps"),
    ("shmem.steps_per_scan", "steps"),
    ("shmem.mv.live_versions", "count"),
    ("shmem.mv.unlinked_frac", "fraction"),
    ("shmem.mv.help_finalized", "count"),
    ("shmem.epoch.freed_frac", "fraction"),
    ("shmem.epoch.bag_items", "count"),
    ("shmem.epoch.deferrals", "count"),
    ("core.scan_steps_mean", "steps"),
    ("core.scan_steps_max", "steps"),
    ("core.scan_reads_max", "steps"),
    ("core.update_steps_mean", "steps"),
    ("core.scan_reads_mean", "steps"),
    ("core.scan_writes_mean", "steps"),
    ("core.scan_cas_mean", "steps"),
    ("core.scan_fetch_inc_mean", "steps"),
    ("core.update_reads_mean", "steps"),
    ("core.update_writes_mean", "steps"),
    ("core.update_cas_mean", "steps"),
    ("core.update_fetch_inc_mean", "steps"),
    ("core.scan_steps_quiet", "steps"),
    ("core.update_steps_quiet", "steps"),
    ("breakdown.update_client_us", "us"),
    ("breakdown.update_codec_us", "us"),
    ("breakdown.update_store_us", "us"),
    ("breakdown.update_residual_us", "us"),
    ("breakdown.scan_client_us", "us"),
    ("breakdown.scan_codec_us", "us"),
    ("breakdown.scan_store_us", "us"),
    ("breakdown.scan_residual_us", "us"),
    ("trace.overhead_frac", "fraction"),
];

/// Named metric values a run produced.
#[derive(Clone, Debug, Default)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The catalogue's metrics as `{"name": {"value", "unit"}}`. Panics if
    /// the run left one out: that is a bug in the benchmark, not a result.
    pub fn to_metrics_json(&self, catalogue: &[(&str, &str)]) -> Json {
        Json::obj(catalogue.iter().map(|&(name, unit)| {
            let value = self
                .get(name)
                .unwrap_or_else(|| panic!("the run did not produce metric {name}"));
            (
                name,
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(unit.into())),
                ]),
            )
        }))
    }

    pub fn to_json(&self) -> Json {
        Json::obj(self.0.iter().map(|(k, &v)| (k.as_str(), Json::Num(v))))
    }
}

/// Where a result came from.
pub fn provenance(seed: u64, seconds: f64, trace: bool) -> Json {
    Json::obj([
        ("seed", Json::u64(seed)),
        ("commit", Json::Str(commit())),
        (
            "nproc",
            Json::u64(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        (
            "profile",
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        ("rustc", Json::Str(env!("PERFBENCH_RUSTC").into())),
        ("run_seconds", Json::Num(seconds)),
        ("trace", Json::Bool(trace)),
    ])
}

/// The commit of the checkout the benchmark runs in, when it is a git work
/// tree; an exported tree has none to report.
fn commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown (not a git checkout)".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (git failed)".into())
}

/// Resets the peak resident memory `peak_rss_mb` reads, so a workload run
/// after another in one process (`--workload all`) reports its own peak.
/// Best effort: a kernel without the reset leaves the process-wide peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident memory of this process, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
