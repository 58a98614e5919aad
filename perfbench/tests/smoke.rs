//! Tiny-scale runs of every workload, and the correctness checks firing on
//! deliberately wrong stores.

use std::process::Command;

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::service::{self, Backend};
use perfbench::{Settings, SERVE_INGEST, WIRE_MIXED, WORKLOADS};
use psnap_core::{PartialSnapshot, ProcessId};
use psnap_json::Json;
use psnap_shard::MvShardedSnapshot;

fn tiny(workload: &str, trace: bool) -> Settings {
    Settings {
        workload: workload.into(),
        seed: 5,
        seconds: 0.3,
        trace,
        setups: 2,
    }
}

/// Runs the benchmark binary and returns its parsed last line.
fn run_binary(workload: &str, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "0.3"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} exited with {}: {stdout}{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("some output");
    Json::parse(last).expect("the last line is JSON")
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    for workload in WORKLOADS {
        for (trace, catalogue) in [(false, END_TO_END), (true, PER_LAYER)] {
            let result = run_binary(workload, trace);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
            assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("{workload}: no metrics object");
            };
            assert_eq!(metrics.len(), catalogue.len(), "{workload} trace={trace}");
            for &(name, unit) in catalogue {
                let metric = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload} trace={trace}: {name} missing"));
                assert_eq!(
                    metric.get("unit").and_then(Json::as_str),
                    Some(unit),
                    "{name}"
                );
                let value = metric.get("value").and_then(Json::as_f64);
                assert!(value.is_some_and(f64::is_finite), "{name} = {value:?}");
                if !trace {
                    assert!(value.unwrap() > 0.0, "{workload}: {name} reads 0");
                }
            }
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"][..],
        &["--workload", "core_fig3", "--trace", "2"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("the benchmark binary runs");
        assert!(!out.status.success(), "{args:?} exited 0");
    }
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let text = include_str!("../../BENCHMARK.json");
    let spec = Json::parse(text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        spec.get(key)
            .and_then(Json::as_array)
            .expect("a metric list")
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string(),
                    m.get("unit")
                        .and_then(Json::as_str)
                        .expect("unit")
                        .to_string(),
                )
            })
            .collect()
    };
    let code = |catalogue: &[(&str, &str)]| -> Vec<(String, String)> {
        catalogue
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), code(END_TO_END));
    assert_eq!(listed("per_layer"), code(PER_LAYER));
    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn the_exact_count_pass_repeats_for_a_seed() {
    let zipf = std::sync::Arc::new(perfbench::gen::Zipf::new(perfbench::CORE_FIG3.m, 0.99, 11));
    let first = perfbench::fig3::quiet_pass(&perfbench::CORE_FIG3, 11, &zipf);
    let second = perfbench::fig3::quiet_pass(&perfbench::CORE_FIG3, 11, &zipf);
    assert_eq!(first, second);
    assert!(first.0 > 0.0 && first.1 > 0.0);
}

/// A store that answers scans with the neighbouring component's value.
struct Misroute(MvShardedSnapshot<u64>);

/// A store that acknowledges writes without applying them.
struct Forgetful(MvShardedSnapshot<u64>);

macro_rules! faulty_store {
    ($ty:ident, $update_many:expr, $scan:expr) => {
        impl PartialSnapshot<u64> for $ty {
            fn components(&self) -> usize {
                self.0.components()
            }
            fn max_processes(&self) -> usize {
                self.0.max_processes()
            }
            fn update(&self, pid: ProcessId, component: usize, value: u64) {
                self.update_many(pid, &[(component, value)])
            }
            fn update_many(&self, pid: ProcessId, writes: &[(usize, u64)]) {
                let f: fn(&MvShardedSnapshot<u64>, ProcessId, &[(usize, u64)]) = $update_many;
                f(&self.0, pid, writes)
            }
            fn scan(&self, pid: ProcessId, components: &[usize]) -> Vec<u64> {
                let f: fn(&MvShardedSnapshot<u64>, ProcessId, &[usize]) -> Vec<u64> = $scan;
                f(&self.0, pid, components)
            }
            fn is_wait_free(&self) -> bool {
                true
            }
            fn name(&self) -> &'static str {
                stringify!($ty)
            }
        }

        impl Backend for $ty {
            fn shard_counters(&self) -> (u64, u64) {
                self.0.shard_counters()
            }
        }
    };
}

faulty_store!(
    Misroute,
    |s, pid, writes| s.update_many(pid, writes),
    |s, pid, components| {
        let mut values = s.scan(pid, components);
        values.rotate_left(1);
        values
    }
);

faulty_store!(Forgetful, |_, _, _| {}, |s, pid, components| s
    .scan(pid, components));

#[test]
fn component_check_fires_on_misrouted_values_in_process_and_over_the_wire() {
    for spec in [SERVE_INGEST, WIRE_MIXED] {
        let outcome = service::run(
            &spec,
            &|| Misroute(service::mv_store(&spec)),
            &tiny("misroute", false),
        );
        let result = outcome.result_json();
        assert_eq!(result.get("correct"), Some(&Json::Bool(false)));
        let why = outcome
            .violation
            .expect("a misrouting store must fail the run");
        assert!(why.contains("written to component"), "{why}");
    }
}

#[test]
fn read_your_writes_fires_on_lost_writes() {
    let outcome = service::run(
        &SERVE_INGEST,
        &|| Forgetful(service::mv_store(&SERVE_INGEST)),
        &tiny("forgetful", false),
    );
    let why = outcome
        .violation
        .expect("a store that loses writes must fail the run");
    assert!(why.contains("read the initial value"), "{why}");
}

#[test]
fn a_correct_store_passes_every_check_in_process() {
    let outcome = perfbench::run(&tiny("serve_ingest", true)).expect("a known workload");
    assert!(outcome.correct(), "{:?}", outcome.violation);
}
