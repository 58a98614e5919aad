//! Runs one benchmark workload (or `all` of them) and prints its metrics.
//!
//! ```text
//! perfbench --workload <wire_mixed|serve_ingest|core_fig3|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it is
//! the full report (provenance, every metric, sample counts), also written
//! to `out/`. A failed correctness check exits with code 1.

use std::process::ExitCode;

use perfbench::report::{Values, END_TO_END, PER_LAYER, UNBOUNDED};
use perfbench::{RunOutcome, Settings, OUT_DIR, SETUPS, WORKLOADS};
use psnap_json::Json;

fn parse_args() -> Result<Settings, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut settings = Settings {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        setups: SETUPS,
    };
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", args[i]))?;
        match args[i].as_str() {
            "--workload" => settings.workload = value.clone(),
            "--seed" => settings.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                settings.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(settings.seconds > 0.0 && settings.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                settings.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    if settings.workload.is_empty() {
        return Err(format!(
            "--workload is required: one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(settings)
}

fn print_summary(outcome: &RunOutcome) {
    let s = &outcome.settings;
    println!(
        "# {} seed={} seconds={} trace={} attempted={} failed={}",
        s.workload, s.seed, s.seconds, s.trace as u8, outcome.attempted, outcome.failed
    );
    let print = |values: &Values, catalogue: &[(&str, &str)], note: &str| {
        for &(name, unit) in catalogue {
            if let Some(value) = values.get(name) {
                println!("{name:<32} {value:>14.4} {unit}{note}");
            }
        }
    };
    if s.trace {
        print(&outcome.layer, PER_LAYER, "");
    } else {
        print(&outcome.end_to_end, END_TO_END, "");
        print(
            &outcome.unbounded_with_failures(),
            UNBOUNDED,
            " (unbounded)",
        );
    }
    if let Some(why) = &outcome.violation {
        println!("CORRECTNESS CHECK FAILED: {why}");
    }
}

fn save_report(outcome: &RunOutcome, report: &Json) {
    let s = &outcome.settings;
    let path = std::path::Path::new(OUT_DIR).join(format!(
        "report-{}-seed{}-trace{}.json",
        s.workload, s.seed, s.trace as u8
    ));
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, report.to_string_pretty()));
    if let Err(e) = written {
        eprintln!("could not write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let settings = match parse_args() {
        Ok(settings) => settings,
        Err(why) => {
            eprintln!("perfbench: {why}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if settings.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![settings.workload.as_str()]
    };
    let mut outcomes = Vec::new();
    for name in names {
        let one = Settings {
            workload: name.to_string(),
            ..settings.clone()
        };
        let outcome = match perfbench::run(&one) {
            Ok(outcome) => outcome,
            Err(why) => {
                eprintln!("perfbench: {why}");
                return ExitCode::from(2);
            }
        };
        print_summary(&outcome);
        let report = outcome.report_json();
        save_report(&outcome, &report);
        println!("{}", Json::obj([("report", report)]).to_string_compact());
        outcomes.push(outcome);
    }
    let correct = outcomes.iter().all(RunOutcome::correct);
    let result = if let [only] = outcomes.as_slice() {
        only.result_json()
    } else {
        // `all`: one object over every workload, metric names prefixed.
        let mut metrics = Vec::new();
        for outcome in &outcomes {
            if let Json::Obj(fields) = outcome
                .result_json()
                .get("metrics")
                .cloned()
                .unwrap_or(Json::Null)
            {
                for (name, value) in fields {
                    metrics.push((format!("{}.{name}", outcome.settings.workload), value));
                }
            }
        }
        Json::obj([
            ("correct", Json::Bool(correct)),
            (
                "attempted",
                Json::u64(outcomes.iter().map(|o| o.attempted).sum::<u64>().max(1)),
            ),
            ("failed", Json::u64(outcomes.iter().map(|o| o.failed).sum())),
            ("metrics", Json::obj(metrics)),
        ])
    };
    println!("{}", result.to_string_compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
