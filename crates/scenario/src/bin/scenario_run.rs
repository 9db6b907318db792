//! Run one scenario end to end and print its canonical CSV.
//!
//! ```text
//! scenario_run <spec.toml>     # run a spec file
//! scenario_run --seed <n>      # run ScenarioGen::sample(n)
//! ```
//!
//! Three legs per invocation, with cross-checks the process enforces:
//!
//! 1. coordinated, batch traffic;
//! 2. the same leg again — replay determinism, byte for byte;
//! 3. coordinated, *streamed* traffic with the online Definition 6 checker
//!    attached — must match leg 1 byte for byte.
//!
//! The printed CSV row comes from the checked leg and carries simulated
//! quantities only, so it is byte-identical across replays and telemetry
//! levels. Comment lines start with `#`. A malformed `EDN_*` value is
//! reported before any leg runs, with a non-zero exit.

use std::process::ExitCode;

use edn_scenario::{
    parse, run_coordinated, stats_csv_header, stats_csv_row, CompiledScenario, RunOptions,
    ScenarioGen,
};

/// Parses every value-carrying `EDN_*` variable the legs will read, so a
/// typo is a usage error here rather than a panic mid-run, and writes an
/// empty snapshot where `EDN_METRICS_OUT` points (each leg's `finish`
/// overwrites it), so an unwritable export path is one too — a library
/// caller's `finish` reports it on stderr and still returns the run.
fn check_env() -> Result<(), String> {
    let var = |name: &str| std::env::var(name).ok();
    netsim::MetricsLevel::parse(var("EDN_METRICS").as_deref())?;
    netsim::ChannelModel::parse(var("EDN_CHANNEL").as_deref())?;
    nes_runtime::parse_retry_budget(var("EDN_RETRY_BUDGET").as_deref())?;
    netsim::Registry::new().write_out_from_env().map_err(|e| e.to_string())?;
    Ok(())
}

fn main() -> ExitCode {
    if let Err(e) = check_env() {
        eprintln!("scenario_run: {e}");
        return ExitCode::FAILURE;
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = match args.as_slice() {
        [flag, seed] if flag == "--seed" => match seed.parse() {
            Ok(seed) => ScenarioGen::sample(seed),
            Err(_) => {
                eprintln!("scenario_run: `{seed}` is not a u64 seed");
                return ExitCode::FAILURE;
            }
        },
        [path] => {
            let text = match std::fs::read_to_string(path) {
                Ok(text) => text,
                Err(e) => {
                    eprintln!("scenario_run: cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match parse(&text) {
                Ok(spec) => spec,
                Err(e) => {
                    eprintln!("scenario_run: {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        _ => {
            eprintln!("usage: scenario_run <spec.toml> | scenario_run --seed <n>");
            return ExitCode::FAILURE;
        }
    };
    let compiled = match CompiledScenario::compile(&spec) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("scenario_run: {e}");
            return ExitCode::FAILURE;
        }
    };

    let batch = run_coordinated(&compiled, &RunOptions::default());
    let replay = run_coordinated(&compiled, &RunOptions::default());
    if batch.stats != replay.stats {
        eprintln!("scenario_run: replay diverged — determinism regression");
        return ExitCode::FAILURE;
    }
    let checked = run_coordinated(
        &compiled,
        &RunOptions { check: true, stream: true, ..RunOptions::default() },
    );
    if batch.stats != checked.stats {
        eprintln!("scenario_run: streamed+checked leg diverged from batch leg");
        return ExitCode::FAILURE;
    }

    println!(
        "# scenario {} seed {} topology {} steps {} actions {}",
        spec.name,
        spec.seed,
        spec.topology.kind(),
        compiled.steps.len(),
        compiled.actions.len()
    );
    println!("{}", stats_csv_header());
    println!("{}", stats_csv_row(&checked));
    if checked.degraded {
        // Budget exhaustion is an explicit outcome, not a silent failure:
        // the verdict column reads `degraded` and the message-level
        // post-mortem lands where `EDN_FLIGHT_OUT` points.
        let path = netsim::FlightRecorder::dump_path_from_env("edn_flight.json");
        if let Some(dump) = &checked.flight_dump {
            if let Err(e) = std::fs::write(&path, dump) {
                eprintln!("scenario_run: could not write flight dump {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        eprintln!("scenario_run: retry budget exhausted — degraded; flight dump at {path}");
        return ExitCode::SUCCESS;
    }
    if checked.verdict != Some(Ok(())) {
        eprintln!("scenario_run: coordinated verdict was not `correct`");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
