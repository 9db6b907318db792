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
//! levels. Comment lines start with `#`. The five `EDN_*` variables are
//! parsed once, first ([`RunEnv::from_process`]): a malformed value, like
//! an unwritable `EDN_METRICS_OUT`, is an error with a non-zero exit.

use std::process::ExitCode;

use edn_scenario::{
    parse, run_coordinated, stats_csv_header, stats_csv_row, CompiledScenario, RunEnv, RunOptions,
    ScenarioGen,
};

fn main() -> ExitCode {
    run().unwrap_or_else(|e| {
        eprintln!("scenario_run: {e}");
        ExitCode::FAILURE
    })
}

/// The whole run; an `Err` is the message to print before exiting 1.
fn run() -> Result<ExitCode, String> {
    let env = RunEnv::from_process()?;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut spec = match args.as_slice() {
        [flag, seed] if flag == "--seed" => {
            ScenarioGen::sample(seed.parse().map_err(|_| format!("`{seed}` is not a u64 seed"))?)
        }
        [path] => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            parse(&text).map_err(|e| format!("{path}: {e}"))?
        }
        _ => {
            eprintln!("usage: scenario_run <spec.toml> | scenario_run --seed <n>");
            return Ok(ExitCode::FAILURE);
        }
    };
    env.apply_channel(&mut spec);
    let mut compiled = CompiledScenario::compile(&spec).map_err(|e| e.to_string())?;
    compiled.metrics = env.metrics;

    let batch = run_coordinated(&compiled, &RunOptions::default());
    let replay = run_coordinated(&compiled, &RunOptions::default());
    if batch.stats != replay.stats {
        return Err("replay diverged — determinism regression".to_string());
    }
    let checked = run_coordinated(
        &compiled,
        &RunOptions { check: true, stream: true, ..RunOptions::default() },
    );
    if batch.stats != checked.stats {
        return Err("streamed+checked leg diverged from batch leg".to_string());
    }
    env.write_metrics(&checked.metrics)?;

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
        let path = &env.flight_out;
        if let Some(dump) = &checked.flight_dump {
            std::fs::write(path, dump)
                .map_err(|e| format!("could not write flight dump {path}: {e}"))?;
        }
        eprintln!("scenario_run: retry budget exhausted — degraded; flight dump at {path}");
        return Ok(ExitCode::SUCCESS);
    }
    if checked.verdict != Some(Ok(())) {
        return Err("coordinated verdict was not `correct`".to_string());
    }
    Ok(ExitCode::SUCCESS)
}
