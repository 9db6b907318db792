//! The repo's benchmark: spec text → verdict on four workloads.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! benchmark run   [--seed <n>] [--seconds <s>] [--smoke]
//! benchmark trace [--seed <n>] [--seconds <s>] [--smoke]
//! ```
//!
//! The first form measures one workload in this process and prints, as the
//! last line of standard output, the JSON result `BENCHMARK.json`'s
//! contract describes: end-to-end metrics with `--trace 0`, per-layer
//! metrics with `--trace 1`. `run` and `trace` re-execute this binary in
//! that form once per workload, one child at a time, so peak RSS and
//! allocator state are each workload's own. See `README.md`.

mod observer;
mod pins;
mod report;
mod span;
mod stats;
mod workload;
mod yardstick;

use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use report::Values;
use span::Tracer;
use stats::Summary;
use workload::{Counters, Inputs, Outcome, Workload};
use yardstick::Yardstick;

const DEFAULT_SEED: u64 = 2016;
/// `--seconds` when neither the command line nor `BENCHMARK.json` says.
const DEFAULT_SECONDS: u64 = 10;
/// Timed repetitions never fall below this, however short `--seconds` is.
const MIN_REPS: usize = 5;
/// Traced repetitions (each paired with an untraced one) never fall below
/// this.
const MIN_TRACED_REPS: usize = 3;

const USAGE: &str =
    "usage: benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]\n       \
                     benchmark run|trace [--seed <n>] [--seconds <s>] [--smoke]";

enum Mode {
    /// Measure one workload in this process.
    One(Workload),
    /// Every workload, each in a child in the `One` form.
    All,
}

struct Args {
    mode: Mode,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut mode, mut seed, mut seconds, mut trace, mut smoke) =
        (None, DEFAULT_SEED, None, false, false);
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "run" | "trace" if mode.is_none() => {
                mode = Some(Mode::All);
                trace = arg == "trace";
            }
            "--workload" if mode.is_none() => {
                let name = value()?;
                let workload = Workload::from_name(name);
                mode =
                    Some(Mode::One(workload.ok_or_else(|| format!("unknown workload `{name}`"))?));
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let mode = mode.ok_or("give `run`, `trace` or `--workload <name>`")?;
    Ok(Args { mode, seed, seconds, trace, smoke })
}

/// Removes every knob a caller's shell may carry, so that the from-env
/// constructors the benchmark goes through build the default corner.
fn scrub_environment() {
    let knobs: Vec<_> = std::env::vars_os()
        .map(|(key, _)| key)
        .filter(|key| {
            let key = key.to_string_lossy();
            ["EDN_", "CAMPAIGN_", "VSCALE_"].iter().any(|p| key.starts_with(p))
        })
        .collect();
    for key in knobs {
        std::env::remove_var(key);
    }
}

/// `VmHWM` (peak resident set) of this process, in kilobytes.
fn vm_hwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().trim_end_matches("kB").trim().parse().ok()
}

/// The correctness gate: counts operations and the ones that failed.
struct Gate {
    workload: Workload,
    updates: usize,
    /// The first repetition's counters; every later one must equal them.
    first: Option<Counters>,
    attempted: u64,
    failed: u64,
}

impl Gate {
    fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED [{}]: {what}", self.workload.name());
        }
    }

    /// A repetition passes if it ends in the expected verdict, fired every
    /// update, and reproduced the first repetition's counters.
    fn repetition(&mut self, o: &Outcome) {
        let first = *self.first.get_or_insert(o.counters);
        let ok = o.verdict == self.workload.expected_verdict()
            && o.fired == self.updates
            && o.counters == first;
        self.check(&format!("repetition: {o:?}, first counters {first:?}"), ok);
    }
}

/// Is there room for another repetition? Always below `min` of them; after
/// that only while one more of average length still ends inside `budget`,
/// so that a run measures for the time it was given and no longer.
fn more_fits(done: usize, min: usize, started: Instant, budget: Duration) -> bool {
    let elapsed = started.elapsed();
    done < min || elapsed + elapsed / done as u32 <= budget
}

/// The end-to-end pass: timed repetitions, tracing off, each bracketed by
/// the yardstick. A repetition's times are divided by the host's slowdown
/// around it (the mean of the yardstick readings before and after), and the
/// medians of those host-normalised times are what the result line carries;
/// the wall-clock medians and the slowdown go to standard error.
fn measure_end_to_end(
    inputs: &Inputs,
    gate: &mut Gate,
    budget: Duration,
    cold_verdict_s: f64,
) -> Values {
    let check = gate.workload.checked();
    let (mut verdict_s, mut setup_s) = (Vec::new(), Vec::new());
    let (mut wall_s, mut slowdown) = (Vec::new(), Vec::new());
    let started = Instant::now();
    let mut yard = Yardstick::new();
    let quanta = Yardstick::quanta_for(cold_verdict_s);
    let mut before = yard.slowdown(quanta);
    while more_fits(verdict_s.len(), MIN_REPS, started, budget) {
        let rep = inputs.run_untraced(check);
        let after = yard.slowdown(quanta);
        let host = (before + after) / 2.0;
        before = after;
        gate.repetition(&rep.outcome);
        verdict_s.push(rep.verdict_s / host);
        setup_s.push(rep.setup_s / host);
        wall_s.push(rep.verdict_s);
        slowdown.push(host);
    }
    // Read before the self-checks, which run other planes in this process.
    let rss_kb = vm_hwm_kb();
    gate.check("VmHWM is readable", rss_kb.is_some());
    let events = gate.first.expect("a repetition ran").events_processed as f64;
    let verdict = report::print_summary("verdict_s", "s", &verdict_s);
    let setup = report::print_summary("setup_s", "s", &setup_s);
    let values = Values::from([
        ("verdict_s".to_string(), Some(verdict.median)),
        ("setup_s".to_string(), Some(setup.median)),
        ("ns_per_event".to_string(), Some(verdict.median * 1e9 / events)),
        ("peak_rss_mb".to_string(), rss_kb.map(|kb| kb as f64 / 1024.0)),
    ]);
    report::print_value("ns_per_event", "ns", values["ns_per_event"]);
    report::print_value("peak_rss_mb", "MB", values["peak_rss_mb"]);
    report::print_summary("(wall-clock verdict_s)", "s", &wall_s);
    report::print_summary("(host slowdown)", "ratio", &slowdown);
    values
}

/// The traced pass: untraced and traced repetitions alternate, so that the
/// overhead figure compares neighbours in time. Writes the spans and the
/// values to `benchmark/out/trace-<workload>.json`.
fn measure_layers(
    inputs: &Inputs,
    gate: &mut Gate,
    budget: Duration,
    cold_verdict_s: f64,
    args: &Args,
) -> Values {
    let check = gate.workload.checked();
    let mut tr = Tracer::new();
    let (mut untraced, mut traced, mut slowdown) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    let mut yard = Yardstick::new();
    let quanta = Yardstick::quanta_for(cold_verdict_s);
    while more_fits(traced.len(), MIN_TRACED_REPS, started, budget) {
        slowdown.push(yard.slowdown(quanta));
        let plain = inputs.run_untraced(check);
        gate.repetition(&plain.outcome);
        untraced.push(plain.verdict_s);
        let root = tr.begin_rep();
        let rep = inputs.run_traced(check, &mut tr);
        tr.exit(root);
        gate.repetition(&rep.outcome);
        traced.push(rep);
    }
    let counts_repeat = traced.iter().all(|rep| {
        let pairs = rep.counts.iter().zip(&traced[0].counts);
        pairs.into_iter().all(|(a, b)| a == b || report::WALL_MEANS.contains(&a.0))
    });
    gate.check("the layer counts repeat exactly across traced repetitions", counts_repeat);

    let mut values = ledger(tr.spans(), &traced, &untraced, cold_verdict_s);
    values.insert("harness.host_slowdown".to_string(), Some(stats::median(&slowdown)));
    let catalogue = report::per_layer();
    for (name, unit) in &catalogue {
        report::print_value(name, unit, values[name]);
    }
    let body = format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"smoke\": {},\n  \"per_layer\": {},\n  \
         \"spans\": {}\n}}\n",
        gate.workload.name(),
        args.seed,
        args.smoke,
        report::values_json(&catalogue, &values),
        span::render_json(tr.spans()).replace('\n', "\n  "),
    );
    match report::write_out(&format!("trace-{}.json", gate.workload.name()), &body) {
        Ok(path) => eprintln!("  spans written to {}", path.display()),
        Err(e) => gate.check(&format!("writing the trace file: {e}"), false),
    }
    values
}

/// Turns the traced repetitions into the per-layer metrics: stage times
/// from the spans, counts from the layer boundaries, and the figures that
/// say how far the ledger can be trusted.
fn ledger(
    spans: &[span::Span],
    traced: &[workload::Traced],
    untraced: &[f64],
    cold_verdict_s: f64,
) -> Values {
    let reps: Vec<u32> = (1..=traced.len() as u32).collect();
    let median_of = |per_rep: &dyn Fn(u32) -> Option<f64>| {
        let sample: Option<Vec<f64>> = reps.iter().map(|&r| per_rep(r)).collect();
        sample.map(|s| stats::median(&s))
    };
    // A count no boundary of this workload yields (a scenario's step count
    // on a stream) is an absent series.
    let mut values: Values =
        report::LAYER_COUNTS.iter().map(|(name, _)| (name.to_string(), None)).collect();
    for stage in report::STAGES {
        values.insert(format!("{stage}_s"), median_of(&|r| span::stage_s(spans, r, stage)));
    }
    for (i, &(name, _)) in traced[0].counts.iter().enumerate() {
        let sample: Option<Vec<f64>> = traced.iter().map(|rep| rep.counts[i].1).collect();
        values.insert(name.to_string(), sample.map(|s| stats::median(&s)));
    }

    let own = span::self_times_ns(spans);
    let root_of = |r: u32| spans.iter().position(|s| s.rep == r && s.parent.is_none());
    let untraced_s = Summary::of(untraced);
    let traced_verdict_s =
        stats::median(&traced.iter().map(|rep| rep.verdict_s).collect::<Vec<_>>());
    let get = |name: &str| values[name];
    let (run_s, events) = (get("netsim.run_s"), get("netsim.events"));
    let busy_s = get("core.checker.record_s").zip(get("core.checker.other_s")).map(|(a, b)| a + b);
    let per_event = |s: Option<f64>| s.zip(events).map(|(s, n)| s * 1e9 / n);
    let derived = [
        ("runtime.updates_per_s", get("runtime.fired").map(|f| f / untraced_s.median)),
        ("netsim.run_ns_per_event", per_event(run_s)),
        ("core.checker.busy_s", busy_s),
        ("core.checker.ns_per_event", per_event(busy_s)),
        ("core.checker.busy_share", busy_s.zip(run_s).map(|(b, r)| b / r)),
        (
            "obs.traced_total_s",
            median_of(&|r| root_of(r).map(|i| spans[i].duration_ns() as f64 / 1e9)),
        ),
        ("obs.trace_overhead_share", Some(traced_verdict_s / untraced_s.median - 1.0)),
        (
            "obs.unattributed_share",
            median_of(&|r| root_of(r).map(|i| own[i] as f64 / spans[i].duration_ns() as f64)),
        ),
        ("harness.cold_verdict_s", Some(cold_verdict_s)),
        ("harness.iqr_share", Some(untraced_s.iqr_share())),
    ];
    values.extend(derived.map(|(name, v)| (name.to_string(), v)));
    values
}

/// The untimed self-checks that close a run.
fn self_checks(inputs: &Inputs, gate: &mut Gate, pinned: bool) {
    let first = gate.first.expect("a repetition ran");
    if pinned {
        let pins = pins::counters(gate.workload);
        gate.check(&format!("counters {first:?} equal the pinned {pins:?}"), first == pins);
    }
    if gate.workload.is_campaign() {
        let twin = inputs.run_untraced(!gate.workload.checked()).outcome.counters;
        gate.check(
            &format!("checking changes no counter: {first:?} vs twin {twin:?}"),
            twin == first,
        );
    }
    if let Some(baseline) = inputs.baseline_verdict() {
        gate.check(
            &format!("negative control: the uncoordinated baseline is caught (got `{baseline}`)"),
            baseline != "correct",
        );
    }
}

fn run_one(args: &Args, workload: Workload) -> ExitCode {
    let scale = if args.smoke { workload::SMOKE } else { workload::FULL };
    let budget = Duration::from_secs(args.seconds.unwrap_or(DEFAULT_SECONDS));
    eprintln!(
        "{} seed {} trace {}{}",
        workload.name(),
        args.seed,
        args.trace as u8,
        if args.smoke { " (smoke)" } else { "" }
    );
    let inputs = Inputs::generate(workload, args.seed, &scale);
    let mut gate =
        Gate { workload, updates: inputs.updates(&scale), first: None, attempted: 0, failed: 0 };

    // One discarded repetition: cold page faults and allocator growth
    // would otherwise own the first sample.
    let cold = inputs.run_untraced(workload.checked());
    gate.repetition(&cold.outcome);

    let (catalogue, values) = if args.trace {
        let values = measure_layers(&inputs, &mut gate, budget, cold.verdict_s, args);
        (report::per_layer(), values)
    } else {
        let catalogue = report::END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect();
        (catalogue, measure_end_to_end(&inputs, &mut gate, budget, cold.verdict_s))
    };
    self_checks(&inputs, &mut gate, !args.smoke && args.seed == DEFAULT_SEED);

    eprintln!(
        "  fail_share {} ({} failed / {} attempted)",
        gate.failed as f64 / gate.attempted as f64,
        gate.failed,
        gate.attempted
    );
    println!("{}", report::result_line(gate.attempted, gate.failed, &catalogue, &values));
    ExitCode::SUCCESS
}

/// `run` / `trace`: every workload in a child of its own, one at a time.
/// Fails if a child does, if a result is not `correct`, or if the results
/// and `BENCHMARK.json` disagree on a name.
fn run_all(args: &Args) -> ExitCode {
    let json = match report::benchmark_json() {
        Ok(json) => json,
        Err(e) => {
            eprintln!("benchmark: cannot read BENCHMARK.json: {e}");
            return ExitCode::FAILURE;
        }
    };
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let mut wrong = report::name_mismatches(&json, &names);
    let declared = report::declared(&json, if args.trace { "per_layer" } else { "end_to_end" });
    let seconds = args.seconds.unwrap_or_else(|| {
        if args.smoke {
            1
        } else {
            report::declared_run_seconds(&json).unwrap_or(DEFAULT_SECONDS)
        }
    });
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let mut lines = Vec::new();
    for workload in Workload::ALL {
        let mut child = Command::new(&exe);
        child.args(["--workload", workload.name()]);
        child.args(["--seed", &args.seed.to_string(), "--seconds", &seconds.to_string()]);
        child.args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.smoke {
            child.arg("--smoke");
        }
        // The child's standard error (its metric table) passes through.
        let output = match child.stdin(Stdio::null()).stderr(Stdio::inherit()).output() {
            Ok(output) => output,
            Err(e) => {
                wrong.push(format!("{}: could not start the child: {e}", workload.name()));
                continue;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout.lines().last().unwrap_or_default();
        if !output.status.success() || !line.starts_with("{\"correct\": true,") {
            wrong.push(format!("{}: {} — `{line}`", workload.name(), output.status));
        }
        for (name, unit) in &declared {
            if !line.contains(&format!("\"{name}\": {{\"value\": ")) {
                wrong.push(format!("{}: no `{name}` [{unit}] in the result", workload.name()));
            }
        }
        println!("{line}");
        lines.push(format!("    \"{}\": {line}", workload.name()));
    }
    let body = format!(
        "{{\n  \"seed\": {},\n  \"seconds\": {seconds},\n  \"smoke\": {},\n  \"trace\": {},\n  \
         \"results\": {{\n{}\n  }}\n}}\n",
        args.seed,
        args.smoke,
        args.trace,
        lines.join(",\n")
    );
    let file = if args.trace { "results-trace.json" } else { "results.json" };
    match report::write_out(file, &body) {
        Ok(path) => eprintln!("results written to {}", path.display()),
        Err(e) => wrong.push(format!("writing {file}: {e}")),
    }
    for w in &wrong {
        eprintln!("benchmark: {w}");
    }
    if wrong.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    scrub_environment();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv) {
        Ok(args) => match args.mode {
            Mode::One(workload) => run_one(&args, workload),
            Mode::All => run_all(&args),
        },
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
