//! Campaign throughput harness: how fast can the coordinated runtime
//! retire *successive* event-driven updates under live heavy-tailed
//! traffic — and does every one of them verify?
//!
//! Run with: `cargo run --release -p edn-bench --bin fig_campaign`
//!
//! The harness compiles a declarative scenario (see `crates/scenario`): a
//! fat-tree(8) running a 20-update victim-unblock campaign with causal
//! probes, under streamed permutation traffic with Pareto flow sizes. Three
//! legs run in one process:
//!
//! * **throughput** — unchecked: the raw updates/sec the runtime sustains
//!   (trigger injection to final firing);
//! * **verified** — the online Definition 6 checker attached: the same
//!   campaign, now with a verdict;
//! * **lossy** — the verified leg over a seeded lossy control channel,
//!   behind the ack/retry reliability layer.
//!
//! Every leg is timed the same way: building the deployment is `compile_us`,
//! the run is `wall_us`, and the *sustained* rate charges a leg both
//! (`fired / (compile + run)`). The two ideal-channel legs must report
//! byte-identical `Stats` — checking may cost wall time but never change a
//! result. The CSV goes to stdout; a JSON summary (all legs' rates plus the
//! verdict) goes to `CAMPAIGN_JSON`.
//!
//! Environment overrides (CI smoke uses small values):
//! * `CAMPAIGN_FATTREE_K` — fat-tree arity (default `8`: 80 switches, 128
//!   hosts);
//! * `CAMPAIGN_UPDATES` — campaign length (default `20`, max `63`: the
//!   online checker's window);
//! * `CAMPAIGN_SEED` — scenario seed (default `2016`);
//! * `CAMPAIGN_JSON` — where to write the summary (default
//!   `BENCH_campaign.json`; empty string disables).

use edn_bench::env_u64;
use edn_obs::Stopwatch;
use edn_scenario::{CompiledScenario, ModelSpec, ScenarioSpec, TopologySpec, WorkloadSpec};
use edn_topo::TrafficPattern;
use nes_runtime::DeployKnobs;
use netsim::{ChannelModel, DataPlane, DropReason, Engine, MetricsLevel, SimTime, Stats};
use std::fmt::Write as _;

/// `VmHWM` (peak resident set) of this process, in kilobytes.
fn vm_hwm_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches(" kB").trim().parse().ok())
        .unwrap_or(0)
}

/// The 20-update fat-tree campaign, as scenario data.
fn campaign_spec(k: u64, updates: u64, seed: u64) -> ScenarioSpec {
    let spacing = SimTime::from_millis(100);
    let start = SimTime::from_millis(100);
    ScenarioSpec {
        name: format!("campaign-fattree{k}"),
        seed,
        topology: TopologySpec::FatTree(k),
        horizon: SimTime::ZERO, // auto: past the last flow, step, and probe
        workload: WorkloadSpec {
            pattern: TrafficPattern::Permutation,
            packets_per_flow: 3,
            spread: start + SimTime::from_micros(spacing.as_micros() * (updates + 2)),
            model: ModelSpec::Pareto,
            ..WorkloadSpec::default()
        },
        campaign: edn_scenario::CampaignSpec {
            updates: updates as usize,
            start,
            spacing,
            probe: true,
            ..edn_scenario::CampaignSpec::default()
        },
        channel: edn_scenario::ChannelSpec::default(),
        actions: Vec::new(),
    }
}

/// One leg's measurements.
struct Leg {
    stats: Stats,
    datagrams: u64,
    /// Deployment (table construction) time, µs.
    compile_us: u64,
    /// Run time, µs.
    wall_us: u64,
    verdict: &'static str,
}

/// One leg: `build` (the deployment: NES compile, table compile, index
/// build, engine) under the compile stopwatch, the run under the wall one —
/// the same split on every leg, so their columns compare. Attaching the
/// checker and loading the injections sit between the two, on neither.
/// Returns the finished plane for the leg's own assertions.
fn leg<D: DataPlane>(
    c: &CompiledScenario,
    check: bool,
    build: impl FnOnce() -> Engine<D>,
) -> (Leg, D) {
    let sw = Stopwatch::start();
    let mut engine = build();
    let compile_us = sw.elapsed_us();
    let handle = check.then(|| {
        nes_runtime::attach_online_checker(&mut engine, &c.nes)
            .expect("a ≤63-step campaign fits the online checker's windows")
    });
    c.apply_actions(&mut engine);
    let datagrams = c.load_traffic(&mut engine, true);
    c.inject_campaign(&mut engine);
    let sw = Stopwatch::start();
    let result = engine.run_until(c.horizon);
    let wall_us = sw.elapsed_us();
    let verdict = match handle.map(|h| h.verdict()) {
        None => "unchecked",
        Some(Ok(())) => "correct",
        Some(Err(v)) => v.name(),
    };
    (Leg { stats: result.stats, datagrams, compile_us, wall_us, verdict }, result.dataplane)
}

fn updates_per_sec(fired: usize, us: u64) -> f64 {
    fired as f64 * 1_000_000.0 / us.max(1) as f64
}

fn main() {
    let k = env_u64("CAMPAIGN_FATTREE_K", 8);
    let updates = env_u64("CAMPAIGN_UPDATES", 20);
    let seed = env_u64("CAMPAIGN_SEED", 2016);
    let json_path =
        std::env::var("CAMPAIGN_JSON").unwrap_or_else(|_| "BENCH_campaign.json".to_string());

    let spec = campaign_spec(k, updates, seed);
    let c = CompiledScenario::compile(&spec).expect("the campaign spec compiles");
    let knobs = DeployKnobs::from_env();
    // Warm-up: one untimed engine build absorbs allocator growth and cold
    // caches, so the timed legs compare deployments, not page faults.
    drop(c.engine_with(knobs));
    let drop_cols = DropReason::ALL.map(|r| format!("drops_{}", r.name())).join(",");
    println!(
        "leg,plane,updates,fired,datagrams,events,compile_us,wall_us,updates_per_sec,\
         sustained_updates_per_sec,vm_hwm_kb,verdict,{drop_cols}"
    );

    let mut json = String::new();
    let mut report = |name: &str, plane: &str, l: &Leg, fired: usize| {
        let rate = updates_per_sec(fired, l.wall_us);
        let sustained = updates_per_sec(fired, l.compile_us + l.wall_us);
        let named = l.stats.dropped.map(|d| d.to_string()).join(",");
        println!(
            "{name},{plane},{updates},{fired},{},{},{},{},{rate:.2},{sustained:.2},{},{},{named}",
            l.datagrams,
            l.stats.events_processed,
            l.compile_us,
            l.wall_us,
            vm_hwm_kb(),
            l.verdict,
        );
        if !json.is_empty() {
            json.push_str(",\n");
        }
        let _ = write!(
            json,
            "  \"{name}_{plane}\": {{ \"fired\": {fired}, \"events\": {}, \"compile_us\": {}, \
             \"wall_us\": {}, \"updates_per_sec\": {rate:.2}, \
             \"sustained_updates_per_sec\": {sustained:.2}, \"verdict\": \"{}\" }}",
            l.stats.events_processed, l.compile_us, l.wall_us, l.verdict,
        );
    };

    let mut baseline: Option<Stats> = None;
    for (name, check) in [("throughput", false), ("verified", true)] {
        let (l, plane) = leg(&c, check, || c.engine_with(knobs));
        let fired = plane.fired_sequence().len();
        assert_eq!(fired, c.steps.len(), "every campaign step fires");
        if check {
            assert_eq!(l.verdict, "correct", "the NES runtime must verify (Theorem 1)");
        }
        if let Some(b) = &baseline {
            assert_eq!(&l.stats, b, "checking must not change a byte of the stats");
        }
        report(name, "bare", &l, fired);
        baseline = Some(l.stats);
    }

    // The chaos leg: the same campaign over a seeded lossy control channel,
    // with the ack/retry reliability layer wrapped around the runtime and
    // the online checker attached. Loss reshapes control timing, so this
    // leg is *not* byte-compared against the ideal baseline — the contract
    // here is the verdict: every step fires and Definition 6 still holds.
    let (l, plane) = leg(&c, true, || {
        c.reliable_engine_with(knobs, nes_runtime::retry_budget_from_env())
            .with_channel(ChannelModel::lossy(seed))
            .with_metrics(MetricsLevel::Full)
    });
    let fired = plane.inner().fired_sequence().len();
    assert_eq!(fired, c.steps.len(), "every campaign step fires under loss");
    assert!(!plane.degraded(), "the default retry budget must survive the stock lossy model");
    assert_eq!(l.verdict, "correct", "Theorem 1 must survive the lossy channel");
    report("lossy", "reliable", &l, fired);

    if !json_path.is_empty() {
        let body = format!(
            "{{\n  \"topology\": \"fat_tree({k})\",\n  \"updates\": {updates},\n  \
             \"seed\": {seed},\n  \"model\": \"pareto\",\n{json}\n}}\n"
        );
        if let Err(e) = std::fs::write(&json_path, body) {
            eprintln!("fig_campaign: could not write {json_path}: {e}");
            std::process::exit(1);
        }
        eprintln!("fig_campaign: summary written to {json_path}");
    }
}
