//! Verified-at-scale harness: a fat-tree(16) run of 10M+ events that is
//! *checked*, not just simulated — streaming injection
//! ([`edn_topo::attach_stream`]), aggregate-only accounting
//! (`StatsMode::Counters`, and no trace: only an attached trace recorder
//! records one), and the online Definition 6 checker
//! ([`nes_runtime::attach_online_checker`]) running inside the event loop,
//! retiring trace prefixes as their happens-before obligations discharge.
//!
//! Run with: `cargo run --release -p edn-bench --bin fig18_verified_scale`
//!
//! The harness runs the same scenario at two event counts (1× and 2×) in
//! one process and reports the process high-water RSS (`VmHWM` from
//! `/proc/self/status`) after each: because every stage is streaming, the
//! second, twice-as-long run should barely move the high-water mark — peak
//! memory tracks packets *in flight*, not events *processed*. The
//! `verdict` column is the online checker's verdict (`correct` is the
//! expected outcome: Theorem 1), and the trailing columns name each
//! [`netsim::DropReason`]'s count. `arena_slots` is the packet arena's slot
//! high-water mark: a slot lives while an event carries its packet, so that
//! is the most packets ever in flight at once, and it too should barely
//! move at 2×.
//!
//! The harness always runs with telemetry at least at `counters` (the
//! `EDN_METRICS=full` selection is honored) and writes a per-point JSON
//! metrics snapshot — p50/p99 sim-time event latency, queue/arena/
//! obligation high-water, per-reason drops — to `VSCALE_JSON`, and the
//! last point's registry to `EDN_METRICS_OUT`. At `full`, a violation or a
//! panic also dumps the flight recorder (~1024 events) to `EDN_FLIGHT_OUT`.
//!
//! Environment overrides (CI smoke uses small values; an empty value means
//! unset, and a malformed one exits 1 with a one-line
//! `fig18: NAME must be …, got "x"` before any point runs):
//! * `VSCALE_FATTREE_K` — fat-tree arity (default `16`: 320 switches,
//!   1024 hosts);
//! * `VSCALE_PACKETS_PER_FLOW` — base datagrams per flow at the 1× point
//!   (default `150`; the 2× point doubles it — with the default Pareto
//!   model inflating flow sizes ~4.3× on average, the two points together
//!   process well over 10M events on the default topology);
//! * `VSCALE_MODEL` — arrival model: `uniform` (the base workload),
//!   `pareto`, `onoff`, or `diurnal` (default `pareto`: heavy-tailed flow
//!   sizes are the interesting case at scale);
//! * `VSCALE_SEED` — workload seed (default `7`);
//! * `VSCALE_JSON` — where to write the metrics snapshot (default
//!   `BENCH_vscale_metrics.json`; empty string disables);
//! * `EDN_METRICS` / `EDN_METRICS_OUT` / `EDN_FLIGHT_OUT` — telemetry
//!   level, registry export, and flight-dump path, parsed once by
//!   [`edn_scenario::RunEnv::from_process`] (see `ARCHITECTURE.md`).

use edn_bench::{env_u64, exit_with};
use edn_obs::{FlightRecorder, MetricsLevel, Registry, Stopwatch};
use edn_scenario::RunEnv;
use edn_topo::{
    attach_stream, fat_tree, synthesize_arrivals, ArrivalModel, TierProfile, TrafficPattern,
    Workload,
};
use netsim::traffic::udp_packet;
use netsim::{DropReason, SimParams, SimTime, SinkHosts, StatsMode};
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

/// The `VSCALE_MODEL` arrival model read through `lookup` (empty means
/// unset, which is `pareto`); `None` is the uniform base workload.
///
/// # Errors
///
/// The message to show the user, naming the variable and its value.
fn parse_model(lookup: impl Fn(&str) -> Option<String>) -> Result<Option<ArrivalModel>, String> {
    let model = match lookup("VSCALE_MODEL").filter(|v| !v.is_empty()).as_deref() {
        Some("uniform") => None,
        Some("onoff") => {
            Some(ArrivalModel::OnOff { burst_packets: 8, off: SimTime::from_millis(5) })
        }
        Some("diurnal") => Some(ArrivalModel::Diurnal { periods: 2, trough_pct: 10 }),
        Some("pareto") | None => Some(ArrivalModel::Pareto { alpha: 1.3, max_packets: 64 * 1024 }),
        Some(v) => Err(format!("VSCALE_MODEL must be uniform|pareto|onoff|diurnal, got {v:?}"))?,
    };
    Ok(model)
}

/// The flight recorder and the path it dumps to: on a violation, and when
/// the harness unwinds (a failed assert anywhere in the run) — the crash
/// dump that motivates the recorder.
struct FlightGuard<'a>(Option<FlightRecorder>, &'a str);

impl FlightGuard<'_> {
    fn dump(&self, why: &str) {
        if let Some(fr) = &self.0 {
            let path = self.1;
            match fr.dump_to(path) {
                Ok(()) => eprintln!("vscale: {why}flight recorder dumped to {path}"),
                Err(e) => eprintln!("vscale: flight dump to {path} failed: {e}"),
            }
        }
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.dump("");
        }
    }
}

/// One verified streaming run; returns `(events, datagrams, wall_us,
/// arena_slots, verdict_ok, per-reason drops, metric registry)`.
#[allow(clippy::type_complexity)]
fn run_point(
    k: u64,
    packets_per_flow: u64,
    seed: u64,
    model: Option<&ArrivalModel>,
    env: &RunEnv,
) -> (u64, u64, u64, u64, bool, [u64; 4], Registry) {
    let gen = fat_tree(k, TierProfile::default());
    let workload = Workload {
        pattern: TrafficPattern::Permutation,
        seed,
        packets_per_flow,
        flows: gen.host_count(),
        interval: SimTime::from_micros(100),
        ..Workload::default()
    };
    let flows = match model {
        None => edn_topo::synthesize(&gen, &workload),
        Some(m) => synthesize_arrivals(&gen, &workload, m),
    };
    let horizon =
        flows.iter().map(|f| f.end).max().unwrap_or(SimTime::ZERO) + SimTime::from_secs(10);
    let (inside, outside) = (gen.hosts()[0], *gen.hosts().last().expect("hosts"));
    let nes = edn_apps::generated::firewall_nes(&gen, inside, outside);
    // This harness always measures with telemetry on: the snapshot is its
    // deliverable. `EDN_METRICS=full` upgrades to phase profiling and the
    // flight recorder; `off` is promoted to `counters`.
    let level = match env.metrics {
        MetricsLevel::Off => MetricsLevel::Counters,
        lv => lv,
    };
    let mut engine = nes_runtime::nes_engine(
        nes.clone(),
        gen.sim().clone(),
        SimParams::default(),
        false,
        Box::new(SinkHosts),
    )
    .with_stats_mode(StatsMode::Counters)
    .with_metrics(level);
    let guard = FlightGuard(engine.flight_recorder(), &env.flight_out);
    let handle = nes_runtime::attach_online_checker(&mut engine, &nes)
        .expect("the firewall NES fits the checker window");
    let datagrams = attach_stream(&mut engine, &flows);
    engine.inject_at(SimTime::from_millis(5), inside, udp_packet(inside, outside, u64::MAX, 0));
    let sw = Stopwatch::start();
    engine.run(horizon);
    let wall = sw.elapsed_us();
    let arena_slots = engine.arena_slots() as u64;
    let result = engine.finish();
    assert!(result.stats.deliveries.is_empty(), "Counters must not retain deliveries");
    let ok = handle.verdict().is_ok();
    if !ok {
        guard.dump("violation — ");
    }
    (
        result.stats.events_processed,
        datagrams + 1,
        wall,
        arena_slots,
        ok,
        result.stats.dropped,
        result.metrics,
    )
}

fn main() {
    let env = RunEnv::from_process().unwrap_or_else(|e| exit_with("fig18", &e));
    let k = env_u64("fig18", "VSCALE_FATTREE_K", 16);
    let packets = env_u64("fig18", "VSCALE_PACKETS_PER_FLOW", 150);
    let seed = env_u64("fig18", "VSCALE_SEED", 7);
    let model = parse_model(|n| std::env::var(n).ok()).unwrap_or_else(|e| exit_with("fig18", &e));
    let json_path =
        std::env::var("VSCALE_JSON").unwrap_or_else(|_| "BENCH_vscale_metrics.json".to_string());
    let drop_cols = DropReason::ALL.map(|r| format!("drops_{}", r.name())).join(",");
    println!(
        "point,packets_per_flow,datagrams,events,wall_us,arena_slots,vm_hwm_kb,verdict,{drop_cols}"
    );
    let mut total_events = 0;
    let mut snapshots = String::new();
    let mut last = Registry::new();
    for (point, p) in [("1x", packets), ("2x", 2 * packets)] {
        let (events, datagrams, wall_us, slots, ok, drops, metrics) =
            run_point(k, p, seed, model.as_ref(), &env);
        total_events += events;
        let verdict = if ok { "correct" } else { "violation" };
        let named = drops.map(|d| d.to_string()).join(",");
        println!(
            "{point},{p},{datagrams},{events},{wall_us},{slots},{},{verdict},{named}",
            vm_hwm_kb()
        );
        if !snapshots.is_empty() {
            snapshots.push_str(",\n");
        }
        let _ = write!(snapshots, "  \"{point}\": {}", metrics.render_json().trim_end());
        last = metrics;
        assert!(ok, "the NES runtime must verify (Theorem 1)");
    }
    if let Err(e) = env.write_metrics(&last) {
        eprintln!("vscale: {e}");
        std::process::exit(1);
    }
    if !json_path.is_empty() {
        let body = format!("{{\n{snapshots}\n}}\n");
        if let Err(e) = std::fs::write(&json_path, body) {
            eprintln!("vscale: could not write {json_path}: {e}");
            std::process::exit(1);
        }
        eprintln!("vscale: metrics snapshot written to {json_path}");
    }
    eprintln!("total events processed: {total_events}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(value: &str) -> Result<Option<ArrivalModel>, String> {
        parse_model(|name| (name == "VSCALE_MODEL").then(|| value.to_string()))
    }

    #[test]
    fn the_arrival_model_defaults_when_unset_or_empty_and_names_a_bad_value() {
        let pareto = Some(ArrivalModel::Pareto { alpha: 1.3, max_packets: 64 * 1024 });
        assert_eq!(parse_model(|_| None), Ok(pareto));
        assert_eq!(model(""), Ok(pareto));
        assert_eq!(model("pareto"), Ok(pareto));
        assert_eq!(model("uniform"), Ok(None));
        assert!(matches!(model("onoff"), Ok(Some(ArrivalModel::OnOff { .. }))));
        assert_eq!(
            model("paretto"),
            Err(r#"VSCALE_MODEL must be uniform|pareto|onoff|diurnal, got "paretto""#.into())
        );
    }
}
