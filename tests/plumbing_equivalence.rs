//! End-to-end packet-plumbing regression: full simulations replayed with
//! and without a trace recorder and at every metrics level must agree —
//! byte-identical `Stats` everywhere, byte-identical traces wherever a
//! trace is recorded —
//! and the reference corner of each pinned scenario must match a committed
//! absolute [`Fingerprint`].
//!
//! Three pinned scenarios from the paper's evaluation (the Section 5.2 ring
//! under the NES runtime and under its static reference plane, and a
//! fat-tree(4) stateful firewall), two pinned *churn* scenarios from
//! the declarative scenario layer (a flapping ring and a fat-tree(4)
//! update campaign with a crash, a latency spike, and a host move) — the
//! churn pair also under the uncoordinated baseline and through `Reliable`
//! over a lossy control channel, and through `run_coordinated` checked and
//! unchecked — plus a 256-case differential proptest
//! over seeded generated topologies and workloads.

use edn_apps::generated::firewall_nes;
use edn_apps::ring::{host, Ring};
use edn_core::{check_correct, NetworkTrace, OnlineViolation, TraceBuilder, TraceHandle};
use edn_obs::Scope;
use edn_scenario::{run_coordinated, stats_csv_row, CompiledScenario, RunOptions};
use edn_topo::{fat_tree, ring, synthesize, LinkProfile, TierProfile, TrafficPattern, Workload};
use nes_runtime::{attach_online_checker, nes_engine, NesDataPlane, StaticDataPlane};
use netsim::traffic::udp_packet;
use netsim::{
    ChannelModel, DataPlane, Engine, MetricsLevel, RunResult, SimParams, SimTime, SinkHosts, Stats,
};
use proptest::prelude::*;

/// One engine-knob combination under test.
#[derive(Clone, Copy, Debug)]
struct Knobs {
    /// A trace recorder in the observer slot, attached before any checker.
    traced: bool,
    metrics: MetricsLevel,
}

/// The reference corner: the trace recorded, no telemetry — what
/// everything else is diffed against.
const REFERENCE: Knobs = Knobs { traced: true, metrics: MetricsLevel::Off };

fn trace_observers() -> impl Iterator<Item = Knobs> {
    [true, false].into_iter().map(|traced| Knobs { traced, ..REFERENCE })
}

/// Attaches a trace recorder; the handle yields the trace after the run.
fn attach_trace<D: DataPlane>(engine: &mut Engine<D>) -> TraceHandle {
    let (observer, trace) = TraceBuilder::observer();
    engine.set_observer(observer);
    trace
}

/// The trace a run recorded; empty when no recorder was attached.
fn recorded(trace: Option<TraceHandle>) -> NetworkTrace {
    trace.map_or_else(NetworkTrace::default, TraceHandle::take)
}

fn configure<D: DataPlane>(engine: Engine<D>, knobs: Knobs) -> (Engine<D>, Option<TraceHandle>) {
    let mut engine = engine.with_metrics(knobs.metrics);
    let trace = knobs.traced.then(|| attach_trace(&mut engine));
    (engine, trace)
}

/// An absolute anchor for one run, computed from field values (never
/// `Debug` text): the `Stats` counters, a fold over every delivery's
/// `(time, host, size)`, the trace's length and causal-edge count, and a
/// fold over every `(location, packet)` record.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    injected: u64,
    events: u64,
    delivered_packets: u64,
    delivered_bytes: u64,
    dropped: [u64; 4],
    deliveries: u64,
    trace_len: usize,
    causal_edges: usize,
    records: u64,
}

fn fingerprint(trace: &NetworkTrace, stats: &Stats) -> Fingerprint {
    // FNV-1a over u64 words.
    const SEED: u64 = 0xcbf2_9ce4_8422_2325;
    let fold = |h: u64, v: u64| (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    let deliveries = stats
        .deliveries
        .iter()
        .fold(SEED, |h, d| fold(fold(fold(h, d.time.as_micros()), d.host), d.size as u64));
    let records = trace.packets().iter().fold(SEED, |h, lp| {
        let h = fold(fold(h, lp.loc.sw), lp.loc.pt);
        netkat::Field::ALL
            .iter()
            .fold(h, |h, &f| fold(h, lp.packet.get(f).map_or(0, |v| v.wrapping_add(1))))
    });
    Fingerprint {
        injected: stats.injected,
        events: stats.events_processed,
        delivered_packets: stats.delivered_packets,
        delivered_bytes: stats.delivered_bytes,
        dropped: stats.dropped,
        deliveries,
        trace_len: trace.len(),
        causal_edges: trace.extra_edges().len(),
        records,
    }
}

// The four pinned scenarios' reference-corner fingerprints, as the retired
// all-reference engine corner (binary-heap queue + owned packets + full
// trace + one shard) produced them: the bytes that corner defined outlive
// it here, and tier-1 has an absolute anchor rather than only legs that
// agree with each other.
const RING_PIN: Fingerprint = Fingerprint {
    injected: 17,
    events: 120,
    delivered_packets: 17,
    delivered_bytes: 25_500,
    dropped: [0, 0, 0, 0],
    deliveries: 0xfe7b_9cea_4542_6ec5,
    trace_len: 204,
    causal_edges: 0,
    records: 0x2b11_d21d_bf58_c4b1,
};
// The ring's static shortest-path plane, pinned on the linear scan of the
// configuration's own tables (`FlowTable::lookup_on`) before that scan
// stopped being a path a plane could run (`RING_PIN` and
// `FAT_TREE_FIREWALL_PIN` were re-checked on it the same way).
const STATIC_RING_PIN: Fingerprint = Fingerprint {
    injected: 8,
    events: 56,
    delivered_packets: 8,
    delivered_bytes: 12_000,
    dropped: [0, 0, 0, 0],
    deliveries: 0x3fa5_4007_ecae_c73d,
    trace_len: 96,
    causal_edges: 0,
    records: 0x6326_31b8_d551_1615,
};
const FAT_TREE_FIREWALL_PIN: Fingerprint = Fingerprint {
    injected: 65,
    events: 424,
    delivered_packets: 65,
    delivered_bytes: 34_268,
    dropped: [0, 0, 0, 0],
    deliveries: 0x4c83_b724_64d5_31fd,
    trace_len: 716,
    causal_edges: 0,
    records: 0x2e7b_3623_efdf_c19f,
};
const FLAPPING_RING_PIN: Fingerprint = Fingerprint {
    injected: 28,
    events: 117,
    delivered_packets: 23,
    delivered_bytes: 15_728,
    dropped: [3, 0, 0, 2],
    deliveries: 0x4bf5_7ca2_5d5c_8277,
    trace_len: 176,
    causal_edges: 0,
    records: 0xda42_39ee_b282_0e62,
};
const FAT_TREE_CAMPAIGN_PIN: Fingerprint = Fingerprint {
    injected: 56,
    events: 327,
    delivered_packets: 47,
    delivered_bytes: 31_968,
    dropped: [9, 0, 0, 0],
    deliveries: 0xf963_e503_566e_61b3,
    trace_len: 534,
    causal_edges: 0,
    records: 0x19b8_e2bc_466c_fdbf,
};

// Corners only the retired shard matrices ran end to end, pinned on the
// last commit that had them (where 1, 2 and 4 shards all produced these
// bytes): the uncoordinated baseline and `Reliable` over a lossy control
// channel on both churn scenarios, and the `sim`-scope metrics section of
// the fat-tree firewall run.
const UNCOORD_FLAPPING_RING_PIN: Fingerprint = Fingerprint {
    injected: 28,
    events: 122,
    delivered_packets: 21,
    delivered_bytes: 12_728,
    dropped: [5, 0, 0, 2],
    deliveries: 0xbf35_0d7e_f992_1bbd,
    trace_len: 162,
    causal_edges: 0,
    records: 0x9e86_e0c3_77a4_4dd8,
};
const UNCOORD_FAT_TREE_CAMPAIGN_PIN: Fingerprint = Fingerprint {
    injected: 56,
    events: 394,
    delivered_packets: 44,
    delivered_bytes: 27_468,
    dropped: [12, 0, 0, 0],
    deliveries: 0x10fb_92f3_4a74_e042,
    trace_len: 508,
    causal_edges: 33,
    records: 0xd179_7874_c8ef_09aa,
};
// `Reliable` hands the inner plane the ideal message sequence, only later:
// the lossy runs differ from the ideal ones in event count alone.
const RELIABLE_LOSSY_RING_PIN: Fingerprint = Fingerprint { events: 121, ..FLAPPING_RING_PIN };
const RELIABLE_LOSSY_CAMPAIGN_PIN: Fingerprint =
    Fingerprint { events: 340, ..FAT_TREE_CAMPAIGN_PIN };
const SIM_METRICS_PIN: &str = r#"{
  "channel.dropped": 0,
  "channel.duplicated": 0,
  "channel.reordered": 0,
  "drops.dead_end": 0,
  "drops.link_down": 0,
  "drops.no_rule": 0,
  "drops.queue_full": 0,
  "engine.delivered_bytes": 34268,
  "engine.delivered_packets": 65,
  "engine.dispatch.arrive": 358,
  "engine.dispatch.deliver": 0,
  "engine.dispatch.inject": 65,
  "engine.dispatch.notify": 1,
  "engine.dispatch.timer": 0,
  "engine.event_latency_us": {"count": 359, "sum": 12265, "p50": 31, "p99": 63},
  "engine.events_processed": 424,
  "engine.injected": 65,
  "engine.link_busy": 0
}
"#;

/// Asserts that a scenario's reference corner matches its committed `pin`
/// and that it produces identical observable results with and without a
/// trace recorder: `Stats` agree field for field everywhere, and recorded
/// traces are byte-identical. A checked scenario's run asserts its
/// verdict in both.
fn assert_plumbing_invariant(
    scenario: &str,
    pin: &Fingerprint,
    run: impl Fn(Knobs) -> (NetworkTrace, Stats),
) {
    let (reference_trace, reference_stats) = run(REFERENCE);
    assert!(!reference_trace.is_empty(), "{scenario}: the reference corner records a trace");
    assert_eq!(&fingerprint(&reference_trace, &reference_stats), pin, "{scenario}: pin moved");
    for knobs in trace_observers() {
        let (trace, stats) = run(knobs);
        assert_eq!(stats, reference_stats, "{scenario}: stats diverged on {knobs:?}");
        if knobs.traced {
            assert_eq!(trace, reference_trace, "{scenario}: traces diverged on {knobs:?}");
        }
    }
}

/// The Section 5.2 ring: every host sends to the diametrically opposite
/// host in two waves, with the reroute trigger firing between them.
fn ring_run(knobs: Knobs) -> (NetworkTrace, Stats) {
    let ring = Ring::new(4);
    let n = ring.switch_count();
    let topo = ring.sim_topology(SimTime::from_micros(50), None);
    let nes = ring.nes();
    let engine = nes_engine(nes.clone(), topo, SimParams::default(), false, Box::new(SinkHosts));
    let (mut engine, trace) = configure(engine, knobs);
    let checker = attach_online_checker(&mut engine, &nes).expect("the ring fits the checker");
    for i in 1..=n {
        let opposite = (i + ring.diameter - 1) % n + 1;
        for wave in 0..2u64 {
            engine.inject_at(
                SimTime::from_millis(1 + 20 * wave + i),
                host(i),
                udp_packet(host(i), host(opposite), i, wave),
            );
        }
    }
    engine.inject_at(SimTime::from_millis(10), ring.h1(), ring.trigger_packet());
    let result = engine.run_until(SimTime::from_secs(5));
    checker.verdict().expect("ring run is event-driven consistent");
    (recorded(trace), result.stats)
}

/// The same ring under its static shortest-path configuration (the
/// Fig. 16(a) reference plane: no tags, no events), one wave.
fn static_ring_run(knobs: Knobs) -> (NetworkTrace, Stats) {
    let ring = Ring::new(4);
    let n = ring.switch_count();
    let topo = ring.sim_topology(SimTime::from_micros(50), None);
    let dataplane = StaticDataPlane::new(ring.config(true));
    let engine = Engine::new(topo, SimParams::default(), dataplane, Box::new(SinkHosts));
    let (mut engine, trace) = configure(engine, knobs);
    for i in 1..=n {
        let opposite = (i + ring.diameter - 1) % n + 1;
        engine.inject_at(
            SimTime::from_millis(i),
            host(i),
            udp_packet(host(i), host(opposite), i, 0),
        );
    }
    let result = engine.run_until(SimTime::from_secs(5));
    (recorded(trace), result.stats)
}

/// Fat-tree(4) firewall under the fig18 permutation workload, with the
/// firewall-opening trigger mid-run: the run and the trace it recorded.
fn fat_tree_firewall_result(knobs: Knobs) -> (RunResult<NesDataPlane>, NetworkTrace) {
    let gen = fat_tree(4, TierProfile::default());
    let workload = Workload {
        pattern: TrafficPattern::Permutation,
        seed: 7,
        packets_per_flow: 4,
        ..Workload::default()
    };
    let flows = synthesize(&gen, &workload);
    let horizon =
        flows.iter().map(|f| f.end).max().unwrap_or(SimTime::ZERO) + SimTime::from_secs(10);
    let (inside, outside) = (gen.hosts()[0], *gen.hosts().last().expect("hosts"));
    let nes = firewall_nes(&gen, inside, outside);
    let engine =
        nes_engine(nes, gen.sim().clone(), SimParams::default(), false, Box::new(SinkHosts));
    let (mut engine, trace) = configure(engine, knobs);
    edn_topo::schedule(&mut engine, &flows);
    engine.inject_at(SimTime::from_millis(5), inside, udp_packet(inside, outside, u64::MAX, 0));
    (engine.run_until(horizon), recorded(trace))
}

fn fat_tree_firewall_run(knobs: Knobs) -> (NetworkTrace, Stats) {
    let (result, trace) = fat_tree_firewall_result(knobs);
    (trace, result.stats)
}

/// A ring(6) whose inter-switch links flap mid-campaign: two fail/restore
/// pairs around a two-update rollout under uniform traffic — the engine's
/// failure timelines with and without a trace recorder.
fn flapping_ring_scenario() -> CompiledScenario {
    let spec = edn_scenario::parse(
        "[scenario]\n\
         name = \"flapping-ring\"\n\
         seed = 13\n\
         topology = \"ring\"\n\
         size = 6\n\
         [workload]\n\
         flows = 8\n\
         packets_per_flow = 3\n\
         spread_ms = 300\n\
         [campaign]\n\
         updates = 2\n\
         [[action]]\n\
         kind = \"fail_link\"\n\
         at_ms = 120\n\
         a = 2\n\
         b = 3\n\
         [[action]]\n\
         kind = \"restore_link\"\n\
         at_ms = 170\n\
         a = 2\n\
         b = 3\n\
         [[action]]\n\
         kind = \"fail_link\"\n\
         at_ms = 210\n\
         a = 5\n\
         b = 6\n\
         [[action]]\n\
         kind = \"restore_link\"\n\
         at_ms = 260\n\
         a = 5\n\
         b = 6\n",
    )
    .expect("pinned spec parses");
    CompiledScenario::compile(&spec).expect("pinned spec compiles")
}

/// A fat-tree(4) update campaign with the full churn menu: three updates
/// plus a host move, an edge-agg link flap, a core-switch crash/recover,
/// and a controller latency spike, under permutation traffic.
fn fat_tree_campaign_scenario() -> CompiledScenario {
    let spec = edn_scenario::parse(
        "[scenario]\n\
         name = \"fat-tree-campaign\"\n\
         seed = 2016\n\
         topology = \"fat_tree\"\n\
         size = 4\n\
         [workload]\n\
         pattern = \"permutation\"\n\
         packets_per_flow = 3\n\
         spread_ms = 400\n\
         [campaign]\n\
         updates = 3\n\
         [[action]]\n\
         kind = \"fail_link\"\n\
         at_ms = 150\n\
         a = 11\n\
         b = 9\n\
         [[action]]\n\
         kind = \"restore_link\"\n\
         at_ms = 220\n\
         a = 11\n\
         b = 9\n\
         [[action]]\n\
         kind = \"crash_switch\"\n\
         at_ms = 180\n\
         switch = 2\n\
         [[action]]\n\
         kind = \"recover_switch\"\n\
         at_ms = 240\n\
         switch = 2\n\
         [[action]]\n\
         kind = \"latency_spike\"\n\
         at_ms = 200\n\
         latency_ms = 15\n\
         until_ms = 280\n\
         [[action]]\n\
         kind = \"move_host\"\n\
         at_ms = 350\n\
         host = 5\n\
         to_switch = 19\n",
    )
    .expect("pinned spec parses");
    CompiledScenario::compile(&spec).expect("pinned spec compiles")
}

/// Scripts a compiled scenario's actions, batch traffic and campaign onto
/// `engine` and runs it to the scenario's horizon.
fn drive<D: DataPlane>(c: &CompiledScenario, mut engine: Engine<D>) -> RunResult<D> {
    c.apply_actions(&mut engine);
    c.load_traffic(&mut engine, false);
    c.inject_campaign(&mut engine);
    engine.run_until(c.horizon)
}

/// Replays a compiled churn scenario on explicit engine knobs.
fn churn_run(c: &CompiledScenario, knobs: Knobs) -> (NetworkTrace, Stats) {
    let (mut engine, trace) = configure(c.engine(), knobs);
    let checker =
        attach_online_checker(&mut engine, &c.nes).expect("the campaign fits the checker");
    let result = drive(c, engine);
    assert_eq!(result.dataplane.fired_sequence().len(), c.steps.len(), "every campaign step fires");
    checker.verdict().expect("churn runs stay event-driven consistent");
    (recorded(trace), result.stats)
}

#[test]
fn ring_replays_identically_across_all_engine_knobs() {
    assert_plumbing_invariant("ring", &RING_PIN, ring_run);
}

#[test]
fn static_ring_replays_identically_across_all_engine_knobs() {
    assert_plumbing_invariant("static ring", &STATIC_RING_PIN, static_ring_run);
}

#[test]
fn fat_tree_firewall_replays_identically_across_all_engine_knobs() {
    assert_plumbing_invariant("fat-tree firewall", &FAT_TREE_FIREWALL_PIN, fat_tree_firewall_run);
}

#[test]
fn churn_scenarios_replay_identically_across_all_engine_knobs() {
    let ring = flapping_ring_scenario();
    assert_plumbing_invariant("flapping ring", &FLAPPING_RING_PIN, |k| churn_run(&ring, k));
    let campaign = fat_tree_campaign_scenario();
    assert_plumbing_invariant("fat-tree campaign", &FAT_TREE_CAMPAIGN_PIN, |k| {
        churn_run(&campaign, k)
    });
}

/// Which observers a run of [`assert_trace_stacks_on_checker`] attaches,
/// in attachment order.
#[derive(Clone, Copy, Debug)]
enum Slot {
    Trace,
    Checker,
    TraceThenChecker,
    CheckerThenTrace,
}

/// One scenario four ways: a trace recorder alone, the checker alone, and
/// both paired in the observer slot, in either order. The engine reports
/// each step once, to its one slot, and a pair feeds both halves the same
/// stream, so each paired run's trace, `Stats`, verdict and checker
/// telemetry must equal the single runs', and the post-hoc spec must judge
/// the recorded trace as the checker judged the stream. Returns the
/// verdict.
fn assert_trace_stacks_on_checker<D: DataPlane>(
    name: &str,
    c: &CompiledScenario,
    engine: impl Fn() -> Engine<D>,
) -> Result<(), OnlineViolation> {
    let run = |slot: Slot| {
        let mut engine = engine();
        let attach_checker = |engine: &mut Engine<D>| {
            attach_online_checker(engine, &c.nes).expect("the campaign fits the checker")
        };
        let (trace, checker) = match slot {
            Slot::Trace => (Some(attach_trace(&mut engine)), None),
            Slot::Checker => (None, Some(attach_checker(&mut engine))),
            Slot::TraceThenChecker => {
                let trace = attach_trace(&mut engine);
                (Some(trace), Some(attach_checker(&mut engine)))
            }
            Slot::CheckerThenTrace => {
                let checker = attach_checker(&mut engine);
                (Some(attach_trace(&mut engine)), Some(checker))
            }
        };
        let result = drive(c, engine);
        (recorded(trace), result.stats, checker.map(|h| (h.verdict(), h.telemetry())))
    };
    let (trace, trace_stats, _) = run(Slot::Trace);
    let (_, checked_stats, judged) = run(Slot::Checker);
    assert!(!trace.is_empty(), "{name}: the recorder records");
    for slot in [Slot::TraceThenChecker, Slot::CheckerThenTrace] {
        let (stacked_trace, stacked_stats, stacked_judged) = run(slot);
        assert_eq!(stacked_trace, trace, "{name}, {slot:?}: the checker changed the trace");
        assert_eq!(
            stacked_stats, trace_stats,
            "{name}, {slot:?}: stats diverged from the trace-only run"
        );
        assert_eq!(
            stacked_stats, checked_stats,
            "{name}, {slot:?}: stats diverged from the checked run"
        );
        assert_eq!(
            stacked_judged, judged,
            "{name}, {slot:?}: the trace changed the checker's verdict or telemetry"
        );
    }
    let (verdict, _) = judged.expect("a checked run has a verdict");
    assert_eq!(
        check_correct(&trace, &c.nes, None).is_ok(),
        verdict.is_ok(),
        "{name}: the spec and the checker judged one stream differently"
    );
    verdict
}

#[test]
fn a_full_trace_stacks_on_the_checker_without_changing_either() {
    let c = fat_tree_campaign_scenario();
    let coordinated = assert_trace_stacks_on_checker("coordinated", &c, || c.engine());
    assert_eq!(coordinated, Ok(()));
    let uncoordinated = assert_trace_stacks_on_checker("uncoordinated", &c, || c.uncoordinated());
    assert!(uncoordinated.is_err(), "the baseline breaks the campaign");
}

/// Both churn scenarios through the scenario layer's own leg: checked, the
/// online Definition 6 verdict is `correct` with every campaign step
/// fired, and a replay reproduces the canonical CSV row byte for byte,
/// checked and unchecked.
#[test]
fn churn_scenarios_replay_their_csv_rows_checked_and_unchecked() {
    for (name, c) in [
        ("flapping ring", flapping_ring_scenario()),
        ("fat-tree campaign", fat_tree_campaign_scenario()),
    ] {
        let check = RunOptions { check: true, ..RunOptions::default() };
        let checked = run_coordinated(&c, &check);
        assert_eq!(checked.verdict, Some(Ok(())), "{name}: verdict");
        assert_eq!(checked.fired, Some(c.steps.len()), "{name}: firings");
        assert_eq!(
            stats_csv_row(&run_coordinated(&c, &check)),
            stats_csv_row(&checked),
            "{name}: checked CSV diverged on replay"
        );
        let unchecked = stats_csv_row(&run_coordinated(&c, &RunOptions::default()));
        assert_eq!(
            stats_csv_row(&run_coordinated(&c, &RunOptions::default())),
            unchecked,
            "{name}: unchecked CSV diverged on replay"
        );
    }
}

/// Asserts that `run` matches its committed `pin` and replays to the same
/// bytes.
fn assert_pinned_replay(name: &str, pin: &Fingerprint, run: impl Fn() -> (NetworkTrace, Stats)) {
    let (trace, stats) = run();
    assert!(!trace.is_empty(), "{name}: the pinned run records a trace");
    assert_eq!(&fingerprint(&trace, &stats), pin, "{name}: pin moved");
    assert_eq!(run(), (trace, stats), "{name}: replay diverged");
}

/// The *uncoordinated* baseline plane on both churn scenarios: its slow
/// controller pushes are scheduled control messages like any other, so
/// the run matches its committed fingerprint and replays byte-identically.
/// (The baseline being deterministic is what makes its checker violations
/// in `scenario_corpus.rs` reproducible counterexamples rather than
/// flakes.)
#[test]
fn uncoordinated_baseline_matches_its_pins_and_replays_identically() {
    let scenarios = [
        ("flapping ring", flapping_ring_scenario(), UNCOORD_FLAPPING_RING_PIN),
        ("fat-tree campaign", fat_tree_campaign_scenario(), UNCOORD_FAT_TREE_CAMPAIGN_PIN),
    ];
    for (name, c, pin) in &scenarios {
        assert_pinned_replay(name, pin, || {
            let mut engine = c.uncoordinated();
            let trace = attach_trace(&mut engine);
            let stats = drive(c, engine).stats;
            (trace.take(), stats)
        });
    }
}

/// The ack/retry reliability layer over a *lossy* control channel on both
/// churn scenarios: a message's fate hangs on its sender's own counter, so
/// drops, duplicates, reordering, retransmissions — and therefore the full
/// trace — match the committed fingerprints and replay exactly.
#[test]
fn reliable_lossy_runs_match_their_pins_and_replay_identically() {
    let scenarios = [
        ("flapping ring", flapping_ring_scenario(), RELIABLE_LOSSY_RING_PIN),
        ("fat-tree campaign", fat_tree_campaign_scenario(), RELIABLE_LOSSY_CAMPAIGN_PIN),
    ];
    for (name, c, pin) in &scenarios {
        assert_pinned_replay(name, pin, || {
            let mut engine = c.reliable_engine_with(8).with_channel(ChannelModel::lossy(13));
            let trace = attach_trace(&mut engine);
            let result = drive(c, engine);
            assert!(!result.dataplane.degraded(), "{name}: a generous budget never exhausts");
            assert_eq!(
                result.dataplane.inner().fired_sequence().len(),
                c.steps.len(),
                "{name}: every campaign step fires under loss"
            );
            (trace.take(), result.stats)
        });
    }
}

/// Telemetry must never perturb simulation results: the ring scenario
/// replayed at `counters` and `full` stays byte-identical to the
/// metrics-off reference — `Stats`, traces, and the NES verification all
/// unchanged.
#[test]
fn metrics_levels_do_not_perturb_results() {
    let (reference_trace, reference_stats) = ring_run(REFERENCE);
    assert!(!reference_trace.is_empty(), "the reference corner records a trace");
    for metrics in [MetricsLevel::Counters, MetricsLevel::Full] {
        let knobs = Knobs { metrics, ..REFERENCE };
        let (trace, stats) = ring_run(knobs);
        assert_eq!(stats, reference_stats, "stats diverged on {knobs:?}");
        assert_eq!(trace, reference_trace, "trace diverged on {knobs:?}");
    }
}

/// The fat-tree firewall scenario's **sim-scoped** metric section matches
/// its committed text at both metrics levels — the registry analogue of
/// the trace/stats pins (shard- and wall-scoped sections are exempt by
/// design).
#[test]
fn sim_scoped_metrics_match_their_pin() {
    for level in [MetricsLevel::Counters, MetricsLevel::Full] {
        let knobs = Knobs { metrics: level, ..REFERENCE };
        let sim = fat_tree_firewall_result(knobs).0.metrics.render_scope_json(Scope::Sim);
        assert_eq!(sim, SIM_METRICS_PIN, "sim section moved at {level:?}");
    }
}

/// One seeded generated-ring firewall run on explicit knobs — the
/// proptest's unit of comparison.
fn seeded_run(n: u64, workload: &Workload, knobs: Knobs) -> (NetworkTrace, Stats) {
    let gen = ring(n, LinkProfile::default());
    let flows = synthesize(&gen, workload);
    let horizon =
        flows.iter().map(|f| f.end).max().unwrap_or(SimTime::ZERO) + SimTime::from_secs(10);
    let (inside, outside) = (gen.hosts()[0], *gen.hosts().last().expect("hosts"));
    let nes = firewall_nes(&gen, inside, outside);
    let engine =
        nes_engine(nes, gen.sim().clone(), SimParams::default(), false, Box::new(SinkHosts));
    let (mut engine, trace) = configure(engine, knobs);
    edn_topo::schedule(&mut engine, &flows);
    // The trigger opens the firewall mid-run so the sweep crosses a real
    // configuration update.
    engine.inject_at(SimTime::from_millis(5), inside, udp_packet(inside, outside, u64::MAX, 0));
    let result = engine.run_until(horizon);
    (recorded(trace), result.stats)
}

fn arb_workload() -> impl Strategy<Value = Workload> {
    let pattern = prop_oneof![
        Just(TrafficPattern::Uniform),
        Just(TrafficPattern::Permutation),
        Just(TrafficPattern::Hotspot { hotspots: 1, bias_pct: 75 }),
    ];
    (pattern, 0u64..1_000, 1u64..4, 1usize..9).prop_map(|(pattern, seed, packets, flows)| {
        Workload {
            pattern,
            seed,
            flows,
            packets_per_flow: packets,
            interval: SimTime::from_millis(1),
            ..Workload::default()
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Differential equivalence over seeded topologies and workloads, with
    /// and without a trace recorder, observed through complete simulations
    /// — the traced replay byte-identical in `Stats` and trace, the
    /// untraced one agreeing on every `Stats` field.
    #[test]
    fn seeded_topologies_agree_across_trace_modes(
        n in 3u64..7,
        workload in arb_workload(),
    ) {
        let (reference_trace, reference_stats) = seeded_run(n, &workload, REFERENCE);
        prop_assert!(!reference_trace.is_empty(), "the reference corner records a trace");
        for knobs in trace_observers() {
            let (trace, stats) = seeded_run(n, &workload, knobs);
            prop_assert_eq!(&stats, &reference_stats, "stats diverged on {:?}", knobs);
            if knobs.traced {
                prop_assert_eq!(&trace, &reference_trace);
            }
        }
    }
}
