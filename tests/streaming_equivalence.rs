//! Differential equivalence for the streaming pipeline: (a) generator-backed
//! injection ([`edn_topo::attach_stream`]) must be byte-identical to the
//! eager [`edn_topo::schedule`] on the pinned §5.2 ring and fat-tree(4)
//! firewall scenarios and across seeded proptest sweeps of every arrival
//! model; (b) the online Definition 6 checker must agree with the post-hoc
//! checker on the same scenarios — including on runs that record no trace
//! (where the post-hoc checker has nothing to read).

use edn_apps::generated::firewall_nes;
use edn_apps::ring::{host, Ring};
use edn_core::{NetworkEventStructure, NetworkTrace, TraceBuilder, TraceHandle};
use edn_topo::{
    attach_stream, fat_tree, ring, synthesize, synthesize_arrivals, ArrivalModel, LinkProfile,
    TierProfile, TrafficPattern, Workload,
};
use nes_runtime::{attach_online_checker, nes_engine};
use netsim::traffic::{udp_packet, UdpFlowSpec};
use netsim::{SimParams, SimTime, SinkHosts, Stats};
use proptest::prelude::*;

/// How a scenario's flows reach the engine.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Injection {
    /// Eagerly materialized up front (`reserve_events` + `inject_batch`).
    Batch,
    /// Pulled lazily from a [`netsim::WorkloadSource`] during the run.
    Stream,
}

/// One scenario run: inject `flows` the requested way, fire `trigger`
/// mid-run, optionally attach a trace recorder and then the online checker,
/// and return everything observable. The trace is empty when no recorder
/// was attached, and the online verdict `None` when no checker was.
#[allow(clippy::too_many_arguments)]
fn run_scenario(
    nes: NetworkEventStructure,
    topo: netsim::SimTopology,
    flows: &[UdpFlowSpec],
    trigger: (SimTime, u64, netkat::Packet),
    horizon: SimTime,
    injection: Injection,
    traced: bool,
    online: bool,
) -> (NetworkTrace, Stats, Option<bool>) {
    let mut engine =
        nes_engine(nes.clone(), topo, SimParams::default(), false, Box::new(SinkHosts));
    let trace = traced.then(|| {
        let (observer, trace) = TraceBuilder::observer();
        engine.set_observer(observer);
        trace
    });
    let handle = online
        .then(|| attach_online_checker(&mut engine, &nes).expect("NES fits the checker window"));
    match injection {
        Injection::Batch => {
            edn_topo::schedule(&mut engine, flows);
        }
        Injection::Stream => {
            attach_stream(&mut engine, flows);
        }
    }
    let (time, src, pk) = trigger;
    engine.inject_at(time, src, pk);
    engine.run(horizon);
    let result = engine.finish();
    let verdict = handle.map(|h| h.verdict().is_ok());
    (trace.map_or_else(NetworkTrace::default, TraceHandle::take), result.stats, verdict)
}

/// The §5.2 ring scenario expressed as flow specs: every host sends two
/// waves (20 ms apart) to the diametrically opposite host, and the reroute
/// trigger fires between the waves.
fn ring_scenario() -> (
    NetworkEventStructure,
    netsim::SimTopology,
    Vec<UdpFlowSpec>,
    (SimTime, u64, netkat::Packet),
    SimTime,
) {
    let ring = Ring::new(4);
    let n = ring.switch_count();
    let topo = ring.sim_topology(SimTime::from_micros(50), None);
    let flows = (1..=n)
        .map(|i| {
            let opposite = (i + ring.diameter - 1) % n + 1;
            let start = SimTime::from_millis(1 + i);
            UdpFlowSpec {
                flow: i,
                src: host(i),
                dst: host(opposite),
                start,
                end: start + SimTime::from_millis(40),
                interval: SimTime::from_millis(20),
                size: 512,
            }
        })
        .collect();
    let trigger = (SimTime::from_millis(10), ring.h1(), ring.trigger_packet());
    (ring.nes(), topo, flows, trigger, SimTime::from_secs(5))
}

/// The fat-tree(4) firewall under the fig18 permutation workload, with the
/// firewall-opening trigger mid-run.
fn fat_tree_scenario(
    model: Option<&ArrivalModel>,
) -> (
    NetworkEventStructure,
    netsim::SimTopology,
    Vec<UdpFlowSpec>,
    (SimTime, u64, netkat::Packet),
    SimTime,
) {
    let gen = fat_tree(4, TierProfile::default());
    let workload = Workload {
        pattern: TrafficPattern::Permutation,
        seed: 7,
        packets_per_flow: 4,
        ..Workload::default()
    };
    let flows = match model {
        None => synthesize(&gen, &workload),
        Some(m) => synthesize_arrivals(&gen, &workload, m),
    };
    let horizon =
        flows.iter().map(|f| f.end).max().unwrap_or(SimTime::ZERO) + SimTime::from_secs(10);
    let (inside, outside) = (gen.hosts()[0], *gen.hosts().last().expect("hosts"));
    let nes = firewall_nes(&gen, inside, outside);
    let trigger = (SimTime::from_millis(5), inside, udp_packet(inside, outside, u64::MAX, 0));
    (nes, gen.sim().clone(), flows, trigger, horizon)
}

/// Asserts the streamed run is byte-identical to the batch reference on a
/// scenario, with and without a trace builder.
fn assert_stream_matches_batch(
    scenario: &str,
    mk: impl Fn() -> (
        NetworkEventStructure,
        netsim::SimTopology,
        Vec<UdpFlowSpec>,
        (SimTime, u64, netkat::Packet),
        SimTime,
    ),
) {
    let (nes, topo, flows, trigger, horizon) = mk();
    let run = |injection, traced| {
        run_scenario(
            nes.clone(),
            topo.clone(),
            &flows,
            trigger.clone(),
            horizon,
            injection,
            traced,
            false,
        )
    };
    let (ref_trace, ref_stats, _) = run(Injection::Batch, true);
    assert!(!ref_stats.deliveries.is_empty(), "{scenario}: reference must deliver");
    assert!(!ref_trace.is_empty(), "{scenario}: the reference records a trace");
    let (trace, stats, _) = run(Injection::Stream, true);
    assert_eq!(stats, ref_stats, "{scenario}: streamed stats diverged");
    assert_eq!(trace, ref_trace, "{scenario}: streamed trace diverged");
    let (_, stats, _) = run(Injection::Stream, false);
    assert_eq!(stats, ref_stats, "{scenario}: streamed untraced stats diverged");
}

#[test]
fn streamed_ring_is_byte_identical_to_batch() {
    assert_stream_matches_batch("ring", ring_scenario);
}

#[test]
fn streamed_fat_tree_firewall_is_byte_identical_to_batch() {
    assert_stream_matches_batch("fat-tree firewall", || fat_tree_scenario(None));
}

#[test]
fn streamed_arrival_models_are_byte_identical_to_batch() {
    for model in [
        ArrivalModel::Pareto { alpha: 1.3, max_packets: 32 },
        ArrivalModel::OnOff { burst_packets: 2, off: SimTime::from_millis(3) },
        ArrivalModel::Diurnal { periods: 2, trough_pct: 20 },
    ] {
        assert_stream_matches_batch("fat-tree arrivals", || fat_tree_scenario(Some(&model)));
    }
}

/// Runs a scenario with the online checker attached and asserts its verdict
/// matches the post-hoc checker's on the recorded trace — then re-runs
/// streamed with no trace recorder (nothing to check post-hoc) and asserts
/// the online verdict holds steady.
fn assert_online_agrees_with_post_hoc(
    scenario: &str,
    mk: impl Fn() -> (
        NetworkEventStructure,
        netsim::SimTopology,
        Vec<UdpFlowSpec>,
        (SimTime, u64, netkat::Packet),
        SimTime,
    ),
) {
    let (nes, topo, flows, trigger, horizon) = mk();
    let run = |injection, traced| {
        run_scenario(
            nes.clone(),
            topo.clone(),
            &flows,
            trigger.clone(),
            horizon,
            injection,
            traced,
            true,
        )
    };
    let (trace, stats, online) = run(Injection::Batch, true);
    let post_hoc = post_hoc_verdict(&trace, &nes);
    assert_eq!(online, Some(post_hoc), "{scenario}: online vs post-hoc");
    assert!(post_hoc, "{scenario}: the runtime is consistent (Theorem 1)");
    let (_, stats2, online2) = run(Injection::Stream, false);
    assert_eq!(stats2, stats, "{scenario}: checked untraced run diverged");
    assert_eq!(online2, Some(post_hoc), "{scenario}: untraced online verdict diverged");
}

/// Post-hoc Definition 6 verdict on a recorded trace.
fn post_hoc_verdict(trace: &NetworkTrace, nes: &NetworkEventStructure) -> bool {
    edn_core::check_correct(trace, nes, None).is_ok()
}

#[test]
fn online_checker_agrees_with_post_hoc_on_the_ring() {
    assert_online_agrees_with_post_hoc("ring", ring_scenario);
}

#[test]
fn online_checker_agrees_with_post_hoc_on_the_fat_tree_firewall() {
    assert_online_agrees_with_post_hoc("fat-tree firewall", || fat_tree_scenario(None));
}

/// One seeded generated-ring firewall run; mirrors the plumbing suite's
/// `seeded_run` but parameterized on the injection path and arrival model.
fn seeded_run(
    n: u64,
    workload: &Workload,
    model: Option<&ArrivalModel>,
    injection: Injection,
    traced: bool,
    online: bool,
) -> (NetworkTrace, Stats, Option<bool>) {
    let gen = ring(n, LinkProfile::default());
    let flows = match model {
        None => synthesize(&gen, workload),
        Some(m) => synthesize_arrivals(&gen, workload, m),
    };
    let horizon =
        flows.iter().map(|f| f.end).max().unwrap_or(SimTime::ZERO) + SimTime::from_secs(10);
    let (inside, outside) = (gen.hosts()[0], *gen.hosts().last().expect("hosts"));
    let nes = firewall_nes(&gen, inside, outside);
    let trigger = (SimTime::from_millis(5), inside, udp_packet(inside, outside, u64::MAX, 0));
    run_scenario(nes, gen.sim().clone(), &flows, trigger, horizon, injection, traced, online)
}

fn arb_workload() -> impl Strategy<Value = Workload> {
    let pattern = prop_oneof![
        Just(TrafficPattern::Uniform),
        Just(TrafficPattern::Permutation),
        Just(TrafficPattern::Hotspot { hotspots: 1, bias_pct: 75 }),
    ];
    (pattern, 0u64..1_000, 1u64..4, 1usize..7).prop_map(|(pattern, seed, packets, flows)| {
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

fn arb_model() -> impl Strategy<Value = Option<ArrivalModel>> {
    prop_oneof![
        Just(None),
        (11u64..20, 4u64..32).prop_map(|(a, max)| Some(ArrivalModel::Pareto {
            alpha: a as f64 / 10.0,
            max_packets: max
        })),
        (1u64..4, 1u64..8).prop_map(|(b, off)| Some(ArrivalModel::OnOff {
            burst_packets: b,
            off: SimTime::from_millis(off),
        })),
        (1u32..4, 0u8..60)
            .prop_map(|(p, t)| Some(ArrivalModel::Diurnal { periods: p, trough_pct: t })),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Differential sweep: for seeded topologies, workloads, and arrival
    /// models, the streamed run is byte-identical to the batch run (trace
    /// and stats), and the online verdict matches the post-hoc checker's.
    #[test]
    fn seeded_streams_agree_with_batch_and_checkers_agree(
        n in 3u64..6,
        workload in arb_workload(),
        model in arb_model(),
    ) {
        let (ref_trace, ref_stats, _) =
            seeded_run(n, &workload, model.as_ref(), Injection::Batch, true, false);
        let (trace, stats, online) =
            seeded_run(n, &workload, model.as_ref(), Injection::Stream, true, true);
        prop_assert_eq!(&stats, &ref_stats, "streamed stats diverged");
        prop_assert_eq!(&trace, &ref_trace, "streamed trace diverged");
        let nes = {
            let gen = ring(n, LinkProfile::default());
            firewall_nes(&gen, gen.hosts()[0], *gen.hosts().last().expect("hosts"))
        };
        let post_hoc = post_hoc_verdict(&ref_trace, &nes);
        prop_assert_eq!(online, Some(post_hoc), "online vs post-hoc verdict");
    }
}
