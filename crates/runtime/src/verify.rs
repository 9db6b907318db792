//! End-to-end glue: deploy an NES on the simulator, run a scenario, and
//! check the recorded trace against Definition 6.

use edn_core::{
    check_correct, CorrectnessViolation, NetworkEventStructure, OnlineChecker, OnlineHandle,
    OnlineViolation,
};
use netsim::{DataPlane, Engine, RunResult, SimParams, SimTopology};

use crate::compile::CompiledNes;
use crate::dataplane::NesDataPlane;
use crate::uncoordinated::UncoordDataPlane;

/// Builds an engine running `nes` with the paper's runtime.
///
/// `broadcast` enables the controller-assisted event dissemination.
pub fn nes_engine(
    nes: NetworkEventStructure,
    topo: SimTopology,
    params: SimParams,
    broadcast: bool,
    hosts: netsim::BoxedHosts,
) -> Engine<NesDataPlane> {
    let switches = topo.switches().to_vec();
    let dataplane = NesDataPlane::new(CompiledNes::compile(nes), switches, broadcast);
    Engine::new(topo, params, dataplane, hosts)
}

/// [`nes_engine`] with the paper's runtime wrapped in the
/// [`Reliable`](crate::Reliable) ack/retry layer — the deployment for
/// lossy control channels (`EDN_CHANNEL=lossy`, or
/// [`Engine::with_channel`](netsim::Engine::with_channel)). `budget` is
/// the maximum retransmissions per message; after the run, check
/// [`Reliable::degraded`](crate::Reliable::degraded) on the returned
/// data plane.
pub fn nes_reliable_engine_with(
    nes: NetworkEventStructure,
    topo: SimTopology,
    params: SimParams,
    broadcast: bool,
    hosts: netsim::BoxedHosts,
    budget: u32,
) -> Engine<crate::Reliable<NesDataPlane>> {
    let switches = topo.switches().to_vec();
    let inner = NesDataPlane::new(CompiledNes::compile(nes), switches, broadcast);
    let dataplane = crate::Reliable::with_budget(inner, budget);
    Engine::new(topo, params, dataplane, hosts)
}

/// Builds an engine running `nes` with the uncoordinated baseline.
pub fn uncoordinated_engine(
    nes: NetworkEventStructure,
    topo: SimTopology,
    params: SimParams,
    update_delay: netsim::SimTime,
    seed: u64,
    hosts: netsim::BoxedHosts,
) -> Engine<UncoordDataPlane> {
    let switches = topo.switches().to_vec();
    let dataplane = UncoordDataPlane::new(CompiledNes::compile(nes), switches, update_delay, seed);
    Engine::new(topo, params, dataplane, hosts)
}

/// Attaches an online Definition 6 checker to an engine *before* the run:
/// the engine streams every processing step into the checker, which
/// discharges its happens-before obligations incrementally and retires
/// trace prefixes — so even a [`TraceMode::StatsOnly`](netsim::TraceMode)
/// run produces a verdict, in memory bounded by the packets in flight.
///
/// Call [`OnlineHandle::verdict`] after the run finishes.
///
/// # Errors
///
/// Returns [`OnlineViolation::CapacityExceeded`] if the NES has more
/// reachable configurations than the checker's window (64).
pub fn attach_online_checker<D: DataPlane>(
    engine: &mut Engine<D>,
    nes: &NetworkEventStructure,
) -> Result<OnlineHandle, OnlineViolation> {
    let (observer, handle) = OnlineChecker::observer(nes)?;
    engine.set_observer(observer);
    Ok(handle)
}

/// Checks a finished NES-runtime run against Definition 6, using the
/// runtime's own fire log as the candidate event sequence.
///
/// # Errors
///
/// Returns the checker's violation, which for a correct runtime indicates a
/// bug in either the runtime or the checker — the paper's Theorem 1 says
/// every execution of the implementation is correct.
pub fn verify_nes_run(result: &RunResult<NesDataPlane>) -> Result<(), CorrectnessViolation> {
    let hint = result.dataplane.fired_sequence();
    check_correct(&result.trace, result.dataplane.compiled().nes(), Some(&hint))
}

/// [`verify_nes_run`] for a run wrapped in the reliability layer: the
/// wrapper restores exactly-once in-order message delivery, so the inner
/// runtime's fire log is the candidate sequence exactly as in the ideal
/// case. Callers must additionally consult
/// [`Reliable::degraded`](crate::Reliable::degraded) — a degraded run
/// may have missed messages and gets no Theorem 1 guarantee.
///
/// # Errors
///
/// Returns the checker's violation (see [`verify_nes_run`]).
pub fn verify_reliable_nes_run(
    result: &RunResult<crate::Reliable<NesDataPlane>>,
) -> Result<(), CorrectnessViolation> {
    let hint = result.dataplane.inner().fired_sequence();
    check_correct(&result.trace, result.dataplane.inner().compiled().nes(), Some(&hint))
}

/// Checks a finished uncoordinated-baseline run against Definition 6.
///
/// # Errors
///
/// Returns the violation — which is the *expected* outcome on the paper's
/// case studies: the baseline provides no event-driven consistency.
pub fn verify_uncoordinated_run(
    result: &RunResult<UncoordDataPlane>,
    nes: &NetworkEventStructure,
) -> Result<(), CorrectnessViolation> {
    check_correct(&result.trace, nes, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use edn_core::{Config, Event, EventId, EventSet, EventStructure};
    use netkat::{Action, ActionSet, Field, FlowTable, Loc, Match, Pred, Rule};
    use netsim::traffic::{ping_outcomes, schedule_pings, Ping, ScenarioHosts};
    use netsim::SimTime;

    /// One switch, two hosts; the firewall-flavoured NES used across the
    /// runtime tests.
    fn nes_and_topo() -> (NetworkEventStructure, SimTopology) {
        let mk = |rules: Vec<Rule>| {
            let mut c = Config::new();
            c.install(1, FlowTable::from_rules(rules));
            c.add_host(200, Loc::new(1, 2));
            c.add_host(300, Loc::new(1, 3));
            c
        };
        let fwd = |a: u64, b: u64| {
            Rule::new(
                Match::new().with(Field::Port, a),
                ActionSet::single(Action::assign(Field::Port, b)),
            )
        };
        let e0 = EventId::new(0);
        let es = EventStructure::new(
            vec![Event::new(e0, Pred::test(Field::IpDst, 300), Loc::new(1, 2))],
            [EventSet::singleton(e0)],
        );
        let nes = NetworkEventStructure::new(
            es,
            [
                (EventSet::empty(), mk(vec![fwd(2, 3)])),
                (EventSet::singleton(e0), mk(vec![fwd(2, 3), fwd(3, 2)])),
            ],
        )
        .unwrap();
        let topo = SimTopology::new([1]).host(200, Loc::new(1, 2)).host(300, Loc::new(1, 3));
        (nes, topo)
    }

    #[test]
    fn nes_runtime_run_is_correct_and_pings_succeed() {
        let (nes, topo) = nes_and_topo();
        let mut engine =
            nes_engine(nes, topo, SimParams::default(), false, Box::new(ScenarioHosts::new()));
        let pings = vec![
            // Before the event: 300 -> 200 must fail.
            Ping { time: SimTime::from_millis(1), src: 300, dst: 200, id: 1 },
            // Trigger: 200 -> 300. Its own reply also tests the new config.
            Ping { time: SimTime::from_millis(100), src: 200, dst: 300, id: 2 },
            // After the event: 300 -> 200 must succeed.
            Ping { time: SimTime::from_millis(200), src: 300, dst: 200, id: 3 },
        ];
        schedule_pings(&mut engine, &pings);
        let result = engine.run_until(SimTime::from_secs(2));
        let outcomes = ping_outcomes(&pings, &result.stats);
        assert!(!outcomes[0].request_delivered, "pre-event reverse traffic blocked");
        assert!(outcomes[1].replied.is_some(), "trigger ping answered");
        assert!(outcomes[2].replied.is_some(), "post-event reverse traffic flows");
        verify_nes_run(&result).expect("Theorem 1: runtime traces are correct");
    }

    #[test]
    fn online_checker_agrees_with_post_hoc_on_correct_run() {
        let (nes, topo) = nes_and_topo();
        let mut engine = nes_engine(
            nes.clone(),
            topo,
            SimParams::default(),
            false,
            Box::new(ScenarioHosts::new()),
        );
        let handle = attach_online_checker(&mut engine, &nes).expect("tiny NES fits the window");
        let pings = vec![
            Ping { time: SimTime::from_millis(1), src: 300, dst: 200, id: 1 },
            Ping { time: SimTime::from_millis(100), src: 200, dst: 300, id: 2 },
            Ping { time: SimTime::from_millis(200), src: 300, dst: 200, id: 3 },
        ];
        schedule_pings(&mut engine, &pings);
        let result = engine.run_until(SimTime::from_secs(2));
        verify_nes_run(&result).expect("post-hoc checker accepts the run");
        handle.verdict().expect("online checker agrees");
    }

    #[test]
    fn online_checker_flags_the_uncoordinated_run() {
        let (nes, topo) = nes_and_topo();
        let mut engine = uncoordinated_engine(
            nes.clone(),
            topo,
            SimParams::default(),
            SimTime::from_millis(500),
            42,
            Box::new(ScenarioHosts::new()),
        );
        let handle = attach_online_checker(&mut engine, &nes).expect("tiny NES fits the window");
        let pings = vec![
            Ping { time: SimTime::from_millis(1), src: 200, dst: 300, id: 1 },
            Ping { time: SimTime::from_millis(10), src: 300, dst: 200, id: 2 },
        ];
        schedule_pings(&mut engine, &pings);
        let result = engine.run_until(SimTime::from_secs(2));
        assert!(verify_uncoordinated_run(&result, &nes).is_err(), "post-hoc flags the run");
        assert!(handle.verdict().is_err(), "online checker flags it too");
    }

    /// At `EDN_METRICS=full` a checker violation leaves a crash dump
    /// behind: the engine's flight recorder (auto-attached to the checker
    /// by `set_observer`) records the violation alongside the preceding
    /// event firings, and its JSON dump names the violation kind.
    #[test]
    fn violation_lands_in_the_flight_recorder() {
        let (nes, topo) = nes_and_topo();
        let mut engine = uncoordinated_engine(
            nes.clone(),
            topo,
            SimParams::default(),
            SimTime::from_millis(500),
            42,
            Box::new(ScenarioHosts::new()),
        )
        .with_metrics(netsim::MetricsLevel::Full);
        let flight = engine.flight_recorder().expect("full level attaches the recorder");
        let handle = attach_online_checker(&mut engine, &nes).expect("tiny NES fits the window");
        let pings = vec![
            Ping { time: SimTime::from_millis(1), src: 200, dst: 300, id: 1 },
            Ping { time: SimTime::from_millis(10), src: 300, dst: 200, id: 2 },
        ];
        schedule_pings(&mut engine, &pings);
        engine.run_until(SimTime::from_secs(2));
        let violation = handle.verdict().expect_err("the baseline run violates Definition 6");
        let dump = flight.dump_json();
        assert!(dump.contains(&format!("\"{}\"", violation.name())), "dump: {dump}");
    }

    #[test]
    fn uncoordinated_run_violates_consistency() {
        let (nes, topo) = nes_and_topo();
        let mut engine = uncoordinated_engine(
            nes.clone(),
            topo,
            SimParams::default(),
            SimTime::from_millis(500),
            42,
            Box::new(ScenarioHosts::new()),
        );
        let pings = vec![
            Ping { time: SimTime::from_millis(1), src: 200, dst: 300, id: 1 },
            // Right after the trigger, before the controller push lands:
            Ping { time: SimTime::from_millis(10), src: 300, dst: 200, id: 2 },
        ];
        schedule_pings(&mut engine, &pings);
        let result = engine.run_until(SimTime::from_secs(2));
        let outcomes = ping_outcomes(&pings, &result.stats);
        // The second ping arrives at the switch that HAS seen the event but
        // still runs the old configuration: incorrectly dropped.
        assert!(!outcomes[1].request_delivered, "baseline drops the packet");
        let verdict = verify_uncoordinated_run(&result, &nes);
        assert!(verdict.is_err(), "the checker flags the uncoordinated run");
    }

    /// The tentpole proof obligation in miniature: over a lossy channel
    /// the reliability-wrapped runtime still satisfies Definition 6 —
    /// the wrapper restores the ideal message sequence, so Theorem 1's
    /// guarantee carries over.
    #[test]
    fn reliable_runtime_survives_a_lossy_channel() {
        let (nes, topo) = nes_and_topo();
        let mut engine = nes_reliable_engine_with(
            nes,
            topo,
            SimParams::default(),
            false,
            Box::new(ScenarioHosts::new()),
            8,
        )
        .with_channel(netsim::ChannelModel::lossy(99));
        let pings = vec![
            Ping { time: SimTime::from_millis(1), src: 300, dst: 200, id: 1 },
            Ping { time: SimTime::from_millis(100), src: 200, dst: 300, id: 2 },
            Ping { time: SimTime::from_millis(400), src: 300, dst: 200, id: 3 },
        ];
        schedule_pings(&mut engine, &pings);
        let result = engine.run_until(SimTime::from_secs(2));
        assert!(!result.dataplane.degraded(), "a generous budget survives 6% loss");
        verify_reliable_nes_run(&result).expect("Theorem 1 holds over a lossy channel");
    }

    #[test]
    fn trigger_packet_itself_uses_old_config() {
        // The event also *allows* traffic the old config dropped; the
        // triggering packet must NOT benefit (per-packet consistency).
        let (nes, topo) = nes_and_topo();
        let mut engine =
            nes_engine(nes, topo, SimParams::default(), false, Box::new(ScenarioHosts::new()));
        // The trigger ping's reply is what tests the new config; covered in
        // the first test. Here: verify correctness holds for a run with
        // only the trigger.
        let pings = vec![Ping { time: SimTime::from_millis(1), src: 200, dst: 300, id: 1 }];
        schedule_pings(&mut engine, &pings);
        let result = engine.run_until(SimTime::from_secs(1));
        assert!(ping_outcomes(&pings, &result.stats)[0].replied.is_some());
        verify_nes_run(&result).expect("correct");
    }
}
