//! End-to-end glue: deploy an NES on the simulator and judge the run
//! against Definition 6 as it executes.
//!
//! A verdict always comes from the online checker: attach it with
//! [`attach_online_checker`] before any traffic is scheduled and read
//! [`OnlineHandle::verdict`] once the run is over. The run needs no trace
//! for that, so the engines built here record none; a caller that wants
//! one attaches [`edn_core::TraceBuilder::observer`] beside the checker.
//! The post-hoc search over a recorded trace stays in `edn_core` as the
//! executable spec the online checker is tested against.
//! The engines here and the checker read the NES's one table index
//! ([`NetworkEventStructure::tables`]) and build none; the first checker
//! over an NES builds its masks ([`NetworkEventStructure::checker_masks`]).
//! Each run owns only its own state, so runs from one NES are fresh runs.

use edn_core::{NetworkEventStructure, OnlineChecker, OnlineHandle, OnlineViolation};
use netsim::{DataPlane, Engine, SimParams, SimTopology};

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
/// trace prefixes — so a run that records no trace still produces a
/// verdict, in memory bounded by the packets in flight.
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

#[cfg(test)]
mod tests {
    use super::*;
    use edn_core::{
        check_correct, Config, Event, EventId, EventSet, EventStructure, NetworkTrace, TraceBuilder,
    };
    use netkat::{Action, ActionSet, Field, FlowTable, Loc, Match, Pred, Rule};
    use netsim::traffic::{ping_outcomes, schedule_pings, Ping, ScenarioHosts};
    use netsim::{RunResult, SimTime};

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

    /// Attaches the online checker, schedules `pings`, runs to `horizon`,
    /// and returns the run with the checker's verdict.
    fn checked_run<D: DataPlane>(
        mut engine: Engine<D>,
        nes: &NetworkEventStructure,
        pings: &[Ping],
        horizon: SimTime,
    ) -> (RunResult<D>, Result<(), OnlineViolation>) {
        let handle = attach_online_checker(&mut engine, nes).expect("tiny NES fits the window");
        schedule_pings(&mut engine, pings);
        let result = engine.run_until(horizon);
        (result, handle.verdict())
    }

    /// [`checked_run`] with a trace recorder attached first, the checker
    /// paired with it: the run, the recorded trace and the verdict.
    fn traced_run<D: DataPlane>(
        mut engine: Engine<D>,
        nes: &NetworkEventStructure,
        pings: &[Ping],
        horizon: SimTime,
    ) -> (RunResult<D>, NetworkTrace, Result<(), OnlineViolation>) {
        let (observer, trace) = TraceBuilder::observer();
        engine.set_observer(observer);
        let (result, verdict) = checked_run(engine, nes, pings, horizon);
        (result, trace.take(), verdict)
    }

    #[test]
    fn nes_runtime_run_is_correct_and_pings_succeed() {
        let (nes, topo) = nes_and_topo();
        let engine = nes_engine(
            nes.clone(),
            topo,
            SimParams::default(),
            false,
            Box::new(ScenarioHosts::new()),
        );
        let pings = vec![
            // Before the event: 300 -> 200 must fail.
            Ping { time: SimTime::from_millis(1), src: 300, dst: 200, id: 1 },
            // Trigger: 200 -> 300. Its own reply also tests the new config.
            Ping { time: SimTime::from_millis(100), src: 200, dst: 300, id: 2 },
            // After the event: 300 -> 200 must succeed.
            Ping { time: SimTime::from_millis(200), src: 300, dst: 200, id: 3 },
        ];
        let (result, verdict) = checked_run(engine, &nes, &pings, SimTime::from_secs(2));
        let outcomes = ping_outcomes(&pings, &result.stats);
        assert!(!outcomes[0].request_delivered, "pre-event reverse traffic blocked");
        assert!(outcomes[1].replied.is_some(), "trigger ping answered");
        assert!(outcomes[2].replied.is_some(), "post-event reverse traffic flows");
        verdict.expect("Theorem 1: runtime traces are correct");
    }

    /// The online checker against the executable spec on a recorded run.
    #[test]
    fn online_checker_agrees_with_post_hoc_on_correct_run() {
        let (nes, topo) = nes_and_topo();
        let engine = nes_engine(
            nes.clone(),
            topo,
            SimParams::default(),
            false,
            Box::new(ScenarioHosts::new()),
        );
        let pings = vec![
            Ping { time: SimTime::from_millis(1), src: 300, dst: 200, id: 1 },
            Ping { time: SimTime::from_millis(100), src: 200, dst: 300, id: 2 },
            Ping { time: SimTime::from_millis(200), src: 300, dst: 200, id: 3 },
        ];
        let (result, trace, verdict) = traced_run(engine, &nes, &pings, SimTime::from_secs(2));
        assert!(!trace.is_empty(), "the recorder records the run");
        let fired = result.dataplane.fired_sequence();
        check_correct(&trace, &nes, Some(&fired)).expect("post-hoc checker accepts the run");
        verdict.expect("online checker agrees");
    }

    #[test]
    fn online_checker_flags_the_uncoordinated_run() {
        let (nes, topo) = nes_and_topo();
        let engine = uncoordinated_engine(
            nes.clone(),
            topo,
            SimParams::default(),
            SimTime::from_millis(500),
            42,
            Box::new(ScenarioHosts::new()),
        );
        let pings = vec![
            Ping { time: SimTime::from_millis(1), src: 200, dst: 300, id: 1 },
            Ping { time: SimTime::from_millis(10), src: 300, dst: 200, id: 2 },
        ];
        let (_, trace, verdict) = traced_run(engine, &nes, &pings, SimTime::from_secs(2));
        assert!(!trace.is_empty(), "the recorder records the run");
        assert!(check_correct(&trace, &nes, None).is_err(), "post-hoc flags the run");
        assert!(verdict.is_err(), "online checker flags it too");
    }

    /// At `MetricsLevel::Full` a checker violation leaves a crash dump
    /// behind: the engine's flight recorder (auto-attached to the checker
    /// by `set_observer`) records the violation alongside the preceding
    /// event firings, and its JSON dump names the violation kind.
    #[test]
    fn violation_lands_in_the_flight_recorder() {
        let (nes, topo) = nes_and_topo();
        let engine = uncoordinated_engine(
            nes.clone(),
            topo,
            SimParams::default(),
            SimTime::from_millis(500),
            42,
            Box::new(ScenarioHosts::new()),
        )
        .with_metrics(netsim::MetricsLevel::Full);
        let flight = engine.flight_recorder().expect("full level attaches the recorder");
        let pings = vec![
            Ping { time: SimTime::from_millis(1), src: 200, dst: 300, id: 1 },
            Ping { time: SimTime::from_millis(10), src: 300, dst: 200, id: 2 },
        ];
        let (_, verdict) = checked_run(engine, &nes, &pings, SimTime::from_secs(2));
        let violation = verdict.expect_err("the baseline run violates Definition 6");
        let dump = flight.dump_json();
        assert!(dump.contains(&format!("\"{}\"", violation.name())), "dump: {dump}");
    }

    #[test]
    fn uncoordinated_run_violates_consistency() {
        let (nes, topo) = nes_and_topo();
        let engine = uncoordinated_engine(
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
        let (result, verdict) = checked_run(engine, &nes, &pings, SimTime::from_secs(2));
        let outcomes = ping_outcomes(&pings, &result.stats);
        // The second ping arrives at the switch that HAS seen the event but
        // still runs the old configuration: incorrectly dropped.
        assert!(!outcomes[1].request_delivered, "baseline drops the packet");
        assert!(verdict.is_err(), "the checker flags the uncoordinated run");
    }

    /// The tentpole proof obligation in miniature: over a lossy channel
    /// the reliability-wrapped runtime still satisfies Definition 6 —
    /// the wrapper restores the ideal message sequence, so Theorem 1's
    /// guarantee carries over.
    #[test]
    fn reliable_runtime_survives_a_lossy_channel() {
        let (nes, topo) = nes_and_topo();
        let plane = NesDataPlane::new(CompiledNes::compile(nes.clone()), vec![1], false);
        let plane = crate::Reliable::with_budget(plane, 8);
        let hosts = Box::new(ScenarioHosts::new());
        let engine = Engine::new(topo, SimParams::default(), plane, hosts)
            .with_channel(netsim::ChannelModel::lossy(99));
        let pings = vec![
            Ping { time: SimTime::from_millis(1), src: 300, dst: 200, id: 1 },
            Ping { time: SimTime::from_millis(100), src: 200, dst: 300, id: 2 },
            Ping { time: SimTime::from_millis(400), src: 300, dst: 200, id: 3 },
        ];
        let (result, verdict) = checked_run(engine, &nes, &pings, SimTime::from_secs(2));
        assert!(!result.dataplane.degraded(), "a generous budget survives 6% loss");
        verdict.expect("Theorem 1 holds over a lossy channel");
    }

    #[test]
    fn trigger_packet_itself_uses_old_config() {
        // The event also *allows* traffic the old config dropped; the
        // triggering packet must NOT benefit (per-packet consistency).
        let (nes, topo) = nes_and_topo();
        let engine = nes_engine(
            nes.clone(),
            topo,
            SimParams::default(),
            false,
            Box::new(ScenarioHosts::new()),
        );
        // The trigger ping's reply is what tests the new config; covered in
        // the first test. Here: verify correctness holds for a run with
        // only the trigger.
        let pings = vec![Ping { time: SimTime::from_millis(1), src: 200, dst: 300, id: 1 }];
        let (result, verdict) = checked_run(engine, &nes, &pings, SimTime::from_secs(1));
        assert!(ping_outcomes(&pings, &result.stats)[0].replied.is_some());
        verdict.expect("correct");
    }
}
