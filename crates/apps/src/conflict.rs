//! The locality programs P1 and P2 of Section 2 — the empirical
//! counterpart of Lemma 1.
//!
//! Both programs have two *incompatible* events (at most one may take
//! effect). In **P2** they occur at the same switch, so the switch itself
//! resolves the race: the NES is locally-determined and implementable. In
//! **P1** they occur at different switches; no bounded-time implementation
//! can resolve the race (Lemma 1), and deploying it anyway produces
//! conflicting switch states that the Definition 6 checker flags.

use edn_core::{Config, Event, EventId, EventSet, EventStructure, NetworkEventStructure};
use netkat::{Action, ActionSet, Field, FlowTable, Loc, Match, Pred, Rule};
use netsim::{SimTime, SimTopology};

/// Hosts: H1 at s1:2 sends to H2 (s2:2) and H4 (s4:2); switch s3 joins
/// everything (star topology: s3 is the hub).
pub const H1: u64 = 101;
/// Receiver A.
pub const H2: u64 = 102;
/// Receiver B.
pub const H4: u64 = 104;

const HUB: u64 = 3;

/// Which variant: conflicting events at different switches (P1) or the same
/// switch (P2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Variant {
    /// P1: `e1` fires at s2, `e2` at s4 — **not** locally determined.
    DifferentSwitches,
    /// P2: both events fire at the hub s3 — locally determined.
    SameSwitch,
}

fn star_config(marker: u64) -> Config {
    // Hub s3 routes by destination; edge switches relay. Ports on the hub:
    // 1 -> s1, 2 -> s2, 4 -> s4. Edge switches: port 1 to hub, port 2 to
    // host. The marker value keeps otherwise-equal configurations distinct
    // (it models the "responder" choice, carried in a vlan rewrite).
    let mut c = Config::new();
    let hub_rules = [(H1, 1u64), (H2, 2), (H4, 4)]
        .into_iter()
        .map(|(dst, out)| {
            Rule::new(
                Match::new().with(Field::IpDst, dst),
                ActionSet::single(Action::assign(Field::Port, out).set(Field::Vlan, marker)),
            )
        })
        .collect::<Vec<_>>();
    c.install(HUB, FlowTable::from_rules(hub_rules));
    for (sw, host) in [(1u64, H1), (2, H2), (4, H4)] {
        let rules = vec![
            Rule::new(
                Match::new().with(Field::IpDst, host),
                ActionSet::single(Action::assign(Field::Port, 2)),
            ),
            Rule::new(Match::new(), ActionSet::single(Action::assign(Field::Port, 1))),
        ];
        c.install(sw, FlowTable::from_rules(rules));
        c.add_host(host, Loc::new(sw, 2));
        c.add_link(Loc::new(sw, 1), Loc::new(HUB, sw));
        c.add_link(Loc::new(HUB, sw), Loc::new(sw, 1));
    }
    c
}

/// Builds the NES of the chosen variant: events `e1`/`e2` are the arrival
/// of H1's packet at the respective location; `{e1, e2}` is inconsistent.
pub fn nes(variant: Variant) -> NetworkEventStructure {
    let e1 = EventId::new(0);
    let e2 = EventId::new(1);
    let (loc1, loc2) = match variant {
        // P1: arrival at the edge switches s2 / s4 (different switches).
        Variant::DifferentSwitches => (Loc::new(2, 1), Loc::new(4, 1)),
        // P2: arrival at the hub, distinguished by destination port.
        Variant::SameSwitch => (Loc::new(HUB, 1), Loc::new(HUB, 1)),
    };
    let (p1, p2) = match variant {
        Variant::DifferentSwitches => (Pred::test(Field::IpDst, H2), Pred::test(Field::IpDst, H4)),
        Variant::SameSwitch => (Pred::test(Field::IpDst, H2), Pred::test(Field::IpDst, H4)),
    };
    let es = EventStructure::new(
        vec![Event::new(e1, p1, loc1), Event::new(e2, p2, loc2)],
        // No member contains both: they are incompatible.
        [EventSet::singleton(e1), EventSet::singleton(e2)],
    );
    NetworkEventStructure::new(
        es,
        [
            (EventSet::empty(), star_config(0)),
            (EventSet::singleton(e1), star_config(1)),
            (EventSet::singleton(e2), star_config(2)),
        ],
    )
    .expect("all three event-sets covered")
}

/// The simulation topology shared by both variants.
pub fn sim_topology() -> SimTopology {
    let mut topo = SimTopology::new([1, 2, HUB, 4]);
    for (sw, host) in [(1u64, H1), (2, H2), (4, H4)] {
        topo = topo.host(host, Loc::new(sw, 2)).bilink(
            Loc::new(sw, 1),
            Loc::new(HUB, sw),
            SimTime::from_micros(80),
            None,
        );
    }
    topo
}

#[cfg(test)]
mod tests {
    use super::*;
    use edn_core::{
        check_correct, CorrectnessViolation, OnlineHandle, OnlineViolation, TraceBuilder,
        TraceHandle,
    };
    use nes_runtime::NesDataPlane;
    use netkat::Packet;
    use netsim::traffic::ping_request;
    use netsim::{Engine, RunResult};

    fn probe(dst: u64, id: u64) -> Packet {
        ping_request(H1, dst, id)
    }

    /// `variant` on the hub topology with the online checker attached and
    /// a trace recorder paired with it.
    fn checked_engine(
        variant: Variant,
        broadcast: bool,
    ) -> (Engine<NesDataPlane>, (OnlineHandle, TraceHandle)) {
        let (mut engine, handle) =
            crate::scenario::checked_engine(nes(variant), sim_topology(), broadcast);
        let (observer, trace) = TraceBuilder::observer();
        engine.set_observer(observer);
        (engine, (handle, trace))
    }

    /// Both verdicts on a finished run: the online checker's, and the
    /// post-hoc spec's over the recorded trace, hinted with the fire log.
    fn verdicts(
        result: &RunResult<NesDataPlane>,
        (handle, trace): (OnlineHandle, TraceHandle),
    ) -> (Result<(), OnlineViolation>, Result<(), CorrectnessViolation>) {
        let trace = trace.take();
        assert!(!trace.is_empty(), "the recorder records the run");
        let fired = result.dataplane.fired_sequence();
        let post_hoc = check_correct(&trace, result.dataplane.compiled().nes(), Some(&fired));
        (handle.verdict(), post_hoc)
    }

    #[test]
    fn p2_is_locally_determined_p1_is_not() {
        assert!(nes(Variant::SameSwitch).is_locally_determined());
        assert!(!nes(Variant::DifferentSwitches).is_locally_determined());
    }

    /// P2: both probes race to the hub; exactly one event fires (the hub
    /// resolves the race) and the run is consistent.
    #[test]
    fn p2_hub_resolves_the_race() {
        let (mut engine, handles) = checked_engine(Variant::SameSwitch, false);
        // Simultaneous injection of both candidate triggers.
        engine.inject_at(SimTime::from_millis(1), H1, probe(H2, 1));
        engine.inject_at(SimTime::from_millis(1), H1, probe(H4, 2));
        let result = engine.run_until(SimTime::from_secs(2));
        assert_eq!(result.dataplane.fired_sequence().len(), 1, "exactly one event wins");
        let (online, post_hoc) = verdicts(&result, handles);
        online.expect("P2 runs are consistent (online)");
        post_hoc.expect("P2 runs are consistent (post-hoc)");
    }

    /// P1: the two edge switches each fire "their" event before hearing
    /// about the other — a conflicting global state that cannot be
    /// reconciled. The checker flags the run (Lemma 1: without the locality
    /// restriction, bounded-time implementations are impossible).
    #[test]
    fn p1_races_into_an_inconsistent_state() {
        let (mut engine, handles) = checked_engine(Variant::DifferentSwitches, false);
        engine.inject_at(SimTime::from_millis(1), H1, probe(H2, 1));
        engine.inject_at(SimTime::from_millis(1), H1, probe(H4, 2));
        let result = engine.run_until(SimTime::from_secs(2));
        // Both switches adopted conflicting events.
        assert_eq!(
            result.dataplane.fired_sequence().len(),
            2,
            "both conflicting events fire at their own switches"
        );
        let (online, post_hoc) = verdicts(&result, handles);
        assert!(online.is_err(), "the online checker must flag the P1 run, got {online:?}");
        assert!(post_hoc.is_err(), "the post-hoc spec must flag the P1 run, got {post_hoc:?}");
    }

    /// With enough separation in time, P1 behaves: the first event's digest
    /// reaches the other switch before the second candidate arrives, so the
    /// second event is suppressed.
    #[test]
    fn p1_with_causal_separation_is_fine() {
        // Broadcast spreads the first event quickly.
        let (mut engine, handles) = checked_engine(Variant::DifferentSwitches, true);
        engine.inject_at(SimTime::from_millis(1), H1, probe(H2, 1));
        // The second candidate arrives long after the broadcast.
        engine.inject_at(SimTime::from_secs(1), H1, probe(H4, 2));
        let result = engine.run_until(SimTime::from_secs(3));
        assert_eq!(result.dataplane.fired_sequence().len(), 1, "only the first fires");
        let (online, post_hoc) = verdicts(&result, handles);
        online.expect("separated P1 run is consistent (online)");
        post_hoc.expect("separated P1 run is consistent (post-hoc)");
    }
}
