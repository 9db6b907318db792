//! A two-flow stateful firewall: the Fig. 3(a) *diamond* as a real
//! application.
//!
//! Two internal hosts H1 (at s1) and H2 (at s2) sit behind the gateway s4
//! where the external host H4 lives. Each internal host independently
//! unlocks its own return path by contacting H4 — one `state` slot per
//! host, so the two events are *compatible* and may occur in either order
//! (different switches may even observe them in different orders, which is
//! exactly what event structures permit without coordination).

use edn_core::NetworkEventStructure;
use netkat::Loc;
use stateful_netkat::{build_ets, parse, NetworkSpec, SPolicy};

use crate::scenario::host_env;

/// The program: per-host outgoing clauses stamp their own state slot;
/// return clauses are guarded by it.
pub const SOURCE: &str = "\
    pt=2 & ip_dst=H4; (state(0)=0; pt<-1; (1:1)->(4:1)<state(0)<-1> \
                       + state(0)!=0; pt<-1; (1:1)->(4:1)); pt<-2 \
    + pt=2 & ip_dst=H4; (state(1)=0; pt<-1; (2:1)->(4:3)<state(1)<-1> \
                         + state(1)!=0; pt<-1; (2:1)->(4:3)); pt<-2 \
    + pt=2 & ip_dst=H1; state(0)=1; pt<-1; (4:1)->(1:1); pt<-2 \
    + pt=2 & ip_dst=H2; state(1)=1; pt<-3; (4:3)->(2:1); pt<-2";

/// Parses the two-flow firewall.
///
/// # Panics
///
/// Panics if the built-in source fails to parse (a bug).
pub fn program() -> SPolicy {
    parse(SOURCE, &host_env()).expect("built-in two-flow firewall parses")
}

/// Topology: H1 — s1 — s4 — H4, H2 — s2 — s4 (the learning-switch shape).
pub fn spec() -> NetworkSpec {
    NetworkSpec::new([1, 2, 4])
        .host(crate::scenario::H1, Loc::new(1, 2))
        .host(crate::scenario::H2, Loc::new(2, 2))
        .host(crate::scenario::H4, Loc::new(4, 2))
        .bilink(Loc::new(1, 1), Loc::new(4, 1))
        .bilink(Loc::new(2, 1), Loc::new(4, 3))
}

/// Builds the diamond NES: four event-sets
/// `∅, {e₁}, {e₂}, {e₁,e₂}` with both event orders allowed.
///
/// # Panics
///
/// Panics if compilation fails (a bug: the program is well-formed).
pub fn nes() -> NetworkEventStructure {
    build_ets(&program(), &[0, 0], &spec())
        .expect("two-flow firewall compiles")
        .to_nes()
        .expect("two-flow firewall ETS is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{checked_engine, sim_topology, H1, H2, H4};
    use edn_core::{EventId, EventSet};

    use netsim::traffic::{ping_outcomes, schedule_pings, Ping};
    use netsim::SimTime;

    #[test]
    fn nes_is_the_fig3a_diamond() {
        let nes = nes();
        assert_eq!(nes.events().len(), 2);
        assert_eq!(nes.event_sets().len(), 4, "∅, {{e1}}, {{e2}}, {{e1,e2}}");
        let e0 = EventId::new(0);
        let e1 = EventId::new(1);
        // Both orders allowed, both events independently enabled.
        assert!(nes.structure().enabled(EventSet::empty(), e0));
        assert!(nes.structure().enabled(EventSet::empty(), e1));
        assert!(nes.structure().consistent(EventSet::from_iter([e0, e1])));
        assert!(nes.is_locally_determined());
        // The events live at different switch-4 ports (per-flow links).
        assert_eq!(nes.events()[0].loc.sw, 4);
        assert_eq!(nes.events()[1].loc.sw, 4);
        assert_ne!(nes.events()[0].loc, nes.events()[1].loc);
    }

    /// Each flow unlocks independently, in either order, and the run
    /// verifies whichever interleaving happens.
    #[test]
    fn flows_unlock_independently() {
        for (first, second) in [(H1, H2), (H2, H1)] {
            let topo = sim_topology(&spec(), SimTime::from_micros(50), None);
            let (mut engine, checker) = checked_engine(nes(), topo, false);
            let s = SimTime::from_millis;
            let pings = vec![
                // Both return paths closed.
                Ping { time: s(10), src: H4, dst: H1, id: 1 },
                Ping { time: s(20), src: H4, dst: H2, id: 2 },
                // `first` opens its flow.
                Ping { time: s(100), src: first, dst: H4, id: 3 },
                // Only `first`'s return path is open.
                Ping { time: s(200), src: H4, dst: first, id: 4 },
                Ping { time: s(210), src: H4, dst: second, id: 5 },
                // `second` opens too; both work.
                Ping { time: s(300), src: second, dst: H4, id: 6 },
                Ping { time: s(400), src: H4, dst: second, id: 7 },
                Ping { time: s(410), src: H4, dst: first, id: 8 },
            ];
            schedule_pings(&mut engine, &pings);
            let result = engine.run_until(SimTime::from_secs(2));
            let o = ping_outcomes(&pings, &result.stats);
            assert!(!o[0].request_delivered && !o[1].request_delivered, "closed initially");
            assert!(o[2].replied.is_some(), "first flow opens");
            assert!(o[3].replied.is_some(), "first return path open");
            assert!(!o[4].request_delivered, "second still closed");
            assert!(o[5].replied.is_some(), "second flow opens");
            assert!(o[6].replied.is_some() && o[7].replied.is_some(), "both open");
            checker.verdict().unwrap_or_else(|v| panic!("order {first}->{second} consistent: {v}"));
        }
    }

    /// Near-simultaneous triggers: both events fire concurrently at
    /// different ports of s4 — the diamond needs no coordination, and the
    /// checker accepts either interleaving.
    #[test]
    fn simultaneous_triggers_are_fine() {
        let topo = sim_topology(&spec(), SimTime::from_micros(50), None);
        let (mut engine, checker) = checked_engine(nes(), topo, false);
        let pings = vec![
            Ping { time: SimTime::from_millis(10), src: H1, dst: H4, id: 1 },
            Ping { time: SimTime::from_millis(10), src: H2, dst: H4, id: 2 },
            Ping { time: SimTime::from_millis(100), src: H4, dst: H1, id: 3 },
            Ping { time: SimTime::from_millis(100), src: H4, dst: H2, id: 4 },
        ];
        schedule_pings(&mut engine, &pings);
        let result = engine.run_until(SimTime::from_secs(2));
        let o = ping_outcomes(&pings, &result.stats);
        assert!(o.iter().all(|p| p.replied.is_some()), "everything flows");
        assert_eq!(result.dataplane.fired_sequence().len(), 2, "both events fired");
        checker.verdict().expect("concurrent diamond run is consistent");
    }
}
