//! The stateful firewall (Figs. 8(a)/9(a)).
//!
//! Host H1 (inside, at switch 1) may always contact H4 (outside, at
//! switch 4); H4 may send to H1 only after H1 has contacted it. The single
//! event is the arrival of H1's traffic at switch 4.

use edn_core::NetworkEventStructure;
use netkat::Loc;
use stateful_netkat::{build_ets, parse, NetworkSpec, SPolicy};

use crate::scenario::host_env;

/// The Fig. 9(a) program source (ASCII syntax).
pub const SOURCE: &str = "\
    pt=2 & ip_dst=H4; pt<-1; (state=[0]; (1:1)->(4:1)<state<-[1]> \
                              + state!=[0]; (1:1)->(4:1)); pt<-2 \
    + pt=2 & ip_dst=H1; state=[1]; pt<-1; (4:1)->(1:1); pt<-2";

/// Parses the firewall program.
///
/// # Panics
///
/// Panics if the built-in source fails to parse (a bug).
pub fn program() -> SPolicy {
    parse(SOURCE, &host_env()).expect("built-in firewall program parses")
}

/// The Fig. 8(a) topology: H1 — s1 — s4 — H4.
pub fn spec() -> NetworkSpec {
    NetworkSpec::new([1, 4])
        .host(crate::scenario::H1, Loc::new(1, 2))
        .host(crate::scenario::H4, Loc::new(4, 2))
        .bilink(Loc::new(1, 1), Loc::new(4, 1))
}

/// Builds the firewall NES:
/// `{E₀ = ∅ → E₁ = {(dst=H4, 4:1)}}` with `g(E₀) = C[0]`, `g(E₁) = C[1]`.
///
/// # Panics
///
/// Panics if compilation fails (a bug: the program is well-formed).
pub fn nes() -> NetworkEventStructure {
    build_ets(&program(), &[0], &spec())
        .expect("firewall compiles")
        .to_nes()
        .expect("firewall ETS is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{sim_topology, H1, H4};
    use edn_core::EventSet;
    use nes_runtime::{nes_engine, uncoordinated_engine, verify_nes_run, CompiledNes};
    use netsim::traffic::{ping_outcomes, schedule_pings, Ping, ScenarioHosts};
    use netsim::{SimParams, SimTime};

    #[test]
    fn nes_shape_matches_the_paper() {
        let nes = nes();
        assert_eq!(nes.events().len(), 1);
        assert_eq!(nes.event_sets().len(), 2);
        let e = &nes.events()[0];
        assert_eq!(e.loc, Loc::new(4, 1));
        assert!(nes.is_locally_determined(4));
        // Config sizes: the {e0} config strictly extends the initial one.
        let c0 = nes.config(EventSet::empty());
        let c1 = nes.config(EventSet::singleton(nes.events()[0].id));
        assert!(c1.rule_count() >= c0.rule_count());
    }

    /// The paper's Fig. 11(a) behaviour: H4→H1 fails, H1→H4 succeeds, then
    /// H4→H1 succeeds — and the whole run passes the Definition 6 checker.
    #[test]
    fn correct_runtime_behaviour() {
        let topo = sim_topology(&spec(), SimTime::from_micros(50), None);
        let mut engine =
            nes_engine(nes(), topo, SimParams::default(), false, Box::new(ScenarioHosts::new()));
        let pings = vec![
            Ping { time: SimTime::from_millis(10), src: H4, dst: H1, id: 1 },
            Ping { time: SimTime::from_millis(100), src: H1, dst: H4, id: 2 },
            Ping { time: SimTime::from_millis(200), src: H4, dst: H1, id: 3 },
        ];
        schedule_pings(&mut engine, &pings);
        let result = engine.run_until(SimTime::from_secs(2));
        let o = ping_outcomes(&pings, &result.stats);
        assert!(!o[0].request_delivered, "H4->H1 blocked before the event");
        assert!(o[1].replied.is_some(), "H1->H4 answered");
        assert!(o[2].replied.is_some(), "H4->H1 allowed after the event");
        verify_nes_run(&result).expect("firewall run is event-driven consistent");
    }

    /// The Fig. 11(b) pathology: under the uncoordinated baseline the
    /// *reply* to H1's own ping is dropped (the SYN-ACK problem from the
    /// introduction).
    #[test]
    fn uncoordinated_drops_the_reply() {
        let topo = sim_topology(&spec(), SimTime::from_micros(50), None);
        let mut engine = uncoordinated_engine(
            nes(),
            topo,
            SimParams::default(),
            SimTime::from_millis(1000),
            7,
            Box::new(ScenarioHosts::new()),
        );
        let pings = vec![Ping { time: SimTime::from_millis(10), src: H1, dst: H4, id: 1 }];
        schedule_pings(&mut engine, &pings);
        let result = engine.run_until(SimTime::from_secs(2));
        let o = ping_outcomes(&pings, &result.stats);
        assert!(o[0].request_delivered, "the request goes through");
        assert!(o[0].replied.is_none(), "the reply dies against the stale config");
    }

    #[test]
    fn rule_footprint_is_small() {
        let compiled = CompiledNes::compile(nes());
        let b = compiled.rule_breakdown();
        // The paper reports 18 rules; our compiler differs in absolute
        // numbers but stays the same order of magnitude.
        assert!(b.total() >= 6 && b.total() <= 40, "got {b}");
    }
}
