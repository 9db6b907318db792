//! The bandwidth cap (Figs. 8(d)/9(d)).
//!
//! H1 may contact H4, and H4 may answer, until `n` outgoing packets have
//! been seen at switch 4 — then the incoming path is cut. The ETS is a
//! chain of `n + 2` states whose transitions are *renamed copies* of the
//! same arrival event (Section 3.1's renaming discipline).

use edn_core::NetworkEventStructure;
#[cfg(test)]
use netkat::Loc;
use stateful_netkat::{build_ets, parse, NetworkSpec, SPolicy};

use crate::scenario::host_env;

/// Generates the Fig. 9(d) program source for cap `n`.
///
/// State `[k]` (for `k ≤ n`) advances to `[k+1]` on each outgoing packet;
/// state `[n+1]` still forwards outgoing traffic but drops the incoming
/// path.
pub fn source(n: u64) -> String {
    let mut clauses = Vec::new();
    for k in 0..=n {
        clauses.push(format!("state=[{k}]; (1:1)->(4:1)<state<-[{}]>", k + 1));
    }
    clauses.push(format!("state=[{}]; (1:1)->(4:1)", n + 1));
    format!(
        "pt=2 & ip_dst=H4; pt<-1; ({}); pt<-2 \
         + pt=2 & ip_dst=H1; state!=[{}]; pt<-1; (4:1)->(1:1); pt<-2",
        clauses.join(" + "),
        n + 1
    )
}

/// Parses the bandwidth-cap program for cap `n`.
///
/// # Panics
///
/// Panics if the generated source fails to parse (a bug).
pub fn program(n: u64) -> SPolicy {
    parse(&source(n), &host_env()).expect("generated bandwidth-cap program parses")
}

/// The topology (same as the firewall, Fig. 8(a)/(d)).
pub fn spec() -> NetworkSpec {
    crate::firewall::spec()
}

/// Builds the bandwidth-cap NES for cap `n`: a chain of `n + 2` event-sets.
///
/// # Panics
///
/// Panics if compilation fails (a bug: the generated program is
/// well-formed).
pub fn nes(n: u64) -> NetworkEventStructure {
    build_ets(&program(n), &[0], &spec())
        .expect("bandwidth cap compiles")
        .to_nes()
        .expect("bandwidth cap ETS is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{checked_engine, sim_topology, H1, H4};
    use nes_runtime::uncoordinated_engine;
    use netsim::traffic::{ping_outcomes, schedule_pings, Ping, ScenarioHosts};
    use netsim::{SimParams, SimTime};

    #[test]
    fn nes_is_a_renamed_chain() {
        let nes = nes(3);
        // Cap 3: states [0..4], 4 renamed events, 5 event-sets.
        assert_eq!(nes.events().len(), 4);
        assert_eq!(nes.event_sets().len(), 5);
        // All renamed copies share predicate and location.
        for w in nes.events().windows(2) {
            assert_eq!(w[0].pred, w[1].pred);
            assert_eq!(w[0].loc, w[1].loc);
        }
        assert_eq!(nes.events()[0].loc, Loc::new(4, 1));
        assert!(nes.is_locally_determined());
    }

    /// Fig. 14(a): with cap 10, exactly 10 pings succeed.
    #[test]
    fn exactly_ten_pings_succeed() {
        let n = 10;
        let topo = sim_topology(&spec(), SimTime::from_micros(50), None);
        let (mut engine, checker) = checked_engine(nes(n), topo, false);
        let pings: Vec<Ping> = (0..15)
            .map(|i| Ping { time: SimTime::from_millis(100 * i + 10), src: H1, dst: H4, id: i })
            .collect();
        schedule_pings(&mut engine, &pings);
        let result = engine.run_until(SimTime::from_secs(5));
        let succeeded =
            ping_outcomes(&pings, &result.stats).iter().filter(|o| o.replied.is_some()).count();
        assert_eq!(succeeded, 10, "exactly the cap succeeds");
        checker.verdict().expect("bandwidth-cap run is consistent");
    }

    /// Fig. 14(b): the uncoordinated baseline overshoots the cap.
    #[test]
    fn uncoordinated_overshoots_the_cap() {
        let n = 10;
        let topo = sim_topology(&spec(), SimTime::from_micros(50), None);
        let mut engine = uncoordinated_engine(
            nes(n),
            topo,
            SimParams::default(),
            SimTime::from_millis(700),
            5,
            Box::new(ScenarioHosts::new()),
        );
        let pings: Vec<Ping> = (0..20)
            .map(|i| Ping { time: SimTime::from_millis(100 * i + 10), src: H1, dst: H4, id: i })
            .collect();
        schedule_pings(&mut engine, &pings);
        let result = engine.run_until(SimTime::from_secs(5));
        let succeeded =
            ping_outcomes(&pings, &result.stats).iter().filter(|o| o.replied.is_some()).count();
        assert!(succeeded > 10, "stale configs let extra pings through, got {succeeded}");
    }

    #[test]
    fn source_generation_shape() {
        let src = source(2);
        assert!(src.contains("state=[0]"));
        assert!(src.contains("state=[3]; (1:1)->(4:1)"));
        assert!(src.contains("state!=[3]"));
    }
}
