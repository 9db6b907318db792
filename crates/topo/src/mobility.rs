//! Host mobility: re-homing a host to a new attachment switch.
//!
//! Two forms, matching the two ways mobility shows up in an event-driven
//! network:
//!
//! * [`rehome`] — the *static* form: rebuild the topology with the host
//!   attached elsewhere (a fresh port on the target switch). Useful for
//!   before/after comparisons and for synthesizing the post-move routing
//!   state.
//! * [`with_mobile_twin`] + [`rehomed_rules`] — the *in-run* form: the run
//!   topology carries **both** attachment points (the new one under the
//!   twin id [`mobile_twin`]`(host)`), and a configuration update re-points
//!   the host's `ip_dst` rules at the twin's attachment mid-run. Mobility
//!   becomes one more event-driven update in a campaign — exactly the
//!   paper's framing, so the Definition 6 checker covers it for free.

use std::collections::BTreeMap;

use netkat::{Loc, Rule};
use netsim::SimTopology;

use crate::generate::GenTopology;
use crate::route::rules_toward;

/// Offset added to a host id to form its mobile-twin id. Far above
/// [`HOST_BASE`](crate::HOST_BASE) plus any generated host count, so twin
/// ids never collide with real hosts or switches.
pub const MOBILE_TWIN_OFFSET: u64 = 1_000_000;

/// The twin id representing `host`'s post-move attachment point.
pub fn mobile_twin(host: u64) -> u64 {
    MOBILE_TWIN_OFFSET + host
}

/// The smallest port number not used by any link or host attachment at
/// `sw` (and at least 1) — where a moved host plugs in.
pub fn free_port(gen: &GenTopology, sw: u64) -> u64 {
    let topo = gen.sim();
    let mut max = 0;
    for l in topo.links() {
        if l.src.sw == sw {
            max = max.max(l.src.pt);
        }
        if l.dst.sw == sw {
            max = max.max(l.dst.pt);
        }
    }
    for (_, at) in topo.hosts() {
        if at.sw == sw {
            max = max.max(at.pt);
        }
    }
    max + 1
}

/// Rebuilds the topology with `host` attached to a fresh port on `to`
/// (same switches, links, and host-link latency; every other host stays
/// put).
///
/// # Panics
///
/// Panics if `host` is not a host of `gen` or `to` is not one of its
/// switches.
pub fn rehome(gen: &GenTopology, host: u64, to: u64) -> GenTopology {
    let topo = gen.sim();
    assert!(topo.is_host(host), "rehome: {host} is not a host");
    assert!(topo.switches().contains(&to), "rehome: {to} is not a switch");
    let port = free_port(gen, to);
    let mut rebuilt = SimTopology::new(topo.switches().to_vec())
        .with_host_latency(topo.host_latency)
        .extend_links(topo.links().to_vec());
    for (h, at) in topo.hosts() {
        let at = if h == host { Loc::new(to, port) } else { at };
        rebuilt = rebuilt.host(h, at);
    }
    GenTopology::from_sim(format!("{}+move({host}->{to})", gen.name()), rebuilt)
}

/// Returns the topology extended with `host`'s mobile twin attached to a
/// fresh port on `to`: the run topology for in-run mobility, carrying both
/// the old and the new attachment point.
///
/// # Panics
///
/// Panics if `host` is not a host of `gen` or `to` is not one of its
/// switches.
pub fn with_mobile_twin(gen: &GenTopology, host: u64, to: u64) -> GenTopology {
    let topo = gen.sim();
    assert!(topo.is_host(host), "with_mobile_twin: {host} is not a host");
    assert!(topo.switches().contains(&to), "with_mobile_twin: {to} is not a switch");
    let port = free_port(gen, to);
    let rebuilt = topo.clone().host(mobile_twin(host), Loc::new(to, port));
    GenTopology::from_sim(format!("{}+twin({host}@{to})", gen.name()), rebuilt)
}

/// Post-move routing for `host` on a twin-carrying topology (built with
/// [`with_mobile_twin`]): per-switch rules matching `ip_dst = host` that
/// deliver at the **twin's** attachment. Swapping these in for the host's
/// shortest-path rules is the configuration side of a mobility update.
///
/// # Panics
///
/// Panics if `gen` has no twin for `host`.
pub fn rehomed_rules(gen: &GenTopology, host: u64) -> BTreeMap<u64, Rule> {
    let at = gen
        .attachment(mobile_twin(host))
        .unwrap_or_else(|| panic!("rehomed_rules: no mobile twin for {host} in {}", gen.name()));
    rules_toward(gen, at, host)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{ring, LinkProfile, HOST_BASE};
    use crate::route::{config_from_rules, per_switch, shortest_path_groups};
    use netkat::Field;
    use netsim::traffic::{schedule_pings, Ping, ScenarioHosts};
    use netsim::{Engine, SimParams, SimTime};

    #[test]
    fn free_port_avoids_links_and_hosts() {
        let g = ring(4, LinkProfile::default());
        // Ring ports: 1 = cw, 2 = ccw, 3 = host.
        assert_eq!(free_port(&g, 2), 4);
    }

    #[test]
    fn rehome_moves_exactly_one_host() {
        let g = ring(4, LinkProfile::default());
        let host = HOST_BASE + 1;
        let moved = rehome(&g, host, 3);
        assert_eq!(moved.attachment(host), Some(Loc::new(3, 4)));
        assert_eq!(moved.host_count(), g.host_count());
        assert_eq!(moved.link_count(), g.link_count());
        for &h in g.hosts() {
            if h != host {
                assert_eq!(moved.attachment(h), g.attachment(h), "host {h} stayed put");
            }
        }
    }

    #[test]
    fn twin_topology_keeps_the_original_attachment() {
        let g = ring(4, LinkProfile::default());
        let host = HOST_BASE + 1;
        let twinned = with_mobile_twin(&g, host, 3);
        assert_eq!(twinned.attachment(host), g.attachment(host));
        assert_eq!(twinned.attachment(mobile_twin(host)), Some(Loc::new(3, 4)));
        assert_eq!(twinned.host_count(), g.host_count() + 1);
    }

    #[test]
    fn rehomed_rules_deliver_at_the_new_attachment() {
        // Move HOST_BASE+1 from switch 1 to switch 3, swap in the rehomed
        // rules, and check a ping to the *old* address lands at the twin.
        let g = ring(4, LinkProfile::default());
        let host = HOST_BASE + 1;
        let run = with_mobile_twin(&g, host, 3);
        let groups = shortest_path_groups(&run);
        let mut rules: BTreeMap<u64, Vec<Rule>> =
            per_switch(&groups).into_iter().map(|(sw, list)| (sw, list.to_vec())).collect();
        let rehomed = rehomed_rules(&run, host);
        for (sw, list) in rules.iter_mut() {
            for r in list.iter_mut() {
                if r.pattern.get(Field::IpDst) == Some(host) {
                    *r = rehomed[sw].clone();
                }
            }
        }
        let config = config_from_rules(&run, rules);
        let mut engine = Engine::new(
            run.sim().clone(),
            SimParams::default(),
            nes_runtime::StaticDataPlane::new(config),
            Box::new(ScenarioHosts::new()),
        );
        let src = HOST_BASE + 2;
        let pings = vec![Ping { time: SimTime::from_millis(1), src, dst: host, id: 1 }];
        schedule_pings(&mut engine, &pings);
        let result = engine.run_until(SimTime::from_secs(1));
        assert!(
            result.stats.delivered_to(mobile_twin(host)).next().is_some(),
            "traffic for the moved host lands at its twin"
        );
        assert!(
            result.stats.delivered_to(host).next().is_none(),
            "nothing reaches the old attachment"
        );
    }
}
