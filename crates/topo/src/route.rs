//! Routing synthesis: turn a generated topology into deployable
//! shortest-path forwarding state.
//!
//! The output is an `edn-core` [`Config`] — one `ip_dst = host → output
//! port` rule per (switch, host) pair, plus the topology's links and hosts —
//! directly deployable on `StaticDataPlane` or usable as an NES
//! configuration. Tie-breaking is deterministic (see
//! [`SimTopology::next_hop_ports`](netsim::SimTopology::next_hop_ports)),
//! so equal topologies compile to identical configs.

use std::collections::BTreeMap;

use edn_core::Config;
use netkat::{Action, ActionSet, Field, FlowTable, Loc, Match, Rule};

use crate::generate::GenTopology;

/// Shortest-path forwarding rules for every switch: one rule per reachable
/// host, in ascending host-id order.
///
/// Rules at a host's own attachment switch output to the attachment port;
/// rules elsewhere follow the deterministic shortest path. Switches that
/// cannot reach a host simply get no rule for it.
pub fn shortest_path_rules(gen: &GenTopology) -> BTreeMap<u64, Vec<Rule>> {
    // One graph for the topology and one BFS per attachment switch (shared
    // by its co-located hosts), all into one matrix; then each switch's list
    // is filled in one go, reading a column of it.
    let graph = gen.sim().switch_graph();
    let hosts: Vec<(Match, Loc)> = gen
        .hosts()
        .iter()
        .map(|&host| {
            let at = gen.attachment(host).expect("generated hosts are attached");
            (Match::new().with(Field::IpDst, host), at)
        })
        .collect();
    let attach = attachment_switches(gen);
    let next = graph.next_hop_rows(&attach);
    let width = graph.switches().len();
    let rows: Vec<usize> = hosts
        .iter()
        .map(|(_, at)| width * attach.binary_search(&at.sw).expect("every attachment has a row"))
        .collect();
    let mut outputs = OutputActions::default();
    graph
        .switches()
        .iter()
        .enumerate()
        .map(|(i, &sw)| {
            let mut list = Vec::with_capacity(hosts.len());
            for ((pattern, at), row) in hosts.iter().zip(&rows) {
                let out = if sw == at.sw { Some(at.pt) } else { next[row + i] };
                if let Some(out) = out {
                    list.push(Rule::new(pattern.clone(), outputs.port(out)));
                }
            }
            (sw, list)
        })
        .collect()
}

/// The switches carrying at least one host, ascending, each once: the
/// destinations routing has to reach.
fn attachment_switches(gen: &GenTopology) -> Vec<u64> {
    let mut attach: Vec<u64> =
        gen.hosts().iter().filter_map(|&h| gen.attachment(h)).map(|at| at.sw).collect();
    attach.sort_unstable();
    attach.dedup();
    attach
}

/// The `port := out` action sets handed out so far, one body per output
/// port: every rule of a routing table outputs to one of a switch's few
/// ports, so the rules share these (see [`ActionSet`]'s sharing contract)
/// instead of each building its own. A scanned list, not a map: there are
/// as many entries as a switch has ports, and one probe per rule.
#[derive(Default)]
struct OutputActions(Vec<(u64, ActionSet)>);

impl OutputActions {
    fn port(&mut self, out: u64) -> ActionSet {
        if let Some((_, actions)) = self.0.iter().find(|(pt, _)| *pt == out) {
            return actions.clone();
        }
        let actions = ActionSet::single(Action::assign(Field::Port, out));
        self.0.push((out, actions.clone()));
        actions
    }
}

/// Rules routing `ip_dst = ip` toward the attachment `at` from every switch
/// that can reach it: the rule at `at.sw` outputs to `at.pt`, rules
/// elsewhere follow the deterministic shortest path. The building block for
/// mobility re-homing (route a host's address to its *new* attachment) and
/// selective un/blocking in update campaigns.
pub fn rules_toward(gen: &GenTopology, at: Loc, ip: u64) -> BTreeMap<u64, Rule> {
    let graph = gen.sim().switch_graph();
    let next = graph.next_hop_rows(&[at.sw]);
    let pattern = Match::new().with(Field::IpDst, ip);
    let mut outputs = OutputActions::default();
    graph
        .switches()
        .iter()
        .zip(next)
        .filter_map(|(&sw, next)| {
            let out = if sw == at.sw { Some(at.pt) } else { next };
            out.map(|out| (sw, Rule::new(pattern.clone(), outputs.port(out))))
        })
        .collect()
}

/// Builds a [`Config`] from per-switch rules plus the generated topology's
/// links and hosts (so correctness checking sees the full network).
pub fn config_from_rules(gen: &GenTopology, rules: BTreeMap<u64, Vec<Rule>>) -> Config {
    let mut config = Config::new();
    for (sw, list) in rules {
        config.install(sw, FlowTable::from_rules(list));
    }
    for l in gen.sim().links() {
        config.add_link(l.src, l.dst);
    }
    for (host, at) in gen.sim().hosts() {
        config.add_host(host, at);
    }
    config
}

/// The all-pairs shortest-path configuration of a generated topology.
pub fn shortest_path_config(gen: &GenTopology) -> Config {
    config_from_rules(gen, shortest_path_rules(gen))
}

/// Returns `true` if every host can reach every other host (their
/// attachment switches are mutually connected).
pub fn all_hosts_connected(gen: &GenTopology) -> bool {
    let graph = gen.sim().switch_graph();
    let attach = attachment_switches(gen);
    let next = graph.next_hop_rows(&attach);
    let width = graph.switches().len();
    let columns: Vec<Option<usize>> =
        attach.iter().map(|sw| graph.switches().binary_search(sw).ok()).collect();
    (0..attach.len()).all(|dst| {
        let reaches = |src: usize| columns[src].is_some_and(|i| next[dst * width + i].is_some());
        (0..attach.len()).all(|src| src == dst || reaches(src))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{fat_tree, linear, ring, LinkProfile, TierProfile, HOST_BASE};
    use netsim::{Engine, SimParams, SimTime};

    #[test]
    fn rule_counts_are_all_pairs() {
        let g = ring(5, LinkProfile::default());
        let config = shortest_path_config(&g);
        // 5 switches × 5 hosts, every pair connected.
        assert_eq!(config.rule_count(), 25);
        assert!(all_hosts_connected(&g));
    }

    #[test]
    fn disconnected_pairs_get_no_rules() {
        // Two isolated switches: only the local attachment rules exist.
        let g = {
            use netsim::SimTopology;
            let topo = SimTopology::new([1, 2])
                .host(HOST_BASE + 1, netkat::Loc::new(1, 3))
                .host(HOST_BASE + 2, netkat::Loc::new(2, 3));
            crate::generate::GenTopology::from_sim("islands", topo)
        };
        assert!(!all_hosts_connected(&g));
        assert_eq!(shortest_path_config(&g).rule_count(), 2);
    }

    #[test]
    fn fat_tree_traffic_crosses_pods() {
        use netsim::traffic::{ping_outcomes, schedule_pings, Ping, ScenarioHosts};
        let g = fat_tree(4, TierProfile::default());
        let config = shortest_path_config(&g);
        let (src, dst) = (g.hosts()[0], *g.hosts().last().unwrap());
        let mut engine = Engine::new(
            g.sim().clone(),
            SimParams::default(),
            nes_runtime::StaticDataPlane::new(config),
            Box::new(ScenarioHosts::new()),
        );
        let pings = vec![Ping { time: SimTime::from_millis(1), src, dst, id: 1 }];
        schedule_pings(&mut engine, &pings);
        let result = engine.run_until(SimTime::from_secs(1));
        assert!(ping_outcomes(&pings, &result.stats)[0].replied.is_some());
    }

    #[test]
    fn linear_routes_are_direct() {
        let g = linear(4, LinkProfile::default());
        let rules = shortest_path_rules(&g);
        // Switch 1's rule for the host at switch 4 points right (port 1).
        let r = &rules[&1][3];
        assert_eq!(r.pattern.get(Field::IpDst), Some(HOST_BASE + 4));
        let out = r.actions.iter().next().unwrap().get(Field::Port);
        assert_eq!(out, Some(1));
    }
}
