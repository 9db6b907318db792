//! Routing synthesis: turn a generated topology into deployable
//! shortest-path forwarding state.
//!
//! The output is an `edn-core` [`Config`] — one `ip_dst = host → output
//! port` rule per (switch, host) pair, plus the topology's links and hosts —
//! directly deployable on `StaticDataPlane` or usable as an NES
//! configuration. Tie-breaking is deterministic (see
//! [`SimTopology::next_hop_ports`](netsim::SimTopology::next_hop_ports)),
//! so equal topologies compile to identical configs.
//!
//! Switches whose next hops agree toward every host carry equal rule lists,
//! and the synthesis builds each such list once ([`RouteGroup`]): on a
//! fat-tree the cores share one, and each pod's aggregation switches one.
//! Rows are told apart per *attachment switch*, not per host: a switch's
//! next hop toward a host depends only on where the host is attached, so a
//! row is fingerprinted and compared over one cell per attachment switch
//! (32 on fat-tree(8), against 128 hosts). Only a switch's own column is
//! host-specific; it reads as its one host's port, or, with several hosts,
//! as a marker no other switch can carry — so equal keys are exactly equal
//! rule lists.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hasher;

use edn_core::Config;
use netkat::{Action, ActionSet, Field, FlowTable, FxBuildHasher, FxHasher, Loc, Match, Rule};

use crate::generate::GenTopology;

/// One rule list of the shortest-path routing and the switches carrying
/// it: those whose forwarding row — the out port, or none, toward every
/// host of the topology — is the same.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RouteGroup {
    /// The switches that carry `rules`, ascending.
    pub switches: Vec<u64>,
    /// One rule per host the switches reach, in ascending host-id order.
    pub rules: Vec<Rule>,
}

/// Shortest-path forwarding rules for every switch, one list per distinct
/// forwarding row, the groups in ascending order of their least switch.
/// Every switch of the topology is in exactly one group, and two switches
/// share a group exactly when their lists are equal.
///
/// Rules at a host's own attachment switch output to the attachment port;
/// rules elsewhere follow the deterministic shortest path. Switches that
/// cannot reach a host simply get no rule for it. [`per_switch`] gives the
/// same lists by switch.
pub fn shortest_path_groups(gen: &GenTopology) -> Vec<RouteGroup> {
    // One graph for the topology and one BFS per attachment switch (shared
    // by its co-located hosts), all into one matrix: row `r` is every
    // switch's next hop toward attachment switch `r`. A switch's row is
    // keyed by its cells over those columns (see `Toward`), fingerprinted,
    // and compared only with the rows of the groups carrying its
    // fingerprint: a topology without repeats pays one more pass over the
    // matrix, not a row scan, and nothing is copied per row.
    let graph = gen.sim().switch_graph();
    let attach = attachment_switches(gen);
    let next = graph.next_hop_rows(&attach);
    let ids = graph.switches();
    let width = ids.len();
    // Per attachment column, its own switch's cell: `Hop(None)` until the
    // column's first host is seen (every column has one).
    let mut own = vec![Toward::Hop(None); attach.len()];
    let hosts: Vec<(Match, Loc, usize)> = gen
        .hosts()
        .iter()
        .map(|&host| {
            let at = gen.attachment(host).expect("generated hosts are attached");
            let column = attach.binary_search(&at.sw).expect("every attachment has a row");
            own[column] = if own[column] == Toward::Hop(None) {
                Toward::Hop(Some(at.pt))
            } else {
                Toward::Hosts
            };
            (Match::new().with(Field::IpDst, host), at, column)
        })
        .collect();
    // Cell `r` of switch `i`'s key.
    let key = |i: usize, r: usize| {
        if ids[i] == attach[r] {
            own[r]
        } else {
            Toward::Hop(next[r * width + i])
        }
    };
    // Fingerprint → the latest group with it; per group, the group before
    // it with the same fingerprint (for the rare rows that collide) and the
    // switch whose row it is.
    let mut by_print: HashMap<u64, u32, FxBuildHasher> =
        HashMap::with_capacity_and_hasher(width, FxBuildHasher::default());
    let mut chain: Vec<(Option<u32>, usize)> = Vec::with_capacity(width);
    let mut groups: Vec<RouteGroup> = Vec::with_capacity(width);
    let mut outputs = OutputActions::default();
    for (i, &sw) in ids.iter().enumerate() {
        let mut print = FxHasher::default();
        (0..attach.len()).for_each(|r| print.write_u64(key(i, r).print()));
        let print = print.finish();
        let mut candidate = by_print.get(&print).copied();
        while let Some(g) = candidate {
            let (before, first) = chain[g as usize];
            if (0..attach.len()).all(|r| key(i, r) == key(first, r)) {
                break;
            }
            candidate = before;
        }
        if let Some(g) = candidate {
            groups[g as usize].switches.push(sw);
            continue;
        }
        chain.push((by_print.insert(print, groups.len() as u32), i));
        let mut rules = Vec::with_capacity(hosts.len());
        for (pattern, at, column) in &hosts {
            let out = if sw == at.sw { Some(at.pt) } else { next[column * width + i] };
            if let Some(pt) = out {
                rules.push(Rule::new(pattern.clone(), outputs.port(pt)));
            }
        }
        groups.push(RouteGroup { switches: vec![sw], rules });
    }
    groups
}

/// One cell of a switch's routing key: what it does toward the hosts of one
/// attachment switch. Away from that switch, every host there is reached by
/// the same next hop, so two switches route those hosts alike exactly when
/// their hops are equal. At the switch itself each host has its own port:
/// with one host the cell is that port, which another switch's hop may
/// equal (both send the host's packets out of a port with that number);
/// with several, no single hop can, and the cell is [`Toward::Hosts`]. So
/// two switches' keys are equal exactly when their rule lists are.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Toward {
    /// The out port toward the column's hosts (`None`: none reach them).
    Hop(Option<u64>),
    /// The column's own switch, which carries several hosts.
    Hosts,
}

impl Toward {
    /// The cell's contribution to a row's fingerprint.
    fn print(self) -> u64 {
        match self {
            Toward::Hop(hop) => hop.map_or(0, |pt| pt.wrapping_add(1)),
            Toward::Hosts => u64::MAX,
        }
    }
}

/// The lists of `groups` by switch, ascending: a view, each list borrowed
/// once per switch that carries it.
pub fn per_switch(groups: &[RouteGroup]) -> BTreeMap<u64, &[Rule]> {
    groups.iter().flat_map(|g| g.switches.iter().map(move |&sw| (sw, g.rules.as_slice()))).collect()
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
    let tables = rules.into_iter().map(|(sw, list)| (sw, FlowTable::from_rules(list)));
    topology_config(gen).with_tables(tables)
}

/// The all-pairs shortest-path configuration of a generated topology: one
/// table per [`RouteGroup`], installed on each of its switches.
pub fn shortest_path_config(gen: &GenTopology) -> Config {
    let mut tables = Vec::with_capacity(gen.switch_count());
    for group in shortest_path_groups(gen) {
        let table = FlowTable::from_rules(group.rules);
        tables.extend(group.switches.into_iter().map(|sw| (sw, table.clone())));
    }
    topology_config(gen).with_tables(tables)
}

/// The generated topology's links and hosts as a configuration with no
/// tables, built in bulk.
fn topology_config(gen: &GenTopology) -> Config {
    let links = gen.sim().links().iter().map(|l| (l.src, l.dst));
    Config::from_topology(links, gen.sim().hosts())
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

    /// A fat-tree's cores share one row, and each pod's aggregation
    /// switches one; its edges, and every switch of a ring or a torus, have
    /// rows of their own.
    #[test]
    fn fat_tree_cores_and_pod_aggregations_share_lists() {
        for (k, distinct) in [(4, 13), (8, 41), (12, 85)] {
            let g = fat_tree(k, TierProfile::default());
            let groups = shortest_path_groups(&g);
            assert_eq!(
                (groups.len(), g.switch_count()),
                (distinct, 5 * k as usize * k as usize / 4)
            );
            let cores = (1..=k * k / 4).collect::<Vec<_>>();
            assert_eq!(groups[0].switches, cores, "fat_tree({k}): the cores are one group");
        }
        for g in
            [ring(9, LinkProfile::default()), crate::generate::torus(4, 5, LinkProfile::default())]
        {
            assert_eq!(shortest_path_groups(&g).len(), g.switch_count(), "{}", g.name());
        }
    }

    #[test]
    fn linear_routes_are_direct() {
        let g = linear(4, LinkProfile::default());
        let groups = shortest_path_groups(&g);
        // Switch 1's rule for the host at switch 4 points right (port 1).
        let r = &per_switch(&groups)[&1][3];
        assert_eq!(r.pattern.get(Field::IpDst), Some(HOST_BASE + 4));
        let out = r.actions.iter().next().unwrap().get(Field::Port);
        assert_eq!(out, Some(1));
    }
}
