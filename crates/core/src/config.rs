//! Network configurations as relations on located packets.
//!
//! A configuration `C` forwards packets within switches (per-switch flow
//! tables) and across links (including host attachment links), following the
//! paper's convention that `C` also captures link behaviour. `Traces(C)` is
//! decided by [`Config::admits_trace`].

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use netkat::{Field, FlowTable, Loc};

use crate::trace::LocatedPacket;

/// Trace-membership NFA state bit: the packet sits at a host.
pub(crate) const ST_AT_HOST: u8 = 1;
/// Trace-membership NFA state bit: the packet just crossed a link into a
/// switch and has not been processed yet.
pub(crate) const ST_INGRESS: u8 = 2;
/// Trace-membership NFA state bit: the packet was processed by a switch and
/// sits at an output port.
pub(crate) const ST_EGRESS: u8 = 4;

/// A network configuration: per-switch tables plus the (directed) links.
///
/// # Sharing
///
/// The links and the hosts sit behind reference counts, as the tables' rule
/// lists do: the configurations of a campaign differ in their tables, so
/// cloning one and installing other tables shares the topology, and
/// [`add_link`](Config::add_link) and [`add_host`](Config::add_host) copy it
/// first if it is shared — a clone never observes an edit of its origin.
/// Equality is by value.
///
/// # Examples
///
/// ```
/// use edn_core::Config;
/// use netkat::{ActionSet, Action, Field, FlowTable, Loc, Match, Rule};
/// let table = FlowTable::from_rules([Rule::new(
///     Match::new().with(Field::Port, 2),
///     ActionSet::single(Action::assign(Field::Port, 1)),
/// )]);
/// let mut cfg = Config::new();
/// cfg.install(1, table);
/// cfg.add_link(Loc::new(1, 1), Loc::new(4, 1));
/// cfg.add_host(100, Loc::new(1, 2));
/// assert!(cfg.is_host(100));
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Config {
    tables: BTreeMap<u64, FlowTable>,
    links: Arc<BTreeSet<(Loc, Loc)>>,
    hosts: Arc<BTreeSet<u64>>,
}

impl Config {
    /// Creates an empty configuration (no switches, no links).
    pub fn new() -> Config {
        Config::default()
    }

    /// A configuration with no tables over `links` and the `hosts`, each at
    /// its attachment: what [`add_link`](Config::add_link) and
    /// [`add_host`](Config::add_host) build one element at a time (host side
    /// of an attachment at port 0), collected into the sets in one go.
    ///
    /// # Examples
    ///
    /// ```
    /// use edn_core::Config;
    /// use netkat::Loc;
    /// let (link, host) = ((Loc::new(1, 1), Loc::new(4, 1)), (100, Loc::new(1, 2)));
    /// let mut by_hand = Config::new();
    /// by_hand.add_link(link.0, link.1);
    /// by_hand.add_host(host.0, host.1);
    /// assert_eq!(Config::from_topology([link], [host]), by_hand);
    /// ```
    pub fn from_topology(
        links: impl IntoIterator<Item = (Loc, Loc)>,
        hosts: impl IntoIterator<Item = (u64, Loc)>,
    ) -> Config {
        let hosts: Vec<(u64, Loc)> = hosts.into_iter().collect();
        let links = links.into_iter();
        let mut all = Vec::with_capacity(links.size_hint().0 + 2 * hosts.len());
        all.extend(links);
        for &(node, attached) in &hosts {
            all.extend([(Loc::new(node, 0), attached), (attached, Loc::new(node, 0))]);
        }
        Config {
            tables: BTreeMap::new(),
            links: Arc::new(all.into_iter().collect()),
            hosts: Arc::new(hosts.into_iter().map(|(node, _)| node).collect()),
        }
    }

    /// Installs (replaces) the flow table of `switch`.
    pub fn install(&mut self, switch: u64, table: FlowTable) {
        self.tables.insert(switch, table);
    }

    /// This configuration with `tables` installed: what one
    /// [`install`](Config::install) per pair does (a later pair for a
    /// switch replaces an earlier one), collected into the table map in one
    /// go — the bulk-construction entry point for a configuration whose
    /// tables come in switch order.
    ///
    /// # Examples
    ///
    /// ```
    /// use edn_core::Config;
    /// use netkat::{Field, FlowTable, Match, Rule, ActionSet};
    /// let drop_vlan = FlowTable::from_rules([Rule::new(
    ///     Match::new().with(Field::Vlan, 7),
    ///     ActionSet::drop(),
    /// )]);
    /// let mut by_hand = Config::new();
    /// by_hand.install(1, drop_vlan.clone());
    /// by_hand.install(3, FlowTable::new());
    /// let bulk = Config::new().with_tables([(1, drop_vlan), (3, FlowTable::new())]);
    /// assert_eq!(bulk, by_hand);
    /// ```
    pub fn with_tables(mut self, tables: impl IntoIterator<Item = (u64, FlowTable)>) -> Config {
        let mut tables: BTreeMap<u64, FlowTable> = tables.into_iter().collect();
        self.tables.append(&mut tables);
        self
    }

    /// The table installed on `switch` (empty tables drop everything).
    pub fn table(&self, switch: u64) -> Option<&FlowTable> {
        self.tables.get(&switch)
    }

    /// Every installed table with its switch, in ascending switch order:
    /// [`switches`](Config::switches) zipped with their
    /// [`table`](Config::table)s, read in one walk rather than one search
    /// per switch.
    ///
    /// # Examples
    ///
    /// ```
    /// use edn_core::Config;
    /// use netkat::FlowTable;
    /// let config = Config::new().with_tables([(4, FlowTable::new()), (2, FlowTable::new())]);
    /// let switches: Vec<u64> = config.tables().map(|(sw, _)| sw).collect();
    /// assert_eq!(switches, [2, 4]);
    /// assert!(config.tables().all(|(sw, table)| config.table(sw) == Some(table)));
    /// ```
    pub fn tables(&self) -> impl Iterator<Item = (u64, &FlowTable)> + '_ {
        self.tables.iter().map(|(&sw, table)| (sw, table))
    }

    /// Adds a directed link.
    pub fn add_link(&mut self, src: Loc, dst: Loc) {
        Arc::make_mut(&mut self.links).insert((src, dst));
    }

    /// Declares `node` (attached at `loc`) to be a host, adding both
    /// directions of its attachment link. By convention the host side of the
    /// attachment is port 0.
    pub fn add_host(&mut self, node: u64, attached: Loc) {
        Arc::make_mut(&mut self.hosts).insert(node);
        let links = Arc::make_mut(&mut self.links);
        links.insert((Loc::new(node, 0), attached));
        links.insert((attached, Loc::new(node, 0)));
    }

    /// Whether `other` has this configuration's links and hosts — two
    /// pointer compares when one was cloned from the other (`Arc`'s `==`
    /// takes that shortcut), by value otherwise.
    pub fn same_topology(&self, other: &Config) -> bool {
        self.links == other.links && self.hosts == other.hosts
    }

    /// Returns `true` if `node` is a host.
    pub fn is_host(&self, node: u64) -> bool {
        self.hosts.contains(&node)
    }

    /// The set of host nodes.
    pub fn hosts(&self) -> impl Iterator<Item = u64> + '_ {
        self.hosts.iter().copied()
    }

    /// The directed links.
    pub fn links(&self) -> impl Iterator<Item = (Loc, Loc)> + '_ {
        self.links.iter().copied()
    }

    /// Switches carrying tables.
    pub fn switches(&self) -> impl Iterator<Item = u64> + '_ {
        self.tables.keys().copied()
    }

    /// Total rule count across all switches.
    pub fn rule_count(&self) -> usize {
        self.tables.values().map(FlowTable::len).sum()
    }

    /// The one-step relation: all located packets `C` maps `lp` to.
    ///
    /// A step is either a within-switch hop (table application, rewriting
    /// the port and possibly headers) or a link hop (location rewrite with
    /// fields preserved). Host nodes never apply tables.
    pub fn step(&self, lp: &LocatedPacket) -> Vec<LocatedPacket> {
        let mut out = Vec::new();
        // Link hops from this exact location.
        for &(src, dst) in self.links.iter() {
            if src == lp.loc {
                out.push(LocatedPacket::new(lp.packet.clone(), dst));
            }
        }
        // Switch hop.
        if !self.is_host(lp.loc.sw) {
            if let Some(table) = self.tables.get(&lp.loc.sw) {
                let mut pk = lp.packet.clone();
                pk.set_loc(lp.loc);
                for mut outpk in table.apply(&pk) {
                    let pt = outpk.get(Field::Port).unwrap_or(lp.loc.pt);
                    let loc = Loc::new(lp.loc.sw, pt);
                    outpk.unset(Field::Switch);
                    outpk.unset(Field::Port);
                    out.push(LocatedPacket::new(outpk, loc));
                }
            }
        }
        out.sort();
        out.dedup();
        out
    }

    /// Returns `true` if `C(from, to)` holds.
    pub fn admits(&self, from: &LocatedPacket, to: &LocatedPacket) -> bool {
        self.step(from).contains(to)
    }

    /// Decides membership of a packet trace in `Traces(C)`.
    ///
    /// The trace must start at a host and every consecutive pair must be
    /// related by `C`. Because a located packet `(pkt, sw:pt)` is ambiguous
    /// between "in the input queue" and "in the output queue" of the port
    /// (cf. `qm_in`/`qm_out` in Fig. 7), membership is decided by a small
    /// NFA over queue contexts: link hops lead into input queues, switch
    /// hops into output queues.
    ///
    /// With `allow_prefix`, a trace that stops where `C` would continue is
    /// accepted (packets still in flight when a recording ends); without
    /// it, the trace must *end*: at a host, in an input queue the switch's
    /// table drops, or in an output queue with no attached link.
    pub fn admits_trace(&self, trace: &[LocatedPacket], allow_prefix: bool) -> bool {
        let Some(first) = trace.first() else { return true };
        let mut state = self.start_state(first);
        if state == 0 {
            return false;
        }
        for w in trace.windows(2) {
            state = self.step_state(state, &w[0], &w[1]);
            if state == 0 {
                return false;
            }
        }
        if allow_prefix {
            return true;
        }
        self.accepts_end(state, trace.last().expect("nonempty"))
    }

    /// The NFA state of a trace's first located packet (a set of
    /// [`ST_AT_HOST`]/[`ST_INGRESS`]/[`ST_EGRESS`] bits; `0` = rejected).
    /// Exposed crate-internally so the online checker can run the same
    /// automaton one hop at a time, bit-for-bit with [`admits_trace`].
    pub(crate) fn start_state(&self, first: &LocatedPacket) -> u8 {
        if self.is_host(first.loc.sw) {
            ST_AT_HOST
        } else {
            0
        }
    }

    /// One transition of the trace-membership NFA: the state set after the
    /// hop `a → b`, given the state set at `a`.
    pub(crate) fn step_state(&self, prev: u8, a: &LocatedPacket, b: &LocatedPacket) -> u8 {
        let mut next = 0;
        if prev & (ST_AT_HOST | ST_EGRESS) != 0
            && a.packet == b.packet
            && self.links.contains(&(a.loc, b.loc))
        {
            next |= if self.is_host(b.loc.sw) { ST_AT_HOST } else { ST_INGRESS };
        }
        if prev & ST_INGRESS != 0
            && a.loc.sw == b.loc.sw
            && !self.is_host(a.loc.sw)
            && self.switch_outputs(a).contains(b)
        {
            next |= ST_EGRESS;
        }
        next
    }

    /// Whether a trace *ending* in `state` at `last` is complete (the
    /// `allow_prefix == false` acceptance of [`admits_trace`]).
    pub(crate) fn accepts_end(&self, state: u8, last: &LocatedPacket) -> bool {
        state & ST_AT_HOST != 0
            || (state & ST_INGRESS != 0 && self.switch_outputs(last).is_empty())
            || (state & ST_EGRESS != 0 && !self.links.iter().any(|&(src, _)| src == last.loc))
    }

    /// The within-switch (table) outputs for a located packet.
    fn switch_outputs(&self, lp: &LocatedPacket) -> Vec<LocatedPacket> {
        let mut out = Vec::new();
        if self.is_host(lp.loc.sw) {
            return out;
        }
        if let Some(table) = self.tables.get(&lp.loc.sw) {
            let mut pk = lp.packet.clone();
            pk.set_loc(lp.loc);
            for mut outpk in table.apply(&pk) {
                let pt = outpk.get(Field::Port).unwrap_or(lp.loc.pt);
                let loc = Loc::new(lp.loc.sw, pt);
                outpk.unset(Field::Switch);
                outpk.unset(Field::Port);
                out.push(LocatedPacket::new(outpk, loc));
            }
        }
        out
    }
}

impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (sw, t) in &self.tables {
            writeln!(f, "switch {sw}:")?;
            write!(f, "{t}")?;
        }
        for (a, b) in self.links.iter() {
            writeln!(f, "link {a} -> {b}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netkat::{Action, ActionSet, Match, Packet, Rule};

    /// Topology: host 100 -- 1:2, link 1:1 <-> 4:1, host 104 -- 4:2.
    /// Switch 1 forwards pt2 -> pt1; switch 4 forwards pt1 -> pt2.
    fn two_switch_config() -> Config {
        let fwd = |from: u64, to: u64| {
            FlowTable::from_rules([Rule::new(
                Match::new().with(Field::Port, from),
                ActionSet::single(Action::assign(Field::Port, to)),
            )])
        };
        let mut c = Config::new();
        c.install(1, fwd(2, 1));
        c.install(4, fwd(1, 2));
        c.add_link(Loc::new(1, 1), Loc::new(4, 1));
        c.add_link(Loc::new(4, 1), Loc::new(1, 1));
        c.add_host(100, Loc::new(1, 2));
        c.add_host(104, Loc::new(4, 2));
        c
    }

    fn lp(pk: &Packet, sw: u64, pt: u64) -> LocatedPacket {
        LocatedPacket::new(pk.clone(), Loc::new(sw, pt))
    }

    #[test]
    fn step_through_switch_and_link() {
        let c = two_switch_config();
        let pk = Packet::new().with(Field::IpDst, 4);
        // At switch 1 ingress (from host): table hop to 1:1.
        let at_ingress = lp(&pk, 1, 2);
        let next = c.step(&at_ingress);
        assert!(next.contains(&lp(&pk, 1, 1)), "switch hop, got {next:?}");
        // At 1:1: link hop to 4:1.
        let at_egress = lp(&pk, 1, 1);
        assert!(c.step(&at_egress).contains(&lp(&pk, 4, 1)));
    }

    #[test]
    fn full_trace_is_admitted() {
        let c = two_switch_config();
        let pk = Packet::new();
        let trace = vec![
            lp(&pk, 100, 0), // at host
            lp(&pk, 1, 2),   // attachment link
            lp(&pk, 1, 1),   // switch hop
            lp(&pk, 4, 1),   // link
            lp(&pk, 4, 2),   // switch hop
            lp(&pk, 104, 0), // delivery
        ];
        assert!(c.admits_trace(&trace, false));
        assert!(c.admits_trace(&trace[..3], true), "prefix allowed");
        assert!(!c.admits_trace(&trace[..3], false), "prefix not complete");
    }

    #[test]
    fn trace_must_start_at_host() {
        let c = two_switch_config();
        let pk = Packet::new();
        assert!(!c.admits_trace(&[lp(&pk, 1, 2), lp(&pk, 1, 1)], true));
    }

    #[test]
    fn dropped_packet_trace_is_complete() {
        let c = two_switch_config();
        let pk = Packet::new();
        // Arrives at switch 1 port 3: no rule matches, packet dropped.
        let trace = vec![lp(&pk, 100, 0), lp(&pk, 1, 2)];
        // 1:2 has a table hop available, so stopping there is a prefix...
        assert!(!c.admits_trace(&trace, false));
        // ...but a packet at a port with no matching rule and no link is
        // complete. Craft: switch 1, port 5 has no rule (table matches only
        // pt=2) and no link.
        let mut c2 = c.clone();
        let t = FlowTable::from_rules([Rule::new(
            Match::new().with(Field::Port, 2),
            ActionSet::single(Action::assign(Field::Port, 5)),
        )]);
        c2.install(1, t);
        let trace2 = vec![lp(&pk, 100, 0), lp(&pk, 1, 2), lp(&pk, 1, 5)];
        assert!(c2.admits_trace(&trace2, false));
    }

    #[test]
    fn wrong_hop_is_rejected() {
        let c = two_switch_config();
        let pk = Packet::new();
        // Teleporting from 1:2 to 4:2 is not admitted.
        assert!(!c.admits_trace(&[lp(&pk, 100, 0), lp(&pk, 1, 2), lp(&pk, 4, 2)], true));
        // Field change across a link is not admitted.
        let changed = Packet::new().with(Field::Vlan, 9);
        assert!(!c.admits(&lp(&pk, 1, 1), &lp(&changed, 4, 1)));
    }

    #[test]
    fn multicast_step_produces_both() {
        let mut c = Config::new();
        let t = FlowTable::from_rules([Rule::new(
            Match::new(),
            ActionSet::from_iter([Action::assign(Field::Port, 1), Action::assign(Field::Port, 3)]),
        )]);
        c.install(7, t);
        let pk = Packet::new();
        let out = c.step(&lp(&pk, 7, 2));
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn hosts_do_not_forward() {
        let c = two_switch_config();
        let pk = Packet::new();
        // Host 100 has a link to 1:2 but no table; only the link hop exists.
        let out = c.step(&lp(&pk, 100, 0));
        assert_eq!(out, vec![lp(&pk, 1, 2)]);
    }

    #[test]
    fn edits_after_a_clone_do_not_show_through_it() {
        let origin = two_switch_config();
        let pristine = two_switch_config();
        let mut edited = origin.clone();
        assert!(edited.same_topology(&origin), "a clone shares its origin's topology");
        edited.add_link(Loc::new(1, 9), Loc::new(4, 9));
        assert_eq!(origin, pristine, "add_link wrote through the shared links");
        assert!(!edited.same_topology(&origin));

        let mut grown = pristine.clone();
        grown.add_host(105, Loc::new(4, 3));
        let mut patched = origin.clone();
        patched.add_host(105, Loc::new(4, 3));
        assert_eq!(patched, grown);
        assert_eq!(origin, pristine, "add_host wrote through the shared links or hosts");
        // Equal topologies built apart are the same topology, by value.
        assert!(patched.same_topology(&grown) && origin.same_topology(&pristine));
    }
}
