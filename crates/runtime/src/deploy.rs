//! The table layout and the one table hop: how a deployment's
//! configurations actually reach the data plane.
//!
//! There is one layout (Section 4.1): every `(switch, tag)` slot answers
//! from configuration `tag`'s table for the switch — `g(set_of(tag))` for an
//! NES, the single configuration for the static plane — the dispatch on
//! `(switch, tag)` *is* the tag guard, and no rule is rewritten or copied.
//! The tables are stored as netkat's [`ChainTables`], one row per switch and
//! one column per tag: a switch's tables split into *prefix chains*, where
//! each either extends the longest so far or is a prefix of it — the
//! paper's own firewall (`[fwd(2,3)]` → `[fwd(2,3), fwd(3,2)]`), a campaign
//! step that unblocks a host, and "this step left the switch alone" (the
//! equal-length case) are all that shape. The chain's longest table is
//! indexed once and a slot is `(chain, len)`: the tag guard on rule *k* of a
//! chain is the bound `k < len`, not a copy of the rule per tag. Chains that
//! test the same patterns in the same order — every switch of a generated
//! topology routes the same `ip_dst` patterns in the same host order —
//! share one segment layout, so the build costs one layout per distinct
//! pattern sequence, not one per switch. It is the NES's own index
//! ([`NetworkEventStructure::tables`]): deploying builds none. This dispatch is the one
//! rendering of the guard; what a switch that writes the tag into every rule
//! would install is counted, not built, by
//! [`CompiledNes::rule_breakdown`](crate::CompiledNes::rule_breakdown).
//! (The Section 5.3 rule-sharing optimizer is an offline artefact
//! — the `rule-optimizer` crate, Fig. 17 — and was retired as a lookup-path
//! layout after losing its trial; ARCHITECTURE.md, *Closed experiments*.)
//!
//! Every plane looks a packet up in a [`PerTagTables`] and hands the rule to
//! [`Hop::forward`]; only the NES plane passes a stamp.

use std::collections::HashMap;
use std::sync::Arc;

use edn_core::{EventSet, NetworkEventStructure};
use netkat::{
    ChainTables, Field, FieldReader, FxBuildHasher, Loc, Packet, PacketArena, PacketId, Rule,
};
use netsim::At;

/// One deployment: the NES's shared [`ChainTables`] (rows are switches,
/// columns are tags) and this plane's own slots and probe counts.
#[derive(Clone, Debug)]
pub(crate) struct PerTagTables {
    tables: Arc<ChainTables>,
    /// `switch id → dense slot`, the index into a plane's per-switch state:
    /// the NES's rows first, then listed and first-contact switches past
    /// every row, which have no table and drop.
    switch_slot: HashMap<u64, u32, FxBuildHasher>,
    /// `(confirmed hits, fallback scans)` of this plane's hash probes.
    probes: (u64, u64),
}

impl PerTagTables {
    /// Deploys `nes`'s tables with a slot for every switch in `listed`.
    pub(crate) fn deploy(nes: &NetworkEventStructure, listed: &[u64]) -> PerTagTables {
        let switch_slot = nes.table_rows().clone();
        let mut deployment =
            PerTagTables { tables: Arc::clone(nes.tables()), switch_slot, probes: (0, 0) };
        for &sw in listed {
            deployment.slot_of(sw);
        }
        deployment
    }

    /// How many switches have a slot so far.
    pub(crate) fn slots(&self) -> usize {
        self.switch_slot.len()
    }

    /// The dense slot of `sw`, if it has one.
    pub(crate) fn slot(&self, sw: u64) -> Option<usize> {
        self.switch_slot.get(&sw).map(|&i| i as usize)
    }

    /// The dense slot of `sw`, assigned on first contact: the next slot
    /// past every one given out so far.
    pub(crate) fn slot_of(&mut self, sw: u64) -> usize {
        let next = self.switch_slot.len() as u32;
        *self.switch_slot.entry(sw).or_insert(next) as usize
    }

    /// The forwarding rule for a packet at dense switch slot `slot` under
    /// `tag`, read through `view`, counting the probe. A slot past every row
    /// or an out-of-range tag has no table and drops.
    pub(crate) fn lookup_on<R: FieldReader>(
        &mut self,
        slot: usize,
        tag: u64,
        view: &R,
    ) -> Option<&Rule> {
        self.tables.lookup_counted(slot, tag, view, &mut self.probes)
    }

    /// Reports this plane's fingerprint probe outcomes and the layout's
    /// size: how many indexes, sharing how many segment layouts, over how
    /// many rules serve how many `(switch, tag)` cells.
    pub(crate) fn contribute_metrics(&self, reg: &mut edn_obs::Registry) {
        let (hits, fallbacks) = self.probes;
        reg.counter_add(edn_obs::Scope::Shard, "flowindex.fp_hits", hits);
        reg.counter_add(edn_obs::Scope::Shard, "flowindex.fp_fallbacks", fallbacks);
        // `Shard` scope, like the probe counters: the layout is a property
        // of the NES's build, not of the simulated run, and the `sim` section is
        // compared whole across builds (`tests/plumbing_equivalence.rs`).
        let t = &self.tables;
        reg.gauge_max(edn_obs::Scope::Shard, "flowindex.tables", t.chains() as u64);
        reg.gauge_max(edn_obs::Scope::Shard, "flowindex.layouts", t.layouts() as u64);
        reg.gauge_max(edn_obs::Scope::Shard, "flowindex.indexed_rules", t.indexed_rules() as u64);
        reg.gauge_max(edn_obs::Scope::Shard, "flowindex.slots", t.cells() as u64);
    }
}

/// What a plane keeps per switch it has stepped, under the switch's dense
/// node id: its slot in the deployment and the run of [`Contacts`]'
/// `located` that holds its events, found once, at first contact.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Contact {
    pub(crate) slot: u32,
    events: (u32, u32),
}

impl Contact {
    /// A node id no packet has arrived under yet.
    const UNSEEN: Contact = Contact { slot: u32::MAX, events: (0, 0) };
}

/// Every plane's switch contacts: a packet's switch is found by the node id
/// the engine hands in (`At::node`), never by a lookup of its id.
#[derive(Clone, Debug, Default)]
pub(crate) struct Contacts {
    /// Per node id, the switch's [`Contact`].
    by_node: Vec<Contact>,
    /// Per contacted switch, a run of `(port, the events located there)`.
    located: Vec<(u64, EventSet)>,
}

impl Contacts {
    /// The contact of the switch at `at`, if a packet has arrived there
    /// before.
    #[inline]
    pub(crate) fn get(&self, at: At) -> Option<Contact> {
        self.by_node.get(at.node as usize).copied().filter(|c| c.slot != Contact::UNSEEN.slot)
    }

    /// Makes the contact of the switch at `at`, whose slot is `slot`, on
    /// its first packet: `nes`'s events at the switch, collected into a run
    /// of `located`.
    #[cold]
    pub(crate) fn make(&mut self, at: At, slot: usize, nes: &NetworkEventStructure) -> Contact {
        let start = self.located.len();
        for e in nes.events().iter().filter(|e| e.loc.sw == at.sw) {
            match self.located[start..].iter_mut().find(|(pt, _)| *pt == e.loc.pt) {
                Some((_, here)) => *here = here.insert(e.id),
                None => self.located.push((e.loc.pt, EventSet::singleton(e.id))),
            }
        }
        let contact =
            Contact { slot: slot as u32, events: (start as u32, self.located.len() as u32) };
        let node = at.node as usize;
        if self.by_node.len() <= node {
            self.by_node.resize(node + 1, Contact::UNSEEN);
        }
        self.by_node[node] = contact;
        contact
    }

    /// The events located at port `pt` of `contact`'s switch.
    #[inline]
    pub(crate) fn events_at(&self, contact: Contact, pt: u64) -> EventSet {
        let (start, end) = contact.events;
        let run = &self.located[start as usize..end as usize];
        run.iter().find(|(p, _)| *p == pt).map_or_else(EventSet::empty, |&(_, here)| here)
    }
}

/// The one table hop, and the buffers it builds a multicast's lookup packet
/// and a content-changing hop's output in instead of allocating per hop.
#[derive(Clone, Debug, Default)]
pub(crate) struct Hop {
    lookup_buf: Packet,
    out_buf: Packet,
}

impl Hop {
    /// Forwards `packet`, arrived at `loc`, under the `rule` its lookup
    /// found, appending the outputs to `outputs` (a `PlaneOut`'s): each
    /// leaves on the port its action wrote (the ingress port if none), with
    /// the location fields stripped. A `stamp` `(digest, tag)` — the NES plane's SWITCH step 4 —
    /// is written into every output; the lookup that found `rule` read `tag`
    /// as the packet's tag.
    ///
    /// When the hop's single action changes nothing the output keeps — the
    /// steady state: location writes are stripped anyway, and the stamp
    /// already carries what the switch knows — the output *is* the input
    /// id: nothing is copied or interned. A rule whose one action writes
    /// only the port (every routing rule) says so itself
    /// ([`ActionSet::port_only`](netkat::ActionSet::port_only)), so its
    /// hop reads the port and walks no action, whether or not it copies.
    #[inline]
    pub(crate) fn forward(
        &mut self,
        rule: &Rule,
        stamp: Option<(u64, u64)>,
        loc: Loc,
        packet: PacketId,
        arena: &mut PacketArena,
        outputs: &mut Vec<(u64, PacketId)>,
    ) {
        if let Some(out_pt) = rule.actions.port_only() {
            let base = arena.get(packet);
            let stamped = |(digest, tag)| {
                base.get(Field::Digest) == Some(digest) && base.get(Field::Tag) == Some(tag)
            };
            let out = if !base.has_loc() && stamp.is_none_or(stamped) {
                packet
            } else {
                self.copy_out(packet, std::iter::empty(), stamp, arena)
            };
            outputs.push((out_pt, out));
            return;
        }
        self.apply(rule, stamp, loc, packet, arena, outputs);
    }

    /// `packet` with its location stripped, `writes` to other fields
    /// applied and `stamp` written, copied into the reused buffer and
    /// interned: the output of a hop that changes the packet.
    fn copy_out(
        &mut self,
        packet: PacketId,
        writes: impl Iterator<Item = (Field, u64)>,
        stamp: Option<(u64, u64)>,
        arena: &mut PacketArena,
    ) -> PacketId {
        let buf = &mut self.out_buf;
        buf.clone_from(arena.get(packet));
        buf.take_loc();
        for (f, v) in writes {
            if !f.is_location() {
                buf.set(f, v);
            }
        }
        if let Some((digest, tag)) = stamp {
            buf.set(Field::Digest, digest);
            buf.set(Field::Tag, tag);
        }
        arena.intern_ref(buf)
    }

    /// [`forward`](Hop::forward) for every other rule and packet: the
    /// rule's actions are walked.
    fn apply(
        &mut self,
        rule: &Rule,
        stamp: Option<(u64, u64)>,
        loc: Loc,
        packet: PacketId,
        arena: &mut PacketArena,
        outputs: &mut Vec<(u64, PacketId)>,
    ) {
        let base = arena.get(packet);
        if rule.actions.len() == 1 {
            let action = rule.actions.iter().next().expect("len 1");
            let mut out_pt = loc.pt;
            let mut identity = base.get(Field::Switch).is_none() && base.get(Field::Port).is_none();
            for (f, v) in action.writes() {
                match f {
                    // Location writes are stripped from outputs; a port
                    // write only picks the egress port.
                    Field::Switch => {}
                    Field::Port => out_pt = v,
                    f if base.get(f) != Some(v) => identity = false,
                    _ => {}
                }
            }
            if let Some((digest, tag)) = stamp {
                identity = identity
                    && base.get(Field::Digest) == Some(digest)
                    && base.get(Field::Tag) == Some(tag);
            }
            let out = if identity {
                packet
            } else {
                self.copy_out(packet, action.writes(), stamp, arena)
            };
            outputs.push((out_pt, out));
        } else if !rule.actions.is_empty() {
            // Multicast (rare): materialize the lookup packet and the same
            // sorted, deduplicated output set `ActionSet::apply` defines.
            let lookup = &mut self.lookup_buf;
            lookup.clone_from(base);
            lookup.set_loc(loc);
            if let Some((_, tag)) = stamp {
                lookup.set(Field::Tag, tag);
            }
            for mut cast in rule.actions.apply(lookup) {
                let (_, out_pt) = cast.take_loc();
                if let Some((digest, tag)) = stamp {
                    cast.set(Field::Digest, digest);
                    cast.set(Field::Tag, tag);
                }
                outputs.push((out_pt.unwrap_or(loc.pt), arena.intern(cast)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::CompiledNes;
    use edn_core::{Config, Event, EventId, EventSet, EventStructure};
    use netkat::{Action, ActionSet, FlowTable, Match, Pred};

    /// The firewall NES used across the runtime tests: one switch, two
    /// hosts, a reply rule unlocked by e0.
    fn firewall_nes() -> NetworkEventStructure {
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
        NetworkEventStructure::new(
            es,
            [
                (EventSet::empty(), mk(vec![fwd(2, 3)])),
                (EventSet::singleton(e0), mk(vec![fwd(2, 3), fwd(3, 2)])),
            ],
        )
        .unwrap()
    }

    /// The layout returns the rule `g(set_of(tag)).table(sw)` picks for
    /// every `(port, dst, tag)` the firewall distinguishes.
    #[test]
    fn the_layout_picks_each_tags_own_rule() {
        let nes = CompiledNes::compile(firewall_nes());
        let mut layout = PerTagTables::deploy(nes.nes(), &[1]);
        for tag in 0..nes.tag_count() as u64 {
            for pt in [2u64, 3, 9] {
                for dst in [200u64, 300, 7] {
                    let mut pk = Packet::new().with(Field::IpDst, dst);
                    pk.set_loc(Loc::new(1, pt));
                    pk.set(Field::Tag, tag);
                    assert_eq!(
                        layout.lookup_on(0, tag, &pk),
                        nes.table(1, tag).unwrap().lookup_on(&pk),
                        "diverged at tag {tag}, pt {pt}, dst {dst}"
                    );
                }
            }
        }
    }

    /// Unknown switches and out-of-range tags drop.
    #[test]
    fn unknown_switch_or_tag_drops_everywhere() {
        let nes = CompiledNes::compile(firewall_nes());
        let mut pk = Packet::new().with(Field::IpDst, 300);
        pk.set_loc(Loc::new(1, 2));
        pk.set(Field::Tag, 0);
        let mut bad_tag = pk.clone();
        bad_tag.set(Field::Tag, 99);
        let mut layout = PerTagTables::deploy(nes.nes(), &[1]);
        // A switch outside the deployment gets the plane's next free slot,
        // past every row.
        assert!(layout.lookup_on(1, 0, &pk).is_none(), "unknown switch");
        assert!(layout.lookup_on(0, 99, &bad_tag).is_none(), "unknown tag");
    }

    /// The per-tag layout holds one index per prefix chain: the
    /// firewall's second table extends its first. A listed switch no
    /// configuration installs a table on has a slot and no row.
    #[test]
    fn layout_introspection_reports_the_expected_shape() {
        let nes = CompiledNes::compile(firewall_nes());
        let per_tag = PerTagTables::deploy(nes.nes(), &[2, 1]);
        let t = &per_tag.tables;
        assert_eq!(t.chains(), 1, "switch 1's chain");
        assert_eq!((t.rows(), t.cells()), (1, 2));
        assert_eq!(t.indexed_rules(), 2, "the chain's longest member is what is indexed");
        assert_eq!((per_tag.slot(1), per_tag.slot(2), per_tag.slots()), (Some(0), Some(1), 2));
    }

    /// An event that *removes* and *reinstalls* switches: the per-tag
    /// layout answers to each configuration's own table, present or not.
    #[test]
    fn per_tag_handles_removed_and_added_switches() {
        let fwd = Rule::new(
            Match::new().with(Field::Port, 1),
            ActionSet::single(Action::assign(Field::Port, 2)),
        );
        let mut c0 = Config::new();
        c0.install(1, FlowTable::from_rules([fwd.clone()]));
        let mut c1 = Config::new();
        c1.install(2, FlowTable::from_rules([fwd.clone()]));
        let e0 = EventId::new(0);
        let es = EventStructure::new(
            vec![Event::new(e0, Pred::True, Loc::new(1, 1))],
            [EventSet::singleton(e0)],
        );
        let nes = CompiledNes::compile(
            NetworkEventStructure::new(
                es,
                [(EventSet::empty(), c0), (EventSet::singleton(e0), c1)],
            )
            .unwrap(),
        );
        let mut per_tag = PerTagTables::deploy(nes.nes(), &[]);
        assert_eq!((per_tag.slot(1), per_tag.slot(2)), (Some(0), Some(1)), "rows are slots");
        for tag in [0u64, 1] {
            for (slot, sw) in [1, 2].into_iter().enumerate() {
                let mut pk = Packet::new();
                pk.set_loc(Loc::new(sw, 1));
                pk.set(Field::Tag, tag);
                let installed = sw == tag + 1;
                assert_eq!(
                    per_tag.lookup_on(slot, tag, &pk),
                    installed.then_some(&fwd),
                    "sw {sw} tag {tag}"
                );
            }
        }
    }
}

/// The per-tag layout against its specification, on random small NESs:
/// `g(set_of(tag)).table(sw)` itself.
#[cfg(test)]
mod proptests {
    use super::*;
    use crate::campaign::{campaign_nes, campaign_pred, CampaignStep};
    use crate::compile::CompiledNes;
    use edn_core::Config;
    use netkat::{Action, ActionSet, FlowTable, LocatedView, Match};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// A small universe keeps random packets colliding with random rules.
    const FIELDS: [Field; 4] = [Field::Port, Field::Vlan, Field::IpSrc, Field::IpDst];

    fn arb_rules() -> impl Strategy<Value = Vec<Rule>> {
        let pattern = proptest::collection::vec((0usize..FIELDS.len(), 0u64..4), 0..3)
            .prop_map(|fs| fs.into_iter().map(|(i, v)| (FIELDS[i], v)).collect::<Match>());
        let actions = prop_oneof![
            Just(ActionSet::drop()),
            Just(ActionSet::pass()),
            (0usize..FIELDS.len(), 0u64..4)
                .prop_map(|(i, v)| ActionSet::single(Action::assign(FIELDS[i], v))),
        ];
        proptest::collection::vec((pattern, actions).prop_map(|(m, a)| Rule::new(m, a)), 0..12)
    }

    /// Switch → rule list, the raw material of a [`Config`].
    fn arb_tables() -> impl Strategy<Value = BTreeMap<u64, Vec<Rule>>> {
        proptest::collection::vec((1u64..6, arb_rules()), 0..4)
            .prop_map(|kv| kv.into_iter().collect())
    }

    /// What a campaign step does to one switch's table.
    #[derive(Clone, Debug)]
    enum Edit {
        /// Replaces (or adds) the table.
        Replace(Vec<Rule>),
        /// Adds rules below the ones installed — the step that makes the
        /// next table a prefix extension of this one.
        Append(Vec<Rule>),
        /// Keeps the first `n` rules (at most): a prefix of the table before.
        Truncate(usize),
        /// Removes the switch outright.
        Remove,
    }

    /// One campaign step's edits, appends as likely as everything else
    /// together so chains of several tables actually form.
    fn arb_edits() -> impl Strategy<Value = BTreeMap<u64, Edit>> {
        let edit = prop_oneof![
            arb_rules().prop_map(Edit::Replace),
            arb_rules().prop_map(Edit::Append),
            arb_rules().prop_map(Edit::Append),
            arb_rules().prop_map(Edit::Append),
            (0usize..12).prop_map(Edit::Truncate),
            Just(Edit::Remove),
        ];
        proptest::collection::vec((1u64..6, edit), 0..4).prop_map(|kv| kv.into_iter().collect())
    }

    fn config_of(tables: &BTreeMap<u64, Vec<Rule>>) -> Config {
        let mut config = Config::new();
        for (&sw, rules) in tables {
            config.install(sw, FlowTable::from_rules(rules.iter().cloned()));
        }
        config
    }

    /// The chain NES whose step `i` applies `steps[i]` to the tables so far
    /// — most switches untouched, a few extended, replaced or cut short,
    /// the odd one added or removed. Every table is built from its own
    /// rules, so no two share a list: chains are found by value.
    fn chain_nes(
        mut tables: BTreeMap<u64, Vec<Rule>>,
        steps: Vec<BTreeMap<u64, Edit>>,
    ) -> CompiledNes {
        let initial = config_of(&tables);
        let steps = steps
            .into_iter()
            .enumerate()
            .map(|(i, edits)| {
                for (sw, edit) in edits {
                    match edit {
                        Edit::Replace(rules) => drop(tables.insert(sw, rules)),
                        Edit::Append(rules) => tables.entry(sw).or_default().extend(rules),
                        Edit::Truncate(n) => tables.entry(sw).or_default().truncate(n),
                        Edit::Remove => drop(tables.remove(&sw)),
                    }
                }
                CampaignStep {
                    trigger: campaign_pred(i),
                    loc: Loc::new(1, 1),
                    config: config_of(&tables),
                }
            })
            .collect();
        CompiledNes::compile(campaign_nes(initial, steps).expect("chain NES builds"))
    }

    /// The number of prefix chains the deployment's tables fall into,
    /// counted on plain rule vectors: per switch, in tag order, a table
    /// joins the chain at hand if it starts the chain's longest table or is
    /// started by it, and opens the next chain otherwise.
    fn chain_count(nes: &CompiledNes, switches: &[u64]) -> usize {
        let mut chains = 0;
        for &sw in switches {
            let mut longest: Option<Vec<Rule>> = None;
            for tag in 0..nes.tag_count() as u64 {
                let table: Vec<Rule> =
                    nes.table(sw, tag).map(|t| t.iter().cloned().collect()).unwrap_or_default();
                match &mut longest {
                    Some(longest) if longest.starts_with(&table) => {}
                    Some(longest) if table.starts_with(longest) => *longest = table,
                    _ => {
                        chains += 1;
                        longest = Some(table);
                    }
                }
            }
        }
        chains
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// For every `(switch, tag, packet)` — unknown switches and
        /// out-of-range tags included — the deployed lookup is the rule
        /// `g(set_of(tag)).table(sw)` picks.
        #[test]
        fn per_tag_layout_answers_like_the_spec(
            tables in arb_tables(),
            steps in proptest::collection::vec(arb_edits(), 0..6),
            listed in proptest::collection::vec(0u64..7, 0..4),
            random in proptest::collection::vec(
                proptest::collection::vec((0usize..FIELDS.len(), 0u64..4), 0..4),
                6,
            ),
        ) {
            let nes = chain_nes(tables, steps);
            let mut deployment = PerTagTables::deploy(nes.nes(), &listed);
            let tags = nes.tag_count() as u64;
            // The rows: every switch some tag's table is installed on, ascending.
            let switches: Vec<u64> =
                (0..7).filter(|&sw| (0..tags).any(|tag| nes.table(sw, tag).is_some())).collect();
            prop_assert_eq!(deployment.tables.chains(), chain_count(&nes, &switches));
            prop_assert_eq!(deployment.tables.cells(), switches.len() * tags as usize);
            for (row, &sw) in switches.iter().enumerate() {
                prop_assert_eq!(deployment.slot(sw), Some(row));
            }

            // Random packets plus every installed pattern read back as a
            // packet (a guaranteed candidate hit, shadowed or not).
            let mut probes: Vec<Packet> = random
                .into_iter()
                .map(|fs| fs.into_iter().map(|(i, v)| (FIELDS[i], v)).collect())
                .collect();
            for tag in 0..tags {
                for &sw in &switches {
                    if let Some(table) = nes.table(sw, tag) {
                        probes.extend(table.iter().map(|r| r.pattern.iter().collect::<Packet>()));
                    }
                }
            }

            for sw in 0..7u64 {
                // A switch outside the deployment gets the next free slot.
                let slot = deployment.slot_of(sw);
                for tag in 0..tags + 2 {
                    let spec = (tag < tags)
                        .then(|| nes.nes().config(nes.set_of(tag)).table(sw))
                        .flatten();
                    for base in &probes {
                        let pt = base.get(Field::Port).unwrap_or(0);
                        let view = LocatedView { base, loc: Loc::new(sw, pt), tag: Some(tag) };
                        let want = spec.and_then(|t| t.lookup_on(&view));
                        prop_assert_eq!(
                            deployment.lookup_on(slot, tag, &view),
                            want,
                            "lookup at sw {} tag {} on {}", sw, tag, base
                        );
                    }
                }
            }
        }
    }
}
