//! The table layout: how a compiled NES's rules actually reach the data
//! plane.
//!
//! There is one layout (Section 4.1): every `(switch, tag)` slot answers
//! from `g(set_of(tag)).table(sw)`, the dispatch on `(switch, tag)` *is* the
//! tag guard, and no rule is rewritten or copied. What is compiled is one
//! index per *prefix chain*: a switch's tables, in tag order, where each
//! either extends the longest so far or is a prefix of it — the paper's own
//! firewall (`[fwd(2,3)]` → `[fwd(2,3), fwd(3,2)]`), a campaign step that
//! unblocks a host, and "this step left the switch alone" (the equal-length
//! case) are all that shape. The chain's longest table is indexed once and a
//! slot is `(index, len)`: the tag guard on rule *k* of a chain is the bound
//! `k < len`, not a copy of the rule per tag
//! ([`CompiledTable::lookup_within`]). The guarded rendering the paper
//! installs on hardware is [`SwitchProgram`](crate::SwitchProgram), built on
//! demand and pinned equal to this layout by this module's proptest. (The
//! Section 5.3 rule-sharing optimizer is an offline artefact — the
//! `rule-optimizer` crate, Fig. 17 — and was retired as a lookup-path
//! layout after losing its trial; see ARCHITECTURE.md.)

use std::collections::BTreeSet;

use netkat::{prefix_chains, CompiledTable, FieldReader, FlowTable, Rule};

use crate::compile::CompiledNes;

/// The plane's dense switch order: the deployment list, then any switch
/// only a configuration names, each once — so every installed table has a
/// slot.
pub(crate) fn dense_switches(nes: &CompiledNes, listed: &[u64]) -> Vec<u64> {
    let installed =
        (0..nes.tag_count() as u64).flat_map(|tag| nes.nes().config(nes.set_of(tag)).switches());
    let mut seen = BTreeSet::new();
    listed.iter().copied().chain(installed).filter(|&sw| seen.insert(sw)).collect()
}

/// The installed tables of one deployment: one [`CompiledTable`] per prefix
/// chain of a switch's per-tag tables (see the module docs), compiled
/// straight from the chain's longest `g(set_of(tag)).table(sw)`; no tag
/// guard is written into the rules.
#[derive(Clone, Debug)]
pub(crate) struct PerTagTables {
    /// One index per chain, over the chain's longest table.
    compiled: Vec<CompiledTable>,
    /// `slots[slot * tags + tag]` → `(index into compiled, how many of its
    /// rules the tag's table holds)`, one row per dense switch slot of the
    /// plane — a hop's dispatch is one multiply and two array reads, no tree
    /// walk.
    slots: Vec<(u32, u32)>,
    /// Row width of `slots` (the NES's tag count).
    tags: usize,
}

impl PerTagTables {
    /// Builds the layout. `switches[slot]` is the switch the plane keeps
    /// at dense slot `slot` (see [`dense_switches`]).
    pub(crate) fn build(nes: &CompiledNes, switches: &[u64]) -> PerTagTables {
        let tags = nes.tag_count();
        let empty = FlowTable::new();
        let mut compiled: Vec<CompiledTable> = Vec::new();
        let mut slots = Vec::with_capacity(switches.len() * tags);
        let mut tables: Vec<&FlowTable> = Vec::with_capacity(tags);
        for &sw in switches {
            tables.clear();
            tables.extend((0..tags as u64).map(|tag| nes.table(sw, tag).unwrap_or(&empty)));
            for (longest, members) in prefix_chains(&tables) {
                let index = compiled.len() as u32;
                slots.extend(tables[members].iter().map(|t| (index, t.len() as u32)));
                compiled.push(longest.compile());
            }
        }
        PerTagTables { compiled, slots, tags }
    }

    /// The forwarding rule for a packet at dense switch slot `slot` under
    /// `tag`, read through `view`. An unknown switch or an out-of-range tag
    /// has no table and drops.
    pub(crate) fn lookup_on<R: FieldReader>(
        &self,
        slot: usize,
        tag: u64,
        view: &R,
    ) -> Option<&Rule> {
        if tag >= self.tags as u64 {
            return None;
        }
        let &(index, len) = self.slots.get(slot * self.tags + tag as usize)?;
        self.compiled[index as usize].lookup_within(len as usize, view)
    }

    /// Summed fingerprint probe outcomes of every compiled index.
    pub(crate) fn lookup_stats(&self) -> (u64, u64) {
        self.compiled
            .iter()
            .map(CompiledTable::lookup_stats)
            .fold((0, 0), |(h, f), (dh, df)| (h + dh, f + df))
    }

    /// The layout's size: `(compiled indexes, rules they index, (switch,
    /// tag) slots they serve)`.
    pub(crate) fn shape(&self) -> (usize, usize, usize) {
        (self.compiled.len(), self.compiled.iter().map(CompiledTable::len).sum(), self.slots.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edn_core::{Config, Event, EventId, EventSet, EventStructure, NetworkEventStructure};
    use netkat::{Action, ActionSet, Field, Loc, Match, Packet, Pred};

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
    fn all_layouts_forward_identically() {
        let nes = CompiledNes::compile(firewall_nes());
        let layout = PerTagTables::build(&nes, &[1]);
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
        let layout = PerTagTables::build(&nes, &[1]);
        // A switch outside the deployment gets the plane's next free slot,
        // past every row.
        assert!(layout.lookup_on(1, 0, &pk).is_none(), "unknown switch");
        assert!(layout.lookup_on(0, 99, &bad_tag).is_none(), "unknown tag");
    }

    /// The per-tag layout compiles one index per prefix chain: the
    /// firewall's second table extends its first, and a switch no
    /// configuration installs a table on is one empty chain.
    #[test]
    fn layout_introspection_reports_the_expected_shape() {
        let nes = CompiledNes::compile(firewall_nes());
        // Slot 1 is a listed switch no configuration installs a table on.
        let per_tag = PerTagTables::build(&nes, &[1, 2]);
        assert_eq!(per_tag.compiled.len(), 2, "switch 1's chain + switch 2's shared empty");
        assert_eq!(per_tag.slots, vec![(0, 1), (0, 2), (1, 0), (1, 0)]);
        assert_eq!(per_tag.compiled[0].len(), 2, "the chain's longest member is what is indexed");
        assert_eq!(per_tag.shape(), (2, 2, 4));
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
        let switches = dense_switches(&nes, &[]);
        assert_eq!(switches, vec![1, 2], "configuration-only switches get slots");
        let per_tag = PerTagTables::build(&nes, &switches);
        for tag in [0u64, 1] {
            for (slot, &sw) in switches.iter().enumerate() {
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

/// The per-tag layout against its two specifications, on random small
/// NESs: `g(set_of(tag)).table(sw)` itself, and the Section 4.1 tag-guarded
/// [`SwitchProgram`](crate::SwitchProgram) rendering.
#[cfg(test)]
mod proptests {
    use super::*;
    use crate::campaign::{campaign_nes, campaign_pred, CampaignStep};
    use edn_core::Config;
    use netkat::{Action, ActionSet, Field, Loc, LocatedView, Match, Packet};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// A small universe keeps random packets colliding with random rules
    /// (the strategies of `tests/delta_equivalence.rs`).
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
        /// `g(set_of(tag)).table(sw)` picks, and forwards like the guarded
        /// program's.
        #[test]
        fn per_tag_layout_answers_like_the_spec_and_the_guarded_program(
            tables in arb_tables(),
            steps in proptest::collection::vec(arb_edits(), 0..6),
            listed in proptest::collection::vec(0u64..7, 0..4),
            random in proptest::collection::vec(
                proptest::collection::vec((0usize..FIELDS.len(), 0u64..4), 0..4),
                6,
            ),
        ) {
            let nes = chain_nes(tables, steps);
            let switches = dense_switches(&nes, &listed);
            let deployment = PerTagTables::build(&nes, &switches);
            let tags = nes.tag_count() as u64;
            prop_assert_eq!(deployment.compiled.len(), chain_count(&nes, &switches));
            prop_assert_eq!(deployment.slots.len(), switches.len() * tags as usize);

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
                let slot = switches.iter().position(|&s| s == sw).unwrap_or(switches.len());
                let program = nes.switch_program(sw);
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
                        prop_assert_eq!(
                            program.table.lookup_on(&view).map(|r| &r.actions),
                            want.map(|r| &r.actions),
                            "guarded program at sw {} tag {} on {}", sw, tag, base
                        );
                    }
                }
            }
        }
    }
}
