//! Deployment knobs and table layouts: how a compiled NES's rules actually
//! reach the data plane.
//!
//! Two layouts implement the same forwarding function:
//!
//! * **Per-tag** (the default, Section 4.1): one compiled table per
//!   distinct `(switch, tag)` table, built straight from
//!   `g(set_of(tag)).table(sw)`. The dispatch on `(switch, tag)` *is* the
//!   tag guard, so no rule is rewritten or copied; a switch a step leaves
//!   untouched shares the previous tag's table. The guarded rendering the
//!   paper installs on hardware is [`SwitchProgram`](crate::SwitchProgram),
//!   built on demand and pinned equal to this layout by this module's
//!   proptest.
//! * **Optimized** (`EDN_OPTIMIZE=on`, Section 5.3): the rule-sharing trie
//!   assigns each tag a new ID and installs each rule once, guarded by a
//!   wildcard ID mask, at the highest trie node containing it.
//!
//! The differential suites (`tests/delta_equivalence.rs`,
//! `tests/plumbing_equivalence.rs`) pin both byte-identical on full runs.

use std::collections::{BTreeMap, BTreeSet};

use edn_core::Config;
use netkat::{ActionSet, CompiledTable, FieldReader, FlowTable, LookupPath, Match, Rule};
use rule_optimizer::WildcardMask;

use crate::compile::CompiledNes;

/// Whether the Section 5.3 rule-sharing optimizer sits on the hot path.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum OptimizeMode {
    /// Plain per-tag tables (every configuration's table installed).
    #[default]
    Off,
    /// Trie-compressed tables: shared rules installed once under wildcard
    /// ID guards, packet tags translated to trie IDs at lookup.
    On,
}

impl OptimizeMode {
    /// Reads `EDN_OPTIMIZE` (default [`Off`](OptimizeMode::Off)).
    ///
    /// # Panics
    ///
    /// Panics if `EDN_OPTIMIZE` is set to anything but `off` or `on`.
    pub fn from_env() -> OptimizeMode {
        match std::env::var("EDN_OPTIMIZE") {
            Ok(v) if v == "off" => OptimizeMode::Off,
            Ok(v) if v == "on" => OptimizeMode::On,
            Ok(v) => panic!("EDN_OPTIMIZE must be `off` or `on`, got {v:?}"),
            Err(_) => OptimizeMode::Off,
        }
    }

    /// The label used in benchmark output (`off` / `on`).
    pub fn label(&self) -> &'static str {
        match self {
            OptimizeMode::Off => "off",
            OptimizeMode::On => "on",
        }
    }

    /// Whether the optimizer is enabled.
    pub fn is_on(&self) -> bool {
        *self == OptimizeMode::On
    }
}

/// The full set of deployment knobs, resolved once at construction so runs
/// never consult the environment mid-flight.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DeployKnobs {
    /// Flow-table lookup implementation (`EDN_LOOKUP`).
    pub path: LookupPath,
    /// Rule-sharing optimizer on the hot path (`EDN_OPTIMIZE`).
    pub optimize: OptimizeMode,
}

impl DeployKnobs {
    /// Resolves every knob from the environment.
    pub fn from_env() -> DeployKnobs {
        DeployKnobs { path: LookupPath::from_env(), optimize: OptimizeMode::from_env() }
    }

    /// These knobs with an explicit lookup path.
    pub fn with_path(self, path: LookupPath) -> DeployKnobs {
        DeployKnobs { path, ..self }
    }
}

/// The plane's dense switch order: the deployment list, then any switch
/// only a configuration names, each once — so every installed table has a
/// slot.
pub(crate) fn dense_switches(nes: &CompiledNes, listed: &[u64]) -> Vec<u64> {
    let installed =
        (0..nes.tag_count() as u64).flat_map(|tag| nes.nes().config(nes.set_of(tag)).switches());
    let mut seen = BTreeSet::new();
    listed.iter().copied().chain(installed).filter(|&sw| seen.insert(sw)).collect()
}

/// The installed tables of one deployment, in the layout the knobs chose.
#[derive(Clone, Debug)]
pub(crate) enum Deployment {
    /// One compiled table per distinct `(switch, tag)` table.
    PerTag(PerTagTables),
    /// Trie-compressed wildcard-guarded tables.
    Optimized(OptimizedTables),
}

impl Deployment {
    /// Builds the layout the knobs select. `switches[slot]` is the switch
    /// the plane keeps at dense slot `slot` (see [`dense_switches`]).
    pub(crate) fn deploy(nes: &CompiledNes, knobs: DeployKnobs, switches: &[u64]) -> Deployment {
        if knobs.optimize.is_on() {
            return Deployment::Optimized(OptimizedTables::from_sets(&nes.prioritized_rule_sets()));
        }
        Deployment::PerTag(PerTagTables::build(nes, switches))
    }

    /// The forwarding rule for a packet at `(sw, tag)`, read through `view`;
    /// `slot` is `sw`'s dense slot in the plane. An unknown switch or an
    /// out-of-range tag has no table and drops. The linear path reads the
    /// specification itself, `g(set_of(tag)).table(sw)`, which the plane
    /// owns through `nes`.
    pub(crate) fn lookup_on<'a, R: FieldReader>(
        &'a self,
        nes: &'a CompiledNes,
        path: LookupPath,
        slot: usize,
        sw: u64,
        tag: u64,
        view: &R,
    ) -> Option<&'a Rule> {
        match (self, path) {
            (Deployment::PerTag(_), LookupPath::Linear) => nes.table(sw, tag)?.lookup_on(view),
            (Deployment::PerTag(tables), LookupPath::Indexed) => {
                tables.table(slot, tag)?.lookup_on(view)
            }
            // The optimizer owns its layout: both lookup paths dispatch
            // through the same guarded scan.
            (Deployment::Optimized(tables), _) => tables.lookup_on(sw, tag, view),
        }
    }

    /// Summed fingerprint probe outcomes of every distinct compiled table
    /// in the layout (the optimized layout has no fingerprint index).
    pub(crate) fn lookup_stats(&self) -> (u64, u64) {
        match self {
            Deployment::PerTag(tables) => tables
                .compiled
                .iter()
                .map(CompiledTable::lookup_stats)
                .fold((0, 0), |(h, f), (dh, df)| (h + dh, f + df)),
            Deployment::Optimized(_) => (0, 0),
        }
    }

    /// `(installed, original)` rule counts, if this is the optimized
    /// layout.
    pub(crate) fn optimized_rule_counts(&self) -> Option<(usize, usize)> {
        match self {
            Deployment::Optimized(tables) => Some(tables.rule_counts()),
            Deployment::PerTag(_) => None,
        }
    }
}

/// One [`CompiledTable`] per *distinct* `(switch, tag)` table, compiled
/// straight from `g(set_of(tag)).table(sw)`: no tag guard is written into
/// the rules (the dispatch on `(switch, tag)` is the guard), and a switch a
/// step leaves untouched re-uses the previous tag's table.
#[derive(Clone, Debug)]
pub(crate) struct PerTagTables {
    /// The distinct compiled tables.
    compiled: Vec<CompiledTable>,
    /// `slots[slot * tags + tag]` → index into `compiled`, one row per
    /// dense switch slot of the plane — a hop's dispatch is one multiply
    /// and two array reads, no tree walk.
    slots: Vec<u32>,
    /// Row width of `slots` (the NES's tag count).
    tags: usize,
}

impl PerTagTables {
    fn build(nes: &CompiledNes, switches: &[u64]) -> PerTagTables {
        let tags = nes.tag_count();
        let empty = FlowTable::new();
        let mut compiled: Vec<CompiledTable> = Vec::new();
        let mut slots = Vec::with_capacity(switches.len() * tags);
        for &sw in switches {
            let mut prev: Option<&FlowTable> = None;
            for tag in 0..tags as u64 {
                let table = nes.table(sw, tag).unwrap_or(&empty);
                if prev != Some(table) {
                    compiled.push(table.compile());
                }
                slots.push(compiled.len() as u32 - 1);
                prev = Some(table);
            }
        }
        PerTagTables { compiled, slots, tags }
    }

    fn table(&self, slot: usize, tag: u64) -> Option<&CompiledTable> {
        if tag >= self.tags as u64 {
            return None;
        }
        let index = *self.slots.get(slot * self.tags + tag as usize)?;
        Some(&self.compiled[index as usize])
    }
}

/// The Section 5.3 trie-compressed layout: every rule installed once,
/// guarded by a wildcard mask over the trie-assigned configuration ID;
/// packet tags are translated to IDs at lookup, so traces keep the
/// canonical tag stamps and stay byte-identical to the plain layouts.
#[derive(Clone, Debug)]
pub(crate) struct OptimizedTables {
    /// `new_id[tag]` → the trie's ID for that configuration.
    new_id: Vec<u64>,
    /// Per-switch guarded rules, stably sorted by original priority. For
    /// any single ID at most one rule per priority is mask-active, so the
    /// ascending-priority first-match scan reproduces exact table order.
    switches: BTreeMap<u64, Vec<(WildcardMask, Rule)>>,
    /// Rules installed after sharing.
    installed: usize,
    /// Rules before sharing (one full copy per configuration).
    original: usize,
}

impl OptimizedTables {
    /// Runs the trie heuristic on per-tag `(switch, priority, match,
    /// actions)` rule sets and lays the guarded output out per switch.
    fn from_sets(sets: &[BTreeSet<(u64, u32, Match, ActionSet)>]) -> OptimizedTables {
        let opt = rule_optimizer::optimize(sets);
        let new_id =
            (0..sets.len()).map(|i| opt.id_of(i).expect("every configuration is placed")).collect();
        let installed = opt.optimized_count();
        let original = opt.original_count;
        let mut by_switch: BTreeMap<u64, Vec<(WildcardMask, u32, Rule)>> = BTreeMap::new();
        for (mask, (sw, prio, pattern, actions)) in opt.guarded_rules {
            by_switch.entry(sw).or_default().push((mask, prio, Rule::new(pattern, actions)));
        }
        let switches = by_switch
            .into_iter()
            .map(|(sw, mut rules)| {
                rules.sort_by_key(|&(_, prio, _)| prio);
                (sw, rules.into_iter().map(|(mask, _, rule)| (mask, rule)).collect())
            })
            .collect();
        OptimizedTables { new_id, switches, installed, original }
    }

    /// The degenerate single-configuration case (a static deployment): one
    /// leaf, all-wildcard guards.
    pub(crate) fn from_config(config: &Config) -> OptimizedTables {
        let mut rules = BTreeSet::new();
        for sw in config.switches() {
            if let Some(table) = config.table(sw) {
                for (prio, rule) in table.iter().enumerate() {
                    rules.insert((sw, prio as u32, rule.pattern.clone(), rule.actions.clone()));
                }
            }
        }
        OptimizedTables::from_sets(&[rules])
    }

    /// First mask-active match in priority order.
    pub(crate) fn lookup_on<R: FieldReader>(&self, sw: u64, tag: u64, view: &R) -> Option<&Rule> {
        let id = *self.new_id.get(tag as usize)?;
        self.switches
            .get(&sw)?
            .iter()
            .find(|(mask, rule)| mask.matches(id) && rule.pattern.matches_on(view))
            .map(|(_, rule)| rule)
    }

    /// `(installed, original)` rule counts — the optimizer's savings.
    pub(crate) fn rule_counts(&self) -> (usize, usize) {
        (self.installed, self.original)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edn_core::{Event, EventId, EventSet, EventStructure, NetworkEventStructure};
    use netkat::{Action, Field, Loc, Packet, Pred};

    /// The firewall NES used across the runtime tests: one switch, two
    /// hosts, a reply rule unlocked by e0. Crucially config `{e0}` keeps
    /// the shared 2→3 rule, so the optimizer has something to share.
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

    /// Both layouts over the firewall's one switch (slot 0).
    fn layouts(nes: &CompiledNes) -> Vec<(&'static str, Deployment)> {
        let optimized = DeployKnobs { optimize: OptimizeMode::On, ..DeployKnobs::default() };
        vec![
            ("per-tag", Deployment::deploy(nes, DeployKnobs::default(), &[1])),
            ("optimized", Deployment::deploy(nes, optimized, &[1])),
        ]
    }

    /// Both layouts, on both lookup paths, return rules with identical
    /// actions for every `(port, dst, tag)` the firewall distinguishes.
    #[test]
    fn all_layouts_forward_identically() {
        let nes = CompiledNes::compile(firewall_nes());
        let layouts = layouts(&nes);
        for tag in 0..nes.tag_count() as u64 {
            for pt in [2u64, 3, 9] {
                for dst in [200u64, 300, 7] {
                    let mut pk = Packet::new().with(Field::IpDst, dst);
                    pk.set_loc(Loc::new(1, pt));
                    pk.set(Field::Tag, tag);
                    let reference = nes.table(1, tag).unwrap().lookup_on(&pk).map(|r| &r.actions);
                    for (name, layout) in &layouts {
                        for path in [LookupPath::Linear, LookupPath::Indexed] {
                            let got =
                                layout.lookup_on(&nes, path, 0, 1, tag, &pk).map(|r| &r.actions);
                            assert_eq!(
                                got,
                                reference,
                                "{name}/{} diverged at tag {tag}, pt {pt}, dst {dst}",
                                path.label()
                            );
                        }
                    }
                }
            }
        }
    }

    /// Unknown switches and out-of-range tags drop on every layout.
    #[test]
    fn unknown_switch_or_tag_drops_everywhere() {
        let nes = CompiledNes::compile(firewall_nes());
        let mut pk = Packet::new().with(Field::IpDst, 300);
        pk.set_loc(Loc::new(1, 2));
        pk.set(Field::Tag, 0);
        let mut bad_tag = pk.clone();
        bad_tag.set(Field::Tag, 99);
        for (name, layout) in layouts(&nes) {
            for path in [LookupPath::Linear, LookupPath::Indexed] {
                // Switch 77 is outside the deployment: the plane hands it
                // the next free slot, past every row.
                assert!(
                    layout.lookup_on(&nes, path, 1, 77, 0, &pk).is_none(),
                    "{name}: unknown switch"
                );
                assert!(
                    layout.lookup_on(&nes, path, 0, 1, 99, &bad_tag).is_none(),
                    "{name}: unknown tag"
                );
            }
        }
    }

    /// The per-tag layout compiles one table per *distinct* `(switch, tag)`
    /// table — a switch the event leaves alone shares its table across
    /// tags; the optimizer shares the common 2→3 rule.
    #[test]
    fn layout_introspection_reports_the_expected_shape() {
        let nes = CompiledNes::compile(firewall_nes());
        // Slot 1 is a listed switch no configuration installs a table on.
        let Deployment::PerTag(per_tag) = Deployment::deploy(&nes, DeployKnobs::default(), &[1, 2])
        else {
            panic!("the default layout is per-tag");
        };
        assert_eq!(per_tag.compiled.len(), 3, "switch 1's two tables + switch 2's shared empty");
        assert_eq!(per_tag.slots, vec![0, 1, 2, 2]);
        assert!(per_tag.table(1, 0).unwrap().is_empty());
        let layouts = layouts(&nes);
        assert_eq!(layouts[0].1.optimized_rule_counts(), None);
        let (installed, original) = layouts[1].1.optimized_rule_counts().expect("optimized layout");
        assert_eq!(original, 3, "one full copy per configuration");
        assert_eq!(installed, 2, "the shared 2→3 rule is installed once");
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
        let per_tag = Deployment::deploy(&nes, DeployKnobs::default(), &switches);
        for tag in [0u64, 1] {
            for (slot, &sw) in switches.iter().enumerate() {
                let mut pk = Packet::new();
                pk.set_loc(Loc::new(sw, 1));
                pk.set(Field::Tag, tag);
                let installed = sw == tag + 1;
                assert_eq!(
                    per_tag.lookup_on(&nes, LookupPath::Indexed, slot, sw, tag, &pk),
                    installed.then_some(&fwd),
                    "sw {sw} tag {tag}"
                );
            }
        }
    }

    /// The degenerate static-plane case: one configuration, all-wildcard
    /// guards, same lookups as the raw table.
    #[test]
    fn static_optimized_matches_the_raw_table() {
        let mut config = Config::new();
        config.install(
            1,
            FlowTable::from_rules([
                Rule::new(Match::new().with(Field::Port, 2), ActionSet::drop()),
                Rule::new(
                    Match::new().with(Field::Port, 2).with(Field::IpDst, 9),
                    ActionSet::single(Action::assign(Field::Port, 3)),
                ),
            ]),
        );
        let optimized = OptimizedTables::from_config(&config);
        let table = config.table(1).unwrap();
        for pt in [2u64, 3] {
            for dst in [9u64, 10] {
                let mut pk = Packet::new().with(Field::IpDst, dst);
                pk.set_loc(Loc::new(1, pt));
                assert_eq!(
                    optimized.lookup_on(1, 0, &pk).map(|r| &r.actions),
                    table.lookup_on(&pk).map(|r| &r.actions),
                    "pt {pt} dst {dst}"
                );
            }
        }
        // Duplicate-priority first-wins: the overlapping drop rule sits at
        // priority 0 and shadows the more specific rule, as in the table.
        let mut pk = Packet::new().with(Field::IpDst, 9);
        pk.set_loc(Loc::new(1, 2));
        assert!(optimized.lookup_on(1, 0, &pk).unwrap().actions.is_drop());
    }

    #[test]
    fn knob_parsing_defaults_and_labels() {
        assert_eq!(OptimizeMode::default(), OptimizeMode::Off);
        assert_eq!(OptimizeMode::Off.label(), "off");
        assert_eq!(OptimizeMode::On.label(), "on");
        assert!(OptimizeMode::On.is_on());
        assert!(!OptimizeMode::Off.is_on());
        let knobs = DeployKnobs::default().with_path(LookupPath::Linear);
        assert_eq!(knobs.path, LookupPath::Linear);
        assert_eq!(knobs.optimize, OptimizeMode::Off);
    }
}

/// The per-tag layout against its two specifications, on random small
/// NESs: `g(set_of(tag)).table(sw)` itself, and the Section 4.1 tag-guarded
/// [`SwitchProgram`](crate::SwitchProgram) rendering.
#[cfg(test)]
mod proptests {
    use super::*;
    use crate::campaign::{campaign_nes, campaign_pred, CampaignStep};
    use netkat::{Action, Field, Loc, LocatedView, Packet};
    use proptest::prelude::*;

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

    /// One campaign step's edits: `Some(rules)` replaces (or adds) a
    /// switch's table, `None` removes the switch outright.
    fn arb_edits() -> impl Strategy<Value = BTreeMap<u64, Option<Vec<Rule>>>> {
        proptest::collection::vec((1u64..6, proptest::option::of(arb_rules())), 0..4)
            .prop_map(|kv| kv.into_iter().collect())
    }

    fn config_of(tables: &BTreeMap<u64, Vec<Rule>>) -> Config {
        let mut config = Config::new();
        for (&sw, rules) in tables {
            config.install(sw, FlowTable::from_rules(rules.iter().cloned()));
        }
        config
    }

    /// The chain NES whose step `i` applies `steps[i]` to the tables so far
    /// — most switches untouched, a few replaced, the odd one added or
    /// removed.
    fn chain_nes(
        mut tables: BTreeMap<u64, Vec<Rule>>,
        steps: Vec<BTreeMap<u64, Option<Vec<Rule>>>>,
    ) -> CompiledNes {
        let initial = config_of(&tables);
        let steps = steps
            .into_iter()
            .enumerate()
            .map(|(i, edits)| {
                for (sw, edit) in edits {
                    match edit {
                        Some(rules) => tables.insert(sw, rules),
                        None => tables.remove(&sw),
                    };
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// For every `(switch, tag, packet)` — unknown switches and
        /// out-of-range tags included — the deployed lookup on both paths
        /// is the rule `g(set_of(tag)).table(sw)` picks, and forwards like
        /// the guarded program's.
        #[test]
        fn per_tag_layout_answers_like_the_spec_and_the_guarded_program(
            tables in arb_tables(),
            steps in proptest::collection::vec(arb_edits(), 0..4),
            listed in proptest::collection::vec(0u64..7, 0..4),
            random in proptest::collection::vec(
                proptest::collection::vec((0usize..FIELDS.len(), 0u64..4), 0..4),
                6,
            ),
        ) {
            let nes = chain_nes(tables, steps);
            let switches = dense_switches(&nes, &listed);
            let deployment = Deployment::deploy(&nes, DeployKnobs::default(), &switches);
            let tags = nes.tag_count() as u64;

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
                        for path in [LookupPath::Linear, LookupPath::Indexed] {
                            prop_assert_eq!(
                                deployment.lookup_on(&nes, path, slot, sw, tag, &view),
                                want,
                                "{} lookup at sw {} tag {} on {}", path.label(), sw, tag, base
                            );
                        }
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
