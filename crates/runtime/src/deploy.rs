//! Deployment knobs and table layouts: how a compiled NES's rules actually
//! reach the data plane.
//!
//! Three layouts implement the same forwarding function:
//!
//! * **Guarded** (the default, Section 4.1): one tag-guarded table per
//!   switch, every configuration recompiled from scratch and interleaved.
//! * **Per-tag delta** (`EDN_COMPILE=delta`): one table per `(switch, tag)`
//!   pair, where tag `t`'s table is produced by *patching* tag `t-1`'s with
//!   the [`ConfigDelta`](edn_core::ConfigDelta) between the two
//!   configurations — the OpenFlow-style minimal rule add/remove mods —
//!   instead of recompiling. Unaffected switches share the previous tag's
//!   table.
//! * **Optimized** (`EDN_OPTIMIZE=on`, Section 5.3): the rule-sharing trie
//!   assigns each tag a new ID and installs each rule once, guarded by a
//!   wildcard ID mask, at the highest trie node containing it.
//!
//! The differential suites (`tests/delta_equivalence.rs`,
//! `tests/plumbing_equivalence.rs`) pin all three byte-identical on full
//! runs.

use std::collections::{BTreeMap, BTreeSet};

use edn_core::Config;
use netkat::{ActionSet, CompiledTable, FieldReader, FlowTable, LookupPath, Match, Rule};
use rule_optimizer::WildcardMask;

use crate::compile::CompiledNes;
use crate::program::SwitchProgram;

/// How successive configurations are turned into installed tables.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CompilePath {
    /// Recompile every configuration from scratch into one guarded table
    /// per switch (the paper's Section 4.1 deployment).
    #[default]
    Scratch,
    /// Diff successive configurations and patch the previous tag's compiled
    /// table with the minimal rule mods.
    Delta,
}

impl CompilePath {
    /// Reads `EDN_COMPILE` (default [`Scratch`](CompilePath::Scratch)).
    ///
    /// # Panics
    ///
    /// Panics if `EDN_COMPILE` is set to anything but `scratch` or `delta`.
    pub fn from_env() -> CompilePath {
        match std::env::var("EDN_COMPILE") {
            Ok(v) if v == "scratch" => CompilePath::Scratch,
            Ok(v) if v == "delta" => CompilePath::Delta,
            Ok(v) => panic!("EDN_COMPILE must be `scratch` or `delta`, got {v:?}"),
            Err(_) => CompilePath::Scratch,
        }
    }

    /// The label used in benchmark output (`scratch` / `delta`).
    pub fn label(&self) -> &'static str {
        match self {
            CompilePath::Scratch => "scratch",
            CompilePath::Delta => "delta",
        }
    }
}

/// Whether the Section 5.3 rule-sharing optimizer sits on the hot path.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum OptimizeMode {
    /// Plain per-tag rules (one full copy per configuration).
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
    /// Scratch vs delta table construction (`EDN_COMPILE`).
    pub compile: CompilePath,
    /// Rule-sharing optimizer on the hot path (`EDN_OPTIMIZE`).
    pub optimize: OptimizeMode,
}

impl DeployKnobs {
    /// Resolves every knob from the environment.
    pub fn from_env() -> DeployKnobs {
        DeployKnobs {
            path: LookupPath::from_env(),
            compile: CompilePath::from_env(),
            optimize: OptimizeMode::from_env(),
        }
    }

    /// These knobs with an explicit lookup path.
    pub fn with_path(self, path: LookupPath) -> DeployKnobs {
        DeployKnobs { path, ..self }
    }
}

/// The installed tables of one deployment, in the layout the knobs chose.
#[derive(Clone, Debug)]
pub(crate) enum Deployment {
    /// One tag-guarded table per switch (scratch compilation).
    Guarded(BTreeMap<u64, SwitchProgram>),
    /// One table per `(switch, tag)`, delta-patched along the tag chain.
    PerTag(PerTagTables),
    /// Trie-compressed wildcard-guarded tables.
    Optimized(OptimizedTables),
}

impl Deployment {
    /// Builds the layout the knobs select. The optimizer takes precedence
    /// over the compile path: its output *is* the installed table set, so
    /// there is nothing left to patch.
    pub(crate) fn deploy(nes: &CompiledNes, knobs: DeployKnobs) -> Deployment {
        if knobs.optimize.is_on() {
            return Deployment::Optimized(OptimizedTables::from_sets(&nes.prioritized_rule_sets()));
        }
        match knobs.compile {
            CompilePath::Scratch => Deployment::Guarded(
                nes.switch_programs().into_iter().map(|p| (p.switch, p)).collect(),
            ),
            CompilePath::Delta => Deployment::PerTag(PerTagTables::build(nes)),
        }
    }

    /// The forwarding rule for a packet at `(sw, tag)`, read through `view`
    /// (which must already expose the tag, as the guarded layout matches on
    /// it). All three layouts agree; the per-tag and optimized layouts
    /// additionally dispatch on the tag directly.
    pub(crate) fn lookup_on<R: FieldReader>(
        &self,
        path: LookupPath,
        sw: u64,
        tag: u64,
        view: &R,
    ) -> Option<&Rule> {
        match self {
            Deployment::Guarded(programs) => {
                let program = programs.get(&sw)?;
                match path {
                    LookupPath::Linear => program.table.lookup_on(view),
                    LookupPath::Indexed => program.compiled.lookup_on(view),
                }
            }
            Deployment::PerTag(tables) => {
                let idx = tables.slot(sw, tag)?;
                match path {
                    LookupPath::Linear => tables.linear[idx].lookup_on(view),
                    LookupPath::Indexed => tables.compiled[idx].lookup_on(view),
                }
            }
            // The optimizer owns its layout: both lookup paths dispatch
            // through the same guarded scan.
            Deployment::Optimized(tables) => tables.lookup_on(sw, tag, view),
        }
    }

    /// Summed fingerprint probe outcomes of every distinct compiled table
    /// in the layout (the optimized layout has no fingerprint index).
    pub(crate) fn lookup_stats(&self) -> (u64, u64) {
        let mut totals = (0u64, 0u64);
        let mut add = |(h, f): (u64, u64)| {
            totals.0 += h;
            totals.1 += f;
        };
        match self {
            Deployment::Guarded(programs) => {
                programs.values().for_each(|p| add(p.compiled.lookup_stats()));
            }
            Deployment::PerTag(tables) => {
                tables.compiled.iter().for_each(|t| add(t.lookup_stats()));
            }
            Deployment::Optimized(_) => {}
        }
        totals
    }

    /// Total rule mods (adds + removes) the delta chain applied, if this is
    /// the per-tag layout — the OpenFlow mod count a real controller would
    /// have pushed.
    pub(crate) fn delta_rule_mods(&self) -> Option<u64> {
        match self {
            Deployment::PerTag(tables) => Some(tables.mods),
            _ => None,
        }
    }

    /// `(installed, original)` rule counts, if this is the optimized
    /// layout.
    pub(crate) fn optimized_rule_counts(&self) -> Option<(usize, usize)> {
        match self {
            Deployment::Optimized(tables) => Some(tables.rule_counts()),
            _ => None,
        }
    }
}

/// Per-`(switch, tag)` tables, delta-patched along the tag chain and
/// deduplicated: an update that leaves a switch untouched leaves its slot
/// pointing at the previous tag's table.
#[derive(Clone, Debug)]
pub(crate) struct PerTagTables {
    /// The distinct materialized tables (indexed form).
    compiled: Vec<CompiledTable>,
    /// The same tables in reference (linear scan) form.
    linear: Vec<FlowTable>,
    /// `slots[&sw][tag]` → index into `compiled`/`linear`.
    slots: BTreeMap<u64, Vec<u32>>,
    /// Total rule adds + removes applied along the chain.
    mods: u64,
}

impl PerTagTables {
    /// Compiles tag 0 from scratch, then derives each subsequent tag by
    /// diffing consecutive configurations (in tag order) and patching only
    /// the affected switches' tables.
    fn build(nes: &CompiledNes) -> PerTagTables {
        let tag_count = nes.tag_count() as u64;
        let mut switches: Vec<u64> = Vec::new();
        for tag in 0..tag_count {
            switches.extend(nes.nes().config(nes.set_of(tag)).switches());
        }
        switches.sort_unstable();
        switches.dedup();

        let mut compiled = Vec::new();
        let mut linear = Vec::new();
        let mut slots: BTreeMap<u64, Vec<u32>> =
            switches.iter().map(|&sw| (sw, Vec::with_capacity(tag_count as usize))).collect();
        let mut mods = 0u64;
        for tag in 0..tag_count {
            let config = nes.nes().config(nes.set_of(tag));
            if tag == 0 {
                for &sw in &switches {
                    let table = config.table(sw).cloned().unwrap_or_default();
                    slots.get_mut(&sw).expect("enumerated").push(compiled.len() as u32);
                    compiled.push(table.compile());
                    linear.push(table);
                }
                continue;
            }
            let prev = nes.nes().config(nes.set_of(tag - 1));
            let delta = prev.diff(config);
            mods += delta.rule_mods() as u64;
            for &sw in &switches {
                let slot = slots.get_mut(&sw).expect("enumerated");
                let prev_idx = *slot.last().expect("previous tag built");
                match delta.tables.get(&sw) {
                    Some(d) if !d.is_empty() => {
                        let mut table = linear[prev_idx as usize].clone();
                        table.splice(d);
                        let mut index = compiled[prev_idx as usize].clone();
                        index.patch(d);
                        slot.push(compiled.len() as u32);
                        compiled.push(index);
                        linear.push(table);
                    }
                    _ => slot.push(prev_idx),
                }
            }
        }
        PerTagTables { compiled, linear, slots, mods }
    }

    fn slot(&self, sw: u64, tag: u64) -> Option<usize> {
        self.slots.get(&sw)?.get(tag as usize).map(|&i| i as usize)
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
    /// the shared 2→3 rule, so the optimizer has something to share and
    /// the delta path a non-trivial splice.
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

    fn layouts(nes: &CompiledNes) -> Vec<(&'static str, Deployment)> {
        vec![
            ("guarded", Deployment::deploy(nes, DeployKnobs::default())),
            (
                "per-tag",
                Deployment::deploy(
                    nes,
                    DeployKnobs { compile: CompilePath::Delta, ..DeployKnobs::default() },
                ),
            ),
            (
                "optimized",
                Deployment::deploy(
                    nes,
                    DeployKnobs { optimize: OptimizeMode::On, ..DeployKnobs::default() },
                ),
            ),
        ]
    }

    /// All three layouts, on both lookup paths, return rules with identical
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
                    let reference = layouts[0]
                        .1
                        .lookup_on(LookupPath::Indexed, 1, tag, &pk)
                        .map(|r| r.actions.clone());
                    for (name, layout) in &layouts {
                        for path in [LookupPath::Linear, LookupPath::Indexed] {
                            let got =
                                layout.lookup_on(path, 1, tag, &pk).map(|r| r.actions.clone());
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
            assert!(
                layout.lookup_on(LookupPath::Indexed, 77, 0, &pk).is_none(),
                "{name}: unknown switch"
            );
            assert!(
                layout.lookup_on(LookupPath::Indexed, 1, 99, &bad_tag).is_none(),
                "{name}: unknown tag"
            );
        }
    }

    /// The delta chain for the firewall applies exactly one mod (the
    /// appended reply rule) and shares nothing else; the optimizer shares
    /// the common 2→3 rule.
    #[test]
    fn layout_introspection_reports_the_expected_shape() {
        let nes = CompiledNes::compile(firewall_nes());
        let per_tag = Deployment::deploy(
            &nes,
            DeployKnobs { compile: CompilePath::Delta, ..Default::default() },
        );
        assert_eq!(per_tag.delta_rule_mods(), Some(1), "one appended reply rule");
        assert_eq!(per_tag.optimized_rule_counts(), None);
        let optimized = Deployment::deploy(
            &nes,
            DeployKnobs { optimize: OptimizeMode::On, ..Default::default() },
        );
        let (installed, original) = optimized.optimized_rule_counts().expect("optimized layout");
        assert_eq!(original, 3, "one full copy per configuration");
        assert_eq!(installed, 2, "the shared 2→3 rule is installed once");
        assert_eq!(optimized.delta_rule_mods(), None);
        let guarded = Deployment::deploy(&nes, DeployKnobs::default());
        assert_eq!(guarded.delta_rule_mods(), None);
        assert_eq!(guarded.optimized_rule_counts(), None);
    }

    /// An event that *removes* and *reinstalls* switches exercises the
    /// delta layout's empty-table and fresh-install paths.
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
        let per_tag = Deployment::deploy(
            &nes,
            DeployKnobs { compile: CompilePath::Delta, ..Default::default() },
        );
        let guarded = Deployment::deploy(&nes, DeployKnobs::default());
        for tag in [0u64, 1] {
            for sw in [1u64, 2] {
                let mut pk = Packet::new();
                pk.set_loc(Loc::new(sw, 1));
                pk.set(Field::Tag, tag);
                assert_eq!(
                    per_tag.lookup_on(LookupPath::Indexed, sw, tag, &pk).map(|r| &r.actions),
                    guarded.lookup_on(LookupPath::Indexed, sw, tag, &pk).map(|r| &r.actions),
                    "sw {sw} tag {tag}"
                );
            }
        }
        // Two mods: remove from switch 1, install on switch 2.
        assert_eq!(per_tag.delta_rule_mods(), Some(2));
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
        assert_eq!(CompilePath::default(), CompilePath::Scratch);
        assert_eq!(CompilePath::Scratch.label(), "scratch");
        assert_eq!(CompilePath::Delta.label(), "delta");
        assert_eq!(OptimizeMode::default(), OptimizeMode::Off);
        assert_eq!(OptimizeMode::Off.label(), "off");
        assert_eq!(OptimizeMode::On.label(), "on");
        assert!(OptimizeMode::On.is_on());
        assert!(!OptimizeMode::Off.is_on());
        let knobs = DeployKnobs::default().with_path(LookupPath::Linear);
        assert_eq!(knobs.path, LookupPath::Linear);
        assert_eq!(knobs.compile, CompilePath::Scratch);
    }
}
