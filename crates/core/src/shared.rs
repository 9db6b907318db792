//! The configuration-masked shared index: the trace-membership NFA of
//! [`Config::admits_trace`] stepped for *every* configuration of a network
//! event structure at once.
//!
//! The configurations of an NES overwhelmingly share their rules — an
//! update campaign adds a rule here and there, a moved host swaps one
//! rule's actions — which is the redundancy Section 5.3 of the paper
//! removes on the switch by installing a shared rule once under a
//! configuration mask. The checker does the same on its read side. What it
//! reads depends on the NES alone, so the NES holds it, for up to 64
//! configurations:
//!
//! - the configurations' tables as netkat's [`ChainTables`], one row per
//!   switch and one column per configuration: each switch's tables split
//!   into prefix chains, each chain's longest table indexed once (tables
//!   that test the same patterns share one layout), and per configuration
//!   a `(chain, len)` cell. Twenty configurations that each add a rule to
//!   their predecessor cost one index of the last one's table, not twenty.
//!   The NES builds it when it is constructed, and every plane reads it too;
//! - the [`ConfigMasks`], built by the first checker attached to the NES
//!   and read in place by every later one: per switch, its row and the mask
//!   of the configurations in which it is a host and so applies no table;
//!   per link, per link source and per host, the mask of the configurations
//!   that have it. Configurations are grouped by topology first
//!   (`Config::same_topology`, a pointer compare for the clones a campaign
//!   is made of), so a shared topology is written once under its group's
//!   mask.
//!
//! Each checker keeps only per-run state of its own, such as the scratch
//! packet the transitions below write rewritten outputs into.
//!
//! **A winner per chain.** Every member of a chain is a prefix of its
//! longest table. So if that table's first match for a packet is rule
//! `at`, it is the first match of exactly the members longer than `at`,
//! and the shorter members match nothing: every rule they hold lies before
//! it. [`ChainTables::first_matches`] walks each chain's index once and
//! hands over that rule under the mask of the wanted members longer than
//! `at`; the chains partition the configurations, so the masks are
//! disjoint, and no position is kept per configuration.
//!
//! A path's NFA state under all configurations is a [`MaskedState`]: three
//! masks, one bit per configuration, in place of one 3-bit state each.
//! A hop is then one link probe, one index walk per chain through a
//! zero-copy [`LocatedView`], each winner's actions applied once — and
//! mask arithmetic. The packet comparison a hop needs (`a == b`,
//! for the link crossing and for an action that leaves the headers alone)
//! is made by the caller, once, and passed in as `same`. [`Config`]'s own
//! automaton stays the executable specification: a differential property
//! test below pins the two bit for bit, over families whose tables are
//! views of one list, equal lists built apart, extensions and mid-list
//! rewrites, with `same` computed the way the checker computes it.

use std::collections::HashMap;

use netkat::{Action, ChainTables, Field, FxBuildHasher, Loc, LocatedView, Packet};

use crate::config::Config;

pub(crate) type FxMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// The trace-membership NFA state of one packet path under every
/// configuration at once: bit `i` of each mask is the corresponding
/// `ST_*` bit of configuration `i`'s state.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub(crate) struct MaskedState {
    at_host: u64,
    ingress: u64,
    egress: u64,
}

impl MaskedState {
    /// The configurations that have not rejected the path.
    pub(crate) fn live(self) -> u64 {
        self.at_host | self.ingress | self.egress
    }
}

/// Whether `action`, applied to `a` at `a_loc`, emits exactly `b` at port
/// `b_pt` of the same switch — one output of `Config`'s within-switch hop.
/// `same` is `a == b`, which the caller has already decided.
fn emits(
    action: &Action,
    a: &Packet,
    a_loc: Loc,
    (b, b_pt, same): (&Packet, u64, bool),
    scratch: &mut Packet,
) -> bool {
    if action.get(Field::Port).unwrap_or(a_loc.pt) != b_pt {
        return false;
    }
    // The output is `a` with the writes applied and the location stripped.
    // Writes to `Switch` / `Port` only are stripped again, and a packet
    // without location fields has nothing else to strip: the output is then
    // `a` itself, and comparing it with `b` is the comparison `same` holds.
    // Both side conditions are needed — a header write changes the output,
    // and stripping shortens an `a` that carries a location of its own.
    if !a.has_loc() && action.writes().all(|(f, _)| matches!(f, Field::Switch | Field::Port)) {
        return same;
    }
    scratch.clone_from(a);
    for (f, v) in action.writes() {
        scratch.set(f, v);
    }
    scratch.take_loc();
    scratch == b
}

/// The masks of an NES's configurations that the checker's transitions
/// read beside its tables (see the module docs); configuration `i` owns
/// bit `i` of every mask. They hold no per-run state: every checker over
/// the NES reads one instance.
#[derive(Debug)]
pub struct ConfigMasks {
    /// Switch → its row of the tables, and the configurations in which it
    /// is a host: none of them applies its table.
    switches: FxMap<u64, (usize, u64)>,
    links: FxMap<(Loc, Loc), u64>,
    link_srcs: FxMap<Loc, u64>,
    hosts: FxMap<u64, u64>,
}

fn mask_of<K: std::hash::Hash + Eq>(map: &FxMap<K, u64>, key: &K) -> u64 {
    map.get(key).copied().unwrap_or(0)
}

impl ConfigMasks {
    /// Masks `cfgs`' links and hosts, and maps each switch of `rows` (switch
    /// → its row of the tables) to its row and host mask.
    ///
    /// # Panics
    ///
    /// Panics if there are more than 64 configurations.
    pub(crate) fn build(rows: &FxMap<u64, u32>, cfgs: &[&Config]) -> ConfigMasks {
        assert!(cfgs.len() <= 64, "a configuration mask holds 64 configurations");
        let mut links: FxMap<(Loc, Loc), u64> = FxMap::default();
        let mut link_srcs: FxMap<Loc, u64> = FxMap::default();
        let mut hosts: FxMap<u64, u64> = FxMap::default();
        // The configurations of a campaign share one topology: each distinct
        // one is written once, under the mask of the group that has it.
        let mut groups: Vec<(&Config, u64)> = Vec::new();
        for (c, cfg) in cfgs.iter().enumerate() {
            match groups.iter_mut().find(|(first, _)| first.same_topology(cfg)) {
                Some((_, mask)) => *mask |= 1 << c,
                None => groups.push((cfg, 1 << c)),
            }
        }
        for (cfg, mask) in groups {
            for (src, dst) in cfg.links() {
                *links.entry((src, dst)).or_default() |= mask;
                *link_srcs.entry(src).or_default() |= mask;
            }
            for host in cfg.hosts() {
                *hosts.entry(host).or_default() |= mask;
            }
        }
        let switches =
            rows.iter().map(|(&sw, &row)| (sw, (row as usize, mask_of(&hosts, &sw)))).collect();
        ConfigMasks { switches, links, link_srcs, hosts }
    }

    /// The state of a path that starts at `loc` (`Config::start_state`).
    pub(crate) fn start(&self, loc: Loc) -> MaskedState {
        MaskedState { at_host: mask_of(&self.hosts, &loc.sw), ingress: 0, egress: 0 }
    }

    /// One transition (`Config::step_state`) through `tables`: the state
    /// after the hop from `a` at `a_loc` to `b` at `b_loc`, given the state
    /// `prev` at `a`. Both packets must have their virtual fields erased,
    /// and `same` must be `a == b`: the caller compares the two once (to
    /// decide whether the records can share one packet), and every use of
    /// that comparison below takes its result instead of making it again.
    pub(crate) fn step(
        &self,
        tables: &ChainTables,
        prev: MaskedState,
        (a, a_loc): (&Packet, Loc),
        (b, b_loc, same): (&Packet, Loc, bool),
        scratch: &mut Packet,
    ) -> MaskedState {
        debug_assert_eq!(same, a == b, "`same` is the packets' comparison");
        let mut next = MaskedState::default();
        let crossing = prev.at_host | prev.egress;
        if crossing != 0 && same {
            let linked = crossing & mask_of(&self.links, &(a_loc, b_loc));
            if linked != 0 {
                let hosts = mask_of(&self.hosts, &b_loc.sw);
                next.at_host = linked & hosts;
                next.ingress = linked & !hosts;
            }
        }
        if a_loc.sw == b_loc.sw {
            let to = Some((b, b_loc.pt, same));
            next.egress = self.table_hop(tables, prev.ingress, (a, a_loc), to, scratch);
        }
        next
    }

    /// The configurations that admit a path ending in `state` at `last`:
    /// every live one for a prefix, else `Config::accepts_end`.
    pub(crate) fn admitted(
        &self,
        tables: &ChainTables,
        state: MaskedState,
        last: (&Packet, Loc),
        allow_prefix: bool,
        scratch: &mut Packet,
    ) -> u64 {
        if allow_prefix {
            return state.live();
        }
        let mut done = state.at_host;
        if state.ingress != 0 {
            let forwarding = self.table_hop(tables, state.ingress, last, None, scratch);
            done |= state.ingress & !forwarding;
        }
        if state.egress != 0 {
            done |= state.egress & !mask_of(&self.link_srcs, &last.1);
        }
        done
    }

    /// The configurations of `want` whose table at `a_loc.sw` emits
    /// `to = (packet, port, packet == a)` for `a` — or, without `to`, emits
    /// anything. A configuration in which `a_loc.sw` is a host emits
    /// nothing.
    fn table_hop(
        &self,
        tables: &ChainTables,
        want: u64,
        (a, a_loc): (&Packet, Loc),
        to: Option<(&Packet, u64, bool)>,
        scratch: &mut Packet,
    ) -> u64 {
        if want == 0 {
            return 0;
        }
        let Some(&(row, hosts)) = self.switches.get(&a_loc.sw) else { return 0 };
        let view = LocatedView { base: a, loc: a_loc, tag: None };
        let mut hit = 0;
        tables.first_matches(row, want & !hosts, &view, |rule, mask| {
            let mut actions = rule.actions.iter();
            let emitted = match to {
                Some(to) => actions.any(|act| emits(act, a, a_loc, to, scratch)),
                None => actions.next().is_some(),
            };
            if emitted {
                hit |= mask;
            }
        });
        hit
    }
}

/// The tables and masks of configurations that belong to no NES.
#[cfg(test)]
impl ConfigMasks {
    /// Indexes and masks `configs` the way an NES does its own.
    pub(crate) fn of_family(configs: &[&Config]) -> (ChainTables, ConfigMasks) {
        let (tables, rows) = crate::nes::index_tables(configs);
        let masks = ConfigMasks::build(&rows, configs);
        (tables, masks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ST_AT_HOST, ST_EGRESS, ST_INGRESS};
    use crate::trace::LocatedPacket;
    use netkat::{ActionSet, FlowTable, Match, Rule};
    use proptest::prelude::*;

    impl MaskedState {
        /// Configuration `c`'s state, in `Config`'s own encoding.
        fn bits(self, c: usize) -> u8 {
            let bit = |mask: u64, st: u8| if mask >> c & 1 != 0 { st } else { 0 };
            bit(self.at_host, ST_AT_HOST)
                | bit(self.ingress, ST_INGRESS)
                | bit(self.egress, ST_EGRESS)
        }
    }

    const SWITCHES: [u64; 3] = [1, 2, 3];
    const HOSTS: [u64; 2] = [100, 101];
    const PORTS: u64 = 4;

    /// A small pool of rules the family's tables draw from, built to
    /// collide: a wildcard, one- and two-field patterns that overlap on
    /// the same packets, the same pattern under different actions (the
    /// moved-host shape), multicast, header rewrites, and drops.
    fn rule_pool() -> Vec<Rule> {
        let out = |pt: u64| Action::assign(Field::Port, pt);
        let patterns = [
            Match::new(),
            Match::new().with(Field::IpDst, 1),
            Match::new().with(Field::IpDst, 2),
            Match::new().with(Field::Port, 1),
            Match::new().with(Field::Port, 2),
            Match::new().with(Field::Port, 1).with(Field::IpDst, 1),
            Match::new().with(Field::Vlan, 7),
        ];
        let actions = [
            ActionSet::drop(),
            ActionSet::single(out(1)),
            ActionSet::single(out(2)),
            ActionSet::single(out(3).set(Field::Vlan, 7)),
            ActionSet::from_iter([out(1), out(2).set(Field::IpDst, 2)]),
            ActionSet::pass(),
            ActionSet::single(Action::assign(Field::Switch, 9).set(Field::IpDst, 1)),
        ];
        patterns
            .iter()
            .flat_map(|p| actions.iter().map(|a| Rule::new(p.clone(), a.clone())))
            .collect()
    }

    /// Every location a walk may visit: the hosts' port 0 and the switch
    /// ports.
    fn locations() -> Vec<Loc> {
        let hosts = HOSTS.iter().map(|&h| Loc::new(h, 0));
        let ports = SWITCHES.iter().flat_map(|&sw| (1..=PORTS).map(move |pt| Loc::new(sw, pt)));
        hosts.chain(ports).collect()
    }

    /// A family's recipe: per switch a base table (pool indices in
    /// priority order) and whether it copies an earlier switch, and per
    /// configuration a variant of each base table, which of two link/host
    /// wirings it has, and extra links as location-index pairs. Variants
    /// *share, extend and reorder* the base's rules, the way the
    /// configurations of one NES do. A twin `(source, shift, moved)` takes
    /// the source's base and variants with every action moved `shift`
    /// places along the pool, built apart: the same patterns under the same
    /// members — the shape every untouched switch of a generated topology
    /// shares — with the same rules (shift 0) or other ones. With `moved`,
    /// every variant's position moves one rule further: mostly the same
    /// patterns under other member lengths, a shape of its own.
    type Variant = (usize, usize, usize);
    type Twin = Option<(usize, usize, bool)>;
    type FamilyRecipe = (Vec<(Vec<usize>, Twin)>, Vec<(Vec<Variant>, bool, Vec<(usize, usize)>)>);

    fn arb_family() -> impl Strategy<Value = FamilyRecipe> {
        let base = proptest::collection::vec(0usize..49, 2..9);
        let twin = proptest::option::of((0usize..SWITCHES.len(), 0usize..7, proptest::bool::ANY));
        let variant = (0usize..14, 0usize..64, 0usize..7);
        let config = (
            proptest::collection::vec(variant, SWITCHES.len()),
            proptest::bool::ANY,
            proptest::collection::vec((0usize..14, 0usize..14), 0..2),
        );
        (
            proptest::collection::vec((base, twin), SWITCHES.len()),
            proptest::collection::vec(config, 2..9),
        )
    }

    /// The switch whose base and variants switch `i` draws, how far its
    /// variants' positions move, and its action shift: itself unmoved and
    /// unshifted, or what the earlier switch it copies draws, further.
    fn source_of(switches: &[(Vec<usize>, Twin)], i: usize) -> (usize, usize, usize) {
        match switches[i].1 {
            Some((src, shift, moved)) if i > 0 => {
                let (root, by, before) = source_of(switches, src % i);
                (root, by + usize::from(moved), (before + shift) % 7)
            }
            _ => (i, 0, 0),
        }
    }

    /// The rule pool with every pattern's actions moved `shift` places
    /// along the pool's action list.
    fn shifted(pool: &[Rule], shift: usize) -> Vec<Rule> {
        (0..pool.len())
            .map(|p| {
                Rule::new(
                    pool[p].pattern.clone(),
                    pool[p / 7 * 7 + (p + shift) % 7].actions.clone(),
                )
            })
            .collect()
    }

    /// The rule list a switch's prefix views share: the base, then a rule
    /// the base already holds (a repeat inside the chain, which can never
    /// win) and its first pattern under other actions.
    fn whole(pool: &[Rule], base: &[usize]) -> FlowTable {
        let tail = [base[base.len() - 1], base[0] / 7 * 7 + (base[0] + 1) % 7];
        FlowTable::from_rules(base.iter().chain(&tail).map(|&i| pool[i].clone()))
    }

    /// One configuration's table at a switch, derived from the base: a
    /// prefix view of `whole` (kinds 1 to 3) or a list of its own.
    fn vary(
        pool: &[Rule],
        base: &[usize],
        whole: &FlowTable,
        (kind, at, action): Variant,
    ) -> Option<FlowTable> {
        let mut picks = base.to_vec();
        let at = at % picks.len();
        match kind {
            0 => return None,
            // Views of one list: the base, a shorter prefix (down to the
            // empty table), and the extension past the base.
            1 => return Some(whole.prefix(base.len())),
            2 => return Some(whole.prefix(at)),
            3 => return Some(whole.clone()),
            // The same three shapes by value, each a list of its own.
            4 => picks.truncate(at + 1),
            5 => picks.push(base[at] / 7 * 7 + action),
            6 => picks.push(base[at]),
            7 => picks.rotate_left(at),
            8 => picks.reverse(),
            9 => drop(picks.remove(at)),
            // The moved-host shape: same pattern, other actions, mid-list.
            10 => picks[at] = picks[at] / 7 * 7 + action,
            11 => picks.insert(0, base[at] / 7 * 7 + action),
            _ => {}
        }
        Some(FlowTable::from_rules(picks.iter().map(|&i| pool[i].clone())))
    }

    /// Two wirings: the line 100 - 1 - 2 - 3 - 101, or host 101 rehomed to
    /// switch 2 and node 3 a host on the port that led to it.
    fn wiring(rewired: bool) -> Config {
        let mut cfg = Config::new();
        cfg.add_host(100, Loc::new(1, 1));
        cfg.add_link(Loc::new(1, 2), Loc::new(2, 1));
        cfg.add_link(Loc::new(2, 1), Loc::new(1, 2));
        if rewired {
            cfg.add_host(101, Loc::new(2, 3));
            cfg.add_host(3, Loc::new(2, 2));
        } else {
            cfg.add_link(Loc::new(2, 2), Loc::new(3, 1));
            cfg.add_link(Loc::new(3, 1), Loc::new(2, 2));
            cfg.add_host(101, Loc::new(3, 2));
        }
        cfg
    }

    fn build_family((switches, configs): &FamilyRecipe) -> Vec<Config> {
        let pool = rule_pool();
        let locs = locations();
        let sources: Vec<(usize, usize, Vec<Rule>)> = (0..SWITCHES.len())
            .map(|i| {
                let (root, by, shift) = source_of(switches, i);
                (root, by, shifted(&pool, shift))
            })
            .collect();
        let base = |i: usize| &switches[sources[i].0].0;
        let wholes: Vec<FlowTable> =
            sources.iter().enumerate().map(|(i, (_, _, pool))| whole(pool, base(i))).collect();
        let shared = [wiring(false), wiring(true)];
        configs
            .iter()
            .enumerate()
            .map(|(c, (variants, rewired, extra))| {
                // Alternately a clone of the one shared topology and an
                // equal one rebuilt: `same_topology` by pointer and by value.
                let mut cfg =
                    if c % 2 == 0 { shared[*rewired as usize].clone() } else { wiring(*rewired) };
                for (i, &sw) in SWITCHES.iter().enumerate() {
                    let &(root, by, ref pool) = &sources[i];
                    let (kind, at, action) = variants[root];
                    if let Some(table) = vary(pool, base(i), &wholes[i], (kind, at + by, action)) {
                        cfg.install(sw, table);
                    }
                }
                for &(a, b) in extra {
                    cfg.add_link(locs[a], locs[b]);
                }
                cfg
            })
            .collect()
    }

    /// A walk: a start location and packet, then per hop a choice among
    /// the successors some configuration offers (usually) or a jump to an
    /// arbitrary located packet (sometimes).
    type Walk = (usize, Vec<(Field, u64)>, Vec<(usize, Option<(usize, usize)>)>);

    fn arb_walk() -> impl Strategy<Value = Walk> {
        let field = prop_oneof![
            Just(Field::IpDst),
            Just(Field::Vlan),
            Just(Field::Port),
            Just(Field::Switch)
        ];
        (
            // Mostly from a host: anywhere else every configuration
            // rejects at once.
            prop_oneof![Just(0usize), Just(1usize), 0usize..14],
            proptest::collection::vec((field, 1u64..4), 0..3),
            proptest::collection::vec(
                (0usize..64, proptest::option::of((0usize..14, 0usize..3))),
                1..12,
            ),
        )
    }

    fn run_walk(family: &[Config], walk: &Walk) -> Vec<LocatedPacket> {
        let locs = locations();
        let (start, fields, hops) = walk;
        let mut trace = vec![LocatedPacket::new(fields.iter().copied().collect(), locs[*start])];
        let mut states: Vec<u8> = family.iter().map(|cfg| cfg.start_state(&trace[0])).collect();
        for &(pick, jump) in hops {
            let here = trace.last().expect("walks start somewhere").clone();
            let next = match jump {
                // One jump in five leaves the configurations' relation.
                Some((to, tweak)) if pick % 5 == 0 => {
                    let mut pk = here.packet.clone();
                    if tweak > 0 {
                        pk.set(Field::IpDst, tweak as u64);
                    }
                    LocatedPacket::new(pk, locs[to])
                }
                // Otherwise follow a hop that keeps some configuration's
                // automaton alive, so walks get deep enough to matter.
                _ => {
                    let succ: Vec<LocatedPacket> = family
                        .iter()
                        .flat_map(|cfg| cfg.step(&here))
                        .filter(|to| {
                            family
                                .iter()
                                .zip(&states)
                                .any(|(c, &st)| c.step_state(st, &here, to) != 0)
                        })
                        .collect();
                    if succ.is_empty() {
                        break;
                    }
                    succ[pick % succ.len()].clone()
                }
            };
            for (cfg, st) in family.iter().zip(&mut states) {
                *st = cfg.step_state(*st, &here, &next);
            }
            trace.push(next);
        }
        trace
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // The masked stepper *is* `Config`'s automaton, run for all
        // configurations at once: same state after every hop, bit for bit
        // per configuration, and the same acceptance either way a trace
        // may end.
        #[test]
        fn masked_stepping_equals_config_automaton(
            recipe in arb_family(),
            walks in proptest::collection::vec(arb_walk(), 1..5),
        ) {
            let family = build_family(&recipe);
            let (tables, masks) = ConfigMasks::of_family(&family.iter().collect::<Vec<_>>());
            let scratch = &mut Packet::new();
            for walk in &walks {
                let trace = run_walk(&family, walk);
                let mut masked = masks.start(trace[0].loc);
                let mut states: Vec<u8> =
                    family.iter().map(|cfg| cfg.start_state(&trace[0])).collect();
                for (c, &st) in states.iter().enumerate() {
                    prop_assert_eq!(masked.bits(c), st, "start state of configuration {}", c);
                }
                for (hop, w) in trace.windows(2).enumerate() {
                    // `same` the way the checker gets it: the raw record,
                    // stamped as the runtime stamps it, against the erased
                    // predecessor.
                    let mut raw = w[1].packet.clone();
                    if hop % 3 > 0 {
                        raw.set(Field::Tag, hop as u64);
                    }
                    if hop % 3 > 1 {
                        raw.set(Field::Digest, 0b101);
                    }
                    let same = raw.eq_erased(&w[0].packet);
                    let (a, b) = ((&w[0].packet, w[0].loc), (&w[1].packet, w[1].loc, same));
                    masked = masks.step(&tables, masked, a, b, scratch);
                    let end = (&w[1].packet, w[1].loc);
                    let complete = masks.admitted(&tables, masked, end, false, scratch);
                    for (c, cfg) in family.iter().enumerate() {
                        states[c] = cfg.step_state(states[c], &w[0], &w[1]);
                        prop_assert_eq!(
                            masked.bits(c), states[c],
                            "configuration {} after hop {} of {:?}", c, hop, trace
                        );
                        prop_assert_eq!(
                            complete >> c & 1 != 0,
                            states[c] != 0 && cfg.accepts_end(states[c], &w[1]),
                            "configuration {} ending after hop {} of {:?}", c, hop, trace
                        );
                    }
                }
                let last = trace.last().expect("walks are nonempty");
                for allow_prefix in [false, true] {
                    let end = (&last.packet, last.loc);
                    let admitted = masks.admitted(&tables, masked, end, allow_prefix, scratch);
                    for (c, cfg) in family.iter().enumerate() {
                        prop_assert_eq!(
                            admitted >> c & 1 != 0,
                            cfg.admits_trace(&trace, allow_prefix),
                            "configuration {} on {:?} (allow_prefix = {})", c, trace, allow_prefix
                        );
                    }
                }
            }
        }

    }

    /// A rule that forwards `pattern`'s packets to port `pt`.
    fn fwd(pattern: Match, pt: u64) -> Rule {
        Rule::new(pattern, ActionSet::single(Action::assign(Field::Port, pt)))
    }

    /// Configurations that each hold `table` (or none, for `None`) at switch 1.
    fn at_switch_one(tables: &[Option<FlowTable>]) -> Vec<Config> {
        tables
            .iter()
            .map(|t| {
                let mut cfg = Config::new();
                if let Some(t) = t {
                    cfg.install(1, t.clone());
                }
                cfg
            })
            .collect()
    }

    /// Pins the index's per-configuration winner at switch 1 against each
    /// configuration's own first match (`lookup_on`), for every packet
    /// arriving at every port: `step` takes a configuration to port `p`'s
    /// egress exactly when its winner forwards there, and `admitted` ends
    /// it at the ingress exactly when it has no winner or a dropping one.
    fn assert_winners(family: &[Config], packets: &[Packet]) {
        let (tables, masks) = ConfigMasks::of_family(&family.iter().collect::<Vec<_>>());
        let scratch = &mut Packet::new();
        let mask = |pick: &dyn Fn(Option<&Rule>) -> bool, won: &[Option<&Rule>]| {
            won.iter().enumerate().filter(|&(_, &w)| pick(w)).fold(0u64, |m, (c, _)| m | 1 << c)
        };
        let ingress = MaskedState { at_host: 0, ingress: (1 << family.len()) - 1, egress: 0 };
        for in_pt in 1..=PORTS {
            let at = Loc::new(1, in_pt);
            for pk in packets {
                let view = LocatedView { base: pk, loc: at, tag: None };
                let won: Vec<Option<&Rule>> = family
                    .iter()
                    .map(|cfg| cfg.table(1).and_then(|t| t.lookup_on(&view)))
                    .collect();
                for pt in 0..=PORTS + 2 {
                    let to = |w: Option<&Rule>| {
                        w.is_some_and(|r| {
                            r.actions.iter().any(|a| a.get(Field::Port).unwrap_or(in_pt) == pt)
                        })
                    };
                    let hop = (pk, Loc::new(1, pt), true);
                    let egress = masks.step(&tables, ingress, (pk, at), hop, scratch).egress;
                    assert_eq!(egress, mask(&to, &won), "{pk} at {in_pt} forwarded to {pt}");
                }
                let ends = |w: Option<&Rule>| w.is_none_or(|r| r.actions.is_drop());
                let ended = masks.admitted(&tables, ingress, (pk, at), false, scratch);
                assert_eq!(ended, mask(&ends, &won), "{pk} at {in_pt} dropped");
            }
        }
    }

    /// The firewall's edited switch: the closed configuration puts a guard
    /// before the routing, so every routing rule sits one place lower there
    /// than in the open one — two chains (three with the closed table
    /// again after the open one), one rule at two positions.
    #[test]
    fn a_rule_at_two_positions_in_two_chains_wins_in_both() {
        let dst = |h: u64| Match::new().with(Field::IpDst, h);
        let routing = [fwd(dst(1), 1), fwd(dst(2), 2), fwd(dst(3), 3)];
        let guard = Rule::new(dst(1).with(Field::IpSrc, 3), ActionSet::drop());
        let open = FlowTable::from_rules(routing.iter().cloned());
        let closed = FlowTable::from_rules([guard].into_iter().chain(routing.iter().cloned()));
        let family = at_switch_one(&[Some(closed.clone()), Some(open), Some(closed)]);
        let pk = |fields: &[(Field, u64)]| fields.iter().copied().collect::<Packet>();
        assert_winners(
            &family,
            &[
                pk(&[(Field::IpSrc, 3), (Field::IpDst, 1)]),
                pk(&[(Field::IpSrc, 2), (Field::IpDst, 1)]),
                pk(&[(Field::IpDst, 2)]),
                pk(&[(Field::IpSrc, 3), (Field::IpDst, 3)]),
                pk(&[(Field::IpDst, 9)]),
                pk(&[(Field::IpSrc, 3)]),
            ],
        );
    }

    /// One chain that repeats a rule, and shadows it under other actions:
    /// the earlier copy wins for every member that reaches it, and the
    /// shadowing rule never forwards to its port.
    #[test]
    fn a_repeat_inside_a_chain_never_wins() {
        let dst = |h: u64| Match::new().with(Field::IpDst, h);
        let whole = FlowTable::from_rules([
            fwd(dst(1), 1),
            fwd(dst(2), 2),
            fwd(dst(1), 1),
            fwd(dst(1), 4),
            fwd(Match::new(), 3),
        ]);
        let family = at_switch_one(&(0..=5).map(|len| Some(whole.prefix(len))).collect::<Vec<_>>());
        let packets: Vec<Packet> = (1..=3).map(|h| Packet::new().with(Field::IpDst, h)).collect();
        assert_winners(&family, &packets);
    }

    /// Members shorter than the position of the chain's first match match
    /// nothing, and the table drops for them — a switch with no table too.
    #[test]
    fn a_member_shorter_than_the_first_match_matches_nothing() {
        let whole = FlowTable::from_rules([
            fwd(Match::new().with(Field::IpDst, 2), 2),
            fwd(Match::new().with(Field::Vlan, 7), 3),
            fwd(Match::new().with(Field::IpDst, 1), 1),
        ]);
        let mut tables: Vec<Option<FlowTable>> =
            (0..=3).map(|len| Some(whole.prefix(len))).collect();
        tables.push(None);
        let family = at_switch_one(&tables);
        let one = Packet::new().with(Field::IpDst, 1);
        assert_winners(&family, &[one.clone(), one.with(Field::Vlan, 7)]);
    }

    /// A two-field, two one-field (one of them on the port the view
    /// supplies) and a wildcard signature on one switch, in two orders.
    #[test]
    fn one_field_two_field_and_wildcard_signatures_on_one_switch() {
        let both = Match::new().with(Field::IpSrc, 1).with(Field::IpDst, 2);
        let rules = [
            fwd(both, 1),
            fwd(Match::new().with(Field::IpDst, 2), 2),
            fwd(Match::new().with(Field::Port, 2), 4),
            fwd(Match::new(), 3),
        ];
        let whole = FlowTable::from_rules(rules.iter().cloned());
        let reversed = FlowTable::from_rules(rules.iter().rev().cloned());
        let family = at_switch_one(&[
            Some(whole.prefix(1)),
            Some(whole.prefix(2)),
            Some(whole.clone()),
            Some(reversed.prefix(2)),
            Some(whole.prefix(3)),
        ]);
        let pk = |fields: &[(Field, u64)]| fields.iter().copied().collect::<Packet>();
        assert_winners(
            &family,
            &[
                pk(&[(Field::IpSrc, 1), (Field::IpDst, 2)]),
                pk(&[(Field::IpSrc, 2), (Field::IpDst, 2)]),
                pk(&[(Field::IpDst, 2)]),
                pk(&[(Field::IpSrc, 1)]),
                pk(&[(Field::IpSrc, 1), (Field::IpDst, 3)]),
                pk(&[]),
            ],
        );
    }

    /// Three switches whose chains hold the same patterns: switch 3's
    /// members have switch 1's lengths under other actions; switch 2's have
    /// other lengths, though each of its chain's rules tests what switch 1's
    /// does. The three chains share one segment layout, and each switch
    /// forwards by its own actions under its own members' lengths.
    #[test]
    fn equal_patterns_under_other_member_lengths_do_not_share_a_shape() {
        let dst = |h: u64| Match::new().with(Field::IpDst, h);
        let chain = |pt: u64| FlowTable::from_rules((1..=3).map(|h| fwd(dst(h), h + pt)));
        let (one, two, three) = (chain(0), chain(0), chain(1));
        let lengths = [(&one, [1, 3]), (&two, [2, 3]), (&three, [1, 3])];
        let family: Vec<Config> = (0..2)
            .map(|c| {
                let mut cfg = Config::new();
                for (sw, (table, lens)) in lengths.iter().enumerate() {
                    cfg.install(sw as u64 + 1, table.prefix(lens[c]));
                }
                cfg
            })
            .collect();
        let (tables, masks) = ConfigMasks::of_family(&family.iter().collect::<Vec<_>>());
        assert_eq!((tables.chains(), tables.indexed_rules(), tables.layouts()), (3, 9, 1));
        let ingress = MaskedState { at_host: 0, ingress: 0b11, egress: 0 };
        let pk = Packet::new().with(Field::IpDst, 2);
        for (sw, pt, egress) in [(1, 2, 0b10), (2, 2, 0b11), (3, 3, 0b10), (3, 2, 0)] {
            let (a, b) = ((&pk, Loc::new(sw, 9)), (&pk, Loc::new(sw, pt), true));
            let next = masks.step(&tables, ingress, a, b, &mut Packet::new());
            assert_eq!(next.egress, egress, "switch {sw} to port {pt}");
        }
    }

    /// A node that is a host in one configuration and a switch in another
    /// applies its table only in the latter, from any state — as
    /// `Config::step_state` and `accepts_end` decide it, whether or not a
    /// path can reach that state (a crossing into a host never leaves it at
    /// an ingress).
    #[test]
    fn a_host_applies_no_table() {
        let table = FlowTable::from_rules([fwd(Match::new(), 2)]);
        let mut family = at_switch_one(&[Some(table.clone()), Some(table)]);
        family[0].add_host(1, Loc::new(2, 1));
        let (tables, masks) = ConfigMasks::of_family(&family.iter().collect::<Vec<_>>());
        let scratch = &mut Packet::new();
        let pk = Packet::new().with(Field::IpDst, 1);
        let a = LocatedPacket::new(pk.clone(), Loc::new(1, 1));
        let b = LocatedPacket::new(pk.clone(), Loc::new(1, 2));
        let ingress = MaskedState { at_host: 0, ingress: 0b11, egress: 0 };
        let next = masks.step(&tables, ingress, (&pk, a.loc), (&pk, b.loc, true), scratch);
        let ended = masks.admitted(&tables, ingress, (&pk, a.loc), false, scratch);
        assert_eq!((next.egress, ended), (0b10, 0b01));
        for (c, cfg) in family.iter().enumerate() {
            assert_eq!(next.bits(c), cfg.step_state(ST_INGRESS, &a, &b));
            assert_eq!(ended >> c & 1 != 0, cfg.accepts_end(ST_INGRESS, &a));
        }
    }
}
