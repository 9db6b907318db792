//! The configuration-masked shared rule index: the trace-membership NFA of
//! [`Config::admits_trace`] stepped for *every* configuration of a network
//! event structure at once.
//!
//! The configurations of an NES overwhelmingly share their rules — an
//! update campaign adds a rule here and there, a moved host swaps one
//! rule's actions — which is the redundancy Section 5.3 of the paper
//! removes on the switch by installing a shared rule once under a
//! configuration mask. [`SharedIndex`] does the same on the checker's read
//! side, and is built the way the plane deploys: along *prefix chains*.
//! Built once from up to 64 configurations, it holds
//!
//! - per switch, every *distinct* rule once, with the `u64` mask of the
//!   configurations whose table contains it and its priority position in
//!   each of them, reachable through a candidate index keyed by pattern
//!   signature (the set of matched fields) and values. The configurations'
//!   tables at a switch are split into prefix chains ([`prefix_chains`],
//!   the walk `nes-runtime`'s deployment does per tag); a chain's longest
//!   table is kept (a reference count, no rule is copied: a shared rule is
//!   a position in it) and each of its rules interned *once*, under the
//!   mask of the members long enough to hold it — so twenty configurations
//!   that each add a rule to their predecessor cost one walk of the last
//!   one's table, not twenty-one walks;
//! - per link, per link source and per host, the mask of the
//!   configurations that have it. Configurations are grouped by topology
//!   first (`Config::same_topology`, a pointer compare for the clones a
//!   campaign is made of), so a shared topology is written once under its
//!   group's mask.
//!
//! A path's NFA state under all configurations is a [`MaskedState`]: three
//! masks, one bit per configuration, in place of one 3-bit state each.
//! A hop is then one link probe, one candidate lookup through a zero-copy
//! [`LocatedView`], the per-configuration winner resolved by position among
//! the handful of rules that match, each distinct winner's actions applied
//! once — and mask arithmetic. The packet comparison a hop needs (`a == b`,
//! for the link crossing and for an action that leaves the headers alone)
//! is made by the caller, once, and passed in as `same`. [`Config`]'s own
//! automaton stays the executable specification: a differential property
//! test below pins the two bit for bit, over families whose tables are
//! views of one list, equal lists built apart, extensions and mid-list
//! rewrites, with `same` computed the way the checker computes it.

use std::collections::HashMap;
use std::hash::Hasher;

use netkat::{
    prefix_chains, Action, Field, FieldReader, FlowTable, FxBuildHasher, FxHasher, Loc,
    LocatedView, Packet, Rule,
};

use crate::config::Config;

pub(crate) type FxMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// "No rule": the end of a candidate chain, and the position of a rule in
/// a table that does not contain it.
const NONE: u32 = u32::MAX;

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

/// A distinct rule of one switch, shared by the configurations in `mask`:
/// rule `at` of chain `table`, not a copy of it.
struct SharedRule {
    table: u32,
    at: u32,
    mask: u64,
    /// The next rule whose pattern has the same fingerprint.
    next: u32,
}

impl SharedRule {
    fn of<'a>(&self, tables: &'a [FlowTable]) -> &'a Rule {
        tables[self.table as usize].rule(self.at as usize)
    }
}

/// The distinct rules of one switch across all configurations.
#[derive(Default)]
struct SwitchRules {
    /// The longest table of each prefix chain the configurations' tables
    /// fall into ([`prefix_chains`]); the rules live here.
    tables: Vec<FlowTable>,
    rules: Vec<SharedRule>,
    /// `pos[r * n + c]`: the priority position of rule `r`'s first
    /// occurrence in configuration `c`'s table.
    pos: Vec<u32>,
    /// The distinct pattern signatures: which fields a pattern tests.
    sigs: Vec<Vec<Field>>,
    /// Pattern fingerprint (signature and values) to the head of the chain
    /// of rules carrying it. Fingerprints may collide, so every candidate
    /// is confirmed against the packet.
    heads: FxMap<u64, u32>,
    /// Rules `intern` was handed: one per rule of each chain's longest table.
    #[cfg(test)]
    visits: usize,
}

/// The candidate-index key of signature `sig` carrying `values`, one per
/// field of the signature; `None` if a field has no value (a packet that
/// lacks a field matches no pattern testing it).
fn fingerprint(sig: usize, values: impl Iterator<Item = Option<u64>>) -> Option<u64> {
    let mut h = FxHasher::default();
    h.write_u64(sig as u64);
    for v in values {
        h.write_u64(v?);
    }
    Some(h.finish())
}

impl SwitchRules {
    fn rule(&self, r: u32) -> &Rule {
        self.rules[r as usize].of(&self.tables)
    }

    /// Interns one prefix chain of the `n` configurations' tables: each rule
    /// of `longest` once, under the configurations whose member table
    /// reaches it — `members` are `(configuration, rule count)`.
    fn intern_chain(
        &mut self,
        longest: &FlowTable,
        members: impl Iterator<Item = (usize, usize)>,
        n: usize,
    ) {
        // `ends[len]`: the members of `len` rules, which hold none from there on.
        let mut ends = vec![0u64; longest.len() + 1];
        members.for_each(|(cfg, len)| ends[len] |= 1 << cfg);
        let mut mask = ends.iter().fold(0, |all, ending| all | ending);
        let table = self.tables.len() as u32;
        self.tables.push(longest.clone());
        for (at, rule) in longest.iter().enumerate() {
            mask &= !ends[at];
            self.intern(rule, table, at as u32, mask, n);
        }
    }

    /// Records that the configurations in `mask` (of `n`) hold `rule`, which
    /// is rule `at` of chain `table`, at priority `at`.
    fn intern(&mut self, rule: &Rule, table: u32, at: u32, mask: u64, n: usize) {
        #[cfg(test)]
        {
            self.visits += 1;
        }
        let fields = || rule.pattern.iter().map(|(f, _)| f);
        let sig =
            self.sigs.iter().position(|s| s.iter().copied().eq(fields())).unwrap_or_else(|| {
                self.sigs.push(fields().collect());
                self.sigs.len() - 1
            });
        let key = fingerprint(sig, rule.pattern.iter().map(|(_, v)| Some(v)))
            .expect("a pattern has a value for each of its fields");
        let head = self.heads.entry(key).or_insert(NONE);
        let mut r = *head;
        while r != NONE {
            let shared = &self.rules[r as usize];
            if shared.of(&self.tables) == rule {
                break;
            }
            r = shared.next;
        }
        if r == NONE {
            r = self.rules.len() as u32;
            self.rules.push(SharedRule { table, at, mask: 0, next: *head });
            *head = r;
            self.pos.resize(self.pos.len() + n, NONE);
        }
        // A table may repeat a rule; only its first occurrence can win, and
        // a chain is interned in priority order.
        let shared = &mut self.rules[r as usize];
        let mut first = mask & !shared.mask;
        shared.mask |= mask;
        while first != 0 {
            self.pos[r as usize * n + first.trailing_zeros() as usize] = at;
            first &= first - 1;
        }
    }

    /// Resolves, for every configuration in `want`, the first rule of its
    /// table that matches `view`, leaving one `(rule, configurations)`
    /// entry per *distinct* winner in `out`. Configurations whose table
    /// matches nothing appear in no entry.
    fn winners<R: FieldReader>(
        &self,
        view: &R,
        want: u64,
        n: usize,
        matched: &mut Vec<u32>,
        out: &mut Vec<(u32, u64)>,
    ) {
        matched.clear();
        out.clear();
        let mut seen = 0;
        let mut contested = false;
        for (sig, fields) in self.sigs.iter().enumerate() {
            let Some(key) = fingerprint(sig, fields.iter().map(|&f| view.read(f))) else {
                continue;
            };
            let mut r = self.heads.get(&key).copied().unwrap_or(NONE);
            while r != NONE {
                let shared = &self.rules[r as usize];
                if shared.mask & want != 0 && self.rule(r).pattern.matches_on(view) {
                    contested |= shared.mask & want & seen != 0;
                    seen |= shared.mask & want;
                    matched.push(r);
                }
                r = shared.next;
            }
        }
        if !contested {
            // No configuration holds two of the matching rules: each rule
            // wins wherever it is installed.
            out.extend(matched.iter().map(|&r| (r, self.rules[r as usize].mask & want)));
            return;
        }
        let mut rest = seen;
        while rest != 0 {
            let c = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            let winner = *matched
                .iter()
                .min_by_key(|&&r| self.pos[r as usize * n + c])
                .expect("contested lookups matched rules");
            match out.iter_mut().find(|(r, _)| *r == winner) {
                Some((_, mask)) => *mask |= 1 << c,
                None => out.push((winner, 1 << c)),
            }
        }
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

/// See the module docs.
pub(crate) struct SharedIndex {
    /// Number of configurations (at most 64).
    n: usize,
    switches: FxMap<u64, SwitchRules>,
    links: FxMap<(Loc, Loc), u64>,
    link_srcs: FxMap<Loc, u64>,
    hosts: FxMap<u64, u64>,
    // Reused lookup buffers.
    matched: Vec<u32>,
    winners: Vec<(u32, u64)>,
    scratch: Packet,
}

fn mask_of<K: std::hash::Hash + Eq>(map: &FxMap<K, u64>, key: &K) -> u64 {
    map.get(key).copied().unwrap_or(0)
}

impl SharedIndex {
    /// Indexes `configs`; configuration `i` owns bit `i` of every mask.
    ///
    /// # Panics
    ///
    /// Panics if there are more than 64 configurations.
    pub(crate) fn build(configs: &[&Config]) -> SharedIndex {
        let n = configs.len();
        assert!(n <= 64, "a configuration mask holds 64 configurations");
        let mut index = SharedIndex {
            n,
            switches: FxMap::default(),
            links: FxMap::default(),
            link_srcs: FxMap::default(),
            hosts: FxMap::default(),
            matched: Vec::new(),
            winners: Vec::new(),
            scratch: Packet::new(),
        };
        // Per switch, the configurations' tables as prefix chains: a chain's
        // longest member is walked once, whatever the number of members.
        let mut switches: Vec<u64> = configs.iter().flat_map(|cfg| cfg.switches()).collect();
        switches.sort_unstable();
        switches.dedup();
        let empty = FlowTable::new();
        let mut tables: Vec<&FlowTable> = Vec::with_capacity(n);
        for sw in switches {
            tables.clear();
            tables.extend(configs.iter().map(|cfg| cfg.table(sw).unwrap_or(&empty)));
            let rules = index.switches.entry(sw).or_default();
            for (longest, members) in prefix_chains(&tables) {
                let members = members.map(|cfg| (cfg, tables[cfg].len()));
                rules.intern_chain(longest, members, n);
            }
        }
        // The configurations of a campaign share one topology: each distinct
        // one is written once, under the mask of the group that has it.
        let mut groups: Vec<(&Config, u64)> = Vec::new();
        for (c, cfg) in configs.iter().enumerate() {
            match groups.iter_mut().find(|(first, _)| first.same_topology(cfg)) {
                Some((_, mask)) => *mask |= 1 << c,
                None => groups.push((cfg, 1 << c)),
            }
        }
        for (cfg, mask) in groups {
            for (src, dst) in cfg.links() {
                *index.links.entry((src, dst)).or_default() |= mask;
                *index.link_srcs.entry(src).or_default() |= mask;
            }
            for host in cfg.hosts() {
                *index.hosts.entry(host).or_default() |= mask;
            }
        }
        index
    }

    /// The index's size: `(prefix chains, distinct rules)` over all switches.
    pub(crate) fn shape(&self) -> (usize, usize) {
        self.switches
            .values()
            .fold((0, 0), |(chains, rules), sw| (chains + sw.tables.len(), rules + sw.rules.len()))
    }

    /// The state of a path that starts at `loc` (`Config::start_state`).
    pub(crate) fn start(&self, loc: Loc) -> MaskedState {
        MaskedState { at_host: mask_of(&self.hosts, &loc.sw), ingress: 0, egress: 0 }
    }

    /// One transition (`Config::step_state`): the state after the hop from
    /// `a` at `a_loc` to `b` at `b_loc`, given the state `prev` at `a`.
    /// Both packets must have their virtual fields erased, and `same` must
    /// be `a == b`: the caller compares the two once (to decide whether the
    /// records can share one packet), and every use of that comparison
    /// below takes its result instead of making it again.
    pub(crate) fn step(
        &mut self,
        prev: MaskedState,
        a: &Packet,
        a_loc: Loc,
        b: &Packet,
        b_loc: Loc,
        same: bool,
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
            let want = prev.ingress & !mask_of(&self.hosts, &a_loc.sw);
            next.egress = self.table_hop(want, a, a_loc, Some((b, b_loc.pt, same)));
        }
        next
    }

    /// The configurations that admit a path ending in `state` at `last`:
    /// every live one for a prefix, else `Config::accepts_end`.
    pub(crate) fn admitted(
        &mut self,
        state: MaskedState,
        last: &Packet,
        last_loc: Loc,
        allow_prefix: bool,
    ) -> u64 {
        if allow_prefix {
            return state.live();
        }
        let mut done = state.at_host;
        if state.ingress != 0 {
            let hosts = mask_of(&self.hosts, &last_loc.sw);
            let forwarding = self.table_hop(state.ingress & !hosts, last, last_loc, None);
            done |= state.ingress & !forwarding;
        }
        if state.egress != 0 {
            done |= state.egress & !mask_of(&self.link_srcs, &last_loc);
        }
        done
    }

    /// The configurations of `want` whose table at `a_loc.sw` emits
    /// `to = (packet, port, packet == a)` for `a` — or, without `to`, emits
    /// anything.
    fn table_hop(
        &mut self,
        want: u64,
        a: &Packet,
        a_loc: Loc,
        to: Option<(&Packet, u64, bool)>,
    ) -> u64 {
        if want == 0 {
            return 0;
        }
        let Some(sw) = self.switches.get(&a_loc.sw) else { return 0 };
        let view = LocatedView { base: a, loc: a_loc, tag: None };
        sw.winners(&view, want, self.n, &mut self.matched, &mut self.winners);
        let mut hit = 0;
        for &(r, mask) in &self.winners {
            let mut actions = sw.rule(r).actions.iter();
            let emitted = match to {
                Some(to) => actions.any(|act| emits(act, a, a_loc, to, &mut self.scratch)),
                None => actions.next().is_some(),
            };
            if emitted {
                hit |= mask;
            }
        }
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ST_AT_HOST, ST_EGRESS, ST_INGRESS};
    use crate::trace::LocatedPacket;
    use netkat::{ActionSet, FlowTable, Match};
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
    /// priority order), and per configuration a variant of each base
    /// table, which of two link/host wirings it has, and extra links as
    /// location-index pairs. Variants *share, extend and reorder* the
    /// base's rules, the way the configurations of one NES do.
    type Variant = (usize, usize, usize);
    type FamilyRecipe = (Vec<Vec<usize>>, Vec<(Vec<Variant>, bool, Vec<(usize, usize)>)>);

    fn arb_family() -> impl Strategy<Value = FamilyRecipe> {
        let base = proptest::collection::vec(0usize..49, 2..9);
        let variant = (0usize..14, 0usize..64, 0usize..7);
        let config = (
            proptest::collection::vec(variant, SWITCHES.len()),
            proptest::bool::ANY,
            proptest::collection::vec((0usize..14, 0usize..14), 0..2),
        );
        (proptest::collection::vec(base, SWITCHES.len()), proptest::collection::vec(config, 2..9))
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

    fn build_family((bases, configs): &FamilyRecipe) -> Vec<Config> {
        let pool = rule_pool();
        let locs = locations();
        let wholes: Vec<FlowTable> = bases.iter().map(|base| whole(&pool, base)).collect();
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
                    if let Some(table) = vary(&pool, &bases[i], &wholes[i], variants[i]) {
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
            let mut index = SharedIndex::build(&family.iter().collect::<Vec<_>>());
            for walk in &walks {
                let trace = run_walk(&family, walk);
                let mut masked = index.start(trace[0].loc);
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
                    masked =
                        index.step(masked, &w[0].packet, w[0].loc, &w[1].packet, w[1].loc, same);
                    let complete = index.admitted(masked, &w[1].packet, w[1].loc, false);
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
                    let admitted = index.admitted(masked, &last.packet, last.loc, allow_prefix);
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

    #[test]
    fn shared_rules_are_interned_once_with_their_masks() {
        let pool = rule_pool();
        let table = |picks: &[usize]| FlowTable::from_rules(picks.iter().map(|&i| pool[i].clone()));
        let mut a = Config::new();
        a.install(1, table(&[8, 15, 8]));
        let mut b = Config::new();
        b.install(1, table(&[15, 8, 22]));
        let index = SharedIndex::build(&[&a, &b, &Config::new()]);
        let sw = &index.switches[&1];
        assert_eq!(sw.rules.len(), 3, "three distinct rules behind six installed");
        let of = |i: usize| {
            (0..sw.rules.len()).find(|&r| *sw.rule(r as u32) == pool[i]).expect("interned")
        };
        assert_eq!(sw.rules[of(8)].mask, 0b011);
        assert_eq!(sw.rules[of(22)].mask, 0b010);
        // First occurrence per configuration; absent elsewhere.
        assert_eq!(sw.pos[of(8) * 3..][..3], [0, 1, NONE]);
        assert_eq!(sw.pos[of(15) * 3..][..3], [1, 0, NONE]);
    }

    /// Five configurations, two chains: three views of one list and an equal
    /// prefix built apart are one chain, walked once; a mid-list rewrite
    /// (the moved-host shape) is neither a prefix nor an extension and opens
    /// the second. `intern` sees the chains' longest tables and nothing else.
    #[test]
    fn a_chain_is_interned_once_whatever_its_members() {
        let pool = rule_pool();
        let table = |picks: &[usize]| FlowTable::from_rules(picks.iter().map(|&i| pool[i].clone()));
        let whole = table(&[8, 15, 22, 8]);
        let rewrite = table(&[8, 16, 22]);
        let tables = [whole.prefix(1), whole.prefix(2), whole.clone(), table(&[8, 15]), rewrite];
        let family: Vec<Config> = tables
            .iter()
            .map(|t| {
                let mut cfg = Config::new();
                cfg.install(1, t.clone());
                cfg
            })
            .collect();
        let index = SharedIndex::build(&family.iter().collect::<Vec<_>>());
        assert_eq!(index.shape(), (2, 4), "two chains, four distinct rules");
        let sw = &index.switches[&1];
        assert_eq!(sw.tables.iter().map(FlowTable::len).collect::<Vec<_>>(), [4, 3]);
        assert_eq!(sw.visits, 4 + 3, "one visit per rule of each chain's longest table");
        let of = |i: usize| {
            (0..sw.rules.len()).find(|&r| *sw.rule(r as u32) == pool[i]).expect("interned")
        };
        assert_eq!(sw.rules[of(8)].mask, 0b11111);
        assert_eq!(sw.rules[of(15)].mask, 0b01110, "held by the members longer than one rule");
        assert_eq!(sw.rules[of(22)].mask, 0b10100);
        assert_eq!(sw.rules[of(16)].mask, 0b10000);
        // The repeat at the end of `whole` does not move rule 8's position.
        assert_eq!(sw.pos[of(8) * 5..][..5], [0; 5]);
        assert_eq!(sw.pos[of(22) * 5..][..5], [NONE, NONE, 2, NONE, 2]);
    }
}
