//! Compiling an NES for deployment (Section 4.1).
//!
//! Every event-set of the NES gets an integer *tag*; every configuration is
//! installed proactively, with each rule guarded by its tag; switches stamp
//! incoming packets with the tag of their current event-set and learn events
//! from packet digests. The tag of an event-set is its position among the
//! NES's sorted event-sets — the column of the NES's table index — so
//! compiling keeps no table of its own.

use std::collections::BTreeSet;
use std::fmt;

use edn_core::{EventSet, NetworkEventStructure};
use netkat::{ActionSet, Match};

/// A deployable compilation of an NES.
///
/// # Examples
///
/// Compile the one-event firewall NES and inspect its tags:
///
/// ```
/// # use edn_core::*;
/// # use netkat::{Loc, Pred};
/// # let e0 = EventId::new(0);
/// # let es = EventStructure::new(
/// #     vec![Event::new(e0, Pred::True, Loc::new(4, 1))],
/// #     [EventSet::singleton(e0)],
/// # );
/// # let nes = NetworkEventStructure::new(es, [
/// #     (EventSet::empty(), Config::new()),
/// #     (EventSet::singleton(e0), Config::new()),
/// # ]).unwrap();
/// use nes_runtime::CompiledNes;
/// let compiled = CompiledNes::compile(nes);
/// assert_eq!(compiled.tag_count(), 2);
/// assert_eq!(compiled.tag_of(EventSet::empty()), Some(0));
/// ```
#[derive(Clone, Debug)]
pub struct CompiledNes {
    /// Tag `t` is the NES's `t`-th event-set (sorted, so `∅` is always
    /// tag 0).
    nes: NetworkEventStructure,
}

/// Installed-rule counts, split by role (Section 4.1's building blocks).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RuleBreakdown {
    /// Tag-guarded forwarding rules (one copy of each configuration rule).
    pub forwarding: usize,
    /// Ingress stamping rules (one per switch per tag).
    pub stamping: usize,
    /// Event-detection rules (one per enabled `(event-set, event)` pair, at
    /// the event's switch).
    pub detection: usize,
}

impl RuleBreakdown {
    /// Total rules installed.
    pub fn total(&self) -> usize {
        self.forwarding + self.stamping + self.detection
    }
}

impl fmt::Display for RuleBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} rules ({} forwarding + {} stamping + {} detection)",
            self.total(),
            self.forwarding,
            self.stamping,
            self.detection
        )
    }
}

impl CompiledNes {
    /// Compiles an NES: its sorted event-sets are the tags.
    pub fn compile(nes: NetworkEventStructure) -> CompiledNes {
        CompiledNes { nes }
    }

    /// The underlying NES.
    pub fn nes(&self) -> &NetworkEventStructure {
        &self.nes
    }

    /// Number of tags (= event-sets = proactively installed configurations).
    pub fn tag_count(&self) -> usize {
        self.nes.event_sets().len()
    }

    /// The tag of an event-set, if it is reachable.
    pub fn tag_of(&self, set: EventSet) -> Option<u64> {
        self.nes.index_of(set).map(|tag| tag as u64)
    }

    /// The event-set of a tag.
    ///
    /// # Panics
    ///
    /// Panics on an unknown tag.
    pub fn set_of(&self, tag: u64) -> EventSet {
        self.nes.event_sets()[tag as usize]
    }

    /// The table `g(set_of(tag))` installs on `sw` — the specification every
    /// deployed lookup answers to. `None` for an out-of-range tag or a
    /// switch that configuration leaves without a table.
    #[cfg(test)]
    pub(crate) fn table(&self, sw: u64, tag: u64) -> Option<&netkat::FlowTable> {
        self.nes.config(*self.nes.event_sets().get(tag as usize)?).table(sw)
    }

    /// The *effective* event-set for an arbitrary known-events set: the
    /// largest reachable event-set obtainable by repeatedly firing enabled,
    /// consistent events from `known` (in id order, deterministically).
    ///
    /// A switch may transiently know about an event whose causal
    /// prerequisites it has not heard of (e.g. a controller broadcast raced
    /// past a gossip path); such events do not take effect until their
    /// prerequisites arrive, which is exactly the enabling discipline of the
    /// SWITCH rule in Fig. 7.
    pub fn effective_set(&self, known: EventSet) -> EventSet {
        let mut cur = EventSet::empty();
        loop {
            let mut grown = false;
            for e in known.difference(cur).iter() {
                if self.nes.structure().enabled(cur, e)
                    && self.nes.structure().consistent(cur.insert(e))
                {
                    cur = cur.insert(e);
                    grown = true;
                }
            }
            if !grown {
                return cur;
            }
        }
    }

    /// The rule footprint of the deployment (Section 4.1, used by the
    /// Section 5.1 per-application table).
    pub fn rule_breakdown(&self) -> RuleBreakdown {
        let tags = self.nes.event_sets();
        let mut b = RuleBreakdown {
            forwarding: tags.iter().map(|&set| self.nes.config(set).rule_count()).sum(),
            // Every switch with a table stamps under every tag.
            stamping: self.nes.table_rows().len() * tags.len(),
            detection: 0,
        };
        for &set in tags {
            for event in self.nes.events() {
                if !set.contains(event.id)
                    && self.nes.structure().enabled(set, event.id)
                    && self.nes.structure().consistent(set.insert(event.id))
                {
                    b.detection += 1;
                }
            }
        }
        b
    }

    /// The per-tag rule sets in a shape the rule-sharing optimizer consumes:
    /// `rules[tag]` is the set of `(switch, match, actions)` triples of that
    /// tag's configuration.
    pub fn config_rule_sets(&self) -> Vec<BTreeSet<(u64, Match, ActionSet)>> {
        self.nes
            .event_sets()
            .iter()
            .map(|&set| {
                let config = self.nes.config(set);
                let mut rules = BTreeSet::new();
                for sw in config.switches() {
                    if let Some(table) = config.table(sw) {
                        for rule in table.iter() {
                            rules.insert((sw, rule.pattern.clone(), rule.actions.clone()));
                        }
                    }
                }
                rules
            })
            .collect()
    }

    /// One firing step: which of `candidates` actually occur given the
    /// fixed pre-arrival set `known`, per the SWITCH rule:
    /// `E′ = {e : known ⊢ e ∧ con(known ∪ E′ ∪ {e})}`.
    ///
    /// Enabling is checked against `known` *without cascading* — a renamed
    /// event chain (the bandwidth cap) advances one step per packet — while
    /// consistency is checked against the accumulated result (in id order)
    /// so a packet matching two *conflicting* events fires at most one, as
    /// Lemma 3 requires.
    pub fn fire_step(&self, known: EventSet, candidates: EventSet) -> EventSet {
        let mut fired = EventSet::empty();
        for e in candidates.iter() {
            if known.contains(e) || fired.contains(e) {
                continue;
            }
            if self.nes.structure().enabled(known, e)
                && self.nes.structure().consistent(known.union(fired).insert(e))
            {
                fired = fired.insert(e);
            }
        }
        fired
    }

    /// Events newly triggered by a packet arrival: [`fire_step`] applied to
    /// the events the located packet matches, the packet read through any
    /// [`FieldReader`](netkat::FieldReader).
    ///
    /// [`fire_step`]: CompiledNes::fire_step
    pub fn triggered<R: netkat::FieldReader>(
        &self,
        known: EventSet,
        packet: &R,
        loc: netkat::Loc,
    ) -> EventSet {
        self.fire_step(known, self.matching_on(packet, loc))
    }

    /// The events whose guard and location the located packet matches,
    /// enabled or not.
    pub(crate) fn matching_on<R: netkat::FieldReader>(
        &self,
        packet: &R,
        loc: netkat::Loc,
    ) -> EventSet {
        self.nes.events_at(loc).filter(|e| e.pred.eval_on(packet)).map(|e| e.id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edn_core::{Config, Event, EventId, EventStructure};
    use netkat::{Action, Field, FlowTable, Loc, Packet, Pred, Rule};

    fn chain_nes() -> NetworkEventStructure {
        // e0 then e1, both at switch 4 port 1.
        let e0 = EventId::new(0);
        let e1 = EventId::new(1);
        let es = EventStructure::new(
            vec![
                Event::new(e0, Pred::test(Field::IpDst, 4), Loc::new(4, 1)),
                Event::new(e1, Pred::test(Field::IpDst, 4), Loc::new(4, 1)),
            ],
            [EventSet::singleton(e0), EventSet::from_iter([e0, e1])],
        );
        NetworkEventStructure::new(
            es,
            [
                (EventSet::empty(), Config::new()),
                (EventSet::singleton(e0), Config::new()),
                (EventSet::from_iter([e0, e1]), Config::new()),
            ],
        )
        .unwrap()
    }

    #[test]
    fn tags_are_stable_and_start_empty() {
        let c = CompiledNes::compile(chain_nes());
        assert_eq!(c.tag_count(), 3);
        assert_eq!(c.set_of(0), EventSet::empty());
        assert_eq!(c.tag_of(EventSet::empty()), Some(0));
        assert_eq!(c.tag_of(EventSet::singleton(EventId::new(1))), None);
    }

    #[test]
    fn effective_set_respects_enabling() {
        let c = CompiledNes::compile(chain_nes());
        let e0 = EventId::new(0);
        let e1 = EventId::new(1);
        // Knowing only e1 (prerequisite missing) has no effect.
        assert_eq!(c.effective_set(EventSet::singleton(e1)), EventSet::empty());
        // Knowing both applies both.
        assert_eq!(c.effective_set(EventSet::from_iter([e0, e1])), EventSet::from_iter([e0, e1]));
        assert_eq!(c.tag_of(c.effective_set(EventSet::singleton(e1))), Some(0));
    }

    #[test]
    fn triggered_fires_in_order_and_respects_enabling() {
        let c = CompiledNes::compile(chain_nes());
        let pk = Packet::new().with(Field::IpDst, 4);
        let loc = Loc::new(4, 1);
        // From nothing, one packet triggers e0 only: e1's enabling is
        // checked against the pre-arrival set (no cascading), so a renamed
        // chain advances one step per packet.
        let fired = c.triggered(EventSet::empty(), &pk, loc);
        assert_eq!(fired, EventSet::singleton(EventId::new(0)));
        // From {e0}, only e1 fires.
        let fired = c.triggered(EventSet::singleton(EventId::new(0)), &pk, loc);
        assert_eq!(fired, EventSet::singleton(EventId::new(1)));
        // Wrong location: nothing.
        assert_eq!(c.triggered(EventSet::empty(), &pk, Loc::new(4, 2)), EventSet::empty());
    }

    #[test]
    fn conflicting_events_fire_at_most_one() {
        let e0 = EventId::new(0);
        let e1 = EventId::new(1);
        let es = EventStructure::new(
            vec![
                Event::new(e0, Pred::True, Loc::new(2, 1)),
                Event::new(e1, Pred::True, Loc::new(2, 1)),
            ],
            [EventSet::singleton(e0), EventSet::singleton(e1)],
        );
        let nes = NetworkEventStructure::new(
            es,
            [
                (EventSet::empty(), Config::new()),
                (EventSet::singleton(e0), Config::new()),
                (EventSet::singleton(e1), Config::new()),
            ],
        )
        .unwrap();
        let c = CompiledNes::compile(nes);
        let fired = c.triggered(EventSet::empty(), &Packet::new(), Loc::new(2, 1));
        assert_eq!(fired, EventSet::singleton(e0), "greedy pick keeps the set consistent");
    }

    /// The paper's one-switch firewall: `∅` forwards 2 → 3, and `{e0}`
    /// (a packet for host 300 arriving at port 2) also forwards 3 → 2.
    fn firewall_nes() -> NetworkEventStructure {
        let fwd = |a: u64, b: u64| {
            Rule::new(
                Match::new().with(Field::Port, a),
                ActionSet::single(Action::assign(Field::Port, b)),
            )
        };
        let mk = |rules: Vec<Rule>| {
            let mut c = Config::new();
            c.install(1, FlowTable::from_rules(rules));
            c.add_host(200, Loc::new(1, 2));
            c.add_host(300, Loc::new(1, 3));
            c
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

    #[test]
    fn rule_breakdown_counts_detection_pairs() {
        let c = CompiledNes::compile(chain_nes());
        let b = c.rule_breakdown();
        // Empty configs: no forwarding or stamping rules, but two enabled
        // (set, event) pairs: (∅, e0) and ({e0}, e1).
        assert_eq!(b.forwarding, 0);
        assert_eq!(b.stamping, 0);
        assert_eq!(b.detection, 2);
        assert_eq!(b.total(), 2);

        // One copy of every configuration's rules, one stamping rule per
        // (switch, tag), and one detection: e0 in tag 0 (in tag 1 it fired).
        let c = CompiledNes::compile(firewall_nes());
        let b = c.rule_breakdown();
        let tables: usize = (0..c.tag_count() as u64)
            .map(|tag| c.nes().config(c.set_of(tag)).table(1).map_or(0, FlowTable::len))
            .sum();
        assert_eq!((tables, b.forwarding), (3, 3));
        assert_eq!(b.stamping, 2, "1 switch × 2 tags");
        assert_eq!(b.detection, 1);
        assert_eq!(b.total(), 6);
    }
}
