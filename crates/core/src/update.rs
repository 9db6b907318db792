//! Event-driven consistent updates (Definition 2).
//!
//! An update `(U, E)` is a sequence `C₀ →e₀ C₁ →e₁ ⋯ →eₙ Cₙ₊₁` together
//! with the universe of events `E`. A network trace is *correct* with
//! respect to it when every packet trace is processed by a single
//! configuration, packets entirely before the i-th event's first occurrence
//! use a preceding configuration, and packets entirely after it use a
//! following one.
//!
//! Read literally, Definition 2 counts every event match as an occurrence.
//! The paper's runtime — correctly, per its locality principle — fires an
//! event only at a switch that has *heard about* the events enabling it, so
//! the check counts a matching arrival as an occurrence of `e` only if some
//! set of the event structure's family that contains `e` has all its other
//! members occurring happens-before the arrival (the `E′` computation of
//! the SWITCH rule of Fig. 7). For an event enabled at `∅` that is every
//! match, the literal reading.

use std::fmt;

use crate::config::Config;
use crate::estructure::EventStructure;
use crate::event::{Event, EventId, EventSet};
use crate::happens::HappensBefore;
use crate::trace::{LocatedPacket, NetworkTrace};

/// Is the matching arrival at global index `j` an occurrence of `event`,
/// given the occurrences `prior` (event, index) observed so far? Yes if
/// some set of the family contains `event` and its other members have all
/// occurred happens-before `j` — i.e. the switch could have heard about
/// them.
fn is_occurrence(
    es: &EventStructure,
    hb: &HappensBefore,
    j: usize,
    event: &Event,
    prior: &[(EventId, usize)],
) -> bool {
    let fired: EventSet = prior.iter().map(|&(e, _)| e).collect();
    let index_of = |e: EventId| prior.iter().find(|&&(p, _)| p == e).map(|&(_, k)| k);
    es.family().iter().any(|&y| {
        y.contains(event.id)
            && y.remove(event.id).is_subset(fired)
            && y.remove(event.id).iter().all(|x| index_of(x).is_some_and(|k| hb.before(k, j)))
    })
}

/// An update sequence `C₀ →e₀ C₁ →e₁ ⋯ →eₙ Cₙ₊₁`.
#[derive(Clone, Debug)]
pub struct UpdateSequence {
    /// `n + 2` configurations.
    pub configs: Vec<Config>,
    /// `n + 1` events, with `events[i]` labelling `Cᵢ → Cᵢ₊₁`.
    pub events: Vec<Event>,
}

impl UpdateSequence {
    /// Creates an update sequence.
    ///
    /// # Panics
    ///
    /// Panics unless `configs.len() == events.len() + 1`.
    pub fn new(configs: Vec<Config>, events: Vec<Event>) -> UpdateSequence {
        assert_eq!(
            configs.len(),
            events.len() + 1,
            "an update C0 -e0-> ... -en-> Cn+1 needs one more config than events"
        );
        UpdateSequence { configs, events }
    }
}

/// Why a trace fails Definition 2.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum UpdateViolation {
    /// The first-occurrence sequence `FO(ntr, U)` does not exist.
    NoFirstOccurrences {
        /// Index of the first event in `U` without a valid occurrence, or
        /// `None` if a stray event match after the last occurrence breaks it.
        failed_at: Option<usize>,
    },
    /// A packet trace is not processed entirely by any configuration.
    Inconsistent {
        /// The packet trace index in `T`.
        trace: usize,
    },
    /// A packet trace entirely before event `i`'s occurrence was processed
    /// by a configuration later than `Cᵢ` (the update happened too early).
    TooEarly {
        /// The packet trace index.
        trace: usize,
        /// The event position in `U`.
        event: usize,
    },
    /// A packet trace entirely after event `i`'s occurrence was processed by
    /// a configuration earlier than `Cᵢ₊₁` (the update happened too late).
    TooLate {
        /// The packet trace index.
        trace: usize,
        /// The event position in `U`.
        event: usize,
    },
}

impl fmt::Display for UpdateViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateViolation::NoFirstOccurrences { failed_at: Some(i) } => {
                write!(f, "event {i} of the update sequence never occurs in the trace")
            }
            UpdateViolation::NoFirstOccurrences { failed_at: None } => {
                write!(f, "an event of the universe occurs after the final first-occurrence")
            }
            UpdateViolation::Inconsistent { trace } => {
                write!(f, "packet trace {trace} is not processed by any single configuration")
            }
            UpdateViolation::TooEarly { trace, event } => write!(
                f,
                "packet trace {trace} precedes event {event} but used a later configuration"
            ),
            UpdateViolation::TooLate { trace, event } => write!(
                f,
                "packet trace {trace} follows event {event} but used an earlier configuration"
            ),
        }
    }
}

impl std::error::Error for UpdateViolation {}

/// Computes `FO(ntr, U)`: the first-occurrence indices `k₀ < ⋯ < kₙ`.
///
/// Returns the violation if they do not exist: some event has no occurrence
/// in its window, the triggering packet was not processed by the immediately
/// preceding configuration, or one of `residual` matches after `kₙ`.
///
/// `residual` lists the events whose occurrence after the final
/// first-occurrence invalidates the trace. Callers working from an NES
/// should pass only the events still *fireable* once the sequence has run
/// (not yet occurred, enabled, and consistent to add): an arrival matching
/// an already-consumed or conflicting event does not constitute an event
/// occurrence (cf. the `E′` computation in the SWITCH rule of Fig. 7).
/// `es` is the event structure whose family decides which matches are
/// occurrences (see the module documentation).
pub fn first_occurrences(
    ntr: &NetworkTrace,
    update: &UpdateSequence,
    residual: &[Event],
    es: &EventStructure,
) -> Result<Vec<usize>, UpdateViolation> {
    let hb = HappensBefore::of(ntr);
    first_occurrences_with_hb(ntr, &hb, update, residual, es)
}

fn first_occurrences_with_hb(
    ntr: &NetworkTrace,
    hb: &HappensBefore,
    update: &UpdateSequence,
    residual: &[Event],
    es: &EventStructure,
) -> Result<Vec<usize>, UpdateViolation> {
    let erased: Vec<LocatedPacket> =
        ntr.packets().iter().map(LocatedPacket::erase_virtual).collect();
    let occurs = |j: usize, e: &Event, prior: &[(EventId, usize)]| {
        e.matches(&erased[j].packet, erased[j].loc) && is_occurrence(es, hb, j, e, prior)
    };

    let mut ks: Vec<usize> = Vec::with_capacity(update.events.len());
    let mut prior: Vec<(EventId, usize)> = Vec::new();
    let mut prev: isize = -1;
    for (i, e) in update.events.iter().enumerate() {
        let start = (prev + 1) as usize;
        let Some(k) = (start..erased.len()).find(|&j| occurs(j, e, &prior)) else {
            return Err(UpdateViolation::NoFirstOccurrences { failed_at: Some(i) });
        };
        // The triggering packet must be processed by the immediately
        // preceding configuration: ∃t ∈ ntr↓k with ntr↓t ∈ Traces(Cᵢ).
        let triggered_ok = ntr.traces_through(k).into_iter().any(|t| {
            let trace: Vec<LocatedPacket> =
                ntr.traces()[t].iter().map(|&j| erased[j].clone()).collect();
            update.configs[i].admits_trace(&trace, !ntr.trace_is_terminated(t))
        });
        if !triggered_ok {
            return Err(UpdateViolation::NoFirstOccurrences { failed_at: Some(i) });
        }
        ks.push(k);
        prior.push((e.id, k));
        prev = k as isize;
    }
    // No still-fireable event may occur after k_n.
    let kn = ks.last().copied().map(|k| k as isize).unwrap_or(-1);
    for j in ((kn + 1) as usize)..erased.len() {
        if residual.iter().any(|e| occurs(j, e, &prior)) {
            return Err(UpdateViolation::NoFirstOccurrences { failed_at: None });
        }
    }
    Ok(ks)
}

/// Checks a network trace against Definition 2.
///
/// Virtual runtime fields (tag, digest) are erased before matching events
/// and checking `Traces(C)` membership, since abstract configurations do not
/// mention them. Packet traces still in flight are treated as prefixes.
/// `residual` and `es` are documented at [`first_occurrences`].
///
/// # Errors
///
/// Returns the first [`UpdateViolation`] found.
pub fn check_update(
    ntr: &NetworkTrace,
    update: &UpdateSequence,
    residual: &[Event],
    es: &EventStructure,
) -> Result<(), UpdateViolation> {
    let hb = HappensBefore::of(ntr);
    let ks = first_occurrences_with_hb(ntr, &hb, update, residual, es)?;
    let erased: Vec<LocatedPacket> =
        ntr.packets().iter().map(LocatedPacket::erase_virtual).collect();

    // Which configurations admit each packet trace. A trace that ended in a
    // recorded drop must be a *complete* trace of the configuration; one
    // still in flight at the end of the recording only needs to be a prefix.
    let n_traces = ntr.traces().len();
    let mut admitted: Vec<Vec<bool>> = Vec::with_capacity(n_traces);
    for t in 0..n_traces {
        let trace: Vec<LocatedPacket> =
            ntr.traces()[t].iter().map(|&j| erased[j].clone()).collect();
        let allow_prefix = !ntr.trace_is_terminated(t);
        admitted
            .push(update.configs.iter().map(|c| c.admits_trace(&trace, allow_prefix)).collect());
    }

    for (t, admitted_t) in admitted.iter().enumerate() {
        // Condition 1: some configuration processes the whole trace.
        if !admitted_t.iter().any(|&a| a) {
            return Err(UpdateViolation::Inconsistent { trace: t });
        }
        for (i, &k) in ks.iter().enumerate() {
            let idxs = || ntr.traces()[t].iter().copied();
            // Condition 2: entirely before eᵢ ⇒ processed by C₀..Cᵢ.
            if hb.all_before(idxs(), k) && !admitted_t[..=i].iter().any(|&a| a) {
                return Err(UpdateViolation::TooEarly { trace: t, event: i });
            }
            // Condition 3: entirely after eᵢ ⇒ processed by Cᵢ₊₁..Cₙ₊₁.
            if hb.all_after(idxs(), k) && !admitted_t[i + 1..].iter().any(|&a| a) {
                return Err(UpdateViolation::TooLate { trace: t, event: i });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventId;
    use crate::trace::TraceBuilder;
    use netkat::{Action, ActionSet, Field, FlowTable, Loc, Match, Packet, Pred, Rule};

    /// A one-link world: host 100 -- 1:2, host 101 -- 1:3, switch 1.
    /// C0: pt2 -> pt3 only. C1: pt2 -> pt3 and pt3 -> pt2.
    fn configs() -> (Config, Config) {
        let base = |rules: Vec<Rule>| {
            let mut c = Config::new();
            c.install(1, FlowTable::from_rules(rules));
            c.add_host(100, Loc::new(1, 2));
            c.add_host(101, Loc::new(1, 3));
            c
        };
        let fwd = |a: u64, b: u64| {
            Rule::new(
                Match::new().with(Field::Port, a),
                ActionSet::single(Action::assign(Field::Port, b)),
            )
        };
        let c0 = base(vec![fwd(2, 3)]);
        let c1 = base(vec![fwd(2, 3), fwd(3, 2)]);
        (c0, c1)
    }

    /// Arrival of a packet for host 101 at 1:2 — the predicate keeps the
    /// event from matching *egress* occurrences of reply traffic at 1:2,
    /// exactly like the paper's `(dst=H4, 4:1)` events.
    fn trigger_event() -> Event {
        Event::new(EventId::new(0), Pred::test(Field::IpDst, 101), Loc::new(1, 2))
    }

    /// The one-event structure of `trigger_event`, enabled at `∅`: under
    /// it every match is an occurrence, as Definition 2 reads literally.
    fn one_event() -> EventStructure {
        EventStructure::new(vec![trigger_event()], [EventSet::singleton(EventId::new(0))])
    }

    fn fwd_pk() -> Packet {
        Packet::new().with(Field::IpDst, 101)
    }

    fn reply_pk() -> Packet {
        Packet::new().with(Field::IpDst, 100)
    }

    fn push_transit(b: &mut TraceBuilder, pk: &Packet, hops: &[(u64, u64)]) -> Vec<usize> {
        let mut out = Vec::new();
        let mut parent = None;
        for &(sw, pt) in hops {
            let i = b.push(pk.clone(), Loc::new(sw, pt), parent);
            parent = Some(i);
            out.push(i);
        }
        out
    }

    #[test]
    fn correct_single_update_passes() {
        let (c0, c1) = configs();
        let e = trigger_event();
        let update = UpdateSequence::new(vec![c0, c1], vec![e.clone()]);
        let mut b = TraceBuilder::new();
        // Forward flow triggers the event at 1:2; delivered to host 101.
        push_transit(&mut b, &fwd_pk(), &[(100, 0), (1, 2), (1, 3), (101, 0)]);
        // Reply flow afterwards, allowed by C1.
        push_transit(&mut b, &reply_pk(), &[(101, 0), (1, 3), (1, 2), (100, 0)]);
        let ntr = b.build().unwrap();
        // The single event has fired, so nothing remains fireable.
        let ks = first_occurrences(&ntr, &update, &[], &one_event()).unwrap();
        assert_eq!(ks, vec![1]);
        assert!(check_update(&ntr, &update, &[], &one_event()).is_ok());
    }

    #[test]
    fn residual_event_match_after_kn_fails_fo() {
        let (c0, c1) = configs();
        let e = trigger_event();
        let update = UpdateSequence::new(vec![c0, c1], vec![e.clone()]);
        let mut b = TraceBuilder::new();
        // Two forward flows: the second matches the event again after k0.
        push_transit(&mut b, &fwd_pk(), &[(100, 0), (1, 2), (1, 3), (101, 0)]);
        push_transit(&mut b, &fwd_pk(), &[(100, 0), (1, 2), (1, 3), (101, 0)]);
        let ntr = b.build().unwrap();
        // If the event is still considered fireable, FO does not exist...
        let err = first_occurrences(&ntr, &update, &[e], &one_event()).unwrap_err();
        assert_eq!(err, UpdateViolation::NoFirstOccurrences { failed_at: None });
        // ...but once consumed (the NES-aware residual), the trace is fine.
        assert!(check_update(&ntr, &update, &[], &one_event()).is_ok());
    }

    #[test]
    fn dropped_reply_is_a_legal_prefix() {
        let (c0, c1) = configs();
        let e = trigger_event();
        let update = UpdateSequence::new(vec![c0, c1], vec![e.clone()]);
        let mut b = TraceBuilder::new();
        push_transit(&mut b, &fwd_pk(), &[(100, 0), (1, 2), (1, 3), (101, 0)]);
        // Reply arrives at 1:3 afterwards and stops there: a complete C0
        // trace (no rule for pt 3) and a C1 prefix — either reading is
        // consistent with Definition 2.
        push_transit(&mut b, &reply_pk(), &[(101, 0), (1, 3)]);
        let ntr = b.build().unwrap();
        assert!(check_update(&ntr, &update, &[], &one_event()).is_ok());
    }

    #[test]
    fn forbidden_flow_before_event_is_too_early() {
        let (c0, c1) = configs();
        let e = trigger_event();
        let update = UpdateSequence::new(vec![c0.clone(), c1], vec![e.clone()]);
        let mut b = TraceBuilder::new();
        // The reply path is used *before* any packet from 100 arrives —
        // i.e. the network behaved like C1 too early...
        push_transit(&mut b, &reply_pk(), &[(101, 0), (1, 3), (1, 2), (100, 0)]);
        // ...then the trigger fires.
        push_transit(&mut b, &fwd_pk(), &[(100, 0), (1, 2), (1, 3), (101, 0)]);
        let ntr = b.build().unwrap();
        let err = check_update(&ntr, &update, &[], &one_event()).unwrap_err();
        assert_eq!(err, UpdateViolation::TooEarly { trace: 0, event: 0 });
    }

    #[test]
    fn missing_event_fails_fo() {
        let (c0, c1) = configs();
        let e = trigger_event();
        let update = UpdateSequence::new(vec![c0, c1], vec![e.clone()]);
        let mut b = TraceBuilder::new();
        push_transit(&mut b, &reply_pk(), &[(101, 0), (1, 3)]);
        let ntr = b.build().unwrap();
        let err = first_occurrences(&ntr, &update, &[e], &one_event()).unwrap_err();
        assert_eq!(err, UpdateViolation::NoFirstOccurrences { failed_at: Some(0) });
    }

    #[test]
    fn trace_outside_every_config_is_inconsistent() {
        // C0 forwards 2->3; C1 forwards 2->4. A packet hopping 2->5 is
        // admitted by neither.
        let mk = |out: u64| {
            let mut c = Config::new();
            c.install(
                1,
                FlowTable::from_rules([Rule::new(
                    Match::new().with(Field::Port, 2),
                    ActionSet::single(Action::assign(Field::Port, out)),
                )]),
            );
            c.add_host(100, Loc::new(1, 2));
            c.add_host(101, Loc::new(1, 3));
            c
        };
        let (c0, c1) = (mk(3), mk(4));
        let e = trigger_event();
        let update = UpdateSequence::new(vec![c0, c1], vec![e]);
        let mut b = TraceBuilder::new();
        // Trigger packet: legal C0 transit.
        push_transit(&mut b, &fwd_pk(), &[(100, 0), (1, 2), (1, 3), (101, 0)]);
        // Rogue packet: hops to a port neither config produces.
        push_transit(&mut b, &reply_pk(), &[(100, 0), (1, 2), (1, 5)]);
        let ntr = b.build().unwrap();
        let err = check_update(&ntr, &update, &[], &one_event()).unwrap_err();
        assert_eq!(err, UpdateViolation::Inconsistent { trace: 1 });
    }

    #[test]
    fn multicast_fork_paths_check_independently() {
        // Definition 2 constrains *packet traces* (root-to-leaf paths): a
        // fork whose branches are each admitted by some configuration
        // passes, even though no single configuration multicasts.
        let mk = |out: u64| {
            let mut c = Config::new();
            c.install(
                1,
                FlowTable::from_rules([Rule::new(
                    Match::new().with(Field::Port, 2),
                    ActionSet::single(Action::assign(Field::Port, out)),
                )]),
            );
            c.add_host(100, Loc::new(1, 2));
            c
        };
        let (c0, c1) = (mk(3), mk(4));
        let e = trigger_event();
        let update = UpdateSequence::new(vec![c0, c1], vec![e]);
        let mut b = TraceBuilder::new();
        let pk = fwd_pk();
        let h = b.push(pk.clone(), Loc::new(100, 0), None);
        let at1 = b.push(pk.clone(), Loc::new(1, 2), Some(h));
        b.push(pk.clone(), Loc::new(1, 3), Some(at1));
        b.push(pk.clone(), Loc::new(1, 4), Some(at1));
        let ntr = b.build().unwrap();
        assert!(check_update(&ntr, &update, &[], &one_event()).is_ok());
    }

    #[test]
    #[should_panic(expected = "one more config")]
    fn mismatched_lengths_panic() {
        let (c0, _) = configs();
        UpdateSequence::new(vec![c0], vec![trigger_event()]);
    }
}
