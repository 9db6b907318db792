//! Correct network traces with respect to an NES (Definition 6).
//!
//! A trace is correct when either no event matches and every packet trace is
//! processed by `g(∅)`, or some sequence `e₀ ⋯ eₙ` allowed by the NES makes
//! the trace correct for the induced event-driven consistent update
//! `g(∅) →e₀ g({e₀}) →e₁ ⋯`.

use std::fmt;

use crate::event::{EventId, EventSet};
use crate::nes::NetworkEventStructure;
use crate::trace::{LocatedPacket, NetworkTrace};
use crate::update::{check_update, UpdateSequence, UpdateViolation};

/// Why a trace is not correct with respect to an NES.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CorrectnessViolation {
    /// No event matched, but some packet trace is outside `Traces(g(∅))`.
    InitialConfigViolation {
        /// The offending packet trace.
        trace: usize,
    },
    /// No allowed event sequence makes the trace correct. Carries the
    /// violation observed for the most faithful candidate sequence (the one
    /// whose first-occurrence computation got furthest).
    NoAllowedSequence {
        /// The best candidate sequence tried.
        best_sequence: Vec<EventId>,
        /// Its violation.
        violation: UpdateViolation,
    },
}

impl fmt::Display for CorrectnessViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorrectnessViolation::InitialConfigViolation { trace } => write!(
                f,
                "no event occurred but packet trace {trace} is not a trace of the initial configuration"
            ),
            CorrectnessViolation::NoAllowedSequence { best_sequence, violation } => write!(
                f,
                "no allowed event sequence explains the trace; best candidate {best_sequence:?} fails with: {violation}"
            ),
        }
    }
}

impl std::error::Error for CorrectnessViolation {}

/// Checks Definition 6: is `ntr` correct with respect to `nes`?
///
/// `hint`, if given, is an event sequence tried first (runtimes know the
/// order in which events actually fired); all allowed sequences are tried
/// otherwise.
///
/// # Errors
///
/// Returns a [`CorrectnessViolation`] describing the failure.
pub fn check_correct(
    ntr: &NetworkTrace,
    nes: &NetworkEventStructure,
    hint: Option<&[EventId]>,
) -> Result<(), CorrectnessViolation> {
    // Branch 1: no fireable event matches anywhere, and g(∅) processes
    // everything. Matches of events not enabled at ∅ are not occurrences
    // (cf. the SWITCH rule's E′ computation).
    let erased: Vec<LocatedPacket> =
        ntr.packets().iter().map(LocatedPacket::erase_virtual).collect();
    let empty = crate::event::EventSet::empty();
    let any_event_matches = erased.iter().any(|lp| {
        nes.events().iter().any(|e| {
            e.matches(&lp.packet, lp.loc)
                && nes.structure().enabled(empty, e.id)
                && nes.structure().consistent(empty.insert(e.id))
        })
    });
    if !any_event_matches {
        let c0 = nes.initial_config();
        for t in 0..ntr.traces().len() {
            let trace: Vec<LocatedPacket> =
                ntr.traces()[t].iter().map(|&j| erased[j].clone()).collect();
            if !c0.admits_trace(&trace, !ntr.trace_is_terminated(t)) {
                return Err(CorrectnessViolation::InitialConfigViolation { trace: t });
            }
        }
        return Ok(());
    }

    // Branch 2: search allowed sequences. A hint from a *misbehaving*
    // system may not even be allowed by the NES (e.g. two conflicting
    // events both fired); such sequences have no induced update and are
    // skipped.
    let mut candidates: Vec<Vec<EventId>> = Vec::new();
    if let Some(h) = hint {
        if sequence_allowed(nes, h) {
            candidates.push(h.to_vec());
        }
    }
    for seq in nes.structure().allowed_sequences() {
        if !seq.is_empty() && hint != Some(seq.as_slice()) {
            candidates.push(seq);
        }
    }

    let mut best: Option<(Vec<EventId>, UpdateViolation)> = None;
    for seq in candidates {
        let update = sequence_to_update(nes, &seq);
        // Events still fireable once `seq` has run: not yet occurred,
        // enabled at the final event-set, and consistent to add.
        let final_set: EventSet = seq.iter().copied().collect();
        let residual: Vec<_> = nes
            .events()
            .iter()
            .filter(|e| {
                !final_set.contains(e.id)
                    && nes.structure().enabled(final_set, e.id)
                    && nes.structure().consistent(final_set.insert(e.id))
            })
            .cloned()
            .collect();
        match check_update(ntr, &update, &residual, nes.structure()) {
            Ok(()) => return Ok(()),
            Err(v) => {
                let rank = violation_rank(&v);
                let replace = match &best {
                    None => true,
                    Some((_, bv)) => rank > violation_rank(bv),
                };
                if replace {
                    best = Some((seq, v));
                }
            }
        }
    }
    let (best_sequence, violation) =
        best.unwrap_or((Vec::new(), UpdateViolation::NoFirstOccurrences { failed_at: Some(0) }));
    Err(CorrectnessViolation::NoAllowedSequence { best_sequence, violation })
}

/// Returns `true` if `seq` is a sequence allowed by the NES (each step
/// enabled and consistent).
pub(crate) fn sequence_allowed(nes: &NetworkEventStructure, seq: &[EventId]) -> bool {
    let mut set = EventSet::empty();
    for &e in seq {
        if !nes.structure().enabled(set, e) || !nes.structure().consistent(set.insert(e)) {
            return false;
        }
        set = set.insert(e);
    }
    true
}

/// Builds the update `g(∅) →e₀ g({e₀}) →e₁ ⋯` for an event sequence.
///
/// # Panics
///
/// Panics if the sequence is not allowed by the NES (check with
/// [`sequence_allowed`] first).
pub(crate) fn sequence_to_update(nes: &NetworkEventStructure, seq: &[EventId]) -> UpdateSequence {
    let mut configs = Vec::with_capacity(seq.len() + 1);
    let mut events = Vec::with_capacity(seq.len());
    let mut set = crate::event::EventSet::empty();
    configs.push(nes.config(set).clone());
    for &e in seq {
        set = set.insert(e);
        configs.push(nes.config(set).clone());
        events.push(nes.structure().event(e).clone());
    }
    UpdateSequence::new(configs, events)
}

/// Orders violations by how far the check got, to report the most
/// informative failure.
fn violation_rank(v: &UpdateViolation) -> u8 {
    match v {
        UpdateViolation::NoFirstOccurrences { .. } => 0,
        UpdateViolation::Inconsistent { .. } => 1,
        UpdateViolation::TooEarly { .. } | UpdateViolation::TooLate { .. } => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::estructure::EventStructure;
    use crate::event::{Event, EventSet};
    use crate::trace::TraceBuilder;
    use netkat::{Action, ActionSet, Field, FlowTable, Loc, Match, Packet, Pred, Rule};

    /// One switch (1), hosts 100 (pt 2) and 101 (pt 3).
    /// g(∅): 2->3 only. g({e0}): both directions.
    /// e0 = arrival of a packet for 101 at 1:2 (ip_dst keeps the event from
    /// matching reply traffic leaving via 1:2).
    fn firewall_like_nes() -> NetworkEventStructure {
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
        let e0 = EventId::new(0);
        let es = EventStructure::new(
            vec![Event::new(e0, Pred::test(Field::IpDst, 101), Loc::new(1, 2))],
            [EventSet::singleton(e0)],
        );
        NetworkEventStructure::new(es, [(EventSet::empty(), c0), (EventSet::singleton(e0), c1)])
            .unwrap()
    }

    fn fwd_pk() -> Packet {
        Packet::new().with(Field::IpDst, 101)
    }

    fn reply_pk() -> Packet {
        Packet::new().with(Field::IpDst, 100)
    }

    fn push_transit(b: &mut TraceBuilder, pk: &Packet, hops: &[(u64, u64)]) {
        let mut parent = None;
        for &(sw, pt) in hops {
            parent = Some(b.push(pk.clone(), Loc::new(sw, pt), parent));
        }
    }

    #[test]
    fn quiet_network_checks_against_initial_config() {
        let nes = firewall_like_nes();
        let mut b = TraceBuilder::new();
        // Reply-direction packet dropped at 1:3: a complete g(∅) trace (no
        // rule matches port 3). No event matched.
        push_transit(&mut b, &reply_pk(), &[(101, 0), (1, 3)]);
        let ntr = b.build();
        assert!(check_correct(&ntr, &nes, None).is_ok());
    }

    #[test]
    fn quiet_network_violation_detected() {
        let nes = firewall_like_nes();
        let mut b = TraceBuilder::new();
        // Reply-direction packet *delivered* without any event: impossible
        // under g(∅), and no allowed sequence has a first occurrence.
        push_transit(&mut b, &reply_pk(), &[(101, 0), (1, 3), (1, 2), (100, 0)]);
        let ntr = b.build();
        let err = check_correct(&ntr, &nes, None).unwrap_err();
        assert_eq!(err, CorrectnessViolation::InitialConfigViolation { trace: 0 });
    }

    #[test]
    fn triggered_update_is_correct() {
        let nes = firewall_like_nes();
        let mut b = TraceBuilder::new();
        push_transit(&mut b, &fwd_pk(), &[(100, 0), (1, 2), (1, 3), (101, 0)]);
        push_transit(&mut b, &reply_pk(), &[(101, 0), (1, 3), (1, 2), (100, 0)]);
        let ntr = b.build();
        assert!(check_correct(&ntr, &nes, None).is_ok());
        // With an explicit hint too.
        assert!(check_correct(&ntr, &nes, Some(&[EventId::new(0)])).is_ok());
    }

    #[test]
    fn premature_reply_is_a_violation() {
        let nes = firewall_like_nes();
        let mut b = TraceBuilder::new();
        // Reply delivered BEFORE the trigger: too early.
        push_transit(&mut b, &reply_pk(), &[(101, 0), (1, 3), (1, 2), (100, 0)]);
        push_transit(&mut b, &fwd_pk(), &[(100, 0), (1, 2), (1, 3), (101, 0)]);
        let ntr = b.build();
        let err = check_correct(&ntr, &nes, None).unwrap_err();
        match err {
            CorrectnessViolation::NoAllowedSequence { violation, .. } => {
                assert!(
                    matches!(
                        violation,
                        UpdateViolation::TooEarly { .. }
                            | UpdateViolation::NoFirstOccurrences { .. }
                    ),
                    "got {violation:?}"
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sequence_to_update_builds_chain() {
        let nes = firewall_like_nes();
        let u = sequence_to_update(&nes, &[EventId::new(0)]);
        assert_eq!(u.configs.len(), 2);
        assert_eq!(u.events.len(), 1);
        assert_eq!(&u.configs[0], nes.initial_config());
    }
}
