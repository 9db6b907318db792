//! Per-hop differential proptests: the arena-native `step` of the three
//! planes (compiled index, zero-copy views, the one shared table hop)
//! against their owned transcriptions (`process_reference`, the linear
//! `FlowTable::lookup_on` scan of the specification's own tables), hop by
//! hop, over every rule shape a hop can hit — single action (identity and
//! content-changing), location writes, multicast, explicit drop, no rule —
//! and packets carrying digests, tags and stray location fields. This is
//! where the index answers to the spec. Also home of [`Stepper`], the
//! harness this crate's unit tests drive `step` through, and of the owned
//! [`StepResult`] form the transcriptions return.

use edn_core::{Config, Event, EventId, EventSet, EventStructure, NetworkEventStructure};
use netkat::{Action, ActionSet, Field, FlowTable, Loc, Match, Packet, PacketArena, Pred, Rule};
use netsim::{At, DataPlane, PlaneOut, SimTime};
use proptest::prelude::*;

use crate::compile::CompiledNes;
use crate::dataplane::NesDataPlane;
use crate::static_plane::StaticDataPlane;
use crate::uncoordinated::{UncoordDataPlane, UncoordMsg};

/// What one switch step produced, in owned form: `(out port, packet)`
/// outputs (none: dropped) and the plane's messages `M` to the controller.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) struct StepResult<M> {
    pub(crate) outputs: Vec<(u64, Packet)>,
    pub(crate) notifications: Vec<M>,
}

/// The owned table hop the shared one answers to: `packet`, located at
/// `loc`, looked up in `table` by the linear `FlowTable::lookup_on` scan and
/// its rule's actions applied. Each output leaves on the port its actions
/// wrote (the ingress port if none) with the location fields stripped:
/// links, not tables, decide the next location.
pub(crate) fn table_reference(
    table: Option<&FlowTable>,
    loc: Loc,
    mut packet: Packet,
) -> Vec<(u64, Packet)> {
    packet.set_loc(loc);
    let mut out = Vec::new();
    if let Some(rule) = table.and_then(|t| t.lookup_on(&packet)) {
        rule.actions.apply_into(&packet, &mut out);
    }
    out.into_iter()
        .map(|mut pk| {
            let (_, pt) = pk.take_loc();
            (pt.unwrap_or(loc.pt), pk)
        })
        .collect()
}

/// Drives a plane's [`DataPlane::step`] on owned packets — interning the
/// input into the one arena the plane is ever stepped against, resolving the
/// outputs back — so tests state their expectations in owned form.
///
/// Each switch is stepped under a node id of its own, numbered in the
/// order the switches are first stepped, as the engine numbers its
/// topology densely.
#[derive(Default)]
pub(crate) struct Stepper {
    arena: PacketArena,
    switches: Vec<u64>,
}

impl Stepper {
    /// Where a packet arrives at `sw:pt`, with the switch's node id.
    fn at(&mut self, sw: u64, pt: u64) -> At {
        let node = match self.switches.iter().position(|&s| s == sw) {
            Some(node) => node,
            None => {
                self.switches.push(sw);
                self.switches.len() - 1
            }
        };
        At { sw, pt, node: node as u32 }
    }

    pub(crate) fn step<D: DataPlane>(
        &mut self,
        plane: &mut D,
        sw: u64,
        pt: u64,
        packet: Packet,
        from_host: bool,
        now: SimTime,
    ) -> StepResult<D::Msg> {
        let mut out = PlaneOut::default();
        let id = self.arena.intern(packet);
        plane.step(self.at(sw, pt), id, from_host, now, &mut self.arena, &mut out);
        StepResult {
            outputs: out.outputs.iter().map(|&(pt, id)| (pt, self.arena.get(id).clone())).collect(),
            notifications: out.notifications,
        }
    }
}

/// One rule of every shape on ingress ports 1–5 (port 6 only with
/// `extra`, ports 7+ never match).
fn hop_table(extra: bool) -> FlowTable {
    let on = |pt: u64| Match::new().with(Field::Port, pt);
    let to = |pt: u64| Action::assign(Field::Port, pt);
    let mut rules = vec![
        Rule::new(on(1), ActionSet::single(to(2))),
        Rule::new(on(2).with(Field::IpDst, 300), ActionSet::single(to(3).set(Field::Vlan, 7))),
        Rule::new(on(2), ActionSet::single(to(3))),
        Rule::new(on(3), ActionSet::single(to(1).set(Field::Switch, 2))),
        Rule::new(
            on(4),
            ActionSet::single(to(1)).union(&ActionSet::single(to(2).set(Field::Vlan, 9))),
        ),
        Rule::new(on(5), ActionSet::drop()),
    ];
    if extra {
        rules.push(Rule::new(on(6), ActionSet::single(to(1))));
    }
    FlowTable::from_rules(rules)
}

fn hop_config(extra: bool) -> Config {
    let mut c = Config::new();
    c.install(1, hop_table(extra));
    c.install(2, hop_table(!extra));
    c
}

/// A two-event chain (`e1` only after `e0`) over [`hop_config`]s. The
/// guards read what only the hop's packet view can get wrong: `e0` needs
/// tag 0, which a host-entering packet carries only once IN has stamped it
/// (the stamp must be visible to the trigger step), and `e1` at port 1
/// refuses a packet whose *own* port field says 1 (the arrival port is the
/// event's location, not a field the view may write into the packet).
fn hop_nes() -> NetworkEventStructure {
    let (e0, e1) = (EventId::new(0), EventId::new(1));
    let es = EventStructure::new(
        vec![
            Event::new(
                e0,
                Pred::test(Field::IpDst, 300).and(Pred::test(Field::Tag, 0)),
                Loc::new(1, 2),
            ),
            Event::new(
                e1,
                Pred::test(Field::IpDst, 400).and(Pred::test(Field::Port, 1).not()),
                Loc::new(2, 1),
            ),
        ],
        [EventSet::singleton(e0), EventSet::from_iter([e0, e1])],
    );
    NetworkEventStructure::new(
        es,
        [
            (EventSet::empty(), hop_config(false)),
            (EventSet::singleton(e0), hop_config(true)),
            (EventSet::from_iter([e0, e1]), hop_config(false)),
        ],
    )
    .expect("every event-set has a configuration")
}

/// `(switch, port, packet, from_host)`; switch 3 has no table at all.
type Hop = (u64, u64, Packet, bool);

fn arb_hop() -> impl Strategy<Value = Hop> {
    let field = |f: Field, values: core::ops::Range<u64>| {
        proptest::option::of(values).prop_map(move |v| v.map(|v| (f, v)))
    };
    let packet = (
        field(Field::IpDst, 298..302)
            .prop_map(|v| v.map(|(f, v)| (f, if v == 301 { 400 } else { v }))),
        field(Field::Vlan, 7..10),
        field(Field::Digest, 0..4),
        field(Field::Tag, 0..3),
        field(Field::Switch, 1..3),
        field(Field::Port, 1..4),
    )
        .prop_map(|(a, b, c, d, e, f)| {
            [a, b, c, d, e, f].into_iter().flatten().fold(Packet::new(), |pk, (f, v)| pk.with(f, v))
        });
    (1u64..4, 1u64..8, packet, any::<bool>())
}

/// Drives `hops` through `reference` (owned) and `fast` (`step`), asserting
/// identical outputs and notifications on every hop.
fn assert_hops_agree<D: DataPlane>(
    hops: &[Hop],
    fast: &mut D,
    mut reference: impl FnMut(u64, u64, Packet, bool, SimTime) -> StepResult<D::Msg>,
) -> Result<(), TestCaseError> {
    let mut st = Stepper::default();
    for (i, (sw, pt, pk, from_host)) in hops.iter().enumerate() {
        let now = SimTime::from_micros(i as u64);
        let want = reference(*sw, *pt, pk.clone(), *from_host, now);
        let got = st.step(fast, *sw, *pt, pk.clone(), *from_host, now);
        prop_assert_eq!(&got, &want, "diverged at hop {} {:?}", i, hops[i]);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn nes_step_matches_owned_reference(hops in proptest::collection::vec(arb_hop(), 1..16)) {
        let mut fast = NesDataPlane::new(CompiledNes::compile(hop_nes()), vec![1, 2], false);
        let mut reference = fast.clone();
        assert_hops_agree(&hops, &mut fast, |sw, pt, pk, h, now| {
            reference.process_reference(sw, pt, pk, h, now)
        })?;
        for sw in 1..4 {
            prop_assert_eq!(fast.local_events(sw), reference.local_events(sw));
        }
        prop_assert_eq!(fast.fired_log(), reference.fired_log());
    }

    #[test]
    fn static_step_matches_owned_reference(hops in proptest::collection::vec(arb_hop(), 1..16)) {
        let mut fast = StaticDataPlane::new(hop_config(true));
        let reference = fast.clone();
        assert_hops_agree(&hops, &mut fast, |sw, pt, pk, _, _| {
            reference.process_reference(sw, pt, pk)
        })?;
    }

    /// The pushes land first, so the switches forward under different
    /// stale configurations — switch 3, which no configuration installs a
    /// table on, included.
    #[test]
    fn uncoordinated_step_matches_owned_reference(
        pushes in proptest::collection::vec((1u64..4, 0u64..3), 0..6),
        hops in proptest::collection::vec(arb_hop(), 1..16),
    ) {
        let nes = CompiledNes::compile(hop_nes());
        let mut fast = UncoordDataPlane::new(nes, vec![1, 2, 3], SimTime::ZERO, 0);
        let mut out = PlaneOut::default();
        for (sw, tag) in pushes {
            fast.deliver(sw, UncoordMsg::SetConfig(tag), SimTime::ZERO, &mut out);
        }
        let reference = fast.clone();
        assert_hops_agree(&hops, &mut fast, |sw, pt, pk, _, _| {
            reference.process_reference(sw, pt, pk)
        })?;
    }
}

/// `netkat`'s fingerprint mixer (`flowindex::fp_mix`) and its inverse,
/// transcribed: the mixer is crate-private there, and a two-field
/// fingerprint collision cannot be found, only constructed. The test below
/// asserts the planes counted a fallback, so a change to the mixer that
/// leaves this copy behind fails it instead of quietly disarming it.
mod mixer {
    pub(super) const SEED: u64 = 0x9E37_79B9_7F4A_7C15;
    const M1: u64 = 0xBF58_476D_1CE4_E5B9;
    const M2: u64 = 0x94D0_49BB_1331_11EB;

    pub(super) fn mix(h: u64, value: u64) -> u64 {
        let mut z = (h ^ value.wrapping_mul(M1)).wrapping_add(SEED);
        z = (z ^ (z >> 30)).wrapping_mul(M1);
        z = (z ^ (z >> 27)).wrapping_mul(M2);
        z ^ (z >> 31)
    }

    fn inverse_of_odd(m: u64) -> u64 {
        (0..6).fold(m, |x, _| x.wrapping_mul(2u64.wrapping_sub(m.wrapping_mul(x))))
    }

    fn unxorshift(y: u64, k: u32) -> u64 {
        (0..64 / k).fold(y, |z, _| y ^ (z >> k))
    }

    /// The value that chains onto `h` to give `fp`.
    pub(super) fn unmix(h: u64, fp: u64) -> u64 {
        let mut z = unxorshift(fp, 31);
        z = unxorshift(z.wrapping_mul(inverse_of_odd(M2)), 27);
        z = unxorshift(z.wrapping_mul(inverse_of_odd(M1)), 30);
        (z.wrapping_sub(SEED) ^ h).wrapping_mul(inverse_of_odd(M1))
    }
}

/// A hop whose packet view fingerprints exactly like an installed
/// `(port, ip_dst)` rule while matching none: only the verification a
/// one-field segment is allowed to skip tells them apart. Every plane must
/// fall back to the run's scan and drop, as the reference does.
#[test]
fn a_two_field_fingerprint_collision_is_decided_by_the_scan() {
    let rule = |pt: u64, dst: u64| {
        Rule::new(
            Match::new().with(Field::Port, pt).with(Field::IpDst, dst),
            ActionSet::single(Action::assign(Field::Port, 9)),
        )
    };
    let mut config = Config::new();
    config.install(1, FlowTable::from_rules((0..8).map(|i| rule(1 + i % 2, 300 + i))));
    // Port sorts before IpDst, so the signature chains the port first. The
    // twin arrives on port 3 (no rule there) carrying the one address that
    // completes rule (1, 300)'s fingerprint.
    let fp = mixer::mix(mixer::mix(mixer::SEED, 1), 300);
    let twin = mixer::unmix(mixer::mix(mixer::SEED, 3), fp);
    let hops = [
        (1, 1, Packet::new().with(Field::IpDst, 300), false),
        (1, 3, Packet::new().with(Field::IpDst, twin), false),
    ];
    fn probe_outcomes(plane: &impl DataPlane) -> (Option<u64>, Option<u64>) {
        let mut reg = edn_obs::Registry::new();
        plane.contribute_metrics(&mut reg);
        (reg.counter("flowindex.fp_hits"), reg.counter("flowindex.fp_fallbacks"))
    }

    let mut fast = StaticDataPlane::new(config.clone());
    let reference = fast.clone();
    assert_hops_agree(&hops, &mut fast, |sw, pt, pk, _, _| reference.process_reference(sw, pt, pk))
        .expect("static plane agrees");
    assert_eq!(probe_outcomes(&fast), (Some(1), Some(1)), "one hit, one fallback");

    let nes =
        NetworkEventStructure::new(EventStructure::new(vec![], []), [(EventSet::empty(), config)])
            .expect("one configuration");
    let compiled = CompiledNes::compile(nes);
    let mut fast = NesDataPlane::new(compiled.clone(), vec![1], false);
    let mut reference = fast.clone();
    assert_hops_agree(&hops, &mut fast, |sw, pt, pk, h, now| {
        reference.process_reference(sw, pt, pk, h, now)
    })
    .expect("NES plane agrees");
    assert_eq!(probe_outcomes(&fast), (Some(1), Some(1)), "one hit, one fallback");

    let mut fast = UncoordDataPlane::new(compiled, vec![1], SimTime::ZERO, 0);
    let reference = fast.clone();
    assert_hops_agree(&hops, &mut fast, |sw, pt, pk, _, _| reference.process_reference(sw, pt, pk))
        .expect("uncoordinated plane agrees");
}
