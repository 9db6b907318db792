//! The kill matrix, seam mutants: what a `correct` verdict is worth.
//!
//! The evidence for Theorem 1 is sampling: pinned seeds, lossy twins,
//! fresh-seed proptests, all run against the real runtime. Here the runtime
//! is deliberately broken and the online Definition 6 checker must notice.
//! A mutant is a [`Mutant`] wrapper around the NES data plane, in
//! `Reliable<D>`'s idiom: it delegates every [`DataPlane`] method, then
//! perturbs what the inner plane wrote into its [`PlaneOut`]. Nothing is
//! added to any crate: each engine is built from public parts, the way
//! `CompiledScenario::engine` builds it, with the wrapper in between.
//!
//! Every mutant runs over the 32 `scenario_corpus` seeds and the five case
//! studies. A kill is a non-`correct` online verdict; a panic is counted
//! apart, never as a kill. [`MATRIX`] pins, per mutant, the first target
//! that kills it, how many of the 37 do, and why the survivors survive.
//!
//! The last two tests judge by the spec, `check_correct`, which reads the
//! linear `FlowTable` scan and not the `ChainTables` index the plane and the
//! online checker share: at the benchmark's campaign shape (fat-tree(4), 4
//! updates) the spec must agree with the online `correct`, on the bare run
//! and on every survivor. A survivor the spec kills would be an index bug
//! the plane and the checker share. At the benchmark's own scale
//! (fat-tree(8), 20 and 60 updates) the bare run is judged in release only:
//! that test is `#[ignore]`d, and CI runs it with `--ignored`.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use edn_apps::{authentication, bandwidth_cap, firewall, ids, learning, sim_topology};
use edn_apps::{H1, H2, H3, H4};
use edn_core::{check_correct, NetworkEventStructure, NetworkTrace, OnlineViolation, TraceBuilder};
use edn_scenario::{parse, CompiledScenario, ScenarioGen};
use nes_runtime::{attach_online_checker, CompiledNes, NesDataPlane};
use netkat::{Field, Loc};
use netsim::traffic::{schedule_pings, Ping, ScenarioHosts};
use netsim::{
    At, BoxedHosts, DataPlane, Engine, PacketArena, PacketId, PlaneOut, RunResult, SimParams,
    SimTime, SimTopology, SinkHosts,
};

/// What a mutant breaks.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    /// Nothing: the calibration row. A kill here is a harness bug.
    Identity,
    /// The switch of the first firing keeps stamping its outputs with the
    /// tag every packet carried before it: a stale configuration.
    StaleTag,
    /// The hop of the first firing forwards with its digest's event bits
    /// cleared, so the trigger packet does not spread what it caused.
    DigestCleared,
    /// The first switch seen forwarding out of two different ports swaps
    /// those two from then on.
    PortsSwapped,
    /// The first output of the first firing hop is emitted twice.
    EmittedTwice,
    /// The controller never sees the first notification.
    NotificationDropped,
    /// The controller's first command goes to another switch than the one
    /// it names.
    CommandMisrouted,
}

/// A [`DataPlane`] that delegates to `inner` and then perturbs its output
/// as `kind` says.
struct Mutant<D: DataPlane> {
    inner: D,
    kind: Kind,
    /// The tag on the run's first output: every switch stamps it until an
    /// event fires.
    initial_tag: Option<u64>,
    /// The switch of the first firing, once there was one.
    fired_at: Option<u64>,
    /// The first output port each switch used.
    first_port: BTreeMap<u64, u64>,
    /// [`Kind::PortsSwapped`]'s switch and ports: the first switch seen
    /// using two, and those two.
    swap: Option<(u64, u64, u64)>,
    /// The output ports of the first firing hop.
    firing_hop: Vec<u64>,
    /// Whether a one-shot perturbation has happened.
    spent: bool,
}

impl<D: DataPlane> Mutant<D> {
    fn new(inner: D, kind: Kind) -> Mutant<D> {
        Mutant {
            inner,
            kind,
            initial_tag: None,
            fired_at: None,
            first_port: BTreeMap::new(),
            swap: None,
            firing_hop: Vec::new(),
            spent: false,
        }
    }
}

/// Rewrites `field` to `value` on every output that carries another value.
fn restamp(arena: &mut PacketArena, outputs: &mut [(u64, PacketId)], field: Field, value: u64) {
    for (_, id) in outputs {
        if arena.get(*id).get(field) != Some(value) {
            let mut packet = arena.get(*id).clone();
            packet.set(field, value);
            *id = arena.intern(packet);
        }
    }
}

impl<D: DataPlane> DataPlane for Mutant<D> {
    type Msg = D::Msg;

    fn step(
        &mut self,
        at: At,
        packet: PacketId,
        from_host: bool,
        now: SimTime,
        arena: &mut PacketArena,
        out: &mut PlaneOut<D::Msg>,
    ) {
        self.inner.step(at, packet, from_host, now, arena, out);
        let sw = at.sw;
        let first_firing = self.fired_at.is_none() && !out.notifications.is_empty();
        if first_firing {
            self.fired_at = Some(sw);
            self.firing_hop = out.outputs.iter().map(|&(port, _)| port).collect();
        }
        if self.initial_tag.is_none() {
            self.initial_tag =
                out.outputs.first().and_then(|&(_, id)| arena.get(id).get(Field::Tag));
        }
        match self.kind {
            Kind::StaleTag if self.fired_at == Some(sw) => {
                if let Some(tag) = self.initial_tag {
                    restamp(arena, &mut out.outputs, Field::Tag, tag);
                }
            }
            Kind::DigestCleared if first_firing => {
                restamp(arena, &mut out.outputs, Field::Digest, 0);
            }
            Kind::EmittedTwice if first_firing => {
                if let Some(&first) = out.outputs.first() {
                    out.outputs.push(first);
                }
            }
            Kind::PortsSwapped => {
                for &(port, _) in &out.outputs {
                    let first = *self.first_port.entry(sw).or_insert(port);
                    if self.swap.is_none() && first != port {
                        self.swap = Some((sw, first, port));
                    }
                }
                if let Some((_, a, b)) = self.swap.filter(|&(at, ..)| at == sw) {
                    for (port, _) in &mut out.outputs {
                        *port = if *port == a {
                            b
                        } else if *port == b {
                            a
                        } else {
                            *port
                        };
                    }
                }
            }
            _ => {}
        }
    }

    fn on_notify(&mut self, msg: D::Msg, now: SimTime, out: &mut PlaneOut<D::Msg>) {
        if self.kind == Kind::NotificationDropped && !self.spent {
            self.spent = true;
            return;
        }
        self.inner.on_notify(msg, now, out);
        if self.kind == Kind::CommandMisrouted && !self.spent {
            if let (Some(first), Some(&(_, last, _))) =
                (out.deliveries.first(), out.deliveries.last())
            {
                if first.1 != last {
                    out.deliveries[0].1 = last;
                    self.spent = true;
                }
            }
        }
    }

    fn deliver(&mut self, sw: u64, msg: D::Msg, now: SimTime, out: &mut PlaneOut<D::Msg>) {
        self.inner.deliver(sw, msg, now, out);
    }

    fn on_timer(&mut self, node: u64, now: SimTime, out: &mut PlaneOut<D::Msg>) {
        self.inner.on_timer(node, now, out);
    }

    fn contribute_metrics(&self, reg: &mut edn_obs::Registry) {
        self.inner.contribute_metrics(reg);
    }
}

/// What a mutant runs against.
enum Target {
    /// A compiled scenario: a corpus seed or the benchmark's campaign.
    Scenario(String, Box<CompiledScenario>),
    /// A case study: its NES, topology, controller broadcast, pings and horizon.
    Case(&'static str, NetworkEventStructure, SimTopology, bool, Vec<Ping>, SimTime),
}

impl Target {
    fn name(&self) -> &str {
        match self {
            Target::Scenario(name, _) => name,
            Target::Case(name, ..) => name,
        }
    }

    fn nes(&self) -> &NetworkEventStructure {
        match self {
            Target::Scenario(_, c) => &c.nes,
            Target::Case(_, nes, ..) => nes,
        }
    }

    /// Runs the NES plane, wrapped by `wrap`, with the online checker
    /// attached before any traffic and, if `traced`, a trace recorder
    /// paired with it: the run, the verdict and the trace (empty untraced).
    fn run<D: DataPlane>(
        &self,
        wrap: impl FnOnce(NesDataPlane) -> D,
        traced: bool,
    ) -> (RunResult<D>, Result<(), OnlineViolation>, NetworkTrace) {
        let (topo, broadcast, hosts): (&SimTopology, bool, BoxedHosts) = match self {
            Target::Scenario(_, c) => (c.run.sim(), false, Box::new(SinkHosts)),
            Target::Case(_, _, topo, broadcast, ..) => {
                (topo, *broadcast, Box::new(ScenarioHosts::new()))
            }
        };
        let nes = self.nes();
        let plane = NesDataPlane::new(
            CompiledNes::compile(nes.clone()),
            topo.switches().to_vec(),
            broadcast,
        );
        let mut engine = Engine::new(topo.clone(), SimParams::default(), wrap(plane), hosts);
        let handle = attach_online_checker(&mut engine, nes).expect("the target fits the checker");
        let trace = traced.then(|| {
            let (observer, trace) = TraceBuilder::observer();
            engine.set_observer(observer);
            trace
        });
        let horizon = match self {
            Target::Scenario(_, c) => {
                c.apply_actions(&mut engine);
                c.load_traffic(&mut engine, false);
                c.inject_campaign(&mut engine);
                c.horizon
            }
            Target::Case(_, _, _, _, pings, horizon) => {
                schedule_pings(&mut engine, pings);
                *horizon
            }
        };
        let result = engine.run_until(horizon);
        (result, handle.verdict(), trace.map_or_else(NetworkTrace::default, |t| t.take()))
    }
}

fn ms(t: u64) -> SimTime {
    SimTime::from_millis(t)
}

fn us(t: u64) -> SimTime {
    SimTime::from_micros(t)
}

/// `case_studies.rs`'s five runs: the firewall with interleaved traffic,
/// the learning switch and the IDS under tight timing, authentication with
/// broadcast, the bandwidth cap at 3.
fn case_studies() -> Vec<Target> {
    let ping = |t: SimTime, src: u64, dst: u64, id: u64| Ping { time: t, src, dst, id };
    let topo = |spec| sim_topology(&spec, us(50), None);
    let mut fw: Vec<Ping> = (0..5).map(|i| ping(ms(50 * i + 7), H4, H1, i)).collect();
    fw.push(ping(ms(400), H1, H4, 100));
    fw.extend((0..5).map(|i| ping(ms(500 + 50 * i), H4, H1, 200 + i)));
    vec![
        Target::Case("firewall", firewall::nes(), topo(firewall::spec()), true, fw, ms(3000)),
        Target::Case(
            "learning",
            learning::nes(),
            topo(learning::spec()),
            false,
            (0..20).map(|i| ping(us(200 * i + 500), H4, H1, i)).collect(),
            ms(2000),
        ),
        Target::Case(
            "authentication",
            authentication::nes(),
            topo(authentication::spec()),
            true,
            vec![ping(ms(10), H4, H1, 1), ping(ms(200), H4, H2, 2), ping(ms(400), H4, H3, 3)],
            ms(3000),
        ),
        Target::Case(
            "bandwidth_cap",
            bandwidth_cap::nes(3),
            topo(bandwidth_cap::spec()),
            false,
            (0..8).map(|i| ping(ms(100 * i + 10), H1, H4, i)).collect(),
            ms(10_000),
        ),
        Target::Case(
            "ids",
            ids::nes(),
            topo(ids::spec()),
            false,
            vec![ping(us(100), H4, H1, 1), ping(us(400), H4, H2, 2), ping(us(700), H4, H3, 3)],
            ms(2000),
        ),
    ]
}

/// The 32 corpus seeds, then the five case studies.
fn targets() -> Vec<Target> {
    let corpus = (0..32).map(|seed| {
        let c =
            CompiledScenario::compile(&ScenarioGen::sample(seed)).expect("corpus seeds compile");
        Target::Scenario(format!("seed {seed}"), Box::new(c))
    });
    corpus.chain(case_studies()).collect()
}

/// The benchmark's campaign text (`benchmark/src/workload.rs`'s
/// `campaign_text`): fat-tree(`k`), `updates` updates, probes on, traffic
/// spread over the whole campaign, at `packets_per_flow`.
fn benchmark_campaign(seed: u64, k: u64, updates: u64, packets_per_flow: u64) -> Target {
    let spread_ms = 100 + 100 * (updates + 2);
    let text = format!(
        "[scenario]\nname = \"campaign-fattree{k}\"\nseed = {seed}\ntopology = \"fat_tree\"\n\
         size = {k}\nhorizon_ms = 0\n\n[workload]\npattern = \"permutation\"\n\
         packets_per_flow = {packets_per_flow}\nspread_ms = {spread_ms}\nmodel = \"pareto\"\n\n\
         [campaign]\nupdates = {updates}\nstart_ms = 100\nspacing_ms = 100\nprobe = true\n"
    );
    let spec = parse(&text).expect("the campaign text parses");
    let c = CompiledScenario::compile(&spec).expect("the campaign compiles");
    Target::Scenario(format!("campaign {seed}"), Box::new(c))
}

/// One row of the committed matrix.
struct Row {
    kind: Kind,
    /// The first target (in [`targets`] order) whose online verdict is not
    /// `correct`, and that verdict; `None` for a survivor.
    first_kill: Option<(&'static str, &'static str)>,
    /// Targets killed, of 37.
    kills: usize,
    /// Targets on which the run panicked (counted apart from kills).
    panics: usize,
    /// Why it survives where it does.
    why: &'static str,
}

/// The matrix: mutant × first killing target. Regenerate by printing
/// [`matrix_of`]'s cells; any drift is a behavior change in a plane, the
/// engine, the checker or the generator.
const MATRIX: &[Row] = &[
    Row {
        kind: Kind::Identity,
        first_kill: None,
        kills: 0,
        panics: 0,
        why: "calibration: the wrapper alone changes no stat and no firing (`identity_changes_nothing`)",
    },
    Row {
        kind: Kind::StaleTag,
        first_kill: Some(("seed 0", "inconsistent")),
        kills: 25,
        panics: 0,
        why: "seeds 3 9 16 24 26 27 28 31 and four case studies: every packet the switch \
              restamped is forwarded by the first configuration as by the one it should have \
              used, and Definition 6 judges locations, not tags (seed 27 restamps nothing)",
    },
    Row {
        kind: Kind::DigestCleared,
        first_kill: Some(("seed 0", "too_late")),
        kills: 23,
        panics: 0,
        why: "the 14 survivors are exactly the targets whose firing hop delivers to a host, \
              and a host reads no digest (`cleared_digests_survive_only_at_a_host`)",
    },
    Row {
        kind: Kind::PortsSwapped,
        first_kill: Some(("seed 0", "inconsistent")),
        kills: 37,
        panics: 0,
        why: "no survivor",
    },
    Row {
        kind: Kind::EmittedTwice,
        first_kill: None,
        kills: 0,
        panics: 0,
        why: "a duplicate takes its original's path, so whatever configuration admits the \
              original admits it: Definition 6 constrains which traces occur, not how often",
    },
    Row {
        kind: Kind::NotificationDropped,
        first_kill: None,
        kills: 0,
        panics: 0,
        why: "without broadcast (the corpus, three case studies) the controller is a sink; with \
              it (firewall, authentication) the switches still learn every event by digest, \
              which is all Theorem 1 relies on",
    },
    Row {
        kind: Kind::CommandMisrouted,
        first_kill: None,
        kills: 0,
        panics: 0,
        why: "only broadcasting planes send commands (firewall, authentication), and a command \
              carries only events that fired: any switch may learn them, and the one it missed \
              learns them by digest before a packet needs them; no stat moves on any target",
    },
];

/// One mutant's measured row: first kill, kills, panics.
type Cell = (Option<(String, &'static str)>, usize, usize);

/// Runs `kind` over every target.
fn matrix_of(kind: Kind, targets: &[Target]) -> Cell {
    let (mut first, mut kills, mut panics) = (None, 0, 0);
    for t in targets {
        let run = catch_unwind(AssertUnwindSafe(|| t.run(|p| Mutant::new(p, kind), false).1));
        match run {
            Ok(Ok(())) => {}
            Ok(Err(v)) => {
                kills += 1;
                first.get_or_insert((t.name().to_string(), v.name()));
            }
            Err(_) => panics += 1,
        }
    }
    (first, kills, panics)
}

#[test]
fn seam_mutants_match_the_committed_matrix() {
    let targets = targets();
    assert_eq!(targets.len(), 37);
    let mut drift = Vec::new();
    for row in MATRIX {
        let got = matrix_of(row.kind, &targets);
        let want = (row.first_kill.map(|(t, v)| (t.to_string(), v)), row.kills, row.panics);
        if got != want {
            drift.push(format!("{:?}: got {got:?}, pinned {want:?} ({})", row.kind, row.why));
        }
    }
    assert!(drift.is_empty(), "the kill matrix drifted:\n{}", drift.join("\n"));
}

/// The calibration row, exactly: wrapped in the identity mutant, every
/// target's run is `correct`, counts the same stats and fires the same
/// sequence as the bare plane's.
#[test]
fn identity_changes_nothing() {
    for t in targets() {
        let (bare, bare_verdict, _) = t.run(|p| p, false);
        let (wrapped, verdict, _) = t.run(|p| Mutant::new(p, Kind::Identity), false);
        assert_eq!(bare_verdict, Ok(()), "{}: the bare plane is correct", t.name());
        assert_eq!(verdict, Ok(()), "{}: the identity mutant is correct", t.name());
        assert_eq!(wrapped.stats, bare.stats, "{}: the identity mutant moved a stat", t.name());
        assert_eq!(
            wrapped.dataplane.inner.fired_sequence(),
            bare.dataplane.fired_sequence(),
            "{}: the identity mutant moved a firing",
            t.name()
        );
    }
}

/// [`Kind::DigestCleared`]'s survivors, explained: the mutant survives
/// exactly where the first firing hop's every output is a host port, so the
/// cleared digest reaches no switch.
#[test]
fn cleared_digests_survive_only_at_a_host() {
    for t in targets() {
        let (result, verdict, _) = t.run(|p| Mutant::new(p, Kind::DigestCleared), false);
        let m = &result.dataplane;
        let topo = match &t {
            Target::Scenario(_, c) => c.run.sim(),
            Target::Case(_, _, topo, ..) => topo,
        };
        let sw = m.fired_at.expect("every target fires an event");
        let to_hosts = m.firing_hop.iter().all(|&pt| topo.host_at(Loc::new(sw, pt)).is_some());
        assert_eq!(verdict.is_ok(), to_hosts, "{}: firing hop {sw}:{:?}", t.name(), m.firing_hop);
    }
}

/// Runs the bare plane on `t` with a trace recorder and judges the trace by
/// the spec, with the fired sequence as the hint: the spec and the online
/// checker must both read `correct`, and all `updates` must fire. Prints
/// the packets and the spec's time.
fn spec_agrees(t: &Target, updates: usize) {
    let (result, online, trace) = t.run(|p| p, true);
    let fired = result.dataplane.fired_sequence();
    let clock = Instant::now();
    let spec = check_correct(&trace, t.nes(), Some(&fired));
    println!(
        "{}, {updates} updates: {} packets, spec {:.2} s",
        t.name(),
        trace.packets().len(),
        clock.elapsed().as_secs_f64()
    );
    assert_eq!(online, Ok(()), "{}: online verdict", t.name());
    assert_eq!(spec, Ok(()), "{}: the spec's verdict", t.name());
    assert_eq!(fired.len(), updates, "{}: every update fires", t.name());
}

/// The spec at the benchmark's campaign shape: at both benchmark seeds it
/// judges the run `correct`, as the online checker does, and every update
/// fires. Every other survivor of the matrix is judged there by both
/// checkers too, and they must agree: a mutant the spec kills but the
/// online checker passes would be an index bug the plane and the checker
/// share. Prints the spec's time (a debug build on a two-core host read
/// 0.5–1.0 s a seed).
#[test]
fn the_spec_agrees_at_benchmark_shape() {
    for seed in [2016, 7919] {
        let t = benchmark_campaign(seed, 4, 4, 50);
        spec_agrees(&t, 4);
        // The identity row is the bare run above (`identity_changes_nothing`).
        for row in MATRIX.iter().filter(|r| r.first_kill.is_none() && r.kind != Kind::Identity) {
            let (result, online, trace) = t.run(|p| Mutant::new(p, row.kind), true);
            let fired = result.dataplane.inner.fired_sequence();
            let spec = check_correct(&trace, t.nes(), Some(&fired));
            assert_eq!(
                online.is_ok(),
                spec.is_ok(),
                "seed {seed} {:?}: online {online:?}, spec {spec:?}",
                row.kind
            );
        }
    }
}

/// The spec at the benchmark's own scale: fat-tree(8) at
/// `packets_per_flow` 24, with 20 and with 60 updates (61 configurations
/// fit the online checker's 64), at both benchmark seeds. Each case takes
/// seconds of spec time in a release build, so the tier-1 debug run skips
/// it; CI runs it with `cargo test --release -p edn-bench --test
/// kill_matrix -- --ignored`.
#[test]
#[ignore = "release only: seconds of spec time per case"]
fn the_spec_agrees_at_benchmark_scale() {
    for updates in [20, 60] {
        for seed in [2016, 7919] {
            spec_agrees(&benchmark_campaign(seed, 8, updates, 24), updates as usize);
        }
    }
}
