//! Port numbers are names, not sizes: a topology whose ports are 1, 2^40
//! and 1,000,000 runs exactly as the same topology with its ports
//! renumbered 1..k.
//!
//! The engine finds an egress by scanning the switch's run of ports, the
//! NES plane finds the events at a port in the switch's run of them, and
//! the checker's masks keep a run of ports per node: none of them indexes
//! anything by a port number. So the two numberings give equal `Stats`,
//! equal traces once the ports are mapped back, and equal online verdicts,
//! under the coordinated plane (correct) and the uncoordinated baseline
//! (caught). A counting allocator checks the other half: no allocation of
//! the sparse run comes near what a table sized by a port number would
//! take.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use edn_core::{
    check_correct, Config, Event, EventId, EventSet, EventStructure, LocatedPacket,
    NetworkEventStructure, OnlineViolation, TraceBuilder,
};
use nes_runtime::{attach_online_checker, nes_engine, uncoordinated_engine};
use netkat::{Action, ActionSet, Field, FlowTable, Loc, Match, Pred, Rule};
use netsim::traffic::{schedule_pings, Ping, ScenarioHosts};
use netsim::{DataPlane, Engine, SimParams, SimTime, SimTopology, Stats};

thread_local! {
    /// The largest allocation this thread asked for since the last reset.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct Largest;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local maximum that
// neither allocates nor unwinds (`try_with` on a `const`, `Drop`-less cell).
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LARGEST.try_with(|m| m.set(m.get().max(layout.size())));
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = LARGEST.try_with(|m| m.set(m.get().max(new_size)));
        // SAFETY: as for `dealloc`, and `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Largest = Largest;

/// Hosts 200 and 300 on switches 1 and 2, one link between the switches.
/// A numbering names switch 1's host port, the link's two ports and switch
/// 2's host port.
#[derive(Clone, Copy, Debug)]
struct Ports {
    h200: u64,
    link1: u64,
    link2: u64,
    h300: u64,
}

/// Ports 1 and 2^40 on switch 1, and host 300 on port 1,000,000.
const SPARSE: Ports = Ports { h200: 1 << 40, link1: 1, link2: 7, h300: 1_000_000 };
/// The same ports renumbered 1..k per switch.
const DENSE: Ports = Ports { h200: 2, link1: 1, link2: 1, h300: 2 };

impl Ports {
    /// `loc` under the dense numbering.
    fn renumbered(self, loc: Loc) -> Loc {
        let pt = match (loc.sw, loc.pt) {
            (1, pt) if pt == self.h200 => DENSE.h200,
            (1, pt) if pt == self.link1 => DENSE.link1,
            (2, pt) if pt == self.link2 => DENSE.link2,
            (2, pt) if pt == self.h300 => DENSE.h300,
            (_, pt) => pt,
        };
        Loc::new(loc.sw, pt)
    }
}

/// The firewall over `p`: 200 reaches 300 from the start, 300 reaches 200
/// once 200 has sent to 300 (event e0, at 200's port).
fn nes(p: Ports) -> NetworkEventStructure {
    let fwd = |sw_in: u64, out: u64| {
        Rule::new(
            Match::new().with(Field::Port, sw_in),
            ActionSet::single(Action::assign(Field::Port, out)),
        )
    };
    let config = |open: bool| {
        let mut c = Config::new();
        let mut one = vec![fwd(p.h200, p.link1)];
        let mut two = vec![fwd(p.link2, p.h300)];
        if open {
            one.push(fwd(p.link1, p.h200));
            two.push(fwd(p.h300, p.link2));
        }
        c.install(1, FlowTable::from_rules(one));
        c.install(2, FlowTable::from_rules(two));
        c.add_link(Loc::new(1, p.link1), Loc::new(2, p.link2));
        c.add_link(Loc::new(2, p.link2), Loc::new(1, p.link1));
        c.add_host(200, Loc::new(1, p.h200));
        c.add_host(300, Loc::new(2, p.h300));
        c
    };
    let e0 = EventId::new(0);
    let es = EventStructure::new(
        vec![Event::new(e0, Pred::test(Field::IpDst, 300), Loc::new(1, p.h200))],
        [EventSet::singleton(e0)],
    );
    NetworkEventStructure::new(
        es,
        [(EventSet::empty(), config(false)), (EventSet::singleton(e0), config(true))],
    )
    .expect("both event-sets have a configuration")
}

fn topo(p: Ports) -> SimTopology {
    SimTopology::new([1, 2]).host(200, Loc::new(1, p.h200)).host(300, Loc::new(2, p.h300)).bilink(
        Loc::new(1, p.link1),
        Loc::new(2, p.link2),
        SimTime::from_millis(1),
        None,
    )
}

/// Blocked before the event, the trigger, then open.
fn pings() -> [Ping; 3] {
    [
        Ping { time: SimTime::from_millis(1), src: 300, dst: 200, id: 1 },
        Ping { time: SimTime::from_millis(100), src: 200, dst: 300, id: 2 },
        Ping { time: SimTime::from_millis(200), src: 300, dst: 200, id: 3 },
    ]
}

/// A trace, field by field: its records, its packet traces, which of
/// those end in a drop, and its causal edges.
type Shape = (Vec<LocatedPacket>, Vec<Vec<usize>>, Vec<bool>, Vec<(usize, usize)>);

/// What a run leaves: its stats, its trace with every location renumbered
/// densely, the online verdict, and the post-hoc one.
type Outcome = (Stats, Shape, Result<(), OnlineViolation>, bool);

fn run<D: DataPlane>(mut engine: Engine<D>, nes: &NetworkEventStructure, p: Ports) -> Outcome {
    let (observer, trace) = TraceBuilder::observer();
    engine.set_observer(observer);
    let verdict = attach_online_checker(&mut engine, nes).expect("two configurations fit");
    schedule_pings(&mut engine, &pings());
    let stats = engine.run_until(SimTime::from_secs(2)).stats;
    let trace = trace.take();
    let post_hoc = check_correct(&trace, nes, None).is_ok();
    let records = trace.packets().iter();
    let records = records.map(|lp| LocatedPacket::new(lp.packet.clone(), p.renumbered(lp.loc)));
    let dropped = (0..trace.traces().len()).map(|t| trace.trace_is_terminated(t)).collect();
    let shape = (records.collect(), trace.traces().to_vec(), dropped, trace.extra_edges().to_vec());
    (stats, shape, verdict.verdict(), post_hoc)
}

/// The coordinated plane and the baseline, each under both numberings,
/// with the largest allocation of each sparse run.
fn runs(p: Ports) -> [(Outcome, usize); 2] {
    let params = SimParams::default();
    let hosts = || Box::new(ScenarioHosts::new());
    let measured = |go: &dyn Fn() -> Outcome| {
        LARGEST.with(|m| m.set(0));
        let outcome = go();
        (outcome, LARGEST.with(Cell::get))
    };
    [
        measured(&|| {
            let nes = nes(p);
            run(nes_engine(nes.clone(), topo(p), params, false, hosts()), &nes, p)
        }),
        measured(&|| {
            let nes = nes(p);
            let delay = SimTime::from_millis(500);
            run(uncoordinated_engine(nes.clone(), topo(p), params, delay, 7, hosts()), &nes, p)
        }),
    ]
}

#[test]
fn sparse_and_huge_ports_run_as_their_renumbering_does() {
    let [(coordinated, largest), (baseline, baseline_largest)] = runs(SPARSE);
    let [(want_coordinated, _), (want_baseline, _)] = runs(DENSE);
    assert_eq!(coordinated.0, want_coordinated.0, "coordinated: stats");
    assert_eq!(coordinated.1, want_coordinated.1, "coordinated: trace");
    assert_eq!(coordinated.2, want_coordinated.2, "coordinated: online verdict");
    assert_eq!(coordinated.3, want_coordinated.3, "coordinated: post-hoc verdict");
    assert_eq!((coordinated.0.delivered_packets, coordinated.2), (4, Ok(())), "the firewall opens");
    assert_eq!(baseline.0, want_baseline.0, "baseline: stats");
    assert_eq!(baseline.1, want_baseline.1, "baseline: trace");
    assert_eq!(baseline.2, want_baseline.2, "baseline: online verdict");
    assert_eq!(baseline.3, want_baseline.3, "baseline: post-hoc verdict");
    assert!(baseline.2.is_err() && !baseline.3, "the baseline is caught: {:?}", baseline.2);
    // A table as long as port 1,000,000 would take megabytes, one as long
    // as port 2^40 could not be allocated at all; the largest allocation of
    // these runs is the queue's or the arena's, a few kilobytes.
    for (plane, largest) in [("coordinated", largest), ("baseline", baseline_largest)] {
        assert!(largest < 1 << 20, "{plane}: a {largest}-byte allocation on a two-switch run");
    }
}
