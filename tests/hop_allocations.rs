//! Steady-state regression: a streamed datagram must not go back to the
//! allocator, neither at its source nor on its hops.
//!
//! A counting `#[global_allocator]` (as in `deploy_allocations.rs`) watches
//! `Engine::run` on the benchmark's `stream_*` shape — the generated
//! firewall NES on fat-tree(4), a live `FlowSource`, `StatsMode::Counters`
//! — once at `N` and once at `2N` datagrams per flow. Differencing the two
//! runs cancels everything paid once (slab, the calendar's ring and side
//! array, arena warm-up, the firewall trigger) and leaves the allocations a
//! datagram costs from its source across the fabric.
//!
//! What remains per datagram is **nothing**. The source writes each
//! datagram's headers into one buffer the engine keeps for the whole run,
//! and the engine copies that buffer over a recycled arena slot's packet
//! (`intern_ref`, a fixed-size copy). When the source built an owned `Packet` per
//! datagram instead — a field vector started and grown once on the way to
//! five headers — this read 2.00. The calendar adds nothing: its buckets
//! are lists threaded through a per-slot array that stops growing at the
//! queue's high-water mark (per-bucket vectors used to add ≈ 0.13).
//!
//! The ingress hop's stamped output (tag and digest added) is copied over a
//! recycled slot's packet, and every later hop forwards that id
//! unchanged: the hops themselves allocate nothing.
//!
//! Before the dense per-hop path this read 6.1: the IN stamp interned an
//! intermediate packet (one clone), every miss cloned into a *fresh* vector
//! even when a freed slot was at hand, the arena's newborn list was rebuilt
//! from nothing after every dispatch's sweep, and each dropped packet was
//! cloned into a per-packet drop record `StatsMode::Counters` then threw
//! away. No stats mode keeps such a record now: a drop is one counter
//! increment.
//!
//! A second leg attaches the online Definition 6 checker to the same stream
//! and differences it the same way: the checker adds **nothing** either.
//! Its trace nodes live in a ring indexed by record index, which stops
//! growing once it holds the widest span of record indices live at once, its
//! erased packets in a pool that stops at the in-flight high-water mark, and
//! a hop that changes no header shares its parent's pool entry instead of
//! copying.
//!
//! A packet whose custom field has no fixed slot (`Custom(n)` for `n ≥ 3`)
//! keeps it in a side list. The list stays with its arena slot when the slot
//! is freed, so interning such a packet into a recycled slot, and copying it
//! into a kept buffer the way the table hop copies a packet it changes,
//! allocate nothing either once warm (`a_spilled_custom_field_costs_no_allocation`).
//!
//! A third leg streams the same datagrams through the uncoordinated baseline
//! (`uncoordinated_engine`): it forwards through the same table layout and
//! the same hop as the NES plane, unstamped, so it allocates nothing either.
//! (When it cloned every packet into an owned copy and scanned the
//! configuration's table, it read 25.75.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use edn_topo::{attach_stream, fat_tree, synthesize, TierProfile, TrafficPattern, Workload};
use nes_runtime::{attach_online_checker, nes_engine, uncoordinated_engine};
use netkat::{Field, Packet, PacketArena};
use netsim::traffic::{udp_packet, UdpFlowSpec};
use netsim::{DataPlane, Engine, RunResult, SimParams, SimTime, SinkHosts, StatsMode};

thread_local! {
    /// Allocations made by this thread (no destructor, so the allocator may
    /// touch it at any point of the thread's life).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter bump
// that neither allocates nor unwinds (`try_with` on a `const`, `Drop`-less
// cell).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`, and `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The plane a stream runs through: the NES runtime, bare or under the
/// online checker, or the uncoordinated baseline.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Leg {
    Nes,
    Verified,
    Uncoordinated,
}

/// Streams `per_flow` datagrams down each flow of a fat-tree(4) permutation
/// through the firewall NES on `leg`'s plane; returns `(allocations during
/// run, datagrams injected)`.
fn stream(per_flow: u64, leg: Leg) -> (u64, u64) {
    let gen = fat_tree(4, TierProfile::default());
    let flows = synthesize(
        &gen,
        &Workload {
            pattern: TrafficPattern::Permutation,
            seed: 2016,
            packets_per_flow: per_flow,
            interval: SimTime::from_micros(100),
            ..Workload::default()
        },
    );
    let horizon = flows.iter().map(|f| f.end).max().expect("flows") + SimTime::from_secs(1);
    let (inside, outside) = (gen.hosts()[0], *gen.hosts().last().expect("hosts"));
    let nes = edn_apps::generated::firewall_nes(&gen, inside, outside);
    let trigger = udp_packet(inside, outside, u64::MAX, 0);
    if leg == Leg::Uncoordinated {
        let engine = uncoordinated_engine(
            nes,
            gen.sim().clone(),
            SimParams::default(),
            SimTime::from_millis(10),
            2016,
            Box::new(SinkHosts),
        );
        let (spent, datagrams, result) = run(engine, &flows, (inside, trigger), horizon);
        let opened = gen.sim().switches().iter().all(|&sw| result.dataplane.current_tag(sw) == 1);
        assert!(opened, "the controller pushed the open configuration everywhere");
        return (spent, datagrams);
    }
    let mut engine = nes_engine(
        nes.clone(),
        gen.sim().clone(),
        SimParams::default(),
        false,
        Box::new(SinkHosts),
    );
    let handle = (leg == Leg::Verified)
        .then(|| attach_online_checker(&mut engine, &nes).expect("two configurations"));
    let (spent, datagrams, result) = run(engine, &flows, (inside, trigger), horizon);
    assert_eq!(result.dataplane.fired_sequence().len(), 1, "the firewall opened");
    if let Some(handle) = handle {
        assert_eq!(handle.verdict(), Ok(()), "the run ends `correct`");
        // No rule of the firewall rewrites a header: a packet is copied
        // once, at its root, and every hop after that shares the copy.
        let telemetry = handle.telemetry();
        assert_eq!(telemetry.packets_copied, result.stats.injected);
        // The node ring is what the live span costs: at most 105 record
        // indices are live at once here (31 nodes), so the ring is 128 — the
        // smallest power of two, 16 or more, that holds them.
        assert!(telemetry.live_nodes_hw <= telemetry.node_slots_hw);
        assert!(telemetry.packet_slots_hw <= telemetry.live_nodes_hw);
        assert_eq!(telemetry.node_slots_hw, 128);
    }
    (spent, datagrams)
}

/// Runs `flows` and the firewall's `trigger` from its host on the
/// benchmark's `stream_*` recording (stats only, counters only) to
/// `horizon`; returns `(allocations during the run, datagrams injected,
/// the run)`.
fn run<D: DataPlane>(
    engine: Engine<D>,
    flows: &[UdpFlowSpec],
    trigger: (u64, Packet),
    horizon: SimTime,
) -> (u64, u64, RunResult<D>) {
    let mut engine = engine.with_stats_mode(StatsMode::Counters);
    let datagrams = attach_stream(&mut engine, flows);
    engine.inject_at(SimTime::from_millis(5), trigger.0, trigger.1);
    let before = ALLOCATIONS.with(Cell::get);
    engine.run(horizon);
    let spent = ALLOCATIONS.with(Cell::get) - before;
    let result = engine.finish();
    assert_eq!(result.stats.injected, datagrams + 1, "every datagram and the trigger entered");
    (spent, datagrams, result)
}

/// Allocations per datagram in steady state: a run of `2 * n` per flow less
/// a run of `n`, over the datagrams the long run streams more.
fn per_datagram(n: u64, leg: Leg) -> f64 {
    let (small, small_datagrams) = stream(n, leg);
    let (large, large_datagrams) = stream(2 * n, leg);
    assert_eq!(stream(n, leg).0, small, "the allocation count repeats exactly");
    let datagrams = large_datagrams - small_datagrams;
    assert!(datagrams >= 16 * n, "the long run streams {datagrams} datagrams more");
    let per_datagram = (large - small) as f64 / datagrams as f64;
    println!(
        "{leg:?}: {per_datagram:.2} allocations a datagram \
         ({small} at {small_datagrams} datagrams, {large} at {large_datagrams})"
    );
    per_datagram
}

// 40 ms of traffic: the queue, slab and arena have reached their high-water
// marks well inside the short run.
const N: u64 = 400;

#[test]
fn a_streamed_datagram_costs_no_allocation() {
    let unchecked = per_datagram(N, Leg::Nes);
    assert_eq!(unchecked, 0.0, "a datagram costs {unchecked:.2} allocations in steady state");
}

#[test]
fn checking_a_streamed_datagram_allocates_nothing() {
    let verified = per_datagram(N, Leg::Verified);
    assert_eq!(verified, 0.0, "a checked datagram costs {verified:.2} allocations");
}

#[test]
fn the_uncoordinated_baseline_costs_no_allocation_a_datagram() {
    let baseline = per_datagram(N, Leg::Uncoordinated);
    assert_eq!(baseline, 0.0, "a baseline datagram costs {baseline:.2} allocations");
}

#[test]
fn a_spilled_custom_field_costs_no_allocation() {
    // A datagram's headers plus a custom field past the fixed slots.
    let spilled = udp_packet(1, 2, 3, 0).with(Field::Custom(7), 0);
    assert_eq!(spilled.get(Field::Custom(7)), Some(0));
    let mut arena = PacketArena::new();
    let mut id = arena.intern_ref(&spilled);
    arena.retain(id);
    arena.sweep();
    // One hop that changes the packet: copy it out of its slot into the
    // kept buffer, rewrite the spilled field, intern the copy into a
    // recycled slot, and free the input's slot.
    let mut buf = Packet::new();
    let mut hop = |arena: &mut PacketArena, id: netkat::PacketId, seq: u64| {
        buf.clone_from(arena.get(id));
        buf.set(Field::Custom(7), seq);
        let next = arena.intern_ref(&buf);
        arena.retain(next);
        arena.release(id);
        arena.sweep();
        next
    };
    for seq in 1..=4 {
        id = hop(&mut arena, id, seq);
    }
    let before = ALLOCATIONS.with(Cell::get);
    for seq in 5..=1_000 {
        id = hop(&mut arena, id, seq);
    }
    let spent = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(arena.get(id).get(Field::Custom(7)), Some(1_000));
    assert_eq!(arena.get(id).get(Field::IpDst), Some(2));
    assert!(arena.len() <= 2, "the hops reuse two slots, not {}", arena.len());
    assert_eq!(spent, 0, "996 hops of a spilled packet cost {spent} allocations");
}
