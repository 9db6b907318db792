//! Microbench: the per-hop packet plumbing this repo's arena/queue rework
//! targets, in isolation and end to end.
//!
//! * `queue/*` — the calendar future-event set alone, driven with a
//!   simulation-shaped push/pop pattern (pop one, schedule a couple at
//!   `now + latency`).
//! * `arena/*` — interning an already-seen packet in the append-only
//!   (hash-consing) arena, against the owned baseline (clone + mutate).
//! * `hop/*` — a ring-16 NES simulation per event, in both trace modes:
//!   the end-to-end cost the fig18 sweep tracks, without its
//!   topology-construction noise.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use edn_apps::ring::{host, Ring};
use edn_core::TraceMode;
use nes_runtime::nes_engine;
use netkat::{Loc, Packet, PacketArena, PacketId};
use netsim::traffic::udp_packet;
use netsim::{CtrlMsg, PlaneOut, SimParams, SimTime, SinkHosts};
use std::hint::black_box;

/// Pending-set churn shaped like the simulator's: a standing population of
/// keys; each pop schedules followers a link latency ahead.
fn queue_churn(keys: u64) -> u64 {
    // The queue type is crate-private; drive it through an engine with a
    // pass-through plane so the measured loop is dominated by queue ops.
    struct Fwd;
    impl netsim::DataPlane for Fwd {
        fn step(
            &mut self,
            _: u64,
            pt: u64,
            pk: PacketId,
            _: bool,
            _: SimTime,
            _: &mut PacketArena,
            out: &mut PlaneOut,
        ) {
            out.outputs.push((if pt == 1 { 2 } else { 1 }, pk));
        }
        fn on_notify(&mut self, _: CtrlMsg, _: SimTime, _: &mut PlaneOut) {}
        fn deliver(&mut self, _: u64, _: CtrlMsg, _: SimTime, _: &mut PlaneOut) {}
    }
    let topo = netsim::SimTopology::new([1, 2])
        .host(100, Loc::new(1, 0))
        .host(200, Loc::new(2, 0))
        .bilink(Loc::new(1, 1), Loc::new(2, 1), SimTime::from_micros(50), None)
        .bilink(Loc::new(1, 2), Loc::new(2, 2), SimTime::from_micros(170), None);
    let mut engine = netsim::Engine::new(topo, SimParams::default(), Fwd, Box::new(SinkHosts))
        .with_trace_mode(TraceMode::StatsOnly);
    engine
        .inject_batch((0..keys).map(|i| (SimTime::from_micros(i * 7), 100, Packet::new(), 64u32)));
    engine.run(SimTime::from_millis(40));
    let result = engine.finish();
    result.stats.events_processed
}

fn bench_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("queue");
    g.sample_size(10);
    g.bench_function("churn_calendar", |b| b.iter(|| black_box(queue_churn(512))));
    g.finish();
}

fn bench_arena(c: &mut Criterion) {
    let mut g = c.benchmark_group("arena");
    const OPS: u64 = 1024;
    g.throughput(Throughput::Elements(OPS));
    let base: Vec<Packet> = (0..OPS).map(|i| udp_packet(1, 2, 7, i)).collect();
    g.bench_function("intern_ref_steady_state", |b| {
        let mut arena = PacketArena::new();
        for pk in &base {
            arena.intern_ref(pk);
        }
        b.iter(|| {
            for pk in &base {
                black_box(arena.intern_ref(pk));
            }
        })
    });
    g.bench_function("owned_clone_set_loc", |b| {
        // The owned-path equivalent of a per-hop move: clone + relocate.
        b.iter(|| {
            for pk in &base {
                let mut moved = pk.clone();
                moved.set_loc(Loc::new(3, 1));
                black_box(&moved);
            }
        })
    });
    g.finish();
}

/// A ring-16 NES run: every host sends 8 datagrams to the opposite host.
fn ring_events(mode: TraceMode) -> (u64, u64) {
    let ring = Ring::new(8); // 16 switches
    let n = ring.switch_count();
    let topo = ring.sim_topology(SimTime::from_micros(50), None);
    let mut engine = nes_engine(ring.nes(), topo, SimParams::default(), false, Box::new(SinkHosts))
        .with_trace_mode(mode);
    let mut batch = Vec::new();
    for i in 1..=n {
        let opposite = (i + ring.diameter - 1) % n + 1;
        for seq in 0..8u64 {
            batch.push((
                SimTime::from_millis(1 + i + 3 * seq),
                host(i),
                udp_packet(host(i), host(opposite), i, seq),
                512,
            ));
        }
    }
    engine.inject_batch(batch);
    engine.run(SimTime::from_secs(5));
    let result = engine.finish();
    (result.stats.events_processed, result.stats.deliveries.len() as u64)
}

fn bench_hop(c: &mut Criterion) {
    let (events, deliveries) = ring_events(TraceMode::StatsOnly);
    assert!(deliveries > 0);
    let mut g = c.benchmark_group("hop");
    g.sample_size(10);
    g.throughput(Throughput::Elements(events));
    for (label, mode) in [("arena_full", TraceMode::Full), ("arena_stats", TraceMode::StatsOnly)] {
        g.bench_function(format!("ring16_{label}"), |b| b.iter(|| black_box(ring_events(mode))));
    }
    g.finish();
}

criterion_group!(benches, bench_queue, bench_arena, bench_hop);
criterion_main!(benches);
