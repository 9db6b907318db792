//! Traffic generation: ping probes, UDP streams, and a windowed
//! (TCP-like) flow — the simulator equivalents of the paper's `ping` and
//! `iperf` workloads.
//!
//! Conventions: [`netkat::Field::IpSrc`]/[`IpDst`](netkat::Field::IpDst)
//! carry host ids, [`IpProto`](netkat::Field::IpProto) carries one of the
//! `PROTO_*` constants, `Custom(0)` a probe/flow id and `Custom(1)` a
//! sequence number.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use netkat::{Field, Packet};

use crate::engine::Engine;
use crate::logic::{DataPlane, HostLogic};
use crate::stats::Stats;
use crate::time::SimTime;

/// Protocol number of a ping request.
pub const PROTO_PING_REQUEST: u64 = 1;
/// Protocol number of a ping reply.
pub const PROTO_PING_REPLY: u64 = 2;
/// Protocol number of a UDP datagram.
pub const PROTO_UDP: u64 = 3;
/// Protocol number of a TCP-like data segment.
pub const PROTO_TCP_DATA: u64 = 4;
/// Protocol number of a TCP-like acknowledgement.
pub const PROTO_TCP_ACK: u64 = 5;

/// The field carrying probe/flow identifiers.
pub const ID_FIELD: Field = Field::Custom(0);
/// The field carrying sequence numbers.
pub const SEQ_FIELD: Field = Field::Custom(1);

/// Builds a ping request packet.
pub fn ping_request(src: u64, dst: u64, id: u64) -> Packet {
    Packet::new()
        .with(Field::IpSrc, src)
        .with(Field::IpDst, dst)
        .with(Field::IpProto, PROTO_PING_REQUEST)
        .with(ID_FIELD, id)
}

/// Builds a UDP datagram.
pub fn udp_packet(src: u64, dst: u64, flow: u64, seq: u64) -> Packet {
    let mut packet = Packet::new();
    write_udp(&mut packet, src, dst, flow, seq);
    packet
}

/// Overwrites `packet` with a UDP datagram's headers: the one writer
/// behind [`udp_packet`] and [`FlowSource`]. Every field it writes has a
/// fixed slot, so the packet never grows a side list.
fn write_udp(packet: &mut Packet, src: u64, dst: u64, flow: u64, seq: u64) {
    packet.clear();
    packet.set(Field::IpProto, PROTO_UDP);
    packet.set(Field::IpSrc, src);
    packet.set(Field::IpDst, dst);
    packet.set(ID_FIELD, flow);
    packet.set(SEQ_FIELD, seq);
}

fn tcp_data(src: u64, dst: u64, flow: u64, seq: u64) -> Packet {
    Packet::new()
        .with(Field::IpSrc, src)
        .with(Field::IpDst, dst)
        .with(Field::IpProto, PROTO_TCP_DATA)
        .with(ID_FIELD, flow)
        .with(SEQ_FIELD, seq)
}

/// One scheduled ping.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Ping {
    /// Injection time.
    pub time: SimTime,
    /// Source host.
    pub src: u64,
    /// Destination host.
    pub dst: u64,
    /// Unique probe identifier.
    pub id: u64,
}

/// The fate of one ping.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PingOutcome {
    /// The probe.
    pub ping: Ping,
    /// When the reply reached the source, if ever.
    pub replied: Option<SimTime>,
    /// Whether the request reached the destination (even if the reply was
    /// then lost).
    pub request_delivered: bool,
}

/// A TCP-like flow: `total` segments from `src` to `dst`, window `window`,
/// ack-clocked.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TcpFlowSpec {
    /// Flow identifier (must be unique across flows).
    pub flow: u64,
    /// Sender host.
    pub src: u64,
    /// Receiver host.
    pub dst: u64,
    /// Start time.
    pub start: SimTime,
    /// Number of segments to send.
    pub total: u64,
    /// Window size (segments in flight).
    pub window: u64,
    /// Segment size in bytes.
    pub segment_size: u32,
}

/// A constant-rate UDP flow: datagrams of `size` bytes from `src` to `dst`
/// every `interval` within `[start, end)`, scheduled up front with
/// [`schedule_udp_flow`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct UdpFlowSpec {
    /// Flow identifier (must be unique across flows).
    pub flow: u64,
    /// Sender host.
    pub src: u64,
    /// Receiver host.
    pub dst: u64,
    /// First datagram time.
    pub start: SimTime,
    /// End of the stream (exclusive).
    pub end: SimTime,
    /// Gap between consecutive datagrams.
    pub interval: SimTime,
    /// Datagram size in bytes.
    pub size: u32,
}

impl UdpFlowSpec {
    /// Number of datagrams the flow schedules (`⌈(end − start) /
    /// interval⌉`, clamped at zero for empty windows).
    pub fn datagram_count(&self) -> u64 {
        if self.start >= self.end || self.interval == SimTime::ZERO {
            return if self.start < self.end { 1 } else { 0 };
        }
        let span = (self.end - self.start).as_micros();
        span.div_ceil(self.interval.as_micros())
    }

    /// When datagram `i` (from 0) fires: the one clock behind
    /// [`udp_flow_datagrams`] and [`FlowSource`].
    fn datagram_time(&self, i: u64) -> SimTime {
        self.start + SimTime::from_micros(i * self.interval.as_micros())
    }
}

/// The injection schedule of a UDP flow, in [`Engine::inject_batch`] item
/// form — lets callers splice many flows into **one** batched queue fill.
pub fn udp_flow_datagrams(spec: &UdpFlowSpec) -> impl Iterator<Item = (SimTime, u64, Packet, u32)> {
    let spec = *spec;
    (0..spec.datagram_count()).map(move |i| {
        let packet = udp_packet(spec.src, spec.dst, spec.flow, i);
        (spec.datagram_time(i), spec.src, packet, spec.size)
    })
}

/// One flow's position in a [`FlowSource`] stream.
struct FlowCursor {
    spec: UdpFlowSpec,
    /// Index within the flow of the datagram the heap entry refers to.
    next: u64,
    /// The flow's [`datagram_count`](UdpFlowSpec::datagram_count).
    count: u64,
}

/// A [`WorkloadSource`](crate::WorkloadSource) merging many
/// [`UdpFlowSpec`]s into one time-ordered lazy stream.
///
/// Memory is `O(flows)`, independent of the datagram count: each flow
/// contributes one cursor and one heap entry, and no datagram exists before
/// [`next_event`](crate::WorkloadSource::next_event) writes it into the
/// engine's buffer. The reported
/// [`SourceEvent::seq`](crate::SourceEvent::seq) numbers datagrams in
/// *flow-major* order — flow `i`'s `j`-th datagram gets
/// `offset(i) + j` — which is exactly the order
/// `flows.iter().flat_map(udp_flow_datagrams)` would feed
/// [`Engine::inject_batch`], so a streamed run is byte-identical to the
/// batched one (the streaming differential suite pins this).
pub struct FlowSource {
    /// Min-heap of `(time, seq, cursor index)` over each flow's next
    /// datagram; `seq` is globally unique, so the order is total.
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    cursors: Vec<FlowCursor>,
    total: u64,
}

impl FlowSource {
    /// Builds the merged stream over `flows`.
    pub fn new(flows: &[UdpFlowSpec]) -> FlowSource {
        let mut heap = BinaryHeap::with_capacity(flows.len());
        let mut cursors = Vec::with_capacity(flows.len());
        let mut offset = 0u64;
        for (i, f) in flows.iter().enumerate() {
            let count = f.datagram_count();
            if count > 0 {
                heap.push(Reverse((f.datagram_time(0), offset, i as u32)));
            }
            cursors.push(FlowCursor { spec: *f, next: 0, count });
            offset += count;
        }
        FlowSource { heap, cursors, total: offset }
    }
}

impl crate::WorkloadSource for FlowSource {
    fn total_events(&self) -> u64 {
        self.total
    }

    fn peek(&self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(|&Reverse((time, seq, _))| (time, seq))
    }

    /// Writes the earliest flow's datagram, then replaces that flow's heap
    /// entry in place: one sift per datagram instead of a pop and a push.
    fn next_event(&mut self, packet: &mut Packet) -> Option<crate::SourceEvent> {
        let mut top = self.heap.peek_mut()?;
        let Reverse((time, seq, fi)) = *top;
        let cursor = &mut self.cursors[fi as usize];
        let i = cursor.next;
        cursor.next += 1;
        let spec = &cursor.spec;
        write_udp(packet, spec.src, spec.dst, spec.flow, i);
        if cursor.next < cursor.count {
            *top = Reverse((spec.datagram_time(cursor.next), seq + 1, fi));
        } else {
            PeekMut::pop(top);
        }
        Some(crate::SourceEvent { time, seq, host: spec.src, size: spec.size })
    }
}

#[derive(Clone, Debug)]
struct TcpFlowState {
    spec: TcpFlowSpec,
    next_seq: u64,
    acked: u64,
}

/// Host behaviour for the standard scenarios: answers pings, acknowledges
/// TCP-like segments, and clocks TCP-like senders.
///
/// UDP needs no reactive behaviour (datagrams are scheduled up front with
/// [`schedule_udp_flow`]).
#[derive(Clone, Debug)]
pub struct ScenarioHosts {
    /// Host processing delay before a ping reply is injected.
    pub reply_delay: SimTime,
    tcp: Vec<TcpFlowState>,
}

impl ScenarioHosts {
    /// Creates the standard host behaviour (100 µs reply delay).
    pub fn new() -> ScenarioHosts {
        ScenarioHosts { reply_delay: SimTime::from_micros(100), tcp: Vec::new() }
    }

    /// Registers a TCP-like flow. The initial window must separately be
    /// scheduled with [`schedule_tcp_flow`].
    pub fn with_tcp_flow(mut self, spec: TcpFlowSpec) -> ScenarioHosts {
        self.tcp.push(TcpFlowState { spec, next_seq: spec.window.min(spec.total), acked: 0 });
        self
    }
}

impl Default for ScenarioHosts {
    fn default() -> ScenarioHosts {
        ScenarioHosts::new()
    }
}

impl HostLogic for ScenarioHosts {
    fn on_receive(
        &mut self,
        host: u64,
        packet: &Packet,
        _: SimTime,
    ) -> Vec<(SimTime, Packet, u32)> {
        let proto = packet.get(Field::IpProto);
        let to_me = packet.get(Field::IpDst) == Some(host);
        match proto {
            Some(PROTO_PING_REQUEST) if to_me => {
                let src = packet.get(Field::IpSrc).unwrap_or(0);
                let id = packet.get(ID_FIELD).unwrap_or(0);
                let reply = Packet::new()
                    .with(Field::IpSrc, host)
                    .with(Field::IpDst, src)
                    .with(Field::IpProto, PROTO_PING_REPLY)
                    .with(ID_FIELD, id);
                vec![(self.reply_delay, reply, 64)]
            }
            Some(PROTO_TCP_DATA) if to_me => {
                let src = packet.get(Field::IpSrc).unwrap_or(0);
                let flow = packet.get(ID_FIELD).unwrap_or(0);
                let seq = packet.get(SEQ_FIELD).unwrap_or(0);
                let ack = Packet::new()
                    .with(Field::IpSrc, host)
                    .with(Field::IpDst, src)
                    .with(Field::IpProto, PROTO_TCP_ACK)
                    .with(ID_FIELD, flow)
                    .with(SEQ_FIELD, seq);
                vec![(SimTime::from_micros(20), ack, 64)]
            }
            Some(PROTO_TCP_ACK) if to_me => {
                let flow_id = packet.get(ID_FIELD).unwrap_or(0);
                let Some(state) =
                    self.tcp.iter_mut().find(|f| f.spec.flow == flow_id && f.spec.src == host)
                else {
                    return Vec::new();
                };
                state.acked += 1;
                if state.next_seq < state.spec.total {
                    let seq = state.next_seq;
                    state.next_seq += 1;
                    let pkt = tcp_data(state.spec.src, state.spec.dst, flow_id, seq);
                    return vec![(SimTime::from_micros(10), pkt, state.spec.segment_size)];
                }
                Vec::new()
            }
            _ => Vec::new(),
        }
    }
}

/// Schedules a batch of pings.
pub fn schedule_pings<D: DataPlane>(engine: &mut Engine<D>, pings: &[Ping]) {
    engine
        .inject_batch(pings.iter().map(|p| (p.time, p.src, ping_request(p.src, p.dst, p.id), 100)));
}

/// Evaluates ping outcomes against a finished run's statistics.
pub fn ping_outcomes(pings: &[Ping], stats: &Stats) -> Vec<PingOutcome> {
    pings
        .iter()
        .map(|&ping| {
            let request_delivered = stats.delivered_to(ping.dst).any(|d| {
                d.packet.get(Field::IpProto) == Some(PROTO_PING_REQUEST)
                    && d.packet.get(ID_FIELD) == Some(ping.id)
            });
            let replied = stats
                .delivered_to(ping.src)
                .find(|d| {
                    d.packet.get(Field::IpProto) == Some(PROTO_PING_REPLY)
                        && d.packet.get(ID_FIELD) == Some(ping.id)
                })
                .map(|d| d.time);
            PingOutcome { ping, replied, request_delivered }
        })
        .collect()
}

/// Schedules a constant-rate UDP stream; returns the number of datagrams.
pub fn schedule_udp_flow<D: DataPlane>(engine: &mut Engine<D>, spec: &UdpFlowSpec) -> u64 {
    let n = spec.datagram_count();
    engine.inject_batch(udp_flow_datagrams(spec));
    n
}

/// Schedules the initial window of a TCP-like flow (the rest is ack-clocked
/// by [`ScenarioHosts`]).
pub fn schedule_tcp_flow<D: DataPlane>(engine: &mut Engine<D>, spec: &TcpFlowSpec) {
    for seq in 0..spec.window.min(spec.total) {
        engine.inject_sized(
            spec.start + SimTime::from_micros(seq),
            spec.src,
            tcp_data(spec.src, spec.dst, spec.flow, seq),
            spec.segment_size,
        );
    }
}

/// Bytes of `proto` traffic delivered to `host` in `[from, to)`.
pub fn proto_bytes_delivered(
    stats: &Stats,
    host: u64,
    proto: u64,
    from: SimTime,
    to: SimTime,
) -> u64 {
    stats
        .delivered_to(host)
        .filter(|d| d.time >= from && d.time < to && d.packet.get(Field::IpProto) == Some(proto))
        .map(|d| d.size as u64)
        .sum()
}

/// Count of `proto` packets delivered to `host`.
pub fn proto_packets_delivered(stats: &Stats, host: u64, proto: u64) -> usize {
    stats.delivered_to(host).filter(|d| d.packet.get(Field::IpProto) == Some(proto)).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logic::{At, PlaneOut};
    use crate::topology::{SimParams, SimTopology};
    use netkat::{Loc, PacketArena, PacketId};

    /// A two-host wire: everything from host A's port goes to host B's port
    /// and vice versa (one switch, ports 2 and 3).
    struct Wire;

    impl DataPlane for Wire {
        type Msg = ();
        fn step(
            &mut self,
            At { pt, .. }: At,
            packet: PacketId,
            _: bool,
            _: SimTime,
            _: &mut PacketArena,
            out: &mut PlaneOut<Self::Msg>,
        ) {
            out.outputs.push((if pt == 2 { 3 } else { 2 }, packet));
        }
    }

    fn wire_topology() -> SimTopology {
        SimTopology::new([1]).host(100, Loc::new(1, 2)).host(200, Loc::new(1, 3))
    }

    #[test]
    fn ping_round_trip() {
        let mut e = Engine::new(
            wire_topology(),
            SimParams::default(),
            Wire,
            Box::new(ScenarioHosts::new()),
        );
        let pings = vec![Ping { time: SimTime::from_millis(1), src: 100, dst: 200, id: 7 }];
        schedule_pings(&mut e, &pings);
        let r = e.run_until(SimTime::from_secs(1));
        let outcomes = ping_outcomes(&pings, &r.stats);
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].request_delivered);
        let rtt = outcomes[0].replied.expect("reply") - pings[0].time;
        assert!(rtt > SimTime::ZERO && rtt < SimTime::from_millis(5), "rtt {rtt}");
    }

    #[test]
    fn unanswered_ping_reports_none() {
        // Data plane that drops everything.
        struct Blackhole;
        impl DataPlane for Blackhole {
            type Msg = ();
            fn step(
                &mut self,
                _: At,
                _: PacketId,
                _: bool,
                _: SimTime,
                _: &mut PacketArena,
                _: &mut PlaneOut<Self::Msg>,
            ) {
            }
        }
        let mut e = Engine::new(
            wire_topology(),
            SimParams::default(),
            Blackhole,
            Box::new(ScenarioHosts::new()),
        );
        let pings = vec![Ping { time: SimTime::ZERO, src: 100, dst: 200, id: 1 }];
        schedule_pings(&mut e, &pings);
        let r = e.run_until(SimTime::from_secs(1));
        let outcomes = ping_outcomes(&pings, &r.stats);
        assert!(!outcomes[0].request_delivered);
        assert!(outcomes[0].replied.is_none());
    }

    #[test]
    fn udp_flow_delivers_expected_bytes() {
        let mut e = Engine::new(
            wire_topology(),
            SimParams::default(),
            Wire,
            Box::new(ScenarioHosts::new()),
        );
        let n = schedule_udp_flow(
            &mut e,
            &UdpFlowSpec {
                flow: 1,
                src: 100,
                dst: 200,
                start: SimTime::ZERO,
                end: SimTime::from_millis(100),
                interval: SimTime::from_millis(10),
                size: 1_000,
            },
        );
        assert_eq!(n, 10);
        let r = e.run_until(SimTime::from_secs(1));
        assert_eq!(
            proto_bytes_delivered(&r.stats, 200, PROTO_UDP, SimTime::ZERO, SimTime::from_secs(1)),
            10_000
        );
        assert_eq!(proto_packets_delivered(&r.stats, 200, PROTO_UDP), 10);
    }

    #[test]
    fn flow_source_streams_the_batch_schedule_in_time_order() {
        use crate::WorkloadSource;
        let ms = SimTime::from_millis;
        let flow = |flow, src, start, end, interval, size| UdpFlowSpec {
            flow,
            src,
            dst: 200,
            start: ms(start),
            end: ms(end),
            interval: ms(interval),
            size,
        };
        let flows = [
            flow(0, 100, 3, 30, 7, 64),
            // No datagram: the window is empty.
            flow(1, 101, 9, 9, 1, 64),
            flow(2, 102, 12, 4, 1, 64),
            // `interval = 0`: one datagram.
            flow(3, 103, 5, 6, 0, 128),
            // Starts with flow 0, so only the batch order breaks the tie.
            flow(4, 104, 3, 12, 3, 256),
            flow(5, 105, 0, 10, 10, 512),
        ];
        let mut spec: Vec<(SimTime, u64, u64, u32, Packet)> = flows
            .iter()
            .flat_map(udp_flow_datagrams)
            .enumerate()
            .map(|(seq, (time, host, packet, size))| (time, seq as u64, host, size, packet))
            .collect();
        spec.sort_by_key(|d| d.0);
        let mut source = FlowSource::new(&flows);
        let total: u64 = flows.iter().map(UdpFlowSpec::datagram_count).sum();
        assert_eq!(source.total_events(), total);
        assert_eq!(total, spec.len() as u64);
        let mut streamed = Vec::new();
        let mut buffer = Packet::new();
        loop {
            // A source must overwrite the buffer, not add to it.
            buffer.set(Field::Tag, 9);
            buffer.set(Field::Switch, 4);
            buffer.set(Field::Custom(7), 1);
            let peeked = source.peek();
            let Some(ev) = source.next_event(&mut buffer) else {
                assert_eq!(peeked, None, "peek saw an event next_event did not yield");
                break;
            };
            assert_eq!(peeked, Some((ev.time, ev.seq)), "peek disagrees with the next event");
            streamed.push((ev.time, ev.seq, ev.host, ev.size, buffer.clone()));
        }
        assert_eq!(streamed, spec);
    }

    #[test]
    fn tcp_flow_is_ack_clocked_to_completion() {
        let spec = TcpFlowSpec {
            flow: 9,
            src: 100,
            dst: 200,
            start: SimTime::ZERO,
            total: 50,
            window: 4,
            segment_size: 1_000,
        };
        let hosts = ScenarioHosts::new().with_tcp_flow(spec);
        let mut e = Engine::new(wire_topology(), SimParams::default(), Wire, Box::new(hosts));
        schedule_tcp_flow(&mut e, &spec);
        let r = e.run_until(SimTime::from_secs(10));
        assert_eq!(proto_packets_delivered(&r.stats, 200, PROTO_TCP_DATA), 50);
        // Sender got 50 acks.
        assert_eq!(proto_packets_delivered(&r.stats, 100, PROTO_TCP_ACK), 50);
    }
}
