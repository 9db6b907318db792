//! Dispatching one popped event: numbering its trace records, delivering a
//! packet to a host, a switch's processing step, and the hop from each of
//! its outputs to whatever the egress leads to.

use edn_core::LeafKind;

use super::build::timeline_at;
use super::*;
use crate::stats::{Delivery, DropReason};

/// What sits on the far side of an egress location — resolved once at
/// construction. Carries the destination entity's dense id so per-hop key
/// assignment needs no further lookup.
#[derive(Clone, Copy, Debug)]
pub(super) enum Egress {
    /// A host is attached here (`id`, dense entity).
    Host(u64, u32),
    /// An inter-switch link (index into `topo.links()`) starts here;
    /// second field is the destination switch's dense entity.
    Link(u32, u32),
}

/// What every egress location of a topology leads to: per switch a run of
/// `(port, egress)`. A run is found by the switch's dense entity id, which
/// an arrival already carries, and scanned for the port, so a hop hashes
/// nothing and no table is sized by a port number.
#[derive(Debug)]
pub(super) struct EgressRuns {
    /// Entity `e`'s run is `ports[starts[e]..starts[e + 1]]`.
    starts: Vec<u32>,
    ports: Vec<(u64, Egress)>,
}

impl EgressRuns {
    /// What every egress location of `topo` leads to, each run in the
    /// order the topology lists its links and then its hosts.
    pub(super) fn build(topo: &SimTopology, entities: &EntityMap) -> EgressRuns {
        let all = || {
            let links = topo.links().iter().enumerate().filter_map(|(i, l)| {
                let src = entities.get(l.src.sw)?;
                Some((src, l.src.pt, Egress::Link(i as u32, entities.dense(l.dst.sw))))
            });
            let hosts = topo
                .hosts()
                .map(|(h, at)| (entities.dense(at.sw), at.pt, Egress::Host(h, entities.dense(h))));
            links.chain(hosts)
        };
        // One count and one placement per entry: each run keeps the
        // entries' order, so no sort.
        let mut starts = vec![0; entities.len() + 1];
        for (entity, ..) in all() {
            starts[entity as usize + 1] += 1;
        }
        for e in 1..starts.len() {
            starts[e] += starts[e - 1];
        }
        let mut next = starts.clone();
        let mut ports = vec![(0, Egress::Host(0, 0)); starts[starts.len() - 1] as usize];
        for (entity, pt, egress) in all() {
            let at = &mut next[entity as usize];
            ports[*at as usize] = (pt, egress);
            *at += 1;
        }
        EgressRuns { starts, ports }
    }

    /// What port `pt` of dense entity `entity` leads to, if anything. Where
    /// the topology names one location twice the later entry wins, a host
    /// over a link.
    #[inline]
    fn at(&self, entity: u32, pt: u64) -> Option<Egress> {
        let e = entity as usize;
        let run = &self.ports[self.starts[e] as usize..self.starts[e + 1] as usize];
        run.iter().rfind(|&&(p, _)| p == pt).map(|&(_, egress)| egress)
    }
}

impl<D: DataPlane> Engine<D> {
    /// Numbers the next trace record, checking that its parent precedes
    /// it.
    fn next_record(&mut self, parent: Option<usize>) -> usize {
        let idx = self.records;
        if let Some(p) = parent {
            assert!(p < idx, "parent {p} must precede child {idx}");
        }
        self.records += 1;
        idx
    }

    pub(super) fn dispatch_inner(&mut self, kind: EventKind<D::Msg>) {
        match kind {
            EventKind::Inject { host, packet, size, sender } => {
                let (attach, attach_sender) = self.entities.attachment(sender);
                self.stats.injected += 1;
                let idx = self.next_record(None);
                if let Some(o) = self.observer.as_deref_mut() {
                    o.record(idx, self.arena.get(packet), Loc::new(host, 0), None);
                }
                // Host attachment links are uncontended.
                let arrival = self.now + self.topo.host_latency;
                let seq = self.next_seq(sender);
                self.schedule(
                    arrival,
                    seq,
                    EventKind::Arrive {
                        loc: attach,
                        packet,
                        size,
                        parent: idx,
                        from_host: true,
                        sender: attach_sender,
                    },
                );
            }
            EventKind::Arrive { loc, packet, size, parent, sender, .. }
                if self.entities.is_host(sender) =>
            {
                self.host_receive(loc, packet, size, parent, sender);
            }
            EventKind::Arrive { loc, packet, size, parent, from_host, sender } => {
                self.switch_step(loc, packet, size, parent, from_host, sender);
            }
            EventKind::Notify { msg, cause } => self.on_notify(msg, cause),
            EventKind::Deliver { sw, msg } => self.on_deliver(sw, msg),
            EventKind::Timer { node, entity } => self.on_timer(node, entity),
        }
    }

    /// A packet reaches host `loc.sw` (dense id `sender`), which may answer
    /// with packets of its own.
    fn host_receive(&mut self, loc: Loc, packet: PacketId, size: u32, parent: usize, sender: u32) {
        let idx = self.next_record(Some(parent));
        if let Some(o) = self.observer.as_deref_mut() {
            o.record(idx, self.arena.get(packet), loc, Some(parent));
            o.retire(parent);
            o.leaf(idx, LeafKind::Delivered);
        }
        let pk = self.arena.get(packet);
        self.stats.delivered_packets += 1;
        self.stats.delivered_bytes += size as u64;
        if self.stats_mode == StatsMode::Full {
            self.stats.deliveries.push(Delivery {
                time: self.now,
                host: loc.sw,
                packet: pk.clone(),
                size,
            });
        }
        let host = loc.sw;
        let replies = self.hosts.on_receive(host, pk, self.now);
        for (delay, reply, rsize) in replies {
            let t = self.now + delay;
            let reply = self.arena.intern(reply);
            let seq = self.next_seq(sender);
            self.schedule(t, seq, EventKind::Inject { host, packet: reply, size: rsize, sender });
        }
    }

    fn switch_step(
        &mut self,
        loc: Loc,
        packet: PacketId,
        size: u32,
        parent: usize,
        from_host: bool,
        sender: u32,
    ) {
        let ingress_idx = self.next_record(Some(parent));
        if let Some(o) = self.observer.as_deref_mut() {
            let sw = self.metrics.sampling.then(Stopwatch::start);
            o.record(ingress_idx, self.arena.get(packet), loc, Some(parent));
            o.retire(parent);
            if let Some(sw) = sw {
                self.metrics.phase_observer_ns.observe(sw.elapsed_ns());
            }
        }
        self.link_frontier(sender, ingress_idx);
        let lookup_sw = self.metrics.sampling.then(Stopwatch::start);
        self.dataplane.step(
            At { sw: loc.sw, pt: loc.pt, node: sender },
            packet,
            from_host,
            self.now,
            &mut self.arena,
            &mut self.out,
        );
        if let Some(sw) = lookup_sw {
            self.metrics.phase_lookup_ns.observe(sw.elapsed_ns());
        }
        if !self.out.notifications.is_empty() {
            if let Some(o) = self.observer.as_deref_mut() {
                o.cause(ingress_idx);
            }
        }
        self.emit_control(loc.sw, sender, ingress_idx);
        if self.out.outputs.is_empty() {
            if let Some(o) = self.observer.as_deref_mut() {
                o.leaf(ingress_idx, LeafKind::Terminated);
            }
            self.stats.dropped[DropReason::NoRule.index()] += 1;
            return;
        }
        let depart = self.now + self.params.switch_delay;
        for i in 0..self.out.outputs.len() {
            let (out_pt, out_pkt) = self.out.outputs[i];
            let out_loc = Loc::new(loc.sw, out_pt);
            let egress_idx = self.next_record(Some(ingress_idx));
            if let Some(o) = self.observer.as_deref_mut() {
                o.record(egress_idx, self.arena.get(out_pkt), out_loc, Some(ingress_idx));
            }
            match self.egress_hop(sender, out_pt, depart, size) {
                Ok((arrival, dst, dst_entity)) => {
                    let seq = self.next_seq(sender);
                    self.schedule(
                        arrival,
                        seq,
                        EventKind::Arrive {
                            loc: dst,
                            packet: out_pkt,
                            size,
                            parent: egress_idx,
                            from_host: false,
                            sender: dst_entity,
                        },
                    );
                }
                Err(reason) => {
                    // Only a dead end terminates the trace (see `egress_hop`).
                    let leaf = match reason {
                        DropReason::DeadEnd => LeafKind::Terminated,
                        _ => LeafKind::Stalled,
                    };
                    if let Some(o) = self.observer.as_deref_mut() {
                        o.leaf(egress_idx, leaf);
                    }
                    self.stats.dropped[reason.index()] += 1;
                }
            }
        }
        self.out.outputs.clear();
        if let Some(o) = self.observer.as_deref_mut() {
            o.retire(ingress_idx);
        }
    }

    /// Where a packet of `size` bytes leaving port `pt` of switch entity
    /// `sw` at `depart` goes: its arrival time, location and dense entity on
    /// the far side, or why it is lost on the way. A capacity-limited link
    /// that carries it books its transmission.
    fn egress_hop(
        &mut self,
        sw: u32,
        pt: u64,
        depart: SimTime,
        size: u32,
    ) -> Result<(SimTime, Loc, u32), DropReason> {
        let (link_idx, dst_entity) = match self.egress.at(sw, pt) {
            Some(Egress::Host(host, entity)) => {
                return Ok((depart + self.topo.host_latency, Loc::new(host, 0), entity));
            }
            Some(Egress::Link(i, entity)) => (i as usize, entity),
            // Nothing attached here.
            None => return Err(DropReason::DeadEnd),
        };
        let link = self.topo.links()[link_idx];
        // Scheduled failure? Like queue losses, failure drops are left
        // unterminated in the trace: the abstract configuration has no
        // notion of a dead link, so the packet reads as in flight.
        if timeline_at(&self.link_state[link_idx], depart, false) {
            return Err(DropReason::LinkDown);
        }
        let arrival = match link.capacity {
            None => depart + link.latency,
            Some(bps) => {
                let free = &mut self.link_free[link_idx];
                let start = (*free).max(depart);
                if self.metrics.on && *free > depart {
                    self.metrics.link_busy += 1;
                }
                // Tail drop when the backlog exceeds the queue bound.
                // Queue losses are *not* marked terminated in the trace:
                // the abstract configuration relation has lossless links,
                // so a queue drop reads as a packet forever in flight (a
                // prefix), not as forwarding misbehaviour.
                if start.saturating_sub(depart) > self.params.max_queue_delay {
                    return Err(DropReason::QueueFull);
                }
                let wire = size as u64 + self.params.header_overhead as u64;
                let tx = SimTime::from_micros((wire * 1_000_000).div_ceil(bps));
                *free = start + tx;
                start + tx + link.latency
            }
        };
        Ok((arrival, link.dst, dst_entity))
    }
}
