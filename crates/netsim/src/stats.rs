//! Run statistics: deliveries, drops, byte counts.

use netkat::Packet;

use crate::time::SimTime;

/// Why a packet disappeared.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DropReason {
    /// No flow-table rule matched (or the matching rule dropped).
    NoRule,
    /// The output port has no link attached.
    DeadEnd,
    /// Tail drop on a saturated link queue.
    QueueFull,
    /// The link was down (injected failure).
    LinkDown,
}

impl DropReason {
    /// Every reason, in [`DropReason::index`] order — iterate this to
    /// report named per-reason counts from [`Stats::dropped`].
    pub const ALL: [DropReason; 4] =
        [DropReason::NoRule, DropReason::DeadEnd, DropReason::QueueFull, DropReason::LinkDown];

    /// The reason's index into [`Stats::dropped`].
    pub fn index(self) -> usize {
        match self {
            DropReason::NoRule => 0,
            DropReason::DeadEnd => 1,
            DropReason::QueueFull => 2,
            DropReason::LinkDown => 3,
        }
    }

    /// A short static name for reports and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            DropReason::NoRule => "no_rule",
            DropReason::DeadEnd => "dead_end",
            DropReason::QueueFull => "queue_full",
            DropReason::LinkDown => "link_down",
        }
    }
}

/// How much per-packet detail a run's [`Stats`] retain.
///
/// The aggregate counters ([`Stats::injected`], [`Stats::events_processed`],
/// [`Stats::delivered_packets`], [`Stats::delivered_bytes`],
/// [`Stats::dropped`]) are maintained identically in **both** modes; the
/// mode only decides whether the per-packet [`Stats::deliveries`] stream
/// is kept. [`StatsMode::Counters`] keeps it empty, so a run's memory no
/// longer grows with the delivery count, as verified-at-scale runs need.
/// No mode keeps a per-packet drop record: the counters say how many and
/// why, and an attached trace builder's trace holds each dropped packet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StatsMode {
    /// Record every delivery (the default).
    Full,
    /// Aggregate counters only; `deliveries` stays empty.
    Counters,
}

/// A delivered packet.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Delivery {
    /// Delivery time.
    pub time: SimTime,
    /// Receiving host.
    pub host: u64,
    /// The packet as delivered.
    pub packet: Packet,
    /// Size in bytes.
    pub size: u32,
}

/// Aggregate statistics of a run.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Stats {
    /// Every delivery, in time order (empty under
    /// [`StatsMode::Counters`]).
    pub deliveries: Vec<Delivery>,
    /// Packets injected by hosts.
    pub injected: u64,
    /// Discrete events the engine dispatched (injections, arrivals,
    /// controller notifications and deliveries) — the scale harness's
    /// work-done metric.
    pub events_processed: u64,
    /// Total packets delivered (maintained in every [`StatsMode`], so a
    /// [`StatsMode::Counters`] run still reports throughput).
    pub delivered_packets: u64,
    /// Total bytes delivered (maintained in every [`StatsMode`]).
    pub delivered_bytes: u64,
    /// Drop counts by [`DropReason::index`] (maintained in every
    /// [`StatsMode`]).
    pub dropped: [u64; 4],
}

impl Stats {
    /// Deliveries at a particular host.
    pub fn delivered_to(&self, host: u64) -> impl Iterator<Item = &Delivery> + '_ {
        self.deliveries.iter().filter(move |d| d.host == host)
    }

    /// Total bytes delivered to `host` within `[from, to)`.
    pub fn bytes_delivered(&self, host: u64, from: SimTime, to: SimTime) -> u64 {
        self.delivered_to(host)
            .filter(|d| d.time >= from && d.time < to)
            .map(|d| d.size as u64)
            .sum()
    }

    /// Number of drops, optionally filtered by reason, read from
    /// [`dropped`](Stats::dropped) in every [`StatsMode`].
    pub fn drop_count(&self, reason: Option<DropReason>) -> usize {
        let n = match reason {
            None => self.dropped.iter().sum(),
            Some(r) => self.dropped[r.index()],
        };
        n as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_accounting_windows() {
        let mut s = Stats::default();
        for (t, host, size) in [(1u64, 7u64, 100u32), (2, 7, 200), (3, 8, 400)] {
            s.deliveries.push(Delivery {
                time: SimTime::from_millis(t),
                host,
                packet: Packet::new(),
                size,
            });
        }
        assert_eq!(s.bytes_delivered(7, SimTime::ZERO, SimTime::from_millis(10)), 300);
        assert_eq!(s.bytes_delivered(7, SimTime::from_millis(2), SimTime::from_millis(10)), 200);
        assert_eq!(s.bytes_delivered(8, SimTime::ZERO, SimTime::from_millis(10)), 400);
        assert_eq!(s.delivered_to(7).count(), 2);
    }

    #[test]
    fn reason_names_align_with_indices() {
        for (i, r) in DropReason::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
        }
        assert_eq!(DropReason::QueueFull.name(), "queue_full");
    }

    #[test]
    fn drop_filtering() {
        let mut s = Stats::default();
        for reason in [DropReason::NoRule, DropReason::NoRule, DropReason::QueueFull] {
            s.dropped[reason.index()] += 1;
        }
        assert_eq!(s.drop_count(None), 3);
        assert_eq!(s.drop_count(Some(DropReason::NoRule)), 2);
        assert_eq!(s.drop_count(Some(DropReason::DeadEnd)), 0);
    }
}
