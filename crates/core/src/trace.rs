//! Network traces: interleavings of packet traces (Section 2).
//!
//! A network trace is a pair `(lp₀ lp₁ ⋯, T)` of a global sequence of
//! located packets and a set `T` of increasing index sequences — the *packet
//! traces* — forming a family of trees (a packet trace forks when a
//! configuration multicasts).

use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Arc, Mutex};

use netkat::{Loc, Packet};

use crate::observe::{LeafKind, TraceObserver};

/// A located packet `(pkt, sw, pt)`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LocatedPacket {
    /// The packet's headers.
    pub packet: Packet,
    /// The packet's location.
    pub loc: Loc,
}

impl LocatedPacket {
    /// Creates a located packet.
    pub fn new(packet: Packet, loc: Loc) -> LocatedPacket {
        LocatedPacket { packet, loc }
    }

    /// Returns a copy with virtual runtime fields (tag, digest) erased, for
    /// comparison against abstract configurations.
    pub fn erase_virtual(&self) -> LocatedPacket {
        LocatedPacket { packet: self.packet.erase_virtual(), loc: self.loc }
    }
}

impl fmt::Display for LocatedPacket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.packet, self.loc)
    }
}

/// Why a recorded structure fails to be a network trace.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TraceStructureError {
    /// An index is covered by no packet trace (violates condition 1).
    UncoveredIndex(usize),
    /// A packet trace is not strictly increasing.
    NotIncreasing {
        /// Which trace.
        trace: usize,
    },
    /// A packet trace references an out-of-range index.
    IndexOutOfRange {
        /// Which trace.
        trace: usize,
        /// The offending index.
        index: usize,
    },
    /// Two packet traces share indices that are not a common prefix, so the
    /// traces do not form a family of trees (violates condition 3).
    NotATree {
        /// First trace.
        a: usize,
        /// Second trace.
        b: usize,
    },
}

impl fmt::Display for TraceStructureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceStructureError::UncoveredIndex(i) => {
                write!(f, "located packet {i} belongs to no packet trace")
            }
            TraceStructureError::NotIncreasing { trace } => {
                write!(f, "packet trace {trace} is not strictly increasing")
            }
            TraceStructureError::IndexOutOfRange { trace, index } => {
                write!(f, "packet trace {trace} references out-of-range index {index}")
            }
            TraceStructureError::NotATree { a, b } => {
                write!(f, "packet traces {a} and {b} overlap without a common prefix")
            }
        }
    }
}

impl std::error::Error for TraceStructureError {}

/// A network trace `(lp₀ lp₁ ⋯, T)`.
///
/// Beyond the paper's structure, the trace records which global indices are
/// *terminated*: points where a packet's journey definitively ended inside
/// the network (a drop), as opposed to a packet still in flight when the
/// recording stopped. The distinction matters to the checker: a drop must
/// be a *complete* trace of some configuration, while an in-flight packet
/// only needs to be a prefix.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct NetworkTrace {
    packets: Vec<LocatedPacket>,
    traces: Vec<Vec<usize>>,
    terminated: BTreeSet<usize>,
    extra_edges: Vec<(usize, usize)>,
}

impl NetworkTrace {
    /// Builds a network trace from its parts.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceStructureError`] if the parts violate the structural
    /// conditions of Section 2 (coverage, monotonicity, tree-ness).
    pub fn new(
        packets: Vec<LocatedPacket>,
        traces: Vec<Vec<usize>>,
    ) -> Result<NetworkTrace, TraceStructureError> {
        let mut covered = vec![false; packets.len()];
        for (ti, t) in traces.iter().enumerate() {
            for window in t.windows(2) {
                if window[0] >= window[1] {
                    return Err(TraceStructureError::NotIncreasing { trace: ti });
                }
            }
            for &i in t {
                if i >= packets.len() {
                    return Err(TraceStructureError::IndexOutOfRange { trace: ti, index: i });
                }
                covered[i] = true;
            }
        }
        if let Some(i) = covered.iter().position(|&c| !c) {
            return Err(TraceStructureError::UncoveredIndex(i));
        }
        // Tree-ness: shared indices between two traces must be a common
        // prefix of both.
        for a in 0..traces.len() {
            for b in (a + 1)..traces.len() {
                let (ta, tb) = (&traces[a], &traces[b]);
                let shared: BTreeSet<usize> = ta
                    .iter()
                    .copied()
                    .collect::<BTreeSet<_>>()
                    .intersection(&tb.iter().copied().collect())
                    .copied()
                    .collect();
                let n = shared.len();
                let prefix_ok = ta[..n.min(ta.len())] == tb[..n.min(tb.len())]
                    && ta[..n.min(ta.len())].iter().all(|i| shared.contains(i));
                if !prefix_ok {
                    return Err(TraceStructureError::NotATree { a, b });
                }
            }
        }
        Ok(NetworkTrace { packets, traces, terminated: BTreeSet::new(), extra_edges: Vec::new() })
    }

    /// The out-of-band causal edges (see
    /// [`TraceBuilder::add_causal_edge`]).
    pub fn extra_edges(&self) -> &[(usize, usize)] {
        &self.extra_edges
    }

    /// Returns `true` if packet trace `t` ends in a recorded drop.
    pub fn trace_is_terminated(&self, t: usize) -> bool {
        self.traces[t].last().is_some_and(|&i| self.terminated.contains(&i))
    }

    /// The global sequence of located packets.
    pub fn packets(&self) -> &[LocatedPacket] {
        &self.packets
    }

    /// The located packet at global index `i`.
    pub fn packet(&self, i: usize) -> &LocatedPacket {
        &self.packets[i]
    }

    /// Number of located packets.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// Returns `true` if the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// The packet traces `T` (index sequences).
    pub fn traces(&self) -> &[Vec<usize>] {
        &self.traces
    }

    /// `ntr↓k`: the packet traces containing global index `k`.
    pub fn traces_through(&self, k: usize) -> Vec<usize> {
        (0..self.traces.len()).filter(|&t| self.traces[t].contains(&k)).collect()
    }
}

impl fmt::Display for NetworkTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, lp) in self.packets.iter().enumerate() {
            writeln!(f, "[{i:4}] {lp}")?;
        }
        for (t, idxs) in self.traces.iter().enumerate() {
            writeln!(f, "trace {t}: {idxs:?}")?;
        }
        Ok(())
    }
}

/// Incremental construction of a [`NetworkTrace`] as a forest.
///
/// Each push appends one located packet, linked to the located packet it
/// came from; root-to-leaf paths become the packet traces. The builder is
/// also a [`TraceObserver`]: fed an engine's callback stream, it records
/// what `check_correct` later judges — the stream the online checker
/// judges as it happens.
///
/// # Examples
///
/// ```
/// use edn_core::TraceBuilder;
/// use netkat::{Loc, Packet};
/// let mut b = TraceBuilder::new();
/// let root = b.push(Packet::new(), Loc::new(100, 0), None);
/// let mid = b.push(Packet::new(), Loc::new(1, 1), Some(root));
/// b.push(Packet::new(), Loc::new(1, 2), Some(mid));
/// b.push(Packet::new(), Loc::new(2, 1), Some(mid)); // multicast fork
/// let ntr = b.build();
/// assert_eq!(ntr.traces().len(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct TraceBuilder {
    packets: Vec<LocatedPacket>,
    /// Per record: the parent index (leaf/child structure is derived from
    /// this at build time, keeping the recording path to two appends).
    parents: Vec<Option<usize>>,
    terminated: BTreeSet<usize>,
    extra_edges: Vec<(usize, usize)>,
    /// Where an attached builder ([`observer`](TraceBuilder::observer))
    /// leaves the trace when the run finishes.
    out: Option<TraceHandle>,
}

impl TraceBuilder {
    /// Creates an empty builder.
    pub fn new() -> TraceBuilder {
        TraceBuilder::default()
    }

    /// A fresh builder to attach to an engine, as the online checker
    /// attaches ([`OnlineChecker::observer`](crate::OnlineChecker::observer)),
    /// and the handle that yields its trace once the run has finished.
    pub fn observer() -> (Box<dyn TraceObserver + Send>, TraceHandle) {
        let out = TraceHandle::default();
        (Box::new(TraceBuilder { out: Some(out.clone()), ..TraceBuilder::new() }), out)
    }

    /// Appends a located packet; `parent` is the global index of the located
    /// packet it was produced from (`None` for a fresh injection at a host).
    ///
    /// Returns the new packet's global index.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is not an earlier index.
    pub fn push(&mut self, packet: Packet, loc: Loc, parent: Option<usize>) -> usize {
        let idx = self.len();
        if let Some(p) = parent {
            assert!(p < idx, "parent {p} must precede child {idx}");
        }
        self.packets.push(LocatedPacket::new(packet, loc));
        self.parents.push(parent);
        idx
    }

    /// Number of packets recorded so far.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// Returns `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Marks a recorded packet as dropped (its journey ends at `i`); an
    /// index out of range is ignored at [`build`](TraceBuilder::build).
    pub fn mark_terminated(&mut self, i: usize) {
        self.terminated.insert(i);
    }

    /// Records an out-of-band causal edge `from ≺ to` (controller
    /// messages: the paper's CTRLRECV/CTRLSEND rules propagate knowledge
    /// between switches without a data packet, but the propagation is
    /// still a communication and therefore part of the happens-before
    /// order).
    ///
    /// # Panics
    ///
    /// Panics unless `from < to` and both are recorded indices.
    pub fn add_causal_edge(&mut self, from: usize, to: usize) {
        assert!(from < to && to < self.len(), "causal edges point forward");
        self.extra_edges.push((from, to));
    }

    /// Finalizes into a [`NetworkTrace`]: each leaf yields the packet trace
    /// running from its root.
    ///
    /// The structural conditions of Section 2 hold *by construction* for
    /// forests built through [`push`](TraceBuilder::push) — every index
    /// lies on its leaf's root path, parents strictly precede children,
    /// and two root-to-leaf paths of a forest share exactly a common
    /// prefix — so the trace is assembled directly instead of going
    /// through [`NetworkTrace::new`]'s quadratic revalidation (which, at
    /// thousands of packet traces, used to dominate entire simulation
    /// runs).
    pub fn build(self) -> NetworkTrace {
        let parents = self.parents;
        let mut has_child = vec![false; parents.len()];
        for &p in parents.iter().flatten() {
            has_child[p] = true;
        }
        let mut traces = Vec::new();
        for leaf in (0..parents.len()).filter(|&i| !has_child[i]) {
            let mut path = vec![leaf];
            let mut cur = leaf;
            while let Some(p) = parents[cur] {
                path.push(p);
                cur = p;
            }
            path.reverse();
            traces.push(path);
        }
        let len = self.packets.len();
        let terminated = self.terminated.into_iter().filter(|&i| i < len).collect();
        NetworkTrace { packets: self.packets, traces, terminated, extra_edges: self.extra_edges }
    }
}

/// The builder as an engine observer: a record is a push, an edge a causal
/// edge, and a [`Terminated`](LeafKind::Terminated) leaf a drop. A
/// delivered or stalled path end marks nothing, and the retirement and
/// cause notices carry nothing a trace keeps.
impl TraceObserver for TraceBuilder {
    fn record(&mut self, idx: usize, packet: &Packet, loc: Loc, parent: Option<usize>) {
        let pushed = self.push(packet.clone(), loc, parent);
        assert_eq!(pushed, idx, "records arrive in index order");
    }

    fn edge(&mut self, from: usize, to: usize) {
        self.add_causal_edge(from, to);
    }

    fn cause(&mut self, _: usize) {}

    fn leaf(&mut self, idx: usize, kind: LeafKind) {
        if kind == LeafKind::Terminated {
            self.mark_terminated(idx);
        }
    }

    fn retire(&mut self, _: usize) {}

    /// An attached builder builds its trace and leaves it in its handle.
    fn finish(&mut self) {
        if let Some(out) = self.out.take() {
            let trace = std::mem::take(self).build();
            *out.0.lock().expect("no handle panics holding it") = Some(trace);
        }
    }
}

/// Where an attached [`TraceBuilder`] leaves the network trace it built.
#[derive(Clone, Debug, Default)]
pub struct TraceHandle(Arc<Mutex<Option<NetworkTrace>>>);

impl TraceHandle {
    /// The trace the finished run recorded.
    ///
    /// # Panics
    ///
    /// Panics unless the run has finished.
    pub fn take(self) -> NetworkTrace {
        let trace = self.0.lock().expect("no builder panics holding it").take();
        trace.expect("an attached builder leaves its trace when the run finishes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lp(sw: u64) -> (Packet, Loc) {
        (Packet::new(), Loc::new(sw, 1))
    }

    #[test]
    fn builder_linear_trace() {
        let mut b = TraceBuilder::new();
        let (p0, l0) = lp(100);
        let r = b.push(p0, l0, None);
        let (p1, l1) = lp(1);
        let m = b.push(p1, l1, Some(r));
        let (p2, l2) = lp(2);
        b.push(p2, l2, Some(m));
        let ntr = b.build();
        assert_eq!(ntr.len(), 3);
        assert_eq!(ntr.traces(), &[vec![0, 1, 2]]);
        assert_eq!(ntr.traces_through(1), vec![0]);
    }

    #[test]
    fn builder_fork_makes_tree() {
        let mut b = TraceBuilder::new();
        let r = b.push(Packet::new(), Loc::new(100, 0), None);
        let m = b.push(Packet::new(), Loc::new(4, 1), Some(r));
        b.push(Packet::new(), Loc::new(1, 1), Some(m));
        b.push(Packet::new(), Loc::new(2, 1), Some(m));
        let ntr = b.build();
        assert_eq!(ntr.traces().len(), 2);
        // Both traces share the prefix [0, 1].
        assert_eq!(ntr.traces()[0][..2], [0, 1]);
        assert_eq!(ntr.traces()[1][..2], [0, 1]);
        assert_eq!(ntr.traces_through(1).len(), 2);
    }

    #[test]
    fn two_independent_injections() {
        let mut b = TraceBuilder::new();
        let a = b.push(Packet::new(), Loc::new(100, 0), None);
        let c = b.push(Packet::new(), Loc::new(101, 0), None);
        b.push(Packet::new(), Loc::new(1, 1), Some(a));
        b.push(Packet::new(), Loc::new(2, 1), Some(c));
        let ntr = b.build();
        assert_eq!(ntr.traces().len(), 2);
        assert_eq!(ntr.traces()[0], vec![0, 2]);
        assert_eq!(ntr.traces()[1], vec![1, 3]);
    }

    #[test]
    fn built_forests_pass_full_structural_validation() {
        // `build` skips `NetworkTrace::new`'s quadratic validation because
        // pushed forests satisfy it by construction — pin that claim on a
        // forest with forks, chains, and independent roots.
        let mut b = TraceBuilder::new();
        let mut leaves = Vec::new();
        for root in 0..5u64 {
            let r = b.push(Packet::new(), Loc::new(100 + root, 0), None);
            let m = b.push(Packet::new(), Loc::new(root, 1), Some(r));
            for fork in 0..3u64 {
                let f = b.push(Packet::new(), Loc::new(root, 2 + fork), Some(m));
                leaves.push(b.push(Packet::new(), Loc::new(200 + fork, 0), Some(f)));
            }
        }
        b.mark_terminated(leaves[0]);
        b.mark_terminated(usize::MAX); // out of range: dropped, as before
        b.add_causal_edge(0, 3);
        let ntr = b.build();
        let revalidated = NetworkTrace::new(ntr.packets().to_vec(), ntr.traces().to_vec())
            .expect("built forests satisfy the Section 2 structural conditions");
        assert_eq!(revalidated.packets(), ntr.packets());
        assert_eq!(revalidated.traces(), ntr.traces());
        assert!(ntr.trace_is_terminated(0));
        assert_eq!(ntr.extra_edges(), &[(0, 3)]);
    }

    #[test]
    fn structural_validation_rejects_uncovered() {
        let pkts = vec![
            LocatedPacket::new(Packet::new(), Loc::new(1, 1)),
            LocatedPacket::new(Packet::new(), Loc::new(2, 1)),
        ];
        let err = NetworkTrace::new(pkts, vec![vec![0]]).unwrap_err();
        assert_eq!(err, TraceStructureError::UncoveredIndex(1));
    }

    #[test]
    fn structural_validation_rejects_decreasing() {
        let pkts = vec![
            LocatedPacket::new(Packet::new(), Loc::new(1, 1)),
            LocatedPacket::new(Packet::new(), Loc::new(2, 1)),
        ];
        let err = NetworkTrace::new(pkts, vec![vec![1, 0]]).unwrap_err();
        assert_eq!(err, TraceStructureError::NotIncreasing { trace: 0 });
    }

    #[test]
    fn structural_validation_rejects_non_tree_overlap() {
        let pkts: Vec<LocatedPacket> =
            (0..4).map(|i| LocatedPacket::new(Packet::new(), Loc::new(i, 1))).collect();
        // Traces [0,2,3] and [1,2,3] share a *suffix*, not a prefix.
        let err = NetworkTrace::new(pkts, vec![vec![0, 2, 3], vec![1, 2, 3]]).unwrap_err();
        assert_eq!(err, TraceStructureError::NotATree { a: 0, b: 1 });
    }

    /// A hand stream in the engine's callback order: a root, a transit
    /// hop that multicasts, and three path ends — one per [`LeafKind`].
    fn feed(o: &mut impl TraceObserver) {
        let pk = Packet::new().with(netkat::Field::IpDst, 9);
        o.record(0, &pk, Loc::new(100, 0), None);
        o.record(1, &pk, Loc::new(1, 1), Some(0));
        o.retire(0);
        o.cause(1);
        o.record(2, &pk, Loc::new(1, 2), Some(1));
        o.leaf(2, LeafKind::Stalled);
        o.record(3, &pk, Loc::new(1, 3), Some(1));
        o.leaf(3, LeafKind::Terminated);
        o.record(4, &pk, Loc::new(1, 4), Some(1));
        o.retire(1);
        o.record(5, &pk, Loc::new(200, 0), Some(4));
        o.edge(1, 5);
        o.leaf(5, LeafKind::Delivered);
        o.finish();
    }

    #[test]
    fn observer_marks_only_terminated_leaves() {
        let mut b = TraceBuilder::new();
        feed(&mut b);
        let ntr = b.build();
        assert_eq!(ntr.len(), 6);
        assert_eq!(ntr.traces(), &[vec![0, 1, 2], vec![0, 1, 3], vec![0, 1, 4, 5]]);
        assert_eq!(ntr.extra_edges(), &[(1, 5)]);
        let terminated: Vec<bool> = (0..3).map(|t| ntr.trace_is_terminated(t)).collect();
        assert_eq!(terminated, [false, true, false], "a stalled or delivered end is no drop");
    }

    #[test]
    fn observer_stream_builds_what_pushes_build() {
        let mut observed = TraceBuilder::new();
        feed(&mut observed);
        let pk = Packet::new().with(netkat::Field::IpDst, 9);
        let mut pushed = TraceBuilder::new();
        for (sw, pt, parent) in [(100, 0, None), (1, 1, Some(0)), (1, 2, Some(1))] {
            pushed.push(pk.clone(), Loc::new(sw, pt), parent);
        }
        for (sw, pt, parent) in [(1, 3, Some(1)), (1, 4, Some(1)), (200, 0, Some(4))] {
            pushed.push(pk.clone(), Loc::new(sw, pt), parent);
        }
        pushed.mark_terminated(3);
        pushed.add_causal_edge(1, 5);
        assert_eq!(observed.build(), pushed.build());
    }

    #[test]
    #[should_panic(expected = "records arrive in index order")]
    fn observer_rejects_a_record_out_of_index_order() {
        let mut b = TraceBuilder::new();
        b.record(1, &Packet::new(), Loc::new(100, 0), None);
    }

    #[test]
    fn empty_trace_is_fine() {
        let ntr = NetworkTrace::new(Vec::new(), Vec::new()).unwrap();
        assert!(ntr.is_empty());
        assert_eq!(TraceBuilder::new().build(), ntr);
    }
}
