//! Network traces: interleavings of packet traces (Section 2).
//!
//! A network trace is a pair `(lp₀ lp₁ ⋯, T)` of a global sequence of
//! located packets and a set `T` of increasing index sequences — the *packet
//! traces* — forming a family of trees (a packet trace forks when a
//! configuration multicasts).

use std::collections::BTreeSet;
use std::fmt;

use netkat::{Loc, Packet, PacketArena, PacketId};

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

    /// Adds an out-of-band causal edge `from ≺ to` (controller messages:
    /// the paper's CTRLRECV/CTRLSEND rules propagate knowledge between
    /// switches without a data packet, but the propagation is still a
    /// communication and therefore part of the happens-before order).
    ///
    /// # Panics
    ///
    /// Panics unless `from < to < len`.
    pub fn add_causal_edge(&mut self, from: usize, to: usize) {
        assert!(from < to && to < self.packets.len(), "causal edges point forward");
        self.extra_edges.push((from, to));
    }

    /// The out-of-band causal edges.
    pub fn extra_edges(&self) -> &[(usize, usize)] {
        &self.extra_edges
    }

    /// Marks global index `i` as a definitive end-of-journey (a drop).
    pub fn mark_terminated(&mut self, i: usize) {
        if i < self.packets.len() {
            self.terminated.insert(i);
        }
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

    /// Assembles a network trace from a parent forest: each leaf yields the
    /// packet trace running from its root. The caller promises `parents`
    /// describes a forest with every parent index strictly preceding its
    /// child — which holds by construction for simulator-recorded runs, so
    /// the quadratic revalidation of [`NetworkTrace::new`] is skipped.
    ///
    /// `terminated` indices outside the record range are ignored;
    /// `extra_edges` must point forward (`from < to < len`).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if a parent does not precede its child.
    pub fn from_forest(
        packets: Vec<LocatedPacket>,
        parents: &[Option<usize>],
        terminated: BTreeSet<usize>,
        extra_edges: Vec<(usize, usize)>,
    ) -> NetworkTrace {
        debug_assert_eq!(packets.len(), parents.len());
        let mut has_child = vec![false; parents.len()];
        for (i, p) in parents.iter().enumerate() {
            if let Some(p) = p {
                debug_assert!(*p < i, "parent {p} must precede child {i}");
                has_child[*p] = true;
            }
        }
        let mut traces = Vec::new();
        for (leaf, _) in has_child.iter().enumerate().filter(|&(_, &c)| !c) {
            let mut path = vec![leaf];
            let mut cur = leaf;
            while let Some(p) = parents[cur] {
                path.push(p);
                cur = p;
            }
            path.reverse();
            traces.push(path);
        }
        let len = packets.len();
        let terminated = terminated.into_iter().filter(|&i| i < len).collect();
        NetworkTrace { packets, traces, terminated, extra_edges }
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

/// How much a [`TraceBuilder`] records.
///
/// Measurement-only sweeps don't read the trace at all, and recording it —
/// one `(id, loc)` pair plus forest bookkeeping per processing step — is
/// pure overhead there. In [`StatsOnly`](TraceMode::StatsOnly) the builder
/// degenerates to an index counter: pushes return the same indices they
/// would in [`Full`](TraceMode::Full) mode (so callers' causal bookkeeping
/// is unchanged), but nothing is stored and `build` yields an empty trace.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TraceMode {
    /// Record every processing step (a [`TraceBuilder`]'s default; an
    /// engine starts at `StatsOnly`): `build` yields the Section 2 network
    /// trace.
    #[default]
    Full,
    /// Record nothing; only run statistics survive. `build` yields an
    /// empty trace.
    StatsOnly,
}

impl TraceMode {
    /// The label used in benchmark output (`full` / `stats`).
    pub fn label(&self) -> &'static str {
        match self {
            TraceMode::Full => "full",
            TraceMode::StatsOnly => "stats",
        }
    }
}

/// Incremental construction of a [`NetworkTrace`] as a forest.
///
/// The simulator appends one located packet per processing step, linking it
/// to the located packet it came from; root-to-leaf paths become the packet
/// traces.
///
/// Packets are interned in a [`PacketArena`] owned by the builder, and each
/// step stores only a `(PacketId, Loc)` pair — recording a hop never clones
/// a packet. The simulator shares the same arena for its in-flight packets
/// (see [`arena_mut`](TraceBuilder::arena_mut)); ids resolve back to
/// [`Packet`]s only at [`build`](TraceBuilder::build) /
/// [`recorded`](TraceBuilder::recorded) time.
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
/// let ntr = b.build().unwrap();
/// assert_eq!(ntr.traces().len(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct TraceBuilder {
    arena: PacketArena,
    /// The recorded steps (empty in [`TraceMode::StatsOnly`]).
    records: Vec<(PacketId, Loc)>,
    /// Per record: the parent index (leaf/child structure is derived from
    /// this at build time, keeping the recording path to two appends).
    parents: Vec<Option<usize>>,
    terminated: BTreeSet<usize>,
    extra_edges: Vec<(usize, usize)>,
    mode: TraceMode,
    /// Indices handed out in [`TraceMode::StatsOnly`] (where `records`
    /// stays empty).
    virtual_len: usize,
}

impl TraceBuilder {
    /// Creates an empty builder recording everything.
    pub fn new() -> TraceBuilder {
        TraceBuilder::default()
    }

    /// Creates an empty builder with the given recording mode.
    pub fn with_mode(mode: TraceMode) -> TraceBuilder {
        TraceBuilder { mode, ..TraceBuilder::default() }
    }

    /// The recording mode.
    pub fn mode(&self) -> TraceMode {
        self.mode
    }

    /// The packet arena ids passed to [`push_id`](TraceBuilder::push_id)
    /// must come from.
    pub fn arena(&self) -> &PacketArena {
        &self.arena
    }

    /// Mutable access to the arena — the simulator interns its in-flight
    /// packets here, so trace records and event payloads share one id
    /// space.
    pub fn arena_mut(&mut self) -> &mut PacketArena {
        &mut self.arena
    }

    /// Appends a located packet; `parent` is the global index of the located
    /// packet it was produced from (`None` for a fresh injection at a host).
    /// In [`TraceMode::StatsOnly`] the packet is not even interned.
    ///
    /// Returns the new packet's global index.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is not an earlier index.
    pub fn push(&mut self, packet: Packet, loc: Loc, parent: Option<usize>) -> usize {
        match self.mode {
            TraceMode::Full => {
                let id = self.arena.intern(packet);
                self.push_id(id, loc, parent)
            }
            TraceMode::StatsOnly => self.next_index(parent),
        }
    }

    /// [`push`](TraceBuilder::push) for a packet already interned in this
    /// builder's [`arena`](TraceBuilder::arena) — the simulator's zero-copy
    /// recording path. In [`TraceMode::Full`] the record
    /// [retains](netkat::PacketArena::retain) `id` for good, so it resolves
    /// at [`build`](TraceBuilder::build) whatever the caller releases and
    /// sweeps afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is not an earlier index.
    pub fn push_id(&mut self, id: PacketId, loc: Loc, parent: Option<usize>) -> usize {
        let idx = self.next_index(parent);
        if self.mode == TraceMode::Full {
            self.arena.retain(id);
            self.records.push((id, loc));
            self.parents.push(parent);
        }
        idx
    }

    /// The index the next push gets, once `parent` is checked to precede
    /// it. In [`TraceMode::StatsOnly`] this counting is the whole push.
    fn next_index(&mut self, parent: Option<usize>) -> usize {
        let idx = self.len();
        if let Some(p) = parent {
            assert!(p < idx, "parent {p} must precede child {idx}");
        }
        if self.mode == TraceMode::StatsOnly {
            self.virtual_len += 1;
        }
        idx
    }

    /// Number of packets recorded (in [`TraceMode::StatsOnly`]: counted) so
    /// far.
    pub fn len(&self) -> usize {
        match self.mode {
            TraceMode::Full => self.records.len(),
            TraceMode::StatsOnly => self.virtual_len,
        }
    }

    /// The located packet recorded at global index `i`, resolved from the
    /// arena (lets the simulator recover a packet it moved elsewhere, e.g.
    /// for a drop record, without keeping its own copy).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range — in particular for *every* index in
    /// [`TraceMode::StatsOnly`], where nothing is recorded.
    pub fn recorded(&self, i: usize) -> LocatedPacket {
        let (id, loc) = self.records[i];
        LocatedPacket::new(self.arena.get(id).clone(), loc)
    }

    /// Returns `true` if nothing has been recorded or counted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Marks a recorded packet as dropped (its journey ends at `i`).
    pub fn mark_terminated(&mut self, i: usize) {
        if self.mode == TraceMode::Full {
            self.terminated.insert(i);
        }
    }

    /// Records an out-of-band causal edge (see
    /// [`NetworkTrace::add_causal_edge`]).
    ///
    /// # Panics
    ///
    /// Panics unless `from < to` and both are recorded indices.
    pub fn add_causal_edge(&mut self, from: usize, to: usize) {
        assert!(from < to && to < self.len(), "causal edges point forward");
        if self.mode == TraceMode::Full {
            self.extra_edges.push((from, to));
        }
    }

    /// Finalizes into a [`NetworkTrace`]: each leaf yields the packet trace
    /// running from its root. Packet ids resolve to owned [`Packet`]s here
    /// — the only point the builder clones packets. In
    /// [`TraceMode::StatsOnly`] the result is empty.
    ///
    /// The structural conditions of Section 2 hold *by construction* for
    /// forests built through [`push`](TraceBuilder::push) — every index
    /// lies on its leaf's root path, parents strictly precede children,
    /// and two root-to-leaf paths of a forest share exactly a common
    /// prefix — so the trace is assembled directly (via
    /// [`NetworkTrace::from_forest`]) instead of going through
    /// [`NetworkTrace::new`]'s quadratic revalidation (which, at
    /// thousands of packet traces, used to dominate entire simulation
    /// runs).
    ///
    /// # Errors
    ///
    /// Infallible for forests built via [`push`](TraceBuilder::push); the
    /// `Result` is kept for API stability.
    pub fn build(self) -> Result<NetworkTrace, TraceStructureError> {
        let arena = self.arena;
        let packets = self
            .records
            .into_iter()
            .map(|(id, loc)| LocatedPacket::new(arena.get(id).clone(), loc))
            .collect();
        Ok(NetworkTrace::from_forest(packets, &self.parents, self.terminated, self.extra_edges))
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
        let ntr = b.build().unwrap();
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
        let ntr = b.build().unwrap();
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
        let ntr = b.build().unwrap();
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
        let ntr = b.build().unwrap();
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

    #[test]
    fn stats_only_counts_without_recording() {
        // Drive the same forest through both modes: StatsOnly must hand
        // out the same indices (the simulator's causal bookkeeping depends
        // on them) while storing nothing.
        let mut full = TraceBuilder::new();
        let mut stats = TraceBuilder::with_mode(TraceMode::StatsOnly);
        assert_eq!(stats.mode(), TraceMode::StatsOnly);
        for b in [&mut full, &mut stats] {
            let r = b.push(Packet::new(), Loc::new(100, 0), None);
            let m = b.push(Packet::new(), Loc::new(1, 1), Some(r));
            let f = b.push(Packet::new(), Loc::new(1, 2), Some(m));
            assert_eq!((r, m, f), (0, 1, 2));
            b.mark_terminated(f);
            b.add_causal_edge(r, f);
        }
        assert_eq!(stats.len(), full.len());
        assert!(!stats.is_empty());
        // A builder that never sweeps holds no more slots than records:
        // one per Full record, none at all in StatsOnly.
        assert_eq!(full.arena().len(), full.len());
        assert!(stats.arena().is_empty());
        let ntr = stats.build().unwrap();
        assert!(ntr.is_empty());
        assert!(ntr.traces().is_empty());
        assert!(ntr.extra_edges().is_empty());
        assert_eq!(full.build().unwrap().len(), 3);
    }

    #[test]
    fn push_id_shares_the_arena_and_resolves_on_build() {
        let mut b = TraceBuilder::new();
        let pk = Packet::new().with(netkat::Field::IpDst, 9);
        let id = b.arena_mut().intern(pk.clone());
        let root = b.push_id(id, Loc::new(100, 0), None);
        b.push_id(id, Loc::new(1, 1), Some(root));
        assert_eq!(b.arena().len(), 1);
        assert_eq!(b.recorded(root).packet, pk);
        let ntr = b.build().unwrap();
        assert_eq!(ntr.len(), 2);
        assert_eq!(ntr.packet(1).packet, pk);
        assert_eq!(ntr.packet(1).loc, Loc::new(1, 1));
    }

    #[test]
    fn trace_mode_labels_and_default() {
        assert_eq!(TraceMode::default(), TraceMode::Full);
        assert_eq!(TraceMode::Full.label(), "full");
        assert_eq!(TraceMode::StatsOnly.label(), "stats");
    }

    #[test]
    fn empty_trace_is_fine() {
        let ntr = NetworkTrace::new(Vec::new(), Vec::new()).unwrap();
        assert!(ntr.is_empty());
        assert_eq!(TraceBuilder::new().build().unwrap(), ntr);
    }
}
