//! Online checking of Definition 6 over a streaming trace.
//!
//! [`OnlineChecker`] is a [`TraceObserver`] that consumes the per-packet
//! processing steps of a run *while it executes* and produces the same
//! accept/reject verdict as the post-hoc [`check_correct`](crate::check_correct)
//! — without ever materializing the trace. Memory is bounded by the number of
//! packets *in flight* (plus small per-switch and per-event state), not by
//! the length of the run, so a `TraceMode::StatsOnly`-priced run of tens of
//! millions of events can still be verified.
//!
//! # How it works
//!
//! Every condition of Definitions 2 and 6 is restructured around two facts:
//!
//! 1. **Packet traces are totally ordered by `≺`** (each record is a trace
//!    child of its predecessor), so "every node of trace `t` precedes `k`"
//!    collapses to "the *leaf* of `t` precedes `k`", and "every node follows
//!    `k`" collapses to "the *root* of `t` follows `k`".
//! 2. **Happens-before ancestry is a union of predecessor masks** (trace
//!    parent, latest earlier record at the same switch, controller edges),
//!    so each live node carries small bitmasks instead of the full relation.
//!
//! Per live node the checker keeps: the NFA state of its (virtual-field
//! erased) packet path under every reachable configuration `g(X)` — exactly
//! the automaton of [`Config::admits_trace`](crate::Config::admits_trace),
//! held as three `u64` masks (at a host / just crossed a link into a switch /
//! just left a table), one bit per configuration; the set of event *firings*
//! that happened-before it; and the set of *watched* leaves that
//! happened-before it.
//!
//! A node sits **at its record index** and its packet is a **shared pool
//! entry**. Nodes live in a ring whose length is a power of two: record
//! `idx` resets slot `idx & (len - 1)` in place and stores `idx` there, and
//! the node is sealed, refined and buried where it sits. Finding a node by
//! the index the engine names it by is a mask and one compare — no map. The
//! engine numbers records consecutively and a node lives for a bounded
//! stretch of them, so a slot is vacant again long before the index that
//! next maps to it arrives; when it is not, the ring doubles and every live
//! node moves to its slot in the longer ring. The erased packet is
//! not the node's own: it sits in a pool of `(packet, holders)` entries, and
//! a record first compares its *raw* packet with its parent's entry, `Tag`
//! and `Digest` skipped ([`Packet::eq_erased`], one pass, no copy). On a
//! link hop, and on a table hop that only assigns the port, the two are
//! equal and the child takes another hold on the parent's entry; only a
//! root, or a hop that really rewrote a header, copies and erases into a
//! recycled entry. That one comparison is also the `a == b` the automaton's
//! step needs, so the step is handed its result instead of making it again.
//!
//! Nothing that depends on the NES alone is kept per run: the checker holds
//! a clone of the NES and reads in place its events, its family, and what
//! `shared.rs` steps through — the NES's first-match index of the
//! configurations' tables, netkat's `ChainTables` (the very instance the
//! plane reads, built with the NES: per switch, the tables split into
//! chains of prefixes and each chain's longest table indexed *once*), and
//! per link, link source and host the mask of the configurations that have
//! it, written once per distinct topology by the first checker attached to
//! the NES. The configurations of an NES share nearly all their rules (a
//! 20-update fat-tree(8) campaign installs 199,940 rules that are 10,240
//! indexed rules, in 80 chains), so the NES indexes 10,240 rules, not
//! 199,940, and [`OnlineChecker::observer`] builds only per-run state. A record
//! costs one link probe or one index walk per chain through a zero-copy
//! view of the parent's packet: the chain's first match is the first match
//! of every member long enough to hold it, and the shorter members match
//! nothing — each member of a chain is a prefix of its longest table, so no
//! position is kept per configuration. Each winner's actions are applied
//! once, and the rest is mask arithmetic — whatever the number of
//! configurations.
//!
//! Event firings replay the SWITCH rule greedily: an unfired event located
//! at a record's port fires there when the packet matches and some enabling
//! set has fired entirely happens-before that record. Each firing appends
//! `g(X)` to the *realized* configuration sequence — the online image of the
//! update `g(∅) →e₀ g({e₀}) →e₁ ⋯`.
//!
//! When a path ends, its admitted-configuration set `D` (which
//! configurations accept the finished path) is intersected against the
//! realized sequence: condition 1 (some configuration processes the trace)
//! becomes a pending obligation discharged by future firings; condition 2
//! (too early) is tested when a later firing sees the leaf in its
//! happens-before past; condition 3 (too late) intersects `D` with the
//! configurations realized from the last firing preceding the trace's root
//! on. The triggering-packet side condition of first occurrences is a
//! reference-counted obligation carried from the firing node to each
//! descendant leaf. Prefixes retire as soon as the engine promises a node
//! can gain no more children: the node's slot is marked vacant and keeps its
//! obligation buffer, its hold on its packet is released, and a pool entry
//! nobody holds goes on the pool's free list with its field buffer. Ring and
//! pool therefore stop growing once they hold the widest live span and the
//! most nodes ever alive at once, and steady-state checking does not
//! allocate (`tests/hop_allocations.rs`).
//!
//! The observer owns all of this outright — no callback takes a lock — and
//! [`TraceObserver::finish`] publishes the verdict, with the run's
//! [`CheckerTelemetry`], to the [`OnlineHandle`] exactly once.
//!
//! # Capacity
//!
//! One bit per configuration, firing and watched leaf: the checker is exact
//! while the run stays within 64 reachable configurations
//! ([`OnlineChecker::observer`] refuses more), 64 event firings, and 64
//! leaves watched for condition 2 or 3 over the run. Beyond that it returns
//! the conservative [`OnlineViolation::CapacityExceeded`] rather than
//! guessing. Live nodes are not a window. Pool entries are indices into a
//! vector that grows to the in-flight high-water mark. The node ring grows to
//! the *live-index span* — the most record indices between the oldest live
//! node and the newest — rounded up to a power of two, 16 or more; memory is
//! that span times a node. The span is bounded by how long a packet stays in
//! flight times the rate at which the run records: 254 indices for 72 live
//! nodes on the fat-tree(8) firewall stream (a ring of 256), 15 for 5 on a
//! 20-update campaign (16; `checker.node_slots_hw` /
//! `checker.packet_slots_hw`). A firing that
//! leaves the structure's reachable event-sets —
//! which a well-formed [`EventStructure`](crate::EventStructure) cannot
//! produce — has no configuration to realize and is reported as
//! [`OnlineViolation::Inconsistent`], not as a panic inside the engine's
//! event loop.

use std::fmt;
use std::sync::{Arc, OnceLock};

use netkat::{Field, Loc, Packet};

use crate::event::{Event, EventId, EventSet};
use crate::nes::NetworkEventStructure;
use crate::observe::{LeafKind, TraceObserver};
use crate::shared::{FxMap, MaskedState};

/// Why an online run is not correct (or not checkable).
///
/// The kinds mirror the post-hoc violations but are not one-to-one: the
/// online checker commits to the event sequence that actually fired, while
/// [`check_correct`](crate::check_correct) searches all allowed sequences.
/// Equivalence holds at the accept/reject level.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OnlineViolation {
    /// A finished packet trace is admitted by no realized configuration
    /// (condition 1 / the initial-configuration check).
    Inconsistent,
    /// A packet trace entirely before a firing was processed only by later
    /// configurations (condition 2).
    TooEarly,
    /// A packet trace entirely after a firing was processed only by earlier
    /// configurations (condition 3).
    TooLate,
    /// No packet trace through a firing node was processed by the
    /// configuration being replaced (the first-occurrence side condition).
    TriggerUnprocessed,
    /// The run exceeded a checker window (configurations, firings, or
    /// watched leaves); the verdict is conservatively negative.
    CapacityExceeded,
}

impl OnlineViolation {
    /// A short static name for reports and flight-recorder entries.
    pub fn name(self) -> &'static str {
        match self {
            OnlineViolation::Inconsistent => "inconsistent",
            OnlineViolation::TooEarly => "too_early",
            OnlineViolation::TooLate => "too_late",
            OnlineViolation::TriggerUnprocessed => "trigger_unprocessed",
            OnlineViolation::CapacityExceeded => "capacity_exceeded",
        }
    }
}

impl fmt::Display for OnlineViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OnlineViolation::Inconsistent => {
                write!(f, "a packet trace is admitted by no realized configuration")
            }
            OnlineViolation::TooEarly => {
                write!(f, "a packet trace preceding an event firing used a later configuration")
            }
            OnlineViolation::TooLate => {
                write!(f, "a packet trace following an event firing used an earlier configuration")
            }
            OnlineViolation::TriggerUnprocessed => write!(
                f,
                "no trace through an event firing was processed by the replaced configuration"
            ),
            OnlineViolation::CapacityExceeded => {
                write!(f, "the run exceeded an online-checker capacity window")
            }
        }
    }
}

impl std::error::Error for OnlineViolation {}

/// A live trace node: the checker's bounded per-packet-in-flight state. It
/// is written into the slot of [`Inner::nodes`] its record index names when
/// its record arrives and stays there until it is buried (or the ring
/// grows); a later record with the same slot resets it.
struct Node {
    /// The record index, or [`VACANT`] once the node is buried.
    idx: usize,
    /// The [`Inner::pool`] entry holding the (virtual-field erased) packet
    /// of this record — the parent's own entry when the hop changed no
    /// header. The node is one of the entry's holders.
    packet: usize,
    /// Where it was recorded.
    loc: Loc,
    /// NFA state of the path so far, under every reachable configuration.
    nfa: MaskedState,
    /// Firing positions at strict happens-before ancestors.
    fired_anc: u64,
    /// Watch bits of pending leaves that happened-before this node.
    watch_anc: u64,
    /// Firing positions that happened-before this path's *root*.
    root_pred: u64,
    /// Whether this node starts a path (no trace parent).
    is_root: bool,
    /// Trigger obligations carried by this path (indices into `obligations`).
    trig: Vec<u32>,
    /// This node's own firing position bit (set at seal; 0 if none).
    own_fired: u64,
    /// This node's own watch bit (set if its leaf went pending; 0 if none).
    own_watch: u64,
    /// Set by [`TraceObserver::cause`]: snapshot masks at seal.
    cause_requested: bool,
    /// Set by [`TraceObserver::leaf`]: processed (and dropped) at seal.
    leafed: Option<LeafKind>,
    /// Set by [`TraceObserver::retire`] on the unsealed node.
    retired: bool,
}

/// The index of a slot no live node occupies.
const VACANT: usize = usize::MAX;

/// The ring's length at the first record (it doubles from there).
const MIN_RING: usize = 16;

impl Node {
    /// Record `idx`, a root of pool entry `packet` at `loc`, carrying no
    /// obligation; `trig` is the (empty) buffer it would carry them in.
    fn root(idx: usize, packet: usize, loc: Loc, trig: Vec<u32>) -> Node {
        Node {
            idx,
            packet,
            loc,
            nfa: MaskedState::default(),
            fired_anc: 0,
            watch_anc: 0,
            root_pred: 0,
            is_root: true,
            trig,
            own_fired: 0,
            own_watch: 0,
            cause_requested: false,
            leafed: None,
            retired: false,
        }
    }

    /// An empty slot.
    fn vacant() -> Node {
        Node::root(VACANT, 0, Loc::new(0, 0), Vec::new())
    }
}

/// The most recent record at a switch (or host), with its masks. Late-updated
/// when that record seals (own firing) or leafs (own watch).
struct LastAt {
    idx: usize,
    fired: u64,
    watch: u64,
}

/// A condition-1 obligation: leaf admitted by `d`, none realized yet.
struct Pending1 {
    d: u64,
    discharged: bool,
}

/// A first-occurrence trigger obligation (refcounted down the firing path).
struct Obligation {
    /// Domain index of the configuration being replaced.
    cfg: u32,
    /// Some descendant leaf was admitted by it.
    satisfied: bool,
    /// Live nodes still carrying the obligation.
    live: u32,
}

/// What a finished run leaves behind besides its verdict: the checker's
/// telemetry, as [`TraceObserver::contribute_metrics`] exports it under
/// `checker.*`. High-water marks cover the whole run, including the part
/// leading into a violation.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CheckerTelemetry {
    /// Most trace nodes alive at once (`checker.live_nodes_hw`).
    pub live_nodes_hw: u64,
    /// Nodes dropped because their prefix could no longer matter
    /// (`checker.retired_prefixes`).
    pub retired_prefixes: u64,
    /// Most trigger obligations opened (`checker.obligations_hw`).
    pub obligations_hw: u64,
    /// Most leaves watched for condition 2 (`checker.watched_leaves_hw`).
    pub watched_leaves_hw: u64,
    /// Event firings replayed (`checker.fired_events`).
    pub fired_events: u64,
    /// The node ring's length (`checker.node_slots_hw`): 16, doubled each
    /// time a record's slot still held a live node. Under the engine's
    /// consecutive record indices that is the smallest power of two, 16 or
    /// more, that holds the widest span of indices ever live at once; it is
    /// never below `live_nodes_hw`.
    pub node_slots_hw: u64,
    /// Packet pool entries ever allotted (`checker.packet_slots_hw`).
    pub packet_slots_hw: u64,
    /// Records that copied and erased their packet into the pool — roots,
    /// and hops that changed a header — rather than share their parent's
    /// entry (`checker.packets_copied`).
    pub packets_copied: u64,
}

/// What [`TraceObserver::finish`] publishes to the [`OnlineHandle`].
struct Outcome {
    verdict: Result<(), OnlineViolation>,
    telemetry: CheckerTelemetry,
}

struct Inner {
    /// The NES judged: configuration `i` is `g` of its `i`-th event-set.
    /// Its events, family, tables and masks are read in place.
    nes: NetworkEventStructure,
    /// Reused output buffer for the transitions' rewritten packets.
    scratch: Packet,

    // Firing state.
    fired_set: EventSet,
    /// Firing position of each member of `fired_set`, by event id.
    fire_pos: [u8; EventId::MAX_EVENTS],
    /// The configuration in force: the last of the realized sequence.
    current_cfg: u32,
    realized_mask: u64,
    /// Per firing position, the configurations realized by that firing and
    /// by every later one.
    realized_from: Vec<u64>,

    // Live-trace state. `nodes` is a ring of power-of-two length: record
    // `idx`'s node sits in slot `idx & (len - 1)` and stores `idx`, so a slot
    // holds at most one live node and knows which. A slot keeps its `trig`
    // buffer for the next node written there. `live` counts the sealed live
    // nodes; the newest node is `unsealed` until the next record seals it
    // (most nodes leaf or retire before that).
    nodes: Vec<Node>,
    live: usize,
    unsealed: Option<usize>,
    /// Erased packets with their live holders: the records of a path share
    /// one entry for as long as no hop changes a header. `free_packets`
    /// lists the entries nobody holds (each keeps its field buffer).
    pool: Vec<(Packet, u32)>,
    free_packets: Vec<usize>,
    last_at: FxMap<u64, LastAt>,
    cause_masks: FxMap<usize, (u64, u64)>,

    // Open obligations.
    pending1: Vec<Pending1>,
    pending3: Vec<u64>,
    obligations: Vec<Obligation>,

    verdict: Option<Result<(), OnlineViolation>>,
    /// These survive `fail`'s state clear: the numbers leading *into* a
    /// violation are the interesting ones.
    telemetry: CheckerTelemetry,
    /// The engine's flight recorder, when one was attached: event firings
    /// and the violation itself are logged as checker transitions.
    flight: Option<edn_obs::FlightRecorder>,
}

impl Inner {
    fn dead(&self) -> bool {
        self.verdict.is_some()
    }

    fn live_nodes(&self) -> usize {
        self.live + self.unsealed.is_some() as usize
    }

    /// The slot record `idx`'s node sits in while it is live.
    fn slot(&self, idx: usize) -> usize {
        idx & self.nodes.len().wrapping_sub(1)
    }

    /// The slot of node `idx`, if it is live.
    fn live_slot(&self, idx: usize) -> Option<usize> {
        let slot = self.slot(idx);
        (self.nodes.get(slot)?.idx == idx).then_some(slot)
    }

    fn flight_record(&self, kind: &'static str, seq: u64, node: u64) {
        if let Some(fr) = &self.flight {
            let depth = self.live_nodes() as u64;
            fr.record(edn_obs::FlightEvent { t_us: 0, seq, kind, node, depth });
        }
    }

    fn fail(&mut self, v: OnlineViolation) {
        if self.verdict.is_none() {
            self.verdict = Some(Err(v));
            self.flight_record(v.name(), self.telemetry.fired_events, 0);
        }
        self.nodes.clear();
        self.live = 0;
        self.unsealed = None;
        self.pool.clear();
        self.free_packets.clear();
        self.last_at.clear();
        self.cause_masks.clear();
        self.pending1.clear();
        self.pending3.clear();
        self.obligations.clear();
    }

    /// The SWITCH-rule firing condition: packet matches `e`, and some family
    /// set enabling `e` has fired entirely happens-before this node. The
    /// caller has matched the location.
    fn fireable(&self, e: &Event, node: &Node) -> bool {
        if self.fired_set.contains(e.id) || !e.pred.eval(&self.pool[node.packet].0) {
            return false;
        }
        let family = self.nes.structure().family();
        let next = self.fired_set.insert(e.id);
        if !family.iter().any(|&y| next.is_subset(y)) {
            return false;
        }
        family.iter().any(|&y| {
            y.contains(e.id)
                && y.remove(e.id).is_subset(self.fired_set)
                && y.remove(e.id)
                    .iter()
                    .all(|x| node.fired_anc >> self.fire_pos[x.index()] & 1 != 0)
        })
    }

    /// Fires `e` at the node in `slot`: appends `g(X ∪ {e})` to the
    /// realized sequence and opens the trigger obligation on the
    /// configuration it replaces.
    fn fire(&mut self, e: EventId, slot: usize) {
        let pos = self.telemetry.fired_events as usize;
        if pos == 64 {
            return self.fail(OnlineViolation::CapacityExceeded);
        }
        // Condition 2: any watched leaf preceding this firing must have
        // been admitted by an already-realized configuration.
        let mut w = self.nodes[slot].watch_anc;
        while w != 0 {
            let bit = w.trailing_zeros() as usize;
            w &= w - 1;
            if !self.pending1[bit].discharged {
                return self.fail(OnlineViolation::TooEarly);
            }
        }
        let fired_set = self.fired_set.insert(e);
        // Only a structure whose enabling relation leaves its own reachable
        // event-sets gets here: then no configuration `g(X)` exists to
        // process anything from this firing on.
        let Some(new_cfg) = self.nes.index_of(fired_set).map(|i| i as u32) else {
            return self.fail(OnlineViolation::Inconsistent);
        };
        self.fired_set = fired_set;
        self.fire_pos[e.index()] = pos as u8;
        self.telemetry.fired_events += 1;
        let bit = 1u64 << new_cfg;
        let pre_cfg = std::mem::replace(&mut self.current_cfg, new_cfg);
        self.realized_mask |= bit;
        self.realized_from.push(0);
        self.realized_from.iter_mut().for_each(|from| *from |= bit);
        for p in &mut self.pending1 {
            p.discharged |= p.d & bit != 0;
        }
        self.pending3.retain(|d| d & bit == 0);
        let node = &mut self.nodes[slot];
        node.trig.push(self.obligations.len() as u32);
        node.own_fired = 1 << pos;
        self.obligations.push(Obligation { cfg: pre_cfg, satisfied: false, live: 1 });
        self.telemetry.obligations_hw =
            self.telemetry.obligations_hw.max(self.obligations.len() as u64);
        self.flight_record("checker_fire", pos as u64, new_cfg as u64);
    }

    /// Releases what the dying node in `slot` holds — one reference of each
    /// obligation it carries and its hold on its packet — and vacates the
    /// slot.
    fn bury(&mut self, slot: usize) {
        let node = &mut self.nodes[slot];
        for &id in &node.trig {
            let ob = &mut self.obligations[id as usize];
            ob.live -= 1;
            if ob.live == 0 && !ob.satisfied {
                return self.fail(OnlineViolation::TriggerUnprocessed);
            }
        }
        node.trig.clear();
        node.idx = VACANT;
        let holders = &mut self.pool[node.packet].1;
        *holders -= 1;
        if *holders == 0 {
            self.free_packets.push(node.packet);
        }
    }

    /// Writes record `idx`, a root of pool entry `packet` at `loc`, into its
    /// slot and takes its hold on the entry. The ring is allotted at the
    /// first record and doubles only while the slot holds a live node: every
    /// live node moves to its slot in the longer ring, with its obligation
    /// buffer and its hold on its packet.
    fn take_slot(&mut self, idx: usize, packet: usize, loc: Loc) -> usize {
        self.pool[packet].1 += 1;
        if self.nodes.is_empty() {
            self.nodes.resize_with(MIN_RING, Node::vacant);
        }
        while self.nodes[self.slot(idx)].idx != VACANT {
            let len = 2 * self.nodes.len();
            let mut ring: Vec<Node> = (0..len).map(|_| Node::vacant()).collect();
            for node in self.nodes.drain(..).filter(|node| node.idx != VACANT) {
                let slot = node.idx & (len - 1);
                ring[slot] = node;
            }
            self.nodes = ring;
        }
        self.telemetry.node_slots_hw = self.nodes.len() as u64;
        let slot = self.slot(idx);
        let trig = std::mem::take(&mut self.nodes[slot].trig);
        self.nodes[slot] = Node::root(idx, packet, loc, trig);
        slot
    }

    /// Copies `raw`, its virtual fields erased, into a pool entry nobody
    /// holds, reusing its buffer.
    fn pool_copy(&mut self, raw: &Packet) -> usize {
        let at = self.free_packets.pop().unwrap_or_else(|| {
            self.pool.push(Default::default());
            self.telemetry.packet_slots_hw += 1;
            self.pool.len() - 1
        });
        let erased = &mut self.pool[at].0;
        erased.clone_from(raw);
        erased.unset(Field::Tag);
        erased.unset(Field::Digest);
        self.telemetry.packets_copied += 1;
        at
    }

    /// Leaf-time checks against the realized configuration sequence.
    /// `fin` marks finish-time processing (no future firings or configs).
    fn process_leaf(&mut self, slot: usize, kind: LeafKind, fin: bool) {
        let allow_prefix = kind != LeafKind::Terminated;
        let node = &self.nodes[slot];
        let last = (&self.pool[node.packet].0, node.loc);
        let nes = &self.nes;
        let d = nes.masks().admitted(nes.tables(), node.nfa, last, allow_prefix, &mut self.scratch);
        // Condition 1: some realized configuration admits the trace. Future
        // firings can still discharge it — unless the run is over.
        if d & self.realized_mask == 0 {
            if fin || d == 0 {
                return self.fail(OnlineViolation::Inconsistent);
            }
            if self.pending1.len() == 64 {
                return self.fail(OnlineViolation::CapacityExceeded);
            }
            self.nodes[slot].own_watch = 1 << self.pending1.len();
            self.pending1.push(Pending1 { d, discharged: false });
            self.telemetry.watched_leaves_hw =
                self.telemetry.watched_leaves_hw.max(self.pending1.len() as u64);
        }
        // Condition 3: the trace is entirely after firing i exactly when
        // i precedes its root; only the latest such firing binds.
        let node = &self.nodes[slot];
        if node.root_pred != 0 {
            let i_max = 63 - node.root_pred.leading_zeros() as usize;
            if d & self.realized_from[i_max] == 0 {
                if fin {
                    return self.fail(OnlineViolation::TooLate);
                }
                if !self.pending3.contains(&d) {
                    if self.pending3.len() == 64 {
                        return self.fail(OnlineViolation::CapacityExceeded);
                    }
                    self.pending3.push(d);
                }
            }
        }
        // Trigger obligations riding this path.
        for &id in &node.trig {
            let ob = &mut self.obligations[id as usize];
            ob.satisfied |= d & (1 << ob.cfg) != 0;
        }
    }

    /// Seals the newest node once its controller edges have all arrived:
    /// evaluates event firing, publishes its masks, and drops it if done.
    fn seal_pending(&mut self) {
        let Some(idx) = self.unsealed.take() else { return };
        let slot = self.slot(idx);

        // Greedy SWITCH-rule firing: at most one event per record, and
        // only the events located here are even looked at.
        let node = &self.nodes[slot];
        let fireable = self.nes.events_at(node.loc).find(|e| self.fireable(e, node)).map(|e| e.id);
        if let Some(e) = fireable {
            self.fire(e, slot);
            if self.dead() {
                return;
            }
        }
        let node = &mut self.nodes[slot];
        if node.is_root {
            node.root_pred = node.fired_anc;
        }
        if let Some(kind) = node.leafed {
            self.process_leaf(slot, kind, false);
            if self.dead() {
                return;
            }
        }
        // Publish the sealed masks to happens-before successors.
        let node = &self.nodes[slot];
        let fired = node.fired_anc | node.own_fired;
        let watch = node.watch_anc | node.own_watch;
        if let Some(entry) = self.last_at.get_mut(&node.loc.sw) {
            if entry.idx == idx {
                entry.fired = fired;
                entry.watch = watch;
            }
        }
        if node.cause_requested {
            self.cause_masks.insert(idx, (fired, watch));
        }
        if node.leafed.is_some() || node.retired {
            self.telemetry.retired_prefixes += 1;
            self.bury(slot);
        } else {
            self.live += 1;
        }
    }

    /// The newest node, if it is `idx` — the only node the protocol lets
    /// `edge`, `cause` and `leaf` refine.
    fn newest(&mut self, idx: usize) -> Option<&mut Node> {
        debug_assert!(
            self.dead() || self.unsealed == Some(idx),
            "refinements target the unsealed node"
        );
        if self.unsealed != Some(idx) {
            return None;
        }
        let slot = self.slot(idx);
        Some(&mut self.nodes[slot])
    }
}

/// A streaming implementation of the Definition 6 check; create with
/// [`OnlineChecker::observer`], hand the observer to the engine, and read
/// the verdict from the [`OnlineHandle`] after the run.
///
/// # Examples
///
/// ```
/// use edn_core::{Config, Event, EventId, EventSet, EventStructure,
///                NetworkEventStructure, OnlineChecker, TraceObserver, LeafKind};
/// use netkat::{Loc, Packet, Pred};
/// let e0 = EventId::new(0);
/// let es = EventStructure::new(
///     vec![Event::new(e0, Pred::True, Loc::new(1, 1))],
///     [EventSet::singleton(e0)],
/// );
/// let mut c = Config::new();
/// c.add_host(100, Loc::new(1, 2));
/// let nes = NetworkEventStructure::new(
///     es,
///     [(EventSet::empty(), c.clone()), (EventSet::singleton(e0), c)],
/// ).unwrap();
/// let (mut obs, handle) = OnlineChecker::observer(&nes).unwrap();
/// obs.record(0, &Packet::new(), Loc::new(100, 0), None);
/// obs.leaf(0, LeafKind::Stalled);
/// obs.finish();
/// assert!(handle.verdict().is_ok());
/// ```
pub struct OnlineChecker {
    inner: Inner,
    outcome: Arc<OnceLock<Outcome>>,
}

/// The reader side of an [`OnlineChecker`]: call
/// [`verdict`](OnlineHandle::verdict) once the run has finished.
pub struct OnlineHandle {
    outcome: Arc<OnceLock<Outcome>>,
}

impl OnlineChecker {
    /// Builds an online checker for `nes`, returning the observer to attach
    /// to the engine and the handle that yields the verdict. Only the first
    /// checker over `nes` builds the NES's masks, before its per-run state.
    ///
    /// # Errors
    ///
    /// Returns [`OnlineViolation::CapacityExceeded`] if the NES has more
    /// than 64 reachable configurations.
    pub fn observer(
        nes: &NetworkEventStructure,
    ) -> Result<(Box<dyn TraceObserver + Send>, OnlineHandle), OnlineViolation> {
        let (checker, handle) = OnlineChecker::new(nes)?;
        Ok((Box::new(checker), handle))
    }

    fn new(nes: &NetworkEventStructure) -> Result<(OnlineChecker, OnlineHandle), OnlineViolation> {
        if nes.event_sets().len() > 64 {
            return Err(OnlineViolation::CapacityExceeded);
        }
        // Built by the first checker over `nes`, read by every one.
        nes.masks();
        let inner = Inner {
            nes: nes.clone(),
            scratch: Packet::new(),
            fired_set: EventSet::empty(),
            fire_pos: [0; EventId::MAX_EVENTS],
            // The sorted event-sets start with `∅`: configuration 0.
            current_cfg: 0,
            realized_mask: 1,
            realized_from: Vec::new(),
            nodes: Vec::new(),
            live: 0,
            unsealed: None,
            pool: Vec::new(),
            free_packets: Vec::new(),
            last_at: FxMap::default(),
            cause_masks: FxMap::default(),
            pending1: Vec::new(),
            pending3: Vec::new(),
            obligations: Vec::new(),
            verdict: None,
            telemetry: CheckerTelemetry::default(),
            flight: None,
        };
        let outcome = Arc::new(OnceLock::new());
        Ok((OnlineChecker { inner, outcome: outcome.clone() }, OnlineHandle { outcome }))
    }
}

impl OnlineHandle {
    fn outcome(&self) -> &Outcome {
        self.outcome.get().expect("the checker reports on a finished run")
    }

    /// The verdict of the finished run.
    ///
    /// # Errors
    ///
    /// Returns the first [`OnlineViolation`] the checker found.
    ///
    /// # Panics
    ///
    /// Panics if the observer's `finish` has not run yet.
    pub fn verdict(&self) -> Result<(), OnlineViolation> {
        self.outcome().verdict
    }

    /// The checker's telemetry for the finished run — the same numbers the
    /// observer contributes to the engine's metrics registry, available
    /// whether or not the engine kept one.
    ///
    /// # Panics
    ///
    /// Panics if the observer's `finish` has not run yet.
    pub fn telemetry(&self) -> CheckerTelemetry {
        self.outcome().telemetry
    }
}

impl TraceObserver for OnlineChecker {
    fn record(&mut self, idx: usize, packet: &Packet, loc: Loc, parent: Option<usize>) {
        let inner = &mut self.inner;
        inner.seal_pending();
        if inner.dead() {
            return;
        }
        let slot = match parent {
            Some(p) => {
                // The record's one packet comparison: raw against the
                // parent's erased packet, the virtual fields skipped. A hop
                // that changed no header shares the parent's pool entry;
                // only a rewritten packet is copied and erased.
                let a =
                    inner.nodes[inner.live_slot(p).expect("parents outlive child records")].packet;
                let same = packet.eq_erased(&inner.pool[a].0);
                let b = if same { a } else { inner.pool_copy(packet) };
                let slot = inner.take_slot(idx, b, loc);
                // Found again: taking the child's slot may have grown the
                // ring. Parent and child sit in one ring: the child's buffer
                // steps out of it while the parent's obligations are copied in.
                let p = inner.slot(p);
                let mut trig = std::mem::take(&mut inner.nodes[slot].trig);
                let pn = &inner.nodes[p];
                trig.extend_from_slice(&pn.trig);
                for &id in &trig {
                    inner.obligations[id as usize].live += 1;
                }
                let (a, b) = ((&inner.pool[a].0, pn.loc), (&inner.pool[b].0, loc, same));
                let nes = &inner.nes;
                let nfa = nes.masks().step(nes.tables(), pn.nfa, a, b, &mut inner.scratch);
                let inherited =
                    (pn.fired_anc | pn.own_fired, pn.watch_anc | pn.own_watch, pn.root_pred);
                let node = &mut inner.nodes[slot];
                (node.fired_anc, node.watch_anc, node.root_pred) = inherited;
                node.nfa = nfa;
                node.is_root = false;
                node.trig = trig;
                slot
            }
            None => {
                let root = inner.pool_copy(packet);
                let slot = inner.take_slot(idx, root, loc);
                inner.nodes[slot].nfa = inner.nes.masks().start(loc);
                slot
            }
        };
        // The latest earlier record at this switch happened-before this one.
        let node = &mut inner.nodes[slot];
        let last = inner.last_at.entry(loc.sw).or_insert(LastAt { idx, fired: 0, watch: 0 });
        node.fired_anc |= last.fired;
        node.watch_anc |= last.watch;
        *last = LastAt { idx, fired: node.fired_anc, watch: node.watch_anc };
        inner.unsealed = Some(idx);
        inner.telemetry.live_nodes_hw =
            inner.telemetry.live_nodes_hw.max(inner.live_nodes() as u64);
    }

    fn edge(&mut self, from: usize, to: usize) {
        let Some(&(fired, watch)) = self.inner.cause_masks.get(&from) else { return };
        if let Some(node) = self.inner.newest(to) {
            node.fired_anc |= fired;
            node.watch_anc |= watch;
        }
    }

    fn cause(&mut self, idx: usize) {
        if let Some(node) = self.inner.newest(idx) {
            node.cause_requested = true;
        }
    }

    fn leaf(&mut self, idx: usize, kind: LeafKind) {
        if let Some(node) = self.inner.newest(idx) {
            node.leafed = Some(kind);
        }
    }

    fn retire(&mut self, idx: usize) {
        let inner = &mut self.inner;
        if inner.unsealed == Some(idx) {
            let slot = inner.slot(idx);
            inner.nodes[slot].retired = true;
        } else if let Some(slot) = inner.live_slot(idx) {
            inner.live -= 1;
            inner.telemetry.retired_prefixes += 1;
            inner.bury(slot);
        }
    }

    fn finish(&mut self) {
        let inner = &mut self.inner;
        inner.seal_pending();
        // Nodes alive at the end are stalled tips: their paths are prefixes,
        // judged in record order.
        let mut tips: Vec<(usize, usize)> = (inner.nodes.iter().enumerate())
            .filter(|(_, node)| node.idx != VACANT)
            .map(|(slot, node)| (node.idx, slot))
            .collect();
        tips.sort_unstable();
        inner.live = 0;
        for (_, slot) in tips {
            if inner.dead() {
                break;
            }
            inner.process_leaf(slot, LeafKind::Stalled, true);
            if !inner.dead() {
                inner.bury(slot);
            }
        }
        if !inner.dead() {
            if inner.pending1.iter().any(|p| !p.discharged) {
                inner.fail(OnlineViolation::Inconsistent);
            } else if !inner.pending3.is_empty() {
                inner.fail(OnlineViolation::TooLate);
            }
        }
        #[cfg(test)]
        inner.audit();
        // A second `finish` finds the outcome already published.
        let _ = self
            .outcome
            .set(Outcome { verdict: inner.verdict.unwrap_or(Ok(())), telemetry: inner.telemetry });
    }

    fn contribute_metrics(&self, reg: &mut edn_obs::Registry) {
        use edn_obs::Scope;
        let t = &self.inner.telemetry;
        reg.gauge_max(Scope::Sim, "checker.live_nodes_hw", t.live_nodes_hw);
        reg.counter_add(Scope::Sim, "checker.retired_prefixes", t.retired_prefixes);
        reg.gauge_max(Scope::Sim, "checker.obligations_hw", t.obligations_hw);
        reg.gauge_max(Scope::Sim, "checker.watched_leaves_hw", t.watched_leaves_hw);
        reg.counter_add(Scope::Sim, "checker.fired_events", t.fired_events);
        // `Shard` scope, like the plane's `flowindex.*` layout gauges: the
        // index's size is a property of this build, not of the run.
        let tables = self.inner.nes.tables();
        reg.gauge_max(Scope::Shard, "checker.index_chains", tables.chains() as u64);
        reg.gauge_max(Scope::Shard, "checker.index_rules", tables.indexed_rules() as u64);
        reg.gauge_max(Scope::Shard, "checker.index_layouts", tables.layouts() as u64);
        // How far the node ring and the packet pool grew, and how many
        // records could not share their parent's packet: kept with them,
        // out of the `Sim` section whose contents tests pin across builds.
        reg.gauge_max(Scope::Shard, "checker.node_slots_hw", t.node_slots_hw);
        reg.gauge_max(Scope::Shard, "checker.packet_slots_hw", t.packet_slots_hw);
        reg.counter_add(Scope::Shard, "checker.packets_copied", t.packets_copied);
    }

    fn attach_flight_recorder(&mut self, recorder: edn_obs::FlightRecorder) {
        self.inner.flight = Some(recorder);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::correctness::check_correct;
    use crate::estructure::EventStructure;
    use crate::trace::TraceBuilder;
    use netkat::{Action, ActionSet, Field, FlowTable, Loc, Match, Packet, Pred, Rule};

    impl Inner {
        /// No node is live and no packet is held: what a finished run,
        /// correct or failed, must leave behind. `finish` calls it in every
        /// test build.
        pub(super) fn audit(&self) {
            assert!(self.live == 0 && self.unsealed.is_none(), "a node outlived the run");
            assert!(self.nodes.iter().all(|node| node.idx == VACANT), "every node slot is free");
            assert_eq!(self.free_packets.len(), self.pool.len(), "every pool entry is free");
            assert!(self.pool.iter().all(|&(_, holders)| holders == 0), "a packet is still held");
        }
    }

    /// The firewall fixture shared with the post-hoc checker tests: one
    /// switch (1), hosts 100 (pt 2) and 101 (pt 3); g(∅) forwards 2->3 only,
    /// g({e0}) both ways, e0 = a packet for 101 arriving at 1:2.
    fn firewall_like_nes() -> NetworkEventStructure {
        let base = |rules: Vec<Rule>| {
            let mut c = Config::new();
            c.install(1, FlowTable::from_rules(rules));
            c.add_host(100, Loc::new(1, 2));
            c.add_host(101, Loc::new(1, 3));
            c
        };
        let fwd = |a: u64, b: u64| {
            Rule::new(
                Match::new().with(Field::Port, a),
                ActionSet::single(Action::assign(Field::Port, b)),
            )
        };
        let e0 = EventId::new(0);
        let es = EventStructure::new(
            vec![Event::new(e0, Pred::test(Field::IpDst, 101), Loc::new(1, 2))],
            [EventSet::singleton(e0)],
        );
        NetworkEventStructure::new(
            es,
            [
                (EventSet::empty(), base(vec![fwd(2, 3)])),
                (EventSet::singleton(e0), base(vec![fwd(2, 3), fwd(3, 2)])),
            ],
        )
        .unwrap()
    }

    fn fwd_pk() -> Packet {
        Packet::new().with(Field::IpDst, 101)
    }

    fn reply_pk() -> Packet {
        Packet::new().with(Field::IpDst, 100)
    }

    /// Replays one packet's linear transit through the observer exactly the
    /// way the engine does: record each hop with its parent, retire the
    /// parent once the child is recorded, leaf at the final hop.
    fn transit(
        obs: &mut (impl TraceObserver + ?Sized),
        next: &mut usize,
        pk: &Packet,
        hops: &[(u64, u64)],
        kind: LeafKind,
    ) {
        let mut parent = None;
        for &(sw, pt) in hops {
            let idx = *next;
            *next += 1;
            obs.record(idx, pk, Loc::new(sw, pt), parent);
            if let Some(p) = parent {
                obs.retire(p);
            }
            parent = Some(idx);
        }
        obs.leaf(parent.expect("transits are nonempty"), kind);
    }

    /// One packet's transit: the packet, its hops, and how the path ends.
    type Transit<'a> = (Packet, &'a [(u64, u64)], LeafKind);

    /// Runs the same transits through the post-hoc checker for the
    /// agreement assertion.
    fn post_hoc(nes: &NetworkEventStructure, transits: &[Transit]) -> bool {
        let mut b = TraceBuilder::new();
        for (pk, hops, kind) in transits {
            let mut parent = None;
            for &(sw, pt) in *hops {
                parent = Some(b.push(pk.clone(), Loc::new(sw, pt), parent));
            }
            if *kind == LeafKind::Terminated {
                b.mark_terminated(parent.expect("transits are nonempty"));
            }
        }
        check_correct(&b.build().unwrap(), nes, None).is_ok()
    }

    const DROP: &[(u64, u64)] = &[(101, 0), (1, 3)];
    const FWD: &[(u64, u64)] = &[(100, 0), (1, 2), (1, 3), (101, 0)];
    const REPLY: &[(u64, u64)] = &[(101, 0), (1, 3), (1, 2), (100, 0)];

    #[test]
    fn quiet_drop_is_consistent() {
        let nes = firewall_like_nes();
        let (mut obs, handle) = OnlineChecker::observer(&nes).unwrap();
        let mut next = 0;
        // A complete g(∅) trace: the reply-direction packet dies at 1:3.
        transit(&mut *obs, &mut next, &reply_pk(), DROP, LeafKind::Terminated);
        obs.finish();
        assert_eq!(handle.verdict(), Ok(()));
        assert!(post_hoc(&nes, &[(reply_pk(), DROP, LeafKind::Terminated)]));
    }

    #[test]
    fn delivered_reply_without_event_is_inconsistent() {
        let nes = firewall_like_nes();
        let (mut obs, handle) = OnlineChecker::observer(&nes).unwrap();
        let mut next = 0;
        transit(&mut *obs, &mut next, &reply_pk(), REPLY, LeafKind::Delivered);
        obs.finish();
        assert_eq!(handle.verdict(), Err(OnlineViolation::Inconsistent));
        assert!(!post_hoc(&nes, &[(reply_pk(), REPLY, LeafKind::Delivered)]));
    }

    #[test]
    fn triggered_update_is_correct() {
        let nes = firewall_like_nes();
        let (mut obs, handle) = OnlineChecker::observer(&nes).unwrap();
        let mut next = 0;
        transit(&mut *obs, &mut next, &fwd_pk(), FWD, LeafKind::Delivered);
        transit(&mut *obs, &mut next, &reply_pk(), REPLY, LeafKind::Delivered);
        obs.finish();
        assert_eq!(handle.verdict(), Ok(()));
        assert!(post_hoc(
            &nes,
            &[(fwd_pk(), FWD, LeafKind::Delivered), (reply_pk(), REPLY, LeafKind::Delivered)]
        ));
    }

    #[test]
    fn premature_reply_is_too_early() {
        let nes = firewall_like_nes();
        let (mut obs, handle) = OnlineChecker::observer(&nes).unwrap();
        let mut next = 0;
        // Reply delivered BEFORE the trigger: flagged at the trigger's
        // firing, while the run is still in flight.
        transit(&mut *obs, &mut next, &reply_pk(), REPLY, LeafKind::Delivered);
        transit(&mut *obs, &mut next, &fwd_pk(), FWD, LeafKind::Delivered);
        obs.finish();
        assert_eq!(handle.verdict(), Err(OnlineViolation::TooEarly));
        assert!(!post_hoc(
            &nes,
            &[(reply_pk(), REPLY, LeafKind::Delivered), (fwd_pk(), FWD, LeafKind::Delivered)]
        ));
    }

    #[test]
    fn stalled_prefix_is_consistent() {
        let nes = firewall_like_nes();
        let (mut obs, handle) = OnlineChecker::observer(&nes).unwrap();
        // The trigger packet makes it to the ingress and no further: the
        // event still fires, and the stalled prefix is admitted.
        obs.record(0, &fwd_pk(), Loc::new(100, 0), None);
        obs.record(1, &fwd_pk(), Loc::new(1, 2), Some(0));
        obs.retire(0);
        obs.finish();
        assert_eq!(handle.verdict(), Ok(()));
    }

    #[test]
    fn record_at_a_node_no_configuration_names_is_inconsistent() {
        let nes = firewall_like_nes();
        // Nodes 7 and 8 are no configuration's switch, host or link end:
        // every configuration rejects there — as a path's start and as a
        // hop's destination — and nothing panics on the way.
        let strays: [&[(u64, u64)]; 2] = [&[(7, 1), (7, 2)], &[(100, 0), (1, 2), (8, 1)]];
        for hops in strays {
            let (mut obs, handle) = OnlineChecker::observer(&nes).unwrap();
            transit(&mut *obs, &mut 0, &fwd_pk(), hops, LeafKind::Stalled);
            obs.finish();
            assert_eq!(handle.verdict(), Err(OnlineViolation::Inconsistent), "{hops:?}");
            assert!(!post_hoc(&nes, &[(fwd_pk(), hops, LeafKind::Stalled)]));
        }
    }

    #[test]
    #[should_panic(expected = "finished run")]
    fn verdict_before_finish_panics() {
        let nes = firewall_like_nes();
        let (_obs, handle) = OnlineChecker::observer(&nes).unwrap();
        let _ = handle.verdict();
    }

    /// A two-update chain on the firewall's switch with a third host 102 on
    /// port 4: e0 (a packet for 101 at 1:2) opens the reply direction, then
    /// e1 (a packet for 102 at 1:2) diverts 102's traffic to port 4. Three
    /// configurations over three shared rules.
    fn chain_nes() -> NetworkEventStructure {
        let fwd = |a: u64, b: u64| {
            Rule::new(
                Match::new().with(Field::Port, a),
                ActionSet::single(Action::assign(Field::Port, b)),
            )
        };
        let divert = Rule::new(
            Match::new().with(Field::Port, 2).with(Field::IpDst, 102),
            ActionSet::single(Action::assign(Field::Port, 4)),
        );
        let base = |rules: Vec<Rule>| {
            let mut c = Config::new();
            c.install(1, FlowTable::from_rules(rules));
            c.add_host(100, Loc::new(1, 2));
            c.add_host(101, Loc::new(1, 3));
            c.add_host(102, Loc::new(1, 4));
            c
        };
        let (e0, e1) = (EventId::new(0), EventId::new(1));
        let es = EventStructure::new(
            vec![
                Event::new(e0, Pred::test(Field::IpDst, 101), Loc::new(1, 2)),
                Event::new(e1, Pred::test(Field::IpDst, 102), Loc::new(1, 2)),
            ],
            [EventSet::singleton(e0), EventSet::from_iter([e0, e1])],
        );
        NetworkEventStructure::new(
            es,
            [
                (EventSet::empty(), base(vec![fwd(2, 3)])),
                (EventSet::singleton(e0), base(vec![fwd(2, 3), fwd(3, 2)])),
                (EventSet::from_iter([e0, e1]), base(vec![divert, fwd(2, 3), fwd(3, 2)])),
            ],
        )
        .unwrap()
    }

    fn diverted_pk() -> Packet {
        Packet::new().with(Field::IpDst, 102)
    }

    const DIVERTED: &[(u64, u64)] = &[(100, 0), (1, 2), (1, 4), (102, 0)];

    #[test]
    fn chained_updates_are_correct() {
        let nes = chain_nes();
        let (mut obs, handle) = OnlineChecker::observer(&nes).unwrap();
        let mut next = 0;
        // e0's trigger, a reply through the opened direction, then e1's
        // trigger under the configuration it replaces (out port 3), then a
        // diverted packet: every firing enabled by the one before it.
        transit(&mut *obs, &mut next, &fwd_pk(), FWD, LeafKind::Delivered);
        transit(&mut *obs, &mut next, &reply_pk(), REPLY, LeafKind::Delivered);
        transit(&mut *obs, &mut next, &diverted_pk(), FWD, LeafKind::Delivered);
        transit(&mut *obs, &mut next, &diverted_pk(), DIVERTED, LeafKind::Delivered);
        obs.finish();
        assert_eq!(handle.verdict(), Ok(()));
        assert!(post_hoc(
            &nes,
            &[
                (fwd_pk(), FWD, LeafKind::Delivered),
                (reply_pk(), REPLY, LeafKind::Delivered),
                (diverted_pk(), FWD, LeafKind::Delivered),
                (diverted_pk(), DIVERTED, LeafKind::Delivered)
            ]
        ));
        // The handle carries what the registry gets.
        let telemetry = handle.telemetry();
        assert_eq!(telemetry.fired_events, 2);
        assert_eq!(telemetry.obligations_hw, 2);
        assert_eq!(telemetry.retired_prefixes, next as u64);
        assert_eq!(telemetry.watched_leaves_hw, 0);
        let mut reg = edn_obs::Registry::new();
        obs.contribute_metrics(&mut reg);
        assert_eq!(reg.counter("checker.fired_events"), Some(2));
        assert_eq!(reg.gauge("checker.live_nodes_hw"), Some(telemetry.live_nodes_hw));
    }

    #[test]
    fn stale_drop_after_the_update_is_too_late() {
        let nes = chain_nes();
        let (mut obs, handle) = OnlineChecker::observer(&nes).unwrap();
        let mut next = 0;
        // Host 101 has *received* the trigger, so its reply starts after
        // e0's firing — and is still dropped the way only g(∅) drops it.
        transit(&mut *obs, &mut next, &fwd_pk(), FWD, LeafKind::Delivered);
        transit(&mut *obs, &mut next, &reply_pk(), DROP, LeafKind::Terminated);
        obs.finish();
        assert_eq!(handle.verdict(), Err(OnlineViolation::TooLate));
        assert!(!post_hoc(
            &nes,
            &[(fwd_pk(), FWD, LeafKind::Delivered), (reply_pk(), DROP, LeafKind::Terminated)]
        ));
    }

    #[test]
    fn trigger_forwarded_by_the_new_configuration_is_unprocessed() {
        let nes = chain_nes();
        let (mut obs, handle) = OnlineChecker::observer(&nes).unwrap();
        let mut next = 0;
        transit(&mut *obs, &mut next, &fwd_pk(), FWD, LeafKind::Delivered);
        // e1's trigger fires at 1:2 and leaves by port 4: only the *new*
        // configuration does that, so the one being replaced never
        // processed the packet that replaced it.
        transit(&mut *obs, &mut next, &diverted_pk(), DIVERTED, LeafKind::Delivered);
        obs.finish();
        assert_eq!(handle.verdict(), Err(OnlineViolation::TriggerUnprocessed));
        assert!(!post_hoc(
            &nes,
            &[(fwd_pk(), FWD, LeafKind::Delivered), (diverted_pk(), DIVERTED, LeafKind::Delivered)]
        ));
    }

    #[test]
    fn sixty_fifth_configuration_is_refused() {
        // A 64-event chain reaches 65 event-sets; every configuration is
        // the same table.
        let events: Vec<Event> = (0..64)
            .map(|i| {
                Event::new(EventId::new(i), Pred::test(Field::IpDst, i as u64), Loc::new(1, 2))
            })
            .collect();
        let prefixes: Vec<EventSet> =
            (0..=64).map(|n| (0..n).map(EventId::new).collect()).collect();
        let shared = chain_nes().initial_config().clone();
        let nes = NetworkEventStructure::new(
            EventStructure::new(events, prefixes.iter().copied()),
            prefixes.iter().map(|&x| (x, shared.clone())),
        )
        .unwrap();
        assert_eq!(nes.event_sets().len(), 65);
        assert_eq!(OnlineChecker::observer(&nes).err(), Some(OnlineViolation::CapacityExceeded));
    }

    /// A chain of `n` events at the firewall's switch: event `i` is a
    /// packet for destination `i` arriving at 1:2, and after `k` events the
    /// table forwards destinations `0..=k` from port 2 to port 3. Each
    /// table extends the one before, so the `n + 1` configurations are one
    /// prefix chain.
    fn event_chain_nes(n: usize) -> NetworkEventStructure {
        let route = |dst: u64| {
            Rule::new(
                Match::new().with(Field::Port, 2).with(Field::IpDst, dst),
                ActionSet::single(Action::assign(Field::Port, 3)),
            )
        };
        let routes = FlowTable::from_rules((0..=n as u64).map(route));
        let config = |k: usize| {
            let mut c = Config::new();
            c.install(1, routes.prefix(k + 1));
            c.add_host(100, Loc::new(1, 2));
            c.add_host(101, Loc::new(1, 3));
            c
        };
        let events: Vec<Event> = (0..n)
            .map(|i| {
                Event::new(EventId::new(i), Pred::test(Field::IpDst, i as u64), Loc::new(1, 2))
            })
            .collect();
        let prefixes: Vec<EventSet> = (0..=n).map(|k| (0..k).map(EventId::new).collect()).collect();
        NetworkEventStructure::new(
            EventStructure::new(events, prefixes.iter().copied()),
            prefixes.iter().enumerate().map(|(k, &x)| (x, config(k))),
        )
        .unwrap()
    }

    /// Each event's trigger crosses the switch under the configuration
    /// before it, in event order: correct at any chain length, in both
    /// checkers. At 63 events the 64 configurations are one chain of 64
    /// members, the widest mask the index holds.
    #[test]
    fn a_chain_of_more_than_sixteen_events_is_correct_in_both_checkers() {
        for n in [17, 63] {
            let nes = event_chain_nes(n);
            let mut recs: Vec<Rec> = Vec::new();
            for i in 0..n {
                let pk = Packet::new().with(Field::IpDst, i as u64);
                let at = recs.len();
                recs.push((pk.clone(), (100, 0), None, None));
                recs.push((pk.clone(), (1, 2), Some(at), None));
                recs.push((pk.clone(), (1, 3), Some(at + 1), None));
                recs.push((pk, (101, 0), Some(at + 2), Some(LeafKind::Delivered)));
            }
            let (verdict, telemetry) = agree(&nes, &recs);
            assert_eq!(verdict, Ok(()), "{n} events");
            assert_eq!(telemetry.fired_events, n as u64);
        }
    }

    #[test]
    fn sixty_fifth_watched_leaf_exceeds_capacity() {
        let nes = chain_nes();
        let (mut obs, handle) = OnlineChecker::observer(&nes).unwrap();
        let mut next = 0;
        // Each premature reply is admitted only by configurations not yet
        // realized, so each goes on watch for a firing that never comes.
        for _ in 0..65 {
            transit(&mut *obs, &mut next, &reply_pk(), REPLY, LeafKind::Delivered);
        }
        obs.finish();
        assert_eq!(handle.verdict(), Err(OnlineViolation::CapacityExceeded));
        assert_eq!(handle.telemetry().watched_leaves_hw, 64);
        // The post-hoc checker has no window: it sees 65 inconsistent traces.
        let replies: Vec<Transit> =
            (0..65).map(|_| (reply_pk(), REPLY, LeafKind::Delivered)).collect();
        assert!(!post_hoc(&nes, &replies));
    }

    #[test]
    fn firing_outside_the_reachable_event_sets_is_a_verdict_not_a_panic() {
        let nes = chain_nes();
        let (mut checker, handle) = OnlineChecker::new(&nes).unwrap();
        let mut next = 0;
        transit(&mut checker, &mut next, &fwd_pk(), FWD, LeafKind::Delivered);
        assert_eq!(checker.inner.fired_set, EventSet::singleton(EventId::new(0)));
        // No well-formed structure does this; swap in, after e0 fired, an NES
        // whose family still enables e1 after e0 but whose only reachable
        // event-set is `∅`: e1 fires, and no configuration is `g({e0, e1})`.
        let both = EventSet::from_iter([EventId::new(0), EventId::new(1)]);
        let events = EventStructure::new(nes.events().to_vec(), [both]);
        let g = [(EventSet::empty(), nes.initial_config().clone())];
        checker.inner.nes = NetworkEventStructure::new(events, g).unwrap();
        transit(&mut checker, &mut next, &diverted_pk(), FWD, LeafKind::Delivered);
        checker.finish();
        assert_eq!(handle.verdict(), Err(OnlineViolation::Inconsistent));
    }

    /// One record of a hand-built run whose packet may change along the
    /// path or fan out: the raw packet, where, its trace parent, and how the
    /// path ends if it ends here.
    type Rec = (Packet, (u64, u64), Option<usize>, Option<LeafKind>);

    /// Replays `recs` the way the engine would — a parent retires once its
    /// last child is recorded — and runs the same forest through the
    /// post-hoc checker; the two must agree. Returns the online verdict and
    /// what the run left in the telemetry.
    fn agree(
        nes: &NetworkEventStructure,
        recs: &[Rec],
    ) -> (Result<(), OnlineViolation>, CheckerTelemetry) {
        agree_with(nes, recs, |i| i, |_, _| {})
    }

    /// [`agree`] with the record at position `i` numbered `at(i)` (strictly
    /// increasing, gaps allowed; parents are named by position in `recs`),
    /// and `then(observer, i)` called once that record's own calls are made —
    /// for the calls a forest does not imply.
    fn agree_with(
        nes: &NetworkEventStructure,
        recs: &[Rec],
        at: impl Fn(usize) -> usize,
        mut then: impl FnMut(&mut dyn TraceObserver, usize),
    ) -> (Result<(), OnlineViolation>, CheckerTelemetry) {
        let (mut obs, handle) = OnlineChecker::observer(nes).unwrap();
        let mut b = TraceBuilder::new();
        let mut last_child = vec![None; recs.len()];
        for (i, rec) in recs.iter().enumerate() {
            if let Some(p) = rec.2 {
                last_child[p] = Some(i);
            }
        }
        for (i, (pk, (sw, pt), parent, leaf)) in recs.iter().enumerate() {
            obs.record(at(i), pk, Loc::new(*sw, *pt), parent.map(&at));
            assert_eq!(b.push(pk.clone(), Loc::new(*sw, *pt), *parent), i);
            if let Some(kind) = *leaf {
                obs.leaf(at(i), kind);
                if kind == LeafKind::Terminated {
                    b.mark_terminated(i);
                }
            }
            if let Some(p) = *parent {
                if last_child[p] == Some(i) {
                    obs.retire(at(p));
                }
            }
            then(obs.as_mut(), i);
        }
        obs.finish();
        let post_hoc = check_correct(&b.build().unwrap(), nes, None).is_ok();
        assert_eq!(handle.verdict().is_ok(), post_hoc, "online and post-hoc disagree on {recs:?}");
        (handle.verdict(), handle.telemetry())
    }

    /// One static configuration whose switch 1 (hosts 100 on port 1, 101 on
    /// port 2, switch 2 behind port 3) treats a packet from port 1 by its
    /// destination: 1 is multicast — plain to port 2, rewritten to 2 on port
    /// 3; 7 leaves by port 2 through an action that also writes `Switch`; 8
    /// likewise, with a `Vlan` write on top. Switch 2 forwards destination 1
    /// to host 102 and drops everything else.
    fn rewriting_nes() -> NetworkEventStructure {
        let out = |pt: u64| Action::assign(Field::Port, pt);
        let from_1 = |dst: u64| Match::new().with(Field::Port, 1).with(Field::IpDst, dst);
        let mut c = Config::new();
        c.install(
            1,
            FlowTable::from_rules([
                Rule::new(from_1(1), ActionSet::from_iter([out(2), out(3).set(Field::IpDst, 2)])),
                Rule::new(from_1(7), ActionSet::single(out(2).set(Field::Switch, 9))),
                Rule::new(
                    from_1(8),
                    ActionSet::single(out(2).set(Field::Switch, 9).set(Field::Vlan, 3)),
                ),
            ]),
        );
        c.install(2, FlowTable::from_rules([Rule::new(from_1(1), ActionSet::single(out(2)))]));
        c.add_host(100, Loc::new(1, 1));
        c.add_host(101, Loc::new(1, 2));
        c.add_host(102, Loc::new(2, 2));
        c.add_link(Loc::new(1, 3), Loc::new(2, 1));
        c.add_link(Loc::new(2, 1), Loc::new(1, 3));
        NetworkEventStructure::new(EventStructure::new(vec![], []), [(EventSet::empty(), c)])
            .unwrap()
    }

    fn to(dst: u64) -> Packet {
        Packet::new().with(Field::IpDst, dst)
    }

    #[test]
    fn multicast_shares_the_plain_output_and_copies_the_rewritten_one() {
        let nes = rewriting_nes();
        let delivered = Some(LeafKind::Delivered);
        let run = |rewritten: Packet, end: Option<LeafKind>| {
            agree(
                &nes,
                &[
                    (to(1), (100, 0), None, None),
                    (to(1), (1, 1), Some(0), None),
                    (to(1), (1, 2), Some(1), None),
                    (to(1), (101, 0), Some(2), delivered),
                    (rewritten.clone(), (1, 3), Some(1), None),
                    (rewritten, (2, 1), Some(4), end),
                ],
            )
        };
        // The root and the rewritten output are copied; the other four
        // records hold the entry of the record before them. Switch 2 drops
        // the packet it was sent, destination 2: a path that later ends
        // `Terminated` is judged on the rewritten headers (the original
        // destination is forwarded there).
        let (verdict, telemetry) = run(to(2), Some(LeafKind::Terminated));
        assert_eq!(verdict, Ok(()));
        assert_eq!((telemetry.packets_copied, telemetry.packet_slots_hw), (2, 2));
        // Six records fit the ring as it is first allotted.
        assert!(telemetry.live_nodes_hw <= telemetry.node_slots_hw);
        assert_eq!(telemetry.node_slots_hw, 16);
        // Port 3 emits only the rewrite: an unchanged packet there shares
        // its parent's entry and is rejected all the same.
        let (verdict, telemetry) = run(to(1), None);
        assert_eq!(verdict, Err(OnlineViolation::Inconsistent));
        assert_eq!(telemetry.packets_copied, 1);
    }

    #[test]
    fn a_record_that_differs_only_in_virtual_fields_shares_its_parents_packet() {
        let nes = rewriting_nes();
        let stamped =
            |tag: u64, digest: u64| to(1).with(Field::Tag, tag).with(Field::Digest, digest);
        let (verdict, telemetry) = agree(
            &nes,
            &[
                (to(1), (100, 0), None, None),
                (stamped(5, 0), (1, 1), Some(0), None),
                (stamped(5, 1), (1, 2), Some(1), None),
                (to(1).with(Field::Digest, 3), (101, 0), Some(2), Some(LeafKind::Delivered)),
            ],
        );
        assert_eq!(verdict, Ok(()));
        assert_eq!((telemetry.packets_copied, telemetry.packet_slots_hw), (1, 1));
    }

    #[test]
    fn location_fields_and_header_writes_take_the_general_comparison() {
        let nes = rewriting_nes();
        let through = |sent: Packet, emitted: Packet| {
            agree(
                &nes,
                &[
                    (sent.clone(), (100, 0), None, None),
                    (sent, (1, 1), Some(0), None),
                    (emitted.clone(), (1, 2), Some(1), None),
                    (emitted, (101, 0), Some(2), Some(LeafKind::Delivered)),
                ],
            )
            .0
        };
        // Writes to `Switch` and `Port` alone emit the packet itself.
        assert_eq!(through(to(7), to(7)), Ok(()));
        // A packet carrying location fields of its own loses them in the
        // table: the output is *not* the input, whatever the action writes.
        let located = || to(7).with(Field::Switch, 5).with(Field::Port, 5);
        assert_eq!(through(located(), to(7)), Ok(()));
        assert_eq!(through(located(), located()), Err(OnlineViolation::Inconsistent));
        assert_eq!(through(to(7).with(Field::Port, 5), to(7)), Ok(()));
        // An action that writes `Switch` and a header changes the packet.
        assert_eq!(through(to(8), to(8).with(Field::Vlan, 3)), Ok(()));
        assert_eq!(through(to(8), to(8)), Err(OnlineViolation::Inconsistent));
        // ... unless the header already had the value written.
        let tagged = || to(8).with(Field::Vlan, 3);
        assert_eq!(through(tagged(), tagged()), Ok(()));
    }

    #[test]
    fn a_failed_run_leaves_no_live_node_and_no_held_packet() {
        // `finish` audits every run of this module; this one fails mid-path,
        // with the multicast parent and a rewritten packet still live.
        let nes = rewriting_nes();
        let (mut checker, handle) = OnlineChecker::new(&nes).unwrap();
        checker.record(0, &to(1), Loc::new(100, 0), None);
        checker.record(1, &to(1), Loc::new(1, 1), Some(0));
        checker.record(2, &to(2), Loc::new(1, 3), Some(1));
        checker.record(3, &to(3), Loc::new(2, 1), Some(2));
        checker.leaf(3, LeafKind::Delivered);
        checker.record(4, &to(1), Loc::new(1, 2), Some(1));
        assert!(checker.inner.dead(), "the path through 1:3 changed its packet on a link");
        checker.inner.audit();
        checker.finish();
        assert_eq!(handle.verdict(), Err(OnlineViolation::Inconsistent));
        assert_eq!(handle.telemetry().packets_copied, 3);
    }

    /// `rewriting_nes`' delivered transit from host 100 to host 101, its
    /// root at position `root`.
    fn delivered_from(root: usize) -> [Rec; 4] {
        [
            (to(1), (100, 0), None, None),
            (to(1), (1, 1), Some(root), None),
            (to(1), (1, 2), Some(root + 1), None),
            (to(1), (101, 0), Some(root + 2), Some(LeafKind::Delivered)),
        ]
    }

    #[test]
    fn a_node_held_across_five_thousand_transits_keeps_its_place() {
        // The multicast parent at 1 waits for its second output while 5,000
        // transits pass, and a stalled tip at 5 waits for `finish`.
        let nes = rewriting_nes();
        let mut recs: Vec<Rec> = delivered_from(0).to_vec();
        recs.extend([(to(1), (100, 0), None, None), (to(1), (1, 1), Some(4), None)]);
        for _ in 0..5_000 {
            recs.extend(delivered_from(recs.len()));
        }
        let n = recs.len();
        let rewritten =
            |pk: Packet, end| [(pk.clone(), (1, 3), Some(1), None), (pk, (2, 1), Some(n), end)];
        recs.extend(rewritten(to(2), Some(LeafKind::Terminated)));
        let (verdict, telemetry) = agree(&nes, &recs);
        assert_eq!(verdict, Ok(()));
        let records = recs.len() as u64;
        assert_eq!(
            (telemetry.retired_prefixes, telemetry.live_nodes_hw, telemetry.packets_copied),
            (records - 1, 4, 5_003)
        );
        // Node 1 is live until record 20,006: the ring doubled to the first
        // power of two above the span, four live nodes in 32,768 slots.
        assert_eq!(telemetry.node_slots_hw, 32_768);
        // The second output unchanged: a rejected prefix.
        recs.truncate(n);
        recs.extend(rewritten(to(1), None));
        let (verdict, telemetry) = agree(&nes, &recs);
        assert_eq!(verdict, Err(OnlineViolation::Inconsistent));
        assert_eq!(telemetry.packets_copied, 5_002);
    }

    #[test]
    fn live_nodes_with_congruent_indices_and_gaps_between_records() {
        // 16 and 80 are congruent mod 16, 32 and 64, and both live when 80
        // is recorded; 144 is congruent with both once they are buried.
        let nes = rewriting_nes();
        let at = |i: usize| [0, 16, 17, 18, 80, 81, 144, 145][i];
        let run = |rewritten: Packet, end: Option<LeafKind>| {
            let mut recs: Vec<Rec> = delivered_from(0).to_vec();
            recs.extend([
                (rewritten.clone(), (1, 3), Some(1), None),
                (rewritten, (2, 1), Some(4), end),
                (to(1), (100, 0), None, None),
                (to(1), (1, 1), Some(6), None),
            ]);
            agree_with(&nes, &recs, at, |_, _| {})
        };
        let (verdict, telemetry) = run(to(2), Some(LeafKind::Terminated));
        assert_eq!(verdict, Ok(()));
        assert_eq!(
            (telemetry.retired_prefixes, telemetry.live_nodes_hw, telemetry.packets_copied),
            (7, 3, 3)
        );
        // Record 80 doubled the ring three times in one go, to 128.
        assert_eq!(telemetry.node_slots_hw, 128);
        let (verdict, telemetry) = run(to(1), None);
        assert_eq!(verdict, Err(OnlineViolation::Inconsistent));
        assert_eq!(telemetry.packets_copied, 2);
    }

    #[test]
    fn retiring_an_unknown_a_leafed_or_the_newest_index() {
        // Every record numbered 2i, so odd indices are never recorded. The
        // multicast parent at 2 stays live until 12.
        let nes = rewriting_nes();
        let recs: Vec<Rec> = vec![
            (to(1), (100, 0), None, None),
            (to(1), (1, 1), Some(0), None),
            (to(5), (100, 0), None, None),
            (to(5), (1, 1), Some(2), Some(LeafKind::Terminated)),
            (to(1), (1, 2), Some(1), None),
            (to(1), (101, 0), Some(4), Some(LeafKind::Delivered)),
            (to(2), (1, 3), Some(1), None),
            (to(2), (2, 1), Some(6), Some(LeafKind::Terminated)),
            (to(1), (100, 0), None, None),
            (to(1), (100, 0), None, None),
        ];
        let (verdict, telemetry) = agree_with(
            &nes,
            &recs,
            |i| 2 * i,
            |obs, i| match i {
                // The engine's terminated ingress: leafed, then retired
                // while it is the newest record.
                3 => obs.retire(6),
                // 6 again, now buried; the newest, leafed; 66, never
                // recorded and congruent with the live 2 mod 64; a gap.
                5 => [6, 10, 66, 5].into_iter().for_each(|idx| obs.retire(idx)),
                // The newest, not leafed: dropped without a judgment.
                8 => obs.retire(16),
                _ => {}
            },
        );
        assert_eq!(verdict, Ok(()));
        assert_eq!(
            (telemetry.retired_prefixes, telemetry.live_nodes_hw, telemetry.packets_copied),
            (9, 3, 5)
        );
        assert_eq!(telemetry.node_slots_hw, 16);
    }

    #[test]
    fn finish_judges_several_live_tips_in_record_order() {
        // Seven delivered transits, then four paths left in flight at 29,
        // 32, 35 and 36: their indices straddle a multiple of 16.
        let nes = rewriting_nes();
        let run = |rewritten: Packet| {
            let mut recs: Vec<Rec> = Vec::new();
            for _ in 0..7 {
                recs.extend(delivered_from(recs.len()));
            }
            recs.extend([(to(1), (100, 0), None, None), (to(1), (1, 1), Some(28), None)]);
            recs.extend(delivered_from(30)[..3].iter().cloned());
            recs.extend([
                (to(1), (100, 0), None, None),
                (to(1), (1, 1), Some(33), None),
                (rewritten, (1, 3), Some(34), None),
                (to(7), (100, 0), None, None),
            ]);
            agree(&nes, &recs)
        };
        let (verdict, telemetry) = run(to(2));
        assert_eq!(verdict, Ok(()));
        assert_eq!(
            (telemetry.retired_prefixes, telemetry.live_nodes_hw, telemetry.packets_copied),
            (33, 4, 12)
        );
        // Slots 13, 0, 3 and 4 of a ring that never grew.
        assert_eq!(telemetry.node_slots_hw, 16);
        let (verdict, telemetry) = run(to(1));
        assert_eq!(verdict, Err(OnlineViolation::Inconsistent));
        assert_eq!(telemetry.packets_copied, 11);
    }
}
