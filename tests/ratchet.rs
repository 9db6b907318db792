//! The design ratchet: every guard on what the interface diet paid down, as
//! one table of rows that `cargo test` runs (ROADMAP aim 2 and item 15).
//!
//! A row is a scope (files under some roots), a line matcher, an allowed
//! count, the reason, the PR that added it, and a *witness*: the line the
//! row forbids, usually the deleted code itself. The guards were shell
//! steps in CI (`grep`/`awk`); each row reads the same files and the same
//! lines they read:
//!
//! * a directory root reads every file under it (`grep -r`, so
//!   `Cargo.toml` too), unless the row is `.rs` only (`find -name '*.rs'`);
//! * a root that is missing or empty fails its row — a renamed file cannot
//!   turn a guard into a silent pass;
//! * [`Lines::BeforeTests`] stops at the file's first `#[cfg(test)]` (the
//!   old `awk … { exit }`), [`Lines::NonTest`] drops every top-level
//!   `#[cfg(test)]` item ([`nontest_lines`]), and `skip_comments` drops
//!   `//` lines, each exactly where the shell had them.
//!
//! The workspace has no regex crate, so each `-E` alternation is a list of
//! literal [`Needle`]s, and `\b`, `^`, ` *` and `[^)]` are needle kinds.
//!
//! `guards_hold` reports every failing row with `file:line`, and prints the
//! numbers item 15 tracks. Every row proves itself: its witness, injected
//! into an in-memory copy of its scope, must fail it, and so must each of
//! its roots gone missing. Run `cargo test -p edn-bench --test ratchet --
//! --nocapture` to see the numbers.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fs;
use std::path::Path;
use std::rc::Rc;

/// The repo as read: relative path → contents. Contents are shared, so a
/// self-test's copy costs one pointer per file.
type Tree = BTreeMap<String, Rc<str>>;

/// What the walk reads, from the repo root.
const WALKED: &[&str] = &[
    "crates",
    "tests",
    "examples",
    "vendor",
    "benchmark/src",
    "Cargo.toml",
    "ARCHITECTURE.md",
    "README.md",
    ".github/workflows/ci.yml",
];

/// Files no row reads: this file's rows hold every forbidden text. (They
/// still count as first-party lines.)
const EXEMPT: &[&str] = &["tests/ratchet.rs"];

/// Which lines of a file a row reads.
#[derive(Clone, Copy, Debug)]
enum Lines {
    /// Every line.
    All,
    /// The lines before the file's first `#[cfg(test)]`.
    BeforeTests,
    /// The lines outside every top-level `#[cfg(test)]` item.
    NonTest,
    /// The lines of the item that opens with a line starting with this
    /// text, through the next line starting with `}` (`awk '/^X/,/^}/'`).
    Item(&'static str),
}

/// One literal alternative of an old `grep -E` pattern.
#[derive(Clone, Copy, Debug)]
enum Needle {
    /// The text anywhere in the line.
    Lit(&'static str),
    /// The text, then the end of a word (`\b`).
    Word(&'static str),
    /// The text at the start of the line (`^`).
    Start(&'static str),
    /// The first text, any run of spaces, then the second (` *`).
    Spaced(&'static str, &'static str),
    /// The text, then one character that is not `)` (`[^)]`).
    Arg(&'static str),
}

use Needle::{Arg, Lit, Spaced, Start, Word};

/// Is `c` part of a word, as `\b` reads it?
fn is_word(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

impl Needle {
    fn matches(self, line: &str) -> bool {
        // Whether the text after some occurrence of `s` satisfies `after`.
        let any = |s: &str, after: &dyn Fn(&str) -> bool| {
            line.match_indices(s).any(|(i, _)| after(&line[i + s.len()..]))
        };
        match self {
            Lit(s) => line.contains(s),
            Word(s) => any(s, &|rest| !rest.starts_with(is_word)),
            Start(s) => line.starts_with(s),
            Spaced(a, b) => any(a, &|rest| rest.trim_start_matches(' ').starts_with(b)),
            Arg(s) => any(s, &|rest| rest.chars().next().is_some_and(|c| c != ')')),
        }
    }
}

/// How many matching lines a row allows.
#[derive(Clone, Copy, Debug)]
enum Allowed {
    AtMost(usize),
    Exactly(usize),
}

/// What a row computes over its scope.
#[derive(Clone, Copy, Debug)]
enum Check {
    /// Count the lines of `lines` that match any needle and contain none
    /// of `unless` (the old `| grep -v`).
    Count {
        lines: Lines,
        skip_comments: bool,
        any: &'static [Needle],
        unless: &'static [&'static str],
        allowed: Allowed,
    },
    /// The distinct `EDN_*` variables the code reads (`env::var("EDN_X")`
    /// calls), at most this many.
    Knobs(usize),
    /// The `pub` field names of the item opening with this line, in order,
    /// must be exactly these.
    Fields(&'static str, &'static [&'static str]),
    /// The guide documents exactly the `EDN_*` knobs the code reads.
    KnobDocs(&'static str),
    /// Every `crates/`, `tests/`, `examples/` or `vendor/` path the guide
    /// names exists.
    GuidePaths(&'static str),
    /// Every `GUIDE, *Heading*` or `GUIDE, "Heading"` citation in the
    /// scope names a `##` or `###` heading of the guide.
    GuideSections(&'static str),
    /// Outside the guide's *Closed experiments* table, every `::` segment
    /// of a Rust name in a code span is a word of a first-party `.rs` file
    /// of the scope, or of its path.
    GuideNames(&'static str),
    /// The guide has at most this many lines.
    GuideSize(&'static str, usize),
}

/// The files a row reads.
#[derive(Clone, Copy, Debug)]
struct Scope {
    /// Files or directories; a `*` segment matches any one name.
    roots: &'static [&'static str],
    /// Only `*.rs` files.
    rs_only: bool,
    /// Path prefixes left out (the old `grep -v '^crates/netkat/src/'`).
    except: &'static [&'static str],
}

/// One guard.
#[derive(Clone, Copy, Debug)]
struct Row {
    name: &'static str,
    pr: u32,
    reason: &'static str,
    scope: Scope,
    check: Check,
    /// A line the row forbids; injected into the first file of the scope
    /// (into the item, for [`Lines::Item`] and [`Check::Fields`]), it must
    /// make the row fail.
    witness: &'static str,
}

const fn files(roots: &'static [&'static str]) -> Scope {
    outside(roots, &[])
}

const fn rust(roots: &'static [&'static str], except: &'static [&'static str]) -> Scope {
    Scope { roots, rs_only: true, except }
}

const fn outside(roots: &'static [&'static str], except: &'static [&'static str]) -> Scope {
    Scope { roots, rs_only: false, except }
}

/// Lines anywhere in the scope that match any needle: none allowed.
const fn none(any: &'static [Needle]) -> Check {
    none_unless(any, &[])
}

/// [`none`], minus the lines that contain any of `unless`.
const fn none_unless(any: &'static [Needle], unless: &'static [&'static str]) -> Check {
    Check::Count {
        lines: Lines::All,
        skip_comments: false,
        any,
        unless,
        allowed: Allowed::AtMost(0),
    }
}

/// Lines of `lines`, comments dropped if asked, that match any needle.
const fn count(
    lines: Lines,
    skip_comments: bool,
    any: &'static [Needle],
    allowed: Allowed,
) -> Check {
    Check::Count { lines, skip_comments, any, unless: &[], allowed }
}

const ALL_CODE: &[&str] = &["crates", "tests", "examples"];
const ENGINE: &str = "crates/netsim/src/engine";
const FLOWINDEX: &str = "crates/netkat/src/flowindex.rs";
const NES: &str = "crates/core/src/nes.rs";
const QUEUE: &str = "crates/netsim/src/queue.rs";
const SHARED: &str = "crates/core/src/shared.rs";
const SRC_DIRS: &[&str] = &["crates/*/src"];
/// The files that hold the per-event path's cross-crate callees.
const PER_EVENT_CALLEES: &[&str] = &[
    "crates/netkat/src/packet.rs",
    "crates/netkat/src/arena.rs",
    "crates/netkat/src/action.rs",
    "crates/core/src/event.rs",
    NES,
];

/// The heading of the guide's table of closed experiments, whose rows may
/// name code that is gone.
const CLOSED: &str = "Closed experiments";

/// The guards. CHANGES.md maps each old CI check to its rows.
const ROWS: &[Row] = &[
    Row {
        name: "guide-paths-architecture",
        pr: 6,
        reason: "ARCHITECTURE.md names a repo path that does not exist",
        scope: files(&["ARCHITECTURE.md"]),
        check: Check::GuidePaths("ARCHITECTURE.md"),
        witness: "The shards live in `crates/netsim/src/shard.rs`.",
    },
    Row {
        name: "guide-paths-readme",
        pr: 6,
        reason: "README.md names a repo path that does not exist",
        scope: files(&["README.md"]),
        check: Check::GuidePaths("README.md"),
        witness: "The shards live in `crates/netsim/src/shard.rs`.",
    },
    Row {
        name: "knob-docs-architecture",
        pr: 6,
        reason: "ARCHITECTURE.md and the code disagree on the EDN_* knob set",
        scope: files(&["ARCHITECTURE.md", "crates/*/src"]),
        check: Check::KnobDocs("ARCHITECTURE.md"),
        witness: "`EDN_SHARDS` sets the number of event-loop shards.",
    },
    Row {
        name: "knob-docs-readme",
        pr: 6,
        reason: "README.md and the code disagree on the EDN_* knob set",
        scope: files(&["README.md", "crates/*/src"]),
        check: Check::KnobDocs("README.md"),
        witness: "`EDN_SHARDS` sets the number of event-loop shards.",
    },
    Row {
        name: "guide-sections",
        pr: 49,
        reason: "a guide or a comment cites an ARCHITECTURE.md section that does not exist",
        scope: files(&["ARCHITECTURE.md", "README.md", "crates", "tests"]),
        check: Check::GuideSections("ARCHITECTURE.md"),
        witness: "(ARCHITECTURE.md, *Why the arena does not hash-cons*)",
    },
    Row {
        name: "guide-names",
        pr: 49,
        reason: "ARCHITECTURE.md names Rust code that no first-party file has",
        scope: files(&["ARCHITECTURE.md", "crates", "tests", "examples", "benchmark/src"]),
        check: Check::GuideNames("ARCHITECTURE.md"),
        witness: "`SharedIndex::step` reads the masks.",
    },
    Row {
        name: "guide-size",
        pr: 49,
        reason: "ARCHITECTURE.md outgrew 1,000 lines: a closed experiment is a row of its table, \
                 its history a line of CHANGES.md",
        scope: files(&["ARCHITECTURE.md"]),
        check: Check::GuideSize("ARCHITECTURE.md", 1000),
        witness: "A paragraph of history that belongs in CHANGES.md.",
    },
    Row {
        name: "knobs",
        pr: 14,
        reason: "the interface grew back: more than 5 EDN_* knobs",
        scope: files(SRC_DIRS),
        check: Check::Knobs(5),
        witness: r#"let shards = std::env::var("EDN_SHARDS");"#,
    },
    Row {
        name: "dataplane-methods",
        pr: 14,
        reason: "the interface grew back: more than 5 DataPlane methods",
        scope: files(&["crates/netsim/src/logic.rs"]),
        check: count(Lines::Item("pub trait DataPlane"), false, &[Start("    fn ")], Allowed::AtMost(5)),
        witness: "    fn on_link_down(&mut self, sw: u64, now: SimTime) {}",
    },
    Row {
        name: "runoptions-fields",
        pr: 14,
        reason: "the interface grew back: RunOptions is not `check stream channel`",
        scope: files(&["crates/scenario/src/run.rs"]),
        check: Check::Fields("pub struct RunOptions", &["check", "stream", "channel"]),
        witness: "    pub shards: usize,",
    },
    Row {
        name: "spec-recording-option",
        pr: 19,
        reason: "a recording option in the spec text",
        scope: files(&["crates/scenario/src/spec.rs"]),
        check: none(&[Lit("TraceMode"), Lit("StatsMode")]),
        witness: "    pub trace: TraceMode,",
    },
    Row {
        name: "index-copies-table",
        pr: 19,
        reason: "the index copies its table",
        scope: files(&[FLOWINDEX]),
        check: none(&[Lit("table.iter().cloned().collect()")]),
        witness: "        let rules: Vec<Rule> = table.iter().cloned().collect();",
    },
    Row {
        name: "sharded-loop-seams",
        pr: 14,
        reason: "the sharded loop's seams are back",
        scope: files(&["crates"]),
        check: none(&[Lit("absorb_shard"), Lit("run_multi"), Lit("fn fork")]),
        witness: "    pub fn absorb_shard(&mut self, shard: Engine<D>) {",
    },
    Row {
        name: "deployment-paths",
        pr: 15,
        reason: "a deleted deployment path is back",
        scope: files(&["crates"]),
        check: none(&[Lit("Deployment::Guarded"), Lit("CompilePath"), Lit("fn patch")]),
        witness: "            Deployment::Guarded => self.guarded_lookup(sw, packet),",
    },
    Row {
        name: "second-table-layout",
        pr: 16,
        reason: "a second table layout is back",
        scope: files(&["crates/runtime"]),
        check: none(&[Lit("OptimizeMode"), Lit("EDN_OPTIMIZE"), Lit("enum Deployment")]),
        witness: "pub enum Deployment {",
    },
    Row {
        name: "lookup-path-or-recording-var",
        pr: 18,
        reason: "the linear lookup path or a recording-mode variable is back",
        scope: files(&["crates", "tests"]),
        check: none(&[
            Lit("LookupPath"),
            Lit("DeployKnobs"),
            Lit("EDN_LOOKUP"),
            Lit("EDN_TRACE"),
            Lit("EDN_STATS"),
        ]),
        witness: "pub enum LookupPath { Linear, Indexed }",
    },
    Row {
        name: "hashed-control-frontier",
        pr: 16,
        reason: "per-event bookkeeping is back: a hashed control frontier",
        scope: files(&[ENGINE]),
        check: none(&[Spaced("ctrl_delivered:", "HashMap"), Spaced("ctrl_linked:", "HashMap")]),
        witness: "    ctrl_delivered: HashMap<u64, usize>,",
    },
    Row {
        name: "calendar-rebuild",
        pr: 20,
        reason: "per-event bookkeeping is back: the calendar's rebuild or dirty bitmap",
        scope: files(&[QUEUE]),
        check: none(&[Lit("fn rebuild"), Lit("dirty")]),
        witness: "    fn rebuild(&mut self) {",
    },
    Row {
        name: "recycler-fingerprint",
        pr: 20,
        reason: "per-event bookkeeping is back: a recycler fingerprint",
        scope: files(&["crates/netkat/src/arena.rs"]),
        check: none(&[Start("    fp:")]),
        witness: "    fp: Vec<u64>,",
    },
    Row {
        name: "checker-node-map",
        pr: 26,
        reason: "a checker node is found through a map or a free list again",
        scope: files(&["crates/core/src/online.rs"]),
        check: none(&[
            Lit("packet: Packet"),
            Lit("FxMap<usize, Node>"),
            Lit("spare: Vec<Node>"),
            Lit("slots: FxMap"),
            Lit("free: Vec<usize>"),
        ]),
        witness: "    nodes: FxMap<usize, Node>,",
    },
    Row {
        name: "per-config-winners",
        pr: 27,
        reason: "the checker resolves winners per configuration again",
        scope: files(&[SHARED, FLOWINDEX]),
        check: none(&[Lit("pos: Vec<u32>"), Lit("contested"), Lit("min_by_key")]),
        witness: "    pos: Vec<u32>,",
    },
    Row {
        name: "checker-rule-index",
        pr: 38,
        reason: "the checker keeps a rule index of its own",
        scope: files(&[SHARED]),
        check: none(&[
            Word("struct Shape"),
            Word("struct Signature"),
            Word("struct Entry"),
            Word("fn intern_chain"),
            Word("fn winners"),
            Lit("FxHasher"),
        ]),
        witness: "struct Signature {",
    },
    Row {
        name: "chain-walk-outside-netkat",
        pr: 38,
        reason: "a caller outside netkat walks prefix chains again",
        scope: outside(ALL_CODE, &["crates/netkat/src/"]),
        check: none(&[Lit("prefix_chains("), Lit("LayoutCache")]),
        witness: "    let chains = prefix_chains(&tables);",
    },
    Row {
        name: "bounded-sequence-constant",
        pr: 38,
        reason: "the spec checker bounds its sequence search by a constant again",
        scope: files(&["crates/core"]),
        check: none(&[Lit("DEFAULT_MAX_EVENTS")]),
        witness: "pub const DEFAULT_MAX_EVENTS: usize = 8;",
    },
    Row {
        name: "locality-size-arg",
        pr: 41,
        reason: "a size bound on the locality check is back",
        scope: files(ALL_CODE),
        check: none_unless(&[Arg("is_locally_determined(")], &["fn is_locally_determined(&self)"]),
        witness: "    assert!(nes.is_locally_determined(4));",
    },
    Row {
        name: "locality-subset-search",
        pr: 41,
        reason: "the bounded subset search is on the product path again",
        scope: files(&["crates/core/src/locality.rs"]),
        check: count(Lines::BeforeTests, false, &[Lit("max_size"), Lit("fn combinations")], Allowed::AtMost(0)),
        witness: "fn combinations(n: usize, k: usize) -> Vec<Vec<usize>> {",
    },
    Row {
        name: "sequence-search-size-arg",
        pr: 41,
        reason: "a size bound on the sequence search is back",
        scope: files(&["crates"]),
        check: none_unless(&[Arg("allowed_sequences(")], &["fn allowed_sequences(&self)"]),
        witness: "    let seqs = nes.allowed_sequences(max_events);",
    },
    Row {
        name: "second-rendering",
        pr: 39,
        reason: "a second rendering of the deployed tables is back",
        scope: files(&["crates"]),
        check: none(&[Lit("SwitchProgram"), Lit("switch_program"), Lit("tagged_lookup")]),
        witness: "pub struct SwitchProgram {",
    },
    Row {
        name: "netkat-exports-compiled-table",
        pr: 39,
        reason: "netkat exports its per-table index again",
        scope: files(&["crates/netkat/src/lib.rs"]),
        check: none(&[Lit("CompiledTable")]),
        witness: "pub use flowindex::{ChainTables, CompiledTable};",
    },
    Row {
        name: "compiled-table-outside-netkat",
        pr: 39,
        reason: "a caller outside netkat uses its per-table index",
        scope: outside(ALL_CODE, &["crates/netkat/src/"]),
        check: none(&[Lit("CompiledTable")]),
        witness: "    let index = CompiledTable::build(&table);",
    },
    Row {
        name: "prefetch-fork",
        pr: 44,
        reason: "the index's field-prefetch fork is back",
        scope: files(&[FLOWINDEX]),
        check: count(
            Lines::All,
            true,
            &[Lit("PREFETCH_CAP"), Lit("fingerprint_cached"), Lit("prefetched")],
            Allowed::AtMost(0),
        ),
        witness: "const PREFETCH_CAP: usize = 4;",
    },
    Row {
        name: "per-switch-install",
        pr: 45,
        reason: "the campaign compile installs its tables one switch at a time again",
        scope: files(&["crates/scenario/src/compile.rs"]),
        check: count(Lines::BeforeTests, true, &[Lit(".install(")], Allowed::AtMost(0)),
        witness: "        config.install(sw, table.clone());",
    },
    Row {
        name: "chain-tables-build-outside-nes",
        pr: 42,
        reason: "a table index is built outside the NES's constructor again",
        scope: rust(&["crates"], &["crates/netkat/src/", NES]),
        check: count(Lines::NonTest, true, &[Lit("ChainTables::build(")], Allowed::AtMost(0)),
        witness: "    let tables = ChainTables::build(configs.len(), rows);",
    },
    Row {
        name: "chain-tables-build-in-nes",
        pr: 42,
        reason: "the NES's constructor must build its table index exactly once",
        scope: rust(&[NES], &[]),
        check: count(Lines::NonTest, true, &[Lit("ChainTables::build(")], Allowed::Exactly(1)),
        witness: "    let tables = ChainTables::build(configs.len(), rows);",
    },
    Row {
        name: "config-masks-build-outside-nes",
        pr: 43,
        reason: "the checker's masks are built outside the NES again",
        scope: rust(&["crates"], &[NES]),
        check: count(Lines::NonTest, true, &[Lit("ConfigMasks::build(")], Allowed::AtMost(0)),
        witness: "        let masks = ConfigMasks::build(&rows, &configs);",
    },
    Row {
        name: "config-masks-build-in-nes",
        pr: 43,
        reason: "the NES must build the checker's masks exactly once",
        scope: rust(&[NES], &[]),
        check: count(Lines::NonTest, true, &[Lit("ConfigMasks::build(")], Allowed::Exactly(1)),
        witness: "        let masks = ConfigMasks::build(&rows, &configs);",
    },
    Row {
        name: "reliable-engine-wrapper",
        pr: 42,
        reason: "the reliable-engine wrapper is back: compose Reliable::with_budget(NesDataPlane::new(..))",
        scope: files(ALL_CODE),
        check: none(&[Lit("nes_reliable_engine_with")]),
        witness: "pub fn nes_reliable_engine_with(nes: NetworkEventStructure, budget: u32) {",
    },
    Row {
        name: "routing-bfs-on-tree",
        pr: 24,
        reason: "the routing BFS is back on a tree",
        scope: files(&["crates/netsim/src/topology.rs"]),
        check: none(&[Spaced("dist:", "BTreeMap"), Lit("VecDeque")]),
        witness: "        let mut queue = VecDeque::new();",
    },
    Row {
        name: "apps-route-topology",
        pr: 40,
        reason: "the applications route the topology again",
        scope: files(&["crates/apps/src/generated.rs"]),
        check: count(Lines::BeforeTests, false, &[Lit(".route("), Lit("next_hop_ports(")], Allowed::AtMost(0)),
        witness: "        let path = sim.route(src, dst);",
    },
    Row {
        name: "route-links-one-by-one",
        pr: 40,
        reason: "routing builds its topology link by link",
        scope: files(&["crates/topo/src/route.rs"]),
        check: none(&[Lit("add_link("), Lit("add_host(")]),
        witness: "        topo.add_link(a, b);",
    },
    Row {
        name: "delta-layer",
        pr: 28,
        reason: "the delta layer or the Criterion harness is back",
        scope: files(&["crates", "tests", "Cargo.toml"]),
        check: none(&[
            Lit("TableDelta"),
            Lit("ConfigDelta"),
            Lit("apply_delta"),
            Lit("fn splice"),
            Lit("criterion"),
        ]),
        witness: "pub fn apply_delta(config: &mut Config, delta: &ConfigDelta) {",
    },
    Row {
        name: "arena-hash-consing",
        pr: 29,
        reason: "the arena's hash-consing mode is back",
        scope: files(&["crates/netkat/src/arena.rs", "crates/netsim/src/metrics.rs"]),
        check: none(&[
            Lit("enable_recycling"),
            Lit("fn fingerprint"),
            Lit("collisions"),
            Lit("intern_hits"),
        ]),
        witness: "    pub fn enable_recycling(&mut self) {",
    },
    Row {
        name: "owned-packet-bridge",
        pr: 30,
        reason: "the owned-packet bridge is back",
        scope: files(&["crates/netsim/src"]),
        check: none(&[Lit("fn step_owned"), Lit("fn table_outputs"), Lit("pub struct StepResult")]),
        witness: "    fn step_owned(&mut self, sw: u64, pt: u64, packet: Packet) -> StepResult {",
    },
    Row {
        name: "plane-private-index",
        pr: 30,
        reason: "a plane's private table index is back",
        scope: files(&["crates/runtime/src"]),
        check: none(&[Lit("BTreeMap<u64, CompiledTable>")]),
        witness: "    index: BTreeMap<u64, CompiledTable>,",
    },
    Row {
        name: "source-boxed-iterator",
        pr: 31,
        reason: "the streaming source builds an owned packet per datagram again",
        scope: files(&["crates/netsim/src/traffic.rs"]),
        check: none(&[Lit("Box<dyn Iterator")]),
        witness: "    events: Box<dyn Iterator<Item = SourceEvent>>,",
    },
    Row {
        name: "source-owned-packet",
        pr: 31,
        reason: "the streaming source hands out an owned packet again",
        scope: files(&["crates/netsim/src/source.rs"]),
        check: none(&[Lit("pub packet: Packet")]),
        witness: "    pub packet: Packet,",
    },
    Row {
        name: "post-hoc-verdict",
        pr: 32,
        reason: "a post-hoc verdict path or the occurrence-semantics trait is back",
        scope: files(ALL_CODE),
        check: none(&[
            Lit("fn verify_nes_run"),
            Lit("fn verify_reliable_nes_run"),
            Lit("fn verify_uncoordinated_run"),
            Lit("OccurrenceSemantics"),
            Lit("LiteralOccurrences"),
            Lit("CausalOccurrences"),
        ]),
        witness: "pub fn verify_nes_run(result: &RunResult<NesDataPlane>) -> Verdict {",
    },
    Row {
        name: "check-correct-on-product-path",
        pr: 32,
        reason: "check_correct has a caller on the product path",
        scope: rust(
            &[
                "crates/runtime/src",
                "crates/scenario/src",
                "crates/bench/src",
                "crates/apps/src",
                "examples",
            ],
            &[],
        ),
        check: count(Lines::BeforeTests, false, &[Lit("check_correct")], Allowed::AtMost(0)),
        witness: "    let verdict = check_correct(&result.trace, &nes, None);",
    },
    Row {
        name: "netsim-knows-plane-messages",
        pr: 33,
        reason: "the simulator knows a plane's control messages again",
        scope: files(ALL_CODE),
        check: none(&[
            Lit("pub enum CtrlMsg"),
            Lit("CtrlMsg::Events"),
            Lit("CtrlMsg::SetConfig"),
            Lit("CtrlMsg::Reliable"),
            Lit("CtrlMsg::Ack"),
            Lit("fn pack("),
            Lit("fn unpack("),
        ]),
        witness: "pub enum CtrlMsg { Events(EventSet), SetConfig(EventSet) }",
    },
    Row {
        name: "netsim-reliability",
        pr: 33,
        reason: "the reliability envelope is back in the simulator",
        scope: files(&["crates/netsim/src"]),
        check: none(&[Lit("Reliable"), Lit("retransmi")]),
        witness: "            CtrlMsg::Reliable { seq, msg } => self.retransmit(seq, msg),",
    },
    Row {
        name: "env-read-outside-env-rs",
        pr: 34,
        reason: "an EDN_* variable is read outside crates/scenario/src/env.rs",
        scope: outside(&["crates"], &["crates/scenario/src/env.rs"]),
        check: none(&[Lit("env::var(\"EDN_")]),
        witness: r#"    let budget = std::env::var("EDN_RETRY_BUDGET").ok();"#,
    },
    Row {
        name: "from-env-reader",
        pr: 34,
        reason: "a from-env reader is back",
        scope: files(&["crates"]),
        check: none(&[
            Lit("fn from_env("),
            Lit("fn write_out_from_env"),
            Lit("fn dump_path_from_env"),
            Lit("fn retry_budget_from_env"),
        ]),
        witness: "    pub fn from_env() -> ChannelModel {",
    },
    Row {
        name: "engine-records-twice",
        pr: 35,
        reason: "the engine records a step twice",
        scope: files(&[ENGINE]),
        check: none(&[Lit("TraceBuilder"), Lit("arena_mut()")]),
        witness: "    trace: Option<TraceBuilder>,",
    },
    Row {
        name: "trace-mode-full",
        pr: 52,
        reason: "a trace is an observer the caller attaches (`TraceBuilder::observer`), \
                 not an engine mode with a private fan-out in front of the slot",
        scope: files(ALL_CODE),
        check: none(&[Lit("TraceMode::Full"), Lit("record_in_front"), Lit("mod recorder")]),
        witness: "        .with_trace_mode(TraceMode::Full);",
    },
    Row {
        name: "trace-mode-shim",
        pr: 52,
        reason: "`TraceMode` and `with_trace_mode` are no-op shims for the frozen benchmark: \
                 the four lines that define and re-export them, and no first-party caller",
        scope: files(ALL_CODE),
        check: count(
            Lines::All,
            true,
            &[Word("TraceMode"), Lit("with_trace_mode(")],
            Allowed::Exactly(4),
        ),
        witness: "    let engine = engine.with_trace_mode(netsim::TraceMode::StatsOnly);",
    },
    Row {
        name: "trace-owns-arena",
        pr: 35,
        reason: "the trace owns the simulator's arena",
        scope: files(&["crates/core/src/trace.rs"]),
        check: none(&[Lit("PacketArena"), Lit("PacketId")]),
        witness: "    arena: PacketArena,",
    },
    Row {
        name: "drop-log",
        pr: 35,
        reason: "the drop log is back",
        scope: files(&["crates/netsim/src/stats.rs"]),
        check: none(&[Word("pub struct Drop"), Lit("drops: Vec")]),
        witness: "pub struct Drop {",
    },
    Row {
        name: "event-pops",
        pr: 37,
        reason: "pop_due must be called exactly once outside queue.rs: one engine, one loop",
        scope: rust(&["crates/netsim/src"], &[QUEUE]),
        check: count(Lines::All, false, &[Lit("pop_due(")], Allowed::Exactly(1)),
        witness: "        while let Some((key, kind)) = self.pending.pop_due(horizon) {",
    },
    Row {
        name: "second-loop",
        pr: 37,
        reason: "a second loop or a duplicated send is back",
        scope: files(&["crates/netsim/src"]),
        check: none(&[
            Word("struct Core"),
            Word("fn run_streaming"),
            Word("fn send_notify"),
            Word("fn send_deliver"),
            Word("fn kind_index"),
            Word("fn flight_info"),
        ]),
        witness: "struct Core<D: DataPlane> {",
    },
    Row {
        name: "source-pump",
        pr: 47,
        reason: "a streamed datagram is dispatched from the source, never pumped into the queue",
        scope: files(&["crates/netsim/src"]),
        check: none(&[Lit("pump_source")]),
        witness: "    fn pump_source(&mut self, deadline: SimTime) {",
    },
    Row {
        name: "per-event-inline",
        pr: 48,
        reason: "the per-event path's small cross-crate callees must stay `#[inline]`: \
                 the stock release profile inlines nothing else across crates \
                 (ARCHITECTURE.md, *Why the per-event path is marked `#[inline]`*)",
        scope: files(PER_EVENT_CALLEES),
        check: count(Lines::NonTest, true, &[Lit("#[inline]")], Allowed::Exactly(56)),
        witness: "    #[inline]",
    },
    Row {
        name: "egress-map",
        pr: 53,
        reason: "a hop hashes its egress location again: the engine's egress is per-switch \
                 runs of ports, found by the entity id the arrival carries",
        scope: files(&[ENGINE]),
        check: none(&[Lit("EgressMap"), Lit("HashMap<Loc, Egress")]),
        witness: "pub(super) type EgressMap = HashMap<Loc, Egress, netkat::FxBuildHasher>;",
    },
    Row {
        name: "checker-location-maps",
        pr: 53,
        reason: "a checker record hashes a location again: masks and `last_at` are dense \
                 tables a record's place indexes",
        scope: files(&[SHARED, "crates/core/src/online.rs"]),
        check: none(&[Lit("FxMap<(Loc, Loc)"), Lit("FxMap<Loc,"), Lit("last_at: FxMap")]),
        witness: "    links: FxMap<(Loc, Loc), u64>,",
    },
    Row {
        name: "plane-slot-probe",
        pr: 53,
        reason: "a plane's step looks its switch up again: the slot, row and events \
                 come from the node id the engine hands in (NES, static and \
                 uncoordinated planes alike)",
        scope: files(&[
            "crates/runtime/src/dataplane.rs",
            "crates/runtime/src/static_plane.rs",
            "crates/runtime/src/uncoordinated.rs",
        ]),
        check: count(
            Lines::Item("impl DataPlane for "),
            false,
            &[Lit("slot_of("), Lit(".slot(at"), Lit("matching_on(")],
            Allowed::AtMost(0),
        ),
        witness: "        let Some(slot) = self.deployment.slot(at.sw) else { return };",
    },
    Row {
        name: "packet-sorted-record",
        pr: 55,
        reason: "a packet is a sorted field list again: it is a fixed record, one slot \
                 per field and a presence mask, so a read searches nothing",
        scope: files(&["crates/netkat/src/packet.rs"]),
        check: count(Lines::NonTest, true, &[Lit("Vec<(Field, Value)>")], Allowed::AtMost(0)),
        witness: "    fields: Vec<(Field, Value)>,",
    },
];

/// The workspace, read from disk: every walked file, `.rs` or not.
fn load() -> Tree {
    fn walk(root: &Path, rel: &str, tree: &mut Tree) {
        let path = root.join(rel);
        if path.is_dir() {
            let mut names: Vec<String> = fs::read_dir(&path)
                .unwrap_or_else(|e| panic!("{rel}: {e}"))
                .map(|e| e.expect("a readable entry").file_name().to_string_lossy().into_owned())
                .collect();
            names.sort();
            for name in names {
                walk(root, &format!("{rel}/{name}"), tree);
            }
        } else if let Ok(bytes) = fs::read(&path) {
            tree.insert(rel.to_string(), String::from_utf8_lossy(&bytes).into());
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut tree = Tree::new();
    for rel in WALKED {
        walk(&root, rel, &mut tree);
    }
    tree
}

/// The lines of a Rust file outside its top-level `#[cfg(test)]` items,
/// numbered from 1. The item is what follows the attribute (and any
/// attributes stacked under it): one line if that line ends in `;`, else
/// up to the next `}` in column 0.
fn nontest_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    #[derive(Clone, Copy)]
    enum Skip {
        No,
        Body,
        Attrs,
    }
    let mut skip = Skip::No;
    text.lines().enumerate().filter_map(move |(i, line)| {
        match skip {
            Skip::Body => skip = if line.starts_with('}') { Skip::No } else { Skip::Body },
            Skip::Attrs if !line.starts_with("#[") => {
                skip = if line.trim_end().ends_with(';') { Skip::No } else { Skip::Body }
            }
            Skip::Attrs => {}
            Skip::No if line.starts_with("#[cfg(test)]") => skip = Skip::Attrs,
            Skip::No => return Some((i + 1, line)),
        }
        None
    })
}

/// The numbered lines of `text` that `lines` selects.
fn select(text: &str, lines: Lines) -> Vec<(usize, &str)> {
    let numbered = text.lines().enumerate().map(|(i, l)| (i + 1, l));
    match lines {
        Lines::All => numbered.collect(),
        Lines::BeforeTests => {
            numbered.take_while(|(_, l)| !l.starts_with("#[cfg(test)]")).collect()
        }
        Lines::NonTest => nontest_lines(text).collect(),
        Lines::Item(start) => {
            let mut inside = false;
            numbered
                .filter(|(_, l)| {
                    let keep = inside || l.starts_with(start);
                    inside = keep && !l.starts_with('}');
                    keep
                })
                .collect()
        }
    }
}

/// Does `path` lie under `root` (segment by segment, `*` matching any)?
fn under(path: &str, root: &str) -> bool {
    let mut segs = path.split('/');
    root.trim_end_matches('/').split('/').all(|r| segs.next().is_some_and(|s| r == "*" || r == s))
}

impl Scope {
    /// The scope's files, in path order, with the roots that hold none.
    fn resolve<'t>(&self, tree: &'t Tree) -> (Vec<(&'t str, &'t str)>, Vec<&'static str>) {
        let chosen: Vec<(&str, &str)> = tree
            .iter()
            .filter(|(p, _)| !EXEMPT.contains(&p.as_str()))
            .filter(|(p, _)| self.roots.iter().any(|r| under(p, r)))
            .filter(|(p, _)| !self.except.iter().any(|x| p.starts_with(x)))
            .filter(|(p, _)| !self.rs_only || p.ends_with(".rs"))
            .map(|(p, t)| (p.as_str(), &**t))
            .collect();
        let empty = self
            .roots
            .iter()
            .copied()
            .filter(|r| !chosen.iter().any(|(p, t)| under(p, r) && !t.is_empty()))
            .collect();
        (chosen, empty)
    }
}

/// The `EDN_*` names in `text`: `EDN_` and the run of `[A-Z_]` after it.
/// With `call`, only names read by `env::var("EDN_…")`.
fn knob_names(text: &str, call: bool) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    let mut rest = text;
    while let Some(i) = rest.find("EDN_") {
        let len = rest[i + 4..]
            .find(|c: char| !(c.is_ascii_uppercase() || c == '_'))
            .unwrap_or(rest.len() - i - 4);
        let (name, after) = (&rest[i..i + 4 + len], &rest[i + 4 + len..]);
        let read = rest[..i].ends_with("env::var(\"") && after.starts_with("\")");
        if len > 0 && (!call || read) {
            names.insert(name.to_string());
        }
        rest = &rest[i + 4 + len..];
    }
    names
}

/// The knobs the code reads (`grep -rhoE 'env::var\("EDN_[A-Z_]+"\)' crates/*/src`).
fn code_knobs(tree: &Tree) -> BTreeSet<String> {
    files(SRC_DIRS).resolve(tree).0.iter().flat_map(|(_, t)| knob_names(t, true)).collect()
}

/// The repo paths a guide names (`grep -oE '\b(crates|tests|examples|vendor)/[A-Za-z0-9_./-]+'`,
/// trailing `.`, `,` and `)` dropped).
fn guide_paths(text: &str) -> BTreeSet<&str> {
    let path_char = |c: char| c.is_ascii_alphanumeric() || "_./-".contains(c);
    let mut paths = BTreeSet::new();
    let mut i = 0;
    while i < text.len() {
        let rest = &text[i..];
        let boundary = !text[..i].ends_with(is_word);
        let prefix =
            ["crates/", "tests/", "examples/", "vendor/"].into_iter().find(|p| rest.starts_with(p));
        match prefix {
            Some(p) if boundary && rest[p.len()..].starts_with(path_char) => {
                let len = rest.find(|c| !path_char(c)).unwrap_or(rest.len());
                paths.insert(rest[..len].trim_end_matches(['.', ',', ')']));
                i += len;
            }
            _ => i += rest.chars().next().map_or(1, char::len_utf8),
        }
    }
    paths
}

/// `text` with its lines joined by single spaces, each line's indentation
/// and leading comment marker (`//!`, `///`, `//`) dropped, so a citation
/// reads the same across a line break; with the offset each line starts at.
fn flatten(text: &str) -> (String, Vec<usize>) {
    let mut flat = String::new();
    let mut starts = Vec::new();
    for line in text.lines() {
        let t = line.trim_start();
        let t = ["//!", "///", "//"].iter().find_map(|m| t.strip_prefix(m)).unwrap_or(t);
        starts.push(flat.len());
        flat.push_str(t.trim());
        flat.push(' ');
    }
    (flat, starts)
}

/// Runs of whitespace squashed to one space.
fn squash(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// The `##` and `###` headings of a guide.
fn headings(text: &str) -> BTreeSet<String> {
    text.lines()
        .filter_map(|l| l.strip_prefix("## ").or_else(|| l.strip_prefix("### ")))
        .map(squash)
        .collect()
}

/// The sections `text` cites as `DOC, *Heading*` or `DOC, "Heading"`, with
/// the line each citation starts on.
fn cited_sections(text: &str, doc: &str) -> Vec<(usize, String)> {
    let (flat, starts) = flatten(text);
    let cite = format!("{doc}, ");
    let mut out = Vec::new();
    for (i, _) in flat.match_indices(&cite) {
        let rest = &flat[i + cite.len()..];
        let Some(open) = rest.chars().next().filter(|c| *c == '*' || *c == '"') else {
            continue;
        };
        if let Some(len) = rest[1..].find(open) {
            out.push((starts.partition_point(|&s| s <= i), squash(&rest[1..1 + len])));
        }
    }
    out
}

/// The Rust names a guide's code spans hold, with their line numbers: the
/// spans outside fenced blocks and outside the *Closed experiments* table
/// that, cut at a first `(` or `<`, are `::` paths of identifiers. Spans
/// with a `.` or a `/` (metric names, file paths) are not names.
fn guide_names(text: &str) -> Vec<(usize, String)> {
    let (mut fenced, mut closed) = (false, false);
    let mut kept = String::new();
    let mut numbers = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if let Some(h) = line.strip_prefix("## ") {
            closed = h.trim() == CLOSED;
        }
        fenced ^= line.starts_with("```");
        if !(fenced || line.starts_with("```") || closed && line.starts_with('|')) {
            numbers.push((kept.len(), i + 1));
            kept.push_str(line);
            kept.push('\n');
        }
    }
    let ident = |s: &str| {
        s.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_')
            && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
    };
    let mut names = Vec::new();
    let mut at = 0;
    for (k, piece) in kept.split('`').enumerate() {
        let span = piece.trim();
        let name = &span[..span.find(['(', '<']).unwrap_or(span.len())];
        if k % 2 == 1 && !span.contains(['.', '/']) && name.split("::").all(ident) {
            names.push((numbers[numbers.partition_point(|&(s, _)| s <= at) - 1].1, name.into()));
        }
        at += piece.len() + 1;
    }
    names
}

/// Is `path` a file or a directory of the tree?
fn exists(tree: &Tree, path: &str) -> bool {
    let dir = format!("{}/", path.trim_end_matches('/'));
    tree.contains_key(path)
        || tree.range(dir.clone()..).next().is_some_and(|(k, _)| k.starts_with(&dir))
}

impl Row {
    /// Why the row fails on `tree`, one line per cause; empty if it holds.
    fn failures(&self, tree: &Tree) -> Vec<String> {
        let (files, empty) = self.scope.resolve(tree);
        let mut out: Vec<String> = empty
            .iter()
            .map(|r| format!("{r}: missing or empty, so the row reads nothing"))
            .collect();
        match self.check {
            Check::Count { allowed, .. } => {
                let hits = self.hits(tree);
                let (n, ok) = match allowed {
                    Allowed::AtMost(max) => (max, hits.len() <= max),
                    Allowed::Exactly(n) => (n, hits.len() == n),
                };
                if !ok {
                    out.push(format!("{} matching lines, {n} allowed:", hits.len()));
                    out.extend(hits.iter().map(|(p, l, t)| format!("  {p}:{l}: {}", t.trim())));
                }
            }
            Check::Knobs(max) => {
                let knobs = code_knobs(tree);
                if knobs.len() > max {
                    out.push(format!("{} knobs read, {max} allowed: {knobs:?}", knobs.len()));
                }
            }
            Check::Fields(start, expect) => {
                let (path, text) = files.first().copied().unwrap_or_default();
                let names = pub_fields(text, start);
                if names != expect {
                    out.push(format!(
                        "{path}: `{start}` has fields {names:?}, expected {expect:?}"
                    ));
                }
            }
            Check::KnobDocs(doc) => {
                let code = code_knobs(tree);
                let documented = tree.get(doc).map(|t| knob_names(t, false)).unwrap_or_default();
                if code != documented {
                    out.push(format!("{doc} documents {documented:?}; the code reads {code:?}"));
                }
            }
            Check::GuidePaths(doc) => {
                let text = tree.get(doc).map(|t| &**t).unwrap_or("");
                for p in guide_paths(text).into_iter().filter(|p| !exists(tree, p)) {
                    out.push(format!("{doc} references missing path: {p}"));
                }
            }
            Check::GuideSections(doc) => {
                let have = headings(tree.get(doc).map(|t| &**t).unwrap_or(""));
                for (path, text) in &files {
                    for (line, h) in cited_sections(text, doc) {
                        if !have.contains(&h) {
                            out.push(format!("{path}:{line}: {doc} has no section *{h}*"));
                        }
                    }
                }
            }
            Check::GuideNames(doc) => {
                // A test suite or a binary is named by its file.
                let words: HashSet<&str> = files
                    .iter()
                    .filter(|(p, _)| p.ends_with(".rs"))
                    .flat_map(|(p, t)| [*p, *t])
                    .flat_map(|t| t.split(|c: char| !is_word(c)))
                    .collect();
                let text = tree.get(doc).map(|t| &**t).unwrap_or("");
                for (line, name) in guide_names(text) {
                    for seg in name.split("::").filter(|s| !words.contains(s)) {
                        out.push(format!(
                            "{doc}:{line}: `{name}`: no first-party .rs file has `{seg}`"
                        ));
                    }
                }
            }
            Check::GuideSize(doc, max) => {
                let n = tree.get(doc).map_or(0, |t| t.lines().count());
                if n > max {
                    out.push(format!("{doc} has {n} lines, {max} allowed"));
                }
            }
        }
        out
    }

    /// The lines a [`Check::Count`] row matches, as `(path, line, text)`.
    fn hits<'t>(&self, tree: &'t Tree) -> Vec<(&'t str, usize, &'t str)> {
        let Check::Count { lines, skip_comments, any, unless, .. } = self.check else {
            return Vec::new();
        };
        let mut hits = Vec::new();
        for (path, text) in self.scope.resolve(tree).0 {
            hits.extend(
                select(text, lines)
                    .into_iter()
                    .filter(|(_, l)| !(skip_comments && l.trim_start().starts_with("//")))
                    .filter(|(_, l)| any.iter().any(|n| n.matches(l)))
                    .filter(|(_, l)| !unless.iter().any(|u| l.contains(u)))
                    .map(|(i, l)| (path, i, l)),
            );
        }
        hits
    }

    /// `tree` with the witness injected: at the top of the scope's first
    /// file (so before any `#[cfg(test)]`), or just inside the item a
    /// [`Lines::Item`] or [`Check::Fields`] row reads. One line outgrows a
    /// [`Check::GuideSize`] bound only at the bound, so that row's witness
    /// goes in once more than the bound allows.
    fn injected(&self, tree: &Tree) -> Tree {
        let item = match self.check {
            Check::Count { lines: Lines::Item(start), .. } | Check::Fields(start, _) => Some(start),
            _ => None,
        };
        let (files, _) = self.scope.resolve(tree);
        let (path, text) = files.first().copied().expect("a row's scope holds a file");
        let at = match item {
            Some(start) => {
                let open = text.find(&format!("\n{start}")).expect("the item is in its file") + 1;
                open + text[open..].find('\n').expect("the item spans lines") + 1
            }
            None => 0,
        };
        let copies = match self.check {
            Check::GuideSize(_, max) => max + 1,
            _ => 1,
        };
        let witness = format!("{}\n", self.witness).repeat(copies);
        let patched = format!("{}{witness}{}", &text[..at], &text[at..]);
        let mut copy = tree.clone();
        copy.insert(path.to_string(), patched.into());
        copy
    }
}

/// The `pub` field names (`^    pub [a-z_]+`) of the item opening with `start`.
fn pub_fields<'t>(text: &'t str, start: &'static str) -> Vec<&'t str> {
    select(text, Lines::Item(start))
        .into_iter()
        .filter_map(|(_, l)| l.strip_prefix("    pub "))
        .map(|rest| {
            let end =
                rest.find(|c: char| !(c.is_ascii_lowercase() || c == '_')).unwrap_or(rest.len());
            &rest[..end]
        })
        .filter(|name| !name.is_empty())
        .collect()
}

/// Names a crate's `lib.rs` re-exports: the words of its `pub use` items,
/// after each item's leading `a::b::` module path.
fn reexported_names(text: &str) -> usize {
    let mut inside = false;
    let mut n = 0;
    for line in text.lines() {
        if !inside && !line.starts_with("pub use") {
            continue;
        }
        inside = !line.contains(';');
        let mut line = line;
        if let Some(rest) = line.strip_prefix("pub use ") {
            // `sed -E 's/^pub use ([a-z_]+::)+//'`
            let mut rest = rest;
            while let Some(i) = rest.find("::") {
                if i == 0 || !rest[..i].chars().all(|c| c.is_ascii_lowercase() || c == '_') {
                    break;
                }
                rest = &rest[i + 2..];
            }
            if rest.len() != line.len() - "pub use ".len() {
                line = rest;
            }
        }
        n += line
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .filter(|w| w.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'))
            .count();
    }
    n
}

/// Prints the numbers item 15 tracks, read off `tree`.
fn print_counts(tree: &Tree) {
    let text = |p: &str| tree.get(p).map(|t| &**t).unwrap_or("");
    let rs =
        |root: &'static str| tree.iter().filter(move |(p, _)| under(p, root) && p.ends_with(".rs"));
    let first_party: usize = ALL_CODE
        .iter()
        .flat_map(|r| rs(r))
        .map(|(_, t)| t.bytes().filter(|&b| b == b'\n').count())
        .sum();
    let nontest: usize = rs("crates/*/src").map(|(_, t)| nontest_lines(t).count()).sum();
    let item_fns = |path: &str, start: &'static str| {
        select(text(path), Lines::Item(start))
            .iter()
            .filter(|(_, l)| l.starts_with("    fn "))
            .count()
    };
    let row = |name: &str| ROWS.iter().find(|r| r.name == name).expect("a row of that name");
    // Where the non-test calls are, in `nes.rs` and outside it.
    let at = |rows: [&str; 2]| {
        let hits = rows.iter().flat_map(|name| row(name).hits(tree));
        hits.map(|(p, l, _)| format!("{p}:{l}")).collect::<Vec<_>>().join(" ")
    };
    println!("first-party Rust lines:      {first_party}");
    println!("non-test lines (src):        {nontest}");
    println!("env knobs read by the code:  {}", code_knobs(tree).len());
    println!(
        "DataPlane trait methods:     {}",
        item_fns("crates/netsim/src/logic.rs", "pub trait DataPlane")
    );
    println!(
        "TraceObserver methods:       {}",
        item_fns("crates/core/src/observe.rs", "pub trait TraceObserver")
    );
    println!(
        "knob mentions in ci.yml:     {}",
        text(".github/workflows/ci.yml").lines().filter(|l| l.contains("EDN_")).count()
    );
    println!("ci.yml lines:                {}", text(".github/workflows/ci.yml").lines().count());
    println!("ARCHITECTURE.md lines:       {}", text("ARCHITECTURE.md").lines().count());
    println!(
        "RunOptions fields:           {}",
        pub_fields(text("crates/scenario/src/run.rs"), "pub struct RunOptions").join(" ")
    );
    let engine: Vec<&str> = rs(ENGINE).map(|(p, _)| p.as_str()).collect();
    let per_file = [
        QUEUE,
        SHARED,
        "crates/runtime/src/deploy.rs",
        FLOWINDEX,
        "crates/runtime/src/dataplane.rs",
        "crates/runtime/src/static_plane.rs",
        "crates/runtime/src/uncoordinated.rs",
    ];
    for f in engine.into_iter().chain(per_file) {
        println!("  non-test lines, {f}: {}", nontest_lines(text(f)).count());
    }
    for (krate, lib) in [
        ("netkat", "crates/netkat/src/lib.rs"),
        ("edn-core", "crates/core/src/lib.rs"),
        ("nes-runtime", "crates/runtime/src/lib.rs"),
    ] {
        println!("{krate} pub use names: {}", reexported_names(text(lib)));
    }
    let chain_tables = ["chain-tables-build-in-nes", "chain-tables-build-outside-nes"];
    println!("ChainTables::build (non-test, outside netkat): {}", at(chain_tables));
    let masks = ["config-masks-build-in-nes", "config-masks-build-outside-nes"];
    println!("ConfigMasks::build (non-test): {}", at(masks));
    println!("event pops outside the queue: {}", row("event-pops").hits(tree).len());
    println!("#[inline] on the per-event path: {}", row("per-event-inline").hits(tree).len());
}

/// Every row holds on the tree as it stands; a failure names every failing
/// row and every offending `file:line`, not just the first.
#[test]
fn guards_hold() {
    let tree = load();
    print_counts(&tree);
    let failing: Vec<String> = ROWS
        .iter()
        .filter_map(|r| {
            let why = r.failures(&tree);
            (!why.is_empty()).then(|| {
                format!("row `{}` (PR {}): {}\n  {}", r.name, r.pr, r.reason, why.join("\n  "))
            })
        })
        .collect();
    assert!(
        failing.is_empty(),
        "{} of {} rows fail:\n{}",
        failing.len(),
        ROWS.len(),
        failing.join("\n")
    );
}

/// Each row's self-test: its witness, injected into a copy of its scope,
/// fails it.
#[test]
fn every_row_fails_on_its_witness() {
    let tree = load();
    let survivors: Vec<&str> =
        ROWS.iter().filter(|r| r.failures(&r.injected(&tree)).is_empty()).map(|r| r.name).collect();
    assert!(survivors.is_empty(), "rows that pass with their witness injected: {survivors:?}");
}

/// A guarded file that is renamed or removed fails every row that reads
/// it: a `grep FILE` on a missing file exits 2, which an `if` read as "no
/// match". Here each root of each row is taken away in turn.
#[test]
fn every_row_fails_when_a_root_is_missing() {
    let tree = load();
    let mut survivors = Vec::new();
    for row in ROWS {
        for root in row.scope.roots {
            let mut copy = tree.clone();
            copy.retain(|p, _| !under(p, root));
            if row.failures(&copy).is_empty() {
                survivors.push(format!("{} without {root}", row.name));
            }
        }
    }
    assert!(survivors.is_empty(), "rows that pass on a missing root: {survivors:?}");
    // The case the shell let through: `crates/core/src/online.rs` moved away.
    let mut moved = tree.clone();
    let online = moved.remove("crates/core/src/online.rs").expect("online.rs is in the tree");
    moved.insert("crates/core/src/online_checker.rs".into(), online);
    let row = ROWS.iter().find(|r| r.name == "checker-node-map").expect("the row exists");
    assert_eq!(
        row.failures(&moved),
        ["crates/core/src/online.rs: missing or empty, so the row reads nothing"]
    );
}

/// The table is well formed, and only this file is exempt from it.
#[test]
fn the_table_is_well_formed_and_only_this_file_is_exempt() {
    assert_eq!(EXEMPT, ["tests/ratchet.rs"]);
    assert!(
        file!().ends_with(EXEMPT[0].trim_start_matches("tests/")),
        "the exempt file is this one"
    );
    let names: BTreeSet<&str> = ROWS.iter().map(|r| r.name).collect();
    assert_eq!(names.len(), ROWS.len(), "row names are unique");
    assert!(ROWS.iter().all(|r| !r.reason.is_empty() && !r.witness.is_empty() && r.pr > 0));
}

/// The line selectors and needles read what `awk` and `grep -E` read.
#[test]
fn selectors_and_needles_read_like_the_shell() {
    let src = "a\n#[cfg(test)]\nuse x;\nb\n#[cfg(test)]\n#[allow(x)]\nmod t {\n  c\n}\nd\n";
    let kept: Vec<&str> = nontest_lines(src).map(|(_, l)| l).collect();
    assert_eq!(kept, ["a", "b", "d"]);
    let before: Vec<&str> = select(src, Lines::BeforeTests).into_iter().map(|(_, l)| l).collect();
    assert_eq!(before, ["a"]);
    let item = "x\npub trait T {\n    fn a();\n}\n    fn b();\n";
    assert_eq!(select(item, Lines::Item("pub trait T")).len(), 3);
    assert!(
        Word("struct Core").matches("struct Core {")
            && !Word("struct Core").matches("struct Cores")
    );
    assert!(
        Spaced("dist:", "BTreeMap").matches("dist:   BTreeMap<u64>")
            && !Spaced("a:", "B").matches("a: x B")
    );
    assert!(Arg("f(").matches("f(3)") && !Arg("f(").matches("f()") && !Arg("f(").matches("f("));
    assert!(Start("    fp:").matches("    fp: u64") && !Start("    fp:").matches("     fp: u64"));
    assert_eq!(
        knob_names(r#"env::var("EDN_A") "EDN_B" EDN_"#, true),
        BTreeSet::from(["EDN_A".to_string()])
    );
    let paths: Vec<&str> =
        guide_paths("see crates/a.rs, (tests/b/) and xcrates/c or vendor/").into_iter().collect();
    assert_eq!(paths, ["crates/a.rs", "tests/b/"]);
    assert_eq!(reexported_names("pub use a::b::{C, D};\npub use e::{\n    F,\n};\nuse g::H;\n"), 3);
}

/// The guide readers: citations across comment lines, headings, and the
/// names a guide's code spans hold outside fences and the closed table.
#[test]
fn guide_readers_read_citations_headings_and_names() {
    let src = "//! see (G.md, *Why the\n//! arena*) and G.md, \"Two\"; not G.md *Three*\n";
    assert_eq!(cited_sections(src, "G.md"), [(1, "Why the arena".into()), (2, "Two".into())]);
    let guide = "# T\n## A `b`\n### C\n#### D\n";
    assert_eq!(headings(guide), BTreeSet::from(["A `b`".into(), "C".into()]));
    let guide = format!(
        "`A::b(x)` and `Vec<u8>`, `m.n`, `a/b`, `1 << 2`, `&x`\n```\n`Fenced`\n```\n\
         ## {CLOSED}\n| `Gone` |\n`Kept`\n## Next\n| `Row` |\n"
    );
    let want = [(1, "A::b"), (1, "Vec"), (7, "Kept"), (9, "Row")];
    assert_eq!(guide_names(&guide), want.map(|(l, n)| (l, n.to_string())));
}
