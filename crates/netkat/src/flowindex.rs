//! Compiled, indexed lookup for prioritized exact-match flow tables.
//!
//! [`FlowTable::lookup`] is a linear first-match scan — fine for the paper's
//! hand-built examples, but it dominates per-switch forwarding cost once
//! generated topologies push tables past a hundred rules. The tables this
//! workspace compiles have heavy *structure*, though: the global compiler,
//! the routing synthesizer, and the NES tag guards all emit long priority
//! runs of rules constraining the *same*
//! field set (e.g. hundreds of `tag=t, ip_dst=h → port` rules back to
//! back). The crate-private `CompiledTable` exploits that structure:
//!
//! * the rule list is split into maximal contiguous priority runs whose
//!   rules constrain the same fields (the run's *signature*);
//! * long runs become hash segments: a fingerprint of the run's
//!   `(value, …)` tuple maps straight to the first rule carrying it;
//! * short or all-wildcard runs stay linear scans.
//!
//! First-match semantics are preserved *exactly* — within a hash segment
//! the lowest-priority-index rule wins ties, a fingerprint hit is verified
//! against the rule unless the signature is a single field (whose
//! fingerprint is injective, so the hit *is* the match), collisions fall
//! back to scanning the run, and a packet missing one of a segment's
//! signature fields skips the whole segment (an exact-match test on an
//! absent field always fails). [`FlowTable::lookup_index`] remains the
//! executable reference semantics; the differential property tests below
//! hold the index to it on randomized tables.
//!
//! One index also answers for every *prefix* of its table: first-match
//! over `rules[..len]` needs no index of its own, because each hash map
//! already keeps the **first** rule carrying a fingerprint — if that rule
//! sits at or past `len`, no rule before `len` carries the tuple — and
//! scans simply stop at `len`. The segments were cut for the whole table,
//! so a prefix may be answered by a hash probe where its own index would
//! have scanned four rules (or the reverse); which strategy answers
//! changes, the answer does not. There is one walk, the bounded one: a
//! whole-table lookup is the bound that clips nothing. A second proptest
//! holds the walk to `table.prefix(len).lookup_index(pk)` for every `len`.
//!
//! The segments and the prefetch are the table's *layout*, and they depend
//! on the patterns alone: a rule's actions are read only after the walk has
//! picked it. So tables that test the same patterns in the same order share
//! one layout (`LayoutCache`) and keep their own rules; a lookup walks the
//! shared layout and reads its answer from its own rules. A third proptest
//! holds a layout to being shared exactly when the visible pattern
//! sequences are equal, and the walk through a shared layout to each
//! table's own prefix scan.
//!
//! [`ChainTables`] is the one type the rest of the workspace builds from
//! all this: tables in rows and columns (a plane's switches by tags, a
//! checker's switches by configurations), each row split into prefix
//! chains, one index per chain's longest table through one layout cache,
//! and a `(chain, len)` cell per table. The plane reads one cell per hop
//! ([`ChainTables::lookup_counted`], counting its hash probes into counters
//! the plane owns); the checker reads every configuration's first match at
//! once, one walk per chain ([`ChainTables::first_matches`]). Neither writes
//! to the index, so one instance serves every reader. A fourth proptest
//! pins the two queries to each other and to every cell's own
//! [`FlowTable::lookup`]. The example is on [`ChainTables`].

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use crate::field::{Field, Value};
use crate::flowtable::{prefix_chains, FlowTable, Rule};
use crate::hash::FxBuildHasher;
use crate::packet::FieldReader;

/// Minimum run length worth a hash segment; shorter runs scan faster than
/// they hash.
const HASH_RUN_MIN: usize = 4;

/// A maximal contiguous priority run of rules, with its lookup strategy.
#[derive(Clone, Debug)]
enum Segment {
    /// Linear first-match scan over `rules[start..end]` (short or
    /// wildcard-heavy runs).
    Scan {
        /// First rule index of the run.
        start: u32,
        /// One past the last rule index of the run.
        end: u32,
    },
    /// Hashed exact-match over a run whose rules share one signature.
    Hash(HashSegment),
}

/// A hash segment: every rule in `rules[start..end]` constrains exactly
/// the fields in `fields`, so a value-tuple fingerprint resolves the
/// first match in O(1).
#[derive(Clone, Debug)]
struct HashSegment {
    /// The signature: the fields every rule in the run constrains, in
    /// field order.
    fields: Vec<Field>,
    /// For each signature field: its slot in the table's prefetch cache
    /// (see [`Layout::prefetch`]), in the same order as `fields`.
    slots: Vec<u16>,
    /// First rule index of the run.
    start: u32,
    /// One past the last rule index of the run.
    end: u32,
    /// Fingerprint of a rule's value tuple → the first (highest-priority)
    /// rule index carrying that tuple. Collisions (impossible with one
    /// field) are resolved at lookup time by verifying the candidate and
    /// falling back to a run scan.
    map: FingerprintMap,
}

/// Fingerprints are already uniformly mixed, so the map skips SipHash and
/// uses the key bits directly.
type FingerprintMap = HashMap<u64, u32, BuildHasherDefault<IdentityHasher>>;

/// A hasher that passes 8-byte keys through unchanged — sound here because
/// every key is a [`fp_mix`] output (avalanched), never attacker-chosen.
#[derive(Clone, Debug, Default)]
struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only u64 keys are ever hashed; fold bytes for completeness.
        for &b in bytes {
            self.0 = (self.0 << 8) | b as u64;
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

impl HashSegment {
    /// The fingerprint of the packet's values on this segment's signature,
    /// or `None` if the packet lacks one of the fields (in which case no
    /// rule in the run can match: each tests that field).
    fn fingerprint_of<R: FieldReader>(&self, pk: &R) -> Option<u64> {
        let mut h = FP_SEED;
        for &f in &self.fields {
            h = fp_mix(h, pk.read(f)?);
        }
        Some(h)
    }

    /// [`fingerprint_of`](HashSegment::fingerprint_of) against the
    /// table-wide prefetch cache instead of the packet: the values were
    /// read once up front, so a multi-segment walk never re-reads a
    /// field.
    fn fingerprint_cached(&self, cache: &[Option<Value>; PREFETCH_CAP]) -> Option<u64> {
        let mut h = FP_SEED;
        for &slot in &self.slots {
            h = fp_mix(h, cache[slot as usize]?);
        }
        Some(h)
    }
}

/// Capacity of the stack-allocated prefetch cache. Tables whose hash
/// segments together constrain more distinct fields than this (only
/// possible with many `Custom` fields) fall back to per-segment reads.
const PREFETCH_CAP: usize = 16;

const FP_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// One round of a SplitMix64-style mixer, chaining `value` into `h`.
///
/// For a fixed `h` this is a bijection on `u64`: every step — multiply by
/// an odd constant, xor with `h`, add a constant, `z ^ (z >> k)` — is
/// invertible. So a fingerprint of **one** value, `fp_mix(FP_SEED, v)`,
/// identifies `v` exactly, and a single-field hash segment's map hit needs
/// no second comparison; chaining a second value folds 128 bits into 64 and
/// loses that.
fn fp_mix(h: u64, value: Value) -> u64 {
    let mut z = h ^ value.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = z.wrapping_add(FP_SEED);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What a table's patterns alone decide: the segment list and the field
/// prefetch. Actions play no part in it, so tables that test the same
/// patterns in the same order — every switch of a generated topology routes
/// the same `ip_dst` patterns in the same host order — can share one
/// ([`LayoutCache`]), each keeping its own rules.
#[derive(Debug, Default)]
struct Layout {
    segments: Vec<Segment>,
    /// The union of every hash segment's signature, deduplicated in field
    /// order. When two or more hash segments exist (the NES tables'
    /// shape: one run per tag block, all constraining `tag, ip_dst`), a
    /// lookup reads each of these fields **once** into a stack cache and
    /// fingerprints every segment from it, instead of re-reading the
    /// packet per segment.
    prefetch: Vec<Field>,
    /// Use the prefetch cache? (≥ 2 hash segments and the union fits
    /// [`PREFETCH_CAP`]; otherwise per-segment reads are cheaper.)
    prefetched: bool,
}

/// A flow table compiled for fast lookup.
///
/// Built once from a [`FlowTable`]; holds the table's own rule list (one
/// reference count, see [`FlowTable`] — no rule is copied, and a lookup
/// reaches a rule through the same two loads a `Vec` would take) and the
/// segment index over the rules the table holds, which tables with the same
/// patterns may share ([`ChainTables`] builds them so).
/// Lookup results are *identical* to the source table's — see the module
/// docs for the construction and the differential tests — and the same
/// index answers for any of the table's prefixes ([`ChainTables`]' cells).
#[derive(Clone, Default)]
pub(crate) struct CompiledTable {
    /// The source table's list; only `rules[..len]` is indexed.
    rules: Arc<[Rule]>,
    /// The source table's length: every index the segments hold is below it.
    len: usize,
    /// Built from `rules[..len]`'s patterns, or from equal ones.
    layout: Arc<Layout>,
}

/// The indexed rules only, like [`FlowTable`]'s: what the list holds past
/// `len` is not this table's.
impl fmt::Debug for CompiledTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledTable")
            .field("rules", &&self.rules[..self.len])
            .field("layout", &self.layout)
            .finish()
    }
}

/// "No layout": the end of a [`LayoutCache`] candidate list.
const NONE: u32 = u32::MAX;

/// Compiles tables, building one layout per distinct pattern sequence.
///
/// A table whose patterns equal an earlier table's, rule for rule
/// ([`FlowTable::same_patterns`]), gets that table's layout; its rules
/// stay its own, so every lookup answers exactly as an index
/// built for the table alone would. The candidate is the layout the
/// previous table got — tables come in topology order, where most repeat
/// their predecessor's patterns — or one found by
/// [`FlowTable::pattern_fingerprint`], and it is taken only if the
/// comparison accepts it: a fingerprint alone may collide, and would hand
/// one table another's forwarding.
#[derive(Debug, Default)]
pub(crate) struct LayoutCache {
    /// Fingerprint → the last layout built under it.
    heads: HashMap<u64, u32, FxBuildHasher>,
    /// Each layout, the table it was built from, and the layout built
    /// before it under the same fingerprint ([`NONE`] for none).
    built: Vec<(FlowTable, Arc<Layout>, u32)>,
    /// The layout the previous call returned.
    last: usize,
}

impl LayoutCache {
    /// Compiles `table`, on an earlier table's layout if their patterns
    /// are equal.
    pub(crate) fn compile(&mut self, table: &FlowTable) -> CompiledTable {
        if !self.built.get(self.last).is_some_and(|(first, _, _)| first.same_patterns(table)) {
            let head = self.heads.entry(table.pattern_fingerprint()).or_insert(NONE);
            let mut at = *head;
            while at != NONE && !self.built[at as usize].0.same_patterns(table) {
                at = self.built[at as usize].2;
            }
            if at == NONE {
                self.built.push((table.clone(), Arc::new(Layout::build(table)), *head));
                at = (self.built.len() - 1) as u32;
                *head = at;
            }
            self.last = at as usize;
        }
        CompiledTable::on_layout(table, Arc::clone(&self.built[self.last].1))
    }

    /// How many distinct layouts have been built.
    pub(crate) fn len(&self) -> usize {
        self.built.len()
    }
}

/// Tables in rows and columns — a plane's switches by tags, a checker's
/// switches by configurations — stored as *prefix chains*: each row's
/// tables, in column order, split where one neither extends the longest
/// so far nor is a prefix of it. A chain's longest table is compiled once
/// (through one layout cache for all rows, so chains that test the same
/// patterns share one segment layout) and a cell is `(chain, len)`,
/// so the guard "column `c` holds rule `k`" is the bound `k < len` and no
/// rule is copied per column.
///
/// Two queries read the same index:
/// [`lookup_counted`](ChainTables::lookup_counted), one cell's first match,
/// for a plane's hop; and
/// [`first_matches`](ChainTables::first_matches), the first match of every
/// column in a mask, one walk per chain, for a checker's.
///
/// # Examples
///
/// ```
/// use netkat::{ActionSet, ChainTables, Field, FlowTable, Match, Packet, Rule};
/// let rule = |h| Rule::new(Match::new().with(Field::IpDst, h), ActionSet::pass());
/// let whole = FlowTable::from_rules((0..4).map(rule));
/// // One row, three columns: two views of one list and a table of its own.
/// let row = [whole.prefix(2), whole.clone(), FlowTable::from_rules([rule(9)])];
/// let tables = ChainTables::build(3, std::iter::once(row.iter()));
/// assert_eq!((tables.chains(), tables.indexed_rules()), (2, 5));
/// let pk = Packet::new().with(Field::IpDst, 3);
/// let mut probes = (0, 0);
/// assert_eq!(tables.lookup_counted(0, 0, &pk, &mut probes), None);
/// assert_eq!(tables.lookup_counted(0, 1, &pk, &mut probes), Some(&rule(3)));
/// // Column 1's hash probe hit; column 0's candidate lay past its end.
/// assert_eq!(probes, (1, 0));
/// let mut won = Vec::new();
/// tables.first_matches(0, 0b111, &pk, |rule, mask| won.push((rule.clone(), mask)));
/// assert_eq!(won, [(rule(3), 0b010)]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ChainTables {
    chains: Vec<Chain>,
    /// `cells[row * columns + column]` → `(chain, how many of its rules the
    /// column's table holds)`: a lookup's dispatch is one multiply and two
    /// array reads.
    cells: Vec<(u32, u32)>,
    /// Row width of `cells`.
    columns: usize,
    /// How many distinct layouts the chains' indexes share.
    layouts: usize,
}

/// One prefix chain of a row.
#[derive(Clone, Debug)]
struct Chain {
    /// The index over the chain's longest table.
    table: CompiledTable,
    /// The members' columns, those a `u64` names (bit `c` is column `c`).
    members: u64,
    /// The shortest member's length: every member holds the rules before it.
    shortest: u32,
}

impl ChainTables {
    /// Stores `rows`, each `columns` tables in column order.
    pub fn build<'a, R: IntoIterator<Item = &'a FlowTable>>(
        columns: usize,
        rows: impl ExactSizeIterator<Item = R>,
    ) -> ChainTables {
        let mut layouts = LayoutCache::default();
        let mut chains = Vec::new();
        let mut cells = Vec::with_capacity(rows.len() * columns);
        let mut tables: Vec<&FlowTable> = Vec::with_capacity(columns);
        for row in rows {
            tables.clear();
            tables.extend(row);
            debug_assert_eq!(tables.len(), columns, "one table per column");
            for (longest, members) in prefix_chains(&tables) {
                let chain = chains.len() as u32;
                let lens = tables[members.clone()].iter().map(|t| t.len() as u32);
                cells.extend(lens.clone().map(|len| (chain, len)));
                chains.push(Chain {
                    table: layouts.compile(longest),
                    members: members.filter(|&c| c < 64).fold(0, |m, c| m | 1 << c),
                    shortest: lens.min().unwrap_or(0),
                });
            }
        }
        ChainTables { chains, cells, columns, layouts: layouts.len() }
    }

    /// The first rule of the table at `(row, column)` that matches `view`
    /// (`None` for a cell outside the stored rows and columns), adding the
    /// hash probe's outcome to the caller's `(confirmed hits, fallback
    /// scans)`: a plane's per-run counts, kept beside the shared index.
    pub fn lookup_counted<R: FieldReader>(
        &self,
        row: usize,
        column: u64,
        view: &R,
        probes: &mut (u64, u64),
    ) -> Option<&Rule> {
        if column >= self.columns as u64 {
            return None;
        }
        let &(chain, len) = self.cells.get(row * self.columns + column as usize)?;
        let table = &self.chains[chain as usize].table;
        table.lookup_index_counted(len as usize, view, probes).map(|i| &table.rules[i])
    }

    /// Calls `each(rule, mask)` once per chain of `row` that holds the first
    /// match of some column in `columns` (bit `c` is column `c`): `mask`
    /// holds exactly the columns of `columns` whose table's first match for
    /// `view` is `rule`. The masks are disjoint, and a column whose table
    /// matches nothing is in none.
    ///
    /// Each chain is walked once: every member is a prefix of the chain's
    /// longest table, so if that table's first match is rule `at`, a member
    /// longer than `at` matches it first and a shorter one matches nothing.
    pub fn first_matches<'s, R: FieldReader>(
        &'s self,
        row: usize,
        columns: u64,
        view: &R,
        mut each: impl FnMut(&'s Rule, u64),
    ) {
        let Some(cells) = self.cells.get(row * self.columns..(row + 1) * self.columns) else {
            return;
        };
        // The columns past the row name no cell; a row of 64 or more
        // columns keeps every bit (`1 << 64` would overflow).
        let mut want = match self.columns {
            n @ 0..64 => columns & ((1 << n) - 1),
            _ => columns,
        };
        while want != 0 {
            let chain = &self.chains[cells[want.trailing_zeros() as usize].0 as usize];
            let mut won = want & chain.members;
            want &= !won;
            let Some(at) = chain.table.lookup_index_counted(chain.table.len, view, &mut (0, 0))
            else {
                continue;
            };
            if at >= chain.shortest as usize {
                // Past the shortest member's end: only the longer ones hold it.
                let mut left = won;
                while left != 0 {
                    let c = left.trailing_zeros();
                    left &= left - 1;
                    if cells[c as usize].1 as usize <= at {
                        won &= !(1 << c);
                    }
                }
            }
            if won != 0 {
                each(&chain.table.rules[at], won);
            }
        }
    }

    /// How many rows are stored.
    pub fn rows(&self) -> usize {
        self.cells.len().checked_div(self.columns).unwrap_or(0)
    }

    /// How many prefix chains, so how many indexes, the rows fall into.
    pub fn chains(&self) -> usize {
        self.chains.len()
    }

    /// How many distinct segment layouts the indexes share.
    pub fn layouts(&self) -> usize {
        self.layouts
    }

    /// How many rules the indexes cover: each chain's longest table's.
    pub fn indexed_rules(&self) -> usize {
        self.chains.iter().map(|chain| chain.table.len()).sum()
    }

    /// How many cells the rows hold.
    pub fn cells(&self) -> usize {
        self.cells.len()
    }
}

/// Splits `rules` into signature runs; adjacent scan runs are merged.
fn segment_runs(rules: &[Rule]) -> Vec<Segment> {
    let hi = rules.len();
    let mut segments: Vec<Segment> = Vec::new();
    let mut i = 0;
    while i < hi {
        let sig: Vec<Field> = rules[i].pattern.iter().map(|(f, _)| f).collect();
        let mut j = i + 1;
        while j < hi && rules[j].pattern.iter().map(|(f, _)| f).eq(sig.iter().copied()) {
            j += 1;
        }
        if !sig.is_empty() && j - i >= HASH_RUN_MIN {
            let mut map = FingerprintMap::with_capacity_and_hasher(j - i, Default::default());
            for (k, rule) in rules.iter().enumerate().take(j).skip(i) {
                let mut h = FP_SEED;
                for (_, v) in rule.pattern.iter() {
                    h = fp_mix(h, v);
                }
                // First match wins: duplicate tuples keep the
                // highest-priority rule.
                map.entry(h).or_insert(k as u32);
            }
            segments.push(Segment::Hash(HashSegment {
                fields: sig,
                slots: Vec::new(),
                start: i as u32,
                end: j as u32,
                map,
            }));
        } else {
            // Merge adjacent scan runs into one segment.
            match segments.last_mut() {
                Some(Segment::Scan { end, .. }) if *end == i as u32 => *end = j as u32,
                _ => segments.push(Segment::Scan { start: i as u32, end: j as u32 }),
            }
        }
        i = j;
    }
    segments
}

impl Layout {
    /// Splits `table` into signature runs, hashes the long ones, and
    /// derives the cross-segment field prefetch.
    fn build(table: &FlowTable) -> Layout {
        let (rules, len) = table.shared_rules();
        let mut segments = segment_runs(&rules[..len]);
        let mut prefetch_set: BTreeSet<Field> = BTreeSet::new();
        let mut hash_segments = 0usize;
        for segment in &segments {
            if let Segment::Hash(seg) = segment {
                hash_segments += 1;
                prefetch_set.extend(seg.fields.iter().copied());
            }
        }
        let prefetch: Vec<Field> = prefetch_set.into_iter().collect();
        let prefetched = hash_segments >= 2 && prefetch.len() <= PREFETCH_CAP;
        if prefetched {
            for segment in &mut segments {
                if let Segment::Hash(seg) = segment {
                    seg.slots = seg
                        .fields
                        .iter()
                        .map(|f| {
                            prefetch.iter().position(|p| p == f).expect("field in union") as u16
                        })
                        .collect();
                }
            }
        }
        Layout { segments, prefetch, prefetched }
    }
}

impl CompiledTable {
    /// `table` indexed by `layout`, which was built from its patterns or
    /// from equal ones.
    fn on_layout(table: &FlowTable, layout: Arc<Layout>) -> CompiledTable {
        let (rules, len) = table.shared_rules();
        CompiledTable { rules: Arc::clone(rules), len, layout }
    }

    /// The indexed `table.prefix(len).lookup_index(pk)`: the first rule
    /// among this table's first `len` that matches `pk`, from the index of
    /// the whole table. A deployment whose tables extend one another
    /// compiles the longest and serves the others through this.
    ///
    /// Exact for any table and any `len` (one past the table's length
    /// bounds nothing): a hash segment's map keeps the *first* rule
    /// carrying each fingerprint, so a candidate at or past `len` means no
    /// rule before `len` carries the packet's tuple (true of the unverified
    /// single-field hit as well); scan runs and the collision fallback stop
    /// at `len`; and no segment starting at or past `len` is entered.
    /// The answering hash segment's outcome is added to `probes`: a
    /// confirmed fingerprint hit to `.0`, a fallback to the scan to `.1`.
    pub(crate) fn lookup_index_counted<R: FieldReader>(
        &self,
        len: usize,
        pk: &R,
        probes: &mut (u64, u64),
    ) -> Option<usize> {
        // Rule indexes are `u32` throughout the index.
        let len = len.min(self.len) as u32;
        // The cache (and its initialization cost) exists only on the
        // prefetched path; single-segment tables go straight to
        // per-segment reads.
        if self.layout.prefetched {
            let mut cache = [None::<Value>; PREFETCH_CAP];
            for (slot, &f) in self.layout.prefetch.iter().enumerate() {
                cache[slot] = pk.read(f);
            }
            self.walk_segments(len, pk, |seg| seg.fingerprint_cached(&cache), probes)
        } else {
            self.walk_segments(len, pk, |seg| seg.fingerprint_of(pk), probes)
        }
    }

    /// The segment walk over `rules[..len]`, generic over where hash
    /// fingerprints come from (the prefetch cache or direct packet reads),
    /// counting into `probes`.
    fn walk_segments<R: FieldReader>(
        &self,
        len: u32,
        pk: &R,
        fingerprint: impl Fn(&HashSegment) -> Option<u64>,
        probes: &mut (u64, u64),
    ) -> Option<usize> {
        for segment in &self.layout.segments {
            match segment {
                Segment::Scan { start, end } => {
                    if *start >= len {
                        break;
                    }
                    if let Some(i) = self.scan(*start, (*end).min(len), pk) {
                        return Some(i);
                    }
                }
                Segment::Hash(seg) => {
                    if seg.start >= len {
                        break;
                    }
                    let Some(fp) = fingerprint(seg) else { continue };
                    // The map holds the first rule with this fingerprint:
                    // past the bound, the prefix has none.
                    let Some(&candidate) = seg.map.get(&fp).filter(|&&c| c < len) else {
                        continue;
                    };
                    // A one-field fingerprint is injective (see `fp_mix`):
                    // the hit is the match. Wider ones can collide.
                    if seg.fields.len() == 1
                        || self.rules[candidate as usize].pattern.matches_on(pk)
                    {
                        probes.0 += 1;
                        return Some(candidate as usize);
                    }
                    // Fingerprint collision: the run still decides by scan.
                    probes.1 += 1;
                    if let Some(i) = self.scan(seg.start, seg.end.min(len), pk) {
                        return Some(i);
                    }
                }
            }
        }
        None
    }

    fn scan<R: FieldReader>(&self, start: u32, end: u32, pk: &R) -> Option<usize> {
        self.rules[start as usize..end as usize]
            .iter()
            .position(|r| r.pattern.matches_on(pk))
            .map(|i| start as usize + i)
    }

    /// Number of rules.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the two tables are indexed by one layout (see
    /// [`LayoutCache`]).
    #[cfg(test)]
    fn shares_layout(&self, other: &CompiledTable) -> bool {
        Arc::ptr_eq(&self.layout, &other.layout)
    }
}

/// The count-free queries, for tests that compare answers only.
#[cfg(test)]
impl ChainTables {
    /// [`lookup_counted`](ChainTables::lookup_counted), counting nothing.
    pub(crate) fn lookup_on<R: FieldReader>(
        &self,
        row: usize,
        column: u64,
        view: &R,
    ) -> Option<&Rule> {
        self.lookup_counted(row, column, view, &mut (0, 0))
    }
}

#[cfg(test)]
impl CompiledTable {
    /// [`lookup_index_counted`](CompiledTable::lookup_index_counted),
    /// counting nothing.
    pub(crate) fn lookup_index_within<R: FieldReader>(&self, len: usize, pk: &R) -> Option<usize> {
        self.lookup_index_counted(len, pk, &mut (0, 0))
    }

    /// [`lookup_index_within`](CompiledTable::lookup_index_within),
    /// returning the rule.
    pub(crate) fn lookup_within<R: FieldReader>(&self, len: usize, pk: &R) -> Option<&Rule> {
        self.lookup_index_within(len, pk).map(|i| &self.rules[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{Action, ActionSet};
    use crate::flowtable::Match;
    use crate::packet::Packet;

    /// A compiled table and the probe counts of the lookups made through
    /// it, kept beside the table the way a plane keeps its own.
    pub(super) struct Counted {
        table: CompiledTable,
        probes: std::cell::Cell<(u64, u64)>,
    }

    impl Counted {
        pub(super) fn len(&self) -> usize {
            self.table.len()
        }

        /// [`CompiledTable::lookup_index_counted`] into this table's counts.
        pub(super) fn lookup_index_within(&self, len: usize, pk: &Packet) -> Option<usize> {
            let mut probes = self.probes.get();
            let at = self.table.lookup_index_counted(len, pk, &mut probes);
            self.probes.set(probes);
            at
        }

        pub(super) fn lookup_within(&self, len: usize, pk: &Packet) -> Option<&Rule> {
            self.lookup_index_within(len, pk).map(|i| &self.table.rules[i])
        }

        /// `(confirmed hits, fallback scans)` over every lookup so far.
        pub(super) fn lookup_stats(&self) -> (u64, u64) {
            self.probes.get()
        }
    }

    /// `table` indexed on a layout of its own, counting its probes.
    pub(super) fn compiled(table: &FlowTable) -> Counted {
        let table = CompiledTable::on_layout(table, Arc::new(Layout::build(table)));
        Counted { table, probes: Default::default() }
    }

    /// The whole table's first match, through the bounded walk.
    pub(super) fn lookup_index(compiled: &Counted, pk: &Packet) -> Option<usize> {
        compiled.lookup_index_within(compiled.len(), pk)
    }

    /// The indexed [`FlowTable::apply`]: the first match's output packets.
    pub(super) fn apply(compiled: &Counted, pk: &Packet) -> BTreeSet<Packet> {
        let rule = compiled.lookup_within(compiled.len(), pk);
        rule.map_or_else(BTreeSet::new, |rule| rule.actions.apply(pk))
    }

    /// How many rules the layout's hash segments cover (the rest are scanned).
    pub(super) fn hashed_rules(compiled: &Counted) -> usize {
        let hashed = compiled.table.layout.segments.iter().map(|segment| match segment {
            Segment::Hash(seg) => (seg.end - seg.start) as usize,
            Segment::Scan { .. } => 0,
        });
        hashed.sum()
    }

    fn assert_equivalent(table: &FlowTable, pk: &Packet) {
        let compiled = compiled(table);
        assert_eq!(lookup_index(&compiled, pk), table.lookup_index(pk), "lookup index on {pk}");
        assert_eq!(apply(&compiled, pk), table.apply(pk), "apply on {pk}");
    }

    fn exact(field: Field, v: Value, out: u64) -> Rule {
        Rule::new(Match::new().with(field, v), ActionSet::single(Action::assign(Field::Port, out)))
    }

    #[test]
    fn empty_table_drops_on_both_paths() {
        let table = FlowTable::new();
        let compiled = compiled(&table);
        assert_eq!(compiled.len(), 0);
        assert_eq!(compiled.table.layout.segments.len(), 0);
        for pk in [Packet::new(), Packet::new().with(Field::IpDst, 3)] {
            assert_eq!(lookup_index(&compiled, &pk), None);
            assert!(apply(&compiled, &pk).is_empty());
            assert_equivalent(&table, &pk);
        }
    }

    #[test]
    fn all_wildcard_first_rule_shadows_everything() {
        // Rule 0 matches every packet; the hashable run after it is dead.
        let mut rules = vec![Rule::new(Match::new(), ActionSet::pass())];
        rules.extend((0..16).map(|h| exact(Field::IpDst, h, 1)));
        let table = FlowTable::from_rules(rules);
        let compiled = compiled(&table);
        assert_eq!(hashed_rules(&compiled), 16);
        for h in 0..20 {
            let pk = Packet::new().with(Field::IpDst, h);
            assert_eq!(lookup_index(&compiled, &pk), Some(0));
            assert_equivalent(&table, &pk);
        }
        assert_equivalent(&table, &Packet::new());
    }

    #[test]
    fn duplicate_patterns_first_wins_in_hash_and_scan_runs() {
        // Hash run: 6 rules, two carrying the same pattern.
        let mut rules: Vec<Rule> = (0..3).map(|h| exact(Field::IpDst, h, h + 1)).collect();
        rules.push(exact(Field::IpDst, 1, 99)); // duplicate of rules[1], lower priority
        rules.extend((3..5).map(|h| exact(Field::IpDst, h, h + 1)));
        let hashed = FlowTable::from_rules(rules.clone());
        assert!(hashed_rules(&compiled(&hashed)) >= 6);
        let pk = Packet::new().with(Field::IpDst, 1);
        assert_eq!(lookup_index(&compiled(&hashed), &pk), Some(1));
        assert_equivalent(&hashed, &pk);
        // Scan run: same duplicate below the hash threshold.
        let scanned = FlowTable::from_rules([exact(Field::Vlan, 7, 1), exact(Field::Vlan, 7, 2)]);
        assert_eq!(hashed_rules(&compiled(&scanned)), 0);
        let pk = Packet::new().with(Field::Vlan, 7);
        let index = compiled(&scanned);
        assert_eq!(index.lookup_within(index.len(), &pk), scanned.lookup(&pk));
        assert_equivalent(&scanned, &pk);
    }

    #[test]
    fn multicast_rule_emits_multiple_packets_on_both_paths() {
        let fanout = ActionSet::from_iter([
            Action::assign(Field::Port, 1),
            Action::assign(Field::Port, 2).set(Field::Vlan, 9),
        ]);
        let mut rules: Vec<Rule> = (0..8).map(|h| exact(Field::IpDst, h, h)).collect();
        rules[5] = Rule::new(Match::new().with(Field::IpDst, 5), fanout);
        let table = FlowTable::from_rules(rules);
        let pk = Packet::new().with(Field::IpDst, 5);
        assert_eq!(apply(&compiled(&table), &pk).len(), 2);
        assert_equivalent(&table, &pk);
    }

    #[test]
    fn match_add_contradiction_leaves_pattern_usable() {
        // The contradiction path: `add` refuses and leaves the match as-is,
        // so the resulting rule still hashes and matches identically.
        let mut m = Match::new().with(Field::IpDst, 4);
        assert!(!m.add(Field::IpDst, 5), "contradiction must be rejected");
        assert_eq!(m.get(Field::IpDst), Some(4));
        let mut rules: Vec<Rule> = (0..6).map(|h| exact(Field::IpDst, h, h)).collect();
        rules.insert(0, Rule::new(m, ActionSet::pass()));
        let table = FlowTable::from_rules(rules);
        for h in [4u64, 5] {
            assert_equivalent(&table, &Packet::new().with(Field::IpDst, h));
        }
    }

    #[test]
    fn packet_missing_a_signature_field_skips_the_segment() {
        let mut rules: Vec<Rule> = (0..8)
            .map(|h| {
                Rule::new(
                    Match::new().with(Field::IpDst, h).with(Field::Vlan, 1),
                    ActionSet::pass(),
                )
            })
            .collect();
        rules.push(Rule::new(Match::new(), ActionSet::single(Action::assign(Field::Port, 9))));
        let table = FlowTable::from_rules(rules);
        // No Vlan field: only the trailing wildcard can match.
        let pk = Packet::new().with(Field::IpDst, 3);
        assert_eq!(lookup_index(&compiled(&table), &pk), Some(8));
        assert_equivalent(&table, &pk);
    }

    #[test]
    fn prefetch_activates_on_multi_segment_tables_and_agrees() {
        // Two hash runs over different signatures plus a trailing
        // wildcard: the prefetch union is {Vlan, IpDst}; packets hitting
        // either run, missing one union field, or missing both must all
        // resolve exactly as the linear reference does.
        let mut rules: Vec<Rule> = (0..8).map(|h| exact(Field::IpDst, h, h)).collect();
        rules.extend((0..8).map(|v| exact(Field::Vlan, v, v)));
        rules.push(Rule::new(Match::new(), ActionSet::single(Action::assign(Field::Port, 9))));
        let table = FlowTable::from_rules(rules);
        for pk in [
            Packet::new().with(Field::IpDst, 3),
            Packet::new().with(Field::Vlan, 5),
            Packet::new().with(Field::IpDst, 3).with(Field::Vlan, 5),
            Packet::new().with(Field::TcpSrc, 1),
            Packet::new(),
        ] {
            assert_equivalent(&table, &pk);
        }
        // Single-run tables skip the cache (nothing to share across
        // segments) and still agree.
        let single = FlowTable::from_rules((0..8).map(|h| exact(Field::IpDst, h, h)));
        assert_equivalent(&single, &Packet::new().with(Field::IpDst, 2));
    }

    /// A pattern whose fields change under the same values fingerprints
    /// alike (the fingerprint reads values only), and the comparison keeps
    /// the two tables apart; the same patterns under other actions, built
    /// apart, share the first table's layout and answer with their own
    /// rules. Probes count into the caller's counters, not the shared
    /// layout: a lookup on each of two tables on one layout is one hit each.
    #[test]
    fn a_layout_is_shared_on_equal_patterns_only() {
        let dst: Vec<Rule> = (0..8).map(|h| exact(Field::IpDst, h, h)).collect();
        let vlan: Vec<Rule> = (0..8).map(|h| exact(Field::Vlan, h, h)).collect();
        let moved: Vec<Rule> = (0..8).map(|h| exact(Field::IpDst, h, 7 - h)).collect();
        let tables = [dst, vlan, moved].map(FlowTable::from_rules);
        assert_eq!(tables[0].pattern_fingerprint(), tables[1].pattern_fingerprint());
        assert!(!tables[0].same_patterns(&tables[1]) && tables[0].same_patterns(&tables[2]));
        let mut cache = LayoutCache::default();
        let [a, b, c] = tables.each_ref().map(|t| cache.compile(t));
        assert_eq!(cache.len(), 2);
        assert!(!a.shares_layout(&b) && a.shares_layout(&c));
        let pk = Packet::new().with(Field::IpDst, 2);
        let (mine, theirs) = (c.lookup_within(c.len(), &pk), a.lookup_within(a.len(), &pk));
        assert_eq!(mine, tables[2].lookup(&pk), "the table's own rule");
        assert_ne!(mine, theirs);
        let counted = |table: &CompiledTable| {
            let mut probes = (0, 0);
            table.lookup_index_counted(table.len(), &pk, &mut probes);
            probes
        };
        // `pk` has no `Vlan`, so `b`'s one segment is skipped uncounted.
        assert_eq!([&a, &b, &c].map(counted), [(1, 0), (0, 0), (1, 0)]);
    }

    #[test]
    fn segments_split_on_signature_change() {
        let mut rules: Vec<Rule> = (0..8).map(|h| exact(Field::IpDst, h, h)).collect();
        rules.extend((0..8).map(|v| exact(Field::Vlan, v, v)));
        rules.push(Rule::drop_all());
        let compiled = compiled(&FlowTable::from_rules(rules));
        // Two hash runs plus the trailing wildcard scan.
        assert_eq!(compiled.table.layout.segments.len(), 3);
        assert_eq!(hashed_rules(&compiled), 16);
        assert_eq!(compiled.len(), 17);
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::{apply, compiled, hashed_rules, lookup_index};
    use super::*;
    use crate::action::{Action, ActionSet};
    use crate::flowtable::Match;
    use crate::packet::Packet;
    use proptest::prelude::*;

    /// A small field universe keeps random packets colliding with random
    /// rules often enough to exercise hits, shadows, and misses alike.
    const FIELDS: [Field; 5] = [Field::Port, Field::Vlan, Field::IpSrc, Field::IpDst, Field::Tag];

    /// The inverse of `x * m` on `u64` for odd `m` (Newton's iteration:
    /// each round doubles the correct low bits).
    fn inverse_of_odd(m: u64) -> u64 {
        let mut x = m;
        for _ in 0..6 {
            x = x.wrapping_mul(2u64.wrapping_sub(m.wrapping_mul(x)));
        }
        x
    }

    /// The inverse of `z ^ (z >> k)`: the top `k` bits are already right,
    /// and each round fixes `k` more below them.
    fn unxorshift(y: u64, k: u32) -> u64 {
        let mut z = y;
        for _ in 0..64 / k {
            z = y ^ (z >> k);
        }
        z
    }

    /// `fp_mix(h, ·)` undone step by step, last step first: the value that
    /// chains onto `h` to give `fp`.
    fn unmix(h: u64, fp: u64) -> Value {
        let mut z = unxorshift(fp, 31);
        z = unxorshift(z.wrapping_mul(inverse_of_odd(0x94D0_49BB_1331_11EB)), 27);
        z = unxorshift(z.wrapping_mul(inverse_of_odd(0xBF58_476D_1CE4_E5B9)), 30);
        z = z.wrapping_sub(FP_SEED);
        (z ^ h).wrapping_mul(inverse_of_odd(0xBF58_476D_1CE4_E5B9))
    }

    fn arb_signature() -> impl Strategy<Value = Vec<Field>> {
        proptest::collection::vec(0usize..FIELDS.len(), 0..4).prop_map(|ix| {
            let mut fields: Vec<Field> = ix.into_iter().map(|i| FIELDS[i]).collect();
            fields.sort();
            fields.dedup();
            fields
        })
    }

    fn arb_actions() -> impl Strategy<Value = ActionSet> {
        prop_oneof![
            Just(ActionSet::drop()),
            Just(ActionSet::pass()),
            (0usize..FIELDS.len(), 0u64..4)
                .prop_map(|(i, v)| ActionSet::single(Action::assign(FIELDS[i], v))),
            (0usize..FIELDS.len(), 0u64..4, 0usize..FIELDS.len(), 0u64..4).prop_map(
                |(i, v, j, w)| {
                    // Multicast: two actions (which may coincide).
                    ActionSet::from_iter([
                        Action::assign(FIELDS[i], v),
                        Action::assign(FIELDS[j], w),
                    ])
                }
            ),
        ]
    }

    fn rule_from(sig: &[Field], values: &[Value], actions: ActionSet) -> Rule {
        let pattern: Match = sig.iter().copied().zip(values.iter().copied()).collect();
        Rule::new(pattern, actions)
    }

    /// Fully random rules: signatures change rule to rule, so compiled
    /// tables are scan-heavy with occasional short hash runs.
    fn arb_rules_random() -> impl Strategy<Value = Vec<Rule>> {
        let rule = (arb_signature(), proptest::collection::vec(0u64..4, 4), arb_actions())
            .prop_map(|(sig, vals, actions)| rule_from(&sig, &vals, actions));
        proptest::collection::vec(rule, 0..48)
    }

    /// Blocky rules: a few long same-signature runs (up to 8 × 64 = 512
    /// rules), the shape the compilers emit and the index hashes.
    fn arb_rules_blocky() -> impl Strategy<Value = Vec<Rule>> {
        let block = (
            arb_signature(),
            proptest::collection::vec(
                (proptest::collection::vec(0u64..6, 4), arb_actions()),
                1..65,
            ),
        )
            .prop_map(|(sig, rows)| {
                rows.into_iter()
                    .map(|(vals, actions)| rule_from(&sig, &vals, actions))
                    .collect::<Vec<Rule>>()
            });
        proptest::collection::vec(block, 1..9)
            .prop_map(|blocks| blocks.into_iter().flatten().collect())
    }

    /// Long single-field runs, where a fingerprint hit is taken as the
    /// match unverified: each block installs full-width values that differ
    /// from their neighbours in a bit or two, and [`near_installed`] probes
    /// one bit away from them.
    fn arb_rules_single_field() -> impl Strategy<Value = Vec<Rule>> {
        let block = (
            0usize..FIELDS.len(),
            any::<u64>(),
            proptest::collection::vec((0u32..64, 0u32..64, arb_actions()), 4..65),
        )
            .prop_map(|(f, base, rows)| {
                rows.into_iter()
                    .map(|(i, j, actions)| {
                        rule_from(&[FIELDS[f]], &[base ^ (1 << i) ^ (1 << j)], actions)
                    })
                    .collect::<Vec<Rule>>()
            });
        proptest::collection::vec(block, 1..5)
            .prop_map(|blocks| blocks.into_iter().flatten().collect())
    }

    fn arb_table() -> impl Strategy<Value = FlowTable> {
        prop_oneof![
            arb_rules_random().prop_map(FlowTable::from_rules),
            arb_rules_blocky().prop_map(FlowTable::from_rules),
            arb_rules_single_field().prop_map(FlowTable::from_rules),
        ]
    }

    /// For every single-field rule picked, packets carrying its value and
    /// that value with one bit flipped.
    fn near_installed(table: &FlowTable, picks: &[(usize, Option<(usize, Value)>)]) -> Vec<Packet> {
        let singles: Vec<(Field, Value)> = table
            .iter()
            .filter(|r| r.pattern.iter().count() == 1)
            .flat_map(|r| r.pattern.iter())
            .collect();
        if singles.is_empty() {
            return Vec::new();
        }
        picks
            .iter()
            .flat_map(|&(pick, _)| {
                let (f, v) = singles[pick % singles.len()];
                let bit = 1u64 << (pick / singles.len() % 64);
                [Packet::new().with(f, v), Packet::new().with(f, v ^ bit)]
            })
            .collect()
    }

    fn arb_packet() -> impl Strategy<Value = Packet> {
        proptest::collection::vec((0usize..FIELDS.len(), 0u64..6), 0..5)
            .prop_map(|fs| fs.into_iter().map(|(i, v)| (FIELDS[i], v)).collect())
    }

    /// Recipes for packets *derived from the table*: take rule
    /// `pick % len`'s own pattern (a guaranteed candidate hit) and
    /// optionally overwrite one field — producing near-misses, shadowed
    /// hits, and wildcard fallthroughs.
    fn arb_derivations() -> impl Strategy<Value = Vec<(usize, Option<(usize, Value)>)>> {
        proptest::collection::vec(
            (0usize..4096, proptest::option::of((0usize..FIELDS.len(), 0u64..6))),
            0..6,
        )
    }

    fn derived_packets(
        table: &FlowTable,
        picks: &[(usize, Option<(usize, Value)>)],
    ) -> Vec<Packet> {
        let rules: Vec<&Rule> = table.iter().collect();
        if rules.is_empty() {
            return Vec::new();
        }
        picks
            .iter()
            .map(|&(pick, tweak)| {
                let mut pk: Packet = rules[pick % rules.len()].pattern.iter().collect();
                if let Some((i, v)) = tweak {
                    pk.set(FIELDS[i], v);
                }
                pk
            })
            .collect()
    }

    /// A table derived from `base` by `kind`: the same rules built apart
    /// (0), other actions on one rule or on all (1, 2), one pattern's values
    /// or fields changed (3, 4), one rule dropped (5), two swapped (6), or a
    /// view of the base followed by more rules (7 and up). `i` and `j` pick
    /// the rules.
    fn variant(
        base: &[Rule],
        (kind, i, j, actions): (usize, usize, usize, ActionSet),
    ) -> FlowTable {
        let mut rules = base.to_vec();
        let n = rules.len();
        if n == 0 {
            return FlowTable::from_rules(rules);
        }
        let at = |f: Field| FIELDS.iter().position(|&g| g == f).expect("a field of ours");
        let next = |f: Field| FIELDS[(at(f) + 1) % FIELDS.len()];
        let rule = &mut rules[i % n];
        match kind {
            0 => {}
            1 => rule.actions = actions,
            2 => rules.iter_mut().for_each(|r| r.actions = actions.clone()),
            // A wildcard gains a test; any other pattern has every value moved.
            3 if rule.pattern.is_empty() => rule.pattern = Match::new().with(Field::Tag, 9),
            3 => rule.pattern = rule.pattern.iter().map(|(f, v)| (f, v.wrapping_add(1))).collect(),
            4 => rule.pattern = rule.pattern.iter().map(|(f, v)| (next(f), v)).collect(),
            5 => drop(rules.remove(i % n)),
            6 => rules.swap(i % n, j % n),
            _ => {
                rules.push(Rule::new(Match::new(), actions));
                return FlowTable::from_rules(rules).prefix(n);
            }
        }
        FlowTable::from_rules(rules)
    }

    /// A column's table in a row over `base`: a prefix view of one shared
    /// list `whole` (0) or that list itself (1), an equal prefix built apart
    /// (2), the list extended by a repeat of one of its rules (3), an empty
    /// table (4), or one of [`variant`]'s near misses, mid-list rewrites
    /// among them (5 and up).
    fn cell(
        whole: &FlowTable,
        base: &[Rule],
        (kind, i, j, actions): (usize, usize, usize, ActionSet),
    ) -> FlowTable {
        let n = base.len();
        match kind {
            0 => whole.prefix(i % (n + 1)),
            1 => whole.clone(),
            2 => FlowTable::from_rules(base[..i % (n + 1)].iter().cloned()),
            3 if n > 0 => FlowTable::from_rules(base.iter().chain([&base[i % n]]).cloned()),
            3 | 4 => FlowTable::new(),
            _ => variant(base, (kind - 5, i, j, actions)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // The core correctness gate: applying the first match the index
        // finds is extensionally equal to the reference `FlowTable::apply`.
        #[test]
        fn compiled_apply_equals_reference(
            table in arb_table(),
            pks in proptest::collection::vec(arb_packet(), 1..8),
            picks in arb_derivations(),
        ) {
            let compiled = compiled(&table);
            prop_assert_eq!(compiled.len(), table.len());
            let probes = [derived_packets(&table, &picks), near_installed(&table, &picks)].concat();
            for pk in pks.iter().chain(probes.iter()) {
                prop_assert_eq!(apply(&compiled, pk), table.apply(pk), "apply diverged on {}", pk);
            }
        }

        // The index resolves to the *same rule index* as the reference
        // linear scan — not just an extensionally equal rule.
        #[test]
        fn compiled_lookup_index_equals_reference(
            table in arb_table(),
            pks in proptest::collection::vec(arb_packet(), 1..8),
            picks in arb_derivations(),
        ) {
            let compiled = compiled(&table);
            let probes = [derived_packets(&table, &picks), near_installed(&table, &picks)].concat();
            for pk in pks.iter().chain(probes.iter()) {
                let want = table.lookup_index(pk);
                prop_assert_eq!(lookup_index(&compiled, pk), want, "index diverged on {}", pk);
                prop_assert_eq!(
                    compiled.lookup_within(table.len(), pk),
                    table.lookup(pk),
                    "rule diverged on {}", pk
                );
            }
        }

        // The constructive form of "a one-field fingerprint is injective":
        // undoing `fp_mix`'s steps in reverse recovers the value, so no two
        // values share a fingerprint and a single-field map hit needs no
        // second comparison.
        #[test]
        fn one_value_fingerprint_inverts(v in any::<u64>(), small in 0u64..4096) {
            prop_assert_eq!(unmix(FP_SEED, fp_mix(FP_SEED, v)), v);
            prop_assert_eq!(unmix(FP_SEED, fp_mix(FP_SEED, small)), small);
        }

        // ...and why the shortcut stops at one field: with two, the same
        // inverse *constructs* a collision — a packet that differs from an
        // installed rule in both values and fingerprints like it. The index
        // must notice (the verification the one-field path skips), count a
        // fallback, and let the run's scan decide as the reference does.
        #[test]
        fn two_field_collisions_fall_back_to_the_scan(
            rows in proptest::collection::vec((0u64..6, 0u64..6, arb_actions()), 4..40),
            pick in 0usize..4096,
            other in 6u64..12,
        ) {
            let sig = [Field::Vlan, Field::IpDst];
            let table = FlowTable::from_rules(
                rows.into_iter().map(|(a, b, actions)| rule_from(&sig, &[a, b], actions)),
            );
            let victim = table.iter().nth(pick % table.len()).expect("in range");
            let victim: Vec<Value> = victim.pattern.iter().map(|(_, v)| v).collect();
            let fp = fp_mix(fp_mix(FP_SEED, victim[0]), victim[1]);
            let twin = unmix(fp_mix(FP_SEED, other), fp);
            let pk = Packet::new().with(sig[0], other).with(sig[1], twin);
            let compiled = compiled(&table);
            prop_assert_eq!(table.lookup_index(&pk), None, "no rule carries {}", other);
            prop_assert_eq!(lookup_index(&compiled, &pk), None);
            prop_assert_eq!(compiled.lookup_stats(), (0, 1));
        }

        // The bounded walk answers to the linear scan of the prefix: for
        // every `len`, one index of the whole table finds what
        // `table.prefix(len)` finds rule by rule — where the prefix cuts a
        // hash run, where it ends before one, and where
        // the whole run is a rule too short to have been hashed alone. The
        // counters move only on a hash segment's answer: a hit is a rule
        // the reference confirms, never a candidate the bound discarded.
        #[test]
        fn bounded_walk_equals_the_prefix_scan(
            table in arb_table(),
            pks in proptest::collection::vec(arb_packet(), 1..6),
            picks in arb_derivations(),
        ) {
            let compiled = compiled(&table);
            let probes = [derived_packets(&table, &picks), near_installed(&table, &picks)].concat();
            for len in 0..=table.len() {
                let prefix = table.prefix(len);
                for pk in pks.iter().chain(probes.iter()) {
                    let before = compiled.lookup_stats();
                    let want = prefix.lookup_index(pk);
                    prop_assert_eq!(
                        compiled.lookup_index_within(len, pk), want,
                        "first {} of {} rules diverged on {}", len, table.len(), pk
                    );
                    let after = compiled.lookup_stats();
                    let (hits, fallbacks) = (after.0 - before.0, after.1 - before.1);
                    prop_assert!(hits <= 1, "one segment answers a lookup");
                    prop_assert!(hits == 0 || want.is_some(), "a hit the scan does not confirm");
                    prop_assert!(fallbacks == 0, "small values never collide: {}", pk);
                    prop_assert_eq!(compiled.lookup_within(len, pk), prefix.lookup(pk));
                }
            }
            // A bound past the table's length is the whole table.
            for pk in pks.iter().chain(probes.iter()) {
                prop_assert_eq!(
                    compiled.lookup_index_within(table.len() + 1, pk),
                    table.lookup_index(pk)
                );
            }
        }

        // The two-field collision of the test above, cut by the bound, with
        // the twin's own tuple installed last so the fallback scan has
        // something to find: with the victim past the prefix the candidate
        // is discarded before it is compared and nothing is counted; with
        // the victim inside it the scan runs, stops at `len`, and reaches
        // the twin's rule only when the prefix is the whole table.
        #[test]
        fn bounded_collisions_fall_back_only_inside_the_prefix(
            rows in proptest::collection::vec((0u64..6, 0u64..6, arb_actions()), 4..40),
            pick in 0usize..4096,
            other in 6u64..12,
        ) {
            let sig = [Field::Vlan, Field::IpDst];
            let mut rules: Vec<Rule> =
                rows.into_iter().map(|(a, b, actions)| rule_from(&sig, &[a, b], actions)).collect();
            let victim: Vec<Value> =
                rules[pick % rules.len()].pattern.iter().map(|(_, v)| v).collect();
            // The map's candidate is the *first* rule carrying the tuple.
            let first = rules
                .iter()
                .position(|r| r.pattern.iter().map(|(_, v)| v).eq(victim.iter().copied()))
                .expect("the victim carries its own tuple");
            let fp = fp_mix(fp_mix(FP_SEED, victim[0]), victim[1]);
            let twin = unmix(fp_mix(FP_SEED, other), fp);
            let last = rules.len();
            rules.push(rule_from(&sig, &[other, twin], ActionSet::pass()));
            let table = FlowTable::from_rules(rules);
            let pk = Packet::new().with(sig[0], other).with(sig[1], twin);
            let own = Packet::new().with(sig[0], victim[0]).with(sig[1], victim[1]);
            for len in 0..=table.len() {
                let compiled = compiled(&table);
                let want = (last < len).then_some(last);
                prop_assert_eq!(table.prefix(len).lookup_index(&pk), want);
                prop_assert_eq!(compiled.lookup_index_within(len, &pk), want, "len {}", len);
                prop_assert_eq!(compiled.lookup_stats(), (0, u64::from(first < len)));
                // ...and the victim's own packet hits iff the prefix holds it.
                let want = (first < len).then_some(first);
                prop_assert_eq!(compiled.lookup_index_within(len, &own), want);
            }
        }

        // Layout sharing is decided by the visible patterns and nothing
        // else: across a family of tables derived from one base — other
        // actions, equal rules built apart, a view of a longer list, and the
        // near misses (one pattern changed, one rule dropped, two rules
        // swapped) — two tables share a layout exactly when their pattern
        // sequences are equal, and each answers every prefix with its own
        // rules as its own linear scan does.
        #[test]
        fn a_layout_is_shared_exactly_when_the_patterns_are_equal(
            base in prop_oneof![arb_rules_random(), arb_rules_single_field()],
            variants in proptest::collection::vec(
                (0usize..9, 0usize..4096, 0usize..4096, arb_actions()),
                1..6,
            ),
            pks in proptest::collection::vec(arb_packet(), 1..4),
            picks in arb_derivations(),
        ) {
            let mut family = vec![FlowTable::from_rules(base.iter().cloned())];
            family.extend(variants.into_iter().map(|v| variant(&base, v)));
            let mut cache = LayoutCache::default();
            let compiled: Vec<CompiledTable> = family.iter().map(|t| cache.compile(t)).collect();
            let patterns: Vec<Vec<Match>> =
                family.iter().map(|t| t.iter().map(|r| r.pattern.clone()).collect()).collect();
            let distinct: BTreeSet<&Vec<Match>> = patterns.iter().collect();
            prop_assert_eq!(cache.len(), distinct.len());
            for i in 0..family.len() {
                for j in 0..family.len() {
                    let equal = patterns[i] == patterns[j];
                    prop_assert_eq!(compiled[i].shares_layout(&compiled[j]), equal, "{} {}", i, j);
                    prop_assert_eq!(family[i].same_patterns(&family[j]), equal);
                    if equal {
                        prop_assert_eq!(
                            family[i].pattern_fingerprint(),
                            family[j].pattern_fingerprint()
                        );
                    }
                }
            }
            for (table, compiled) in family.iter().zip(&compiled) {
                let probes =
                    [derived_packets(table, &picks), near_installed(table, &picks)].concat();
                for len in 0..=table.len() {
                    let prefix = table.prefix(len);
                    for pk in pks.iter().chain(probes.iter()) {
                        prop_assert_eq!(
                            compiled.lookup_index_within(len, pk),
                            prefix.lookup_index(pk),
                            "first {} of {} rules diverged on {}", len, table.len(), pk
                        );
                        prop_assert_eq!(compiled.lookup_within(len, pk), prefix.lookup(pk));
                    }
                }
            }
        }

        // The two queries of one chain index, against each other and
        // against every cell's own linear scan: for every packet, a cell's
        // `lookup_on` is its table's `FlowTable::lookup`, and
        // `first_matches` hands each column of a mask exactly the rule
        // `lookup_on` finds for it — once, in disjoint masks, and never for a
        // column outside the mask or the row. Rows mix views of one list,
        // equal lists built apart, extensions, mid-list rewrites, empty
        // tables and repeated rules; a row of 64 columns makes a chain of
        // all 64 members possible.
        #[test]
        fn first_matches_agree_with_lookup_on_and_each_cell(
            rows in proptest::collection::vec(
                (
                    prop_oneof![arb_rules_random(), arb_rules_blocky()],
                    proptest::collection::vec(
                        (0usize..14, 0usize..4096, 0usize..4096, arb_actions()),
                        64,
                    ),
                ),
                1..4,
            ),
            columns in prop_oneof![1usize..9, Just(64usize)],
            masks in proptest::collection::vec(any::<u64>(), 1..4),
            pks in proptest::collection::vec(arb_packet(), 1..4),
            picks in arb_derivations(),
        ) {
            let tables: Vec<Vec<FlowTable>> = rows
                .iter()
                .map(|(base, kinds)| {
                    let whole = FlowTable::from_rules(base.iter().cloned());
                    kinds[..columns].iter().map(|k| cell(&whole, base, k.clone())).collect()
                })
                .collect();
            let chained = ChainTables::build(columns, tables.iter().map(|row| row.iter()));
            prop_assert_eq!(chained.rows(), tables.len());
            prop_assert_eq!(chained.cells(), tables.len() * columns);
            let masks: Vec<u64> = masks.into_iter().chain([u64::MAX]).collect();
            for (r, row) in tables.iter().enumerate() {
                let derived = row.iter().flat_map(|t| derived_packets(t, &picks));
                for pk in pks.iter().cloned().chain(derived) {
                    for c in 0..columns + 2 {
                        let want = row.get(c).and_then(|t| t.lookup(&pk));
                        prop_assert_eq!(
                            chained.lookup_on(r, c as u64, &pk), want,
                            "row {} column {} on {}", r, c, pk
                        );
                    }
                    for &mask in &masks {
                        let mut won: Vec<(&Rule, u64)> = Vec::new();
                        chained.first_matches(r, mask, &pk, |rule, m| won.push((rule, m)));
                        let mut seen = 0u64;
                        for &(_, m) in &won {
                            prop_assert!(m != 0 && m & seen == 0 && m & !mask == 0, "{:?}", won);
                            seen |= m;
                        }
                        for c in 0..64usize {
                            let got = won.iter().find(|(_, m)| m >> c & 1 != 0).map(|&(r, _)| r);
                            let want = (c < columns && mask >> c & 1 != 0)
                                .then(|| chained.lookup_on(r, c as u64, &pk))
                                .flatten();
                            prop_assert!(
                                got.map(std::ptr::from_ref) == want.map(std::ptr::from_ref),
                                "row {} column {} of mask {:#x} on {}", r, c, mask, pk
                            );
                        }
                    }
                }
            }
            // Past the last row, nothing answers.
            let pk = Packet::new();
            prop_assert_eq!(chained.lookup_on(tables.len(), 0, &pk), None);
            let mut none = true;
            chained.first_matches(tables.len(), u64::MAX, &pk, |_, _| none = false);
            prop_assert!(none);
        }

        // Structural sanity: segments partition the rule list, and every
        // rule is reachable (hashed or scanned).
        #[test]
        fn segments_partition_rules(table in arb_rules_blocky().prop_map(FlowTable::from_rules)) {
            let compiled = compiled(&table);
            prop_assert!(hashed_rules(&compiled) <= compiled.len());
            // Every rule's own pattern-packet resolves to a rule at least
            // as high priority as itself, on both paths equally.
            for (i, rule) in table.iter().enumerate() {
                let pk: Packet = rule.pattern.iter().collect();
                let got = lookup_index(&compiled, &pk);
                prop_assert_eq!(got, table.lookup_index(&pk));
                prop_assert!(got.is_some_and(|g| g <= i), "rule {} unreachable", i);
            }
        }
    }
}
