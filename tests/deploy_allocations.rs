//! Sharing regression: a campaign's rules are built once and passed along
//! — bodies, rule lists and indexes — not rebuilt or copied per stage.
//!
//! A counting `#[global_allocator]` watches the three stages a campaign run
//! goes through before its first event, on the fat-tree(4) × 4-update
//! campaign (20 switches × 5 configurations = 100 installed tables, 1,400
//! installed rules): `CompiledScenario::compile`, the deploy path the
//! benchmark times (`CompiledNes::compile(nes.clone())` +
//! `NesDataPlane::new`), and `CompiledScenario::engine`. A freshly built
//! `Rule` is five allocations (two reference counts, the `Match` map, the
//! `ActionSet` set, the `Action` map), a copied rule list is one and an
//! index about six (segment list, signature, fingerprint map, prefetch), so
//! each stage that rebuilds or copies shows up as a per-rule or per-table
//! term. Every step of this campaign only adds rules, so what is left after
//! sharing is per *switch*: one rule list, one index, and five `(list,
//! length)` views of them. Counts are per thread and repeat exactly; the
//! bounds are the measured counts (scenario compile 2,783 → 1,076 when the
//! routing synthesis stopped building a `Match` and an `ActionSet` per
//! rule, deploy 825 → 625 and `engine()` 859 → 659 when the rule lists
//! became shared, then 581 / 224 / 257 when a step that only adds rules
//! started sharing its predecessor's list and index, then 524 / 149 / 182
//! when a campaign's configurations started sharing one set of links and
//! hosts). A fourth leg watches `OnlineChecker::observer`, whose set-up
//! follows the same chains: its cost may not grow with the configurations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use edn_scenario::{parse, CompiledScenario};
use nes_runtime::{CompiledNes, NesDataPlane};
use netsim::DataPlane;

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

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// The benchmark's `--smoke` campaign shape: fat-tree(4), four probed
/// unblock steps.
fn campaign() -> CompiledScenario {
    campaign_of(4, 4)
}

/// A fat-tree(`size`) campaign of `updates` unblock steps, each of which
/// adds one rule per switch.
fn campaign_of(size: usize, updates: usize) -> CompiledScenario {
    let spec = parse(&format!(
        "[scenario]\n\
         name = \"alloc-fat-tree\"\n\
         seed = 2016\n\
         topology = \"fat_tree\"\n\
         size = {size}\n\
         [workload]\n\
         pattern = \"permutation\"\n\
         packets_per_flow = 3\n\
         [campaign]\n\
         updates = {updates}\n",
    ))
    .expect("pinned spec parses");
    CompiledScenario::compile(&spec).expect("pinned spec compiles")
}

#[test]
fn deploying_a_campaign_does_not_copy_rule_bodies() {
    let c = campaign();
    let switches = c.run.sim().switches().to_vec();
    let deploy = || {
        let before = allocations();
        let compiled = CompiledNes::compile(c.nes.clone());
        let forwarding = compiled.rule_breakdown().forwarding as u64;
        let plane = NesDataPlane::new(compiled, switches.clone(), false);
        let spent = allocations() - before;
        drop(plane);
        (spent, forwarding)
    };
    let (spent, forwarding) = deploy();
    assert_eq!(deploy().0, spent, "the allocation count repeats exactly");
    assert!(forwarding >= 1000, "the campaign installs a real rule load ({forwarding})");
    assert!(
        spent <= 149,
        "deploying {forwarding} installed rules took {spent} allocations (149 when pinned) — \
         rule lists are being copied, or an index is built per table again"
    );
}

/// `shortest_path_rules` builds one `Match` per host and one `ActionSet`
/// per output port; every installed rule is a pair of reference counts on
/// those. Built per rule (five allocations each, 320 routing rules before
/// any configuration is derived), the compile alone passes one allocation
/// per *installed* rule.
#[test]
fn compiling_a_campaign_builds_each_rule_body_once() {
    let before = allocations();
    let c = campaign();
    let spent = allocations() - before;
    let forwarding = c.nes.total_rules() as u64;
    assert!(forwarding >= 1000, "the campaign installs a real rule load ({forwarding})");
    assert!(
        spent <= 524,
        "compiling a campaign of {forwarding} installed rules took {spent} allocations \
         (524 when pinned) — rule bodies are being built per rule, or a rule list per state, \
         again"
    );
}

/// `engine()` clones the NES and deploys it: with shared rule lists that
/// is reference counts and one index per switch, and the plane's tables
/// *are* the compiled scenario's.
#[test]
fn building_an_engine_does_not_copy_rules() {
    let c = campaign();
    let before = allocations();
    let engine = c.engine();
    let spent = allocations() - before;
    assert!(
        spent <= 182,
        "engine() took {spent} allocations (182 when pinned: ~9 per switch) — \
         a rule list is being copied, or an index built, per table again"
    );
    let plane = engine.finish().dataplane;
    for set in c.nes.event_sets() {
        let (ours, theirs) = (c.nes.config(set), plane.compiled().nes().config(set));
        for sw in ours.switches() {
            let first = |config: &edn_core::Config| {
                config.table(sw).and_then(|t| t.iter().next()).map(std::ptr::from_ref)
            };
            assert_eq!(first(ours), first(theirs), "switch {sw}: the rule list was copied");
        }
    }
}

/// Every step of the pinned campaign adds one rule per switch, so each
/// switch's five tables are five lengths of one rule list, and the plane
/// serves its five `(switch, tag)` slots from one index: 20 lists and 20
/// indexes, not 100 of each.
#[test]
fn an_additive_campaign_holds_one_list_and_one_index_per_switch() {
    let c = campaign();
    let switches = c.run.sim().switches();
    for &sw in switches {
        let lists: std::collections::BTreeSet<*const netkat::Rule> = c
            .nes
            .event_sets()
            .into_iter()
            .filter_map(|set| c.nes.config(set).table(sw)?.iter().next().map(std::ptr::from_ref))
            .collect();
        assert_eq!(lists.len(), 1, "switch {sw}'s tables sit on {} rule lists", lists.len());
    }
    let mut reg = edn_obs::Registry::new();
    c.engine().finish().dataplane.contribute_metrics(&mut reg);
    assert_eq!(reg.gauge("flowindex.tables"), Some(switches.len() as u64));
    assert_eq!(reg.gauge("flowindex.slots"), Some(5 * switches.len() as u64));
    // Each index covers its switch's longest table: the final configuration.
    let last = c.nes.event_sets().into_iter().max().expect("the campaign has states");
    assert_eq!(reg.gauge("flowindex.indexed_rules"), Some(c.nes.config(last).rule_count() as u64));
}

/// The checker's index follows the plane's chains: per switch one chain of
/// tables, walked once along its longest member, and one set of link and
/// host masks for the one topology the configurations share. Fifteen more
/// configurations (5 → 20 updates on fat-tree(6), which has the spare hosts
/// fat-tree(4) lacks) add fifteen rules per switch to that walk and no
/// structure: fewer allocations than configurations, and the same chains
/// in the exported shape.
#[test]
fn attaching_the_checker_does_not_scale_with_configurations() {
    let attach = |updates: usize| {
        let c = campaign_of(6, updates);
        let before = allocations();
        let (observer, _handle) =
            edn_core::OnlineChecker::observer(&c.nes).expect("the campaign fits the checker");
        let spent = allocations() - before;
        let mut reg = edn_obs::Registry::new();
        observer.contribute_metrics(&mut reg);
        let last = c.nes.event_sets().into_iter().max().expect("the campaign has states");
        assert_eq!(
            (reg.gauge("checker.index_chains"), reg.gauge("checker.index_rules")),
            (
                Some(c.run.sim().switches().len() as u64),
                Some(c.nes.config(last).rule_count() as u64)
            ),
            "{updates} updates: one chain per switch over the final tables' rules"
        );
        spent
    };
    let (few, many) = (attach(5), attach(20));
    assert!(
        many.abs_diff(few) < 15,
        "attaching took {few} allocations at 5 updates and {many} at 20 — \
         the index is building something per configuration again"
    );
}
