//! Sharing regression: a campaign's rules are built once and passed along
//! — bodies, rule lists and indexes — not rebuilt or copied per stage.
//! The table index is built once, with the NES, and every deployment and
//! checker reads it: deploying and attaching build no index at all. The
//! checker's masks are built once per NES too, by the first attach.
//!
//! A counting `#[global_allocator]` watches the three stages a campaign run
//! goes through before its first event, on the fat-tree(4) × 4-update
//! campaign (20 switches × 5 configurations = 100 installed tables, 1,400
//! installed rules): `CompiledScenario::compile`, the deploy path the
//! benchmark times (`CompiledNes::compile(nes.clone())` +
//! `NesDataPlane::new`), and `CompiledScenario::engine`. A freshly built
//! `Rule` is five allocations (two reference counts, the `Match` map, the
//! `ActionSet` set, the `Action` map), a copied rule list is one and an
//! index layout about four (segment list, signature, fingerprint map), so
//! each stage that rebuilds or copies shows up as a per-rule
//! or per-table term. Every step of this campaign only adds rules, and every
//! switch routes the same destinations in the same order, so what is left
//! after sharing is one rule list per group of switches with equal next-hop
//! rows (13 for the twenty), one index per *switch*, five `(list, length)`
//! views of them, and one index layout for all twenty switches — all built
//! by the compile, with the NES.
//! Counts are per thread and repeat exactly; the
//! bounds are the measured counts (scenario compile 2,783 → 1,076 when the
//! routing synthesis stopped building a `Match` and an `ActionSet` per
//! rule, deploy 825 → 625 and `engine()` 859 → 659 when the rule lists
//! became shared, then 581 / 224 / 257 when a step that only adds rules
//! started sharing its predecessor's list and index, then 524 / 149 / 182
//! when a campaign's configurations started sharing one set of links and
//! hosts, then 363 / 149 / 182 when the routing synthesis stopped keeping
//! its graph, distances and next hops in per-switch trees, then 363 / 57 / 90
//! when switches that test the same patterns started sharing one index
//! layout, then 328 / 57 / 90 when switches with equal next-hop rows started
//! sharing one rule list, then 351 / 7 / 40 when the index build moved from
//! the deploy into the NES's construction: the compile builds the one index,
//! and the deploy and `engine()` read it, then 341 / 7 / 40 when the compile
//! started building each state's tables and the NES index in bulk, in
//! switch order). A fourth leg watches
//! `OnlineChecker::observer`, which reads the NES's index too: its cost may
//! not grow with the configurations, and a second checker over one NES
//! reads the masks the first one built, so its count is one constant.
//! A fifth covers the stream workloads' set-up, where the configurations
//! come from `edn_apps::generated` rather than a campaign: two
//! configurations that differ on a switch or three share every other table.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use edn_apps::generated::{firewall_nes, learning_nes, FLOOD_MARK};
use edn_core::{EventSet, NetworkEventStructure};
use edn_scenario::{parse, CompiledScenario};
use edn_topo::{
    config_from_rules, fat_tree, per_switch, shortest_path_config, shortest_path_groups,
    GenTopology, TierProfile,
};
use nes_runtime::{CompiledNes, NesDataPlane};
use netkat::{Action, ActionSet, Field, Match, Rule};
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

/// The address of the rule list behind `sw`'s table, for "is this the same
/// allocation?" (`None` for a missing or empty table, which shares nothing).
fn list_of(config: &edn_core::Config, sw: u64) -> Option<*const Rule> {
    config.table(sw)?.iter().next().map(std::ptr::from_ref)
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
        spent <= 7,
        "deploying {forwarding} installed rules took {spent} allocations (7 when pinned) — \
         rule lists are being copied, or an index is built again"
    );
}

/// `shortest_path_groups` builds one `Match` per host and one `ActionSet`
/// per output port; every installed rule is a pair of reference counts on
/// those. Built per rule (five allocations each, 320 routing rules before
/// any configuration is derived), the compile alone passes one allocation
/// per *installed* rule. The bound fell from 363 to 328 when switches with
/// equal next-hop rows started sharing one rule list (13 for fat-tree(4)'s
/// 20 switches) and the campaign's links and hosts started being collected
/// in bulk, and rose to 351 when the NES started building its table index
/// (20 chains, one layout) at construction, where the deploy had built it
/// (57 → 7). It fell to 341 when each state's tables started being
/// collected in one switch-sorted pass and the NES index started finding
/// its switches without re-collecting them per configuration.
#[test]
fn compiling_a_campaign_builds_each_rule_body_once() {
    let before = allocations();
    let c = campaign();
    let spent = allocations() - before;
    let forwarding = c.nes.total_rules() as u64;
    assert!(forwarding >= 1000, "the campaign installs a real rule load ({forwarding})");
    assert!(
        spent <= 341,
        "compiling a campaign of {forwarding} installed rules took {spent} allocations \
         (341 when pinned) — rule bodies are being built per rule, or a rule list per state \
         or per switch, again"
    );
}

/// `engine()` clones the NES and deploys it: a reference count on the NES
/// and on its one index, no index built, and the plane's tables *are* the
/// compiled scenario's. The bound fell from 90 to 40 when the index build
/// moved into the NES's construction.
#[test]
fn building_an_engine_does_not_copy_rules() {
    let c = campaign();
    let before = allocations();
    let engine = c.engine();
    let spent = allocations() - before;
    assert!(
        spent <= 40,
        "engine() took {spent} allocations (40 when pinned) — \
         a rule list is being copied, or an index built, again"
    );
    let plane = engine.finish().dataplane;
    for &set in c.nes.event_sets() {
        let (ours, theirs) = (c.nes.config(set), plane.compiled().nes().config(set));
        for sw in ours.switches() {
            assert_eq!(
                list_of(ours, sw),
                list_of(theirs, sw),
                "switch {sw}: the rule list was copied"
            );
        }
    }
}

/// Every step of the pinned campaign adds one rule per switch, so each
/// switch's five tables are five lengths of one rule list, and the plane
/// serves its five `(switch, tag)` slots from one index: at most 20 lists
/// (13 since switches with equal next-hop rows share one) and 20 indexes,
/// not 100 of each. Every switch's index tests the same patterns, so the
/// twenty share one layout.
#[test]
fn an_additive_campaign_holds_one_list_and_one_index_per_switch() {
    let c = campaign();
    let switches = c.run.sim().switches();
    for &sw in switches {
        let lists: std::collections::BTreeSet<*const Rule> =
            c.nes.event_sets().iter().filter_map(|&set| list_of(c.nes.config(set), sw)).collect();
        assert_eq!(lists.len(), 1, "switch {sw}'s tables sit on {} rule lists", lists.len());
    }
    let mut reg = edn_obs::Registry::new();
    c.engine().finish().dataplane.contribute_metrics(&mut reg);
    assert_eq!(reg.gauge("flowindex.tables"), Some(switches.len() as u64));
    assert_eq!(reg.gauge("flowindex.layouts"), Some(1));
    assert_eq!(reg.gauge("flowindex.slots"), Some(5 * switches.len() as u64));
    // Each index covers its switch's longest table: the final configuration.
    let &last = c.nes.event_sets().last().expect("the campaign has states");
    assert_eq!(reg.gauge("flowindex.indexed_rules"), Some(c.nes.config(last).rule_count() as u64));
}

/// The checker's index is the plane's: per switch one chain of tables,
/// indexed once along its longest member, and one set of link and host
/// masks for the one topology the configurations share. Fifteen more
/// configurations (5 → 20 updates on fat-tree(6), which has the spare hosts
/// fat-tree(4) lacks) add fifteen rules per switch to that index and no
/// structure: fewer allocations than configurations, and the same chains
/// in the exported size. Every switch's chain tests the same patterns, so
/// all of them share one layout.
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
        let &last = c.nes.event_sets().last().expect("the campaign has states");
        assert_eq!(
            (reg.gauge("checker.index_chains"), reg.gauge("checker.index_rules")),
            (
                Some(c.run.sim().switches().len() as u64),
                Some(c.nes.config(last).rule_count() as u64)
            ),
            "{updates} updates: one chain per switch over the final tables' rules"
        );
        assert_eq!(reg.gauge("checker.index_layouts"), Some(1), "{updates} updates: one layout");
        spent
    };
    let (few, many) = (attach(5), attach(20));
    assert!(
        many.abs_diff(few) < 15,
        "attaching took {few} allocations at 5 updates and {many} at 20 — \
         the index is building something per configuration again"
    );
}

/// The shortest-path routing copied out per switch, one list each.
fn routing_by_copy(gen: &GenTopology) -> std::collections::BTreeMap<u64, Vec<Rule>> {
    let groups = shortest_path_groups(gen);
    per_switch(&groups).into_iter().map(|(sw, rules)| (sw, rules.to_vec())).collect()
}

/// `firewall_nes` as it was assembled before its configurations shared
/// tables: the routing cloned whole, one rule inserted, and each copy
/// turned into a configuration of its own.
fn firewall_by_copy(gen: &GenTopology, inside: u64, outside: u64) -> [edn_core::Config; 2] {
    let open = routing_by_copy(gen);
    let mut closed = open.clone();
    let guard = Match::new().with(Field::IpSrc, outside).with(Field::IpDst, inside);
    let at = gen.attachment(outside).expect("a host");
    closed.get_mut(&at.sw).expect("routed").insert(0, Rule::new(guard, ActionSet::drop()));
    [config_from_rules(gen, closed), config_from_rules(gen, open)]
}

/// `learning_nes` the same way; also returns the switches it edits.
fn learning_by_copy(
    gen: &GenTopology,
    learner: u64,
    target: u64,
    shadow: u64,
) -> ([edn_core::Config; 2], Vec<u64>) {
    let at = |h| gen.attachment(h).expect("a host");
    let (learner_at, shadow_at) = (at(learner), at(shadow));
    let toward_shadow = gen.sim().next_hop_ports(shadow_at.sw);
    let learned = routing_by_copy(gen);
    let mut flooding = learned.clone();
    let rule = flooding
        .get_mut(&learner_at.sw)
        .expect("routed")
        .iter_mut()
        .find(|r| r.pattern.get(Field::IpDst) == Some(target))
        .expect("the target is routable");
    let copy =
        Action::assign(Field::Port, toward_shadow[&learner_at.sw]).set(Field::Vlan, FLOOD_MARK);
    rule.actions = rule.actions.union(&ActionSet::single(copy));
    let mut touched = vec![learner_at.sw];
    for link in gen.sim().route(learner_at.sw, shadow_at.sw).expect("connected") {
        let sw = link.dst.sw;
        let out = if sw == shadow_at.sw { shadow_at.pt } else { toward_shadow[&sw] };
        let marked = Match::new().with(Field::Vlan, FLOOD_MARK);
        let steer = ActionSet::single(Action::assign(Field::Port, out));
        flooding.get_mut(&sw).expect("routed").insert(0, Rule::new(marked, steer));
        touched.push(sw);
    }
    ([config_from_rules(gen, flooding), config_from_rules(gen, learned)], touched)
}

/// The stream workloads' set-up on fat-tree(4): an application NES is the
/// routed configuration and a clone of it with the touched switches'
/// tables replaced. It equals the NES assembled by copying, its untouched
/// tables are one allocation under both event-sets, and so the NES builds
/// — and the plane and the checker read — one index per switch plus one
/// per touched switch, where two by-value-equal copies cost two. Every
/// switch routes the same destinations in the same order, so those indexes
/// share one layout per distinct pattern sequence (the routing, and the
/// routing under the inserted rule), which the plane and the checker both
/// report. The three
/// counts are the measured ones (build, deploy, attach); attach fell from
/// 340 / 355 to 161 / 179 when the checker's index stopped keeping a
/// priority position per rule and configuration and started sizing each
/// chain's entries and maps before filling them, deploy and attach from
/// 141 / 164 and 161 / 179 to 50 / 50 and 80 / 91 when switches that test
/// the same patterns started sharing one layout and one shape, and attach
/// to 53 / 53 when the checker started reading its chains through the
/// plane's index instead of entries of its own. Build fell from 169 / 263 to
/// 160 / 202 when the routing started building one rule list per distinct
/// next-hop row and the applications started finding their event ports and
/// shadow path in the routing they had just built, not by routing the
/// topology again. Then the index build moved into the NES's construction,
/// which the plane and the checker both read: build rose from 160 / 202 to
/// 187 / 229, deploy fell from 50 / 50 to 3 / 3, and attach from 53 / 53 to
/// 26 / 26. Then the NES started finding its events by location (one map)
/// and keeping its family as a sorted list rather than a tree, and the
/// checker stopped copying either: build fell from 187 / 229 to 184 / 226
/// and attach from 26 / 26 to 21 / 21 (the first attach still builds the
/// NES's masks; `a_second_checker_builds_nothing_the_nes_holds` counts a
/// later one). Then an index layout stopped collecting its hash segments'
/// fields for a prefetch no lookup took: build fell from 184 / 226 to
/// 180 / 222 (two layouts, two allocations each). Then the routed
/// configuration's tables started being collected in one sorted pass and
/// the NES index started finding its switches without growing a list per
/// configuration: build fell from 180 / 222 to 179 / 221. Then the first
/// attach started sizing the NES's link, link-source and host masks
/// before filling them: attach fell from 21 / 21 to 8 / 8.
#[test]
fn an_application_nes_shares_its_untouched_tables() {
    let gen = fat_tree(4, TierProfile::default());
    let switches = gen.sim().switches().to_vec();
    let h = gen.hosts();
    let check = |name: &str,
                 build: &dyn Fn() -> NetworkEventStructure,
                 by_copy: [edn_core::Config; 2],
                 touched: &[u64],
                 layouts: u64,
                 pinned: [u64; 3]| {
        let counted = || {
            let before = allocations();
            let nes = build();
            (allocations() - before, nes)
        };
        let (built, nes) = counted();
        assert_eq!(counted().0, built, "{name}: the allocation count repeats exactly");
        let sets = [EventSet::empty(), EventSet::singleton(nes.events()[0].id)];
        assert_eq!(nes.event_sets(), sets);
        let [before, after] = sets.map(|set| nes.config(set));
        assert!([before, after] == [&by_copy[0], &by_copy[1]], "{name}: not the copied NES");
        for &sw in &switches {
            assert!(list_of(after, sw).is_some(), "switch {sw} routes something");
            assert_eq!(
                list_of(before, sw) == list_of(after, sw),
                !touched.contains(&sw),
                "{name}: switch {sw}'s two tables share a list exactly when it is untouched"
            );
        }
        let tables = Some((switches.len() + touched.len()) as u64);

        let before = allocations();
        let plane = NesDataPlane::new(CompiledNes::compile(nes.clone()), switches.clone(), false);
        let deployed = allocations() - before;
        let mut reg = edn_obs::Registry::new();
        plane.contribute_metrics(&mut reg);
        assert_eq!(reg.gauge("flowindex.tables"), tables, "{name}: indexes built");
        assert_eq!(reg.gauge("flowindex.layouts"), Some(layouts), "{name}: layouts built");
        assert_eq!(reg.gauge("flowindex.slots"), Some(2 * switches.len() as u64));

        let before = allocations();
        let (observer, _handle) = edn_core::OnlineChecker::observer(&nes).expect("two states fit");
        let attached = allocations() - before;
        let mut reg = edn_obs::Registry::new();
        observer.contribute_metrics(&mut reg);
        assert_eq!(reg.gauge("checker.index_chains"), tables, "{name}: chains interned");
        assert_eq!(reg.gauge("checker.index_layouts"), Some(layouts), "{name}: layouts built");

        assert_eq!([built, deployed, attached], pinned, "{name}: build, deploy, attach");
    };

    let (inside, outside) = (h[0], h[15]);
    let outside_sw = gen.attachment(outside).expect("a host").sw;
    check(
        "firewall",
        &|| firewall_nes(&gen, inside, outside),
        firewall_by_copy(&gen, inside, outside),
        &[outside_sw],
        2,
        [179, 3, 8],
    );
    let (learner, target, shadow) = (h[0], h[15], h[8]);
    let (by_copy, touched) = learning_by_copy(&gen, learner, target, shadow);
    assert!(touched.len() > 2, "the shadow is a few hops away ({touched:?})");
    check(
        "learning",
        &|| learning_nes(&gen, learner, target, shadow),
        by_copy,
        &touched,
        2,
        [221, 3, 8],
    );
}

/// A checker attached to an NES that a checker was attached to before
/// builds only its per-run state: the NES's masks are the first one's, so
/// the count is one constant, whatever the topology, and below the first
/// attach's.
#[test]
fn a_second_checker_builds_nothing_the_nes_holds() {
    let attach = |nes: &NetworkEventStructure| {
        let before = allocations();
        let checker = edn_core::OnlineChecker::observer(nes).expect("two states fit");
        let spent = allocations() - before;
        drop(checker);
        spent
    };
    for k in [4, 8] {
        let gen = fat_tree(k, TierProfile::default());
        let h = gen.hosts();
        let nes = firewall_nes(&gen, h[0], h[h.len() - 1]);
        let first = attach(&nes);
        assert_eq!(
            [attach(&nes), attach(&nes)],
            [2, 2],
            "fat-tree({k}): a second and third attach (the first took {first})"
        );
        assert!(first > 2, "fat-tree({k}): the first attach builds the NES's masks");
    }
}

/// The benchmark's two fat-tree(8) set-ups, counted where their layouts are
/// built: the firewall NES's 80 switches hold 81 indexes over 2 layouts
/// (the routing, and the routing under the guard), which the plane and the
/// checker both read and report; the 20-update campaign's 80 indexes share
/// 1 layout. Building a layout per switch again fails here.
/// Since the routing builds one rule list per distinct next-hop row, the
/// 80 routed tables sit on 41 lists (16 cores on one, each pod's 4
/// aggregation switches on one, 32 edges on their own), and so do the
/// campaign's 21 configurations: building a list per switch again fails
/// here too.
#[test]
fn fat_tree_8_switches_share_one_layout_per_pattern_sequence() {
    let gauges = |nes: &NetworkEventStructure, switches: &[u64]| {
        let plane = NesDataPlane::new(CompiledNes::compile(nes.clone()), switches.to_vec(), false);
        let (observer, _handle) = edn_core::OnlineChecker::observer(nes).expect("the NES fits");
        let mut reg = edn_obs::Registry::new();
        plane.contribute_metrics(&mut reg);
        observer.contribute_metrics(&mut reg);
        let names = ["flowindex.tables", "flowindex.layouts"];
        let names = names.into_iter().chain(["checker.index_chains", "checker.index_layouts"]);
        names.map(|name| reg.gauge(name).expect("exported")).collect::<Vec<_>>()
    };
    let lists = |configs: &[&edn_core::Config]| {
        let mut lists = std::collections::BTreeSet::new();
        for config in configs {
            lists.extend(config.switches().filter_map(|sw| list_of(config, sw)));
        }
        lists.len()
    };
    let gen = fat_tree(8, TierProfile::default());
    let (switches, h) = (gen.sim().switches(), gen.hosts());
    assert_eq!(switches.len(), 80);
    let routed = shortest_path_config(&gen);
    assert_eq!((routed.switches().count(), lists(&[&routed])), (80, 41), "routed tables, lists");
    let firewall = firewall_nes(&gen, h[0], h[h.len() - 1]);
    assert_eq!(gauges(&firewall, switches), [81, 2, 81, 2], "firewall");
    let c = campaign_of(8, 20);
    assert_eq!(gauges(&c.nes, c.run.sim().switches()), [80, 1, 80, 1], "campaign");
    let configs: Vec<&edn_core::Config> =
        c.nes.event_sets().iter().map(|&set| c.nes.config(set)).collect();
    assert_eq!((configs.len(), lists(&configs)), (21, 41), "campaign configurations, lists");
}
