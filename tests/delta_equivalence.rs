//! Differential delta-equivalence suite: configuration diffs
//! (`Config::diff` → `FlowTable::splice`) against the configurations they
//! were taken between, and full runs against their own replays.
//!
//! * **Table layer (proptests, 256 cases each):** random `Config → Config'`
//!   pairs — independent tables plus mutation-shaped edits (rule inserts,
//!   removals, whole-switch adds and drops). Applying the diff to the old
//!   config must reproduce the new one structurally, and the spliced table
//!   — linear and compiled — must answer every lookup — random packets and
//!   packets derived from both configs' own rule patterns — exactly like
//!   the new table compiled from scratch.
//! * **End-to-end:** the §5.2-style flapping ring and the fat-tree(4)
//!   update campaign, replayed checked and unchecked: the canonical
//!   scenario CSV is byte-identical everywhere, and the online
//!   Definition 6 verdict stays `correct`. (Trace byte-identity for the
//!   same deployments lives in `plumbing_equivalence.rs`.)

use edn_core::Config;
use edn_scenario::{parse, run_coordinated, stats_csv_row, CompiledScenario, RunOptions};
use netkat::{Action, ActionSet, CompiledTable, Field, FlowTable, Match, Packet, Rule};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A small universe keeps random packets colliding with random rules often
/// enough to exercise hits, shadows, and misses alike.
const FIELDS: [Field; 4] = [Field::Port, Field::Vlan, Field::IpSrc, Field::IpDst];

fn arb_match() -> impl Strategy<Value = Match> {
    proptest::collection::vec((0usize..FIELDS.len(), 0u64..4), 0..3)
        .prop_map(|fs| fs.into_iter().map(|(i, v)| (FIELDS[i], v)).collect())
}

fn arb_actions() -> impl Strategy<Value = ActionSet> {
    prop_oneof![
        Just(ActionSet::drop()),
        Just(ActionSet::pass()),
        (0usize..FIELDS.len(), 0u64..4)
            .prop_map(|(i, v)| ActionSet::single(Action::assign(FIELDS[i], v))),
    ]
}

fn arb_rules() -> impl Strategy<Value = Vec<Rule>> {
    proptest::collection::vec(
        (arb_match(), arb_actions()).prop_map(|(m, a)| Rule::new(m, a)),
        0..12,
    )
}

/// Switch → rule list, the raw material of a [`Config`]. (Collected from
/// keyed pairs: duplicate switch draws collapse, last write wins.)
fn arb_tables() -> impl Strategy<Value = BTreeMap<u64, Vec<Rule>>> {
    proptest::collection::vec((1u64..6, arb_rules()), 0..4).prop_map(|kv| kv.into_iter().collect())
}

/// Edits to turn one table map into a related one: `Some(rules)` replaces
/// (or adds) a switch's table, `None` removes the switch outright.
fn arb_edits() -> impl Strategy<Value = BTreeMap<u64, Option<Vec<Rule>>>> {
    proptest::collection::vec((1u64..6, proptest::option::of(arb_rules())), 0..4)
        .prop_map(|kv| kv.into_iter().collect())
}

fn build_config(tables: &BTreeMap<u64, Vec<Rule>>) -> Config {
    let mut config = Config::new();
    for (&sw, rules) in tables {
        config.install(sw, FlowTable::from_rules(rules.iter().cloned()));
    }
    config
}

/// A `Config → Config'` pair whose second member is the first under a
/// random edit list — the shape real update campaigns produce (most
/// switches untouched, a few respliced, the odd one added or removed).
fn arb_config_pair() -> impl Strategy<Value = (Config, Config)> {
    (arb_tables(), arb_edits()).prop_map(|(old_tables, edits)| {
        let mut new_tables = old_tables.clone();
        for (sw, edit) in edits {
            match edit {
                Some(rules) => {
                    new_tables.insert(sw, rules);
                }
                None => {
                    new_tables.remove(&sw);
                }
            }
        }
        (build_config(&old_tables), build_config(&new_tables))
    })
}

fn arb_packets() -> impl Strategy<Value = Vec<Packet>> {
    proptest::collection::vec(
        proptest::collection::vec((0usize..FIELDS.len(), 0u64..4), 0..4)
            .prop_map(|fs| fs.into_iter().map(|(i, v)| (FIELDS[i], v)).collect()),
        8,
    )
}

/// Every probe worth sending at a pair: the random packets plus each
/// config's own rule patterns read back as packets (guaranteed candidate
/// hits, shadowed or not).
fn probes(old: &Config, new: &Config, random: &[Packet]) -> Vec<Packet> {
    let mut probes: Vec<Packet> = random.to_vec();
    for config in [old, new] {
        for sw in config.switches() {
            if let Some(table) = config.table(sw) {
                probes.extend(table.iter().map(|r| r.pattern.iter().collect::<Packet>()));
            }
        }
    }
    probes
}

/// The delta leg of one switch: the old table spliced forward, and its
/// index.
fn patch_forward(old: &Config, new: &Config, sw: u64) -> (FlowTable, CompiledTable) {
    let delta = old.diff(new);
    let mut linear = old.table(sw).cloned().unwrap_or_default();
    if let Some(d) = delta.tables.get(&sw) {
        linear.splice(d);
    }
    let compiled = linear.compile();
    (linear, compiled)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `Config::apply_delta(diff)` is exactly "become the new config":
    /// structural equality, not just lookup equality — and the diff of a
    /// config with itself is empty.
    #[test]
    fn config_diff_round_trips(pair in arb_config_pair()) {
        let (old, new) = pair;
        let delta = old.diff(&new);
        let mut patched = old.clone();
        patched.apply_delta(&delta);
        prop_assert_eq!(&patched, &new, "apply_delta(diff) must reproduce the new config");
        prop_assert!(new.diff(&new).is_empty(), "self-diff must be empty");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Per switch, the spliced tables — linear *and* compiled — are
    /// indistinguishable from scratch compilation: the spliced linear
    /// table is structurally the new table, and both it and its index
    /// answer every probe exactly like a scratch-compiled index over the
    /// new rules.
    #[test]
    fn patched_tables_answer_like_scratch(
        pair in arb_config_pair(),
        random in arb_packets(),
    ) {
        let (old, new) = pair;
        let probes = probes(&old, &new, &random);
        let mut switches: Vec<u64> = old.switches().chain(new.switches()).collect();
        switches.sort_unstable();
        switches.dedup();
        for sw in switches {
            let scratch_linear = new.table(sw).cloned().unwrap_or_default();
            let scratch_compiled = scratch_linear.compile();
            let (patched_linear, patched_compiled) = patch_forward(&old, &new, sw);
            prop_assert_eq!(&patched_linear, &scratch_linear, "switch {}: splice drifted", sw);
            for pk in &probes {
                let want = scratch_linear.lookup(pk);
                prop_assert_eq!(
                    scratch_compiled.lookup(pk), want,
                    "switch {}: scratch index disagrees with its own table on {:?}", sw, pk
                );
                prop_assert_eq!(
                    patched_linear.lookup(pk), want,
                    "switch {}: spliced table drifted on {:?}", sw, pk
                );
                prop_assert_eq!(
                    patched_compiled.lookup(pk), want,
                    "switch {}: spliced index drifted on {:?}", sw, pk
                );
            }
        }
    }
}

/// The §5.2-style churn scenario: a ring whose inter-switch links flap
/// around a three-update rollout.
fn ring_scenario() -> CompiledScenario {
    let spec = parse(
        "[scenario]\n\
         name = \"delta-ring\"\n\
         seed = 13\n\
         topology = \"ring\"\n\
         size = 6\n\
         [workload]\n\
         flows = 8\n\
         packets_per_flow = 3\n\
         spread_ms = 300\n\
         [campaign]\n\
         updates = 3\n\
         [[action]]\n\
         kind = \"fail_link\"\n\
         at_ms = 120\n\
         a = 2\n\
         b = 3\n\
         [[action]]\n\
         kind = \"restore_link\"\n\
         at_ms = 170\n\
         a = 2\n\
         b = 3\n",
    )
    .expect("pinned spec parses");
    CompiledScenario::compile(&spec).expect("pinned spec compiles")
}

/// The fat-tree(4) update campaign with a crash, a latency spike, and a
/// host move — the widest single e2e churn surface in the repo.
fn fat_tree_campaign_scenario() -> CompiledScenario {
    let spec = parse(
        "[scenario]\n\
         name = \"delta-fat-tree\"\n\
         seed = 2016\n\
         topology = \"fat_tree\"\n\
         size = 4\n\
         [workload]\n\
         pattern = \"permutation\"\n\
         packets_per_flow = 3\n\
         spread_ms = 400\n\
         [campaign]\n\
         updates = 3\n\
         [[action]]\n\
         kind = \"crash_switch\"\n\
         at_ms = 180\n\
         switch = 2\n\
         [[action]]\n\
         kind = \"recover_switch\"\n\
         at_ms = 240\n\
         switch = 2\n\
         [[action]]\n\
         kind = \"latency_spike\"\n\
         at_ms = 200\n\
         latency_ms = 15\n\
         until_ms = 280\n\
         [[action]]\n\
         kind = \"move_host\"\n\
         at_ms = 350\n\
         host = 5\n\
         to_switch = 19\n",
    )
    .expect("pinned spec parses");
    CompiledScenario::compile(&spec).expect("pinned spec compiles")
}

/// The end-to-end matrix: a replay must reproduce the reference canonical
/// CSV byte for byte, checked and unchecked.
#[test]
fn e2e_matrix_replays_byte_identically() {
    for (name, c) in
        [("ring", ring_scenario()), ("fat-tree(4) campaign", fat_tree_campaign_scenario())]
    {
        let check = RunOptions { check: true, ..RunOptions::default() };
        let checked_ref = run_coordinated(&c, &check);
        assert_eq!(checked_ref.verdict, Some(Ok(())), "{name}: reference verdict");
        assert_eq!(checked_ref.fired, Some(c.steps.len()), "{name}: reference firings");
        let checked_row = stats_csv_row(&checked_ref);
        let unchecked_row = stats_csv_row(&run_coordinated(&c, &RunOptions::default()));
        assert_eq!(
            stats_csv_row(&run_coordinated(&c, &check)),
            checked_row,
            "{name}: checked CSV diverged on replay"
        );
        assert_eq!(
            stats_csv_row(&run_coordinated(&c, &RunOptions::default())),
            unchecked_row,
            "{name}: unchecked CSV diverged on replay"
        );
    }
}
