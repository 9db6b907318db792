//! Byte-identity pin of the routing synthesis: an FNV-1a fingerprint of
//! everything `shortest_path_groups` synthesizes, read by switch through
//! `per_switch` — the switches, each switch's rules in order, every pattern
//! constraint and every action write — on the generator families the
//! scenario layer and the benchmark build from.
//!
//! The pinned values were taken from the synthesis as it stood when every
//! BFS ran on `BTreeMap`s; whatever the routing code does now, it must hand
//! out the same rules in the same order.

use edn_topo::{
    fat_tree, per_switch, ring, shortest_path_groups, torus, waxman, GenTopology, LinkProfile,
    TierProfile, WaxmanParams,
};
use netkat::Field;

fn field_code(f: Field) -> u64 {
    Field::ALL.iter().position(|&g| g == f).expect("every field is in Field::ALL") as u64
}

/// FNV-1a over `u64` words: per switch its id and rule count, per rule its
/// pattern and each action's writes, every list length-prefixed.
fn fingerprint(gen: &GenTopology) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |v: u64| h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    for (sw, rules) in per_switch(&shortest_path_groups(gen)) {
        fold(sw);
        fold(rules.len() as u64);
        for rule in rules {
            fold(rule.pattern.len() as u64);
            for (f, v) in rule.pattern.iter() {
                fold(field_code(f));
                fold(v);
            }
            fold(rule.actions.len() as u64);
            for action in rule.actions.iter() {
                fold(action.writes().count() as u64);
                for (f, v) in action.writes() {
                    fold(field_code(f));
                    fold(v);
                }
            }
        }
    }
    h
}

#[test]
fn shortest_path_rules_are_pinned() {
    let waxman_at = |seed| waxman(24, WaxmanParams { seed, ..WaxmanParams::default() });
    let cases: [(GenTopology, u64); 7] = [
        (fat_tree(4, TierProfile::default()), 0x74f2_24d2_9eae_6499),
        (fat_tree(8, TierProfile::default()), 0xb362_3e6b_daf4_0435),
        (torus(4, 5, LinkProfile::default()), 0x51b1_664e_de53_d2c7),
        (ring(9, LinkProfile::default()), 0x625c_67a7_8597_e587),
        (waxman_at(1), 0xc3d0_7628_8f4a_e94d),
        (waxman_at(2), 0x6114_449c_0dd9_dc8a),
        (waxman_at(3), 0xf5a4_65c3_0355_5365),
    ];
    let got: Vec<(&str, u64)> = cases.iter().map(|(g, _)| (g.name(), fingerprint(g))).collect();
    let pinned: Vec<(&str, u64)> = cases.iter().map(|(g, p)| (g.name(), *p)).collect();
    assert_eq!(got, pinned, "the routing synthesis hands out different rules: {got:#018x?}");
}
