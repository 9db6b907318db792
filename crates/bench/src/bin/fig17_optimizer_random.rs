//! Figure 17: the rule-sharing heuristic on random configurations —
//! 64 configurations of 20 rules each, many instances, plotting the
//! optimized rule count against the original (the paper reports ~32%
//! average savings).
//!
//! Run with: `cargo run --release -p edn-bench --bin fig17_optimizer_random`
//!
//! One seeded RNG (`FIG17_SEED`, default `2016`) is threaded through the
//! whole sweep, so the 20 instances per universe size are independent draws
//! from a single stream. (Re-seeding per point — the old bug — made
//! instance *i* of every universe size start from the same shuffle,
//! correlating the columns of the plot.) The data rows are pinned in
//! `BENCH_fig17.csv` at the repo root; CI replays the sweep and `cmp`s.

use edn_bench::env_u64;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rule_optimizer::{optimize, optimize_in_order, random_configs_with};

fn main() {
    let seed = env_u64("fig17", "FIG17_SEED", 2016);
    let mut rng = StdRng::seed_from_u64(seed);
    println!("# Fig. 17: heuristic rule sharing on 64 random configurations of 20 rules");
    println!("# sweep seed {seed} (one RNG stream across all instances)");
    println!("instance,universe,original_rules,optimized_rules,savings_pct,in_order_rules");
    let mut total_savings = 0.0;
    let mut points = 0;
    for universe in [30usize, 40, 50] {
        for instance in 0..20u64 {
            let configs = random_configs_with(&mut rng, 64, 20, universe);
            let opt = optimize(&configs);
            // Sanity: semantics preserved.
            for (i, c) in configs.iter().enumerate() {
                assert_eq!(&opt.effective_rules(i), c, "instance {instance}: config {i} changed");
            }
            let savings = opt.savings() * 100.0;
            total_savings += savings;
            points += 1;
            // Ablation: the same trie without the pairing heuristic.
            let naive = optimize_in_order(&configs);
            println!(
                "{instance},{universe},{},{},{savings:.1},{}",
                opt.original_count,
                opt.optimized_count(),
                naive.optimized_count()
            );
        }
    }
    println!(
        "# average savings: {:.1}% over {points} instances (paper: ~32%)",
        total_savings / points as f64
    );
}
