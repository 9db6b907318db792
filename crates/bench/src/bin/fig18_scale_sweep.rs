//! Figure 18 (new): the scale trajectory — wall-clock, events processed,
//! and rule counts as switch count grows, on generated rings and fat-trees,
//! for both the static reference plane and the NES runtime.
//!
//! Run with: `cargo run --release -p edn-bench --bin fig18_scale_sweep`
//!
//! Every sweep point runs on **both** flow-table lookup paths (the linear
//! reference scan and the compiled index) and **both** trace modes (full
//! recording and stats-only): the CSV on stdout reports the combination
//! selected by `EDN_LOOKUP` (default `indexed`) and `EDN_TRACE` (default
//! `full`), and a machine-readable perf-trajectory file
//! (`BENCH_fig18.json` by default) records `(switches, events, wall,
//! ns/event)` for every combination at every point — a history of where
//! the per-event cost has been, not a source for performance claims (those
//! go through `benchmark/`). `wall_us` times the simulation event loop
//! (`Engine::run`). All CSV columns except `wall_us` are identical across
//! lookup paths and trace modes by construction — CI replays the sweep
//! across them and `cmp`s the canonical CSVs.
//!
//! Environment overrides (CI smoke uses small values):
//! * `FIG18_RING_SIZES` — comma-separated ring sizes (default
//!   `4,8,16,32,64,128`);
//! * `FIG18_FATTREE_KS` — comma-separated fat-tree arities (default
//!   `4,6,8`);
//! * `FIG18_PACKETS_PER_FLOW` — datagrams per flow (default `20`);
//! * `FIG18_SEED` — workload seed (default `7`);
//! * `FIG18_REPS` — repetitions per point, reporting the minimum
//!   wall-clock (default `1`; CI uses `1`);
//! * `FIG18_CANONICAL` — when `1`, report the wall-clock column as `0` so
//!   two runs with the same seed produce byte-identical CSV;
//! * `FIG18_JSON` — where to write the perf trajectory (default
//!   `BENCH_fig18.json`; empty string disables);
//! * `EDN_LOOKUP` — `linear` or `indexed`: the path the CSV reports;
//! * `EDN_TRACE` — `full` or `stats`: the trace mode the CSV reports.

use std::fmt::Write as _;

use edn_bench::scale::{run_point, Plane, SweepRow, CSV_HEADER};
use edn_bench::{env_list, env_u64};
use edn_topo::{fat_tree, ring, GenTopology, LinkProfile, TierProfile, TrafficPattern, Workload};
use netkat::LookupPath;
use netsim::TraceMode;

/// One `(sweep point, lookup path, trace mode)` record of the perf
/// trajectory.
struct JsonRow {
    lookup: LookupPath,
    mode: TraceMode,
    row: SweepRow,
}

impl JsonRow {
    fn render(&self) -> String {
        let r = &self.row;
        format!(
            "    {{\"topology\": \"{}\", \"param\": {}, \"plane\": \"{}\", \"lookup\": \"{}\", \
             \"trace\": \"{}\", \"switches\": {}, \"rules\": {}, \
             \"events\": {}, \"wall_us\": {}, \"ns_per_event\": {:.1}, \
             \"latency_p50_us\": {}, \"latency_p99_us\": {}, \"arena_hw\": {}, \
             \"obligations_hw\": {}}}",
            r.topology,
            r.param,
            r.plane.label(),
            self.lookup.label(),
            self.mode.label(),
            r.switches,
            r.rules,
            r.events,
            r.wall_us,
            r.ns_per_event(),
            r.latency_p50_us,
            r.latency_p99_us,
            r.arena_hw,
            r.obligations_hw,
        )
    }
}

fn render_json(seed: u64, packets_per_flow: u64, rows: &[JsonRow]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"fig18_scale_sweep\",");
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"packets_per_flow\": {packets_per_flow},");
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&row.render());
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let ring_sizes = env_list("FIG18_RING_SIZES", &[4, 8, 16, 32, 64, 128]);
    let fat_tree_ks = env_list("FIG18_FATTREE_KS", &[4, 6, 8]);
    let seed = env_u64("FIG18_SEED", 7);
    let packets_per_flow = env_u64("FIG18_PACKETS_PER_FLOW", 20);
    let reps = env_u64("FIG18_REPS", 1) as u32;
    let canonical = env_u64("FIG18_CANONICAL", 0) == 1;
    let json_path = std::env::var("FIG18_JSON").unwrap_or_else(|_| "BENCH_fig18.json".to_string());
    let csv_lookup = LookupPath::from_env();
    let csv_mode = TraceMode::from_env();
    let workload = Workload {
        pattern: TrafficPattern::Permutation,
        seed,
        packets_per_flow,
        ..Workload::default()
    };
    println!("# Fig. 18: scale sweep — permutation traffic, seed {seed}");
    println!(
        "# rings {ring_sizes:?}, fat-trees {fat_tree_ks:?}, {packets_per_flow} pkts/flow, \
         CSV lookup path: {}, CSV trace mode: {}, reps: {reps}",
        csv_lookup.label(),
        csv_mode.label()
    );
    println!("{CSV_HEADER}");
    let mut json_rows: Vec<JsonRow> = Vec::new();
    let mut sweep = |gen: &GenTopology, topology: &str, param: u64| {
        for plane in [Plane::Static, Plane::Nes] {
            for lookup in [LookupPath::Linear, LookupPath::Indexed] {
                for mode in [TraceMode::Full, TraceMode::StatsOnly] {
                    let selected = lookup == csv_lookup && mode == csv_mode;
                    // Non-selected combinations only feed the JSON
                    // trajectory; skip them when it is disabled.
                    if !selected && json_path.is_empty() {
                        continue;
                    }
                    let row = run_point(gen, topology, param, plane, &workload, lookup, mode, reps);
                    if selected {
                        let mut csv_row = row.clone();
                        if canonical {
                            csv_row.wall_us = 0;
                        }
                        println!("{}", csv_row.csv());
                    }
                    json_rows.push(JsonRow { lookup, mode, row });
                }
            }
        }
    };
    for &n in &ring_sizes {
        sweep(&ring(n, LinkProfile::default()), "ring", n);
    }
    for &k in &fat_tree_ks {
        sweep(&fat_tree(k, TierProfile::default()), "fat-tree", k);
    }
    if !json_path.is_empty() {
        let json = render_json(seed, packets_per_flow, &json_rows);
        if let Err(e) = std::fs::write(&json_path, json) {
            eprintln!("fig18: could not write {json_path}: {e}");
            std::process::exit(1);
        }
        eprintln!("fig18: perf trajectory written to {json_path}");
    }
}
