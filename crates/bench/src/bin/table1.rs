//! Regenerates Table 1 of the paper: one row per (ADT, library) configuration with the
//! method count, ghost count, invariant size, total verification time and the work
//! counters of the most demanding method. Afterwards it exercises the `hat-engine`
//! subsystem — 1 vs N jobs, cold vs warm cache — replays the suite against an
//! in-process `marpled` daemon (cold client, then a warm second client), and writes
//! the measurements to `BENCH_engine.json`.
//!
//! Usage: `cargo run --release -p hat-bench --bin table1 [adt-filter|--full]`
//!
//! By default the engine comparison excludes the configurations marked `slow` in the
//! suite (cold FileSystem/KVStore takes ~2.2 s with the default pipeline but ~20 s with
//! the naive-enumeration baseline, release on a 2-vCPU VM); pass `--full` to include
//! them. The excluded names are recorded in the JSON, never dropped silently.
//! With an ADT filter only the table is printed and the engine comparison is skipped.

use hat_bench::{
    daemon_replay, engine_comparison, lsm_measurement, method_columns, mixed_traffic_replay,
    table1_row, write_engine_json, ENGINE_BENCH_SCHEMA,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut include_slow = false;
    let mut filter = String::new();
    for arg in &args {
        match arg.as_str() {
            "--full" => include_slow = true,
            other if other.starts_with('-') => {
                eprintln!("unknown option `{other}`\nusage: table1 [adt-filter] [--full]");
                std::process::exit(2);
            }
            other if filter.is_empty() => filter = other.to_lowercase(),
            other => {
                eprintln!("unexpected argument `{other}`\nusage: table1 [adt-filter] [--full]");
                std::process::exit(2);
            }
        }
    }
    println!(
        "{:<15} {:<11} {:>7} {:>6} {:>4} {:>9} | hardest: {:>8} {:>5} {:>6} {:>6} {:>6} {:>9} {:>9} {:>9}",
        "ADT", "Library", "#Method", "#Ghost", "s_I", "t_total", "#Branch", "#App", "#SAT", "#FA⊆", "#Asm", "avg sFA", "tSAT", "tFA⊆"
    );
    for bench in hat_suite::all_benchmarks() {
        if !filter.is_empty()
            && !bench.adt.to_lowercase().contains(&filter)
            && !bench.library.to_lowercase().contains(&filter)
        {
            continue;
        }
        if bench.slow && !include_slow && filter.is_empty() {
            println!(
                "{:<15} {:<11} (slow configuration; run with --full or an ADT filter)",
                bench.adt, bench.library
            );
            continue;
        }
        let (row, _) = table1_row(&bench);
        let hardest = row
            .hardest
            .as_ref()
            .map(method_columns)
            .unwrap_or_else(|| "-".to_string());
        println!(
            "{:<15} {:<11} {:>7} {:>6} {:>4} {:>9.2} | {}",
            row.adt,
            row.library,
            row.methods,
            row.ghosts,
            row.invariant_size,
            row.total_seconds,
            hardest
        );
        if !row.all_as_expected {
            println!("    !! some method did not match its expected verification outcome");
        }
    }

    if filter.is_empty() {
        eprintln!("measuring hat-engine (1 vs N jobs, cold vs warm cache)...");
        let comparison = engine_comparison(&hat_suite::all_benchmarks(), include_slow);
        if !comparison.skipped.is_empty() {
            eprintln!(
                "engine comparison excludes slow configurations: {} (pass --full to include)",
                comparison.skipped.join(", ")
            );
        }
        if let Some(largest) = comparison
            .enum_reduction
            .iter()
            .max_by_key(|r| r.naive_queries)
        {
            eprintln!(
                "largest configuration {}/{}: cold enumeration queries {} (naive) -> {} (incremental), {:.1}x fewer",
                largest.adt,
                largest.library,
                largest.naive_enumeration,
                largest.incremental_enumeration,
                largest.enumeration_reduction()
            );
        }
        if let Some(largest) = comparison
            .prune_reduction
            .iter()
            .max_by_key(|r| r.unpruned_transitions)
        {
            eprintln!(
                "largest DFA workload {}/{}: transitions {} (unpruned) -> {} (pruned), {:.1}x fewer ({} alphabet symbols dropped; states {} = {})",
                largest.adt,
                largest.library,
                largest.unpruned_transitions,
                largest.pruned_transitions,
                largest.reduction(),
                largest.alphabet_pruned,
                largest.unpruned_states,
                largest.pruned_states
            );
        }
        if let Some(largest) = comparison
            .inclusion_reduction
            .iter()
            .max_by_key(|r| r.materialise_transitions)
        {
            eprintln!(
                "largest inclusion workload {}/{}: transitions {} (materialise) -> {} (on-the-fly, simulation subsumption), {:.1}x fewer ({} product pairs vs {} DFA states)",
                largest.adt,
                largest.library,
                largest.materialise_transitions,
                largest.onthefly_simulation_transitions,
                largest.reduction(),
                largest.product_states,
                largest.materialise_states
            );
        }
        if let Some(largest) = comparison
            .subsumption_reduction
            .iter()
            .max_by_key(|r| r.off_cold_pairs)
        {
            eprintln!(
                "largest product walk {}/{}: cold pairs {} (off) -> {} (syntactic) -> {} (simulation), {:.1}x fewer; {} pairs subsumed cold, {} simulation-memo hits warm",
                largest.adt,
                largest.library,
                largest.off_cold_pairs,
                largest.syntactic_cold_pairs,
                largest.simulation_cold_pairs,
                largest.cold_pair_reduction(),
                largest.subsumed_pairs,
                largest.simulation_memo_hits
            );
        }
        let shared_only: usize = comparison
            .lock_reduction
            .iter()
            .map(|r| r.shared_only_locks)
            .sum();
        let read_through: usize = comparison
            .lock_reduction
            .iter()
            .map(|r| r.read_through_locks)
            .sum();
        if read_through > 0 {
            eprintln!(
                "shared-tier lock traffic at jobs=6: {} (shared-only) -> {} (read-through local tiers), {:.1}x fewer",
                shared_only,
                read_through,
                shared_only as f64 / read_through as f64
            );
        }
        eprintln!("replaying the suite against an in-process marpled (cold, then warm client)...");
        let replay = daemon_replay(&hat_suite::all_benchmarks(), 2);
        eprintln!(
            "daemon replay: cold {} requests at {:.2} req/s (p50 {:.3}s, p95 {:.3}s); warm {:.2} req/s (p50 {:.3}s, p95 {:.3}s), {} misses, {} disk loads",
            replay.cold.requests,
            replay.cold.requests_per_second(),
            replay.cold.p50_latency_seconds,
            replay.cold.p95_latency_seconds,
            replay.warm.requests_per_second(),
            replay.warm.p50_latency_seconds,
            replay.warm.p95_latency_seconds,
            replay.warm.cache_misses,
            replay.warm.disk_loaded
        );
        eprintln!(
            "measuring mixed-traffic fairness (probe checks vs background check-all clients)..."
        );
        let mixed = mixed_traffic_replay(&hat_suite::all_benchmarks(), 2, 3, 20);
        eprintln!(
            "mixed traffic: probe p95 {:.3}s uncontended -> {:.3}s under {} check-all clients ({:.1}x, {} batches); {} dedup hits, queue wait p95 {:.1}ms",
            mixed.uncontended_p95_seconds,
            mixed.contended_p95_seconds,
            mixed.background_clients,
            mixed.contention_ratio_p95(),
            mixed.background_batches,
            mixed.dedup_hits,
            mixed.queue_wait_p95_ms
        );
        eprintln!("measuring the LSM cache backend (rotation, compaction, warm load)...");
        let lsm = lsm_measurement(&hat_suite::all_benchmarks(), 2);
        eprintln!(
            "lsm: {} flushes -> {} level-0 segments, {} compactions merged {} segments, write amplification {:.2}x; warm load {:.1}ms at {} records, {:.1}ms at {} records",
            lsm.flushes,
            lsm.segments_written,
            lsm.compactions,
            lsm.segments_merged,
            lsm.write_amplification,
            lsm.warm_load_ms_1x,
            lsm.records_1x,
            lsm.warm_load_ms_10x,
            lsm.records_10x
        );
        let path = "BENCH_engine.json";
        match write_engine_json(
            path,
            ENGINE_BENCH_SCHEMA,
            &comparison,
            Some(&replay),
            Some(&mixed),
            Some(&lsm),
        ) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => eprintln!("cannot write {path}: {e}"),
        }
    }
}
