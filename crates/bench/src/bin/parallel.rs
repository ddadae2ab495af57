//! Thread-scaling benchmark for the deterministic parallel execution
//! path inside one simulation: the end-to-end simulator with
//! DIMM-parallel instance generation.
//!
//! Runs a pinned workload at host thread budgets 1/2/4/8 via
//! [`dramsim::parallel::set_threads`] and writes `BENCH_parallel.json`
//! with wall times, speedups relative to the single-thread run, and the
//! host's core count. Every row also reports a result fingerprint;
//! the binary exits non-zero if any budget changes a fingerprint, so
//! the scaling numbers double as a determinism check.
//!
//! Speedup > 1 materializes only on multi-core hosts — `host_cpus` is
//! recorded so a consumer can tell "no speedup" from "nothing to speed
//! up" (on a 1-core container the scoped pools never beat the inline
//! path, and auto mode would not even spawn them).
//!
//! Wall-clock timing is intentional here (this is a benchmark); all
//! simulation *results* remain time-free.

use std::time::Instant;

use hgnn::ModelKind;
use metanmp::Simulator;
use serde::Serialize;

const THREAD_BUDGETS: [usize; 4] = [1, 2, 4, 8];
const SEED: u64 = 7;

#[derive(Serialize)]
struct StageRow {
    stage: &'static str,
    threads: usize,
    wall_ms: f64,
    /// Result digest of the run (cycles); must not vary with threads.
    fingerprint: u64,
    speedup_vs_1: f64,
}

#[derive(Serialize)]
struct Doc {
    workload: &'static str,
    seed: u64,
    host_cpus: usize,
    /// True when the run produced the same fingerprint at every thread
    /// budget.
    deterministic: bool,
    rows: Vec<StageRow>,
}

/// End-to-end pipeline: software reference, DIMM-parallel instance
/// generation, cycle simulation.
fn sim_stage() -> u64 {
    let outcome = Simulator::builder()
        .dataset(hetgraph::datasets::DatasetId::Imdb)
        .scale(0.02)
        .model(ModelKind::Magnn)
        .hidden_dim(16)
        .build()
        .expect("bench simulator configuration")
        .run()
        .expect("bench simulation");
    outcome.nmp.cycles
}

fn main() {
    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let name = "end_to_end_sim";
    let mut rows = Vec::new();
    let mut deterministic = true;
    let (mut base_ms, mut base_fp) = (0.0, 0);
    for threads in THREAD_BUDGETS {
        dramsim::parallel::set_threads(threads);
        let start = Instant::now();
        let fingerprint = sim_stage();
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        if threads == 1 {
            (base_ms, base_fp) = (wall_ms, fingerprint);
        } else if fingerprint != base_fp {
            eprintln!(
                "FAIL {name}: fingerprint {fingerprint} at {threads} threads, \
                 expected {base_fp} (from 1 thread)"
            );
            deterministic = false;
        }
        eprintln!("{name:>16} threads={threads} wall={wall_ms:.1}ms fp={fingerprint}");
        rows.push(StageRow {
            stage: name,
            threads,
            wall_ms,
            fingerprint,
            speedup_vs_1: base_ms / wall_ms,
        });
    }
    dramsim::parallel::set_threads(0);

    let doc = Doc {
        workload: "sim: IMDB@0.02 MAGNN hidden=16",
        seed: SEED,
        host_cpus,
        deterministic,
        rows,
    };
    let json = serde_json::to_string_pretty(&doc).expect("serialize bench results");
    std::fs::write("BENCH_parallel.json", json).expect("write BENCH_parallel.json");
    eprintln!("wrote BENCH_parallel.json (host_cpus={host_cpus})");
    if !deterministic {
        eprintln!("thread budget changed a result fingerprint — determinism violated");
        std::process::exit(1);
    }
}
