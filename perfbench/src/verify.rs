//! `verify-sim`: the cycle-level path end to end. `metanmp::Simulator`
//! runs the software reference, projection, functional NMP (CarPU
//! generation, RCEU aggregation), FR-FCFS DRAM service and the
//! reference check on three small datasets under a write-heavy model
//! (MAGNN) and a read-mostly one (HAN), plus fault-injected runs that
//! drive the fault-handling DRAM path.

use hetgraph::datasets::DatasetId;
use hgnn::engine::{InferenceEngine, OnTheFlyEngine};
use hgnn::{FeatureStore, ModelConfig, ModelKind, OpCounters, Projection};
use metanmp::{compare_memory, FaultConfig, SimulationOutcome, Simulator};
use nmp::{NmpConfig, NmpReport, ResumableRun};

use std::time::Instant;

use crate::trace::{Pass, Tracer};
use crate::{digest, measure, median, rate, timed, timed_setup, Ledger, RunReport};

const HIDDEN: usize = 16;
/// Start vertices per `ResumableRun::step`, as `Simulator::run` uses.
const STEP: u64 = 1024;

#[derive(Clone, Copy, PartialEq)]
enum Fault {
    None,
    Ecc,
    Drop,
}

struct Spec {
    dataset: DatasetId,
    scale: f64,
    model: ModelKind,
    fault: Fault,
}

fn specs() -> Vec<Spec> {
    let mut specs = Vec::new();
    for (dataset, scale) in [
        (DatasetId::Imdb, 0.1),
        (DatasetId::Dblp, 0.05),
        (DatasetId::Lastfm, 0.05),
    ] {
        for model in [ModelKind::Magnn, ModelKind::Han] {
            specs.push(Spec {
                dataset,
                scale,
                model,
                fault: Fault::None,
            });
        }
    }
    for fault in [Fault::Ecc, Fault::Drop] {
        specs.push(Spec {
            dataset: DatasetId::Imdb,
            scale: 0.1,
            model: ModelKind::Magnn,
            fault,
        });
    }
    specs
}

fn faults(fault: Fault, seed: u64) -> FaultConfig {
    match fault {
        Fault::None => FaultConfig::off(),
        Fault::Ecc => FaultConfig {
            seed,
            bit_flip_rate: 1e-3,
            ..FaultConfig::off()
        },
        Fault::Drop => FaultConfig {
            seed,
            broadcast_drop_rate: 0.2,
            ..FaultConfig::off()
        },
    }
}

fn build(spec: &Spec, seed: u64) -> Simulator {
    Simulator::builder()
        .dataset(spec.dataset)
        .scale(spec.scale)
        .seed(seed)
        .model(spec.model)
        .hidden_dim(HIDDEN)
        .faults(faults(spec.fault, seed))
        .build()
        .expect("benchmark simulator configuration is valid")
}

fn verified(o: &SimulationOutcome) -> bool {
    o.matches_reference && !o.degraded
}

pub fn run(seed: u64, seconds: f64) -> RunReport {
    let specs = specs();
    let build_all = || specs.iter().map(|s| build(s, seed)).collect::<Vec<_>>();
    let (sims, mut setup_times) = timed_setup(build_all);
    let mut ledger = Ledger::default();
    // Simulated instances per run, by key: the same on every pass.
    let mut instances = vec![0.0; specs.len()];
    let times = measure(
        seconds,
        specs.len(),
        |pass, key| {
            let (d, ok, n) = match &sims[key].run() {
                Ok(o) => (digest(o), verified(o), o.nmp.counts.instances),
                Err(_) => (0, false, 0),
            };
            ledger.record(pass, key, d, ok);
            instances[key] = n as f64;
        },
        || setup_times.push(timed(build_all).1),
    );
    let rate_of = |faulted: Option<bool>| {
        rate(
            specs
                .iter()
                .zip(&instances)
                .zip(&times)
                .filter(|((s, _), _)| faulted.is_none_or(|f| (s.fault != Fault::None) == f))
                .map(|((_, &n), t)| (n, t.as_slice())),
        )
    };
    RunReport {
        ledger,
        setup_s: median(setup_times),
        ops_per_s: rate_of(None),
        named: vec![
            ("sim.instances_per_s", rate_of(Some(false)), "1/s"),
            ("sim.faulted_instances_per_s", rate_of(Some(true)), "1/s"),
        ],
    }
}

/// Replays `Simulator::run` layer by layer through public calls and
/// returns the outcome it reproduces.
fn replay(t: &mut Tracer, sim: &Simulator, spec: &Spec, seed: u64) -> Option<SimulationOutcome> {
    let ds = sim.dataset();
    let features = FeatureStore::random(&ds.graph, seed);
    let model_config = ModelConfig::new(spec.model)
        .with_hidden_dim(HIDDEN)
        .with_attention(false)
        .with_seed(seed);
    let reference = t
        .span("hgnn.reference", |_| {
            OnTheFlyEngine.run(&ds.graph, &features, &model_config, &ds.metapaths)
        })
        .ok()?;
    let nmp = NmpConfig {
        hidden_dim: HIDDEN,
        faults: faults(spec.fault, seed),
        ..NmpConfig::default()
    };
    let projection = Projection::random(&ds.graph, HIDDEN, seed);
    let widest = ds
        .graph
        .schema()
        .vertex_types()
        .map(|(_, decl)| decl.feature_dim)
        .max()
        .unwrap_or(HIDDEN);
    let tiles = nmp.feature_cache_tiles(widest);
    let mut counters = OpCounters::default();
    let hidden = t
        .span("hgnn.project", |_| {
            projection.project_with_tiles(&ds.graph, &features, &mut counters, tiles)
        })
        .ok()?;
    let mut run = ResumableRun::new(nmp);
    while !t
        .span("nmp.step", |_| {
            run.step(&ds.graph, &hidden, spec.model, &ds.metapaths, STEP)
        })
        .ok()?
    {}
    let service = if spec.fault == Fault::None {
        "dramsim.service"
    } else {
        "dramsim.service_faulted"
    };
    let done = t
        .span(service, |_| run.finish(&ds.graph, &ds.metapaths))
        .ok()?;
    let max_reference_diff = done.embeddings.max_abs_diff(&reference.embeddings);
    let memory = t
        .span("metanmp.memory_analysis", |_| {
            ds.metapaths
                .iter()
                .map(|mp| compare_memory(&ds.graph, mp, spec.model, HIDDEN, nmp.dram.total_dimms()))
                .collect::<Result<Vec<_>, _>>()
        })
        .ok()?;
    Some(SimulationOutcome {
        nmp: done.report,
        max_reference_diff,
        matches_reference: max_reference_diff < 1e-3,
        memory,
        degraded: false,
        degraded_reason: None,
    })
}

/// Traced pass: each simulator run once through `Simulator::run`, then
/// replayed layer by layer; the replay must reproduce the run exactly.
pub fn trace(t: &mut Tracer, seed: u64) -> Pass {
    let specs = specs();
    let mut failed = 0;
    let mut clean: Vec<NmpReport> = Vec::new();
    let mut faulted: Vec<NmpReport> = Vec::new();
    let mut faulted_s = 0.0;
    let sims = t.span("verify-sim", |t| {
        let mut sims = Vec::new();
        for spec in &specs {
            let sim = t.span("metanmp.build", |_| build(spec, seed));
            let start = Instant::now();
            let outcome = t.span("metanmp.run", |_| sim.run());
            let elapsed = start.elapsed().as_secs_f64();
            let replayed = replay(t, &sim, spec, seed);
            match (outcome, replayed) {
                (Ok(o), Some(r)) if verified(&o) && digest(&o) == digest(&r) => {
                    if spec.fault == Fault::None {
                        clean.push(o.nmp);
                    } else {
                        faulted_s += elapsed;
                        faulted.push(o.nmp);
                    }
                }
                _ => failed += 1,
            }
            sims.push(sim);
        }
        sims
    });
    let traced_s = t.total("metanmp.run");
    let start = Instant::now();
    for sim in &sims {
        std::hint::black_box(sim.run().ok());
    }
    let untraced_s = start.elapsed().as_secs_f64();

    let sum = |reports: &[NmpReport], f: fn(&NmpReport) -> u64| -> f64 {
        reports.iter().map(f).sum::<u64>() as f64
    };
    let hits = sum(&clean, |r| r.dram_stats.row_hits);
    let misses = sum(&clean, |r| r.dram_stats.row_misses);
    let faulted_instances: u128 = faulted.iter().map(|r| r.counts.instances).sum();
    Pass {
        attempted: specs.len() as u64,
        traced_s,
        untraced_s,
        failed,
        metrics: vec![
            (
                "dramsim.reads",
                sum(&clean, |r| r.dram_stats.reads),
                "count",
            ),
            (
                "dramsim.writes",
                sum(&clean, |r| r.dram_stats.writes),
                "count",
            ),
            (
                "dramsim.row_hit_ratio",
                hits / (hits + misses).max(1.0),
                "ratio",
            ),
            (
                "nmp.aggregations",
                clean.iter().map(|r| r.counts.aggregations).sum::<u128>() as f64,
                "count",
            ),
            (
                "nmp.reuse_copies",
                clean.iter().map(|r| r.counts.copies).sum::<u128>() as f64,
                "count",
            ),
            (
                "faults.read_retries",
                sum(&faulted, |r| r.faults.read_retries),
                "count",
            ),
            (
                "faults.broadcast_retries",
                sum(&faulted, |r| r.faults.broadcast_retries),
                "count",
            ),
            (
                "faults.broadcast_fallbacks",
                sum(&faulted, |r| r.faults.broadcast_fallbacks),
                "count",
            ),
            (
                "sim.faulted_instances_per_s",
                faulted_instances as f64 / faulted_s,
                "1/s",
            ),
        ],
    }
}
