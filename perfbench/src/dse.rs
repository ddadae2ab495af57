//! `dse-web`: a design-space sweep of the closed-form estimator over
//! the two web-scale graphs, the work behind figures 14–18.
//!
//! Every configuration shares one graph, so graph-level work (the
//! generator, the per-start instance and prefix-node DP) shows here
//! and nowhere else.

use dramsim::DramConfig;
use hetgraph::datasets::{generate, Dataset, DatasetId, GeneratorConfig};
use hetgraph::instances::{count_instances, count_instances_per_start, count_prefix_nodes};
use hgnn::ModelKind;
use nmp::distribution::distribute;
use nmp::layout::Placement;
use nmp::{calibrate_rank_local, estimate, CommPolicy, NmpConfig};

use std::time::Instant;

use crate::trace::{Pass, Tracer};
use crate::{digest, measure, median, rate, timed_setup, Ledger, RunReport};

/// The analysis scales `metanmp-experiments` uses for the web graphs.
const GRAPHS: [(DatasetId, f64); 2] = [(DatasetId::OgbMag, 0.5), (DatasetId::Oag, 0.25)];
const HIDDEN: usize = 64;

fn datasets(seed: u64) -> Vec<Dataset> {
    GRAPHS
        .iter()
        .map(|&(id, scale)| {
            generate(
                id,
                GeneratorConfig {
                    scale,
                    seed,
                    ..GeneratorConfig::default()
                },
            )
        })
        .collect()
}

fn config(
    comm: CommPolicy,
    channels: usize,
    dimms: usize,
    ranks: usize,
    in_nmp: bool,
) -> NmpConfig {
    NmpConfig {
        dram: DramConfig {
            channels,
            dimms_per_channel: dimms,
            ranks_per_dimm: ranks,
            ..DramConfig::default()
        },
        hidden_dim: HIDDEN,
        comm,
        aggregate_in_nmp: in_nmp,
        ..NmpConfig::default()
    }
}

/// One pass of the sweep: each axis that figures 14–18 vary
/// (communication policy, channels × DIMMs per channel, ranks per
/// DIMM, NMP aggregation) moves away from the default at least once.
fn grid() -> [NmpConfig; 4] {
    [
        config(CommPolicy::Broadcast, 4, 2, 2, true),
        config(CommPolicy::Naive, 4, 2, 2, true),
        config(CommPolicy::Broadcast, 1, 8, 4, true),
        config(CommPolicy::Broadcast, 2, 2, 1, false),
    ]
}

/// Σ `count_instances` over a dataset's metapaths: what every estimate
/// on it must report as `counts.instances`.
fn expected_instances(ds: &Dataset) -> u128 {
    ds.metapaths
        .iter()
        .map(|mp| count_instances(&ds.graph, mp).expect("preset metapaths fit their graph"))
        .sum()
}

/// Estimates one configuration and checks the report.
fn evaluate(ds: &Dataset, cfg: &NmpConfig, expected: u128) -> (u64, bool) {
    match estimate(&ds.graph, ModelKind::Magnn, &ds.metapaths, cfg) {
        Ok(r) => (
            digest(&r),
            r.counts.instances == expected && r.seconds.is_finite() && r.seconds > 0.0,
        ),
        Err(_) => (0, false),
    }
}

pub fn run(seed: u64, seconds: f64) -> RunReport {
    // A setup takes seconds, so it is not repeated between operations.
    let (graphs, setup_times) = timed_setup(|| datasets(seed));
    let expected: Vec<u128> = graphs.iter().map(expected_instances).collect();
    let grid = grid();
    let mut ledger = Ledger::default();
    let times = measure(
        seconds,
        grid.len() * graphs.len(),
        |pass, key| {
            let gi = key % graphs.len();
            let (d, ok) = evaluate(&graphs[gi], &grid[key / graphs.len()], expected[gi]);
            ledger.record(pass, key, d, ok);
        },
        || {},
    );
    let configs_per_s = rate(times.iter().map(|t| (1.0, t.as_slice())));
    RunReport {
        ledger,
        setup_s: median(setup_times),
        ops_per_s: configs_per_s,
        named: vec![("dse.configs_per_s", configs_per_s, "1/s")],
    }
}

/// Traced pass: generation of both graphs, then the default
/// configuration on each graph, followed by the estimator's layers
/// replayed through their public entry points on the same inputs.
pub fn trace(t: &mut Tracer, seed: u64) -> Pass {
    let cfg = grid()[0];
    let mut failed = 0;
    let graphs = t.span("dse-web", |t| {
        let graphs: Vec<Dataset> = GRAPHS
            .iter()
            .map(|&(id, scale)| {
                t.span("hetgraph.generate", |_| {
                    generate(
                        id,
                        GeneratorConfig {
                            scale,
                            seed,
                            ..GeneratorConfig::default()
                        },
                    )
                })
            })
            .collect();
        for ds in &graphs {
            let report = t.span("nmp.estimate", |_| {
                estimate(&ds.graph, ModelKind::Magnn, &ds.metapaths, &cfg)
            });
            let instances: u128 = t.span("hetgraph.instance_dp", |_| {
                ds.metapaths
                    .iter()
                    .map(|mp| {
                        let per_start = count_instances_per_start(&ds.graph, mp)
                            .expect("preset metapaths fit their graph");
                        std::hint::black_box(count_prefix_nodes(&ds.graph, mp).ok());
                        per_start.iter().sum::<u128>()
                    })
                    .sum()
            });
            t.span("nmp.distribute", |_| {
                let placement = Placement::new(cfg.dram, cfg.hidden_dim);
                for mp in &ds.metapaths {
                    std::hint::black_box(distribute(&ds.graph, mp, &cfg, &placement).ok());
                }
            });
            t.span("dramsim.calibrate", |_| {
                std::hint::black_box(calibrate_rank_local(&cfg));
            });
            if report.map_or(true, |r| r.counts.instances != instances) {
                failed += 1;
            }
        }
        graphs
    });
    let traced_s = t.total("nmp.estimate");
    let start = Instant::now();
    for ds in &graphs {
        std::hint::black_box(estimate(&ds.graph, ModelKind::Magnn, &ds.metapaths, &cfg).ok());
    }
    Pass {
        attempted: graphs.len() as u64,
        traced_s,
        untraced_s: start.elapsed().as_secs_f64(),
        failed,
        metrics: Vec::new(),
    }
}
