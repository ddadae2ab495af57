//! `serve-load`: the serving event loop (batching, reuse cache,
//! admission) under open-loop Poisson load at fixed multiples of the
//! cache-cold capacity, over one prebuilt workload.

use serve::{
    AdmissionConfig, ArrivalSpec, PoissonArrivals, ServeConfig, ServeReport, ServeWorkload,
};

use std::time::Instant;

use crate::trace::{Pass, Tracer};
use crate::{digest, measure, median, rate, timed, timed_setup, Ledger, RunReport};

/// Queries per load point.
const QUERIES: u32 = 200_000;
/// Offered load as multiples of the cache-cold capacity; the last
/// point repeats the highest load with admission control on, so
/// shedding is exercised as well as queueing.
const LOADS: [(f64, bool); 5] = [
    (0.5, false),
    (1.0, false),
    (2.0, false),
    (4.0, false),
    (4.0, true),
];

/// IMDB@0.02, MAGNN, hidden 16, seeded arrivals and faults.
fn base(seed: u64) -> ServeConfig {
    let mut c = ServeConfig::smoke_test();
    c.seed = seed;
    c.faults.seed = seed;
    c
}

fn points(seed: u64, w: &ServeWorkload) -> Vec<ServeConfig> {
    let capacity = w.dimms() as f64 * 1024.0 / w.mean_query_ticks();
    LOADS
        .iter()
        .map(|&(load, admission)| {
            let mut c = base(seed);
            c.arrivals = ArrivalSpec::Poisson(PoissonArrivals {
                rate_per_ktick: load * capacity,
                queries: QUERIES,
                popularity_skew: 2.0,
            });
            c.admission = admission.then(|| AdmissionConfig::for_capacity(capacity, w.dimms()));
            c
        })
        .collect()
}

fn shed(r: &ServeReport) -> u64 {
    r.admission.shed_queue_depth + r.admission.shed_rate_limit + r.admission.shed_deadline
}

/// Every arrival is served, shed or answered by a brownout.
fn accounted(r: &ServeReport) -> bool {
    r.arrived == u64::from(QUERIES) && r.arrived == r.queries + shed(r) + r.admission.brownouts
}

fn workload(seed: u64) -> ServeWorkload {
    ServeWorkload::build(&base(seed)).expect("serving workload builds")
}

pub fn run(seed: u64, seconds: f64) -> RunReport {
    let (w, mut setup_times) = timed_setup(|| workload(seed));
    let configs = points(seed, &w);
    let mut ledger = Ledger::default();
    let times = measure(
        seconds,
        configs.len(),
        |pass, key| {
            let (d, ok) = match serve::simulate(&configs[key], &w) {
                Ok(r) => (digest(&r), accounted(&r)),
                Err(_) => (0, false),
            };
            ledger.record(pass, key, d, ok);
        },
        || setup_times.push(timed(|| workload(seed)).1),
    );
    let queries_per_s = rate(times.iter().map(|t| (f64::from(QUERIES), t.as_slice())));
    RunReport {
        ledger,
        setup_s: median(setup_times),
        ops_per_s: queries_per_s,
        named: vec![("serve.queries_per_s", queries_per_s, "1/s")],
    }
}

/// Traced pass: one workload build and one sweep over the load points.
pub fn trace(t: &mut Tracer, seed: u64) -> Pass {
    let mut failed = 0;
    let mut reports = Vec::new();
    let (w, configs) = t.span("serve-load", |t| {
        let w = t.span("serve.workload_build", |_| workload(seed));
        let configs = points(seed, &w);
        for c in &configs {
            match t.span("serve.simulate", |_| serve::simulate(c, &w)) {
                Ok(r) if accounted(&r) => reports.push(r),
                _ => failed += 1,
            }
        }
        (w, configs)
    });
    let traced_s = t.total("serve.simulate");
    let start = Instant::now();
    for c in &configs {
        std::hint::black_box(serve::simulate(c, &w).ok());
    }
    let untraced_s = start.elapsed().as_secs_f64();
    let (hits, lookups) = reports.iter().fold((0u64, 0u64), |(h, n), r| {
        let s = &r.cache.stats;
        let hits = s.root_hits + s.prefix_hits;
        (h + hits, n + hits + s.root_misses + s.prefix_misses)
    });
    Pass {
        attempted: configs.len() as u64,
        traced_s,
        untraced_s,
        failed,
        metrics: vec![
            (
                "serve.cache_hit_ratio",
                hits as f64 / lookups.max(1) as f64,
                "ratio",
            ),
            (
                "serve.shed",
                reports.iter().map(shed).sum::<u64>() as f64,
                "count",
            ),
        ],
    }
}
