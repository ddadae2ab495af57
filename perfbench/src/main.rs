//! In-process half of the benchmark: the `dse-web`, `verify-sim` and
//! `serve-load` workloads, and the traced run of their layers.
//!
//! ```text
//! perfbench run --workload <dse-web|verify-sim|serve-load> --seed <n> --seconds <t>
//! perfbench trace --seed <n> --out <dir>
//! perfbench stamp --seed <n>
//! ```
//!
//! `run` prints one JSON line: attempted/failed operations, the output
//! fingerprint, the end-to-end metrics and the host stamp. `trace`
//! times every layer's public calls on the same inputs, writes the
//! spans to `<dir>/spans.json` and prints the per-layer metrics as one
//! JSON line. `stamp` prints the host stamp alone. `run.py` builds
//! this binary and merges its output.

mod dse;
mod serve_load;
mod trace;
mod verify;

use std::time::Instant;

/// Setups before the measured operations. Workloads with a cheap setup
/// also time one more after every operation (see [`measure`]), so their
/// `setup_s` median spans the run, not one spell of the host.
const SETUPS: usize = 3;

/// FNV-1a 64 over `bytes`, continuing from `hash`.
fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of a serializable simulated output.
fn digest<T: serde::Serialize>(value: &T) -> u64 {
    let json = serde_json::to_string(value).expect("simulated outputs serialize");
    fnv(FNV_OFFSET, json.as_bytes())
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Host seconds one call of `f` takes, with its result.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Runs `build` [`SETUPS`] times, dropping each result before the next
/// build, and returns the last result with the build times.
fn timed_setup<T>(mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUPS {
        drop(last.take());
        let (out, secs) = timed(&mut build);
        last = Some(out);
        times.push(secs);
    }
    (last.expect("at least one setup"), times)
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("Linux exposes /proc");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status reports VmHWM in kB");
    kb / 1024.0
}

/// Tallies a workload's operations over its passes. Pass 0 fixes
/// each operation's output digest; every later pass must reproduce it.
/// The fingerprint covers pass 0 only, so it does not depend on how
/// many passes fit in the measured time.
#[derive(Default)]
struct Ledger {
    first: Vec<u64>,
    attempted: u64,
    failed: u64,
}

impl Ledger {
    fn record(&mut self, pass: usize, key: usize, digest: u64, ok: bool) {
        self.attempted += 1;
        let repeats = if pass == 0 {
            self.first.push(digest);
            true
        } else {
            self.first.get(key) == Some(&digest)
        };
        if !(ok && repeats) {
            self.failed += 1;
        }
    }

    fn fingerprint(&self) -> u64 {
        self.first
            .iter()
            .fold(FNV_OFFSET, |h, d| fnv(h, &d.to_le_bytes()))
    }
}

/// Runs a workload's operations in order, `op(pass, key)` for each of
/// `keys` keys per pass, until `seconds` have elapsed after at least
/// one whole pass, and calls `between()` untimed after each operation.
/// Returns each key's host seconds, one per run. The run stops between
/// operations rather than between passes, so a long pass does not
/// stretch it far past `seconds`.
fn measure(
    seconds: f64,
    keys: usize,
    mut op: impl FnMut(usize, usize),
    mut between: impl FnMut(),
) -> Vec<Vec<f64>> {
    let start = Instant::now();
    let mut times = vec![Vec::new(); keys];
    for i in 0.. {
        let (pass, key) = (i / keys, i % keys);
        if pass > 0 && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        times[key].push(timed(|| op(pass, key)).1);
        between();
    }
    times
}

/// Work per host second of a typical pass: the summed work of the
/// given `(work, times)` keys over the sum of their median times. A
/// key's median shrugs off a slow spell of the host that covers fewer
/// than half of its runs.
fn rate<'a>(keys: impl IntoIterator<Item = (f64, &'a [f64])>) -> f64 {
    let (work, secs) = keys.into_iter().fold((0.0, 0.0), |(w, s), (work, times)| {
        (w + work, s + median(times.to_vec()))
    });
    work / secs
}

/// What one untraced workload run reports.
struct RunReport {
    ledger: Ledger,
    setup_s: f64,
    ops_per_s: f64,
    /// Workload-specific named metrics: `(name, value, unit)`.
    named: Vec<(&'static str, f64, &'static str)>,
}

fn json_metrics(metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn stamp(seed: u64) -> String {
    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let features = if cfg!(feature = "telemetry") {
        "telemetry"
    } else {
        ""
    };
    format!(
        "{{\"host_cpus\":{host_cpus},\"kernel_backend\":\"{}\",\"dramsim_threads\":{},\"features\":\"{features}\",\"seed\":{seed}}}",
        nmp::kernels::active_backend().name(),
        dramsim::parallel::threads(),
    )
}

fn run(workload: &str, seed: u64, seconds: f64) -> Result<(), String> {
    let report = match workload {
        "dse-web" => dse::run(seed, seconds),
        "verify-sim" => verify::run(seed, seconds),
        "serve-load" => serve_load::run(seed, seconds),
        other => return Err(format!("unknown in-process workload {other:?}")),
    };
    let mut metrics = vec![
        ("setup_s".to_string(), report.setup_s, "s"),
        ("peak_rss_mb".to_string(), peak_rss_mb(), "MB"),
        ("ops_per_s".to_string(), report.ops_per_s, "ops/s"),
    ];
    metrics.extend(report.named.iter().map(|&(n, v, u)| (n.to_string(), v, u)));
    println!(
        "{{\"workload\":\"{workload}\",\"attempted\":{},\"failed\":{},\"fingerprint\":\"{:016x}\",\"metrics\":{},\"stamp\":{}}}",
        report.ledger.attempted,
        report.ledger.failed,
        report.ledger.fingerprint(),
        json_metrics(&metrics),
        stamp(seed),
    );
    Ok(())
}

fn trace(seed: u64, out: &std::path::Path) -> Result<(), String> {
    let mut t = trace::Tracer::new();
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for (name, prefix, pass) in [
        (
            "dse-web",
            "dse",
            dse::trace as fn(&mut trace::Tracer, u64) -> trace::Pass,
        ),
        ("verify-sim", "sim", verify::trace),
        ("serve-load", "serve", serve_load::trace),
    ] {
        let p = pass(&mut t, seed);
        metrics.push((format!("{prefix}.span_coverage"), t.coverage(name), "ratio"));
        metrics.push((
            format!("{prefix}.trace_overhead_s"),
            p.traced_s - p.untraced_s,
            "s",
        ));
        attempted += p.attempted;
        failed += p.failed;
        metrics.extend(p.metrics.into_iter().map(|(n, v, u)| (n.to_string(), v, u)));
    }
    let self_times = t.self_times();
    let layer = |name: &str| self_times.get(name).copied().unwrap_or(0.0);
    for span in trace::LAYERS {
        metrics.push((format!("{span}_s"), layer(span), "s"));
    }
    metrics.push((
        "nmp.estimate_fold_s".to_string(),
        layer("nmp.estimate")
            - layer("hetgraph.instance_dp")
            - layer("nmp.distribute")
            - layer("dramsim.calibrate"),
        "s",
    ));
    std::fs::create_dir_all(out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let spans = out.join("spans.json");
    t.write_json(&spans)
        .map_err(|e| format!("writing {}: {e}", spans.display()))?;
    println!(
        "{{\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{},\"stamp\":{}}}",
        json_metrics(&metrics),
        stamp(seed)
    );
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let seed = flag("--seed").and_then(|s| s.parse::<u64>().ok());
    let result = match (args.first().map(String::as_str), seed) {
        (Some("run"), Some(seed)) => {
            let seconds = flag("--seconds").and_then(|s| s.parse::<f64>().ok());
            match (flag("--workload"), seconds) {
                (Some(w), Some(s)) if s > 0.0 => run(&w, seed, s),
                _ => Err("run needs --workload <name> and --seconds <t> > 0".into()),
            }
        }
        (Some("stamp"), Some(seed)) => {
            println!("{}", stamp(seed));
            Ok(())
        }
        (Some("trace"), Some(seed)) => match flag("--out") {
            Some(dir) => trace(seed, std::path::Path::new(&dir)),
            None => Err("trace needs --out <dir>".into()),
        },
        _ => Err("usage: perfbench run --workload <w> --seed <n> --seconds <t> | perfbench trace --seed <n> --out <dir> | perfbench stamp --seed <n>".into()),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_runs_one_whole_pass_then_stops_between_operations() {
        let mut ran = Vec::new();
        let mut betweens = 0;
        let times = measure(0.0, 3, |pass, key| ran.push((pass, key)), || betweens += 1);
        assert_eq!(ran, [(0, 0), (0, 1), (0, 2)]);
        assert_eq!(betweens, 3);
        assert!(times.iter().all(|t| t.len() == 1));

        // Past pass 0 a run may stop mid-pass: earlier keys lead by one run.
        let times = measure(
            0.03,
            3,
            |_, _| std::thread::sleep(std::time::Duration::from_millis(7)),
            || {},
        );
        let runs: Vec<usize> = times.iter().map(Vec::len).collect();
        assert!(runs.windows(2).all(|w| w[0] >= w[1]) && runs[0] - runs[2] <= 1);
    }

    #[test]
    fn rate_divides_work_by_the_keys_median_times() {
        let slow_spell = [1.0, 9.0, 1.5];
        let r = rate([(2.0, &slow_spell[..]), (1.0, &[0.5][..])]);
        assert!((r - 3.0 / (1.5 + 0.5)).abs() < 1e-12);
    }

    #[test]
    fn ledger_fails_outputs_that_do_not_repeat() {
        let mut a = Ledger::default();
        a.record(0, 0, 11, true);
        a.record(0, 1, 22, true);
        a.record(1, 0, 11, true);
        a.record(1, 1, 23, true);
        a.record(2, 0, 11, false);
        assert_eq!((a.attempted, a.failed), (5, 2));

        // The fingerprint covers pass 0 alone.
        let mut b = Ledger::default();
        b.record(0, 0, 11, true);
        b.record(0, 1, 22, true);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }
}
