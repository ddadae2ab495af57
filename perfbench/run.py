#!/usr/bin/env python3
"""Benchmark of the MetaNMP reproduction: four workloads, end to end,
plus a traced run that times every layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <t> --trace <0|1>

Run from the repository root. It builds the shipped `sweepd` and
`metanmp-experiments` binaries and the `perfbench` package (default
features, release profile) into `$CARGO_TARGET_DIR` (default
`.bench_build`), runs the workload, checks every output, and prints as
its last line one JSON object with `correct`, `attempted`, `failed` and
`metrics`. `--trace 0` reports the end-to-end metrics of the workload;
`--trace 1` runs the traced pass over every layer and reports the
per-layer metrics. BENCHMARK.json names both sets. Full results, with
the host stamp, go to `perfbench/out/`.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

import fleet

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", "out")
WORKLOADS = ("dse-web", "verify-sim", "fleet-sweep", "serve-load")
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def build():
    """Builds the binaries from source; returns their paths."""
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates"))):
        raise BenchError(f"{ROOT} is not a checkout of the repository (no Cargo.toml/crates)")
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for argv in (
        ["cargo", "build", "--release", "--offline", "--bin", "sweepd",
         "--bin", "metanmp-experiments"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join("perfbench", "Cargo.toml")],
    ):
        if subprocess.run(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                          stdout=sys.stderr).returncode != 0:
            raise BenchError(f"build failed: {' '.join(argv)}")
    release = os.path.join(target, "release")
    return {
        "perfbench": os.path.join(release, "perfbench"),
        "sweepd": os.path.join(release, "sweepd"),
        "experiments": os.path.join(release, "metanmp-experiments"),
    }


def perfbench(bins, *args):
    """Runs the in-process benchmark binary; returns its JSON line."""
    proc = subprocess.run([bins["perfbench"], *map(str, args)], cwd=ROOT,
                          stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                          timeout=RUN_TIMEOUT_S, check=False)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"perfbench {args[0]} exited with {proc.returncode}")
    return json.loads(lines[-1])


def source_digest():
    """SHA-256 over the sources the build reads, so results from a
    checkout without git history still name the code they measured."""
    files = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")]
    for top in ("crates", "vendor", "perfbench"):
        for d, _, names in os.walk(os.path.join(ROOT, top)):
            files += [os.path.join(d, n) for n in names
                      if n.endswith((".rs", ".toml", ".lock", ".py")) and not d.startswith(OUT)]
    h = hashlib.sha256()
    for f in sorted(files):
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def git_revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdin=subprocess.DEVNULL,
                          capture_output=True, check=False)
    return proc.stdout.decode().strip() or None


def untraced(bins, workload, seed, seconds, work):
    if workload == "fleet-sweep":
        attempted, failed, fp, metrics = fleet.run(bins, work, seed, seconds, traced=False)
        fingerprint = f"{fp:016x}"
    else:
        res = perfbench(bins, "run", "--workload", workload, "--seed", seed,
                        "--seconds", seconds)
        attempted, failed, fingerprint = res["attempted"], res["failed"], res["fingerprint"]
        metrics = {k: (v["value"], v["unit"]) for k, v in res["metrics"].items()}
    return attempted, failed, {"fingerprint": fingerprint}, metrics


def traced(bins, workload, seed, work):
    trace_dir = os.path.join(OUT, f"trace-{workload}-seed{seed}")
    res = perfbench(bins, "trace", "--seed", seed, "--out", trace_dir)
    metrics = {k: (v["value"], v["unit"]) for k, v in res["metrics"].items()}
    cells, cells_failed, fp, fleet_metrics = fleet.run(bins, work, seed, 0, traced=True)
    metrics.update(fleet_metrics)
    extra = {"spans": os.path.relpath(os.path.join(trace_dir, "spans.json"), ROOT),
             "fleet_fingerprint": f"{fp:016x}"}
    return res["attempted"] + cells, res["failed"] + cells_failed, extra, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    work = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        bins = build()
        stamp = perfbench(bins, "stamp", "--seed", args.seed)
        if args.trace:
            attempted, failed, extra, metrics = traced(bins, args.workload, args.seed, work)
        else:
            attempted, failed, extra, metrics = untraced(
                bins, args.workload, args.seed, args.seconds, work)
        missing = [m["name"] for m in wanted if metrics.get(m["name"], (0, None))[1] != m["unit"]]
        if missing:
            raise BenchError(f"run produced no value in the declared unit for {missing}")
    except (BenchError, fleet.FleetError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    stamp.update(git_revision=git_revision(), source_digest=source_digest())
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted, **extra, "stamp": stamp,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}.json"
    with open(os.path.join(OUT, name), "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")

    print(f"workload {args.workload} seed {args.seed}: {attempted} operations, "
          f"{failed} failed (fail_frac {failed / attempted})")
    for k, v in extra.items():
        print(f"{k} {v}")
    print("stamp " + json.dumps(stamp))
    for k, (v, u) in metrics.items():
        print(f"{k} = {v} {u}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
