"""The `fleet-sweep` workload: the sweepd control plane over loopback.

One `sweepd` runs with two workers: one local child slot and one
`metanmp-experiments --connect` worker over TCP. Each round submits
`SWEEPS` `faults` sweeps with distinct seeds at once and polls until
all are done; rounds repeat the same seeds until the measured time is
up, then the daemon drains. Cells cost 20-100 ms of compute, so spawn,
lease, heartbeat, journal, finalize and HTTP do most of the work.

Every finalized `results/faults.json` must be byte-equal to the one an
in-process `metanmp-experiments faults --seed S` run writes.
"""

import json
import os
import statistics
import subprocess
import time
import urllib.request

SWEEPS = 4
# Fleet starts per run, as in the in-process workloads: at least
# MIN_SETUPS, more while they have taken under SETUP_BUDGET_S.
MIN_SETUPS = 3
MAX_SETUPS = 50
SETUP_BUDGET_S = 0.5
POLL_S = 0.02
FNV_OFFSET = 0xCBF29CE484222325
# An idle local worker waits out the whole drain grace window (default
# 10 s) before the daemon escalates; drain is not timed, so keep it short.
DRAIN_GRACE_MS = 1000


class FleetError(Exception):
    pass


def fnv(h, data):
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def http(addr, method, path, body=None):
    req = urllib.request.Request(f"http://{addr}{path}", data=body, method=method)
    with urllib.request.urlopen(req, timeout=30) as resp:
        return json.loads(resp.read() or b"null")


def timed_http(samples, addr, method, path, body=None):
    t0 = time.monotonic()
    out = http(addr, method, path, body)
    samples.append((time.monotonic() - t0) * 1e3)
    return out


def peak_rss_mb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise FleetError(f"no VmHWM for pid {pid}")


class Fleet:
    """A daemon with one local slot and one remote worker."""

    def __init__(self, work):
        self.work = work
        self.state = os.path.join(work, "state")
        self.log = os.path.join(work, "sweepd.log")
        self.procs = []
        self.daemon = None
        self.addr = None

    def start(self, bins):
        os.makedirs(self.work, exist_ok=True)
        self.daemon = self._spawn(
            [bins["sweepd"], "--listen", "127.0.0.1:0", "--worker-listen", "127.0.0.1:0",
             "--worker-cmd", bins["experiments"], "--workers", "1",
             "--state-dir", self.state, "--drain-grace-ms", str(DRAIN_GRACE_MS)],
            self.log)
        self.addr, waddr = self._addresses()
        self._spawn([bins["experiments"], "--connect", waddr],
                    os.path.join(self.work, "worker.log"))
        deadline = time.monotonic() + 30
        while not any(w["kind"] == "remote" and w["alive"]
                      for w in http(self.addr, "GET", "/healthz")["workers"]):
            if time.monotonic() > deadline:
                raise FleetError("remote worker never registered")
            time.sleep(0.002)

    def _spawn(self, argv, log):
        with open(log, "wb") as out:
            p = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=out)
        self.procs.append(p)
        return p

    def _addresses(self):
        prefixes = {"ctl": "sweepd: listening on ", "wrk": "sweepd: workers on "}
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            with open(self.log) as f:
                text = f.read()
            found = {key: line[len(p):].strip()
                     for line in text.splitlines()
                     for key, p in prefixes.items() if line.startswith(p)}
            if len(found) == 2:
                return found["ctl"], found["wrk"]
            if self.daemon.poll() is not None:
                raise FleetError(f"sweepd exited on startup:\n{text}")
            time.sleep(0.002)
        raise FleetError("sweepd never reported its addresses")

    def submit(self, seed, samples):
        body = json.dumps({"experiment": "faults", "seed": seed}).encode()
        return timed_http(samples, self.addr, "POST", "/sweeps", body)["id"]

    def results(self, sweep_id):
        path = os.path.join(self.state, f"sweep-{sweep_id}", "results", "faults.json")
        with open(path, "rb") as f:
            return f.read()

    def finalize_s(self, sweep_id):
        """Last cell journaled → finalized artifact written, from file
        times: the stage takes ~15 ms, below what polling resolves."""
        sweep = os.path.join(self.state, f"sweep-{sweep_id}")
        journal = os.stat(os.path.join(sweep, "faults.manifest.jsonl")).st_mtime_ns
        result = os.stat(os.path.join(sweep, "results", "faults.json")).st_mtime_ns
        return (result - journal) / 1e9

    def drain(self):
        """Drains the daemon and fails unless it exits cleanly."""
        http(self.addr, "POST", "/shutdown", b"")
        code = self.daemon.wait(timeout=60)
        self.stop()
        if code != 0:
            raise FleetError(f"sweepd drained with exit code {code}")

    def stop(self):
        for p in self.procs:
            if p.poll() is None:
                p.terminate()
                try:
                    p.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    p.kill()
                    p.wait()


def references(bins, seeds, work):
    """In-process `faults --seed S` outputs, by seed."""
    refs = {}
    for s in seeds:
        cwd = os.path.join(work, f"ref-{s}")
        os.makedirs(cwd, exist_ok=True)
        subprocess.run([bins["experiments"], "faults", "--seed", str(s)], cwd=cwd,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL, check=True, timeout=120)
        with open(os.path.join(cwd, "results", "faults.json"), "rb") as f:
            refs[s] = f.read()
    return refs


def finished(view):
    if view["status"] in ("failed", "shed", "cancelled"):
        raise FleetError(f"sweep {view['id']} ended {view['status']}: {view['detail']}")
    return view["status"] == "done"


def measured_rounds(fleet, seeds, seconds):
    """Rounds of sweeps until `seconds` have passed; polls only the
    sweep list. Returns the sweep ids per round and the median over
    rounds of cells per host second, from a round's first submit to
    its last sweep done."""
    rounds, rates = [], []
    start = time.monotonic()
    while not rounds or time.monotonic() - start < seconds:
        t0 = time.monotonic()
        ids = [fleet.submit(s, []) for s in seeds]
        while True:
            views = {v["id"]: v for v in http(fleet.addr, "GET", "/sweeps")["sweeps"]}
            if all(finished(views[i]) for i in ids):
                break
            if time.monotonic() > t0 + 120:
                raise FleetError("round did not finish within 120 s")
            time.sleep(POLL_S)
        rates.append(sum(views[i]["total"] for i in ids) / (time.monotonic() - t0))
        rounds.append(ids)
    return rounds, statistics.median(rates)


def traced_round(fleet, seeds):
    """One round, polling every sweep's cells to time the control
    plane's stages. Returns the sweep ids and the per-layer metrics."""
    submit_ms, get_ms = [], []
    submitted, ids = {}, []
    for s in seeds:
        t0 = time.monotonic()
        sweep_id = fleet.submit(s, submit_ms)
        submitted[sweep_id] = t0
        ids.append(sweep_id)
    leased, done, sweep_done = {}, {}, set()
    deadline = time.monotonic() + 120
    while len(sweep_done) < len(ids):
        for sweep_id in ids:
            if sweep_id in sweep_done:
                continue
            detail = timed_http(get_ms, fleet.addr, "GET", f"/sweeps/{sweep_id}")
            now = time.monotonic()
            for c in detail["cells"]:
                cell = (sweep_id, c["key"])
                if c["status"] in ("leased", "done"):
                    leased.setdefault(cell, now)
                if c["status"] == "done":
                    done.setdefault(cell, now)
            if finished(detail["sweep"]):
                sweep_done.add(sweep_id)
        if time.monotonic() > deadline:
            raise FleetError("traced round did not finish within 120 s")
        time.sleep(POLL_S)
    counters = http(fleet.addr, "GET", "/metrics").get("counters", {})
    med = statistics.median
    metrics = {
        "sweepd.submit_ms": (med(submit_ms), "ms"),
        "sweepd.http_p50_ms": (med(get_ms), "ms"),
        "sweepd.cell_wait_s": (med(leased[c] - submitted[c[0]] for c in leased), "s"),
        "sweepd.cell_run_s": (med(done[c] - leased[c] for c in done), "s"),
        "sweepd.finalize_s": (med(fleet.finalize_s(i) for i in ids), "s"),
        "sweepd.cells_retried": (counters.get("sweepd.cells.migrated", 0), "count"),
        "sweepd.worker_restarts": (counters.get("sweepd.worker.restarts", 0), "count"),
    }
    return [ids], metrics


def run(bins, work, seed, seconds, traced):
    """Runs the workload; returns (attempted cells, failed cells,
    fingerprint, metrics)."""
    seeds = [seed * 1000 + i for i in range(SWEEPS)]
    fleets = []
    try:
        setup_times = []
        while len(setup_times) < MIN_SETUPS or (
                len(setup_times) < MAX_SETUPS and sum(setup_times) < SETUP_BUDGET_S):
            if fleets:
                fleets[-1].drain()
            fleets.append(Fleet(os.path.join(work, f"fleet-{len(fleets)}")))
            t0 = time.monotonic()
            fleets[-1].start(bins)
            setup_times.append(time.monotonic() - t0)
        fleet = fleets[-1]
        if traced:
            rounds, metrics = traced_round(fleet, seeds)
        else:
            rounds, cells_per_s = measured_rounds(fleet, seeds, seconds)
        rss = peak_rss_mb(fleet.daemon.pid)
        total = {v["id"]: v["total"] for v in http(fleet.addr, "GET", "/sweeps")["sweeps"]}
        fleet.drain()
    finally:
        for f in fleets:
            f.stop()
    refs = references(bins, seeds, work)
    attempted = failed = 0
    fp = FNV_OFFSET
    for r, ids in enumerate(rounds):
        for s, sweep_id in zip(seeds, ids):
            out = fleet.results(sweep_id)
            attempted += total[sweep_id]
            if out != refs[s]:
                failed += total[sweep_id]
            if r == 0:
                fp = fnv(fp, out)
    if not traced:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (rss, "MB"),
            "ops_per_s": (cells_per_s, "ops/s"),
            "fleet.cells_per_s": (cells_per_s, "1/s"),
        }
    return attempted, failed, fp, metrics
