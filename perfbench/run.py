"""ZK-GanDef reproduction benchmark: one command, four workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Run from the root of a checkout (the directory holding ``src/repro``).
Workloads (all on digits at FAST-preset geometry, ``fast`` backend):

* ``train-zk`` — ZK-GanDef training, single process, per-epoch
  checkpoints: the paper's method and its cost claim;
* ``train-zk-2w`` — the same through ``ParallelTrainEngine`` with two
  spawn workers: the multi-process layer next to its in-process twin;
* ``attack-eval`` — ``AttackSuite.run`` (FGSM/BIM/PGD/MIM, FAST budget,
  early stop) on the 256-example test split against the fixture;
* ``serve-http`` — ``repro serve-http --procs 1`` with the disc gate and a
  quarantine directory, under open-loop load at three fixed rates.

A run launches ``SETUPS`` measured processes (servers, for serve-http)
one after another: ``setup_s`` is the median of their set-ups, and each
measures an equal share of the window, so the window samples the whole
run.  Every measured process gets one BLAS thread.  Timings are reported
at reference host speed (``hostspeed``): a fixed reference pass is timed
before each set-up and beside every group of timed operations, and each
timing is divided by how much slower than nominal the host ran it then;
the detail line keeps the figures as measured.  Fixtures (the 16-epoch
zk-gandef checkpoint once per checkout; the request schedule, rows and
encoded bodies once per seed) are built with the code under test under
``.perfbench/`` and kept out of ``setup_s``; warm-up runs outside every
timed window.  The last stdout line is the result object; the lines
before it carry host metadata and per-workload detail.  The exit code is
non-zero when a correctness check fails or the checkout has no program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from http.client import HTTPConnection, HTTPException

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402

# The driver times host speed references too, with the BLAS thread count
# of the measured processes; it must be set before numpy loads.
os.environ.update(common.SINGLE_THREAD_ENV)
import hostspeed  # noqa: E402
import loadgen  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402

WORKLOADS = ("train-zk", "train-zk-2w", "attack-eval", "serve-http")

#: Offered rates of the serve-http ladder and each rung's share of the
#: window.  The lowest rung gives ``latency_p50_ms``/``latency_tail_ms``.
SERVE_RUNGS = ((20.0, 0.75), (60.0, 0.125), (120.0, 0.125))
#: p99 limit (from the due time) a rung must meet to count towards
#: ``max_rate_rps``.
SERVE_LIMIT_S = 0.25
SERVE_MAX_ROWS = 4
SERVE_CONNECTIONS = 2
SERVE_WARMUP_REQUESTS = 16
#: A phase is abandoned once the generator falls this far behind.
SERVE_BACKLOG_S = 1.0
CHILD_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    pass


# --------------------------------------------------------------------- #
# processes
# --------------------------------------------------------------------- #
class Runner:
    """Launches children in the checkout with one BLAS thread each."""

    def __init__(self, root: str, workdir: str) -> None:
        self.root = root
        self.workdir = workdir
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env.update(common.SINGLE_THREAD_ENV)
        env["PYTHONPATH"] = os.path.join(root, "src")
        # Temporary files (the training engine's module blobs) stay in
        # the checkout too.
        env["TMPDIR"] = os.path.join(workdir, "tmp")
        os.makedirs(env["TMPDIR"], exist_ok=True)
        self.env = env
        self._log = open(os.path.join(workdir, "children.log"), "ab")

    def child(self, role: str, *args: str, timeout: float = CHILD_TIMEOUT_S):
        """Run one child to completion; returns (launch time, result)."""
        launched = time.monotonic()
        # A session of its own, so a hung child goes down together with
        # any worker processes it spawned.
        proc = subprocess.Popen(
            ["python3", os.path.join(HERE, "child.py"), role, *args],
            cwd=self.root, env=self.env, stdout=subprocess.PIPE,
            stderr=self._log, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{role} child timed out")
        lines = out.decode().strip().splitlines()
        if not lines:
            raise BenchError(f"{role} child exited {proc.returncode} "
                             "without a result")
        return launched, json.loads(lines[-1])

    def close(self) -> None:
        self._log.close()


# --------------------------------------------------------------------- #
# fixtures
# --------------------------------------------------------------------- #
def fixture_checkpoint(runner: Runner, cache: str) -> str:
    path = os.path.join(cache, "checkpoint", "checkpoint.npz")
    if not os.path.exists(path):
        tmp = os.path.join(cache, f"checkpoint.tmp{os.getpid()}")
        shutil.rmtree(tmp, ignore_errors=True)
        runner.child("fixture-checkpoint", "--out", tmp, timeout=850)
        os.replace(tmp, os.path.dirname(path))
    return path


def fixture_traffic(runner: Runner, cache: str, checkpoint: str, seed: int,
                    phases: list) -> dict:
    plan = {"pool": 128, "max_rows": SERVE_MAX_ROWS, "phases": phases}
    key = hashlib.sha256(json.dumps([seed, plan]).encode()).hexdigest()[:16]
    out = os.path.join(cache, f"traffic-{seed}-{key}")
    if not os.path.exists(os.path.join(out, "traffic.json")):
        tmp = out + f".tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        runner.child("fixture-traffic", "--seed", str(seed),
                     "--checkpoint", checkpoint, "--out", tmp,
                     "--plan", json.dumps(plan))
        shutil.rmtree(out, ignore_errors=True)
        os.replace(tmp, out)
    with open(os.path.join(out, "traffic.json")) as f:
        traffic = json.load(f)
    with open(os.path.join(out, "bodies.bin"), "rb") as f:
        bodies = f.read()
    for phase in traffic.values():
        for request in phase["requests"]:
            start = request["offset"]
            request["body"] = bodies[start:start + request["length"]]
    return traffic


# --------------------------------------------------------------------- #
# results
# --------------------------------------------------------------------- #
def _ms(seconds: float) -> float:
    return seconds * 1e3


def groups(windows, group: int):
    """``(latencies, host speed factor)`` per consecutive ``group``
    samples of each window; a group's factor is from the references
    timed on either side of it."""
    for w in windows:
        lat, refs = w["latencies"], w["refs"]
        for k in range(len(refs) - 1):
            yield (lat[k * group:(k + 1) * group],
                   hostspeed.factor((refs[k] + refs[k + 1]) / 2))


def median_rate(windows, per_sample: float, group: int,
                scaled: bool = True) -> float:
    """Work per second, as the median over the groups: a transient stall
    moves one group, not the figure.  ``scaled`` gives it at reference
    host speed."""
    return statistics.median([
        per_sample * len(lat) / sum(lat) * (f if scaled else 1.0)
        for lat, f in groups(windows, group)])


def scaled_latencies(windows, group: int) -> list:
    """Every sample at reference host speed."""
    return [x / f for lat, f in groups(windows, group) for x in lat]


def run_factor(refs) -> float:
    """The host speed factor of a whole run, from the median of every
    reference timed in it: for figures that pool stretches too short or
    too few for a factor each (set-ups, a serving phase's latencies)."""
    return hostspeed.factor(statistics.median(refs))


def latency_metrics(workload: str, latencies_s) -> dict:
    tail = common.tail(latencies_s, common.TAIL_PERCENTILE[workload])
    return {"latency_p50_ms": _ms(common.percentile(latencies_s, 50.0)),
            "latency_tail_ms": _ms(tail["value"])}, tail


def layer_metrics(trace: dict, extra: dict) -> dict:
    """Every per-layer metric: traced self times and counts, then the
    workload-specific figures in ``extra``; absent layers read 0."""
    values = {name: 0.0 for name, *_ in PER_LAYER}
    calls, self_s = trace.get("calls", {}), trace.get("self_s", {})
    for span, n in calls.items():
        unit = "s" if span == "data.generate" else "ms"
        if f"{span}_{unit}" in values:
            values[f"{span}_{unit}"] = self_s[span] * (
                1.0 if unit == "s" else 1e3)
            values[f"{span}.calls"] = float(n)
    values.update(extra)
    return values


def unaccounted_share(trace: dict, window_s: float) -> float:
    covered = sum(s for name, s in trace["self_s"].items()
                  if name != "data.generate")
    return (window_s - covered) / window_s


# --------------------------------------------------------------------- #
# in-process workloads
# --------------------------------------------------------------------- #
def run_children(runner: Runner, args, role: str, *extra: str) -> list:
    """The run's children, one after another.  Untraced, each measures an
    equal share of the window; traced, one child measures all of it.
    Each result gains its set-up as measured and every host speed
    reference timed for it."""
    count = 1 if args.trace else common.SETUPS
    out = []
    for k in range(count):
        before = hostspeed.reference_s()
        launched, r = runner.child(
            role, "--seed", str(args.seed), "--seconds",
            str(args.seconds / count), "--trace", str(args.trace),
            *[arg.format(k=k, last=int(k == count - 1)) for arg in extra])
        if r["error"]:
            raise BenchError(f"{role} raised: {r['error']}")
        r["setup_raw_s"] = r["ready_at"] - launched
        r["refs"] = [before, r["ready_ref"]] + [
            x for w in r["windows"] for x in w["refs"]]
        out.append(r)
    return out


def timed(results: list, phase: str) -> list:
    """One window per child, for ``phase``."""
    return [w for r in results for w in r["windows"] if w["phase"] == phase]


def untraced_metrics(workload: str, children: list, windows: list,
                     per_sample: float, group: int):
    """The end-to-end metrics, timings at reference host speed, and the
    detail beside them: the tail rule and the figures as measured."""
    lat, tail = latency_metrics(workload, scaled_latencies(windows, group))
    setup_raw_s = statistics.median([r["setup_raw_s"] for r in children])
    factor = run_factor([x for r in children for x in r["refs"]])
    values = {"setup_s": setup_raw_s / factor,
              "peak_rss_mb": statistics.median(
                  [r["rss_kb"] for r in children]) / 1024.0,
              "throughput": median_rate(windows, per_sample, group), **lat}
    measured, _ = latency_metrics(
        workload, [x for w in windows for x in w["latencies"]])
    factors = [f for _, f in groups(windows, group)]
    detail = {"tail": tail, "host_factor": factor,
              "group_factor_range": [min(factors), max(factors)],
              "measured": dict(
                  measured, setup_s=setup_raw_s,
                  throughput=median_rate(windows, per_sample, group,
                                         scaled=False))}
    return values, detail


def bench_train(runner: Runner, args, workers: int) -> dict:
    children = run_children(runner, args, "train", "--workers", str(workers),
                            "--workdir",
                            os.path.join(runner.workdir, "train-{k}"))
    results = children
    digests = [r["digest"] for r in results]
    attempted = sum(r["steps"] for r in results)
    failed = sum(r["non_finite"] for r in results)
    correct = failed == 0 and len(set(digests)) == 1 and None not in digests
    detail = {"setups_s": [r["setup_raw_s"] for r in children],
              "digests": sorted(set(map(str, digests))),
              "warmup_steps": common.WARMUP_STEPS}
    batch = results[0]["batch_size"]
    if not args.trace:
        windows = timed(results, "timed")
        values, more = untraced_metrics(args.workload, children, windows,
                                        batch, common.TRAIN_GROUP)
        detail.update(more, steps=sum(w["steps"] for w in windows))
    else:
        result = results[0]
        traced, untraced = timed(results, "traced"), timed(results,
                                                            "untraced")
        trace = result["trace"]
        counts = trace["counts"]
        traced_rate = median_rate(traced, batch, common.TRAIN_GROUP)
        untraced_rate = median_rate(untraced, batch, common.TRAIN_GROUP)
        extra = {
            "backend.pool_misses": float(result["pool_misses"]),
            "trace.overhead_share": untraced_rate / traced_rate - 1.0,
            "trace.unaccounted_share":
                unaccounted_share(trace, traced[0]["seconds"]),
            "trace.ops": float(traced[0]["steps"]),
        }
        if workers > 1:
            step_s = trace["incl_s"].get("train.parallel.step", 0.0)
            extra["train.parallel.busy_share"] = \
                counts.get("pool.busy_s", 0.0) / (step_s * workers)
            extra["pool.bytes_per_step"] = \
                counts.get("pool.bytes", 0.0) / \
                max(counts.get("pool.imap_calls", 0.0), 1.0)
        values = layer_metrics(trace, extra)
        detail.update(untraced_rate=untraced_rate, traced_rate=traced_rate)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "values": values, "detail": detail}


def bench_attack(runner: Runner, args, checkpoint: str) -> dict:
    children = run_children(runner, args, "attack", "--checkpoint",
                            checkpoint, "--verify", "{last}",
                            "--start", "{k}")
    results = children
    checks = results[-1]["checks"]
    # Every timed (batch, attack) must repeat the accuracy of the untimed
    # verification craft, whose examples stay in the ball and the box.
    attempted = failed = mismatched = 0
    for b, attack, accuracy in (rec for r in results for rec in r["records"]):
        check = checks[f"{b}:{attack}"]
        attempted += check["rows"]
        if accuracy != check["accuracy"]:
            mismatched += 1
            failed += check["rows"]
        else:
            failed += check["outside"]
    detail = {"setups_s": [r["setup_raw_s"] for r in children],
              "accuracy_mismatches": mismatched,
              "outside_ball_or_box": sum(c["outside"]
                                         for c in checks.values()),
              "accuracy": {name: statistics.median(
                  [c["accuracy"] for k, c in checks.items()
                   if k.endswith(":" + name)]) for name in common.ATTACKS}}
    # One group is one ``AttackSuite.run`` call: a batch, every attack.
    group = len(common.ATTACKS)
    if not args.trace:
        windows = timed(results, "timed")
        values, more = untraced_metrics("attack-eval", children, windows,
                                        common.ATTACK_BATCH, group)
        detail.update(more)
    else:
        result = results[0]
        traced, untraced = timed(results, "traced"), timed(results,
                                                            "untraced")
        trace = result["trace"]
        traced_rate = median_rate(traced, common.ATTACK_BATCH, group)
        untraced_rate = median_rate(untraced, common.ATTACK_BATCH, group)
        values = layer_metrics(trace, {
            "backend.pool_misses": float(result["pool_misses"]),
            "attacks.grad_rows_per_example":
                trace["counts"].get("attacks.grad_rows", 0.0) /
                traced[0]["work"],
            "trace.overhead_share": untraced_rate / traced_rate - 1.0,
            "trace.unaccounted_share":
                unaccounted_share(trace, traced[0]["seconds"]),
            "trace.ops": float(len(traced[0]["latencies"])),
        })
        detail.update(untraced_rate=untraced_rate, traced_rate=traced_rate)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "values": values, "detail": detail}


# --------------------------------------------------------------------- #
# serving
# --------------------------------------------------------------------- #
def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _get(port: int, path: str, timeout: float = 5.0):
    conn = HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class ServeProcess:
    """One ``repro serve-http`` process, from launch to healthy."""

    def __init__(self, runner: Runner, checkpoint: str, seed: int,
                 tag: str, trace_out: str = None) -> None:
        self.port = _free_port()
        quarantine = os.path.join(runner.workdir, f"quarantine-{tag}")
        serve_args = ["serve-http", "--model", checkpoint, "--gate", "disc",
                      "--quarantine-dir", quarantine, "--procs", "1",
                      "--port", str(self.port), "--requests", "0",
                      "--dataset", common.DATASET, "--preset", common.PRESET,
                      "--seed", str(seed), "--backend", common.BACKEND]
        if trace_out is None:
            cmd = ["python3", "-m", "repro", *serve_args]
        else:
            cmd = ["python3", os.path.join(HERE, "child.py"), "serve",
                   "--out", trace_out, "--", *serve_args]
        self.rss_kb = self.stats_payload = None    # read before stop()
        before = hostspeed.reference_s()
        self.launched = time.monotonic()
        self.proc = subprocess.Popen(cmd, cwd=runner.root, env=runner.env,
                                     stdout=runner._log, stderr=runner._log)
        deadline = self.launched + CHILD_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise BenchError(f"serve-http exited {self.proc.returncode}"
                                 " before it became healthy")
            try:
                if _get(self.port, "/v1/health", timeout=1.0)[0] == 200:
                    break
            except (OSError, HTTPException):
                pass
            if time.monotonic() > deadline:
                self.stop()
                raise BenchError("serve-http never became healthy")
            time.sleep(0.01)
        self.ready = time.monotonic()
        self.refs = [before, hostspeed.reference_s()]

    @property
    def setup_s(self) -> float:
        return self.ready - self.launched

    def stats(self) -> dict:
        return json.loads(_get(self.port, "/v1/stats")[1])

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def _check_reply(outcome, request) -> bool:
    """A request is correct when it got a 200 with one row per input row
    and every label a direct forward of the fixture gives."""
    if outcome.status != 200:
        return False
    try:
        rows = json.loads(outcome.data)["predictions"]
    except (ValueError, KeyError, TypeError):
        return False
    return len(rows) == request["rows"] and all(
        row["label"] in accept for row, accept in zip(rows, request["accept"]))


def drive(server: ServeProcess, phase: dict) -> dict:
    """One phase of the schedule against ``server``."""
    requests = phase["requests"]
    result = loadgen.run_open_loop(
        "127.0.0.1", server.port, [(r["due"], r["body"]) for r in requests],
        connections=SERVE_CONNECTIONS,
        backlog_s=SERVE_BACKLOG_S if phase["rate"] else 60.0)
    outcomes = result.outcomes
    time.sleep(0.1)     # let the server's queue drain before what follows
    return {
        "sent": len(outcomes), "abandoned": result.abandoned,
        "failed": sum(1 for o in outcomes
                      if not _check_reply(o, requests[o.index])),
        "seconds": max((o.done for o in outcomes), default=result.start)
        - result.start,
        "latencies": [o.latency for o in outcomes],
        "service_s": sum(o.service for o in outcomes),
        "lags": [o.lag for o in outcomes]}


def rung(rate: float, phases: list) -> dict:
    """Pool the phases run at one offered rate and judge the limit."""
    pooled = {key: sum((p[key] for p in phases), [] if key in (
        "latencies", "lags") else 0) for key in phases[0]}
    pooled["rate"] = rate
    pooled["achieved_rps"] = pooled["sent"] / max(pooled["seconds"], 1e-9)
    pooled["verdict"] = common.rung_verdict(
        pooled["latencies"], pooled["failed"], pooled["abandoned"] > 0,
        SERVE_LIMIT_S)
    return pooled


def _rung_summary(r: dict) -> dict:
    lat = r["latencies"]
    return {"rate": r["rate"], "sent": r["sent"],
            "abandoned": r["abandoned"], "failed": r["failed"],
            "achieved_rps": r["achieved_rps"],
            "p50_ms": _ms(common.percentile(lat, 50)) if lat else None,
            "p99_ms": _ms(r["verdict"]["p99_s"]) if lat else None,
            "meets_limit": r["verdict"]["meets"],
            "lag_p99_ms": _ms(common.percentile(r["lags"], 99))
            if r["lags"] else None}


def serve_phases(seconds: float) -> list:
    """The schedule: per server a warm-up and a share of the base rate,
    then the higher rates on the last server."""
    base_rate, base_share = SERVE_RUNGS[0]
    phases = []
    for k in range(common.SETUPS):
        phases.append({"name": f"warmup-{k}", "rate": 0.0,
                       "count": SERVE_WARMUP_REQUESTS})
        phases.append({"name": f"base-{k}", "rate": base_rate,
                       "seconds": seconds * base_share / common.SETUPS})
    phases += [{"name": f"rung-{rate:g}", "rate": rate,
                "seconds": seconds * share} for rate, share in SERVE_RUNGS[1:]]
    return phases


def bench_serve(runner: Runner, args, checkpoint: str, cache: str) -> dict:
    traffic = fixture_traffic(runner, cache, checkpoint, args.seed,
                              serve_phases(args.seconds))
    higher = [f"rung-{rate:g}" for rate, _ in SERVE_RUNGS[1:]]
    # Untraced: every server times its set-up and serves a share of the
    # base rate; the last one also takes the higher rates.  Traced: an
    # untraced server gives the overhead baseline, a traced one the
    # layers.
    trace_out = os.path.join(runner.workdir, "serve-trace.json")
    plans = [(f"s{k}", None, [f"warmup-{k}", f"base-{k}"] +
              (higher if k == common.SETUPS - 1 else []))
             for k in range(common.SETUPS)] if not args.trace else [
        ("untraced", None, ["warmup-0", "base-0"]),
        ("traced", trace_out, ["warmup-1", "base-1"] + higher)]
    servers, done, refs = [], {}, []
    try:
        for tag, trace, names in plans:
            server = ServeProcess(runner, checkpoint, args.seed, tag,
                                  trace_out=trace)
            servers.append(server)
            refs += server.refs
            for name in names:
                done[name] = drive(server, traffic[name])
                # A host speed reference after each phase, while the
                # server is idle.
                refs.append(hostspeed.reference_s())
            server.rss_kb = common.peak_rss_kb(server.proc.pid)
            server.stats_payload = server.stats()
            server.stop()
    finally:
        for server in servers:
            server.stop()

    attempted = sum(p["sent"] for p in done.values())
    failed = sum(p["failed"] for p in done.values())
    base_rate = SERVE_RUNGS[0][0]
    base = [done[n] for n in done if n.startswith("base-")]
    measured = base[1:] if args.trace else base
    rungs = [rung(base_rate, measured)] + [
        rung(rate, [done[f"rung-{rate:g}"]]) for rate, _ in SERVE_RUNGS[1:]]
    best = common.max_rate(rungs)
    detail = {"limit_p99_ms": _ms(SERVE_LIMIT_S),
              "connections": SERVE_CONNECTIONS,
              "rungs": [_rung_summary(r) for r in rungs],
              "max_rate_rps": best["rate"] if best else 0.0}
    if not args.trace:
        factor = run_factor(refs)
        lat, tail = latency_metrics(
            "serve-http", [x / factor for x in rungs[0]["latencies"]])
        measured, _ = latency_metrics("serve-http", rungs[0]["latencies"])
        setup_raw_s = statistics.median([srv.setup_s for srv in servers])
        detail.update(
            setups_s=[srv.setup_s for srv in servers], tail=tail,
            host_factor=factor,
            measured=dict(measured, setup_s=setup_raw_s))
        values = {"setup_s": setup_raw_s / factor,
                  "peak_rss_mb": statistics.median(
                      [srv.rss_kb for srv in servers]) / 1024.0,
                  "throughput": best["achieved_rps"] if best else 0.0,
                  **lat}
    else:
        with open(trace_out) as f:
            trace = json.load(f)
        incl, counts = trace["incl_s"], trace["counts"]
        stats = servers[-1].stats_payload
        traced = [done[n] for n in ["base-1"] + higher]
        handle_s = incl.get("serve.handle", 0.0)
        client_s = sum(p["service_s"] for p in traced)
        cache_stats = stats.get("cache", {})
        lookups = cache_stats.get("hits", 0) + cache_stats.get("misses", 0)
        batches = max(counts.get("serve.batches", 0.0), 1.0)
        service = sum(incl.get(n, 0.0) for n in (
            "nn.forward", "serve.gate", "serve.quarantine.store"))
        # Batch stages weighted by the requests each batch serves.
        weighted = service * counts.get("serve.parts", 0.0) / batches
        untraced_p50 = common.percentile(done["base-0"]["latencies"], 50)
        traced_p50 = common.percentile(done["base-1"]["latencies"], 50)
        values = layer_metrics(trace, {
            "serve.transport_ms": _ms(client_s - handle_s),
            "serve.queue_wait_ms": _ms(counts.get("serve.queue_wait_s", 0)),
            "serve.batch_size": counts.get("serve.batch_rows", 0.0) /
            batches,
            "serve.forward_ms": _ms(incl.get("nn.forward", 0.0)),
            "serve.forward.calls": float(trace["calls"].get("nn.forward",
                                                            0)),
            "serve.handle_ms": _ms(handle_s),
            "serve.gate_ms": _ms(incl.get("serve.gate", 0.0)),
            "serve.quarantine.store_ms":
                _ms(incl.get("serve.quarantine.store", 0.0)),
            "serve.cache_hit_share":
                cache_stats.get("hits", 0) / lookups if lookups else 0.0,
            "serve.quarantine.writes":
                counts.get("serve.quarantine.writes", 0.0),
            "serve.rejected": float(sum(
                v for k, v in stats.get("http", {}).items()
                if k.startswith("rejected"))),
            "loadgen.lag_p99_ms": _ms(common.percentile(
                [lag for p in traced for lag in p["lags"]], 99)),
            "trace.overhead_share": traced_p50 / untraced_p50 - 1.0,
            "trace.unaccounted_share": (
                handle_s - counts.get("serve.queue_wait_s", 0.0) - weighted)
            / client_s,
            "trace.ops": float(sum(p["sent"] for p in traced)),
        })
        detail.update(untraced_p50_ms=_ms(untraced_p50),
                      traced_p50_ms=_ms(traced_p50),
                      client_service_ms=_ms(client_s))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "values": values, "detail": detail}


# --------------------------------------------------------------------- #
def _source_digest(root: str) -> str:
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print(f"no program to benchmark: {root}/src/repro is missing "
              "(run from the root of a checkout)", file=sys.stderr)
        return 2
    cache = os.path.join(root, ".perfbench")
    workdir = os.path.join(cache, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    host = common.host_metadata(root)
    host["source_sha256"] = _source_digest(root)
    print(json.dumps({"host": host}), flush=True)
    runner = Runner(root, workdir)
    try:
        if args.workload in ("train-zk", "train-zk-2w"):
            out = bench_train(runner, args,
                              workers=2 if args.workload.endswith("2w")
                              else 0)
        else:
            checkpoint = fixture_checkpoint(runner, cache)
            out = bench_attack(runner, args, checkpoint) \
                if args.workload == "attack-eval" \
                else bench_serve(runner, args, checkpoint, cache)
    except BenchError as error:
        runner.close()
        with open(os.path.join(workdir, "children.log"), "rb") as log:
            sys.stderr.write(log.read()[-4000:].decode(errors="replace"))
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    finally:
        runner.close()
        shutil.rmtree(workdir, ignore_errors=True)

    table = END_TO_END if not args.trace else PER_LAYER
    metrics = {name: {"value": float(out["values"][name]), "unit": unit}
               for name, unit, *_ in table}
    detail = dict(out["detail"], workload=args.workload, seed=args.seed,
                  fail_share=out["failed"] / max(out["attempted"], 1))
    print(json.dumps({"detail": detail}), flush=True)
    print(json.dumps({"correct": bool(out["correct"]),
                      "attempted": int(out["attempted"]),
                      "failed": int(out["failed"]), "metrics": metrics}),
          flush=True)
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
