"""Workload constants and the statistics rules the benchmark reports by.

Standard library only: the driver, the children and the self-tests all
import it, and the driver must start without numpy or ``repro``.
"""

from __future__ import annotations

import json
import math
import os
import platform
import subprocess
from typing import Dict, Iterable, Optional, Sequence

# --------------------------------------------------------------------- #
# workload geometry (FAST preset, digits, ``fast`` backend)
# --------------------------------------------------------------------- #
DATASET = "digits"
PRESET = "fast"
DEFENSE = "zk-gandef"
BACKEND = "fast"
#: Seed of the fixture checkpoint.  It is trained once per checkout (a
#: 16-epoch run costs about a minute); ``--seed`` drives every input the
#: workloads feed it.
FIXTURE_SEED = 0
#: Training steps run before the timed window (the first steps carry
#: allocation and BLAS warm-up costs several times a steady step).
WARMUP_STEPS = 8
#: Training steps per group: a host speed reference runs after each
#: group, and ``throughput`` is the median over groups.
TRAIN_GROUP = 8
ATTACKS = ("fgsm", "bim", "pgd", "mim")
ATTACK_BATCH = 64
#: Setups per run; ``setup_s`` is their median.
SETUPS = 3

#: The fixed tail percentile per workload, chosen so a run at this
#: commit has at least ten samples beyond it (recorded with the count).
TAIL_PERCENTILE = {"train-zk": 90.0, "train-zk-2w": 90.0,
                   "attack-eval": 75.0, "serve-http": 90.0}

#: Environment of every measured process: one BLAS thread each.
SINGLE_THREAD_ENV = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


# --------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------- #
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def samples_beyond(q: float, n: int) -> int:
    """How many of ``n`` samples lie strictly above the ``q`` percentile
    position."""
    return n - 1 - math.floor((n - 1) * q / 100.0)


def highest_supported_percentile(n: int, minimum_beyond: int = 10,
                                 ladder: Sequence[float] = (
                                     50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
                                 ) -> Optional[float]:
    """The highest ladder percentile with at least ``minimum_beyond``
    samples above it, or ``None`` when even the median has too few."""
    best = None
    for q in ladder:
        if samples_beyond(q, n) >= minimum_beyond:
            best = q
    return best


def tail(values: Sequence[float], q: float) -> dict:
    """The fixed tail percentile with its sample count and support."""
    return {"q": q, "value": percentile(values, q), "n": len(values),
            "beyond": samples_beyond(q, len(values)),
            "supported": samples_beyond(q, len(values)) >= 10}


# --------------------------------------------------------------------- #
# open-loop serving rules
# --------------------------------------------------------------------- #
def rung_verdict(latencies_s: Sequence[float], failures: int,
                 backlogged: bool, limit_s: float) -> dict:
    """Whether one fixed-rate rung meets the latency limit.

    ``latencies_s`` are timed from each request's due time.  A rung
    meets the limit when nothing failed, the generator never fell a
    backlog behind the schedule, and the p99 is within ``limit_s``.  A
    failed request (a 429, any other non-200, a transport error, a wrong
    answer) therefore always makes its rung miss.
    """
    p99 = percentile(latencies_s, 99.0) if latencies_s else math.inf
    return {"p99_s": p99, "failures": failures, "backlogged": backlogged,
            "meets": failures == 0 and not backlogged and p99 <= limit_s}


def max_rate(rungs: Iterable[dict]) -> Optional[dict]:
    """The highest-rate rung that meets its limit, or ``None``."""
    passing = [r for r in rungs if r["verdict"]["meets"]]
    return max(passing, key=lambda r: r["rate"]) if passing else None


# --------------------------------------------------------------------- #
# processes and host
# --------------------------------------------------------------------- #
def peak_rss_kb(pid: int) -> int:
    """Peak resident set (``VmHWM``) of a live process, in KiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError(f"no VmHWM for pid {pid}")


def host_metadata(root: str) -> Dict[str, object]:
    """CPUs, CPU model, python/numpy versions, BLAS and its threads, and
    the commit (from ``git`` when the checkout is a repository)."""
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    probe = ("import json, numpy\n"
             "cfg = numpy.show_config(mode='dicts')\n"
             "blas = cfg.get('Build Dependencies', {}).get('blas', {})\n"
             "print(json.dumps({'numpy': numpy.__version__,\n"
             "                  'blas': blas.get('name', '?') + ' ' +\n"
             "                  str(blas.get('version', '?'))}))\n")
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    try:
        out = subprocess.run(["python3", "-c", probe], env=env,
                             capture_output=True, text=True, timeout=60)
        libs = json.loads(out.stdout.strip().splitlines()[-1])
    except (OSError, ValueError, IndexError, subprocess.TimeoutExpired):
        libs = {"numpy": "?", "blas": "?"}
    commit = "unknown"      # a plain checkout: see the source digest
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), **libs,
            "blas_threads": SINGLE_THREAD_ENV["OPENBLAS_NUM_THREADS"],
            "commit": commit}

