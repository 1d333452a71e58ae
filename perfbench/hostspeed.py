"""A host speed reference that timings are scaled by.

The benchmark runs on a share of a machine whose speed drifts: a fixed
piece of work takes a quarter more or less time from one few-second
stretch to the next (other tenants, clock changes), so two sets of runs
of the same code disagree by more than any useful bound.  The drift moves
every CPU-bound timing on the host alike, so the benchmark times a fixed
reference pass beside each measured stretch and reports timings at
reference speed::

    factor  = reference seconds / REFERENCE_S
    time    = measured seconds / factor
    rate    = measured rate * factor

The pass is the mix a training step is made of: single-threaded float32
BLAS products at the classifier's im2col geometry, numpy element-wise
passes over a batch of feature maps, and plain Python dictionary work.
A workload that keeps both CPUs busy times the pass on both at once
(``ParallelReference``): a single pass cannot see the other CPU slow down.
It is the benchmark's own code, so a change to the program moves the
scaled figures exactly as it moves the measured ones.
"""

from __future__ import annotations

import multiprocessing
import time

import numpy as np

#: Seconds one reference pass takes on the nominal host the scaled
#: figures are given for (a quiet 2-vCPU VM with OpenBLAS).
REFERENCE_S = 0.009

_rng = np.random.default_rng(20190619)
_A = _rng.standard_normal((1024, 288), dtype=np.float32)
_B = _rng.standard_normal((288, 64), dtype=np.float32)
_X = _rng.standard_normal((64, 16, 16, 32), dtype=np.float32)
# Preallocated outputs: the pass allocates no arrays, so its time does not
# depend on what the process allocated before it (the allocator's state).
_P = np.empty((1024, 64), dtype=np.float32)
_Y = np.empty_like(_X)


def _pass() -> float:
    total = 0.0
    for _ in range(8):
        np.matmul(_A, _B, out=_P)
        np.maximum(_X, 0.0, out=_Y)
        np.multiply(_Y, 1.5, out=_Y)
        np.add(_Y, _X, out=_Y)
        total += float(_P[0, 0]) + float(_Y.sum())
    counts = {}
    for i in range(20000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return total + counts[0]


_warm = False


def reference_s(passes: int = 2) -> float:
    """Mean seconds of one reference pass, timed now."""
    global _warm
    # The first passes of a process carry BLAS start-up costs, and the
    # first after other work finds the pass's arrays out of the caches:
    # neither is timed, so the figure does not depend on what the process
    # did before.
    for _ in range(1 if _warm else 3):
        _pass()
    _warm = True
    start = time.perf_counter()
    for _ in range(passes):
        _pass()
    return (time.perf_counter() - start) / passes


def factor(seconds: float) -> float:
    """How much slower than nominal the host ran a reference pass."""
    return seconds / REFERENCE_S



def _helper(conn) -> None:
    """A helper process's loop: run an untimed and ``passes`` timed
    passes when asked, until asked with None."""
    while True:
        passes = conn.recv()
        if passes is None:
            return
        reference_s(passes)
        conn.send(None)


class ParallelReference:
    """The reference pass on ``cpus`` CPUs at once, for a workload that
    keeps that many processes busy: one idle helper process per CPU, all
    running passes together.  The figure is the wall time until the last
    helper is done, as the slowest worker sets a sharded step's time, so
    helpers that could not run at once read slow too.  It reads against
    the same nominal as ``reference_s``: the nominal host runs a pass on
    each of its CPUs at once at full speed."""

    def __init__(self, cpus: int) -> None:
        ctx = multiprocessing.get_context("spawn")
        self._conns, self._procs = [], []
        for _ in range(cpus):
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=_helper, args=(child,), daemon=True)
            proc.start()
            child.close()
            self._conns.append(parent)
            self._procs.append(proc)
        self.reference_s()      # imports and first passes, untimed

    def reference_s(self, passes: int = 2) -> float:
        start = time.perf_counter()
        for conn in self._conns:
            conn.send(passes)
        for conn in self._conns:
            conn.recv()
        return (time.perf_counter() - start) / (passes + 1)

    def close(self) -> None:
        for conn in self._conns:
            conn.send(None)
            conn.close()
        for proc in self._procs:
            proc.join()
