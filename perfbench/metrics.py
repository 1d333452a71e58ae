"""Every metric the benchmark reports, and what each layer should move.

``END_TO_END`` and ``PER_LAYER`` are the lists ``BENCHMARK.json``
declares (the self-tests hold the two in step).  Each per-layer entry
names the end-to-end metrics and workloads it should move and where it
predicts no change, written down before any optimisation is measured.

Layer times are the summed *self* time of the layer's spans over the
traced window (inclusive time for the ``serve.*`` stages, which run on
other threads than the request they serve), with the call count beside
them.  A layer absent from a workload reports 0.
"""

from __future__ import annotations

#: (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("throughput", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
)


def _timed(name, moves, no_change, unit="ms"):
    """A timed layer: its self time and its call count."""
    return [(f"{name}_{unit}", unit, "lower", moves, no_change),
            (f"{name}.calls", "count", "lower", moves, no_change)]


_KERNEL_MOVES = "throughput@train-zk,train-zk-2w,attack-eval; " \
    "latency_p50_ms@serve-http (forward kernels)"

#: (name, unit, better, moves, predicts no change on)
PER_LAYER = tuple(
    _timed("data.generate", "setup_s@train-zk,train-zk-2w,serve-http",
           "setup_s@attack-eval (generates its test split only); "
           "throughput, latency_*@all", unit="s")
    + _timed("nn.forward", _KERNEL_MOVES, "setup_s@all")
    + _timed("nn.backward", "throughput@train-zk,attack-eval",
             "latency_p50_ms@serve-http")
    + [row for kernel in ("im2col", "col2im", "einsum", "index_add",
                          "signed_ascent")
       for row in _timed(f"backend.{kernel}", _KERNEL_MOVES,
                         "setup_s@all")]
    + _timed("backend.adam_step", "throughput@train-zk,train-zk-2w",
             "throughput@attack-eval; latency_*@serve-http")
    + [("backend.pool_misses", "count", "lower",
        "throughput@train-zk,attack-eval", "setup_s@all")]
    + _timed("defenses.perturb", "throughput@train-zk",
             "throughput@attack-eval; latency_*@serve-http")
    + _timed("defenses.disc_forward", "throughput@train-zk; "
             "latency_p50_ms@serve-http (disc gate)",
             "throughput@attack-eval")
    + _timed("nn.optim_step.classifier", "throughput@train-zk",
             "throughput@attack-eval; latency_*@serve-http")
    + _timed("nn.optim_step.discriminator", "throughput@train-zk",
             "throughput@attack-eval; latency_*@serve-http")
    + _timed("train.checkpoint", "throughput@train-zk (epoch-boundary "
             "steps, latency_tail_ms)", "attack-eval, serve-http")
    + _timed("train.parallel.step", "throughput@train-zk-2w",
             "throughput@train-zk (in-process path)")
    + _timed("train.parallel.reduce", "throughput@train-zk-2w",
             "throughput@train-zk")
    + [("train.parallel.busy_share", "share", "higher",
        "throughput@train-zk-2w", "throughput@train-zk")]
    + _timed("pool.imap_wait", "throughput@train-zk-2w",
             "throughput@train-zk")
    + [("pool.bytes_per_step", "bytes", "lower", "throughput@train-zk-2w",
        "throughput@train-zk")]
    + [row for attack in ("fgsm", "bim", "pgd", "mim")
       for row in _timed(f"attacks.generate.{attack}",
                         "throughput, latency_*@attack-eval",
                         "throughput@train-zk; latency_*@serve-http")]
    + [("attacks.grad_rows_per_example", "count", "lower",
        "throughput@attack-eval (early stop)", "throughput@train-zk")]
    + _timed("eval.engine_overhead", "throughput@attack-eval",
             "throughput@train-zk; latency_*@serve-http")
    + _timed("serve.handle", "latency_p50_ms, throughput@serve-http",
             "throughput@train-zk,attack-eval")
    + [("serve.transport_ms", "ms", "lower",
        "latency_p50_ms, throughput@serve-http (Nagle/delayed-ACK gap)",
        "throughput@train-zk,attack-eval"),
       ("serve.queue_wait_ms", "ms", "lower",
        "latency_*, throughput@serve-http", "train-zk, attack-eval"),
       ("serve.batch_size", "rows", "higher", "throughput@serve-http",
        "latency_p50_ms@serve-http at the lowest rate")]
    + _timed("serve.forward", "latency_p50_ms, throughput@serve-http",
             "setup_s@serve-http")
    + _timed("serve.gate", "latency_p50_ms, throughput@serve-http",
             "train-zk, attack-eval")
    + [("serve.cache_hit_share", "share", "higher",
        "none at this traffic (every row unique: expect 0)",
        "latency_*, throughput@serve-http")]
    + _timed("serve.quarantine.store", "latency_*, throughput@serve-http",
             "train-zk, attack-eval")
    + [("serve.quarantine.writes", "count", "higher",
        "latency_*@serve-http (disk writes per flagged row)",
        "train-zk, attack-eval"),
       ("serve.rejected", "count", "lower", "throughput@serve-http",
        "latency_p50_ms@serve-http at the lowest rate"),
       ("loadgen.lag_p99_ms", "ms", "lower",
        "validity of every serve-http number (must stay small)",
        "the program: a generator figure"),
       ("trace.overhead_share", "share", "lower",
        "traced vs untraced end-to-end (throughput, or p50 on "
        "serve-http)", "the untraced metrics"),
       ("trace.unaccounted_share", "share", "lower",
        "share of the end-to-end time no layer accounts for",
        "the untraced metrics"),
       ("trace.ops", "count", "higher",
        "end-to-end operations in the traced window", "-")]
)
