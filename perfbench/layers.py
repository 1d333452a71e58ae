"""Which public functions the traced run wraps, and under what names.

Every wrapper goes around a public entry point of one layer of
``repro``; nothing inside the program changes.  Self time is reported
per span name (see :mod:`tracer`); the name of each span is the layer
metric it feeds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import time

from tracer import Tracer

#: Span names whose nested module calls are part of the same forward.
FORWARDS = ("nn.forward", "defenses.disc_forward")

KERNELS = ("im2col", "col2im", "einsum", "index_add", "adam_step",
           "signed_ascent")


def install_setup(tr: Tracer) -> None:
    """Data generation, the dominant part of every workload's set-up."""
    from repro.experiments import runners

    tr.wrap(runners, "load_config_split", "data.generate")


def install_compute(tr: Tracer) -> None:
    """Whole-model forward, backward and the backend kernels."""
    from repro import nn
    from repro.backend.fast import FastNumpyBackend
    from repro.defenses.discriminator import Discriminator

    def forward_name(module, *args, **kwargs):
        if tr.current() in FORWARDS:
            return None         # a submodule of a forward already open
        return FORWARDS[1] if isinstance(module, Discriminator) \
            else FORWARDS[0]

    tr.wrap(nn.Module, "__call__", forward_name)
    # The serving gate reaches the discriminator through ``scores``.
    tr.wrap(Discriminator, "scores", FORWARDS[1])
    tr.wrap(nn.Tensor, "backward", "nn.backward")
    for kernel in KERNELS:
        tr.wrap(FastNumpyBackend, kernel, f"backend.{kernel}")


def install_train(tr: Tracer, optimizer_names: dict) -> None:
    """Perturbation, optimizer steps and checkpoints of the GanDef loop.

    ``optimizer_names`` maps ``id(optimizer)`` to the label its step
    time is reported under.
    """
    from repro import nn
    from repro.defenses.gandef import ZKGanDefTrainer
    from repro.train import Checkpointer

    tr.wrap(ZKGanDefTrainer, "perturb", "defenses.perturb")
    tr.wrap(nn.Optimizer, "step", lambda opt: "nn.optim_step." +
            optimizer_names.get(id(opt), type(opt).__name__.lower()))
    tr.wrap(Checkpointer, "on_epoch_end", "train.checkpoint")


def install_parallel(tr: Tracer) -> None:
    """The sharded step and the pool's ordered ``imap``.

    Time blocked in the iterator's ``next`` is the wait for workers;
    time between two ``next`` calls is the parent consuming one outcome
    (the ordered all-reduce).  Bytes are computed from array sizes of
    the tasks sent and the gradients received.
    """
    from repro.train.parallel import ParallelTrainEngine
    from repro.utils.pool import SpawnPool

    tr.wrap(ParallelTrainEngine, "step", "train.parallel.step")
    original = SpawnPool.imap

    def imap(pool, fn, tasks):
        tasks = list(tasks)
        for task in tasks:
            arrays = list(getattr(task, "arrays", {}).values()) + \
                list(getattr(task, "params", ()))
            tr.count("pool.bytes", sum(a.nbytes for a in arrays))
        tr.count("pool.imap_calls")
        iterator = original(pool, fn, tasks)
        consumed_at = None
        while True:
            start = time.perf_counter()
            if consumed_at is not None:
                tr.record("train.parallel.reduce", start - consumed_at)
            try:
                outcome = next(iterator)
            except StopIteration:
                tr.record("pool.imap_wait", time.perf_counter() - start)
                return
            tr.record("pool.imap_wait", time.perf_counter() - start)
            tr.count("pool.busy_s", getattr(outcome, "seconds", 0.0))
            tr.count("pool.bytes", sum(
                g.nbytes for g in getattr(outcome, "grads", ())
                if g is not None))
            consumed_at = time.perf_counter()
            yield outcome

    tr.replace(SpawnPool, "imap", imap)


def install_attacks(tr: Tracer) -> None:
    """Per-attack generation, the engine around it, and gradient rows."""
    from repro.attacks import base
    from repro.eval.engine import AttackSuite

    tr.wrap(base.Attack, "generate",
            lambda attack, *a, **k: "attacks.generate." +
            type(attack).__name__.lower())
    tr.wrap(AttackSuite, "run", "eval.engine_overhead")
    original = base.logits_and_input_grad

    def counted(model, images, labels):
        tr.count("attacks.grad_rows", len(images))
        return original(model, images, labels)

    tr.replace(base, "logits_and_input_grad", counted)


def install_serve(tr: Tracer) -> None:
    """The serving stages inside the ``repro serve-http`` process."""
    from repro.serve.batcher import MicroBatcher
    from repro.serve.gate import DefenseGate
    from repro.serve.http import HttpFrontend
    from repro.serve.quarantine import QuarantineStore

    tr.wrap(HttpFrontend, "handle", "serve.handle")
    tr.wrap(DefenseGate, "decide", "serve.gate")
    original_next = MicroBatcher.next_batch

    def next_batch(batcher, *args, **kwargs):
        batch = original_next(batcher, *args, **kwargs)
        if batch is not None:
            now = batcher.clock()
            tr.count("serve.batches")
            tr.count("serve.batch_rows", len(batch))
            for pending, _, _ in batch.parts:
                tr.count("serve.queue_wait_s", now - pending.submitted_at)
                tr.count("serve.parts")
        return batch

    tr.replace(MicroBatcher, "next_batch", next_batch)
    original_submit = QuarantineStore.submit

    def submit(store, *args, **kwargs):
        retained = tr.span("serve.quarantine.store", original_submit,
                           store, *args, **kwargs)
        tr.count("serve.quarantine.writes", retained)
        return retained

    tr.replace(QuarantineStore, "submit", submit)
