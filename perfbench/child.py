"""The measured processes of the benchmark.

``python3 perfbench/child.py <role> ...`` with ``src`` on ``PYTHONPATH``
and one BLAS thread.  Every role prints one JSON object as its last
stdout line.  Roles:

* ``train`` — ZK-GanDef training through the ``repro train`` pieces
  (data, trainer, per-epoch checkpoints, callbacks; ``--workers 2`` adds
  the ``ParallelTrainEngine`` on a ``SpawnPool``);
* ``attack`` — ``AttackSuite.run`` with FGSM/BIM/PGD/MIM on 64-row
  batches of the test split against the fixture checkpoint;
* ``serve`` — ``repro serve-http`` with the traced run's wrappers;
* ``fixture-checkpoint`` / ``fixture-traffic`` — the per-checkout and
  per-seed inputs, built with the code under test.

A run launches several children one after another; each times its own
set-up, warms up, then measures its share (``--seconds``) of the run's
window, so the window is spread over the whole run rather than over one
stretch of it.  A host speed reference (``hostspeed``) is timed after the
set-up, before each window and after each group of timed operations, so
the driver can give every timing at reference host speed.  With
``--trace 1`` half the window runs untraced, the wrappers go in, and the
other half runs traced.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402
from tracer import Tracer  # noqa: E402


def _rss_kb(extra_pids=()) -> int:
    return sum(common.peak_rss_kb(pid)
               for pid in (os.getpid(), *extra_pids))


def _digest(modules) -> str:
    h = hashlib.sha256()
    for name, module in sorted(modules.items()):
        for param in module.parameters():
            h.update(name.encode())
            h.update(np.ascontiguousarray(param.data).tobytes())
    return h.hexdigest()


def _pool_misses() -> float:
    """Fresh scratch allocations so far, as ``repro.obs`` exports them."""
    from repro import obs

    return obs.snapshot().get("repro_backend_pool_misses_total", 0.0)


def _config():
    from repro.experiments.config import get_config

    return get_config(common.PRESET).dataset(common.DATASET)


def _fixture_trainer(cfg, checkpoint: str):
    from repro.experiments import runners
    from repro.train.checkpoint import load_checkpoint

    trainer = runners.build_trainer(common.DEFENSE, cfg,
                                    seed=common.FIXTURE_SEED)
    load_checkpoint(trainer, checkpoint)
    return trainer


# --------------------------------------------------------------------- #
# training
# --------------------------------------------------------------------- #
class _WindowDone(Exception):
    pass


def run_train(args) -> dict:
    from repro import backend
    from repro.experiments import runners
    from repro.train import Callback, Checkpointer
    from repro.train.parallel import ParallelTrainEngine
    from repro.utils.pool import SpawnPool

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        layers.install_setup(tracer)
    cfg = _config()
    workdir = args.workdir
    with backend.use(common.BACKEND):
        split = runners.load_config_split(cfg, seed=args.seed)
        trainer = runners.build_trainer(common.DEFENSE, cfg, seed=args.seed)
        # The window, not the epoch count, ends a measured run.
        trainer.epochs = 10_000
        pool = SpawnPool(args.workers) if args.workers > 1 else None
        engine = ParallelTrainEngine(trainer, workers=args.workers,
                                     pool=pool).attach() \
            if args.workers else None
        if pool is not None:
            # Worker spawn is set-up: start the pool and wait for a
            # worker to answer before the first step.
            list(pool.imap(abs, range(args.workers)))
        callbacks = runners.build_train_callbacks(
            cfg, trainer, split, checkpointer=Checkpointer(workdir),
            metrics_path=os.path.join(workdir, "metrics.jsonl"),
            fast=True, seed=args.seed, workers=max(args.workers, 1),
            pool=pool)
        ready_at = time.monotonic()
        # Two workers keep both CPUs busy: time the reference on both.
        parallel = hostspeed.ParallelReference(args.workers) \
            if args.workers > 1 else None
        reference_s = parallel.reference_s if parallel is not None \
            else hostspeed.reference_s
        ready_ref = reference_s()

        state = {"steps": 0, "bad": 0, "latencies": [], "refs": [],
                 "phase": "warmup", "digest": None, "windows": []}
        half = args.seconds / 2 if args.trace else args.seconds

        class Clock(Callback):
            """Times every step; a host speed reference runs before each
            window and after each group of steps, outside the steps."""

            def __init__(self):
                self.last = None

            def open_window(self, phase):
                state["phase"] = phase
                state["refs"] = [reference_s()]
                self.last = time.monotonic()

            def on_batch_end(self, loop, epoch, batch_index, loss):
                now = time.monotonic()
                state["steps"] += 1
                if not np.isfinite(loss):
                    state["bad"] += 1
                if state["phase"] == "warmup":
                    if state["steps"] < common.WARMUP_STEPS:
                        return
                    state["digest"] = _digest(trainer.checkpoint_modules())
                    self.open_window("untraced" if args.trace else "timed")
                    return
                latencies = state["latencies"]
                latencies.append(now - self.last)
                self.last = now
                if len(latencies) % common.TRAIN_GROUP:
                    return
                state["refs"].append(reference_s())
                self.last = time.monotonic()
                if sum(latencies) < half:
                    return
                state["windows"].append({
                    "phase": state["phase"], "seconds": sum(latencies),
                    "steps": len(latencies), "latencies": latencies,
                    "refs": state["refs"]})
                state["latencies"] = []
                if state["phase"] == "untraced":
                    layers.install_compute(tracer)
                    layers.install_train(tracer, {
                        id(trainer.optimizer): "classifier",
                        id(trainer.disc_optimizer): "discriminator"})
                    if args.workers > 1:
                        layers.install_parallel(tracer)
                    state["misses"] = _pool_misses()
                    self.open_window("traced")
                    return
                raise _WindowDone

        callbacks.append(Clock())
        try:
            trainer.fit(split.train, callbacks=callbacks)
            error = "training stopped before the window closed: " \
                f"{trainer.history.stop_reason}"
        except _WindowDone:
            error = None
        except Exception as exc:  # noqa: BLE001 - reported as a failure
            error = f"{type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.restore()
            if parallel is not None:
                parallel.close()
        workers = [p.pid for p in multiprocessing.active_children()]
        rss_kb = _rss_kb(workers)
        if engine is not None:
            engine.close()
        if pool is not None:
            pool.close()
    return {"ready_at": ready_at, "ready_ref": ready_ref,
            "digest": state["digest"],
            "steps": state["steps"], "non_finite": state["bad"],
            "batch_size": cfg.batch_size, "windows": state["windows"],
            "rss_kb": rss_kb, "error": error,
            "pool_misses": _pool_misses() - state.get("misses", 0.0),
            "trace": tracer.summary() if tracer is not None else None}


# --------------------------------------------------------------------- #
# attack evaluation
# --------------------------------------------------------------------- #
def run_attack(args) -> dict:
    from repro import backend
    from repro.eval.engine import AttackSuite
    from repro.data.synthetic import make_dataset
    from repro.eval.metrics import predict_labels
    from repro.experiments.eval_suite import build_attack_pool

    tracer = Tracer() if args.trace else None
    cfg = _config()
    with backend.use(common.BACKEND):
        # Only the test split is generated: the workload attacks it and
        # never trains, so the 2048 training images would be dead set-up.
        images, labels = make_dataset(common.DATASET, seed=args.seed) \
            .generate(cfg.test_size)
        model = _fixture_trainer(cfg, args.checkpoint).model
        pool = build_attack_pool(cfg, fast=True, seed=args.seed)
        attacks = {name: pool[name] for name in common.ATTACKS}
        suite = AttackSuite(attacks, early_stop=True, workers=1)
        ready_at = time.monotonic()
        ready_ref = hostspeed.reference_s()
        batches = [(images[i:i + common.ATTACK_BATCH],
                    labels[i:i + common.ATTACK_BATCH])
                   for i in range(0, len(images), common.ATTACK_BATCH)]
        result = {"ready_at": ready_at, "ready_ref": ready_ref,
                  "error": None, "windows": [],
                  "records": [], "checks": {}}
        # Warm-up: every attack once on one batch, outside any window.
        suite.run(model, *batches[0])

        def window(phase: str, seconds: float) -> None:
            """``AttackSuite.run`` calls, each timed between two host
            speed references, until they add up to ``seconds``."""
            latencies, work = [], 0
            refs = [hostspeed.reference_s()]
            last = time.monotonic()
            # Child k starts at batch k, so a run covers every batch.
            index = args.start
            while sum(latencies) < seconds:
                b = index % len(batches)
                index += 1

                def on_record(record, b=b):
                    nonlocal last
                    now = time.monotonic()
                    latencies.append(now - last)
                    last = now
                    result["records"].append(
                        [b, record.attack, record.accuracy])

                suite.run(model, *batches[b], on_record=on_record)
                work += len(batches[b][0]) * len(attacks)
                refs.append(hostspeed.reference_s())
                last = time.monotonic()
            result["windows"].append({
                "phase": phase, "seconds": sum(latencies),
                "work": work, "latencies": latencies, "refs": refs})

        if args.trace:
            window("untraced", args.seconds / 2)
            layers.install_compute(tracer)
            layers.install_attacks(tracer)
            misses = _pool_misses()
            window("traced", args.seconds / 2)
            result["pool_misses"] = _pool_misses() - misses
            tracer.restore()
        else:
            window("timed", args.seconds)

        # Verification, untimed: craft every (batch, attack) directly and
        # check the ball and the box; the driver holds every timed
        # record's accuracy to these.  Crafting is deterministic per seed,
        # so one child verifies for all of a run's children.
        eps = cfg.budget.eps
        checks = result["checks"]
        for b, (x, y) in enumerate(batches if args.verify else ()):
            for name, attack in attacks.items():
                adv = backend.active().to_numpy(attack(model, x, y))
                delta = np.abs(adv - x).reshape(len(x), -1).max(axis=1)
                inside = (delta <= eps + 1e-5) & \
                    (adv.reshape(len(x), -1).min(axis=1) >= -1.0) & \
                    (adv.reshape(len(x), -1).max(axis=1) <= 1.0)
                accuracy = float(
                    (predict_labels(model, adv) == y).mean())
                checks[f"{b}:{name}"] = {"outside": int((~inside).sum()),
                                         "accuracy": accuracy,
                                         "rows": len(x)}
        result["rss_kb"] = _rss_kb()
    result["trace"] = tracer.summary() if tracer is not None else None
    return result


# --------------------------------------------------------------------- #
# fixtures
# --------------------------------------------------------------------- #
def run_fixture_checkpoint(args) -> dict:
    """The FAST-preset zk-gandef checkpoint, via ``repro train``."""
    from repro.experiments.train_run import run_train as repro_train

    result = repro_train(common.DATASET, preset=common.PRESET,
                         defense=common.DEFENSE, seed=common.FIXTURE_SEED,
                         checkpoint_dir=args.out, backend=common.BACKEND)
    return {"checkpoint": result.checkpoint_path,
            "epochs": result.completed_epochs}


def run_fixture_traffic(args) -> dict:
    """Seeded open-loop traffic: arrival times, request sizes, unique
    rows (half PGD-derived), encoded bodies and the labels a direct
    forward of the fixture gives each row."""
    from repro import backend, nn
    from repro.data.synthetic import make_dataset
    from repro.serve.loadgen import craft_adversarial_pool
    from repro.serve.registry import ModelRegistry

    plan = json.loads(args.plan)
    cfg = _config()
    rng = np.random.default_rng([args.seed, 7919])
    with backend.use(common.BACKEND):
        entry = ModelRegistry().load("model", args.checkpoint,
                                     dataset=common.DATASET,
                                     preset=common.PRESET, seed=args.seed,
                                     backend=common.BACKEND)
        clean, labels = make_dataset(common.DATASET, seed=args.seed) \
            .generate(plan["pool"])
        attack = cfg.budget.build(fast=True, seed=args.seed)["pgd"]
        adv = craft_adversarial_pool(entry.model, clean, labels, attack)
        phases, rows = {}, []
        for phase in plan["phases"]:
            # A phase with a count and no rate is a warm-up: all due at
            # once.  No row is shared between phases.
            count = phase["count"] if "count" in phase else \
                int(round(phase["rate"] * phase["seconds"]))
            # Evenly spaced at the rate, each jittered by up to a quarter
            # gap: a steady open loop whose queueing comes from the
            # server, not from bursts that differ from seed to seed.
            gap = 1.0 / phase["rate"] if phase["rate"] else 0.0
            due = (np.arange(count) + 0.5 + rng.uniform(
                -0.25, 0.25, size=count)) * gap
            # Every phase has the same mix: sizes 1..max_rows and clean /
            # PGD requests in equal shares, in seeded order, so seeds
            # differ in content and order, not in how much work they ask.
            sizes = rng.permutation(np.resize(
                np.arange(1, plan["max_rows"] + 1), count))
            kinds = rng.permutation(np.resize([True, False], count))
            requests = []
            for t, size, adversarial in zip(due, sizes.tolist(),
                                            kinds.tolist()):
                source = adv if adversarial else clean
                picks = rng.integers(0, len(source), size=size)
                # Jitter makes every row unique, so the prediction cache
                # misses on every row.
                batch = np.clip(source[picks] + rng.uniform(
                    -0.01, 0.01, size=source[picks].shape), -1.0, 1.0
                ).astype(np.float32)
                requests.append({"due": float(t), "rows": size,
                                 "first_row": len(rows)})
                rows.extend(batch)
            phases[phase["name"]] = {"rate": phase["rate"],
                                     "requests": requests}
        rows = np.stack(rows)
        with nn.inference_mode(entry.model), nn.no_grad():
            logits = np.concatenate([
                backend.active().to_numpy(
                    entry.model(nn.Tensor(rows[i:i + 64])).data)
                for i in range(0, len(rows), 64)])
    # A served label must equal the direct one; ties within 1e-4 of the
    # top logit are accepted (forwards are not bitwise stable across
    # micro-batch compositions).
    accept = [np.flatnonzero(row >= row.max() - 1e-4).tolist()
              for row in logits]
    bodies = bytearray()
    for phase in phases.values():
        for request in phase["requests"]:
            first = request.pop("first_row")
            chunk = rows[first:first + request["rows"]]
            body = json.dumps({"inputs": chunk.tolist()}).encode()
            request["offset"], request["length"] = len(bodies), len(body)
            request["accept"] = accept[first:first + request["rows"]]
            bodies += body
    with open(os.path.join(args.out, "bodies.bin"), "wb") as f:
        f.write(bodies)
    with open(os.path.join(args.out, "traffic.json"), "w") as f:
        json.dump(phases, f)
    return {"rows": len(rows)}


# --------------------------------------------------------------------- #
# traced server
# --------------------------------------------------------------------- #
def run_serve(args) -> dict:
    from repro import cli

    tracer = Tracer()
    layers.install_setup(tracer)
    layers.install_compute(tracer)
    layers.install_serve(tracer)
    try:
        code = cli.main(args.argv)
    finally:
        tracer.restore()
    with open(args.out, "w") as f:
        json.dump(tracer.summary(), f)
    return {"exit": code}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=["train", "attack", "serve",
                                         "fixture-checkpoint",
                                         "fixture-traffic"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--verify", type=int, default=0)
    parser.add_argument("--start", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workers", type=int, default=0)
    parser.add_argument("--workdir", default=".")
    parser.add_argument("--checkpoint")
    parser.add_argument("--out")
    parser.add_argument("--plan")
    argv = list(sys.argv[1:] if argv is None else argv)
    # ``serve`` passes everything after ``--`` to the repro CLI.
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    args.argv = argv[split + 1:]
    role = {"train": run_train, "attack": run_attack, "serve": run_serve,
            "fixture-checkpoint": run_fixture_checkpoint,
            "fixture-traffic": run_fixture_traffic}[args.role]
    result = role(args)
    print(json.dumps(result), flush=True)
    return 0 if not result.get("error") else 1


if __name__ == "__main__":
    sys.exit(main())
