"""One measured process of the benchmark; ``run.py`` starts it.

A fresh interpreter per run keeps the package's process-wide memos empty at
the start.  The worker solves systems one at a time, timing each, until
``--seconds`` of solving or ``--count`` systems.  Fetching the next batch and
reference-clock samples happen between systems, outside the timed calls.
It prints one JSON object: per-system times, slowdown factors and answer
hashes, problems found, generation time, peak RSS and, with ``--trace``, the
tracer's summary.

Workloads whose inputs come from the package's own generators
(``inputs_elsewhere``) are generated in a helper process (``--generate``),
because those generators call ``cones.spanning`` and the structural tests
and would otherwise fill the measured process's memos before it solves.

``--setup-only`` times set-up instead: package import, then the workload's
fixed inputs and one batch of the fixed seed ``SETUP_SEED``, so that the
amount of set-up work does not vary with ``--seed``.

    python3 perfbench/worker.py --workload classify --seed 1 --seconds 5
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pickle
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import refclock

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MAX_PROBLEMS = 20
# solve time between two reference-clock samples
REF_EVERY_S = 0.02
SETUP_SEED = 0
# reference-clock samples before and after each set-up
SETUP_REF_SAMPLES = 5


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--generate", action="store_true")
    return p.parse_args(argv)


def _import_package():
    sys.path.insert(0, str(SRC))
    import colorsteinitz

    where = Path(colorsteinitz.__file__).resolve().parent
    if where != SRC / "colorsteinitz":
        raise ImportError(f"colorsteinitz imported from {where}, not from {SRC}")
    import workloads

    return workloads


def _rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Generator:
    """Batches from a helper process: write a batch number, read a pickle."""

    def __init__(self, workload, seed):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--generate"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )

    def __call__(self, b):
        self.proc.stdin.write(f"{b}\n".encode())
        self.proc.stdin.flush()
        size = int.from_bytes(self.proc.stdout.read(8), "big")
        data = self.proc.stdout.read(size)
        if size == 0 or len(data) != size:
            raise RuntimeError(f"input generator ended early (exit {self.proc.poll()})")
        return pickle.loads(data)

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _serve_batches(workload, seed):
    ctx = workload.prepare(seed)
    out = sys.stdout.buffer
    for line in sys.stdin:
        data = pickle.dumps(list(workload.batch(ctx, seed, int(line))))
        out.write(len(data).to_bytes(8, "big") + data)
        out.flush()


def run(workload, seed, seconds=None, count=None, tracer=None, batches=None):
    """Solve systems until the time or count limit; returns the result dict.

    ``batches`` maps a batch number to its inputs; by default they are
    generated in this process.  ``factors`` holds, per system, the
    reference clock's slowdown factor measured just before it (refclock.py);
    ``rss_mb`` is the peak RSS once ``workload.fixed_systems`` systems are
    done, so it does not grow with the number of systems a faster commit
    fits into the run.
    """
    if batches is None:
        ctx = workload.prepare(seed)

        def batches(b):
            return workload.batch(ctx, seed, b)

    pending = list(batches(0))
    speed = refclock.Speed()
    speed.measure(3)
    times, factors, answers, problems = [], [], [], []
    gen_s = solved_s = since_ref = 0.0
    rss_mb = None
    batch = 0
    if tracer is not None:
        tracer.install()
    try:
        while (count is None or len(times) < count) and (seconds is None or solved_s < seconds):
            if not pending:
                batch += 1
                g = time.perf_counter()
                pending = list(batches(batch))
                gen_s += time.perf_counter() - g
            if since_ref >= REF_EVERY_S:
                speed.measure()
                since_ref = 0.0
            item = pending.pop(0)
            t = time.perf_counter()
            try:
                answer, bad = workload.solve(item)
            except Exception as exc:  # a raising answer is a counted failure
                answer, bad = f"raised {type(exc).__name__}", [f"raised {exc!r}"]
            dt = time.perf_counter() - t
            solved_s += dt
            since_ref += dt
            times.append(dt)
            factors.append(speed.factor())
            answers.append(hashlib.sha256(answer.encode()).hexdigest()[:16])
            problems += [(len(times) - 1, msg) for msg in bad]
            if len(times) == workload.fixed_systems:
                rss_mb = _rss_mb()
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {
        "times": times,
        "factors": factors,
        "answers": answers,
        "failed": len({i for i, _ in problems}),
        "problems": problems[:MAX_PROBLEMS],
        "gen_s": gen_s,
        "fixed_systems": workload.fixed_systems,
        "rss_mb": rss_mb if rss_mb is not None else _rss_mb(),
    }


def _setup(name):
    """Set-up time, raw and scaled by reference-clock samples taken just
    before and just after it."""
    refs = [refclock.sample() for _ in range(SETUP_REF_SAMPLES)]
    t = time.perf_counter()
    workload = _import_package().WORKLOADS[name]
    workload.batch(workload.prepare(SETUP_SEED), SETUP_SEED, 0)
    raw = time.perf_counter() - t
    refs += [refclock.sample() for _ in range(SETUP_REF_SAMPLES)]
    return {"setup_s": raw * refclock.NOMINAL_S / statistics.median(refs), "setup_raw_s": raw}


def main(argv=None):
    args = _parse(argv)
    if args.setup_only:
        print(json.dumps(_setup(args.workload)))
        return 0
    workload = _import_package().WORKLOADS[args.workload]
    if args.generate:
        _serve_batches(workload, args.seed)
        return 0
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    generator = Generator(args.workload, args.seed) if workload.inputs_elsewhere else None
    try:
        out = run(workload, args.seed, args.seconds, args.count, tracer, generator)
    finally:
        if generator is not None:
            generator.close()
    if tracer is not None:
        out["trace"] = tracer.summary()
        out["trace_missing"] = tracer.missing
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
