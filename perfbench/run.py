"""Benchmark for colorsteinitz: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout; the package is imported from
``src/`` next to this directory, never from an installed copy.  Every
measured process is a fresh interpreter, so the package's process-wide
memos start empty:

1. One untraced process solves systems for ``--seconds`` of solving time and
   checks every answer (workloads.py).
2. ``REPEATS`` times: one process times package import plus a fixed batch
   of input generation, then a cold run of the command-line tools on
   ``instances/random2``; ``setup_s`` and ``cli_cold_s`` are medians.
3. With ``--trace 1``, a traced process replays the run's first
   ``fixed_systems`` systems; its answers must hash to the same digest, and
   its spans give the per-layer metrics (tracer.py).

Solve and CLI times are scaled to the machine's nominal speed (refclock.py).
Human-readable lines come first; the last line of standard output is the
JSON result.  The exit code is 0 whenever a result was printed, also when
an answer was wrong (``"correct": false``).  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import refclock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
BASELINE = HERE / "baseline.json"
INSTANCE = "instances/random2"

# set-up samples and cold CLI runs, interleaved so that they spread over a
# few seconds of the machine's changing speed
REPEATS = 9
DEADLINE_S = 170
TAIL_CAP_PCT = 99.0
WORKLOADS = ("construct", "classify", "sweep_d2")

CHECK = ("colorsteinitz.checkcert", "{cert}")
CLI_STEPS = {
    "construct": [("colorsteinitz.cli", "transversal", INSTANCE, "--cert", "{cert}"), CHECK],
    "classify": [("colorsteinitz.cli", "classify", INSTANCE, "--cert", "{cert}"), CHECK],
    "sweep_d2": [
        ("colorsteinitz.cli", "classify", INSTANCE),
        ("colorsteinitz.cli", "minsize", INSTANCE),
    ],
}

END_TO_END = (
    ("systems_per_s", "1/s"),
    ("call_p50_ms", "ms"),
    ("call_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cli_cold_s", "s"),
)

_CALLS = (
    "steinitz.generic_direction",
    "ratlin.rref",
    "ratlin.in_linear_hull",
    "ratlin.lp_feasibility",
    "cones.spans_space",
    "cones.spanning",
    "cones.nearest_cone_point",
    "caratheodory.colorful_cone_caratheodory",
)
_SELF = (
    "steinitz.generic_direction",
    "ratlin.rref",
    "ratlin.lp_feasibility",
    "cones.spans_space",
    "cones.spanning",
    "cones.nearest_cone_point",
    "caratheodory.colorful_cone_caratheodory",
    "steinitz.steinitz_reduce",
    "steinitz.refine_below_2d",
    "colorful.ColourSystem.check_spanning",
    "colorful.classify",
    "colorful.find_small_transversal",
    "oracle.enumerate_report",
    "certio.render_transversal",
    "checkcert.check_text",
)
_HIT = ("cones.spans_space", "cones.spanning")
LAYERS = ("ratlin", "cones", "caratheodory", "steinitz", "colorful", "oracle", "certio", "checkcert")

PER_LAYER = (
    [(f"{f}.calls", "count") for f in _CALLS]
    + [(f"{f}.self_s", "s") for f in _SELF]
    + [(f"{f}.hit_ratio", "ratio") for f in _HIT]
    + [
        ("steinitz.generic_direction.hull_tests_per_call", "count"),
        ("steinitz.generic_direction.share", "ratio"),
        ("colorful.classify.spanning_calls_per_system", "count"),
        ("oracle.enumerate_report.spanning_calls", "count"),
    ]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [("tracing_overhead_frac", "ratio")]
)


class BenchError(Exception):
    pass


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _remaining(deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"run exceeded {DEADLINE_S} s")
    return left


def _timed(argv, deadline):
    """Wall time and completed process of one fresh interpreter."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=_env(), capture_output=True,
            text=True, timeout=_remaining(deadline),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{' '.join(argv)} timed out") from None
    return time.perf_counter() - start, proc


def _worker(deadline, *args):
    _, proc = _timed([str(WORKER), *args], deadline)
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({' '.join(args)}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cli_cold(workload, cert, deadline):
    """Bare interpreter start, then the workload's CLI steps: (start, steps, ok)."""
    bare, _ = _timed(["-c", "pass"], deadline)
    ok = True
    total = 0.0
    for module, *argv in CLI_STEPS[workload]:
        argv = ["-m", module, *(a.format(cert=cert) for a in argv)]
        wall, proc = _timed(argv, deadline)
        total += wall
        if proc.returncode != 0:
            print(f"cli step failed: {' '.join(argv)}: {proc.stdout}{proc.stderr}")
            ok = False
    return bare, total, ok


def _digest(hashes):
    return hashlib.sha256("\n".join(hashes).encode()).hexdigest()


def _tail(times):
    """The highest percentile, from p50 up to p99, with at least 10 samples above it.

    Above p99 the value would be set by a handful of systems: the memo-miss
    systems at the start of a run and single scheduler stalls.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    at_or_below = max(math.ceil(n / 2), min(n - 10, math.ceil(n * TAIL_CAP_PCT / 100)))
    return ordered[at_or_below - 1], 100.0 * at_or_below / n


def _layer_metrics(traced, untraced_s):
    """Per-layer metrics from the traced replay; ``untraced_s`` is the scaled
    solve time of the same systems in the untraced run."""
    stats = traced["trace"]

    def row(name):
        return stats.get(name, {})

    def per_call(name, key):
        calls = row(name).get("calls", 0)
        return row(name).get(key, 0) / calls if calls else 0.0

    traced_s = sum(_scaled(traced))
    gd = "steinitz.generic_direction"
    values = {f"{f}.calls": row(f).get("calls", 0) for f in _CALLS}
    values.update({f"{f}.self_s": row(f).get("self_s", 0.0) for f in _SELF})
    values.update({f"{f}.hit_ratio": per_call(f, "ratlin_free") for f in _HIT})
    hull = row(gd).get("children", {}).get("ratlin.in_linear_hull", 0)
    values[f"{gd}.hull_tests_per_call"] = hull / row(gd)["calls"] if row(gd).get("calls") else 0.0
    values[f"{gd}.share"] = row(gd).get("incl_s", 0.0) / sum(traced["times"])
    values["colorful.classify.spanning_calls_per_system"] = per_call("colorful.classify", "spanning_below")
    values["oracle.enumerate_report.spanning_calls"] = per_call("oracle.enumerate_report", "spanning_below")
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            r["self_s"] for name, r in stats.items() if name.startswith(layer + ".")
        )
    values["tracing_overhead_frac"] = traced_s / untraced_s - 1
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def _baseline_digest(workload):
    try:
        baseline = json.loads(BASELINE.read_text())
    except (OSError, ValueError):
        return None
    return baseline.get("workloads", {}).get(workload, {}).get("digest_seed0")


def _scaled(out):
    return [t / f for t, f in zip(out["times"], out["factors"])]


def measure(workload, seed, seconds, trace, tmp):
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed)]
    run = _worker(deadline, *base, "--seconds", str(seconds))
    times = _scaled(run)
    if not times:
        raise BenchError("no system was solved")
    setups, cli = [], []
    for _ in range(REPEATS):
        setups.append(_worker(deadline, *base, "--setup-only"))
        cli.append(_cli_cold(workload, str(tmp / "cli.cert"), deadline))

    attempted = len(times) + REPEATS
    failed = run["failed"] + sum(not ok for _, _, ok in cli)
    fixed = min(run["fixed_systems"], len(times))
    digest = _digest(run["answers"][:fixed])
    tail, tail_pct = _tail(times)
    end_to_end = {
        "systems_per_s": len(times) / sum(times),
        "call_p50_ms": 1000 * statistics.median(times),
        "call_tail_ms": 1000 * tail,
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": run["rss_mb"],
        "cli_cold_s": refclock.START_NOMINAL_S * statistics.median(t / b for b, t, _ in cli),
    }
    raw = run["times"]
    lines = [f"workload {workload}  seed {seed}  seconds {seconds}  trace {int(trace)}"]
    lines += [f"  {name:<16} {end_to_end[name]:12.6g} {unit}" for name, unit in END_TO_END]
    lines.append(f"  call_tail_ms is p{tail_pct:.2f} of calls {len(times)}")
    lines.append(f"  failed_frac      {failed / attempted:12.6g} ({failed} of {attempted})")
    lines.append(
        f"  unscaled wall: systems_per_s {len(raw) / sum(raw):.6g}, "
        f"call_p50_ms {1000 * statistics.median(raw):.6g}, "
        f"setup_s {statistics.median(s['setup_raw_s'] for s in setups):.6g}, "
        f"cli_cold_s {statistics.median(t for _, t, _ in cli):.6g} "
        f"(bare start {statistics.median(b for b, _, _ in cli):.6g}); "
        f"median slowdown factor {statistics.median(run['factors']):.4f}"
    )
    lines.append(f"  inputs fetched or generated for {run['gen_s']:.3f} s between systems, not timed")
    for i, msg in run["problems"]:
        lines.append(f"  problem in system {i}: {msg}")
    correct = failed == 0
    known = _baseline_digest(workload) if seed == 0 else None
    note = ""
    if known is not None and fixed == run["fixed_systems"]:
        note = "  (matches baseline)" if known == digest else "  (differs from baseline)"
    lines.append(f"  digest of first {fixed} answers {digest}{note}")

    metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END}
    if trace:
        traced = _worker(deadline, *base, "--count", str(fixed), "--trace")
        attempted += len(traced["times"])
        failed += traced["failed"]
        correct = failed == 0
        traced_digest = _digest(traced["answers"])
        if traced_digest != digest:
            correct = False
            lines.append(f"  traced digest {traced_digest} differs from the untraced one")
        if traced["trace_missing"]:
            lines.append(f"  not traced (absent): {', '.join(traced['trace_missing'])}")
        metrics = _layer_metrics(traced, sum(times[:fixed]))
        lines.append(f"  traced replay of {fixed} systems; per function (unscaled):")
        lines.append(f"    {'function':<42} {'calls':>9} {'self_s':>10} {'incl_s':>10}")
        ordered = sorted(traced["trace"].items(), key=lambda kv: -kv[1]["self_s"])
        for name, r in ordered:
            lines.append(f"    {name:<42} {r['calls']:>9} {r['self_s']:>10.4f} {r['incl_s']:>10.4f}")
        lines += [f"  {name:<48} {m['value']:12.6g} {m['unit']}" for name, m in metrics.items()]
    print("\n".join(lines))
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "colorsteinitz" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
