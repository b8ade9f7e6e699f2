"""Tests of the benchmark itself (stdlib unittest; pytest also runs them).

    python3 -m unittest discover -s perfbench -v
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from colorsteinitz import colorful, cones, oracle  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

SMALL = {"construct": 2, "classify": 7, "sweep_d2": 64}


def _bindings():
    """Every attribute of every loaded package module, plus the traced method."""
    snap = {}
    for module in tracer._package_modules():
        for name, value in vars(module).items():
            snap[(module.__name__, name)] = value
    snap[("ColourSystem", "check_spanning")] = vars(colorful.ColourSystem)["check_spanning"]
    return snap


class TracerTest(unittest.TestCase):
    def test_uninstall_restores_every_binding(self):
        before = _bindings()
        original = cones.spanning
        t = tracer.Tracer()
        with t:
            self.assertEqual(t.missing, [])
            # the alias in oracle and the definition in cones are both replaced
            self.assertIsNot(cones.spanning, original)
            self.assertIs(oracle._spanning, cones.spanning)
            steinitz_gd = before[("colorsteinitz.steinitz", "generic_direction")]
            self.assertIsNot(colorful.generic_direction, steinitz_gd)
            self.assertIsNot(
                vars(colorful.ColourSystem)["check_spanning"],
                before[("ColourSystem", "check_spanning")],
            )
        after = _bindings()
        self.assertEqual(before.keys(), after.keys())
        changed = [k for k in before if before[k] is not after[k]]
        self.assertEqual(changed, [])

    def test_self_time_excludes_children(self):
        t = tracer.Tracer()
        with t:
            cones.spans_space(((1, 0), (0, 1), (-1, -1)))
        stats = t.summary()
        spans = stats["cones.spans_space"]
        self.assertEqual(spans["calls"], 1)
        self.assertEqual(spans["ratlin_free"], 0)
        self.assertLess(spans["self_s"], spans["incl_s"])
        self.assertGreater(spans["children"]["cones.pos_membership"], 0)


class WorkloadTest(unittest.TestCase):
    def test_traced_answers_equal_untraced(self):
        for name, count in SMALL.items():
            with self.subTest(workload=name):
                w = workloads.WORKLOADS[name]
                plain = worker.run(w, seed=5, count=count)
                t = tracer.Tracer()
                traced = worker.run(w, seed=5, count=count, tracer=t)
                self.assertEqual(plain["failed"], 0, plain["problems"])
                self.assertEqual(traced["answers"], plain["answers"])
                self.assertGreater(sum(r["calls"] for r in t.summary().values()), 0)

    def test_sweep_d2_inputs_leave_the_memos_empty(self):
        cones.clear_span_cache()
        w = workloads.WORKLOADS["sweep_d2"]
        span_sets = w.prepare(0)
        w.batch(span_sets, 0, 0)
        self.assertEqual((cones._SPAN_BOOL, cones._SPAN_CACHE), ({}, {}))
        rays = {r for subset in span_sets for r in subset}
        expected = [
            c for k in (3, 4) for c in itertools.combinations(sorted(rays), k) if cones.spanning(c)
        ]
        self.assertEqual(span_sets, expected)

    def test_generator_process_gives_the_in_process_batches(self):
        for name in ("construct", "classify"):
            with self.subTest(workload=name):
                w = workloads.WORKLOADS[name]
                generator = worker.Generator(name, 5)
                try:
                    remote = [generator(b) for b in (0, 1)]
                finally:
                    generator.close()
                self.assertEqual(generator.proc.returncode, 0)
                self.assertEqual(remote, [w.batch(w.prepare(5), 5, b) for b in (0, 1)])

    def test_seed0_digest_matches_baseline(self):
        baseline = json.loads(run.BASELINE.read_text())["workloads"]
        for name, w in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                out = worker.run(w, seed=0, count=w.fixed_systems)
                self.assertEqual(out["failed"], 0, out["problems"])
                self.assertEqual(run._digest(out["answers"]), baseline[name]["digest_seed0"])

    def test_metric_names_match_benchmark_json(self):
        self.assertEqual(
            [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]], list(run.END_TO_END)
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]], list(run.PER_LAYER)
        )
        names = [w["name"] for w in BENCHMARK["workloads"]]
        self.assertEqual(names, list(workloads.WORKLOADS))
        self.assertEqual(names, list(run.WORKLOADS))


class SmokeTest(unittest.TestCase):
    """run.py end to end on every workload with a one-second budget."""

    def _check(self, name, trace, key):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3",
             "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, timeout=170,
        )
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in BENCHMARK[key]])

    def test_traced_run_of_every_workload(self):
        # a traced run also makes the untraced run and compares digests
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                self._check(name, 1, "per_layer")

    def test_untraced_run(self):
        self._check("sweep_d2", 0, "end_to_end")


if __name__ == "__main__":
    unittest.main()
