"""The benchmark's seed-0 answers, checked on every test run.

perfbench/ keeps a digest of the first answers of each workload at seed 0
in baseline.json.  Its own tests compare them only when run by hand
(``python3 -m unittest discover -s perfbench``); this test makes the same
comparison here, so a change of answer fails the suite.  It imports the
benchmark's modules and changes nothing under perfbench/.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield tuple(map(importlib.import_module, ("run", "worker", "workloads")))
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("name", ["construct", "classify", "sweep_d2"])
def test_seed0_digest_matches_baseline(bench, name):
    run, worker, workloads = bench
    baseline = json.loads(run.BASELINE.read_text())["workloads"][name]
    w = workloads.WORKLOADS[name]
    out = worker.run(w, seed=0, count=w.fixed_systems)
    assert out["failed"] == 0, out["problems"]
    assert run._digest(out["answers"]) == baseline["digest_seed0"]
