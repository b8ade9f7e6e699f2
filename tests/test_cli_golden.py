"""Every CLI output, byte for byte: the exit code, stdout, stderr and the
files each command writes, for each subcommand on the sample instances and
for the top-level and per-command ``--help``.

The expected bytes are in cli_golden.json, recorded under Python 3.11, whose
argparse lays out the --help texts.  Record them again, only when an output
is meant to change (or a new Python changes that layout), with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import shutil
from pathlib import Path

from colorsteinitz.cli import main

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "cli_golden.json"
INSTANCES = HERE.parent / "instances"

# a single set of 5 points whose spanning subsets go below 2d = 4 points
FIVE = "dim 2\nset\n1 0\n-1 0\n0 1\n0 -1\n1 1\n"

COMMANDS = (
    "verify", "reduce", "refine", "transversal", "classify",
    "count", "minsize", "generate", "plot",
)
CASES = (
    ["--help"]
    + [f"{command} --help" for command in COMMANDS]
    + [f"verify {name}" for name in ("bcase2", "bcase2-union", "pcase2", "random2")]
    + [
        "reduce bcase2-union --cert out.cert",
        "reduce five --cert out.cert",
        "reduce bcase2",
        "refine bcase2-union --cert out.cert",
        "refine five --cert out.cert",
        "refine random2",
        "transversal bcase2",
        "transversal pcase2 --cert out.cert",
        "transversal random2 --trace --cert out.cert",
        "transversal five",
    ]
    + [f"classify {name} --cert out.cert" for name in ("bcase2", "pcase2", "random2")]
    + [f"{oracle} {name}" for oracle in ("count", "minsize") for name in ("bcase2", "pcase2", "random2")]
    + [
        "count bcase2 --budget 3",
        "minsize bcase2 --budget 3",
        "minsize five",
        "generate random 3 gen --seed 4",
        "generate bcase 2 gen --transform-seed 1",
        "generate pcase 3 gen --seed 2 --sizes 5",
        "generate cube 2 gen",
        "plot random2 out.svg",
        "plot bcase2 out.svg",
        "plot five out.svg",
        "classify missing",
        "classify",
        "frobnicate",
        "",
    ]
)


def run(case, workdir):
    """{"code", "stdout", "stderr", "files"} of one command line, run in a
    fresh workdir holding the sample instances; "files" maps each file the
    run wrote to its text."""
    workdir.mkdir()
    for path in INSTANCES.iterdir():
        shutil.copy(path, workdir / path.name)
    (workdir / "five").write_text(FIVE)
    inputs = set(os.listdir(workdir))
    out, err = io.StringIO(), io.StringIO()
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"  # argparse wraps --help to the terminal
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(case.split())
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    files = {
        name: (workdir / name).read_text()
        for name in sorted(set(os.listdir(workdir)) - inputs)
    }
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": files}


def run_all(root):
    return {case: run(case, root / f"case{k}") for k, case in enumerate(CASES)}


def test_every_output_is_unchanged(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert list(golden) == CASES
    got = run_all(tmp_path)
    changed = [case for case in CASES if got[case] != golden[case]]
    assert {case: got[case] for case in changed} == {case: golden[case] for case in changed}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        recorded = run_all(Path(tmp))
    GOLDEN.write_text(json.dumps(recorded, indent=1) + "\n")
