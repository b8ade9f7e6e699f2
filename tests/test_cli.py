"""Command-line behaviour: dispatch, exit codes, determinism."""

import argparse
from pathlib import Path

import pytest

from colorsteinitz.checkcert import check_text
from colorsteinitz.cli import build_parser, main
from colorsteinitz.instancefile import InstanceFile, emit_instance
from colorsteinitz.oracle import generate_bcase, generate_pcase

from conftest import pt as P

RANDOM2 = str(Path(__file__).resolve().parent.parent / "instances" / "random2")


def write_system(tmp_path, system, name="inst"):
    path = tmp_path / name
    inst = InstanceFile(system.dim, system.sets, ("",) * len(system.sets))
    path.write_text(emit_instance(inst))
    return str(path)


def write_single(tmp_path, points, name="single"):
    path = tmp_path / name
    dim = len(points[0])
    inst = InstanceFile(dim, (tuple(points),), ("",))
    path.write_text(emit_instance(inst))
    return str(path)


@pytest.fixture
def bcase_path(tmp_path):
    return write_system(tmp_path, generate_bcase(2), name="bcase2")


@pytest.fixture
def pcase_path(tmp_path):
    return write_system(tmp_path, generate_pcase(2), name="pcase2")


class TestVerify:
    def test_spanning_system(self, bcase_path, capsys):
        assert main(["verify", bcase_path]) == 0
        out = capsys.readouterr().out
        assert out.count(": spans") == 4

    def test_non_spanning_exit_1(self, tmp_path, capsys):
        path = write_single(tmp_path, [P(1, 0), P(0, 1)])
        assert main(["verify", path]) == 1
        assert "NOT spanning" in capsys.readouterr().out


class TestReduceRefine:
    def test_reduce_basis_input(self, tmp_path, capsys):
        path = write_single(tmp_path, [P(1, 0), P(-1, 0), P(0, 1), P(0, -1)])
        assert main(["reduce", path]) == 0
        assert "reduced to 4 points" in capsys.readouterr().out

    def test_reduce_writes_checkable_cert(self, tmp_path):
        path = write_single(tmp_path, [P(1, 0), P(0, 1), P(-1, -1), P(2, 1)])
        cert = tmp_path / "out.cert"
        assert main(["reduce", path, "--cert", str(cert)]) == 0
        assert check_text(cert.read_text()) == ["span"]

    def test_refine_basis_case(self, tmp_path, capsys):
        path = write_single(tmp_path, [P(1, 0), P(-1, 0), P(0, 1), P(0, -1)])
        assert main(["refine", path]) == 0
        assert "basis case" in capsys.readouterr().out

    def test_refine_small_subset(self, tmp_path, capsys):
        path = write_single(tmp_path, [P(1, 0), P(-1, 0), P(0, 1), P(0, -1), P(1, 1)])
        assert main(["refine", path]) == 0
        assert "refined to 3 points" in capsys.readouterr().out

    def test_reduce_non_spanning_exit_1(self, tmp_path):
        path = write_single(tmp_path, [P(1, 0), P(0, 1)])
        assert main(["reduce", path]) == 1


# `transversal --trace --cert` on instances/random2, recorded before the trace
# and the transversal shared one computation
RANDOM2_TRACE = (
    "trace forward: initial sqdist 17\n"
    "pivot colour=0 enter=1 sqdist=1\n"
    "pivot colour=1 enter=3 sqdist=0\n"
    "trace backward: initial sqdist 25/13\n"
    "pivot colour=0 enter=1 sqdist=0\n"
    "colour 1 -> point 2 : 0 2\n"
    "colour 2 -> point 4 : 3 1\n"
    "colour 3 -> point 2 : 2 2\n"
    "colour 4 -> point 1 : -2 -3\n"
)
RANDOM2_CERT = (
    "CERT transversal\n"
    "DIM 2\n"
    "PICK 0 1\n"
    "PICK 1 3\n"
    "PICK 2 1\n"
    "PICK 3 0\n"
    "GEN 0 0 2\n"
    "GEN 1 3 1\n"
    "GEN 2 2 2\n"
    "GEN 3 -2 -3\n"
    "DIR 1 0\n"
    "COEFF 1 3/7\n"
    "COEFF 3 1/7\n"
    "DIR 0 1\n"
    "COEFF 0 1/2\n"
    "DIR -1 0\n"
    "COEFF 0 3/4\n"
    "COEFF 3 1/2\n"
    "DIR 0 -1\n"
    "COEFF 1 2/7\n"
    "COEFF 3 3/7\n"
    "END\n"
)


# instances/random2 with set 3 replaced by four points in the halfplane x > 0;
# outputs recorded when every spanning decision still solved 2d LPs; count and
# minsize recorded when the CLI got its one NotSpanning handler
NOSPAN3 = """dim 2
set
-1 -2
0 2
-3 -3
3 1
set
-3 -2
-3 1
0 -3
3 1
set
1 2
2 -1
3 1
1/2 0
set
-2 -3
1 3
-2 -1
0 -2
"""
NOSPAN3_GOLDEN = {
    "verify": (
        "set 1: spans\n"
        "set 2: spans\n"
        "set 3: NOT spanning, witness w = -2 1\n"
        "set 4: spans\n"
    ),
    "classify": "set 3 does not span; witness w = -2 1\n",
    "transversal": "set 3 does not span; witness w = -2 1\n",
    "count": "set 3 does not span; witness w = -2 1\n",
    "minsize": "set 3 does not span; witness w = -2 1\n",
}


@pytest.mark.parametrize("command", sorted(NOSPAN3_GOLDEN))
def test_non_spanning_golden(command, tmp_path, capsys):
    path = tmp_path / "nospan3"
    path.write_text(NOSPAN3)
    assert main([command, str(path)]) == 1
    assert capsys.readouterr().out == NOSPAN3_GOLDEN[command]


@pytest.mark.parametrize("command", ["reduce", "refine"])
def test_non_spanning_single_set_golden(command, tmp_path, capsys):
    path = write_single(tmp_path, [P(1, 0), P(0, 1)])
    assert main([command, path]) == 1
    assert capsys.readouterr().out == "input does not span; witness w = -1 0\n"


class TestTransversal:
    def test_basic(self, bcase_path, capsys):
        assert main(["transversal", bcase_path]) == 0
        out = capsys.readouterr().out
        assert out.count("colour") == 4

    def test_trace_and_cert(self, bcase_path, tmp_path, capsys):
        cert = tmp_path / "tv.cert"
        assert main(["transversal", bcase_path, "--trace", "--cert", str(cert)]) == 0
        out = capsys.readouterr().out
        assert "trace forward" in out and "trace backward" in out
        assert check_text(cert.read_text()) == ["transversal"]

    def test_trace_golden_random2(self, tmp_path, capsys):
        cert = tmp_path / "tv.cert"
        assert main(["transversal", RANDOM2, "--trace", "--cert", str(cert)]) == 0
        assert capsys.readouterr().out == RANDOM2_TRACE
        assert cert.read_text() == RANDOM2_CERT

    def test_deterministic_output(self, bcase_path, capsys):
        main(["transversal", bcase_path])
        first = capsys.readouterr().out
        main(["transversal", bcase_path])
        assert capsys.readouterr().out == first


class TestClassify:
    def test_bcase(self, bcase_path, capsys):
        assert main(["classify", bcase_path]) == 0
        assert capsys.readouterr().out.startswith("BCase")

    def test_pcase(self, pcase_path, capsys):
        assert main(["classify", pcase_path]) == 0
        assert capsys.readouterr().out.startswith("PCase")

    def test_neither_with_cert(self, tmp_path, capsys):
        from colorsteinitz.colorful import ColourSystem

        base = (P(1, 0), P(0, 1), P(-1, -1), P(-1, 1))
        path = write_system(tmp_path, ColourSystem(2, (base,) * 4))
        cert = tmp_path / "n.cert"
        assert main(["classify", path, "--cert", str(cert)]) == 0
        assert capsys.readouterr().out.startswith("Neither")
        assert check_text(cert.read_text()) == ["transversal"]


class TestCountMinsize:
    def test_counts(self, bcase_path, pcase_path, capsys):
        assert main(["count", bcase_path]) == 0
        assert capsys.readouterr().out.strip() == "24"
        assert main(["count", pcase_path]) == 0
        assert capsys.readouterr().out.strip() == "12"

    def test_minsize(self, bcase_path, capsys):
        assert main(["minsize", bcase_path]) == 0
        assert capsys.readouterr().out.strip() == "4"

    def test_budget_exit_2(self, bcase_path):
        assert main(["count", bcase_path, "--budget", "3"]) == 2


class TestGeneratePlot:
    def test_generate_then_classify(self, tmp_path, capsys):
        out = tmp_path / "gen"
        assert main(["generate", "pcase", "2", str(out)]) == 0
        capsys.readouterr()
        assert main(["classify", str(out)]) == 0
        assert capsys.readouterr().out.startswith("PCase")

    def test_generate_random_seeded(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["generate", "random", "2", str(a), "--seed", "9"]) == 0
        assert main(["generate", "random", "2", str(b), "--seed", "9"]) == 0
        assert a.read_text() == b.read_text()

    def test_plot_svg(self, bcase_path, tmp_path):
        out = tmp_path / "p.svg"
        assert main(["plot", bcase_path, str(out)]) == 0
        text = out.read_text()
        assert text.startswith("<svg") and "<line" in text

    def test_plot_rejects_d3(self, tmp_path):
        from colorsteinitz.oracle import generate_bcase as gb

        path = write_system(tmp_path, gb(3))
        assert main(["plot", path, str(tmp_path / "x.svg")]) == 2


class TestUsageErrors:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_missing_file(self):
        assert main(["classify", "/no/such/file"]) == 2

    def test_parse_error(self, tmp_path):
        path = tmp_path / "bad"
        path.write_text("dim 2\nset\n0 0\n")
        assert main(["classify", str(path)]) == 2

    def test_wrong_mode(self, tmp_path):
        path = write_single(tmp_path, [P(1, 0), P(0, 1), P(-1, -1)])
        assert main(["classify", path]) == 2

    def test_reduce_needs_a_single_set(self, bcase_path, capsys):
        assert main(["reduce", bcase_path]) == 2
        assert capsys.readouterr().err == "error: command needs a single-set instance\n"


def test_commands_match_the_readme():
    """The subcommands of build_parser() are those the README's "Command
    line" block shows, in the same order."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    shown = [line.split()[1] for line in block.splitlines() if line.startswith("colorsteinitz ")]
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert shown == list(commands.choices)
