"""Certificate rendering and the standalone checker.

The checker deliberately shares no code with the solver; these tests also
exercise it as a subprocess to confirm independence from the package import.
"""

import ast
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from colorsteinitz import certio
from colorsteinitz.checkcert import CheckFailure, check_text
from colorsteinitz.colorful import colorful_transversal
from colorsteinitz.cones import (
    FarkasWitness,
    pos_membership,
    spans_space,
)
from colorsteinitz.oracle import generate_bcase, generate_random

from conftest import pt as P, units


def span_cert_text():
    cert = spans_space(units(2))
    return certio.render_span(cert, units(2))


class TestRenderAndCheck:
    def test_conic_roundtrip(self):
        gens = [P(1, 0), P(0, 1), P(1, 1)]
        cert = pos_membership(P(3, 1), gens)
        text = certio.render_conic(cert, gens)
        assert check_text(text) == ["conic"]

    def test_farkas_roundtrip(self):
        gens = [P(1, 0), P(0, 1)]
        res = spans_space(gens)
        assert isinstance(res, FarkasWitness)
        text = certio.render_farkas(res, gens)
        assert check_text(text) == ["farkas"]
        assert "WITNESS" in text

    def test_span_roundtrip(self):
        text = span_cert_text()
        assert check_text(text) == ["span"]
        # one DIR per +-e_i, in the required order
        dirs = [l for l in text.splitlines() if l.startswith("DIR ")]
        assert dirs == ["DIR 1 0", "DIR 0 1", "DIR -1 0", "DIR 0 -1"]

    def test_transversal_roundtrip(self):
        sys_ = generate_random(2, sizes=4, seed=0)
        tv, cert = colorful_transversal(sys_)
        text = certio.render_transversal(tv.picks, cert, tv.points(sys_))
        assert check_text(text) == ["transversal"]

    def test_multiple_blocks(self):
        text = span_cert_text() + span_cert_text()
        assert check_text(text) == ["span", "span"]

    def test_rendering_deterministic(self):
        assert span_cert_text() == span_cert_text()


class TestTamperDetection:
    def test_broken_coefficient(self):
        text = span_cert_text().replace("COEFF 0 1", "COEFF 0 2", 1)
        with pytest.raises(CheckFailure, match="does not verify"):
            check_text(text)

    def test_negative_coefficient(self):
        gens = [P(1, 0)]
        cert = pos_membership(P(2, 0), gens)
        text = certio.render_conic(cert, gens).replace("COEFF 0 2", "COEFF 0 -2")
        with pytest.raises(CheckFailure):
            check_text(text)

    def test_reordered_directions(self):
        text = span_cert_text()
        lines = text.splitlines()
        first = lines.index("DIR 1 0")
        second = lines.index("DIR 0 1")
        lines[first], lines[second] = lines[second], lines[first]
        with pytest.raises(CheckFailure, match="directions"):
            check_text("\n".join(lines) + "\n")

    def test_bad_farkas_witness(self):
        text = (
            "CERT farkas\nDIM 2\nGEN 0 1 0\nWITNESS 1 0\nEND\n"
        )
        with pytest.raises(CheckFailure, match="gen 0"):
            check_text(text)

    def test_zero_witness_rejected(self):
        text = "CERT farkas\nDIM 2\nGEN 0 1 0\nWITNESS 0 0\nEND\n"
        with pytest.raises(CheckFailure, match="zero"):
            check_text(text)

    def test_duplicate_transversal_colour(self):
        sys_ = generate_bcase(2)
        tv, cert = colorful_transversal(sys_)
        text = certio.render_transversal(tv.picks, cert, tv.points(sys_))
        text = text.replace("PICK 1 ", "PICK 0 ", 1)
        with pytest.raises(CheckFailure, match="colour twice"):
            check_text(text)

    def test_structural_errors(self):
        for bad in (
            "GEN 0 1 0\n",  # content outside a block
            "CERT span\nDIM 2\n",  # unterminated
            "CERT wat\nEND\n",  # unknown kind
            "CERT conic\nDIM 2\nEND\n",  # missing target
        ):
            with pytest.raises(CheckFailure):
                check_text(bad)


SPAN_1D = "CERT span\nDIM 1\nGEN 0 1\nGEN 1 -1\nDIR 1\nCOEFF 0 1\nDIR -1\nCOEFF 1 1\nEND\n"
ORDER = "span directions are not +e_1..+e_d, -e_1..-e_d in order"


class TestCheckerRejects:
    """One tampered text per rejection branch of the checker."""

    @pytest.mark.parametrize(
        "text, message",
        [
            ("CERT span\nCERT span\nEND\n", "line 2: CERT inside an open block"),
            ("END\n", "line 1: END without CERT"),
            (
                "CERT conic\nDIM 1\nGEN 0 1\nTARGET 1\nCOEFF 5 1\nEND\n",
                "unknown generator index 5",
            ),
            ("CERT conic\nDIM 1\nGEN 0 1\nGEN 0 2\nEND\n", "line 4: duplicate generator 0"),
            ("CERT conic\nDIM 1\nBASIS 1\nEND\n", "line 3: unknown tag BASIS"),
            ("CERT conic\nDIM one\nEND\n", "line 2: malformed field"),
            ("CERT conic\nGEN 0 1\nTARGET 1\nEND\n", "missing DIM"),
            ("CERT conic\nDIM 2\nGEN 0 1\nTARGET 1 0\nEND\n", "generator dimension mismatch"),
            (
                "CERT conic\nDIM 1\nGEN 0 1\nTARGET 2\nCOEFF 0 1\nCOEFF 0 1\nEND\n",
                "duplicate COEFF index",
            ),
            (SPAN_1D.replace("COEFF 0 1\n", "COEFF 0 1\nCOEFF 0 0\n"), "duplicate COEFF index"),
            (
                "CERT conic\nDIM 1\nGEN 0 1\nTARGET 2\nCOEFF 0 1\nEND\n",
                "does not reproduce the target",
            ),
            ("CERT farkas\nDIM 1\nGEN 0 1\nEND\n", "needs a WITNESS"),
            (
                "CERT farkas\nDIM 2\nGEN 0 1 0\nWITNESS -1 0\nTARGET 0 1\nEND\n",
                "witness fails <w, target> > 0",
            ),
            (
                SPAN_1D.replace("CERT span\n", "CERT transversal\nPICK 0 0\n"),
                "pick count and generator count differ",
            ),
            (SPAN_1D.replace("DIR -1\n", ""), ORDER),
            (SPAN_1D.replace("DIR -1\n", "DIR -1 0\n"), ORDER),
            (SPAN_1D.replace("DIR 1\n", "DIR 2\n"), ORDER),
            ("# nothing but a comment\n\n", "no certificates found"),
        ],
    )
    def test_rejection(self, text, message):
        with pytest.raises(CheckFailure, match=re.escape(message)):
            check_text(text)

    @pytest.mark.parametrize("kind", ["span", "transversal"])
    def test_huge_dim_without_directions_is_rejected_at_once(self, kind):
        # the 2 DIM x DIM expected directions must not be built for this
        start = time.perf_counter()
        with pytest.raises(CheckFailure, match=re.escape(ORDER)):
            check_text(f"CERT {kind}\nDIM 100000\nEND\n")
        assert time.perf_counter() - start < 0.5

    def test_untampered_texts_pass(self):
        # the texts above are tampered from these
        assert check_text(SPAN_1D) == ["span"]
        transversal = SPAN_1D.replace("CERT span\n", "CERT transversal\nPICK 0 0\nPICK 1 0\n")
        assert check_text(transversal) == ["transversal"]

    def test_blank_and_comment_lines_are_skipped(self):
        lines = span_cert_text().splitlines()
        padded = ["# a comment", ""]
        for line in lines:
            padded += [line, "   ", "  # indented comment"]
        assert check_text("\n".join(padded) + "\n") == ["span"]


class TestCheckerSubprocess:
    def test_ok_and_fail_exit_codes(self, tmp_path):
        good = tmp_path / "good.cert"
        good.write_text(span_cert_text())
        bad = tmp_path / "bad.cert"
        bad.write_text(span_cert_text().replace("COEFF 0 1", "COEFF 0 3", 1))

        ok = subprocess.run(
            [sys.executable, "-m", "colorsteinitz.checkcert", str(good)],
            capture_output=True,
            text=True,
        )
        assert ok.returncode == 0
        assert ok.stdout.startswith(f"OK {good}")

        fail = subprocess.run(
            [sys.executable, "-m", "colorsteinitz.checkcert", str(good), str(bad)],
            capture_output=True,
            text=True,
        )
        assert fail.returncode == 1
        assert f"FAIL {bad}" in fail.stdout


class TestCheckerIndependence:
    def test_checker_imports_nothing_from_the_package(self):
        path = Path(__file__).resolve().parents[1] / "src" / "colorsteinitz" / "checkcert.py"
        tree = ast.parse(path.read_text(), filename=str(path))
        offending = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = ["." * node.level + (node.module or "")]
            else:
                continue
            for name in names:
                if name.startswith(".") or name.split(".")[0] == "colorsteinitz":
                    offending.append((node.lineno, name))
        assert offending == []
