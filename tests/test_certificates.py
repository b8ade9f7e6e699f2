"""Certificate rendering and the standalone checker.

The checker deliberately shares no code with the solver; these tests also
exercise it as a subprocess to confirm independence from the package import.
The checker works on integers; ``reference_check_text`` below is the same
checker on ``Fraction``s, and the differential tests hold the two to the
same verdicts and messages.
"""

import ast
import functools
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorsteinitz import certio
from colorsteinitz.checkcert import CheckFailure, _rational, _split_blocks, check_text, main
from colorsteinitz.colorful import colorful_transversal
from colorsteinitz.cones import (
    FarkasWitness,
    pos_membership,
    spans_space,
)
from colorsteinitz.oracle import generate_bcase, generate_pcase, generate_random

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
        with pytest.raises(CheckFailure, match="negative coefficient on generator 0"):
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


class TestCheckerMain:
    """colorsteinitz-check in process: one line per file, exit 1 on any FAIL."""

    def test_valid_file(self, tmp_path, capsys):
        good = tmp_path / "good.cert"
        good.write_text(span_cert_text() * 2)
        assert main([str(good)]) == 0
        assert capsys.readouterr().out == f"OK {good}: 2 certificate(s)\n"

    def test_tampered_and_missing_files(self, tmp_path, capsys):
        bad = tmp_path / "bad.cert"
        bad.write_text(span_cert_text().replace("COEFF 0 1", "COEFF 0 3", 1))
        missing = tmp_path / "missing.cert"
        assert main([str(bad)]) == 1
        assert capsys.readouterr().out.startswith(f"FAIL {bad}: ")
        assert main([str(missing)]) == 1
        assert capsys.readouterr().out.startswith(f"FAIL {missing}: ")


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


# ---------------------------------------------------------------------------
# the Fraction reference checker


def _reference_point(fields):
    return tuple(Fraction(f) for f in fields)


def _reference_combination(coeffs, gens, dim):
    acc = [Fraction(0)] * dim
    for idx, value in coeffs:
        if value < 0:
            raise CheckFailure(f"negative coefficient on generator {idx}")
        if idx not in gens:
            raise CheckFailure(f"unknown generator index {idx}")
        g = gens[idx]
        acc = [a + value * b for a, b in zip(acc, g)]
    return tuple(acc)


def reference_check_block(block):
    """checkcert.check_block as it was on Fractions: every token a Fraction,
    every combination a sum of Fraction products."""
    (_, head) = block[0]
    if len(head) != 2 or head[1] not in ("conic", "farkas", "span", "transversal"):
        raise CheckFailure("bad CERT header")
    kind = head[1]
    dim = None
    gens = {}
    picks = []
    target = None
    witness = None
    directions = []  # list of (direction, [(idx, coeff), ...])
    loose_coeffs = []
    for lineno, fields in block[1:]:
        tag = fields[0]
        try:
            if tag == "DIM":
                dim = int(fields[1])
            elif tag == "GEN":
                idx = int(fields[1])
                if idx in gens:
                    raise CheckFailure(f"line {lineno}: duplicate generator {idx}")
                gens[idx] = _reference_point(fields[2:])
            elif tag == "PICK":
                picks.append((int(fields[1]), int(fields[2])))
            elif tag == "TARGET":
                target = _reference_point(fields[1:])
            elif tag == "WITNESS":
                witness = _reference_point(fields[1:])
            elif tag == "DIR":
                directions.append((_reference_point(fields[1:]), []))
            elif tag == "COEFF":
                entry = (int(fields[1]), Fraction(fields[2]))
                if directions:
                    directions[-1][1].append(entry)
                else:
                    loose_coeffs.append(entry)
            else:
                raise CheckFailure(f"line {lineno}: unknown tag {tag}")
        except (ValueError, ZeroDivisionError, IndexError) as exc:
            raise CheckFailure(f"line {lineno}: malformed field ({exc})") from exc
    if dim is None or dim < 1:
        raise CheckFailure("missing DIM")
    for g in gens.values():
        if len(g) != dim:
            raise CheckFailure("generator dimension mismatch")

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    if kind == "conic":
        if target is None or len(target) != dim:
            raise CheckFailure("conic certificate needs a TARGET")
        idxs = [i for i, _ in loose_coeffs]
        if len(set(idxs)) != len(idxs):
            raise CheckFailure("duplicate COEFF index")
        if _reference_combination(loose_coeffs, gens, dim) != target:
            raise CheckFailure("conic combination does not reproduce the target")
    elif kind == "farkas":
        if witness is None or len(witness) != dim:
            raise CheckFailure("farkas certificate needs a WITNESS")
        if all(c == 0 for c in witness):
            raise CheckFailure("farkas witness is zero")
        for idx, g in gens.items():
            if dot(witness, g) > 0:
                raise CheckFailure(f"witness fails <w, gen {idx}> <= 0")
        if target is not None and dot(witness, target) <= 0:
            raise CheckFailure("witness fails <w, target> > 0")
    else:  # span / transversal
        if kind == "transversal":
            colours = [c for c, _ in picks]
            if len(set(colours)) != len(colours):
                raise CheckFailure("transversal picks a colour twice")
            if len(picks) != len(gens):
                raise CheckFailure("pick count and generator count differ")
        axes = ((sign, axis) for sign in (1, -1) for axis in range(dim))
        if len(directions) != 2 * dim or any(
            len(g) != dim or any(x != (sign if i == axis else 0) for i, x in enumerate(g))
            for (sign, axis), (g, _) in zip(axes, directions)
        ):
            raise CheckFailure("span directions are not +e_1..+e_d, -e_1..-e_d in order")
        for direction, coeffs in directions:
            idxs = [i for i, _ in coeffs]
            if len(set(idxs)) != len(idxs):
                raise CheckFailure("duplicate COEFF index")
            if _reference_combination(coeffs, gens, dim) != direction:
                raise CheckFailure(
                    f"combination for direction {direction} does not verify"
                )
    return kind


def reference_check_text(text):
    """checkcert.check_text over reference_check_block; the blocks are split
    by the checker's own _split_blocks, which does no arithmetic."""
    kinds = [reference_check_block(block) for block in _split_blocks(text)]
    if not kinds:
        raise CheckFailure("no certificates found")
    return kinds


def _outcome(check, text):
    """The kinds list, or the type and message of what the check raised."""
    try:
        return check(text)
    except Exception as exc:  # the message is part of the verdict
        return type(exc), str(exc)


def _rescaled(points):
    """Point i times 1/(i+2): the same rays, with denominators in the text."""
    return tuple(tuple(x * Fraction(1, i + 2) for x in p) for i, p in enumerate(points))


@functools.cache
def _corpus():
    """Rendered span, transversal, conic and farkas certificates of the
    three generated families at d = 2..4, with and without denominators."""
    texts = []
    for d in (2, 3, 4):
        for system in (
            generate_random(d, seed=0),
            generate_bcase(d, transform_seed=1),
            generate_pcase(d, transform_seed=2),
        ):
            tv, cert = colorful_transversal(system)
            texts.append(certio.render_transversal(tv.picks, cert, tv.points(system)))
            for gens in (system.sets[0], _rescaled(system.sets[1])):
                texts.append(certio.render_span(spans_space(gens), gens))
                target = tuple(a + b / 3 for a, b in zip(gens[0], gens[1]))
                texts.append(certio.render_conic(pos_membership(target, gens), gens))
                refuted = spans_space(gens[:d])  # d points never span
                assert isinstance(refuted, FarkasWitness)
                texts.append(certio.render_farkas(refuted, gens[:d]))
                texts.append(certio.render_farkas(FarkasWitness(refuted.w), gens[:d]))
    return tuple(texts)


TOKENS = st.one_of(
    st.integers(-3, 3).map(str),
    st.fractions(-3, 3, max_denominator=6).map(str),
    st.sampled_from(["2/2", "03/6", "-0/5", "+1", "0.5", "1e0", "-0", "3/0", "1/-2", "x", "٣"]),
)


def _tamper(data, text):
    """One tamper of text: change a COEFF value, flip a sign, drop or
    duplicate a line, or change a DIR entry."""
    lines = text.splitlines()
    ops = ["sign", "drop", "duplicate"]
    ops += [op for op in ("coeff", "dir") if f"\n{op.upper()} " in text]
    op = data.draw(st.sampled_from(ops))
    if op in ("coeff", "dir"):
        tag = "COEFF" if op == "coeff" else "DIR"
        i = data.draw(st.sampled_from([i for i, l in enumerate(lines) if l.startswith(tag)]))
        fields = lines[i].split()
        j = 2 if op == "coeff" else data.draw(st.integers(1, len(fields) - 1))
        fields[j] = data.draw(TOKENS)
        lines[i] = " ".join(fields)
    else:
        i = data.draw(st.integers(0, len(lines) - 1))
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        else:
            fields = lines[i].split()
            if len(fields) > 1:
                j = data.draw(st.integers(1, len(fields) - 1))
                token = fields[j]
                fields[j] = token[1:] if token.startswith("-") else "-" + token
                lines[i] = " ".join(fields)
    return "\n".join(lines) + "\n"


class TestAgainstFractionReference:
    def test_corpus_covers_every_kind_and_verifies(self):
        kinds = set()
        for text in _corpus():
            kinds.update(check_text(text))
            assert check_text(text) == reference_check_text(text)
        assert kinds == {"span", "transversal", "conic", "farkas"}
        assert any("/" in text.split("GEN", 1)[1] for text in _corpus())

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_tampered_certificates_get_the_same_verdict(self, data):
        text = _tamper(data, data.draw(st.sampled_from(_corpus())))
        assert _outcome(check_text, text) == _outcome(reference_check_text, text)

    @pytest.mark.parametrize(
        "text",
        [
            SPAN_1D.replace("DIR 1\n", "DIR 2/2\n"),
            SPAN_1D.replace("GEN 0 1\n", "GEN 0 1/3\n").replace("COEFF 0 1\n", "COEFF 0 3\n"),
            SPAN_1D.replace("GEN 0 1\n", "GEN 0 1/3\n"),
            SPAN_1D.replace("COEFF 1 1\n", "COEFF 1 2\n"),
            "CERT farkas\nDIM 2\nGEN 0 -1/2 0\nTARGET 1/3 -5\nWITNESS 1/7 0\nEND\n",
            "CERT farkas\nDIM 2\nGEN 0 1/2 0\nWITNESS 1/7 0\nEND\n",
            "CERT conic\nDIM 2\nGEN 0 1/2 0\nGEN 1 0 3\nTARGET 1 1\nCOEFF 0 2\nCOEFF 1 1/3\nEND\n",
        ],
    )
    def test_denominators_get_the_same_verdict(self, text):
        assert _outcome(check_text, text) == _outcome(reference_check_text, text)


GRAMMAR = [
    "3", "-3", "+3", "-0", "03/4", "-3/4", "3/-4", "3/0", "0.5", "1e3", "1_000",
    "٣", "", "/4", "3/", "--3", "-",
]


class TestTokenGrammar:
    @pytest.mark.parametrize("token", GRAMMAR)
    def test_parse_helper_matches_fraction(self, token):
        try:
            expected = Fraction(token)
        except Exception as exc:
            with pytest.raises(type(exc)) as raised:
                _rational(token)
            assert str(raised.value) == str(exc)
        else:
            num, den = _rational(token)
            assert den > 0 and Fraction(num, den) == expected

    def test_decimal_coefficients_verify(self):
        text = SPAN_1D.replace("GEN 0 1\n", "GEN 0 2\n").replace("COEFF 0 1\n", "COEFF 0 0.5\n")
        assert check_text(text) == ["span"]

    def test_zero_denominator_coefficient_is_malformed(self):
        text = SPAN_1D.replace("COEFF 0 1\n", "COEFF 0 1/0\n")
        with pytest.raises(CheckFailure, match=re.escape("line 6: malformed field (Fraction(1, 0))")):
            check_text(text)
