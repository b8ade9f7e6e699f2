"""Standalone certificate checker.

Deliberately self-contained: only the standard library, no imports from the
rest of the package, so a verified certificate does not depend on the solver
being correct.  It verifies exactly on integers: each point is read as an
integer vector over one positive denominator, a combination is summed over
the common denominator of its terms, and values are compared by
cross-multiplication.  Numbers are accepted in the token syntax of
``fractions.Fraction`` ("3", "-3/4", "+3", "0.5", "1e3", ...).  Exit code 0
when every block verifies, 1 otherwise.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction
from math import lcm


class CheckFailure(Exception):
    pass


_PLAIN = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _rational(token):
    """(num, den) with den > 0 and num/den == Fraction(token).  A plain ASCII
    "p" or "p/q" is read with int(); any other token, and a zero q, goes to
    Fraction, which accepts or rejects it with its own message."""
    plain = _PLAIN.fullmatch(token)
    if plain:
        num, den = plain.groups()
        num = int(num)
        den = int(den) if den else 1
        if den:
            return num, den
    value = Fraction(token)
    return value.numerator, value.denominator


def _parse_point(fields):
    """(int vector, den > 0): the point is vector / den."""
    values = [_rational(f) for f in fields]
    den = lcm(*(q for _, q in values))
    return tuple(p * (den // q) for p, q in values), den


def _split_blocks(text):
    block = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] == "CERT":
            if block is not None:
                raise CheckFailure(f"line {lineno}: CERT inside an open block")
            block = [(lineno, fields)]
        elif fields[0] == "END":
            if block is None:
                raise CheckFailure(f"line {lineno}: END without CERT")
            yield block
            block = None
        else:
            if block is None:
                raise CheckFailure(f"line {lineno}: content outside CERT block")
            block.append((lineno, fields))
    if block is not None:
        raise CheckFailure("unterminated CERT block")


def _combination(coeffs, gens, dim):
    """(int vector, den > 0): the sum of value * generator over coeffs, each
    term brought to the common denominator den."""
    for idx, (num, _) in coeffs:
        if num < 0:
            raise CheckFailure(f"negative coefficient on generator {idx}")
        if idx not in gens:
            raise CheckFailure(f"unknown generator index {idx}")
    den = lcm(*(q * gens[idx][1] for idx, (_, q) in coeffs))
    acc = [0] * dim
    for idx, (num, q) in coeffs:
        g, g_den = gens[idx]
        scale = num * (den // (q * g_den))
        acc = [a + scale * b for a, b in zip(acc, g)]
    return acc, den


def _reproduces(combination, point):
    """Whether the combination (vector, den) equals point (vector, den)."""
    (acc, den), (vec, vec_den) = combination, point
    return all(a * vec_den == x * den for a, x in zip(acc, vec))


def check_block(block):
    (_, head) = block[0]
    if len(head) != 2 or head[1] not in ("conic", "farkas", "span", "transversal"):
        raise CheckFailure("bad CERT header")
    kind = head[1]
    dim = None
    gens = {}  # idx -> (int vector, den)
    picks = []
    target = None
    witness = None
    directions = []  # list of ((int vector, den), [(idx, (num, den)), ...])
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
                gens[idx] = _parse_point(fields[2:])
            elif tag == "PICK":
                picks.append((int(fields[1]), int(fields[2])))
            elif tag == "TARGET":
                target = _parse_point(fields[1:])
            elif tag == "WITNESS":
                witness = _parse_point(fields[1:])
            elif tag == "DIR":
                directions.append((_parse_point(fields[1:]), []))
            elif tag == "COEFF":
                entry = (int(fields[1]), _rational(fields[2]))
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
    for g, _ in gens.values():
        if len(g) != dim:
            raise CheckFailure("generator dimension mismatch")

    # positive denominators: the sign of a dot product of numerators is the
    # sign of the rational one
    def dot(a, b):
        return sum(x * y for x, y in zip(a[0], b[0]))

    if kind == "conic":
        if target is None or len(target[0]) != dim:
            raise CheckFailure("conic certificate needs a TARGET")
        idxs = [i for i, _ in loose_coeffs]
        if len(set(idxs)) != len(idxs):
            raise CheckFailure("duplicate COEFF index")
        if not _reproduces(_combination(loose_coeffs, gens, dim), target):
            raise CheckFailure("conic combination does not reproduce the target")
    elif kind == "farkas":
        if witness is None or len(witness[0]) != dim:
            raise CheckFailure("farkas certificate needs a WITNESS")
        if all(c == 0 for c in witness[0]):
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
        # the count first, then each DIR against sign * e_axis: linear in the input
        axes = ((sign, axis) for sign in (1, -1) for axis in range(dim))
        if len(directions) != 2 * dim or any(
            len(g) != dim or any(x != (sign * den if i == axis else 0) for i, x in enumerate(g))
            for (sign, axis), ((g, den), _) in zip(axes, directions)
        ):
            raise CheckFailure("span directions are not +e_1..+e_d, -e_1..-e_d in order")
        for direction, coeffs in directions:
            idxs = [i for i, _ in coeffs]
            if len(set(idxs)) != len(idxs):
                raise CheckFailure("duplicate COEFF index")
            if not _reproduces(_combination(coeffs, gens, dim), direction):
                vec, den = direction
                shown = tuple(Fraction(x, den) for x in vec)
                raise CheckFailure(f"combination for direction {shown} does not verify")
    return kind


def check_text(text):
    """Returns the list of verified block kinds; raises CheckFailure."""
    kinds = [check_block(block) for block in _split_blocks(text)]
    if not kinds:
        raise CheckFailure("no certificates found")
    return kinds


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="verify certificate files with exact rational arithmetic"
    )
    parser.add_argument("files", nargs="+", help="certificate files to check")
    args = parser.parse_args(argv)
    failed = False
    for path in args.files:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                kinds = check_text(fh.read())
        except (OSError, CheckFailure) as exc:
            print(f"FAIL {path}: {exc}")
            failed = True
            continue
        print(f"OK {path}: {len(kinds)} certificate(s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
