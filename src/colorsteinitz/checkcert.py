"""Standalone certificate checker.

Deliberately self-contained: only the standard library, no imports from the
rest of the package, so a verified certificate does not depend on the solver
being correct.  Exit code 0 when every block verifies, 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction


class CheckFailure(Exception):
    pass


def _parse_point(fields):
    return tuple(Fraction(f) for f in fields)


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
    acc = [Fraction(0)] * dim
    for idx, value in coeffs:
        if value < 0:
            raise CheckFailure(f"negative coefficient on generator {idx}")
        if idx not in gens:
            raise CheckFailure(f"unknown generator index {idx}")
        g = gens[idx]
        acc = [a + value * b for a, b in zip(acc, g)]
    return tuple(acc)


def check_block(block):
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
        if _combination(loose_coeffs, gens, dim) != target:
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
        # the count first, then each DIR against sign * e_axis: linear in the input
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
            if _combination(coeffs, gens, dim) != direction:
                raise CheckFailure(
                    f"combination for direction {direction} does not verify"
                )
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
