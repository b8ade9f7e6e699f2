"""Exact rational linear algebra and an exact phase-1 simplex.

Scalars are stdlib ``fractions.Fraction`` (always in lowest terms, positive
denominator).  Points are tuples of Fractions; matrices are lists of row
tuples.  Plain ``int`` coordinates are accepted too and stay exact: every
division is by a Fraction, never ``int / int``.  Everything here is a pure
function over immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch, ParseError

Rat = Fraction
Point = tuple  # tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def pt(*coords) -> Point:
    """Build a point from ints/strings/Fractions."""
    return tuple(Fraction(c) for c in coords)


def parse_rat(text: str) -> Fraction:
    """Parse "p" or "p/q" with the sign on the numerator only."""
    text = text.strip()
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"malformed rational {text!r}") from exc
    if "/" in text:
        den = text.split("/", 1)[1].strip()
        if den.startswith("-") or den.startswith("+"):
            raise ParseError(f"malformed rational {text!r}: sign belongs on the numerator")
    return value


def format_point(p: Point) -> str:
    """Coordinates as space-separated "p" or "p/q" strings."""
    return " ".join(map(str, p))


def dot(a: Point, b: Point) -> Fraction:
    if len(a) != len(b):
        raise DimensionMismatch(f"dot of lengths {len(a)} and {len(b)}")
    return sum((x * y for x, y in zip(a, b)), ZERO)


def add(a: Point, b: Point) -> Point:
    return tuple(x + y for x, y in zip(a, b))


def sub(a: Point, b: Point) -> Point:
    return tuple(x - y for x, y in zip(a, b))


def neg(a: Point) -> Point:
    return tuple(-x for x in a)


def scale(t, a: Point) -> Point:
    t = Fraction(t)
    return tuple(t * x for x in a)


def is_zero(a: Point) -> bool:
    return all(x == 0 for x in a)


def zero_point(d: int) -> Point:
    return (ZERO,) * d


def unit(d: int, axis: int, sign: int = 1) -> Point:
    return tuple(Fraction(sign) if i == axis else ZERO for i in range(d))


def _primitive_ints(p):
    """p times a positive rational, as coprime integers (zeros for p = 0)."""
    den = math.lcm(*(x.denominator for x in p))
    ints = [x.numerator * (den // x.denominator) for x in p]
    g = math.gcd(*ints) or 1
    return [n // g for n in ints]


def primitive_ray(p: Point) -> Point:
    """Scale by a positive rational to primitive integer coordinates.

    Preserves direction, so it is the canonical representative of the ray
    through ``p``.
    """
    return tuple(map(Fraction, _primitive_ints(p)))


def integer_line(p):
    """Primitive integer vector of the line through p (ints or Fractions),
    first nonzero entry positive; None for the zero vector."""
    ints = _primitive_ints(p)
    for n in ints:
        if n:
            return tuple(ints) if n > 0 else tuple(-n for n in ints)
    return None


def same_ray(a: Point, b: Point) -> bool:
    """True iff b is a positive rational multiple of a (both nonzero)."""
    if is_zero(a) or is_zero(b):
        return False
    return primitive_ray(a) == primitive_ray(b)


def rref(rows):
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    pivots = []
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        if pv != 1:
            pv = Fraction(pv)  # keeps int rows exact: int / int is a float
            m[r] = [x / pv for x in m[r]]
        for i in range(nr):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return m, pivots


def rank(rows) -> int:
    if not rows:
        return 0
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise DimensionMismatch("matrix is not rectangular")
    return len(rref(rows)[1])


def null_space(rows, ncols=None):
    """Basis of {x : Rx = 0}, rows acting on the left.

    Each basis vector is primitive integer with first nonzero coordinate
    positive, so the output is deterministic.
    """
    if rows:
        ncols = len(rows[0])
    elif ncols is None:
        raise ValueError("ncols required for an empty matrix")
    m, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [ZERO] * ncols
        v[f] = ONE
        for r_i, pc in enumerate(pivots):
            v[pc] = -m[r_i][f]
        basis.append(tuple(map(Fraction, integer_line(v))))
    return basis


def column_null_space(cols):
    """Basis of {mu : sum_j mu_j * cols[j] = 0}."""
    if not cols:
        return []
    d = len(cols[0])
    rows = [tuple(c[i] for c in cols) for i in range(d)]
    return null_space(rows, ncols=len(cols))


def solve_columns(cols, target):
    """One exact solution x of sum_j x_j cols[j] = target, or None."""
    n = len(cols)
    d = len(target)
    for c in cols:
        if len(c) != d:
            raise DimensionMismatch("column/target length mismatch")
    aug = [[cols[j][i] for j in range(n)] + [target[i]] for i in range(d)]
    m, pivots = rref(aug)
    if n in pivots:
        return None
    x = [ZERO] * n
    for r_i, pc in enumerate(pivots):
        x[pc] = m[r_i][n]
    return x


def in_linear_hull(v: Point, points) -> bool:
    """True iff v lies in the linear span of the given points."""
    points = list(points)
    if not points:
        return is_zero(v)
    return solve_columns(points, v) is not None


@dataclass(frozen=True)
class Feasible:
    coefficients: tuple


@dataclass(frozen=True)
class Infeasible:
    witness: Point


def lp_feasibility(cols, target):
    """Decide whether target lies in the positive hull of the columns.

    Returns Feasible(lam) with lam >= 0, sum lam_j cols[j] = target, and a
    basic support (linearly independent, hence at most d nonzeros), or
    Infeasible(w) with <w, col> <= 0 for every column and <w, target> > 0.

    Phase-1 simplex (minimise the sum of artificial variables) with Bland's
    rule, so it terminates even on degenerate inputs.  The basis matrix
    starts as the identity and every pivot is on a nonzero entry, so it
    stays nonsingular: the columns in the support of lam are basic, hence
    independent.
    """
    d = len(target)
    n = len(cols)
    for c in cols:
        if len(c) != d:
            raise DimensionMismatch("column/target length mismatch")
    if d == 0:
        return Feasible(())

    # Fraction signs make the tableau and right-hand side Fractions even for
    # int coordinates, whose int / int pivots would otherwise give floats
    sgn = [ONE if target[i] >= 0 else -ONE for i in range(d)]
    tab = [
        [sgn[i] * cols[j][i] for j in range(n)]
        + [ONE if k == i else ZERO for k in range(d)]
        for i in range(d)
    ]
    rhs = [sgn[i] * target[i] for i in range(d)]
    basis = list(range(n, n + d))
    ncols_t = n + d
    # reduced costs for cost vector (0,...,0,1,...,1), current basis all-artificial
    red = [-sum(tab[i][j] for i in range(d)) for j in range(n)] + [ZERO] * d

    while True:
        enter = next((j for j in range(ncols_t) if red[j] < 0), None)
        if enter is None:
            break
        best = None
        for i in range(d):
            if tab[i][enter] > 0:
                ratio = rhs[i] / tab[i][enter]
                key = (ratio, basis[i])
                if best is None or key < best[0]:
                    best = (key, i)
        if best is None:
            raise AssertionError("phase-1 objective unbounded")  # pragma: no cover
        li = best[1]
        pv = tab[li][enter]
        if pv != 1:
            tab[li] = [x / pv for x in tab[li]]
            rhs[li] /= pv
        for i in range(d):
            if i != li and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [a - f * b for a, b in zip(tab[i], tab[li])]
                rhs[i] -= f * rhs[li]
        f = red[enter]
        if f != 0:
            red = [a - f * b for a, b in zip(red, tab[li])]
        basis[li] = enter

    value = sum((rhs[i] for i in range(d) if basis[i] >= n), ZERO)
    if value == 0:
        lam = [ZERO] * n
        for i in range(d):
            if basis[i] < n:
                lam[basis[i]] = rhs[i]
        acc = zero_point(d)
        for j in range(n):
            if lam[j] != 0:
                acc = add(acc, scale(lam[j], cols[j]))
        if acc != tuple(target) or any(x < 0 for x in lam):
            raise AssertionError("simplex produced an invalid solution")  # pragma: no cover
        return Feasible(tuple(lam))

    y = [1 - red[n + i] for i in range(d)]
    w = tuple(sgn[i] * y[i] for i in range(d))
    w = primitive_ray(w)
    if any(dot(w, c) > 0 for c in cols) or dot(w, tuple(target)) <= 0:
        raise AssertionError("simplex produced an invalid Farkas witness")  # pragma: no cover
    return Infeasible(w)
