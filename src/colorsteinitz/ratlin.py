"""Exact rational linear algebra and an exact phase-1 simplex.

Scalars are stdlib ``fractions.Fraction`` (always in lowest terms, positive
denominator).  Points are tuples of Fractions; matrices are lists of row
tuples.  Plain ``int`` coordinates are accepted too and stay exact.
Everything here is a pure function over immutable values.

All elimination is one fraction-free pivot step, ``_pivot`` (Bareiss 1968),
on ``int`` only and never with ``/``.  ``_echelon`` scales each row to
coprime integers and pivots forward (``rank``) or Gauss-Jordan (``rref``,
``_null_basis``, ``solve_columns``); only the final integers become
Fractions.  ``_null_basis`` is the one place that reads null vectors off the
reduced form, for ``null_space``, the Gale vectors and dependence rays of
``cones`` and the hull normals of ``steinitz``.  ``lp_feasibility`` is a simplex on a tableau whose
columns are scaled to integers, pivoted by the same step.  A positive column
scaling keeps the pivots of Bland's rule, so the simplex returns exactly the
coefficients and witnesses of a Fraction tableau, as Fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch, ParseError

Point = tuple  # tuple[Fraction, ...]

ZERO = Fraction(0)


def pt(*coords) -> Point:
    """Build a point from ints/strings/Fractions."""
    return tuple(Fraction(c) for c in coords)


def parse_rat(text: str) -> Fraction:
    """Parse "p" or "p/q" with the sign on the numerator only."""
    text = text.strip()
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"malformed rational {text!r}") from exc


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


def integer_ray(p) -> tuple:
    """The ray through p (ints or Fractions) as a tuple of coprime ints.

    It equals, and hashes like, ``primitive_ray(p)``, but hashing ints is
    cheap where hashing Fractions is not.
    """
    return tuple(_primitive_ints(p))


def primitive_ray(p: Point) -> Point:
    """Scale by a positive rational to primitive integer coordinates.

    Preserves direction, so it is the canonical representative of the ray
    through ``p``.
    """
    return tuple(map(Fraction, integer_ray(p)))


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


def _pivot(m, r, c, den, rows):
    """One fraction-free pivot (Bareiss 1968) on the int entry p = m[r][c].

    Maps every listed row i != r to (m[i]*p - m[i][c]*m[r]) // den and
    returns p, the next ``den``.  While m is den times a rational matrix
    whose entries are minors of the integer input, the division is exact.
    A row with m[i][c] == 0 still changes: it is rescaled from den to p.
    """
    prow = m[r]
    p = prow[c]
    for i in rows:
        if i != r:
            row = m[i]
            f = row[c]
            m[i] = [(a * p - f * b) // den for a, b in zip(row, prow)]
    return p


def _echelon(rows, reduced):
    """Fraction-free echelon form of rows (ints or Fractions), on ints.

    Each row is first scaled to coprime integers, a positive scaling that
    keeps rank, row space and null space.  Returns (m, pivots, den): pivots
    are chosen like a textbook Gauss-Jordan loop (the first row with a
    nonzero entry in the next column), and each pivot clears the rows below
    it, or with ``reduced`` every other row.  In reduced form every pivot
    entry equals den, so m / den is the reduced row echelon form.
    """
    if len({len(r) for r in rows}) > 1:
        raise DimensionMismatch("matrix is not rectangular")
    m = [_primitive_ints(r) for r in rows]
    nr = len(m)
    pivots = []
    den = 1
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        pr = next((i for i in range(r, nr) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        den = _pivot(m, r, c, den, range(nr) if reduced else range(r + 1, nr))
        pivots.append(c)
        if r + 1 == nr:
            break
    return m, pivots, den


def rref(rows):
    """Reduced row echelon form; returns (rows of Fractions, pivot columns)."""
    m, pivots, den = _echelon(rows, True)
    return [[Fraction(x, den) for x in row] for row in m], pivots


def rank(rows) -> int:
    """Rank, by forward fraction-free elimination (``_echelon``)."""
    return len(_echelon(rows, False)[1])


def _null_basis(rows, ncols):
    """Integer basis of {x : Rx = 0} for rows of width ncols, by one reduced
    ``_echelon`` (m, pivots, den): per free column f, in order, den at f,
    -m[r][f] at the r-th pivot column and 0 at the other free columns.  The
    vectors are den times the rational basis, not made primitive; for no
    rows they are the ncols unit vectors.
    """
    m, pivots, den = _echelon(rows, True)
    basis = []
    for f in range(ncols):
        if f not in pivots:
            v = [0] * ncols
            v[f] = den
            for row, p in zip(m, pivots):
                v[p] = -row[f]
            basis.append(v)
    return basis


def null_space(rows):
    """Basis of {x : Rx = 0}, rows acting on the left, from ``_null_basis``.

    Each basis vector is primitive integer with first nonzero coordinate
    positive, so the output is deterministic.  Raises ValueError on an
    empty matrix, whose width is unknown.
    """
    if not rows:
        raise ValueError("null space of an empty matrix")
    return [tuple(map(Fraction, integer_line(v))) for v in _null_basis(rows, len(rows[0]))]


def solve_columns(cols, target):
    """One exact solution x of sum_j x_j cols[j] = target, or None.

    Free variables are zero, so x is the same for any positive scaling of
    the equations.
    """
    n = len(cols)
    d = len(target)
    for c in cols:
        if len(c) != d:
            raise DimensionMismatch("column/target length mismatch")
    aug = [[cols[j][i] for j in range(n)] + [target[i]] for i in range(d)]
    m, pivots, den = _echelon(aug, True)
    if n in pivots:
        return None
    x = [ZERO] * n
    for r_i, pc in enumerate(pivots):
        x[pc] = Fraction(m[r_i][n], den)
    return x


def in_linear_hull(v: Point, points) -> bool:
    """True iff v lies in the linear span of the given points."""
    points = list(points)
    if not points:
        return is_zero(v)
    return solve_columns(points, v) is not None


def _int_dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


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
    Coefficients and witness coordinates are Fractions, also for int input.

    Phase-1 simplex (minimise the sum of artificial variables) with Bland's
    rule, so it terminates even on degenerate inputs.  The basis matrix
    starts as the identity and every pivot is on a nonzero entry, so it
    stays nonsingular: the columns in the support of lam are basic, hence
    independent.

    The tableau holds only ints (Edmonds 1967).  Column j is scaled by c_j,
    the lcm of its denominators, and the target by s, the lcm of its own.
    The reduced-cost row R is row d of the tableau, which is D (``den``)
    times the rational one, D being the last pivot (initially 1): each pivot
    is one ``_pivot`` over rows 0..d, whose division is exact (D times a
    rational tableau entry is a minor of the scaled matrix).  Bland's ratio
    test pivots only on positive entries, so D stays positive and every
    sign, and every ratio compared by cross-multiplication, is that of the
    rational tableau.  The scaling multiplies tableau entry (i, j) by
    c_j / c_basis[i] (an artificial column has scale 1), R_j by c_j, and
    every ratio of one test by s / c_e, so the signs of R and the argmin of
    each ratio test, hence the pivots, the final basis, lam and the dual y,
    are those of the unscaled problem: lam_j = rhs_i c_j / (D s) for
    basis[i] = j, and y_i = (D - R_{n+i}) / D.
    """
    d = len(target)
    n = len(cols)
    for c in cols:
        if len(c) != d:
            raise DimensionMismatch("column/target length mismatch")
    if d == 0:
        return Feasible((ZERO,) * n)

    # column j times c_j, and the target times s, as ints
    scales = [math.lcm(*(x.denominator for x in c)) for c in cols]
    ints = [[x.numerator * (cj // x.denominator) for x in c] for c, cj in zip(cols, scales)]
    s = math.lcm(*(x.denominator for x in target))
    goal = [x.numerator * (s // x.denominator) for x in target]
    sgn = [1 if x >= 0 else -1 for x in goal]
    # rows 0..d-1: structural columns, artificial columns, right-hand side
    tab = []
    for i in range(d):
        row = [sgn[i] * col[i] for col in ints] + [0] * (d + 1)
        row[n + i] = 1
        row[-1] = sgn[i] * goal[i]
        tab.append(row)
    basis = list(range(n, n + d))
    # row d: reduced costs for cost vector (0,...,0,1,...,1), current basis
    # all-artificial; the last entry is minus the phase-1 objective
    red = [-sum(col) for col in zip(*tab)]
    red[n : n + d] = [0] * d
    tab.append(red)
    den = 1

    while True:
        enter = next((j for j in range(n + d) if tab[d][j] < 0), None)
        if enter is None:
            break
        li = None
        for i in range(d):
            a = tab[i][enter]
            if a > 0:
                if li is None:
                    li, num, piv = i, tab[i][-1], a
                    continue
                # compare (rhs_i / a, basis[i]) with (num / piv, basis[li])
                lhs, rhs = tab[i][-1] * piv, num * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[li]):
                    li, num, piv = i, tab[i][-1], a
        if li is None:
            raise AssertionError("phase-1 objective unbounded")  # pragma: no cover
        den = _pivot(tab, li, enter, den, range(d + 1))
        basis[li] = enter
    red = tab[d]

    # Both checks are exact on the scaled ints: sum lam_j cols[j] = target
    # times D s reads sum x_j ints[j] = D goal with x_j = rhs_i for
    # basis[i] = j, and <w, .> keeps its sign under positive scaling.
    if red[-1] == 0:
        x = [0] * n
        for i, j in enumerate(basis):
            if j < n:
                x[j] = tab[i][-1]
        acc = [sum(xj * col[k] for xj, col in zip(x, ints)) for k in range(d)]
        if acc != [den * g for g in goal] or any(xj < 0 for xj in x):
            raise AssertionError("simplex produced an invalid solution")  # pragma: no cover
        return Feasible(tuple(Fraction(xj * cj, den * s) for xj, cj in zip(x, scales)))

    w = integer_ray([sgn[i] * (den - red[n + i]) for i in range(d)])
    if any(_int_dot(w, col) > 0 for col in ints) or _int_dot(w, goal) <= 0:
        raise AssertionError("simplex produced an invalid Farkas witness")  # pragma: no cover
    return Infeasible(tuple(map(Fraction, w)))
