"""Reduction of a spanning set to at most 2d generators, and below.

The two-sided Caratheodory construction: pick a direction v in no linear
hull of d-1 or fewer input points, reduce v and -v separately, and take the
union.  The refinement step finds a spanning subset of size <= 2d-1 whenever
the input is not (at ray level) a plus-minus basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from operator import mul

from .caratheodory import cone_caratheodory
from .cones import (
    _DIRECTIONS,
    _REDUCED,
    SpanCertificate,
    _remember,
    require_spanning,
    spanning_picks,
    spans_space,
)
from .errors import DimensionMismatch, RecursionInvariantViolation
from .ratlin import _null_basis, integer_line, integer_ray, neg, rank


def _hull_test(lines, d):
    """Predicate on integer vectors v with first entry 1: does v lie in the
    linear span of some min(d-1, L) of the L distinct integer lines?

    If the lines do not span R^d, one such hull is span(lines), which holds
    the others, so v is tested against the lines' ``_null_basis``.  If they
    do, v lies in the span of d-1 lines iff v is a line or two
    (d-2)-subsets T1, T2 with span T1 != span T2 span one hyperplane
    together with v.  (Such v lies in the span of d-1 independent lines S;
    if v uses two of them, dropping either one leaves such a pair with
    hyperplane span S, and if it uses one, v is that line.  Conversely such
    a pair has rank d-1 in the hyperplane, which then is its span and holds
    v.)  An independent T, with null basis n1, n2, is keyed by the integer
    line of (n2.v) n1 - (n1.v) n2: the normal of span(T, v), zero iff v is
    in span T.  A dependent T is skipped.  The first T per key is kept, and
    a later T2 differs from it in span iff n.x != 0 for an n of its pair
    and an x in T2.
    """
    if d == 1 or not lines:
        return lambda v: False  # the zero hull holds no v, whose v[0] is 1
    rows = list(lines)
    normals = _null_basis(rows, d)
    if normals:
        return lambda v: not any(sum(map(mul, n, v)) for n in normals)
    pairs = []
    for subset in combinations(rows, d - 2):
        pair = _null_basis(subset, d)
        if len(pair) == 2:
            pairs.append((subset, pair))

    def in_some_hull(v):
        if v in lines:
            return True
        first = {}
        for subset, pair in pairs:
            n1, n2 = pair
            a, b = sum(map(mul, n1, v)), sum(map(mul, n2, v))
            key = integer_line([b * x - a * y for x, y in zip(n1, n2)])
            if key is None:
                continue  # v is in span(subset)
            seen = first.setdefault(key, pair)
            if seen is not pair and any(sum(map(mul, n, x)) for n in seen for x in subset):
                return True
        return False

    return in_some_hull


def generic_direction(points):
    """A direction v outside the linear hull of every <= d-1 input points.

    Returns v = (1, t, t^2, ..., t^{d-1}) as Fractions for the least integer
    t >= 1 such that v lies in the linear span of no min(d-1, n) of the n
    input points.  Points become primitive integer lines (zero points,
    repeats and antipodes add nothing), and each v(t) in turn is tested by
    ``_hull_test``, on integers: against span(lines) when the L lines do
    not span R^d, else against the lines and the C(L, d-2) hyperplanes that
    (d-2)-subsets of them span together with v(t).

    Walk bound: each hull of k = min(d-1, L) lines lies in a hyperplane,
    whose normal n makes n . v(t) a nonzero polynomial of degree <= d-1 in
    t, so the C(L, k) hulls rule out at most (d-1)*C(L, k) values of t and
    some t <= (d-1)*C(L, k) + 1 is accepted.  Passing that bound raises
    RecursionInvariantViolation.

    v depends only on d and the set of lines, so it is memoised in
    ``cones._DIRECTIONS`` under that key: a colour system's union,
    ``steinitz_reduce`` and ``refine_below_2d`` on the same points walk once.
    """
    points = list(points)
    if not points:
        raise ValueError("generic_direction needs at least one point")
    d = len(points[0])
    for p in points:
        if len(p) != d:
            raise DimensionMismatch(f"point of length {len(p)} among points of length {d}")
    lines = frozenset(map(integer_line, points)) - {None}
    key = (d, lines)
    hit = _DIRECTIONS.get(key)
    if hit is not None:
        return hit
    in_some_hull = _hull_test(lines, d)
    for t in range(1, (d - 1) * comb(len(lines), min(d - 1, len(lines))) + 2):
        v = tuple(t**i for i in range(d))
        if not in_some_hull(v):
            return _remember(_DIRECTIONS, key, tuple(map(Fraction, v)))
    raise RecursionInvariantViolation("moment-curve walk passed its bound")


@dataclass(frozen=True)
class ReducedSet:
    indices: tuple  # sorted positions into the input list
    certificate: SpanCertificate  # over the selected points, in index order


@dataclass(frozen=True)
class BasisCaseWitness:
    basis: tuple  # d linearly independent primitive rays e_1..e_d


def steinitz_reduce(points) -> ReducedSet:
    """Spanning subset of size <= 2d, via two one-sided reductions.

    The indices and the certificate refer to the exact input tuple, so the
    result is memoised in ``cones._REDUCED`` under that tuple (like
    ``spans_space``): a reordered input is reduced afresh.
    """
    points = tuple(tuple(p) for p in points)
    hit = _REDUCED.get(points)
    if hit is not None:
        return hit
    require_spanning(points)
    v = generic_direction(points)
    idx_pos, _ = cone_caratheodory(v, points)
    idx_neg, _ = cone_caratheodory(neg(v), points)
    indices = tuple(sorted(set(idx_pos) | set(idx_neg)))
    chosen = tuple(points[i] for i in indices)
    cert = spans_space(chosen)
    if not isinstance(cert, SpanCertificate):  # pragma: no cover
        raise RecursionInvariantViolation("two-sided reduction failed to span")
    return _remember(_REDUCED, points, ReducedSet(indices, cert))


def _distinct_rays(points):
    """{integer ray: index of its first occurrence}, in first-occurrence order."""
    first = {}
    for i, p in enumerate(points):
        first.setdefault(integer_ray(p), i)
    return first


def basis_case(points):
    """The d primitive basis rays if the rays of points are exactly +-e_1..+-e_d.

    Returns None otherwise.  Duplicate points and positive rescalings are
    identified: the test runs at ray level.  Raises ValueError on an empty
    list.
    """
    points = [tuple(p) for p in points]
    if not points:
        raise ValueError("point list must be nonempty")
    d = len(points[0])
    rays = list(_distinct_rays(points))
    if len(rays) != 2 * d:
        return None
    ray_set = set(rays)
    if any(neg(r) not in ray_set for r in rays):
        return None
    reps = []
    for r in rays:
        if neg(r) not in reps:
            reps.append(r)
    if rank(reps) != d:
        return None
    return tuple(tuple(map(Fraction, r)) for r in reps)


def refine_below_2d(points):
    """Either a spanning subset with <= 2d-1 points or a BasisCaseWitness.

    Starts from ``steinitz_reduce(points)``, which a caller that reduced
    the same tuple gets from its memo.  Else, past the basis case, returns
    the first subset of the distinct rays (sizes d+1 to 2d-1, by first
    occurrence) that ``cones.spanning_picks`` yields, so the result is
    deterministic, or raises BudgetExceeded past its default budget.
    """
    points = [tuple(p) for p in points]
    reduced = steinitz_reduce(points)
    d = len(points[0])
    if len(reduced.indices) <= 2 * d - 1:
        return reduced

    basis = basis_case(points)
    if basis is not None:
        return BasisCaseWitness(basis)

    rays = list(_distinct_rays(points).items())
    pick = next(spanning_picks([(r,) for r, _ in rays], range(d + 1, 2 * d)), None)
    if pick is not None:
        indices = tuple(rays[j][1] for j in pick[0])
        return ReducedSet(indices, spans_space(tuple(points[i] for i in indices)))
    raise RecursionInvariantViolation(
        "no small spanning subset although the input is not a plus-minus basis"
    )  # pragma: no cover
