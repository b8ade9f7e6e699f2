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
from operator import mul

from .caratheodory import cone_caratheodory
from .cones import SpanCertificate, require_spanning, spanning, spans_space
from .errors import DimensionMismatch, RecursionInvariantViolation
from .ratlin import integer_line, integer_ray, neg, null_space, rank


def _minor_plan(d):
    """Laplace expansion along the last row, for sizes s = 2..d-1.

    Level s lists, for each s-subset T of the d columns in ``combinations``
    order, the terms (sign, column, position of the (s-1)-subset T minus
    that column): the s-minor on T of rows r_1..r_s is the sum over terms
    of sign * r_s[column] * the (s-1)-minor of r_1..r_{s-1}.  The 1-minors
    of one row are its entries.
    """
    plan = []
    for s in range(2, d):
        prev = {c: i for i, c in enumerate(combinations(range(d), s - 1))}
        plan.append([
            [((-1) ** (s - 1 + i), c, prev[cols[:i] + cols[i + 1 :]]) for i, c in enumerate(cols)]
            for cols in combinations(range(d), s)
        ])
    return plan


def _hull_normals(lines, d, plan):
    """Integer vectors spanning the orthogonal complement of span(lines).

    d-1 independent lines have one normal, their signed (d-1)-minors (the
    generalised cross product), returned as computed: it is not made
    primitive, so equal hulls can have different normals.  Otherwise the
    exact null space basis, which is canonical.
    """
    if len(lines) == d - 1:
        minors = lines[0]
        for row, level in zip(lines[1:], plan):
            new = []
            for terms in level:
                acc = 0
                for sign, c, i in terms:
                    acc += sign * row[c] * minors[i]
                new.append(acc)
            minors = new
        # the (d-1)-subsets run from the one missing column d-1 to the one
        # missing column 0; cofactor j is (-1)^j times the minor missing j
        normal = tuple((-1) ** j * minors[d - 1 - j] for j in range(d))
        if any(normal):
            return (normal,)
    return tuple(tuple(int(x) for x in b) for b in null_space(lines))


def generic_direction(points):
    """A direction v outside the linear hull of every <= d-1 input points.

    Returns v = (1, t, t^2, ..., t^{d-1}) as Fractions for the least integer
    t >= 1 such that v lies in the linear span of no min(d-1, n) of the n
    input points.  Each hull is described once: points become primitive
    integer lines, every min(d-1, L) of the L distinct nonzero lines span
    one hull (zero points, repeats and antipodes add nothing), and hulls
    with identical tuples of integer normals are merged.  v(t) is in a hull
    iff every normal n of it has n . v(t) = 0, an integer test.

    Walk bound: n . v(t) is a nonzero polynomial of degree <= d-1 in t, so
    each of the H distinct normal tuples (at least the number of distinct
    hulls, since a hull's cross-product normal is not made primitive) rules
    out at most d-1 values of t, and some t <= (d-1)*H + 1 is accepted.
    Passing that bound raises RecursionInvariantViolation.
    """
    points = list(points)
    if not points:
        raise ValueError("generic_direction needs at least one point")
    d = len(points[0])
    for p in points:
        if len(p) != d:
            raise DimensionMismatch(f"point of length {len(p)} among points of length {d}")
    lines = set(map(integer_line, points)) - {None}
    k = min(d - 1, len(lines))
    # the zero hull (k == 0) contains no v(t), whose first coordinate is 1
    plan = _minor_plan(d)
    hulls = {_hull_normals(s, d, plan) for s in combinations(lines, k)} if k else set()
    for t in range(1, (d - 1) * len(hulls) + 2):
        powers = [t**i for i in range(d)]
        for normals in hulls:
            for n in normals:
                if sum(map(mul, n, powers)):
                    break  # v(t) is off this hull
            else:
                break  # v(t) is orthogonal to every normal: in this hull
        else:
            return tuple(Fraction(x) for x in powers)
    raise RecursionInvariantViolation("moment-curve walk passed its bound")


@dataclass(frozen=True)
class ReducedSet:
    indices: tuple  # sorted positions into the input list
    certificate: SpanCertificate  # over the selected points, in index order


@dataclass(frozen=True)
class BasisCaseWitness:
    basis: tuple  # d linearly independent primitive rays e_1..e_d


def steinitz_reduce(points) -> ReducedSet:
    """Spanning subset of size <= 2d, via two one-sided reductions."""
    points = [tuple(p) for p in points]
    require_spanning(points)
    v = generic_direction(points)
    idx_pos, _ = cone_caratheodory(v, points)
    idx_neg, _ = cone_caratheodory(neg(v), points)
    indices = tuple(sorted(set(idx_pos) | set(idx_neg)))
    chosen = tuple(points[i] for i in indices)
    cert = spans_space(chosen)
    if not isinstance(cert, SpanCertificate):  # pragma: no cover
        raise RecursionInvariantViolation("two-sided reduction failed to span")
    return ReducedSet(indices, cert)


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
    if len(reps) != d or rank(reps) != d:
        return None
    return tuple(tuple(map(Fraction, r)) for r in reps)


def refine_below_2d(points):
    """Either a spanning subset with <= 2d-1 points or a BasisCaseWitness.

    Search runs over distinct rays, smallest subset sizes first (d+1 up to
    2d-1), in lexicographic index order, so the result is deterministic.
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
    for size in range(d + 1, 2 * d):
        for combo in combinations(rays, size):
            if spanning(tuple(r for r, _ in combo)):
                indices = tuple(i for _, i in combo)
                return ReducedSet(indices, spans_space(tuple(points[i] for i in indices)))
    raise RecursionInvariantViolation(
        "no small spanning subset although the input is not a plus-minus basis"
    )  # pragma: no cover
