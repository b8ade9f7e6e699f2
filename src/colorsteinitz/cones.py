"""Conic predicates and certificates.

Membership in a finitely generated cone, the "positively spans the whole
space" test, exact nearest point on a cone, and separating witnesses.  All
answers come with machine-checkable certificates over exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch, NotSpanning, RecursionInvariantViolation, ZeroPoint
from .ratlin import (
    Feasible,
    Point,
    add,
    dot,
    integer_ray,
    is_zero,
    lp_feasibility,
    neg,
    null_space,
    rank,
    scale,
    solve_columns,
    sub,
    unit,
    zero_point,
)


@dataclass(frozen=True)
class ConicCertificate:
    """Witness that target = sum of coefficients * generators, coefficients >= 0.

    generator_indices point into whatever generator list the certificate was
    issued against; only strictly positive coefficients are recorded.
    """

    generator_indices: tuple
    coefficients: tuple
    target: Point

    def verify(self, generators) -> bool:
        if len(self.generator_indices) != len(self.coefficients):
            return False
        if len(set(self.generator_indices)) != len(self.generator_indices):
            return False
        acc = zero_point(len(self.target))
        for i, c in zip(self.generator_indices, self.coefficients):
            if c < 0 or not 0 <= i < len(generators):
                return False
            acc = add(acc, scale(c, generators[i]))
        return acc == tuple(self.target)


@dataclass(frozen=True)
class FarkasWitness:
    """Direction w with <w, a> <= 0 for every refuted generator, <w, target> > 0."""

    w: Point
    target: Point = None

    def verify(self, generators, target=None) -> bool:
        if target is None:
            target = self.target
        if any(dot(self.w, a) > 0 for a in generators):
            return False
        return target is None or dot(self.w, target) > 0


@dataclass(frozen=True)
class SpanCertificate:
    """Per-direction conic certificates for +e_1..+e_d, -e_1..-e_d."""

    dim: int
    certificates: tuple  # tuple of (direction point, ConicCertificate)

    def verify(self, generators) -> bool:
        d = self.dim
        want = [unit(d, i) for i in range(d)] + [unit(d, i, -1) for i in range(d)]
        dirs = [direction for direction, _ in self.certificates]
        if dirs != want:
            return False
        return all(
            cert.target == direction and cert.verify(generators)
            for direction, cert in self.certificates
        )


@dataclass(frozen=True)
class NearestPoint:
    point: Point
    support: tuple  # indices into the generator list, inclusion-minimal
    sqdist: Fraction


def _check_dims(points, d):
    for p in points:
        if len(p) != d:
            raise DimensionMismatch(f"expected dimension {d}, got {len(p)}")


def pos_membership(v: Point, generators):
    """Decide v in pos(generators); returns ConicCertificate or FarkasWitness."""
    if is_zero(v):
        raise ZeroPoint("membership target must be nonzero")
    if not generators:
        raise ValueError("generator list must be nonempty")
    _check_dims(generators, len(v))
    res = lp_feasibility(list(generators), v)
    if isinstance(res, Feasible):
        idx = tuple(j for j, c in enumerate(res.coefficients) if c != 0)
        coeffs = tuple(res.coefficients[j] for j in idx)
        return ConicCertificate(idx, coeffs, tuple(v))
    return FarkasWitness(res.witness, tuple(v))


# Process-wide memos; the functions are pure and the exhaustive d=2 sweeps
# ask about the same few generator sets millions of times.
# - _SPAN_BOOL: the yes/no answer of spanning(), keyed on the frozenset of the
#   generators, because a positive hull depends neither on order nor on
#   repetition.  Scans over a colour system ask about integer_ray() tuples,
#   which hash cheaply and equal the primitive Fraction rays, so both kinds of
#   key share entries.
# - _SPAN_CACHE: the result of spans_space(), keyed on the exact input tuple,
#   since a certificate indexes into that tuple.
# - _RAY_SETS: integer_rays() of a point tuple, keyed on that tuple; the d=2
#   sweep builds its systems from a few dozen shared colour sets.
# Each holds at most _MEMO_LIMIT entries: _remember() drops the oldest entry
# (dicts keep insertion order) before adding one to a full memo.  The limit
# is about six times the most keys a 20 s benchmark run stores (about 40k in
# _SPAN_BOOL on random d=3/4 systems), so no run evicts; at a few hundred
# bytes an entry a full memo stays near 100 MB.
_MEMO_LIMIT = 1 << 18
_SPAN_CACHE = {}
_SPAN_BOOL = {}
_RAY_SETS = {}
_MEMOS = (_SPAN_CACHE, _SPAN_BOOL, _RAY_SETS)


def _remember(memo, key, value):
    if len(memo) >= _MEMO_LIMIT:
        del memo[next(iter(memo))]
    memo[key] = value
    return value


def clear_span_cache():
    for memo in _MEMOS:
        memo.clear()


def integer_rays(points) -> tuple:
    """The integer_ray() of each point of a tuple of points, memoised."""
    rays = _RAY_SETS.get(points)
    if rays is None:
        rays = _remember(_RAY_SETS, points, tuple(map(integer_ray, points)))
    return rays


def spans_space(generators):
    """Decide pos(generators) = R^d.

    Returns a SpanCertificate (conic certificates for every +-e_i) or a
    FarkasWitness whose closed halfspace {x : <w, x> <= 0} contains every
    generator.
    """
    generators = tuple(tuple(g) for g in generators)
    cached = _SPAN_CACHE.get(generators)
    if cached is not None:
        return cached
    if not generators:
        raise ValueError("generator list must be nonempty")
    d = len(generators[0])
    _check_dims(generators, d)

    normals = null_space(list(generators))
    if normals:
        w = normals[0]
        axis = next(i for i in range(d) if w[i] != 0)
        target = unit(d, axis, 1 if w[axis] > 0 else -1)
        result = FarkasWitness(w, target)
    else:
        certs = []
        result = None
        for direction in [unit(d, i) for i in range(d)] + [unit(d, i, -1) for i in range(d)]:
            res = pos_membership(direction, generators)
            if isinstance(res, FarkasWitness):
                result = res
                break
            certs.append((direction, res))
        if result is None:
            result = SpanCertificate(d, tuple(certs))
    return _remember(_SPAN_CACHE, generators, result)


def spanning(generators) -> bool:
    """Decide pos(generators) = R^d with one rank test and at most one LP.

    pos T = R^d iff rank T = d and T has a strictly positive linear
    dependence (Gordan; Davis 1954).  The LP asks whether -sum(T) lies in
    pos T: if -sum(T) = sum mu_j t_j with mu >= 0, then lambda = mu + 1 is a
    strictly positive dependence; conversely, if T spans, every target, this
    one included, lies in pos T.  When sum(T) = 0 the dependence is all ones
    and no LP is needed.  Use spans_space() for a certificate either way.
    """
    key = frozenset(map(tuple, generators))
    hit = _SPAN_BOOL.get(key)
    if hit is None:
        if not key:
            raise ValueError("generator list must be nonempty")
        points = sorted(key)
        d = len(points[0])
        hit = rank(points) == d  # rank() raises DimensionMismatch on mixed dimensions
        if hit:
            total = tuple(sum(c, Fraction(0)) for c in zip(*points))
            hit = is_zero(total) or isinstance(lp_feasibility(points, neg(total)), Feasible)
        _remember(_SPAN_BOOL, key, hit)
    return hit


def refute_spanning(generators) -> FarkasWitness:
    """The FarkasWitness of spans_space() for a set that spanning() rejects.

    Raises RecursionInvariantViolation if spans_space() certifies the set
    instead, since the two decisions must agree.
    """
    res = spans_space(generators)
    if not isinstance(res, FarkasWitness):
        raise RecursionInvariantViolation("spans_space certified a set that spanning rejected")
    return res


def require_spanning(generators, colour=None, rays=None):
    """Raise NotSpanning, with the refute_spanning() witness and the given
    colour, unless spanning(generators).  The decision is made on ``rays``
    (positive multiples of the generators) when they are given."""
    if not spanning(generators if rays is None else rays):
        raise NotSpanning(refute_spanning(generators), colour=colour)


def nearest_cone_point(v: Point, generators) -> NearestPoint:
    """Exact Euclidean-nearest point of pos(generators) to v.

    Enumerates linearly independent support subsets and keeps the one whose
    interior conic combination satisfies the exact optimality inequalities.
    Requires len(generators) <= d, which keeps the enumeration desk-scale.
    """
    d = len(v)
    _check_dims(generators, d)
    n = len(generators)
    if n > d:
        raise ValueError("nearest_cone_point expects a transversal-sized set (<= d points)")

    best = None
    for mask in range(1 << n):
        supp = tuple(i for i in range(n) if mask >> i & 1)
        pts = [generators[i] for i in supp]
        if pts and rank(pts) < len(pts):
            continue
        if supp:
            gram_cols = [tuple(dot(a, b) for a in pts) for b in pts]
            rhs = tuple(dot(a, v) for a in pts)
            lam = solve_columns(gram_cols, rhs)
            if lam is None or any(c <= 0 for c in lam):
                continue
            p = zero_point(d)
            for c, a in zip(lam, pts):
                p = add(p, scale(c, a))
        else:
            p = zero_point(d)
        w = sub(v, p)
        if any(dot(w, a) > 0 for a in generators):
            continue
        sq = dot(w, w)
        key = (sq, supp)
        if best is None or key < best[0]:
            best = (key, p)
    if best is None:  # pragma: no cover - projection always exists
        raise AssertionError("no KKT point found for cone projection")
    (sq, supp), p = best
    return NearestPoint(p, supp, sq)


def separating_witness(v: Point, p: Point) -> FarkasWitness:
    """w = v - p for a nearest cone point p != v; separates v from the cone."""
    if tuple(v) == tuple(p):
        raise ValueError("v lies on the cone; no separating witness exists")
    return FarkasWitness(sub(v, p), tuple(v))
