"""Conic predicates and certificates.

Membership in a finitely generated cone, the "positively spans the whole
space" test and the exact nearest point on a cone.  All answers come with
machine-checkable certificates over exact rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    NotSpanning,
    RecursionInvariantViolation,
    ZeroPoint,
)
from .ratlin import (
    Feasible,
    Point,
    _echelon,
    _int_dot,
    _null_basis,
    add,
    dot,
    integer_ray,
    is_zero,
    lp_feasibility,
    neg,
    null_space,
    rank,
    scale,
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
    """Nonzero direction w with <w, a> <= 0 for every refuted generator,
    <w, target> > 0."""

    w: Point
    target: Point = None

    def verify(self, generators, target=None) -> bool:
        if target is None:
            target = self.target
        if is_zero(self.w) or any(dot(self.w, a) > 0 for a in generators):
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


def pos_membership(v: Point, generators, *, ray=None):
    """Decide v in pos(generators); returns ConicCertificate or FarkasWitness.

    ``ray`` is set by spans_space() alone, from _dependence_rays(): then the
    solutions x >= 0 of sum x_j g_j = v form a ray, and the certificate is
    its one vertex, the basic solution the LP would return, with no LP.
    """
    if is_zero(v):
        raise ZeroPoint("membership target must be nonzero")
    if not generators:
        raise ValueError("generator list must be nonempty")
    _check_dims(generators, len(v))
    if ray is None:
        res = lp_feasibility(list(generators), v)
        if not isinstance(res, Feasible):
            return FarkasWitness(res.witness, tuple(v))
        coefficients = res.coefficients
    else:
        coefficients = _ray_vertex(*ray)
    idx = tuple(j for j, c in enumerate(coefficients) if c != 0)
    return ConicCertificate(idx, tuple(coefficients[j] for j in idx), tuple(v))


# Process-wide memos of pure functions.  The exhaustive d=2 sweeps ask about
# the same few generator sets millions of times, and the constructions ask
# about one colour system's union several times.
# - _SPAN_BOOL: the yes/no answer of spanning(), keyed on the frozenset of the
#   generators, because a positive hull depends neither on order nor on
#   repetition.  Scans over a colour system ask about integer_ray() tuples,
#   which hash cheaply and equal the primitive Fraction rays, so both kinds of
#   key share entries.
# - _SPAN_CACHE: the result of spans_space(), keyed on the exact input tuple,
#   since a certificate indexes into that tuple.
# - _RAY_SETS: integer_rays() of a point tuple, keyed on that tuple; the d=2
#   sweep builds its systems from a few dozen shared colour sets.  Its key
#   hashes Fraction points once per set and system, which is still cheaper
#   than recomputing the rays: without it perfbench's sweep_d2 solved about
#   18% fewer systems per second (12.4k -> 10.1k, medians of three
#   alternating 10 s runs on a 2-vCPU VM, Python 3.11).
# - _DIRECTIONS: steinitz.generic_direction()'s v, keyed on (d, frozenset of
#   the points' integer_line()s), which is all that v depends on, so a colour
#   system's union, steinitz_reduce() and refine_below_2d() share one walk.
#   Once v costs O(n*d) (a root bound instead of the walk), delete it.
# - _REDUCED: steinitz.steinitz_reduce()'s ReducedSet, keyed on the exact
#   point tuple, since its indices point into that tuple.
# Each holds at most _MEMO_LIMIT entries: _remember() drops the oldest entry
# (dicts keep insertion order) before adding one to a full memo.  The limit
# is about twice the most keys a 20 s benchmark run stores (about 7k
# classify systems of random d=3/4 sets, 17.5 _SPAN_BOOL keys each), so no
# run evicts.  It bounds entries, not bytes.  Measured with tracemalloc
# (Python 3.11) on generate_random unions: a _DIRECTIONS entry takes about
# 3.3 KB for a 30-point d=3 union and 6.0 KB for a 48-point d=4 union; a
# _REDUCED entry about 0.8 KB beside the points, 10 KB (d=3) and 18 KB (d=4)
# when it alone keeps them alive; _SPAN_BOOL and _SPAN_CACHE entries about
# 1.3 KB and 1.8-2.6 KB beside their points.  One perfbench construct system
# leaves 26 KB in all five memos at d=3 (22 KB before the last two) and
# 41 KB at d=4.  So the worst case is large: 2^18 distinct d=4 unions would
# keep about 1.6 GB in _DIRECTIONS and 4.8 GB in _REDUCED.  A long-running
# caller that reduces many distinct large sets should call
# clear_span_cache() between batches.
_MEMO_LIMIT = 1 << 18
_SPAN_CACHE = {}
_SPAN_BOOL = {}
_RAY_SETS = {}
_DIRECTIONS = {}
_REDUCED = {}
_MEMOS = (_SPAN_CACHE, _SPAN_BOOL, _RAY_SETS, _DIRECTIONS, _REDUCED)


def _remember(memo, key, value):
    if len(memo) >= _MEMO_LIMIT:
        del memo[next(iter(memo))]
    memo[key] = value
    return value


def clear_span_cache():
    """Empty every process-wide memo in _MEMOS, not only the span answers:
    also the integer rays, generic directions and reductions."""
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
    generator.  Below rank d the witness is a null_space() normal w, whose
    first nonzero entry is positive, with target +e at that entry.  At rank
    d, d + 1 generators with a strictly one-signed dependence get every
    certificate from one shared elimination (_dependence_rays()), with no
    LP.  Any other set runs one pos_membership() LP per direction, up to the
    first that fails.
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
        result = FarkasWitness(w, unit(d, axis))
    else:
        rays = _dependence_rays(generators, d) if len(generators) == d + 1 else None
        directions = [unit(d, i) for i in range(d)] + [unit(d, i, -1) for i in range(d)]
        certs = []
        result = None
        for direction, ray in zip(directions, rays or [None] * (2 * d)):
            res = pos_membership(direction, generators, ray=ray)
            if isinstance(res, FarkasWitness):
                result = res
                break
            certs.append((direction, res))
        if result is None:
            result = SpanCertificate(d, tuple(certs))
    return _remember(_SPAN_CACHE, generators, result)


def _one_signed(values) -> bool:
    """True iff every value is nonzero and all have one sign."""
    return all(x > 0 for x in values) or all(x < 0 for x in values)


def _dependence_rays(generators, d):
    """For d + 1 generators T of rank d: per direction +e_1..+e_d,
    -e_1..-e_d, the ints (a, lam, den) with lam > 0 and den > 0 such that
    the solutions of T x = direction are the line (a + t lam) / den, t real;
    None unless the dependence lam of T is strictly one-signed, that is,
    unless T spans.

    One reduced ``_echelon`` of the d x (2d + 1) matrix [T | I_d], read by
    ``_null_basis``.  Rank T = d puts every pivot in T, so the first null
    vector is the dependence, with the elimination's den at T's free column,
    and the one with den at column d + 1 + i is (-y, den e_i) with
    T y = den e_i.  Multiplying by the sign of den makes lam and den
    positive.  For each direction, {x >= 0 : T x = direction} is then a ray,
    and its one vertex is the basic solution that the LP returns.
    """
    n = d + 1
    rows = [[g[i] for g in generators] + [int(i == j) for j in range(d)] for i in range(d)]
    lam, *solutions = _null_basis(rows, n + d)
    lam = lam[:n]
    if not _one_signed(lam):
        return None
    s = 1 if lam[0] > 0 else -1  # the sign of den, which lam holds at its free column
    lam = [s * x for x in lam]
    den = s * solutions[0][n]
    plus = [[-s * x for x in u[:n]] for u in solutions]
    return [(a, lam, den) for a in plus] + [([-x for x in a], lam, den) for a in plus]


def _ray_vertex(a, lam, den) -> tuple:
    """The one vertex of the ray {x >= 0 : x = (a + t lam) / den, t real},
    for ints with lam > 0 and den > 0: t = -a_k / lam_k for the k that
    minimises a_j / lam_j, compared by cross-multiplication, so
    x_j = (a_j lam_k - a_k lam_j) / (den lam_k).  Only these coefficients
    become Fractions.
    """
    k = 0
    for j in range(1, len(a)):
        if a[j] * lam[k] < a[k] * lam[j]:
            k = j
    ak, lk = a[k], lam[k]
    q = den * lk
    return tuple(Fraction(aj * lk - ak * lj, q) for aj, lj in zip(a, lam))


def _gale_half_plane(columns, n) -> bool:
    """Decide pos T = R^d for n points, d < n <= d + 2, given as the d x n
    matrix ``columns``, by one integer ``_null_basis``.

    T spans iff rank T = d and a strictly positive vector lies in the null
    space of the matrix (Davis 1954).  Rank T < d iff the basis has more
    than n - d vectors.  With rank d it has k = n - d <= 2, and row i of
    this n x k basis is the Gale vector g_i of t_i (Gruenbaum, Convex
    Polytopes, 5.4), so a dependence N lam > 0 exists iff every g_i lies in
    the open half-plane {g : <lam, g> > 0}.  For k = 1 that reads: all g_i
    are nonzero and of one sign (_one_signed()).

    For k = 2, finitely many plane vectors lie in an open half-plane iff
    some g_j has every g_i strictly counterclockwise of it within pi,
    cross(g_j, g_i) > 0, or on its ray, cross = 0 and dot(g_j, g_i) > 0.
    If they lie in one, take g_j first in angular order from the
    half-plane's boundary.  Conversely, the g_i then lie in an angle below
    pi starting at g_j, and the half-plane centred on its bisector holds
    them all.  A zero g_i fails the test, as cross and dot with it are 0;
    rightly, since every dependence then vanishes at t_i.  Cross and dot
    are bilinear, so scaling every g_i by the basis's common factor den
    multiplies both by den^2 > 0: the sign of den does not matter.
    """
    basis = _null_basis(columns, n)
    if len(basis) > n - len(columns):
        return False
    if len(basis) == 1:
        return _one_signed(basis[0])
    gale = list(zip(*basis))
    return any(
        all(
            (cross := x * v - y * u) > 0 or (cross == 0 and x * u + y * v > 0)
            for u, v in gale
        )
        for x, y in gale
    )


def spanning(generators) -> bool:
    """Decide pos(generators) = R^d, by a sign test, the Gale vectors of at
    most d + 2 points, or one rank test and at most one LP.

    pos T = R^d iff rank T = d and T has a strictly positive linear
    dependence (Gordan; Davis 1954).  So T cannot span if some coordinate
    has one weak sign on all of T (T lies in a closed coordinate halfspace),
    or if |T| <= d.  When d < |T| <= d + 2 the dependences form a space of
    dimension |T| - d <= 2 if rank T = d, and _gale_half_plane() decides on
    ints whether it holds a strictly positive vector.  Otherwise the LP asks
    whether -sum(T) lies in pos T: if -sum(T) = sum mu_j t_j with mu >= 0,
    then lambda = mu + 1 is a strictly positive dependence; conversely, if T
    spans, every target, this one included, lies in pos T.  When sum(T) = 0
    the dependence is all ones and no LP is needed.  A miss on points with
    Fraction coordinates is decided on their integer_ray()s, which span
    alike.  Use spans_space() for a certificate either way.
    """
    key = frozenset(map(tuple, generators))
    hit = _SPAN_BOOL.get(key)
    if hit is None:
        if not key:
            raise ValueError("generator list must be nonempty")
        first = next(iter(key))
        if first and type(first[0]) is not int:  # Fractions sort and compare slowly
            points = sorted(set(map(integer_ray, key)))  # rays span alike
        else:
            points = sorted(key)
        n = len(points)
        d = len(points[0])
        _check_dims(points, d)  # before zip(), which would truncate ragged points
        columns = list(zip(*points))
        if any(min(c) >= 0 or max(c) <= 0 for c in columns) or n <= d:
            hit = False
        elif n <= d + 2:
            hit = _gale_half_plane(columns, n)
        else:
            hit = rank(points) == d
            if hit:
                total = tuple(map(sum, columns))  # stays int on integer rays
                hit = is_zero(total) or isinstance(lp_feasibility(points, neg(total)), Feasible)
        _remember(_SPAN_BOOL, key, hit)
    return hit


DEFAULT_BUDGET = 10_000_000


def spanning_picks(groups, sizes, budget=DEFAULT_BUDGET):
    """Yield (group indices, element indices) for every pick of one element
    from each of k groups that spans: k over ``sizes``, then the groups'
    combinations and the element choices in lexicographic order.  The
    package's one exhaustive spanning search.  Each spanning() check counts
    against ``budget``; the one past it raises BudgetExceeded instead.
    """
    used = 0
    for k in sizes:
        for chosen in combinations(range(len(groups)), k):
            members = [groups[g] for g in chosen]
            for elements in product(*(range(len(m)) for m in members)):
                used += 1
                if used > budget:
                    raise BudgetExceeded(f"scan budget of {budget} spanning checks exceeded")
                if spanning(tuple(m[e] for m, e in zip(members, elements))):
                    yield chosen, elements


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

    Walks the supports in lexicographic tuple order and returns the first
    whose solution lambda of the normal equations is strictly positive and
    whose residual W = v - P meets <W, r> <= 0 for every generator r.  Then
    P lies in the cone and, as W is orthogonal to P, <W, x - P> <= 0 for
    every x in it, so P is the projection.  That is unique, so every passing
    support gives the same point and sqdist, and the first one is the least
    passing support: the answer a minimum over (sqdist, support) would give.
    Requires len(generators) <= d, which keeps the 2^n supports desk-scale.

    The work is on ints: each generator becomes its integer_ray r_i, v is
    scaled by s, the lcm of its denominators, and each support solves the
    normal equations of the integer Gram matrix with one fraction-free
    ``_echelon``.  On independent rays the Gram submatrix is positive
    definite, so no rows swap and den, a leading principal minor of it
    (rows scaled by positive factors), is positive.  In reduced form
    lambda_i = m[i][k] / den, P = sum m[i][k] r_i is den times the scaled
    point and W = den s v - P is den times the scaled residual, so the tests
    read m[i][k] > 0 and <W, r> <= 0.  Dependent rays fail on their own:
    their Gram system is consistent, so its reduced form has a zero row,
    whose lambda reads 0.  The cone, its nearest point, the supports that
    pass and sqdist = <W, W> / (den s)^2 do not change under positive
    scaling of the generators, so the answer is that of the rational problem.
    """
    d = len(v)
    _check_dims(generators, d)
    n = len(generators)
    if n > d:
        raise ValueError("nearest_cone_point expects a transversal-sized set (<= d points)")

    rays = [integer_ray(g) for g in generators]
    s = math.lcm(*(x.denominator for x in v))
    vs = [x.numerator * (s // x.denominator) for x in v]
    gram = [[_int_dot(a, b) for b in rays] for a in rays]
    rhs = [_int_dot(a, vs) for a in rays]
    for supp in sorted(c for k in range(n + 1) for c in combinations(range(n), k)):
        m, _, den = _echelon([[gram[i][j] for j in supp] + [rhs[i]] for i in supp], True)
        lam = [row[-1] for row in m]
        if any(c <= 0 for c in lam):
            continue
        p = [sum(c * rays[i][x] for c, i in zip(lam, supp)) for x in range(d)]
        w = [den * a - b for a, b in zip(vs, p)]
        if all(_int_dot(w, r) <= 0 for r in rays):
            q = den * s
            sqdist = Fraction(_int_dot(w, w), q * q)
            return NearestPoint(tuple(Fraction(x, q) for x in p), supp, sqdist)
    raise AssertionError("no KKT point found for cone projection")  # pragma: no cover
