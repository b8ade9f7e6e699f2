"""Colour systems of 2d point sets: transversal construction and the
classification of systems that admit no small spanning partial transversal.

A full spanning transversal always exists (one point per colour); it is
built by two colorful pivots along a generic direction.  The classifier
decides whether a system is the plus-minus-basis case (BCase) or the
positive-basis/antipodal-simplex case (PCase) by exact ray-set tests; in every
other case an exhaustive scan returns a smallest spanning partial transversal,
which by the colourful Steinitz characterisation uses at most 2d-1 colours.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .caratheodory import colorful_cone_caratheodory
from .cones import (
    SpanCertificate,
    integer_rays,
    require_spanning,
    spanning,
    spanning_picks,
    spans_space,
)
from .errors import (
    DimensionMismatch,
    RecursionInvariantViolation,
    ZeroPoint,
)
from .ratlin import is_zero, neg, same_ray
from .steinitz import basis_case, generic_direction


@dataclass(frozen=True)
class ColourSystem:
    """Ordered family of 2*dim finite nonempty point sets."""

    dim: int
    sets: tuple  # tuple of tuples of points

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be at least 1")
        sets = tuple(tuple(tuple(p) for p in s) for s in self.sets)
        object.__setattr__(self, "sets", sets)
        if len(sets) != 2 * self.dim:
            raise ValueError(f"expected {2 * self.dim} colour sets, got {len(sets)}")
        for i, s in enumerate(sets):
            if not s:
                raise ValueError(f"colour set {i} is empty")
            for j, p in enumerate(s):
                if len(p) != self.dim:
                    raise DimensionMismatch(f"point {j} of set {i} has wrong dimension")
                if is_zero(p):
                    raise ZeroPoint(f"zero point at set {i} index {j}")

    @cached_property
    def rays(self):
        """Per colour set, the tuple of its points' ratlin.integer_ray.

        Every decision on a system is invariant under positive rescaling, so
        scans ask spanning() about these int tuples, which hash cheaply.
        Computed on first use and kept in the instance __dict__, which
        pickles with it; == and hash look only at dim and sets.
        """
        return tuple(map(integer_rays, self.sets))

    def check_spanning(self):
        for i, (s, r) in enumerate(zip(self.sets, self.rays)):
            require_spanning(s, colour=i, rays=r)


@dataclass(frozen=True)
class Transversal:
    """Partial or full selection of one point per chosen colour."""

    picks: tuple  # ((colour, element index), ...), colours strictly increasing

    def __post_init__(self):
        picks = tuple(tuple(p) for p in self.picks)
        object.__setattr__(self, "picks", picks)
        if any(a[0] >= b[0] for a, b in zip(picks, picks[1:])):
            raise ValueError("transversal colours must be strictly increasing")

    def points(self, system: ColourSystem):
        return tuple(system.sets[c][e] for c, e in self.picks)

    def size(self) -> int:
        return len(self.picks)


@dataclass(frozen=True)
class PSetResult:
    v: tuple
    members: frozenset  # colours whose set contains the ray -v


def p_set(v, system: ColourSystem) -> PSetResult:
    """Colours j whose set contains -v, up to positive rescaling."""
    if is_zero(v):
        raise ZeroPoint("p_set target must be nonzero")
    nv = neg(tuple(v))
    members = frozenset(
        j
        for j, s in enumerate(system.sets)
        if any(same_ray(nv, x) for x in s)
    )
    return PSetResult(tuple(v), members)


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class BCase:
    basis: tuple  # d independent primitive rays; every set is {+-e_1..+-e_d}


@dataclass(frozen=True)
class PCase:
    points: tuple  # the d+1 rays of the positive basis F
    plus_colours: tuple  # colours whose ray set equals F
    minus_colours: tuple  # colours whose ray set equals -F


@dataclass(frozen=True)
class Neither:
    witness: Transversal  # spanning partial transversal, <= 2d-1 picks
    certificate: SpanCertificate


def structural_bcase(system: ColourSystem):
    d = system.dim
    first = frozenset(system.rays[0])
    if len(first) != 2 * d:
        return None
    if any(frozenset(r) != first for r in system.rays[1:]):
        return None
    basis = basis_case(sorted(first))
    return None if basis is None else BCase(basis)


def structural_pcase(system: ColourSystem):
    d = system.dim
    ray_sets = [frozenset(r) for r in system.rays]
    distinct = []
    for rs in ray_sets:
        if rs not in distinct:
            distinct.append(rs)
    if len(distinct) != 2:
        return None
    f_set = distinct[0]
    g_set = distinct[1]
    if frozenset(neg(r) for r in f_set) != g_set:
        return None
    plus = tuple(i for i, rs in enumerate(ray_sets) if rs == f_set)
    minus = tuple(i for i, rs in enumerate(ray_sets) if rs == g_set)
    if len(plus) != d or len(minus) != d:
        return None
    if len(f_set) != d + 1 or not spanning(f_set):
        return None
    points = tuple(tuple(map(Fraction, r)) for r in sorted(f_set))
    return PCase(points, plus, minus)


# ---------------------------------------------------------------------------
# transversal construction (always succeeds on spanning systems)


def colorful_transversal(system: ColourSystem):
    """Full transversal T with pos T = R^d, plus its span certificate.

    Split the colours into the first d and the rest, pick a direction v
    generic for the union, and run the colorful pivot for v on the first
    half and for -v on the second.
    """
    tv, cert, _, _ = _pivoted_transversal(system)
    return tv, cert


def _pivoted_transversal(system: ColourSystem):
    """colorful_transversal's (T, certificate), then the ColorfulResults of
    the v and -v pivots that chose T."""
    system.check_spanning()
    d = system.dim
    union = [p for s in system.sets for p in s]
    v = generic_direction(union)

    first = colorful_cone_caratheodory(v, [system.sets[i] for i in range(d)])
    second = colorful_cone_caratheodory(neg(v), [system.sets[d + i] for i in range(d)])
    picks = list(first.picks) + [(d + c, e) for c, e in second.picks]
    tv = Transversal(picks)
    cert = spans_space(tv.points(system))
    if not isinstance(cert, SpanCertificate):  # pragma: no cover
        raise RecursionInvariantViolation("two-sided colorful pivot failed to span")
    return tv, cert, first, second


# ---------------------------------------------------------------------------
# small spanning partial transversals


def find_small_transversal(system: ColourSystem):
    """Neither with the first spanning partial transversal of <= 2d-1 picks,
    or None when there is none.

    Checks that every colour spans, then takes the first pick of
    ``cones.spanning_picks`` of sizes d+1..2d-1 (fewer than d+1 points never
    span), a smallest one, or raises BudgetExceeded past its default budget.
    By the colourful Steinitz characterisation the scan finds nothing
    exactly on BCase and PCase.
    """
    system.check_spanning()
    d = system.dim
    pick = next(spanning_picks(system.rays, range(d + 1, 2 * d)), None)
    if pick is None:
        return None
    tv = Transversal(tuple(zip(*pick)))
    return Neither(tv, spans_space(tv.points(system)))


def classify(system: ColourSystem):
    """BCase, PCase, or Neither with a small spanning partial transversal.

    Each structural test implies that every colour spans, so only the scan
    runs check_spanning; a system that is not spanning fails both tests and
    gets NotSpanning from it, or BudgetExceeded on a scan that is too long.
    """
    res = structural_bcase(system) or structural_pcase(system) or find_small_transversal(system)
    if res is None:
        raise RecursionInvariantViolation(
            "no small transversal although the system is neither BCase nor PCase"
        )
    return res
