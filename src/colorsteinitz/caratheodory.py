"""Cone Caratheodory reduction and its colorful version.

Both are terminating algorithms that return certificates: the plain version
reduces a conic representation to a basic one (at most d generators, linearly
independent support), the colorful version runs the distance-decreasing pivot
over transversals of d point sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cones import ConicCertificate, FarkasWitness, nearest_cone_point, pos_membership
from .errors import NotInCone, PreconditionFailed, RecursionInvariantViolation, ZeroPoint
from .ratlin import dot, is_zero, sub


def cone_caratheodory(v, points):
    """Subset B of points with v in pos B, |B| <= d, all coefficients > 0.

    Returns (indices, ConicCertificate); indices are sorted positions into
    ``points`` and equal the certificate's generator indices.  Raises
    NotInCone with a Farkas witness when v is outside the positive hull.
    """
    if is_zero(v):
        raise ZeroPoint("target must be nonzero")
    res = pos_membership(v, list(points))
    if isinstance(res, FarkasWitness):
        raise NotInCone(res)
    return list(res.generator_indices), res


@dataclass(frozen=True)
class PivotStep:
    colour: int
    entering_index: int
    sqdist: Fraction


@dataclass(frozen=True)
class ColorfulResult:
    picks: tuple  # ((colour, element index), ...) one per colour
    certificate: ConicCertificate  # indices refer to pick positions
    initial_sqdist: Fraction
    trace: tuple  # PivotStep per pivot, sqdist strictly decreasing to 0


def colorful_cone_caratheodory(v, sets) -> ColorfulResult:
    """Transversal T (one point per set) with v in pos T.

    Requires len(sets) == d and v in pos A_i for every set A_i (checked;
    PreconditionFailed carries the failing colour and witness).  Pivot rule:
    start from the lexicographically first transversal; while the exact
    squared distance from v to pos T is positive, swap the lowest-index
    colour absent from the nearest point's support for its set's lowest-index
    point on the far side of the separating hyperplane.
    """
    if is_zero(v):
        raise ZeroPoint("target must be nonzero")
    d = len(v)
    m = len(sets)
    if m != d:
        raise ValueError(f"expected {d} colour sets, got {m}")
    for i, a_set in enumerate(sets):
        res = pos_membership(v, list(a_set))
        if isinstance(res, FarkasWitness):
            raise PreconditionFailed(i, res)

    cur = [0] * m

    def pts():
        return [sets[i][cur[i]] for i in range(m)]

    near = nearest_cone_point(v, pts())
    initial = near.sqdist
    trace = []
    while near.sqdist != 0:
        w = sub(v, near.point)
        # some colour is outside the support: a support of all d colours
        # passes only on independent rays, and then v = P, sqdist 0
        colour = next(i for i in range(m) if i not in near.support)
        enter = next(
            (e for e, a in enumerate(sets[colour]) if dot(w, a) > 0),
            None,
        )
        if enter is None:  # pragma: no cover - impossible when v in pos A_colour
            raise RecursionInvariantViolation("no entering point on the far side")
        cur[colour] = enter
        new_near = nearest_cone_point(v, pts())
        if not new_near.sqdist < near.sqdist:  # pragma: no cover
            raise RecursionInvariantViolation("pivot failed to decrease the distance")
        near = new_near
        trace.append(PivotStep(colour, enter, near.sqdist))

    cert = pos_membership(v, pts())
    if not isinstance(cert, ConicCertificate):  # pragma: no cover
        raise RecursionInvariantViolation("zero distance but membership LP failed")
    picks = tuple((i, cur[i]) for i in range(m))
    return ColorfulResult(picks, cert, initial, tuple(trace))
