"""Colour systems of 2d point sets: transversal construction and the
classification of systems that admit no small spanning partial transversal.

A full spanning transversal always exists (one point per colour).  The
classifier decides whether a system is the plus-minus-basis case (BCase), the
positive-basis/antipodal-simplex case (PCase), or neither, in which case it
produces a spanning partial transversal using at most 2d-1 colours.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .caratheodory import colorful_cone_caratheodory
from .cones import SpanCertificate, refute_spanning, spanning, spans_space
from .errors import (
    DimensionMismatch,
    NotSpanning,
    RecursionInvariantViolation,
    ZeroPoint,
)
from .ratlin import (
    Feasible,
    column_null_space,
    dot,
    independent_subset,
    is_zero,
    lp_feasibility,
    neg,
    null_space,
    primitive_ray,
    rank,
    same_ray,
    scale,
    solve_columns,
    sub,
    zero_point,
)
from .steinitz import generic_direction


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

    def check_spanning(self):
        for i, s in enumerate(self.sets):
            if not spanning(s):
                raise NotSpanning(refute_spanning(s), colour=i)


@dataclass(frozen=True)
class Transversal:
    """Partial or full selection of one point per chosen colour."""

    picks: tuple  # ((colour, element index), ...), colours strictly increasing

    def __post_init__(self):
        picks = tuple(tuple(p) for p in self.picks)
        object.__setattr__(self, "picks", picks)
        colours = [c for c, _ in picks]
        if len(set(colours)) != len(colours):
            raise ValueError("transversal uses a colour twice")

    def points(self, system: ColourSystem):
        return tuple(system.sets[c][e] for c, e in self.picks)

    def size(self) -> int:
        return len(self.picks)


def _make_transversal(picks) -> Transversal:
    return Transversal(tuple(sorted(picks)))


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


@dataclass(frozen=True)
class PositiveCircuit:
    """Minimal subset with a strictly positive dependence summing to zero."""

    indices: tuple
    points: tuple
    coefficients: tuple  # strictly positive, primitive integer

    def verify(self) -> bool:
        if len(self.points) != len(self.coefficients):
            return False
        if any(c <= 0 for c in self.coefficients):
            return False
        acc = zero_point(len(self.points[0]))
        for c, p in zip(self.coefficients, self.points):
            acc = sub(acc, scale(-c, p))
        if not is_zero(acc):
            return False
        return rank(list(self.points)) == len(self.points) - 1


def positive_circuit(points) -> PositiveCircuit:
    """Lexicographically first minimal positively dependent subset.

    Requires pos(points) = R^d (checked), which guarantees a positive
    dependence exists.  A subset qualifies iff its columns have a
    one-dimensional null space generated by a strictly same-signed vector.
    """
    points = [tuple(p) for p in points]
    if not spanning(points):
        raise NotSpanning(refute_spanning(points))
    d = len(points[0])
    for size in range(2, d + 2):
        for combo in combinations(range(len(points)), size):
            cols = [points[i] for i in combo]
            deps = column_null_space(cols)
            if len(deps) != 1:
                continue
            mu = deps[0]
            if all(c > 0 for c in mu):
                coeffs = mu
            elif all(c < 0 for c in mu):
                coeffs = neg(mu)
            else:
                continue
            return PositiveCircuit(tuple(combo), tuple(cols), tuple(coeffs))
    raise RecursionInvariantViolation(
        "spanning set without a positive circuit"
    )  # pragma: no cover


@dataclass(frozen=True)
class HallViolation:
    """Family indices whose union of sets is smaller than the family."""

    family_indices: tuple


def hall_sdr(family, universe_size: int):
    """Distinct representatives for a family of index sets, or a violation.

    Returns a list reps with reps[j] in family[j], all distinct, or a
    HallViolation naming an inclusion subfamily that breaks Hall's condition.
    Standard augmenting-path bipartite matching.
    """
    family = [sorted(set(s)) for s in family]
    for s in family:
        for x in s:
            if not 0 <= x < universe_size:
                raise ValueError(f"element {x} outside universe of size {universe_size}")
    match_of_elem = {}  # element -> family index

    def augment(j, seen):
        for x in family[j]:
            if x in seen:
                continue
            seen.add(x)
            if x not in match_of_elem or augment(match_of_elem[x], seen):
                match_of_elem[x] = j
                return True
        return False

    for j in range(len(family)):
        if not augment(j, set()):
            # alternating reachability from the unmatched family j gives a
            # tight violating subfamily (Koenig / Hall argument)
            reach_fams = {j}
            reach_elems = set()
            frontier = [j]
            while frontier:
                f = frontier.pop()
                for x in family[f]:
                    if x in reach_elems:
                        continue
                    reach_elems.add(x)
                    owner = match_of_elem.get(x)
                    if owner is not None and owner not in reach_fams:
                        reach_fams.add(owner)
                        frontier.append(owner)
            return HallViolation(tuple(sorted(reach_fams)))

    reps = [None] * len(family)
    for x, j in match_of_elem.items():
        reps[j] = x
    return reps


@dataclass(frozen=True)
class Projection:
    """Orthogonal projections onto the complement of a subspace.

    ``frame`` is a rational basis of the orthogonal complement; ``images``
    holds each point's coordinates in that frame, or None when the point lies
    in the projected-out subspace (flagged, never silently kept).
    """

    frame: tuple
    images: tuple


def project_complement(points, l_basis) -> Projection:
    """Exact orthogonal projection to the complement of lin(l_basis)."""
    l_basis = [tuple(b) for b in l_basis]
    if rank(l_basis) != len(l_basis):
        raise ValueError("l_basis must be linearly independent")
    frame = null_space_frame(l_basis)
    gram_cols = [tuple(dot(a, b) for a in l_basis) for b in l_basis]
    images = []
    for x in points:
        x = tuple(x)
        alpha = solve_columns(gram_cols, tuple(dot(b, x) for b in l_basis))
        proj = x
        for a, b in zip(alpha, l_basis):
            proj = sub(proj, scale(a, b))
        if is_zero(proj):
            images.append(None)
        else:
            coords = solve_columns(list(frame), proj)
            if coords is None:  # pragma: no cover
                raise RecursionInvariantViolation("projection left the complement frame")
            images.append(tuple(coords))
    return Projection(tuple(frame), tuple(images))


def null_space_frame(l_basis):
    return tuple(null_space([tuple(b) for b in l_basis]))


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


@dataclass(frozen=True)
class SmallTransversal:
    transversal: Transversal
    certificate: SpanCertificate


@dataclass(frozen=True)
class Structural:
    result: object  # BCase | PCase


_RAY_SET_CACHE = {}


def _ray_set(points):
    key = tuple(tuple(p) for p in points)
    rs = _RAY_SET_CACHE.get(key)
    if rs is None:
        rs = frozenset(primitive_ray(p) for p in key)
        _RAY_SET_CACHE[key] = rs
    return rs


def structural_bcase(system: ColourSystem):
    d = system.dim
    first = _ray_set(system.sets[0])
    if len(first) != 2 * d:
        return None
    if any(_ray_set(s) != first for s in system.sets[1:]):
        return None
    if any(neg(r) not in first for r in first):
        return None
    reps = []
    for r in sorted(first):
        if neg(r) not in reps:
            reps.append(r)
    if len(reps) != d or rank(reps) != d:
        return None
    return BCase(tuple(reps))


def _is_positive_basis_simplex(rays):
    """rays (size d+1) form a positive circuit spanning R^d."""
    pts = sorted(rays)
    d = len(pts[0])
    if len(pts) != d + 1 or rank(pts) != d:
        return False
    deps = column_null_space(pts)
    if len(deps) != 1:
        return False
    mu = deps[0]
    return all(c > 0 for c in mu) or all(c < 0 for c in mu)


def structural_pcase(system: ColourSystem):
    d = system.dim
    ray_sets = [_ray_set(s) for s in system.sets]
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
    if len(f_set) != d + 1 or not _is_positive_basis_simplex(f_set):
        return None
    return PCase(tuple(sorted(f_set)), plus, minus)


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
    tv = _make_transversal(picks)
    cert = spans_space(tv.points(system))
    if not isinstance(cert, SpanCertificate):  # pragma: no cover
        raise RecursionInvariantViolation("two-sided colorful pivot failed to span")
    return tv, cert, first, second


# ---------------------------------------------------------------------------
# small spanning partial transversals


def _search_small(system: ColourSystem):
    """Exhaustive search for a spanning partial transversal with <= 2d-1 picks.

    Sizes below d+1 can never span, so the scan starts at d+1.  Used both as
    the d<=2 base case and as the fallback wherever the constructive
    recursion runs into a branch that only exists as a contradiction in the
    structural analysis.
    """
    d = system.dim
    for k in range(d + 1, 2 * d):
        for colours in combinations(range(2 * d), k):
            ranges = [range(len(system.sets[c])) for c in colours]
            for assignment in product(*ranges):
                pts = tuple(system.sets[c][e] for c, e in zip(colours, assignment))
                if spanning(pts):
                    tv = _make_transversal(zip(colours, assignment))
                    return SmallTransversal(tv, spans_space(tv.points(system)))
    raise RecursionInvariantViolation(
        "no small transversal although the system is neither BCase nor PCase"
    )


def _find_antipodal(system: ColourSystem):
    """First (colour, index of x, index of -x) with both rays in one set."""
    for i, s in enumerate(system.sets):
        for a, x in enumerate(s):
            nx = neg(x)
            for b, y in enumerate(s):
                if b != a and same_ray(nx, y):
                    return i, a, b
    return None


def _ray_index(points, ray):
    for e, x in enumerate(points):
        if same_ray(ray, x):
            return e
    return None


def _projected_subsystem(system, colours, l_basis):
    """Project the chosen colours to the complement of lin(l_basis).

    Points on the projected-out subspace are dropped (they are flagged by
    project_complement); the remaining images are renormalised to primitive
    rays to keep coefficients small.  Returns (sets, element maps).
    """
    sub_sets = []
    maps = []
    for c in colours:
        proj = project_complement(system.sets[c], l_basis)
        lst = []
        mp = []
        for e, im in enumerate(proj.images):
            if im is None:
                continue
            lst.append(primitive_ray(im))
            mp.append(e)
        if not lst or not spanning(tuple(lst)):  # pragma: no cover
            raise RecursionInvariantViolation("projection of a spanning set must span")
        sub_sets.append(tuple(lst))
        maps.append(mp)
    return sub_sets, maps


def _case_two(system: ColourSystem):
    """Some colour contains an antipodal ray pair: project it out and recurse."""
    d = system.dim
    i, a_idx, b_idx = _find_antipodal(system)
    v = system.sets[i][a_idx]
    j = next(
        (
            c
            for c in range(2 * d)
            if c != i
            and _ray_index(system.sets[c], v) is not None
            and _ray_index(system.sets[c], neg(v)) is not None
        ),
        None,
    )
    if j is None:
        # the second special colour exists only under the no-small-transversal
        # assumption, so one must exist
        return _search_small(system)

    others = [c for c in range(2 * d) if c not in (i, j)]
    sub_sets, maps = _projected_subsystem(system, others, [v])
    subsystem = ColourSystem(d - 1, tuple(sub_sets))
    sub = find_small_transversal(subsystem)
    if isinstance(sub, Structural):
        # structurally the original would have to be BCase/PCase, which was
        # already ruled out, so a small transversal exists
        return _search_small(system)

    lifted = [(others[c], maps[c][e]) for c, e in sub.transversal.picks]
    _assert_unique_lifts(system, subsystem, sub, others, maps, v)
    v_i, nv_i = a_idx, b_idx
    v_j = _ray_index(system.sets[j], v)
    nv_j = _ray_index(system.sets[j], neg(v))
    candidates = [
        lifted,
        lifted + [(i, nv_i)],
        lifted + [(i, v_i)],
        lifted + [(j, nv_j)],
        lifted + [(j, v_j)],
        lifted + [(i, v_i), (j, nv_j)],
        lifted + [(i, nv_i), (j, v_j)],
    ]
    for cand in candidates:
        if len(cand) > 2 * d - 1:
            continue
        pts = tuple(system.sets[c][e] for c, e in cand)
        if spanning(pts):
            tv = _make_transversal(cand)
            return SmallTransversal(tv, spans_space(tv.points(system)))
    raise RecursionInvariantViolation(
        "lifted transversal with both axis rays must span"
    )  # pragma: no cover


def _assert_unique_lifts(system, subsystem, sub, others, maps, v):
    """When the lifted picks only span a hyperplane, each lift is unique."""
    lifted_pts = [system.sets[others[c]][maps[c][e]] for c, e in sub.transversal.picks]
    d = system.dim
    if rank(lifted_pts) != d - 1:
        return
    # pos(lifted) = lin(lifted) iff the negation of every point is still in
    # the positive hull
    if not all(
        isinstance(lp_feasibility(lifted_pts, neg(p)), Feasible) for p in lifted_pts
    ):
        return
    for c, e in sub.transversal.picks:
        image = subsystem.sets[c][e]
        dup = sum(1 for x in subsystem.sets[c] if x == image)
        if dup > 1:
            raise RecursionInvariantViolation("non-unique lift of a projected pick")


def _case_one(system: ColourSystem):
    """No colour meets its own negation: circuit + distinct representatives."""
    d = system.dim
    hosts = [2 * d - 1] + list(range(2 * d - 1))
    for host in hosts:
        circ = positive_circuit(system.sets[host])
        k = len(circ.points)
        if k < 3:
            continue
        families = [sorted(p_set(a, system).members) for a in circ.points]
        sdr = hall_sdr(families, 2 * d)
        if isinstance(sdr, HallViolation):
            continue
        picks_sdr = []
        ok = True
        for j, a in enumerate(circ.points):
            e = _ray_index(system.sets[sdr[j]], neg(a))
            if e is None:  # pragma: no cover - contradicts the P-set computation
                ok = False
                break
            picks_sdr.append((sdr[j], e))
        if not ok:
            continue

        if k == d + 1:
            pts = tuple(system.sets[c][e] for c, e in picks_sdr)
            if spanning(pts):
                tv = _make_transversal(picks_sdr)
                return SmallTransversal(tv, spans_space(tv.points(system)))
            continue

        # circuit spans a proper subspace L of dimension k-1; represent it,
        # then finish with a full transversal in the complement
        l_ids = independent_subset(circ.points, size=k - 1)
        l_basis = [circ.points[t] for t in l_ids]
        used = set(sdr) | {host}
        pool = [c for c in range(2 * d) if c not in used]
        need = 2 * (d - k + 1)
        if len(pool) < need:  # pragma: no cover - impossible for k >= 3
            continue
        rec_colours = pool[:need]
        sub_sets, maps = _projected_subsystem(system, rec_colours, l_basis)
        subsystem = ColourSystem(d - k + 1, tuple(sub_sets))
        tv_sub, _ = colorful_transversal(subsystem)
        lifted = [(rec_colours[c], maps[c][e]) for c, e in tv_sub.picks]
        cand = picks_sdr + lifted
        pts = tuple(system.sets[c][e] for c, e in cand)
        if spanning(pts):
            tv = _make_transversal(cand)
            return SmallTransversal(tv, spans_space(tv.points(system)))
    return _search_small(system)


def find_small_transversal(system: ColourSystem):
    """Spanning partial transversal with <= 2d-1 picks, or a structural case.

    Structural BCase/PCase detection runs first; for d <= 2 the remainder is
    an exhaustive search, and for d >= 3 the constructive recursion projects
    along an antipodal ray pair (when one exists inside a single colour) or
    along the span of a positive circuit with distinct representatives.
    """
    system.check_spanning()
    b = structural_bcase(system)
    if b is not None:
        return Structural(b)
    p = structural_pcase(system)
    if p is not None:
        return Structural(p)
    if system.dim <= 2:
        return _search_small(system)
    if _find_antipodal(system) is not None:
        return _case_two(system)
    return _case_one(system)


def classify(system: ColourSystem):
    """BCase, PCase, or Neither with a small spanning partial transversal."""
    system.check_spanning()
    b = structural_bcase(system)
    if b is not None:
        return b
    p = structural_pcase(system)
    if p is not None:
        return p
    res = find_small_transversal(system)
    if isinstance(res, SmallTransversal):
        return Neither(res.transversal, res.certificate)
    raise RecursionInvariantViolation(
        "structural result after structural tests failed"
    )  # pragma: no cover
