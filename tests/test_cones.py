"""Conic predicates, certificates, and the exact nearest-point computation."""

import ast
import importlib
import inspect
import pkgutil
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

import colorsteinitz
from colorsteinitz import cones
from colorsteinitz.cli import main
from colorsteinitz.colorful import (
    BCase,
    ColourSystem,
    Neither,
    PCase,
    classify,
    colorful_transversal,
)
from colorsteinitz.cones import (
    ConicCertificate,
    FarkasWitness,
    NearestPoint,
    SpanCertificate,
    clear_span_cache,
    integer_rays,
    nearest_cone_point,
    pos_membership,
    refute_spanning,
    spanning,
    spanning_picks,
    spans_space,
)
from colorsteinitz.errors import (
    BudgetExceeded,
    DimensionMismatch,
    RecursionInvariantViolation,
    ZeroPoint,
)
from colorsteinitz.instancefile import InstanceFile, emit_instance
from colorsteinitz.oracle import (
    enumerate_report,
    generate_bcase,
    generate_pcase,
    generate_random,
)
from colorsteinitz.ratlin import (
    Feasible,
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
from colorsteinitz.steinitz import generic_direction, refine_below_2d, steinitz_reduce

from conftest import pt as P, reference_spans_space, simplex, units


def brute_spanning_2d(points):
    """Independent d=2 oracle: pos T = R^2 iff no closed halfspace holds T.

    It suffices to probe the finitely many candidate facet normals: the
    points' own directions rotated by 90 degrees, their negations, and the
    point negations themselves.  A halfspace containing every point must
    have its boundary touching some point direction.
    """
    probes = []
    for x, y in points:
        for w in ((-y, x), (y, -x), (-x, -y)):
            if w != (0, 0):
                probes.append(w)
    for w in probes:
        if all(w[0] * x + w[1] * y <= 0 for x, y in points):
            return False
    return True


class TestPosMembership:
    def test_member_basic(self):
        res = pos_membership(P(1, 1), [P(1, 0), P(0, 1)])
        assert isinstance(res, ConicCertificate)
        assert res.verify([P(1, 0), P(0, 1)])
        assert res.coefficients == (Fraction(1), Fraction(1))

    def test_zero_witness_refutes_nothing(self):
        # checkcert rejects a zero witness; verify must agree, with or without a target
        assert not FarkasWitness(P(0, 0)).verify(units(2))
        assert not FarkasWitness((0, 0), P(1, 0)).verify([P(0, 1)])
        assert not FarkasWitness(P(0, 0)).verify([P(1, 0)], target=P(1, 0))
        assert FarkasWitness(P(0, -1)).verify([P(1, 0), P(0, 1)])

    def test_not_member(self):
        gens = [P(1, 0), P(0, 1), P(1, 1)]
        res = pos_membership(P(0, -1), gens)
        assert isinstance(res, FarkasWitness)
        assert res.verify(gens)
        assert res.w == P(0, -1)

    def test_constructed_member_3d(self):
        rng = random.Random(3)
        gens = [
            tuple(Fraction(rng.randint(-3, 3)) for _ in range(3)) for _ in range(6)
        ]
        gens = [g for g in gens if any(g)]
        coeffs = [Fraction(rng.randint(0, 3)) for _ in gens]
        v = tuple(
            sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(3)
        )
        if all(x == 0 for x in v):
            v = gens[0]
        res = pos_membership(v, gens)
        assert isinstance(res, ConicCertificate)
        assert res.verify(gens)
        assert len(res.coefficients) <= 3

    def test_rejects_zero_target(self):
        with pytest.raises(ZeroPoint):
            pos_membership(P(0, 0), [P(1, 0)])

    def test_scale_invariance(self):
        gens = [P(1, 0), P(0, 1), P(-1, -3)]
        scaled = [P(5, 0), P(0, "1/2"), P(-2, -6)]
        for v in (P(1, 1), P(-1, 0), P(-2, -5)):
            a = pos_membership(v, gens)
            b = pos_membership(v, scaled)
            assert isinstance(a, ConicCertificate) == isinstance(b, ConicCertificate)


class TestCertificateRejection:
    # (1, 1) = 1 * (1, 0) + 1 * (0, 1); each bad certificate would pass but
    # for the one check it is meant to fail
    GENS = (P(1, 0), P(0, 1), P(2, 1))

    @pytest.mark.parametrize(
        "indices, coefficients",
        [
            ((0, 1), (1, 1, 5)),  # lengths differ
            ((0, 1, 1), (1, Fraction(1, 2), Fraction(1, 2))),  # repeated index
            ((0, 1, 2), (3, 2, -1)),  # negative coefficient
            ((0, 1, -1), (1, 1, 0)),  # index out of range
        ],
    )
    def test_conic_certificate_rejects(self, indices, coefficients):
        assert ConicCertificate((0, 1), (1, 1), P(1, 1)).verify(self.GENS)
        coefficients = tuple(map(Fraction, coefficients))
        assert not ConicCertificate(indices, coefficients, P(1, 1)).verify(self.GENS)

    def test_span_certificate_rejects_directions_out_of_order(self):
        cert = spans_space(units(2))
        assert cert.verify(units(2))
        swapped = cert.certificates[1::-1] + cert.certificates[2:]
        assert not SpanCertificate(2, swapped).verify(units(2))


class TestSpansSpace:
    def test_plus_minus_basis(self):
        res = spans_space(units(2))
        assert isinstance(res, SpanCertificate)
        assert res.verify(units(2))

    def test_halfspace_failure(self):
        res = spans_space([P(1, 0), P(0, 1)])
        assert isinstance(res, FarkasWitness)
        assert res.verify([P(1, 0), P(0, 1)])
        assert dot(res.w, P(-1, -1)) > 0

    def test_simplex_spans(self):
        gens = [P(1, 0), P(0, 1), P(-1, -1)]
        res = spans_space(gens)
        assert isinstance(res, SpanCertificate)
        assert res.verify(gens)

    def test_int_coordinates(self):
        # plain ints, not Fractions: the simplex must not divide int by int
        gens = ((2, 0), (0, 3), (-1, -1))
        res = spans_space(gens)
        assert isinstance(res, SpanCertificate)
        assert res.verify(gens)
        assert spanning(gens)
        as_fractions = [tuple(Fraction(c) for c in p) for p in gens]
        assert res == spans_space(as_fractions)
        halfplane = ((2, 0), (0, 3), (1, -1))
        assert not spanning(halfplane)
        assert spans_space(halfplane).verify(halfplane)

    def test_rank_deficient_witness(self):
        res = spans_space([P(1, 1), P(-2, -2), P(3, 3)])
        assert isinstance(res, FarkasWitness)
        assert res.verify([P(1, 1), P(-2, -2), P(3, 3)])

    def test_rank_deficient_target_is_plus_e(self):
        # a null_space() normal has its first nonzero entry positive, so the
        # target is +e there: the same witness as reference_spans_space's,
        # which still takes the sign of that entry
        rng = random.Random(11)
        for d in range(1, 5):
            for _ in range(40):
                basis = [P(*(rng.randint(-3, 3) for _ in range(d))) for _ in range(d - 1)]
                pts = []
                for _ in range(rng.randint(1, d + 2)):
                    point = zero_point(d)
                    for b in basis:
                        point = add(point, scale(rng.randint(-2, 2), b))
                    pts.append(point)
                clear_span_cache()
                res = spans_space(pts)
                axis = next(i for i, x in enumerate(res.w) if x)
                assert res.w[axis] > 0 and res.target == unit(d, axis), pts
                assert res.verify(pts) and repr(res) == repr(reference_spans_space(pts)), pts

    def test_spanning_needs_d_plus_one(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(1, 4)
            pts = []
            while len(pts) < n:
                p = tuple(Fraction(rng.randint(-2, 2)) for _ in range(3))
                if any(p):
                    pts.append(p)
            if spanning(tuple(pts)):
                assert n >= 4

    def test_exhaustive_d2_against_probing_oracle(self):
        rays = []
        for x in range(-2, 3):
            for y in range(-2, 3):
                if (x, y) != (0, 0):
                    rays.append(P(x, y))
        rng = random.Random(1)
        pool = rng.sample(list(combinations(range(len(rays)), 3)), 300)
        pool += rng.sample(list(combinations(range(len(rays)), 4)), 300)
        for combo in pool:
            pts = tuple(rays[i] for i in combo)
            assert spanning(pts) == brute_spanning_2d(pts)


def _d_plus_one_sets():
    """Seeded sets of d + 1 points for d = 1..6, one kind in six each:
    spanning (the last point minus a positive combination of the others),
    random, a repeated point, an antipodal pair, rank below d, and a
    dependence of mixed sign.  Half keep int coordinates; the rest become
    Fractions, by a positive scale of each point or with random
    denominators."""
    rng = random.Random(23)
    cases = []
    for d in range(1, 7):
        for k in range(420):
            kind = k % 6
            pts = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(d)]
            if kind in (0, 5):
                lam = [rng.randint(1, 4) for _ in range(d)]
                if kind == 5:
                    lam[rng.randrange(d)] *= -1
                pts.append(tuple(-sum(c * p[i] for c, p in zip(lam, pts)) for i in range(d)))
            elif kind == 1:
                pts.append(tuple(rng.randint(-3, 3) for _ in range(d)))
            elif kind == 2:
                pts.append(rng.choice(pts))
            elif kind == 3:
                pts.append(neg(rng.choice(pts)))
            else:  # on the hyperplane x_d = 0
                pts = [p[:-1] + (0,) for p in pts + [pts[0]]]
                pts[-1] = tuple(rng.randint(-3, 3) for _ in range(d - 1)) + (0,)
            if k % 4 == 1:
                pts = [scale(Fraction(rng.randint(1, 3), rng.randint(1, 4)), p) for p in pts]
            elif k % 4 == 3:
                pts = [tuple(Fraction(x, rng.randint(1, 3)) for x in p) for p in pts]
            cases.append(tuple(pts))
    return cases


class TestDependenceCertificates:
    """spans_space() on d + 1 points of rank d with a one-signed dependence
    takes every certificate from one elimination, with no LP."""

    @pytest.fixture
    def lp_calls(self, monkeypatch):
        calls = []

        def counting(cols, target):
            calls.append(len(cols))
            return lp_feasibility(cols, target)

        monkeypatch.setattr(cones, "lp_feasibility", counting)
        return calls

    def test_same_certificates_as_the_lp_loop(self):
        cases = _d_plus_one_sets()
        assert len(cases) >= 2500
        kinds = []
        for pts in cases:
            clear_span_cache()
            got = spans_space(pts)
            assert repr(got) == repr(reference_spans_space(pts)), pts
            assert got.verify(pts), pts
            full = rank(pts) == len(pts[0])
            kinds.append((full, isinstance(got, SpanCertificate)))
        assert kinds.count((True, True)) >= 500
        assert kinds.count((True, False)) >= 500
        assert kinds.count((False, False)) >= 300

    def test_classify_makes_no_lp(self, lp_calls):
        systems = [generate_random(d, seed=seed) for d in (3, 4, 5) for seed in range(4)]
        structural = [
            make(d, transform_seed=seed)
            for make in (generate_bcase, generate_pcase)
            for d in (3, 4)
            for seed in (0, 1)
        ]
        lp_calls.clear()  # count classify alone, not the generators
        answers = []
        for system in systems + structural:
            clear_span_cache()
            res = classify(system)
            if isinstance(res, Neither):
                assert res.certificate.verify(res.witness.points(system))
            answers.append(type(res))
        assert lp_calls == []
        assert answers == [Neither] * 12 + [BCase] * 4 + [PCase] * 4

    def test_simplices_make_no_lp(self, lp_calls):
        clear_span_cache()
        for d in range(1, 7):
            cert = spans_space(simplex(d))
            assert isinstance(cert, SpanCertificate)
            assert cert.verify(simplex(d))
        assert lp_calls == []

    def test_other_sets_take_the_lp_path(self, lp_calls):
        clear_span_cache()
        for d in range(1, 5):
            pts = simplex(d) + (P(*[1] * d),)  # d + 2 points that span
            cert = spans_space(pts)
            assert isinstance(cert, SpanCertificate) and cert.verify(pts)
        assert lp_calls == [d + 2 for d in range(1, 5) for _ in range(2 * d)]
        lp_calls.clear()
        pts = (P(1, 0), P(0, 1), P(1, 1))  # rank 2, dependence (1, 1, -1)
        res = spans_space(pts)
        assert isinstance(res, FarkasWitness) and res.verify(pts)
        assert lp_calls == [3, 3, 3]


def _random_point(rng, d, fractional):
    if fractional:
        return tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d))
    return tuple(Fraction(rng.randint(-2, 2)) for _ in range(d))


def _decision_inputs():
    """Seeded generator sets for d = 1..4 that exercise every branch of spanning()."""
    rng = random.Random(20)
    cases = []
    for d in range(1, 5):
        for k in range(80):
            kind = k % 8
            fractional = k % 3 == 0
            n = rng.randint(1, 2 * d + 2)
            pts = [_random_point(rng, d, fractional) for _ in range(n)]
            if kind == 1:  # duplicated and permuted points
                pts += rng.choices(pts, k=rng.randint(1, 3))
                rng.shuffle(pts)
            elif kind == 2:  # a zero point among the generators
                pts.insert(rng.randrange(n + 1), (Fraction(0),) * d)
            elif kind == 3:  # sum zero: the all-ones dependence
                pts.append(tuple(-sum(c) for c in zip(*pts)))
            elif kind == 4 and d > 1:  # rank deficient with a positive dependence
                flat = [p[:-1] + (Fraction(0),) for p in pts]
                pts = flat + [tuple(-x for x in p) for p in flat]
            elif kind == 5:  # a positive basis, possibly with extra points
                pts = list(simplex(d)) + pts[: rng.randint(0, 2)]
            elif kind == 6:  # a closed halfspace, so never spanning
                pts = [p if p[0] >= 0 else tuple(-x for x in p) for p in pts]
            cases.append(tuple(pts))
    return cases


def reference_spanning(points):
    """The rank-and-LP decision alone: rank T = d, and -sum(T) in pos T
    unless sum(T) = 0."""
    points = sorted(set(map(tuple, points)))
    d = len(points[0])
    if rank(points) != d:
        return False
    total = tuple(sum(c) for c in zip(*points))
    return is_zero(total) or isinstance(lp_feasibility(points, neg(total)), Feasible)


def _sign_reject(points):
    """True iff some coordinate is >= 0 on every point or <= 0 on every point."""
    return any(min(c) >= 0 or max(c) <= 0 for c in zip(*points))


def _small_set_inputs():
    """Seeded sets of n in {1, d, d+1, d+2, 2d} points of [-3, 3]^d for
    d = 1..5, so with zero points and repeats; about 30% are rescaled to
    Fractions."""
    rng = random.Random(21)
    cases = []
    for _ in range(140):
        for d in range(1, 6):
            for n in sorted({1, d, d + 1, d + 2, 2 * d}):
                pts = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(n)]
                if rng.random() < 0.3:
                    pts = [tuple(Fraction(x, rng.randint(1, 4)) for x in p) for p in pts]
                cases.append(tuple(pts))
    return cases


def _unit_cube_sets():
    """Sets of d + 1 and d + 2 points of {-1, 0, 1}^d: all of them for
    d = 1, 2, seeded samples (with repeats) for d = 3..5; about a third of
    the sets get each point rescaled by a positive Fraction."""
    rng = random.Random(22)
    cases = []
    for d in range(1, 6):
        cube = list(product((-1, 0, 1), repeat=d))
        for n in (d + 1, d + 2):
            if d <= 2:
                sets = list(combinations(cube, n))
            else:
                sets = [rng.choices(cube, k=n) for _ in range(300)]
            for pts in sets:
                if rng.random() < 0.3:
                    pts = [scale(Fraction(rng.randint(1, 3), rng.randint(1, 3)), p) for p in pts]
                cases.append(tuple(pts))
    return cases


def _gale_shapes(points):
    """Which of a zero, two parallel and two antipodal Gale vectors (rows
    of the null_space basis) d + 2 distinct points of rank d have; the
    empty set for other points."""
    points = sorted(set(points))
    d = len(points[0])
    if len(points) != d + 2 or rank(points) != d:
        return set()
    gale = list(zip(*null_space(list(zip(*points)))))
    shapes = {"zero" for g in gale if not any(g)}
    for (a, b), (u, v) in combinations(gale, 2):
        if any((a, b)) and any((u, v)) and a * v == b * u:
            shapes.add("parallel" if a * u + b * v > 0 else "antipodal")
    return shapes


class TestSpanningDecision:
    def test_agrees_with_spans_space(self):
        # spanning()'s Gale test and spans_space()'s (d+1)-point path both
        # read the sign of one dependence, so the reference is the LP loop
        clear_span_cache()
        cases = _decision_inputs()
        assert len(cases) >= 300
        decisions = []
        for pts in cases:
            decided = spanning(pts)
            cert = reference_spans_space(pts)
            assert decided == isinstance(cert, SpanCertificate), pts
            assert cert.verify(pts), pts
            assert decided == isinstance(spans_space(pts), SpanCertificate), pts
            decisions.append(decided)
        assert 50 <= sum(decisions) <= len(decisions) - 50

    def test_permutation_and_duplicate_share_the_memo(self):
        clear_span_cache()
        rng = random.Random(4)
        for pts in _decision_inputs()[::7]:
            decided = spanning(pts)
            entries = len(cones._SPAN_BOOL)
            shuffled = list(pts) + [rng.choice(pts)]
            rng.shuffle(shuffled)
            assert spanning(tuple(shuffled)) == decided
            assert spanning(list(reversed(pts))) == decided
            assert len(cones._SPAN_BOOL) == entries

    def test_integer_rays_decide_alike(self):
        for pts in _decision_inputs():
            clear_span_cache()
            decided = spanning(pts)
            clear_span_cache()  # so that the ray key is decided, not looked up
            assert spanning(tuple(map(integer_ray, pts))) == decided, pts

    def test_sum_zero_needs_no_lp(self, monkeypatch):
        clear_span_cache()

        def no_lp(*args):
            raise AssertionError("lp_feasibility called")

        monkeypatch.setattr(cones, "lp_feasibility", no_lp)
        assert spanning(units(3))
        assert spanning(simplex(2) + simplex(2))

    def test_agrees_with_the_rank_and_lp_reference(self):
        cases = _small_set_inputs() + [((),)]  # {()} spans R^0
        assert len(cases) >= 3000
        decisions = []
        for pts in cases:
            clear_span_cache()
            decided = spanning(pts)
            assert decided == reference_spanning(pts), pts
            decisions.append(decided)
        assert 100 <= sum(decisions) <= len(decisions) - 100

    def test_simplices_and_small_sets_need_no_lp(self, monkeypatch):
        rng = random.Random(13)
        small = [
            (P(1, -1, 0), P(0, 1, -1), P(-1, 0, 1), P(1, 1, -2)),  # rank 2 in R^3
            (P(2, 1), P(-1, 1), P(1, -1)),  # dependence (0, 1, 1)
            (P(1, -1), P(-1, 2)),  # d points of rank d
        ]
        while len(small) < 60:
            d = rng.randint(2, 5)
            pts = tuple(tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(d + 1))
            if len(set(pts)) == d + 1 and not _sign_reject(pts) and not reference_spanning(pts):
                small.append(pts)
        assert any(rank(p) < len(p[0]) for p in small)
        assert any(rank(p) == len(p[0]) for p in small)
        clear_span_cache()

        def no_lp(*args):
            raise AssertionError("lp_feasibility called")

        monkeypatch.setattr(cones, "lp_feasibility", no_lp)
        for d in range(2, 6):
            assert spanning(simplex(d))
        for pts in small:
            assert not spanning(pts), pts

    def test_halfspace_sets_need_no_elimination(self, monkeypatch):
        rng = random.Random(14)
        sets = []
        for d in range(1, 6):
            for n in (d + 1, d + 2, 2 * d, 2 * d + 2):
                pts = [list(_random_point(rng, d, n % 2 == 0)) for _ in range(n)]
                axis, sign = rng.randrange(d), rng.choice((1, -1))
                for p in pts:
                    p[axis] = sign * abs(p[axis])
                sets.append(tuple(map(tuple, pts)))
        clear_span_cache()

        def no_elimination(*args):
            raise AssertionError("elimination called")

        for name in ("lp_feasibility", "rank", "null_space", "_echelon", "_null_basis"):
            monkeypatch.setattr(cones, name, no_elimination)
        for pts in sets:
            assert not spanning(pts), pts

    def test_d_plus_two_sets_need_no_lp(self, monkeypatch):
        rng = random.Random(15)
        wanted = {
            (d, spans, full, fractional)
            for d in range(1, 6)
            for spans, full in ((True, True), (False, True), (False, False))
            for fractional in (False, True)
            # on a line, rays of both signs span; a rank-1 set of the plane has 2 rays
            if (d > 1 or spans) and (d > 2 or full)
        }
        cases = []
        for _ in range(20000):
            if not wanted:
                break
            d = rng.randint(1, 5)
            pts = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(d + 2)]
            kind = rng.randrange(3)
            if kind == 1:  # a positive basis and one more point
                pts = [tuple(map(int, p)) for p in simplex(d)] + pts[:1]
            elif kind == 2:  # on the hyperplane sum(x) = 0, so rank < d
                pts = [p[:-1] + (-sum(p[:-1]),) for p in pts]
            fractional = rng.random() < 0.5
            if fractional:
                pts = [scale(Fraction(rng.randint(1, 3), rng.randint(1, 4)), p) for p in pts]
            if len(set(map(integer_ray, pts))) < d + 2 or _sign_reject(pts):
                continue
            key = (d, reference_spanning(pts), rank(pts) == d, fractional)
            if key in wanted:
                wanted.discard(key)
                cases.append((pts, key[1]))
        assert not wanted
        clear_span_cache()

        def no_elimination(*args):
            raise AssertionError("rank, null_space or lp_feasibility called")

        for name in ("lp_feasibility", "rank", "null_space"):
            monkeypatch.setattr(cones, name, no_elimination)
        for pts, spans in cases:
            assert spanning(pts) == spans, pts

    def test_agrees_with_the_reference_on_unit_cube_sets(self):
        cases = _unit_cube_sets()
        assert len(cases) >= 2000
        shapes = set()
        decisions = []
        for pts in cases:
            shapes |= _gale_shapes(pts)
            clear_span_cache()
            decided = spanning(pts)
            assert decided == reference_spanning(pts), pts
            decisions.append(decided)
        assert shapes == {"zero", "parallel", "antipodal"}
        assert 100 <= sum(decisions) <= len(decisions) - 100

    def test_sign_reject_never_fires_on_a_spanning_set(self):
        spanning_sets = [p for p in _decision_inputs() if reference_spanning(p)]
        assert len(spanning_sets) >= 50
        for pts in spanning_sets:
            assert not _sign_reject(pts), pts

    def test_empty_raises_value_error(self):
        with pytest.raises(ValueError):
            spanning([])

    def test_refute_spanning_returns_the_spans_space_witness(self):
        for pts in ([P(1, 0), P(0, 1)], [P(1, 1), P(-2, -2), P(3, 3)]):
            assert not spanning(pts)
            res = refute_spanning(pts)
            assert res == spans_space(pts)
            assert res.verify(pts)

    def test_refute_spanning_rejects_a_spanning_set(self):
        with pytest.raises(RecursionInvariantViolation):
            refute_spanning(simplex(2))


def _reference_picks(groups, sizes):
    """spanning_picks' answer by plain itertools, decided by reference_spanning."""
    picks = []
    for k in sizes:
        for chosen in combinations(range(len(groups)), k):
            for elements in product(*(range(len(groups[g])) for g in chosen)):
                if reference_spanning([groups[g][e] for g, e in zip(chosen, elements)]):
                    picks.append((chosen, elements))
    return picks


def _random_groups(rng, d):
    """2 to 4 groups of 1 to 3 nonzero points of [-2, 2]^d, with repeats
    across groups."""
    groups = []
    for _ in range(rng.randint(2, 4)):
        group = []
        while len(group) < rng.randint(1, 3):
            p = tuple(rng.randint(-2, 2) for _ in range(d))
            if any(p):
                group.append(p)
        groups.append(tuple(group))
    return groups


class TestSpanningPicks:
    def test_matches_itertools_reference(self):
        rng = random.Random(8)
        found = checked = 0
        for d in (2, 3):
            for _ in range(40):
                groups = _random_groups(rng, d)
                sizes = range(d + 1, len(groups) + 1)
                if rng.random() < 0.3:
                    sizes = range(1, len(groups) + 1)
                want = _reference_picks(groups, sizes)
                assert list(spanning_picks(groups, sizes)) == want, groups
                found += len(want)
                checked += sum(len(list(product(*c))) for k in sizes for c in combinations(groups, k))
        assert 50 <= found <= checked - 50

    def test_budget_counts_checks_up_to_the_first_hit(self):
        # the four 3-subsets of +-e1, +-e2 fail, then the 4-subset spans
        groups = [(p,) for p in units(2)]
        assert next(spanning_picks(groups, (3, 4), budget=5)) == ((0, 1, 2, 3), (0, 0, 0, 0))
        with pytest.raises(BudgetExceeded):
            next(spanning_picks(groups, (3, 4), budget=4))

    def test_budget_counts_every_check_of_a_full_scan(self):
        groups = [units(2)] * 4
        assert len(list(spanning_picks(groups, (4,), budget=256))) == 24
        with pytest.raises(BudgetExceeded):
            list(spanning_picks(groups, (4,), budget=255))

    def test_empty_sizes_and_oversized_k_check_nothing(self):
        groups = [units(2)] * 4
        assert list(spanning_picks(groups, (), budget=0)) == []
        assert list(spanning_picks(groups, (5, 6), budget=0)) == []


def _memo_answers(after_each=lambda: None):
    """spanning, spans_space and integer_rays on a slice of the decision
    inputs, and generic_direction and steinitz_reduce on those that span."""
    answers = []
    for pts in _decision_inputs()[::3]:
        decided = spanning(pts)
        answers.append((decided, spans_space(pts), integer_rays(pts)))
        if decided:
            answers.append((generic_direction(pts), steinitz_reduce(pts)))
        after_each()
    return answers


class TestMemos:
    def test_full_memos_stay_bounded_with_the_same_answers(self, monkeypatch):
        clear_span_cache()
        unbounded = _memo_answers()
        assert min(map(len, cones._MEMOS)) > 5
        clear_span_cache()
        monkeypatch.setattr(cones, "_MEMO_LIMIT", 5)
        sizes = []
        bounded = _memo_answers(lambda: sizes.extend(map(len, cones._MEMOS)))
        assert bounded == unbounded
        assert max(sizes) == 5

    def test_the_oldest_entry_goes_first(self, monkeypatch):
        clear_span_cache()
        monkeypatch.setattr(cones, "_MEMO_LIMIT", 2)
        sets = [simplex(2), units(2), (P(1, 0), P(0, 1))]
        for s in sets:
            spanning(s)
        assert list(cones._SPAN_BOOL) == [frozenset(s) for s in sets[1:]]

    def test_every_private_module_dict_is_a_bounded_memo(self):
        """A process-wide dict must be one of cones._MEMOS, filled only
        through cones._remember (which bounds it), and emptied by
        clear_span_cache()."""
        system = generate_random(2, seed=1)
        classify(system)
        colorful_transversal(system)
        enumerate_report(system)
        refine_below_2d(units(2) + (P(1, 1),))
        clear_span_cache()
        modules = [
            importlib.import_module(f"colorsteinitz.{info.name}")
            for info in pkgutil.iter_modules(colorsteinitz.__path__)
        ]
        memos = set()
        for module in modules:
            for name, value in vars(module).items():
                if isinstance(value, dict) and name.startswith("_") and not name.startswith("__"):
                    where = f"{module.__name__}.{name}"
                    assert any(value is m for m in cones._MEMOS), f"{where} is not in cones._MEMOS"
                    assert value == {}, f"clear_span_cache() leaves {where} non-empty"
                    memos.add(name)
        assert len(memos) == len(cones._MEMOS)
        # no write to a memo but the bounded insert in _remember, which
        # writes through its parameter
        writes = []
        for module in modules:
            for node in ast.walk(ast.parse(inspect.getsource(module))):
                if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
                    target = node.value
                elif isinstance(node, ast.Attribute) and node.attr in ("setdefault", "update"):
                    target = node.value
                else:
                    continue
                name = getattr(target, "id", None) or getattr(target, "attr", None)
                if name in memos:
                    writes.append(f"{module.__name__}:{node.lineno}")
        assert writes == []


class TestDisagreementGuard:
    """Every caller that refutes a set it was told does not span re-checks the answer."""

    @pytest.fixture
    def lying_memo(self, monkeypatch):
        clear_span_cache()  # so that no memoised reduction skips the check
        monkeypatch.setitem(cones._SPAN_BOOL, frozenset(simplex(2)), False)

    def test_check_spanning(self, lying_memo):
        with pytest.raises(RecursionInvariantViolation):
            ColourSystem(2, (simplex(2),) * 4).check_spanning()

    def test_steinitz_reduce(self, lying_memo):
        with pytest.raises(RecursionInvariantViolation):
            steinitz_reduce(simplex(2))

    def test_cli_verify(self, lying_memo, tmp_path, capsys):
        path = tmp_path / "inst"
        path.write_text(emit_instance(InstanceFile(2, (simplex(2),), ("",))))
        assert main(["verify", str(path)]) == 1
        assert "spans_space certified a set that spanning rejected" in capsys.readouterr().err


def reference_nearest_cone_point(v, generators):
    """The Fraction nearest_cone_point that the integer kernel replaced: a
    rank test and a solve_columns on the rational Gram matrix per support."""
    d = len(v)
    n = len(generators)
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
        key = (dot(w, w), supp)
        if best is None or key < best[0]:
            best = (key, p)
    (sq, supp), p = best
    return NearestPoint(p, supp, sq)


def _cone_inputs():
    """Seeded (v, generators) for d = 1..4 and n = 0..d: int, Fraction or
    mixed coordinates; zero, repeated, rescaled and antiparallel generators;
    v inside the cone, on its boundary, outside it, or zero."""
    rng = random.Random(31)
    cases = []
    for case in range(3200):
        d = case % 4 + 1
        n = max(0, rng.choice((d, d, d - 1, rng.randint(0, d))))
        kind = rng.choice(("int", "fraction", "mixed"))

        def coord(j):
            x = rng.randint(-3, 3)
            if kind == "fraction" or (kind == "mixed" and j % 2):
                return Fraction(x, rng.randint(1, 4))
            return x

        gens = []
        for _ in range(n):
            roll = rng.random()
            if gens and roll < 0.3:  # a repeat, a rescaling or an antipode
                g = rng.choice(gens)
                gens.append(tuple(x * rng.choice((1, 2, Fraction(1, 3), -1)) for x in g))
            elif roll < 0.4:
                gens.append((0,) * d)
            else:
                gens.append(tuple(coord(j) for j in range(d)))
        where = rng.choice(("inside", "boundary", "outside") * 3 + ("zero",))
        if where == "zero":
            v = (0,) * d
        elif where == "outside" or not gens:
            v = tuple(coord(j) for j in range(d))
        else:
            # inside: positive weight on every generator; boundary: zero on some
            weights = [rng.randint(1, 3) for _ in gens]
            if where == "boundary":
                weights[rng.randrange(len(gens))] = 0
            v = tuple(sum(c * g[j] for c, g in zip(weights, gens)) for j in range(d))
        cases.append((v, gens))
    return cases


def _degenerate_face_inputs():
    """Seeded (v, generators, point, sqdist) at d = 3, 4 whose nearest point
    lies on a degenerate face F, with the point and sqdist known by
    construction.  Families: three coplanar generators on F; parallel
    generators on F (a repeat or rescaling, and its antipode); v on a 2-face
    of independent generators.  v is a nonnegative combination x of F plus a
    normal u of F, or x itself; every other generator g has <u, g> <= 0, so
    x is the projection and |u|^2 the sqdist."""
    rng = random.Random(47)

    def vec(d):
        return tuple(rng.randint(-3, 3) for _ in range(d))

    cases = []
    for case in range(240):
        d = 3 + case % 2
        family = ("coplanar", "parallel", "2-face")[case // 2 % 3]
        a, b = vec(d), vec(d)
        if rank([a, b]) < 2:
            continue
        if family == "coplanar":
            face = [a, b, add(scale(rng.randint(1, 2), a), scale(rng.randint(1, 2), b))]
        elif family == "parallel":
            face = [a, scale(rng.choice((1, 2, Fraction(1, 3))), a)] + ([neg(a)] if d == 4 else [])
        else:
            face = [a, b]
        weights = [rng.randint(1, 2) for _ in face]
        if family == "parallel":
            weights[-1] = rng.randint(0, 1)  # x may cancel to the apex
        x = tuple(sum(c * g[j] for c, g in zip(weights, face)) for j in range(d))
        normals = [scale(rng.randint(-2, 2), n) for n in null_space(face)]
        u = tuple(map(sum, zip(zero_point(d), *normals)))
        if family == "2-face" and rng.random() < 0.5:
            u = zero_point(d)
        others = []
        while len(face) + len(others) < d:
            g = vec(d)
            others.append(neg(g) if dot(u, g) > 0 else g)
        gens = face + others
        rng.shuffle(gens)
        cases.append((add(x, u), gens, tuple(map(Fraction, x)), dot(u, u)))
    e1, e2, e3 = units(3)[::2]
    cases += [
        # coplanar: e1, e2, e1 + e2 below v = (1, 1, 1)
        (P(1, 1, 1), [e1, e2, add(e1, e2)], P(1, 1, 0), 1),
        # parallel: e1 twice, v over it
        (P(2, 1, 0), [e1, scale(2, e1), e3], P(2, 0, 0), 1),
        # v on the 2-face pos(e1, e2) of the orthant
        (P(1, 2, 0), [e1, e2, e3], P(1, 2, 0), 0),
    ]
    return cases


class TestNearestConePoint:
    def test_same_answers_as_fraction_kernel(self):
        cases = _cone_inputs()
        assert len(cases) >= 3000
        hits = 0
        for v, gens in cases:
            got = nearest_cone_point(v, gens)
            want = reference_nearest_cone_point(v, gens)
            assert (got.point, got.support, got.sqdist) == (
                want.point,
                want.support,
                want.sqdist,
            ), (v, gens)
            assert all(type(x) is Fraction for x in got.point + (got.sqdist,)), (v, gens)
            hits += got.sqdist == 0
        # both answers occur often: v in the cone and v strictly outside
        assert 500 <= hits <= len(cases) - 500

    def test_degenerate_faces(self):
        cases = _degenerate_face_inputs()
        assert len(cases) >= 200
        for v, gens, point, sqdist in cases:
            got = nearest_cone_point(v, gens)
            want = reference_nearest_cone_point(v, gens)
            assert (got.point, got.support, got.sqdist) == (
                want.point,
                want.support,
                want.sqdist,
            ), (v, gens)
            assert (got.point, got.sqdist) == (point, sqdist), (v, gens)

    def test_inside_cone(self):
        res = nearest_cone_point(P(1, 1), [P(1, 0), P(0, 1)])
        assert res.point == P(1, 1)
        assert res.sqdist == 0

    def test_projection_to_apex(self):
        res = nearest_cone_point(P(-1, 0), [P(0, 1)])
        assert res.point == P(0, 0)
        assert res.sqdist == 1
        assert res.support == ()

    def test_projection_to_ray(self):
        res = nearest_cone_point(P(1, 1), [P(1, 0)])
        assert res.point == P(1, 0)
        assert res.sqdist == 1

    def test_optimality_conditions(self):
        rng = random.Random(9)
        for _ in range(40):
            gens = []
            while len(gens) < 3:
                g = tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
                if any(g):
                    gens.append(g)
            v = tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
            if not any(v):
                continue
            res = nearest_cone_point(v, gens)
            w = sub(v, res.point)
            assert dot(w, res.point) == 0
            assert all(dot(w, g) <= 0 for g in gens)
            # no generator ray or apex is closer
            for q in [P(0, 0, 0)] + gens:
                diff = sub(v, q)
                assert res.sqdist <= dot(diff, diff)

    def test_rejects_oversized_input(self):
        with pytest.raises(ValueError):
            nearest_cone_point(P(1, 1), [P(1, 0), P(0, 1), P(1, 1)])


class TestDimensionChecks:
    def test_spans_space_mixed_dims(self):
        with pytest.raises(DimensionMismatch):
            spans_space([P(1, 0), P(1, 0, 0)])

    def test_spanning_mixed_dims(self):
        for pts in ([P(1, 0), P(1, 0, 0)], [P(1, 0, 0), P(-1, 0), P(0, 1)]):
            with pytest.raises(DimensionMismatch):
                spanning(pts)
