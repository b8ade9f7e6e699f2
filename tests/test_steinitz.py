"""Two-sided reduction to 2d generators and the below-2d refinement."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from colorsteinitz import steinitz
from colorsteinitz.cones import SpanCertificate, spanning
from colorsteinitz.errors import DimensionMismatch, NotSpanning, RecursionInvariantViolation
from colorsteinitz.oracle import generate_random
from colorsteinitz.ratlin import in_linear_hull
from colorsteinitz.steinitz import (
    BasisCaseWitness,
    ReducedSet,
    generic_direction,
    refine_below_2d,
    steinitz_reduce,
)

from conftest import pt as P, units


class TestGenericDirection:
    def test_off_both_axes(self):
        v = generic_direction(units(2))
        assert v[0] != 0 and v[1] != 0

    def test_single_point(self):
        v = generic_direction([P(1, 0)])
        assert not in_linear_hull(v, [P(1, 0)])

    def test_exhaustive_contract_3d(self):
        rng = random.Random(31)
        pts = []
        while len(pts) < 6:
            p = tuple(Fraction(rng.randint(-4, 4)) for _ in range(3))
            if any(p):
                pts.append(p)
        v = generic_direction(pts)
        for s in combinations(pts, 2):
            assert not in_linear_hull(v, list(s))

    def test_empty_input_raises_value_error(self):
        with pytest.raises(ValueError):
            generic_direction([])

    @pytest.mark.parametrize(
        "pts",
        [
            [P(1, 0, 0), P(0, 1), P(0, 0, 1)],
            [P(1, 2), P(3, 4), P(1, 1, 1)],
            [P(1), P(1, 1)],
        ],
    )
    def test_mixed_dimensions_raise(self, pts):
        with pytest.raises(DimensionMismatch):
            generic_direction(pts)

    def test_walk_bound_is_enforced(self, monkeypatch):
        # a zero normal puts every v(t) in the hull, so the walk must stop
        monkeypatch.setattr(steinitz, "_hull_normals", lambda lines, d, plan: ((0,) * d,))
        with pytest.raises(RecursionInvariantViolation):
            generic_direction(units(3))

    def test_rank_deficient_hull(self):
        # three distinct lines spanning only a plane that contains v(1)
        v = generic_direction([P(1, 1, 1, 1), P(0, 1, 2, 3), P(1, 2, 3, 4)])
        assert v == P(1, 2, 4, 8)

    def test_matches_subset_walk(self):
        """Same v as the walk that tests every min(d-1, n)-subset by rref."""
        cases = _differential_inputs()
        kinds = {kind for kind, _ in cases}
        assert kinds == {"integer", "fraction", "repeat", "zero", "few", "flat", "union"}
        assert {len(pts[0]) for _, pts in cases} == {1, 2, 3, 4}
        assert len(cases) >= 300
        for kind, pts in cases:
            v = generic_direction(pts)
            assert v == _subset_walk(pts), (kind, pts)
            assert all(type(x) is Fraction for x in v)


def _subset_walk(points):
    """Reference: the least t whose v(t) no min(d-1, n)-subset spans."""
    d = len(points[0])
    subsets = list(combinations(points, min(d - 1, len(points))))
    t = 1
    while True:
        v = tuple(Fraction(t) ** i for i in range(d))
        if all(not in_linear_hull(v, s) for s in subsets):
            return v
        t += 1


def _differential_inputs():
    """Seeded (kind, points) inputs for d = 1..4 and every degenerate kind."""
    rng = random.Random(2024)

    def point(d, den=1):
        return tuple(Fraction(rng.randint(-3, 3), rng.randint(1, den)) for _ in range(d))

    cases = []
    for i in range(320):
        d = 1 + i % 4
        kind = ("integer", "fraction", "repeat", "zero", "few", "flat")[i // 4 % 6]
        if kind == "few":  # fewer than d-1 points when d >= 3
            pts = [point(d, 2) for _ in range(rng.randint(1, max(1, d - 2)))]
        elif kind == "flat":  # a plane through v(1) or v(2): rank-deficient hulls
            plane = [tuple(Fraction(rng.randint(1, 2) ** j) for j in range(d)), point(d)]
            pts = []
            for _ in range(rng.randint(2, d + 2)):
                a, b = rng.randint(-2, 2), rng.randint(-2, 2)
                pts.append(tuple(a * x + b * y for x, y in zip(*plane)))
        else:
            pts = [point(d, 3 if kind == "fraction" else 1) for _ in range(rng.randint(2, 7))]
        if kind == "repeat":  # positive and negative multiples of earlier points
            for _ in range(rng.randint(1, 3)):
                q = rng.choice(pts)
                pts.append(tuple(Fraction(rng.choice((-2, -1, 1, 3)), 2) * x for x in q))
        if kind == "zero":
            pts.insert(rng.randrange(len(pts) + 1), (Fraction(0),) * d)
        cases.append((kind, pts))
    # unions of generated colour systems; at d=4 three colours keep the
    # reference walk short
    for seed in range(3):
        cases.append(("union", [p for s in generate_random(3, seed=seed).sets for p in s]))
        cases.append(("union", [p for s in generate_random(4, seed=seed).sets[:3] for p in s]))
    return cases


def _random_spanning(rng, d, n):
    while True:
        pts = []
        while len(pts) < n:
            p = tuple(Fraction(rng.randint(-3, 3)) for _ in range(d))
            if any(p):
                pts.append(p)
        if spanning(tuple(pts)):
            return pts


class TestSteinitzReduce:
    def test_basis_input_keeps_all(self):
        res = steinitz_reduce(units(2))
        assert len(res.indices) == 4
        assert isinstance(res.certificate, SpanCertificate)

    def test_with_extra_point(self):
        pts = list(units(2)) + [P(1, 1)]
        res = steinitz_reduce(pts)
        assert len(res.indices) <= 4
        chosen = tuple(pts[i] for i in res.indices)
        assert res.certificate.verify(chosen)

    def test_dimension_one(self):
        res = steinitz_reduce([P(1), P(-1)])
        assert res.indices == (0, 1)

    def test_not_spanning_raises(self):
        with pytest.raises(NotSpanning) as exc:
            steinitz_reduce([P(1, 0), P(0, 1)])
        assert exc.value.witness.verify([P(1, 0), P(0, 1)])

    def test_random_bound_and_certificate(self):
        rng = random.Random(41)
        for d in (2, 3, 4):
            for _ in range(10):
                pts = _random_spanning(rng, d, d + 3)
                res = steinitz_reduce(pts)
                assert len(res.indices) <= 2 * d
                chosen = tuple(pts[i] for i in res.indices)
                assert res.certificate.verify(chosen)


class TestBasisCase:
    def test_empty_input_raises_value_error(self):
        with pytest.raises(ValueError):
            steinitz.basis_case([])

    def test_rays_come_back_as_fractions(self):
        basis = steinitz.basis_case([P(2, 0), P(0, "-1/3"), P(-5, 0), P(0, 4)])
        assert basis == (P(1, 0), P(0, -1))
        assert all(type(x) is Fraction for r in basis for x in r)


class TestRefineBelow2d:
    def test_empty_input_raises_value_error(self):
        with pytest.raises(ValueError):
            refine_below_2d([])

    def test_basis_case_witness(self):
        res = refine_below_2d(units(2))
        assert isinstance(res, BasisCaseWitness)
        assert len(res.basis) == 2

    def test_basis_case_ray_level(self):
        # rescaled and duplicated rays still count as the plus-minus basis
        pts = [P(2, 0), P(-1, 0), P(0, 3), P(0, "-1/2"), P(4, 0)]
        res = refine_below_2d(pts)
        assert isinstance(res, BasisCaseWitness)

    def test_extra_point_breaks_basis_case(self):
        pts = list(units(2)) + [P(1, 1)]
        res = refine_below_2d(pts)
        assert isinstance(res, ReducedSet)
        assert len(res.indices) <= 3
        chosen = tuple(pts[i] for i in res.indices)
        assert res.certificate.verify(chosen)

    def test_simplex_already_small(self):
        pts = [P(1, 0), P(0, 1), P(-1, -1)]
        res = refine_below_2d(pts)
        assert isinstance(res, ReducedSet)
        assert res.indices == (0, 1, 2)

    def test_oracle_cross_check_d2(self):
        """Exhaustive d=2 check against brute-force minimum subset search."""
        rays = [P(x, y) for x in range(-2, 3) for y in range(-2, 3) if (x, y) != (0, 0)]
        rng = random.Random(53)
        cases = 0
        while cases < 40:
            pts = rng.sample(rays, rng.randint(5, 7))
            if not spanning(tuple(pts)):
                continue
            cases += 1
            res = refine_below_2d(pts)
            brute_has_small = any(
                spanning(tuple(pts[i] for i in combo))
                for k in (3,)
                for combo in combinations(range(len(pts)), k)
            )
            if isinstance(res, BasisCaseWitness):
                assert not brute_has_small
            else:
                assert len(res.indices) <= 3
                assert brute_has_small
