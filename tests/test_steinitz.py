"""Two-sided reduction to 2d generators and the below-2d refinement."""

import random
from fractions import Fraction
from itertools import combinations
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorsteinitz import cones, steinitz
from colorsteinitz.certio import render_span
from colorsteinitz.checkcert import CheckFailure, check_text
from colorsteinitz.colorful import colorful_transversal
from colorsteinitz.cones import SpanCertificate, clear_span_cache, spanning
from colorsteinitz.errors import DimensionMismatch, NotSpanning, RecursionInvariantViolation
from colorsteinitz.oracle import generate_random
from colorsteinitz.ratlin import in_linear_hull, integer_line, null_space, rank
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
        # a hull test that puts every v(t) in some hull: the walk must stop
        clear_span_cache()  # a memoised direction would skip the walk
        monkeypatch.setattr(steinitz, "_hull_test", lambda lines, d: lambda v: True)
        with pytest.raises(RecursionInvariantViolation):
            generic_direction(units(3))

    def test_memo_hit_returns_the_cold_direction(self):
        union = [p for s in generate_random(3, seed=0).sets for p in s]
        clear_span_cache()
        cold = generic_direction(union)
        key = (3, frozenset(map(integer_line, union)) - {None})
        assert cones._DIRECTIONS == {key: cold}
        assert generic_direction(list(reversed(union))) == cold
        assert generic_direction([tuple(2 * x for x in p) for p in union]) == cold
        assert len(cones._DIRECTIONS) == 1
        # all-zero inputs have no lines: only d tells their keys apart
        assert generic_direction([P(0, 0)]) == P(1, 1)
        assert generic_direction([P(0, 0, 0)]) == P(1, 1, 1)

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
            clear_span_cache()  # test the walk, not the memo
            v = generic_direction(pts)
            assert v == _subset_walk(pts), (kind, pts)
            assert all(type(x) is Fraction for x in v)

    def test_matches_hull_normal_walk(self):
        """Same v as the walk over every hull's integer normals."""
        cases = _hull_walk_inputs()
        kinds = {kind for kind, _ in cases}
        assert kinds == {"random", "flat", "zero", "repeat", "antipodal", "union"}
        assert {len(pts[0]) for _, pts in cases} == {1, 2, 3, 4, 5}
        assert len(cases) >= 3000
        stepped = set()
        for kind, pts in cases:
            clear_span_cache()  # test the walk, not the memo
            v = generic_direction(pts)
            assert v == reference_generic_direction(pts), (kind, pts)
            if v[1:] and v[1] > 1:
                stepped.add(kind)
        # every kind has inputs that the walk does not accept at t = 1
        assert stepped == kinds

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 4).flatmap(
            lambda d: st.lists(
                st.tuples(*(st.integers(-3, 3) for _ in range(d))), min_size=1, max_size=7
            )
        ),
        st.randoms(use_true_random=False),
        st.sampled_from([Fraction(-3, 2), Fraction(-1), Fraction(1, 2), Fraction(5)]),
    )
    def test_invariant_under_line_preserving_changes(self, rows, rng, factor):
        pts = [P(*r) for r in rows]
        d = len(pts[0])
        clear_span_cache()
        v = generic_direction(pts)
        changed = [
            rng.sample(pts, len(pts)),
            [tuple(factor * x for x in p) for p in pts],
            pts + [rng.choice(pts)],
            pts[:1] + [(Fraction(0),) * d] + pts[1:],
        ]
        for other in changed:
            clear_span_cache()  # all share v's memo key: walk each afresh
            assert generic_direction(other) == v
        # off every hull of min(d-1, n) points: adding v raises the rank
        for s in combinations(pts, min(d - 1, len(pts))):
            assert rank(list(s) + [v]) == rank(list(s)) + 1


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


def reference_generic_direction(points):
    """The hull-normal walk that generic_direction replaced.

    Every min(d-1, L)-subset of the L distinct lines is one hull, described
    by its integer normals: the raw signed (d-1)-minors when d-1 lines are
    independent, else an exact null space basis.  It returns v(t) for the
    least t at which every hull has a normal n with n . v(t) != 0.
    """
    d = len(points[0])
    lines = set(map(integer_line, points)) - {None}
    k = min(d - 1, len(lines))
    hulls = {_hull_normals(s, d) for s in combinations(lines, k)} if k else set()
    for t in range(1, (d - 1) * len(hulls) + 2):
        powers = [t**i for i in range(d)]
        if all(any(sum(map(mul, n, powers)) for n in normals) for normals in hulls):
            return tuple(Fraction(x) for x in powers)
    raise AssertionError("reference walk passed its bound")


def _hull_normals(lines, d):
    """The raw signed (d-1)-minors of d-1 independent lines, not made
    primitive; otherwise the exact null space basis."""
    if len(lines) == d - 1:
        # expand along the last row; minors[cols] of the rows so far
        minors = {(c,): x for c, x in enumerate(lines[0])}
        for s, row in enumerate(lines[1:], 2):
            minors = {
                cols: sum(
                    (-1) ** (s - 1 + i) * row[c] * minors[cols[:i] + cols[i + 1 :]]
                    for i, c in enumerate(cols)
                )
                for cols in combinations(range(d), s)
            }
        normal = tuple(
            (-1) ** j * minors[tuple(c for c in range(d) if c != j)] for j in range(d)
        )
        if any(normal):
            return (normal,)
    return tuple(tuple(int(x) for x in b) for b in null_space(list(lines)))


def _hull_walk_inputs():
    """Seeded (kind, points) inputs for d = 1..5, each degenerate kind."""
    rng = random.Random(1616)

    def point(d):
        return tuple(Fraction(rng.randint(-3, 3)) for _ in range(d))

    def curve(d, t):
        return tuple(Fraction(t**j) for j in range(d))

    cases = []
    for i in range(3000):
        d = 1 + i % 5
        kind = ("random", "flat", "zero", "repeat", "antipodal")[i // 5 % 5]
        n = rng.randint(1, 9 - max(0, d - 3))
        pts = [point(d) for _ in range(n)]
        if kind == "flat":  # a flat of dimension < d through v(1) or v(2)
            basis = [curve(d, rng.randint(1, 2))]
            basis += [point(d) for _ in range(rng.randint(0, max(0, d - 2)))]
            pts = []
            for _ in range(n):
                coef = [rng.randint(-2, 2) for _ in basis]
                pts.append(tuple(sum(c * b[j] for c, b in zip(coef, basis)) for j in range(d)))
        elif kind == "zero":
            for _ in range(rng.randint(1, 2)):
                pts.insert(rng.randrange(len(pts) + 1), (Fraction(0),) * d)
        elif kind == "repeat":
            for _ in range(rng.randint(1, 3)):
                q = rng.choice(pts)
                pts.append(tuple(Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2))) * x for x in q))
        elif kind == "antipodal":
            for _ in range(rng.randint(1, 3)):
                pts.append(tuple(-rng.randint(1, 2) * x for x in rng.choice(pts)))
        cases.append((kind, pts))
    for seed in range(2):
        cases.append(("union", [p for s in generate_random(4, seed=seed).sets for p in s]))
    return cases


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

    def test_dependent_pairs_are_no_basis(self):
        # 2d rays closed under negation, but the three pairs span a plane
        pts = [P(1, 0, 0), P(-1, 0, 0), P(0, 1, 0), P(0, -1, 0), P(1, 1, 0), P(-1, -1, 0)]
        assert steinitz.basis_case(pts) is None


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


class TestUnionMemos:
    """A colour system's union is walked and reduced once, and a memo hit is
    the answer a cold call gives."""

    @staticmethod
    def _system_and_union():
        system = generate_random(3, seed=0)
        return system, [p for s in system.sets for p in s]

    def test_one_walk_and_two_lps_per_union(self, monkeypatch):
        system, union = self._system_and_union()
        calls = {"_hull_test": 0, "cone_caratheodory": 0}

        def counting(name):
            real = getattr(steinitz, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)

            return wrapper

        clear_span_cache()
        for name in calls:
            monkeypatch.setattr(steinitz, name, counting(name))
        warm = [colorful_transversal(system), steinitz_reduce(union), refine_below_2d(union)]
        assert calls == {"_hull_test": 1, "cone_caratheodory": 2}
        cold = []
        for run in (
            lambda: colorful_transversal(system),
            lambda: steinitz_reduce(union),
            lambda: refine_below_2d(union),
        ):
            clear_span_cache()
            cold.append(run())
        assert warm == cold

    def test_a_reordered_input_is_reduced_afresh(self):
        _, union = self._system_and_union()
        clear_span_cache()
        forward = steinitz_reduce(union)
        backward = list(reversed(union))
        res = steinitz_reduce(backward)
        assert check_text(render_span(res.certificate, [backward[i] for i in res.indices])) == [
            "span"
        ]
        # the forward answer would not do: its indices name other points
        with pytest.raises(CheckFailure):
            check_text(render_span(forward.certificate, [backward[i] for i in forward.indices]))
