"""Exact linear algebra and the phase-1 simplex."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorsteinitz.cones import FarkasWitness, spans_space
from colorsteinitz.errors import DimensionMismatch, ParseError
from colorsteinitz.ratlin import (
    Feasible,
    Infeasible,
    column_null_space,
    dot,
    in_linear_hull,
    integer_line,
    lp_feasibility,
    null_space,
    parse_rat,
    primitive_ray,
    pt,
    rank,
    same_ray,
    solve_columns,
)

from conftest import pt as P


def bareiss_rank(rows):
    """Independent rank oracle: fraction-free Bareiss elimination on integers.

    Clears denominators first, then runs the classic two-step division-free
    elimination.  Shares no code with rref.
    """
    if not rows:
        return 0
    den = 1
    for r in rows:
        for x in r:
            den = den * x.denominator // __import__("math").gcd(den, x.denominator)
    m = [[int(x * den) for x in r] for r in rows]
    nr, nc = len(m), len(m[0])
    prev = 1
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(nr):
            if i == r:
                continue
            for j in range(nc):
                if j == c:
                    continue
                m[i][j] = (m[i][j] * m[r][c] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        if r == nr:
            break
    return r


class TestRank:
    def test_identity(self):
        assert rank([P(1, 0), P(0, 1)]) == 2

    def test_proportional_rows(self):
        assert rank([P(1, 2), P(2, 4)]) == 1

    def test_empty(self):
        assert rank([]) == 0

    def test_non_rectangular(self):
        with pytest.raises(DimensionMismatch):
            rank([P(1, 0), P(1,)])

    def test_against_bareiss_oracle(self):
        rng = random.Random(7)
        for _ in range(60):
            rows = [
                tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3))
                for _ in range(5)
            ]
            assert rank(rows) == bareiss_rank(rows)

    def test_invariance_under_scaling_and_permutation(self):
        rng = random.Random(11)
        for _ in range(20):
            rows = [tuple(Fraction(rng.randint(-4, 4)) for _ in range(4)) for _ in range(4)]
            base = rank(rows)
            scaled = [tuple(Fraction(rng.randint(1, 5)) * x for x in r) for r in rows]
            assert rank(scaled) == base
            perm = list(rows)
            rng.shuffle(perm)
            assert rank(perm) == base


class TestLinearHull:
    def test_off_axis(self):
        assert not in_linear_hull(P(1, 1), [P(1, 0)])

    def test_scaling(self):
        assert in_linear_hull(P(2, 0), [P(1, 0)])

    def test_three_dim_combination(self):
        assert in_linear_hull(P(1, 1, 1), [P(1, 0, 0), P(0, 1, 1)])

    def test_empty_hull(self):
        assert in_linear_hull(P(0, 0), [])
        assert not in_linear_hull(P(1, 0), [])


class TestSolveAndNullSpace:
    def test_solve_exact(self):
        x = solve_columns([P(1, 0, 0), P(0, 1, 1)], P(1, 1, 1))
        assert x == [Fraction(1), Fraction(1)]

    def test_solve_none(self):
        assert solve_columns([P(1, 0)], P(0, 1)) is None

    def test_null_space_deterministic_primitive(self):
        basis = null_space([P(1, 1)])
        assert basis == [P(1, -1)]

    def test_column_null_space_dependence(self):
        deps = column_null_space([P(1, 0), P(0, 1), P(-1, -1)])
        assert len(deps) == 1
        mu = deps[0]
        acc = [
            sum(mu[j] * col[i] for j, col in enumerate([P(1, 0), P(0, 1), P(-1, -1)]))
            for i in range(2)
        ]
        assert acc == [0, 0]


class TestIntCoordinates:
    """Plain int input stays exact: no pivot may divide int by int."""

    def test_rank_of_nearly_parallel_rows(self):
        # determinant -1, but the rows agree to 17 digits
        assert rank([(10**17 + 1, 10**17), (10**17, 10**17 - 1)]) == 2

    def test_solve_columns(self):
        x = solve_columns([(2, 1), (1, 3)], (1, 1))
        assert x == [Fraction(2, 5), Fraction(1, 5)]
        assert all(isinstance(c, Fraction) for c in x)

    def test_null_space(self):
        basis = null_space([(2, 1, 0), (1, 3, 1)])
        assert basis == [P(1, -2, 5)]
        assert all(isinstance(c, Fraction) for c in basis[0])

    def test_spans_space_rank_deficient(self):
        res = spans_space(((2, 0), (4, 0)))
        assert res == FarkasWitness(P(0, 1), P(0, 1))
        assert res.verify(((2, 0), (4, 0)))


class TestRationalIO:
    def test_parse_plain_and_fraction(self):
        assert parse_rat("3") == 3
        assert parse_rat("-2/6") == Fraction(-1, 3)

    def test_parse_rejects_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_rat("1/0")

    def test_parse_rejects_sign_on_denominator(self):
        with pytest.raises(ParseError):
            parse_rat("1/-2")

    def test_lowest_terms(self):
        q = parse_rat("4/6")
        assert (q.numerator, q.denominator) == (2, 3)


class TestRays:
    def test_primitive_ray(self):
        assert primitive_ray(P("2/3", "4/3")) == P(1, 2)

    def test_integer_line(self):
        assert integer_line(P("-2/3", "4/3")) == (1, -2)
        assert integer_line((0, -6, 4)) == (0, 3, -2)
        assert integer_line((0, 0)) is None

    def test_same_ray_positive_multiples_only(self):
        assert same_ray(P(1, 2), P(2, 4))
        assert not same_ray(P(1, 2), P(-1, -2))
        assert not same_ray(P(0, 0), P(0, 0))


def _verify_feasibility(cols, target, result):
    if isinstance(result, Feasible):
        lam = result.coefficients
        assert all(c >= 0 for c in lam)
        acc = [sum(lam[j] * cols[j][i] for j in range(len(cols))) for i in range(len(target))]
        assert tuple(acc) == tuple(target)
        supp = [cols[j] for j in range(len(cols)) if lam[j] != 0]
        assert len(supp) <= len(target)
        assert rank(supp) == len(supp)
    else:
        w = result.witness
        assert all(dot(w, c) <= 0 for c in cols)
        assert dot(w, tuple(target)) > 0


class TestLpFeasibility:
    def test_axis_combination(self):
        res = lp_feasibility([P(1, 0), P(0, 1)], P(2, 3))
        assert isinstance(res, Feasible)
        assert res.coefficients == (Fraction(2), Fraction(3))

    def test_farkas_witness(self):
        res = lp_feasibility([P(1, 0), P(0, 1)], P(-1, 0))
        assert isinstance(res, Infeasible)
        assert res.witness == P(-1, 0)

    def test_basic_solution(self):
        cols = [P(1, 0), P(0, 1), P(1, 1)]
        res = lp_feasibility(cols, P(3, 1))
        assert isinstance(res, Feasible)
        assert sum(1 for c in res.coefficients if c != 0) <= 2
        _verify_feasibility(cols, P(3, 1), res)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            lp_feasibility([P(1, 0, 0)], P(1, 0))

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(*(st.integers(-4, 4) for _ in range(3))).filter(
                lambda t: any(t)
            ),
            min_size=1,
            max_size=7,
        ),
        st.tuples(*(st.integers(-4, 4) for _ in range(3))),
    )
    def test_certificate_always_verifies(self, gens, target):
        cols = [pt(*g) for g in gens]
        tgt = pt(*target)
        res = lp_feasibility(cols, tgt)
        _verify_feasibility(cols, tgt, res)

    def test_degenerate_plus_minus_basis(self):
        cols = [P(1, 0), P(-1, 0), P(0, 1), P(0, -1)]
        for tgt in (P(1, 0), P(-1, 0), P(0, 1), P(0, -1), P(1, 1)):
            res = lp_feasibility(cols, tgt)
            assert isinstance(res, Feasible)
            _verify_feasibility(cols, tgt, res)
