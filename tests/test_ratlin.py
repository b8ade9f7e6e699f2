"""Exact linear algebra and the phase-1 simplex."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorsteinitz.cones import FarkasWitness, clear_span_cache, spanning, spans_space
from colorsteinitz.errors import DimensionMismatch, ParseError
from colorsteinitz.ratlin import (
    Feasible,
    Infeasible,
    dot,
    in_linear_hull,
    integer_line,
    integer_ray,
    lp_feasibility,
    null_space,
    parse_rat,
    primitive_ray,
    pt,
    rank,
    rref,
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


def reference_lp_feasibility(cols, target):
    """The Fraction-tableau phase-1 simplex that lp_feasibility replaced.

    Bland's rule on a tableau of Fractions, divided through by each pivot;
    lp_feasibility must return exactly what this returns.
    """
    d = len(target)
    n = len(cols)
    zero, one = Fraction(0), Fraction(1)
    if d == 0:
        return Feasible((zero,) * n)
    sgn = [one if target[i] >= 0 else -one for i in range(d)]
    tab = [
        [sgn[i] * cols[j][i] for j in range(n)] + [one if k == i else zero for k in range(d)]
        for i in range(d)
    ]
    rhs = [sgn[i] * target[i] for i in range(d)]
    basis = list(range(n, n + d))
    red = [-sum(tab[i][j] for i in range(d)) for j in range(n)] + [zero] * d
    while True:
        enter = next((j for j in range(n + d) if red[j] < 0), None)
        if enter is None:
            break
        best = None
        for i in range(d):
            if tab[i][enter] > 0:
                key = (rhs[i] / tab[i][enter], basis[i])
                if best is None or key < best[0]:
                    best = (key, i)
        li = best[1]
        pv = tab[li][enter]
        if pv != 1:
            tab[li] = [x / pv for x in tab[li]]
            rhs[li] /= pv
        for i in range(d):
            if i != li and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [a - f * b for a, b in zip(tab[i], tab[li])]
                rhs[i] -= f * rhs[li]
        f = red[enter]
        red = [a - f * b for a, b in zip(red, tab[li])]
        basis[li] = enter
    if sum((rhs[i] for i in range(d) if basis[i] >= n), zero) == 0:
        lam = [zero] * n
        for i in range(d):
            if basis[i] < n:
                lam[basis[i]] = rhs[i]
        return Feasible(tuple(lam))
    w = tuple(sgn[i] * (1 - red[n + i]) for i in range(d))
    return Infeasible(primitive_ray(w))


def reference_rref(rows):
    """The Fraction Gauss-Jordan loop that rref replaced: divide the pivot
    row by its pivot, then clear the pivot column in every other row."""
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    pivots = []
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        if pv != 1:
            pv = Fraction(pv)
            m[r] = [x / pv for x in m[r]]
        for i in range(nr):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return m, pivots


def reference_null_space(rows, ncols):
    """null_space built on reference_rref."""
    m, pivots = reference_rref(rows)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][f]
        basis.append(tuple(map(Fraction, integer_line(v))))
    return basis


def reference_solve_columns(cols, target):
    """solve_columns built on reference_rref."""
    n = len(cols)
    aug = [[c[i] for c in cols] + [target[i]] for i in range(len(target))]
    m, pivots = reference_rref(aug)
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for r, pc in enumerate(pivots):
        x[pc] = m[r][n]
    return x


def _random_matrix(rng):
    """A seeded matrix: 1..6 rows of 0..6 columns, int, Fraction or mixed
    entries, and zero, repeated and proportional rows."""
    nr, nc = rng.randint(1, 6), rng.randint(0, 6)
    kind = rng.choice(("int", "fraction", "mixed"))
    rows = []
    for _ in range(nr):
        roll = rng.random()
        if roll < 0.1:
            rows.append((0,) * nc)
            continue
        if rows and roll < 0.35:
            rows.append(tuple(rng.randint(-3, 3) * x for x in rng.choice(rows)))
            continue
        row = [rng.randint(-4, 4) * rng.randint(0, 1) for _ in range(nc)]
        if kind != "int":
            row = [
                Fraction(x, rng.randint(1, 5)) if kind == "fraction" or j % 2 else x
                for j, x in enumerate(row)
            ]
        rows.append(tuple(row))
    return rows


def _random_lp(rng):
    """A seeded lp_feasibility input: d = 0..5, n = 0..9, int, Fraction or
    mixed entries, zero and repeated columns, and the targets -sum(cols)
    (the spanning test), random ones and zero."""
    d = rng.randint(0, 5)
    n = rng.randint(0, 9)
    kind = rng.choice(("int", "fraction", "mixed"))
    bound = rng.choice((1, 3, 9))

    def entry():
        x = rng.randint(-bound, bound)
        if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
            return x
        return Fraction(x, rng.randint(1, 6))

    cols = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.1:
            cols.append((0,) * d if kind == "int" else (Fraction(0),) * d)
        elif roll < 0.25 and cols:
            col = rng.choice(cols)
            cols.append(tuple(x * rng.randint(1, 3) for x in col) if rng.random() < 0.5 else col)
        else:
            cols.append(tuple(entry() for _ in range(d)))
    roll = rng.random()
    if roll < 0.4 and cols:
        target = tuple(-sum(c[i] for c in cols) for i in range(d))
    elif roll < 0.45:
        target = (0,) * d
    else:
        target = tuple(entry() for _ in range(d))
    return cols, target


class TestRank:
    def test_identity(self):
        assert rank([P(1, 0), P(0, 1)]) == 2

    def test_proportional_rows(self):
        assert rank([P(1, 2), P(2, 4)]) == 1

    def test_empty(self):
        assert rank([]) == 0

    def test_non_rectangular(self):
        for f, rows in (
            (rank, [P(1, 0), P(1)]),
            (rref, [(1, 2), (3,)]),
            (null_space, [(0, 1), (1, 2, 3)]),
        ):
            with pytest.raises(DimensionMismatch):
                f(rows)

    def test_against_rref(self):
        rng = random.Random(5)
        for _ in range(400):
            rows = _random_matrix(rng)
            assert rank(rows) == len(reference_rref(rows)[1])

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

    def test_null_space_of_empty_matrix(self):
        with pytest.raises(ValueError):
            null_space([])


class TestFractionFreeEchelon:
    """rref, null_space and solve_columns against the Fraction loop they replaced."""

    def test_same_answers_as_fraction_rref(self):
        rng = random.Random(2025)
        for _ in range(3000):
            rows = _random_matrix(rng)
            m, pivots = rref(rows)
            want_m, want_pivots = reference_rref(rows)
            assert (m, pivots) == (want_m, want_pivots), rows
            assert all(type(x) is Fraction for row in m for x in row)
            ncols = len(rows[0])
            basis = null_space(rows)
            assert basis == reference_null_space(rows, ncols), rows
            assert all(type(x) is Fraction for v in basis for x in v)
            # the rows as columns, solved for a random target and for one in their span
            cols = rows
            target = tuple(rng.randint(-3, 3) for _ in range(ncols))
            if rng.random() < 0.5:
                target = tuple(sum(rng.randint(-2, 2) * c[i] for c in cols) for i in range(ncols))
            x = solve_columns(cols, target)
            assert x == reference_solve_columns(cols, target), (cols, target)
            if x is not None:
                assert all(type(c) is Fraction for c in x)


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

    def test_lp_feasibility_of_nearly_parallel_columns(self):
        # in floats both columns are (1e17, 1e17) and the target lies between
        big = 10**17
        cols = [(big + 1, big), (big, big - 1)]
        res = lp_feasibility(cols, (2 * big + 1, 2 * big - 1))
        assert res == Feasible((Fraction(1), Fraction(1)))
        assert all(type(c) is Fraction for c in res.coefficients)
        res = lp_feasibility(cols, (big, big + 1))
        assert isinstance(res, Infeasible)
        assert all(type(x) is Fraction for x in res.witness)
        _verify_feasibility(cols, (big, big + 1), res)
        assert res == reference_lp_feasibility(cols, (big, big + 1))

    def test_spanning_of_nearly_parallel_rays(self):
        # a is 45 degrees less 1/(2 * 10**17 + 2) radians and b is 225 degrees
        # less 1/(2 * 10**17): the gap from a to b is just under 180 degrees,
        # where floats see two opposite rays
        big = 10**17
        a, b = (big + 1, big), (-big, -(big - 1))
        clear_span_cache()
        assert spanning((a, b, (1, -1)))
        assert not spanning((a, b, (-1, 1)))
        assert spanning((a, b, (1, -1), (-1, 1)))

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

    def test_integer_ray(self):
        for p, want in (
            (P("2/3", "4/3"), (1, 2)),
            (P(-6, "9/2"), (-4, 3)),
            ((0, -6, 4), (0, -3, 2)),
            (P(7), (1,)),
        ):
            ray = integer_ray(p)
            assert ray == want and all(type(x) is int for x in ray)
            assert ray == primitive_ray(p) and hash(ray) == hash(primitive_ray(p))

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

    def test_zero_dimension(self):
        # in R^0 every target is the zero combination of the n columns
        res = lp_feasibility([(), ()], ())
        assert res == Feasible((Fraction(0), Fraction(0)))
        assert all(type(c) is Fraction for c in res.coefficients)
        assert lp_feasibility([], ()) == Feasible(())

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


class TestIntegerTableau:
    """lp_feasibility (int tableau) against the Fraction tableau it replaced."""

    def test_same_repr_as_fraction_tableau(self):
        rng = random.Random(2024)
        seen = {"feasible": 0, "infeasible": 0}
        for _ in range(3000):
            cols, target = _random_lp(rng)
            got = lp_feasibility(cols, target)
            assert repr(got) == repr(reference_lp_feasibility(cols, target)), (cols, target)
            if isinstance(got, Feasible):
                seen["feasible"] += 1
                assert all(type(c) is Fraction for c in got.coefficients)
            else:
                seen["infeasible"] += 1
                assert all(type(x) is Fraction for x in got.witness)
            if target:
                _verify_feasibility(cols, target, got)
        assert min(seen.values()) > 500

    def test_degenerate_ties(self):
        # repeated and zero columns give equal ratios, settled by basis order
        cols = [P(1, 1), P(1, 1), P(0, 0), P(2, 2), P(1, 0), P(0, 1)]
        for target in (P(1, 1), P(2, 1), P(0, 0), P(-1, 0), P(3, 3)):
            assert repr(lp_feasibility(cols, target)) == repr(
                reference_lp_feasibility(cols, target)
            )
