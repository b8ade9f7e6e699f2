"""Conic predicates, certificates, and the exact nearest-point computation."""

import ast
import importlib
import inspect
import pkgutil
import random
from fractions import Fraction
from itertools import combinations

import pytest

import colorsteinitz
from colorsteinitz import cones
from colorsteinitz.cli import main
from colorsteinitz.colorful import ColourSystem, classify, colorful_transversal
from colorsteinitz.cones import (
    ConicCertificate,
    FarkasWitness,
    SpanCertificate,
    clear_span_cache,
    integer_rays,
    nearest_cone_point,
    pos_membership,
    refute_spanning,
    separating_witness,
    spanning,
    spans_space,
)
from colorsteinitz.errors import (
    DimensionMismatch,
    RecursionInvariantViolation,
    ZeroPoint,
)
from colorsteinitz.instancefile import InstanceFile, emit_instance
from colorsteinitz.oracle import enumerate_report, generate_random
from colorsteinitz.ratlin import dot, integer_ray, rank, sub
from colorsteinitz.steinitz import refine_below_2d, steinitz_reduce

from conftest import pt as P, simplex, units


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


class TestSpanningDecision:
    def test_agrees_with_spans_space(self):
        clear_span_cache()
        cases = _decision_inputs()
        assert len(cases) >= 300
        decisions = []
        for pts in cases:
            decided = spanning(pts)
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


def _memo_answers(after_each=lambda: None):
    """spanning, spans_space and integer_rays on a slice of the decision inputs."""
    answers = []
    for pts in _decision_inputs()[::3]:
        answers.append((spanning(pts), spans_space(pts), integer_rays(pts)))
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


class TestNearestConePoint:
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


class TestSeparatingWitness:
    def test_apex_case(self):
        w = separating_witness(P(-1, 0), P(0, 0))
        assert w.w == P(-1, 0)
        assert w.verify([P(0, 1)])

    def test_ray_case(self):
        w = separating_witness(P(1, 1), P(1, 0))
        assert w.w == P(0, 1)
        assert dot(w.w, P(1, 0)) <= 0
        assert dot(w.w, P(1, 1)) > 0

    def test_two_generator_case(self):
        w = separating_witness(P(0, -2), P(0, 0))
        assert w.w == P(0, -2)
        assert w.verify([P(1, 0), P(0, 1)])

    def test_rejects_interior_point(self):
        with pytest.raises(ValueError):
            separating_witness(P(1, 1), P(1, 1))


class TestDimensionChecks:
    def test_spans_space_mixed_dims(self):
        with pytest.raises(DimensionMismatch):
            spans_space([P(1, 0), P(1, 0, 0)])

    def test_spanning_mixed_dims(self):
        for pts in ([P(1, 0), P(1, 0, 0)], [P(1, 0, 0), P(-1, 0), P(0, 1)]):
            with pytest.raises(DimensionMismatch):
                spanning(pts)
