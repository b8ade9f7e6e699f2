"""Cone reduction to basic supports and the colorful pivot."""

import random
from fractions import Fraction

import pytest

from colorsteinitz import caratheodory, cones
from colorsteinitz.caratheodory import (
    colorful_cone_caratheodory,
    cone_caratheodory,
)
from colorsteinitz.colorful import colorful_transversal
from colorsteinitz.cones import ConicCertificate, FarkasWitness, clear_span_cache, pos_membership
from colorsteinitz.errors import DimensionMismatch, NotInCone, PreconditionFailed, ZeroPoint
from colorsteinitz.oracle import generate_random
from colorsteinitz.ratlin import Feasible, lp_feasibility, primitive_ray, rank

from conftest import pt as P, simplex, units


def _random_instance(rng, d, size, precondition):
    """A target v and d sets of ``size`` nonzero points; with
    ``precondition``, a set whose cone misses v gets v as its last point."""
    v = tuple(Fraction(rng.randint(-2, 2)) for _ in range(d))
    if not any(v):
        v = P(*([1] * d))
    sets = []
    for _ in range(d):
        pts = []
        while len(pts) < size:
            p = tuple(Fraction(rng.randint(-3, 3)) for _ in range(d))
            if any(p):
                pts.append(p)
        if precondition and not isinstance(lp_feasibility(pts, v), Feasible):
            pts[-1] = v
        sets.append(pts)
    return v, sets


class TestConeCaratheodory:
    def test_exact_generator(self):
        idx, cert = cone_caratheodory(P(1, 1), [P(1, 0), P(0, 1), P(1, 1)])
        assert cert.verify([P(1, 0), P(0, 1), P(1, 1)])
        assert len(idx) <= 2
        assert all(c > 0 for c in cert.coefficients)

    def test_two_generator_recombination(self):
        gens = [P(1, 0), P(0, 1), P(1, 1)]
        idx, cert = cone_caratheodory(P(2, 1), gens)
        assert len(idx) <= 2
        assert cert.verify(gens)

    def test_bound_in_3d(self):
        gens = list(units(3)) + [P(1, 1, 1)]
        idx, cert = cone_caratheodory(P(1, 1, 1), gens)
        assert len(idx) <= 3
        assert cert.verify(gens)

    def test_support_independent_and_positive(self):
        rng = random.Random(17)
        for _ in range(30):
            gens = []
            while len(gens) < 6:
                g = tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
                if any(g):
                    gens.append(g)
            coeffs = [Fraction(rng.randint(0, 2)) for _ in gens]
            v = tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(3))
            if not any(v):
                continue
            idx, cert = cone_caratheodory(v, gens)
            assert all(c > 0 for c in cert.coefficients)
            supp = [gens[i] for i in idx]
            assert rank(supp) == len(supp)
            assert cert.verify(gens)

    def test_not_in_cone(self):
        with pytest.raises(NotInCone) as exc:
            cone_caratheodory(P(-1, -1), [P(1, 0), P(0, 1)])
        assert exc.value.witness.verify([P(1, 0), P(0, 1)])

    def test_zero_target(self):
        with pytest.raises(ZeroPoint):
            cone_caratheodory(P(0, 0), [P(1, 0)])


class TestColorfulConeCaratheodory:
    def test_two_colour_example(self):
        sets = [[P(1, 0), P(0, 1)], [P(1, 1), P(-1, 3)]]
        res = colorful_cone_caratheodory(P(1, 1), sets)
        assert len(res.picks) == 2
        assert {c for c, _ in res.picks} == {0, 1}
        picked = [sets[c][e] for c, e in res.picks]
        assert isinstance(lp_feasibility(picked, P(1, 1)), Feasible)
        assert res.certificate.verify(picked)

    def test_singleton_sets(self):
        sets = [[P(1, 1)], [P(1, 1)]]
        res = colorful_cone_caratheodory(P(2, 2), sets)
        assert res.picks == ((0, 0), (1, 0))
        assert res.certificate.verify([P(1, 1), P(1, 1)])

    def test_precondition_failure_names_colour(self):
        sets = [[P(1, 0), P(0, 1)], [P(-1, 0), P(0, -1)]]
        with pytest.raises(PreconditionFailed) as exc:
            colorful_cone_caratheodory(P(1, 1), sets)
        assert exc.value.colour == 1
        assert exc.value.witness.verify(sets[1], P(1, 1))
        assert exc.value.witness.w == P(0, 1)

    def test_pivot_makes_no_lp(self, monkeypatch):
        def no_lp(*args):
            raise AssertionError("the pivot made an LP")

        clear_span_cache()
        monkeypatch.setattr(caratheodory, "pos_membership", no_lp)
        monkeypatch.setattr(cones, "lp_feasibility", no_lp)
        sets = [simplex(2), [P(2, 0), P(0, 3), P(-1, -1), P(1, 1)]]
        res = colorful_cone_caratheodory(P(1, -3), sets)
        assert res.certificate.verify([sets[c][e] for c, e in res.picks])
        with pytest.raises(PreconditionFailed) as exc:
            colorful_cone_caratheodory(P(1, 1), [simplex(2), [P(-1, 0), P(0, -1)]])
        assert exc.value.colour == 1

    def test_transversal_makes_2d_lps(self, monkeypatch):
        # the 2d LPs are the span certificate's, one per +-e_i
        calls = []

        def counting(cols, target):
            calls.append(target)
            return lp_feasibility(cols, target)

        for d in (2, 3, 4):
            for seed in range(3):
                system = generate_random(d, seed=seed)
                clear_span_cache()
                calls.clear()
                with monkeypatch.context() as m:
                    m.setattr(cones, "lp_feasibility", counting)
                    colorful_transversal(system)
                assert len(calls) == 2 * d, (d, seed)

    def test_empty_set_and_wrong_dimension(self):
        with pytest.raises(ValueError, match="colour set 1 is empty"):
            colorful_cone_caratheodory(P(1, 1), [[P(1, 0)], []])
        with pytest.raises(DimensionMismatch):
            colorful_cone_caratheodory(P(1, 1), [[P(1, 0)], [P(0, 1, 0)]])

    def test_wrong_number_of_sets(self):
        with pytest.raises(ValueError):
            colorful_cone_caratheodory(P(1, 1), [[P(1, 1)]])

    def test_random_d3_terminates_with_decreasing_trace(self):
        rng = random.Random(23)
        for _ in range(25):
            v, sets = _random_instance(rng, 3, 4, True)
            res = colorful_cone_caratheodory(v, sets)
            sq = [res.initial_sqdist] + [s.sqdist for s in res.trace]
            assert all(a > b for a, b in zip(sq, sq[1:]))
            if res.trace:
                assert res.trace[-1].sqdist == 0
            else:
                assert res.initial_sqdist == 0
            picked = [sets[c][e] for c, e in res.picks]
            assert isinstance(lp_feasibility(picked, v), Feasible)

    def test_equal_sets_reduce_to_basic_support(self):
        # all colours share one set: the colorful output doubles as a plain
        # Caratheodory certificate with at most d strictly positive weights
        gens = [P(1, 0), P(0, 1), P(1, 1), P(-1, 2)]
        res = colorful_cone_caratheodory(P(1, 2), [gens, gens])
        assert len(res.certificate.coefficients) <= 2
        assert all(c > 0 for c in res.certificate.coefficients)

    def test_zero_target_rejected(self):
        with pytest.raises(ZeroPoint):
            colorful_cone_caratheodory(P(0, 0), [[P(1, 0)], [P(0, 1)]])


class TestPivotCertifiesItself:
    """The pivot's own certificates against the membership LP, seeded."""

    def test_certificate_is_the_lps_on_rank_d_transversals(self):
        rng = random.Random(41)
        compared = 0
        for d in (2, 3, 4):
            for _ in range(40):
                v, sets = _random_instance(rng, d, 4, True)
                res = colorful_cone_caratheodory(v, sets)
                picked = [sets[c][e] for c, e in res.picks]
                assert res.certificate.verify(picked)
                assert all(c > 0 for c in res.certificate.coefficients)
                if rank(picked) == d:
                    assert res.certificate == pos_membership(v, picked)
                    compared += 1
        assert compared > 80

    def test_every_answer_verifies_without_the_precondition(self):
        rng = random.Random(43)
        raised = returned = 0
        for d in (2, 3, 4):
            for _ in range(40):
                v, sets = _random_instance(rng, d, rng.randint(1, 3), False)
                try:
                    res = colorful_cone_caratheodory(v, sets)
                except PreconditionFailed as exc:
                    witness = exc.witness
                    assert isinstance(witness, FarkasWitness)
                    assert witness.target == v and witness.w == primitive_ray(witness.w)
                    assert witness.verify(sets[exc.colour])
                    assert isinstance(pos_membership(v, sets[exc.colour]), FarkasWitness)
                    raised += 1
                    continue
                assert [c for c, _ in res.picks] == list(range(d))
                picked = [sets[c][e] for c, e in res.picks]
                assert isinstance(res.certificate, ConicCertificate)
                assert res.certificate.target == v
                assert res.certificate.verify(picked)
                returned += 1
        assert raised > 20 and returned > 20
