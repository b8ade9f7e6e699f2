"""Colour systems: transversal construction, classification machinery."""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from colorsteinitz.colorful import (
    BCase,
    ColourSystem,
    Neither,
    PCase,
    SmallTransversal,
    Structural,
    Transversal,
    classify,
    colorful_transversal,
    find_small_transversal,
    p_set,
)
from colorsteinitz.cones import SpanCertificate, spanning, spans_space
from colorsteinitz.errors import NotSpanning, ZeroPoint
from colorsteinitz.oracle import (
    generate_bcase,
    generate_pcase,
    generate_random,
    min_spanning_partial_size,
)
from colorsteinitz.ratlin import neg, same_ray

from conftest import pt as P, simplex, units


def bcase2():
    return generate_bcase(2)


def pcase2():
    return generate_pcase(2)


class TestColourSystem:
    def test_wrong_set_count(self):
        with pytest.raises(ValueError):
            ColourSystem(2, (units(2),) * 3)

    def test_zero_point_rejected(self):
        with pytest.raises(ZeroPoint):
            ColourSystem(1, ((P(1),), (P(0),)))

    def test_check_spanning_names_colour(self):
        sys_ = ColourSystem(1, ((P(1), P(-1)), (P(1),)))
        with pytest.raises(NotSpanning) as exc:
            sys_.check_spanning()
        assert exc.value.colour == 1


class TestTransversal:
    def test_duplicate_colour_rejected(self):
        with pytest.raises(ValueError):
            Transversal(((0, 0), (0, 1)))

    def test_points_lookup(self):
        tv = Transversal(((0, 1), (2, 0)))
        assert tv.points(bcase2()) == (P(-1, 0), P(1, 0))
        assert tv.size() == 2


class TestColorfulTransversal:
    def test_bcase_transversal_spans(self):
        sys_ = bcase2()
        tv, cert = colorful_transversal(sys_)
        assert tv.size() == 4
        pts = tv.points(sys_)
        assert cert.verify(pts)
        assert {tuple(p) for p in pts} == set(units(2))

    def test_pcase_transversal_spans(self):
        sys_ = pcase2()
        tv, cert = colorful_transversal(sys_)
        assert tv.size() == 4
        assert cert.verify(tv.points(sys_))

    def test_random_d3(self):
        from colorsteinitz.oracle import generate_random

        sys_ = generate_random(3, sizes=5, seed=2)
        tv, cert = colorful_transversal(sys_)
        assert tv.size() == 6
        assert cert.verify(tv.points(sys_))

    def test_not_spanning_rejected(self):
        sets = (units(2),) * 3 + ((P(1, 0), P(0, 1)),)
        sys_ = ColourSystem(2, sets)
        with pytest.raises(NotSpanning) as exc:
            colorful_transversal(sys_)
        assert exc.value.colour == 3


class TestPSet:
    def test_bcase_all_colours(self):
        res = p_set(P(1, 0), bcase2())
        assert res.members == frozenset({0, 1, 2, 3})

    def test_pcase_split(self):
        sys_ = pcase2()
        f1 = sys_.sets[0][0]
        res = p_set(f1, sys_)
        assert res.members == frozenset({2, 3})

    def test_agrees_with_direct_scan(self):
        from colorsteinitz.oracle import generate_random

        sys_ = generate_random(2, sizes=4, seed=5)
        for s in sys_.sets:
            for v in s:
                res = p_set(v, sys_)
                direct = {
                    j
                    for j, t in enumerate(sys_.sets)
                    if any(same_ray(neg(v), x) for x in t)
                }
                assert res.members == frozenset(direct)

    def test_zero_rejected(self):
        with pytest.raises(ZeroPoint):
            p_set(P(0, 0), bcase2())


class TestClassify:
    def test_bcase(self):
        res = classify(bcase2())
        assert isinstance(res, BCase)
        assert len(res.basis) == 2

    def test_pcase(self):
        res = classify(pcase2())
        assert isinstance(res, PCase)
        assert len(res.points) == 3
        assert len(res.plus_colours) == 2 and len(res.minus_colours) == 2

    def test_bcase_plus_extra_point_is_neither(self):
        sets = ((units(2) + (P(1, 1),)),) + (units(2),) * 3
        sys_ = ColourSystem(2, sets)
        res = classify(sys_)
        assert isinstance(res, Neither)
        assert res.witness.size() <= 3
        assert res.certificate.verify(res.witness.points(sys_))
        assert min_spanning_partial_size(sys_) <= 3

    def test_pcase_invariant_under_rescaling(self):
        sys_ = pcase2()
        sets = tuple(
            tuple(tuple(Fraction(2) * c for c in p) for p in s) if i == 0 else s
            for i, s in enumerate(sys_.sets)
        )
        assert isinstance(classify(ColourSystem(2, sets)), PCase)


class TestFindSmallTransversal:
    def test_structural_cases(self):
        assert isinstance(find_small_transversal(bcase2()), Structural)
        assert isinstance(find_small_transversal(pcase2()), Structural)

    def test_spec_neither_example(self):
        base = (P(1, 0), P(0, 1), P(-1, -1), P(-1, 1))
        sys_ = ColourSystem(2, (base,) * 4)
        res = find_small_transversal(sys_)
        assert isinstance(res, SmallTransversal)
        assert res.transversal.size() <= 3
        assert res.certificate.verify(res.transversal.points(sys_))
        assert min_spanning_partial_size(sys_) <= 3

    def test_d3_case_two_path(self):
        # every colour contains antipodal ray pairs
        base = units(3) + (P(1, 1, 1),)
        sys_ = ColourSystem(3, (base,) * 6)
        res = find_small_transversal(sys_)
        assert isinstance(res, SmallTransversal)
        assert res.transversal.size() <= 5
        pts = res.transversal.points(sys_)
        assert spanning(pts)

    def test_d3_case_one_path(self):
        # no colour meets its own negation: simplex colours only, five of F
        # and one of -F, which is not the 3 + 3 split of PCase
        f = simplex(3)
        nf = tuple(neg(p) for p in f)
        sets = (f, f, f, f, f, nf)
        sys_ = ColourSystem(3, sets)
        res = find_small_transversal(sys_)
        assert isinstance(res, SmallTransversal)
        assert res.transversal.size() <= 5
        assert spanning(res.transversal.points(sys_))

    def test_case_one_partition_invariant(self):
        # when no X_i meets -X_i and the system is structural, P(v) and P(-v)
        # partition the colours for every v in the union
        sys_ = pcase2()
        for s in sys_.sets:
            for v in s:
                plus = p_set(v, sys_).members
                minus = p_set(neg(v), sys_).members
                assert plus | minus == {0, 1, 2, 3}
                assert not plus & minus

    def test_agrees_with_oracle_random_d3(self):
        from colorsteinitz.oracle import generate_random

        for seed in (1, 4, 9):
            sys_ = generate_random(3, sizes=4, seed=seed)
            res = find_small_transversal(sys_)
            assert isinstance(res, SmallTransversal)
            assert min_spanning_partial_size(sys_) <= res.transversal.size() <= 5


def _first_spanning_partial(system):
    """Brute-force reference: the first partial transversal, in (size,
    colours, element) order, that spans_space certifies."""
    d = system.dim
    for k in range(1, 2 * d + 1):
        for colours in combinations(range(2 * d), k):
            for elements in product(*(range(len(system.sets[c])) for c in colours)):
                pts = tuple(system.sets[c][e] for c, e in zip(colours, elements))
                if isinstance(spans_space(pts), SpanCertificate):
                    return tuple(zip(colours, elements))
    return None


def _d3_antipodal():
    return ColourSystem(3, (units(3) + (P(1, 1, 1),),) * 6)


def _d3_simplex_colours():
    f = simplex(3)
    nf = tuple(neg(p) for p in f)
    return ColourSystem(3, (f, f, f, f, f, nf))


_MINIMALITY_SYSTEMS = (
    [(f"random-d2-{seed}", lambda seed=seed: generate_random(2, seed=seed)) for seed in range(10)]
    + [
        (f"random-d2-sizes-{seed}", lambda seed=seed: generate_random(2, sizes=[3, 5, 4, 3], seed=seed))
        for seed in range(5)
    ]
    + [(f"random-d3-{seed}", lambda seed=seed: generate_random(3, seed=seed)) for seed in range(4)]
    + [
        (f"random-d3-sizes4-{seed}", lambda seed=seed: generate_random(3, sizes=4, seed=seed))
        for seed in (1, 4, 9)
    ]
    + [
        ("spec-neither-d2", lambda: ColourSystem(2, ((P(1, 0), P(0, 1), P(-1, -1), P(-1, 1)),) * 4)),
        ("antipodal-d3", _d3_antipodal),
        ("simplex-colours-d3", _d3_simplex_colours),
    ]
)


class TestWitnessMinimality:
    @pytest.mark.parametrize(
        "build", [b for _, b in _MINIMALITY_SYSTEMS], ids=[n for n, _ in _MINIMALITY_SYSTEMS]
    )
    def test_witness_is_the_first_smallest(self, build):
        sys_ = build()
        res = find_small_transversal(sys_)
        assert isinstance(res, SmallTransversal)
        assert res.transversal.size() == min_spanning_partial_size(sys_)
        assert res.transversal.picks == _first_spanning_partial(sys_)
        assert res.certificate.verify(res.transversal.points(sys_))
        assert classify(sys_) == Neither(res.transversal, res.certificate)
