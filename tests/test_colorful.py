"""Colour systems: transversal construction, classification machinery."""

import pickle
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from colorsteinitz import certio
from colorsteinitz.checkcert import check_text
from colorsteinitz.colorful import (
    BCase,
    ColourSystem,
    Neither,
    PCase,
    Transversal,
    classify,
    colorful_transversal,
    find_small_transversal,
    p_set,
    structural_bcase,
    structural_pcase,
)
from colorsteinitz.cones import SpanCertificate, clear_span_cache, spanning
from colorsteinitz.errors import DimensionMismatch, NotSpanning, ZeroPoint
from colorsteinitz.oracle import (
    _transform_system,
    _unimodular_map,
    enumerate_report,
    generate_bcase,
    generate_pcase,
    generate_random,
    min_spanning_partial_size,
)
from colorsteinitz.ratlin import integer_ray, neg, same_ray

from conftest import pt as P, reference_spans_space, simplex, units


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

    def test_dimension_zero_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            ColourSystem(0, ())

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="colour set 1 is empty"):
            ColourSystem(1, ((P(1), P(-1)), ()))

    def test_wrong_point_dimension_rejected(self):
        with pytest.raises(DimensionMismatch, match="point 1 of set 0"):
            ColourSystem(1, ((P(1), P(-1, 1)), (P(1), P(-1))))


class TestRays:
    def _system(self):
        return ColourSystem(
            2,
            (
                (P("2/3", "4/3"), P(-6, 9), P(0, "-1/5")),
                (P(1, 0), P(0, 1), P(-1, -1)),
                (P(3, 0), P(0, 3), P("-1/2", "-1/2"), P(-4, 2)),
                (P(-2, 0), P(0, 2), P(7, -7)),
            ),
        )

    def test_non_integer_and_non_primitive_points(self):
        sys_ = self._system()
        assert sys_.rays[0] == ((1, 2), (-2, 3), (0, -1))
        assert sys_.rays[2] == ((1, 0), (0, 1), (-1, -1), (-2, 1))
        for s, rays in zip(sys_.sets, sys_.rays):
            assert rays == tuple(map(integer_ray, s))
            assert all(type(x) is int for r in rays for x in r)

    def test_pickle_round_trip_keeps_the_rays(self):
        sys_ = self._system()
        rays = sys_.rays
        back = pickle.loads(pickle.dumps(sys_))
        assert back == sys_
        assert vars(back)["rays"] == rays
        assert back.rays == rays

    def test_equality_and_hash_ignore_the_rays(self):
        computed = self._system()
        computed.rays
        fresh = self._system()
        assert "rays" in vars(computed) and "rays" not in vars(fresh)
        assert computed == fresh
        assert hash(computed) == hash(fresh)
        assert len({computed, fresh}) == 1


class TestTransversal:
    def test_duplicate_colour_rejected(self):
        with pytest.raises(ValueError):
            Transversal(((0, 0), (0, 1)))

    def test_unsorted_colours_rejected(self):
        with pytest.raises(ValueError):
            Transversal(((2, 0), (0, 1)))

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

    @pytest.mark.parametrize("seed", range(4))
    def test_random_d4_certificate_checks(self, seed):
        sys_ = generate_random(4, seed=seed)
        tv, cert = colorful_transversal(sys_)
        assert [c for c, _ in tv.picks] == list(range(8))
        text = certio.render_transversal(tv.picks, cert, tv.points(sys_))
        assert check_text(text) == ["transversal"]

    def test_random_d5_certificate_checks(self):
        sys_ = generate_random(5, seed=0)
        tv, cert = colorful_transversal(sys_)
        assert [c for c, _ in tv.picks] == list(range(10))
        text = certio.render_transversal(tv.picks, cert, tv.points(sys_))
        assert check_text(text) == ["transversal"]

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
    def test_six_dependent_rays_are_no_bcase(self):
        rays = (P(1, 0, 0), P(-1, 0, 0), P(0, 1, 0), P(0, -1, 0), P(1, 1, 0), P(-1, -1, 0))
        assert structural_bcase(ColourSystem(3, (rays,) * 6)) is None

    def test_d_plus_two_rays_are_no_pcase(self):
        f = (P(1, 0), P(0, 1), P(-1, -1), P(1, 1))
        system = ColourSystem(2, (f, f, tuple(map(neg, f)), tuple(map(neg, f))))
        assert structural_pcase(system) is None
        assert isinstance(classify(system), Neither)

    def test_d_plus_one_rays_that_do_not_span_are_no_pcase(self):
        f = (P(1, 0), P(0, 1), P(1, 1))
        system = ColourSystem(2, (f, f, tuple(map(neg, f)), tuple(map(neg, f))))
        assert structural_pcase(system) is None
        with pytest.raises(NotSpanning) as exc:
            classify(system)
        assert exc.value.colour == 0

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


def _one_ray_edits_d3(count=40, seed=11):
    """A seeded sample of the one-ray edits of generate_bcase(3) and
    generate_pcase(3): add a primitive ray of {-1,0,1}^3 to one colour, or
    replace one of its rays by such a ray where the colour still spans."""
    rays = [r for r in product((-1, 0, 1), repeat=3) if any(r) and integer_ray(r) == r]
    edits = []
    for base in (generate_bcase(3), generate_pcase(3)):
        for c, points in enumerate(base.sets):
            have = {integer_ray(p) for p in points}
            for r in rays:
                if r in have:
                    continue
                new_sets = [points + (P(*r),)]
                new_sets += [points[:e] + (P(*r),) + points[e + 1 :] for e in range(len(points))]
                for s in new_sets:
                    if spanning(s):
                        edits.append(ColourSystem(3, base.sets[:c] + (s,) + base.sets[c + 1 :]))
    return random.Random(seed).sample(edits, count)


def _boundary_d3():
    return [generate_bcase(3), generate_pcase(3)] + _one_ray_edits_d3()


class TestBoundaryAtD3:
    """The characterisation next to the structural families: a system needs
    all 2d = 6 colours iff it is BCase or PCase.  All 594 edits are Neither,
    252 of them at the tightest size 2d - 1 = 5."""

    @pytest.fixture(scope="class")
    def boundary(self):
        """The systems and their oracle minimum sizes, measured once for both tests."""
        systems = _boundary_d3()
        return systems, [min_spanning_partial_size(s) for s in systems]

    def _check_sizes(self, systems, sizes):
        """Checks the iff, the scan and each witness against the oracle's
        minimum sizes."""
        for sys_, size in zip(systems, sizes, strict=True):
            res = classify(sys_)
            scan = find_small_transversal(sys_)
            assert isinstance(res, (BCase, PCase)) == (size == 6) == (scan is None), sys_
            if isinstance(res, Neither):
                assert scan == res
                tv = res.witness
                assert tv.size() <= 5
                text = certio.render_transversal(tv.picks, res.certificate, tv.points(sys_))
                assert check_text(text) == ["transversal"]

    def test_one_ray_edits_and_their_bases(self, boundary):
        systems, sizes = boundary
        self._check_sizes(systems, sizes)
        assert sizes[:2] == [6, 6] and 5 in sizes[2:]

    def test_unimodular_images(self, boundary):
        # an integer map of determinant +-1 keeps every ray set's spanning,
        # so each image has its system's minimum size
        systems, sizes = boundary
        images = [
            _transform_system(s, _unimodular_map(3, random.Random(1 + i % 3)))
            for i, s in enumerate(systems)
        ]
        assert all(a.rays != b.rays for a, b in zip(systems, images))
        image_sizes = [min_spanning_partial_size(s) for s in images]
        self._check_sizes(images, image_sizes)
        assert image_sizes == sizes


class TestFindSmallTransversal:
    def test_structural_cases(self):
        # the paper's "exactly 2d" side, on the scan itself
        for kind in (generate_bcase, generate_pcase):
            for d in (2, 3):
                for transform_seed in (None, 1, 2, 3):
                    system = kind(d, transform_seed=transform_seed)
                    assert find_small_transversal(system) is None, system

    def test_spec_neither_example(self):
        base = (P(1, 0), P(0, 1), P(-1, -1), P(-1, 1))
        sys_ = ColourSystem(2, (base,) * 4)
        res = find_small_transversal(sys_)
        assert isinstance(res, Neither)
        assert res.witness.size() <= 3
        assert res.certificate.verify(res.witness.points(sys_))
        assert min_spanning_partial_size(sys_) <= 3

    def test_d3_case_two_path(self):
        # every colour contains antipodal ray pairs
        base = units(3) + (P(1, 1, 1),)
        sys_ = ColourSystem(3, (base,) * 6)
        res = find_small_transversal(sys_)
        assert isinstance(res, Neither)
        assert res.witness.size() <= 5
        pts = res.witness.points(sys_)
        assert spanning(pts)

    def test_d3_case_one_path(self):
        # no colour meets its own negation: simplex colours only, five of F
        # and one of -F, which is not the 3 + 3 split of PCase
        f = simplex(3)
        nf = tuple(neg(p) for p in f)
        sets = (f, f, f, f, f, nf)
        sys_ = ColourSystem(3, sets)
        res = find_small_transversal(sys_)
        assert isinstance(res, Neither)
        assert res.witness.size() <= 5
        assert spanning(res.witness.points(sys_))

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
            assert isinstance(res, Neither)
            assert min_spanning_partial_size(sys_) <= res.witness.size() <= 5


def _first_spanning_partial(system):
    """Brute-force reference: the first partial transversal, in (size,
    colours, element) order, that the LP-only reference_spans_space
    certifies; each certificate it accepts must verify."""
    d = system.dim
    for k in range(1, 2 * d + 1):
        for colours in combinations(range(2 * d), k):
            for elements in product(*(range(len(system.sets[c])) for c in colours)):
                pts = tuple(system.sets[c][e] for c, e in zip(colours, elements))
                cert = reference_spans_space(pts)
                if isinstance(cert, SpanCertificate):
                    assert cert.verify(pts), pts
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
        assert isinstance(res, Neither)
        assert res.witness.size() == min_spanning_partial_size(sys_)
        assert res.witness.picks == _first_spanning_partial(sys_)
        assert res.certificate.verify(res.witness.points(sys_))
        assert classify(sys_) == res


def _rescaled(system, rng):
    """The system with every point multiplied by its own positive rational."""

    def scaled(p):
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        return tuple(c * x for x in p)

    return ColourSystem(system.dim, tuple(tuple(map(scaled, s)) for s in system.sets))


_RESCALING_SYSTEMS = (
    [
        (f"random-d{d}-{seed}", lambda d=d, seed=seed: generate_random(d, seed=seed))
        for d in (2, 3, 4)
        for seed in range(3)
    ]
    + [
        (f"{kind.__name__[9:]}-d{d}-{t}", lambda kind=kind, d=d, t=t: kind(d, transform_seed=t))
        for kind in (generate_bcase, generate_pcase)
        for d in (2, 3, 4)
        for t in (None, 5)
    ]
)


class TestRescaling:
    """Every decision depends on rays only: scaling each point by its own
    positive rational changes no class, witness or oracle answer."""

    @pytest.mark.parametrize(
        "build", [b for _, b in _RESCALING_SYSTEMS], ids=[n for n, _ in _RESCALING_SYSTEMS]
    )
    def test_answers_equal_the_unscaled_ones(self, build):
        sys_ = build()
        d = sys_.dim
        scaled = _rescaled(sys_, random.Random(repr(sys_.sets)))
        assert scaled.sets != sys_.sets and scaled.rays == sys_.rays
        answers = []
        for s in (sys_, scaled):
            clear_span_cache()  # decide afresh, not from the other system's memo entries
            res = classify(s)
            answer = [type(res), res.witness if isinstance(res, Neither) else res]
            structural = not isinstance(res, Neither)
            # at d=4 the structural minimum 8 takes a scan of tens of millions of
            # picks; counting all full transversals of a random system at d >= 3
            # takes thousands of distinct LPs
            if d < 4 or not structural:
                report = enumerate_report(s, count_full=d == 2 or structural)
                answer += [min_spanning_partial_size(s), report]
            answers.append(answer)
            if isinstance(res, Neither):
                points = res.witness.points(s)
                text = certio.render_transversal(res.witness.picks, res.certificate, points)
                assert check_text(text) == ["transversal"]
        assert answers[0] == answers[1]
