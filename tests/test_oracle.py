"""Brute-force enumeration oracle and the instance generators."""

import hashlib
import random
from fractions import Fraction

import pytest

from colorsteinitz.colorful import ColourSystem, classify, Neither
from colorsteinitz.cones import spanning
from colorsteinitz.errors import BudgetExceeded
from colorsteinitz.oracle import (
    _transform_system,
    _unimodular_map,
    count_spanning_transversals,
    enumerate_report,
    generate,
    generate_bcase,
    generate_pcase,
    generate_random,
    min_spanning_partial_size,
    min_spanning_subset_size,
)
from colorsteinitz.ratlin import rank

from conftest import pt as P, simplex, units


class TestCounts:
    def test_bcase_d2(self):
        assert count_spanning_transversals(generate_bcase(2)) == 24

    def test_pcase_d2(self):
        assert count_spanning_transversals(generate_pcase(2)) == 12

    def test_d1_two_assignments(self):
        sys_ = ColourSystem(1, ((P(1), P(-1)),) * 2)
        assert count_spanning_transversals(sys_) == 2

    def test_budget_enforced(self):
        with pytest.raises(BudgetExceeded):
            count_spanning_transversals(generate_bcase(2), budget=10)


class TestMinSize:
    def test_bcase_needs_all_colours(self):
        assert min_spanning_partial_size(generate_bcase(2)) == 4

    def test_pcase_needs_all_colours(self):
        assert min_spanning_partial_size(generate_pcase(2)) == 4

    def test_budget_enforced(self):
        with pytest.raises(BudgetExceeded):
            min_spanning_partial_size(generate_bcase(2), budget=10)

    def test_shared_simplex_without_split(self):
        sys_ = ColourSystem(2, ((P(1, 0), P(0, 1), P(-1, -1)),) * 4)
        assert min_spanning_partial_size(sys_) == 3

    def test_report_witness_verifies(self):
        sys_ = ColourSystem(2, ((P(1, 0), P(0, 1), P(-1, -1)),) * 4)
        rep = enumerate_report(sys_)
        assert rep.min_spanning_partial_size == 3
        assert spanning(rep.witness.points(sys_))
        assert rep.spanning_full_count <= rep.total_full_transversals

    def test_min_spanning_subset_size(self):
        assert min_spanning_subset_size(units(2)) == 4
        assert min_spanning_subset_size(list(units(2)) + [P(1, 1)]) == 3
        assert min_spanning_subset_size([P(1, 0), P(0, 1)]) is None

    def test_min_spanning_subset_size_budget_enforced(self):
        # the 4 three-point subsets of +-e1, +-e2 fail before the 4-point one
        with pytest.raises(BudgetExceeded):
            min_spanning_subset_size(units(2), budget=3)
        assert min_spanning_subset_size(units(2), budget=5) == 4

    def test_min_spanning_subset_size_scans_distinct_rays(self):
        # three copies, one of them rescaled, scan like one: 5 checks
        points = list(units(2)) * 2 + [tuple(2 * x for x in p) for p in units(2)]
        assert min_spanning_subset_size(points, budget=5) == 4

    def test_min_spanning_subset_size_rejects_empty_input(self):
        with pytest.raises(ValueError):
            min_spanning_subset_size([])


class TestInvariances:
    def test_count_invariant_under_unimodular_map(self):
        sys_ = generate_random(2, sizes=4, seed=3)
        base = count_spanning_transversals(sys_)
        for seed in (1, 2):
            m = _unimodular_map(2, random.Random(seed))
            assert count_spanning_transversals(_transform_system(sys_, m)) == base

    def test_count_invariant_under_colour_permutation(self):
        sys_ = generate_random(2, sizes=4, seed=3)
        base = count_spanning_transversals(sys_)
        perm = ColourSystem(2, (sys_.sets[2], sys_.sets[0], sys_.sets[3], sys_.sets[1]))
        assert count_spanning_transversals(perm) == base

    def test_count_invariant_under_point_rescaling(self):
        sys_ = generate_random(2, sizes=4, seed=3)
        base = count_spanning_transversals(sys_)
        sets = list(sys_.sets)
        first = list(sets[0])
        first[0] = tuple(Fraction(7, 3) * c for c in first[0])
        sets[0] = tuple(first)
        assert count_spanning_transversals(ColourSystem(2, tuple(sets))) == base


class TestGenerators:
    def test_bcase_structure(self):
        sys_ = generate_bcase(2)
        assert sys_.sets == (units(2),) * 4

    def test_pcase_structure(self):
        sys_ = generate_pcase(2)
        f = simplex(2)
        nf = tuple(tuple(-c for c in p) for p in f)
        assert sys_.sets == (f, f, nf, nf)

    def test_transformed_bcase_counts_unchanged(self):
        sys_ = generate_bcase(2, transform_seed=11)
        assert count_spanning_transversals(sys_) == 24
        assert min_spanning_partial_size(sys_) == 4

    def test_transformed_pcase_counts_unchanged(self):
        sys_ = generate_pcase(2, transform_seed=11)
        assert count_spanning_transversals(sys_) == 12

    def test_random_deterministic_and_spanning(self):
        a = generate_random(2, sizes=4, seed=7)
        b = generate_random(2, sizes=4, seed=7)
        assert a == b
        a.check_spanning()
        assert isinstance(classify(a), Neither)

    def test_random_rejects_undersized_sets(self):
        with pytest.raises(ValueError):
            generate_random(2, sizes=2, seed=0)

    def test_generate_dispatch(self):
        assert generate("bcase", 2) == generate_bcase(2)
        assert generate("pcase", 2) == generate_pcase(2)
        assert generate("random", 2, seed=1) == generate_random(2, seed=1)
        with pytest.raises(ValueError):
            generate("nope", 2)

    def test_unimodular_map_is_invertible(self):
        for seed in range(5):
            m = _unimodular_map(3, random.Random(seed))
            assert rank([tuple(r) for r in m]) == 3

    def test_generated_systems_are_pinned(self):
        # SHA-256 recorded while the generators still ran on Fraction;
        # perfbench pins only seed 0
        systems = [generate_random(d, seed=seed) for d in (2, 3, 4) for seed in range(4)]
        systems.append(generate_random(3, sizes=(4, 5, 4, 6, 4, 5), seed=7))
        for d in (2, 3, 4):
            for ts in (None, 1, 2, 3):
                systems.append(generate_bcase(d, transform_seed=ts))
                systems.append(generate_pcase(d, transform_seed=ts))
        h = hashlib.sha256()
        for system in systems:
            h.update(repr(system).encode() + b"\n")
        assert h.hexdigest() == "206e81ae178e5345e302aa057080b21eab0eee971f66120eefa76dcf394ad6a0"


class TestOracleAgreesWithClassify:
    def test_random_d2(self):
        for seed in (0, 1, 2, 3):
            sys_ = generate_random(2, sizes=4, seed=seed)
            res = classify(sys_)
            m = min_spanning_partial_size(sys_)
            assert isinstance(res, Neither) == (m <= 3)

    def test_bcase_and_pcase_d3(self):
        assert min_spanning_partial_size(generate_bcase(3)) == 6
        assert min_spanning_partial_size(generate_pcase(3)) == 6
