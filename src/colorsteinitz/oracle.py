"""Brute-force ground truth and instance generators.

Exhaustive enumeration over (partial) transversals is the independent oracle
against which the constructive machinery is validated: spanning counts,
minimum spanning partial-transversal size, and seeded generators for the two
structural families and for random spanning systems.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from operator import mul

from .colorful import ColourSystem, Transversal, structural_bcase, structural_pcase
from .cones import spanning
from .errors import BudgetExceeded, RecursionInvariantViolation
from .ratlin import Point, integer_ray, unit

DEFAULT_BUDGET = 10_000_000


@dataclass(frozen=True)
class EnumerationReport:
    total_full_transversals: int
    spanning_full_count: int
    min_spanning_partial_size: object  # int, or None if no partial spans
    witness: object  # smallest spanning partial Transversal, if any


class _Budget:
    def __init__(self, limit):
        self.limit = limit
        self.used = 0

    def spend(self, n=1):
        self.used += n
        if self.used > self.limit:
            raise BudgetExceeded(f"enumeration budget of {self.limit} checks exceeded")


# cones.spanning decides with one rank test and at most one LP, and memoises
# on the generator set process-wide; the scans here ask it about a system's
# integer rays, so permuted transversals, rescaled points and repeated systems
# share work
_spanning = spanning


def _full_transversal_count(system: ColourSystem) -> int:
    return sum(1 for rays in product(*system.rays) if _spanning(rays))


def count_spanning_transversals(system: ColourSystem, budget=DEFAULT_BUDGET) -> int:
    """Exact number of full transversals whose positive hull is everything."""
    system.check_spanning()
    total = 1
    for s in system.sets:
        total *= len(s)
    if total > budget:
        raise BudgetExceeded(f"{total} full transversals exceed budget {budget}")
    return _full_transversal_count(system)


def min_spanning_partial_size(system: ColourSystem, budget=DEFAULT_BUDGET) -> int:
    """Smallest k such that some k-transversal spans; at most 2d."""
    report = enumerate_report(system, budget=budget, count_full=False)
    if report.min_spanning_partial_size is None:  # pragma: no cover
        raise RecursionInvariantViolation("spanning system without a spanning transversal")
    return report.min_spanning_partial_size


def enumerate_report(system: ColourSystem, budget=DEFAULT_BUDGET, count_full=True):
    system.check_spanning()
    d = system.dim
    bud = _Budget(budget)

    rays = system.rays
    min_size = None
    witness = None
    # a spanning set needs at least d+1 generators, so smaller k cannot work
    for k in range(d + 1, 2 * d + 1):
        for colours in combinations(range(2 * d), k):
            for assignment in product(*(range(len(rays[c])) for c in colours)):
                bud.spend()
                if _spanning(tuple(rays[c][e] for c, e in zip(colours, assignment))):
                    min_size = k
                    witness = Transversal(tuple(zip(colours, assignment)))
                    break
            if min_size is not None:
                break
        if min_size is not None:
            break

    total = 1
    for s in system.sets:
        total *= len(s)
    spanning_full = None
    if count_full:
        bud.spend(total)
        spanning_full = _full_transversal_count(system)
    return EnumerationReport(total, spanning_full, min_size, witness)


def min_spanning_subset_size(points, budget=DEFAULT_BUDGET):
    """Smallest spanning subset of a single point set, or None."""
    points = [tuple(p) for p in points]
    if not points:
        raise ValueError("point list must be nonempty")
    d = len(points[0])
    bud = _Budget(budget)
    for k in range(d + 1, len(points) + 1):
        for combo in combinations(range(len(points)), k):
            bud.spend()
            if _spanning(tuple(points[i] for i in combo)):
                return k
    return None


# ---------------------------------------------------------------------------
# generators


def _unimodular_map(d, rng):
    """Random integer matrix with determinant +-1, as a list of rows: 3d
    random row operations on the identity."""
    m = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    for _ in range(3 * d):
        op = rng.randrange(3)
        i = rng.randrange(d)
        j = rng.randrange(d)
        if op == 0 and i != j:
            f = rng.choice([-2, -1, 1, 2])
            m[i] = [a + f * b for a, b in zip(m[i], m[j])]
        elif op == 1 and i != j:
            m[i], m[j] = m[j], m[i]
        elif op == 2:
            m[i] = [-a for a in m[i]]
    return m


def _apply_map(m, p: Point) -> Point:
    return tuple(sum(map(mul, row, p)) for row in m)


def _transform_system(system: ColourSystem, m) -> ColourSystem:
    return ColourSystem(
        system.dim,
        tuple(tuple(_apply_map(m, p) for p in s) for s in system.sets),
    )


def generate_bcase(d: int, transform_seed=None) -> ColourSystem:
    base = tuple(unit(d, i, s) for i in range(d) for s in (1, -1))
    system = ColourSystem(d, (base,) * (2 * d))
    if transform_seed is not None:
        system = _transform_system(system, _unimodular_map(d, random.Random(transform_seed)))
    return system


def generate_pcase(d: int, transform_seed=None) -> ColourSystem:
    f = tuple(unit(d, i) for i in range(d))
    f += (tuple(Fraction(-1) for _ in range(d)),)
    neg_f = tuple(tuple(-x for x in p) for p in f)
    system = ColourSystem(d, (f,) * d + (neg_f,) * d)
    if transform_seed is not None:
        system = _transform_system(system, _unimodular_map(d, random.Random(transform_seed)))
    return system


def _random_spanning_set(d, size, rng):
    """size int points of [-3, 3]^d on distinct rays that span, drawn until
    they do (at most 2000 draws), returned as Fraction points."""
    for _ in range(2000):
        pts = []
        rays = set()
        tries = 0
        while len(pts) < size and tries < 200:
            tries += 1
            p = tuple(rng.randint(-3, 3) for _ in range(d))
            if not any(p):
                continue
            r = integer_ray(p)
            if r in rays:
                continue
            rays.add(r)
            pts.append(p)
        if len(pts) == size and spanning(rays):
            return tuple(tuple(map(Fraction, p)) for p in pts)
    raise BudgetExceeded("could not sample a spanning set within the attempt budget")


def generate_random(d: int, sizes=None, seed=0) -> ColourSystem:
    """Seeded random spanning system; rejects the two structural families."""
    if sizes is None:
        sizes = d + 2
    if isinstance(sizes, int):
        sizes = [sizes] * (2 * d)
    if len(sizes) != 2 * d:
        raise ValueError(f"need {2 * d} sizes")
    if any(s < d + 1 for s in sizes):
        raise ValueError("each set needs at least d+1 points to span")
    rng = random.Random(seed)
    for _ in range(100):
        sets = tuple(_random_spanning_set(d, s, rng) for s in sizes)
        system = ColourSystem(d, sets)
        if structural_bcase(system) is None and structural_pcase(system) is None:
            return system
    raise BudgetExceeded("random generation kept hitting structural families")


def generate(kind: str, d: int, sizes=None, seed=0, transform_seed=None) -> ColourSystem:
    kind = kind.lower()
    if kind == "bcase":
        return generate_bcase(d, transform_seed=transform_seed)
    if kind == "pcase":
        return generate_pcase(d, transform_seed=transform_seed)
    if kind == "random":
        return generate_random(d, sizes=sizes, seed=seed)
    raise ValueError(f"unknown kind {kind!r} (expected bcase, pcase, or random)")
