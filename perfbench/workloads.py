"""The benchmark's workloads: seeded inputs, the calls each system makes, and
the checks on every answer.

Inputs come in batches; batch ``b`` of a run is a pure function of the
workload name, ``--seed`` and ``b``.  Where generating them calls package
code that fills its memos, ``inputs_elsewhere`` is set and the worker
generates them in a helper process.  ``solve`` returns the canonical text
of a system's answers (the digest hashes it) and a list of problems, empty
when every check passed.  Every package call goes through a module
attribute (``colorful.classify``), so the tracer's replaced bindings apply.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

from colorsteinitz import certio, checkcert, colorful, oracle, steinitz


def _rng(name, seed, batch):
    return random.Random(f"{name}:{seed}:{batch}")


def _check(text):
    """Problems found by the standalone checker in a certificate text."""
    try:
        checkcert.check_text(text)
    except checkcert.CheckFailure as exc:
        return [f"certificate rejected: {exc}"]
    return []


def _positively_spans(rays):
    """Whether rays of {-1,0,1}^2 positively span the plane: consecutive
    directions, in steps of 45 degrees, leave no gap of 180 degrees or more."""
    steps = sorted(round(math.degrees(math.atan2(y, x)) / 45) % 8 for x, y in rays)
    gaps = [b - a for a, b in zip(steps, steps[1:])] + [steps[0] + 8 - steps[-1]]
    return max(gaps) < 4


def _span_text(result, points):
    return certio.render_span(result.certificate, [points[i] for i in result.indices])


class Construct:
    """Transversal, 2d and 2d-1 reductions of the union, certificate check."""

    name = "construct"
    inputs_elsewhere = True
    dim = 3
    batch_size = 2
    # systems in the answer digest, the traced replay and the RSS reading
    fixed_systems = 16

    def prepare(self, seed):
        return None

    def batch(self, ctx, seed, b):
        rng = _rng(self.name, seed, b)
        return [
            oracle.generate_random(self.dim, seed=rng.randrange(2**32))
            for _ in range(self.batch_size)
        ]

    def solve(self, system):
        d = system.dim
        tv, cert = colorful.colorful_transversal(system)
        union = [p for s in system.sets for p in s]
        reduced = steinitz.steinitz_reduce(union)
        refined = steinitz.refine_below_2d(union)
        certs = [
            certio.render_transversal(tv.picks, cert, tv.points(system)),
            _span_text(reduced, union),
        ]
        answer = [f"picks {tv.picks}", f"reduced {reduced.indices}"]
        problems = []
        if sorted(c for c, _ in tv.picks) != list(range(2 * d)):
            problems.append(f"transversal picks {tv.picks} do not cover the 2d colours")
        if len(reduced.indices) > 2 * d:
            problems.append(f"steinitz_reduce kept {len(reduced.indices)} > 2d points")
        if isinstance(refined, steinitz.BasisCaseWitness):
            answer.append(f"basis {refined.basis}")
        else:
            answer.append(f"refined {refined.indices}")
            certs.append(_span_text(refined, union))
            if len(refined.indices) > 2 * d - 1:
                problems.append(f"refine_below_2d kept {len(refined.indices)} > 2d-1 points")
        text = "".join(certs)
        problems += _check(text)
        return "\n".join(answer) + "\n" + text, problems


class Classify:
    """Random systems (Neither) and transformed BCase / PCase systems."""

    name = "classify"
    inputs_elsewhere = True
    # two structural systems per batch, alternating family and dimension,
    # so the median system is a d=3 random one and not a class boundary
    batch_kinds = (
        (("BCase", 3), ("PCase", 4)) + (("Neither", 3),) * 4 + (("Neither", 4),),
        (("PCase", 3), ("BCase", 4)) + (("Neither", 3),) * 4 + (("Neither", 4),),
    )
    fixed_systems = 56

    def prepare(self, seed):
        return None

    def batch(self, ctx, seed, b):
        rng = _rng(self.name, seed, b)
        out = []
        for kind, d in self.batch_kinds[b % 2]:
            s = rng.randrange(2**32)
            if kind == "BCase":
                system = oracle.generate_bcase(d, transform_seed=s)
            elif kind == "PCase":
                system = oracle.generate_pcase(d, transform_seed=s)
            else:
                system = oracle.generate_random(d, seed=s)
            out.append((kind, system))
        return out

    def solve(self, item):
        kind, system = item
        result = colorful.classify(system)
        got = type(result).__name__
        problems = [] if got == kind else [f"generated as {kind}, classified as {got}"]
        if isinstance(result, colorful.Neither):
            picks = result.witness.picks
            if len(picks) > 2 * system.dim - 1:
                problems.append(f"Neither witness has {len(picks)} > 2d-1 picks")
            text = certio.render_transversal(
                picks, result.certificate, result.witness.points(system)
            )
            problems += _check(text)
            return f"Neither\n{text}", problems
        return f"{result!r}\n", problems


class SweepD2:
    """Sampled d=2 systems over the 46 spanning subsets of the 8 primitive rays."""

    name = "sweep_d2"
    # built from the 46 shared subset tuples, as the exhaustive sweep builds
    # them, with no package call that touches a memo
    inputs_elsewhere = False
    batch_size = 256
    fixed_systems = 4096

    def prepare(self, seed):
        rays = sorted(
            (Fraction(x), Fraction(y))
            for x in (-1, 0, 1)
            for y in (-1, 0, 1)
            if (x, y) != (0, 0)
        )
        # Decided here by angle, not by cones.spanning, so that the package's
        # span memos are still empty when the first system is timed.
        span_sets = [c for k in (3, 4) for c in combinations(rays, k) if _positively_spans(c)]
        if len(span_sets) != 46:
            raise RuntimeError(f"expected 46 spanning ray subsets, found {len(span_sets)}")
        return span_sets

    def batch(self, span_sets, seed, b):
        rng = _rng(self.name, seed, b)
        return [
            colorful.ColourSystem(
                2, tuple(span_sets[i] for i in sorted(rng.choices(range(46), k=4)))
            )
            for _ in range(self.batch_size)
        ]

    def solve(self, system):
        result = colorful.classify(system)
        minimum = oracle.min_spanning_partial_size(system)
        structural = isinstance(result, (colorful.BCase, colorful.PCase))
        problems = []
        if structural != (minimum == 4):
            problems.append(f"{type(result).__name__} but the oracle minimum is {minimum}")
        if isinstance(result, colorful.Neither):
            picks = result.witness.picks
            if len(picks) > 3:
                problems.append(f"Neither witness has {len(picks)} > 3 picks")
            return f"Neither {picks} {minimum}\n", problems
        return f"{result!r} {minimum}\n", problems


WORKLOADS = {w.name: w for w in (Construct(), Classify(), SweepD2())}
