"""Command-line front end.

Exit codes: 0 success with an affirmative result, 1 negative structural
result (for example a non-spanning input), 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import sys

from . import certio
from .colorful import (
    BCase,
    ColourSystem,
    Neither,
    PCase,
    _pivoted_transversal,
    classify,
    colorful_transversal,
)
from .cones import DEFAULT_BUDGET, refute_spanning, spanning
from .errors import BudgetExceeded, GeometryError, NotSpanning, ParseError
from .instancefile import InstanceFile, emit_instance, parse_instance
from .oracle import (
    count_spanning_transversals,
    generate,
    min_spanning_partial_size,
)
from .ratlin import format_point
from .steinitz import (
    BasisCaseWitness,
    basis_case,
    refine_below_2d,
    steinitz_reduce,
)


def _load(path) -> InstanceFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def _system(instance: InstanceFile) -> ColourSystem:
    if len(instance.sets) != 2 * instance.dim:
        raise ParseError(
            f"command needs a colour system with {2 * instance.dim} sets, "
            f"got {len(instance.sets)}"
        )
    return ColourSystem(instance.dim, instance.sets)


def _single_set(instance: InstanceFile):
    if len(instance.sets) != 1:
        raise ParseError("command needs a single-set instance")
    return list(instance.sets[0])


def _write_cert(path, text):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_verify(args):
    instance = _load(args.instance)
    bad = False
    for i, s in enumerate(instance.sets):
        if spanning(s):
            print(f"set {i + 1}: spans")
        else:
            w = refute_spanning(s).w
            print(f"set {i + 1}: NOT spanning, witness w = {format_point(w)}")
            bad = True
    return 1 if bad else 0


def cmd_reduce(args):
    points = _single_set(_load(args.instance))
    d = len(points[0])
    reduced = steinitz_reduce(points)
    print(f"reduced to {len(reduced.indices)} points (bound {2 * d})")
    for i in reduced.indices:
        print(f"  [{i}] {format_point(points[i])}")
    if len(reduced.indices) == 2 * d and basis_case(points) is not None:
        print("note: basis case, no spanning subset of size 2d-1 exists")
    chosen = tuple(points[i] for i in reduced.indices)
    _write_cert(args.cert, certio.render_span(reduced.certificate, chosen))
    return 0


def cmd_refine(args):
    points = _single_set(_load(args.instance))
    d = len(points[0])
    res = refine_below_2d(points)
    if isinstance(res, BasisCaseWitness):
        print("basis case: the rays are exactly +-e_1..+-e_d for the basis")
        for e in res.basis:
            print(f"  {format_point(e)}")
        return 0
    print(f"refined to {len(res.indices)} points (bound {2 * d - 1})")
    for i in res.indices:
        print(f"  [{i}] {format_point(points[i])}")
    chosen = tuple(points[i] for i in res.indices)
    _write_cert(args.cert, certio.render_span(res.certificate, chosen))
    return 0


def _print_trace(label, result):
    print(f"trace {label}: initial sqdist {result.initial_sqdist}")
    for step in result.trace:
        print(
            f"pivot colour={step.colour} enter={step.entering_index} "
            f"sqdist={step.sqdist}"
        )


def cmd_transversal(args):
    instance = _load(args.instance)
    system = _system(instance)
    tv, cert, first, second = _pivoted_transversal(system)
    if args.trace:
        _print_trace("forward", first)
        _print_trace("backward", second)
    for c, e in tv.picks:
        print(f"colour {c + 1} -> point {e + 1} : {format_point(system.sets[c][e])}")
    _write_cert(args.cert, certio.render_transversal(tv.picks, cert, tv.points(system)))
    return 0


def cmd_classify(args):
    system = _system(_load(args.instance))
    result = classify(system)
    if isinstance(result, BCase):
        print("BCase")
        for e in result.basis:
            print(f"  basis {format_point(e)}")
    elif isinstance(result, PCase):
        print("PCase")
        for f in result.points:
            print(f"  F {format_point(f)}")
        print("  plus colours " + " ".join(str(c + 1) for c in result.plus_colours))
        print("  minus colours " + " ".join(str(c + 1) for c in result.minus_colours))
    else:
        assert isinstance(result, Neither)
        print("Neither")
        for c, e in result.witness.picks:
            print(f"  colour {c + 1} -> point {e + 1} : {format_point(system.sets[c][e])}")
        _write_cert(
            args.cert,
            certio.render_transversal(
                result.witness.picks, result.certificate, result.witness.points(system)
            ),
        )
    return 0


def cmd_count(args):
    system = _system(_load(args.instance))
    print(count_spanning_transversals(system, budget=args.budget))
    return 0


def cmd_minsize(args):
    system = _system(_load(args.instance))
    print(min_spanning_partial_size(system, budget=args.budget))
    return 0


def cmd_generate(args):
    system = generate(
        args.kind,
        args.dim,
        sizes=args.sizes,
        seed=args.seed,
        transform_seed=args.transform_seed,
    )
    instance = InstanceFile(system.dim, system.sets, ("",) * len(system.sets))
    text = emit_instance(instance)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {args.out}")
    return 0


_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b"]


def _render_svg(system: ColourSystem, tv):
    size = 400
    half = size / 2
    ray_len = half * 0.85
    picked = {(c, e) for c, e in tv.picks}
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<circle cx="{half}" cy="{half}" r="2" fill="black"/>',
    ]
    for i, s in enumerate(system.sets):
        colour = _PALETTE[i % len(_PALETTE)]
        for e, p in enumerate(s):
            x, y = float(p[0]), float(p[1])
            norm = (x * x + y * y) ** 0.5
            px = half + ray_len * x / norm
            py = half - ray_len * y / norm
            width = 3 if (i, e) in picked else 1
            lines.append(
                f'<line x1="{half}" y1="{half}" x2="{px:.2f}" y2="{py:.2f}" '
                f'stroke="{colour}" stroke-width="{width}"/>'
            )
            if (i, e) in picked:
                lines.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="4" fill="{colour}"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def cmd_plot(args):
    system = _system(_load(args.instance))
    if system.dim != 2:
        raise ParseError("plot supports dimension 2 only")
    tv, _ = colorful_transversal(system)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(_render_svg(system, tv))
    print(f"wrote {args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="colorsteinitz",
        description="exact conic reductions, colorful transversals, and classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("verify", cmd_verify, help="check that every set positively spans")
    p.add_argument("instance")

    p = add("reduce", cmd_reduce, help="spanning subset of size at most 2d")
    p.add_argument("instance")
    p.add_argument("--cert", default=None, help="write a span certificate here")

    p = add("refine", cmd_refine, help="spanning subset of size at most 2d-1, or basis case")
    p.add_argument("instance")
    p.add_argument("--cert", default=None)

    p = add("transversal", cmd_transversal, help="full spanning transversal")
    p.add_argument("instance")
    p.add_argument("--trace", action="store_true", help="print the pivot trace")
    p.add_argument("--cert", default=None)

    p = add("classify", cmd_classify, help="BCase / PCase / Neither with witness")
    p.add_argument("instance")
    p.add_argument("--cert", default=None)

    budget_help = "most spanning checks to make (default %(default)s)"
    p = add("count", cmd_count, help="number of spanning full transversals")
    p.add_argument("instance")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help=budget_help)

    p = add("minsize", cmd_minsize, help="smallest spanning partial transversal size")
    p.add_argument("instance")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help=budget_help)

    p = add("generate", cmd_generate, help="write a generated instance file")
    p.add_argument("kind", choices=["bcase", "pcase", "random"])
    p.add_argument("dim", type=int)
    p.add_argument("out")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sizes", type=int, default=None)
    p.add_argument("--transform-seed", type=int, default=None)

    p = add("plot", cmd_plot, help="SVG of the rays and a found transversal (d=2)")
    p.add_argument("instance")
    p.add_argument("out")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except NotSpanning as exc:
        where = "input" if exc.colour is None else f"set {exc.colour + 1}"
        print(f"{where} does not span; witness w = {format_point(exc.witness.w)}")
        return 1
    except (ParseError, OSError, BudgetExceeded, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
