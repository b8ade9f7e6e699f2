"""Command-line front end.

Exit codes: 0 success with an affirmative result, 1 negative structural
result (for example a non-spanning input), 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

from . import certio
from .colorful import BCase, ColourSystem, Neither, PCase, _pivoted_transversal, classify
from .cones import DEFAULT_BUDGET, refute_spanning, spanning
from .errors import BudgetExceeded, GeometryError, NotSpanning, ParseError
from .instancefile import InstanceFile, emit_instance, parse_instance
from .oracle import count_spanning_transversals, generate, min_spanning_partial_size
from .ratlin import format_point
from .steinitz import BasisCaseWitness, basis_case, refine_below_2d, steinitz_reduce


def _load(path) -> InstanceFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def _system(path) -> ColourSystem:
    instance = _load(path)
    if len(instance.sets) != 2 * instance.dim:
        raise ParseError(
            f"command needs a colour system with {2 * instance.dim} sets, got {len(instance.sets)}"
        )
    return ColourSystem(instance.dim, instance.sets)


def _single_set(path):
    instance = _load(path)
    if len(instance.sets) != 1:
        raise ParseError("command needs a single-set instance")
    return list(instance.sets[0])


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _report_subset(verb, bound, points, result, cert_path):
    """Print the subset result.indices of points; write its span certificate."""
    print(f"{verb} to {len(result.indices)} points (bound {bound})")
    for i in result.indices:
        print(f"  [{i}] {format_point(points[i])}")
    if cert_path:
        chosen = [points[i] for i in result.indices]
        _write(cert_path, certio.render_span(result.certificate, chosen))


def _report_transversal(system, tv, certificate, cert_path, indent=""):
    """Print the picks of tv; write its transversal certificate."""
    for c, e in tv.picks:
        print(f"{indent}colour {c + 1} -> point {e + 1} : {format_point(system.sets[c][e])}")
    if cert_path:
        _write(cert_path, certio.render_transversal(tv.picks, certificate, tv.points(system)))


def cmd_verify(args):
    bad = False
    for i, s in enumerate(_load(args.instance).sets):
        if spanning(s):
            print(f"set {i + 1}: spans")
        else:
            print(f"set {i + 1}: NOT spanning, witness w = {format_point(refute_spanning(s).w)}")
            bad = True
    return 1 if bad else 0


def cmd_reduce(args):
    points = _single_set(args.instance)
    d = len(points[0])
    reduced = steinitz_reduce(points)
    _report_subset("reduced", 2 * d, points, reduced, args.cert)
    if len(reduced.indices) == 2 * d and basis_case(points) is not None:
        print("note: basis case, no spanning subset of size 2d-1 exists")
    return 0


def cmd_refine(args):
    points = _single_set(args.instance)
    res = refine_below_2d(points)
    if isinstance(res, BasisCaseWitness):
        print("basis case: the rays are exactly +-e_1..+-e_d for the basis")
        for e in res.basis:
            print(f"  {format_point(e)}")
    else:
        _report_subset("refined", 2 * len(points[0]) - 1, points, res, args.cert)
    return 0


def cmd_transversal(args):
    system = _system(args.instance)
    tv, cert, first, second = _pivoted_transversal(system)
    if args.trace:
        for label, pivot in (("forward", first), ("backward", second)):
            print(f"trace {label}: initial sqdist {pivot.initial_sqdist}")
            for step in pivot.trace:
                print(f"pivot colour={step.colour} enter={step.entering_index} "
                      f"sqdist={step.sqdist}")
    _report_transversal(system, tv, cert, args.cert)
    return 0


def cmd_classify(args):
    system = _system(args.instance)
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
        _report_transversal(system, result.witness, result.certificate, args.cert, "  ")
    return 0


def _print_oracle(oracle, args):
    print(oracle(_system(args.instance), budget=args.budget))
    return 0


cmd_count = partial(_print_oracle, count_spanning_transversals)
cmd_minsize = partial(_print_oracle, min_spanning_partial_size)


def cmd_generate(args):
    system = generate(
        args.kind, args.dim, sizes=args.sizes, seed=args.seed, transform_seed=args.transform_seed
    )
    _write(args.out, emit_instance(InstanceFile(system.dim, system.sets, ("",) * len(system.sets))))
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
    system = _system(args.instance)
    if system.dim != 2:
        raise ParseError("plot supports dimension 2 only")
    _write(args.out, _render_svg(system, _pivoted_transversal(system)[0]))
    print(f"wrote {args.out}")
    return 0


_INSTANCE = ("instance", {})
_OUT = ("out", {})
_CERT = ("--cert", {})
_BUDGET = ("--budget", {"type": int, "default": DEFAULT_BUDGET,
                        "help": "most spanning checks to make (default %(default)s)"})

# name, handler, help, (argument, add_argument options); --help keeps this order
_COMMANDS = (
    ("verify", cmd_verify, "check that every set positively spans", [_INSTANCE]),
    ("reduce", cmd_reduce, "spanning subset of size at most 2d",
     [_INSTANCE, ("--cert", {"help": "write a span certificate here"})]),
    ("refine", cmd_refine, "spanning subset of size at most 2d-1, or basis case",
     [_INSTANCE, _CERT]),
    ("transversal", cmd_transversal, "full spanning transversal",
     [_INSTANCE, ("--trace", {"action": "store_true", "help": "print the pivot trace"}), _CERT]),
    ("classify", cmd_classify, "BCase / PCase / Neither with witness", [_INSTANCE, _CERT]),
    ("count", cmd_count, "number of spanning full transversals", [_INSTANCE, _BUDGET]),
    ("minsize", cmd_minsize, "smallest spanning partial transversal size", [_INSTANCE, _BUDGET]),
    ("generate", cmd_generate, "write a generated instance file", [
        ("kind", {"choices": ["bcase", "pcase", "random"]}),
        ("dim", {"type": int}),
        _OUT,
        ("--seed", {"type": int, "default": 0}),
        ("--sizes", {"type": int}),
        ("--transform-seed", {"type": int}),
    ]),
    ("plot", cmd_plot, "SVG of the rays and a found transversal (d=2)", [_INSTANCE, _OUT]),
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="colorsteinitz",
        description="exact conic reductions, colorful transversals, and classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, text, arguments in _COMMANDS:
        p = sub.add_parser(name, help=text)
        p.set_defaults(fn=fn)
        for flag, options in arguments:
            p.add_argument(flag, **options)
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
