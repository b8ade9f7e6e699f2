"""Structured text instance files.

Format (lines, '#' starts a comment, blank lines ignored):

    dim 2
    set blue
    1 0
    0 1
    -1 -1
    set red
    ...

One point per line, coordinates whitespace-separated rational strings
("p/q" or "p", sign on the numerator).  A file holds either a single set
(plain reduction mode) or exactly 2*dim sets (a colour system).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError
from .ratlin import format_point, parse_rat


@dataclass(frozen=True)
class InstanceFile:
    dim: int
    sets: tuple  # tuple of tuples of points
    labels: tuple  # one label string per set ("" if unnamed)


def parse_instance(text: str) -> InstanceFile:
    dim = None
    sets = []
    labels = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "dim":
            if dim is not None:
                raise ParseError("duplicate dim header", lineno)
            if len(fields) != 2 or not fields[1].isdecimal() or int(fields[1]) < 1:
                raise ParseError("dim header needs a positive integer", lineno)
            dim = int(fields[1])
        elif fields[0] == "set":
            if dim is None:
                raise ParseError("set before dim header", lineno)
            sets.append([])
            labels.append(fields[1] if len(fields) > 1 else "")
        else:
            if dim is None:
                raise ParseError("point before dim header", lineno)
            if not sets:
                raise ParseError("point before any set header", lineno)
            try:
                coords = tuple(parse_rat(f) for f in fields)
            except ParseError as exc:
                raise ParseError(str(exc), lineno) from exc
            if len(coords) != dim:
                raise ParseError(
                    f"point has {len(coords)} coordinates, expected {dim}", lineno
                )
            if all(c == 0 for c in coords):
                raise ParseError(
                    f"zero point at set {len(sets)} index {len(sets[-1]) + 1}", lineno
                )
            sets[-1].append(coords)
    if dim is None:
        raise ParseError("missing dim header")
    if not sets:
        raise ParseError("no sets in instance")
    for i, s in enumerate(sets, start=1):
        if not s:
            raise ParseError(f"set {i} is empty")
    if len(sets) not in (1, 2 * dim):
        raise ParseError(
            f"instance has {len(sets)} sets; expected 1 or {2 * dim} for dim {dim}"
        )
    return InstanceFile(dim, tuple(tuple(s) for s in sets), tuple(labels))


def emit_instance(instance: InstanceFile) -> str:
    lines = [f"dim {instance.dim}"]
    for s, label in zip(instance.sets, instance.labels):
        lines.append(f"set {label}".rstrip())
        for p in s:
            lines.append(format_point(p))
    return "\n".join(lines) + "\n"
