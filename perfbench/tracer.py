"""Span tracing around the package's layer boundaries, from outside the package.

The package imports names with ``from .ratlin import rref``, so one function
object is bound in several module namespaces (and ``oracle._spanning`` is an
alias of ``cones.spanning``).  ``Tracer.install`` therefore replaces every
binding of each target function in every loaded ``colorsteinitz`` module, and
``Tracer.uninstall`` puts every original back.  Methods are replaced once on
their class.

Each call of a wrapped function records one span: the function id, start,
end and the index of the enclosing span.  Spans live in flat arrays until
``summary`` turns them into per-function counts and self times.
"""

from __future__ import annotations

import sys
import time
from array import array

PACKAGE = "colorsteinitz"

# Layer boundaries, as "module:qualified name".  Scalar vector helpers
# (dot, add, neg, primitive_ray, ...) are left out: they run millions of
# times per second and wrapping them would measure the wrapper.
TARGETS = (
    "ratlin:rref",
    "ratlin:rank",
    "ratlin:null_space",
    "ratlin:solve_columns",
    "ratlin:in_linear_hull",
    "ratlin:lp_feasibility",
    "cones:pos_membership",
    "cones:spans_space",
    "cones:spanning",
    "cones:nearest_cone_point",
    "caratheodory:cone_caratheodory",
    "caratheodory:colorful_cone_caratheodory",
    "steinitz:generic_direction",
    "steinitz:steinitz_reduce",
    "steinitz:basis_case",
    "steinitz:refine_below_2d",
    "colorful:ColourSystem.check_spanning",
    "colorful:structural_bcase",
    "colorful:structural_pcase",
    "colorful:colorful_transversal",
    "colorful:find_small_transversal",
    "colorful:classify",
    "oracle:enumerate_report",
    "oracle:min_spanning_partial_size",
    "certio:render_transversal",
    "certio:render_span",
    "checkcert:check_text",
)


def _package_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    def __init__(self):
        self.names = []  # function id -> "module.qualname"
        self.missing = []  # targets the loaded package does not define
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self._patched = []  # (owner, attribute, original)

    # -- installation ------------------------------------------------------

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        for target in TARGETS:
            modname, qualname = target.split(":")
            owner = sys.modules.get(f"{PACKAGE}.{modname}")
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.append(target)
                continue
            wrapper = self._wrap(len(self.names), fn)
            self.names.append(f"{modname}.{qualname}")
            if path:
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, name, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, fid, fn):
        fids, parents, starts, ends = self.fid, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    # -- aggregation -------------------------------------------------------

    def summary(self):
        """Per-function aggregates and the span-tree relations the metrics use.

        Returns a dict keyed by "module.qualname" with ``calls``, ``self_s``
        (duration minus the time of child spans), ``incl_s`` (duration;
        a recursive call is counted at every level), ``ratlin_free`` (calls with no
        ``ratlin`` span below them), ``spanning_below`` (``cones.spanning``
        spans below all calls) and ``children`` (direct child call counts
        by name).
        """
        n = len(self.fid)
        fids, parents, starts, ends = self.fid, self.parent, self.start, self.end
        child_s = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child_s[p] += ends[i] - starts[i]

        is_ratlin = [name.startswith("ratlin.") for name in self.names]
        spanning_fid = self.names.index("cones.spanning") if "cones.spanning" in self.names else -1
        ratlin_below = [False] * n
        spanning_below = [0] * n
        # children are recorded after their parent, so one reverse pass
        # folds every subtree into its root
        for i in range(n - 1, -1, -1):
            p = parents[i]
            if p >= 0:
                f = fids[i]
                ratlin_below[p] = ratlin_below[p] or ratlin_below[i] or is_ratlin[f]
                spanning_below[p] += spanning_below[i] + (f == spanning_fid)

        stats = {
            name: {
                "calls": 0,
                "self_s": 0.0,
                "incl_s": 0.0,
                "ratlin_free": 0,
                "spanning_below": 0,
                "children": {},
            }
            for name in self.names
        }
        rows = [stats[name] for name in self.names]
        for i in range(n):
            row = rows[fids[i]]
            d = ends[i] - starts[i]
            row["calls"] += 1
            row["self_s"] += d - child_s[i]
            row["incl_s"] += d
            row["ratlin_free"] += not ratlin_below[i]
            row["spanning_below"] += spanning_below[i]
            p = parents[i]
            if p >= 0:
                children = rows[fids[p]]["children"]
                name = self.names[fids[i]]
                children[name] = children.get(name, 0) + 1
        return stats
