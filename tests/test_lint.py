"""Static checks on the package source, stdlib only: every import is used,
every private module-level function or class is referenced somewhere in
the package, every defaulted parameter is passed somewhere, the decision
paths stay free of floats, and only cones.spanning_picks scans candidate
picks with spanning."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "colorsteinitz"
# where the package's functions are called from
CALLERS = (PACKAGE, PACKAGE.parent.parent / "tests", PACKAGE.parent.parent / "perfbench")


def _modules():
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def _loaded_names(nodes):
    """Names read or bound by the given nodes, and attribute names on them."""
    names = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def _imported(tree):
    """(bound name, line) for every import outside ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_no_unused_imports():
    unused = []
    for name, tree in _modules().items():
        if name == "__init__.py":  # re-exports
            continue
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{name}:{line} {bound}" for bound, line in _imported(tree) if bound not in used]
    assert unused == []


def test_no_unreferenced_private_definitions():
    modules = _modules()
    dead = []
    for name, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            # a reference from the definition's own body does not count
            elsewhere = [n for n in tree.body if n is not node]
            elsewhere += [t for other, t in modules.items() if other != name]
            if node.name not in _loaded_names(elsewhere):
                dead.append(f"{name}:{node.lineno} {node.name}")
    assert dead == []


def _defaulted(name, args, skip):
    """(name, position, parameter) for each parameter of ``args`` that has a
    default; keyword-only ones have no position.  The first ``skip``
    parameters (``self``) are not counted in the position."""
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], first):
        yield name, i - skip, arg.arg
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield name, None, arg.arg


def _passed_arguments():
    """(callee's bare name, position or keyword) for every argument of every
    call in CALLERS; a ``*args`` or ``**kwargs`` is recorded as "*"."""
    passed = set()
    for directory in CALLERS:
        for path in sorted(directory.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                passed.update((name, i) for i in range(len(node.args)))
                passed.update((name, k.arg or "*") for k in node.keywords)
                if any(isinstance(a, ast.Starred) for a in node.args):
                    passed.add((name, "*"))
    return passed


def test_every_defaulted_parameter_is_passed_somewhere():
    """An option that no caller sets decides nothing: make it a constant.
    Covers module-level functions and ``__init__`` (called by class name)."""
    passed = _passed_arguments()
    unset = []
    for module, tree in _modules().items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                params = _defaulted(node.name, node.args, 0)
            elif isinstance(node, ast.ClassDef):
                inits = [f for f in node.body if isinstance(f, ast.FunctionDef) and f.name == "__init__"]
                params = [p for f in inits for p in _defaulted(node.name, f.args, 1)]
            else:
                continue
            for name, position, param in params:
                if not passed & {(name, position), (name, param), (name, "*")}:
                    unset.append(f"{module} {name}({param}=)")
    assert unset == []


# The integer kernels, by module: in int code a "/" is a float.
INT_KERNELS = {
    "ratlin.py": (
        "_pivot",
        "_echelon",
        "rank",
        "rref",
        "_null_basis",
        "null_space",
        "solve_columns",
        "lp_feasibility",
    ),
    "cones.py": (
        "nearest_cone_point",
        "spanning",
        "_gale_half_plane",
        "_one_signed",
        "_dependence_rays",
        "_ray_vertex",
    ),
    "steinitz.py": ("generic_direction", "_hull_test"),
    "checkcert.py": ("_rational", "_parse_point", "_combination", "_reproduces", "check_block"),
}
# Floats are drawn only: the SVG of the `plot` command.
FLOAT_ALLOWED = {("cli.py", "_render_svg")}


def test_no_true_division_in_integer_kernels():
    modules = _modules()
    found = []
    for module, names in INT_KERNELS.items():
        kernels = {n.name: n for n in modules[module].body if isinstance(n, ast.FunctionDef)}
        for name in names:
            for node in ast.walk(kernels[name]):
                if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                    found.append(f"{module}:{node.lineno} {name}")
    assert found == []


def test_no_floats_outside_the_plot():
    found = []
    for name, tree in _modules().items():
        for top in tree.body:
            if (name, getattr(top, "name", None)) in FLOAT_ALLOWED:
                continue
            for node in ast.walk(top):
                literal = isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
                call = (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "float"
                )
                if literal or call:
                    found.append(f"{name}:{node.lineno}")
    assert found == []


def _binds(assign, name):
    return any(isinstance(t, ast.Name) and t.id == name for t in assign.targets)


def _tracer_targets():
    """The TARGETS tuple of perfbench/tracer.py, read without importing it."""
    path = PACKAGE.parent.parent / "perfbench" / "tracer.py"
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and _binds(node, "TARGETS"):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py has no TARGETS")


def _defines(body, path):
    """Whether the statements ``body`` define the dotted name ``path``."""
    head, *rest = path
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name == head:
                return not rest or isinstance(node, ast.ClassDef) and _defines(node.body, rest)
        elif isinstance(node, ast.Assign) and not rest and _binds(node, head):
            return True
    return False


def test_every_tracer_target_is_defined():
    """perfbench traces these functions by name, and its own tests fail
    when one of them is missing from the package."""
    modules = _modules()
    targets = _tracer_targets()
    assert targets
    missing = []
    for target in targets:
        module, qualname = target.split(":")
        tree = modules.get(f"{module}.py")
        if tree is None or not _defines(tree.body, qualname.split(".")):
            missing.append(target)
    assert missing == []


SCANS = ("combinations", "product")
SPAN_TESTS = ("spanning", "_spanning")
# The one exhaustive spanning search, with its budget.
SCAN_ALLOWED = {("cones.py", "spanning_picks")}


def _called_name(node):
    return getattr(node.func, "id", None) or getattr(node.func, "attr", None)


def _scan_loops(tree):
    """The for loops and comprehensions of ``tree`` that iterate over a
    ``combinations(...)`` or ``product(...)`` call."""
    for node in ast.walk(tree):
        if isinstance(node, ast.For):
            iters = [node.iter]
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            iters = [g.iter for g in node.generators]
        else:
            continue
        if any(isinstance(i, ast.Call) and _called_name(i) in SCANS for i in iters):
            yield node


def _spanning_scans(name, tree):
    """'module:line' of each spanning call inside a scan loop, outside SCAN_ALLOWED."""
    found = set()
    for top in tree.body:
        if (name, getattr(top, "name", None)) in SCAN_ALLOWED:
            continue
        for loop in _scan_loops(top):
            for node in ast.walk(loop):
                if isinstance(node, ast.Call) and _called_name(node) in SPAN_TESTS:
                    found.add(f"{name}:{node.lineno}")
    return sorted(found)


def test_one_exhaustive_spanning_search():
    """Scans of candidate picks go through cones.spanning_picks, which keeps
    the scan order and the budget in one place."""
    found = []
    for name, tree in _modules().items():
        found += _spanning_scans(name, tree)
    assert found == []


def test_spanning_scan_guard_sees_loops_and_comprehensions():
    source = """
def loop(rays, k):
    for combo in combinations(rays, k):
        if spanning(combo):
            return combo

def comprehension(groups):
    return sum(1 for rays in product(*groups) if _spanning(rays))

def allowed(points):
    return [p for p in combinations(points, 2) if p] and spanning(points)
"""
    assert _spanning_scans("m.py", ast.parse(source)) == ["m.py:4", "m.py:8"]
