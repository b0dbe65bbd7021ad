"""Architecture rules of ``src/pgm``, read off the syntax tree."""

import ast
from collections import defaultdict
from pathlib import Path

import pgm

SRC = Path(pgm.__file__).resolve().parent


def _calls_and_raises():
    """``(module, enclosing function, dotted callee)`` of every call, and
    ``(module, exception name)`` of every ``raise X(...)``, in ``src/pgm``."""
    calls, raises = [], []
    for path in sorted(SRC.glob("*.py")):
        module = path.stem

        def visit(node, func):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit(child, child.name)
                    continue
                if isinstance(child, ast.Call):
                    calls.append((module, func, ast.unparse(child.func)))
                if isinstance(child, ast.Raise) and isinstance(child.exc, ast.Call):
                    raises.append((module, ast.unparse(child.exc.func)))
                visit(child, func)

        visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return calls, raises


def test_symmetric_eigensolvers_called_only_in_eigh():
    # riemannian_dist keeps scipy's generalized solver for B x = lambda A x
    calls, _ = _calls_and_raises()
    sites = {
        (module, func, callee)
        for module, func, callee in calls
        if callee.rsplit(".", 1)[-1] in ("eigh", "eigvalsh")
    }
    assert sites == {
        ("linalg", "_eigh", "np.linalg.eigh"),
        ("linalg", "_eigh", "np.linalg.eigvalsh"),
        ("linalg", "riemannian_dist", "scipy.linalg.eigh"),
    }


def test_not_positive_definite_raised_only_in_linalg():
    _, raises = _calls_and_raises()
    modules = {module for module, exc in raises if exc.endswith("NotPositiveDefinite")}
    assert modules == {"linalg"}


def test_public_eigensolves_admit_their_argument_through_the_dense_door():
    """In ``linalg`` and ``means``, a public function that calls ``_eigh`` also
    calls ``_dense``, or ``_pd_stack``, which admits each member through it."""
    calls, _ = _calls_and_raises()
    callees = defaultdict(set)
    for module, func, callee in calls:
        if module in ("linalg", "means") and func and not func.startswith("_"):
            callees[module, func].add(callee)
    eigensolving = {key for key, called in callees.items() if "_eigh" in called}
    assert {("linalg", "mat_fn"), ("linalg", "is_pd"), ("means", "geomean")} <= eigensolving
    door = {"_dense", "_pd_stack"}
    bare = sorted(f"{m}.{f}" for m, f in eigensolving if not callees[m, f] & door)
    assert bare == []


def test_one_dense_door():
    defined = {
        node.name
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef)
    }
    assert "_dense" in defined
    assert defined & {"_square", "_symmetric"} == set()


def _defaults(func):
    """``(parameter, position)`` of each parameter of ``func`` with a default;
    position skips ``self``/``cls`` and is None for a keyword-only one."""
    args = func.args
    positional = args.posonlyargs + args.args
    if positional and positional[0].arg in ("self", "cls"):
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    found = [(arg.arg, k) for k, arg in enumerate(positional[first:], start=first)]
    return found + [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]


def _walk_functions(tree):
    """``(name, node, enclosing function)`` of every call and function
    definition in ``tree``; an ``__init__`` is named by its class."""

    def visit(node, cls, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, child.name, func)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = cls if child.name == "__init__" else child.name
                yield name, child, func
                yield from visit(child, None, child)
            else:
                if isinstance(child, ast.Call):
                    yield ast.unparse(child.func).rsplit(".", 1)[-1], child, func
                yield from visit(child, cls, func)

    return visit(tree, None, None)


def test_every_optional_parameter_is_set_by_some_call():
    """Each parameter with a default in ``src/pgm`` is passed, by keyword or by
    position, by some call in ``src/pgm``, ``tests`` or ``demos``: a value that
    no caller sets is a constant, not an option.  Callees match by their last
    dotted name, a starred argument covers every position from its own on, and
    a ``src/pgm`` function that passes on its own option sets the callee's
    option once its own is set."""
    root = SRC.parent.parent
    paths = [*SRC.glob("*.py"), *(root / "tests").glob("*.py"), *(root / "demos").glob("*.py")]
    options, names = [], {}
    origins = defaultdict(list)  # (callee, name or position) -> option passed on, or None
    starred = {}  # callee -> first position a starred argument may fill
    for path in sorted(paths):
        for name, node, func in _walk_functions(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                names[node] = name
                if path.parent == SRC:
                    options += [(path.stem, name, p, k) for p, k in _defaults(node)]
                continue
            own = {p for p, _ in _defaults(func)} if func and path.parent == SRC else set()

            def origin(value):
                forwarded = isinstance(value, ast.Name) and value.id in own
                return (names[func], value.id) if forwarded else None

            for k, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    starred[name] = min(k, starred.get(name, k))
                    break
                origins[name, k].append(origin(arg))
            for kw in node.keywords:
                origins[name, kw.arg].append(origin(kw.value))
    is_set, grew = set(), True
    while grew:
        grew = False
        for _, func, name, k in options:
            sources = origins[func, name] + origins[func, k]
            if k is not None and k >= starred.get(func, k + 1):
                sources.append(None)
            if (func, name) not in is_set and any(s is None or s in is_set for s in sources):
                is_set.add((func, name))
                grew = True
    unset = [f"{m}.{func}({name})" for m, func, name, _ in options if (func, name) not in is_set]
    assert unset == []


def test_trace_integral_has_no_quadrature():
    """The trace integral is in closed form: no function in ``means`` builds a
    node grid, and no function in ``src/pgm`` takes a node count."""
    calls, _ = _calls_and_raises()
    grids = {(module, func) for module, func, callee in calls if callee == "np.linspace"}
    assert ("cli", "_sweep_table") in grids
    assert {module for module, _ in grids} == {"cli"}
    params = {
        arg.arg
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs
    }
    assert "quad_points" not in params
