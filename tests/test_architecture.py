"""Architecture rules of ``src/pgm``, read off the syntax tree and the public signatures."""

import ast
import inspect
import math
import re
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

import pgm
from conftest import ex1_partial_a, ex1_partial_b

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


def test_scipy_imported_only_by_linalg_and_called_only_by_riemannian_dist():
    """Only ``linalg`` imports ``scipy`` (it registers ``scipy.linalg`` lazily), and only
    ``riemannian_dist`` calls it, so no other path runs scipy's code."""
    importers = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            if any(module.split(".")[0] == "scipy" for module in modules):
                importers.add(path.stem)
    calls, _ = _calls_and_raises()
    callers = {(module, func) for module, func, callee in calls if "scipy" in callee.split(".")}
    assert importers == {"linalg"}
    assert callers == {("linalg", "riemannian_dist")}


def test_not_positive_definite_raised_only_in_linalg():
    _, raises = _calls_and_raises()
    modules = {module for module, exc in raises if exc.endswith("NotPositiveDefinite")}
    assert modules == {"linalg"}


def test_every_imported_name_is_used():
    """Each name that a module of ``src/pgm`` imports is read in that module, as a name or the
    base of an attribute, so a change that stops using a helper drops its import too.
    ``__init__`` is exempt: its imports are the public surface that ``PUBLIC_NAMES`` pins."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) != "__future__":  # a compiler directive, no name
                names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
                unused += [f"{path.stem}: {name}" for name in names if name not in read]
    assert unused == []


def test_partial_pd_is_proved_in_partial_alone():
    """``_require_partial_pd`` and ``offending_cliques`` take the partial matrix and ``tol`` and
    read its array and clique sequence themselves: each call passes exactly two
    arguments, and ``means`` never names ``_clique_sequence``.  ``partial_order`` gathers its
    clique blocks through ``_clique_blocks`` alone, one stack per clique size, and calls no
    ``np.ix_``."""
    calls = defaultdict(list)
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls[ast.unparse(node.func).rsplit(".", 1)[-1]].append((path.stem, node))
        if path.stem == "means":
            named = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
            named |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            assert "_clique_sequence" not in named
    for helper in ("_require_partial_pd", "offending_cliques"):
        bad = [
            (module, ast.unparse(node))
            for module, node in calls[helper]
            if len(node.args) + len(node.keywords) != 2
            or any(isinstance(a, ast.Starred) for a in node.args)
        ]
        assert calls[helper] and bad == []
    in_order = {callee.rsplit(".", 1)[-1] for module, func, callee in _calls_and_raises()[0]
                if (module, func) == ("partial", "partial_order")}
    assert "_clique_blocks" in in_order and "ix_" not in in_order


def test_public_eigensolves_admit_their_argument_through_the_dense_door():
    """In ``linalg`` and ``means``, a public function that calls ``_eigh`` or ``_spectrum``,
    or proves PD by ``_pd_test``, ``_pd_factor`` or ``_require_pd``, also calls ``_dense``, or
    ``_pd_stack``, which admits each member through it.  One that calls a private function of
    its own module that does counts too, and the door is then in it or in that private
    function."""
    calls, _ = _calls_and_raises()
    callees = defaultdict(set)
    for module, func, callee in calls:
        if module in ("linalg", "means") and func:
            callees[module, func].add(callee)
    solves = {"_eigh", "_spectrum", "_pd_test", "_pd_factor", "_require_pd"}
    door = {"_dense", "_pd_stack"}
    eigensolving, bare = set(), []
    for (module, func), called in callees.items():
        if func.startswith("_"):
            continue
        private = [callees[module, c] for c in called
                   if c.startswith("_") and (module, c) in callees]
        for step in [called, *private]:  # the function itself, then each private one it calls
            if step & solves:
                eigensolving.add((module, func))
                if not (called | step) & door:
                    bare.append(f"{module}.{func}")
    assert {("linalg", "is_pd"), ("linalg", "log_det"), ("means", "geomean")} <= eigensolving
    assert bare == []


def test_unchecked_mean_core_runs_only_behind_a_pd_test():
    """``means._geomean_core`` and the per-cell ``_geomean_cells`` under it trust their caller
    to have PD-tested both operands: only ``geomean`` and ``entropy_identities`` (which prove
    their operands by ``_require_pd``), ``partial_geomean_sweep`` (the cells),
    ``partial_geomean_maxdet`` (whose Â and B̂ a converged completion certified), and
    ``karcher_mean``, ``geomean_properties_check``, ``set_geomean`` and ``block_max_property``
    (whose means take the factors of their ``_pd_stack`` proofs, of means of those, or of
    matrices built from those; ``set_geomean`` proves each set once and sends no mean through a
    door) name them, besides the core itself,
    each to call one, and each runs a PD test (``_require``, ``_definite``, ``is_pd``,
    ``_pd_factor``, ``_require_pd``, ``require_converged`` or ``_pd_stack``) on a line before."""
    tests = ("_require", "_definite", "is_pd", "_pd_factor", "_require_pd", "require_converged",
             "_pd_stack")
    cores = ("_geomean_core", "_geomean_cells")
    naming, first_call, first_test = set(), {}, {}  # first_*: function -> first line
    for name, node in _functions().items():
        if name == "means._geomean_core":
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id in cores:
                naming.add(name)
            if isinstance(sub, ast.Call):
                callee, line = ast.unparse(sub.func), sub.lineno
                if callee in cores:
                    first_call[name] = min(line, first_call.get(name, line))
                if callee.rsplit(".", 1)[-1] in tests:
                    first_test[name] = min(line, first_test.get(name, line))
    assert sorted(naming) == sorted(first_call) == [
        "means.block_max_property", "means.entropy_identities", "means.geomean",
        "means.geomean_properties_check", "means.karcher_mean", "means.partial_geomean_maxdet",
        "means.partial_geomean_sweep", "means.set_geomean",
    ]
    assert all(first_test.get(name, line) < line for name, line in first_call.items())


#: The calls that read the call stack.
FRAME_LOOKUPS = {"sys._getframe", "inspect.currentframe", "inspect.stack",
                 "inspect.getouterframes", "traceback.extract_stack"}


def test_no_call_stack_introspection():
    """No function in ``src/pgm`` asks who called it, by a dotted call or a name imported from
    its module: what a call does, a warning included, depends on its arguments, not on the
    frames above it, so a wrapper of an entry changes nothing."""
    calls, _ = _calls_and_raises()
    imported = {
        f"{node.module}.{alias.name}"
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level == 0
        for alias in node.names
    }
    assert [f"{m}.{f}" for m, f, callee in calls if callee in FRAME_LOOKUPS] == []
    assert imported & FRAME_LOOKUPS == set()


def test_cli_reads_files_as_bytes():
    """``cli`` opens each file it reads in binary mode and decodes the bytes itself: no
    ``open`` call there reads in text mode (the default ``"r"`` or any mode without ``"b"``
    that is not write-only), and none calls ``read_text``.  On a 357 KB partial-matrix file
    a text-mode read costs about twelve times a binary read and ``bytes.decode``."""
    calls, _ = _calls_and_raises()
    assert [f for m, f, callee in calls if m == "cli" and callee.endswith("read_text")] == []
    modes = []
    for node in ast.walk(ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and ast.unparse(node.func).rsplit(".", 1)[-1] == "open":
            mode = [*node.args[1:2], *(k.value for k in node.keywords if k.arg == "mode")]
            modes.append(ast.literal_eval(mode[0]) if mode else "r")
    reads = [m for m in modes if "+" in m or not set("wax") & set(m)]
    assert "rb" in reads  # parse_partial's read, so the walk sees the calls
    assert [m for m in reads if "b" not in m] == []


def test_cli_tokenizes_in_one_place():
    """``cli`` has one array reader: ``_parse_lines`` calls ``_tokenize`` once, on the file's
    bytes, and nothing in ``cli`` encodes a ``str`` back into bytes for it to read."""
    calls, _ = _calls_and_raises()
    cli_calls = [(f, callee) for m, f, callee in calls if m == "cli"]
    assert [c for c in cli_calls if c[1].endswith("_tokenize")] == [("_parse_lines", "_tokenize")]
    assert [c for c in cli_calls if c[1].endswith(".encode")] == []


def test_pattern_keeps_one_neighbor_structure():
    """``pattern`` holds each vertex's neighbors in one structure, its bit rows: it calls
    ``np.packbits`` in one function, ``_rows``, and builds no set but the edge sets (in
    ``from_pairs`` and the derived ``edges`` frozenset) and the gap sets of ``_mcs``.  A
    second neighbor structure, such as adjacency sets beside the rows, fails here."""
    packs, sets = [], []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            name = owner
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{owner}.{child.name}".lstrip(".")
            callee = ast.unparse(child.func) if isinstance(child, ast.Call) else None
            if callee == "np.packbits":
                packs.append(name)
            if isinstance(child, (ast.Set, ast.SetComp)) or callee in ("set", "frozenset"):
                sets.append(name)
            visit(child, name)

    visit(ast.parse((SRC / "pattern.py").read_text(encoding="utf-8")), "")
    assert packs == ["_rows"]
    assert sorted(sets) == ["Pattern.__getattr__", "Pattern._mcs",
                            "Pattern.from_pairs", "Pattern.from_pairs"]


def test_no_internal_call_of_the_public_geomean():
    """``geomean`` is an entry for users: it warns about its own ``t``.  The means in
    ``src/pgm`` take ``_geomean`` or the core, so nothing there calls it."""
    calls, _ = _calls_and_raises()
    assert [f"{m}.{f}" for m, f, c in calls if c.rsplit(".", 1)[-1] == "geomean"] == []


def test_congruences_take_a_cholesky_factor():
    """The means take ``L^-1 B L^-T`` with ``A = L L^T``, never a square root of an
    operand: ``means`` calls no ``np.sqrt``.  A factor comes from the PD proof
    (``linalg._pd_factor``) or, for a matrix the code builds, from ``linalg._factor``, and the
    congruence from ``linalg._whiten``: ``src/pgm`` calls no ``np.linalg.cholesky``, ``solve``
    or ``inv``, ``linalg._cholesky`` is called only in ``linalg`` (the verdict ``_pd_test``, and
    the factors of ``_pd_factor`` and ``_factor``) and ``completion._newton``, and ``means``
    calls no ``_inv``."""
    calls, _ = _calls_and_raises()
    assert [func for module, func, callee in calls
            if module == "means" and callee in ("np.sqrt", "math.sqrt")] == []
    public = ("np.linalg.cholesky", "np.linalg.solve", "np.linalg.inv")
    assert [(module, func) for module, func, callee in calls if callee in public] == []
    sites = {(module, func) for module, func, callee in calls if callee == "_cholesky"}
    assert sites == {("linalg", "_pd_test"), ("linalg", "_pd_factor"), ("linalg", "_factor"),
                     ("completion", "_newton")}
    assert [func for module, func, callee in calls if module == "means" and callee == "_inv"] == []


def test_numpy_raw_kernels_named_only_in_linalg():
    """numpy's raw LAPACK kernels (``_umath_linalg``: the stacked Cholesky, which gives NaN for
    a member it refuses where the public ``np.linalg.cholesky`` raises for the whole stack, and
    the solve and inverse without their wrappers) are named only in ``linalg``, once, where
    ``linalg._lapack`` binds them, nowhere else in ``src/pgm``, not even in an import."""
    sites = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for site, unit in _sites(tree, path.stem, path):
            for node in ast.walk(unit):
                names = {getattr(node, "attr", None), getattr(node, "id", None),
                         getattr(node, "module", None)}
                names |= {a.name for a in getattr(node, "names", [])
                          if isinstance(node, (ast.Import, ast.ImportFrom))}
                if any(n and "_umath_linalg" in n for n in names):
                    sites.append(str(site))
    assert sites == [str(SRC / "linalg.py")]


def test_completion_solves_and_inverts_on_linalg_kernels():
    """``completion`` takes every solve and inverse from ``linalg._solve`` and ``_inv``, under
    ``linalg._kernels``, and ``means`` every congruence (and the property check's inverses) from
    ``linalg._whiten``, every factor of a matrix it builds from ``linalg._factor``, and its one
    solve, the harmonic mean's, from ``linalg._solve``: neither calls ``np.linalg.solve``,
    ``np.linalg.inv`` or ``np.linalg.cholesky``."""
    calls, _ = _calls_and_raises()
    public = [(module, func, callee) for module, func, callee in calls
              if module in ("completion", "means") and callee in
              ("np.linalg.solve", "np.linalg.inv", "np.linalg.cholesky", "np.linalg._umath_linalg")]
    kernels = {func for module, func, callee in calls
               if module == "completion" and callee in ("_solve", "_inv")}
    assert public == []
    assert kernels == {"single_entry_interval", "_ips", "_newton", "_certify", "_closed_form"}
    means = defaultdict(set)
    for module, func, callee in calls:
        if module == "means" and callee in ("_whiten", "_factor", "_solve"):
            means[callee].add(func)
    assert means == {"_whiten": {"_geomean_cells", "_karcher", "_trace_integral",
                                 "geomean_properties_check"},
                     "_factor": {"partial_geomean_maxdet", "_karcher", "_trace_integral",
                                 "entropy_identities", "geomean_properties_check", "_harmonic"},
                     "_solve": {"_harmonic"}}


def test_agm_steps_and_the_harmonic_mean_reach_no_eigensolver():
    """The AGM's steps (``means._agm``) and the harmonic mean they take (``means._harmonic``)
    run on one Cholesky and one solve: no function they reach in ``src/pgm``, however deep,
    calls an eigensolver, and ``_harmonic`` reaches ``_factor`` and ``_solve``."""
    functions = _functions()
    by_name = defaultdict(list)  # bare name -> defined functions, so a call resolves by name
    for name in functions:
        by_name[name.rsplit(".", 1)[-1]].append(name)
    spectra = {"_eigh", "_spectrum", "eigh", "eigvalsh", "eig", "eigvals", "svd"}

    def reached(name):
        seen, todo, callees = {name}, [name], set()
        while todo:
            for node in ast.walk(functions[todo.pop()]):
                if isinstance(node, ast.Call):
                    callee = ast.unparse(node.func).rsplit(".", 1)[-1]
                    callees.add(callee)
                    todo += [f for f in by_name[callee] if f not in seen]
                    seen.update(by_name[callee])
        return callees

    assert reached("means._agm") & spectra == set()
    assert reached("means._harmonic") & spectra == set()
    assert {"_factor", "_solve"} <= reached("means._harmonic") <= reached("means._agm")


#: The PD gates, each marked True if it still eigensolves: the sweep, for the eigenvalues it
#: prints, never for a verdict.
PD_GATES = {"means.geomean": False, "linalg._pd_stack": False, "linalg.is_pd": False,
            "partial.offending_cliques": False, "means.partial_geomean_sweep": True,
            "completion._refute": False}


def test_pd_gates_take_no_spectral_verdict():
    """Each of ``PD_GATES`` calls ``_pd_test``, ``_pd_factor`` or ``_require_pd``, no
    ``_definite`` or ``_require``, and, unless marked, no eigensolver."""
    functions = _functions()
    proofs, verdicts = {"_pd_test", "_pd_factor", "_require_pd"}, {"_definite", "_require"}
    spectra = {"_eigh", "_spectrum", "eigh", "eigvalsh"}
    found = []
    for name, eigensolves in PD_GATES.items():
        called = {ast.unparse(node.func).rsplit(".", 1)[-1]
                  for node in ast.walk(functions[name]) if isinstance(node, ast.Call)}
        banned = verdicts if eigensolves else verdicts | spectra
        found += [f"{name}: no proof"] * (not called & proofs)
        found += [f"{name}: {c}" for c in sorted(called & banned)]
    assert found == []


#: Where every tolerance is relative to the operands' own scale: whole modules, and the
#: comparisons of ``means``.  The absolute tolerances on scale-invariant quantities stay:
#: the Lipschitz bound and the log-determinant identity of ``geomean_properties_check``,
#: gradient norms and Newton decrements.
SCALE_FREE = {"linalg": None, "partial": None, "completion": None,
              "means": {"_close", "_psd_geq", "set_geomean"}}


def test_no_absolute_unit_in_scale_free_tests():
    """``max(1.0, ...)``, ``np.maximum(1.0, ...)`` and ``initial=1.0`` put a fixed unit into a
    tolerance, so ``c A`` would get another verdict than ``A``: none is left in ``SCALE_FREE``
    (any numeric constant counts, not only 1.0)."""
    found = []
    for module, names in SCALE_FREE.items():
        tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
        scopes = [tree] if names is None else [
            node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name in names
        ]
        assert names is None or {node.name for node in scopes} == names
        for node in (sub for scope in scopes for sub in ast.walk(scope)):
            if not isinstance(node, ast.Call):
                continue
            numbers = [a for a in node.args if isinstance(a, ast.Constant)
                       and isinstance(a.value, (int, float)) and not isinstance(a.value, bool)]
            if ast.unparse(node.func) in ("max", "np.maximum", "np.fmax") and numbers:
                found.append(f"{module}: {ast.unparse(node)}")
            found += [f"{module}: {ast.unparse(node)}" for kw in node.keywords
                      if kw.arg == "initial" and isinstance(kw.value, ast.Constant)]
    assert found == []


def test_cli_imports_no_private_library_name():
    """The CLI reaches the library through its public names only."""
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


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
    """The trace integral is in closed form: the sweep is the one function in
    ``src/pgm`` that builds a grid, and none takes a node count."""
    calls, _ = _calls_and_raises()
    grids = {(module, func) for module, func, callee in calls if callee == "np.linspace"}
    assert grids == {("means", "partial_geomean_sweep")}
    params = {
        arg.arg
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs
    }
    assert "quad_points" not in params


def _functions():
    """``{module.Class.function: node}`` of every function defined in ``src/pgm``."""
    found = {}
    for path in sorted(SRC.glob("*.py")):

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = f"{prefix}.{child.name}"
                    if not isinstance(child, ast.ClassDef):
                        found[name] = child
                    visit(child, name)

        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def test_edges_normalized_only_on_the_dict_input_paths():
    """Storage is one array per matrix: only the constructors and lookups that
    take ``(i, j)`` pairs from a caller normalize them one by one."""
    callers = {
        name
        for name, node in _functions().items()
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and ast.unparse(call.func) == "_normalize_edge"
    }
    assert callers == {
        "pattern.Pattern.from_pairs",
        "pattern.Pattern.has_edge",
        "partial.PartialMatrix.__post_init__",
        "partial.PartialMatrix.entry",
    }


def test_matrix_text_and_dense_views_have_no_per_entry_loop():
    """Each printed matrix is one ``%`` over the values :func:`cli._cells` formats, and a
    dense view one ``np.where``: no ``for`` loop or comprehension in them."""
    functions = _functions()
    names = ["cli.format_matrix", "cli.format_partial", "cli._human_matrix", "cli._cells",
             "partial.PartialMatrix.to_dense"]
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    looping = [n for n in names if any(isinstance(x, loops) for x in ast.walk(functions[n]))]
    assert looping == []


def test_results_store_only_the_log_determinant():
    """``CompletionReport`` and ``PartialGeomeanResult`` hold ``log_determinant``
    as a field; ``determinant`` is derived from it, so no class declares it."""
    results = {"completion": "CompletionReport", "means": "PartialGeomeanResult"}
    fields = {
        (node.name, ast.unparse(item.target))
        for module, name in results.items()
        for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef) and node.name == name
        for item in node.body
        if isinstance(item, ast.AnnAssign)
    }
    assert {(name, "log_determinant") for name in results.values()} <= fields
    assert [f for f in fields if f[1] == "determinant"] == []


def test_completion_consumers_require_convergence():
    """Every call of ``max_det_completion`` in ``src/pgm`` is the receiver of
    ``require_converged()``, except in ``pgm complete``, whose output is the iterate."""
    calls, checked = [], set()
    for name, node in _functions().items():
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) and ast.unparse(sub.func) == "max_det_completion":
                calls.append((name, sub))
            if isinstance(sub, ast.Attribute) and sub.attr == "require_converged":
                checked.add(sub.value)
    assert [name for name, call in calls if call not in checked] == ["cli.cmd_complete"]


def test_max_det_completion_picks_its_path_once():
    """``_closed_form`` is called only by ``max_det_completion``, outside every loop; a
    ``CompletionReport`` is built only in ``_certify``, the one certificate of the closed
    form (a complete pattern included) and the iterative path; and only ``pattern``
    reads ``is_complete``."""
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    closed_forms, reports = [], []
    for name, node in _functions().items():
        looped = {id(sub) for loop in ast.walk(node) if isinstance(loop, loops)
                  for sub in ast.walk(loop)}
        for call in ast.walk(node):
            if isinstance(call, ast.Call) and ast.unparse(call.func) == "_closed_form":
                closed_forms.append((name, id(call) in looped))
            if isinstance(call, ast.Call) and ast.unparse(call.func) == "CompletionReport":
                reports.append(name)
    assert closed_forms == [("completion.max_det_completion", False)]
    assert reports == ["completion._certify"]
    readers = {path.stem for path in SRC.glob("*.py")
               if "is_complete" in path.read_text(encoding="utf-8")}
    assert readers == {"pattern"}


LOGS = {"np.log", "np.log2", "np.log10", "np.log1p", "math.log", "math.log2", "math.log10"}


def test_one_log_determinant_kernel():
    """``pgm`` turns a matrix into a determinant in one place: nothing in ``src/pgm`` calls
    ``det`` or ``slogdet``, and only ``linalg._log_det`` takes a log of a diagonal
    (``diagonal`` or ``diag``), so a log-determinant is read off a Cholesky factor there
    alone.  The spectral log-sums of ``completion._certify`` and ``means._trace_integral``
    are not diagonals and stay."""
    calls, _ = _calls_and_raises()
    dets = [site for site in calls if site[2].rsplit(".", 1)[-1] in ("det", "slogdet")]
    logs = set()
    for name, node in _functions().items():
        for call in ast.walk(node):
            if isinstance(call, ast.Call) and ast.unparse(call.func) in LOGS:
                inner = {ast.unparse(sub.func).rsplit(".", 1)[-1] for arg in call.args
                         for sub in ast.walk(arg) if isinstance(sub, ast.Call)}
                if inner & {"diagonal", "diag"}:
                    logs.add(name)
    assert dets == []
    assert logs == {"linalg._log_det"}


PUBLIC_NAMES = [
    "AgmResult", "AsymmetricPattern", "ChordalityResult", "Comparison", "CompletionReport",
    "DEFAULT_TOL", "DimensionMismatch", "EntropyIdentities", "FeasibilityInterval",
    "GeomeanPropertyReport", "InternalNumerics", "KarcherResult", "MissingDiagonal",
    "NotCompletable", "NotPartialPD", "NotPositiveDefinite", "OutOfRange", "ParseError",
    "PartialGeomeanResult", "PartialMatrix", "Pattern", "PatternMismatch", "PgmError",
    "TooManyMissing", "add", "agm_iteration", "block_max_property", "completion_with_det",
    "entropy_identities", "fro_norm", "gaussian_entropy", "geomean", "geomean_properties_check",
    "is_chordal", "is_partial_pd", "is_pd", "is_psd", "karcher_mean", "log_det",
    "max_det_completion", "maximal_cliques", "missing_positions", "offending_cliques", "op_norm",
    "partial_entry_bounds", "partial_geomean_maxdet", "partial_geomean_sweep", "partial_order",
    "project", "riemannian_dist", "scale", "set_geomean", "single_entry_interval", "sub", "sym",
]


def test_public_surface_is_pinned():
    """``pgm`` exports exactly these names (submodules aside): a new export is a deliberate edit."""
    exported = sorted(
        name for name, value in vars(pgm).items()
        if not name.startswith("_") and not isinstance(value, type(pgm))
    )
    assert exported == PUBLIC_NAMES == sorted(PUBLIC_NAMES)


ORACLE_ACCESSORS = "accessors that the test oracles use instead of the private arrays"
#: Public functions and methods kept without a caller in ``src/pgm`` or ``demos``, each
#: for a reason.
UNCALLED_ALLOWED = {
    "linalg.log_det": "the log-determinant of a user's matrix; pgm's own callers read "
                      "_log_det off the factors they already hold",
    "partial.project": "the paper's projection of a full matrix onto a pattern",
    "cli.format_partial": "writes the text format that parse_partial reads",
    "means.block_max_property": "Ando's characterization of A # B, a ledger row for partial means",
    "pattern.Pattern.has_edge": ORACLE_ACCESSORS,
    "partial.PartialMatrix.entry": ORACLE_ACCESSORS,
}


def _sites(tree, module, path):
    """``(site, node)`` pairs that cover a file: each top-level function is the
    site ``module.function`` and each method of a top-level class the site
    ``module.Class.method``; the rest of the file is the site ``path``."""
    for top in tree.body:
        if isinstance(top, ast.FunctionDef):
            yield f"{module}.{top.name}", top
        elif isinstance(top, ast.ClassDef):
            for item in top.body:
                method = isinstance(item, ast.FunctionDef)
                yield (f"{module}.{top.name}.{item.name}" if method else path), item
            yield from ((path, node) for node in [*top.bases, *top.keywords, *top.decorator_list])
        else:
            yield path, top


def test_every_public_function_has_a_caller():
    """Each public module-level function in ``src/pgm``, and each public method,
    property and classmethod of a public class there, is named by code in
    ``src/pgm`` outside its own body and ``__init__``, or by a demo, or is in
    ``UNCALLED_ALLOWED``; ``main`` dispatches the ``cli.cmd_*`` handlers by name.
    A function is named by a bare name or by an attribute of a ``pgm`` module, so
    ``np.linalg.det`` does not name ``det``; a method by an attribute of any
    value, since the type of the value is not known.  A bare name that is a
    parameter or a stored local of the site that reads it names nothing, so the
    local ``scale`` of ``partial_order`` does not name ``partial.scale``."""
    defined, names, attributes = set(), defaultdict(set), defaultdict(set)  # name -> sites
    modules = {"pgm", *(path.stem for path in SRC.glob("*.py"))}
    demos = sorted((SRC.parent.parent / "demos").glob("*.py"))
    for path in [*sorted(SRC.glob("*.py")), *demos]:
        if path == SRC / "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for site, unit in _sites(tree, path.stem, path):
            public = isinstance(site, str) and not any(
                part.startswith("_") for part in site.split(".")[1:]
            )
            if path.parent == SRC and public:
                defined.add(site)
            local = {node.arg for node in ast.walk(unit) if isinstance(node, ast.arg)}
            local |= {node.id for node in ast.walk(unit)
                      if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
            for node in ast.walk(unit):
                if isinstance(node, ast.Name) and node.id not in local:
                    names[node.id].add(site)
                elif isinstance(node, ast.Attribute):
                    attributes[node.attr].add(site)
                    if ast.unparse(node.value) in modules:
                        names[node.attr].add(site)

    def named(site):
        *owner, name = site.split(".")
        return (attributes if len(owner) == 2 else names)[name] - {site}

    uncalled = sorted(s for s in defined if not s.startswith("cli.cmd_") and not named(s))
    assert uncalled == sorted(UNCALLED_ALLOWED)


#: Loops over a literal ``range`` kept outside ``completion._run``, each for a reason.
FIXED_LOOPS_ALLOWED = {
    "completion.completion_with_det": "at most three corrections of one entry on its parabola",
}
ORDERS = (ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _orders(node):
    """True if ``node`` is a comparison by order or equality."""
    return isinstance(node, ast.Compare) and any(isinstance(op, ORDERS) for op in node.ops)


def _budget_loops(name, func):
    """The budget loops of ``func``: a ``while`` whose test orders or equates, a ``for`` over a
    literal ``range``, and a comparison of a ``range`` or ``enumerate`` count with a non-literal."""
    found = []
    for node in ast.walk(func):
        if isinstance(node, ast.While) and any(_orders(c) for c in ast.walk(node.test)):
            found.append(f"{name}: while {ast.unparse(node.test)}")
        if not (isinstance(node, ast.For) and isinstance(node.iter, ast.Call)):
            continue
        callee, args = ast.unparse(node.iter.func), node.iter.args
        if callee == "range" and all(isinstance(a, ast.Constant) for a in args):
            found.append(f"{name}: for ... in {ast.unparse(node.iter)}")
        target = node.target.elts[0] if isinstance(node.target, ast.Tuple) else node.target
        count = target.id if callee in ("range", "enumerate") else None
        found += [f"{name}: {ast.unparse(c)}" for c in ast.walk(node) if _orders(c)
                  and count in {n.id for n in ast.walk(c) if isinstance(n, ast.Name)}
                  and not any(isinstance(x, ast.Constant) for x in [c.left, *c.comparators])]
    return found


def _own_yields(func):
    """The ``yield`` and ``yield from`` nodes of ``func`` outside its nested functions."""
    nested = {id(sub) for inner in ast.walk(func) if inner is not func
              and isinstance(inner, (ast.FunctionDef, ast.Lambda)) for sub in ast.walk(inner)}
    return [n for n in ast.walk(func) if isinstance(n, (ast.Yield, ast.YieldFrom))
            and id(n) not in nested]


def test_one_step_budget():
    """Only ``completion._run`` compares a step count with a budget.  ``max_cycles`` and
    ``max_steps`` are read only by their gate (an ``if`` that raises) and by the call into
    ``_run``.  Nothing else in ``src/pgm`` loops over a budget (:func:`_budget_loops`; the
    ``FIXED_LOOPS_ALLOWED`` aside).  The phases ``_run`` runs are the private module-level
    generators: every function that yields is one, and each is called as ``_run``'s first
    argument or by ``yield from`` in another phase."""
    budgets = {"max_cycles", "max_steps"}
    stray, loops, phases, run = [], [], {}, []
    for name, func in _functions().items():
        allowed = set()  # ids of the nodes under a gate or in a call of _run
        for node in ast.walk(func):
            if isinstance(node, ast.If) and all(isinstance(s, ast.Raise) for s in node.body):
                allowed |= {id(sub) for sub in ast.walk(node)}
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "_run":
                allowed |= {id(sub) for arg in node.args for sub in ast.walk(arg)}
                run.append((name, ast.unparse(node.args[0].func)))
        stray += [name for node in ast.walk(func) if isinstance(node, ast.Name)
                  and node.id in budgets and id(node) not in allowed
                  and isinstance(node.ctx, ast.Load)]
        if name not in ("completion._run", *FIXED_LOOPS_ALLOWED):
            loops += _budget_loops(name, func)
        if yields := _own_yields(func):
            phases[name] = [ast.unparse(n.value.func) for n in yields
                            if isinstance(n, ast.YieldFrom) and isinstance(n.value, ast.Call)]
    assert stray == []
    assert loops == []
    assert sorted(run) == [("completion.max_det_completion", "_ips"),
                           ("means.agm_iteration", "_agm"), ("means.karcher_mean", "_karcher")]
    assert sorted(phases) == ["completion._ips", "completion._newton",
                              "means._agm", "means._karcher"]
    started = {(name.split(".")[0], callee) for name, callee in run}
    started |= {(name.split(".")[0], c) for name, called in phases.items() for c in called}
    assert {f"{module}.{callee}" for module, callee in started} == set(phases)
    assert all(name.count(".") == 1 and name.split(".")[1].startswith("_") for name in phases)


def _tol_calls():
    """The positional arguments of a call of each public function of ``pgm`` that takes a
    ``tol``, valid at ``DEFAULT_TOL``.  They include the cases that a NaN, infinite or negative
    ``tol`` once answered with the wrong verdict or cause: ``is_pd`` passed the indefinite
    ``diag(1, -0.5)`` at ``tol = -1``, ``geomean(I, I)`` and the sweep of the ex1 pair at a NaN
    ``tol`` raised ``NotPositiveDefinite`` or ``NotPartialPD``."""
    pa, pb = ex1_partial_a(), ex1_partial_b()
    eye = np.eye(2)
    (pos,) = pgm.missing_positions(pa.pattern)
    return {
        "geomean": (eye, eye),
        "is_partial_pd": (pa,),
        "is_pd": (np.diag([1.0, -0.5]),),
        "is_psd": (np.diag([1.0, -0.5]),),
        "karcher_mean": ([0.5, 0.5], [eye, 2.0 * eye]),
        "max_det_completion": (pa,),
        "offending_cliques": (pa,),
        "partial_entry_bounds": (pa, pos),
        "partial_geomean_sweep": (pa, pb, 3, 0.5),
        "single_entry_interval": (pa.to_dense(0.0), *pos),
    }


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_every_public_tol_passes_the_gate(tol):
    """Every public function of ``pgm`` with a ``tol`` parameter, found by its signature,
    refuses a NaN, infinite or negative ``tol`` with the one gate's ``ValueError``: a new
    entry fails here until it is listed in :func:`_tol_calls`, and then unless it gates."""
    takers = sorted(name for name, func in vars(pgm).items() if inspect.isfunction(func)
                    and not name.startswith("_") and "tol" in inspect.signature(func).parameters)
    calls = _tol_calls()
    assert sorted(calls) == takers
    message = f"^{re.escape(f'tol must be a finite number >= 0, got {tol!r}')}$"
    for name, args in calls.items():
        getattr(pgm, name)(*args, tol=pgm.DEFAULT_TOL)
        with pytest.raises(ValueError, match=message):
            getattr(pgm, name)(*args, tol=tol)
