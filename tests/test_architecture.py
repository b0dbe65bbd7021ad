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


def test_partial_pd_is_proved_in_partial_alone():
    """``_require_partial_pd`` and ``_offenders`` take the partial matrix and ``tol`` and
    read its array and clique sequence themselves: each call passes exactly two
    arguments, ``clique_extremes`` is called only in ``partial``, and ``means`` never
    names ``_clique_sequence``."""
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
    for helper in ("_require_partial_pd", "_offenders"):
        bad = [
            (module, ast.unparse(node))
            for module, node in calls[helper]
            if len(node.args) + len(node.keywords) != 2
            or any(isinstance(a, ast.Starred) for a in node.args)
        ]
        assert calls[helper] and bad == []
    assert {module for module, _ in calls["clique_extremes"]} == {"partial"}


def test_public_eigensolves_admit_their_argument_through_the_dense_door():
    """In ``linalg`` and ``means``, a public function that calls ``_eigh`` or ``_spectrum``
    also calls ``_dense``, or ``_pd_stack``, which admits each member through it."""
    calls, _ = _calls_and_raises()
    callees = defaultdict(set)
    for module, func, callee in calls:
        if module in ("linalg", "means") and func and not func.startswith("_"):
            callees[module, func].add(callee)
    eigensolving = {key for key, called in callees.items() if called & {"_eigh", "_spectrum"}}
    assert {("linalg", "mat_fn"), ("linalg", "is_pd"), ("linalg", "log_det"),
            ("means", "geomean")} <= eigensolving
    door = {"_dense", "_pd_stack"}
    bare = sorted(f"{m}.{f}" for m, f in eigensolving if not callees[m, f] & door)
    assert bare == []


def test_unchecked_mean_core_runs_only_behind_a_pd_test():
    """``means._geomean_core`` trusts its caller to have PD-tested both operands:
    only ``geomean`` and ``partial_geomean_sweep`` name it, each to call it, and
    each runs a PD test (``_require``, ``_definite`` or ``is_pd``) on a line before."""
    naming, first_call, first_test = set(), {}, {}  # first_*: function -> first line
    for name, node in _functions().items():
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id == "_geomean_core":
                naming.add(name)
            if isinstance(sub, ast.Call):
                callee, line = ast.unparse(sub.func), sub.lineno
                if callee == "_geomean_core":
                    first_call[name] = min(line, first_call.get(name, line))
                if callee in ("_require", "_definite", "is_pd"):
                    first_test[name] = min(line, first_test.get(name, line))
    assert sorted(naming) == sorted(first_call) == ["means.geomean", "means.partial_geomean_sweep"]
    assert all(first_test.get(name, line) < line for name, line in first_call.items())


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
    """Each printed matrix is one ``%`` over its flat values, and a dense view
    one ``np.where``: no ``for`` loop or comprehension in them."""
    functions = _functions()
    names = ["cli.format_matrix", "cli.format_partial", "cli._human_matrix",
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


def test_no_linear_determinant_in_completion_or_means():
    """Completion and the means work with log-determinants; only the sweep's
    ``det`` column is a linear determinant."""
    calls, _ = _calls_and_raises()
    sites = {
        (module, func, callee)
        for module, func, callee in calls
        if module in ("completion", "means") and callee in ("det", "np.linalg.det", "linalg.det")
    }
    assert sites == {("means", "partial_geomean_sweep", "np.linalg.det")}


PUBLIC_NAMES = [
    "AgmResult", "AsymmetricPattern", "ChordalityResult", "Comparison", "CompletionReport",
    "DEFAULT_TOL", "DimensionMismatch", "EntropyIdentities", "FeasibilityInterval",
    "GeomeanPropertyReport", "InternalNumerics", "KarcherResult", "MissingDiagonal",
    "NotCompletable", "NotPartialPD", "NotPositiveDefinite", "OutOfRange", "ParseError",
    "PartialGeomeanResult", "PartialMatrix", "Pattern", "PatternMismatch", "PgmError",
    "SampleSet", "TooManyMissing", "WeightVector", "add", "agm_iteration", "agrees",
    "as_sym_matrix", "block_max_property", "completion_with_det", "det_integral_identity",
    "entropy_identities", "feasibility_range", "fro_norm", "gaussian_entropy", "geomean",
    "geomean_properties_check", "invm", "is_chordal", "is_partial_pd", "is_pd", "is_psd",
    "karcher_mean", "log_det", "mat_fn", "max_det_completion", "maximal_cliques",
    "missing_positions", "offending_cliques", "op_norm", "partial_entry_bounds",
    "partial_geomean_maxdet", "partial_geomean_sweep", "partial_order", "powm", "project",
    "riemannian_dist", "scale", "set_geomean", "single_entry_interval", "sub", "sym",
]


def test_public_surface_is_pinned():
    """``pgm`` exports exactly these names (submodules aside): a new export is a deliberate edit."""
    exported = sorted(
        name for name, value in vars(pgm).items()
        if not name.startswith("_") and not isinstance(value, type(pgm))
    )
    assert exported == PUBLIC_NAMES == sorted(PUBLIC_NAMES)


ORACLE_ACCESSORS = "accessors that the test oracles use instead of the private arrays"
SET_OPERATIONS = "the paper's set operations, for the planned ledger of set-mean properties"
#: Public functions and methods kept without a caller in ``src/pgm`` or ``demos``, each
#: for a reason.
UNCALLED_ALLOWED = {
    "partial.agrees": "six assertions in test_completion use it; inlining it only moves code",
    "partial.project": "the paper's projection of a full matrix onto a pattern",
    "cli.format_partial": "writes the text format that parse_partial reads",
    "means.block_max_property": "Ando's characterization of A # B, a ledger row for partial means",
    "pattern.Pattern.has_edge": ORACLE_ACCESSORS,
    "partial.PartialMatrix.entry": ORACLE_ACCESSORS,
    "means.SampleSet.scale": SET_OPERATIONS,
    "means.SampleSet.inverse": SET_OPERATIONS,
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
    value, since the type of the value is not known."""
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
            for node in ast.walk(unit):
                if isinstance(node, ast.Name):
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
