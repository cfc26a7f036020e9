import ast
from pathlib import Path

import cideals


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so invariants must raise.
    found = []
    for path in sorted(Path(cideals.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def _decorator_name(node):
    target = node.func if isinstance(node, ast.Call) else node
    return target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)


_CACHES = ("lru_cache", "cache", "cached_property")


def test_module_level_caches_do_not_grow():
    # Derived objects live in the memo that value-equal algebras share
    # (liealg.canonical); a verdict memo belongs to the call that uses it,
    # never to the module.  So no functools cache may come back, as a
    # decorator, a call or an import.
    found = []
    for path in sorted(Path(cideals.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                hits = [d for d in node.decorator_list if _decorator_name(d) in _CACHES]
            elif isinstance(node, ast.ImportFrom) and node.module == "functools":
                hits = [a for a in node.names if a.name in _CACHES + ("*",)]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                hits = [node] if node.value.id == "functools" and node.attr in _CACHES else []
            else:
                hits = []
            found += [f"{path.name}:{node.lineno}" for _ in hits]
    assert found == []


def test_oracles_import_only_the_public_namespace():
    # The oracles cross-check the library, so they reach it only through
    # the names the top-level package exports: no submodule, no _-name.
    path = Path(__file__).parent / "oracles.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.startswith("cideals.")]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cideals":
            if node.module != "cideals":
                found.append(node.module)
            found += [a.name for a in node.names if a.name not in cideals.__all__]
    assert found == []


# Over Q a raw value is an int when integral, and an int over an int is
# a float; so every true division goes through fields._qdiv, except the
# two whose operands are Fractions by construction.
_DIVISIONS = {("fields.py", "_qdiv"), ("fields.py", "_monic"), ("fields.py", "Scalar.inverse")}


class _Divisions(ast.NodeVisitor):
    def __init__(self, filename):
        self.filename = filename
        self.scope = []
        self.found = []

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scoped

    def _operation(self, node):
        site = (self.filename, ".".join(self.scope))
        if isinstance(node.op, ast.Div) and site not in _DIVISIONS:
            self.found.append(f"{self.filename}:{node.lineno} in {site[1] or 'module'}")
        self.generic_visit(node)

    visit_BinOp = visit_AugAssign = _operation


def test_true_division_only_in_the_division_helper():
    found = []
    for path in sorted(Path(cideals.__file__).parent.glob("*.py")):
        visitor = _Divisions(path.name)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        found += visitor.found
    assert found == []


# The public forms of liealg, lattice, structure and cideal, each with the
# trusted forms it calls once its checks pass, as the module docstrings
# list them; below them the trusted forms and the ones each calls in turn.
# Library code that has checked its input calls the trusted forms too.
_TRUSTED_CALLS = {
    # liealg
    "is_ideal": ("_ideal_annihilator",),
    "restrict": ("_table", "_algebra"),
    "quotient": ("_table", "_algebra"),
    "is_nilpotent": ("_nilpotent_on",),
    "is_solvable": ("_solvable_on",),
    "_nilpotent_on": ("_pair_brackets", "_reaches_zero"),
    "_solvable_on": ("_reaches_zero",),
    "_reaches_zero": ("_table", "_algebra"),
    "algebra_on": ("_canonical_algebra",),
    "algebra_modulo": ("_canonical_algebra",),
    "_canonical_algebra": ("_table", "_algebra"),
    # lattice
    "core": ("_core",),
    # structure: F(L) is closed, and so are the ideals of L; with a flag of
    # ideals F(L) and the nilradical are read off the flag's weights
    "frattini_of_subalgebra": ("_frattini_of_closed",),
    "frattini": ("_frattini_subalgebra", "_core"),
    "radicals": ("_flag_weights", "_ideal_annihilator", "_nilpotent_on", "_solvable_on"),
    "_frattini_of_closed": ("algebra_on", "_frattini_subalgebra"),
    "_frattini_subalgebra": ("_flag_weights", "_flag_frattini"),
    # cideal.  The named exception: is_cideal checks in _is_cideal, on a
    # memo miss only, so a repeat pays no closure test.
    "verify_certificate": ("_verify_closed",),
    "is_cideal": ("_is_cideal",),
    "_is_cideal": ("_verify_closed", "_core", "_yes", "_line_cideal"),
    "is_cideal_by_scan": ("_core",),
    "line_cideal": ("_line_cideal",),
    "frattini_consequence_check": ("_frattini_of_closed", "_frattini_consequence"),
    "_yes": ("_checked",),
    "_checked": ("_verify_closed",),
    "_verify_closed": ("_ideal_annihilator", "_closed_is_ideal"),
    "_line_cideal": ("_verify_closed", "_yes", "_checked"),
    "_frattini_consequence": ("_closed_is_ideal", "frattini"),
    # harness: each B of T11 is closed and lies inside F(C) by construction
    "_t11": ("_frattini_of_closed", "_frattini_consequence"),
}
_TRUSTED = (
    "_nilpotent_on", "_solvable_on", "_reaches_zero", "algebra_on", "algebra_modulo", "_canonical_algebra", "_table", "_algebra",
    "_ideal_annihilator",
    "_core",
    "frattini", "radicals", "_frattini_of_closed", "_frattini_subalgebra", "_flag_frattini",
    "_verify_closed", "_yes", "_checked", "_line_cideal", "_frattini_consequence",
    "_t11",
)
_MODULES = ("liealg", "lattice", "structure", "cideal", "harness")
# Of L itself, with no subspace, these answer from L's memo and check nothing.
_WHOLE_ALGEBRA = ("is_nilpotent", "is_solvable", "_flag_weights")
# The budgeted listings check the field and charge the budget, not an
# input subspace, so trusted forms may call them.
_BUDGET_CHARGES = (
    "enum_subspaces",
    "enum_subalgebras",
    "enum_ideals",
    "maximal_subalgebras",
    "maximal_nilpotent_subalgebras",
    "one_dim_ideals",
    "_check_budget",
)


def _calls(node):
    """(name, call) for every call made in a function, nested ones too."""
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            target = call.func
            yield (target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)), call


def _checks(name, call):
    return not (name in _WHOLE_ALGEBRA and len(call.args) == 1)


def _raised(node):
    """The name of each exception a function raises by a call."""
    return [getattr(getattr(n.exc, "func", None), "id", None) for n in ast.walk(node) if isinstance(n, ast.Raise)]


def _functions():
    """Every module-level function of _MODULES and method of LieAlgebra, by name."""
    functions = {}
    for module in _MODULES:
        tree = ast.parse(Path(getattr(cideals, module).__file__).read_text(encoding="utf-8"))
        body = list(tree.body)
        body += [n for c in tree.body if isinstance(c, ast.ClassDef) and c.name == "LieAlgebra" for n in c.body]
        for node in body:
            if isinstance(node, ast.FunctionDef):
                assert node.name not in functions, node.name
                functions[node.name] = node
    return functions


def test_not_subalgebra_raised_by_the_closure_check_only():
    # One place raises NotSubalgebra for a subspace that is not closed, with
    # each caller's message; restrict's reader raises it mid-table.
    found = [name for name, node in _functions().items() if "NotSubalgebra" in _raised(node)]
    assert sorted(found) == ["_require_closed", "restrict"]


def test_one_walk_over_row_pairs_in_liealg():
    # Only _pair_brackets brackets the pairs a < b of a basis's rows, so
    # is_subalgebra and span_product(u, u) read what the listing kept; the
    # other brackets are bracket's own, ad_matrix's columns and the u x v
    # product of span_product.
    tree = ast.parse(Path(cideals.liealg.__file__).read_text(encoding="utf-8"))
    found = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and any(name == "bracket_raw" for name, _ in _calls(node))
    }
    assert sorted(found) == ["_pair_brackets", "ad_matrix", "bracket", "span_product"]


def test_public_forms_check_then_call_trusted_forms():
    # A checking form raises or calls one, directly or in turn; each public
    # form of the table checks and calls its trusted forms, and a trusted
    # form never checks.  So algebra_modulo cannot go back to building
    # l.quotient, which tests is_ideal again, frattini cannot go back to
    # core, and T11 cannot go back to frattini_consequence_check.
    # An internal error (AssertionError) is not a check.
    functions = _functions()
    checking = {"_check_subspace"}

    def checks(node):
        return any(e != "AssertionError" for e in _raised(node)) or any(
            called in checking and _checks(called, call) for called, call in _calls(node)
        )

    while True:
        more = {name for name, node in functions.items() if name not in _BUDGET_CHARGES and checks(node)}
        if more <= checking:
            break
        checking |= more
    public = [form for form in _TRUSTED_CALLS if form not in _TRUSTED]
    assert [form for form in public if form not in checking] == []
    missing = [
        (form, trusted)
        for form, calls in _TRUSTED_CALLS.items()
        for trusted in calls
        if trusted not in {name for name, _ in _calls(functions[form])}
    ]
    assert missing == []
    found = [
        (form, name)
        for form in _TRUSTED
        for name, call in _calls(functions[form])
        if name in checking and _checks(name, call)
    ]
    assert found == [] and not checking & set(_TRUSTED)
