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


# The public forms of liealg, each with the trusted forms it calls once
# its checks pass, as the module docstring lists them; below them the
# trusted forms and the ones each calls in turn.
_TRUSTED_CALLS = {
    "restrict": ("_table", "_algebra"),
    "quotient": ("_table", "_algebra"),
    "is_nilpotent": ("_nilpotent_on",),
    "is_solvable": ("_solvable_on",),
    "_nilpotent_on": ("algebra_on",),
    "_solvable_on": ("algebra_on",),
    "algebra_on": ("_canonical_algebra",),
    "algebra_modulo": ("_canonical_algebra",),
    "_canonical_algebra": ("_table", "_algebra"),
}
_TRUSTED = (
    "_nilpotent_on", "_solvable_on", "algebra_on", "algebra_modulo", "_canonical_algebra", "_table", "_algebra"
)
# Of L itself, with no subspace, these answer from L's memo and check nothing.
_WHOLE_ALGEBRA = ("is_nilpotent", "is_solvable")


def _calls(node):
    """(name, call) for every call made in a function, nested ones too."""
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            target = call.func
            yield (target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)), call


def _checks(name, call):
    return not (name in _WHOLE_ALGEBRA and len(call.args) == 1)


def test_public_forms_check_then_call_trusted_forms():
    # A checking form raises or calls one, directly or in turn; each public
    # form of the table checks and calls its trusted forms, and a trusted
    # form never checks.  So algebra_modulo cannot go back to building
    # l.quotient, which tests is_ideal again.
    tree = ast.parse(Path(cideals.liealg.__file__).read_text(encoding="utf-8"))
    (algebra,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "LieAlgebra"]
    functions = {node.name: node for node in tree.body + algebra.body if isinstance(node, ast.FunctionDef)}
    checking = {"_check_subspace"}
    while True:
        more = {
            name
            for name, node in functions.items()
            if any(isinstance(n, ast.Raise) for n in ast.walk(node))
            or any(called in checking and _checks(called, call) for called, call in _calls(node))
        }
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
