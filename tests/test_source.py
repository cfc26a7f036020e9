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
