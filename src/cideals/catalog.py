"""Algebra documents, the built-in catalog, and the fuzzing generator.

The document format is UTF-8 JSON with scalars carried as strings, so
exact rationals survive every ecosystem unchanged: ``{"field":
{"type": "Q"} | {"type": "GF", "p": 5}, "dim": n, "names": [...],
"brackets": [{"i": i, "j": j, "coeffs": ["1", "0", "-1/2"]}], "meta":
{...}}``.  Serialization is deterministic (sorted keys, canonical
scalar text, one line) and ``serialize(parse(d)) == d`` byte-for-byte
for canonical documents.
"""

from __future__ import annotations

import json
import random

from .errors import (
    BadParams,
    DocumentSyntaxError,
    FieldNotFinite,
    JacobiViolation,
    UnknownName,
)
from .fields import Field, GF, Q
from .linalg import Subspace
from .liealg import LieAlgebra, direct_sum


# ---------------------------------------------------------------------------
# documents

def _field_from_descriptor(desc) -> Field:
    if not isinstance(desc, dict) or "type" not in desc:
        raise DocumentSyntaxError('"field" must be {"type": "Q"} or {"type": "GF", "p": ...}')
    kind = desc.get("type")
    if kind == "Q":
        if set(desc) != {"type"}:
            raise DocumentSyntaxError('rational field descriptor takes no other keys')
        return Q
    if kind == "GF":
        if set(desc) != {"type", "p"}:
            raise DocumentSyntaxError('finite field descriptor needs exactly "type" and "p"')
        p = desc.get("p")
        if not isinstance(p, int) or isinstance(p, bool):
            raise DocumentSyntaxError('"p" must be an integer')
        try:
            return GF(p)
        except BadParams as e:
            raise DocumentSyntaxError(str(e)) from None
    raise DocumentSyntaxError(f'unknown field type {kind!r}')


def _field_descriptor(field: Field) -> dict:
    return {"type": "Q"} if field.p is None else {"type": "GF", "p": field.p}


def parse(text: str, validate: bool = True) -> LieAlgebra:
    """Parse a document; checks the Jacobi identity unless told not to.

    Raises DocumentSyntaxError for any schema problem (with line and
    column when the JSON itself is malformed) and JacobiViolation when
    the constants fail the identity.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentSyntaxError(f"not valid JSON: {e.msg}", line=e.lineno, column=e.colno) from None
    if not isinstance(doc, dict):
        raise DocumentSyntaxError("document must be a JSON object")
    allowed = {"field", "dim", "names", "brackets", "meta"}
    extra = set(doc) - allowed
    if extra:
        raise DocumentSyntaxError(f"unknown document keys: {sorted(extra)}")
    for key in ("field", "dim", "brackets"):
        if key not in doc:
            raise DocumentSyntaxError(f'missing required key "{key}"')
    field = _field_from_descriptor(doc["field"])
    dim = doc["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise DocumentSyntaxError('"dim" must be a non-negative integer')
    names = doc.get("names")
    if names is not None:
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise DocumentSyntaxError('"names" must be a list of strings')
        if len(names) != dim:
            raise DocumentSyntaxError(f'{len(names)} names for dimension {dim}')
    if not isinstance(doc["brackets"], list):
        raise DocumentSyntaxError('"brackets" must be a list')
    brackets = {}
    for k, entry in enumerate(doc["brackets"]):
        if not isinstance(entry, dict) or set(entry) != {"i", "j", "coeffs"}:
            raise DocumentSyntaxError(
                f'bracket entry {k} must have exactly the keys "i", "j", "coeffs"'
            )
        i, j, coeffs = entry["i"], entry["j"], entry["coeffs"]
        if not isinstance(i, int) or not isinstance(j, int) or isinstance(i, bool) or isinstance(j, bool):
            raise DocumentSyntaxError(f'bracket entry {k}: indices must be integers')
        if not (0 <= i < dim and 0 <= j < dim):
            raise DocumentSyntaxError(f"bracket entry {k}: ({i}, {j}) outside 0..{dim - 1}")
        if i >= j:
            raise DocumentSyntaxError(f"bracket entry {k}: need i < j, got ({i}, {j})")
        if (i, j) in brackets:
            raise DocumentSyntaxError(f"duplicate bracket entry for ({i}, {j})")
        if not isinstance(coeffs, list) or len(coeffs) != dim:
            raise DocumentSyntaxError(f'bracket entry {k}: "coeffs" must be a list of {dim} strings')
        vec = []
        for c in coeffs:
            if not isinstance(c, str):
                raise DocumentSyntaxError(f"bracket entry {k}: scalars must be strings, got {c!r}")
            try:
                vec.append(field.raw(c))
            except BadParams as e:
                raise DocumentSyntaxError(f"bracket entry {k}: {e}") from None
        brackets[(i, j)] = tuple(vec)
    meta = doc.get("meta")
    if meta is not None and not isinstance(meta, dict):
        raise DocumentSyntaxError('"meta" must be an object')
    algebra = LieAlgebra(field, dim, names, brackets, meta)
    if validate:
        violations = algebra.validate()
        if violations:
            triples = [(i, j, k) for i, j, k, _ in violations]
            raise JacobiViolation(
                f"Jacobi identity fails on basis triples {triples[:3]}"
                + ("..." if len(triples) > 3 else ""),
                triples=triples,
            )
    return algebra


def serialize(l: LieAlgebra) -> str:
    """Deterministic one-line JSON for an algebra, ending in a newline."""
    brackets = [
        {"i": i, "j": j, "coeffs": [str(x) for x in l._dense(row[j])]}
        for i, row in enumerate(l._ad)
        for j in range(i + 1, l.dim)
        if row[j]
    ]
    doc = {
        "field": _field_descriptor(l.field),
        "dim": l.dim,
        "names": list(l.names),
        "brackets": brackets,
    }
    if l.meta:
        doc["meta"] = l.meta
    return json.dumps(doc, sort_keys=True, separators=(", ", ": ")) + "\n"


# ---------------------------------------------------------------------------
# built-in families

def _abelian(field: Field, n: int) -> LieAlgebra:
    if n < 0:
        raise BadParams("abelian(n) needs n >= 0")
    return LieAlgebra(field, n, None, {})


def _nonabelian2(field: Field) -> LieAlgebra:
    return LieAlgebra(field, 2, ("x", "y"), {(0, 1): (0, 1)})


def _heisenberg(field: Field, dim: int) -> LieAlgebra:
    if dim < 3 or dim % 2 == 0:
        raise BadParams("heisenberg(n) needs odd n >= 3")
    k = (dim - 1) // 2
    z_vec = (0,) * (dim - 1) + (1,)
    brackets = {(i, k + i): z_vec for i in range(k)}
    if k == 1:
        names = ("x", "y", "z")
    else:
        names = tuple(
            [f"x{i + 1}" for i in range(k)] + [f"y{i + 1}" for i in range(k)] + ["z"]
        )
    return LieAlgebra(field, dim, names, brackets)


def _almost_abelian(field: Field, n: int) -> LieAlgebra:
    if n < 2:
        raise BadParams("almost_abelian(n) needs n >= 2")
    brackets = {}
    for i in range(1, n):
        brackets[(0, i)] = tuple(int(t == i) for t in range(n))
    names = ("x",) + tuple(f"y{i}" for i in range(1, n))
    return LieAlgebra(field, n, names, brackets)


def _sl2(field: Field) -> LieAlgebra:
    if field.p == 2:
        raise BadParams("sl2 needs characteristic different from 2")
    # basis (e, f, h): [e,f] = h, [e,h] = -2e, [f,h] = 2f
    brackets = {(0, 1): (0, 0, 1), (0, 2): (-2, 0, 0), (1, 2): (0, 2, 0)}
    return LieAlgebra(field, 3, ("e", "f", "h"), brackets)


def _triangular_positions(n: int, strict: bool) -> list:
    return [(a, b) for a in range(n) for b in range(n) if (a < b if strict else a <= b)]


def _matrix_algebra(field: Field, n: int, strict: bool) -> LieAlgebra:
    if n < 1:
        raise BadParams("matrix algebra size must be >= 1")
    pos = _triangular_positions(n, strict)
    index = {ab: t for t, ab in enumerate(pos)}
    dim = len(pos)
    brackets = {}
    for s, (a, b) in enumerate(pos):
        for t in range(s + 1, dim):
            c, d = pos[t]
            # [E_ab, E_cd] = delta(b,c) E_ad - delta(d,a) E_cb
            coords = [0] * dim
            if b == c and (a, d) in index:
                coords[index[(a, d)]] += 1
            if d == a and (c, b) in index:
                coords[index[(c, b)]] -= 1
            if any(coords):
                brackets[(s, t)] = tuple(coords)
    names = tuple(f"e{a}{b}" for a, b in pos)
    return LieAlgebra(field, dim, names, brackets)


_BUILTINS = {
    "abelian": (_abelian, True, "abelian(n): all brackets zero"),
    "nonabelian2": (lambda f: _nonabelian2(f), False, "nonabelian2: [x,y] = y"),
    "heisenberg": (_heisenberg, True, "heisenberg(2k+1): [x_i, y_i] = z"),
    "almost_abelian": (_almost_abelian, True, "almost_abelian(n): [x, y_i] = y_i"),
    "sl2": (lambda f: _sl2(f), False, "sl2: [e,f]=h, [e,h]=-2e, [f,h]=2f (char != 2)"),
    "upper_triangular": (
        lambda f, n: _matrix_algebra(f, n, strict=False),
        True,
        "upper_triangular(n), alias t(n): n x n upper-triangular matrices",
    ),
    "strictly_upper": (
        lambda f, n: _matrix_algebra(f, n, strict=True),
        True,
        "strictly_upper(n), alias n(n): strictly upper-triangular matrices",
    ),
}

_ALIASES = {"t": "upper_triangular", "n": "strictly_upper"}


def builtin_names() -> list:
    """(name, takes_param, description) rows for the catalog listing."""
    return [(name, takes, desc) for name, (_, takes, desc) in sorted(_BUILTINS.items())]


def _builtin_single(name: str, field: Field, param: int | None) -> LieAlgebra:
    key = _ALIASES.get(name, name)
    if key not in _BUILTINS:
        raise UnknownName(f"no built-in algebra named {name!r}")
    fn, takes_param, _ = _BUILTINS[key]
    if takes_param:
        if param is None:
            raise BadParams(f"{key} needs a parameter")
        return fn(field, param)
    if param is not None:
        raise BadParams(f"{key} takes no parameter")
    return fn(field)


def builtin(name: str, field: Field, param: int | None = None) -> LieAlgebra:
    """A named algebra, validated.

    ``name`` accepts inline parameters and compositions, so
    ``"heisenberg(3)+abelian(1)"`` works as well as ``("heisenberg", 3)``.
    """
    name = name.strip()
    parts = [p.strip() for p in name.split("+")] if "+" in name else [name]
    if len(parts) > 1 and param is not None:
        raise BadParams("pass parameters inline when composing with +")
    algebras = []
    for part in parts:
        inner = param
        if part.endswith(")") and "(" in part:
            if param is not None:
                raise BadParams(f"{name!r} has its parameter inline; pass no other")
            base, arg = part[:-1].split("(", 1)
            part = base.strip()
            try:
                inner = int(arg)
            except ValueError:
                raise BadParams(f"bad parameter {arg!r} in {name!r}") from None
        algebras.append(_builtin_single(part, field, inner))
    out = algebras[0]
    for other in algebras[1:]:
        out = direct_sum(out, other)
    bad = out.validate()
    if bad:
        raise AssertionError(f"built-in {name!r} failed validation: {bad[:1]}")
    return out


_CATALOG_IDS = (
    "abelian(1)",
    "abelian(2)",
    "abelian(3)",
    "abelian(4)",
    "nonabelian2",
    "heisenberg(3)",
    "heisenberg(5)",
    "almost_abelian(3)",
    "almost_abelian(4)",
    "sl2",
    "t(2)",
    "t(3)",
    "n(3)",
    "n(4)",
    "abelian(1)+nonabelian2",
    "heisenberg(3)+abelian(1)",
)


def catalog_algebras(field: Field, max_dim: int | None = None) -> list:
    """The built-in catalog over one field as (id, algebra) pairs.

    sl2 is omitted over characteristic 2; ``max_dim`` filters by
    dimension.
    """
    out = []
    for cid in _CATALOG_IDS:
        if cid == "sl2" and field.p == 2:
            continue
        algebra = builtin(cid, field)
        if max_dim is not None and algebra.dim > max_dim:
            continue
        out.append((cid, algebra))
    return out


# ---------------------------------------------------------------------------
# fuzzing generator

def random_solvable(
    seed: int,
    field: Field,
    ambient_n: int,
    target_dim: int,
    strictly_upper: bool = False,
) -> LieAlgebra:
    """A random solvable algebra, deterministic per seed.

    Samples ``target_dim`` vectors inside the upper-triangular matrix
    algebra t(ambient_n) (or the strictly upper n(ambient_n), which
    makes the result nilpotent), closes the span under the bracket and
    returns the closure's structure constants on its canonical RREF
    basis.  The returned dimension can exceed ``target_dim`` because of
    the closure.
    """
    if field.p is None:
        raise FieldNotFinite("random_solvable needs a finite field")
    if not 2 <= ambient_n <= 5:
        raise BadParams("ambient_n must be between 2 and 5")
    ambient = _matrix_algebra(field, ambient_n, strict=strictly_upper)
    if not 1 <= target_dim <= ambient.dim:
        raise BadParams(f"target_dim must be between 1 and {ambient.dim}")
    tag = "n" if strictly_upper else "t"
    rng = random.Random(f"solvable/{tag}({ambient_n})/GF({field.p})/{target_dim}/{seed}")
    rows = [tuple(rng.randrange(field.p) for _ in range(ambient.dim)) for _ in range(target_dim)]
    closed = ambient.subalgebra_closure(Subspace.from_raw(field, ambient.dim, rows))
    algebra, _, _ = ambient.restrict(closed)
    algebra.meta.update(
        {
            "generator": "random_solvable",
            "seed": seed,
            "ambient": f"{tag}({ambient_n})",
            "target_dim": target_dim,
        }
    )
    return algebra
