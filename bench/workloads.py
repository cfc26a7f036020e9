"""The three benchmark workloads: their input universes, the seeded
selection that one pass runs, and the canonical form of every output.

Every workload is an ordered list of *ops*; an op is one top-level call
into the public ``cideals`` API.  Inputs that vary with the seed are
drawn from a fixed, finite universe (pools of generator seeds and of
points), and reference outputs were recorded for that whole universe,
so the output of every op can be checked for any benchmark seed.

Nothing here imports ``cideals`` at module level: the worker imports it
inside the timed set-up and passes the module in.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from hashlib import sha256

WORKLOADS = ("sweep", "lattice", "lines")

SWEEP_SUITES = ("T1", "T3", "T4", "T5", "T6", "T7", "T8", "T9", "T10", "T11")

LATTICE_OPS = (
    "enum_subalgebras",
    "enum_ideals",
    "maximal_subalgebras",
    "maximal_nilpotent_subalgebras",
    "cartan_subalgebras",
    "structure_profile",
)
# n(4)/GF(3) (about 20 s, one op) and t(3)/GF(3) (about 32 s) are left out:
# four passes must fit into a run.
LATTICE_FIXED = (
    ("heisenberg(5)", 2),
    ("t(3)", 2),
    ("n(4)", 2),
    ("heisenberg(5)", 3),
)
# random_solvable(seed, GF(p), 4, LATTICE_TARGET) generator seeds whose
# closure has the stated dimension and whose structure constants differ
# from each other and from the fixed algebras.  Fixing the dimension
# keeps the cost of a pass nearly independent of the seed.  The
# dimension-6 GF(2) and dimension-5 GF(3) pools hold one algebra each,
# of about their pool's median cost: within such a pool the cost of
# one algebra ranged over 2x (1.6-3.5 s and 1.1-1.8 s), so a seeded
# pick of one moved a pass's time by 10% and its slowest ops, which
# set op_p90_ms, from seed to seed.
LATTICE_POOLS = {
    (2, 5): (0, 10, 12, 21, 23, 25, 26, 28, 33, 37, 44, 53, 67, 71, 75, 77),
    (2, 6): (12,),
    (3, 5): (13,),
}
LATTICE_TARGET = {(2, 5): 2, (2, 6): 3, (3, 5): 2}
LATTICE_PICK = {(2, 5): 11, (2, 6): 1, (3, 5): 1}

# random_solvable(seed, GF(p), 3, 2 + seed % 4), the criterion-3 shape,
# by the dimension of the result (dimension 6 is t(3) itself).  Every
# pass decides every line of all of them: these ops set the latency
# percentiles of the workload, which must not depend on the seed.
LINES_SOLVABLE = {
    (2, 3): (1, 12, 29, 44, 52, 53, 109, 116),
    (2, 4): (4, 5, 13, 22, 27, 30, 43, 45),
    (2, 5): (6, 15, 17, 21, 33, 41, 56, 61),
    (3, 3): (0, 8, 48, 64, 72, 96, 104, 124),
    (3, 4): (16, 36, 44, 45, 53, 56, 57, 58),
    (3, 5): (4, 6, 12, 18, 20, 24, 28, 29),
}
LINES_PRIMES = (101, 103)
# The catalog's algebras of dimension <= 3 (catalog_algebras would also
# build and discard the larger ones, which set-up would then pay for).
LINES_SMALL_CATALOG = (
    "abelian(1)",
    "abelian(2)",
    "abelian(3)",
    "nonabelian2",
    "heisenberg(3)",
    "almost_abelian(3)",
    "sl2",
    "t(2)",
    "n(3)",
    "abelian(1)+nonabelian2",
)
POINT_POOL = 16  # seeded points recorded per algebra
POINT_PICK = 4  # points one pass decides per algebra
# Rational solvable algebras by generator seed, pooled by dimension.
Q_POOLS = {6: (1, 2, 7, 11, 15), 7: (0, 3, 6, 8, 10, 13)}
Q_PICK = 2


@dataclass
class Op:
    """One timed call: ``fn(*args)``, checked through ``canon``."""

    key: str
    fn: object
    args: tuple
    canon: object
    suite: str | None = None


def digest(value) -> str:
    """Short stable hash of a canonical (JSON-able) output."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# selection: which members of each pool a seed runs (universe: all of them)

def _pick(rng, pool, k, universe):
    if universe:
        return tuple(pool)
    return tuple(sorted(rng.sample(list(pool), min(k, len(pool)))))


def _points(tag: str, p: int | None, dim: int):
    """The recorded point pool of one algebra; nonzero, deterministic."""
    rng = random.Random(f"points/{tag}")
    out = []
    for _ in range(50 * POINT_POOL):  # a line of Q^1 has few small points
        if p is None:
            v = tuple(rng.choice((-2, -1, 0, 0, 1, 1, 2, 3)) for _ in range(dim))
        else:
            v = tuple(rng.randrange(p) for _ in range(dim))
        if any(v) and v not in out:
            out.append(v)
            if len(out) == POINT_POOL:
                break
    return out


def _vec_text(v) -> str:
    return ",".join(str(c) for c in v)


# ---------------------------------------------------------------------------
# canonical outputs

def _reports(reports):
    """Suite reports without their timings."""
    out = []
    for r in reports:
        d = r.as_dict()
        d.pop("seconds", None)
        out.append(d)
    return out


def _as_dict(obj):
    return obj.as_dict()


def _plain(value):
    return value


def _subspace_texts(c):
    return lambda subspaces: [c.subspace_text(u) for u in subspaces]


# ---------------------------------------------------------------------------
# builders; each returns the ops of one pass (or of the whole universe)

def _load(c, algebra):
    """Every algebra enters as a document, as it does through the CLI."""
    return c.parse(c.serialize(algebra))


def build_sweep(c, seed, tiny=False, universe=False):
    corpus = []
    for p in (2, 3):
        corpus.extend(c.catalog_algebras(c.GF(p), max_dim=4))
    corpus.append(("sl2", c.builtin("sl2", c.GF(5))))
    if tiny:
        corpus = corpus[:2]
    ops = []
    for cid, algebra in corpus:
        l = _load(c, algebra)
        aid = f"{cid}/{l.field}"
        for sid in SWEEP_SUITES:
            ops.append(
                Op(f"sweep|{aid}|{sid}", c.run_suite, (l, (sid,), c.DEFAULT_BUDGET, aid),
                   _reports, suite=sid)
            )
    return ops


def build_lattice(c, seed, tiny=False, universe=False):
    rng = random.Random(f"lattice/{seed}")
    specs = [(name, p, None) for name, p in LATTICE_FIXED]
    for (p, dim), pool in LATTICE_POOLS.items():
        for s in _pick(rng, pool, LATTICE_PICK[(p, dim)], universe):
            specs.append((f"rs({s},4,{LATTICE_TARGET[(p, dim)]})", p, (s, dim)))
    if tiny:
        specs = [specs[0], specs[len(LATTICE_FIXED)]]
    subs = _subspace_texts(c)
    ops = []
    for name, p, rs in specs:
        field = c.GF(p)
        if rs is None:
            algebra = c.builtin(name, field)
        else:
            s, dim = rs
            algebra = c.random_solvable(s, field, 4, LATTICE_TARGET[(p, dim)])
        l = _load(c, algebra)
        for op in LATTICE_OPS:
            canon = _as_dict if op == "structure_profile" else subs
            ops.append(Op(f"lattice|{name}/{field}|{op}", getattr(c, op), (l,), canon))
    return ops


def _small_field_part(c, tiny):
    """Criterion-3 algebras: classify, then decide every line."""
    ops = []
    groups = list(LINES_SOLVABLE.items())
    if tiny:
        groups = groups[:1]
    for (p, _dim), seeds in groups:
        field = c.GF(p)
        for s in seeds:
            l = _load(c, c.random_solvable(s, field, 3, 2 + s % 4))
            tag = f"rs({s})/{field}"
            ops.append(Op(f"lines|{tag}|classify", c.classify_line_cideals, (l,), _as_dict))
            for x in c.projective_points(field, l.dim):
                ops.append(
                    Op(f"lines|{tag}|line|{c.vector_text(x)}", c.line_cideal, (l, x), _as_dict)
                )
    return ops


def _large_prime_part(c, rng, universe, tiny):
    """Small catalog algebras over large primes: the projective scans."""
    ops = []
    subs = _subspace_texts(c)
    names = LINES_SMALL_CATALOG[:2] if tiny else LINES_SMALL_CATALOG
    primes = LINES_PRIMES[:1] if tiny else LINES_PRIMES
    for p in primes:
        field = c.GF(p)
        for name in names:
            l = _load(c, c.builtin(name, field))
            tag = f"{name}/{field}"
            ops.append(Op(f"lines|{tag}|is_supersolvable", c.is_supersolvable, (l,), _plain))
            ops.append(Op(f"lines|{tag}|one_dim_ideals", c.one_dim_ideals, (l,), subs))
            ops.append(Op(f"lines|{tag}|classify", c.classify_line_cideals, (l,), _as_dict))
            for v in _pick(rng, _points(tag, p, l.dim), POINT_PICK, universe):
                x = tuple(field.scalar(a) for a in v)
                ops.append(Op(f"lines|{tag}|line|{_vec_text(v)}", c.line_cideal, (l, x), _as_dict))
    return ops


def _rational_solvable(c, s):
    """A solvable algebra over Q: closure of two seeded vectors in t(4)."""
    t4 = c.builtin("upper_triangular", c.Q, 4)
    rng = random.Random(f"qsolvable/{s}")
    vecs = [
        tuple(c.Q.scalar(rng.choice((-1, 0, 0, 0, 1, 2))) for _ in range(t4.dim))
        for _ in range(2)
    ]
    closed = t4.subalgebra_closure(c.Subspace.from_vectors(c.Q, t4.dim, vecs))
    return c.restricted_algebra(t4, closed)[0]


def _rational_part(c, rng, universe, tiny):
    """Q algebras: the only place Fraction arithmetic and eigenspaces run."""
    ops = []
    specs = c.catalog_algebras(c.Q)
    for pool in Q_POOLS.values():
        specs += [(f"qrs({s})", _rational_solvable(c, s))
                  for s in _pick(rng, pool, Q_PICK, universe)]
    if tiny:
        specs = [specs[5], specs[-1]]
    for name, algebra in specs:
        l = _load(c, algebra)
        tag = f"{name}/Q"
        ops.append(Op(f"lines|{tag}|profile", c.structure_profile, (l,), _as_dict))
        ops.append(Op(f"lines|{tag}|classify", c.classify_line_cideals, (l,), _as_dict))
        terms = [d for d in l.derived_series().terms[1:] if d.dim > 0]
        seen = set()
        for v in _pick(rng, _points(tag, None, l.dim), POINT_PICK, universe):
            x = tuple(c.Q.scalar(a) for a in v)
            line = c.Subspace.from_vectors(c.Q, l.dim, [x])
            for d in terms:
                b = l.subalgebra_closure(d + line)
                if b.dim == l.dim or b in seen:
                    continue
                seen.add(b)
                ops.append(
                    Op(f"lines|{tag}|is_cideal|{c.subspace_text(b)}", c.is_cideal, (l, b), _as_dict)
                )
            ops.append(Op(f"lines|{tag}|line|{_vec_text(v)}", c.line_cideal, (l, x), _as_dict))
    return ops


def build_lines(c, seed, tiny=False, universe=False):
    rng = random.Random(f"lines/{seed}")
    return (
        _small_field_part(c, tiny)
        + _large_prime_part(c, rng, universe, tiny)
        + _rational_part(c, rng, universe, tiny)
    )


BUILDERS = {"sweep": build_sweep, "lattice": build_lattice, "lines": build_lines}


def build(c, workload: str, seed: int, tiny: bool = False, universe: bool = False):
    """The ops of one pass.  Raises ValueError on a duplicated op key."""
    ops = BUILDERS[workload](c, seed, tiny=tiny, universe=universe)
    keys = [op.key for op in ops]
    if len(set(keys)) != len(keys):
        raise ValueError(f"{workload}: duplicated op keys")
    # Equal algebras would share the library's caches within a pass.
    algebras = list({id(op.args[0]): op.args[0] for op in ops}.values())
    if len(set(algebras)) != len(algebras):
        raise ValueError(f"{workload}: two inputs are the same algebra")
    return ops
