"""Independent reference implementations used to cross-check the library.

Everything here recomputes a property from first principles, leaning
only on the library's data containers (Subspace, LieAlgebra storage)
and enumeration iterators, never on the decision logic under test.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from math import isqrt, lcm

from cideals import (
    NO,
    YES,
    CIdealVerdict,
    LieAlgebra,
    Matrix,
    Subspace,
    ZeroVector,
    char_poly,
    eigenspace,
    enum_ideals,
    enum_subalgebras,
    enum_subspaces,
    frattini_of_subalgebra,
    normalizer,
    poly_roots_in_field,
    quotient_algebra,
    rref,
)


def oracle_gaussian_binomial(n: int, k: int, p: int) -> int:
    """The number of k-dimensional subspaces of GF(p)^n, as the product
    of (p^(n-i) - 1) / (p^(i+1) - 1) over i < k."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def oracle_poly_roots(coeffs) -> set:
    """Roots in GF(p) of sum(coeffs[k] * t**k), by trying every residue."""
    field = coeffs[0].field
    p = field.p
    raw = [c.value for c in coeffs]
    roots = set()
    for x in range(p):
        acc = 0
        for c in reversed(raw):
            acc = (acc * x + c) % p
        if not acc:
            roots.add(field.scalar(x))
    return roots


def _divisors(n: int) -> set:
    """The positive divisors of n > 0, by trial division up to sqrt(n)."""
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return set(small + [n // d for d in small])


def oracle_rational_roots(coeffs) -> set:
    """Rational roots of sum(coeffs[k] * t**k) over Q, by the rational-root
    theorem: after t^k is taken out and the denominators are cleared,
    every +-s/d with s | c_0 and d | c_n is tried, as c(s/d) * d^n == 0.
    The cost grows as sqrt |c_0| + sqrt |c_n|, so keep coefficients small.
    """
    field = coeffs[0].field
    raw = [c.value for c in coeffs]
    while not raw[-1]:
        raw.pop()
    low = next(k for k, c in enumerate(raw) if c)
    roots = {field.zero()} if low else set()
    den = lcm(*(c.denominator for c in raw[low:]))
    ints = [int(c * den) for c in raw[low:]]
    n = len(ints) - 1
    for num in _divisors(abs(ints[0])):
        for d in _divisors(abs(ints[-1])):
            for s in (num, -num):
                if not sum(c * s**k * d ** (n - k) for k, c in enumerate(ints)):
                    roots.add(field.scalar(Fraction(s, d)))
    return roots


def oracle_char_poly(m):
    """det(tI - A) by cofactor expansion, ascending coefficients.

    Polynomials are dicts degree -> Fraction.  GF(p) entries are lifted
    to integers and the result reduced mod p at the end.
    """
    n = m.rows
    assert m.cols == n
    p = m.field.p

    def lift(s):
        return Fraction(s.value) if p is not None else s.value

    # entries of tI - A as polynomial dicts
    grid = [
        [
            ({1: Fraction(1), 0: -lift(m.entry(i, j))} if i == j else {0: -lift(m.entry(i, j))})
            for j in range(n)
        ]
        for i in range(n)
    ]

    def pmul(a, b):
        out = {}
        for da, ca in a.items():
            for db, cb in b.items():
                out[da + db] = out.get(da + db, Fraction(0)) + ca * cb
        return out

    def padd(a, b):
        out = dict(a)
        for d, c in b.items():
            out[d] = out.get(d, Fraction(0)) + c
        return out

    def det(rows, cols):
        if not rows:
            return {0: Fraction(1)}
        i = rows[0]
        total = {}
        for t, j in enumerate(cols):
            minor = det(rows[1:], cols[:t] + cols[t + 1 :])
            term = pmul(grid[i][j], minor)
            if t % 2:
                term = {d: -c for d, c in term.items()}
            total = padd(total, term)
        return total

    poly = det(tuple(range(n)), tuple(range(n)))
    coeffs = []
    for d in range(n + 1):
        c = poly.get(d, Fraction(0))
        if p is None:
            coeffs.append(m.field.scalar(c))
        else:
            assert c.denominator == 1
            coeffs.append(m.field.scalar(c.numerator % p))
    return tuple(coeffs)


def oracle_bracket(doc_text, u, v):
    """Bracket of coordinate tuples computed straight from a document.

    Parses the JSON itself and works in plain ints / Fractions, so it
    shares nothing with the LieAlgebra bracket path.
    """
    doc = json.loads(doc_text)
    dim = doc["dim"]
    p = doc["field"].get("p")

    def num(s):
        return Fraction(s) if p is None else int(Fraction(s)) % p

    table = {}
    for e in doc["brackets"]:
        table[(e["i"], e["j"])] = [num(c) for c in e["coeffs"]]
    out = [Fraction(0) if p is None else 0] * dim
    for i in range(dim):
        for j in range(dim):
            if i == j or not u[i] or not v[j]:
                continue
            if i < j:
                w, sign = table.get((i, j)), 1
            else:
                w, sign = table.get((j, i)), -1
            if w is None:
                continue
            for k in range(dim):
                out[k] += sign * u[i] * v[j] * w[k]
    if p is not None:
        out = [c % p for c in out]
    return out


def oracle_jacobi_ok(doc_text):
    """Checks the Jacobi identity on all basis triples from a document."""
    doc = json.loads(doc_text)
    dim = doc["dim"]
    p = doc["field"].get("p")
    zero = Fraction(0) if p is None else 0

    def unit(i):
        row = [zero] * dim
        row[i] = Fraction(1) if p is None else 1
        return row

    for a, b, c in itertools.combinations(range(dim), 3):
        x, y, z = unit(a), unit(b), unit(c)
        s1 = oracle_bracket(doc_text, oracle_bracket(doc_text, x, y), z)
        s2 = oracle_bracket(doc_text, oracle_bracket(doc_text, y, z), x)
        s3 = oracle_bracket(doc_text, oracle_bracket(doc_text, z, x), y)
        total = [s1[k] + s2[k] + s3[k] for k in range(dim)]
        if p is not None:
            total = [t % p for t in total]
        if any(total):
            return False
    return True


def oracle_span_product(l, u: Subspace, v: Subspace) -> Subspace:
    vecs = [l.bracket(a, b) for a in u.vectors() for b in v.vectors()]
    return Subspace.from_vectors(l.field, l.dim, vecs)


def oracle_is_subalgebra(l, u: Subspace) -> bool:
    """[u, u] <= u through the full span product."""
    return oracle_span_product(l, u, u) <= u


def oracle_is_ideal(l, u: Subspace) -> bool:
    """[L, u] <= u through the full span product."""
    return oracle_span_product(l, l.full_space(), u) <= u


def oracle_centre(l) -> Subspace:
    """{x : [e_i, x] = 0 for every i}: the kernel of the matrices of
    ad(e_i) stacked, from boxed brackets, solved and reduced by the
    from-scratch eliminations below (GF(p) or Q)."""
    p, n = l.field.p, l.dim
    system = [[l.structure_vector(i, j)[k].value for j in range(n)] for i in range(n) for k in range(n)]
    if p is None:
        rows, pivots = oracle_rref_q(oracle_kernel_q(system, n), n)
        rows = tuple(tuple(x.numerator if x.denominator == 1 else x for x in r) for r in rows)
    else:
        rows, pivots = oracle_rref_p(oracle_kernel_p(system, n, p), n, p)
    return Subspace(l.field, n, rows, pivots)


def oracle_quotient(l, i: Subspace) -> LieAlgebra:
    """L/I on the standard vectors at I's non-pivot columns, from boxed
    brackets: each [e_a, e_b] of free columns a < b is cleared at I's
    pivots with I's canonical rows, one row at a time in Scalars, and its
    entries at the free columns are the structure constants.  The basis
    is named after L's at the free columns."""
    free = [c for c in range(l.dim) if c not in i.pivots]
    brackets = {}
    for x, a in enumerate(free):
        for y in range(x + 1, len(free)):
            v = l.bracket(l.basis_vector(a), l.basis_vector(free[y]))
            for row, c in zip(i.vectors(), i.pivots):
                f = v[c]
                v = tuple(s - f * t for s, t in zip(v, row))
            brackets[(x, y)] = [v[c] for c in free]
    return LieAlgebra(l.field, len(free), [l.names[c] for c in free], brackets)


def oracle_intersection(u: Subspace, v: Subspace) -> Subspace:
    """u ∩ v through the kernel of [U^T | -V^T], solved and reduced by the
    from-scratch eliminations below (GF(p) or Q): each kernel vector
    (a, b) gives the common vector a·U = b·V."""
    p, n = u.field.p, u.ambient_dim
    cols = list(u.rows) + [[-x for x in r] for r in v.rows]
    system = [[c[k] for c in cols] for k in range(n)]
    if p is None:
        kernel = oracle_kernel_q(system, len(cols))
    else:
        kernel = oracle_kernel_p(system, len(cols), p)
    common = [[sum(a * r[k] for a, r in zip(ab, u.rows)) for k in range(n)] for ab in kernel]
    if p is None:
        rows, pivots = oracle_rref_q(common, n)
        rows = tuple(tuple(x.numerator if x.denominator == 1 else x for x in r) for r in rows)
    else:
        rows, pivots = oracle_rref_p(common, n, p)
    return Subspace(u.field, n, rows, pivots)


def oracle_preimage(i: Subspace, w: Subspace) -> Subspace:
    """The preimage in F^n of a subspace w of F^n / I, as the span of I
    and the lifts of w's rows: each lift is the combination, in Scalars,
    of the standard vectors of ``I.complement()`` with the row's
    coordinates, and the span is eliminated from scratch."""
    field = i.field
    comp = i.complement().vectors()
    lifts = []
    for coords in w.vectors():
        acc = (field.zero(),) * i.ambient_dim
        for c, unit in zip(coords, comp):
            acc = tuple(a + c * b for a, b in zip(acc, unit))
        lifts.append(acc)
    return Subspace.from_vectors(field, i.ambient_dim, lifts + list(i.vectors()))


def oracle_subalgebras(l) -> tuple:
    """Every bracket-closed subspace, by testing each subspace that
    :func:`enum_subspaces` lists, in its order."""
    return tuple(u for u in enum_subspaces(l) if l.is_subalgebra(u))


def oracle_maximal(candidates, proper_of_dim: int) -> tuple:
    """The candidates of dimension below ``proper_of_dim`` strictly inside
    no other such candidate, by testing pairs; dimension descending, the
    given order within a dimension."""
    proper = [u for u in candidates if u.dim < proper_of_dim]
    # Only larger candidates can contain u; trying the largest first
    # finds the container of a non-maximal u early.
    by_dim = {}
    for v in sorted(proper, key=lambda v: -v.dim):
        by_dim.setdefault(v.dim, []).append(v)
    larger = {d: [v for e, vs in by_dim.items() if e > d for v in vs] for d in by_dim}
    picked = [u for u in proper if not any(u <= v for v in larger[u.dim])]
    return tuple(sorted(picked, key=lambda u: -u.dim))


def oracle_maximal_nilpotent_subalgebras(l, subalgebras) -> tuple:
    """Maximal nilpotent members of ``subalgebras``, every subalgebra of l."""
    if oracle_nilpotent(l):
        return (l.full_space(),)
    return oracle_maximal([u for u in subalgebras if oracle_nilpotent_on(l, u)], l.dim)


def oracle_cartan_subalgebras(l) -> tuple:
    """Self-normalizing nilpotent subalgebras, filtered from every
    subalgebra in enumeration order.  Both tests are pure, and the
    normalizer one, which fails for most subalgebras, runs first."""
    return tuple(
        u for u in enum_subalgebras(l) if normalizer(l, u) == u and oracle_nilpotent_on(l, u)
    )


def oracle_self_normalizing(l, u: Subspace) -> bool:
    """N(u) = u over GF(p), by brute force: no projective point x of L
    outside u has [x, r] in u for every canonical row r of u.  The points
    are the coordinate tuples whose first nonzero entry is 1, bracketed
    on raw rows."""
    p, n = l.field.p, l.dim
    for lead in reversed(range(n)):
        for tail in itertools.product(range(p), repeat=n - 1 - lead):
            x = (0,) * lead + (1,) + tail
            if not u.holds_raw(x) and all(u.holds_raw(l.bracket_raw(x, r)) for r in u.rows):
                return False
    return True


def oracle_solvable(l) -> bool:
    return oracle_solvable_on(l, l.full_space())


def oracle_nilpotent(l) -> bool:
    return oracle_nilpotent_on(l, l.full_space())


def oracle_solvable_on(l, u: Subspace) -> bool:
    """The derived series of the subalgebra u in L's coordinates,
    u^(k+1) = [u^(k), u^(k)] through the full span product, reaches 0."""
    cur = u
    while True:
        nxt = oracle_span_product(l, cur, cur)
        if nxt.dim == cur.dim:
            return cur.dim == 0
        cur = nxt


def oracle_nilpotent_on(l, u: Subspace) -> bool:
    """The lower central series of the subalgebra u in L's coordinates,
    C^(k+1) = [u, C^k] through the full span product, reaches 0."""
    cur = u
    while True:
        nxt = oracle_span_product(l, u, cur)
        if nxt.dim == cur.dim:
            return cur.dim == 0
        cur = nxt


def oracle_radicals(l) -> tuple:
    """(nilradical, solvable radical) as the sums of every listed ideal
    that is nilpotent (solvable) by its own series through the full span
    product.  The listing is enum_ideals, which TestPrunedSearch checks
    against oracle_is_ideal on every subalgebra."""
    nilrad = rad = Subspace.zero(l.field, l.dim)
    for u in enum_ideals(l):
        if oracle_nilpotent_on(l, u):
            nilrad = nilrad + u
        if oracle_solvable_on(l, u):
            rad = rad + u
    return nilrad, rad


def oracle_frattini(l) -> Subspace:
    """F(L), the intersection of the maximal subalgebras, found by testing
    pairs of listed subalgebras; L itself when there are none (dim 0)."""
    f = l.full_space()
    for m in oracle_maximal(enum_subalgebras(l), l.dim):
        f = f & m
    return f


def oracle_socle(l) -> Subspace:
    """The sum of the minimal abelian ideals: each nonzero listed ideal
    containing no smaller nonzero listed ideal, abelian by its brackets."""
    ideals = [i for i in enum_ideals(l) if i.dim]
    out = Subspace.zero(l.field, l.dim)
    for i in ideals:
        minimal = not any(j.dim < i.dim and j <= i for j in ideals)
        if minimal and oracle_span_product(l, i, i).dim == 0:
            out = out + i
    return out


def oracle_core(l, b: Subspace) -> Subspace:
    """Largest ideal of l inside b, as the sum of all enumerated ideals
    contained in b."""
    total = Subspace.zero(l.field, l.dim)
    for c in enum_ideals(l):
        if c <= b:
            total = total + c
    return total


def oracle_cideal(l, b: Subspace) -> bool:
    """Definitional scan: some ideal C has b + C = L and b cap C inside
    the largest ideal of l contained in b."""
    hull = oracle_core(l, b)
    for c in enum_ideals(l):
        if (b + c).dim == l.dim and (b & c) <= hull:
            return True
    return False


def oracle_supersolvable(l) -> bool:
    """Brute search for a complete chain of ideals of l."""
    by_dim = {}
    for c in enum_ideals(l):
        by_dim.setdefault(c.dim, []).append(c)
    if l.dim == 0:
        return True

    def extend(current):
        d = current.dim
        if d == l.dim:
            return True
        for nxt in by_dim.get(d + 1, []):
            if current <= nxt and extend(nxt):
                return True
        return False

    return extend(Subspace.zero(l.field, l.dim))


def oracle_all_lines_cideal(l) -> bool:
    """Scans every line of a finite-field algebra definitionally."""
    for s in enum_subspaces(l, dims=(1,)):
        if not l.is_subalgebra(s):
            continue
        if not oracle_cideal(l, s):
            return False
    return True


def oracle_t9_pairs(l) -> list:
    """(B, K) with K a proper subalgebra containing the subalgebra B, by
    testing every pair: K in enumeration order, then B in enumeration
    order."""
    subalgebras = enum_subalgebras(l)
    return [(b, k) for k in subalgebras if k.dim != l.dim for b in subalgebras if b <= k]


def oracle_t10_pairs(l) -> list:
    """(B, I) with I an ideal inside the subalgebra B, by testing every
    pair: I in enumeration order, then B in the order of B/I, taken
    through the boxed projection of :func:`quotient_algebra`."""
    pairs = []
    for i in enum_ideals(l):
        _, project, _ = quotient_algebra(l, i)

        def image(b):
            return Subspace.from_vectors(l.field, l.dim - i.dim, [project(v) for v in b.vectors()])

        above = [b for b in enum_subalgebras(l) if i <= b]
        pairs += [(b, i) for b in sorted(above, key=lambda b: image(b).sort_key())]
    return pairs


def oracle_t11_pairs(l) -> list:
    """(C, B) with B a nonzero subalgebra inside the nonzero Frattini
    subalgebra F(C), by testing every pair in enumeration order."""
    subalgebras = enum_subalgebras(l)
    pairs = []
    for c in subalgebras:
        f_c = frattini_of_subalgebra(l, c)
        if f_c.dim:
            pairs += [(c, b) for b in subalgebras if b.dim and b <= f_c]
    return pairs


def oracle_subspace_points(p: int, u: Subspace) -> set:
    """The projective points of u over GF(p): the nonzero combinations
    of u's rows, each scaled so that its first nonzero entry is 1.

    The rows are independent, so every nonzero combination is a nonzero
    multiple of exactly one whose first nonzero coefficient is 1; only
    those (p^dim - 1)/(p - 1) coefficient tuples are tried, each by a
    plain matrix-vector product and an explicit scaling."""
    columns = list(zip(*u.rows))
    points = set()
    for lead in range(u.dim):
        for tail in itertools.product(range(p), repeat=u.dim - 1 - lead):
            coeffs = (0,) * lead + (1,) + tail
            v = [sum(a * b for a, b in zip(coeffs, col)) % p for col in columns]
            inv = pow(next(x for x in v if x), -1, p)
            points.add(tuple(x * inv % p for x in v))
    return points


def oracle_core_by_transporter(l, b: Subspace) -> Subspace:
    """Largest ideal of l inside the subalgebra b, as the limit of
    B_{i+1} = B_i ∩ {x in L : [x, L] <= B_i}: each step a transporter
    solve over all of L and a Zassenhaus intersection.  Works over Q."""
    full = l.full_space()
    cur = b
    while True:
        nxt = cur & l.transporter(full, cur)
        if nxt == cur:
            return cur
        cur = nxt


def oracle_line_families(l) -> tuple:
    """The maximal joint eigenspaces of ad(e_i) over every basis vector
    e_i, sorted by ``sort_key``: one eigenspace of each ad(e_i) is chosen
    in every possible way, depth first, and each nonzero intersection of
    all n choices is a family."""
    spaces = []
    for e in l.full_space().vectors():
        ad = l.ad_matrix(e)
        spaces.append([eigenspace(ad, lam) for lam in poly_roots_in_field(char_poly(ad))])
    families = []

    def recurse(i, space):
        if space.dim == 0:
            return
        if i == l.dim:
            families.append(space)
            return
        for eig in spaces[i]:
            recurse(i + 1, space & eig)

    recurse(0, l.full_space())
    return tuple(sorted(families, key=Subspace.sort_key))


def oracle_line_cideal(l, x) -> CIdealVerdict:
    """The line rule built from the public constructions: Fx by
    elimination, [L, L] as span_product(L, L) and the witness
    [L, L] + complement([L, L] + Fx), re-verified by the definition with
    B + C = L as the rank of B's rows reduced modulo C."""
    if not any(x):
        raise ZeroVector("a line needs a nonzero spanning vector")
    line = Subspace.from_vectors(l.field, l.dim, [x])
    full = l.full_space()
    if l.is_ideal(line):
        return CIdealVerdict(YES, full, "line_rule", True)
    derived = l.span_product(full, full)
    if line <= derived:
        return CIdealVerdict(NO, None, "line_rule", True)
    c = derived + (derived + line).complement()
    _, pivots = rref(Matrix.from_rows(l.field, [c.reduce(v) for v in line.vectors()]))
    if not (l.is_ideal(c) and len(pivots) == l.dim - c.dim and l.is_ideal(line & c)):
        raise AssertionError("the line witness fails the definition")
    return CIdealVerdict(YES, c, "line_rule", True)


# ---------------------------------------------------------------------------
# the kernel over GF(p) from scratch: Gauss-Jordan elimination on rows of
# ints, each reduced mod p, with inverses by Fermat's little theorem.

def oracle_rref_p(rows, ncols: int, p: int) -> tuple:
    """``(rows, pivots)`` of the reduced row echelon form over GF(p), zero
    rows dropped: each pivot row is scaled by the inverse of its lead,
    then cleared from every other row."""
    todo = [[x % p for x in r] for r in rows]
    done, pivots = [], []
    for c in range(ncols):
        k = next((k for k, r in enumerate(todo) if r[c]), None)
        if k is None:
            continue
        lead = todo.pop(k)
        inv = pow(lead[c], p - 2, p)
        lead = [x * inv % p for x in lead]
        todo = [[(a - r[c] * b) % p for a, b in zip(r, lead)] for r in todo]
        done = [[(a - r[c] * b) % p for a, b in zip(r, lead)] for r in done] + [lead]
        pivots.append(c)
    return tuple(map(tuple, done)), tuple(pivots)


def oracle_kernel_p(rows, ncols: int, p: int) -> tuple:
    """The reduced basis of {x : r . x = 0 mod p for every row r}: for
    each free column f, e_f minus the pivot rows' entries at f."""
    red, pivots = oracle_rref_p(rows, ncols, p)
    basis = []
    for f in range(ncols):
        if f not in pivots:
            x = [int(k == f) for k in range(ncols)]
            for r, c in zip(red, pivots):
                x[c] = -r[f] % p
            basis.append(x)
    return oracle_rref_p(basis, ncols, p)[0]


# ---------------------------------------------------------------------------
# the rational kernel from scratch: Gauss-Jordan elimination in Fractions
# only, on rows of ints or Fractions (a Subspace's or Matrix's raw rows).
# Every value these return is a Fraction.

def oracle_rref_q(rows, ncols: int) -> tuple:
    """``(rows, pivots)`` of the reduced row echelon form over Q, zero
    rows dropped: each pivot row is divided by its lead, then cleared
    from every other row."""
    todo = [[Fraction(x) for x in r] for r in rows]
    done, pivots = [], []
    for c in range(ncols):
        k = next((k for k, r in enumerate(todo) if r[c]), None)
        if k is None:
            continue
        lead = todo.pop(k)
        lead = [x / lead[c] for x in lead]
        todo = [[a - r[c] * b for a, b in zip(r, lead)] for r in todo]
        done = [[a - r[c] * b for a, b in zip(r, lead)] for r in done] + [lead]
        pivots.append(c)
    return tuple(map(tuple, done)), tuple(pivots)


def oracle_kernel_q(rows, ncols: int) -> tuple:
    """The reduced basis of {x : r . x = 0 for every row r}: for each
    free column f, e_f minus the pivot rows' entries at f."""
    red, pivots = oracle_rref_q(rows, ncols)
    basis = []
    for f in range(ncols):
        if f not in pivots:
            x = [Fraction(int(k == f)) for k in range(ncols)]
            for r, c in zip(red, pivots):
                x[c] = -r[f]
            basis.append(x)
    return oracle_rref_q(basis, ncols)[0]


def oracle_intersection_q(u_rows, v_rows, n: int) -> tuple:
    """The reduced basis of span(u_rows) ∩ span(v_rows): each (a, b) with
    a.U = b.V gives the common vector a.U."""
    cols = list(u_rows) + [[-x for x in r] for r in v_rows]
    system = [[Fraction(c[k]) for c in cols] for k in range(n)]
    common = [
        [sum(a * r[k] for a, r in zip(ab, u_rows)) for k in range(n)]
        for ab in oracle_kernel_q(system, len(cols))
    ]
    return oracle_rref_q(common, n)[0]


def oracle_quotient_coords_q(i_rows, n: int) -> tuple:
    """``(reduce, free)`` for the quotient F^n / span(i_rows): reduce(v)
    clears v at I's pivots with I's reduced rows, and the coordinates
    of v + I are reduce(v) at the free columns."""
    red, pivots = oracle_rref_q(i_rows, n)

    def reduce(v):
        v = [Fraction(x) for x in v]
        for r, c in zip(red, pivots):
            f = v[c]
            v = [a - f * b for a, b in zip(v, r)]
        return v

    return reduce, [c for c in range(n) if c not in pivots]


def oracle_transporter_q(l, gens_rows, target_rows) -> tuple:
    """The reduced basis of {x : [x, u] in target for every u}: with
    columns [e_i, u] modulo the target, read off l.structure_vector."""
    n = l.dim
    reduce, free = oracle_quotient_coords_q(target_rows, n)
    table = [[[s.value for s in l.structure_vector(i, j)] for j in range(n)] for i in range(n)]
    system = []
    for u in gens_rows:
        cols = []
        for i in range(n):
            image = [sum(Fraction(u[j]) * table[i][j][k] for j in range(n)) for k in range(n)]
            cols.append(reduce(image))
        system += [[col[k] for col in cols] for k in free]
    return oracle_kernel_q(system, n)
