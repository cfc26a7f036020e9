"""Cores, normalizers and exhaustive enumeration over finite fields.

Subspaces of GF(p)^n are listed once each by generating every
reduced-row-echelon basis directly: choose pivot columns, then fill the
free entries.  The order is deterministic (dimension ascending, then
pivot columns lexicographically, then free entries counted in residue
order, the first row varying slowest).  Subalgebras come out in the
same order, but from a search that fixes the rows one at a time and
drops a partial basis as soon as one of its brackets is seen to fall
outside every completion (see :func:`_subalgebras`), so most subspaces
are never built.  The subspace count is checked against the budget
before any work happens so overruns fail loudly instead of truncating.
The subalgebra and ideal lattices, the maximal and maximal-nilpotent
lists and the line-ideal families live in the memo the algebra shares
with every value-equal algebra (see :class:`~cideals.liealg.LieAlgebra`);
every entry point checks the budget before it reads the memo.
"""

from __future__ import annotations

import itertools
import operator

from .errors import BudgetExceeded, FieldNotFinite, NotSubalgebra
from .fields import Field, raw_poly_roots
from .linalg import Subspace, _box, raw_char_poly, raw_eigenspace, raw_kernel
from .liealg import LieAlgebra, derived_subspace, is_nilpotent

DEFAULT_BUDGET = 10**6


def gaussian_binomial(n: int, k: int, p: int) -> int:
    """The number of k-dimensional subspaces of GF(p)^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def subspace_count(n: int, p: int, dims=None) -> int:
    dims = range(n + 1) if dims is None else dims
    return sum(gaussian_binomial(n, k, p) for k in dims)


def _normalize_dims(l: LieAlgebra, dims) -> tuple[int, ...]:
    if dims is None:
        return tuple(range(l.dim + 1))
    if isinstance(dims, int):
        dims = (dims,)
    out = tuple(sorted(set(dims)))
    for k in out:
        if not 0 <= k <= l.dim:
            raise ValueError(f"dimension {k} outside 0..{l.dim}")
    return out


def _require_finite(l: LieAlgebra):
    if l.field.p is None:
        raise FieldNotFinite("enumeration needs a finite field")


def _check_budget(count: int, what: str, budget: int):
    """The one budget policy: raise BudgetExceeded unless the budget is
    positive and the ``count`` of ``what`` (a plural noun phrase) fits."""
    if budget < 1:
        raise BudgetExceeded(f"budget must be positive, got {budget}")
    if count > budget:
        raise BudgetExceeded(f"{count} {what} exceed the budget of {budget}")


def _check_subspace_budget(l: LieAlgebra, dims, budget: int):
    count = subspace_count(l.dim, l.field.p, dims)
    _check_budget(count, f"subspaces of GF({l.field.p})^{l.dim}", budget)


def enum_subspaces(l: LieAlgebra, dims=None, budget: int = DEFAULT_BUDGET):
    """Yield every subspace of the underlying space, canonically.

    ``dims`` selects dimensions (int or iterable; default all).  Raises
    BudgetExceeded before yielding anything if the count is too large,
    and FieldNotFinite over Q.
    """
    _require_finite(l)
    dims = _normalize_dims(l, dims)
    _check_subspace_budget(l, dims, budget)
    return _subspace_iter(l.field, l.dim, dims)


def _subspace_iter(field: Field, n: int, dims):
    p = field.p
    for k in dims:
        if k == 0:
            yield Subspace.zero(field, n)
            continue
        for pivots in itertools.combinations(range(n), k):
            pivot_set = set(pivots)
            free = [
                (r, c)
                for r in range(k)
                for c in range(pivots[r] + 1, n)
                if c not in pivot_set
            ]
            for assignment in itertools.product(range(p), repeat=len(free)):
                rows = [[0] * n for _ in range(k)]
                for r in range(k):
                    rows[r][pivots[r]] = 1
                for (r, c), val in zip(free, assignment):
                    rows[r][c] = val
                yield Subspace(field, n, tuple(map(tuple, rows)), pivots)


def _subalgebras(l: LieAlgebra) -> tuple:
    """The subspaces of :func:`_subspace_iter` that are closed, in its order.

    For each pivot tuple p_0 < ... < p_{k-1} the rows u_0, u_1, ... are
    fixed depth first, row m running over its own free entries in
    product order, which is the enumeration order.  Rows u_m, u_{m+1},
    ... are zero before column p_m, so once rows 0..m are fixed a
    bracket [u_a, u_b] (a < b <= m) minus sum_{c <= m} v[p_c] u_c, with v
    the bracket, is final on every column before p_{m+1} (before n at
    the last row): a nonzero entry there rules out every completion.
    Each node keeps these residuals from column p_{m+1} on; fixing the
    next row reduces them by it and checks the columns up to the pivot
    after it, and the new row's brackets are reduced and checked the
    same way.  At a leaf every column is checked, which is the full
    closure test, and only then is a :class:`Subspace` made.
    """
    field, n = l.field, l.dim
    out = [Subspace.zero(field, n)]
    for k in range(1, n + 1):
        for pivots in itertools.combinations(range(n), k):
            out.extend(Subspace(field, n, rows, pivots) for rows in _closed_bases(l, pivots))
    return tuple(out)


def _closed_bases(l: LieAlgebra, pivots: tuple) -> list:
    # The canonical bases with these pivots whose span is bracket closed.
    p, n, k = l.field.p, l.dim, len(pivots)
    bracket = l.bracket_raw
    ends = pivots[1:] + (n,)
    frees = [tuple(c for c in range(pm + 1, n) if c not in pivots) for pm in pivots]
    found = []

    def extend(m: int, rows: list, tails: list):
        # ``tails`` holds each bracket's residual from column pivots[m] on.
        pm, end = pivots[m], ends[m]
        width = end - pm
        free = frees[m]
        for values in itertools.product(range(p), repeat=len(free)):
            row = [0] * n
            row[pm] = 1
            for c, x in zip(free, values):
                row[c] = x
            seg = row[pm:]
            kept = []
            for t in tails:
                f = t[0]
                if f:
                    t = [(a - f * b) % p for a, b in zip(t, seg)]
                if any(t[1:width]):
                    break
                kept.append(t[width:])
            else:
                basis = rows + [row]
                for u in rows:
                    v = bracket(u, row)
                    for r, c in zip(basis, pivots):
                        f = v[c]
                        if f:
                            v = [(a - f * b) % p for a, b in zip(v, r)]
                    if any(v[:end]):
                        break
                    kept.append(v[end:])
                else:
                    if m + 1 == k:
                        found.append(tuple(map(tuple, basis)))
                    else:
                        extend(m + 1, basis, kept)

    extend(0, [], [])
    return found


def enum_subalgebras(l: LieAlgebra, budget: int = DEFAULT_BUDGET) -> tuple:
    """Every bracket-closed subspace, in enumeration order.

    The other lattice entry points start here, so the field and the
    budget are checked before any memo is read.
    """
    _require_finite(l)
    _check_subspace_budget(l, None, budget)
    return l._memoized("subalgebras", lambda: _subalgebras(l))


def enum_ideals(l: LieAlgebra, budget: int = DEFAULT_BUDGET) -> tuple:
    """Every ideal, in enumeration order.

    Each subalgebra u is closed, so only [e_c, row] for the non-pivot
    columns c of u are tried.
    """
    subalgebras = enum_subalgebras(l, budget)
    return l._memoized("ideals", lambda: tuple(u for u in subalgebras if l._closed_is_ideal(u)))


def _maximal_among(candidates, proper_of_dim: int) -> tuple:
    """Subspaces of the list not strictly contained in another member.

    Each candidate is tested only against the members kept so far of
    larger dimension, by their annihilators.
    """
    picked = []  # (member, its annihilator)
    dim = larger = None  # picked[:larger] are the kept members above dim
    for u in sorted(candidates, key=lambda s: -s.dim):
        if u.dim >= proper_of_dim:
            continue
        if u.dim != dim:
            dim, larger = u.dim, len(picked)
        p = u.field.p
        for _, annihilator in itertools.islice(picked, larger):
            if not any(sum(map(operator.mul, a, r)) % p for a in annihilator for r in u.rows):
                break
        else:
            picked.append((u, _annihilator(u)))
    return tuple(m for m, _ in picked)


def _annihilator(m: Subspace) -> tuple:
    """Raw rows a with m = {v : a . v = 0 for every a}, one per non-pivot
    column j of m: e_j minus row[j] * e_c over m's rows, c each row's
    pivot (v is in m exactly when it is the sum of v[c] * row)."""
    p, n = m.field.p, m.ambient_dim
    out = []
    for j in m.complement().pivots:
        a = [0] * n
        a[j] = 1
        for row, c in zip(m.rows, m.pivots):
            a[c] = -row[j] % p
        out.append(a)
    return tuple(out)


def maximal_subalgebras(l: LieAlgebra, budget: int = DEFAULT_BUDGET) -> tuple:
    """Proper subalgebras contained in no larger proper subalgebra.

    Ordered by dimension descending, enumeration order within a
    dimension.  Each subalgebra is tested against the kept ones of
    larger dimension, so the filter makes at most the square of the
    subalgebra count of containment tests; it has no budget of its own.
    """
    subalgebras = enum_subalgebras(l, budget)
    return l._memoized("maximal", lambda: _maximal_among(subalgebras, l.dim))


def maximal_nilpotent_subalgebras(l: LieAlgebra, budget: int = DEFAULT_BUDGET) -> tuple:
    """Nilpotent subalgebras maximal among the nilpotent ones.

    When L is itself nilpotent the unique answer is L, given without
    the budget check.  Otherwise each subalgebra's nilpotency is decided
    on the algebra on it, and the filter of :func:`maximal_subalgebras`
    keeps the maximal ones, at most the square of the nilpotent count
    of containment tests.
    """
    _require_finite(l)
    if is_nilpotent(l):
        return (l.full_space(),)
    subalgebras = enum_subalgebras(l, budget)
    # L itself is not nilpotent here, so every candidate is proper.
    return l._memoized(
        "maximal_nilpotent",
        lambda: _maximal_among([u for u in subalgebras if is_nilpotent(l, u)], l.dim),
    )


def cartan_subalgebras(l: LieAlgebra, budget: int = DEFAULT_BUDGET) -> tuple:
    """Self-normalizing nilpotent subalgebras, in enumeration order.

    They are the self-normalizing members of
    :func:`maximal_nilpotent_subalgebras` (a Cartan subalgebra inside a
    larger nilpotent K would be normalized by an element of K outside
    it), so a nilpotent L is answered as its own without the budget check.
    """
    return tuple(
        sorted(
            (u for u in maximal_nilpotent_subalgebras(l, budget) if normalizer(l, u) == u),
            key=Subspace.sort_key,
        )
    )


# ---------------------------------------------------------------------------
# core and normalizer (any field)

def core(l: LieAlgebra, b: Subspace) -> Subspace:
    """The largest ideal of L contained in the subalgebra b.

    Computed as the limit of B_{i+1} = {x in B_i : [e_j, x] in B_i for
    every j}.  Each step is one linear solve on B_i's own coordinates:
    x = sum_i w_i r_i over B_i's canonical rows r_i, and [e_j, x] lies in
    B_i exactly when the reduction of sum_i w_i [e_j, r_i] by B_i is zero
    at B_i's non-pivot columns (it is zero at the pivot columns always).
    The kernel is mapped back into L; the chain strictly descends until
    the kernel is the whole coordinate space, and that fixed point is an
    ideal.  Works over any field.
    """
    if not l.is_subalgebra(b):
        raise NotSubalgebra("core is defined for subalgebras")
    cur = b
    while cur.dim:
        free = cur._free_columns()
        equations = []
        for j in range(l.dim):
            images = [cur.reduce_raw(l.ad_raw(j, r)) for r in cur.rows]
            equations.extend([v[c] for v in images] for c in free)
        kernel = raw_kernel(l.field, equations, cur.dim)
        if kernel.dim == cur.dim:
            break
        cur = cur.from_coords(kernel)
    return cur


def normalizer(l: LieAlgebra, u: Subspace) -> Subspace:
    """{x in L : [x, u] <= u}."""
    return l.transporter(u, u)


# ---------------------------------------------------------------------------
# one-dimensional ideals

def point_line(field: Field, x) -> Subspace:
    """The line of a raw row x whose first nonzero entry is 1: x is its
    own reduced echelon form, so no elimination is run."""
    return Subspace(field, len(x), (x,), (x.index(1),))


def subspace_points(p: int, u: Subspace):
    """The projective points of u over GF(p), as raw rows, one at a time.

    These are the nonzero vectors of u whose first nonzero entry is 1,
    one per line of u: r_m + sum_{k>m} t_k r_k over u's canonical rows
    r_k.  With u the full space they are the projective points of
    GF(p)^n.

    They come out with the lead index m ascending, then the tail
    coefficients t_{m+1}, t_{m+2}, ... in product order (the first
    varying slowest).  That is ``(pivot, row)`` order: the point's pivot
    is r_m's, its entry at the pivot of r_k (k > m) is t_k, and every
    column before that pivot depends on t_{<k} alone.  Over GF(p) that
    is the :meth:`Subspace.sort_key` order of the points' lines, which
    starts with the line of ``u.rows[0]``: :func:`one_dim_ideals` sorts
    its families' points as already-sorted runs, and
    :func:`first_line_ideal` reads each family's first line off its
    first row.

    Each point is a running sum, and t_k counts up by adding r_k once
    per step, so nothing of size p is held and the first point comes
    at once even when p is near 2^31.
    """
    rows = u.rows
    for m, lead in enumerate(rows):
        yield from _running_sums(p, lead, rows[m + 1:])


def _running_sums(p: int, acc: tuple, rows: tuple):
    # acc plus t_k * rows[k] for every tail t, in product order, mod p; a
    # step adds rows[0] at its nonzero columns only.
    if not rows:
        yield acc
        return
    row, rest = rows[0], rows[1:]
    support = [(c, x) for c, x in enumerate(row) if x]
    cur = list(acc)
    for t in range(p):
        if t:
            for c, x in support:
                cur[c] = (cur[c] + x) % p
        if rest:
            yield from _running_sums(p, tuple(cur), rest)
        else:
            yield tuple(cur)


def projective_points(field: Field, n: int):
    """One canonical vector per line of GF(p)^n (first nonzero entry 1)."""
    if field.p is None:
        raise FieldNotFinite("projective scan needs a finite field")
    return (_box(field, v) for v in subspace_points(field.p, Subspace.full(field, n)))


def ideal_line_families(l: LieAlgebra) -> tuple:
    """Maximal joint-eigenspace subspaces of the adjoint maps.

    Every nonzero vector of a family spans a one-dimensional ideal, and
    every one-dimensional ideal lies inside exactly one family.  Works
    over any field; over Q only rational eigenvalues arise, which is the
    correct notion for a rational structure.  Computed once per algebra
    and kept in its memo.
    """
    return l._memoized("line_families", lambda: _line_families(l))


def _line_families(l: LieAlgebra) -> tuple:
    # If x != 0 has [y, x] = lambda(y) x for every y, Jacobi gives
    # lambda([a, b]) = 0: x lies in C_L([L, L]) and lambda is fixed on a
    # complement W of [L, L].  Conversely, an x in C_L([L, L]) that is an
    # eigenvector of ad(w) for every row w of W spans an ideal.  So only
    # the dim L/[L, L] maps ad(w) are factored, each cutting C_L([L, L]).
    p = l.field.p
    derived = derived_subspace(l)
    families = [l.centralizer(derived)]
    for w in derived.complement().rows:
        ad = l.ad_matrix_raw(w)
        roots = sorted(raw_poly_roots(p, raw_char_poly(p, ad)))
        eigenspaces = [raw_eigenspace(l.field, ad, lam) for lam in roots]
        families = [cut for fam in families for eig in eigenspaces if (cut := fam & eig).dim]
    return tuple(sorted((fam for fam in families if fam.dim), key=Subspace.sort_key))


def one_dim_ideals(l: LieAlgebra, budget: int = DEFAULT_BUDGET) -> tuple:
    """Lines Fx that are ideals of L, sorted by :meth:`Subspace.sort_key`.

    Read off the joint eigenspace families of
    :func:`ideal_line_families`, whose nonzero vectors are exactly the
    spanning vectors of one-dimensional ideals.  Over a finite field
    every line of every family is listed, one per projective point of
    the family, so the list is complete; the count, (p^d - 1)/(p - 1)
    for a family of dimension d, is checked against the budget before
    any line is made, and BudgetExceeded is raised when it is over.
    Each family's points come out of :func:`subspace_points` in
    ``(pivot, row)`` order, which over GF(p) is the ``sort_key`` order of
    their lines, and the families are disjoint; so the raw pairs of all
    families are sorted (a merge of sorted runs) and each line is built
    once, with no sort key per line.  Over Q a family of dimension >= 2
    holds infinitely many lines, so only the lines of its canonical
    basis vectors are listed, sorted by ``sort_key`` (whose order on
    Fractions is not their value order): a deterministic set of
    representatives, complete exactly when every family is a line.
    """
    field = l.field
    p = field.p
    families = ideal_line_families(l)
    total = 0 if p is None else sum(gaussian_binomial(fam.dim, 1, p) for fam in families)
    _check_budget(total, f"one-dimensional ideals of a dim-{l.dim} algebra over {field}", budget)
    if p is None:
        lines = (point_line(field, v) for fam in families for v in fam.rows)
        return tuple(sorted(lines, key=Subspace.sort_key))
    points = sorted((v.index(1), v) for fam in families for v in subspace_points(p, fam))
    return tuple(point_line(field, v) for _, v in points)


def first_line_ideal(l: LieAlgebra) -> Subspace | None:
    """``one_dim_ideals(l)[0]`` without listing the lines; None if none.

    A family's lines in :meth:`Subspace.sort_key` order start with the
    span of its first canonical row (the smallest pivot, then zeros at
    the other pivots), so the first line of all is the least such span.
    """
    return min(
        (point_line(l.field, fam.rows[0]) for fam in ideal_line_families(l)),
        key=Subspace.sort_key,
        default=None,
    )
