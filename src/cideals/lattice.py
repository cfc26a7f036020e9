"""Cores, normalizers and exhaustive enumeration over finite fields.

Subspaces of GF(p)^n are listed once each by generating every
reduced-row-echelon basis directly: choose pivot columns, then fill the
free entries.  The order is deterministic (dimension ascending, then
pivot columns lexicographically, then free entries counted in residue
order, the first row varying slowest).  Subalgebras come out in the
same order, but from a search that fixes the rows one at a time and
drops a partial basis as soon as one of its brackets is seen to fall
outside every completion (see :func:`_subalgebras`), so most subspaces
are never built; within one listing each candidate row is built once
per pivot tuple and each bracket of two rows is computed once, and
those brackets stay in the memo for the structure tables of the listed
subalgebras (see :func:`~cideals.liealg.algebra_on`).  The
ideals are the subalgebras that pass the ideal test, each [e_c, row]
of that filter computed once per listing too.  The subspace count,
one row of the Gaussian triangle, is checked against the budget
before any work happens so overruns fail loudly instead of truncating.
The subalgebra and ideal lattices, the maximal and maximal-nilpotent
lists, the line-ideal families and the flag of ideals live in the memo
the algebra shares with every value-equal algebra (see
:class:`~cideals.liealg.LieAlgebra`); every entry point checks the
budget before it reads the memo.

The flag of ideals of a supersolvable L (:func:`supersolvable_flag`,
built on :func:`first_line_ideal` and the ascending central series)
lives here because the maximal subalgebras of such an L are its
codimension-one subalgebras, read off the listing with no containment
test; its basis and weights (``_flag_weights``) pick the Cartan ones of
the maximal nilpotent subalgebras and give :mod:`cideals.structure` the
radicals, F(L) and socle; with no flag a Cartan one is its own
:func:`normalizer`.  The pairwise filter :func:`_maximal_among` serves
an L with no flag and the maximal nilpotent subalgebras.

The budgeted listings (``enum_*``, ``maximal_*``, ``one_dim_ideals``)
check the field and charge the budget, not an input subspace, so
trusted forms may call them.  The one public/trusted pair is
:func:`core` (B closed) -> ``_core``, which library code that already
knows B closed calls directly.
"""

from __future__ import annotations

import heapq
import itertools
import operator

from .errors import BudgetExceeded, FieldNotFinite
from .fields import Field, raw_poly_roots
from .linalg import Subspace, _box, _units, raw_char_poly, raw_dots, raw_eigenspace, raw_kernel
from .liealg import (
    LieAlgebra,
    _nilpotent_on,
    _require_closed,
    algebra_modulo,
    derived_subspace,
    is_nilpotent,
)

DEFAULT_BUDGET = 10**6


def gaussian_binomial(n: int, k: int, p: int) -> int:
    """The number of k-dimensional subspaces of GF(p)^n."""
    return subspace_count(n, p, (k,))


def subspace_count(n: int, p: int, dims=None) -> int:
    """The number of subspaces of GF(p)^n whose dimension is in ``dims``
    (default all), a repeated dimension counting twice.

    Row n of the Gaussian triangle is built in one pass, exactly in
    integers: g_k = g_{k-1} (p^(n-k+1) - 1) / (p^k - 1).
    """
    row, g = [], 1
    for k in range(n + 1):
        if k:
            g = g * (p ** (n - k + 1) - 1) // (p**k - 1)
        row.append(g)
    if dims is None:
        return sum(row)
    return sum(row[k] for k in dims if 0 <= k <= n)


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
    # Kept in the memo per ``dims``; each call compares it with its own budget.
    count = l._memoized(("subspace_count", dims), lambda: subspace_count(l.dim, l.field.p, dims))
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

    A residual that is zero at p_m, where the next row has its 1, is
    not changed by that row: if it is nonzero before p_{m+1} the node
    has no closed completion and is left before its candidates are
    tried.  Each depth's candidate rows, as tuples with their segments
    from p_m on, are built once per pivot tuple, when the search first
    reaches that depth, and every node there walks the same list.  The
    same rows recur under other pivot tuples, so each bracket of an
    earlier row with a candidate is computed once and kept, as a tuple,
    in one dict in the memo under "brackets".  Every pair of canonical
    rows of a listed subalgebra is in it, so reading the structure table
    of a listed subalgebra brackets nothing.
    """
    field, n = l.field, l.dim
    brackets = l._memoized("brackets", dict)
    out = [Subspace.zero(field, n)]
    for k in range(1, n + 1):
        for pivots in itertools.combinations(range(n), k):
            out.extend(
                Subspace(field, n, rows, pivots) for rows in _closed_bases(l, pivots, brackets)
            )
    return tuple(out)


def _closed_bases(l: LieAlgebra, pivots: tuple, brackets: dict) -> list:
    # The canonical bases with these pivots whose span is bracket closed;
    # ``brackets`` maps (earlier row, candidate row) to their bracket.
    p, n, k = l.field.p, l.dim, len(pivots)
    bracket = l.bracket_raw
    ends = pivots[1:] + (n,)
    candidates = [None] * k
    found = []

    def rows_at(m: int) -> list:
        # Row m's candidates in product order, each with its segment: 1 at
        # pivots[m], zero at the later pivots, any value at a free column.
        pm = pivots[m]
        entries = [(0,) if c in pivots else range(p) for c in range(pm + 1, n)]
        zeros = (0,) * pm
        out = []
        for tail in itertools.product(*entries):
            seg = (1,) + tail
            out.append((zeros + seg, seg))
        return out

    def extend(m: int, rows: tuple, tails: list):
        # ``tails`` holds each bracket's residual from column pivots[m] on.
        pm, end = pivots[m], ends[m]
        width = end - pm
        if any(not t[0] and any(t[1:width]) for t in tails):
            return
        if candidates[m] is None:
            candidates[m] = rows_at(m)
        for row, seg in candidates[m]:
            kept = []
            for t in tails:
                f = t[0]
                if f:
                    t = [(a - f * b) % p for a, b in zip(t, seg)]
                if any(t[1:width]):
                    break
                kept.append(t[width:])
            else:
                basis = rows + (row,)
                for u in rows:
                    v = brackets.get((u, row))
                    if v is None:
                        v = brackets[u, row] = tuple(bracket(u, row))
                    for r, c in zip(basis, pivots):
                        f = v[c]
                        if f:
                            v = [(a - f * b) % p for a, b in zip(v, r)]
                    if any(v[:end]):
                        break
                    kept.append(v[end:])
                else:
                    if m + 1 == k:
                        found.append(basis)
                    else:
                        extend(m + 1, basis, kept)

    extend(0, (), [])
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
    columns c of u are tried.  The same rows recur across subalgebras,
    so each image [e_c, row] is kept in one dict for the length of the
    filter and computed once.
    """
    subalgebras = enum_subalgebras(l, budget)
    return l._memoized("ideals", lambda: _ideals(l, subalgebras))


def _ideals(l: LieAlgebra, subalgebras) -> tuple:
    images = {}

    def ad(c: int, r: tuple) -> list:
        v = images.get((c, r))
        if v is None:
            v = images[c, r] = l.ad_raw(c, r)
        return v

    return tuple(u for u in subalgebras if l._closed_is_ideal(u, ad))


def _maximal_among(candidates, proper_of_dim: int) -> tuple:
    """Subspaces of the list not strictly contained in another member.

    The pairwise filter, for the maximal subalgebras of an L with no
    flag of ideals and for the maximal nilpotent ones.  Each candidate
    is tested only against the members kept so far of larger dimension,
    by their annihilators, and only against those whose pivot columns
    include its own: every vector of a member leads at one of the
    member's pivots.
    """
    picked = []  # (member, its pivot bitmask, its annihilator)
    dim = larger = None  # picked[:larger] are the kept members above dim
    for u in sorted(candidates, key=lambda s: -s.dim):
        if u.dim >= proper_of_dim:
            continue
        if u.dim != dim:
            dim, larger = u.dim, len(picked)
        p = u.field.p
        mask = sum(1 << c for c in u.pivots)
        for _, held, annihilator in itertools.islice(picked, larger):
            if mask & ~held:
                continue
            if not any(sum(map(operator.mul, a, r)) % p for a in annihilator for r in u.rows):
                break
        else:
            picked.append((u, mask, u.annihilator_raw()))
    return tuple(m for m, _, _ in picked)


def maximal_subalgebras(l: LieAlgebra, budget: int = DEFAULT_BUDGET) -> tuple:
    """Proper subalgebras contained in no larger proper subalgebra.

    Ordered by dimension descending, enumeration order within a
    dimension.  When L has a flag of ideals 0 = G_0 < ... < G_n = L
    (:func:`supersolvable_flag`) they are the listed subalgebras of
    dimension n - 1, with no containment test: a codimension-one
    subalgebra is maximal, and for a maximal M, with i least such that
    G_i is not in M, M + G_i is a subalgebra larger than M, so it is L,
    and M meets G_i in G_{i-1}, so dim M = n - 1.  Otherwise each
    subalgebra is tested against the kept ones of larger dimension
    (:func:`_maximal_among`), at most the square of the subalgebra count
    of containment tests; that filter has no budget of its own.
    """
    subalgebras = enum_subalgebras(l, budget)
    return l._memoized("maximal", lambda: _maximal(l, subalgebras))


def _maximal(l: LieAlgebra, subalgebras: tuple) -> tuple:
    if supersolvable_flag(l) is None:
        return _maximal_among(subalgebras, l.dim)
    return tuple(u for u in subalgebras if u.dim == l.dim - 1)


def maximal_nilpotent_subalgebras(l: LieAlgebra, budget: int = DEFAULT_BUDGET) -> tuple:
    """Nilpotent subalgebras maximal among the nilpotent ones.

    When L is itself nilpotent the unique answer is L, given without
    the budget check.  Otherwise each subalgebra's nilpotency is
    decided on its structure table, read from the listing's brackets,
    by its lower central series in its own coordinates, once per
    distinct table (see :func:`~cideals.liealg.is_nilpotent`), and the
    pairwise filter :func:`_maximal_among` keeps the maximal ones, at
    most the square of the nilpotent count of containment tests.
    """
    _require_finite(l)
    if is_nilpotent(l):
        return (l.full_space(),)
    subalgebras = enum_subalgebras(l, budget)
    # L itself is not nilpotent here, so every candidate is proper.
    return l._memoized(
        "maximal_nilpotent",
        lambda: _maximal_among([u for u in subalgebras if _nilpotent_on(l, u)], l.dim),
    )


def cartan_subalgebras(l: LieAlgebra, budget: int = DEFAULT_BUDGET) -> tuple:
    """Self-normalizing nilpotent subalgebras, in enumeration order.

    They are the self-normalizing members of
    :func:`maximal_nilpotent_subalgebras` (a Cartan subalgebra inside a
    larger nilpotent K would be normalized by an element of K outside
    it), so a nilpotent L is answered as its own without the budget check.
    :func:`_self_normalizing` tests each: with a flag of ideals by counting
    the flag's weights that vanish on it, in O(n^2 dim u), else by N(u).
    """
    members = maximal_nilpotent_subalgebras(l, budget)
    weights = _flag_weights(l)
    return tuple(sorted((u for u in members if _self_normalizing(l, u, weights)), key=Subspace.sort_key))


def _self_normalizing(l: LieAlgebra, u: Subspace, weights=None) -> bool:
    # normalizer(l, u) == u for a nilpotent u.  With the flag's weights,
    # in O(n^2 dim u): N(u) <= L_0(u), the null component of ad u, and by
    # Engel's theorem N(u) = u exactly when L_0(u) = u; ad u is triangular
    # on the flag's basis with the weights on the diagonal, so dim L_0(u)
    # is the number of weights vanishing on u.
    if weights is not None:
        return u.dim == sum(not any(raw_dots(l.field.p, u.rows, w)) for w in weights[3])
    return normalizer(l, u) == u


# ---------------------------------------------------------------------------
# core and normalizer (any field)

def core(l: LieAlgebra, b: Subspace) -> Subspace:
    """The largest ideal of L contained in the subalgebra b.

    Computed as the limit of B_{i+1} = {x in B_i : [e_j, x] in B_i for
    every j}.  Each B_i is a subalgebra and L is B_i plus the span of the
    e_j at B_i's non-pivot columns j, so only those j are bracketed.
    Each step is one linear solve on B_i's own coordinates:
    x = sum_i w_i r_i over B_i's canonical rows r_i, and [e_j, x] lies in
    B_i exactly when the reduction of sum_i w_i [e_j, r_i] by B_i is zero
    at B_i's non-pivot columns (it is zero at the pivot columns always).
    The kernel is mapped back into L; the chain strictly descends until
    the kernel is the whole coordinate space, and that fixed point is an
    ideal.  Works over any field.
    """
    _require_closed(l, b, "core is defined for subalgebras")
    return _core(l, b)


def _core(l: LieAlgebra, b: Subspace) -> Subspace:
    # core for a b already known to be a subalgebra, without the check.
    cur = b
    while cur.dim:
        free = cur._free_columns()
        equations = []
        for j in free:
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
    starts with the line of ``u.rows[0]``: :func:`one_dim_ideals` merges
    its families' points, each paired with its pivot, with no sort.

    Each point is a running sum, and t_k counts up by adding r_k once
    per step, so nothing of size p is held and the first point comes
    at once even when p is near 2^31.
    """
    rows = u.rows
    for m, lead in enumerate(rows):
        yield from _running_sums(p, lead, rows[m + 1:])


def _running_sums(p: int, acc: tuple, rows: tuple):
    # acc plus t_k * rows[k] for every tail t, in product order, mod p; a
    # step adds rows[0] at its nonzero columns only.  The rows are
    # canonical rows after acc's, so acc is 0 at each of their pivots, and
    # a last row that is a unit row e_c puts t at column c.
    if not rows:
        yield acc
        return
    row, rest = rows[0], rows[1:]
    support = [(c, x) for c, x in enumerate(row) if x]
    if not rest and len(support) == 1 and support[0][1] == 1:
        c = support[0][0]
        pre, post = acc[:c], acc[c + 1:]
        yield from ((*pre, t, *post) for t in range(p))
        return
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
    # Each ad(w) is factored on each current family, in the family's own
    # coordinates, never on L: C_L([L, L]) is an ideal, so ad(w) maps it
    # into itself, and the ad(w) commute there, since [ad(w), ad(w')] is
    # ad([w, w']) with [w, w'] in [L, L], which centralizes it.  So every
    # eigenspace cut by one ad(w) is mapped into itself by the next.
    p = l.field.p
    derived = derived_subspace(l)
    families = [l.centralizer(derived)]
    for w in derived.complement().rows:
        cuts = []
        for fam in families:
            ad = tuple(zip(*(fam.coords_raw(l.bracket_raw(w, r)) for r in fam.rows)))
            for lam in raw_poly_roots(p, raw_char_poly(p, ad)):
                cuts.append(fam.from_coords(raw_eigenspace(l.field, ad, lam)))
        families = cuts
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
    Each family's points come in ``(pivot, row)`` order (see
    :func:`subspace_points`), which over GF(p) is the ``sort_key`` order
    of their lines, and the families are disjoint; so the families'
    points, paired with their pivots, are merged lazily and each line is
    built once, with no sort key per line and no search for its pivot.
    Over Q a family of dimension >= 2 holds infinitely many lines, so
    only the lines of its canonical basis vectors are listed, sorted by
    ``sort_key`` (whose order on Fractions is not their value order): a
    deterministic set of representatives, complete exactly when every
    family is a line.
    """
    p = l.field.p
    families = ideal_line_families(l)
    total = 0 if p is None else sum(gaussian_binomial(fam.dim, 1, p) for fam in families)
    _check_budget(total, f"one-dimensional ideals of a dim-{l.dim} algebra over {l.field}", budget)
    return tuple(_line_ideals(l))


def first_line_ideal(l: LieAlgebra) -> Subspace | None:
    """``one_dim_ideals(l)[0]`` without listing the lines; None if none."""
    return next(_line_ideals(l), None)


def _line_ideals(l: LieAlgebra):
    # The lines of one_dim_ideals, in order, one at a time, unbudgeted.
    field, n = l.field, l.dim
    p = field.p
    families = ideal_line_families(l)
    if p is None:
        lines = (point_line(field, v) for fam in families for v in fam.rows)
        return iter(sorted(lines, key=Subspace.sort_key))
    if len(families) == 1:
        points = _pivot_points(p, families[0])
    else:
        points = heapq.merge(*(_pivot_points(p, fam) for fam in families))
    return (Subspace(field, n, (v,), c) for c, v in points)


def _pivot_points(p: int, u: Subspace):
    # The points of subspace_points(p, u), each after its pivot tuple,
    # one tuple per column: the run of lead row m has u's pivot m.
    for m, c in enumerate(u.pivots):
        yield from zip(itertools.repeat((c,)), _running_sums(p, u.rows[m], u.rows[m + 1:]))


# ---------------------------------------------------------------------------
# the ascending central series and supersolvability (any field)

def upper_central_series(l: LieAlgebra) -> tuple:
    """0 = Z_0 <= Z_1 <= ... up to the hypercentre (ascending, stabilized).

    Made once per algebra value and kept in its memo.
    """
    return l._memoized("upper_central", lambda: _upper_central(l))


def _upper_central(l: LieAlgebra) -> tuple:
    terms = [l.zero_space()]
    full = l.full_space()
    while True:
        nxt = l.transporter(full, terms[-1])
        if nxt == terms[-1]:
            break
        terms.append(nxt)
    return tuple(terms)


def _refine_through(lower: Subspace, upper: Subspace, flag: list):
    # Extend the flag one dimension at a time from lower to upper.
    cur = lower
    for r in upper.rows:
        if cur.holds_raw(r):
            continue
        cur = cur.extended_raw((r,))
        flag.append(cur)


def _nilpotent_flag(l: LieAlgebra) -> tuple:
    # Between consecutive terms of the ascending central series every
    # intermediate subspace is an ideal, so any refinement works.
    series = upper_central_series(l)
    flag = [l.zero_space()]
    for lower, upper in zip(series, series[1:]):
        _refine_through(flag[-1], upper, flag)
    return tuple(flag)


def supersolvable_flag(l: LieAlgebra) -> tuple | None:
    """A complete flag of ideals 0 = I_0 < I_1 < ... < I_n = L, or None.

    Nilpotent algebras are refined through the ascending central
    series.  Otherwise the first line ideal I of :func:`one_dim_ideals`,
    read by :func:`first_line_ideal`, decides: every quotient of a
    supersolvable algebra is supersolvable, so L has a flag exactly when
    L/I has one, and the flag of L/I lifts through I.  No line ideal
    means no flag.  Over Q the lines come from the joint eigenspace
    families, which is exactly the set available to a rational
    structure; a None over Q means the rational form has no such flag.
    Kept in the memo.
    """
    return l._memoized("supersolvable_flag", lambda: _flag(l))


def _flag_weights(l: LieAlgebra) -> tuple | None:
    """The flag's basis and weights, or None when L has no flag or is over
    Q; kept in the memo.  For the flag 0 = G_0 < ... < G_n = L, b_i is
    G_i's canonical row at the pivot q_i that G_{i-1} lacks, and lambda_i
    is the form with [x, b_i] = lambda_i(x) b_i mod G_{i-1}.  Returns the
    b_i, the coordinates on the b's of [b_j, b_k] (j < k), lam[i][j] =
    lambda_i(b_j), and each lambda_i on L's coordinates.  O(n^4): b_i is 1
    at q_i and 0 at every earlier pivot, so coordinates are triangular.
    """
    return l._memoized("flag_weights", lambda: _weights(l))


def _weights(l: LieAlgebra) -> tuple | None:
    p, n = l.field.p, l.dim
    flag = None if p is None else supersolvable_flag(l)
    if flag is None:
        return None
    steps = [next(rc for rc in zip(g.rows, g.pivots) if rc[1] not in h.pivots) for h, g in zip(flag, flag[1:])]
    b = [r for r, _ in steps]

    def coords(x) -> list:
        y = []
        for _, q in steps:
            y.append((x[q] - sum(c * r[q] for c, r in zip(y, b))) % p)
        return y

    table = {(j, k): coords(l.bracket_raw(b[j], b[k])) for j, k in itertools.combinations(range(n), 2)}
    # [b_j, b_i] lies in the ideal G_i, and its b_i coordinate is lambda_i(b_j).
    lam = [[(table[j, i][i] if j < i else -table[i, j][i]) % p if j != i else 0 for j in range(n)] for i in range(n)]
    units = [coords(e) for e in _units(n, range(n))]
    return b, table, lam, [list(raw_dots(p, units, row)) for row in lam]


def _flag(l: LieAlgebra) -> tuple | None:
    if l.dim == 0:
        return (l.zero_space(),)
    if is_nilpotent(l):
        return _nilpotent_flag(l)
    line = first_line_ideal(l)
    if line is None:
        return None
    rest = supersolvable_flag(algebra_modulo(l, line))
    if rest is None:
        return None
    return (l.zero_space(),) + tuple(line.preimage(w) for w in rest)
