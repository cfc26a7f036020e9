"""Lie algebras presented by structure constants.

An algebra is stored as a raw sparse structure tensor, [e_i, e_j] for
every ordered pair; antisymmetry is structural and the Jacobi identity
is checked by :meth:`LieAlgebra.validate`.  Subspaces, and their
coordinates in subalgebras and quotients, belong to
:class:`~cideals.linalg.Subspace`; this module adds the bracket-aware
constructions: products of subspaces, closures, series, centralizers
and transporters, quotients, restrictions and direct sums.  Quotients
and restrictions box Scalars only in the coordinate maps they return.

One walk, ``_pair_brackets``, brackets a basis's row pairs a < b for
``is_subalgebra``, ``span_product(u, u)``, the derived step and the one
reader, ``_table``, of a basis's structure table; one builder,
``_algebra``, makes an algebra of it.  Each public form checks its
input, then calls its trusted form, which checks nothing and calls no
form that does (``is_nilpotent`` and ``is_solvable`` of L itself check
nothing):

- ``is_ideal`` -> ``_ideal_annihilator``, the one ideal test of a
  subspace not known to be closed (``_closed_is_ideal`` tests one that is);
- ``restrict``, ``quotient`` (closed, an ideal) -> the reader, the builder;
- ``is_nilpotent``, ``is_solvable`` of a subalgebra (closed) ->
  ``_nilpotent_on``, ``_solvable_on`` -> ``_reaches_zero``, run only for
  dim >= 3 when L is not nilpotent (solvable): the reader, a trace, then
  the series loop on the builder's bare algebra of the table, neither
  canonical nor memoized, with one verdict per distinct table;
- :func:`algebra_on`, :func:`algebra_modulo` -> the reader, the builder,
  one canonical algebra per distinct table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    AmbientMismatch,
    DimensionMismatch,
    FieldMismatch,
    IndexOutOfRange,
    NotAnIdeal,
    NotSubalgebra,
)
from .fields import Field, _qraw
from .linalg import (
    Matrix,
    Subspace,
    _box,
    _unbox,
    _units,
    raw_kernel,
    raw_rref,
    standard_vector,
    zero_vector,
)

SERIES_KINDS = ("derived", "lower_central")


@dataclass(frozen=True)
class SeriesResult:
    """A strictly descending series that has reached its fixed point.

    ``terms[0]`` is the starting subalgebra and ``terms[-1]`` equals the
    next step applied to itself.
    """

    kind: str
    terms: tuple


class LieAlgebra:
    """A finite-dimensional Lie algebra over Q or GF(p).

    The structure constants are held once, as a raw sparse tensor:
    ``_ad[i][j]`` lists the nonzero ``(k, c)`` with c the raw coefficient
    of e_k in [e_i, e_j].  Brackets, products, closure tests and
    transporters run on raw rows; Scalars appear only at the boundary.

    Equality and hashing use the field, dimension and bracket table;
    basis labels and metadata are presentation only and ignored, which
    lets derived objects be shared by value.

    Objects derived from the value live in one memo dict, the library's
    only cache of them (see :func:`canonical`), read through the
    ``_memo`` slot, which stays out of equality and hashing: lattices,
    flags, c-ideal verdicts, the derived, lower central and ascending
    central series from L, per subspace the algebra on it or modulo it
    (:func:`algebra_on`, :func:`algebra_modulo`), per distinct
    structure table, of a subalgebra or a quotient, the one algebra,
    and of a subalgebra whether its own derived (lower central) series
    reaches 0.  The subalgebra listing keeps there the bracket of each
    pair of rows it made, as a tuple, and the table reader reads a pair
    from it instead of bracketing again.
    """

    __slots__ = ("field", "dim", "names", "meta", "_ad", "_hash", "_memo")

    def __init__(self, field: Field, dim: int, names=None, brackets=None, meta=None):
        """``brackets`` maps pairs ``(i, j)`` with i < j to the coordinate
        sequence of [e_i, e_j]; missing pairs are zero.  Coordinates may
        be anything :meth:`~cideals.fields.Field.raw` accepts.
        """
        if dim < 0:
            raise DimensionMismatch("negative dimension")
        if names is None:
            names = tuple(f"e{i}" for i in range(dim))
        else:
            names = tuple(str(n) for n in names)
            if len(names) != dim:
                raise DimensionMismatch(f"{len(names)} names for dimension {dim}")
        raw = {}
        for (i, j), coords in (brackets or {}).items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise IndexOutOfRange(f"bracket pair ({i}, {j}) outside 0..{dim - 1}")
            if i >= j:
                raise IndexOutOfRange(f"bracket pair ({i}, {j}) must have i < j")
            vec = tuple(map(field.raw, coords))
            if len(vec) != dim:
                raise DimensionMismatch(
                    f"bracket ({i}, {j}) has {len(vec)} coordinates, expected {dim}"
                )
            raw[(i, j)] = vec
        self._fill(field, names, raw, meta)

    @classmethod
    def _from_raw(cls, field: Field, names: tuple, brackets: dict) -> "LieAlgebra":
        # The constructor without coercion or checks: ``brackets`` maps
        # pairs i < j to the raw row of [e_i, e_j], already normalized.
        alg = object.__new__(cls)
        alg._fill(field, names, brackets, None)
        return alg

    def _fill(self, field, names, brackets, meta):
        dim = len(names)
        self.field = field
        self.dim = dim
        self.names = names
        self.meta = dict(meta) if meta else {}
        p = field.p
        ad = [[()] * dim for _ in range(dim)]
        for (i, j), vec in brackets.items():
            if p is None:
                vec = map(_qraw, vec)
            ad[i][j] = tuple((k, c) for k, c in enumerate(vec) if c)
            ad[j][i] = tuple((k, -c if p is None else p - c) for k, c in ad[i][j])
        self._ad = tuple(tuple(row) for row in ad)
        self._hash = None
        self._memo = None

    def _memoized(self, key, make):
        """The derived object ``key`` of this algebra's value: ``make()`` on
        first use by any value-equal algebra, then the stored object.
        Callers check their budget before reading."""
        memo = self._memo
        if memo is None:
            memo = self._memo = canonical(self)._memo
        if key not in memo:
            memo[key] = make()
        return memo[key]

    # -- basics ------------------------------------------------------------

    def zero_vec(self) -> tuple:
        return zero_vector(self.field, self.dim)

    def basis_vector(self, i: int) -> tuple:
        if not 0 <= i < self.dim:
            raise IndexOutOfRange(f"basis index {i} outside 0..{self.dim - 1}")
        return standard_vector(self.field, self.dim, i)

    def basis(self) -> tuple:
        return tuple(self.basis_vector(i) for i in range(self.dim))

    def full_space(self) -> Subspace:
        return Subspace.full(self.field, self.dim)

    def zero_space(self) -> Subspace:
        return Subspace.zero(self.field, self.dim)

    def _dense(self, sparse) -> list:
        out = [0] * self.dim
        for k, c in sparse:
            out[k] = c
        return out

    def structure_vector(self, i: int, j: int) -> tuple:
        """[e_i, e_j] for any i, j in 0..dim - 1."""
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise IndexOutOfRange(f"basis pair ({i}, {j}) outside 0..{self.dim - 1}")
        return _box(self.field, self._dense(self._ad[i][j]))

    def _unbox_vector(self, v: tuple) -> tuple:
        if len(v) != self.dim:
            raise DimensionMismatch(f"vector of length {len(v)} in a dim-{self.dim} algebra")
        return _unbox(self.field, v)

    def bracket_raw(self, u, v) -> list:
        """[u, v] on raw rows, without checks."""
        p = self.field.p
        out = [0] * self.dim
        nv = [(j, b) for j, b in enumerate(v) if b]
        for i, a in enumerate(u):
            if a:
                ti = self._ad[i]
                for j, b in nv:
                    sparse = ti[j]
                    if sparse:
                        ab = a * b
                        for k, c in sparse:
                            out[k] += ab * c
        return out if p is None else [x % p for x in out]

    def ad_raw(self, i: int, v) -> list:
        """[e_i, v] on a raw row, without checks."""
        p = self.field.p
        out = [0] * self.dim
        ti = self._ad[i]
        for j, b in enumerate(v):
            if b:
                for k, c in ti[j]:
                    out[k] += b * c
        return out if p is None else [x % p for x in out]

    def bracket(self, u: tuple, v: tuple) -> tuple:
        """[u, v], bilinear and antisymmetric by construction."""
        return _box(self.field, self.bracket_raw(self._unbox_vector(u), self._unbox_vector(v)))

    def ad_matrix(self, x: tuple) -> Matrix:
        """The matrix of y -> [x, y] on the chosen basis (columns are [x, e_j])."""
        raw = self._unbox_vector(x)
        columns = (self.bracket_raw(raw, e) for e in _units(self.dim, range(self.dim)))
        return Matrix._from_raw(self.field, tuple(zip(*columns)), self.dim)

    def validate(self) -> list:
        """Jacobi-identity violations as ``(i, j, k, residual)`` tuples.

        An empty list means the structure constants define a Lie
        algebra.  Antisymmetry cannot be violated in this encoding.
        """
        p = self.field.p
        violations = []
        for i, j, k in itertools.combinations(range(self.dim), 3):
            acc = [
                a + b + c
                for a, b, c in zip(
                    self.ad_raw(k, self._dense(self._ad[j][i])),
                    self.ad_raw(i, self._dense(self._ad[k][j])),
                    self.ad_raw(j, self._dense(self._ad[i][k])),
                )
            ]
            if p is not None:
                acc = [x % p for x in acc]
            if any(acc):
                violations.append((i, j, k, _box(self.field, acc)))
        return violations

    # -- subspace constructions ---------------------------------------------

    def _check_subspace(self, u: Subspace):
        if u.field is not self.field and u.field != self.field:
            raise FieldMismatch(f"subspace over {u.field} in an algebra over {self.field}")
        if u.ambient_dim != self.dim:
            raise AmbientMismatch(
                f"subspace of F^{u.ambient_dim} in a dim-{self.dim} algebra"
            )

    def span_product(self, u: Subspace, v: Subspace) -> Subspace:
        """The span of all [x, y] with x in u, y in v.

        The brackets of the canonical rows span it.  When u == v only the
        pairs of rows a < b are taken, from :func:`_pair_brackets`, d(d - 1)/2
        of them for d = dim u: [x, x] = 0 and [y, x] = -[x, y] add nothing.
        """
        self._check_subspace(u)
        self._check_subspace(v)
        if u == v:
            vecs = list(_pair_brackets(self, u.rows))
        else:
            vecs = [self.bracket_raw(x, y) for x in u.rows for y in v.rows]
        return Subspace.from_raw(self.field, self.dim, vecs)

    def is_subalgebra(self, u: Subspace) -> bool:
        """[u, u] <= u, stopping at the first of :func:`_pair_brackets` outside u."""
        self._check_subspace(u)
        return all(map(u.holds_raw, _pair_brackets(self, u.rows)))

    def is_ideal(self, u: Subspace) -> bool:
        """[L, u] <= u, by :meth:`_ideal_annihilator`."""
        self._check_subspace(u)
        return self._ideal_annihilator(u) is not None

    def _ideal_annihilator(self, u: Subspace):
        """u's annihilator rows when the subspace u is an ideal, else None;
        L has no row.  The one ideal test of a u not known to be closed,
        without checks.  A proper ideal's rows are kept under u in the memo
        "verified_ideals", so it holds exactly the proper ideals shown.

        A u not shown yet is read against the structure table first, with
        no bracket: if every row has dot product 0 with every [e_i, e_k],
        u contains [L, L], which contains [L, u], so u is an ideal.  Else a
        hyperplane u is not (L/u is abelian, so an ideal of codimension one
        contains [L, L]), and only a u of codimension >= 2 is bracketed.
        [L, L] is read from the table, not the memo, so a line decision's
        own [L, L] does not vouch for its witness.
        """
        memo = self._memo
        ideals = memo.get("verified_ideals") if memo else None
        if ideals is None:
            ideals = self._memoized("verified_ideals", dict)
        dual = ideals.get(u)
        if dual is None:
            dual = u.annihilator_raw()
            if not dual:
                return dual
            p = self.field.p
            table = [s for i, row in enumerate(self._ad) for s in row[i + 1 :] if s]
            for a in dual:
                for sparse in table:
                    d = 0
                    for j, c in sparse:
                        d += a[j] * c
                    if d if p is None else d % p:
                        break
                else:
                    continue
                # u misses [L, L]: a hyperplane is no ideal, any other u is bracketed.
                holds = u.holds_raw
                if len(dual) == 1 or not all(
                    holds(self.ad_raw(i, r)) for i in range(self.dim) for r in u.rows
                ):
                    return None
                break
            ideals[u] = dual
        return dual

    def _closed_is_ideal(self, u: Subspace, ad=None) -> bool:
        # is_ideal for a u already known to be a subalgebra: L is u plus
        # the span of e_c over the non-pivot columns c of u, and [u, u] <= u,
        # so only those [e_c, row] are tried.  ``ad(c, row)`` gives
        # [e_c, row] (default ad_raw); the result is only read.  A nested
        # loop that returns at the first image outside u: it decides each
        # yes with witness L, re-checks a central line's, and runs once per
        # listed subalgebra in the ideal filter, and a generator chain per
        # call cost about a third of a warm line decision.
        ad = self.ad_raw if ad is None else ad
        pivots, rows, holds = u.pivots, u.rows, u.holds_raw
        for c in range(self.dim):
            if c not in pivots:
                for r in rows:
                    if not holds(ad(c, r)):
                        return False
        return True

    def subalgebra_closure(self, u: Subspace) -> Subspace:
        """The smallest subalgebra containing u."""
        self._check_subspace(u)
        cur = u
        while True:
            nxt = cur + self.span_product(cur, cur)
            if nxt == cur:
                return cur
            cur = nxt

    def series(self, kind: str, start: Subspace | None = None) -> SeriesResult:
        """Derived or lower central series from ``start`` (default: L).

        From L both series start with [L, L], which
        :func:`derived_subspace` reads off the structure table with no
        bracket.  Each later derived step brackets the pairs a < b of
        the term's rows, reading a pair that the subalgebra listing of L
        kept instead of bracketing it again, and each lower central step
        every e_i with every row of the term.

        The lower central step brackets against the whole algebra, so
        for a proper starting subalgebra it descends through the ideal
        closure rather than the subalgebra's own central series; use
        :meth:`restrict` first for the intrinsic one.

        The series from L itself (``start`` None) is made once per
        algebra value and kept in its memo.
        """
        if kind not in SERIES_KINDS:
            raise ValueError(f"unknown series kind {kind!r}")
        if start is None:
            return self._memoized(("series", kind), lambda: self._series(kind, self.full_space()))
        _require_closed(self, start, "series must start at a subalgebra")
        return self._series(kind, start)

    def _series(self, kind: str, cur: Subspace) -> SeriesResult:
        # series from the subalgebra cur, without checks.
        terms = self._series_rows(kind, cur.rows, cur.pivots)[1:]
        field, n = self.field, self.dim
        return SeriesResult(kind, (cur,) + tuple(Subspace(field, n, r, c) for r, c in terms))

    def _series_rows(self, kind: str, rows: tuple, pivots: tuple) -> list:
        # The one series loop, on raw rows: (rows, pivots) of each term,
        # the start first, each step's span put in canonical form, until a
        # step gives its term back.  From the whole algebra the step is
        # [L, L], read from the memo; a derived step brackets the pairs of
        # the term's rows (see _pair_brackets), a lower central step every
        # e_i with every row.  A bare algebra, which must not make a memo,
        # starts strictly below itself, so it never steps from the whole.
        p, n = self.field.p, self.dim
        terms = [(rows, pivots)]
        while True:
            if len(rows) == n:
                derived = derived_subspace(self)
                nxt = derived.rows, derived.pivots
            elif kind == "derived":
                nxt = raw_rref(p, _pair_brackets(self, rows), n)
            else:
                nxt = raw_rref(p, [self.ad_raw(i, r) for i in range(n) for r in rows], n)
            if nxt[0] == rows:
                return terms
            terms.append(nxt)
            rows = nxt[0]

    def derived_series(self, start: Subspace | None = None) -> SeriesResult:
        return self.series("derived", start)

    def lower_central_series(self, start: Subspace | None = None) -> SeriesResult:
        return self.series("lower_central", start)

    def transporter(self, gens: Subspace, target: Subspace) -> Subspace:
        """{x in L : [x, u] in target for every u in gens}.

        Centralizers, normalizers, the core iteration and the ascending
        central series are all instances of this one linear solve.
        """
        self._check_subspace(gens)
        self._check_subspace(target)
        if gens.dim == 0:
            return self.full_space()
        n = self.dim
        rows = []
        for u in gens.rows:
            # column i is target.reduce([e_i, u]); one equation per coordinate
            cols = [target.reduce_raw(self.ad_raw(i, u)) for i in range(n)]
            rows.extend(zip(*cols))
        return raw_kernel(self.field, rows, n)

    def centralizer(self, a: Subspace) -> Subspace:
        """{x in L : [x, a] = 0 for all a in the subspace}."""
        return self.transporter(a, self.zero_space())

    def centre(self) -> Subspace:
        return self.centralizer(self.full_space())

    # -- derived algebras ----------------------------------------------------

    def quotient(self, ideal: Subspace):
        """The quotient by an ideal, with the coordinate maps.

        Returns ``(Lbar, project, lift)``.  The quotient basis is the
        image of ``ideal.complement()``, the standard vectors at the
        ideal's non-pivot columns (see :meth:`Subspace.modulo`), so
        ``project`` is linear with kernel exactly ``ideal`` and
        ``project(lift(w)) == w``.
        """
        if not self.is_ideal(ideal):
            raise NotAnIdeal("quotient by a subspace that is not an ideal")
        comp = ideal.complement()
        field = self.field

        def project(v: tuple) -> tuple:
            return _box(field, ideal.modulo_raw(ideal._unbox_vector(v)))

        def lift(w: tuple) -> tuple:
            if len(w) != comp.dim:
                raise DimensionMismatch(f"quotient vector of length {len(w)}, expected {comp.dim}")
            return _box(field, comp.from_coords_raw(_unbox(field, w)))

        return _algebra(self, comp, _table(self, comp, ideal.modulo_raw)), project, lift

    def restrict(self, subalgebra: Subspace):
        """The subalgebra as an algebra on its canonical basis.

        Returns ``(S, to_coords, from_coords)`` where ``to_coords`` maps
        a member of the subspace to its coordinates on the RREF basis
        (see :meth:`Subspace.coords`) and ``from_coords`` embeds back
        into L.

        Each pair of canonical rows a < b is taken once from
        :func:`_pair_brackets`, as :meth:`is_subalgebra` takes it: the
        bracket is checked to lie in the subspace, and its coordinates are
        the structure constants of S.  The first outside raises NotSubalgebra.
        """
        self._check_subspace(subalgebra)
        field = self.field

        def read(v) -> tuple:
            if not subalgebra.holds_raw(v):
                raise NotSubalgebra("restriction to a subspace that is not closed")
            return subalgebra.coords_raw(v)

        def to_coords(v: tuple) -> tuple:
            raw = subalgebra._unbox_vector(v)
            if not subalgebra.holds_raw(raw):
                raise AmbientMismatch("vector outside the subalgebra")
            return _box(field, subalgebra.coords_raw(raw))

        def from_coords(c: tuple) -> tuple:
            if len(c) != subalgebra.dim:
                raise DimensionMismatch(
                    f"coordinate vector of length {len(c)}, expected {subalgebra.dim}"
                )
            return _box(field, subalgebra.from_coords_raw(_unbox(field, c)))

        return _algebra(self, subalgebra, _table(self, subalgebra, read)), to_coords, from_coords

    # -- value semantics ------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, LieAlgebra)
            and self.field == other.field
            and self.dim == other.dim
            and self._ad == other._ad
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field, self.dim, self._ad))
        return self._hash

    def __repr__(self):
        return f"<LieAlgebra {self.field} dim {self.dim} names={','.join(self.names)}>"


def direct_sum(a: LieAlgebra, b: LieAlgebra) -> LieAlgebra:
    """The direct sum; each summand embeds as an ideal."""
    if a.field != b.field:
        raise FieldMismatch(f"direct sum over {a.field} and {b.field}")
    brackets = {}
    for summand, before, after in ((a, 0, b.dim), (b, a.dim, 0)):
        for i, row in enumerate(summand._ad):
            for j in range(i + 1, summand.dim):
                if row[j]:
                    vec = [0] * before + summand._dense(row[j]) + [0] * after
                    brackets[(before + i, before + j)] = vec
    names = []
    seen = {}
    for nm in a.names + b.names:
        count = seen.get(nm, 0) + 1
        seen[nm] = count
        names.append(nm if count == 1 else f"{nm}_{count}")
    return LieAlgebra._from_raw(a.field, tuple(names), brackets)


# ---------------------------------------------------------------------------
# the one owner of derived objects.  Each algebra value's first instance owns
# the memo dict that every value-equal algebra reads; past the cap the oldest
# is dropped from the table, keeping its memo for the algebras that hold it.

_CANONICAL_CAP = 1024
_canonical = {}


def canonical(l: LieAlgebra) -> LieAlgebra:
    """The canonical instance of l's value, the one owning its memo."""
    first = _canonical.setdefault(l, l)
    if first._memo is None:
        first._memo = {}
        if len(_canonical) > _CANONICAL_CAP:
            del _canonical[next(iter(_canonical))]
    return first


def _pair_brackets(l: LieAlgebra, rows: tuple):
    # The one walk over a basis's row pairs: [r_a, r_b] for each a < b, a
    # in the outer loop, one at a time.  A pair that the subalgebra listing
    # of l bracketed is read from the brackets it kept in l's memo
    # (non-empty tuples, so ``or`` brackets only a pair it does not hold).
    memo = l._memo
    kept = memo.get("brackets", {}) if memo else {}
    bracket_raw = l.bracket_raw
    for a, x in enumerate(rows):
        for y in rows[a + 1 :]:
            yield kept.get((x, y)) or bracket_raw(x, y)


def _table(l: LieAlgebra, basis: Subspace, read) -> tuple:
    # The one table reader: read([r_a, r_b]) over basis's canonical rows,
    # each pair a < b once, in _pair_brackets' order; a raise stops it.
    return tuple(map(read, _pair_brackets(l, basis.rows)))


def _algebra(l: LieAlgebra, basis: Subspace, table: tuple) -> LieAlgebra:
    # The one builder: a fresh algebra of the table, named after l at basis's pivots.
    pairs = itertools.combinations(range(basis.dim), 2)
    brackets = {ab: vec for ab, vec in zip(pairs, table) if any(vec)}
    return LieAlgebra._from_raw(l.field, tuple(l.names[c] for c in basis.pivots), brackets)


def _canonical_algebra(l: LieAlgebra, basis: Subspace, read) -> LieAlgebra:
    # The canonical algebra of basis's table, built once per distinct table.
    table = _table(l, basis, read)
    return l._memoized(("table", basis.dim, table), lambda: canonical(_algebra(l, basis, table)))


def algebra_on(l: LieAlgebra, u: Subspace) -> LieAlgebra:
    """The canonical algebra on the subalgebra u, kept in l's memo.

    u must be closed, which is not checked here: the public entry point
    that reaches this with a subspace of the caller's,
    ``structure.frattini_of_subalgebra``, checks it first; the suites
    pass listed subalgebras, and the classifier an ideal it has just
    checked.  Each bracket of u's canonical rows is a member of u, so
    its coordinates are its entries at u's pivots and no reduction runs.
    """
    return l._memoized(("on", u), lambda: _canonical_algebra(l, u, u.coords_raw))


def algebra_modulo(l: LieAlgebra, ideal: Subspace) -> LieAlgebra:
    """The canonical algebra l/ideal, kept in l's memo.  ideal must be an
    ideal, which is not checked here; the table is :meth:`quotient`'s."""

    return l._memoized(
        ("modulo", ideal), lambda: _canonical_algebra(l, ideal.complement(), ideal.modulo_raw)
    )


def derived_subspace(l: LieAlgebra) -> Subspace:
    """[L, L], kept in l's memo.

    It is the span of the structure constants [e_i, e_j], i < j, so it
    is read off the table with no bracket.
    """
    return l._memoized(
        "derived",
        lambda: Subspace.from_raw(
            l.field, l.dim, [l._dense(s) for i, row in enumerate(l._ad) for s in row[i + 1 :] if s]
        ),
    )


def restricted_algebra(l: LieAlgebra, u: Subspace):
    """``l.restrict(u)``, made once per (value of l, u)."""
    return l._memoized(("restricted", u), lambda: l.restrict(u))


def quotient_algebra(l: LieAlgebra, ideal: Subspace):
    """``l.quotient(ideal)``, made once per (value of l, ideal)."""
    return l._memoized(("quotient", ideal), lambda: l.quotient(ideal))


def is_solvable(l: LieAlgebra, subspace: Subspace | None = None) -> bool:
    """Solvability of L, or of a subalgebra's intrinsic algebra.

    A subspace that is not closed raises NotSubalgebra; the zero
    subspace is solvable before any check.  A subalgebra of a solvable L
    is solvable; otherwise its derived series runs on its structure
    table, in its own coordinates, and the verdict is kept in L's memo
    once per distinct table.
    """
    if subspace is None:
        return l._memoized("solvable", lambda: l.derived_series().terms[-1].dim == 0)
    if subspace.dim == 0:
        return True
    _require_closed(l, subspace)
    return _solvable_on(l, subspace)


def is_nilpotent(l: LieAlgebra, subspace: Subspace | None = None) -> bool:
    """Nilpotency of L, or of a subalgebra's intrinsic algebra.

    A subspace that is not closed raises NotSubalgebra; the zero
    subspace is nilpotent before any check.  A subalgebra of a nilpotent L
    is nilpotent; otherwise its lower central series runs on its structure
    table, in its own coordinates, and the verdict is kept in L's memo
    once per distinct table.
    """
    if subspace is None:
        return l._memoized("nilpotent", lambda: l.lower_central_series().terms[-1].dim == 0)
    if subspace.dim == 0:
        return True
    _require_closed(l, subspace)
    return _nilpotent_on(l, subspace)


def _require_closed(l: LieAlgebra, u: Subspace, why="restriction to a subspace that is not closed"):
    # The check of the public forms: u is a subspace of L and closed.  The
    # one place, but for the reader of restrict, where a subspace that is
    # not closed raises NotSubalgebra, with the caller's message.
    if not l.is_subalgebra(u):
        raise NotSubalgebra(why)


def _solvable_on(l: LieAlgebra, u: Subspace) -> bool:
    # is_solvable(l, u) for a closed u, without the check: every
    # subalgebra of a solvable L is solvable, and so is every u of dim <= 2.
    return u.dim <= 2 or is_solvable(l) or _reaches_zero(l, u, "derived")


def _nilpotent_on(l: LieAlgebra, u: Subspace) -> bool:
    # is_nilpotent(l, u) for a closed u, without the check: every
    # subalgebra of a nilpotent L is nilpotent.  A u of dimension 2 is
    # nilpotent exactly when abelian (see _reaches_zero), by its one
    # bracket, as the listing kept it.
    if u.dim < 2 or is_nilpotent(l):
        return True
    if u.dim == 2:
        return not any(next(_pair_brackets(l, u.rows)))
    return _reaches_zero(l, u, "lower_central")


def _reaches_zero(l: LieAlgebra, u: Subspace, kind: str) -> bool:
    # Whether the series ``kind`` of the closed u, in u's own coordinates,
    # reaches 0.  It is decided on u's structure table, once per distinct
    # table, the verdict kept in l's memo.  Both series go on from [u, u],
    # the span of the table, so an abelian u is both and a u = [u, u] is
    # neither.  A nonzero [u, u] of codimension 1 rules out nilpotency:
    # then u = Fx + [u, u], so [u, u] <= [x, [u, u]] + [[u, u], [u, u]]
    # <= [u, [u, u]] and the lower central series stops at [u, u].
    # So does a nonzero tr ad_u(r_a) = sum_b [r_a, r_b]_b, read off the
    # table in O(d^2): ad maps of a nilpotent u are nilpotent.  Otherwise
    # the series loop runs from [u, u] on a bare algebra of the table,
    # neither canonical nor memoized.
    p, d = l.field.p, u.dim
    table = _table(l, u, u.coords_raw)

    def decide() -> bool:
        if kind == "lower_central":
            traces = [0] * d
            for (a, b), v in zip(itertools.combinations(range(d), 2), table):
                traces[a] += v[b]
                traces[b] -= v[a]
            if any(t if p is None else t % p for t in traces):
                return False
        rows, pivots = raw_rref(p, table, d)
        if not rows or len(rows) == d:
            return not rows
        if kind == "lower_central" and len(rows) == d - 1:
            return False
        return not _algebra(l, u, table)._series_rows(kind, rows, pivots)[-1][0]

    return l._memoized((kind, d, table), decide)
