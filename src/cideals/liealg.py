"""Lie algebras presented by structure constants.

An algebra is stored as a raw sparse structure tensor, [e_i, e_j] for
every ordered pair; antisymmetry is structural and the Jacobi identity
is checked by :meth:`LieAlgebra.validate`.  Subspaces, and their
coordinates in subalgebras and quotients, belong to
:class:`~cideals.linalg.Subspace`; this module adds the bracket-aware
constructions: products of subspaces, closures, series, centralizers
and transporters, quotients, restrictions and direct sums.  Quotients
and restrictions box Scalars only in the coordinate maps they return.
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
    standard_vector,
    vector_is_zero,
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
    flags, c-ideal verdicts, and per subspace the algebra on it or
    modulo it (:func:`algebra_on`, :func:`algebra_modulo`).
    """

    __slots__ = ("field", "dim", "names", "meta", "_ad", "_hash", "_memo")

    def __init__(self, field: Field, dim: int, names=None, brackets=None, meta=None):
        """``brackets`` maps pairs ``(i, j)`` with i < j to the coordinate
        sequence of [e_i, e_j]; missing pairs are zero.  Coordinates may
        be ints, Fractions, strings or Scalars.
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
            vec = tuple(field.scalar(c).value for c in coords)
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
        """[e_i, e_j] for any i, j."""
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
        return Matrix._from_raw(self.field, self.ad_matrix_raw(self._unbox_vector(x)), self.dim)

    def ad_matrix_raw(self, x) -> tuple:
        """The raw rows of :meth:`ad_matrix` for a raw row x, without checks."""
        units = _units(self.dim, range(self.dim))
        return tuple(zip(*(self.bracket_raw(x, e) for e in units)))

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
        pairs of rows a < b are bracketed, d(d - 1)/2 of them for d = dim u:
        [x, x] = 0 and [y, x] = -[x, y] add nothing to the span.
        """
        self._check_subspace(u)
        self._check_subspace(v)
        rows = u.rows
        if u == v:
            vecs = [self.bracket_raw(x, y) for a, x in enumerate(rows) for y in rows[a + 1 :]]
        else:
            vecs = [self.bracket_raw(x, y) for x in rows for y in v.rows]
        return Subspace.from_raw(self.field, self.dim, vecs)

    def is_subalgebra(self, u: Subspace) -> bool:
        """[u, u] <= u, stopping at the first bracket of basis rows outside u."""
        self._check_subspace(u)
        rows = u.rows
        return all(
            u.holds_raw(self.bracket_raw(rows[a], rows[b]))
            for a in range(len(rows))
            for b in range(a + 1, len(rows))
        )

    def is_ideal(self, u: Subspace) -> bool:
        """[L, u] <= u, stopping at the first [e_i, row] outside u."""
        self._check_subspace(u)
        if u.dim == self.dim:
            return True
        return all(
            u.holds_raw(self.ad_raw(i, r)) for i in range(self.dim) for r in u.rows
        )

    def _closed_is_ideal(self, u: Subspace) -> bool:
        # is_ideal for a u already known to be a subalgebra: L is u plus
        # the span of e_c over the non-pivot columns c of u, and [u, u] <= u,
        # so only those [e_c, row] are tried.
        pivots = u.pivots
        return all(
            u.holds_raw(self.ad_raw(c, r))
            for c in range(self.dim)
            if c not in pivots
            for r in u.rows
        )

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
        the term's rows (see :meth:`span_product`), and each lower
        central step every e_i with every row of the term.

        The lower central step brackets against the whole algebra, so
        for a proper starting subalgebra it descends through the ideal
        closure rather than the subalgebra's own central series; use
        :meth:`restrict` first for the intrinsic one.
        """
        if kind not in SERIES_KINDS:
            raise ValueError(f"unknown series kind {kind!r}")
        full = self.full_space()
        cur = full if start is None else start
        if start is not None:
            self._check_subspace(start)
            if not self.is_subalgebra(cur):
                raise NotSubalgebra("series must start at a subalgebra")
        terms = [cur]
        while True:
            if cur.dim == self.dim:
                nxt = derived_subspace(self)
            else:
                nxt = self.span_product(cur if kind == "derived" else full, cur)
            if nxt == cur:
                break
            terms.append(nxt)
            cur = nxt
        return SeriesResult(kind, tuple(terms))

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
        self._check_subspace(ideal)
        if not self.is_ideal(ideal):
            raise NotAnIdeal("quotient by a subspace that is not an ideal")
        comp = ideal.complement()
        field = self.field

        def modulo_raw(v) -> tuple:
            return comp.coords_raw(ideal.reduce_raw(v))

        def project(v: tuple) -> tuple:
            return _box(field, modulo_raw(ideal._unbox_vector(v)))

        def lift(w: tuple) -> tuple:
            if len(w) != comp.dim:
                raise DimensionMismatch(f"quotient vector of length {len(w)}, expected {comp.dim}")
            return _box(field, comp.from_coords_raw(_unbox(field, w)))

        return self._algebra_on(comp, modulo_raw), project, lift

    def restrict(self, subalgebra: Subspace):
        """The subalgebra as an algebra on its canonical basis.

        Returns ``(S, to_coords, from_coords)`` where ``to_coords`` maps
        a member of the subspace to its coordinates on the RREF basis
        (see :meth:`Subspace.coords`) and ``from_coords`` embeds back
        into L.

        Each pair of canonical rows a < b is bracketed once, d(d - 1)/2
        brackets for d = dim of the subspace: the bracket is checked to
        lie in the subspace, in the order :meth:`is_subalgebra` checks
        it, and its coordinates are the structure constants of S.  The
        first bracket outside raises NotSubalgebra.
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

        return self._algebra_on(subalgebra, read), to_coords, from_coords

    def _algebra_on(self, basis: Subspace, read) -> "LieAlgebra":
        # The algebra on the canonical rows of ``basis``, named after their
        # pivot columns; ``read`` gives the coordinates of each bracket.
        rows = basis.rows
        brackets = {}
        for a in range(len(rows)):
            for b in range(a + 1, len(rows)):
                vec = read(self.bracket_raw(rows[a], rows[b]))
                if any(vec):
                    brackets[(a, b)] = vec
        names = tuple(self.names[c] for c in basis.pivots)
        return LieAlgebra._from_raw(self.field, names, brackets)

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
    n, m = a.dim, b.dim
    field = a.field
    zero = field.zero()
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            vec = a.structure_vector(i, j)
            if not vector_is_zero(vec):
                brackets[(i, j)] = vec + (zero,) * m
    for i in range(m):
        for j in range(i + 1, m):
            vec = b.structure_vector(i, j)
            if not vector_is_zero(vec):
                brackets[(n + i, n + j)] = (zero,) * n + vec
    names = []
    seen = {}
    for nm in a.names + b.names:
        count = seen.get(nm, 0) + 1
        seen[nm] = count
        names.append(nm if count == 1 else f"{nm}_{count}")
    return LieAlgebra(field, n + m, names, brackets)


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


def algebra_on(l: LieAlgebra, u: Subspace) -> LieAlgebra:
    """The canonical algebra on the subalgebra u, kept in l's memo."""
    return l._memoized(("on", u), lambda: canonical(l.restrict(u)[0]))


def algebra_modulo(l: LieAlgebra, ideal: Subspace) -> LieAlgebra:
    """The canonical algebra l/ideal, kept in l's memo."""
    return l._memoized(("modulo", ideal), lambda: canonical(l.quotient(ideal)[0]))


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
    """Solvability of L, or of a subalgebra's intrinsic algebra."""
    if subspace is not None:
        if subspace.dim == 0:
            return True
        l = algebra_on(l, subspace)
    return l._memoized("solvable", lambda: l.derived_series().terms[-1].dim == 0)


def is_nilpotent(l: LieAlgebra, subspace: Subspace | None = None) -> bool:
    """Nilpotency of L, or of a subalgebra's intrinsic algebra."""
    if subspace is not None:
        if subspace.dim == 0:
            return True
        l = algebra_on(l, subspace)
    return l._memoized("nilpotent", lambda: l.lower_central_series().terms[-1].dim == 0)
