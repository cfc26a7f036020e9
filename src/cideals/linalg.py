"""Exact dense linear algebra: matrices, canonical subspaces, kernels.

At the public boundary vectors are plain tuples of
:class:`~cideals.fields.Scalar`.  Inside, one raw-value kernel does all
the arithmetic: a raw value is an int residue in ``[0, p)`` over GF(p)
and over Q an int when it is integral and a ``Fraction`` otherwise, and
a raw row is a tuple of them.  So rational algebras with integral data
stay on int arithmetic; :func:`~cideals.fields._qdiv` is the one
division on raw values, and Scalars over Q still wrap Fractions.  Every row
in the library is a raw row: a :class:`Matrix` holds its entries as raw
rows and a :class:`Subspace` its reduced-row-echelon basis, so two
subspaces are equal exactly when they are the same set of vectors and
every subspace has one canonical representation.  A Scalar vector is
checked against the field once on entry, any other entry is made raw by
:meth:`~cideals.fields.Field.raw`, and Scalars are made again only where
a public function returns them.  The ``raw_*`` functions are the
kernel's forms of the public ones, without checks.

:class:`Subspace` owns the coordinates of subalgebras and quotients;
library code maps subspaces through them on raw rows and boxes nothing.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, mul, sub

from .errors import (
    AmbientMismatch,
    DimensionMismatch,
    FieldMismatch,
    NotSquare,
)
from .fields import Field, Scalar, _qdiv, _qraw


# ---------------------------------------------------------------------------
# vectors

def zero_vector(field: Field, n: int) -> tuple:
    return (field.zero(),) * n


def standard_vector(field: Field, n: int, i: int) -> tuple:
    one = field.one()
    zero = field.zero()
    return tuple(one if k == i else zero for k in range(n))


def vector(field: Field, coords) -> tuple:
    """Coerce a sequence of ints/Fractions/strings into a vector."""
    return tuple(field.scalar(c) for c in coords)


def vector_is_zero(v: tuple) -> bool:
    return not any(v)


def vector_text(v: tuple) -> str:
    """Canonical comma-separated form, e.g. ``"1,0,-1/2"``, of a vector
    of Scalars or of a raw row (a Scalar's text is its raw value's)."""
    return ",".join(str(x) for x in v)


def parse_vector(field: Field, n: int, text: str) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise DimensionMismatch(f"expected {n} coordinates, got {len(parts)}")
    return tuple(field.scalar(p) for p in parts)


# ---------------------------------------------------------------------------
# matrices

class Matrix:
    """An immutable dense matrix over a single field.

    The entries are held once, as raw rows (``raw``, a tuple of tuples of
    raw values).  Entries passed in are coerced through
    :meth:`~cideals.fields.Field.raw`; :meth:`entry`, :meth:`row`,
    :meth:`column` and :attr:`entries` box on the way out, and the
    arithmetic runs on the raw rows.
    """

    __slots__ = ("field", "rows", "cols", "raw")

    def __init__(self, field: Field, rows: int, cols: int, entries: tuple):
        """``entries`` lists the rows x cols entries row by row, as ints,
        Fractions, strings or Scalars over ``field``."""
        if len(entries) != rows * cols:
            raise DimensionMismatch(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        flat = tuple(map(field.raw, entries))
        self.field = field
        self.rows = rows
        self.cols = cols
        self.raw = tuple(tuple(flat[i * cols : (i + 1) * cols]) for i in range(rows))

    @classmethod
    def _from_raw(cls, field: Field, raw: tuple, cols: int) -> "Matrix":
        # The constructor without coercion or checks: ``raw`` is a tuple of
        # ``cols``-long tuples of normalized raw values.
        m = object.__new__(cls)
        m.field = field
        m.rows = len(raw)
        m.cols = cols
        m.raw = raw
        return m

    @classmethod
    def from_rows(cls, field: Field, rows) -> "Matrix":
        raw = tuple(tuple(map(field.raw, r)) for r in rows)
        ncols = len(raw[0]) if raw else 0
        if any(len(r) != ncols for r in raw):
            raise DimensionMismatch("ragged rows")
        return cls._from_raw(field, raw, ncols)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls._from_raw(field, _units(n, range(n)), n)

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        return cls._from_raw(field, ((0,) * cols,) * rows, cols)

    @property
    def entries(self) -> tuple:
        """Every entry, row by row, as Scalars."""
        return tuple(x for r in self.raw for x in _box(self.field, r))

    def entry(self, i: int, j: int) -> Scalar:
        return _box(self.field, (self.raw[i][j],))[0]

    def row(self, i: int) -> tuple:
        return _box(self.field, self.raw[i])

    def column(self, j: int) -> tuple:
        return _box(self.field, (r[j] for r in self.raw))

    def transpose(self) -> "Matrix":
        raw = tuple(zip(*self.raw)) if self.rows else ((),) * self.cols
        return Matrix._from_raw(self.field, raw, self.rows)

    def trace(self) -> Scalar:
        if self.rows != self.cols:
            raise NotSquare(f"trace of {self.rows}x{self.cols} matrix")
        p = self.field.p
        total = sum(r[i] for i, r in enumerate(self.raw))
        return _box(self.field, (total if p is None else total % p,))[0]

    def _elementwise(self, op, other) -> "Matrix":
        self._same_shape(other)
        p = self.field.p
        raw = tuple(_normalized(p, map(op, r, s)) for r, s in zip(self.raw, other.raw))
        return Matrix._from_raw(self.field, raw, self.cols)

    def __add__(self, other):
        return self._elementwise(add, other)

    def __sub__(self, other):
        return self._elementwise(sub, other)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c: Scalar) -> "Matrix":
        c = self.field.raw(c)
        p = self.field.p
        raw = tuple(_normalized(p, (c * a for a in r)) for r in self.raw)
        return Matrix._from_raw(self.field, raw, self.cols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise FieldMismatch("matrix product across fields")
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        p = self.field.p
        raw = tuple(_combination(p, r, other.raw, other.cols) for r in self.raw)
        return Matrix._from_raw(self.field, raw, other.cols)

    def mul_vector(self, v: tuple) -> tuple:
        if len(v) != self.cols:
            raise DimensionMismatch(f"{self.rows}x{self.cols} matrix times length-{len(v)} vector")
        columns = tuple(zip(*self.raw))
        return _box(self.field, _combination(self.field.p, _unbox(self.field, v), columns, self.rows))

    def _same_shape(self, other):
        if not isinstance(other, Matrix):
            raise DimensionMismatch("not a matrix")
        if self.field != other.field:
            raise FieldMismatch("matrix arithmetic across fields")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch")

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.raw == other.raw
        )

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.raw))

    def __repr__(self):
        body = "; ".join(vector_text(r) for r in self.raw)
        return f"Matrix({self.field}, {self.rows}x{self.cols}: {body})"


# ---------------------------------------------------------------------------
# the raw kernel: rows of raw values, one field check on the way in

def _units(n: int, columns) -> tuple:
    """The standard raw rows of length n with their 1 at the given columns."""
    return tuple(tuple(1 if k == c else 0 for k in range(n)) for c in columns)


def _normalized(p, values) -> tuple:
    return tuple(map(_qraw, values)) if p is None else tuple([x % p for x in values])


def _combination(p, w, rows, n: int) -> tuple:
    """sum_k w[k] * rows[k] for raw rows of length n, without checks."""
    if not rows:
        return (0,) * n
    sums = (sum(map(mul, w, column)) for column in zip(*rows))
    return tuple(sums) if p is None else tuple(s % p for s in sums)


def raw_dots(p, rows, v):
    """a . v for each raw row a, one at a time, normalized for GF(p) (Q
    when p is None, where a sum is an int when integral), without checks."""
    if p is None:
        return (_qraw(sum(map(mul, a, v))) for a in rows)
    return (sum(map(mul, a, v)) % p for a in rows)


def _unbox(field: Field, v) -> tuple:
    """The raw values of a vector of Scalars, integral rationals as ints.

    Raises FieldMismatch if any entry belongs to another field; this is
    the one field check a vector gets.  An entry's field object is
    compared by identity with the last one found equal to ``field``, so
    ``Field.__eq__`` runs once for each change of field object along
    the vector: once for a vector built over a copy of ``field``, and
    not at all for one built over ``field`` itself.
    """
    checked = field
    for s in v:
        f = s.field
        if f is not checked:
            if f != field:
                raise FieldMismatch(f"scalar over {f} used in {field}")
            checked = f
    if field.p is None:
        return tuple(_qraw(s.value) for s in v)
    return tuple(s.value for s in v)


def _box(field: Field, row) -> tuple:
    # Scalars over Q wrap Fractions, so an int raw value is wrapped first.
    make = Scalar._make
    if field.p is None:
        return tuple(make(field, Fraction(x)) for x in row)
    return tuple(make(field, x) for x in row)


def raw_rref(p, rows, ncols: int) -> tuple[tuple, tuple]:
    """Reduced row echelon form of raw rows over GF(p) (Q when p is None).

    Returns ``(rows, pivots)`` with zero rows dropped; the rows are
    tuples of raw values and ``pivots`` their pivot columns, increasing.
    Over Q, eliminating against a row with a Fraction can leave an
    integral Fraction; the returned values are ints when integral.
    """
    rows = [list(r) for r in rows]
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        row = rows[r]
        lead = row[c]
        if lead != 1:
            if p is None:
                row = [_qdiv(x, lead) for x in row]
            else:
                inv = pow(lead, -1, p)
                row = [x * inv % p for x in row]
            rows[r] = row
        for i in range(nrows):
            f = rows[i][c]
            if f and i != r:
                if p is None:
                    rows[i] = [a - f * b for a, b in zip(rows[i], row)]
                else:
                    rows[i] = [(a - f * b) % p for a, b in zip(rows[i], row)]
        pivots.append(c)
        r += 1
    if p is None:
        return tuple(tuple(map(_qraw, row)) for row in rows[:r]), tuple(pivots)
    return tuple(tuple(row) for row in rows[:r]), tuple(pivots)


def raw_kernel(field: Field, rows, ncols: int) -> "Subspace":
    """The kernel of the raw matrix ``rows`` as a subspace of F^ncols.

    One elimination: ``rows`` are reduced with their columns reversed,
    so each pivot is the last nonzero column of its row.  For each free
    column f the kernel vector e_f - sum_c row[f] e_c over the rows and
    their pivots c is nonzero only at f and at pivots after f, so it
    leads with 1 at f and is 0 at every other free column: sorted by f,
    these vectors are already the kernel's canonical rows.
    """
    p = field.p
    red, rpivots = raw_rref(p, [r[::-1] for r in rows], ncols)
    pivots = [ncols - 1 - c for c in rpivots]
    pivot_set = set(pivots)
    free = tuple(f for f in range(ncols) if f not in pivot_set)
    basis = []
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        for row, c in zip(red, pivots):
            x = row[ncols - 1 - f]
            if x:
                vec[c] = -x if p is None else p - x
        basis.append(tuple(vec))
    return Subspace(field, ncols, tuple(basis), free)


def raw_sum_and_meet(field: Field, u_rows, v_rows, n: int) -> tuple[int, Subspace]:
    """dim(U + V) and U ∩ V for the spans U, V of raw rows of length n,
    from one Zassenhaus elimination, without checks.

    In the rref of [[U, U], [V, 0]] the pivots before column n are those
    of U + V, and the rows with a later pivot have a zero left half and
    carry the canonical basis of U ∩ V in their right half.
    """
    pad = (0,) * n
    stacked = [r + r for r in u_rows] + [r + pad for r in v_rows]
    red, pivots = raw_rref(field.p, stacked, 2 * n)
    k = sum(c < n for c in pivots)
    return k, Subspace(field, n, tuple(r[n:] for r in red[k:]), tuple(c - n for c in pivots[k:]))


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form with zero rows dropped.

    Returns ``(R, pivots)`` where ``pivots`` are the pivot column
    indices in increasing order.  The row space is preserved exactly.
    """
    red, pivots = raw_rref(m.field.p, m.raw, m.cols)
    return Matrix._from_raw(m.field, red, m.cols), pivots


def nullspace(m: Matrix) -> "Subspace":
    """The kernel of ``m`` as a subspace of F^cols."""
    return raw_kernel(m.field, m.raw, m.cols)


def char_poly(m: Matrix) -> tuple[Scalar, ...]:
    """Monic characteristic polynomial of a square matrix.

    Coefficients are returned ascending: index k holds the coefficient
    of t**k, and the top coefficient is 1.  See :func:`raw_char_poly`.
    """
    if m.rows != m.cols:
        raise NotSquare(f"characteristic polynomial of {m.rows}x{m.cols} matrix")
    return _box(m.field, raw_char_poly(m.field.p, m.raw))


def raw_char_poly(p, rows) -> list:
    """The characteristic polynomial of the square raw matrix ``rows``
    over GF(p) (Q when p is None), ascending, without checks.

    The matrix is reduced to upper Hessenberg form H by similarity, then
    the polynomials p_k of the leading k x k blocks of H follow from the
    Hessenberg recurrence.  The only divisions are by nonzero pivots, so
    one path serves Q and every GF(p), whatever the characteristic.
    Over Q the coefficients are ints when integral.
    """
    h = [list(r) for r in rows]
    n = len(h)
    norm = (lambda x: x) if p is None else (lambda x: x % p)
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if h[i][j]), None)
        if piv is None:
            continue
        h[piv], h[j + 1] = h[j + 1], h[piv]
        for row in h:
            row[piv], row[j + 1] = row[j + 1], row[piv]
        lead = h[j + 1][j]
        inv = _qdiv(1, lead) if p is None else pow(lead, -1, p)
        for k in range(j + 2, n):
            u = norm(h[k][j] * inv)
            if u:  # row k -= u * row j+1, undone by column j+1 += u * column k
                h[k] = [norm(a - u * b) for a, b in zip(h[k], h[j + 1])]
                for row in h:
                    row[j + 1] = norm(row[j + 1] + u * row[k])
    polys = [[1]]
    for k in range(n):
        # p_{k+1} = t p_k - sum_{i<=k} H[i][k] H[i+1][i] ... H[k][k-1] p_i
        acc = [0] + polys[k]
        sub = 1
        for i in range(k, -1, -1):
            f = h[i][k] * sub
            for d, a in enumerate(polys[i]):
                acc[d] = norm(acc[d] - f * a)
            if i:
                sub = norm(sub * h[i][i - 1])
        polys.append(acc)
    return polys[-1] if p is not None else list(map(_qraw, polys[-1]))


def eigenspace(m: Matrix, lam: Scalar) -> "Subspace":
    """Kernel of (m - lam * I)."""
    if m.rows != m.cols:
        raise NotSquare("eigenspace of a non-square matrix")
    if lam.field != m.field:
        raise FieldMismatch("eigenvalue from a different field")
    return raw_eigenspace(m.field, m.raw, _unbox(m.field, (lam,))[0])


def raw_eigenspace(field: Field, rows, lam) -> "Subspace":
    """The kernel of (rows - lam * I) for a square raw matrix and a raw
    value lam, without checks."""
    p = field.p
    shifted = [
        r[:i] + ((r[i] - lam if p is None else (r[i] - lam) % p),) + r[i + 1 :]
        for i, r in enumerate(rows)
    ]
    return raw_kernel(field, shifted, len(rows))


# ---------------------------------------------------------------------------
# subspaces

class Subspace:
    """A subspace of F^n held in canonical form.

    Inside, ``rows`` is the unique reduced-row-echelon basis without
    zero rows, as tuples of raw values (int residues in ``[0, p)`` over
    GF(p); over Q ints when integral and Fractions otherwise), and
    ``pivots`` its pivot columns; this is the only copy of the basis.
    So ``==`` is set equality and instances hash consistently: an
    integral Fraction equals and hashes as its int.  At the boundary
    everything is Scalars, which over Q always wrap Fractions:
    :meth:`vectors`, :attr:`basis` and :meth:`reduce` box on request,
    and every Scalar vector passed in is checked against the field once.
    The hash and the non-pivot columns are made on first use and kept
    in the instance.
    """

    __slots__ = ("field", "ambient_dim", "rows", "pivots", "_hash", "_free")

    def __init__(self, field: Field, ambient_dim: int, rows: tuple, pivots: tuple):
        """``rows`` must already be canonical raw rows with pivot columns
        ``pivots``; use :meth:`from_vectors` or :meth:`from_raw` otherwise."""
        self.field = field
        self.ambient_dim = ambient_dim
        self.rows = rows
        self.pivots = pivots
        self._hash = None
        self._free = None

    @classmethod
    def from_raw(cls, field: Field, ambient_dim: int, rows) -> "Subspace":
        """The span of raw rows (values already normalized for the field)."""
        red, pivots = raw_rref(field.p, rows, ambient_dim)
        return cls(field, ambient_dim, red, pivots)

    @classmethod
    def from_vectors(cls, field: Field, ambient_dim: int, vectors) -> "Subspace":
        rows = []
        for v in vectors:
            if len(v) != ambient_dim:
                raise AmbientMismatch(f"vector of length {len(v)} in F^{ambient_dim}")
            rows.append(_unbox(field, v))
        return cls.from_raw(field, ambient_dim, rows)

    @classmethod
    def span(cls, field: Field, ambient_dim: int, rows) -> "Subspace":
        """Like :meth:`from_vectors` but coercing ints/strings."""
        return cls.from_vectors(field, ambient_dim, [vector(field, r) for r in rows])

    @classmethod
    def zero(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, (), ())

    @classmethod
    def full(cls, field: Field, ambient_dim: int) -> "Subspace":
        rows = _units(ambient_dim, range(ambient_dim))
        return cls(field, ambient_dim, rows, tuple(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def basis(self) -> Matrix:
        """The canonical basis as a matrix, one row per vector."""
        return Matrix._from_raw(self.field, self.rows, self.ambient_dim)

    def vectors(self) -> tuple:
        return tuple(_box(self.field, r) for r in self.rows)

    def reduce_raw(self, v) -> list:
        """:meth:`reduce` on a raw row, without checks."""
        p = self.field.p
        for row, c in zip(self.rows, self.pivots):
            f = v[c]
            if f:
                if p is None:
                    v = [a - f * b for a, b in zip(v, row)]
                else:
                    v = [(a - f * b) % p for a, b in zip(v, row)]
        return v

    def holds_raw(self, v) -> bool:
        """Membership of a raw row, without checks."""
        return not any(self.reduce_raw(v))

    def annihilator_raw(self) -> tuple:
        """Raw rows a_j, one for each non-pivot column j in increasing
        order, with this subspace the set of v where every a_j . v is 0:
        a_j is e_j minus row[j] times e_c over the canonical rows, c each
        row's pivot.  Without checks.

        a_j . v is the entry at j of :meth:`reduce_raw` (v), which is v[j]
        less v[c] * row[j] over the rows, so :func:`raw_dots` reads that
        residual one entry at a time.  Making the rows costs more than one
        reduction, so they pay off only for a subspace that many vectors
        are tested against.
        """
        p, n = self.field.p, self.ambient_dim
        out = []
        for j in self._free_columns():
            a = [0] * n
            a[j] = 1
            for row, c in zip(self.rows, self.pivots):
                a[c] = -row[j] if p is None else -row[j] % p
            out.append(tuple(a))
        return tuple(out)

    def _unbox_vector(self, v) -> tuple:
        if len(v) != self.ambient_dim:
            raise AmbientMismatch(f"vector of length {len(v)} in F^{self.ambient_dim}")
        return _unbox(self.field, v)

    def reduce(self, v: tuple) -> tuple:
        """Residual of v after eliminating this subspace's pivots.

        The residual is zero exactly when v lies in the subspace, and
        depends only on the coset v + (this subspace).
        """
        return _box(self.field, self.reduce_raw(self._unbox_vector(v)))

    def __contains__(self, v) -> bool:
        return self.holds_raw(self._unbox_vector(v))

    def __le__(self, other: "Subspace") -> bool:
        self._same_ambient(other)
        if other.dim == other.ambient_dim:
            return True
        # Every nonzero vector of other leads at one of other's pivots.
        if self.dim > other.dim or not set(self.pivots).issubset(other.pivots):
            return False
        return all(other.holds_raw(r) for r in self.rows)

    def __lt__(self, other: "Subspace") -> bool:
        return self.dim < other.dim and self.__le__(other)

    def __add__(self, other: "Subspace") -> "Subspace":
        self._same_ambient(other)
        if self.dim == 0 or other.dim == self.ambient_dim:
            return other
        if other.dim == 0 or self.dim == self.ambient_dim:
            return self
        return Subspace.from_raw(self.field, self.ambient_dim, self.rows + other.rows)

    def __and__(self, other: "Subspace") -> "Subspace":
        self._same_ambient(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.field, self.ambient_dim)
        if self.dim == self.ambient_dim:
            return other
        if other.dim == self.ambient_dim:
            return self
        return raw_sum_and_meet(self.field, self.rows, other.rows, self.ambient_dim)[1]

    def complement(self) -> "Subspace":
        """The span of the standard vectors at the non-pivot columns.

        It is a complement of this subspace, chosen deterministically,
        and its canonical rows are those standard vectors.
        """
        n = self.ambient_dim
        free = self._free_columns()
        return Subspace(self.field, n, _units(n, free), free)

    def _free_columns(self) -> tuple:
        # The non-pivot columns, increasing, made on first use.
        if self._free is None:
            pivots = set(self.pivots)
            self._free = tuple(c for c in range(self.ambient_dim) if c not in pivots)
        return self._free

    # -- coordinates, fixed here and nowhere else: a member of K has as
    # coordinates on K's canonical rows its entries at K's pivot columns;
    # F^n / I has the rows of I.complement() as basis, so v + I has the
    # coordinates of I.reduce(v) there, which modulo_raw alone reads.  The
    # raw maps do no checks.

    def coords_raw(self, v) -> tuple:
        """The coordinates of a member v on the canonical rows."""
        return tuple([v[c] for c in self.pivots])

    def from_coords_raw(self, w) -> tuple:
        """The member with coordinates w: the combination of the canonical rows."""
        return _combination(self.field.p, w, self.rows, self.ambient_dim)

    def modulo_raw(self, v) -> tuple:
        """The coordinates of v + I in F^n / I, with I this subspace: the
        entries of :meth:`reduce_raw` (v) at I's non-pivot columns."""
        r = self.reduce_raw(v)
        return tuple([r[c] for c in self._free_columns()])

    def coords(self, u: "Subspace") -> "Subspace":
        """A subspace u of this one, in the coordinates of its canonical rows.

        A u not inside this subspace raises AmbientMismatch.  u's pivots
        are among this subspace's, so u's coordinate rows are already
        canonical: each has its 1 at its pivot's place among this
        subspace's pivots and 0 at the other rows' places, and no
        elimination is run.
        """
        self._same_ambient(u)
        if not u <= self:
            raise AmbientMismatch("subspace outside the one whose coordinates it takes")
        place = {c: i for i, c in enumerate(self.pivots)}
        rows = tuple(self.coords_raw(r) for r in u.rows)
        return Subspace(self.field, self.dim, rows, tuple(place[c] for c in u.pivots))

    def from_coords(self, w: "Subspace") -> "Subspace":
        """The inverse of :meth:`coords`: w in F^dim carried back into F^n.

        The images of w's canonical rows are already canonical: each
        leads with 1 at this subspace's pivot for its row's pivot, and
        has 0 at the others' pivots because w is reduced, so no
        elimination is run.
        """
        self._same_ambient(w, self.dim)
        rows = tuple(self.from_coords_raw(r) for r in w.rows)
        return Subspace(self.field, self.ambient_dim, rows, tuple(self.pivots[c] for c in w.pivots))

    def modulo(self, u: "Subspace") -> "Subspace":
        """The image (u + I) / I of u in the quotient by this subspace I.

        The coordinates of v + I are :meth:`modulo_raw`'s.  No elimination
        is run for I = 0 (the image is u), for u = F^n (the whole quotient)
        and for I <= u: there the image has as canonical rows u's rows at
        the pivots that are not I's, read off.  Such a row is 0 at I's
        pivots, which are other pivots of u, so I does not reduce it and
        it keeps its leading 1 and its 0s at the other rows' pivots; u's
        rows at I's pivots lie in I plus their span.
        """
        self._same_ambient(u)
        if self.dim == 0:
            return u
        free = self._free_columns()
        if u.dim == self.ambient_dim:
            return Subspace.full(self.field, len(free))
        if self <= u:
            place = {c: q for q, c in enumerate(free)}
            kept = [(r, place[c]) for r, c in zip(u.rows, u.pivots) if c in place]
            rows = tuple(tuple(r[c] for c in free) for r, _ in kept)
            return Subspace(self.field, len(free), rows, tuple(q for _, q in kept))
        return Subspace.from_raw(self.field, len(free), list(map(self.modulo_raw, u.rows)))

    def preimage(self, w: "Subspace") -> "Subspace":
        """The preimage I + lift(w) in F^n of a subspace w of F^n / I, with
        I this subspace.

        For w the whole quotient that is F^n.  Otherwise each canonical
        row of w is lifted by :meth:`lift_raw` and the lifts merged with
        I's rows by :meth:`preimage_raw`; no elimination is run.  For
        I = 0 the lifts are w's rows and the merge keeps them.
        """
        self._same_ambient(w, self.ambient_dim - self.dim)
        if w.dim == w.ambient_dim:
            return Subspace.full(self.field, self.ambient_dim)
        rows, pivots = self.preimage_raw([self.lift_raw(r) for r in w.rows], w.pivots)
        return Subspace(self.field, self.ambient_dim, rows, pivots)

    def lift_raw(self, r) -> tuple:
        """The lift to F^n of a raw row r of F^n / I, with I this subspace:
        r's entries at I's non-pivot columns and 0 at I's pivots.  Without
        checks."""
        lift = [0] * self.ambient_dim
        for c, x in zip(self._free_columns(), r):
            lift[c] = x
        return tuple(lift)

    def preimage_raw(self, lifts, pivots) -> tuple[tuple, tuple]:
        """The canonical rows and pivots of the preimage of w, from the
        lifts of w's canonical rows and w's pivots.  Without checks.

        The lift of the row with pivot q leads with 1 at free[q], free
        being I's non-pivot columns, is 0 at the other lifts' pivots
        because w is reduced, and is 0 at I's pivots.  Each row of I is
        cleared at the lifts' pivots.  It keeps its 1 at its own pivot
        and its 0s at I's other pivots: a lift is subtracted only where
        the row is nonzero, at a pivot after the row's own, and the lift
        is 0 before that pivot and at I's pivots.  Every pivot column
        now has a single nonzero entry, so the two row sets, merged by
        pivot, are already canonical.
        """
        free = self._free_columns()
        at = [free[q] for q in pivots]
        if not self.rows:
            return tuple(lifts), tuple(at)
        p = self.field.p
        merged = dict(zip(at, lifts))
        for row, c in zip(self.rows, self.pivots):
            cleared = row
            for q, lift in zip(at, lifts):
                f = row[q]
                if f:
                    cleared = [a - f * b for a, b in zip(cleared, lift)]
            merged[c] = row if cleared is row else _normalized(p, cleared)
        order = sorted(merged)
        return tuple([merged[c] for c in order]), tuple(order)

    def sort_key(self):
        return (
            self.dim,
            self.pivots,
            tuple((x.numerator, x.denominator) for r in self.rows for x in r),
        )

    def _same_ambient(self, other, n: int | None = None):
        # Raise unless other is a subspace of F^n over this field, n being
        # this ambient dimension unless given (a quotient's or coordinates').
        if not isinstance(other, Subspace):
            raise AmbientMismatch("not a subspace")
        if self.field is not other.field and self.field != other.field:
            raise FieldMismatch(f"subspaces over {self.field} and {other.field}")
        n = self.ambient_dim if n is None else n
        if other.ambient_dim != n:
            raise AmbientMismatch(f"ambient dimensions {n} and {other.ambient_dim}")

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and (self.field is other.field or self.field == other.field)
            and self.ambient_dim == other.ambient_dim
            and self.rows == other.rows
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field, self.ambient_dim, self.rows))
        return self._hash

    def __repr__(self):
        return f"<subspace dim {self.dim} of {self.field}^{self.ambient_dim}: {subspace_text(self)}>"


def subspace_text(u: Subspace) -> str:
    """Semicolon-joined basis vectors; the zero subspace prints as ``"0"``."""
    if u.dim == 0:
        return "0"
    return "; ".join(vector_text(r) for r in u.rows)


def parse_subspace(field: Field, ambient_dim: int, text: str) -> Subspace:
    text = text.strip()
    if text in ("", "0"):
        return Subspace.zero(field, ambient_dim)
    vecs = [parse_vector(field, ambient_dim, part) for part in text.split(";")]
    return Subspace.from_vectors(field, ambient_dim, vecs)
