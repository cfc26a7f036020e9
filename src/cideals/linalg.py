"""Exact dense linear algebra: matrices, canonical subspaces, kernels.

Vectors are plain tuples of :class:`~cideals.fields.Scalar`.  A
:class:`Subspace` always stores its reduced-row-echelon basis, so two
subspaces are equal exactly when they are the same set of vectors and
every subspace has one canonical representation.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    AmbientMismatch,
    DimensionMismatch,
    FieldMismatch,
    NotSquare,
)
from .fields import Field, Scalar


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


def add_vectors(u: tuple, v: tuple) -> tuple:
    if len(u) != len(v):
        raise DimensionMismatch(f"vector lengths {len(u)} and {len(v)}")
    return tuple(a + b for a, b in zip(u, v))


def scale_vector(c: Scalar, v: tuple) -> tuple:
    return tuple(c * a for a in v)


def vector_is_zero(v: tuple) -> bool:
    return not any(v)


def vector_text(v: tuple) -> str:
    """Canonical comma-separated form, e.g. ``"1,0,-1/2"``."""
    return ",".join(s.text() for s in v)


def parse_vector(field: Field, n: int, text: str) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise DimensionMismatch(f"expected {n} coordinates, got {len(parts)}")
    return tuple(field.scalar(p) for p in parts)


def _scalar_key(s: Scalar):
    v = s.value
    return (v.numerator, v.denominator) if isinstance(v, Fraction) else (v, 1)


# ---------------------------------------------------------------------------
# matrices

class Matrix:
    """An immutable dense matrix over a single field, row-major."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: Field, rows: int, cols: int, entries: tuple):
        if len(entries) != rows * cols:
            raise DimensionMismatch(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, field: Field, rows) -> "Matrix":
        rows = [tuple(field.scalar(x) for x in r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise DimensionMismatch("ragged rows")
        flat = tuple(x for r in rows for x in r)
        return cls(field, len(rows), ncols, flat)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        one, zero = field.one(), field.zero()
        flat = tuple(one if i == j else zero for i in range(n) for j in range(n))
        return cls(field, n, n, flat)

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        return cls(field, rows, cols, (field.zero(),) * (rows * cols))

    def entry(self, i: int, j: int) -> Scalar:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple:
        return self.entries[j :: self.cols]

    def transpose(self) -> "Matrix":
        flat = tuple(self.entry(i, j) for j in range(self.cols) for i in range(self.rows))
        return Matrix(self.field, self.cols, self.rows, flat)

    def trace(self) -> Scalar:
        if self.rows != self.cols:
            raise NotSquare(f"trace of {self.rows}x{self.cols} matrix")
        acc = self.field.zero()
        for i in range(self.rows):
            acc = acc + self.entry(i, i)
        return acc

    def __add__(self, other):
        self._same_shape(other)
        flat = tuple(a + b for a, b in zip(self.entries, other.entries))
        return Matrix(self.field, self.rows, self.cols, flat)

    def __sub__(self, other):
        self._same_shape(other)
        flat = tuple(a - b for a, b in zip(self.entries, other.entries))
        return Matrix(self.field, self.rows, self.cols, flat)

    def __neg__(self):
        return Matrix(self.field, self.rows, self.cols, tuple(-a for a in self.entries))

    def scale(self, c: Scalar) -> "Matrix":
        return Matrix(self.field, self.rows, self.cols, tuple(c * a for a in self.entries))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise FieldMismatch("matrix product across fields")
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        zero = self.field.zero()
        out = []
        for i in range(self.rows):
            r = self.row(i)
            for j in range(other.cols):
                acc = zero
                for k in range(self.cols):
                    a = r[k]
                    if a:
                        acc = acc + a * other.entry(k, j)
                out.append(acc)
        return Matrix(self.field, self.rows, other.cols, tuple(out))

    def mul_vector(self, v: tuple) -> tuple:
        if len(v) != self.cols:
            raise DimensionMismatch(f"{self.rows}x{self.cols} matrix times length-{len(v)} vector")
        zero = self.field.zero()
        out = []
        for i in range(self.rows):
            acc = zero
            r = self.row(i)
            for k in range(self.cols):
                if r[k] and v[k]:
                    acc = acc + r[k] * v[k]
            out.append(acc)
        return tuple(out)

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise DimensionMismatch("vstack with different column counts")
        if self.field != other.field:
            raise FieldMismatch("vstack across fields")
        return Matrix(self.field, self.rows + other.rows, self.cols, self.entries + other.entries)

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
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(vector_text(self.row(i)) for i in range(self.rows))
        return f"Matrix({self.field}, {self.rows}x{self.cols}: {body})"


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form with zero rows dropped.

    Returns ``(R, pivots)`` where ``pivots`` are the pivot column
    indices in increasing order.  The row space is preserved exactly.
    """
    rows = [list(m.row(i)) for i in range(m.rows)]
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(m.cols):
        pr = None
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        lead = rows[r][c]
        if lead.value != 1:
            inv = lead.inverse()
            rows[r] = [inv * x for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    flat = tuple(x for row in rows[:r] for x in row)
    return Matrix(m.field, r, m.cols, flat), tuple(pivots)


def nullspace(m: Matrix) -> "Subspace":
    """The kernel of ``m`` as a subspace of F^cols."""
    red, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    zero, one = m.field.zero(), m.field.one()
    basis = []
    for f in free:
        vec = [zero] * m.cols
        vec[f] = one
        for r_idx, p in enumerate(pivots):
            vec[p] = -red.entry(r_idx, f)
        basis.append(tuple(vec))
    return Subspace.from_vectors(m.field, m.cols, basis)


def char_poly(m: Matrix) -> tuple[Scalar, ...]:
    """Monic characteristic polynomial of a square matrix.

    Coefficients are returned ascending: index k holds the coefficient
    of t**k, and the top coefficient is 1.  The matrix is reduced to
    upper Hessenberg form H by similarity, then the polynomials p_k of
    the leading k x k blocks of H follow from the Hessenberg recurrence.
    The only divisions are by nonzero pivots, so one path serves Q and
    every GF(p), whatever the characteristic.
    """
    if m.rows != m.cols:
        raise NotSquare(f"characteristic polynomial of {m.rows}x{m.cols} matrix")
    n = m.rows
    h = [list(m.row(i)) for i in range(n)]
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if h[i][j]), None)
        if piv is None:
            continue
        h[piv], h[j + 1] = h[j + 1], h[piv]
        for row in h:
            row[piv], row[j + 1] = row[j + 1], row[piv]
        inv = h[j + 1][j].inverse()
        for k in range(j + 2, n):
            u = h[k][j] * inv
            if u:  # row k -= u * row j+1, undone by column j+1 += u * column k
                h[k] = [a - u * b for a, b in zip(h[k], h[j + 1])]
                for row in h:
                    row[j + 1] = row[j + 1] + u * row[k]
    zero, one = m.field.zero(), m.field.one()
    polys = [[one]]
    for k in range(n):
        # p_{k+1} = t p_k - sum_{i<=k} H[i][k] H[i+1][i] ... H[k][k-1] p_i
        acc = [zero] + polys[k]
        sub = one
        for i in range(k, -1, -1):
            f = h[i][k] * sub
            for d, a in enumerate(polys[i]):
                acc[d] = acc[d] - f * a
            if i:
                sub = sub * h[i][i - 1]
        polys.append(acc)
    return tuple(polys[-1])


def eigenspace(m: Matrix, lam: Scalar) -> "Subspace":
    """Kernel of (m - lam * I)."""
    if m.rows != m.cols:
        raise NotSquare("eigenspace of a non-square matrix")
    if lam.field != m.field:
        raise FieldMismatch("eigenvalue from a different field")
    step = m.rows + 1
    shifted = tuple(a - lam if k % step == 0 else a for k, a in enumerate(m.entries))
    return nullspace(Matrix(m.field, m.rows, m.cols, shifted))


# ---------------------------------------------------------------------------
# subspaces

class Subspace:
    """A subspace of F^n held in canonical form.

    The basis is the unique RREF basis without zero rows, so ``==`` is
    set equality and instances hash consistently.
    """

    __slots__ = ("field", "ambient_dim", "basis", "pivots", "_hash")

    def __init__(self, field: Field, ambient_dim: int, basis: Matrix, pivots: tuple):
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.pivots = pivots
        self._hash = None

    @classmethod
    def from_vectors(cls, field: Field, ambient_dim: int, vectors) -> "Subspace":
        vectors = list(vectors)
        for v in vectors:
            if len(v) != ambient_dim:
                raise AmbientMismatch(f"vector of length {len(v)} in F^{ambient_dim}")
        m = Matrix(field, len(vectors), ambient_dim, tuple(x for v in vectors for x in v))
        red, pivots = rref(m)
        return cls(field, ambient_dim, red, pivots)

    @classmethod
    def span(cls, field: Field, ambient_dim: int, rows) -> "Subspace":
        """Like :meth:`from_vectors` but coercing ints/strings."""
        return cls.from_vectors(field, ambient_dim, [vector(field, r) for r in rows])

    @classmethod
    def zero(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, Matrix(field, 0, ambient_dim, ()), ())

    @classmethod
    def full(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls(
            field,
            ambient_dim,
            Matrix.identity(field, ambient_dim),
            tuple(range(ambient_dim)),
        )

    @property
    def dim(self) -> int:
        return self.basis.rows

    def vectors(self) -> tuple:
        return tuple(self.basis.row(i) for i in range(self.dim))

    def reduce(self, v: tuple) -> tuple:
        """Residual of v after eliminating this subspace's pivots.

        The residual is zero exactly when v lies in the subspace, and
        depends only on the coset v + (this subspace).
        """
        if len(v) != self.ambient_dim:
            raise AmbientMismatch(f"vector of length {len(v)} in F^{self.ambient_dim}")
        out = list(v)
        for r_idx, p in enumerate(self.pivots):
            c = out[p]
            if c:
                row = self.basis.row(r_idx)
                out = [a - c * b for a, b in zip(out, row)]
        return tuple(out)

    def __contains__(self, v) -> bool:
        return vector_is_zero(self.reduce(v))

    def __le__(self, other: "Subspace") -> bool:
        self._same_ambient(other)
        if self.dim > other.dim:
            return False
        return all(v in other for v in self.vectors())

    def __lt__(self, other: "Subspace") -> bool:
        return self.dim < other.dim and self.__le__(other)

    def __add__(self, other: "Subspace") -> "Subspace":
        self._same_ambient(other)
        return Subspace.from_vectors(
            self.field, self.ambient_dim, self.vectors() + other.vectors()
        )

    def __and__(self, other: "Subspace") -> "Subspace":
        self._same_ambient(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.field, self.ambient_dim)
        if self.dim == self.ambient_dim:
            return other
        if other.dim == self.ambient_dim:
            return self
        # Solve a*U - b*V = 0: columns are U's basis then V's negated basis.
        k1, k2 = self.dim, other.dim
        cols = []
        for v in self.vectors():
            cols.append(v)
        for v in other.vectors():
            cols.append(tuple(-x for x in v))
        stacked = Matrix(
            self.field,
            k1 + k2,
            self.ambient_dim,
            tuple(x for c in cols for x in c),
        ).transpose()
        combos = nullspace(stacked)
        mine = self.vectors()
        vecs = []
        for coeffs in combos.vectors():
            acc = zero_vector(self.field, self.ambient_dim)
            for c, u in zip(coeffs[:k1], mine):
                if c:
                    acc = add_vectors(acc, scale_vector(c, u))
            vecs.append(acc)
        return Subspace.from_vectors(self.field, self.ambient_dim, vecs)

    def complement_reps(self) -> tuple:
        """Standard basis vectors at the non-pivot columns.

        Together with this subspace they span the ambient space, and the
        choice is deterministic for a given subspace.
        """
        pivot_set = set(self.pivots)
        return tuple(
            standard_vector(self.field, self.ambient_dim, c)
            for c in range(self.ambient_dim)
            if c not in pivot_set
        )

    def sort_key(self):
        return (
            self.dim,
            self.pivots,
            tuple(_scalar_key(s) for s in self.basis.entries),
        )

    def _same_ambient(self, other):
        if not isinstance(other, Subspace):
            raise AmbientMismatch("not a subspace")
        if self.field != other.field:
            raise FieldMismatch(f"subspaces over {self.field} and {other.field}")
        if self.ambient_dim != other.ambient_dim:
            raise AmbientMismatch(
                f"ambient dimensions {self.ambient_dim} and {other.ambient_dim}"
            )

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field, self.ambient_dim, self.basis))
        return self._hash

    def __repr__(self):
        return f"<subspace dim {self.dim} of {self.field}^{self.ambient_dim}: {subspace_text(self)}>"


def subspace_text(u: Subspace) -> str:
    """Semicolon-joined basis vectors; the zero subspace prints as ``"0"``."""
    if u.dim == 0:
        return "0"
    return "; ".join(vector_text(v) for v in u.vectors())


def parse_subspace(field: Field, ambient_dim: int, text: str) -> Subspace:
    text = text.strip()
    if text in ("", "0"):
        return Subspace.zero(field, ambient_dim)
    vecs = [parse_vector(field, ambient_dim, part) for part in text.split(";")]
    return Subspace.from_vectors(field, ambient_dim, vecs)
