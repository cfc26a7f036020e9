"""Exact scalar arithmetic over the rationals and over prime fields.

A :class:`Field` is either Q (``p is None``) or GF(p) for a word-sized
prime p.  A :class:`Scalar` wraps a ``fractions.Fraction`` over Q and an
int residue in ``[0, p)`` over GF(p); arithmetic never leaves the field
and mixing fields is a hard error.  Below the Scalars, a raw rational is
an int when it is integral and a Fraction otherwise (see
:mod:`cideals.linalg`); :func:`_qdiv` is its one division.

Every value from outside enters the raw kernel through :meth:`Field.raw`,
which refuses floats and, over GF(p), values that are not integers.  The
only true divisions in the package are :func:`_qdiv` and the
Fraction-typed ones in :func:`_monic` and :meth:`Scalar.inverse`, which
``tests/test_source.py`` checks on the source.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import (
    BadParams,
    DivisionByZero,
    FieldMismatch,
    FieldNotFinite,
    ZeroPolynomial,
)

_MAX_MODULUS = 2**31


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13):
        if n % q == 0:
            return n == q
    d = 17
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class Field:
    """The rationals (``p is None``) or the prime field GF(p)."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None:
            if not isinstance(self.p, int) or isinstance(self.p, bool):
                raise BadParams(f"modulus must be an int, got {self.p!r}")
            if not 2 <= self.p <= _MAX_MODULUS or not _is_prime(self.p):
                raise BadParams(f"modulus must be a prime <= 2**31, got {self.p}")

    @property
    def is_finite(self) -> bool:
        return self.p is not None

    def zero(self) -> "Scalar":
        return Scalar._make(self, 0 if self.p is not None else Fraction(0))

    def one(self) -> "Scalar":
        return Scalar._make(self, 1 if self.p is not None else Fraction(1))

    def raw(self, value):
        """The raw value of an int, Fraction, Decimal, decimal/fraction text
        or Scalar over this field: the residue over GF(p); over Q an int
        when integral and a Fraction otherwise.

        Raises BadParams on a float, on bad text, on a value that is not
        a number (a non-finite Decimal among them) and, over GF(p), on a
        value that is not an integer, and FieldMismatch on a Scalar over
        another field.
        """
        p = self.p
        if type(value) is int:
            return value if p is None else value % p
        if isinstance(value, Scalar):
            if value.field is not self and value.field != self:
                raise FieldMismatch(f"scalar over {value.field} used in {self}")
            return value.value if p is not None else _qraw(value.value)
        if isinstance(value, float):
            raise BadParams("floats are not exact; pass int, Fraction or text")
        if isinstance(value, str):
            text = value.strip()
            try:
                value = Fraction(text) if p is None else int(text, 10)
            except (ValueError, ZeroDivisionError):
                if p is None:
                    raise BadParams(f"bad rational text {text!r}") from None
                raise BadParams(f"bad residue text {text!r} for {self}") from None
        try:
            x = Fraction(value)
        except (TypeError, ValueError, OverflowError):
            raise BadParams(f"{value!r} is not a number of {self}") from None
        if p is None:
            return _qraw(x)
        if x.denominator != 1:
            raise BadParams(f"{value!r} is not an integer, so it has no residue in {self}")
        return x.numerator % p

    def scalar(self, value) -> "Scalar":
        """The Scalar of a value :meth:`raw` accepts; a Scalar over this
        field is returned as it is."""
        raw = self.raw(value)
        if isinstance(value, Scalar):
            return value
        return Scalar._make(self, raw if self.p is not None else Fraction(raw))

    def elements(self):
        """All field elements, in residue order.  Finite fields only."""
        if self.p is None:
            raise FieldNotFinite("cannot enumerate the rationals")
        return tuple(Scalar._make(self, k) for k in range(self.p))

    def __str__(self):
        return "Q" if self.p is None else f"GF({self.p})"


Q = Field()


def GF(p: int) -> Field:
    """The prime field with p elements."""
    return Field(p)


def _qraw(x):
    # The raw form of the rational x: the int when x is integral, else x.
    return x.numerator if x.denominator == 1 else x


def _qdiv(x, d):
    """x / d for raw rationals x and d != 0, as a raw rational.

    The one division on raw values: an int over an int would give a
    float, so an integral quotient comes back as an int and any other
    as a Fraction.
    """
    if type(x) is int and type(d) is int:
        return Fraction(x, d) if x % d else x // d
    return _qraw(x / d)


class Scalar:
    """An immutable field element.

    Over Q the value is a normalized Fraction; over GF(p) it is the int
    residue in ``[0, p)``.  Operators raise :class:`FieldMismatch` when
    the operands disagree on the field and :class:`DivisionByZero` on
    inversion of zero.
    """

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value):
        raw = field.raw(value)
        self.field = field
        self.value = raw if field.p is not None else Fraction(raw)

    @classmethod
    def _make(cls, field, value):
        # Internal fast path; `value` must already be normalized.
        s = object.__new__(cls)
        s.field = field
        s.value = value
        return s

    def __bool__(self):
        return self.value != 0

    def __add__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        f = self.field
        if f != other.field:
            raise FieldMismatch(f"{f} + {other.field}")
        v = self.value + other.value
        return Scalar._make(f, v if f.p is None else v % f.p)

    def __sub__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        f = self.field
        if f != other.field:
            raise FieldMismatch(f"{f} - {other.field}")
        v = self.value - other.value
        return Scalar._make(f, v if f.p is None else v % f.p)

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        f = self.field
        if f != other.field:
            raise FieldMismatch(f"{f} * {other.field}")
        v = self.value * other.value
        return Scalar._make(f, v if f.p is None else v % f.p)

    def __neg__(self):
        f = self.field
        return Scalar._make(f, -self.value if f.p is None else (-self.value) % f.p)

    def inverse(self) -> "Scalar":
        if not self.value:
            raise DivisionByZero(f"inverse of zero in {self.field}")
        f = self.field
        if f.p is None:
            return Scalar._make(f, 1 / self.value)
        return Scalar._make(f, pow(self.value, -1, f.p))

    def __truediv__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} / {other.field}")
        return self * other.inverse()

    def __eq__(self, other):
        return (
            isinstance(other, Scalar)
            and self.field == other.field
            and self.value == other.value
        )

    def __hash__(self):
        return hash((self.field.p, self.value))

    def text(self) -> str:
        """Canonical text form: ``"n"`` or ``"n/d"`` over Q, the residue over GF(p)."""
        return str(self.value)

    __str__ = text

    def __repr__(self):
        return f"Scalar({self.field}, {self.value})"


def poly_eval(coeffs, x: Scalar) -> Scalar:
    """Evaluate sum(coeffs[k] * t**k) at t = x by Horner's rule."""
    coeffs = list(coeffs)
    acc = x.field.zero()
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


# ---------------------------------------------------------------------------
# polynomials over GF(p) (Q when p is None) on raw coefficients, ascending,
# no trailing zeros

def _trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _monic(a: list, p) -> list:
    if p is None:
        inv = 1 / Fraction(a[-1])
        return [c * inv for c in a]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _divmod_monic(a, m: list, p) -> tuple[list, list]:
    # Quotient and remainder of a by the monic m.
    a = list(a)
    dm = len(m) - 1
    q = [0] * max(len(a) - dm, 0)
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] if p is None else a[i] % p
        if c:
            q[i - dm] = c
            for j in range(dm):
                a[i - dm + j] -= c * m[j]
    return q, _trim(a[:dm] if p is None else [c % p for c in a[:dm]])


def _mulmod(a: list, b: list, m: list, p: int) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _divmod_monic(out, m, p)[1]


def _powmod(base: list, e: int, m: list, p: int) -> list:
    # base**e mod the monic m (deg m >= 1), by repeated squaring.
    out = [1]
    while e:
        if e & 1:
            out = _mulmod(out, base, m, p)
        e >>= 1
        if e:
            base = _mulmod(base, base, m, p)
    return out


def _gcd(a: list, b: list, p) -> list:
    # The monic gcd; [] when both are zero.
    while b:
        b = _monic(b, p)
        a, b = b, _divmod_monic(a, b, p)[1]
    return _monic(a, p) if a else a


def _minus_power(a: list, k: int, p: int) -> list:
    # a - x**k
    a = a + [0] * (k + 1 - len(a))
    a[k] = (a[k] - 1) % p
    return _trim(a)


def _split_linear(g: list, p: int, out: list):
    # Append the roots of the monic g, a product of distinct x - r with
    # r != 0, so p is odd once deg g >= 2.  For each shift a, the roots r
    # with r + a a nonzero square are those of gcd(g, (x + a)^((p-1)/2) - 1).
    # Any two roots are told apart by (p-1)/2 of the shifts, so the loop
    # ends at a split.
    if len(g) == 2:
        out.append(-g[0] % p)
    if len(g) <= 2:
        return
    for a in range(1, p):
        d = _gcd(g, _minus_power(_powmod([a, 1], (p - 1) // 2, g, p), 0, p), p)
        if 1 < len(d) < len(g):
            _split_linear(d, p, out)
            _split_linear(_divmod_monic(g, d, p)[0], p, out)
            return
    raise AssertionError("internal error: no shift splits a product of linear factors")


def _gf_roots(f: list, p: int) -> list:
    # The roots in GF(p) of f (deg f >= 1): 0 if x | f, then the roots of
    # gcd(x^p - x, f / x^k), which has each nonzero root of f once.
    out = [0] if not f[0] else []
    low = 0
    while not f[low]:
        low += 1
    f = _monic(f[low:], p)
    if len(f) > 1:
        g = _gcd(f, _minus_power(_powmod([0, 1], p, f, p), 1, p), p)
        _split_linear(g, p, out)
    return out


def _horner(a: list, x):
    # a(x) on raw coefficients, unreduced.
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def poly_roots_in_field(coeffs) -> set[Scalar]:
    """Roots, inside the coefficient field, of sum(coeffs[k] * t**k).

    See :func:`raw_poly_roots`.  Raises ZeroPolynomial for an empty or
    all-zero coefficient list.
    """
    coeffs = list(coeffs)
    if not coeffs:
        raise ZeroPolynomial("no coefficients given")
    field = coeffs[0].field
    for c in coeffs[1:]:
        if c.field != field:
            raise FieldMismatch("polynomial coefficients from different fields")
    if not any(coeffs):
        raise ZeroPolynomial("the zero polynomial vanishes everywhere")
    return {Scalar(field, r) for r in raw_poly_roots(field.p, [c.value for c in coeffs])}


def raw_poly_roots(p, coeffs) -> set:
    """The roots in GF(p) (Q when p is None) of a nonzero polynomial given
    by raw coefficients, ascending, as raw values, without checks.

    The answer is complete and costs time polynomial in the degree and
    the bit length of p or of the coefficients.  Over GF(p), after the
    root 0 is taken out, the nonzero roots are those of
    g = gcd(t^p - t, f), with t^p reduced modulo f by repeated squaring,
    and g is split into its linear factors by
    gcd(g, (t + a)^((p-1)/2) - 1) for the shifts a = 1, 2, ...
    (Cantor-Zassenhaus with deterministic shifts).  Over Q the monic
    squarefree part h = f / gcd(f, f') is taken; when it is linear its
    root is read off, and otherwise it is scaled to the monic integer
    g(s) = a^d h(s/a), a the common denominator of h, whose rational
    roots are integers s = a t.  At the least prime q with g squarefree
    mod q the roots of g mod q come from the GF(q) finder; each is
    Newton-lifted mod q^2, q^4, ... until the modulus passes twice
    Cauchy's bound on |s|, and its symmetric residue is kept when it is
    an exact root.  Irrational and complex roots are absent, which is
    the correct contract for eigenvalue searches over Q.
    """
    coeffs = _trim(list(coeffs))
    if len(coeffs) == 1:
        return set()
    if p is not None:
        return set(_gf_roots(coeffs, p))
    low = next(k for k, c in enumerate(coeffs) if c)
    roots = {0} if low else set()
    if len(coeffs) - low == 1:
        return roots
    h = _monic(coeffs[low:], None)
    if len(h) > 2:  # a linear h is already squarefree
        h = _divmod_monic(h, _gcd(h, [k * c for k, c in enumerate(h)][1:], None), None)[0]
    if len(h) == 2:
        return roots | {_qraw(-h[0])}
    a = lcm(*(c.denominator for c in h))
    d = len(h) - 1
    g = [int(c * a ** (d - k)) for k, c in enumerate(h)]
    dg = [k * c for k, c in enumerate(g)][1:]
    bound = 2 * (1 + max(map(abs, g[:-1])))
    q = 2
    while not _is_prime(q) or len(_gcd([c % q for c in g], _trim([c % q for c in dg]), q)) > 1:
        q += 1
    for r in _gf_roots([c % q for c in g], q):
        m = q
        while m <= bound:
            m *= m
            r = (r - _horner(g, r) * pow(_horner(dg, r), -1, m)) % m
        s = r if 2 * r <= m else r - m
        if not _horner(g, s):
            roots.add(_qdiv(s, a))
    return roots
