from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cideals import (
    BadParams,
    DivisionByZero,
    Field,
    FieldMismatch,
    FieldNotFinite,
    GF,
    Q,
    Scalar,
    ZeroPolynomial,
    catalog_algebras,
    char_poly,
    poly_eval,
    poly_roots_in_field,
)
from cideals.linalg import vector

from oracles import oracle_poly_roots, oracle_rational_roots

_ROOT_PRIMES = (2, 3, 5, 7, 101, 103)


def _times(a, b, p=None):
    # a * b on ascending raw coefficients, reduced mod p unless p is None
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out if p is None else [c % p for c in out]


def _times_linear(poly, r, p):
    # poly * (t - r)
    return _times(poly, [-r % p, 1], p)


def _root_free_quadratic(p):
    # t^2 + t + 1 over GF(2); t^2 - n for the least non-square n otherwise
    if p == 2:
        return [1, 1, 1]
    n = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)
    return [p - n, 0, 1]


class TestFieldConstruction:
    def test_q_is_infinite(self):
        assert Q.p is None
        assert not Q.is_finite
        assert str(Q) == "Q"

    def test_gf_smallest(self):
        f = GF(2)
        assert f.p == 2
        assert f.is_finite
        assert str(f) == "GF(2)"

    def test_gf_rejects_composite(self):
        with pytest.raises(BadParams):
            GF(4)
        with pytest.raises(BadParams):
            GF(1)
        with pytest.raises(BadParams):
            GF(0)

    def test_gf_large_prime_bound(self):
        assert GF(2**31 - 1).p == 2**31 - 1  # Mersenne prime at the cap
        with pytest.raises(BadParams):
            GF(2**31 + 11)

    def test_fields_compare_by_value(self):
        assert GF(5) == GF(5)
        assert GF(5) != GF(7)
        assert Q == Field()

    def test_elements_finite_only(self):
        assert [s.value for s in GF(3).elements()] == [0, 1, 2]
        with pytest.raises(FieldNotFinite):
            Q.elements()


# Values Field.raw cannot read, among them the non-finite Decimals.
_NOT_NUMBERS = {"None": None, "object": object(), "list": [1], "tuple": (1,), "dict": {}}
_NOT_NUMBERS.update((text, Decimal(text)) for text in ("NaN", "sNaN", "Infinity", "-Infinity"))


class TestScalarCoercion:
    def test_int_reduces_mod_p(self):
        assert GF(5).scalar(7).value == 2
        assert GF(5).scalar(-1).value == 4

    def test_string_fraction_over_q(self):
        s = Q.scalar("3/4")
        assert s.value == Fraction(3, 4)
        assert s.text() == "3/4"

    def test_string_over_gf_must_be_integral(self):
        assert GF(7).scalar("10").value == 3
        assert GF(7).scalar("-1").value == 6
        with pytest.raises(BadParams):
            GF(7).scalar("1/2")  # residue text must be an integer

    def test_float_rejected(self):
        with pytest.raises(BadParams):
            Q.scalar(0.5)

    def test_scalar_passthrough(self):
        s = Q.scalar(2)
        assert Q.scalar(s) is s

    def test_cross_field_scalar_rejected(self):
        with pytest.raises(FieldMismatch):
            GF(5).scalar(GF(7).scalar(1))

    @pytest.mark.parametrize("value", [Fraction(1, 2), Fraction(7, 3), Decimal("2.5")], ids=str)
    def test_non_integral_rational_has_no_residue(self, value):
        # as "1/2" has none: no entry point truncates it to an integer
        f = GF(5)
        with pytest.raises(BadParams):
            f.scalar(value)
        with pytest.raises(BadParams):
            Scalar(f, value)
        with pytest.raises(BadParams):
            vector(f, (1, value))

    @pytest.mark.parametrize("value", [Fraction(4, 2), Decimal("2"), Decimal("7.0"), "12"], ids=str)
    def test_integral_values_reduce(self, value):
        f = GF(5)
        assert f.scalar(value).value == 2
        assert Scalar(f, value).value == 2
        assert vector(f, (value, 1)) == (f.scalar(2), f.one())

    def test_raw_values(self):
        assert [GF(5).raw(x) for x in (7, -1, Fraction(8, 2), "3", GF(5).scalar(4))] == [2, 4, 4, 3, 4]
        out = [Q.raw(x) for x in (2, Fraction(4, 2), Decimal("3"), "5", Q.scalar(6), "3/4", Decimal("0.5"))]
        assert out == [2, 2, 3, 5, 6, Fraction(3, 4), Fraction(1, 2)]
        assert [type(x) for x in out] == [int] * 5 + [Fraction] * 2
        assert type(Q.scalar(2).value) is Fraction and type(Scalar(Q, "4/2").value) is Fraction

    def test_raw_refuses(self):
        for field in (Q, GF(5)):
            for bad in (0.5, 2.0, "x", "1/0"):
                with pytest.raises(BadParams):
                    field.raw(bad)
            with pytest.raises(FieldMismatch):
                field.raw(GF(7).scalar(1))

    @pytest.mark.parametrize("field", [Q, GF(2), GF(5)], ids=str)
    @pytest.mark.parametrize("bad", list(_NOT_NUMBERS.values()), ids=list(_NOT_NUMBERS))
    def test_raw_refuses_what_is_not_a_number(self, field, bad):
        with pytest.raises(BadParams):
            field.raw(bad)
        with pytest.raises(BadParams):
            field.scalar(bad)


class TestScalarArithmetic:
    def test_basic_ops_gf(self):
        f = GF(5)
        a, b = f.scalar(3), f.scalar(4)
        assert (a + b).value == 2
        assert (a - b).value == 4
        assert (a * b).value == 2
        assert (a / b).value == 2  # 4 * 2 = 8 = 3
        assert (-a).value == 2

    def test_basic_ops_q(self):
        a, b = Q.scalar("1/2"), Q.scalar("1/3")
        assert (a + b).value == Fraction(5, 6)
        assert (a * b).value == Fraction(1, 6)
        assert (a / b).value == Fraction(3, 2)

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            Q.scalar(1) / Q.scalar(0)
        with pytest.raises(DivisionByZero):
            GF(3).scalar(2).inverse() and GF(3).scalar(0).inverse()

    def test_cross_field_ops_raise(self):
        with pytest.raises(FieldMismatch):
            GF(3).scalar(1) + GF(5).scalar(1)

    def test_bool_and_eq(self):
        assert not GF(3).scalar(0)
        assert GF(3).scalar(2)
        assert GF(3).scalar(2) != GF(5).scalar(2)
        assert Q.scalar(2) == Q.scalar("2")

    def test_hash_consistent(self):
        assert hash(GF(5).scalar(2)) == hash(GF(5).scalar(7))

    @given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
    def test_field_axioms_gf7(self, x, y, z):
        f = GF(7)
        a, b, c = f.scalar(x), f.scalar(y), f.scalar(z)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        assert a + f.zero() == a
        assert a * f.one() == a
        assert a + (-a) == f.zero()

    @given(st.integers(1, 6))
    def test_inverse_gf7(self, x):
        f = GF(7)
        a = f.scalar(x)
        assert a * a.inverse() == f.one()

    @given(st.fractions(max_denominator=20), st.fractions(max_denominator=20))
    def test_q_ring_ops_match_fraction(self, x, y):
        a, b = Q.scalar(x), Q.scalar(y)
        assert (a + b).value == x + y
        assert (a * b).value == x * y


class TestPolynomials:
    def test_poly_eval_horner(self):
        # 2 - 3t + t^2 at t = 5 is 12
        coeffs = (Q.scalar(2), Q.scalar(-3), Q.scalar(1))
        assert poly_eval(coeffs, Q.scalar(5)).value == 12

    def test_rational_roots_quadratic(self):
        # 2t^2 - 3t + 1 = (2t - 1)(t - 1)
        coeffs = (Q.scalar(1), Q.scalar(-3), Q.scalar(2))
        roots = poly_roots_in_field(coeffs)
        assert sorted(r.value for r in roots) == [Fraction(1, 2), Fraction(1)]

    def test_irrational_roots_absent(self):
        # t^2 - 2 has no rational roots
        coeffs = (Q.scalar(-2), Q.scalar(0), Q.scalar(1))
        assert poly_roots_in_field(coeffs) == set()

    def test_power_of_t(self):
        coeffs = (Q.scalar(0), Q.scalar(0), Q.scalar(0), Q.scalar(1))  # t^3
        roots = poly_roots_in_field(coeffs)
        assert [r.value for r in roots] == [0]

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomial):
            poly_roots_in_field((Q.scalar(0), Q.scalar(0)))

    def test_gf_roots_exhaustive(self):
        f = GF(5)
        # t^2 + 1 over GF(5): roots 2 and 3
        coeffs = (f.scalar(1), f.scalar(0), f.scalar(1))
        roots = poly_roots_in_field(coeffs)
        assert sorted(r.value for r in roots) == [2, 3]

    def test_gf_constant_no_roots(self):
        assert poly_roots_in_field((GF(3).scalar(2),)) == set()

    @given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
    def test_roots_actually_vanish_gf5(self, c0, c1, c2):
        f = GF(5)
        coeffs = (f.scalar(c0), f.scalar(c1), f.scalar(c2))
        if not any(c.value for c in coeffs):
            return
        for r in poly_roots_in_field(coeffs):
            assert not poly_eval(coeffs, r)

    @given(
        st.sampled_from(_ROOT_PRIMES),
        st.data(),
        st.sampled_from(("monic", "root_free", "scaled")),
    )
    def test_gf_roots_match_oracle(self, p, data, base):
        # Products of linear factors, repeats being multiplicities, on top
        # of 1, a root-free quadratic or a nonzero constant.
        roots = data.draw(st.lists(st.integers(0, p - 1), max_size=6), label="roots")
        if base == "monic":
            poly = [1]
        elif base == "root_free":
            poly = _root_free_quadratic(p)
        else:
            poly = [data.draw(st.integers(1, p - 1), label="scale")]
        for r in roots:
            poly = _times_linear(poly, r, p)
        field = GF(p)
        coeffs = tuple(field.scalar(c) for c in poly)
        got = poly_roots_in_field(coeffs)
        assert got == oracle_poly_roots(coeffs)
        assert {r.value for r in got} == set(roots)

    @pytest.mark.parametrize("p", _ROOT_PRIMES)
    def test_gf_root_free(self, p):
        f = GF(p)
        quad = _root_free_quadratic(p)
        for poly in (quad, _times(quad, quad, p)):
            coeffs = tuple(f.scalar(c) for c in poly)
            assert poly_roots_in_field(coeffs) == set() == oracle_poly_roots(coeffs)

    @pytest.mark.parametrize("p", _ROOT_PRIMES)
    def test_gf_root_zero(self, p):
        f = GF(p)
        for poly in ([0, 1], [0, 0, 0, 1], [0] + _root_free_quadratic(p), [0, 0, 5 % p or 1, 1]):
            coeffs = tuple(f.scalar(c) for c in poly)
            got = poly_roots_in_field(coeffs)
            assert f.zero() in got
            assert got == oracle_poly_roots(coeffs)

    @pytest.mark.parametrize("p", (3, 5, 7, 11, 13))
    def test_gf_every_element_a_root(self, p):
        # t^p - t splits into all p linear factors
        f = GF(p)
        coeffs = tuple(f.scalar(c) for c in [0, p - 1] + [0] * (p - 2) + [1])
        assert poly_roots_in_field(coeffs) == set(f.elements())

    @pytest.mark.parametrize("p", (1000003, 2**31 - 1))
    def test_large_prime_roots(self, p):
        # (t - 1)(t - 2)(t + 1) t^2 (t^2 - n), n a non-square
        f = GF(p)
        poly = _root_free_quadratic(p)
        for r in (1, 2, p - 1, 0, 0):
            poly = _times_linear(poly, r, p)
        coeffs = tuple(f.scalar(c) for c in poly)
        roots = poly_roots_in_field(coeffs)
        assert roots == {f.scalar(r) for r in (0, 1, 2, p - 1)}
        assert all(not poly_eval(coeffs, r) for r in roots)


# Small enough that the oracle's divisor search stays quick.
_RATIONALS = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 8))


class TestRationalRoots:
    @given(
        st.lists(_RATIONALS, max_size=5),
        st.sampled_from(("monic", "irreducible", "scaled")),
        st.data(),
    )
    def test_rational_roots_match_oracle(self, roots, base, data):
        # Products of linear factors, repeats being multiplicities and 0
        # among the roots, on top of 1, an irreducible quadratic or a
        # nonzero rational constant.
        if base == "monic":
            poly = [Fraction(1)]
        elif base == "irreducible":
            # (2t + b)^2 + c with c > 0 has no real root
            b = data.draw(st.integers(-5, 5), label="b")
            c = data.draw(st.integers(1, 9), label="c")
            poly = [Fraction(b * b + c), Fraction(4 * b), Fraction(4)]
        else:
            poly = [data.draw(_RATIONALS.filter(bool), label="scale")]
        for r in roots:
            poly = _times(poly, [-r, 1])
        coeffs = tuple(Q.scalar(c) for c in poly)
        got = poly_roots_in_field(coeffs)
        assert got == oracle_rational_roots(coeffs)
        assert {r.value for r in got} == set(roots)

    @given(
        _RATIONALS.filter(bool),
        st.integers(0, 3),
        st.integers(1, 3),
        _RATIONALS.filter(bool),
    )
    def test_linear_squarefree_part_matches_oracle(self, r, zeros, power, scale):
        # c t^k (t - r)^m, as t^k (t - 1) and (t + 1)^2: one nonzero root
        poly = [scale]
        for _ in range(zeros):
            poly = _times(poly, [0, 1])
        for _ in range(power):
            poly = _times(poly, [-r, 1])
        coeffs = tuple(Q.scalar(c) for c in poly)
        got = poly_roots_in_field(coeffs)
        assert got == oracle_rational_roots(coeffs)
        assert {s.value for s in got} == ({r, 0} if zeros else {r})

    def test_catalog_char_polys_match_oracle(self):
        for name, l in catalog_algebras(Q):
            for x in l.basis():
                coeffs = char_poly(l.ad_matrix(x))
                assert poly_roots_in_field(coeffs) == oracle_rational_roots(coeffs), name

    def test_large_roots_found_by_lifting(self):
        # (t + 10^40 + 121)(t - 3)(t^2 + 1): far past any divisor search
        e = 10**40 + 121
        poly = _times(_times([e, 1], [-3, 1]), [1, 0, 1])
        roots = poly_roots_in_field(tuple(Q.scalar(c) for c in poly))
        assert roots == {Q.scalar(-e), Q.scalar(3)}
