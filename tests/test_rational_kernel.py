"""The rational kernel against Gauss-Jordan elimination in Fractions only.

Over Q the library keeps a raw value as an int when it is integral and
as a Fraction otherwise.  The oracles in ``oracles.py`` do the same
linear algebra on Fractions alone; each test draws entries that mix
ints, integral Fractions and non-integral Fractions, fed both through
the Scalar boundary and straight in as raw rows, and asks for the same
answer and for raw values that are never floats.
"""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from cideals import LieAlgebra, Matrix, Q, Subspace, builtin, char_poly, nullspace, rref
from cideals.linalg import raw_char_poly, raw_rref

from oracles import (
    oracle_char_poly,
    oracle_intersection_q,
    oracle_kernel_q,
    oracle_quotient_coords_q,
    oracle_rref_q,
    oracle_transporter_q,
)

N = 4
VALUES = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-3, 3), st.integers(2, 4)),
)


def rows_of(n, min_size=0, max_size=N):
    return st.lists(st.lists(VALUES, min_size=n, max_size=n), min_size=min_size, max_size=max_size)


def raw_ok(rows) -> bool:
    return all(type(x) in (int, Fraction) for r in rows for x in r)


def matrix(rows) -> Matrix:
    return Matrix.from_rows(Q, [[Q.scalar(x) for x in r] for r in rows])


def space(rows, n=N) -> Subspace:
    # Straight from raw rows, so integral Fractions reach the kernel too.
    return Subspace.from_raw(Q, n, [tuple(r[:n]) for r in rows])


@given(rows_of(N, min_size=1))
def test_rref_and_nullspace(rows):
    red, pivots = rref(matrix(rows))
    assert (red.raw, pivots) == oracle_rref_q(rows, N)
    u = space(rows)
    assert (u.rows, u.pivots) == oracle_rref_q(rows, N)
    kernel = nullspace(matrix(rows))
    assert kernel.rows == oracle_kernel_q(rows, N)
    assert raw_ok(red.raw) and raw_ok(u.rows) and raw_ok(kernel.rows)


@given(rows_of(N, min_size=1))
def test_integral_values_come_out_as_ints(rows):
    # Eliminating against a row with a Fraction can leave an integral
    # Fraction; the kernel hands it on as an int.
    red, _ = raw_rref(None, rows, N)
    values = [x for r in red + space(rows).rows for x in r]
    assert not [x for x in values if type(x) is Fraction and x.denominator == 1]


@given(st.integers(1, N).flatmap(lambda n: rows_of(n, min_size=n, max_size=n)))
def test_char_poly(rows):
    coeffs = char_poly(matrix(rows))
    assert coeffs == oracle_char_poly(matrix(rows))
    assert all(type(s.value) is Fraction for s in coeffs)


@given(st.integers(1, N).flatmap(lambda n: rows_of(n, min_size=n, max_size=n)))
def test_raw_char_poly_gives_ints_when_integral(rows):
    # The Hessenberg reduction divides by pivots that may be Fractions;
    # an integral coefficient still comes back as an int.
    coeffs = raw_char_poly(None, rows)
    assert not [x for x in coeffs if type(x) is Fraction and x.denominator == 1]
    assert tuple(coeffs) == tuple(s.value for s in oracle_char_poly(matrix(rows)))


@given(rows_of(N), rows_of(N))
def test_sum_and_intersection(rows_u, rows_v):
    u, v = space(rows_u), space(rows_v)
    total, common = u + v, u & v
    assert total.rows == oracle_rref_q(rows_u + rows_v, N)[0]
    assert common.rows == oracle_intersection_q(rows_u, rows_v, N)
    assert raw_ok(total.rows) and raw_ok(common.rows)


@given(rows_of(N), rows_of(N), rows_of(N))
def test_modulo_and_preimage(rows_i, rows_u, rows_w):
    i, u = space(rows_i), space(rows_u)
    reduce, free = oracle_quotient_coords_q(rows_i, N)
    image = i.modulo(u)
    assert image.rows == oracle_rref_q([[reduce(r)[c] for c in free] for r in rows_u], len(free))[0]
    w = space(rows_w, len(free))
    lifts = [[r[free.index(c)] if c in free else 0 for c in range(N)] for r in w.rows]
    lifted = i.preimage(w)
    assert lifted.rows == oracle_rref_q(list(i.rows) + lifts, N)[0]
    assert raw_ok(image.rows) and raw_ok(lifted.rows)
    # Clearing I's rows against the lifts can leave an integral Fraction;
    # the preimage hands it on as an int.
    assert not [x for r in image.rows + lifted.rows for x in r if type(x) is Fraction and x.denominator == 1]


@given(
    st.dictionaries(
        st.tuples(st.integers(0, N - 1), st.integers(0, N - 1)).filter(lambda ij: ij[0] < ij[1]),
        st.lists(VALUES, min_size=N, max_size=N),
    ),
    rows_of(N, max_size=2),
    rows_of(N),
)
def test_transporter(brackets, rows_gens, rows_target):
    # The transporter is a linear solve for any bilinear bracket, so the
    # drawn tables need not satisfy the Jacobi identity.
    l = LieAlgebra(Q, N, brackets=brackets)
    gens, target = space(rows_gens), space(rows_target)
    got = l.transporter(gens, target)
    assert got.rows == oracle_transporter_q(l, gens.rows, target.rows)
    assert raw_ok(got.rows)


def test_integral_data_stays_on_ints():
    # What keeps rational algebras on int arithmetic: integral entries
    # in, unit pivots, and no Fraction made along the way.
    l = builtin("t", Q, 3)
    rows = [
        *rref(matrix([[1, 2, 3], [4, 5, 6]]))[0].raw,
        *nullspace(matrix([[1, 2, 3], [4, 5, 6]])).rows,
        *Subspace.full(Q, 3).rows,
        *(row for term in l.derived_series().terms for row in term.rows),
        *l.centre().rows,
    ]
    assert rows and all(type(x) is int for r in rows for x in r)
