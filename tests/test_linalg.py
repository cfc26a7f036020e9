import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cideals import (
    AmbientMismatch,
    DimensionMismatch,
    FieldMismatch,
    GF,
    Matrix,
    NotSquare,
    Q,
    Subspace,
    builtin,
    char_poly,
    eigenspace,
    nullspace,
    parse_subspace,
    parse_vector,
    poly_roots_in_field,
    rref,
    subspace_text,
    vector_text,
)
from cideals import linalg

from oracles import (
    oracle_char_poly,
    oracle_intersection,
    oracle_kernel_p,
    oracle_kernel_q,
    oracle_preimage,
)


def mat(field, rows):
    return Matrix.from_rows(field, [[field.scalar(x) for x in row] for row in rows])


def vec(field, coords):
    return tuple(field.scalar(x) for x in coords)


class TestMatrix:
    def test_shapes_and_entries(self):
        m = mat(Q, [[1, 2, 3], [4, 5, 6]])
        assert (m.rows, m.cols) == (2, 3)
        assert m.entry(1, 2).value == 6
        assert [s.value for s in m.row(0)] == [1, 2, 3]
        assert [s.value for s in m.column(2)] == [3, 6]

    def test_matmul_identity(self):
        m = mat(GF(5), [[1, 2], [3, 4]])
        assert m @ Matrix.identity(GF(5), 2) == m
        sq = m @ m
        # [[1,2],[3,4]]^2 = [[7,10],[15,22]] = [[2,0],[0,2]] mod 5
        assert [[s.value for s in sq.row(i)] for i in range(2)] == [[2, 0], [0, 2]]

    def test_mul_vector(self):
        m = mat(Q, [[1, 2], [3, 4]])
        out = m.mul_vector(vec(Q, [1, 1]))
        assert [s.value for s in out] == [3, 7]

    def test_transpose_trace(self):
        m = mat(Q, [[1, 2], [3, 4]])
        assert m.transpose().entry(0, 1).value == 3
        assert m.trace().value == 5

    def test_trace_needs_square(self):
        with pytest.raises(NotSquare):
            mat(Q, [[1, 2, 3], [4, 5, 6]]).trace()

    def test_shape_mismatch(self):
        a = mat(Q, [[1, 2]])
        b = mat(Q, [[1, 2]])
        with pytest.raises(DimensionMismatch):
            a @ b

    def test_field_mismatch(self):
        a = mat(Q, [[1]])
        b = mat(GF(2), [[1]])
        with pytest.raises(FieldMismatch):
            a + b


class TestRref:
    def test_known_form(self):
        m = mat(Q, [[2, 4, 0], [1, 2, 1]])
        r, pivots = rref(m)
        assert pivots == (0, 2)
        assert [[s.value for s in r.row(i)] for i in range(r.rows)] == [
            [1, 2, 0],
            [0, 0, 1],
        ]

    def test_zero_rows_dropped(self):
        m = mat(Q, [[1, 1], [2, 2], [3, 3]])
        r, pivots = rref(m)
        assert r.rows == 1
        assert pivots == (0,)

    def test_idempotent(self):
        m = mat(GF(3), [[1, 2, 0], [2, 1, 1], [0, 0, 1]])
        r1, p1 = rref(m)
        r2, p2 = rref(r1)
        assert r1 == r2 and p1 == p2


class TestNullspace:
    def test_known_kernel(self):
        m = mat(Q, [[1, 2, 3]])
        ker = nullspace(m)
        assert ker.dim == 2
        for v in ker.vectors():
            out = m.mul_vector(v)
            assert all(not s for s in out)

    def test_invertible_kernel_zero(self):
        m = mat(GF(5), [[1, 1], [0, 1]])
        assert nullspace(m).dim == 0

    def test_zero_map_kernel_full(self):
        m = Matrix.zeros(Q, 2, 3)
        assert nullspace(m).dim == 3


_KERNEL_FIELDS = [GF(2), GF(3), GF(5), GF(2**31 - 1), Q]


def _oracle_kernel(field, rows, ncols):
    if field.p is None:
        return oracle_kernel_q(rows, ncols)
    return oracle_kernel_p(rows, ncols, field.p)


def _assert_kernel_matches_oracle(field, rows, ncols):
    expected = _oracle_kernel(field, rows, ncols)
    leads = tuple(next(c for c, x in enumerate(r) if x) for r in expected)
    for kernel in (
        linalg.raw_kernel(field, rows, ncols),
        nullspace(Matrix._from_raw(field, tuple(map(tuple, rows)), ncols)),
    ):
        assert kernel.rows == expected
        assert kernel.pivots == leads
        assert kernel == Subspace.from_raw(field, ncols, kernel.rows)


@st.composite
def _kernel_case(draw):
    field = draw(st.sampled_from(_KERNEL_FIELDS))
    ncols = draw(st.integers(0, 5))
    if field.p is None:
        entry = st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=3))
        norm = lambda x: x.numerator if x.denominator == 1 else x
    else:
        entry = st.sampled_from([0, 1, 2, field.p - 1, field.p // 2]).map(lambda x: x % field.p)
        norm = lambda x: x
    row = st.lists(entry, min_size=ncols, max_size=ncols).map(lambda r: tuple(map(norm, r)))
    return field, draw(st.lists(row, max_size=5)), ncols


class TestKernelOracle:
    """raw_kernel and nullspace give the rows and pivots of a from-scratch
    Gauss-Jordan kernel over GF(2), GF(3), GF(5), GF(2^31 - 1) and Q."""

    @pytest.mark.parametrize("field", _KERNEL_FIELDS, ids=str)
    def test_edge_cases(self, field):
        m = field.p - 1 if field.p else Fraction(-1, 2)
        cases = [
            ([], 3),  # no rows: the whole space
            ([(0, 0, 0)], 3),  # a zero row
            ([(0, 0, 0, 0)] * 3, 4),  # the zero matrix
            ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3),  # full rank
            ([(1, 1, 0), (0, 1, 1), (1, 0, m)], 3),
            ([(0, 1, m, 1), (0, 2 % (field.p or 3), 0, 1)], 4),
            ([(), ()], 0),  # ncols 0
            ([], 0),
        ]
        for rows, ncols in cases:
            _assert_kernel_matches_oracle(field, rows, ncols)
        assert linalg.raw_kernel(field, [], 3) == Subspace.full(field, 3)
        assert linalg.raw_kernel(field, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3).dim == 0

    @given(_kernel_case())
    def test_random_matrices(self, case):
        _assert_kernel_matches_oracle(*case)


class TestCharPoly:
    def test_companion_known(self):
        # companion of t^2 - t - 1
        m = mat(Q, [[0, 1], [1, 1]])
        coeffs = char_poly(m)
        assert [c.value for c in coeffs] == [-1, -1, 1]

    def test_diagonal(self):
        m = mat(Q, [[2, 0], [0, 3]])
        # (t-2)(t-3) = 6 - 5t + t^2
        assert [c.value for c in char_poly(m)] == [6, -5, 1]

    def test_small_characteristic_lift(self):
        # 3x3 over GF(2): the division-free path must handle p <= n
        m = mat(GF(2), [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        assert char_poly(m) == oracle_char_poly(m)

    def test_needs_square(self):
        with pytest.raises(NotSquare):
            char_poly(mat(Q, [[1, 2]]))

    def test_matches_oracle_random_q(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randrange(1, 5)
            m = mat(Q, [[Fraction(rng.randrange(-3, 4)) for _ in range(n)] for _ in range(n)])
            assert char_poly(m) == oracle_char_poly(m)

    def test_matches_oracle_random_gf(self):
        for p in (2, 3, 5, 101):
            rng = random.Random(100 + p)
            for _ in range(25):
                n = rng.randrange(1, 7)
                m = mat(GF(p), [[rng.randrange(p) for _ in range(n)] for _ in range(n)])
                assert char_poly(m) == oracle_char_poly(m)

    def test_cayley_hamilton(self):
        rng = random.Random(7)
        for _ in range(10):
            m = mat(Q, [[rng.randrange(-2, 3) for _ in range(3)] for _ in range(3)])
            coeffs = char_poly(m)
            acc = Matrix.zeros(Q, 3, 3)
            power = Matrix.identity(Q, 3)
            for c in coeffs:
                acc = acc + power.scale(c)
                power = power @ m
            assert acc == Matrix.zeros(Q, 3, 3)


class TestEigenspace:
    def test_known(self):
        m = mat(Q, [[2, 1], [0, 2]])
        e2 = eigenspace(m, Q.scalar(2))
        assert e2.dim == 1
        assert vec(Q, [1, 0]) in e2
        assert eigenspace(m, Q.scalar(3)).dim == 0

    def test_eigenvector_property(self):
        m = mat(GF(5), [[1, 2], [0, 3]])
        for lam in (GF(5).scalar(1), GF(5).scalar(3)):
            space = eigenspace(m, lam)
            assert space.dim >= 1
            for v in space.vectors():
                assert m.mul_vector(v) == tuple(lam * c for c in v)


class TestSubspace:
    def test_canonical_basis(self):
        u = Subspace.from_vectors(Q, 3, [vec(Q, [2, 4, 0]), vec(Q, [1, 2, 1])])
        assert u.dim == 2
        assert u.pivots == (0, 2)
        # basis is RREF rows
        assert [[s.value for s in v] for v in u.vectors()] == [[1, 2, 0], [0, 0, 1]]

    def test_equality_ignores_presentation(self):
        a = Subspace.from_vectors(Q, 2, [vec(Q, [1, 1]), vec(Q, [1, -1])])
        b = Subspace.from_vectors(Q, 2, [vec(Q, [1, 0]), vec(Q, [0, 1])])
        assert a == b
        assert hash(a) == hash(b)

    def test_span_coerces(self):
        u = Subspace.span(Q, 2, [[1, 2]])
        assert vec(Q, [2, 4]) in u

    def test_membership_and_reduce(self):
        u = Subspace.from_vectors(Q, 3, [vec(Q, [1, 0, 1])])
        assert vec(Q, [2, 0, 2]) in u
        assert vec(Q, [1, 1, 1]) not in u
        residual = u.reduce(vec(Q, [1, 1, 1]))
        assert [s.value for s in residual] == [0, 1, 0]

    def test_sum_and_intersection(self):
        a = Subspace.from_vectors(Q, 3, [vec(Q, [1, 0, 0]), vec(Q, [0, 1, 0])])
        b = Subspace.from_vectors(Q, 3, [vec(Q, [0, 1, 0]), vec(Q, [0, 0, 1])])
        assert (a + b).dim == 3
        meet = a & b
        assert meet.dim == 1
        assert vec(Q, [0, 1, 0]) in meet

    def test_containment_operators(self):
        small = Subspace.from_vectors(Q, 2, [vec(Q, [1, 0])])
        big = Subspace.full(Q, 2)
        assert small <= big
        assert small < big
        assert not big <= small

    def test_whole_space_holds_everything_with_no_reduction(self, monkeypatch):
        made = []
        reduce_raw = Subspace.reduce_raw
        monkeypatch.setattr(Subspace, "reduce_raw", lambda s, v: made.append(v) or reduce_raw(s, v))
        for field in (Q, GF(5)):
            full = Subspace.full(field, 3)
            for u in (Subspace.zero(field, 3), Subspace.span(field, 3, [[0, 1, 2], [0, 0, 1]]), full):
                assert u <= full
        assert made == []
        with pytest.raises(AmbientMismatch):
            Subspace.zero(Q, 2) <= Subspace.full(Q, 3)

    def test_complement(self):
        u = Subspace.from_vectors(Q, 3, [vec(Q, [1, 0, 2])])
        comp = u.complement()
        assert comp.dim == 2
        assert comp.vectors() == (vec(Q, [0, 1, 0]), vec(Q, [0, 0, 1]))
        assert (u + comp).dim == 3
        assert (u & comp).dim == 0

    def test_zero_and_full(self):
        z = Subspace.zero(GF(2), 3)
        f = Subspace.full(GF(2), 3)
        assert z.dim == 0 and f.dim == 3
        assert z <= f
        assert (z + f) == f
        assert (z & f) == z

    def test_ambient_mismatch(self):
        a = Subspace.zero(Q, 2)
        b = Subspace.zero(Q, 3)
        with pytest.raises(Exception):
            a + b

    def test_sort_key_orders_deterministically(self):
        a = Subspace.from_vectors(GF(2), 2, [vec(GF(2), [1, 0])])
        b = Subspace.from_vectors(GF(2), 2, [vec(GF(2), [0, 1])])
        ordered = sorted([b, a], key=Subspace.sort_key)
        assert ordered == sorted([a, b], key=Subspace.sort_key)

    @given(st.lists(st.lists(st.integers(0, 4), min_size=4, max_size=4), max_size=4),
           st.lists(st.lists(st.integers(0, 4), min_size=4, max_size=4), max_size=4))
    def test_grassmann_identity_gf5(self, rows_u, rows_v):
        f = GF(5)
        u = Subspace.from_vectors(f, 4, [vec(f, r) for r in rows_u])
        v = Subspace.from_vectors(f, 4, [vec(f, r) for r in rows_v])
        assert (u + v).dim + (u & v).dim == u.dim + v.dim

    @given(st.lists(st.lists(st.integers(0, 4), min_size=4, max_size=4), max_size=4),
           st.lists(st.lists(st.integers(0, 4), min_size=4, max_size=4), max_size=4))
    def test_intersection_matches_kernel_route_gf5(self, rows_u, rows_v):
        f = GF(5)
        u = Subspace.from_vectors(f, 4, [vec(f, r) for r in rows_u])
        v = Subspace.from_vectors(f, 4, [vec(f, r) for r in rows_v])
        assert u & v == oracle_intersection(u, v)

    @given(st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), max_size=4),
           st.lists(st.lists(st.fractions(-2, 2, max_denominator=3), min_size=4, max_size=4),
                    max_size=4))
    def test_intersection_matches_kernel_route_q(self, rows_u, rows_v):
        u = Subspace.from_vectors(Q, 4, [vec(Q, r) for r in rows_u])
        v = Subspace.from_vectors(Q, 4, [vec(Q, r) for r in rows_v])
        assert u & v == oracle_intersection(u, v)

    def test_wrong_field_scalars_rejected(self):
        u = Subspace.from_vectors(GF(5), 2, [vec(GF(5), [1, 2])])
        alien = vec(GF(7), [1, 2])
        with pytest.raises(FieldMismatch):
            Subspace.from_vectors(GF(5), 2, [alien])
        with pytest.raises(FieldMismatch):
            u.reduce(alien)
        with pytest.raises(FieldMismatch):
            alien in u

    def test_rational_entries_stay_fractions(self):
        l = builtin("t", Q, 2)
        u = Subspace.from_vectors(Q, 3, [vec(Q, [2, 4, 0]), vec(Q, [1, 2, 1])])
        v = Subspace.from_vectors(Q, 3, [vec(Q, [0, 3, 1])])
        m = mat(Q, [[1, 2, 0], [0, 1, 1], [1, 0, 3]])
        spaces = [
            u, v, u + v, u & v, Subspace.full(Q, 3),
            nullspace(mat(Q, [[1, 2, 3]])), eigenspace(m, Q.scalar(1)),
            l.span_product(l.full_space(), u), l.transporter(u, u), l.centre(),
        ]
        for w in spaces:
            for x in w.vectors():
                assert all(type(s.value) is Fraction for s in x)
        assert all(type(s.value) is Fraction for s in u.reduce(vec(Q, [3, 1, 1])))
        assert all(type(s.value) is Fraction for s in l.bracket(*u.vectors()))
        # Raw rationals are ints when integral; every Scalar made from
        # one still wraps a Fraction.
        scalars = [
            m.entry(1, 2), m.trace(), *m.row(0), *m.column(1), *m.entries,
            *m.mul_vector(vec(Q, [1, 2, 3])), *char_poly(m),
            *poly_roots_in_field(char_poly(mat(Q, [[2, 0], [0, 1]]))),
            *l.structure_vector(0, 2), *l.structure_vector(2, 0),
        ]
        assert all(type(s.value) is Fraction for s in scalars)

    # With ``inside`` the rows of u are combinations of v's rows, so
    # containment holds in about half the draws.  The examples pin
    # pivots that are not nested, (1,) against (0, 2) and (0, 2)
    # against (0, 1), and nested pivots with u inside v.
    @given(st.sampled_from([GF(2), GF(3), GF(5), Q]),
           st.lists(st.lists(st.integers(-2, 2), min_size=4, max_size=4), max_size=3),
           st.lists(st.lists(st.integers(-2, 2), min_size=4, max_size=4), max_size=4),
           st.booleans())
    @example(GF(3), [[0, 1, 0, 0]], [[1, 0, 0, 0], [0, 0, 1, 0]], False)
    @example(Q, [[1, 1, 0, 0], [0, 0, 1, 0]], [[1, 0, 0, 0], [0, 1, 0, 0]], False)
    @example(GF(2), [[1, 1, 1, 0]], [[1, 0, 1, 0], [0, 1, 0, 0]], True)
    def test_containment_matches_sum_route(self, f, coeffs, rows_v, inside):
        v = Subspace.from_vectors(f, 4, [vec(f, r) for r in rows_v])
        rows_u = coeffs
        if inside:
            rows_u = [
                [sum(c * row[j] for c, row in zip(cs, v.rows)) for j in range(4)]
                for cs in coeffs
            ]
        u = Subspace.from_vectors(f, 4, [vec(f, r) for r in rows_u])
        summed = Subspace.from_raw(f, 4, u.rows + v.rows)
        assert (u <= v) == (summed == v)
        if inside:
            assert u <= v

    @given(st.sampled_from([GF(2), GF(3), GF(5), Q]),
           st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3), max_size=3))
    def test_sum_with_zero_or_full_matches_raw_route(self, f, rows):
        u = Subspace.from_vectors(f, 3, [vec(f, r) for r in rows])
        for w in (Subspace.zero(f, 3), Subspace.full(f, 3)):
            for total, first, second in ((u + w, u, w), (w + u, w, u)):
                assert total == Subspace.from_raw(f, 3, first.rows + second.rows)

    # Over GF(p) an entry is the drawn Fraction times 6, an int.  Over Q
    # it stays a Fraction, so a dot product can add up to an integral
    # Fraction, as in the example: a_2 = e_2 - 1/2 e_0, and a_2 . v = 1.
    @given(st.sampled_from([GF(2), GF(3), GF(5), Q]),
           st.lists(st.lists(st.fractions(-2, 2, max_denominator=3), min_size=4, max_size=4),
                    max_size=4),
           st.lists(st.fractions(-2, 2, max_denominator=3), min_size=4, max_size=4))
    @example(Q, [[1, 0, Fraction(1, 2), 0]], [1, 0, Fraction(3, 2), 0])
    def test_annihilator_reads_the_residual(self, f, rows, v):
        entry = (lambda x: x) if f.p is None else (lambda x: int(6 * x))
        u = Subspace.from_vectors(f, 4, [vec(f, map(entry, r)) for r in rows])
        x = linalg._unbox(f, vec(f, map(entry, v)))
        dots = list(linalg.raw_dots(f.p, u.annihilator_raw(), x))
        residual = u.reduce_raw(x)
        assert dots == [residual[j] for j in u.complement().pivots]
        assert not any(type(d) is Fraction and d.denominator == 1 for d in dots)
        assert (not any(dots)) == u.holds_raw(x)

    @given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3), max_size=3))
    def test_rref_span_idempotence_q(self, rows):
        u = Subspace.from_vectors(Q, 3, [vec(Q, r) for r in rows])
        again = Subspace.from_vectors(Q, 3, list(u.vectors()))
        assert again == u
        assert again.basis == u.basis

    @given(st.lists(st.lists(st.integers(0, 2), min_size=3, max_size=3), min_size=1, max_size=3),
           st.lists(st.lists(st.integers(0, 2), min_size=3, max_size=3), min_size=1, max_size=3))
    def test_modularity_bounds_gf3(self, rows_u, rows_v):
        f = GF(3)
        u = Subspace.from_vectors(f, 3, [vec(f, r) for r in rows_u])
        v = Subspace.from_vectors(f, 3, [vec(f, r) for r in rows_v])
        assert (u & v) <= u <= (u + v)


def _modulo_by_rref(i: Subspace, u: Subspace) -> Subspace:
    # (u + I) / I through I.reduce and one elimination.
    comp = i.complement()
    return Subspace.from_raw(i.field, comp.dim, [comp.coords_raw(i.reduce_raw(r)) for r in u.rows])


class TestCoordinateShortcuts:
    """``coords``, ``from_coords``, ``modulo`` and ``preimage`` skip the
    elimination or the complement; each must give what the ``from_raw``
    route (for ``preimage``, ``oracle_preimage``) gives, rows, pivots and
    ambient dimension.

    With ``inside`` the rows of U are combinations of K's rows, so U's
    pivots are among K's; ``coords`` of a U outside K raises
    AmbientMismatch, whatever its pivots.  The examples pin U outside K
    with pivots among K's, U with pivots (0, 2) inside K with pivots
    (0, 2, 3), so at places (0, 1), U with a pivot that is not one of
    K's, and for ``modulo`` K = 0 and U = F^4.  ``preimage`` has examples with I = 0
    and with w the whole quotient, and ``modulo`` of I + span(extra) by
    I, the case read off without elimination, over GF(3) and Q.
    """

    @given(st.sampled_from([GF(2), GF(3), GF(5), Q]),
           st.lists(st.lists(st.integers(-2, 2), min_size=4, max_size=4), max_size=4),
           st.lists(st.lists(st.integers(-2, 2), min_size=4, max_size=4), max_size=4),
           st.booleans())
    @example(GF(3), [[1, 1, 0, 0]], [[1, 0, 0, 0], [0, 0, 1, 0]], False)
    @example(Q, [[1, 0, 2], [0, 1, 1]], [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], True)
    @example(GF(2), [[0, 1, 0, 0]], [[1, 0, 0, 0], [0, 0, 1, 0]], False)
    @example(GF(3), [[1, 2, 0, 1], [0, 1, 1, 0]], [], False)
    @example(GF(5), [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], [[1, 2, 0, 0]], False)
    def test_match_the_raw_route(self, f, coeffs, rows_k, inside):
        k = Subspace.from_vectors(f, 4, [vec(f, r) for r in rows_k])
        rows_u = coeffs
        if inside:
            rows_u = [
                [sum(c * row[j] for c, row in zip(cs, k.rows)) for j in range(4)]
                for cs in coeffs
            ]
        u = Subspace.from_vectors(f, 4, [vec(f, r) for r in rows_u])
        if inside:
            assert set(u.pivots) <= set(k.pivots)

        if u <= k:
            got = k.coords(u)
            want = Subspace.from_raw(f, k.dim, [k.coords_raw(r) for r in u.rows])
            assert (got.rows, got.pivots, got.ambient_dim) == (want.rows, want.pivots, want.ambient_dim)
        else:
            assert not inside
            with pytest.raises(AmbientMismatch):
                k.coords(u)

        got, want = k.modulo(u), _modulo_by_rref(k, u)
        assert (got.rows, got.pivots, got.ambient_dim) == (want.rows, want.pivots, want.ambient_dim)

    @given(st.sampled_from([GF(2), GF(3), GF(5), Q]),
           st.lists(st.lists(st.integers(-2, 2), min_size=4, max_size=4), max_size=4),
           st.lists(st.lists(st.integers(-2, 2), min_size=4, max_size=4), max_size=3))
    @example(GF(3), [[1, 0, 2, 0]], [[0, 1, 1, 0], [1, 0, 0, 1]])
    @example(Q, [[2, 1, 0, 3]], [[1, 1, 1, 1]])
    def test_modulo_of_a_subspace_over_i_runs_no_elimination(self, f, rows_i, rows_extra):
        # u = I + span(extra), so I <= u: the image is read off u's rows.
        i = Subspace.from_vectors(f, 4, [vec(f, r) for r in rows_i])
        u = Subspace.from_vectors(f, 4, [vec(f, r) for r in rows_i + rows_extra])
        assert i <= u
        eliminations = []
        raw_rref = linalg.raw_rref

        def counting(*args):
            eliminations.append(args)
            return raw_rref(*args)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(linalg, "raw_rref", counting)
            got = i.modulo(u)
        assert eliminations == []
        want = _modulo_by_rref(i, u)
        assert (got.rows, got.pivots, got.ambient_dim) == (want.rows, want.pivots, want.ambient_dim)
        assert i.preimage(got) == u

    @given(st.sampled_from([GF(2), GF(3), GF(5), GF(7), Q]),
           st.lists(st.lists(st.integers(-3, 3), min_size=5, max_size=5), max_size=5),
           st.lists(st.lists(st.integers(-3, 3), min_size=5, max_size=5), max_size=5))
    def test_from_coords_matches_the_raw_route(self, f, rows_k, rows_w):
        k = Subspace.from_vectors(f, 5, [vec(f, r) for r in rows_k])
        w = Subspace.from_vectors(f, k.dim, [vec(f, r[: k.dim]) for r in rows_w])
        got = k.from_coords(w)
        want = Subspace.from_raw(f, 5, [k.from_coords_raw(r) for r in w.rows])
        assert (got.rows, got.pivots, got.ambient_dim) == (want.rows, want.pivots, want.ambient_dim)
        assert k.coords(got) == w

    @given(st.sampled_from([GF(2), GF(3), GF(5), GF(7), Q]),
           st.lists(st.lists(st.integers(-3, 3), min_size=5, max_size=5), max_size=5),
           st.lists(st.lists(st.integers(-3, 3), min_size=5, max_size=5), max_size=5))
    @example(GF(2), [], [[1, 1, 0, 1, 0], [0, 0, 1, 1, 0]])
    @example(GF(3), [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]], [])
    @example(GF(5), [[1, 2, 0, 0, 1], [0, 0, 1, 3, 4]], [])
    @example(GF(7), [[0, 1, 2, 0, 0], [0, 0, 0, 1, 3]], [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0]])
    @example(Q, [[1, 2, 0, 0, 1], [0, 0, 1, 3, 0]], [[1, 2, 3, 0, 0], [0, 0, 1, 0, 0]])
    @example(GF(3), [[1, 2, 0, 0, 1]], [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0]])
    def test_preimage_matches_the_oracle(self, f, rows_i, rows_w):
        i = Subspace.from_vectors(f, 5, [vec(f, r) for r in rows_i])
        w = Subspace.from_vectors(f, 5 - i.dim, [vec(f, r[: 5 - i.dim]) for r in rows_w])
        got = i.preimage(w)
        want = oracle_preimage(i, w)
        assert (got.rows, got.pivots, got.ambient_dim) == (want.rows, want.pivots, want.ambient_dim)
        assert i <= got and i.modulo(got) == w

    def test_foreign_arguments_raise(self):
        # A quotient of GF(3)^3 by 0 is 3-dimensional, coordinates on a
        # 2-dim subspace are GF(3)^2, and modulo takes subspaces of F^3.
        with pytest.raises(AmbientMismatch):
            Subspace.zero(GF(3), 3).preimage(Subspace.full(GF(3), 2))
        with pytest.raises(FieldMismatch):
            Subspace.full(GF(3), 2).from_coords(Subspace.full(GF(5), 2))
        with pytest.raises(AmbientMismatch):
            Subspace.zero(GF(3), 3).modulo(Subspace.full(GF(3), 2))
        with pytest.raises(FieldMismatch):
            Subspace.zero(GF(3), 3).modulo(Subspace.full(GF(5), 3))
        with pytest.raises(AmbientMismatch):
            Subspace.full(GF(3), 2).from_coords(Subspace.full(GF(3), 3))
        with pytest.raises(FieldMismatch):
            Subspace.zero(GF(3), 2).preimage(Subspace.zero(Q, 2))
        with pytest.raises(FieldMismatch):
            Subspace.full(GF(3), 2).coords(Subspace.full(GF(5), 2))
        with pytest.raises(AmbientMismatch):
            Subspace.span(GF(3), 3, [[1, 0, 0]]).coords(Subspace.span(GF(3), 2, [[0, 1]]))

    @pytest.mark.parametrize("rows", [[[1, 0, 1]], [[0, 0, 1]]])
    def test_coords_of_a_subspace_outside_raise(self, rows):
        # Neither has coordinates: span(e0 + e2) would read as e0 and
        # span(e2) as 0.
        k = Subspace.span(GF(5), 3, [[1, 0, 0], [0, 1, 0]])
        with pytest.raises(AmbientMismatch):
            k.coords(Subspace.span(GF(5), 3, rows))


class TestTextForms:
    def test_vector_round_trip(self):
        v = vec(Q, ["1", "0", "-1/2"])
        assert vector_text(v) == "1,0,-1/2"
        assert parse_vector(Q, 3, "1, 0, -1/2") == v

    def test_vector_wrong_arity(self):
        with pytest.raises(DimensionMismatch):
            parse_vector(Q, 2, "1,2,3")

    def test_subspace_round_trip(self):
        u = Subspace.from_vectors(GF(3), 3, [vec(GF(3), [1, 2, 0]), vec(GF(3), [0, 0, 1])])
        text = subspace_text(u)
        assert parse_subspace(GF(3), 3, text) == u

    def test_zero_subspace_text(self):
        z = Subspace.zero(Q, 4)
        assert subspace_text(z) == "0"
        assert parse_subspace(Q, 4, "0") == z
        assert parse_subspace(Q, 4, "") == z
