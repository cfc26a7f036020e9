import pytest
from hypothesis import given
from hypothesis import strategies as st

from cideals import (
    AmbientMismatch,
    DimensionMismatch,
    FieldMismatch,
    GF,
    IndexOutOfRange,
    LieAlgebra,
    NotAnIdeal,
    NotSubalgebra,
    Q,
    Subspace,
    builtin,
    catalog_algebras,
    direct_sum,
    enum_ideals,
    enum_subalgebras,
    enum_subspaces,
    is_abelian,
    is_nilpotent,
    is_solvable,
    quotient_algebra,
    random_solvable,
    restricted_algebra,
    subspace_text,
    verify_certificate,
)

from cideals import liealg
from cideals.liealg import derived_subspace

from oracles import (
    oracle_is_ideal,
    oracle_is_subalgebra,
    oracle_nilpotent,
    oracle_quotient,
    oracle_solvable,
    oracle_span_product,
)


def vec(field, coords):
    return tuple(field.scalar(x) for x in coords)


def span(l, *coords_list):
    return Subspace.from_vectors(l.field, l.dim, [vec(l.field, c) for c in coords_list])


class TestConstruction:
    def test_default_names(self):
        l = LieAlgebra(Q, 2)
        assert l.names == ("e0", "e1")
        assert is_abelian(l)

    def test_pair_must_be_ordered(self):
        with pytest.raises(IndexOutOfRange):
            LieAlgebra(Q, 2, brackets={(1, 0): (1, 0)})
        with pytest.raises(IndexOutOfRange):
            LieAlgebra(Q, 2, brackets={(0, 0): (1, 0)})

    def test_pair_in_range(self):
        with pytest.raises(IndexOutOfRange):
            LieAlgebra(Q, 2, brackets={(0, 5): (1, 0)})

    @pytest.mark.parametrize("i", [3, -1])
    def test_basis_vector_index_in_range(self, i):
        with pytest.raises(IndexOutOfRange):
            builtin("heisenberg(3)", GF(5)).basis_vector(i)

    @pytest.mark.parametrize("ij", [(-1, 0), (3, 0), (0, -1), (0, 3)])
    def test_structure_vector_indices_in_range(self, ij):
        # (-1, 0) must not wrap round to [e_2, e_0], nor (3, 0) raise a bare IndexError.
        with pytest.raises(IndexOutOfRange):
            builtin("heisenberg(3)", GF(5)).structure_vector(*ij)

    def test_indices_in_range_answer(self):
        l = builtin("heisenberg(3)", GF(5))
        assert l.basis() == tuple(l.basis_vector(i) for i in range(3))
        assert l.structure_vector(0, 1) == l.bracket(l.basis_vector(0), l.basis_vector(1))

    def test_coord_arity_checked(self):
        with pytest.raises(DimensionMismatch):
            LieAlgebra(Q, 2, brackets={(0, 1): (1, 0, 0)})

    def test_names_length_checked(self):
        with pytest.raises(DimensionMismatch):
            LieAlgebra(Q, 2, names=("x",))

    def test_negative_dim(self):
        with pytest.raises(DimensionMismatch):
            LieAlgebra(Q, -1)

    def test_equality_ignores_names_and_meta(self):
        a = LieAlgebra(Q, 2, names=("x", "y"), brackets={(0, 1): (0, 1)})
        b = LieAlgebra(Q, 2, names=("u", "v"), brackets={(0, 1): (0, 1)}, meta={"k": 1})
        assert a == b
        assert hash(a) == hash(b)

    def test_meta_is_copied(self):
        meta = {"tag": "demo"}
        l = LieAlgebra(Q, 1, meta=meta)
        meta["tag"] = "changed"
        assert l.meta["tag"] == "demo"


class TestBracket:
    def test_antisymmetry_structural(self, sl2_q):
        e, f = sl2_q.basis_vector(0), sl2_q.basis_vector(1)
        assert sl2_q.bracket(e, f) == vec(Q, [0, 0, 1])
        assert sl2_q.bracket(f, e) == vec(Q, [0, 0, -1])
        assert sl2_q.bracket(e, e) == sl2_q.zero_vec()

    def test_structure_vector_signs(self, sl2_q):
        assert sl2_q.structure_vector(0, 2) == vec(Q, [-2, 0, 0])
        assert sl2_q.structure_vector(2, 0) == vec(Q, [2, 0, 0])
        assert sl2_q.structure_vector(1, 1) == sl2_q.zero_vec()

    @given(st.lists(st.integers(0, 4), min_size=3, max_size=3),
           st.lists(st.integers(0, 4), min_size=3, max_size=3),
           st.lists(st.integers(0, 4), min_size=3, max_size=3),
           st.integers(0, 4))
    def test_bilinearity_gf5(self, xs, ys, zs, c):
        l = builtin("sl2", GF(5))
        x, y, z = vec(l.field, xs), vec(l.field, ys), vec(l.field, zs)
        s = l.field.scalar(c)
        lhs = l.bracket(tuple(a + s * b for a, b in zip(x, y)), z)
        rhs = tuple(
            a + s * b for a, b in zip(l.bracket(x, z), l.bracket(y, z))
        )
        assert lhs == rhs
        assert l.bracket(x, y) == tuple(-t for t in l.bracket(y, x))

    def test_wrong_field_scalars_rejected(self, sl2_q):
        x = vec(GF(5), [1, 0, 0])
        with pytest.raises(FieldMismatch):
            sl2_q.bracket(x, sl2_q.basis_vector(1))
        with pytest.raises(FieldMismatch):
            sl2_q.bracket(sl2_q.basis_vector(1), x)

    def test_ad_matrix(self, sl2_q):
        ad_h = sl2_q.ad_matrix(sl2_q.basis_vector(2))
        # [h, e] = 2e, [h, f] = -2f, [h, h] = 0
        cols = [[s.value for s in ad_h.column(j)] for j in range(3)]
        assert cols == [[2, 0, 0], [0, -2, 0], [0, 0, 0]]

    def test_jacobi_validate_clean(self, sl2_q, h3_gf2):
        assert sl2_q.validate() == []
        assert h3_gf2.validate() == []

    def test_jacobi_validate_flags_violation(self):
        # [e0,e1]=e2, [e0,e2]=e0, [e1,e2]=e1 sums to -2*e2 on the triple
        bad = LieAlgebra(
            Q,
            3,
            brackets={(0, 1): (0, 0, 1), (0, 2): (1, 0, 0), (1, 2): (0, 1, 0)},
        )
        violations = bad.validate()
        assert violations
        i, j, k, residual = violations[0]
        assert (i, j, k) == (0, 1, 2)
        assert any(residual)


class TestSpansAndSeries:
    def test_span_product_matches_oracle(self, sl2_q, t2_q):
        for l in (sl2_q, t2_q):
            full = l.full_space()
            assert l.span_product(full, full) == oracle_span_product(l, full, full)

    def test_subalgebra_and_ideal_predicates(self, sl2_q):
        borel = span(sl2_q, [1, 0, 0], [0, 0, 1])
        assert sl2_q.is_subalgebra(borel)
        assert not sl2_q.is_ideal(borel)
        ef = span(sl2_q, [1, 0, 0], [0, 1, 0])
        assert not sl2_q.is_subalgebra(ef)

    def test_closure_tests_match_span_products(self):
        algebras = [
            builtin("heisenberg", GF(3), 3),
            builtin("sl2", GF(5)),
            builtin("t", GF(2), 2),
        ]
        algebras += [random_solvable(s, GF(2 + s % 2), 3, 2) for s in range(5)]
        for l in algebras:
            for u in enum_subspaces(l):
                assert l.is_subalgebra(u) == oracle_is_subalgebra(l, u)
                assert l.is_ideal(u) == oracle_is_ideal(l, u)

    def test_full_space_certificate_on_every_subalgebra(self):
        # C = L certifies exactly the ideals; the full space is an ideal
        # without any bracket being taken.
        for l in (builtin("heisenberg", GF(3), 3), builtin("sl2", GF(5))):
            full = l.full_space()
            assert l.is_ideal(full)
            for u in enum_subspaces(l):
                if oracle_is_subalgebra(l, u):
                    assert verify_certificate(l, u, full) == oracle_is_ideal(l, u)

    def test_subalgebra_closure(self, sl2_q):
        seed = span(sl2_q, [1, 0, 0], [0, 1, 0])
        closed = sl2_q.subalgebra_closure(seed)
        assert closed == sl2_q.full_space()

    def test_derived_series_h3(self, h3_q):
        s = h3_q.derived_series()
        assert s.kind == "derived"
        assert [t.dim for t in s.terms] == [3, 1, 0]

    def test_lower_central_series_t2(self, t2_q):
        s = t2_q.lower_central_series()
        # [t2, t2] reproduces itself, so the series stops at dimension 1
        assert [t.dim for t in s.terms] == [3, 1]
        assert s.terms[-1] == t2_q.span_product(t2_q.full_space(), s.terms[-1])

    def test_series_from_subalgebra_only(self, sl2_q):
        not_closed = span(sl2_q, [1, 0, 0], [0, 1, 0])
        with pytest.raises(NotSubalgebra):
            sl2_q.series("derived", not_closed)

    def test_solvability_flags(self, sl2_q, t2_q, h3_q):
        assert not is_solvable(sl2_q)
        assert is_solvable(t2_q) and not is_nilpotent(t2_q)
        assert is_nilpotent(h3_q) and is_solvable(h3_q)

    def test_solvability_matches_oracle_on_catalog(self):
        from cideals import catalog_algebras

        for _, l in catalog_algebras(GF(3), max_dim=4):
            assert is_solvable(l) == oracle_solvable(l)
            assert is_nilpotent(l) == oracle_nilpotent(l)

    def test_subspace_solvability(self, sl2_gf5):
        borel = span(sl2_gf5, [1, 0, 0], [0, 0, 1])
        assert is_solvable(sl2_gf5, borel)
        assert not is_nilpotent(sl2_gf5, borel)
        assert is_nilpotent(sl2_gf5, sl2_gf5.zero_space())


class TestTransporter:
    def test_centre_h3(self, h3_q):
        z = h3_q.centre()
        assert z.dim == 1
        assert vec(Q, [0, 0, 1]) in z

    def test_centre_sl2_trivial(self, sl2_q):
        assert sl2_q.centre().dim == 0

    def test_centralizer_of_e(self, sl2_q):
        line_e = span(sl2_q, [1, 0, 0])
        cent = sl2_q.centralizer(line_e)
        assert cent == line_e

    def test_transporter_into_target(self, sl2_q):
        # {x : [x, e] in span{e}} is the Borel span{e, h}
        line_e = span(sl2_q, [1, 0, 0])
        t = sl2_q.transporter(line_e, line_e)
        assert t == span(sl2_q, [1, 0, 0], [0, 0, 1])

    def test_transporter_empty_gens(self, sl2_q):
        assert sl2_q.transporter(sl2_q.zero_space(), sl2_q.zero_space()) == sl2_q.full_space()


class TestQuotientRestrict:
    def test_quotient_by_centre(self, h3_q):
        z = h3_q.centre()
        reduced, project, lift = quotient_algebra(h3_q, z)
        assert reduced.dim == 2
        assert is_abelian(reduced)  # h3 mod its centre is abelian
        # project then lift lands in the same coset
        for v in h3_q.basis():
            back = lift(project(v))
            assert h3_q.full_space().reduce(back) == h3_q.full_space().reduce(back)
            diff = tuple(a - b for a, b in zip(v, back))
            assert diff in z or all(not s for s in diff)

    def test_quotient_requires_ideal(self, sl2_q):
        borel = span(sl2_q, [1, 0, 0], [0, 0, 1])
        with pytest.raises(NotAnIdeal):
            quotient_algebra(sl2_q, borel)

    def test_quotient_is_homomorphism(self, t2_q):
        derived = t2_q.span_product(t2_q.full_space(), t2_q.full_space())
        reduced, project, _ = quotient_algebra(t2_q, derived)
        for u in t2_q.basis():
            for v in t2_q.basis():
                assert project(t2_q.bracket(u, v)) == reduced.bracket(project(u), project(v))

    def test_restrict_borel(self, sl2_q):
        borel = span(sl2_q, [1, 0, 0], [0, 0, 1])
        alg, to_coords, from_coords = restricted_algebra(sl2_q, borel)
        assert alg.dim == 2
        # the restriction keeps the bracket: basis is (e, h), [e, h] = -2e
        b0 = to_coords(vec(Q, [1, 0, 0]))
        b1 = to_coords(vec(Q, [0, 0, 1]))
        assert alg.bracket(b0, b1) == vec(Q, [-2, 0])
        assert from_coords(b0) == vec(Q, [1, 0, 0])

    def test_restrict_rejects_outsiders(self, sl2_q):
        borel = span(sl2_q, [1, 0, 0], [0, 0, 1])
        _, to_coords, _ = restricted_algebra(sl2_q, borel)
        with pytest.raises(AmbientMismatch):
            to_coords(vec(Q, [0, 1, 0]))

    def test_restrict_requires_subalgebra(self, sl2_q):
        with pytest.raises(NotSubalgebra):
            restricted_algebra(sl2_q, span(sl2_q, [1, 0, 0], [0, 1, 0]))

    def test_quotient_and_restrict_cached_by_value(self, h3_gf2):
        z = h3_gf2.centre()
        a1 = quotient_algebra(h3_gf2, z)[0]
        a2 = quotient_algebra(h3_gf2, z)[0]
        assert a1 is a2

    def test_lift_rejects_another_field(self, h3_gf3):
        _, _, lift = quotient_algebra(h3_gf3, h3_gf3.centre())
        with pytest.raises(FieldMismatch):
            lift(vec(GF(5), [1, 2]))


def _closed_subspaces(l):
    """Every subalgebra over GF(p); over Q, a sample of closed subspaces:
    0, L, the centre, the series terms and the lines of e_i and e_i + e_j."""
    if l.field.p is not None:
        return enum_subalgebras(l)
    found = {l.zero_space(), l.full_space(), l.centre()}
    found.update(l.derived_series().terms + l.lower_central_series().terms)
    basis = l.basis()
    found.update(Subspace.from_vectors(l.field, l.dim, [e]) for e in basis)
    found.update(
        Subspace.from_vectors(l.field, l.dim, [tuple(a + b for a, b in zip(e, f))])
        for i, e in enumerate(basis)
        for f in basis[i + 1 :]
    )
    return sorted(found, key=Subspace.sort_key)


def _two_pass_restriction(l, u):
    """The algebra on u's canonical rows, built the old way: the closure
    test first, then every bracket of rows a < b read in coordinates."""
    assert oracle_is_subalgebra(l, u)
    rows = u.vectors()
    brackets = {
        (a, b): tuple(l.bracket(rows[a], rows[b])[c] for c in u.pivots)
        for a in range(len(rows))
        for b in range(a + 1, len(rows))
    }
    return LieAlgebra(l.field, u.dim, [l.names[c] for c in u.pivots], brackets)


class TestBracketRoutes:
    """Each route that brackets a pair once, against the route it replaced."""

    @pytest.mark.parametrize("field", [GF(2), GF(3), GF(5), Q], ids=str)
    def test_routes_match_their_oracles(self, field):
        for _, l in catalog_algebras(field, max_dim=None if field.p is None else 5):
            full = l.full_space()
            assert derived_subspace(l) == oracle_span_product(l, full, full)
            for u in _closed_subspaces(l):
                assert l.span_product(u, u) == oracle_span_product(l, u, u)
                assert l._closed_is_ideal(u) == oracle_is_ideal(l, u)
                got, want = l.restrict(u)[0], _two_pass_restriction(l, u)
                assert got == want and got.names == want.names

    @pytest.mark.parametrize("field", [GF(2), GF(3), Q], ids=str)
    def test_one_reader_for_subalgebras_and_quotients(self, field):
        # restrict and algebra_on read one table, as do quotient,
        # algebra_modulo and the boxed oracle.
        for _, l in catalog_algebras(field, max_dim=None if field.p is None else 5):
            closed = _closed_subspaces(l)
            for u in closed:
                alg = l.restrict(u)[0]
                assert alg == liealg.algebra_on(l, u)
                assert alg.names == tuple(l.names[c] for c in u.pivots)
            ideals = enum_ideals(l) if field.p else [u for u in closed if l.is_ideal(u)]
            for i in ideals:
                reduced, want = l.quotient(i)[0], oracle_quotient(l, i)
                assert reduced == liealg.algebra_modulo(l, i) == want
                assert reduced.names == want.names

    @pytest.mark.parametrize("name", ["sl2", "heisenberg(3)", "t(2)"])
    def test_restrict_rejects_every_open_subspace(self, name):
        l = builtin(name, GF(3))
        open_subspaces = [u for u in enum_subspaces(l) if not oracle_is_subalgebra(l, u)]
        assert open_subspaces
        for u in open_subspaces:
            with pytest.raises(NotSubalgebra):
                l.restrict(u)


def _brackets_made(monkeypatch, work) -> int:
    """The number of LieAlgebra.bracket_raw calls that work() makes, with
    a cold memo table."""
    made = []
    bracket_raw = LieAlgebra.bracket_raw

    def counted(self, u, v):
        made.append(None)
        return bracket_raw(self, u, v)

    monkeypatch.setattr(liealg, "_canonical", {})
    with monkeypatch.context() as m:
        m.setattr(LieAlgebra, "bracket_raw", counted)
        work()
    return len(made)


class TestBracketCounts:
    """Every pair of rows is bracketed once: the counts are pinned."""

    @pytest.mark.parametrize("p", [2, 3])
    def test_restrict_and_square_span_product(self, monkeypatch, p):
        # restrict, span_product(u, u) and is_subalgebra on an algebra never
        # listed bracket each pair once; on the listed one they read every
        # pair from the listing's brackets.
        for cid, l in catalog_algebras(GF(p), max_dim=4):
            unlisted = builtin(cid, GF(p))
            for u in enum_subalgebras(l):
                pairs = u.dim * (u.dim - 1) // 2
                for work in (LieAlgebra.restrict, LieAlgebra.is_subalgebra, lambda a, u: a.span_product(u, u)):
                    assert _brackets_made(monkeypatch, lambda: work(unlisted, u)) == pairs
                    assert _brackets_made(monkeypatch, lambda: work(l, u)) == 0

    @pytest.mark.parametrize("p", [2, 3])
    def test_algebra_modulo_checks_nothing(self, monkeypatch, p):
        # On a cold memo: no ideal test, and one bracket per pair of the
        # k = dim L - dim I rows of the quotient.
        cases = [(cid, i) for cid, l in catalog_algebras(GF(p), max_dim=4) for i in enum_ideals(l)]
        checked = []
        is_ideal = LieAlgebra.is_ideal
        monkeypatch.setattr(LieAlgebra, "is_ideal", lambda s, u: checked.append(u) or is_ideal(s, u))
        for cid, i in cases:
            l = builtin(cid, GF(p))
            k = l.dim - i.dim
            assert _brackets_made(monkeypatch, lambda: liealg.algebra_modulo(l, i)) == k * (k - 1) // 2
        assert checked == []

    def test_derived_subspace(self, monkeypatch):
        for field in (GF(2), GF(3), Q):
            for _, l in catalog_algebras(field):
                assert _brackets_made(monkeypatch, lambda: derived_subspace(l)) == 0


_MAP_FIELDS = [GF(2), GF(3), GF(5), Q]
_MAP_ALGEBRAS = ["heisenberg(3)+abelian(1)", "t(2)", "almost_abelian(3)", "nonabelian2+nonabelian2"]


def _ideal_closure(l, u):
    while True:
        nxt = u + l.span_product(l.full_space(), u)
        if nxt == u:
            return u
        u = nxt


@st.composite
def _map_case(draw):
    """An algebra with a subalgebra K, an ideal I and subspaces U, V <= K,
    X, Y of L, W of F^dim K and Z of F^(dim L - dim I)."""
    field = draw(st.sampled_from(_MAP_FIELDS))
    l = builtin(draw(st.sampled_from(_MAP_ALGEBRAS)), field)
    n = l.dim

    def sub(dim, max_size):
        rows = st.lists(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim), max_size=max_size)
        return Subspace.span(field, dim, draw(rows))

    k = l.subalgebra_closure(sub(n, 2))
    i = _ideal_closure(l, sub(n, 1))
    return l, k, i, k & sub(n, n), k & sub(n, n), sub(n, n), sub(n, n), sub(k.dim, k.dim), sub(n - i.dim, n - i.dim)


class TestCoordinateMaps:
    @given(_map_case())
    def test_round_trips(self, case):
        _, k, i, u, _, x, _, w, z = case
        assert k.from_coords(k.coords(u)) == u
        assert k.coords(k.from_coords(w)) == w
        assert k.from_coords(w) <= k
        assert i.modulo(i.preimage(z)) == z
        assert i.preimage(i.modulo(x)) == x + i
        assert i.modulo(x).dim == (x + i).dim - i.dim

    @given(_map_case())
    def test_maps_carry_the_bracket(self, case):
        l, k, i, u, v, x, y, _, _ = case
        restricted = restricted_algebra(l, k)[0]
        assert k.coords(l.span_product(u, v)) == restricted.span_product(k.coords(u), k.coords(v))
        reduced = quotient_algebra(l, i)[0]
        assert i.modulo(l.span_product(x, y)) == reduced.span_product(i.modulo(x), i.modulo(y))

    @pytest.mark.parametrize("p", [2, 3])
    def test_agree_with_the_boxed_closures(self, p):
        def image(f, alg, space):
            return Subspace.from_vectors(alg.field, alg.dim, [f(v) for v in space.vectors()])

        for _, l in catalog_algebras(GF(p), max_dim=4):
            subalgebras = enum_subalgebras(l)
            for k in subalgebras:
                alg, to_coords, from_coords = l.restrict(k)
                for u in subalgebras:
                    if u <= k:
                        assert k.coords(u) == image(to_coords, alg, u)
                for w in enum_subalgebras(alg):
                    assert k.from_coords(w) == image(from_coords, l, w)
            for i in enum_ideals(l):
                reduced, project, lift = l.quotient(i)
                for u in subalgebras:
                    assert i.modulo(u) == image(project, reduced, u)
                for w in enum_subalgebras(reduced):
                    assert i.preimage(w) == image(lift, l, w) + i


class TestDirectSum:
    def test_blocks(self, h3_q):
        other = builtin("nonabelian2", Q)
        total = direct_sum(h3_q, other)
        assert total.dim == 5
        assert total.validate() == []
        # cross brackets vanish
        left = vec(Q, [1, 0, 0, 0, 0])
        right = vec(Q, [0, 0, 0, 1, 0])
        assert total.bracket(left, right) == total.zero_vec()
        assert is_nilpotent(total) is False  # nonabelian2 is not nilpotent
        assert is_solvable(total)

    def test_name_dedup(self):
        a = builtin("nonabelian2", Q)
        total = direct_sum(a, a)
        assert len(set(total.names)) == 4

    def test_field_mismatch(self, h3_q, h3_gf2):
        with pytest.raises(Exception):
            direct_sum(h3_q, h3_gf2)
