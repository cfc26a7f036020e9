import json
import time

import pytest

from cideals import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    CASE_CUBE_ZERO,
    CASE_NEITHER,
    CASE_SPLIT,
    GF,
    LieAlgebra,
    Q,
    Subspace,
    builtin,
    cartan_subalgebras,
    catalog_algebras,
    classify_line_cideals,
    derived_length,
    direct_sum,
    frattini,
    is_abelian,
    is_almost_abelian,
    is_nilpotent,
    is_solvable,
    is_supersolvable,
    maximal_nilpotent_subalgebras,
    abelian_socle,
    almost_abelian_witness,
    nilpotency_class,
    one_dim_ideals,
    radicals,
    random_solvable,
    restricted_algebra,
    run_suite,
    structure_profile,
    subspace_count,
    supersolvable_flag,
    upper_central_series,
)

from cideals import structure
from cideals.harness import PASS
from cideals.lattice import first_line_ideal
from cideals.linalg import raw_kernel
from test_lattice import _FILTER_CORPUS

from oracles import (
    oracle_cartan_subalgebras,
    oracle_core,
    oracle_frattini,
    oracle_is_subalgebra,
    oracle_radicals,
    oracle_socle,
    oracle_supersolvable,
)


def vec(field, coords):
    return tuple(field.scalar(x) for x in coords)


def span(l, *coords_list):
    return Subspace.from_vectors(l.field, l.dim, [vec(l.field, c) for c in coords_list])


class TestBasicInvariants:
    def test_is_abelian(self):
        assert is_abelian(builtin("abelian", Q, 3))
        assert not is_abelian(builtin("nonabelian2", Q))

    def test_derived_length(self, h3_q, t2_q, sl2_q):
        assert derived_length(builtin("abelian", Q, 2)) == 1
        assert derived_length(h3_q) == 2
        assert derived_length(t2_q) == 2
        assert derived_length(sl2_q) is None
        assert derived_length(builtin("abelian", Q, 0)) == 0

    def test_nilpotency_class(self, h3_q, t2_q):
        assert nilpotency_class(builtin("abelian", Q, 2)) == 1
        assert nilpotency_class(h3_q) == 2
        assert nilpotency_class(t2_q) is None
        assert nilpotency_class(builtin("n", Q, 4)) == 3

    def test_upper_central_series(self, h3_q, sl2_q):
        ucs = upper_central_series(h3_q)
        assert [t.dim for t in ucs] == [0, 1, 3]
        assert ucs[1] == h3_q.centre()
        assert [t.dim for t in upper_central_series(sl2_q)] == [0]


class TestSupersolvable:
    def test_flag_is_complete_ideal_chain(self, h3_q, t2_q, aa3_q):
        for l in (h3_q, t2_q, aa3_q):
            flag = supersolvable_flag(l)
            assert flag is not None
            assert [w.dim for w in flag] == list(range(l.dim + 1))
            for i, w in enumerate(flag):
                assert l.is_ideal(w)
                if i:
                    assert flag[i - 1] < w

    def test_simple_has_no_flag(self, sl2_q, sl2_gf5):
        assert supersolvable_flag(sl2_q) is None
        assert supersolvable_flag(sl2_gf5) is None
        assert not is_supersolvable(sl2_gf5)

    def test_zero_dim(self):
        l = builtin("abelian", Q, 0)
        assert supersolvable_flag(l) == (l.zero_space(),)
        assert is_supersolvable(l)

    def test_matches_brute_force_on_catalog(self):
        for field in (GF(2), GF(3)):
            for _, l in catalog_algebras(field, max_dim=4):
                assert is_supersolvable(l) == oracle_supersolvable(l)
        # Not supersolvable, with 4 and 6 line ideals (the abelian(2)
        # summand): the first line's quotient must decide alone.
        for field in (GF(3), GF(5)):
            l = builtin("sl2+abelian(2)", field)
            assert len(one_dim_ideals(l)) == field.p + 1
            assert not is_supersolvable(l)
            assert not oracle_supersolvable(l)
        assert not is_supersolvable(builtin("sl2+abelian(2)", Q))

    @pytest.mark.parametrize("p", [3, 7, 11])
    def test_solvable_but_not_supersolvable(self, p):
        # e(2): [x, a1] = a2, [x, a2] = -a1.  With p = 3 mod 4, -1 is not
        # a square, so ad(x) has no eigenvector on span(a1, a2) and no
        # line is an ideal.
        l = LieAlgebra(GF(p), 3, ["x", "a1", "a2"], {(0, 1): [0, 0, 1], (0, 2): [0, -1, 0]})
        assert is_solvable(l)
        assert supersolvable_flag(l) is None
        assert not oracle_supersolvable(l)
        assert one_dim_ideals(l) == ()
        assert [r.status for r in run_suite(l, "T5,T6")] == [PASS, PASS]

    def test_first_line_ideal_matches_listing(self):
        for field in (GF(2), GF(3), GF(5), GF(7), Q):
            for _, l in catalog_algebras(field):
                lines = one_dim_ideals(l)
                assert first_line_ideal(l) == (lines[0] if lines else None)

    def test_large_prime_without_listing_lines(self):
        # 44,734 lines over GF(211): listing them all took seconds
        l = builtin("t(2)+abelian(2)", GF(211))
        start = time.perf_counter()
        assert is_supersolvable(l)
        assert time.perf_counter() - start < 1.0

    def test_huge_rational_eigenvalue(self):
        # ad(e_0) has eigenvalues 0, 10^30 + 57 and 1: no divisor search
        e = 10**30 + 57
        l = LieAlgebra(Q, 3, None, {(0, 1): (0, e, 0), (0, 2): (0, 0, 1)})
        start = time.perf_counter()
        assert is_supersolvable(l)
        assert time.perf_counter() - start < 1.0

    def test_non_nilpotent_recursion_gf(self):
        l = builtin("t", GF(3), 3)
        flag = supersolvable_flag(l)
        assert flag is not None
        assert all(l.is_ideal(w) for w in flag)


class TestLargePrimes:
    # Root finding is polynomial in log p and line listing is budgeted,
    # so nothing here walks the field or its lines.
    @pytest.mark.parametrize("p", [1000003, 2**31 - 1])
    @pytest.mark.parametrize("name", ["nonabelian2", "abelian(2)"])
    @pytest.mark.parametrize(
        "fn", [is_supersolvable, classify_line_cideals, one_dim_ideals, structure_profile]
    )
    def test_finishes_or_exceeds_budget(self, fn, name, p):
        l = builtin(name, GF(p))
        start = time.perf_counter()
        try:
            fn(l)
        except BudgetExceeded:
            pass
        assert time.perf_counter() - start < 2.0

    def test_nonabelian2_answers(self):
        for p in (1000003, 2**31 - 1):
            l = builtin("nonabelian2", GF(p))
            assert is_supersolvable(l)
            assert len(one_dim_ideals(l)) == 1
            with pytest.raises(BudgetExceeded):
                one_dim_ideals(builtin("abelian(2)", GF(p)))

    @pytest.mark.parametrize("p", [1000003, 2**31 - 1])
    def test_nilpotent_algebra_is_its_own_cartan(self, p):
        # Answered before the budget check, which GF(p)^2 would exceed.
        l = builtin("abelian(2)", GF(p))
        assert maximal_nilpotent_subalgebras(l) == (l.full_space(),)
        assert cartan_subalgebras(l) == (l.full_space(),)


class TestRadicals:
    def test_simple(self, sl2_gf5):
        nil, solv = radicals(sl2_gf5)
        assert nil.dim == 0 and solv.dim == 0

    def test_solvable_algebra(self, t2_gf2):
        nil, solv = radicals(t2_gf2)
        assert solv == t2_gf2.full_space()
        assert nil.dim == 2
        assert is_nilpotent(t2_gf2, nil)
        assert t2_gf2.is_ideal(nil)

    def test_nilpotent_algebra(self, h3_gf2):
        nil, solv = radicals(h3_gf2)
        assert nil == solv == h3_gf2.full_space()

    @pytest.mark.parametrize("field", [GF(2), GF(3)], ids=str)
    def test_largest_listed_ideals_are_the_sums(self, field):
        # The largest listed nilpotent (solvable) ideal is the sum of all.
        for _, l in catalog_algebras(field, max_dim=5):
            assert radicals(l) == oracle_radicals(l)

    def test_sum_of_two_nilpotent_ideals(self):
        # e(2) + abelian(1) over GF(3): span(a1, a2) and the summand are
        # nilpotent ideals, and the nilradical is their sum.
        e2 = LieAlgebra(GF(3), 3, ["x", "a1", "a2"], {(0, 1): [0, 0, 1], (0, 2): [0, -1, 0]})
        l = direct_sum(e2, builtin("abelian(1)", GF(3)))
        nil, solv = radicals(l)
        assert (nil, solv) == oracle_radicals(l)
        assert nil.dim == 3 and solv == l.full_space()


class TestFrattini:
    def test_h3_pinned(self, h3_gf2):
        f, phi = frattini(h3_gf2)
        assert f == h3_gf2.centre()
        assert phi == h3_gf2.centre()

    def test_abelian_frattini_zero(self):
        l = builtin("abelian", GF(3), 2)
        f, phi = frattini(l)
        assert f.dim == 0 and phi.dim == 0

    def test_phi_inside_f(self):
        for _, l in catalog_algebras(GF(2), max_dim=4):
            f, phi = frattini(l)
            assert phi <= f
            assert l.is_ideal(phi)

    _SUPERSOLVABLE = [(cid, l) for cid, l in _FILTER_CORPUS if is_supersolvable(l)]

    @staticmethod
    def _flag_kernels(monkeypatch, l) -> list:
        # The raw_kernel calls of _flag_frattini(l), as (rows, kernel): one
        # per step, then the common kernel of the collected forms.
        calls = []

        def recorded(field, rows, n):
            kernel = raw_kernel(field, rows, n)
            calls.append((rows, kernel))
            return kernel

        monkeypatch.setattr(structure, "raw_kernel", recorded)
        structure._flag_frattini(l, *structure._flag_weights(l))
        assert len(calls) == l.dim + 1
        return calls

    @pytest.mark.parametrize("l", [l for _, l in _SUPERSOLVABLE], ids=[cid for cid, _ in _SUPERSOLVABLE])
    def test_every_flag_form_has_a_closed_kernel(self, monkeypatch, l):
        # _flag_frattini keeps every solution of every step, s = 0 ones
        # too: each form it collects, on the coordinates y of
        # x = sum_j y_j b_j, has as kernel a subalgebra of codimension 1.
        forms = self._flag_kernels(monkeypatch, l)[-1][0]
        b, (p, n) = structure._flag_weights(l)[0], (l.field.p, l.dim)
        for form in forms:
            ys = raw_kernel(l.field, [form], n).rows
            xs = [[sum(y * bj[k] for y, bj in zip(row, b)) % p for k in range(n)] for row in ys]
            kernel = Subspace.from_raw(l.field, n, xs)
            assert kernel.dim == n - 1 and oracle_is_subalgebra(l, kernel)

    @pytest.mark.parametrize("name", ["heisenberg(3)", "n(3)"])
    def test_some_step_has_only_s_zero_forms(self, monkeypatch, name):
        # A step whose every solution is 0 at b_i still counts: the forms
        # are every step's solutions, in step order.
        calls = self._flag_kernels(monkeypatch, builtin(name, GF(3)))
        steps = [k for _, k in calls[:-1]]
        assert any(k.dim and k.pivots[0] != 0 for k in steps)
        assert calls[-1][0] == [(0,) * i + r for i, k in enumerate(steps) for r in k.rows]


class TestSocle:
    def test_h3(self, h3_gf2):
        assert abelian_socle(h3_gf2) == h3_gf2.centre()

    def test_abelian_socle_is_everything(self):
        l = builtin("abelian", GF(2), 3)
        assert abelian_socle(l) == l.full_space()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: builtin("sl2", GF(3)),
            lambda: builtin("sl2", GF(5)),
            lambda: direct_sum(builtin("sl2", GF(3)), builtin("abelian(2)", GF(3))),
            lambda: direct_sum(_e2(), builtin("abelian(1)", GF(3))),
        ],
        ids=["sl2/GF(3)", "sl2/GF(5)", "sl2+abelian(2)/GF(3)", "e(2)+abelian(1)/GF(3)"],
    )
    def test_no_flag_matches_the_brute_force_socle(self, make):
        # With no flag the listed ideals are tested; one already inside the
        # running sum is skipped before its minimality test.
        l = make()
        assert not is_supersolvable(l)
        assert abelian_socle(l) == oracle_socle(l)


def _e2():
    # The Euclidean algebra e(2) over GF(3): solvable with no flag of ideals,
    # since x acts on span(a1, a2) as a rotation with no eigenvector.
    return LieAlgebra(GF(3), 3, ["x", "a1", "a2"], {(0, 1): [0, 0, 1], (0, 2): [0, -1, 0]})


def _flag_corpus():
    """(id, algebra) pairs: the catalog to dimension 6 over GF(2), GF(3)
    and GF(5) inside the subspace gate, and the first 60 random solvable
    algebras of the criterion-3 shape within 3000 subspaces, the prime
    cycling over 2, 3, 5 and 7 with the seed."""
    out = [
        (f"{cid}/GF({p})", l)
        for p in (2, 3, 5)
        for cid, l in catalog_algebras(GF(p), max_dim=6)
        if subspace_count(l.dim, p) <= DEFAULT_BUDGET
    ]
    seed = found = 0
    while found < 60:
        p = (2, 3, 5, 7)[seed % 4]
        l = random_solvable(seed, GF(p), 3, 2 + seed % 4)
        if subspace_count(l.dim, p) <= 3000:
            out.append((f"random_solvable({seed})/GF({p})", l))
            found += 1
        seed += 1
    return out


_FLAG_CORPUS = _flag_corpus()


class TestFlagRoutes:
    """With a flag of ideals the radicals, F(L), phi(L), the socle and the
    Cartan subalgebras are read off the flag's weights; they must equal
    the listing oracles, and the first four charge no budget."""

    @pytest.mark.parametrize("l", [l for _, l in _FLAG_CORPUS], ids=[cid for cid, _ in _FLAG_CORPUS])
    def test_matches_the_listing_oracles(self, l):
        budget = 1 if is_supersolvable(l) else DEFAULT_BUDGET
        f, phi = frattini(l, budget)
        assert radicals(l, budget) == oracle_radicals(l)
        assert f == oracle_frattini(l)
        assert phi == oracle_core(l, f)
        assert abelian_socle(l, budget) == oracle_socle(l)
        assert cartan_subalgebras(l) == oracle_cartan_subalgebras(l)

    def test_corpus(self):
        ids = [cid for cid, _ in _FLAG_CORPUS]
        assert sum(cid.startswith("random") for cid in ids) == 60
        assert {"t(3)/GF(3)", "n(4)/GF(3)", "heisenberg(5)/GF(5)", "sl2/GF(5)"} <= set(ids)
        assert "t(3)/GF(5)" not in ids
        assert sum(is_supersolvable(l) for _, l in _FLAG_CORPUS) > 100

    def test_nilradical_checks_itself(self, monkeypatch):
        # Weights that all vanish would make t(2) its own nilradical, which
        # is not nilpotent: the check raises, under -O too.
        l = builtin("t(2)", GF(3))
        b, table, lam, weights = structure._flag_weights(l)
        zero = [[0] * l.dim for _ in weights]
        monkeypatch.setattr(structure, "_flag_weights", lambda a: (b, table, lam, zero))
        with pytest.raises(AssertionError, match="nilradical"):
            radicals(l)

    @pytest.mark.parametrize(
        "name, p, dims",
        [
            ("t(3)", 5, (1, 1, 4, 2)),
            ("n(4)", 5, (3, 3, 6, 1)),
            ("t(3)", 7, (1, 1, 4, 2)),
            ("heisenberg(3)", 2**31 - 1, (1, 1, 3, 1)),
            ("abelian(3)", 151, (0, 0, 3, 3)),
        ],
    )
    def test_past_the_subspace_gate(self, name, p, dims):
        # The first four are past the subspace gate, and the socle of the
        # last was a loop over pairs of its 45,908 ideals; with a budget of
        # 1 no listing can run, so these answers are the flag's.
        l = builtin(name, GF(p))
        start = time.perf_counter()
        profile = structure_profile(l, budget=1)
        assert time.perf_counter() - start < 2.0
        found = (profile.frattini_subalgebra, profile.frattini_ideal, profile.nilradical, profile.socle)
        assert tuple(u.dim for u in found) == dims
        assert profile.solvable_radical == l.full_space()
        nilrad = profile.nilradical
        assert l.is_ideal(nilrad) and is_nilpotent(l, nilrad)
        assert l.is_ideal(profile.frattini_ideal) and profile.frattini_ideal <= profile.frattini_subalgebra


class TestAlmostAbelian:
    def test_standard_witness(self):
        l = builtin("almost_abelian", Q, 3)
        w = almost_abelian_witness(l)
        assert w is not None
        derived = l.span_product(l.full_space(), l.full_space())
        for y in derived.vectors():
            assert l.bracket(w, y) == y
        assert is_almost_abelian(l)

    def test_scaled_witness(self):
        # [x, y] = 2y: the witness must be x / 2
        l = type(builtin("nonabelian2", Q))(Q, 2, ("x", "y"), {(0, 1): (0, 2)})
        w = almost_abelian_witness(l)
        assert w is not None
        assert w == vec(Q, ["1/2", "0"])

    def test_negative_cases(self, h3_q, sl2_q):
        assert almost_abelian_witness(builtin("abelian", Q, 2)) is None
        assert almost_abelian_witness(h3_q) is None
        assert almost_abelian_witness(sl2_q) is None
        # dimension one is excluded by convention
        assert almost_abelian_witness(builtin("abelian", Q, 1)) is None
        assert not is_almost_abelian(builtin("abelian", Q, 1))


class TestClassifier:
    def test_cube_zero_cases(self, h3_q, h3_gf2):
        for l in (h3_q, h3_gf2, builtin("abelian", Q, 3)):
            c = classify_line_cideals(l)
            assert c.case == CASE_CUBE_ZERO
            assert c.abelian_part is None
            assert c.almost_abelian_part is None

    def test_split_case_t2(self, t2_q):
        c = classify_line_cideals(t2_q)
        assert c.case == CASE_SPLIT
        assert c.abelian_part == t2_q.centre()
        assert c.almost_abelian_part is not None
        assert (c.abelian_part + c.almost_abelian_part) == t2_q.full_space()
        assert (c.abelian_part & c.almost_abelian_part).dim == 0
        alg, _, _ = restricted_algebra(t2_q, c.almost_abelian_part)
        assert is_almost_abelian(alg)
        assert c.scaling_vector is not None

    def test_split_case_direct_sum(self):
        l = builtin("abelian(1)+almost_abelian(3)", GF(5))
        c = classify_line_cideals(l)
        assert c.case == CASE_SPLIT
        assert c.abelian_part.dim == 1

    def test_pure_almost_abelian_is_split_with_zero_part(self):
        l = builtin("almost_abelian", GF(3), 4)
        c = classify_line_cideals(l)
        assert c.case == CASE_SPLIT
        assert c.abelian_part.dim == 0

    def test_neither(self, sl2_q, sl2_gf5):
        for l in (sl2_q, sl2_gf5, builtin("t", Q, 3)):
            assert classify_line_cideals(l).case == CASE_NEITHER

    def test_as_dict_serializable(self, t2_q):
        d = classify_line_cideals(t2_q).as_dict()
        json.dumps(d)
        assert d["case"] == CASE_SPLIT


class TestStructureProfile:
    def test_finite_field_profile(self, h3_gf2):
        p = structure_profile(h3_gf2)
        assert p.field == "GF(2)"
        assert p.dim == 3
        assert p.nilpotent and p.solvable and p.supersolvable and not p.abelian
        assert p.derived_length == 2
        assert p.nilpotency_class == 2
        assert p.derived_dims == (3, 1, 0)
        assert p.lower_central_dims == (3, 1, 0)
        assert p.centre == h3_gf2.centre()
        assert p.frattini_subalgebra == h3_gf2.centre()
        assert p.socle == h3_gf2.centre()

    def test_rational_profile_leaves_enumerative_fields_empty(self, h3_q):
        p = structure_profile(h3_q)
        assert p.frattini_subalgebra is None
        assert p.frattini_ideal is None
        assert p.socle is None
        assert p.nilradical is None
        assert p.solvable_radical is None
        # non-enumerative facts are still present
        assert p.nilpotent and p.supersolvable

    def test_as_dict_serializable(self, t2_gf2):
        d = structure_profile(t2_gf2).as_dict()
        json.dumps(d)
        assert d["dim"] == 3
        assert d["solvable"] is True
