import itertools
import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cideals import (
    BudgetExceeded,
    FieldNotFinite,
    GF,
    LieAlgebra,
    NotSubalgebra,
    Q,
    Subspace,
    builtin,
    cartan_subalgebras,
    catalog_algebras,
    core,
    direct_sum,
    enum_ideals,
    enum_subalgebras,
    enum_subspaces,
    frattini_of_subalgebra,
    gaussian_binomial,
    is_nilpotent,
    is_supersolvable,
    is_solvable,
    maximal_nilpotent_subalgebras,
    maximal_subalgebras,
    normalizer,
    one_dim_ideals,
    projective_points,
    radicals,
    random_solvable,
    restricted_algebra,
    subspace_count,
)
from cideals import lattice, liealg, linalg, structure
from cideals.harness import _spot_vectors
from cideals.lattice import (
    _core,
    _self_normalizing,
    first_line_ideal,
    ideal_line_families,
    point_line,
    subspace_points,
)
from cideals.liealg import (
    _nilpotent_on,
    _solvable_on,
    algebra_modulo,
    algebra_on,
    derived_subspace,
)

from oracles import (
    oracle_cartan_subalgebras,
    oracle_core,
    oracle_core_by_transporter,
    oracle_gaussian_binomial,
    oracle_is_ideal,
    oracle_is_subalgebra,
    oracle_line_families,
    oracle_maximal,
    oracle_maximal_nilpotent_subalgebras,
    oracle_nilpotent_on,
    oracle_radicals,
    oracle_self_normalizing,
    oracle_solvable_on,
    oracle_subalgebras,
    oracle_subspace_points,
    oracle_supersolvable,
)


def vec(field, coords):
    return tuple(field.scalar(x) for x in coords)


def span(l, *coords_list):
    return Subspace.from_vectors(l.field, l.dim, [vec(l.field, c) for c in coords_list])


class TestCounting:
    def test_gaussian_binomial_known(self):
        assert gaussian_binomial(4, 2, 2) == 35
        assert gaussian_binomial(4, 2, 3) == 130
        assert gaussian_binomial(3, 1, 2) == 7
        assert gaussian_binomial(3, 1, 5) == 31
        assert gaussian_binomial(5, 0, 2) == 1
        assert gaussian_binomial(5, 5, 2) == 1

    def test_subspace_count(self):
        assert subspace_count(3, 2) == 16
        assert subspace_count(4, 2) == 67
        assert subspace_count(3, 2, dims=(1,)) == 7

    @pytest.mark.parametrize("p", [2, 3, 5, 101, 2**31 - 1])
    def test_subspace_count_sums_the_gaussian_binomials(self, p):
        # gaussian_binomial reads one entry of subspace_count's row, so both
        # are checked against the product formula of the oracle.
        for n in range(9):
            assert subspace_count(n, p) == sum(oracle_gaussian_binomial(n, k, p) for k in range(n + 1))
            for dims in [(), (0,), (n,), (1, n - 1), (2, 2, 0), (-1, n + 1, 1), range(n + 3)]:
                want = sum(oracle_gaussian_binomial(n, k, p) for k in dims)
                assert subspace_count(n, p, dims) == want
            for k in range(-2, n + 3):
                assert gaussian_binomial(n, k, p) == oracle_gaussian_binomial(n, k, p)


class TestEnumSubspaces:
    def test_counts_match_formula(self):
        l = builtin("abelian", GF(2), 3)
        got = list(enum_subspaces(l))
        assert len(got) == 16
        assert len(set(got)) == 16
        for d in range(4):
            assert sum(1 for s in got if s.dim == d) == gaussian_binomial(3, d, 2)

    def test_dims_filter(self):
        l = builtin("abelian", GF(3), 3)
        lines = list(enum_subspaces(l, dims=(1,)))
        assert len(lines) == 13
        assert all(s.dim == 1 for s in lines)

    def test_deterministic_order(self):
        l = builtin("abelian", GF(2), 3)
        assert list(enum_subspaces(l)) == list(enum_subspaces(l))

    def test_budget_raises_before_first_yield(self):
        l = builtin("abelian", GF(2), 3)
        with pytest.raises(BudgetExceeded):
            enum_subspaces(l, budget=15)
        # equality with the budget is allowed
        assert len(list(enum_subspaces(l, budget=16))) == 16

    def test_infinite_field_rejected(self):
        l = builtin("abelian", Q, 2)
        with pytest.raises(FieldNotFinite):
            enum_subspaces(l)

    def test_all_returned_canonical(self):
        l = builtin("abelian", GF(3), 2)
        for s in enum_subspaces(l):
            assert Subspace.from_vectors(l.field, l.dim, list(s.vectors())) == s


class TestEnumClosedSets:
    def test_subalgebras_by_filter(self, h3_gf2):
        direct = [s for s in enum_subspaces(h3_gf2) if h3_gf2.is_subalgebra(s)]
        assert list(enum_subalgebras(h3_gf2)) == direct

    def test_ideals_by_filter(self, h3_gf2):
        direct = [s for s in enum_subspaces(h3_gf2) if h3_gf2.is_ideal(s)]
        got = list(enum_ideals(h3_gf2))
        assert got == direct
        assert len(got) == 6

    def test_sl2_simple(self, sl2_gf5):
        ideals = enum_ideals(sl2_gf5)
        assert [i.dim for i in ideals] == [0, 3]

    def test_results_cached(self, h3_gf2):
        assert enum_ideals(h3_gf2) is enum_ideals(h3_gf2)


def _search_corpus():
    """(id, algebra) pairs: the catalog within 10^5 subspaces over GF(2),
    GF(3) and GF(5) (sl2 among them over GF(3) and GF(5)), and random
    solvable algebras of the criterion-3 shape within 10^4 subspaces,
    each value once, and the lattice workload's two dense random solvable
    algebras (2,825 and 2,664 subspaces)."""
    out = []
    for p in (2, 3, 5):
        for cid, l in catalog_algebras(GF(p)):
            if subspace_count(l.dim, p) <= 10**5:
                out.append((f"{cid}/GF({p})", l))
        for seed in range(30):
            l = random_solvable(seed, GF(p), 3, 2 + seed % 4)
            if subspace_count(l.dim, p) <= 10**4 and all(l != m for _, m in out):
                out.append((f"random_solvable({seed})/GF({p})", l))
    for seed, p, steps in ((12, 2, 3), (13, 3, 2)):
        l = random_solvable(seed, GF(p), 4, steps)
        out.append((f"random_solvable({seed}, 4, {steps})/GF({p})", l))
    return out


def _made(monkeypatch, method: str, work) -> list:
    """The arguments of each LieAlgebra.<method> call that work() makes,
    rows as tuples."""
    made = []
    original = getattr(LieAlgebra, method)

    def recorded(self, *args):
        made.append(tuple(tuple(a) if isinstance(a, (list, tuple)) else a for a in args))
        return original(self, *args)

    with monkeypatch.context() as m:
        m.setattr(LieAlgebra, method, recorded)
        work()
    return made


def _fresh(l: LieAlgebra) -> LieAlgebra:
    # A value-equal copy that has not read any memo yet.
    n = l.dim
    pairs = {(i, j): l.structure_vector(i, j) for i in range(n) for j in range(i + 1, n)}
    return LieAlgebra(l.field, n, l.names, pairs)


_SEARCH_CORPUS = _search_corpus()
_SEARCH_IDS = [cid for cid, _ in _SEARCH_CORPUS]
_SEARCH_ALGEBRAS = [l for _, l in _SEARCH_CORPUS]


class TestPrunedSearch:
    """The row-by-row search against the filter over every subspace."""

    def test_corpus(self):
        assert "sl2/GF(3)" in _SEARCH_IDS and "sl2/GF(5)" in _SEARCH_IDS
        assert "t(3)/GF(3)" in _SEARCH_IDS and "heisenberg(5)/GF(5)" in _SEARCH_IDS
        assert "t(3)/GF(2)" in _SEARCH_IDS
        assert sum(cid.startswith("random") for cid in _SEARCH_IDS) >= 20
        assert len(set(_SEARCH_ALGEBRAS)) == len(_SEARCH_ALGEBRAS)

    @pytest.mark.parametrize("l", _SEARCH_ALGEBRAS, ids=_SEARCH_IDS)
    def test_matches_filter_and_pairwise_maximal(self, l):
        subalgebras = oracle_subalgebras(l)
        assert enum_subalgebras(l) == subalgebras
        assert enum_ideals(l) == tuple(u for u in subalgebras if oracle_is_ideal(l, u))
        assert maximal_subalgebras(l) == oracle_maximal(subalgebras, l.dim)
        assert maximal_nilpotent_subalgebras(l) == oracle_maximal_nilpotent_subalgebras(
            l, subalgebras
        )

    @pytest.mark.parametrize("l", _SEARCH_ALGEBRAS, ids=_SEARCH_IDS)
    def test_each_bracket_made_once_per_listing(self, monkeypatch, l):
        # The search's row-pair brackets and the ideal filter's [e_c, row]
        # are each made once.  Only the listings, the subspace count
        # checked against the budget and the search's brackets enter the
        # memo; the brackets are kept as tuples, keyed by their row pairs.
        monkeypatch.setattr(liealg, "_canonical", {})
        fresh = _fresh(l)
        brackets = _made(monkeypatch, "bracket_raw", lambda: enum_subalgebras(fresh))
        assert len(set(brackets)) == len(brackets)
        assert set(fresh._memo) == {("subspace_count", None), "subalgebras", "brackets"}
        kept = fresh._memo["brackets"]
        assert set(kept) == set(brackets)
        assert all(type(v) is tuple and v == tuple(fresh.bracket_raw(*k)) for k, v in kept.items())
        images = _made(monkeypatch, "ad_raw", lambda: enum_ideals(fresh))
        assert len(set(images)) == len(images)
        assert set(fresh._memo) == {("subspace_count", None), "subalgebras", "brackets", "ideals"}
        if l == builtin("t(3)", GF(2)):
            assert len(brackets) == 651

    def test_budget_still_counts_every_subspace(self):
        l = builtin("heisenberg", GF(2), 3)
        with pytest.raises(BudgetExceeded):
            enum_subalgebras(l, budget=subspace_count(3, 2) - 1)
        assert len(enum_subalgebras(l, budget=subspace_count(3, 2))) == 12


class TestMaximal:
    def test_h3_has_three_maximals(self, h3_gf2):
        ms = maximal_subalgebras(h3_gf2)
        assert len(ms) == 3
        assert all(m.dim == 2 for m in ms)
        z = vec(GF(2), [0, 0, 1])
        assert all(z in m for m in ms)

    def test_maximality_is_strict(self, t2_gf2):
        ms = maximal_subalgebras(t2_gf2)
        subs = enum_subalgebras(t2_gf2)
        for m in ms:
            assert m.dim < t2_gf2.dim
            bigger = [s for s in subs if m < s and s.dim < t2_gf2.dim]
            assert not bigger

    def test_abelian_maximals_are_hyperplanes(self):
        l = builtin("abelian", GF(3), 2)
        ms = maximal_subalgebras(l)
        assert len(ms) == 4  # the 4 lines of GF(3)^2
        assert all(m.dim == 1 for m in ms)

    def test_zero_dim_has_none(self):
        l = builtin("abelian", GF(2), 0)
        assert maximal_subalgebras(l) == ()


# Algebras with no flag of ideals: e(2) and e(2) + abelian(1) over GF(p)
# with p = 3 mod 4 (solvable, no line ideal in e(2)), and sl2 and
# sl2 + abelian(2).
_NO_FLAG = [
    *((name, p) for name in ("e(2)", "e(2)+abelian(1)") for p in (3, 7, 11)),
    *((name, p) for name in ("sl2", "sl2+abelian(2)") for p in (3, 5)),
]


def _no_flag_algebra(name: str, p: int) -> LieAlgebra:
    if name == "e(2)":
        return _e2(GF(p))
    if name == "e(2)+abelian(1)":
        return direct_sum(_e2(GF(p)), builtin("abelian(1)", GF(p)))
    return builtin(name, GF(p))


def _counting_maximal_among(monkeypatch) -> list:
    # Wrap lattice._maximal_among; the list grows by one per call.
    calls = []
    original = lattice._maximal_among

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(lattice, "_maximal_among", counted)
    return calls


class TestMaximalByCodimension:
    """With a flag of ideals the maximal subalgebras are the listed ones
    of codimension one; with none the pairwise filter still runs.  The
    two routes are compared with oracle_maximal on the search corpus in
    TestPrunedSearch, and on the algebras with no flag here."""

    @pytest.mark.parametrize("name, p", _NO_FLAG, ids=[f"{n}/GF({p})" for n, p in _NO_FLAG])
    def test_pairwise_route_matches_oracle(self, name, p):
        l = _no_flag_algebra(name, p)
        assert maximal_subalgebras(l) == oracle_maximal(oracle_subalgebras(l), l.dim)

    def test_filter_runs_only_without_a_flag(self, monkeypatch):
        monkeypatch.setattr(liealg, "_canonical", {})
        calls = _counting_maximal_among(monkeypatch)
        # sl2 over GF(3) and GF(5) is in both lists; each value runs once.
        corpus = _SEARCH_ALGEBRAS + [_no_flag_algebra(name, p) for name, p in _NO_FLAG]
        corpus = list(dict.fromkeys(corpus))
        routes = set()
        for l in corpus:
            before = len(calls)
            maximal_subalgebras(_fresh(l))
            supersolvable = oracle_supersolvable(l)
            routes.add(supersolvable)
            assert len(calls) - before == (0 if supersolvable else 1)
        assert routes == {True, False}

    def test_abelian_3_over_gf151_by_codimension(self, monkeypatch):
        monkeypatch.setattr(liealg, "_canonical", {})
        calls = _counting_maximal_among(monkeypatch)
        ms = maximal_subalgebras(builtin("abelian", GF(151), 3))
        assert len(ms) == 22953 == gaussian_binomial(3, 2, 151)
        assert all(m.dim == 2 for m in ms)
        assert calls == []


class TestMaximalNilpotent:
    def test_nilpotent_algebra_shortcut(self, h3_gf2):
        assert maximal_nilpotent_subalgebras(h3_gf2) == (h3_gf2.full_space(),)

    def test_sl2_gf3_all_lines(self):
        l = builtin("sl2", GF(3))
        ms = maximal_nilpotent_subalgebras(l)
        assert all(m.dim == 1 for m in ms)
        assert len(ms) == 13

    def test_members_maximal_among_nilpotent(self, t2_gf2):
        ms = maximal_nilpotent_subalgebras(t2_gf2)
        nil = [
            s
            for s in enum_subalgebras(t2_gf2)
            if is_nilpotent(t2_gf2, s)
        ]
        for m in ms:
            assert is_nilpotent(t2_gf2, m)
            assert not any(m < s for s in nil)
        # everything nilpotent sits inside some maximal one
        for s in nil:
            assert any(s <= m for m in ms)


class TestCartan:
    def test_sl2_gf5_cartans(self, sl2_gf5):
        cs = cartan_subalgebras(sl2_gf5)
        assert cs
        for c in cs:
            assert is_nilpotent(sl2_gf5, c)
            assert normalizer(sl2_gf5, c) == c
        toral = span(sl2_gf5, [0, 0, 1])
        assert toral in cs

    def test_nilpotent_algebra_is_its_own_cartan(self, h3_gf3):
        assert cartan_subalgebras(h3_gf3) == (h3_gf3.full_space(),)

    def test_matches_filter_over_all_subalgebras(self):
        algebras = [l for p in (2, 3) for _, l in catalog_algebras(GF(p), max_dim=4)]
        algebras.append(builtin("sl2", GF(5)))
        for p in (2, 3, 5):
            for s in range(30):
                l = random_solvable(s, GF(p), 3, 2)
                if subspace_count(l.dim, p) <= 3000:
                    algebras.append(l)
        assert len(algebras) > 90
        for l in algebras:
            assert cartan_subalgebras(l) == oracle_cartan_subalgebras(l)


class TestCoreAndNormalizer:
    def test_core_of_ideal_is_itself(self, h3_gf2):
        z = h3_gf2.centre()
        assert core(h3_gf2, z) == z

    def test_core_of_borel(self, sl2_gf5):
        borel = span(sl2_gf5, [1, 0, 0], [0, 0, 1])
        assert core(sl2_gf5, borel).dim == 0

    def test_core_matches_oracle_everywhere(self, t2_gf2, h3_gf2):
        for l in (t2_gf2, h3_gf2):
            for b in enum_subalgebras(l):
                assert core(l, b) == oracle_core(l, b)

    def test_core_matches_oracle_gf3_catalog_and_sl2_gf5(self):
        algebras = [l for _, l in catalog_algebras(GF(3), max_dim=4)] + [builtin("sl2", GF(5))]
        shrunk = 0
        for l in algebras:
            for b in enum_subalgebras(l):
                got = core(l, b)
                assert got == oracle_core(l, b)
                shrunk += got != b
        assert shrunk > 100

    def test_core_matches_transporter_route_over_q(self):
        # Series terms and their centralizers are ideals, so their core
        # is themselves; the basis lines and their centralizers need not be.
        shrunk = 0
        for _, l in catalog_algebras(Q):
            subalgebras = {Subspace.from_raw(l.field, l.dim, [r]) for r in l.full_space().rows}
            for series in (l.derived_series(), l.lower_central_series()):
                subalgebras.update(series.terms)
            subalgebras.update([l.centralizer(u) for u in subalgebras])
            for b in subalgebras:
                got = core(l, b)
                assert got == oracle_core_by_transporter(l, b)
                assert l.is_ideal(got) and got <= b
                shrunk += got.dim < b.dim
        assert shrunk > 10

    def test_core_requires_subalgebra(self, sl2_gf5):
        with pytest.raises(NotSubalgebra):
            core(sl2_gf5, span(sl2_gf5, [1, 0, 0], [0, 1, 0]))

    def test_normalizer_of_line(self, sl2_q):
        line_e = span(sl2_q, [1, 0, 0])
        assert normalizer(sl2_q, line_e) == span(sl2_q, [1, 0, 0], [0, 0, 1])

    def test_normalizer_of_ideal_is_full(self, h3_q):
        assert normalizer(h3_q, h3_q.centre()) == h3_q.full_space()


def _core_chain(l, b):
    """B_0 = b and B_(i+1) = B_i ∩ {x in L : [x, L] <= B_i}, up to and
    including its fixed point, by transporter solves over all of L."""
    full = l.full_space()
    chain = [b]
    while True:
        nxt = chain[-1] & l.transporter(full, chain[-1])
        if nxt == chain[-1]:
            return chain
        chain.append(nxt)


class TestCoreBracketCounts:
    """Each term B_i of the core iteration is a subalgebra, so [e_j, row]
    is made only at its non-pivot columns j: (n - dim B_i) dim B_i
    brackets per nonzero term, the fixed point included."""

    @pytest.mark.parametrize("p", [2, 3])
    def test_core_brackets_only_free_columns(self, monkeypatch, p):
        for _, l in catalog_algebras(GF(p), max_dim=4):
            for b in enum_subalgebras(l):
                chain = _core_chain(l, b)
                want = sum((l.dim - t.dim) * t.dim for t in chain)
                assert len(_made(monkeypatch, "ad_raw", lambda: _core(l, b))) == want
                assert _core(l, b) == chain[-1]


def _filter_corpus():
    """(id, algebra) pairs: the catalog to dimension 5 over GF(2), GF(3)
    and GF(5), and the first 24 random solvable algebras of the
    criterion-3 shape within 3000 subspaces, the prime cycling with the
    seed."""
    out = [
        (f"{cid}/GF({p})", l) for p in (2, 3, 5) for cid, l in catalog_algebras(GF(p), max_dim=5)
    ]
    seed = found = 0
    while found < 24:
        p = (2, 3, 5)[seed % 3]
        l = random_solvable(seed, GF(p), 3, 2 + seed % 4)
        if subspace_count(l.dim, p) <= 3000:
            out.append((f"random_solvable({seed})/GF({p})", l))
            found += 1
        seed += 1
    return out


_FILTER_CORPUS = _filter_corpus()


class TestTrustedFilters:
    """The lattice filters' trusted forms against independent oracles on
    every subalgebra, and the public forms' checks."""

    @pytest.mark.parametrize(
        "l", [l for _, l in _FILTER_CORPUS], ids=[cid for cid, _ in _FILTER_CORPUS]
    )
    def test_trusted_forms_match_oracles(self, l):
        for u in enum_subalgebras(l):
            nilpotent, solvable = oracle_nilpotent_on(l, u), oracle_solvable_on(l, u)
            assert _nilpotent_on(l, u) == is_nilpotent(l, u) == nilpotent
            assert _solvable_on(l, u) == is_solvable(l, u) == solvable
            assert _self_normalizing(l, u) == oracle_self_normalizing(l, u)
            assert algebra_on(l, u) == l.restrict(u)[0]

    def test_corpus(self):
        ids = [cid for cid, _ in _FILTER_CORPUS]
        assert sum(cid.startswith("random") for cid in ids) == 24
        assert "heisenberg(5)/GF(5)" in ids and "sl2/GF(5)" in ids

    @pytest.mark.parametrize("name", ["heisenberg(3)", "abelian(1)+nonabelian2", "sl2", "t(2)"])
    def test_public_forms_reject_open_subspaces(self, name):
        l = builtin(name, GF(3))
        assert is_nilpotent(l) == (name == "heisenberg(3)")
        maximal_nilpotent_subalgebras(l)  # the trusted forms have run
        open_subspaces = [u for u in enum_subspaces(l) if not oracle_is_subalgebra(l, u)]
        assert open_subspaces
        for u in open_subspaces:
            for public in (is_nilpotent, is_solvable, frattini_of_subalgebra):
                with pytest.raises(NotSubalgebra):
                    public(l, u)

    def test_zero_subspace_answers_before_any_check(self):
        l = builtin("sl2", GF(3))
        zero = Subspace.zero(GF(5), 7)
        assert is_nilpotent(l, zero) and is_solvable(l, zero)


class TestTableRoute:
    """Nilpotency and solvability of a subalgebra are read from its
    structure table: after the listing nothing is bracketed or made
    canonical, and inputs that no listing reaches agree with the oracles."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: builtin("t(3)", GF(2)),
            lambda: random_solvable(12, GF(2), 4, 3),
            lambda: random_solvable(13, GF(3), 4, 2),
            lambda: builtin("sl2", GF(5)),
        ],
        ids=["t(3)/GF(2)", "random_solvable(12, 4, 3)/GF(2)", "random_solvable(13, 4, 2)/GF(3)", "sl2/GF(5)"],
    )
    def test_listed_subalgebras_make_no_bracket_and_no_algebra(self, monkeypatch, make):
        # radicals of an L with a flag of ideals reads the flag's weights,
        # which brackets the flag's basis but lists no ideal; sl2 has no
        # flag and decides its listed ideals on their tables.
        monkeypatch.setattr(liealg, "_canonical", {})
        l = make()
        assert not is_nilpotent(l)
        enum_subalgebras(l)
        made = []
        bracket_raw, canonical, listed = LieAlgebra.bracket_raw, liealg.canonical, structure.enum_ideals
        with monkeypatch.context() as m:
            m.setattr(LieAlgebra, "bracket_raw", lambda s, u, v: made.append("bracket_raw") or bracket_raw(s, u, v))
            m.setattr(liealg, "canonical", lambda a: made.append("canonical") or canonical(a))
            m.setattr(structure, "enum_ideals", lambda *a: made.append("enum_ideals") or listed(*a))
            nilpotents = maximal_nilpotent_subalgebras(l)
            assert made == []
            found = radicals(l)
        if is_supersolvable(l):
            assert "enum_ideals" not in made
        else:
            assert made == ["enum_ideals"]
        assert (nilpotents, found) == (oracle_maximal_nilpotent_subalgebras(l, oracle_subalgebras(l)), oracle_radicals(l))

    def test_rational_subalgebras_no_listing_reaches(self):
        rng = random.Random(7)
        for _, l in catalog_algebras(Q):
            closures = [
                l.subalgebra_closure(Subspace.span(Q, l.dim, [[rng.randint(-2, 2) for _ in range(l.dim)] for _ in "xy"]))
                for _ in range(6)
            ]
            terms = l.derived_series().terms + l.lower_central_series().terms
            for u in (*terms, l.centre(), *closures):
                nilpotent, solvable = oracle_nilpotent_on(l, u), oracle_solvable_on(l, u)
                assert _nilpotent_on(l, u) == is_nilpotent(l, u) == nilpotent
                assert _solvable_on(l, u) == is_solvable(l, u) == solvable

    @pytest.mark.parametrize("p", [2, 3])
    def test_public_forms_on_a_cold_memo(self, monkeypatch, p):
        for cid, l in catalog_algebras(GF(p), max_dim=4):
            subalgebras = oracle_subalgebras(l)
            monkeypatch.setattr(liealg, "_canonical", {})
            cold = builtin(cid, GF(p))
            for u in subalgebras:
                assert is_nilpotent(cold, u) == oracle_nilpotent_on(l, u)
                assert is_solvable(cold, u) == oracle_solvable_on(l, u)
            assert not {"subalgebras", "brackets"} & set(cold._memo or ())


def _benchmark_universe():
    """(id, algebra) pairs: every algebra of the benchmark's lattice
    workload (its fixed algebras and its random solvable pools) and of its
    sweep (the catalog to dimension 4 over GF(2) and GF(3), and sl2/GF(5))."""
    out = [(f"{name}/GF({p})", builtin(name, GF(p))) for name, p in (("heisenberg(5)", 2), ("t(3)", 2), ("n(4)", 2), ("heisenberg(5)", 3))]
    pools = {(2, 2): (0, 10, 12, 21, 23, 25, 26, 28, 33, 37, 44, 53, 67, 71, 75, 77), (2, 3): (12,), (3, 2): (13,)}
    for (p, target), seeds in pools.items():
        out += [(f"random_solvable({s}, 4, {target})/GF({p})", random_solvable(s, GF(p), 4, target)) for s in seeds]
    out += [(f"{cid}/GF({p})", l) for p in (2, 3) for cid, l in catalog_algebras(GF(p), max_dim=4)]
    return out + [("sl2/GF(5)", builtin("sl2", GF(5)))]


_BENCHMARK_UNIVERSE = _benchmark_universe()


def _traces(l, u) -> list:
    # tr ad_u(r) for each canonical row r of u, from u's own algebra.
    s = l.restrict(u)[0]
    return [sum(s.ad_matrix(e).entry(i, i).value for i in range(s.dim)) % l.field.p for e in s.basis()]


class TestNilpotencyShortcuts:
    """A subalgebra of dimension <= 2 is answered from its one bracket, and
    a nonzero trace of ad_u rules out nilpotency before any elimination;
    both against the oracle on every subalgebra of the benchmark's
    algebras."""

    @pytest.mark.parametrize("l", [l for _, l in _BENCHMARK_UNIVERSE], ids=[cid for cid, _ in _BENCHMARK_UNIVERSE])
    def test_rules_match_the_oracle(self, l):
        for u in enum_subalgebras(l):
            nilpotent = oracle_nilpotent_on(l, u)
            assert _nilpotent_on(l, u) == nilpotent
            assert _solvable_on(l, u) == oracle_solvable_on(l, u)
            if u.dim == 2:
                assert nilpotent == (l.span_product(u, u).dim == 0)
            if any(_traces(l, u)):
                assert not nilpotent

    def test_traceless_with_a_nonzero_diagonal(self):
        # heisenberg(3) on x, y, x + z beside nonabelian2: on those rows
        # ad(y) has diagonal (1, 0, -1), so the trace must add the pairs'
        # entries with opposite signs to read 0 and leave u nilpotent.
        for p in (2, 3, 5):
            l = LieAlgebra(GF(p), 5, None, {(0, 1): [-1, 0, 1, 0, 0], (1, 2): [1, 0, -1, 0, 0], (3, 4): [0, 0, 0, 0, 1]})
            u = Subspace.span(GF(p), 5, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0]])
            assert not l.validate() and not is_nilpotent(l)
            assert _nilpotent_on(l, u) and is_nilpotent(l, u) and oracle_nilpotent_on(l, u)

    def test_both_rules_fire(self):
        # Counted over the lattice workload's first non-nilpotent algebra.
        l = builtin("t(3)", GF(2))
        subalgebras = enum_subalgebras(l)
        planes = [u for u in subalgebras if u.dim == 2]
        traced = [u for u in subalgebras if u.dim > 2 and any(_traces(l, u))]
        assert any(l.span_product(u, u).dim for u in planes) and any(l.span_product(u, u).dim == 0 for u in planes)
        assert traced


class TestCartanWeights:
    """With a flag of ideals, a nilpotent u is self-normalizing exactly
    when dim u is the number of the flag's weights vanishing on u."""

    @pytest.mark.parametrize("p", [2, 3])
    def test_weight_count_matches_the_solve(self, p):
        algebras = [l for _, l in catalog_algebras(GF(p), max_dim=5)]
        algebras += [random_solvable(s, GF(p), 3, 2 + s % 4) for s in range(12)]
        checked = 0
        for l in algebras:
            weights = lattice._flag_weights(l)
            if weights is None or subspace_count(l.dim, p) > 3000:
                continue
            for u in enum_subalgebras(l):
                if oracle_nilpotent_on(l, u):
                    vanishing = sum(all(sum(a * b for a, b in zip(w, r)) % p == 0 for r in u.rows) for w in weights[3])
                    assert (vanishing == u.dim) == _self_normalizing(l, u, weights) == _self_normalizing(l, u)
                    checked += 1
        assert checked > 500


@st.composite
def _points_case(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    n = draw(st.integers(1, 5))
    rows = st.lists(st.tuples(*[st.integers(0, p - 1)] * n), max_size=n)
    return p, Subspace.from_raw(GF(p), n, draw(rows))


class TestSubspacePoints:
    @given(_points_case())
    def test_points_are_complete_distinct_and_in_pivot_row_order(self, case):
        p, u = case
        points = list(subspace_points(p, u))
        assert len(set(points)) == len(points)
        assert set(points) == oracle_subspace_points(p, u)
        key = [(next(i for i, x in enumerate(v) if x), v) for v in points]
        assert key == sorted(key)
        assert points[:1] == list(u.rows[:1])

    def test_full_space_points_are_the_projective_points(self):
        # A unit row leads; the tails follow in product order.
        for p in (2, 3, 5, 7, 101):
            for n in range(5 if p < 101 else 4):
                points = list(subspace_points(p, Subspace.full(GF(p), n)))
                want = [
                    (0,) * lead + (1,) + tail
                    for lead in range(n)
                    for tail in itertools.product(range(p), repeat=n - 1 - lead)
                ]
                assert points == want

    @staticmethod
    def _first_point_peak(make) -> int:
        tracemalloc.start()
        try:
            next(make())
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_first_point_holds_nothing_of_size_p(self):
        # A table of p multiples per row would take megabytes here.
        p = 100003
        u = Subspace.from_raw(GF(p), 3, [(1, 2, 3), (0, 1, 5)])
        assert self._first_point_peak(lambda: subspace_points(p, u)) < 1_000_000
        assert self._first_point_peak(lambda: projective_points(GF(p), 3)) < 1_000_000

    @pytest.mark.parametrize(
        "name, p, shape",
        [("abelian(3)", 101, [3]), ("t(2)+abelian(2)", 31, [1, 3]), ("almost_abelian(3)+abelian(2)", 31, [2, 2])],
    )
    def test_one_dim_ideals_are_the_family_points_sorted(self, name, p, shape):
        l = builtin(name, GF(p))
        families = ideal_line_families(l)
        assert sorted(f.dim for f in families) == shape
        expected = sorted(
            (Subspace.from_raw(l.field, l.dim, [x]) for f in families for x in oracle_subspace_points(p, f)),
            key=Subspace.sort_key,
        )
        lines = one_dim_ideals(l)
        assert lines == tuple(expected)
        assert [s.pivots for s in lines] == [s.pivots for s in expected]
        assert first_line_ideal(l) == lines[0]

    def test_one_family_is_listed_with_no_merge_and_one_pivot_tuple_per_column(self, monkeypatch):
        # abelian(3) has the one family L, whose rows are unit rows, so the
        # last row's run is the (*pre, t, *post) generator.
        def no_merge(*args, **kwargs):
            raise AssertionError("heapq.merge called for one family")

        l = builtin("abelian(3)", GF(5))
        monkeypatch.setattr(lattice.heapq, "merge", no_merge)
        lines = one_dim_ideals(l)
        assert [s.rows[0] for s in lines] == list(subspace_points(5, l.full_space()))
        assert len({id(s.pivots) for s in lines}) == len({s.pivots for s in lines}) == 3

    @pytest.mark.parametrize("name", ["abelian(3)", "t(2)+abelian(2)"])
    def test_first_line_ideal_holds_nothing_of_size_p(self, name):
        l = builtin(name, GF(2**31 - 1))
        ideal_line_families(l)
        assert self._first_point_peak(lambda: iter([first_line_ideal(l)])) < 1_000_000


def _e2(field):
    # e(2), the solvable algebra of tests/test_structure.py: [x, a1] = a2,
    # [x, a2] = -a1.
    return LieAlgebra(field, 3, ["x", "a1", "a2"], {(0, 1): [0, 0, 1], (0, 2): [0, -1, 0]})


def _rational_solvable(s):
    # The closure of two seeded vectors of t(4) over Q, as the benchmark's
    # rational part builds it.
    t4 = builtin("upper_triangular", Q, 4)
    rng = random.Random(f"qsolvable/{s}")
    vecs = [
        tuple(Q.scalar(rng.choice((-1, 0, 0, 0, 1, 2))) for _ in range(t4.dim))
        for _ in range(2)
    ]
    closed = t4.subalgebra_closure(Subspace.from_vectors(Q, t4.dim, vecs))
    return restricted_algebra(t4, closed)[0]


def _with_quotients(l):
    # l, then l modulo its centre and modulo [l, l] when those are proper.
    out = [l]
    for ideal in (l.centre(), derived_subspace(l)):
        if 0 < ideal.dim < l.dim:
            out.append(algebra_modulo(l, ideal))
    return out


class TestLineFamilies:
    """The families from C_L([L, L]) and a complement of [L, L] are the
    joint eigenspaces of every basis vector's adjoint map."""

    @pytest.mark.parametrize("field", [GF(2), GF(3), GF(5), Q], ids=str)
    def test_match_the_basis_recursion_on_the_catalog(self, field):
        for _, l in catalog_algebras(field):
            for a in _with_quotients(l):
                assert ideal_line_families(a) == oracle_line_families(a)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_match_the_basis_recursion_on_random_solvable(self, p):
        for s in range(12):
            l = random_solvable(s, GF(p), 3 + s % 2, 2 + s % 4)
            for a in _with_quotients(l):
                assert ideal_line_families(a) == oracle_line_families(a)

    @pytest.mark.parametrize("p", [3, 7, 11])
    def test_match_where_a_restricted_char_poly_has_no_root(self, p):
        # p = 3 mod 4, so ad(x) acts on span(a1, a2) of e(2) by t^2 + 1,
        # which has no root in GF(p): e(2) has no family, and each sum
        # keeps only its other summand's.
        e2 = _e2(GF(p))
        for other in (None, "abelian(1)", "heisenberg(3)"):
            l = e2 if other is None else direct_sum(e2, builtin(other, GF(p)))
            for a in _with_quotients(l):
                assert ideal_line_families(a) == oracle_line_families(a)
        assert ideal_line_families(e2) == ()

    def test_match_on_rational_solvable_closures(self):
        dims = set()
        for s in range(16):
            l = _rational_solvable(s)
            dims.add(l.dim)
            assert ideal_line_families(l) == oracle_line_families(l)
        assert dims == {3, 4, 5, 6, 7, 8}

    @pytest.mark.parametrize("name", ["heisenberg(3)", "t(2)", "t(3)"])
    def test_match_at_the_largest_prime(self, name):
        l = builtin(name, GF(2**31 - 1))
        assert ideal_line_families(l) == oracle_line_families(l)

    @pytest.mark.parametrize(
        "make, dim",
        [(lambda: builtin("t(3)", Q), 6), (lambda: _rational_solvable(0), 7)],
        ids=["t(3)/Q", "qrs(0)"],
    )
    def test_factored_on_the_families_only(self, make, dim, monkeypatch):
        # Every char poly is of a family's restriction, no bigger than
        # C_L([L, L]), and no two subspaces are met.
        monkeypatch.setattr(liealg, "_canonical", {})
        l = make()
        bound = l.centralizer(derived_subspace(l)).dim
        sizes, meets = [], []
        char_poly, sum_and_meet = lattice.raw_char_poly, linalg.raw_sum_and_meet

        def counted_char_poly(p, rows):
            sizes.append((len(rows), {len(r) for r in rows}))
            return char_poly(p, rows)

        def counted_sum_and_meet(*args):
            meets.append(args)
            return sum_and_meet(*args)

        monkeypatch.setattr(lattice, "raw_char_poly", counted_char_poly)
        monkeypatch.setattr(linalg, "raw_sum_and_meet", counted_sum_and_meet)
        families = ideal_line_families(l)
        assert families and sizes and not meets
        assert all(n <= bound and widths <= {n} for n, widths in sizes)
        assert l.dim == dim and bound < dim

    def test_point_line_is_the_reduced_line(self):
        for p in (2, 3, 5):
            f = GF(p)
            for n in range(1, 5):
                for x in subspace_points(p, Subspace.full(f, n)):
                    got, want = point_line(f, x), Subspace.from_raw(f, n, [x])
                    assert (got.rows, got.pivots) == (want.rows, want.pivots)
        for _, l in catalog_algebras(Q):
            for space in (l.full_space(), derived_subspace(l)):
                for x in _spot_vectors(space):
                    got, want = point_line(Q, x), Subspace.from_raw(Q, l.dim, [x])
                    assert (got.rows, got.pivots) == (want.rows, want.pivots)


class TestLines:
    def test_projective_point_count(self):
        pts = list(projective_points(GF(3), 3))
        assert len(pts) == 13
        assert len(set(pts)) == 13
        # canonical: first nonzero coordinate is 1
        for p in pts:
            lead = next(s for s in p if s)
            assert lead.value == 1

    def test_projective_points_dim_zero(self):
        assert list(projective_points(GF(2), 0)) == []

    def test_one_dim_ideals_gf_matches_filter(self, h3_gf2, t2_gf2, sl2_gf5):
        # Families of dimension >= 2 (abelian(3), the centre of
        # heisenberg(3)+abelian(1), t(2)+abelian(1)) list every line.
        algebras = [h3_gf2, t2_gf2, sl2_gf5]
        for p in (2, 3, 5):
            for name in ("abelian(3)", "heisenberg(3)+abelian(1)", "t(2)+abelian(1)"):
                algebras.append(builtin(name, GF(p)))
        for seed in range(4):
            algebras.append(random_solvable(seed, GF(2), 3, 4))
            algebras.append(random_solvable(seed, GF(3), 3, 3))
        for l in algebras:
            direct = sorted(
                (s for s in enum_subspaces(l, dims=(1,)) if l.is_ideal(s)),
                key=Subspace.sort_key,
            )
            assert list(one_dim_ideals(l)) == direct

    def test_one_dim_ideals_budget(self):
        # abelian(2) over GF(5) has 6 lines, all ideals
        l = builtin("abelian(2)", GF(5))
        assert len(one_dim_ideals(l, budget=6)) == 6
        with pytest.raises(BudgetExceeded):
            one_dim_ideals(l, budget=5)
        with pytest.raises(BudgetExceeded):
            one_dim_ideals(l, budget=0)
        # the count is summed over the families: t(2)+abelian(1) over GF(3)
        l = builtin("t(2)+abelian(1)", GF(3))
        count = len(one_dim_ideals(l))
        assert one_dim_ideals(l, budget=count) == one_dim_ideals(l)
        with pytest.raises(BudgetExceeded):
            one_dim_ideals(l, budget=count - 1)

    def test_one_dim_ideals_h3_q(self, h3_q):
        got = one_dim_ideals(h3_q)
        assert got == (h3_q.centre(),)

    def test_one_dim_ideals_are_ideals_q(self, aa3_q, t2_q, sl2_q):
        for l in (aa3_q, t2_q, sl2_q):
            for s in one_dim_ideals(l):
                assert s.dim == 1
                assert l.is_ideal(s)

    def test_one_dim_ideals_simple_q(self, sl2_q):
        assert one_dim_ideals(sl2_q) == ()
