"""The one owner of derived objects: a memo shared by value-equal algebras.

Each algebra value has a canonical instance, the first one seen, held in
``liealg._canonical`` and dropped oldest-first past ``_CANONICAL_CAP``;
its memo dict is read by every value-equal algebra.  A warm memo must
never answer a call that is over budget, sharing must leave equality
and hashing alone, and the cap must bound the table without changing
any answer.  c-ideal verdicts live there too, one per (subalgebra,
budget), and must match the verdicts of a cold table.
"""

import pytest

from cideals import (
    GF,
    Q,
    YES,
    AmbientMismatch,
    BudgetExceeded,
    FieldMismatch,
    LieAlgebra,
    NotSubalgebra,
    Subspace,
    abelian_socle,
    builtin,
    catalog_algebras,
    enum_ideals,
    enum_subalgebras,
    enum_subspaces,
    frattini,
    frattini_of_subalgebra,
    is_cideal,
    is_cideal_by_scan,
    is_supersolvable,
    maximal_nilpotent_subalgebras,
    maximal_subalgebras,
    radicals,
    subspace_count,
    upper_central_series,
    verify_certificate,
)
from cideals import cideal, lattice, liealg
from cideals.liealg import SERIES_KINDS
from cideals.lattice import _upper_central

from oracles import (
    oracle_frattini,
    oracle_is_ideal,
    oracle_maximal_nilpotent_subalgebras,
    oracle_subalgebras,
    oracle_supersolvable,
)

_WHOLE = [
    enum_subalgebras,
    enum_ideals,
    maximal_subalgebras,
    maximal_nilpotent_subalgebras,
    frattini,
    radicals,
    abelian_socle,
]


@pytest.fixture
def empty_table(monkeypatch):
    monkeypatch.setattr(liealg, "_canonical", {})
    return liealg._canonical


def _t2():
    # Not nilpotent, so maximal_nilpotent_subalgebras reaches its budget check.
    return builtin("t(2)", GF(3))


def _sl2():
    # No flag of ideals, so maximal_subalgebras keeps the pairwise filter.
    return builtin("sl2", GF(3))


# With a flag of ideals these read the flag's weights: no listing, no budget.
_FLAG_ROUTES = (frattini, radicals, abelian_socle)


class TestWarmMemoKeepsTheBudget:
    # t(2) takes the flag route of maximal_subalgebras, sl2 the pairwise one.
    @pytest.mark.parametrize("make", [_t2, _sl2], ids=["t(2)", "sl2"])
    @pytest.mark.parametrize("fn", _WHOLE, ids=lambda fn: fn.__name__)
    def test_whole_algebra(self, empty_table, fn, make):
        l = make()
        limit = subspace_count(l.dim, l.field.p)
        answer = fn(l)
        if make is _t2 and fn in _FLAG_ROUTES:
            assert fn(l, budget=1) == fn(make(), budget=1) == answer
            return
        with pytest.raises(BudgetExceeded):
            fn(l, budget=limit - 1)
        with pytest.raises(BudgetExceeded):
            fn(make(), budget=limit - 1)
        assert fn(make(), budget=limit) == answer

    def test_subspace_count_is_kept_and_still_compared(self, empty_table, monkeypatch):
        # The count is made once per algebra value and dims; a memo hit
        # compares it with the call's own budget, with the same message.
        made = []
        count = lattice.subspace_count

        def counting(n, p, dims=None):
            made.append(dims)
            return count(n, p, dims)

        monkeypatch.setattr(lattice, "subspace_count", counting)
        l = _t2()
        for fn in (enum_subalgebras, enum_ideals, maximal_subalgebras):
            fn(l)
            fn(_t2())
        list(enum_subspaces(l, dims=1))
        list(enum_subspaces(_t2(), dims=(1,)))
        assert made == [None, (1,)]

        def lines(a, budget):
            return enum_subspaces(a, 1, budget)

        for dims, call in ((None, enum_ideals), ((1,), lines)):
            limit = count(l.dim, l.field.p, dims)
            with pytest.raises(BudgetExceeded) as raised:
                call(_t2(), budget=limit - 1)
            want = f"{limit} subspaces of GF(3)^3 exceed the budget of {limit - 1}"
            assert str(raised.value) == want
        assert made == [None, (1,)]

    def test_frattini_of_subalgebra(self, empty_table):
        # sl2 itself has no flag of ideals, so F(u) is listed and the budget
        # is checked against the subspaces of u, memo hit or not.
        l = _sl2()
        u = l.full_space()
        limit = subspace_count(u.dim, l.field.p)
        answer = frattini_of_subalgebra(l, u)
        with pytest.raises(BudgetExceeded):
            frattini_of_subalgebra(l, u, budget=limit - 1)
        with pytest.raises(BudgetExceeded):
            frattini_of_subalgebra(_sl2(), u, budget=limit - 1)
        assert frattini_of_subalgebra(_sl2(), u, budget=limit) == answer
        # Each subalgebra of t(2) has a flag: F(u) is read off its weights,
        # cold, with no budget charged, as frattini(u) is.
        l = _t2()
        for u in maximal_subalgebras(l) + (l.full_space(),):
            empty_table.clear()
            answer = frattini_of_subalgebra(_t2(), u, budget=1)
            assert answer == u.from_coords(oracle_frattini(l.restrict(u)[0]))


class TestSharing:
    def test_value_equal_algebra_reads_the_same_memo(self, empty_table, monkeypatch):
        first = builtin("heisenberg(3)+abelian(1)", GF(3))
        ideals = enum_ideals(first)
        other = builtin("heisenberg(3)+abelian(1)", GF(3))
        assert other is not first and other._memo is None
        before = hash(other)
        calls = [0]
        is_ideal = LieAlgebra.is_ideal

        def counting(self, u):
            calls[0] += 1
            return is_ideal(self, u)

        monkeypatch.setattr(LieAlgebra, "is_ideal", counting)
        assert enum_ideals(other) == ideals
        assert calls[0] == 0
        assert other._memo is first._memo
        assert other == first and hash(other) == before == hash(first)
        assert len(empty_table) == 1

    def test_algebras_on_subalgebras_are_canonical(self, empty_table):
        l = builtin("t(2)", GF(3))
        on = [liealg.algebra_on(l, u) for u in enum_subalgebras(l)]
        # value-equal restrictions of different subalgebras are one object
        assert len({id(alg) for alg in on}) == len(set(on)) < len(on)
        for u, alg in zip(enum_subalgebras(l), on):
            assert liealg.algebra_on(builtin("t(2)", GF(3)), u) is alg
            assert alg == l.restrict(u)[0]
        for i in enum_ideals(l):
            assert liealg.algebra_modulo(l, i) == l.quotient(i)[0]

    @pytest.mark.parametrize("name", ["t(3)", "sl2", "heisenberg(5)", "almost_abelian(4)"])
    def test_one_algebra_built_per_distinct_table(self, empty_table, monkeypatch, name):
        l = builtin(name, GF(3))
        subalgebras = enum_subalgebras(l)
        tables = {l.restrict(u)[0] for u in subalgebras}
        built = []
        from_raw = LieAlgebra._from_raw

        def counted(cls, *args):
            built.append(None)
            return from_raw(*args)

        with monkeypatch.context() as m:
            m.setattr(LieAlgebra, "_from_raw", classmethod(counted))
            on = [liealg.algebra_on(l, u) for u in subalgebras]
            again = [liealg.algebra_on(builtin(name, GF(3)), u) for u in subalgebras]
        assert len(built) == len(tables) == len(set(on)) < len(subalgebras)
        assert all(a is b for a, b in zip(on, again))


class TestSeries:
    """L's own derived, lower and upper central series are made once per
    algebra value and equal a fresh computation."""

    @pytest.mark.parametrize("field", [GF(2), GF(3), Q], ids=str)
    def test_made_once_per_value(self, empty_table, field):
        for cid, l in catalog_algebras(field):
            for kind in SERIES_KINDS:
                first = l.series(kind)
                assert l.series(kind) is first
                assert builtin(cid, field).series(kind) is first
                assert first == l.series(kind, l.full_space())
            assert l.derived_series() is l.series("derived")
            assert l.lower_central_series() is l.series("lower_central")
            upper = upper_central_series(l)
            assert upper_central_series(builtin(cid, field)) is upper
            assert upper == _upper_central(l)


class TestCap:
    def test_oldest_entry_is_dropped(self, empty_table, monkeypatch):
        monkeypatch.setattr(liealg, "_CANONICAL_CAP", 2)
        a, b, c = (builtin("abelian", GF(2), k) for k in (1, 2, 3))
        for alg in (a, b, c):
            assert liealg.canonical(alg) is alg
        assert list(empty_table) == [b, c]
        again = builtin("abelian", GF(2), 1)
        assert liealg.canonical(again) is again
        assert a._memo is not None and a._memo is not again._memo
        assert list(empty_table) == [c, again]

    def test_table_stays_within_the_cap(self, monkeypatch):
        def algebras():
            return [l for _, l in catalog_algebras(GF(2), max_dim=4)]

        expected = []
        for l in algebras():
            subalgebras = oracle_subalgebras(l)
            expected.append(
                (
                    tuple(u for u in subalgebras if oracle_is_ideal(l, u)),
                    oracle_maximal_nilpotent_subalgebras(l, subalgebras),
                    oracle_supersolvable(l),
                )
            )
        cap = 3
        monkeypatch.setattr(liealg, "_canonical", {})
        monkeypatch.setattr(liealg, "_CANONICAL_CAP", cap)
        fresh = algebras()
        assert len(set(fresh)) > cap
        for _ in range(2):  # cold, then on the memos the algebras still hold
            for l, want in zip(fresh, expected):
                got = (enum_ideals(l), maximal_nilpotent_subalgebras(l), is_supersolvable(l))
                assert got == want
                assert len(liealg._canonical) <= cap


def _verdict_corpus():
    corpus = [l for p in (2, 3) for _, l in catalog_algebras(GF(p), max_dim=4)]
    return corpus + [builtin("sl2", GF(5))]


def _borel(l):
    # span{e, h} in sl2: a subalgebra, not an ideal, with core 0, so its
    # verdict enumerates the ideals of all of sl2.
    return Subspace.span(l.field, 3, [[1, 0, 0], [0, 0, 1]])


class TestCidealVerdicts:
    """``is_cideal`` keeps each verdict in the algebra's memo under
    (subalgebra, budget)."""

    def test_memoized_verdicts_match_a_cold_table(self, empty_table, monkeypatch):
        warm = {}
        for l in _verdict_corpus():
            for b in enum_subalgebras(l):
                first = is_cideal(l, b)
                assert is_cideal(l, b) is first
                warm[(l, b)] = first
                if first.answer == YES:
                    assert verify_certificate(l, b, first.certificate)
        monkeypatch.setattr(liealg, "_canonical", {})
        for l in _verdict_corpus():
            for b in enum_subalgebras(l):
                assert is_cideal(l, b).as_dict() == warm[(l, b)].as_dict()

    def test_each_algebra_keeps_its_own_verdicts(self, empty_table):
        # The same subspace asked of many algebras in a row: every answer
        # must be that algebra's own, and some subspaces get both answers.
        corpus = [l for _, l in catalog_algebras(GF(3), max_dim=3)]
        mixed = 0
        for n in {l.dim for l in corpus}:
            for b in enum_subalgebras(builtin("abelian", GF(3), n)):
                answers = set()
                for l in corpus:
                    if l.dim == n and l.is_subalgebra(b):
                        answers.add(is_cideal(l, b).answer)
                        assert is_cideal(l, b).answer == is_cideal_by_scan(l, b).answer
                mixed += len(answers) > 1
        assert mixed > 0

    def test_value_equal_copy_reads_the_verdict(self, empty_table, monkeypatch):
        calls = []
        decide = cideal._is_cideal

        def counting(l, b, budget):
            calls.append((l, b, budget))
            return decide(l, b, budget)

        monkeypatch.setattr(cideal, "_is_cideal", counting)
        first = builtin("sl2", GF(5))
        verdict = is_cideal(first, _borel(first))
        copy = builtin("sl2", GF(5))
        assert copy is not first and copy._memo is None
        assert is_cideal(copy, _borel(copy)) is verdict
        assert len(calls) == 1

    def test_budget_is_part_of_the_key(self, empty_table):
        l = builtin("sl2", GF(5))
        limit = subspace_count(3, 5)
        verdict = is_cideal(l, _borel(l), budget=limit)
        assert verdict.answer != YES and verdict.exhaustive
        for _ in range(2):
            with pytest.raises(BudgetExceeded):
                is_cideal(l, _borel(l), budget=limit - 1)
        assert is_cideal(builtin("sl2", GF(5)), _borel(l), budget=limit) is verdict

    def test_bad_inputs_raise_on_every_call(self, empty_table):
        l = builtin("sl2", GF(5))
        bad = [
            (Subspace.span(l.field, 3, [[1, 0, 0], [0, 1, 0]]), NotSubalgebra),
            (Subspace.span(GF(3), 3, [[1, 0, 0]]), FieldMismatch),
            (Subspace.span(l.field, 2, [[1, 0]]), AmbientMismatch),
        ]
        for b, error in bad:
            for _ in range(2):
                with pytest.raises(error):
                    is_cideal(l, b)
        assert l._memoized("cideal_verdicts", dict) == {}
