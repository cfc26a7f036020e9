import json
import time
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cideals import (
    CASE_CUBE_ZERO,
    CASE_NEITHER,
    NO,
    YES,
    BadParams,
    CIdealVerdict,
    FieldNotFinite,
    GF,
    LieAlgebra,
    Q,
    SUITE_IDS,
    Subspace,
    builtin,
    catalog_algebras,
    classify_line_cideals,
    direct_sum,
    enum_ideals,
    enum_subalgebras,
    frattini,
    frattini_of_subalgebra,
    fuzz,
    is_cideal,
    is_solvable,
    maximal_nilpotent_subalgebras,
    maximal_subalgebras,
    parse,
    parse_subspace,
    quotient_algebra,
    random_solvable,
    restricted_algebra,
    run_suite,
    serialize,
    subspace_text,
    supersolvable_flag,
)
import cideals.harness
from cideals.harness import FAIL, PASS, SKIP, normalize_suites
from cideals.lattice import point_line, subspace_count, subspace_points as _points
from cideals import liealg
from cideals.liealg import algebra_modulo, canonical
from oracles import oracle_t9_pairs, oracle_t10_pairs, oracle_t11_pairs


class TestSuiteSelection:
    def test_all_ids(self):
        assert SUITE_IDS == tuple(f"T{k}" for k in range(1, 12))
        assert normalize_suites(None) == SUITE_IDS
        assert normalize_suites("all") == SUITE_IDS

    def test_comma_string_sorted_numerically(self):
        assert normalize_suites("T10,T2,t1") == ("T1", "T2", "T10")

    def test_duplicates_collapse(self):
        assert normalize_suites(["T3", "T3"]) == ("T3",)

    def test_unknown_rejected(self):
        with pytest.raises(BadParams):
            normalize_suites("T12")
        with pytest.raises(BadParams):
            normalize_suites("")


class TestRunSuite:
    def test_all_pass_on_heisenberg_gf3(self, h3_gf3):
        reports = run_suite(h3_gf3, algebra_id="h3")
        assert [r.theorem_id for r in reports] == list(SUITE_IDS)
        assert all(r.status == PASS for r in reports)
        assert all(r.algebra_id == "h3" for r in reports)
        assert all(r.seconds >= 0 for r in reports)

    def test_t2_skipped_on_nonsolvable_finite(self, sl2_gf5):
        reports = {r.theorem_id: r for r in run_suite(sl2_gf5)}
        assert reports["T2"].status == SKIP
        assert "characteristic zero" in reports["T2"].reason
        assert reports["T1"].status == PASS

    def test_t5_emits_flag(self, h3_gf3):
        (report,) = run_suite(h3_gf3, "T5")
        assert report.status == PASS
        flag = report.witnesses["flag"]
        assert len(flag) == h3_gf3.dim + 1
        # the emitted chain really is a chain of ideals
        chain = [parse_subspace(h3_gf3.field, h3_gf3.dim, t) for t in flag]
        for i, w in enumerate(chain):
            assert h3_gf3.is_ideal(w)
            assert w.dim == i

    def test_budget_exhaustion_skips(self, h3_gf2):
        reports = run_suite(h3_gf2, "T1,T9", budget=2)
        assert all(r.status == SKIP for r in reports)
        assert all("budget" in r.reason for r in reports)

    def test_t8_line_count_checked_against_budget(self):
        # 101^5 - 1 / 100 = 105,101,005 lines: skipped before the scan.
        l = builtin("t(2)+abelian(2)", GF(101))
        start = time.perf_counter()
        (report,) = run_suite(l, "T8")
        assert time.perf_counter() - start < 2.0
        assert report.status == SKIP
        assert "105101005 lines" in report.reason

    def test_t8_budget_equal_to_line_count_runs(self, h3_gf2):
        (report,) = run_suite(h3_gf2, "T8", budget=7)
        assert report.status == PASS
        (report,) = run_suite(h3_gf2, "T8", budget=6)
        assert report.status == SKIP and "7 lines" in report.reason

    def test_pair_walks_bounded_on_a_large_lattice(self):
        # 20,608 subalgebras, every one an ideal: T9 and T10 would search
        # about 1.1 * 10^6 subspaces (and as many pairs) each; every
        # Frattini subalgebra is 0, so T11 searches nothing
        l = builtin("abelian(3)", GF(101))
        start = time.perf_counter()
        reports = run_suite(l, "T9,T10,T11")
        assert time.perf_counter() - start < 5.0
        assert [r.status for r in reports] == [SKIP, SKIP, PASS]
        assert "1092119 subspaces of proper subalgebras" in reports[0].reason
        assert "1112727 subspaces of quotients by ideals" in reports[1].reason
        assert reports[2].witnesses == {"pairs_checked": 0}

    @pytest.mark.parametrize(
        "name, suite, scanned",
        [
            # GF(2)^3: 16 subspaces, every one an ideal; the proper ones
            # (1 of dim 0, 7 of dim 1, 7 of dim 2) hold 1 + 7 * 2 + 7 * 5
            # subspaces, and the quotients by them 16 + 7 * 5 + 7 * 2 + 1
            ("abelian(3)", "T9", 50),
            ("abelian(3)", "T10", 66),
            # 5 subalgebras with a nonzero Frattini subalgebra, each a line
            # of 2 subspaces: the 67 subspaces of GF(2)^4 bind first
            ("heisenberg(3)+abelian(1)", "T11", 67),
        ],
    )
    def test_pair_walk_budget_equal_to_scan_runs(self, name, suite, scanned):
        l = builtin(name, GF(2))
        (report,) = run_suite(l, suite, budget=scanned)
        assert report.status == PASS
        assert report.as_dict() == {**run_suite(l, suite)[0].as_dict(), "seconds": report.seconds}
        (report,) = run_suite(l, suite, budget=scanned - 1)
        assert report.status == SKIP
        assert report.reason.startswith(f"budget exceeded: {scanned} ")

    def test_nonpositive_budget_reason_shared(self, h3_gf2):
        # T8 states the same policy as the enumerating suites
        for report in run_suite(h3_gf2, "T1,T8", budget=0):
            assert report.status == SKIP
            assert report.reason == "budget exceeded: budget must be positive, got 0"

    def test_q_reports(self, h3_q):
        reports = {r.theorem_id: r for r in run_suite(h3_q)}
        assert reports["T2"].status == PASS
        assert reports["T8"].status == PASS
        for tid in ("T1", "T3", "T4", "T5", "T6", "T7", "T9", "T10", "T11"):
            assert reports[tid].status == SKIP

    def test_pairs_actually_checked(self, t2_gf2):
        reports = {r.theorem_id: r for r in run_suite(t2_gf2, "T4,T9,T10,T11")}
        assert reports["T4"].witnesses["pairs_checked"] > 0
        assert reports["T9"].witnesses["pairs_checked"] > 0
        assert reports["T10"].witnesses["pairs_checked"] > 0

    def test_report_dict_is_json_ready(self, h3_gf2):
        for r in run_suite(h3_gf2):
            json.dumps(r.as_dict())


def _stable(reports):
    return [{k: v for k, v in r.as_dict().items() if k != "seconds"} for r in reports]


class TestVerdictMemo:
    def test_one_call_reports_match_one_call_per_suite(self):
        corpus = [l for p in (2, 3) for _, l in catalog_algebras(GF(p), max_dim=3)]
        corpus.append(builtin("sl2", GF(5)))
        for l in corpus:
            together = run_suite(l, algebra_id="a")
            apart = [r for sid in SUITE_IDS for r in run_suite(l, sid, algebra_id="a")]
            assert _stable(together) == _stable(apart)


class TestCorruptedDecide:
    def test_always_yes_breaks_t1_with_replayable_witness(self):
        l = builtin("sl2", GF(3))

        def liar(alg, b, budget):
            return CIdealVerdict("yes", None, "liar", False)

        (report,) = run_suite(l, "T1", decide=liar)
        assert report.status == FAIL
        # replay: T1 saw "all maximal subalgebras are c-ideals" on a
        # non-solvable algebra; honest decisions contradict the liar on
        # at least one maximal subalgebra
        assert report.witnesses["all_maximal_cideal"] is True
        assert report.witnesses["solvable"] is False
        honest = [is_cideal(l, m).answer for m in maximal_subalgebras(l)]
        assert "no" in honest

    def test_always_no_breaks_t1_on_solvable(self, h3_gf3):
        def naysayer(alg, b, budget):
            return CIdealVerdict("no", None, "naysayer", True)

        (report,) = run_suite(h3_gf3, "T1", decide=naysayer)
        assert report.status == FAIL
        witness_text = report.witnesses["maximal_subalgebra"]
        b = parse_subspace(h3_gf3.field, h3_gf3.dim, witness_text)
        assert is_cideal(h3_gf3, b).answer == "yes"  # contradicts the hook

    def test_honest_default_passes(self, h3_gf3):
        (report,) = run_suite(h3_gf3, "T1")
        assert report.status == PASS

    def test_always_no_breaks_t2_on_solvable(self, h3_gf3):
        def naysayer(alg, b, budget):
            return CIdealVerdict(NO, None, "naysayer", True)

        (report,) = run_suite(h3_gf3, "T2", decide=naysayer)
        assert report.status == FAIL
        assert report.reason == "solvable algebra without a solvable maximal c-ideal"
        # replay: honestly, a solvable maximal subalgebra is a c-ideal
        (honest,) = run_suite(h3_gf3, "T2")
        assert honest.status == PASS
        m = parse_subspace(h3_gf3.field, h3_gf3.dim, honest.witnesses["maximal_subalgebra"])
        assert m in maximal_subalgebras(h3_gf3) and is_solvable(h3_gf3, m)
        assert is_cideal(h3_gf3, m).answer == YES

    def test_always_yes_breaks_t3_on_sl2(self):
        l = builtin("sl2", GF(3))

        def liar(alg, b, budget):
            return CIdealVerdict(YES, None, "liar", False)

        (report,) = run_suite(l, "T3", decide=liar)
        assert report.status == FAIL
        assert report.witnesses == {"premise_holds": True, "solvable": False}
        # replay: honestly, a maximal nilpotent subalgebra is no c-ideal
        (honest,) = run_suite(l, "T3")
        assert (honest.status, honest.witnesses["premise_holds"]) == (PASS, False)
        c = parse_subspace(l.field, l.dim, honest.witnesses["maximal_nilpotent"])
        assert c in maximal_nilpotent_subalgebras(l) and is_cideal(l, c).answer == NO

    @pytest.mark.parametrize("suite", ["T5", "T6"])
    def test_always_yes_breaks_t5_and_t6_on_e2(self, suite):
        # e(2) + abelian(1) over GF(3): solvable, every maximal nilpotent
        # subalgebra of dimension at least two, and no line of e(2) is an
        # ideal, so it is not supersolvable.
        e2 = LieAlgebra(GF(3), 3, ["x", "a1", "a2"], {(0, 1): [0, 0, 1], (0, 2): [0, -1, 0]})
        l = direct_sum(e2, builtin("abelian(1)", GF(3)))

        def liar(alg, b, budget):
            return CIdealVerdict(YES, None, "liar", False)

        (report,) = run_suite(l, suite, decide=liar)
        assert report.status == FAIL
        assert report.witnesses == {"premise_holds": True}
        assert supersolvable_flag(l) is None
        # replay: honestly, a maximal subalgebra of a maximal nilpotent
        # subalgebra is no c-ideal of L
        (honest,) = run_suite(l, suite)
        assert (honest.status, honest.witnesses["premise_holds"]) == (PASS, False)
        c = parse_subspace(l.field, l.dim, honest.witnesses["maximal_nilpotent"])
        b = parse_subspace(l.field, l.dim, honest.witnesses["maximal_subalgebra_of_it"])
        assert c in maximal_nilpotent_subalgebras(l) and b <= c
        assert is_cideal(l, b).answer == NO


@st.composite
def _point_set_case(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 4))
    rows = st.lists(st.tuples(*[st.integers(0, p - 1)] * n), max_size=n)
    u = Subspace.from_raw(GF(p), n, draw(rows))
    # half the time V is built on top of U, so containment is exercised both ways
    v = Subspace.from_raw(GF(p), n, list(u.rows) * draw(st.booleans()) + draw(rows))
    return p, u, v


class TestPointSets:
    @given(_point_set_case())
    def test_points_are_the_normalized_vectors_of_the_space(self, case):
        p, u, v = case
        points = set(_points(p, u))
        assert len(points) == (p**u.dim - 1) // (p - 1)
        for x in points:
            assert u.holds_raw(x)
            assert next(a for a in x if a) == 1
        assert points.issuperset(v.rows) == (v <= u)
        assert set(_points(p, v)).issuperset(u.rows) == (u <= v)


def _walk_corpus():
    corpus = [(f"{name}/GF({p})", l) for p in (2, 3) for name, l in catalog_algebras(GF(p), max_dim=4)]
    corpus.append(("sl2/GF(5)", builtin("sl2", GF(5))))
    for seed, p, target in ((1, 2, 5), (3, 2, 4), (2, 3, 3)):
        corpus.append((f"random_solvable({seed},GF({p}))", random_solvable(seed, GF(p), 3, target)))
    return corpus


_WALK_CORPUS = _walk_corpus()


def _first_seen(questions):
    return list(dict.fromkeys(questions))


def _recorded_questions(l, suite):
    """The distinct questions a suite puts to ``decide``, in order, and its report."""
    calls = []

    def recording(alg, b, budget):
        calls.append((alg, b))
        return is_cideal(alg, b, budget)

    (report,) = run_suite(l, suite, decide=recording)
    return _first_seen(calls), report


class TestContainmentWalks:
    """T9, T10 and T11 visit exactly the pairs of the quadratic filters
    in ``oracles``, in the same order, with B carried over by the boxed
    coordinate maps of the restricted and quotient algebras."""

    @pytest.mark.parametrize("l", [l for _, l in _WALK_CORPUS], ids=[a for a, _ in _WALK_CORPUS])
    def test_walks_ask_the_oracle_pairs_questions(self, l):
        cideal = {b for b in enum_subalgebras(l) if is_cideal(l, b).answer == YES}

        pairs = oracle_t9_pairs(l)
        expected = []
        for b, k in pairs:
            expected.append((l, b))
            if b in cideal:
                alg, to_coords, _ = restricted_algebra(l, k)
                coords = [to_coords(w) for w in b.vectors()]
                expected.append((alg, Subspace.from_vectors(alg.field, alg.dim, coords)))
        calls, report = _recorded_questions(l, "T9")
        assert report.status == PASS
        assert report.witnesses == {"pairs_checked": sum(b in cideal for b, _ in pairs)}
        assert calls == _first_seen(expected)

        pairs = oracle_t10_pairs(l)
        expected = []
        for b, i in pairs:
            reduced, project, _ = quotient_algebra(l, i)
            coords = [project(w) for w in b.vectors()]
            expected.append((l, b))
            expected.append((reduced, Subspace.from_vectors(reduced.field, reduced.dim, coords)))
        calls, report = _recorded_questions(l, "T10")
        assert report.status == PASS
        assert report.witnesses == {"pairs_checked": len(pairs)}
        assert calls == _first_seen(expected)

        pairs = oracle_t11_pairs(l)
        calls, report = _recorded_questions(l, "T11")
        assert report.status == PASS
        assert report.witnesses == {"pairs_checked": len(pairs)}
        assert calls == _first_seen((l, b) for _, b in pairs)


class TestWalkCounts:
    """T9 and T10 keep B's verdict in L for the length of a walk, and both
    walk on canonical rows: T9 carries B into L and T10 lifts B from L/I
    with no subspace made per pair, each row carried or lifted once per
    K or I."""

    @pytest.mark.parametrize("l", [l for _, l in _WALK_CORPUS], ids=[a for a, _ in _WALK_CORPUS])
    def test_outer_question_once_per_subalgebra(self, l, monkeypatch):
        # The walk runs on a copy of l that is not its canonical instance,
        # so the quotient by the zero ideal, which is that instance, is
        # told apart from l in T10's questions.
        monkeypatch.setattr(liealg, "_canonical", {})
        canonical(l)
        copy = parse(serialize(l))
        assert copy == l and canonical(copy) is not copy
        for suite in ("T9", "T10"):
            asked = Counter()

            def counting(alg, b, budget):
                if alg is copy:
                    asked[b] += 1
                return is_cideal(alg, b, budget)

            (report,) = run_suite(copy, suite, decide=counting)
            assert report.status == PASS
            assert asked and set(asked.values()) == {1}, suite

    @pytest.mark.parametrize("l", [l for _, l in _WALK_CORPUS], ids=[a for a, _ in _WALK_CORPUS])
    def test_t9_makes_no_subspace_per_pair(self, l, monkeypatch):
        verdicts = {}

        def recording(alg, b, budget):
            verdicts[alg, b] = is_cideal(alg, b, budget)
            return verdicts[alg, b]

        (first,) = run_suite(l, "T9", decide=recording)
        carried = []
        from_coords = Subspace.from_coords

        def counting(self, w):
            carried.append(w)
            return from_coords(self, w)

        monkeypatch.setattr(Subspace, "from_coords", counting)
        (report,) = run_suite(l, "T9", decide=lambda alg, b, budget: verdicts[alg, b])
        assert report.status == PASS and report.witnesses == first.witnesses
        assert carried == []


    @pytest.mark.parametrize("l", [l for _, l in _WALK_CORPUS], ids=[a for a, _ in _WALK_CORPUS])
    def test_t10_lifts_each_row_once_per_ideal(self, l, monkeypatch):
        verdicts = {}

        def recording(alg, b, budget):
            verdicts[alg, b] = is_cideal(alg, b, budget)
            return verdicts[alg, b]

        (first,) = run_suite(l, "T10", decide=recording)
        preimages, lifted = [], Counter()
        preimage, lift_raw = Subspace.preimage, Subspace.lift_raw

        def counting_preimage(self, w):
            preimages.append(w)
            return preimage(self, w)

        def counting_lift(self, r):
            lifted[self, r] += 1
            return lift_raw(self, r)

        monkeypatch.setattr(Subspace, "preimage", counting_preimage)
        monkeypatch.setattr(Subspace, "lift_raw", counting_lift)
        (report,) = run_suite(l, "T10", decide=lambda alg, b, budget: verdicts[alg, b])
        assert report.status == PASS and report.witnesses == first.witnesses
        assert preimages == []
        assert lifted and set(lifted.values()) == {1}


class TestWalkBudgets:
    """Each walk charges the subspaces it searches, which bound its pairs,
    so a walk that passes has checked at most ``budget`` pairs."""

    @pytest.mark.parametrize("l", [l for _, l in _WALK_CORPUS], ids=[a for a, _ in _WALK_CORPUS])
    def test_passing_walks_check_at_most_budget_pairs(self, l):
        budget = 1
        while True:
            reports = run_suite(l, "T9,T10,T11", budget=budget)
            assert all(r.status in (PASS, SKIP) for r in reports)
            for r in reports:
                if r.status == PASS:
                    assert r.witnesses["pairs_checked"] <= budget, (r.theorem_id, budget)
            if all(r.status == PASS for r in reports):
                break
            budget *= 2

    @pytest.mark.parametrize("name", ["heisenberg(3)+abelian(1)", "t(3)"])
    def test_t11_charges_a_running_sum(self, name, monkeypatch):
        l = builtin(name, GF(2))
        charges = []
        check = cideals.harness._check_budget

        def recording(count, what, budget):
            charges.append((count, what))
            check(count, what, budget)

        monkeypatch.setattr(cideals.harness, "_check_budget", recording)
        (report,) = run_suite(l, "T11")
        assert report.status == PASS
        expected, total = [], 0
        for c in enum_subalgebras(l):
            f_c = frattini_of_subalgebra(l, c)
            if f_c.dim:
                total += subspace_count(f_c.dim, 2)
                expected.append(total)
        assert len(expected) > 1
        assert [n for n, what in charges if what == "subspaces of Frattini subalgebras"] == expected


class TestQuotientComparison:
    """T4 compares in L/A: for a subalgebra C and an ideal A, (C + A)/A is
    w exactly when C + A is the preimage of w, so testing the images of
    the maximal nilpotent subalgebras replaces forming every sum."""

    @pytest.mark.parametrize(
        "l",
        [builtin("heisenberg(3)+abelian(1)", GF(2)), builtin("t(2)", GF(3)), random_solvable(3, GF(2), 3, 4)],
    )
    def test_images_match_preimages(self, l):
        subalgebras = enum_subalgebras(l)
        for a in enum_ideals(l):
            quotient = enum_subalgebras(algebra_modulo(l, a))
            for w in quotient:
                lifted = a.preimage(w)
                for c in subalgebras:
                    assert (a.modulo(c) == w) == (c + a == lifted)

    @pytest.mark.parametrize("l", [l for _, l in _WALK_CORPUS], ids=[a for a, _ in _WALK_CORPUS])
    def test_t4_walk_matches_the_sum_route(self, l):
        ours = maximal_nilpotent_subalgebras(l)
        pairs = 0
        for a in enum_ideals(l):
            for w in maximal_nilpotent_subalgebras(algebra_modulo(l, a)):
                assert any(c + a == a.preimage(w) for c in ours)
                pairs += 1
        (report,) = run_suite(l, "T4")
        assert (report.status, report.witnesses) == (PASS, {"pairs_checked": pairs})

    def test_t4_fails_when_the_quotients_lie(self, monkeypatch):
        # The maximal nilpotent subalgebras of each quotient L/A, but not
        # of L, gain the zero subalgebra, which is maximal in no nonzero
        # quotient.
        l = builtin("t(2)", GF(3))
        honest = cideals.harness.maximal_nilpotent_subalgebras

        def lying(alg, budget):
            found = honest(alg, budget)
            return found if alg is l or alg.dim == 0 else found + (alg.zero_space(),)

        with monkeypatch.context() as m:
            m.setattr(cideals.harness, "maximal_nilpotent_subalgebras", lying)
            (report,) = run_suite(l, "T4")
        assert report.status == FAIL
        assert report.reason == "a maximal nilpotent subalgebra of the quotient does not lift"
        # replay: the preimage is no C + A, and honestly its image is not
        # maximal nilpotent in L/A
        a = parse_subspace(l.field, l.dim, report.witnesses["ideal"])
        lifted = parse_subspace(l.field, l.dim, report.witnesses["preimage"])
        assert all(c + a != lifted for c in maximal_nilpotent_subalgebras(l))
        assert a.modulo(lifted) not in maximal_nilpotent_subalgebras(algebra_modulo(l, a))
        assert run_suite(l, "T4")[0].status == PASS


class TestLargePrimes:
    """Every suite answers or skips quickly at primes up to 2^31: the
    enumerating suites are gated by the subspace count, T8 by the line
    count, and no suite walks the field's elements."""

    @pytest.mark.parametrize("p", [1000003, 2**31 - 1])
    @pytest.mark.parametrize("name", ["nonabelian2", "abelian(2)", "heisenberg(3)"])
    def test_every_suite_finishes_or_skips(self, name, p):
        l = builtin(name, GF(p))
        for suite in SUITE_IDS:
            start = time.perf_counter()
            (report,) = run_suite(l, suite)
            assert time.perf_counter() - start < 2.0, suite
            assert report.status in (PASS, SKIP), (suite, report.reason)

    def test_t7_skips_on_the_subspace_gate(self):
        (report,) = run_suite(builtin("heisenberg(3)", GF(2**31 - 1)), "T7")
        assert report.status == SKIP
        assert report.reason.endswith("subspaces of GF(2147483647)^3 exceed the budget of 1000000")


class TestWitnessOrder:
    """A corrupted ``decide`` makes each walk fail on the first pair the
    quadratic oracle filter would have failed on."""

    @pytest.mark.parametrize("min_dim", [0, 1, 2])
    @pytest.mark.parametrize(
        "l", [builtin("heisenberg(3)+abelian(1)", GF(3)), random_solvable(3, GF(2), 3, 4)]
    )
    def test_t9_no_in_smaller_algebras(self, l, min_dim):
        def no_below(alg, b, budget):
            if alg.dim < l.dim and b.dim >= min_dim:
                return CIdealVerdict(NO, None, "no_below", True)
            return is_cideal(alg, b, budget)

        (report,) = run_suite(l, "T9", decide=no_below)
        b, k = next(
            (b, k)
            for b, k in oracle_t9_pairs(l)
            if b.dim >= min_dim and is_cideal(l, b).answer == YES
        )
        assert report.status == FAIL
        assert report.witnesses["cideal"] == subspace_text(b)
        assert report.witnesses["intermediate"] == subspace_text(k)
        assert report.witnesses["inner_verdict"]["method"] == "no_below"

    @pytest.mark.parametrize("min_dim", [1, 2])
    @pytest.mark.parametrize(
        "l", [builtin("heisenberg(3)+abelian(1)", GF(3)), random_solvable(3, GF(2), 3, 4)]
    )
    def test_t10_flipped_in_quotients(self, l, min_dim):
        def flipped(alg, b, budget):
            v = is_cideal(alg, b, budget)
            if alg.dim <= l.dim - min_dim:
                return CIdealVerdict(NO if v.answer == YES else YES, None, "flipped", True)
            return v

        (report,) = run_suite(l, "T10", decide=flipped)
        b, i = next((b, i) for b, i in oracle_t10_pairs(l) if i.dim >= min_dim)
        assert report.status == FAIL
        assert report.witnesses["subalgebra"] == subspace_text(b)
        assert report.witnesses["ideal"] == subspace_text(i)
        assert report.witnesses["verdict_in_quotient"]["method"] == "flipped"

    def test_t11_yes_to_a_non_ideal(self):
        l = builtin("n", GF(2), 4)

        def yes_to_non_ideals(alg, b, budget):
            if not alg.is_ideal(b):
                return CIdealVerdict(YES, None, "liar", False)
            return is_cideal(alg, b, budget)

        assert run_suite(l, "T11")[0].status == PASS
        (report,) = run_suite(l, "T11", decide=yes_to_non_ideals)
        c, b = next((c, b) for c, b in oracle_t11_pairs(l) if not l.is_ideal(b))
        assert report.status == FAIL
        assert report.witnesses["subalgebra_with_frattini"] == subspace_text(c)
        assert report.witnesses["cideal"] == subspace_text(b)
        check = report.witnesses["check"]
        assert check["verdict"]["method"] == "liar"
        assert check["is_ideal"] is False
        assert frattini(l)[1].dim < l.dim


class TestLineSuitesCanFail:
    """T7 and T8 take no ``decide``: each is made to fail by corrupting
    the one primitive its claim is about, and the witness is replayed
    with the honest code."""

    def test_t7_fails_when_the_line_rule_is_flipped(self, h3_gf3, monkeypatch):
        honest = cideals.harness._line_cideal

        def flipped(l, line):
            v = honest(l, line)
            return CIdealVerdict(NO if v.answer == YES else YES, None, "flipped", True)

        with monkeypatch.context() as m:
            m.setattr(cideals.harness, "_line_cideal", flipped)
            (report,) = run_suite(h3_gf3, "T7")
        assert report.status == FAIL
        assert report.reason == "line rule and enumeration oracle disagree"
        assert report.witnesses["line_rule"]["method"] == "flipped"
        # replay: the honest rule agrees with the enumeration on the point
        x = parse_subspace(h3_gf3.field, h3_gf3.dim, report.witnesses["point"]).rows[0]
        line = point_line(h3_gf3.field, x)
        assert honest(h3_gf3, line).answer == report.witnesses["enumeration"]["answer"]
        assert run_suite(h3_gf3, "T7")[0].status == PASS

    def test_t8_fails_when_the_classifier_says_neither(self, h3_gf3, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(cideals.harness, "_line_shape", lambda l: (CASE_NEITHER, None))
            (report,) = run_suite(h3_gf3, "T8")
        assert report.status == FAIL
        assert report.reason == "classifier and the line scan disagree"
        assert report.witnesses == {"case": CASE_NEITHER, "all_lines_cideal": True}
        # replay: the honest classifier is positive, as the line scan says
        assert classify_line_cideals(h3_gf3).case != CASE_NEITHER
        (honest,) = run_suite(h3_gf3, "T8")
        assert honest.status == PASS
        assert honest.witnesses["all_lines_cideal"] is True

    def test_t8_over_q_fails_when_the_classifier_says_cube_zero(self, sl2_q, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(cideals.harness, "_line_shape", lambda l: (CASE_CUBE_ZERO, None))
            (report,) = run_suite(sl2_q, "T8")
        assert report.status == FAIL
        assert report.reason == "classifier-positive algebra has a non-c-ideal line"
        # replay: the line is no c-ideal, and the honest classifier says so
        line = parse_subspace(sl2_q.field, sl2_q.dim, report.witnesses["point"])
        assert is_cideal(sl2_q, line).answer == NO
        assert classify_line_cideals(sl2_q).case == CASE_NEITHER
        assert run_suite(sl2_q, "T8")[0].status == PASS


class TestFuzz:
    def test_deterministic_and_sorted(self):
        a = fuzz(3, 4, GF(2), suites="T1,T7")
        b = fuzz(3, 4, GF(2), suites="T1,T7")
        assert _stable(a.reports) == _stable(b.reports)
        keys = [(r.algebra_id, int(r.theorem_id[1:])) for r in a.reports]
        assert keys == sorted(keys)

    def test_counts(self):
        result = fuzz(1, 3, GF(3), suites="T1,T5,T7")
        assert result.count == 3
        assert len(result.reports) == 9
        assert result.failure_count == 0

    def test_result_dict_round_trips(self):
        result = fuzz(5, 2, GF(2), suites="T1")
        payload = result.as_dict()
        json.dumps(payload)
        assert payload["count"] == 2
        for f in payload["failures"]:
            parse(f["document"])  # offending documents must replay

    def test_ambient_four(self):
        result = fuzz(2, 2, GF(2), ambient_n=4, suites="T7")
        assert result.count == 2

    def test_infinite_field_rejected(self):
        with pytest.raises(FieldNotFinite):
            fuzz(1, 1, Q)

    def test_negative_count_rejected(self):
        with pytest.raises(BadParams):
            fuzz(1, -1, GF(2))
