import json

import pytest

from cideals import (
    BadParams,
    CIdealVerdict,
    FieldNotFinite,
    GF,
    Q,
    SUITE_IDS,
    builtin,
    catalog_algebras,
    fuzz,
    is_cideal,
    parse,
    parse_subspace,
    run_suite,
)
from cideals.harness import FAIL, PASS, SKIP, normalize_suites


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
    @pytest.mark.parametrize(
        "name, p, shared", [("heisenberg(3)+abelian(1)", 3, True), ("abelian(4)", 2, False)]
    )
    def test_each_distinct_question_decided_once(self, name, p, shared):
        l = builtin(name, GF(p))
        calls = []

        def counting(alg, b, budget):
            calls.append((alg, b, budget))
            return is_cideal(alg, b, budget)

        reports = run_suite(l, decide=counting)
        assert all(r.status != FAIL for r in reports)
        # the memo compares by value: restricted and quotient algebras
        # rebuilt by different suites still share one verdict
        assert len(calls) == len(set(calls)) > 1
        assert any(alg != l for alg, _, _ in calls)
        # ... but the same subspace in two different algebras is two questions
        algebras_per_subspace = {}
        for alg, b, _ in calls:
            algebras_per_subspace.setdefault(b, set()).add(alg)
        assert any(len(a) > 1 for a in algebras_per_subspace.values()) == shared

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
        from cideals import maximal_subalgebras

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
