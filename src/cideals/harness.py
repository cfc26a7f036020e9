"""Verification suites for the c-ideal theory, plus the fuzz driver.

Each suite checks one published statement about c-ideals on one
concrete algebra and returns a report; a failing report carries a
witness that can be replayed against the decision modules in
isolation.  The suites:

T1   every maximal subalgebra is a c-ideal  ⟺  L is solvable
T2   a solvable L has a solvable maximal subalgebra that is a c-ideal;
     the converse holds in characteristic zero and is exercised over Q
     only with certificate-backed verdicts
T3   if every maximal nilpotent subalgebra is a c-ideal, L is solvable
T4   maximal nilpotent subalgebras of L/A are exactly the subspaces
     C + A with C maximal nilpotent in L
T5   if L is solvable and every maximal subalgebra of every maximal
     nilpotent subalgebra is a c-ideal of L, L is supersolvable
T6   as T5, replacing solvability by: every maximal nilpotent
     subalgebra has dimension at least two
T7   the decisive line rule agrees with the enumeration oracle on
     every line
T8   the classifier's two positive shapes  ⟺  every line is a c-ideal
T9   a c-ideal of L is a c-ideal of every intermediate subalgebra
T10  B is a c-ideal of L  ⟺  B/I is one of L/I, for ideals I inside B
T11  a c-ideal lying in a Frattini subalgebra is an ideal inside the
     Frattini ideal

Every suite but T2 and T8 needs exhaustive enumeration and reports
``skipped`` over Q, as does any suite whose hypothesis mismatches the
field; a suite never silently narrows its claim.  A budget overrun
inside a suite also surfaces as ``skipped`` with the reason, and so do
the pair walks of T9-T11 when the lattices they would search pass the
budget.  Each walk enumerates the lattice its statement is about: the
subalgebras of each intermediate K (T9), of each quotient L/I (T10) and
of each Frattini subalgebra F(C) (T11), through the algebras on and
modulo those subspaces and :class:`~cideals.linalg.Subspace`'s
coordinate maps.  Lines are scanned as raw projective points, each
spanned by :func:`~cideals.lattice.point_line`, and the line classifier
and the line families run on raw rows, so no suite makes a Scalar.
"""

from __future__ import annotations

import itertools
import time
from collections import namedtuple

from .errors import BadParams, BudgetExceeded, FieldNotFinite
from .fields import Field
from .linalg import Subspace, subspace_text, vector_text
from .liealg import LieAlgebra, _solvable_on, algebra_modulo, algebra_on, derived_subspace, is_solvable
from .lattice import (
    DEFAULT_BUDGET,
    _check_budget,
    enum_ideals,
    enum_subalgebras,
    gaussian_binomial,
    maximal_nilpotent_subalgebras,
    maximal_subalgebras,
    point_line,
    subspace_count,
    subspace_points,
    supersolvable_flag,
)
from .cideal import (
    YES,
    _frattini_consequence,
    _line_cideal,
    is_cideal,
    is_cideal_by_scan,
)
from .structure import (
    CASE_NEITHER,
    _frattini_of_closed,
    _line_shape,
)
from .catalog import random_solvable, serialize

PASS = "pass"
FAIL = "fail"
SKIP = "skipped"

_SKIP_Q_ENUM = "exhaustive enumeration is not possible over Q"
# The suites that run over Q; every other one enumerates and is skipped there.
_OVER_Q = ("T2", "T8")


class TheoremReport(
    namedtuple("TheoremReport", "theorem_id algebra_id status reason witnesses seconds")
):
    """One suite's outcome on one algebra.

    ``reason`` explains a skip or a failure; ``witnesses`` holds
    replayable data (subspace and vector texts, verdict dicts).
    """

    __slots__ = ()
    theorem_id: str
    algebra_id: str
    status: str
    reason: str | None
    witnesses: dict
    seconds: float

    def as_dict(self) -> dict:
        return self._asdict()


def _t1(l, budget, decide):
    solvable = is_solvable(l)
    counter = None
    for m in maximal_subalgebras(l, budget):
        v = decide(l, m, budget)
        if v.answer != YES:
            counter = (m, v)
            break
    all_cideal = counter is None
    witnesses = {"solvable": solvable, "all_maximal_cideal": all_cideal}
    if counter is not None:
        witnesses["maximal_subalgebra"] = subspace_text(counter[0])
        witnesses["verdict"] = counter[1].as_dict()
    if solvable == all_cideal:
        return PASS, None, witnesses
    return FAIL, "solvability and the all-maximal-c-ideal property disagree", witnesses


def _t2(l, budget, decide):
    solvable = is_solvable(l)
    if l.field.p is not None:
        if not solvable:
            return SKIP, "the converse direction needs characteristic zero", {}
        for m in maximal_subalgebras(l, budget):
            if _solvable_on(l, m):
                v = decide(l, m, budget)
                if v.answer == YES:
                    witnesses = {
                        "maximal_subalgebra": subspace_text(m),
                        "verdict": v.as_dict(),
                    }
                    return PASS, None, witnesses
        return FAIL, "solvable algebra without a solvable maximal c-ideal", {}
    if l.dim == 0:
        return SKIP, "no maximal subalgebras in dimension zero", {}
    if not solvable:
        return SKIP, "no certificate-backed premise instance is constructible over Q", {}
    squared = derived_subspace(l)
    m = Subspace.from_raw(l.field, l.dim, squared.rows + squared.complement().rows[1:])
    v = decide(l, m, budget)
    if v.answer == YES and v.certificate is not None:
        # Premise holds with a verified certificate; the conclusion is
        # solvability, which is true on this branch.
        witnesses = {"maximal_subalgebra": subspace_text(m), "verdict": v.as_dict()}
        return PASS, None, witnesses
    return SKIP, "c-ideal verdict was not certificate-backed", {"verdict": v.as_dict()}


def _t3(l, budget, decide):
    for c in maximal_nilpotent_subalgebras(l, budget):
        v = decide(l, c, budget)
        if v.answer != YES:
            witnesses = {
                "premise_holds": False,
                "maximal_nilpotent": subspace_text(c),
                "verdict": v.as_dict(),
            }
            return PASS, None, witnesses
    solvable = is_solvable(l)
    witnesses = {"premise_holds": True, "solvable": solvable}
    if solvable:
        return PASS, None, witnesses
    return FAIL, "all maximal nilpotent subalgebras are c-ideals but L is not solvable", witnesses


def _t4(l, budget, decide):
    """Compares in each quotient L/A: C + A is the preimage of w exactly
    when (C + A)/A = w, so no sum C + A is formed."""
    ours = maximal_nilpotent_subalgebras(l, budget)
    checked = 0
    for a in enum_ideals(l, budget):
        images = {a.modulo(c) for c in ours}
        for w_red in maximal_nilpotent_subalgebras(algebra_modulo(l, a), budget):
            if w_red not in images:
                witnesses = {
                    "ideal": subspace_text(a),
                    "preimage": subspace_text(a.preimage(w_red)),
                }
                return FAIL, "a maximal nilpotent subalgebra of the quotient does not lift", witnesses
            checked += 1
    return PASS, None, {"pairs_checked": checked}


def _supersolvable_if_premise(l, budget, decide, failure):
    """The shared conclusion of T5 and T6: if every maximal subalgebra of
    every maximal nilpotent subalgebra is a c-ideal of l, l has a flag of
    ideals; ``failure`` is the reason reported when it has none."""
    for c in maximal_nilpotent_subalgebras(l, budget):
        for m in maximal_subalgebras(algebra_on(l, c), budget):
            b = c.from_coords(m)
            v = decide(l, b, budget)
            if v.answer != YES:
                return PASS, None, {
                    "premise_holds": False,
                    "maximal_nilpotent": subspace_text(c),
                    "maximal_subalgebra_of_it": subspace_text(b),
                    "verdict": v.as_dict(),
                }
    flag = supersolvable_flag(l)
    if flag is not None:
        witnesses = {"premise_holds": True, "flag": [subspace_text(w) for w in flag]}
        return PASS, None, witnesses
    return FAIL, failure, {"premise_holds": True}


def _t5(l, budget, decide):
    if not is_solvable(l):
        return PASS, None, {"premise_holds": False, "solvable": False}
    return _supersolvable_if_premise(
        l, budget, decide, "premise holds on a solvable algebra that is not supersolvable"
    )


def _t6(l, budget, decide):
    maxnilp = maximal_nilpotent_subalgebras(l, budget)
    dims = sorted(c.dim for c in maxnilp)
    if dims and dims[0] < 2:
        return PASS, None, {"premise_holds": False, "min_maximal_nilpotent_dim": dims[0]}
    return _supersolvable_if_premise(
        l, budget, decide, "premise holds but the algebra is not supersolvable"
    )


def _t7(l, budget, decide):
    # Every line is a subspace, so the scan's own subspace gate bounds
    # the lines too; it is checked before the first one.
    enum_ideals(l, budget)
    checked = 0
    for x in subspace_points(l.field.p, l.full_space()):
        line = point_line(l.field, x)
        quick = _line_cideal(l, line)
        scan = is_cideal_by_scan(l, line, budget)
        if quick.answer != scan.answer:
            witnesses = {
                "point": vector_text(x),
                "line_rule": quick.as_dict(),
                "enumeration": scan.as_dict(),
            }
            return FAIL, "line rule and enumeration oracle disagree", witnesses
        checked += 1
    return PASS, None, {"lines_checked": checked}


def _first_non_cideal(l, points):
    """The first (raw point, verdict) whose line is not a c-ideal, or None."""
    for x in points:
        v = _line_cideal(l, point_line(l.field, x))
        if v.answer != YES:
            return x, v
    return None


def _spot_vectors(space: Subspace) -> list:
    """The canonical rows of a subspace of Q^n and the sums of two of them,
    each leading with its first row's 1."""
    pairs = itertools.combinations(space.rows, 2)
    return list(space.rows) + [tuple(a + b for a, b in zip(u, v)) for u, v in pairs]


def _t8(l, budget, decide):
    p = l.field.p
    if p is not None:
        _check_budget(gaussian_binomial(l.dim, 1, p), f"lines of GF({p})^{l.dim}", budget)
    case = _line_shape(l)[0]
    positive = case != CASE_NEITHER
    if p is not None:
        bad = _first_non_cideal(l, subspace_points(p, l.full_space()))
        witnesses = {"case": case, "all_lines_cideal": bad is None}
        if bad is not None:
            witnesses["point"] = vector_text(bad[0])
            witnesses["verdict"] = bad[1].as_dict()
        if positive == (bad is None):
            return PASS, None, witnesses
        return FAIL, "classifier and the line scan disagree", witnesses
    bad = _first_non_cideal(l, _spot_vectors(l.full_space() if positive else derived_subspace(l)))
    if bad is None:
        if positive:
            return PASS, None, {"case": case, "check": "spot lines only"}
        return SKIP, "no counterexample line was located over Q", {"case": case}
    witnesses = {"case": case, "point": vector_text(bad[0]), "verdict": bad[1].as_dict()}
    if positive:
        return FAIL, "classifier-positive algebra has a non-c-ideal line", witnesses
    return PASS, None, witnesses


def _t9(l, budget, decide):
    """Walks the (B, K) pairs with K a proper subalgebra and B a c-ideal
    of L inside it: for each K, the subalgebras w of the algebra on K,
    carried back into L.  The subspaces of every K are charged to the
    budget before the walk starts.

    The images in L of canonical rows are canonical rows (see
    :meth:`~cideals.linalg.Subspace.from_coords`), so B is its rows
    here: each row of the listing on K is carried into L once per K,
    and B's verdict in L is kept by B's rows for the length of the walk.
    So ``decide(l, B)`` is asked once per distinct B, and B is built as
    a subspace only for that question and for a failure's witness.
    """
    proper = [k for k in enum_subalgebras(l, budget) if k.dim < l.dim]
    searched = sum(subspace_count(k.dim, l.field.p) for k in proper)
    _check_budget(searched, "subspaces of proper subalgebras", budget)
    checked = 0
    outer = {}  # B's rows -> decide(l, B)
    for k in proper:
        on_k = algebra_on(l, k)
        images, carry = {}, k.from_coords_raw  # a row on K -> its image in L
        for w in enum_subalgebras(on_k, budget):
            rows = _images(w.rows, images, carry)
            v = outer.get(rows)
            if v is None:
                v = outer[rows] = decide(l, _carried(k, w, rows), budget)
            if v.answer != YES:
                continue
            vk = decide(on_k, w, budget)
            if vk.answer != YES:
                witnesses = {
                    "cideal": subspace_text(_carried(k, w, rows)),
                    "intermediate": subspace_text(k),
                    "outer_verdict": v.as_dict(),
                    "inner_verdict": vk.as_dict(),
                }
                return FAIL, "c-ideal property failed to persist to an intermediate subalgebra", witnesses
            checked += 1
    return PASS, None, {"pairs_checked": checked}


def _images(rows, images: dict, image) -> tuple:
    # The images of raw rows under ``image``, each made once per dict.
    out = []
    for r in rows:
        x = images.get(r)
        if x is None:
            x = images[r] = image(r)
        out.append(x)
    return tuple(out)


def _carried(k: Subspace, w: Subspace, rows: tuple) -> Subspace:
    # k.from_coords(w), given the images ``rows`` of w's rows.
    return Subspace(k.field, k.ambient_dim, rows, tuple(k.pivots[c] for c in w.pivots))


def _t10(l, budget, decide):
    """Walks the (B, I) pairs with I an ideal inside the subalgebra B: for
    each I, the subalgebras w of L/I, with B the preimage of w and so
    B/I = w.  The subspaces of every L/I are charged to the budget before
    the walk starts.

    B is its canonical rows here, merged from I's rows and the lifts of
    w's rows (see :meth:`~cideals.linalg.Subspace.preimage_raw`): each
    row of the listing on L/I is lifted once per I.  B's verdict in L is
    kept by B's rows for the length of the walk, so ``decide(l, B)`` is
    asked once per distinct B, which lies over as many w as it holds
    ideals I, and B is built as a subspace only for that question and
    for a failure's witness.
    """
    ideals = enum_ideals(l, budget)
    searched = sum(subspace_count(l.dim - i.dim, l.field.p) for i in ideals)
    _check_budget(searched, "subspaces of quotients by ideals", budget)
    checked = 0
    outer = {}  # B's rows -> decide(l, B)
    for i in ideals:
        reduced = algebra_modulo(l, i)
        lifts, lift = {}, i.lift_raw  # a row of L/I -> its lift in L
        for w in enum_subalgebras(reduced, budget):
            rows, pivots = i.preimage_raw(_images(w.rows, lifts, lift), w.pivots)
            v_outer = outer.get(rows)
            if v_outer is None:
                v_outer = outer[rows] = decide(l, Subspace(l.field, l.dim, rows, pivots), budget)
            v_inner = decide(reduced, w, budget)
            if (v_outer.answer == YES) != (v_inner.answer == YES):
                witnesses = {
                    "subalgebra": subspace_text(Subspace(l.field, l.dim, rows, pivots)),
                    "ideal": subspace_text(i),
                    "verdict_in_l": v_outer.as_dict(),
                    "verdict_in_quotient": v_inner.as_dict(),
                }
                return FAIL, "c-ideal status differs between L and the quotient", witnesses
            checked += 1
    return PASS, None, {"pairs_checked": checked}


def _t11(l, budget, decide):
    """Walks the (C, B) pairs with B a nonzero subalgebra inside a nonzero
    Frattini subalgebra F(C): for each such C, the subalgebras of the
    algebra on F(C), carried back into L.  The subspaces of each F(C) are
    added to a running count charged to the budget before they are walked.
    Each B is closed and lies inside F(C) by construction, so the check
    of :func:`cideals.cideal.frattini_consequence_check` is skipped.
    """
    checked = searched = 0
    for c_sub in enum_subalgebras(l, budget):
        f_c = _frattini_of_closed(l, c_sub, budget)
        if f_c.dim == 0:
            continue
        searched += subspace_count(f_c.dim, l.field.p)
        _check_budget(searched, "subspaces of Frattini subalgebras", budget)
        for w in enum_subalgebras(algebra_on(l, f_c), budget):
            if w.dim == 0:
                continue
            b = f_c.from_coords(w)
            report = _frattini_consequence(l, b, budget, decide)
            if not report.passed:
                witnesses = {
                    "subalgebra_with_frattini": subspace_text(c_sub),
                    "frattini_subalgebra": subspace_text(f_c),
                    "cideal": subspace_text(b),
                    "check": report.as_dict(),
                }
                return FAIL, "a c-ideal inside a Frattini subalgebra escaped the Frattini ideal", witnesses
            checked += 1
    return PASS, None, {"pairs_checked": checked}


_SUITES = {
    "T1": _t1,
    "T2": _t2,
    "T3": _t3,
    "T4": _t4,
    "T5": _t5,
    "T6": _t6,
    "T7": _t7,
    "T8": _t8,
    "T9": _t9,
    "T10": _t10,
    "T11": _t11,
}

SUITE_IDS = tuple(sorted(_SUITES, key=lambda s: int(s[1:])))


def normalize_suites(selection) -> tuple:
    """Accepts None, "all", a comma string or an iterable of suite ids."""
    if selection is None or selection == "all":
        return SUITE_IDS
    if isinstance(selection, str):
        selection = [s.strip() for s in selection.split(",") if s.strip()]
    ids = []
    for s in selection:
        s = s.upper()
        if s not in _SUITES:
            raise BadParams(f"unknown suite {s!r}; pick from {', '.join(SUITE_IDS)}")
        if s not in ids:
            ids.append(s)
    if not ids:
        raise BadParams("empty suite selection")
    return tuple(sorted(ids, key=lambda s: int(s[1:])))


def run_suite(
    l: LieAlgebra,
    suites=None,
    budget: int = DEFAULT_BUDGET,
    algebra_id: str | None = None,
    decide=None,
) -> list:
    """Run the selected suites on one algebra.

    ``decide`` replaces the c-ideal decision procedure and exists for
    harness self-tests; it is called as ``decide(algebra, b, budget)``
    for the questions a suite asks.  T9 and T10 ask it for B's verdict
    in L once per distinct B in a walk, keeping the answer for the
    length of the walk; their other questions, and T11's, are asked once
    per pair, and nothing is kept from one walk or call to the next.
    The default,
    :func:`cideals.cideal.is_cideal`, decides each (algebra, subalgebra,
    budget) value once and keeps the verdict in the algebra's shared
    memo, so value-equal restricted and quotient algebras share one
    verdict across suites and calls.  The c-ideal questions of T1-T6 and
    T9-T11 go through ``decide``.  T7 deliberately does not use it: its
    claim is that the line rule of :func:`cideals.cideal.line_cideal`
    agrees with :func:`cideals.cideal.is_cideal_by_scan`, so it runs
    those two directly on each raw projective point, and T8 checks the
    line classifier against the line rule itself.  Over Q every suite
    outside ``_OVER_Q`` is skipped here, inside its timed section.
    Budget overruns inside a suite produce a skipped report; the pair
    walks of T9-T11 charge the subspaces they search to the budget too,
    before they search them: T9 those of every proper subalgebra, T10
    those of every quotient by an ideal and T11 those of each nonzero
    Frattini subalgebra, as a running count.  Each walk's pairs are
    among those subspaces, so a passing walk checks at most ``budget``
    pairs.
    """
    ids = normalize_suites(suites)
    if decide is None:
        decide = is_cideal
    aid = algebra_id if algebra_id is not None else f"<{l.field} dim {l.dim}>"
    reports = []
    for sid in ids:
        start = time.perf_counter()
        try:
            if l.field.p is None and sid not in _OVER_Q:
                status, reason, witnesses = SKIP, _SKIP_Q_ENUM, {}
            else:
                status, reason, witnesses = _SUITES[sid](l, budget, decide)
        except BudgetExceeded as e:
            status, reason, witnesses = SKIP, f"budget exceeded: {e}", {}
        elapsed = round(time.perf_counter() - start, 6)
        reports.append(TheoremReport(sid, aid, status, reason, witnesses, elapsed))
    return reports


class FuzzResult(namedtuple("FuzzResult", "count reports failures")):
    """Aggregated suite reports over generated algebras."""

    __slots__ = ()
    count: int
    reports: tuple
    failures: tuple

    @property
    def failure_count(self) -> int:
        return len(self.failures)

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "reports": [r.as_dict() for r in self.reports],
            "failures": [
                {
                    "algebra_id": f["algebra_id"],
                    "document": f["document"],
                    "report": f["report"].as_dict(),
                }
                for f in self.failures
            ],
        }


def fuzz(
    seed: int,
    count: int,
    field: Field,
    ambient_n: int = 3,
    suites=None,
    budget: int = DEFAULT_BUDGET,
) -> FuzzResult:
    """Run suites over ``count`` generated solvable algebras.

    Instance k uses seed ``seed + k``, and its target dimension, 2 to 5
    by the seed, is clamped to the ambient t(``ambient_n``).  Failures
    carry the offending algebra's full document.
    """
    if field.p is None:
        raise FieldNotFinite("fuzzing needs a finite field")
    if count < 0:
        raise BadParams("count must be >= 0")
    ambient_dim = ambient_n * (ambient_n + 1) // 2
    reports = []
    failures = []
    for k in range(count):
        s = seed + k
        tdim = max(1, min(2 + s % 4, ambient_dim))
        algebra = random_solvable(s, field, ambient_n, tdim)
        aid = f"fuzz(seed={s},t({ambient_n}),{field})"
        for report in run_suite(algebra, suites, budget, aid):
            reports.append(report)
            if report.status == FAIL:
                failures.append(
                    {
                        "algebra_id": aid,
                        "document": serialize(algebra),
                        "report": report,
                    }
                )
    key = lambda r: (r.algebra_id, int(r.theorem_id[1:]))
    reports.sort(key=key)
    failures.sort(key=lambda f: key(f["report"]))
    return FuzzResult(count, tuple(reports), tuple(failures))
