"""The c-ideal decision engine.

A subalgebra B of L is a *c-ideal* when some ideal C of L satisfies
L = B + C with B ∩ C contained in the core of B (the largest ideal of L
inside B).  Ideals are always c-ideals with witness C = L, and a line
Fx is a c-ideal exactly when it is an ideal or x lies outside [L, L];
that line rule is decisive over every field.

For anything else the problem is reduced modulo the core: B is a
c-ideal of L exactly when B/B_L has an ideal complement in L/B_L, which
pins the witness dimension.  Over a finite field the reduced algebra's
ideals are enumerated at that dimension, so Yes and No are both exact.
Over Q a Yes is still possible through ideals that can be constructed
canonically (derived and central series terms, centralizers, and their
sums and intersections); when none of those work the honest answer is
Unknown.  Every Yes carries a certificate that is verified against the
definition before it is returned.

Each public form checks its input, then calls its trusted form, which
checks nothing and calls no form that does; a B is checked closed by
:func:`~cideals.liealg._require_closed`, the one place that raises
NotSubalgebra:

- :func:`verify_certificate` (B closed, C a subspace of L) ->
  ``_verify_closed``, which rejects a line's C that is not a hyperplane
  at once, shows any other proper C an ideal by
  ``LieAlgebra._ideal_annihilator`` (the test behind ``is_ideal``), and
  B, B ∩ C by ``_closed_is_ideal``; with C = L it decides the witness-L
  rung of ``_is_cideal`` and ``_line_cideal``, so that yes is checked once;
- :func:`is_cideal` -> ``_is_cideal``, which checks B on a memo miss
  only (the named exception: a repeat pays no closure test) and then
  walks one candidate loop over the rungs of the ladder;
- :func:`is_cideal_by_scan` (B closed) -> ``_core``;
- :func:`line_cideal` (x nonzero, in L) -> ``_line_cideal``;
- :func:`frattini_consequence_check` (B, C closed, B <= F(C)) ->
  ``_frattini_consequence``, which T11 calls for each B it carries out
  of F(C).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .errors import AmbientMismatch, PreconditionUnmet, ZeroVector
from .fields import _qdiv
from .linalg import Subspace, _unbox, raw_sum_and_meet, subspace_text, vector_is_zero
from .liealg import LieAlgebra, _require_closed, algebra_modulo, derived_subspace
from .lattice import DEFAULT_BUDGET, _core, enum_ideals, point_line, upper_central_series
from .structure import _frattini_of_closed, frattini

YES = "yes"
NO = "no"
UNKNOWN = "unknown"

METHOD_IDEAL = "ideal_is_trivially_cideal"
METHOD_LINE = "line_rule"
METHOD_ENUM = "exhaustive_enumeration"
METHOD_LATTICE = "characteristic_lattice"
METHOD_DERIVED = "derived_term"

# The most ideals :func:`characteristic_ideals` collects before it stops.
_CHARACTERISTIC_CAP = 256


@dataclass(frozen=True)
class CIdealVerdict:
    """Outcome of a c-ideal decision.

    ``certificate`` is a witness ideal C when the answer is yes.
    ``exhaustive`` records that the verdict is definitive: every yes is
    (certificates are verified), every finite-field no is (the ideal
    enumeration is complete), and the line rule's no is decisive over
    any field; only unknown is non-definitive.
    """

    answer: str
    certificate: Subspace | None = None
    method: str = ""
    exhaustive: bool = False

    def as_dict(self) -> dict:
        return {
            "answer": self.answer,
            "certificate": None if self.certificate is None else subspace_text(self.certificate),
            "method": self.method,
            "exhaustive": self.exhaustive,
        }


def verify_certificate(l: LieAlgebra, b: Subspace, c: Subspace) -> bool:
    """Check the definition directly: C ideal, B + C = L, B ∩ C <= core(B).

    For a proper C, one elimination gives both dim(B + C) and B ∩ C
    (:func:`~cideals.linalg.raw_sum_and_meet`); for C = L the sum is L and
    B ∩ C = B.  For a line B = Fx and a proper C no elimination is run:
    C must be a hyperplane, and B + C = L with B ∩ C = 0 both say
    x ∉ C, which is one dot product of x with C's single annihilator
    row.  With C an ideal the last condition holds exactly when B ∩ C
    is an ideal: an ideal inside B lies in core(B), and conversely
    B ∩ C <= core(B) makes B ∩ C = core(B) ∩ C, an intersection of two
    ideals.  So no core is computed, and when dim B + dim C = dim L the
    sum condition forces B ∩ C = 0, which needs no check.  C = L is
    answered by B's ideal test alone, and a line's C that is not a
    hyperplane is rejected before any ideal test.  Each other proper C
    is shown an ideal once per algebra, by the structure table before
    any bracket (:meth:`~cideals.liealg.LieAlgebra._ideal_annihilator`),
    and a C that fails is checked again on every call.

    B is checked to be a subalgebra of L first (raises NotSubalgebra);
    for a line that is only the field and ambient check, since a line is
    always closed.  Then C is checked to be a subspace of L.
    """
    _require_closed(l, b, "certificates are checked for subalgebras")
    l._check_subspace(c)
    return _verify_closed(l, b, c)


def _verify_closed(l: LieAlgebra, b: Subspace, c: Subspace) -> bool:
    # verify_certificate for a closed b and a subspace c of l.  B, and B ∩ C
    # with C an ideal, are closed, so their ideal tests try only the
    # brackets with e_j at their non-pivot columns j.  C = L is an ideal
    # with no annihilator row, so it is answered before the memo lookup.
    n = l.dim
    if c.dim == n:
        return l._closed_is_ideal(b)
    if b.dim == 1 and c.dim != n - 1:
        return False
    dual = l._ideal_annihilator(c)
    if dual is None:
        return False
    if b.dim == 1:
        p = l.field.p
        d = sum(map(mul, dual[0], b.rows[0]))
        return bool(d if p is None else d % p)
    width, meet = raw_sum_and_meet(l.field, b.rows, c.rows, n)
    return width == n and (b.dim + c.dim == n or l._closed_is_ideal(meet))


def _whole(l: LieAlgebra) -> Subspace:
    # L as a subspace, the certificate of every ideal, made once per value.
    return l._memoized("full_space", l.full_space)


def _yes(l, b, c, method) -> CIdealVerdict:
    return _checked(l, b, CIdealVerdict(YES, c, method, True))


def _checked(l, b, verdict: CIdealVerdict) -> CIdealVerdict:
    # verdict, a yes for b, once its certificate passes re-verification;
    # b is a subalgebra of l here: the ladder has checked it, and a line
    # is closed.
    if not _verify_closed(l, b, verdict.certificate):
        raise AssertionError(
            f"internal error: {verdict.method} produced a certificate that fails re-verification"
        )
    return verdict


def line_cideal(l: LieAlgebra, x: tuple) -> CIdealVerdict:
    """Decide the line Fx, exactly, over any field.

    Fx is a c-ideal iff it is an ideal or x lies outside [L, L].  In the
    second case a concrete witness exists: [L, L] plus the complement of
    [L, L] + Fx is a codimension-one ideal that misses x.  Whether x lies
    in [L, L] is asked first; outside [L, L], Fx is an ideal exactly when
    x is central, so the ideal test runs only for x in [L, L] (see
    :func:`_line_cideal`).

    x is checked to be nonzero (ZeroVector), of length dim L
    (AmbientMismatch) and over L's field (FieldMismatch), in that order.
    The line's canonical row is x scaled by the inverse of its first
    nonzero entry, so no elimination is run, and the line is the only
    subspace reduced: whether x lies in [L, L], and outside the
    witness, are dot products with annihilator rows kept in L's memo.
    """
    if vector_is_zero(x):
        raise ZeroVector("a line needs a nonzero spanning vector")
    if len(x) != l.dim:
        raise AmbientMismatch(f"vector of length {len(x)} in F^{l.dim}")
    v = _unbox(l.field, x)
    for lead in v:
        if lead:
            break
    if lead != 1:
        p = l.field.p
        if p is None:
            v = tuple(_qdiv(a, lead) for a in v)
        else:
            inv = pow(lead, -1, p)
            v = tuple(a * inv % p for a in v)
    return _line_cideal(l, point_line(l.field, v))


_LINE_NO = CIdealVerdict(NO, None, METHOD_LINE, True)


def _line_cideal(l: LieAlgebra, line: Subspace, ideal_method: str = METHOD_LINE) -> CIdealVerdict:
    """The line rule on a line Fx of l; an ideal line's yes carries
    ``ideal_method``.

    x lies in [L, L] exactly when a_j . x = 0 for every annihilator row
    a_j of [L, L].  Then Fx is a c-ideal exactly when it is an ideal,
    which the certificate check with witness L decides, and otherwise the
    answer is no.
    For x outside [L, L], Fx is an ideal exactly when x is central:
    Fx ∩ [L, L] = 0, so [y, x] in Fx ∩ [L, L] is 0 for every y.  So
    [e_c, x] is tried for each column c but x's pivot (L is Fx plus
    those e_c, and [x, x] = 0), stopping at the first nonzero bracket,
    with no reduction.  A central x gets the yes with witness L.  Any
    other x gets the yes with the hyperplane of :func:`_hyperplane` at
    q, the first non-pivot column j of [L, L] with a_j . x != 0, which
    is x's lead column mod [L, L].

    The annihilator and its columns are made once per algebra value, and
    each hyperplane's frozen verdict once per algebra value and column
    (memo "line_rule"), so no subspace but the line is reduced.  Every
    other yes is re-verified before it is returned, the memo's too.
    """
    # Plain loops that stop at the first nonzero dot product or bracket:
    # this runs once per line decision, and a generator, zip and lambda
    # per call cost about a third of a warm one.
    memo = l._memo
    rule = memo.get("line_rule") if memo else None
    if rule is None:
        rule = l._memoized("line_rule", lambda: _line_rule(l))
    columns, dual, verdicts = rule
    p = l.field.p
    x = line.rows[0]
    for k, a in enumerate(dual):
        d = sum(map(mul, a, x))
        if d if p is None else d % p:
            q = columns[k]
            break
    else:
        whole = _whole(l)
        if _verify_closed(l, line, whole):
            return CIdealVerdict(YES, whole, ideal_method, True)
        return _LINE_NO
    pivot = line.pivots[0]
    ad = l.ad_raw
    for c in range(l.dim):
        if c != pivot and any(ad(c, x)):
            break
    else:
        return _yes(l, line, _whole(l), ideal_method)
    verdict = verdicts.get(q)
    if verdict is None:
        h = _hyperplane(l, derived_subspace(l), q)
        verdict = verdicts[q] = CIdealVerdict(YES, h, METHOD_LINE, True)
    return _checked(l, line, verdict)


def _line_rule(l: LieAlgebra) -> tuple:
    # The non-pivot columns of [L, L], its annihilator rows, one each, and
    # the hyperplane verdicts by column, filled as columns are met.
    derived = derived_subspace(l)
    return derived._free_columns(), derived.annihilator_raw(), {}


def _hyperplane(l: LieAlgebra, derived: Subspace, q: int) -> Subspace:
    # [L, L] + complement([L, L] + Fx), where x reduced modulo [L, L] first
    # leads at column q: every column but q is a pivot, and the row at
    # pivot c is e_c plus (row c of [L, L])[q] times e_q.
    n = l.dim
    at_q = {c: r[q] for c, r in zip(derived.pivots, derived.rows)}
    pivots = tuple(c for c in range(n) if c != q)
    rows = []
    for c in pivots:
        row = [0] * n
        row[c] = 1
        row[q] = at_q.get(c, 0)
        rows.append(tuple(row))
    return Subspace(l.field, n, tuple(rows), pivots)


def is_cideal(l: LieAlgebra, b: Subspace, budget: int = DEFAULT_BUDGET) -> CIdealVerdict:
    """Decide whether the subalgebra b is a c-ideal of l.

    Exact over finite fields.  Over Q the answer is yes (verified
    certificate), no (only from the decisive line rule) or unknown.

    Each (l, b, budget) value is decided once: the verdict is kept in
    l's memo under (b, budget), so value-equal algebras share it, and a
    repeat returns the same frozen verdict, its certificate verified
    when it was first made.  A call that raises stores nothing.
    """
    verdicts = l._memoized("cideal_verdicts", dict)
    key = (b, budget)
    verdict = verdicts.get(key)
    if verdict is None:
        verdict = verdicts[key] = _is_cideal(l, b, budget)
    return verdict


def _is_cideal(l: LieAlgebra, b: Subspace, budget: int) -> CIdealVerdict:
    # is_cideal on a memo miss.  Each rung's candidates are made only when
    # it is reached, so characteristic_ideals runs after every derived term fails.
    _require_closed(l, b, "c-ideal decisions apply to subalgebras")
    if b.dim == 1:
        return _line_cideal(l, b, METHOD_IDEAL)
    whole = _whole(l)
    if _verify_closed(l, b, whole):
        return CIdealVerdict(YES, whole, METHOD_IDEAL, True)

    b_core = _core(l, b)
    reduced = algebra_modulo(l, b_core)
    b_red = b_core.modulo(b)
    target = reduced.dim - b_red.dim

    if l.field.p is not None:
        rungs = ((METHOD_ENUM, lambda: enum_ideals(reduced, budget)),)
        miss = CIdealVerdict(NO, None, METHOD_ENUM, True)
    else:
        rungs = (
            (METHOD_DERIVED, lambda: reduced.derived_series().terms[1:]),
            (METHOD_LATTICE, lambda: characteristic_ideals(reduced)),
        )
        miss = CIdealVerdict(UNKNOWN, None, METHOD_LATTICE, False)
    for method, candidates in rungs:
        for cand in candidates():
            if cand.dim == target and (b_red + cand).dim == reduced.dim:
                return _yes(l, b, b_core.preimage(cand), method)
    return miss


def is_cideal_by_scan(l: LieAlgebra, b: Subspace, budget: int = DEFAULT_BUDGET) -> CIdealVerdict:
    """Definition-faithful oracle: try every ideal of L as the witness.

    Slower than :func:`is_cideal` but shares none of its reduction
    logic, which is what makes it useful as a cross-check.  An ideal C
    with dim B + dim C < dim L cannot give B + C = L, so it is passed
    over with no elimination.  For C = L the sum is L and B ∩ C = B, so
    C passes when B <= core(B), again with no elimination; any other C
    takes one, which gives both dim(B + C) and B ∩ C
    (:func:`~cideals.linalg.raw_sum_and_meet`).  Finite fields only.
    """
    _require_closed(l, b, "c-ideal decisions apply to subalgebras")
    b_core = _core(l, b)
    n = l.dim
    for cand in enum_ideals(l, budget):
        if b.dim + cand.dim < n:
            continue
        if cand.dim == n:
            passed = b <= b_core
        else:
            width, meet = raw_sum_and_meet(l.field, b.rows, cand.rows, n)
            passed = width == n and meet <= b_core
        if passed:
            return CIdealVerdict(YES, cand, METHOD_ENUM, True)
    return CIdealVerdict(NO, None, METHOD_ENUM, True)


def characteristic_ideals(l: LieAlgebra) -> tuple:
    """Ideals available without enumeration, closed under + and ∩.

    Seeds: 0, L, the derived and lower-central terms, the ascending
    central series, and the centralizers of all of those.  The closure
    is capped to keep the search finite; order is deterministic.
    """
    return l._memoized("characteristic_ideals", lambda: _characteristic_ideals(l))


def _characteristic_ideals(l: LieAlgebra) -> tuple:
    found = {l.zero_space(), l.full_space()}
    seeds = set()
    seeds.update(l.derived_series().terms)
    seeds.update(l.lower_central_series().terms)
    seeds.update(upper_central_series(l))
    for s in list(seeds):
        seeds.add(l.centralizer(s))
    found.update(seeds)
    while len(found) < _CHARACTERISTIC_CAP:
        ordered = sorted(found, key=Subspace.sort_key)
        new = set()
        for i, u in enumerate(ordered):
            for v in ordered[i + 1 :]:
                for w in (u + v, u & v):
                    if w not in found:
                        new.add(w)
        if not new:
            break
        for w in sorted(new, key=Subspace.sort_key):
            if len(found) >= _CHARACTERISTIC_CAP:
                break
            found.add(w)
    if not all(l.is_ideal(u) for u in found):
        raise AssertionError("internal error: characteristic_ideals produced a non-ideal")
    return tuple(sorted(found, key=Subspace.sort_key))


@dataclass(frozen=True)
class FrattiniConsequence:
    """Result of :func:`frattini_consequence_check`.

    When the premise fails (b is not a c-ideal of l) the check passes
    vacuously and the two conclusion fields are None.
    """

    passed: bool
    premise_holds: bool
    verdict: CIdealVerdict
    is_ideal: bool | None
    inside_frattini_ideal: bool | None

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "premise_holds": self.premise_holds,
            "verdict": self.verdict.as_dict(),
            "is_ideal": self.is_ideal,
            "inside_frattini_ideal": self.inside_frattini_ideal,
        }


def frattini_consequence_check(
    l: LieAlgebra,
    b: Subspace,
    c_sub: Subspace,
    budget: int = DEFAULT_BUDGET,
    decide=is_cideal,
) -> FrattiniConsequence:
    """Check: a c-ideal lying inside a Frattini subalgebra is an ideal
    inside the Frattini ideal.

    ``b`` must sit inside F(c_sub) for a subalgebra c_sub of l (raises
    PreconditionUnmet otherwise).  Finite fields only, since Frattini
    subalgebras come from maximal-subalgebra enumeration.  ``decide``
    decides the premise; it is the hook of :func:`cideals.harness.run_suite`.
    """
    _require_closed(l, b, "b must be a subalgebra")
    _require_closed(l, c_sub, "c_sub must be a subalgebra")
    if not b <= _frattini_of_closed(l, c_sub, budget):
        raise PreconditionUnmet(
            "b does not lie inside the Frattini subalgebra of c_sub"
        )
    return _frattini_consequence(l, b, budget, decide)


def _frattini_consequence(l: LieAlgebra, b: Subspace, budget: int, decide) -> FrattiniConsequence:
    # frattini_consequence_check for a closed b known to lie inside the
    # Frattini subalgebra of a subalgebra, without the checks.
    verdict = decide(l, b, budget)
    if verdict.answer != YES:
        return FrattiniConsequence(True, False, verdict, None, None)
    ideal_ok = l._closed_is_ideal(b)
    _, phi = frattini(l, budget)
    inside = b <= phi
    return FrattiniConsequence(ideal_ok and inside, True, verdict, ideal_ok, inside)
