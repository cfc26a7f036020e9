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
Unknown.  Every Yes carries a certificate that is re-verified against
the definition before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotSubalgebra, PreconditionUnmet, ZeroVector
from .linalg import Subspace, raw_rref, subspace_text, vector_is_zero
from .liealg import LieAlgebra, algebra_modulo, derived_subspace
from .lattice import DEFAULT_BUDGET, core, enum_ideals
from .structure import frattini, frattini_of_subalgebra, upper_central_series

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

    B + C = L is tested without forming the sum: the rows of B reduced
    modulo C must have rank dim L - dim C.  With C an ideal the last
    condition holds exactly when B ∩ C is an ideal: an ideal inside B
    lies in core(B), and conversely B ∩ C <= core(B) makes
    B ∩ C = core(B) ∩ C, an intersection of two ideals.  So no core is
    computed, and when dim B + dim C = dim L the sum condition forces
    B ∩ C = 0, which needs no check.  Each ideal C is checked by
    brackets once per algebra: the ideals already shown are kept in the
    algebra's memo, and a C that fails is checked again on every call.
    """
    if not l.is_subalgebra(b):
        raise NotSubalgebra("certificates are checked for subalgebras")
    ideals = l._memoized("verified_ideals", set)
    if c not in ideals:
        if not l.is_ideal(c):
            return False
        ideals.add(c)
    n = l.dim
    if c.dim < n:
        left = [c.reduce_raw(r) for r in b.rows]
        if len(raw_rref(l.field.p, left, n)[0]) != n - c.dim:
            return False
    return b.dim + c.dim == n or l.is_ideal(b & c)


def _yes(l, b, c, method) -> CIdealVerdict:
    if not verify_certificate(l, b, c):
        raise AssertionError(
            f"internal error: {method} produced a certificate that fails re-verification"
        )
    return CIdealVerdict(YES, c, method, True)


def line_cideal(l: LieAlgebra, x: tuple) -> CIdealVerdict:
    """Decide the line Fx, exactly, over any field.

    Fx is a c-ideal iff it is an ideal or x lies outside [L, L].  In the
    second case a concrete witness exists: [L, L] plus the complement of
    [L, L] + Fx is a codimension-one ideal that misses x.
    """
    if vector_is_zero(x):
        raise ZeroVector("a line needs a nonzero spanning vector")
    return _line_cideal(l, Subspace.from_vectors(l.field, l.dim, [x]))


def _line_cideal(l: LieAlgebra, line: Subspace) -> CIdealVerdict:
    if l._closed_is_ideal(line):
        return _yes(l, line, l.full_space(), METHOD_LINE)
    derived = derived_subspace(l)
    rest = derived.reduce_raw(line.rows[0])
    q = next((c for c, x in enumerate(rest) if x), None)
    if q is None:
        return CIdealVerdict(NO, None, METHOD_LINE, True)
    return _yes(l, line, _hyperplane(l, derived, q), METHOD_LINE)


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
    if not l.is_subalgebra(b):
        raise NotSubalgebra("c-ideal decisions apply to subalgebras")
    if l._closed_is_ideal(b):
        return _yes(l, b, l.full_space(), METHOD_IDEAL)
    if b.dim == 1:
        return _line_cideal(l, b)

    b_core = core(l, b)
    reduced = algebra_modulo(l, b_core)
    b_red = b_core.modulo(b)
    target = reduced.dim - b_red.dim

    if l.field.p is not None:
        for cand in enum_ideals(reduced, budget):
            if cand.dim == target and (b_red + cand).dim == reduced.dim:
                return _yes(l, b, b_core.preimage(cand), METHOD_ENUM)
        return CIdealVerdict(NO, None, METHOD_ENUM, True)

    for cand in reduced.derived_series().terms[1:]:
        if cand.dim == target and (b_red + cand).dim == reduced.dim:
            return _yes(l, b, b_core.preimage(cand), METHOD_DERIVED)
    for cand in characteristic_ideals(reduced):
        if cand.dim == target and (b_red + cand).dim == reduced.dim:
            return _yes(l, b, b_core.preimage(cand), METHOD_LATTICE)
    return CIdealVerdict(UNKNOWN, None, METHOD_LATTICE, False)


def is_cideal_by_scan(l: LieAlgebra, b: Subspace, budget: int = DEFAULT_BUDGET) -> CIdealVerdict:
    """Definition-faithful oracle: try every ideal of L as the witness.

    Slower than :func:`is_cideal` but shares none of its reduction
    logic, which is what makes it useful as a cross-check.  An ideal C
    with dim B + dim C < dim L cannot give B + C = L, so it is passed
    over before the sum is formed.  Finite fields only.
    """
    if not l.is_subalgebra(b):
        raise NotSubalgebra("c-ideal decisions apply to subalgebras")
    b_core = core(l, b)
    for cand in enum_ideals(l, budget):
        if b.dim + cand.dim >= l.dim and (b + cand).dim == l.dim and (b & cand) <= b_core:
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
    if not l.is_subalgebra(b):
        raise NotSubalgebra("b must be a subalgebra")
    if not l.is_subalgebra(c_sub):
        raise NotSubalgebra("c_sub must be a subalgebra")
    f_c = frattini_of_subalgebra(l, c_sub, budget)
    if not b <= f_c:
        raise PreconditionUnmet(
            "b does not lie inside the Frattini subalgebra of c_sub"
        )
    verdict = decide(l, b, budget)
    if verdict.answer != YES:
        return FrattiniConsequence(True, False, verdict, None, None)
    ideal_ok = l.is_ideal(b)
    _, phi = frattini(l, budget)
    inside = b <= phi
    return FrattiniConsequence(ideal_ok and inside, True, verdict, ideal_ok, inside)
