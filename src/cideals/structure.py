"""Structural predicates and invariants.

Solvability, nilpotency and supersolvability; the ascending central
series; nilradical and solvable radical; Frattini subalgebra and ideal;
abelian socle; almost-abelian recognition; and the classifier for the
two shapes of algebra in which every line is a c-ideal (cube zero, or
an abelian ideal plus an almost-abelian ideal).  The flag of ideals and
the ascending central series are built in :mod:`cideals.lattice`, whose
maximal subalgebras rest on them, and imported from there.

Over a finite field, radicals, F(L), phi(L) and the socle of a
supersolvable L are read off its flag's weights in polynomial time, with
no listing; any other L lists its ideals or maximal subalgebras.  Over
Q they are not computed; the rest is linear algebra over either field.

Public and trusted forms, as in :mod:`cideals.liealg`:

- :func:`frattini_of_subalgebra` (u closed) -> ``_frattini_of_closed``;
- :func:`frattini` -> ``_frattini_subalgebra``, by the flag's weights
  (``_flag_frattini``, the common kernel of the forms of every step) or
  one fold of ``&`` over the listed maximal subalgebras, then ``_core``
  of F(L), an intersection of subalgebras, so closed;
- :func:`radicals` -> ``_ideal_annihilator``, ``_nilpotent_on``,
  ``_solvable_on`` of ideals, all closed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from operator import and_

from .fields import _qdiv
from .linalg import Subspace, _box, raw_dots, raw_kernel, subspace_text, vector_text
from .liealg import (
    LieAlgebra,
    _nilpotent_on,
    _require_closed,
    _solvable_on,
    algebra_on,
    derived_subspace,
    is_nilpotent,
    is_solvable,
)
from .lattice import (
    DEFAULT_BUDGET,
    _core,
    _flag_weights,
    enum_ideals,
    ideal_line_families,
    maximal_subalgebras,
    supersolvable_flag,
    upper_central_series,
)

CASE_CUBE_ZERO = "cube_zero"
CASE_SPLIT = "abelian_plus_almost_abelian"
CASE_NEITHER = "neither"


def is_abelian(l: LieAlgebra) -> bool:
    return not any(map(any, l._ad))


def derived_length(l: LieAlgebra) -> int | None:
    """Steps for the derived series to reach 0, or None if it never does."""
    terms = l.derived_series().terms
    return len(terms) - 1 if terms[-1].dim == 0 else None


def nilpotency_class(l: LieAlgebra) -> int | None:
    """Steps for the lower central series to reach 0, or None."""
    terms = l.lower_central_series().terms
    return len(terms) - 1 if terms[-1].dim == 0 else None


# ---------------------------------------------------------------------------
# supersolvability

def is_supersolvable(l: LieAlgebra) -> bool:
    return supersolvable_flag(l) is not None


# ---------------------------------------------------------------------------
# radicals, Frattini objects and the socle (finite fields)

def radicals(l: LieAlgebra, budget: int = DEFAULT_BUDGET) -> tuple[Subspace, Subspace]:
    """(nilradical, solvable radical).

    With a flag of ideals, in O(n^4) with no listing and no budget
    charged: L is solvable, so the radical is L, and the nilradical is
    the common kernel of the flag's weights (``lattice._flag_weights``),
    checked to be an ideal and nilpotent.  A nilpotent ideal acts by zero
    on each factor G_i/G_{i-1}, and the common kernel acts strictly
    triangularly on the flag's basis, so is nilpotent by Engel's theorem.

    Otherwise the nilradical (radical) is the largest listed nilpotent
    (solvable) ideal, as a sum of two such ideals is one, checked to
    contain every other; each ideal is decided on its structure table.
    """
    weights = _flag_weights(l)
    if weights is not None:
        nilrad = raw_kernel(l.field, weights[3], l.dim)
        if l._ideal_annihilator(nilrad) is None or not _nilpotent_on(l, nilrad):
            raise AssertionError("nilradical failed its own verification")
        return nilrad, l.full_space()
    ideals = enum_ideals(l, budget)
    nil = [i for i in ideals if _nilpotent_on(l, i)]
    sol = [i for i in ideals if _solvable_on(l, i)]
    nilrad = max(nil, key=lambda i: i.dim)
    rad = max(sol, key=lambda i: i.dim)
    if not _nilpotent_on(l, nilrad) or any(not (i <= nilrad) for i in nil):
        raise AssertionError("nilradical failed its own verification")
    if not _solvable_on(l, rad) or any(not (i <= rad) for i in sol):
        raise AssertionError("solvable radical failed its own verification")
    return nilrad, rad


def _frattini_subalgebra(l: LieAlgebra, budget: int) -> Subspace:
    # F(L): from the flag's weights when L has a flag of ideals, with no
    # budget charged; else the intersection of the listed maximal subalgebras.
    weights = _flag_weights(l)
    if weights is not None:
        return l._memoized("frattini_subalgebra", lambda: _flag_frattini(l, *weights))
    maxes = maximal_subalgebras(l, budget)
    return l._memoized("frattini_subalgebra", lambda: reduce(and_, maxes, l.full_space()))


def _flag_frattini(l: LieAlgebra, b: list, table: dict, lam: list, _) -> Subspace:
    # F(L) on the coordinates y of x = sum_j y_j b_j: with t_jk^l those of
    # [b_j, b_k], ker(s b_i* + sum_{l>i} c_l b_l*) is closed exactly when
    # s t_jk^i + sum_{l>i} t_jk^l c_l - lam[i][j] c_k + lam[i][k] c_j = 0
    # for every i < j < k.  Every solution counts: one with s = 0 vanishes
    # on the ideal G = span(b_0..b_i), as lam[i] does, so f([x, y]) =
    # lam_i(x) f(y) - lam_i(y) f(x) holds for every pair x, y, ker f is a
    # subalgebra of codimension 1, so maximal, and it contains F(L).
    p, n = l.field.p, l.dim
    forms = []
    for i in range(n):
        equations = []
        for j, k in itertools.combinations(range(i + 1, n), 2):
            row = list(table[j, k][i:])
            row[k - i] -= lam[i][j]
            row[j - i] += lam[i][k]
            equations.append([x % p for x in row])
        forms += [(0,) * i + r for r in raw_kernel(l.field, equations, n - i).rows]
    common = raw_kernel(l.field, forms, n).rows
    return Subspace.from_raw(l.field, n, [list(raw_dots(p, zip(*b), ys)) for ys in common])


def frattini(l: LieAlgebra, budget: int = DEFAULT_BUDGET) -> tuple[Subspace, Subspace]:
    """(F(L), phi(L)): intersection of the maximal subalgebras, and its core.

    With a flag of ideals, in O(n^5) with no listing and no budget
    charged: each maximal subalgebra is ker f, of codimension 1, and the
    f zero on b_0..b_{i-1} solve one homogeneous system on the structure
    constants on the flag's basis, step i, each solution such an f; F(L)
    is their common kernel.  Otherwise it is the intersection of the
    listed maximal subalgebras.  For a zero- or one-dimensional algebra
    F(L) is 0.
    """
    f = _frattini_subalgebra(l, budget)
    return f, _core(l, f)


def frattini_of_subalgebra(l: LieAlgebra, u: Subspace, budget: int = DEFAULT_BUDGET) -> Subspace:
    """F(u) for a subalgebra u, expressed in the coordinates of L.

    F(u) is found as :func:`frattini` finds F(L): with a flag of ideals
    no budget is charged, else it is checked against the subspaces of u,
    not of L.  A subspace that is not closed raises NotSubalgebra.
    """
    _require_closed(l, u)
    return _frattini_of_closed(l, u, budget)


def _frattini_of_closed(l: LieAlgebra, u: Subspace, budget: int) -> Subspace:
    # frattini_of_subalgebra for a u known to be closed, without the check.
    return u.from_coords(_frattini_subalgebra(algebra_on(l, u), budget))


def abelian_socle(l: LieAlgebra, budget: int = DEFAULT_BUDGET) -> Subspace:
    """The sum of the minimal abelian ideals.

    With a flag of ideals every minimal ideal is a line (its meet with
    the first G_i it meets is one), so the socle is the span of
    :func:`~cideals.lattice.ideal_line_families`, polynomial, with no
    listing and no budget charged.  Otherwise each listed ideal not in
    the running sum is tested for minimality against the listed ideals.
    """
    if _flag_weights(l) is not None:
        return sum(ideal_line_families(l), l.zero_space())
    ideals = [i for i in enum_ideals(l, budget) if i.dim > 0]
    out = l.zero_space()
    for i in ideals:
        if i <= out or any(j.dim < i.dim and j <= i for j in ideals):
            continue
        if l.span_product(i, i).dim == 0:
            out = out + i
    return out


# ---------------------------------------------------------------------------
# almost-abelian shape and the line classifier

def almost_abelian_witness(l: LieAlgebra):
    """The vector x with L = [L,L] + Fx and [x, y] = y on [L,L], or None.

    An almost-abelian algebra is a nonzero abelian ideal extended by a
    vector acting on it as the identity; by convention a
    one-dimensional algebra does not qualify (its derived algebra is
    zero).
    """
    x = _almost_abelian_raw(l)
    return None if x is None else _box(l.field, x)


def _almost_abelian_raw(l: LieAlgebra):
    # almost_abelian_witness as a raw row.
    squared = derived_subspace(l)
    if squared.dim == 0 or l.dim - squared.dim != 1:
        return None
    if l.span_product(squared, squared).dim != 0:
        return None
    return _scaling_vector(l, squared.complement().rows[0], squared)


def _scaling_vector(l: LieAlgebra, w: tuple, squared: Subspace):
    # The multiple x of the raw row w with [x, y] = y for every y in
    # squared, as a raw row, or None.
    p = l.field.p

    def scaled(c, row) -> list:
        return [c * a if p is None else c * a % p for a in row]

    lam = l.bracket_raw(w, squared.rows[0])[squared.pivots[0]]
    if not lam:
        return None
    if any(l.bracket_raw(w, b) != scaled(lam, b) for b in squared.rows):
        return None
    return tuple(scaled(_qdiv(1, lam) if p is None else pow(lam, -1, p), w))


def is_almost_abelian(l: LieAlgebra) -> bool:
    return _almost_abelian_raw(l) is not None


@dataclass(frozen=True)
class LineClassification:
    """Which of the all-lines-are-c-ideals shapes an algebra has.

    ``case`` is one of CASE_CUBE_ZERO, CASE_SPLIT, CASE_NEITHER.  For
    the split case the parts are recorded: ``abelian_part`` (an abelian
    ideal), ``almost_abelian_part`` (an almost-abelian ideal summing
    with it to L) and ``scaling_vector``, the x acting as the identity
    on the almost-abelian part's derived algebra.
    """

    case: str
    abelian_part: Subspace | None = None
    almost_abelian_part: Subspace | None = None
    scaling_vector: tuple | None = None

    def as_dict(self) -> dict:
        return {
            "case": self.case,
            "abelian_part": None if self.abelian_part is None else subspace_text(self.abelian_part),
            "almost_abelian_part": (
                None if self.almost_abelian_part is None else subspace_text(self.almost_abelian_part)
            ),
            "scaling_vector": (
                None if self.scaling_vector is None else vector_text(self.scaling_vector)
            ),
        }


def classify_line_cideals(l: LieAlgebra) -> LineClassification:
    """Decide whether L has one of the two all-lines shapes.

    Either [[L,L],L] = 0, or L = A ⊕ B with A an abelian ideal and B an
    almost-abelian ideal.  The split is reconstructed explicitly (A is
    the centre, B is [L,L] plus the scaled complement vector) and then
    re-verified part by part before being returned.
    """
    case, split = _line_shape(l)
    if split is None:
        return LineClassification(case)
    a_part, b_part, x = split
    return LineClassification(case, a_part, b_part, _box(l.field, x))


def _line_shape(l: LieAlgebra) -> tuple:
    # (case, None), or (CASE_SPLIT, (A, B, x)) with x a raw row.
    full = l.full_space()
    squared = derived_subspace(l)
    if l.span_product(full, squared).dim == 0:
        return CASE_CUBE_ZERO, None
    if l.span_product(squared, squared).dim != 0:
        return CASE_NEITHER, None
    centre = l.centre()
    fixed = centre + squared
    # centre ∩ [L, L] = 0 exactly when the sum is direct.
    if fixed.dim != centre.dim + squared.dim or l.dim - fixed.dim != 1:
        return CASE_NEITHER, None
    x = _scaling_vector(l, fixed.complement().rows[0], squared)
    if x is None:
        return CASE_NEITHER, None
    a_part = centre
    b_part = Subspace.from_raw(l.field, l.dim, squared.rows + (x,))
    split_ok = (
        l.is_ideal(a_part)
        and l.is_ideal(b_part)
        and (a_part + b_part).dim == l.dim
        and (a_part & b_part).dim == 0
        and l.span_product(a_part, a_part).dim == 0
        and is_almost_abelian(algebra_on(l, b_part))
    )
    if not split_ok:
        raise AssertionError("split reconstruction failed its own verification")
    return CASE_SPLIT, (a_part, b_part, x)


# ---------------------------------------------------------------------------
# profiles

@dataclass(frozen=True)
class StructureProfile:
    """A bundle of structural facts about one algebra.

    The nilradical, solvable_radical, frattini pair and socle are None
    over Q; over GF(p) a supersolvable L has them from its flag, any
    other L from its listed lattice, within the budget.
    """

    field: str
    dim: int
    abelian: bool
    nilpotent: bool
    solvable: bool
    supersolvable: bool
    derived_length: int | None
    nilpotency_class: int | None
    centre: Subspace
    derived_dims: tuple
    lower_central_dims: tuple
    nilradical: Subspace | None
    solvable_radical: Subspace | None
    frattini_subalgebra: Subspace | None
    frattini_ideal: Subspace | None
    socle: Subspace | None

    def as_dict(self) -> dict:
        def sub(s):
            return None if s is None else subspace_text(s)

        return {
            "field": self.field,
            "dim": self.dim,
            "abelian": self.abelian,
            "nilpotent": self.nilpotent,
            "solvable": self.solvable,
            "supersolvable": self.supersolvable,
            "derived_length": self.derived_length,
            "nilpotency_class": self.nilpotency_class,
            "centre": sub(self.centre),
            "derived_dims": list(self.derived_dims),
            "lower_central_dims": list(self.lower_central_dims),
            "nilradical": sub(self.nilradical),
            "solvable_radical": sub(self.solvable_radical),
            "frattini_subalgebra": sub(self.frattini_subalgebra),
            "frattini_ideal": sub(self.frattini_ideal),
            "socle": sub(self.socle),
        }


def structure_profile(l: LieAlgebra, budget: int = DEFAULT_BUDGET) -> StructureProfile:
    """Compute the full profile; enumeration parts only over finite fields."""
    finite = l.field.p is not None
    nilrad = rad = f = phi = soc = None
    if finite:
        nilrad, rad = radicals(l, budget)
        f, phi = frattini(l, budget)
        soc = abelian_socle(l, budget)
    return StructureProfile(
        field=str(l.field),
        dim=l.dim,
        abelian=is_abelian(l),
        nilpotent=is_nilpotent(l),
        solvable=is_solvable(l),
        supersolvable=is_supersolvable(l),
        derived_length=derived_length(l),
        nilpotency_class=nilpotency_class(l),
        centre=l.centre(),
        derived_dims=tuple(t.dim for t in l.derived_series().terms),
        lower_central_dims=tuple(t.dim for t in l.lower_central_series().terms),
        nilradical=nilrad,
        solvable_radical=rad,
        frattini_subalgebra=f,
        frattini_ideal=phi,
        socle=soc,
    )
