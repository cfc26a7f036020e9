"""Scalars are made at the public boundary only.

The decision engine and the claim suites map subspaces into
subalgebras and quotients on raw rows, the line families go from the ad
rows to eigenspaces on raw rows, and the line classifier and T7/T8 scan
raw projective points, so deciding a c-ideal, a line or a suite, or
listing line ideals, builds no :class:`~cideals.fields.Scalar` at all;
:func:`classify_line_cideals` boxes only the vector it returns.  Each
count starts cold: from an empty table of canonical algebras, on a
fresh algebra whose memo is unset, so no derived object computed
earlier can hide a Scalar.  Algebras are built, summed, parsed and
written on raw rows too, with no Scalar made.  Entries coming in are
checked: :meth:`~cideals.fields.Field.raw` makes each :class:`Matrix`
entry and each structure constant raw, and refuses a float or, over
GF(p), a value that is not an integer.
"""

from decimal import Decimal
from fractions import Fraction

import pytest

from cideals import GF, BadParams, FieldMismatch, LieAlgebra, Matrix, Q, builtin, catalog_algebras
from cideals import classify_line_cideals, direct_sum, enum_subalgebras, is_cideal, is_supersolvable
from cideals import line_cideal, liealg, one_dim_ideals, parse, projective_points, random_solvable
from cideals import run_suite, serialize
from cideals.fields import Scalar
from cideals.lattice import ideal_line_families

_ALGEBRAS = {
    "heisenberg(3)+abelian(1)/GF(3)": lambda: builtin("heisenberg(3)+abelian(1)", GF(3)),
    "sl2/GF(5)": lambda: builtin("sl2", GF(5)),
    "t(2)/GF(3)": lambda: builtin("t(2)", GF(3)),
    "random_solvable(3, GF(2), 3, 4)": lambda: random_solvable(3, GF(2), 3, 4),
}


def _scalars_made(monkeypatch, name, work) -> int:
    """Scalar constructions during ``work(l)``, with ``l`` a fresh algebra
    ``name`` and the table of canonical algebras empty."""
    monkeypatch.setattr(liealg, "_canonical", {})
    l = _ALGEBRAS[name]()
    assert l._memo is None
    made = [0]
    make = Scalar._make.__func__

    def counting(cls, field, value):
        made[0] += 1
        return make(cls, field, value)

    with monkeypatch.context() as m:
        m.setattr(Scalar, "_make", classmethod(counting))
        work(l)
    return made[0]


@pytest.mark.parametrize("name", sorted(_ALGEBRAS))
class TestNoScalarsInside:
    def test_is_cideal_on_every_subalgebra(self, monkeypatch, name):
        subalgebras = enum_subalgebras(_ALGEBRAS[name]())
        made = _scalars_made(monkeypatch, name, lambda l: [is_cideal(l, b) for b in subalgebras])
        assert made == 0

    def test_line_cideal_on_every_point(self, monkeypatch, name):
        shape = _ALGEBRAS[name]()
        points = list(projective_points(shape.field, shape.dim))
        assert _scalars_made(monkeypatch, name, lambda l: [line_cideal(l, x) for x in points]) == 0

    @pytest.mark.parametrize("suite", ["T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8", "T9", "T10", "T11"])
    def test_suite(self, monkeypatch, name, suite):
        reports = []
        assert _scalars_made(monkeypatch, name, lambda l: reports.extend(run_suite(l, suite))) == 0
        assert [r.status for r in reports] in (["pass"], ["skipped"])

    @pytest.mark.parametrize("work", [one_dim_ideals, is_supersolvable, ideal_line_families])
    def test_line_ideals(self, monkeypatch, name, work):
        assert _scalars_made(monkeypatch, name, work) == 0

    def test_classifier_boxes_only_its_vector(self, monkeypatch, name):
        out = []
        made = _scalars_made(monkeypatch, name, lambda l: out.append(classify_line_cideals(l)))
        x = out[0].scaling_vector
        assert made == (0 if x is None else len(x))
        assert (x is None) == (out[0].case != "abelian_plus_almost_abelian")


def _constructions(monkeypatch, work) -> tuple:
    """Scalars made during ``work()`` by ``Scalar._make`` and by the
    constructor."""
    made = [0, 0]
    make = Scalar._make.__func__
    init = Scalar.__init__

    def counting_make(cls, field, value):
        made[0] += 1
        return make(cls, field, value)

    def counting_init(self, field, value):
        made[1] += 1
        init(self, field, value)

    with monkeypatch.context() as m:
        m.setattr(Scalar, "_make", classmethod(counting_make))
        m.setattr(Scalar, "__init__", counting_init)
        work()
    return tuple(made)


@pytest.mark.parametrize("field", [GF(2), GF(3), Q], ids=str)
class TestDocumentsOnRawRows:
    def test_builtin_and_direct_sum(self, monkeypatch, field):
        out = []
        assert _constructions(monkeypatch, lambda: out.extend(catalog_algebras(field))) == (0, 0)
        l = dict(out)
        work = lambda: direct_sum(l["heisenberg(3)"], l["nonabelian2"])
        assert _constructions(monkeypatch, work) == (0, 0)

    def test_parse_and_serialize(self, monkeypatch, field):
        algebras = [l for _, l in catalog_algebras(field)]
        docs = []
        assert _constructions(monkeypatch, lambda: docs.extend(map(serialize, algebras))) == (0, 0)
        assert _constructions(monkeypatch, lambda: [parse(d) for d in docs]) == (0, 0)


@pytest.mark.parametrize("field", [GF(2), GF(3)], ids=str)
def test_random_solvable_on_raw_rows(monkeypatch, field):
    work = lambda: [random_solvable(s, field, 3, 3, strictly_upper=s % 2 == 1) for s in range(6)]
    assert _constructions(monkeypatch, work) == (0, 0)


@pytest.mark.parametrize("name", sorted(_ALGEBRAS))
def test_restricted_and_quotient_algebras_take_raw_constants(monkeypatch, name):
    shape = _ALGEBRAS[name]()
    subalgebras = enum_subalgebras(shape)
    ideals = [u for u in subalgebras if shape.is_ideal(u)]
    inits = [0]
    init = Scalar.__init__

    def counting(self, field, value):
        inits[0] += 1
        init(self, field, value)

    def work(l):
        with monkeypatch.context() as m:
            m.setattr(Scalar, "__init__", counting)
            for u in subalgebras:
                l.restrict(u)
            for i in ideals:
                l.quotient(i)

    assert _scalars_made(monkeypatch, name, work) == 0
    assert inits[0] == 0


class TestMatrixEntriesAreChecked:
    def test_scalar_over_another_field(self):
        with pytest.raises(FieldMismatch):
            Matrix(GF(5), 2, 2, (GF(3).scalar(1),) * 4)

    def test_float(self):
        with pytest.raises(BadParams):
            Matrix(GF(5), 1, 2, (GF(5).scalar(1), 0.5))

    def test_bare_values_are_coerced(self):
        m = Matrix(GF(5), 1, 2, (GF(5).scalar(1), 7))
        assert m.entry(0, 1) == GF(5).scalar(2)
        assert m == Matrix.from_rows(GF(5), [[1, 2]])
        assert repr(m) == "Matrix(GF(5), 1x2: 1,2)"

    @pytest.mark.parametrize("value", [Fraction(1, 2), Fraction(7, 3), Decimal("0.5")], ids=str)
    def test_non_integral_rational(self, value):
        # GF(5) has no residue for it, so no integer part is taken
        with pytest.raises(BadParams):
            Matrix(GF(5), 1, 2, (value, 1))
        with pytest.raises(BadParams):
            LieAlgebra(GF(5), 2, brackets={(0, 1): (value, 0)})

    def test_integral_rational(self):
        assert Matrix(GF(5), 1, 2, (Fraction(4, 2), Decimal("7"))).raw == ((2, 2),)
        l = LieAlgebra(GF(5), 2, brackets={(0, 1): (0, Fraction(4, 2))})
        assert l == LieAlgebra(GF(5), 2, brackets={(0, 1): (0, 2)})
