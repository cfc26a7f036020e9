"""The eight value types keep their contracts: immutable, pickled and
copied to an equal value, equal values equal in hash, Field's checks and
hash, and the dicts the CLI and the reports print."""

import copy
import pickle

import pytest

from cideals import (
    GF,
    BadParams,
    CIdealVerdict,
    Field,
    FrattiniConsequence,
    FuzzResult,
    LineClassification,
    Q,
    SeriesResult,
    StructureProfile,
    Subspace,
    TheoremReport,
    builtin,
    classify_line_cideals,
    frattini,
    frattini_consequence_check,
    is_cideal,
    structure_profile,
)

_REPORT = TheoremReport(
    "T1", "heisenberg(3)/GF(3)", "pass", None, {"solvable": True, "all_maximal_cideal": True}, 0.25
)
_REPORT_DICT = {
    "theorem_id": "T1",
    "algebra_id": "heisenberg(3)/GF(3)",
    "status": "pass",
    "reason": None,
    "witnesses": {"solvable": True, "all_maximal_cideal": True},
    "seconds": 0.25,
}


def _values():
    """One value of each type, as the library makes it, by type name."""
    h = builtin("heisenberg", GF(3), 3)
    line = Subspace.span(h.field, 3, [[1, 0, 0]])
    f, _ = frattini(h)
    return {
        "Field": GF(5),
        "SeriesResult": h.derived_series(),
        "CIdealVerdict": is_cideal(h, line),
        "FrattiniConsequence": frattini_consequence_check(h, f, h.full_space()),
        "LineClassification": classify_line_cideals(builtin("nonabelian2+abelian(1)", GF(3))),
        "StructureProfile": structure_profile(builtin("heisenberg", GF(2), 3)),
        "TheoremReport": _REPORT,
        "FuzzResult": FuzzResult(1, (_REPORT,), ({"algebra_id": "a", "document": "{}", "report": _REPORT},)),
    }


_TYPES = {
    "Field": Field,
    "SeriesResult": SeriesResult,
    "CIdealVerdict": CIdealVerdict,
    "FrattiniConsequence": FrattiniConsequence,
    "LineClassification": LineClassification,
    "StructureProfile": StructureProfile,
    "TheoremReport": TheoremReport,
    "FuzzResult": FuzzResult,
}
# The report's witnesses are a dict, so a report, and a fuzz result that
# holds one, has no hash.
_UNHASHABLE = ("TheoremReport", "FuzzResult")


@pytest.fixture(scope="module")
def values():
    return _values()


@pytest.mark.parametrize("name", sorted(_TYPES))
class TestContracts:
    def test_assignment_raises(self, values, name):
        value = values[name]
        assert type(value) is _TYPES[name]
        first = "p" if name == "Field" else value._fields[0]
        with pytest.raises(AttributeError):
            setattr(value, first, None)
        with pytest.raises(AttributeError):
            value.extra = None
        with pytest.raises(AttributeError):
            delattr(value, first)

    @pytest.mark.parametrize("twin", ["pickle", "copy"])
    def test_pickle_and_copy_give_an_equal_value(self, values, name, twin):
        value = values[name]
        other = pickle.loads(pickle.dumps(value)) if twin == "pickle" else copy.copy(value)
        assert type(other) is type(value) and other == value and not other != value
        assert repr(other) == repr(value)
        if name not in _UNHASHABLE:
            assert hash(other) == hash(value)
        else:
            with pytest.raises(TypeError):
                hash(value)


_RECORDS = sorted(set(_TYPES) - {"Field"})
_DEFAULTS = {
    "CIdealVerdict": {"certificate": None, "method": "", "exhaustive": False},
    "LineClassification": {"abelian_part": None, "almost_abelian_part": None, "scaling_vector": None},
}


@pytest.mark.parametrize("name", _RECORDS)
class TestRecords:
    def test_fields_are_the_annotated_names_with_their_defaults(self, name):
        record = _TYPES[name]
        assert tuple(record.__annotations__) == record._fields
        assert record._field_defaults == _DEFAULTS.get(name, {})

    def test_tuple_behaviour(self, values, name):
        # What the records gain over the dataclasses they were: iteration,
        # indexing and equality with the plain tuple of their values.
        value = values[name]
        items = [getattr(value, field) for field in value._fields]
        assert list(value) == items and value[0] == items[0]
        assert value == tuple(items)


class TestField:
    @pytest.mark.parametrize("p", [None, 2, 3, 5, 101, 2**31 - 1])
    def test_hash_is_that_of_the_tuple_of_p(self, p):
        field = Field(p)
        assert hash(field) == hash((p,))
        assert field == Field(p=p) and hash(field) == hash(Field(p))

    def test_equal_by_p_between_fields_only(self):
        assert GF(5) == Field(5) and GF(5) != GF(7) and GF(5) != Q
        assert GF(5) != 5 and GF(5) != (5,) and Q != None  # noqa: E711

    def test_hashes_of_subspaces_and_algebras_follow_p(self):
        # Subspace and LieAlgebra hashes take the field's, so equal values
        # over separately made Fields still meet in sets and dicts.
        a, b = builtin("t", GF(3), 2), builtin("t", Field(3), 2)
        assert a.field is not b.field and {a, b} == {a}
        assert {a.full_space(), b.full_space()} == {a.full_space()}

    def test_repr_and_str(self):
        assert repr(GF(5)) == "Field(p=5)" and repr(Q) == "Field(p=None)"
        assert str(GF(5)) == "GF(5)" and str(Q) == "Q"

    @pytest.mark.parametrize(
        "p, message",
        [
            (4, "modulus must be a prime <= 2**31, got 4"),
            (1, "modulus must be a prime <= 2**31, got 1"),
            (0, "modulus must be a prime <= 2**31, got 0"),
            (True, "modulus must be an int, got True"),
            (2**31 + 11, f"modulus must be a prime <= 2**31, got {2**31 + 11}"),
        ],
    )
    def test_rejects_bad_moduli(self, p, message):
        with pytest.raises(BadParams) as caught:
            Field(p)
        assert str(caught.value) == message


def test_as_dict_unchanged(values):
    assert values["CIdealVerdict"].as_dict() == {
        "answer": "yes",
        "certificate": "0,1,0; 0,0,1",
        "method": "line_rule",
        "exhaustive": True,
    }
    assert values["FrattiniConsequence"].as_dict() == {
        "passed": True,
        "premise_holds": True,
        "verdict": {
            "answer": "yes",
            "certificate": "1,0,0; 0,1,0; 0,0,1",
            "method": "ideal_is_trivially_cideal",
            "exhaustive": True,
        },
        "is_ideal": True,
        "inside_frattini_ideal": True,
    }
    assert values["LineClassification"].as_dict() == {
        "case": "abelian_plus_almost_abelian",
        "abelian_part": "0,0,1",
        "almost_abelian_part": "1,0,0; 0,1,0",
        "scaling_vector": "1,0,0",
    }
    assert values["StructureProfile"].as_dict() == {
        "field": "GF(2)",
        "dim": 3,
        "abelian": False,
        "nilpotent": True,
        "solvable": True,
        "supersolvable": True,
        "derived_length": 2,
        "nilpotency_class": 2,
        "centre": "0,0,1",
        "derived_dims": [3, 1, 0],
        "lower_central_dims": [3, 1, 0],
        "nilradical": "1,0,0; 0,1,0; 0,0,1",
        "solvable_radical": "1,0,0; 0,1,0; 0,0,1",
        "frattini_subalgebra": "0,0,1",
        "frattini_ideal": "0,0,1",
        "socle": "0,0,1",
    }
    assert values["TheoremReport"].as_dict() == _REPORT_DICT
    assert values["FuzzResult"].as_dict() == {
        "count": 1,
        "reports": [_REPORT_DICT],
        "failures": [{"algebra_id": "a", "document": "{}", "report": _REPORT_DICT}],
    }
    # The keys keep their order, which the CLI's JSON prints in.
    assert list(values["TheoremReport"].as_dict()) == list(_REPORT_DICT)
