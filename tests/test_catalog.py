import hashlib
import json

import pytest

from cideals import (
    BadParams,
    DocumentSyntaxError,
    FieldNotFinite,
    GF,
    JacobiViolation,
    Q,
    UnknownName,
    builtin,
    builtin_names,
    catalog_algebras,
    is_nilpotent,
    is_solvable,
    parse,
    random_solvable,
    serialize,
)

from oracles import oracle_jacobi_ok


class TestSerialize:
    def test_single_line_sorted_keys(self, h3_gf2):
        text = serialize(h3_gf2)
        assert text.endswith("\n")
        assert "\n" not in text[:-1]
        doc = json.loads(text)
        assert list(doc) == sorted(doc)

    def test_scalars_are_strings(self, sl2_q):
        doc = json.loads(serialize(sl2_q))
        for entry in doc["brackets"]:
            assert all(isinstance(c, str) for c in entry["coeffs"])

    def test_meta_only_when_present(self, h3_gf2):
        assert "meta" not in json.loads(serialize(h3_gf2))

    def test_round_trip_equality(self):
        for field in (Q, GF(2), GF(3), GF(5)):
            for _, l in catalog_algebras(field):
                text = serialize(l)
                again = parse(text)
                assert again == l
                assert serialize(again) == text  # byte-stable

    def test_round_trip_preserves_names_and_meta(self):
        from cideals import LieAlgebra

        l = LieAlgebra(Q, 2, ("a", "b"), {(0, 1): (0, 1)}, meta={"origin": "test"})
        again = parse(serialize(l))
        assert again.names == ("a", "b")
        assert again.meta == {"origin": "test"}


class TestParse:
    def make(self, **overrides):
        doc = {
            "field": {"type": "GF", "p": 2},
            "dim": 3,
            "brackets": [{"i": 0, "j": 1, "coeffs": ["0", "0", "1"]}],
        }
        doc.update(overrides)
        return json.dumps(doc)

    def test_happy_path(self):
        l = parse(self.make())
        assert l.field == GF(2)
        assert l.dim == 3

    def test_bad_json_carries_position(self):
        with pytest.raises(DocumentSyntaxError) as exc:
            parse("{this is not json")
        assert exc.value.line == 1

    def test_unknown_top_key(self):
        with pytest.raises(DocumentSyntaxError):
            parse(self.make(extra=1))

    def test_missing_required(self):
        with pytest.raises(DocumentSyntaxError):
            parse(json.dumps({"field": {"type": "Q"}, "dim": 2}))

    def test_bad_field_descriptor(self):
        with pytest.raises(DocumentSyntaxError):
            parse(self.make(field={"type": "R"}))
        with pytest.raises(DocumentSyntaxError):
            parse(self.make(field={"type": "GF"}))
        with pytest.raises(DocumentSyntaxError):
            parse(self.make(field={"type": "Q", "p": 3}))

    def test_composite_characteristic(self):
        with pytest.raises(DocumentSyntaxError):
            parse(self.make(field={"type": "GF", "p": 6}))

    def test_duplicate_pair(self):
        with pytest.raises(DocumentSyntaxError):
            parse(
                self.make(
                    brackets=[
                        {"i": 0, "j": 1, "coeffs": ["0", "0", "1"]},
                        {"i": 0, "j": 1, "coeffs": ["0", "0", "1"]},
                    ]
                )
            )

    def test_unordered_pair(self):
        with pytest.raises(DocumentSyntaxError):
            parse(self.make(brackets=[{"i": 1, "j": 0, "coeffs": ["0", "0", "1"]}]))

    def test_out_of_range_index(self):
        with pytest.raises(DocumentSyntaxError):
            parse(self.make(brackets=[{"i": 0, "j": 9, "coeffs": ["0", "0", "1"]}]))

    def test_bool_indices_rejected(self):
        with pytest.raises(DocumentSyntaxError):
            parse(self.make(brackets=[{"i": False, "j": 1, "coeffs": ["0", "0", "1"]}]))

    def test_wrong_coeff_arity(self):
        with pytest.raises(DocumentSyntaxError):
            parse(self.make(brackets=[{"i": 0, "j": 1, "coeffs": ["0", "1"]}]))

    def test_numeric_coeff_rejected(self):
        with pytest.raises(DocumentSyntaxError):
            parse(self.make(brackets=[{"i": 0, "j": 1, "coeffs": ["0", "0", 1]}]))

    def test_bad_scalar_text(self):
        with pytest.raises(DocumentSyntaxError):
            parse(self.make(brackets=[{"i": 0, "j": 1, "coeffs": ["0", "0", "1.5"]}]))

    def test_names_wrong_length(self):
        with pytest.raises(DocumentSyntaxError):
            parse(self.make(names=["x", "y"]))

    def test_bracket_entry_extra_key(self):
        with pytest.raises(DocumentSyntaxError):
            parse(self.make(brackets=[{"i": 0, "j": 1, "coeffs": ["0", "0", "1"], "z": 1}]))

    def test_jacobi_checked_by_default(self):
        bad = json.dumps(
            {
                "field": {"type": "Q"},
                "dim": 3,
                "brackets": [
                    {"i": 0, "j": 1, "coeffs": ["0", "0", "1"]},
                    {"i": 0, "j": 2, "coeffs": ["1", "0", "0"]},
                    {"i": 1, "j": 2, "coeffs": ["0", "1", "0"]},
                ],
            }
        )
        assert not oracle_jacobi_ok(bad)
        with pytest.raises(JacobiViolation) as exc:
            parse(bad)
        assert exc.value.triples
        l = parse(bad, validate=False)
        assert l.validate()

    def test_valid_documents_satisfy_oracle(self):
        for field in (Q, GF(3)):
            for _, l in catalog_algebras(field, max_dim=4):
                assert oracle_jacobi_ok(serialize(l))


class TestBuiltins:
    def test_listing_shape(self):
        rows = builtin_names()
        names = [r[0] for r in rows]
        assert "heisenberg" in names and "sl2" in names
        assert all(len(r) == 3 for r in rows)

    def test_param_forms_agree(self):
        assert builtin("heisenberg", GF(3), 3) == builtin("heisenberg(3)", GF(3))

    def test_aliases(self):
        assert builtin("t(2)", Q) == builtin("upper_triangular", Q, 2)
        assert builtin("n(3)", Q) == builtin("strictly_upper", Q, 3)

    def test_composition(self):
        l = builtin("heisenberg(3)+abelian(1)", GF(2))
        assert l.dim == 4
        assert l.validate() == []

    def test_composition_rejects_split_param(self):
        with pytest.raises(BadParams):
            builtin("heisenberg+abelian", GF(2), 3)

    def test_unknown_name(self):
        with pytest.raises(UnknownName):
            builtin("so8", Q)

    def test_param_validation(self):
        with pytest.raises(BadParams):
            builtin("heisenberg", Q, 4)  # must be odd
        with pytest.raises(BadParams):
            builtin("almost_abelian", Q, 1)
        with pytest.raises(BadParams):
            builtin("abelian", Q, -1)
        with pytest.raises(BadParams):
            builtin("sl2", GF(2))

    def test_heisenberg_5(self):
        l = builtin("heisenberg", Q, 5)
        assert l.dim == 5
        assert l.names == ("x1", "x2", "y1", "y2", "z")
        assert l.validate() == []

    def test_matrix_algebras(self):
        t3 = builtin("t", GF(2), 3)
        assert t3.dim == 6
        assert is_solvable(t3) and not is_nilpotent(t3)
        n3 = builtin("n", GF(2), 3)
        assert n3.dim == 3
        assert is_nilpotent(n3)

    def test_all_builtins_validate(self):
        for field in (Q, GF(2), GF(5)):
            for cid, l in catalog_algebras(field):
                assert l.validate() == [], cid


class TestCatalog:
    def test_id_census(self):
        ids = [cid for cid, _ in catalog_algebras(GF(3))]
        assert len(ids) == 16
        assert "sl2" in ids

    def test_sl2_skipped_in_char_two(self):
        ids = [cid for cid, _ in catalog_algebras(GF(2))]
        assert "sl2" not in ids
        assert len(ids) == 15

    def test_max_dim_filter(self):
        for _, l in catalog_algebras(GF(2), max_dim=4):
            assert l.dim <= 4


class TestRandomSolvable:
    def test_deterministic(self):
        from cideals import random_solvable

        a = random_solvable(42, GF(3), 3, 3)
        b = random_solvable(42, GF(3), 3, 3)
        assert a == b
        assert serialize(a) == serialize(b)

    def test_different_seeds_differ_somewhere(self):
        from cideals import random_solvable

        docs = {serialize(random_solvable(s, GF(3), 3, 3)) for s in range(12)}
        assert len(docs) > 1

    def test_always_solvable(self):
        from cideals import random_solvable

        for s in range(25):
            l = random_solvable(s, GF(2), 3, 2 + (s % 4))
            assert is_solvable(l)
            assert l.validate() == []

    def test_strictly_upper_samples_are_nilpotent(self):
        from cideals import random_solvable

        for s in range(10):
            l = random_solvable(s, GF(3), 4, 3, strictly_upper=True)
            assert is_nilpotent(l)

    def test_meta_records_generator(self):
        from cideals import random_solvable

        l = random_solvable(9, GF(5), 3, 2)
        assert l.meta.get("generator")
        assert l.meta.get("seed") == 9

    def test_rejects_infinite_field(self):
        from cideals import random_solvable

        with pytest.raises(FieldNotFinite):
            random_solvable(1, Q, 3, 2)

    def test_rejects_bad_ambient(self):
        from cideals import random_solvable

        with pytest.raises(BadParams):
            random_solvable(1, GF(2), 1, 1)
        with pytest.raises(BadParams):
            random_solvable(1, GF(2), 6, 2)


def _golden_documents(field) -> str:
    """Every document the golden digests cover over one field, joined: the
    catalog, a composition whose names need deduplication and, over GF(2)
    and GF(3), random solvable algebras from both ambients."""
    docs = [serialize(l) for _, l in catalog_algebras(field)]
    docs.append(serialize(builtin("nonabelian2+nonabelian2", field)))
    if field.p in (2, 3):
        for seed in range(40):
            for strict in (False, True):
                l = random_solvable(seed, field, 3 + seed % 2, 1 + seed % 3, strictly_upper=strict)
                docs.append(serialize(l))
    return "".join(docs)


# The sha256 of _golden_documents per field: a change to the bytes of any
# one document, its names, coefficient text or key order, fails here.
_GOLDEN_SHA256 = {
    "Q": "db66a69601110c35fad3f182e7ace9d0e43035da1ecb698820c9ca6ef605d161",
    "GF(2)": "33782871e7d4db344f2e96f5c286ede540755ab7b270788eb72d3b653dcb5719",
    "GF(3)": "50863e91a5a34f36697a8f12da1e04d1ae959c5fb0fc407cfddf517e4c4bf858",
    "GF(5)": "4758bb52995d9b95a964504311bb4c8f5093a2989cf18257486fed2087c832d7",
    "GF(2147483647)": "54c2132904e376ca389dab215445e578db612e4226f474ca8d81010564f99ffb",
}


@pytest.mark.parametrize("field", [Q, GF(2), GF(3), GF(5), GF(2147483647)], ids=str)
def test_serialized_documents_are_byte_stable(field):
    text = _golden_documents(field)
    assert hashlib.sha256(text.encode()).hexdigest() == _GOLDEN_SHA256[str(field)]
