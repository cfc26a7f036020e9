from collections import Counter
from fractions import Fraction

import pytest

from cideals import (
    AmbientMismatch,
    CIdealVerdict,
    FieldMismatch,
    GF,
    NO,
    NotSubalgebra,
    PreconditionUnmet,
    Q,
    Subspace,
    UNKNOWN,
    YES,
    LieAlgebra,
    ZeroVector,
    builtin,
    catalog_algebras,
    characteristic_ideals,
    core,
    enum_ideals,
    enum_subalgebras,
    enum_subspaces,
    frattini,
    frattini_consequence_check,
    is_cideal,
    is_cideal_by_scan,
    line_cideal,
    projective_points,
    verify_certificate,
)
from cideals import cideal, fields, liealg, linalg
from cideals.lattice import ideal_line_families
from cideals.liealg import derived_subspace

from oracles import (
    oracle_centre,
    oracle_cideal,
    oracle_core,
    oracle_intersection,
    oracle_is_ideal,
    oracle_line_cideal,
    oracle_rref_p,
    oracle_rref_q,
    oracle_span_product,
)


def vec(field, coords):
    return tuple(field.scalar(x) for x in coords)


def span(l, *coords_list):
    return Subspace.from_vectors(l.field, l.dim, [vec(l.field, c) for c in coords_list])


_SWEEP_CORPUS = [
    (f"{name}/GF({p})", l) for p in (2, 3) for name, l in catalog_algebras(GF(p), max_dim=4)
] + [("sl2/GF(5)", builtin("sl2", GF(5)))]


def _certificate_cases(l) -> Counter:
    """Check verify_certificate(l, b, c) over every pair of subalgebras
    against the definition, and count the pairs by the way they pass or
    fail.  Dimensions decide the sum, dim(B + C) = dim B + dim C -
    dim(B ∩ C), and containment, B ∩ C <= core(B) exactly when it equals
    (B ∩ C) ∩ core(B); intersections are the oracle's, each made once."""
    subalgebras = enum_subalgebras(l)
    ideal = {c: oracle_is_ideal(l, c) for c in subalgebras}
    meets = {}

    def meet(u, v):
        if (u, v) not in meets:
            meets[u, v] = meets[v, u] = oracle_intersection(u, v)
        return meets[u, v]

    kinds = Counter()
    for b in subalgebras:
        hull = oracle_core(l, b)
        for c in subalgebras:
            if not ideal[c]:
                kind = "non-ideal"
            elif b.dim + c.dim - meet(b, c).dim < l.dim:
                kind = "short sum"
            elif meet(meet(b, c), hull).dim < meet(b, c).dim:
                kind = "fat meet" if c.dim < l.dim else "fat meet with L"
            else:
                kind = "yes"
            assert verify_certificate(l, b, c) == (kind == "yes"), (b, c, kind)
            kinds[kind] += 1
    return kinds


class TestVerifyCertificate:
    def test_accepts_witness(self, h3_q):
        # b = span{x}, c = span{y, z} is an ideal complement
        b = span(h3_q, [1, 0, 0])
        c = span(h3_q, [0, 1, 0], [0, 0, 1])
        assert verify_certificate(h3_q, b, c)

    def test_rejects_non_ideal(self, sl2_q):
        b = span(sl2_q, [0, 0, 1])
        borel = span(sl2_q, [1, 0, 0], [0, 0, 1])
        assert not verify_certificate(sl2_q, b, borel)

    def test_rejects_small_sum(self, h3_q):
        b = span(h3_q, [1, 0, 0])
        c = h3_q.centre()
        assert not verify_certificate(h3_q, b, c)

    def test_rejects_fat_intersection(self, sl2_gf5):
        borel = span(sl2_gf5, [1, 0, 0], [0, 0, 1])
        full = sl2_gf5.full_space()
        # L itself is an ideal with full sum, but meets the Borel outside
        # its core (which is zero in a simple algebra)
        assert not verify_certificate(sl2_gf5, borel, full)

    @pytest.mark.parametrize("l", [l for _, l in _SWEEP_CORPUS], ids=[a for a, _ in _SWEEP_CORPUS])
    def test_matches_core_definition(self, l):
        # The check never computes a core or a sum; compare it with the
        # definition over every pair of subalgebras, the expectation
        # taken from the oracles' ideal test, core and intersection.
        _certificate_cases(l)

    def test_every_way_to_fail_occurs(self):
        # A non-ideal C, a short sum, and a fat intersection with a proper
        # C and with C = L each occur in the corpus.
        kinds = Counter()
        for name in ("heisenberg(3)/GF(2)", "t(2)/GF(3)", "sl2/GF(5)"):
            kinds += _certificate_cases(dict(_SWEEP_CORPUS)[name])
        assert set(kinds) == {"yes", "non-ideal", "short sum", "fat meet", "fat meet with L"}

    def test_requires_subalgebra(self, sl2_q):
        ef = span(sl2_q, [1, 0, 0], [0, 1, 0])
        with pytest.raises(NotSubalgebra):
            verify_certificate(sl2_q, ef, sl2_q.full_space())

    @pytest.mark.parametrize("l", [builtin("heisenberg", Q, 3), builtin("heisenberg", GF(3), 3)])
    def test_rejects_complementary_dims_that_meet(self, l):
        # dim B + dim C = dim L, but B ∩ C = Fz, so B + C = B falls short
        b = span(l, [1, 0, 0], [0, 0, 1])
        c = l.centre()
        assert l.is_subalgebra(b) and l.is_ideal(c)
        assert b.dim + c.dim == l.dim and (b & c).dim == 1
        assert not verify_certificate(l, b, c)


class TestVerifiedIdealMemo:
    @pytest.mark.parametrize("name", ["heisenberg(3)+abelian(1)", "t(2)"])
    def test_members_are_ideals(self, name):
        l = builtin(name, GF(3))
        for x in projective_points(l.field, l.dim):
            line_cideal(l, x)
        verified = l._memo["verified_ideals"]
        assert verified
        assert all(oracle_is_ideal(l, c) for c in verified)

    @pytest.mark.parametrize("name, field", [("heisenberg(3)+abelian(1)", GF(3)), ("t(2)", Q)], ids=str)
    def test_members_hold_their_annihilators(self, monkeypatch, name, field):
        # Each ideal is shown one way, so each entry holds C's annihilator,
        # whichever branch checked it: a line with its hyperplane, a B of
        # dim >= 2 with a proper C, and C = L.  The B are the closed spans
        # of one or two basis vectors.
        monkeypatch.setattr(liealg, "_canonical", {})
        l = builtin(name, field)
        units = [[int(i == j) for j in range(l.dim)] for i in range(l.dim)]
        spans = [span(l, u) for u in units] + [span(l, u, v) for i, u in enumerate(units) for v in units[i + 1 :]]
        verdicts = [(b, is_cideal(l, b)) for b in spans if l.is_subalgebra(b)]
        dims = [(b.dim, v.certificate.dim) for b, v in verdicts if v.answer == YES]
        n = l.dim
        assert (1, n - 1) in dims
        assert any(d > 1 and c < n for d, c in dims)
        assert any(c == n for _, c in dims)
        verified = l._memo["verified_ideals"]
        assert {c: c.annihilator_raw() for c in verified} == verified

    def test_whole_algebra_passes_with_no_bracket(self, monkeypatch):
        # C = L has no annihilator row: checking B against it brackets only
        # what B's closure and ideal tests do, and it is answered before
        # the memo lookup, so nothing is hashed or stored.
        monkeypatch.setattr(liealg, "_canonical", {})
        l = builtin("heisenberg(3)+abelian(1)", GF(3))
        b = span(l, [1, 0, 0, 1], [0, 0, 1, 0])
        calls = _count_ad_raw(monkeypatch)
        assert verify_certificate(l, b, l.full_space())
        assert "verified_ideals" not in (l._memo or {})
        checked, calls[:] = calls[:], []
        assert l.is_subalgebra(b) and l._closed_is_ideal(b) and checked == calls

    def test_non_ideal_rejected_on_every_call(self, sl2_q):
        # B + C = L and B ∩ C = 0: only the ideal check can reject C
        b = span(sl2_q, [0, 1, 0])
        borel = span(sl2_q, [1, 0, 0], [0, 0, 1])
        assert (b + borel).dim == 3 and (b & borel).dim == 0
        for _ in range(2):
            assert not verify_certificate(sl2_q, b, borel)
        assert borel not in sl2_q._memo.get("verified_ideals", ())

    def test_warm_memo_leaves_value_alone(self):
        warm, cold = builtin("t(2)", GF(3)), builtin("t(2)", GF(3))
        for x in projective_points(warm.field, warm.dim):
            line_cideal(warm, x)
        ideal_line_families(warm)
        assert warm._memo and not cold._memo
        assert warm == cold
        assert hash(warm) == hash(cold)
        assert len({warm, cold}) == 1


def _tilted(field):
    # x acting on span{y, z} by y, z -> y + z: [L, L] = F(y + z), whose
    # row has an entry off its pivot.
    return LieAlgebra(field, 3, brackets={(0, 1): (0, 1, 1), (0, 2): (0, 1, 1)})


def _count_ad_raw(monkeypatch) -> list:
    """Wrap LieAlgebra.ad_raw, through which every bracket of an ideal
    check goes; the list collects one entry per call."""
    calls = []
    ad_raw = LieAlgebra.ad_raw
    monkeypatch.setattr(LieAlgebra, "ad_raw", lambda l, i, v: calls.append((i, v)) or ad_raw(l, i, v))
    return calls


def _proper_subspaces(l) -> list:
    """Every proper subspace of l's space over GF(p).  Over Q, those of
    GF(3)^n with their rows read over Q, 2 read once as -1 and once as
    1/2, so that Fraction entries occur."""
    if l.field.p is not None:
        return [u for u in enum_subspaces(l) if u.dim < l.dim]
    found = set()
    for u in enum_subspaces(LieAlgebra(GF(3), l.dim)):
        for two in (-1, Fraction(1, 2)):
            rows = [[two if a == 2 else a for a in r] for r in u.rows]
            found.add(Subspace.from_raw(Q, l.dim, rows))
    return sorted((u for u in found if u.dim < l.dim), key=Subspace.sort_key)


class TestIdealAnnihilator:
    """LieAlgebra._ideal_annihilator, the one ideal test behind is_ideal
    and the certificate check, reads the structure table before any
    bracket: a C that holds every [e_i, e_k] contains [L, L] and is an
    ideal, a hyperplane that misses one is not, and only a C of
    codimension >= 2 that misses [L, L] takes the bracket check."""

    @pytest.mark.parametrize("field", [GF(2), GF(3), Q], ids=str)
    def test_matches_the_oracle_on_every_subspace(self, monkeypatch, field):
        # Fresh memos, so every C is checked cold, at every codimension,
        # once through the public is_ideal and once through the trusted
        # test; the memo keeps exactly the proper ideals, and L answers
        # yes with no row and stays out of it.
        monkeypatch.setattr(liealg, "_canonical", {})
        calls = _count_ad_raw(monkeypatch)
        branches = Counter()
        for name, l in catalog_algebras(field, max_dim=4):
            full = l.full_space()
            derived = oracle_span_product(l, full, full)
            for c in _proper_subspaces(l):
                route = "holds" if derived <= c else "hyperplane" if c.dim == l.dim - 1 else "brackets"
                calls.clear()
                public = l.is_ideal(c)
                if route != "brackets":
                    assert not calls, (name, c)
                calls.clear()
                shown = l._ideal_annihilator(c) is not None
                if route != "brackets":
                    assert not calls, (name, c)
                assert public == shown == oracle_is_ideal(l, c), (name, c)
                assert (c in l._memo["verified_ideals"]) == shown, (name, c)
                branches[route, shown] += 1
            assert l.is_ideal(full) and l._ideal_annihilator(full) == ()
            assert full not in l._memo["verified_ideals"]
        assert branches["holds", True] and not branches["holds", False]
        assert branches["hyperplane", False] and not branches["hyperplane", True]
        assert branches["brackets", True] and branches["brackets", False]

    @pytest.mark.parametrize("name", ["heisenberg(3)+abelian(1)", "t(2)", "tilted"])
    @pytest.mark.parametrize("field", [GF(3), Q], ids=str)
    def test_cold_hyperplane_witness_makes_no_bracket(self, monkeypatch, name, field):
        monkeypatch.setattr(liealg, "_canonical", {})
        l = _tilted(field) if name == "tilted" else builtin(name, field)
        derived = derived_subspace(l)
        hyperplanes = [cideal._hyperplane(derived, q) for q in derived._free_columns()]
        calls = _count_ad_raw(monkeypatch)
        assert all(l._ideal_annihilator(h) is not None for h in hyperplanes)
        assert not calls
        assert all(h in l._memo["verified_ideals"] for h in hyperplanes)

    def test_borel_rejected_with_no_bracket(self, monkeypatch):
        # sl2 is perfect, so its Borel hyperplane span(e, h) misses [L, L].
        # The table is read, not the memo: an [L, L] of 0 and an empty line
        # rule planted there change nothing, for the public test either.
        monkeypatch.setattr(liealg, "_canonical", {})
        l = builtin("sl2", Q)
        l._memoized("derived", l.zero_space)
        l._memoized("line_rule", lambda: ((), (), {}))
        borel = span(l, [1, 0, 0], [0, 0, 1])
        calls = _count_ad_raw(monkeypatch)
        assert l._ideal_annihilator(borel) is None and not l.is_ideal(borel)
        assert not calls and borel not in l._memo["verified_ideals"]

    def test_codimension_two_and_more_keeps_the_bracket_check(self, monkeypatch):
        # In heisenberg(3)+abelian(1) = span(x, y, z, w), [L, L] = Fz.  Fw is
        # central, so an ideal of codimension 3 that misses [L, L]; span(x, w)
        # misses it too and is not an ideal, since [y, x] = -z.
        monkeypatch.setattr(liealg, "_canonical", {})
        l = builtin("heisenberg(3)+abelian(1)", GF(3))
        calls = _count_ad_raw(monkeypatch)
        assert l._ideal_annihilator(span(l, [0, 0, 0, 1])) is not None
        assert calls
        calls.clear()
        assert l._ideal_annihilator(span(l, [1, 0, 0, 0], [0, 0, 0, 1])) is None
        assert calls

    def test_line_certificate_of_codimension_two_makes_no_bracket(self, monkeypatch):
        # A line B needs a hyperplane C, so span(y, w) in
        # heisenberg(3)+abelian(1) = span(x, y, z, w) is rejected for Fx by
        # its dimension, before any ideal test.
        monkeypatch.setattr(liealg, "_canonical", {})
        l = builtin("heisenberg(3)+abelian(1)", GF(3))
        calls = _count_ad_raw(monkeypatch)
        assert not verify_certificate(l, span(l, [1, 0, 0, 0]), span(l, [0, 1, 0, 0], [0, 0, 0, 1]))
        assert not calls


class TestLineRule:
    def test_ideal_line_yes(self, h3_q):
        v = line_cideal(h3_q, vec(Q, [0, 0, 1]))
        assert v.answer == YES and v.exhaustive
        assert v.certificate == h3_q.full_space()

    def test_outside_derived_yes_with_complement_witness(self, h3_q):
        v = line_cideal(h3_q, vec(Q, [1, 0, 0]))
        assert v.answer == YES and v.exhaustive
        assert v.certificate is not None
        assert verify_certificate(h3_q, span(h3_q, [1, 0, 0]), v.certificate)

    def test_inside_derived_non_ideal_no(self, sl2_q):
        # sl2 is perfect, so every non-ideal line answers No, even over Q
        v = line_cideal(sl2_q, vec(Q, [1, 0, 0]))
        assert v.answer == NO
        assert v.exhaustive
        assert v.certificate is None

    def test_zero_vector_rejected(self, h3_q):
        with pytest.raises(ZeroVector):
            line_cideal(h3_q, h3_q.zero_vec())

    @pytest.mark.parametrize(
        "name, p",
        [
            ("t(2)", 2),
            ("heisenberg(3)+abelian(1)", 3),
            ("abelian(1)+nonabelian2", 5),
            ("tilted", 2),
            ("tilted", 3),
            ("tilted", 5),
            ("t(2)", None),
            ("almost_abelian(4)", None),
            ("tilted", None),
        ],
    )
    def test_hyperplane_is_derived_plus_complement(self, name, p):
        # The certificate is the sum the definition names, [L, L] +
        # complement([L, L] + Fx), as the independent Gauss-Jordan gives it;
        # every point over GF(p), the basis vectors and their pairwise
        # sums over Q.  In the catalog every row of [L, L] is a standard
        # vector; "tilted" has one with an entry off its pivot.
        field = Q if p is None else GF(p)
        l = _tilted(field) if name == "tilted" else builtin(name, field)
        full = l.full_space()
        derived = l.span_product(full, full)
        if p is None:
            basis = full.vectors()
            points = list(basis) + [
                tuple(a + b for a, b in zip(u, v))
                for i, u in enumerate(basis)
                for v in basis[i + 1 :]
            ]
        else:
            points = list(projective_points(l.field, l.dim))
        hyperplanes = 0
        for x in points:
            line = Subspace.from_vectors(l.field, l.dim, [x])
            if l.is_ideal(line) or line <= derived:
                continue
            verdict = line_cideal(l, x)
            rows = derived.rows + (derived + line).complement().rows
            want = oracle_rref_q(rows, l.dim) if p is None else oracle_rref_p(rows, l.dim, p)
            assert (verdict.certificate.rows, verdict.certificate.pivots) == want
            hyperplanes += 1
        assert hyperplanes

    def test_matches_scan_on_finite_catalog(self):
        for field in (GF(2), GF(3)):
            for _, l in catalog_algebras(field, max_dim=3):
                for s in enum_subalgebras(l):
                    if s.dim != 1:
                        continue
                    quick = line_cideal(l, s.vectors()[0])
                    assert (quick.answer == YES) == oracle_cideal(l, s)


def _scaled_points(l):
    """The basis vectors and their pairwise sums, each also scaled by 2,
    -1 and 1/3, so that leads other than 1 occur."""
    basis = l.full_space().vectors()
    sums = [tuple(a + b for a, b in zip(u, v)) for i, u in enumerate(basis) for v in basis[i + 1 :]]
    scales = [Q.scalar(c) for c in (1, 2, -1, Fraction(1, 3))]
    return [tuple(c * a for a in v) for v in list(basis) + sums for c in scales]


def _route(l, x) -> str:
    """Which of the four cases of the line rule x falls in, by the oracles."""
    full = l.full_space()
    line = Subspace.from_vectors(l.field, l.dim, [x])
    if line <= oracle_span_product(l, full, full):
        return "inside, ideal" if oracle_is_ideal(l, line) else "inside, not ideal"
    return "central" if line <= oracle_centre(l) else "outside, not central"


def _raised(fn, *args):
    try:
        fn(*args)
    except Exception as e:  # the type is what is compared
        return type(e)
    return None


class TestLineRoute:
    """line_cideal against the route it replaced: the line by elimination,
    [L, L] as a span product, the witness as a sum of subspaces."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_every_point_over_gf_p(self, p):
        # Each route occurs: in [L, L] an ideal or not (over GF(2) every
        # line of [L, L] in the catalog is an ideal), and outside it
        # central (heisenberg(3)+abelian(1), t(2)) or not.
        field = GF(p)
        routes = Counter()
        for l in [l for _, l in catalog_algebras(field, max_dim=4)] + [_tilted(field)]:
            for x in projective_points(field, l.dim):
                assert line_cideal(l, x) == oracle_line_cideal(l, x)
                routes[_route(l, x)] += 1
        expected = {"inside, ideal", "inside, not ideal", "central", "outside, not central"}
        assert set(routes) == (expected - {"inside, not ideal"} if p == 2 else expected)

    def test_scaled_points_over_q(self):
        routes = Counter()
        for l in [l for _, l in catalog_algebras(Q, max_dim=4)] + [_tilted(Q)]:
            for x in _scaled_points(l):
                assert line_cideal(l, x) == oracle_line_cideal(l, x)
                routes[_route(l, x)] += 1
        assert set(routes) == {"inside, ideal", "inside, not ideal", "central", "outside, not central"}

    @pytest.mark.parametrize("p", [2, 3])
    def test_is_cideal_matches_the_scan_on_every_line(self, p):
        # is_cideal takes the line route too; only an ideal line's method
        # differs from line_cideal's.
        field = GF(p)
        for _, l in catalog_algebras(field, max_dim=4):
            for x in projective_points(field, l.dim):
                line = Subspace.from_vectors(field, l.dim, [x])
                verdict = is_cideal(l, line)
                assert verdict.answer == is_cideal_by_scan(l, line).answer
                quick = line_cideal(l, x)
                method = cideal.METHOD_IDEAL if oracle_is_ideal(l, line) else quick.method
                assert verdict == CIdealVerdict(quick.answer, quick.certificate, method, True)

    @pytest.mark.parametrize("field", [GF(2), GF(3), GF(5), Q], ids=str)
    def test_outside_derived_ideal_exactly_when_central(self, field):
        # The lemma the route rests on: for x outside [L, L], Fx ∩ [L, L] = 0,
        # so Fx is an ideal exactly when x is central.
        seen = Counter()
        for l in [l for _, l in catalog_algebras(field, max_dim=4)] + [_tilted(field)]:
            full = l.full_space()
            derived, centre = oracle_span_product(l, full, full), oracle_centre(l)
            points = _scaled_points(l) if field.p is None else projective_points(field, l.dim)
            for x in points:
                line = Subspace.from_vectors(field, l.dim, [x])
                if not line <= derived:
                    ideal = oracle_is_ideal(l, line)
                    assert ideal == (line <= centre)
                    seen[ideal] += 1
        assert seen[True] and seen[False]

    @pytest.mark.parametrize("field", [GF(3), Q], ids=str)
    def test_bad_vectors_raise_as_before(self, field):
        l = builtin("heisenberg(3)", field)
        one, other = field.one(), GF(5)
        cases = [
            (l.zero_vec(), ZeroVector),
            ((field.zero(),) * 4, ZeroVector),
            ((other.zero(),) * 3, ZeroVector),
            ((one, one), AmbientMismatch),
            ((other.one(),) * 2, AmbientMismatch),
            ((other.one(), one, one), FieldMismatch),
            ((one, one, other.one()), FieldMismatch),
        ]
        for x, error in cases:
            assert _raised(line_cideal, l, x) is error
            assert _raised(oracle_line_cideal, l, x) is error


def _count_extend(monkeypatch) -> list:
    """Wrap _extend where linalg binds it, the kernel's one elimination,
    which every elimination of cideal goes through; the list collects
    one entry per call."""
    calls = []
    original = linalg._extend

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(linalg, "_extend", counting)
    assert not hasattr(cideal, "_extend")
    return calls


class TestLineCounts:
    """A line decision runs no elimination but the one that builds a
    hyperplane, once warm reduces no subspace but its line, and its
    hyperplane verdicts are made once per algebra value and column (memo
    "line_rule": [L, L]'s non-pivot columns, its annihilator rows and the
    verdicts by column)."""

    @pytest.mark.parametrize("name", ["heisenberg(3)+abelian(1)", "t(2)"])
    def test_one_elimination_per_hyperplane_column(self, monkeypatch, name):
        monkeypatch.setattr(liealg, "_canonical", {})
        l = builtin(name, GF(3))
        derived_subspace(l)
        points = list(projective_points(l.field, l.dim))
        calls = _count_extend(monkeypatch)
        for x in points:
            line_cideal(l, x)
        kept = l._memo["line_rule"][2]
        assert kept and len(calls) == len(kept)
        del calls[:]
        for x in points:
            line_cideal(l, x)
        assert not calls  # a warm repeat builds no hyperplane
        oracle_line_cideal(l, points[0])
        assert calls  # the wrapper sees the elimination the old route ran

    @pytest.mark.parametrize("name", ["heisenberg(3)+abelian(1)", "t(2)", "tilted"])
    @pytest.mark.parametrize("field", [GF(3), Q], ids=str)
    def test_one_hyperplane_per_column(self, monkeypatch, name, field):
        monkeypatch.setattr(liealg, "_canonical", {})
        l = _tilted(field) if name == "tilted" else builtin(name, field)
        points = _scaled_points(l) if field.p is None else projective_points(field, l.dim)
        verdicts = [line_cideal(l, x) for x in points]
        columns, dual, kept = l._memo["line_rule"]
        derived = derived_subspace(l)
        assert columns == derived._free_columns() and dual == derived.annihilator_raw()
        assert kept and len(kept) <= l.dim - derived.dim
        for q, v in kept.items():
            h = v.certificate
            assert q not in derived.pivots and q not in h.pivots
            assert h in l._memo["verified_ideals"]
        # Every hyperplane yes is the memo's frozen verdict itself.
        made = {id(v) for v in kept.values()}
        assert all(id(v) in made for v in verdicts if v.certificate is not None and v.certificate.dim < l.dim)

    @pytest.mark.parametrize("name", ["heisenberg(3)+abelian(1)", "t(2)", "tilted"])
    @pytest.mark.parametrize("field", [GF(3), Q], ids=str)
    def test_warm_decision_reduces_only_the_line(self, monkeypatch, name, field):
        # The points are over an equal copy of the field, as a parsed
        # document's are; after one decision has made [L, L]'s
        # annihilator, a decision reduces only its line and compares
        # fields at most once, hyperplanes made on the way included.
        monkeypatch.setattr(liealg, "_canonical", {})
        l = _tilted(field) if name == "tilted" else builtin(name, field)
        points = _scaled_points(l) if field.p is None else projective_points(field, l.dim)
        copy = fields.Field(field.p)
        points = [tuple(copy.scalar(s.value) for s in x) for x in points]
        line_cideal(l, points[0])
        warm = len(l._memo["line_rule"][2])
        dims, compared = [], []
        reduce_raw, field_eq = linalg.Subspace.reduce_raw, fields.Field.__eq__

        def counting_reduce(u, v):
            dims.append(u.dim)
            return reduce_raw(u, v)

        def counting_eq(f, other):
            compared.append(other)
            return field_eq(f, other)

        monkeypatch.setattr(linalg.Subspace, "reduce_raw", counting_reduce)
        monkeypatch.setattr(fields.Field, "__eq__", counting_eq)
        for x in points:
            before = len(compared)
            line_cideal(l, x)
            assert len(compared) - before <= 1
        assert dims and max(dims) == 1
        assert len(l._memo["line_rule"][2]) > warm or name == "t(2)"

    @pytest.mark.parametrize("name", ["heisenberg(3)+abelian(1)", "t(2)", "tilted"])
    @pytest.mark.parametrize("field", [GF(3), Q], ids=str)
    def test_warm_non_central_line_outside_derived_makes_no_ideal_test(self, monkeypatch, name, field):
        # Outside [L, L] the central test decides whether the line is an
        # ideal, so the bracket ideal test runs only for a line in [L, L],
        # once, through the witness-L certificate check that decides it,
        # and in the re-check of a central line's yes.
        monkeypatch.setattr(liealg, "_canonical", {})
        l = _tilted(field) if name == "tilted" else builtin(name, field)
        points = _scaled_points(l) if field.p is None else list(projective_points(field, l.dim))
        for x in points:
            line_cideal(l, x)
        full = l.full_space()
        derived, centre = oracle_span_product(l, full, full), oracle_centre(l)
        calls = []
        closed_is_ideal = LieAlgebra._closed_is_ideal
        monkeypatch.setattr(
            LieAlgebra, "_closed_is_ideal", lambda l, u, ad=None: calls.append(u) or closed_is_ideal(l, u, ad)
        )
        counts = Counter()
        for x in points:
            line = Subspace.from_vectors(field, l.dim, [x])
            route = "inside" if line <= derived else "central" if line <= centre else "outside"
            calls.clear()
            line_cideal(l, x)
            counts[route, len(calls)] += 1
        assert counts[("outside", 0)] and all(n == 0 for route, n in counts if route == "outside")
        assert all(n == 1 for route, n in counts if route == "central")
        assert counts[("inside", 1)] and all(n == 1 for route, n in counts if route == "inside")

    @pytest.mark.parametrize("name", ["heisenberg(3)+abelian(1)", "t(2)", "tilted", "sl2"])
    @pytest.mark.parametrize("field", [GF(3), Q], ids=str)
    def test_one_recheck_per_yes(self, monkeypatch, name, field):
        # Every yes passes exactly one _verify_closed call on its own
        # certificate, cold or warm, a hyperplane verdict read from the
        # memo included; for an ideal line in [L, L] that call on L is the
        # one that decides it.  A no lies in [L, L] and makes the one call
        # on L that rejects it.  sl2 is perfect, so its lines outside the
        # ideals answer no.
        monkeypatch.setattr(liealg, "_canonical", {})
        l = _tilted(field) if name == "tilted" else builtin(name, field)
        points = _scaled_points(l) if field.p is None else list(projective_points(field, l.dim))
        calls = []
        verify_closed = cideal._verify_closed
        monkeypatch.setattr(
            cideal, "_verify_closed", lambda l, b, c: calls.append(c) or verify_closed(l, b, c)
        )
        counts = Counter()
        for phase in ("cold", "warm"):
            for x in points:
                kept = dict(l._memo["line_rule"][2]) if l._memo and "line_rule" in l._memo else {}
                calls.clear()
                verdict = line_cideal(l, x)
                if verdict.answer == YES:
                    assert calls == [verdict.certificate]
                    hit = any(v is verdict for v in kept.values())
                    counts[phase, "memo" if hit else "yes"] += 1
                else:
                    assert verdict.answer == NO and calls == [l.full_space()]
                    counts[phase, "no"] += 1
        yes = {r: counts[r, "yes"] + counts[r, "memo"] for r in ("cold", "warm")}
        assert yes["cold"] == yes["warm"] and counts["cold", "no"] == counts["warm", "no"]
        # sl2 has no hyperplane ideal and no ideal line; the others have both.
        assert bool(counts["warm", "memo"]) == bool(yes["warm"]) == (name != "sl2")
        assert bool(counts["cold", "no"]) == (name == "sl2")


class TestClosureChecks:
    def test_one_closure_check_per_decision(self, monkeypatch):
        # Fresh algebras, so no verdict is read from the memo.
        original = LieAlgebra.is_subalgebra
        calls = []

        def counting(self, u):
            calls.append(u)
            return original(self, u)

        monkeypatch.setattr(LieAlgebra, "is_subalgebra", counting)
        decided = 0
        for field in (GF(2), GF(3)):
            for name, l in catalog_algebras(field, max_dim=4):
                for b in enum_subalgebras(l):
                    if b.dim < 2 or l.is_ideal(b):
                        continue
                    monkeypatch.setattr(liealg, "_canonical", {})
                    fresh = builtin(name, field)
                    calls.clear()
                    is_cideal(fresh, b)
                    assert calls == [b]
                    decided += 1
        assert decided

    def test_public_forms_keep_the_closure_check(self, sl2_gf5):
        ef = span(sl2_gf5, [1, 0, 0], [0, 1, 0])
        full = sl2_gf5.full_space()
        for fn, args in [
            (core, (sl2_gf5, ef)),
            (verify_certificate, (sl2_gf5, ef, full)),
            (is_cideal_by_scan, (sl2_gf5, ef)),
            (is_cideal, (sl2_gf5, ef)),
        ]:
            with pytest.raises(NotSubalgebra):
                fn(*args)


class TestIsCideal:
    @pytest.mark.parametrize("field", [GF(3), Q], ids=str)
    def test_ideal_yes_is_decided_by_its_one_certificate_check(self, monkeypatch, field):
        # An ideal B of dimension >= 2 is decided by _verify_closed(l, B, L):
        # its one _closed_is_ideal call is the definition check, and no
        # second check runs.  A B that is not an ideal makes the same call.
        checks, tests = [], []
        verify_closed, closed_is_ideal = cideal._verify_closed, LieAlgebra._closed_is_ideal
        monkeypatch.setattr(cideal, "_verify_closed", lambda l, b, c: checks.append(c) or verify_closed(l, b, c))
        monkeypatch.setattr(
            LieAlgebra, "_closed_is_ideal", lambda l, u, ad=None: tests.append(u) or closed_is_ideal(l, u, ad)
        )
        decided = 0
        for name, l in catalog_algebras(field, max_dim=4):
            for b in {derived_subspace(l), l.centre(), l.full_space()}:
                if b.dim < 2:
                    continue
                monkeypatch.setattr(liealg, "_canonical", {})
                fresh = builtin(name, field)
                checks.clear()
                tests.clear()
                verdict = is_cideal(fresh, b)
                assert verdict.answer == YES and verdict.method == "ideal_is_trivially_cideal"
                assert checks == [l.full_space()] and tests == [b]
                decided += 1
        assert decided

    def test_requires_subalgebra(self, sl2_q):
        with pytest.raises(NotSubalgebra):
            is_cideal(sl2_q, span(sl2_q, [1, 0, 0], [0, 1, 0]))

    def test_ideal_short_circuit(self, h3_q):
        z = h3_q.centre()
        v = is_cideal(h3_q, z)
        assert v.answer == YES
        assert v.method == "ideal_is_trivially_cideal"
        assert v.certificate == h3_q.full_space()
        assert v.exhaustive

    def test_line_delegates_to_line_rule(self, h3_q):
        v = is_cideal(h3_q, span(h3_q, [1, 0, 0]))
        assert v.answer == YES and v.method == "line_rule"

    def test_borel_is_not_cideal_gf5(self, sl2_gf5):
        borel = span(sl2_gf5, [1, 0, 0], [0, 0, 1])
        v = is_cideal(sl2_gf5, borel)
        assert v.answer == NO
        assert v.exhaustive
        assert v.method == "exhaustive_enumeration"

    def test_finite_yes_certificate_verifies(self, t2_gf2):
        for b in enum_subalgebras(t2_gf2):
            v = is_cideal(t2_gf2, b)
            assert v.answer in (YES, NO)
            if v.answer == YES:
                assert v.certificate is not None
                assert verify_certificate(t2_gf2, b, v.certificate)

    def test_matches_definitional_oracle(self):
        for field in (GF(2), GF(3)):
            for _, l in catalog_algebras(field, max_dim=3):
                for b in enum_subalgebras(l):
                    assert (is_cideal(l, b).answer == YES) == oracle_cideal(l, b)

    def test_q_derived_term_path(self, t2_q):
        diagonal = span(t2_q, [1, 0, 0], [0, 0, 1])
        v = is_cideal(t2_q, diagonal)
        assert v.answer == YES
        assert v.certificate is not None
        assert verify_certificate(t2_q, diagonal, v.certificate)

    def test_q_unknown_is_not_exhaustive(self, sl2_q):
        borel = span(sl2_q, [1, 0, 0], [0, 0, 1])
        v = is_cideal(sl2_q, borel)
        assert v.answer == UNKNOWN
        assert not v.exhaustive
        assert v.certificate is None

    def test_full_algebra_is_cideal(self, sl2_q):
        v = is_cideal(sl2_q, sl2_q.full_space())
        assert v.answer == YES

    def test_zero_subalgebra(self, h3_gf2):
        v = is_cideal(h3_gf2, h3_gf2.zero_space())
        # 0 + L = L and the meet is zero
        assert v.answer == YES

    def test_as_dict_shape(self, h3_gf2):
        v = is_cideal(h3_gf2, h3_gf2.centre())
        d = v.as_dict()
        assert set(d) == {"answer", "certificate", "exhaustive", "method"}
        assert isinstance(d["certificate"], str)


class TestScan:
    def test_scan_verdicts_are_exhaustive(self, h3_gf2):
        for b in enum_subalgebras(h3_gf2):
            v = is_cideal_by_scan(h3_gf2, b)
            assert v.exhaustive
            assert v.answer in (YES, NO)
            if v.answer == YES:
                assert verify_certificate(h3_gf2, b, v.certificate)

    @pytest.mark.parametrize("l", [l for _, l in _SWEEP_CORPUS], ids=[a for a, _ in _SWEEP_CORPUS])
    def test_scan_certificate_is_the_first_passing_ideal(self, l):
        # The definition, with the oracles' meets and cores: C passes when
        # dim(B + C) = dim L and B ∩ C lies in core(B).  The sum can be L
        # only if dim B + dim C >= dim L, so no meet is made otherwise.
        ideals = enum_ideals(l)
        for b in enum_subalgebras(l):
            hull = oracle_core(l, b)

            def passes(c):
                meet = oracle_intersection(b, c)
                return b.dim + c.dim - meet.dim == l.dim and meet <= hull

            first = next((c for c in ideals if b.dim + c.dim >= l.dim and passes(c)), None)
            v = is_cideal_by_scan(l, b)
            assert (v.answer == YES) == oracle_cideal(l, b) == (first is not None)
            assert v.certificate == first

    @pytest.mark.parametrize("l", [l for _, l in _SWEEP_CORPUS], ids=[a for a, _ in _SWEEP_CORPUS])
    def test_scan_eliminates_once_per_candidate(self, l, monkeypatch):
        # Only ideals C with dim B + dim C >= dim L are candidates, and C = L
        # is decided by B <= core(B) with no elimination.
        subalgebras = enum_subalgebras(l)
        verdicts = {b: is_cideal_by_scan(l, b) for b in subalgebras}
        eliminations, sums = [], []
        sum_and_meet, add = cideal.raw_sum_and_meet, Subspace.__add__

        def counting_sum_and_meet(*args):
            eliminations.append(args)
            return sum_and_meet(*args)

        def counting_add(self, other):
            sums.append(other)
            return add(self, other)

        monkeypatch.setattr(cideal, "raw_sum_and_meet", counting_sum_and_meet)
        monkeypatch.setattr(Subspace, "__add__", counting_add)
        for b in subalgebras:
            eliminations.clear()
            assert is_cideal_by_scan(l, b) == verdicts[b]
            scanned = list(enum_ideals(l))
            if verdicts[b].answer == YES:
                scanned = scanned[: scanned.index(verdicts[b].certificate) + 1]
            assert len(eliminations) == sum(b.dim + c.dim >= l.dim and c.dim < l.dim for c in scanned)
        assert sums == []

    def test_scan_needs_finite_field(self, h3_q):
        with pytest.raises(Exception):
            is_cideal_by_scan(h3_q, h3_q.centre())


class TestCharacteristicIdeals:
    def test_simple_algebra_two_members(self, sl2_q):
        got = characteristic_ideals(sl2_q)
        assert len(got) == 2
        assert {s.dim for s in got} == {0, 3}

    def test_members_are_ideals(self, t2_q, h3_q, aa3_q):
        for l in (t2_q, h3_q, aa3_q):
            for s in characteristic_ideals(l):
                assert l.is_ideal(s)

    def test_contains_standard_members(self, t2_q):
        got = characteristic_ideals(t2_q)
        derived = t2_q.span_product(t2_q.full_space(), t2_q.full_space())
        assert t2_q.zero_space() in got
        assert t2_q.full_space() in got
        assert derived in got
        assert t2_q.centre() in got

    def test_closed_under_sum_and_meet(self, t2_q):
        got = characteristic_ideals(t2_q)
        for a in got:
            for b in got:
                assert (a + b) in got
                assert (a & b) in got

    def test_deterministic(self, t2_q):
        assert characteristic_ideals(t2_q) == characteristic_ideals(t2_q)


class TestFrattiniConsequence:
    def test_positive_case(self, h3_gf2):
        z = h3_gf2.centre()  # equals the Frattini ideal of h3
        report = frattini_consequence_check(h3_gf2, z, h3_gf2.full_space())
        assert report.premise_holds
        assert report.passed
        assert report.is_ideal
        assert report.inside_frattini_ideal

    def test_precondition_checked(self, h3_gf2):
        outside = span(h3_gf2, [1, 0, 0])
        with pytest.raises(PreconditionUnmet):
            frattini_consequence_check(h3_gf2, outside, h3_gf2.full_space())

    def test_vacuous_when_not_cideal(self):
        # In the strictly upper-triangular algebra on 4 points the line
        # through e02 + e13 sits inside the Frattini subalgebra but is
        # not a c-ideal, so the premise fails and the check is vacuous.
        l = builtin("n", GF(2), 4)
        names = list(l.names)
        i, j = names.index("e02"), names.index("e13")
        x = tuple(
            l.field.one() if t in (i, j) else l.field.zero() for t in range(l.dim)
        )
        line = Subspace.from_vectors(l.field, l.dim, [x])
        f_sub, _ = frattini(l)
        assert line <= f_sub and not l.is_ideal(line)
        report = frattini_consequence_check(l, line, l.full_space())
        assert report.passed and not report.premise_holds
        assert report.verdict.answer == NO

    def test_as_dict(self, h3_gf2):
        report = frattini_consequence_check(h3_gf2, h3_gf2.centre(), h3_gf2.full_space())
        d = report.as_dict()
        assert set(d) == {
            "passed",
            "premise_holds",
            "verdict",
            "is_ideal",
            "inside_frattini_ideal",
        }


class TestVerdictInvariants:
    def test_yes_always_certified_on_catalog_gf2(self):
        for _, l in catalog_algebras(GF(2), max_dim=4):
            for b in enum_subalgebras(l):
                v = is_cideal(l, b)
                if v.answer == YES:
                    assert verify_certificate(l, b, v.certificate)
                else:
                    assert v.certificate is None
