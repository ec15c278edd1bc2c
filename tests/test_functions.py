import dataclasses
import json
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference_decompose import (
    additive_value,
    character_turn,
    character_value,
    coset_value,
    exact_pair,
    log_pair,
    quadratic_value,
)
from kbeq import _vec, functions
from kbeq.errors import GroupMismatchError, IncompatibleTablesError, SynthesisError
from kbeq.functions import (
    AdditiveMap,
    CharacterSpec,
    CosetConstantMap,
    Exact,
    FuncTable,
    HermitianSolutionForm,
    PositiveSolutionForm,
    QuadraticForm,
    SignMap,
    _hermitian_tables,
    eval_hermitian,
    eval_positive,
    form_from_json,
    synth_table,
)
from kbeq.groups import Box, FullGroup, GroupSpec, SubgroupSpec

Z = GroupSpec(1)
Z44 = GroupSpec(0, (4, 4))


# ---------------------------------------------------------------------------
# Exact values


def test_exact_arithmetic():
    i = Exact.unit(Fraction(1, 4))
    assert i * i == Exact.from_sign(-1)
    assert i * i.conj() == Exact.one()
    assert i.power(4) == Exact.one()
    assert Exact.from_sign(-1) * Exact.from_sign(-1) == Exact.one()
    z = Exact.zero_value()
    assert (z * i).zero
    assert abs(i.to_complex() - 1j) < 1e-12


def test_exact_turn_normalization():
    assert Exact.unit(Fraction(5, 4)) == Exact.unit(Fraction(1, 4))
    assert Exact.unit(Fraction(-1, 4)).turn == Fraction(3, 4)


# ---------------------------------------------------------------------------
# tables


def test_table_requires_exact_domain_match():
    box = Box((2,))
    pts = box.points(Z)
    values = {p: Fraction(0) for p in pts}
    FuncTable(Z, box, "real", values)
    del values[pts[0]]
    with pytest.raises(IncompatibleTablesError):
        FuncTable(Z, box, "real", values)


def test_table_kind_validation():
    box = Box((1,))
    with pytest.raises(IncompatibleTablesError):
        FuncTable.from_function(Z, box, "sign", lambda p: 2)
    with pytest.raises(IncompatibleTablesError):
        FuncTable.from_function(Z, box, "real", lambda p: 1j)
    with pytest.raises(IncompatibleTablesError):
        FuncTable.from_function(Z, box, "bogus", lambda p: 1)


def test_real_and_positive_tables_reject_nan():
    cases = [(kind, bad) for kind in ("real", "positive", "complex")
             for bad in (math.nan, math.inf, -math.inf)]
    cases += [("complex", v) for v in (complex(math.nan, 0), complex(0, math.inf))]
    for kind, bad in cases:
        with pytest.raises(IncompatibleTablesError, match="is invalid for kind"):
            FuncTable.from_function(GroupSpec(1), Box((3,)), kind,
                                    lambda p: bad if p.coords == (1,) else 1.0)


def test_positive_table_func_values():
    t = FuncTable.from_function(Z, Box((1,)), "positive",
                                lambda p: Fraction(p.coords[0]))
    assert math.exp(t.values[Z.element((1,))]) == pytest.approx(math.e)
    assert math.exp(t.values[Z.element((0,))]) == pytest.approx(1.0)


def test_split_of_hermitian_modulus_is_even():
    # |f| of a character table is identically 1, so log|f| has zero odd part
    chi = CharacterSpec(Z, (Fraction(1, 8),), ())
    t = FuncTable.from_function(Z, Box((3,)), "complex", lambda p: character_value(chi, p))
    logs = t.abs_log_table().as_real_log()
    assert all(logs.values[p] - logs.values[-p] == 0 for p in logs.points())


def test_json_roundtrip_all_kinds():
    box = Box((2,))
    tables = [
        FuncTable.from_function(Z, box, "real",
                                lambda p: Fraction(p.coords[0], 3)),
        FuncTable.from_function(Z, box, "positive",
                                lambda p: Fraction(-p.coords[0], 2)),
        FuncTable.from_function(Z, box, "sign",
                                lambda p: -1 if p.coords[0] % 2 else 1),
        FuncTable.from_function(Z, box, "complex",
                                lambda p: Exact.unit(Fraction(p.coords[0], 5))),
        FuncTable.from_function(Z, box, "complex",
                                lambda p: complex(p.coords[0], 1.5)),
        FuncTable.from_function(GroupSpec(0, (3,)), FullGroup(), "complex",
                                lambda p: Exact.zero_value()
                                if p.coords[0] else Exact.one()),
    ]
    for t in tables:
        back = FuncTable.from_json(json.loads(json.dumps(t.to_json())))
        assert back == t, t.kind


def test_json_positive_accepts_raw_values():
    obj = {"group": "Z/3", "domain": {"type": "full"}, "kind": "positive",
           "values": [[[0], 2.0], [[1], 2.0], [[2], 2.0]]}
    t = FuncTable.from_json(obj)
    assert t.values[t.group.element((1,))] == pytest.approx(math.log(2.0))


def test_json_write_is_deterministic():
    t = FuncTable.from_function(Z, Box((2,)), "sign",
                                lambda p: -1 if p.coords[0] % 2 else 1)
    assert json.dumps(t.to_json()) == json.dumps(t.to_json())
    coords = [c for c, _ in t.to_json()["values"]]
    assert coords == sorted(coords)


# ---------------------------------------------------------------------------
# structured parts


def test_quadratic_form_validation():
    with pytest.raises(GroupMismatchError):
        QuadraticForm(Z, ((Fraction(1), Fraction(0)),))  # wrong shape
    g = GroupSpec(1, (4,))
    with pytest.raises(GroupMismatchError):  # torsion row must vanish
        QuadraticForm(g, ((Fraction(0), Fraction(1)),
                          (Fraction(1), Fraction(0))))
    with pytest.raises(GroupMismatchError):  # symmetry
        QuadraticForm(GroupSpec(2), ((Fraction(0), Fraction(1)),
                                     (Fraction(0), Fraction(0))))


def test_quadratic_form_satisfies_parallelogram():
    g = GroupSpec(2)
    P = QuadraticForm(g, ((Fraction(2), Fraction(1, 2)),
                          (Fraction(1, 2), Fraction(-1)),))
    for a in range(-3, 4):
        for b in range(-3, 4):
            x = g.element((a, b))
            y = g.element((b, 1 - a))
            assert quadratic_value(P, x + y) + quadratic_value(P, x - y) == \
                2 * quadratic_value(P, x) + 2 * quadratic_value(P, y)


def test_additive_map_is_additive_and_kills_torsion():
    g = GroupSpec(1, (5,))
    l = AdditiveMap(g, (Fraction(3, 2),))
    for a in range(-4, 5):
        for t in range(5):
            x = g.element((a, t))
            assert additive_value(l, x) == Fraction(3, 2) * a
    x, y = g.element((2, 3)), g.element((-1, 4))
    assert additive_value(l, x + y) == additive_value(l, x) + additive_value(l, y)


def test_coset_constant_map_completeness():
    full = {idx: Fraction(1) for idx in Z44.coset_indices(2)}
    m = CosetConstantMap.from_mapping(Z44, full)
    assert coset_value(m, Z44.element((1, 2))) == 1
    partial = dict(list(full.items())[:-1])
    with pytest.raises(GroupMismatchError):
        CosetConstantMap.from_mapping(Z44, partial)


FORM_GROUPS = (GroupSpec(0), Z, GroupSpec(0, (6,)), GroupSpec(2, (4, 3)))
# numerators around int64 and _vec._INT_LIMIT = 2^58, and small ones
_NUMS = st.one_of(st.integers(-9, 9), st.integers(-2**70, 2**70),
                  st.sampled_from((2**58, -2**58, 2**58 + 1, 2**63, -2**63)))
_DENS = st.one_of(st.integers(1, 12), st.integers(2**57, 2**60)).flatmap(
    lambda d: st.sampled_from((d, -d)))


def _pairs_json(values) -> list:
    return [[q.numerator, q.denominator] for q in values]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FORM_GROUPS), st.data())
def test_forms_hold_numerators_over_one_denominator(group, data):
    # each part built from numerators over one denominator of either sign,
    # in any terms, equals the part built from the same values as Fractions:
    # views, ==, hash and JSON alike, with int64 numerators exactly when
    # every one in lowest terms is within 2^58
    d, rank = group.dim, group.rank
    free = [(j, k) for j in range(rank) for k in range(j, rank)]
    upper = dict(zip(free, data.draw(st.lists(_NUMS, min_size=len(free),
                                              max_size=len(free)))))
    B = [[upper.get((min(j, k), max(j, k)), 0) for k in range(d)] for j in range(d)]
    sizes = {"P": d * d, "l": rank, "r": group.coset_count(2)}
    nums = {"P": [v for row in B for v in row],
            **{key: data.draw(st.lists(_NUMS, min_size=n, max_size=n))
               for key, n in sizes.items() if key != "P"}}
    den = data.draw(_DENS)
    want = {key: [Fraction(v, den) for v in vals] for key, vals in nums.items()}
    cosets = group.coset_indices(2)
    built = {
        "P": QuadraticForm(group, [want["P"][i * d:(i + 1) * d] for i in range(d)]),
        "l": AdditiveMap(group, want["l"]),
        "r": CosetConstantMap(group, list(zip(cosets, want["r"]))[::-1]),
    }
    for key, cls in (("P", QuadraticForm), ("l", AdditiveMap), ("r", CosetConstantMap)):
        part = cls._of(group, np.array(nums[key], dtype=object), den)
        assert part == built[key] and hash(part) == hash(built[key])
        assert part._den > 0 and math.gcd(part._den, *part._nums.tolist()) == 1
        small = max(map(abs, part._nums.tolist()), default=0) <= 2**58
        assert part._nums.dtype == (np.int64 if small else object)
        assert not part._nums.flags.writeable
        assert part.is_zero() == (not any(want[key]))
        with pytest.raises(dataclasses.FrozenInstanceError):
            part.group = group
        assert pickle.loads(pickle.dumps(part)) == part
    P, l, r = (built[key] for key in ("P", "l", "r"))
    assert P.matrix == tuple(tuple(want["P"][i * d:(i + 1) * d]) for i in range(d))
    assert l.coeffs == tuple(want["l"])
    assert r.entries == tuple(zip(cosets, want["r"]))
    assert all(type(v) is Fraction for v in (*l.coeffs, *(v for _, v in r.entries)))
    assert [r.at(idx) for idx in cosets] == want["r"]
    assert r.negated() == CosetConstantMap(group, [(i, -v) for i, v in zip(cosets, want["r"])])
    form = PositiveSolutionForm(P, l, AdditiveMap.zero(group), r)
    assert form.to_json() == {
        "type": "positive", "group": str(group),
        "P": [_pairs_json(want["P"][i * d:(i + 1) * d]) for i in range(d)],
        "l": _pairs_json(want["l"]), "m": [[0, 1]] * rank,
        "r": {"modulus": 2, "table": [[list(idx.residues), [q.numerator, q.denominator]]
                                      for idx, q in zip(cosets, want["r"])]}}
    assert form_from_json(json.loads(json.dumps(form.to_json()))) == form
    if any(want["l"]):  # a changed value is a different part
        bumped = AdditiveMap(group, [v + (i == 0) for i, v in enumerate(want["l"])])
        assert bumped != l


G14 = GroupSpec(1, (4,))
Q = Fraction


@pytest.mark.parametrize("build,error,message", [
    (lambda: QuadraticForm(Z, ((Q(1), Q(0)),)), GroupMismatchError,
     "quadratic form matrix must be dim x dim"),
    (lambda: QuadraticForm(Z, ((Q(1),), (Q(2),))), GroupMismatchError,
     "quadratic form matrix must be dim x dim"),
    (lambda: QuadraticForm(GroupSpec(2), ((0, 1), (0, 0))), GroupMismatchError,
     "quadratic form matrix must be symmetric"),
    (lambda: QuadraticForm(G14, ((0, 1), (1, 0))), GroupMismatchError,
     "quadratic form must vanish on torsion coordinates"),
    (lambda: QuadraticForm(G14, ((0, 0), (0, Q(1, 3)))), GroupMismatchError,
     "quadratic form must vanish on torsion coordinates"),
    # the first offending entry, row by row, names the error
    (lambda: QuadraticForm(GroupSpec(2, (4,)), ((0, 2, 0), (3, 0, 1), (0, 1, 0))),
     GroupMismatchError, "quadratic form matrix must be symmetric"),
    (lambda: QuadraticForm(GroupSpec(2, (4,)), ((0, 0, 1), (0, 0, 1), (1, 2, 0))),
     GroupMismatchError, "quadratic form must vanish on torsion coordinates"),
    (lambda: QuadraticForm(Z, (("x",),)), ValueError, "Invalid literal for Fraction: 'x'"),
    (lambda: QuadraticForm(Z, ((None,),)), TypeError,
     "argument should be a string or a Rational instance"),
    (lambda: AdditiveMap(Z, ()), GroupMismatchError,
     "additive map needs one coefficient per free coordinate"),
    (lambda: AdditiveMap(G14, (1, 0)), GroupMismatchError,
     "additive map needs one coefficient per free coordinate"),
    (lambda: AdditiveMap(Z, (None,)), TypeError,
     "argument should be a string or a Rational instance"),
    (lambda: CosetConstantMap(Z, ((Z.coset_indices(2)[0], 1),)), GroupMismatchError,
     "coset map must assign exactly one value per coset of X^(2)"),
    (lambda: CosetConstantMap(Z, [(idx, 1) for idx in Z.coset_indices(4)]),
     GroupMismatchError, "coset map must assign exactly one value per coset of X^(2)"),
    (lambda: CosetConstantMap(Z, [(idx, "y") for idx in Z.coset_indices(2)]),
     ValueError, "Invalid literal for Fraction: 'y'"),
    (lambda: CosetConstantMap.zero(Z).at(Z.coset_indices(4)[1]), KeyError,
     repr(Z.coset_indices(4)[1])),
], ids=["P-short-row", "P-tall", "P-asymmetric", "P-torsion", "P-torsion-diagonal",
        "P-asymmetric-first", "P-torsion-first", "P-string", "P-none", "l-short",
        "l-long", "l-none", "r-missing", "r-modulus-4", "r-string", "r-at-foreign"])
def test_invalid_parts_raise_as_before(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 11), st.integers(0, 3), st.integers(-9, 9),
       st.integers(-9, 9))
def test_character_multiplicative_unimodular(k, e, a, b):
    g = GroupSpec(1, (4,))
    chi = CharacterSpec(g, (Fraction(k, 12),), (e,))
    x, y = g.element((a, b)), g.element((b, a))
    assert character_value(chi, x) * character_value(chi, y) == character_value(chi, x + y)
    assert character_value(chi, x).log_abs == 0
    assert character_value(chi, g.zero()) == Exact.one()


def test_sign_map_invariants():
    # must be 1 on cosets inside X^(2)
    bad = {idx: 1 for idx in Z44.coset_indices(4)}
    bad[Z44.coset_index(Z44.element((2, 0)), 4)] = -1
    with pytest.raises(GroupMismatchError):
        SignMap.from_mapping(Z44, 4, bad)
    # must be even
    g = GroupSpec(0, (8,))
    vals = {idx: 1 for idx in g.coset_indices(4)}
    vals[g.coset_index(g.element((1,)), 4)] = -1  # -1 at 1 but +1 at -1=7
    with pytest.raises(GroupMismatchError):
        SignMap.from_mapping(g, 4, vals)


def quadrupled_flip_map(group):
    """Sign map -1 on the (1,3) and (3,1) quadrupled cosets only.

    Even and trivial on X^(2), but the doubled coset of (1,1) carries both
    signs: the structure behind the built-in example pair.
    """
    vals = {idx: 1 for idx in group.coset_indices(4)}
    for c in ((1, 3), (3, 1)):
        vals[group.coset_index(group.element(c), 4)] = -1
    return SignMap.from_mapping(group, 4, vals)


def test_sign_map_constant_on_doubled_cosets():
    m = SignMap.trivial(Z44, 4)
    assert m.constant_on_doubled_cosets()
    amap = quadrupled_flip_map(Z44)
    assert not amap.constant_on_doubled_cosets()


# ---------------------------------------------------------------------------
# forms, evaluation and synthesis


def zero_positive_form(group):
    return PositiveSolutionForm.zero(group)


def trivial_hermitian_form(group, support=None):
    """The Hermitian form that is 1 on ``support`` (everywhere by default)
    and 0 elsewhere."""
    one = SignMap.trivial(group, 4)
    return HermitianSolutionForm(
        CharacterSpec.trivial(group), CharacterSpec.trivial(group), one, one,
        QuadraticForm.zero(group), CosetConstantMap.zero(group), support)


def test_eval_positive_examples():
    z2t = GroupSpec(0, (2,))
    f0 = zero_positive_form(z2t)
    assert eval_positive(f0, z2t.element((1,))) == (1.0, 1.0)

    form = PositiveSolutionForm(
        QuadraticForm(Z, ((Fraction(1),),)),
        AdditiveMap.zero(Z), AdditiveMap.zero(Z), CosetConstantMap.zero(Z))
    fv, gv = eval_positive(form, Z.element((2,)))
    assert fv == pytest.approx(math.exp(4))
    assert gv == pytest.approx(math.exp(4))

    odd = {idx: Fraction(idx.residues[0]) for idx in Z.coset_indices(2)}
    form2 = PositiveSolutionForm(
        QuadraticForm.zero(Z), AdditiveMap.zero(Z), AdditiveMap.zero(Z),
        CosetConstantMap.from_mapping(Z, odd))
    fv, gv = eval_positive(form2, Z.element((3,)))
    assert fv == pytest.approx(math.e)
    assert gv == pytest.approx(1 / math.e)


def test_eval_hermitian_examples():
    triv = trivial_hermitian_form(Z44)
    assert eval_hermitian(triv, Z44.element((1, 2))) == (1 + 0j, 1 + 0j)

    form = dataclasses.replace(trivial_hermitian_form(Z),
                               alpha=CharacterSpec(Z, (Fraction(1, 8),), ()))
    fv, _ = exact_pair(form, Z.element((2,)))
    assert fv == Exact.unit(Fraction(1, 4))  # exactly i

    z9 = GroupSpec(0, (9,))
    vform = trivial_hermitian_form(z9, SubgroupSpec(z9, (z9.element((3,)),)))
    assert eval_hermitian(vform, z9.element((1,))) == (0j, 0j)
    assert eval_hermitian(vform, z9.element((3,))) == (1 + 0j, 1 + 0j)


def test_synth_zero_form_is_all_ones():
    z2t = GroupSpec(0, (2,))
    f, g = synth_table(zero_positive_form(z2t), FullGroup())
    assert all(v == 0 for v in f.values.values())  # log 1
    assert all(v == 0 for v in g.values.values())


def test_synth_positive_on_trivial_group():
    f, g = synth_table(zero_positive_form(GroupSpec(0, ())), FullGroup())
    assert list(f.values.values()) == [0] and list(g.values.values()) == [0]


def test_synth_positive_matches_eval():
    odd = {idx: Fraction(idx.residues[0]) for idx in Z.coset_indices(2)}
    form = PositiveSolutionForm(
        QuadraticForm.zero(Z), AdditiveMap.zero(Z), AdditiveMap.zero(Z),
        CosetConstantMap.from_mapping(Z, odd))
    f, g = synth_table(form, Box((3,)))
    assert len(f.values) == 7
    for p in f.points():
        ef, eg = log_pair(form, p)
        assert f.values[p] == ef
        assert g.values[p] == eg


def test_synth_refuses_unsound_hermitian_form():
    # quadrupled-coset signs that are not doubled-coset constant cannot be
    # synthesized as guaranteed solutions (the census holds such examples)
    amap = quadrupled_flip_map(Z44)
    form = HermitianSolutionForm(
        CharacterSpec.trivial(Z44), CharacterSpec.trivial(Z44),
        amap, amap, QuadraticForm.zero(Z44), CosetConstantMap.zero(Z44))
    with pytest.raises(SynthesisError):
        synth_table(form, FullGroup())


def test_synth_refuses_product_not_one():
    vals = {idx: 1 for idx in Z44.coset_indices(4)}
    flips = [idx for idx in Z44.coset_indices(4)
             if Z44.coset_project(idx).residues == (1, 1)]
    for idx in flips:
        vals[idx] = -1
    amap = SignMap.from_mapping(Z44, 4, vals)
    bmap = SignMap.trivial(Z44, 4)
    form = HermitianSolutionForm(
        CharacterSpec.trivial(Z44), CharacterSpec.trivial(Z44),
        amap, bmap, QuadraticForm.zero(Z44), CosetConstantMap.zero(Z44))
    with pytest.raises(SynthesisError):
        synth_table(form, FullGroup())


# random form parts, drawn by hypothesis


def _rational(draw, dens):
    return Fraction(draw(st.integers(-9, 9)), draw(st.sampled_from(dens)))


def _character(draw, group, dens):
    return CharacterSpec(group, tuple(_rational(draw, dens) for _ in range(group.rank)),
                         tuple(draw(st.integers(0, n - 1)) for n in group.torsion))


def _signs(draw, group):
    """An even sign map on the cosets of X^(4), 1 on those inside X^(2)."""
    vals = {}
    for idx in group.coset_indices(4):
        if idx not in vals:
            inside = not any(group.coset_project(idx).residues)
            vals[idx] = vals[group.coset_negate(idx)] = (
                1 if inside else draw(st.sampled_from((1, -1))))
    return SignMap.from_mapping(group, 4, vals)


def _quadratic(draw, group, dens):
    mat = [[Fraction(0)] * group.dim for _ in range(group.dim)]
    for i in range(group.rank):
        for j in range(i, group.rank):
            mat[i][j] = mat[j][i] = _rational(draw, dens)
    return QuadraticForm(group, tuple(map(tuple, mat)))


def _coset_map(draw, group, dens):
    return CosetConstantMap(group, tuple((idx, _rational(draw, dens))
                                         for idx in group.coset_indices(2)))


def _support(draw, group):
    """A subgroup of up to two random generators."""
    return SubgroupSpec(group, tuple(
        group.element([draw(st.integers(0, n - 1)) for n in group.torsion])
        for _ in range(draw(st.integers(0, 2)))))


SMALL_DENS = tuple(range(1, 13))
LINEAR_DENS = (1, 12, 10**6, 2**23 + 1)
RENDER_GROUPS = (GroupSpec(1), GroupSpec(2), GroupSpec(1, (4,)), GroupSpec(1, (2, 3)),
                 GroupSpec(2, (4, 3)), GroupSpec(0, (4, 4)), GroupSpec(0, (2, 6)),
                 GroupSpec(0, (9,)), GroupSpec(0, (3, 3)), GroupSpec(0, (15,)),
                 GroupSpec(0, (5, 5)))


@st.composite
def _hermitian_forms(draw):
    """A Hermitian form with random parts, sufficient for synthesis or not,
    support-restricted on a group with onto doubling at times, and a domain:
    the whole group when finite, else a box of radius 1 to 5."""
    group = draw(st.sampled_from(RENDER_GROUPS))
    support = None
    if group.doubling_is_onto() and draw(st.booleans()):
        support = _support(draw, group)
    form = HermitianSolutionForm(
        _character(draw, group, SMALL_DENS), _character(draw, group, SMALL_DENS),
        _signs(draw, group), _signs(draw, group), _quadratic(draw, group, SMALL_DENS),
        _coset_map(draw, group, SMALL_DENS), support)
    domain = FullGroup() if group.is_finite else Box(
        tuple(draw(st.integers(1, 5)) for _ in range(group.rank)))
    return form, domain


@settings(max_examples=60, deadline=None)
@given(_hermitian_forms())
def test_hermitian_tables_match_exact_pair(case):
    # the array renderer against the point-by-point oracle, exact_pair
    form, domain = case
    tables = _hermitian_tables(form, domain)
    for i, table in enumerate(tables):
        oracle = FuncTable.from_function(form.group, domain, "complex",
                                         lambda p: exact_pair(form, p)[i])
        assert table.encoding[0] == "exact"
        assert table == oracle and table.to_json() == oracle.to_json()
    try:
        synthesized = synth_table(form, domain)
    except SynthesisError:
        return
    assert synthesized == tables


def _outcome(evaluate):
    """What an evaluation returns, by its repr, which tells every float
    apart (-0.0 from 0.0 too), or the error it raises."""
    try:
        return repr(tuple(evaluate()))
    except ArithmeticError as exc:  # exp of a log beyond the float range
        return type(exc)


@st.composite
def _forms_at_a_point(draw):
    """A group of rank <= 2 with torsion orders <= 4, a positive and a
    Hermitian form with random parts on it (on a support at times when
    the group has onto doubling), and a point with |coordinates| <= 10^6.
    Small and large denominators take the evaluators through int64 and
    Python-int arithmetic.  Unimodular forms, drawn half the time, have
    ``P = r = 0`` and free coordinates up to 2^40, beyond int32."""
    unimodular = draw(st.booleans())
    rank = draw(st.integers(1 if unimodular else 0, 2))
    group = GroupSpec(rank, tuple(draw(st.lists(st.integers(2, 4), max_size=2))))
    P, r = QuadraticForm.zero(group), CosetConstantMap.zero(group)
    if not unimodular:
        P = _quadratic(draw, group, (1, 12, 10**12, 2**41 + 1))
        r = _coset_map(draw, group, (1, 2, 12))
    l, m = (AdditiveMap(group, tuple(_rational(draw, LINEAR_DENS) for _ in range(rank)))
            for _ in range(2))
    support = None
    if group.doubling_is_onto() and draw(st.booleans()):
        support = _support(draw, group)
    hform = HermitianSolutionForm(_character(draw, group, LINEAR_DENS),
                                  _character(draw, group, LINEAR_DENS),
                                  _signs(draw, group), _signs(draw, group), P, r, support)
    bound = 2**40 if unimodular else 10**6
    free = st.one_of(st.sampled_from((bound, -bound)), st.integers(-bound, bound))
    x = group.element([draw(free) for _ in range(rank)]
                      + [draw(st.integers(0, n - 1)) for n in group.torsion])
    return PositiveSolutionForm(P, l, m, r), hform, x


@settings(max_examples=300, deadline=None)
@given(_forms_at_a_point())
def test_eval_matches_the_point_wise_oracle(case):
    # the floats after the oracle's conversion, then the exact logs and turns
    pform, hform, x = case
    assert _outcome(lambda: eval_positive(pform, x)) == _outcome(
        lambda: [math.exp(float(v)) for v in log_pair(pform, x)])
    assert _outcome(lambda: eval_hermitian(hform, x)) == _outcome(
        lambda: [v.to_complex() for v in exact_pair(hform, x)])
    for args, want in zip(functions._positive_sides(pform), log_pair(pform, x)):
        assert Fraction(*_vec.form_value_at(*args, x.group, x.coords)) == want
    turns, den = functions._turns(hform.alpha, np.array([x.coords], dtype=object))
    assert Fraction(int(turns[0]), den) == character_turn(hform.alpha, x)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from((GroupSpec(0, (9,)), GroupSpec(0, (3, 3)), GroupSpec(0, (15,)))),
       st.data())
def test_eval_hermitian_on_a_support_matches_the_oracle(group, data):
    draw = data.draw
    form = HermitianSolutionForm(
        _character(draw, group, ()), _character(draw, group, ()), _signs(draw, group),
        _signs(draw, group), QuadraticForm.zero(group), _coset_map(draw, group, (1, 4)),
        _support(draw, group))
    for x in group.elements():
        assert _outcome(lambda: eval_hermitian(form, x)) == _outcome(
            lambda: [v.to_complex() for v in exact_pair(form, x)])


def test_support_on_the_trivial_group():
    # Z^0 has one point and a zero generator; the span holds it
    group = GroupSpec(0, ())
    form = trivial_hermitian_form(group, SubgroupSpec(group, (group.zero(),)))
    assert eval_hermitian(form, group.zero()) == (1 + 0j, 1 + 0j)
    f, g = synth_table(form, FullGroup())
    assert list(f.values.values()) == list(g.values.values()) == [Exact.one()]


def test_eval_rejects_a_foreign_element_and_an_infinite_support():
    z9, z3 = GroupSpec(0, (9,)), GroupSpec(0, (3,))
    form = dataclasses.replace(trivial_hermitian_form(z9), alpha=CharacterSpec(z9, (), (1,)))
    on3 = dataclasses.replace(form, support=SubgroupSpec(z9, (z9.element((3,)),)))
    for evaluate, f in ((eval_positive, PositiveSolutionForm.zero(z9)),
                        (eval_hermitian, form), (eval_hermitian, on3)):
        with pytest.raises(GroupMismatchError):
            evaluate(f, z3.element((1,)))
    # a support on an infinite group has no finite mask to read
    with pytest.raises(SynthesisError, match="finite group"):
        eval_hermitian(trivial_hermitian_form(Z, SubgroupSpec(Z, (Z.element((2,)),))),
                       Z.element((4,)))


def test_form_json_roundtrip():
    odd = {idx: Fraction(idx.residues[0], 2) for idx in Z.coset_indices(2)}
    form = PositiveSolutionForm(
        QuadraticForm(Z, ((Fraction(3, 4),),)),
        AdditiveMap(Z, (Fraction(-2, 5),)),
        AdditiveMap(Z, (Fraction(1),)),
        CosetConstantMap.from_mapping(Z, odd))
    back = form_from_json(json.loads(json.dumps(form.to_json())))
    assert back == form

    z9 = GroupSpec(0, (9,))
    sup = SubgroupSpec(z9, (z9.element((3,)),))
    hform = HermitianSolutionForm(
        CharacterSpec(z9, (), (2,)), CharacterSpec(z9, (), (5,)),
        SignMap.trivial(z9, 4), SignMap.trivial(z9, 4),
        QuadraticForm.zero(z9), CosetConstantMap.zero(z9), sup)
    back = form_from_json(json.loads(json.dumps(hform.to_json())))
    assert back.alpha == hform.alpha
    assert back.support.generators == sup.generators


def test_mod2_sign_map_satisfies_paired_equation():
    # value depends only on the doubled coset and x+y, x-y share one, so
    # a(x+y) a(x-y) = 1 identically
    from kbeq.checks import check_sign_eq26
    for group in (GroupSpec(0, (4,)), GroupSpec(0, (4, 2)), GroupSpec(0, (8,))):
        vals = {}
        for i, idx in enumerate(group.coset_indices(2)):
            trivial = all(r == 0 for r in idx.residues)
            vals[idx] = 1 if trivial else (-1 if i % 2 else 1)
        amap = SignMap.from_mapping(group, 2, vals)
        table = FuncTable.from_function(group, FullGroup(), "sign",
                                        lambda x: coset_value(amap, x))
        assert check_sign_eq26(table, table).holds
