import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
    assert (i * i).as_sign() == -1
    assert (i * i.conj()).is_one()
    assert i.power(4).is_one()
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
    for kind in ("real", "positive"):
        with pytest.raises(IncompatibleTablesError):
            FuncTable.from_function(GroupSpec(1), Box((3,)), kind,
                                    lambda p: math.nan if p.coords == (1,) else 0.0)


def test_positive_table_func_values():
    t = FuncTable.from_function(Z, Box((1,)), "positive",
                                lambda p: Fraction(p.coords[0]))
    assert t.func_value(Z.element((1,))) == pytest.approx(math.e)
    assert t.func_value(Z.element((0,))) == pytest.approx(1.0)


def test_split_of_hermitian_modulus_is_even():
    # |f| of a character table is identically 1, so log|f| has zero odd part
    chi = CharacterSpec(Z, (Fraction(1, 8),), ())
    t = FuncTable.from_function(Z, Box((3,)), "complex", lambda p: chi.value(p))
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
    assert t.value(t.group.element((1,))) == pytest.approx(math.log(2.0))


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
            assert P.value(x + y) + P.value(x - y) == \
                2 * P.value(x) + 2 * P.value(y)


def test_additive_map_is_additive_and_kills_torsion():
    g = GroupSpec(1, (5,))
    l = AdditiveMap(g, (Fraction(3, 2),))
    for a in range(-4, 5):
        for t in range(5):
            x = g.element((a, t))
            assert l.value(x) == Fraction(3, 2) * a
    x, y = g.element((2, 3)), g.element((-1, 4))
    assert l.value(x + y) == l.value(x) + l.value(y)


def test_coset_constant_map_completeness():
    full = {idx: Fraction(1) for idx in Z44.coset_indices(2)}
    m = CosetConstantMap.from_mapping(Z44, full)
    assert m.value(Z44.element((1, 2))) == 1
    partial = dict(list(full.items())[:-1])
    with pytest.raises(GroupMismatchError):
        CosetConstantMap.from_mapping(Z44, partial)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 11), st.integers(0, 3), st.integers(-9, 9),
       st.integers(-9, 9))
def test_character_multiplicative_unimodular(k, e, a, b):
    g = GroupSpec(1, (4,))
    chi = CharacterSpec(g, (Fraction(k, 12),), (e,))
    x, y = g.element((a, b)), g.element((b, a))
    assert chi.value(x) * chi.value(y) == chi.value(x + y)
    assert chi.value(x).log_abs == 0
    assert chi.value(g.zero()).is_one()


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
    triv = HermitianSolutionForm(
        CharacterSpec.trivial(Z44), CharacterSpec.trivial(Z44),
        SignMap.trivial(Z44, 4), SignMap.trivial(Z44, 4),
        QuadraticForm.zero(Z44), CosetConstantMap.zero(Z44))
    assert eval_hermitian(triv, Z44.element((1, 2))) == (1 + 0j, 1 + 0j)

    form = HermitianSolutionForm(
        CharacterSpec(Z, (Fraction(1, 8),), ()), CharacterSpec.trivial(Z),
        SignMap.trivial(Z, 4), SignMap.trivial(Z, 4),
        QuadraticForm.zero(Z), CosetConstantMap.zero(Z))
    fv, _ = form.exact_pair(Z.element((2,)))
    assert fv == Exact.unit(Fraction(1, 4))  # exactly i

    z9 = GroupSpec(0, (9,))
    sup = SubgroupSpec(z9, (z9.element((3,)),))
    vform = HermitianSolutionForm(
        CharacterSpec.trivial(z9), CharacterSpec.trivial(z9),
        SignMap.trivial(z9, 4), SignMap.trivial(z9, 4),
        QuadraticForm.zero(z9), CosetConstantMap.zero(z9), sup)
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
        ef, eg = form.log_pair(p)
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
        table = FuncTable.from_function(group, FullGroup(), "sign", amap.value)
        assert check_sign_eq26(table, table).holds
