import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from kbeq import _vec
from kbeq.checks import check_kb, check_kb_self
from kbeq.decompose import (
    decompose_T,
    decompose_hermitian,
    decompose_positive,
    decompose_self,
    decompose_vanishing,
    extend_additive,
    extend_biadditive,
    extend_character,
    recover_deg2,
)
from kbeq.errors import (
    DecompositionError,
    DomainSizeError,
    EquationFailsError,
    GroupHypothesisError,
)
from kbeq.functions import (
    AdditiveMap,
    CharacterSpec,
    CosetConstantMap,
    Exact,
    FuncTable,
    PositiveSolutionForm,
    QuadraticForm,
    synth_table,
)
from kbeq.groups import Box, FullGroup, GroupSpec
from kbeq.oracle import (
    builtin_counterexample,
    builtin_odd_quadratic,
    random_hermitian_form,
    random_positive_form,
)

Z = GroupSpec(1)
Z2 = GroupSpec(2)
Z9 = GroupSpec(0, (9,))
BIG = GroupSpec(2, (4, 3))


def real_table(group, domain, fn):
    return FuncTable.from_function(group, domain, "real", fn)


# ---------------------------------------------------------------------------
# recover_deg2


def test_recover_quadratic_line():
    t = real_table(Z, Box((5,)),
                   lambda p: Fraction(p.coords[0] ** 2 + 2 * p.coords[0] + 5))
    P, l, c = recover_deg2(t)
    assert P.matrix == ((Fraction(1),),)
    assert l.coeffs == (Fraction(2),)
    assert c == 5


def test_recover_constant():
    t = real_table(Z, Box((4,)), lambda p: Fraction(7))
    P, l, c = recover_deg2(t)
    assert P.is_zero() and l.is_zero() and c == 7


def test_recover_mixed_term():
    t = real_table(Z2, Box((4, 4)),
                   lambda p: Fraction(p.coords[0] * p.coords[1]))
    P, l, c = recover_deg2(t)
    assert P.matrix == ((Fraction(0), Fraction(1, 2)),
                       (Fraction(1, 2), Fraction(0)))
    assert l.is_zero() and c == 0
    assert P.value(Z2.element((3, 5))) == 15


def test_recover_rejects_cubic():
    t = real_table(Z, Box((5,)), lambda p: Fraction(p.coords[0] ** 3))
    with pytest.raises(EquationFailsError):
        recover_deg2(t)


def test_recover_finite_group_constant_only():
    g = GroupSpec(0, (5,))
    t = real_table(g, FullGroup(), lambda p: Fraction(3, 2))
    P, l, c = recover_deg2(t)
    assert P.is_zero() and l.is_zero() and c == Fraction(3, 2)


# ---------------------------------------------------------------------------
# halving extensions


def test_extend_biadditive_quarter():
    P = extend_biadditive(Z, ((Fraction(4),),))
    assert P.matrix == ((Fraction(1),),)
    assert extend_biadditive(Z, ((0,),)).is_zero()


def test_extend_biadditive_rejects_torsion_and_asymmetry():
    g = GroupSpec(1, (4,))
    with pytest.raises(DecompositionError):
        extend_biadditive(g, ((Fraction(0), Fraction(1)),
                              (Fraction(1), Fraction(0))))
    with pytest.raises(DecompositionError):
        extend_biadditive(Z2, ((Fraction(0), Fraction(1)),
                               (Fraction(2), Fraction(0))))


def test_extend_additive_half():
    l = extend_additive(Z, (Fraction(3),))
    assert l.coeffs == (Fraction(3, 2),)
    g = GroupSpec(1, (4,))
    assert extend_additive(g, (0, 0)).is_zero()
    with pytest.raises(DecompositionError):
        extend_additive(g, (0, Fraction(1)))


# ---------------------------------------------------------------------------
# decompose_T


def make_form_on_Z():
    odd = {idx: Fraction(idx.residues[0]) for idx in Z.coset_indices(2)}
    return PositiveSolutionForm(
        QuadraticForm(Z, ((Fraction(1),),)),
        AdditiveMap(Z, (Fraction(1, 2),)),
        AdditiveMap.zero(Z),
        CosetConstantMap.from_mapping(Z, odd))


def test_decompose_T_roundtrip():
    form = make_form_on_Z()
    f, _ = synth_table(form, Box((5,)))
    P, l, r = decompose_T(f.as_real_log())
    assert P == form.P
    assert l == form.l
    assert r == form.r


def test_decompose_T_zero():
    t = real_table(Z, Box((4,)), lambda p: Fraction(0))
    P, l, r = decompose_T(t)
    assert P.is_zero() and l.is_zero() and r.is_zero()


def test_decompose_T_finite_group_is_coset_data():
    g = GroupSpec(0, (4,))
    vals = {0: Fraction(5), 1: Fraction(-1), 2: Fraction(5), 3: Fraction(-1)}
    t = real_table(g, FullGroup(), lambda p: vals[p.coords[0]])
    P, l, r = decompose_T(t)
    assert P.is_zero() and l.is_zero()
    assert r.value(g.element((0,))) == 5
    assert r.value(g.element((1,))) == -1


def test_decompose_T_needs_radius_four():
    t = real_table(Z, Box((2,)), lambda p: Fraction(0))
    with pytest.raises(DomainSizeError):
        decompose_T(t)


def test_decompose_T_rejects_corrupted_input():
    form = make_form_on_Z()
    f, _ = synth_table(form, Box((5,)))
    vals = dict(f.as_real_log().values)
    vals[Z.element((5,))] += 1  # break one value off the doubled lattice
    bad = FuncTable(Z, Box((5,)), "real", vals)
    with pytest.raises((DecompositionError, EquationFailsError)):
        decompose_T(bad)


def test_decompose_T_rejects_non_additive_odd_part():
    t = real_table(Z, Box((4,)),
                   lambda p: Fraction(p.coords[0] ** 3))
    with pytest.raises((DecompositionError, EquationFailsError)):
        decompose_T(t)


def test_decompose_T_keeps_the_index_cache_bounded():
    for radius in range(4, 20):
        decompose_T(real_table(Z, Box((radius,)), lambda p: Fraction(0)),
                    verify=False)
        assert len(_vec._pair_cache) <= 7


# ---------------------------------------------------------------------------
# decompose_positive


def test_decompose_positive_trivial():
    g = GroupSpec(0, (2,))
    f, gt = synth_table(PositiveSolutionForm.zero(g), FullGroup())
    form = decompose_positive(f, gt)
    assert form == PositiveSolutionForm.zero(g)


def test_decompose_positive_constants_float():
    g = GroupSpec(0, (3,))
    f = FuncTable.from_function(g, FullGroup(), "positive",
                                lambda p: math.log(2.0))
    gt = FuncTable.from_function(g, FullGroup(), "positive",
                                 lambda p: math.log(0.5))
    form = decompose_positive(f, gt)
    assert form.P.is_zero() and form.l.is_zero() and form.m.is_zero()
    r0 = form.r.entries[0][1]
    assert float(r0) == pytest.approx(math.log(2.0), abs=1e-9)


def test_decompose_positive_rejects_non_solution():
    g = GroupSpec(0, (3,))
    f = FuncTable.from_function(g, FullGroup(), "positive",
                                lambda p: Fraction(p.coords[0]))
    with pytest.raises(EquationFailsError):
        decompose_positive(f, f)


def test_decompose_positive_roundtrip_mixed_group():
    rng = Random(7)
    for _ in range(5):
        form = random_positive_form(BIG, rng)
        f, g = synth_table(form, Box((4, 4)))
        assert check_kb(f, g).holds
        back = decompose_positive(f, g)
        assert back == form


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_decompose_positive_roundtrip_property(seed):
    rng = Random(seed)
    group = rng.choice([Z, GroupSpec(0, (4,)), GroupSpec(1, (3,)),
                        GroupSpec(0, (2, 2)), GroupSpec(0, (9,))])
    form = random_positive_form(group, rng)
    domain = FullGroup() if group.is_finite else Box((4,) * group.rank)
    f, g = synth_table(form, domain)
    assert check_kb(f, g).holds  # soundness of synthesis
    assert decompose_positive(f, g) == form


def test_decompose_positive_rank0_has_no_polynomial_part():
    rng = Random(3)
    for torsion in [(2,), (3,), (4, 4), (2, 6)]:
        group = GroupSpec(0, torsion)
        form = random_positive_form(group, rng)
        f, g = synth_table(form, FullGroup())
        back = decompose_positive(f, g)
        assert back.P.is_zero() and back.l.is_zero() and back.m.is_zero()


# ---------------------------------------------------------------------------
# extend_character


def test_extend_character_trivial():
    g = GroupSpec(1, (4, 9))
    alpha = extend_character(g, [0, 0, 0])
    assert alpha.is_trivial()


def test_extend_character_z4():
    g = GroupSpec(0, (4,))
    alpha = extend_character(g, [Fraction(1, 2)])  # chi(2) = -1
    assert alpha.torsion_exponents == (1,)         # alpha(1) = i, principal
    assert alpha.value(g.element((1,))) == Exact.unit(Fraction(1, 4))
    assert alpha.value(g.element((1,))).power(4).is_one()


def test_extend_character_free():
    alpha = extend_character(Z, [Fraction(1, 3)])
    assert alpha.free_turns == (Fraction(1, 6),)
    assert Fraction(0) <= alpha.free_turns[0] < Fraction(1, 2)  # principal


def test_extend_character_odd_order_determined():
    g = GroupSpec(0, (9,))
    # chi(2e) = turn 1/9 forces alpha(e) = chi(2e)^5, exponent 5
    alpha = extend_character(g, [Fraction(1, 9)])
    assert alpha.torsion_exponents == (5,)
    assert alpha.turn(g.element((2,))) == Fraction(1, 9)


def test_extend_character_restriction_exact():
    for torsion in [(4,), (6,), (9,), (2, 8), (3, 4)]:
        g = GroupSpec(0, torsion)
        turns = []
        for i, n in enumerate(torsion):
            m = n // 2 if n % 2 == 0 else n
            turns.append(Fraction(1, m) if m > 1 else Fraction(0))
        alpha = extend_character(g, turns)
        for x in g.elements():
            expected = sum((t * c for t, c in zip(turns, x.coords)),
                           Fraction(0)) % 1
            assert alpha.turn(g.scale(2, x)) == expected


def test_extend_character_rejects_non_character():
    g = GroupSpec(0, (4,))
    with pytest.raises(DecompositionError):
        extend_character(g, [Fraction(1, 3)])  # not a multiple of 1/2


# ---------------------------------------------------------------------------
# decompose_hermitian


def test_hermitian_counterexample():
    f, g = builtin_counterexample()
    form = decompose_hermitian(f, g)
    assert form.alpha.is_trivial() and form.beta.is_trivial()
    assert form.P.is_zero() and form.r.is_zero()
    for x in f.points():
        assert form.a.value(x) == f.values[x]
        assert form.b.value(x) == g.values[x]
    # not constant on doubled cosets, constant on quadrupled ones
    assert not form.a.constant_on_doubled_cosets()


def test_hermitian_character_on_z5():
    g5 = GroupSpec(0, (5,))
    chi = CharacterSpec(g5, (), (2,))
    f = FuncTable.from_function(g5, FullGroup(), "complex",
                                lambda p: chi.value(p))
    form = decompose_hermitian(f, f)
    assert form.alpha == chi and form.beta == chi
    assert form.a.is_trivial() and form.b.is_trivial()
    assert form.P.is_zero() and form.r.is_zero()


def test_hermitian_trivial_pair():
    g = GroupSpec(0, (6,))
    one = FuncTable.from_function(g, FullGroup(), "complex",
                                  lambda p: Exact.one())
    form = decompose_hermitian(one, one)
    assert form.alpha.is_trivial() and form.a.is_trivial()


def test_hermitian_reconstructs_functions():
    rng = Random(11)
    for group, domain in [(GroupSpec(0, (4, 2)), FullGroup()),
                          (GroupSpec(1, (4,)), Box((4,)))]:
        for _ in range(3):
            form = random_hermitian_form(group, rng)
            f, g = synth_table(form, domain)
            back = decompose_hermitian(f, g)
            for x in f.points():
                assert back.exact_pair(x) == (f.values[x], g.values[x])


def test_hermitian_rejects_global_negative():
    g = GroupSpec(0, (3,))
    neg = FuncTable.from_function(g, FullGroup(), "complex",
                                  lambda p: Exact.from_sign(-1))
    assert check_kb(neg, neg).holds  # it does solve the equation...
    with pytest.raises(DecompositionError):  # ...but f(0) < 0 has no form
        decompose_hermitian(neg, neg)


def test_hermitian_rejects_non_hermitian():
    g = GroupSpec(0, (3,))
    chi = CharacterSpec(g, (), (1,))
    skew = FuncTable.from_function(
        g, FullGroup(), "complex",
        lambda p: Exact.unit(Fraction(1, 8)) if p.coords[0] else Exact.one())
    with pytest.raises(EquationFailsError):
        decompose_hermitian(skew, skew)


def test_hermitian_rejects_vanishing_input():
    g = GroupSpec(0, (3,))
    f = FuncTable.from_function(
        g, FullGroup(), "complex",
        lambda p: Exact.one() if p.coords[0] == 0 else Exact.zero_value())
    with pytest.raises(DecompositionError):
        decompose_hermitian(f, f)


# ---------------------------------------------------------------------------
# decompose_self


def test_self_odd_quadratic():
    t = builtin_odd_quadratic(6)
    alpha, amap, P = decompose_self(t)
    assert alpha.is_trivial() and P.is_zero()
    g = t.group
    i11 = g.coset_index(g.element((1, 1)), 2)
    i10 = g.coset_index(g.element((1, 0)), 2)
    i01 = g.coset_index(g.element((0, 1)), 2)
    assert amap.at(i11) == -1
    assert amap.at(i10) == amap.at(i01) == 1
    assert amap.at(i11) != amap.at(i10) * amap.at(i01)  # not multiplicative


def test_self_positive_quadratic():
    f = FuncTable.from_function(Z, Box((4,)), "positive",
                                lambda p: Fraction(p.coords[0] ** 2))
    from kbeq.decompose import _complexified
    alpha, amap, P = decompose_self(_complexified(f))
    assert alpha.is_trivial()
    assert amap.is_trivial()
    assert P.matrix == ((Fraction(1),),)


def test_self_character():
    g5 = GroupSpec(0, (5,))
    chi = CharacterSpec(g5, (), (3,))
    f = FuncTable.from_function(g5, FullGroup(), "complex",
                                lambda p: chi.value(p))
    alpha, amap, P = decompose_self(f)
    assert alpha == chi and amap.is_trivial() and P.is_zero()


def test_self_rejects_unequal_moduli_shape():
    # r != 0 cannot appear in the one-function case: exp(r) = exp(-r)
    g = GroupSpec(0, (2,))
    f = FuncTable.from_function(
        g, FullGroup(), "complex",
        lambda p: Exact.from_log(Fraction(p.coords[0])))
    with pytest.raises((DecompositionError, EquationFailsError)):
        decompose_self(f)


# ---------------------------------------------------------------------------
# decompose_vanishing


def vanishing_pair_on_z9():
    sup = {0, 3, 6}
    f = FuncTable.from_function(
        Z9, FullGroup(), "complex",
        lambda p: Exact.unit(Fraction(p.coords[0], 9))
        if p.coords[0] in sup else Exact.zero_value())
    return f, f


def test_vanishing_z9():
    f, g = vanishing_pair_on_z9()
    assert check_kb(f, g).holds
    form = decompose_vanishing(f, g)
    assert [e.coords for e in form.support.generators] == [(3,)]
    assert not form.support.quotient_has_order2()
    assert form.P.is_zero() and form.r.is_zero()
    assert form.alpha.torsion_exponents == (1,)
    for x in f.points():
        assert form.exact_pair(x) == (f.values[x], g.values[x])


def test_vanishing_full_support():
    g3 = GroupSpec(0, (3,))
    one = FuncTable.from_function(g3, FullGroup(), "complex",
                                  lambda p: Exact.one())
    form = decompose_vanishing(one, one)
    closure = set(form.support.elements())
    assert closure == set(g3.elements())


def test_vanishing_identity_indicator():
    g3 = GroupSpec(0, (3,))
    f = FuncTable.from_function(
        g3, FullGroup(), "complex",
        lambda p: Exact.one() if p.coords[0] == 0 else Exact.zero_value())
    assert check_kb(f, f).holds and check_kb(f, f).pairs_checked == 9
    form = decompose_vanishing(f, f)
    assert form.support.generators == ()
    assert not form.support.quotient_has_order2()
    assert form.alpha.is_trivial()


def test_vanishing_rejects_even_order_group():
    f, g = builtin_counterexample()
    with pytest.raises(GroupHypothesisError):
        decompose_vanishing(f, g)


def test_vanishing_rejects_non_subgroup_support():
    f = FuncTable.from_function(
        Z9, FullGroup(), "complex",
        lambda p: Exact.one() if p.coords[0] in (0, 1) else Exact.zero_value())
    with pytest.raises((DecompositionError, EquationFailsError)):
        decompose_vanishing(f, f, verify=False)


def test_vanishing_rejects_zero_product_at_origin():
    f = FuncTable.from_function(
        Z9, FullGroup(), "complex",
        lambda p: Exact.one() if p.coords[0] == 3 else Exact.zero_value())
    with pytest.raises((DecompositionError, EquationFailsError)):
        decompose_vanishing(f, f, verify=False)


def test_vanishing_rejects_unequal_moduli():
    f, _ = vanishing_pair_on_z9()
    vals = dict(f.values)
    vals[Z9.element((3,))] = vals[Z9.element((3,))] * Exact.from_log(1)
    g2 = FuncTable(Z9, FullGroup(), "complex", vals)
    with pytest.raises((DecompositionError, EquationFailsError)):
        decompose_vanishing(f, g2, verify=False)


def test_two_coset_group_signs_are_multiplicative():
    # when X / X^(2) has just two cosets the recovered signs multiply:
    # on the nontrivial coset x + y lands back in X^(2) where the sign is 1
    rng = Random(23)
    for group in (GroupSpec(0, (4,)), GroupSpec(0, (8,)), GroupSpec(1)):
        assert group.coset_count(2) == 2
        domain = FullGroup() if group.is_finite else Box((4,))
        form = random_hermitian_form(group, rng)
        f, g = synth_table(form, domain)
        back = decompose_hermitian(f, g)
        pts = f.points()
        for x in pts:
            for y in pts:
                if (x + y) in f.values:
                    assert back.a.value(x + y) == \
                        back.a.value(x) * back.a.value(y)
                    assert back.b.value(x + y) == \
                        back.b.value(x) * back.b.value(y)
