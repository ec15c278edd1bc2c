import math
from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_decompose
from reference_checks import subgroup_closure
from reference_decompose import (
    character_turn,
    character_value,
    coset_value,
    exact_pair,
    quadratic_value,
    quotient_has_order2,
    split_T,
)
from kbeq import _vec, decompose, functions
from kbeq.checks import (
    DEFAULT_TOL,
    check_hermitian,
    check_kb,
    check_kb_self,
    check_sign_eq26,
)
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
    HermitianSolutionForm,
    PositiveSolutionForm,
    QuadraticForm,
    SignMap,
    cval,
    synth_table,
)
from kbeq.groups import Box, FullGroup, GroupSpec, SubgroupSpec
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
    assert quadratic_value(P, Z2.element((3, 5))) == 15


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
    assert coset_value(r, g.element((0,))) == 5
    assert coset_value(r, g.element((1,))) == -1


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


def test_decompose_T_keeps_the_index_cache_bounded(monkeypatch):
    budget = 2048  # a few windows' index arrays: the loop must evict
    monkeypatch.setattr(_vec, "_CACHE_BYTES", budget)
    monkeypatch.setattr(_vec, "_pair_cache", {})
    for radius in range(4, 20):
        split_T(real_table(Z, Box((radius,)), lambda p: Fraction(0)), DEFAULT_TOL)
        assert sum(map(_vec._nbytes, _vec._pair_cache.values())) <= budget
    assert (Z, Box((4,))) not in _vec._pair_cache  # the oldest went first
    assert (Z, Box((19,))) in _vec._pair_cache


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
    assert character_value(alpha, g.element((1,))) == Exact.unit(Fraction(1, 4))
    assert character_value(alpha, g.element((1,))).power(4) == Exact.one()


def test_extend_character_free():
    alpha = extend_character(Z, [Fraction(1, 3)])
    assert alpha.free_turns == (Fraction(1, 6),)
    assert Fraction(0) <= alpha.free_turns[0] < Fraction(1, 2)  # principal


def test_extend_character_odd_order_determined():
    g = GroupSpec(0, (9,))
    # chi(2e) = turn 1/9 forces alpha(e) = chi(2e)^5, exponent 5
    alpha = extend_character(g, [Fraction(1, 9)])
    assert alpha.torsion_exponents == (5,)
    assert character_turn(alpha, g.element((2,))) == Fraction(1, 9)


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
            assert character_turn(alpha, g.scale(2, x)) == expected


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
        assert coset_value(form.a, x) == f.values[x]
        assert coset_value(form.b, x) == g.values[x]
    # not constant on doubled cosets, constant on quadrupled ones
    assert not form.a.constant_on_doubled_cosets()


def test_hermitian_character_on_z5():
    g5 = GroupSpec(0, (5,))
    chi = CharacterSpec(g5, (), (2,))
    f = FuncTable.from_function(g5, FullGroup(), "complex",
                                lambda p: character_value(chi, p))
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
                assert exact_pair(back, x) == (f.values[x], g.values[x])


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


def _float_complex(table):
    return FuncTable(table.group, table.domain, "complex",
                     {p: v.to_complex() for p, v in table.values.items()})


def test_hermitian_float_sign_part_must_be_even():
    # evenness of the sign part is not implied on float tables: f negated at
    # x = 5 alone, where |f| is about 3e-33, stays Hermitian and solves the
    # equation within the tolerance, and only the sign part's evenness
    # rejects it
    chi, one = CharacterSpec(Z, (Fraction(1, 12),), ()), SignMap.trivial(Z, 4)
    form = HermitianSolutionForm(chi, chi, one, one, QuadraticForm(Z, ((Fraction(-3),),)),
                                 CosetConstantMap.zero(Z))
    f, g = map(_float_complex, synth_table(form, Box((6,))))
    x = Z.element((5,))
    bad = FuncTable(Z, f.domain, "complex",
                    {p: -v if p == x else v for p, v in f.values.items()})
    assert abs(bad.values[x]) < 1e-32
    assert check_hermitian(bad).holds and check_kb(bad, g).holds
    with pytest.raises(DecompositionError, match="f-sign part is not even") as info:
        decompose_hermitian(bad, g)
    assert info.value.witness["x"] == [-5]


def test_hermitian_accepts_positive_tables_exact_and_float():
    # a positive pair with zero additive maps is a Hermitian pair with
    # trivial characters and sign maps, read from exact and from float logs
    group = GroupSpec(2, (4,))
    P = QuadraticForm(group, ((Fraction(1, 16), Fraction(1, 32), 0),
                              (Fraction(1, 32), Fraction(-1, 16), 0), (0, 0, 0)))
    r = CosetConstantMap(group, tuple(zip(group.coset_indices(2), map(Fraction, (
        "0", "1/8", "-1/4", "1/2", "-1/8", "3/8", "0", "1/4")))))
    zero = AdditiveMap.zero(group)
    f, g = synth_table(PositiveSolutionForm(P, zero, zero, r), Box((4, 4)))
    floats = tuple(FuncTable(group, t.domain, "positive",
                             {p: float(v) for p, v in t.values.items()}) for t in (f, g))
    assert floats[0].encoding[0] == "float"
    for pair in ((f, g), floats):
        form = decompose_hermitian(*pair)
        assert form.alpha.is_trivial() and form.beta.is_trivial()
        assert form.a.is_trivial() and form.b.is_trivial()
        assert form.P == P and form.r == r


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
                                lambda p: character_value(chi, p))
    alpha, amap, P = decompose_self(f)
    assert alpha == chi and amap.is_trivial() and P.is_zero()


def test_self_rejects_unequal_moduli_shape():
    # r != 0 cannot appear in the one-function case: exp(r) = exp(-r)
    g = GroupSpec(0, (2,))
    f = FuncTable.from_function(
        g, FullGroup(), "complex",
        lambda p: Exact(log_abs=Fraction(p.coords[0])))
    with pytest.raises((DecompositionError, EquationFailsError)):
        decompose_self(f)


# every sign table of each window is enumerated: at most 16 points
SIGN_WINDOWS = (
    *((Z, Box((r,))) for r in (1, 2, 3)),
    (GroupSpec(2), Box((1, 1))),
    *((GroupSpec(1, (2,)), Box((r,))) for r in (1, 2, 3)),
    (GroupSpec(1, (4,)), Box((1,))),
    *((GroupSpec(0, t), FullGroup())
      for t in ((2,), (3,), (4,), (2, 2), (2, 4), (4, 4))),
)


def test_sign_equation_forces_constancy_on_doubled_cosets():
    # decompose_self does not check its leftover sign on doubled cosets:
    # a(x+y) a(x-y) = 1 on every in-range pair of the window implies it.
    # Each row of ``bits`` is one sign table's parities, in domain order.
    tables = solutions = 0
    for group, domain in SIGN_WINDOWS:
        pts = domain.points(group)
        index = {p: i for i, p in enumerate(pts)}
        n = len(pts)
        bits = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
        holds = np.ones(2 ** n, dtype=bool)
        for x in pts:
            for y in pts:
                if x + y in index and x - y in index:
                    holds &= bits[:, index[x + y]] == bits[:, index[x - y]]
        first = {}
        reps = [first.setdefault(group.coset_index(p, 2), i) for i, p in enumerate(pts)]
        assert (bits[holds] == bits[holds][:, reps]).all(), (group, domain)
        # the library's sign equation agrees on the solutions and on the
        # first non-solution, if any
        rows = [*bits[holds], *bits[~holds][:1]]
        for row, want in zip(rows, [True] * int(holds.sum()) + [False]):
            s = FuncTable(group, domain, "sign",
                          {p: 1 - 2 * int(b) for p, b in zip(pts, row)})
            assert check_sign_eq26(s, s).holds == want, (group, domain, row)
        tables += 2 ** n
        solutions += int(holds.sum())
    assert (tables, solutions) == (88_084, 150)


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
    assert not quotient_has_order2(form.support)
    assert form.P.is_zero() and form.r.is_zero()
    assert form.alpha.torsion_exponents == (1,)
    for x in f.points():
        assert exact_pair(form, x) == (f.values[x], g.values[x])


def test_vanishing_distinct_characters():
    # f and g restrict different characters to the support {0, 3, 6}
    def restricted(k):
        return FuncTable.from_function(
            Z9, FullGroup(), "complex",
            lambda p: Exact.unit(Fraction(k * p.coords[0], 9))
            if p.coords[0] % 3 == 0 else Exact.zero_value())

    f, g = restricted(1), restricted(2)
    form = decompose_vanishing(f, g)
    assert form.alpha.torsion_exponents == (1,)
    assert form.beta.torsion_exponents == (2,)
    for x, v in f.values.items():
        assert exact_pair(form, x) == (v, g.values[x])


def test_vanishing_full_support():
    g3 = GroupSpec(0, (3,))
    one = FuncTable.from_function(g3, FullGroup(), "complex",
                                  lambda p: Exact.one())
    form = decompose_vanishing(one, one)
    closure = set(subgroup_closure(form.support))
    assert closure == set(g3.elements())


def test_vanishing_identity_indicator():
    g3 = GroupSpec(0, (3,))
    f = FuncTable.from_function(
        g3, FullGroup(), "complex",
        lambda p: Exact.one() if p.coords[0] == 0 else Exact.zero_value())
    assert check_kb(f, f).holds and check_kb(f, f).pairs_checked == 9
    form = decompose_vanishing(f, f)
    assert form.support.generators == ()
    assert not quotient_has_order2(form.support)
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
        decompose_vanishing(f, f)


def test_vanishing_rejects_zero_product_at_origin():
    f = FuncTable.from_function(
        Z9, FullGroup(), "complex",
        lambda p: Exact.one() if p.coords[0] == 3 else Exact.zero_value())
    with pytest.raises((DecompositionError, EquationFailsError)):
        decompose_vanishing(f, f)


def test_vanishing_rejects_unequal_moduli():
    f, _ = vanishing_pair_on_z9()
    vals = dict(f.values)
    vals[Z9.element((3,))] = vals[Z9.element((3,))] * Exact(log_abs=Fraction(1))
    g2 = FuncTable(Z9, FullGroup(), "complex", vals)
    with pytest.raises((DecompositionError, EquationFailsError)):
        decompose_vanishing(f, g2)


def _odd_torsions(limit=225):
    """Torsion tuples of odd orders >= 3, at most three factors, whose
    product is at most ``limit``."""
    out, frontier = [], [()]
    while frontier:
        nxt = []
        for t in frontier:
            for n in range(3, limit + 1, 2):
                if math.prod(t) * n <= limit and len(t) < 3:
                    nxt.append(t + (n,))
        out += nxt
        frontier = nxt
    return out


ODD_TORSIONS = _odd_torsions()


def _restricted_character(group, exps, sub, value=Exact.unit):
    """The table of the character ``exps`` on the span of ``sub``, zero
    elsewhere, with ``value`` turning each turn into a table value."""
    chi = CharacterSpec(group, (), exps)
    support = set(subgroup_closure(sub))
    return FuncTable.from_function(
        group, FullGroup(), "complex",
        lambda x: value(character_turn(chi, x)) if x in support else Exact.zero_value())


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ODD_TORSIONS), st.integers(0, 10**9),
       st.sampled_from(("exact", "float", "corrupted")))
def test_fit_character_on_matches_the_reference(torsion, seed, style):
    rng = Random(seed)
    group = GroupSpec(0, torsion)
    sub = SubgroupSpec(group, tuple(
        group.element([rng.randrange(n) for n in torsion])
        for _ in range(rng.randrange(3))))
    exps = tuple(rng.randrange(n) for n in torsion)
    p = _restricted_character(group, exps, sub, (lambda t: cval(Exact.unit(t)))
                              if style == "float" else Exact.unit)
    if style == "corrupted":
        support = subgroup_closure(sub)
        x = support[rng.randrange(len(support))]
        shift = Exact.unit(Fraction(rng.randrange(1, 7), rng.choice((2, 7, 9, 11))))
        p = FuncTable.from_function(
            group, FullGroup(), "complex",
            lambda y: p.values[y] * shift if y == x else p.values[y])
    on = np.flatnonzero(~functions._zero_mask(p.encoding))
    want = _fit_outcome(lambda: reference_decompose._fit_character_on(
        group, [(x, p.values[x]) for x in subgroup_closure(sub)], DEFAULT_TOL))
    got = _fit_outcome(lambda: decompose._fit_character_on(p, on, sub, DEFAULT_TOL))
    assert got == want


def _fit_outcome(fit):
    try:
        return fit()
    except DecompositionError as exc:
        return str(exc)


def test_vanishing_beyond_the_old_character_budget():
    # 19 683 characters; the fit returns the first agreeing on the support,
    # which need not be the synthesized one off it
    group = GroupSpec(0, (243, 81))
    one = SignMap.trivial(group, 4)
    form = HermitianSolutionForm(
        CharacterSpec(group, (), (100, 7)), CharacterSpec(group, (), (143, 74)), one, one,
        QuadraticForm.zero(group), CosetConstantMap.zero(group),
        SubgroupSpec(group, (group.element((3, 9)), group.element((0, 27)))))
    f, g = synth_table(form, FullGroup())
    assert synth_table(decompose_vanishing(f, g), FullGroup()) == (f, g)


def test_vanishing_renders_no_form_and_one_character_table_per_table(monkeypatch):
    group = GroupSpec(0, (63, 63))
    one = SignMap.trivial(group, 4)
    form = HermitianSolutionForm(
        CharacterSpec(group, (), (40, 50)), CharacterSpec(group, (), (23, 13)), one, one,
        QuadraticForm.zero(group), CosetConstantMap.zero(group),
        SubgroupSpec(group, (group.element((1, 0)), group.element((0, 1)))))
    f, g = synth_table(form, FullGroup())
    calls = {"render": 0, "character": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(functions, "_hermitian_tables",
                        counted("render", functions._hermitian_tables))
    monkeypatch.setattr(decompose, "_character_table",
                        counted("character", decompose._character_table))
    back = decompose_vanishing(f, g)
    assert (back.alpha, back.beta) == (form.alpha, form.beta)
    assert calls == {"render": 0, "character": 2}


def _support_forms(rng):
    """Support-restricted forms on the supports of the vanishing tests: the
    two fixed pairs above and random subgroups of odd-order groups."""
    fixed = (((243, 81), ((3, 9), (0, 27))), ((63, 63), ((1, 0), (0, 1))), ((9,), ((3,),)))
    cases = [(GroupSpec(0, t), [GroupSpec(0, t).element(c) for c in gens])
             for t, gens in fixed]
    for torsion in ODD_TORSIONS[::15]:
        group = GroupSpec(0, torsion)
        cases.append((group, [group.element([rng.randrange(n) for n in torsion])
                              for _ in range(rng.randrange(3))]))
    for group, gens in cases:
        one = SignMap.trivial(group, 4)
        exps = [tuple(rng.randrange(n) for n in group.torsion) for _ in range(2)]
        yield HermitianSolutionForm(
            CharacterSpec(group, (), exps[0]), CharacterSpec(group, (), exps[1]), one, one,
            QuadraticForm.zero(group), CosetConstantMap.zero(group),
            SubgroupSpec(group, tuple(gens)))


def test_support_synthesis_matches_exact_pair_without_membership_tests():
    # the renderer grows the support mask from the generators and tests no
    # membership; the oracle enumerates the subgroup
    for form in _support_forms(Random(7)):
        for i, table in enumerate(synth_table(form, FullGroup())):
            oracle = FuncTable.from_function(form.group, FullGroup(), "complex",
                                             lambda x: exact_pair(form, x)[i])
            assert table == oracle, (form.group, form.support)


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
                    for m in (back.a, back.b):
                        assert coset_value(m, x + y) == \
                            coset_value(m, x) * coset_value(m, y)
