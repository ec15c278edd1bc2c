import math
from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_checks as ref
from reference_decompose import character_value, coset_value, quadratic_value

from kbeq import checks
from kbeq.checks import (
    DEFAULT_TOL,
    check_cauchy,
    check_character,
    check_coset_constant,
    check_eq5,
    check_hermitian,
    check_kb,
    check_kb_self,
    check_polynomial,
    check_quadratic,
    check_sign_eq26,
)
from kbeq.decompose import decompose_T
from kbeq.errors import BudgetExceededError, EquationFailsError, IncompatibleTablesError
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
Z3 = GroupSpec(0, (3,))


def real_table(group, domain, fn):
    return FuncTable.from_function(group, domain, "real", fn)


# ---------------------------------------------------------------------------
# polynomial and triple-difference checks


def test_check_polynomial_square():
    t = real_table(Z, Box((5,)), lambda p: Fraction(p.coords[0] ** 2))
    assert check_polynomial(t, 2).holds
    rep = check_polynomial(t, 1)
    assert not rep.holds and rep.witness is not None


@settings(max_examples=25, deadline=None)
@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))
def test_random_quadratic_forms_are_degree_2(a, b, c):
    g = GroupSpec(2)
    P = QuadraticForm(g, ((Fraction(a), Fraction(b, 2)),
                          (Fraction(b, 2), Fraction(c))))
    t = real_table(g, Box((3, 3)), lambda p: quadratic_value(P, p))
    assert check_polynomial(t, 2).holds


def test_check_eq5_examples():
    zero = real_table(Z, Box((4,)), lambda p: Fraction(0))
    assert check_eq5(zero).holds

    cubic = real_table(Z, Box((4,)), lambda p: Fraction(p.coords[0] ** 3))
    rep = check_eq5(cubic)
    assert not rep.holds and rep.witness is not None

    # P + l + coset-constant r satisfies the triple-difference equation
    odd = {idx: Fraction(idx.residues[0], 3) for idx in Z.coset_indices(2)}
    form = PositiveSolutionForm(
        QuadraticForm(Z, ((Fraction(2, 3),),)),
        AdditiveMap(Z, (Fraction(-1, 2),)),
        AdditiveMap.zero(Z),
        CosetConstantMap.from_mapping(Z, odd))
    f, _ = synth_table(form, Box((5,)))
    assert check_eq5(f.as_real_log()).holds


def test_check_eq5_certifies_large_domains():
    # 693 889 in-range triples on 289 points: the split certifies the table,
    # and the exhaustive sweep agrees
    g = GroupSpec(2)
    t = real_table(g, Box((8, 8)), lambda p: Fraction(p.coords[0] ** 2))
    rep = check_eq5(t)
    assert rep.holds and rep.note is None and rep.pairs_checked == 693_889
    assert checks._eq5_sweep(t, DEFAULT_TOL) == rep


def _log_table(radius: int, altered: bool):
    """A positive form's log table on Z^2 x Z/4 x Z/3, with the log at
    (3, -2, 1, 1) raised by 1 when ``altered``."""
    group = GroupSpec(2, (4, 3))
    f, _ = synth_table(random_positive_form(group, Random(3)), Box((radius, radius)))
    x = group.element((3, -2, 1, 1))
    return FuncTable(group, f.domain, "real",
                     {p: v + (altered and p == x) for p, v in f.as_real_log().values.items()})


def test_check_eq5_sweeps_every_triple_up_to_the_guard():
    # a sample of 20 000 of its 918 330 048 triples once let this table hold
    bad = _log_table(4, True)
    rep = check_eq5(bad)
    assert not rep.holds and rep.note is None and rep.pairs_checked == 28_755_648
    w = rep.witness.to_json()
    assert (w["x"], w["h"], w["k"]) == ([-4, -4, 0, 0], [1, 0, 1, 0], [3, 1, 0, 2])
    with pytest.raises(EquationFailsError, match="triple-difference equation fails"):
        decompose_T(bad)
    # beyond the guard a failing table is refused, a genuine one certified
    bad = _log_table(6, True)
    for fn in (check_eq5, decompose_T):
        with pytest.raises(BudgetExceededError, match="^triple sweep over 245598912 "
                           "in-range triples exceeds the built-in guard of 30000000$"):
            fn(bad)
    for radius, count in ((6, 245_598_912), (20, 229_363_386_048)):
        rep = check_eq5(_log_table(radius, False))
        assert rep.holds and rep.note is None and rep.pairs_checked == count


# ---------------------------------------------------------------------------
# the equation itself


def test_kb_builtin_counterexample():
    f, g = builtin_counterexample()
    rep = check_kb(f, g)
    assert rep.holds
    assert rep.pairs_checked == 256
    assert rep.coverage == 1.0


def test_kb_all_ones():
    f = FuncTable.from_function(Z3, FullGroup(), "positive", lambda p: Fraction(0))
    assert check_kb(f, f).holds


def test_kb_reciprocal_constants_float():
    f = FuncTable.from_function(Z3, FullGroup(), "positive",
                                lambda p: math.log(2.0))
    g = FuncTable.from_function(Z3, FullGroup(), "positive",
                                lambda p: math.log(0.5))
    assert check_kb(f, g).holds


def test_kb_requires_matching_tables():
    f = FuncTable.from_function(Z3, FullGroup(), "positive", lambda p: Fraction(0))
    s = FuncTable.from_function(Z3, FullGroup(), "sign", lambda p: 1)
    with pytest.raises(IncompatibleTablesError):
        check_kb(f, s)


def test_kb_witness_is_lexicographically_first():
    # corrupt the synthesized pair at one point; scan order fixes the witness
    form = PositiveSolutionForm.zero(Z3)
    f, g = synth_table(form, FullGroup())
    vals = dict(f.values)
    vals[Z3.element((2,))] = Fraction(1)
    bad = FuncTable(Z3, FullGroup(), "positive", vals)
    rep = check_kb(bad, g)
    assert not rep.holds
    # pairs where the corruption cancels hold; the first true failure is (1, 1)
    assert rep.witness.points[0].coords == (1,)
    assert rep.witness.points[1].coords == (1,)


def test_kb_self_examples():
    t = builtin_odd_quadratic(4)
    assert check_kb_self(t).holds

    f = FuncTable.from_function(Z, Box((5,)), "positive",
                                lambda p: Fraction(p.coords[0] ** 2))
    assert check_kb_self(f).holds


def test_kb_scaling_metamorphic():
    # (c f, g / c) solves iff (f, g) does; in log domain shift by +/- q
    odd = {idx: Fraction(idx.residues[0]) for idx in Z.coset_indices(2)}
    form = PositiveSolutionForm(
        QuadraticForm(Z, ((Fraction(1, 2),),)),
        AdditiveMap(Z, (Fraction(2),)),
        AdditiveMap(Z, (Fraction(-1),)),
        CosetConstantMap.from_mapping(Z, odd))
    f, g = synth_table(form, Box((4,)))
    q = Fraction(7, 3)
    fs = FuncTable(Z, f.domain, "positive",
                   {p: v + q for p, v in f.values.items()})
    gs = FuncTable(Z, g.domain, "positive",
                   {p: v - q for p, v in g.values.items()})
    assert check_kb(f, g).holds
    assert check_kb(fs, gs).holds
    # breaking the pairing (scale only f) must fail
    assert not check_kb(fs, g).holds


def test_kb_implies_eq5_on_logs():
    form = PositiveSolutionForm(
        QuadraticForm(Z, ((Fraction(1),),)),
        AdditiveMap(Z, (Fraction(1, 3),)),
        AdditiveMap(Z, (Fraction(-2),)),
        CosetConstantMap.from_mapping(
            Z, {idx: Fraction(2 * idx.residues[0] - 1, 2)
                for idx in Z.coset_indices(2)}))
    f, g = synth_table(form, Box((5,)))
    assert check_kb(f, g).holds
    assert check_eq5(f.as_real_log()).holds
    assert check_eq5(g.as_real_log()).holds


def test_kb_holds_for_moduli_of_hermitian_pair():
    f, g = builtin_counterexample()
    assert check_kb(f.abs_log_table(), g.abs_log_table()).holds


def test_kb_complex_with_zeros():
    z9 = GroupSpec(0, (9,))
    sup = {0, 3, 6}
    f = FuncTable.from_function(
        z9, FullGroup(), "complex",
        lambda p: Exact.unit(Fraction(p.coords[0], 9))
        if p.coords[0] in sup else Exact.zero_value())
    rep = check_kb(f, f)
    assert rep.holds and rep.pairs_checked == 81
    # breaking one zero must fail
    vals = dict(f.values)
    vals[z9.element((1,))] = Exact.one()
    bad = FuncTable(z9, FullGroup(), "complex", vals)
    assert not check_kb(bad, f).holds


def test_kb_float_complex_path():
    chi = CharacterSpec(Z3, (), (1,))
    f = FuncTable.from_function(Z3, FullGroup(), "complex",
                                lambda p: character_value(chi, p).to_complex())
    assert check_kb(f, f, tol=1e-9).holds


# ---------------------------------------------------------------------------
# side conditions


def test_check_hermitian():
    even = real_table(Z, Box((3,)), lambda p: Fraction(p.coords[0] ** 2))
    assert check_hermitian(even).holds

    chi = CharacterSpec(Z, (Fraction(1, 12),), ())
    t = FuncTable.from_function(Z, Box((3,)), "complex",
                                lambda p: character_value(chi, p))
    assert check_hermitian(t).holds

    bad = FuncTable.from_function(
        Z, Box((1,)), "complex",
        lambda p: Exact.unit(Fraction(1, 4)) if p.coords[0] != 0 else Exact.one())
    rep = check_hermitian(bad)
    assert not rep.holds
    assert rep.witness.points[0].coords == (-1,)

    # int64 turn numerators over a denominator beyond int64
    tiny = FuncTable.from_function(Z, Box((1,)), "complex",
                                   lambda p: Exact.unit(Fraction(1, 2**70)))
    assert tiny.encoding[1][2].dtype == np.int64
    assert check_hermitian(tiny).to_json() == ref.check_hermitian(tiny, DEFAULT_TOL).to_json()


def test_check_sign_eq26():
    ones = FuncTable.from_function(Z3, FullGroup(), "sign", lambda p: 1)
    assert check_sign_eq26(ones, ones).holds

    f, g = builtin_counterexample()
    assert check_sign_eq26(f, g).holds

    # parity sign on Z/2: verified against a direct 4-case enumeration
    z2 = GroupSpec(0, (2,))
    par = FuncTable.from_function(z2, FullGroup(), "sign",
                                  lambda p: -1 if p.coords[0] else 1)
    direct = all(
        par.values[x + y] * par.values[x - y]
        == par.values[x] * par.values[y] * par.values[x] * par.values[y]
        for x in z2.elements() for y in z2.elements()
    )
    assert direct
    assert check_sign_eq26(par, par).holds


def test_check_coset_constant():
    f, g = builtin_counterexample()
    assert check_coset_constant(f, 4).holds
    rep = check_coset_constant(f, 2)
    assert not rep.holds
    # lexicographically first conflict: (1,0) vs (1,2) in the same coset
    assert rep.witness.points[0].coords == (1, 0)
    assert rep.witness.points[1].coords == (1, 2)
    # the pair named by the classification example also witnesses it
    assert f.values[f.group.element((1, 1))] == 1
    assert f.values[f.group.element((1, 3))] == -1
    assert f.group.coset_index(f.group.element((1, 1)), 2) == \
        f.group.coset_index(f.group.element((1, 3)), 2)

    rmap = CosetConstantMap.from_mapping(
        Z44 := GroupSpec(0, (4, 4)),
        {idx: Fraction(sum(idx.residues)) for idx in
         GroupSpec(0, (4, 4)).coset_indices(2)})
    t = real_table(Z44, FullGroup(), lambda p: coset_value(rmap, p))
    assert check_coset_constant(t, 2).holds


COSET_DOMAINS = [
    (GroupSpec(0, (4, 4)), FullGroup()),
    (GroupSpec(0, (6,)), FullGroup()),
    (GroupSpec(1, (4,)), Box((3,))),
    (GroupSpec(2), Box((2, 2))),
]


def _coset_tables(group, domain, rng):
    """Tables mostly constant on cosets of X^(4), with a few points changed."""
    kinds = {
        "sign": lambda r: r.choice((1, -1)),
        "real": lambda r: Fraction(r.randrange(3), 2),
        "float": lambda r: float(r.randrange(3)) / 3,
        "complex": lambda r: Exact.unit(Fraction(r.randrange(4), 4)),
        "complex-float": lambda r: Exact.unit(Fraction(r.randrange(4), 4)).to_complex(),
    }
    for kind, draw in kinds.items():
        for _ in range(4):
            base = {idx: draw(rng) for idx in group.coset_indices(4)}
            changed = set(rng.sample(domain.points(group), rng.randrange(3)))
            yield FuncTable.from_function(
                group, domain, {"float": "real", "complex-float": "complex"}.get(kind, kind),
                lambda p: draw(rng) if p in changed else base[group.coset_index(p, 4)])


@pytest.mark.parametrize("group,domain", COSET_DOMAINS,
                         ids=[f"{g}-{type(d).__name__}" for g, d in COSET_DOMAINS])
def test_check_coset_constant_matches_reference(group, domain):
    rng = Random(str(group))
    verdicts = set()
    for t in _coset_tables(group, domain, rng):
        for modulus in (2, 4):
            got = check_coset_constant(t, modulus)
            assert got.to_json() == ref.check_coset_constant(
                t, modulus, DEFAULT_TOL).to_json()
            verdicts.add(got.holds)
    assert verdicts == {True, False}


def _hermitian_tables(group, domain, rng):
    """(name, table) Hermitian tables of each kind and storage, and copies
    with one point x != -x changed."""
    orbit = {p: min(p.coords, (-p).coords) for p in domain.points(group)}
    signs = {o: rng.choice((1, -1)) for o in orbit.values()}
    logs = {o: Fraction(rng.randrange(-3, 4), 2) for o in orbit.values()}
    phase = synth_table(random_hermitian_form(group, rng), domain)[0].unimodular_part()
    exact = FuncTable.from_function(
        group, domain, "complex",
        lambda p: Exact(logs[orbit[p]]) * phase.values[p])
    floats = FuncTable.from_function(group, domain, "complex",
                                     lambda p: exact.values[p].to_complex())
    tables = {
        "sign": FuncTable.from_function(group, domain, "sign",
                                        lambda p: signs[orbit[p]]),
        "positive": FuncTable.from_function(group, domain, "positive",
                                            lambda p: logs[orbit[p]]),
        "exact": exact,
        "float": floats,
    }
    changes = {"sign": lambda v: -v, "positive": lambda v: v + Fraction(1, 3),
               "exact": lambda v: v * Exact.unit(Fraction(1, 8)),
               "float": lambda v: v * Exact.unit(Fraction(1, 8)).to_complex()}
    for kind, t in tables.items():
        yield kind, t
        x = rng.choice([p for p in t.points() if p != -p])
        vals = dict(t.values)
        vals[x] = changes[kind](vals[x])
        yield f"{kind}-changed", FuncTable(group, domain, t.kind, vals)


@pytest.mark.parametrize("group,domain", COSET_DOMAINS,
                         ids=[f"{g}-{type(d).__name__}" for g, d in COSET_DOMAINS])
def test_check_hermitian_matches_reference(group, domain):
    rng = Random(str(group))
    for name, t in _hermitian_tables(group, domain, rng):
        got = check_hermitian(t)
        assert got.to_json() == ref.check_hermitian(t, DEFAULT_TOL).to_json(), name
        assert got.holds == ("changed" not in name), name


def test_check_quadratic_and_cauchy():
    sq = real_table(Z, Box((4,)), lambda p: Fraction(p.coords[0] ** 2))
    assert check_quadratic(sq).holds
    lin = real_table(Z, Box((4,)), lambda p: Fraction(3 * p.coords[0], 2))
    assert check_cauchy(lin).holds
    assert not check_cauchy(sq).holds
    assert not check_quadratic(
        real_table(Z, Box((4,)), lambda p: Fraction(p.coords[0] ** 3))).holds


def test_check_character():
    z4 = GroupSpec(0, (4,))
    chi = CharacterSpec(z4, (), (1,))
    t = FuncTable.from_function(z4, FullGroup(), "complex",
                                lambda p: character_value(chi, p))
    rep = check_character(t)
    assert rep.holds
    # verified independently over all 16 pairs
    direct = all(character_value(chi, x + y)
                 == character_value(chi, x) * character_value(chi, y)
                 for x in z4.elements() for y in z4.elements())
    assert direct

    t2 = builtin_odd_quadratic(3).unimodular_part()
    rep2 = check_character(t2)
    assert not rep2.holds
    # the named non-multiplicativity pair fails directly
    g = t2.group
    assert t2.values[g.element((1, 1))] != \
        t2.values[g.element((1, 0))] * t2.values[g.element((0, 1))]

    notunit = FuncTable.from_function(Z3, FullGroup(), "complex",
                                      lambda p: 2 + 0j)
    assert not check_character(notunit).holds


def test_coverage_reflects_box_truncation():
    f = FuncTable.from_function(Z, Box((3,)), "positive",
                                lambda p: Fraction(0))
    rep = check_kb(f, f)
    assert rep.holds
    assert 0 < rep.coverage < 1
    # full-group sweeps have coverage 1
    f3 = FuncTable.from_function(Z3, FullGroup(), "positive",
                                 lambda p: Fraction(0))
    assert check_kb(f3, f3).coverage == 1.0


def test_report_json_shape():
    f, g = builtin_counterexample()
    rep = check_kb(f, g)
    obj = rep.to_json()
    assert set(obj) == {"holds", "pairs_checked", "witness", "coverage", "note"}


def test_polynomial_sums_beyond_int64_stay_exact():
    # 2^6 binomial weights on values of 2^58: the sums need more than int64
    def alternating(scale):
        return real_table(Z, Box((8,)),
                          lambda p: Fraction((-1) ** p.coords[0] * scale))

    for scale in (3, 2**58, 2**70):
        rep = check_polynomial(alternating(scale), 5)
        assert not rep.holds
        x, h = rep.witness.points
        assert rep.witness.lhs == (-1) ** x.coords[0] * 64 * scale

