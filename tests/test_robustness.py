"""Differential and adversarial tests.

The checkers have two implementations (vector sweep and direct loops); they
must agree verdict-for-verdict.  The decomposers must never return a form
for an input that is not a genuine solution: corruptions raise, and what
does come back always reproduces its input exactly.
"""

from fractions import Fraction
from random import Random

import pytest

import kbeq.checks as checks_mod
from kbeq.checks import check_eq5, check_kb, check_sign_eq26
from kbeq.decompose import decompose_hermitian, decompose_positive
from kbeq.errors import (
    DecompositionError,
    EquationFailsError,
    GroupParseError,
    KbeqError,
)
from kbeq.functions import FuncTable, synth_table
from kbeq.groups import Box, FullGroup, GroupSpec, domain_from_json
from kbeq.oracle import (
    builtin_counterexample,
    random_hermitian_form,
    random_positive_form,
)


def _force_slow(monkeypatch):
    monkeypatch.setattr(checks_mod._vec, "numeric_mode", lambda tables: None)
    monkeypatch.setattr(checks_mod._vec, "exact_complex_encoding",
                        lambda table: None)


@pytest.mark.parametrize("corrupt", [False, True])
def test_kb_paths_agree_positive(monkeypatch, corrupt):
    group = GroupSpec(1, (4,))
    form = random_positive_form(group, Random(31))
    f, g = synth_table(form, Box((4,)))
    if corrupt:
        vals = dict(f.values)
        vals[group.element((3, 1))] += Fraction(1, 7)
        f = FuncTable(group, f.domain, "positive", vals)
    fast = check_kb(f, g)
    _force_slow(monkeypatch)
    slow = check_kb(f, g)
    assert fast.holds == slow.holds == (not corrupt)
    assert fast.pairs_checked == slow.pairs_checked or corrupt
    if corrupt:
        assert fast.witness.points == slow.witness.points


@pytest.mark.parametrize("corrupt", [False, True])
def test_kb_paths_agree_signs(monkeypatch, corrupt):
    f, g = builtin_counterexample()
    if corrupt:
        vals = dict(f.values)
        x = f.group.element((2, 1))
        vals[x] = -vals[x]
        f = FuncTable(f.group, f.domain, "sign", vals)
    fast = check_kb(f, g)
    fast26 = check_sign_eq26(f, g)
    _force_slow(monkeypatch)
    slow = check_kb(f, g)
    slow26 = check_sign_eq26(f, g)
    assert fast.holds == slow.holds == (not corrupt)
    assert fast26.holds == slow26.holds == (not corrupt)
    if corrupt:
        assert fast.witness.points == slow.witness.points
        assert fast26.witness.points == slow26.witness.points


def test_eq5_paths_agree_on_coverage(monkeypatch):
    # a radius-3 box: 343 triples, some with points outside the window
    group = GroupSpec(1)
    t = FuncTable.from_function(group, Box((3,)), "real",
                                lambda p: Fraction(p.coords[0] ** 2))
    fast = check_eq5(t)
    _force_slow(monkeypatch)
    slow = check_eq5(t)
    assert fast.holds and slow.holds
    assert fast.note is None and slow.note is None
    assert slow.pairs_checked == fast.pairs_checked
    assert 0 < slow.coverage == fast.coverage < 1


def test_positive_decompose_rejects_random_corruption():
    group = GroupSpec(1, (3,))
    rng = Random(57)
    for trial in range(25):
        form = random_positive_form(group, rng)
        f, g = synth_table(form, Box((4,)))
        which, point_i = rng.choice(("f", "g")), rng.randrange(len(f.values))
        target = f if which == "f" else g
        vals = dict(target.values)
        p = target.points()[point_i]
        vals[p] += Fraction(rng.randint(1, 5), rng.randint(1, 5))
        bad = FuncTable(group, target.domain, "positive", vals)
        fx, gx = (bad, g) if which == "f" else (f, bad)
        with pytest.raises((EquationFailsError, DecompositionError)):
            decompose_positive(fx, gx)


def test_hermitian_decompose_rejects_random_sign_flip():
    rng = Random(91)
    group = GroupSpec(0, (4, 2))
    for trial in range(10):
        form = random_hermitian_form(group, rng)
        f, g = synth_table(form, FullGroup())
        vals = dict(f.values)
        # flip one non-zero-coset point and its negative to stay Hermitian
        pts = [p for p in f.points() if not p.is_zero()]
        p = rng.choice(pts)
        flip = vals[p] * vals[p].from_sign(-1)
        vals[p] = flip
        if -p != p:
            vals[-p] = vals[-p] * vals[-p].from_sign(-1)
        bad = FuncTable(group, f.domain, "complex", vals)
        with pytest.raises((EquationFailsError, DecompositionError)):
            decompose_hermitian(bad, g)


def test_decomposition_output_always_reproduces_input():
    rng = Random(5)
    for group, domain in ((GroupSpec(0, (8,)), FullGroup()),
                          (GroupSpec(1, (6,)), Box((5,)))):
        for _ in range(5):
            form = random_hermitian_form(group, rng)
            f, g = synth_table(form, domain)
            back = decompose_hermitian(f, g)
            assert all(back.exact_pair(x) == (f.values[x], g.values[x])
                       for x in f.points())


def test_support_restricted_synthesis():
    from kbeq.functions import (
        CharacterSpec,
        CosetConstantMap,
        HermitianSolutionForm,
        QuadraticForm,
        SignMap,
    )
    from kbeq.groups import SubgroupSpec

    z9 = GroupSpec(0, (9,))
    sup = SubgroupSpec(z9, (z9.element((3,)),))
    form = HermitianSolutionForm(
        CharacterSpec(z9, (), (2,)), CharacterSpec(z9, (), (7,)),
        SignMap.trivial(z9, 4), SignMap.trivial(z9, 4),
        QuadraticForm.zero(z9), CosetConstantMap.zero(z9), sup)
    f, g = synth_table(form, FullGroup())
    assert check_kb(f, g).holds
    zero_count = sum(1 for v in f.values.values() if v.zero)
    assert zero_count == 6  # everything off the support vanishes


def test_points_domain_not_accepted_from_json():
    with pytest.raises(GroupParseError):
        domain_from_json({"type": "points", "points": [[0]]})


def test_hermitian_decompose_float_tables():
    # imported tables carry floating complex values; recovery is tolerant
    rng = Random(13)
    group = GroupSpec(0, (4,))
    form = random_hermitian_form(group, rng)
    f, g = synth_table(form, FullGroup())
    ff = FuncTable(group, FullGroup(), "complex",
                   {p: v.to_complex() for p, v in f.values.items()})
    gf = FuncTable(group, FullGroup(), "complex",
                   {p: v.to_complex() for p, v in g.values.items()})
    back = decompose_hermitian(ff, gf, tol=1e-9)
    for x in f.points():
        want = f.values[x].to_complex()
        got = back.exact_pair(x)[0].to_complex()
        assert abs(want - got) < 1e-6


def test_positive_decompose_float_tables():
    import math
    group = GroupSpec(1)
    form = random_positive_form(group, Random(3), magnitude=2)
    f, g = synth_table(form, Box((4,)))
    ff = FuncTable(group, f.domain, "positive",
                   {p: float(v) for p, v in f.values.items()})
    gf = FuncTable(group, g.domain, "positive",
                   {p: float(v) for p, v in g.values.items()})
    back = decompose_positive(ff, gf, tol=1e-9)
    for x in f.points():
        exact_logs = form.log_pair(x)
        got_logs = back.log_pair(x)
        assert float(got_logs[0]) == pytest.approx(float(exact_logs[0]), abs=1e-6)
        assert float(got_logs[1]) == pytest.approx(float(exact_logs[1]), abs=1e-6)
