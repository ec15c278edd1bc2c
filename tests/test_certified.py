"""Certify-then-explain decompositions and checks against sweep-first references.

``check_kb`` and the decompositions in ``kbeq.decompose`` certify, then
explain, through one routine, ``kbeq.checks._certified``: on exact tables
the equation sweeps run only when the certificate fails, and on float
tables they run first; the references in ``reference_decompose`` always
sweep first.  On a corpus of clean and corrupted tables, exact and float,
over windows and whole groups, both must agree on the result or on the
error's type, message, witness and report.  The corpus must reach every
outcome the rule distinguishes, and every exact success must satisfy the
equation it certifies.  Each entry point calls the routine once, a failing
pair is split once, and a failing float sweep runs no decomposition body.

``check_kb``'s certificate is the sweep-free split of a positive pair; its
reports must equal the forced sweep's, witness included, on clean and
corrupted pairs.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import numpy as np
import pytest

import reference_decompose as ref
from kbeq import _split, _vec, checks, cli
from kbeq import decompose as dec
from kbeq.checks import (
    DEFAULT_TOL,
    check_character,
    check_coset_constant,
    check_eq5,
    check_hermitian,
    check_kb,
    check_kb_self,
    check_polynomial,
)
from kbeq.decompose import (
    _complexified,
    decompose_T,
    decompose_hermitian,
    decompose_positive,
    decompose_self,
    decompose_vanishing,
    recover_deg2,
)
from kbeq.errors import BudgetExceededError, EquationFailsError, KbeqError
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
    synth_table,
)
from kbeq.groups import Box, FullGroup, GroupSpec, SubgroupSpec
from kbeq.oracle import (
    builtin_odd_quadratic,
    enum_sign_solutions,
    predicted_restricted_count,
    random_hermitian_form,
    random_positive_form,
    scan_restricted_kb,
    verify_theorem_suite,
)

# (name, library function, sweep-first reference, the sweep it certifies)
FUNCS = {
    "deg2": (recover_deg2, ref.sweep_first_recover_deg2,
             lambda t, tol: check_polynomial(t, 2, tol)),
    "T": (decompose_T, ref.sweep_first_decompose_T, checks._eq5_sweep),
    "positive": (decompose_positive, ref.sweep_first_decompose_positive, check_kb),
    "hermitian": (decompose_hermitian, ref.sweep_first_decompose_hermitian,
                  lambda f, g, tol: check_kb(_complexified(f), _complexified(g), tol)),
    "self": (decompose_self, ref.sweep_first_decompose_self,
             lambda f, tol: check_kb_self(_complexified(f), tol)),
    "vanishing": (decompose_vanishing, ref.sweep_first_decompose_vanishing, check_kb),
}

ZZ4 = GroupSpec(1, (4,))
Z42 = GroupSpec(0, (4, 2))
Z9 = GroupSpec(0, (9,))


def _replaced(table, changes):
    vals = dict(table.values)
    for coords, fn in changes.items():
        x = table.group.element(coords)
        vals[x] = fn(vals[x])
    return FuncTable(table.group, table.domain, table.kind, vals)


def _map(table, fn, kind=None):
    return FuncTable(table.group, table.domain, kind or table.kind,
                     {p: fn(v) for p, v in table.values.items()})


def _negated_at(table, coords):
    """``table`` negated at ``x`` and ``-x``: a Hermitian table stays Hermitian."""
    x = table.group.element(coords)
    minus = Exact.from_sign(-1)
    return _replaced(table, {c: (lambda v: v * minus)
                             for c in {x.coords, (-x).coords}})


def _float_complex(table):
    return _map(table, lambda v: 0 if v.zero else v.to_complex())


def _real_cases():
    """Real tables: degree-2 polynomials and positive log tables."""
    poly = FuncTable.from_function(
        ZZ4, Box((4,)), "real",
        lambda p: Fraction(3, 2) * p.coords[0] ** 2 - Fraction(p.coords[0], 3)
        + Fraction(5, 7))
    cubic = FuncTable.from_function(ZZ4, Box((4,)), "real",
                                   lambda p: Fraction(p.coords[0] ** 3, 5))
    tiny = FuncTable.from_function(ZZ4, Box((1,)), "real",
                                   lambda p: Fraction(p.coords[0] ** 2))
    const = FuncTable.from_function(Z42, FullGroup(), "real", lambda p: Fraction(2, 3))
    bump = {(2, 1): lambda v: v + Fraction(1, 3)}
    for name, t in (("poly", poly), ("poly-bad", _replaced(poly, bump)),
                    ("cubic", cubic), ("tiny", tiny), ("const", const)):
        yield "deg2", name, (t,)
    logs = synth_table(random_positive_form(ZZ4, Random(3)), Box((4,)))[0].as_real_log()
    small = synth_table(random_positive_form(ZZ4, Random(3)), Box((3,)))[0].as_real_log()
    full = synth_table(random_positive_form(Z42, Random(4)), FullGroup())[0].as_real_log()
    for name, t in (("log", logs), ("log-bad", _replaced(logs, bump)),
                    ("cubic", cubic), ("small", small), ("full", full),
                    ("full-bad", _replaced(full, {(1, 1): lambda v: v + 1}))):
        yield "T", name, (t,)


def _positive_cases():
    for gname, group, domain in (("box", ZZ4, Box((4,))), ("full", Z42, FullGroup()),
                                 ("small", ZZ4, Box((3,)))):
        f, g = synth_table(random_positive_form(group, Random(7)), domain)
        bump = {(1, 1): lambda v: v + Fraction(1, 5)}
        yield "positive", f"{gname}", (f, g)
        yield "positive", f"{gname}-fbad", (_replaced(f, bump), g)
        yield "positive", f"{gname}-gbad", (f, _replaced(g, bump))
    # one form on two windows: each table decomposes, but they are no pair
    form = random_positive_form(ZZ4, Random(7))
    yield "positive", "two-windows", (synth_table(form, Box((4,)))[0],
                                      synth_table(form, Box((5,)))[1])


def _hermitian_cases():
    minus = Exact.from_sign(-1)
    for gname, group, domain, x in (("box", ZZ4, Box((4,)), (1, 3)),
                                    ("full", Z42, FullGroup(), (1, 1)),
                                    ("small", ZZ4, Box((3,)), (1, 3))):
        f, g = synth_table(random_hermitian_form(group, Random(5)), domain)
        skew = _replaced(f, {x: lambda v: v * Exact.unit(Fraction(1, 8))})
        yield "hermitian", gname, (f, g)
        yield "hermitian", f"{gname}-neg-at-x", (_negated_at(f, x), g)
        yield "hermitian", f"{gname}-global-neg", (_map(f, lambda v: v * minus),
                                                  _map(g, lambda v: v * minus))
        yield "hermitian", f"{gname}-skew", (skew, g)
    # a positive pair read as a Hermitian one: its moduli have additive parts
    f, g = synth_table(random_positive_form(ZZ4, Random(2)), Box((4,)))
    yield "hermitian", "positive-with-l", (f, g)


def _self_cases():
    minus = Exact.from_sign(-1)
    odd = _complexified(builtin_odd_quadratic(4))
    chi = FuncTable.from_function(
        GroupSpec(0, (5,)), FullGroup(), "complex",
        lambda p: ref.character_value(CharacterSpec(p.group, (), (3,)), p))
    quad = _complexified(FuncTable.from_function(
        GroupSpec(1), Box((4,)), "positive", lambda p: Fraction(p.coords[0] ** 2, 3)))
    for name, f in (("odd-quadratic", odd), ("character", chi), ("quadratic", quad)):
        yield "self", name, (f,)
        yield "self", f"{name}-neg-at-x", (_negated_at(f, f.points()[1].coords),)
        yield "self", f"{name}-global-neg", (_map(f, lambda v: v * minus),)


def _vanishing_form(support, group=Z9, alpha=(2,), beta=(7,)):
    return HermitianSolutionForm(
        CharacterSpec(group, (), alpha), CharacterSpec(group, (), beta),
        SignMap.trivial(group, 4), SignMap.trivial(group, 4),
        QuadraticForm.zero(group), CosetConstantMap.zero(group),
        SubgroupSpec(group, tuple(map(group.element, support))))


# (name, group, support generators, exponents of alpha and beta)
VANISHING_SUPPORTS = (
    ("z27x27", GroupSpec(0, (27, 27)), ((3, 0), (0, 9)), (5, 11), (22, 16)),
    ("z5x5x5", GroupSpec(0, (5, 5, 5)), ((1, 0, 0), (0, 1, 0)), (1, 2, 3), (4, 3, 2)),
    ("z15", GroupSpec(0, (15,)), ((5,),), (4,), (13,)),
    ("z3x3-trivial", GroupSpec(0, (3, 3)), (), (1, 2), (2, 2)),
)


def _vanishing_faults(f, g):
    """(name, f, g): the pair, and copies with one fault at the first nonzero
    support point ``x`` (and at ``-x``, so that both stay Hermitian) or at
    the first point ``y`` off the support."""
    group = f.group
    support = [p for p, v in f.values.items() if not v.zero]
    yield "clean", f, g
    yield "moduli", *(_map(t, lambda v: v * Exact(log_abs=c))
                      for t, c in ((f, Fraction(1, 2)), (g, Fraction(-1, 2))))
    y = next(p for p in f.points() if p not in support)
    off = {c: (lambda v: Exact.one()) for c in {y.coords, (-y).coords}}
    yield "grown-support", _replaced(f, off), _replaced(g, off)
    x = next((p for p in support if not p.is_zero()), None)
    if x is None:
        return
    at = {x.coords, (-x).coords}
    yield "supports-differ", f, _replaced(g, {c: lambda v: Exact.zero_value() for c in at})
    scaled = {c: lambda v: v * Exact(log_abs=Fraction(1, 3)) for c in at}
    yield "modulus-at-x", _replaced(f, scaled), _replaced(g, scaled)
    turn = Fraction(1, math.lcm(*group.torsion))
    yield "phase-at-x", _replaced(f, {x.coords: lambda v: v * Exact.unit(turn),
                                      (-x).coords: lambda v: v * Exact.unit(-turn)}), g


def _vanishing_cases():
    f, g = synth_table(_vanishing_form(((3,),)), FullGroup())
    whole, _ = synth_table(_vanishing_form(((1,),)), FullGroup())
    double = Exact(log_abs=Fraction(1))
    yield "vanishing", "z9", (f, g)
    yield "vanishing", "z9-neg-at-x", (_negated_at(f, (3,)), g)
    yield "vanishing", "z9-moduli", (f, _replaced(g, {(3,): lambda v: v * double,
                                                      (6,): lambda v: v * double}))
    yield "vanishing", "z9-not-subgroup", (whole, _replaced(
        whole, {(1,): lambda v: Exact.zero_value(), (8,): lambda v: Exact.zero_value()}))
    one = FuncTable.from_function(GroupSpec(0, (4,)), FullGroup(), "complex",
                                  lambda p: Exact.one())
    yield "vanishing", "even-order", (one, one)
    for name, group, support, alpha, beta in VANISHING_SUPPORTS:
        pair = synth_table(_vanishing_form(support, group, alpha, beta), FullGroup())
        for fault, *args in _vanishing_faults(*pair):
            yield "vanishing", f"{name}-{fault}", tuple(args)


def _floated(func, args):
    if func in ("deg2", "T", "positive"):
        return tuple(_map(t, float) for t in args)
    return tuple(_float_complex(_complexified(t)) for t in args)


def _corpus():
    for func, name, args in (*_real_cases(), *_positive_cases(), *_hermitian_cases(),
                             *_self_cases(), *_vanishing_cases()):
        yield f"{func}-{name}", func, args, True
        yield f"{func}-{name}-float", func, _floated(func, args), False
        if func == "vanishing":  # f exact, g float
            yield f"{func}-{name}-mixed", func, (args[0], _floated(func, args)[1]), False


CORPUS = list(_corpus())


def _outcome(fn, args):
    try:
        result = fn(*args, DEFAULT_TOL)
    except KbeqError as exc:
        report = getattr(exc, "report", None)
        return (type(exc).__name__, str(exc), getattr(exc, "witness", None),
                report.to_json() if report is not None else None)
    return ("ok", result.to_json() if hasattr(result, "to_json") else result)


@pytest.mark.parametrize("case", CORPUS, ids=[c[0] for c in CORPUS])
def test_decomposition_matches_sweep_first_reference(case):
    name, func, args, exact = case
    lib, reference, sweep = FUNCS[func]
    got = _outcome(lib, args)
    assert got == _outcome(reference, args)
    if exact and got[0] == "ok":  # soundness: a certified form solves the equation
        assert sweep(*args, DEFAULT_TOL).holds


VANISHING_CASES = [case for case in CORPUS if case[1] == "vanishing"]


def _equation_holds(f, g, tol):
    return checks.CheckReport(True, 0, None, 1.0)


@pytest.mark.parametrize("case", VANISHING_CASES, ids=[c[0] for c in VANISHING_CASES])
def test_vanishing_body_matches_point_loops(case, monkeypatch):
    # the recovery alone: with the equation taken to hold, a fault reaches
    # the check that names it, in the library and in the point loops alike
    monkeypatch.setattr(dec, "_kb_sweep", _equation_holds)
    monkeypatch.setattr(ref, "check_kb", _equation_holds)
    _, _, args, _ = case
    assert (_outcome(decompose_vanishing, args)
            == _outcome(ref.sweep_first_decompose_vanishing, args))


def test_vanishing_cases_reach_every_check(monkeypatch):
    monkeypatch.setattr(dec, "_kb_sweep", _equation_holds)
    outcomes = {name: _outcome(decompose_vanishing, args)
                for name, _, args, _ in VANISHING_CASES}
    assert {"|f| != |g| (supports differ)", "|f| != |g|", "support is not a subgroup",
            "modulus is not 1 on the support",
            "restricted phase does not agree with any character of the group"} <= {
        o[1] for o in outcomes.values() if o[0] != "ok"}
    # every clean pair decomposes: exact, float and mixed
    for name, *_ in VANISHING_SUPPORTS:
        for suffix in ("", "-float", "-mixed"):
            assert outcomes[f"vanishing-{name}-clean{suffix}"][0] == "ok"


SWEEP_MESSAGES = {
    "deg2": "table is not a polynomial of degree <= 2",
    "T": "triple-difference equation fails",
    "positive": "the functional equation fails",
    "hermitian": "the functional equation fails",
    "self": "the one-function equation fails",
    "vanishing": "the functional equation fails",
}


def test_corpus_reaches_every_outcome():
    outcomes = {name: _outcome(FUNCS[func][0], args)
                for name, func, args, exact in CORPUS if exact}
    kinds = {o[0] for o in outcomes.values()}
    assert {"ok", "EquationFailsError", "DecompositionError", "DomainSizeError",
            "IncompatibleTablesError", "GroupHypothesisError"} <= kinds
    # every sweep kind fails somewhere: check_polynomial, check_eq5, check_kb
    # (two-function) and check_kb_self
    messages = {o[1] for o in outcomes.values() if o[0] == "EquationFailsError"}
    assert set(SWEEP_MESSAGES.values()) <= messages
    # a decomposition failing on a pair whose equation holds (f(0) = -1)
    holds_but_fails = [
        name for name, func, args, exact in CORPUS
        if exact and outcomes[name][0] == "DecompositionError"
        and FUNCS[func][2](*args, DEFAULT_TOL).holds
    ]
    assert any("global-neg" in name for name in holds_but_fails)
    # every function has an exact success
    assert {func for name, func, _, exact in CORPUS
            if exact and outcomes[name][0] == "ok"} == set(FUNCS)


# ---------------------------------------------------------------------------
# one tolerant comparison: every float decision is kbeq._vec.apart


def _apart_routes():
    """Route name -> (route, genuine float arguments): every route that
    decides anything on float values, each on an input it accepts."""
    float_case = {name.removesuffix("-float"): args for name, _, args, _ in CORPUS
                  if name.endswith("-float")}
    # the real sign character (-1)^x solves the equation as its own pair
    sign = FuncTable.from_function(ZZ4, Box((4,)), "real",
                                   lambda p: float((-1) ** p.coords[0]))
    # constant on the cosets of X^(2) in Z/4, two points each
    parity = FuncTable.from_function(GroupSpec(0, (4,)), FullGroup(), "real",
                                     lambda p: 1.0 + p.coords[0] % 2)
    positive, hermitian = float_case["positive-box"], float_case["hermitian-box"]
    return {
        "check_kb-real": (check_kb, (sign, sign)),
        "check_kb-positive": (check_kb, positive),
        "check_kb-complex": (check_kb, hermitian),
        "check_character": (check_character, float_case["self-character"]),
        "check_hermitian": (check_hermitian, hermitian[:1]),
        "check_coset_constant": (lambda t, tol: check_coset_constant(t, 2, tol), (parity,)),
        "recover_deg2": (recover_deg2, float_case["deg2-poly"]),
        "decompose_T": (decompose_T, float_case["T-log"]),
        "decompose_positive": (decompose_positive, positive),
        "decompose_hermitian": (decompose_hermitian, hermitian),
        "decompose_self": (decompose_self, float_case["self-odd-quadratic"]),
        "decompose_vanishing": (decompose_vanishing, float_case["vanishing-z9"]),
    }


APART_ROUTES = _apart_routes()


def _passes(route, args) -> bool:
    try:
        result = route(*args, DEFAULT_TOL)
    except KbeqError:
        return False
    return getattr(result, "holds", True)


def _bumped(table):
    """``table`` with 1e-3 added at its first nonzero value off the origin."""
    x = next(p for p, v in table.values.items() if v != 0 and not p.is_zero())
    return _replaced(table, {x.coords: lambda v: v + 1e-3})


@pytest.mark.parametrize("name", sorted(APART_ROUTES))
def test_every_float_decision_goes_through_apart(name, monkeypatch):
    route, args = APART_ROUTES[name]
    bumped = (_bumped(args[0]), *args[1:])
    assert _passes(route, args) and not _passes(route, bumped)

    def apart(value):
        return lambda a, b, tol, out=None: np.full(np.broadcast(a, b).shape, value)

    # nothing apart: no route keeps a tolerance test of its own
    monkeypatch.setattr(_vec, "apart", apart(False))
    assert _passes(route, bumped)
    # everything apart: each route compares something
    monkeypatch.setattr(_vec, "apart", apart(True))
    assert not _passes(route, args)


def test_positive_beyond_the_pair_guard_returns_the_seed_form():
    # 31 * 31 * 12 points, 33 315 984 in-range pairs: more than the sweep takes
    group = GroupSpec(2, (4, 3))
    domain = Box((15, 15))
    assert _vec._PAIR_GUARD < 33_315_984
    form = random_positive_form(group, Random(1))
    f, g = synth_table(form, domain)
    assert decompose_positive(f, g).to_json() == form.to_json()
    # the certificate counts the pairs without sweeping them
    rep = check_kb(f, g)
    assert rep.holds and rep.pairs_checked == 33_315_984
    assert rep.coverage == 33_315_984 / len(f.points()) ** 2
    # a corrupted copy needs the sweep, which the guard refuses
    bad = _replaced(f, {(3, 2, 1, 0): lambda v: v + 1})
    with pytest.raises(BudgetExceededError):
        check_kb(bad, g)
    with pytest.raises(BudgetExceededError):
        decompose_positive(bad, g)


# ---------------------------------------------------------------------------
# the Hermitian phase part on arrays against the point-by-point reference
#
# The library reads the phase part from the stored arrays and no longer
# sweeps the phase identities, which the character factorization implies;
# the sweep-first references keep the earlier point loops, identity sweeps
# included.  Clean pairs and one-function tables, and copies with one fault
# each, must give the same form or the same error.

PHASE_DOMAINS = (("box4", ZZ4, Box((4,)), 8), ("box5", GroupSpec(2), Box((5, 5)), 1),
                 ("box6", GroupSpec(1, (2,)), Box((6,)), 2),
                 ("full", GroupSpec(0, (4, 4)), FullGroup(), 3))


def _times(table, factors):
    """``table`` times ``factors[x]`` at each listed point ``x``."""
    vals = dict(table.values)
    for x, u in factors.items():
        vals[x] = vals[x] * u
    return FuncTable(table.group, table.domain, table.kind, vals)


def _phase_faults(f):
    """(name, table): ``f`` and copies with one fault; a factor at ``x`` is
    mirrored by its conjugate at ``-x`` unless ``mirror`` is off."""
    group = f.group
    minus = Exact.from_sign(-1)

    def at(coords, u, mirror=True):
        x = group.element(coords)
        return {x: u, **({-x: u.conj()} if mirror and -x != x else {})}

    yield "clean", f
    yield "phase-at-double", _times(f, at((2, 2), Exact.unit(Fraction(1, 3))))
    yield "phase-at-3-1", _times(f, at((3, 1), Exact.unit(Fraction(1, 4))))
    yield "flipped-sign", _times(f, at((1, 1), minus))
    yield "non-even-sign", _times(f, at((1, 1), minus, mirror=False))
    yield "sign-equation", _times(f, {x: minus for x in f.points()
                                      if group.coset_index(x, 2).residues == (1, 0)})
    yield "zero", _times(f, at((1, 1), Exact.zero_value()))


def _phase_cases():
    for dname, group, domain, seed in PHASE_DOMAINS:
        form = random_hermitian_form(group, Random(seed))
        # unimodular tables, so that float copies keep the tolerance meaningful
        unit = dataclasses.replace(form, P=QuadraticForm.zero(group),
                                   r=CosetConstantMap.zero(group))
        f, g = synth_table(unit, domain)
        (s, _) = synth_table(dataclasses.replace(unit, beta=unit.alpha), domain)  # f = g
        yield f"{dname}-with-moduli", "hermitian", synth_table(form, domain)
        for fault, bad in _phase_faults(f):
            yield f"{dname}-pair-{fault}", "hermitian", (bad, g)
        for fault, bad in _phase_faults(s):
            yield f"{dname}-self-{fault}", "self", (bad,)
    # character turns whose common denominator passes int64
    group = GroupSpec(2)
    chi = CharacterSpec(group, (Fraction(1, 2**40 - 87), Fraction(3, 2**40 - 167)), ())
    trivial = SignMap.trivial(group, 4)
    big = HermitianSolutionForm(chi, chi, trivial, trivial, QuadraticForm.zero(group),
                                CosetConstantMap.zero(group))
    f, _ = synth_table(big, Box((4, 4)))
    yield "big-turns-pair", "hermitian", (f, f)
    yield "big-turns-self", "self", (f,)


PHASE_CASES = [(f"{name}{suffix}", func, args if exact else _floated(func, args), exact)
               for name, func, args in _phase_cases()
               for suffix, exact in (("", True), ("-float", False))]


@pytest.mark.parametrize("case", PHASE_CASES, ids=[c[0] for c in PHASE_CASES])
def test_phase_part_matches_point_reference(case):
    name, func, args, _ = case
    lib, reference, _ = FUNCS[func]
    assert _outcome(lib, args) == _outcome(reference, args)


@pytest.mark.parametrize("case", PHASE_CASES, ids=[c[0] for c in PHASE_CASES])
def test_phase_helpers_match_point_loops(case):
    # the phase part alone, without the equation sweeps that precede it in
    # the decompositions and without the reference's phase-identity sweeps
    _, _, (f, *_), _ = case
    f = _complexified(f)
    assert (_outcome(lambda t, tol: dec._hermitian_phase_part(t, tol, "f"), (f,))
            == _outcome(lambda t, tol: ref.hermitian_phase_part(t, tol, "f", sweep=False),
                        (f,)))


def test_phase_cases_reach_every_outcome():
    outcomes = {name: _outcome(FUNCS[func][0], args)
                for name, func, args, exact in PHASE_CASES}
    # every clean exact table decomposes, on a window and on the whole group
    assert all(outcomes[name][0] == "ok" for name, *_ in PHASE_CASES
               if name.endswith("-clean") or name.endswith("-with-moduli"))
    messages = {o[1] for o in outcomes.values() if o[0] != "ok"}
    assert {"f is not Hermitian", "the functional equation fails",
            "the one-function equation fails",
            "f vanishes; this route needs non-vanishing tables"} <= messages
    # float copies of unimodular solutions decompose too
    assert any(o[0] == "ok" for name, o in outcomes.items() if name.endswith("-float"))
    # the phase part alone meets each of its own errors
    alone = [_outcome(lambda t, tol: dec._hermitian_phase_part(t, tol, "f"),
                      (_complexified(args[0]),)) for _, _, args, _ in PHASE_CASES]
    assert {"phase part is not multiplicative on the doubled subgroup",
            "ratio to the extended character is not +-1",
            "f-sign part is not even"} <= {o[1] for o in alone if o[0] != "ok"}


def _refuse_exact(self):
    raise AssertionError("an Exact value was built")


def _pair_block_counter(monkeypatch) -> list:
    """A one-item list counting pair sweeps: each streams one
    ``pair_blocks`` generator."""
    count = [0]
    blocks = _vec.pair_blocks

    def counting(*args, **kwargs):
        count[0] += 1
        return blocks(*args, **kwargs)

    monkeypatch.setattr(_vec, "pair_blocks", counting)
    return count


def test_hermitian_route_builds_no_exact_and_sweeps_once(monkeypatch):
    # Exact serves JSON, witnesses and the tests only: synthesis, the checks,
    # every decomposition, both censuses and the suite succeed on exact
    # input with Exact construction made to fail
    group = GroupSpec(2, (4, 3))
    form = random_hermitian_form(group, Random(1))
    self_form = dataclasses.replace(form, beta=form.alpha, r=CosetConstantMap.zero(group))
    vform = _vanishing_form(((1, 3),), GroupSpec(0, (3, 9)), (1, 2), (2, 7))
    pos = synth_table(random_positive_form(group, Random(2)), Box((4, 4)))
    monkeypatch.setattr(Exact, "__post_init__", _refuse_exact)
    with pytest.raises(AssertionError):
        Exact.one()
    f, g = synth_table(form, Box((5, 5)))
    one, _ = synth_table(self_form, Box((5, 5)))
    vf, vg = synth_table(vform, FullGroup())
    assert all(check_kb(*pair).holds for pair in ((f, g), (vf, vg), pos))
    sweeps = _pair_block_counter(monkeypatch)
    back = decompose_hermitian(f, g)
    assert sweeps[0] == 1  # the sign equation alone
    sweeps = _pair_block_counter(monkeypatch)
    alpha, a, P = decompose_self(one)
    assert sweeps[0] == 1
    assert decompose_positive(*pos) == random_positive_form(group, Random(2))
    vback = decompose_vanishing(vf, vg)
    assert enum_sign_solutions(GroupSpec(0, (4, 4))).count == 64
    assert scan_restricted_kb(GroupSpec(0, (2, 2))) == predicted_restricted_count(
        GroupSpec(0, (2, 2)), (-1, 0, 1))
    assert verify_theorem_suite(("Z/3", "Z/2 x Z/2", "Z/9", "Z x Z/4"),
                                trials=2, seed=1, strict=True).ok
    monkeypatch.undo()
    assert all(ref.exact_pair(back, x) == (f.values[x], g.values[x]) for x in f.points())
    assert all(one.values[x] == Exact(ref.quadratic_value(P, x), ref.character_turn(alpha, x))
               * Exact.from_sign(ref.coset_value(a, x)) for x in one.points())
    assert synth_table(vback, FullGroup()) == (vf, vg)


def test_pair_decompositions_sample_no_triples(monkeypatch):
    # one split per positive pair: only check_eq5 and decompose_T sweep
    # triples, so every pair route answers without a triple sweep, on exact
    # and float corpus pairs, failing or not
    def refuse(*args, **kwargs):
        raise AssertionError("a pair decomposition swept triples")

    for module in (checks, dec):
        monkeypatch.setattr(module, "_eq5_sweep", refuse)
    cases = [case for case in CORPUS + PHASE_CASES
             if case[1] in ("positive", "hermitian", "self")]
    outcomes = [_outcome(FUNCS[func][0], args) for _, func, args, _ in cases]
    assert {"ok", "EquationFailsError", "DecompositionError"} <= {o[0] for o in outcomes}
    # a radius-10 window with one log altered: the split fails, the sweep explains
    group = GroupSpec(2, (4, 3))
    f, g = synth_table(random_positive_form(group, Random(1)), Box((10, 10)))
    bad = _replaced(f, {(3, -2, 1, 0): lambda v: v + 1})
    with pytest.raises(EquationFailsError, match="the functional equation fails"):
        decompose_positive(bad, g)


def test_float_hermitian_certifies_once(monkeypatch):
    # the moduli are split inside decompose_hermitian's own certification,
    # not by a nested decompose_positive with a second equation sweep
    calls = []
    real = dec._kb_sweep
    monkeypatch.setattr(dec, "_kb_sweep", lambda *args: calls.append(args) or real(*args))
    sweeps = _pair_block_counter(monkeypatch)
    f, g = _floated("hermitian", synth_table(random_hermitian_form(ZZ4, Random(5)),
                                             Box((4,))))
    decompose_hermitian(f, g)
    assert len(calls) == 1
    assert sweeps[0] == 2  # the equation and the sign equation


# ---------------------------------------------------------------------------
# one certification routine for check_kb and every decomposition

CORPUS_ARGS = {name: args for name, _, args, _ in CORPUS}
# entry point -> (function, a clean and a failing corpus case)
ROUTINE_ENTRIES = {
    "check_kb": (check_kb, ("positive-box", "positive-box-fbad")),
    "check_kb_self": (check_kb_self, ("self-quadratic", "self-quadratic-neg-at-x")),
    "check_eq5": (check_eq5, ("T-log", "T-log-bad")),
    "recover_deg2": (recover_deg2, ("deg2-poly", "deg2-poly-bad")),
    "decompose_T": (decompose_T, ("T-log", "T-log-bad")),
    "decompose_positive": (decompose_positive, ("positive-box", "positive-box-fbad")),
    "decompose_hermitian": (decompose_hermitian,
                            ("hermitian-box", "hermitian-box-neg-at-x")),
    "decompose_self": (decompose_self, ("self-quadratic", "self-quadratic-neg-at-x")),
    "decompose_vanishing": (decompose_vanishing, ("vanishing-z9", "vanishing-z9-neg-at-x")),
}
ROUTINE_CASES = [(entry, name + suffix, clean)
                 for entry, (_, names) in ROUTINE_ENTRIES.items()
                 for name, clean in zip(names, (True, False))
                 for suffix in ("", "-float")]


def _routine_outcomes(monkeypatch) -> list:
    """The outcome of every call of ``checks._certified`` from now on, by
    ``check_kb`` or by a decomposition."""
    outcomes = []
    real = checks._certified

    def spy(*args):
        outcomes.append(real(*args))
        return outcomes[-1]

    monkeypatch.setattr(checks, "_certified", spy)
    monkeypatch.setattr(dec, "_certified", spy)
    return outcomes


@pytest.mark.parametrize("entry,name,clean", ROUTINE_CASES,
                         ids=[f"{entry}-{name}" for entry, name, _ in ROUTINE_CASES])
def test_each_entry_point_calls_the_routine_once(entry, name, clean, monkeypatch):
    fn, _ = ROUTINE_ENTRIES[entry]
    outcomes = _routine_outcomes(monkeypatch)
    got = _outcome(fn, CORPUS_ARGS[name])
    assert len(outcomes) == 1
    # not vacuous: the clean case holds or decomposes, the failing one not
    holds = got[0] == "ok" and (not entry.startswith("check") or got[1]["holds"])
    assert holds == clean


def test_failing_positive_decomposition_splits_once(monkeypatch):
    # Z^2 x Z/4 x Z/3 at radius 6 with one log altered: the split of the
    # altered table fails once, and one sweep explains the failure
    group = GroupSpec(2, (4, 3))
    f, g = synth_table(random_positive_form(group, Random(1)), Box((6, 6)))
    bad = _replaced(f, {(3, -2, 1, 0): lambda v: v + 1})
    splits = []
    split_parts = _split._split_parts
    monkeypatch.setattr(_split, "_split_parts",
                        lambda t, tol: splits.append(t) or split_parts(t, tol))
    count = _form_values_counter(monkeypatch)
    sweeps = _pair_block_counter(monkeypatch)
    with pytest.raises(EquationFailsError, match="the functional equation fails"):
        decompose_positive(bad, g)
    assert len(splits) == 1 and splits[0] is bad
    assert count[0] == 2  # the residual, then the odd part that explains it
    assert sweeps[0] == 1


def test_failing_float_sweep_runs_no_body(monkeypatch):
    # float tables are swept first: a pair the sweep refuses reaches neither
    # the split nor the phase part, nor any other decomposition body
    failing = [(func, args, got) for _, func, args, exact in CORPUS if not exact
               for got in [_outcome(FUNCS[func][0], args)]
               if got[:2] == ("EquationFailsError", SWEEP_MESSAGES[func])]
    assert {func for func, *_ in failing} == set(FUNCS)

    def refuse(*args, **kwargs):
        raise AssertionError("a decomposition body ran after a failing float sweep")

    for module in (_split, dec):
        monkeypatch.setattr(module, "_split_parts", refuse)
    monkeypatch.setattr(dec, "_hermitian_phase_part", refuse)
    bodies = []
    real = checks._certified
    monkeypatch.setattr(dec, "_certified", lambda tables, body, sweep: real(
        tables, lambda: bodies.append(body) or body(), sweep))
    for func, args, got in failing:
        assert _outcome(FUNCS[func][0], args) == got
    assert bodies == []


# ---------------------------------------------------------------------------
# check_kb: certified against swept reports

SRC = Path(__file__).resolve().parent.parent / "src"
BIG = 2**61 - 1  # a prime: log numerators beyond int64
KB_DOMAINS = (
    ("box3", ZZ4, Box((3,))),  # below the split's radius: always swept
    ("box4", ZZ4, Box((4,))),
    ("box6", GroupSpec(2, (3,)), Box((6, 6))),
    ("full", Z42, FullGroup()),
    ("full-odd", Z9, FullGroup()),
)


def _with(form, **parts):
    """``form`` with some of its parts replaced."""
    return PositiveSolutionForm(**{"P": form.P, "l": form.l, "m": form.m,
                                   "r": form.r, **parts})


def _big(form):
    """``form`` scaled by ``BIG / 7``: every log numerator beyond int64."""
    group = form.group
    return PositiveSolutionForm(
        QuadraticForm(group, tuple(tuple(v * BIG / 7 for v in row)
                                   for row in form.P.matrix)),
        *(AdditiveMap(group, tuple(v * BIG / 7 + 1 for v in a.coeffs))
          for a in (form.l, form.m)),
        CosetConstantMap(group, tuple((idx, v * BIG / 7 + 1)
                                      for idx, v in form.r.entries)))


def _corruptions(table, rng):
    """(name, table) for one point off zero, one point at zero, an odd bump
    that is not additive and an even bump that only the residual sees."""
    group, bump = table.group, Fraction(1, 5)
    pts = table.points()
    x = rng.choice(pts[1:])
    yield "point", _replaced(table, {x.coords: lambda v: v + bump})
    yield "zero", _replaced(table, {group.zero().coords: lambda v: v + bump})
    y = rng.choice([p for p in pts if p != -p])
    yield "odd-bump", _replaced(table, {y.coords: lambda v: v + bump,
                                        (-y).coords: lambda v: v - bump})
    # off the points the split reads: the doubled probes and each coset's first
    read = {group.element(c) for c in _split._doubled_probes(group)}
    firsts: dict = {}
    for p in pts:
        firsts.setdefault(group.coset_index(p, 2), p)
    read |= set(firsts.values())
    z = [p for p in pts if p not in read and -p not in read][-1]
    yield "even-bump", _replaced(table, {z.coords: lambda v: v + bump,
                                         (-z).coords: lambda v: v + bump})


def _kb_cases():
    """(id, f, g, whether the pair is a solution of the equation)."""
    for dname, group, domain in KB_DOMAINS:
        for seed in range(2):
            rng = Random(seed)
            form = random_positive_form(group, rng)
            other = random_positive_form(group, rng)
            for fname, fm in (("int", form), ("big", _big(form))):
                f, g = synth_table(fm, domain)
                case = f"{dname}-{seed}-{fname}"
                yield case, f, g, True
                for cname, bad in _corruptions(f, rng):
                    yield f"{case}-{cname}", bad, g, False
            # equal P, r2 != -r1; then P1 != P2
            yield (f"{dname}-{seed}-r", synth_table(form, domain)[0],
                   synth_table(_with(form, r=other.r), domain)[1], False)
            if group.rank:
                yield (f"{dname}-{seed}-P", synth_table(form, domain)[0],
                       synth_table(_with(form, P=other.P), domain)[1], False)
            # one-function pairs: r = 0 and m = l
            self_form = _with(form, m=form.l, r=CosetConstantMap.zero(group))
            f, _ = synth_table(self_form, domain)
            yield f"{dname}-{seed}-self", f, f, True
            yield f"{dname}-{seed}-self-even-bump", *(
                [dict(_corruptions(f, rng))["even-bump"]] * 2), False


KB_CASES = list(_kb_cases())


def _kb_key(rep):
    return rep.to_json(), repr(rep.witness)


@pytest.mark.parametrize("case", KB_CASES, ids=[c[0] for c in KB_CASES])
def test_certified_check_kb_matches_the_sweep(case):
    name, f, g, solution = case
    want = checks._kb_sweep(f, g, DEFAULT_TOL)
    assert want.holds == solution
    assert _kb_key(check_kb(f, g)) == _kb_key(want)
    if f is g:
        assert _kb_key(check_kb_self(f)) == _kb_key(want)


def _kb_certified(f, g) -> bool:
    """Does ``check_kb``'s certificate answer with no sweep?  Read from the
    routine's outcome on the split and the pair sweep."""
    out = checks._certified((f, g), lambda: _split._split_positive(f, g, DEFAULT_TOL),
                            lambda: checks._kb_sweep(f, g, DEFAULT_TOL))
    return out.report is None and out.error is None


def test_check_kb_corpus_reaches_every_path():
    certified = {name for name, f, g, _ in KB_CASES if _kb_certified(f, g)}
    # every solution certifies unless the window is below the split's radius
    assert certified == {name for name, f, g, solution in KB_CASES
                         if solution and not name.startswith("box3")}
    # the fallback sweep both holds and fails; log numerators exceed int64
    assert {solution for name, *_, solution in KB_CASES
            if name.startswith("box3")} == {True, False}
    assert {f.encoding[1].dtype for _, f, _, _ in KB_CASES} == {
        np.dtype(np.int64), np.dtype(object)}


def test_certified_check_builds_no_pair_block(monkeypatch):
    group = GroupSpec(2, (4, 3))
    f, g = synth_table(random_positive_form(group, Random(1)), Box((14, 14)))

    def refuse(*args, **kwargs):
        raise AssertionError("a certified check must not sweep")

    monkeypatch.setattr(_vec, "pair_blocks", refuse)
    rep = check_kb(f, g)
    assert rep.holds and rep.pairs_checked == 25_522_704


@pytest.mark.parametrize("module", ["kbeq._split", "kbeq.checks", "kbeq.decompose",
                                    "kbeq._vec", "kbeq.oracle", "kbeq.cli"])
def test_each_module_imports_first(module):
    # a fresh interpreter importing this module before any other kbeq module
    res = subprocess.run([sys.executable, "-c", f"import {module}"],
                         capture_output=True, text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    assert res.returncode == 0, res.stderr


# ---------------------------------------------------------------------------
# the integer-array split: no Fraction on the certificate, no int64 wraparound


def _fraction_counter(monkeypatch) -> list:
    """A one-item list counting the Fractions built from now on: each
    ``Fraction.__new__`` call, and each ``Fraction._from_coprime_ints`` call
    where it exists (Python 3.12 builds arithmetic results through it)."""
    count = [0]
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    coprime = getattr(Fraction, "_from_coprime_ints", None)
    if coprime is not None:
        def counting_coprime(cls, numerator, denominator):
            count[0] += 1
            return coprime(numerator, denominator)

        monkeypatch.setattr(Fraction, "_from_coprime_ints",
                            classmethod(counting_coprime))
    return count


def test_certified_check_builds_no_fraction(monkeypatch):
    group = GroupSpec(2, (4, 3))
    f, g = synth_table(random_positive_form(group, Random(1)), Box((6, 6)))
    assert check_kb(f, g).holds  # warms the index caches
    count = _fraction_counter(monkeypatch)
    assert Fraction(1, 3) and count[0] == 1  # the counter sees construction
    assert _kb_certified(f, g)
    rep = check_kb(f, g)
    assert rep.holds and count[0] == 1


def test_certified_cli_check_builds_no_fraction_and_no_point_list(tmp_path, monkeypatch):
    # from the table files to the report: the JSON reader fills integer
    # arrays and the domain's coordinates are derived, not enumerated
    group = GroupSpec(2, (4, 3))
    paths = []
    for name, table in zip("fg", synth_table(random_positive_form(group, Random(2)),
                                             Box((7, 7)))):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(table.to_json()), encoding="utf-8")
    count = _fraction_counter(monkeypatch)
    listed = []
    points = Box.points
    monkeypatch.setattr(Box, "points", lambda box, g: listed.append(box) or points(box, g))
    out = tmp_path / "report.json"
    code = cli.main(["check", "-f", str(paths[0]), "-g", str(paths[1]), "--output", str(out)])
    report = json.loads(out.read_text(encoding="utf-8"))["report"]
    assert code == 0 and report["holds"] and report["pairs_checked"] > 0
    assert count[0] == 0 and listed == []
    assert Box((7, 7)).points(group) and listed == [Box((7, 7))]  # the counter sees calls


def test_positive_decomposition_builds_fractions_independent_of_the_window(monkeypatch):
    group = GroupSpec(2, (4, 3))
    form = random_positive_form(group, Random(1))
    pairs = [synth_table(form, Box((radius, radius))) for radius in (6, 12)]
    for f, g in pairs:
        decompose_positive(f, g)  # warms the index caches
    count = _fraction_counter(monkeypatch)
    built = []
    for f, g in pairs:
        before = count[0]
        assert decompose_positive(f, g).to_json() == form.to_json()
        built.append(count[0] - before)
    assert built == [0, 0]


@pytest.mark.parametrize("make,box", [
    (lambda: random_positive_form(GroupSpec(2, (4, 3)), Random(1)), Box((5, 7))),
    (lambda: _int64_edge_form(0), Box((4, 4))),  # logs beyond int64 in the model
], ids=["small", "int64-edge"])
def test_positive_round_trip_builds_no_fraction(monkeypatch, make, box):
    # the forms hold arrays: synthesis reads them, and the decomposition
    # slices the certified split's arrays, on cold index caches too
    form = make()
    want = form.to_json()
    count = _fraction_counter(monkeypatch)
    f, g = synth_table(form, box)
    assert check_kb(f, g).holds
    back = decompose_positive(f, g)
    assert back.to_json() == want and count[0] == 0
    assert back == form and hash(back) == hash(form)


INT64_EDGE = GroupSpec(2, (2,))


def _int64_edge_form(seed: int):
    """A positive form whose logs on ``Box((4, 4))`` have int64 numerators
    within 16 times of ``_vec._INT_LIMIT`` = 2^58."""
    group, rng = INT64_EDGE, Random(seed)
    s = 2**52 // 7
    P = QuadraticForm(group, ((Fraction(rng.randrange(s, 2 * s), 3),
                               Fraction(-s, 3), Fraction(0)),
                              (Fraction(-s, 3), Fraction(rng.randrange(s, 2 * s), 3),
                               Fraction(0)),
                              (Fraction(0),) * 3))
    l, m = (AdditiveMap(group, (Fraction(rng.randrange(-s, s), 3),
                                Fraction(rng.randrange(-s, s), 3))) for _ in range(2))
    r = CosetConstantMap(group, tuple((idx, Fraction(rng.randrange(-s, s), 3))
                                      for idx in group.coset_indices(2)))
    return PositiveSolutionForm(P, l, m, r)


@pytest.mark.parametrize("seed", range(3))
def test_split_near_the_int64_limit_matches_the_sweep(seed):
    form = _int64_edge_form(seed)
    f, g = synth_table(form, Box((4, 4)))
    info = _vec.domain_info(INT64_EDGE, Box((4, 4)))
    # not vacuous: int64 table numerators whose x16 rescale and whose
    # quadratic products leave int64
    for t in (f, g):
        nums = t.encoding[1]
        assert nums.dtype == np.int64
        assert int(np.abs(nums).max()) <= _vec._INT_LIMIT
        assert int(np.abs(nums).max()) * 16 > _vec._INT_LIMIT
        parts = _split._split_parts(t, DEFAULT_TOL)
        assert _vec.form_values(*parts, info)[0].dtype == object
    assert _kb_key(check_kb(f, g)) == _kb_key(checks._kb_sweep(f, g, DEFAULT_TOL))
    assert _kb_certified(f, g)
    assert decompose_positive(f, g).to_json() == form.to_json()
    bad = _replaced(f, {(1, 2, 1): lambda v: v + Fraction(1, 5)})
    want = checks._kb_sweep(bad, g, DEFAULT_TOL)
    assert not want.holds
    assert _kb_key(check_kb(bad, g)) == _kb_key(want)


# ---------------------------------------------------------------------------
# one split per exact table, kept on the table


def _form_values_counter(monkeypatch) -> list:
    """A one-item list counting full-window ``_vec.form_values`` calls from
    now on (synthesis and every split's residual make one each)."""
    count = [0]
    form_values = _vec.form_values

    def counting(*args):
        count[0] += 1
        return form_values(*args)

    monkeypatch.setattr(_vec, "form_values", counting)
    return count


def test_roundtrip_evaluates_the_window_four_times(monkeypatch):
    group, box = GroupSpec(2, (4, 3)), Box((6, 6))
    form = random_positive_form(group, Random(1))
    count = _form_values_counter(monkeypatch)
    f, g = synth_table(form, box)
    assert count[0] == 2 and f._parts is None and g._parts is None
    assert check_kb(f, g).holds and count[0] == 4  # one residual per table
    assert decompose_positive(f, g).to_json() == form.to_json()
    assert count[0] == 4  # the splits check_kb kept on f and g
    assert check_kb(f, g).holds and count[0] == 4
    # the kept parts are the ones a fresh split of an equal table computes
    for t in (f, g):
        fresh = FuncTable.from_json(t.to_json())
        assert fresh._parts is None
        for kept, again in zip(t._parts, _split._split_parts(fresh, DEFAULT_TOL)):
            assert np.array_equal(kept, again)


def test_check_kb_self_splits_once(monkeypatch):
    group = GroupSpec(2, (4, 3))
    form = random_positive_form(group, Random(3))
    self_form = _with(form, m=form.l, r=CosetConstantMap.zero(group))
    f, _ = synth_table(self_form, Box((5, 5)))
    count = _form_values_counter(monkeypatch)
    assert check_kb_self(f).holds
    assert count[0] == 1 and f._parts is not None


def test_float_self_decomposition_splits_once(monkeypatch):
    # a float split is not kept, so the pair (|f|, |f|) is split once, not twice
    (f,) = next(args for name, _, args, _ in CORPUS if name == "self-quadratic-float")
    count = _form_values_counter(monkeypatch)
    decompose_self(f)
    assert count[0] == 1


def test_new_tables_keep_no_split():
    group = GroupSpec(2, (4, 3))
    f, g = synth_table(random_positive_form(group, Random(4)), Box((4, 4)))
    assert check_kb(f, g).holds and f._parts is not None
    derived = [FuncTable.from_json(f.to_json()), f.as_real_log(), f.abs_log_table(),
               FuncTable._of(f.group, f.domain, f.kind, f.encoding)]
    assert all(t._parts is None for t in derived)
    # each splits on its own, to the same parts
    for t in derived:
        assert all(map(np.array_equal, _split._split_parts(t, DEFAULT_TOL), f._parts))


@pytest.mark.parametrize("coords,message", [
    ((1, 1, 0, 0), "odd part is not additive"),
    ((0, 0, 0, 0), "decomposition residual is nonzero"),
], ids=["odd", "residual"])
def test_failed_split_is_recomputed(monkeypatch, coords, message):
    group = GroupSpec(2, (4, 3))
    f, _ = synth_table(random_positive_form(group, Random(5)), Box((4, 4)))
    bad = _replaced(f, {coords: lambda v: v + Fraction(1, 5)})
    count = _form_values_counter(monkeypatch)
    errors = []
    for _ in range(2):
        with pytest.raises(KbeqError, match=message) as info:
            _split._split_parts(bad, DEFAULT_TOL)
        errors.append((type(info.value), str(info.value), info.value.witness))
        assert bad._parts is None
    # each call evaluates the residual and then, to explain it, the odd part
    assert errors[0] == errors[1] and count[0] == 4


def test_float_split_follows_its_tolerance():
    group = GroupSpec(2, (4, 3))
    f, _ = synth_table(random_positive_form(group, Random(6)), Box((4, 4)))
    off = {p: float(v) + (1e-6 if p.coords == (1, 2, 0, 0) else 0.0)
           for p, v in f.values.items()}
    t = FuncTable(group, f.domain, "real", off)
    want = decompose_T(f.as_real_log())
    for tol in (1e-3, 1e-12, 1e-3, 1e-12):
        if tol == 1e-3:  # the bumped point is not one the split reads
            assert _split._forms(group, _split._split_parts(t, tol)) == want
        else:
            with pytest.raises(KbeqError, match="odd part is not additive"):
                _split._split_parts(t, tol)
        assert t._parts is None
