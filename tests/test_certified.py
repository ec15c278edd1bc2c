"""Certify-then-explain decompositions and checks against sweep-first references.

On exact tables the decompositions in ``kbeq.decompose`` run the equation
sweeps only when the recovery fails; the references in
``reference_decompose`` always sweep first.  On a corpus of clean and
corrupted tables, exact and float, over windows and whole groups, both
must agree on the result or on the error's type, message, witness and
report.  The corpus must reach every outcome the rule distinguishes, and
every exact success must satisfy the equation it certifies.

``check_kb`` likewise certifies an exact positive pair by its sweep-free
split and sweeps only when that fails; its reports must equal the forced
sweep's, witness included, on clean and corrupted pairs.
"""

import json
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
from kbeq.checks import (
    DEFAULT_TOL,
    check_eq5,
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
from kbeq.errors import BudgetExceededError, KbeqError
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
    random_hermitian_form,
    random_positive_form,
)

# (name, library function, sweep-first reference, the sweep it certifies)
FUNCS = {
    "deg2": (recover_deg2, ref.sweep_first_recover_deg2,
             lambda t, tol: check_polynomial(t, 2, tol)),
    "T": (decompose_T, ref.sweep_first_decompose_T, check_eq5),
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
    chi = FuncTable.from_function(GroupSpec(0, (5,)), FullGroup(), "complex",
                                  lambda p: CharacterSpec(p.group, (), (3,)).value(p))
    quad = _complexified(FuncTable.from_function(
        GroupSpec(1), Box((4,)), "positive", lambda p: Fraction(p.coords[0] ** 2, 3)))
    for name, f in (("odd-quadratic", odd), ("character", chi), ("quadratic", quad)):
        yield "self", name, (f,)
        yield "self", f"{name}-neg-at-x", (_negated_at(f, f.points()[1].coords),)
        yield "self", f"{name}-global-neg", (_map(f, lambda v: v * minus),)


def _vanishing_form(support):
    return HermitianSolutionForm(
        CharacterSpec(Z9, (), (2,)), CharacterSpec(Z9, (), (7,)),
        SignMap.trivial(Z9, 4), SignMap.trivial(Z9, 4),
        QuadraticForm.zero(Z9), CosetConstantMap.zero(Z9),
        SubgroupSpec(Z9, support))


def _vanishing_cases():
    f, g = synth_table(_vanishing_form((Z9.element((3,)),)), FullGroup())
    whole, _ = synth_table(_vanishing_form((Z9.element((1,)),)), FullGroup())
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


def _floated(func, args):
    if func in ("deg2", "T", "positive"):
        return tuple(_map(t, float) for t in args)
    return tuple(_float_complex(_complexified(t)) for t in args)


def _corpus():
    for func, name, args in (*_real_cases(), *_positive_cases(), *_hermitian_cases(),
                             *_self_cases(), *_vanishing_cases()):
        yield f"{func}-{name}", func, args, True
        yield f"{func}-{name}-float", func, _floated(func, args), False


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


SWEEP_MESSAGES = {
    "deg2": "table is not a polynomial of degree <= 2",
    "T": "triple-difference equation fails",
    "positive": "the functional equation fails",
    "self": "the one-function equation fails",
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


def test_check_kb_corpus_reaches_every_path():
    certified = {name for name, f, g, _ in KB_CASES
                 if checks._certified_positive(f, g, DEFAULT_TOL)}
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
    assert checks._certified_positive(f, g, DEFAULT_TOL)
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
    assert built[0] == built[1] > 0


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
    assert checks._certified_positive(f, g, DEFAULT_TOL)
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
