"""Differential and adversarial tests.

Every pair and triple check runs through one sweep kernel; the brute-force
loops in ``reference_checks`` are its oracle, and the two must agree on
verdict, first witness, ``pairs_checked`` and ``coverage`` for every table
encoding on box and full-group domains.  Positive synthesis and the
log-domain split run on arrays; the point loops in ``reference_decompose``
are their oracle, and ``reference_checks.table_encoding`` is the oracle for
the arrays a table stores.  The decomposers must never return a form for an
input that is not a genuine solution: corruptions raise, and what does come
back always reproduces its input exactly.
"""

import json
from fractions import Fraction
from random import Random

import numpy as np
import pytest

import reference_checks as ref
import reference_decompose as ref_dec
from kbeq import _vec, checks
from kbeq._split import _split_T
from kbeq.checks import check_eq5, check_kb, check_sign_eq26
from kbeq.decompose import (
    _phase_checks,
    decompose_T,
    decompose_hermitian,
    decompose_positive,
)
from kbeq.errors import (
    DecompositionError,
    EquationFailsError,
    GroupParseError,
    IncompatibleTablesError,
    KbeqError,
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
from kbeq.groups import Box, FullGroup, GroupSpec, SubgroupSpec, domain_from_json
from kbeq.oracle import (
    builtin_counterexample,
    builtin_odd_quadratic,
    random_hermitian_form,
    random_positive_form,
)


def assert_agree(kernel, reference, exact=True):
    assert kernel.holds == reference.holds
    assert kernel.pairs_checked == reference.pairs_checked
    assert kernel.coverage == reference.coverage
    if reference.witness is None:
        assert kernel.witness is None
        return
    assert kernel.witness.labels == reference.witness.labels
    assert kernel.witness.points == reference.witness.points
    for got, want in ((kernel.witness.lhs, reference.witness.lhs),
                      (kernel.witness.rhs, reference.witness.rhs)):
        if exact:
            assert got == want
        else:  # float sums and products may group differently
            assert abs(cval(got) - cval(want)) <= 1e-12 * max(1.0, abs(cval(want)))


def replaced(table, point, value, kind=None):
    vals = dict(table.values)
    vals[table.group.element(point)] = value
    return FuncTable(table.group, table.domain, kind or table.kind, vals)


def retyped(table, kind, fn):
    return FuncTable(table.group, table.domain, kind,
                     {p: fn(v) for p, v in table.values.items()})


@pytest.mark.parametrize("corrupt", [False, True])
def test_kb_paths_agree_positive(corrupt):
    group = GroupSpec(1, (4,))
    form = random_positive_form(group, Random(31))
    f, g = synth_table(form, Box((4,)))
    if corrupt:
        f = replaced(f, (3, 1), f.values[group.element((3, 1))] + Fraction(1, 7))
    rep = check_kb(f, g)
    assert rep.holds == (not corrupt)
    assert_agree(rep, ref.check_kb(f, g, checks.DEFAULT_TOL))


@pytest.mark.parametrize("corrupt", [False, True])
def test_kb_paths_agree_signs(corrupt):
    f, g = builtin_counterexample()
    if corrupt:
        f = replaced(f, (2, 1), -f.values[f.group.element((2, 1))])
    rep, rep26 = check_kb(f, g), check_sign_eq26(f, g)
    assert rep.holds == rep26.holds == (not corrupt)
    assert_agree(rep, ref.check_kb(f, g, checks.DEFAULT_TOL))
    assert_agree(rep26, ref.check_sign_eq26(f, g, checks.DEFAULT_TOL))


def test_eq5_paths_agree_on_coverage():
    # a radius-3 box: 343 triples, some with points outside the window
    group = GroupSpec(1)
    t = FuncTable.from_function(group, Box((3,)), "real",
                                lambda p: Fraction(p.coords[0] ** 2))
    rep = check_eq5(t)
    assert rep.holds and rep.note is None
    assert 0 < rep.coverage < 1
    assert_agree(rep, ref.check_eq5(t, checks.DEFAULT_TOL))


# ---------------------------------------------------------------------------
# the sweep kernel against the reference loops, encoding by encoding

ZB = GroupSpec(1, (4,))        # on a box window
ZF = GroupSpec(0, (4, 2))      # on the whole group
BOX, FULL = Box((3,)), FullGroup()
BIG_P, BIG_Q = 2**40 - 87, 2**40 - 167  # primes: turn denominators beyond int64


def _real(group, domain, fn):
    return FuncTable.from_function(group, domain, "real", fn)


def _parts(group):
    """Quadratic, additive and coset-constant parts (P and l vanish on finite groups)."""
    free = group.rank > 0
    return (lambda p: Fraction(p.coords[0] ** 2, 3) if free else Fraction(0),
            lambda p: Fraction(p.coords[0], 2) if free else Fraction(0),
            lambda p: Fraction(p.coords[-1] % 2, 2))


def _float_complex(table, zero_at=None):
    """Float-complex copy read back from JSON; exact zeros stay JSON ``0``."""
    obj = table.to_json()
    values = []
    for coords, raw in obj["values"]:
        if raw != 0 and coords != zero_at:
            c = Exact(Fraction(*raw["log"]), Fraction(*raw["turn"])).to_complex()
            raw = [c.real, c.imag]
        values.append([coords, 0 if coords == zero_at else raw])
    return FuncTable.from_json({**obj, "values": values})


def _vanishing_pair():
    """A genuine pair on Z/9 vanishing off the subgroup generated by 3."""
    z9 = GroupSpec(0, (9,))
    form = HermitianSolutionForm(
        CharacterSpec(z9, (), (2,)), CharacterSpec(z9, (), (7,)),
        SignMap.trivial(z9, 4), SignMap.trivial(z9, 4),
        QuadraticForm.zero(z9), CosetConstantMap.zero(z9),
        SubgroupSpec(z9, (z9.element((3,)),)))
    return synth_table(form, FullGroup())


def _big_characters(corrupt):
    group = GroupSpec(1)
    f = FuncTable.from_function(group, Box((4,)), "complex",
                                lambda p: Exact.unit(Fraction(3 * p.coords[0], BIG_P)))
    g = FuncTable.from_function(group, Box((4,)), "complex",
                                lambda p: Exact.unit(Fraction(5 * p.coords[0], BIG_Q)))
    if corrupt:
        g = replaced(g, (2,), Exact.unit(Fraction(1, BIG_Q)))
    return f, g


def _kb_cases():
    """(id, f, g, exact witness values) covering every encoding."""
    for name, group, domain in (("box", ZB, BOX), ("full", ZF, FULL)):
        pos = synth_table(random_positive_form(group, Random(7)), domain)
        bad_pos = replaced(pos[0], (1, 1), Fraction(5, 3))
        yield f"int-{name}", pos, True
        yield f"int-{name}-bad", (bad_pos, pos[1]), True
        flt = tuple(retyped(t, "positive", float) for t in pos)
        yield f"float-{name}", flt, False
        yield f"float-{name}-bad", (retyped(bad_pos, "positive", float), flt[1]), False
        herm = synth_table(random_hermitian_form(group, Random(3)), domain)
        yield f"exact-{name}", herm, True
        yield f"exact-{name}-zero", (replaced(herm[0], (1, 1), Exact.zero_value()),
                                     herm[1]), True
        yield f"complex-{name}", tuple(_float_complex(t) for t in herm), False
        yield (f"complex-{name}-zero",
               (_float_complex(herm[0], [1, 1]), _float_complex(herm[1])), False)
        yield (f"mixed-{name}-zero",  # exact beside float complex: complex128
               (replaced(herm[0], (1, 1), Exact.zero_value()),
                _float_complex(herm[1])), False)
    cex = builtin_counterexample()
    yield "parity-full", cex, True
    yield "parity-full-bad", (replaced(cex[0], (2, 1), 1), cex[1]), True
    odd = builtin_odd_quadratic(3)
    yield "parity-box", (odd, odd), True
    yield "parity-box-bad", (replaced(odd, (1, 1), 1), odd), True
    # real tables are multiplicative in check_kb: 3 a(x) and b(x) / 3
    for name, (a, b) in (("full", cex), ("box", (odd, odd))):
        real = (retyped(a, "real", lambda v: Fraction(3 * v)),
                retyped(b, "real", lambda v: Fraction(v, 3)))
        yield f"real-{name}", real, True
        yield f"real-{name}-bad", (replaced(real[0], (1, 1), Fraction(0)),
                                   real[1]), True
        yield (f"real-float-{name}",
               tuple(retyped(t, "real", float) for t in real), False)
    van = _vanishing_pair()
    yield "exact-vanishing", van, True
    yield "exact-vanishing-bad", (replaced(van[0], (3,), Exact.unit(Fraction(1, 3))),
                                  van[1]), True
    yield "complex-vanishing", tuple(_float_complex(t) for t in van), False
    yield "mixed-vanishing", (van[0], _float_complex(van[1])), False
    yield "overflow", _big_characters(False), True
    yield "overflow-bad", _big_characters(True), True
    # small numerators over a turn denominator beyond int64
    f = replaced(van[0], (1,), Exact.unit(Fraction(1, BIG_P)))
    g = replaced(van[1], (2,), Exact.unit(Fraction(1, BIG_Q)))
    yield "overflow-modulus-bad", (f, g), True
    # zero logs rescaled to a denominator beyond int64
    zero = FuncTable.from_function(ZF, FULL, "positive", lambda p: Fraction(0))
    yield "overflow-rescale-bad", (zero, retyped(zero, "positive",
                                                 lambda v: Fraction(1, 2**70))), True
    # products of int64 numerators beyond int64
    yield "overflow-product", (
        retyped(cex[0], "real", lambda v: Fraction(v * 2**20)),
        retyped(cex[1], "real", lambda v: Fraction(v, 2**20))), True


KB_CASES = list(_kb_cases())


@pytest.mark.parametrize("case", KB_CASES, ids=[c[0] for c in KB_CASES])
def test_kb_kernel_matches_reference(case):
    _, (f, g), exact = case
    rep = check_kb(f, g)
    assert rep.holds == ("bad" not in case[0] and "zero" not in case[0])
    assert_agree(rep, ref.check_kb(f, g, checks.DEFAULT_TOL), exact)


def _additive_cases():
    """(id, kernel check, reference check, table, exact witness values)."""
    alternating = _real(GroupSpec(1), Box((8,)),
                        lambda p: Fraction((-1) ** p.coords[0] * 2**58))
    yield ("overflow-polynomial", lambda t: checks.check_polynomial(t, 5),
           lambda t, tol: ref.check_polynomial(t, 5, tol), alternating, True)
    for name, group, domain in (("box", ZB, BOX), ("full", ZF, FULL)):
        P, l, r = _parts(group)
        genuine = (
            ("polynomial", lambda t: checks.check_polynomial(t, 2),
             lambda t, tol: ref.check_polynomial(t, 2, tol),
             lambda p: P(p) + l(p) + 1),
            ("eq5", checks.check_eq5, ref.check_eq5, lambda p: P(p) + l(p) + r(p)),
            ("quadratic", checks.check_quadratic, ref.check_quadratic, P),
            ("cauchy", checks.check_cauchy, ref.check_cauchy, l),
        )
        for check_name, check, reference, fn in genuine:
            clean = _real(group, domain, fn)
            for suffix, t in (("", clean),
                              ("-bad", replaced(clean, (1, 1), Fraction(9, 7)))):
                yield (f"{check_name}-int-{name}{suffix}", check, reference, t, True)
                yield (f"{check_name}-float-{name}{suffix}", check, reference,
                       retyped(t, "real", float), False)
    for name, group, domain in (("box", ZB, BOX), ("full", ZF, FULL)):
        chi = FuncTable.from_function(
            group, domain, "complex",
            CharacterSpec(group, (Fraction(1, 5),) * group.rank,
                          (1,) * len(group.torsion)).value)
        for suffix, t in (("", chi),
                          ("-bad", replaced(chi, (1, 1), Exact.unit(Fraction(1, 3)))),
                          ("-zero", replaced(chi, (1, 1), Exact.zero_value()))):
            yield (f"character-exact-{name}{suffix}", checks.check_character,
                   ref.check_character, t, True)
            yield (f"character-complex-{name}{suffix}", checks.check_character,
                   ref.check_character, _float_complex(t), False)


ADDITIVE_CASES = list(_additive_cases())


@pytest.mark.parametrize("case", ADDITIVE_CASES, ids=[c[0] for c in ADDITIVE_CASES])
def test_linear_kernel_matches_reference(case):
    name, check, reference, table, exact = case
    rep = check(table)
    assert assert_agree(rep, reference(table, checks.DEFAULT_TOL), exact) is None
    if "bad" in name or "zero" in name or "overflow" in name:
        assert not rep.holds
    else:
        assert rep.holds


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("corrupt", [None, "double", "pair"])
def test_phase_checks_match_reference(exact, corrupt):
    f, _ = synth_table(random_hermitian_form(ZB, Random(8)), BOX)
    p = f.unimodular_part()
    if corrupt == "double":    # p(2x) off p(x)^2 at x = (1, 1)
        p = replaced(p, (2, 2),
                     p.values[ZB.element((2, 2))] * Exact.unit(Fraction(1, 3)))
    elif corrupt == "pair":    # (3, 1) is no double and 2(3, 1) is outside
        p = replaced(p, (3, 1),
                     p.values[ZB.element((3, 1))] * Exact.unit(Fraction(1, 4)))
    if not exact:
        p = _float_complex(p)
    want = ref.phase_failure(p, checks.DEFAULT_TOL)
    assert (want is None) == (corrupt is None)
    if want is None:
        _phase_checks(p, checks.DEFAULT_TOL, "f")
        return
    with pytest.raises(DecompositionError) as info:
        _phase_checks(p, checks.DEFAULT_TOL, "f")
    assert want[0] == corrupt
    assert info.value.witness["x"] == list(want[1].coords)
    if corrupt == "pair":
        assert info.value.witness["y"] == list(want[2].coords)


# ---------------------------------------------------------------------------
# positive synthesis and the log-domain split against the point loops

DEC_DOMAINS = (("box", GroupSpec(1, (2,)), Box((4,))),
               ("box2", GroupSpec(2), Box((4, 4))),
               ("full", ZF, FULL))


def _big_form(group, scale):
    """A positive form over denominators near 2^80, numerators ``scale`` * 2^40."""
    rank = group.rank
    mat = [[Fraction(0)] * group.dim for _ in range(group.dim)]
    for i in range(rank):
        for j in range(rank):
            mat[i][j] = Fraction(scale * (1 + (i == j)), BIG_P)
    return PositiveSolutionForm(
        QuadraticForm(group, tuple(map(tuple, mat))),
        AdditiveMap(group, (Fraction(3 * scale, BIG_Q),) * rank),
        AdditiveMap(group, (Fraction(-2 * scale, BIG_P),) * rank),
        CosetConstantMap(group, tuple(
            (idx, Fraction(k * scale + 1, BIG_Q) - Fraction(1, BIG_P))
            for k, idx in enumerate(group.coset_indices(2)))))


def _dec_forms(group):
    """(name, form, whether its log values need Python-int numerators)."""
    for seed in range(3):
        yield f"int{seed}", random_positive_form(group, Random(seed)), False
    # int64 numerators over a denominator beyond int64, then numerators beyond it
    yield "bigden", _big_form(group, 1), False
    yield "big", _big_form(group, BIG_P), True


def _bumped(table, point, bump, odd):
    """``table`` plus ``bump`` at ``point`` (minus ``bump`` at ``-point`` if odd)."""
    vals = dict(table.values)
    x = table.group.element(point)
    vals[x] += bump
    if odd:
        vals[-x] -= bump
    return FuncTable(table.group, table.domain, table.kind, vals)


def _dec_variants(table):
    """Clean, one point corrupted (odd check, or residual check at 0), odd bump."""
    dim = table.group.dim
    yield "clean", table
    yield "point", _bumped(table, (1,) * dim, Fraction(1, 3), False)
    yield "zero", _bumped(table, (0,) * dim, Fraction(1, 3), False)
    yield "odd", _bumped(table, (1,) + (0,) * (dim - 1), Fraction(2, 7), True)


EXPECTED_ERROR = {"clean": None, "point": "odd part is not additive",
                  "zero": "decomposition residual is nonzero",
                  "odd": "odd part is not additive"}


def _dec_cases():
    for dname, group, domain in DEC_DOMAINS:
        for fname, form, _ in _dec_forms(group):
            base = synth_table(form, domain)[0].as_real_log()
            for vname, table in _dec_variants(base):
                yield f"{dname}-{fname}-{vname}", table, False
                yield (f"{dname}-{fname}-{vname}-float",
                       retyped(table, "real", float), True)


DEC_CASES = list(_dec_cases())


def _outcome(decompose, table):
    try:
        return decompose(table)
    except DecompositionError as exc:
        return type(exc), str(exc), exc.witness


@pytest.mark.parametrize("case", DEC_CASES, ids=[c[0] for c in DEC_CASES])
def test_decompose_T_matches_reference(case):
    name, table, is_float = case
    got = _outcome(lambda t: _split_T(t, checks.DEFAULT_TOL), table)
    assert got == _outcome(lambda t: ref_dec.decompose_T(t, checks.DEFAULT_TOL),
                           table)
    # no vacuous case: exact inputs fail exactly where they were corrupted
    if not is_float:
        want = EXPECTED_ERROR[name.rsplit("-", 1)[1]]
        assert (got[1] if want else None) == want


def test_decompose_T_cases_cover_both_checks_on_floats():
    messages = {_outcome(lambda t: _split_T(t, checks.DEFAULT_TOL), t)[1]
                for _, t, is_float in DEC_CASES if is_float}
    assert set(EXPECTED_ERROR.values()) - {None} <= messages


@pytest.mark.parametrize("name,group,domain", DEC_DOMAINS,
                         ids=[d[0] for d in DEC_DOMAINS])
def test_synth_positive_matches_reference(name, group, domain):
    info = _vec.domain_info(group, domain)
    for fname, form, big in _dec_forms(group):
        assert synth_table(form, domain) == ref_dec.synth_positive(form, domain)
        nums, _ = _vec.form_log_arrays(form.P, form.l, form.r.entries, info)
        assert (nums.dtype == object) == big  # beyond int64: Python ints


@pytest.mark.parametrize("name,group,domain", DEC_DOMAINS,
                         ids=[d[0] for d in DEC_DOMAINS])
def test_mixed_table_decomposes_as_float(name, group, domain):
    # a table mixing floats and rationals takes float arithmetic throughout
    base = synth_table(random_positive_form(group, Random(5)), domain)[0].as_real_log()
    for _, table in _dec_variants(base):
        mixed = FuncTable(group, domain, "real", {
            p: float(table.values[p]) if i % 2 else table.values[p]
            for i, p in enumerate(table.points())})
        decompose = lambda t: _split_T(t, checks.DEFAULT_TOL)
        assert _outcome(decompose, mixed) == _outcome(
            decompose, retyped(table, "real", float))


# ---------------------------------------------------------------------------
# the stored table encoding against the point-by-point encoder


def _same_encoding(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same_encoding, a, b))
    return a == b


def _mixed(table):
    """``table`` with every other value as a float, through the mapping constructor."""
    return FuncTable(table.group, table.domain, table.kind, {
        p: float(v) if i % 2 else v for i, (p, v) in enumerate(table.values.items())})


def _encoding_cases():
    """(id, table built by the library, the plain values it was built from,
    and the table it must equal value for value and type for type when its
    values are normalized, or None)."""
    pos = synth_table(random_positive_form(ZB, Random(7)), BOX)[0]
    yield "int64", pos, dict(pos.values.items()), None
    big = synth_table(_big_form(ZB, BIG_P), BOX)[0]
    yield "beyond-int64", big, dict(big.values.items()), None
    cex = builtin_counterexample()[0]
    yield "parity", cex, dict(cex.values.items()), None
    flt = retyped(pos, "positive", float)
    yield "float", flt, dict(flt.values.items()), None
    van = _vanishing_pair()[0]
    yield "exact-zeros", van, dict(van.values.items()), None
    herm = synth_table(random_hermitian_form(ZB, Random(3)), BOX)[0]
    fc = _float_complex(herm, [1, 1])  # what the JSON reader hands over: an exact 0
    yield ("complex-json-zero", fc, {p: Exact.zero_value() if v == 0 else v
                                     for p, v in fc.values.items()},
           retyped(fc, "complex", complex))
    real = pos.as_real_log()
    mixed = _mixed(real)
    yield ("mixed-real", mixed, {p: float(v) if i % 2 else v
                                 for i, (p, v) in enumerate(real.values.items())},
           retyped(real, "real", float))
    ints = FuncTable.from_function(ZB, BOX, "real", lambda p: p.coords[0] ** 2)
    yield ("python-int", ints, {p: p.coords[0] ** 2 for p in ints.points()},
           retyped(ints, "real", Fraction))


ENCODING_CASES = list(_encoding_cases())


@pytest.mark.parametrize("case", ENCODING_CASES, ids=[c[0] for c in ENCODING_CASES])
def test_stored_encoding_matches_reference(case):
    _, table, vals, normal = case
    group, domain, kind = table.group, table.domain, table.kind
    built = FuncTable(group, domain, kind, vals)
    want = ref.table_encoding(kind, [vals[p] for p in table.points()])
    assert _same_encoding(built.encoding, want)
    assert _same_encoding(table.encoding, want)  # also in lowest terms
    assert built == table
    obj = json.loads(json.dumps(table.to_json()))
    assert FuncTable.from_json(obj) == table
    rows = obj["values"]
    shuffled = rows[:]
    Random(3).shuffle(shuffled)
    # torsion coordinates shifted by -t, 0 or +t: unreduced, same points
    unreduced = [[c[:group.rank] + [v + t * (i % 3 - 1)
                                    for v, t in zip(c[group.rank:], group.torsion)], raw]
                 for i, (c, raw) in enumerate(rows)]
    assert unreduced != rows
    for values in (rows[::-1], shuffled, unreduced):
        assert FuncTable.from_json({**obj, "values": values}) == table
    assert FuncTable(group, domain, kind, dict(table.values)) == table
    if normal is not None:  # floats, complex numbers (0j) or Fractions read back
        assert list(map(type, table.values.values())) == \
            list(map(type, normal.values.values()))
        assert table == normal
        assert _report(check_kb(table, table)) == _report(check_kb(normal, normal))


def test_synthesized_tables_equal_their_json():
    z2 = GroupSpec(2)
    # coefficients over 2 whose values are all integers: a denominator to reduce
    halves = PositiveSolutionForm(
        QuadraticForm(z2, ((0, Fraction(1, 2)), (Fraction(1, 2), 0))),
        AdditiveMap.zero(z2), AdditiveMap.zero(z2), CosetConstantMap.zero(z2))
    forms = [(z2, Box((4, 4)), halves)]
    forms += [(group, domain, form) for _, group, domain in DEC_DOMAINS
              for _, form, _ in _dec_forms(group)]
    for group, domain, form in forms:
        for t in synth_table(form, domain):
            assert FuncTable.from_json(t.to_json()) == t
    assert synth_table(halves, Box((4, 4)))[0].encoding[2] == 1


def test_table_equality_compares_values():
    def real(fn):
        return FuncTable.from_function(ZB, BOX, "real", fn)

    halves = real(lambda p: Fraction(p.coords[0], 2))
    assert halves != real(lambda p: Fraction(p.coords[0], 3))  # same numerators
    assert halves == real(lambda p: p.coords[0] / 2)  # exact against float
    assert halves != real(lambda p: p.coords[0] / 2 + 1e-9)
    last = halves.points()[-1]
    assert halves != replaced(halves, last.coords, halves.values[last] + 1)
    f = synth_table(random_hermitian_form(ZB, Random(3)), BOX)[0]
    assert f != _float_complex(f)


def _report(rep):
    return rep.to_json(), None if rep.witness is None else repr(rep.witness)


def test_mixed_tables_keep_their_outcomes():
    # normalized tables keep the verdicts, witness points and recovered
    # forms of the exact tables they were made from
    form = random_positive_form(ZB, Random(7))
    f, g = synth_table(form, Box((4,)))
    mixed = _mixed(f)
    for g_ in (g, replaced(g, (1, 1), Fraction(1, 3))):
        got, want = check_kb(mixed, g_), check_kb(f, g_)
        assert (got.holds, got.pairs_checked) == (want.holds, want.pairs_checked)
        assert got.holds or got.witness.points == want.witness.points
    assert decompose_T(mixed.as_real_log()) == (form.P, form.l, form.r)
    fh, gh = synth_table(random_hermitian_form(ZB, Random(3)), BOX)
    got = check_kb(_float_complex(fh, [1, 1]), _float_complex(gh))
    want = check_kb(replaced(fh, (1, 1), Exact.zero_value()), gh)
    assert not got.holds and got.witness.points == want.witness.points


def test_table_rejections_keep_their_messages():
    box = Box((1,))
    pts = box.points(ZB)
    cases = (
        ("real", {p: Fraction(0) for p in pts[1:]},
         "table keys must equal the enumerated domain exactly"),
        ("real", {p: float("nan") if p == pts[0] else 0.0 for p in pts},
         f"value nan at {pts[0]} is invalid for kind 'real'"),
        ("positive", {p: True for p in pts},
         f"value True at {pts[0]} is invalid for kind 'positive'"),
        ("sign", {p: 0 if p == pts[1] else 1 for p in pts},
         f"value 0 at {pts[1]} is invalid for kind 'sign'"),
    )
    for kind, vals, message in cases:
        with pytest.raises(IncompatibleTablesError) as info:
            FuncTable(ZB, box, kind, vals)
        assert str(info.value) == message
    obj = FuncTable.from_function(ZB, box, "real", lambda p: Fraction(1)).to_json()
    rows, again = obj["values"], [[0, 1], [99, 1]]
    for values in (rows[1:], rows + [[[2, 0], [1, 1]]],
                   rows + [again], rows[1:] + [again], rows + [[[0, 5], [1, 1]]]):
        with pytest.raises(IncompatibleTablesError,
                           match="table keys must equal the enumerated domain exactly"):
            FuncTable.from_json({**obj, "values": values})
    for coords in ([-1.7, 0], [-1, 0.0], [True, 0], [-1, False]):
        with pytest.raises(GroupParseError, match="table coordinates must be integers"):
            FuncTable.from_json({**obj, "values": [[coords, rows[0][1]]] + rows[1:]})
    herm = synth_table(random_hermitian_form(ZB, Random(3)), BOX)[0]
    for t in (replaced(herm, (1, 1), Exact.zero_value()), _float_complex(herm, [1, 1])):
        with pytest.raises(IncompatibleTablesError, match="zero value has no log"):
            t.abs_log_table()
        with pytest.raises(IncompatibleTablesError, match="zero value has no phase"):
            t.unimodular_part()


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
