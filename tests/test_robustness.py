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
    DomainSizeError,
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
    form_from_json,
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
               ("box5", GroupSpec(1, (3,)), Box((5,))),
               ("box6", GroupSpec(2, (2,)), Box((6, 6))),
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


def _bumped(table, point, bump, mirror):
    """``table`` plus ``bump`` at ``point`` and ``mirror * bump`` at ``-point``."""
    vals = dict(table.values)
    x = table.group.element(point)
    vals[x] += bump
    vals[-x] += mirror * bump
    return FuncTable(table.group, table.domain, table.kind, vals)


def _coset_first(table):
    """The first point ``p`` of the last coset of ``X^(2)`` that holds a
    point other than ``p`` and ``-p``: an even bump at ``p`` shifts the
    constant the split reads for that coset, and only there."""
    group, members = table.group, {}
    for p in table.points():
        members.setdefault(group.coset_index(p, 2), []).append(p)
    return [ps[0] for ps in members.values() if set(ps) - {ps[0], -ps[0]}][-1]


def _dec_variants(table):
    """Clean; one point corrupted (odd check, or residual check at 0); an odd
    bump; an even bump at the doubled probe ``2e_0`` (the quadratic part);
    an even bump at a coset's first point (its constant)."""
    dim = table.group.dim
    yield "clean", table
    yield "point", _bumped(table, (1,) * dim, Fraction(1, 3), 0)
    yield "zero", _bumped(table, (0,) * dim, Fraction(1, 3), 0)
    yield "odd", _bumped(table, (1,) + (0,) * (dim - 1), Fraction(2, 7), -1)
    yield "even", _bumped(table, (2,) + (0,) * (dim - 1), Fraction(2, 7), 1)
    yield "coset", _bumped(table, _coset_first(table).coords, Fraction(3, 5), 1)


EXPECTED_ERROR = {"clean": None, "point": "odd part is not additive",
                  "zero": "decomposition residual is nonzero",
                  "odd": "odd part is not additive",
                  "even": "decomposition residual is nonzero",
                  "coset": "decomposition residual is nonzero"}


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
    split = lambda t: _split_T(t, checks.DEFAULT_TOL)
    got = _outcome(split, table)
    assert got == _outcome(lambda t: ref_dec.decompose_T(t, checks.DEFAULT_TOL),
                           table)
    assert _outcome(split, table) == got  # again, from a kept split if exact
    # no vacuous case: exact inputs fail exactly where they were corrupted
    if not is_float:
        want = EXPECTED_ERROR[name.rsplit("-", 1)[1]]
        assert (got[1] if got[0] is DecompositionError else None) == want


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


def _bad_key_rows(rows, raw):
    """Row lists of a table over ``Box((1,))`` of ``ZB`` whose points are
    missing, repeated or outside the domain; added rows hold ``raw``."""
    again = [[0, 1], raw]
    return (rows[1:], rows + [[[2, 0], raw]], rows + [again], rows[1:] + [again],
            rows + [[[0, 5], raw]])


def _bad_coordinate_rows(rows):
    """Row lists whose first row has a coordinate that is not an integer."""
    return [[[coords, rows[0][1]]] + rows[1:]
            for coords in ([-1.7, 0], [-1, 0.0], [True, 0], [-1, False])]


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
    for values in _bad_key_rows(obj["values"], [99, 1]):
        with pytest.raises(IncompatibleTablesError,
                           match="table keys must equal the enumerated domain exactly"):
            FuncTable.from_json({**obj, "values": values})
    for values in _bad_coordinate_rows(obj["values"]):
        with pytest.raises(GroupParseError, match="table coordinates must be integers"):
            FuncTable.from_json({**obj, "values": values})
    herm = synth_table(random_hermitian_form(ZB, Random(3)), BOX)[0]
    for t in (replaced(herm, (1, 1), Exact.zero_value()), _float_complex(herm, [1, 1])):
        with pytest.raises(IncompatibleTablesError, match="zero value has no log"):
            t.abs_log_table()
        with pytest.raises(IncompatibleTablesError, match="zero value has no phase"):
            t.unimodular_part()


# ---------------------------------------------------------------------------
# table files: the integer-array reader against the value-by-value reference


# numerators on both sides of _vec._INT_LIMIT = 2^58, of int64 and beyond it
EDGE_NUMERATORS = (0, 1, 5, 2**58 - 1, 2**58, 2**58 + 1, 2**63, 2**70)
JSON_DOMAINS = [(ZB, BOX), (GroupSpec(2, (3,)), Box((2, 1))),
                (GroupSpec(0, (4, 2)), FULL), (GroupSpec(0, ()), FULL),
                (GroupSpec(0, (3,)), Box(()))]
JSON_STYLES = [("real", "exact"), ("real", "float"), ("real", "mixed"),
               ("positive", "exact"), ("positive", "float"), ("positive", "mixed"),
               ("sign", "exact"), ("complex", "exact"), ("complex", "float"),
               ("complex", "mixed")]


@pytest.mark.parametrize("group,domain", JSON_DOMAINS + [(GroupSpec(2, (4, 3)), Box((3, 2)))],
                         ids=["box", "rank2-box", "full", "trivial", "rank0-box", "window"])
def test_domain_coordinates_follow_the_point_order(group, domain):
    # derived from the mixed-radix digits of each index, not from the points
    info = _vec._domain_info_build(group, domain)
    assert info.coords.tolist() == [list(p.coords) for p in domain.points(group)]
    assert info.coords.shape == (info.n, group.dim)
    for bad_group, bad_domain in ((GroupSpec(1), FULL), (GroupSpec(2), Box((1,)))):
        with pytest.raises(DomainSizeError):
            _vec._domain_info_build(bad_group, bad_domain)


def _json_rat(rng, edge: bool) -> list:
    """A rational as a JSON pair in random terms: unreduced, and with a
    negative denominator about half the time."""
    num = rng.choice(EDGE_NUMERATORS) if edge else rng.randrange(50)
    num *= rng.choice((1, -1))
    den = rng.choice((1, 2, 3, 7, 12))
    k = rng.choice((1, 2, -1, -3))
    return [num * k, den * k]


def _json_value(rng, kind: str, style: str, edge: bool):
    """One JSON table value of ``kind``, exact, float or either."""
    exact = style == "exact" or (style == "mixed" and rng.random() < 0.5)
    if kind == "sign":
        return rng.choice((1, -1))
    if kind == "real":
        if not exact:
            return rng.uniform(-5, 5)
        return rng.randrange(-9, 9) if rng.random() < 0.2 else _json_rat(rng, edge)
    if kind == "positive":
        if exact:
            return {"log": _json_rat(rng, edge)}
        return rng.uniform(0.1, 5) if rng.random() < 0.3 else {"log": rng.uniform(-5, 5)}
    if not exact:
        return [rng.uniform(-2, 2), rng.uniform(-2, 2)]
    if rng.random() < 0.2:
        return 0
    den = rng.choice((1, 2, 5, 12, -4))
    # turns outside [0, 1); a float table reads the log as a float, so small
    return {"log": _json_rat(rng, edge and style == "exact"),
            "turn": [rng.randrange(-3 * abs(den), 3 * abs(den) + 1), den]}


def _json_table(group, domain, kind, style, seed):
    """A table file with random values of the style, its rows shuffled and
    every other torsion coordinate shifted by its modulus."""
    rng = Random(seed)
    edge = seed % 2 == 1
    rows = []
    for i, coords in enumerate(domain.points(group)):
        coords = list(coords.coords)
        for c, t in enumerate(group.torsion, group.rank):
            coords[c] += t * (i % 2)
        rows.append([coords, _json_value(rng, kind, style, edge)])
    rng.shuffle(rows)
    return {"group": str(group), "domain": domain.to_json(), "kind": kind,
            "values": rows}


def _read_outcome(read, obj):
    try:
        table = read(obj)
    except (KbeqError, ValueError) as exc:
        return type(exc), str(exc)
    return table


def _assert_same_read(obj):
    got = _read_outcome(FuncTable.from_json, obj)
    want = _read_outcome(ref.table_from_json, obj)
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, FuncTable), got
    assert _same_encoding(got.encoding, want.encoding)
    assert got.to_json() == want.to_json()


@pytest.mark.parametrize("group,domain", JSON_DOMAINS,
                         ids=["box", "rank2-box", "full", "trivial", "rank0-box"])
@pytest.mark.parametrize("kind,style", JSON_STYLES,
                         ids=[f"{k}-{s}" for k, s in JSON_STYLES])
def test_from_json_matches_reference(group, domain, kind, style):
    for seed in range(4):
        obj = json.loads(json.dumps(_json_table(group, domain, kind, style, seed)))
        _assert_same_read(obj)


def test_from_json_cases_reach_every_encoding():
    modes, big = set(), False
    for group, domain in JSON_DOMAINS:
        for kind, style in JSON_STYLES:
            for seed in range(4):
                enc = FuncTable.from_json(_json_table(group, domain, kind, style, seed)).encoding
                modes.add(enc[0])
                arrays = enc[1][:3:2] if enc[0] == "exact" else (enc[1],)
                big |= any(a.dtype == object for a in arrays)
    assert modes == {"int", "float", "parity", "exact", "complex"} and big


# malformed values per kind, each also read in the first row of a table
MALFORMED_VALUES = {
    "real": [float("nan"), [1.9, 2], [True, 2], ["3", 2], [1, 0], [1, 2, 3], "x", True],
    "positive": [{"log": [1, 0]}, {"log": [1.9, 2]}, {"log": float("nan")},
                 {"log": True}, -1.0, 0, "x", {"loge": 1}],
    "sign": [0, 2, "x", 1.5],
    "complex": [{"log": [0, 1], "turn": [1, 0]}, {"log": [0.5, 1], "turn": [0, 1]},
                {"log": [0, 1], "turn": [False, 1]}, {"turn": [0, 1]},
                {"log": [0, 1]}, "x", [1]],
}
VALID_VALUES = {"real": [1, 1], "positive": {"log": [1, 1]}, "sign": 1,
                "complex": {"log": [1, 1], "turn": [1, 3]}}


@pytest.mark.parametrize("kind", sorted(MALFORMED_VALUES))
def test_from_json_refuses_what_the_reference_refuses(kind):
    box = Box((1,))
    raw = VALID_VALUES[kind]
    obj = {"group": str(ZB), "domain": box.to_json(), "kind": kind,
           "values": [[list(p.coords), raw] for p in box.points(ZB)]}
    rows = obj["values"]
    tables = [rows] + list(_bad_key_rows(rows, raw)) + _bad_coordinate_rows(rows)
    tables += [[[rows[0][0], bad]] + rows[1:] for bad in MALFORMED_VALUES[kind]]
    tables += [rows + [[[1, 0, 0], raw]], rows[:1] + [[[2, 0], raw]]]
    for values in tables:
        _assert_same_read({**obj, "values": values})
    assert FuncTable.from_json(obj).to_json() == FuncTable.from_json(
        {**obj, "values": rows[::-1]}).to_json()


def test_malformed_rationals_are_refused():
    # floats, booleans and strings were read through int() before, and a
    # zero denominator raised ZeroDivisionError
    base = {"group": "Z/2", "domain": {"type": "full"}, "kind": "positive"}
    for bad in ([1.9, 2], [True, 2], ["3", 2], [1, 0], [1, 2.0]):
        obj = {**base, "values": [[[0], {"log": bad}], [[1], {"log": [1, 2]}]]}
        with pytest.raises(GroupParseError, match="rational of integers with a nonzero"):
            FuncTable.from_json(obj)
        form = PositiveSolutionForm.zero(GroupSpec(1)).to_json()
        form["l"] = [bad]
        with pytest.raises(GroupParseError, match="rational of integers with a nonzero"):
            form_from_json(form)


def _json_mutants(obj, path=()):
    """Copies of ``obj`` with one member deleted, or replaced by a value of
    another JSON type, at every depth (the first three items of an array)."""
    if isinstance(obj, dict):
        keys = list(obj)
    elif isinstance(obj, list):
        keys = list(range(min(len(obj), 3)))
    else:
        return
    for k in keys:
        for bad in (5, 2.5, True, None, "x", [], [[1]], {}, {"a": 1}, "delete"):
            copy = json.loads(json.dumps(obj))
            if bad == "delete":
                del copy[k]
            else:
                copy[k] = bad
            yield path + (k,), copy
        for sub, inner in _json_mutants(obj[k], path + (k,)):
            copy = json.loads(json.dumps(obj))
            copy[k] = inner
            yield sub, copy


def test_malformed_json_raises_a_kbeq_error():
    # a missing key or a wrong type ended in KeyError, TypeError or
    # AttributeError; the CLI turns KbeqError into exit code 2
    group = GroupSpec(1, (2,))
    forms = [random_positive_form(group, Random(1)), random_hermitian_form(group, Random(1))]
    cases = [(form_from_json, form.to_json()) for form in forms]
    cases += [(FuncTable.from_json, synth_table(form, Box((1,)))[0].to_json())
              for form in forms]
    count = 0
    for read, obj in cases:
        obj = json.loads(json.dumps(obj))
        for path, bad in [((), 5), ((), [])] + list(_json_mutants(obj)):
            count += 1
            try:
                read(bad)
            except KbeqError:
                pass
            except Exception as exc:
                pytest.fail(f"{read.__name__} at {path}: {exc!r}")
    assert count > 1000


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
