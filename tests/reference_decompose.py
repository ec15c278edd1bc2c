"""Point-wise form evaluation, brute-force reference for positive synthesis
and the log-domain split, and sweep-first references for the six
decompositions.

The point-wise evaluators compute a form's parts one point at a time in
Fractions: :func:`quadratic_value`, :func:`additive_value`,
:func:`coset_value` (coset and sign maps), :func:`character_turn` and
:func:`character_value`, and for whole forms :func:`log_pair` and
:func:`exact_pair`.  Subgroups of finite groups are enumerated by
:func:`reference_checks.subgroup_closure` (:func:`subgroup_members`),
which also decides :func:`quotient_has_order2`.  They are the oracle for the array renderer in ``kbeq.functions``
(``synth_table``, ``eval_positive`` and ``eval_hermitian``).

The synthesis and split references work one point at a time in the tables'
native arithmetic (Fractions and Python floats, mixed freely), with no
encoding and no index arrays.  They are the oracle for the array routines in
``kbeq.functions.synth_table`` and ``kbeq._split._split_parts`` (read as
forms by :func:`split_T`): on the same input both must return the same
forms, or raise the same error with the same witness.

The ``sweep_first_*`` functions run every equation sweep before the
recovery, in the order the library ran them before its decompositions
certified themselves; otherwise they repeat the library's steps.  The
Hermitian and one-function references also keep the library's earlier
point-by-point phase part, including the phase-identity sweeps it no
longer runs, and the point loops of ``reference_checks`` for its side
conditions.  The vanishing reference keeps the library's earlier point
loops: value by value moduli, the pair loop over the support, generators
by closure enumeration, both checks that cannot fail on an odd-order group,
character fits over every character, the quotient test by closure
enumeration, and the residual of :func:`exact_pair`.
They are the oracle for the certify-then-explain rule and the array phase
part and vanishing route in ``kbeq.decompose``: every public decomposition
must return what they return, or raise the same error with the same
message, witness and report.
"""

import cmath
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

import reference_checks as ref_checks
from kbeq import decompose as dec
from kbeq.checks import (
    check_eq5,
    check_kb,
    check_kb_self,
    check_polynomial,
    check_sign_eq26,
)
from kbeq._split import (
    _doubled_probes,
    _forms,
    _point_witness,
    _require_decomposable_domain,
    _split_parts,
    _to_fraction,
    extend_biadditive,
)
from kbeq.errors import (
    BudgetExceededError,
    DecompositionError,
    DomainSizeError,
    EquationFailsError,
    GroupHypothesisError,
    IncompatibleTablesError,
)
from kbeq.functions import (
    AdditiveMap,
    CosetConstantMap,
    Exact,
    FuncTable,
    HermitianSolutionForm,
    KIND_POSITIVE,
    KIND_REAL,
    KIND_SIGN,
    PositiveSolutionForm,
    QuadraticForm,
    SignMap,
    cmul,
    cval,
)
from kbeq.groups import GroupElement, GroupSpec, SubgroupSpec
from reference_checks import value_is_zero, values_equal


# ---------------------------------------------------------------------------
# point-wise form evaluation


def quadratic_value(P, x) -> Fraction:
    """``P(x) = x^T B x``; the torsion rows of ``B`` are zero."""
    free = range(P.group.rank)
    return sum((P.matrix[i][j] * x.coords[i] * x.coords[j] for i in free for j in free),
               Fraction(0))


def additive_value(l, x) -> Fraction:
    return sum((c * x.coords[j] for j, c in enumerate(l.coeffs)), Fraction(0))


def coset_value(m, x):
    """The value at ``x`` of a coset map or a sign map, read at its coset."""
    return m.at(m.group.coset_index(x, m.modulus))


def character_turn(chi, x) -> Fraction:
    group = chi.group
    total = sum((t * c for t, c in zip(chi.free_turns, x.coords)), Fraction(0))
    for k, n, c in zip(chi.torsion_exponents, group.torsion, x.coords[group.rank:]):
        total += Fraction(k * c, n)
    return total % 1


def character_value(chi, x) -> Exact:
    return Exact.unit(character_turn(chi, x))


def log_pair(form, x) -> tuple[Fraction, Fraction]:
    """``(log f(x), log g(x))`` of a positive form."""
    p, r = quadratic_value(form.P, x), coset_value(form.r, x)
    return p + additive_value(form.l, x) + r, p + additive_value(form.m, x) - r


@lru_cache(maxsize=64)
def subgroup_members(sub: SubgroupSpec) -> frozenset:
    """The elements of a subgroup of a finite group, by closure enumeration."""
    return frozenset(ref_checks.subgroup_closure(sub))


def quotient_has_order2(sub: SubgroupSpec) -> bool:
    """Whether some ``x`` outside a subgroup of a finite group has ``2x``
    inside it, by enumeration."""
    members = subgroup_members(sub)
    return any(x not in members and sub.group.scale(2, x) in members
               for x in sub.group.elements())


def exact_pair(form, x) -> tuple[Exact, Exact]:
    """``(f(x), g(x))`` of a Hermitian form, exactly; a support must be a
    subgroup of a finite group."""
    if form.support is not None and x not in subgroup_members(form.support):
        return Exact.zero_value(), Exact.zero_value()
    p, r = quadratic_value(form.P, x), coset_value(form.r, x)
    fa = Exact(p + r, character_turn(form.alpha, x)) * Exact.from_sign(coset_value(form.a, x))
    gb = Exact(p - r, character_turn(form.beta, x)) * Exact.from_sign(coset_value(form.b, x))
    return fa, gb


# ---------------------------------------------------------------------------
# positive synthesis and the log-domain split


def synth_positive(form, domain):
    """The tables of :func:`log_pair` at every domain point."""
    group = form.group
    fvals, gvals = {}, {}
    for p in domain.points(group):
        fvals[p], gvals[p] = log_pair(form, p)
    return (FuncTable(group, domain, "positive", fvals),
            FuncTable(group, domain, "positive", gvals))


def split_T(table, tol):
    """The library's split of a real table as (P, l, r), with no equation
    sweep: the window must hold the doubled probes."""
    return _forms(table.group, _split_parts(table, tol))


def _is_exact_table(table):
    return all(not isinstance(v, (float, complex)) for v in table.values.values())


def _close(a, b, tol, exact):
    if exact:
        return a == b
    return abs(float(a) - float(b)) <= tol


def _halved(v):
    if isinstance(v, float):
        return v / 2.0
    return Fraction(v) / 2


def _quadratic_from_even(group: GroupSpec, even: Sequence) -> QuadraticForm:
    """Quadratic part out of doubled second differences of the even part,
    given its values at :func:`_doubled_probes`."""
    rank, d = group.rank, group.dim
    doubled = [[Fraction(0)] * d for _ in range(d)]
    e0, single, pairs = even[0], even[1: rank + 1], iter(even[rank + 1:])
    for j in range(rank):
        for k in range(j, rank):
            v = next(pairs) - single[j] - single[k] + e0
            doubled[j][k] = doubled[k][j] = v / 2
    return extend_biadditive(group, doubled)


def decompose_T(table, tol):
    """(P, l, r) with ``T = P + l + r``, without the equation check."""
    _require_decomposable_domain(table)
    group = table.group
    vals = dict(table.values.items())
    exact = _is_exact_table(table)
    pts = table.points()
    even = {x: _halved(vals[x] + vals[-x]) for x in pts}
    odd = {x: _halved(vals[x] - vals[-x]) for x in pts}
    gens = group.generators()[:group.rank]
    l = AdditiveMap(group, tuple(_to_fraction(odd[e]) for e in gens))
    for x in pts:
        if not _close(odd[x], additive_value(l, x), tol, exact):
            raise DecompositionError("odd part is not additive",
                                     _point_witness(x, odd[x], additive_value(l, x)))
    P = _quadratic_from_even(group, [_to_fraction(even[group.element(coords)])
                                     for coords in _doubled_probes(group)])
    reps: dict = {}
    for x in pts:
        reps.setdefault(group.coset_index(x, 2), x)
    entries = [(idx, _to_fraction(even[x]) - quadratic_value(P, x))
               for idx, x in reps.items()]
    r = CosetConstantMap(group, tuple(entries))
    for x in pts:
        model = quadratic_value(P, x) + additive_value(l, x) + coset_value(r, x)
        if not _close(vals[x], model, tol, exact):
            raise DecompositionError("decomposition residual is nonzero",
                                     _point_witness(x, vals[x], model))
    return P, l, r


# ---------------------------------------------------------------------------
# sweep-first decompositions


def sweep_first_recover_deg2(table, tol):
    if table.kind != KIND_REAL:
        raise IncompatibleTablesError("degree-2 recovery needs a real table")
    group = table.group
    rep = check_polynomial(table, 2, tol=tol)
    if not rep.holds:
        raise EquationFailsError(
            "table is not a polynomial of degree <= 2", rep
        )
    vals = table.values
    zero = group.zero()
    gens = group.generators()
    try:
        c0 = vals[zero]
        free = gens[: group.rank]
        pair_vals = {
            (j, k): vals[free[j] + free[k]]
            for j in range(group.rank)
            for k in range(j, group.rank)
        }
        gen_vals = [vals[e] for e in free]
    except KeyError as exc:
        raise DomainSizeError(
            "window must contain 0, the generators and their pairwise sums"
        ) from exc
    exact = _is_exact_table(table)
    d = group.dim
    mat = [[Fraction(0)] * d for _ in range(d)]
    for j in range(group.rank):
        for k in range(j, group.rank):
            a = _to_fraction(pair_vals[(j, k)] - gen_vals[j] - gen_vals[k] + c0) / 2
            mat[j][k] = mat[k][j] = a
    P = QuadraticForm(group, tuple(tuple(row) for row in mat))
    l = AdditiveMap(group, tuple(
        _to_fraction(gen_vals[j] - c0) - mat[j][j] for j in range(group.rank)
    ))
    c = _to_fraction(c0) if exact else c0
    for x, v in vals.items():
        model = quadratic_value(P, x) + additive_value(l, x) + c
        if not _close(v, model, tol, exact):
            raise DecompositionError(
                "recovered degree-2 model does not reproduce the table",
                _point_witness(x, v, model),
            )
    return P, l, c


def sweep_first_decompose_T(table, tol):
    if table.kind != KIND_REAL:
        raise IncompatibleTablesError("log-domain decomposition needs a real table")
    _require_decomposable_domain(table)
    rep = check_eq5(table, tol)
    if not rep.holds:
        raise EquationFailsError("triple-difference equation fails", rep)
    return split_T(table, tol)


def sweep_first_decompose_positive(f, g, tol):
    if f.kind != KIND_POSITIVE or g.kind != KIND_POSITIVE:
        raise IncompatibleTablesError("positive decomposition needs positive tables")
    rep = check_kb(f, g, tol)
    if not rep.holds:
        raise EquationFailsError("the functional equation fails", rep)
    exact = _is_exact_table(f) and _is_exact_table(g)
    P1, l1, r1 = sweep_first_decompose_T(f.as_real_log(), tol)
    P2, l2, r2 = sweep_first_decompose_T(g.as_real_log(), tol)
    for i in range(f.group.dim):
        for j in range(f.group.dim):
            if not _close(P1.matrix[i][j], P2.matrix[i][j], tol, exact):
                raise DecompositionError(
                    "quadratic parts of the two tables differ",
                    {"entry": [i, j],
                     "lhs": [P1.matrix[i][j].numerator, P1.matrix[i][j].denominator],
                     "rhs": [P2.matrix[i][j].numerator, P2.matrix[i][j].denominator]},
                )
    for idx, v in r1.entries:
        if not _close(r2.at(idx), -v, tol, exact):
            raise DecompositionError(
                "coset parts are not opposite",
                {"coset": list(idx.residues)},
            )
    return PositiveSolutionForm(P1, l1, l2, r1)


def _check_positive_real_at_zero(table, tol, name):
    v = table.values[table.group.zero()]
    if isinstance(v, Exact):
        if v.zero or v.turn != 0:
            raise DecompositionError(
                f"{name}(0) must be a positive real; a global -1 factor is "
                "not representable with sign maps fixed to 1 on X^(2)",
                _point_witness(table.group.zero(), v, 1),
            )
        return
    c = cval(v)
    if abs(c.imag) > tol or c.real <= 0:
        raise DecompositionError(
            f"{name}(0) must be a positive real; a global -1 factor is "
            "not representable with sign maps fixed to 1 on X^(2)",
            _point_witness(table.group.zero(), v, 1),
        )


def _phase_checks(p, tol, name):
    """``p(2x) = p(x)^2``, then ``p(x+y)^2 = p(x)^2 p(y)^2``, point by point."""
    fail = ref_checks.phase_failure(p, tol)
    if fail is None:
        return
    if fail[0] == "double":
        x = fail[1]
        raise DecompositionError(
            f"{name}(2x) != {name}(x)^2",
            _point_witness(x, p.values[p.group.scale(2, x)],
                           cmul(p.values[x], p.values[x])))
    raise DecompositionError(
        f"{name}(x+y)^2 != {name}(x)^2 {name}(y)^2",
        {"x": list(fail[1].coords), "y": list(fail[2].coords)},
    )


def _fit_doubled_turns(p, tol):
    group = p.group
    turns = []
    for i, e in enumerate(group.generators()):
        try:
            v = p.values[group.scale(2, e)]
        except KeyError:
            raise DomainSizeError("window must contain the doubled generators") from None
        if i < group.rank:
            order = None
        else:
            n = group.torsion[i - group.rank]
            order = n // 2 if n % 2 == 0 else n  # order of 2e_i
        turns.append(_unit_turn(v, order, tol))
    return turns


def _unit_turn(v, order: Optional[int], tol):
    if isinstance(v, Exact):
        if v.zero or v.log_abs != 0:
            raise DecompositionError("phase value is not unimodular")
        t = v.turn
        if order is not None and (t * order).denominator != 1:
            raise DecompositionError(
                f"phase at a doubled generator has no order dividing {order}"
            )
        return t
    c = cval(v)
    if abs(abs(c) - 1.0) > tol:
        raise DecompositionError("phase value is not unimodular")
    ang = Fraction(cmath.phase(c) / (2 * cmath.pi)) % 1
    if order is not None:
        k = round(ang * order) % order
        t = Fraction(k, order)
        if abs(cval(Exact.unit(t)) - c) > max(tol, 1e-6):
            raise DecompositionError(
                f"phase at a doubled generator has no order dividing {order}"
            )
        return t
    return ang.limit_denominator(10**6)


def _restriction_matches(p, alpha, tol):
    group = p.group
    for x, v in p.values.items():
        if any(r != 0 for r in group.coset_index(x, 2).residues):
            continue
        if not values_equal(v, character_value(alpha, x), tol):
            raise DecompositionError(
                "phase part is not multiplicative on the doubled subgroup",
                _point_witness(x, v, character_value(alpha, x)),
            )


def _sign_table_from_ratio(p, alpha, tol):
    out = {}
    for x, v in p.values.items():
        if isinstance(v, Exact):
            dt = (v.turn - character_turn(alpha, x)) % 1
            if v.log_abs != 0 or dt not in (Fraction(0), Fraction(1, 2)):
                raise DecompositionError(
                    "ratio to the extended character is not +-1",
                    _point_witness(x, v, character_value(alpha, x)),
                )
            out[x] = 1 if dt == 0 else -1
        else:
            ratio = cval(v) / cval(character_value(alpha, x))
            if abs(ratio - 1) <= tol:
                out[x] = 1
            elif abs(ratio + 1) <= tol:
                out[x] = -1
            else:
                raise DecompositionError(
                    "ratio to the extended character is not +-1",
                    _point_witness(x, v, character_value(alpha, x)),
                )
    return FuncTable(p.group, p.domain, KIND_SIGN, out)


def _require_even(tab, name):
    vals = dict(tab.values.items())
    for x, v in vals.items():
        if vals[-x] != v:
            raise DecompositionError(f"{name} is not even",
                                     _point_witness(x, v, vals[-x]))


def _sign_map_from_table(tab, modulus):
    group = tab.group
    reps: dict = {}
    for x, v in tab.values.items():
        reps.setdefault(group.coset_index(x, modulus), v)
    if len(reps) != group.coset_count(modulus):
        raise DomainSizeError(
            f"window does not meet every coset of X^({modulus})"
        )
    return SignMap.from_mapping(group, modulus, reps)


def hermitian_phase_part(ftab, tol, name, sweep=True):
    """Character + sign table of a unimodular phase table, sweeping the
    phase identities first unless ``sweep`` is off."""
    p = ftab.unimodular_part()
    if sweep:
        _phase_checks(p, tol, name)
    alpha = dec.extend_character(ftab.group, _fit_doubled_turns(p, tol))
    _restriction_matches(p, alpha, tol)
    s = _sign_table_from_ratio(p, alpha, tol)
    _require_even(s, f"{name}-sign part")
    return alpha, s


def sweep_first_decompose_hermitian(f, g, tol):
    f = dec._complexified(f)
    g = dec._complexified(g)
    if f.group != g.group or f.domain != g.domain:
        raise IncompatibleTablesError("tables must share group and domain")
    for name, tab in (("f", f), ("g", g)):
        for x, v in tab.values.items():
            if value_is_zero(v):
                raise DecompositionError(
                    f"{name} vanishes; this route needs non-vanishing tables",
                    _point_witness(x, 0, "nonzero"),
                )
        rep = ref_checks.check_hermitian(tab, tol)
        if not rep.holds:
            raise EquationFailsError(f"{name} is not Hermitian", rep)
    rep = check_kb(f, g, tol)
    if not rep.holds:
        raise EquationFailsError("the functional equation fails", rep)
    _check_positive_real_at_zero(f, tol, "f")
    _check_positive_real_at_zero(g, tol, "g")
    z = f.group.zero()
    f0, g0 = f.values[z], g.values[z]
    prod = f0 * g0 if isinstance(f0, Exact) and isinstance(g0, Exact) \
        else cval(f0) * cval(g0)
    if not values_equal(prod, Exact.one() if isinstance(prod, Exact) else 1.0, tol):
        raise DecompositionError("f(0) g(0) must equal 1",
                                 _point_witness(z, prod, 1))
    pform = sweep_first_decompose_positive(f.abs_log_table(), g.abs_log_table(), tol)
    exact = _is_exact_table(f) and _is_exact_table(g)
    if not all(_close(v, 0, tol, exact) for v in pform.l.coeffs + pform.m.coeffs):
        raise DecompositionError(
            "moduli have a nonzero additive part; they cannot be even solutions"
        )
    alpha, sa = hermitian_phase_part(f, tol, "f")
    beta, sb = hermitian_phase_part(g, tol, "g")
    rep = check_sign_eq26(sa, sb, tol)
    if not rep.holds:
        raise EquationFailsError("leftover signs violate the sign equation", rep)
    for name, s in (("f", sa), ("g", sb)):
        rep = ref_checks.check_coset_constant(s, 4, tol)
        if not rep.holds:
            raise EquationFailsError(
                f"{name}-sign part is not constant on quadrupled cosets", rep
            )
    return HermitianSolutionForm(
        alpha, beta,
        _sign_map_from_table(sa, 4), _sign_map_from_table(sb, 4),
        pform.P, pform.r, None,
    )


def sweep_first_decompose_self(f, tol):
    f = dec._complexified(f)
    for x, v in f.values.items():
        if value_is_zero(v):
            raise DecompositionError(
                "f vanishes; this route needs non-vanishing tables",
                _point_witness(x, 0, "nonzero"),
            )
    rep = ref_checks.check_hermitian(f, tol)
    if not rep.holds:
        raise EquationFailsError("f is not Hermitian", rep)
    rep = check_kb_self(f, tol)
    if not rep.holds:
        raise EquationFailsError("the one-function equation fails", rep)
    _check_positive_real_at_zero(f, tol, "f")
    exact = _is_exact_table(f)
    if not values_equal(f.values[f.group.zero()],
                        Exact.one() if exact else 1.0, tol):
        raise DecompositionError("f(0) must equal 1 in the one-function case")
    pform = sweep_first_decompose_positive(f.abs_log_table(), f.abs_log_table(), tol)
    if not all(_close(v, 0, tol, exact) for v in pform.l.coeffs):
        raise DecompositionError("modulus has a nonzero additive part")
    if not all(_close(v, 0, tol, exact) for _, v in pform.r.entries):
        raise DecompositionError(
            "coset part must vanish when the two functions coincide"
        )
    alpha, sa = hermitian_phase_part(f, tol, "f")
    rep = check_sign_eq26(sa, sa, tol)
    if not rep.holds:
        raise EquationFailsError(
            "leftover sign violates a(x+y) a(x-y) = 1", rep
        )
    rep = ref_checks.check_coset_constant(sa, 2, tol)
    if not rep.holds:
        raise EquationFailsError(
            "leftover sign is not constant on doubled cosets", rep
        )
    return alpha, _sign_map_from_table(sa, 2), pform.P


def sweep_first_decompose_vanishing(f, g, tol, character_budget=4096):
    f = dec._complexified(f)
    g = dec._complexified(g)
    if f.group != g.group or f.domain != g.domain:
        raise IncompatibleTablesError("tables must share group and domain")
    group = f.group
    if not group.doubling_is_onto():
        raise GroupHypothesisError(
            "the vanishing-support decomposition needs X^(2) = X "
            "(finite group with odd torsion orders only)"
        )
    if group.order() > character_budget:
        raise BudgetExceededError("group too large for character enumeration")
    pts = f.points()
    fvals, gvals = f.values.values(), g.values.values()
    if all(map(value_is_zero, fvals)) or all(map(value_is_zero, gvals)):
        raise DecompositionError("tables must not be identically zero")
    for name, tab in (("f", f), ("g", g)):
        rep = ref_checks.check_hermitian(tab, tol)
        if not rep.holds:
            raise EquationFailsError(f"{name} is not Hermitian", rep)
    rep = check_kb(f, g, tol)
    if not rep.holds:
        raise EquationFailsError("the functional equation fails", rep)
    z = group.zero()
    f0, g0 = f.values[z], g.values[z]
    if value_is_zero(f0) or value_is_zero(g0):
        raise DecompositionError("f(0) g(0) must equal 1, got 0")
    prod = f0 * g0 if isinstance(f0, Exact) and isinstance(g0, Exact) \
        else cval(f0) * cval(g0)
    if not values_equal(prod, Exact.one() if isinstance(prod, Exact) else 1.0,
                        tol):
        raise DecompositionError("f(0) g(0) must equal 1",
                                 _point_witness(z, prod, 1))
    _check_positive_real_at_zero(f, tol, "f")
    # equal moduli everywhere (includes matching supports)
    for x, fa, ga in zip(pts, fvals, gvals):
        if value_is_zero(fa) != value_is_zero(ga):
            raise DecompositionError("|f| != |g| (supports differ)",
                                     _point_witness(x, fa, ga))
        if value_is_zero(fa):
            continue
        # exact logs when both are exact, else the moduli within tol
        if isinstance(fa, Exact) and isinstance(ga, Exact):
            la, lb = fa.log_abs, ga.log_abs
        else:
            la, lb = abs(cval(fa)), abs(cval(ga))
        if not values_equal(la, lb, tol):
            raise DecompositionError("|f| != |g|", _point_witness(x, fa, ga))
    # supports match, so both restrictions share the keys in domain order
    f_on = {x: v for x, v in zip(pts, fvals) if not value_is_zero(v)}
    g_on = {x: v for x, v in zip(pts, gvals) if not value_is_zero(v)}
    for a in f_on:
        for b in f_on:
            if (a - b) not in f_on:
                raise DecompositionError(
                    "support is not a subgroup",
                    {"x": list(a.coords), "y": list(b.coords)},
                )
    if {group.scale(2, x) for x in f_on} != f_on.keys():
        raise DecompositionError("doubling is not onto the support")
    gens: list[GroupElement] = []
    known = {z}
    for x in f_on:
        if x not in known:
            gens.append(x)
            known = set(ref_checks.subgroup_closure(SubgroupSpec(group, tuple(gens))))
    sub = SubgroupSpec(group, tuple(gens))
    if quotient_has_order2(sub):
        raise DecompositionError(
            "quotient by the support subgroup has an element of order 2"
        )
    for x, v in f_on.items():
        la = v.log_abs if isinstance(v, Exact) else abs(cval(v))
        if not values_equal(la, Fraction(0) if isinstance(v, Exact) else 1.0,
                            tol):
            raise DecompositionError(
                "modulus is not 1 on the support", _point_witness(x, v, 1)
            )
    alpha = _fit_character_on(group, f_on.items(), tol)
    beta = _fit_character_on(group, g_on.items(), tol)
    form = HermitianSolutionForm(
        alpha, beta, SignMap.trivial(group, 4), SignMap.trivial(group, 4),
        QuadraticForm.zero(group), CosetConstantMap.zero(group), sub,
    )
    for x, fa, ga in zip(pts, fvals, gvals):
        fv, gv = exact_pair(form, x)
        if not (values_equal(fv, fa, tol) and values_equal(gv, ga, tol)):
            raise DecompositionError(
                "reconstructed form does not reproduce the input",
                _point_witness(x, fa, fv),
            )
    return form


def _fit_character_on(group, on_support, tol):
    """A character of the group agreeing with the ``(point, value)`` pairs."""
    for chi in ref_checks.all_characters(group):
        if all(values_equal(v, character_value(chi, x), tol) for x, v in on_support):
            return chi
    raise DecompositionError(
        "restricted phase does not agree with any character of the group"
    )
