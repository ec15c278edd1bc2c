"""Recover structured solution forms from raw solution tables.

The positive route goes through the log domain: a table satisfying the
triple-difference equation splits into an even part (quadratic form plus a
coset-constant map) and an odd part (an additive map), and the two log
tables of a pair must share the quadratic form and have opposite coset
maps.  The split itself, certified by a residual sweep over the whole
window, lives in :mod:`kbeq._split`, where :func:`kbeq.checks.check_kb`
uses it too; this module runs it under the equation sweeps below.

The Hermitian route first decomposes the moduli via the positive route,
then factors the unimodular part ``p`` into a character ``alpha`` (fitted
on the doubled subgroup and extended to the whole group with deterministic
principal square roots) times a +/-1-valued map, and validates every
structural claim: ``p = alpha`` on the doubled subgroup, ``p = +-alpha``
everywhere, evenness, the sign equation, and constancy on quadrupled (or
doubled, in the one-function case) cosets.  The phase identities
``p(2x) = p(x)^2`` and ``p(x+y)^2 = p(x)^2 p(y)^2`` are implied by the first
two on exact tables (both sides are powers of ``alpha``), so they are not
swept.  Every step reads the tables' stored arrays (``FuncTable.encoding``),
the character as one exact turn table; values are decoded only for a
witness.

Every decomposition certifies itself, then explains failures.  On exact
tables a form that passes the exact residual and structure checks solves
the equation on the whole group, so no equation sweep runs unless the
recovery raises; the sweeps then run in sweep-first order, and a failing
one is raised as :class:`~kbeq.errors.EquationFailsError` in place of the
recovery's own error.  Float tables are swept first: a residual within
``tol`` does not bound the equation's error by ``tol``.
"""

from __future__ import annotations

import cmath
from contextlib import contextmanager
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence

import numpy as np

from . import _vec
from ._split import (
    _forms,
    _is_exact_table,
    _pair_check,
    _point_witness,
    _positive_form,
    _require_decomposable_domain,
    _split_parts,
    _to_fraction,
    extend_biadditive,
)
from .checks import (
    DEFAULT_TOL,
    _require_same,
    check_coset_constant,
    check_eq5,
    check_hermitian,
    check_kb,
    check_kb_self,
    check_polynomial,
    check_sign_eq26,
)
from .errors import (
    BudgetExceededError,
    DecompositionError,
    DomainSizeError,
    EquationFailsError,
    GroupHypothesisError,
    IncompatibleTablesError,
    KbeqError,
)
from .functions import (
    AdditiveMap,
    CharacterSpec,
    CosetConstantMap,
    Exact,
    FuncTable,
    HermitianSolutionForm,
    KIND_COMPLEX,
    KIND_POSITIVE,
    KIND_REAL,
    KIND_SIGN,
    PositiveSolutionForm,
    QuadraticForm,
    SignMap,
    _zero_mask,
    cval,
    value_is_zero,
    values_equal,
)
from .groups import GroupElement, GroupSpec, SubgroupSpec

__all__ = [
    "recover_deg2",
    "extend_biadditive",
    "extend_additive",
    "decompose_T",
    "decompose_positive",
    "extend_character",
    "decompose_hermitian",
    "decompose_self",
    "decompose_vanishing",
]

def _require(rep, message: str):
    if not rep.holds:
        raise EquationFailsError(message, rep)


@contextmanager
def _certified(tables, check, message: str):
    """Run a decomposition body under its equation sweep ``check()``: first
    on float tables, and on exact ones only once the body has raised."""
    exact = all(map(_is_exact_table, tables))
    if not exact:
        _require(check(), message)
    try:
        yield
    except KbeqError:
        if exact:
            _require(check(), message)
        raise


# ---------------------------------------------------------------------------
# degree-2 recovery and the halving extensions


def _close(a, b, tol: float, exact: bool) -> bool:
    if exact:
        return a == b
    return abs(float(a) - float(b)) <= tol


def recover_deg2(table: FuncTable, tol: float = DEFAULT_TOL):
    """Recover (P, l, c) with ``T = P + l + c`` from a degree-<=2 table.

    The biadditive part is half the mixed second difference at generator
    pairs, the additive part is what remains at generators, and the whole
    window is re-checked exactly afterwards.
    """
    if table.kind != KIND_REAL:
        raise IncompatibleTablesError("degree-2 recovery needs a real table")
    with _certified((table,), lambda: check_polynomial(table, 2, tol=tol),
                    "table is not a polynomial of degree <= 2"):
        group = table.group
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
            model = P.value(x) + l.value(x) + c
            if not _close(v, model, tol, exact):
                raise DecompositionError(
                    "recovered degree-2 model does not reproduce the table",
                    _point_witness(x, v, model),
                )
        return P, l, c


def extend_additive(group: GroupSpec, doubled: Sequence) -> AdditiveMap:
    """Extend an additive map given on doubled generators (halving)."""
    vals = list(doubled)
    if len(vals) != group.dim:
        raise DecompositionError("need one doubled-generator value per coordinate")
    for i in range(group.rank, group.dim):
        if vals[i]:
            raise DecompositionError(
                "nonzero torsion entry: not a real additive map on X^(2)"
            )
    return AdditiveMap(group, tuple(_to_fraction(v) / 2
                                    for v in vals[: group.rank]))


# ---------------------------------------------------------------------------
# the log-domain decomposition


def decompose_T(table: FuncTable, tol: float = DEFAULT_TOL):
    """Split a real table into (P, l, r) with ``T = P + l + r``.

    Requires the triple-difference equation to hold on the window.  The
    table is read as one array (:func:`kbeq._vec.numeric_mode`: exact
    numerators over one denominator, or floats when it holds any float).
    The odd part ``(T(x) - T(-x)) / 2`` gives the additive map at the
    generators; the even part gives the quadratic form from doubled second
    differences and the per-coset constants at each coset's first point.
    One residual sweep of the whole window against the recovered form,
    exact for exact tables and within ``tol`` for float tables, certifies
    the output.  Only when the residual fails is the odd part compared with
    the additive map everywhere, so that a non-additive odd part is the
    error reported.
    """
    if table.kind != KIND_REAL:
        raise IncompatibleTablesError("log-domain decomposition needs a real table")
    return _forms(table.group, _decompose_parts(table, tol))


def _decompose_parts(table: FuncTable, tol: float):
    """:func:`decompose_T` as the split's integer parts; a positive table
    splits as the real table of its logs."""
    _require_decomposable_domain(table)

    def eq5():
        real = table.as_real_log() if table.kind == KIND_POSITIVE else table
        return check_eq5(real, tol)

    with _certified((table,), eq5, "triple-difference equation fails"):
        return _split_parts(table, tol)


# ---------------------------------------------------------------------------
# positive pairs


def decompose_positive(f: FuncTable, g: FuncTable,
                       tol: float = DEFAULT_TOL) -> PositiveSolutionForm:
    """Recover the structured form of a positive solution pair.

    Both log tables are decomposed independently, into the integer parts of
    :mod:`kbeq._split`; the theory forces equal quadratic parts and opposite
    coset parts, and both facts are verified on those arrays (exactly for
    rational tables) before the form is built from them.  An exact table
    reuses the split a :func:`~kbeq.checks.check_kb` certificate kept on it.
    """
    if f.kind != KIND_POSITIVE or g.kind != KIND_POSITIVE:
        raise IncompatibleTablesError("positive decomposition needs positive tables")
    _require_same(f, g)
    with _certified((f, g), lambda: check_kb(f, g, tol),
                    "the functional equation fails"):
        parts = _decompose_parts(f, tol), _decompose_parts(g, tol)
        _pair_check(f.group, *parts, tol, _is_exact_table(f) and _is_exact_table(g))
        return _positive_form(f.group, *parts)


# ---------------------------------------------------------------------------
# character extension


def extend_character(group: GroupSpec,
                     doubled_turns: Sequence) -> CharacterSpec:
    """Extend a character of ``X^(2)`` (given by turns at doubled generators).

    Free and even-torsion generators take the principal square root (turn in
    ``[0, 1/2)``); odd-order generators are already determined because
    doubling is onto there.  The restriction back to doubled generators
    reproduces the input exactly.
    """
    turns = [Fraction(t) % 1 for t in doubled_turns]
    if len(turns) != group.dim:
        raise DecompositionError("need one turn per coordinate (value at 2e_i)")
    free = tuple(t / 2 for t in turns[: group.rank])
    exps = []
    for i, n in enumerate(group.torsion):
        t = turns[group.rank + i]
        if n % 2 == 0:
            m = n // 2  # order of 2e_i
            scaled = t * m
            if scaled.denominator != 1:
                raise DecompositionError(
                    "turn at a doubled generator is not a character value "
                    f"(order {m} requires a multiple of 1/{m})",
                    {"coordinate": group.rank + i},
                )
            exps.append(int(scaled))  # alpha(e_i) = k/n with k = t*n/2, in [0, n/2)
        else:
            scaled = t * n
            if scaled.denominator != 1:
                raise DecompositionError(
                    "turn at a doubled generator is not a character value "
                    f"(order {n} requires a multiple of 1/{n})",
                    {"coordinate": group.rank + i},
                )
            exps.append((int(scaled) * ((n + 1) // 2)) % n)
    alpha = CharacterSpec(group, free, tuple(exps))
    for i, e in enumerate(group.generators()):
        if alpha.turn(group.scale(2, e)) != turns[i]:
            raise DecompositionError("extension failed to restrict correctly")
    return alpha


def _all_characters(group: GroupSpec):
    """Every character of a finite group, lexicographic in exponent tuples."""
    if not group.is_finite:
        raise GroupHypothesisError("character enumeration needs a finite group")
    for exps in product(*(range(n) for n in group.torsion)):
        yield CharacterSpec(group, (), exps)


# ---------------------------------------------------------------------------
# hermitian pairs


def _complexified(table: FuncTable) -> FuncTable:
    mode, arrays, denom = table.encoding
    if table.kind == KIND_COMPLEX:
        return table
    if table.kind == KIND_SIGN:
        return table.unimodular_part()
    if table.kind != KIND_POSITIVE:
        raise IncompatibleTablesError(
            "hermitian decomposition needs complex, sign or positive tables"
        )
    if mode == "float":
        enc = ("complex", np.exp(arrays).astype(np.complex128), 1)
    else:
        zeros = np.zeros(len(arrays), dtype=np.int64)
        enc = ("exact", (arrays, denom, zeros, 1, zeros.astype(bool)), 1)
    return FuncTable._of(table.group, table.domain, KIND_COMPLEX, enc)


def _at_zero(tables):
    """The product of the tables' values at 0, read from their arrays:
    ``(log, turn)`` rationals when every table is exact, else a complex
    number; None when a value is zero."""
    z = tables[0]._index(tables[0].group.zero())
    if any(_zero_mask(t.encoding)[z] for t in tables):
        return None
    if not all(map(_is_exact_table, tables)):
        prod, *rest = (cval(t.values[t.group.zero()]) for t in tables)
        for v in rest:
            prod *= v
        return prod
    _, encs, _ = zip(*(t.encoding for t in tables))
    return (sum(Fraction(int(lg[z]), lgd) for lg, lgd, *_ in encs),
            sum(Fraction(int(tn[z]), tnd) for _, _, tn, tnd, _ in encs) % 1)


def _is_one(v, tol: float) -> bool:
    """Is an :func:`_at_zero` product one (exactly, or within ``tol``)?"""
    if isinstance(v, tuple):
        return v == (0, 0)
    return v is not None and abs(v - 1) <= tol


def _check_positive_real_at_zero(table: FuncTable, tol: float, name: str):
    v = _at_zero((table,))
    if isinstance(v, tuple):
        bad = v[1] != 0
    else:
        bad = v is None or abs(v.imag) > tol or v.real <= 0
    if bad:
        zero = table.group.zero()
        raise DecompositionError(
            f"{name}(0) must be a positive real; a global -1 factor is "
            "not representable with sign maps fixed to 1 on X^(2)",
            _point_witness(zero, table.values[zero], 1),
        )


def _require_nonvanishing(table: FuncTable, name: str):
    zeros = np.flatnonzero(_zero_mask(table.encoding))
    if len(zeros):
        raise DecompositionError(
            f"{name} vanishes; this route needs non-vanishing tables",
            _point_witness(table.points()[zeros[0]], 0, "nonzero"),
        )


def _require_unit_product_at_zero(f: FuncTable, g: FuncTable, tol: float):
    prod = _at_zero((f, g))
    if prod is None:
        raise DecompositionError("f(0) g(0) must equal 1, got 0")
    if not _is_one(prod, tol):
        raise DecompositionError(
            "f(0) g(0) must equal 1",
            _point_witness(f.group.zero(),
                           Exact(*prod) if isinstance(prod, tuple) else prod, 1))


def _fit_doubled_turns(p: FuncTable, tol: float) -> list[Fraction]:
    """Turns of the character candidate at doubled generators."""
    group = p.group
    mode, arrays, _ = p.encoding
    turns = []
    for i, e in enumerate(group.generators()):
        try:
            k = p._index(group.scale(2, e))
        except KeyError:
            raise DomainSizeError("window must contain the doubled generators") from None
        if i < group.rank:
            order = None
        else:
            n = group.torsion[i - group.rank]
            order = n // 2 if n % 2 == 0 else n  # order of 2e_i
        v = Fraction(int(arrays[2][k]), arrays[3]) if mode == "exact" else complex(arrays[k])
        turns.append(_unit_turn(v, order, tol))
    return turns


def _unit_turn(v, order: Optional[int], tol: float) -> Fraction:
    """The turn of a unimodular phase value: exact tables give the turn
    itself, float tables a complex value, rounded to a turn."""
    if isinstance(v, Fraction):
        if order is not None and (v * order).denominator != 1:
            raise DecompositionError(
                f"phase at a doubled generator has no order dividing {order}"
            )
        return v
    if abs(abs(v) - 1.0) > tol:
        raise DecompositionError("phase value is not unimodular")
    ang = Fraction(cmath.phase(v) / (2 * cmath.pi)) % 1
    if order is not None:
        k = round(ang * order) % order
        t = Fraction(k, order)
        if abs(cval(Exact.unit(t)) - v) > max(tol, 1e-6):
            raise DecompositionError(
                f"phase at a doubled generator has no order dividing {order}"
            )
        return t
    return ang.limit_denominator(10**6)


def _character_table(alpha: CharacterSpec, p: FuncTable) -> FuncTable:
    """``alpha`` on the domain of ``p`` as one exact turn table: the turns
    ``coords @ t mod 1``, with ``t`` the turns of the generators over one
    denominator."""
    group = alpha.group
    info = _vec.domain_info(group, p.domain)
    t, den = _vec._over(
        [q.numerator for q in alpha.free_turns] + list(alpha.torsion_exponents),
        [q.denominator for q in alpha.free_turns] + list(group.torsion))
    coords = info.coords.astype(np.int64)
    bound = sum(map(abs, t.tolist())) * int(np.abs(coords).max(initial=0))
    if t.dtype == object or max(bound, den) > _vec._INT_LIMIT:
        t, coords = t.astype(object), coords.astype(object)
    zeros = np.zeros(info.n, dtype=np.int64)
    return FuncTable._of(group, p.domain, KIND_COMPLEX,
                         ("exact", (zeros, 1, coords @ t % den, den, zeros.astype(bool)), 1))


def _restriction_matches(p: FuncTable, alpha: FuncTable, tol: float):
    """``p`` equals the character table ``alpha`` on ``X^(2)``."""
    info = _vec.domain_info(p.group, p.domain)
    doubled = np.flatnonzero(_vec.coset_codes(info, 2)[0] == 0)
    w = _vec.first_failure(_vec.numeric_mode([p, alpha]), [doubled],
                           ((0, 0, 1), (1, 0, -1)), tol, False)
    if w is not None:
        x = p.points()[doubled[w]]
        raise DecompositionError(
            "phase part is not multiplicative on the doubled subgroup",
            _point_witness(x, p.values[x], alpha.values[x]),
        )


def _sign_table_from_ratio(p: FuncTable, alpha: FuncTable, tol: float) -> FuncTable:
    """The sign table ``p / alpha``: turn differences 0 or 1/2 on exact
    tables (the logs of ``p`` are zero), ratios within ``tol`` of +-1 on
    float ones."""
    kind, (pv, av), denom = _vec.numeric_mode([p, alpha])
    if kind == "exact":
        pt, at = _vec._fitted([pv[1], av[1]], lambda m: 2 * max(m, denom))
        dt = (pt - at) % denom
        minus = 2 * dt == denom
        bad = (dt != 0) & ~minus
    else:
        ratio = pv / av
        plus = np.abs(ratio - 1) <= tol
        minus = ~plus & (np.abs(ratio + 1) <= tol)
        bad = ~(plus | minus)
    if bad.any():
        x = p.points()[int(np.argmax(bad))]
        raise DecompositionError(
            "ratio to the extended character is not +-1",
            _point_witness(x, p.values[x], alpha.values[x]),
        )
    return FuncTable._of(p.group, p.domain, KIND_SIGN,
                         ("parity", minus.astype(np.int64), 1))


def _require_even(tab: FuncTable, name: str):
    rep = check_hermitian(tab)  # a sign table is its own conjugate
    if not rep.holds:
        w = rep.witness
        raise DecompositionError(f"{name} is not even",
                                 _point_witness(w.points[0], w.rhs, w.lhs))


def _sign_map_from_table(tab: FuncTable, modulus: int) -> SignMap:
    """The sign map of a sign table, read at each coset's first point."""
    group = tab.group
    codes, _ = _vec.coset_codes(_vec.domain_info(group, tab.domain), modulus)
    _, first = np.unique(codes, return_index=True)
    if len(first) != group.coset_count(modulus):
        raise DomainSizeError(
            f"window does not meet every coset of X^({modulus})"
        )
    # codes ascend with the cosets' residues, as coset_indices does
    signs = (1 - 2 * tab.encoding[1][first]).tolist()
    return SignMap(group, modulus, tuple(zip(group.coset_indices(modulus), signs)))


def _hermitian_phase_part(ftab: FuncTable, tol: float, name: str):
    """Character + sign table of a unimodular phase table ``p``.

    The character ``alpha`` is fitted at the doubled generators and
    extended; ``p`` must equal ``alpha`` on ``X^(2)`` and ``+-alpha`` at
    every window point, and the sign table is ``p / alpha``.  On exact
    tables this implies the phase identities, which are therefore not
    swept: ``p(2x) = alpha(2x) = alpha(x)^2 = p(x)^2`` and
    ``p(x+y)^2 = alpha(x+y)^2 = alpha(x)^2 alpha(y)^2 = p(x)^2 p(y)^2``.
    """
    p = ftab.unimodular_part()
    alpha = extend_character(ftab.group, _fit_doubled_turns(p, tol))
    alpha_table = _character_table(alpha, p)
    _restriction_matches(p, alpha_table, tol)
    s = _sign_table_from_ratio(p, alpha_table, tol)
    _require_even(s, f"{name}-sign part")
    return alpha, s


def decompose_hermitian(f: FuncTable, g: FuncTable,
                        tol: float = DEFAULT_TOL) -> HermitianSolutionForm:
    """Recover characters, sign maps, quadratic and coset parts of a
    Hermitian non-vanishing solution pair.

    Validates Hermitian symmetry, non-vanishing, the equation (see the
    module docstring), that each phase equals its extended character on the
    doubled subgroup and +-1 times it everywhere, and that the leftover
    signs are even, satisfy the sign equation, and are constant on
    quadrupled cosets.  The phase identities ``p(2x) = p(x)^2`` and
    ``p(x+y)^2 = p(x)^2 p(y)^2`` follow from the character factorization on
    exact tables (see :func:`_hermitian_phase_part`) and are not swept.
    """
    f = _complexified(f)
    g = _complexified(g)
    if f.group != g.group or f.domain != g.domain:
        raise IncompatibleTablesError("tables must share group and domain")
    for name, tab in (("f", f), ("g", g)):
        _require_nonvanishing(tab, name)
        _require(check_hermitian(tab, tol), f"{name} is not Hermitian")
    with _certified((f, g), lambda: check_kb(f, g, tol),
                    "the functional equation fails"):
        _check_positive_real_at_zero(f, tol, "f")
        _check_positive_real_at_zero(g, tol, "g")
        _require_unit_product_at_zero(f, g, tol)
        pform = decompose_positive(f.abs_log_table(), g.abs_log_table(), tol)
        exact = _is_exact_table(f) and _is_exact_table(g)
        if not (_all_close(pform.l.coeffs, tol, exact)
                and _all_close(pform.m.coeffs, tol, exact)):
            raise DecompositionError(
                "moduli have a nonzero additive part; they cannot be even solutions"
            )
        alpha, sa = _hermitian_phase_part(f, tol, "f")
        beta, sb = _hermitian_phase_part(g, tol, "g")
        _require(check_sign_eq26(sa, sb, tol),
                 "leftover signs violate the sign equation")
        for name, s in (("f", sa), ("g", sb)):
            _require(check_coset_constant(s, 4, tol),
                     f"{name}-sign part is not constant on quadrupled cosets")
        return HermitianSolutionForm(
            alpha, beta,
            _sign_map_from_table(sa, 4), _sign_map_from_table(sb, 4),
            pform.P, pform.r, None,
        )


def _all_close(values, tol: float, exact: bool) -> bool:
    return all(_close(v, 0, tol, exact) for v in values)


def decompose_self(f: FuncTable, tol: float = DEFAULT_TOL):
    """One-function case: returns (character, sign map mod 2, quadratic form).

    Compared with the two-function case the coset part must vanish and the
    leftover sign is constant on doubled (not just quadrupled) cosets; it
    still need not be multiplicative.
    """
    f = _complexified(f)
    _require_nonvanishing(f, "f")
    _require(check_hermitian(f, tol), "f is not Hermitian")
    with _certified((f,), lambda: check_kb_self(f, tol),
                    "the one-function equation fails"):
        _check_positive_real_at_zero(f, tol, "f")
        if not _is_one(_at_zero((f,)), tol):
            raise DecompositionError("f(0) must equal 1 in the one-function case")
        exact = _is_exact_table(f)
        pform = decompose_positive(f.abs_log_table(), f.abs_log_table(), tol)
        if not _all_close(pform.l.coeffs, tol, exact):
            raise DecompositionError("modulus has a nonzero additive part")
        if not all(_close(v, 0, tol, exact) for _, v in pform.r.entries):
            raise DecompositionError(
                "coset part must vanish when the two functions coincide"
            )
        alpha, sa = _hermitian_phase_part(f, tol, "f")
        _require(check_sign_eq26(sa, sa, tol),
                 "leftover sign violates a(x+y) a(x-y) = 1")
        _require(check_coset_constant(sa, 2, tol),
                 "leftover sign is not constant on doubled cosets")
        return alpha, _sign_map_from_table(sa, 2), pform.P


# ---------------------------------------------------------------------------
# vanishing solutions on groups with onto doubling


def decompose_vanishing(f: FuncTable, g: FuncTable, tol: float = DEFAULT_TOL,
                        character_budget: int = 4096) -> HermitianSolutionForm:
    """Support-restricted decomposition on a group with ``X^(2) = X``.

    Requires a finite group with onto doubling.  Verifies ``f(0) g(0) = 1``,
    equal moduli, that the common support is a subgroup whose quotient has
    no element of order 2, that the modulus is 1 on the support, and fits
    characters on the support by deterministic enumeration.
    """
    f = _complexified(f)
    g = _complexified(g)
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
        _require(check_hermitian(tab, tol), f"{name} is not Hermitian")
    with _certified((f, g), lambda: check_kb(f, g, tol),
                    "the functional equation fails"):
        _require_unit_product_at_zero(f, g, tol)
        _check_positive_real_at_zero(f, tol, "f")
        # equal moduli everywhere (includes matching supports)
        for x, fa, ga in zip(pts, fvals, gvals):
            if value_is_zero(fa) != value_is_zero(ga):
                raise DecompositionError("|f| != |g| (supports differ)",
                                         _point_witness(x, fa, ga))
            if value_is_zero(fa):
                continue
            la = fa.log_abs if isinstance(fa, Exact) else abs(cval(fa))
            lb = ga.log_abs if isinstance(ga, Exact) else abs(cval(ga))
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
        known = {group.zero()}
        for x in f_on:
            if x not in known:
                gens.append(x)
                known = set(SubgroupSpec(group, tuple(gens)).elements())
        sub = SubgroupSpec(group, tuple(gens))
        if sub.quotient_has_order2():
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
            fv, gv = form.exact_pair(x)
            if not (values_equal(fv, fa, tol) and values_equal(gv, ga, tol)):
                raise DecompositionError(
                    "reconstructed form does not reproduce the input",
                    _point_witness(x, fa, fv),
                )
        return form


def _fit_character_on(group: GroupSpec, on_support, tol: float) -> CharacterSpec:
    """A character of the group agreeing with the ``(point, value)`` pairs."""
    for chi in _all_characters(group):
        if all(values_equal(v, chi.value(x), tol) for x, v in on_support):
            return chi
    raise DecompositionError(
        "restricted phase does not agree with any character of the group"
    )
