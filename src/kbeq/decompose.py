"""Recover structured solution forms from raw solution tables.

The positive route goes through the log domain: a table satisfying the
triple-difference equation splits into an even part (quadratic form plus a
coset-constant map) and an odd part (an additive map), and the two log
tables of a pair must share the quadratic form and have opposite coset
maps.  The split itself lives in :mod:`kbeq._split`; its pair routine
``_split_positive`` is the one split of positive pairs.

The Hermitian route first splits the moduli as a positive pair, then
factors the unimodular part ``p`` into a character ``alpha`` (fitted
on the doubled subgroup and extended to the whole group with deterministic
principal square roots) times a +/-1-valued map, and validates every
structural claim: ``p = alpha`` on the doubled subgroup, ``p = +-alpha``
everywhere, evenness, the sign equation, and constancy on quadrupled
cosets (in the one-function case the sign equation implies constancy on
doubled cosets, see :func:`decompose_self`).  The phase identities
``p(2x) = p(x)^2`` and ``p(x+y)^2 = p(x)^2 p(y)^2`` are implied by the first
two on exact tables (both sides are powers of ``alpha``), so they are not
swept.  Every step reads the tables' stored arrays (``FuncTable.encoding``),
the character as one exact turn table; values are decoded only for a
witness.  So does the vanishing route: its support is the zero mask, its
support subgroup a mask grown generator by generator, and its characters
are fitted at the support generators; on an odd-order group the support
subgroup needs no doubling or order-2 test, and the fitted form needs no
comparison with the input (see :func:`decompose_vanishing`).

Each decomposition certifies once, then explains, by the rule of
:func:`kbeq.checks._certified`: it passes its recovery and its equation's
sweep, a failing sweep raises :class:`~kbeq.errors.EquationFailsError`,
and none calls another.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import _vec
from ._split import (
    _Parts,
    _forms,
    _is_exact_table,
    _point_witness,
    _positive_form,
    _require_decomposable_domain,
    _split_parts,
    _split_positive,
    _to_fraction,
    extend_biadditive,
)
from .checks import (
    DEFAULT_TOL,
    _certified,
    _eq5_sweep,
    _kb_sweep,
    _require_same,
    check_coset_constant,
    check_hermitian,
    check_polynomial,
    check_sign_eq26,
)
from .errors import (
    DecompositionError,
    DomainSizeError,
    EquationFailsError,
    GroupHypothesisError,
    IncompatibleTablesError,
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
    _character_table,
    _zero_mask,
    cval,
)
from .groups import GroupSpec, SubgroupSpec

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


def _decomposed(tables, body, sweep, message: str):
    """The value of ``body()`` certified by :func:`kbeq.checks._certified`
    against the equation's ``sweep()``; raises the failing sweep as
    ``message``, else the body's own error."""
    value, report, error = _certified(tables, body, sweep)
    if report is not None:
        _require(report, message)
    if error is not None:
        raise error
    return value


# ---------------------------------------------------------------------------
# degree-2 recovery and the halving extensions


def recover_deg2(table: FuncTable, tol: float = DEFAULT_TOL):
    """Recover (P, l, c) with ``T = P + l + c`` from a degree-<=2 table.

    The table is read as one array (:func:`kbeq._vec.numeric_mode`) at 0,
    the generators and their pairwise sums: the biadditive part is half the
    mixed second difference (a float one rounded to a rational first), the
    additive part is what remains at the generators, and ``c`` is the value
    at 0 (unrounded on a float table).  The model over the whole window,
    from :func:`kbeq._vec.form_values`, is compared with the table once.
    """
    if table.kind != KIND_REAL:
        raise IncompatibleTablesError("degree-2 recovery needs a real table")

    def body():
        group, d, rank = table.group, table.group.dim, table.group.rank
        info = _vec.domain_info(group, table.domain)
        J, K = np.triu_indices(rank)
        eye = np.eye(d, dtype=np.int64)[:rank]
        probes = np.concatenate([np.zeros((1, d), dtype=np.int64), eye, eye[J] + eye[K]])
        at, inside = _vec.point_codes(info, probes)
        if not inside.all():
            raise DomainSizeError(
                "window must contain 0, the generators and their pairwise sums")
        kind, (T,), denom = _vec.numeric_mode([table])
        c0, gen, pair = T[at[0]], T[at[1:1 + rank]], T[at[1 + rank:]]
        exact = kind != "float"
        # the mixed second differences, then the generators' values less c0
        read = np.concatenate([pair - gen[J] - gen[K] + c0, gen - c0])
        nums, den = (read, denom) if exact else _vec._fractions_over(
            [_to_fraction(v) for v in read.tolist()])
        B = np.zeros((d, d), dtype=nums.dtype)
        B[J, K] = B[K, J] = nums[:len(J)]
        # over 2 den; an exact c is the model's coset part, a float one is added
        r = np.full(group.coset_count(2), 2 * c0 if exact else 0, dtype=B.dtype)
        parts = _Parts(B, 2 * nums[len(J):] - B.diagonal()[:rank], r, 2 * den)
        mn, md = _vec.form_values(*parts, info)
        c = Fraction(int(c0), denom) if exact else float(c0)
        i = _vec.first_difference(
            table, ("int", mn, md) if exact else ("float", mn / md + c, 1), tol)
        if i is not None:
            x = table._point(i)
            rhs = Fraction(int(mn[i]), md) + (0 if exact else c)
            raise DecompositionError(
                "recovered degree-2 model does not reproduce the table",
                _point_witness(x, table.values[x], rhs))
        P, l, _ = _forms(group, parts)
        return P, l, c

    return _decomposed((table,), body, lambda: check_polynomial(table, 2, tol=tol),
                       "table is not a polynomial of degree <= 2")


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
    The split (:func:`kbeq._split._split_parts`) reads the additive map
    from the odd part and the quadratic form and coset constants from the
    even part, and one residual over the whole window certifies it.
    """
    if table.kind != KIND_REAL:
        raise IncompatibleTablesError("log-domain decomposition needs a real table")
    _require_decomposable_domain(table)
    return _decomposed(
        (table,), lambda: _forms(table.group, _split_parts(table, tol)),
        lambda: _eq5_sweep(table, tol), "triple-difference equation fails")


# ---------------------------------------------------------------------------
# positive pairs


def decompose_positive(f: FuncTable, g: FuncTable,
                       tol: float = DEFAULT_TOL) -> PositiveSolutionForm:
    """Recover the structured form of a positive solution pair.

    The form is read from :func:`kbeq._split._split_positive`, which is
    also :func:`~kbeq.checks.check_kb`'s certificate; an exact table that
    ``check_kb`` certified is not split again.
    """
    if f.kind != KIND_POSITIVE or g.kind != KIND_POSITIVE:
        raise IncompatibleTablesError("positive decomposition needs positive tables")
    _require_same(f, g)
    return _decomposed(
        (f, g), lambda: _positive_form(f.group, *_split_positive(f, g, tol)),
        lambda: _kb_sweep(f, g, tol), "the functional equation fails")


# ---------------------------------------------------------------------------
# character extension


def extend_character(group: GroupSpec,
                     doubled_turns: Sequence) -> CharacterSpec:
    """Extend a character of ``X^(2)`` (given by turns at doubled generators).

    Free and even-torsion generators take the principal square root (turn in
    ``[0, 1/2)``); odd-order generators are already determined because
    doubling is onto there.  The restriction back to doubled generators
    reproduces each input turn ``t`` by construction, so it is not checked:
    a free coordinate takes ``t/2``; an even order ``n`` takes ``k = t n/2``,
    and ``2k/n = t``; an odd order ``n`` takes ``k = t n (n+1)/2 mod n``,
    and ``2k/n = t (n+1) = t`` modulo 1, since ``t n`` is an integer.
    """
    turns = [Fraction(t) % 1 for t in doubled_turns]
    if len(turns) != group.dim:
        raise DecompositionError("need one turn per coordinate (value at 2e_i)")
    free = tuple(t / 2 for t in turns[: group.rank])
    exps = []
    for i, n in enumerate(group.torsion):
        t = turns[group.rank + i]
        m = n // 2 if n % 2 == 0 else n  # order of 2e_i
        if (t * m).denominator != 1:
            raise DecompositionError(
                "turn at a doubled generator is not a character value "
                f"(order {m} requires a multiple of 1/{m})",
                {"coordinate": group.rank + i},
            )
        # alpha(e_i) = k/n: k = t*n/2 in [0, n/2) for even n, else determined
        exps.append(int(t * m) if n % 2 == 0 else int(t * n) * ((n + 1) // 2) % n)
    return CharacterSpec(group, free, tuple(exps))


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


def _check_positive_real_at_zero(table: FuncTable, tol: float, name: str):
    v = _at_zero((table,))
    if isinstance(v, tuple):
        bad = v[1] != 0
    else:
        bad = v is None or _vec.apart(v.imag, 0.0, tol) or v.real <= 0
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
            _point_witness(table._point(zeros[0]), 0, "nonzero"),
        )


def _require_unit_product_at_zero(f: FuncTable, g: FuncTable, tol: float):
    prod = _at_zero((f, g))
    if prod is None:
        raise DecompositionError("f(0) g(0) must equal 1, got 0")
    if prod != (0, 0) if isinstance(prod, tuple) else _vec.apart(prod, 1, tol):
        raise DecompositionError(
            "f(0) g(0) must equal 1",
            _point_witness(f.group.zero(),
                           Exact(*prod) if isinstance(prod, tuple) else prod, 1))


def _fit_doubled_turns(p: FuncTable, tol: float) -> list[Fraction]:
    """Turns of the character candidate at doubled generators; the window
    holds every ``2e_j``, since the moduli's split, run first, needs Box
    radius >= 4 and a Box takes every torsion residue."""
    group = p.group
    mode, arrays, _ = p.encoding
    turns = []
    for i, e in enumerate(group.generators()):
        k = p._index(group.scale(2, e))
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
    if _vec.apart(abs(v), 1.0, tol):
        raise DecompositionError("phase value is not unimodular")
    ang = Fraction(cmath.phase(v) / (2 * cmath.pi)) % 1
    if order is not None:
        k = round(ang * order) % order
        t = Fraction(k, order)
        if _vec.apart(cval(Exact.unit(t)), v, max(tol, 1e-6)):
            raise DecompositionError(
                f"phase at a doubled generator has no order dividing {order}"
            )
        return t
    return ang.limit_denominator(10**6)


def _restriction_matches(p: FuncTable, alpha: FuncTable, tol: float):
    """``p`` equals the character table ``alpha`` on ``X^(2)``."""
    codes = _vec.coset_codes(_vec.domain_info(p.group, p.domain), 2)
    i = _vec.first_difference(p, alpha, tol, np.flatnonzero(codes == 0))
    if i is not None:
        x = p._point(i)
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
        plus = ~_vec.apart(ratio, 1, tol)
        minus = ~plus & ~_vec.apart(ratio, -1, tol)
        bad = ~(plus | minus)
    if bad.any():
        x = p._point(int(np.argmax(bad)))
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
    """The sign map of a sign table, read at each coset's first point; the
    window meets every coset of ``X^(4)``, since the moduli's split, run
    first, needs Box radius >= 4 and a Box takes every torsion residue."""
    group = tab.group
    codes = _vec.coset_codes(_vec.domain_info(group, tab.domain), modulus)
    _, first = np.unique(codes, return_index=True)
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
    alpha_table = _character_table(alpha, p.domain)
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
    _require_same(f, g)
    for name, tab in (("f", f), ("g", g)):
        _require_nonvanishing(tab, name)
        _require(check_hermitian(tab, tol), f"{name} is not Hermitian")

    def body():
        _check_positive_real_at_zero(f, tol, "f")
        _check_positive_real_at_zero(g, tol, "g")
        _require_unit_product_at_zero(f, g, tol)
        pform = _positive_form(
            f.group, *_split_positive(f.abs_log_table(), g.abs_log_table(), tol))
        lm = pform.l.coeffs + pform.m.coeffs
        if (any(lm) if _is_exact_table(f) and _is_exact_table(g)
                else _vec.apart(np.array(lm, dtype=np.float64), 0.0, tol).any()):
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

    return _decomposed((f, g), body, lambda: _kb_sweep(f, g, tol),
                       "the functional equation fails")


def decompose_self(f: FuncTable, tol: float = DEFAULT_TOL):
    """One-function case: returns (character, sign map mod 2, quadratic form).

    Compared with the two-function case the coset part must vanish and the
    leftover sign is constant on doubled (not just quadrupled) cosets; it
    still need not be multiplicative.  The coset part is not checked on its
    own: splitting the pair ``(|f|, |f|)`` already demanded ``r = -r``,
    exactly on exact tables and as ``2r`` within the tolerance on float
    ones.  The pair is one table, so it is split once, exact or float.

    Nor is the leftover sign's constancy on doubled cosets checked: its sign
    equation already proves it.  Take ``u`` and ``v`` in one
    ``X^(2)``-coset of a Box or FullGroup window.  Then ``v - u = 2y`` with
    ``y`` in the window, and ``x = u + y`` is in the window too, since free
    coordinates halve and torsion coordinates are always in range.  So
    ``(x, y)`` is an in-range pair, and there
    ``a(x+y) a(x-y) = a(x)^2 a(y)^2 = 1`` forces ``a(v) = a(u)``.
    """
    f = _complexified(f)
    _require_nonvanishing(f, "f")
    _require(check_hermitian(f, tol), "f is not Hermitian")

    def body():
        _check_positive_real_at_zero(f, tol, "f")
        v = _at_zero((f,))
        if v != (0, 0) if isinstance(v, tuple) else _vec.apart(v, 1, tol):
            raise DecompositionError("f(0) must equal 1 in the one-function case")
        logs = f.abs_log_table()
        pform = _positive_form(f.group, *_split_positive(logs, logs, tol))
        coeffs = pform.l.coeffs
        if (any(coeffs) if _is_exact_table(f)
                else _vec.apart(np.array(coeffs, dtype=np.float64), 0.0, tol).any()):
            raise DecompositionError("modulus has a nonzero additive part")
        alpha, sa = _hermitian_phase_part(f, tol, "f")
        _require(check_sign_eq26(sa, sa, tol),
                 "leftover sign violates a(x+y) a(x-y) = 1")
        return alpha, _sign_map_from_table(sa, 2), pform.P

    return _decomposed((f,), body, lambda: _kb_sweep(f, f, tol),
                       "the one-function equation fails")


# ---------------------------------------------------------------------------
# vanishing solutions on groups with onto doubling


def decompose_vanishing(f: FuncTable, g: FuncTable,
                        tol: float = DEFAULT_TOL) -> HermitianSolutionForm:
    """Support-restricted decomposition on a group with ``X^(2) = X``.

    Requires a finite group with onto doubling, that is of odd order.  On
    the stored arrays, verifies ``f(0) g(0) = 1``, equal moduli (exact logs,
    or ``|f|`` against ``|g|`` within ``tol``), that the common support
    ``S`` is a subgroup and the modulus 1 on it, and fits characters on
    ``S`` at its generators.  ``S`` has odd order, so doubling, injective on
    ``S``, is onto ``S``, and ``X/S`` has odd order, so no element of order
    2.  The form is not rendered and compared with the tables: on ``S`` its
    tables are the fitted characters' turn tables, which the fit compared
    with ``f`` and ``g`` in the same arithmetic, and off ``S`` both are
    zero, ``S`` being the span of the form's generators.  The fit's
    candidate array, one row per group element as the tables have, needs
    no budget.
    """
    f = _complexified(f)
    g = _complexified(g)
    _require_same(f, g)
    group = f.group
    if not group.doubling_is_onto():
        raise GroupHypothesisError(
            "the vanishing-support decomposition needs X^(2) = X "
            "(finite group with odd torsion orders only)"
        )
    zero = _zero_mask(f.encoding)
    if zero.all() or _zero_mask(g.encoding).all():
        raise DecompositionError("tables must not be identically zero")
    for name, tab in (("f", f), ("g", g)):
        _require(check_hermitian(tab, tol), f"{name} is not Hermitian")

    def body():
        _require_unit_product_at_zero(f, g, tol)
        _check_positive_real_at_zero(f, tol, "f")
        kind, (a, b), _ = _vec.numeric_mode([f, g])  # |f| = |g|, zeros included
        if kind == "exact":
            (la, _, za), (lb, _, zb) = a, b
            differ = la != lb
        else:
            za, zb = a == 0, b == 0
            differ = _vec.apart(np.abs(a), np.abs(b), tol)
        bad = (za != zb) | (~za & differ)
        if bad.any():
            i = int(np.argmax(bad))
            x = f._point(i)
            raise DecompositionError(
                "|f| != |g| (supports differ)" if za[i] != zb[i] else "|f| != |g|",
                _point_witness(x, f.values[x], g.values[x]))
        on = np.flatnonzero(~zero)  # the support of both tables
        sub = _support_subgroup(f, on)
        mode, arrays, _ = f.encoding
        off = (arrays[0][on] != 0 if mode == "exact"
               else _vec.apart(np.abs(arrays[on]), 1.0, tol))
        if off.any():
            x = f._point(on[np.argmax(off)])
            raise DecompositionError(
                "modulus is not 1 on the support", _point_witness(x, f.values[x], 1))
        trivial = SignMap.trivial(group, 4)
        return HermitianSolutionForm(
            _fit_character_on(f, on, sub, tol), _fit_character_on(g, on, sub, tol),
            trivial, trivial, QuadraticForm.zero(group), CosetConstantMap.zero(group),
            sub)

    return _decomposed((f, g), body, lambda: _kb_sweep(f, g, tol),
                       "the functional equation fails")


def _support_subgroup(f: FuncTable, on: np.ndarray) -> SubgroupSpec:
    """The subgroup spanned by the support of ``f`` (domain indices ``on`` on
    a finite group, whose origin has index 0), each support point outside
    the span of those before it a generator.  The span is kept as a mask
    that :func:`kbeq._vec.join_span` grows generator by generator.  The
    support is a subgroup iff it is the span; otherwise a pair sweep of
    ``s(x) s(y) = s(x) s(y) s(x-y)`` on the 0/1 support indicator ``s``
    names the witness.
    """
    info = _vec.domain_info(f.group, f.domain)
    span, gens = np.arange(info.n) == 0, []
    while not span[on].all():
        i = on[np.argmin(span[on])]
        _vec.join_span(info, span, info.coords[i])
        gens.append(f._point(i))
    if span.sum() == len(on):
        return SubgroupSpec(f.group, tuple(gens))
    s = np.bincount(on, minlength=info.n)  # the 0/1 support indicator
    _, w = _vec.pair_sweep(info, ((1, -1),), ("int", [s], 1), (
        (0, 0, 1), (0, 1, 1), (0, 0, -1), (0, 1, -1), (0, 2, -1)), 0, True)
    raise DecompositionError("support is not a subgroup", {
        "x": list(f._point(w[0]).coords), "y": list(f._point(w[1]).coords)})


def _fit_character_on(p: FuncTable, on: np.ndarray, sub: SubgroupSpec,
                      tol: float) -> CharacterSpec:
    """The first character, lexicographic in exponent tuples, whose turn
    table equals ``p`` at the domain indices ``on``, the span of
    ``sub.generators`` on a finite group.

    Every candidate's turns at the generators are one integer array, over
    the group's exponent ``L``, compared with ``p`` there as
    :func:`kbeq._vec.first_difference` compares: exact turns, or the complex
    values of :func:`kbeq._vec._complex` by :func:`kbeq._vec.apart`.  A
    character agreeing with ``p`` on the span agrees with it at the
    generators, and characters equal at the generators are equal on the
    span, so only the first candidate of each matching row is compared on
    ``on`` (exact tables have one row).
    """
    group, k = p.group, len(sub.generators)
    n = np.array(group.torsion, dtype=np.int64)
    L = int(np.lcm.reduce(n, initial=1))
    exps = np.indices(group.torsion).reshape(len(n), group.order()).T
    gens = np.array([e.coords for e in sub.generators], dtype=np.int64).reshape(k, len(n))
    at = _vec.point_codes(_vec.domain_info(group, p.domain), gens)[0]
    turns = exps @ (gens * (L // n)).T % L
    mode, arrays, _ = p.encoding
    if mode == "exact":  # p's turns over L, or -1 where no character's turn is
        q = [divmod(int(t) * L, arrays[3]) for t in arrays[2][at].tolist()]
        close = turns == np.array([t % L if r == 0 else -1 for t, r in q], dtype=np.int64)
    else:
        close = ~_vec.apart(arrays[at], _vec._complex(0, 1, turns, L, False), tol)
    match = np.flatnonzero(close.all(axis=1))
    _, first = np.unique(turns[match], axis=0, return_index=True)
    for i in match[np.sort(first)]:
        chi = CharacterSpec(group, (), tuple(exps[i].tolist()))
        if _vec.first_difference(p, _character_table(chi, p.domain), tol, on) is None:
            return chi
    raise DecompositionError(
        "restricted phase does not agree with any character of the group"
    )
