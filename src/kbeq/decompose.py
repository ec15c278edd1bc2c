"""Recover structured solution forms from raw solution tables.

The positive route goes through the log domain: a table satisfying the
triple-difference equation splits into an even part (quadratic form plus a
coset-constant map) and an odd part (an additive map).  The quadratic form
is read off from second differences at doubled generators and divided by
four, the additive part from values at generators, and the per-coset
constants from representatives; an exact residual sweep over the whole
window then certifies the result.

The Hermitian route first decomposes the moduli via the positive route,
then factors the unimodular part into a character (fitted on the doubled
subgroup and extended to the whole group with deterministic principal
square roots) times a +/-1-valued map, and validates every structural
claim: evenness, triviality on the doubled subgroup, the sign equation,
and constancy on quadrupled (or doubled, in the one-function case) cosets.

Every recovery validates itself against the input and raises
:class:`~kbeq.errors.DecompositionError` with a witness when the input is
not a genuine solution.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence

import numpy as np

from . import _vec
from .checks import (
    DEFAULT_TOL,
    _sides,
    _sweep,
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
    cval,
    value_is_zero,
    values_equal,
)
from .groups import Box, GroupElement, GroupSpec, SubgroupSpec

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

MIN_BOX_RADIUS = 4  # doubled second differences need 2e_j + 2e_k in range


def _to_fraction(v) -> Fraction:
    if isinstance(v, float):
        return Fraction(v).limit_denominator(10**9)
    return Fraction(v)


def _is_exact_table(table: FuncTable) -> bool:
    return all(not isinstance(v, (float, complex)) for v in table.values.values())


def _close(a, b, tol: float, exact: bool) -> bool:
    if exact:
        return a == b
    return abs(float(a) - float(b)) <= tol


def _point_witness(x: GroupElement, lhs, rhs) -> dict:
    def enc(v):
        if isinstance(v, Fraction):
            return [v.numerator, v.denominator]
        if isinstance(v, Exact):
            c = v.to_complex()
            return [c.real, c.imag]
        if isinstance(v, complex):
            return [v.real, v.imag]
        return v

    return {"x": list(x.coords), "lhs": enc(lhs), "rhs": enc(rhs)}


# ---------------------------------------------------------------------------
# degree-2 recovery and the halving extensions


def recover_deg2(table: FuncTable, tol: float = DEFAULT_TOL,
                 verify: bool = True):
    """Recover (P, l, c) with ``T = P + l + c`` from a degree-<=2 table.

    The biadditive part is half the mixed second difference at generator
    pairs, the additive part is what remains at generators, and the whole
    window is re-checked exactly afterwards.
    """
    if table.kind != KIND_REAL:
        raise IncompatibleTablesError("degree-2 recovery needs a real table")
    group = table.group
    if verify:
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
    for x in table.points():
        model = P.value(x) + l.value(x) + c
        if not _close(vals[x], model, tol, exact):
            raise DecompositionError(
                "recovered degree-2 model does not reproduce the table",
                _point_witness(x, vals[x], model),
            )
    return P, l, c


def extend_biadditive(group: GroupSpec,
                      doubled: Sequence[Sequence]) -> QuadraticForm:
    """Extend a symmetric biadditive form given on doubled generators.

    ``doubled[j][k]`` is the form's value at ``(2e_j, 2e_k)``; the extension
    divides by four.  Torsion rows must vanish (a real biadditive form kills
    torsion) and the matrix must be symmetric, otherwise the data is not a
    biadditive form on the doubled subgroup.
    """
    d = group.dim
    rows = [list(row) for row in doubled]
    if len(rows) != d or any(len(r) != d for r in rows):
        raise DecompositionError("doubled-generator matrix must be dim x dim")
    for i in range(d):
        for j in range(d):
            if _to_fraction(rows[i][j]) != _to_fraction(rows[j][i]):
                raise DecompositionError(
                    "values are not symmetric: not a biadditive form"
                )
            if (i >= group.rank or j >= group.rank) and rows[i][j]:
                raise DecompositionError(
                    "nonzero torsion entry: not a real biadditive form on X^(2)"
                )
    mat = tuple(tuple(_to_fraction(v) / 4 for v in row) for row in rows)
    return QuadraticForm(group, mat)


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


def _require_decomposable_domain(table: FuncTable):
    group = table.group
    if group.rank and isinstance(table.domain, Box):
        if any(r < MIN_BOX_RADIUS for r in table.domain.radius):
            raise DomainSizeError(
                f"decomposition needs box radius >= {MIN_BOX_RADIUS} on every "
                "free coordinate (doubled second differences must fit)"
            )


def decompose_T(table: FuncTable, tol: float = DEFAULT_TOL,
                verify: bool = True):
    """Split a real table into (P, l, r) with ``T = P + l + r`` exactly.

    Requires the triple-difference equation to hold on the window.  The odd
    part must be additive; the even part decomposes into a quadratic form
    plus per-coset constants.  A full residual sweep certifies the output.
    """
    if table.kind != KIND_REAL:
        raise IncompatibleTablesError("log-domain decomposition needs a real table")
    _require_decomposable_domain(table)
    group = table.group
    if verify:
        rep = check_eq5(table, tol)
        if not rep.holds:
            raise EquationFailsError("triple-difference equation fails", rep)
    kind, (nums,), denom = _vec.numeric_mode([table])
    if kind == "int" and nums.dtype == np.int64:
        return _decompose_T_int(table, _vec.domain_info(group, table.domain),
                                nums, denom, tol)
    return _decompose_T_loop(table, tol)


def _decompose_T_int(table: FuncTable, info, nums: np.ndarray, denom: int,
                     tol: float):
    """Exact array route: values are ``nums / denom`` with one denominator."""
    group = table.group
    pts = table.points()
    ng = _vec.neg_codes(info)
    even2 = nums + nums[ng]     # twice the even part, over denom
    odd2 = nums - nums[ng]
    rank = group.rank
    # additive part from generators
    if rank:
        gen_idx = [_vec.index_of_coords(info, e.coords)
                   for e in group.generators()[:rank]]
        l = AdditiveMap(group, tuple(
            Fraction(int(odd2[i]), 2 * denom) for i in gen_idx
        ))
    else:
        l = AdditiveMap.zero(group)
    bad = _odd_mismatch_int(info, odd2, denom, l)
    if bad is not None:
        x = pts[bad]
        raise DecompositionError(
            "odd part is not additive",
            _point_witness(x, Fraction(int(odd2[bad]), 2 * denom), l.value(x)),
        )
    # quadratic part from doubled second differences of the even part
    P = _quadratic_from_even(
        group,
        lambda coords: Fraction(int(even2[_vec.index_of_coords(info, coords)]),
                                2 * denom),
    )
    # per-coset constants from first representatives
    codes, _ = _vec.coset_codes(info, 2)
    _, first = np.unique(codes, return_index=True)
    entries = []
    for i in sorted(int(v) for v in first):
        x = pts[i]
        entries.append((group.coset_index(x, 2),
                        Fraction(int(even2[i]), 2 * denom) - P.value(x)))
    r = CosetConstantMap(group, tuple(entries))
    _residual_check_int(table, info, nums, denom, P, l, r, tol)
    return P, l, r


def _odd_mismatch_int(info, odd2, denom, l: AdditiveMap) -> Optional[int]:
    """Index of the first point where odd2/(2*denom) != l, else None."""
    import math

    rank = info.group.rank
    if rank:
        ldenom = 1
        for c in l.coeffs:
            ldenom = ldenom * c.denominator // math.gcd(ldenom, c.denominator)
        lnum = np.array([int(c * ldenom) for c in l.coeffs], dtype=np.int64)
        lv = info.coords[:, :rank].astype(np.int64) @ lnum
    else:
        ldenom = 1
        lv = np.zeros(info.n, dtype=np.int64)
    lim = (1 << 62)
    if (abs(int(np.abs(odd2).max(initial=0))) * ldenom >= lim
            or abs(int(np.abs(lv).max(initial=0))) * 2 * denom >= lim):
        # magnitudes unsafe for int64 cross-multiplication; do it in objects
        bad = [i for i in range(info.n)
               if int(odd2[i]) * ldenom != int(lv[i]) * 2 * denom]
        return bad[0] if bad else None
    diff = odd2 * ldenom - lv * (2 * denom)
    nz = np.flatnonzero(diff)
    return int(nz[0]) if len(nz) else None


def _quadratic_from_even(group: GroupSpec, even_value) -> QuadraticForm:
    """Quadratic part out of doubled second differences of the even part."""
    rank = group.rank
    d = group.dim
    doubled = [[Fraction(0)] * d for _ in range(d)]
    if rank:
        zero = (0,) * d

        def coords_of(j, k=None):
            c = [0] * d
            c[j] += 2
            if k is not None:
                c[k] += 2
            return tuple(c)

        e0 = even_value(zero)
        for j in range(rank):
            for k in range(j, rank):
                v = (even_value(coords_of(j, k)) - even_value(coords_of(j))
                     - even_value(coords_of(k)) + e0)
                doubled[j][k] = doubled[k][j] = v / 2
    return extend_biadditive(group, doubled)


def _residual_check_int(table, info, nums, denom, P, l, r, tol):
    model = _vec.form_log_arrays(P, l, r.entries, info)
    pts = table.points()
    if model is not None:
        mn, md = model
        lim = 1 << 62
        if (abs(int(np.abs(nums).max(initial=0))) * md < lim
                and abs(int(np.abs(mn).max(initial=0))) * denom < lim):
            diff = nums * md - mn * denom
            nz = np.flatnonzero(diff)
            if len(nz):
                i = int(nz[0])
                x = pts[i]
                raise DecompositionError(
                    "decomposition residual is nonzero",
                    _point_witness(x, Fraction(int(nums[i]), denom),
                                   P.value(x) + l.value(x) + r.value(x)),
                )
            return
    for i, x in enumerate(pts):
        model_v = P.value(x) + l.value(x) + r.value(x)
        if Fraction(int(nums[i]), denom) != model_v:
            raise DecompositionError(
                "decomposition residual is nonzero",
                _point_witness(x, Fraction(int(nums[i]), denom), model_v),
            )


def _decompose_T_loop(table: FuncTable, tol: float):
    """Plain-Python route for float or otherwise unencodable tables."""
    group = table.group
    vals = table.values
    exact = _is_exact_table(table)
    pts = table.points()
    even = {x: _halved(vals[x] + vals[-x]) for x in pts}
    odd = {x: _halved(vals[x] - vals[-x]) for x in pts}
    rank = group.rank
    if rank:
        gens = group.generators()[:rank]
        l = AdditiveMap(group, tuple(_to_fraction(odd[e]) for e in gens))
    else:
        l = AdditiveMap.zero(group)
    for x in pts:
        if not _close(odd[x], l.value(x), tol, exact):
            raise DecompositionError("odd part is not additive",
                                     _point_witness(x, odd[x], l.value(x)))
    P = _quadratic_from_even(
        group, lambda coords: _to_fraction(even[group.element(coords)])
    )
    reps: dict = {}
    for x in pts:
        reps.setdefault(group.coset_index(x, 2), x)
    entries = [(idx, _to_fraction(even[x]) - P.value(x))
               for idx, x in reps.items()]
    r = CosetConstantMap(group, tuple(entries))
    for x in pts:
        model = P.value(x) + l.value(x) + r.value(x)
        if not _close(vals[x], model, tol, exact):
            raise DecompositionError("decomposition residual is nonzero",
                                     _point_witness(x, vals[x], model))
    return P, l, r


def _halved(v):
    if isinstance(v, float):
        return v / 2.0
    return Fraction(v) / 2


# ---------------------------------------------------------------------------
# positive pairs


def decompose_positive(f: FuncTable, g: FuncTable, tol: float = DEFAULT_TOL,
                       verify: bool = True) -> PositiveSolutionForm:
    """Recover the structured form of a positive solution pair.

    Both log tables are decomposed independently; the theory forces equal
    quadratic parts and opposite coset parts, and both facts are verified
    (exactly for rational tables).
    """
    if f.kind != KIND_POSITIVE or g.kind != KIND_POSITIVE:
        raise IncompatibleTablesError("positive decomposition needs positive tables")
    if verify:
        rep = check_kb(f, g, tol)
        if not rep.holds:
            raise EquationFailsError("the functional equation fails", rep)
    exact = _is_exact_table(f) and _is_exact_table(g)
    P1, l1, r1 = decompose_T(f.as_real_log(), tol, verify=verify)
    P2, l2, r2 = decompose_T(g.as_real_log(), tol, verify=verify)
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
    if table.kind == KIND_COMPLEX:
        return table
    if table.kind == KIND_SIGN:
        return FuncTable(table.group, table.domain, KIND_COMPLEX,
                         {p: Exact.from_sign(v) for p, v in table.values.items()})
    if table.kind == KIND_POSITIVE:
        return FuncTable(table.group, table.domain, KIND_COMPLEX,
                         {p: Exact.from_log(v) if not isinstance(v, float)
                          else complex(np.exp(v)) for p, v in table.values.items()})
    raise IncompatibleTablesError(
        "hermitian decomposition needs complex, sign or positive tables"
    )


def _check_positive_real_at_zero(table: FuncTable, tol: float, name: str):
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


def _phase_checks(p: FuncTable, tol: float, name: str):
    """Verify p(2x) = p(x)^2 and p(x+y)^2 = p(x)^2 p(y)^2 on the window."""
    info = _vec.domain_info(p.group, p.domain)
    code2, valid = _vec.scale_codes(info, 2)
    sel = np.flatnonzero(valid)
    terms = ((0, 1, 1), (0, 0, -2))
    at = _sweep([p], [sel, code2[sel]], terms, tol, product=True)
    if at is not None:
        raise DecompositionError(f"{name}(2x) != {name}(x)^2",
                                 _point_witness(at[0], *_sides([p], at, terms, True)))
    I, J, (Kxy,), _ = _vec.pair_maps(info, ((1, 1),))
    at = _sweep([p], [I, J, Kxy], ((0, 2, 2), (0, 0, -2), (0, 1, -2)), tol,
                product=True)
    if at is not None:
        raise DecompositionError(
            f"{name}(x+y)^2 != {name}(x)^2 {name}(y)^2",
            {"x": list(at[0].coords), "y": list(at[1].coords)},
        )


def _fit_doubled_turns(p: FuncTable, tol: float) -> list[Fraction]:
    """Turns of the character candidate at doubled generators."""
    group = p.group
    turns = []
    for i, e in enumerate(group.generators()):
        x = group.scale(2, e)
        if x not in p.values:
            raise DomainSizeError("window must contain the doubled generators")
        v = p.values[x]
        if i < group.rank:
            order = None
        else:
            n = group.torsion[i - group.rank]
            order = n // 2 if n % 2 == 0 else n  # order of 2e_i
        turns.append(_unit_turn(v, order, tol))
    return turns


def _unit_turn(v, order: Optional[int], tol: float) -> Fraction:
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


def _restriction_matches(p: FuncTable, alpha: CharacterSpec, tol: float):
    group = p.group
    for x in p.points():
        if any(r != 0 for r in group.coset_index(x, 2).residues):
            continue
        if not values_equal(p.values[x], alpha.value(x), tol):
            raise DecompositionError(
                "phase part is not multiplicative on the doubled subgroup",
                _point_witness(x, p.values[x], alpha.value(x)),
            )


def _sign_table_from_ratio(p: FuncTable, alpha: CharacterSpec,
                           tol: float) -> FuncTable:
    group = p.group
    out = {}
    for x in p.points():
        v = p.values[x]
        if isinstance(v, Exact):
            dt = (v.turn - alpha.turn(x)) % 1
            if v.log_abs != 0 or dt not in (Fraction(0), Fraction(1, 2)):
                raise DecompositionError(
                    "ratio to the extended character is not +-1",
                    _point_witness(x, v, alpha.value(x)),
                )
            out[x] = 1 if dt == 0 else -1
        else:
            ratio = cval(v) / cval(alpha.value(x))
            if abs(ratio - 1) <= tol:
                out[x] = 1
            elif abs(ratio + 1) <= tol:
                out[x] = -1
            else:
                raise DecompositionError(
                    "ratio to the extended character is not +-1",
                    _point_witness(x, v, alpha.value(x)),
                )
    return FuncTable(group, p.domain, KIND_SIGN, out)


def _require_even(tab: FuncTable, name: str):
    for x in tab.points():
        if tab.values[-x] != tab.values[x]:
            raise DecompositionError(
                f"{name} is not even", _point_witness(x, tab.values[x],
                                                      tab.values[-x])
            )


def _sign_map_from_table(tab: FuncTable, modulus: int) -> SignMap:
    group = tab.group
    reps: dict = {}
    for x in tab.points():
        reps.setdefault(group.coset_index(x, modulus), tab.values[x])
    if len(reps) != group.coset_count(modulus):
        raise DomainSizeError(
            f"window does not meet every coset of X^({modulus})"
        )
    return SignMap.from_mapping(group, modulus, reps)


def _hermitian_phase_part(ftab: FuncTable, tol: float, name: str):
    """Character + sign table of a unimodular phase table."""
    p = ftab.unimodular_part()
    _phase_checks(p, tol, name)
    alpha = extend_character(ftab.group, _fit_doubled_turns(p, tol))
    _restriction_matches(p, alpha, tol)
    s = _sign_table_from_ratio(p, alpha, tol)
    _require_even(s, f"{name}-sign part")
    return alpha, s


def decompose_hermitian(f: FuncTable, g: FuncTable, tol: float = DEFAULT_TOL,
                        verify: bool = True) -> HermitianSolutionForm:
    """Recover characters, sign maps, quadratic and coset parts of a
    Hermitian non-vanishing solution pair.

    Validates Hermitian symmetry, non-vanishing, the equation itself, the
    phase identities, that the leftover signs are even, trivial on the
    doubled subgroup, satisfy the sign equation, and are constant on
    quadrupled cosets.
    """
    f = _complexified(f)
    g = _complexified(g)
    if f.group != g.group or f.domain != g.domain:
        raise IncompatibleTablesError("tables must share group and domain")
    for name, tab in (("f", f), ("g", g)):
        for x in tab.points():
            if value_is_zero(tab.values[x]):
                raise DecompositionError(
                    f"{name} vanishes; this route needs non-vanishing tables",
                    _point_witness(x, 0, "nonzero"),
                )
        rep = check_hermitian(tab, tol)
        if not rep.holds:
            raise EquationFailsError(f"{name} is not Hermitian", rep)
    if verify:
        rep = check_kb(f, g, tol)
        if not rep.holds:
            raise EquationFailsError("the functional equation fails", rep)
    _check_positive_real_at_zero(f, tol, "f")
    _check_positive_real_at_zero(g, tol, "g")
    z = f.group.zero()
    prod = f.values[z] * g.values[z] if isinstance(f.values[z], Exact) \
        and isinstance(g.values[z], Exact) else cval(f.values[z]) * cval(g.values[z])
    if not values_equal(prod, Exact.one() if isinstance(prod, Exact) else 1.0, tol):
        raise DecompositionError("f(0) g(0) must equal 1",
                                 _point_witness(z, prod, 1))
    pform = decompose_positive(f.abs_log_table(), g.abs_log_table(), tol,
                               verify=verify)
    exact = _is_exact_table(f) and _is_exact_table(g)
    if not (_all_close(pform.l.coeffs, tol, exact)
            and _all_close(pform.m.coeffs, tol, exact)):
        raise DecompositionError(
            "moduli have a nonzero additive part; they cannot be even solutions"
        )
    alpha, sa = _hermitian_phase_part(f, tol, "f")
    beta, sb = _hermitian_phase_part(g, tol, "g")
    rep = check_sign_eq26(sa, sb, tol)
    if not rep.holds:
        raise EquationFailsError("leftover signs violate the sign equation", rep)
    for name, s in (("f", sa), ("g", sb)):
        rep = check_coset_constant(s, 4, tol)
        if not rep.holds:
            raise EquationFailsError(
                f"{name}-sign part is not constant on quadrupled cosets", rep
            )
    return HermitianSolutionForm(
        alpha, beta,
        _sign_map_from_table(sa, 4), _sign_map_from_table(sb, 4),
        pform.P, pform.r, None,
    )


def _all_close(values, tol: float, exact: bool) -> bool:
    return all(_close(v, 0, tol, exact) for v in values)


def decompose_self(f: FuncTable, tol: float = DEFAULT_TOL,
                   verify: bool = True):
    """One-function case: returns (character, sign map mod 2, quadratic form).

    Compared with the two-function case the coset part must vanish and the
    leftover sign is constant on doubled (not just quadrupled) cosets; it
    still need not be multiplicative.
    """
    f = _complexified(f)
    for x in f.points():
        if value_is_zero(f.values[x]):
            raise DecompositionError(
                "f vanishes; this route needs non-vanishing tables",
                _point_witness(x, 0, "nonzero"),
            )
    rep = check_hermitian(f, tol)
    if not rep.holds:
        raise EquationFailsError("f is not Hermitian", rep)
    if verify:
        rep = check_kb_self(f, tol)
        if not rep.holds:
            raise EquationFailsError("the one-function equation fails", rep)
    _check_positive_real_at_zero(f, tol, "f")
    exact = _is_exact_table(f)
    if not values_equal(f.values[f.group.zero()],
                        Exact.one() if exact else 1.0, tol):
        raise DecompositionError("f(0) must equal 1 in the one-function case")
    pform = decompose_positive(f.abs_log_table(), f.abs_log_table(), tol,
                               verify=verify)
    if not _all_close(pform.l.coeffs, tol, exact):
        raise DecompositionError("modulus has a nonzero additive part")
    if not all(_close(v, 0, tol, exact) for _, v in pform.r.entries):
        raise DecompositionError(
            "coset part must vanish when the two functions coincide"
        )
    alpha, sa = _hermitian_phase_part(f, tol, "f")
    rep = check_sign_eq26(sa, sa, tol)
    if not rep.holds:
        raise EquationFailsError(
            "leftover sign violates a(x+y) a(x-y) = 1", rep
        )
    rep = check_coset_constant(sa, 2, tol)
    if not rep.holds:
        raise EquationFailsError(
            "leftover sign is not constant on doubled cosets", rep
        )
    return alpha, _sign_map_from_table(sa, 2), pform.P


# ---------------------------------------------------------------------------
# vanishing solutions on groups with onto doubling


def decompose_vanishing(f: FuncTable, g: FuncTable, tol: float = DEFAULT_TOL,
                        verify: bool = True,
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
    if all(value_is_zero(f.values[x]) for x in pts) or \
            all(value_is_zero(g.values[x]) for x in pts):
        raise DecompositionError("tables must not be identically zero")
    for name, tab in (("f", f), ("g", g)):
        rep = check_hermitian(tab, tol)
        if not rep.holds:
            raise EquationFailsError(f"{name} is not Hermitian", rep)
    if verify:
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
    for x in pts:
        fa, ga = f.values[x], g.values[x]
        if value_is_zero(fa) != value_is_zero(ga):
            raise DecompositionError("|f| != |g| (supports differ)",
                                     _point_witness(x, fa, ga))
        if value_is_zero(fa):
            continue
        la = fa.log_abs if isinstance(fa, Exact) else abs(cval(fa))
        lb = ga.log_abs if isinstance(ga, Exact) else abs(cval(ga))
        if not values_equal(la, lb, tol):
            raise DecompositionError("|f| != |g|", _point_witness(x, fa, ga))
    support = [x for x in pts if not value_is_zero(f.values[x])]
    sup_set = set(support)
    for a in support:
        for b in support:
            if (a - b) not in sup_set:
                raise DecompositionError(
                    "support is not a subgroup",
                    {"x": list(a.coords), "y": list(b.coords)},
                )
    if {group.scale(2, x) for x in support} != sup_set:
        raise DecompositionError("doubling is not onto the support")
    gens: list[GroupElement] = []
    known = {z}
    for x in support:
        if x not in known:
            gens.append(x)
            known = set(SubgroupSpec(group, tuple(gens)).elements())
    sub = SubgroupSpec(group, tuple(gens))
    if sub.quotient_has_order2():
        raise DecompositionError(
            "quotient by the support subgroup has an element of order 2"
        )
    for x in support:
        v = f.values[x]
        la = v.log_abs if isinstance(v, Exact) else abs(cval(v))
        if not values_equal(la, Fraction(0) if isinstance(v, Exact) else 1.0,
                            tol):
            raise DecompositionError(
                "modulus is not 1 on the support", _point_witness(x, v, 1)
            )
    alpha = _fit_character_on(group, f, support, tol)
    beta = _fit_character_on(group, g, support, tol)
    form = HermitianSolutionForm(
        alpha, beta, SignMap.trivial(group, 4), SignMap.trivial(group, 4),
        QuadraticForm.zero(group), CosetConstantMap.zero(group), sub,
    )
    for x in pts:
        fv, gv = form.exact_pair(x)
        if not (values_equal(fv, f.values[x], tol)
                and values_equal(gv, g.values[x], tol)):
            raise DecompositionError(
                "reconstructed form does not reproduce the input",
                _point_witness(x, f.values[x], fv),
            )
    return form


def _fit_character_on(group: GroupSpec, tab: FuncTable,
                      support: list[GroupElement], tol: float) -> CharacterSpec:
    for chi in _all_characters(group):
        if all(values_equal(tab.values[x], chi.value(x), tol) for x in support):
            return chi
    raise DecompositionError(
        "restricted phase does not agree with any character of the group"
    )
