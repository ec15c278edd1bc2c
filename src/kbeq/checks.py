"""Finite-difference operators and exhaustive checkers for the functional equations.

Every checker sweeps all in-range argument tuples of its equation over the
table domain: a tuple is checked iff every point the equation touches lies
in the domain, and the report carries the fraction of conceivable tuples
that were checkable (so truncation by a box window stays visible).  Failures
report the lexicographically first witness, making them reproducible.

Comparisons are exact for rational and exact-complex values and use an
absolute tolerance (default 1e-9) for floating data.  Rational-valued tables
over box or full-group domains are swept with exact integer vector
arithmetic; other value types use direct Python loops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import _vec
from .errors import DomainSizeError, IncompatibleTablesError
from .functions import (
    Exact,
    FuncTable,
    KIND_COMPLEX,
    KIND_POSITIVE,
    KIND_REAL,
    KIND_SIGN,
    cconj,
    cmul,
    cval,
    values_equal,
)
from .groups import GroupElement, Points

__all__ = [
    "CheckReport",
    "Witness",
    "DEFAULT_TOL",
    "delta",
    "check_polynomial",
    "check_eq5",
    "check_kb",
    "check_kb_self",
    "check_hermitian",
    "check_sign_eq26",
    "check_coset_constant",
    "check_quadratic",
    "check_cauchy",
    "check_character",
]

DEFAULT_TOL = 1e-9
EQ5_FULL_BUDGET = 300_000
EQ5_SAMPLE_BUDGET = 20_000


@dataclass(frozen=True)
class Witness:
    """First failing argument tuple of a check, with both sides' values."""

    labels: tuple[str, ...]
    points: tuple[GroupElement, ...]
    lhs: object
    rhs: object

    def to_json(self) -> dict:
        out = {lab: list(p.coords) for lab, p in zip(self.labels, self.points)}
        out["lhs"] = _json_value(self.lhs)
        out["rhs"] = _json_value(self.rhs)
        return out


def _json_value(v):
    if isinstance(v, Exact):
        c = v.to_complex()
        return [c.real, c.imag]
    if isinstance(v, Fraction):
        return [v.numerator, v.denominator]
    if isinstance(v, complex):
        return [v.real, v.imag]
    return v


@dataclass(frozen=True)
class CheckReport:
    """Outcome of an exhaustive check.

    ``pairs_checked`` counts evaluated argument tuples (loops stop at the
    first failure, vector sweeps evaluate everything).  ``coverage`` is the
    fraction of conceivable tuples whose required points fit the domain.
    """

    holds: bool
    pairs_checked: int
    witness: Optional[Witness]
    coverage: float
    note: Optional[str] = None

    def to_json(self) -> dict:
        return {
            "holds": self.holds,
            "pairs_checked": self.pairs_checked,
            "witness": None if self.witness is None else self.witness.to_json(),
            "coverage": self.coverage,
            "note": self.note,
        }


def _passed(count: int, coverage: float, note: str = None) -> CheckReport:
    return CheckReport(True, count, None, coverage, note)


def _failed(count: int, coverage: float, witness: Witness,
            note: str = None) -> CheckReport:
    return CheckReport(False, count, witness, coverage, note)


def _require_same(f: FuncTable, g: FuncTable):
    if f.group != g.group or f.domain != g.domain:
        raise IncompatibleTablesError("tables must share group and domain")
    if f.kind != g.kind:
        raise IncompatibleTablesError(
            f"tables must share a kind, got {f.kind!r} and {g.kind!r}"
        )


# ---------------------------------------------------------------------------
# finite differences


def delta(table: FuncTable, h: GroupElement) -> FuncTable:
    """Difference table ``T(x+h) - T(x)`` on the points where both are defined."""
    if table.kind != KIND_REAL:
        raise IncompatibleTablesError("difference operator needs a real table")
    table.group._own(h)
    values = {}
    for x in table.points():
        xh = x + h
        if xh in table.values:
            values[x] = table.values[xh] - table.values[x]
    if not values:
        raise DomainSizeError("difference table is empty for this step")
    pts = tuple(sorted(values, key=lambda p: p.coords))
    return FuncTable(table.group, Points(pts), KIND_REAL, values)


def _binomials(n: int) -> list[int]:
    return [math.comb(n, j) for j in range(n + 1)]


def check_polynomial(table: FuncTable, n: int, domain=None,
                     tol: float = DEFAULT_TOL) -> CheckReport:
    """Does ``Delta_h^{n+1} T`` vanish for all in-range (x, h)?"""
    if table.kind != KIND_REAL:
        raise IncompatibleTablesError("polynomial check needs a real table")
    if n < 0:
        raise ValueError("polynomial degree bound must be >= 0")
    coeffs = [(-1) ** (n + 1 - j) * c for j, c in enumerate(_binomials(n + 1))]
    combos = tuple((1, j) for j in range(n + 2))
    if domain is None or domain == table.domain:
        info = _vec.domain_info(table.group, table.domain)
        mode = _vec.numeric_mode([table]) if info else None
        if info is not None and mode is not None:
            return _vec_linear_pair_check(
                table, info, mode, combos, coeffs, tol,
                labels=("x", "h"),
            )
        points = table.points()
    else:
        points = domain.points(table.group)
    # direct sweep
    vals = table.values
    checked = 0
    total = len(points) ** 2
    exact = all(not isinstance(vals[p], float) for p in points)
    for x in points:
        for h in points:
            pts = []
            ok = True
            for j in range(n + 2):
                pj = table.group.element(
                    [a + j * b for a, b in zip(x.coords, h.coords)]
                )
                if pj not in vals:
                    ok = False
                    break
                pts.append(pj)
            if not ok:
                continue
            checked += 1
            acc = sum(c * vals[p] for c, p in zip(coeffs, pts))
            bad = acc != 0 if exact else abs(acc) > tol
            if bad:
                return _failed(checked, checked / total,
                               Witness(("x", "h"), (x, h), acc, 0))
    return _passed(checked, checked / total if total else 1.0)


def _vec_linear_pair_check(table, info, mode, combos, coeffs, tol, labels):
    """Vectorized check of ``sum_j coeffs[j] * T(combo_j(x, h)) == 0``."""
    kind, arrays = mode
    arr = arrays[0]
    I, J, Ks, total = _vec.pair_maps(info, combos)
    acc = np.zeros(len(I), dtype=arr.dtype)
    for c, K in zip(coeffs, Ks):
        acc += c * arr[K]
    bad = np.abs(acc) > tol if kind == "float" else acc != 0
    checked = len(I)
    coverage = checked / total if total else 1.0
    if not bad.any():
        return _passed(checked, coverage)
    w = int(np.flatnonzero(bad)[0])
    pts = table.points()
    x, h = pts[int(I[w])], pts[int(J[w])]
    vals = table.values
    lhs = sum(
        (c * vals[table.group.element([a + cy * b
                                       for a, b in zip(x.coords, h.coords)])]
         for (cx, cy), c in zip(combos, coeffs)),
        Fraction(0) if kind == "int" else 0.0,
    )
    return _failed(checked, coverage, Witness(labels, (x, h), lhs, 0))


_EQ5_COMBOS = ((1, 0, 0), (1, 1, 0), (1, 2, 0), (1, 0, 2), (1, 1, 2), (1, 2, 2))
_EQ5_COEFFS = (-1, 2, -1, 1, -2, 1)


def check_eq5(table: FuncTable, tol: float = DEFAULT_TOL,
              full_budget: int = EQ5_FULL_BUDGET,
              sample_budget: int = EQ5_SAMPLE_BUDGET) -> CheckReport:
    """Does the triple difference ``Delta_{2k} Delta_h^2 T`` vanish?

    Exhaustive when the domain has at most ``full_budget`` triples;
    otherwise a fixed deterministic sample of ``sample_budget`` triples is
    swept and the report says so.
    """
    if table.kind != KIND_REAL:
        raise IncompatibleTablesError("triple-difference check needs a real table")
    info = _vec.domain_info(table.group, table.domain)
    mode = _vec.numeric_mode([table]) if info else None
    pts = table.points()
    n = len(pts)
    total = n**3
    if info is not None and mode is not None:
        kind, arrays = mode
        arr = arrays[0]
        X, H, K, Ks, considered, exhaustive = _vec.triple_maps(
            info, _EQ5_COMBOS, full_budget, sample_budget
        )
        acc = np.zeros(len(X), dtype=arr.dtype)
        for c, Kc in zip(_EQ5_COEFFS, Ks):
            acc += c * arr[Kc]
        bad = np.abs(acc) > tol if kind == "float" else acc != 0
        note = None if exhaustive else (
            f"sampled {considered} of {total} triples deterministically"
        )
        checked = len(X)
        coverage = checked / considered if considered else 1.0
        if not bad.any():
            return _passed(checked, coverage, note)
        w = int(np.flatnonzero(bad)[0])
        x, h, k = pts[int(X[w])], pts[int(H[w])], pts[int(K[w])]
        return _failed(checked, coverage,
                       _eq5_witness(table, x, h, k), note)
    # pure sweep (small/explicit domains or exotic values)
    vals = table.values
    exact = all(not isinstance(v, float) for v in vals.values())
    checked = 0
    considered = 0
    note = None
    if total > full_budget:
        note = f"sampled about {sample_budget} of {total} triples deterministically"
    step = 1 if total <= full_budget else max(1, total // sample_budget)
    idx = 0
    for x in pts:
        for h in pts:
            for k in pts:
                idx += 1
                if step > 1 and idx % step:
                    continue
                considered += 1
                w = _eq5_terms(table, x, h, k)
                if w is None:
                    continue
                checked += 1
                acc = w
                bad = acc != 0 if exact else abs(acc) > tol
                if bad:
                    return _failed(checked, checked / considered,
                                   _eq5_witness(table, x, h, k), note)
    return _passed(checked, checked / considered if considered else 1.0, note)


def _eq5_points(table, x, h, k):
    g = table.group
    out = []
    for cx, ch, ck in _EQ5_COMBOS:
        p = g.element([cx * a + ch * b + ck * c
                       for a, b, c in zip(x.coords, h.coords, k.coords)])
        if p not in table.values:
            return None
        out.append(p)
    return out

def _eq5_terms(table, x, h, k):
    pts = _eq5_points(table, x, h, k)
    if pts is None:
        return None
    return sum(c * table.values[p] for c, p in zip(_EQ5_COEFFS, pts))


def _eq5_witness(table, x, h, k) -> Witness:
    return Witness(("x", "h", "k"), (x, h, k), _eq5_terms(table, x, h, k), 0)


# ---------------------------------------------------------------------------
# the functional equation itself


_KB_COMBOS = ((1, 1), (1, -1), (0, -1))


def check_kb(f: FuncTable, g: FuncTable, tol: float = DEFAULT_TOL) -> CheckReport:
    """Exhaustive check of ``f(x+y) g(x-y) = f(x) f(y) g(x) g(-y)``.

    Positive tables are compared in the log domain (exactly for rational
    logs); sign tables exactly; complex tables by modulus-``tol`` closeness
    unless all values are exact.  Tables containing zeros are allowed.
    """
    _require_same(f, g)
    info = _vec.domain_info(f.group, f.domain)
    if info is not None and f.kind in (KIND_POSITIVE, KIND_SIGN):
        mode = _vec.numeric_mode([f, g])
        if mode is not None:
            return _kb_vectorized(f, g, info, mode, tol)
    if info is not None and f.kind == KIND_COMPLEX:
        ef = _vec.exact_complex_encoding(f)
        eg = _vec.exact_complex_encoding(g)
        if ef is not None and eg is not None:
            return _kb_exact_complex(f, g, info, ef, eg)
    return _kb_loop(f, g, tol)


def check_kb_self(f: FuncTable, tol: float = DEFAULT_TOL) -> CheckReport:
    """The one-function equation ``f(x+y) f(x-y) = f(x)^2 f(y) f(-y)``."""
    return check_kb(f, f, tol)


def _kb_vectorized(f, g, info, mode, tol) -> CheckReport:
    kind, (af, ag) = mode
    I, J, (Kxy, Kxmy, Kny), total = _vec.pair_maps(info, _KB_COMBOS)
    lhs = af[Kxy] + ag[Kxmy]
    rhs = af[I] + af[J] + ag[I] + ag[Kny]
    if kind == "float":
        bad = np.abs(lhs - rhs) > tol
    elif kind == "parity":
        bad = ((lhs - rhs) & 1) != 0
    else:
        bad = lhs != rhs
    checked = len(I)
    coverage = checked / total if total else 1.0
    if not bad.any():
        return _passed(checked, coverage)
    w = int(np.flatnonzero(bad)[0])
    pts = f.points()
    x, y = pts[int(I[w])], pts[int(J[w])]
    wit = _kb_witness(f, g, x, y)
    return _failed(checked, coverage, wit)


def _kb_exact_complex(f, g, info, ef, eg) -> CheckReport:
    """Exact sweep for complex tables of Exact values (zeros allowed)."""
    lf, lfd, tf, tfd, zf = ef
    lg, lgd, tg, tgd, zg = eg
    # common denominators across both tables
    ld = lfd * lgd // math.gcd(lfd, lgd)
    td = tfd * tgd // math.gcd(tfd, tgd)
    lf, lg = lf * (ld // lfd), lg * (ld // lgd)
    tf, tg = tf * (td // tfd), tg * (td // tgd)
    I, J, (Kxy, Kxmy, Kny), total = _vec.pair_maps(info, _KB_COMBOS)
    lhs_zero = zf[Kxy] | zg[Kxmy]
    rhs_zero = zf[I] | zf[J] | zg[I] | zg[Kny]
    log_bad = (lf[Kxy] + lg[Kxmy]) != (lf[I] + lf[J] + lg[I] + lg[Kny])
    turn_bad = ((tf[Kxy] + tg[Kxmy] - tf[I] - tf[J] - tg[I] - tg[Kny]) % td) != 0
    bad = (lhs_zero != rhs_zero) | (~lhs_zero & (log_bad | turn_bad))
    checked = len(I)
    coverage = checked / total if total else 1.0
    if not bad.any():
        return _passed(checked, coverage)
    w = int(np.flatnonzero(bad)[0])
    pts = f.points()
    x, y = pts[int(I[w])], pts[int(J[w])]
    return _failed(checked, coverage, _kb_witness(f, g, x, y))


def _kb_sides(f, g, x, y):
    """Both sides of the equation at (x, y), in each kind's native arithmetic."""
    xy, xmy, ny = x + y, x - y, -y
    if f.kind == KIND_POSITIVE:
        lhs = f.values[xy] + g.values[xmy]
        rhs = f.values[x] + f.values[y] + g.values[x] + g.values[ny]
    elif f.kind == KIND_COMPLEX:
        lhs = cmul(f.values[xy], g.values[xmy])
        rhs = cmul(cmul(f.values[x], f.values[y]),
                   cmul(g.values[x], g.values[ny]))
    else:  # sign or real: plain multiplicative values
        lhs = f.values[xy] * g.values[xmy]
        rhs = f.values[x] * f.values[y] * g.values[x] * g.values[ny]
    return lhs, rhs


def _kb_witness(f, g, x, y) -> Witness:
    lhs, rhs = _kb_sides(f, g, x, y)
    return Witness(("x", "y"), (x, y), lhs, rhs)


def _kb_loop(f, g, tol) -> CheckReport:
    pts = f.points()
    total = len(pts) ** 2
    have = f.values
    checked = 0
    for x in pts:
        for y in pts:
            xy = x + y
            if xy not in have:
                continue
            xmy = x - y
            if xmy not in have:
                continue
            checked += 1
            lhs, rhs = _kb_sides(f, g, x, y)
            if not values_equal(lhs, rhs, tol):
                return _failed(checked, checked / total,
                               Witness(("x", "y"), (x, y), lhs, rhs))
    return _passed(checked, checked / total if total else 1.0)


# ---------------------------------------------------------------------------
# side conditions


def check_hermitian(f: FuncTable, tol: float = DEFAULT_TOL) -> CheckReport:
    """Conjugate symmetry ``f(-x) = conj(f(x))`` at every domain point."""
    if not f.domain.negation_closed(f.group):
        raise DomainSizeError("hermitian check needs a negation-closed domain")
    checked = 0
    for x in f.points():
        checked += 1
        lhs = f.values[-x]
        rhs = cconj(f.values[x]) if f.kind == KIND_COMPLEX else f.values[x]
        if not values_equal(lhs, rhs, tol):
            return _failed(checked, 1.0, Witness(("x",), (x,), lhs, rhs))
    return _passed(checked, 1.0)


def check_sign_eq26(a: FuncTable, b: FuncTable,
                    tol: float = DEFAULT_TOL) -> CheckReport:
    """Exhaustive check of ``a(x+y) b(x-y) = a(x) a(y) b(x) b(y)``."""
    _require_same(a, b)
    if a.kind != KIND_SIGN:
        raise IncompatibleTablesError("this check needs sign tables")
    info = _vec.domain_info(a.group, a.domain)
    mode = _vec.numeric_mode([a, b]) if info is not None else None
    if mode is not None:
        I, J, (Kxy, Kxmy), total = _vec.pair_maps(info, ((1, 1), (1, -1)))
        pa, pb = mode[1]
        lhs = pa[Kxy] + pb[Kxmy]
        rhs = pa[I] + pa[J] + pb[I] + pb[J]
        bad = ((lhs - rhs) & 1) != 0
        checked = len(I)
        coverage = checked / total if total else 1.0
        if not bad.any():
            return _passed(checked, coverage)
        w = int(np.flatnonzero(bad)[0])
        pts = a.points()
        x, y = pts[int(I[w])], pts[int(J[w])]
        return _failed(checked, coverage, _eq26_witness(a, b, x, y))
    pts = a.points()
    total = len(pts) ** 2
    checked = 0
    for x in pts:
        for y in pts:
            xy = x + y
            if xy not in a.values or (x - y) not in a.values:
                continue
            checked += 1
            lhs = a.values[xy] * b.values[x - y]
            rhs = a.values[x] * a.values[y] * b.values[x] * b.values[y]
            if lhs != rhs:
                return _failed(checked, checked / total,
                               _eq26_witness(a, b, x, y))
    return _passed(checked, checked / total if total else 1.0)


def _eq26_witness(a, b, x, y) -> Witness:
    lhs = a.values[x + y] * b.values[x - y]
    rhs = a.values[x] * a.values[y] * b.values[x] * b.values[y]
    return Witness(("x", "y"), (x, y), lhs, rhs)


def check_coset_constant(table: FuncTable, modulus: int,
                         tol: float = DEFAULT_TOL) -> CheckReport:
    """Is the table constant on each coset of ``X^(modulus)`` meeting the domain?"""
    reps: dict = {}
    checked = 0
    for x in table.points():
        idx = table.group.coset_index(x, modulus)
        if idx not in reps:
            reps[idx] = x
            continue
        checked += 1
        rep = reps[idx]
        if not values_equal(table.values[rep], table.values[x], tol):
            return _failed(checked, 1.0,
                           Witness(("x", "y"), (rep, x),
                                   table.values[rep], table.values[x]))
    return _passed(checked, 1.0)


def check_quadratic(table: FuncTable, tol: float = DEFAULT_TOL) -> CheckReport:
    """Parallelogram equation ``P(x+y) + P(x-y) = 2 P(x) + 2 P(y)``."""
    if table.kind != KIND_REAL:
        raise IncompatibleTablesError("quadratic check needs a real table")
    info = _vec.domain_info(table.group, table.domain)
    mode = _vec.numeric_mode([table]) if info else None
    if info is not None and mode is not None:
        kind, (arr,) = mode
        I, J, (Kxy, Kxmy), total = _vec.pair_maps(info, ((1, 1), (1, -1)))
        acc = arr[Kxy] + arr[Kxmy] - 2 * arr[I] - 2 * arr[J]
        bad = np.abs(acc) > tol if kind == "float" else acc != 0
        checked = len(I)
        coverage = checked / total if total else 1.0
        if not bad.any():
            return _passed(checked, coverage)
        w = int(np.flatnonzero(bad)[0])
        pts = table.points()
        x, y = pts[int(I[w])], pts[int(J[w])]
        return _failed(checked, coverage, _quad_witness(table, x, y))
    pts = table.points()
    total = len(pts) ** 2
    vals = table.values
    exact = all(not isinstance(v, float) for v in vals.values())
    checked = 0
    for x in pts:
        for y in pts:
            if (x + y) not in vals or (x - y) not in vals:
                continue
            checked += 1
            diff = vals[x + y] + vals[x - y] - 2 * vals[x] - 2 * vals[y]
            if diff != 0 if exact else abs(diff) > tol:
                return _failed(checked, checked / total,
                               _quad_witness(table, x, y))
    return _passed(checked, checked / total if total else 1.0)


def _quad_witness(table, x, y) -> Witness:
    vals = table.values
    return Witness(("x", "y"), (x, y),
                   vals[x + y] + vals[x - y], 2 * vals[x] + 2 * vals[y])


def check_cauchy(table: FuncTable, tol: float = DEFAULT_TOL) -> CheckReport:
    """Additivity ``l(x+y) = l(x) + l(y)``."""
    if table.kind != KIND_REAL:
        raise IncompatibleTablesError("additivity check needs a real table")
    info = _vec.domain_info(table.group, table.domain)
    mode = _vec.numeric_mode([table]) if info else None
    if info is not None and mode is not None:
        kind, (arr,) = mode
        I, J, (Kxy,), total = _vec.pair_maps(info, ((1, 1),))
        acc = arr[Kxy] - arr[I] - arr[J]
        bad = np.abs(acc) > tol if kind == "float" else acc != 0
        checked = len(I)
        coverage = checked / total if total else 1.0
        if not bad.any():
            return _passed(checked, coverage)
        w = int(np.flatnonzero(bad)[0])
        pts = table.points()
        x, y = pts[int(I[w])], pts[int(J[w])]
        return _failed(checked, coverage,
                       Witness(("x", "y"), (x, y), table.values[x + y],
                               table.values[x] + table.values[y]))
    pts = table.points()
    total = len(pts) ** 2
    vals = table.values
    exact = all(not isinstance(v, float) for v in vals.values())
    checked = 0
    for x in pts:
        for y in pts:
            if (x + y) not in vals:
                continue
            checked += 1
            diff = vals[x + y] - vals[x] - vals[y]
            if diff != 0 if exact else abs(diff) > tol:
                return _failed(checked, checked / total,
                               Witness(("x", "y"), (x, y), vals[x + y],
                                       vals[x] + vals[y]))
    return _passed(checked, checked / total if total else 1.0)


def check_character(table: FuncTable, tol: float = DEFAULT_TOL) -> CheckReport:
    """Multiplicativity and unimodularity of a complex table."""
    if table.kind != KIND_COMPLEX:
        raise IncompatibleTablesError("character check needs a complex table")
    vals = table.values
    checked = 0
    for x in table.points():
        checked += 1
        v = vals[x]
        if isinstance(v, Exact):
            unimodular = not v.zero and v.log_abs == 0
        else:
            unimodular = abs(abs(cval(v)) - 1.0) <= tol
        if not unimodular:
            return _failed(checked, 1.0,
                           Witness(("x",), (x,), v, 1))
    pts = table.points()
    total = len(pts) ** 2
    for x in pts:
        for y in pts:
            if (x + y) not in vals:
                continue
            checked += 1
            lhs = vals[x + y]
            rhs = cmul(vals[x], vals[y])
            if not values_equal(lhs, rhs, tol):
                return _failed(checked, 1.0,
                               Witness(("x", "y"), (x, y), lhs, rhs))
    return _passed(checked, 1.0)
