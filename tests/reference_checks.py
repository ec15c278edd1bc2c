"""Brute-force reference checkers: direct Python loops over group points.

Each identity is evaluated one tuple at a time in the tables' native
arithmetic (Fractions, :class:`~kbeq.functions.Exact` values, Python floats
and complex numbers), with no encoding and no index arrays.  They are the
oracle for the sweep kernel in ``kbeq.checks`` and ``kbeq.decompose``: like
the kernel they count every in-range tuple and report the lexicographically
first failure, so verdicts, witnesses, ``pairs_checked`` and ``coverage``
can be compared one for one.  ``table_encoding`` builds a table's arrays
point by point from plain values; it is the oracle for the encoding that
``FuncTable`` stores.  ``table_from_json`` reads a table file value by value
into ``Fraction``, ``float``, :class:`~kbeq.functions.Exact` and ``complex``
values and builds the table from the resulting mapping; it is the oracle for
``FuncTable.from_json``, which reads the values straight into integer arrays.
"""

import math
from fractions import Fraction
from math import comb, lcm

import numpy as np

from kbeq._vec import _INT_LIMIT
from kbeq.checks import CheckReport, Witness
from kbeq.errors import GroupMismatchError, GroupParseError, IncompatibleTablesError
from kbeq.functions import Exact, FuncTable, cmul, cval, values_equal
from kbeq.groups import domain_from_json, parse_group


def _over(values):
    """Rationals as numerators over their least common denominator."""
    denom = lcm(*{Fraction(v).denominator for v in values})
    nums = [int(Fraction(v) * denom) for v in values]
    small = max(map(abs, nums), default=0) <= _INT_LIMIT
    return np.array(nums, dtype=np.int64 if small else object), denom


def table_encoding(kind, values):
    """``(mode, arrays, denom)`` of a table holding ``values`` in domain order."""
    if kind == "sign":
        return "parity", np.array([(1 - v) // 2 for v in values], dtype=np.int64), 1
    if kind != "complex":
        if any(isinstance(v, float) for v in values):
            return "float", np.array([float(v) for v in values]), 1
        return ("int", *_over(values))
    if all(isinstance(v, Exact) for v in values):
        return "exact", (*_over([v.log_abs for v in values]),
                         *_over([v.turn for v in values]),
                         np.array([v.zero for v in values])), 1
    return "complex", np.array([cval(v) for v in values], dtype=complex), 1


def _rat_from_json(raw) -> Fraction:
    if (isinstance(raw, (list, tuple)) and len(raw) == 2
            and all(type(v) is int for v in raw) and raw[1] != 0):
        return Fraction(raw[0], raw[1])
    raise GroupParseError(
        f"expected [num, den] rational of integers with a nonzero "
        f"denominator, got {raw!r}")


def _is_number(raw) -> bool:
    return isinstance(raw, (int, float)) and not isinstance(raw, bool)


def value_from_json(kind, raw):
    """One JSON table value as the Python value it denotes."""
    if kind == "sign":
        if raw in (1, -1):
            return int(raw)
        raise GroupParseError(f"sign value must be +-1, got {raw!r}")
    if kind == "real":
        if _is_number(raw):
            return raw if isinstance(raw, float) else Fraction(raw)
        return _rat_from_json(raw)
    if kind == "positive":
        if isinstance(raw, dict) and "log" in raw:
            inner = raw["log"]
            return float(inner) if _is_number(inner) else _rat_from_json(inner)
        if _is_number(raw):
            if raw <= 0:
                raise GroupParseError(f"positive table value must be > 0, got {raw!r}")
            return math.log(float(raw))
        raise GroupParseError(f"cannot parse positive value {raw!r}")
    if raw == 0:
        return Exact.zero_value()
    if isinstance(raw, dict):
        for key in ("log", "turn"):
            if key not in raw:
                raise GroupParseError(f"complex value {raw!r} has no key {key!r}")
        return Exact(_rat_from_json(raw["log"]), _rat_from_json(raw["turn"]))
    if isinstance(raw, (list, tuple)) and len(raw) == 2:
        return complex(float(raw[0]), float(raw[1]))
    raise GroupParseError(f"cannot parse complex value {raw!r}")


def table_from_json(obj) -> FuncTable:
    """A table file read value by value: the values first, in row order,
    then the coordinates, then the mapping constructor (which checks the
    points and, in domain order, the values)."""
    group = parse_group(obj["group"])
    domain = domain_from_json(obj["domain"])
    kind = obj["kind"]
    if kind not in ("real", "positive", "sign", "complex"):
        raise GroupParseError(f"unknown table kind {kind!r}")
    rows = obj["values"]
    vals = [value_from_json(kind, raw) for _, raw in rows]
    domain.points(group)  # a domain that does not fit the group raises
    for c, _ in rows:
        if len(c) != group.dim:
            raise GroupMismatchError(f"expected {group.dim} coordinates, got {len(c)}")
    for c, _ in rows:
        if any(type(v) is not int for v in c):
            raise GroupParseError(f"table coordinates must be integers, got {c!r}")
    if any(not -2**63 <= v < 2**63 for c, _ in rows for v in c):
        raise GroupParseError("table coordinates must fit in 64 bits")
    pts = [group.element(c) for c, _ in rows]
    if not all(map(domain.contains, pts)) or len(set(pts)) != len(pts):
        raise IncompatibleTablesError("table keys must equal the enumerated domain exactly")
    return FuncTable(group, domain, kind, dict(zip(pts, vals)))


def _combo(x, y, cx, cy):
    return x.group.element([cx * a + cy * b for a, b in zip(x.coords, y.coords)])


def _pair_loop(table, combos, witness_if_bad) -> CheckReport:
    """Every (x, y) whose combination points lie in the domain, in order."""
    pts = table.points()
    vals = dict(table.values.items())
    checked = 0
    first = None
    for x in pts:
        for y in pts:
            if any(_combo(x, y, cx, cy) not in vals for cx, cy in combos):
                continue
            checked += 1
            if first is None:
                first = witness_if_bad(x, y)
    total = len(pts) ** 2
    return CheckReport(first is None, checked, first,
                       checked / total if total else 1.0)


def _exact(table) -> bool:
    return all(not isinstance(v, float) for v in table.values.values())


def _differs(acc, exact: bool, tol: float) -> bool:
    return acc != 0 if exact else abs(acc) > tol


def check_polynomial(table, n: int, tol: float) -> CheckReport:
    coeffs = [(-1) ** (n + 1 - j) * comb(n + 1, j) for j in range(n + 2)]
    exact = _exact(table)
    vals = dict(table.values.items())

    def bad(x, h):
        acc = sum(c * vals[_combo(x, h, 1, j)] for j, c in enumerate(coeffs))
        if _differs(acc, exact, tol):
            return Witness(("x", "h"), (x, h), acc, 0)
        return None

    return _pair_loop(table, [(1, j) for j in range(n + 2)], bad)


_EQ5 = (((1, 0, 0), -1), ((1, 1, 0), 2), ((1, 2, 0), -1),
        ((1, 0, 2), 1), ((1, 1, 2), -2), ((1, 2, 2), 1))


def check_eq5(table, tol: float) -> CheckReport:
    """Exhaustive triple sweep of the triple-difference equation."""
    pts = table.points()
    vals = dict(table.values.items())
    group = table.group
    exact = _exact(table)
    checked = 0
    first = None
    for x in pts:
        for h in pts:
            for k in pts:
                terms = []
                for (cx, ch, ck), c in _EQ5:
                    p = group.element([cx * a + ch * b + ck * d for a, b, d
                                       in zip(x.coords, h.coords, k.coords)])
                    if p not in vals:
                        break
                    terms.append(c * vals[p])
                else:
                    checked += 1
                    acc = sum(terms)
                    if first is None and _differs(acc, exact, tol):
                        first = Witness(("x", "h", "k"), (x, h, k), acc, 0)
    total = len(pts) ** 3
    return CheckReport(first is None, checked, first, checked / total)


def kb_sides(f, g, x, y):
    xy, xmy, ny = x + y, x - y, -y
    if f.kind == "positive":
        lhs = f.values[xy] + g.values[xmy]
        rhs = f.values[x] + f.values[y] + g.values[x] + g.values[ny]
    elif f.kind == "complex":
        lhs = cmul(f.values[xy], g.values[xmy])
        rhs = cmul(cmul(f.values[x], f.values[y]),
                   cmul(g.values[x], g.values[ny]))
    else:
        lhs = f.values[xy] * g.values[xmy]
        rhs = f.values[x] * f.values[y] * g.values[x] * g.values[ny]
    return lhs, rhs


def check_kb(f, g, tol: float) -> CheckReport:
    def bad(x, y):
        lhs, rhs = kb_sides(f, g, x, y)
        if not values_equal(lhs, rhs, tol):
            return Witness(("x", "y"), (x, y), lhs, rhs)
        return None

    return _pair_loop(f, [(1, 1), (1, -1)], bad)


def check_sign_eq26(a, b, tol: float) -> CheckReport:
    def bad(x, y):
        lhs = a.values[x + y] * b.values[x - y]
        rhs = a.values[x] * a.values[y] * b.values[x] * b.values[y]
        return Witness(("x", "y"), (x, y), lhs, rhs) if lhs != rhs else None

    return _pair_loop(a, [(1, 1), (1, -1)], bad)


def check_quadratic(table, tol: float) -> CheckReport:
    vals = dict(table.values.items())
    exact = _exact(table)

    def bad(x, y):
        lhs = vals[x + y] + vals[x - y]
        rhs = 2 * vals[x] + 2 * vals[y]
        if _differs(lhs - rhs, exact, tol):
            return Witness(("x", "y"), (x, y), lhs, rhs)
        return None

    return _pair_loop(table, [(1, 1), (1, -1)], bad)


def check_cauchy(table, tol: float) -> CheckReport:
    vals = dict(table.values.items())
    exact = _exact(table)

    def bad(x, y):
        lhs, rhs = vals[x + y], vals[x] + vals[y]
        if _differs(lhs - rhs, exact, tol):
            return Witness(("x", "y"), (x, y), lhs, rhs)
        return None

    return _pair_loop(table, [(1, 1)], bad)


def check_character(table, tol: float) -> CheckReport:
    vals = dict(table.values.items())
    pts = table.points()
    for i, x in enumerate(pts):
        v = vals[x]
        if isinstance(v, Exact):
            unimodular = not v.zero and v.log_abs == 0
        else:
            unimodular = abs(abs(cval(v)) - 1.0) <= tol
        if not unimodular:
            return CheckReport(False, i + 1, Witness(("x",), (x,), v, 1), 1.0)

    def bad(x, y):
        lhs, rhs = vals[x + y], cmul(vals[x], vals[y])
        if not values_equal(lhs, rhs, tol):
            return Witness(("x", "y"), (x, y), lhs, rhs)
        return None

    rep = _pair_loop(table, [(1, 1)], bad)
    return CheckReport(rep.holds, len(pts) + rep.pairs_checked, rep.witness, 1.0)


def _square(v):
    return v.power(2) if isinstance(v, Exact) else cval(v) ** 2


def phase_failure(p, tol: float):
    """First failure of ``p(2x) = p(x)^2``, then of ``p(x+y)^2 = p(x)^2 p(y)^2``.

    Returns ("double", x), ("pair", x, y) or None.
    """
    vals = dict(p.values.items())
    group = p.group
    for x in p.points():
        x2 = group.scale(2, x)
        if x2 in vals and not values_equal(vals[x2], _square(vals[x]), tol):
            return ("double", x)
    for x in p.points():
        for y in p.points():
            if x + y not in vals:
                continue
            rhs = cmul(cmul(vals[x], vals[x]), cmul(vals[y], vals[y]))
            if not values_equal(_square(vals[x + y]), rhs, tol):
                return ("pair", x, y)
    return None


def check_coset_constant(table, modulus: int, tol: float) -> CheckReport:
    """Each point against the first point of its coset of ``X^(modulus)``."""
    reps: dict = {}
    checked = 0
    for x, v in table.values.items():
        idx = table.group.coset_index(x, modulus)
        if idx not in reps:
            reps[idx] = (x, v)
            continue
        checked += 1
        rep, w = reps[idx]
        if not values_equal(w, v, tol):
            return CheckReport(False, checked, Witness(("x", "y"), (rep, x), w, v), 1.0)
    return CheckReport(True, checked, None, 1.0)


def coset_relation(a, b) -> dict:
    """Per coset of ``X^(2)``: 1 where a = b, -1 where a = -b, 0 where
    neither holds throughout, None where the domain misses the coset."""
    group = a.group
    relation = {}
    for idx in group.coset_indices(2):
        seen = {1 if u == v else -1
                for x, u, v in zip(a.points(), a.values.values(), b.values.values())
                if group.coset_index(x, 2) == idx}
        key = ",".join(map(str, idx.residues))
        relation[key] = seen.pop() if len(seen) == 1 else (0 if seen else None)
    return relation
