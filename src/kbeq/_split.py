"""The sweep-free split of log tables and of positive pairs.

A real table satisfying the triple-difference equation splits as
``T = P + l + r``: the odd part ``(T(x) - T(-x)) / 2`` is an additive map,
read off at the generators; the even part gives the quadratic form from
doubled second differences (divided by four) and the per-coset constants
at each coset's first point.  One routine serves every real table: it
works on the table's array encoding, exact numerators over one
denominator (int64 or Python ints) compared exactly, or floats compared
within the tolerance, and a residual sweep of the whole window against the
recovered form certifies the result.

A positive pair whose logs split as ``P + l + r`` and ``P + m - r`` solves
the equation on the whole group, hence on every window: the parallelogram
law settles the ``P`` terms, and ``x+y``, ``x-y`` share an ``X^(2)``-coset,
as do ``y`` and ``-y``, so the ``r`` terms cancel.  On exact tables
:func:`_split_positive` is therefore a certificate of the equation that
sweeps no pair; :mod:`kbeq.checks` tries it before sweeping ``check_kb``,
and :mod:`kbeq.decompose` builds the positive decompositions from the same
parts.  This module imports neither of them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import _vec
from .errors import DecompositionError, DomainSizeError
from .functions import (
    AdditiveMap,
    CosetConstantMap,
    FuncTable,
    PositiveSolutionForm,
    QuadraticForm,
    _json_value,
)
from .groups import Box, GroupElement, GroupSpec

MIN_BOX_RADIUS = 4  # doubled second differences need 2e_j + 2e_k in range


def _to_fraction(v) -> Fraction:
    if isinstance(v, float):
        return Fraction(v).limit_denominator(10**9)
    return Fraction(v)


def _is_exact_table(table: FuncTable) -> bool:
    return table.encoding[0] not in ("float", "complex")


def _close(a, b, tol: float, exact: bool) -> bool:
    if exact:
        return a == b
    return abs(float(a) - float(b)) <= tol


def _point_witness(x: GroupElement, lhs, rhs) -> dict:
    return {"x": list(x.coords), "lhs": _json_value(lhs), "rhs": _json_value(rhs)}


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


# ---------------------------------------------------------------------------
# the log-domain split


def _require_decomposable_domain(table: FuncTable):
    group = table.group
    if group.rank and isinstance(table.domain, Box):
        if any(r < MIN_BOX_RADIUS for r in table.domain.radius):
            raise DomainSizeError(
                f"decomposition needs box radius >= {MIN_BOX_RADIUS} on every "
                "free coordinate (doubled second differences must fit)"
            )


def _split_T(table: FuncTable, tol: float):
    """(P, l, r) with ``T = P + l + r``, certified by its residual and
    preceded by no equation sweep; the window must hold the doubled probes
    (:func:`_require_decomposable_domain`)."""
    group = table.group
    kind, (T,), denom = _vec.numeric_mode([table])
    info = _vec.domain_info(group, table.domain)
    pts = table.points()
    ng = _vec.neg_codes(info)
    even2, odd2 = T + T[ng], T - T[ng]  # twice the even and odd parts

    def half(part2, i: int):  # the even or odd part at point i
        return _value(kind, part2[i], 2 * denom)

    # the generators, then the doubled probes, as indices of one lookup
    gens = [e.coords for e in group.generators()[: group.rank]]
    at = _vec.point_codes(info, gens + _doubled_probes(group))[0].tolist()
    l = AdditiveMap(group, tuple(_to_fraction(half(odd2, i))
                                 for i in at[: group.rank]))
    no_P, no_r = QuadraticForm.zero(group), CosetConstantMap.zero(group)
    bad = _first_mismatch(kind, odd2, 2 * denom,
                          _vec.form_log_arrays(no_P, l, no_r.entries, info), tol)
    if bad is not None:
        x = pts[bad]
        raise DecompositionError("odd part is not additive",
                                 _point_witness(x, half(odd2, bad), l.value(x)))
    P = _quadratic_from_even(group, [_to_fraction(half(even2, i))
                                     for i in at[group.rank:]])
    codes, _ = _vec.coset_codes(info, 2)
    _, first = np.unique(codes, return_index=True)
    r = CosetConstantMap(group, tuple(
        (group.coset_index(pts[i], 2), _to_fraction(half(even2, i)) - P.value(pts[i]))
        for i in first.tolist()))
    bad = _first_mismatch(kind, T, denom,
                          _vec.form_log_arrays(P, l, r.entries, info), tol)
    if bad is not None:
        x = pts[bad]
        raise DecompositionError(
            "decomposition residual is nonzero",
            _point_witness(x, _value(kind, T[bad], denom),
                           P.value(x) + l.value(x) + r.value(x)))
    return P, l, r


def _value(kind: str, v, denom: int):
    """An array entry over ``denom`` as the value it encodes."""
    return float(v) / denom if kind == "float" else Fraction(int(v), denom)


def _first_mismatch(kind: str, nums: np.ndarray, denom: int, model,
                    tol: float) -> Optional[int]:
    """First index where ``nums / denom`` differs from a form's values."""
    mnums, mdenom = model
    if kind == "float":
        enc = ("float", [nums / denom, np.asarray(mnums / mdenom, dtype=np.float64)], 1)
    else:
        common = math.lcm(denom, mdenom)
        enc = ("int", [_vec._rescale(nums, common // denom),
                       _vec._rescale(mnums, common // mdenom)], common)
    return _vec.first_failure(enc, [np.arange(len(nums))], ((0, 0, 1), (1, 0, -1)),
                              tol, product=False)


def _doubled_probes(group: GroupSpec) -> list[tuple[int, ...]]:
    """Coordinates of 0, of each ``2e_j`` and of each ``2e_j + 2e_k``
    (``j <= k``) over the free coordinates, in the order
    :func:`_quadratic_from_even` reads them."""
    rank, d = group.rank, group.dim

    def doubled(*js) -> tuple[int, ...]:
        c = [0] * d
        for j in js:
            c[j] += 2
        return tuple(c)

    return ([doubled()] + [doubled(j) for j in range(rank)]
            + [doubled(j, k) for j in range(rank) for k in range(j, rank)])


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


# ---------------------------------------------------------------------------
# positive pairs


def _pair_form(f_parts, g_parts, tol: float, exact: bool) -> PositiveSolutionForm:
    """The positive form of two log splits ``(P, l, r)``: the theory forces
    equal quadratic parts and opposite coset parts, and both are verified
    (exactly when ``exact``)."""
    (P1, l1, r1), (P2, l2, r2) = f_parts, g_parts
    d = P1.group.dim
    for i in range(d):
        for j in range(d):
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


def _split_positive(f: FuncTable, g: FuncTable, tol: float) -> PositiveSolutionForm:
    """The form of a positive pair on one window, with no equation sweep.

    Raises :class:`~kbeq.errors.KbeqError` when the window is too small or
    the pair is not of the form; on exact tables a returned form certifies
    that the pair solves the equation on the whole group.
    """
    _require_decomposable_domain(f)
    exact = _is_exact_table(f) and _is_exact_table(g)
    return _pair_form(_split_T(f.as_real_log(), tol), _split_T(g.as_real_log(), tol),
                      tol, exact)
