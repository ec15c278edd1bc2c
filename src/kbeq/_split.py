"""The sweep-free split of log tables and of positive pairs.

A real table satisfying the triple-difference equation splits as
``T = P + l + r``: the odd part ``(T(x) - T(-x)) / 2`` is an additive map,
read off at the generators; the even part gives the quadratic form from
doubled second differences (divided by four) and the per-coset constants
at each coset's first point.  One routine serves every real table and
works on integer arrays, building no ``Fraction`` on the exact path: the
parts (:class:`_Parts`) are the Gram matrix, the additive coefficients and
the coset constants as numerators over one denominator, int64 or Python
ints by the :func:`kbeq._vec.lowest` rule.  On exact numerators ``T`` over
``denom``, with ``even2`` and ``odd2`` twice the even and odd parts, ``l``
is ``odd2`` at the generators, the Gram numerators are second differences
of ``even2`` at the doubled probes, and the coset constants are
``8 even2 - P`` at each coset's first point, all over ``16 denom``; ``P``
is evaluated at those points alone.  A float table is read at the same
points, rounded to rationals (``_to_fraction``), and split in the same
integer arithmetic.  The residual comes first: the whole window is compared
once with the parts' values from :func:`kbeq._vec.form_values`, the integer
evaluator synthesis shares, exactly for exact tables and within the
tolerance for float ones, and that comparison certifies the result.  Only
when it fails is the odd part compared with the additive map everywhere, to
explain the failure: a non-additive odd part is the error reported before a
nonzero residual.  On an exact table a zero residual already makes the odd
part additive, since ``P`` and ``r`` are even.  Forms are built only for a
caller that returns them (:func:`_forms`), from slices of the parts' arrays,
and a ``Fraction`` only for a witness.

An exact table's split depends on its values alone, so the first one
certified is kept on the table (``FuncTable._parts``) and freed with it; a
float table's split depends on the tolerance, and neither it nor a failed
split is kept.

A positive pair whose logs split as ``P + l + r`` and ``P + m - r`` solves
the equation on the whole group, hence on every window: the parallelogram
law settles the ``P`` terms, and ``x+y``, ``x-y`` share an ``X^(2)``-coset,
as do ``y`` and ``-y``, so the ``r`` terms cancel.  So
:func:`_split_positive`, comparing the two splits' parts as integer arrays,
is the certificate that ``check_kb`` and ``decompose_positive`` pass to
:func:`kbeq.checks._certified`, and the split of the moduli in the
Hermitian and one-function decompositions.  An exact pair checked and then
decomposed is split once per table (the kept parts).  This module imports
neither :mod:`kbeq.checks` nor :mod:`kbeq.decompose`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

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


class _Parts(NamedTuple):
    """A split ``T = P + l + r`` as integer numerators over one denominator:
    ``P(x) = x^T B x``, ``l`` by free coordinate and ``r`` by coset code
    modulo ``X^(2)`` (:func:`kbeq._vec.coset_codes`)."""

    B: np.ndarray
    l: np.ndarray
    r: np.ndarray
    den: int


def _forms(group: GroupSpec, parts: _Parts):
    """The parts as ``(QuadraticForm, AdditiveMap, CosetConstantMap)``, each
    holding its slice of the parts' numerators, not validated again: the
    split certified them."""
    B, l, r, den = parts
    return (QuadraticForm._of(group, B.ravel(), den), AdditiveMap._of(group, l, den),
            CosetConstantMap._of(group, r, den))


def _require_decomposable_domain(table: FuncTable):
    group = table.group
    if group.rank and isinstance(table.domain, Box):
        if any(r < MIN_BOX_RADIUS for r in table.domain.radius):
            raise DomainSizeError(
                f"decomposition needs box radius >= {MIN_BOX_RADIUS} on every "
                "free coordinate (doubled second differences must fit)"
            )


def _split_parts(table: FuncTable, tol: float) -> _Parts:
    """The parts of ``T = P + l + r``, certified by their residual and
    preceded by no equation sweep; the window must hold the doubled probes
    (:func:`_require_decomposable_domain`).  The table's kind is not read,
    so a positive table splits as the real table of its logs.  An exact
    table returns the parts kept on it, once certified; float tables and
    failed splits are split again on every call."""
    if table._parts is not None:
        return table._parts
    group = table.group
    d, rank = group.dim, group.rank
    kind, (T,), denom = _vec.numeric_mode([table])
    info = _vec.domain_info(group, table.domain)
    gens, probes, first, (J, K) = _read_points(info)
    ng = _vec.neg_codes(info)
    even2, odd2 = T + T[ng], T - T[ng]  # twice the even and odd parts
    # the odd part at the generators, the even part at the probes and at each
    # coset's first point, as numerators over h
    read, h = _halves(kind, np.concatenate([odd2[gens], even2[probes], even2[first]]),
                      denom)
    l, e, r_even = np.split(read, [rank, len(read) - len(first)])
    no_B, no_l = np.zeros((d, d), dtype=np.int64), np.zeros(rank, dtype=np.int64)
    no_r = np.zeros(len(first), dtype=np.int64)
    # doubled second differences of the even part: the Gram matrix over 8 h
    B = np.zeros((d, d), dtype=e.dtype)
    B[J, K] = B[K, J] = e[1 + rank:] - e[1 + J] - e[1 + K] + e[0]
    P, P_den = _vec._form_at(B, no_l, no_r, 8 * h, info, first)
    r = _vec._rescale(r_even, 8) - _vec._rescale(P, 8 * h // P_den)
    parts = _Parts(B, _vec._rescale(l, 8), r, 8 * h)
    model = _vec.form_values(*parts, info)
    if _vec.first_difference(table, ("int", *model), tol) is not None:
        # P and r are even, so on an exact table a zero residual makes the
        # odd part additive; a failure is explained by the odd part first
        _certify(table, kind, odd2, 2 * denom,
                 _vec.form_values(no_B, l, no_r, h, info), tol,
                 "odd part is not additive")
        _certify(table, kind, T, denom, model, tol,
                 "decomposition residual is nonzero")
    if kind != "float":
        table._parts = parts
    return parts


def _read_points(info: _vec.VecDomain):
    """Domain indices the split reads: the generators, the doubled probes
    (:func:`_doubled_probes`) and each coset's first point, by coset code;
    then the index pairs ``j <= k`` of the probes ``2e_j + 2e_k``."""

    def build():
        group = info.group
        gens = [e.coords for e in group.generators()[: group.rank]]
        at = _vec.point_codes(info, gens + _doubled_probes(group))[0]
        _, first = np.unique(_vec.coset_codes(info, 2), return_index=True)
        return at[: group.rank], at[group.rank:], first, np.triu_indices(group.rank)

    return _vec.memo((info.group, info.domain, "split"), build)


def _halves(kind: str, part2: np.ndarray, denom: int) -> tuple[np.ndarray, int]:
    """``part2 / (2 denom)`` as integer numerators over one denominator,
    float values rounded to rationals first."""
    if kind == "float":
        return _vec._fractions_over([_to_fraction(_value(kind, v, 2 * denom))
                                     for v in part2])
    return part2, 2 * denom


def _certify(table: FuncTable, kind: str, nums: np.ndarray, denom: int, model,
             tol: float, message: str):
    """Raise ``message`` at the first index where ``nums / denom``, of
    arithmetic ``kind``, differs from the model's values."""
    at = _vec.first_difference((kind, nums, denom), ("int", *model), tol)
    if at is not None:
        mnums, mdenom = model
        raise DecompositionError(message, _point_witness(
            table._point(at), _value(kind, nums[at], denom),
            Fraction(int(mnums[at]), mdenom)))


def _value(kind: str, v, denom: int):
    """An array entry over ``denom`` as the value it encodes."""
    return float(v) / denom if kind == "float" else Fraction(int(v), denom)


def _doubled_probes(group: GroupSpec) -> list[tuple[int, ...]]:
    """Coordinates of 0, of each ``2e_j`` and of each ``2e_j + 2e_k``
    (``j <= k``) over the free coordinates, in that order."""
    rank, d = group.rank, group.dim

    def doubled(*js) -> tuple[int, ...]:
        c = [0] * d
        for j in js:
            c[j] += 2
        return tuple(c)

    return ([doubled()] + [doubled(j) for j in range(rank)]
            + [doubled(j, k) for j in range(rank) for k in range(j, rank)])


# ---------------------------------------------------------------------------
# positive pairs


def _pair_check(group: GroupSpec, f_parts: _Parts, g_parts: _Parts, tol: float,
                exact: bool):
    """Raise unless two log splits form a positive pair: the theory forces
    equal quadratic parts and opposite coset parts, and both are verified
    (exactly when ``exact``)."""
    (Bf, _, rf, df), (Bg, _, rg, dg) = f_parts, g_parts
    mode = "int" if exact else "float"
    at = _vec.first_difference((mode, Bf.ravel(), df), (mode, Bg.ravel(), dg), tol)
    if at is not None:
        i, j = divmod(at, len(Bf))
        lhs, rhs = Fraction(int(Bf[i, j]), df), Fraction(int(Bg[i, j]), dg)
        raise DecompositionError(
            "quadratic parts of the two tables differ",
            {"entry": [i, j],
             "lhs": [lhs.numerator, lhs.denominator],
             "rhs": [rhs.numerator, rhs.denominator]},
        )
    at = _vec.first_difference((mode, rg, dg), (mode, -rf, df), tol)
    if at is not None:
        raise DecompositionError(
            "coset parts are not opposite",
            {"coset": list(group.coset_indices(2)[at].residues)},
        )


def _positive_form(group: GroupSpec, f_parts: _Parts,
                   g_parts: _Parts) -> PositiveSolutionForm:
    """The positive form ``(P, l, m, r)`` of a checked pair of splits."""
    P, l, r = _forms(group, f_parts)
    return PositiveSolutionForm(P, l, AdditiveMap._of(group, g_parts.l, g_parts.den), r)


def _split_positive(f: FuncTable, g: FuncTable, tol: float) -> tuple[_Parts, _Parts]:
    """The splits of a positive pair on one window, with no equation sweep.

    Raises :class:`~kbeq.errors.KbeqError` when the window is too small or
    the pair is not of the form; on exact tables returned parts certify
    that the pair solves the equation on the whole group.
    """
    _require_decomposable_domain(f)
    fp = _split_parts(f, tol)
    parts = fp, fp if g is f else _split_parts(g, tol)  # one table, one split
    _pair_check(f.group, *parts, tol, _is_exact_table(f) and _is_exact_table(g))
    return parts
