"""Exhaustive checkers for the functional equations.

Every checker decides all in-range argument tuples of its equation over the
table domain: a tuple is checked iff every point the equation touches lies
in the domain, and the report carries the fraction of conceivable tuples
that were checkable (so truncation by a box window stays visible).  Failures
report the lexicographically first witness, making them reproducible.
Checkers sweep their tuples, except that :func:`check_kb`,
:func:`check_eq5` and every decomposition in :mod:`kbeq.decompose` certify,
then explain, by the one rule of :func:`_certified`.

Every pair and triple identity, and the point-wise comparisons of
:func:`check_hermitian` and :func:`check_coset_constant`, run through one
sweep kernel (:func:`kbeq._vec.failures`), whose arithmetic
:func:`kbeq._vec.numeric_mode` picks from the values alone: comparisons are
exact for rational, sign and exact-complex values and use an absolute
tolerance (default 1e-9, by :func:`kbeq._vec.apart`) for floating data.
Pair and triple sweeps (:func:`kbeq._vec.pair_sweep`) count their in-range
tuples in closed form, refuse more than ``kbeq._vec._PAIR_GUARD`` of them
before allocating, and stream their tuples in bounded blocks up to the
first failing one.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple, Optional

import numpy as np

from . import _vec
from ._split import (
    _is_exact_table,
    _require_decomposable_domain,
    _split_parts,
    _split_positive,
)
from .errors import IncompatibleTablesError, KbeqError
from .functions import (
    FuncTable,
    KIND_COMPLEX,
    KIND_POSITIVE,
    KIND_REAL,
    KIND_SIGN,
    _decode,
    _json_value,
    cmul,
)
from .groups import GroupElement

__all__ = [
    "CheckReport",
    "Witness",
    "DEFAULT_TOL",
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


@dataclass(frozen=True)
class CheckReport:
    """Outcome of an exhaustive check.

    ``pairs_checked`` is the number of in-range argument tuples, all of
    which a pair or triple sweep evaluates, failing or not; a report
    certified without a sweep (:func:`check_kb` on an exact positive
    solution pair, :func:`check_eq5` on an exact table that splits) counts
    them in closed form without evaluating them.
    The point-wise side conditions count the points up to the first
    failure.  ``coverage`` is the fraction of conceivable tuples whose
    required points fit the domain.
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


def _passed(count: int, coverage: float) -> CheckReport:
    return CheckReport(True, count, None, coverage)


def _failed(count: int, coverage: float, witness: Witness) -> CheckReport:
    return CheckReport(False, count, witness, coverage)


def _require_same(f: FuncTable, g: FuncTable):
    if f.group != g.group or f.domain != g.domain:
        raise IncompatibleTablesError("tables must share group and domain")
    if f.kind != g.kind:
        raise IncompatibleTablesError(
            f"tables must share a kind, got {f.kind!r} and {g.kind!r}"
        )


# ---------------------------------------------------------------------------
# the sweep kernel
#
# An identity is a list of terms (table, axis, coefficient): the axes of a
# pair sweep are x, y and then each combination point, those of a triple
# sweep x, h, k and then each combination point.


def _sides(tables, at, terms, product: bool = False):
    """Both sides' values at the points ``at``, in the tables' native arithmetic."""
    mul = cmul if tables[0].kind == KIND_COMPLEX else operator.mul
    out = []
    for sign in (1, -1):
        vals = []
        for t, p, c in terms:
            if c * sign > 0:
                v = tables[t].values[at[p]]
                if product:
                    vals += [v] * abs(c)
                else:
                    vals.append(v if abs(c) == 1 else abs(c) * v)
        out.append(reduce(mul if product else operator.add, vals))
    return tuple(out)


def _signed_sum(table, at, terms):
    return sum(c * table.values[at[p]] for _, p, c in terms)


def _at(table: FuncTable, i: int):
    """The stored value at domain index ``i``, decoded."""
    return _decode(table.encoding, [i])[0]


def _entrywise(tables, axes, tol: float, witness) -> CheckReport:
    """Does the first table at ``axes[0]`` equal the last at ``axes[1]``,
    entry by entry?  One kernel call; the count runs up to the first failing
    entry, whose two point indices ``witness`` turns into the witness."""
    hit = _vec.failures(_vec.numeric_mode(tables), axes,
                        ((0, 0, 1), (len(tables) - 1, 1, -1)), tol, False)
    if not len(hit):
        return _passed(len(axes[0]), 1.0)
    w = int(hit[0])
    return _failed(w + 1, 1.0, witness(*(int(a[w]) for a in axes)))


def _coverage(info: _vec.VecDomain, count: int, combos) -> float:
    """The share of conceivable tuples, one point per variable, in range."""
    return count / info.n ** len(combos[0])


def _pair_check(tables, combos, terms, tol: float, product: bool = False,
                witness=None) -> CheckReport:
    """Sweep an identity over every in-range pair (x, y), or triple for
    combinations of three coefficients; ``witness`` turns the points (each
    variable, then each combination point) of the lexicographically first
    failing tuple into the report's witness."""
    t = tables[0]
    info = _vec.domain_info(t.group, t.domain)
    checked, w = _vec.pair_sweep(info, combos, _vec.numeric_mode(tables), terms,
                                 tol, product)
    if w is None:
        return _passed(checked, _coverage(info, checked, combos))
    if witness is None:
        def witness(at):
            return Witness(("x", "y"), (at[0], at[1]),
                           *_sides(tables, at, terms, product))
    return _failed(checked, _coverage(info, checked, combos),
                   witness([t._point(i) for i in w]))


def _counted(report: Optional[CheckReport], table: FuncTable, combos) -> CheckReport:
    """A swept report, or a certified one (None) as the closed-form count of
    the in-range tuples."""
    if report is not None:
        return report
    info = _vec.domain_info(table.group, table.domain)
    count = _vec.pair_count(info, combos)
    return _passed(count, _coverage(info, count, combos))


# ---------------------------------------------------------------------------
# finite differences


def check_polynomial(table: FuncTable, n: int,
                     tol: float = DEFAULT_TOL) -> CheckReport:
    """Does ``Delta_h^{n+1} T`` vanish for all in-range (x, h)?"""
    if table.kind != KIND_REAL:
        raise IncompatibleTablesError("polynomial check needs a real table")
    if n < 0:
        raise ValueError("polynomial degree bound must be >= 0")
    combos = tuple((1, j) for j in range(n + 2))
    terms = tuple((0, 2 + j, (-1) ** (n + 1 - j) * math.comb(n + 1, j))
                  for j in range(n + 2))
    return _pair_check(
        (table,), combos, terms, tol,
        witness=lambda at: Witness(("x", "h"), (at[0], at[1]),
                                   _signed_sum(table, at, terms), 0),
    )


_TRIPLE_COMBOS = ((1, 0, 0), (1, 1, 0), (1, 2, 0), (1, 0, 2), (1, 1, 2), (1, 2, 2))
_TRIPLE_TERMS = tuple((0, 3 + j, c) for j, c in enumerate((-1, 2, -1, 1, -2, 1)))


def check_eq5(table: FuncTable, tol: float = DEFAULT_TOL) -> CheckReport:
    """Does the triple difference ``Delta_{2k} Delta_h^2 T`` vanish on every
    in-range triple (x, h, k)?

    Certified or exhaustive, by the rule of :func:`_certified`.  The
    certificate is the split ``T = P + l + r``
    (:func:`kbeq._split._split_parts`) on windows it can read: its model,
    whose Gram matrix is zero on torsion, solves the equation on the whole
    group, since ``Delta_h^2 (P + l)`` is constant in x and the shift by 2k
    keeps every ``X^(2)``-coset.  A certified report counts the in-range
    triples in closed form, even beyond the guard.  Otherwise, and first on
    tables holding floats, every in-range triple is swept
    (:func:`_eq5_sweep`), and a sweep over more than
    ``kbeq._vec._PAIR_GUARD`` triples is refused with
    :class:`~kbeq.errors.BudgetExceededError`.
    """
    if table.kind != KIND_REAL:
        raise IncompatibleTablesError("triple-difference check needs a real table")

    def split():
        _require_decomposable_domain(table)
        return _split_parts(table, tol)

    outcome = _certified((table,), split, lambda: _eq5_sweep(table, tol))
    return _counted(outcome.report, table, _TRIPLE_COMBOS)


def _eq5_sweep(table: FuncTable, tol: float) -> CheckReport:
    """:func:`check_eq5` by sweeping every in-range triple."""
    return _pair_check(
        (table,), _TRIPLE_COMBOS, _TRIPLE_TERMS, tol,
        witness=lambda at: Witness(("x", "h", "k"), tuple(at[:3]),
                                   _signed_sum(table, at, _TRIPLE_TERMS), 0),
    )


# ---------------------------------------------------------------------------
# the functional equation itself


_KB_COMBOS = ((1, 1), (1, -1), (0, -1))
# f(x+y) g(x-y) against f(x) f(y) g(x) g(-y)
_KB_TERMS = ((0, 2, 1), (1, 3, 1), (0, 0, -1), (0, 1, -1), (1, 0, -1), (1, 4, -1))


def check_kb(f: FuncTable, g: FuncTable, tol: float = DEFAULT_TOL) -> CheckReport:
    """Exhaustive check of ``f(x+y) g(x-y) = f(x) f(y) g(x) g(-y)``.

    Decided by :func:`_certified`; positive pairs have the sweep-free split
    (:func:`kbeq._split._split_positive`) as certificate, and a certified
    report counts the in-range pairs in closed form, even beyond the pair
    guard.  The sweep compares positive tables in the log domain, real
    and complex tables as plain products, exactly when every value is
    exact and otherwise within ``tol`` (complex ones by modulus), sign
    tables exactly, and reports the lexicographically first witness.
    Tables containing zeros are allowed.
    """
    _require_same(f, g)
    split = (lambda: _split_positive(f, g, tol)) if f.kind == KIND_POSITIVE else None
    return _counted(_certified((f, g), split, lambda: _kb_sweep(f, g, tol)).report,
                    f, _KB_COMBOS)


def check_kb_self(f: FuncTable, tol: float = DEFAULT_TOL) -> CheckReport:
    """The one-function equation ``f(x+y) f(x-y) = f(x)^2 f(y) f(-y)``."""
    return check_kb(f, f, tol)


class _Outcome(NamedTuple):
    value: object  # the certificate's value, when it returned one
    report: Optional[CheckReport]  # the sweep's report, None when no sweep ran
    error: Optional[KbeqError]  # the certificate's error, None unless it raised


def _certified(tables, certificate, sweep) -> _Outcome:
    """The one rule of :func:`check_kb` and every decomposition: certify,
    then explain.  ``certificate()`` returns a value implying the equation
    on the tables or raises :class:`~kbeq.errors.KbeqError`; ``sweep()`` is
    the equation's exhaustive check.  On exact tables the certificate runs
    first and its value answers; the sweep runs only when it raises, to
    explain.  A float residual within ``tol`` does not bound the equation's
    error, so on tables holding floats the sweep runs first, and the
    certificate only after a holding sweep.  Without a certificate the
    sweep answers.  A failing report outranks the certificate's error.
    """
    report = None
    if certificate is None or not all(map(_is_exact_table, tables)):
        report = sweep()
        if certificate is None or not report.holds:
            return _Outcome(None, report, None)
    try:
        return _Outcome(certificate(), report, None)
    except KbeqError as error:
        return _Outcome(None, sweep() if report is None else report, error)


def _kb_sweep(f: FuncTable, g: FuncTable, tol: float) -> CheckReport:
    """:func:`check_kb` by sweeping every in-range pair."""
    return _pair_check((f, g), _KB_COMBOS, _KB_TERMS, tol,
                       product=f.kind != KIND_POSITIVE,
                       witness=lambda at: _kb_witness(f, g, at[0], at[1]))


def _kb_witness(f, g, x, y) -> Witness:
    at = [x, y, x + y, x - y, -y]
    return Witness(("x", "y"), (x, y),
                   *_sides((f, g), at, _KB_TERMS, f.kind != KIND_POSITIVE))


# ---------------------------------------------------------------------------
# side conditions


def check_hermitian(f: FuncTable, tol: float = DEFAULT_TOL) -> CheckReport:
    """Conjugate symmetry ``f(-x) = conj(f(x))`` at every domain point: ``f``
    at ``-x`` against its conjugate table at ``x``, in one kernel call."""
    conj = _conjugate(f)
    ng = _vec.neg_codes(_vec.domain_info(f.group, f.domain))
    return _entrywise((f, conj), [ng, np.arange(len(ng))], tol,
                      lambda i, j: Witness(("x",), (f._point(j),),
                                           _at(f, i), _at(conj, j)))


def _conjugate(f: FuncTable) -> FuncTable:
    """The table of ``conj(f(x))``: turns negated, or complex values
    conjugated; tables of the other kinds are real."""
    mode, arrays, denom = f.encoding
    if mode == "exact":
        lg, lgd, tn, tnd, zero = arrays
        (tn,) = _vec._fitted([tn], lambda m: max(m, tnd))
        enc = (mode, (lg, lgd, -tn % tnd, tnd, zero), denom)
    elif mode == "complex":
        enc = (mode, np.conj(arrays), denom)
    else:
        return f
    return FuncTable._of(f.group, f.domain, f.kind, enc)


def check_sign_eq26(a: FuncTable, b: FuncTable,
                    tol: float = DEFAULT_TOL) -> CheckReport:
    """Exhaustive check of ``a(x+y) b(x-y) = a(x) a(y) b(x) b(y)``."""
    _require_same(a, b)
    if a.kind != KIND_SIGN:
        raise IncompatibleTablesError("this check needs sign tables")
    terms = ((0, 2, 1), (1, 3, 1), (0, 0, -1), (0, 1, -1), (1, 0, -1), (1, 1, -1))
    return _pair_check((a, b), ((1, 1), (1, -1)), terms, tol, product=True)


def check_coset_constant(table: FuncTable, modulus: int,
                         tol: float = DEFAULT_TOL) -> CheckReport:
    """Is the table constant on each coset of ``X^(modulus)`` meeting the
    domain?  Every point but its coset's first, which represents the coset,
    is compared with that first point, in one kernel call."""
    codes = _vec.coset_codes(_vec.domain_info(table.group, table.domain), modulus)
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    rep = first[inverse]
    others = np.flatnonzero(rep != np.arange(len(rep)))

    def witness(i, j):
        return Witness(("x", "y"), (table._point(i), table._point(j)),
                       _at(table, i), _at(table, j))

    return _entrywise((table,), [rep[others], others], tol, witness)


def check_quadratic(table: FuncTable, tol: float = DEFAULT_TOL) -> CheckReport:
    """Parallelogram equation ``P(x+y) + P(x-y) = 2 P(x) + 2 P(y)``."""
    if table.kind != KIND_REAL:
        raise IncompatibleTablesError("quadratic check needs a real table")
    return _pair_check((table,), ((1, 1), (1, -1)),
                       ((0, 2, 1), (0, 3, 1), (0, 0, -2), (0, 1, -2)), tol)


_ADDITIVE_TERMS = ((0, 2, 1), (0, 0, -1), (0, 1, -1))  # T(x+y) against T(x), T(y)


def check_cauchy(table: FuncTable, tol: float = DEFAULT_TOL) -> CheckReport:
    """Additivity ``l(x+y) = l(x) + l(y)``."""
    if table.kind != KIND_REAL:
        raise IncompatibleTablesError("additivity check needs a real table")
    return _pair_check((table,), ((1, 1),), _ADDITIVE_TERMS, tol)


def check_character(table: FuncTable, tol: float = DEFAULT_TOL) -> CheckReport:
    """Multiplicativity and unimodularity of a complex table."""
    if table.kind != KIND_COMPLEX:
        raise IncompatibleTablesError("character check needs a complex table")
    mode, arrays, _ = table.encoding
    if mode == "exact":  # exactly zero, or of modulus other than 1
        bad = arrays[4] | (arrays[0] != 0)
    else:
        bad = _vec.apart(np.abs(arrays), 1.0, tol)
    if bad.any():
        i = int(np.argmax(bad))
        return _failed(i + 1, 1.0, Witness(("x",), (table._point(i),), _at(table, i), 1))
    rep = _pair_check((table,), ((1, 1),), _ADDITIVE_TERMS, tol, product=True)
    return CheckReport(rep.holds, len(bad) + rep.pairs_checked, rep.witness, 1.0)
