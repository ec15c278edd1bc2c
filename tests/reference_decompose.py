"""Brute-force reference for positive synthesis and the log-domain split.

Both work one point at a time in the tables' native arithmetic (Fractions
and Python floats, mixed freely), with no encoding and no index arrays.
They are the oracle for the array routines in ``kbeq.functions.synth_table``
and ``kbeq.decompose.decompose_T``: on the same input both must return the
same forms, or raise the same error with the same witness.
"""

from fractions import Fraction

from kbeq.decompose import (
    _point_witness,
    _quadratic_from_even,
    _require_decomposable_domain,
    _to_fraction,
)
from kbeq.errors import DecompositionError
from kbeq.functions import AdditiveMap, CosetConstantMap, FuncTable


def synth_positive(form, domain):
    """The tables of ``form.log_pair`` at every domain point."""
    group = form.group
    fvals, gvals = {}, {}
    for p in domain.points(group):
        fvals[p], gvals[p] = form.log_pair(p)
    return (FuncTable(group, domain, "positive", fvals),
            FuncTable(group, domain, "positive", gvals))


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
