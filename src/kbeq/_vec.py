"""Vectorized pair/triple enumeration over box and full-group domains.

Domains enumerate points in lexicographic coordinate order, which coincides
with the mixed-radix code ``sum(digit_c * stride_c)`` where free coordinates
use ``digit = value + radius`` and torsion coordinates use the residue
itself.  That makes the index of an affine combination ``cx*x + cy*y``
computable coordinate-wise with numpy, so exhaustive quantifier sweeps run
as array arithmetic.  :func:`numeric_mode` encodes tables as arrays in
domain order and :func:`first_failure` evaluates any signed sum or product
identity over pair or triple index arrays; exactness is kept by scaling
rationals to a common denominator, in int64 only where a bound proves the
sums fit and in Python ints otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import BudgetExceededError, IncompatibleTablesError
from .groups import Box, Domain, GroupSpec

_PAIR_GUARD = 30_000_000  # refuse quadratic sweeps beyond this many pairs


@dataclass
class VecDomain:
    group: GroupSpec
    domain: Domain
    n: int
    coords: np.ndarray          # (n, dim) int32, reduced coordinates
    strides: np.ndarray         # (dim,) int64
    radii: tuple[int, ...]      # free-coordinate radii ('' for FullGroup)


_domain_cache: dict = {}


def domain_info(group: GroupSpec, domain: Domain) -> VecDomain:
    """Vectorization data (coordinates and mixed-radix strides) of a domain."""
    key = (group, domain)
    hit = _domain_cache.get(key)
    if hit is not None:
        return hit
    pts = domain.points(group)
    coords = np.array([p.coords for p in pts], dtype=np.int32)
    if coords.ndim == 1:  # zero-dimensional group
        coords = coords.reshape(len(pts), 0)
    radii = domain.radius if isinstance(domain, Box) else ()
    radix = [2 * r + 1 for r in radii] + list(group.torsion)
    dim = group.dim
    strides = np.ones(dim, dtype=np.int64)
    for c in range(dim - 2, -1, -1):
        strides[c] = strides[c + 1] * radix[c + 1]
    info = VecDomain(group, domain, len(pts), coords, strides, tuple(radii))
    if len(_domain_cache) > 16:
        _domain_cache.clear()
    _domain_cache[key] = info
    return info


def _combo_codes_grid(info: VecDomain, cx: int, cy: int,
                      valid: np.ndarray) -> np.ndarray:
    """Point index of ``cx*x + cy*y`` for every pair, updating ``valid``."""
    group = info.group
    n = info.n
    code = np.zeros((n, n), dtype=np.int64)
    for c in range(group.dim):
        col = info.coords[:, c].astype(np.int64)
        raw = cx * col[:, None] + cy * col[None, :]
        if c < group.rank:
            r = info.radii[c]
            np.logical_and(valid, (raw >= -r) & (raw <= r), out=valid)
            digit = raw + r
        else:
            digit = raw % group.torsion[c - group.rank]
        code += digit * info.strides[c]
    return code


_pair_cache: dict = {}


def _cached(key, value):
    """Store ``value`` in ``_pair_cache``, clearing it first when full."""
    if len(_pair_cache) > 6:
        _pair_cache.clear()
    _pair_cache[key] = value
    return value


def pair_maps(info: VecDomain, combos: tuple[tuple[int, int], ...]):
    """In-range pair sweep: returns (I, J, [K_combo...], total_pairs).

    Pairs appear in lexicographic (i, j) order; a pair is kept iff every
    combination point lies in the domain.
    """
    key = (info.group, info.domain, combos)
    hit = _pair_cache.get(key)
    if hit is not None:
        return hit
    n = info.n
    if n * n > _PAIR_GUARD:
        raise BudgetExceededError(
            f"pair sweep over {n}^2 points exceeds the built-in guard"
        )
    valid = np.ones((n, n), dtype=bool)
    codes = [_combo_codes_grid(info, cx, cy, valid) for cx, cy in combos]
    flat = np.flatnonzero(valid.reshape(-1))
    return _cached(key, (
        (flat // n).astype(np.int64),
        (flat % n).astype(np.int64),
        [code.reshape(-1)[flat] for code in codes],
        n * n,
    ))


def triple_maps(info: VecDomain, combos: tuple[tuple[int, int, int], ...],
                full_budget: int, sample_budget: int):
    """Triple sweep, exhaustive when small, deterministically sampled otherwise.

    Returns (X, H, K, [K_combo...], total, exhaustive).
    """
    key = (info.group, info.domain, combos, full_budget, sample_budget)
    hit = _pair_cache.get(key)
    if hit is not None:
        return hit
    return _cached(key, _triple_maps_build(info, combos, full_budget,
                                           sample_budget))


def _triple_maps_build(info, combos, full_budget, sample_budget):
    n = info.n
    total = n * n * n
    if total <= full_budget:
        idx = np.arange(total, dtype=np.int64)
        exhaustive = True
    else:
        m = min(sample_budget, total)
        # fixed multiplicative-hash stride: deterministic, RNG-free
        idx = (np.arange(m, dtype=np.uint64) * np.uint64(2654435761)
               + np.uint64(40507)) % np.uint64(total)
        idx = idx.astype(np.int64)
        exhaustive = False
    X = idx // (n * n)
    H = (idx // n) % n
    K = idx % n
    group = info.group
    valid = np.ones(len(idx), dtype=bool)
    codes = []
    for cx, ch, ck in combos:
        code = np.zeros(len(idx), dtype=np.int64)
        for c in range(group.dim):
            col = info.coords[:, c].astype(np.int64)
            raw = cx * col[X] + ch * col[H] + ck * col[K]
            if c < group.rank:
                r = info.radii[c]
                valid &= (raw >= -r) & (raw <= r)
                digit = raw + r
            else:
                digit = raw % group.torsion[c - group.rank]
            code += digit * info.strides[c]
        codes.append(code)
    keep = np.flatnonzero(valid)
    return (X[keep], H[keep], K[keep], [c[keep] for c in codes],
            len(idx), exhaustive)


# ---------------------------------------------------------------------------
# point-level index maps


def index_of_coords(info: VecDomain, coords: Sequence[int]) -> int:
    """Domain index of an (in-range) reduced coordinate vector."""
    group = info.group
    code = 0
    for c in range(group.dim):
        v = coords[c]
        if c < group.rank:
            if abs(v) > info.radii[c]:
                raise KeyError(f"coordinates {coords} outside the domain")
            digit = v + info.radii[c]
        else:
            digit = v % group.torsion[c - group.rank]
        code += digit * int(info.strides[c])
    return code


def neg_codes(info: VecDomain) -> np.ndarray:
    """Per-point index of the negated point (domains are negation-closed)."""
    key = (info.group, info.domain, "neg")
    hit = _pair_cache.get(key)
    if hit is not None:
        return hit
    group = info.group
    code = np.zeros(info.n, dtype=np.int64)
    for c in range(group.dim):
        col = info.coords[:, c].astype(np.int64)
        if c < group.rank:
            digit = -col + info.radii[c]
        else:
            digit = (-col) % group.torsion[c - group.rank]
        code += digit * info.strides[c]
    return _cached(key, code)


def coset_codes(info: VecDomain, modulus: int) -> tuple[np.ndarray, "callable"]:
    """Per-point coset code modulo ``X^(modulus)`` plus an index encoder.

    The encoder maps a :class:`~kbeq.groups.CosetIndex` to the same code
    space, so arrays indexed by coset code can be filled from coset maps.
    """
    group = info.group
    radix = [modulus] * group.rank + [math.gcd(modulus, n) for n in group.torsion]
    strides = [1] * group.dim
    for c in range(group.dim - 2, -1, -1):
        strides[c] = strides[c + 1] * radix[c + 1]
    code = np.zeros(info.n, dtype=np.int64)
    for c in range(group.dim):
        col = info.coords[:, c].astype(np.int64)
        code += (col % radix[c]) * strides[c]

    def encode(idx) -> int:
        return sum(r * s for r, s in zip(idx.residues, strides))

    return code, encode


def scale_codes(info: VecDomain, factor: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-point index of ``factor * x`` plus an in-domain validity mask."""
    group = info.group
    code = np.zeros(info.n, dtype=np.int64)
    valid = np.ones(info.n, dtype=bool)
    for c in range(group.dim):
        col = info.coords[:, c].astype(np.int64)
        raw = factor * col
        if c < group.rank:
            r = info.radii[c]
            valid &= (raw >= -r) & (raw <= r)
            digit = raw + r
        else:
            digit = raw % group.torsion[c - group.rank]
        code += digit * info.strides[c]
    return code, valid


# ---------------------------------------------------------------------------
# table encodings and the sweep kernel


_INT_LIMIT = 1 << 58  # largest value kept in an int64 table array
_INT64_MAX = (1 << 63) - 1


def _ints(values: list) -> np.ndarray:
    """Exact integers as int64 when every value is within ``_INT_LIMIT``."""
    if max(map(abs, values), default=0) <= _INT_LIMIT:
        return np.array(values, dtype=np.int64)
    return np.array(values, dtype=object)


def _over(values: list) -> tuple[np.ndarray, int]:
    """Rationals as integer numerators over their least common denominator."""
    denom = math.lcm(*{v.denominator for v in values})
    return _ints([v.numerator * (denom // v.denominator) for v in values]), denom


def _rescale(nums: np.ndarray, factor: int) -> np.ndarray:
    if factor == 1 or not nums.any():
        return nums
    if nums.dtype != object and int(np.abs(nums).max()) * factor <= _INT_LIMIT:
        return nums * factor
    return nums.astype(object) * factor


def _table_encoding(table):
    """One table's values as arrays in domain order, cached on the table.

    Returns ("parity", exponents, 1) for sign tables, ("int", numerators,
    denominator) or ("float", values, 1) for real and positive tables, and
    ("exact", (log numerators, log denominator, turn numerators, turn
    denominator, zero mask), 1) or ("complex", values, 1) for complex tables.
    """
    from .functions import Exact, cval

    memo = table._memo
    enc = memo.get("enc")
    if enc is not None:
        return enc
    pts = table.points()
    vals = list(table.values.values())
    if not all(a is b for a, b in zip(table.values, pts)):  # keys out of domain order
        vals = [table.values[p] for p in pts]
    if table.kind == "sign":
        enc = ("parity", np.array([(1 - v) >> 1 for v in vals], dtype=np.int64), 1)
    elif table.kind != "complex":
        if any(isinstance(v, float) for v in vals):
            enc = ("float", np.array([float(v) for v in vals], dtype=np.float64), 1)
        else:
            enc = ("int", *_over(vals))
    elif all(isinstance(v, Exact) for v in vals):
        enc = ("exact", (*_over([v.log_abs for v in vals]),
                         *_over([v.turn for v in vals]),
                         np.array([v.zero for v in vals], dtype=bool)), 1)
    else:
        enc = ("complex", np.array([cval(v) for v in vals], dtype=np.complex128), 1)
    memo["enc"] = enc
    return enc


def numeric_mode(tables: Sequence) -> tuple[str, list, int]:
    """Encode tables jointly for :func:`first_failure`: (kind, arrays, denom).

    The arithmetic follows from the values alone:

    * ``"int"``: rationals as integer numerators over one common ``denom``;
    * ``"parity"``: sign tables as 0/1 exponents of -1;
    * ``"float"``: real or positive tables holding any float;
    * ``"exact"``: complex tables of :class:`~kbeq.functions.Exact` values,
      one (log numerators, turn numerators, zero mask) triple per table
      over common denominators, ``denom`` being the turn denominator;
    * ``"complex"``: complex tables holding any float complex value.

    Integer arrays are int64 when every value is within ``_INT_LIMIT`` and
    hold Python ints otherwise.
    """
    encs = [_table_encoding(t) for t in tables]
    kinds = {e[0] for e in encs}
    if kinds == {"parity"}:
        return "parity", [e[1] for e in encs], 1
    if kinds == {"int"}:
        denom = math.lcm(*(e[2] for e in encs))
        return "int", [_rescale(e[1], denom // e[2]) for e in encs], denom
    if kinds <= {"int", "float"}:
        return "float", [e[1] if e[0] == "float" else
                         np.asarray(e[1] / e[2], dtype=np.float64) for e in encs], 1
    if kinds == {"exact"}:
        ld = math.lcm(*(e[1][1] for e in encs))
        td = math.lcm(*(e[1][3] for e in encs))
        return "exact", [(_rescale(lg, ld // lgd), _rescale(tn, td // tnd), zero)
                         for _, (lg, lgd, tn, tnd, zero), _ in encs], td
    if kinds <= {"exact", "complex"}:
        return "complex", [
            e[1] if e[0] == "complex" else
            np.array([t.values[p].to_complex() for p in t.points()],
                     dtype=np.complex128)
            for t, e in zip(tables, encs)], 1
    raise IncompatibleTablesError(f"cannot sweep {sorted(kinds)} tables together")


def first_failure(enc, axes: Sequence[np.ndarray], terms, tol: float,
                  product: bool) -> Optional[int]:
    """Index of the first tuple where a signed identity fails, or None.

    ``axes`` are aligned arrays of point indices, one entry per tuple, and
    each term ``(table, axis, c)`` contributes table ``table`` at ``axes[axis]``
    with coefficient ``c``.  The identity is ``prod T(p)^c == 1`` when
    ``product`` and ``sum c T(p) == 0`` otherwise; each side collects the
    terms of one coefficient sign.  Exact kinds compare exactly (parity and
    turns modulo their denominator, exact-complex zeros by their masks);
    float kinds fail where ``|lhs - rhs| <= tol`` does not hold.
    """
    kind, arrays, denom = enc
    pos = [(t, axes[p], c) for t, p, c in terms if c > 0]
    neg = [(t, axes[p], -c) for t, p, c in terms if c < 0]
    if kind == "exact":
        logs, turns, zeros = zip(*arrays)
        lzero, rzero = (np.logical_or.reduce([zeros[t][K] for t, K, _ in side])
                        for side in (pos, neg))
        bad = _sums_differ(logs, pos, neg, 0) | _sums_differ(turns, pos, neg, denom)
        bad = (lzero != rzero) | (~lzero & bad)
    elif kind == "parity":
        bad = _sums_differ(arrays, pos, neg, 2)
    elif kind == "int" and not product:
        bad = _sums_differ(arrays, pos, neg, 0)
    elif kind == "int":
        # values are nums / denom: compare lhs * denom^b with rhs * denom^a
        a = sum(c for *_, c in pos)
        b = sum(c for *_, c in neg)
        arrays = _fitted(arrays, lambda m: (max(m, 1) * denom) ** max(a, b))
        bad = (_side(arrays, pos, True) * denom ** b
               != _side(arrays, neg, True) * denom ** a)
    else:
        bad = ~(np.abs(_side(arrays, pos, product) - _side(arrays, neg, product))
                <= tol)
    hit = np.flatnonzero(bad)
    return int(hit[0]) if len(hit) else None


def _side(arrays, side, product: bool):
    acc = None
    for t, K, c in side:
        v = arrays[t][K]  # a fresh array, so accumulating in place is safe
        if c != 1:
            v = v ** c if product else c * v
        if acc is None:
            acc = v
        elif product:
            acc *= v
        else:
            acc += v
    return acc


def _fitted(arrays, bound) -> list:
    """The arrays as Python ints unless ``bound(max |value|)`` fits int64."""
    m = max(int(np.abs(a).max(initial=0)) for a in arrays)
    if bound(m) <= _INT64_MAX and all(a.dtype != object for a in arrays):
        return list(arrays)
    return [a.astype(object) for a in arrays]


def _sums_differ(arrays, pos, neg, modulus: int) -> np.ndarray:
    """Where the two exact side sums differ (modulo ``modulus`` when nonzero)."""
    weight = sum(c for *_, c in pos + neg)
    arrays = _fitted(arrays, lambda m: max(m * weight, modulus))
    lhs, rhs = _side(arrays, pos, False), _side(arrays, neg, False)
    return (lhs - rhs) % modulus != 0 if modulus else lhs != rhs


# ---------------------------------------------------------------------------
# structured-form evaluation


def form_log_arrays(P, l, r_entries, info: VecDomain) -> tuple[np.ndarray, int]:
    """Values of ``P(x) + l(x) + r(x)`` over the domain: (numerators, denom).

    ``r_entries`` is an iterable of (CosetIndex, Fraction) covering X^(2).
    The numerators are int64 where a bound proves the arithmetic fits and
    Python ints otherwise, so the values are always exact.
    """
    group = info.group
    rank = group.rank
    coeffs = [v for row in P.matrix for v in row]
    coeffs += list(l.coeffs) + [v for _, v in r_entries]
    denom = math.lcm(*(v.denominator for v in coeffs))
    maxc = int(np.abs(info.coords).max(initial=0))
    bound = int(max(map(abs, coeffs), default=0) * denom) + 1
    fits = bound * (group.dim * max(maxc, 1)) ** 2 * 4 <= _INT_LIMIT
    dtype = np.int64 if fits else object

    def scaled(values) -> np.ndarray:
        return np.array([int(v * denom) for v in values], dtype=dtype)

    C = info.coords.astype(dtype)
    B = scaled(v for row in P.matrix for v in row).reshape(group.dim, group.dim)
    out = ((C @ B) * C).sum(axis=1)
    if rank:
        out = out + C[:, :rank] @ scaled(l.coeffs)
    codes, encode = coset_codes(info, 2)
    rarr = np.zeros(group.coset_count(2), dtype=dtype)
    for idx, v in r_entries:
        rarr[encode(idx)] = int(v * denom)
    return out + rarr[codes], denom
