"""Vectorized pair/triple enumeration over box and full-group domains.

Domains enumerate points in lexicographic coordinate order, which coincides
with the mixed-radix code ``sum(digit_c * stride_c)`` where free coordinates
use ``digit = value + radius`` and torsion coordinates use the residue
itself.  :func:`point_codes` is the one encoder of that rule: it maps
integer coordinate arrays, torsion coordinates unreduced, to domain indices
and an in-domain mask, so the index of an affine combination such as
``cx*x + cy*y`` is array arithmetic and exhaustive quantifier sweeps run in
numpy.  Pair sweeps alone build their indices from per-coordinate factors,
and coset codes use the coset radix instead.  Tables store their values as
arrays in domain order (``FuncTable.encoding``); :func:`numeric_mode` brings
several tables to one arithmetic and :func:`failures` evaluates any signed
sum or product identity over aligned index arrays.  Exactness is kept by
scaling rationals to a common denominator, in int64 only where a bound
proves the sums fit and in Python ints otherwise.

Pair sweeps never build an n×n array.  A pair is in range iff it is in
range in every coordinate, so :func:`pair_count` is a product of
per-coordinate counts and :func:`pair_blocks` generates the pairs block by
block from per-coordinate digit-pair lists.  Index maps are cached in one
store holding at most ``_CACHE_BYTES`` of arrays; a pair sweep keeps its
blocks there when all of them fit, and otherwise streams them through
reused scratch arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import BudgetExceededError, IncompatibleTablesError
from .groups import Box, Domain, GroupSpec

_PAIR_GUARD = 30_000_000  # refuse pair sweeps with more in-range pairs
_BLOCK_PAIRS = 1 << 16    # pairs per block of a pair sweep
_CACHE_BYTES = 96 << 20   # bytes of arrays the index-map cache may hold


@dataclass
class VecDomain:
    group: GroupSpec
    domain: Domain
    n: int
    coords: np.ndarray          # (n, dim) int32, reduced coordinates
    strides: np.ndarray         # (dim,) int64
    radii: tuple[int, ...]      # free-coordinate radii (() for FullGroup)


def domain_info(group: GroupSpec, domain: Domain) -> VecDomain:
    """Vectorization data (coordinates and mixed-radix strides) of a domain."""
    return memo((group, domain), lambda: _domain_info_build(group, domain))


def _domain_info_build(group: GroupSpec, domain: Domain) -> VecDomain:
    # the point of index i has the mixed-radix digits of i, offset by each
    # range's start: the order of ``domain.points``, without building them
    ranges = domain.ranges(group)
    radix = [len(r) for r in ranges]
    n = math.prod(radix)
    strides = np.ones(group.dim, dtype=np.int64)
    for c in range(group.dim - 2, -1, -1):
        strides[c] = strides[c + 1] * radix[c + 1]
    index = np.arange(n, dtype=np.int64)
    coords = np.empty((n, group.dim), dtype=np.int32)
    for c, r in enumerate(ranges):
        coords[:, c] = index // strides[c] % len(r) + r.start
    radii = domain.radius if isinstance(domain, Box) else ()
    return VecDomain(group, domain, n, coords, strides, tuple(radii))


_pair_cache: dict = {}


def _nbytes(value) -> int:
    """Bytes held by the arrays inside a cached value."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (tuple, list)):
        return sum(map(_nbytes, value))
    if isinstance(value, VecDomain):
        return value.coords.nbytes + value.strides.nbytes
    return 0


def _cached(key, value):
    """Keep ``value`` in ``_pair_cache`` if it fits ``_CACHE_BYTES``, dropping
    the oldest entries until the cache does."""
    size = _nbytes(value)
    if size <= _CACHE_BYTES:
        while size + sum(map(_nbytes, _pair_cache.values())) > _CACHE_BYTES:
            del _pair_cache[next(iter(_pair_cache))]
        _pair_cache[key] = value
    return value


def memo(key, build):
    """The cached value under ``key``, built by ``build()`` and kept (within
    ``_CACHE_BYTES``) on a miss."""
    hit = _pair_cache.get(key)
    if hit is not None:
        return hit
    return _cached(key, build())


# ---------------------------------------------------------------------------
# pair sweeps from per-coordinate factors
#
# A pair (x, y) is in range iff it is in range in every coordinate, so the
# in-range pairs are a product of per-coordinate digit-pair lists.  For each
# x digit of a coordinate, the y digits keeping every combination in range
# form one interval: all t residues on a torsion coordinate Z/t, and the
# intersection of the intervals cut out by -r <= cx*a + cy*b <= r on a free
# coordinate of radius r.


def _factors(info: VecDomain, combos) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per coordinate, the first in-range y digit and the count of in-range
    y digits for each x digit."""
    group = info.group
    out = []
    for c in range(group.dim):
        if c >= group.rank:
            t = group.torsion[c - group.rank]
            out.append((np.zeros(t, dtype=np.int64), np.full(t, t, dtype=np.int64)))
            continue
        r = info.radii[c]
        a = np.arange(-r, r + 1, dtype=np.int64)
        lo, hi = np.full_like(a, -r), np.full_like(a, r)
        for cx, cy in combos:
            if cy == 0:
                hi[np.abs(cx * a) > r] = -r - 1
                continue
            q, shift = abs(cy), (cx if cy > 0 else -cx) * a
            lo = np.maximum(lo, -((r + shift) // q))   # ceil((-r - shift) / q)
            hi = np.minimum(hi, (r - shift) // q)
        out.append((lo + r, np.maximum(hi - lo + 1, 0)))
    return out


def pair_count(info: VecDomain, combos) -> int:
    """Number of in-range pairs (x, y), the product of the per-coordinate
    counts; builds no index, so any window can be counted."""
    return math.prod(int(cnt.sum()) for _, cnt in _factors(info, combos))


def _rows(info: VecDomain, c: int, combos, factor, a0: int, a1: int) -> list:
    """Index contributions [x, y, *combinations] of coordinate ``c``'s
    in-range digit pairs whose x digit lies in [a0, a1)."""
    lo, cnt = factor
    counts = cnt[a0:a1]
    x = np.repeat(np.arange(a0, a1, dtype=np.int64), counts)
    y = np.arange(len(x), dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts - lo[a0:a1], counts)
    group = info.group
    if c < group.rank:
        r = info.radii[c]  # digit of cx*(x - r) + cy*(y - r)
        ks = [cx * x + cy * y - (cx + cy - 1) * r for cx, cy in combos]
    else:
        t = group.torsion[c - group.rank]
        ks = [(cx * x + cy * y) % t for cx, cy in combos]
    return [d * info.strides[c] for d in (x, y, *ks)]


def _outer(a: list, b: list, work: Optional[dict] = None) -> list:
    """Every entry of ``a`` combined with every entry of ``b``, a-major, in
    scratch arrays kept in ``work`` (fresh arrays without it)."""
    work = {} if work is None else work
    shape = (len(a[0]), len(b[0]))
    return [np.add(u[:, None], v, out=_scratch(work, f"index{k}", np.int64,
                                               shape[0] * shape[1]).reshape(shape)
                   ).ravel() for k, (u, v) in enumerate(zip(a, b))]


def pair_blocks(info: VecDomain, combos, limit: int, work: Optional[dict] = None):
    """Every in-range pair as aligned index arrays [I, J, *K_combo], in blocks.

    A block holds every in-range pair (x, y) of a contiguous range of x, and
    the ranges ascend, so the first block holding a pair with some property
    holds the lexicographically first such pair.  A block has at most
    ``limit`` pairs unless the pairs of a single x outnumber it.  Within a
    block the order is not lexicographic.  Given a ``work`` dict, blocks are
    written into scratch arrays kept there, so each block is valid only
    until the next one is generated.
    """
    factors = _factors(info, combos)
    dim = info.group.dim
    suffix = [1] * (dim + 1)  # pairs over coordinates c, c+1, ...
    for c in range(dim - 1, -1, -1):
        suffix[c] = suffix[c + 1] * int(factors[c][1].sum())
    tails = {dim: [np.zeros(1, dtype=np.int64)] * (2 + len(combos))}

    def rows(c, a0, a1):
        return _rows(info, c, combos, factors[c], a0, a1)

    def tail(c):
        if c not in tails:
            tails[c] = _outer(rows(c, 0, len(factors[c][1])), tail(c + 1))
        return tails[c]

    def walk(c, prefix):
        # prefix: the pairs of coordinates < c for one fixed x prefix
        if c == dim:
            yield prefix
            return
        cum = np.concatenate(([0], np.cumsum(factors[c][1])))
        per_row = len(prefix[0]) * suffix[c + 1]
        a = 0
        while a < len(cum) - 1:
            b = int(np.searchsorted(cum, cum[a] + limit // per_row, side="right")) - 1
            if b > a:
                yield _outer(_outer(prefix, rows(c, a, b)), tail(c + 1), work)
                a = b
            else:  # one x digit is too many pairs: fix it and split further
                yield from walk(c + 1, _outer(prefix, rows(c, a, a + 1)))
                a += 1

    yield from walk(0, tails[dim])


def pair_sweep(info: VecDomain, combos, enc, terms, tol: float,
               product: bool) -> tuple[int, Optional[list[int]]]:
    """Sweep an identity over every in-range pair (x, y).

    Returns the number of in-range pairs and the point indices
    [x, y, *combination points] of the lexicographically first failing
    pair, or None; ``enc``, ``terms``, ``tol`` and ``product`` are as for
    :func:`failures`.  More than ``_PAIR_GUARD`` pairs are refused before
    any index is built.  The pairs run in blocks of ``_BLOCK_PAIRS``, which
    keeps each block's temporaries small; the blocks are kept in the cache
    when all of them fit ``_CACHE_BYTES``, and otherwise regenerated into
    the same scratch arrays block after block.
    """
    count = pair_count(info, combos)
    if count > _PAIR_GUARD:
        raise BudgetExceededError(
            f"pair sweep over {count} in-range pairs exceeds the built-in "
            f"guard of {_PAIR_GUARD}"
        )
    key = (info.group, info.domain, combos)
    work: dict = {}
    blocks = _pair_cache.get(key)
    if blocks is None:
        if count * (2 + len(combos)) * 8 <= _CACHE_BYTES:
            blocks = _cached(key, list(pair_blocks(info, combos, _BLOCK_PAIRS)))
        else:
            blocks = pair_blocks(info, combos, _BLOCK_PAIRS, work)
    for axes in blocks:
        hit = failures(enc, axes, terms, tol, product, work)
        if len(hit):
            w = hit[np.argmin(axes[0][hit] * info.n + axes[1][hit])]
            return count, [int(a[w]) for a in axes]
    return count, None


def triple_maps(info: VecDomain, combos: tuple[tuple[int, int, int], ...],
                full_budget: int, sample_budget: int):
    """Triple sweep, exhaustive when small, deterministically sampled otherwise.

    Returns (X, H, K, [K_combo...], total, exhaustive).
    """
    return memo((info.group, info.domain, combos, full_budget, sample_budget),
                lambda: _triple_maps_build(info, combos, full_budget, sample_budget))


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
    C = info.coords.astype(np.int64)
    valid = np.ones(len(idx), dtype=bool)
    codes = []
    for cx, ch, ck in combos:
        code, inside = point_codes(info, cx * C[X] + ch * C[H] + ck * C[K])
        valid &= inside
        codes.append(code)
    keep = np.flatnonzero(valid)
    return (X[keep], H[keep], K[keep], [c[keep] for c in codes],
            len(idx), exhaustive)


# ---------------------------------------------------------------------------
# point-level index maps


def point_codes(info: VecDomain, coords) -> tuple[np.ndarray, np.ndarray]:
    """Domain indices of the rows of an (m, dim) integer coordinate array,
    plus the mask of rows inside the domain.

    A free digit is ``v + r`` and a torsion digit ``v mod t``, so torsion
    coordinates need not be reduced; the index of a row outside the domain
    is meaningless.
    """
    digits = np.array(coords, dtype=np.int64)
    inside = np.ones(len(digits), dtype=bool)
    for c, r in enumerate(info.radii):
        inside &= np.abs(digits[:, c]) <= r
    for c, t in enumerate(info.group.torsion, info.group.rank):
        digits[:, c] %= t
    # adding r to each free digit adds the origin's index to every code
    origin = sum(r * s for r, s in zip(info.radii, info.strides.tolist()))
    return digits @ info.strides + origin, inside


def index_of_coords(info: VecDomain, coords: Sequence[int]) -> int:
    """Domain index of a coordinate vector; KeyError outside the domain."""
    code, inside = point_codes(info, [coords])
    if not inside[0]:
        raise KeyError(f"coordinates {coords} outside the domain")
    return int(code[0])


def neg_codes(info: VecDomain) -> np.ndarray:
    """Per-point index of the negated point (domains are negation-closed)."""
    return memo((info.group, info.domain, "neg"),
                lambda: point_codes(info, -info.coords.astype(np.int64))[0])


def coset_codes(info: VecDomain, modulus: int) -> tuple[np.ndarray, "callable"]:
    """Per-point coset code modulo ``X^(modulus)`` plus an index encoder.

    The encoder maps a :class:`~kbeq.groups.CosetIndex` to the same code
    space, so arrays indexed by coset code can be filled from coset maps.
    Codes ascend with the cosets' residues, lexicographically.  The per-point
    array is cached and read-only.
    """
    group = info.group
    radix = [modulus] * group.rank + [math.gcd(modulus, n) for n in group.torsion]
    strides = [1] * group.dim
    for c in range(group.dim - 2, -1, -1):
        strides[c] = strides[c + 1] * radix[c + 1]

    def build() -> np.ndarray:
        code = np.zeros(info.n, dtype=np.int64)
        for c in range(group.dim):
            col = info.coords[:, c].astype(np.int64)
            code += (col % radix[c]) * strides[c]
        code.setflags(write=False)
        return code

    def encode(idx) -> int:
        return sum(r * s for r, s in zip(idx.residues, strides))

    return memo((group, info.domain, "coset", modulus), build), encode


def scale_codes(info: VecDomain, factor: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-point index of ``factor * x`` plus an in-domain validity mask."""
    return point_codes(info, factor * info.coords.astype(np.int64))


# ---------------------------------------------------------------------------
# table encodings and the sweep kernel


_INT_LIMIT = 1 << 58  # largest value kept in an int64 table array
_INT64_MAX = (1 << 63) - 1


def _ints(values: list) -> np.ndarray:
    """Exact integers as int64 when every value is within ``_INT_LIMIT``."""
    if max(map(abs, values), default=0) <= _INT_LIMIT:
        return np.array(values, dtype=np.int64)
    return np.array(values, dtype=object)


def _over(nums: Sequence[int], dens: Sequence[int]) -> tuple[np.ndarray, int]:
    """The rationals ``nums[i] / dens[i]`` (nonzero integer denominators of
    either sign, in any terms) as numerators over their least common
    denominator, int64 exactly when ``_ints`` would be.

    The values over the lcm of the given denominators are brought to lowest
    terms by one gcd: no rational is reduced on its own.
    """
    denom = math.lcm(*set(dens))
    top = max(map(abs, nums), default=0)
    if max(top, 1) * denom <= _INT_LIMIT:
        scaled = np.array(nums, dtype=np.int64) * (denom // np.array(dens, dtype=np.int64))
    else:
        scaled = np.array([a * (denom // d) for a, d in zip(nums, dens)], dtype=object)
    return lowest(scaled, denom)


def _fractions_over(values) -> tuple[np.ndarray, int]:
    """Rationals (``Fraction`` or ``int``) as :func:`_over` numerators over
    their least common denominator."""
    return _over([v.numerator for v in values], [v.denominator for v in values])


def _rescale(nums: np.ndarray, factor: int) -> np.ndarray:
    if factor == 1 or not nums.any():
        return nums
    if nums.dtype != object and int(np.abs(nums).max()) * factor <= _INT_LIMIT:
        return nums * factor
    return nums.astype(object) * factor


def lowest(nums: np.ndarray, denom: int) -> tuple[np.ndarray, int]:
    """``nums / denom`` in lowest terms, int64 exactly when ``_ints`` would be."""
    if not nums.any():  # the gcd is denom, which may not fit int64
        return np.zeros(len(nums), dtype=np.int64), 1
    g = math.gcd(int(np.gcd.reduce(nums, initial=0)), denom)
    if g > 1:
        nums, denom = nums // g, denom // g
    if nums.dtype != np.int64 or int(np.abs(nums).max(initial=0)) > _INT_LIMIT:
        nums = _ints(nums.tolist())
    return nums, denom


def numeric_mode(tables: Sequence) -> tuple[str, list, int]:
    """Encode tables jointly for :func:`first_failure`: (kind, arrays, denom).

    The arithmetic follows from the tables' stored encodings:

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
    encs = [t.encoding for t in tables]
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
        return "complex", [e[1] if e[0] == "complex" else _complex(*e[1])
                           for e in encs], 1
    raise IncompatibleTablesError(f"cannot sweep {sorted(kinds)} tables together")


def _complex(lg, lgd, tn, tnd, zero) -> np.ndarray:
    """An exact-complex encoding as complex128 values."""
    logs = np.asarray(lg / lgd, dtype=np.float64)
    turns = np.asarray(tn / tnd, dtype=np.float64)
    return np.where(zero, 0j, np.exp(logs) * np.exp(2j * np.pi * turns))


def first_failure(enc, axes: Sequence[np.ndarray], terms, tol: float,
                  product: bool) -> Optional[int]:
    """Index of the first tuple where a signed identity fails, or None."""
    hit = failures(enc, axes, terms, tol, product)
    return int(hit[0]) if len(hit) else None


def failures(enc, axes: Sequence[np.ndarray], terms, tol: float,
             product: bool, work: Optional[dict] = None) -> np.ndarray:
    """Ascending indices of the tuples where a signed identity fails.

    ``axes`` are aligned arrays of point indices, one entry per tuple, and
    each term ``(table, axis, c)`` contributes table ``table`` at ``axes[axis]``
    with coefficient ``c``.  The identity is ``prod T(p)^c == 1`` when
    ``product`` and ``sum c T(p) == 0`` otherwise; each side collects the
    terms of one coefficient sign.  Exact kinds compare exactly (parity and
    turns modulo their denominator, exact-complex zeros by their masks);
    float kinds fail where ``|lhs - rhs| <= tol`` does not hold.  Side values
    are accumulated in scratch arrays kept in ``work``, so a sweep passing the
    same dict for every block reuses them instead of faulting in fresh pages.
    """
    kind, arrays, denom = enc
    work = {} if work is None else work
    pos = [(t, axes[p], c) for t, p, c in terms if c > 0]
    neg = [(t, axes[p], -c) for t, p, c in terms if c < 0]
    if kind == "exact":
        logs, turns, zeros = zip(*arrays)
        lzero, rzero = (np.logical_or.reduce([zeros[t][K] for t, K, _ in side])
                        for side in (pos, neg))
        bad = (_sums_differ(logs, pos, neg, 0, work)
               | _sums_differ(turns, pos, neg, denom, work))
        bad = (lzero != rzero) | (~lzero & bad)
    elif kind == "parity":
        bad = _sums_differ(arrays, pos, neg, 2, work)
    elif kind == "int" and not product:
        bad = _sums_differ(arrays, pos, neg, 0, work)
    elif kind == "int":
        # values are nums / denom: compare lhs * denom^b with rhs * denom^a
        a = sum(c for *_, c in pos)
        b = sum(c for *_, c in neg)
        arrays = _fitted(arrays, lambda m: (max(m, 1) * denom) ** max(a, b))
        lhs = _side(arrays, pos, True, work, "lhs")
        rhs = _side(arrays, neg, True, work, "rhs")
        bad = (np.multiply(lhs, denom ** b, out=lhs)
               != np.multiply(rhs, denom ** a, out=rhs))
    else:
        lhs = _side(arrays, pos, product, work, "lhs")
        diff = np.subtract(lhs, _side(arrays, neg, product, work, "rhs"), out=lhs)
        bad = ~(np.abs(diff) <= tol)
    return np.flatnonzero(bad)


def _scratch(work: dict, slot: str, dtype, n: int) -> np.ndarray:
    """A length-``n`` scratch array of ``dtype``, kept in ``work`` under ``slot``."""
    buf = work.get((slot, dtype))
    if buf is None or len(buf) < n:
        buf = work[slot, dtype] = np.empty(n, dtype=dtype)
    return buf[:n]


def _side(arrays, side, product: bool, work: dict, slot: str) -> np.ndarray:
    """One side's sum or product, in the ``slot`` scratch array."""
    acc = None
    for t, K, c in side:
        table = arrays[t]
        # indices are in range by construction; mode "raise" would buffer out
        v = np.take(table, K, mode="clip",
                    out=_scratch(work, slot if acc is None else "term",
                                 table.dtype, len(K)))
        if c != 1 and product:
            v **= c
        elif c != 1:
            v *= c
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


def _sums_differ(arrays, pos, neg, modulus: int, work: dict) -> np.ndarray:
    """Where the two exact side sums differ (modulo ``modulus`` when nonzero)."""
    weight = sum(c for *_, c in pos + neg)
    arrays = _fitted(arrays, lambda m: max(m * weight, modulus))
    lhs = _side(arrays, pos, False, work, "lhs")
    rhs = _side(arrays, neg, False, work, "rhs")
    if not modulus:
        return lhs != rhs
    return np.remainder(np.subtract(lhs, rhs, out=lhs), modulus, out=lhs) != 0


# ---------------------------------------------------------------------------
# structured-form evaluation


def form_values(B: np.ndarray, l: np.ndarray, r: np.ndarray, den: int,
                info: VecDomain) -> tuple[np.ndarray, int]:
    """Values of ``x^T B x + l(x) + r(x)`` over ``den``: (numerators, denom).

    ``B`` is the symmetric dim x dim integer matrix, zero on torsion rows,
    ``l`` the free-coordinate coefficients and ``r`` the coset constants by
    coset code modulo ``X^(2)`` (:func:`coset_codes`), all numerators over
    ``den``.  The values at every domain point are over the lowest common
    denominator of the coefficients.  The numerators are int64 where a bound
    proves the arithmetic fits and Python ints otherwise, so the values are
    always exact.
    """
    return _form_at(B, l, r, den, info, slice(None))


def _form_at(B: np.ndarray, l: np.ndarray, r: np.ndarray, den: int,
             info: VecDomain, at) -> tuple[np.ndarray, int]:
    """:func:`form_values` at the domain indices ``at`` only, read from a
    column selection of :func:`_form_basis`'s products."""
    d, rank = info.group.dim, info.group.rank
    flat, den = lowest(np.concatenate([np.ravel(B), l, r]), den)
    S, (J, K), maxc = _form_basis(info)
    S, codes = S[:, at], coset_codes(info, 2)[0][at]
    bound = int(np.abs(flat).max(initial=0)) + 1
    if flat.dtype != np.int64 or bound * (d * max(maxc, 1)) ** 2 * 4 > _INT_LIMIT:
        flat, S = flat.astype(object), S.astype(object)
    B, l, r = flat[: d * d].reshape(d, d), flat[d * d: d * d + rank], flat[d * d + rank:]
    # x^T B x is the sum over j <= k of B[j, k] x_j x_k, off-diagonal terms twice
    coeffs = np.concatenate([np.where(J == K, 1, 2) * B[J, K], l])
    return coeffs @ S + r[codes], den


def _form_basis(info: VecDomain):
    """What :func:`form_values` reads of a domain: the products ``x_j x_k``
    (``j <= k``) of free coordinates and then the free coordinates, one row
    each; those index pairs; and the largest coordinate magnitude."""

    def build():
        rank = info.group.rank
        X = np.ascontiguousarray(info.coords[:, :rank].T, dtype=np.int64)
        J, K = np.triu_indices(rank)
        return (np.concatenate([X[J] * X[K], X]), (J, K),
                int(np.abs(info.coords).max(initial=0)))

    return memo((info.group, info.domain, "form"), build)


def form_log_arrays(P, l, r_entries, info: VecDomain) -> tuple[np.ndarray, int]:
    """Values of ``P(x) + l(x) + r(x)`` over the domain: (numerators, denom).

    ``r_entries`` is an iterable of (CosetIndex, Fraction) covering X^(2).
    The rational parts are scaled to integers over their least common
    denominator and evaluated by :func:`form_values`.
    """
    group = info.group
    _, encode = coset_codes(info, 2)
    r = [0] * group.coset_count(2)
    for idx, v in r_entries:
        r[encode(idx)] = v
    d, rank = group.dim, group.rank
    nums, den = _fractions_over([v for row in P.matrix for v in row]
                                + list(l.coeffs) + r)
    return form_values(nums[: d * d], nums[d * d: d * d + rank], nums[d * d + rank:],
                       den, info)
