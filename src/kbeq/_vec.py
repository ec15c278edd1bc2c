"""Vectorized pair/triple enumeration over box and full-group domains.

Domains enumerate points in lexicographic coordinate order, which coincides
with the mixed-radix code ``sum(digit_c * stride_c)`` where free coordinates
use ``digit = value + radius`` and torsion coordinates use the residue
itself.  :func:`point_codes` is the one encoder of that rule: it maps
integer coordinate arrays, torsion coordinates unreduced, to domain indices
and an in-domain mask, so the index of an affine combination such as
``cx*x + cy*y`` is array arithmetic and exhaustive quantifier sweeps run in
numpy.  Pair and triple sweeps alone build their indices from
per-coordinate factors, and coset codes use the coset radix instead.
Tables store their values as arrays in domain order
(``FuncTable.encoding``); :func:`numeric_mode` brings several tables to one
arithmetic and :func:`failures` evaluates any signed sum or product
identity over aligned index arrays.  :func:`apart` is the
one tolerant comparison of floats, which the kernel and every other module
call, and :func:`first_difference` compares two tables entry by entry,
exactly or by :func:`apart`.  Exactness is kept by
scaling rationals to a common denominator, in int64 only where a bound
proves the sums fit and in Python ints otherwise.

Tuple sweeps never build an array of all n^m tuples of m points.  A tuple
is in range iff it is in range in every coordinate, so :func:`pair_count`
is a product of per-coordinate counts and :func:`pair_blocks` generates the
tuples block by block from per-coordinate digit-tuple lists.  Every sweep,
of pairs or of triples, streams its blocks through reused scratch arrays
and stops at the first failing block, so no index array of a sweep outlives
it.  Per-domain maps (coordinates, negation and coset codes, the form
basis, the split's read points, tuple counts, the census's coset shifts)
are cached by :func:`memo` in one store holding at most ``_CACHE_BYTES`` of
arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import BudgetExceededError, IncompatibleTablesError
from .groups import Box, Domain, GroupSpec

_PAIR_GUARD = 30_000_000  # refuse tuple sweeps with more in-range tuples
_BLOCK_PAIRS = 1 << 16    # tuples per block of a tuple sweep
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


def memo(key, build):
    """The cached value under ``key``, built by ``build()`` on a miss and kept
    if it fits ``_CACHE_BYTES``, the oldest entries dropped until it does."""
    hit = _pair_cache.get(key)
    if hit is not None:
        return hit
    value = build()
    size = _nbytes(value)
    if size <= _CACHE_BYTES:
        while size + sum(map(_nbytes, _pair_cache.values())) > _CACHE_BYTES:
            del _pair_cache[next(iter(_pair_cache))]
        _pair_cache[key] = value
    return value


# ---------------------------------------------------------------------------
# tuple sweeps from per-coordinate factors
#
# A tuple of m points is in range iff it is in range in every coordinate, so
# the in-range tuples are a product of per-coordinate digit-tuple lists.  For
# each digit tuple of the first m - 1 variables of a coordinate, the digits
# of the last variable keeping every combination in range form one interval:
# all t residues on a torsion coordinate Z/t, and the intersection of the
# intervals cut out by -r <= sum c_i a_i <= r on a free coordinate of radius
# r.  Pairs (x, y) are the tuples of arity 2, whose prefixes are the x digits.


def _intervals(info: VecDomain, c: int, combos, a0: int, a1: int):
    """Coordinate ``c``'s digit tuples of every variable but the last whose
    first digit lies in [a0, a1), in lexicographic order, with the first
    in-range digit of the last variable and its count for each."""
    group, m = info.group, len(combos[0])
    width = len(info.domain.ranges(group)[c])
    prefix = np.indices((a1 - a0,) + (width,) * (m - 2)).reshape(m - 1, -1)
    prefix[0] += a0
    n = prefix.shape[1]
    if c >= group.rank:
        return prefix, np.zeros(n, dtype=np.int64), np.full(n, width)
    r = info.radii[c]
    lo, hi = np.full(n, -r), np.full(n, r)
    for *cs, cl in combos:
        shift = sum(ci * (a - r) for ci, a in zip(cs, prefix))
        if cl == 0:
            hi[np.abs(shift) > r] = -r - 1
            continue
        q, shift = abs(cl), shift if cl > 0 else -shift
        lo = np.maximum(lo, -((r + shift) // q))   # ceil((-r - shift) / q)
        hi = np.minimum(hi, (r - shift) // q)
    return prefix, lo + r, np.maximum(hi - lo + 1, 0)


def _factors(info: VecDomain, combos) -> list[int]:
    """Per coordinate, the count of in-range digit tuples, summed over chunks
    of first digits so no coordinate's full grid of prefixes is ever held."""
    out = []
    for c, width in enumerate(map(len, info.domain.ranges(info.group))):
        step = max(1, _BLOCK_PAIRS // width ** (len(combos[0]) - 2))
        out.append(sum(
            int(_intervals(info, c, combos, a, min(a + step, width))[2].sum())
            for a in range(0, width, step)))
    return out


def pair_count(info: VecDomain, combos) -> int:
    """Number of in-range tuples (pairs (x, y) for combinations of two
    coefficients), the product of the per-coordinate counts; builds no
    index, so any window can be counted.  Cached per domain and
    combinations."""
    return memo((info.group, info.domain, "count", combos),
                lambda: math.prod(_factors(info, combos)))


def _rows(info: VecDomain, c: int, combos, prefix, lo, counts) -> list:
    """Index contributions [each variable, *combinations] of coordinate
    ``c``'s in-range digit tuples of the given :func:`_intervals`."""
    last = np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts - lo, counts)
    digits = [*np.repeat(prefix, counts, axis=1), last]
    group = info.group
    if c < group.rank:
        r = info.radii[c]  # digit of sum c_i (d_i - r)
        ks = [sum(ci * d for ci, d in zip(cs, digits)) - (sum(cs) - 1) * r
              for cs in combos]
    else:
        t = group.torsion[c - group.rank]
        ks = [sum(ci * d for ci, d in zip(cs, digits)) % t for cs in combos]
    return [d * info.strides[c] for d in (*digits, *ks)]


def _outer(a: list, b: list, work: Optional[dict] = None) -> list:
    """Every entry of ``a`` combined with every entry of ``b``, a-major, in
    scratch arrays kept in ``work`` (fresh arrays without it)."""
    work = {} if work is None else work
    shape = (len(a[0]), len(b[0]))
    return [np.add(u[:, None], v, out=_scratch(work, f"index{k}", np.int64,
                                               shape[0] * shape[1]).reshape(shape)
                   ).ravel() for k, (u, v) in enumerate(zip(a, b))]


def pair_blocks(info: VecDomain, combos, limit: int, work: Optional[dict] = None):
    """Every in-range tuple as aligned index arrays [each variable,
    *K_combo], in blocks: [I, J, *K_combo] for pairs.

    A block holds every in-range tuple of a contiguous range of the first
    variable x, and the ranges ascend, so the first block holding a tuple
    with some property holds the lexicographically first such tuple.  A
    block has at most ``limit`` tuples unless the tuples of a single x
    outnumber it.  Within a block the order is not lexicographic.  Given a
    ``work`` dict, blocks are written into scratch arrays kept there, so
    each block is valid only until the next one is generated.
    """
    ranges = info.domain.ranges(info.group)
    # every prefix of each coordinate at once: few for a sweep within the guard
    grids = [_intervals(info, c, combos, 0, len(r)) for c, r in enumerate(ranges)]
    factors = [g[2].reshape(len(r), -1).sum(axis=1) for g, r in zip(grids, ranges)]
    dim = info.group.dim
    suffix = [1] * (dim + 1)  # tuples over coordinates c, c+1, ...
    for c in range(dim - 1, -1, -1):
        suffix[c] = suffix[c + 1] * int(factors[c].sum())
    tails = {dim: [np.zeros(1, dtype=np.int64)] * (len(combos[0]) + len(combos))}

    def rows(c, a0, a1):  # coordinate c's tuples whose first digit is in [a0, a1)
        per = len(ranges[c]) ** (len(combos[0]) - 2)  # prefixes per first digit
        return _rows(info, c, combos, *(g[..., a0 * per:a1 * per] for g in grids[c]))

    def tail(c):
        if c not in tails:
            tails[c] = _outer(rows(c, 0, len(factors[c])), tail(c + 1))
        return tails[c]

    def walk(c, prefix):
        # prefix: the tuples of coordinates < c for one fixed x prefix
        if c == dim:
            yield prefix
            return
        cum = np.concatenate(([0], np.cumsum(factors[c])))
        per_row = len(prefix[0]) * suffix[c + 1]
        a = 0
        while a < len(cum) - 1:
            b = int(np.searchsorted(cum, cum[a] + limit // per_row, side="right")) - 1
            if b > a:
                yield _outer(_outer(prefix, rows(c, a, b)), tail(c + 1), work)
                a = b
            else:  # one x digit is too many tuples: fix it and split further
                yield from walk(c + 1, _outer(prefix, rows(c, a, a + 1)))
                a += 1

    yield from walk(0, tails[dim])


def pair_sweep(info: VecDomain, combos, enc, terms, tol: float,
               product: bool) -> tuple[int, Optional[list[int]]]:
    """Sweep an identity over every in-range tuple: pairs (x, y), or
    triples for combinations of three coefficients.

    Returns the number of in-range tuples and the point indices [each
    variable, *combination points] of the lexicographically first failing
    tuple, or None; ``enc``, ``terms``, ``tol`` and ``product`` are as for
    :func:`failures`.  More than ``_PAIR_GUARD`` tuples are refused before
    any index is built.  The tuples are generated in blocks of
    ``_BLOCK_PAIRS`` into the same scratch arrays block after block, and the
    sweep stops at the first block holding a failure, so memory stays
    bounded and no index array outlives the sweep.
    """
    count = pair_count(info, combos)
    if count > _PAIR_GUARD:
        name = "pair" if len(combos[0]) == 2 else "triple"
        raise BudgetExceededError(
            f"{name} sweep over {count} in-range {name}s exceeds the built-in "
            f"guard of {_PAIR_GUARD}"
        )
    work: dict = {}
    for axes in pair_blocks(info, combos, _BLOCK_PAIRS, work):
        hit = failures(enc, axes, terms, tol, product, work)
        if len(hit):
            for a in axes[:len(combos[0])]:  # the lexicographically first
                hit = hit[a[hit] == a[hit].min()]
            return count, [int(a[hit[0]]) for a in axes]
    return count, None


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


def coset_codes(info: VecDomain, modulus: int) -> np.ndarray:
    """Per-point coset code modulo ``X^(modulus)`` (:func:`coset_codes_at`),
    cached and read-only."""

    def build() -> np.ndarray:
        code = coset_codes_at(info.group, modulus, info.coords.astype(np.int64))
        code.setflags(write=False)
        return code

    return memo((info.group, info.domain, "coset", modulus), build)


def coset_codes_at(group: GroupSpec, modulus: int, coords: np.ndarray) -> np.ndarray:
    """The coset codes modulo ``X^(modulus)`` of the rows of an integer
    coordinate array (of Python ints at any magnitude, or int64).

    A code has the mixed-radix digits ``x_c mod m`` on free coordinates and
    ``x_c mod gcd(m, n_c)`` on torsion ones, so codes ascend with the
    cosets' residues, lexicographically: the code of a coset is its place
    in ``GroupSpec.coset_indices`` and in the entries of a coset or sign map.
    """
    radix = [modulus] * group.rank + [math.gcd(modulus, n) for n in group.torsion]
    strides = [math.prod(radix[c + 1:]) for c in range(group.dim)]
    codes = coords % np.array(radix, dtype=np.int64) @ np.array(strides, dtype=np.int64)
    return codes.astype(np.int64, copy=False)


def join_span(info: VecDomain, span: np.ndarray, coords) -> None:
    """Grow ``span``, the mask of a subgroup on a finite group's domain, in
    place to the span of it and the element of coordinates ``coords``: the
    cosets ``span + j e`` below the first multiple of ``e`` in ``span``."""
    steps = np.arange(info.n + 1)[:, None] * np.asarray(coords, dtype=np.int64)
    m = 1 + int(np.argmax(span[point_codes(info, steps[1:])[0]]))
    cosets = np.concatenate(steps[:m, None] + info.coords[span])
    span[point_codes(info, cosets)[0]] = True


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
    """Encode tables jointly for :func:`failures`: (kind, arrays, denom).

    ``tables`` are tables or their ``(mode, arrays, denom)`` encodings, and
    the arithmetic follows from the modes:

    * ``"int"``: rationals as integer numerators over one common ``denom``;
    * ``"parity"``: sign tables as 0/1 exponents of -1;
    * ``"float"``: real or positive values, any of them in a ``"float"``
      encoding (whose arrays may be numerators over ``denom``);
    * ``"exact"``: complex tables of :class:`~kbeq.functions.Exact` values,
      one (log numerators, turn numerators, zero mask) triple per table
      over common denominators, ``denom`` being the turn denominator;
    * ``"complex"``: complex tables holding any float complex value.

    Integer arrays are int64 when every value is within ``_INT_LIMIT`` and
    hold Python ints otherwise.
    """
    encs = [t if isinstance(t, tuple) else t.encoding for t in tables]
    kinds = {e[0] for e in encs}
    if kinds == {"parity"}:
        return "parity", [e[1] for e in encs], 1
    if kinds == {"int"}:
        denom = math.lcm(*(e[2] for e in encs))
        return "int", [_rescale(e[1], denom // e[2]) for e in encs], denom
    if kinds <= {"int", "float"}:
        return "float", [np.asarray(e[1] / e[2], dtype=np.float64) for e in encs], 1
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


def apart(a, b, tol: float, out=None):
    """The one tolerant comparison: where ``~(|a - b| <= tol)``, so a NaN is
    apart from every value; the difference goes to ``out`` when given."""
    return ~(np.abs(np.subtract(a, b, out=out)) <= tol)


def first_difference(a, b, tol: float, at=None) -> Optional[int]:
    """The first index (of ``at``, in order, when given) where two tables
    or ``(mode, arrays, denom)`` encodings differ, or None: one ``!=`` in
    the arithmetic :func:`numeric_mode` picks (turns modulo their
    denominator, exact zeros by their masks), or :func:`apart` on floats."""
    kind, (u, v), denom = numeric_mode([a, b])
    if at is not None:
        u, v = ((tuple(c[at] for c in w) if kind == "exact" else w[at]) for w in (u, v))
    if kind == "exact":
        (lu, tu, zu), (lv, tv, zv) = u, v
        tu, tv = _fitted([tu, tv], lambda m: 2 * max(m, denom))
        bad = (zu != zv) | (~zu & ((lu != lv) | ((tu - tv) % denom != 0)))
    elif kind in ("float", "complex"):
        bad = apart(u, v, tol)
    else:
        bad = u != v
    hit = np.flatnonzero(bad)
    if not len(hit):
        return None
    return int(hit[0] if at is None else at[hit[0]])


def failures(enc, axes: Sequence[np.ndarray], terms, tol: float,
             product: bool, work: Optional[dict] = None) -> np.ndarray:
    """Ascending indices of the tuples where a signed identity fails.

    ``axes`` are aligned arrays of point indices, one entry per tuple, and
    each term ``(table, axis, c)`` contributes table ``table`` at ``axes[axis]``
    with coefficient ``c``.  The identity is ``prod T(p)^c == 1`` when
    ``product`` and ``sum c T(p) == 0`` otherwise; each side collects the
    terms of one coefficient sign.  Exact kinds compare exactly (parity and
    turns modulo their denominator, exact-complex zeros by their masks);
    float kinds fail where the sides are :func:`apart`.  Side values
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
        bad = apart(lhs, _side(arrays, neg, product, work, "rhs"), tol, out=lhs)
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
    S, pairs, maxc = _form_basis(info)
    return _form_sum(B, l, r, den, info.group, (S[:, at], pairs, maxc),
                     coset_codes(info, 2)[at])


def form_value_at(B: np.ndarray, l: np.ndarray, r: np.ndarray, den: int,
                  group: GroupSpec, coords: Sequence[int]) -> tuple[int, int]:
    """:func:`form_values` at the one point of coordinates ``coords``, which
    may exceed int32: (numerator, denom), from products in Python ints."""
    row = np.array([coords], dtype=object)
    basis = (*_products(row[:, :group.rank].T), max(map(abs, coords), default=0))
    nums, den = _form_sum(B, l, r, den, group, basis, coset_codes_at(group, 2, row))
    return int(nums[0]), den


def _form_sum(B: np.ndarray, l: np.ndarray, r: np.ndarray, den: int,
              group: GroupSpec, basis, codes) -> tuple[np.ndarray, int]:
    """The form's values at the points whose products, index pairs and
    largest coordinate magnitude are ``basis`` (see :func:`_form_basis`) and
    whose coset codes modulo ``X^(2)`` are ``codes``."""
    d, rank = group.dim, group.rank
    flat, den = lowest(np.concatenate([np.ravel(B), l, r]), den)
    S, (J, K), maxc = basis
    bound = int(np.abs(flat).max(initial=0)) + 1
    if flat.dtype != np.int64 or bound * (d * max(maxc, 1)) ** 2 * 4 > _INT_LIMIT:
        flat, S = flat.astype(object), S.astype(object)
    B, l, r = flat[: d * d].reshape(d, d), flat[d * d: d * d + rank], flat[d * d + rank:]
    # x^T B x is the sum over j <= k of B[j, k] x_j x_k, off-diagonal terms twice
    coeffs = np.concatenate([np.where(J == K, 1, 2) * B[J, K], l])
    return coeffs @ S + r[codes], den


def _products(X: np.ndarray):
    """The products ``x_j x_k`` (``j <= k``) of the rows of ``X`` and then
    the rows themselves, with those index pairs in the order of
    ``np.triu_indices``, listed directly: that call costs more than the
    products of one point."""
    J, K = np.array([(j, k) for j in range(len(X)) for k in range(j, len(X))],
                    dtype=np.intp).reshape(-1, 2).T
    return np.concatenate([X[J] * X[K], X]), (J, K)


def _form_basis(info: VecDomain):
    """What :func:`form_values` reads of a domain: the :func:`_products` of
    its free coordinates, one column per point, with their index pairs, and
    the largest coordinate magnitude."""

    def build():
        X = np.ascontiguousarray(info.coords[:, :info.group.rank].T, dtype=np.int64)
        return (*_products(X), int(np.abs(info.coords).max(initial=0)))

    return memo((info.group, info.domain, "form"), build)
