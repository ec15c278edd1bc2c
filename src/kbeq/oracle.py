"""Independent brute-force ground truth at desk scale.

This module owns the built-in example tables (the (Z/4)^2 sign pair whose
sign maps are constant on quadrupled but not doubled cosets, and the
(-1)^(mn) table on Z^2), exhaustive solution censuses on small finite
groups, and a cross-check suite that exercises synthesis, decomposition and
the censuses against each other.

The restricted-grid census enumerates every pair of grid-valued positive
functions satisfying the functional equation using equation instances only,
never the classification.  The instances are brought to reduced echelon
form by exact fraction-free integer elimination; the search branches on the
free variables alone and back-substitutes the determined ones, keeping a
row only when every determined value is integral and on the grid.  Rows are
built in blocks from a fixed template of the last free variables with small
integer arrays, so groups whose solution sets run into the tens of millions
stay tractable; results stream in lexicographic order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from random import Random
from typing import Callable, Optional, Sequence

import numpy as np

from . import _vec
from .checks import (
    _KB_COMBOS,
    check_coset_constant,
    check_hermitian,
    check_kb,
    check_kb_self,
)
from .decompose import (
    decompose_hermitian,
    decompose_positive,
    decompose_self,
    decompose_vanishing,
    extend_character,
)
from .errors import (
    BudgetExceededError,
    GroupHypothesisError,
    GroupParseError,
    KbeqError,
)
from .functions import (
    AdditiveMap,
    CharacterSpec,
    CosetConstantMap,
    FuncTable,
    HermitianSolutionForm,
    KIND_POSITIVE,
    KIND_SIGN,
    PositiveSolutionForm,
    QuadraticForm,
    SignMap,
    _character_table,
    _hermitian_tables,
    synth_table,
)
from .groups import Box, FullGroup, GroupSpec, SubgroupSpec, parse_group

__all__ = [
    "builtin_counterexample",
    "builtin_odd_quadratic",
    "SignSolutionCensus",
    "enum_sign_solutions",
    "enum_restricted_kb",
    "scan_restricted_kb",
    "predicted_restricted_count",
    "restricted_rows_match_prediction",
    "SuiteReport",
    "SuiteFailedError",
    "verify_theorem_suite",
    "random_positive_form",
    "random_hermitian_form",
    "DEFAULT_SUITE_GROUPS",
]


# ---------------------------------------------------------------------------
# built-in example tables


_CEX_F_MINUS = {(1, 2), (3, 2), (2, 1), (2, 3), (1, 3), (3, 1)}
_CEX_G_MINUS = {(1, 2), (3, 2), (2, 1), (2, 3), (1, 1), (3, 3)}


def builtin_counterexample() -> tuple[FuncTable, FuncTable]:
    """The (Z/4)^2 sign pair that is constant on quadrupled cosets only.

    f is -1 exactly on (1,2),(3,2),(2,1),(2,3),(1,3),(3,1); g swaps the
    roles of (1,1),(3,3) and (1,3),(3,1).
    """
    group = GroupSpec(0, (4, 4))
    f = FuncTable.from_function(
        group, FullGroup(), KIND_SIGN,
        lambda p: -1 if p.coords in _CEX_F_MINUS else 1,
    )
    g = FuncTable.from_function(
        group, FullGroup(), KIND_SIGN,
        lambda p: -1 if p.coords in _CEX_G_MINUS else 1,
    )
    return f, g


def builtin_odd_quadratic(radius: int) -> FuncTable:
    """The table ``(m, n) -> (-1)^(m n)`` on a Z^2 box."""
    if radius < 1:
        raise ValueError("radius must be >= 1")
    group = GroupSpec(2)
    return FuncTable.from_function(
        group, Box((radius, radius)), KIND_SIGN,
        lambda p: -1 if (p.coords[0] * p.coords[1]) % 2 else 1,
    )


# ---------------------------------------------------------------------------
# sign-pair census


_SIGN_SIDE_BUDGET = 1 << 22  # entries 2^k n^2 of one side parity matrix


@dataclass
class SignSolutionCensus:
    """All even sign pairs, trivial on X^(2), satisfying the sign equation.

    ``annotations[i]`` records for pair i whether each map is constant on
    quadrupled and on doubled cosets, and the per-coset relation between the
    two maps (+1 for equal, -1 for opposite).
    """

    group: GroupSpec
    pairs: list[tuple[FuncTable, FuncTable]]
    annotations: list[dict]

    @property
    def count(self) -> int:
        return len(self.pairs)

    def to_json(self) -> dict:
        return {
            "group": str(self.group),
            "count": self.count,
            "pairs": [
                {
                    "a": [[list(p.coords), v] for p, v in a.values.items()],
                    "b": [[list(p.coords), v] for p, v in b.values.items()],
                    **ann,
                }
                for (a, b), ann in zip(self.pairs, self.annotations)
            ],
        }


def enum_sign_solutions(group: GroupSpec, order_budget: int = 256) -> SignSolutionCensus:
    """Exhaustive census of sign pairs (a, b) with the required structure.

    Free choices are the values on the ``k`` negation orbits outside
    ``X^(2)`` (sign maps are even and 1 on the doubled image), enumerated
    lexicographically (+1 before -1).  In parity bits the sign equation is
    ``a(x+y) + a(x) + a(y) = b(x-y) + b(x) + b(y)`` at every point pair, so
    each candidate's side is one row of XORed parity columns and a pair
    solves it iff its rows are equal; matches come out in ``(a, b)`` order,
    and their annotations are read from the same parity matrix.  More than
    ``_SIGN_SIDE_BUDGET`` side entries, ``2^k n^2``, are refused before any
    pair is built.
    """
    if not group.is_finite:
        raise GroupHypothesisError("census needs a finite group")
    n = group.order()
    if n > order_budget:
        raise BudgetExceededError(f"group order {n} exceeds budget {order_budget}")
    info = _vec.domain_info(group, FullGroup())
    cosets = _vec.coset_codes(info, 2)
    # negation orbits of elements outside X^(2), numbered by least element
    outside = np.flatnonzero(cosets != 0)
    least = np.minimum(outside, _vec.neg_codes(info)[outside])
    firsts, orbit_of = np.unique(least, return_inverse=True)
    k = len(firsts)
    if 2**k * n * n > _SIGN_SIDE_BUDGET:
        raise BudgetExceededError(
            f"{2**k} candidate maps on {n} elements exceed the census budget"
        )
    # every pair (x, y) with the indices of x+y and x-y, in any order
    ii, jj, kxy, kxmy = map(np.concatenate, zip(
        *_vec.pair_blocks(info, ((1, 1), (1, -1)), n * n)))
    # candidate parity vectors: orbit o of candidate c is bit k-1-o of c
    bits = np.arange(2**k)[:, None] >> np.arange(k - 1, -1, -1) & 1
    par = np.zeros((2**k, n), dtype=np.uint8)
    par[:, outside] = bits[:, orbit_of]
    side_a, side_b = (np.packbits(par[:, s] ^ par[:, ii] ^ par[:, jj], axis=1)
                      for s in (kxy, kxmy))
    by_side: dict[bytes, list[int]] = {}
    for cb, row in enumerate(side_b):
        by_side.setdefault(row.tobytes(), []).append(cb)
    matches = [(ca, cb) for ca, row in enumerate(side_a)
               for cb in by_side.get(row.tobytes(), ())]
    pairs = [tuple(FuncTable._of(group, FullGroup(), KIND_SIGN,
                                 ("parity", par[c].astype(np.int64), 1)) for c in (ca, cb))
             for ca, cb in matches]
    return SignSolutionCensus(group, pairs, _annotations(info, par, matches))


def _annotations(info: _vec.VecDomain, par: np.ndarray,
                 matches: list[tuple[int, int]]) -> list[dict]:
    """Annotations of the pairs ``matches`` of rows of the parity matrix
    ``par`` (one row of 0/1 parities per map, in domain order).

    A map is constant on the cosets of ``X^(m)`` meeting the domain when
    every point's parity equals that of its coset's first point: one
    comparison of the whole matrix per modulus, read per pair by row index.
    The per-coset relation counts, per coset of ``X^(2)``, the points where
    the pair's parities agree.
    """
    constant = {}
    for m in (2, 4):
        codes = _vec.coset_codes(info, m)
        _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
        constant[m] = (par == par[:, first[inverse]]).all(axis=1).tolist()
    codes = _vec.coset_codes(info, 2)
    cosets = [(",".join(map(str, idx.residues)), c)
              for c, idx in enumerate(info.group.coset_indices(2))]
    # per coset code: its points, and those where a = b
    size = 1 + max(c for _, c in cosets)
    points = np.bincount(codes, minlength=size)
    out = []
    for ca, cb in matches:
        equal = np.bincount(codes[par[ca] == par[cb]], minlength=size)
        # 1 or -1 where a = b or a = -b throughout a coset, else 0; None off the domain
        relation = {key: None if not points[c] else
                    1 if equal[c] == points[c] else -1 if not equal[c] else 0
                    for key, c in cosets}
        out.append({
            "a_constant_mod4": constant[4][ca],
            "b_constant_mod4": constant[4][cb],
            "a_constant_mod2": constant[2][ca],
            "b_constant_mod2": constant[2][cb],
            "coset_relation": relation,
        })
    return out


# ---------------------------------------------------------------------------
# restricted-grid census of the full equation


class _GridSolver:
    """Grid search on the free variables of the exact echelon form.

    Variables are the scaled logs ``T(x)``, ``S(x)`` of f and g, taken in the
    greedy element order.  The equation instances are row-reduced over the
    integers with every pivot on its row's highest variable, so each
    determined variable is an integer combination of lower free variables
    divided by a positive integer.  The search enumerates grid assignments
    of the free variables lexicographically -- a recursion over a prefix,
    then one block per prefix from a fixed template of the last free
    variables -- and keeps a row when every determined value is integral
    and on the grid.  Two solutions first differ at a free variable (a
    determined one is fixed by the free ones before it), so rows come out in
    the lexicographic order of whole rows.

    The template is sized in bytes, not rows: it takes the most trailing
    free variables whose ``g^k`` rows of ``nvars`` dtype entries fit
    ``block_bytes`` (at least one row, and never more rows than the row
    budget).  The template and every emitted chunk therefore stay within
    ``block_bytes`` on any group and grid, and so does each template sum
    (at most 8 bytes a row) on groups of order 4 or more.
    """

    block_bytes = 2 << 20  # most bytes in one template block
    # bound on |entry products| under which elimination stays in int64
    int64_limit = (1 << 63) - 1

    def __init__(self, group: GroupSpec, log_grid: Sequence[Fraction],
                 budget: int):
        self.group = group
        self.grid = [Fraction(v) for v in log_grid]
        if len(set(self.grid)) != len(self.grid):
            raise GroupParseError("grid values must be distinct")
        self.budget = budget
        self.nvars = 2 * group.order()
        denom = 1
        for v in self.grid:
            denom = denom * v.denominator // math.gcd(denom, v.denominator)
        self.denom = denom
        self.gvals = [int(v * denom) for v in self.grid]
        self.dtype = np.int8 if max(abs(v) for v in self.gvals) <= 127 else np.int64
        raw = self._raw_instances()
        order = self._element_order(raw)
        # solver variable 2i / 2i+1 holds T / S at element order[i]; it is
        # written to column col[var] of the emitted rows (element order)
        self.col = [2 * ei + half for ei in order for half in (0, 1)]
        self._plan(self._echelon(raw[:, self.col]))

    def _raw_instances(self) -> np.ndarray:
        """Distinct nonzero equation instances, one coefficient row each.

        Instance (x, y) reads ``T(x+y) + S(x-y) - T(x) - T(y) - S(x) - S(-y)``
        with ``T(e)`` in column ``2e`` and ``S(e)`` in column ``2e+1``.
        """
        n = self.group.order()
        x, y, s, d, ny = map(np.concatenate, zip(*_vec.pair_blocks(
            _vec.domain_info(self.group, FullGroup()), _KB_COMBOS, n * n)))
        m = np.zeros((n * n, self.nvars), dtype=np.int64)
        pair = np.arange(n * n)
        for var, co in ((2 * s, 1), (2 * d + 1, 1), (2 * x, -1), (2 * y, -1),
                        (2 * x + 1, -1), (2 * ny + 1, -1)):
            np.add.at(m, (pair, var), co)
        # a return_* flag: numpy 2.4's unflagged unique imports numpy.ma
        return np.unique(m[m.any(axis=1)], axis=0, return_index=True)[0]

    def _element_order(self, raw: np.ndarray) -> list[int]:
        """Greedy processing order: trigger equation instances early.

        Each step appends the element that completes the most still-open
        instances (ties to the lexicographically first element), which keeps
        the search frontier collapsing as soon as the equations allow.  An
        open instance is completed by e exactly when e is its only unplaced
        element, so the gains are counts of single-element remainders.
        """
        n = self.group.order()
        if n > 64:
            return list(range(n))
        present = (raw[:, 0::2] != 0) | (raw[:, 1::2] != 0)
        bits = np.left_shift(np.uint64(1), np.arange(n, dtype=np.uint64))
        masks = [int(v) for v in (present * bits).sum(axis=1, dtype=np.uint64)]
        placed = 1
        order = [0]
        open_rem = [m & ~placed for m in masks if m & ~placed]
        while len(order) < n:
            gain = [0] * n
            for rem in open_rem:
                if rem & (rem - 1) == 0:
                    gain[rem.bit_length() - 1] += 1
            best = max((e for e in range(n) if not placed >> e & 1),
                       key=lambda e: (gain[e], -e))
            placed |= 1 << best
            order.append(best)
            open_rem = [r & ~placed for r in open_rem if r & ~placed]
        return order

    def _echelon(self, m: np.ndarray) -> dict[int, dict]:
        """Reduced echelon form of the instance rows over the integers.

        Fraction-free Gauss-Jordan elimination (Cohen, *A Course in
        Computational Algebraic Number Theory*, sec. 2.4) from the highest
        variable down: each pivot sits on its row's highest variable and is
        cleared from every other row, and each changed row is divided by its
        content.  Entries stay int64 while every product provably fits and
        move to Python integers otherwise.  Returns ``{pivot: {var: coef}}``
        with a positive pivot entry, content 1 and no other pivot variable.
        That form is unique, so the choice of pivot rows changes nothing.
        ``m`` is reduced in place.
        """
        active = np.ones(len(m), dtype=bool)
        pivot_row = {}
        for c in range(self.nvars - 1, -1, -1):
            nz = m[:, c] != 0
            cand = np.flatnonzero(nz & active)
            if len(cand) == 0:
                continue
            p = int(cand[0])
            active[p] = False
            pivot_row[c] = p
            nz[p] = False
            others = np.flatnonzero(nz)
            if len(others) == 0:
                continue
            if m.dtype != object and (2 * int(np.abs(m[p]).max())
                                      * int(np.abs(m[others]).max())
                                      > self.int64_limit):
                m = m.astype(object)
            sub = m[p, c] * m[others] - m[others, c][:, None] * m[p]
            content = np.gcd.reduce(sub, axis=1)
            content[content == 0] = 1
            m[others] = sub // content[:, None]
        out = {}
        for c, p in pivot_row.items():
            row = [int(v) for v in m[p]]
            g = math.gcd(*row) if row[c] > 0 else -math.gcd(*row)
            out[c] = {v: co // g for v, co in enumerate(row) if co}
        return out

    def _plan(self, pivots: dict[int, dict]):
        """Split free variables into prefix and template; place each check.

        A determined variable with template inputs is tested per block;
        otherwise it is tested at the prefix depth of its last input (or
        once, before the search, when it has no inputs and is always 0).
        """
        free = [v for v in range(self.nvars) if v not in pivots]
        g = len(self.gvals)
        row_bytes = self.nvars * np.dtype(self.dtype).itemsize
        limit = min(self.block_bytes // row_bytes, self.budget)
        k = 0
        while k < len(free) and g ** (k + 1) <= limit:
            k += 1
        self.prefix = free[:len(free) - k]
        self.template = free[len(free) - k:]
        self.block_rows = g ** k
        depth_of = {v: i for i, v in enumerate(self.prefix)}
        slot_of = {v: j for j, v in enumerate(self.template)}
        lo_g, hi_g = min(self.gvals), max(self.gvals)
        self.uses: list[list[tuple[int, int]]] = [[] for _ in self.prefix]
        self.ready: list[list[int]] = [[] for _ in self.prefix]
        self.const_dets: list[int] = []
        self.block_dets: list[int] = []
        self.det_col, self.det_den, self.det_tm = [], [], []
        self.tmin, self.tmax = [], []
        for di, (p, row) in enumerate(sorted(pivots.items())):
            self.det_col.append(self.col[p])
            self.det_den.append(row[p])
            coefs = [(v, -c) for v, c in row.items() if v != p]
            if sum(abs(c) for _, c in coefs) * max(-lo_g, hi_g) >= 1 << 62:
                # template sums and numerators are evaluated in int64
                raise BudgetExceededError("echelon coefficients too large for the search")
            pre = [(depth_of[v], c) for v, c in coefs if v in depth_of]
            tm = [(slot_of[v], c) for v, c in coefs if v in slot_of]
            for depth, c in pre:
                self.uses[depth].append((di, c))
            self.det_tm.append(tm)
            self.tmin.append(sum(min(c * lo_g, c * hi_g) for _, c in tm))
            self.tmax.append(sum(max(c * lo_g, c * hi_g) for _, c in tm))
            if tm:
                self.block_dets.append(di)
            elif pre:
                self.ready[max(d for d, _ in pre)].append(di)
            else:
                self.const_dets.append(di)
        bits = 8 * np.dtype(self.dtype).itemsize
        self._wrap_mod = 1 << bits
        self._wrap_half = 1 << (bits - 1)

    def _value(self, num: int, den: int) -> Optional[int]:
        """``num / den`` when it is a grid value, else None."""
        q, r = divmod(num, den)
        return q if r == 0 and q in self.gvals else None

    def _spend(self, rows: int):
        self._used += rows
        if self._used > self.budget:
            raise BudgetExceededError(
                f"grid search exceeded the row budget ({self.budget})"
            )

    def run(self, emit: Callable[[np.ndarray], None]) -> int:
        """Stream distinct solution rows (scaled logs, element-order columns).

        Rows are distinct because free-variable assignments are, and their
        order is deterministic.  ``_used`` counts the rows generated:
        candidates at each prefix depth plus whole template blocks.
        """
        self._used = 0
        self._count = 0
        self._block0 = None
        self._tsums: dict[int, np.ndarray] = {}
        if all(self._value(0, self.det_den[di]) is not None
               for di in self.const_dets):
            row = np.zeros(self.nvars, dtype=self.dtype)
            self._descend(0, [0] * len(self.det_col), row, emit)
        return self._count

    def _descend(self, depth: int, bases: list[int], row: np.ndarray, emit):
        """Assign prefix free variable ``depth``; ``bases`` are numerators."""
        if depth == len(self.prefix):
            self._block(bases, row, emit)
            return
        self._spend(len(self.gvals))
        col = self.col[self.prefix[depth]]
        for v in self.gvals:
            nb = list(bases)
            for di, c in self.uses[depth]:
                nb[di] += c * v
            for di in self.ready[depth]:
                q = self._value(nb[di], self.det_den[di])
                if q is None:
                    break
                row[self.det_col[di]] = q
            else:
                row[col] = v
                self._descend(depth + 1, nb, row, emit)

    def _block(self, bases: list[int], row: np.ndarray, emit):
        """Emit the solutions that complete one prefix.

        Rows are the template block plus the prefix row.  A determined
        value with denominator 1 is its numerator, which the template holds
        without the prefix part; both parts are stored modulo the dtype's
        range, so their sum is exact wherever the value is on the grid.
        Determined values are tested per row unless the exact interval of
        their numerators over the block holds only valid numerators.
        """
        tests = []
        for di in self.block_dets:
            b, d = bases[di], self.det_den[di]
            lo, hi = b + self.tmin[di], b + self.tmax[di]
            nums = [v * d for v in self.gvals if lo <= v * d <= hi]
            if not nums:
                return
            if hi - lo + 1 > len(nums):
                tests.append((di, [x - b for x in nums]))
            row[self.det_col[di]] = (
                (b + self._wrap_half) % self._wrap_mod - self._wrap_half
                if d == 1 else 0)
        self._spend(self.block_rows)
        if self._block0 is None:
            self._build_template()
        keep = None
        for di, targets in tests:
            hit = np.isin(self._tsum(di), targets)
            keep = hit if keep is None else np.logical_and(keep, hit, out=keep)
        if keep is None:
            rows = _add_row(self._block0, row, np.empty_like(self._block0))
        else:
            rows = self._block0[keep]
            _add_row(rows, row, rows)
        for di in self.block_dets:
            if self.det_den[di] != 1:
                t = self._tsum(di)
                t = t if keep is None else t[keep]
                rows[:, self.det_col[di]] = (bases[di] + t.astype(np.int64)) \
                    // self.det_den[di]
        if len(rows):
            self._count += len(rows)
            emit(rows)

    def _build_template(self):
        """All grid assignments of the template variables, lexicographic.

        Columns of template variables hold their values; columns of
        determined variables with denominator 1 hold the template part of
        their numerator modulo the dtype's range; all others are 0.
        """
        g, k = len(self.gvals), len(self.template)
        grid = np.array(self.gvals, dtype=self.dtype)
        self._block0 = np.zeros((self.block_rows, self.nvars), dtype=self.dtype)
        for j, v in enumerate(self.template):
            self._block0[:, self.col[v]] = np.tile(
                np.repeat(grid, g ** (k - 1 - j)), g ** j)
        for di in self.block_dets:
            if self.det_den[di] == 1:
                self._block0[:, self.det_col[di]] = \
                    self._tsum(di).astype(self.dtype)

    def _tsum(self, di: int) -> np.ndarray:
        """Template part of determined variable ``di``'s numerator, exact."""
        out = self._tsums.get(di)
        if out is None:
            acc = np.zeros(self.block_rows, dtype=np.int64)
            for j, c in self.det_tm[di]:
                acc += self._block0[:, self.col[self.template[j]]] \
                    .astype(np.int64) * c
            for dt in (np.int8, np.int16, np.int32, np.int64):
                info = np.iinfo(dt)
                if info.min <= self.tmin[di] and self.tmax[di] <= info.max:
                    break
            out = self._tsums[di] = acc.astype(dt)
        return out


_LINE_ROWS = 256  # rows per flat line when a block adds its prefix row


def _add_row(block: np.ndarray, row: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[:] = block + row`` for C-contiguous ``block`` and ``out`` (which
    may be ``block``), in the block's dtype.

    Whole lines of ``_LINE_ROWS`` rows are added to a tiled copy of ``row``,
    so numpy's inner loop runs along a line rather than along one short row;
    the rows after the last whole line take a plain broadcast.
    """
    whole = len(block) - len(block) % _LINE_ROWS
    if whole:
        width = _LINE_ROWS * block.shape[1]
        np.add(block[:whole].reshape(-1, width), np.tile(row, _LINE_ROWS),
               out=out[:whole].reshape(-1, width))
    np.add(block[whole:], row, out=out[whole:])
    return out


def scan_restricted_kb(group: GroupSpec, log_grid: Sequence = (-1, 0, 1),
                       on_chunk: Optional[Callable[[np.ndarray, int], None]] = None,
                       budget: int = 10**9) -> int:
    """Count (and optionally stream) all grid-valued solution pairs.

    ``on_chunk`` receives (rows, denominator): each row is one solution,
    columns alternating the scaled logs of f and g in element order.  Rows
    across the whole scan are distinct (the search branches on disjoint
    values) and their order is deterministic.  Chunks arrive in stream
    order, and each is a fresh C-contiguous array that no later chunk
    reuses, so the caller may keep it (or views into it) without copying.
    A chunk holds at most one template block, ``_GridSolver.block_bytes``
    (2 MiB) of rows, so a caller's per-chunk work stays bounded whatever
    the group and grid.  Returns the exact count.
    """
    solver = _GridSolver(group, [Fraction(v) for v in log_grid], budget)
    if on_chunk is None:
        return solver.run(lambda rows: None)
    return solver.run(lambda rows: on_chunk(rows, solver.denom))


def enum_restricted_kb(group: GroupSpec, log_grid: Sequence = (-1, 0, 1),
                       budget: int = 10**9,
                       max_pairs: int = 100_000) -> list[tuple[FuncTable, FuncTable]]:
    """Materialize every grid-valued solution pair on a finite group.

    The grid is given as exact log values (the value set is their
    exponentials), so the sweep is exact.  Raises
    :class:`~kbeq.errors.BudgetExceededError` when the solution set is too
    large to list; use :func:`scan_restricted_kb` to stream it instead.
    """
    solver = _GridSolver(group, [Fraction(v) for v in log_grid], budget)
    out: list[tuple[FuncTable, FuncTable]] = []

    def emit(rows: np.ndarray):
        if len(out) + rows.shape[0] > max_pairs:
            raise BudgetExceededError(
                f"more than {max_pairs} solutions; use scan_restricted_kb"
            )
        # columns alternate f and g in element order, which is domain order
        for row in rows:
            out.append(tuple(
                FuncTable._of(group, FullGroup(), KIND_POSITIVE,
                              ("int", row[side::2], solver.denom))
                for side in (0, 1)))

    solver.run(emit)
    return out


def predicted_restricted_count(group: GroupSpec,
                               log_grid: Sequence = (-1, 0, 1)) -> int:
    """Size of the theory-predicted solution set over a grid.

    Solutions on finite groups are exactly ``f = exp(r), g = exp(-r)`` with
    r constant on cosets of ``X^(2)``, so the count is m^(number of cosets)
    where m counts grid values whose negation is also on the grid.
    """
    grid = {Fraction(v) for v in log_grid}
    m = sum(1 for v in grid if -v in grid)
    return m ** group.coset_count(2)


_CHECK_ROWS = 8192  # rows per slice of the structural check


def restricted_rows_match_prediction(group: GroupSpec, rows: np.ndarray,
                                     denom: int) -> bool:
    """Structural test: every row is (T coset-constant, S = -T).

    ``rows`` come from :func:`scan_restricted_kb`.  They are checked in
    slices of ``_CHECK_ROWS`` rows, each read as one flat line of one word
    per element, so the scratch arrays hold one slice whatever the length
    of ``rows``.  A slice first tests ``T + S``, summed in the rows' own
    dtype, which is exact because int8 rows hold values within +-127.  An
    int8 word is the (T, S) column pair read as one uint16 ``w``: ``257 *
    w`` holds ``T + S`` modulo 256 in its high byte, in either byte order,
    and once that is 0 two words are equal exactly when their T values are.
    An int64 word is the T column.  Coset constancy then compares the line
    with itself shifted by ``d`` words, for each shift ``d`` from an
    element back to the previous element of its doubled coset, and keeps
    the comparisons at those elements only; equality chains to each
    coset's first element.
    """
    shifts = _coset_shifts(group)
    wide = rows.dtype != np.int8
    size = min(_CHECK_ROWS, len(rows)) * (rows.shape[1] // 2)
    total = np.empty(size, dtype=rows.dtype if wide else np.uint16)
    differ = np.empty(size, dtype=bool)
    for start in range(0, len(rows), _CHECK_ROWS):
        flat = rows[start:start + _CHECK_ROWS].reshape(-1)
        m = len(flat) // 2
        if wide:
            words = flat[0::2]
            if np.add(words, flat[1::2], out=total[:m]).any():
                return False
        else:
            words = flat.view(np.uint16)
            if np.multiply(words, np.uint16(257), out=total[:m]).max() > 255:
                return False
        for d, care in shifts:
            neq = np.not_equal(words[d:], words[:-d], out=differ[:m - d])
            if np.logical_and(neq, care[:m - d], out=neq).any():
                return False
    return True


def _coset_shifts(group: GroupSpec) -> tuple[tuple[int, np.ndarray], ...]:
    """``(d, care)`` pairs for the structural check, cached per group.

    Each ``d`` is the distance from an element back to the previous element
    of its doubled coset.  ``care[q]`` is true when word ``q + d`` of a
    flat line of ``_CHECK_ROWS`` rows belongs to an element at distance
    ``d``; every element but the first of its coset has one distance.
    """
    info = _vec.domain_info(group, FullGroup())

    def build():
        cosets = _vec.coset_codes(info, 2)
        order = np.argsort(cosets, kind="stable")
        mate = cosets[order[1:]] == cosets[order[:-1]]
        member = order[1:][mate]
        dist = member - order[:-1][mate]
        out = []
        # a return_* flag: numpy 2.4's unflagged unique imports numpy.ma
        for d in np.unique(dist, return_index=True)[0].tolist():
            line = np.zeros(info.n, dtype=bool)
            line[member[dist == d]] = True
            out.append((d, np.tile(line, _CHECK_ROWS)[d:]))
        return tuple(out)

    return _vec.memo((group, info.domain, "coset shifts"), build)


# ---------------------------------------------------------------------------
# random structured forms (seeded; used by the suite and tests)


def random_positive_form(group: GroupSpec, rng: Random,
                         magnitude: int = 6) -> PositiveSolutionForm:
    """Random rational positive-solution form with small denominators."""
    d = group.dim
    rank = group.rank

    def coeff():
        return Fraction(rng.randint(-magnitude, magnitude),
                        rng.choice((1, 2, 3, 4)))

    mat = [[Fraction(0)] * d for _ in range(d)]
    for i in range(rank):
        for j in range(i, rank):
            mat[i][j] = mat[j][i] = coeff()
    return PositiveSolutionForm(
        QuadraticForm(group, tuple(tuple(row) for row in mat)),
        AdditiveMap(group, tuple(coeff() for _ in range(rank))),
        AdditiveMap(group, tuple(coeff() for _ in range(rank))),
        CosetConstantMap(group, tuple(
            (idx, coeff()) for idx in group.coset_indices(2)
        )),
    )


def random_character(group: GroupSpec, rng: Random) -> CharacterSpec:
    return CharacterSpec(
        group,
        tuple(Fraction(rng.randint(0, 11), 12) for _ in range(group.rank)),
        tuple(rng.randint(0, n - 1) for n in group.torsion),
    )


def random_hermitian_form(group: GroupSpec, rng: Random,
                          magnitude: int = 4) -> HermitianSolutionForm:
    """Random Hermitian form satisfying the sufficient synthesis condition.

    The sign maps coincide and are constant on doubled cosets, so the
    synthesized pair is guaranteed to satisfy the functional equation.
    """
    pos = random_positive_form(group, rng, magnitude)
    signs2 = {}
    for idx in group.coset_indices(2):
        trivial = all(r == 0 for r in idx.residues)
        signs2[idx] = 1 if trivial else rng.choice((1, -1))
    lifted = {idx: signs2[group.coset_project(idx)]
              for idx in group.coset_indices(4)}
    a = SignMap.from_mapping(group, 4, lifted)
    return HermitianSolutionForm(
        random_character(group, rng), random_character(group, rng),
        a, a, pos.P, pos.r, None,
    )


# ---------------------------------------------------------------------------
# the cross-check suite


DEFAULT_SUITE_GROUPS = (
    "Z/2", "Z/3", "Z/4", "Z/2 x Z/2", "Z/9", "Z/2 x Z/4",
    "Z/4 x Z/4", "Z", "Z^2", "Z^2 x Z/4 x Z/3",
)


class SuiteFailedError(KbeqError):
    """A suite invariant failed; the failing check is named in the message."""

    def __init__(self, name: str, detail: str, report: "SuiteReport"):
        super().__init__(f"suite check {name!r} failed: {detail}")
        self.report = report


@dataclass
class SuiteReport:
    seed: int
    trials: int
    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "ok": self.ok,
            "checks": [
                {"name": n, "ok": ok, "detail": d} for n, ok, d in self.checks
            ],
        }


def verify_theorem_suite(groups: Sequence[str] = DEFAULT_SUITE_GROUPS,
                         trials: int = 10, seed: int = 0,
                         strict: bool = True) -> SuiteReport:
    """Run soundness, round-trip, census and built-in example cross-checks.

    Deterministic under a fixed seed.  With ``strict`` the first failing
    invariant aborts via :class:`SuiteFailedError` (naming the check);
    otherwise all outcomes are collected in the report.
    """
    report = SuiteReport(seed=seed, trials=trials)

    def record(name: str, ok: bool, detail: str = ""):
        report.checks.append((name, bool(ok), detail))
        if strict and not ok:
            raise SuiteFailedError(name, detail, report)

    _suite_builtin_checks(record)
    rng = Random(seed)
    for gname in groups:
        group = parse_group(gname)
        domain = FullGroup() if group.is_finite else Box((4,) * group.rank)
        _suite_positive_roundtrip(record, gname, group, domain, trials, rng)
        _suite_hermitian_soundness(record, gname, group, domain, trials, rng)
        if group.is_finite and group.order() <= 16:
            _suite_sign_census(record, gname, group)
            _suite_restricted_census(record, gname, group)
    _suite_vanishing(record)
    _suite_character_extension(record, groups)
    return report


def _suite_builtin_checks(record):
    f, g = builtin_counterexample()
    rep = check_kb(f, g)
    record("builtin-counterexample-kb",
           rep.holds and rep.pairs_checked == 256,
           f"pairs={rep.pairs_checked}")
    record("builtin-counterexample-mod4",
           check_coset_constant(f, 4).holds and check_coset_constant(g, 4).holds)
    record("builtin-counterexample-not-mod2",
           not check_coset_constant(f, 2).holds)
    group = f.group
    prods = {}
    for x, fx, gx in zip(f.points(), f.values.values(), g.values.values()):
        prods.setdefault(group.coset_index(x, 2).residues, set()).add(fx * gx)
    record("builtin-counterexample-product-pattern",
           prods.get((1, 1)) == {-1}
           and all(v == {1} for idx, v in prods.items() if idx != (1, 1)),
           str(prods))
    form = decompose_hermitian(f, g)
    ok = (form.alpha.is_trivial() and form.beta.is_trivial()
          and form.P.is_zero() and form.r.is_zero()
          and all(_vec.first_difference(table.unimodular_part(), rendered, 0.0) is None
                  for table, rendered in zip((f, g), _hermitian_tables(form, FullGroup()))))
    record("builtin-counterexample-decomposition", ok)
    # mutation: a single flipped sign must break the equation
    flipped = f.encoding[1].copy()
    flipped[f._index(group.element((1, 1)))] ^= 1
    bad = FuncTable._of(group, FullGroup(), KIND_SIGN, ("parity", flipped, 1))
    rep = check_kb(bad, g)
    record("builtin-counterexample-mutation",
           (not rep.holds) and rep.witness is not None)

    t = builtin_odd_quadratic(6)
    rep = check_kb_self(t)
    record("builtin-odd-quadratic-kb", rep.holds)
    z2 = t.group
    alpha, amap, P = decompose_self(t)
    i11 = z2.coset_index(z2.element((1, 1)), 2)
    i10 = z2.coset_index(z2.element((1, 0)), 2)
    i01 = z2.coset_index(z2.element((0, 1)), 2)
    record("builtin-odd-quadratic-decomposition",
           alpha.is_trivial() and P.is_zero() and amap.at(i11) == -1
           and amap.at(i10) == 1 and amap.at(i01) == 1)
    record("builtin-odd-quadratic-not-multiplicative",
           amap.at(i11) != amap.at(i10) * amap.at(i01))
    x, y = z2.element((1, 0)), z2.element((0, 1))
    record("builtin-odd-quadratic-table-not-multiplicative",
           t.values[x + y] != t.values[x] * t.values[y])


def _suite_positive_roundtrip(record, gname, group, domain, trials, rng):
    ok = True
    detail = ""
    for t in range(trials):
        form = random_positive_form(group, rng)
        f, g = synth_table(form, domain)
        rep = check_kb(f, g)
        if not rep.holds:
            ok, detail = False, f"trial {t}: synthesized pair fails the equation"
            break
        back = decompose_positive(f, g)
        if back != form:
            ok, detail = False, f"trial {t}: decomposition differs from the form"
            break
    record(f"positive-roundtrip-{gname}", ok, detail)


def _suite_hermitian_soundness(record, gname, group, domain, trials, rng):
    ok = True
    detail = ""
    for t in range(trials):
        form = random_hermitian_form(group, rng)
        f, g = synth_table(form, domain)
        if not check_hermitian(f).holds or not check_kb(f, g).holds:
            ok, detail = False, f"trial {t}: sufficient form fails soundness"
            break
        back = decompose_hermitian(f, g)
        # extensions are non-unique (principal choice), so compare as functions
        if any(_vec.first_difference(table, rendered, 0.0) is not None
               for table, rendered in zip((f, g), _hermitian_tables(back, domain))):
            ok, detail = False, f"trial {t}: recovered form evaluates differently"
            break
    record(f"hermitian-soundness-{gname}", ok, detail)


def _suite_sign_census(record, gname, group):
    census = enum_sign_solutions(group)
    ok = all(ann["a_constant_mod4"] and ann["b_constant_mod4"]
             for ann in census.annotations)
    record(f"sign-census-mod4-{gname}", ok, f"count={census.count}")
    rel_ok = all(
        all(v in (1, -1) for v in ann["coset_relation"].values())
        for ann in census.annotations
    )
    record(f"sign-census-relation-{gname}", rel_ok)


def _suite_restricted_census(record, gname, group):
    state = {"ok": True}

    def on_chunk(rows, denom):
        if not restricted_rows_match_prediction(group, rows, denom):
            state["ok"] = False

    count = scan_restricted_kb(group, (-1, 0, 1), on_chunk)
    predicted = predicted_restricted_count(group, (-1, 0, 1))
    record(f"restricted-census-{gname}",
           state["ok"] and count == predicted,
           f"count={count} predicted={predicted}")


def _suite_vanishing(record):
    group = parse_group("Z/9")
    chi = CharacterSpec(group, (), (1,))
    f, _ = synth_table(HermitianSolutionForm(
        chi, chi, SignMap.trivial(group, 4), SignMap.trivial(group, 4),
        QuadraticForm.zero(group), CosetConstantMap.zero(group),
        SubgroupSpec(group, (group.element((3,)),))), FullGroup())
    rep = check_kb(f, f)
    form = decompose_vanishing(f, f)
    gens = [x.coords for x in form.support.generators]
    # doubling is onto Z/9, so every quotient of it has odd order and none
    # has an element of order 2: the support needs no quotient test
    record("vanishing-support", rep.holds and gens == [(3,)])


def _suite_character_extension(record, groups):
    ok = True
    detail = ""
    for gname in groups:
        group = parse_group(gname)
        if not group.is_finite or group.order() > 16:
            continue
        info = _vec.domain_info(group, FullGroup())
        doubled = _vec.point_codes(info, 2 * info.coords.astype(np.int64))[0]
        for turns in _doubled_character_turns(group):
            table = _character_table(extend_character(group, turns), FullGroup())
            at_2x, den = table.encoding[1][2][doubled].tolist(), table.encoding[1][3]
            for x, t in zip(info.coords.tolist(), at_2x):
                if Fraction(t, den) != sum(
                    (a * c for a, c in zip(turns, x)), Fraction(0)
                ) % 1:
                    ok, detail = False, f"{gname}: restriction mismatch"
                    break
    record("character-extension-restriction", ok, detail)


def _doubled_character_turns(group: GroupSpec):
    """All characters of X^(2) as turn tuples at doubled generators."""
    ranges = []
    for n in group.torsion:
        m = n // 2 if n % 2 == 0 else n  # order of 2e_i
        ranges.append([Fraction(k, m) for k in range(m)])
    yield from product(*ranges)
