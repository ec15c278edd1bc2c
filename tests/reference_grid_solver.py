"""Reference grid search for the restricted-grid census.

This is the prefix-copying depth-first search that ``kbeq.oracle`` used
before its free-variable search: it branches on every variable in the greedy
element order, keeps a greedy linearly independent subset of the equation
instances (``Fraction`` row reduction) and prunes with each instance at the
depth where its last variable is assigned.  It is slow but simple, and the
tests compare the library's row stream against it byte for byte.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from kbeq.errors import BudgetExceededError, KbeqError
from kbeq.groups import GroupSpec


class ReferenceGridSolver:
    """Depth-first grid search for the log-linear equation instances."""

    chunk_rows = 1 << 19

    def __init__(self, group: GroupSpec, log_grid: Sequence[Fraction],
                 budget: int):
        self.group = group
        self.grid = [Fraction(v) for v in log_grid]
        if len(set(self.grid)) != len(self.grid):
            raise KbeqError("grid values must be distinct")
        self.budget = budget
        self.elements = group.elements()
        n = len(self.elements)
        self.nvars = 2 * n
        index = {e: i for i, e in enumerate(self.elements)}
        denom = 1
        for v in self.grid:
            denom = denom * v.denominator // math.gcd(denom, v.denominator)
        self.denom = denom
        gvals = [int(v * denom) for v in self.grid]
        self.dtype = np.int8 if max(abs(v) for v in gvals) <= 127 else np.int64
        self.grid_arr = np.array(gvals, dtype=self.dtype)
        raw = self._raw_instances(index)
        order = self._element_order(raw, n)
        # variable 2i / 2i+1 hold T / S at elements[order[i]]
        var_pos = {}
        for pos, ei in enumerate(order):
            var_pos[2 * ei] = 2 * pos
            var_pos[2 * ei + 1] = 2 * pos + 1
        # emitted column v holds solver column var_pos[v] (element order)
        self.emit_perm = np.array([var_pos[v] for v in range(self.nvars)])
        self.triggered = self._independent_instances(raw, var_pos)

    def _raw_instances(self, index) -> list[tuple]:
        seen = set()
        for x in self.elements:
            for y in self.elements:
                terms: dict[int, int] = {}
                for var, co in (
                    (2 * index[x + y], 1),
                    (2 * index[x - y] + 1, 1),
                    (2 * index[x], -1),
                    (2 * index[y], -1),
                    (2 * index[x] + 1, -1),
                    (2 * index[-y] + 1, -1),
                ):
                    terms[var] = terms.get(var, 0) + co
                canon = tuple(sorted((v, c) for v, c in terms.items() if c))
                if canon:
                    seen.add(canon)
        return sorted(seen)

    def _element_order(self, raw: list[tuple], n: int) -> list[int]:
        """Greedy processing order: trigger equation instances early.

        Each step appends the element that completes the most still-open
        instances (ties to the lexicographically first element), which keeps
        the search frontier collapsing as soon as the equations allow.
        """
        if n > 64:
            return list(range(n))
        inst_elems = [frozenset(v // 2 for v, _ in terms) for terms in raw]
        placed = {0}
        order = [0]
        avail = set(range(1, n))
        open_insts = [s for s in inst_elems if not s <= placed]
        while avail:
            best = None
            best_gain = -1
            for e in sorted(avail):
                gain = sum(1 for s in open_insts if s <= placed | {e})
                if gain > best_gain:
                    best, best_gain = e, gain
            placed.add(best)
            avail.discard(best)
            order.append(best)
            open_insts = [s for s in open_insts if not s <= placed]
        return order

    def _independent_instances(self, raw: list[tuple], var_pos) -> list[list]:
        """Greedy linearly independent equation instances, by trigger depth.

        Dependent instances are linear combinations of earlier-triggered
        kept ones, so dropping them changes neither the solution set nor
        the pruning power at any depth.
        """
        insts = []
        for terms in raw:
            mapped = tuple(sorted((var_pos[v], c) for v, c in terms))
            insts.append(mapped)
        insts.sort(key=lambda t: (max(v for v, _ in t), t))
        basis: list[list[Fraction]] = []  # reduced echelon rows
        triggered: list[list] = [[] for _ in range(self.nvars)]
        for terms in insts:
            vec = [Fraction(0)] * self.nvars
            for v, c in terms:
                vec[v] = Fraction(c)
            if self._reduces_to_zero(vec, basis):
                continue
            trig = max(v for v, _ in terms)
            triggered[trig].append((
                np.array([v for v, _ in terms], dtype=np.int64),
                np.array([c for _, c in terms], dtype=np.int64),
            ))
        return triggered

    @staticmethod
    def _reduces_to_zero(vec: list[Fraction], basis: list[list[Fraction]]) -> bool:
        for row in basis:
            piv = next(i for i, v in enumerate(row) if v)
            if vec[piv]:
                f = vec[piv] / row[piv]
                for i in range(piv, len(vec)):
                    vec[i] -= f * row[i]
        if any(vec):
            basis.append(vec)
            return False
        return True

    def run(self, emit: Callable[[np.ndarray], None]) -> int:
        """Stream distinct solution rows (scaled logs, element-order columns).

        The depth-first search branches on disjoint grid values, so emitted
        rows are distinct by construction and their order is deterministic.
        """
        self._used = 0
        count = [0]

        def sink(rows):
            count[0] += rows.shape[0]
            emit(rows[:, self.emit_perm])

        start = np.zeros((1, 0), dtype=self.dtype)
        self._extend(start, 0, sink)
        return count[0]

    def _extend(self, chunk: np.ndarray, depth: int, emit):
        m = chunk.shape[0]
        if m == 0:
            return
        if depth == self.nvars:
            emit(chunk)
            return
        if m > self.chunk_rows:
            for s in range(0, m, self.chunk_rows):
                self._extend(chunk[s:s + self.chunk_rows], depth, emit)
            return
        g = len(self.grid)
        total = m * g
        self._used += total
        if self._used > self.budget:
            raise BudgetExceededError(
                f"grid search exceeded the row budget ({self.budget})"
            )
        newcol = np.tile(self.grid_arr, m)
        instances = self.triggered[depth]
        if instances:
            mask = np.ones(total, dtype=bool)
            gathered: dict[int, np.ndarray] = {}
            for vars_arr, coefs in instances:
                acc = np.zeros(total, dtype=np.int64)
                for v, c in zip(vars_arr, coefs):
                    if v == depth:
                        acc += c * newcol
                    else:
                        col = gathered.get(v)
                        if col is None:
                            col = np.repeat(chunk[:, v].astype(np.int64), g)
                            gathered[v] = col
                        acc += c * col
                mask &= acc == 0
            keep = np.flatnonzero(mask)
            if len(keep) == 0:
                return
            child = np.empty((len(keep), depth + 1), dtype=self.dtype)
            child[:, :depth] = chunk[keep // g]
            child[:, depth] = newcol[keep]
        else:
            child = np.empty((total, depth + 1), dtype=self.dtype)
            child[:, :depth] = np.repeat(chunk, g, axis=0)
            child[:, depth] = newcol
        self._extend(child, depth + 1, emit)


def reference_rows(group: GroupSpec, log_grid: Sequence, budget: int = 10**9):
    """(count, concatenated rows, denominator) of the reference search."""
    solver = ReferenceGridSolver(group, [Fraction(v) for v in log_grid], budget)
    chunks: list[np.ndarray] = []
    count = solver.run(chunks.append)
    rows = (np.concatenate(chunks) if chunks
            else np.zeros((0, solver.nvars), dtype=solver.dtype))
    return count, rows, solver.denom
