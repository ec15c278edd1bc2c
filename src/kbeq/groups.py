"""Exact arithmetic for finitely generated Abelian groups.

A group is fixed in the presentation ``Z^rank x Z/n1 x ... x Z/nt``; elements
are integer coordinate vectors with torsion coordinates reduced canonically
into ``[0, n_i)``.  On top of the plain arithmetic this module provides the
doubling/quadrupling subgroup machinery (coset indices modulo ``X^(2)`` and
``X^(4)``), exact subgroup membership through integer row reduction, and the
order-2 test for quotient groups that the vanishing-support decomposition
needs.

Everything here is immutable after construction and safe to share between
threads; all arithmetic returns new values.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product
from math import gcd
from typing import Sequence, Union

from .errors import DomainSizeError, GroupMismatchError, GroupParseError

__all__ = [
    "GroupSpec",
    "GroupElement",
    "CosetIndex",
    "SubgroupSpec",
    "FullGroup",
    "Box",
    "Domain",
    "parse_group",
    "parse_element",
]


# ---------------------------------------------------------------------------
# groups and elements


@dataclass(frozen=True)
class GroupSpec:
    """A finitely generated Abelian group ``Z^rank x prod Z/n_i``."""

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.rank < 0:
            raise GroupParseError(f"rank must be nonnegative, got {self.rank}")
        object.__setattr__(self, "torsion", tuple(int(n) for n in self.torsion))
        for n in self.torsion:
            if n < 2:
                raise GroupParseError(f"torsion orders must be >= 2, got {n}")

    @property
    def dim(self) -> int:
        return self.rank + len(self.torsion)

    @property
    def is_finite(self) -> bool:
        return self.rank == 0

    def order(self) -> int:
        if not self.is_finite:
            raise GroupMismatchError("infinite group has no order")
        out = 1
        for n in self.torsion:
            out *= n
        return out

    def reduce(self, coords: Sequence[int]) -> tuple[int, ...]:
        if len(coords) != self.dim:
            raise GroupMismatchError(
                f"expected {self.dim} coordinates, got {len(coords)}"
            )
        free = tuple(int(c) for c in coords[: self.rank])
        tors = tuple(
            int(c) % n for c, n in zip(coords[self.rank :], self.torsion)
        )
        return free + tors

    def element(self, coords: Sequence[int]) -> "GroupElement":
        return GroupElement(self, self.reduce(coords))

    def zero(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.dim)

    def generators(self) -> list["GroupElement"]:
        """Standard basis elements, one per coordinate."""
        gens = []
        for i in range(self.dim):
            coords = [0] * self.dim
            coords[i] = 1
            gens.append(GroupElement(self, tuple(coords)))
        return gens

    def elements(self) -> list["GroupElement"]:
        """All elements of a finite group in lexicographic coordinate order."""
        if not self.is_finite:
            raise GroupMismatchError("cannot enumerate an infinite group")
        out = []
        for coords in product(*(range(n) for n in self.torsion)):
            out.append(GroupElement(self, coords))
        return out

    # -- doubling subgroups -------------------------------------------------

    def coset_count(self, modulus: int) -> int:
        """Size of ``X / X^(m)`` for m in {2, 4}."""
        _check_modulus(modulus)
        count = modulus**self.rank
        for n in self.torsion:
            count *= gcd(modulus, n)
        return count

    def coset_index(self, x: "GroupElement", modulus: int) -> "CosetIndex":
        _check_modulus(modulus)
        self._own(x)
        res = []
        for j in range(self.rank):
            res.append(x.coords[j] % modulus)
        for i, n in enumerate(self.torsion):
            res.append(x.coords[self.rank + i] % gcd(modulus, n))
        return CosetIndex(modulus, tuple(res))

    def coset_indices(self, modulus: int) -> list["CosetIndex"]:
        """All coset indices of ``X^(m)``, lexicographically."""
        _check_modulus(modulus)
        ranges = [range(modulus)] * self.rank
        ranges += [range(gcd(modulus, n)) for n in self.torsion]
        return [CosetIndex(modulus, r) for r in product(*ranges)]

    def coset_negate(self, idx: "CosetIndex") -> "CosetIndex":
        """Index of ``-x`` given the index of ``x``."""
        m = idx.modulus
        res = []
        for j in range(self.rank):
            res.append((-idx.residues[j]) % m)
        for i, n in enumerate(self.torsion):
            res.append((-idx.residues[self.rank + i]) % gcd(m, n))
        return CosetIndex(m, tuple(res))

    def coset_project(self, idx: "CosetIndex") -> "CosetIndex":
        """The ``X^(2)`` coset containing an ``X^(4)`` coset."""
        if idx.modulus != 4:
            raise GroupMismatchError("projection is from modulus 4 to 2")
        res = []
        for j in range(self.rank):
            res.append(idx.residues[j] % 2)
        for i, n in enumerate(self.torsion):
            res.append(idx.residues[self.rank + i] % gcd(2, n))
        return CosetIndex(2, tuple(res))

    def doubling_is_onto(self) -> bool:
        """True iff ``X^(2) = X`` (rank 0 and every torsion order odd)."""
        return self.rank == 0 and all(n % 2 == 1 for n in self.torsion)

    # -- arithmetic ---------------------------------------------------------

    def _own(self, x: "GroupElement"):
        if x.group != self:
            raise GroupMismatchError(f"element of {x.group} used in {self}")

    def add(self, x: "GroupElement", y: "GroupElement") -> "GroupElement":
        self._own(x)
        self._own(y)
        return self.element([a + b for a, b in zip(x.coords, y.coords)])

    def neg(self, x: "GroupElement") -> "GroupElement":
        self._own(x)
        return self.element([-a for a in x.coords])

    def scale(self, n: int, x: "GroupElement") -> "GroupElement":
        self._own(x)
        return self.element([n * a for a in x.coords])

    def __str__(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts += [f"Z/{n}" for n in self.torsion]
        return " x ".join(parts) if parts else "Z^0"


@dataclass(frozen=True)
class GroupElement:
    """A reduced coordinate vector in a fixed :class:`GroupSpec`."""

    group: GroupSpec
    coords: tuple[int, ...]

    def __add__(self, other: "GroupElement") -> "GroupElement":
        return self.group.add(self, other)

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self.group.add(self, self.group.neg(other))

    def __neg__(self) -> "GroupElement":
        return self.group.neg(self)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __repr__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


@dataclass(frozen=True)
class CosetIndex:
    """Canonical index of a coset of ``X^(m)``; equal indices mean same coset."""

    modulus: int
    residues: tuple[int, ...]


def _check_modulus(modulus: int):
    if modulus not in (2, 4):
        raise GroupMismatchError(f"coset modulus must be 2 or 4, got {modulus}")


# ---------------------------------------------------------------------------
# integer lattices and subgroups


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (x, y, g) with x*a + y*b == g == gcd(a, b)."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


class _ZLattice:
    """Row-echelon basis of an integer lattice with exact membership tests."""

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: list[list[int]] = []  # echelon, pivot columns increasing

    def _pivot_col(self, row: list[int]) -> int:
        for j, v in enumerate(row):
            if v:
                return j
        return self.dim

    def add(self, vec: Sequence[int]):
        row = [int(v) for v in vec]
        i = 0
        while True:
            j = self._pivot_col(row)
            if j == self.dim:
                return
            while i < len(self.rows) and self._pivot_col(self.rows[i]) < j:
                i += 1
            if i == len(self.rows) or self._pivot_col(self.rows[i]) > j:
                if row[j] < 0:
                    row = [-v for v in row]
                self.rows.insert(i, row)
                return
            # same pivot column: combine via xgcd and keep reducing
            cur = self.rows[i]
            a, b = cur[j], row[j]
            if b % a == 0:
                q = b // a
                row = [v - q * w for v, w in zip(row, cur)]
            else:
                x, y, g = _xgcd(a, b)
                new_cur = [x * v + y * w for v, w in zip(cur, row)]
                row = [(-(b // g)) * v + (a // g) * w for v, w in zip(cur, row)]
                self.rows[i] = new_cur

    def contains(self, vec: Sequence[int]) -> bool:
        row = [int(v) for v in vec]
        i = 0
        while True:
            j = self._pivot_col(row)
            if j == self.dim:
                return True
            while i < len(self.rows) and self._pivot_col(self.rows[i]) < j:
                i += 1
            if i == len(self.rows) or self._pivot_col(self.rows[i]) > j:
                return False
            cur = self.rows[i]
            if row[j] % cur[j]:
                return False
            q = row[j] // cur[j]
            row = [v - q * w for v, w in zip(row, cur)]


def _diagonalize(mat: list[list[int]]) -> list[int]:
    """Diagonal of an integer matrix under unimodular row/column operations.

    The returned entries present the cokernel as ``(+) Z/d_i  (+)  Z^free``;
    no divisibility chain is enforced (not needed for isomorphism-invariant
    questions like the existence of an order-2 element).
    """
    m = [list(map(int, row)) for row in mat]
    if not m or not m[0]:
        return []
    nr, nc = len(m), len(m[0])
    diag = []
    r = c = 0
    while r < nr and c < nc:
        # find a nonzero pivot
        pr = pc = -1
        for i in range(r, nr):
            for j in range(c, nc):
                if m[i][j]:
                    pr, pc = i, j
                    break
            if pr >= 0:
                break
        if pr < 0:
            break
        m[r], m[pr] = m[pr], m[r]
        for row in m:
            row[c], row[pc] = row[pc], row[c]
        while True:
            # clear column c with row operations
            for i in range(nr):
                if i != r and m[i][c]:
                    if m[i][c] % m[r][c] == 0:
                        q = m[i][c] // m[r][c]
                        m[i] = [v - q * w for v, w in zip(m[i], m[r])]
                    else:
                        x, y, g = _xgcd(m[r][c], m[i][c])
                        a, b = m[r][c] // g, m[i][c] // g
                        new_r = [x * v + y * w for v, w in zip(m[r], m[i])]
                        m[i] = [-b * v + a * w for v, w in zip(m[r], m[i])]
                        m[r] = new_r
            # clear row r with column operations
            dirty = False
            for j in range(nc):
                if j != c and m[r][j]:
                    if m[r][j] % m[r][c] == 0:
                        q = m[r][j] // m[r][c]
                        for row in m:
                            row[j] -= q * row[c]
                    else:
                        x, y, g = _xgcd(m[r][c], m[r][j])
                        a, b = m[r][c] // g, m[r][j] // g
                        for row in m:
                            vc, vj = row[c], row[j]
                            row[c] = x * vc + y * vj
                            row[j] = -b * vc + a * vj
                        dirty = True
            if not dirty and all(m[i][c] == 0 for i in range(nr) if i != r):
                break
        diag.append(abs(m[r][c]))
        r += 1
        c += 1
    return diag


@dataclass(frozen=True)
class SubgroupSpec:
    """A subgroup given by generators, with exact membership testing."""

    group: GroupSpec
    generators: tuple[GroupElement, ...]

    def __post_init__(self):
        for g in self.generators:
            if g.group != self.group:
                raise GroupMismatchError("generator from a different group")
        object.__setattr__(self, "_lattice", None)

    def _relation_rows(self) -> list[list[int]]:
        d = self.group.dim
        rows = []
        for i, n in enumerate(self.group.torsion):
            row = [0] * d
            row[self.group.rank + i] = n
            rows.append(row)
        return rows

    def _get_lattice(self) -> _ZLattice:
        lat = getattr(self, "_lattice")
        if lat is None:
            lat = _ZLattice(self.group.dim)
            for g in self.generators:
                lat.add(list(g.coords))
            for row in self._relation_rows():
                lat.add(row)
            object.__setattr__(self, "_lattice", lat)
        return lat

    def contains(self, x: GroupElement) -> bool:
        self.group._own(x)
        return self._get_lattice().contains(list(x.coords))

    def quotient_has_order2(self) -> bool:
        """True iff some x outside the subgroup satisfies ``2x`` inside it."""
        cols = [list(g.coords) for g in self.generators]
        cols += self._relation_rows()
        if not cols:
            cols = [[0] * self.group.dim] if self.group.dim else [[0]]
        # columns span the lattice; transpose so they become matrix columns
        mat = [[col[i] for col in cols] for i in range(self.group.dim)]
        if not mat:
            return False  # trivial group
        diag = _diagonalize(mat)
        return any(d != 0 and d % 2 == 0 for d in diag)

    def elements(self) -> list[GroupElement]:
        """Closure enumeration; finite groups only (cross-check oracle)."""
        if not self.group.is_finite:
            raise GroupMismatchError("closure enumeration needs a finite group")
        seen = {self.group.zero()}
        frontier = [self.group.zero()]
        while frontier:
            nxt = []
            for x in frontier:
                for g in self.generators:
                    for y in (x + g, x - g):
                        if y not in seen:
                            seen.add(y)
                            nxt.append(y)
            frontier = nxt
        return sorted(seen, key=lambda e: e.coords)


# ---------------------------------------------------------------------------
# evaluation domains


_points_cache: dict = {}


def _cached_points(group: GroupSpec, domain) -> list[GroupElement]:
    key = (group, domain)
    pts = _points_cache.get(key)
    if pts is None:
        pts = [GroupElement(group, c) for c in product(*domain.ranges(group))]
        if len(_points_cache) > 32:
            _points_cache.clear()
        _points_cache[key] = pts
    return pts


@dataclass(frozen=True)
class FullGroup:
    """The whole group as a domain; only valid when the group is finite."""

    def ranges(self, group: GroupSpec) -> list[range]:
        """Per-coordinate value ranges; the points are their product, in order."""
        if not group.is_finite:
            raise DomainSizeError("FullGroup domain requires rank 0")
        return [range(n) for n in group.torsion]

    def points(self, group: GroupSpec) -> list[GroupElement]:
        return _cached_points(group, self)

    def contains(self, x: GroupElement) -> bool:
        return True

    def negation_closed(self, group: GroupSpec) -> bool:
        return True

    def to_json(self) -> dict:
        return {"type": "full"}


@dataclass(frozen=True)
class Box:
    """Window with ``|x_j| <= radius_j`` on free coordinates, full torsion range."""

    radius: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "radius", tuple(int(r) for r in self.radius))
        for r in self.radius:
            if r < 1:
                raise DomainSizeError(f"box radius must be >= 1, got {r}")

    def ranges(self, group: GroupSpec) -> list[range]:
        """Per-coordinate value ranges; the points are their product, in order."""
        if len(self.radius) != group.rank:
            raise DomainSizeError(
                f"box has {len(self.radius)} radii for rank {group.rank}"
            )
        return ([range(-r, r + 1) for r in self.radius]
                + [range(n) for n in group.torsion])

    def points(self, group: GroupSpec) -> list[GroupElement]:
        return _cached_points(group, self)

    def contains(self, x: GroupElement) -> bool:
        return all(abs(x.coords[j]) <= r for j, r in enumerate(self.radius))

    def negation_closed(self, group: GroupSpec) -> bool:
        return True

    def to_json(self) -> dict:
        return {"type": "box", "radius": list(self.radius)}


Domain = Union[FullGroup, Box]


def domain_from_json(obj: dict) -> Domain:
    kind = _json_field(obj, "type", "domain")
    if kind == "full":
        return FullGroup()
    if kind == "box":
        return Box(_json_ints(_json_field(obj, "radius", "domain"),
                              "domain key 'radius'"))
    raise GroupParseError(f"unknown domain type {kind!r}")


# ---------------------------------------------------------------------------
# reading JSON input: a missing key or a wrong type is a GroupParseError


_JSON_NAMES = {dict: "object", list: "array", tuple: "array", str: "string",
               int: "integer", float: "number", bool: "boolean", type(None): "null"}


def _json_type(value) -> str:
    return _JSON_NAMES.get(type(value), type(value).__name__)


def _json_typed(value, typ: type, what: str):
    """``value`` once checked to be a JSON ``typ`` (``dict``, ``list``, ``str``
    or ``int``); a tuple passes as a list, and a boolean is no integer."""
    if isinstance(value, bool) or not isinstance(
            value, (list, tuple) if typ is list else typ):
        raise GroupParseError(
            f"{what} must be a JSON {_JSON_NAMES[typ]}, got {_json_type(value)}")
    return value


def _json_field(obj, key: str, where: str, typ: type = None):
    """``obj[key]``, ``obj`` being the JSON object that ``where`` names;
    checked by :func:`_json_typed` when ``typ`` is given."""
    if not isinstance(obj, dict):
        raise GroupParseError(f"{where} must be a JSON object, got {_json_type(obj)}")
    if key not in obj:
        raise GroupParseError(f"{where} has no key {key!r}")
    return obj[key] if typ is None else _json_typed(obj[key], typ, f"{where} key {key!r}")


def _json_ints(value, what: str) -> tuple:
    """A JSON array of integers as a tuple."""
    return tuple(_json_typed(v, int, f"{what} entry")
                 for v in _json_typed(value, list, what))


def _json_rows(obj, key: str, where: str) -> tuple[list, list]:
    """``obj[key]``, a JSON array of ``[array, value]`` rows (table values,
    coset and sign tables), as the list of arrays and the list of values."""
    rows = _json_field(obj, key, where, list)
    pair = (list, tuple)
    try:
        arrays, values = [a for a, _ in rows], [v for _, v in rows]
    except (TypeError, ValueError):  # a row that is no pair
        arrays = values = None
    if arrays is None or not set(map(type, arrays)) <= set(pair):
        bad = next(row for row in rows if not (
            type(row) in pair and len(row) == 2 and type(row[0]) in pair))
        raise GroupParseError(
            f"{where} key {key!r} rows must be [array, value], got {bad!r}")
    return arrays, values


# ---------------------------------------------------------------------------
# parsing


_FACTOR_RE = re.compile(r"^(?:z(?:\^(\d+))?|z/(\d+))$", re.IGNORECASE)


def parse_group(text: str) -> GroupSpec:
    """Parse a literal like ``"Z^2 x Z/4 x Z/3"`` (free factors first)."""
    raw = text.strip()
    if not raw:
        raise GroupParseError("empty group literal")
    rank = 0
    torsion: list[int] = []
    seen_torsion = False
    for part in re.split(r"[x×]", raw, flags=re.IGNORECASE):
        part = part.replace(" ", "").replace("\t", "")
        if not part:
            raise GroupParseError(f"empty factor in group literal {text!r}")
        m = _FACTOR_RE.match(part)
        if not m:
            raise GroupParseError(f"cannot parse group factor {part!r}")
        if m.group(2) is not None:
            torsion.append(int(m.group(2)))
            seen_torsion = True
        else:
            if seen_torsion:
                raise GroupParseError(
                    "free factors must come before torsion factors "
                    f"in {text!r} (canonical layout Z^r x Z/n1 x ...)"
                )
            rank += int(m.group(1)) if m.group(1) else 1
    return GroupSpec(rank, tuple(torsion))


def parse_element(group: GroupSpec, text: str) -> GroupElement:
    """Parse an element literal like ``"(1, 2)"`` or ``"1,2"``."""
    raw = text.strip()
    if raw.startswith("(") and raw.endswith(")"):
        raw = raw[1:-1]
    parts = [p.strip() for p in raw.split(",") if p.strip() != ""]
    try:
        coords = [int(p) for p in parts]
    except ValueError as exc:
        raise GroupParseError(f"cannot parse element literal {text!r}") from exc
    if len(coords) != group.dim:
        raise GroupParseError(
            f"element {text!r} has {len(coords)} coordinates, group needs {group.dim}"
        )
    return group.element(coords)
