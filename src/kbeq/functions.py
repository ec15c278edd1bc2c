"""Function representations: dense evaluation tables and structured solution forms.

Tables come in four kinds.  ``positive`` tables describe strictly positive
functions and store the *logarithm* of each value (exact rationals whenever
the table was synthesized, floats for imported data), so that the
multiplicative functional equation becomes exact additive arithmetic.
``real`` tables hold plain real values (log-domain working tables), ``sign``
tables hold +/-1, and ``complex`` tables hold either floating complex numbers
or :class:`Exact` values ``exp(log_abs) * exp(2*pi*i*turn)`` with rational
``log_abs`` and ``turn``, which keeps characters and sign structure exact.
A table stores its values once, as numpy arrays in domain order (integer
numerators over one denominator, sign exponents, floats, exact log and turn
numerators with a zero mask, or complex128); its ``values`` mapping is a
read-only view decoding them.

The structured forms mirror the two classification results: positive
solutions are ``exp(P + l + r)`` / ``exp(P + m - r)`` with a quadratic form
``P``, additive maps ``l, m`` and a map ``r`` constant on cosets of the
doubled subgroup; Hermitian non-vanishing solutions add unimodular characters
and +/-1-valued maps constant on cosets of the quadrupled subgroup.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Mapping
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from itertools import chain
from typing import Callable, Optional, Union

import numpy as np

from . import _vec
from .errors import (
    GroupMismatchError,
    GroupParseError,
    IncompatibleTablesError,
    SynthesisError,
)
from .groups import (
    CosetIndex,
    Domain,
    FullGroup,
    GroupElement,
    GroupSpec,
    SubgroupSpec,
    _json_field,
    _json_ints,
    _json_rows,
    _json_typed,
    domain_from_json,
    parse_group,
)

__all__ = [
    "Exact",
    "FuncTable",
    "QuadraticForm",
    "AdditiveMap",
    "CosetConstantMap",
    "CharacterSpec",
    "SignMap",
    "PositiveSolutionForm",
    "HermitianSolutionForm",
    "eval_positive",
    "eval_hermitian",
    "synth_table",
]

Rational = Union[int, Fraction]


# ---------------------------------------------------------------------------
# exact complex values


@dataclass(frozen=True)
class Exact:
    """``exp(log_abs) * exp(2*pi*i*turn)`` with rational data, or exactly zero."""

    log_abs: Fraction = Fraction(0)
    turn: Fraction = Fraction(0)
    zero: bool = False

    def __post_init__(self):
        if self.zero:
            object.__setattr__(self, "log_abs", Fraction(0))
            object.__setattr__(self, "turn", Fraction(0))
        else:
            object.__setattr__(self, "log_abs", Fraction(self.log_abs))
            object.__setattr__(self, "turn", Fraction(self.turn) % 1)

    @staticmethod
    def one() -> "Exact":
        return Exact()

    @staticmethod
    def zero_value() -> "Exact":
        return Exact(zero=True)

    @staticmethod
    def from_sign(s: int) -> "Exact":
        if s == 1:
            return Exact()
        if s == -1:
            return Exact(turn=Fraction(1, 2))
        raise ValueError(f"sign must be +1 or -1, got {s}")

    @staticmethod
    def unit(turn: Rational) -> "Exact":
        return Exact(turn=Fraction(turn))

    def __mul__(self, other: "Exact") -> "Exact":
        if self.zero or other.zero:
            return Exact.zero_value()
        return Exact(self.log_abs + other.log_abs, self.turn + other.turn)

    def __truediv__(self, other: "Exact") -> "Exact":
        if other.zero:
            raise ZeroDivisionError("division by exact zero")
        if self.zero:
            return Exact.zero_value()
        return Exact(self.log_abs - other.log_abs, self.turn - other.turn)

    def conj(self) -> "Exact":
        if self.zero:
            return self
        return Exact(self.log_abs, -self.turn)

    def power(self, n: int) -> "Exact":
        if self.zero:
            if n <= 0:
                raise ZeroDivisionError("zero to a nonpositive power")
            return self
        return Exact(n * self.log_abs, n * self.turn)

    def to_complex(self) -> complex:
        if self.zero:
            return 0j
        return math.exp(self.log_abs) * cmath.exp(2j * math.pi * float(self.turn))


ComplexValue = Union[Exact, complex, float, int]


def cval(v: ComplexValue) -> complex:
    if isinstance(v, Exact):
        return v.to_complex()
    return complex(v)


def cmul(u: ComplexValue, v: ComplexValue) -> ComplexValue:
    if isinstance(u, Exact) and isinstance(v, Exact):
        return u * v
    return cval(u) * cval(v)


# ---------------------------------------------------------------------------
# tables

KIND_REAL = "real"
KIND_POSITIVE = "positive"
KIND_SIGN = "sign"
KIND_COMPLEX = "complex"
_KINDS = (KIND_REAL, KIND_POSITIVE, KIND_SIGN, KIND_COMPLEX)
_KEYS_DIFFER = "table keys must equal the enumerated domain exactly"


class FuncTable:
    """Finitely supported evaluation table over a domain of a group.

    The values are stored once, in lowest terms, as ``encoding`` (see
    :func:`_encode`); ``values`` is a read-only mapping view that decodes
    them, every domain point mapping to a value whose meaning depends on
    ``kind``; positive tables store ``log f(x)``.  ``_parts`` is None until
    :mod:`kbeq._split` certifies the split of an exact real or positive
    table, which it then keeps there.
    """

    __slots__ = ("group", "domain", "kind", "encoding", "_parts")

    def __init__(self, group: GroupSpec, domain: Domain, kind: str,
                 values: Mapping[GroupElement, object]):
        pts = domain.points(group)
        if len(values) != len(pts) or not all(p in values for p in pts):
            raise IncompatibleTablesError(_KEYS_DIFFER)
        self._fill(group, domain, kind, _encode(kind, [values[p] for p in pts], pts))

    def _fill(self, group: GroupSpec, domain: Domain, kind: str, encoding):
        mode, arrays, denom = encoding
        if mode == "int":
            arrays, denom = _vec.lowest(arrays, denom)
        elif mode == "exact":
            arrays = (*_vec.lowest(*arrays[:2]), *_vec.lowest(*arrays[2:4]), arrays[4])
        for a in (arrays[0], arrays[2], arrays[4]) if mode == "exact" else (arrays,):
            a.setflags(write=False)  # derived tables share these arrays
        self.group, self.domain, self.kind = group, domain, kind
        self.encoding = (mode, arrays, denom)
        self._parts = None

    @classmethod
    def _of(cls, group: GroupSpec, domain: Domain, kind: str,
            encoding) -> "FuncTable":
        """A table from an encoding whose arrays are in domain order."""
        table = object.__new__(cls)
        table._fill(group, domain, kind, encoding)
        return table

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_function(cls, group: GroupSpec, domain: Domain, kind: str,
                      fn: Callable[[GroupElement], object]) -> "FuncTable":
        pts = domain.points(group)
        return cls._of(group, domain, kind, _encode(kind, [fn(p) for p in pts], pts))

    # -- access ---------------------------------------------------------------

    def points(self) -> list[GroupElement]:
        return self.domain.points(self.group)

    def _point(self, i: int) -> GroupElement:
        """The domain point of index ``i``, built from its coordinates."""
        coords = _vec.domain_info(self.group, self.domain).coords[i]
        return GroupElement(self.group, tuple(coords.tolist()))

    @property
    def values(self) -> "TableValues":
        """Read-only mapping view: point -> stored value (the log for positive tables)."""
        return TableValues(self)

    def _index(self, x) -> int:
        """Domain index of the point ``x``; KeyError when it is not one."""
        if not isinstance(x, GroupElement) or x.group != self.group:
            raise KeyError(x)
        return _vec.index_of_coords(_vec.domain_info(self.group, self.domain),
                                    x.coords)

    # -- conversions -----------------------------------------------------------

    def as_real_log(self) -> "FuncTable":
        """Positive table viewed as the real table of its logs."""
        if self.kind != KIND_POSITIVE:
            raise IncompatibleTablesError("as_real_log needs a positive table")
        return FuncTable._of(self.group, self.domain, KIND_REAL, self.encoding)

    def abs_log_table(self) -> "FuncTable":
        """Positive table of ``log |f|``; requires a zero-free table."""
        mode, arrays, _ = self.encoding
        if self.kind == KIND_POSITIVE:
            enc = self.encoding
        elif self.kind == KIND_SIGN:
            enc = ("int", np.zeros_like(arrays), 1)
        elif self.kind != KIND_COMPLEX:
            raise IncompatibleTablesError("abs_log_table needs a multiplicative kind")
        elif _zero_mask(self.encoding).any():
            raise IncompatibleTablesError("zero value has no log")
        elif mode == "exact":
            enc = ("int", arrays[0], arrays[1])
        else:
            enc = ("float", np.log(np.abs(arrays)), 1)
        return FuncTable._of(self.group, self.domain, KIND_POSITIVE, enc)

    def unimodular_part(self) -> "FuncTable":
        """Complex table ``f / |f|``; requires a zero-free table."""
        mode, arrays, _ = self.encoding
        if self.kind not in (KIND_SIGN, KIND_POSITIVE, KIND_COMPLEX):
            raise IncompatibleTablesError("unimodular_part needs a multiplicative kind")
        if _zero_mask(self.encoding).any():
            raise IncompatibleTablesError("zero value has no phase")
        if mode == "complex":
            return FuncTable._of(self.group, self.domain, KIND_COMPLEX,
                                 ("complex", arrays / np.abs(arrays), 1))
        zeros = np.zeros(len(self.values), dtype=np.int64)
        turns = {"parity": (arrays, 2), "exact": arrays[2:4]}.get(mode, (zeros, 1))
        return FuncTable._of(self.group, self.domain, KIND_COMPLEX,
                             ("exact", (zeros, 1, *turns, zeros.astype(bool)), 1))

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        vals = [[list(p.coords), _value_to_json(self.kind, v)]
                for p, v in zip(self.points(), _decode(self.encoding))]
        return {
            "group": str(self.group),
            "domain": self.domain.to_json(),
            "kind": self.kind,
            "values": vals,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "FuncTable":
        group = parse_group(_json_field(obj, "group", "table", str))
        domain = domain_from_json(_json_field(obj, "domain", "table"))
        kind = _json_field(obj, "kind", "table")
        if kind not in _KINDS:
            raise GroupParseError(f"unknown table kind {kind!r}")
        coords, raws = _json_rows(obj, "values", "table")
        mode, arrays, denom = _json_encoding(kind, raws)
        info = _vec.domain_info(group, domain)
        codes, inside = _vec.point_codes(info, _coords_from_json(group, coords))
        order = np.argsort(codes)
        # n rows inside the domain with n distinct indices: every point once
        if (len(coords) != info.n or not inside.all()
                or not np.array_equal(codes[order], np.arange(info.n))):
            raise IncompatibleTablesError(_KEYS_DIFFER)
        if mode == "exact":
            lg, lgd, tn, tnd, zero = arrays
            arrays = (lg[order], lgd, tn[order], tnd, zero[order])
        else:
            arrays = arrays[order]
        bad = np.flatnonzero(~np.isfinite(arrays)) if mode in ("float", "complex") else ()
        if len(bad):
            x = group.element(info.coords[bad[0]].tolist())
            raise IncompatibleTablesError(
                f"value {arrays[bad[0]].item()!r} at {x} is invalid for kind {kind!r}")
        return cls._of(group, domain, kind, (mode, arrays, denom))

    def __eq__(self, other) -> bool:
        if not (isinstance(other, FuncTable) and self.group == other.group
                and self.domain == other.domain and self.kind == other.kind):
            return False
        return _decode(self.encoding) == _decode(other.encoding)

    def __repr__(self) -> str:
        return (f"FuncTable({self.group}, kind={self.kind}, "
                f"{len(self.values)} points)")


class TableValues(Mapping):
    """Read-only ``{point: stored value}`` view of a table, in domain order, decoded
    from its arrays as ``Fraction``, ``float``, +-1, :class:`Exact` or ``complex``."""

    __slots__ = ("_table",)

    def __init__(self, table: FuncTable):
        self._table = table

    def __getitem__(self, x):
        return _decode(self._table.encoding, [self._table._index(x)])[0]

    def __iter__(self):
        return iter(self._table.points())

    def __len__(self) -> int:
        return _vec.domain_info(self._table.group, self._table.domain).n

    def values(self) -> list:
        return _decode(self._table.encoding)

    def items(self) -> list:
        return list(zip(self._table.points(), _decode(self._table.encoding)))


def _encode(kind: str, vals: list, pts: list):
    """Values in domain order as ``(mode, arrays, denom)``, each value validated.

    Sign tables are ("parity", exponents of -1, 1); real and positive tables
    ("int", numerators, denominator) or, holding any float, ("float",
    values, 1); complex tables ("exact", (log numerators, log denominator,
    turn numerators, turn denominator, zero mask), 1) when every value is
    :class:`Exact`, and ("complex", complex128 values, 1) otherwise.  Integer
    arrays are int64 when every value is within ``_vec._INT_LIMIT``.
    """
    check = _VALUE_CHECKS.get(kind)
    if check is None:
        raise IncompatibleTablesError(f"unknown table kind {kind!r}")
    for p, v in zip(pts, vals):
        if not check(v):
            raise IncompatibleTablesError(
                f"value {v!r} at {p} is invalid for kind {kind!r}"
            )
    if kind == KIND_SIGN:
        return "parity", np.array([(1 - v) >> 1 for v in vals], dtype=np.int64), 1
    if kind != KIND_COMPLEX:
        if any(isinstance(v, float) for v in vals):
            return "float", np.array(vals, dtype=np.float64), 1
        return ("int", *_vec._fractions_over(vals))
    if all(isinstance(v, Exact) for v in vals):
        return "exact", (*_vec._fractions_over([v.log_abs for v in vals]),
                         *_vec._fractions_over([v.turn for v in vals]),
                         np.array([v.zero for v in vals], dtype=bool)), 1
    return "complex", np.array([cval(v) for v in vals], dtype=np.complex128), 1


def _decode(encoding, at=slice(None)) -> list:
    """Stored values at the indices ``at`` (all by default) as Python values."""
    mode, arrays, denom = encoding
    if mode == "parity":
        return (1 - 2 * arrays[at]).tolist()
    if mode == "int":
        return [Fraction(n, denom) for n in arrays[at].tolist()]
    if mode != "exact":
        return arrays[at].tolist()
    lg, lgd, tn, tnd, zero = arrays
    return [Exact.zero_value() if z else Exact(Fraction(a, lgd), Fraction(t, tnd))
            for a, t, z in zip(lg[at].tolist(), tn[at].tolist(), zero[at].tolist())]


def _zero_mask(encoding) -> np.ndarray:
    """Where the stored values of a multiplicative table are zero: only
    complex tables hold zeros (positive tables store logs)."""
    mode, arrays, _ = encoding
    if mode == "exact":
        return arrays[4]
    if mode == "complex":
        return arrays == 0
    return np.zeros(len(arrays), dtype=bool)


def _finite_of(v, types) -> bool:
    """Is ``v`` of one of ``types``, not a bool, and finite if a float?"""
    return (isinstance(v, types) and not isinstance(v, bool)
            and (not isinstance(v, (float, complex)) or cmath.isfinite(v)))


_VALUE_CHECKS = {
    KIND_REAL: lambda v: _finite_of(v, (int, Fraction, float)),
    KIND_POSITIVE: lambda v: _finite_of(v, (int, Fraction, float)),
    KIND_SIGN: lambda v: isinstance(v, int) and not isinstance(v, bool)
    and v in (1, -1),
    KIND_COMPLEX: lambda v: _finite_of(v, (Exact, complex, int, float, Fraction)),
}


def _rat_to_json(q: Rational) -> list[int]:
    f = Fraction(q)
    return [f.numerator, f.denominator]


def _json_value(v):
    """A witness value as JSON: ``[re, im]`` for complex and exact values,
    ``[num, den]`` for rationals, anything else as is."""
    if isinstance(v, Exact):
        c = v.to_complex()
        return [c.real, c.imag]
    if isinstance(v, Fraction):
        return [v.numerator, v.denominator]
    if isinstance(v, complex):
        return [v.real, v.imag]
    return v


def _int_pair_from_json(raw):
    """``raw`` itself, once checked to be a JSON ``[num, den]`` rational: two
    integers, the denominator nonzero, in any terms."""
    if (isinstance(raw, (list, tuple)) and len(raw) == 2
            and type(raw[0]) is int and type(raw[1]) is int and raw[1]):
        return raw
    raise GroupParseError(
        f"expected [num, den] rational of integers with a nonzero "
        f"denominator, got {raw!r}")


def _rat_from_json(raw) -> Fraction:
    return Fraction(*_int_pair_from_json(raw))


def _value_to_json(kind: str, v):
    if kind == KIND_SIGN:
        return int(v)
    if kind in (KIND_REAL, KIND_POSITIVE):
        if isinstance(v, (int, Fraction)):
            payload = _rat_to_json(v)
            return {"log": payload} if kind == KIND_POSITIVE else payload
        return {"log": float(v)} if kind == KIND_POSITIVE else float(v)
    # complex
    if isinstance(v, Exact):
        if v.zero:
            return 0
        return {"log": _rat_to_json(v.log_abs), "turn": _rat_to_json(v.turn)}
    c = complex(v)
    return [c.real, c.imag]


def _coords_from_json(group: GroupSpec, coords: list) -> np.ndarray:
    """The coordinate vectors of JSON table rows as an (m, dim) int64 array."""
    dim = group.dim
    for c in coords:
        if len(c) != dim:
            raise GroupMismatchError(f"expected {dim} coordinates, got {len(c)}")
    if not set(map(type, chain.from_iterable(coords))) <= {int}:
        bad = next(c for c in coords if any(type(v) is not int for v in c))
        raise GroupParseError(f"table coordinates must be integers, got {bad!r}")
    try:
        return np.array(coords, dtype=np.int64).reshape(len(coords), group.dim)
    except OverflowError:
        raise GroupParseError("table coordinates must fit in 64 bits") from None


def _is_number(raw) -> bool:
    return isinstance(raw, (int, float)) and not isinstance(raw, bool)


def _float_of(raw, read: Callable[[], float]) -> float:
    """``read()``, the float arithmetic reading the JSON value ``raw`` (an
    int / int division is correctly rounded, as the float of a ``Fraction``
    is); a value beyond the float range is refused."""
    try:
        return read()
    except OverflowError:
        raise GroupParseError(f"value {raw!r} is beyond the float range") from None


def _real_from_json(kind: str, raw):
    """A real or positive table value as a ``[num, den]`` pair of integers,
    or as ``(float, None)``; positive tables read the log of a plain number."""
    if kind == KIND_POSITIVE:
        if not (isinstance(raw, dict) and "log" in raw):
            if not _is_number(raw):
                raise GroupParseError(f"cannot parse positive value {raw!r}")
            if raw <= 0:
                raise GroupParseError(f"positive table value must be > 0, got {raw!r}")
            return math.log(_float_of(raw, lambda: float(raw))), None
        if _is_number(raw["log"]):
            return _float_of(raw, lambda: float(raw["log"])), None
        raw = raw["log"]
    elif isinstance(raw, float):
        return raw, None
    elif _is_number(raw):
        return raw, 1
    return _int_pair_from_json(raw)


def _complex_from_json(raw) -> tuple:
    """A complex table value as ``(log num, log den, turn num, turn den)``
    integers, exact zero as ``None``, or a float value as a ``complex``."""
    if _is_number(raw) and raw == 0:
        return None
    if isinstance(raw, dict):
        where = f"complex value {raw!r}"
        return (*_int_pair_from_json(_json_field(raw, "log", where)),
                *_int_pair_from_json(_json_field(raw, "turn", where)))
    if isinstance(raw, (list, tuple)) and len(raw) == 2 and all(map(_is_number, raw)):
        return _float_of(raw, lambda: complex(float(raw[0]), float(raw[1])))
    raise GroupParseError(f"cannot parse complex value {raw!r}")


def _json_encoding(kind: str, raws: list):
    """JSON table values, in the order given, as the ``(mode, arrays,
    denom)`` of :func:`_encode`.

    Exact entries stay integer pairs: each turn is taken modulo 1 on its pair
    (``num % den`` over ``den``, right for either sign of ``den``), as
    :class:`Exact` takes it, and :func:`kbeq._vec._over` then brings each
    column to lowest terms over one denominator.  No per-value ``Fraction``
    or :class:`Exact` is built.
    """
    if kind == KIND_SIGN:
        for raw in raws:
            if not (_is_number(raw) and raw in (1, -1)):
                raise GroupParseError(f"sign value must be +-1, got {raw!r}")
        return "parity", (1 - np.array(raws, dtype=np.int64)) >> 1, 1
    if kind != KIND_COMPLEX:
        vals = [_real_from_json(kind, raw) for raw in raws]
        if any(d is None for _, d in vals):  # any float: float arithmetic
            return "float", np.array([a if d is None else _float_of(raw, lambda: a / d)
                                      for raw, (a, d) in zip(raws, vals)],
                                     dtype=np.float64), 1
        return ("int", *_vec._over([a for a, _ in vals], [d for _, d in vals]))
    vals = [_complex_from_json(raw) for raw in raws]
    if any(isinstance(v, complex) for v in vals):
        return "complex", np.array([
            v if isinstance(v, complex) else 0j if v is None
            else _float_of(raw, lambda: math.exp(v[0] / v[1])
                           * cmath.exp(2j * math.pi * (v[2] % v[3] / v[3])))
            for raw, v in zip(raws, vals)], dtype=np.complex128), 1
    zero = np.array([v is None for v in vals], dtype=bool)
    ints = [(0, 1, 0, 1) if v is None else v for v in vals]
    return "exact", (*_vec._over([v[0] for v in ints], [v[1] for v in ints]),
                     *_vec._over([v[2] % v[3] for v in ints], [v[3] for v in ints]),
                     zero), 1


# ---------------------------------------------------------------------------
# structured parts


def _rational(v) -> Rational:
    """``v`` itself when an ``int`` or ``Fraction``, else ``Fraction(v)``."""
    return v if isinstance(v, (int, Fraction)) else Fraction(v)


class _Rationals:
    """Rational values stored once, as :class:`FuncTable` stores its
    encoding: integer numerators over one positive denominator, in lowest
    terms, int64 or Python ints by the :func:`kbeq._vec.lowest` rule.  The
    ``Fraction`` fields of a subclass are read-only views decoding them;
    instances are immutable."""

    __slots__ = ("group", "_nums", "_den")
    _field = ""  # the name of the subclass's Fraction view

    def _fill(self, group: GroupSpec, nums: np.ndarray, den: int):
        if den < 0:
            nums, den = -nums, -den
        nums, den = _vec.lowest(nums, den)
        nums.setflags(write=False)
        for name, value in (("group", group), ("_nums", nums), ("_den", den)):
            object.__setattr__(self, name, value)

    @classmethod
    def _of(cls, group: GroupSpec, nums: np.ndarray, den: int):
        """The values ``nums / den`` (a nonzero denominator of either sign,
        in any terms), in the order of the subclass's view and not
        validated: a certified split's parts."""
        obj = object.__new__(cls)
        obj._fill(group, nums, den)
        return obj

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self)._of, (self.group, self._nums, self._den)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.group == other.group and self._den == other._den
                and np.array_equal(self._nums, other._nums))

    def __hash__(self) -> int:
        return hash((self.group, self._den, *self._nums.tolist()))

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(group={self.group!r}, "
                f"{self._field}={getattr(self, self._field)!r})")

    def is_zero(self) -> bool:
        return not self._nums.any()

    def _fractions(self) -> list[Fraction]:
        return [Fraction(n, self._den) for n in self._nums.tolist()]

    def _pairs(self) -> list[list[int]]:
        """The values as JSON ``[num, den]`` pairs in lowest terms."""
        den = self._den
        return [[n // g, den // g] for n in self._nums.tolist() for g in (math.gcd(n, den),)]

    def _json(self):
        return self._pairs()


class QuadraticForm(_Rationals):
    """``P(x) = x^T B x`` with B symmetric rational; torsion rows are zero.

    A real-valued biadditive form kills torsion coordinates (any finite
    subgroup of the reals is trivial), so the zero rows are structural.
    The entries are stored row by row; ``matrix`` is their ``Fraction``
    view.
    """

    __slots__ = ()
    _field = "matrix"

    def __init__(self, group: GroupSpec, matrix):
        d = group.dim
        rows = [[_rational(v) for v in row] for row in matrix]
        if len(rows) != d or any(len(row) != d for row in rows):
            raise GroupMismatchError("quadratic form matrix must be dim x dim")
        nums, den = _vec._fractions_over([v for row in rows for v in row])
        B = nums.reshape(d, d)
        torsion = np.arange(d) >= group.rank
        bad = (B != B.T) | ((torsion[:, None] | torsion) & (B != 0))
        if bad.any():
            i, j = divmod(int(np.argmax(bad)), d)
            raise GroupMismatchError(
                "quadratic form matrix must be symmetric" if B[i, j] != B[j, i]
                else "quadratic form must vanish on torsion coordinates")
        self._fill(group, nums, den)

    def _rows(self, vals: list) -> list:
        d = self.group.dim
        return [vals[i * d:(i + 1) * d] for i in range(d)]

    @property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(map(tuple, self._rows(self._fractions())))

    @classmethod
    def zero(cls, group: GroupSpec) -> "QuadraticForm":
        return cls._of(group, np.zeros(group.dim ** 2, dtype=np.int64), 1)

    def _json(self) -> list:
        return self._rows(self._pairs())


class AdditiveMap(_Rationals):
    """Rational homomorphism into the reals; zero on the torsion part.
    ``coeffs`` is the ``Fraction`` view of its free coordinates'
    coefficients."""

    __slots__ = ()
    _field = "coeffs"

    def __init__(self, group: GroupSpec, coeffs):
        qs = [_rational(v) for v in coeffs]
        if len(qs) != group.rank:
            raise GroupMismatchError("additive map needs one coefficient per free coordinate")
        self._fill(group, *_vec._fractions_over(qs))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(self._fractions())

    @classmethod
    def zero(cls, group: GroupSpec) -> "AdditiveMap":
        return cls._of(group, np.zeros(group.rank, dtype=np.int64), 1)


class CosetConstantMap(_Rationals):
    """Real map depending on x only through its coset modulo ``X^(2)``.

    The values are stored in coset code order (:func:`kbeq._vec.coset_codes`),
    which is the order of ``group.coset_indices(2)``; ``entries`` is their
    ``(CosetIndex, Fraction)`` view.
    """

    __slots__ = ()
    _field = "entries"

    def __init__(self, group: GroupSpec, entries):
        ent = sorted(((idx, _rational(v)) for idx, v in entries),
                     key=lambda t: t[0].residues)
        if [idx for idx, _ in ent] != group.coset_indices(2):
            raise GroupMismatchError(
                "coset map must assign exactly one value per coset of X^(2)"
            )
        self._fill(group, *_vec._fractions_over([v for _, v in ent]))

    @property
    def entries(self) -> tuple[tuple[CosetIndex, Fraction], ...]:
        return tuple(zip(self.group.coset_indices(2), self._fractions()))

    @classmethod
    def from_mapping(cls, group: GroupSpec,
                     mapping: Mapping[CosetIndex, Rational]) -> "CosetConstantMap":
        return cls(group, tuple(mapping.items()))

    @classmethod
    def zero(cls, group: GroupSpec) -> "CosetConstantMap":
        return cls._of(group, np.zeros(group.coset_count(2), dtype=np.int64), 1)

    def at(self, idx: CosetIndex) -> Fraction:
        try:
            i = self.group.coset_indices(2).index(idx)
        except ValueError:
            raise KeyError(idx) from None
        return Fraction(int(self._nums[i]), self._den)

    def negated(self) -> "CosetConstantMap":
        return CosetConstantMap._of(self.group, -self._nums, self._den)

    @property
    def modulus(self) -> int:
        return 2

    def _json(self) -> dict:
        return {"modulus": 2,
                "table": [[list(idx.residues), pair] for idx, pair
                          in zip(self.group.coset_indices(2), self._pairs())]}


@dataclass(frozen=True)
class CharacterSpec:
    """Unimodular multiplicative function given by rational turns per generator."""

    group: GroupSpec
    free_turns: tuple[Fraction, ...]
    torsion_exponents: tuple[int, ...]

    def __post_init__(self):
        turns = tuple(Fraction(t) for t in self.free_turns)
        exps = tuple(int(k) for k in self.torsion_exponents)
        if len(turns) != self.group.rank:
            raise GroupMismatchError("need one turn per free coordinate")
        if len(exps) != len(self.group.torsion):
            raise GroupMismatchError("need one exponent per torsion coordinate")
        exps = tuple(k % n for k, n in zip(exps, self.group.torsion))
        object.__setattr__(self, "free_turns", turns)
        object.__setattr__(self, "torsion_exponents", exps)

    @classmethod
    def trivial(cls, group: GroupSpec) -> "CharacterSpec":
        return cls(group, (Fraction(0),) * group.rank,
                   (0,) * len(group.torsion))

    def is_trivial(self) -> bool:
        return (all(t == 0 for t in self.free_turns)
                and all(k == 0 for k in self.torsion_exponents))


@dataclass(frozen=True)
class SignMap:
    """+/-1-valued map constant on cosets of ``X^(modulus)``.

    Forced to 1 on every coset contained in ``X^(2)`` and symmetric under
    negation of the coset (the underlying functions are even).
    """

    group: GroupSpec
    modulus: int
    entries: tuple[tuple[CosetIndex, int], ...]

    def __post_init__(self):
        if self.modulus not in (2, 4):
            raise GroupMismatchError("sign map modulus must be 2 or 4")
        ent = tuple(sorted(((idx, int(v)) for idx, v in self.entries),
                           key=lambda t: t[0].residues))
        expected = self.group.coset_indices(self.modulus)
        if [idx for idx, _ in ent] != expected:
            raise GroupMismatchError(
                f"sign map must assign exactly one value per coset of X^({self.modulus})"
            )
        table = dict(ent)
        for idx, v in ent:
            if v not in (1, -1):
                raise GroupMismatchError(f"sign map value must be +-1, got {v!r}")
            if self._inside_doubled(idx) and v != 1:
                raise GroupMismatchError(
                    "sign map must be 1 on cosets contained in X^(2)"
                )
            if table[self.group.coset_negate(idx)] != v:
                raise GroupMismatchError("sign map must be even (symmetric under negation)")
        object.__setattr__(self, "entries", ent)
        object.__setattr__(self, "_table", table)

    def _inside_doubled(self, idx: CosetIndex) -> bool:
        if self.modulus == 2:
            return all(r == 0 for r in idx.residues)
        return all(r == 0 for r in self.group.coset_project(idx).residues)

    @classmethod
    def from_mapping(cls, group: GroupSpec, modulus: int,
                     mapping: Mapping[CosetIndex, int]) -> "SignMap":
        return cls(group, modulus, tuple(mapping.items()))

    @classmethod
    def trivial(cls, group: GroupSpec, modulus: int = 4) -> "SignMap":
        return cls(group, modulus,
                   tuple((idx, 1) for idx in group.coset_indices(modulus)))

    def is_trivial(self) -> bool:
        return all(v == 1 for _, v in self.entries)

    def at(self, idx: CosetIndex) -> int:
        return self._table[idx]

    def constant_on_doubled_cosets(self) -> bool:
        """True iff the map factors through cosets of ``X^(2)``."""
        if self.modulus == 2:
            return True
        seen: dict[CosetIndex, int] = {}
        for idx, v in self.entries:
            key = self.group.coset_project(idx)
            if seen.setdefault(key, v) != v:
                return False
        return True


# ---------------------------------------------------------------------------
# solution forms


@dataclass(frozen=True)
class PositiveSolutionForm:
    """Positive solution pair ``f = exp(P+l+r)``, ``g = exp(P+m-r)``."""

    P: QuadraticForm
    l: AdditiveMap
    m: AdditiveMap
    r: CosetConstantMap

    def __post_init__(self):
        g = self.P.group
        if not (self.l.group == g == self.m.group == self.r.group):
            raise GroupMismatchError("form components must share one group")

    @property
    def group(self) -> GroupSpec:
        return self.P.group

    @classmethod
    def zero(cls, group: GroupSpec) -> "PositiveSolutionForm":
        return cls(QuadraticForm.zero(group), AdditiveMap.zero(group),
                   AdditiveMap.zero(group), CosetConstantMap.zero(group))

    def to_json(self) -> dict:
        return {
            "type": "positive",
            "group": str(self.group),
            "P": self.P._json(),
            "l": self.l._json(),
            "m": self.m._json(),
            "r": self.r._json(),
        }


@dataclass(frozen=True)
class HermitianSolutionForm:
    """Hermitian non-vanishing solution pair, optionally restricted to a support subgroup."""

    alpha: CharacterSpec
    beta: CharacterSpec
    a: SignMap
    b: SignMap
    P: QuadraticForm
    r: CosetConstantMap
    support: Optional[SubgroupSpec] = None

    def __post_init__(self):
        g = self.alpha.group
        same = (self.beta.group == g == self.a.group == self.b.group
                == self.P.group == self.r.group)
        if not same or (self.support is not None and self.support.group != g):
            raise GroupMismatchError("form components must share one group")
        if self.a.modulus != 4 or self.b.modulus != 4:
            raise GroupMismatchError("hermitian sign maps use modulus 4")

    @property
    def group(self) -> GroupSpec:
        return self.alpha.group

    def to_json(self) -> dict:
        return {
            "type": "hermitian",
            "group": str(self.group),
            "alpha": _character_to_json(self.alpha),
            "beta": _character_to_json(self.beta),
            "a": _sign_map_to_json(self.a),
            "b": _sign_map_to_json(self.b),
            "P": self.P._json(),
            "r": self.r._json(),
            "support": None if self.support is None else
            [list(g.coords) for g in self.support.generators],
        }


def _character_to_json(c: CharacterSpec) -> dict:
    return {
        "free_turns": [_rat_to_json(t) for t in c.free_turns],
        "torsion_exponents": list(c.torsion_exponents),
    }


def _sign_map_to_json(s: SignMap) -> dict:
    return {
        "modulus": s.modulus,
        "table": [[list(idx.residues), v] for idx, v in s.entries],
    }


def coset_map_from_json(group: GroupSpec, obj: dict) -> CosetConstantMap:
    entries = [(CosetIndex(2, _json_ints(res, "coset map residues")),
                _rat_from_json(raw))
               for res, raw in zip(*_json_rows(obj, "table", "coset map"))]
    return CosetConstantMap(group, tuple(entries))


def character_from_json(group: GroupSpec, obj: dict) -> CharacterSpec:
    turns = _json_field(obj, "free_turns", "character", list)
    exps = _json_field(obj, "torsion_exponents", "character")
    return CharacterSpec(group, tuple(_rat_from_json(t) for t in turns),
                         _json_ints(exps, "character key 'torsion_exponents'"))


def sign_map_from_json(group: GroupSpec, obj: dict) -> SignMap:
    m = _json_field(obj, "modulus", "sign map", int)
    entries = [(CosetIndex(m, _json_ints(res, "sign map residues")),
                _json_typed(v, int, "sign map value"))
               for res, v in zip(*_json_rows(obj, "table", "sign map"))]
    return SignMap(group, m, tuple(entries))


def form_from_json(obj: dict):
    group = parse_group(_json_field(obj, "group", "form", str))
    rows = _json_field(obj, "P", "form", list)
    mat = tuple(tuple(map(_rat_from_json, _json_typed(row, list, "form key 'P' row")))
                for row in rows)
    P = QuadraticForm(group, mat)
    r = coset_map_from_json(group, _json_field(obj, "r", "form"))
    kind = _json_field(obj, "type", "form")
    if kind == "positive":
        l, m = (AdditiveMap(group, tuple(map(_rat_from_json,
                                             _json_field(obj, key, "form", list))))
                for key in ("l", "m"))
        return PositiveSolutionForm(P, l, m, r)
    if kind == "hermitian":
        support = obj.get("support")
        if support is not None:
            support = SubgroupSpec(group, tuple(
                group.element(_json_ints(c, "form support generator"))
                for c in _json_typed(support, list, "form key 'support'")))
        alpha, beta = (character_from_json(group, _json_field(obj, key, "form"))
                       for key in ("alpha", "beta"))
        a, b = (sign_map_from_json(group, _json_field(obj, key, "form"))
                for key in ("a", "b"))
        return HermitianSolutionForm(alpha, beta, a, b, P, r, support)
    raise GroupParseError(f"unknown form type {kind!r}")


# ---------------------------------------------------------------------------
# evaluation and synthesis


def _form_args(P: QuadraticForm, l: AdditiveMap, r: CosetConstantMap,
               sign: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The arguments ``(B, l, r, den)`` of :func:`kbeq._vec.form_values` for
    ``P(x) + l(x) + sign * r(x)``: the parts' stored numerators over their
    least common denominator, ``r``'s negated for ``sign`` -1."""
    den = math.lcm(P._den, l._den, r._den)
    B, ln, rn = (_vec._rescale(part._nums, den // part._den) for part in (P, l, r))
    return B, ln, rn if sign > 0 else -rn, den


def _positive_sides(form: PositiveSolutionForm):
    """The :func:`_form_args` of ``log f = P + l + r`` and ``log g = P + m - r``."""
    return (_form_args(form.P, form.l, form.r), _form_args(form.P, form.m, form.r, -1))


def eval_positive(form: PositiveSolutionForm,
                  x: GroupElement) -> tuple[float, float]:
    """Evaluate a positive form; returns the pair ``(f(x), g(x))`` as floats,
    the exponentials of the exact logs :func:`synth_table` renders, computed
    at the one point ``x``."""
    group = form.group
    group._own(x)
    # int / int is correctly rounded, as the float of a Fraction is
    return tuple(math.exp(num / den) for num, den in (
        _vec.form_value_at(*args, group, x.coords) for args in _positive_sides(form)))


def eval_hermitian(form: HermitianSolutionForm,
                   x: GroupElement) -> tuple[complex, complex]:
    """Evaluate a Hermitian form; zero outside the support subgroup.

    The exact values are :func:`_hermitian_sides` at the one point ``x``,
    as :func:`_hermitian_tables` renders them, and support membership is
    read from the subgroup's mask over the whole group, which must be
    finite.
    """
    group = form.group
    group._own(x)
    if form.support is not None:
        if not group.is_finite:
            raise SynthesisError("support membership needs a finite group")
        info = _vec.domain_info(group, FullGroup())
        if not _support_span(form.support, info)[_vec.index_of_coords(info, x.coords)]:
            return 0j, 0j
    row = np.array([x.coords], dtype=object)
    sides = _hermitian_sides(form, row, _vec.coset_codes_at(group, 4, row),
                             lambda *args: _vec.form_value_at(*args, group, x.coords))
    # the values of Exact(log / lden, turn / tden).to_complex()
    return tuple(math.exp(log / lden) * cmath.exp(2j * math.pi * (int(turns[0]) / tden))
                 for log, lden, turns, tden in sides)


def synth_table(form, domain: Domain) -> tuple[FuncTable, FuncTable]:
    """Render a form as a pair of dense tables over a domain.

    Positive forms always produce genuine solution pairs, with exact
    rational logs evaluated over the whole domain at once: the form's
    stored numerators are brought over one denominator (:func:`_form_args`)
    and evaluated by :func:`kbeq._vec.form_values`, the integer evaluator
    the log-domain split (:mod:`kbeq._split`) shares.  Hermitian forms are
    rendered from the same arrays (:func:`_hermitian_tables`), and are
    synthesized only when they satisfy the sufficient condition (sign maps
    constant on cosets of ``X^(2)`` with pointwise product 1, or the
    support-restricted shape on a group with onto doubling); arbitrary
    quadrupled-coset sign data does not guarantee a solution and is refused.
    """
    if isinstance(form, PositiveSolutionForm):
        group = form.group
        info = _vec.domain_info(group, domain)
        return tuple(FuncTable._of(group, domain, KIND_POSITIVE,
                                   ("int", *_vec.form_values(*args, info)))
                     for args in _positive_sides(form))
    if isinstance(form, HermitianSolutionForm):
        _require_sufficient(form)
        return _hermitian_tables(form, domain)
    raise SynthesisError(f"cannot synthesize from {type(form).__name__}")


def _turns(alpha: CharacterSpec, coords: np.ndarray) -> tuple[np.ndarray, int]:
    """The turns of ``alpha`` at the rows of an integer coordinate array,
    ``coords @ t mod den`` with ``t`` the turns of the generators over one
    denominator ``den``; in Python ints when int64 might overflow."""
    t, den = _vec._over(
        [q.numerator for q in alpha.free_turns] + list(alpha.torsion_exponents),
        [q.denominator for q in alpha.free_turns] + list(alpha.group.torsion))
    bound = sum(map(abs, t.tolist())) * int(np.abs(coords).max(initial=0))
    if t.dtype == object or max(bound, den) > _vec._INT_LIMIT:
        t, coords = t.astype(object), coords.astype(object)
    return coords @ t % den, den


def _character_table(alpha: CharacterSpec, domain: Domain) -> FuncTable:
    """``alpha`` over a domain as one exact turn table (:func:`_turns`)."""
    info = _vec.domain_info(alpha.group, domain)
    zeros = np.zeros(info.n, dtype=np.int64)
    turns, den = _turns(alpha, info.coords.astype(np.int64))
    return FuncTable._of(alpha.group, domain, KIND_COMPLEX,
                         ("exact", (zeros, 1, turns, den, zeros.astype(bool)), 1))


def _support_span(support: SubgroupSpec, info: _vec.VecDomain) -> np.ndarray:
    """The read-only mask of ``support`` on a finite group's domain, whose
    origin has index 0, grown generator by generator
    (:func:`kbeq._vec.join_span`) and cached by :func:`kbeq._vec.memo`."""

    def build() -> np.ndarray:
        span = np.arange(info.n) == 0
        for e in support.generators:
            _vec.join_span(info, span, e.coords)
        span.setflags(write=False)
        return span

    return _vec.memo((info.group, info.domain, support), build)


def _hermitian_sides(form: HermitianSolutionForm, coords: np.ndarray, codes,
                     logs: Callable):
    """Each side of a Hermitian form at the rows of ``coords``, whose coset
    codes modulo ``X^(4)`` are ``codes``: the log numerators and denominator
    of ``P +- r`` by ``logs`` of their :func:`_form_args`, and the turn
    numerators and denominator of the character's turns (:func:`_turns`)
    plus a half turn where the sign map is -1, its entries running in coset
    code order."""
    no_l = AdditiveMap.zero(form.group)
    for chi, signs, sign in ((form.alpha, form.a, 1), (form.beta, form.b, -1)):
        turns, tden = _turns(chi, coords)
        minus = (np.array([v for _, v in signs.entries])[codes] < 0).astype(turns.dtype)
        if minus.any():  # t + 1/2 is (2t + den) / (2 den)
            turns, tden = (2 * turns + tden * minus) % (2 * tden), 2 * tden
        yield (*logs(*_form_args(form.P, no_l, form.r, sign)), turns, tden)


def _hermitian_tables(form: HermitianSolutionForm,
                      domain: Domain) -> tuple[FuncTable, FuncTable]:
    """A Hermitian form over a domain as two exact tables built from arrays
    (:func:`_hermitian_sides`, the logs by :func:`kbeq._vec.form_values`),
    with exact zeros off the support (:func:`_support_span`)."""
    group = form.group
    info = _vec.domain_info(group, domain)
    zero = np.zeros(info.n, dtype=bool)
    if form.support is not None:
        zero = ~_support_span(form.support, info)
    sides = _hermitian_sides(form, info.coords.astype(np.int64), _vec.coset_codes(info, 4),
                             lambda *args: _vec.form_values(*args, info))
    return tuple(
        FuncTable._of(group, domain, KIND_COMPLEX, ("exact", (
            np.where(zero, 0, logs), lden, np.where(zero, 0, turns), tden, zero), 1))
        for logs, lden, turns, tden in sides)


def _require_sufficient(form: HermitianSolutionForm):
    if form.support is not None:
        # with X^(2) = X the group has odd order, and so has every quotient
        if not form.group.doubling_is_onto():
            raise SynthesisError(
                "support-restricted synthesis needs a group with X^(2) = X"
            )
        if not (form.a.is_trivial() and form.b.is_trivial()):
            raise SynthesisError(
                "support-restricted synthesis uses trivial sign maps"
            )
        return
    if not (form.a.constant_on_doubled_cosets()
            and form.b.constant_on_doubled_cosets()):
        raise SynthesisError(
            "sign maps are not constant on cosets of X^(2); such forms "
            "do not synthesize to guaranteed solutions"
        )
    for idx, v in form.a.entries:
        if v * form.b.at(idx) != 1:
            raise SynthesisError(
                "sign maps must satisfy a(x)b(x) = 1 for guaranteed synthesis"
            )
