"""Independent verification of kbeq outputs.

Nothing here calls kbeq: forms are read from their JSON rendering, group
arithmetic and coset indices are recomputed from the group's invariants, and
equation sides are evaluated with exact rationals.  Each function returns
``None`` when the output is right and a short reason when it is wrong.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from math import gcd

import numpy as np

# Tolerance for comparing float tables with a recovered form, on log modulus
# and on phase in turns; float-rounded genuine tables sit near 1e-12.
FLOAT_TOL = 1e-6


def rat(raw) -> Fraction:
    return Fraction(int(raw[0]), int(raw[1]))


class Group:
    """``Z^rank x Z/n1 x ...`` arithmetic on coordinate tuples."""

    def __init__(self, rank: int, torsion: tuple[int, ...]):
        self.rank = rank
        self.torsion = tuple(torsion)

    @classmethod
    def parse(cls, literal: str) -> "Group":
        rank, torsion = 0, []
        for part in literal.replace(" ", "").lower().split("x"):
            if not part:
                continue
            if part.startswith("z/"):
                torsion.append(int(part[2:]))
            else:
                rank += int(part[2:]) if part.startswith("z^") else 1
        return cls(rank, tuple(torsion))

    def reduce(self, coords) -> tuple[int, ...]:
        r = self.rank
        return tuple(coords[:r]) + tuple(c % n for c, n in zip(coords[r:], self.torsion))

    def add(self, x, y, sy: int = 1) -> tuple[int, ...]:
        return self.reduce([a + sy * b for a, b in zip(x, y)])

    def coset(self, x, modulus: int) -> tuple[int, ...]:
        r = self.rank
        return (tuple(c % modulus for c in x[:r])
                + tuple(c % gcd(modulus, n) for c, n in zip(x[r:], self.torsion)))


# ---------------------------------------------------------------------------
# forms (as rendered by ``form.to_json()`` and the CLI)


def positive_form_key(obj: dict) -> tuple:
    """Exact content of a positive form: (P, l, m, r by coset)."""
    return (
        tuple(tuple(rat(v) for v in row) for row in obj["P"]),
        tuple(rat(v) for v in obj["l"]),
        tuple(rat(v) for v in obj["m"]),
        tuple(sorted((tuple(res), rat(v)) for res, v in obj["r"]["table"])),
    )


def _quadratic(P, x, rank: int) -> Fraction:
    return sum((P[i][j] * x[i] * x[j] for i in range(rank) for j in range(rank)),
               Fraction(0))


def positive_logs(obj: dict, group: Group, x) -> tuple[Fraction, Fraction]:
    """``(log f(x), log g(x))`` of a positive form."""
    P, l, m, r = positive_form_key(obj)
    rmap = dict(r)
    q = _quadratic(P, x, group.rank)
    lx = sum((c * x[i] for i, c in enumerate(l)), Fraction(0))
    mx = sum((c * x[i] for i, c in enumerate(m)), Fraction(0))
    rx = rmap[group.coset(x, 2)]
    return q + lx + rx, q + mx - rx


def _char_turn(obj: dict, group: Group, x) -> Fraction:
    turn = sum((rat(t) * x[i] for i, t in enumerate(obj["free_turns"])), Fraction(0))
    for k, n, c in zip(obj["torsion_exponents"], group.torsion, x[group.rank:]):
        turn += Fraction(k * c, n)
    return turn % 1


def hermitian_model(obj: dict, group: Group, x):
    """``((log|f|, turn f), (log|g|, turn g))`` of a Hermitian form at x."""
    P = [[rat(v) for v in row] for row in obj["P"]]
    rmap = {tuple(res): rat(v) for res, v in obj["r"]["table"]}
    signs = {}
    for key in ("a", "b"):
        s = obj[key]
        signs[key] = {tuple(res): v for res, v in s["table"]}[
            group.coset(x, int(s["modulus"]))]
    q = _quadratic(P, x, group.rank)
    rx = rmap[group.coset(x, 2)]
    half = Fraction(1, 2)
    tf = (_char_turn(obj["alpha"], group, x) + (0 if signs["a"] == 1 else half)) % 1
    tg = (_char_turn(obj["beta"], group, x) + (0 if signs["b"] == 1 else half)) % 1
    return (q + rx, tf), (q - rx, tg)


# ---------------------------------------------------------------------------
# tables (JSON as written for and by the CLI)


def table_values(obj: dict) -> dict:
    """Point -> value of a table JSON: Fraction logs or complex numbers."""
    out = {}
    for coords, raw in obj["values"]:
        if isinstance(raw, dict):
            out[tuple(coords)] = rat(raw["log"])
        else:
            out[tuple(coords)] = complex(raw[0], raw[1])
    return out


def kb_log_sides(f: dict, g: dict, group: Group, x, y):
    """Exact log sides of ``f(x+y) g(x-y) = f(x) f(y) g(x) g(-y)``.

    Returns None when a required point is outside the tables' window.
    """
    pts = (group.add(x, y), group.add(x, y, -1), tuple(x), tuple(y),
           group.reduce([-c for c in y]))
    if any(p not in f for p in pts):
        return None
    xy, xmy, px, py, ny = pts
    return f[xy] + g[xmy], f[px] + f[py] + g[px] + g[ny]


def roundtrip_output(seed_form: dict, group: Group, points, f_logs, g_logs,
                     holds: bool, back_form: dict):
    """Synthesized logs match the seed form, the check holds, and the
    decomposition equals the seed form."""
    for x, lf, lg in zip(points, f_logs, g_logs):
        if (lf, lg) != positive_logs(seed_form, group, x):
            return f"synthesized table differs from the form at {x}"
    if not holds:
        return "check_kb rejected a synthesized solution"
    if positive_form_key(back_form) != positive_form_key(seed_form):
        return "decomposition differs from the seed form"
    return None


def check_report(report: dict, exit_code: int, expect_holds: bool,
                 f: dict, g: dict, group: Group):
    """A CLI check report: verdict, exit code, and an exact witness."""
    if report.get("holds") is not expect_holds:
        return f"check verdict {report.get('holds')}, expected {expect_holds}"
    if exit_code != (0 if expect_holds else 1):
        return f"check exit code {exit_code}"
    if expect_holds:
        return None
    wit = report.get("witness") or {}
    if "x" not in wit or "y" not in wit:
        return "failing report without a witness"
    sides = kb_log_sides(f, g, group, group.reduce(wit["x"]), group.reduce(wit["y"]))
    if sides is None:
        return "witness needs points outside the window"
    lhs, rhs = sides
    if lhs == rhs:
        return "witness is not a violation"
    if (rat(wit["lhs"]), rat(wit["rhs"])) != (lhs, rhs):
        return "witness sides differ from the recomputed sides"
    return None


def hermitian_output(form: dict, group: Group, f: dict, g: dict):
    """A recovered Hermitian form evaluates back to the float tables."""
    for x in f:
        for (lmod, turn), value in zip(hermitian_model(form, group, x),
                                       (f[x], g[x])):
            if value == 0:
                return f"zero value at {x}"
            if abs(math.log(abs(value)) - float(lmod)) > FLOAT_TOL:
                return f"log modulus differs at {x}"
            dturn = (cmath.phase(value) / (2 * math.pi) - float(turn)) % 1.0
            if min(dturn, 1.0 - dturn) > FLOAT_TOL:
                return f"phase differs at {x}"
    return None


class CensusRows:
    """Streaming check that census rows are exactly the predicted set.

    The grid is the scaled log values ``-k..k``.  The predicted set is ``T``
    constant on cosets of ``X^(2)`` with values on the grid and ``S = -T``.
    A row in that set is fixed by its values on one representative per
    coset, so each row gets a base-``2k+1`` code; the rows are distinct iff
    as many codes are marked as rows were seen.
    """

    def __init__(self, group: Group, k: int):
        self.k = k
        elements = list(np.ndindex(*group.torsion)) if group.torsion else [()]
        rep_of: dict = {}
        self.rep_col = np.array(
            [rep_of.setdefault(group.coset(e, 2), i) for i, e in enumerate(elements)],
            dtype=np.int64)
        self.reps = np.array(sorted(set(rep_of.values())), dtype=np.int64)
        self.expected = (2 * k + 1) ** len(self.reps)
        # codes stay below 2^53, so float64 products are exact
        self.weights = (2.0 * k + 1) ** np.arange(len(self.reps) - 1, -1, -1)
        self.seen = np.zeros(self.expected, dtype=bool)
        self.rows = 0
        self.error = None

    def add(self, rows: np.ndarray):
        if self.error is not None:
            return
        t, s = rows[:, 0::2], rows[:, 1::2]
        if t.shape[1] != len(self.rep_col) or not np.array_equal(s, -t):
            self.error = "a row is not of the form S = -T"
            return
        if not np.array_equal(t, t[:, self.rep_col]):
            self.error = "a row is not constant on cosets of X^(2)"
            return
        if t.size and (int(t.min()) < -self.k or int(t.max()) > self.k):
            self.error = "a row has a value off the grid"
            return
        # blocks keep the temporaries small next to kbeq's own memory
        for b in range(0, len(rows), 1 << 16):
            digits = t[b:b + (1 << 16), self.reps] + np.float64(self.k)
            self.seen[(digits @ self.weights).astype(np.int64)] = True
        self.rows += len(rows)

    def result(self, count: int):
        if self.error is not None:
            return self.error
        if count != self.rows:
            return f"scan reported {count} rows, streamed {self.rows}"
        if count != self.expected:
            return f"{count} rows, predicted {self.expected}"
        if int(self.seen.sum()) != count:
            return "rows repeat"
        return None
