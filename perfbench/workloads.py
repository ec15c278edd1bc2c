"""The benchmark's workloads: seeded inputs and verified operations.

Each workload builds its inputs from the seed in :meth:`setup` and exposes
``ops``: callables that run one operation against kbeq's public entry points
and return an :class:`Outcome`.  Verification (``verify.py``) runs after the
timed call and is not part of the operation's time.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import sys
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from random import Random
from time import perf_counter
from typing import Callable, Optional

import kbeq

import verify
from verify import Group

HERE = Path(__file__).resolve().parent


@dataclass
class Outcome:
    ok: bool
    seconds: float                 # operation time, verification excluded
    reason: Optional[str] = None   # why the output was judged wrong
    child_rss_mb: float = 0.0      # peak RSS of a CLI child, if any


def run_op(op: Callable[[], Outcome]) -> Outcome:
    """Run one operation; an unexpected exception is a failed operation."""
    t0 = perf_counter()
    try:
        return op()
    except Exception as exc:  # the loop must keep running and count it
        return Outcome(False, perf_counter() - t0, f"{type(exc).__name__}: {exc}")


class Workload:
    name = ""

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.tracer = None   # a tracing.Tracer during the traced round
        self.ops: list[Callable[[], Outcome]] = []
        self.child_walls: list[float] = []   # wall time of each traced CLI child

    def setup(self):
        raise NotImplementedError


# ---------------------------------------------------------------------------


class Roundtrip(Workload):
    """Criterion-4 shape: synth -> check -> decompose on many small tables."""

    name = "roundtrip"
    group_literal = "Z^2 x Z/4 x Z/3"
    radius = 6
    count = 100
    spot_points = 16

    def setup(self):
        rng = Random(self.seed)
        group = kbeq.parse_group(self.group_literal)
        self.group = Group.parse(self.group_literal)
        self.box = kbeq.Box((self.radius,) * group.rank)
        # the window's points, enumerated here so no kbeq cache is warmed
        coords = list(product(*[range(-self.radius, self.radius + 1)] * group.rank,
                              *[range(n) for n in group.torsion]))
        forms = [kbeq.random_positive_form(group, rng) for _ in range(self.count)]
        self.ops = []
        for form in forms:
            spots = rng.sample(coords, self.spot_points)
            self.ops.append(self._op(form, form.to_json(), spots, group))

    def _op(self, form, seed_json, spots, group):
        def run() -> Outcome:
            t0 = perf_counter()
            f, g = kbeq.synth_table(form, self.box)
            rep = kbeq.check_kb(f, g)
            back = kbeq.decompose_positive(f, g)
            elapsed = perf_counter() - t0
            elems = [group.element(c) for c in spots]
            reason = verify.roundtrip_output(
                seed_json, self.group, spots,
                [f.values[e] for e in elems], [g.values[e] for e in elems],
                rep.holds, back.to_json())
            return Outcome(reason is None, elapsed, reason)
        return run


# ---------------------------------------------------------------------------


class Window(Workload):
    """The CLI on the largest window it accepts, one fresh process per command."""

    name = "window"
    group_literal = "Z^2 x Z/4 x Z/3"
    radius = 10
    # kbeq is run as users run it; ``cli_child.py`` adds tracing around it
    command = [sys.executable, "-m", "kbeq"]

    def setup(self):
        rng = Random(self.seed)
        group = kbeq.parse_group(self.group_literal)
        self.group = Group.parse(self.group_literal)
        box = kbeq.Box((self.radius,) * group.rank)
        form = kbeq.random_positive_form(group, rng)
        self.form_json = form.to_json()
        f, g = kbeq.synth_table(form, box)
        fj, gj = f.to_json(), g.to_json()
        # alter f at one point p; the pair (p - t, t), t a torsion generator,
        # then violates the equation, which certifies the altered table
        t = (0,) * group.rank + (1,) + (0,) * (len(group.torsion) - 1)
        g_vals = verify.table_values(gj)
        while True:
            k = rng.randrange(len(fj["values"]))
            p = tuple(fj["values"][k][0])
            if p == t or not any(p):
                continue
            bad = json.loads(json.dumps(fj))
            num, den = bad["values"][k][1]["log"]
            bad["values"][k][1] = {"log": [num + den, den]}
            sides = verify.kb_log_sides(verify.table_values(bad), g_vals, self.group,
                                        self.group.add(p, t, -1), t)
            if sides is not None and sides[0] != sides[1]:
                break
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.paths, self.tables = {}, {}
        for key, obj in (("f", fj), ("g", gj), ("f_bad", bad)):
            path = self.work_dir / f"{key}.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
            self.paths[key] = path
        self.ops = [self._check(False), self._check(True), self._decompose()]

    def _spawn(self, args: list[str], tag: str):
        """Run one CLI command; returns (exit code, stdout JSON, wall s, rss MB)."""
        out = self.work_dir / f"{tag}.out"
        err = self.work_dir / f"{tag}.err"
        env = dict(os.environ)
        src = str(HERE.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get(
            "PYTHONPATH") else src
        argv = list(self.command)
        if self.tracer is not None:
            spans = self.work_dir / f"{tag}.spans.json"
            argv = [sys.executable, str(HERE / "cli_child.py"), str(spans)]
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)]
        t0 = perf_counter()
        pid = os.posix_spawn(argv[0], argv + args, env, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = perf_counter() - t0
        code = os.waitstatus_to_exitcode(status)
        if self.tracer is not None:
            with open(spans, encoding="utf-8") as fh:
                self.tracer.adopt(json.load(fh)["spans"])
            self.child_walls.append(wall)
        with open(out, encoding="utf-8") as fh:
            text = fh.read()
        return code, json.loads(text) if text.strip() else {}, wall, usage.ru_maxrss / 1024

    def _table(self, key: str) -> dict:
        """A table file's values, parsed once, for exact witness recomputation."""
        if key not in self.tables:
            with open(self.paths[key], encoding="utf-8") as fh:
                self.tables[key] = verify.table_values(json.load(fh))
        return self.tables[key]

    def _check(self, altered: bool):
        f_key = "f_bad" if altered else "f"

        def run() -> Outcome:
            code, payload, wall, rss = self._spawn(
                ["check", "-f", str(self.paths[f_key]), "-g", str(self.paths["g"])],
                "check_bad" if altered else "check")
            reason = verify.check_report(payload.get("report", {}), code,
                                         not altered, self._table(f_key),
                                         self._table("g"), self.group)
            return Outcome(reason is None, wall, reason, rss)
        return run

    def _decompose(self):
        def run() -> Outcome:
            code, payload, wall, rss = self._spawn(
                ["decompose", "-f", str(self.paths["f"]), "-g", str(self.paths["g"])],
                "decompose")
            if code != 0 or "form" not in payload:
                return Outcome(False, wall, f"decompose exit code {code}", rss)
            same = (verify.positive_form_key(payload["form"])
                    == verify.positive_form_key(self.form_json))
            return Outcome(same, wall, None if same else
                           "decomposition differs from the seed form", rss)
        return run


# ---------------------------------------------------------------------------


class FloatHermitian(Workload):
    """Imported float-complex tables: genuine pairs and corrupted copies."""

    name = "float-hermitian"
    group_literal = "Z^2 x Z/4"
    radius = 4
    count = 6

    def setup(self):
        rng = Random(self.seed)
        group = kbeq.parse_group(self.group_literal)
        self.group = Group.parse(self.group_literal)
        box = kbeq.Box((self.radius,) * group.rank)
        self.ops = []
        for _ in range(self.count):
            f, g = kbeq.synth_table(kbeq.random_hermitian_form(group, rng), box)
            fo, go = _float_render(f.to_json()), _float_render(g.to_json())
            self.ops.append(self._op(fo, go, True))
            if rng.random() < 1 / 3:
                fo, go = json.loads(json.dumps(fo)), json.loads(json.dumps(go))
                tab = rng.choice((fo, go))
                k = rng.randrange(1, len(tab["values"]))
                tab["values"][k][1] = [1.5 * v for v in tab["values"][k][1]]
                self.ops.append(self._op(fo, go, False))

    def _op(self, fo: dict, go: dict, genuine: bool):
        def run() -> Outcome:
            t0 = perf_counter()
            f = kbeq.FuncTable.from_json(fo)
            g = kbeq.FuncTable.from_json(go)
            form = None
            if kbeq.check_kb(f, g).holds:
                try:
                    form = kbeq.decompose_hermitian(f, g)
                except (kbeq.EquationFailsError, kbeq.DecompositionError):
                    form = None
            elapsed = perf_counter() - t0
            if not genuine:
                return Outcome(form is None, elapsed,
                               None if form is None else "corrupted pair accepted")
            if form is None:
                return Outcome(False, elapsed, "genuine pair rejected")
            reason = verify.hermitian_output(form.to_json(), self.group,
                                             verify.table_values(fo),
                                             verify.table_values(go))
            return Outcome(reason is None, elapsed, reason)
        return run


def _float_render(obj: dict) -> dict:
    """Exact complex table JSON rendered as float ``[re, im]`` values."""
    out = dict(obj)
    vals = []
    for coords, raw in obj["values"]:
        c = (math.exp(float(verify.rat(raw["log"])))
             * cmath.exp(2j * math.pi * float(verify.rat(raw["turn"]))))
        vals.append([coords, [c.real, c.imag]])
    out["values"] = vals
    return out


# ---------------------------------------------------------------------------


def abelian_types(max_order: int) -> list[tuple[int, ...]]:
    """Invariant factors (largest first) of every Abelian group up to order."""

    def partitions(k, top):
        if k == 0:
            yield ()
            return
        for i in range(min(k, top), 0, -1):
            for rest in partitions(k - i, i):
                yield (i,) + rest

    out = []
    for n in range(1, max_order + 1):
        primes, x, p = {}, n, 2
        while x > 1:
            while x % p == 0:
                primes[p] = primes.get(p, 0) + 1
                x //= p
            p += 1
        choices = [[]]
        for p, k in primes.items():
            choices = [c + [(p, part)] for c in choices for part in partitions(k, k)]
        for choice in choices:
            factors = [1] * max((len(part) for _, part in choice), default=0)
            for p, part in choice:
                for i, e in enumerate(part):
                    factors[i] *= p ** e
            out.append(tuple(factors))
    return out


class Census(Workload):
    """Criterion 5: every grid solution on every Abelian group of order <= 16.

    One operation is the whole census, all 25 groups in order of size, as
    the criterion lists them.  Criterion 5 fixes the inputs, so the seed
    changes nothing here.  Per-group operations would put op_p50_ms on a
    group of a few tens of milliseconds, whose run-to-run noise on a shared
    2-core machine exceeds any useful bound.
    """

    name = "census"
    max_order = 16
    grid = (-1, 0, 1)

    def setup(self):
        self.ops = [self._op(abelian_types(self.max_order))]

    def _op(self, types: list[tuple[int, ...]]):
        def run() -> Outcome:
            elapsed, reasons = 0.0, []
            for torsion in types:
                seconds, reason = self._group(torsion)
                elapsed += seconds
                if reason is not None:
                    reasons.append(f"{torsion}: {reason}")
            return Outcome(not reasons, elapsed, "; ".join(reasons) or None)
        return run

    def _group(self, torsion: tuple[int, ...]):
        """Census of one group: (seconds without verification, reason or None)."""
        group = kbeq.GroupSpec(0, torsion)
        checker = verify.CensusRows(Group(0, torsion), max(self.grid))
        lib_ok = [True]
        spent = [0.0]

        def on_chunk(rows, denom):
            if not kbeq.restricted_rows_match_prediction(group, rows, denom):
                lib_ok[0] = False
            t = perf_counter()
            sid = self.tracer.begin("bench.verify") if self.tracer else None
            if denom != 1:
                checker.error = f"unexpected denominator {denom}"
            checker.add(rows)
            if sid is not None:
                self.tracer.end(sid)
            spent[0] += perf_counter() - t

        t0 = perf_counter()
        count = kbeq.scan_restricted_kb(group, self.grid, on_chunk)
        predicted = kbeq.predicted_restricted_count(group, self.grid)
        elapsed = perf_counter() - t0 - spent[0]
        reason = checker.result(count)
        if reason is None and not lib_ok[0]:
            reason = "structural check rejected a chunk"
        if reason is None and predicted != checker.expected:
            reason = f"predicted count {predicted}, expected {checker.expected}"
        return elapsed, reason


WORKLOADS = {w.name: w for w in (Roundtrip, Window, FloatHermitian, Census)}
