"""The streamed pair sweep: closed-form counts, witness order, budget,
early stop, and no cached block.

Pair sweeps build their in-range pairs from per-coordinate factors and sweep
them block by block, each block holding every pair of a range of x, so the
lexicographically first failure is the smallest ``i*n + j`` among the
failures of the first failing block.  The brute-force loops in
``reference_checks`` are the oracle: witnesses, ``pairs_checked`` and
``coverage`` must equal theirs whatever the block size, including when the
first failure lies beyond the first block or is generated after a failure
that is lexicographically later.
"""

import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import product
from pathlib import Path
from random import Random

import pytest

import reference_checks as ref
from reference_decompose import character_value
from kbeq import _split, _vec, checks
from kbeq.cli import main
from kbeq.errors import BudgetExceededError
from kbeq.functions import Exact, FuncTable, synth_table
from kbeq.groups import Box, FullGroup, GroupSpec
from kbeq.oracle import random_character, random_positive_form

TOL = checks.DEFAULT_TOL
SRC = Path(__file__).resolve().parent.parent / "src"

DOMAINS = (
    ("box0", GroupSpec(0, (4, 3)), Box(())),
    ("box1", GroupSpec(1, (4,)), Box((3,))),
    ("box2", GroupSpec(2, (2,)), Box((2, 2))),
    ("full", GroupSpec(0, (4, 2)), FullGroup()),
    ("full-odd", GroupSpec(0, (9,)), FullGroup()),
)


def corrupted(table, rng, change):
    """``table`` with ``change`` applied at 2 or 3 random points."""
    vals = dict(table.values)
    for p in rng.sample(table.points(), rng.choice((2, 3))):
        vals[p] = change(vals[p])
    return FuncTable(table.group, table.domain, table.kind, vals)


def _free(p):
    return [p.coords[c] for c in range(p.group.rank)] + [0, 0]


def _real(group, domain, fn):
    return FuncTable.from_function(group, domain, "real", fn)


def _cases(group, domain, rng):
    """(id, kernel check, reference check, tables) with corrupted tables."""
    bump = lambda v: v + Fraction(1, 7)  # noqa: E731
    f, g = synth_table(random_positive_form(group, rng), domain)
    yield "kb", checks.check_kb, ref.check_kb, (corrupted(f, rng, bump), g)
    for n in range(4):
        coeffs = {(i, n - i): Fraction(rng.randint(1, 5), 3) for i in range(n + 1)}
        poly = _real(group, domain, lambda p: 1 + sum(
            c * _free(p)[0] ** i * _free(p)[1] ** j for (i, j), c in coeffs.items()))
        yield (f"polynomial-{n}", lambda t, n=n: checks.check_polynomial(t, n),
               lambda t, tol, n=n: ref.check_polynomial(t, n, tol),
               (corrupted(poly, rng, bump),))
    a, b, c = (Fraction(rng.randint(1, 5), 2) for _ in range(3))
    quad = _real(group, domain,
                 lambda p: a * _free(p)[0] ** 2 + b * _free(p)[0] * _free(p)[1]
                 + c * _free(p)[1] ** 2)
    yield ("quadratic", checks.check_quadratic, ref.check_quadratic,
           (corrupted(quad, rng, bump),))
    add = _real(group, domain, lambda p: a * _free(p)[0] + b * _free(p)[1])
    yield "cauchy", checks.check_cauchy, ref.check_cauchy, (corrupted(add, rng, bump),)
    even = [c for c in range(group.dim)
            if c < group.rank or group.torsion[c - group.rank] % 2 == 0]
    sign = FuncTable.from_function(
        group, domain, "sign", lambda p: 1 - 2 * (sum(p.coords[c] for c in even) % 2))
    yield ("sign-eq26", checks.check_sign_eq26, ref.check_sign_eq26,
           (corrupted(sign, rng, lambda v: -v), sign))
    spec = random_character(group, rng)
    chi = FuncTable.from_function(group, domain, "complex",
                                  lambda p: character_value(spec, p))
    yield ("character", checks.check_character, ref.check_character,
           (corrupted(chi, rng, lambda v: v * Exact.unit(Fraction(1, 5))),))


def assert_agree(got, want, case):
    assert got.holds == want.holds, case
    assert got.pairs_checked == want.pairs_checked, case
    assert got.coverage == want.coverage, case
    if want.witness is None:
        assert got.witness is None, case
    else:
        assert got.witness.points == want.witness.points, case
        assert (got.witness.lhs, got.witness.rhs) == (want.witness.lhs,
                                                       want.witness.rhs), case


def test_streamed_witnesses_match_reference(monkeypatch):
    calls = []  # (axes, failing positions) of each pair block swept
    sweep_block = _vec.failures

    def spy(enc, axes, *rest):
        hit = sweep_block(enc, axes, *rest)
        if len(axes) > 1:  # not a point-wise residual of check_kb's certificate
            calls.append((axes, hit))
        return hit

    monkeypatch.setattr(_vec, "failures", spy)
    default_block = _vec._BLOCK_PAIRS
    beyond_first_block = reordered = failing = 0
    for name, group, domain in DOMAINS:
        for seed in range(2):
            for check_name, check, reference, tables in _cases(group, domain,
                                                                Random(seed)):
                case = f"{name}-{check_name}-{seed}"
                want = reference(*tables, TOL)
                failing += not want.holds
                # default blocks, then small and tiny ones, each streamed
                # through reused scratch arrays
                for block in (default_block, 300, 16):
                    monkeypatch.setattr(_vec, "_BLOCK_PAIRS", block)
                    calls.clear()
                    assert_agree(check(*tables), want, (case, block))
                    if want.holds:
                        continue
                    beyond_first_block += len(calls) > 1
                    axes, hit = calls[-1]
                    keys = axes[0][hit] * len(tables[0].points()) + axes[1][hit]
                    reordered += int(keys.argmin()) != 0
    # the corruptions break every case; both orderings the sweep must undo occur
    assert failing == 90
    assert beyond_first_block >= 10
    assert reordered >= 5


def test_counts_come_from_the_per_coordinate_factors():
    group = GroupSpec(2, (4, 3))
    info = _vec.domain_info(group, Box((10, 10)))
    kb = ((1, 1), (1, -1), (0, -1))
    assert _vec.pair_count(info, kb) == 221 ** 2 * 144 == 7_033_104
    # polynomial combinations x + j*h: |a + j*b| <= r for j <= 2, per axis
    small = _vec.domain_info(GroupSpec(1, (2,)), Box((3,)))
    combos = ((1, 0), (1, 1), (1, 2))
    pts = [p.coords[0] for p in Box((3,)).points(GroupSpec(1))]
    per_axis = sum(all(abs(a + j * b) <= 3 for j in range(3)) for a in pts for b in pts)
    assert _vec.pair_count(small, combos) == per_axis * 4


def test_certified_checks_count_the_pairs_once_per_domain(monkeypatch):
    group = GroupSpec(1, (4,))
    f, g = synth_table(random_positive_form(group, Random(3)), Box((4,)))
    # the routine's outcome: certified by the split, no sweep builds blocks
    out = checks._certified((f, g), lambda: _split._split_positive(f, g, TOL),
                            lambda: checks._kb_sweep(f, g, TOL))
    assert out.report is None and out.error is None
    calls = []
    factors = _vec._factors

    def spy(info, combos):
        calls.append(combos)
        return factors(info, combos)

    monkeypatch.setattr(_vec, "_pair_cache", {})
    monkeypatch.setattr(_vec, "_factors", spy)
    reports = [checks.check_kb(f, g) for _ in range(3)]
    assert all(r.holds and r.pairs_checked == reports[0].pairs_checked
               for r in reports)
    assert reports[0].pairs_checked == ref.check_kb(f, g, TOL).pairs_checked
    assert len(calls) == 1


def test_blocks_cover_the_pairs_once_in_ascending_x_ranges():
    # the kb pairs, and the triples (x, h, k) of the triple difference, whose
    # blocks of at most 40 tuples split inside every coordinate
    for group, domain, combos in (
            (GroupSpec(2, (3,)), Box((3, 2)), ((1, 1), (1, -1), (0, -1))),
            (GroupSpec(2, (2,)), Box((2, 1)), checks._TRIPLE_COMBOS)):
        info, m = _vec.domain_info(group, domain), len(combos[0])
        pts = [p.coords for p in domain.points(group)]
        want = {}
        for ids in product(range(len(pts)), repeat=m):
            sums = [[sum(c * pts[i][d] for c, i in zip(cs, ids)) for d in range(group.dim)]
                    for cs in combos]
            if all(abs(v) <= r for row in sums for v, r in zip(row, domain.radius)):
                want[ids] = [_vec.index_of_coords(info, group.reduce(row)) for row in sums]
        seen, last = {}, -1
        for block in _vec.pair_blocks(info, combos, 40):
            assert len(block[0]) <= max(40, info.n ** (m - 1))
            assert block[0].min() > last  # each block starts past the previous one's x
            last = int(block[0].max())
            for ids, *ks in zip(zip(*(a.tolist() for a in block[:m])),
                                *(k.tolist() for k in block[m:])):
                assert ids not in seen
                seen[ids] = ks
        assert seen == want


def test_pair_budget_refuses_before_allocating(tmp_path, capsys):
    # 200 020 001 in-range pairs on 20 001 points: far over the guard.  A
    # solution is certified without a sweep; a cubic log needs the sweep.
    group, domain = GroupSpec(1), Box((10_000,))
    zero = FuncTable.from_function(group, domain, "positive", lambda p: Fraction(0))
    rep = checks.check_kb(zero, zero)
    assert rep.holds and rep.pairs_checked == 200_020_001
    f = FuncTable.from_function(group, domain, "positive",
                                lambda p: Fraction(p.coords[0] ** 3))
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        with pytest.raises(BudgetExceededError):
            checks.check_kb(f, f)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 4 << 20
    path = tmp_path / "f.json"
    path.write_text(json.dumps(f.to_json()), encoding="utf-8")
    assert main(["check", "-f", str(path), "-g", str(path)]) == 2
    assert "guard" in json.loads(capsys.readouterr().out)["error"]


def test_radius_14_window_check_answers_in_bounded_memory(tmp_path):
    # 10 092 points and 25 522 704 in-range pairs, within the pair guard
    group = GroupSpec(2, (4, 3))
    f, g = synth_table(random_positive_form(group, Random(1)), Box((14, 14)))
    paths = []
    for name, table in (("f", f), ("g", g)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(table.to_json()), encoding="utf-8")
    child = ("import resource, sys\n"
             "from kbeq.cli import main\n"
             "code = main(sys.argv[1:])\n"
             "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
             "print(peak, file=sys.stderr)\n"
             "sys.exit(code)\n")
    res = subprocess.run(
        [sys.executable, "-c", child, "check", "-f", str(paths[0]), "-g", str(paths[1])],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)["report"]
    assert report["holds"] and report["pairs_checked"] == 25_522_704
    peak_kb = int(res.stderr.strip().splitlines()[-1])  # ru_maxrss is in KiB
    assert peak_kb < 300 * 1024


def test_no_pair_block_outlives_its_sweep(monkeypatch):
    group = GroupSpec(1, (2,))
    combos = ((1, 1), (1, -1), (0, -1))
    monkeypatch.setattr(_vec, "_pair_cache", {})
    # sign tables are always swept; both windows fit the per-domain budget
    for domain in (Box((3,)), Box((12,))):
        t = FuncTable.from_function(group, domain, "sign", lambda p: 1)
        assert checks.check_kb(t, t).holds
        assert (group, domain, combos) not in _vec._pair_cache
        assert (group, domain, "count", combos) in _vec._pair_cache
    assert not any(isinstance(v, list) for v in _vec._pair_cache.values())


def test_failing_sweep_stops_at_its_first_failing_block(monkeypatch):
    # 2028 points and 1 040 400 in-range pairs in 21 blocks, whose index
    # arrays would fit _CACHE_BYTES: the sweep still streams, and stops early
    group, domain = GroupSpec(2, (4, 3)), Box((6, 6))
    f, g = synth_table(random_positive_form(group, Random(1)), domain)
    x = group.element((1, 2, 3, 0))
    altered = FuncTable(group, domain, "positive",
                        {p: v + (p == x) for p, v in f.values.items()})
    info = _vec.domain_info(group, domain)
    total = len(list(_vec.pair_blocks(info, checks._KB_COMBOS, _vec._BLOCK_PAIRS)))
    consumed = [0]
    blocks = _vec.pair_blocks

    def counting(*args, **kwargs):
        for block in blocks(*args, **kwargs):
            consumed[0] += 1
            yield block

    monkeypatch.setattr(_vec, "pair_blocks", counting)
    report = checks.check_kb(altered, g)
    assert not report.holds and report.pairs_checked == 1_040_400
    assert [p.coords for p in report.witness.points] == [(-5, -4, 0, 0), (1, 2, 3, 0)]
    assert 0 < consumed[0] < total


def test_coset_codes_are_cached_and_read_only(monkeypatch):
    monkeypatch.setattr(_vec, "_pair_cache", {})
    group, domain = GroupSpec(2, (4, 3)), Box((3, 3))
    info = _vec.domain_info(group, domain)
    for modulus in (2, 4):
        codes = _vec.coset_codes(info, modulus)
        assert (group, domain, "coset", modulus) in _vec._pair_cache
        assert _vec.coset_codes(info, modulus) is codes
        with pytest.raises(ValueError):
            codes[0] = 1
        # each code is its coset's place among the coset indices
        indices = group.coset_indices(modulus)
        assert codes.tolist() == [indices.index(group.coset_index(p, modulus))
                                  for p in domain.points(group)]
