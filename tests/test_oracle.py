import tracemalloc
from fractions import Fraction
from functools import lru_cache
from itertools import product
from random import Random
from types import SimpleNamespace

import numpy as np
import pytest

import reference_checks as ref

from kbeq.checks import DEFAULT_TOL, check_coset_constant, check_kb, check_kb_self
from kbeq.errors import BudgetExceededError
from kbeq.functions import FuncTable
from kbeq.groups import Box, FullGroup, GroupSpec, parse_group
from kbeq import _vec, checks, oracle
from kbeq.oracle import (
    _CHECK_ROWS,
    _LINE_ROWS,
    _GridSolver,
    _add_row,
    _annotations,
    builtin_counterexample,
    builtin_odd_quadratic,
    enum_restricted_kb,
    enum_sign_solutions,
    predicted_restricted_count,
    restricted_rows_match_prediction,
    scan_restricted_kb,
    verify_theorem_suite,
)
from reference_grid_solver import ReferenceGridSolver, reference_rows

Z44 = GroupSpec(0, (4, 4))

# regression constant: census size on (Z/4)^2, derived by the census itself
# on its first run and kept as a pin against behavioral drift
CENSUS_44_COUNT = 64


# ---------------------------------------------------------------------------
# built-in tables


def test_counterexample_values():
    f, g = builtin_counterexample()
    assert f.values[Z44.element((1, 1))] == 1
    assert g.values[Z44.element((1, 1))] == -1
    assert f.values[Z44.element((2, 2))] == 1
    assert g.values[Z44.element((2, 2))] == 1
    assert f.values[Z44.element((1, 3))] == -1
    assert g.values[Z44.element((1, 3))] == 1
    # the product f*g is -1 exactly on the (1,1) doubled coset
    for x in f.points():
        prod = f.values[x] * g.values[x]
        on_diag = Z44.coset_index(x, 2).residues == (1, 1)
        assert prod == (-1 if on_diag else 1)


def test_counterexample_satisfies_equation_exactly():
    f, g = builtin_counterexample()
    rep = check_kb(f, g)
    assert rep.holds and rep.pairs_checked == 256
    # direct independent re-verification with plain integer arithmetic
    vf = {p.coords: v for p, v in f.values.items()}
    vg = {p.coords: v for p, v in g.values.items()}
    for a in product(range(4), range(4)):
        for b in product(range(4), range(4)):
            s = ((a[0] + b[0]) % 4, (a[1] + b[1]) % 4)
            d = ((a[0] - b[0]) % 4, (a[1] - b[1]) % 4)
            nb = ((-b[0]) % 4, (-b[1]) % 4)
            assert vf[s] * vg[d] == vf[a] * vf[b] * vg[a] * vg[nb]


def test_counterexample_mutation_detected():
    f, g = builtin_counterexample()
    vals = dict(f.values)
    x = Z44.element((0, 1))
    vals[x] = -vals[x]
    bad = FuncTable(Z44, FullGroup(), "sign", vals)
    rep = check_kb(bad, g)
    assert not rep.holds and rep.witness is not None


def test_odd_quadratic_values():
    t = builtin_odd_quadratic(4)
    g = t.group
    assert t.values[g.element((1, 1))] == -1
    assert t.values[g.element((2, 3))] == 1
    for k in range(-4, 5):
        assert t.values[g.element((0, k))] == 1
    assert check_kb_self(t).holds


# ---------------------------------------------------------------------------
# sign census


def abelian_groups(max_order):
    """Every Abelian group of order <= max_order, one presentation per
    isomorphism type: a product of cyclic prime-power factors, one
    partition of each prime's exponent."""
    def partitions(k, top):
        if k == 0:
            yield ()
        for i in range(min(k, top), 0, -1):
            for rest in partitions(k - i, i):
                yield (i,) + rest

    groups = []
    for order in range(1, max_order + 1):
        choices, m, p = [()], order, 2
        while m > 1:
            k = 0
            while m % p == 0:
                m, k = m // p, k + 1
            choices = [c + tuple(p**e for e in part)
                       for c in choices for part in partitions(k, k)]
            p += 1
        groups += [GroupSpec(0, c) for c in choices]
    return groups


ABELIAN_LE_32 = abelian_groups(32)


def unpruned_sign_census(group):
    """Independent brute force over every +-1 assignment pair, in the
    census's emission order: lexicographic, +1 before -1."""
    elements = group.elements()
    doubled = {group.scale(2, x) for x in elements}
    at = {x: i for i, x in enumerate(elements)}
    quads = [(at[x + y], at[x - y], at[x], at[y])
             for x in elements for y in elements]
    # only even maps that are 1 on the doubled image enter the pair loop
    candidates = [
        bits for bits in product((1, -1), repeat=len(elements))
        if all(bits[at[x]] == 1 for x in doubled)
        and all(bits[at[-x]] == bits[at[x]] for x in elements)
    ]
    return [(a, b) for a in candidates for b in candidates
            if all(a[s] * b[d] == a[x] * a[y] * b[x] * b[y]
                   for s, d, x, y in quads)]


@pytest.mark.parametrize("group", [g for g in ABELIAN_LE_32 if g.order() <= 8],
                         ids=str)
def test_census_matches_unpruned_bruteforce(group):
    census = enum_sign_solutions(group)
    elements = group.elements()
    got = [(tuple(a.values[x] for x in elements),
            tuple(b.values[x] for x in elements))
           for a, b in census.pairs]
    assert got == unpruned_sign_census(group)


@pytest.mark.parametrize("group", [g for g in ABELIAN_LE_32 if g.order() <= 16],
                         ids=str)
def test_census_matches_the_candidate_loop(group):
    # the side-vector match against the loop over every candidate pair,
    # wherever that loop answers ((Z/2)^4 is refused by both)
    try:
        want = ref.sign_census_pairs(group)
    except BudgetExceededError:
        with pytest.raises(BudgetExceededError):
            enum_sign_solutions(group)
        assert group == GroupSpec(0, (2, 2, 2, 2))
        return
    got = [(list(a.values.values()), list(b.values.values()))
           for a, b in enum_sign_solutions(group).pairs]
    assert got == want


@pytest.mark.parametrize(
    "group", [g for g in ABELIAN_LE_32 if g.order() <= 16] + [GroupSpec(0, (4, 8))],
    ids=str)
def test_census_annotations_match_the_per_pair_reference(group, monkeypatch):
    # read from the parity matrix, the annotations equal the per-pair
    # coset checks they replace, and the census runs no coset check
    def refuse(*args, **kwargs):
        raise AssertionError("the census must not run a coset check")

    monkeypatch.setattr(oracle, "check_coset_constant", refuse)
    monkeypatch.setattr(checks, "check_coset_constant", refuse)
    try:
        census = enum_sign_solutions(group)
    except BudgetExceededError:
        assert group == GroupSpec(0, (2, 2, 2, 2))
        return
    monkeypatch.undo()
    assert census.annotations == [ref.annotate_pair(group, a, b)
                                  for a, b in census.pairs]


def test_census_z4_z8_claims_b_and_c():
    # beyond the old candidate budget (4^12 pairs): every pair is constant
    # mod 4 and each doubled coset relates the two maps by +-1, yet half of
    # the pairs are not constant mod 2
    census = enum_sign_solutions(GroupSpec(0, (4, 8)))
    assert census.count == 64
    anns = census.annotations
    assert all(a["a_constant_mod4"] and a["b_constant_mod4"] for a in anns)
    assert all(v in (1, -1) for a in anns for v in a["coset_relation"].values())
    assert sum(not a["a_constant_mod2"] for a in anns) == 32
    assert sum(not a["b_constant_mod2"] for a in anns) == 32


@pytest.mark.parametrize("torsion,budget", [
    ((2, 2, 2, 2), 256), ((2, 4, 4), 256), ((2049,), 4096),
], ids=["Z2^4", "Z2xZ4xZ4", "Z2049"])
def test_census_refuses_beyond_its_side_budget(torsion, budget, monkeypatch):
    # 2^k n^2 side entries over 2^22: refused before any pair is built
    def refuse(*args, **kwargs):
        raise AssertionError("a refused census must not build pairs")

    monkeypatch.setattr(_vec, "pair_blocks", refuse)
    with pytest.raises(BudgetExceededError, match="census budget"):
        enum_sign_solutions(GroupSpec(0, torsion), order_budget=budget)


def test_census_odd_group_is_trivial():
    census = enum_sign_solutions(GroupSpec(0, (3,)))
    assert census.count == 1
    a, b = census.pairs[0]
    assert all(v == 1 for v in a.values.values())
    assert all(v == 1 for v in b.values.values())


def test_census_z44():
    census = enum_sign_solutions(Z44)
    assert census.count == CENSUS_44_COUNT
    f, g = builtin_counterexample()
    assert (f, g) in census.pairs
    assert all(ann["a_constant_mod4"] and ann["b_constant_mod4"]
               for ann in census.annotations)
    assert any(not ann["a_constant_mod2"] for ann in census.annotations)
    # per doubled coset the two maps either agree or are opposite
    assert all(all(v in (1, -1) for v in ann["coset_relation"].values())
               for ann in census.annotations)


def test_census_every_member_solves_sign_equation():
    census = enum_sign_solutions(Z44)
    from kbeq.checks import check_sign_eq26
    for a, b in census.pairs:
        assert check_sign_eq26(a, b).holds


@pytest.mark.parametrize("group,domain", [
    (Z44, FullGroup()), (GroupSpec(0, (2, 6)), FullGroup()),
    (GroupSpec(1, (4,)), Box((2,))), (GroupSpec(2), Box((1, 1))),
], ids=["Z44", "Z2xZ6", "ZxZ4-box", "Z2-box"])
def test_annotations_match_reference_on_arbitrary_sign_pairs(group, domain):
    # arbitrary sign pairs, not just census members, so that every relation
    # value (1, -1 and 0) occurs
    rng = Random(str(group))
    relations = set()
    for _ in range(12):
        a, b = (FuncTable.from_function(group, domain, "sign",
                                        lambda p: rng.choice((1, 1, -1)))
                for _ in "ab")
        par = np.stack([a.encoding[1], b.encoding[1]])
        ann = _annotations(_vec.domain_info(group, domain), par, [(0, 1)])[0]
        assert ann["coset_relation"] == ref.coset_relation(a, b)
        for m in (2, 4):
            for name, t in (("a", a), ("b", b)):
                assert ann[f"{name}_constant_mod{m}"] == ref.check_coset_constant(
                    t, m, DEFAULT_TOL).holds
        relations |= set(ann["coset_relation"].values())
    assert relations == {0, 1, -1}


def test_census_budget():
    with pytest.raises(BudgetExceededError):
        enum_sign_solutions(GroupSpec(0, (17, 17)), order_budget=256)


# ---------------------------------------------------------------------------
# restricted-grid census


def unpruned_restricted_kb(group, logs):
    """Independent brute force over every grid assignment pair."""
    elements = group.elements()
    n = len(elements)
    out = []
    for tvals in product(logs, repeat=n):
        T = dict(zip(elements, tvals))
        for svals in product(logs, repeat=n):
            S = dict(zip(elements, svals))
            ok = all(
                T[x + y] + S[x - y] == T[x] + T[y] + S[x] + S[-y]
                for x in elements for y in elements
            )
            if ok:
                out.append((tvals, svals))
    return sorted(out)


def test_restricted_kb_z2_vs_unpruned_81():
    group = GroupSpec(0, (2,))
    sols = enum_restricted_kb(group, (-1, 0, 1))
    elements = group.elements()
    got = sorted(
        (tuple(f.values[x] for x in elements),
         tuple(g.values[x] for x in elements))
        for f, g in sols
    )
    brute = unpruned_restricted_kb(group, [Fraction(-1), Fraction(0),
                                           Fraction(1)])
    assert len(brute) == 9
    assert got == brute


def test_restricted_kb_z3_constants_only():
    group = GroupSpec(0, (3,))
    sols = enum_restricted_kb(group, (-1, 0, 1))
    assert len(sols) == 3
    for f, g in sols:
        consts = {v for v in f.values.values()}
        assert len(consts) == 1
        c = consts.pop()
        assert all(v == -c for v in g.values.values())


def test_restricted_kb_single_value_grid():
    group = GroupSpec(0, (4,))
    sols = enum_restricted_kb(group, (0,))
    assert len(sols) == 1
    f, g = sols[0]
    assert all(v == 0 for v in f.values.values())
    assert all(v == 0 for v in g.values.values())


def test_restricted_kb_solutions_solve_equation_and_are_distinct():
    group = GroupSpec(0, (2, 2))
    sols = enum_restricted_kb(group)
    seen = set()
    for f, g in sols:
        assert check_kb(f, g).holds
        key = (tuple(sorted((p.coords, v) for p, v in f.values.items())),
               tuple(sorted((p.coords, v) for p, v in g.values.items())))
        assert key not in seen
        seen.add(key)
    assert len(sols) == predicted_restricted_count(group) == 81


def test_scan_matches_enum():
    group = GroupSpec(0, (4,))
    rows_seen = []

    def keep(rows, denom):
        rows_seen.append((rows.copy(), denom))

    count = scan_restricted_kb(group, on_chunk=keep)
    assert count == 9 == predicted_restricted_count(group)
    total = sum(r.shape[0] for r, _ in rows_seen)
    assert total == 9
    for rows, denom in rows_seen:
        assert restricted_rows_match_prediction(group, rows, denom)


@pytest.mark.parametrize("grid", [(-1, 0, 1), (-200, 0, 200)])
def test_structural_check_rejects_each_violation(grid):
    group = GroupSpec(0, (4, 2))  # doubled cosets {0, 2} x {0}, ...
    _, rows, denoms = _streamed(
        lambda keep: scan_restricted_kb(group, grid, keep))
    assert restricted_rows_match_prediction(group, rows, denoms.pop())
    elements = [e.coords for e in group.elements()]
    member = elements.index((2, 1))  # same doubled coset as (0, 1)
    bad_s = rows.copy()
    bad_s[-1, 2 * member + 1] += 1
    assert not restricted_rows_match_prediction(group, bad_s, 1)
    bad_t = rows.copy()
    bad_t[-1, 2 * member] += 1
    bad_t[-1, 2 * member + 1] -= 1  # keeps S = -T
    assert not restricted_rows_match_prediction(group, bad_t, 1)
    # the same rows tiled to three whole slices and a partial one: a
    # violation in a middle slice or in the last row of the partial slice
    length = 3 * _CHECK_ROWS + _CHECK_ROWS // 3
    tiled = np.tile(rows, (-(-length // len(rows)), 1))[:length]
    assert restricted_rows_match_prediction(group, tiled, 1)
    bad_s = tiled.copy()
    bad_s[_CHECK_ROWS + 17, 2 * member + 1] += 1
    bad_t = tiled.copy()
    bad_t[-1, 2 * member] += 1
    bad_t[-1, 2 * member + 1] -= 1
    for bad in (bad_s, bad_t):
        assert restricted_rows_match_prediction(group, bad[:_CHECK_ROWS], 1)
        assert not restricted_rows_match_prediction(group, bad, 1)


def test_structural_check_on_int8_rows_matches_the_wrapped_sum():
    # int8 sums wrap modulo 256, so T = S = -128 passes as it always did
    group = GroupSpec(0, (2,))
    rng = np.random.default_rng(5)
    T = rng.integers(-128, 128, size=(4000, 1))
    T = np.hstack([T, T])  # the two elements of Z/2 are separate cosets
    S = -T
    S[rng.random(S.shape) < 0.001] += 1
    S[:5] = T[:5] = -128
    rows = np.empty((len(T), 4), dtype=np.int8)
    rows[:, 0::2], rows[:, 1::2] = T, S
    verdicts = set()
    for block in np.array_split(rows, 40):
        s = block[:, 1::2].astype(np.int64) + block[:, 0::2]
        want = not np.any(s % 256)
        assert restricted_rows_match_prediction(group, block, 1) == want
        verdicts.add(want)
    assert verdicts == {True, False}


@pytest.mark.parametrize("length", [3 ** 11, 3 ** 12])
def test_structural_check_memory_is_bounded(length):
    # Z/4 x Z/2 x Z/2: element e shares its doubled coset with e +- 8
    group = GroupSpec(0, (4, 2, 2))
    T = np.random.default_rng(3).integers(-1, 2, size=(length, 8), dtype=np.int8)
    T = np.hstack([T, T])
    rows = np.empty((length, 32), dtype=np.int8)
    rows[:, 0::2], rows[:, 1::2] = T, -T
    tracemalloc.start()
    try:
        ok = restricted_rows_match_prediction(group, rows, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ok
    assert peak < 1 << 20, peak


@pytest.mark.parametrize("grid", [(-1, 0, 1), (-200, 0, 200)])
@pytest.mark.parametrize("group", ABELIAN_LE_32, ids=str)
def test_template_block_fits_the_byte_budget(group, grid):
    solver = _GridSolver(group, [Fraction(v) for v in grid], 10**9)
    itemsize = np.dtype(solver.dtype).itemsize
    assert itemsize == (1 if grid[-1] <= 127 else 8)
    if solver.block_rows > 1:
        assert solver.block_rows * solver.nvars * itemsize <= solver.block_bytes
    # the largest such template: one more free variable would not fit
    if solver.prefix:
        assert (solver.block_rows * len(grid) * solver.nvars * itemsize
                > solver.block_bytes)


def test_warm_scan_memory_is_bounded():
    # (Z/2)^4: 3^16 rows in blocks of 3^10, each streamed through the
    # structural check; the peak holds about one template and one chunk
    group = GroupSpec(0, (2, 2, 2, 2))
    ok = []

    def check(rows, denom):
        ok.append(restricted_rows_match_prediction(group, rows, denom))

    scan_restricted_kb(group, (-1, 0, 1), check)  # warms the cached index maps
    ok.clear()
    tracemalloc.start()
    try:
        count = scan_restricted_kb(group, (-1, 0, 1), check)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 3 ** 16 == predicted_restricted_count(group)
    assert all(ok) and len(ok) == 3 ** 16 // 3 ** 10  # 729 chunks
    assert peak <= 3 * _GridSolver.block_bytes, peak


def test_scan_budget_enforced():
    group = GroupSpec(0, (2, 2, 2))
    with pytest.raises(BudgetExceededError):
        scan_restricted_kb(group, budget=100)


def test_enum_max_pairs_guard():
    group = GroupSpec(0, (2, 2, 2))
    with pytest.raises(BudgetExceededError):
        enum_restricted_kb(group, max_pairs=10)


def test_asymmetric_grid():
    # grid without negation closure: only log values whose negation is
    # present can appear in a solution
    group = GroupSpec(0, (2,))
    sols = enum_restricted_kb(group, (0, 1))
    assert predicted_restricted_count(group, (0, 1)) == 1
    assert len(sols) == 1


# ---------------------------------------------------------------------------
# free-variable search against the reference search


# every Abelian group of order <= 12, one presentation per isomorphism type
ORDER_LE_12 = [
    "", "Z/2", "Z/3", "Z/4", "Z/2 x Z/2", "Z/5", "Z/6", "Z/7", "Z/8",
    "Z/4 x Z/2", "Z/2 x Z/2 x Z/2", "Z/9", "Z/3 x Z/3", "Z/10", "Z/11",
    "Z/12", "Z/6 x Z/2",
]
REFERENCE_GRIDS = {
    "sym": (-1, 0, 1),
    "asym": (0, 1),
    "zero": (0,),
    "halves": (Fraction(-1, 2), 0, Fraction(1, 2)),
    "int64": (-200, 0, 200),  # values beyond int8: int64 rows
}


def _group(literal):
    return GroupSpec(0, ()) if literal == "" else parse_group(literal)


def _streamed(run):
    """(count, concatenated rows, set of denominators) of one scan."""
    chunks, denoms = [], set()

    def keep(rows, denom):
        chunks.append(rows.copy())
        denoms.add(denom)

    count = run(keep)
    rows = np.concatenate(chunks) if chunks else None
    return count, rows, denoms


@pytest.mark.parametrize("grid", REFERENCE_GRIDS.values(),
                         ids=REFERENCE_GRIDS.keys())
@pytest.mark.parametrize("literal", ORDER_LE_12)
def test_scan_matches_reference_search(literal, grid):
    group = _group(literal)
    count, rows, denoms = _streamed(
        lambda keep: scan_restricted_kb(group, grid, keep))
    ref_count, ref_rows, ref_denom = reference_rows(group, grid)
    assert count == ref_count == len(ref_rows) > 0
    assert denoms == {ref_denom}
    assert rows.dtype == ref_rows.dtype and rows.shape == ref_rows.shape
    assert rows.tobytes() == ref_rows.tobytes()


def test_scan_budget_matches_reference():
    group = GroupSpec(0, (2, 2, 2))
    with pytest.raises(BudgetExceededError):
        reference_rows(group, (-1, 0, 1), budget=100)
    chunks = []
    with pytest.raises(BudgetExceededError):
        scan_restricted_kb(group, budget=100,
                           on_chunk=lambda rows, d: chunks.append(rows.copy()))
    # rows streamed before the budget ran out lead the full stream
    _, full, _ = reference_rows(group, (-1, 0, 1))
    streamed = np.concatenate(chunks)
    assert 0 < len(streamed) <= 100
    assert streamed.tobytes() == full[:len(streamed)].tobytes()


@pytest.mark.parametrize("block_rows", [3 ** 7, 3 ** 8])
@pytest.mark.parametrize("grid, in_place", [
    ((-1, 0, 1), False),   # every block is the whole template
    ((-200, 0, 200), True),  # blocks keep the rows that pass a test
])
def test_multi_block_stream_matches_reference(monkeypatch, block_rows, grid,
                                              in_place):
    group = GroupSpec(0, (2, 2, 2))
    # the byte cap of exactly block_rows rows of 16 int8 or int64 entries
    itemsize = 1 if max(map(abs, grid)) <= 127 else 8
    monkeypatch.setattr(_GridSolver, "block_bytes", block_rows * 16 * itemsize)
    paths = set()

    def spy(block, row, out):
        paths.add(out is block)
        return _add_row(block, row, out)

    monkeypatch.setattr(oracle, "_add_row", spy)
    chunks = []  # kept without copying: a reused buffer would show
    count = scan_restricted_kb(group, grid, lambda rows, d: chunks.append(rows))
    ref_count, ref_rows, _ = reference_rows(group, grid)
    assert paths == {in_place}
    assert len(chunks) == 3 ** 8 // block_rows
    assert all(c.flags.c_contiguous for c in chunks)
    assert count == ref_count == len(ref_rows)
    assert np.concatenate(chunks).tobytes() == ref_rows.tobytes()


@pytest.mark.parametrize("dtype", [np.int8, np.int64])
@pytest.mark.parametrize("length", [0, 5, 3 * _LINE_ROWS, 2 * _LINE_ROWS + 7])
def test_add_row_matches_the_broadcast_sum(dtype, length):
    info = np.iinfo(dtype)
    rng = np.random.default_rng(length)
    block = rng.integers(info.min, info.max, size=(length, 6), dtype=dtype,
                         endpoint=True)
    row = rng.integers(info.min, info.max, size=6, dtype=dtype, endpoint=True)
    want = block + row  # wraps in the dtype, as the stream always did
    assert _add_row(block, row, np.empty_like(block)).tobytes() == want.tobytes()
    assert _add_row(block, row, block) is block
    assert block.tobytes() == want.tobytes()


def test_add_row_wraps_int8_in_whole_lines_and_in_the_tail():
    block = np.full((_LINE_ROWS + 1, 4), 127, dtype=np.int8)
    got = _add_row(block, np.array([1, 2, -1, 0], dtype=np.int8),
                   np.empty_like(block))
    assert (got == np.array([-128, -127, 126, 127], dtype=np.int8)).all()


@pytest.mark.parametrize("group", ABELIAN_LE_32, ids=str)
def test_raw_instances_match_reference(group):
    elements = group.elements()
    got = _GridSolver(group, [Fraction(0)], 10**9)._raw_instances()
    index = {e: i for i, e in enumerate(elements)}
    want = ReferenceGridSolver._raw_instances(
        SimpleNamespace(elements=elements), index)
    dense = np.zeros((len(want), 2 * len(elements)), dtype=np.int64)
    for r, terms in enumerate(want):
        for v, c in terms:
            dense[r, v] = c
    assert len(got) == len(want)
    assert set(map(tuple, got.tolist())) == set(map(tuple, dense.tolist()))


class _SystemSolver(_GridSolver):
    """The grid search on a given linear system in place of the equation's."""

    def __init__(self, instances, elements, grid, block_rows):
        self.instances = instances
        self.rows_cap = block_rows
        super().__init__(GroupSpec(0, (elements,)), grid, 10**9)

    def _plan(self, pivots):
        # the byte cap of exactly rows_cap rows in this system's dtype
        self.block_bytes = self.rows_cap * self.nvars * np.dtype(self.dtype).itemsize
        super()._plan(pivots)

    def _raw_instances(self):
        m = np.zeros((len(self.instances), self.nvars), dtype=np.int64)
        for r, terms in enumerate(self.instances):
            for v, c in terms:
                m[r, v] = c
        return m


def _solver_scan(solver):
    return lambda keep: solver.run(lambda rows: keep(rows, solver.denom))


# after back-substitution: v2 = (v0 + v1) / 2, v3 = v0 - v1 (which can
# leave the grid), v5 = (v0 + v1 + 4 v4) / 6 and v7 = v0 + v1 - v4, whose
# prefix part v0 + v1 can leave the int8 range while v7 stays on the grid
SYSTEM = [
    [(0, 1), (1, 1), (2, -2)],
    [(0, 1), (1, -1), (3, -1)],
    [(2, 1), (4, 2), (5, -3)],
    [(0, 1), (1, 1), (4, -1), (7, -1)],
]


@lru_cache(maxsize=None)
def _system_solutions(grid):
    return [v for v in product(grid, repeat=8)
            if all(sum(c * v[i] for i, c in terms) == 0 for terms in SYSTEM)]


@pytest.mark.parametrize("python_ints", [False, True])
@pytest.mark.parametrize("grid", [(-1, 0, 1, 2), (0, 1, 2), (-100, 0, 100)])
@pytest.mark.parametrize("block_rows", [1, 5, 9, 1 << 19])
def test_search_on_rational_echelon_matches_bruteforce(monkeypatch, grid,
                                                       block_rows, python_ints):
    if python_ints:  # eliminate in Python integers from the first step
        monkeypatch.setattr(_GridSolver, "int64_limit", 0)
    solver = _SystemSolver(SYSTEM, 4, grid, block_rows)
    assert sorted(solver.det_den) == [1, 1, 2, 6]
    count, rows, _ = _streamed(_solver_scan(solver))
    # lexicographic by grid position, variables in the search's order
    pos = {g: i for i, g in enumerate(grid)}
    brute = sorted(_system_solutions(grid),
                   key=lambda v: [pos[v[c]] for c in solver.col])
    assert count == len(brute) == len(rows) > 1
    assert [tuple(int(x) for x in row) for row in rows] == brute


@pytest.mark.parametrize("literal, grid", [
    ("Z/6 x Z/2", (-1, 0, 1)),
    ("Z/2 x Z/2 x Z/2", (0, 1)),
])
def test_echelon_python_int_fallback_matches_int64(monkeypatch, literal, grid):
    group = _group(literal)
    fast = _streamed(lambda keep: scan_restricted_kb(group, grid, keep))
    monkeypatch.setattr(_GridSolver, "int64_limit", 0)
    slow = _streamed(lambda keep: scan_restricted_kb(group, grid, keep))
    assert fast[0] == slow[0] > 0
    assert fast[1].tobytes() == slow[1].tobytes()


# ---------------------------------------------------------------------------
# suite


def test_suite_passes_and_is_deterministic():
    a = verify_theorem_suite(("Z/2", "Z/4", "Z/9"), trials=3, seed=5)
    b = verify_theorem_suite(("Z/2", "Z/4", "Z/9"), trials=3, seed=5)
    assert a.ok and b.ok
    assert a.to_json() == b.to_json()


def test_suite_reports_failure_on_corrupted_invariant():
    # sanity check of the failure path: a wrong group literal must raise
    with pytest.raises(Exception):
        verify_theorem_suite(("nonsense",), trials=1, seed=0)


def test_suite_verdicts_stable_across_seeds():
    a = verify_theorem_suite(("Z/2", "Z/9"), trials=2, seed=1)
    b = verify_theorem_suite(("Z/2", "Z/9"), trials=2, seed=2)
    assert a.ok and b.ok
    assert [n for n, _, _ in a.checks] == [n for n, _, _ in b.checks]
    assert [ok for _, ok, _ in a.checks] == [ok for _, ok, _ in b.checks]
