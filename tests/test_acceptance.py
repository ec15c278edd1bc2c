"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance and time limit is pinned here.
"""

import time
from fractions import Fraction
from itertools import product
from random import Random

import pytest

from reference_decompose import character_turn, coset_value, quotient_has_order2
from kbeq.checks import check_coset_constant, check_kb, check_kb_self
from kbeq.decompose import (
    decompose_hermitian,
    decompose_positive,
    decompose_self,
    decompose_vanishing,
    extend_character,
)
from kbeq.errors import GroupHypothesisError
from kbeq.functions import Exact, FuncTable, synth_table
from kbeq.groups import Box, FullGroup, GroupSpec, parse_group
from kbeq.oracle import (
    builtin_counterexample,
    builtin_odd_quadratic,
    enum_sign_solutions,
    predicted_restricted_count,
    random_positive_form,
    restricted_rows_match_prediction,
    scan_restricted_kb,
)

# every Abelian group of order <= 16, one presentation per isomorphism type
ALL_TYPES_LE_16 = [
    "",  # trivial group
    "Z/2", "Z/3", "Z/4", "Z/2 x Z/2", "Z/5", "Z/6", "Z/7",
    "Z/8", "Z/4 x Z/2", "Z/2 x Z/2 x Z/2", "Z/9", "Z/3 x Z/3",
    "Z/10", "Z/11", "Z/12", "Z/6 x Z/2", "Z/13", "Z/14", "Z/15",
    "Z/16", "Z/8 x Z/2", "Z/4 x Z/4", "Z/4 x Z/2 x Z/2",
    "Z/2 x Z/2 x Z/2 x Z/2",
]

# derived regression constant: size of the (Z/4)^2 sign census, recorded
# from the first census run
CENSUS_44_COUNT = 64


# 6.5 s measured for the order 17..32 census on a 2-vCPU Xeon VM
# (Python 3.11, numpy 2.4); the gate leaves over 2x headroom
LIMIT_17_TO_32 = 15.0


def _group(literal):
    return GroupSpec(0, ()) if literal == "" else parse_group(literal)


class _Timer:
    def __init__(self, name, limit):
        self.name = name
        self.limit = limit

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} {self.name}: {elapsed:.2f}s (limit {self.limit}s)")
        if exc_type is None:
            assert elapsed < self.limit, (
                f"{self.name} exceeded its time limit: {elapsed:.2f}s"
            )


def test_criterion_1_counterexample_reproduction():
    with _Timer("criterion 1 (counterexample reproduction)", 1.0):
        f, g = builtin_counterexample()
        rep = check_kb(f, g)  # exact sign arithmetic
        assert rep.holds
        assert rep.pairs_checked == 256
        assert check_coset_constant(f, 4).holds
        rep2 = check_coset_constant(f, 2)
        assert not rep2.holds and rep2.witness is not None
        # the named witness pair: same doubled coset, different values
        group = f.group
        x, y = group.element((1, 1)), group.element((1, 3))
        assert group.coset_index(x, 2) == group.coset_index(y, 2)
        assert f.values[x] == 1 and f.values[y] == -1


def test_criterion_2_counterexample_decomposition():
    with _Timer("criterion 2 (counterexample decomposition)", 1.0):
        f, g = builtin_counterexample()
        form = decompose_hermitian(f, g)  # runs every structural validation
        assert form.alpha.is_trivial() and form.beta.is_trivial()
        assert form.P.is_zero() and form.r.is_zero()
        for x in f.points():
            assert coset_value(form.a, x) == f.values[x]
            assert coset_value(form.b, x) == g.values[x]


def test_criterion_3_odd_quadratic_demo():
    with _Timer("criterion 3 (odd-quadratic demo)", 1.0):
        t = builtin_odd_quadratic(8)
        rep = check_kb_self(t)  # exact on the radius-8 box
        assert rep.holds
        alpha, amap, P = decompose_self(t)
        group = t.group
        i11 = group.coset_index(group.element((1, 1)), 2)
        i10 = group.coset_index(group.element((1, 0)), 2)
        i01 = group.coset_index(group.element((0, 1)), 2)
        assert amap.at(i11) == -1
        assert amap.at(i11) != amap.at(i10) * amap.at(i01)


def test_criterion_4_positive_roundtrip_100():
    group = parse_group("Z^2 x Z/4 x Z/3")
    box = Box((6, 6))
    rng = Random(20260808)
    with _Timer("criterion 4 (100 exact positive round-trips)", 10.0):
        for trial in range(100):
            form = random_positive_form(group, rng)
            f, g = synth_table(form, box)
            rep = check_kb(f, g)  # exact rational log arithmetic
            assert rep.holds, f"trial {trial}: synthesized pair fails"
            back = decompose_positive(f, g)
            assert back == form, f"trial {trial}: coefficients differ"


def test_criterion_5_finite_group_completeness():
    with _Timer("criterion 5 (order <= 16 completeness)", 60.0):
        grid = (-1, 0, 1)
        for literal in ALL_TYPES_LE_16:
            group = _group(literal)
            predicted = predicted_restricted_count(group, grid)
            state = {"structural": True}

            def on_chunk(rows, denom, group=group, state=state):
                if not restricted_rows_match_prediction(group, rows, denom):
                    state["structural"] = False

            count = scan_restricted_kb(group, grid, on_chunk)
            # enumerated solutions are distinct by construction, each lies in
            # the predicted set (structural test), and the counts agree, so
            # the two sets are equal
            assert state["structural"], literal
            assert count == predicted, (literal, count, predicted)


# every Abelian group of order 17..32 except (Z/2)^5, whose 3^32 solutions
# are out of reach; one presentation per isomorphism type
ALL_TYPES_17_TO_32 = [
    "Z/17", "Z/18", "Z/6 x Z/3", "Z/19", "Z/20", "Z/10 x Z/2", "Z/21",
    "Z/22", "Z/23", "Z/24", "Z/12 x Z/2", "Z/6 x Z/2 x Z/2", "Z/25",
    "Z/5 x Z/5", "Z/26", "Z/27", "Z/9 x Z/3", "Z/3 x Z/3 x Z/3", "Z/28",
    "Z/14 x Z/2", "Z/29", "Z/30", "Z/31", "Z/32", "Z/16 x Z/2", "Z/8 x Z/4",
    "Z/8 x Z/2 x Z/2", "Z/4 x Z/4 x Z/2", "Z/4 x Z/2 x Z/2 x Z/2",
]


def test_completeness_orders_17_to_32():
    with _Timer("order 17..32 completeness", LIMIT_17_TO_32):
        grid = (-1, 0, 1)
        for literal in ALL_TYPES_17_TO_32:
            group = parse_group(literal)
            state = {"structural": True}

            def on_chunk(rows, denom, group=group, state=state):
                if not restricted_rows_match_prediction(group, rows, denom):
                    state["structural"] = False

            count = scan_restricted_kb(group, grid, on_chunk)
            assert state["structural"], literal
            assert count == predicted_restricted_count(group, grid), literal


def test_criterion_6_sign_census():
    with _Timer("criterion 6 (sign census)", 30.0):
        census = enum_sign_solutions(GroupSpec(0, (4, 4)))
        f, g = builtin_counterexample()
        assert (f, g) in census.pairs                            # (a)
        assert all(ann["a_constant_mod4"] and ann["b_constant_mod4"]
                   for ann in census.annotations)                # (b)
        assert any(not ann["a_constant_mod2"]
                   for ann in census.annotations)                # (c)
        assert census.count == CENSUS_44_COUNT                   # regression
        # (d) unpruned brute force on (Z/2)^2
        small = GroupSpec(0, (2, 2))
        got = {
            (tuple(a.values[x] for x in small.elements()),
             tuple(b.values[x] for x in small.elements()))
            for a, b in enum_sign_solutions(small).pairs
        }
        brute = set()
        elements = small.elements()
        doubled = {small.scale(2, x) for x in elements}
        for abits in product((1, -1), repeat=4):
            fa = dict(zip(elements, abits))
            if any(fa[x] != 1 for x in doubled):
                continue
            for bbits in product((1, -1), repeat=4):
                fb = dict(zip(elements, bbits))
                if any(fb[x] != 1 for x in doubled):
                    continue
                if any(fa[-x] != fa[x] or fb[-x] != fb[x] for x in elements):
                    continue
                if all(fa[x + y] * fb[x - y]
                       == fa[x] * fa[y] * fb[x] * fb[y]
                       for x in elements for y in elements):
                    brute.add((abits, bbits))
        assert got == brute


def test_criterion_7_vanishing_support():
    with _Timer("criterion 7 (vanishing support)", 1.0):
        z9 = parse_group("Z/9")
        sup = {0, 3, 6}
        f = FuncTable.from_function(
            z9, FullGroup(), "complex",
            lambda p: Exact.unit(Fraction(p.coords[0], 9))
            if p.coords[0] in sup else Exact.zero_value())
        rep = check_kb(f, f)  # 81 pairs, exact
        assert rep.holds and rep.pairs_checked == 81
        form = decompose_vanishing(f, f)
        assert [e.coords for e in form.support.generators] == [(3,)]
        assert not quotient_has_order2(form.support)
        # the hypothesis X^(2) = X fails on Z/4: the call must reject
        z4 = parse_group("Z/4")
        ones = FuncTable.from_function(z4, FullGroup(), "complex",
                                       lambda p: Exact.one())
        with pytest.raises(GroupHypothesisError):
            decompose_vanishing(ones, ones)


def test_criterion_8_character_extension():
    with _Timer("criterion 8 (character extension)", 10.0):
        for literal in ALL_TYPES_LE_16:
            group = _group(literal)
            ranges = []
            for n in group.torsion:
                m = n // 2 if n % 2 == 0 else n  # order of the doubled generator
                ranges.append([Fraction(k, m) for k in range(m)])
            for turns in product(*ranges):
                alpha = extend_character(group, turns)
                # unimodular multiplicative by construction; restriction must
                # reproduce the character of X^(2) exactly
                for x in group.elements():
                    expected = sum(
                        (t * c for t, c in zip(turns, x.coords)), Fraction(0)
                    ) % 1
                    assert character_turn(alpha, group.scale(2, x)) == expected
