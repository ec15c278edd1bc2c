import pytest
from hypothesis import given, settings, strategies as st

from kbeq.errors import DomainSizeError, GroupMismatchError, GroupParseError
from kbeq.groups import (
    Box,
    FullGroup,
    GroupSpec,
    parse_element,
    parse_group,
)

Z44 = GroupSpec(0, (4, 4))
Z9 = GroupSpec(0, (9,))
Z2 = GroupSpec(2)


def doubling_image(group):
    """Brute-force image of x -> 2x on a finite group (independent oracle)."""
    return {group.scale(2, x) for x in group.elements()}


# ---------------------------------------------------------------------------
# parsing


@pytest.mark.parametrize("literal,rank,torsion", [
    ("Z/4 x Z/4", 0, (4, 4)),
    ("z^2 X z/4 x Z/3", 2, (4, 3)),
    ("Z", 1, ()),
    ("  Z ^ 3 ", 3, ()),
    ("Z x Z x Z/2", 2, (2,)),
    ("Z/9", 0, (9,)),
])
def test_parse_group(literal, rank, torsion):
    g = parse_group(literal)
    assert (g.rank, g.torsion) == (rank, torsion)


@pytest.mark.parametrize("literal", ["", "Q", "Z/1", "Z/0", "Z/4 x Z", "Z^-1"])
def test_parse_group_rejects(literal):
    with pytest.raises(GroupParseError):
        parse_group(literal)


def test_parse_roundtrip_via_str():
    for lit in ("Z/4 x Z/4", "Z^2 x Z/4 x Z/3", "Z", "Z/9"):
        g = parse_group(lit)
        assert parse_group(str(g)) == g


def test_parse_element():
    assert parse_element(Z44, "(1, 3)").coords == (1, 3)
    assert parse_element(Z44, "5,-1").coords == (1, 3)
    with pytest.raises(GroupParseError):
        parse_element(Z44, "(1, 2, 3)")
    with pytest.raises(GroupParseError):
        parse_element(Z44, "(a, b)")


# ---------------------------------------------------------------------------
# arithmetic


def test_add_examples():
    z4 = GroupSpec(0, (4,))
    assert z4.add(z4.element((3,)), z4.element((2,))).coords == (1,)
    z2 = GroupSpec(2)
    assert z2.add(z2.element((1, 2)), z2.element((-1, 3))).coords == (0, 5)
    assert Z44.add(Z44.element((1, 3)), Z44.element((3, 1))).coords == (0, 0)


def test_neg_scale_examples():
    assert Z44.neg(Z44.element((1, 0))).coords == (3, 0)
    assert Z44.scale(2, Z44.element((1, 1))).coords == (2, 2)
    for x in Z44.elements():
        assert Z44.scale(4, x).is_zero()


def test_mismatched_groups_rejected():
    with pytest.raises(GroupMismatchError):
        Z44.add(Z44.element((0, 0)), Z9.element((0,)))


def test_elements_are_canonical():
    a = Z44.element((5, -1))
    b = Z44.element((1, 3))
    assert a == b and a.coords == b.coords


# ---------------------------------------------------------------------------
# coset indices


def test_coset_index_z44():
    # derived: X^(2) computed by brute-force doubling, then membership
    img = {e.coords for e in doubling_image(Z44)}
    assert img == {(0, 0), (0, 2), (2, 0), (2, 2)}
    x = Z44.element((1, 2))
    idx = Z44.coset_index(x, 2)
    assert idx.residues == (1, 0)
    rep = Z44.element((1, 0))
    assert (x - rep).coords in img
    assert Z44.coset_index(rep, 2) == idx


def test_coset_index_zero_and_odd():
    assert all(r == 0 for r in Z9.coset_index(Z9.element((0,)), 2).residues)
    assert all(r == 0 for r in Z44.coset_index(Z44.zero(), 4).residues)
    # doubling is onto Z/9, so there is a single coset
    assert doubling_image(Z9) == set(Z9.elements())
    signed = {Z9.coset_index(x, 2) for x in Z9.elements()}
    assert len(signed) == 1 == Z9.coset_count(2)


def test_coset_count_matches_enumeration():
    for group in (Z44, Z9, GroupSpec(0, (2, 4)), GroupSpec(0, (6,))):
        for m in (2, 4):
            distinct = {group.coset_index(x, m) for x in group.elements()}
            assert len(distinct) == group.coset_count(m)
            assert sorted(distinct, key=lambda i: i.residues) == \
                group.coset_indices(m)


@settings(max_examples=60, deadline=None)
@given(st.integers(-20, 20), st.integers(-20, 20),
       st.integers(-20, 20), st.integers(-20, 20))
def test_coset_translation_invariance(a, b, c, d):
    group = GroupSpec(1, (4, 6))
    x = group.element((a, b, c))
    y = group.element((d, a, b))
    # translating by 2y does not change the doubled-coset index
    assert group.coset_index(x, 2) == group.coset_index(x + group.scale(2, y), 2)
    # x+y and x-y always share a doubled coset
    assert group.coset_index(x + y, 2) == group.coset_index(x - y, 2)
    # equal quadrupled indices refine doubled indices
    if group.coset_index(x, 4) == group.coset_index(y, 4):
        assert group.coset_index(x, 2) == group.coset_index(y, 2)


def test_coset_index_equivalence_exhaustive():
    # index equality must coincide with difference membership in X^(m)
    for group in (Z44, GroupSpec(0, (2, 3)), GroupSpec(0, (8,))):
        for m in (2, 4):
            image = {group.scale(m, x) for x in group.elements()}
            for x in group.elements():
                for y in group.elements():
                    same = group.coset_index(x, m) == group.coset_index(y, m)
                    assert same == ((x - y) in image)


# ---------------------------------------------------------------------------
# doubling


def test_doubling_is_onto():
    assert Z9.doubling_is_onto()
    assert GroupSpec(0, (3, 9)).doubling_is_onto()
    assert not Z44.doubling_is_onto()
    assert not GroupSpec(1).doubling_is_onto()
    assert GroupSpec(0, ()).doubling_is_onto()


# ---------------------------------------------------------------------------
# domains


def test_full_group_domain():
    pts = FullGroup().points(Z44)
    assert len(pts) == 16
    assert pts == sorted(pts, key=lambda p: p.coords)
    with pytest.raises(DomainSizeError):
        FullGroup().points(Z2)


def test_box_domain():
    group = GroupSpec(1, (3,))
    box = Box((2,))
    pts = box.points(group)
    assert len(pts) == 5 * 3
    assert pts == sorted(pts, key=lambda p: p.coords)
    assert all(-p in set(pts) for p in pts)  # negation closed
    with pytest.raises(DomainSizeError):
        Box((0,))
