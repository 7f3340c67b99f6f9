"""Group construction, table validation, and the built-in families."""

from collections import Counter

import pytest

from powergraphs import (
    FiniteGroup,
    InvalidOrder,
    NoIdentity,
    NotAssociative,
    NotClosed,
    NotLatinSquare,
    OrderOverflow,
    cyclic,
    dihedral,
    direct_product,
    group_from_cayley_table,
    load_cayley_table,
    power_weights,
    quaternion8,
    symmetric,
)
from powergraphs.groups import pair_index

# Latin square whose only identity-shaped row (row 0) fails columnwise,
# so there is no two-sided identity.
NO_IDENTITY = [
    [0, 1, 2],
    [2, 0, 1],
    [1, 2, 0],
]

# Order-5 loop: unital Latin square, but (1*1)*2 = 2 while 1*(1*2) = 4.
NONASSOCIATIVE = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def small_family():
    return [cyclic(n) for n in range(1, 13)] + [
        direct_product(cyclic(2), cyclic(2)),
        direct_product(cyclic(2), cyclic(4)),
        dihedral(3),
        dihedral(4),
        dihedral(5),
        quaternion8(),
        symmetric(3),
        symmetric(4),
    ]


def test_trivial_group():
    g = group_from_cayley_table([[0]])
    assert g.order == 1
    assert g.identity == 0
    assert g.element_orders == [1]


def test_z2_from_table():
    g = group_from_cayley_table([[0, 1], [1, 0]])
    assert g.order == 2
    assert g.identity == 0
    assert g.element_order(1) == 2


def test_row_repeat_is_not_latin():
    with pytest.raises(NotLatinSquare, match="row 1"):
        group_from_cayley_table([[0, 1], [1, 1]])


def test_column_repeat_is_not_latin():
    with pytest.raises(NotLatinSquare, match="column 0"):
        group_from_cayley_table([[0, 1], [0, 1]])


def test_out_of_range_entry_is_not_closed():
    with pytest.raises(NotClosed, match="row 0, column 1"):
        group_from_cayley_table([[0, 2], [1, 0]])


def test_non_integer_entry_is_not_closed():
    with pytest.raises(NotClosed):
        group_from_cayley_table([[0, "1"], [1, 0]])


def test_no_identity():
    with pytest.raises(NoIdentity):
        group_from_cayley_table(NO_IDENTITY)


def test_nonassociative_loop_rejected():
    with pytest.raises(NotAssociative, match=r"\(1\*1\)\*2"):
        group_from_cayley_table(NONASSOCIATIVE)


def test_empty_table():
    with pytest.raises(InvalidOrder):
        group_from_cayley_table([])


def test_ragged_table():
    with pytest.raises(ValueError, match="not square"):
        group_from_cayley_table([[0, 1], [1]])


def test_constructor_rejects_wrong_name_count():
    with pytest.raises(ValueError, match="element names"):
        FiniteGroup([[0]], element_names=["a", "b"])


def test_cyclic_orders():
    assert cyclic(6).element_orders == [1, 6, 3, 2, 3, 6]


def test_cyclic_rejects_zero():
    with pytest.raises(InvalidOrder):
        cyclic(0)


def test_builders_enforce_order_cap(monkeypatch):
    monkeypatch.setattr("powergraphs.groups.DEFAULT_ORDER_CAP", 10)
    assert cyclic(10).order == dihedral(5).order == 10
    with pytest.raises(OrderOverflow):
        cyclic(11)
    with pytest.raises(OrderOverflow):
        dihedral(6)


def test_dihedral_structure():
    g = dihedral(3)
    assert g.order == 6
    assert not g.is_abelian()
    # rotations carry the cyclic orders, reflections are involutions
    assert [g.element_order(i) for i in range(3)] == [1, 3, 3]
    assert all(g.element_order(3 + i) == 2 for i in range(3))
    assert g.element_names[0] == "r0" and g.element_names[3] == "s0"


def test_dihedral_small_cases():
    assert dihedral(1).order == 2
    assert dihedral(2).is_abelian()
    with pytest.raises(InvalidOrder):
        dihedral(0)


def test_symmetric_s3():
    g = symmetric(3)
    assert g.order == 6
    assert sorted(g.element_orders) == [1, 2, 2, 2, 3, 3]
    assert not g.is_abelian()


def test_symmetric_bounds():
    assert symmetric(1).order == 1
    assert symmetric(5).order == 120
    with pytest.raises(InvalidOrder):
        symmetric(0)
    with pytest.raises(InvalidOrder):
        symmetric(6)


def test_quaternion():
    g = quaternion8()
    assert g.order == 8
    assert Counter(g.element_orders) == {1: 1, 2: 1, 4: 6}
    assert not g.is_abelian()
    names = g.element_names
    i, j = names.index("i"), names.index("j")
    assert names[g.table[i][j]] == "k"
    assert names[g.table[j][i]] == "-k"


def test_element_order_examples():
    z6 = cyclic(6)
    assert z6.element_order(z6.identity) == 1
    assert z6.element_order(2) == 3
    assert z6.element_order(5) == 6


def powers(g, a, count):
    """[a^1, ..., a^count] by repeated multiplication in the table."""
    out = [a]
    while len(out) < count:
        out.append(g.table[out[-1]][a])
    return out


def test_smallest_exponent_examples():
    # the least t >= 1 with a^t = b is the start of the weight W(a, b)
    assert power_weights(cyclic(4))[1][3].start == 3
    assert power_weights(cyclic(6))[2][3].start == 0  # 3 is no power of 2
    for g in (cyclic(4), cyclic(6), quaternion8()):
        w = power_weights(g)
        for a in g.elements():
            assert w[a][a].start == 1


def test_lagrange_and_order_cycle():
    for g in small_family():
        assert g.element_order(g.identity) == 1
        for a in g.elements():
            o = g.element_order(a)
            assert g.order % o == 0
            cycle = powers(g, a, o)
            assert cycle[-1] == g.identity
            assert g.identity not in cycle[:-1]


def test_exponent_sets_are_progressions():
    # {m in [1, 3o] : a^m = b} is {t, t+o, t+2o} when t exists, else empty
    for g in small_family():
        w = power_weights(g)
        for a in g.elements():
            o = g.element_order(a)
            window = powers(g, a, 3 * o)
            for b in g.elements():
                t = w[a][b].start
                expected = set() if t == 0 else {t, t + o, t + 2 * o}
                assert {m for m, x in enumerate(window, start=1) if x == b} == expected


def test_pair_encoding_round_trip():
    for n2 in (1, 2, 5):
        for i in range(4):
            for j in range(n2):
                assert divmod(pair_index(i, j, n2), n2) == (i, j)


def test_direct_product_basics():
    v4 = direct_product(cyclic(2), cyclic(2))
    assert v4.order == 4
    assert v4.name == "C2xC2"
    one_one = pair_index(1, 1, 2)
    assert v4.element_order(one_one) == 2
    assert v4.element_names[one_one] == "(1,1)"


def test_direct_product_is_componentwise():
    g = direct_product(cyclic(3), cyclic(4))
    for i1 in range(3):
        for i2 in range(4):
            for j1 in range(3):
                for j2 in range(4):
                    x = g.table[pair_index(i1, i2, 4)][pair_index(j1, j2, 4)]
                    assert divmod(x, 4) == ((i1 + j1) % 3, (i2 + j2) % 4)


def test_direct_product_overflow():
    with pytest.raises(OrderOverflow):
        direct_product(cyclic(12), cyclic(12), cap=100)


def test_load_cayley_table(tmp_path):
    path = tmp_path / "klein.tbl"
    path.write_text(
        "# the Klein four-group\n"
        "4\n"
        "0 1 2 3\n"
        "1 0 3 2\n"
        "2 3 0 1\n"
        "3 2 1 0\n")
    g = load_cayley_table(path)
    assert g.name == "klein"
    assert g.order == 4
    assert g.element_orders == [1, 2, 2, 2]


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.tbl"
    path.write_text("two\n0 1\n1 0\n")
    with pytest.raises(ValueError, match="expected group order"):
        load_cayley_table(path)


def test_load_rejects_order_above_cap_before_rows(tmp_path):
    path = tmp_path / "huge.tbl"
    path.write_text("10001\n0\n")
    with pytest.raises(OrderOverflow, match=r"huge\.tbl:1: order 10001 exceeds cap 10000"):
        load_cayley_table(path)


def test_load_rejects_row_count(tmp_path):
    path = tmp_path / "short.tbl"
    path.write_text("2\n0 1\n")
    with pytest.raises(ValueError, match="expected 2 table rows"):
        load_cayley_table(path)


def test_load_rejects_entry_count(tmp_path):
    path = tmp_path / "wide.tbl"
    path.write_text("2\n0 1 1\n1 0\n")
    with pytest.raises(ValueError, match="expected 2 entries"):
        load_cayley_table(path)


def test_load_rejects_non_integer_entry(tmp_path):
    path = tmp_path / "alpha.tbl"
    path.write_text("2\n0 x\n1 0\n")
    with pytest.raises(ValueError, match="invalid entry 'x'"):
        load_cayley_table(path)


def test_load_validates_axioms(tmp_path):
    path = tmp_path / "loop.tbl"
    rows = "\n".join(" ".join(str(v) for v in row) for row in NONASSOCIATIVE)
    path.write_text(f"5\n{rows}\n")
    with pytest.raises(NotAssociative):
        load_cayley_table(path)
