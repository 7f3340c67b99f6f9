"""Group construction, table validation, and the built-in families."""

import itertools
import random
import sys
import time
import tracemalloc
from collections import Counter
from functools import reduce
from enum import IntEnum
from math import gcd

import pytest

from powergraphs import (
    FiniteGroup,
    InvalidOrder,
    NoIdentity,
    NotAssociative,
    NotClosed,
    NotLatinSquare,
    OrderOverflow,
    SENTINEL,
    cyclic,
    dihedral,
    direct_product,
    group_from_cayley_table,
    load_cayley_table,
    power_graph,
    power_weights,
    quaternion8,
    symmetric,
)
from powergraphs.groups import _check_closure, _generators, _units
from powergraphs.groupspec import parse_group_spec
from powergraphs.verify import FAMILY_SPECS, family_groups
from helpers import first_violation, powers, random_relabelling, relabel_table, write_table

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
    assert g.element_orders[1] == 2


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
    # Row 0 still equals {0, 1, 2} as a set, but True and 1.0 are not indices.
    for fake_one in (True, 1.0):
        table = [[0, fake_one, 2], [1, 2, 0], [2, 0, 1]]
        assert set(table[0]) == {0, 1, 2}
        with pytest.raises(NotClosed) as info:
            group_from_cayley_table(table)
        assert str(info.value) == f"entry {fake_one!r} at row 0, column 1 is not an index in 0..2"
    # True among IntEnum members is still named by its cell.
    members = list(IntEnum("Z3", [(f"e{i}", i) for i in range(3)]))
    table = [[members[(i + j) % 3] for j in range(3)] for i in range(3)]
    table[2][1] = True
    with pytest.raises(NotClosed) as info:
        group_from_cayley_table(table)
    assert str(info.value) == "entry True at row 2, column 1 is not an index in 0..2"


def test_int_subclass_entries_are_indices():
    members = list(IntEnum("Z4", [(f"e{i}", i) for i in range(4)]))
    table = [[members[(i + j) % 4] for j in range(4)] for i in range(4)]
    g = group_from_cayley_table(table)
    assert g.table == cyclic(4).table
    assert g.element_orders == [1, 4, 2, 4]
    # A row mixing int and IntEnum entries passes closure as well.
    table[1] = [1, members[2], 3, members[0]]
    assert group_from_cayley_table(table).table == cyclic(4).table
    # A member outside 0..n-1 is named by its cell.
    table[2][3] = list(IntEnum("Z5", [(f"e{i}", i) for i in range(5)]))[4]
    with pytest.raises(NotClosed) as info:
        group_from_cayley_table(table)
    assert str(info.value) == f"entry {table[2][3]!r} at row 2, column 3 is not an index in 0..3"


def test_no_identity():
    with pytest.raises(NoIdentity):
        group_from_cayley_table(NO_IDENTITY)


def test_nonassociative_loop_rejected():
    with pytest.raises(NotAssociative, match=r"\(1\*1\)\*2"):
        group_from_cayley_table(NONASSOCIATIVE)


def test_powers_of_a_loop_end_at_the_identity():
    # The walk needs only a Latin square with identity, not associativity.
    loop = FiniteGroup(NONASSOCIATIVE)
    assert [loop.powers(a) for a in range(5)] == [[0], [1, 0], [2, 4, 0], [3, 2, 0], [4, 3, 0]]
    assert loop.element_orders == [1, 2, 3, 3, 3]


def is_group_by_scan(table):
    """Validate table and require the verdict and message of the slow oracle."""
    violation = first_violation(table)
    if violation is None:
        group_from_cayley_table(table)
        return True
    i, j, k, left, right = violation
    with pytest.raises(NotAssociative) as info:
        group_from_cayley_table(table)
    assert str(info.value) == f"({i}*{j})*{k} = {left} but {i}*({j}*{k}) = {right}"
    return False


def relabelled(g, rng):
    """g's table under a random relabelling that moves the identity off index 0."""
    return relabel_table(g.table, random_relabelling(g, rng))


def oracle_family():
    return [cyclic(6), dihedral(3), direct_product(cyclic(2), cyclic(4)), quaternion8(),
            dihedral(4), direct_product(direct_product(cyclic(2), cyclic(2)), cyclic(2)),
            dihedral(6), symmetric(4)]


def intercalate_swaps(table, rng, count):
    """count tables made from table by swapping one intercalate each.

    In a group, rows r, r*x and columns c, x*c form an intercalate when x is
    an involution; swapping it keeps the Latin property, and keeps the
    identity when none of the four lines is the identity's.
    """
    n = len(table)
    e = next(x for x in range(n) if table[x] == list(range(n)))
    involutions = [x for x in range(n) if x != e and table[x][x] == e]
    out = []
    while len(out) < count:
        x, r1, c1 = rng.choice(involutions), rng.randrange(n), rng.randrange(n)
        r2, c2 = table[r1][x], table[x][c1]
        if e in (r1, r2, c1, c2):
            continue
        bad = [row[:] for row in table]
        a, b = table[r1][c1], table[r1][c2]
        bad[r1][c1], bad[r1][c2], bad[r2][c1], bad[r2][c2] = b, a, a, b
        out.append(bad)
    return out


@pytest.mark.parametrize("g", oracle_family(), ids=lambda g: g.name)
def test_light_test_agrees_with_ordered_scan(g):
    rng = random.Random(g.name)
    verdicts = [is_group_by_scan(bad) for bad in intercalate_swaps(relabelled(g, rng), rng, 40)]
    assert not all(verdicts)


@pytest.mark.parametrize("g", [cyclic(1), cyclic(2)] + oracle_family(), ids=lambda g: g.name)
def test_relabelled_groups_validate(g):
    table = relabelled(g, random.Random(g.name))
    h = group_from_cayley_table(table)
    assert Counter(h.element_orders) == Counter(g.element_orders)
    assert table[h.identity] == list(range(g.order))


def reduced_latin_squares(n):
    """Every Latin square on 0..n-1 whose row 0 and column 0 are 0, 1, ..., n-1."""
    rows = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(c):
        if c == len(cells):
            yield [row[:] for row in rows]
            return
        i, j = cells[c]
        used = set(rows[i][:j]) | {rows[r][j] for r in range(i)}
        for v in range(n):
            if v not in used:
                rows[i][j] = v
                yield from fill(c + 1)
        rows[i][j] = None

    yield from fill(0)


def test_light_test_agrees_with_ordered_scan_on_every_small_loop():
    # Every unital Latin square of order <= 6 up to labelling, each under a
    # random relabelling.
    rng = random.Random(0)
    groups = Counter()
    for n in range(1, 7):
        for loop in reduced_latin_squares(n):
            groups[n] += is_group_by_scan(relabel_table(loop, rng.sample(range(n), n)))
    # (n-1)!/|Aut G| reduced Cayley tables per group G: C4 3 and C2xC2 1,
    # C5 6, C6 60 and S3 20.
    assert groups == {1: 1, 2: 1, 3: 1, 4: 4, 5: 6, 6: 80}


def test_generating_sets():
    # group -> least size of a generating set
    c2_cubed = direct_product(direct_product(cyclic(2), cyclic(2)), cyclic(2))
    rank = {cyclic(1): 0, cyclic(2): 1, cyclic(12): 1, c2_cubed: 3, quaternion8(): 2,
            symmetric(4): 2}
    for g, least in rank.items():
        table = relabelled(g, random.Random(g.name))
        identity = group_from_cayley_table(table).identity
        gens = _generators(table, identity)
        # each generator lies outside the subgroup of the earlier ones
        span = {identity}
        for gen in gens:
            assert gen not in span
            while True:
                grown = span | {table[x][y] for x in span for y in span | {gen}}
                if grown == span:
                    break
                span = grown
        assert len(span) == g.order
        # so each one at least doubles the subgroup reached so far
        assert least <= len(gens) and 2 ** len(gens) <= g.order


def first_fault(table):
    """Slow oracle: the (exception type, text) validation must raise, or None.

    Checks in order: shape and closure row by row, row repeats, column
    repeats, a two-sided identity, then the first non-associative triple.
    """
    n = len(table)
    for i, row in enumerate(table):
        if len(row) != n:
            return ValueError, f"table is not square: row {i} has {len(row)} entries, expected {n}"
        for j, v in enumerate(row):
            if type(v) is not int or not 0 <= v < n:
                return NotClosed, f"entry {v!r} at row {i}, column {j} is not an index in 0..{n - 1}"
    for kind, across, cell in (("row", "columns", lambda i, j: table[i][j]),
                               ("column", "rows", lambda i, j: table[j][i])):
        for i in range(n):
            for j in range(n):
                for k in range(j):
                    if cell(i, k) == cell(i, j):
                        return NotLatinSquare, f"{kind} {i} repeats entry {cell(i, j)} at {across} {k} and {j}"
    if not any(all(table[e][x] == x == table[x][e] for x in range(n)) for e in range(n)):
        return NoIdentity, f"no identity element in table of order {n}"
    violation = first_violation(table)
    if violation is None:
        return None
    i, j, k, left, right = violation
    return NotAssociative, f"({i}*{j})*{k} = {left} but {i}*({j}*{k}) = {right}"


def faulty_tables(rng, count):
    """Seeded tables of order <= 9: relabelled group and loop tables, half of
    them with rows and columns shuffled, each with up to four faults (two
    cells of a row swapped, which repeats entries in columns only, or one
    cell overwritten) and a few with a short row."""
    loops = [NONASSOCIATIVE] + intercalate_swaps(dihedral(4).table, random.Random(0), 4)
    bases = [g.table for g in small_family() if g.order <= 9] + loops
    for _ in range(count):
        base = rng.choice(bases)
        n = len(base)
        table = relabel_table(base, rng.sample(range(n), n))
        if rng.random() < 0.5:
            # An isotope: still a Latin square, but often without identity or associativity.
            rp, cp = rng.sample(range(n), n), rng.sample(range(n), n)
            table = [[table[r][c] for c in cp] for r in rp]
        for _ in range(rng.randrange(5)):
            row, j, k, r = table[rng.randrange(n)], rng.randrange(n), rng.randrange(n), rng.random()
            if r < 0.45:
                row[j], row[k] = row[k], row[j]
            else:
                row[j] = rng.randrange(n) if r < 0.85 else rng.choice((-1, n, n + 3, True, False, 1.0, "1"))
        if rng.random() < 0.03:
            table[rng.randrange(n)].pop()
        yield table


def test_validation_agrees_with_ordered_first_fault_scan():
    outcomes = Counter()
    for table in faulty_tables(random.Random(4), 3000):
        expected = first_fault(table)
        if expected is None:
            assert group_from_cayley_table(table).order == len(table)
            outcomes["group"] += 1
            continue
        kind, text = expected
        with pytest.raises(ValueError) as info:
            group_from_cayley_table(table)
        assert (type(info.value), str(info.value)) == (kind, text)
        outcomes[text.split()[0] if kind is NotLatinSquare else kind.__name__] += 1
    # every check, and both Latin directions, decides some of the tables
    assert set(outcomes) == {"group", "ValueError", "NotClosed", "row", "column",
                             "NoIdentity", "NotAssociative"}


def test_loaded_files_agree_with_ordered_first_fault_scan(tmp_path, monkeypatch):
    # Each square table of ints is written twice: spelt canonically, and with
    # one row re-spelt.  Either spelling skips the closure test when every
    # entry is an index, and both give the oracle's error, after the path,
    # or the same table.
    closure_checks = []
    monkeypatch.setattr("powergraphs.groups._check_closure",
                        lambda rows: closure_checks.append(rows) or _check_closure(rows))
    rng = random.Random(36)
    outcomes = Counter()
    path = tmp_path / "t.tbl"
    for table in faulty_tables(random.Random(5), 2000):
        n = len(table)
        if any(len(row) != n or any(type(v) is not int for v in row) for row in table):
            continue
        expected = first_fault(table)
        indices = all(0 <= v < n for row in table for v in row)
        respelt = rng.randrange(n)
        for spell in (str, lambda v: f"{'-' if v < 0 else '+'}0{abs(v)}"):
            path.write_text(f"{n}\n" + "".join(
                " ".join(map(spell if i == respelt else str, row)) + "\n" for i, row in enumerate(table)))
            closure_checks.clear()
            if expected is None:
                assert load_cayley_table(path).table == table
            else:
                kind, text = expected
                with pytest.raises(ValueError) as info:
                    load_cayley_table(path)
                assert (type(info.value), str(info.value)) == (kind, f"{path}: {text}")
            assert len(closure_checks) == (0 if indices else 1)
        if expected is None:
            outcomes["group"] += 1
        elif kind is NotLatinSquare and text.startswith("column"):
            # Columns are checked only once the identity or Light's test fails:
            # Latin rows, an identity and associativity make a group, whose columns are Latin.
            has_identity = any(all(table[e][x] == x == table[x][e] for x in range(n)) for e in range(n))
            assert not has_identity or first_violation(table)
            outcomes["column, no identity" if not has_identity else "column, not associative"] += 1
        else:
            outcomes[kind.__name__] += 1
    assert {"group", "NotClosed", "NotLatinSquare", "NoIdentity", "NotAssociative",
            "column, no identity", "column, not associative"} <= set(outcomes), outcomes


def staircase(n):
    """x*0 = x, x*y = y-1 for 1 <= y <= x, x*y = y for y > x: Latin rows and the
    two-sided identity 0, but column 1 repeats 0 at rows 1 and 2."""
    return [[x] + [y - 1 if y <= x else y for y in range(1, n)] for x in range(n)]


def test_generators_stop_at_the_first_that_does_not_double():
    # In a group each new generator at least doubles the reached set.  On the
    # staircase each adds one element, so a walk that went on would take n - 1
    # generators and about n^3 / 3 steps; it stops at the second, 2, instead.
    for n in range(3, 40):
        assert _generators(staircase(n), 0) is None
        assert first_fault(staircase(n)) == (NotLatinSquare, "column 1 repeats entry 0 at rows 1 and 2")
        with pytest.raises(NotLatinSquare, match="^column 1 repeats entry 0 at rows 1 and 2$"):
            group_from_cayley_table(staircase(n))


def test_staircase_file_is_rejected_on_its_columns_in_seconds(tmp_path):
    # Hang guard: a generator walk without the doubling stop takes about a
    # minute on this order-2000 file; parsing and validation take about 1 s.
    path = tmp_path / "stairs.tbl"
    write_table(path, staircase(2000))
    start = time.perf_counter()
    with pytest.raises(NotLatinSquare) as info:
        load_cayley_table(path)
    assert str(info.value) == f"{path}: column 1 repeats entry 0 at rows 1 and 2"
    assert time.perf_counter() - start < 10


def test_empty_table():
    with pytest.raises(InvalidOrder):
        group_from_cayley_table([])
    with pytest.raises(InvalidOrder, match="^a group has at least one element$"):
        FiniteGroup([])


def test_ragged_table():
    with pytest.raises(ValueError, match="not square"):
        group_from_cayley_table([[0, 1], [1]])


def test_constructor_rejects_wrong_name_count():
    with pytest.raises(ValueError, match="element names"):
        FiniteGroup([[0]], element_names=["a", "b"])


def test_constructor_keeps_its_table():
    t = [[0, 1], [1, 0]]
    assert FiniteGroup(t).table is t


def test_validated_group_does_not_share_the_input_table():
    t = [[0, 1], [1, 0]]
    g = group_from_cayley_table(t)
    t[0][0] = 1
    t[1].append(2)
    t.append([0, 0])
    assert g.table == [[0, 1], [1, 0]]
    assert g.order == 2 and g.element_orders == [1, 2]


def cyclic_by_cell(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def dihedral_by_cell(n):
    """D_n cell by cell: rotations r^i at 0..n-1, reflections r^i*s at n..2n-1."""
    size = 2 * n
    table = [[0] * size for _ in range(size)]
    for a in range(n):
        for b in range(n):
            table[a][b] = (a + b) % n
            table[a][n + b] = n + (a + b) % n
            table[n + a][b] = n + (a - b) % n
            table[n + a][n + b] = (a - b) % n
    return table


def test_builders_match_cell_formulas():
    for n in range(1, 41):
        assert cyclic(n).table == cyclic_by_cell(n), n
        assert dihedral(n).table == dihedral_by_cell(n), n


def test_cyclic_is_dihedral_without_its_reflections():
    # C_n is the rotation subgroup of D_n: same indices, same products, same walks.
    for n in range(1, 41):
        c, d = cyclic(n), dihedral(n)
        assert c.table == [row[:n] for row in d.table[:n]], n
        assert all(c.powers(a) == d.powers(a) for a in range(n)), n
        assert c.is_abelian() and d.is_abelian() == (n <= 2), n


def test_cyclic_orders():
    assert cyclic(6).element_orders == [1, 6, 3, 2, 3, 6]


def test_element_orders_are_computed_on_first_use():
    g = cyclic(6)
    assert "element_orders" not in vars(g)
    assert g.element_orders is g.element_orders
    assert vars(g)["element_orders"] == [1, 6, 3, 2, 3, 6]


def test_units_are_the_exponents_prime_to_the_order():
    """Both sides of the identity pick each walk's generators from _units."""
    for o in range(1, 2001):
        assert _units(o) == tuple(k for k in range(1, o + 1) if gcd(k, o) == 1), o
    assert _units(12) is _units(12)


def test_cyclic_subgroups_give_every_walk_and_order():
    """Element orders, the stride rows of the cyclic subgroups and the power
    weight rows all equal the element's own walk: on the family, on
    relabelled copies of its tables, and on larger groups."""
    rng = random.Random(43)
    family = family_groups(36)
    groups = [*family, *(group_from_cayley_table(relabelled(g, rng), name=f"{g.name}'") for g in family),
              *map(parse_group_spec, ("D30", "Q8xC15", "S3xC2xC4", "C2xC2xC2xC3"))]
    for g in groups:
        walks, subgroup, exponent = g.cyclic_subgroups
        own = [g.powers(x) for x in range(g.order)]
        assert g.element_orders == list(map(len, own)), g.name
        weights = power_weights(g)
        for x, walk in enumerate(own):
            c, k = walks[subgroup[x]], exponent[x]
            o = len(c)
            assert gcd(k, o) == 1, (g.name, x)
            assert [c[(k * t - 1) % o] for t in range(1, o + 1)] == walk, (g.name, x)
            assert list(weights[x]) == walk, (g.name, x)
        # One walk per cyclic subgroup, from its first generator in index order.
        assert len({frozenset(walk) for walk in own}) == len(walks), g.name
        assert [exponent[c[0]] for c in walks] == [1] * len(walks), g.name
        assert all(x >= c[0] for c in walks for k, x in enumerate(c, 1) if gcd(k, len(c)) == 1), g.name


def test_cyclic_rejects_zero():
    with pytest.raises(InvalidOrder):
        cyclic(0)


def test_builders_enforce_order_cap(monkeypatch):
    # The cap is read when a builder is called, so patching it takes effect.
    monkeypatch.setattr("powergraphs.groups.DEFAULT_ORDER_CAP", 10)
    assert cyclic(10).order == dihedral(5).order == 10
    with pytest.raises(OrderOverflow, match="cyclic group order 11 exceeds cap 10"):
        cyclic(11)
    with pytest.raises(OrderOverflow, match="dihedral group order 12 exceeds cap 10"):
        dihedral(6)


def test_dihedral_structure():
    g = dihedral(3)
    assert g.order == 6
    assert not g.is_abelian()
    # rotations carry the cyclic orders, reflections are involutions
    assert g.element_orders == [1, 3, 3, 2, 2, 2]
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


def test_symmetric_table_composes_per_cell():
    for n in range(1, 6):
        perms = list(itertools.permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}
        assert symmetric(n).table == [[index[tuple(p[x] for x in q)] for q in perms] for p in perms]


def test_quaternion():
    g = quaternion8()
    assert g.order == 8
    assert Counter(g.element_orders) == {1: 1, 2: 1, 4: 6}
    assert not g.is_abelian()
    names = g.element_names
    i, j = names.index("i"), names.index("j")
    assert names[g.table[i][j]] == "k"
    assert names[g.table[j][i]] == "-k"
    assert names == ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    assert g.table == [
        [0, 1, 2, 3, 4, 5, 6, 7],
        [1, 0, 3, 2, 5, 4, 7, 6],
        [2, 3, 1, 0, 6, 7, 5, 4],
        [3, 2, 0, 1, 7, 6, 4, 5],
        [4, 5, 7, 6, 1, 0, 2, 3],
        [5, 4, 6, 7, 0, 1, 3, 2],
        [6, 7, 4, 5, 3, 2, 1, 0],
        [7, 6, 5, 4, 2, 3, 0, 1],
    ]


def test_symmetric_tables_compose_permutations():
    for n in range(1, 6):
        g = symmetric(n)
        perms = sorted(itertools.permutations(range(n)))
        assert g.element_names == ["".join(map(str, p)) for p in perms]
        for i, p in enumerate(perms):
            for j, q in enumerate(perms):
                assert perms[g.table[i][j]] == tuple(p[q[x]] for x in range(n)), (n, p, q)


def test_element_order_examples():
    z6 = cyclic(6)
    assert z6.element_orders[z6.identity] == 1
    assert z6.element_orders[2] == 3
    assert z6.element_orders[5] == 6


def test_smallest_exponent_examples():
    # the least t >= 1 with a^t = b is the start of the weight W(a, b)
    assert power_weights(cyclic(4))[1].get(3, SENTINEL).start == 3
    assert power_weights(cyclic(6))[2].get(3, SENTINEL).start == 0  # 3 is no power of 2
    for g in (cyclic(4), cyclic(6), quaternion8()):
        w = power_weights(g)
        for a in range(g.order):
            assert w[a].get(a, SENTINEL).start == 1


def test_lagrange_and_order_cycle():
    for g in small_family():
        assert g.element_orders[g.identity] == 1
        for a in range(g.order):
            o = g.element_orders[a]
            assert g.order % o == 0
            cycle = powers(g, a, o)
            assert cycle[-1] == g.identity
            assert g.identity not in cycle[:-1]


def test_exponent_sets_are_progressions():
    # {m in [1, 3o] : a^m = b} is {t, t+o, t+2o} when t exists, else empty
    for g in small_family():
        w = power_weights(g)
        for a in range(g.order):
            o = g.element_orders[a]
            window = powers(g, a, 3 * o)
            for b in range(g.order):
                t = w[a].get(b, SENTINEL).start
                expected = set() if t == 0 else {t, t + o, t + 2 * o}
                assert {m for m, x in enumerate(window, start=1) if x == b} == expected


def test_pair_encoding_round_trip():
    for g1 in (cyclic(1), cyclic(3), dihedral(2)):
        for g2 in (cyclic(1), cyclic(2), dihedral(3)):
            g, n2 = direct_product(g1, g2), g2.order
            for i in range(g1.order):
                for j in range(n2):
                    assert g.element_names[i * n2 + j] == f"({g1.element_names[i]},{g2.element_names[j]})"


def test_direct_product_basics():
    v4 = direct_product(cyclic(2), cyclic(2))
    assert v4.order == 4
    assert v4.name == "C2xC2"
    one_one = 1 * 2 + 1
    assert v4.element_orders[one_one] == 2
    assert v4.element_names[one_one] == "(1,1)"


def test_direct_product_is_componentwise():
    g = direct_product(cyclic(3), cyclic(4))
    for i1 in range(3):
        for i2 in range(4):
            for j1 in range(3):
                for j2 in range(4):
                    x = g.table[i1 * 4 + i2][j1 * 4 + j2]
                    assert divmod(x, 4) == ((i1 + j1) % 3, (i2 + j2) % 4)


def test_direct_product_rows_share_their_ints():
    c2_5 = reduce(direct_product, [cyclic(2)] * 5)
    c32 = cyclic(32)
    g = direct_product(c32, c2_5)
    # Each table is built when first read: the factors' before the window.
    assert c32.table and c2_5.table
    tracemalloc.start()
    try:
        assert len(g.table) == 1024
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.order == 1024
    # 1 M cells: about 8.8 MiB of list slots; a new int per cell took 32.7 MiB.
    assert peak < 16 * 2**20, peak


@pytest.mark.parametrize("spec", [*FAMILY_SPECS, "Q8xC6xS3", "D4xC3xQ8", "x".join(["C2"] * 6), "D1", "C1xD3"])
def test_rules_match_the_table(spec):
    """Cyclic, dihedral and product groups take their walks, identity and
    commutativity from a rule, and build their table only when it is read;
    each must equal what that table gives."""
    g = parse_group_spec(spec)
    # What the power graph and stats read builds no table.
    power_graph(g), g.element_orders, g.is_abelian()
    assert ("table" in vars(g)) == (spec in ("Q8", "S3", "S4")), spec
    t = g.table
    assert g.table is t
    n = g.order
    e = next(x for x in range(n) if t[x] == list(range(n)) and [row[x] for row in t] == list(range(n)))
    assert g.identity == e, spec
    for a in range(n):
        walk = [a]
        while walk[-1] != e:
            walk.append(t[walk[-1]][a])
        assert g.powers(a) == walk, (spec, a)
    assert g.is_abelian() == all(t[a][b] == t[b][a] for a in range(n) for b in range(n)), spec


def test_direct_product_overflow(monkeypatch):
    monkeypatch.setattr("powergraphs.groups.DEFAULT_ORDER_CAP", 100)
    assert direct_product(cyclic(10), cyclic(10)).order == 100
    with pytest.raises(OrderOverflow, match="product order 144 exceeds cap 100"):
        direct_product(cyclic(12), cyclic(12))


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


def test_load_accepts_non_ascii_separators(tmp_path):
    # str.split() splits on U+00A0, U+2003 and U+3000; such rows are read
    # like ASCII ones and must still yield their own entries, not the row before.
    # A leading UTF-8 byte-order mark, as some editors write, is dropped.
    path = tmp_path / "klein.tbl"
    for text in ("2\n0\u00a01\n1 0\n",
                 "4\n0 1 2 3\n1\u00a00\u20033\u30002\n2 3 0 1\n3\u00a02 1 0\n",
                 "\ufeff2\n0 1\n1 0\n"):
        path.write_text(text, encoding="utf-8")
        rows = [line.split() for line in text.splitlines()[1:]]
        assert load_cayley_table(path).table == [[int(tok) for tok in row] for row in rows]


def test_load_splits_lines_only_at_newlines(tmp_path):
    # U+2028 and a form feed are not line ends: the first stays in its
    # comment, the second separates entries.  CRLF and bare CR still end lines.
    path = tmp_path / "c2.tbl"
    for data in ("# note\u2028more\n2\n0 1\n1 0\n".encode(),
                 b"2\n0\x0c1\n1 0\n",
                 b"2\r\n0 1\r\n1 0\r\n",
                 b"2\r0 1\r1 0\r"):
        path.write_bytes(data)
        assert load_cayley_table(path).table == [[0, 1], [1, 0]]


def test_load_names_the_line_of_a_byte_that_is_not_utf8(tmp_path):
    # The reader decodes 8 KB at a time; the line is counted from the file's
    # start, not from the chunk, for every line end the reader takes.
    path = tmp_path / "c100.tbl"
    lines = [b"# C100", b"100", *(" ".join(map(str, row)).encode() for row in cyclic(100).table), b"# end"]
    for newline in (b"\n", b"\r\n", b"\r"):
        data = newline.join(lines) + newline
        for lineno, column in ((1, 3), (2, 0), (61, 5), (102, 2)):
            at = sum(len(line) + len(newline) for line in lines[:lineno - 1]) + column
            path.write_bytes(data[:at] + b"\xff" + data[at + 1:])
            with pytest.raises(ValueError) as info:
                load_cayley_table(path)
            assert str(info.value) == f"{path}:{lineno}: not UTF-8 text (invalid start byte, byte 0xff)"
    # A multi-byte sequence cut short by the end of the file.
    path.write_bytes(b"2\n0 1\n1 0\n# \xe2\x82")
    with pytest.raises(ValueError, match=r":4: not UTF-8 text \(unexpected end of data, byte 0xe2\)$"):
        load_cayley_table(path)
    # A bad byte is named when its line is read, after a fault on an earlier line.
    path.write_bytes(b"2\n0 1 2\n\xff 0\n")
    with pytest.raises(ValueError, match=r":2: expected 2 entries, got 3$"):
        load_cayley_table(path)


def test_load_names_the_line_of_a_byte_after_a_lone_cr_at_a_chunk_end(tmp_path):
    # The text reader decodes 8 KB at a time and holds back a \r that ends a
    # chunk, to see whether \n follows.  The leading comment's width puts the
    # header's \r at offset 8191, the first chunk's last byte; a bad byte in
    # any of the next three bytes is on the first row, line 3.
    path = tmp_path / "c3.tbl"
    data = b"#" * 8189 + b"\r3\r0 1 2\r1 2 0\r2 0 1\r"
    assert data.index(b"\r3\r") + 2 == 8191
    for at in (8192, 8193, 8194):
        path.write_bytes(data[:at] + b"\xff" + data[at + 1:])
        with pytest.raises(ValueError) as info:
            load_cayley_table(path)
        assert str(info.value) == f"{path}:3: not UTF-8 text (invalid start byte, byte 0xff)"


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.tbl"
    cases = (("two\n0 1\n1 0\n", ValueError, ":1: expected group order, got 'two'"),
             ("# comments only\n\n#\n", ValueError, ": no data lines"),
             ("# empty\n0\n", InvalidOrder, ":2: order must be >= 1, got 0"),
             # int() reads '0_2' as 2.
             ("0_2\n0 1\n1 0\n", ValueError, ":1: expected group order, got '0_2'"))
    for text, error, message in cases:
        path.write_text(text)
        with pytest.raises(error) as info:
            load_cayley_table(path)
        assert str(info.value) == f"{path}{message}"


def test_load_rejects_order_above_cap_before_rows(tmp_path):
    path = tmp_path / "huge.tbl"
    path.write_text("10001\n0\n")
    with pytest.raises(OrderOverflow, match=r"huge\.tbl:1: order 10001 exceeds cap 10000"):
        load_cayley_table(path)
    # The byte 0xFF is not UTF-8, but the header is refused before it is read.
    path.write_bytes(b"10001\n" + (b"#" * 79 + b"\n") * 1000 + b"\xff\n")
    with pytest.raises(OrderOverflow, match=r"huge\.tbl:1: order 10001 exceeds cap 10000"):
        load_cayley_table(path)


def test_load_rejects_row_count(tmp_path):
    path = tmp_path / "short.tbl"
    path.write_text("2\n0 1\n")
    with pytest.raises(ValueError, match="expected 2 table rows"):
        load_cayley_table(path)
    # Lines past the n-th are only counted, not parsed.
    path.write_text("2\n0 1\n1 0\nx\n# note\n1 0 y\n")
    with pytest.raises(ValueError) as info:
        load_cayley_table(path)
    assert str(info.value) == f"{path}: expected 2 table rows, got 4"


def test_load_rejects_entry_count(tmp_path):
    path = tmp_path / "wide.tbl"
    path.write_text("2\n0 1 1\n1 0\n")
    with pytest.raises(ValueError, match="expected 2 entries"):
        load_cayley_table(path)


def test_load_rejects_non_integer_entry(tmp_path):
    path = tmp_path / "alpha.tbl"
    # '+1' is read as int() reads it, so the entry named is 'x'.  int() alone
    # would also read '1_0' as 10 and U+0661 (ARABIC-INDIC DIGIT ONE) as 1.
    for text, message in (("2\n0 x\n1 0\n", ":2: invalid entry 'x'"),
                          ("3\n0 +1 x\n1 2 0\n2 0 1\n", ":2: invalid entry 'x'"),
                          ("2\n0 1\n1_0 0\n", ":3: invalid entry '1_0'"),
                          ("2\n0 1\n\u0661 0\n", ":3: invalid entry '\u0661'"),
                          ("2\n0\u00a0x\n1 0\n", ":2: invalid entry 'x'"),
                          ("2\n0\u30001_0\n1 0\n", ":2: invalid entry '1_0'"),
                          # A form-feed line still counts as a line.
                          ("2\n0 1\n\x0c\n1 x\n", ":4: invalid entry 'x'"),
                          # int() refuses more digits than sys.get_int_max_str_digits().
                          (f"2\n0 {'0' * 5000}1\n1 0\n", f":2: invalid entry '{'0' * 5000}1'"),
                          # The first defect in reading order is named, before the short row count.
                          ("3\n0 1 2\n1 x 0\n", ":3: invalid entry 'x'")):
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load_cayley_table(path)
        assert str(info.value) == f"{path}{message}"


def test_load_reads_any_spelling_of_an_entry_as_its_index(tmp_path):
    # Rows with a sign, leading zeros or '-0' take the per-token path; every
    # spelling loads to the table its canonical spelling loads to.
    table = relabelled(direct_product(cyclic(3), dihedral(3)), random.Random(3))
    canonical, respelt = tmp_path / "canonical.tbl", tmp_path / "respelt.tbl"
    write_table(canonical, table)
    write_table(respelt, table, lambda v: "-0" if v == 0 else f"+{v}" if v % 2 else f"0{v}",
                "\u00a0")
    assert "-0" in respelt.read_text(encoding="utf-8")
    assert load_cayley_table(respelt).table == load_cayley_table(canonical).table == table
    # One re-spelt row among canonical ones.
    lines = canonical.read_text().split("\n")
    lines[5] = " ".join(f"+{tok}" for tok in lines[5].split())
    respelt.write_text("\n".join(lines))
    assert load_cayley_table(respelt).table == table
    # An entry outside 0..n-1, however spelt, is named by the closure check.
    for entry, value in (("2", 2), ("+2", 2), ("02", 2), ("-1", -1)):
        respelt.write_text(f"2\n0 1\n{entry} 0\n")
        with pytest.raises(NotClosed) as info:
            load_cayley_table(respelt)
        assert str(info.value) == f"{respelt}: entry {value} at row 1, column 0 is not an index in 0..1"


def test_load_shares_one_int_per_index(tmp_path):
    path = tmp_path / "c300.tbl"
    write_table(path, relabelled(cyclic(300), random.Random(300)))
    g = load_cayley_table(path)
    assert len({id(v) for row in g.table for v in row}) == 300


def test_load_of_order_1000_stays_small(tmp_path):
    path = tmp_path / "c1000.tbl"
    write_table(path, relabelled(cyclic(1000), random.Random(1000)))
    tracemalloc.start()
    try:
        g = load_cayley_table(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.order == 1000
    # 1 M cells: about 8.0 MiB with shared ints; a new int per cell took 31.6 MiB.
    assert peak < 20 * 2**20, peak
    # The file is read a line at a time, so no line's text outlives its row:
    # the peak is about 8.0 MiB for 7.8 MiB held, where holding every line's
    # text until the table was validated peaked at 11.9 MiB.
    assert peak <= 1.1 * held, (peak, held)


def test_loaded_rows_are_built_at_their_exact_size(tmp_path):
    # Rows of plain indices and re-spelt rows alike are kept with no spare
    # slots and hold only the loader's n shared ints: at order 1000 a row
    # grown by list(map(...)) holds 800 bytes more than list(row), and the
    # re-spelt file's int() entries were 743,257 distinct int objects.
    table = relabelled(cyclic(1000), random.Random(1000))
    for name, spell in (("plain", str), ("respelt", "+{}".format)):
        path = tmp_path / f"{name}.tbl"
        write_table(path, table, spell)
        loaded = load_cayley_table(path).table
        assert loaded == table, name
        assert all(sys.getsizeof(row) == sys.getsizeof(list(row)) for row in loaded), name
        assert len({id(v) for row in loaded for v in row}) <= 1000, name
    # The range is checked before a re-spelt row is mapped: -1 would pick the last int.
    path.write_text("2\n0 1\n1 -1\n")
    with pytest.raises(NotClosed) as info:
        load_cayley_table(path)
    assert str(info.value) == f"{path}: entry -1 at row 1, column 1 is not an index in 0..1"


def test_loaded_group_table_is_validated_when_passed_back(tmp_path):
    # The loader's trust in its own rows stays inside the validator: the
    # group's table is a plain list, so passing it back copies and checks it.
    path = tmp_path / "c3.tbl"
    path.write_text("3\n0 1 2\n1 2 0\n2 0 1\n")
    g = load_cayley_table(path)
    assert type(g.table) is list
    assert group_from_cayley_table(g.table).table is not g.table
    g.table[1][2] = 99
    with pytest.raises(NotClosed) as info:
        group_from_cayley_table(g.table)
    assert str(info.value) == "entry 99 at row 1, column 2 is not an index in 0..2"


def test_load_of_order_1(tmp_path):
    # One key makes itemgetter return the bare value, which the loader wraps as a row.
    path = tmp_path / "one.tbl"
    for text in ("1\n0\n", "1\n+0\n"):
        path.write_text(text)
        g = load_cayley_table(path)
        assert (g.order, g.identity, g.table, g.element_orders) == (1, 0, [[0]], [1])
    path.write_text("1\n3\n")
    with pytest.raises(NotClosed) as info:
        load_cayley_table(path)
    assert str(info.value) == f"{path}: entry 3 at row 0, column 0 is not an index in 0..0"


def test_load_validates_axioms(tmp_path):
    path = tmp_path / "loop.tbl"
    rows = "\n".join(" ".join(str(v) for v in row) for row in NONASSOCIATIVE)
    path.write_text(f"5\n{rows}\n")
    with pytest.raises(NotAssociative):
        load_cayley_table(path)
