"""Finite groups as dense Cayley tables on element indices 0..n-1."""

import functools
import itertools
from pathlib import Path

DEFAULT_ORDER_CAP = 10000


class CayleyTableError(ValueError):
    """A multiplication table violates one of the group axioms."""


class NotClosed(CayleyTableError):
    pass


class NotLatinSquare(CayleyTableError):
    pass


class NoIdentity(CayleyTableError):
    pass


class NotAssociative(CayleyTableError):
    pass


class InvalidOrder(ValueError):
    pass


class OrderOverflow(ValueError):
    pass


class FiniteGroup:
    """Finite group with elements 0..n-1 and a full multiplication table.

    The identity is auto-detected from the table at construction; element
    orders are computed on first use and then cached.  Instances are
    otherwise never mutated and are safe to share.  The constructor trusts
    its input and keeps the table it is given, without copying it, so
    callers must not change that table afterwards; use
    group_from_cayley_table to validate (and copy) an untrusted table.
    """

    def __init__(self, table: list[list[int]], name: str = "G",
                 element_names: list[str] | None = None):
        self.order = len(table)
        if self.order == 0:
            raise InvalidOrder("a group has at least one element")
        self.table = table
        self.name = name
        if element_names is None:
            element_names = [str(i) for i in range(self.order)]
        if len(element_names) != self.order:
            raise ValueError(f"got {len(element_names)} element names for order {self.order}")
        self.element_names = list(element_names)
        self.identity = self._find_identity()

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"

    def _find_identity(self) -> int:
        n = self.order
        for e in range(n):
            if all(self.table[e][i] == i for i in range(n)) and \
               all(self.table[i][e] == i for i in range(n)):
                return e
        raise NoIdentity(f"no identity element in table of order {n}")

    @functools.cached_property
    def element_orders(self) -> list[int]:
        return [len(self.powers(a)) for a in range(self.order)]

    def powers(self, a: int) -> list[int]:
        """[a, a^2, ..., a^o(a)]: the powers of a, ending at the identity.

        Right multiplication by a permutes the rows of any Latin square, so
        the walk returns to the identity even before associativity is checked.
        """
        table, identity = self.table, self.identity
        x = a
        out = [x]
        while x != identity:
            x = table[x][a]
            out.append(x)
        return out

    def is_abelian(self) -> bool:
        t = self.table
        n = self.order
        return all(t[i][j] == t[j][i] for i in range(n) for j in range(i + 1, n))


def group_from_cayley_table(table, name: str = "G") -> FiniteGroup:
    """Validate an untrusted multiplication table and build the group.

    Checks run in the order closure, Latin square, identity, associativity;
    error messages name the first violating cell.
    """
    rows = [list(row) for row in table]
    n = len(rows)
    if n == 0:
        raise InvalidOrder("table is empty")
    full = set(range(n))
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"table is not square: row {i} has {len(row)} entries, expected {n}")
        # A row of ints (bool aside) in 0..n-1 passes whole; only the
        # others are walked, to name the first cell that is not an index.
        if all(issubclass(t, int) and t is not bool for t in set(map(type, row))) \
                and full.issuperset(row):
            continue
        for j, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise NotClosed(f"entry {v!r} at row {i}, column {j} is not an index in 0..{n - 1}")
    # Each line is checked as a set; only a failing one is walked to name the cell.
    for kind, lines, across in (("row", rows, "columns"), ("column", zip(*rows), "rows")):
        for i, line in enumerate(lines):
            if len(set(line)) == n:
                continue
            first: dict[int, int] = {}
            for j, v in enumerate(line):
                if first.setdefault(v, j) != j:
                    raise NotLatinSquare(f"{kind} {i} repeats entry {v} at {across} {first[v]} and {j}")
    group = FiniteGroup(rows, name=name)
    # Light's test.  The g with (x*g)*y = x*(g*y) for all x, y include the
    # identity and are closed under the product, so they include every element
    # reached from the identity by right multiplication with generators: all of them.
    for g in _generators(rows, group.identity):
        tg = rows[g]
        for ti in rows:
            if rows[ti[g]] != [ti[v] for v in tg]:
                _raise_first_violation(rows)
    return group


def _generators(rows: list[list[int]], identity: int) -> list[int]:
    """Elements that reach every element from the identity by right multiplication.

    Each generator is the first element not reached by the earlier ones; in a
    group it at least doubles the reached set, so there are at most log2 n.
    """
    reached = [False] * len(rows)
    reached[identity] = True
    closure = [identity]
    gens: list[int] = []
    for a in range(len(rows)):
        if reached[a]:
            continue
        gens.append(a)
        frontier = list(closure)
        while frontier:
            row = rows[frontier.pop()]
            for g in gens:
                y = row[g]
                if not reached[y]:
                    reached[y] = True
                    closure.append(y)
                    frontier.append(y)
    return gens


def _raise_first_violation(rows: list[list[int]]) -> None:
    """Scan the triples (i, j, k) in order and name the first non-associative one."""
    n = len(rows)
    for i in range(n):
        ti = rows[i]
        for j in range(n):
            tij = ti[j]
            tj = rows[j]
            for k in range(n):
                if rows[tij][k] != ti[tj[k]]:
                    raise NotAssociative(
                        f"({i}*{j})*{k} = {rows[tij][k]} but {i}*({j}*{k}) = {ti[tj[k]]}")


def cyclic(n: int) -> FiniteGroup:
    """Cyclic group C_n under addition mod n."""
    if n < 1:
        raise InvalidOrder(f"cyclic group order must be >= 1, got {n}")
    if n > DEFAULT_ORDER_CAP:
        raise OrderOverflow(f"cyclic group order {n} exceeds cap {DEFAULT_ORDER_CAP}")
    # Row i is (i + j) mod n over j: a slice of the indices listed twice.
    twice = list(range(n)) * 2
    return FiniteGroup([twice[i:i + n] for i in range(n)], name=f"C{n}")


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n.

    Indices 0..n-1 are the rotations r^i, indices n..2n-1 the reflections
    r^i*s, with s*r = r^-1*s.
    """
    if n < 1:
        raise InvalidOrder(f"dihedral parameter must be >= 1, got {n}")
    size = 2 * n
    if size > DEFAULT_ORDER_CAP:
        raise OrderOverflow(f"dihedral group order {size} exceeds cap {DEFAULT_ORDER_CAP}")
    # Row r^a lists r^(a+b) and then r^(a+b)*s over b, row r^a*s lists r^(a-b)*s
    # and then r^(a-b): slices of each half's indices listed twice, forwards for
    # a + b and backwards, from k = n-1-a, for a - b.
    rot, ref = list(range(n)) * 2, list(range(n, size)) * 2
    rot_back, ref_back = rot[::-1], ref[::-1]
    table = [rot[a:a + n] + ref[a:a + n] for a in range(n)]
    table += [ref_back[k:k + n] + rot_back[k:k + n] for k in reversed(range(n))]
    names = [f"r{i}" for i in range(n)] + [f"s{i}" for i in range(n)]
    return FiniteGroup(table, name=f"D{n}", element_names=names)


def symmetric(n: int) -> FiniteGroup:
    """Symmetric group on n letters, n in [1, 5].

    Elements are the permutations of 0..n-1 in lexicographic order of their
    image tuples; the product p*q maps x to p[q[x]].
    """
    if not 1 <= n <= 5:
        raise InvalidOrder(f"symmetric group parameter must be in [1, 5], got {n}")
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[x]] for x in range(n))] for q in perms] for p in perms]
    names = ["".join(str(x) for x in p) for p in perms]
    return FiniteGroup(table, name=f"S{n}", element_names=names)


def quaternion8() -> FiniteGroup:
    """Quaternion group {1, -1, i, -i, j, -j, k, -k} of order 8."""
    # Element 2*axis + (0 if positive else 1), axes 1, i, j, k.
    def mul(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        sa, ta = a
        sb, tb = b
        if ta == 0:
            return (sa * sb, tb)
        if tb == 0:
            return (sa * sb, ta)
        if ta == tb:
            return (-sa * sb, 0)
        # i*j = k and cyclically; swapping the factors flips the sign.
        axis = 6 - ta - tb
        sign = 1 if (ta, tb) in ((1, 2), (2, 3), (3, 1)) else -1
        return (sign * sa * sb, axis)

    elements = [(s, t) for t in range(4) for s in (1, -1)]
    index = {e: x for x, e in enumerate(elements)}
    table = [[index[mul(a, b)] for b in elements] for a in elements]
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    return FiniteGroup(table, name="Q8", element_names=names)


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Direct product with componentwise multiplication.

    The pair (i, j) becomes index i*g2.order + j; power graphs and graph
    products built on the factors use the same encoding, so results can be
    compared by labeled equality.
    """
    n1, n2 = g1.order, g2.order
    n = n1 * n2
    if n > DEFAULT_ORDER_CAP:
        raise OrderOverflow(f"product order {n} exceeds cap {DEFAULT_ORDER_CAP}")
    # Row (i1, i2) lists (i1*j1, i2*j2) over the columns (j1, j2) in index order.
    table = [[x1 * n2 + x2 for x1 in t1 for x2 in t2] for t1 in g1.table for t2 in g2.table]
    names = [f"({a},{b})" for a in g1.element_names for b in g2.element_names]
    return FiniteGroup(table, name=f"{g1.name}x{g2.name}", element_names=names)


def load_cayley_table(path: str | Path) -> FiniteGroup:
    """Load and validate a group from a text Cayley table.

    Format: first line is n, then n lines of n whitespace-separated 0-based
    indices with row i column j holding i*j.  Lines starting with '#' are
    ignored.
    """
    path = Path(path)
    lines = []
    # utf-8-sig also drops one leading byte-order mark.  read_text turns \r\n
    # and \r into \n; splitlines() would also end lines at \x0c or U+2028.
    for lineno, raw in enumerate(path.read_text(encoding="utf-8-sig").split("\n"), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        lines.append((lineno, stripped))
    if not lines:
        raise ValueError(f"{path}: no data lines")
    header_line, header = lines[0]
    if not _is_decimal(header):
        raise ValueError(f"{path}:{header_line}: expected group order, got {header!r}")
    n = int(header)
    if n < 1:
        raise InvalidOrder(f"{path}:{header_line}: order must be >= 1, got {n}")
    if n > DEFAULT_ORDER_CAP:
        raise OrderOverflow(f"{path}:{header_line}: order {n} exceeds cap {DEFAULT_ORDER_CAP}")
    if len(lines) - 1 != n:
        raise ValueError(f"{path}: expected {n} table rows, got {len(lines) - 1}")

    # Rows are parsed while the validator copies them, so the table is held once.
    def rows():
        for lineno, text in lines[1:]:
            tokens = text.split()
            if len(tokens) != n:
                raise ValueError(f"{path}:{lineno}: expected {n} entries, got {len(tokens)}")
            try:
                # Joined ASCII tokens without '_' are a sign and digits to
                # int(), whatever Unicode whitespace separated them.
                if "_" in text or not "".join(tokens).isascii():
                    raise ValueError
                row = list(map(int, tokens))
            except ValueError:
                bad = next(tok for tok in tokens if not _is_decimal(tok))
                raise ValueError(f"{path}:{lineno}: invalid entry {bad!r}") from None
            yield row

    return group_from_cayley_table(rows(), name=path.stem)


def _is_decimal(token: str) -> bool:
    """An optional sign, then ASCII digits that int() reads; int() alone also
    takes '_' between digits and any Unicode decimal digit."""
    digits = token[1:] if token[:1] in ("+", "-") else token
    try:
        # int() still refuses more digits than sys.get_int_max_str_digits().
        return digits.isascii() and digits.isdigit() and int(digits) >= 0
    except ValueError:
        return False
