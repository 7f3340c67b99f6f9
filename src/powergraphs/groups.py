"""Finite groups on element indices 0..n-1, each with its Cayley table.

Groups given as tables (Cayley files, S_n, Q8) walk their powers in the
table.  Cyclic, dihedral and direct-product groups follow a rule, and build
their table only when it is first read.
"""

import functools
import itertools
import operator
from math import gcd, lcm
from pathlib import Path
from typing import NamedTuple

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


class CyclicSubgroups(NamedTuple):
    """The cyclic subgroups of a group, one walk each.

    walks[s] is [c, c^2, ..., c^o] for the chosen generator c of subgroup s,
    the first of its generators in index order, with o = len(walks[s]).
    Element x generates subgroup[x] and is c^exponent[x], an exponent prime to o.
    """

    walks: list[list[int]]
    subgroup: list[int]
    exponent: list[int]


class _ResidueMasks(dict):
    """The start-residue masks of a group's cyclic subgroups, each list
    built when it is first read.

    Entry (s, d, scale) lists, for r in 0..d-1, the mask with bit
    c^u * scale for each power c^u = walks[s][u - 1] with u = r mod d.
    The power join (products._power_rows) reads them, with scale 1 for its
    right factor and the right factor's order for its left one.
    """

    def __init__(self, walks: list[list[int]]):
        super().__init__()
        self.walks = walks

    def __missing__(self, key: tuple[int, int, int]) -> list[int]:
        s, d, scale = key
        walk = self.walks[s]
        # The powers are distinct, so summing their bits ORs them.
        masks = self[key] = [sum(map((1).__lshift__, map(scale.__mul__, walk[(r - 1) % d::d])))
                             for r in range(d)]
        return masks


class FiniteGroup:
    """Finite group with elements 0..n-1 and a full multiplication table.

    The identity is auto-detected from the table at construction; the
    cyclic subgroups and element orders, and the element names when none
    are given ("0".."n-1", or a direct product's "(a,b)" pairs), are
    computed on first read and then cached.  The power join keeps its
    residue masks in a dict on the group, one entry per subgroup, divisor
    and partner order joined.  Apart from these caches, instances are never
    mutated and are safe to share.  The constructor trusts its input and
    keeps the table it is given, without copying it, so callers must not
    change that table afterwards.  group_from_cayley_table
    validates an untrusted table and builds the group on a copy of it.
    Cyclic, dihedral and product groups are _RuleGroups: they take their
    identity, walks and commutativity from a rule, and build the table only
    when it is first read.
    """

    def __init__(self, table: list[list[int]], name: str = "G",
                 element_names: list[str] | None = None):
        self._label(len(table), name, element_names)
        self.table = table
        self.identity = self._find_identity()

    def _label(self, order: int, name: str, element_names: list[str] | None) -> None:
        self.order = order
        if order == 0:
            raise InvalidOrder("a group has at least one element")
        self.name = name
        if element_names is not None:
            if len(element_names) != order:
                raise ValueError(f"got {len(element_names)} element names for order {order}")
            # Set on the instance, so the default below is never built.
            self.element_names = list(element_names)

    @functools.cached_property
    def element_names(self) -> list[str]:
        return [str(i) for i in range(self.order)]

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
    def cyclic_subgroups(self) -> CyclicSubgroups:
        """One walk per cyclic subgroup.  In a group the generators of <a>
        are the a^k with k prime to o(a), so the walk of a names all of them,
        read at the indices _units gives."""
        walks: list[list[int]] = []
        subgroup, exponent = [-1] * self.order, [0] * self.order
        for a in range(self.order):
            if subgroup[a] >= 0:
                continue
            walk = self.powers(a)
            s = len(walks)
            for k in _units(len(walk)):
                x = walk[k - 1]
                subgroup[x], exponent[x] = s, k
            walks.append(walk)
        return CyclicSubgroups(walks, subgroup, exponent)

    @functools.cached_property
    def _residue_masks(self) -> _ResidueMasks:
        return _ResidueMasks(self.cyclic_subgroups.walks)

    @functools.cached_property
    def element_orders(self) -> list[int]:
        walks, subgroup, _ = self.cyclic_subgroups
        return [len(walks[s]) for s in subgroup]

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
        # A group is abelian iff its generators commute pairwise; there are
        # at most log2 n of them, and the order-1 group has none.
        t = self.table
        gens = _generators(t, self.identity)
        return all(t[a][b] == t[b][a] for a in gens for b in gens)


@functools.cache
def _units(o: int) -> tuple[int, ...]:
    """The k in 1..o prime to o: the exponents at which c^k generates <c>
    for c of order o.  Element orders are at most the order cap, which
    bounds the cache."""
    return tuple(k for k in range(1, o + 1) if gcd(k, o) == 1)


def group_from_cayley_table(table, name: str = "G") -> FiniteGroup:
    """Validate an untrusted multiplication table and build the group on a copy of it.

    Checks run in the order closure (skipped on load_cayley_table's closed
    rows), Latin square, identity, associativity; error messages name the
    first violating cell.  Latin rows, an identity and associativity make a
    group, so columns are checked only when the identity or associativity
    fails, before that error is raised: the first error named stays the same.
    """
    trusted = type(table) is _LoadedRows
    rows = list(table) if trusted else [list(row) for row in table]
    n = len(rows)
    if n == 0:
        raise InvalidOrder("table is empty")
    if not trusted:
        _check_closure(rows)
    _check_latin(rows, n, "row", "columns")
    try:
        group = FiniteGroup(rows, name=name)
    except NoIdentity:
        _check_latin(zip(*rows), n, "column", "rows")
        raise
    # Light's test.  The g with (x*g)*y = x*(g*y) for all x, y include the
    # identity and are closed under the product, so they include every element
    # reached from the identity by right multiplication with generators: all of them.
    # _generators gives None only when the table is not a group: its columns or associativity fail.
    gens = _generators(rows, group.identity)
    if gens is not None and all(_light_passes(rows, g) for g in gens):
        return group
    _check_latin(zip(*rows), n, "column", "rows")
    _raise_first_violation(rows)


def _light_passes(rows: list[list[int]], g: int) -> bool:
    """(x*g)*y = x*(g*y) for all x, y."""
    # times_g(ti) lists i*(g*v) over v.  An order-1 table has no
    # generators, so rows[g] holds at least two indices and it is a tuple.
    times_g = operator.itemgetter(*rows[g])
    return all(list(times_g(ti)) == rows[ti[g]] for ti in rows)


class _LoadedRows(list):
    """The rows of a Cayley file, each an exact-size list of the loader's n shared ints."""


def _check_closure(rows: list[list]) -> None:
    """Each row has n entries, each an index in 0..n-1."""
    n = len(rows)
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


def _check_latin(lines, n: int, kind: str, across: str) -> None:
    """Each line is checked as a set; only a failing one is walked to name the cell."""
    for i, line in enumerate(lines):
        if len(set(line)) == n:
            continue
        first: dict[int, int] = {}
        for j, v in enumerate(line):
            if first.setdefault(v, j) != j:
                raise NotLatinSquare(f"{kind} {i} repeats entry {v} at {across} {first[v]} and {j}")


def _generators(rows: list[list[int]], identity: int) -> list[int] | None:
    """Elements that reach every element from the identity by right multiplication.

    Each generator is the first element not reached by the earlier ones; in a
    group the reached set is the subgroup they generate, and the new one's coset
    at least doubles it, so there are at most log2 n.  A generator that does not
    double it shows that the table is not a group, and None is returned: without
    that stop a table that is not one could take n - 1 generators and n^3 steps.
    """
    reached = [False] * len(rows)
    reached[identity] = True
    closure = [identity]
    gens: list[int] = []
    for a in range(len(rows)):
        if reached[a]:
            continue
        gens.append(a)
        before = len(closure)
        frontier = list(closure)
        while frontier:
            row = rows[frontier.pop()]
            for g in gens:
                y = row[g]
                if not reached[y]:
                    reached[y] = True
                    closure.append(y)
                    frontier.append(y)
        if len(closure) < 2 * before:
            return None
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


class _RuleGroup(FiniteGroup):
    """A group whose identity, walks and commutativity follow from a rule.

    Power graphs, weights and products read only those, so the table is
    built by _table() when it is first read: by the brute-force exponent
    check, or by a caller.
    """

    def __init__(self, order: int, name: str, element_names: list[str] | None, identity: int):
        self._label(order, name, element_names)
        self.identity = identity

    @functools.cached_property
    def table(self) -> list[list[int]]:
        return self._table()


def _multiples(a: int, n: int) -> list[int]:
    """[a, 2a, ..., 0] mod n: the walk of r^a in a cyclic group of order n,
    for n / gcd(a, n) steps."""
    return list(map(n.__rmod__, range(a, a * (n // gcd(a, n)) + 1, a))) if a else [0]


class _Dihedral(_RuleGroup):
    """The n rotations r^a at indices 0..n-1 and, in D_n, the n reflections
    r^a*s at n..2n-1, with s*r = r^-1*s; C_n is the rotations alone."""

    def __init__(self, n: int, reflections: bool):
        self.rotations = n
        if reflections:
            super().__init__(2 * n, f"D{n}", [f"r{i}" for i in range(n)] + [f"s{i}" for i in range(n)], 0)
        else:
            super().__init__(n, f"C{n}", None, 0)

    def powers(self, a: int) -> list[int]:
        # r^a walks its multiples of a mod n; every reflection is an involution.
        n = self.rotations
        return _multiples(a, n) if a < n else [a, 0]

    def is_abelian(self) -> bool:
        # C_n has no reflections, D1 is C2 and D2 is C2 x C2; from D3 on,
        # s*r = r^-1*s differs from r*s.
        return self.order == self.rotations or self.order <= 4

    def _table(self) -> list[list[int]]:
        n, size = self.rotations, self.order
        # Row r^a lists r^(a+b) and then r^(a+b)*s over b, row r^a*s lists r^(a-b)*s
        # and then r^(a-b): slices of each half's indices listed twice, forwards for
        # a + b and backwards, from k = n-1-a, for a - b.
        rot, ref = list(range(n)) * 2, list(range(n, size)) * 2
        if not ref:
            return [rot[a:a + n] for a in range(n)]
        rot_back, ref_back = rot[::-1], ref[::-1]
        table = [rot[a:a + n] + ref[a:a + n] for a in range(n)]
        table += [ref_back[k:k + n] + rot_back[k:k + n] for k in reversed(range(n))]
        return table


class _DirectProduct(_RuleGroup):
    def __init__(self, g1: FiniteGroup, g2: FiniteGroup):
        self.factors = g1, g2
        self._walks = {}, {}  # x1 -> [x1^t * n2 over t], x2 -> [x2^t over t]
        super().__init__(g1.order * g2.order, f"{g1.name}x{g2.name}", None,
                         g1.identity * g2.order + g2.identity)

    @functools.cached_property
    def element_names(self) -> list[str]:
        g1, g2 = self.factors
        return _pair_labels(g1.element_names, g2.element_names)

    def powers(self, a: int) -> list[int]:
        # (x1, x2)^t = (x1^t, x2^t): the factors' walks read in step, each
        # repeated to lcm(o1, o2) steps.  Elements share their components,
        # so each component's walk is kept once it is taken.
        g1, g2 = self.factors
        n2 = g2.order
        x1, x2 = divmod(a, n2)
        left, right = self._walks
        walk1 = left.get(x1)
        if walk1 is None:
            walk1 = left[x1] = list(map(n2.__mul__, g1.powers(x1)))
        walk2 = right.get(x2)
        if walk2 is None:
            walk2 = right[x2] = g2.powers(x2)
        o = lcm(len(walk1), len(walk2))
        return list(map(operator.add, walk1 * (o // len(walk1)), walk2 * (o // len(walk2))))

    def is_abelian(self) -> bool:
        g1, g2 = self.factors
        return g1.is_abelian() and g2.is_abelian()

    def _table(self) -> list[list[int]]:
        g1, g2 = self.factors
        n2 = g2.order
        # Row (i1, i2) lists (i1*j1, i2*j2) over the columns (j1, j2) in index order,
        # read from one list of the indices x1*n2 + x2 per x1, so rows share their ints.
        blocks = [list(range(x, x + n2)) for x in range(0, self.order, n2)]
        return [[b[x2] for x1 in t1 for b in (blocks[x1],) for x2 in t2]
                for t1 in g1.table for t2 in g2.table]


def cyclic(n: int) -> FiniteGroup:
    """Cyclic group C_n under addition mod n: element a is r^a."""
    if n < 1:
        raise InvalidOrder(f"cyclic group order must be >= 1, got {n}")
    if n > DEFAULT_ORDER_CAP:
        raise OrderOverflow(f"cyclic group order {n} exceeds cap {DEFAULT_ORDER_CAP}")
    return _Dihedral(n, False)


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
    return _Dihedral(n, True)


def symmetric(n: int) -> FiniteGroup:
    """Symmetric group on n letters, n in [1, 5].

    Elements are the permutations of 0..n-1 in lexicographic order of their
    image tuples; the product p*q maps x to p[q[x]].
    """
    if not 1 <= n <= 5:
        raise InvalidOrder(f"symmetric group parameter must be in [1, 5], got {n}")
    perms = list(itertools.permutations(range(n)))
    names = ["".join(str(x) for x in p) for p in perms]
    # itemgetter(*q) maps p to p*q in C; on one letter it would return p[0], not a tuple.
    right = [operator.itemgetter(*q) if n > 1 else tuple for q in perms]
    return _from_product(perms, right, f"S{n}", names)


def quaternion8() -> FiniteGroup:
    """Quaternion group {1, -1, i, -i, j, -j, k, -k} of order 8.

    Element (a, b, c, d) is a + bi + cj + dk under Hamilton's product.
    """
    def mul(p, q):
        a, b, c, d = p
        w, x, y, z = q
        return (a * w - b * x - c * y - d * z, a * x + b * w + c * z - d * y,
                a * y - b * z + c * w + d * x, a * z + b * y - c * x + d * w)

    units = [tuple(s * (t == axis) for t in range(4)) for axis in range(4) for s in (1, -1)]
    right = [functools.partial(mul, q=q) for q in units]
    return _from_product(units, right, "Q8", ["1", "-1", "i", "-i", "j", "-j", "k", "-k"])


def _from_product(elements: list, right: list, name: str, names: list[str]) -> FiniteGroup:
    """The group of the listed elements, each indexed by its position, where
    right[j] maps a to the product a * elements[j]."""
    index = {e: i for i, e in enumerate(elements)}
    return FiniteGroup([[index[times(a)] for times in right] for a in elements],
                       name=name, element_names=names)


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Direct product with componentwise multiplication.

    The pair (i, j) becomes index i*g2.order + j; power graphs and graph
    products built on the factors use the same encoding, so results can be
    compared by labeled equality.  The product walks its factors' walks, and
    builds its table and its element names "(a,b)" from theirs only when
    each is read.
    """
    n = g1.order * g2.order
    if n > DEFAULT_ORDER_CAP:
        raise OrderOverflow(f"product order {n} exceeds cap {DEFAULT_ORDER_CAP}")
    return _DirectProduct(g1, g2)


def _pair_labels(left: list[str], right: list[str]) -> list[str]:
    """"(a,b)" for each a in left and then each b in right: the names of a
    direct product's elements and the labels of a product graph's vertices."""
    # One concatenation per pair: about twice as fast as one f-string per pair.
    tails = [f"{b})" for b in right]
    return [head + tail for head in [f"({a}," for a in left] for tail in tails]


def load_cayley_table(path: str | Path) -> FiniteGroup:
    """Load and validate a group from a text Cayley table.

    Format: first line is n, then n lines of n whitespace-separated 0-based
    indices with row i column j holding i*j.  Lines starting with '#' are
    ignored.  The file is read once, a line at a time, so a pipe works too.
    """
    path = Path(path)
    # utf-8-sig also drops one leading byte-order mark.  Text mode ends lines
    # at \n, \r\n and \r only; splitlines() would also end them at \x0c or U+2028.
    # A byte that is not UTF-8 is read as a lone surrogate, so the line it is
    # on is named as the text layer counts it.
    with path.open(encoding="utf-8-sig", errors="surrogateescape") as file:
        def lines():
            for lineno, line in enumerate(file, start=1):
                if not line.isascii():
                    try:
                        line.encode("utf-8", "surrogateescape").decode("utf-8")
                    except UnicodeDecodeError as exc:
                        raise ValueError(f"{path}:{lineno}: not UTF-8 text "
                                         f"({exc.reason}, byte {exc.object[exc.start]:#04x})") from None
                if (text := line.strip()) and not text.startswith("#"):
                    yield lineno, text

        data = lines()
        header_line, header = next(data, (0, None))
        if header is None:
            raise ValueError(f"{path}: no data lines")
        if not _is_decimal(header):
            raise ValueError(f"{path}:{header_line}: expected group order, got {header!r}")
        n = int(header)
        if n < 1:
            raise InvalidOrder(f"{path}:{header_line}: order must be >= 1, got {n}")
        if n > DEFAULT_ORDER_CAP:
            raise OrderOverflow(f"{path}:{header_line}: order {n} exceeds cap {DEFAULT_ORDER_CAP}")

        # Each entry spelt as a plain index maps to one of n shared ints, as in
        # the built-in groups; a row with any other spelling names its first token
        # that is not a decimal integer, or else is read with int(), and then
        # mapped to the shared ints if every entry is an index.
        index = {str(i): i for i in range(n)}
        shared = list(index.values())

        # Each of the first n rows is parsed as its line is read, at its exact
        # size; any further lines are only counted.  The table is closed unless
        # a re-spelt row holds an entry out of range.
        rows, closed = [], True
        for lineno, text in itertools.islice(data, n):
            tokens = text.split()
            if len(tokens) != n:
                raise ValueError(f"{path}:{lineno}: expected {n} entries, got {len(tokens)}")
            try:
                row = _pick(tokens, index)
            except KeyError:
                try:
                    # int() reads an ASCII token without '_' only if it is a
                    # sign and digits, as _is_decimal asks.
                    joined = "".join(tokens)
                    if not joined.isascii() or "_" in joined:
                        raise ValueError
                    row = list(map(int, tokens))
                except ValueError:
                    bad = next(tok for tok in tokens if not _is_decimal(tok))
                    raise ValueError(f"{path}:{lineno}: invalid entry {bad!r}") from None
                # Range first: a negative entry would pick from the end.
                if 0 <= min(row) and max(row) < n:
                    row = _pick(row, shared)
                else:
                    closed = False
            rows.append(row)
        count = len(rows) + sum(1 for _ in data)
    if count != n:
        raise ValueError(f"{path}: expected {n} table rows, got {count}")
    del text, tokens  # no line's text is held while the table is validated
    try:
        return group_from_cayley_table(_LoadedRows(rows) if closed else rows, name=path.stem)
    except CayleyTableError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _pick(keys: list, source) -> list:
    """[source[k] for k in keys], built in C at its exact size."""
    row = operator.itemgetter(*keys)(source)
    # itemgetter returns a tuple, or the bare value for one key.
    return list(row) if len(keys) > 1 else [row]


def _is_decimal(token: str) -> bool:
    """An optional sign, then ASCII digits that int() reads; int() alone also
    takes '_' between digits and any Unicode decimal digit."""
    digits = token[1:] if token[:1] in ("+", "-") else token
    try:
        # int() still refuses more digits than sys.get_int_max_str_digits().
        return digits.isascii() and digits.isdigit() and int(digits) >= 0
    except ValueError:
        return False
