"""Parser for one-token group expressions.

Grammar: atom := "C"<n> | "D"<n> | "S"<n> | "Q8" | "cayley:"<path>;
expr := atom ("x" atom)*, where "x" associates left and denotes the direct
product.  A "cayley:" path extends up to the next "x" that starts another
atom, so paths containing "x" right before an atom-shaped tail cannot be
used inside product expressions.
"""

import re
from collections.abc import Callable
from functools import reduce

from .groups import (
    FiniteGroup,
    InvalidOrder,
    OrderOverflow,
    cyclic,
    dihedral,
    direct_product,
    load_cayley_table,
    quaternion8,
    symmetric,
)


# An 'x' that starts another atom ends a "cayley:" path; digits are ASCII only.
_PATH_END = re.compile(r"x(?=[CDS]|Q8|cayley:)")
_DIGITS = re.compile(r"[0-9]*")


class ParseError(ValueError):
    """Malformed group expression; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


def parse_group_spec(text: str) -> FiniteGroup:
    """Parse and build the group denoted by a spec like C6, D4xQ8, or cayley:g.tbl.

    An atom or partial product over the order cap is rejected by its builder
    before its table is allocated.  An atom whose builder rejects its order
    or size keeps the builder's error, with the atom's position appended.
    """
    factors = []
    for build, args, position in _tokenize(text):
        try:
            factors.append(build(*args))
        except (InvalidOrder, OrderOverflow) as exc:
            raise type(exc)(f"{exc} (position {position})") from None
    return reduce(direct_product, factors)


def _tokenize(text: str) -> list[tuple[Callable[..., FiniteGroup], tuple, int]]:
    # Each atom becomes (builder, arguments, position); nothing is built until
    # every atom has parsed.  Builders are read from the module's globals on
    # each call, so a name rebound on this module is the one called.
    if not text:
        raise ParseError("empty group spec", 0)
    atoms = []
    pos = 0
    while True:
        start = pos
        if text.startswith("cayley:", pos):
            path_start = pos + len("cayley:")
            end = _PATH_END.search(text, path_start)
            pos = end.start() if end else len(text)
            path = text[path_start:pos]
            if not path:
                raise ParseError("missing path after 'cayley:'", path_start)
            atoms.append((load_cayley_table, (path,), start))
        elif text.startswith("Q8", pos):
            atoms.append((quaternion8, (), start))
            pos += 2
        elif pos < len(text) and text[pos] in "CDS":
            letter = text[pos]
            digits_start = pos + 1
            pos = _DIGITS.match(text, digits_start).end()
            if pos == digits_start:
                raise ParseError(f"expected a number after '{letter}'", digits_start)
            try:
                n = int(text[digits_start:pos])
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                raise ParseError(f"number after '{letter}' is too long", digits_start) from None
            atoms.append(({"C": cyclic, "D": dihedral, "S": symmetric}[letter], (n,), start))
        else:
            raise ParseError(f"expected a group atom, found {text[pos:pos + 8]!r}", pos)
        if pos == len(text):
            return atoms
        if text[pos] != "x":
            raise ParseError(f"expected 'x' between atoms, found {text[pos]!r}", pos)
        pos += 1
        if pos == len(text):
            raise ParseError("dangling 'x' at end of spec", pos)
