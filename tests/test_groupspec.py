"""The textual group-expression parser."""

import pytest

from powergraphs import InvalidOrder, OrderOverflow, ParseError, parse_group_spec


def test_atoms():
    assert parse_group_spec("C6").order == 6
    assert parse_group_spec("C1").order == 1
    assert parse_group_spec("D4").order == 8
    assert parse_group_spec("S3").order == 6
    assert parse_group_spec("Q8").order == 8


def test_products_associate_left():
    g = parse_group_spec("C2xC3")
    assert g.order == 6
    assert g.name == "C2xC3"
    g = parse_group_spec("C2xC2xC2")
    assert g.order == 8
    assert g.name == "C2xC2xC2"


def test_cayley_atom(tmp_path):
    path = tmp_path / "z3.tbl"
    path.write_text("3\n0 1 2\n1 2 0\n2 0 1\n")
    g = parse_group_spec(f"cayley:{path}")
    assert g.order == 3
    assert g.name == "z3"


def test_cayley_in_product(tmp_path):
    path = tmp_path / "z2.tbl"
    path.write_text("2\n0 1\n1 0\n")
    assert parse_group_spec(f"cayley:{path}xC3").order == 6


def test_cayley_path_may_contain_x(tmp_path):
    # an 'x' not followed by an atom stays part of the path
    path = tmp_path / "axb.tbl"
    path.write_text("1\n0\n")
    assert parse_group_spec(f"cayley:{path}").order == 1
    # nor does an 'x' at the very end of the spec
    path = tmp_path / "z2x"
    path.write_text("2\n0 1\n1 0\n")
    assert parse_group_spec(f"cayley:{path}").order == 2


def test_parse_errors_carry_positions():
    cases = [
        ("", 0),
        ("C", 1),
        ("Z4", 0),
        ("C2x", 3),
        ("C2yC3", 2),
        ("cayley:", 7),
        # '²' is a digit to str.isdigit but not to int().
        ("C\u00b2", 1),
        # U+0661 U+0662 are decimal digits to str.isdecimal and to int().
        ("C\u0661\u0662", 1),
        # More digits than int() converts by default.
        ("C" + "9" * 5000, 1),
    ]
    for text, position in cases:
        with pytest.raises(ParseError) as info:
            parse_group_spec(text)
        assert info.value.position == position, text
    with pytest.raises(ParseError, match=r"^expected a number after 'C' \(position 1\)$"):
        parse_group_spec("C\u0661\u0662")
    with pytest.raises(ParseError, match=r"^number after 'D' is too long \(position 4\)$"):
        parse_group_spec("C2xD" + "1" * 5000)
    # An atom its builder rejects keeps the builder's error, which names its position.
    for text, position in (("Q8xC0", 3), ("D0", 0), ("C2xS0", 3), ("S6", 0)):
        with pytest.raises(InvalidOrder, match=rf"\(position {position}\)$"):
            parse_group_spec(text)


def test_error_message_names_position():
    with pytest.raises(ParseError, match=r"position 1"):
        parse_group_spec("D")


def test_product_cap(monkeypatch):
    monkeypatch.setattr("powergraphs.groups.DEFAULT_ORDER_CAP", 30)
    assert parse_group_spec("C5xC6").order == 30
    with pytest.raises(OrderOverflow, match=r"^product order 36 exceeds cap 30$"):
        parse_group_spec("C6xC6")


def test_atom_cap(tmp_path, monkeypatch):
    z3 = tmp_path / "z3.tbl"
    z3.write_text("3\n0 1 2\n1 2 0\n2 0 1\n")
    z5 = tmp_path / "z5.tbl"
    z5.write_text("5\n")
    monkeypatch.setattr("powergraphs.groups.DEFAULT_ORDER_CAP", 4)
    assert parse_group_spec("C2xD1").order == 4
    assert parse_group_spec(f"C1xcayley:{z3}").order == 3
    # The builder's own error gains the position of the atom that overflowed.
    cases = (("C5", "cyclic group order 5 exceeds cap 4 (position 0)"),
             ("C2xD3", "dihedral group order 6 exceeds cap 4 (position 3)"),
             (f"C1xcayley:{z5}", f"{z5}:1: order 5 exceeds cap 4 (position 3)"))
    for spec, message in cases:
        with pytest.raises(OrderOverflow) as info:
            parse_group_spec(spec)
        assert str(info.value) == message
