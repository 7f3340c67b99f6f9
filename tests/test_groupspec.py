"""The textual group-expression parser."""

import pytest

from powergraphs import OrderOverflow, ParseError, parse_group_spec


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


def test_parse_errors_carry_positions():
    cases = [
        ("", 0),
        ("C", 1),
        ("Z4", 0),
        ("C2x", 3),
        ("C2yC3", 2),
        ("cayley:", 7),
    ]
    for text, position in cases:
        with pytest.raises(ParseError) as info:
            parse_group_spec(text)
        assert info.value.position == position, text


def test_error_message_names_position():
    with pytest.raises(ParseError, match=r"position 1"):
        parse_group_spec("D")


def test_product_cap():
    with pytest.raises(OrderOverflow):
        parse_group_spec("C6xC6", cap=30)


def test_atom_cap(tmp_path, monkeypatch):
    path = tmp_path / "z3.tbl"
    path.write_text("3\n0 1 2\n1 2 0\n2 0 1\n")
    assert parse_group_spec("C10", cap=10).order == 10
    for spec, cap in (("S4", 10), ("Q8", 4), (f"cayley:{path}", 2)):
        with pytest.raises(OrderOverflow):
            parse_group_spec(spec, cap=cap)

    # C<n> and D<n> are rejected before their tables are built
    def unreachable(n):
        raise AssertionError(f"built a group for n={n}")
    monkeypatch.setattr("powergraphs.groupspec.cyclic", unreachable)
    monkeypatch.setattr("powergraphs.groupspec.dihedral", unreachable)
    for spec in ("C20", "D15"):
        with pytest.raises(OrderOverflow):
            parse_group_spec(spec, cap=10)
