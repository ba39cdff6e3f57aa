"""Tests for the TriAL text-syntax parser."""

import pytest
from hypothesis import given, settings

from repro.errors import ParseError
from repro.core import (
    Diff,
    Intersect,
    Join,
    Rel,
    Select,
    Star,
    Union,
    Universe,
    parse,
)
from repro.core.conditions import Cond
from repro.core.positions import Const, Pos
from tests.conftest import expressions


class TestBasics:
    def test_relation_name(self):
        assert parse("E") == Rel("E")
        assert parse("part_of") == Rel("part_of")

    def test_universe(self):
        assert parse("U") == Universe()

    def test_join(self):
        e = parse("join[1,3',3; 2=1'](E, E)")
        assert isinstance(e, Join)
        assert e.out == (0, 5, 2)
        assert len(e.conditions) == 1

    def test_join_without_conditions(self):
        assert parse("join[1,2,3'](E, F)").conditions == ()

    def test_select(self):
        e = parse("select[2='part_of' & rho(1)=rho(3)](E)")
        assert isinstance(e, Select)
        assert len(e.conditions) == 2

    def test_stars(self):
        right = parse("star[1,2,3'; 3=1'](E)")
        left = parse("lstar[1,2,3'; 3=1'](E)")
        assert isinstance(right, Star) and right.side == "right"
        assert isinstance(left, Star) and left.side == "left"

    def test_compl(self):
        e = parse("compl(E)")
        assert e == Diff(Universe(), Rel("E"))

    def test_binary_operators_left_assoc(self):
        e = parse("E | F - G")
        # left-assoc: (E | F) - G
        assert isinstance(e, Diff)
        assert isinstance(e.left, Union)

    def test_parentheses(self):
        e = parse("E - (F | G)")
        assert isinstance(e, Diff) and isinstance(e.right, Union)

    def test_intersection(self):
        assert isinstance(parse("E & F"), Intersect)

    @pytest.mark.parametrize(
        "text, value",
        [("1=10", 10), ("1=3.14", 3.14), ("2=1.0", 1.0), ("3=25", 25), ("1=42", 42)],
    )
    def test_numbers_that_start_with_a_position_digit(self, text, value):
        assert parse(f"select[{text}](E)").conditions[0].right == Const(value)

    def test_nested_query_q(self):
        e = parse("star[1,2,3'; 3=1' & 2=2'](star[1,3',3; 2=1'](E))")
        from repro.core import query_q

        assert e == query_q()


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "join[1,2,3](E)",  # missing second operand
            "join[1,2](E, F)",  # bad out spec
            "select[1=2](E",  # unbalanced
            "E F",  # trailing input
            "star[1,2,3'; 3=1'](E) extra",
            "join[1,2,3; ***](E, F)",
        ],
    )
    def test_rejects(self, text):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            parse(text)


class TestRoundTrip:
    @given(expressions(max_depth=3))
    @settings(max_examples=60, deadline=None)
    def test_repr_round_trips(self, expr):
        assert parse(repr(expr)) == expr

    @pytest.mark.parametrize(
        "value",
        [
            "a]b", "[x", "a;b", "a&b", "a#b", "50%", "it's", 'say "hi"', "",
            "a\\b", "a\tb", "two\nlines", 10, 3.14, 0, 1, 2, 3, 4, -7, 1e20, 1.5e-7,
        ],
    )
    def test_constants_round_trip(self, value):
        for on_data in (False, True):
            cond = Cond(Pos(1), Const(value), "=", on_data)
            for expr in (
                Select(Rel("E"), (cond,)),
                Join(Rel("E"), Rel("E"), (0, 4, 5), (cond, cond.swap_sides())),
                Star(Rel("E"), (0, 1, 5), (cond,)),
            ):
                assert parse(repr(expr)) == expr

    @pytest.mark.parametrize(
        "value", [True, None, b"x", ("a", 1), float("inf"), "it's \"x\""]
    )
    def test_constants_without_a_text_form_do_not_parse(self, value):
        expr = Select(Rel("E"), (Cond(Pos(1), Const(value)),))
        with pytest.raises(ParseError):
            parse(repr(expr))
