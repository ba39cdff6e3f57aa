"""Every text parser reports a syntax error at an offset into the text
it was given: the character it could not read."""

import pytest

from repro.automata.regex import parse_regex
from repro.core.conditions import parse_conditions
from repro.core.parser import parse
from repro.datalog.parser import parse_program
from repro.errors import ParseError
from repro.graphdb.gxpath_parser import parse_gxpath, parse_gxpath_node
from repro.graphdb.nre import parse_nre
from repro.logic.parser import parse_formula

CASES = [
    # A missing condition term inside the brackets: the offset is the
    # query's, not the bracket contents'.
    (parse, "join[1,2,3'; 2=](E, E)", "]"),
    (parse, "select[2='a' & 1=?](E)", "?"),
    (parse, "join[1,2,?](E, E)", "?"),
    (parse_conditions, "2=1' & 1 ? 2", "?"),
    (parse_formula, "exists y (E(x, y, z) and ?)", "?"),
    (parse_program, "Ans(x, y z) :- E(x, y, z).", "z"),
    # Comments count: the offset is into the text as written.
    (parse_program, "% copy E\nAns(x, y, z) :- E(x, y, z), x ? z. # done", "?"),
    (parse_gxpath, "a/b/?", "?"),
    (parse_gxpath_node, "<a> and ?", "?"),
    (parse_regex, "a.(b+?)", "?"),
    (parse_nre, "a.[b.?]", "?"),
]


@pytest.mark.parametrize(
    "parser, text, bad", CASES, ids=[f"{p.__name__}:{t}" for p, t, _ in CASES]
)
def test_error_names_the_offset_of_the_bad_character(parser, text, bad):
    with pytest.raises(ParseError) as info:
        parser(text)
    assert info.value.pos == text.index(bad)
    assert info.value.text == text
