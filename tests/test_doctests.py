"""Keep module doctests honest — they are part of the documentation."""

import doctest

import pytest

import repro.automata.nfa
import repro.automata.regex
import repro.core.builder
import repro.core.conditions
import repro.core.explain
import repro.core.optimizer
import repro.core.parser
import repro.core.positions
import repro.datalog.parser
import repro.graphdb.gxpath_parser
import repro.graphdb.nre
import repro.graphdb.rpq
import repro.logic.parser
import repro.triplestore.model

MODULES = [
    repro.automata.nfa,
    repro.automata.regex,
    repro.core.builder,
    repro.core.conditions,
    repro.core.explain,
    repro.core.optimizer,
    repro.core.parser,
    repro.core.positions,
    repro.datalog.parser,
    repro.graphdb.gxpath_parser,
    repro.graphdb.nre,
    repro.graphdb.rpq,
    repro.logic.parser,
    repro.triplestore.model,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.attempted > 0, (
        f"{module.__name__} has no doctests (remove it from the list)"
    )
    assert result.failed == 0
